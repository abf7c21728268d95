//! Cross-commit golden for everything the program call graph decides.
//!
//! Attack-surface classification and the interprocedural taint engine both
//! walk a program's call graph: surfaces propagate input sources from
//! callees to callers, and taint computes summaries callee-first and
//! switches to a fixpoint when the graph has a cycle. This test hashes, unit
//! by unit, the per-function surface map, the interprocedural taint findings
//! and summaries, and the intraprocedural taint findings over the synthetic
//! corpus, its mutants and hand-written call-graph shapes, and compares the
//! digest to a committed constant. A call-graph change that alters any
//! classification, finding or summary fails here; run with `--nocapture` to
//! print the digest.
//!
//! The surface map in the digest comes from a brute-force BFS reference
//! ([`surface_reference`]); a second test checks the production
//! classification against that reference on the same inputs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vulnman::analysis::reachability::{surfaces, Surface};
use vulnman::lang::ast::{Function, Program};
use vulnman::lang::hash::{fnv1a_seeded, FNV_OFFSET};
use vulnman::prelude::*;
use vulnman::synth::mutate::{alpha_rename, insert_comments, insert_dead_statements};

/// Digest of every unit's surface map and taint results, generated before
/// surface classification and taint moved onto the shared call graph.
const GOLDEN_DIGEST: u64 = 0x9d20_0c89_7502_693f;

/// Call-graph shapes the synthetic templates rarely or never produce.
const HAND_WRITTEN: [&str; 5] = [
    // Self-recursion on the path from a source to a sink.
    "int walk(int n) { char* q = http_param(\"q\"); if (n > 0) { return walk(n - 1); } \
     exec_query(q); return 0; }",
    // Mutual recursion: a derived sink inside a two-function cycle.
    "void ping(char* s, int n) { if (n > 0) { pong(s, n - 1); } system(s); }\n\
     void pong(char* s, int n) { if (n > 0) { ping(s, n - 1); } }\n\
     void entry() { char* d = recv(); ping(d, 3); }",
    // A source reached only through a three-deep wrapper chain.
    "char* w3() { return getenv(\"HOME\"); }\n\
     char* w2() { return w3(); }\n\
     char* w1() { return w2(); }\n\
     void handler() { char* v = w1(); open_file(v); }",
    // No external calls at all.
    "int add(int a, int b) { return a + b; }\n\
     int twice(int x) { return add(x, x); }\n\
     int quad(int x) { return twice(twice(x)); }",
    // A program-defined function that shadows a source name.
    "char* recv() { return \"fixed\"; }\n\
     void serve() { char* m = recv(); system(m); }",
];

/// The `hotpath_equivalence` corpus (every CWE family, both labels, mixed
/// tiers) plus [`HAND_WRITTEN`]; each source is followed by its
/// alpha-renamed, commented and dead-statement mutants.
fn corpus_with_mutants() -> Vec<String> {
    let ds =
        DatasetBuilder::new(0x5EED_CAFE).vulnerable_count(70).vulnerable_fraction(0.35).build();
    let mut sources: Vec<String> = ds.iter().map(|s| s.source.clone()).collect();
    sources.extend(HAND_WRITTEN.map(String::from));
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for src in sources {
        out.extend(alpha_rename(&src, 3));
        out.push(insert_comments(&src, &mut rng));
        out.extend(insert_dead_statements(&src, &mut rng));
        out.push(src);
    }
    out
}

/// Brute-force surface classification: one BFS per function over
/// [`Function::callees`], taking the most exposed source among the
/// external (undefined) callees of everything reached.
fn surface_reference(program: &Program) -> BTreeMap<String, Surface> {
    let defined: BTreeMap<&str, &Function> =
        program.functions.iter().map(|f| (f.name.as_str(), f)).collect();
    let mut out = BTreeMap::new();
    for start in &program.functions {
        let mut seen = BTreeSet::from([start.name.as_str()]);
        let mut queue = VecDeque::from([start]);
        let mut surface = Surface::Local;
        while let Some(f) = queue.pop_front() {
            for callee in f.callees() {
                match defined.get(callee.as_str()) {
                    Some(&g) if seen.insert(g.name.as_str()) => queue.push_back(g),
                    Some(_) => {}
                    None => surface = surface.min(Surface::of_source(&callee).unwrap_or(surface)),
                }
            }
        }
        out.insert(start.name.to_string(), surface);
    }
    out
}

#[test]
fn call_graph_results_match_the_committed_digest() {
    let sources = corpus_with_mutants();
    assert!(sources.len() > 500, "corpus unexpectedly small: {}", sources.len());
    let config = TaintConfig::default_config();
    let mut digest = FNV_OFFSET;
    let mut findings = 0usize;
    for src in &sources {
        let program = parse(src).expect("corpus sample must parse");
        let surfaces = surface_reference(&program);
        let inter = TaintAnalysis::run(&program, &config);
        let summaries: BTreeMap<&str, _> =
            inter.summaries.iter().map(|(name, s)| (name.as_str(), s)).collect();
        let intra = TaintAnalysis::run_intraprocedural(&program, &config);
        findings += inter.findings.len() + intra.findings.len();
        for part in [
            format!("{surfaces:?}"),
            format!("{:?}", inter.findings),
            format!("{summaries:?}"),
            format!("{:?}", intra.findings),
        ] {
            digest = fnv1a_seeded(digest, part.as_bytes());
        }
    }
    println!(
        "call-graph digest: {digest:#018x} over {} units, {findings} taint findings",
        sources.len()
    );
    assert!(findings > 0, "the corpus must exercise the taint engine");
    assert_eq!(digest, GOLDEN_DIGEST, "call-graph results drifted from the committed digest");
}

#[test]
fn surfaces_match_the_bfs_reference() {
    for src in corpus_with_mutants() {
        let program = parse(&src).expect("corpus sample must parse");
        let classified = surfaces(&program);
        assert_eq!(classified, surface_reference(&program), "surface map diverges on:\n{src}");
    }
}
