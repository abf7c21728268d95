//! Cross-commit golden for the semantic checker suite.
//!
//! The precision baseline (`absint_baseline`) pins per-CWE counts and the
//! byte-identity suites pin jobs/cache invariance, but neither notices an
//! evidence-text or span drift that every configuration makes the same
//! way. This test hashes, unit by unit, everything `SemanticEngine::analyze`
//! reports — each finding's span, CWE, message, confidence and evidence,
//! plus the folded `SolverStats` — over the synthetic corpus and its
//! mutants, and compares the digest to a committed constant. A kernel
//! change that alters any reported byte fails here; a deliberate output
//! change regenerates the constant (run with `--nocapture` to print it).

use rand::rngs::StdRng;
use rand::SeedableRng;
use vulnman::analysis::checkers::SemanticEngine;
use vulnman::analysis::finding::Finding;
use vulnman::lang::absint::SolverStats;
use vulnman::lang::hash::{fnv1a_seeded, FNV_OFFSET};
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;
use vulnman::synth::emit::EmitCtx;
use vulnman::synth::mutate::{alpha_rename, insert_comments, insert_dead_statements};
use vulnman::synth::templates::semantic::{semantic_gap_pair, GAP_CLASSES};

/// Digest of every unit's findings and solver statistics, generated from
/// the engine before the interval and width domains shared one set of
/// transfer functions (and, for the earlier units, before the
/// shared-framing and `Symbol`-keyed environment kernel changes).
const GOLDEN_DIGEST: u64 = 0xa500_63c1_72dd_74a2;

/// Checker paths no synthetic template reaches: a product proven to
/// overflow 64 bits, a pointer that is the literal null on every path, and
/// width-domain transfer paths — a `!=` guard trimming a loop counter's
/// range endpoint, an array declaration with a scalar initializer, logical
/// not, negation, remainder and the `if (x)` fallthrough — each feeding a
/// narrowing store whose width verdict depends on that path.
const HAND_WRITTEN: [&str; 5] = [
    "int square_max() { int x = 9223372036854775807; int y = x * x; return y; }",
    "void poke() { char* p = 0; *p = 'a'; }",
    concat!(
        "void ne_guard(int n) { char c = 0; int i = 127; ",
        "while (i < n) { i = i + 1; } if (i != 127) { c = i; } }"
    ),
    "void array_init() { int buf[4] = 1000; char c = buf; }",
    concat!(
        "void width_ops(int x) { char a = !x + 200; int k = 300; char b = -k; ",
        "char d = x % 4 + 300; if (x) { return; } char c = x + 200; }"
    ),
];

/// The `hotpath_equivalence` corpus (every CWE family, both labels, mixed
/// tiers) plus five semantic-gap template pairs per gap class and
/// [`HAND_WRITTEN`], so every checker reports; each source is followed by
/// its alpha-renamed, commented and dead-statement mutants.
fn corpus_with_mutants() -> Vec<String> {
    let ds =
        DatasetBuilder::new(0x5EED_CAFE).vulnerable_count(70).vulnerable_fraction(0.35).build();
    let mut sources: Vec<String> = ds.iter().map(|s| s.source.clone()).collect();
    sources.extend(HAND_WRITTEN.map(String::from));
    let style = StyleProfile::mainstream();
    for cwe in GAP_CLASSES {
        for seed in 0..5u64 {
            let tier = Tier::ALL[seed as usize % Tier::ALL.len()];
            let mut rng = StdRng::seed_from_u64(seed * 1009 + u64::from(cwe.id()));
            let pair = semantic_gap_pair(cwe, &mut EmitCtx::new(&style, tier, &mut rng));
            sources.push(pair.vulnerable);
            sources.push(pair.fixed);
        }
    }
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

/// Folds one unit's serialized findings (span, CWE, function, detector,
/// message, confidence, evidence) and solver statistics into the running
/// digest.
fn absorb(digest: u64, findings: &[Finding], stats: &SolverStats) -> u64 {
    let unit = serde_json::to_string(findings).expect("findings serialize");
    fnv1a_seeded(fnv1a_seeded(digest, unit.as_bytes()), format!("{stats:?}").as_bytes())
}

#[test]
fn semantic_findings_match_the_committed_digest() {
    let sources = corpus_with_mutants();
    assert!(sources.len() > 500, "corpus unexpectedly small: {}", sources.len());
    let engine = SemanticEngine::new();
    let mut batch = FNV_OFFSET;
    let mut incremental = FNV_OFFSET;
    let mut findings = 0usize;
    for src in &sources {
        let program = parse(src).expect("corpus sample must parse");
        let scan = engine.analyze(&program);
        findings += scan.findings.len();
        batch = absorb(batch, &scan.findings, &scan.stats);
        let inc = engine
            .scan_source_incremental(src, &AnalysisCache::disabled())
            .expect("corpus sample must parse");
        incremental = absorb(incremental, &inc.findings, &inc.stats);
    }
    println!(
        "semantic findings digest: {batch:#018x} over {} units, {findings} findings",
        sources.len()
    );
    assert!(findings > 0, "the corpus must exercise the checkers");
    assert_eq!(incremental, batch, "cold incremental scan diverges from the batch engine");
    assert_eq!(batch, GOLDEN_DIGEST, "semantic findings drifted from the committed digest");
}
