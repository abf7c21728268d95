//! Per-function incremental recompute for the abstract-interpretation
//! pipeline.
//!
//! The batch driver in [`crate::absint::callgraph`] re-solves every function
//! of a program on every call. A long-running service sees the *same*
//! program resubmitted with one function edited, over and over — re-running
//! the whole fixpoint is almost entirely wasted work. This module keys each
//! pipeline stage by a hash of exactly the inputs that determine its output,
//! so a resubmission re-runs only the stages whose input hashes changed:
//!
//! * **CFG** ([`Stage::Cfg`]) — keyed per function by the function's
//!   [fingerprint](fingerprint_function_source): a hash of its source slice
//!   and absolute position. Two functions share a CFG entry only when their
//!   ASTs — locations included — are identical, which is what makes reusing
//!   span-bearing results sound.
//! * **Summary** ([`Stage::Summary`]) and **findings**
//!   ([`Stage::Findings`]) — keyed per call-graph strongly connected
//!   component by the pass tag, the fingerprints of every member, and the
//!   *summary values* of every defined external callee. Keying by callee
//!   summary values (not callee fingerprints) is the dependency tracker: if
//!   an edited callee happens to produce the same summary, its callers'
//!   keys are unchanged and their fixpoints are skipped — early cutoff,
//!   exactly like a build system keyed on content rather than timestamps.
//!
//! Lex and parse stage accounting for whole units lives on
//! [`AnalysisCache::parse_stage`] and [`Stage::Lex`]; this module handles
//! everything from the CFG down.
//!
//! ## Equivalence argument
//!
//! The driver walks the call graph's strongly connected components in
//! bottom-up topological order, solving the members of each in
//! [`analyze_program`]'s relative order and inserting every solved summary
//! straight into the one shared table, so each member sees exactly the
//! callee summaries the batch walk gives it. Payloads are delivered in the
//! batch driver's exact post-order. A function's solved
//! fixpoint depends only on its own AST and the summaries of its defined
//! callees (every domain in the workspace consults summaries only at call
//! sites), which is precisely what the stage keys hash — so a stage hit
//! returns byte-identical values to the recompute it skipped, and
//! [`SolverStats`] fold commutatively, so the aggregate statistics match
//! the batch driver too.
//!
//! [`analyze_program`]: crate::absint::analyze_program

use crate::absint::callgraph::{return_summary, CallGraph, ProgramAnalysis};
use crate::absint::domain::{Domain, Summaries};
use crate::absint::solver::{DomainAnalysis, Solver, SolverConfig, SolverStats};
use crate::ast::{Function, Program};
use crate::cache::{AnalysisCache, Stage};
use crate::cfg::Cfg;
use crate::hash::{fnv1a, fnv1a_seeded, mix64, Fnv1a, FNV_OFFSET};
use crate::intern::Symbol;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Content fingerprint of one function: FNV-1a over the AST's `Debug`
/// rendering, which includes every identifier, literal, type, doc comment,
/// and source span. Two functions with equal fingerprints have structurally
/// identical ASTs at identical source locations, so every per-function
/// analysis result — spans and line numbers included — is interchangeable
/// between them.
pub fn fingerprint_function(func: &Function) -> u64 {
    let mut w = Fnv1a::default();
    let _ = write!(w, "{func:?}");
    w.0
}

/// Pass-independent per-program context for
/// [`analyze_program_incremental_in`]: the call graph, its bottom-up
/// order, and every function's fingerprint. All three are pure functions
/// of the program, so a caller running several domain passes over the same
/// AST (the semantic engine runs six) builds this once per request
/// instead of once per pass — on the serving hot path that framing cost,
/// not the fixpoint, dominates an incremental hit. The order is built
/// exactly like the batch driver's ([`CallGraph::bottom_up_order`]); CFGs
/// come from the [`Stage::Cfg`] table instead of being built up front, so
/// a fully cached resubmission builds none.
pub struct IncrementalContext {
    graph: CallGraph,
    /// Function indices in bottom-up solve order.
    order: Vec<usize>,
    /// `pos[i]`: where function `i` sits in `order`.
    pos: Vec<usize>,
    /// `fps[i]`: the source fingerprint of function `i`.
    fps: Vec<u64>,
}

impl IncrementalContext {
    /// Builds the context for `program`, fingerprinting functions by their
    /// *source slice* ([`fingerprint_function_source`]) rather than their
    /// AST `Debug` rendering: the caller (the serving loop) has the source
    /// in hand, and hashing each function's raw bytes skips re-rendering
    /// the whole AST per request — the single largest fixed cost of an
    /// incremental resubmission. `program` must be the parse of exactly
    /// this `source`, and the context must only be used with it.
    pub fn with_source(program: &Program, source: &str) -> IncrementalContext {
        let graph = CallGraph::build(program);
        let order = graph.bottom_up_order();
        let mut pos = vec![0; order.len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i] = k;
        }
        let fps =
            program.functions.iter().map(|f| fingerprint_function_source(source, f)).collect();
        IncrementalContext { graph, order, pos, fps }
    }
}

/// Content fingerprint of one function computed from its raw source slice
/// plus its absolute position (`start`, `line`, `col`). The parser is
/// deterministic, so two functions with equal slices at equal positions
/// have identical ASTs — every inner span is derived from the function's
/// start position plus offsets within the slice. The one exception is the
/// attached doc comment, which lives *above* the span; doc text flows into
/// no CFG, summary, or finding, so artifacts keyed by this fingerprint are
/// still interchangeable. Equivalent to [`fingerprint_function`] as a
/// validity criterion, at a fraction of the cost (no `Debug` rendering).
pub fn fingerprint_function_source(source: &str, func: &Function) -> u64 {
    let span = func.span;
    let Some(slice) = source.as_bytes().get(span.start..span.end) else {
        // The span does not address `source`; the caller paired a program
        // with the wrong text. Fall back to the AST fingerprint, which is
        // always sound.
        return fingerprint_function(func);
    };
    [
        &(span.start as u64).to_le_bytes()[..],
        &(span.line as u64).to_le_bytes()[..],
        &(span.col as u64).to_le_bytes()[..],
        slice,
    ]
    .into_iter()
    .fold(FNV_OFFSET, fnv1a_seeded)
}

/// Which functions an incremental pass actually re-solved, and which it
/// served from the stage cache. This is the evidence the equivalence suite
/// uses to prove untouched functions were not re-analyzed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalTrace {
    /// Functions whose fixpoint ran during this call, in delivery order.
    pub solved: Vec<String>,
    /// Functions served entirely from cached summaries + findings.
    pub reused: Vec<String>,
}

impl IncrementalTrace {
    /// Folds another pass's trace in: a function counts as solved if *any*
    /// pass solved it, and reused only if every pass reused it.
    pub fn merge(&mut self, other: &IncrementalTrace) {
        let mut solved: BTreeSet<String> = self.solved.iter().cloned().collect();
        for n in &other.solved {
            if solved.insert(n.clone()) {
                self.solved.push(n.clone());
            }
        }
        self.reused.retain(|n| !solved.contains(n));
        let mut reused: BTreeSet<String> = self.reused.iter().cloned().collect();
        for n in &other.reused {
            if !solved.contains(n) && reused.insert(n.clone()) {
                self.reused.push(n.clone());
            }
        }
    }
}

/// Result of one incremental pass: the interprocedural analysis (summaries
/// plus aggregated solver statistics, byte-identical to the batch driver),
/// the per-function checker payloads in exact sequential post-order, and
/// the recompute trace.
#[derive(Debug)]
pub struct IncrementalRun<V, T> {
    /// Summaries and solver statistics, as [`analyze_program`] would
    /// return them.
    ///
    /// [`analyze_program`]: crate::absint::analyze_program
    pub analysis: ProgramAnalysis<V>,
    /// One checker payload per function, in the sequential driver's
    /// delivery (post-) order.
    pub payloads: Vec<(String, T)>,
    /// Which functions were re-solved vs. served from cache.
    pub trace: IncrementalTrace,
}

/// Per-SCC cached summary artifact: member summaries in sequential member
/// order plus the component's folded solver statistics.
struct SummaryArtifact<V> {
    members: Vec<(Symbol, V)>,
    stats: SolverStats,
}

/// Per-SCC cached findings artifact: one checker payload per member, in
/// sequential member order.
struct FindingsArtifact<T>(Vec<T>);

/// Analyses `program` like [`analyze_program`], but through the per-stage
/// tables of `cache`: CFGs are reused per function fingerprint, and
/// summaries + checker payloads per call-graph component whose members and
/// callee summaries are unchanged. `pass_tag` must fingerprint everything
/// else the outputs depend on — the domain's identity, the solver
/// configuration, and the checker configuration — so distinct passes never
/// share entries.
///
/// `check` is the per-function checker: it sees exactly what a
/// [`analyze_program`] visit closure sees and returns the payload to cache
/// (for semantic checkers, the function's findings).
///
/// `ctx` carries the call graph and function fingerprints, which are the
/// same for every pass over a program, so several passes share one
/// call-graph construction and one fingerprinting sweep. It must have been
/// built from this exact `program`.
///
/// [`analyze_program`]: crate::absint::analyze_program
pub fn analyze_program_incremental_in<D, M, C, T>(
    ctx: &IncrementalContext,
    program: &Program,
    cache: &AnalysisCache,
    config: SolverConfig,
    pass_tag: u64,
    make_domain: M,
    check: C,
) -> IncrementalRun<D::Value, T>
where
    D: Domain,
    D::Value: Clone + std::fmt::Debug + Send + Sync + 'static,
    M: Fn(&Summaries<D::Value>) -> D,
    C: Fn(&Function, &Cfg, &D, &DomainAnalysis<D::Value>) -> T,
    T: Clone + Send + Sync + 'static,
{
    let cg = &ctx.graph;
    let order = &ctx.order;
    let pos = &ctx.pos;
    let fps = &ctx.fps;

    let solver = Solver::new(config);
    let mut completed: Summaries<D::Value> = Summaries::default();
    let mut payload_slots: Vec<Option<T>> = vec![None; program.functions.len()];
    let mut stats = SolverStats { converged: true, ..SolverStats::default() };
    let mut trace = IncrementalTrace::default();

    for comp in cg.sccs() {
        // Members in the sequential driver's relative order, so cycle
        // members accumulate summaries exactly like the batch walk.
        let mut members = comp;
        members.sort_by_key(|&i| pos[i]);

        // The component key: pass tag, member fingerprints (order matters —
        // it is the solve order), then each defined external callee's name
        // and *summary value*. Hashing the summary's Debug rendering gives
        // early cutoff: an edited callee whose summary lands on the same
        // value leaves every caller key unchanged.
        let mut h = mix64(pass_tag);
        for &i in &members {
            h = mix64(h ^ fps[i]);
        }
        let mut externals: BTreeSet<&str> = BTreeSet::new();
        for &i in &members {
            for &j in cg.callees(i) {
                if !members.contains(&j) {
                    externals.insert(program.functions[j].name.as_str());
                }
            }
        }
        for callee in externals {
            let summary = &completed[callee];
            let mut w = Fnv1a::default();
            let _ = write!(w, "{summary:?}");
            h = mix64(h ^ fnv1a(callee.as_bytes()));
            h = mix64(h ^ w.0);
        }
        let summary_key = mix64(h ^ 0x5e55);
        let findings_key = mix64(h ^ 0xf1fd);

        let cached_summary =
            cache.stage_get::<SummaryArtifact<D::Value>>(Stage::Summary, summary_key);
        let cached_findings = cache.stage_get::<FindingsArtifact<T>>(Stage::Findings, findings_key);
        if let (Some(s), Some(f)) = (&cached_summary, &cached_findings) {
            for (name, v) in &s.members {
                Arc::make_mut(&mut completed).insert(name.clone(), v.clone());
                trace.reused.push(name.to_string());
            }
            stats.absorb(&s.stats);
            for (&i, t) in members.iter().zip(&f.0) {
                payload_slots[i] = Some(t.clone());
            }
            continue;
        }

        // Miss on either table: solve the component. Each member's summary
        // goes straight into the shared table, so later members of a cycle
        // see the partial table `analyze_program` gives them.
        let mut art_members: Vec<(Symbol, D::Value)> = Vec::with_capacity(members.len());
        let mut art_payloads: Vec<T> = Vec::with_capacity(members.len());
        let mut comp_stats = SolverStats { converged: true, ..SolverStats::default() };
        for &i in &members {
            let func = &program.functions[i];
            let cfg = cache.stage(Stage::Cfg, fps[i], || Cfg::build(func));
            let domain = make_domain(&completed);
            let analysis = solver.run(&domain, &cfg, func);
            let ret = return_summary(&domain, &cfg, &analysis);
            comp_stats.absorb(&analysis.stats);
            let payload = check(func, &cfg, &domain, &analysis);
            // With the domain's handle gone the insert does not copy.
            drop(domain);
            Arc::make_mut(&mut completed).insert(func.name.clone(), ret.clone());
            art_members.push((func.name.clone(), ret));
            art_payloads.push(payload);
            trace.solved.push(func.name.to_string());
        }
        for (&i, t) in members.iter().zip(&art_payloads) {
            payload_slots[i] = Some(t.clone());
        }
        stats.absorb(&comp_stats);
        if cached_summary.is_none() {
            cache.stage_put(
                Stage::Summary,
                summary_key,
                Arc::new(SummaryArtifact { members: art_members, stats: comp_stats }),
            );
        }
        if cached_findings.is_none() {
            cache.stage_put(
                Stage::Findings,
                findings_key,
                Arc::new(FindingsArtifact(art_payloads)),
            );
        }
    }

    // Deliver payloads in the exact sequential post-order, which is what
    // keeps downstream concatenation (and the stable findings sort on top
    // of it) byte-identical to the batch driver.
    let payloads: Vec<(String, T)> = order
        .iter()
        .map(|&i| {
            let payload = payload_slots[i].take().expect("every component delivers its members");
            (program.functions[i].name.to_string(), payload)
        })
        .collect();
    let summaries = Arc::unwrap_or_clone(completed);
    IncrementalRun { analysis: ProgramAnalysis { summaries, stats }, payloads, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::IntervalDomain;
    use crate::absint::{analyze_program, Interval};
    use crate::parse;

    const PROG: &str = "int leaf() { return 2; }\n\
                        int even(int n) { if (n) { return odd(n - 1); } return 1; }\n\
                        int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
                        int mid(int x) { return leaf() + even(x); }\n\
                        int top_fn(int x) { int d = mid(x); return d / leaf(); }";

    fn run_incremental(source: &str, cache: &AnalysisCache) -> IncrementalRun<Interval, String> {
        let program = parse(source).unwrap();
        analyze_program_incremental_in::<IntervalDomain, _, _, String>(
            &IncrementalContext::with_source(&program, source),
            &program,
            cache,
            SolverConfig::default(),
            7,
            |s| IntervalDomain::with_summaries(s.clone()),
            |f, _, _, a| format!("{} {:?}", f.name, a.block_entry),
        )
    }

    #[test]
    fn incremental_matches_sequential_driver() {
        let p = parse(PROG).unwrap();
        let mut seq_payloads: Vec<String> = Vec::new();
        let seq = analyze_program(
            &p,
            SolverConfig::default(),
            |s| IntervalDomain::with_summaries(s.clone()),
            |f, _, _, a| seq_payloads.push(format!("{} {:?}", f.name, a.block_entry)),
        );
        let cache = AnalysisCache::new();
        for round in 0..3 {
            let inc = run_incremental(PROG, &cache);
            let inc_payloads: Vec<String> = inc.payloads.iter().map(|(_, t)| t.clone()).collect();
            assert_eq!(inc_payloads, seq_payloads, "round {round}");
            assert_eq!(format!("{:?}", inc.analysis.summaries), format!("{:?}", seq.summaries));
            assert_eq!(inc.analysis.stats, seq.stats, "round {round}");
            if round == 0 {
                assert_eq!(inc.trace.solved.len(), 5, "cold run solves everything");
            } else {
                assert!(inc.trace.solved.is_empty(), "warm run solves nothing");
                assert_eq!(inc.trace.reused.len(), 5);
            }
        }
    }

    #[test]
    fn editing_one_leaf_function_reanalyzes_only_the_affected_cone() {
        let cache = AnalysisCache::new();
        run_incremental(PROG, &cache);
        // Change `top_fn` (a root: nothing calls it) — only it re-solves.
        let edited = PROG.replace("return d / leaf();", "return d + leaf();");
        let inc = run_incremental(&edited, &cache);
        assert_eq!(inc.trace.solved, vec!["top_fn".to_string()]);
        assert_eq!(inc.trace.reused.len(), 4);
        // And the result still matches a cold full analysis.
        let cold = run_incremental(&edited, &AnalysisCache::disabled());
        assert_eq!(
            format!("{:?}", inc.analysis.summaries),
            format!("{:?}", cold.analysis.summaries)
        );
        assert_eq!(inc.payloads, cold.payloads);
    }

    // The edited function is *last*, so an edit of any length shifts no
    // other function's spans — untouched callers keep their fingerprints.
    const CUT: &str = "int mid() { return leaf() + 1; }\n\
                       int top_fn() { return mid() * 2; }\n\
                       int side(int x) { return x * 2; }\n\
                       int leaf() { return 2; }";

    #[test]
    fn early_cutoff_spares_callers_when_a_summary_is_unchanged() {
        // `leaf` changes body but keeps the same summary value [2, 2]; its
        // callers' component keys hash the summary, not the text, so only
        // `leaf` itself re-solves.
        let cache = AnalysisCache::new();
        run_incremental(CUT, &cache);
        let edited = CUT.replace("int leaf() { return 2; }", "int leaf() { int a = 2; return a; }");
        let inc = run_incremental(&edited, &cache);
        assert_eq!(inc.trace.solved, vec!["leaf".to_string()], "early cutoff failed");
        assert_eq!(inc.trace.reused.len(), 3);
    }

    #[test]
    fn changed_summary_invalidates_transitive_callers() {
        let cache = AnalysisCache::new();
        run_incremental(CUT, &cache);
        // `leaf` now summarises to [3, 3]: `mid`'s summary becomes [4, 4],
        // so `top_fn` re-solves too; `side` has no path to `leaf` and is
        // reused.
        let edited = CUT.replace("int leaf() { return 2; }", "int leaf() { return 3; }");
        let inc = run_incremental(&edited, &cache);
        let solved: BTreeSet<&str> = inc.trace.solved.iter().map(String::as_str).collect();
        assert_eq!(solved, BTreeSet::from(["leaf", "mid", "top_fn"]));
        assert_eq!(inc.trace.reused, vec!["side".to_string()]);
        let cold = run_incremental(&edited, &AnalysisCache::disabled());
        assert_eq!(inc.payloads, cold.payloads);
    }

    #[test]
    fn fingerprints_cover_spans() {
        // Same text at a different location must not share a fingerprint:
        // findings carry absolute spans.
        let a = parse("int f() { return 1; }").unwrap();
        let b = parse("\n\nint f() { return 1; }").unwrap();
        assert_ne!(fingerprint_function(&a.functions[0]), fingerprint_function(&b.functions[0]));
    }

    #[test]
    fn trace_merge_prefers_solved() {
        let mut a =
            IncrementalTrace { solved: vec!["f".into()], reused: vec!["g".into(), "h".into()] };
        let b = IncrementalTrace { solved: vec!["g".into()], reused: vec!["f".into(), "h".into()] };
        a.merge(&b);
        assert_eq!(a.solved, vec!["f".to_string(), "g".to_string()]);
        assert_eq!(a.reused, vec!["h".to_string()]);
    }
}
