//! Semantic checkers: detectors backed by the abstract-interpretation
//! framework in [`vulnman_lang::absint`].
//!
//! Where the rule-based suite in [`crate::detectors`] pattern-matches on
//! syntax (known source functions, known loop shapes), these checkers prove
//! facts about program *values* — an index interval entirely outside the
//! array, a pointer that is the literal null on some path, a variable read
//! before any initialization — and only report when the abstract state
//! constitutes a proof. Every finding therefore carries
//! [`Evidence`](crate::finding::Evidence): the abstract facts at the report
//! point plus the claim derived from them, reproducible by re-running the
//! named domain to the same point.
//!
//! The domains are tuned so "maybe" verdicts only arise from *tracked*
//! merges (a literal null joined with a non-null path; an initialized path
//! joined with an uninitialized one) — the lattice top is never
//! report-worthy. That keeps the suite false-positive-free on the synthetic
//! corpus while catching the semantic template classes the rule suite is
//! blind to by construction.

use crate::detectors::StaticDetector;
use crate::finding::{Confidence, Evidence, EvidenceFact, Finding};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use vulnman_lang::absint::domain::inst_reads;
use vulnman_lang::absint::ownership::FREE_FNS;
use vulnman_lang::absint::provenance::{KIND_COMMAND, KIND_FORMAT};
use vulnman_lang::absint::{
    analyze_framed, CallGraph, Domain, DomainAnalysis, Env, Init, InitDomain, Interval,
    IntervalDomain, Nullness, NullnessDomain, Ownership, OwnershipDomain, Provenance,
    ProvenanceDomain, SolverConfig, SolverStats, Summaries, Width, WidthDomain,
};
use vulnman_lang::ast::{BinOp, Expr, ExprKind, Function, LValue, Program, Type, UnOp};
use vulnman_lang::cfg::{Cfg, CfgInst};
use vulnman_lang::hash::{fnv1a, fnv1a_seeded};
use vulnman_lang::incremental::{
    analyze_program_incremental_in, IncrementalContext, IncrementalTrace,
};
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::cwe::Cwe;

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The full result of a semantic scan: findings plus solver telemetry.
#[derive(Debug, Clone)]
pub struct SemanticScan {
    /// Findings, sorted by `(span.start, cwe)`; each carries evidence.
    pub findings: Vec<Finding>,
    /// Accumulated fixpoint statistics across all domain passes.
    pub stats: SolverStats,
    /// Wall time of framing the program — call graph, bottom-up order and
    /// one CFG per function, shared by every pass — in microseconds.
    pub framing_micros: u64,
    /// Wall time of each domain pass (solver + checkers), in microseconds,
    /// keyed by domain name in pass order. The ownership pass includes the
    /// trace-interleaving TOCTOU checker it hosts. Together with
    /// `framing_micros` this covers the whole scan.
    pub domain_micros: Vec<(&'static str, u64)>,
}

/// The result of an incremental semantic scan: findings and statistics
/// byte-identical to [`SemanticEngine::analyze`], plus the per-function
/// recompute trace (no wall-clock fields — incremental results must stay
/// comparable across runs and cache states).
#[derive(Debug, Clone)]
pub struct IncrementalSemanticScan {
    /// Findings, sorted by `(span.start, cwe)`; each carries evidence.
    pub findings: Vec<Finding>,
    /// Accumulated fixpoint statistics across all domain passes (cached
    /// components contribute their recorded statistics).
    pub stats: SolverStats,
    /// Which functions any domain pass re-solved vs. reused.
    pub trace: IncrementalTrace,
}

/// Builds a pass's domain from the callee summaries solved so far.
type MakeDomain<D> = fn(&Summaries<<D as Domain>::Value>) -> D;

/// A per-function checker: inspects one solved function and appends its
/// findings.
type Checker<D> = fn(&Function, &Cfg, &D, &DomainAnalysis<<D as Domain>::Value>, &mut Vec<Finding>);

/// Runs one domain pass over a whole program. The drivers share the pass
/// list in [`run_passes`]: [`BatchDriver`] solves every function with
/// [`analyze_framed`], [`IncrementalDriver`] goes through the per-stage
/// tables of an [`AnalysisCache`]. Each driver frames its program once
/// (call graph and bottom-up order, the same way for both) and every pass
/// shares that framing.
trait PassDriver {
    /// Runs the pass called `name` (the `absint.domain.<name>_micros`
    /// histogram) under stage-key tag `tag`.
    fn pass<D>(&mut self, name: &'static str, tag: u64, make: MakeDomain<D>, check: Checker<D>)
    where
        D: Domain<Value: Send + Sync + 'static>;
}

/// The six domain passes, in report order: domain name, stage-key tag,
/// domain, checker. Every driver runs exactly this list, so a new domain is
/// one line here.
fn run_passes(d: &mut impl PassDriver) {
    d.pass("interval", 0x01, |s| IntervalDomain::with_summaries(s.clone()), check_intervals);
    d.pass("nullness", 0x02, |s| NullnessDomain::with_summaries(s.clone()), check_nullness);
    d.pass("init", 0x03, |_| InitDomain, check_init);
    d.pass("ownership", 0x04, |s| OwnershipDomain::with_summaries(s.clone()), check_ownership);
    d.pass("width", 0x05, |s| WidthDomain::with_summaries(s.clone()), check_width);
    d.pass("provenance", 0x06, |s| ProvenanceDomain::with_summaries(s.clone()), check_sinks);
}

/// Solves every function of one program per pass, timing each pass. The
/// framing — bottom-up order and one CFG per function — is built once and
/// shared by all passes.
struct BatchDriver<'p> {
    program: &'p Program,
    order: Vec<usize>,
    cfgs: Vec<Cfg>,
    config: SolverConfig,
    scan: SemanticScan,
}

impl PassDriver for BatchDriver<'_> {
    fn pass<D>(&mut self, name: &'static str, _tag: u64, make: MakeDomain<D>, check: Checker<D>)
    where
        D: Domain<Value: Send + Sync + 'static>,
    {
        let t = Instant::now();
        let findings = &mut self.scan.findings;
        let pa = analyze_framed(
            self.program,
            &self.order,
            &self.cfgs,
            self.config,
            make,
            |f, cfg, d, a| check(f, cfg, d, a, findings),
        );
        self.scan.stats.absorb(&pa.stats);
        self.scan.domain_micros.push((name, t.elapsed().as_micros() as u64));
    }
}

/// Runs each pass through the per-stage incremental tables of a cache,
/// re-solving only the call-graph components whose inputs changed.
struct IncrementalDriver<'a> {
    ctx: &'a IncrementalContext,
    program: &'a Program,
    cache: &'a AnalysisCache,
    config: SolverConfig,
    base: u64,
    scan: IncrementalSemanticScan,
}

impl PassDriver for IncrementalDriver<'_> {
    fn pass<D>(&mut self, _name: &'static str, tag: u64, make: MakeDomain<D>, check: Checker<D>)
    where
        D: Domain<Value: Send + Sync + 'static>,
    {
        let run = analyze_program_incremental_in(
            self.ctx,
            self.program,
            self.cache,
            self.config,
            self.base ^ tag,
            make,
            |f, cfg, d, a| {
                let mut out = Vec::new();
                check(f, cfg, d, a, &mut out);
                out
            },
        );
        self.scan.stats.absorb(&run.analysis.stats);
        self.scan.trace.merge(&run.trace);
        self.scan.findings.extend(run.payloads.into_iter().flat_map(|(_, f)| f));
    }
}

/// Collects the pass names without running anything.
struct PassNames(Vec<&'static str>);

impl PassDriver for PassNames {
    fn pass<D>(&mut self, name: &'static str, _tag: u64, _: MakeDomain<D>, _: Checker<D>)
    where
        D: Domain<Value: Send + Sync + 'static>,
    {
        self.0.push(name);
    }
}

/// Wall time of framing a program for the batch passes (call graph, order
/// and CFGs); the six domain histograms plus this one cover a whole scan.
const FRAMING_HISTOGRAM: &str = "absint.framing_micros";

/// The `absint.domain.<name>_micros` histogram of one pass.
fn domain_histogram(name: &str) -> String {
    format!("absint.domain.{name}_micros")
}

/// Runs the abstract domains over a program and reports semantic findings
/// with machine-checkable evidence.
///
/// Implements [`StaticDetector`] so it plugs into the same registries as the
/// rule suite, but it is deliberately *not* part of
/// [`RuleEngine::default_suite`](crate::detectors::RuleEngine::default_suite):
/// the differential oracle treats rules and semantics as independent views.
#[derive(Debug, Clone, Copy)]
pub struct SemanticEngine {
    config: SolverConfig,
}

impl SemanticEngine {
    /// An engine with the default solver configuration.
    pub fn new() -> Self {
        SemanticEngine { config: SolverConfig::default() }
    }

    /// An engine with custom widening/iteration knobs.
    pub fn with_config(config: SolverConfig) -> Self {
        SemanticEngine { config }
    }

    /// A 64-bit fingerprint of the engine configuration, used as the
    /// analysis-cache config key.
    pub fn fingerprint(&self) -> u64 {
        [self.config.widening_threshold as u64, self.config.max_iterations]
            .iter()
            .fold(fnv1a(b"semantic-suite"), |h, v| fnv1a_seeded(h, &v.to_le_bytes()))
    }

    /// Runs every domain pass and returns findings plus telemetry.
    pub fn analyze(&self, program: &Program) -> SemanticScan {
        let t = Instant::now();
        let order = CallGraph::build(program).bottom_up_order();
        let cfgs = program.functions.iter().map(Cfg::build).collect();
        let framing_micros = t.elapsed().as_micros() as u64;
        let mut driver = BatchDriver {
            program,
            order,
            cfgs,
            config: self.config,
            scan: SemanticScan {
                findings: Vec::new(),
                stats: SolverStats { converged: true, ..SolverStats::default() },
                framing_micros,
                domain_micros: Vec::new(),
            },
        };
        run_passes(&mut driver);
        let mut scan = driver.scan;
        scan.findings.sort_by_key(|f| (f.span.start, f.cwe.id()));
        scan
    }

    /// Parses and scans source text.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn scan_source(&self, source: &str) -> Result<Vec<Finding>, vulnman_lang::ParseError> {
        Ok(self.scan(&vulnman_lang::parse(source)?))
    }

    /// The findings of `program` (the parse of the source with
    /// [`content_key`](AnalysisCache::content_key) `content_key`), memoized
    /// in `cache` under the `"absint-findings"` kind: warm calls skip the
    /// fixpoint entirely. Cold calls run [`SemanticEngine::scan_with_metrics`]
    /// against `metrics`, so the `absint.*` instruments count only real
    /// solver work. Every cached semantic scan goes through here, so the
    /// workflow detector, the differential oracle and `vulnman lint` share
    /// entries.
    pub fn scan_program_cached(
        &self,
        content_key: u64,
        program: &Program,
        cache: &AnalysisCache,
        metrics: &Registry,
    ) -> Arc<Vec<Finding>> {
        cache.analysis_keyed(content_key, "absint-findings", self.fingerprint(), || {
            self.scan_with_metrics(program, metrics)
        })
    }

    /// Parses and scans `source`, whose
    /// [`content_key`](AnalysisCache::content_key) the caller has already
    /// computed, through `cache` (see [`SemanticEngine::scan_program_cached`]).
    /// Results are identical to [`SemanticEngine::scan_source`].
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn scan_source_cached_keyed(
        &self,
        content_key: u64,
        source: &str,
        cache: &AnalysisCache,
    ) -> Result<Vec<Finding>, vulnman_lang::ParseError> {
        let program = cache.parse_keyed(content_key, source)?;
        Ok((*self.scan_program_cached(content_key, &program, cache, &Registry::noop())).clone())
    }

    /// Parses (through the [`Stage::Lex`](vulnman_lang::Stage) and
    /// [`Stage::Parse`](vulnman_lang::Stage) tables) and scans `source`
    /// through the per-stage incremental tables of `cache`: CFGs,
    /// summaries, and findings of functions whose inputs are unchanged
    /// since a previous call are reused instead of re-solved (see
    /// [`vulnman_lang::incremental`]). Findings and solver statistics are
    /// identical to [`SemanticEngine::analyze`]; the returned trace says
    /// which functions were actually re-analyzed.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C (cached, so
    /// malformed resubmissions fail at the lex/parse stage without
    /// re-running anything downstream).
    pub fn scan_source_incremental(
        &self,
        source: &str,
        cache: &AnalysisCache,
    ) -> Result<IncrementalSemanticScan, vulnman_lang::ParseError> {
        let key = AnalysisCache::content_key(source);
        let lexed = cache.stage(vulnman_lang::Stage::Lex, key, || {
            vulnman_lang::lexer::lex(source).map(|out| out.tokens.len())
        });
        if let Err(e) = &*lexed {
            return Err(e.clone());
        }
        let program = cache.parse_stage(key, source)?;
        // The source is in hand, so fingerprint functions from their raw
        // source slices — far cheaper than rendering each AST. The call
        // graph and fingerprints are pass-independent, so every pass
        // shares this one context.
        let ctx = IncrementalContext::with_source(&program, source);
        let mut driver = IncrementalDriver {
            ctx: &ctx,
            program: &program,
            cache,
            config: self.config,
            base: self.fingerprint(),
            scan: IncrementalSemanticScan {
                findings: Vec::new(),
                stats: SolverStats { converged: true, ..SolverStats::default() },
                trace: IncrementalTrace::default(),
            },
        };
        run_passes(&mut driver);
        let mut scan = driver.scan;
        scan.findings.sort_by_key(|f| (f.span.start, f.cwe.id()));
        Ok(scan)
    }

    /// Scans and reports solver telemetry through the pre-registered
    /// `absint.*` instruments (see [`register_absint_instruments`]).
    pub fn scan_with_metrics(&self, program: &Program, metrics: &Registry) -> Vec<Finding> {
        let scan = self.analyze(program);
        metrics.counter("absint.solver.iterations").add(scan.stats.iterations);
        metrics.counter("absint.solver.widenings").add(scan.stats.widenings);
        if !scan.stats.converged {
            metrics.counter("absint.solver.nonconverged").add(1);
        }
        metrics.counter("absint.findings").add(scan.findings.len() as u64);
        if metrics.is_enabled() {
            metrics.histogram(FRAMING_HISTOGRAM).observe(scan.framing_micros);
            for (name, micros) in &scan.domain_micros {
                metrics.histogram(&domain_histogram(name)).observe(*micros);
            }
        }
        scan.findings
    }
}

/// Detection counts for one CWE class on the fixed semantic-gap corpus —
/// one row of [`AbsintBaseline`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// CWE id (e.g. 125).
    pub cwe: u32,
    /// Vulnerable samples where the semantic suite reported this class.
    pub true_positives: usize,
    /// Fixed twins where the suite still reported this class.
    pub false_positives: usize,
}

/// Committed per-CWE detection baseline for the semantic checker suite
/// (`tests/absint_baseline.json`). The regression gate fails when any
/// class's true positives drop below — or false positives rise above — the
/// committed numbers; conscious improvements regenerate the file instead.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbsintBaseline {
    /// One entry per semantic-gap CWE class, sorted by id.
    pub entries: Vec<BaselineEntry>,
}

impl Default for SemanticEngine {
    fn default() -> Self {
        SemanticEngine::new()
    }
}

impl StaticDetector for SemanticEngine {
    fn name(&self) -> &'static str {
        "semantic-suite"
    }

    fn fingerprint(&self) -> u64 {
        SemanticEngine::fingerprint(self)
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![
            Cwe::OutOfBoundsWrite,
            Cwe::OutOfBoundsRead,
            Cwe::IntegerOverflow,
            Cwe::DivideByZero,
            Cwe::NullDereference,
            Cwe::UninitializedUse,
            Cwe::UseAfterFree,
            Cwe::DoubleFree,
            Cwe::IntegerTruncation,
            Cwe::Toctou,
            Cwe::CommandInjection,
            Cwe::FormatString,
        ]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        self.analyze(program).findings
    }
}

/// Pre-registers every `absint.*` instrument the semantic engine can
/// produce, so exported snapshots have a stable schema even when a counter
/// never fires (the same pattern as the `oracle.*` and `fault.*` families).
pub fn register_absint_instruments(metrics: &Registry) {
    metrics.counter("absint.solver.iterations");
    metrics.counter("absint.solver.widenings");
    metrics.counter("absint.solver.nonconverged");
    metrics.counter("absint.findings");
    metrics.histogram(FRAMING_HISTOGRAM);
    let mut names = PassNames(Vec::new());
    run_passes(&mut names);
    for name in names.0 {
        metrics.histogram(&domain_histogram(name));
    }
}

// ---------------------------------------------------------------------------
// Instruction traversal helpers
// ---------------------------------------------------------------------------

/// One `base[index]` access with direction.
struct IndexAccess<'a> {
    base: &'a str,
    index: &'a Expr,
    is_write: bool,
}

/// All array/pointer index accesses in an instruction whose base is a plain
/// variable.
fn index_accesses(inst: &CfgInst) -> Vec<IndexAccess<'_>> {
    let mut out = Vec::new();
    if let CfgInst::Assign { target: LValue::Index(base, index), .. } = inst {
        if let ExprKind::Var(name) = &base.kind {
            out.push(IndexAccess { base: name, index, is_write: true });
        }
    }
    for e in inst.exprs() {
        e.walk(&mut |e| {
            if let ExprKind::Index(base, index) = &e.kind {
                if let ExprKind::Var(name) = &base.kind {
                    out.push(IndexAccess { base: name, index, is_write: false });
                }
            }
        });
    }
    out
}

/// All divisor sub-expressions (`/` and `%` right operands) in an
/// instruction.
fn divisors(inst: &CfgInst) -> Vec<&Expr> {
    let mut out = Vec::new();
    for e in inst.exprs() {
        e.walk(&mut |e| {
            if let ExprKind::Binary(BinOp::Div | BinOp::Rem, _, r) = &e.kind {
                out.push(&**r);
            }
        });
    }
    out
}

/// Variables dereferenced by an instruction (`*p`, `p[i]`, and stores
/// through either form).
fn deref_targets(inst: &CfgInst) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    if let CfgInst::Assign { target: LValue::Deref(e) | LValue::Index(e, _), .. } = inst {
        if let ExprKind::Var(name) = &e.kind {
            out.insert(name.as_str());
        }
    }
    for e in inst.exprs() {
        e.walk(&mut |e| match &e.kind {
            ExprKind::Unary(UnOp::Deref, inner) => {
                if let ExprKind::Var(name) = &inner.kind {
                    out.insert(name.as_str());
                }
            }
            ExprKind::Index(base, _) => {
                if let ExprKind::Var(name) = &base.kind {
                    out.insert(name.as_str());
                }
            }
            _ => {}
        });
    }
    out
}

/// Evidence facts for every variable read by `exprs`, rendered from the
/// pre-state of the report point.
fn facts_for<V: vulnman_lang::absint::AbstractValue + std::fmt::Display>(
    pre: &Env<V>,
    exprs: &[&Expr],
) -> Vec<EvidenceFact> {
    let mut vars: BTreeSet<&str> = BTreeSet::new();
    for e in exprs {
        vars.extend(e.read_vars());
    }
    vars.into_iter()
        .map(|v| EvidenceFact { var: v.to_string(), value: pre.get(v).to_string() })
        .collect()
}

// ---------------------------------------------------------------------------
// Interval checkers: OOB (CWE-787/125), div-by-zero (CWE-369), overflow (190)
// ---------------------------------------------------------------------------

fn check_intervals(
    func: &Function,
    cfg: &Cfg,
    domain: &IntervalDomain,
    analysis: &DomainAnalysis<Interval>,
    out: &mut Vec<Finding>,
) {
    // Declared array lengths in this function. The language has
    // function-level scope, so one map per function suffices.
    let mut arrays: BTreeMap<&str, i128> = BTreeMap::new();
    for block in &cfg.blocks {
        for inst in &block.insts {
            if let CfgInst::Decl { name, ty, .. } = &inst.inst {
                if let Some(n) = ty.array_len() {
                    arrays.insert(name, n as i128);
                }
            }
        }
    }

    for (pre, inst) in analysis.replay(domain, cfg) {
        for access in index_accesses(&inst.inst) {
            let Some(&len) = arrays.get(access.base) else { continue };
            let iv = domain.eval(&pre, access.index);
            // Must-style gate: report only when *every* possible index
            // is outside `[0, len)` — a proof, not a possibility.
            if iv.is_bottom() || (iv.lo() < len && iv.hi() >= 0) {
                continue;
            }
            let (cwe, verb) = if access.is_write {
                (Cwe::OutOfBoundsWrite, "write to")
            } else {
                (Cwe::OutOfBoundsRead, "read of")
            };
            let claim = format!(
                "index into `{}` is {iv}, entirely outside the valid range [0, {len})",
                access.base
            );
            out.push(Finding {
                cwe,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: format!(
                    "{verb} `{}[...]` with an index proven out of bounds ({iv} vs length \
                     {len})",
                    access.base
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(&pre, &[access.index]),
                    claim,
                }),
            });
        }
        for divisor in divisors(&inst.inst) {
            let dv = domain.eval(&pre, divisor);
            if !dv.is_point(0) {
                continue;
            }
            out.push(Finding {
                cwe: Cwe::DivideByZero,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: "division by a divisor proven to be exactly zero".into(),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(&pre, &[divisor]),
                    claim: "the divisor evaluates to [0, 0] on every path reaching this \
                            division"
                        .into(),
                }),
            });
        }
        if let CfgInst::Decl { init: Some(value), .. } | CfgInst::Assign { value, .. } = &inst.inst
        {
            let v = domain.eval(&pre, value);
            if v.fits_i64() {
                continue;
            }
            out.push(Finding {
                cwe: Cwe::IntegerOverflow,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: format!(
                    "assigned value {v} lies entirely outside the 64-bit integer range"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(&pre, &[value]),
                    claim: format!("the assigned expression evaluates to {v}"),
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Nullness checker: null dereference (CWE-476)
// ---------------------------------------------------------------------------

fn check_nullness(
    func: &Function,
    cfg: &Cfg,
    domain: &NullnessDomain,
    analysis: &DomainAnalysis<Nullness>,
    out: &mut Vec<Finding>,
) {
    // One finding per variable per function: later dereferences of the same
    // null pointer add no information.
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (pre, inst) in analysis.replay(domain, cfg) {
        for name in deref_targets(&inst.inst) {
            let v = pre.get(name);
            if !v.is_derefable_bug() || reported.contains(name) {
                continue;
            }
            reported.insert(name.to_string());
            let (confidence, how) = match v {
                Nullness::Null => (Confidence::High, "is the literal null on every path"),
                _ => (
                    Confidence::Medium,
                    "may be the literal null: a null-valued path \
                       merges in unguarded",
                ),
            };
            out.push(Finding {
                cwe: Cwe::NullDereference,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-nullness".into(),
                message: format!("dereference of `{name}`, which {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![EvidenceFact { var: name.to_string(), value: v.to_string() }],
                    claim: format!("`{name}` is {v} at the dereference"),
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Definite-initialization checker: use of uninitialized variable (CWE-457)
// ---------------------------------------------------------------------------

fn check_init(
    func: &Function,
    cfg: &Cfg,
    domain: &InitDomain,
    analysis: &DomainAnalysis<Init>,
    out: &mut Vec<Finding>,
) {
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (pre, inst) in analysis.replay(domain, cfg) {
        for name in inst_reads(&inst.inst) {
            let v = pre.get(name);
            if !v.is_read_bug() || reported.contains(name) {
                continue;
            }
            reported.insert(name.to_string());
            let (confidence, how) = match v {
                Init::No => (Confidence::High, "is never initialized before this read"),
                _ => (
                    Confidence::Medium,
                    "is uninitialized on at least one path to this \
                       read",
                ),
            };
            out.push(Finding {
                cwe: Cwe::UninitializedUse,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-init".into(),
                message: format!("read of `{name}`, which {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![EvidenceFact { var: name.to_string(), value: v.to_string() }],
                    claim: format!("`{name}` is {v} at the read"),
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Ownership checker: use-after-free (CWE-416), double-free (CWE-415)
// ---------------------------------------------------------------------------

/// Variables released by a [`FREE_FNS`] call inside this instruction (the
/// call's first argument, when it is a plain variable).
fn freed_vars(inst: &CfgInst) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for e in inst.exprs() {
        e.walk(&mut |e| {
            if let ExprKind::Call(name, args) = &e.kind {
                if FREE_FNS.contains(&name.as_str()) {
                    if let Some(Expr { kind: ExprKind::Var(v), .. }) = args.first() {
                        out.insert(v.as_str());
                    }
                }
            }
        });
    }
    out
}

/// Ownership checker: double free (CWE-415) and use after free (CWE-416),
/// then the TOCTOU checker (CWE-367) for the same function.
fn check_ownership(
    func: &Function,
    cfg: &Cfg,
    domain: &OwnershipDomain,
    analysis: &DomainAnalysis<Ownership>,
    out: &mut Vec<Finding>,
) {
    // One finding per (variable, class) per function.
    let mut reported: BTreeSet<(String, u32)> = BTreeSet::new();
    for (pre, inst) in analysis.replay(domain, cfg) {
        let freed_here = freed_vars(&inst.inst);
        // A release of a handle that is already dead is a double free.
        for name in &freed_here {
            let v = pre.get(name);
            let (confidence, how) = if v.free_is_proven_bug() {
                let how = match v {
                    Ownership::Moved => "whose ownership was already handed off",
                    _ => "already released on every path",
                };
                (Confidence::High, how)
            } else if v.free_is_possible_bug() {
                (Confidence::Medium, "already released on at least one path")
            } else {
                continue;
            };
            if !reported.insert((name.to_string(), Cwe::DoubleFree.id())) {
                continue;
            }
            out.push(Finding {
                cwe: Cwe::DoubleFree,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-ownership".into(),
                message: format!("release of `{name}`, {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![EvidenceFact { var: name.to_string(), value: v.to_string() }],
                    claim: format!("`{name}` is {v} when released again"),
                }),
            });
        }
        // Any other read of a dead handle is a use after free. The
        // release itself was reported above as the double free.
        for name in inst_reads(&inst.inst) {
            if freed_here.contains(name) {
                continue;
            }
            let v = pre.get(name);
            let (confidence, how) = if v.use_is_proven_bug() {
                (Confidence::High, "released on every path reaching this use")
            } else if v.use_is_possible_bug() {
                (Confidence::Medium, "released on at least one path reaching this use")
            } else {
                continue;
            };
            if !reported.insert((name.to_string(), Cwe::UseAfterFree.id())) {
                continue;
            }
            out.push(Finding {
                cwe: Cwe::UseAfterFree,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-ownership".into(),
                message: format!("use of `{name}`, {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![EvidenceFact { var: name.to_string(), value: v.to_string() }],
                    claim: format!("`{name}` is {v} at the use"),
                }),
            });
        }
    }
    // The ownership pass also hosts the path-sensitive TOCTOU checker,
    // which needs the CFG but no abstract state.
    check_toctou(func, cfg, out);
}

// ---------------------------------------------------------------------------
// Trace-interleaving TOCTOU checker (CWE-367)
// ---------------------------------------------------------------------------

/// Functions that *check* a path's state without opening it.
const TOCTOU_CHECK_FNS: [&str; 1] = ["file_exists"];
/// Functions that *use* a path, trusting an earlier check.
const TOCTOU_USE_FNS: [&str; 2] = ["open_file", "fopen_path"];
/// Cap on enumerated check→use interleavings per check site.
const TOCTOU_PATH_CAP: u32 = 64;

/// A per-block event relevant to the check/use window of one path variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ToctouEvent<'a> {
    /// `file_exists(v)` — opens a stale window.
    Check(&'a str),
    /// `open_file(v)`-style use, with the callee name and its span.
    Use(&'a str, &'a str, vulnman_lang::Span),
    /// `v` is re-assigned or re-declared — the window closes.
    Kill(&'a str),
}

/// Collects check/use/kill events per basic block, in instruction order.
fn toctou_events(cfg: &Cfg) -> Vec<Vec<ToctouEvent<'_>>> {
    cfg.blocks
        .iter()
        .map(|block| {
            let mut events = Vec::new();
            for inst in &block.insts {
                for e in inst.inst.exprs() {
                    e.walk(&mut |e| {
                        if let ExprKind::Call(name, args) = &e.kind {
                            let Some(Expr { kind: ExprKind::Var(v), .. }) = args.first() else {
                                return;
                            };
                            if TOCTOU_CHECK_FNS.contains(&name.as_str()) {
                                events.push(ToctouEvent::Check(v));
                            } else if TOCTOU_USE_FNS.contains(&name.as_str()) {
                                events.push(ToctouEvent::Use(v, name, inst.span));
                            }
                        }
                    });
                }
                match &inst.inst {
                    CfgInst::Decl { name, .. } => events.push(ToctouEvent::Kill(name)),
                    CfgInst::Assign { target: LValue::Var(name), .. } => {
                        events.push(ToctouEvent::Kill(name))
                    }
                    _ => {}
                }
            }
            events
        })
        .collect()
}

/// The first of `events` that ends a check→use window of `var`: a use of
/// it or a kill of it.
fn toctou_first<'a>(events: &[ToctouEvent<'a>], var: &str) -> Option<ToctouEvent<'a>> {
    events
        .iter()
        .copied()
        .find(|ev| matches!(ev, ToctouEvent::Use(v, ..) | ToctouEvent::Kill(v) if *v == var))
}

/// Blocks from whose start some path reaches a use of `var` before any kill
/// of it: a backward worklist from the blocks whose first `var` event is a
/// use, through predecessors with no `var` event at all.
fn toctou_live(cfg: &Cfg, events: &[Vec<ToctouEvent<'_>>], var: &str) -> Vec<bool> {
    let first: Vec<_> = events.iter().map(|block| toctou_first(block, var)).collect();
    let mut live: Vec<bool> =
        first.iter().map(|ev| matches!(ev, Some(ToctouEvent::Use(..)))).collect();
    let mut work: Vec<usize> = (0..live.len()).filter(|&b| live[b]).collect();
    while let Some(b) = work.pop() {
        for &p in &cfg.blocks[b].preds {
            if !live[p] && first[p].is_none() {
                live[p] = true;
                work.push(p);
            }
        }
    }
    live
}

/// Depth-first enumeration of acyclic check→use interleavings for `var`,
/// starting at `events[b][start]` and trying successors in edge order.
/// Each path ends at its first use (returned with its callee) or dies at a
/// kill. Successors that are not `live` are skipped: every path through
/// them dies, so the uses and the path count are those of the full
/// enumeration. The search stops once [`TOCTOU_PATH_CAP`] paths reached a
/// use, and keeps explicit frames, so a long block chain cannot overflow
/// the stack.
fn toctou_paths<'a>(
    cfg: &Cfg,
    events: &[Vec<ToctouEvent<'a>>],
    var: &str,
    live: &[bool],
    b: usize,
    start: usize,
) -> (Vec<(vulnman_lang::Span, &'a str)>, u32) {
    match toctou_first(&events[b][start..], var) {
        Some(ToctouEvent::Use(_, callee, span)) => return (vec![(span, callee)], 1),
        Some(_) => return (Vec::new(), 0),
        None => {}
    }
    let mut uses = Vec::new();
    let mut paths = 0u32;
    let mut on_path = vec![false; cfg.blocks.len()];
    on_path[b] = true;
    // Explicit DFS frames: (block, next-successor position).
    let mut frames = vec![(b, 0)];
    while let Some(&mut (block, ref mut si)) = frames.last_mut() {
        if paths >= TOCTOU_PATH_CAP {
            break;
        }
        let Some(&succ) = cfg.blocks[block].succs.get(*si) else {
            frames.pop();
            on_path[block] = false;
            continue;
        };
        *si += 1;
        if on_path[succ] || !live[succ] {
            continue;
        }
        match toctou_first(&events[succ], var) {
            Some(ToctouEvent::Use(_, callee, span)) => {
                paths += 1;
                uses.push((span, callee));
            }
            Some(_) => {}
            None => {
                on_path[succ] = true;
                frames.push((succ, 0));
            }
        }
    }
    (uses, paths)
}

/// Enumerates check/use interleavings over the CFG: from every
/// `file_exists(p)` site, walks every acyclic continuation and reports when
/// a use of `p` is reachable with no intervening re-derivation of `p` —
/// i.e. at least one trace has a window in which the checked state can go
/// stale. Purely structural (no abstract domain), so flag-indirected checks
/// the syntactic race rule misses are still found.
fn check_toctou(func: &Function, cfg: &Cfg, out: &mut Vec<Finding>) {
    let events = toctou_events(cfg);
    let reachable = cfg.reachable();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (b, block_events) in events.iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for (i, ev) in block_events.iter().enumerate() {
            let ToctouEvent::Check(var) = ev else { continue };
            if reported.contains(*var) {
                continue;
            }
            let live = toctou_live(cfg, &events, var);
            let (mut uses, paths) = toctou_paths(cfg, &events, var, &live, b, i + 1);
            if paths == 0 {
                continue;
            }
            reported.insert(var.to_string());
            // Anchor the finding at the earliest reachable use.
            uses.sort_by_key(|(span, _)| span.start);
            let (span, callee) = uses[0];
            let windows = if paths >= TOCTOU_PATH_CAP {
                format!("at least {TOCTOU_PATH_CAP}")
            } else {
                paths.to_string()
            };
            out.push(Finding {
                cwe: Cwe::Toctou,
                function: func.name.to_string(),
                span,
                detector: "absint-toctou".into(),
                message: format!(
                    "`{callee}({var})` trusts an earlier `file_exists({var})` check; the file \
                     can change in the window between them"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: "trace-interleaving".into(),
                    facts: vec![EvidenceFact {
                        var: var.to_string(),
                        value: format!("{windows} stale check-to-use window(s)"),
                    }],
                    claim: format!(
                        "{windows} interleaving(s) reach `{callee}({var})` from the check with \
                         no re-validation of `{var}`"
                    ),
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Width checker: integer truncation (CWE-197)
// ---------------------------------------------------------------------------

fn check_width(
    func: &Function,
    cfg: &Cfg,
    domain: &WidthDomain,
    analysis: &DomainAnalysis<Width>,
    out: &mut Vec<Finding>,
) {
    // Scalar `char` declarations in this function (function-level scope, so
    // one set suffices); stores into them are the narrowing points.
    let mut chars: BTreeSet<&str> = BTreeSet::new();
    for block in &cfg.blocks {
        for inst in &block.insts {
            if let CfgInst::Decl { name, ty: Type::Char, .. } = &inst.inst {
                chars.insert(name);
            }
        }
    }
    if chars.is_empty() {
        return;
    }

    let mut reported: BTreeSet<String> = BTreeSet::new();
    for (pre, inst) in analysis.replay(domain, cfg) {
        let (dest, value) = match &inst.inst {
            CfgInst::Decl { name, ty: Type::Char, init: Some(value) } => (name, value),
            CfgInst::Assign { target: LValue::Var(name), value }
                if chars.contains(name.as_str()) =>
            {
                (name, value)
            }
            _ => continue,
        };
        let v = domain.eval(&pre, value);
        // Must-style gate: only a range entirely outside the 8-bit
        // window proves the store truncates; may-truncation stays quiet.
        if !v.provably_exceeds_bits(8) || reported.contains(dest.as_str()) {
            continue;
        }
        reported.insert(dest.to_string());
        out.push(Finding {
            cwe: Cwe::IntegerTruncation,
            function: func.name.to_string(),
            span: inst.span,
            detector: "absint-width".into(),
            message: format!(
                "store into 8-bit `{dest}` of a value proven outside the char range ({v})"
            ),
            confidence: Confidence::High,
            evidence: Some(Evidence {
                domain: domain.name().into(),
                facts: facts_for(&pre, &[value]),
                claim: format!(
                    "the stored expression evaluates to {v}, entirely outside [-128, 127]"
                ),
            }),
        });
    }
}

// ---------------------------------------------------------------------------
// Provenance checker: format string (CWE-134), command injection (CWE-78)
// ---------------------------------------------------------------------------

/// Sinks the provenance checker proves kind-mismatches against: the callee,
/// the kind bit its first argument must be sanitized for, the class a
/// violation evidences, and the human name of the kind.
const PROVENANCE_SINKS: [(&str, u8, Cwe, &str); 4] = [
    ("printf_fmt", KIND_FORMAT, Cwe::FormatString, "format"),
    ("system", KIND_COMMAND, Cwe::CommandInjection, "command"),
    ("exec_shell", KIND_COMMAND, Cwe::CommandInjection, "command"),
    ("popen", KIND_COMMAND, Cwe::CommandInjection, "command"),
];

fn check_sinks(
    func: &Function,
    cfg: &Cfg,
    domain: &ProvenanceDomain,
    analysis: &DomainAnalysis<Provenance>,
    out: &mut Vec<Finding>,
) {
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (pre, inst) in analysis.replay(domain, cfg) {
        for e in inst.inst.exprs() {
            e.walk(&mut |e| {
                let ExprKind::Call(name, args) = &e.kind else { return };
                let Some((_, kind_bit, cwe, kind_name)) =
                    PROVENANCE_SINKS.iter().find(|(sink, ..)| sink == name)
                else {
                    return;
                };
                let Some(arg) = args.first() else { return };
                let v = domain.eval(&pre, arg);
                let (confidence, how) = if v.sink_is_proven_bug(*kind_bit) {
                    (Confidence::High, "on every path")
                } else if v.sink_is_possible_bug(*kind_bit) {
                    (Confidence::Medium, "on at least one path")
                } else {
                    return;
                };
                if !reported.insert((inst.span.start as u32, cwe.id())) {
                    return;
                }
                out.push(Finding {
                    cwe: *cwe,
                    function: func.name.to_string(),
                    span: inst.span,
                    detector: "absint-provenance".into(),
                    message: format!(
                        "attacker-controlled data reaches the {kind_name} position of \
                         `{name}` {how}, never sanitized for `{kind_name}`"
                    ),
                    confidence,
                    evidence: Some(Evidence {
                        domain: domain.name().into(),
                        facts: facts_for(&pre, &[arg]),
                        claim: format!(
                            "the argument is {v} at the `{name}` sink — its sanitizer mask \
                             never covered `{kind_name}`"
                        ),
                    }),
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::RuleEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vulnman_lang::{parse, AnalysisCache};
    use vulnman_synth::emit::EmitCtx;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::templates::semantic::{semantic_gap_pair, GAP_CLASSES};
    use vulnman_synth::tier::Tier;

    #[test]
    fn semantic_suite_catches_gap_templates_and_passes_fixes() {
        let engine = SemanticEngine::new();
        let mut styles = vec![StyleProfile::mainstream()];
        styles.extend(StyleProfile::internal_teams());
        for style in &styles {
            for cwe in GAP_CLASSES {
                for seed in 0..6u64 {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + cwe.id() as u64);
                    let mut ctx = EmitCtx::new(style, Tier::Curated, &mut rng);
                    let pair = semantic_gap_pair(cwe, &mut ctx);
                    let fv = engine.scan_source(&pair.vulnerable).unwrap();
                    let hit = fv.iter().find(|f| f.cwe == cwe);
                    assert!(
                        hit.is_some(),
                        "{cwe} seed {seed} team {}: vulnerable unit missed:\n{}",
                        style.team,
                        pair.vulnerable
                    );
                    assert!(
                        hit.unwrap().evidence.is_some(),
                        "{cwe}: semantic findings must carry evidence"
                    );
                    let ff = engine.scan_source(&pair.fixed).unwrap();
                    assert!(
                        ff.iter().all(|f| f.cwe != cwe),
                        "{cwe} seed {seed} team {}: fixed unit flagged:\n{}\n{ff:?}",
                        style.team,
                        pair.fixed
                    );
                }
            }
        }
    }

    #[test]
    fn rule_suite_stays_blind_to_gap_templates() {
        // The whole point of the semantic templates: the syntactic rule
        // suite has no trigger for constant-flow bugs.
        let rules = RuleEngine::default_suite();
        let style = StyleProfile::mainstream();
        for cwe in GAP_CLASSES {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed * 13 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = semantic_gap_pair(cwe, &mut ctx);
                let findings = rules.scan_source(&pair.vulnerable).unwrap();
                assert!(
                    findings.iter().all(|f| f.cwe != cwe),
                    "{cwe} seed {seed}: rules unexpectedly caught a semantic template:\n{}",
                    pair.vulnerable
                );
            }
        }
    }

    #[test]
    fn no_false_positives_on_benign_and_fixed_classic_corpus() {
        use vulnman_synth::generator::SampleGenerator;
        let engine = SemanticEngine::new();
        let mut g = SampleGenerator::new(41, StyleProfile::mainstream());
        for _ in 0..30 {
            let b = g.benign_risky(Tier::Curated, "p");
            let findings = engine.scan_source(&b.source).unwrap();
            assert!(
                findings.is_empty(),
                "semantic checker flagged safe code:\n{}\n{findings:?}",
                b.source
            );
        }
        // Classic fixed templates must also stay clean.
        let style = StyleProfile::mainstream();
        for cwe in Cwe::CLASSIC {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 7 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = vulnman_synth::templates::generate(cwe, &mut ctx);
                let ff = engine.scan_source(&pair.fixed).unwrap();
                assert!(
                    ff.iter().all(|f| f.cwe != cwe),
                    "{cwe} seed {seed}: semantic checker flagged the fixed unit:\n{}\n{ff:?}",
                    pair.fixed
                );
            }
        }
    }

    #[test]
    fn evidence_replays_the_abstract_state() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source("void f() { int a[4]; int i = 9; int x = a[i]; record_metric(\"x\", x); }")
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::OutOfBoundsRead).expect("OOB read found");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "interval");
        assert!(
            ev.facts.iter().any(|fa| fa.var == "i" && fa.value == "[9, 9]"),
            "the index variable's interval is the evidence: {ev:?}"
        );
        assert!(ev.claim.contains("[0, 4)"), "claim names the valid range: {}", ev.claim);
        // The Display form is the lint-output trace.
        let trace = ev.to_string();
        assert!(trace.contains("interval domain:"), "{trace}");
        assert!(trace.contains("i = [9, 9]"), "{trace}");
    }

    #[test]
    fn division_by_zero_and_overflow_are_proven_not_guessed() {
        let engine = SemanticEngine::new();
        // Interprocedural: the zero flows through a call summary.
        let findings = engine
            .scan_source(
                "int stride() { int k = 5; return k - 5; }\n\
                 void f() { int total = 100; int d = stride(); int q = total / d; \
                 record_metric(\"q\", q); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::DivideByZero),
            "zero divisor through a summary: {findings:?}"
        );
        // A merely-possible zero is not reported (must, not may).
        let findings = engine
            .scan_source("void f(int n) { int q = 10 / n; record_metric(\"q\", q); }")
            .unwrap();
        assert!(findings.is_empty(), "unknown divisor must not be flagged: {findings:?}");
        // Overflow: a product proven outside i64.
        let findings = engine
            .scan_source(
                "void f() { int big = 9000000000000000000; int x = big * 9; \
                 record_metric(\"x\", x); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::IntegerOverflow),
            "proven overflow: {findings:?}"
        );
    }

    #[test]
    fn maybe_states_report_at_medium_confidence() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source(
                "void f(int flag) { char* p = 0; if (flag > 0) { p = make_buf(8); } \
                 p[0] = 'x'; }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::NullDereference).expect("476 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-null is a merge, not a must");
        let findings = engine.scan_source("void f() { char* p = 0; p[0] = 'x'; }").unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::NullDereference).expect("476 found");
        assert_eq!(f.confidence, Confidence::High, "definite null is a must");
    }

    #[test]
    fn double_free_and_use_after_free_are_proven_by_ownership() {
        let engine = SemanticEngine::new();
        // Release of an already-released handle is a must-double-free.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); release_block(p); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::DoubleFree).expect("415 found");
        assert_eq!(f.confidence, Confidence::High, "second release is a must");
        assert_eq!(f.detector, "absint-ownership");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "ownership");
        assert!(ev.facts.iter().any(|fa| fa.var == "p"), "the handle is the evidence: {ev:?}");
        // Releasing a handle whose ownership moved elsewhere is the same bug.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); store_handle(p); release_block(p); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::DoubleFree && f.confidence == Confidence::High),
            "release after handoff: {findings:?}"
        );
        // Any other read of a released handle is a use-after-free.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); send_data(p, 8); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::UseAfterFree).expect("416 found");
        assert_eq!(f.confidence, Confidence::High);
        // A one-sided release merges to maybe-freed: reported, at Medium.
        let findings = engine
            .scan_source(
                "void f(int flag) { char* p = alloc_buffer(8); \
                 if (flag > 0) { release_block(p); } send_data(p, 8); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::UseAfterFree).expect("416 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-freed is a merge, not a must");
        // A re-allocated handle is owned again: no finding.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); \
                 p = alloc_buffer(16); send_data(p, 16); release_block(p); }",
            )
            .unwrap();
        assert!(findings.is_empty(), "re-allocation restores ownership: {findings:?}");
    }

    #[test]
    fn toctou_window_is_traced_through_interleavings() {
        let engine = SemanticEngine::new();
        // Flag-indirected check/use: the syntactic race rule needs the check
        // inside the branch condition, so only the trace walk sees this.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int ok = file_exists(path); \
                 if (ok > 0) { int fd = open_file(path); record_metric(\"fd\", fd); } }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::Toctou).expect("367 found");
        assert_eq!(f.confidence, Confidence::High);
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "trace-interleaving");
        assert!(
            ev.facts.iter().any(|fa| fa.var == "path" && fa.value.contains("window")),
            "the stale window count is the evidence: {ev:?}"
        );
        assert!(ev.claim.contains("open_file"), "claim names the trusting use: {}", ev.claim);
        // Re-deriving the path between check and use closes the window.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int ok = file_exists(path); \
                 path = read_input(); int fd = open_file(path); record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(
            findings.iter().all(|f| f.cwe != Cwe::Toctou),
            "re-derivation kills the window: {findings:?}"
        );
        // The atomic open never trusts a prior check: no finding.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); \
                 int fd = open_file_atomic(path); record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::Toctou), "{findings:?}");
        // A use on a path with no preceding check is also clean.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int fd = open_file(path); \
                 record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::Toctou), "{findings:?}");
    }

    /// A `file_exists(p)` check, `k` sequential `if (x) { x = 1; }`
    /// statements (2^k acyclic paths), then `tail`.
    fn toctou_chain(k: usize, tail: &str) -> String {
        let ifs = "if (x) { x = 1; } ".repeat(k);
        format!("void f(int x) {{ char* p = read_input(); int ok = file_exists(p); {ifs}{tail} }}")
    }

    fn toctou_findings(src: &str) -> Vec<Finding> {
        let program = parse(src).unwrap();
        let func = &program.functions[0];
        let mut out = Vec::new();
        check_toctou(func, &Cfg::build(func), &mut out);
        out
    }

    #[test]
    fn toctou_search_skips_branches_that_reach_no_use() {
        // 2^40 acyclic paths and no use of `p` on any of them.
        assert_eq!(toctou_findings(&toctou_chain(40, "")), []);
    }

    #[test]
    fn toctou_search_still_counts_interleavings_up_to_the_cap() {
        let findings = toctou_findings(&toctou_chain(40, "int fd = open_file(p);"));
        let [f] = &findings[..] else { panic!("one TOCTOU finding expected: {findings:?}") };
        let claim = &f.evidence.as_ref().expect("evidence attached").claim;
        assert!(claim.starts_with("at least 64 interleaving(s) reach `open_file(p)`"), "{claim}");
        let findings = toctou_findings(&toctou_chain(3, "int fd = open_file(p);"));
        let claim = &findings[0].evidence.as_ref().expect("evidence attached").claim;
        assert!(claim.starts_with("8 interleaving(s)"), "one window per path: {claim}");
    }

    #[test]
    fn toctou_search_survives_a_long_block_chain() {
        // One DFS level per block of a ~40 000-block chain, on a thread with
        // a small stack.
        let src = toctou_chain(20_000, "int fd = open_file(p);");
        let findings = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || toctou_findings(&src))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].cwe, Cwe::Toctou);
    }

    #[test]
    fn truncation_is_proven_by_width_domain() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source(
                "void f() { int b = 40; int scaled = b * 8; char flag = scaled; \
                 record_metric(\"flag\", flag); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::IntegerTruncation).expect("197 found");
        assert_eq!(f.confidence, Confidence::High);
        assert_eq!(f.detector, "absint-width");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "width");
        assert!(ev.claim.contains("[-128, 127]"), "claim names the window: {}", ev.claim);
        // Clamping before the store proves the value fits: no finding.
        let findings = engine
            .scan_source(
                "void f() { int b = 40; int scaled = b * 8; \
                 if (scaled > 127) { scaled = 127; } char flag = scaled; \
                 record_metric(\"flag\", flag); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::IntegerTruncation), "{findings:?}");
        // A merely-possible truncation is not reported (must, not may).
        let findings =
            engine.scan_source("void f(int n) { char c = n; record_metric(\"c\", c); }").unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::IntegerTruncation), "{findings:?}");
    }

    #[test]
    fn kind_mismatched_sanitizers_are_proven_by_provenance() {
        let engine = SemanticEngine::new();
        // SQL-escaping a shell command leaves the command bit unsanitized.
        let findings = engine
            .scan_source(
                "void f() { char* cmd = read_input(); char* c = escape_sql(cmd); \
                 exec_shell(c); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::CommandInjection).expect("78 found");
        assert_eq!(f.confidence, Confidence::High, "kind mismatch is a must");
        assert_eq!(f.detector, "absint-provenance");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "provenance");
        assert!(ev.claim.contains("command"), "claim names the missing kind: {}", ev.claim);
        // Same shape at the format sink.
        let findings = engine
            .scan_source(
                "void f() { char* m = getenv(\"APP_MSG\"); char* s = escape_html(m); \
                 printf_fmt(s); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::FormatString && f.confidence == Confidence::High),
            "html-escaped format string: {findings:?}"
        );
        // The matching sanitizer discharges the proof.
        let findings = engine
            .scan_source(
                "void f() { char* cmd = read_input(); char* c = escape_shell(cmd); \
                 exec_shell(c); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::CommandInjection), "{findings:?}");
        // Clean-on-one-path merges to maybe-external: reported at Medium.
        let findings = engine
            .scan_source(
                "void f(int flag) { char* x = \"status\"; \
                 if (flag > 0) { x = read_input(); } exec_shell(x); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::CommandInjection).expect("78 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-external is a merge, not a must");
    }

    #[test]
    fn cached_scan_is_identical_and_warm() {
        let engine = SemanticEngine::new();
        let src = "void f() { int a[4]; int i = 9; a[i] = 1; consume_table(a, 4); }";
        let cache = AnalysisCache::new();
        let key = AnalysisCache::content_key(src);
        let cold = engine.scan_source_cached_keyed(key, src, &cache).unwrap();
        let warm = engine.scan_source_cached_keyed(key, src, &cache).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cache.stats().hits, 2, "warm scan hits parse and findings");
        assert_eq!(cold, engine.scan_source(src).unwrap());
        assert!(!cold.is_empty());
        // Different solver configs must not share cache entries.
        let other = SemanticEngine::with_config(SolverConfig {
            widening_threshold: 2,
            max_iterations: 10_000,
        });
        assert_ne!(engine.fingerprint(), other.fingerprint());
    }

    #[test]
    fn absint_instruments_are_schema_stable() {
        let metrics = Registry::new();
        register_absint_instruments(&metrics);
        let engine = SemanticEngine::new();
        let program = parse("void f() { int x; record_metric(\"x\", x); }").unwrap();
        let findings = engine.scan_with_metrics(&program, &metrics);
        assert_eq!(findings.len(), 1);
        let json = serde_json::to_string(&metrics.snapshot()).unwrap();
        for key in [
            "absint.solver.iterations",
            "absint.solver.widenings",
            "absint.solver.nonconverged",
            "absint.findings",
            "absint.domain.interval_micros",
            "absint.domain.nullness_micros",
            "absint.domain.init_micros",
            "absint.domain.ownership_micros",
            "absint.domain.width_micros",
            "absint.domain.provenance_micros",
            "absint.framing_micros",
        ] {
            assert!(json.contains(key), "{key} must be pre-registered");
        }
        assert!(metrics.counter("absint.solver.iterations").get() > 0);
        assert_eq!(metrics.counter("absint.findings").get(), 1);
        // One framing per scan, next to one observation per domain pass.
        assert_eq!(metrics.histogram("absint.framing_micros").count(), 1);
        assert_eq!(metrics.histogram("absint.domain.width_micros").count(), 1);
    }
}
