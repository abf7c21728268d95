//! The industry security-vulnerability-management workflow of Figure 1.
//!
//! Pipeline per the paper: **Vulnerability Assessment** (automated detection
//! → threat-model/reachability gating → manual security review) feeding
//! **Vulnerability Repair** (auto-fix → AI suggestion → expert
//! recommendation), with **Security Training** closing the loop. Every
//! batch runs through one driver: assessment sharded across
//! [`WorkflowConfig::jobs`] scoped threads, manual-review capacity applied
//! as a policy at reduce time, repair sharded again, and the cases folded
//! in submission order.

use crate::costmodel::{CostParams, CostReport};
use crate::detector::{Assessment, DetectorRegistry};
use crate::resilience::{register_fault_instruments, ObsFaultObserver};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vulnman_analysis::autofix::AutoFixer;
use vulnman_analysis::detectors::RuleEngine;
use vulnman_analysis::finding::{Evidence, EvidenceFact, Finding};
use vulnman_analysis::reachability::{CallGraph, Surface};
use vulnman_faults::{site_key, FaultConfig, FaultInjector, FaultKind, Site};
use vulnman_lang::clone::{CloneConfig, CloneIndex, TokenAlignment};
use vulnman_lang::lexer::lex_ref;
use vulnman_lang::{AnalysisCache, CacheOp, CacheStats};
use vulnman_ml::eval::Metrics;
use vulnman_obs::{PreparedSpan, Registry, Snapshot};
use vulnman_synth::sample::Sample;

/// Tunables for the workflow engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// Probability a manual reviewer catches a real vulnerability the
    /// automated stage missed.
    pub analyst_skill: f64,
    /// Minutes per manual review.
    pub review_minutes: f64,
    /// Minutes to verify one AI repair suggestion (the paper's concern:
    /// "the engineering effort required to verify these recommendations").
    pub suggestion_verify_minutes: f64,
    /// Expert hours per hand-written fix.
    pub expert_fix_hours: f64,
    /// Deterministic seed for review outcomes.
    pub seed: u64,
    /// Worker threads of the batch driver: assessment and repair are each
    /// sharded across this many scoped threads (`1`, the default, is a
    /// single shard). Any value produces a byte-identical report.
    pub jobs: usize,
    /// Whether the engine memoizes source-derived analyses (parse, rule
    /// findings, surface classification) in a content-addressed cache.
    /// Caching never changes results, only repeated work.
    pub cache: bool,
    /// Whether the engine deduplicates near-clones before analysis: a
    /// MinHash/LSH pass groups verified near-duplicates into clone
    /// classes, one representative per class is analyzed, and
    /// clone-invariant detector findings are propagated to the other
    /// members with spans, identifiers and messages remapped through a
    /// proven token alignment. Members whose alignment fails (or whose
    /// [`vulnman_faults::Site::CloneIndex`] coordinate is faulted) fall
    /// back to direct analysis, so dedup changes work, never results.
    pub dedup: bool,
    /// Optional per-table entry bound for the analysis cache (see
    /// [`AnalysisCache::with_entry_limit`]): long-running embedders cap
    /// resident memory and rely on epoch eviction. Dedup propagation
    /// recomputes a representative's assessment through the cache on a
    /// miss, so eviction — like every cache setting — changes cost, never
    /// a byte of the report. `None` (the default) is unbounded.
    pub cache_entries: Option<usize>,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            analyst_skill: 0.85,
            review_minutes: 30.0,
            suggestion_verify_minutes: 10.0,
            expert_fix_hours: 4.0,
            seed: 0,
            jobs: 1,
            cache: true,
            dedup: false,
            cache_entries: None,
        }
    }
}

/// How a confirmed vulnerability was remediated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairChannel {
    /// Mechanical rule-based patch (verified by re-scan).
    AutoFix,
    /// AI-suggested patch accepted after verification.
    AiSuggestion,
    /// Security expert wrote the fix.
    Expert,
}

/// One traced decision for one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// Sample id.
    pub sample_id: u64,
    /// Ground truth.
    pub truly_vulnerable: bool,
    /// Flagged by the automated assessment stage.
    pub auto_flagged: bool,
    /// Attack-surface classification of the unit's entry function.
    pub surface: Surface,
    /// Went through manual security review.
    pub manually_reviewed: bool,
    /// Caught by the manual reviewer (implies `manually_reviewed`).
    pub review_catch: bool,
    /// Structured findings from the assessment stage, merged across
    /// detectors in a deterministic order: detector name, then span, then
    /// CWE, then message. (Cases themselves are kept in submission order,
    /// so the report-wide ordering is sample, detector, span.)
    pub findings: Vec<Finding>,
    /// Repair channel used, when remediated.
    pub repaired_via: Option<RepairChannel>,
    /// The remediated source, when a patch was produced and verified.
    pub patched_source: Option<String>,
}

impl CaseOutcome {
    /// Whether the vulnerability was detected by any stage.
    pub fn detected(&self) -> bool {
        self.auto_flagged || self.review_catch
    }
}

/// Deterministic fault-degradation accounting for one run.
///
/// Every count here derives from the fault plan over detector-call and
/// ML-predict coordinates that are independent of worker count, cache
/// configuration, and call order — which is why the summary (and therefore
/// the whole serialized report) stays byte-identical across `jobs`
/// settings. Jobs-dependent sites (cache get/put, shard workers) are
/// accounted in metrics only, never here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DegradationSummary {
    /// Transient faults injected at the detector-call site.
    pub transient: u64,
    /// Timeout faults injected at the detector-call site.
    pub timeout: u64,
    /// Corrupt-response faults injected at the detector-call site.
    pub corrupt: u64,
    /// Crash faults injected at the detector-call site.
    pub crash: u64,
    /// Detector-call retries performed (backed off on the virtual clock,
    /// never slept).
    pub retries: u64,
    /// Detector calls that succeeded after at least one retry.
    pub recovered: u64,
    /// Detector calls that gave up (retry budget exhausted or crash).
    pub exhausted: u64,
    /// Assessments lost to exhaustion, quarantine skips, or ML predict
    /// failures.
    pub assessments_lost: u64,
    /// ML predictions that failed under injection (deterministic per
    /// sample id).
    pub ml_failures: u64,
    /// Samples that lost at least one detector assessment.
    pub degraded_samples: usize,
    /// Requests shed by the serving layer's admission control (always zero
    /// for batch runs; `vulnman serve` records load-shedding here so the
    /// degradation ledger covers overload as well as injected faults).
    pub shed: u64,
    /// Detectors quarantined for the remainder of the run after exhausting
    /// their retry budget, by name, sorted.
    pub quarantined: Vec<String>,
}

impl DegradationSummary {
    /// Whether the run lost any assessment or quarantined any detector.
    pub fn is_degraded(&self) -> bool {
        self.assessments_lost > 0 || !self.quarantined.is_empty()
    }

    /// Folds one case's accounting in, in submission order.
    fn absorb(&mut self, d: &CaseDegradation) {
        self.transient += d.transient;
        self.timeout += d.timeout;
        self.corrupt += d.corrupt;
        self.crash += d.crash;
        self.retries += d.retries;
        self.recovered += d.recovered;
        self.exhausted += d.exhausted;
        self.assessments_lost += d.lost;
        self.ml_failures += d.ml_failures;
        if d.lost > 0 {
            self.degraded_samples += 1;
        }
    }
}

/// Per-case fault accounting from the resilient assessment path, folded
/// into [`DegradationSummary`] in submission order.
#[derive(Debug, Clone, Copy, Default)]
struct CaseDegradation {
    transient: u64,
    timeout: u64,
    corrupt: u64,
    crash: u64,
    retries: u64,
    recovered: u64,
    exhausted: u64,
    lost: u64,
    ml_failures: u64,
}

impl CaseDegradation {
    fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Transient => self.transient += 1,
            FaultKind::Timeout => self.timeout += 1,
            FaultKind::Corrupt => self.corrupt += 1,
            FaultKind::Crash => self.crash += 1,
        }
    }
}

/// Aggregate result of a workflow run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WorkflowReport {
    /// Per-sample outcomes, in submission order.
    pub cases: Vec<CaseOutcome>,
    /// Total analyst minutes consumed (review + suggestion verification).
    pub analyst_minutes: f64,
    /// Total expert hours consumed writing fixes.
    pub expert_hours: f64,
    /// Counts per repair channel.
    pub auto_fixed: usize,
    /// AI suggestions accepted.
    pub ai_fixed: usize,
    /// Expert-written fixes.
    pub expert_fixed: usize,
    /// Vulnerable samples that escaped every stage.
    pub escaped: usize,
    /// Manual reviews skipped because the review budget ran out
    /// (capacity-limited runs only).
    pub reviews_skipped: usize,
    /// Fault-injection accounting (all zeros and empty when the engine runs
    /// without a fault plan or at rate zero).
    pub degradation: DegradationSummary,
}

impl WorkflowReport {
    /// Detection confusion matrix (detected-by-any-stage vs ground truth).
    pub fn detection_metrics(&self) -> Metrics {
        let pred: Vec<bool> = self.cases.iter().map(|c| c.detected()).collect();
        let truth: Vec<bool> = self.cases.iter().map(|c| c.truly_vulnerable).collect();
        Metrics::from_predictions(&pred, &truth)
    }

    /// Prices the run under a cost model (adds workflow labour to the
    /// confusion-matrix pricing).
    pub fn price(&self, params: &CostParams) -> CostReport {
        let mut r = crate::costmodel::price_deployment(&self.detection_metrics(), params);
        let labour = self.analyst_minutes / 60.0 * params.analyst_hourly_usd
            + self.expert_hours * params.analyst_hourly_usd;
        r.triage_cost += labour;
        r.net_value -= labour;
        r
    }

    /// Fraction of manual reviews among all cases.
    pub fn review_rate(&self) -> f64 {
        if self.cases.is_empty() {
            0.0
        } else {
            self.cases.iter().filter(|c| c.manually_reviewed).count() as f64
                / self.cases.len() as f64
        }
    }
}

/// The Figure-1 workflow engine.
pub struct WorkflowEngine {
    registry: DetectorRegistry,
    fixer: AutoFixer,
    verifier: RuleEngine,
    config: WorkflowConfig,
    cache: AnalysisCache,
    metrics: Registry,
    stage_spans: StageSpans,
    faults: Option<FaultHarness>,
}

/// Pre-resolved per-sample stage spans: these start once (or more) per
/// sample, so the name allocation and registry lookup a plain
/// [`Registry::span`] pays each call are hoisted to engine construction.
#[derive(Clone)]
struct StageSpans {
    assess: PreparedSpan,
    detect: PreparedSpan,
    surface: PreparedSpan,
    review: PreparedSpan,
    repair: PreparedSpan,
}

impl StageSpans {
    fn resolve(metrics: &Registry) -> Self {
        StageSpans {
            assess: metrics.prepared_span("stage.assess"),
            detect: metrics.prepared_span("stage.assess.detect"),
            surface: metrics.prepared_span("stage.assess.surface"),
            review: metrics.prepared_span("stage.review"),
            repair: metrics.prepared_span("stage.repair"),
        }
    }
}

/// The engine's fault-injection state: the shared injector (which every
/// site consults) plus the config it was built from.
struct FaultHarness {
    injector: Arc<FaultInjector>,
    config: FaultConfig,
}

/// Per-batch fault context: the injector plus each detector's quarantine
/// point — the first submission index at which the plan exhausts that
/// detector's retry budget. Computed from the plan alone (never from call
/// order or timing), so every worker count agrees.
struct FaultRun {
    injector: Arc<FaultInjector>,
    quarantine_at: Vec<u64>,
}

/// Every span name the engine emits, pre-registered at construction so the
/// exported metrics schema does not depend on the configuration or on
/// whether a run deduplicates. Stage spans land in `span.<name>`
/// histograms; `stage.review` times the reduce-time review policy once per
/// batch.
const ENGINE_SPANS: [&str; 6] = [
    "stage.assess",
    "stage.assess.detect",
    "stage.assess.surface",
    "stage.review",
    "stage.repair",
    "clone.index",
];

/// Clone-dedup counters, pre-registered like the spans so the metrics
/// schema is identical whether or not a run deduplicates (and whether any
/// clones exist): multi-member classes found, non-representative members,
/// members whose findings were propagated, members dropped out of their
/// class by a [`Site::CloneIndex`] fault, members rejected at plan time
/// (no token alignment), and members that bailed to direct analysis at
/// assessment time (a finding failed to remap).
const CLONE_COUNTERS: [&str; 6] = [
    "clone.classes",
    "clone.duplicates",
    "clone.propagated",
    "clone.faulted",
    "clone.align_rejected",
    "clone.align_fallback",
];

/// Output of the assessment + threat-model stages for one sample,
/// including the fault accounting of its detector calls.
struct Assessed {
    flagged: bool,
    surface: Surface,
    findings: Vec<Finding>,
    degradation: CaseDegradation,
}

/// Per-sample decision of the clone-dedup pass.
enum DedupDecision {
    /// Analyze the sample directly (representatives, singletons, members
    /// without a token alignment, faulted membership decisions).
    Direct,
    /// Reuse the clone representative's assessment, remapped through the
    /// token alignment. The representative sample and its content key are
    /// resolved once at plan time and shared by every member of the class.
    Propagate { rep: Arc<Sample>, rep_key: u64, alignment: Arc<TokenAlignment> },
}

/// The batch's clone-dedup plan: one decision per submission index,
/// computed before any analysis starts. The plan is a pure function of
/// the sample sources, the clone config, and the fault plan — never of
/// worker count or call order.
struct DedupPlan {
    decisions: Vec<DedupDecision>,
}

impl DedupPlan {
    fn decision(plan: Option<&DedupPlan>, idx: usize) -> &DedupDecision {
        plan.map(|p| &p.decisions[idx]).unwrap_or(&DedupDecision::Direct)
    }
}

/// The complete, order-independent result of processing one sample: the
/// traced outcome plus the labour it consumed. Built by the batch driver
/// from pure per-sample stages and folded into a [`WorkflowReport`] by
/// [`WorkflowEngine::reduce`] in submission order, so every worker count
/// accumulates floating-point totals in exactly the same order and the
/// reports are byte-identical.
struct CaseWork {
    outcome: CaseOutcome,
    review_minutes: f64,
    repair_minutes: f64,
    expert_hours: f64,
    degradation: CaseDegradation,
}

impl std::fmt::Debug for WorkflowEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowEngine")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .finish()
    }
}

impl WorkflowEngine {
    /// Creates an engine over a detector registry, recording metrics into a
    /// fresh enabled [`Registry`] (read it back via
    /// [`WorkflowEngine::metrics`]).
    pub fn new(registry: DetectorRegistry, config: WorkflowConfig) -> Self {
        WorkflowEngine::with_metrics(registry, config, Registry::new())
    }

    /// Creates an engine recording into `metrics` — pass
    /// [`Registry::noop`] to strip instrumentation down to predicted
    /// branches (the benchmark baseline), or a shared registry to fold the
    /// engine's counters into a larger snapshot.
    ///
    /// The full instrument schema (stage spans, shard histograms, cache
    /// and per-detector counters) is registered here, up front, so two
    /// runs with different `jobs`/`cache` settings export identical metric
    /// key sets.
    pub fn with_metrics(
        mut registry: DetectorRegistry,
        config: WorkflowConfig,
        metrics: Registry,
    ) -> Self {
        for span in ENGINE_SPANS {
            metrics.histogram(&format!("span.{span}"));
        }
        for counter in CLONE_COUNTERS {
            metrics.counter(counter);
        }
        metrics.counter("workflow.samples");
        metrics.histogram("shard.queue_depth");
        metrics.histogram("shard.latency_micros");
        register_fault_instruments(&metrics);
        vulnman_analysis::checkers::register_absint_instruments(&metrics);
        vulnman_analysis::corpusgraph::register_graph_instruments(&metrics);
        vulnman_analysis::audit::register_audit_instruments(&metrics);
        registry.attach_metrics(metrics.clone());
        let cache = if config.cache {
            let cache = AnalysisCache::with_metrics(&metrics);
            match config.cache_entries {
                Some(limit) => cache.with_entry_limit(limit),
                None => cache,
            }
        } else {
            AnalysisCache::disabled_with_metrics(&metrics)
        };
        let stage_spans = StageSpans::resolve(&metrics);
        WorkflowEngine {
            registry,
            fixer: AutoFixer::new(),
            verifier: RuleEngine::default_suite(),
            cache,
            config,
            metrics,
            stage_spans,
            faults: None,
        }
    }

    /// Creates an engine whose component calls run under a deterministic
    /// seeded fault plan: detector invocations retry with virtual-clock
    /// backoff and quarantine on exhaustion, cache lookups and stores can
    /// be dropped, shard workers can crash (the coordinator finishes their
    /// slice inline), and ML predictions can fail per sample. At rate zero
    /// the report is byte-identical to [`WorkflowEngine::new`]'s.
    pub fn with_fault_config(
        registry: DetectorRegistry,
        config: WorkflowConfig,
        fault_config: FaultConfig,
    ) -> Self {
        WorkflowEngine::with_fault_metrics(registry, config, fault_config, Registry::new())
    }

    /// [`WorkflowEngine::with_fault_config`] recording into `metrics`
    /// (resilience events land on the pre-registered `fault.*` instruments).
    pub fn with_fault_metrics(
        mut registry: DetectorRegistry,
        config: WorkflowConfig,
        fault_config: FaultConfig,
        metrics: Registry,
    ) -> Self {
        let observer = Arc::new(ObsFaultObserver::new(&metrics));
        let injector = Arc::new(FaultInjector::with_observer(&fault_config, observer));
        registry.attach_faults(&injector);
        let mut engine = WorkflowEngine::with_metrics(registry, config, metrics);
        let hook_injector = Arc::clone(&injector);
        // Cache faults are keyed by content hash: a dropped get degrades to
        // a recompute, a dropped put to a future miss — results never change
        // (only `cache.*` counters), so they stay out of the report.
        engine.cache.set_fault_hook(Arc::new(move |op, key| {
            let site = match op {
                CacheOp::Get => Site::CacheGet,
                CacheOp::Put => Site::CachePut,
            };
            hook_injector.attempt(site, key, 0).is_some()
        }));
        engine.faults = Some(FaultHarness { injector, config: fault_config });
        engine
    }

    /// The fault-injection config, when the engine was built with one.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(|h| &h.config)
    }

    /// The registered detectors.
    pub fn registry(&self) -> &DetectorRegistry {
        &self.registry
    }

    /// The engine's configuration.
    pub fn config(&self) -> &WorkflowConfig {
        &self.config
    }

    /// The engine's metrics registry (per-stage spans, shard histograms,
    /// cache counters, per-detector timings).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// A frozen snapshot of every instrument.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.snapshot()
    }

    /// Hit/miss counters of the engine's analysis cache, read from the
    /// metrics registry's `cache.*` counters — the cache's single set of
    /// bookkeeping.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.metrics.counter("cache.hits").get(),
            misses: self.metrics.counter("cache.misses").get(),
        }
    }

    /// Drops all memoized analysis results (e.g. between benchmark runs).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Processes a batch through the Figure-1 workflow with unlimited
    /// manual review: every exposed or flagged change is reviewed. Per-sample
    /// decisions are pure functions of the sample and the seed, and labour
    /// totals are folded in submission order regardless of which shard
    /// computed them, so the report is byte-identical for every
    /// [`WorkflowConfig::jobs`] value.
    pub fn process(&self, samples: &[Sample]) -> WorkflowReport {
        self.run_batch(samples, f64::INFINITY)
    }

    /// Processes a batch under a finite manual-review budget, allocating
    /// reviews by threat-model priority: zero-click surfaces first, then
    /// one-click, then flagged-but-local — the "scalability and
    /// prioritization" requirement of Gap Observation 1. With an infinite
    /// budget the report is byte-identical to [`WorkflowEngine::process`]'s,
    /// and like it the report is the same at every worker count.
    pub fn process_with_capacity(&self, samples: &[Sample], budget_minutes: f64) -> WorkflowReport {
        self.run_batch(samples, budget_minutes)
    }

    /// The one batch driver behind both entry points: assess and
    /// threat-model every change in one sharded pass, decide manual review
    /// at reduce time under `budget_minutes`, repair the detected
    /// vulnerabilities in a second sharded pass, and fold every case in
    /// submission order.
    fn run_batch(&self, samples: &[Sample], budget_minutes: f64) -> WorkflowReport {
        let run = self.fault_run(samples.len());
        let run = run.as_ref();
        let dedup = self.dedup_plan(samples, run);
        let scratch = self.scratch_cache();
        let cache = scratch.as_ref().unwrap_or(&self.cache);
        self.metrics.counter("workflow.samples").add(samples.len() as u64);

        // Stage 1: automated detection + threat modeling, per sample.
        let assessed = self.shard_map(samples.len(), run, |i| {
            self.assess_stage(&samples[i], i, run, cache, dedup.as_ref())
        });

        // Stage 2: manual security review, decided for the whole batch.
        let review_span = self.stage_spans.review.start();
        let (reviewed, reviews_skipped) = self.allocate_reviews(&assessed, budget_minutes);
        review_span.stop();
        let mut work: Vec<CaseWork> = assessed
            .into_iter()
            .zip(samples.iter().zip(reviewed))
            .map(|(Assessed { flagged, surface, findings, degradation }, (sample, reviewed))| {
                let catch = reviewed
                    && sample.label
                    && hash_unit(sample.id ^ self.config.seed) < self.config.analyst_skill;
                CaseWork {
                    outcome: CaseOutcome {
                        sample_id: sample.id,
                        truly_vulnerable: sample.label,
                        auto_flagged: flagged,
                        surface,
                        manually_reviewed: reviewed,
                        review_catch: catch,
                        findings,
                        repaired_via: None,
                        patched_source: None,
                    },
                    review_minutes: if reviewed { self.config.review_minutes } else { 0.0 },
                    repair_minutes: 0.0,
                    expert_hours: 0.0,
                    degradation,
                }
            })
            .collect();

        // Stage 3: repair — only real, detected vulnerabilities get patched;
        // false alarms burn triage time, which the review stage accounted.
        let to_repair: Vec<usize> = (0..work.len())
            .filter(|&i| work[i].outcome.detected() && work[i].outcome.truly_vulnerable)
            .collect();
        let repairs = self.shard_map(to_repair.len(), run, |k| {
            let span = self.stage_spans.repair.start();
            let repaired =
                repair(&samples[to_repair[k]], &self.fixer, &self.verifier, &self.config, cache);
            span.stop();
            repaired
        });
        for (i, (channel, patched, analyst_min, expert_h)) in to_repair.into_iter().zip(repairs) {
            let w = &mut work[i];
            w.outcome.repaired_via = Some(channel);
            w.outcome.patched_source = patched;
            w.repair_minutes = analyst_min;
            w.expert_hours = expert_h;
        }

        let mut report = Self::reduce(work);
        report.reviews_skipped = reviews_skipped;
        self.finish_report(report, run, samples.len())
    }

    /// The review policy, applied at reduce time once every change is
    /// assessed. Candidates — exposed surfaces and flagged changes — are
    /// reviewed in threat-model priority order `(surface, !flagged,
    /// submission index)` while `budget_minutes` covers another review; an
    /// infinite budget reviews every candidate, which is Figure 1's
    /// per-change gate. Returns the per-sample review decisions and the
    /// number of candidates the budget skipped.
    fn allocate_reviews(&self, assessed: &[Assessed], budget_minutes: f64) -> (Vec<bool>, usize) {
        let mut candidates: Vec<usize> = (0..assessed.len())
            .filter(|&i| assessed[i].surface.requires_manual_review() || assessed[i].flagged)
            .collect();
        candidates.sort_by_key(|&i| (assessed[i].surface, !assessed[i].flagged, i));
        let mut reviewed = vec![false; assessed.len()];
        let mut skipped = 0;
        let mut remaining = budget_minutes;
        for i in candidates {
            if remaining >= self.config.review_minutes {
                remaining -= self.config.review_minutes;
                reviewed[i] = true;
            } else {
                skipped += 1;
            }
        }
        (reviewed, skipped)
    }

    /// The engine's one parallel primitive: maps `f` over `0..n` in
    /// [`WorkflowConfig::jobs`] contiguous shards, one scoped worker thread
    /// each, and returns the results in index order. `f` must be pure in
    /// its index — every call site is — which is what makes recovery exact:
    /// a worker whose [`Site::ShardWorker`] plan coordinate (its shard
    /// index) says "crash" hands back the half it finished and the
    /// coordinator completes the rest inline, and a genuine panic has the
    /// coordinator recompute the whole shard instead of poisoning the run.
    fn shard_map<T: Send>(
        &self,
        n: usize,
        run: Option<&FaultRun>,
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        let jobs = self.config.jobs.clamp(1, n.max(1));
        let chunk = n.div_ceil(jobs).max(1);
        let shard = |shard_idx: usize| shard_idx * chunk..((shard_idx + 1) * chunk).min(n);
        let depth = self.metrics.histogram("shard.queue_depth");
        let latency = self.metrics.histogram("shard.latency_micros");
        let f = &f;
        let mut out = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n.div_ceil(chunk))
                .map(|shard_idx| {
                    let (depth, latency) = (depth.clone(), latency.clone());
                    scope.spawn(move || {
                        let range = shard(shard_idx);
                        depth.observe(range.len() as u64);
                        let t0 = latency.is_enabled().then(std::time::Instant::now);
                        let crashed = run.is_some_and(|r| {
                            let key = site_key(0x5A, shard_idx as u64);
                            match r.injector.attempt(Site::ShardWorker, key, 0) {
                                Some(FaultKind::Crash) => true,
                                Some(_) => {
                                    r.injector.note_recovered(Site::ShardWorker, 1);
                                    false
                                }
                                None => false,
                            }
                        });
                        let take = if crashed { range.len() / 2 } else { range.len() };
                        let part: Vec<T> = range.take(take).map(f).collect();
                        if let Some(t0) = t0 {
                            latency.observe_duration(t0.elapsed());
                        }
                        part
                    })
                })
                .collect();
            for (shard_idx, handle) in handles.into_iter().enumerate() {
                let range = shard(shard_idx);
                // An injected crash returns a partial shard; a genuine
                // panic returns nothing. Either way the coordinator
                // finishes the slice inline, reproducing exactly what the
                // worker would have computed.
                let done = match handle.join() {
                    Ok(part) => {
                        let done = part.len();
                        out.extend(part);
                        done
                    }
                    Err(_) => 0,
                };
                if done < range.len() {
                    self.metrics.counter("fault.shard_crashes").inc();
                    out.extend(range.skip(done).map(f));
                }
            }
        });
        out
    }

    /// The cache one batch run works against: the engine's persistent
    /// content-addressed cache when caching is enabled, otherwise a fresh
    /// scratch cache private to the call.
    ///
    /// The per-sample pipeline needs the same parse in several stages
    /// (detection, surface classification, repair). With caching enabled
    /// the engine cache absorbs the repeats; with caching disabled each
    /// stage used to re-lex and re-parse the sample from scratch — pure
    /// waste, since within-run reuse carries no state between runs, which
    /// is what `WorkflowConfig::cache = false` actually promises. The
    /// scratch cache is dropped with the call and is unmetered, so the
    /// `cache.*` counters and fault-injection sites still describe the
    /// persistent cache only.
    fn scratch_cache(&self) -> Option<AnalysisCache> {
        (!self.config.cache).then(AnalysisCache::new)
    }

    /// Precomputes the batch's clone-dedup plan when
    /// [`WorkflowConfig::dedup`] is on: shingle and index every sample
    /// (sharded across [`WorkflowConfig::jobs`], byte-deterministic at any
    /// job count), group verified near-duplicates into classes, and mark
    /// every non-representative member for propagation when a token
    /// alignment against its representative exists. The representative of
    /// a class is its lowest submission index. A member whose
    /// [`Site::CloneIndex`] coordinate is faulted drops out of its class
    /// and is analyzed directly — like a faulted cache get, the cost is
    /// recomputation, never a changed result.
    fn dedup_plan(&self, samples: &[Sample], run: Option<&FaultRun>) -> Option<DedupPlan> {
        if !self.config.dedup || samples.len() < 2 {
            return None;
        }
        let span = self.metrics.span("clone.index");
        let clone_config = CloneConfig { jobs: self.config.jobs.max(1), ..CloneConfig::default() };
        let sources: Vec<(u64, &str)> =
            samples.iter().enumerate().map(|(i, s)| (i as u64, s.source.as_str())).collect();
        let index = CloneIndex::build(&sources, clone_config);
        let mut decisions: Vec<DedupDecision> =
            (0..samples.len()).map(|_| DedupDecision::Direct).collect();
        let (mut classes, mut duplicates, mut faulted, mut rejected) = (0u64, 0u64, 0u64, 0u64);
        for class in index.classes() {
            if class.len() < 2 {
                continue;
            }
            classes += 1;
            // Entries are inserted in submission order, so the class's first
            // entry (classes are sorted) is the lowest submission index.
            let rep_idx = index.entries()[class[0] as usize].id as usize;
            // A clone class can hold several alignment cohorts: template
            // cousins verify as clones (normalized shingles) yet differ in
            // literals or token counts, so one fixed representative would
            // strand every variant of the other cousins. Members that align
            // with no earlier anchor become anchors themselves (analyzed
            // directly); later members propagate from the earliest anchor
            // they align with. Purely positional, hence deterministic.
            // Lex each class source once; the anchor scan reuses token
            // streams across alignment attempts instead of re-lexing per
            // (anchor, member) pair.
            let anchor = |idx: usize| {
                let sample = Arc::new(samples[idx].clone());
                let key = AnalysisCache::content_key(&sample.source);
                let tokens = lex_ref(&samples[idx].source).ok();
                (sample, key, tokens)
            };
            let mut anchors = vec![anchor(rep_idx)];
            for &member in &class[1..] {
                let member_idx = index.entries()[member as usize].id as usize;
                duplicates += 1;
                if let Some(run) = run {
                    let key = site_key(member_idx as u64, rep_idx as u64);
                    if run.injector.attempt(Site::CloneIndex, key, 0).is_some() {
                        faulted += 1;
                        continue;
                    }
                }
                let member_tokens = lex_ref(&samples[member_idx].source).ok();
                let aligned = anchors.iter().find_map(|(rep, rep_key, rep_tokens)| {
                    let (rt, mt) = (rep_tokens.as_ref()?, member_tokens.as_ref()?);
                    TokenAlignment::align_tokens(rt, mt).map(|a| (Arc::clone(rep), *rep_key, a))
                });
                match aligned {
                    Some((rep, rep_key, alignment)) => {
                        decisions[member_idx] = DedupDecision::Propagate {
                            rep,
                            rep_key,
                            alignment: Arc::new(alignment),
                        };
                    }
                    None => {
                        rejected += 1;
                        anchors.push(anchor(member_idx));
                    }
                }
            }
        }
        self.metrics.counter("clone.classes").add(classes);
        self.metrics.counter("clone.duplicates").add(duplicates);
        self.metrics.counter("clone.faulted").add(faulted);
        self.metrics.counter("clone.align_rejected").add(rejected);
        span.stop();
        Some(DedupPlan { decisions })
    }

    /// Precomputes the batch's fault context. Quarantine points derive from
    /// the plan over `(detector, submission index)` coordinates, never from
    /// execution order, so every worker count agrees byte-for-byte.
    fn fault_run(&self, n: usize) -> Option<FaultRun> {
        let harness = self.faults.as_ref()?;
        let plan = *harness.injector.plan();
        let max_retries = harness.injector.max_retries();
        let quarantine_at = (0..self.registry.len())
            .map(|d| {
                (0..n as u64)
                    .find(|&i| {
                        plan.exhausts(Site::DetectorCall, site_key(d as u64, i), max_retries)
                    })
                    .unwrap_or(u64::MAX)
            })
            .collect();
        Some(FaultRun { injector: Arc::clone(&harness.injector), quarantine_at })
    }

    /// Stamps run-level degradation facts (quarantined detector names, the
    /// `fault.degraded` gauge) onto a finished report.
    fn finish_report(
        &self,
        mut report: WorkflowReport,
        run: Option<&FaultRun>,
        n: usize,
    ) -> WorkflowReport {
        if let Some(run) = run {
            let names = self.registry.names();
            let mut quarantined: Vec<String> = run
                .quarantine_at
                .iter()
                .enumerate()
                .filter(|&(_, &at)| at < n as u64)
                .map(|(d, _)| names[d].clone())
                .collect();
            quarantined.sort();
            self.metrics.gauge("fault.degraded").set(quarantined.len() as i64);
            report.degradation.quarantined = quarantined;
        }
        report
    }

    /// Stage 1 + threat model: detector verdicts and surface classification
    /// for one sample, with findings merged across detectors in the
    /// deterministic (detector, span, CWE, message) order. `idx` is the
    /// sample's submission index — the fault plan's coordinate; without a
    /// fault run the index is unused and the degradation stays zero.
    fn assess_stage(
        &self,
        sample: &Sample,
        idx: usize,
        run: Option<&FaultRun>,
        cache: &AnalysisCache,
        dedup: Option<&DedupPlan>,
    ) -> Assessed {
        if let DedupDecision::Propagate { rep, rep_key, alignment } =
            DedupPlan::decision(dedup, idx)
        {
            match self.assess_propagated(sample, rep, *rep_key, alignment, idx, run, cache) {
                Some(out) => {
                    self.metrics.counter("clone.propagated").inc();
                    return out;
                }
                // A finding failed to remap (endpoint off a token
                // boundary): analyze this member directly instead.
                None => self.metrics.counter("clone.align_fallback").inc(),
            }
        }
        let span = self.stage_spans.assess.start();
        // One content hash per sample: every cache-aware consumer below
        // (detectors, surface classification) reuses this key instead of
        // re-hashing the source per cache table.
        let content_key = vulnman_lang::AnalysisCache::content_key(&sample.source);
        let detect = self.stage_spans.detect.start();
        let (flagged, assessments, degradation) = match run {
            None => {
                let (flagged, assessments) =
                    self.registry.verdict_cached_keyed(sample, cache, content_key);
                (flagged, assessments, CaseDegradation::default())
            }
            Some(run) => self.assess_resilient(sample, idx, run, content_key, cache),
        };
        detect.stop();
        let surface_span = self.stage_spans.surface.start();
        let surface = self.classify_surface(sample, content_key, cache);
        surface_span.stop();
        let findings = merged_findings(assessments);
        span.stop();
        Assessed { flagged, surface, findings, degradation }
    }

    /// The fault-aware assessment stage: each applicable detector runs
    /// under a bounded retry loop driven by the plan. Quarantined detectors
    /// are skipped outright; a detector that exhausts its budget (or hits a
    /// crash) loses its assessment for this sample, and the verdict is
    /// combined from whatever survived — graceful degradation instead of a
    /// failed run. At rate zero every call succeeds on the first attempt,
    /// making the result byte-identical to the non-fault path.
    fn assess_resilient(
        &self,
        sample: &Sample,
        idx: usize,
        run: &FaultRun,
        content_key: u64,
        cache: &AnalysisCache,
    ) -> (bool, Vec<Assessment>, CaseDegradation) {
        let mut deg = CaseDegradation::default();
        let mut assessments = Vec::new();
        for d in self.registry.applicable_indices(sample) {
            self.assess_detector_resilient(
                d,
                sample,
                idx,
                run,
                content_key,
                cache,
                &mut assessments,
                &mut deg,
            );
        }
        let (flagged, assessments) = self.registry.combine(assessments);
        (flagged, assessments, deg)
    }

    /// One detector's fault-aware assessment: the bounded retry loop of
    /// [`WorkflowEngine::assess_resilient`], factored per detector so the
    /// dedup propagation path can drive non-clone-invariant detectors
    /// through exactly the same degradation machinery.
    #[allow(clippy::too_many_arguments)]
    fn assess_detector_resilient(
        &self,
        d: usize,
        sample: &Sample,
        idx: usize,
        run: &FaultRun,
        content_key: u64,
        cache: &AnalysisCache,
        assessments: &mut Vec<Assessment>,
        deg: &mut CaseDegradation,
    ) {
        let inj = run.injector.as_ref();
        if (idx as u64) > run.quarantine_at[d] {
            // Quarantined earlier in the run: never called again.
            deg.lost += 1;
            return;
        }
        let key = site_key(d as u64, idx as u64);
        let mut produced = false;
        let mut attempts_made = 0u32;
        for attempt in 0..=inj.max_retries() {
            attempts_made = attempt + 1;
            match inj.attempt(Site::DetectorCall, key, attempt) {
                None => {
                    if attempt > 0 {
                        inj.note_recovered(Site::DetectorCall, attempt);
                        deg.recovered += 1;
                    }
                    match self.registry.try_assess_cached_at(d, sample, cache, content_key) {
                        Ok(a) => assessments.push(a),
                        Err(_) => {
                            // The detector ran but its backend failed
                            // (ML predict fault, keyed by sample id).
                            deg.ml_failures += 1;
                            deg.lost += 1;
                        }
                    }
                    produced = true;
                    break;
                }
                Some(kind) => {
                    deg.record(kind);
                    if !kind.is_retryable() {
                        break;
                    }
                }
            }
        }
        deg.retries += u64::from(attempts_made.saturating_sub(1));
        if !produced {
            inj.note_exhausted(Site::DetectorCall);
            deg.exhausted += 1;
            deg.lost += 1;
        }
    }

    /// Assessment + threat-model stages for a clone-class member, reusing
    /// the representative's work: clone-invariant detectors assess the
    /// representative (warm in the shared content-addressed cache after
    /// its own direct pass — no phase ordering required) and their
    /// findings are remapped onto the member through the token alignment
    /// (spans via the token-boundary maps, identifiers in function names,
    /// messages, and evidence via the proven rename). Detectors that are
    /// not clone-invariant (ML reads raw token text and source length)
    /// run directly on the member, under the same fault machinery as the
    /// direct path. The surface classification propagates from the
    /// representative: it is derived from the call graph, which the clone
    /// equivalence preserves up to identifier renaming.
    ///
    /// Returns `None` when any finding fails to remap — before any
    /// member-side detector work happens — so the caller can fall back to
    /// the direct path from a clean slate. At fault rate zero the result
    /// is byte-identical to direct analysis of the member.
    #[allow(clippy::too_many_arguments)]
    fn assess_propagated(
        &self,
        sample: &Sample,
        rep: &Sample,
        rep_key: u64,
        alignment: &TokenAlignment,
        idx: usize,
        run: Option<&FaultRun>,
        cache: &AnalysisCache,
    ) -> Option<Assessed> {
        let applicable = self.registry.applicable_indices(sample);
        // Remap pass first: assess the representative with every
        // applicable clone-invariant detector and remap the findings. A
        // failed remap bails out here, before any member-side work.
        let mut slots: Vec<Option<Assessment>> = Vec::with_capacity(applicable.len());
        for &d in &applicable {
            if self.registry.clone_invariant_at(d) {
                let a = self.registry.assess_cached_keyed_at(d, rep, cache, rep_key);
                slots.push(Some(remap_assessment(a, alignment)?));
            } else {
                slots.push(None);
            }
        }
        let span = self.stage_spans.assess.start();
        let detect = self.stage_spans.detect.start();
        let mut deg = CaseDegradation::default();
        let mut assessments = Vec::with_capacity(applicable.len());
        let member_key = AnalysisCache::content_key(&sample.source);
        for (slot, &d) in slots.into_iter().zip(&applicable) {
            match slot {
                Some(a) => assessments.push(a),
                None => match run {
                    None => assessments
                        .push(self.registry.assess_cached_keyed_at(d, sample, cache, member_key)),
                    Some(run) => self.assess_detector_resilient(
                        d,
                        sample,
                        idx,
                        run,
                        member_key,
                        cache,
                        &mut assessments,
                        &mut deg,
                    ),
                },
            }
        }
        let (flagged, assessments) = self.registry.combine(assessments);
        detect.stop();
        let surface_span = self.stage_spans.surface.start();
        let surface = self.classify_surface(rep, rep_key, cache);
        surface_span.stop();
        let findings = merged_findings(assessments);
        span.stop();
        Some(Assessed { flagged, surface, findings, degradation: deg })
    }

    /// Threat-model stage: surface of the sample's unit (most exposed
    /// function), memoized per unique source content.
    fn classify_surface(
        &self,
        sample: &Sample,
        content_key: u64,
        cache: &AnalysisCache,
    ) -> Surface {
        *cache.analysis_keyed(content_key, "surface", 0, || {
            match cache.parse_keyed(content_key, &sample.source) {
                Ok(program) => {
                    let graph = CallGraph::build(&program);
                    graph
                        .surfaces()
                        .into_values()
                        .min() // ZeroClick < OneClick < Local
                        .unwrap_or(Surface::Local)
                }
                Err(_) => Surface::Local,
            }
        })
    }

    /// Folds per-case results into the aggregate report (labour totals,
    /// repair channel counts, degradation accounting, the traced outcomes)
    /// in submission order. This one fold pins the floating-point
    /// accumulation order (review minutes before repair minutes, case by
    /// case), so every worker count and review budget accumulates
    /// identically.
    fn reduce(work: Vec<CaseWork>) -> WorkflowReport {
        let mut report = WorkflowReport::default();
        for w in work {
            report.analyst_minutes += w.review_minutes;
            report.analyst_minutes += w.repair_minutes;
            report.expert_hours += w.expert_hours;
            report.degradation.absorb(&w.degradation);
            match w.outcome.repaired_via {
                Some(RepairChannel::AutoFix) => report.auto_fixed += 1,
                Some(RepairChannel::AiSuggestion) => report.ai_fixed += 1,
                Some(RepairChannel::Expert) => report.expert_fixed += 1,
                None if w.outcome.truly_vulnerable => report.escaped += 1,
                None => {}
            }
            report.cases.push(w.outcome);
        }
        report
    }
}

/// Merges detector assessments into one finding list, in the
/// deterministic (detector, span, CWE, message) order every assessment path
/// reports.
fn merged_findings(assessments: Vec<Assessment>) -> Vec<Finding> {
    let mut findings: Vec<Finding> = assessments.into_iter().flat_map(|a| a.findings).collect();
    findings.sort_by(|a, b| {
        a.detector
            .cmp(&b.detector)
            .then(a.span.cmp(&b.span))
            .then(a.cwe.id().cmp(&b.cwe.id()))
            .then(a.message.cmp(&b.message))
    });
    findings
}

/// Remaps an assessment produced on a clone representative onto a member
/// through the token alignment. `None` when any finding's span endpoint
/// misses a token boundary — the caller falls back to direct analysis.
fn remap_assessment(a: Assessment, alignment: &TokenAlignment) -> Option<Assessment> {
    let mut findings = Vec::with_capacity(a.findings.len());
    for f in a.findings {
        findings.push(remap_finding(f, alignment)?);
    }
    Some(Assessment { findings, ..a })
}

/// Remaps one finding: the span through the token-boundary maps, the
/// function name through the rename, and the message/evidence text
/// word-by-word (detector messages backtick-quote identifiers, and the
/// alignment proof requires literals to be equal, so word-level renaming
/// is exact).
fn remap_finding(f: Finding, alignment: &TokenAlignment) -> Option<Finding> {
    let span = alignment.map_span(f.span)?;
    Some(Finding {
        cwe: f.cwe,
        function: alignment.map_name(&f.function).to_string(),
        span,
        detector: f.detector,
        message: alignment.rewrite(&f.message),
        confidence: f.confidence,
        evidence: f.evidence.map(|e| Evidence {
            domain: e.domain,
            facts: e
                .facts
                .into_iter()
                .map(|fact| EvidenceFact {
                    var: alignment.map_name(&fact.var).to_string(),
                    value: alignment.rewrite(&fact.value),
                })
                .collect(),
            claim: alignment.rewrite(&e.claim),
        }),
    })
}

/// Repair stage: auto-fix → AI suggestion → expert.
/// Returns `(channel, patched_source, analyst_minutes, expert_hours)`.
fn repair(
    sample: &Sample,
    fixer: &AutoFixer,
    verifier: &RuleEngine,
    config: &WorkflowConfig,
    cache: &AnalysisCache,
) -> (RepairChannel, Option<String>, f64, f64) {
    if let Some(cwe) = sample.cwe {
        if AutoFixer::supports(cwe) {
            // The assess stage already parsed this sample: reuse the cached
            // AST (an Arc clone plus a cheap interned-AST deep copy) instead
            // of re-lexing the source from scratch. Verification scans the
            // patched AST directly, with only the detectors for the fixed
            // class — the clean-check filters to that class anyway — and the
            // patched text is printed only when the fix actually sticks.
            let key = AnalysisCache::content_key(&sample.source);
            let patched = cache
                .parse_keyed(key, &sample.source)
                .ok()
                .and_then(|program| fixer.fix_program((*program).clone(), cwe));
            if let Some(patched) = patched {
                let clean = verifier.scan_cwe(&patched, cwe).iter().all(|f| f.cwe != cwe);
                if clean {
                    let text = vulnman_lang::print_program(&patched);
                    return (RepairChannel::AutoFix, Some(text), 0.0, 0.0);
                }
            }
        }
        // AI suggestion: plausible for the remaining mechanical-ish classes,
        // but costs verification time and is rejected when wrong.
        let suggestion_ok = hash_unit(sample.id.wrapping_mul(31) ^ config.seed) < 0.5;
        if suggestion_ok {
            return (RepairChannel::AiSuggestion, None, config.suggestion_verify_minutes, 0.0);
        }
        return (
            RepairChannel::Expert,
            None,
            config.suggestion_verify_minutes, // time spent rejecting the suggestion
            config.expert_fix_hours,
        );
    }
    (RepairChannel::Expert, None, 0.0, config.expert_fix_hours)
}

/// Maps a u64 to a deterministic uniform in `[0, 1)` (splitmix64 finalizer).
fn hash_unit(mut x: u64) -> f64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{DetectorRegistry, RuleBasedDetector};
    use vulnman_synth::cwe::Cwe;
    use vulnman_synth::dataset::DatasetBuilder;
    use vulnman_synth::generator::SampleGenerator;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::tier::Tier;

    fn engine() -> WorkflowEngine {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        WorkflowEngine::new(registry, WorkflowConfig::default())
    }

    fn corpus() -> Vec<Sample> {
        DatasetBuilder::new(11)
            .vulnerable_count(20)
            .vulnerable_fraction(0.4)
            .build()
            .samples()
            .to_vec()
    }

    #[test]
    fn detected_vulnerabilities_get_repaired() {
        let report = engine().process(&corpus());
        let repaired = report.auto_fixed + report.ai_fixed + report.expert_fixed;
        assert!(repaired > 0);
        assert_eq!(
            repaired + report.escaped,
            report.cases.iter().filter(|c| c.truly_vulnerable).count()
        );
    }

    #[test]
    fn auto_fix_produces_verified_patches() {
        let mut g = SampleGenerator::new(5, StyleProfile::mainstream());
        let (v, _) = g.vulnerable_pair(Cwe::SqlInjection, Tier::Simple, "p");
        let report = engine().process(&[v]);
        assert_eq!(report.auto_fixed, 1);
        let patched = report.cases[0].patched_source.as_ref().expect("patch");
        assert!(patched.contains("escape_sql"));
    }

    #[test]
    fn exposed_surfaces_reviewed_per_figure1() {
        let report = engine().process(&corpus());
        for c in &report.cases {
            if c.surface.requires_manual_review() {
                assert!(c.manually_reviewed, "exposed case {} must be reviewed", c.sample_id);
            }
        }
        assert!(report.review_rate() > 0.0);
        assert!(report.analyst_minutes > 0.0);
    }

    #[test]
    fn detection_metrics_reflect_rule_quality() {
        let report = engine().process(&corpus());
        let m = report.detection_metrics();
        assert!(m.recall() > 0.8, "rules + review should catch most: {:?}", m);
        assert!(m.precision() > 0.8);
    }

    #[test]
    fn unlimited_capacity_matches_plain_processing() {
        let samples = corpus();
        let e = engine();
        let plain = e.process(&samples);
        let capped = e.process_with_capacity(&samples, f64::INFINITY);
        assert_eq!(plain.detection_metrics(), capped.detection_metrics());
        assert_eq!(plain.auto_fixed, capped.auto_fixed);
        assert_eq!(plain.escaped, capped.escaped);
        assert_eq!(capped.reviews_skipped, 0);
    }

    #[test]
    fn unlimited_capacity_serializes_byte_identically_to_process() {
        let samples = big_corpus();
        let e = engine();
        assert_eq!(
            serde_json::to_string(&e.process_with_capacity(&samples, f64::INFINITY)).unwrap(),
            serde_json::to_string(&e.process(&samples)).unwrap()
        );
    }

    #[test]
    fn capacity_reports_are_byte_identical_across_jobs_cache_and_faults() {
        let samples = big_corpus();
        let three_reviews = WorkflowConfig::default().review_minutes * 3.0;
        let budgets = [0.0, three_reviews, f64::INFINITY];
        let reports = |e: &WorkflowEngine| -> Vec<String> {
            budgets
                .iter()
                .map(|&b| serde_json::to_string(&e.process_with_capacity(&samples, b)).unwrap())
                .collect()
        };
        let golden = reports(&engine_with(1, true));
        let faulted_engine = |jobs: usize, cache: bool| {
            let mut registry = DetectorRegistry::new();
            registry.register(Box::new(RuleBasedDetector::standard()));
            WorkflowEngine::with_fault_config(
                registry,
                WorkflowConfig { jobs, cache, ..Default::default() },
                FaultConfig::with_rate(5, 0.05),
            )
        };
        let faulted_golden = reports(&faulted_engine(1, true));
        assert_ne!(golden, faulted_golden, "a 5% plan must perturb the capacity reports");
        for jobs in [1, 2, 4] {
            for cache in [true, false] {
                assert_eq!(reports(&engine_with(jobs, cache)), golden, "jobs={jobs} cache={cache}");
                assert_eq!(
                    reports(&faulted_engine(jobs, cache)),
                    faulted_golden,
                    "5% faults, jobs={jobs} cache={cache}"
                );
            }
        }
    }

    #[test]
    fn tight_capacity_skips_reviews_and_lets_vulns_escape() {
        let samples = corpus();
        let e = engine();
        let full = e.process_with_capacity(&samples, f64::INFINITY);
        let starved = e.process_with_capacity(&samples, 0.0);
        assert!(starved.reviews_skipped > 0);
        assert!(starved.analyst_minutes < full.analyst_minutes);
        // With no reviews, only auto-flagged vulns are repaired.
        assert!(starved.escaped >= full.escaped);
    }

    #[test]
    fn scarce_reviews_go_to_exposed_surfaces_first() {
        let samples = corpus();
        let e = engine();
        // Budget for exactly three reviews.
        let cfg = WorkflowConfig::default();
        let r = e.process_with_capacity(&samples, cfg.review_minutes * 3.0);
        let reviewed: Vec<Surface> =
            r.cases.iter().filter(|c| c.manually_reviewed).map(|c| c.surface).collect();
        let skipped: Vec<Surface> = r
            .cases
            .iter()
            .filter(|c| !c.manually_reviewed && c.surface.requires_manual_review())
            .map(|c| c.surface)
            .collect();
        assert_eq!(reviewed.len(), 3);
        // No skipped candidate outranks a reviewed one.
        for s in &skipped {
            for done in &reviewed {
                assert!(done <= s, "reviewed {done:?} vs skipped {s:?}");
            }
        }
    }

    #[test]
    fn pricing_adds_labour() {
        let report = engine().process(&corpus());
        let params = CostParams::default();
        let priced = report.price(&params);
        let bare = crate::costmodel::price_deployment(&report.detection_metrics(), &params);
        assert!(priced.triage_cost > bare.triage_cost);
    }

    #[test]
    fn deterministic_across_runs() {
        let samples = corpus();
        let a = engine().process(&samples);
        let b = engine().process(&samples);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = engine().process(&[]);
        assert!(report.cases.is_empty());
        assert_eq!(report.review_rate(), 0.0);
    }

    fn engine_with(jobs: usize, cache: bool) -> WorkflowEngine {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        WorkflowEngine::new(registry, WorkflowConfig { jobs, cache, ..Default::default() })
    }

    fn big_corpus() -> Vec<Sample> {
        let mut samples = DatasetBuilder::new(77)
            .vulnerable_count(40)
            .vulnerable_fraction(0.25)
            .duplication_factor(2)
            .build()
            .samples()
            .to_vec();
        // An exact-duplicate slice on top of the near-duplicates: vendored
        // copies share content byte-for-byte, which is what the
        // content-addressed cache exploits.
        let next = samples.iter().map(|s| s.id).max().unwrap_or(0) + 1;
        let copies: Vec<Sample> = samples
            .iter()
            .take(60)
            .cloned()
            .enumerate()
            .map(|(i, mut s)| {
                s.id = next + i as u64;
                s
            })
            .collect();
        samples.extend(copies);
        samples
    }

    fn dedup_engine(jobs: usize, dedup: bool) -> WorkflowEngine {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        registry.register(Box::new(crate::detector::SemanticDetector::standard()));
        WorkflowEngine::new(registry, WorkflowConfig { jobs, dedup, ..Default::default() })
    }

    #[test]
    fn dedup_reports_are_byte_identical_to_direct_analysis() {
        let samples = big_corpus();
        let baseline = serde_json::to_string(&dedup_engine(1, false).process(&samples)).unwrap();
        for jobs in [1, 4] {
            let engine = dedup_engine(jobs, true);
            let report = engine.process(&samples);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                baseline,
                "dedup-on must not change the report (jobs={jobs})"
            );
            assert!(
                engine.metrics().counter("clone.propagated").get() > 0,
                "the duplicate-heavy corpus must actually exercise propagation"
            );
        }
    }

    #[test]
    fn dedup_propagates_alpha_renamed_members_with_remapped_findings() {
        let mut samples = corpus();
        let next = samples.iter().map(|s| s.id).max().unwrap_or(0) + 1;
        let variants: Vec<Sample> = samples
            .iter()
            .take(10)
            .enumerate()
            .filter_map(|(i, s)| {
                vulnman_synth::mutate::alpha_rename(&s.source, 40 + i as u32).map(|src| {
                    let mut v = s.clone();
                    v.id = next + i as u64;
                    v.source = src;
                    v
                })
            })
            .collect();
        assert!(!variants.is_empty());
        samples.extend(variants);
        let direct = serde_json::to_string(&dedup_engine(1, false).process(&samples)).unwrap();
        let engine = dedup_engine(1, true);
        let deduped = engine.process(&samples);
        assert_eq!(serde_json::to_string(&deduped).unwrap(), direct);
        assert!(engine.metrics().counter("clone.classes").get() > 0);
        assert!(engine.metrics().counter("clone.propagated").get() > 0);
    }

    #[test]
    fn zero_rate_fault_engine_with_dedup_is_byte_identical() {
        let samples = big_corpus();
        let baseline = serde_json::to_string(&dedup_engine(1, false).process(&samples)).unwrap();
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        registry.register(Box::new(crate::detector::SemanticDetector::standard()));
        let config = WorkflowConfig { dedup: true, ..Default::default() };
        let engine = WorkflowEngine::with_fault_config(
            registry,
            config,
            FaultConfig { rate: 0.0, ..Default::default() },
        );
        assert_eq!(serde_json::to_string(&engine.process(&samples)).unwrap(), baseline);
    }

    #[test]
    fn sharded_report_is_byte_identical_to_sequential() {
        let samples = big_corpus();
        assert!(samples.len() >= 200, "corpus should be sizable: {}", samples.len());
        let seq = engine_with(1, true).process(&samples);
        for jobs in [2, 3, 4, 7] {
            let par = engine_with(jobs, true).process(&samples);
            assert_eq!(seq, par, "jobs={jobs} must match the sequential report");
            // Byte-identical serialized artifacts, not just structural equality.
            let a = serde_json::to_string(&seq).unwrap();
            let b = serde_json::to_string(&par).unwrap();
            assert_eq!(a, b, "serialized reports must be byte-identical at jobs={jobs}");
        }
    }

    #[test]
    fn sharded_handles_degenerate_shapes() {
        let samples = corpus();
        let e = engine_with(4, true);
        // More jobs than samples, empty input, single sample.
        assert_eq!(engine_with(64, true).process(&samples), engine_with(1, true).process(&samples));
        assert!(e.process(&[]).cases.is_empty());
        let one = &samples[..1];
        assert_eq!(e.process(one), engine_with(1, true).process(one));
    }

    #[test]
    fn caching_does_not_change_results() {
        let samples = big_corpus();
        let cached = engine_with(1, true).process(&samples);
        let uncached = engine_with(1, false).process(&samples);
        assert_eq!(cached, uncached);
    }

    #[test]
    fn duplicated_corpus_hits_the_cache() {
        let samples = big_corpus();
        let e = engine_with(1, true);
        e.process(&samples);
        let stats = e.cache_stats();
        // Every sample is parsed for detection and again for surface
        // classification, and duplicated slices share content, so a large
        // share of lookups must be served from the cache.
        assert!(stats.hits > 0, "expected cache hits: {stats:?}");
        assert!(
            stats.hit_rate() > 0.3,
            "duplication + multi-stage reuse should hit often: {stats:?}"
        );
        // A second scan of the same corpus is answered almost entirely
        // from the cache.
        let before = e.cache_stats();
        e.process(&samples);
        let after = e.cache_stats();
        assert!(after.hits - before.hits > (after.misses - before.misses) * 10);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let e = engine_with(1, false);
        e.process(&corpus());
        assert_eq!(e.cache_stats().hits, 0);
    }

    #[test]
    fn findings_are_ordered_and_attributed() {
        let report = engine_with(1, true).process(&big_corpus());
        let mut saw_findings = false;
        for c in &report.cases {
            saw_findings |= !c.findings.is_empty();
            for pair in c.findings.windows(2) {
                let key = |f: &Finding| (f.detector.clone(), f.span, f.cwe.id(), f.message.clone());
                assert!(key(&pair[0]) <= key(&pair[1]), "findings sorted within case");
            }
            if c.auto_flagged {
                assert!(!c.findings.is_empty(), "flagged case carries its findings");
            }
        }
        assert!(saw_findings, "some cases should have findings");
    }

    #[test]
    fn metrics_capture_stage_spans_and_cache_counters() {
        let samples = corpus();
        let e = engine();
        e.process(&samples);
        let snap = e.metrics_snapshot();
        assert_eq!(snap.counters["workflow.samples"], samples.len() as u64);
        assert_eq!(snap.histograms["span.stage.assess"].count, samples.len() as u64);
        assert_eq!(snap.histograms["span.stage.assess.detect"].count, samples.len() as u64);
        assert!(snap.histograms["span.stage.repair"].count > 0);
        assert_eq!(snap.spans_started, snap.spans_stopped, "spans balanced");
        // cache_stats reads the same registry counters — one source of truth.
        let stats = e.cache_stats();
        assert_eq!(stats.hits, snap.counters["cache.hits"]);
        assert_eq!(stats.misses, snap.counters["cache.misses"]);
        assert!(snap.counters["detector.rule-suite.calls"] >= samples.len() as u64);
    }

    #[test]
    fn metrics_schema_is_path_and_config_independent() {
        let samples = corpus();
        let seq = engine_with(1, true);
        seq.process(&samples);
        let sharded = engine_with(4, true);
        sharded.process(&samples);
        let uncached = engine_with(1, false);
        uncached.process(&samples);
        let schema = seq.metrics_snapshot().schema();
        assert_eq!(schema, sharded.metrics_snapshot().schema());
        assert_eq!(schema, uncached.metrics_snapshot().schema());
        // Every run goes through the shard map — `jobs = 1` is one shard
        // per pass — and populates the pre-registered shard histograms.
        assert!(sharded.metrics_snapshot().histograms["shard.queue_depth"].count > 0);
        assert!(seq.metrics_snapshot().histograms["shard.queue_depth"].count > 0);
    }

    #[test]
    fn noop_recorder_changes_nothing_but_records_nothing() {
        let samples = corpus();
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        let noop =
            WorkflowEngine::with_metrics(registry, WorkflowConfig::default(), Registry::noop());
        let a = noop.process(&samples);
        let b = engine().process(&samples);
        assert_eq!(a, b, "recording must never change results");
        assert!(noop.metrics_snapshot().counters.is_empty());
        assert_eq!(noop.cache_stats(), CacheStats::default());
    }

    #[test]
    fn hash_unit_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(hash_unit).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    use vulnman_faults::{FaultMix, FaultPlan};

    fn fault_engine(jobs: usize, fault_cfg: FaultConfig) -> WorkflowEngine {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        let config = WorkflowConfig { jobs, ..Default::default() };
        WorkflowEngine::with_fault_config(registry, config, fault_cfg)
    }

    #[test]
    fn zero_rate_fault_engine_is_byte_identical_to_plain() {
        let samples = corpus();
        let plain = engine().process(&samples);
        let faulted = fault_engine(1, FaultConfig::with_rate(9, 0.0)).process(&samples);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&faulted).unwrap(),
            "a zero-rate plan must not perturb the report in any byte"
        );
        assert!(!faulted.degradation.is_degraded());
    }

    #[test]
    fn faulted_reports_are_byte_identical_across_jobs() {
        let samples = big_corpus();
        let cfg = FaultConfig::with_rate(42, 0.2);
        let seq = fault_engine(1, cfg).process(&samples);
        assert!(seq.degradation.is_degraded(), "20% faults must degrade something");
        for jobs in [2, 4, 7] {
            let par = fault_engine(jobs, cfg).process(&samples);
            assert_eq!(
                serde_json::to_string(&seq).unwrap(),
                serde_json::to_string(&par).unwrap(),
                "degraded reports must stay byte-identical at jobs={jobs}"
            );
        }
    }

    #[test]
    fn quarantined_detector_is_never_called_after_exhaustion() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting(Arc<AtomicU64>);
        impl crate::detector::Detector for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn assess(&self, _: &Sample) -> Assessment {
                self.0.fetch_add(1, Ordering::Relaxed);
                Assessment {
                    vulnerable: false,
                    score: 0.0,
                    findings: vec![],
                    detector: "counting".into(),
                }
            }
        }
        let calls = Arc::new(AtomicU64::new(0));
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(Counting(Arc::clone(&calls))));
        registry.register(Box::new(RuleBasedDetector::standard()));
        let fault_cfg =
            FaultConfig { seed: 3, rate: 0.5, mix: FaultMix::crash_only(), ..Default::default() };
        let e = WorkflowEngine::with_fault_config(registry, WorkflowConfig::default(), fault_cfg);
        let samples = corpus();
        let report = e.process(&samples);
        // With a crash-only mix, detector 0 exhausts at the first index
        // whose attempt-0 coordinate faults; before that every call is
        // clean, after that it must never run again.
        let plan = FaultPlan::new(&fault_cfg);
        let q = (0..samples.len() as u64)
            .find(|&i| plan.exhausts(Site::DetectorCall, site_key(0, i), fault_cfg.max_retries))
            .expect("50% crash rate must quarantine within the corpus");
        assert_eq!(
            calls.load(Ordering::Relaxed),
            q,
            "the quarantined detector runs exactly once per pre-quarantine sample"
        );
        assert!(report.degradation.quarantined.contains(&"counting".to_string()));
        assert_eq!(e.metrics_snapshot().gauges["fault.degraded"], 2);
    }

    #[test]
    fn crashed_shard_worker_still_yields_a_complete_identical_report() {
        // A crash-heavy plan kills shard workers mid-batch; the coordinator
        // finishes their slices inline and the report comes out complete
        // and byte-identical to the sequential run under the same plan.
        let fault_cfg =
            FaultConfig { seed: 1, rate: 0.9, mix: FaultMix::crash_only(), ..Default::default() };
        let samples = big_corpus();
        let seq = fault_engine(1, fault_cfg).process(&samples);
        let par_engine = fault_engine(4, fault_cfg);
        let par = par_engine.process(&samples);
        assert_eq!(par.cases.len(), samples.len(), "no sample may be dropped");
        assert_eq!(serde_json::to_string(&seq).unwrap(), serde_json::to_string(&par).unwrap());
        let snap = par_engine.metrics_snapshot();
        assert!(
            snap.counters["fault.shard_crashes"] >= 1,
            "a 90% crash rate across 4 shard workers must kill at least one"
        );
    }

    #[test]
    fn fault_metrics_schema_matches_plain_engines() {
        let samples = corpus();
        let plain = engine_with(1, true);
        plain.process(&samples);
        let faulted = fault_engine(1, FaultConfig::with_rate(5, 0.1));
        faulted.process(&samples);
        assert_eq!(
            plain.metrics_snapshot().schema(),
            faulted.metrics_snapshot().schema(),
            "fault instruments are pre-registered for every engine"
        );
    }

    #[test]
    fn semantic_detector_feeds_absint_instruments_and_warm_runs_skip_the_solver() {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(crate::detector::SemanticDetector::standard()));
        let e = WorkflowEngine::new(registry, WorkflowConfig::default());
        let samples = corpus();
        e.process(&samples);
        let cold = e.metrics_snapshot();
        assert!(cold.counters["absint.solver.iterations"] > 0, "cold scans must run the fixpoint");
        e.process(&samples);
        let warm = e.metrics_snapshot();
        assert_eq!(
            warm.counters["absint.solver.iterations"], cold.counters["absint.solver.iterations"],
            "warm cache hits must skip the solver entirely"
        );
    }

    #[test]
    fn checker_call_faults_degrade_without_losing_samples() {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(crate::detector::SemanticDetector::standard()));
        registry.register(Box::new(RuleBasedDetector::standard()));
        let fault_cfg = FaultConfig {
            seed: 7,
            rate: 0.4,
            mix: FaultMix::transient_only(),
            ..Default::default()
        };
        let e = WorkflowEngine::with_fault_config(registry, WorkflowConfig::default(), fault_cfg);
        let samples = corpus();
        let report = e.process(&samples);
        assert_eq!(report.cases.len(), samples.len(), "no sample may be dropped");
        let snap = e.metrics_snapshot();
        assert!(
            snap.counters["fault.injected.checker_call"] > 0,
            "the CheckerCall site must fire under a 40% transient plan"
        );
    }
}
