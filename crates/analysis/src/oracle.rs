//! Differential oracle: static × dynamic × ground-truth disagreement triage.
//!
//! The paper's Gap Observations 1 and 4 are both about *disagreement*:
//! leading models agree on only ~7% of verdicts, and up to 70% of labels in
//! OSS datasets are inaccurate. This module turns that observation into
//! correctness tooling for the platform itself. Every sample is assessed by
//! three fully independent views —
//!
//! 1. the rule-based static suite ([`RuleEngine`]),
//! 2. the sanitizer-instrumented dynamic interpreter ([`DynamicSanitizer`]),
//! 3. the interprocedural taint engine ([`TaintAnalysis`]) mapped through
//!    the shared sink vocabulary ([`sink_kind_to_cwe`]),
//!
//! — and cross-checked against the corpus ground truth. Each per-sample,
//! per-CWE disagreement is classified into a closed taxonomy
//! ([`DisagreementKind`]): a static false positive, a static blind spot, a
//! *documented* dynamic blind spot (the logic classes that cannot fault
//! under single-threaded execution), a label-noise artifact (the recorded
//! label is wrong, by the dataset's own provenance), or an analyzer defect
//! (everything that should never happen: parse failures, a dynamically
//! detectable fault the interpreter missed, a runtime fault in truly clean
//! code, or the taint engine diverging from the static taint-flow detector
//! that wraps the *same* engine).
//!
//! Disagreements that implicate an analyzer can be minimized with a
//! delta-debugging [shrinker](DifferentialOracle::shrink): statements, then
//! whole functions, then sub-expressions are removed greedily, re-checking
//! after every candidate (via the printer↔parser round-trip) that the
//! disagreement signature is preserved *and* that every view which
//! originally reported the CWE still reports it — the evidence-preservation
//! rule that keeps shrinking from collapsing a miss-type disagreement into
//! an empty program. Shrunk reproducers are persisted into the golden
//! corpus under `tests/golden_oracle/` (see [`GoldenCase`]) so every triaged
//! disagreement becomes a permanent regression test.
//!
//! The whole pass is deterministic: per-sample assessment is pure and the
//! corpus fans out through [`vulnman_lang::par::map`], so reports are
//! byte-identical across `--jobs` settings.

use crate::detectors::{sink_kind_to_cwe, RuleEngine, StaticDetector};
use crate::dynamic::{dynamically_detectable, DynamicSanitizer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use vulnman_lang::ast::{Expr, ExprKind, LValue, Program, Stmt, StmtKind};
use vulnman_lang::clone::{CloneConfig, CloneIndex};
use vulnman_lang::printer::print_program;
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::cwe::Cwe;
use vulnman_synth::sample::Sample;

// ---------------------------------------------------------------------------
// Taxonomy
// ---------------------------------------------------------------------------

/// One of the independent views the oracle cross-checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum View {
    /// The rule-based static suite ([`RuleEngine`]).
    StaticRules,
    /// The sanitizer-instrumented dynamic interpreter ([`DynamicSanitizer`]).
    Dynamic,
    /// The interprocedural taint engine, mapped through the shared sink
    /// vocabulary. A divergence here is always a defect, because the static
    /// taint-flow detector wraps the same engine and configuration.
    TaintEngine,
    /// The label recorded in the dataset (which label noise can corrupt).
    RecordedLabel,
    /// The abstract-interpretation checker suite
    /// ([`SemanticEngine`](crate::checkers::SemanticEngine)). A must-style
    /// prover: silence is expected over-approximation, never a defect.
    Absint,
    /// The clone-class cross-check: verified near-duplicate samples
    /// (MinHash/LSH candidates confirmed by exact Jaccard — see
    /// [`vulnman_lang::clone`]) whose per-view verdicts disagree. Not a
    /// per-source verdict — a corpus-level view over clone classes,
    /// populated by [`DifferentialOracle::run_with_clones`].
    CloneClass,
}

impl View {
    /// Stable kebab-case label used in reports and golden manifests.
    pub fn label(&self) -> &'static str {
        match self {
            View::StaticRules => "static-rules",
            View::Dynamic => "dynamic",
            View::TaintEngine => "taint-engine",
            View::RecordedLabel => "recorded-label",
            View::Absint => "absint",
            View::CloneClass => "clones",
        }
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of one per-sample, per-CWE disagreement.
///
/// The taxonomy is closed: every disagreement the oracle finds carries
/// exactly one of these kinds, so the report always accounts for 100% of
/// the cross-view deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DisagreementKind {
    /// A static rule fired on a class the ground truth says is absent.
    /// Expected at some rate — static analysis over-approximates.
    StaticFalsePositive,
    /// Ground truth plants a class no static rule detects. Expected for
    /// patterns outside the rule set's reach.
    StaticBlindSpot,
    /// Ground truth plants a logic class that cannot fault under
    /// single-threaded execution (hard-coded credentials, TOCTOU races) —
    /// the dynamic sanitizer's *documented* blind spots, per `dynamic.rs`.
    DynamicBlindSpot,
    /// The recorded dataset label disagrees with the actual ground truth —
    /// explained entirely by the dataset's injected label noise
    /// (Gap Observation 4), not by any analyzer.
    LabelNoiseArtifact,
    /// A contradiction no documented limitation explains: a parse failure,
    /// a dynamically detectable fault the interpreter missed, a runtime
    /// fault observed in truly clean code, or the taint engine diverging
    /// from the static taint-flow detector. These are bugs; CI holds their
    /// count at or below the checked-in baseline.
    AnalyzerDefect,
    /// Ground truth plants a class inside the semantic suite's coverage,
    /// but the abstract-interpretation checkers prove nothing. Expected at
    /// some rate — the checkers are must-style and abstraction loses
    /// precision (e.g. a widened loop index). The detail records whether
    /// the rule suite caught it, making rule-vs-semantic gaps auditable.
    SemanticBlindSpot,
    /// The semantic checkers claim a proof of a class the ground truth says
    /// is absent. For a must-style prover this signals an unsound transfer
    /// function or refinement; tracked separately from
    /// [`DisagreementKind::AnalyzerDefect`] so the precision regression can
    /// be baselined on its own.
    SemanticFalsePositive,
    /// A view reports a class on some members of a verified clone class
    /// but not on others. Near-identical code with divergent verdicts is
    /// the paper's duplication pathology viewed from the analyzer side:
    /// either the corpus carries a vulnerable/fixed near-duplicate pair
    /// (a data-quality fact worth surfacing) or an analysis is unstable
    /// under renaming/layout — both warrant triage, neither is counted
    /// against the analyzer-defect baseline.
    CloneInconsistency,
}

impl DisagreementKind {
    /// Every kind, in report order.
    pub const ALL: [DisagreementKind; 8] = [
        DisagreementKind::StaticFalsePositive,
        DisagreementKind::StaticBlindSpot,
        DisagreementKind::DynamicBlindSpot,
        DisagreementKind::LabelNoiseArtifact,
        DisagreementKind::AnalyzerDefect,
        DisagreementKind::SemanticBlindSpot,
        DisagreementKind::SemanticFalsePositive,
        DisagreementKind::CloneInconsistency,
    ];

    /// Stable kebab-case label used in reports, metrics, and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            DisagreementKind::StaticFalsePositive => "static-false-positive",
            DisagreementKind::StaticBlindSpot => "static-blind-spot",
            DisagreementKind::DynamicBlindSpot => "dynamic-blind-spot",
            DisagreementKind::LabelNoiseArtifact => "label-noise-artifact",
            DisagreementKind::AnalyzerDefect => "analyzer-defect",
            DisagreementKind::SemanticBlindSpot => "semantic-blind-spot",
            DisagreementKind::SemanticFalsePositive => "semantic-false-positive",
            DisagreementKind::CloneInconsistency => "clone-inconsistency",
        }
    }
}

impl fmt::Display for DisagreementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One classified disagreement between a view and the ground truth (or
/// between two views).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Disagreement {
    /// Corpus id of the disagreeing sample (0 for ad-hoc sources).
    pub sample_id: u64,
    /// The CWE class in contention. `None` only for parse-failure defects,
    /// where no per-class verdict exists.
    pub cwe: Option<Cwe>,
    /// The view implicated by the disagreement.
    pub view: View,
    /// Taxonomy classification.
    pub kind: DisagreementKind,
    /// Human-readable explanation.
    pub detail: String,
}

impl Disagreement {
    /// The `(cwe, view, kind)` signature the shrinker must preserve.
    fn signature(&self) -> (Option<Cwe>, View, DisagreementKind) {
        (self.cwe, self.view, self.kind)
    }
}

/// Per-kind disagreement totals.
///
/// A named-field struct (not a map keyed by [`DisagreementKind`]) so the
/// serialized schema is fixed and every count appears even when zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaxonomyCounts {
    /// [`DisagreementKind::StaticFalsePositive`] count.
    pub static_false_positive: usize,
    /// [`DisagreementKind::StaticBlindSpot`] count.
    pub static_blind_spot: usize,
    /// [`DisagreementKind::DynamicBlindSpot`] count.
    pub dynamic_blind_spot: usize,
    /// [`DisagreementKind::LabelNoiseArtifact`] count.
    pub label_noise_artifact: usize,
    /// [`DisagreementKind::AnalyzerDefect`] count.
    pub analyzer_defect: usize,
    /// [`DisagreementKind::SemanticBlindSpot`] count.
    pub semantic_blind_spot: usize,
    /// [`DisagreementKind::SemanticFalsePositive`] count.
    pub semantic_false_positive: usize,
    /// [`DisagreementKind::CloneInconsistency`] count.
    pub clone_inconsistency: usize,
}

impl TaxonomyCounts {
    /// Increments the counter for `kind`.
    pub fn record(&mut self, kind: DisagreementKind) {
        match kind {
            DisagreementKind::StaticFalsePositive => self.static_false_positive += 1,
            DisagreementKind::StaticBlindSpot => self.static_blind_spot += 1,
            DisagreementKind::DynamicBlindSpot => self.dynamic_blind_spot += 1,
            DisagreementKind::LabelNoiseArtifact => self.label_noise_artifact += 1,
            DisagreementKind::AnalyzerDefect => self.analyzer_defect += 1,
            DisagreementKind::SemanticBlindSpot => self.semantic_blind_spot += 1,
            DisagreementKind::SemanticFalsePositive => self.semantic_false_positive += 1,
            DisagreementKind::CloneInconsistency => self.clone_inconsistency += 1,
        }
    }

    /// The count for `kind`.
    pub fn count(&self, kind: DisagreementKind) -> usize {
        match kind {
            DisagreementKind::StaticFalsePositive => self.static_false_positive,
            DisagreementKind::StaticBlindSpot => self.static_blind_spot,
            DisagreementKind::DynamicBlindSpot => self.dynamic_blind_spot,
            DisagreementKind::LabelNoiseArtifact => self.label_noise_artifact,
            DisagreementKind::AnalyzerDefect => self.analyzer_defect,
            DisagreementKind::SemanticBlindSpot => self.semantic_blind_spot,
            DisagreementKind::SemanticFalsePositive => self.semantic_false_positive,
            DisagreementKind::CloneInconsistency => self.clone_inconsistency,
        }
    }

    /// Sum across all kinds.
    pub fn total(&self) -> usize {
        DisagreementKind::ALL.iter().map(|k| self.count(*k)).sum()
    }
}

/// The full, deterministic result of an oracle pass over a corpus.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleReport {
    /// Samples assessed.
    pub samples: usize,
    /// Samples on which all views and the ground truth fully agree.
    pub agreed: usize,
    /// Per-kind disagreement totals.
    pub taxonomy: TaxonomyCounts,
    /// Every disagreement, in corpus order (then classification order
    /// within a sample). Identical across `jobs` settings.
    pub disagreements: Vec<Disagreement>,
}

impl OracleReport {
    /// Number of [`DisagreementKind::AnalyzerDefect`] entries — the figure
    /// CI diffs against the committed baseline.
    pub fn analyzer_defects(&self) -> usize {
        self.taxonomy.analyzer_defect
    }

    /// Plain-text taxonomy summary for the CLI.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str("differential oracle\n");
        out.push_str(&format!("  {:<24} {}\n", "samples", self.samples));
        out.push_str(&format!("  {:<24} {}\n", "agreed", self.agreed));
        out.push_str(&format!("  {:<24} {}\n", "disagreements", self.disagreements.len()));
        for kind in DisagreementKind::ALL {
            out.push_str(&format!("    {:<22} {}\n", kind.label(), self.taxonomy.count(kind)));
        }
        out
    }
}

/// One shrunk reproducer in the golden disagreement corpus
/// (`tests/golden_oracle/manifest.json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenCase {
    /// Reproducer source file, relative to the manifest.
    pub file: String,
    /// Corpus id of the original sample.
    pub sample_id: u64,
    /// The CWE class in contention.
    pub cwe: Option<Cwe>,
    /// The implicated view.
    pub view: View,
    /// Taxonomy classification that must reproduce.
    pub kind: DisagreementKind,
    /// Ground-truth class of the original sample (`None` = clean).
    pub truth: Option<Cwe>,
    /// Whether the original sample's recorded label was noise-corrupted.
    pub mislabeled: bool,
    /// Explanation carried over from the original disagreement.
    pub detail: String,
}

/// The golden corpus manifest: every entry re-checked by the regression
/// test `tests/golden_oracle.rs`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenManifest {
    /// All committed reproducers.
    pub cases: Vec<GoldenCase>,
}

/// The checked-in defect ceiling CI diffs a fresh oracle run against
/// (`tests/golden_oracle/baseline.json`). The count is tied to the smoke
/// corpus parameters recorded alongside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectBaseline {
    /// Maximum tolerated [`DisagreementKind::AnalyzerDefect`] count.
    pub analyzer_defects: usize,
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// Execution knobs for [`DifferentialOracle::run`].
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Worker threads for the corpus pass. Reports are byte-identical for
    /// any value.
    pub jobs: usize,
    /// Whether to share a content-addressed [`AnalysisCache`] across views
    /// and shards (identical results either way).
    pub cache: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { jobs: 1, cache: true }
    }
}

/// Pre-registers every `oracle.*` instrument so the exported metrics schema
/// does not depend on which disagreement kinds a particular corpus happens
/// to produce (the same schema-stability pattern as the engine's `fault.*`
/// instruments).
fn register_oracle_instruments(metrics: &Registry) {
    metrics.counter("oracle.samples");
    metrics.counter("oracle.agreed");
    metrics.counter("oracle.disagreements");
    for kind in DisagreementKind::ALL {
        metrics.counter(&format!("oracle.kind.{}", kind.label().replace('-', "_")));
    }
    metrics.counter("oracle.shrunk");
    metrics.histogram("oracle.shrink_steps");
    metrics.histogram("oracle.shrink_attempts");
    metrics.histogram("span.oracle.run");
    metrics.histogram("span.oracle.clone_view");
}

/// Internal per-source verdicts of every view.
#[derive(Debug, Default)]
struct Verdicts {
    /// Set when the source does not parse (all views are then undefined).
    parse_error: Option<String>,
    /// Classes flagged by the full static suite.
    statics: BTreeSet<Cwe>,
    /// Subset of `statics` produced by the taint-flow detector.
    static_taint: BTreeSet<Cwe>,
    /// Classes whose faults the dynamic sanitizer observed.
    dynamics: BTreeSet<Cwe>,
    /// Classes the interprocedural taint engine reports directly.
    taint: BTreeSet<Cwe>,
    /// Classes the abstract-interpretation checker suite proves.
    absints: BTreeSet<Cwe>,
}

impl Verdicts {
    /// Whether `view` reports `cwe` (the recorded label is not a source
    /// verdict and always reads as negative here).
    fn positive(&self, view: View, cwe: Cwe) -> bool {
        match view {
            View::StaticRules => self.statics.contains(&cwe),
            View::Dynamic => self.dynamics.contains(&cwe),
            View::TaintEngine => self.taint.contains(&cwe),
            View::RecordedLabel => false,
            View::Absint => self.absints.contains(&cwe),
            // Not a per-source verdict: clone consistency is a corpus-level
            // property over classes, never evidence on one source.
            View::CloneClass => false,
        }
    }

    /// The verdict set of one evidence view, for cross-member comparison.
    fn view_set(&self, view: View) -> Option<&BTreeSet<Cwe>> {
        match view {
            View::StaticRules => Some(&self.statics),
            View::Dynamic => Some(&self.dynamics),
            View::TaintEngine => Some(&self.taint),
            View::Absint => Some(&self.absints),
            View::RecordedLabel | View::CloneClass => None,
        }
    }
}

/// Result of shrinking one disagreeing sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShrinkOutcome {
    /// Minimized source, printed in canonical form.
    pub source: String,
    /// Accepted reduction steps.
    pub steps: usize,
    /// Candidate reductions tried (accepted + rejected).
    pub attempts: usize,
}

/// Cap on candidate reductions per shrink, so pathological samples cannot
/// stall a triage run. Greedy shrinking of the synthetic corpus's samples
/// converges far below this.
const MAX_SHRINK_ATTEMPTS: usize = 1024;

/// Cross-checks the static suite, the dynamic sanitizer, the taint engine,
/// and ground truth over a corpus, classifying every disagreement.
pub struct DifferentialOracle {
    statics: RuleEngine,
    dynamic: DynamicSanitizer,
    taint: TaintConfig,
    semantics: crate::checkers::SemanticEngine,
    cache: AnalysisCache,
    config: OracleConfig,
    metrics: Registry,
}

impl std::fmt::Debug for DifferentialOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DifferentialOracle").field("config", &self.config).finish()
    }
}

impl Default for DifferentialOracle {
    fn default() -> Self {
        DifferentialOracle::new()
    }
}

impl DifferentialOracle {
    /// Default suite, default config, private metrics registry.
    pub fn new() -> Self {
        DifferentialOracle::with_metrics(OracleConfig::default(), &Registry::new())
    }

    /// Default suite with execution knobs.
    pub fn with_config(config: OracleConfig) -> Self {
        DifferentialOracle::with_metrics(config, &Registry::new())
    }

    /// Default suite reporting through `metrics` under pre-registered
    /// `oracle.*` (and `cache.*`) instrument names.
    pub fn with_metrics(config: OracleConfig, metrics: &Registry) -> Self {
        register_oracle_instruments(metrics);
        let cache = if config.cache {
            AnalysisCache::with_metrics(metrics)
        } else {
            AnalysisCache::disabled_with_metrics(metrics)
        };
        DifferentialOracle {
            statics: RuleEngine::default_suite(),
            dynamic: DynamicSanitizer::new(),
            taint: TaintConfig::default_config(),
            semantics: crate::checkers::SemanticEngine::new(),
            cache,
            config,
            metrics: metrics.clone(),
        }
    }

    /// Runs all views over `source` through `cache`, hashing the source
    /// once for all five memoized views.
    fn verdicts(&self, source: &str, cache: &AnalysisCache) -> Verdicts {
        let key = AnalysisCache::content_key(source);
        let program = match cache.parse_keyed(key, source) {
            Ok(p) => p,
            Err(e) => return Verdicts { parse_error: Some(e.to_string()), ..Verdicts::default() },
        };
        let findings = self.statics.scan_program_cached(key, &program, cache);
        let statics = findings.iter().map(|f| f.cwe).collect();
        let static_taint =
            findings.iter().filter(|f| f.detector == "taint-flow").map(|f| f.cwe).collect();
        let dynamics = cache.analysis_keyed(key, "oracle-dynamic", 0, || {
            self.dynamic.scan(&program).iter().map(|f| f.cwe).collect::<BTreeSet<Cwe>>()
        });
        let taint = cache.analysis_keyed(key, "oracle-taint", 0, || {
            TaintAnalysis::run(&program, &self.taint)
                .findings
                .iter()
                .filter_map(|f| sink_kind_to_cwe(&f.sink_kind))
                .collect::<BTreeSet<Cwe>>()
        });
        // The oracle's own registry stays free of `absint.*` telemetry.
        let semantic_findings =
            self.semantics.scan_program_cached(key, &program, cache, &Registry::noop());
        let absints = semantic_findings.iter().map(|f| f.cwe).collect();
        Verdicts {
            parse_error: None,
            statics,
            static_taint,
            dynamics: (*dynamics).clone(),
            taint: (*taint).clone(),
            absints,
        }
    }

    /// Classifies every disagreement for one source against `truth`
    /// (`Some(c)` = the sample genuinely contains class `c`, `None` =
    /// genuinely clean) using the oracle's shared cache. `mislabeled` is
    /// the dataset's own noise provenance (see `Dataset::mislabeled_ids`).
    pub fn classify_source(
        &self,
        source: &str,
        truth: Option<Cwe>,
        mislabeled: bool,
    ) -> Vec<Disagreement> {
        self.classify(0, source, truth, mislabeled, &self.cache)
    }

    /// [`DifferentialOracle::classify_source`] with the sample's own id,
    /// ground truth, and noise provenance.
    pub fn classify_sample(&self, sample: &Sample) -> Vec<Disagreement> {
        self.classify_sample_in(sample, &self.cache)
    }

    /// [`DifferentialOracle::classify_sample`] through a caller-owned
    /// `cache` instead of the oracle's own, so a long-lived host (the serve
    /// layer) keeps every view under its single bounded cache. The result
    /// is identical for any cache.
    pub fn classify_sample_in(&self, sample: &Sample, cache: &AnalysisCache) -> Vec<Disagreement> {
        let truth = if sample.label { sample.cwe } else { None };
        self.classify(sample.id, &sample.source, truth, sample.is_mislabeled(), cache)
    }

    fn classify(
        &self,
        sample_id: u64,
        source: &str,
        truth: Option<Cwe>,
        mislabeled: bool,
        cache: &AnalysisCache,
    ) -> Vec<Disagreement> {
        let v = self.verdicts(source, cache);
        let mut out = Vec::new();
        if let Some(err) = &v.parse_error {
            // No view can assess an unparseable unit; the whole sample is
            // one defect (the corpus generator only emits valid mini-C, so
            // a parse failure is a parser or generator bug by definition).
            out.push(Disagreement {
                sample_id,
                cwe: None,
                view: View::StaticRules,
                kind: DisagreementKind::AnalyzerDefect,
                detail: format!("sample does not parse: {err}"),
            });
            if mislabeled {
                out.push(Self::noise_artifact(sample_id, truth));
            }
            return out;
        }
        let mut scope: BTreeSet<Cwe> = BTreeSet::new();
        scope.extend(&v.statics);
        scope.extend(&v.dynamics);
        scope.extend(&v.taint);
        scope.extend(&v.absints);
        scope.extend(truth);
        let semantic_coverage = self.semantics.cwes();
        for cwe in scope {
            let planted = truth == Some(cwe);
            if planted {
                if !v.statics.contains(&cwe) {
                    out.push(Disagreement {
                        sample_id,
                        cwe: Some(cwe),
                        view: View::StaticRules,
                        kind: DisagreementKind::StaticBlindSpot,
                        detail: format!("ground truth plants {cwe} but no static rule fires"),
                    });
                }
                if !v.dynamics.contains(&cwe) {
                    if dynamically_detectable(cwe) {
                        out.push(Disagreement {
                            sample_id,
                            cwe: Some(cwe),
                            view: View::Dynamic,
                            kind: DisagreementKind::AnalyzerDefect,
                            detail: format!(
                                "{cwe} is dynamically detectable but no runtime fault was \
                                 observed"
                            ),
                        });
                    } else {
                        out.push(Disagreement {
                            sample_id,
                            cwe: Some(cwe),
                            view: View::Dynamic,
                            kind: DisagreementKind::DynamicBlindSpot,
                            detail: format!(
                                "{cwe} is a logic class that cannot fault under \
                                 single-threaded execution"
                            ),
                        });
                    }
                }
            } else {
                if v.statics.contains(&cwe) {
                    out.push(Disagreement {
                        sample_id,
                        cwe: Some(cwe),
                        view: View::StaticRules,
                        kind: DisagreementKind::StaticFalsePositive,
                        detail: format!(
                            "static rules flag {cwe} but ground truth is clean for this class"
                        ),
                    });
                }
                if v.dynamics.contains(&cwe) {
                    out.push(Disagreement {
                        sample_id,
                        cwe: Some(cwe),
                        view: View::Dynamic,
                        kind: DisagreementKind::AnalyzerDefect,
                        detail: format!(
                            "runtime fault observed for {cwe} in a sample whose ground truth \
                             is clean for this class"
                        ),
                    });
                }
            }
            // Rule-vs-semantic cross-check. The semantic suite is a
            // must-style prover, so a miss inside its coverage is an
            // expected precision gap (never a defect) and a hit on a
            // clean class questions its soundness; both details record
            // the rule suite's verdict so the gap between syntax and
            // semantics stays auditable per sample.
            if planted && semantic_coverage.contains(&cwe) && !v.absints.contains(&cwe) {
                out.push(Disagreement {
                    sample_id,
                    cwe: Some(cwe),
                    view: View::Absint,
                    kind: DisagreementKind::SemanticBlindSpot,
                    detail: format!(
                        "ground truth plants {cwe} but the semantic checkers prove nothing \
                         (static rules {})",
                        if v.statics.contains(&cwe) { "catch it" } else { "miss it too" }
                    ),
                });
            }
            if !planted && v.absints.contains(&cwe) {
                out.push(Disagreement {
                    sample_id,
                    cwe: Some(cwe),
                    view: View::Absint,
                    kind: DisagreementKind::SemanticFalsePositive,
                    detail: format!(
                        "semantic checkers claim a proof of {cwe} but ground truth is clean \
                         for this class (static rules {})",
                        if v.statics.contains(&cwe) {
                            "agree with the claim"
                        } else {
                            "stay silent"
                        }
                    ),
                });
            }
            // The static taint-flow detector wraps the same engine and
            // configuration as the direct taint view, so any divergence
            // between them is a defect regardless of ground truth.
            if v.taint.contains(&cwe) != v.static_taint.contains(&cwe) {
                out.push(Disagreement {
                    sample_id,
                    cwe: Some(cwe),
                    view: View::TaintEngine,
                    kind: DisagreementKind::AnalyzerDefect,
                    detail: format!(
                        "taint engine and static taint-flow detector diverge on {cwe} despite \
                         sharing engine and configuration"
                    ),
                });
            }
        }
        if mislabeled {
            out.push(Self::noise_artifact(sample_id, truth));
        }
        out
    }

    fn noise_artifact(sample_id: u64, truth: Option<Cwe>) -> Disagreement {
        let detail = match truth {
            Some(cwe) => format!(
                "recorded label says clean but the sample genuinely contains {cwe} \
                 (injected label noise)"
            ),
            None => "recorded label says vulnerable but the sample is genuinely clean \
                     (injected label noise)"
                .to_string(),
        };
        Disagreement {
            sample_id,
            cwe: truth,
            view: View::RecordedLabel,
            kind: DisagreementKind::LabelNoiseArtifact,
            detail,
        }
    }

    /// Assesses every sample, preserving corpus order regardless of `jobs`.
    fn assess_all(&self, samples: &[Sample]) -> Vec<Vec<Disagreement>> {
        vulnman_lang::par::map(samples.len(), self.config.jobs, |i| {
            self.classify_sample(&samples[i])
        })
    }

    /// Runs the full differential pass over a corpus.
    ///
    /// Deterministic: the report is byte-identical across `jobs` and cache
    /// settings for a fixed corpus.
    pub fn run(&self, samples: &[Sample]) -> OracleReport {
        let span = self.metrics.span("oracle.run");
        let per_sample = self.assess_all(samples);
        let mut taxonomy = TaxonomyCounts::default();
        let mut disagreements = Vec::new();
        let mut agreed = 0usize;
        for sample_result in per_sample {
            if sample_result.is_empty() {
                agreed += 1;
            }
            for d in sample_result {
                taxonomy.record(d.kind);
                disagreements.push(d);
            }
        }
        self.metrics.counter("oracle.samples").add(samples.len() as u64);
        self.metrics.counter("oracle.agreed").add(agreed as u64);
        self.metrics.counter("oracle.disagreements").add(disagreements.len() as u64);
        for kind in DisagreementKind::ALL {
            self.metrics
                .counter(&format!("oracle.kind.{}", kind.label().replace('-', "_")))
                .add(taxonomy.count(kind) as u64);
        }
        drop(span);
        OracleReport { samples: samples.len(), agreed, taxonomy, disagreements }
    }

    /// [`DifferentialOracle::run`] plus the sixth, corpus-level `clones`
    /// view: verified near-duplicate clone classes whose members get
    /// *different* verdicts from the same evidence view. A view that flags a
    /// CWE on one member of a clone class but stays silent on an
    /// alpha-renamed near-clone is sensitive to surface spelling rather than
    /// structure — a robustness defect no per-sample cross-check can see.
    ///
    /// Clone inconsistencies are appended after the per-sample
    /// disagreements; `agreed` keeps its per-sample meaning (class-level
    /// observations don't demote a sample from "all views agreed").
    /// Deterministic: classes in submission order, views and CWEs in fixed
    /// order.
    pub fn run_with_clones(&self, samples: &[Sample]) -> OracleReport {
        let mut report = self.run(samples);
        let clones = self.clone_view(samples);
        self.metrics.counter("oracle.disagreements").add(clones.len() as u64);
        self.metrics.counter("oracle.kind.clone_inconsistency").add(clones.len() as u64);
        for d in clones {
            report.taxonomy.record(d.kind);
            report.disagreements.push(d);
        }
        report
    }

    /// The clone-class cross-check behind
    /// [`DifferentialOracle::run_with_clones`]: one [`Disagreement`] per
    /// `(class, view, CWE)` where members of a verified clone class split
    /// positive/negative.
    fn clone_view(&self, samples: &[Sample]) -> Vec<Disagreement> {
        let span = self.metrics.span("oracle.clone_view");
        let sources: Vec<(u64, &str)> =
            samples.iter().enumerate().map(|(i, s)| (i as u64, s.source.as_str())).collect();
        let index = CloneIndex::build(&sources, CloneConfig::default());
        let mut out = Vec::new();
        for class in index.classes() {
            if class.len() < 2 {
                continue;
            }
            let members: Vec<&Sample> =
                class.iter().map(|&e| &samples[index.entries()[e as usize].id as usize]).collect();
            // Parse failures have no view verdicts to compare; they are
            // already surfaced per-sample as analyzer defects.
            let verdicts: Vec<(&Sample, Verdicts)> = members
                .iter()
                .map(|s| (*s, self.verdicts(&s.source, &self.cache)))
                .filter(|(_, v)| v.parse_error.is_none())
                .collect();
            if verdicts.len() < 2 {
                continue;
            }
            for view in [View::StaticRules, View::Dynamic, View::TaintEngine, View::Absint] {
                let union: BTreeSet<Cwe> = verdicts
                    .iter()
                    .flat_map(|(_, v)| v.view_set(view).into_iter().flatten().copied())
                    .collect();
                for cwe in union {
                    let (mut hits, mut misses) = (Vec::new(), Vec::new());
                    for (s, v) in &verdicts {
                        if v.view_set(view).is_some_and(|set| set.contains(&cwe)) {
                            hits.push(s.id);
                        } else {
                            misses.push(s.id);
                        }
                    }
                    if hits.is_empty() || misses.is_empty() {
                        continue;
                    }
                    out.push(Disagreement {
                        sample_id: verdicts[0].0.id,
                        cwe: Some(cwe),
                        view: View::CloneClass,
                        kind: DisagreementKind::CloneInconsistency,
                        detail: format!(
                            "{} reports {:?} on clone-class members {:?} but not on \
                             near-clones {:?}; verdicts within a verified clone class \
                             should agree",
                            view.label(),
                            cwe,
                            hits,
                            misses
                        ),
                    });
                }
            }
        }
        drop(span);
        out
    }

    // -----------------------------------------------------------------------
    // Shrinker
    // -----------------------------------------------------------------------

    /// Delta-debugs `source` down to a minimal reproducer of `d`.
    ///
    /// Greedily removes statements (innermost-first within each sweep),
    /// then whole functions, then simplifies sub-expressions (binary →
    /// left operand, unary/index/call → inner operand), re-validating every
    /// candidate through the printer↔parser round-trip. A candidate is
    /// accepted only if
    ///
    /// 1. it still parses,
    /// 2. re-classification (same truth and noise provenance) still yields
    ///    a disagreement with `d`'s `(cwe, view, kind)` signature, and
    /// 3. every view that reported the CWE on the original source still
    ///    reports it — the *evidence-preservation* rule. Without it, a
    ///    miss-type disagreement (e.g. a blind spot, where the interesting
    ///    behavior is a view staying silent) would shrink to a trivial
    ///    empty program.
    ///
    /// Returns `None` when the disagreement has no shrinkable evidence: the
    /// source does not parse, the disagreement is a label-noise artifact
    /// (nothing in the source encodes the recorded label), or no view
    /// reports the CWE at all (truth is an external annotation, so the
    /// predicate would be vacuous).
    pub fn shrink(
        &self,
        source: &str,
        d: &Disagreement,
        truth: Option<Cwe>,
        mislabeled: bool,
    ) -> Option<ShrinkOutcome> {
        let cwe = d.cwe?;
        if d.kind == DisagreementKind::LabelNoiseArtifact
            || d.kind == DisagreementKind::CloneInconsistency
            || d.view == View::RecordedLabel
            || d.view == View::CloneClass
        {
            // Label-noise artifacts and clone inconsistencies are corpus-level
            // observations; no single source encodes the evidence.
            return None;
        }
        // Candidates are one-shot sources; memoizing them would only grow
        // the main cache, so shrinking runs against a pass-through cache.
        let scratch = AnalysisCache::disabled_with_metrics(&Registry::noop());
        let original = self.verdicts(source, &scratch);
        if original.parse_error.is_some() {
            return None;
        }
        let evidence: Vec<View> =
            [View::StaticRules, View::Dynamic, View::TaintEngine, View::Absint]
                .into_iter()
                .filter(|view| original.positive(*view, cwe))
                .collect();
        if evidence.is_empty() {
            return None;
        }
        let signature = d.signature();
        let holds = |candidate: &str| -> bool {
            let v = self.verdicts(candidate, &scratch);
            if v.parse_error.is_some() {
                return false;
            }
            if !evidence.iter().all(|view| v.positive(*view, cwe)) {
                return false;
            }
            self.classify(d.sample_id, candidate, truth, mislabeled, &scratch)
                .iter()
                .any(|c| c.signature() == signature)
        };

        let mut program = (*self.cache.parse(source).ok()?).clone();
        // Normalize through the printer first; if canonical form already
        // loses the disagreement, the round-trip invariant is broken and
        // shrinking would chase a moving target.
        if !holds(&print_program(&program)) {
            return None;
        }
        let mut steps = 0usize;
        let mut attempts = 0usize;
        loop {
            let mut progressed = false;
            // Pass 1: statement removal, restarting after each acceptance
            // (indices shift as statements disappear).
            'stmts: loop {
                let slots = stmt_slots(&mut program);
                for target in 0..slots {
                    if attempts >= MAX_SHRINK_ATTEMPTS {
                        break 'stmts;
                    }
                    let mut candidate = program.clone();
                    if !remove_stmt(&mut candidate, target) {
                        continue;
                    }
                    attempts += 1;
                    if holds(&print_program(&candidate)) {
                        program = candidate;
                        steps += 1;
                        progressed = true;
                        continue 'stmts;
                    }
                }
                break;
            }
            // Pass 2: whole-function removal.
            'funcs: loop {
                for idx in 0..program.functions.len() {
                    if attempts >= MAX_SHRINK_ATTEMPTS {
                        break 'funcs;
                    }
                    let mut candidate = program.clone();
                    candidate.functions.remove(idx);
                    attempts += 1;
                    if holds(&print_program(&candidate)) {
                        program = candidate;
                        steps += 1;
                        progressed = true;
                        continue 'funcs;
                    }
                }
                break;
            }
            // Pass 3: expression simplification.
            'exprs: loop {
                let slots = expr_slots(&mut program);
                for target in 0..slots {
                    if attempts >= MAX_SHRINK_ATTEMPTS {
                        break 'exprs;
                    }
                    let mut candidate = program.clone();
                    if !simplify_expr_at(&mut candidate, target) {
                        continue;
                    }
                    attempts += 1;
                    if holds(&print_program(&candidate)) {
                        program = candidate;
                        steps += 1;
                        progressed = true;
                        continue 'exprs;
                    }
                }
                break;
            }
            if !progressed || attempts >= MAX_SHRINK_ATTEMPTS {
                break;
            }
        }
        self.metrics.counter("oracle.shrunk").inc();
        self.metrics.histogram("oracle.shrink_steps").observe(steps as u64);
        self.metrics.histogram("oracle.shrink_attempts").observe(attempts as u64);
        Some(ShrinkOutcome { source: print_program(&program), steps, attempts })
    }
}

// ---------------------------------------------------------------------------
// Shrinker AST surgery
// ---------------------------------------------------------------------------

/// Removes the `target`-th removable statement (pre-order over vector
/// bodies, including nested branches and loop bodies). With
/// `target = usize::MAX` this is a pure statement count via `counter`.
fn remove_stmt_in(stmts: &mut Vec<Stmt>, counter: &mut usize, target: usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if *counter == target {
            stmts.remove(i);
            return true;
        }
        *counter += 1;
        let removed_nested = match &mut stmts[i].kind {
            StmtKind::If { then_branch, else_branch, .. } => {
                remove_stmt_in(then_branch, counter, target)
                    || else_branch.as_mut().is_some_and(|els| remove_stmt_in(els, counter, target))
            }
            StmtKind::While { body, .. } | StmtKind::For { body, .. } => {
                remove_stmt_in(body, counter, target)
            }
            _ => false,
        };
        if removed_nested {
            return true;
        }
        i += 1;
    }
    false
}

fn remove_stmt(program: &mut Program, target: usize) -> bool {
    let mut counter = 0;
    for f in &mut program.functions {
        if remove_stmt_in(&mut f.body, &mut counter, target) {
            return true;
        }
    }
    false
}

/// Number of statement-removal slots (uses the never-matching target).
fn stmt_slots(program: &mut Program) -> usize {
    let mut counter = 0;
    for f in &mut program.functions {
        remove_stmt_in(&mut f.body, &mut counter, usize::MAX);
    }
    counter
}

/// Simplifies the `target`-th simplifiable expression node: a binary op is
/// replaced by its left operand, unary/index by the inner operand, and a
/// call by its first argument. With `target = usize::MAX` this is a pure
/// count via `counter`.
fn simplify_expr_in(e: &mut Expr, counter: &mut usize, target: usize) -> bool {
    let simplifiable =
        matches!(&e.kind, ExprKind::Unary(..) | ExprKind::Binary(..) | ExprKind::Index(..))
            || matches!(&e.kind, ExprKind::Call(_, args) if !args.is_empty());
    if simplifiable {
        if *counter == target {
            let replacement = match &mut e.kind {
                ExprKind::Unary(_, inner) => std::mem::replace(&mut **inner, Expr::int(0)),
                ExprKind::Binary(_, left, _) => std::mem::replace(&mut **left, Expr::int(0)),
                ExprKind::Index(base, _) => std::mem::replace(&mut **base, Expr::int(0)),
                ExprKind::Call(_, args) => args.remove(0),
                _ => unreachable!("guarded by `simplifiable`"),
            };
            *e = replacement;
            return true;
        }
        *counter += 1;
    }
    match &mut e.kind {
        ExprKind::Unary(_, inner) => simplify_expr_in(inner, counter, target),
        ExprKind::Binary(_, left, right) => {
            simplify_expr_in(left, counter, target) || simplify_expr_in(right, counter, target)
        }
        ExprKind::Index(base, index) => {
            simplify_expr_in(base, counter, target) || simplify_expr_in(index, counter, target)
        }
        ExprKind::Call(_, args) => {
            for a in args {
                if simplify_expr_in(a, counter, target) {
                    return true;
                }
            }
            false
        }
        _ => false,
    }
}

fn simplify_in_stmt(stmt: &mut Stmt, counter: &mut usize, target: usize) -> bool {
    match &mut stmt.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                if simplify_expr_in(e, counter, target) {
                    return true;
                }
            }
            false
        }
        StmtKind::Assign { target: lvalue, value, .. } => {
            let lvalue_exprs: Vec<&mut Expr> = match lvalue {
                LValue::Var(_) => Vec::new(),
                LValue::Deref(e) => vec![e],
                LValue::Index(base, index) => vec![base, index],
            };
            for e in lvalue_exprs {
                if simplify_expr_in(e, counter, target) {
                    return true;
                }
            }
            simplify_expr_in(value, counter, target)
        }
        StmtKind::If { cond, then_branch, else_branch } => {
            if simplify_expr_in(cond, counter, target) {
                return true;
            }
            if simplify_in_stmts(then_branch, counter, target) {
                return true;
            }
            if let Some(els) = else_branch {
                if simplify_in_stmts(els, counter, target) {
                    return true;
                }
            }
            false
        }
        StmtKind::While { cond, body } => {
            simplify_expr_in(cond, counter, target) || simplify_in_stmts(body, counter, target)
        }
        StmtKind::For { init, cond, step, body } => {
            if let Some(s) = init {
                if simplify_in_stmt(s, counter, target) {
                    return true;
                }
            }
            if let Some(e) = cond {
                if simplify_expr_in(e, counter, target) {
                    return true;
                }
            }
            if let Some(s) = step {
                if simplify_in_stmt(s, counter, target) {
                    return true;
                }
            }
            simplify_in_stmts(body, counter, target)
        }
        StmtKind::Return(Some(e)) | StmtKind::Expr(e) => simplify_expr_in(e, counter, target),
        StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue => false,
    }
}

fn simplify_in_stmts(stmts: &mut [Stmt], counter: &mut usize, target: usize) -> bool {
    for s in stmts {
        if simplify_in_stmt(s, counter, target) {
            return true;
        }
    }
    false
}

fn simplify_expr_at(program: &mut Program, target: usize) -> bool {
    let mut counter = 0;
    for f in &mut program.functions {
        if simplify_in_stmts(&mut f.body, &mut counter, target) {
            return true;
        }
    }
    false
}

/// Number of expression-simplification slots (never-matching target).
fn expr_slots(program: &mut Program) -> usize {
    let mut counter = 0;
    for f in &mut program.functions {
        simplify_in_stmts(&mut f.body, &mut counter, usize::MAX);
    }
    counter
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_synth::dataset::DatasetBuilder;

    const CLEAN: &str = "int add(int a, int b) { return a + b; }";
    const SQLI: &str = r#"void handler() {
        int a = 1;
        int b = 2;
        char* id = http_param("id");
        if (a < b) { a = b; }
        exec_query(id);
    }"#;

    fn find(ds: &[Disagreement], kind: DisagreementKind) -> Vec<&Disagreement> {
        ds.iter().filter(|d| d.kind == kind).collect()
    }

    #[test]
    fn clean_sample_fully_agrees() {
        let oracle = DifferentialOracle::new();
        assert!(oracle.classify_source(CLEAN, None, false).is_empty());
    }

    #[test]
    fn static_false_positive_on_credential_literal() {
        // The credential detector fires on the literal; ground truth says
        // clean; the logic class cannot fault at runtime, so the only
        // disagreement is the static false positive.
        let oracle = DifferentialOracle::new();
        let src = r#"void setup() { char* password = "s3cr3tPassw0rd"; connect_db(password); }"#;
        let ds = oracle.classify_source(src, None, false);
        let fps = find(&ds, DisagreementKind::StaticFalsePositive);
        assert_eq!(fps.len(), 1, "{ds:?}");
        assert_eq!(fps[0].cwe, Some(Cwe::HardcodedCredentials));
        assert_eq!(fps[0].view, View::StaticRules);
        assert_eq!(ds.len(), 1, "no other kind applies: {ds:?}");
    }

    #[test]
    fn blind_spots_on_a_missed_logic_class() {
        // Ground truth plants a race no analyzer sees: the static miss is a
        // blind spot, and the dynamic miss is the *documented* blind spot,
        // not a defect.
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(CLEAN, Some(Cwe::RaceCondition), false);
        assert_eq!(ds.len(), 2, "{ds:?}");
        assert_eq!(find(&ds, DisagreementKind::StaticBlindSpot).len(), 1);
        assert_eq!(find(&ds, DisagreementKind::DynamicBlindSpot).len(), 1);
        assert_eq!(find(&ds, DisagreementKind::AnalyzerDefect).len(), 0);
    }

    #[test]
    fn missed_detectable_class_is_a_defect() {
        // If ground truth plants SQL injection and the interpreter observes
        // nothing, that is *not* a documented blind spot — it is a defect.
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(CLEAN, Some(Cwe::SqlInjection), false);
        let defects = find(&ds, DisagreementKind::AnalyzerDefect);
        assert_eq!(defects.len(), 1, "{ds:?}");
        assert_eq!(defects[0].view, View::Dynamic);
        assert_eq!(defects[0].cwe, Some(Cwe::SqlInjection));
    }

    #[test]
    fn label_noise_is_its_own_artifact() {
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(CLEAN, None, true);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].kind, DisagreementKind::LabelNoiseArtifact);
        assert_eq!(ds[0].view, View::RecordedLabel);
    }

    #[test]
    fn parse_failure_is_a_defect_with_no_class() {
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source("int f( {", None, false);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].kind, DisagreementKind::AnalyzerDefect);
        assert_eq!(ds[0].cwe, None);
    }

    #[test]
    fn true_vulnerable_sample_with_agreeing_views_is_agreement() {
        // All three source views and ground truth say SQL injection: no
        // disagreement at all.
        let oracle = DifferentialOracle::new();
        let src = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;
        let ds = oracle.classify_source(src, Some(Cwe::SqlInjection), false);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn report_is_identical_across_jobs_and_cache_settings() {
        let corpus = DatasetBuilder::new(42)
            .vulnerable_count(16)
            .vulnerable_fraction(0.4)
            .label_noise(0.1)
            .build();
        let baseline = DifferentialOracle::with_config(OracleConfig { jobs: 1, cache: true })
            .run(corpus.samples());
        for (jobs, cache) in [(4, true), (1, false), (4, false)] {
            let report =
                DifferentialOracle::with_config(OracleConfig { jobs, cache }).run(corpus.samples());
            assert_eq!(report, baseline, "jobs={jobs} cache={cache}");
        }
        assert_eq!(baseline.samples, corpus.samples().len());
        assert_eq!(baseline.taxonomy.total(), baseline.disagreements.len());
    }

    #[test]
    fn every_noise_corrupted_sample_carries_an_artifact() {
        let corpus = DatasetBuilder::new(7)
            .vulnerable_count(20)
            .vulnerable_fraction(0.5)
            .label_noise(0.2)
            .build();
        let report = DifferentialOracle::new().run(corpus.samples());
        let noisy: BTreeSet<u64> = report
            .disagreements
            .iter()
            .filter(|d| d.kind == DisagreementKind::LabelNoiseArtifact)
            .map(|d| d.sample_id)
            .collect();
        let expected: BTreeSet<u64> =
            corpus.samples().iter().filter(|s| s.is_mislabeled()).map(|s| s.id).collect();
        assert_eq!(noisy, expected);
    }

    #[test]
    fn summary_table_names_every_kind() {
        let report = DifferentialOracle::new().run(&[]);
        let table = report.summary_table();
        for kind in DisagreementKind::ALL {
            assert!(table.contains(kind.label()), "{table}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let corpus = DatasetBuilder::new(3).vulnerable_count(6).vulnerable_fraction(0.5).build();
        let report = DifferentialOracle::new().run(corpus.samples());
        let json = serde_json::to_string(&report).unwrap();
        let back: OracleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn shrinker_minimizes_a_false_positive_to_its_core_flow() {
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(SQLI, None, false);
        let d = find(&ds, DisagreementKind::StaticFalsePositive)
            .into_iter()
            .find(|d| d.cwe == Some(Cwe::SqlInjection))
            .expect("static suite flags the flow")
            .clone();
        let shrunk = oracle.shrink(SQLI, &d, None, false).expect("shrinkable");
        assert!(shrunk.steps > 0, "junk statements must be removed: {shrunk:?}");
        assert!(shrunk.source.len() < SQLI.len());
        assert!(shrunk.source.contains("http_param"), "source kept: {}", shrunk.source);
        assert!(shrunk.source.contains("exec_query"), "sink kept: {}", shrunk.source);
        assert!(!shrunk.source.contains("int a"), "junk dropped: {}", shrunk.source);
        // The minimized form still reproduces the exact disagreement.
        let again = oracle.classify_source(&shrunk.source, None, false);
        assert!(
            again.iter().any(|c| c.cwe == d.cwe && c.view == d.view && c.kind == d.kind),
            "{again:?}"
        );
    }

    #[test]
    fn shrinker_is_deterministic() {
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(SQLI, None, false);
        let d =
            ds.iter().find(|d| d.kind == DisagreementKind::StaticFalsePositive).unwrap().clone();
        let a = oracle.shrink(SQLI, &d, None, false).unwrap();
        let b = oracle.shrink(SQLI, &d, None, false).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shrinker_refuses_evidence_free_disagreements() {
        // Truth is an external annotation; with no view positive there is
        // nothing in the source to preserve, and shrinking would degenerate
        // to an empty program.
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(CLEAN, Some(Cwe::RaceCondition), false);
        for d in &ds {
            assert!(oracle.shrink(CLEAN, d, Some(Cwe::RaceCondition), false).is_none(), "{d:?}");
        }
    }

    #[test]
    fn shrinker_refuses_label_noise_artifacts() {
        let oracle = DifferentialOracle::new();
        let ds = oracle.classify_source(SQLI, None, true);
        let noise = ds.iter().find(|d| d.kind == DisagreementKind::LabelNoiseArtifact).unwrap();
        assert!(oracle.shrink(SQLI, noise, None, true).is_none());
    }

    #[test]
    fn oracle_instruments_are_schema_stable() {
        let metrics = Registry::new();
        let _ = DifferentialOracle::with_metrics(OracleConfig::default(), &metrics);
        let snapshot = metrics.snapshot();
        let json = serde_json::to_string(&snapshot).unwrap();
        for key in [
            "oracle.samples",
            "oracle.agreed",
            "oracle.disagreements",
            "oracle.kind.static_false_positive",
            "oracle.kind.static_blind_spot",
            "oracle.kind.dynamic_blind_spot",
            "oracle.kind.label_noise_artifact",
            "oracle.kind.analyzer_defect",
            "oracle.kind.semantic_blind_spot",
            "oracle.kind.semantic_false_positive",
            "oracle.kind.clone_inconsistency",
            "oracle.shrunk",
            "oracle.shrink_steps",
            "oracle.shrink_attempts",
        ] {
            assert!(json.contains(key), "{key} must be pre-registered");
        }
    }

    fn clone_sample(id: u64, source: &str, cwe: Option<Cwe>) -> Sample {
        Sample {
            id,
            source: source.into(),
            label: cwe.is_some(),
            observed_label: cwe.is_some(),
            cwe,
            target_fn: String::new(),
            team: "test".into(),
            project: "test".into(),
            tier: vulnman_synth::tier::Tier::Curated,
            duplicate_of: None,
            artifacts: Default::default(),
        }
    }

    #[test]
    fn clones_view_flags_spelling_sensitive_verdicts() {
        // Structurally identical near-clones where only the *callee name*
        // differs: the token shingles normalize identifiers, so the pair is
        // a verified clone class, but every name-keyed view flags the
        // `exec_query` member and stays silent on the `run_query` one —
        // exactly the spelling sensitivity the clones view exists to catch.
        let flagged = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;
        let silent = r#"void f() { char* id = http_param("id"); run_query(id); }"#;
        let samples =
            [clone_sample(1, flagged, Some(Cwe::SqlInjection)), clone_sample(2, silent, None)];
        let oracle = DifferentialOracle::new();
        let report = oracle.run_with_clones(&samples);
        let clones: Vec<_> = report
            .disagreements
            .iter()
            .filter(|d| d.kind == DisagreementKind::CloneInconsistency)
            .collect();
        assert!(!clones.is_empty(), "{report:?}");
        assert_eq!(report.taxonomy.clone_inconsistency, clones.len());
        assert_eq!(report.taxonomy.total(), report.disagreements.len());
        for d in &clones {
            assert_eq!(d.view, View::CloneClass);
            assert_eq!(d.cwe, Some(Cwe::SqlInjection));
            assert!(d.detail.contains("[1]") && d.detail.contains("[2]"), "{}", d.detail);
        }
        // The plain run never produces the corpus-level kind.
        assert_eq!(oracle.run(&samples).taxonomy.clone_inconsistency, 0);
    }

    #[test]
    fn clones_view_is_silent_when_clone_members_agree() {
        // Exact duplicates: every view gives both members the same verdicts,
        // so the clone class yields no inconsistency and `run_with_clones`
        // degenerates to `run`.
        let samples = [
            clone_sample(1, SQLI, Some(Cwe::SqlInjection)),
            clone_sample(2, SQLI, Some(Cwe::SqlInjection)),
        ];
        let oracle = DifferentialOracle::new();
        let with = oracle.run_with_clones(&samples);
        assert_eq!(with.taxonomy.clone_inconsistency, 0, "{with:?}");
        assert_eq!(with, oracle.run(&samples));
    }

    #[test]
    fn clones_report_is_deterministic_and_round_trips() {
        let flagged = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;
        let silent = r#"void f() { char* id = http_param("id"); run_query(id); }"#;
        let samples = [
            clone_sample(1, flagged, Some(Cwe::SqlInjection)),
            clone_sample(2, silent, None),
            clone_sample(3, CLEAN, None),
        ];
        let a = DifferentialOracle::new().run_with_clones(&samples);
        let b = DifferentialOracle::with_config(OracleConfig { jobs: 4, cache: false })
            .run_with_clones(&samples);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
        let back: OracleReport = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn clone_inconsistencies_refuse_to_shrink() {
        let flagged = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;
        let silent = r#"void f() { char* id = http_param("id"); run_query(id); }"#;
        let samples =
            [clone_sample(1, flagged, Some(Cwe::SqlInjection)), clone_sample(2, silent, None)];
        let oracle = DifferentialOracle::new();
        let report = oracle.run_with_clones(&samples);
        let d = report
            .disagreements
            .iter()
            .find(|d| d.kind == DisagreementKind::CloneInconsistency)
            .expect("clone inconsistency present");
        assert!(oracle.shrink(flagged, d, Some(Cwe::SqlInjection), false).is_none());
    }

    #[test]
    fn statement_surgery_is_counter_indexed() {
        let src = "void f() { int a = 1; if (a) { int b = 2; } return; }";
        let mut p = vulnman_lang::parse(src).unwrap();
        assert_eq!(stmt_slots(&mut p), 4);
        let mut q = p.clone();
        assert!(remove_stmt(&mut q, 2), "nested statement is addressable");
        assert_eq!(stmt_slots(&mut q), 3);
        assert!(!remove_stmt(&mut p.clone(), 99));
    }

    #[test]
    fn expression_surgery_is_counter_indexed() {
        let src = "int f(int a) { return g(a + 1); }";
        let mut p = vulnman_lang::parse(src).unwrap();
        // Two simplifiable nodes: the call and the binary inside it.
        assert_eq!(expr_slots(&mut p), 2);
        let mut q = p.clone();
        assert!(simplify_expr_at(&mut q, 0), "call collapses to its argument");
        assert!(!print_program(&q).contains("g("));
        assert!(print_program(&q).contains("a + 1"));
    }
}
