//! The `batch_projects` workload: the security team's nightly Figure-1 run.
//! A fresh `WorkflowEngine` (rules, semantic suite and a trained ML
//! detector; `jobs = nproc`, clone dedup on) processes the whole corpus,
//! pass after pass, and every report must match the `jobs = 1` reference
//! byte for byte.

use crate::inputs;
use crate::machine;
use crate::metrics::{Outcome, Values};
use crate::stats;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vulnman_core::detector::{
    AssessError, Assessment, Detector, DetectorRegistry, MlDetector, RuleBasedDetector,
    SemanticDetector,
};
use vulnman_core::{WorkflowConfig, WorkflowEngine, WorkflowReport};
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::{Cwe, Dataset, Sample};

/// Percentile reported as `latency_ms.tail` when the pass count supports it.
pub const TAIL_PCT: f64 = 90.0;

/// A detector shared by every engine. `DetectionModel` cannot be cloned, so
/// each fresh engine borrows the one model trained during set-up through
/// this wrapper, which forwards every assessment method unchanged.
struct Shared(Arc<dyn Detector>);

impl Detector for Shared {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn scope(&self) -> Option<Vec<Cwe>> {
        self.0.scope()
    }

    fn assess(&self, sample: &Sample) -> Assessment {
        self.0.assess(sample)
    }

    fn assess_cached(&self, sample: &Sample, cache: &AnalysisCache) -> Assessment {
        self.0.assess_cached(sample, cache)
    }

    fn assess_cached_keyed(&self, sample: &Sample, cache: &AnalysisCache, key: u64) -> Assessment {
        self.0.assess_cached_keyed(sample, cache, key)
    }

    fn try_assess_cached(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
    ) -> Result<Assessment, AssessError> {
        self.0.try_assess_cached(sample, cache)
    }

    fn try_assess_cached_keyed(
        &self,
        sample: &Sample,
        cache: &AnalysisCache,
        key: u64,
    ) -> Result<Assessment, AssessError> {
        self.0.try_assess_cached_keyed(sample, cache, key)
    }

    fn clone_invariant(&self) -> bool {
        self.0.clone_invariant()
    }
}

/// Everything a batch pass needs, built during set-up.
pub struct BatchSetup {
    /// The corpus every pass processes.
    pub corpus: Dataset,
    /// The trained ML detector, shared by every engine.
    pub ml: Arc<MlDetector>,
    /// Wall time of training the model.
    pub train: Duration,
}

impl BatchSetup {
    /// Generates the corpus and the training set and trains the model.
    pub fn new(seed: u64) -> BatchSetup {
        let corpus = inputs::batch_corpus(seed);
        let training = inputs::training_set(seed);
        let mut model = inputs::ml_model(seed);
        let t = Instant::now();
        model.train(&training);
        let train = t.elapsed();
        BatchSetup { corpus, ml: Arc::new(MlDetector::new(model)), train }
    }

    /// A fresh engine, as a nightly run would build, recording into `metrics`.
    pub fn engine(&self, jobs: usize, metrics: Registry) -> WorkflowEngine {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        registry.register(Box::new(SemanticDetector::standard()));
        registry.register(Box::new(Shared(Arc::clone(&self.ml) as Arc<dyn Detector>)));
        let config = WorkflowConfig { jobs, dedup: true, ..WorkflowConfig::default() };
        WorkflowEngine::with_metrics(registry, config, metrics)
    }

    /// One timed pass over `samples` on a fresh engine (construction
    /// included, as in a nightly run).
    pub fn pass(
        &self,
        samples: &[Sample],
        jobs: usize,
        metrics: Registry,
    ) -> (Duration, WorkflowReport) {
        let t = Instant::now();
        let report = self.engine(jobs, metrics).process(samples);
        (t.elapsed(), report)
    }
}

/// Serialized report bytes, the unit of the byte-identity check.
pub fn report_bytes(report: &WorkflowReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// The untraced `batch_projects` run: [`SETUPS`] timed set-ups, one `jobs = 1`
/// reference pass, then `jobs = nproc` passes for `seconds`. A pass fails
/// when its report differs from the reference.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = BatchSetup::new(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let setup = setup.expect("set up at least once");
    let samples = setup.corpus.samples();
    let reference = report_bytes(&setup.pass(samples, 1, Registry::new()).1);

    let jobs = machine::nproc();
    let mut pass_ms = Vec::new();
    let mut failed = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let (dt, report) = setup.pass(samples, jobs, Registry::new());
        pass_ms.push(dt.as_secs_f64() * 1e3);
        if report_bytes(&report) != reference {
            failed += 1;
        }
    }
    let attempted = pass_ms.len() as u64;
    let p50 = stats::median(&pass_ms).expect("at least one pass");
    let mut values = Values::new();
    values.insert("setup_s", stats::median(&setup_s).expect("set up at least once"));
    values.insert("ok_ratio", 1.0 - stats::ratio(failed as f64, attempted as f64));
    values.insert("throughput_per_s", samples.len() as f64 / (p50 / 1e3));
    values.insert("latency_ms.p50", p50);
    let (pct, tail_ms) = stats::tail(&pass_ms, TAIL_PCT);
    let notes = vec![format!(
        "batch_projects: {} samples per pass, {attempted} passes at jobs={jobs}: \
         p50 {p50:.3} ms, p{pct} {tail_ms:.3} ms",
        samples.len()
    )];
    Outcome { values, attempted, failed, notes }
}
