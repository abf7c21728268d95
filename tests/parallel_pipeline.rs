//! End-to-end guarantees of the parallel, cached analysis pipeline: sharded
//! execution is byte-identical to the sequential reference, and the
//! content-addressed cache changes cost, never results.

use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;
use vulnman::synth::sample::Sample;

fn corpus_of_200() -> Vec<Sample> {
    let mut samples = DatasetBuilder::new(2024)
        .vulnerable_count(25)
        .vulnerable_fraction(0.25)
        .duplication_factor(2)
        .build()
        .samples()
        .to_vec();
    // Add an exact-duplicate slice (vendored copies: same content, fresh
    // ids) — the duplication the content-addressed cache exploits — and in
    // doing so top the corpus up past 200 samples.
    let base = samples.len();
    let max_id = samples.iter().map(|s| s.id).max().unwrap_or(0);
    for i in 0..80.max(200usize.saturating_sub(base)) {
        let mut copy = samples[i % base].clone();
        copy.id = max_id + 1 + i as u64;
        samples.push(copy);
    }
    samples
}

fn engine(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    engine_with_registry(registry, jobs, cache)
}

fn engine_with_registry(registry: DetectorRegistry, jobs: usize, cache: bool) -> WorkflowEngine {
    WorkflowEngine::new(registry, WorkflowConfig { jobs, cache, ..Default::default() })
}

#[test]
fn parallel_jobs4_equals_sequential_jobs1_on_200_samples() {
    let samples = corpus_of_200();
    assert!(samples.len() >= 200);
    let sequential = engine(1, true).process(&samples);
    let parallel = engine(4, true).process(&samples);
    assert_eq!(sequential, parallel, "structural equality");

    let seq_json = serde_json::to_string(&sequential).expect("serialize sequential");
    let par_json = serde_json::to_string(&parallel).expect("serialize parallel");
    assert_eq!(seq_json, par_json, "serialized reports must be byte-identical");
}

#[test]
fn report_findings_follow_sample_then_detector_then_span_order() {
    let samples = corpus_of_200();
    let report = engine(4, true).process(&samples);
    // Cases stay in submission order.
    let ids: Vec<u64> = report.cases.iter().map(|c| c.sample_id).collect();
    let expected: Vec<u64> = samples.iter().map(|s| s.id).collect();
    assert_eq!(ids, expected);
    // Within a case, findings are sorted by detector name then span.
    for case in &report.cases {
        for w in case.findings.windows(2) {
            assert!(
                (&w[0].detector, w[0].span) <= (&w[1].detector, w[1].span),
                "findings out of order in case {}",
                case.sample_id
            );
        }
    }
}

#[test]
fn duplicated_samples_are_served_from_the_cache() {
    let samples = corpus_of_200();
    let e = engine(1, true);
    e.process(&samples);
    let stats = e.cache_stats();
    assert!(stats.hits > 0, "duplicate-heavy corpus must produce hits: {stats:?}");
    assert!(stats.hit_rate() > 0.3, "hit rate too low: {stats:?}");
}

#[test]
fn cache_and_parallelism_never_change_the_report() {
    let samples = corpus_of_200();
    let reference = engine(1, false).process(&samples);
    for (jobs, cache) in [(1, true), (4, false), (4, true)] {
        let got = engine(jobs, cache).process(&samples);
        assert_eq!(reference, got, "jobs={jobs} cache={cache}");
    }
}

#[test]
fn analysis_cache_is_content_addressed() {
    let cache = AnalysisCache::new();
    let a = cache.parse("int f() { return 1; }").expect("valid");
    let b = cache.parse("int f() { return 1; }\r\n").expect("normalized duplicate");
    assert_eq!(*a, *b);
    assert_eq!(cache.stats().hits, 1);
}

/// A rule suite with the stock lineup whose taint detector knows one team
/// sanitizer: same detector names as `RuleEngine::default_suite`, different
/// findings.
fn team_suite() -> RuleEngine {
    let mut taint = TaintConfig::default_config();
    taint.add_sanitizer("team_clean");
    RuleEngine::suite_with_taint(taint)
}

const TEAM_SANITIZED: &str =
    "void f() { char* id = http_param(\"id\"); char* c = team_clean(id); exec_query(c); }";

fn sample_of(source: &str) -> Sample {
    let mut s = DatasetBuilder::new(1).vulnerable_count(1).build().samples()[0].clone();
    s.source = source.to_string();
    s
}

/// Two rule suites that differ only in a detector's configuration must not
/// share cached findings: the team suite sees its sanitizer even when the
/// stock suite scanned the same source through the same cache first.
#[test]
fn rule_suites_differing_only_in_taint_config_do_not_share_cached_findings() {
    let sample = sample_of(TEAM_SANITIZED);
    let stock = RuleBasedDetector::standard();
    let team = RuleBasedDetector::new("team-suite", team_suite());
    assert_eq!(stock.assess(&sample).findings.len(), 1, "stock suite flags the flow");
    assert!(team.assess(&sample).findings.is_empty(), "team sanitizer clears the flow");

    let cache = AnalysisCache::new();
    let key = AnalysisCache::content_key(&sample.source);
    assert_eq!(stock.assess_cached_keyed(&sample, &cache, key).findings.len(), 1);
    assert!(team.assess_cached_keyed(&sample, &cache, key).findings.is_empty());

    // The workflow's per-run scratch cache is shared the same way, with the
    // cross-run cache on or off.
    for cache in [true, false] {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        registry.register(Box::new(RuleBasedDetector::new("team-suite", team_suite())));
        let report =
            engine_with_registry(registry, 1, cache).process(std::slice::from_ref(&sample));
        let team_findings = report.cases[0].findings.iter().filter(|f| f.detector == "taint-flow");
        assert_eq!(team_findings.count(), 1, "only the stock suite's finding, cache={cache}");
    }
    assert_ne!(RuleEngine::default_suite().fingerprint(), team_suite().fingerprint());
}

/// The engine's keyed scan and the workflow detector share one
/// `"rule-findings"` entry: the detector's call is two cache hits (parse +
/// findings) and no misses.
#[test]
fn rule_engine_and_rule_detector_share_one_cache_entry() {
    let sample = sample_of(TEAM_SANITIZED);
    let cache = AnalysisCache::new();
    let key = AnalysisCache::content_key(&sample.source);
    let direct = RuleEngine::default_suite().scan_source_cached_keyed(key, &sample.source, &cache);
    let before = cache.stats();
    let assessed = RuleBasedDetector::standard().assess_cached_keyed(&sample, &cache, key);
    let after = cache.stats();
    assert_eq!(assessed.findings, direct.expect("parses"));
    assert_eq!(after.misses, before.misses, "the detector recomputed");
    assert_eq!(after.hits, before.hits + 2);
}

/// The engine's keyed scan and the workflow's semantic detector share one
/// `"absint-findings"` entry: the detector never runs the solver, so its
/// `absint.solver.iterations` counter does not move.
#[test]
fn semantic_engine_and_semantic_detector_share_one_cache_entry() {
    use vulnman::analysis::checkers::SemanticEngine;
    let sample = sample_of("void f() { int a[4]; int i = 9; a[i] = 1; consume_table(a, 4); }");
    let key = AnalysisCache::content_key(&sample.source);
    let detector_with = |metrics: &Registry| {
        let mut d = SemanticDetector::standard();
        d.attach_metrics(metrics);
        d
    };
    let iterations = |metrics: &Registry| metrics.counter("absint.solver.iterations").get();

    // Alone, the detector's cold call runs the solver.
    let alone = Registry::new();
    let cold = detector_with(&alone).assess_cached_keyed(&sample, &AnalysisCache::new(), key);
    assert!(iterations(&alone) > 0);
    assert!(!cold.findings.is_empty());

    let cache = AnalysisCache::new();
    let direct = SemanticEngine::new().scan_source_cached_keyed(key, &sample.source, &cache);
    let metrics = Registry::new();
    let warm = detector_with(&metrics).assess_cached_keyed(&sample, &cache, key);
    assert_eq!(warm.findings, direct.expect("parses"));
    assert_eq!(warm.findings, cold.findings);
    assert_eq!(iterations(&metrics), 0, "the detector re-ran the solver");
}
