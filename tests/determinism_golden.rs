//! Golden determinism tests: the Figure-1 workflow must produce
//! byte-identical reports regardless of worker count or cache
//! configuration, and the observability layer must export a stable
//! metrics schema for every execution path.
//!
//! Industry pipelines re-run the same change stream on differently-sized
//! runners; any nondeterminism shows up as phantom diffs in triage queues
//! and dashboards. These tests pin that contract on a fixed-seed,
//! ~500-sample corpus.

use vulnman::prelude::*;

/// Fixed-seed corpus: 75 vulnerable / 500 total — the paper's imbalanced
/// industry shape at a size that exercises every stage at one and at
/// several shards.
fn corpus() -> Dataset {
    DatasetBuilder::new(20240615).vulnerable_count(75).vulnerable_fraction(0.15).build()
}

fn engine(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    let config = WorkflowConfig { jobs, cache, ..Default::default() };
    WorkflowEngine::new(registry, config)
}

fn run(jobs: usize, cache: bool, ds: &Dataset) -> (String, Snapshot) {
    let e = engine(jobs, cache);
    let report = e.process(ds.samples());
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, e.metrics_snapshot())
}

#[test]
fn report_bytes_identical_across_jobs_and_cache() {
    let ds = corpus();
    let (golden, golden_snap) = run(1, true, &ds);
    assert!(!golden.is_empty());
    for (jobs, cache) in [(1, false), (2, true), (2, false), (8, true), (8, false)] {
        let (json, snap) = run(jobs, cache, &ds);
        assert_eq!(
            json, golden,
            "WorkflowReport must be byte-identical at jobs={jobs} cache={cache}"
        );
        // The metrics schema (instrument name sets) is pre-registered at
        // engine construction, so it cannot depend on which execution path
        // ran or whether the cache was enabled.
        assert_eq!(
            snap.schema(),
            golden_snap.schema(),
            "metrics schema must not vary with jobs={jobs} cache={cache}"
        );
    }
}

#[test]
fn repeated_runs_produce_identical_normalized_metrics() {
    // At jobs=1 every counter (including cache hits/misses) is
    // deterministic; normalization zeroes only the wall-clock-dependent
    // histogram contents, so two runs must match exactly.
    let ds = corpus();
    let (_, a) = run(1, true, &ds);
    let (_, b) = run(1, true, &ds);
    assert_eq!(a.normalized(), b.normalized());
}

#[test]
fn metrics_json_round_trips_and_is_key_stable() {
    let ds = corpus();
    let (_, snap) = run(2, true, &ds);
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    let back: Snapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(back, snap, "Snapshot must survive a serde round-trip");
    // Spot-check the keys the dashboards depend on.
    for key in ["stage.assess", "stage.review", "stage.repair"] {
        assert!(
            snap.histograms.contains_key(&format!("span.{key}")),
            "missing span histogram {key}"
        );
    }
    for key in ["cache.hits", "cache.misses", "workflow.samples"] {
        assert!(snap.counters.contains_key(key), "missing counter {key}");
    }
    assert!(snap.histograms.contains_key("shard.latency_micros"));
}

#[test]
fn capacity_path_matches_the_golden_report_metrics() {
    // The budgeted entry point at an unlimited budget must agree with plain
    // `process` on every detection outcome (the serialized verdicts).
    let ds = corpus();
    let e = engine(2, true);
    let plain = e.process(ds.samples());
    let capped = e.process_with_capacity(ds.samples(), f64::INFINITY);
    assert_eq!(
        serde_json::to_string(&plain.detection_metrics()).unwrap(),
        serde_json::to_string(&capped.detection_metrics()).unwrap()
    );
}
