//! Every metric the benchmark prints, with its unit and direction. The
//! untraced run prints exactly [`END_TO_END`] and the traced run exactly
//! [`PER_LAYER`], for every workload; `BENCHMARK.json` declares the same
//! lists (a test keeps them in step).

use std::collections::BTreeMap;

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["batch_projects", "serve_edit", "serve_churn"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end regression bound (share of the parent's median); `None`
    /// for per-layer metrics, which have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Names are shared by the batch and the
/// serve workloads: for `batch_projects` a "request" is one whole batch
/// pass, for the serve workloads it is one JSONL request.
pub const END_TO_END: &[Metric] = &[
    // Corpus or stream generation, ML training, server spawn and warm-up;
    // median of three set-ups per run.
    e2e("setup_s", "s", Lower, 0.25),
    // 1 - failed/attempted. A failed ratio reads 0 on a healthy tree, and a
    // metric that reads 0 has no relative bound, so its complement is gated.
    e2e("ok_ratio", "ratio", Higher, 0.01),
    // batch: samples per second at the stated corpus size (median pass);
    // serve: ok replies per second at the top fixed rate (goodput).
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    // batch: pass time; serve: request latency from due time at the
    // workload's reference rate. The notes line before the result gives the
    // highest percentile with ten samples beyond it, and the sample count.
    e2e("latency_ms.p50", "ms", Lower, 0.25),
];

/// Per-layer metrics of the traced run. Each is measured on every
/// workload's own inputs; `README.md` next to this crate says which
/// end-to-end metric each should move on which workload.
pub const PER_LAYER: &[Metric] = &[
    // vulnman_lang lexer / parser / cfg / taint
    layer("lang.lex.us_per_unit", "us", Lower),
    layer("lang.parse.us_per_unit", "us", Lower),
    layer("lang.cfg.us_per_fn", "us", Lower),
    layer("lang.taint.us_per_unit", "us", Lower),
    // vulnman_lang::absint through SemanticEngine::scan_with_metrics
    layer("lang.absint.interval.busy_ms", "ms", Lower),
    layer("lang.absint.nullness.busy_ms", "ms", Lower),
    layer("lang.absint.init.busy_ms", "ms", Lower),
    layer("lang.absint.ownership.busy_ms", "ms", Lower),
    layer("lang.absint.width.busy_ms", "ms", Lower),
    layer("lang.absint.provenance.busy_ms", "ms", Lower),
    layer("lang.absint.solver.iterations", "count", Lower),
    layer("lang.absint.solver.widenings", "count", Lower),
    // vulnman_lang cache / incremental
    layer("lang.incr.lex.hit_ratio", "ratio", Higher),
    layer("lang.incr.parse.hit_ratio", "ratio", Higher),
    layer("lang.incr.cfg.hit_ratio", "ratio", Higher),
    layer("lang.incr.summary.hit_ratio", "ratio", Higher),
    layer("lang.incr.findings.hit_ratio", "ratio", Higher),
    layer("lang.cache.hit_ratio", "ratio", Higher),
    layer("lang.cache.evictions_per_req", "count", Lower),
    // vulnman_lang::clone
    layer("lang.clone.build_ms", "ms", Lower),
    layer("lang.clone.propagated_ratio", "ratio", Higher),
    layer("lang.clone.align_fallbacks", "count", Lower),
    // vulnman_analysis
    layer("analysis.rules.us_per_unit", "us", Lower),
    layer("analysis.semantic.us_per_unit", "us", Lower),
    layer("analysis.autofix.us_per_fix", "us", Lower),
    // vulnman_ml
    layer("ml.train_ms", "ms", Lower),
    layer("ml.score.us_per_sample", "us", Lower),
    // vulnman_core workflow / detector registry
    layer("core.stage.assess.busy_ms", "ms", Lower),
    layer("core.stage.assess.detect.busy_ms", "ms", Lower),
    layer("core.stage.review.busy_ms", "ms", Lower),
    layer("core.stage.repair.busy_ms", "ms", Lower),
    layer("core.detector.rule-suite.busy_ms", "ms", Lower),
    layer("core.detector.semantic-suite.busy_ms", "ms", Lower),
    layer("core.detector.ml.busy_ms", "ms", Lower),
    layer("core.shard.speedup", "ratio", Higher),
    // vulnman_serve protocol / service / server
    layer("serve.protocol.parse_us", "us", Lower),
    layer("serve.protocol.encode_us", "us", Lower),
    layer("serve.service.handle_us.lint", "us", Lower),
    layer("serve.service.handle_us.analyze", "us", Lower),
    layer("serve.server.handle_us.mean", "us", Lower),
    layer("serve.transport_us", "us", Lower),
    layer("serve.server.shed", "count", Lower),
    layer("serve.server.queue_depth_peak", "count", Lower),
    layer("serve.max_rate_rps", "1/s", Higher),
    layer("serve.capacity_rps", "1/s", Higher),
    // Peak resident memory of the whole traced run. Memory moved by more
    // than a tenth between untraced runs (the inputs' size varies with the
    // seed), so it is not gated.
    layer("peak_rss_mb", "MiB", Lower),
    // End-to-end timings too unsteady between runs for a bound: the highest
    // percentile with ten samples beyond it (batch passes, or serve requests
    // at the reference rate).
    layer("latency_ms.tail", "ms", Lower),
    // The workload's defining property, measured on its own inputs.
    layer("workload.duplicate_share", "ratio", Higher),
    layer("workload.resident_share", "ratio", Higher),
    layer("workload.novel_share", "ratio", Higher),
    // The benchmark itself: whether the numbers can be trusted.
    layer("failed_ratio", "ratio", Lower),
    layer("gen.late_ms.p99", "ms", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("machine.nproc", "count", Higher),
    layer("machine.steal_share", "ratio", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metric values.
    pub values: Values,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or whose output differed from the reference.
    pub failed: u64,
    /// Human-readable lines printed before the result (sample counts,
    /// which percentile the tail is).
    pub notes: Vec<String>,
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// with every metric of `declared` present.
///
/// # Panics
///
/// Panics if a declared metric was not measured or is not finite — a bug in
/// the benchmark, not in the program under test.
pub fn result_line(
    declared: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(f64::NAN);
            assert!(v.is_finite(), "metric {} was not measured (value {v})", m.name);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_prints_every_declared_metric() {
        let values: Values = PER_LAYER.iter().map(|m| (m.name, 1.5)).collect();
        let line = result_line(PER_LAYER, &values, true, 3, 0);
        for m in PER_LAYER {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)), "{}", m.name);
        }
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn result_line_refuses_a_missing_metric() {
        result_line(END_TO_END, &Values::new(), true, 1, 0);
    }
}
