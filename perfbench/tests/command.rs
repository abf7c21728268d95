//! The one command prints every declared metric, with its unit, for every
//! workload, and `BENCHMARK.json` declares exactly what the code prints.

use serde::Value;
use std::process::Command;
use vulnman_perfbench::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn num_of(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::I64(x) => *x as f64,
        Value::U64(x) => *x as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn seq_of(v: &Value) -> &[Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn assert_declared(listed: &Value, declared: &[Metric]) {
    let listed = seq_of(listed);
    assert_eq!(listed.len(), declared.len());
    for (entry, m) in listed.iter().zip(declared) {
        assert_eq!(str_of(entry.get("name")), m.name);
        assert_eq!(str_of(entry.get("unit")), m.unit, "{}", m.name);
        assert_eq!(str_of(entry.get("better")), m.better.as_str(), "{}", m.name);
        match m.bound {
            Some(b) => assert_eq!(num_of(entry.get("bound")), b, "{}", m.name),
            None => assert!(entry.as_map().unwrap().iter().all(|(k, _)| k != "bound")),
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics_and_workloads() {
    let json = benchmark_json();
    assert_declared(json.get("end_to_end"), END_TO_END);
    assert_declared(json.get("per_layer"), PER_LAYER);
    let names: Vec<&str> =
        seq_of(json.get("workloads")).iter().map(|w| str_of(w.get("name"))).collect();
    assert_eq!(names, WORKLOADS);
}

/// Runs the command in `dir` and returns its last stdout line, parsed.
fn run(dir: &std::path::Path, workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(dir)
        .output()
        .expect("the benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    serde_json::from_str(stdout.lines().last().expect("a result line")).expect("the result is JSON")
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    // The command writes `.bench_out/` under its working directory.
    let dir = std::env::temp_dir().join(format!("perfbench-command-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for workload in WORKLOADS {
        for (trace, declared) in [(0u8, END_TO_END), (1, PER_LAYER)] {
            let result = run(&dir, workload, trace);
            let keys: Vec<&str> =
                result.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Value::Bool(true), "{workload} trace {trace}");
            assert!(num_of(result.get("attempted")) >= 1.0);
            assert_eq!(num_of(result.get("failed")), 0.0);
            let metrics = result.get("metrics").as_map().unwrap();
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let names: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(printed, names, "{workload} trace {trace}");
            for ((_, v), m) in metrics.iter().zip(declared) {
                assert_eq!(str_of(v.get("unit")), m.unit);
                assert!(num_of(v.get("value")).is_finite());
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "serve_edit", "--seed", "1", "--seconds", "0", "--trace", "0"],
        vec!["--workload", "serve_edit", "--seed", "x", "--seconds", "1", "--trace", "0"],
        vec!["--workload", "serve_edit", "--seed", "1", "--seconds", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
