//! `BENCH_serve.json` generator: the committed performance trajectory of
//! the `vulnman serve` analysis service.
//!
//! Measures sustained request throughput and response-latency quantiles
//! (p50/p99, from the server's `serve.latency_micros` histogram) at client
//! jobs ∈ {1, 4} against a live loopback server, plus the incremental-
//! recompute speedup on a single-function-change workload (edit one
//! function of a 16-function unit per iteration; the per-stage cache must
//! make that at least 5x cheaper than full re-analysis). CI re-measures
//! with `--check` (which always uses the full window, so the comparison
//! against the committed full-window entry is like-for-like) and fails on
//! a >10% sustained-throughput regression or a speedup below 5x (see
//! `.github/workflows/ci.yml`, job `serve`).
//!
//! Usage: `bench_serve [--quick] [--out FILE] [--label STR] [--check]`

// Client threads here load a live server; they are not a shard fan-out.
#![allow(clippy::disallowed_methods)]

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use vulnman_analysis::SemanticEngine;
use vulnman_lang::{parse, AnalysisCache};
use vulnman_obs::Registry;
use vulnman_serve::{spawn, Request, ServeConfig, SERVE_CACHE_ENTRY_LIMIT};
use vulnman_synth::dataset::DatasetBuilder;

/// Latency summary from one configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StageLatency {
    /// Median, microseconds.
    p50_us: f64,
    /// Tail, microseconds.
    p99_us: f64,
    /// Mean, microseconds.
    mean_us: f64,
    /// Observations behind the quantiles.
    count: u64,
}

/// One measured configuration (e.g. `serve_jobs4`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConfigResult {
    /// Requests (or analysis iterations) per second, sustained.
    throughput_elem_per_s: f64,
    /// Units of work behind the throughput number.
    iters: u64,
    /// Mean wall time per unit, milliseconds.
    ms_per_iter: f64,
    /// Latency quantiles, keyed by histogram name.
    stages: BTreeMap<String, StageLatency>,
}

/// One entry in the committed trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Human label for the measurement.
    label: String,
    /// Seconds since the Unix epoch at measurement time.
    unix_time: u64,
    /// Whether this was a `--quick` (CI-sized) run.
    quick: bool,
    /// Distinct request sources in the client mix.
    corpus: usize,
    /// Results keyed by configuration name.
    configs: BTreeMap<String, ConfigResult>,
}

/// The whole `BENCH_serve.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Trajectory {
    /// Benchmark identity; always `serve_throughput`.
    benchmark: String,
    /// Measurement entries, oldest first.
    history: Vec<Entry>,
}

/// Request sources for the serving mix: a small corpus clients resubmit,
/// the cache-friendly shape of a long-running service.
fn sources() -> Vec<String> {
    DatasetBuilder::new(17)
        .vulnerable_count(4)
        .vulnerable_fraction(0.5)
        .build()
        .samples()
        .iter()
        .map(|s| s.source.clone())
        .collect()
}

/// Sustained closed-loop load: `clients` threads each run one connection,
/// lockstep request/response, for `window`. Returns the measured config.
fn measure_serve(clients: usize, window: Duration) -> ConfigResult {
    let metrics = Registry::new();
    let config = ServeConfig { workers: clients, queue: 256, ..ServeConfig::default() };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind loopback");
    let addr = server.addr();
    let srcs = sources();

    // Warm-up: one pass over every source primes the per-stage cache and
    // the lazy code paths, so the window measures steady state.
    run_client(addr, &srcs, 1_000_000, Duration::from_millis(50));
    let warm = metrics.snapshot();

    let start = Instant::now();
    let iters: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let srcs = &srcs;
                scope.spawn(move || run_client(addr, srcs, (c as u64 + 1) * 10_000_000, window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let elapsed = start.elapsed();

    let mut stages = BTreeMap::new();
    let snapshot = metrics.snapshot();
    if let Some(h) = snapshot.histograms.get("serve.latency_micros") {
        let mut h = h.clone();
        // Subtract warm-up observations: quantiles describe the window.
        if let Some(b) = warm.histograms.get("serve.latency_micros") {
            h.count -= b.count;
            h.sum -= b.sum;
            for (i, c) in b.buckets.iter().enumerate() {
                h.buckets[i] -= c;
            }
        }
        if h.count > 0 {
            stages.insert(
                "serve.latency_micros".to_string(),
                StageLatency {
                    p50_us: h.quantile(0.50),
                    p99_us: h.quantile(0.99),
                    mean_us: h.mean(),
                    count: h.count,
                },
            );
        }
    }
    server.shutdown();

    let secs = elapsed.as_secs_f64();
    ConfigResult {
        throughput_elem_per_s: iters as f64 / secs,
        iters,
        ms_per_iter: secs * 1e3 / iters.max(1) as f64,
        stages,
    }
}

/// One closed-loop client: lint requests round-robin over `srcs` until the
/// window closes. Returns completed request count.
fn run_client(addr: std::net::SocketAddr, srcs: &[String], id_base: u64, window: Duration) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let start = Instant::now();
    let mut done = 0u64;
    while start.elapsed() < window {
        let req = Request {
            id: id_base + done,
            kind: "lint".into(),
            source: srcs[done as usize % srcs.len()].clone(),
            label: None,
            cwe: None,
        };
        let mut line = serde_json::to_string(&req).expect("serialize");
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "server closed mid-window");
        done += 1;
    }
    done
}

/// One heavy chain-unit function body: nested loops over six tracked
/// variables, so the three-domain fixpoint — not parsing or fingerprinting
/// — dominates each function's analysis cost. `feed` is the upstream value
/// expression (`x` for the chain head, `f{i-1}(x)` otherwise).
fn chain_fn(name: &str, salt: usize, feed: &str) -> String {
    format!(
        "int {name}(int x) {{ \
         int a = 0; int b = 1; int c = 0; int d = 0; int e = 0; \
         int i = 0; int j = 0; \
         while (i < 12) {{ \
         j = 0; \
         while (j < 12) {{ \
         a = a + {feed} + b; b = b + c + {salt}; c = c + d + j; \
         d = d + e + 1; e = e + a; j = j + 1; \
         }} \
         b = b + i; i = i + 1; \
         }} \
         return a + b + c + d + e; }}\n"
    )
}

/// A 16-function translation unit whose last function's body carries an
/// editable constant — the single-function-change workload. The edited
/// `target` is deliberately trivial: the measurement isolates what an
/// incremental resubmission *must* pay (lex, parse, fingerprints, one tiny
/// fixpoint) against what full re-analysis pays (fifteen heavy fixpoints).
fn chain_unit(edit: u64) -> String {
    let mut src = chain_fn("f0", 0, "x");
    for i in 1..15 {
        src.push_str(&chain_fn(&format!("f{i}"), i, &format!("f{}(x)", i - 1)));
    }
    src.push_str(&format!("int target(int x) {{ return f14(x) + {edit}; }}\n"));
    src
}

/// Incremental vs full re-analysis on the chain unit: each iteration edits
/// only `target`. Returns (incremental, full) configs.
fn measure_incremental(window: Duration) -> (ConfigResult, ConfigResult) {
    let engine = SemanticEngine::new();

    // Incremental: one persistent per-stage cache across edits, bounded
    // exactly like the server's (every edit is a new unit version, so an
    // unbounded cache would retain all of them and the resulting heap
    // growth would tax the measurement).
    let cache = AnalysisCache::new().with_entry_limit(SERVE_CACHE_ENTRY_LIMIT);
    engine.scan_source_incremental(&chain_unit(0), &cache).expect("chain parses");
    let start = Instant::now();
    let mut incr_iters = 0u64;
    while start.elapsed() < window {
        let src = chain_unit(incr_iters + 1);
        std::hint::black_box(engine.scan_source_incremental(&src, &cache).unwrap());
        incr_iters += 1;
    }
    let incr_secs = start.elapsed().as_secs_f64();

    // Full: parse + whole-program fixpoint per edit, no cache.
    let start = Instant::now();
    let mut full_iters = 0u64;
    while start.elapsed() < window {
        let src = chain_unit(full_iters + 1);
        std::hint::black_box(engine.analyze(&parse(&src).unwrap()));
        full_iters += 1;
    }
    let full_secs = start.elapsed().as_secs_f64();

    let mk = |iters: u64, secs: f64| ConfigResult {
        throughput_elem_per_s: iters as f64 / secs,
        iters,
        ms_per_iter: secs * 1e3 / iters.max(1) as f64,
        stages: BTreeMap::new(),
    };
    (mk(incr_iters, incr_secs), mk(full_iters, full_secs))
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn speedup(entry: &Entry) -> f64 {
    let incr = entry.configs.get("incremental_edit").map(|c| c.throughput_elem_per_s);
    let full = entry.configs.get("full_reanalysis").map(|c| c.throughput_elem_per_s);
    match (incr, full) {
        (Some(i), Some(f)) if f > 0.0 => i / f,
        _ => 0.0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let label = arg_value(&args, "--label").unwrap_or_else(|| "measurement".into());
    // The regression gate compares against the committed full-window
    // baseline, so a gated run must use the same window — a 400ms slice
    // is systematically slower (warmup weighs more) and would trip the
    // gate spuriously.
    if quick && check {
        println!("bench_serve: --check forces the full window (ignoring --quick)");
    }
    let window = if quick && !check { Duration::from_millis(400) } else { Duration::from_secs(2) };

    let srcs = sources();
    println!("bench_serve: {} request sources, window {window:?}", srcs.len());

    let mut configs = BTreeMap::new();
    for (name, clients) in [("serve_jobs1", 1usize), ("serve_jobs4", 4)] {
        let r = measure_serve(clients, window);
        let lat = r.stages.get("serve.latency_micros");
        println!(
            "  {name:<16} {:>9.1} req/s   p50 {:>7.1} us   p99 {:>8.1} us",
            r.throughput_elem_per_s,
            lat.map_or(0.0, |l| l.p50_us),
            lat.map_or(0.0, |l| l.p99_us),
        );
        configs.insert(name.to_string(), r);
    }

    let (incr, full) = measure_incremental(window);
    println!(
        "  incremental_edit {:>9.1} iters/s   full_reanalysis {:>9.1} iters/s   speedup {:.1}x",
        incr.throughput_elem_per_s,
        full.throughput_elem_per_s,
        incr.throughput_elem_per_s / full.throughput_elem_per_s.max(1e-9),
    );
    configs.insert("incremental_edit".to_string(), incr);
    configs.insert("full_reanalysis".to_string(), full);

    let entry = Entry {
        label,
        unix_time: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        quick,
        corpus: srcs.len(),
        configs,
    };

    let mut trajectory = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str::<Trajectory>(&s).ok())
        .unwrap_or_else(|| Trajectory {
            benchmark: "serve_throughput".into(),
            history: Vec::new(),
        });

    if check {
        let Some(committed) = trajectory.history.last() else {
            eprintln!("bench_serve --check: no committed baseline in {out}");
            std::process::exit(2);
        };
        let key = "serve_jobs1";
        let base = committed.configs.get(key).map(|c| c.throughput_elem_per_s).unwrap_or(0.0);
        let now = entry.configs.get(key).map(|c| c.throughput_elem_per_s).unwrap_or(0.0);
        let ratio = if base > 0.0 { now / base } else { 1.0 };
        println!(
            "gate: {key} committed {base:.1} req/s, measured {now:.1} req/s ({:.1}%)",
            ratio * 100.0
        );
        if ratio < 0.90 {
            eprintln!("bench_serve --check: sustained throughput regressed more than 10%");
            std::process::exit(1);
        }
        let s = speedup(&entry);
        println!("gate: incremental speedup {s:.1}x (floor 5x)");
        if s < 5.0 {
            eprintln!("bench_serve --check: incremental edit speedup fell below 5x");
            std::process::exit(1);
        }
        println!("gate: within budget");
        return;
    }

    trajectory.history.push(entry);
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(&out, json + "\n").expect("write trajectory file");
    println!(
        "wrote {out} ({} entr{})",
        trajectory.history.len(),
        if trajectory.history.len() == 1 { "y" } else { "ies" }
    );
}
