//! The traced run: per-layer numbers for one workload, measured on that
//! workload's own inputs.
//!
//! Four probes, each driving public entry points only:
//!
//! 1. **Layer replay** — every unit goes through the lexer, parser, CFG
//!    builder, taint analysis, semantic engine (abstract interpretation),
//!    rule engine, auto-fixer and ML scorer, plus one clone-index build,
//!    with a benchmark span around each call. The replay runs untraced and
//!    traced, alternately, which gives `trace.overhead_ratio`.
//! 2. **Workflow** — fresh engines process the units at `jobs = 1` and at
//!    `jobs = nproc`; the engine's own counters and span sums give the
//!    stage, detector, clone and (for the batch workload) cache numbers.
//! 3. **Service** — a fresh `ServiceCore` handles the request stream in
//!    order: protocol parse, handle and encode are timed per request, and
//!    its cache counters give the incremental-cache numbers of the serve
//!    workloads.
//! 4. **Server** — a short open-loop ladder against a spawned server gives
//!    the server-side numbers, the generator's own lateness, and
//!    `serve.max_rate_rps`.

use crate::batch::{report_bytes, BatchSetup};
use crate::inputs::{self, Stream};
use crate::machine;
use crate::metrics::{Outcome, Values};
use crate::online::{self, Profile, Session};
use crate::serve::{run_step, Step};
use crate::stats;
use crate::trace::Tracer;
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use vulnman_analysis::{AutoFixer, RuleEngine, SemanticEngine};
use vulnman_core::DegradationSummary;
use vulnman_faults::FaultConfig;
use vulnman_lang::cfg::Cfg;
use vulnman_lang::clone::{CloneConfig, CloneIndex};
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_lang::Stage;
use vulnman_obs::Registry;
use vulnman_serve::{parse_request, ServiceCore};
use vulnman_synth::Sample;

/// Stream requests replayed, as units, through the layers and the workflow
/// probe (the batch workload replays its whole corpus).
const UNIT_LIMIT: usize = 400;

/// Requests the service probe handles in order.
const SERVICE_LIMIT: usize = 2000;

/// Passes per job count in the workflow probe.
const WORKFLOW_PASSES: usize = 3;

/// Share of `--seconds` the batch workload's traced run spends on further
/// `jobs = nproc` passes, for its tail pass time.
const BATCH_TAIL_SHARE: f64 = 0.3;

/// Replays per mode (untraced, traced) in the layer probe.
const REPLAYS: usize = 2;

/// Share of `--seconds` the server probe's ladder runs for.
const SERVER_PROBE_SHARE: f64 = 0.4;

/// Span names of `ServiceCore::handle`, one per request kind.
const HANDLE_LINT: &str = "serve.service.handle.lint";
const HANDLE_ANALYZE: &str = "serve.service.handle.analyze";

/// Absint domains, as named in `absint.domain.<d>_micros`.
const DOMAINS: [&str; 6] = ["interval", "nullness", "init", "ownership", "width", "provenance"];

/// Spans that are layer calls (everything but the per-unit root).
const LAYER_SPANS: [&str; 9] = [
    "lang.lex",
    "lang.parse",
    "lang.cfg",
    "lang.taint",
    "analysis.semantic",
    "analysis.rules",
    "analysis.autofix",
    "ml.score",
    "lang.clone",
];

/// Result of a traced run.
pub struct TraceRun {
    /// Per-layer values; the operations are workflow passes and server
    /// requests, each checked against its reference.
    pub outcome: Outcome,
    /// Every recorded span.
    pub tracer: Tracer,
}

/// Which workload the traced run measures.
pub enum Traced {
    /// `batch_projects`.
    Batch,
    /// A serve workload.
    Serve(Profile),
}

/// Runs the traced probes for one workload.
pub fn run(workload: Traced, seed: u64, seconds: f64) -> TraceRun {
    let setup = BatchSetup::new(seed);
    let (profile, units, stream) = match workload {
        Traced::Batch => {
            let profile = online::CHURN;
            let n = probe_requests(profile, seconds);
            let stream = inputs::corpus_stream(&setup.corpus, seed, n);
            (profile, setup.corpus.samples().to_vec(), stream)
        }
        Traced::Serve(profile) => {
            let n = probe_requests(profile, seconds).max(SERVICE_LIMIT);
            let stream = (profile.stream)(seed, n);
            (profile, stream.samples(UNIT_LIMIT), stream)
        }
    };
    let units = units.as_slice();
    let mut values = Values::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // 1. Layer replay, untraced and traced in turn.
    let mut tracer = Tracer::new(true);
    let absint = Registry::new();
    vulnman_analysis::checkers::register_absint_instruments(&absint);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for _ in 0..REPLAYS {
        let t = Instant::now();
        replay(units, &setup, &mut Tracer::new(false), &Registry::new());
        untraced_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        replay(units, &setup, &mut tracer, &absint);
        traced_s += t.elapsed().as_secs_f64();
    }
    values.insert("trace.overhead_ratio", traced_s / untraced_s);
    layer_values(&tracer, &absint, &setup, &mut values);

    // 2. Workflow probe.
    let tail_budget = match workload {
        Traced::Batch => seconds * BATCH_TAIL_SHARE,
        Traced::Serve(_) => 0.0,
    };
    let workflow = workflow_probe(units, &setup, tail_budget);
    attempted += workflow.passes;
    failed += workflow.mismatched;
    let self_ns: u64 = tracer
        .self_time_ns()
        .iter()
        .filter(|(name, _)| LAYER_SPANS.contains(name))
        .map(|(_, ns)| ns)
        .sum();
    values.insert("trace.coverage", self_ns as f64 / 1e9 / REPLAYS as f64 / workflow.jobs1_s);
    values.insert("core.shard.speedup", workflow.jobs1_s / workflow.jobsn_s);
    engine_values(&workflow.metrics, units.len(), &mut values);

    // 3. Service probe.
    let service = service_probe(&stream, &mut tracer);
    values.extend(service.values.iter().map(|(k, v)| (*k, *v)));
    if let Traced::Serve(_) = workload {
        cache_values(&service.metrics, service.handled, &mut values);
    }

    // 4. Server probe.
    let steal = machine::StealMeter::start();
    let sizes = profile.step_sizes(seconds * SERVER_PROBE_SHARE);
    let mut session = Session::start(&stream, service.encoded.keys().copied().collect());
    let steps = online::run_ladder(&mut session, &stream, profile, &sizes);
    let at = online::WARMUP_REQUESTS + sizes.iter().sum::<usize>();
    let overload_n = overload_requests(seconds);
    let overload = run_step(&mut session.client, &stream, at..at + overload_n, online::OVERLOAD.0);
    let server = session.metrics.clone();
    let warmup = std::mem::take(&mut session.warmup);
    session.stop();
    values.insert("machine.steal_share", steal.share());
    let replies: Vec<_> =
        warmup.iter().chain(steps.iter().chain([&overload]).flat_map(|s| &s.replies)).collect();
    attempted += replies.len() as u64;
    failed += replies.iter().filter(|r| !r.ok).count() as u64;
    // Every server reply the service probe also produced must match it.
    failed += replies
        .iter()
        .filter(|r| r.ok)
        .filter(|r| service.encoded.get(&r.index).is_some_and(|e| e.as_bytes() != r.raw.as_slice()))
        .count() as u64;
    values.insert("serve.capacity_rps", overload.goodput_rps);
    server_values(&server, &steps, profile, service.handle_p50_us, &mut values);
    let tail_ms = match workload {
        Traced::Batch => stats::tail(&workflow.jobsn_ms, crate::batch::TAIL_PCT).1,
        Traced::Serve(_) => {
            let reference =
                steps.iter().find(|s| s.rate == profile.reference).expect("reference step");
            stats::tail(&reference.steady_latencies(), online::TAIL_PCT).1
        }
    };
    values.insert("latency_ms.tail", tail_ms);

    values.insert("workload.duplicate_share", duplicate_share(&workload, &setup, &stream));
    values.insert("workload.resident_share", service.resident_share);
    values.insert("workload.novel_share", novel_function_share(units));
    values.insert("failed_ratio", stats::ratio(failed as f64, attempted as f64));
    values.insert("machine.nproc", machine::nproc() as f64);
    values.insert("peak_rss_mb", machine::peak_rss_mb());
    let notes = vec![format!(
        "traced: {} units through every layer ({REPLAYS} untraced + {REPLAYS} traced replays), \
         {} workflow passes, {} service requests, {} server requests",
        units.len(),
        workflow.passes,
        service.handled,
        replies.len()
    )];
    TraceRun { outcome: Outcome { values, attempted, failed, notes }, tracer }
}

/// Requests the server probe sends (warm-up and overload step included).
fn probe_requests(profile: Profile, seconds: f64) -> usize {
    online::WARMUP_REQUESTS
        + profile.step_sizes(seconds * SERVER_PROBE_SHARE).iter().sum::<usize>()
        + overload_requests(seconds)
}

/// Requests of the overload step.
fn overload_requests(seconds: f64) -> usize {
    let (rate, share) = online::OVERLOAD;
    (rate * share * seconds).round() as usize
}

/// One pass of every unit through every layer, one span per call.
fn replay(units: &[Sample], setup: &BatchSetup, tracer: &mut Tracer, absint: &Registry) {
    let taint = TaintConfig::default_config();
    let semantic = SemanticEngine::new();
    let rules = RuleEngine::default_suite();
    let fixer = AutoFixer::new();
    let model = setup.ml.model();
    for unit in units {
        let id = unit.id;
        let src = unit.source.as_str();
        let root = tracer.open("replay.unit", None, id);
        black_box(tracer.time("lang.lex", root, id, || vulnman_lang::lexer::lex(src)).ok());
        let Ok(program) = tracer.time("lang.parse", root, id, || vulnman_lang::parse(src)) else {
            tracer.close(root);
            continue;
        };
        for f in &program.functions {
            black_box(tracer.time("lang.cfg", root, id, || Cfg::build(f)));
        }
        black_box(tracer.time("lang.taint", root, id, || TaintAnalysis::run(&program, &taint)));
        let sem = tracer
            .time("analysis.semantic", root, id, || semantic.scan_with_metrics(&program, absint));
        let found = tracer.time("analysis.rules", root, id, || rules.scan(&program));
        if let Some(cwe) = sem.iter().chain(&found).map(|f| f.cwe).find(|c| AutoFixer::supports(*c))
        {
            black_box(tracer.time("analysis.autofix", root, id, || fixer.fix_source(src, cwe)));
        }
        black_box(tracer.time("ml.score", root, id, || model.predict_proba(unit)));
        tracer.close(root);
    }
    let sources: Vec<(u64, &str)> = units.iter().map(|u| (u.id, u.source.as_str())).collect();
    black_box(
        tracer.time("lang.clone", None, 0, || CloneIndex::build(&sources, CloneConfig::default())),
    );
}

/// Durations in µs of every span named `name`.
fn durations_us(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer.spans().iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// Mean span duration in µs over all spans named `name` (`0` when none).
fn mean_us(tracer: &Tracer, name: &str) -> f64 {
    stats::mean(&durations_us(tracer, name))
}

fn layer_values(tracer: &Tracer, absint: &Registry, setup: &BatchSetup, values: &mut Values) {
    let replays = REPLAYS as f64;
    values.insert("lang.lex.us_per_unit", mean_us(tracer, "lang.lex"));
    values.insert("lang.parse.us_per_unit", mean_us(tracer, "lang.parse"));
    values.insert("lang.cfg.us_per_fn", mean_us(tracer, "lang.cfg"));
    values.insert("lang.taint.us_per_unit", mean_us(tracer, "lang.taint"));
    values.insert("analysis.semantic.us_per_unit", mean_us(tracer, "analysis.semantic"));
    values.insert("analysis.rules.us_per_unit", mean_us(tracer, "analysis.rules"));
    values.insert("analysis.autofix.us_per_fix", mean_us(tracer, "analysis.autofix"));
    values.insert("ml.score.us_per_sample", mean_us(tracer, "ml.score"));
    values.insert("lang.clone.build_ms", mean_us(tracer, "lang.clone") / 1e3);
    values.insert("ml.train_ms", setup.train.as_secs_f64() * 1e3);
    let busy = [
        "lang.absint.interval.busy_ms",
        "lang.absint.nullness.busy_ms",
        "lang.absint.init.busy_ms",
        "lang.absint.ownership.busy_ms",
        "lang.absint.width.busy_ms",
        "lang.absint.provenance.busy_ms",
    ];
    for (name, domain) in busy.into_iter().zip(DOMAINS) {
        let micros = absint.histogram(&format!("absint.domain.{domain}_micros")).sum();
        values.insert(name, micros as f64 / 1e3 / replays);
    }
    let per_replay = |c: &str| absint.counter(c).get() as f64 / replays;
    values.insert("lang.absint.solver.iterations", per_replay("absint.solver.iterations"));
    values.insert("lang.absint.solver.widenings", per_replay("absint.solver.widenings"));
}

/// What the workflow probe measured.
struct Workflow {
    /// Median `jobs = 1` pass, seconds.
    jobs1_s: f64,
    /// Median `jobs = nproc` pass, seconds.
    jobsn_s: f64,
    /// Every `jobs = nproc` pass, ms.
    jobsn_ms: Vec<f64>,
    /// Registry of one `jobs = nproc` pass.
    metrics: Registry,
    /// Passes run.
    passes: u64,
    /// Passes whose report differed from the first `jobs = 1` report.
    mismatched: u64,
}

/// [`WORKFLOW_PASSES`] passes at `jobs = 1` and at `jobs = nproc` in turn,
/// then more `jobs = nproc` passes for `tail_budget` seconds.
fn workflow_probe(units: &[Sample], setup: &BatchSetup, tail_budget: f64) -> Workflow {
    let jobs = machine::nproc();
    let mut reference = None;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let mut mismatched = 0;
    let mut metrics = Registry::new();
    let mut pass = |j: usize| {
        let registry = Registry::new();
        let (dt, report) = setup.pass(units, j, registry.clone());
        let bytes = report_bytes(&report);
        if *reference.get_or_insert_with(|| bytes.clone()) != bytes {
            mismatched += 1;
        }
        (dt.as_secs_f64(), registry)
    };
    for _ in 0..WORKFLOW_PASSES {
        one.push(pass(1).0);
        let (dt, registry) = pass(jobs);
        many.push(dt);
        metrics = registry;
    }
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < tail_budget {
        many.push(pass(jobs).0);
    }
    Workflow {
        jobs1_s: stats::median(&one).expect("jobs=1 passes"),
        jobsn_s: stats::median(&many).expect("jobs=nproc passes"),
        jobsn_ms: many.iter().map(|s| s * 1e3).collect(),
        passes: (one.len() + many.len()) as u64,
        metrics,
        mismatched,
    }
}

/// Stage, detector, clone and cache numbers of one `jobs = nproc` pass.
fn engine_values(m: &Registry, samples: usize, values: &mut Values) {
    let busy_ms = |h: &str| m.histogram(h).sum() as f64 / 1e3;
    values.insert("core.stage.assess.busy_ms", busy_ms("span.stage.assess"));
    values.insert("core.stage.assess.detect.busy_ms", busy_ms("span.stage.assess.detect"));
    values.insert("core.stage.review.busy_ms", busy_ms("span.stage.review"));
    values.insert("core.stage.repair.busy_ms", busy_ms("span.stage.repair"));
    values.insert("core.detector.rule-suite.busy_ms", busy_ms("detector.rule-suite.micros"));
    values
        .insert("core.detector.semantic-suite.busy_ms", busy_ms("detector.semantic-suite.micros"));
    values.insert(
        "core.detector.ml.busy_ms",
        busy_ms(&format!("detector.{}.micros", inputs::ML_NAME)),
    );
    let count = |c: &str| m.counter(c).get() as f64;
    values.insert(
        "lang.clone.propagated_ratio",
        stats::ratio(count("clone.propagated"), count("clone.duplicates")),
    );
    values.insert("lang.clone.align_fallbacks", count("clone.align_fallback"));
    cache_values(m, samples, values);
}

/// Cache and incremental-stage hit ratios from a registry the cache
/// recorded into, with `requests` the operations that used it.
fn cache_values(m: &Registry, requests: usize, values: &mut Values) {
    let hit_ratio = |prefix: &str| {
        let hits = m.counter(&format!("{prefix}.hits")).get() as f64;
        let misses = m.counter(&format!("{prefix}.misses")).get() as f64;
        stats::ratio(hits, hits + misses)
    };
    for (name, stage) in [
        ("lang.incr.lex.hit_ratio", Stage::Lex),
        ("lang.incr.parse.hit_ratio", Stage::Parse),
        ("lang.incr.cfg.hit_ratio", Stage::Cfg),
        ("lang.incr.summary.hit_ratio", Stage::Summary),
        ("lang.incr.findings.hit_ratio", Stage::Findings),
    ] {
        values.insert(name, hit_ratio(&format!("incr.{}", stage.as_str())));
    }
    values.insert("lang.cache.hit_ratio", hit_ratio("cache"));
    values.insert(
        "lang.cache.evictions_per_req",
        stats::ratio(m.counter("cache.evictions").get() as f64, requests as f64),
    );
}

/// What the service probe measured.
struct Service {
    /// `serve.protocol.*` and `serve.service.*` values.
    values: Values,
    /// Registry of the probe's `ServiceCore`.
    metrics: Registry,
    /// Requests handled.
    handled: usize,
    /// Median handle time over every request, µs.
    handle_p50_us: f64,
    /// Share of requests whose unit's previous version was still cached.
    resident_share: f64,
    /// Encoded reply per request index.
    encoded: HashMap<usize, String>,
}

/// Handles the stream in order on a fresh `ServiceCore`, one span per
/// protocol step, tracking whether each unit survived eviction since its
/// previous version.
fn service_probe(stream: &Stream, tracer: &mut Tracer) -> Service {
    let metrics = Registry::new();
    let core = ServiceCore::new(&metrics, &FaultConfig::default());
    let ledger = Mutex::new(DegradationSummary::default());
    let evictions = metrics.counter("cache.evictions");
    let n = stream.len().min(SERVICE_LIMIT);
    let mut last_seen: HashMap<usize, u64> = HashMap::new();
    let mut resident = 0usize;
    let mut encoded = HashMap::with_capacity(n);
    for i in 0..n {
        let line = &stream.lines[i];
        let id = i as u64 + 1;
        let root = tracer.open("service.request", None, id);
        let req = tracer
            .time("serve.protocol.parse", root, id, || parse_request(&line[..line.len() - 1]))
            .expect("generated requests parse");
        if last_seen.get(&stream.unit[i]) == Some(&evictions.get()) {
            resident += 1;
        }
        let handle = if req.kind == "analyze" { HANDLE_ANALYZE } else { HANDLE_LINT };
        let resp = tracer.time(handle, root, id, || core.handle(&req, &ledger));
        last_seen.insert(stream.unit[i], evictions.get());
        let line = tracer.time("serve.protocol.encode", root, id, || resp.encode());
        tracer.close(root);
        encoded.insert(i, line);
    }
    let mut values = Values::new();
    values.insert("serve.protocol.parse_us", mean_us(tracer, "serve.protocol.parse"));
    values.insert("serve.protocol.encode_us", mean_us(tracer, "serve.protocol.encode"));
    values.insert("serve.service.handle_us.lint", mean_us(tracer, HANDLE_LINT));
    values.insert("serve.service.handle_us.analyze", mean_us(tracer, HANDLE_ANALYZE));
    let mut handle_us = durations_us(tracer, HANDLE_LINT);
    handle_us.extend(durations_us(tracer, HANDLE_ANALYZE));
    Service {
        values,
        metrics,
        handled: n,
        handle_p50_us: stats::median(&handle_us).unwrap_or(0.0),
        resident_share: stats::ratio(resident as f64, n as f64),
        encoded,
    }
}

fn server_values(
    m: &Registry,
    steps: &[Step],
    profile: Profile,
    handle_p50_us: f64,
    values: &mut Values,
) {
    let lat = m.histogram("serve.latency_micros");
    values
        .insert("serve.server.handle_us.mean", stats::ratio(lat.sum() as f64, lat.count() as f64));
    values.insert("serve.server.shed", m.counter("serve.shed").get() as f64);
    values.insert("serve.server.queue_depth_peak", m.gauge("serve.queue_depth_peak").get() as f64);
    values.insert("serve.max_rate_rps", online::max_rate(steps));
    let late: Vec<f64> = steps.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
    values.insert("gen.late_ms.p99", stats::percentile(&late, 99.0).unwrap_or(0.0));
    let reference = steps.iter().find(|s| s.rate == profile.reference).expect("reference step");
    let client_p50_us = stats::median(&reference.steady_latencies()).unwrap_or(0.0) * 1e3;
    values.insert("serve.transport_us", client_p50_us - handle_p50_us);
}

/// Share of units that near-duplicate another unit of the input: synthetic
/// duplicates in the batch corpus, repeat versions of a unit in a stream.
fn duplicate_share(workload: &Traced, setup: &BatchSetup, stream: &Stream) -> f64 {
    match workload {
        Traced::Batch => inputs::duplicate_share(setup.corpus.samples()),
        Traced::Serve(_) => {
            let n = stream.len().min(SERVICE_LIMIT);
            let mut seen = HashSet::new();
            let repeats = stream.unit[..n].iter().filter(|u| !seen.insert(**u)).count();
            stats::ratio(repeats as f64, n as f64)
        }
    }
}

/// Share of units none of whose functions appeared, with identical source
/// text, in an earlier unit.
fn novel_function_share(units: &[Sample]) -> f64 {
    let mut seen: HashSet<String> = HashSet::new();
    let novel = units
        .iter()
        .filter(|u| {
            let Ok(program) = vulnman_lang::parse(&u.source) else { return false };
            let texts: Vec<&str> =
                program.functions.iter().map(|f| &u.source[f.span.start..f.span.end]).collect();
            let all_new = texts.iter().all(|t| !seen.contains(*t));
            seen.extend(texts.into_iter().map(str::to_string));
            all_new
        })
        .count();
    stats::ratio(novel as f64, units.len() as f64)
}
