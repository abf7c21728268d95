//! `vulnman` — command-line front end for the vulnerability-management
//! platform.
//!
//! ```text
//! vulnman scan <file> [--dynamic] [--sanitizer <name>]...   scan a mini-C unit
//! vulnman lint <file>...                                     semantic (abstract-interpretation) checkers
//! vulnman fix <file> [--cwe <id>]                            auto-fix and print the patch
//! vulnman exec <file>                                        run under the sanitizer interpreter
//! vulnman gen [--seed N] [--count N] [--fraction F] [--out <dir>]
//!                                                            generate a labeled corpus
//! vulnman workflow [--seed N] [--count N] [--fraction F] [--jobs N] [--no-cache]
//!                  [--dedup] [--fault-seed N] [--fault-rate F] [--max-retries N]
//!                  [--report-out FILE] [--metrics-out FILE] [--metrics-prom FILE]
//!                  [--metrics-summary]
//!                                                            run the Figure-1 pipeline
//! vulnman oracle [--seed N] [--count N] [--fraction F] [--noise F] [--jobs N]
//!                [--clones] [--report-out FILE] [--baseline FILE] [--write-baseline FILE]
//!                [--shrink-golden DIR] [--max-shrunk N]
//!                                                            differential disagreement triage
//! vulnman clones <file>... [--threshold F] [--shingle-k N] [--jobs N]
//!                                                            group files into near-clone classes
//! vulnman graph [--seed N] [--count N] [--fraction F] [--jobs N] [--no-cache]
//!               [--top N] [--report-out FILE] [--metrics-out FILE]
//!                                                            corpus call graph + blast-radius triage
//! vulnman audit [--check] [--baseline FILE] [--write-baseline] [--seed N]
//!               [--samples N] [--jobs N] [--no-ml] [--out FILE] [--report-out FILE]
//!                                                            detector coverage × precision matrix
//! vulnman sft [--seed N] [--count N]                         print an SFT dataset (JSONL)
//! vulnman serve [--addr H:P] [--workers N] [--queue N] [--max-request-bytes N]
//!               [--fault-rate F] [--fault-seed N] [--max-retries N]
//!                                                            run the concurrent analysis service
//! ```

use std::process::ExitCode;
use vulnman::analysis::detectors::RuleEngine;
use vulnman::analysis::reachability::surfaces;
use vulnman::analysis::severity::{score, triage_order};
use vulnman::core::sft::harvest;
use vulnman::lang::interp::{run_program, InterpConfig};
use vulnman::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "scan" => cmd_scan(rest),
        "lint" => return cmd_lint(rest),
        "fix" => cmd_fix(rest),
        "exec" => cmd_exec(rest),
        "gen" => cmd_gen(rest),
        "workflow" => cmd_workflow(rest),
        "oracle" => cmd_oracle(rest),
        "clones" => cmd_clones(rest),
        "graph" => cmd_graph(rest),
        "audit" => cmd_audit(rest),
        "sft" => cmd_sft(rest),
        "serve" => cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: vulnman <scan|lint|fix|exec|gen|workflow|oracle|clones|graph|audit|sft|serve|help> [options]
  scan <file> [--dynamic] [--sanitizer <name>]   scan a mini-C unit
  lint <file>...                                 run only the semantic (abstract-
                                                 interpretation) checkers; print evidence
                                                 traces; exit 1 when any finding survives
  fix <file> [--cwe <id>]                        auto-fix and print the patch
  exec <file>                                    run under the sanitizer interpreter
  gen [--seed N] [--count N] [--fraction F] [--out DIR]
  workflow [--seed N] [--count N] [--fraction F] [--jobs N] [--no-cache]
           [--dedup]                analyze one representative per near-clone
                                    class and propagate findings to members
           [--fault-rate F]         inject seeded faults at this rate (chaos mode)
           [--fault-seed N]         fault-plan seed (default 0; independent of --seed)
           [--max-retries N]        retry budget per faulted call (default 3)
           [--report-out FILE]      write the full workflow report as JSON
           [--metrics-out FILE]     dump the metrics snapshot as JSON
           [--metrics-prom FILE]    dump Prometheus text exposition
           [--metrics-summary]      print the per-stage timing table
  oracle [--seed N] [--count N] [--fraction F] [--noise F] [--jobs N] [--no-cache]
           [--clones]               add the corpus-level clone-consistency view
           [--report-out FILE]      write the full disagreement report as JSON
           [--baseline FILE]        fail if analyzer-defect count exceeds this baseline
           [--write-baseline FILE]  record the current analyzer-defect count
           [--shrink-golden DIR]    shrink disagreements into a golden reproducer corpus
           [--max-shrunk N]         cap golden reproducers written (default 12)
           [--metrics-out FILE] [--metrics-prom FILE] [--metrics-summary]
  clones <file>... [--threshold F] [--shingle-k N] [--jobs N]
                                                 group mini-C files into verified
                                                 near-clone classes (MinHash/LSH)
  graph [--seed N] [--count N] [--fraction F] [--jobs N] [--no-cache]
           [--top N]                blast-radius leaders to print (default 10)
           [--report-out FILE]      write the full corpus-graph report as JSON
           [--metrics-out FILE] [--metrics-prom FILE] [--metrics-summary]
                                                 build the cross-sample call graph over a
                                                 generated multi-file corpus and rank
                                                 functions by blast radius
  audit [--check]            fail when the matrix regresses against the baseline
           [--baseline FILE]        committed baseline (default tests/audit_baseline.json)
           [--write-baseline]       record the current matrix as the baseline
           [--seed N] [--samples N] [--jobs N]
                                    audit corpus parameters (byte-identical at any --jobs)
           [--no-ml]                drop the trained-model column (faster; static only)
           [--out FILE]             write the matrix as JSON
           [--report-out FILE]      write the matrix as markdown (the CI artifact)
           [--metrics-out FILE] [--metrics-prom FILE] [--metrics-summary]
                                                 CWE × detector-family coverage/precision
                                                 matrix over a seeded per-class corpus
  sft [--seed N] [--count N]
  serve [--addr H:P]         listen address (default 127.0.0.1:7433; port 0 = ephemeral)
           [--workers N]            worker threads executing requests (default 4)
           [--queue N]              admission bound; excess requests are shed (default 64)
           [--max-request-bytes N]  per-line/body byte cap (default 1 MiB)
           [--fault-rate F] [--fault-seed N] [--max-retries N]
                                    inject seeded faults per request (chaos mode)
        clients send JSONL requests {\"id\",\"kind\":analyze|lint|oracle|clones|graph|audit,\"source\",...}
        or a single HTTP POST with the same JSON body";

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: {v}")),
    }
}

fn read_source(args: &[String]) -> Result<(String, String), String> {
    let path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| "missing <file> argument".to_string())?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((path.clone(), source))
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let (path, source) = read_source(args)?;
    let program = parse(&source).map_err(|e| format!("{path}: {e}"))?;

    let mut engine = if flag_present(args, "--dynamic") {
        RuleEngine::full_suite()
    } else {
        RuleEngine::default_suite()
    };
    // Team sanitizer customization (repeatable flag).
    let sanitizers: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--sanitizer")
        .filter_map(|(i, _)| args.get(i + 1).map(String::as_str))
        .collect();
    if !sanitizers.is_empty() {
        let mut config = TaintConfig::default_config();
        for s in &sanitizers {
            config.add_sanitizer(s.to_string());
        }
        // Rebuild the suite with the team-customized taint detector in
        // place of the stock one.
        let mut custom = RuleEngine::suite_with_taint(config.clone());
        if flag_present(args, "--dynamic") {
            let interp_config =
                vulnman::lang::interp::InterpConfig { taint: config, ..Default::default() };
            custom.register(Box::new(vulnman::analysis::dynamic::DynamicSanitizer::with_config(
                interp_config,
            )));
        }
        engine = custom;
    }

    let surfaces = surfaces(&program);
    let mut findings: Vec<_> = engine
        .scan(&program)
        .into_iter()
        .map(|f| {
            let surface = surfaces.get(&f.function).copied().unwrap_or(Surface::Local);
            score(f, surface)
        })
        .collect();
    triage_order(&mut findings);
    if findings.is_empty() {
        println!("{path}: no findings");
        return Ok(());
    }
    println!("{path}: {} finding(s)", findings.len());
    for s in &findings {
        println!(
            "  [{:>5.2}] line {:>3}  {}  in `{}` ({:?}) — {} [{}]",
            s.priority,
            s.finding.line(),
            s.finding.cwe,
            s.finding.function,
            s.surface,
            s.finding.message,
            s.finding.detector,
        );
    }
    Ok(())
}

/// `vulnman lint` — the semantic (abstract-interpretation) checkers only.
/// Every finding carries a machine-checkable evidence trace (the abstract
/// state at the report point plus the claim derived from it), printed here
/// so a reviewer can audit the proof. Exits non-zero when any finding
/// survives, so the command slots directly into CI gates.
fn cmd_lint(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("error: missing <file> argument\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let engine = vulnman::analysis::checkers::SemanticEngine::new();
    let mut total = 0usize;
    for path in files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let program = match parse(&source) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let scan = engine.analyze(&program);
        if scan.findings.is_empty() {
            println!("{path}: clean ({} solver iteration(s))", scan.stats.iterations);
        } else {
            println!("{path}: {} semantic finding(s)", scan.findings.len());
        }
        for f in &scan.findings {
            println!(
                "  line {:>3}  {}  in `{}` ({:?}) — {} [{}]",
                f.line(),
                f.cwe,
                f.function,
                f.confidence,
                f.message,
                f.detector,
            );
            if let Some(ev) = &f.evidence {
                println!("           evidence: {ev}");
            }
        }
        total += scan.findings.len();
    }
    if total > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_fix(args: &[String]) -> Result<(), String> {
    let (path, source) = read_source(args)?;
    let program = parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let fixer = AutoFixer::new();
    // Which classes to try: an explicit --cwe id, or whatever the scan finds.
    let classes: Vec<Cwe> = match flag_value(args, "--cwe") {
        Some(id) => {
            let id: u32 = id.parse().map_err(|_| format!("invalid CWE id: {id}"))?;
            vec![Cwe::ALL
                .into_iter()
                .find(|c| c.id() == id)
                .ok_or_else(|| format!("unsupported CWE-{id}"))?]
        }
        None => {
            let mut found: Vec<Cwe> =
                RuleEngine::default_suite().scan(&program).iter().map(|f| f.cwe).collect();
            found.sort_by_key(|c| c.id());
            found.dedup();
            found
        }
    };
    if classes.is_empty() {
        println!("{path}: nothing to fix");
        return Ok(());
    }
    let mut current = source;
    let mut applied = Vec::new();
    for cwe in classes {
        if let Some(patched) = fixer.fix_source(&current, cwe) {
            current = patched;
            applied.push(cwe);
        } else {
            eprintln!("note: no unified mechanical fix for {cwe}; route to expert review");
        }
    }
    if applied.is_empty() {
        println!("{path}: no mechanical fixes applied");
    } else {
        eprintln!(
            "applied fixes: {}",
            applied.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
        );
        println!("{current}");
    }
    Ok(())
}

fn cmd_exec(args: &[String]) -> Result<(), String> {
    let (path, source) = read_source(args)?;
    let program = parse(&source).map_err(|e| format!("{path}: {e}"))?;
    let report = run_program(&program, &InterpConfig::default());
    println!(
        "{path}: ran {} entry point(s), {} crashed",
        report.entries_run.len(),
        report.crashed.len()
    );
    for e in &report.events {
        println!("  line {:>3}  {:?} in `{}`", e.span.line, e.kind, e.function);
    }
    if report.events.is_empty() {
        println!("  no runtime faults under the adversarial input model");
    }
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let count: usize = parse_num(args, "--count", 20)?;
    let fraction: f64 = parse_num(args, "--fraction", 0.5)?;
    let ds =
        DatasetBuilder::new(seed).vulnerable_count(count).vulnerable_fraction(fraction).build();
    match flag_value(args, "--out") {
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            for s in &ds {
                let label = if s.label { "vuln" } else { "benign" };
                let file = format!("{dir}/sample_{:04}_{label}.c", s.id);
                std::fs::write(&file, &s.source).map_err(|e| format!("write {file}: {e}"))?;
            }
            let index = serde_json::to_string_pretty(ds.samples())
                .map_err(|e| format!("serialize: {e}"))?;
            std::fs::write(format!("{dir}/index.json"), index)
                .map_err(|e| format!("write index: {e}"))?;
            println!("wrote {} samples to {dir}/ (sources + index.json)", ds.len());
        }
        None => {
            let json = serde_json::to_string_pretty(ds.samples()).map_err(|e| format!("{e}"))?;
            println!("{json}");
        }
    }
    Ok(())
}

fn cmd_workflow(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let count: usize = parse_num(args, "--count", 30)?;
    let fraction: f64 = parse_num(args, "--fraction", 0.15)?;
    let jobs: usize = parse_num(args, "--jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let ds =
        DatasetBuilder::new(seed).vulnerable_count(count).vulnerable_fraction(fraction).build();
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    let dedup = flag_present(args, "--dedup");
    let config = WorkflowConfig {
        jobs,
        cache: !flag_present(args, "--no-cache"),
        dedup,
        ..Default::default()
    };
    let fault_rate: f64 = parse_num(args, "--fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err("--fault-rate must be between 0 and 1".into());
    }
    let metrics = Registry::new();
    let engine = if fault_rate > 0.0 {
        let fault_config = FaultConfig {
            seed: parse_num(args, "--fault-seed", 0)?,
            rate: fault_rate,
            max_retries: parse_num(args, "--max-retries", 3)?,
            ..Default::default()
        };
        WorkflowEngine::with_fault_metrics(registry, config, fault_config, metrics.clone())
    } else {
        WorkflowEngine::with_metrics(registry, config, metrics.clone())
    };
    let report = engine.process(ds.samples());
    let m = report.detection_metrics();
    println!(
        "processed {} changes ({} vulnerable) on {jobs} worker{}",
        ds.len(),
        ds.vulnerable_count(),
        if jobs == 1 { "" } else { "s" }
    );
    println!(
        "detection: precision {:.3}, recall {:.3}, F1 {:.3}",
        m.precision(),
        m.recall(),
        m.f1()
    );
    println!(
        "repair: {} auto-fixed, {} AI-suggested, {} expert-fixed, {} escaped",
        report.auto_fixed, report.ai_fixed, report.expert_fixed, report.escaped
    );
    let cost = report.price(&CostParams::default());
    println!(
        "economics: {:.0} analyst minutes, net value ${:.0}",
        report.analyst_minutes, cost.net_value
    );
    let stats = engine.cache_stats();
    println!(
        "analysis cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    if dedup {
        println!(
            "clone dedup: {} multi-member class(es), {} duplicate(s), \
             {} assessment(s) propagated from representatives",
            metrics.counter("clone.classes").get(),
            metrics.counter("clone.duplicates").get(),
            metrics.counter("clone.propagated").get()
        );
    }
    if let Some(path) = flag_value(args, "--report-out") {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(fc) = engine.fault_config() {
        let deg = &report.degradation;
        let injected = deg.transient + deg.timeout + deg.corrupt + deg.crash;
        println!(
            "resilience: {injected} fault(s) injected (seed {}, rate {:.0}%), \
             {} recovered after {} retries, {} call(s) exhausted",
            fc.seed,
            fc.rate * 100.0,
            deg.recovered,
            deg.retries,
            deg.exhausted
        );
        if deg.is_degraded() {
            println!(
                "degradation: {} assessment(s) lost across {} sample(s); quarantined: {}",
                deg.assessments_lost,
                deg.degraded_samples,
                if deg.quarantined.is_empty() { "none".into() } else { deg.quarantined.join(", ") }
            );
        } else {
            println!("degradation: none — every fault recovered within the retry budget");
        }
    }
    write_metrics(args, &engine.metrics_snapshot())?;
    Ok(())
}

fn cmd_oracle(args: &[String]) -> Result<(), String> {
    use vulnman::analysis::oracle::{
        DefectBaseline, DifferentialOracle, DisagreementKind, GoldenCase, GoldenManifest,
        OracleConfig, View,
    };

    let seed: u64 = parse_num(args, "--seed", 42)?;
    let count: usize = parse_num(args, "--count", 100)?;
    let fraction: f64 = parse_num(args, "--fraction", 0.2)?;
    let noise: f64 = parse_num(args, "--noise", 0.05)?;
    let jobs: usize = parse_num(args, "--jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&noise) {
        return Err("--noise must be between 0 and 1".into());
    }
    let ds = DatasetBuilder::new(seed)
        .vulnerable_count(count)
        .vulnerable_fraction(fraction)
        .label_noise(noise)
        .build();
    let metrics = Registry::new();
    let config = OracleConfig { jobs, cache: !flag_present(args, "--no-cache") };
    let oracle = DifferentialOracle::with_metrics(config, &metrics);
    let report = if flag_present(args, "--clones") {
        oracle.run_with_clones(ds.samples())
    } else {
        oracle.run(ds.samples())
    };
    print!("{}", report.summary_table());
    if flag_present(args, "--clones") {
        println!(
            "  clone consistency: {} inconsistenc{} across verified clone classes",
            report.taxonomy.clone_inconsistency,
            if report.taxonomy.clone_inconsistency == 1 { "y" } else { "ies" }
        );
    }
    // Label-noise provenance cross-check: every noise-corrupted sample must
    // surface as a label-noise artifact (the dataset knows which labels it
    // flipped; the oracle must rediscover all of them from the outside).
    let planted = ds.mislabeled_ids().len();
    println!(
        "  label-noise recall: {} artifact(s) / {} planted corruption(s)",
        report.taxonomy.label_noise_artifact, planted
    );

    if let Some(path) = flag_value(args, "--report-out") {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }

    if let Some(dir) = flag_value(args, "--shrink-golden") {
        let max_shrunk: usize = parse_num(args, "--max-shrunk", 12)?;
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let by_id: std::collections::HashMap<u64, &vulnman::synth::sample::Sample> =
            ds.samples().iter().map(|s| (s.id, s)).collect();
        let mut manifest = GoldenManifest::default();
        // One reproducer per (cwe, view, kind) signature keeps the corpus
        // small while still covering every distinct disagreement shape.
        let mut seen_signatures = std::collections::BTreeSet::new();
        for d in &report.disagreements {
            if manifest.cases.len() >= max_shrunk {
                break;
            }
            if d.kind == DisagreementKind::LabelNoiseArtifact || d.view == View::RecordedLabel {
                continue; // nothing in the source encodes a recorded label
            }
            if !seen_signatures.insert((d.cwe, d.view, d.kind)) {
                continue;
            }
            let Some(sample) = by_id.get(&d.sample_id) else { continue };
            let truth = if sample.label { sample.cwe } else { None };
            let Some(outcome) = oracle.shrink(&sample.source, d, truth, sample.is_mislabeled())
            else {
                continue;
            };
            let cwe_tag = d.cwe.map_or_else(|| "parse".to_string(), |c| format!("cwe{}", c.id()));
            let file = format!("case_{:04}_{}_{}.c", d.sample_id, cwe_tag, d.kind.label());
            std::fs::write(format!("{dir}/{file}"), &outcome.source)
                .map_err(|e| format!("write {dir}/{file}: {e}"))?;
            eprintln!(
                "shrunk sample {} ({} -> {} bytes, {} step(s), {} attempt(s)) -> {file}",
                d.sample_id,
                sample.source.len(),
                outcome.source.len(),
                outcome.steps,
                outcome.attempts
            );
            manifest.cases.push(GoldenCase {
                file,
                sample_id: d.sample_id,
                cwe: d.cwe,
                view: d.view,
                kind: d.kind,
                truth,
                mislabeled: sample.is_mislabeled(),
                detail: d.detail.clone(),
            });
        }
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| format!("serialize manifest: {e}"))?;
        std::fs::write(format!("{dir}/manifest.json"), json)
            .map_err(|e| format!("write {dir}/manifest.json: {e}"))?;
        println!("golden corpus: {} reproducer(s) in {dir}/", manifest.cases.len());
    }

    if let Some(path) = flag_value(args, "--write-baseline") {
        let baseline = DefectBaseline { analyzer_defects: report.analyzer_defects() };
        let json = serde_json::to_string_pretty(&baseline)
            .map_err(|e| format!("serialize baseline: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("baseline written to {path}");
    }

    write_metrics(args, &metrics.snapshot())?;

    if let Some(path) = flag_value(args, "--baseline") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let baseline: DefectBaseline =
            serde_json::from_str(&json).map_err(|e| format!("parse {path}: {e}"))?;
        let found = report.analyzer_defects();
        if found > baseline.analyzer_defects {
            return Err(format!(
                "analyzer-defect regression: {found} defect(s) found, \
                 baseline allows {} — triage the new defects or consciously \
                 raise the baseline",
                baseline.analyzer_defects
            ));
        }
        println!(
            "  baseline check: {found} analyzer defect(s) <= {} allowed",
            baseline.analyzer_defects
        );
    }
    Ok(())
}

/// Shared `--metrics-out` / `--metrics-prom` / `--metrics-summary` handling.
fn write_metrics(args: &[String], snapshot: &vulnman::obs::Snapshot) -> Result<(), String> {
    if let Some(path) = flag_value(args, "--metrics-out") {
        let json = serde_json::to_string_pretty(snapshot)
            .map_err(|e| format!("serialize metrics: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = flag_value(args, "--metrics-prom") {
        std::fs::write(path, snapshot.to_prometheus()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("prometheus metrics written to {path}");
    }
    if flag_present(args, "--metrics-summary") {
        print!("{}", snapshot.render_summary());
    }
    Ok(())
}

/// `vulnman serve` — the concurrent analysis service. Binds, prints the
/// resolved address, and runs until killed.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use vulnman::serve::{spawn, ServeConfig, MAX_REQUEST_BYTES};

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7433");
    let workers: usize = parse_num(args, "--workers", 4)?;
    if workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let queue: usize = parse_num(args, "--queue", 64)?;
    let max_request_bytes: usize = parse_num(args, "--max-request-bytes", MAX_REQUEST_BYTES)?;
    let fault_rate: f64 = parse_num(args, "--fault-rate", 0.0)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err("--fault-rate must be between 0 and 1".into());
    }
    let fault = FaultConfig {
        seed: parse_num(args, "--fault-seed", 0)?,
        rate: fault_rate,
        max_retries: parse_num(args, "--max-retries", 3)?,
        ..Default::default()
    };
    let metrics = Registry::new();
    let config = ServeConfig { workers, queue, max_request_bytes, fault };
    let server = spawn(addr, config, &metrics).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "vulnman serve listening on {} ({workers} worker(s), queue bound {queue})",
        server.addr()
    );
    loop {
        std::thread::park();
    }
}

/// `vulnman clones` — groups mini-C files into verified near-clone classes
/// using the MinHash/LSH index (token shingles with normalized identifiers,
/// banded LSH candidates, exact-Jaccard verification). Singleton files are
/// listed once at the end; exit status is success either way, since clone
/// structure is information, not a defect.
fn cmd_clones(args: &[String]) -> Result<(), String> {
    use vulnman::lang::clone::{CloneConfig, CloneIndex};

    // Positional file arguments, skipping each value-taking flag's value so
    // `clones a.c b.c --threshold 0.7` does not treat `0.7` as a path.
    let value_flags = ["--threshold", "--shingle-k", "--jobs"];
    let mut files: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if value_flags.contains(&a.as_str()) {
            iter.next();
        } else if !a.starts_with("--") {
            files.push(a);
        }
    }
    if files.is_empty() {
        return Err(format!("missing <file> argument\n{USAGE}"));
    }
    let threshold: f64 = parse_num(args, "--threshold", CloneConfig::default().threshold)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err("--threshold must be between 0 and 1".into());
    }
    let shingle_k: usize = parse_num(args, "--shingle-k", CloneConfig::default().shingle_k)?;
    if shingle_k == 0 {
        return Err("--shingle-k must be at least 1".into());
    }
    let jobs: usize = parse_num(args, "--jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let config = CloneConfig { threshold, shingle_k, jobs, ..Default::default() };

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        sources.push(source);
    }
    let entries: Vec<(u64, &str)> =
        sources.iter().enumerate().map(|(i, s)| (i as u64, s.as_str())).collect();
    let index = CloneIndex::build(&entries, config);
    // Files the index skipped failed to lex; report them explicitly rather
    // than silently listing them as singletons.
    let indexed: std::collections::HashSet<u64> = index.entries().iter().map(|e| e.id).collect();
    let mut classes: Vec<Vec<usize>> = index
        .classes()
        .into_iter()
        .map(|c| c.iter().map(|&e| index.entries()[e as usize].id as usize).collect())
        .collect();
    classes.sort_by_key(|c| c[0]);

    let multi: Vec<&Vec<usize>> = classes.iter().filter(|c| c.len() > 1).collect();
    let duplicates: usize = multi.iter().map(|c| c.len() - 1).sum();
    println!(
        "{} file(s): {} clone class(es), {} near-duplicate(s) (threshold {:.2})",
        files.len(),
        multi.len(),
        duplicates,
        threshold
    );
    for (n, class) in multi.iter().enumerate() {
        println!("class {}:", n + 1);
        for &i in class.iter() {
            println!("  {}", files[i]);
        }
    }
    let singletons: Vec<&&String> =
        classes.iter().filter(|c| c.len() == 1).map(|c| &files[c[0]]).collect();
    if !singletons.is_empty() {
        println!("unique:");
        for path in singletons {
            println!("  {path}");
        }
    }
    for (i, path) in files.iter().enumerate() {
        if !indexed.contains(&(i as u64)) {
            println!("skipped (does not lex): {path}");
        }
    }
    Ok(())
}

/// `vulnman graph` — builds the whole-corpus call graph over a generated
/// multi-file corpus (cross-file bridge calls enabled, so sibling units of
/// a project genuinely call into each other), then prints the graph's shape
/// and the blast-radius triage leaders. Output is byte-identical at any
/// `--jobs` and with the cache on or off.
fn cmd_graph(args: &[String]) -> Result<(), String> {
    use vulnman::analysis::corpusgraph::register_graph_instruments;
    use vulnman::analysis::CorpusGraph;
    use vulnman::lang::AnalysisCache;

    let seed: u64 = parse_num(args, "--seed", 42)?;
    let count: usize = parse_num(args, "--count", 30)?;
    let fraction: f64 = parse_num(args, "--fraction", 0.25)?;
    let jobs: usize = parse_num(args, "--jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let top: usize = parse_num(args, "--top", 10)?;

    let ds = DatasetBuilder::new(seed)
        .vulnerable_count(count)
        .vulnerable_fraction(fraction)
        .cross_file_links(true)
        .build();
    let metrics = Registry::new();
    register_graph_instruments(&metrics);
    let cache = if flag_present(args, "--no-cache") {
        AnalysisCache::disabled()
    } else {
        AnalysisCache::with_metrics(&metrics)
    };
    let graph = CorpusGraph::from_samples(ds.samples(), &cache, jobs, &metrics)
        .map_err(|e| format!("corpus parse error: {e}"))?;
    let report = graph.report();

    println!(
        "corpus graph over {} unit(s): {} function(s), {} call edge(s) \
         ({} cross-unit), {} external sink/source(s)",
        ds.len(),
        report.nodes,
        report.edges,
        report.cross_unit_edges,
        report.externals
    );
    println!(
        "structure: {} strongly connected component(s), {} communit{}",
        report.sccs,
        report.communities,
        if report.communities == 1 { "y" } else { "ies" }
    );
    let ranked = graph.blast_ranked();
    if !ranked.is_empty() {
        println!("blast-radius leaders:");
        for (name, blast) in ranked.iter().take(top) {
            let f = &report.functions[name];
            println!(
                "  [{blast:>5.3}] {name}  ({:?}, {} downstream, {} upstream, community {})",
                f.surface, f.downstream, f.upstream, f.community
            );
        }
    }
    if let Some(path) = flag_value(args, "--report-out") {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    write_metrics(args, &metrics.snapshot())?;
    Ok(())
}

/// `vulnman audit` — computes the CWE × detector-family coverage/precision
/// matrix over a seeded per-class corpus and (with `--check`) gates it
/// against the committed baseline, so a detector silently losing a class —
/// or starting to flood false positives — fails CI instead of shipping.
/// The matrix is byte-identical at any `--jobs`.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    use vulnman::analysis::{register_audit_instruments, AuditConfig, AuditEngine, AuditReport};

    let defaults = AuditConfig::default();
    let seed: u64 = parse_num(args, "--seed", defaults.seed)?;
    let samples: usize = parse_num(args, "--samples", defaults.samples_per_class)?;
    if samples == 0 {
        return Err("--samples must be at least 1".into());
    }
    let jobs: usize = parse_num(args, "--jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    let config = AuditConfig { seed, samples_per_class: samples, jobs };
    let metrics = Registry::new();
    register_audit_instruments(&metrics);
    let mut engine = AuditEngine::new(config);
    if !flag_present(args, "--no-ml") {
        engine = engine.with_ml(vulnman::core::audit_ml_verdict(seed));
    }
    let report = engine.run_with_metrics(&metrics);

    print!("{}", report.to_markdown());
    if let Some(path) = flag_value(args, "--out") {
        let json =
            serde_json::to_string_pretty(&report).map_err(|e| format!("serialize matrix: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("matrix written to {path}");
    }
    if let Some(path) = flag_value(args, "--report-out") {
        std::fs::write(path, report.to_markdown()).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("markdown report written to {path}");
    }
    write_metrics(args, &metrics.snapshot())?;

    let baseline_path = flag_value(args, "--baseline").unwrap_or("tests/audit_baseline.json");
    if flag_present(args, "--write-baseline") {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialize baseline: {e}"))?;
        std::fs::write(baseline_path, json + "\n")
            .map_err(|e| format!("write {baseline_path}: {e}"))?;
        eprintln!("baseline written to {baseline_path}");
    }
    if flag_present(args, "--check") {
        let json = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read {baseline_path}: {e}"))?;
        let baseline: AuditReport =
            serde_json::from_str(&json).map_err(|e| format!("parse {baseline_path}: {e}"))?;
        let violations = report.check_against(&baseline);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("audit violation: {v}");
            }
            return Err(format!(
                "{} audit violation(s) against {baseline_path} — fix the detector or \
                 consciously regenerate the baseline with --write-baseline",
                violations.len()
            ));
        }
        println!(
            "baseline check: {} of {} cells covered, no regressions against {baseline_path}",
            report.covered_count(),
            report.cell_count()
        );
    }
    Ok(())
}

fn cmd_sft(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse_num(args, "--seed", 42)?;
    let count: usize = parse_num(args, "--count", 10)?;
    let ds = DatasetBuilder::new(seed).vulnerable_count(count).build();
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    let engine = WorkflowEngine::new(registry, WorkflowConfig::default());
    let report = engine.process(ds.samples());
    let sft = harvest(ds.samples(), &report);
    print!("{}", sft.to_jsonl().map_err(|e| format!("{e}"))?);
    Ok(())
}
