//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric untraced, every per-layer metric traced). The machine
//! fingerprint and notes come on the lines before it, and the result, the
//! fingerprint and (traced) every span are also written under
//! `.bench_out/`.

use std::io::Write;
use std::process::ExitCode;
use vulnman_perfbench::layers::{self, Traced};
use vulnman_perfbench::machine::{self, StealMeter};
use vulnman_perfbench::metrics::{self, Outcome, WORKLOADS};
use vulnman_perfbench::{batch, online};

/// Where results and spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return Err(format!("--seconds must be 1..=600, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let steal = StealMeter::start();
    let profile = match args.workload.as_str() {
        "serve_edit" => Some(online::EDIT),
        "serve_churn" => Some(online::CHURN),
        _ => None,
    };
    let (outcome, declared, tracer) = if args.trace {
        let workload = profile.map_or(Traced::Batch, Traced::Serve);
        let run = layers::run(workload, args.seed, seconds);
        (run.outcome, metrics::PER_LAYER, Some(run.tracer))
    } else {
        let outcome: Outcome = match profile {
            Some(p) => online::run(p, args.seed, seconds),
            None => batch::run(args.seed, seconds),
        };
        (outcome, metrics::END_TO_END, None)
    };
    let fingerprint = machine::fingerprint_json(steal.share());
    let correct = outcome.failed == 0;
    let line =
        metrics::result_line(declared, &outcome.values, correct, outcome.attempted, outcome.failed);

    let stem =
        format!("{OUT_DIR}/{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    if let Err(e) = write_outputs(&stem, &fingerprint, &line, tracer.as_ref()) {
        eprintln!("perfbench: could not write {stem}.*: {e}");
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("# fingerprint {fingerprint}");
    println!("{line}");
    ExitCode::SUCCESS
}

/// Writes the result with its fingerprint, and the spans of a traced run.
fn write_outputs(
    stem: &str,
    fingerprint: &str,
    line: &str,
    tracer: Option<&vulnman_perfbench::trace::Tracer>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(
        format!("{stem}.json"),
        format!("{{\"fingerprint\": {fingerprint}, \"result\": {line}}}\n"),
    )?;
    if let Some(tracer) = tracer {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(format!("{stem}.spans.jsonl"))?);
        tracer.write_jsonl(&mut out)?;
        out.flush()?;
    }
    Ok(())
}
