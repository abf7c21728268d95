//! The serve workloads: developers submitting edits to a running
//! `vulnman serve` and waiting for findings. An in-process server
//! (`workers = nproc`) is driven open-loop over one JSONL connection at a
//! ladder of fixed rates; a seeded sample of replies must equal, byte for
//! byte, what a fresh single-threaded `ServiceCore::handle` returns for the
//! same request.

use crate::inputs::{self, Stream};
use crate::machine;
use crate::metrics::{Outcome, Values};
use crate::serve::{run_step, Client, Reply, Step};
use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::Mutex;
use std::time::Instant;
use vulnman_core::DegradationSummary;
use vulnman_faults::FaultConfig;
use vulnman_obs::Registry;
use vulnman_serve::{spawn, ServeConfig, ServerHandle, ServiceCore};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Requests sent closed-loop during set-up to warm the server.
pub const WARMUP_REQUESTS: usize = 200;

/// Replies checked byte for byte against a fresh `ServiceCore`.
const CHECKED_REPLIES: usize = 64;

/// Percentile reported as `latency_ms.tail` when the sample count supports it.
pub const TAIL_PCT: f64 = 99.0;

/// Admission bound of the server: deep enough that a step above capacity
/// shows up as a growing backlog and latency, never as shed requests.
const QUEUE: usize = 1 << 16;

/// A serve workload's traffic: which stream, which fixed rates for which
/// share of the run, and the reference rate the latency metrics are read at.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Builds the request stream from the seed and a request count.
    pub stream: fn(u64, usize) -> Stream,
    /// `(rate, share of --seconds)` per fixed-rate step, rates ascending.
    pub ladder: &'static [(f64, f64)],
    /// Rate whose steady window gives `latency_ms.*`.
    pub reference: f64,
}

/// The fixed-rate ladder both serve workloads share. On a 2-core x86 VM
/// both saturate between 3.4k and 5.3k req/s depending on machine load, so
/// every step stays under capacity and no request has to fail; the
/// reference step gets the longest window, for a well-supported p99.
const LADDER: &[(f64, f64)] = &[(500.0, 0.5), (1000.0, 0.2), (2000.0, 0.3)];

/// A step above capacity, run only by the traced probe: its goodput is the
/// server's capacity (`serve.capacity_rps`). The deep admission queue turns
/// the overload into backlog, not sheds. Capacity moves with machine load by
/// up to a fifth between runs, too much for an end-to-end bound.
pub const OVERLOAD: (f64, f64) = (8000.0, 0.1);

/// `serve_edit`: new versions of a few hot units.
pub const EDIT: Profile = Profile { stream: inputs::edit_stream, ladder: LADDER, reference: 500.0 };

/// `serve_churn`: units never seen before.
pub const CHURN: Profile =
    Profile { stream: inputs::churn_stream, ladder: LADDER, reference: 500.0 };

impl Profile {
    /// Fixed rates of the ladder.
    pub fn rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.ladder.iter().map(|(rate, _)| *rate)
    }

    /// Requests per step when the ladder runs for `seconds`.
    pub fn step_sizes(&self, seconds: f64) -> Vec<usize> {
        self.ladder
            .iter()
            .map(|(r, share)| ((r * share * seconds).round() as usize).max(20))
            .collect()
    }
}

/// A running server with its client connection.
pub struct Session {
    /// The server.
    pub server: ServerHandle,
    /// The client connection.
    pub client: Client,
    /// Registry the server records into.
    pub metrics: Registry,
    /// Warm-up replies.
    pub warmup: Vec<Reply>,
}

impl Session {
    /// Spawns a server with `workers = nproc`, connects, and sends the
    /// first [`WARMUP_REQUESTS`] requests of `stream` closed-loop. The
    /// client keeps the reply bytes of the requests in `keep`.
    pub fn start(stream: &Stream, keep: HashSet<usize>) -> Session {
        let metrics = Registry::new();
        let config =
            ServeConfig { workers: machine::nproc(), queue: QUEUE, ..ServeConfig::default() };
        let server = spawn("127.0.0.1:0", config, &metrics).expect("bind a loopback port");
        let mut client = Client::connect(server.addr()).expect("connect to the server");
        client.keep = keep;
        let warmup = client.closed_loop(stream, 0..WARMUP_REQUESTS.min(stream.len()));
        Session { server, client, metrics, warmup }
    }

    /// Closes the connection, then stops the server (in that order:
    /// shutdown joins the workers, which an open connection keeps alive).
    pub fn stop(self) {
        self.client.close();
        self.server.shutdown();
    }
}

/// Runs the ladder on `session`, starting after the warm-up requests.
pub fn run_ladder(
    session: &mut Session,
    stream: &Stream,
    profile: Profile,
    sizes: &[usize],
) -> Vec<Step> {
    let mut at = WARMUP_REQUESTS;
    profile
        .rates()
        .zip(sizes)
        .map(|(rate, &n)| {
            let step = run_step(&mut session.client, stream, at..at + n, rate);
            at += n;
            step
        })
        .collect()
}

/// A seeded sample of request indices below `n` whose replies get checked.
pub fn checked_indices(seed: u64, n: usize) -> HashSet<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636865636b);
    (0..CHECKED_REPLIES).map(|_| rng.gen_range(0..n)).collect()
}

/// Checks the kept `ok` replies against a fresh single-threaded
/// `ServiceCore` handling the same requests in order; returns how many
/// differ byte for byte.
pub fn check_replies(stream: &Stream, replies: &[&Reply]) -> u64 {
    let mut kept: Vec<&&Reply> = replies.iter().filter(|r| r.ok && !r.raw.is_empty()).collect();
    kept.sort_by_key(|r| r.index);
    let core = ServiceCore::new(&Registry::new(), &FaultConfig::default());
    let ledger = Mutex::new(DegradationSummary::default());
    kept.iter()
        .filter(|r| {
            core.handle(&stream.request(r.index), &ledger).encode().as_bytes() != r.raw.as_slice()
        })
        .count() as u64
}

/// Highest rate whose step holds the p99 limit with nothing failed and no
/// growing backlog (`0` when none does).
pub fn max_rate(steps: &[Step]) -> f64 {
    steps.iter().filter(|s| s.holds()).map(|s| s.rate).fold(0.0, f64::max)
}

/// The untraced serve run: [`SETUPS`] timed set-ups (stream generation,
/// spawn, warm-up), then the ladder over `seconds`. A request fails when it gets
/// no `ok` reply or its reply differs from a fresh `ServiceCore`'s.
pub fn run(profile: Profile, seed: u64, seconds: f64) -> Outcome {
    let sizes = profile.step_sizes(seconds);
    let total = WARMUP_REQUESTS + sizes.iter().sum::<usize>();
    let mut setup_s = Vec::new();
    let mut kept: Option<(Stream, Session)> = None;
    for _ in 0..SETUPS {
        if let Some((_, old)) = kept.take() {
            old.stop();
        }
        let t = Instant::now();
        let stream = (profile.stream)(seed, total);
        let session = Session::start(&stream, checked_indices(seed, total));
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((stream, session));
    }
    let (stream, mut session) = kept.expect("set up at least once");
    let steps = run_ladder(&mut session, &stream, profile, &sizes);
    let warmup = std::mem::take(&mut session.warmup);
    session.stop();

    let replies: Vec<&Reply> = warmup.iter().chain(steps.iter().flat_map(|s| &s.replies)).collect();
    let not_ok = replies.iter().filter(|r| !r.ok).count() as u64;
    let mismatched = check_replies(&stream, &replies);
    let attempted = replies.len() as u64;
    let failed = not_ok + mismatched;

    let reference = steps
        .iter()
        .find(|s| s.rate == profile.reference)
        .expect("the reference rate is on the ladder");
    let lat = reference.steady_latencies();
    let top = steps.last().expect("a non-empty ladder");
    let mut values = Values::new();
    values.insert("setup_s", stats::median(&setup_s).expect("set up at least once"));
    values.insert("ok_ratio", 1.0 - stats::ratio(failed as f64, attempted as f64));
    values.insert("throughput_per_s", top.goodput_rps);
    values.insert("latency_ms.p50", stats::median(&lat).expect("steady samples"));
    let (pct, tail_ms) = stats::tail(&lat, TAIL_PCT);
    let mut notes = vec![format!(
        "latency at {} req/s: p50 {:.3} ms and p{pct} {tail_ms:.3} ms of {} steady-window \
         requests; throughput_per_s is goodput at {} req/s",
        profile.reference,
        values["latency_ms.p50"],
        lat.len(),
        top.rate
    )];
    for s in &steps {
        notes.push(format!(
            "step {} req/s: {} requests, p50 {:.3} ms, p99 {:.3} ms, goodput {:.1}/s, backlog {} -> {}, holds {}",
            s.rate,
            s.replies.len(),
            stats::median(&s.steady_latencies()).unwrap_or(0.0),
            stats::percentile(&s.steady_latencies(), 99.0).unwrap_or(0.0),
            s.goodput_rps,
            s.backlog.0,
            s.backlog.1,
            s.holds()
        ));
    }
    Outcome { values, attempted, failed, notes }
}
