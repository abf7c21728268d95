//! Concurrency stress suite for `vulnman serve`: N client threads fire
//! interleaved analyze/lint/oracle requests at one server and every
//! response must match a single-threaded golden computed directly from a
//! reference [`ServiceCore`] — at fault rate 0 and at 5%. Admission
//! control is exercised separately: the queue-depth gauge never exceeds
//! its bound, and every shed request is accounted in the degradation
//! ledger. An open-loop client pins the transport: replies arrive when
//! they are ready, not when the next request happens to be sent.

// Client threads here load a live server; they are not a shard fan-out.
#![allow(clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vulnman::prelude::*;
use vulnman::serve::{spawn, Request, Response, ServeConfig, ServiceCore};

/// A deterministic request mix over a small corpus: ids are globally
/// unique, kinds interleave, and oracle requests carry labels/CWEs.
fn request_mix(total: usize) -> Vec<Request> {
    let ds = DatasetBuilder::new(99).vulnerable_count(8).vulnerable_fraction(0.4).build();
    let samples = ds.samples();
    (0..total)
        .map(|i| {
            let sample = &samples[i % samples.len()];
            let (kind, label, cwe) = match i % 3 {
                0 => ("analyze", None, None),
                1 => ("lint", None, None),
                _ => ("oracle", Some(sample.observed_label), sample.cwe.map(|c| format!("{c:?}"))),
            };
            Request { id: i as u64, kind: kind.into(), source: sample.source.clone(), label, cwe }
        })
        .collect()
}

/// Single-threaded golden responses, straight through a reference core
/// with the same fault config (responses carry no timing or cache-state
/// data, so this is the exact expected byte sequence per id).
fn goldens(requests: &[Request], fault: &FaultConfig) -> BTreeMap<u64, String> {
    let core = ServiceCore::new(&Registry::new(), fault);
    let ledger = Mutex::new(DegradationSummary::default());
    requests
        .iter()
        .map(|r| (r.id, serde_json::to_string(&core.handle(r, &ledger)).unwrap()))
        .collect()
}

/// Sends `requests` down one connection and returns the responses parsed
/// and re-serialized, keyed by id.
fn run_client(addr: std::net::SocketAddr, requests: &[Request]) -> BTreeMap<u64, String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for req in requests {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        stream.write_all(line.as_bytes()).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(stream);
    reader
        .lines()
        .map(|l| {
            let line = l.expect("read response");
            let resp: Response = serde_json::from_str(&line).expect("response parses");
            (resp.id, serde_json::to_string(&resp).unwrap())
        })
        .collect()
}

fn stress_at_rate(rate: f64) {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 24;
    let fault = FaultConfig::with_rate(11, rate);
    let requests = request_mix(CLIENTS * PER_CLIENT);
    let expected = goldens(&requests, &fault);

    let metrics = Registry::new();
    let config = ServeConfig {
        workers: 4,
        // Roomy bound: this test pins equivalence, not shedding.
        queue: CLIENTS * PER_CLIENT,
        fault,
        ..ServeConfig::default()
    };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind");
    let addr = server.addr();

    let got: BTreeMap<u64, String> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(PER_CLIENT)
            .map(|chunk| scope.spawn(move || run_client(addr, chunk)))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    assert_eq!(got.len(), requests.len(), "every request answered exactly once");
    for (id, body) in &got {
        assert_eq!(
            body,
            expected.get(id).unwrap(),
            "request {id}: concurrent response != single-threaded golden"
        );
    }

    // Degradation bookkeeping matches the pure plan prediction.
    let reference = ServiceCore::new(&Registry::new(), &fault);
    let predicted_degraded =
        requests.iter().filter(|r| reference.degrades(r.id, &r.kind)).count() as u64;
    assert_eq!(metrics.counter("serve.degraded").get(), predicted_degraded);
    let ledger = server.ledger();
    assert_eq!(ledger.assessments_lost, predicted_degraded);
    assert_eq!(ledger.shed, 0, "roomy queue must not shed");
    if rate == 0.0 {
        assert_eq!(predicted_degraded, 0);
        assert_eq!(ledger, DegradationSummary::default());
    } else {
        assert!(predicted_degraded > 0, "a 5% plan should degrade something in 144 requests");
    }

    // The queue-depth gauge respected its bound throughout.
    let peak = metrics.gauge("serve.queue_depth_peak").get();
    assert!(peak <= (CLIENTS * PER_CLIENT) as i64, "peak {peak} exceeded bound");
    assert_eq!(metrics.counter("serve.requests").get(), requests.len() as u64);
    assert_eq!(metrics.counter("serve.responses").get(), requests.len() as u64);
    server.shutdown();
}

#[test]
fn concurrent_responses_match_single_threaded_goldens_without_faults() {
    stress_at_rate(0.0);
}

#[test]
fn concurrent_responses_match_single_threaded_goldens_at_5_percent_faults() {
    stress_at_rate(0.05);
}

/// Overload path: a tiny queue in front of slow-to-drain workers must shed
/// deterministically into the ledger — and the depth gauge never exceeds
/// the bound.
#[test]
fn overload_sheds_into_the_degradation_ledger_and_respects_the_bound() {
    const QUEUE: usize = 2;
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let metrics = Registry::new();
    let config = ServeConfig {
        workers: 1,
        queue: QUEUE,
        fault: FaultConfig::default(),
        ..ServeConfig::default()
    };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind");
    let addr = server.addr();

    // Every client hammers the same analyze request; only the first
    // compute is slow (cold cache), but 8 writers against 1 worker and a
    // 2-deep queue overload admission regardless.
    let requests = request_mix(CLIENTS * PER_CLIENT);
    let responses: Vec<BTreeMap<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(PER_CLIENT)
            .map(|chunk| scope.spawn(move || run_client(addr, chunk)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let mut ok = 0u64;
    let mut shed = 0u64;
    for body in responses.iter().flat_map(|m| m.values()) {
        let resp: Response = serde_json::from_str(body).unwrap();
        match resp.status.as_str() {
            "ok" => ok += 1,
            "shed" => shed += 1,
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert_eq!(ok + shed, (CLIENTS * PER_CLIENT) as u64, "every request answered");
    assert!(shed > 0, "8 clients against queue=2/workers=1 must shed");

    // Shed accounting: client-visible responses == counter == ledger.
    assert_eq!(metrics.counter("serve.shed").get(), shed);
    assert_eq!(server.ledger().shed, shed);
    // Answered = admitted + shed; nothing lost or double-counted.
    assert_eq!(metrics.counter("serve.responses").get(), ok + shed);

    // The admission bound held at every instant the gauge observed.
    let peak = metrics.gauge("serve.queue_depth_peak").get();
    assert!(peak <= QUEUE as i64, "peak {peak} exceeded the queue bound {QUEUE}");
    assert!(peak > 0, "the gauge should have seen load");
    server.shutdown();
}

/// Queue wait is observed at dequeue for every admitted JSONL request, so
/// its count is `serve.requests − serve.shed` whether or not the run sheds.
#[test]
fn queue_wait_is_observed_once_per_admitted_request() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 30;
    let metrics = Registry::new();
    let config = ServeConfig { workers: 1, queue: 2, ..ServeConfig::default() };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind");
    let addr = server.addr();
    let requests = request_mix(CLIENTS * PER_CLIENT);
    let answered: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(PER_CLIENT)
            .map(|chunk| scope.spawn(move || run_client(addr, chunk).len()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    });
    assert_eq!(answered, requests.len());

    let requested = metrics.counter("serve.requests").get();
    let shed = metrics.counter("serve.shed").get();
    assert_eq!(requested, requests.len() as u64);
    let waits = metrics.histogram("serve.queue_wait_micros");
    assert_eq!(waits.count(), requested - shed, "one queue-wait sample per admitted request");
    assert_eq!(metrics.histogram("serve.latency_micros").count(), requested - shed);
    server.shutdown();
}

/// Open-loop transport regression: one connection, a sender issuing `lint`
/// requests every 10 ms and a receiver reading the replies off the same
/// connection. Each reply is one small write. With Nagle on at the server, a
/// reply written while the previous one is unacknowledged waits for the
/// peer's ACK, and the peer delays that ACK until it has data to send: the
/// next request. Two requests due together start that chain; from then on
/// every reply waited a full gap, and so did the median.
#[test]
fn open_loop_replies_are_not_held_until_the_next_request() {
    const REQUESTS: usize = 60;
    const GAP: Duration = Duration::from_millis(10);
    let server = spawn("127.0.0.1:0", ServeConfig::default(), &Registry::new()).expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).unwrap();
    // A lost reply fails the test instead of hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let lines: Vec<String> = (0..REQUESTS as u64)
        .map(|id| {
            let req = Request {
                id,
                kind: "lint".into(),
                source: "int f() { int z = 0; return 10 / z; }".into(),
                label: None,
                cwe: None,
            };
            serde_json::to_string(&req).unwrap() + "\n"
        })
        .collect();

    let start = Instant::now() + GAP;
    // Requests 2 and 3 are due together, so their replies go out back to back.
    let due = |i: usize| start + GAP * (if i > 2 { i - 1 } else { i }) as u32;
    let replies: Vec<(Response, Instant)> = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut writer = &stream;
            for (i, line) in lines.iter().enumerate() {
                std::thread::sleep(due(i).saturating_duration_since(Instant::now()));
                writer.write_all(line.as_bytes()).expect("send");
            }
        });
        reader
            .lines()
            .take(REQUESTS)
            .map(|line| {
                let read = Instant::now();
                (serde_json::from_str(&line.expect("read reply")).expect("reply parses"), read)
            })
            .collect()
    });
    stream.shutdown(std::net::Shutdown::Both).unwrap();
    server.shutdown();

    let mut seen = vec![0usize; REQUESTS];
    let mut lags: Vec<Duration> = replies
        .iter()
        .map(|(resp, read)| {
            assert_eq!(resp.status, "ok", "{resp:?}");
            seen[resp.id as usize] += 1;
            read.saturating_duration_since(due(resp.id as usize))
        })
        .collect();
    assert!(seen.iter().all(|&n| n == 1), "every request answered exactly once: {seen:?}");
    lags.sort();
    let median = lags[REQUESTS / 2];
    assert!(median < GAP / 2, "median reply lag {median:?} is not below half the {GAP:?} gap");
}
