//! Open-loop load generator for `vulnman serve`.
//!
//! One sending thread writes pre-encoded requests on a fixed schedule,
//! whether or not earlier replies have come back, and one receiving thread
//! reads the replies off the same JSONL connection. Each request is timed
//! from when it was *due*, so a stall in the server (or in the generator)
//! is charged to every request queued behind it; how late the sender ran is
//! recorded separately.

use crate::inputs::Stream;
use crate::stats;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};
use vulnman_serve::Response;

/// p99 latency limit a fixed-rate step must meet to count towards
/// `serve.max_rate_rps`.
pub const LATENCY_LIMIT_MS: f64 = 25.0;

/// How long the receiver waits for a missing reply after the last request
/// of a step was due before counting it as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Share of each step's requests sent as warm-up before the steady window.
const WARMUP_SHARE: f64 = 0.2;

/// One client connection: a writer half for the sender thread and a
/// buffered reader half for the receiver thread.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Request indices whose reply bytes are kept for checking; the rest
    /// are dropped once their head is read.
    pub keep: HashSet<usize>,
}

impl Client {
    /// Connects with `TCP_NODELAY`, so the client never holds a request back
    /// waiting for an acknowledgement.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_millis(50)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader, keep: HashSet::new() })
    }

    /// Closes both directions. Must happen before the server shuts down:
    /// shutdown joins the workers, and an open connection keeps them alive.
    pub fn close(self) {
        let _ = self.writer.shutdown(Shutdown::Both);
    }

    /// Sends `lines[range]` one at a time, waiting for each reply (the
    /// closed-loop warm-up). Returns the replies in order.
    pub fn closed_loop(&mut self, stream: &Stream, range: Range<usize>) -> Vec<Reply> {
        let mut replies = Vec::with_capacity(range.len());
        for i in range {
            let start = Instant::now();
            let sent = self.writer.write_all(&stream.lines[i]).is_ok();
            let reply =
                if sent { read_line(&mut self.reader, start + DRAIN_TIMEOUT) } else { None };
            replies.push(match reply {
                Some((at, raw)) => Reply::new(i, start, at, &raw, self.keep.contains(&i)),
                None => Reply::missing(i),
            });
        }
        replies
    }
}

/// Reads one newline-terminated line and when it arrived; `None` on end of
/// stream, on an error, or once `deadline` passes.
fn read_line(reader: &mut BufReader<TcpStream>, deadline: Instant) -> Option<(Instant, Vec<u8>)> {
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return None,
            Ok(_) if buf.ends_with(b"\n") => return Some((Instant::now(), buf)),
            Ok(_) => {}
            // The read timeout fired: keep waiting until the deadline.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) && Instant::now() < deadline => {}
            Err(_) => return None,
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Index of the request in its stream.
    pub index: usize,
    /// Milliseconds from when the request was due to when its reply was
    /// read (the drain timeout when it never came).
    pub latency_ms: f64,
    /// When the reply was read.
    pub at: Option<Instant>,
    /// Whether the reply was a well-formed `ok` for this request.
    pub ok: bool,
    /// The reply line as received, when the client keeps this request's.
    pub raw: Vec<u8>,
}

impl Reply {
    fn missing(index: usize) -> Reply {
        let latency_ms = DRAIN_TIMEOUT.as_secs_f64() * 1e3;
        Reply { index, latency_ms, at: None, ok: false, raw: Vec::new() }
    }

    fn new(index: usize, due: Instant, at: Instant, raw: &[u8], keep: bool) -> Reply {
        let ok = decode(raw).is_some_and(|(id, ok)| ok && id == index as u64 + 1);
        let latency_ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
        let raw = if keep { raw.to_vec() } else { Vec::new() };
        Reply { index, latency_ms, at: Some(at), ok, raw }
    }
}

/// Result of one fixed-rate step.
#[derive(Debug, Clone)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Every reply of the step (warm-up included), in request order.
    pub replies: Vec<Reply>,
    /// Index range of the steady window within the stream.
    pub steady: Range<usize>,
    /// How late the sender started each request, ms.
    pub late_ms: Vec<f64>,
    /// Queued-but-unanswered requests when the steady window opened and
    /// when it closed.
    pub backlog: (usize, usize),
    /// Rate of `ok` replies read during the steady window, measured between
    /// the first and the last of them (the client's clock, so it is the
    /// offered rate under capacity and the service rate above it).
    pub goodput_rps: f64,
}

impl Step {
    /// Latencies (ms) of the steady window; a failed request counts as
    /// late by the whole drain timeout, so it misses any limit.
    pub fn steady_latencies(&self) -> Vec<f64> {
        let first = self.replies.first().map_or(0, |r| r.index);
        let lost = DRAIN_TIMEOUT.as_secs_f64() * 1e3;
        self.replies[self.steady.start - first..self.steady.end - first]
            .iter()
            .map(|r| if r.ok { r.latency_ms } else { lost.max(r.latency_ms) })
            .collect()
    }

    /// Requests of the step that did not get a well-formed `ok`.
    pub fn failed(&self) -> usize {
        self.replies.iter().filter(|r| !r.ok).count()
    }

    /// Whether the backlog grew by more than the latency limit's worth of
    /// requests over the steady window.
    pub fn backlog_grew(&self) -> bool {
        let allowed = (self.rate * LATENCY_LIMIT_MS / 1e3).max(10.0);
        self.backlog.1 as f64 > self.backlog.0 as f64 + allowed
    }

    /// Whether the step meets the p99 limit with nothing failed and no
    /// growing backlog.
    pub fn holds(&self) -> bool {
        let lat = self.steady_latencies();
        self.failed() == 0
            && !self.backlog_grew()
            && stats::percentile(&lat, 99.0).is_some_and(|p| p <= LATENCY_LIMIT_MS)
    }
}

/// Runs one open-loop step: `range` of `stream` at `rate` requests per
/// second, the first [`WARMUP_SHARE`] of them as warm-up.
pub fn run_step(client: &mut Client, stream: &Stream, range: Range<usize>, rate: f64) -> Step {
    let n = range.len();
    let gap = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| t0 + gap * k as u32;
    let warm = ((n as f64) * WARMUP_SHARE).round() as usize;
    let steady = range.start + warm..range.end;
    let Client { writer, reader, keep } = client;
    let (late_ms, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut late = Vec::with_capacity(n);
            for (k, i) in range.clone().enumerate() {
                let d = due(k);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                late.push(Instant::now().saturating_duration_since(d).as_secs_f64() * 1e3);
                if writer.write_all(&stream.lines[i]).is_err() {
                    break;
                }
            }
            late
        });
        let mut received: HashMap<usize, Reply> = HashMap::with_capacity(n);
        let deadline = due(n.saturating_sub(1)) + DRAIN_TIMEOUT;
        while received.len() < n {
            let Some((at, line)) = read_line(reader, deadline) else { break };
            let index = decode(&line).and_then(|(id, _)| (id as usize).checked_sub(1));
            if let Some(i) = index.filter(|i| range.contains(i)) {
                let due = due(i - range.start);
                received.insert(i, Reply::new(i, due, at, &line, keep.contains(&i)));
            }
        }
        (sender.join().expect("sender thread does not panic"), received)
    });
    let mut received = received;
    let replies: Vec<Reply> =
        range.clone().map(|i| received.remove(&i).unwrap_or_else(|| Reply::missing(i))).collect();
    let steady_start = due(warm);
    let steady_end = due(n.saturating_sub(1));
    let backlog_at = |t: Instant| {
        replies
            .iter()
            .enumerate()
            .filter(|(k, r)| due(*k) <= t && r.at.is_none_or(|a| a > t))
            .count()
    };
    let arrivals: Vec<Instant> = replies
        .iter()
        .filter(|r| r.ok)
        .filter_map(|r| r.at)
        .filter(|a| (steady_start..=steady_end).contains(a))
        .collect();
    let span = match (arrivals.iter().min(), arrivals.iter().max()) {
        (Some(first), Some(last)) => last.saturating_duration_since(*first).as_secs_f64(),
        _ => 0.0,
    };
    Step {
        rate,
        backlog: (backlog_at(steady_start), backlog_at(steady_end)),
        goodput_rps: stats::ratio(arrivals.len().saturating_sub(1) as f64, span),
        replies,
        steady,
        late_ms,
    }
}

/// A reply line's request id and whether its status is `ok`; `None` when
/// the line is not a well-formed response. Replies serialize `id` then
/// `status` first, so the receiver reads just that head and leaves the
/// findings undecoded (a full decode per reply would take CPU from the
/// server it measures); any other layout falls back to a full decode.
fn decode(line: &[u8]) -> Option<(u64, bool)> {
    let head = (|| {
        let rest = line.strip_prefix(b"{\"id\":")?;
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
        let rest = rest[digits..].strip_prefix(b",\"status\":\"")?;
        Some((id, rest.starts_with(b"ok\"")))
    })();
    head.or_else(|| {
        let text = std::str::from_utf8(line).ok()?;
        let resp: Response = serde_json::from_str(text.trim_end()).ok()?;
        Some((resp.id, resp.status == "ok"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server that stalls `stall` before answering anything, then
    /// answers every request immediately with an `ok` reply.
    fn stalled_stub(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut writer = conn;
            let mut first = true;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                let req: vulnman_serve::Request = serde_json::from_str(line.trim_end()).unwrap();
                let resp = Response::ok_findings(req.id, Vec::new());
                writer.write_all(resp.encode().as_bytes()).unwrap();
                line.clear();
            }
        });
        (addr, handle)
    }

    #[test]
    fn decode_reads_the_head_of_any_reply() {
        let ok = Response::ok_findings(42, Vec::new()).encode();
        assert_eq!(decode(ok.as_bytes()), Some((42, true)));
        let shed = Response::shed(7).encode();
        assert_eq!(decode(shed.as_bytes()), Some((7, false)));
        let spaced = b"{ \"id\": 9, \"status\": \"ok\", \"error\": null, \"findings\": [], \"disagreements\": null, \"clones\": null, \"graph\": null, \"audit\": null }\n";
        assert_eq!(decode(spaced), Some((9, true)));
        assert_eq!(decode(b"garbage\n"), None);
    }

    #[test]
    fn stalled_server_makes_latency_from_due_time_grow_for_queued_requests() {
        let stall = Duration::from_millis(300);
        let (addr, stub) = stalled_stub(stall);
        let stream = crate::inputs::churn_stream(1, 200);
        let mut client = Client::connect(addr).unwrap();
        // 200 requests at 1000/s: the first 300 ms of them queue behind the stall.
        let step = run_step(&mut client, &stream, 0..200, 1000.0);
        client.close();
        stub.join().unwrap();
        assert_eq!(step.failed(), 0);
        let lat: Vec<f64> = step.replies.iter().map(|r| r.latency_ms).collect();
        // Request k was due k ms in; all queued behind the stall are answered
        // at about 300 ms, so latency from due time is about 300 - k.
        assert!(lat[0] >= 290.0, "first request waited the whole stall: {}", lat[0]);
        for k in [50usize, 100, 200 - 1] {
            let expect = 300.0 - k as f64;
            if expect > 20.0 {
                assert!(lat[k] >= expect - 10.0, "request {k} latency {} < {expect}", lat[k]);
            }
        }
        // Queued requests were sent on schedule, not held back by the stall:
        // measured from send time they would look fast.
        assert!(stats::percentile(&step.late_ms, 50.0).unwrap() < 50.0);
        assert!(!step.holds(), "a 300 ms stall breaks the p99 limit");
    }
}
