//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer: name, start, end, parent,
//! and the id of the request (or unit) they belong to. They are kept in
//! memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer boundary the span covers, e.g. `lang.parse`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request or unit id shared by every span of one request.
    pub request: u64,
}

impl SpanRec {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock, so
/// the same replay code gives the untraced baseline.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec { name, start_ns, end_ns: 0, parent, request });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the part of it its children cover.
    pub fn self_time_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![Vec::<(u64, u64)>::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.duration_ns();
            let child = union_len(&mut covered[i], s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0) += own.saturating_sub(child);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            SpanRec { name: "root", start_ns: 0, end_ns: 100, parent: None, request: 1 },
            SpanRec { name: "a", start_ns: 10, end_ns: 40, parent: Some(0), request: 1 },
            SpanRec { name: "b", start_ns: 30, end_ns: 60, parent: Some(0), request: 1 },
        ];
        let st = t.self_time_ns();
        assert_eq!(st["root"], 50);
        assert_eq!(st["a"], 30);
        assert_eq!(st["b"], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let span = t.open("x", None, 1);
        assert_eq!(t.time("y", span, 1, || 7), 7);
        t.close(span);
        assert!(t.spans().is_empty());
    }
}
