//! Wire protocol of `vulnman serve`: newline-delimited JSON requests over a
//! TCP stream, plus a minimal HTTP/1.1 POST bridge so `curl` works.
//!
//! Framing is defensive by construction. Every way a client can hand the
//! server garbage maps to exactly one [`RequestError`] class — oversized
//! line, invalid UTF-8, malformed JSON, unknown request kind — and each
//! class produces a structured error [`Response`] instead of a panic or a
//! wedged connection. `tests` below pin one regression test per class.

use serde::{Deserialize, Serialize};
use std::io::BufRead;
use vulnman_analysis::{AuditReport, Disagreement, Finding};

/// Default cap on one JSONL request line (bytes, newline excluded).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One request line. `kind` selects the operation:
///
/// * `"analyze"` — rule-based detectors plus the semantic (absint) checker
///   suite over `source`; returns merged findings.
/// * `"lint"` — semantic checkers only.
/// * `"oracle"` — differential-oracle classification of `source` against
///   the optional recorded `label`/`cwe`; returns disagreements.
/// * `"clones"` — registers `source` in the server's shared MinHash/LSH
///   clone index and returns the ids of previously registered sources that
///   are verified near-clones of it.
/// * `"graph"` — registers `source` as a corpus-graph unit and returns
///   graph statistics over everything registered so far (cross-unit edges,
///   this unit's functions, the corpus-wide blast-radius leaders).
/// * `"audit"` — the detector coverage × precision matrix over the seeded
///   audit corpus (`source` is ignored). The matrix is computed once per
///   server and cached, so every audit response is byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen id echoed in the response (and used as the fault-plan
    /// key, so injected degradation is deterministic per request).
    pub id: u64,
    /// Operation: `analyze`, `lint`, `oracle`, `clones`, `graph`, or
    /// `audit`.
    pub kind: String,
    /// Mini-C translation unit to analyze. May be omitted on the wire for
    /// kinds that ignore it (`audit`); defaults to empty.
    #[serde(default)]
    pub source: String,
    /// Recorded vulnerability label (oracle requests; defaults to `false`).
    pub label: Option<bool>,
    /// Recorded CWE class name (oracle requests), e.g. `"SqlInjection"`.
    pub cwe: Option<String>,
}

/// One blast-radius ranking entry in a graph response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlastEntry {
    /// Unit-qualified function name (`u<id>::<fn>`).
    pub function: String,
    /// Blast-radius score in `[0, 1]`.
    pub blast: f64,
}

/// Corpus-graph statistics returned by a `graph` request: the state of the
/// server's shared graph after this unit is folded in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Function nodes in the corpus graph.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Edges crossing unit boundaries.
    pub cross_unit_edges: usize,
    /// Functions defined by the submitted unit, in definition order.
    pub unit_functions: Vec<String>,
    /// Corpus-wide blast-radius leaders (descending, capped).
    pub top_blast: Vec<BlastEntry>,
}

/// One response line, echoed with the request id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The request id (0 when the request was too malformed to carry one).
    pub id: u64,
    /// `ok`, `error`, `shed`, or `degraded`.
    pub status: String,
    /// Human-readable detail for non-`ok` statuses.
    pub error: Option<String>,
    /// Findings (analyze/lint).
    pub findings: Option<Vec<Finding>>,
    /// Oracle disagreements (oracle).
    pub disagreements: Option<Vec<Disagreement>>,
    /// Ids of previously registered verified near-clones (clones).
    pub clones: Option<Vec<u64>>,
    /// Corpus-graph statistics (graph).
    pub graph: Option<GraphStats>,
    /// Detector coverage × precision matrix (audit).
    pub audit: Option<AuditReport>,
}

impl Response {
    /// Successful analyze/lint response.
    pub fn ok_findings(id: u64, findings: Vec<Finding>) -> Self {
        Response {
            id,
            status: "ok".into(),
            error: None,
            findings: Some(findings),
            disagreements: None,
            clones: None,
            graph: None,
            audit: None,
        }
    }

    /// Successful oracle response.
    pub fn ok_disagreements(id: u64, disagreements: Vec<Disagreement>) -> Self {
        Response {
            id,
            status: "ok".into(),
            error: None,
            findings: None,
            disagreements: Some(disagreements),
            clones: None,
            graph: None,
            audit: None,
        }
    }

    /// Successful clones response.
    pub fn ok_clones(id: u64, clones: Vec<u64>) -> Self {
        Response {
            id,
            status: "ok".into(),
            error: None,
            findings: None,
            disagreements: None,
            clones: Some(clones),
            graph: None,
            audit: None,
        }
    }

    /// Successful graph response.
    pub fn ok_graph(id: u64, graph: GraphStats) -> Self {
        Response {
            id,
            status: "ok".into(),
            error: None,
            findings: None,
            disagreements: None,
            clones: None,
            graph: Some(graph),
            audit: None,
        }
    }

    /// Successful audit response.
    pub fn ok_audit(id: u64, audit: AuditReport) -> Self {
        Response {
            id,
            status: "ok".into(),
            error: None,
            findings: None,
            disagreements: None,
            clones: None,
            graph: None,
            audit: Some(audit),
        }
    }

    /// Structured rejection (bad input, parse error, unknown CWE, ...).
    pub fn error(id: u64, message: String) -> Self {
        Response {
            id,
            status: "error".into(),
            error: Some(message),
            findings: None,
            disagreements: None,
            clones: None,
            graph: None,
            audit: None,
        }
    }

    /// Load-shed rejection from admission control.
    pub fn shed(id: u64) -> Self {
        Response {
            id,
            status: "shed".into(),
            error: Some("server overloaded: request shed by admission control".into()),
            findings: None,
            disagreements: None,
            clones: None,
            graph: None,
            audit: None,
        }
    }

    /// Fault-plan degradation: the request's retry budget exhausted (or a
    /// crash fired) before the work could run.
    pub fn degraded(id: u64) -> Self {
        Response {
            id,
            status: "degraded".into(),
            error: Some("request degraded: fault budget exhausted".into()),
            findings: None,
            disagreements: None,
            clones: None,
            graph: None,
            audit: None,
        }
    }

    /// Serializes to one JSONL line (trailing newline included).
    pub fn encode(&self) -> String {
        let mut line = serde_json::to_string(self).expect("response serializes");
        line.push('\n');
        line
    }
}

/// Why a request line was rejected before reaching the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The line exceeded the configured byte cap.
    Oversized {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// The line was not valid UTF-8.
    BadUtf8,
    /// The line was not a valid JSON request object.
    BadJson(String),
    /// The request's `kind` is not one of the supported operations.
    UnknownKind(String),
}

impl RequestError {
    /// Every class label, in [`RequestError::class_index`] order.
    pub(crate) const CLASSES: [&'static str; 4] =
        ["oversized", "bad_utf8", "bad_json", "unknown_kind"];

    /// Position of this error's class in [`RequestError::CLASSES`].
    pub(crate) fn class_index(&self) -> usize {
        match self {
            RequestError::Oversized { .. } => 0,
            RequestError::BadUtf8 => 1,
            RequestError::BadJson(_) => 2,
            RequestError::UnknownKind(_) => 3,
        }
    }

    /// Stable class label (used for `serve.reject.<class>` counters).
    pub fn class(&self) -> &'static str {
        Self::CLASSES[self.class_index()]
    }

    /// Human-readable rejection message for the error response.
    pub fn message(&self) -> String {
        match self {
            RequestError::Oversized { limit } => {
                format!("request rejected: line exceeds {limit} bytes")
            }
            RequestError::BadUtf8 => "request rejected: line is not valid UTF-8".into(),
            RequestError::BadJson(detail) => format!("request rejected: invalid JSON: {detail}"),
            RequestError::UnknownKind(kind) => format!(
                "request rejected: unknown kind {kind:?} (expected analyze, lint, oracle, clones, graph, or audit)"
            ),
        }
    }
}

/// One framing step over a buffered stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped, possibly the final unterminated
    /// line before EOF).
    Line(Vec<u8>),
    /// The line exceeded `limit`; its remainder has been drained up to the
    /// next newline so the connection stays usable.
    Oversized {
        /// The cap that was exceeded.
        limit: usize,
    },
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-delimited frame, enforcing the byte cap without ever
/// buffering more than `limit` bytes of an abusive line.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn read_frame(reader: &mut impl BufRead, limit: usize) -> std::io::Result<Frame> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() { Frame::Eof } else { Frame::Line(line) });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > limit {
                    reader.consume(pos + 1);
                    return Ok(Frame::Oversized { limit });
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                return Ok(Frame::Line(line));
            }
            None => {
                let take = buf.len();
                if line.len() + take > limit {
                    reader.consume(take);
                    drain_to_newline(reader)?;
                    return Ok(Frame::Oversized { limit });
                }
                line.extend_from_slice(buf);
                reader.consume(take);
            }
        }
    }
}

/// Discards stream bytes up to and including the next newline (or EOF), so
/// an oversized line cannot wedge the frames behind it.
fn drain_to_newline(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let take = buf.len();
                reader.consume(take);
            }
        }
    }
}

/// Decodes and validates one request line.
///
/// # Errors
///
/// Returns the [`RequestError`] class the line falls into.
pub fn parse_request(line: &[u8]) -> Result<Request, RequestError> {
    let text = std::str::from_utf8(line).map_err(|_| RequestError::BadUtf8)?;
    let req: Request =
        serde_json::from_str(text.trim()).map_err(|e| RequestError::BadJson(e.to_string()))?;
    match req.kind.as_str() {
        "analyze" | "lint" | "oracle" | "clones" | "graph" | "audit" => Ok(req),
        other => Err(RequestError::UnknownKind(other.to_string())),
    }
}

/// Whether a first frame looks like an HTTP/1.x request line rather than
/// JSONL (requests start with `{`; HTTP starts with a method token).
pub fn looks_like_http(line: &[u8]) -> bool {
    [&b"POST "[..], b"GET ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"PATCH "]
        .iter()
        .any(|m| line.starts_with(m))
}

/// A parsed HTTP request head: method plus declared body length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpHead {
    /// Request method (`POST`, `GET`, ...).
    pub method: String,
    /// `Content-Length`, when declared.
    pub content_length: Option<usize>,
}

/// Reads HTTP header lines (after the request line) up to the blank line,
/// extracting the pieces the bridge needs.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn read_http_head(request_line: &[u8], reader: &mut impl BufRead) -> std::io::Result<HttpHead> {
    let method =
        String::from_utf8_lossy(request_line).split_whitespace().next().unwrap_or("").to_string();
    let mut content_length = None;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    Ok(HttpHead { method, content_length })
}

/// Reads exactly `len` body bytes.
///
/// # Errors
///
/// Propagates I/O errors, including unexpected EOF mid-body.
pub fn read_http_body(reader: &mut impl BufRead, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Renders a minimal `Connection: close` HTTP response around a JSON body.
pub fn http_response(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frames(input: &[u8], limit: usize) -> Vec<Frame> {
        let mut reader = BufReader::with_capacity(8, input);
        let mut out = Vec::new();
        loop {
            let frame = read_frame(&mut reader, limit).unwrap();
            let done = frame == Frame::Eof;
            out.push(frame);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn frames_split_on_newlines_and_keep_final_partial_line() {
        let got = frames(b"abc\ndef\nghi", 100);
        assert_eq!(
            got,
            vec![
                Frame::Line(b"abc".to_vec()),
                Frame::Line(b"def".to_vec()),
                Frame::Line(b"ghi".to_vec()),
                Frame::Eof,
            ]
        );
    }

    #[test]
    fn oversized_line_is_drained_without_wedging_the_next_frame() {
        // Regression: rejected class `oversized`. The 40-byte line blows a
        // 10-byte cap, but the following line must still arrive intact.
        let mut input = vec![b'x'; 40];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = frames(&input, 10);
        assert_eq!(
            got,
            vec![Frame::Oversized { limit: 10 }, Frame::Line(b"ok".to_vec()), Frame::Eof]
        );
    }

    #[test]
    fn oversized_final_unterminated_line_reaches_eof() {
        let input = vec![b'x'; 64];
        let got = frames(&input, 16);
        assert_eq!(got, vec![Frame::Oversized { limit: 16 }, Frame::Eof]);
    }

    #[test]
    fn exactly_at_the_limit_is_accepted() {
        let got = frames(b"12345\n", 5);
        assert_eq!(got, vec![Frame::Line(b"12345".to_vec()), Frame::Eof]);
    }

    #[test]
    fn non_utf8_line_is_a_structured_bad_utf8_error() {
        // Regression: rejected class `bad_utf8`.
        let err = parse_request(&[0xff, 0xfe, b'{', b'}']).unwrap_err();
        assert_eq!(err, RequestError::BadUtf8);
        assert_eq!(err.class(), "bad_utf8");
        assert!(err.message().contains("UTF-8"));
    }

    #[test]
    fn malformed_json_is_a_structured_bad_json_error() {
        // Regression: rejected class `bad_json`, covering truncated JSON
        // (a cut-off line) and type/field mismatches.
        for bad in ["{\"id\": 1, \"kind\"", "not json at all", "{}", "{\"id\": \"x\"}"] {
            let err = parse_request(bad.as_bytes()).unwrap_err();
            assert_eq!(err.class(), "bad_json", "input {bad:?} should be bad_json, got {err:?}");
        }
    }

    #[test]
    fn unknown_kind_is_a_structured_unknown_kind_error() {
        // Regression: rejected class `unknown_kind`.
        let line = br#"{"id": 7, "kind": "explode", "source": "", "label": null, "cwe": null}"#;
        let err = parse_request(line).unwrap_err();
        assert_eq!(err, RequestError::UnknownKind("explode".into()));
        assert_eq!(err.class(), "unknown_kind");
        assert!(err.message().contains("explode"));
    }

    #[test]
    fn request_roundtrips_through_jsonl() {
        let req = Request {
            id: 42,
            kind: "analyze".into(),
            source: "void f() {\n}\n".into(),
            label: Some(true),
            cwe: Some("SqlInjection".into()),
        };
        let line = serde_json::to_string(&req).unwrap();
        assert_eq!(parse_request(line.as_bytes()).unwrap(), req);
    }

    #[test]
    fn graph_request_is_accepted_and_stats_round_trip() {
        let line = br#"{"id": 3, "kind": "graph", "source": "void f() {\n}\n", "label": null, "cwe": null}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.kind, "graph");

        let stats = GraphStats {
            nodes: 4,
            edges: 3,
            cross_unit_edges: 1,
            unit_functions: vec!["f".into()],
            top_blast: vec![BlastEntry { function: "u000001::f".into(), blast: 0.5 }],
        };
        let encoded = Response::ok_graph(3, stats.clone()).encode();
        let back: Response = serde_json::from_str(encoded.trim()).unwrap();
        assert_eq!(back.status, "ok");
        assert_eq!(back.graph, Some(stats));
    }

    #[test]
    fn audit_request_is_accepted_and_report_round_trips() {
        // `source` may be omitted entirely for kinds that ignore it.
        let line = br#"{"id": 4, "kind": "audit"}"#;
        let req = parse_request(line).unwrap();
        assert_eq!(req.kind, "audit");
        assert_eq!(req.source, "");

        let report = vulnman_analysis::AuditEngine::new(vulnman_analysis::AuditConfig {
            seed: 5,
            samples_per_class: 2,
            jobs: 1,
        })
        .run();
        let encoded = Response::ok_audit(4, report.clone()).encode();
        let back: Response = serde_json::from_str(encoded.trim()).unwrap();
        assert_eq!(back.status, "ok");
        assert_eq!(back.audit, Some(report));
    }

    #[test]
    fn response_encodes_as_one_line() {
        let line = Response::error(9, "nope".into()).encode();
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1);
        let back: Response = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(back.id, 9);
        assert_eq!(back.status, "error");
    }

    #[test]
    fn http_preamble_detection() {
        assert!(looks_like_http(b"POST /analyze HTTP/1.1"));
        assert!(looks_like_http(b"GET / HTTP/1.1"));
        assert!(!looks_like_http(br#"{"id": 1}"#));
    }

    #[test]
    fn http_head_extracts_method_and_length() {
        let headers = b"Host: localhost\r\nContent-Length: 12\r\n\r\nrest";
        let mut reader = BufReader::new(&headers[..]);
        let head = read_http_head(b"POST / HTTP/1.1", &mut reader).unwrap();
        assert_eq!(head, HttpHead { method: "POST".into(), content_length: Some(12) });
        assert_eq!(read_http_body(&mut reader, 4).unwrap(), b"rest");
    }
}
