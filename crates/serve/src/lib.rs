//! # vulnman-serve
//!
//! `vulnman serve`: a long-running, std-only analysis service over TCP.
//! Clients stream newline-delimited JSON requests (`analyze`, `lint`,
//! `oracle`) down one connection — or fire a single HTTP `POST` for
//! curl-friendliness — and a bounded worker pool answers them concurrently.
//!
//! The industrial half of the paper's gap study is *operational*: a
//! vulnerability-management pipeline is a service teams resubmit code to
//! all day, not a batch job. This crate makes that workload real, and the
//! per-stage incremental cache in `vulnman-lang` (lex → parse → CFG →
//! summaries → findings, keyed per function) makes resubmission cheap:
//! editing one function re-runs only the stages whose input hashes changed.
//!
//! Three properties the test suite pins:
//!
//! * **Equivalence** — responses are byte-identical to a cold, full,
//!   single-threaded analysis, for any worker count, interleaving, or
//!   cache warmth (`tests/serve_incremental.rs`, `tests/serve_stress.rs`).
//! * **Bounded admission** — the queue never exceeds its configured bound;
//!   overload sheds deterministically into the degradation ledger instead
//!   of growing latency without limit.
//! * **Defensive framing** — every malformed input class gets a structured
//!   error response; nothing panics or wedges the connection.
//!
//! ## Quick start
//!
//! ```
//! use vulnman_obs::Registry;
//! use vulnman_serve::{spawn, Request, ServeConfig};
//!
//! let metrics = Registry::new();
//! let server = spawn("127.0.0.1:0", ServeConfig::default(), &metrics).unwrap();
//! // ... point clients at server.addr() ...
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod service;

pub use protocol::{
    parse_request, read_frame, Frame, Request, RequestError, Response, MAX_REQUEST_BYTES,
};
pub use server::{spawn, ServeConfig, ServerHandle};
pub use service::{ServiceCore, SERVE_CACHE_ENTRY_LIMIT};
