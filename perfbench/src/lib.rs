//! # vulnman-perfbench
//!
//! The repository's benchmark: three workloads that exercise the paper's
//! Figure-1 workflow the way its two kinds of users do.
//!
//! * `batch_projects` — a security team's nightly batch assessment of a
//!   multi-file corpus (samples per second).
//! * `serve_edit` — developers re-submitting edited versions of a few hot
//!   units to `vulnman serve` (latency under load, cache hits).
//! * `serve_churn` — the same server fed units it has never seen (cache
//!   misses, inserts and eviction, full analysis per request).
//!
//! The program is a black box driven through its public APIs; inputs come
//! from `vulnman_synth` and the `--seed` argument only. `README.md` next to
//! this crate records why each workload was chosen and what each per-layer
//! metric is expected to move.

pub mod batch;
pub mod inputs;
pub mod layers;
pub mod machine;
pub mod metrics;
pub mod online;
pub mod serve;
pub mod stats;
pub mod trace;
