//! Abstract interpretation: a generic monotone-framework fixpoint solver
//! over the [`crate::cfg`] layer with pluggable abstract domains.
//!
//! The module is organised as a classic monotone framework:
//!
//! * [`domain`] — the [`AbstractValue`] lattice contract, the per-variable
//!   [`Env`] state, and the [`Domain`] transfer-function trait;
//! * [`interval`] — value ranges with widening to ±∞ (out-of-bounds and
//!   division-by-zero reasoning), and the range transfer functions
//!   ([`RangeDomain`]) the width domain shares;
//! * [`nullness`] — literal-null provenance tracking for pointers;
//! * [`init`] — definite-initialization;
//! * [`ownership`] — heap-handle allocation state (use-after-free and
//!   double-free as must-facts);
//! * [`width`] — the interval transfer functions over values with
//!   storage-type-boundary widening (integer truncation proofs);
//! * [`provenance`] — attacker-control tracking with per-sink-kind
//!   sanitizer masks (kind-mismatched sanitization proofs);
//! * [`solver`] — the reverse-post-order worklist fixpoint engine with a
//!   configurable widening threshold;
//! * [`callgraph`] — program call graph plus the bottom-up driver that
//!   computes context-insensitive interprocedural summaries (one abstract
//!   return value per function) so facts flow across function boundaries.
//!
//! Termination argument: every shipped domain is either of finite height
//! (nullness, init, ownership: chains of length ≤ 4; provenance: rank chains
//! of length ≤ 4 with masks that only lose bits) or equipped with a widening
//! operator that jumps unstable bounds along a finite ladder — straight to
//! ±∞ for intervals, through the storage-type boundaries ±2⁷…±2⁶³ for the
//! width domain — so each variable's abstract value can only climb a finite
//! chain. The solver joins for the
//! first [`solver::SolverConfig::widening_threshold`] visits of a block and
//! widens afterwards, which bounds the number of times any block can be
//! re-enqueued; a hard `max_iterations` backstop turns a (theoretically
//! impossible) divergence into a reported non-convergence instead of a hang.
//!
//! ```
//! use vulnman_lang::absint::interval::IntervalDomain;
//! use vulnman_lang::absint::solver::{Solver, SolverConfig};
//! use vulnman_lang::cfg::Cfg;
//! use vulnman_lang::parse;
//!
//! let p = parse("int f() { int i = 0; while (i < 10) { i = i + 1; } return i; }").unwrap();
//! let cfg = Cfg::build(&p.functions[0]);
//! let domain = IntervalDomain::default();
//! let analysis = Solver::new(SolverConfig::default()).run(&domain, &cfg, &p.functions[0]);
//! assert!(analysis.stats.converged);
//! ```

pub mod callgraph;
pub mod domain;
pub mod init;
pub mod interval;
pub mod nullness;
pub mod ownership;
pub mod provenance;
pub mod solver;
pub mod width;

pub use callgraph::{analyze_framed, analyze_program, CallGraph, ProgramAnalysis};
pub use domain::{AbstractValue, Domain, Env, Summaries};
pub use init::{Init, InitDomain};
pub use interval::{Interval, IntervalDomain, RangeDomain, RangeValue};
pub use nullness::{Nullness, NullnessDomain};
pub use ownership::{Ownership, OwnershipDomain};
pub use provenance::{Provenance, ProvenanceDomain};
pub use solver::{DomainAnalysis, Solver, SolverConfig, SolverStats};
pub use width::{Width, WidthDomain};
