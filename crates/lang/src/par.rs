//! The workspace's one deterministic parallel map.
//!
//! Every batch pass that fans work out over threads (the workflow engine's
//! sharded passes, the differential oracle, clone shingling, the detector
//! audit, corpus-graph parsing and betweenness) goes through this module,
//! so one rule decides how work splits and how results come back:
//!
//! * `0..n` splits into at most `jobs` contiguous shards of
//!   `n.div_ceil(jobs)` indices each (the last may be shorter; `jobs` is
//!   clamped to `1..=n`), see [`shards`];
//! * each shard runs on its own scoped thread, except that a lone shard
//!   runs on the caller's thread;
//! * results are joined in shard order.
//!
//! A caller whose per-index function is pure therefore gets byte-identical
//! output at any `jobs`; the partition only decides wall-clock time.

// This module is the one place allowed to spawn scoped threads.
#![allow(clippy::disallowed_methods)]

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

/// The contiguous shards that `0..n` splits into at `jobs` workers, in
/// index order. Empty when `n == 0`; `jobs == 0` counts as one worker.
pub fn shards(n: usize, jobs: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = n.div_ceil(jobs.clamp(1, n.max(1))).max(1);
    (0..n.div_ceil(chunk)).map(move |i| i * chunk..((i + 1) * chunk).min(n))
}

/// Runs `f(shard_idx, range)` once per shard of `0..n` (see [`shards`]) and
/// returns each shard's outcome in shard order. A shard that panics yields
/// `Err` with its payload instead of unwinding into the caller, so the
/// caller decides how to recover.
pub fn run_shards<T: Send>(
    n: usize,
    jobs: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<thread::Result<T>> {
    let ranges: Vec<Range<usize>> = shards(n, jobs).collect();
    if ranges.len() <= 1 {
        return ranges
            .into_iter()
            .map(|range| panic::catch_unwind(AssertUnwindSafe(|| f(0, range))))
            .collect();
    }
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .enumerate()
            .map(|(shard_idx, range)| scope.spawn(move || f(shard_idx, range)))
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    })
}

/// Maps `f` over `0..n` in at most `jobs` shards and returns the results
/// in index order. A panic in any shard is re-raised on the caller's
/// thread with its original payload.
pub fn map<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    for part in run_shards(n, jobs, |_, range| range.map(&f).collect::<Vec<T>>()) {
        match part {
            Ok(part) => out.extend(part),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_returns_results_in_index_order() {
        for jobs in [1, 2, 3, 8, 100] {
            assert_eq!(map(37, jobs, |i| i * i), (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn shard_ranges_are_contiguous_div_ceil_chunks() {
        for n in [0usize, 1, 10] {
            for jobs in [0, 1, 2, 3, 7, n + 3] {
                let got: Vec<Range<usize>> = shards(n, jobs).collect();
                let chunk = n.div_ceil(jobs.clamp(1, n.max(1))).max(1);
                let want: Vec<Range<usize>> =
                    (0..n).step_by(chunk).map(|lo| lo..(lo + chunk).min(n)).collect();
                assert_eq!(got, want, "n={n} jobs={jobs}");
                assert!(got.len() <= jobs.max(1), "n={n} jobs={jobs}: at most `jobs` shards");
                // The shard runner hands out exactly these ranges, indexed.
                let seen = run_shards(n, jobs, |idx, range| (idx, range));
                let seen: Vec<(usize, Range<usize>)> =
                    seen.into_iter().map(|r| r.expect("no panic")).collect();
                let indexed: Vec<(usize, Range<usize>)> = want.into_iter().enumerate().collect();
                assert_eq!(seen, indexed, "n={n} jobs={jobs}");
            }
        }
        let ten: Vec<Range<usize>> = shards(10, 3).collect();
        assert_eq!(ten, vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn panicking_shard_is_reported_by_the_runner_and_reraised_by_map() {
        for jobs in [1, 3] {
            let outcomes = run_shards(9, jobs, |idx, range| {
                assert!(!range.contains(&4), "boom");
                idx
            });
            let failed: Vec<bool> = outcomes.iter().map(Result::is_err).collect();
            let panicking_shard = 4 / 9usize.div_ceil(jobs);
            let want: Vec<bool> = (0..jobs).map(|i| i == panicking_shard).collect();
            assert_eq!(failed, want, "jobs={jobs}");

            let caught = panic::catch_unwind(|| map(9, jobs, |i| assert!(i != 4, "boom at {i}")));
            let payload = caught.expect_err("map re-raises the shard's panic");
            let message = payload.downcast_ref::<String>().expect("formatted panic message");
            assert_eq!(message, "boom at 4", "jobs={jobs}: the original payload");
        }
    }
}
