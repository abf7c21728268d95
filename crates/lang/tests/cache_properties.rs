//! Property tests for the analysis cache's observability accounting: for
//! any lookup sequence, `hits + misses` equals the number of lookups, and
//! the shared-registry counters agree with `stats()`.

use proptest::prelude::*;
use vulnman_lang::cache::AnalysisCache;
use vulnman_obs::Registry;

/// A small pool of distinct, parseable sources to draw lookups from.
fn source(idx: usize) -> String {
    format!("int f{idx}(int x) {{ int y = x + {idx}; return y; }}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `hits + misses == lookups` for any interleaving of parse and
    /// analysis lookups over any key pool, and the attached registry's
    /// counters match `stats()` exactly.
    #[test]
    fn hits_plus_misses_equals_lookups(
        picks in proptest::collection::vec((0usize..6, any::<bool>()), 0..80),
    ) {
        let metrics = Registry::new();
        let cache = AnalysisCache::with_metrics(&metrics);
        let mut lookups = 0u64;
        let mut seen_parse = std::collections::HashSet::new();
        let mut seen_analysis = std::collections::HashSet::new();
        let mut expected_hits = 0u64;
        for (idx, use_analysis) in picks {
            let src = source(idx);
            if use_analysis {
                let program = vulnman_lang::parse(&src).unwrap();
                let _ = cache.analysis_keyed(
                    AnalysisCache::content_key(&src),
                    "prop-pass",
                    0,
                    || program.functions.len(),
                );
                if !seen_analysis.insert(idx) {
                    expected_hits += 1;
                }
            } else {
                let _ = cache.parse(&src);
                if !seen_parse.insert(idx) {
                    expected_hits += 1;
                }
            }
            lookups += 1;
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, lookups,
                "hits+misses must equal lookups after every operation");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, expected_hits);
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.counters["cache.hits"], stats.hits);
        prop_assert_eq!(snap.counters["cache.misses"], stats.misses);
    }

    /// A disabled cache recomputes everything: every lookup is a miss and
    /// the hit counter stays at zero, but results are still correct.
    #[test]
    fn disabled_cache_only_misses(picks in proptest::collection::vec(0usize..4, 1..40)) {
        let metrics = Registry::new();
        let cache = AnalysisCache::disabled_with_metrics(&metrics);
        for &idx in &picks {
            let program = cache.parse(&source(idx)).unwrap();
            prop_assert_eq!(program.functions.len(), 1);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits, 0);
        prop_assert_eq!(stats.misses, picks.len() as u64);
        prop_assert_eq!(metrics.snapshot().counters["cache.misses"], picks.len() as u64);
    }
}
