//! Content-addressed analysis cache.
//!
//! Industrial corpora are full of textually identical units — vendored
//! copies, generated code, and the deliberate duplicate slices of Gap
//! Observation 4 (experiment E08). Re-parsing and re-analyzing the same
//! bytes for every copy wastes most of a scan's CPU time. [`AnalysisCache`]
//! addresses results by a hash of the *normalized* source (line endings and
//! trailing whitespace stripped), so any stage — parsing, CFG construction,
//! dataflow, taint, rule scans — can memoize per unique content.
//!
//! Two tables are kept:
//!
//! * a parse table: content key → `Result<Arc<Program>, ParseError>`, and
//! * a generic analysis table: `(content key, analysis kind, config
//!   fingerprint)` → type-erased `Arc` result, for downstream passes whose
//!   output depends on both the source and the pass configuration.
//!
//! The cache is thread-safe (shared by the parallel workflow shards) and
//! deterministic: it never changes *what* is computed, only whether the
//! computation is repeated, so cached and uncached runs produce identical
//! results. A disabled cache (see [`AnalysisCache::disabled`]) computes
//! everything fresh, which benchmarks use as the baseline.

use crate::ast::Program;
use crate::error::ParseError;
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use vulnman_obs::{Counter, Gauge, Registry};

/// Hit/miss counters for one cache: a point-in-time view read from the
/// cache's observability counters (`cache.hits` / `cache.misses` in the
/// attached [`Registry`]), which are the single source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when the cache is unused).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Key of one memoized downstream analysis.
type AnalysisKey = (u64, &'static str, u64);

/// One stage of the incremental per-function pipeline
/// (lex → parse → CFG → absint summary → detector findings).
///
/// Each stage gets its own key space and its own hit/miss counters
/// (`incr.<stage>.hits` / `incr.<stage>.misses`), so the incremental driver
/// can prove per-stage minimality: an unchanged input hash must hit, a
/// changed one must miss, and hits + misses must equal lookups. Lex and
/// parse results are keyed per sample (whole-unit content key); CFG results
/// per function; summaries and findings per call-graph component (see
/// `crate::incremental`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Token-level validation of one source unit.
    Lex,
    /// Parsing one source unit into a [`Program`].
    Parse,
    /// Control-flow-graph construction for one function.
    Cfg,
    /// Interprocedural abstract-interpretation summaries for one
    /// call-graph component.
    Summary,
    /// Semantic-checker findings for one call-graph component.
    Findings,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] =
        [Stage::Lex, Stage::Parse, Stage::Cfg, Stage::Summary, Stage::Findings];

    /// Stable lowercase name (used for metric keys).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Lex => "lex",
            Stage::Parse => "parse",
            Stage::Cfg => "cfg",
            Stage::Summary => "summary",
            Stage::Findings => "findings",
        }
    }

    /// Index into the per-stage counter arrays.
    fn idx(self) -> usize {
        match self {
            Stage::Lex => 0,
            Stage::Parse => 1,
            Stage::Cfg => 2,
            Stage::Summary => 3,
            Stage::Findings => 4,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cache operation a fault hook can veto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOp {
    /// A lookup. A vetoed get is served as a miss (the value is recomputed).
    Get,
    /// A store. A vetoed put is dropped (the value is returned but not
    /// retained).
    Put,
}

/// Decides whether a cache operation is dropped, keyed by the content hash.
///
/// Returning `true` vetoes the operation. Installed by the workflow
/// engine's fault-injection layer; because a dropped get degrades to a
/// recompute and a dropped put to a smaller cache, a hook can *never*
/// change analysis results — only how much work is repeated. The hook must
/// be a pure function of its arguments for runs to stay reproducible.
pub type CacheFaultHook = Arc<dyn Fn(CacheOp, u64) -> bool + Send + Sync>;

/// How many stage-table entries one cached unit is budgeted relative to its
/// single parse entry (see [`AnalysisCache::with_entry_limit`]): each pass
/// over a unit deposits a CFG artifact per function and a summary plus a
/// findings artifact per call-graph component, so the stage table fills an
/// order of magnitude faster than the parse table while holding artifacts
/// an order of magnitude smaller. Scaling its bound by this factor keeps
/// both tables flushing at comparable *memory* pressure rather than
/// comparable entry counts.
pub const STAGE_TABLE_FANOUT: usize = 16;

/// A thread-safe, content-addressed cache of parse and analysis results.
///
/// Accounting (hits, misses, evictions, resident source bytes) is reported
/// through [`vulnman_obs`] instruments — pass a shared [`Registry`] via
/// [`AnalysisCache::with_metrics`] to fold the cache's counters into a
/// pipeline-wide snapshot, or use [`AnalysisCache::new`] for a standalone
/// cache with its own private registry.
pub struct AnalysisCache {
    enabled: bool,
    entry_limit: Option<usize>,
    parses: Mutex<HashMap<u64, Result<Arc<Program>, ParseError>>>,
    analyses: Mutex<HashMap<AnalysisKey, Arc<dyn Any + Send + Sync>>>,
    stages: Mutex<HashMap<(Stage, u64), Arc<dyn Any + Send + Sync>>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    bytes: Gauge,
    stage_hits: [Counter; 5],
    stage_misses: [Counter; 5],
    fault_hook: Option<CacheFaultHook>,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        AnalysisCache::new()
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("AnalysisCache")
            .field("enabled", &self.enabled)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

impl AnalysisCache {
    /// Creates an empty, enabled cache with its own private metrics
    /// registry.
    pub fn new() -> Self {
        AnalysisCache::with_metrics(&Registry::new())
    }

    /// Creates an empty, enabled cache reporting through `metrics` under
    /// the `cache.*` instrument names (`cache.hits`, `cache.misses`,
    /// `cache.evictions` counters and the `cache.bytes` gauge of resident
    /// cached source bytes).
    pub fn with_metrics(metrics: &Registry) -> Self {
        // Per-stage counters are pre-registered (`incr.<stage>.hits` /
        // `incr.<stage>.misses`) so exported snapshots carry the full
        // incremental schema even for stages that never fire.
        let stage_hits = Stage::ALL.map(|s| metrics.counter(&format!("incr.{}.hits", s.as_str())));
        let stage_misses =
            Stage::ALL.map(|s| metrics.counter(&format!("incr.{}.misses", s.as_str())));
        AnalysisCache {
            enabled: true,
            entry_limit: None,
            parses: Mutex::new(HashMap::new()),
            analyses: Mutex::new(HashMap::new()),
            stages: Mutex::new(HashMap::new()),
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            evictions: metrics.counter("cache.evictions"),
            bytes: metrics.gauge("cache.bytes"),
            stage_hits,
            stage_misses,
            fault_hook: None,
        }
    }

    /// Bounds the cache to roughly `limit` *units*: the parse and analysis
    /// tables are capped at `limit` entries each, the per-function stage
    /// table at `limit ×` [`STAGE_TABLE_FANOUT`] (one unit contributes a
    /// single parse entry but an entry per function CFG and per
    /// pass × component summary/findings, and those artifacts are small —
    /// the parsed ASTs are what dominate resident memory). When an insert
    /// would push a table past its bound, the whole table is flushed first
    /// — *epoch eviction*. Dropping a generation at once is O(1) amortized,
    /// needs no per-entry recency bookkeeping on the hot lookup path, and
    /// re-fills with exactly the live working set within one request per
    /// unit. Long-running services need the bound: an unbounded table
    /// retains every historical version of every resubmitted unit, and the
    /// resulting heap growth taxes every allocation the analysis makes.
    /// Flushed entries are recorded on the `cache.evictions` counter.
    /// Eviction never changes results — only whether a computation is
    /// repeated.
    pub fn with_entry_limit(mut self, limit: usize) -> Self {
        self.entry_limit = Some(limit.max(1));
        self
    }

    /// Flushes `table` if inserting one more entry would exceed `bound`
    /// (no-op when the cache is unbounded).
    fn make_room<K, V>(
        &self,
        table: &mut HashMap<K, V>,
        bound: Option<usize>,
        holds_sources: bool,
    ) {
        let Some(bound) = bound else { return };
        if table.len() >= bound {
            self.evictions.add(table.len() as u64);
            table.clear();
            if holds_sources {
                self.bytes.set(0);
            }
        }
    }

    /// The stage table's entry bound relative to the configured unit limit.
    fn stage_bound(&self) -> Option<usize> {
        self.entry_limit.map(|l| l.saturating_mul(STAGE_TABLE_FANOUT))
    }

    /// Installs a fault hook consulted before every storage access (see
    /// [`CacheFaultHook`]). Vetoed gets are misses, vetoed puts are dropped;
    /// results are unchanged either way.
    pub fn set_fault_hook(&mut self, hook: CacheFaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Whether the hook vetoes `op` for `key`.
    fn faulted(&self, op: CacheOp, key: u64) -> bool {
        self.fault_hook.as_ref().is_some_and(|h| h(op, key))
    }

    /// Creates a pass-through cache: every lookup computes fresh and nothing
    /// is stored. Used as the baseline in benchmarks and when a run must not
    /// retain source-derived state.
    pub fn disabled() -> Self {
        AnalysisCache::disabled_with_metrics(&Registry::new())
    }

    /// A pass-through cache reporting its (all-miss) lookup volume through
    /// `metrics`, so baselines can still export comparable counters.
    pub fn disabled_with_metrics(metrics: &Registry) -> Self {
        AnalysisCache { enabled: false, ..AnalysisCache::with_metrics(metrics) }
    }

    /// Whether lookups are served from storage.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Current hit/miss counters (counted even when disabled, so baselines
    /// can report their would-be lookup volume). Reads the `cache.*`
    /// counters of the attached registry — there is no second set of
    /// bookkeeping.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits.get(), misses: self.misses.get() }
    }

    /// Drops all stored results and resets the hit/miss counters (a
    /// lifecycle boundary, e.g. between benchmark runs). Dropped entries
    /// are recorded on the `cache.evictions` counter and the resident-byte
    /// gauge returns to zero.
    pub fn clear(&self) {
        let mut parses = self.parses.lock().unwrap_or_else(|e| e.into_inner());
        let mut analyses = self.analyses.lock().unwrap_or_else(|e| e.into_inner());
        let mut stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        self.evictions.add((parses.len() + analyses.len() + stages.len()) as u64);
        parses.clear();
        analyses.clear();
        stages.clear();
        drop(parses);
        drop(analyses);
        drop(stages);
        self.bytes.set(0);
        self.hits.reset();
        self.misses.reset();
        for s in Stage::ALL {
            self.stage_hits[s.idx()].reset();
            self.stage_misses[s.idx()].reset();
        }
    }

    /// The content address of `source`: a 64-bit hash of the normalized
    /// text. Two sources that differ only in line endings or trailing
    /// whitespace share a key.
    pub fn content_key(source: &str) -> u64 {
        // FNV-1a over normalized bytes. `\r` is dropped, and whitespace
        // runs (including newlines) are buffered until the next
        // non-whitespace byte — so trailing whitespace on each line and
        // trailing blank lines at EOF never reach the hash.
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        };
        let mut pending_ws = 0usize;
        let mut pending_nl = 0usize;
        for &b in source.as_bytes() {
            match b {
                b'\r' => {}
                b'\n' => {
                    pending_ws = 0;
                    pending_nl += 1;
                }
                b' ' | b'\t' => pending_ws += 1,
                other => {
                    for _ in 0..pending_nl {
                        eat(b'\n');
                    }
                    pending_nl = 0;
                    for _ in 0..pending_ws {
                        eat(b' ');
                    }
                    pending_ws = 0;
                    eat(other);
                }
            }
        }
        h
    }

    /// Parses `source`, reusing the stored result when the same content has
    /// been parsed before. Errors are cached too: malformed duplicates fail
    /// fast without re-lexing.
    pub fn parse(&self, source: &str) -> Result<Arc<Program>, ParseError> {
        if !self.enabled {
            self.misses.inc();
            return crate::parser::parse(source).map(Arc::new);
        }
        self.parse_keyed(Self::content_key(source), source)
    }

    /// [`parse`](Self::parse) with a precomputed [`content_key`]
    /// (Self::content_key). Callers touching several tables for the same
    /// source hash it once and reuse the key.
    pub fn parse_keyed(&self, key: u64, source: &str) -> Result<Arc<Program>, ParseError> {
        self.parse_counted(key, source, &self.hits, &self.misses)
    }

    /// The one cached-parse body behind [`parse_keyed`](Self::parse_keyed)
    /// and [`parse_stage`](Self::parse_stage): they share storage, fault
    /// sites and eviction, and differ only in the hit/miss counter pair
    /// they bump. Errors are cached like programs.
    fn parse_counted(
        &self,
        key: u64,
        source: &str,
        hits: &Counter,
        misses: &Counter,
    ) -> Result<Arc<Program>, ParseError> {
        // Disabled, or an injected lookup fault: degrade to a recompute
        // (and skip the store — a faulted read path should not mutate
        // storage).
        if !self.enabled || self.faulted(CacheOp::Get, key) {
            misses.inc();
            return crate::parser::parse(source).map(Arc::new);
        }
        if let Some(cached) = self.parses.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            hits.inc();
            return cached.clone();
        }
        // Compute outside the lock; a concurrent shard may duplicate the
        // parse of a brand-new key, but both produce identical values.
        misses.inc();
        let result = crate::parser::parse(source).map(Arc::new);
        if self.faulted(CacheOp::Put, key) {
            return result;
        }
        let mut parses = self.parses.lock().unwrap_or_else(|e| e.into_inner());
        self.make_room(&mut parses, self.entry_limit, true);
        let prev = parses.insert(key, result.clone());
        drop(parses);
        if prev.is_none() {
            self.bytes.add(source.len() as i64);
        }
        result
    }

    /// Memoizes one named downstream analysis of `source`.
    ///
    /// `kind` names the pass ("findings", "surface", "taint", …) and
    /// `config_key` fingerprints its configuration, so the same source can
    /// carry several memoized passes — and the same pass under different
    /// configurations — without collision. `compute` runs on a miss.
    pub fn analysis<T, F>(
        &self,
        source: &str,
        kind: &'static str,
        config_key: u64,
        compute: F,
    ) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if !self.enabled {
            self.misses.inc();
            return Arc::new(compute());
        }
        self.analysis_keyed(Self::content_key(source), kind, config_key, compute)
    }

    /// [`analysis`](Self::analysis) with a precomputed content key, so the
    /// per-sample hot path hashes each source exactly once across all of its
    /// memoized passes.
    pub fn analysis_keyed<T, F>(
        &self,
        content_key: u64,
        kind: &'static str,
        config_key: u64,
        compute: F,
    ) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if !self.enabled {
            self.misses.inc();
            return Arc::new(compute());
        }
        let key = (content_key, kind, config_key);
        if self.faulted(CacheOp::Get, key.0) {
            self.misses.inc();
            return Arc::new(compute());
        }
        if let Some(cached) = self.analyses.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
            if let Ok(typed) = Arc::downcast::<T>(Arc::clone(cached)) {
                self.hits.inc();
                return typed;
            }
        }
        self.misses.inc();
        let value = Arc::new(compute());
        if self.faulted(CacheOp::Put, key.0) {
            return value;
        }
        let mut analyses = self.analyses.lock().unwrap_or_else(|e| e.into_inner());
        self.make_room(&mut analyses, self.entry_limit, false);
        analyses.insert(key, Arc::clone(&value) as Arc<dyn Any + Send + Sync>);
        value
    }

    /// Current hit/miss counters of one incremental stage (reads the
    /// `incr.<stage>.*` counters of the attached registry — like
    /// [`stats`](Self::stats), there is no second set of bookkeeping).
    pub fn stage_stats(&self, stage: Stage) -> CacheStats {
        CacheStats {
            hits: self.stage_hits[stage.idx()].get(),
            misses: self.stage_misses[stage.idx()].get(),
        }
    }

    /// Looks up one stage entry without computing on a miss. Every call
    /// counts exactly one hit or one miss on the stage's counters, so
    /// `hits + misses == lookups` holds per stage. A vetoed get (see
    /// [`CacheFaultHook`]) or a type mismatch is served as a miss.
    pub fn stage_get<T>(&self, stage: Stage, key: u64) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
    {
        if !self.enabled || self.faulted(CacheOp::Get, key) {
            self.stage_misses[stage.idx()].inc();
            return None;
        }
        let cached = self
            .stages
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&(stage, key))
            .map(Arc::clone);
        match cached.and_then(|c| Arc::downcast::<T>(c).ok()) {
            Some(typed) => {
                self.stage_hits[stage.idx()].inc();
                Some(typed)
            }
            None => {
                self.stage_misses[stage.idx()].inc();
                None
            }
        }
    }

    /// Stores one stage entry. Counts nothing (only lookups are counted);
    /// a vetoed put is dropped, a disabled cache stores nothing.
    pub fn stage_put<T>(&self, stage: Stage, key: u64, value: Arc<T>)
    where
        T: Send + Sync + 'static,
    {
        if !self.enabled || self.faulted(CacheOp::Put, key) {
            return;
        }
        let mut stages = self.stages.lock().unwrap_or_else(|e| e.into_inner());
        self.make_room(&mut stages, self.stage_bound(), false);
        stages.insert((stage, key), value as Arc<dyn Any + Send + Sync>);
    }

    /// Memoizes one stage computation: [`stage_get`](Self::stage_get), and
    /// on a miss `compute` runs and the result is
    /// [`stage_put`](Self::stage_put) back.
    pub fn stage<T, F>(&self, stage: Stage, key: u64, compute: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if let Some(cached) = self.stage_get::<T>(stage, key) {
            return cached;
        }
        let value = Arc::new(compute());
        self.stage_put(stage, key, Arc::clone(&value));
        value
    }

    /// [`parse_keyed`](Self::parse_keyed) accounted on the incremental
    /// [`Stage::Parse`] counters instead of the whole-cache `cache.*`
    /// counters. Storage is shared with `parse_keyed`: a unit parsed by the
    /// batch workflow is a warm hit for the serving path and vice versa.
    pub fn parse_stage(&self, key: u64, source: &str) -> Result<Arc<Program>, ParseError> {
        let idx = Stage::Parse.idx();
        self.parse_counted(key, source, &self.stage_hits[idx], &self.stage_misses[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int f(int a) { return a + 1; }";

    #[test]
    fn parse_is_cached_by_content() {
        let cache = AnalysisCache::new();
        let a = cache.parse(SRC).unwrap();
        let b = cache.parse(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second parse must be the cached Arc");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn normalization_ignores_line_endings_and_trailing_ws() {
        let unix = "int f() {\n  return 0;\n}";
        let dos = "int f() {  \r\n  return 0;\t\r\n}";
        assert_eq!(AnalysisCache::content_key(unix), AnalysisCache::content_key(dos));
        // Leading indentation is significant only in run length, not CRs.
        assert_ne!(
            AnalysisCache::content_key("int f() { return 0; }"),
            AnalysisCache::content_key("int g() { return 0; }")
        );
    }

    #[test]
    fn parse_errors_are_cached() {
        let cache = AnalysisCache::new();
        let e1 = cache.parse("int f( {").unwrap_err();
        let e2 = cache.parse("int f( {").unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn analyses_are_keyed_by_kind_and_config() {
        let cache = AnalysisCache::new();
        let a = cache.analysis(SRC, "len", 0, || SRC.len());
        let b = cache.analysis(SRC, "len", 0, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        // Different config fingerprint recomputes.
        let c = cache.analysis(SRC, "len", 1, || 999usize);
        assert_eq!(*c, 999);
        // Different kind with a different type is fine.
        let d = cache.analysis(SRC, "name", 0, || "f".to_string());
        assert_eq!(*d, "f");
    }

    #[test]
    fn disabled_cache_always_computes() {
        let cache = AnalysisCache::disabled();
        let a = cache.parse(SRC).unwrap();
        let b = cache.parse(SRC).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
        let n = cache.analysis(SRC, "len", 0, || 1u32);
        let m = cache.analysis(SRC, "len", 0, || 2u32);
        assert_eq!((*n, *m), (1, 2));
    }

    #[test]
    fn clear_resets_storage_and_counters() {
        let cache = AnalysisCache::new();
        cache.parse(SRC).unwrap();
        cache.parse(SRC).unwrap();
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
        cache.parse(SRC).unwrap();
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = AnalysisCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        cache.parse(SRC).unwrap();
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 64);
        assert!(stats.hits >= 60, "most lookups hit: {stats:?}");
    }

    #[test]
    fn hit_rate_is_sane() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats { hits: 3, misses: 1 }.hit_rate(), 0.75);
    }

    #[test]
    fn shared_registry_is_the_source_of_truth() {
        let metrics = Registry::new();
        let cache = AnalysisCache::with_metrics(&metrics);
        cache.parse(SRC).unwrap();
        cache.parse(SRC).unwrap();
        // The registry's counters and stats() agree — same atomics.
        assert_eq!(metrics.counter("cache.hits").get(), 1);
        assert_eq!(metrics.counter("cache.misses").get(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // Resident bytes track stored parse sources; clear evicts and zeroes.
        assert_eq!(metrics.gauge("cache.bytes").get(), SRC.len() as i64);
        cache.clear();
        assert_eq!(metrics.counter("cache.evictions").get(), 1);
        assert_eq!(metrics.gauge("cache.bytes").get(), 0);
    }

    #[test]
    fn noop_registry_cache_still_caches_but_reports_nothing() {
        let cache = AnalysisCache::with_metrics(&Registry::noop());
        let a = cache.parse(SRC).unwrap();
        let b = cache.parse(SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "storage works regardless of recording");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn entry_limit_flushes_a_full_table_but_keeps_the_newest_entry() {
        let metrics = Registry::new();
        // With a unit limit of 1 the stage table is bounded at the fanout.
        let bound = STAGE_TABLE_FANOUT as u64;
        let cache = AnalysisCache::with_metrics(&metrics).with_entry_limit(1);
        for key in 0..bound {
            cache.stage(Stage::Summary, key, || key);
        }
        // Table is at the bound; the next insert flushes the generation
        // first, so the new entry survives and is immediately reusable.
        cache.stage(Stage::Summary, bound, || bound);
        assert_eq!(metrics.counter("cache.evictions").get(), bound);
        assert!(cache.stage_get::<u64>(Stage::Summary, bound).is_some(), "newest entry survives");
        assert!(cache.stage_get::<u64>(Stage::Summary, 0).is_none(), "old generation flushed");
        // Accounting still holds: every lookup was one hit or one miss.
        let stats = cache.stage_stats(Stage::Summary);
        assert_eq!(stats.hits + stats.misses, bound + 3);
    }

    #[test]
    fn entry_limit_bounds_each_table_independently() {
        let metrics = Registry::new();
        let cache = AnalysisCache::with_metrics(&metrics).with_entry_limit(2);
        let sources = ["int a() { return 1; }", "int b() { return 2; }", "int c() { return 3; }"];
        for src in sources {
            cache.parse(src).unwrap();
        }
        // Third parse flushed the first generation (2 entries) and the
        // resident-bytes gauge tracks only the surviving source.
        assert_eq!(metrics.counter("cache.evictions").get(), 2);
        assert_eq!(metrics.gauge("cache.bytes").get(), sources[2].len() as i64);
        // The stages table is untouched by parse-table evictions.
        cache.stage(Stage::Cfg, 7, || 7u64);
        assert!(cache.stage_get::<u64>(Stage::Cfg, 7).is_some());
        // Unbounded caches never evict.
        let free = AnalysisCache::new();
        for key in 0..64u64 {
            free.stage(Stage::Findings, key, || key);
        }
        assert!(free.stage_get::<u64>(Stage::Findings, 0).is_some());
    }

    #[test]
    fn get_fault_degrades_to_recompute_with_identical_value() {
        let baseline = AnalysisCache::new();
        let expected = baseline.parse(SRC).unwrap();

        let mut cache = AnalysisCache::new();
        cache.set_fault_hook(Arc::new(|op, _key| op == CacheOp::Get));
        let a = cache.parse(SRC).unwrap();
        let b = cache.parse(SRC).unwrap();
        // Every lookup is dropped, so both calls recompute fresh values …
        assert!(!Arc::ptr_eq(&a, &b), "faulted gets must never hit");
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        // … but the values are byte-identical to the fault-free parse.
        assert_eq!(format!("{a:?}"), format!("{expected:?}"));
    }

    #[test]
    fn put_fault_never_stores_but_results_are_correct() {
        let metrics = Registry::new();
        let mut cache = AnalysisCache::with_metrics(&metrics);
        cache.set_fault_hook(Arc::new(|op, _key| op == CacheOp::Put));
        cache.parse(SRC).unwrap();
        cache.parse(SRC).unwrap();
        // Stores are dropped, so the second lookup still misses and nothing
        // is resident.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
        assert_eq!(metrics.gauge("cache.bytes").get(), 0);
    }

    #[test]
    fn analysis_faults_degrade_without_changing_values() {
        let mut cache = AnalysisCache::new();
        cache.set_fault_hook(Arc::new(|op, _key| op == CacheOp::Get));
        let a = cache.analysis(SRC, "taint", 0, || 41_u32 + 1);
        let b = cache.analysis(SRC, "taint", 0, || 41_u32 + 1);
        assert_eq!(*a, 42);
        assert_eq!(*b, 42);
        assert!(!Arc::ptr_eq(&a, &b), "faulted analysis gets recompute");
    }
}
