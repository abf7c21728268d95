//! Machine-checked detector-coverage audit: the CWE × detector-family ×
//! precision matrix.
//!
//! The paper's central observation is that industry assembles *suites* of
//! detection techniques, and the dangerous failures are the quiet ones —
//! a class nobody's tool covers, or a tool whose precision decays without
//! anyone noticing. This module makes that audit a build artifact: every
//! catalog class is exercised against every detector family over a seeded
//! vulnerable/fixed corpus, and the resulting coverage/precision matrix is
//! compared against a committed baseline so a lost cell or a new false
//! positive fails CI instead of surfacing in production triage.
//!
//! Families are disjoint techniques, not product bundles:
//!
//! * `rules` — the syntactic single-pattern detectors
//!   ([`RuleEngine::syntactic_suite`]).
//! * `taint` — interprocedural source→sink dataflow ([`TaintDetector`]).
//! * `semantic` — the abstract-interpretation checkers with evidence
//!   traces ([`SemanticEngine`]).
//! * `dynamic` — the sanitizer-instrumented concrete interpreter
//!   ([`DynamicSanitizer`]).
//! * `ml` — a trained classifier, injected via [`MlVerdict`] so this crate
//!   stays independent of the model stack.
//!
//! Everything is deterministic: the corpus is seeded, scanning is
//! order-independent, and the report is byte-identical at any `--jobs`.

use crate::checkers::SemanticEngine;
use crate::detectors::{RuleEngine, StaticDetector, TaintDetector};
use crate::dynamic::DynamicSanitizer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vulnman_obs::Registry;
use vulnman_synth::cwe::Cwe;
use vulnman_synth::generator::SampleGenerator;
use vulnman_synth::style::StyleProfile;
use vulnman_synth::tier::Tier;
use vulnman_synth::Sample;

/// Detector families audited, in presentation order. The `ml` column is
/// present only when a scorer is injected ([`AuditEngine::with_ml`]).
pub const STATIC_FAMILIES: [&str; 4] = ["rules", "taint", "semantic", "dynamic"];

/// Family name of the injected classifier column.
pub const ML_FAMILY: &str = "ml";

/// Minimum fraction of vulnerable samples a family must flag (with zero
/// false positives on the fixed twins) for its cell to count as *covered*:
/// 90%, matching the absint precision gate.
const COVERAGE_NUM: usize = 9;
const COVERAGE_DEN: usize = 10;

/// A trained classifier's binary verdict, injected by the caller (the CLI
/// and server wire the tool-augmented model from the core crate). The
/// indirection keeps `vulnman-analysis` free of a model-stack dependency,
/// mirroring the `ToolSuite` shim on the ML side.
pub trait MlVerdict: Send + Sync {
    /// Model name recorded in the report.
    fn name(&self) -> String;
    /// `true` when the model flags the sample as vulnerable.
    fn flags(&self, sample: &Sample) -> bool;
}

/// Audit parameters. The committed baseline pins these: change them and
/// the baseline must be regenerated deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Corpus seed (per-class streams are derived from it).
    pub seed: u64,
    /// Vulnerable/fixed pairs generated per class.
    pub samples_per_class: usize,
    /// Worker threads for the scan phase. Any value produces a
    /// byte-identical report.
    pub jobs: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { seed: 0xA0D1, samples_per_class: 12, jobs: 1 }
    }
}

/// One matrix cell: how a family fared on one class's corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    /// Vulnerable samples flagged with the class (out of
    /// [`AuditReport::samples_per_class`]).
    pub detected: usize,
    /// Fixed twins flagged with the class.
    pub false_positives: usize,
    /// `detected >= 90%` of the corpus with zero false positives.
    pub covered: bool,
}

impl Cell {
    fn new(detected: usize, false_positives: usize, total: usize) -> Cell {
        Cell {
            detected,
            false_positives,
            covered: detected * COVERAGE_DEN >= total * COVERAGE_NUM && false_positives == 0,
        }
    }
}

/// One class row: its identity plus a cell per family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassAudit {
    /// CWE id.
    pub cwe: u32,
    /// Human name from the catalog.
    pub name: String,
    /// Whether the class sits in the public Top-25 slice.
    pub top25: bool,
    /// Family name → cell. `BTreeMap` keeps the JSON key order stable.
    pub cells: BTreeMap<String, Cell>,
}

/// The full audit: parameters plus the matrix, serializable as the
/// committed baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Corpus seed the matrix was computed from.
    pub seed: u64,
    /// Pairs per class.
    pub samples_per_class: usize,
    /// Families audited, in presentation order.
    pub families: Vec<String>,
    /// Name of the injected classifier, when one was wired.
    pub ml_model: Option<String>,
    /// One row per catalog class, in catalog order.
    pub classes: Vec<ClassAudit>,
}

impl AuditReport {
    /// Total cells in the matrix.
    pub fn cell_count(&self) -> usize {
        self.classes.iter().map(|c| c.cells.len()).sum()
    }

    /// Cells meeting the coverage gate.
    pub fn covered_count(&self) -> usize {
        self.classes.iter().flat_map(|c| c.cells.values()).filter(|c| c.covered).count()
    }

    /// Classes no family covers — the audit's reason to exist.
    pub fn blind_classes(&self) -> Vec<u32> {
        self.classes
            .iter()
            .filter(|c| c.cells.values().all(|cell| !cell.covered))
            .map(|c| c.cwe)
            .collect()
    }

    /// Compares this run against a committed baseline. Returns the list of
    /// violations (empty means the gate passes):
    ///
    /// * parameter or matrix-shape drift (stale baseline);
    /// * a cell that was covered in the baseline and no longer is;
    /// * a cell whose false-positive count rose;
    /// * any false positive at all in the `semantic` family, which ships a
    ///   proof with every finding and therefore holds a zero-FP bar.
    pub fn check_against(&self, baseline: &AuditReport) -> Vec<String> {
        let mut violations = Vec::new();
        if self.samples_per_class != baseline.samples_per_class || self.seed != baseline.seed {
            violations.push(format!(
                "parameter drift: run is seed={} n={}, baseline is seed={} n={} — regenerate \
                 the baseline",
                self.seed, self.samples_per_class, baseline.seed, baseline.samples_per_class
            ));
            return violations;
        }
        if self.families != baseline.families {
            violations.push(format!(
                "family set drift: run has {:?}, baseline has {:?} — regenerate the baseline",
                self.families, baseline.families
            ));
            return violations;
        }
        let base_rows: BTreeMap<u32, &ClassAudit> =
            baseline.classes.iter().map(|c| (c.cwe, c)).collect();
        for row in &self.classes {
            let Some(base) = base_rows.get(&row.cwe) else {
                violations.push(format!(
                    "CWE-{} is new to the catalog — regenerate the baseline",
                    row.cwe
                ));
                continue;
            };
            for (family, cell) in &row.cells {
                let Some(base_cell) = base.cells.get(family) else {
                    violations.push(format!(
                        "CWE-{} gained family {family:?} — regenerate the baseline",
                        row.cwe
                    ));
                    continue;
                };
                if base_cell.covered && !cell.covered {
                    violations.push(format!(
                        "coverage regression: {family} no longer covers CWE-{} \
                         ({}/{} detected, {} false positive(s); baseline {}/{})",
                        row.cwe,
                        cell.detected,
                        self.samples_per_class,
                        cell.false_positives,
                        base_cell.detected,
                        self.samples_per_class,
                    ));
                }
                if cell.false_positives > base_cell.false_positives {
                    violations.push(format!(
                        "precision regression: {family} on CWE-{} rose to {} false positive(s) \
                         (baseline {})",
                        row.cwe, cell.false_positives, base_cell.false_positives
                    ));
                }
                if family == "semantic" && cell.false_positives > 0 {
                    violations.push(format!(
                        "semantic family must hold zero false positives, found {} on CWE-{}",
                        cell.false_positives, row.cwe
                    ));
                }
            }
        }
        for cwe in base_rows.keys() {
            if !self.classes.iter().any(|c| c.cwe == *cwe) {
                violations.push(format!("CWE-{cwe} left the catalog — regenerate the baseline"));
            }
        }
        violations
    }

    /// Renders the matrix as a markdown table (the CI artifact).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Detector coverage × precision matrix\n\n");
        out.push_str(&format!(
            "Seed {}, {} vulnerable/fixed pairs per class. A cell is **covered** (✓) when \
             the family flags ≥{}% of vulnerable samples with zero false positives on the \
             fixed twins; `!k` marks k false positives.\n\n",
            self.seed,
            self.samples_per_class,
            COVERAGE_NUM * 100 / COVERAGE_DEN,
        ));
        if let Some(model) = &self.ml_model {
            out.push_str(&format!("ML column: `{model}`.\n\n"));
        }
        out.push_str("| CWE | class | top-25 |");
        for f in &self.families {
            out.push_str(&format!(" {f} |"));
        }
        out.push_str("\n|----:|---|:-:|");
        for _ in &self.families {
            out.push_str(":-:|");
        }
        out.push('\n');
        for row in &self.classes {
            out.push_str(&format!(
                "| {} | {} | {} |",
                row.cwe,
                row.name,
                if row.top25 { "yes" } else { "" }
            ));
            for f in &self.families {
                match row.cells.get(f) {
                    None => out.push_str(" — |"),
                    Some(cell) => {
                        let mark = if cell.covered { "✓ " } else { "" };
                        let fp = if cell.false_positives > 0 {
                            format!(" !{}", cell.false_positives)
                        } else {
                            String::new()
                        };
                        out.push_str(&format!(
                            " {mark}{}/{}{fp} |",
                            cell.detected, self.samples_per_class
                        ));
                    }
                }
            }
            out.push('\n');
        }
        let blind = self.blind_classes();
        out.push_str(&format!(
            "\n{} of {} cells covered.",
            self.covered_count(),
            self.cell_count()
        ));
        if blind.is_empty() {
            out.push_str(" Every class is covered by at least one family.\n");
        } else {
            out.push_str(&format!(
                " Classes with no covering family: {}.\n",
                blind.iter().map(|id| format!("CWE-{id}")).collect::<Vec<_>>().join(", ")
            ));
        }
        out
    }
}

/// One corpus unit queued for scanning.
struct AuditUnit {
    cwe: Cwe,
    vulnerable: bool,
    sample: Sample,
}

/// Per-unit family verdicts, index-aligned with the report's family list.
type UnitHits = Vec<bool>;

/// Computes the audit matrix. Construction is cheap; [`AuditEngine::run`]
/// does the work.
pub struct AuditEngine {
    config: AuditConfig,
    ml: Option<Box<dyn MlVerdict>>,
}

impl std::fmt::Debug for AuditEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditEngine")
            .field("config", &self.config)
            .field("ml", &self.ml.as_ref().map(|m| m.name()))
            .finish()
    }
}

impl AuditEngine {
    /// Audits the four built-in static families.
    pub fn new(config: AuditConfig) -> Self {
        AuditEngine { config, ml: None }
    }

    /// Adds the `ml` column, scored by `verdict`.
    pub fn with_ml(mut self, verdict: Box<dyn MlVerdict>) -> Self {
        self.ml = Some(verdict);
        self
    }

    fn families(&self) -> Vec<String> {
        let mut v: Vec<String> = STATIC_FAMILIES.iter().map(|s| s.to_string()).collect();
        if self.ml.is_some() {
            v.push(ML_FAMILY.to_string());
        }
        v
    }

    /// Seeded corpus: `samples_per_class` vulnerable/fixed pairs per
    /// catalog class, mainstream style, curated tier. Generation is
    /// single-threaded so the corpus is independent of `jobs`.
    fn corpus(&self) -> Vec<AuditUnit> {
        let mut units = Vec::new();
        for cwe in Cwe::ALL {
            let class_seed = self.config.seed ^ ((cwe.id() as u64) << 17);
            let mut generator = SampleGenerator::new(class_seed, StyleProfile::mainstream());
            for _ in 0..self.config.samples_per_class {
                let (vuln, fixed) = generator.vulnerable_pair(cwe, Tier::Curated, "audit");
                units.push(AuditUnit { cwe, vulnerable: true, sample: vuln });
                units.push(AuditUnit { cwe, vulnerable: false, sample: fixed });
            }
        }
        units
    }

    /// Scans one unit with every family. The engines and the ML scorer are
    /// shared by every worker (all are `Sync` and hold only configuration).
    fn scan_unit(
        unit: &AuditUnit,
        engines: &FamilyEngines,
        ml: Option<&dyn MlVerdict>,
    ) -> UnitHits {
        let mut hits = Vec::with_capacity(5);
        match vulnman_lang::parse(&unit.sample.source) {
            Err(_) => hits.extend([false; 4]),
            Ok(program) => {
                let class_hit =
                    |findings: &[crate::Finding]| findings.iter().any(|f| f.cwe == unit.cwe);
                hits.push(class_hit(&engines.rules.scan(&program)));
                hits.push(class_hit(&engines.taint.scan(&program)));
                hits.push(class_hit(&engines.semantics.analyze(&program).findings));
                hits.push(class_hit(&engines.dynamic.scan(&program)));
            }
        }
        if let Some(ml) = ml {
            hits.push(ml.flags(&unit.sample));
        }
        hits
    }

    /// Runs the audit. The report is a pure function of the configuration:
    /// byte-identical for any `jobs` value.
    pub fn run(&self) -> AuditReport {
        let units = self.corpus();
        let engines = FamilyEngines::new();
        let ml = self.ml.as_deref();
        let hits = vulnman_lang::par::map(units.len(), self.config.jobs, |i| {
            Self::scan_unit(&units[i], &engines, ml)
        });

        let families = self.families();
        let n = self.config.samples_per_class;
        let mut classes = Vec::with_capacity(Cwe::ALL.len());
        for cwe in Cwe::ALL {
            let mut cells = BTreeMap::new();
            for (fi, family) in families.iter().enumerate() {
                let mut detected = 0;
                let mut false_positives = 0;
                for (unit, unit_hits) in units.iter().zip(&hits) {
                    if unit.cwe != cwe || !unit_hits[fi] {
                        continue;
                    }
                    if unit.vulnerable {
                        detected += 1;
                    } else {
                        false_positives += 1;
                    }
                }
                cells.insert(family.clone(), Cell::new(detected, false_positives, n));
            }
            classes.push(ClassAudit {
                cwe: cwe.id(),
                name: cwe.name().to_string(),
                top25: cwe.in_public_top25(),
                cells,
            });
        }
        AuditReport {
            seed: self.config.seed,
            samples_per_class: n,
            families,
            ml_model: self.ml.as_ref().map(|m| m.name()),
            classes,
        }
    }

    /// [`AuditEngine::run`] with `audit.*` instruments recorded (see
    /// [`register_audit_instruments`]).
    pub fn run_with_metrics(&self, metrics: &Registry) -> AuditReport {
        let t0 = std::time::Instant::now();
        let report = self.run();
        metrics.counter("audit.runs").inc();
        metrics.counter("audit.cells").add(report.cell_count() as u64);
        metrics.counter("audit.covered").add(report.covered_count() as u64);
        metrics.counter("audit.gaps").add((report.cell_count() - report.covered_count()) as u64);
        metrics.histogram("audit.micros").observe(t0.elapsed().as_micros() as u64);
        report
    }
}

/// The detector instances one audit scans with, shared by reference across
/// workers (none of them borrow the corpus).
struct FamilyEngines {
    rules: RuleEngine,
    taint: TaintDetector,
    semantics: SemanticEngine,
    dynamic: DynamicSanitizer,
}

impl FamilyEngines {
    fn new() -> Self {
        FamilyEngines {
            rules: RuleEngine::syntactic_suite(),
            taint: TaintDetector::default_config(),
            semantics: SemanticEngine::new(),
            dynamic: DynamicSanitizer::new(),
        }
    }
}

/// Pre-registers the `audit.*` instruments so metrics snapshots are
/// schema-stable before the first audit runs.
pub fn register_audit_instruments(metrics: &Registry) {
    metrics.counter("audit.runs");
    metrics.counter("audit.cells");
    metrics.counter("audit.covered");
    metrics.counter("audit.gaps");
    metrics.histogram("audit.micros");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> AuditConfig {
        AuditConfig { seed: 7, samples_per_class: 3, jobs: 1 }
    }

    struct NameLength;
    impl MlVerdict for NameLength {
        fn name(&self) -> String {
            "name-length".into()
        }
        fn flags(&self, sample: &Sample) -> bool {
            sample.source.len().is_multiple_of(2)
        }
    }

    #[test]
    fn report_is_byte_identical_at_any_jobs() {
        let base = AuditEngine::new(quick_config()).run();
        for jobs in [2, 3, 8] {
            let cfg = AuditConfig { jobs, ..quick_config() };
            let run = AuditEngine::new(cfg).run();
            assert_eq!(
                serde_json::to_string(&base).unwrap(),
                serde_json::to_string(&run).unwrap(),
                "audit must not depend on worker count (jobs={jobs})"
            );
        }
    }

    #[test]
    fn matrix_has_every_class_and_family() {
        let report = AuditEngine::new(quick_config()).run();
        assert_eq!(report.classes.len(), Cwe::ALL.len());
        assert_eq!(report.families, STATIC_FAMILIES.map(String::from).to_vec());
        for row in &report.classes {
            assert_eq!(row.cells.len(), STATIC_FAMILIES.len(), "CWE-{}", row.cwe);
        }
        assert_eq!(report.cell_count(), Cwe::ALL.len() * STATIC_FAMILIES.len());
        // The whole point of the scale-out: no class is blind across every
        // family.
        assert_eq!(report.blind_classes(), Vec::<u32>::new());
    }

    #[test]
    fn semantic_family_covers_the_gap_classes() {
        let report = AuditEngine::new(quick_config()).run();
        // Classes where the semantic family is the only prover, plus the
        // classic classes its new domains took over outright.
        for id in [457, 369, 415, 197, 367, 416, 134] {
            let row = report.classes.iter().find(|c| c.cwe == id).unwrap();
            let cell = row.cells.get("semantic").unwrap();
            assert!(cell.covered, "semantic must cover CWE-{id}: {cell:?}");
        }
        // Classic command injection routes some variants through wrapped
        // sinks the provenance domain cannot see into; it must still prove
        // the direct-sink shapes, with zero false positives.
        let row = report.classes.iter().find(|c| c.cwe == 78).unwrap();
        let cell = row.cells.get("semantic").unwrap();
        assert!(cell.detected > 0, "semantic proves direct-sink CWE-78 shapes: {cell:?}");
        assert_eq!(cell.false_positives, 0);
        // The taint family owns full classic injection coverage.
        assert!(row.cells.get("taint").unwrap().covered);
    }

    #[test]
    fn ml_column_appears_only_when_wired() {
        let plain = AuditEngine::new(quick_config()).run();
        assert!(plain.ml_model.is_none());
        assert!(!plain.families.contains(&ML_FAMILY.to_string()));
        let wired = AuditEngine::new(quick_config()).with_ml(Box::new(NameLength)).run();
        assert_eq!(wired.ml_model.as_deref(), Some("name-length"));
        assert!(wired.families.contains(&ML_FAMILY.to_string()));
        assert!(wired.classes.iter().all(|c| c.cells.contains_key(ML_FAMILY)));
    }

    #[test]
    fn check_catches_seeded_regressions() {
        let report = AuditEngine::new(quick_config()).run();
        assert_eq!(report.check_against(&report), Vec::<String>::new());
        // Coverage regression: a covered cell goes dark.
        let mut broken = report.clone();
        let row = broken.classes.iter_mut().find(|c| c.cwe == 416).unwrap();
        let cell = row.cells.get_mut("semantic").unwrap();
        cell.detected = 0;
        cell.covered = false;
        let violations = broken.check_against(&report);
        assert!(violations.iter().any(|v| v.contains("coverage regression")), "{violations:?}");
        // Precision regression: new false positives.
        let mut noisy = report.clone();
        let row = noisy.classes.iter_mut().find(|c| c.cwe == 89).unwrap();
        let cell = row.cells.get_mut("taint").unwrap();
        cell.false_positives = 2;
        cell.covered = false;
        let violations = noisy.check_against(&report);
        assert!(violations.iter().any(|v| v.contains("precision regression")), "{violations:?}");
        // Parameter drift refuses the comparison outright.
        let mut drifted = report.clone();
        drifted.seed ^= 1;
        assert!(drifted.check_against(&report)[0].contains("parameter drift"));
    }

    #[test]
    fn markdown_names_every_class() {
        let report = AuditEngine::new(quick_config()).run();
        let md = report.to_markdown();
        for cwe in Cwe::ALL {
            assert!(md.contains(cwe.name()), "markdown must mention {}", cwe.name());
        }
        assert!(md.contains("| CWE | class | top-25 | rules | taint | semantic | dynamic |"));
        assert!(md.contains("cells covered"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = AuditEngine::new(quick_config()).with_ml(Box::new(NameLength)).run();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn audit_instruments_are_schema_stable() {
        let metrics = Registry::new();
        register_audit_instruments(&metrics);
        let json = serde_json::to_string(&metrics.snapshot()).unwrap();
        for key in ["audit.runs", "audit.cells", "audit.covered", "audit.gaps", "audit.micros"] {
            assert!(json.contains(key), "{key} must be pre-registered");
        }
        let report = AuditEngine::new(quick_config()).run_with_metrics(&metrics);
        assert_eq!(metrics.counter("audit.runs").get(), 1);
        assert_eq!(metrics.counter("audit.cells").get(), report.cell_count() as u64);
    }
}
