//! Project-scale code generation: multiple translation units with
//! cross-unit call edges.
//!
//! Gap Observation 3 doubts academic models' "untested performance on
//! extensive and diverse industry codebases". Single translation units are
//! the unit of most research datasets; industrial vulnerabilities routinely
//! span files — a source helper in one unit feeding a sink in another.
//! [`generate_project`] builds such projects so analysis strategies can be
//! compared at scale (per-unit scanning vs whole-project analysis, E20).

use crate::cwe::Cwe;
use crate::emit::{EmitCtx, UnitBuilder};
use crate::style::StyleProfile;
use crate::tier::Tier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One translation unit (a "file") of a project.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProjectUnit {
    /// File-like name, e.g. `src/unit_3.c`.
    pub name: String,
    /// Source text.
    pub source: String,
}

/// A multi-unit project.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Project {
    /// Project name.
    pub name: String,
    /// Units in stable order.
    pub units: Vec<ProjectUnit>,
    /// Ground truth: does the project contain a vulnerability?
    pub vulnerable: bool,
    /// Whether the flaw spans units (source helper and sink in different
    /// files). `false` for intra-unit flaws and clean projects.
    pub cross_unit: bool,
    /// Class of the planted flaw, when vulnerable.
    pub cwe: Option<Cwe>,
}

impl Project {
    /// The whole program: all units concatenated (what a whole-project
    /// analysis parses).
    pub fn whole_source(&self) -> String {
        self.units.iter().map(|u| u.source.as_str()).collect::<Vec<_>>().join("\n")
    }

    /// Total source bytes across units.
    pub fn total_bytes(&self) -> usize {
        self.units.iter().map(|u| u.source.len()).sum()
    }
}

/// What kind of flaw (if any) to plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProjectFlaw {
    /// No flaw: all units benign.
    Clean,
    /// Classic single-unit flaw (plus benign neighbour units).
    IntraUnit(Cwe),
    /// Source helper in one unit, sink call in another: invisible to
    /// per-unit analysis.
    CrossUnit(Cwe),
}

/// Generates a project of `n_units` translation units.
///
/// Cross-unit flaws only support the taint-style classes (the flow is the
/// cross-unit artifact); other classes fall back to intra-unit planting.
///
/// # Panics
///
/// Panics if `n_units == 0`.
pub fn generate_project(
    seed: u64,
    style: &StyleProfile,
    n_units: usize,
    flaw: ProjectFlaw,
) -> Project {
    assert!(n_units > 0, "a project needs at least one unit");
    let mut rng = StdRng::seed_from_u64(seed);
    // One emit context for the whole project: its fresh-name counter runs
    // across units, so no two units define the same function and the whole
    // program is valid (the parser rejects a redefinition, as C does).
    let mut ctx = EmitCtx::new(style, Tier::Curated, &mut rng);
    let mut units: Vec<ProjectUnit> = Vec::with_capacity(n_units);

    // Benign filler units.
    for i in 0..n_units {
        let mut unit = UnitBuilder::new();
        let fns = 1 + ctx.in_range((0, 2));
        for _ in 0..fns {
            unit.push_fn(ctx.benign_fn());
        }
        units.push(ProjectUnit { name: format!("src/unit_{i}.c"), source: unit.build() });
    }

    // Benign cross-unit wiring: with the team's `cross_file_call_prob`, a
    // unit gains a bridge function calling into a sibling unit, so the
    // corpus graph sees cross-file edges even in clean projects.
    if n_units > 1 {
        let unit_fns: Vec<Vec<String>> = units
            .iter()
            .map(|u| {
                let prog = vulnman_lang::parse(&u.source).expect("generated unit parses");
                prog.functions.iter().map(|f| f.name.to_string()).collect()
            })
            .collect();
        #[allow(clippy::needless_range_loop)] // i names the bridge while units[i] is mutated
        for i in 0..n_units {
            if !ctx.rng.gen_bool(style.cross_file_call_prob) {
                continue;
            }
            let mut j = ctx.rng.gen_range(0..n_units);
            if j == i {
                j = (j + 1) % n_units;
            }
            let callee = &unit_fns[j][ctx.rng.gen_range(0..unit_fns[j].len())];
            units[i]
                .source
                .push_str(&format!("\nvoid bridge_{callee}_u{i}() {{\n    {callee}();\n}}\n"));
        }
    }

    let (vulnerable, cross_unit, cwe) = match flaw {
        ProjectFlaw::Clean => (false, false, None),
        ProjectFlaw::IntraUnit(cwe) => {
            let pair = crate::templates::generate(cwe, &mut ctx);
            let slot = ctx.rng.gen_range(0..n_units);
            units[slot].source.push('\n');
            units[slot].source.push_str(&pair.vulnerable);
            (true, false, Some(cwe))
        }
        ProjectFlaw::CrossUnit(cwe) => {
            let (source_call, sink_fn, kind) = match cwe {
                Cwe::SqlInjection => ("http_param(\"account\")", "exec_query", "query"),
                Cwe::CommandInjection => ("read_input()", "system", "job"),
                Cwe::CrossSiteScripting => ("get_request_field(\"bio\")", "render_html", "page"),
                Cwe::PathTraversal => ("http_param(\"file\")", "open_file", "path"),
                _ => {
                    // Non-taint classes cannot span units; plant intra-unit.
                    return generate_project(
                        seed.wrapping_add(1),
                        style,
                        n_units,
                        ProjectFlaw::IntraUnit(cwe),
                    );
                }
            };
            let helper = format!("project_fetch_{kind}_{seed}");
            let handler = format!("project_handle_{kind}_{seed}");
            let src_slot = ctx.rng.gen_range(0..n_units);
            let mut sink_slot = ctx.rng.gen_range(0..n_units);
            if n_units > 1 {
                while sink_slot == src_slot {
                    sink_slot = ctx.rng.gen_range(0..n_units);
                }
            }
            units[src_slot]
                .source
                .push_str(&format!("\nchar* {helper}() {{\n    return {source_call};\n}}\n"));
            units[sink_slot].source.push_str(&format!(
                "\nvoid {handler}() {{\n    char* v = {helper}();\n    {sink_fn}(v);\n}}\n"
            ));
            (true, n_units > 1, Some(cwe))
        }
    };

    Project { name: format!("proj_{seed}"), units, vulnerable, cross_unit, cwe }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_lang::taint::{TaintAnalysis, TaintConfig};

    #[test]
    fn units_and_whole_program_parse() {
        for flaw in [
            ProjectFlaw::Clean,
            ProjectFlaw::IntraUnit(Cwe::UseAfterFree),
            ProjectFlaw::CrossUnit(Cwe::SqlInjection),
        ] {
            // Larger projects, where independently named units used to
            // define the same function twice in the whole program.
            for (seed, n_units) in [(3, 4), (3000, 5), (4000, 5), (5064, 64)] {
                let p = generate_project(seed, &StyleProfile::mainstream(), n_units, flaw);
                assert_eq!(p.units.len(), n_units);
                for u in &p.units {
                    vulnman_lang::parse(&u.source)
                        .unwrap_or_else(|e| panic!("{}: {e}\n{}", u.name, u.source));
                }
                vulnman_lang::parse(&p.whole_source())
                    .unwrap_or_else(|e| panic!("seed {seed}: whole program: {e}"));
            }
        }
    }

    #[test]
    fn cross_unit_flow_needs_whole_project_analysis() {
        let p = generate_project(
            7,
            &StyleProfile::mainstream(),
            5,
            ProjectFlaw::CrossUnit(Cwe::SqlInjection),
        );
        assert!(p.cross_unit);
        let config = TaintConfig::default_config();
        // Per-unit: no single unit shows the flow.
        let per_unit_hit = p.units.iter().any(|u| {
            let prog = vulnman_lang::parse(&u.source).expect("unit parses");
            !TaintAnalysis::run(&prog, &config).findings.is_empty()
        });
        assert!(!per_unit_hit, "no unit contains the whole flow");
        // Whole project: the flow is visible.
        let whole = vulnman_lang::parse(&p.whole_source()).expect("parses");
        assert!(!TaintAnalysis::run(&whole, &config).findings.is_empty());
    }

    #[test]
    fn clean_projects_are_clean_everywhere() {
        let p = generate_project(9, &StyleProfile::mainstream(), 3, ProjectFlaw::Clean);
        assert!(!p.vulnerable && p.cwe.is_none());
        let config = TaintConfig::default_config();
        let whole = vulnman_lang::parse(&p.whole_source()).expect("parses");
        assert!(TaintAnalysis::run(&whole, &config).findings.is_empty());
    }

    #[test]
    fn non_taint_cross_unit_falls_back_to_intra() {
        let p = generate_project(
            11,
            &StyleProfile::mainstream(),
            3,
            ProjectFlaw::CrossUnit(Cwe::UseAfterFree),
        );
        assert!(p.vulnerable);
        assert!(!p.cross_unit, "UAF cannot span units; planted intra-unit");
    }

    #[test]
    fn single_unit_cross_request_stays_in_unit() {
        let p = generate_project(
            13,
            &StyleProfile::mainstream(),
            1,
            ProjectFlaw::CrossUnit(Cwe::SqlInjection),
        );
        assert!(p.vulnerable);
        assert!(!p.cross_unit, "one unit cannot span units");
    }

    #[test]
    fn deterministic() {
        let a = generate_project(5, &StyleProfile::mainstream(), 4, ProjectFlaw::Clean);
        let b = generate_project(5, &StyleProfile::mainstream(), 4, ProjectFlaw::Clean);
        assert_eq!(a, b);
    }
}
