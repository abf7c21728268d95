//! Attack-surface classification over the program call graph.
//!
//! Figure 1 of the paper gates *manual security review* on threat modeling:
//! "surfaces with zero-click or one-click surfaces trigger an additional
//! phase of manual security review". This module derives that classification
//! from which input sources a function's call subtree touches, as one
//! bottom-up pass over the strongly connected components of the shared
//! [`CallGraph`] — the same pass for one program and for the corpus graph.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vulnman_lang::absint::CallGraph;
use vulnman_lang::{Function, Program};

/// How much attacker interaction is needed to reach a code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Surface {
    /// Reached by remote data with no user interaction (network/request
    /// sources such as `http_param`, `recv`).
    ZeroClick,
    /// Requires a local user action (`read_input`, `getenv`).
    OneClick,
    /// No external input reaches it.
    Local,
}

/// Sources classified as zero-click (remote, unauthenticated-style).
const ZERO_CLICK_SOURCES: [&str; 4] = ["http_param", "recv", "get_request_field", "deserialize"];
/// Sources classified as one-click (local interaction).
const ONE_CLICK_SOURCES: [&str; 3] = ["read_input", "getenv", "read_file"];

/// Surface classification for every function of `program`, keyed by name:
/// the most exposed input source its call subtree touches.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), vulnman_lang::ParseError> {
/// use vulnman_analysis::reachability::{surfaces, Surface};
/// let p = vulnman_lang::parse("void a() { b(); }\nvoid b() { char* q = recv(); use(q); }")?;
/// let s = surfaces(&p);
/// assert_eq!(s["a"], Surface::ZeroClick);
/// # Ok(())
/// # }
/// ```
pub fn surfaces(program: &Program) -> BTreeMap<String, Surface> {
    let graph = CallGraph::build(program);
    let propagated = propagate(&graph, &graph.sccs(), seeds(program));
    program.functions.iter().map(|f| f.name.to_string()).zip(propagated).collect()
}

/// The most exposed surface of any function in `program`. Every function's
/// subtree includes the function itself, so this is the most exposed seed
/// and needs no call graph.
pub fn most_exposed(program: &Program) -> Surface {
    seeds(program).into_iter().min().unwrap_or(Surface::Local)
}

/// Each function's own surface before propagation: the most exposed input
/// source among its external (undefined) callees.
fn seeds(program: &Program) -> Vec<Surface> {
    let defined: BTreeSet<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
    let external = |c: &&str| !defined.contains(c);
    let seed =
        |f: &Function| Surface::of_calls(f.callees().iter().map(|c| c.as_str()).filter(external));
    program.functions.iter().map(seed).collect()
}

/// Propagates surfaces bottom-up over `graph`, whose strongly connected
/// components `sccs` are in bottom-up order ([`CallGraph::sccs`]): each node
/// starts at its own `seeds` entry and ends at the most exposed surface it
/// can reach, and all members of a call cycle share one surface. Serves both
/// the per-program classification ([`surfaces`]) and the cross-unit one of
/// the corpus graph.
pub fn propagate(graph: &CallGraph, sccs: &[Vec<usize>], seeds: Vec<Surface>) -> Vec<Surface> {
    let mut surface = seeds;
    for comp in sccs {
        // Callees outside the component are final already (they lie in
        // earlier components); callees inside it still hold their seeds,
        // which the component's own members contribute anyway.
        let reached = comp.iter().flat_map(|&m| graph.callees(m).iter().copied().chain([m]));
        let surf = reached.map(|i| surface[i]).min().unwrap_or(Surface::Local);
        for &m in comp {
            surface[m] = surf;
        }
    }
    surface
}

impl Surface {
    /// The most exposed input source among the external (library) call
    /// names `calls`, or [`Surface::Local`] if none is one. The seed of a
    /// function's surface before [`propagate`] adds what its callees reach.
    pub fn of_calls<'a>(calls: impl IntoIterator<Item = &'a str>) -> Surface {
        calls.into_iter().filter_map(Surface::of_source).min().unwrap_or(Surface::Local)
    }

    /// Classifies a single external (library) call name as an input source,
    /// or `None` if it is not one.
    pub fn of_source(name: &str) -> Option<Surface> {
        if ZERO_CLICK_SOURCES.contains(&name) {
            Some(Surface::ZeroClick)
        } else if ONE_CLICK_SOURCES.contains(&name) {
            Some(Surface::OneClick)
        } else {
            None
        }
    }

    /// Severity multiplier applied during prioritization.
    pub fn severity_multiplier(&self) -> f64 {
        match self {
            Surface::ZeroClick => 1.0,
            Surface::OneClick => 0.85,
            Surface::Local => 0.6,
        }
    }

    /// Whether Figure 1's workflow routes this surface to manual review.
    pub fn requires_manual_review(&self) -> bool {
        matches!(self, Surface::ZeroClick | Surface::OneClick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_lang::parse;

    fn classify(src: &str) -> BTreeMap<String, Surface> {
        surfaces(&parse(src).unwrap())
    }

    #[test]
    fn zero_click_via_transitive_source() {
        let s = classify(
            "void api() { helper(); }\nvoid helper() { char* x = http_param(\"q\"); use(x); }\nvoid tool() { char* x = getenv(\"HOME\"); use(x); }\nvoid pure() { compute(); }",
        );
        assert_eq!(s["api"], Surface::ZeroClick);
        assert_eq!(s["helper"], Surface::ZeroClick);
        assert_eq!(s["tool"], Surface::OneClick);
        assert_eq!(s["pure"], Surface::Local);
    }

    #[test]
    fn zero_click_dominates_one_click() {
        let s = classify("void f() { char* a = getenv(\"X\"); char* b = recv(); use(a, b); }");
        assert_eq!(s["f"], Surface::ZeroClick);
    }

    #[test]
    fn surfaces_are_keyed_in_name_order() {
        let s = classify("void zeta() { }\nvoid alpha() { }\nvoid mid() { }");
        assert_eq!(s.keys().collect::<Vec<_>>(), ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn defined_functions_are_not_sources() {
        let s = classify("char* recv() { return 0; }\nvoid f() { char* x = recv(); use(x); }");
        assert_eq!(s["f"], Surface::Local);
    }

    #[test]
    fn recursive_cycle_shares_its_surface() {
        let s = classify(
            "void a() { b(); }\nvoid b() { a(); lib(); }\nvoid c() { a(); read_input(); }",
        );
        assert_eq!(s["a"], Surface::Local);
        assert_eq!(s["b"], Surface::Local);
        assert_eq!(s["c"], Surface::OneClick);
        let s = classify("void a() { b(); }\nvoid b() { a(); recv(); }");
        assert_eq!((s["a"], s["b"]), (Surface::ZeroClick, Surface::ZeroClick));
    }

    #[test]
    fn most_exposed_is_the_minimum_surface() {
        let p = parse("void a() { b(); }\nvoid b() { getenv(\"X\"); }\nvoid c() { }").unwrap();
        assert_eq!(most_exposed(&p), Surface::OneClick);
        assert_eq!(Some(most_exposed(&p)), surfaces(&p).into_values().min());
        assert_eq!(most_exposed(&parse("void f() { g(); }").unwrap()), Surface::Local);
    }

    #[test]
    fn review_gate_matches_figure1() {
        assert!(Surface::ZeroClick.requires_manual_review());
        assert!(Surface::OneClick.requires_manual_review());
        assert!(!Surface::Local.requires_manual_review());
    }

    #[test]
    fn multipliers_order() {
        assert!(Surface::ZeroClick.severity_multiplier() > Surface::OneClick.severity_multiplier());
        assert!(Surface::OneClick.severity_multiplier() > Surface::Local.severity_multiplier());
    }
}
