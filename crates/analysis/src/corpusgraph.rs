//! Whole-corpus call graph and blast-radius analytics.
//!
//! Per-sample analysis stops at a translation-unit boundary, so the triage
//! queue ranks findings by severity alone. The paper's threat-modeling stage
//! (Figure 1) instead ranks by reachability and exposure *across* the
//! program. This module promotes the corpus to a program: every sample (or
//! project unit) contributes its functions as nodes, calls are resolved
//! first within the unit and then against sibling units of the same project
//! (a project is the linkage domain), and everything downstream — cross-
//! sample reachability, centrality, communities, blast radius — is computed
//! over the merged graph.
//!
//! Everything here is dependency-free and byte-deterministic at any
//! `--jobs`: parallel stages work on fixed-size chunks whose partial results
//! are merged in chunk order, so float accumulation order never depends on
//! the worker count.

use crate::reachability::{self, Surface};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use vulnman_lang::absint::CallGraph;
use vulnman_lang::cache::AnalysisCache;
use vulnman_lang::ParseError;
use vulnman_obs::Registry;
use vulnman_synth::sample::Sample;

/// One translation unit contributed to the corpus graph.
#[derive(Debug, Clone, Copy)]
pub struct UnitRef<'a> {
    /// Stable unit identifier (sample id).
    pub id: u64,
    /// Linkage domain: calls resolve only within a project.
    pub project: &'a str,
    /// Source text of the unit.
    pub source: &'a str,
}

/// A function node of the corpus graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FnNode {
    /// Defining unit id.
    pub unit: u64,
    /// Project of the defining unit.
    pub project: String,
    /// Unqualified function name.
    pub name: String,
}

impl FnNode {
    /// Unit-qualified node name, unique across the corpus.
    pub fn qualified(&self) -> String {
        format!("u{:06}::{}", self.unit, self.name)
    }
}

/// Per-function analytics in the corpus graph report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FnReport {
    /// Defining unit id.
    pub unit: u64,
    /// Project of the defining unit.
    pub project: String,
    /// Callers within the corpus graph.
    pub in_degree: usize,
    /// Resolved callees within the corpus graph.
    pub out_degree: usize,
    /// Brandes betweenness centrality, normalized to `[0, 1]`.
    pub betweenness: f64,
    /// Label-propagation community id (dense, in node order).
    pub community: usize,
    /// Functions transitively reachable from this one (excluding itself).
    pub downstream: usize,
    /// Functions that can transitively reach this one (excluding itself).
    pub upstream: usize,
    /// Blast-radius score in `[0, 1]`, normalized by the linkage domain
    /// (calls cannot resolve across projects, so the project is the
    /// function's reachable universe):
    /// `(downstream + upstream) / (2 * (project nodes - 1))`.
    pub blast: f64,
    /// Cross-sample attack surface: the most exposed input source reachable
    /// anywhere in this function's corpus-wide call subtree.
    pub surface: Surface,
}

/// Deterministic, serializable summary of a corpus graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusGraphReport {
    /// Function nodes.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Edges whose caller and callee live in different units.
    pub cross_unit_edges: usize,
    /// Distinct (function, external callee) pairs.
    pub externals: usize,
    /// Strongly connected components.
    pub sccs: usize,
    /// Label-propagation communities.
    pub communities: usize,
    /// Per-function analytics keyed by unit-qualified name.
    pub functions: BTreeMap<String, FnReport>,
}

/// The assembled cross-sample call graph.
#[derive(Debug)]
pub struct CorpusGraph {
    nodes: Vec<FnNode>,
    /// `(unit, name) -> node index`.
    index: BTreeMap<(u64, String), usize>,
    /// Sorted, deduped adjacency.
    callees: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
    /// Sorted external callee names per node.
    externals: Vec<Vec<String>>,
    cross_unit_edges: usize,
    sccs: usize,
    // Derived analytics, computed once at build time.
    downstream: Vec<usize>,
    upstream: Vec<usize>,
    blast: Vec<f64>,
    surface: Vec<Surface>,
    betweenness: Vec<f64>,
    community: Vec<usize>,
    n_communities: usize,
}

/// Pre-registers every `graph.*` instrument so the metrics schema is
/// identical whether or not a corpus graph is ever built (the same
/// discipline as `register_absint_instruments`).
pub fn register_graph_instruments(metrics: &Registry) {
    metrics.counter("graph.builds");
    metrics.counter("graph.nodes");
    metrics.counter("graph.edges");
    metrics.counter("graph.cross_unit_edges");
    metrics.counter("graph.externals");
    metrics.counter("graph.sccs");
    metrics.counter("graph.communities");
    metrics.histogram("graph.blast_per_mille");
    metrics.histogram("span.graph.build");
}

/// Fixed chunk size for parallel betweenness accumulation. Chunk boundaries
/// are a function of the node count alone — never of `jobs` — so partial
/// sums merge in the same order at any worker count.
const BETWEENNESS_CHUNK: usize = 64;

/// Sweep cap for label propagation (async updates in fixed node order
/// terminate in practice long before this; the cap makes the worst case
/// finite without changing any converged result).
const MAX_LPA_SWEEPS: usize = 64;

impl CorpusGraph {
    /// Builds the corpus graph sequentially without caching or metrics.
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the units.
    pub fn build(units: &[UnitRef<'_>]) -> Result<CorpusGraph, ParseError> {
        Self::build_with(units, &AnalysisCache::disabled(), 1, &Registry::noop())
    }

    /// Builds the corpus graph from dataset samples (each sample is one
    /// unit; its `project` field is the linkage domain).
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the samples.
    pub fn from_samples(
        samples: &[Sample],
        cache: &AnalysisCache,
        jobs: usize,
        metrics: &Registry,
    ) -> Result<CorpusGraph, ParseError> {
        let units: Vec<UnitRef<'_>> = samples
            .iter()
            .map(|s| UnitRef { id: s.id, project: &s.project, source: &s.source })
            .collect();
        Self::build_with(&units, cache, jobs, metrics)
    }

    /// Builds the corpus graph: parses every unit (`jobs`-way sharded,
    /// optionally through `cache`), resolves calls (local first, then
    /// sibling units of the same project, first-defining-unit wins), and
    /// computes reachability closures, surfaces, centrality, communities,
    /// and blast radii. Output is byte-identical at any `jobs` and with the
    /// cache on or off.
    ///
    /// # Errors
    ///
    /// Returns the first parse error among the units (in unit order).
    pub fn build_with(
        units: &[UnitRef<'_>],
        cache: &AnalysisCache,
        jobs: usize,
        metrics: &Registry,
    ) -> Result<CorpusGraph, ParseError> {
        let span = metrics.span("graph.build");
        let programs = parse_units(units, cache, jobs)?;

        // Nodes, in (unit order, definition order).
        let mut nodes: Vec<FnNode> = Vec::new();
        let mut index: BTreeMap<(u64, String), usize> = BTreeMap::new();
        // First defining node per (project, name): the linkage winner.
        let mut project_defs: BTreeMap<(String, String), usize> = BTreeMap::new();
        for (u, program) in units.iter().zip(&programs) {
            for f in &program.functions {
                let key = (u.id, f.name.to_string());
                if index.contains_key(&key) {
                    // Duplicate definition within a unit: first wins.
                    continue;
                }
                let idx = nodes.len();
                project_defs.entry((u.project.to_string(), key.1.clone())).or_insert(idx);
                index.insert(key.clone(), idx);
                nodes.push(FnNode { unit: u.id, project: u.project.to_string(), name: key.1 });
            }
        }

        // Resolve calls: local definition first, then the project-wide
        // first definition; anything else is an external.
        let n = nodes.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut externals: Vec<Vec<String>> = vec![Vec::new(); n];
        let mut cross_unit_edges = 0usize;
        let mut resolved = vec![false; n];
        for (u, program) in units.iter().zip(&programs) {
            for f in &program.functions {
                let Some(&i) = index.get(&(u.id, f.name.to_string())) else { continue };
                if std::mem::replace(&mut resolved[i], true) {
                    continue; // shadowed duplicate definition in this unit
                }
                let mut edge_set: BTreeSet<usize> = BTreeSet::new();
                let mut ext_set: BTreeSet<String> = BTreeSet::new();
                for callee in f.callees() {
                    let cname = callee.to_string();
                    let target = index
                        .get(&(u.id, cname.clone()))
                        .or_else(|| project_defs.get(&(u.project.to_string(), cname.clone())))
                        .copied();
                    match target {
                        Some(j) if j != i => {
                            edge_set.insert(j);
                        }
                        Some(_) => {} // self-recursion: not an edge for metrics
                        None => {
                            ext_set.insert(cname);
                        }
                    }
                }
                cross_unit_edges += edge_set.iter().filter(|&&j| nodes[j].unit != u.id).count();
                for &j in &edge_set {
                    callers[j].push(i);
                }
                callees[i] = edge_set.into_iter().collect();
                externals[i] = ext_set.into_iter().collect();
            }
        }
        for c in &mut callers {
            c.sort_unstable();
            c.dedup();
        }

        // SCC condensation in bottom-up order, via the absint call-graph
        // machinery over the node indices.
        let scc_graph = CallGraph::from_edges(&callees);
        let comps = scc_graph.sccs();

        // Reachability closures (bitsets), summarized bottom-up over the
        // condensation exactly like absint return summaries: a component's
        // closure is the union of its members and all callee closures, and
        // every member of a cycle shares it.
        let words = n.div_ceil(64);
        let mut closure: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        for comp in &comps {
            let mut bits = vec![0u64; words];
            for &m in comp {
                bits[m / 64] |= 1 << (m % 64);
                for &c in &callees[m] {
                    if !comp.contains(&c) {
                        for (w, &cw) in bits.iter_mut().zip(&closure[c]) {
                            *w |= cw;
                        }
                    }
                }
            }
            for &m in comp {
                closure[m] = bits.clone();
            }
        }
        // Cross-unit surfaces: the per-program classification's pass over
        // the same condensation.
        let seeds = externals.iter().map(|ext| Surface::of_calls(ext.iter().map(String::as_str)));
        let surface = reachability::propagate(&scc_graph, &comps, seeds.collect());
        let downstream: Vec<usize> = closure
            .iter()
            .map(|bits| bits.iter().map(|w| w.count_ones() as usize).sum::<usize>() - 1)
            .collect();
        let mut upstream = vec![0usize; n];
        for (i, bits) in closure.iter().enumerate() {
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let j = w * 64 + b;
                    if j != i {
                        upstream[j] += 1;
                    }
                }
            }
        }
        // Blast normalizes by the *linkage domain*, not the corpus: calls
        // cannot resolve across projects, so a function's reachable
        // universe is its project and corpus-wide normalization would cap
        // every score at (project size / corpus size) — near zero for any
        // real fleet of projects.
        let mut project_size: BTreeMap<&str, usize> = BTreeMap::new();
        for node in &nodes {
            *project_size.entry(node.project.as_str()).or_insert(0) += 1;
        }
        let blast: Vec<f64> = (0..n)
            .map(|i| {
                let size = project_size[nodes[i].project.as_str()];
                if size < 2 {
                    0.0
                } else {
                    (downstream[i] + upstream[i]) as f64 / (2.0 * (size - 1) as f64)
                }
            })
            .collect();

        let betweenness = betweenness_centrality(&callees, jobs);
        let (community, n_communities) = label_propagation(&callees, &callers);

        let mut g = CorpusGraph {
            nodes,
            index,
            callees,
            callers,
            externals,
            cross_unit_edges,
            sccs: comps.len(),
            downstream,
            upstream,
            blast,
            surface,
            betweenness,
            community,
            n_communities,
        };
        g.record(metrics);
        span.stop();
        Ok(g)
    }

    fn record(&mut self, metrics: &Registry) {
        metrics.counter("graph.builds").add(1);
        metrics.counter("graph.nodes").add(self.nodes.len() as u64);
        metrics.counter("graph.edges").add(self.edge_count() as u64);
        metrics.counter("graph.cross_unit_edges").add(self.cross_unit_edges as u64);
        metrics.counter("graph.externals").add(self.external_count() as u64);
        metrics.counter("graph.sccs").add(self.sccs as u64);
        metrics.counter("graph.communities").add(self.n_communities as u64);
        let hist = metrics.histogram("graph.blast_per_mille");
        for &b in &self.blast {
            hist.observe((b * 1000.0).round() as u64);
        }
    }

    /// Function nodes in corpus order.
    pub fn nodes(&self) -> &[FnNode] {
        &self.nodes
    }

    /// Total resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Edges whose endpoints live in different units.
    pub fn cross_unit_edge_count(&self) -> usize {
        self.cross_unit_edges
    }

    /// Distinct (function, external callee) pairs.
    pub fn external_count(&self) -> usize {
        self.externals.iter().map(Vec::len).sum()
    }

    /// Blast-radius score of `function` defined in `unit`, if present.
    pub fn blast_of(&self, unit: u64, function: &str) -> Option<f64> {
        self.index.get(&(unit, function.to_string())).map(|&i| self.blast[i])
    }

    /// Cross-sample surface of `function` defined in `unit`, if present.
    pub fn surface_of(&self, unit: u64, function: &str) -> Option<Surface> {
        self.index.get(&(unit, function.to_string())).map(|&i| self.surface[i])
    }

    /// Whether `caller` (in `caller_unit`) resolves a call to `callee` (in
    /// `callee_unit`).
    pub fn calls(&self, caller_unit: u64, caller: &str, callee_unit: u64, callee: &str) -> bool {
        let (Some(&i), Some(&j)) = (
            self.index.get(&(caller_unit, caller.to_string())),
            self.index.get(&(callee_unit, callee.to_string())),
        ) else {
            return false;
        };
        self.callees[i].binary_search(&j).is_ok()
    }

    /// Qualified names ranked by blast radius (descending), ties broken by
    /// qualified name so the ranking is a pure function of the corpus.
    pub fn blast_ranked(&self) -> Vec<(String, f64)> {
        let mut ranked: Vec<(String, f64)> =
            self.nodes.iter().enumerate().map(|(i, f)| (f.qualified(), self.blast[i])).collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked
    }

    /// The full deterministic report.
    pub fn report(&self) -> CorpusGraphReport {
        let functions: BTreeMap<String, FnReport> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, f)| {
                (
                    f.qualified(),
                    FnReport {
                        unit: f.unit,
                        project: f.project.clone(),
                        in_degree: self.callers[i].len(),
                        out_degree: self.callees[i].len(),
                        betweenness: self.betweenness[i],
                        community: self.community[i],
                        downstream: self.downstream[i],
                        upstream: self.upstream[i],
                        blast: self.blast[i],
                        surface: self.surface[i],
                    },
                )
            })
            .collect();
        CorpusGraphReport {
            nodes: self.nodes.len(),
            edges: self.edge_count(),
            cross_unit_edges: self.cross_unit_edges,
            externals: self.external_count(),
            sccs: self.sccs,
            communities: self.n_communities,
            functions,
        }
    }
}

/// Parses all units through [`vulnman_lang::par::map`] on `jobs` threads.
/// Results land by index, so output is independent of the worker count;
/// the first parse error in unit order is the error.
fn parse_units(
    units: &[UnitRef<'_>],
    cache: &AnalysisCache,
    jobs: usize,
) -> Result<Vec<std::sync::Arc<vulnman_lang::Program>>, ParseError> {
    vulnman_lang::par::map(units.len(), jobs, |i| cache.parse(units[i].source))
        .into_iter()
        .collect()
}

/// Brandes betweenness centrality over the directed graph, normalized by
/// `(n-1)(n-2)`. Source contributions are accumulated per fixed-size chunk
/// and the chunk partials summed in chunk order, so the floating-point
/// accumulation order — hence the bytes — are identical at any `jobs`.
fn betweenness_centrality(callees: &[Vec<usize>], jobs: usize) -> Vec<f64> {
    let n = callees.len();
    if n < 3 {
        return vec![0.0; n];
    }
    let partials = vulnman_lang::par::map(n.div_ceil(BETWEENNESS_CHUNK), jobs, |chunk| {
        let lo = chunk * BETWEENNESS_CHUNK;
        let mut acc = vec![0.0f64; n];
        for s in lo..(lo + BETWEENNESS_CHUNK).min(n) {
            brandes_from(s, callees, &mut acc);
        }
        acc
    });
    let mut bc = vec![0.0f64; n];
    for part in partials {
        for (b, p) in bc.iter_mut().zip(&part) {
            *b += p;
        }
    }
    let norm = ((n - 1) * (n - 2)) as f64;
    for b in &mut bc {
        *b /= norm;
    }
    bc
}

/// One Brandes source iteration: BFS shortest-path counting plus the
/// dependency back-propagation, accumulated into `acc`.
fn brandes_from(s: usize, callees: &[Vec<usize>], acc: &mut [f64]) {
    let n = callees.len();
    let mut dist = vec![usize::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut order: Vec<usize> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    dist[s] = 0;
    sigma[s] = 1.0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in &callees[v] {
            if dist[w] == usize::MAX {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
            if dist[w] == dist[v] + 1 {
                sigma[w] += sigma[v];
            }
        }
    }
    let mut delta = vec![0.0f64; n];
    for &v in order.iter().rev() {
        for &w in &callees[v] {
            if dist[w] == dist[v] + 1 {
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
            }
        }
        if v != s {
            acc[v] += delta[v];
        }
    }
}

/// Deterministic label propagation over the undirected view: labels start
/// as node indices and each sweep visits nodes in ascending index order,
/// adopting the most frequent neighbor label (ties broken toward the
/// smallest label). Updates are applied in place, so within a sweep later
/// nodes see earlier adoptions — a fixed visit order makes that sequential
/// semantics reproducible at any `--jobs` (the propagation is cheap enough
/// that it is never sharded). Converged labels are then densified in node
/// order. Returns `(community per node, community count)`.
fn label_propagation(callees: &[Vec<usize>], callers: &[Vec<usize>]) -> (Vec<usize>, usize) {
    let n = callees.len();
    let neighbors: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let set: BTreeSet<usize> = callees[i].iter().chain(&callers[i]).copied().collect();
            set.into_iter().collect()
        })
        .collect();
    let mut labels: Vec<usize> = (0..n).collect();
    for _ in 0..MAX_LPA_SWEEPS {
        let mut changed = false;
        for i in 0..n {
            if neighbors[i].is_empty() {
                continue;
            }
            let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
            for &j in &neighbors[i] {
                *counts.entry(labels[j]).or_insert(0) += 1;
            }
            // Max count, smallest label on ties (BTreeMap iterates
            // ascending, so the first max wins).
            let (&best, _) = counts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .expect("non-empty counts");
            if best != labels[i] {
                labels[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Densify labels in node order.
    let mut dense: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = Vec::with_capacity(n);
    for &l in &labels {
        let next_id = dense.len();
        out.push(*dense.entry(l).or_insert(next_id));
    }
    (out, dense.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(id: u64, project: &'static str, source: &'static str) -> UnitRef<'static> {
        UnitRef { id, project, source }
    }

    const HUB: &str = "void hub() { spoke_a(); spoke_b(); }\nvoid spoke_a() { }";
    const SPOKES: &str = "void spoke_b() { leaf(); }\nvoid leaf() { }";

    #[test]
    fn cross_unit_calls_resolve_within_project() {
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "p", SPOKES)]).unwrap();
        assert_eq!(g.nodes().len(), 4);
        assert!(g.calls(1, "hub", 2, "spoke_b"), "cross-unit edge resolved");
        assert!(g.calls(1, "hub", 1, "spoke_a"), "local edge resolved");
        assert_eq!(g.cross_unit_edge_count(), 1);
    }

    #[test]
    fn projects_are_linkage_domains() {
        // Same source in a different project: the call must NOT link.
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "q", SPOKES)]).unwrap();
        assert!(!g.calls(1, "hub", 2, "spoke_b"));
        assert_eq!(g.cross_unit_edge_count(), 0);
        // spoke_b becomes an external callee of hub instead.
        assert_eq!(g.external_count(), 1);
    }

    #[test]
    fn local_definition_shadows_sibling() {
        let a = "void go() { helper(); }\nvoid helper() { }";
        let b = "void helper() { recv(); }";
        let g = CorpusGraph::build(&[unit(1, "p", a), unit(2, "p", b)]).unwrap();
        assert!(g.calls(1, "go", 1, "helper"));
        assert!(!g.calls(1, "go", 2, "helper"));
        // And the local helper is clean, so go's surface stays Local.
        assert_eq!(g.surface_of(1, "go"), Some(Surface::Local));
    }

    #[test]
    fn surface_propagates_across_units() {
        let caller = "void api() { fetch_it(); }";
        let callee = "char* fetch_it() { return http_param(\"q\"); }";
        let g = CorpusGraph::build(&[unit(1, "p", caller), unit(2, "p", callee)]).unwrap();
        assert_eq!(g.surface_of(1, "api"), Some(Surface::ZeroClick));
        assert_eq!(g.surface_of(2, "fetch_it"), Some(Surface::ZeroClick));
    }

    #[test]
    fn blast_reflects_reachable_surface() {
        let g = CorpusGraph::build(&[unit(1, "p", HUB), unit(2, "p", SPOKES)]).unwrap();
        // hub reaches everything (downstream 3, upstream 0); leaf reaches
        // nothing but is reached by hub and spoke_b (downstream 0, up 2).
        let hub = g.blast_of(1, "hub").unwrap();
        let leaf = g.blast_of(2, "leaf").unwrap();
        let spoke_a = g.blast_of(1, "spoke_a").unwrap();
        assert!(hub > leaf, "hub {hub} vs leaf {leaf}");
        assert!(leaf > spoke_a, "leaf {leaf} vs spoke_a {spoke_a}");
        let ranked = g.blast_ranked();
        assert_eq!(ranked[0].0, "u000001::hub");
    }

    #[test]
    fn recursion_forms_scc_and_terminates() {
        let src = "void a() { b(); }\nvoid b() { a(); recv(); }";
        let g = CorpusGraph::build(&[unit(1, "p", src)]).unwrap();
        assert_eq!(g.report().sccs, 1);
        assert_eq!(g.surface_of(1, "a"), Some(Surface::ZeroClick));
        assert_eq!(g.blast_of(1, "a"), g.blast_of(1, "b"));
    }

    #[test]
    fn communities_split_disconnected_projects() {
        let g = CorpusGraph::build(&[
            unit(1, "p", HUB),
            unit(2, "p", SPOKES),
            unit(3, "q", "void isolated() { solo(); }\nvoid solo() { }"),
        ])
        .unwrap();
        let report = g.report();
        assert!(report.communities >= 2, "report: {report:?}");
        let hub_comm = report.functions["u000001::hub"].community;
        let iso_comm = report.functions["u000003::isolated"].community;
        assert_ne!(hub_comm, iso_comm);
    }

    #[test]
    fn byte_identical_across_jobs_and_cache() {
        let units: Vec<String> = (0..12)
            .map(|i| {
                let next = (i + 1) % 12;
                format!("void f{i}() {{ f{next}(); lib{i}(); }}\nvoid g{i}() {{ f{i}(); }}")
            })
            .collect();
        let refs: Vec<UnitRef<'_>> = units
            .iter()
            .enumerate()
            .map(|(i, s)| UnitRef { id: i as u64 + 1, project: "p", source: s })
            .collect();
        let base = serde_json::to_string(
            &CorpusGraph::build_with(&refs, &AnalysisCache::disabled(), 1, &Registry::noop())
                .unwrap()
                .report(),
        )
        .unwrap();
        for jobs in [2usize, 4] {
            for cached in [false, true] {
                let cache = if cached { AnalysisCache::new() } else { AnalysisCache::disabled() };
                let report = serde_json::to_string(
                    &CorpusGraph::build_with(&refs, &cache, jobs, &Registry::noop())
                        .unwrap()
                        .report(),
                )
                .unwrap();
                assert_eq!(report, base, "jobs={jobs} cached={cached}");
            }
        }
    }

    #[test]
    fn betweenness_peaks_on_the_bridge() {
        // a -> bridge -> c; bridge carries the only a->c path.
        let src = "void a() { bridge(); }\nvoid bridge() { c(); }\nvoid c() { }";
        let g = CorpusGraph::build(&[unit(1, "p", src)]).unwrap();
        let r = g.report();
        let bridge = r.functions["u000001::bridge"].betweenness;
        assert!(bridge > 0.0);
        assert!(bridge > r.functions["u000001::a"].betweenness);
        assert!(bridge > r.functions["u000001::c"].betweenness);
    }

    #[test]
    fn metrics_are_recorded() {
        let registry = Registry::new();
        register_graph_instruments(&registry);
        CorpusGraph::build_with(
            &[unit(1, "p", HUB), unit(2, "p", SPOKES)],
            &AnalysisCache::disabled(),
            1,
            &registry,
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["graph.builds"], 1);
        assert_eq!(snap.counters["graph.nodes"], 4);
        assert_eq!(snap.counters["graph.cross_unit_edges"], 1);
        assert!(snap.counters["graph.communities"] >= 1);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let g = CorpusGraph::build(&[]).unwrap();
        assert_eq!(g.nodes().len(), 0);
        assert_eq!(g.report().communities, 0);
        assert!(g.blast_ranked().is_empty());
    }
}
