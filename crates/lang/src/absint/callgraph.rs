//! Program call graph and the bottom-up interprocedural analysis driver.
//!
//! [`CallGraph`] is the workspace's one call graph: the absint drivers, the
//! taint engine ([`crate::taint`]), attack-surface classification and the
//! corpus graph (both in `vulnman-analysis`) all walk it.
//!
//! Summaries are context-insensitive: one abstract return value per
//! function, computed with callees analysed first (post-order over the call
//! graph). Calls into functions not yet summarised — externals, or members
//! of a recursive cycle — evaluate to the domain's top, which keeps the
//! single bottom-up pass sound without an inter-function fixpoint.
//!
//! The call graph, its bottom-up order and each function's [`Cfg`] are pure
//! functions of the program, not of the domain. A caller running several
//! domain passes over one program builds that *framing* once — the order
//! with [`CallGraph::bottom_up_order`], one CFG per function — and hands it
//! to [`analyze_framed`] for every pass; [`analyze_program`] is the
//! single-pass convenience that frames and runs in one call.

use super::domain::{AbstractValue, Domain, Env, Summaries};
use super::solver::{DomainAnalysis, Solver, SolverConfig, SolverStats};
use crate::ast::{Function, Program};
use crate::cfg::{Cfg, CfgInst};
use crate::intern::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A directed call graph over the functions defined in a [`Program`], with
/// nodes numbered like `program.functions`. Edges to undefined (external)
/// callees are not represented; externals are handled by the domains' top
/// fallback.
#[derive(Debug, Clone)]
pub struct CallGraph {
    callees: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of all defined functions.
    pub fn build(program: &Program) -> CallGraph {
        let index: BTreeMap<&str, usize> =
            program.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
        let edges: Vec<Vec<usize>> = program
            .functions
            .iter()
            .map(|f| f.callees().iter().filter_map(|c| index.get(c.as_str()).copied()).collect())
            .collect();
        CallGraph::from_edges(&edges)
    }

    /// Builds a call graph directly from adjacency lists, one per node. The
    /// corpus graph (`vulnman-analysis`) uses this to reuse the SCC
    /// condensation and bottom-up machinery over unit-qualified function
    /// nodes that no single [`Program`] contains. Duplicate and
    /// out-of-range callee indices are dropped; first occurrence wins.
    pub fn from_edges(edges: &[Vec<usize>]) -> CallGraph {
        let n = edges.len();
        let callees = edges
            .iter()
            .map(|adj| {
                let mut seen = BTreeSet::new();
                adj.iter().copied().filter(|&j| j < n && seen.insert(j)).collect()
            })
            .collect();
        CallGraph { callees }
    }

    /// Number of defined functions.
    pub fn len(&self) -> usize {
        self.callees.len()
    }

    /// Whether the graph has no functions.
    pub fn is_empty(&self) -> bool {
        self.callees.is_empty()
    }

    /// Defined callees of function `i`, in first-call order.
    pub fn callees(&self, i: usize) -> &[usize] {
        &self.callees[i]
    }

    /// Function indices in bottom-up order: every callee appears before
    /// each of its callers wherever the graph is acyclic; cycles are broken
    /// at the deterministic DFS back-edge (members keep their post-order).
    /// Roots are tried in program order and callees in first-call order.
    /// This is the solve order of both semantic drivers and of the taint
    /// engine: the batch drivers walk it directly, and the incremental
    /// driver orders cycle members and delivers payloads by it. Iterative,
    /// like [`sccs`](Self::sccs), so a deep call chain cannot blow the
    /// stack.
    pub fn bottom_up_order(&self) -> Vec<usize> {
        let mut visited = vec![false; self.len()];
        let mut order = Vec::with_capacity(self.len());
        // Explicit DFS frames: (node, next-callee position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.len() {
            if std::mem::replace(&mut visited[root], true) {
                continue;
            }
            frames.push((root, 0));
            while let Some(&mut (node, ref mut ci)) = frames.last_mut() {
                if let Some(&c) = self.callees[node].get(*ci) {
                    *ci += 1;
                    if !std::mem::replace(&mut visited[c], true) {
                        frames.push((c, 0));
                    }
                } else {
                    frames.pop();
                    order.push(node);
                }
            }
        }
        order
    }

    /// Whether any function can reach itself through calls: some strongly
    /// connected component has more than one member, or some function
    /// calls itself directly.
    pub fn has_recursion(&self) -> bool {
        self.sccs().iter().any(|c| c.len() > 1)
            || self.callees.iter().enumerate().any(|(i, adj)| adj.contains(&i))
    }

    /// Strongly connected components of the call graph, in bottom-up
    /// topological order of the condensation: every defined callee of a
    /// component's members lies in the same or an earlier component.
    /// Members within a component are listed in ascending function-index
    /// order. Iterative Tarjan, so deeply nested call chains cannot blow
    /// the stack, and the output is a pure function of the graph.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        const UNVISITED: usize = usize::MAX;
        let n = self.len();
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut out: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, next-callee position).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        for root in 0..n {
            if index[root] != UNVISITED {
                continue;
            }
            frames.push((root, 0));
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
                if let Some(&w) = self.callees[v].get(*ci) {
                    *ci += 1;
                    if index[w] == UNVISITED {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        out.push(comp);
                    }
                }
            }
        }
        out
    }
}

/// The result of an interprocedural analysis pass: one solved function at a
/// time, in bottom-up call-graph order.
#[derive(Debug)]
pub struct ProgramAnalysis<V> {
    /// Abstract return value per defined function.
    pub summaries: BTreeMap<Symbol, V>,
    /// Aggregated solver statistics across all functions.
    pub stats: SolverStats,
}

/// Analyses every function of `program` bottom-up, building interprocedural
/// summaries as it goes. `make_domain` constructs the domain for a function
/// from the summaries of everything analysed so far — always the same
/// shared table, extended in place after each function; `visit` is invoked per
/// function with its CFG, the domain it was solved under, and the solution —
/// this is where checkers inspect per-instruction states via
/// [`DomainAnalysis::replay`].
///
/// Frames the program (call graph, order, CFGs) and runs one pass with
/// [`analyze_framed`]; callers running several passes over one program
/// frame it once themselves.
pub fn analyze_program<D, M, F>(
    program: &Program,
    config: SolverConfig,
    make_domain: M,
    visit: F,
) -> ProgramAnalysis<D::Value>
where
    D: Domain,
    M: FnMut(&Summaries<D::Value>) -> D,
    F: FnMut(&Function, &Cfg, &D, &DomainAnalysis<D::Value>),
{
    let order = CallGraph::build(program).bottom_up_order();
    let cfgs: Vec<Cfg> = program.functions.iter().map(Cfg::build).collect();
    analyze_framed(program, &order, &cfgs, config, make_domain, visit)
}

/// One domain pass of [`analyze_program`] over a pre-built framing:
/// `order` is [`CallGraph::bottom_up_order`] of the program's call graph
/// and `cfgs[i]` is [`Cfg::build`] of `program.functions[i]`. Neither
/// depends on the domain, so every pass over a program can share them.
///
/// # Panics
///
/// Panics if `order` names a function index with no CFG in `cfgs`.
pub fn analyze_framed<D, M, F>(
    program: &Program,
    order: &[usize],
    cfgs: &[Cfg],
    config: SolverConfig,
    mut make_domain: M,
    mut visit: F,
) -> ProgramAnalysis<D::Value>
where
    D: Domain,
    M: FnMut(&Summaries<D::Value>) -> D,
    F: FnMut(&Function, &Cfg, &D, &DomainAnalysis<D::Value>),
{
    let solver = Solver::new(config);
    let mut summaries = Summaries::default();
    let mut stats = SolverStats { converged: true, ..SolverStats::default() };
    for &i in order {
        let (func, cfg) = (&program.functions[i], &cfgs[i]);
        let domain = make_domain(&summaries);
        let analysis = solver.run(&domain, cfg, func);
        stats.absorb(&analysis.stats);
        let ret = return_summary(&domain, cfg, &analysis);
        visit(func, cfg, &domain, &analysis);
        // The domain's handle is gone, so the insert extends the one
        // shared table in place instead of copying it.
        drop(domain);
        Arc::make_mut(&mut summaries).insert(func.name.clone(), ret);
    }
    ProgramAnalysis { summaries: Arc::unwrap_or_clone(summaries), stats }
}

/// Joins the abstract value of every reachable `return e;` in the function.
/// Functions that never return a value (or only fall off the end) summarise
/// to top. Shared with the incremental driver (`crate::incremental`), which
/// must compute summaries exactly like the batch driver.
pub(crate) fn return_summary<D: Domain>(
    domain: &D,
    cfg: &Cfg,
    analysis: &DomainAnalysis<D::Value>,
) -> D::Value {
    let mut acc: Option<D::Value> = None;
    let reachable = cfg.reachable();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reachable[b] || block.insts.is_empty() {
            continue;
        }
        let mut env: Env<D::Value> = analysis.block_entry[b].clone();
        for inst in &block.insts {
            if let CfgInst::Return(Some(e)) = &inst.inst {
                let v = domain.eval(&env, e);
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.join(&v),
                });
            }
            domain.transfer(&mut env, &inst.inst);
        }
    }
    acc.unwrap_or_else(D::Value::top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::IntervalDomain;
    use crate::parse;

    #[test]
    fn bottom_up_orders_callees_first() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int mid() { return leaf() + 1; }\n\
             int top_fn() { return mid() + leaf(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let order = cg.bottom_up_order();
        let pos = |n: &str| order.iter().position(|&i| p.functions[i].name == n).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top_fn"));
        assert_eq!(cg.callees(2), [1, 0], "top_fn calls mid, then leaf");
    }

    #[test]
    fn bottom_up_order_survives_a_deep_call_chain() {
        // f0 calls f1 calls ... f(N-1): one DFS level per function, on a
        // thread with a small stack.
        const N: usize = 100_000;
        let edges: Vec<Vec<usize>> =
            (0..N).map(|i| if i + 1 < N { vec![i + 1] } else { vec![] }).collect();
        let order = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || CallGraph::from_edges(&edges).bottom_up_order())
            .unwrap()
            .join()
            .unwrap();
        assert!(order.iter().copied().eq((0..N).rev()), "callees first, root last");
    }

    #[test]
    fn recursion_is_a_cycle_or_a_self_call() {
        assert!(!CallGraph::from_edges(&[vec![1], vec![2], vec![]]).has_recursion());
        assert!(CallGraph::from_edges(&[vec![0]]).has_recursion(), "self-call");
        assert!(CallGraph::from_edges(&[vec![1], vec![2], vec![1]]).has_recursion(), "cycle");
    }

    #[test]
    fn recursive_summaries_stay_sound() {
        let p = parse("int r(int n) { if (n) { return r(n - 1); } return 0; }").unwrap();
        let pa = analyze_program(
            &p,
            SolverConfig::default(),
            |s| IntervalDomain::with_summaries(s.clone()),
            |_, _, _, _| {},
        );
        assert!(pa.stats.converged);
        // The self-call evaluated to top mid-analysis, so the summary joins
        // top with the constant 0 — i.e. top. Sound, not precise.
        assert!(pa.summaries.contains_key("r"));
    }

    #[test]
    fn every_function_sees_the_one_shared_summary_table() {
        // f0 calls f1 calls ... f999: each domain must be handed the same
        // allocation, which a per-function copy of the table would break.
        const N: usize = 1000;
        let src: String = (0..N)
            .map(|i| {
                if i + 1 < N {
                    format!("int f{i}() {{ return f{}() + 1; }}\n", i + 1)
                } else {
                    format!("int f{i}() {{ return 1; }}\n")
                }
            })
            .collect();
        let p = parse(&src).unwrap();
        let mut tables = Vec::new();
        let pa = analyze_program(
            &p,
            SolverConfig::default(),
            |s| {
                tables.push(Arc::as_ptr(s));
                IntervalDomain::with_summaries(s.clone())
            },
            |_, _, _, _| {},
        );
        assert_eq!(tables.len(), N);
        assert!(tables.iter().all(|&t| std::ptr::eq(t, tables[0])), "table was copied");
        assert!(pa.summaries["f0"].is_point(N as i64), "summary = {}", pa.summaries["f0"]);
    }

    #[test]
    fn sccs_condense_cycles_bottom_up() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int even(int n) { if (n) { return odd(n - 1); } return leaf(); }\n\
             int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
             int top_fn(int x) { return even(x); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let sccs = cg.sccs();
        // Every function appears exactly once.
        let mut all: Vec<usize> = sccs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..cg.len()).collect::<Vec<_>>());
        // even/odd share a component; the order is bottom-up: every callee
        // component precedes its callers.
        let index = |name: &str| p.functions.iter().position(|f| f.name == name).unwrap();
        let comp_idx = |name: &str| sccs.iter().position(|c| c.contains(&index(name))).unwrap();
        assert_eq!(comp_idx("even"), comp_idx("odd"));
        assert!(comp_idx("leaf") < comp_idx("even"));
        assert!(comp_idx("even") < comp_idx("top_fn"));
    }

    #[test]
    fn interprocedural_constant_flows_to_caller() {
        let p = parse(
            "int denom() { return 8 - 8; }\n\
             int f(int x) { int d = denom(); return x / d; }",
        )
        .unwrap();
        let pa = analyze_program(
            &p,
            SolverConfig::default(),
            |s| IntervalDomain::with_summaries(s.clone()),
            |_, _, _, _| {},
        );
        assert!(pa.summaries["denom"].is_point(0), "summary = {}", pa.summaries["denom"]);
    }
}
