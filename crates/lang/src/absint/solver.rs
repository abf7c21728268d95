//! Reverse-post-order worklist fixpoint solver for the monotone framework.

use super::domain::{Domain, Env};
use crate::ast::Function;
use crate::cfg::{BlockId, Cfg, CfgInst, SpannedInst};
use std::collections::BTreeSet;

/// Solver knobs. Defaults are tuned so every program the corpus generator
/// can emit converges without hitting the iteration backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Number of times a block's entry state may change under plain joins
    /// before the solver switches to widening for that block. Higher values
    /// trade iterations for precision inside loops.
    pub widening_threshold: usize,
    /// Hard backstop on block visits; exceeding it flips
    /// [`SolverStats::converged`] to `false` instead of hanging.
    pub max_iterations: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { widening_threshold: 4, max_iterations: 10_000 }
    }
}

/// What the fixpoint iteration did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total block visits (transfer applications over whole blocks).
    pub iterations: u64,
    /// Number of widening applications that changed a state.
    pub widenings: u64,
    /// `false` only if the `max_iterations` backstop fired.
    pub converged: bool,
}

impl SolverStats {
    /// Merges another run's stats into this one (conjunction of
    /// convergence, sums elsewhere).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.iterations += other.iterations;
        self.widenings += other.widenings;
        self.converged &= other.converged;
    }
}

/// Result of analysing one function: the abstract state at the entry of
/// every basic block, plus iteration statistics.
#[derive(Debug, Clone)]
pub struct DomainAnalysis<V> {
    /// Per-block entry state (`Env::bottom()` for unreachable blocks).
    pub block_entry: Vec<Env<V>>,
    /// Iteration statistics.
    pub stats: SolverStats,
}

impl<V: super::domain::AbstractValue> DomainAnalysis<V> {
    /// Replays the transfer function through every entry-reachable block,
    /// in block order, yielding the state *before* each instruction together
    /// with the instruction itself, for every instruction whose pre-state
    /// is reachable. This is how checkers obtain the evidence state at a
    /// report point without the solver having to store per-instruction
    /// environments.
    pub fn replay<'a, D: Domain<Value = V>>(
        &'a self,
        domain: &'a D,
        cfg: &'a Cfg,
    ) -> impl Iterator<Item = (Env<V>, &'a SpannedInst)> + 'a {
        let reachable = cfg.reachable();
        // Transfer functions never change reachability, so a block whose
        // entry state is unreachable has no reachable pre-state at all.
        cfg.blocks
            .iter()
            .zip(&self.block_entry)
            .enumerate()
            .filter(move |(b, (_, entry))| reachable[*b] && entry.is_reachable())
            .flat_map(move |(_, (block, entry))| {
                let mut env = entry.clone();
                block.insts.iter().map(move |inst| {
                    let pre = env.clone();
                    domain.transfer(&mut env, &inst.inst);
                    (pre, inst)
                })
            })
    }
}

/// The worklist fixpoint engine. Blocks are prioritised by reverse
/// post-order rank so forward information flows in as few sweeps as
/// possible; re-enqueueing uses the same rank, keeping iteration order — and
/// therefore results and statistics — fully deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// A solver with the given configuration.
    pub fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Runs `domain` over `cfg` to a fixpoint and returns per-block entry
    /// states. `func` seeds the entry environment (parameters etc.).
    pub fn run<D: Domain>(
        &self,
        domain: &D,
        cfg: &Cfg,
        func: &Function,
    ) -> DomainAnalysis<D::Value> {
        let n = cfg.blocks.len();
        let rpo = cfg.reverse_post_order();
        let mut rank = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rank[b] = i;
        }

        let mut entry: Vec<Env<D::Value>> = vec![Env::bottom(); n];
        entry[cfg.entry] = domain.entry_env(func);
        let mut changes = vec![0usize; n];
        let mut stats = SolverStats { converged: true, ..SolverStats::default() };

        // (rank, block) ordered set: pop_first gives the earliest block in
        // RPO among all pending ones.
        let mut worklist: BTreeSet<(usize, BlockId)> = BTreeSet::new();
        worklist.insert((rank[cfg.entry], cfg.entry));

        while let Some(&(r, b)) = worklist.iter().next() {
            worklist.remove(&(r, b));
            if stats.iterations >= self.config.max_iterations {
                stats.converged = false;
                break;
            }
            stats.iterations += 1;

            // Propagate this block's exit state into each successor,
            // refining along branch outcomes.
            let mut out = entry[b].clone();
            let mut branch_cond: Option<&crate::ast::Expr> = None;
            for inst in &cfg.blocks[b].insts {
                domain.transfer(&mut out, &inst.inst);
                if let CfgInst::Branch(c) = &inst.inst {
                    branch_cond = Some(c);
                }
            }
            let succs = &cfg.blocks[b].succs;
            for (i, &s) in succs.iter().enumerate() {
                if rank[s] == usize::MAX {
                    continue; // successor unreachable in RPO (defensive)
                }
                // The last edge takes the exit state itself; earlier edges
                // copy it.
                let mut edge_env = if i + 1 == succs.len() {
                    std::mem::replace(&mut out, Env::bottom())
                } else {
                    out.clone()
                };
                if let Some(cond) = branch_cond {
                    if succs.len() == 2 {
                        domain.refine(&mut edge_env, cond, i == 0);
                    }
                }
                // ⊥ ⊔ e = e: a first visit adopts the edge state as is.
                let joined =
                    if entry[s].is_reachable() { entry[s].join(&edge_env) } else { edge_env };
                let next = if changes[s] >= self.config.widening_threshold {
                    let widened = entry[s].widen(&joined);
                    if widened != entry[s] {
                        stats.widenings += 1;
                    }
                    widened
                } else {
                    joined
                };
                if next != entry[s] {
                    entry[s] = next;
                    changes[s] += 1;
                    worklist.insert((rank[s], s));
                }
            }
        }

        DomainAnalysis { block_entry: entry, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::{Interval, IntervalDomain};
    use crate::absint::AbstractValue;
    use crate::parse;

    fn solve(src: &str) -> (Cfg, DomainAnalysis<Interval>, IntervalDomain) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p.functions[0]);
        let domain = IntervalDomain::default();
        let analysis = Solver::new(SolverConfig::default()).run(&domain, &cfg, &p.functions[0]);
        (cfg, analysis, domain)
    }

    #[test]
    fn constant_propagation_through_straight_line() {
        let (cfg, analysis, domain) =
            solve("int f() { int i = 3; i = i * 4; int t = i + 1; return t; }");
        assert!(analysis.stats.converged);
        let states: Vec<_> = analysis.replay(&domain, &cfg).collect();
        // Before `return t`, t must be exactly 13.
        let (pre, _) = states.last().unwrap();
        assert!(pre.get("t").is_point(13), "t = {}", pre.get("t"));
        assert!(pre.get("i").is_point(12));
    }

    #[test]
    fn loop_counter_widens_and_converges() {
        let (_, analysis, _) =
            solve("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }");
        assert!(analysis.stats.converged);
        assert!(analysis.stats.iterations < 100, "{:?}", analysis.stats);
    }

    #[test]
    fn branch_refinement_narrows_the_guarded_range() {
        let (cfg, analysis, domain) =
            solve("int f(int x) { int r = 0; if (x < 10) { r = x; } return r; }");
        // Find the block that assigns r = x inside the guard.
        let saw = analysis.replay(&domain, &cfg).any(|(pre, inst)| {
            matches!(&inst.inst, CfgInst::Assign { target, .. } if target.base_var() == Some("r"))
                && pre.get("x").hi() < 10
        });
        assert!(saw, "taken edge of x < 10 must bound x above by 9");
    }

    #[test]
    fn join_at_diamond_merges_both_arms() {
        let (cfg, analysis, domain) =
            solve("int f(int c) { int r = 0; if (c) { r = 1; } else { r = 5; } return r; }");
        let (pre, _) = analysis
            .replay(&domain, &cfg)
            .find(|(_, inst)| matches!(inst.inst, CfgInst::Return(_)))
            .expect("return reached");
        let r = pre.get("r");
        assert_eq!(r, Interval::point(1).join(&Interval::point(5)));
    }

    #[test]
    fn unreachable_blocks_stay_bottom() {
        let (cfg, analysis, _) = solve("int f(int x) { if (x) { return 1; x = 2; } return x; }");
        let reachable = cfg.reachable();
        for (b, env) in analysis.block_entry.iter().enumerate() {
            if !reachable[b] {
                assert!(!env.is_reachable(), "dead block {b} got a state: {env}");
            }
        }
    }

    #[test]
    fn iteration_backstop_reports_non_convergence() {
        let cfgless =
            parse("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }").unwrap();
        let cfg = Cfg::build(&cfgless.functions[0]);
        let domain = IntervalDomain::default();
        let tight = SolverConfig { widening_threshold: 4, max_iterations: 2 };
        let analysis = Solver::new(tight).run(&domain, &cfg, &cfgless.functions[0]);
        assert!(!analysis.stats.converged);
    }
}
