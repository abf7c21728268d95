//! Control-flow graph construction.
//!
//! The AST's structured control flow is lowered to basic blocks of
//! [`CfgInst`]s. The CFG is consumed by the abstract-interpretation solver
//! ([`crate::absint`]) and its incremental driver ([`crate::incremental`]),
//! the semantic checkers in `vulnman-analysis`, the taint engine
//! ([`crate::taint`]), and the code metrics ([`crate::metrics`]), whose
//! cyclomatic complexity is one of the ML crate's features.

use crate::ast::*;
use crate::intern::Symbol;
use crate::span::Span;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// A lowered instruction inside a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgInst {
    /// Local declaration, possibly initialized.
    Decl {
        /// Variable name (interned; cloning is a reference-count bump).
        name: Symbol,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment through any lvalue.
    Assign {
        /// Target lvalue.
        target: LValue,
        /// Right-hand side (already desugared: compound ops folded in).
        value: Expr,
    },
    /// Expression for side effects.
    Expr(Expr),
    /// Function return.
    Return(Option<Expr>),
    /// Block-terminating branch condition; the block then has exactly two
    /// successors: `[taken, not_taken]`.
    Branch(Expr),
}

impl CfgInst {
    /// The expression evaluated by this instruction, if any (initializer,
    /// RHS, condition, or returned value).
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            CfgInst::Decl { init, .. } => init.as_ref(),
            CfgInst::Assign { value, .. } => Some(value),
            CfgInst::Expr(e) | CfgInst::Branch(e) => Some(e),
            CfgInst::Return(e) => e.as_ref(),
        }
    }

    /// Every expression syntactically contained in this instruction: the
    /// evaluated expression ([`CfgInst::expr`]) first, then the operands of
    /// an indirect assignment target (`*e = …`, `b[i] = …`).
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let target = match self {
            CfgInst::Assign { target: LValue::Deref(e), .. } => [Some(e), None],
            CfgInst::Assign { target: LValue::Index(b, i), .. } => [Some(b), Some(i)],
            _ => [None, None],
        };
        self.expr().into_iter().chain(target.into_iter().flatten())
    }
}

/// An instruction plus its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedInst {
    /// The lowered instruction.
    pub inst: CfgInst,
    /// Source span of the originating statement.
    pub span: Span,
}

/// A basic block: straight-line instructions plus successor/predecessor edges.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// Instructions in execution order.
    pub insts: Vec<SpannedInst>,
    /// Successor block ids. For a block ending in [`CfgInst::Branch`] the
    /// order is `[taken, fallthrough]`.
    pub succs: Vec<BlockId>,
    /// Predecessor block ids (derived; kept in sync by the builder).
    pub preds: Vec<BlockId>,
}

/// A per-function control-flow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    /// All basic blocks; indices are [`BlockId`]s.
    pub blocks: Vec<BasicBlock>,
    /// Entry block id (always `0`).
    pub entry: BlockId,
    /// Single synthetic exit block id.
    pub exit: BlockId,
}

impl Cfg {
    /// Builds the CFG for a function body.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), vulnman_lang::error::ParseError> {
    /// use vulnman_lang::{cfg::Cfg, parser::parse};
    /// let prog = parse("int f(int x) { if (x) { return 1; } return 0; }")?;
    /// let cfg = Cfg::build(&prog.functions[0]);
    /// assert!(cfg.blocks.len() >= 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(func: &Function) -> Cfg {
        let mut b = Builder::new();
        let mut current = b.new_block(); // entry = 0
        debug_assert_eq!(current, 0);
        current = b.lower_stmts(&func.body, current, &mut Vec::new());
        // Implicit fallthrough return.
        b.edge(current, b.exit);
        b.finish()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Cyclomatic complexity `E - N + 2` over the entry-reachable subgraph
    /// (unreachable continuation blocks carry no edges after pruning, so
    /// counting them as nodes would skew the metric).
    pub fn cyclomatic_complexity(&self) -> usize {
        let n = self.reachable().iter().filter(|&&r| r).count();
        (self.edge_count() + 2).saturating_sub(n)
    }

    /// Blocks in reverse post-order from the entry (good iteration order for
    /// forward data-flow problems). The depth-first walk tries successors
    /// in edge order and keeps explicit frames, so a function with a very
    /// long block chain cannot overflow the stack.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut order = Vec::with_capacity(self.blocks.len());
        // Explicit DFS frames: (block, next-successor position).
        let mut frames = vec![(self.entry, 0)];
        visited[self.entry] = true;
        while let Some(&mut (block, ref mut si)) = frames.last_mut() {
            if let Some(&s) = self.blocks[block].succs.get(*si) {
                *si += 1;
                if !std::mem::replace(&mut visited[s], true) {
                    frames.push((s, 0));
                }
            } else {
                frames.pop();
                order.push(block);
            }
        }
        order.reverse();
        order
    }

    /// Per-block reachability from the entry. The builder prunes all edges
    /// that originate in unreachable blocks, so for every reachable block
    /// every listed predecessor is itself reachable — the invariant forward
    /// analyses rely on at join points.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        seen
    }
}

struct Builder {
    blocks: Vec<BasicBlock>,
    exit: BlockId,
}

/// Loop context: (header/continue target, exit/break target).
type LoopCtx = (BlockId, BlockId);

impl Builder {
    fn new() -> Self {
        let mut b = Builder { blocks: Vec::new(), exit: 0 };
        // Block 0 is reserved by the caller as entry; exit created lazily
        // after entry so ids stay compact. Entry is created by the caller via
        // new_block; we pre-create exit as block index set later in finish.
        b.exit = usize::MAX;
        b
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn ensure_exit(&mut self) -> BlockId {
        if self.exit == usize::MAX {
            self.exit = self.new_block();
        }
        self.exit
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        let to = if to == usize::MAX { self.ensure_exit() } else { to };
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
            self.blocks[to].preds.push(from);
        }
    }

    fn push(&mut self, block: BlockId, inst: CfgInst, span: Span) {
        self.blocks[block].insts.push(SpannedInst { inst, span });
    }

    /// Lowers a statement list starting in `current`; returns the block where
    /// control continues afterwards. A returned block that already ends in a
    /// jump-away (return/break/continue) is a fresh unreachable block.
    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        mut current: BlockId,
        loops: &mut Vec<LoopCtx>,
    ) -> BlockId {
        for s in stmts {
            current = self.lower_stmt(s, current, loops);
        }
        current
    }

    fn lower_stmt(&mut self, s: &Stmt, current: BlockId, loops: &mut Vec<LoopCtx>) -> BlockId {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                self.push(
                    current,
                    CfgInst::Decl { name: name.clone(), ty: ty.clone(), init: init.clone() },
                    s.span,
                );
                current
            }
            StmtKind::Assign { target, value, op } => {
                let value = desugar_compound(target, value, *op, s.span);
                self.push(current, CfgInst::Assign { target: target.clone(), value }, s.span);
                current
            }
            StmtKind::Expr(e) => {
                self.push(current, CfgInst::Expr(e.clone()), s.span);
                current
            }
            StmtKind::Return(e) => {
                self.push(current, CfgInst::Return(e.clone()), s.span);
                let exit = self.ensure_exit();
                self.edge(current, exit);
                self.new_block() // unreachable continuation
            }
            StmtKind::Break => {
                if let Some(&(_, brk)) = loops.last() {
                    self.edge(current, brk);
                }
                self.new_block()
            }
            StmtKind::Continue => {
                if let Some(&(cont, _)) = loops.last() {
                    self.edge(current, cont);
                }
                self.new_block()
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                self.push(current, CfgInst::Branch(cond.clone()), s.span);
                let then_entry = self.new_block();
                self.edge(current, then_entry);
                let then_end = self.lower_stmts(then_branch, then_entry, loops);
                let join = self.new_block();
                match else_branch {
                    Some(els) => {
                        let else_entry = self.new_block();
                        self.edge(current, else_entry);
                        let else_end = self.lower_stmts(els, else_entry, loops);
                        self.edge(then_end, join);
                        self.edge(else_end, join);
                    }
                    None => {
                        self.edge(current, join);
                        self.edge(then_end, join);
                    }
                }
                join
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                self.edge(current, header);
                self.push(header, CfgInst::Branch(cond.clone()), s.span);
                let body_entry = self.new_block();
                let exit = self.new_block();
                self.edge(header, body_entry);
                self.edge(header, exit);
                loops.push((header, exit));
                let body_end = self.lower_stmts(body, body_entry, loops);
                loops.pop();
                self.edge(body_end, header);
                exit
            }
            StmtKind::For { init, cond, step, body } => {
                let mut cur = current;
                if let Some(i) = init {
                    cur = self.lower_stmt(i, cur, loops);
                }
                let header = self.new_block();
                self.edge(cur, header);
                let cond_expr = cond.clone().unwrap_or_else(|| Expr::int(1));
                self.push(header, CfgInst::Branch(cond_expr), s.span);
                let body_entry = self.new_block();
                let exit = self.new_block();
                let step_block = self.new_block();
                self.edge(header, body_entry);
                self.edge(header, exit);
                loops.push((step_block, exit));
                let body_end = self.lower_stmts(body, body_entry, loops);
                loops.pop();
                self.edge(body_end, step_block);
                if let Some(st) = step {
                    let after = self.lower_stmt(st, step_block, loops);
                    self.edge(after, header);
                } else {
                    self.edge(step_block, header);
                }
                exit
            }
        }
    }

    fn finish(mut self) -> Cfg {
        let exit = self.ensure_exit();
        self.prune_unreachable_edges();
        Cfg { blocks: self.blocks, entry: 0, exit }
    }

    /// Removes every edge that originates in a block unreachable from the
    /// entry. Lowering `return`/`break`/`continue` leaves behind fresh
    /// continuation blocks for any dead code that follows; those blocks edge
    /// into join points and would pollute forward analyses (a join over an
    /// unreachable predecessor is a join over garbage). After pruning,
    /// unreachable blocks are fully isolated: no successors, no predecessors,
    /// and no reachable block lists one of them as a predecessor.
    fn prune_unreachable_edges(&mut self) {
        let mut reachable = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        for id in 0..self.blocks.len() {
            if !reachable[id] {
                self.blocks[id].succs.clear();
            }
            self.blocks[id].preds.retain(|&p| reachable[p]);
        }
    }
}

/// Rewrites `x += e` as `x = x + e` so downstream analyses see plain stores.
fn desugar_compound(target: &LValue, value: &Expr, op: Option<BinOp>, span: Span) -> Expr {
    match op {
        None => value.clone(),
        Some(op) => {
            let base = match target {
                LValue::Var(name) => Expr::new(ExprKind::Var(name.clone()), span),
                LValue::Deref(e) => {
                    Expr::new(ExprKind::Unary(UnOp::Deref, Box::new(e.clone())), span)
                }
                LValue::Index(b, i) => {
                    Expr::new(ExprKind::Index(Box::new(b.clone()), Box::new(i.clone())), span)
                }
            };
            Expr::new(ExprKind::Binary(op, Box::new(base), Box::new(value.clone())), span)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).unwrap();
        Cfg::build(&p.functions[0])
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let c = cfg_of("void f() { int x = 1; int y = 2; }");
        // entry + exit
        assert_eq!(c.blocks[c.entry].insts.len(), 2);
        assert_eq!(c.blocks[c.entry].succs, vec![c.exit]);
        assert_eq!(c.cyclomatic_complexity(), 1);
    }

    #[test]
    fn if_produces_diamond() {
        let c = cfg_of("int f(int x) { int r = 0; if (x) { r = 1; } else { r = 2; } return r; }");
        assert_eq!(c.cyclomatic_complexity(), 2);
        // Entry ends with a branch and has two successors.
        let entry = &c.blocks[c.entry];
        assert!(matches!(entry.insts.last().unwrap().inst, CfgInst::Branch(_)));
        assert_eq!(entry.succs.len(), 2);
    }

    #[test]
    fn while_has_back_edge() {
        let c = cfg_of("void f(int n) { while (n > 0) { n -= 1; } }");
        let has_back_edge = c
            .blocks
            .iter()
            .enumerate()
            .any(|(id, b)| b.succs.iter().any(|&s| s <= id && !c.blocks[s].preds.is_empty()));
        assert!(has_back_edge);
        assert_eq!(c.cyclomatic_complexity(), 2);
    }

    #[test]
    fn for_desugars_compound_step() {
        let c = cfg_of("void f(int n) { for (int i = 0; i < n; i++) { work(i); } }");
        let mut found = false;
        for b in &c.blocks {
            for i in &b.insts {
                if let CfgInst::Assign { target: LValue::Var(v), value } = &i.inst {
                    if v == "i" {
                        if let ExprKind::Binary(BinOp::Add, _, _) = &value.kind {
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(found, "i++ should desugar to i = i + 1");
    }

    #[test]
    fn return_edges_to_exit() {
        let c = cfg_of("int f(int x) { if (x) { return 1; } return 0; }");
        let exit_preds = &c.blocks[c.exit].preds;
        assert!(exit_preds.len() >= 2, "both returns should reach exit: {exit_preds:?}");
    }

    #[test]
    fn break_exits_loop() {
        let c = cfg_of("void f() { while (1) { if (stop()) { break; } tick(); } done(); }");
        // done() must be reachable from entry.
        let rpo = c.reverse_post_order();
        let reachable_insts: usize = rpo.iter().map(|&b| c.blocks[b].insts.len()).sum();
        let has_done = rpo.iter().any(|&b| {
            c.blocks[b].insts.iter().any(|i| match &i.inst {
                CfgInst::Expr(e) => e.called_fns().contains(&"done"),
                _ => false,
            })
        });
        assert!(has_done, "done() unreachable; {reachable_insts} insts reachable");
    }

    #[test]
    fn continue_targets_step_in_for() {
        let c = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { if (i == 3) { continue; } use(i); } }",
        );
        // The graph must still terminate and contain the step assignment
        // reachable from the continue edge.
        assert!(c.cyclomatic_complexity() >= 3);
        assert!(!c.reverse_post_order().is_empty());
    }

    #[test]
    fn rpo_starts_at_entry() {
        let c = cfg_of("void f(int n) { while (n) { n -= 1; } }");
        assert_eq!(c.reverse_post_order()[0], c.entry);
    }

    #[test]
    fn dead_code_after_early_return_does_not_feed_joins() {
        // `x = 2;` after the return lands in an unreachable continuation
        // block; before pruning, that block edged into the if-join and
        // polluted every forward analysis meeting there.
        let c = cfg_of("int f(int x) { if (x) { return 1; x = 2; } return x; }");
        let reachable = c.reachable();
        for (id, b) in c.blocks.iter().enumerate() {
            for &p in &b.preds {
                assert!(
                    reachable[p],
                    "block {id} lists unreachable predecessor {p}: {:?}",
                    b.preds
                );
            }
            if !reachable[id] {
                assert!(b.succs.is_empty(), "unreachable block {id} kept successors");
                assert!(b.preds.is_empty(), "unreachable block {id} kept predecessors");
            }
        }
        // The dead store still exists in the graph (for diagnostics), just
        // disconnected from the join.
        let dead_store = c
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts
                    .iter()
                    .any(|i| matches!(&i.inst, CfgInst::Assign { target: LValue::Var(v), .. } if v == "x"))
            })
            .map(|(id, _)| id)
            .expect("dead store lowered somewhere");
        assert!(!reachable[dead_store], "the post-return store must be unreachable");
    }

    #[test]
    fn dead_code_after_break_and_continue_is_isolated() {
        let c = cfg_of(
            "void f(int n) { while (n) { if (n == 1) { break; log_dead(); } n -= 1; } done(); }",
        );
        let reachable = c.reachable();
        for b in &c.blocks {
            for &p in &b.preds {
                assert!(reachable[p], "unreachable predecessor leaked into a join");
            }
        }
    }

    #[test]
    fn inst_exprs_list_the_value_then_the_target_operands() {
        let c = cfg_of("void f(int a) { int x = a + 1; x = 2; *p = 3; b[i] = g(); int y; }");
        let insts: Vec<_> = c.blocks.iter().flat_map(|b| b.insts.iter()).collect();
        let rendered = |k: usize| -> Vec<String> {
            insts[k].inst.exprs().map(crate::printer::print_expr).collect()
        };
        assert_eq!(rendered(0), ["a + 1"]);
        assert_eq!(rendered(1), ["2"]);
        assert_eq!(rendered(2), ["3", "p"], "the value first, then the deref operand");
        assert_eq!(rendered(3), ["g()", "b", "i"]);
        assert!(rendered(4).is_empty(), "a bare declaration evaluates nothing");
    }

    #[test]
    fn reverse_post_order_survives_a_long_block_chain() {
        // 20 000 sequential ifs make a ~40 000-block chain: one DFS level
        // per block, walked on a thread with a small stack.
        let src = format!("void f(int x) {{ {} }}", "if (x) { x = 1; } ".repeat(20_000));
        let c = cfg_of(&src);
        let n = c.blocks.len();
        let rpo = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || c.reverse_post_order())
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(rpo.len(), n, "every block is reachable");
        assert_eq!(rpo[0], 0, "the entry comes first");
    }

    #[test]
    fn reverse_post_order_matches_the_recursive_definition() {
        fn post(c: &Cfg, b: BlockId, seen: &mut Vec<bool>, out: &mut Vec<BlockId>) {
            if std::mem::replace(&mut seen[b], true) {
                return;
            }
            for &s in &c.blocks[b].succs {
                post(c, s, seen, out);
            }
            out.push(b);
        }
        for src in [
            "void f() { while (1) { if (stop()) { break; } tick(); } done(); }",
            "void f(int n) { for (int i = 0; i < n; i++) { if (i == 3) { continue; } } }",
            "int f(int x) { if (x) { return 1; x = 2; } else { x = 3; } return x; }",
        ] {
            let c = cfg_of(src);
            let mut expected = Vec::new();
            post(&c, c.entry, &mut vec![false; c.blocks.len()], &mut expected);
            expected.reverse();
            assert_eq!(c.reverse_post_order(), expected, "{src}");
        }
    }
}
