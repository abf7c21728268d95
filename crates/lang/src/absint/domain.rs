//! Lattice and transfer-function contracts shared by every abstract domain.

use crate::ast::{Expr, ExprKind, Function, UnOp};
use crate::cfg::CfgInst;
use crate::intern::Symbol;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An interprocedural summary table: function name → abstract return value.
/// The bottom-up drivers hand every function's domain the same allocation
/// and insert each solved function's summary in place once that domain is
/// dropped, so a pass never copies the table.
pub type Summaries<V> = Arc<BTreeMap<Symbol, V>>;

/// An element of a join-semilattice with a widening operator.
///
/// Implementations must guarantee that repeated `join`/`widen` applications
/// stabilise: either the lattice has finite height, or `widen` jumps every
/// strictly ascending chain to a fixed point in a bounded number of steps.
pub trait AbstractValue: Clone + PartialEq + fmt::Debug + fmt::Display {
    /// The top element ("no information"). Variables absent from an [`Env`]
    /// implicitly hold this value, so `top` must never be report-worthy.
    fn top() -> Self;

    /// Least upper bound of `self` and `other`.
    fn join(&self, other: &Self) -> Self;

    /// Widening `self ∇ other` where `self` is the previous iterate. The
    /// default is `join`, which is only correct for finite-height lattices.
    fn widen(&self, other: &Self) -> Self {
        self.join(other)
    }
}

/// Abstract state at a program point: a map from variable name to abstract
/// value, plus a reachability flag. An unreachable env is the bottom state —
/// it contributes nothing at join points (which is why the CFG builder's
/// unreachable-edge pruning matters: dead blocks never even reach a join).
///
/// Keys are the parser's interned [`Symbol`]s, kept in a vector sorted by
/// name: cloning a state is one allocation plus reference-count bumps, and
/// joining or widening two states is one merge walk whose key comparisons
/// mostly hit the pointer-equality fast path. Reads take `&str`.
///
/// Variables bound to [`AbstractValue::top`] are canonically *absent*, so
/// structural equality doubles as lattice equality.
#[derive(Debug, Clone, PartialEq)]
pub struct Env<V> {
    vars: Vec<(Symbol, V)>,
    reachable: bool,
}

impl<V: AbstractValue> Env<V> {
    /// The bottom state: no path reaches this point yet.
    pub fn bottom() -> Self {
        Env { vars: Vec::new(), reachable: false }
    }

    /// A reachable state with no variable information (everything top).
    pub fn reachable_top() -> Self {
        Env { vars: Vec::new(), reachable: true }
    }

    /// Whether any path reaches this point.
    pub fn is_reachable(&self) -> bool {
        self.reachable
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.vars.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// The abstract value of `name` (top when untracked).
    pub fn get(&self, name: &str) -> V {
        match self.find(name) {
            Ok(i) => self.vars[i].1.clone(),
            Err(_) => V::top(),
        }
    }

    /// Binds `name` to `v`, canonicalising top to absence.
    pub fn set(&mut self, name: &Symbol, v: V) {
        match (self.vars.binary_search_by(|(k, _)| k.cmp(name)), v == V::top()) {
            (Ok(i), true) => {
                self.vars.remove(i);
            }
            (Ok(i), false) => self.vars[i].1 = v,
            (Err(_), true) => {}
            (Err(i), false) => self.vars.insert(i, (name.clone(), v)),
        }
    }

    /// Drops all information about `name` (≡ top).
    pub fn havoc(&mut self, name: &str) {
        if let Ok(i) = self.find(name) {
            self.vars.remove(i);
        }
    }

    /// Iterates over explicitly tracked `(variable, value)` facts in
    /// deterministic (sorted) order.
    pub fn facts(&self) -> impl Iterator<Item = (&str, &V)> {
        self.vars.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Least upper bound of two states. Variables tracked on only one side
    /// join with implicit top and therefore drop out.
    pub fn join(&self, other: &Self) -> Self {
        self.merge(other, V::join)
    }

    /// Widening: like [`Env::join`] but uses the value-level widening for
    /// variables tracked on both sides (`self` is the previous iterate).
    pub fn widen(&self, other: &Self) -> Self {
        self.merge(other, V::widen)
    }

    /// Combines the variables tracked on both sides with `op`; a bottom
    /// side yields the other state unchanged.
    fn merge(&self, other: &Self, op: fn(&V, &V) -> V) -> Self {
        if !self.reachable {
            return other.clone();
        }
        if !other.reachable {
            return self.clone();
        }
        let mut vars = Vec::with_capacity(self.vars.len().min(other.vars.len()));
        let (mut i, mut j) = (0, 0);
        while let (Some((ka, va)), Some((kb, vb))) = (self.vars.get(i), other.vars.get(j)) {
            match ka.cmp(kb) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let v = op(va, vb);
                    if v != V::top() {
                        vars.push((ka.clone(), v));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Env { vars, reachable: true }
    }
}

impl<V: AbstractValue> fmt::Display for Env<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.reachable {
            return write!(f, "⊥");
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// An abstract domain: a value lattice plus the transfer functions that
/// interpret CFG instructions and branch outcomes over it.
///
/// Domains that evaluate calls hold a shared [`Summaries`] table (function
/// name → abstract return value), so call expressions can be evaluated
/// without the solver knowing anything about the call graph.
pub trait Domain {
    /// The value lattice.
    type Value: AbstractValue;

    /// Stable domain name, used in metrics keys and evidence traces.
    fn name(&self) -> &'static str;

    /// Entry state for a function (e.g. parameters marked initialized).
    fn entry_env(&self, _func: &Function) -> Env<Self::Value> {
        Env::reachable_top()
    }

    /// Applies one instruction to the state.
    fn transfer(&self, env: &mut Env<Self::Value>, inst: &CfgInst);

    /// Evaluates an expression in a state (used for return summaries and by
    /// checkers). Domains without a natural expression semantics return top.
    fn eval(&self, _env: &Env<Self::Value>, _e: &Expr) -> Self::Value {
        Self::Value::top()
    }

    /// Refines the state along a branch edge: `taken` is `true` on the first
    /// successor of a [`CfgInst::Branch`] block, `false` on the fallthrough.
    fn refine(&self, _env: &mut Env<Self::Value>, _cond: &Expr, _taken: bool) {}
}

/// Variable names read by an instruction, excluding variables that only
/// appear under `&` (address-of is not a read of the value — it typically
/// hands the location to a callee as an out-parameter).
pub fn inst_reads(inst: &CfgInst) -> Vec<&str> {
    use crate::ast::LValue;
    let mut out = Vec::new();
    match inst {
        CfgInst::Decl { init, .. } => {
            if let Some(e) = init {
                collect_value_reads(e, &mut out);
            }
        }
        CfgInst::Assign { target, value } => {
            match target {
                LValue::Var(_) => {}
                LValue::Deref(e) => collect_value_reads(e, &mut out),
                LValue::Index(b, i) => {
                    collect_value_reads(b, &mut out);
                    collect_value_reads(i, &mut out);
                }
            }
            collect_value_reads(value, &mut out);
        }
        CfgInst::Expr(e) | CfgInst::Branch(e) => collect_value_reads(e, &mut out),
        CfgInst::Return(e) => {
            if let Some(e) = e {
                collect_value_reads(e, &mut out);
            }
        }
    }
    out
}

fn collect_value_reads<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match &e.kind {
        ExprKind::Var(name) => out.push(name),
        ExprKind::Unary(UnOp::AddrOf, inner) => {
            // `&x` is not a value read of `x`; still descend into nested
            // non-variable operands like `&a[i]`.
            if !matches!(inner.kind, ExprKind::Var(_)) {
                collect_value_reads(inner, out);
            }
        }
        ExprKind::Unary(_, inner) => collect_value_reads(inner, out),
        ExprKind::Binary(_, l, r) => {
            collect_value_reads(l, out);
            collect_value_reads(r, out);
        }
        ExprKind::Call(_, args) => args.iter().for_each(|a| collect_value_reads(a, out)),
        ExprKind::Index(b, i) => {
            collect_value_reads(b, out);
            collect_value_reads(i, out);
        }
        ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => {}
    }
}

/// Variable names that appear under a unary `&` anywhere in the instruction;
/// a callee receiving `&x` may initialise or overwrite `x`, so domains havoc
/// (or promote) these after the instruction executes.
pub fn inst_addr_taken(inst: &CfgInst) -> Vec<&Symbol> {
    fn visit<'a>(e: &'a Expr, out: &mut Vec<&'a Symbol>) {
        e.walk(&mut |sub| {
            if let ExprKind::Unary(UnOp::AddrOf, inner) = &sub.kind {
                if let ExprKind::Var(name) = &inner.kind {
                    out.push(name);
                }
            }
        });
    }
    let mut out = Vec::new();
    match inst {
        CfgInst::Decl { init: Some(e), .. }
        | CfgInst::Expr(e)
        | CfgInst::Branch(e)
        | CfgInst::Return(Some(e)) => visit(e, &mut out),
        CfgInst::Assign { value, .. } => visit(value, &mut out),
        _ => {}
    }
    out
}
