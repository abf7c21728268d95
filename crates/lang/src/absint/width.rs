//! Width domain: value ranges with *type-boundary* widening, for proving
//! integer truncation (CWE-197) and sharpening overflow (CWE-190) reasoning.
//!
//! The value lattice is the same `[lo, hi]` range as
//! [`super::interval::Interval`] — it even delegates its arithmetic — but
//! the widening operator differs: instead of jumping an unstable bound
//! straight to ±∞, it snaps the bound outward to the next *storage-type
//! boundary* on the ladder ±2⁷, ±2¹⁵, ±2³¹, ±2⁶³, ±∞. Each unstable bound
//! therefore climbs a strictly increasing finite ladder (termination), while
//! a loop counter that in truth stays inside `char` or `int` range keeps a
//! bound tight enough to *prove* whether a narrowing store truncates.
//!
//! A checker reports a narrowing store as CWE-197 only when the stored
//! value's range lies **entirely outside** the destination's representable
//! range — a must-fact; may-truncation is deliberately not reported.

use super::domain::{AbstractValue, Domain, Env};
use super::interval::Interval;
use crate::ast::{BinOp, Expr, ExprKind, Function, Type, UnOp};
use crate::cfg::CfgInst;
use crate::intern::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// −∞ sentinel (mirrors the interval domain's encoding).
const NINF: i128 = i128::MIN;
/// +∞ sentinel.
const PINF: i128 = i128::MAX;

/// The storage-type boundary ladder for lower bounds, tightest first.
const LO_LADDER: [i128; 4] = [-(1 << 7), -(1 << 15), -(1 << 31), -(1 << 63)];
/// The storage-type boundary ladder for upper bounds, tightest first.
const HI_LADDER: [i128; 4] = [(1 << 7) - 1, (1 << 15) - 1, (1 << 31) - 1, (1 << 63) - 1];

/// A value range with type-boundary widening. Wraps [`Interval`] for all
/// order/arithmetic structure; only `widen` differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Width {
    iv: Interval,
}

impl Width {
    /// The empty range (bottom).
    pub const BOTTOM: Width = Width { iv: Interval::BOTTOM };

    /// The full range (top).
    pub const TOP: Width = Width { iv: Interval::TOP };

    /// A single concrete value.
    pub fn point(v: i64) -> Width {
        Width { iv: Interval::point(v) }
    }

    /// The range `[lo, hi]` (bottom when `lo > hi`).
    pub fn range(lo: i128, hi: i128) -> Width {
        Width { iv: Interval::range(lo, hi) }
    }

    /// Whether this is the empty range.
    pub fn is_bottom(&self) -> bool {
        self.iv.is_bottom()
    }

    /// Lower bound (meaningless for bottom).
    pub fn lo(&self) -> i128 {
        self.iv.lo()
    }

    /// Upper bound (meaningless for bottom).
    pub fn hi(&self) -> i128 {
        self.iv.hi()
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &Width) -> Width {
        Width { iv: self.iv.meet(&other.iv) }
    }

    /// Whether every possible value lies **outside** the signed `bits`-wide
    /// representable range — a proof that storing it into a `bits`-wide slot
    /// truncates on every path.
    pub fn provably_exceeds_bits(&self, bits: u32) -> bool {
        if self.is_bottom() {
            return false;
        }
        let max = (1i128 << (bits - 1)) - 1;
        let min = -(1i128 << (bits - 1));
        self.lo() > max || self.hi() < min
    }

    /// Whether every possible value fits the signed `bits`-wide range.
    pub fn fits_bits(&self, bits: u32) -> bool {
        if self.is_bottom() {
            return true;
        }
        let max = (1i128 << (bits - 1)) - 1;
        let min = -(1i128 << (bits - 1));
        self.lo() >= min && self.hi() <= max
    }
}

impl AbstractValue for Width {
    fn top() -> Self {
        Width::TOP
    }

    fn join(&self, other: &Self) -> Self {
        Width { iv: self.iv.join(&other.iv) }
    }

    fn widen(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        // Snap each unstable bound outward to the next storage-type
        // boundary that covers the new iterate, instead of straight to ±∞.
        // The snapped bound is ≤/≥ the new iterate (soundness) and strictly
        // beyond the previous one, and the ladder is finite (termination).
        let lo = if other.lo() < self.lo() {
            LO_LADDER.iter().copied().find(|b| *b <= other.lo()).unwrap_or(NINF)
        } else {
            self.lo()
        };
        let hi = if other.hi() > self.hi() {
            HI_LADDER.iter().copied().find(|b| *b >= other.hi()).unwrap_or(PINF)
        } else {
            self.hi()
        };
        Width::range(lo, hi)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.iv.fmt(f)
    }
}

/// Width transfer functions over the mini-C instruction set, mirroring
/// [`super::interval::IntervalDomain`] with interprocedural summaries.
#[derive(Debug, Clone, Default)]
pub struct WidthDomain {
    /// Abstract return range per analysed function.
    pub summaries: BTreeMap<Symbol, Width>,
}

impl WidthDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: BTreeMap<Symbol, Width>) -> Self {
        WidthDomain { summaries }
    }

    fn eval_expr(&self, env: &Env<Width>, e: &Expr) -> Width {
        match &e.kind {
            ExprKind::Int(v) => Width::point(*v),
            ExprKind::Char(c) => Width::point(*c as i64),
            ExprKind::Str(_) => Width::TOP,
            ExprKind::Var(name) => env.get(name),
            ExprKind::Unary(op, inner) => {
                let v = self.eval_expr(env, inner);
                match op {
                    UnOp::Neg => Width { iv: v.iv.neg() },
                    UnOp::Not => Width::range(0, 1),
                    UnOp::Deref | UnOp::AddrOf => Width::TOP,
                }
            }
            ExprKind::Binary(op, l, r) => {
                let a = self.eval_expr(env, l);
                let b = self.eval_expr(env, r);
                let iv = match op {
                    BinOp::Add => a.iv.add(&b.iv),
                    BinOp::Sub => a.iv.sub(&b.iv),
                    BinOp::Mul => a.iv.mul(&b.iv),
                    BinOp::Div => a.iv.div(&b.iv),
                    BinOp::Rem => a.iv.rem(&b.iv),
                    op if op.is_comparison() => Interval::range(0, 1),
                    _ => Interval::TOP,
                };
                Width { iv }
            }
            ExprKind::Call(name, _) => {
                self.summaries.get(name.as_str()).copied().unwrap_or(Width::TOP)
            }
            ExprKind::Index(_, _) => Width::TOP,
        }
    }

    /// Applies the comparison `var_value (op) rhs` as a constraint.
    fn constrain(var_value: Width, op: BinOp, rhs: &Width) -> Width {
        if rhs.is_bottom() {
            return var_value;
        }
        match op {
            BinOp::Lt => var_value.meet(&Width::range(NINF, super::interval::badd(rhs.hi(), -1))),
            BinOp::Le => var_value.meet(&Width::range(NINF, rhs.hi())),
            BinOp::Gt => var_value.meet(&Width::range(super::interval::badd(rhs.lo(), 1), PINF)),
            BinOp::Ge => var_value.meet(&Width::range(rhs.lo(), PINF)),
            BinOp::Eq => var_value.meet(rhs),
            BinOp::Ne => match rhs.iv.as_finite_point() {
                Some(k) if var_value.lo() == k as i128 => {
                    Width::range(var_value.lo() + 1, var_value.hi())
                }
                Some(k) if var_value.hi() == k as i128 => {
                    Width::range(var_value.lo(), var_value.hi() - 1)
                }
                _ => var_value,
            },
            _ => var_value,
        }
    }

    fn negate_cmp(op: BinOp) -> Option<BinOp> {
        Some(match op {
            BinOp::Lt => BinOp::Ge,
            BinOp::Le => BinOp::Gt,
            BinOp::Gt => BinOp::Le,
            BinOp::Ge => BinOp::Lt,
            BinOp::Eq => BinOp::Ne,
            BinOp::Ne => BinOp::Eq,
            _ => return None,
        })
    }

    fn flip_cmp(op: BinOp) -> BinOp {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

impl Domain for WidthDomain {
    type Value = Width;

    fn name(&self) -> &'static str {
        "width"
    }

    fn entry_env(&self, _func: &Function) -> Env<Width> {
        Env::reachable_top()
    }

    fn transfer(&self, env: &mut Env<Width>, inst: &CfgInst) {
        match inst {
            CfgInst::Decl { name, ty, init } => {
                let v = match (ty, init) {
                    (Type::Array(_, _), _) => Width::TOP,
                    (_, Some(e)) => self.eval_expr(env, e),
                    (_, None) => Width::TOP,
                };
                env.set(name, v);
            }
            CfgInst::Assign { target, value } => {
                if let crate::ast::LValue::Var(name) = target {
                    let v = self.eval_expr(env, value);
                    env.set(name, v);
                }
            }
            CfgInst::Expr(_) | CfgInst::Branch(_) | CfgInst::Return(_) => {}
        }
        for name in super::domain::inst_addr_taken(inst) {
            env.havoc(name);
        }
    }

    fn eval(&self, env: &Env<Width>, e: &Expr) -> Width {
        self.eval_expr(env, e)
    }

    fn refine(&self, env: &mut Env<Width>, cond: &Expr, taken: bool) {
        match &cond.kind {
            ExprKind::Unary(UnOp::Not, inner) => self.refine(env, inner, !taken),
            ExprKind::Var(name) if !taken => {
                let refined = env.get(name).meet(&Width::point(0));
                env.set(name, refined);
            }
            ExprKind::Binary(op, l, r) if op.is_comparison() => {
                let (op, var, other) = match (&l.kind, &r.kind) {
                    (ExprKind::Var(v), _) => (*op, v, r),
                    (_, ExprKind::Var(v)) => (Self::flip_cmp(*op), v, l),
                    _ => return,
                };
                let op = if taken {
                    op
                } else {
                    match Self::negate_cmp(op) {
                        Some(n) => n,
                        None => return,
                    }
                };
                let rhs = self.eval_expr(env, other);
                let refined = Self::constrain(env.get(var), op, &rhs);
                env.set(var, refined);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_snaps_to_type_boundaries_not_infinity() {
        let prev = Width::range(0, 3);
        let next = Width::range(0, 4);
        let w = prev.widen(&next);
        assert_eq!(w.hi(), 127, "first unstable climb lands on the char boundary");
        assert_eq!(w.lo(), 0, "stable bound kept");
        let w2 = w.widen(&Width::range(0, 128));
        assert_eq!(w2.hi(), 32767, "next climb lands on the short boundary");
        let w3 = w2.widen(&Width::range(-1, 32768));
        assert_eq!(w3.lo(), -128);
        assert_eq!(w3.hi(), (1 << 31) - 1);
    }

    #[test]
    fn widening_terminates_in_bounded_climbs() {
        // Feed an adversarial strictly-growing chain; each bound can climb
        // the 4-step ladder plus the final jump to ±∞, never more.
        let mut cur = Width::point(0);
        let mut climbs = 0;
        let mut grow = 1i128;
        for _ in 0..200 {
            let next = Width::range(-grow, grow);
            let w = cur.widen(&next);
            if w != cur {
                climbs += 1;
                cur = w;
            }
            grow = grow.saturating_mul(4);
        }
        assert!(climbs <= 5, "ladder widening must stabilise, took {climbs} climbs");
        assert_eq!(cur, Width::TOP);
    }

    #[test]
    fn widening_covers_the_new_iterate() {
        // Soundness: prev ∇ next ⊇ prev ⊔ next, across ladder steps.
        let cases = [
            (Width::range(0, 10), Width::range(-5, 300)),
            (Width::range(-200, 0), Width::range(-40000, 1)),
            (Width::point(5), Width::range(NINF, 5)),
        ];
        for (prev, next) in cases {
            let w = prev.widen(&next);
            let j = prev.join(&next);
            assert!(w.lo() <= j.lo() && w.hi() >= j.hi(), "{prev} ∇ {next} = {w} ⊉ {j}");
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        let vals = [
            Width::BOTTOM,
            Width::point(0),
            Width::range(-128, 127),
            Width::range(0, 400),
            Width::TOP,
        ];
        for a in vals {
            assert_eq!(a.join(&a), a);
            for b in vals {
                assert_eq!(a.join(&b), b.join(&a));
                for c in vals {
                    assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
                }
            }
        }
    }

    #[test]
    fn truncation_proofs_are_must_facts() {
        assert!(Width::point(360).provably_exceeds_bits(8));
        assert!(Width::range(128, 400).provably_exceeds_bits(8));
        assert!(Width::range(NINF, -129).provably_exceeds_bits(8));
        assert!(!Width::range(100, 400).provably_exceeds_bits(8), "may-truncation is not a proof");
        assert!(!Width::TOP.provably_exceeds_bits(8));
        assert!(!Width::BOTTOM.provably_exceeds_bits(8));
        assert!(Width::range(-128, 127).fits_bits(8));
        assert!(!Width::range(-129, 0).fits_bits(8));
    }
}
