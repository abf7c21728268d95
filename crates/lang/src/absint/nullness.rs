//! Nullness domain: tracks whether a pointer-valued variable can be the
//! literal null constant, with provenance.
//!
//! The lattice is `Bottom < {Null, NonNull} < MaybeNull < Unknown` (top).
//! `MaybeNull` is strictly below top on purpose: it only arises by joining a
//! path where the variable is the literal `0` with a path where it is not,
//! so a checker can report it with *provenance* ("null flows in from the
//! branch at …") instead of flagging every unannotated pointer. `Unknown`
//! (no information, e.g. a bare parameter) is never report-worthy.

use super::domain::{AbstractValue, Domain, Env, Summaries};
use crate::ast::{BinOp, Expr, ExprKind, Type, UnOp};
use crate::cfg::CfgInst;
use std::fmt;

/// Abstract nullness of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullness {
    /// Unreachable / no value.
    Bottom,
    /// Definitely the literal null (0) on every path.
    Null,
    /// Definitely a valid non-null value (literal, allocation, address-of).
    NonNull,
    /// Null on some path, non-null on another — literal-null provenance.
    MaybeNull,
    /// No information (top).
    Unknown,
}

impl Nullness {
    #[cfg(test)]
    fn rank(self) -> u8 {
        match self {
            Nullness::Bottom => 0,
            Nullness::Null | Nullness::NonNull => 1,
            Nullness::MaybeNull => 2,
            Nullness::Unknown => 3,
        }
    }

    /// Whether a dereference of a value in this state is report-worthy.
    pub fn is_derefable_bug(self) -> bool {
        matches!(self, Nullness::Null | Nullness::MaybeNull)
    }
}

impl AbstractValue for Nullness {
    fn top() -> Self {
        Nullness::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        use Nullness::*;
        match (self, other) {
            (a, b) if a == b => *a,
            (Bottom, x) | (x, Bottom) => *x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (MaybeNull, _) | (_, MaybeNull) => MaybeNull,
            (Null, NonNull) | (NonNull, Null) => MaybeNull,
            _ => Unknown,
        }
    }
}

impl fmt::Display for Nullness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Nullness::Bottom => "bottom",
            Nullness::Null => "null",
            Nullness::NonNull => "non-null",
            Nullness::MaybeNull => "maybe-null",
            Nullness::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// Nullness transfer functions, with interprocedural return summaries.
#[derive(Debug, Clone, Default)]
pub struct NullnessDomain {
    /// Abstract return nullness per analysed function. Externals fall back
    /// to the allocator convention: an unknown callee returning a pointer is
    /// assumed non-null (the bug class we chase is the literal-null path,
    /// not allocation failure).
    pub summaries: Summaries<Nullness>,
}

impl NullnessDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Summaries<Nullness>) -> Self {
        NullnessDomain { summaries }
    }

    fn eval_expr(&self, env: &Env<Nullness>, e: &Expr) -> Nullness {
        match &e.kind {
            ExprKind::Int(0) => Nullness::Null,
            ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => Nullness::NonNull,
            ExprKind::Var(name) => env.get(name),
            ExprKind::Unary(UnOp::AddrOf, _) => Nullness::NonNull,
            ExprKind::Unary(_, _) => Nullness::Unknown,
            // Pointer arithmetic preserves the base pointer's nullness
            // provenance closely enough for our must-style checks.
            ExprKind::Binary(BinOp::Add | BinOp::Sub, l, r) => {
                let a = self.eval_expr(env, l);
                let b = self.eval_expr(env, r);
                if a == Nullness::NonNull || b == Nullness::NonNull {
                    Nullness::NonNull
                } else {
                    Nullness::Unknown
                }
            }
            ExprKind::Binary(_, _, _) => Nullness::Unknown,
            ExprKind::Call(name, _) => {
                self.summaries.get(name.as_str()).copied().unwrap_or(Nullness::NonNull)
            }
            ExprKind::Index(_, _) => Nullness::Unknown,
        }
    }
}

impl Domain for NullnessDomain {
    type Value = Nullness;

    fn name(&self) -> &'static str {
        "nullness"
    }

    fn transfer(&self, env: &mut Env<Nullness>, inst: &CfgInst) {
        match inst {
            CfgInst::Decl { name, ty, init } => {
                let v = match (ty, init) {
                    // Array storage exists, so the "pointer" is non-null.
                    (Type::Array(_, _), _) => Nullness::NonNull,
                    (_, Some(e)) => self.eval_expr(env, e),
                    (_, None) => Nullness::Unknown,
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

    fn eval(&self, env: &Env<Nullness>, e: &Expr) -> Nullness {
        self.eval_expr(env, e)
    }

    fn refine(&self, env: &mut Env<Nullness>, cond: &Expr, taken: bool) {
        // Recognised guards: `p`, `!p`, `p == 0`, `p != 0`, `p == NULL`-style
        // comparisons against the literal zero.
        match &cond.kind {
            ExprKind::Unary(UnOp::Not, inner) => self.refine(env, inner, !taken),
            ExprKind::Var(name) => {
                // `if (p)` — taken means non-null; the zero value for an int
                // variable is harmless to record the same way.
                env.set(name, if taken { Nullness::NonNull } else { Nullness::Null });
            }
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
                let (var, other) = match (&l.kind, &r.kind) {
                    (ExprKind::Var(v), _) => (v, r),
                    (_, ExprKind::Var(v)) => (v, l),
                    _ => return,
                };
                if !matches!(other.kind, ExprKind::Int(0)) {
                    return;
                }
                let equals_null = (*op == BinOp::Eq) == taken;
                env.set(var, if equals_null { Nullness::Null } else { Nullness::NonNull });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_preserves_literal_null_provenance() {
        use Nullness::*;
        assert_eq!(Null.join(&NonNull), MaybeNull);
        assert_eq!(MaybeNull.join(&NonNull), MaybeNull);
        assert_eq!(Unknown.join(&Null), Unknown, "no provenance without a tracked null");
        assert_eq!(Bottom.join(&Null), Null);
        assert!(MaybeNull.is_derefable_bug());
        assert!(Null.is_derefable_bug());
        assert!(!Unknown.is_derefable_bug());
        assert!(!NonNull.is_derefable_bug());
    }

    #[test]
    fn join_is_monotone_in_rank() {
        use Nullness::*;
        for a in [Bottom, Null, NonNull, MaybeNull, Unknown] {
            for b in [Bottom, Null, NonNull, MaybeNull, Unknown] {
                let j = a.join(&b);
                assert!(j.rank() >= a.rank().min(b.rank()), "{a:?} ⊔ {b:?} = {j:?}");
                assert_eq!(j, b.join(&a), "join must be commutative");
            }
        }
    }
}
