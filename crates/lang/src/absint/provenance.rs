//! Provenance domain: tracks *which sink kinds* a value has been sanitized
//! for, proving format-string (CWE-134) and command-injection (CWE-78)
//! semantically.
//!
//! The rule-based taint pass treats sanitizers as kind-blind: any call in
//! the sanitizer vocabulary clears taint entirely, so `escape_sql(p)` flowing
//! into `exec_shell` looks safe to it. This domain keeps a *kind mask* —
//! the set of sink kinds a value is actually safe for — so a kind-mismatched
//! sanitizer is provably insufficient at the sink.
//!
//! The lattice is `Bottom < {Clean, Ext(mask)} < MaybeExt(mask) < Unknown`
//! (top). `Ext(mask)` means attacker-controlled on every path, sanitized for
//! exactly the kinds in `mask`; `MaybeExt` means attacker-controlled on some
//! path. Joins intersect masks (safe only for kinds both paths are safe
//! for). `Unknown` — a bare parameter, an unrecognised callee (including a
//! team's renamed sanitizer wrapper) — is never report-worthy, keeping the
//! checker must-style.

use super::domain::{AbstractValue, Domain, Env, Summaries};
use crate::ast::{Expr, ExprKind, Type, UnOp};
use crate::cfg::CfgInst;
use std::fmt;

/// Sink-kind bit: `format` (printf-style format-string position).
pub const KIND_FORMAT: u8 = 1 << 0;
/// Sink-kind bit: `command` (shell execution).
pub const KIND_COMMAND: u8 = 1 << 1;
/// Sink-kind bit: `sql`.
pub const KIND_SQL: u8 = 1 << 2;
/// Sink-kind bit: `xss` (HTML rendering).
pub const KIND_XSS: u8 = 1 << 3;
/// Sink-kind bit: `path` (filesystem access).
pub const KIND_PATH: u8 = 1 << 4;
/// All sink-kind bits.
pub const KIND_ALL: u8 = KIND_FORMAT | KIND_COMMAND | KIND_SQL | KIND_XSS | KIND_PATH;

/// Attacker-controlled data sources (the shared corpus vocabulary).
pub const SOURCE_FNS: [&str; 8] = [
    "read_input",
    "recv",
    "getenv",
    "http_param",
    "read_file",
    "read_socket",
    "get_request_field",
    "deserialize",
];

/// Sanitizers and the sink kinds they actually make a value safe for.
pub const SANITIZER_FNS: [(&str, u8); 8] = [
    ("escape_sql", KIND_SQL),
    ("escape_html", KIND_XSS),
    ("sanitize_path", KIND_PATH),
    ("escape_shell", KIND_COMMAND),
    ("validate_input", KIND_ALL),
    ("bound_check", KIND_ALL),
    ("sanitize", KIND_ALL),
    ("clamp_len", KIND_ALL),
];

/// Returns the kind mask a sanitizer grants, if `name` is one.
pub fn sanitizer_mask(name: &str) -> Option<u8> {
    SANITIZER_FNS.iter().find(|(n, _)| *n == name).map(|(_, m)| *m)
}

/// Abstract provenance of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Unreachable / no value.
    Bottom,
    /// Definitely attacker-independent (literals, constants).
    Clean,
    /// Definitely attacker-controlled on every path; the mask holds the sink
    /// kinds it has been sanitized for.
    Ext(u8),
    /// Attacker-controlled on some path; mask as for [`Provenance::Ext`].
    MaybeExt(u8),
    /// No information (top).
    Unknown,
}

impl Provenance {
    #[cfg(test)]
    fn rank(self) -> u8 {
        match self {
            Provenance::Bottom => 0,
            Provenance::Clean | Provenance::Ext(_) => 1,
            Provenance::MaybeExt(_) => 2,
            Provenance::Unknown => 3,
        }
    }

    /// The kinds this value is safe for (`Clean` is safe for everything).
    fn mask(self) -> u8 {
        match self {
            Provenance::Ext(m) | Provenance::MaybeExt(m) => m,
            _ => KIND_ALL,
        }
    }

    /// Whether reaching a sink of `kind` is definitely an injection.
    pub fn sink_is_proven_bug(self, kind: u8) -> bool {
        matches!(self, Provenance::Ext(m) if m & kind == 0)
    }

    /// Whether reaching a sink of `kind` is an injection on some path.
    pub fn sink_is_possible_bug(self, kind: u8) -> bool {
        matches!(self, Provenance::MaybeExt(m) if m & kind == 0)
    }
}

impl AbstractValue for Provenance {
    fn top() -> Self {
        Provenance::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        use Provenance::*;
        match (*self, *other) {
            (a, b) if a == b => a,
            (Bottom, x) | (x, Bottom) => x,
            (Unknown, _) | (_, Unknown) => Unknown,
            // Mixed external-ness: safe only for kinds both sides are safe
            // for; must-external only when both sides are must-external.
            (Ext(a), Ext(b)) => Ext(a & b),
            (a, b) => MaybeExt(a.mask() & b.mask()),
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kinds = |m: u8| {
            let names: Vec<&str> = [
                (KIND_FORMAT, "format"),
                (KIND_COMMAND, "command"),
                (KIND_SQL, "sql"),
                (KIND_XSS, "xss"),
                (KIND_PATH, "path"),
            ]
            .iter()
            .filter(|(bit, _)| m & bit != 0)
            .map(|(_, n)| *n)
            .collect();
            if names.is_empty() {
                "none".to_string()
            } else {
                names.join("+")
            }
        };
        match self {
            Provenance::Bottom => write!(f, "bottom"),
            Provenance::Clean => write!(f, "clean"),
            Provenance::Ext(m) => write!(f, "external(safe-for: {})", kinds(*m)),
            Provenance::MaybeExt(m) => write!(f, "maybe-external(safe-for: {})", kinds(*m)),
            Provenance::Unknown => write!(f, "unknown"),
        }
    }
}

/// Provenance transfer functions, with interprocedural return summaries.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceDomain {
    /// Abstract return provenance per analysed function (a local wrapper
    /// around a source propagates external-ness to its callers). Externals
    /// outside the vocabulary evaluate to top.
    pub summaries: Summaries<Provenance>,
}

impl ProvenanceDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Summaries<Provenance>) -> Self {
        ProvenanceDomain { summaries }
    }

    /// Combines operand provenances for string/arithmetic composition:
    /// external-ness propagates, kind masks intersect.
    fn combine(a: Provenance, b: Provenance) -> Provenance {
        use Provenance::*;
        match (a, b) {
            (Bottom, x) | (x, Bottom) => x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (Clean, Clean) => Clean,
            (Ext(_), _) | (_, Ext(_)) => Ext(a.mask() & b.mask()),
            _ => MaybeExt(a.mask() & b.mask()),
        }
    }

    fn eval_expr(&self, env: &Env<Provenance>, e: &Expr) -> Provenance {
        match &e.kind {
            ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => Provenance::Clean,
            ExprKind::Var(name) => env.get(name),
            ExprKind::Unary(UnOp::Not | UnOp::Neg, inner) => self.eval_expr(env, inner),
            ExprKind::Unary(_, _) => Provenance::Unknown,
            ExprKind::Binary(_, l, r) => {
                Self::combine(self.eval_expr(env, l), self.eval_expr(env, r))
            }
            ExprKind::Call(name, args) => {
                if SOURCE_FNS.contains(&name.as_str()) {
                    return Provenance::Ext(0);
                }
                if let Some(granted) = sanitizer_mask(name) {
                    // A sanitizer adds its kinds to the operand's safe mask.
                    return match args.first().map(|a| self.eval_expr(env, a)) {
                        Some(Provenance::Ext(m)) => Provenance::Ext(m | granted),
                        Some(Provenance::MaybeExt(m)) => Provenance::MaybeExt(m | granted),
                        Some(other) => other,
                        None => Provenance::Unknown,
                    };
                }
                if name == "concat" {
                    // The canonical string combiner forwards its operands'
                    // provenance, like a binary operator.
                    return args
                        .iter()
                        .map(|a| self.eval_expr(env, a))
                        .fold(Provenance::Clean, Self::combine);
                }
                self.summaries.get(name.as_str()).copied().unwrap_or(Provenance::Unknown)
            }
            ExprKind::Index(_, _) => Provenance::Unknown,
        }
    }
}

impl Domain for ProvenanceDomain {
    type Value = Provenance;

    fn name(&self) -> &'static str {
        "provenance"
    }

    fn transfer(&self, env: &mut Env<Provenance>, inst: &CfgInst) {
        match inst {
            CfgInst::Decl { name, ty, init } => {
                let v = match (ty, init) {
                    (Type::Array(_, _), _) => Provenance::Unknown,
                    (_, Some(e)) => self.eval_expr(env, e),
                    (_, None) => Provenance::Unknown,
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

    fn eval(&self, env: &Env<Provenance>, e: &Expr) -> Provenance {
        self.eval_expr(env, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: [Provenance; 8] = [
        Provenance::Bottom,
        Provenance::Clean,
        Provenance::Ext(0),
        Provenance::Ext(KIND_SQL),
        Provenance::Ext(KIND_ALL),
        Provenance::MaybeExt(0),
        Provenance::MaybeExt(KIND_COMMAND | KIND_SQL),
        Provenance::Unknown,
    ];

    #[test]
    fn join_is_commutative_idempotent_and_rank_monotone() {
        for a in SAMPLE {
            assert_eq!(a.join(&a), a, "idempotence for {a:?}");
            for b in SAMPLE {
                let j = a.join(&b);
                assert_eq!(j, b.join(&a), "commutativity for {a:?} ⊔ {b:?}");
                assert!(j.rank() >= a.rank().max(b.rank()), "{a:?} ⊔ {b:?} = {j:?}");
            }
        }
    }

    #[test]
    fn join_is_associative() {
        for a in SAMPLE {
            for b in SAMPLE {
                for c in SAMPLE {
                    assert_eq!(
                        a.join(&b).join(&c),
                        a.join(&b.join(&c)),
                        "associativity for {a:?}, {b:?}, {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn joins_intersect_safety_masks() {
        use Provenance::*;
        assert_eq!(Ext(KIND_SQL).join(&Ext(KIND_COMMAND)), Ext(0));
        assert_eq!(Ext(KIND_SQL).join(&Ext(KIND_SQL | KIND_XSS)), Ext(KIND_SQL));
        assert_eq!(Clean.join(&Ext(KIND_SQL)), MaybeExt(KIND_SQL));
        assert_eq!(MaybeExt(KIND_ALL).join(&Ext(KIND_SQL)), MaybeExt(KIND_SQL));
        assert_eq!(Unknown.join(&Ext(0)), Unknown, "no report without tracked provenance");
    }

    #[test]
    fn widening_terminates_on_every_ascending_chain() {
        // Finite height: rank climbs at most 3 times and the mask can only
        // lose bits (5 of them) — every chain stabilises.
        for start in SAMPLE {
            let mut cur = start;
            let mut climbs = 0;
            for next in SAMPLE {
                let w = cur.widen(&next);
                if w != cur {
                    climbs += 1;
                    cur = w;
                }
            }
            assert!(climbs <= 8, "chain from {start:?} climbed {climbs} times");
        }
    }

    #[test]
    fn kind_mismatch_is_a_proof_only_for_must_external() {
        assert!(Provenance::Ext(KIND_SQL).sink_is_proven_bug(KIND_COMMAND));
        assert!(!Provenance::Ext(KIND_SQL).sink_is_proven_bug(KIND_SQL));
        assert!(Provenance::MaybeExt(0).sink_is_possible_bug(KIND_FORMAT));
        assert!(!Provenance::MaybeExt(KIND_FORMAT).sink_is_possible_bug(KIND_FORMAT));
        assert!(!Provenance::Unknown.sink_is_proven_bug(KIND_COMMAND));
        assert!(!Provenance::Clean.sink_is_proven_bug(KIND_COMMAND));
    }
}
