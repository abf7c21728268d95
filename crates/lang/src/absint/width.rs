//! Width domain: value ranges with *type-boundary* widening, for proving
//! integer truncation (CWE-197) and sharpening overflow (CWE-190) reasoning.
//!
//! The value lattice is the same `[lo, hi]` range as
//! [`super::interval::Interval`], and [`WidthDomain`] is the interval
//! domain's own transfer functions ([`super::interval::RangeDomain`]) over
//! [`Width`] values, which convert to and from [`Interval`]. Only the
//! widening operator differs: instead of jumping an unstable bound
//! straight to ±∞, it snaps the bound outward to the next *storage-type
//! boundary* on the ladder ±2⁷, ±2¹⁵, ±2³¹, ±2⁶³, ±∞. Each unstable bound
//! therefore climbs a strictly increasing finite ladder (termination), while
//! a loop counter that in truth stays inside `char` or `int` range keeps a
//! bound tight enough to *prove* whether a narrowing store truncates.
//!
//! A checker reports a narrowing store as CWE-197 only when the stored
//! value's range lies **entirely outside** the destination's representable
//! range — a must-fact; may-truncation is deliberately not reported.

use super::domain::AbstractValue;
use super::interval::{Interval, RangeDomain, RangeValue, NINF, PINF};
use std::fmt;

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
    /// Whether every possible value lies **outside** the signed `bits`-wide
    /// representable range — a proof that storing it into a `bits`-wide slot
    /// truncates on every path.
    pub fn provably_exceeds_bits(&self, bits: u32) -> bool {
        if self.iv.is_bottom() {
            return false;
        }
        let max = (1i128 << (bits - 1)) - 1;
        let min = -(1i128 << (bits - 1));
        self.iv.lo() > max || self.iv.hi() < min
    }
}

impl From<Interval> for Width {
    fn from(iv: Interval) -> Width {
        Width { iv }
    }
}

impl From<Width> for Interval {
    fn from(w: Width) -> Interval {
        w.iv
    }
}

impl RangeValue for Width {
    const NAME: &'static str = "width";
}

impl AbstractValue for Width {
    fn top() -> Self {
        Width { iv: Interval::TOP }
    }

    fn join(&self, other: &Self) -> Self {
        Width { iv: self.iv.join(&other.iv) }
    }

    fn widen(&self, other: &Self) -> Self {
        let (prev, next) = (self.iv, other.iv);
        if prev.is_bottom() {
            return *other;
        }
        if next.is_bottom() {
            return *self;
        }
        // Snap each unstable bound outward to the next storage-type
        // boundary that covers the new iterate, instead of straight to ±∞.
        // The snapped bound is ≤/≥ the new iterate (soundness) and strictly
        // beyond the previous one, and the ladder is finite (termination).
        let lo = if next.lo() < prev.lo() {
            LO_LADDER.iter().copied().find(|b| *b <= next.lo()).unwrap_or(NINF)
        } else {
            prev.lo()
        };
        let hi = if next.hi() > prev.hi() {
            HI_LADDER.iter().copied().find(|b| *b >= next.hi()).unwrap_or(PINF)
        } else {
            prev.hi()
        };
        Interval::range(lo, hi).into()
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.iv.fmt(f)
    }
}

/// Value ranges with storage-type-boundary widening: the interval transfer
/// functions of [`RangeDomain`] over [`Width`] values.
pub type WidthDomain = RangeDomain<Width>;

#[cfg(test)]
mod tests {
    use super::*;

    fn w(lo: i128, hi: i128) -> Width {
        Interval::range(lo, hi).into()
    }

    fn lo(v: Width) -> i128 {
        Interval::from(v).lo()
    }

    fn hi(v: Width) -> i128 {
        Interval::from(v).hi()
    }

    #[test]
    fn widening_snaps_to_type_boundaries_not_infinity() {
        let w1 = w(0, 3).widen(&w(0, 4));
        assert_eq!(hi(w1), 127, "first unstable climb lands on the char boundary");
        assert_eq!(lo(w1), 0, "stable bound kept");
        let w2 = w1.widen(&w(0, 128));
        assert_eq!(hi(w2), 32767, "next climb lands on the short boundary");
        let w3 = w2.widen(&w(-1, 32768));
        assert_eq!(lo(w3), -128);
        assert_eq!(hi(w3), (1 << 31) - 1);
    }

    #[test]
    fn widening_terminates_in_bounded_climbs() {
        // Feed an adversarial strictly-growing chain; each bound can climb
        // the 4-step ladder plus the final jump to ±∞, never more.
        let mut cur = w(0, 0);
        let mut climbs = 0;
        let mut grow = 1i128;
        for _ in 0..200 {
            let next = cur.widen(&w(-grow, grow));
            if next != cur {
                climbs += 1;
                cur = next;
            }
            grow = grow.saturating_mul(4);
        }
        assert!(climbs <= 5, "ladder widening must stabilise, took {climbs} climbs");
        assert_eq!(cur, Width::top());
    }

    #[test]
    fn widening_covers_the_new_iterate() {
        // Soundness: prev ∇ next ⊇ prev ⊔ next, across ladder steps.
        let cases = [(w(0, 10), w(-5, 300)), (w(-200, 0), w(-40000, 1)), (w(5, 5), w(NINF, 5))];
        for (prev, next) in cases {
            let wide = prev.widen(&next);
            let j = prev.join(&next);
            assert!(lo(wide) <= lo(j) && hi(wide) >= hi(j), "{prev} ∇ {next} = {wide} ⊉ {j}");
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        let vals = [Interval::BOTTOM.into(), w(0, 0), w(-128, 127), w(0, 400), Width::top()];
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
        assert!(w(360, 360).provably_exceeds_bits(8));
        assert!(w(128, 400).provably_exceeds_bits(8));
        assert!(w(NINF, -129).provably_exceeds_bits(8));
        assert!(!w(100, 400).provably_exceeds_bits(8), "may-truncation is not a proof");
        assert!(!w(-128, 127).provably_exceeds_bits(8));
        assert!(!Width::top().provably_exceeds_bits(8));
        assert!(!Width::from(Interval::BOTTOM).provably_exceeds_bits(8));
    }

    #[test]
    fn debug_rendering_keys_summaries_like_before() {
        // Incremental summary keys hash the `Debug` rendering.
        assert_eq!(format!("{:?}", w(0, 3)), "Width { iv: Interval { lo: 0, hi: 3 } }");
    }
}
