//! The workspace's stable, dependency-free hashes.
//!
//! Every cache key, clone signature, ML feature bucket and seeded per-sample
//! draw in the workspace is built from these few functions, so their values
//! are part of the observable behaviour: changing one re-keys caches,
//! re-buckets features and re-draws analyst skill. The known-answer tests
//! below pin them.
//!
//! * [`fnv1a`] / [`fnv1a_seeded`] — 64-bit FNV-1a over bytes, from the
//!   standard offset basis or continuing from a previous state;
//! * [`Fnv1a`] — the same hash as a streaming state, usable both as a
//!   [`std::hash::Hasher`] (identifier-keyed maps) and as a
//!   [`std::fmt::Write`] sink (hashing `Debug` output without allocating);
//! * [`mix64`] — the splitmix64 finalizer, a cheap well-mixed permutation;
//! * [`unit_f64`] — [`mix64`] mapped to a uniform `f64` in `[0, 1)`.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from the state `seed`.
pub fn fnv1a_seeded(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over `bytes` from the standard offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_seeded(FNV_OFFSET, bytes)
}

/// Streaming FNV-1a state. Writing bytes in several pieces yields the same
/// value as [`fnv1a`] over their concatenation.
#[derive(Debug, Clone)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_seeded(self.0, bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_seeded(self.0, s.as_bytes());
        Ok(())
    }
}

/// The splitmix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps `x` to a deterministic uniform in `[0, 1)`: the top 53 bits of
/// [`mix64`]`(x)`.
pub fn unit_f64(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;
    use std::hash::Hasher as _;

    #[test]
    fn fnv1a_known_answers() {
        // Reference vectors of 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_seeded(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn streaming_state_matches_the_one_shot_hash() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        let _ = write!(h, "bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn splitmix_known_answers() {
        // splitmix64 outputs for state 0: the finalizer of 0x9e3779b97f4a7c15.
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(mix64(1), 0x910a_2dec_8902_5cc1);
        assert_eq!(unit_f64(0), (0xe220_a839_7b1d_cdafu64 >> 11) as f64 / (1u64 << 53) as f64);
        for x in [0, 1, u64::MAX, 0xdead_beef] {
            let u = unit_f64(x);
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn unit_draw_is_uniformish() {
        let n = 10_000;
        let mean: f64 = (0..n).map(unit_f64).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}
