//! 128-bit streaming state hashing for seen-set deduplication.
//!
//! The explorer stores only hashes of canonical states (not the states
//! themselves), so a collision would silently merge two distinct states and
//! hide part of the space. Two independent 64-bit mixing streams bring the
//! collision probability at a million states to ~2⁻⁸⁸ — negligible.

/// Streaming hasher: feed canonical tokens, take a 128-bit digest.
#[derive(Clone, Debug)]
pub struct StateHasher {
    a: u64,
    b: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    pub fn new() -> StateHasher {
        StateHasher { a: 0x6C62_272E_07BB_0142, b: 0x2545_F491_4F6C_DD1D }
    }

    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        // Two splitmix64 rounds with distinct keys; streams stay independent
        // because the keys differ and each absorbs the token separately.
        self.a = mix(self.a ^ v, 0x9E37_79B9_7F4A_7C15);
        self.b = mix(self.b.wrapping_add(v), 0xC2B2_AE3D_27D4_EB4F);
    }

    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(v as u64);
    }

    /// Mark a structural boundary (list end, section change) so that
    /// `[1,2],[3]` and `[1],[2,3]` hash differently.
    #[inline]
    pub fn boundary(&mut self) {
        self.write_u64(0xFEED_FACE_CAFE_BEEF);
    }

    pub fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

/// The explorer's seen-set of canonical digests.
///
/// Keys are already uniformly mixed 128-bit digests from [`StateHasher`],
/// so the map skips the default SipHash pass entirely — re-hashing a hash
/// buys no distribution and costs a measurable slice of exploration time
/// (the seen-set is probed once per transition).
pub type SeenSet = std::collections::HashSet<u128, DigestHashBuilder>;

/// `BuildHasher` for [`SeenSet`]: folds the two digest halves together and
/// uses the result directly. Deterministic by construction (no
/// `RandomState`), which also keeps iteration-order entropy out of the
/// checker even though nothing iterates the set.
#[derive(Clone, Copy, Debug, Default)]
pub struct DigestHashBuilder;

impl std::hash::BuildHasher for DigestHashBuilder {
    type Hasher = DigestHasher;

    fn build_hasher(&self) -> DigestHasher {
        DigestHasher(0)
    }
}

/// Hasher that passes pre-mixed digest bits straight through.
#[derive(Clone, Copy, Debug)]
pub struct DigestHasher(u64);

impl std::hash::Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by u128 keys): fold bytes in.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

#[inline]
fn mix(v: u64, key: u64) -> u64 {
    let mut z = v.wrapping_mul(key) ^ (v >> 31);
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tokens: &[u64]) -> u128 {
        let mut h = StateHasher::new();
        for &t in tokens {
            h.write_u64(t);
        }
        h.finish()
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
    }

    #[test]
    fn boundary_distinguishes_groupings() {
        let mut x = StateHasher::new();
        x.write_u64(1);
        x.boundary();
        x.write_u64(2);
        let mut y = StateHasher::new();
        x01_feed(&mut y);
        assert_ne!(x.finish(), y.finish());
    }

    fn x01_feed(h: &mut StateHasher) {
        h.write_u64(1);
        h.write_u64(2);
        h.boundary();
    }

    #[test]
    fn deterministic() {
        assert_eq!(digest(&[5, 6, 7]), digest(&[5, 6, 7]));
    }

    #[test]
    fn seen_map_roundtrips_u128_keys() {
        let mut m = SeenSet::default();
        let keys = [0u128, 1, u128::MAX, digest(&[1, 2, 3]), digest(&[3, 2, 1])];
        for &k in &keys {
            assert!(m.insert(k), "{k} is new");
        }
        for &k in &keys {
            assert!(m.contains(&k) && !m.insert(k), "{k} is seen");
        }
        assert_eq!(m.len(), keys.len());
    }
}
