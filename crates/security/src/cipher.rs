//! Block cipher and stream encryption for at-rest and in-transit data
//! (§5.1).
//!
//! The paper requires that "the encryption layer ... accommodate any
//! encryption approach including hardware-supported encryption"; the cipher
//! itself is pluggable. We implement XTEA (64-bit block, 128-bit key,
//! 32 rounds) in CTR mode as the stand-in — small, well-known, and
//! dependency-free. **This is a simulation stand-in, not audited
//! production cryptography.**

/// 128-bit cipher key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Key(pub [u32; 4]);

impl Key {
    /// Derive a key from a 64-bit seed (for tests and per-volume keys).
    pub fn from_seed(seed: u64) -> Key {
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u32
        };
        Key([next(), next(), next(), next()])
    }
}

const ROUNDS: u32 = 32;
const DELTA: u32 = 0x9E37_79B9;

/// Encrypt one 64-bit block.
pub fn encrypt_block(key: &Key, block: u64) -> u64 {
    let mut v0 = (block >> 32) as u32;
    let mut v1 = block as u32;
    let k = key.0;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1)) ^ (sum.wrapping_add(k[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0)) ^ (sum.wrapping_add(k[((sum >> 11) & 3) as usize])),
        );
    }
    ((v0 as u64) << 32) | v1 as u64
}

/// Encrypt two 64-bit blocks under one key: `(encrypt_block(key, x),
/// encrypt_block(key, y))`, with the two blocks' rounds interleaved. Each
/// block's rounds form one serial dependency chain; running two chains side
/// by side lets the second fill the first's pipeline stalls, so a pair
/// costs far less than two blocks.
fn encrypt_pair(key: &Key, x: u64, y: u64) -> (u64, u64) {
    let (mut x0, mut x1) = ((x >> 32) as u32, x as u32);
    let (mut y0, mut y1) = ((y >> 32) as u32, y as u32);
    let k = key.0;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS {
        let round_key = sum.wrapping_add(k[(sum & 3) as usize]);
        x0 = x0.wrapping_add((((x1 << 4) ^ (x1 >> 5)).wrapping_add(x1)) ^ round_key);
        y0 = y0.wrapping_add((((y1 << 4) ^ (y1 >> 5)).wrapping_add(y1)) ^ round_key);
        sum = sum.wrapping_add(DELTA);
        let round_key = sum.wrapping_add(k[((sum >> 11) & 3) as usize]);
        x1 = x1.wrapping_add((((x0 << 4) ^ (x0 >> 5)).wrapping_add(x0)) ^ round_key);
        y1 = y1.wrapping_add((((y0 << 4) ^ (y0 >> 5)).wrapping_add(y0)) ^ round_key);
    }
    (((x0 as u64) << 32) | x1 as u64, ((y0 as u64) << 32) | y1 as u64)
}

/// Decrypt one 64-bit block.
// lint: allow(dead-pub) — (a) XTEA inverse the cipher tests check encrypt_block against
pub fn decrypt_block(key: &Key, block: u64) -> u64 {
    let mut v0 = (block >> 32) as u32;
    let mut v1 = block as u32;
    let k = key.0;
    let mut sum: u32 = DELTA.wrapping_mul(ROUNDS);
    for _ in 0..ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0)) ^ (sum.wrapping_add(k[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1)) ^ (sum.wrapping_add(k[(sum & 3) as usize])),
        );
    }
    ((v0 as u64) << 32) | v1 as u64
}

/// Domain-separation constant for the second half of the subkey schedule
/// (an arbitrary odd 64-bit value; any fixed non-zero tweak works).
const SUBKEY_TWEAK: u64 = 0x5DEE_CE66_D83A_55B1;

/// Derive the per-`(key, nonce)` stream subkey.
///
/// Mixing the nonce into the *key schedule* (rather than XOR-ing it into
/// the counter) gives every nonce a disjoint keystream: two streams under
/// the same master key can never line up block-for-block, no matter how
/// their counters overlap. The 128 subkey bits come from two XTEA
/// applications over nonce-derived blocks.
fn stream_subkey(key: &Key, nonce: u64) -> Key {
    let (a, b) = encrypt_pair(key, nonce, nonce ^ SUBKEY_TWEAK);
    Key([(a >> 32) as u32, a as u32, (b >> 32) as u32, b as u32])
}

/// XOR `data` with the CTR keystream for `(key, nonce)` starting at byte
/// offset `offset`. Encryption and decryption are the same operation.
///
/// The keystream block for counter `c` is `E(subkey(key, nonce), c)`; the
/// nonce lives in the key derivation, not the counter, so distinct nonces
/// have fully disjoint counter spaces (the previous `nonce ⊕ c` scheme let
/// adjacent nonces collide: nonce 2 at block 1 equalled nonce 3 at
/// block 0 — a two-time pad across volumes). Using the byte offset as the
/// counter origin makes the operation *seekable*: any sub-range of a
/// volume can be ciphered independently, which is what lets the blades
/// encrypt in-stream at full pipeline rate (§8.1).
pub fn ctr_xor(key: &Key, nonce: u64, offset: u64, data: &mut [u8]) {
    let subkey = stream_subkey(key, nonce);
    let mut block = offset / 8;
    // Keystream bytes of the first block that lie before `offset`.
    let mut skip = (offset % 8) as usize;
    let mut rest = data;
    while !rest.is_empty() {
        // Two keystream blocks a step; the second goes unused when the data
        // ends inside the first.
        let (a, b) = encrypt_pair(&subkey, block, block + 1);
        let mut ks = [0u8; 16];
        ks[..8].copy_from_slice(&a.to_be_bytes());
        ks[8..].copy_from_slice(&b.to_be_bytes());
        let take = (16 - skip).min(rest.len());
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
        for (d, k) in head.iter_mut().zip(&ks[skip..]) {
            *d ^= k;
        }
        rest = tail;
        skip = 0;
        block += 2;
    }
}

/// Per-byte software encryption cost used by the simulator's cost model:
/// ~2.5 cycles/byte on era silicon ≈ 3 ns/byte at 800 MHz.
pub const SW_NS_PER_BYTE: f64 = 3.0;
/// With the paper's hardware assist, encryption rides the DMA pipeline:
/// effectively wire-speed, charged at a token cost.
pub const HW_NS_PER_BYTE: f64 = 0.05;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trips() {
        let key = Key::from_seed(42);
        for b in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_BABE] {
            assert_eq!(decrypt_block(&key, encrypt_block(&key, b)), b);
        }
    }

    #[test]
    fn block_golden_vector_stability() {
        // Regression pin: XTEA with the all-zero key over the zero block.
        // (Computed by this implementation; guards against accidental
        // algorithm changes.)
        let key = Key([0, 0, 0, 0]);
        let c = encrypt_block(&key, 0);
        assert_eq!(decrypt_block(&key, c), 0);
        assert_ne!(c, 0, "encryption must not be identity");
        // XTEA's published zero-key/zero-plaintext vector.
        assert_eq!(c, 0xDEE9_D4D8_F713_1ED9, "known XTEA test vector");
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = encrypt_block(&Key::from_seed(1), 12345);
        let b = encrypt_block(&Key::from_seed(2), 12345);
        assert_ne!(a, b);
    }

    #[test]
    fn avalanche_flipping_one_plaintext_bit() {
        let key = Key::from_seed(7);
        let a = encrypt_block(&key, 0x1000);
        let b = encrypt_block(&key, 0x1001);
        let diff = (a ^ b).count_ones();
        assert!(diff > 16, "weak diffusion: only {diff} bits changed");
    }

    #[test]
    fn ctr_round_trips_any_range() {
        let key = Key::from_seed(9);
        let mut data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let orig = data.clone();
        ctr_xor(&key, 0xABCD, 0, &mut data);
        assert_ne!(data, orig);
        ctr_xor(&key, 0xABCD, 0, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_is_seekable() {
        // Ciphering a whole buffer equals ciphering its halves separately
        // at their own offsets.
        let key = Key::from_seed(11);
        let mut whole: Vec<u8> = (0..64u8).collect();
        ctr_xor(&key, 5, 100, &mut whole);
        let mut lo: Vec<u8> = (0..32u8).collect();
        let mut hi: Vec<u8> = (32..64u8).collect();
        ctr_xor(&key, 5, 100, &mut lo);
        ctr_xor(&key, 5, 132, &mut hi);
        assert_eq!(&whole[..32], &lo[..]);
        assert_eq!(&whole[32..], &hi[..]);
    }

    #[test]
    fn ctr_nonce_separates_streams() {
        let key = Key::from_seed(13);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_xor(&key, 1, 0, &mut a);
        ctr_xor(&key, 2, 0, &mut b);
        assert_ne!(a, b, "distinct nonces must yield distinct keystreams");
    }

    #[test]
    fn adjacent_nonces_never_share_keystream_blocks() {
        // Regression pin for the `nonce ^ block_index` counter scheme,
        // where nonce 2's block 1 and nonce 3's block 0 shared a keystream
        // block (2 ^ 1 == 3 ^ 0) — a two-time pad across volumes.
        let key = Key::from_seed(21);
        let mut a = vec![0u8; 16];
        let mut b = vec![0u8; 16];
        ctr_xor(&key, 2, 0, &mut a);
        ctr_xor(&key, 3, 0, &mut b);
        assert_ne!(&a[8..16], &b[0..8], "nonce 2 block 1 must differ from nonce 3 block 0");
        for (i, ai) in a.chunks(8).enumerate() {
            for (j, bj) in b.chunks(8).enumerate() {
                assert_ne!(ai, bj, "keystream collision: nonce 2 block {i} == nonce 3 block {j}");
            }
        }
    }

    /// A small seeded generator for the differential tests below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 29)
    }

    #[test]
    fn a_pair_is_two_blocks() {
        let mut s = 1;
        for _ in 0..2000 {
            let key = Key::from_seed(next(&mut s));
            let (x, y) = (next(&mut s), next(&mut s));
            assert_eq!(encrypt_pair(&key, x, y), (encrypt_block(&key, x), encrypt_block(&key, y)), "{key:?} {x:#x} {y:#x}");
        }
    }

    /// The definition `ctr_xor` ciphers in pairs: one keystream block at a
    /// time, the subkey from two single-block encryptions.
    fn ctr_xor_by_block(key: &Key, nonce: u64, offset: u64, data: &mut [u8]) {
        let a = encrypt_block(key, nonce);
        let b = encrypt_block(key, nonce ^ SUBKEY_TWEAK);
        let subkey = Key([(a >> 32) as u32, a as u32, (b >> 32) as u32, b as u32]);
        for (i, d) in data.iter_mut().enumerate() {
            let byte_off = offset + i as u64;
            *d ^= encrypt_block(&subkey, byte_off / 8).to_be_bytes()[(byte_off % 8) as usize];
        }
    }

    #[test]
    fn ctr_in_pairs_matches_one_block_at_a_time() {
        let mut s = 2;
        for _ in 0..2000 {
            let key = Key::from_seed(next(&mut s));
            let nonce = next(&mut s);
            let offset = next(&mut s) % 4096;
            let len = (next(&mut s) % 70) as usize;
            let data: Vec<u8> = (0..len).map(|_| next(&mut s) as u8).collect();
            let (mut paired, mut by_block) = (data.clone(), data);
            ctr_xor(&key, nonce, offset, &mut paired);
            ctr_xor_by_block(&key, nonce, offset, &mut by_block);
            assert_eq!(paired, by_block, "{key:?} nonce {nonce:#x} offset {offset} len {len}");
        }
    }

    #[test]
    fn unaligned_offsets_work() {
        let key = Key::from_seed(17);
        let mut data = vec![0xAAu8; 13];
        ctr_xor(&key, 3, 7, &mut data);
        ctr_xor(&key, 3, 7, &mut data);
        assert_eq!(data, vec![0xAAu8; 13]);
    }
}
