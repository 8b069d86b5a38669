//! P and Q parity over stripe chunks, with reconstruction of up to two
//! erasures (the RAID-6 cases: data+data, data+P, data+Q, P+Q).

use crate::gf256;

/// Compute P (XOR) parity over equal-length data chunks.
pub fn compute_p(chunks: &[&[u8]]) -> Vec<u8> {
    assert!(!chunks.is_empty());
    let len = chunks[0].len();
    let mut p = vec![0u8; len];
    for c in chunks {
        assert_eq!(c.len(), len, "chunks must be equal length");
        for (pi, &b) in p.iter_mut().zip(*c) {
            *pi ^= b;
        }
    }
    p
}

/// Compute Q (Reed–Solomon) parity: `Q = Σ g^i · D_i`.
pub fn compute_q(chunks: &[&[u8]]) -> Vec<u8> {
    assert!(!chunks.is_empty());
    let len = chunks[0].len();
    let mut q = vec![0u8; len];
    for (i, c) in chunks.iter().enumerate() {
        assert_eq!(c.len(), len, "chunks must be equal length");
        gf256::mul_acc(&mut q, c, gf256::exp2(i));
    }
    q
}

/// Recover a single missing data chunk from the surviving data and P.
///
/// `present` holds every data chunk except index `missing`, in data order
/// (with the missing one skipped).
// lint: allow(dead-pub) — (a) GF(256) reference the parity tests check compute_p/compute_q against
pub fn recover_one_with_p(present: &[&[u8]], p: &[u8]) -> Vec<u8> {
    let mut out = p.to_vec();
    for c in present {
        for (o, &b) in out.iter_mut().zip(*c) {
            *o ^= b;
        }
    }
    out
}

/// Recover a single missing data chunk (at data index `missing`) from the
/// surviving data and Q.
// lint: allow(dead-pub) — (a) GF(256) reference the parity tests check compute_p/compute_q against
pub fn recover_one_with_q(present: &[(usize, &[u8])], missing: usize, q: &[u8]) -> Vec<u8> {
    // Q = Σ g^i D_i  ⇒  D_m = (Q ⊕ Σ_{i≠m} g^i D_i) / g^m
    let mut acc = q.to_vec();
    for &(i, c) in present {
        debug_assert_ne!(i, missing);
        gf256::mul_acc(&mut acc, c, gf256::exp2(i));
    }
    let scale = gf256::inv(gf256::exp2(missing));
    for b in &mut acc {
        *b = gf256::mul(*b, scale);
    }
    acc
}

/// Recover two missing data chunks (data indices `x < y`) from surviving
/// data plus both P and Q.
// lint: allow(dead-pub) — (a) GF(256) reference the parity tests check compute_p/compute_q against
pub fn recover_two_data(
    present: &[(usize, &[u8])],
    x: usize,
    y: usize,
    p: &[u8],
    q: &[u8],
) -> (Vec<u8>, Vec<u8>) {
    assert!(x < y, "pass erased indices in order");
    // Pxy = P ⊕ Σ_{i∉{x,y}} D_i  (= D_x ⊕ D_y)
    // Qxy = Q ⊕ Σ_{i∉{x,y}} g^i D_i (= g^x D_x ⊕ g^y D_y)
    let mut pxy = p.to_vec();
    let mut qxy = q.to_vec();
    for &(i, c) in present {
        debug_assert!(i != x && i != y);
        for (o, &b) in pxy.iter_mut().zip(c) {
            *o ^= b;
        }
        gf256::mul_acc(&mut qxy, c, gf256::exp2(i));
    }
    // D_x = (g^{y-x} Pxy ⊕ g^{-x} Qxy... ) — standard closed form:
    // Let a = g^x, b = g^y. Then Pxy = Dx ⊕ Dy, Qxy = a·Dx ⊕ b·Dy.
    // Dx = (b·Pxy ⊕ Qxy) / (a ⊕ b); Dy = Pxy ⊕ Dx.
    let a = gf256::exp2(x);
    let b = gf256::exp2(y);
    let denom = gf256::inv(gf256::add(a, b));
    let len = pxy.len();
    let mut dx = vec![0u8; len];
    for i in 0..len {
        let num = gf256::add(gf256::mul(b, pxy[i]), qxy[i]);
        dx[i] = gf256::mul(num, denom);
    }
    let dy: Vec<u8> = pxy.iter().zip(&dx).map(|(&pv, &xv)| pv ^ xv).collect();
    (dx, dy)
}

/// Incremental parity update for a small write: `P' = P ⊕ old ⊕ new`.
// lint: allow(dead-pub) — (a) GF(256) reference the parity tests check compute_p/compute_q against
pub fn update_p(p: &mut [u8], old: &[u8], new: &[u8]) {
    for ((pi, &o), &n) in p.iter_mut().zip(old).zip(new) {
        *pi ^= o ^ n;
    }
}

/// Incremental Q update: `Q' = Q ⊕ g^i·(old ⊕ new)`.
// lint: allow(dead-pub) — (a) GF(256) reference the parity tests check compute_p/compute_q against
pub fn update_q(q: &mut [u8], data_index: usize, old: &[u8], new: &[u8]) {
    let delta: Vec<u8> = old.iter().zip(new).map(|(&o, &n)| o ^ n).collect();
    gf256::mul_acc(q, &delta, gf256::exp2(data_index));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_simcore::Rng;

    fn random_chunks(rng: &mut Rng, n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| (0..len).map(|_| rng.next_u64() as u8).collect())
            .collect()
    }

    fn refs(chunks: &[Vec<u8>]) -> Vec<&[u8]> {
        chunks.iter().map(|c| c.as_slice()).collect()
    }

    #[test]
    fn p_recovers_single_erasure() {
        let mut rng = Rng::new(1);
        let data = random_chunks(&mut rng, 8, 512);
        let p = compute_p(&refs(&data));
        for missing in 0..8 {
            let present: Vec<&[u8]> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(_, c)| c.as_slice())
                .collect();
            assert_eq!(recover_one_with_p(&present, &p), data[missing], "missing {missing}");
        }
    }

    #[test]
    fn q_recovers_single_erasure() {
        let mut rng = Rng::new(2);
        let data = random_chunks(&mut rng, 6, 256);
        let q = compute_q(&refs(&data));
        for missing in 0..6 {
            let present: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != missing)
                .map(|(i, c)| (i, c.as_slice()))
                .collect();
            assert_eq!(recover_one_with_q(&present, missing, &q), data[missing], "missing {missing}");
        }
    }

    #[test]
    fn p_and_q_recover_double_erasure() {
        let mut rng = Rng::new(3);
        let data = random_chunks(&mut rng, 10, 128);
        let p = compute_p(&refs(&data));
        let q = compute_q(&refs(&data));
        for x in 0..10 {
            for y in (x + 1)..10 {
                let present: Vec<(usize, &[u8])> = data
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != x && *i != y)
                    .map(|(i, c)| (i, c.as_slice()))
                    .collect();
                let (dx, dy) = recover_two_data(&present, x, y, &p, &q);
                assert_eq!(dx, data[x], "x={x} y={y}");
                assert_eq!(dy, data[y], "x={x} y={y}");
            }
        }
    }

    #[test]
    fn incremental_updates_match_full_recompute() {
        let mut rng = Rng::new(4);
        let mut data = random_chunks(&mut rng, 5, 64);
        let mut p = compute_p(&refs(&data));
        let mut q = compute_q(&refs(&data));
        // Overwrite chunk 2.
        let newc: Vec<u8> = (0..64).map(|_| rng.next_u64() as u8).collect();
        update_p(&mut p, &data[2], &newc);
        update_q(&mut q, 2, &data[2], &newc);
        data[2] = newc;
        assert_eq!(p, compute_p(&refs(&data)));
        assert_eq!(q, compute_q(&refs(&data)));
    }

    #[test]
    fn parity_of_zeros_is_zero() {
        let z = vec![vec![0u8; 32]; 4];
        assert_eq!(compute_p(&refs(&z)), vec![0u8; 32]);
        assert_eq!(compute_q(&refs(&z)), vec![0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn unequal_chunks_panic() {
        let a = vec![0u8; 8];
        let b = vec![0u8; 9];
        compute_p(&[&a, &b]);
    }
}
