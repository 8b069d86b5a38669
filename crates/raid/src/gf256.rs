//! GF(2⁸) arithmetic for RAID-6 P+Q parity.
//!
//! Uses the same field as Linux md RAID-6: polynomial x⁸+x⁴+x³+x²+1
//! (0x11d), generator 2. Log/antilog tables are built once at first use.

/// The field's reduction polynomial (without the x⁸ term).
const POLY: u16 = 0x11d;

/// Precomputed log/exp tables.
struct Tables {
    exp: [u8; 512],
    log: [u8; 256],
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        // Duplicate so exp[(a+b) mod 255] lookups can skip the modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Field addition (= subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[t.log[a as usize] as usize + t.log[b as usize] as usize]
}

/// Multiplicative inverse. Panics on zero.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse");
    let t = tables();
    t.exp[255 - t.log[a as usize] as usize]
}

/// Field division. Panics if `b == 0`.
#[inline]
// lint: allow(dead-pub) — (a) GF(256) reference the field test checks mul and inv against
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Generator raised to a power: `2^n` in the field.
#[inline]
pub fn exp2(n: usize) -> u8 {
    tables().exp[n % 255]
}

/// Multiply every byte of `data` by constant `c`, XOR-accumulating into `acc`.
pub fn mul_acc(acc: &mut [u8], data: &[u8], c: u8) {
    assert_eq!(acc.len(), data.len());
    if c == 0 {
        return;
    }
    if c == 1 {
        for (a, d) in acc.iter_mut().zip(data) {
            *a ^= d;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c as usize] as usize;
    for (a, &d) in acc.iter_mut().zip(data) {
        if d != 0 {
            *a ^= t.exp[log_c + t.log[d as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        for &(a, b, c) in &[(3u8, 7u8, 200u8), (255, 254, 253), (2, 4, 8), (19, 83, 121)] {
            assert_eq!(mul(a, b), mul(b, a));
            assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
        }
    }

    #[test]
    fn mul_distributes_over_add() {
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "a={a}");
            assert_eq!(div(mul(a, 77), 77), a);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: powers 0..254 are distinct.
        let mut seen = [false; 256];
        for n in 0..255 {
            let v = exp2(n);
            assert!(!seen[v as usize], "period shorter than 255 at {n}");
            seen[v as usize] = true;
        }
        assert_eq!(exp2(255), exp2(0));
    }

    #[test]
    fn mul_matches_schoolbook() {
        // Carry-less multiply + reduce, as an independent oracle.
        fn slow_mul(mut a: u8, mut b: u8) -> u8 {
            let mut r = 0u8;
            while b != 0 {
                if b & 1 != 0 {
                    r ^= a;
                }
                let hi = a & 0x80 != 0;
                a <<= 1;
                if hi {
                    a ^= (POLY & 0xff) as u8;
                }
                b >>= 1;
            }
            r
        }
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_acc_accumulates() {
        let data = [1u8, 2, 3, 255];
        let mut acc = [0u8; 4];
        mul_acc(&mut acc, &data, 2);
        for (i, &d) in data.iter().enumerate() {
            assert_eq!(acc[i], mul(d, 2));
        }
        // Accumulating the same thing again cancels (characteristic 2).
        mul_acc(&mut acc, &data, 2);
        assert_eq!(acc, [0u8; 4]);
    }
}
