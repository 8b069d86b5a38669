//! Deterministic random numbers and the workload distributions the
//! experiments need (uniform, exponential, Zipf, log-normal).
//!
//! We carry our own small PRNG (xoshiro256++ seeded via SplitMix64) rather
//! than depending on `rand`'s generator internals, so that experiment
//! reproducibility does not hinge on a dependency's stream stability. The
//! `rand` crate is still used elsewhere in the workspace where trait
//! plumbing is convenient.

/// xoshiro256++ PRNG. Fast, high quality, and trivially seedable.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed, expanded via SplitMix64 as the
    /// xoshiro authors recommend.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`. Uses Lemire's multiply-shift with rejection.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform float in `[0, 1)` with 53-bit resolution.
    #[inline]
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0);
        // Avoid ln(0) by mapping u=0 to the smallest positive.
        let u = self.f64().max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Log-normally distributed value with parameters `mu`, `sigma` of the
    /// underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Standard normal via Box–Muller (single value; we discard the pair's
    /// sibling for simplicity and statelessness).
    fn standard_normal(&mut self) -> f64 {
        let u1 = self.f64().max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Pick a uniformly random element.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty());
        &items[self.next_below(items.len() as u64) as usize]
    }
}

/// Zipf-distributed sampler over ranks `0..n` with skew `theta`.
///
/// `theta = 0` degenerates to uniform; `theta ≈ 0.99` is the classic
/// "hot data" skew the paper's §2 invokes. Sampling is by binary search in a
/// precomputed CDF: exact, O(log n) per draw, O(n) setup.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(theta >= 0.0, "theta must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Draw a rank in `0..n`; rank 0 is the hottest item.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(5);
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(11);
        let n = 200_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.05 * mean, "observed {observed}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = Rng::new(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = Rng::new(17);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "uniform spread violated: {min}..{max}");
    }

    #[test]
    fn zipf_is_skewed_when_theta_high() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(19);
        let mut hot = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // Top-1% of items should draw far more than 1% of accesses.
        assert!(hot as f64 / n as f64 > 0.25, "hot fraction {}", hot as f64 / n as f64);
    }

    #[test]
    fn zipf_rank_ordering_holds() {
        let z = Zipf::new(50, 1.2);
        let mut rng = Rng::new(23);
        let mut counts = [0u32; 50];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[40]);
    }
}
