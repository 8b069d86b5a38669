//! Deterministic workload generators for the experiments: sequential
//! streams, uniform random I/O, Zipf "hot data" skew (§2's locality
//! problem), and read/write mixes, with Poisson or closed-loop arrivals.

use ys_simcore::rng::{Rng, Zipf};
use ys_simcore::time::SimDuration;

/// One generated I/O.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IoOp {
    /// Gap since the previous op (open-loop arrival spacing); ZERO for
    /// closed-loop workloads where the client waits for completions.
    pub think: SimDuration,
    pub write: bool,
    pub offset: u64,
    pub len: u64,
}

/// Address-pattern component of a workload.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// Sequential from `start`, wrapping at `extent`.
    Sequential { start: u64 },
    /// Uniform over the extent.
    Random,
    /// Zipf over `working_set` block-sized items; rank 0 hottest.
    Zipf { sampler: Zipf },
}

/// A workload generator: pattern + size + mix + arrival process.
#[derive(Clone, Debug)]
pub struct Workload {
    pattern: Pattern,
    /// Addressable bytes.
    extent: u64,
    /// I/O size in bytes.
    io_bytes: u64,
    /// Fraction of writes in [0, 1].
    write_fraction: f64,
    /// Mean think time between ops (exponential); ZERO = closed loop.
    mean_think: SimDuration,
    rng: Rng,
    cursor: u64,
}

impl Workload {
    pub fn random(extent: u64, io_bytes: u64, write_fraction: f64, seed: u64) -> Workload {
        Workload::new(Pattern::Random, extent, io_bytes, write_fraction, SimDuration::ZERO, seed)
    }

    /// Zipf hot-spot workload over `extent / io_bytes` items.
    pub fn zipf(extent: u64, io_bytes: u64, theta: f64, write_fraction: f64, seed: u64) -> Workload {
        let items = (extent / io_bytes).max(1) as usize;
        Workload::new(
            Pattern::Zipf { sampler: Zipf::new(items, theta) },
            extent,
            io_bytes,
            write_fraction,
            SimDuration::ZERO,
            seed,
        )
    }

    fn new(
        pattern: Pattern,
        extent: u64,
        io_bytes: u64,
        write_fraction: f64,
        mean_think: SimDuration,
        seed: u64,
    ) -> Workload {
        assert!(io_bytes > 0 && extent >= io_bytes, "extent must hold at least one I/O");
        assert!((0.0..=1.0).contains(&write_fraction));
        let cursor = match &pattern {
            Pattern::Sequential { start } => *start,
            _ => 0,
        };
        Workload { pattern, extent, io_bytes, write_fraction, mean_think, rng: Rng::new(seed), cursor }
    }

    /// Generate the next op.
    pub fn next_op(&mut self) -> IoOp {
        let blocks = self.extent / self.io_bytes;
        let offset = match &self.pattern {
            Pattern::Sequential { .. } => {
                let o = self.cursor;
                self.cursor = (self.cursor + self.io_bytes) % (blocks * self.io_bytes);
                o
            }
            Pattern::Random => self.rng.next_below(blocks) * self.io_bytes,
            Pattern::Zipf { sampler } => sampler.sample(&mut self.rng) as u64 * self.io_bytes,
        };
        let write = self.rng.chance(self.write_fraction);
        let think = if self.mean_think.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(self.rng.exponential(self.mean_think.as_secs_f64()))
        };
        IoOp { think, write, offset, len: self.io_bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(w: &mut Workload, n: usize) -> Vec<IoOp> {
        (0..n).map(|_| w.next_op()).collect()
    }

    #[test]
    fn sequential_walks_contiguously_and_wraps() {
        let mut w = Workload::new(Pattern::Sequential { start: 0 }, 4 * 4096, 4096, 0.0, SimDuration::ZERO, 1);
        let ops = take(&mut w, 6);
        let offsets: Vec<u64> = ops.iter().map(|o| o.offset).collect();
        assert_eq!(offsets, vec![0, 4096, 8192, 12288, 0, 4096]);
        assert!(ops.iter().all(|o| !o.write));
    }

    #[test]
    fn random_stays_in_extent_and_aligned() {
        let mut w = Workload::random(1 << 30, 64 * 1024, 0.3, 7);
        for op in take(&mut w, 10_000) {
            assert!(op.offset + op.len <= 1 << 30);
            assert_eq!(op.offset % (64 * 1024), 0);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut w = Workload::random(1 << 30, 4096, 0.25, 11);
        let writes = take(&mut w, 100_000).iter().filter(|o| o.write).count();
        let frac = writes as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn zipf_workload_is_skewed() {
        let mut w = Workload::zipf(1000 * 4096, 4096, 0.99, 0.0, 13);
        let mut counts = std::collections::HashMap::new();
        for op in take(&mut w, 50_000) {
            *counts.entry(op.offset).or_insert(0u32) += 1;
        }
        let top: u32 = counts.values().copied().max().unwrap();
        assert!(top > 1500, "hottest block should dominate, got {top}");
    }

    #[test]
    fn same_seed_reproduces_identical_traces() {
        let mut a = Workload::zipf(1 << 24, 4096, 0.9, 0.5, 42);
        let mut b = Workload::zipf(1 << 24, 4096, 0.9, 0.5, 42);
        assert_eq!(take(&mut a, 1000), take(&mut b, 1000));
    }

    #[test]
    fn think_time_has_requested_mean() {
        let mut w = Workload::new(Pattern::Random, 1 << 20, 4096, 0.0, SimDuration::from_millis(10), 17);
        let ops = take(&mut w, 50_000);
        let mean_ns: f64 = ops.iter().map(|o| o.think.nanos() as f64).sum::<f64>() / ops.len() as f64;
        assert!((mean_ns / 1e7 - 1.0).abs() < 0.05, "mean think {mean_ns} ns");
    }
}
