//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use ys_simcore::{Bandwidth, Engine, LatencyHisto, Rng, SimDuration, SimTime, Zipf};

proptest! {
    /// Events always pop in non-decreasing time order, whatever the insertion order.
    #[test]
    fn engine_pops_in_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut e: Engine<usize> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime(t), i);
        }
        let mut last = 0u64;
        let mut popped = 0;
        while let Some((t, _)) = e.pop() {
            prop_assert!(t.nanos() >= last);
            last = t.nanos();
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Equal-time events preserve insertion order (FIFO at an instant).
    #[test]
    fn engine_fifo_at_same_instant(n in 1usize..100) {
        let mut e: Engine<usize> = Engine::new();
        for i in 0..n {
            e.schedule_at(SimTime(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    /// Histogram quantile lower-bounds never exceed the recorded max and are
    /// monotone in q.
    #[test]
    fn histogram_quantiles_monotone(samples in proptest::collection::vec(0u64..10_000_000_000, 1..500)) {
        let mut h = LatencyHisto::new();
        let max = *samples.iter().max().unwrap();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut prev = SimDuration::ZERO;
        for (q, v) in [(0.5, h.p50()), (0.99, h.p99())] {
            prop_assert!(v >= prev, "quantile not monotone at q={q}");
            prop_assert!(v.nanos() <= max);
            prev = v;
        }
    }

    /// transfer_time is monotone in bytes and additive within rounding.
    #[test]
    fn bandwidth_monotone_additive(gbps in 1u64..100, a in 0u64..1_000_000_000, b in 0u64..1_000_000_000) {
        let bw = Bandwidth::from_gbit_per_sec(gbps);
        let ta = bw.transfer_time(a);
        let tb = bw.transfer_time(b);
        let tab = bw.transfer_time(a + b);
        prop_assert!(tab >= ta.max(tb));
        // ceil rounding loses at most 1 ns per term
        let sum = ta + tb;
        prop_assert!(sum.nanos() >= tab.nanos());
        prop_assert!(sum.nanos() - tab.nanos() <= 1);
    }

    /// Zipf samples always land in the support.
    #[test]
    fn zipf_in_support(n in 1usize..5000, theta in 0.0f64..2.0, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// next_below respects its bound for arbitrary bounds and seeds.
    #[test]
    fn rng_bound_respected(bound in 1u64..u64::MAX, seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..20 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }
}
