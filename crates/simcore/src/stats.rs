//! Measurement instruments: counters, latency histograms, rate meters, and
//! series tables. Every experiment reports through these so that the bench
//! harness and the tests read identical numbers.

use crate::time::{SimDuration, SimTime};

/// Monotonic event counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    count: u64,
    sum_bytes: u64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// A counter pre-loaded with totals measured elsewhere (importing a
    /// subsystem's native (events, bytes) pair into a registry).
    pub fn of(count: u64, bytes: u64) -> Counter {
        Counter { count, sum_bytes: bytes }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn bytes(&self) -> u64 {
        self.sum_bytes
    }

    /// Activity since `earlier` (a previous snapshot of this counter).
    /// Saturating, so a mismatched pair degrades to zero rather than wrapping.
    pub fn diff(&self, earlier: &Counter) -> Counter {
        Counter {
            count: self.count.saturating_sub(earlier.count),
            sum_bytes: self.sum_bytes.saturating_sub(earlier.sum_bytes),
        }
    }
}

/// Log-bucketed latency histogram.
///
/// Buckets are powers of two of nanoseconds (64 buckets cover 1 ns .. ~584 y)
/// with 16 linear sub-buckets each, giving ≤ 6.25% relative quantile error —
/// plenty for "who wins and by how much" comparisons.
#[derive(Clone, Debug)]
pub struct LatencyHisto {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

const SUB: usize = 16;
const SUB_BITS: u32 = 4;

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    pub fn new() -> LatencyHisto {
        LatencyHisto {
            buckets: vec![0; 64 * SUB],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let log = 63 - ns.leading_zeros();
        let shift = log.saturating_sub(SUB_BITS);
        let sub = ((ns >> shift) as usize) & (SUB - 1);
        ((log - SUB_BITS + 1) as usize) * SUB + sub
    }

    /// Representative (lower-bound) value for a bucket index.
    fn value(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let log = (idx / SUB) as u32 + SUB_BITS - 1;
        let sub = (idx % SUB) as u64;
        (1u64 << log) + (sub << (log - SUB_BITS))
    }

    pub fn record(&mut self, d: SimDuration) {
        let ns = d.nanos();
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.sum_ns / self.count as u128) as u64)
    }

    pub fn max(&self) -> SimDuration {
        SimDuration(if self.count == 0 { 0 } else { self.max_ns })
    }

    /// Quantile in `[0, 1]`; returns the lower bound of the containing
    /// bucket, so reported quantiles never overstate latency.
    fn quantile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration(Self::value(idx));
            }
        }
        SimDuration(self.max_ns)
    }

    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }

    /// Samples recorded since `earlier` (a previous snapshot of this histo).
    /// Buckets only ever add, so the diff is exact bucket-wise subtraction;
    /// `max` keeps the later snapshot's whole-run extreme (per-interval
    /// extremes are not recoverable from log buckets).
    pub fn diff(&self, earlier: &LatencyHisto) -> LatencyHisto {
        let mut out = LatencyHisto::new();
        for (idx, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            out.buckets[idx] = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum_ns = self.sum_ns.saturating_sub(earlier.sum_ns);
        if out.count > 0 {
            out.max_ns = self.max_ns;
        }
        out
    }
}

/// Bytes-over-time rate meter.
#[derive(Clone, Debug, Default)]
pub struct RateMeter {
    bytes: u64,
    ops: u64,
    start: Option<SimTime>,
    end: SimTime,
}

impl RateMeter {
    pub fn new() -> RateMeter {
        RateMeter::default()
    }

    pub fn record(&mut self, at: SimTime, bytes: u64) {
        if self.start.is_none() {
            self.start = Some(at);
        }
        self.bytes += bytes;
        self.ops += 1;
        self.end = self.end.max(at);
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn elapsed(&self) -> SimDuration {
        match self.start {
            Some(s) => self.end.since(s),
            None => SimDuration::ZERO,
        }
    }

    pub fn mb_per_sec(&self) -> f64 {
        crate::time::throughput_mb_per_sec(self.bytes, self.elapsed())
    }

    pub fn gbit_per_sec(&self) -> f64 {
        crate::time::throughput_gbit_per_sec(self.bytes, self.elapsed())
    }

    /// Traffic since `earlier` (a previous snapshot of this meter): bytes and
    /// ops subtract, and the window starts where the earlier snapshot ended.
    pub fn diff(&self, earlier: &RateMeter) -> RateMeter {
        let bytes = self.bytes.saturating_sub(earlier.bytes);
        let ops = self.ops.saturating_sub(earlier.ops);
        if ops == 0 && bytes == 0 {
            return RateMeter::new();
        }
        let start = if earlier.start.is_some() { Some(earlier.end) } else { self.start };
        RateMeter { bytes, ops, start, end: self.end }
    }
}

/// A labelled series of (x, y) points — the exact shape every bench prints.
#[derive(Clone, Debug, Default)]
pub struct Series {
    pub name: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(name: impl Into<String>) -> Series {
        Series { name: name.into(), points: Vec::new() }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Render as the aligned text table used by benches and EXPERIMENTS.md.
    pub fn render(&self, x_label: &str, y_label: &str) -> String {
        let mut out = format!("# {}\n# {:>14}  {:>14}\n", self.name, x_label, y_label);
        for (x, y) in &self.points {
            out.push_str(&format!("  {:>14.4}  {:>14.4}\n", x, y));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histo_index_value_are_consistent() {
        for ns in [0u64, 1, 15, 16, 17, 100, 1000, 123_456, u32::MAX as u64, 1 << 40] {
            let idx = LatencyHisto::index(ns);
            let lo = LatencyHisto::value(idx);
            assert!(lo <= ns, "lower bound {lo} > sample {ns}");
            // next bucket's lower bound must exceed the sample
            if idx + 1 < 64 * SUB {
                let hi = LatencyHisto::value(idx + 1);
                assert!(ns < hi, "sample {ns} >= next bucket {hi}");
            }
        }
    }

    #[test]
    fn histo_quantiles_bracket_truth() {
        let mut h = LatencyHisto::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 100));
        }
        let p50 = h.p50().nanos() as f64;
        let p99 = h.p99().nanos() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.08, "p50 {p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.08, "p99 {p99}");
        assert_eq!(h.max(), SimDuration::from_nanos(1_000_000));
    }

    #[test]
    fn histo_mean_exact() {
        let mut h = LatencyHisto::new();
        h.record(SimDuration::from_nanos(10));
        h.record(SimDuration::from_nanos(30));
        assert_eq!(h.mean(), SimDuration::from_nanos(20));
    }

    #[test]
    fn empty_histo_is_safe() {
        let h = LatencyHisto::new();
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.p99(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
    }

    #[test]
    fn counter_diff_is_interval_activity() {
        let snap = Counter::of(1, 100);
        let c = Counter::of(3, 150);
        let d = c.diff(&snap);
        assert_eq!(d.count(), 2);
        assert_eq!(d.bytes(), 50);
        // diff against a *newer* snapshot saturates instead of wrapping
        let z = snap.diff(&c);
        assert_eq!(z.count(), 0);
    }

    #[test]
    fn histo_diff_recovers_interval_quantiles() {
        let mut h = LatencyHisto::new();
        for i in 1..=100u64 {
            h.record(SimDuration::from_nanos(i));
        }
        let snap = h.clone();
        for _ in 0..1000 {
            h.record(SimDuration::from_nanos(1_000_000));
        }
        let d = h.diff(&snap);
        assert_eq!(d.count(), 1000);
        // the interval contained only 1 ms samples; early fast ones subtract out
        assert!(d.p50().nanos() > 500_000, "p50 {}", d.p50().nanos());
    }

    #[test]
    fn rate_meter_diff_is_interval_traffic() {
        let mut a = RateMeter::new();
        a.record(SimTime(0), 10);
        a.record(SimTime(1_000_000_000), 10);
        let snap = a.clone();
        a.record(SimTime(2_000_000_000), 80);
        let d = a.diff(&snap);
        assert_eq!(d.bytes(), 80);
        assert_eq!(d.elapsed(), SimDuration::from_nanos(1_000_000_000));
        assert_eq!(d.ops(), 1);
        // no traffic since the snapshot: an empty meter
        assert_eq!(a.diff(&a).elapsed(), SimDuration::ZERO);
    }

    #[test]
    fn rate_meter_computes_throughput() {
        let mut r = RateMeter::new();
        r.record(SimTime(0), 0);
        r.record(SimTime(1_000_000_000), 100_000_000);
        assert!((r.mb_per_sec() - 100.0).abs() < 1e-9);
        assert_eq!(r.ops(), 2);
    }

    #[test]
    fn series_renders_header_and_rows() {
        let mut s = Series::new("e1");
        s.push(1.0, 2.5);
        let text = s.render("blades", "gbps");
        assert!(text.contains("# e1"));
        assert!(text.contains("2.5000"));
    }
}
