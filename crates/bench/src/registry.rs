//! Hierarchical metrics registry.
//!
//! Every measurement in the system is addressable as
//! `(subsystem, blade, name)` — `blade` is `None` for cluster-wide
//! aggregates and `Some(i)` for per-blade (or per-site, per-worker,
//! per-port; any lane-like index) scopes. The value types wrap the
//! `ys_simcore::stats` primitives so registries diff the same way the
//! primitives do: [`MetricsRegistry::diff`] recovers interval activity
//! between two snapshots, and [`MetricsRegistry::to_json`] renders a
//! deterministic (BTreeMap-ordered) export for tooling.

use std::collections::BTreeMap;
use ys_simcore::stats::{Counter, LatencyHisto, RateMeter};

/// Fully qualified metric address.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    pub(crate) subsystem: String,
    /// `None` = aggregate; `Some(i)` = scoped to blade/site/worker `i`.
    pub(crate) blade: Option<u32>,
    pub(crate) name: String,
}

impl MetricKey {
    pub fn aggregate(subsystem: &str, name: &str) -> MetricKey {
        MetricKey { subsystem: subsystem.to_string(), blade: None, name: name.to_string() }
    }

    pub(crate) fn scoped(subsystem: &str, blade: u32, name: &str) -> MetricKey {
        MetricKey { subsystem: subsystem.to_string(), blade: Some(blade), name: name.to_string() }
    }

    /// Dotted render: `cache.blade3.local_hits` / `core.read_gbps`.
    pub(crate) fn dotted(&self) -> String {
        match self.blade {
            Some(b) => format!("{}.blade{}.{}", self.subsystem, b, self.name),
            None => format!("{}.{}", self.subsystem, self.name),
        }
    }
}

/// One metric value.
#[derive(Clone, Debug)]
pub(crate) enum Metric {
    /// Monotone occurrence/byte counter.
    Counter(Counter),
    /// Throughput over a simulated window.
    Rate(RateMeter),
    /// Latency distribution.
    Latency(LatencyHisto),
    /// Point-in-time level (utilization, ratio, progress).
    Gauge(f64),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Rate(_) => "rate",
            Metric::Latency(_) => "latency",
            Metric::Gauge(_) => "gauge",
        }
    }
}

/// The registry: a sorted map from [`MetricKey`] to its metric value.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<MetricKey, Metric>,
}

impl MetricsRegistry {
    pub(crate) fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Counter at `key`, created zeroed on first touch.
    ///
    /// # Panics
    /// If the key already holds a different metric kind — metric names are
    /// typed, and reusing one across kinds is a programming error.
    pub(crate) fn counter(&mut self, key: MetricKey) -> &mut Counter {
        match self.metrics.entry(key).or_insert_with(|| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric kind mismatch: wanted counter, found {}", other.kind()),
        }
    }

    /// Rate meter at `key`, created empty on first touch.
    pub(crate) fn rate(&mut self, key: MetricKey) -> &mut RateMeter {
        match self.metrics.entry(key).or_insert_with(|| Metric::Rate(RateMeter::new())) {
            Metric::Rate(r) => r,
            other => panic!("metric kind mismatch: wanted rate, found {}", other.kind()),
        }
    }

    /// Latency histogram at `key`, created empty on first touch.
    pub(crate) fn latency(&mut self, key: MetricKey) -> &mut LatencyHisto {
        match self.metrics.entry(key).or_insert_with(|| Metric::Latency(LatencyHisto::new())) {
            Metric::Latency(h) => h,
            other => panic!("metric kind mismatch: wanted latency, found {}", other.kind()),
        }
    }

    /// Set a gauge level (overwrites).
    pub(crate) fn gauge(&mut self, key: MetricKey, value: f64) {
        self.metrics.insert(key, Metric::Gauge(value));
    }

    /// Gauge value at `key`, if present and a gauge.
    pub fn gauge_value(&self, key: &MetricKey) -> Option<f64> {
        match self.metrics.get(key) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Counter count at `key` (0 when absent).
    pub(crate) fn counter_value(&self, key: &MetricKey) -> u64 {
        match self.metrics.get(key) {
            Some(Metric::Counter(c)) => c.count(),
            _ => 0,
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&MetricKey, &Metric)> {
        self.metrics.iter()
    }

    /// A point-in-time copy, for later [`MetricsRegistry::diff`].
    // lint: allow(dead-pub) — (d) ROADMAP item 13's flight recorder diffs the registry at each checkpoint
    pub fn snapshot(&self) -> MetricsRegistry {
        self.clone()
    }

    /// Activity between `earlier` and `self` (both snapshots of the same
    /// registry): counters/rates/histograms subtract saturating; gauges
    /// keep the later level. Keys unique to `self` pass through whole.
    // lint: allow(dead-pub) — (d) ROADMAP item 13's flight recorder diffs the registry at each checkpoint
    pub fn diff(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (key, now) in &self.metrics {
            let m = match (now, earlier.metrics.get(key)) {
                (Metric::Counter(a), Some(Metric::Counter(b))) => Metric::Counter(a.diff(b)),
                (Metric::Rate(a), Some(Metric::Rate(b))) => Metric::Rate(a.diff(b)),
                (Metric::Latency(a), Some(Metric::Latency(b))) => Metric::Latency(a.diff(b)),
                (now, _) => now.clone(),
            };
            out.metrics.insert(key.clone(), m);
        }
        out
    }

    /// Deterministic JSON export: one object per metric, sorted by key.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, (key, metric)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"subsystem\":\"");
            out.push_str(&escape(&key.subsystem));
            out.push('"');
            if let Some(b) = key.blade {
                out.push_str(&format!(",\"blade\":{b}"));
            }
            out.push_str(",\"name\":\"");
            out.push_str(&escape(&key.name));
            out.push_str("\",\"kind\":\"");
            out.push_str(metric.kind());
            out.push('"');
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(",\"count\":{},\"bytes\":{}", c.count(), c.bytes()));
                }
                Metric::Rate(r) => {
                    out.push_str(&format!(
                        ",\"ops\":{},\"bytes\":{},\"gbit_per_sec\":{}",
                        r.ops(),
                        r.bytes(),
                        fmt_f64(r.gbit_per_sec())
                    ));
                }
                Metric::Latency(h) => {
                    out.push_str(&format!(
                        ",\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"max_us\":{}",
                        h.count(),
                        fmt_f64(h.mean().as_micros_f64()),
                        fmt_f64(h.p50().as_micros_f64()),
                        fmt_f64(h.p99().as_micros_f64()),
                        fmt_f64(h.max().as_micros_f64())
                    ));
                }
                Metric::Gauge(v) => {
                    out.push_str(&format!(",\"value\":{}", fmt_f64(*v)));
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Finite, JSON-legal float rendering (NaN/inf become null).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_simcore::time::SimDuration;

    /// One more event of `bytes` on the counter at `key`.
    fn record(reg: &mut MetricsRegistry, key: MetricKey, bytes: u64) {
        let c = reg.counter(key);
        *c = Counter::of(c.count() + 1, c.bytes() + bytes);
    }

    fn get<'a>(reg: &'a MetricsRegistry, key: &MetricKey) -> Option<&'a Metric> {
        reg.iter().find(|(k, _)| *k == key).map(|(_, m)| m)
    }

    #[test]
    fn snapshot_then_diff_recovers_interval() {
        let mut reg = MetricsRegistry::new();
        record(&mut reg, MetricKey::aggregate("cache", "misses"), 100);
        reg.latency(MetricKey::aggregate("core", "read_latency"))
            .record(SimDuration::from_micros(50));
        let before = reg.snapshot();
        record(&mut reg, MetricKey::aggregate("cache", "misses"), 40);
        record(&mut reg, MetricKey::aggregate("cache", "misses"), 60);
        reg.latency(MetricKey::aggregate("core", "read_latency"))
            .record(SimDuration::from_micros(500));
        let delta = reg.diff(&before);
        match get(&delta, &MetricKey::aggregate("cache", "misses")) {
            Some(Metric::Counter(c)) => {
                assert_eq!(c.count(), 2, "two new events in the interval");
                assert_eq!(c.bytes(), 100);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match get(&delta, &MetricKey::aggregate("core", "read_latency")) {
            Some(Metric::Latency(h)) => {
                assert_eq!(h.count(), 1);
                assert!(h.mean() >= SimDuration::from_micros(400), "interval mean excludes the old sample");
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn diff_passes_through_new_keys() {
        let empty = MetricsRegistry::new();
        let mut reg = MetricsRegistry::new();
        record(&mut reg, MetricKey::aggregate("geo", "shipped"), 10);
        let delta = reg.diff(&empty);
        assert_eq!(delta.counter_value(&MetricKey::aggregate("geo", "shipped")), 1);
    }

    #[test]
    fn json_export_is_sorted_and_parses() {
        let mut reg = MetricsRegistry::new();
        reg.gauge(MetricKey::scoped("core", 2, "cpu_util"), 0.5);
        record(&mut reg, MetricKey::aggregate("cache", "misses"), 0);
        reg.latency(MetricKey::aggregate("core", "read_latency"))
            .record(SimDuration::from_micros(100));
        let text = reg.to_json();
        let v = serde_json::parse_value(&text).expect("valid JSON");
        let metrics = match v.get("metrics") {
            Some(serde_json::Value::Arr(a)) => a,
            other => panic!("metrics not an array: {other:?}"),
        };
        assert_eq!(metrics.len(), 3);
        // BTreeMap order: cache < core.
        assert_eq!(metrics[0].get("subsystem").and_then(|s| s.as_str()), Some("cache"));
        assert_eq!(metrics[0].get("kind").and_then(|s| s.as_str()), Some("counter"));
    }

    #[test]
    fn dotted_names() {
        assert_eq!(MetricKey::scoped("cache", 3, "local_hits").dotted(), "cache.blade3.local_hits");
        assert_eq!(MetricKey::aggregate("core", "read_gbps").dotted(), "core.read_gbps");
    }
}
