//! Collectors: lift the data-path crates' native statistics into the
//! [`MetricsRegistry`] address space.
//!
//! Naming scheme (see `docs/observability.md`): subsystem matches the crate
//! (`cache`, `virt`, `core`, `geo`, `trace`), the blade scope is the
//! physical index the number belongs to, and names are the `snake_case`
//! field names of the source stats structs. Collection happens at report
//! time from finished state — it reads, never perturbs, the simulation.

use crate::registry::{MetricKey, MetricsRegistry};
use ys_cache::CacheStats;
use ys_core::{BladeCluster, GeoStats, NetStorage};
use ys_simcore::stats::Counter;
use ys_simcore::time::SimTime;

/// Cache-coherence activity: aggregates plus the per-blade breakdown the
/// §6.3 hot-spot analysis needs.
pub(crate) fn collect_cache(reg: &mut MetricsRegistry, stats: &CacheStats) {
    *reg.counter(MetricKey::aggregate("cache", "local_hits")) = Counter::of(stats.local_hits, 0);
    *reg.counter(MetricKey::aggregate("cache", "remote_hits")) = Counter::of(stats.remote_hits, 0);
    *reg.counter(MetricKey::aggregate("cache", "misses")) = Counter::of(stats.misses, 0);
    *reg.counter(MetricKey::aggregate("cache", "invalidations")) = Counter::of(stats.invalidations, 0);
    *reg.counter(MetricKey::aggregate("cache", "evictions")) = Counter::of(stats.evictions, 0);
    *reg.counter(MetricKey::aggregate("cache", "destages")) = Counter::of(stats.destages, 0);
    *reg.counter(MetricKey::aggregate("cache", "replica_placements")) =
        Counter::of(stats.replica_placements, 0);
    let served = stats.local_hits + stats.remote_hits + stats.misses;
    if served > 0 {
        let hits = (stats.local_hits + stats.remote_hits) as f64;
        reg.gauge(MetricKey::aggregate("cache", "hit_ratio"), hits / served as f64);
    }
    for (b, s) in stats.per_blade.iter().enumerate() {
        let b = b as u32;
        *reg.counter(MetricKey::scoped("cache", b, "local_hits")) = Counter::of(s.local_hits, 0);
        *reg.counter(MetricKey::scoped("cache", b, "remote_hits")) = Counter::of(s.remote_hits, 0);
        *reg.counter(MetricKey::scoped("cache", b, "misses")) = Counter::of(s.misses, 0);
        *reg.counter(MetricKey::scoped("cache", b, "invalidations")) = Counter::of(s.invalidations, 0);
        *reg.counter(MetricKey::scoped("cache", b, "evictions")) = Counter::of(s.evictions, 0);
        *reg.counter(MetricKey::scoped("cache", b, "replicas_hosted")) = Counter::of(s.replicas_hosted, 0);
    }
}

/// Everything a single-site cluster can report: request latencies and
/// rates, read sourcing, DMSD pool usage, per-blade CPU and disk-side FC
/// activity measured at `until`.
pub(crate) fn collect_cluster(reg: &mut MetricsRegistry, cluster: &BladeCluster, until: SimTime) {
    let s = &cluster.stats;
    *reg.latency(MetricKey::aggregate("core", "read_latency")) = s.read_latency.clone();
    *reg.latency(MetricKey::aggregate("core", "write_latency")) = s.write_latency.clone();
    *reg.rate(MetricKey::aggregate("core", "read_rate")) = s.read_meter.clone();
    *reg.rate(MetricKey::aggregate("core", "write_rate")) = s.write_meter.clone();
    *reg.counter(MetricKey::aggregate("core", "reads_from_local_cache")) =
        Counter::of(s.reads_from_local_cache, 0);
    *reg.counter(MetricKey::aggregate("core", "reads_from_remote_cache")) =
        Counter::of(s.reads_from_remote_cache, 0);
    *reg.counter(MetricKey::aggregate("core", "reads_from_disk")) = Counter::of(s.reads_from_disk, 0);
    *reg.counter(MetricKey::aggregate("core", "dirty_pages_lost")) = Counter::of(s.dirty_pages_lost, 0);
    *reg.counter(MetricKey::aggregate("core", "dirty_pages_promoted")) =
        Counter::of(s.dirty_pages_promoted, 0);
    *reg.counter(MetricKey::aggregate("core", "prefetches_issued")) = Counter::of(s.prefetches_issued, 0);
    *reg.counter(MetricKey::aggregate("core", "prefetch_hits")) = Counter::of(s.prefetch_hits, 0);
    *reg.counter(MetricKey::aggregate("virt", "pool_used_extents")) =
        Counter::of(cluster.pool_used_extents(), cluster.pool_used_bytes());
    let cpu = cluster.blade_utilizations(until);
    for (b, u) in cpu.iter().enumerate() {
        reg.gauge(MetricKey::scoped("core", b as u32, "cpu_util"), *u);
    }
    for (b, u) in cluster.disk_link_utilizations(until).iter().enumerate() {
        reg.gauge(MetricKey::scoped("core", b as u32, "disk_fc_util"), *u);
    }
    for (b, (msgs, bytes)) in cluster.disk_link_traffic().iter().enumerate() {
        *reg.counter(MetricKey::scoped("core", b as u32, "disk_fc_io")) = Counter::of(*msgs, *bytes);
    }
    // max/mean imbalance over CPU utilization: the §6.3 hot-spot metric.
    if cpu.len() > 1 {
        let mean = cpu.iter().sum::<f64>() / cpu.len() as f64;
        let max = cpu.iter().cloned().fold(0.0f64, f64::max);
        if mean > 0.0 {
            reg.gauge(MetricKey::aggregate("core", "cpu_imbalance"), max / mean);
        }
    }
    collect_cache(reg, cluster.cache.stats());
}

/// Multi-site replication activity (§7).
pub(crate) fn collect_geo(reg: &mut MetricsRegistry, ns: &NetStorage) {
    let s: &GeoStats = &ns.stats;
    *reg.latency(MetricKey::aggregate("geo", "local_read_latency")) = s.local_read_latency.clone();
    *reg.latency(MetricKey::aggregate("geo", "first_reference_latency")) =
        s.remote_first_reference_latency.clone();
    *reg.counter(MetricKey::aggregate("geo", "migrations")) = Counter::of(s.migrations, 0);
    *reg.counter(MetricKey::aggregate("geo", "auto_replications")) = Counter::of(s.auto_replications, 0);
    *reg.counter(MetricKey::aggregate("geo", "sync_replica_writes")) =
        Counter::of(s.sync_replica_writes, 0);
    *reg.counter(MetricKey::aggregate("geo", "async_writes_enqueued")) =
        Counter::of(s.async_writes_enqueued, 0);
    *reg.counter(MetricKey::aggregate("geo", "async_writes_shipped")) =
        Counter::of(s.async_writes_shipped, 0);
    *reg.counter(MetricKey::aggregate("geo", "wan_bytes")) = Counter::of(1, ns.wan_bytes_total());
}

/// Per-tenant QoS activity (`ys-qos`): admission outcomes, achieved
/// latency/throughput, and SLO verdicts, scoped by tenant id.
pub(crate) fn collect_qos(reg: &mut MetricsRegistry, qos: &ys_qos::AdmissionController) {
    for slo in qos.slo_report() {
        let t = slo.tenant;
        let s = &slo.stats;
        *reg.counter(MetricKey::scoped("qos", t, "admitted")) = Counter::of(s.admitted, s.bytes_admitted);
        *reg.counter(MetricKey::scoped("qos", t, "shed")) = Counter::of(s.shed, s.bytes_shed);
        *reg.counter(MetricKey::scoped("qos", t, "throttled")) = Counter::of(s.throttled, 0);
        reg.gauge(MetricKey::scoped("qos", t, "p99_ms"), slo.p99.as_millis_f64());
        reg.gauge(MetricKey::scoped("qos", t, "mb_per_sec"), slo.achieved_mb_per_sec);
        reg.gauge(MetricKey::scoped("qos", t, "slo_met"), if slo.met() { 1.0 } else { 0.0 });
        if let Some(h) = qos.latency(t) {
            *reg.latency(MetricKey::scoped("qos", t, "latency")) = h.clone();
        }
    }
}

/// Surface ring-overflow loss as a first-class metric: a report that
/// silently dropped trace events is a report that lies.
pub(crate) fn record_trace_drops(reg: &mut MetricsRegistry, subsystem: &str, dropped: u64) {
    *reg.counter(MetricKey::aggregate("trace", &format!("{subsystem}_dropped"))) =
        Counter::of(dropped, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_cache::Retention;
    use ys_core::ClusterConfig;

    #[test]
    fn cluster_collection_populates_per_blade_scopes() {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
        let vol = c.create_volume("t", 0, 1 << 30).unwrap();
        let w = c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let r = c.read(w.done, 1, vol, 0, 64 * 1024).unwrap();
        let mut reg = MetricsRegistry::new();
        collect_cluster(&mut reg, &c, r.done);
        assert!(reg.counter_value(&MetricKey::aggregate("virt", "pool_used_extents")) >= 1);
        assert!(reg.gauge_value(&MetricKey::scoped("core", 0, "cpu_util")).is_some());
        let hits: u64 = (0..4)
            .map(|b| {
                reg.counter_value(&MetricKey::scoped("cache", b, "local_hits"))
                    + reg.counter_value(&MetricKey::scoped("cache", b, "remote_hits"))
            })
            .sum();
        assert!(hits >= 1, "the warm read must land in some blade's ledger");
    }

    #[test]
    fn trace_drop_counter_is_its_own_metric() {
        let mut reg = MetricsRegistry::new();
        record_trace_drops(&mut reg, "cache", 7);
        assert_eq!(reg.counter_value(&MetricKey::aggregate("trace", "cache_dropped")), 7);
    }
}
