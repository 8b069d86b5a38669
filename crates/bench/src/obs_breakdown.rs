//! The `--obs` appendix of the bench report: one instrumented reference
//! run with a metrics registry attached, rendered as per-subsystem and
//! per-blade breakdowns.
//!
//! Kept separate from the experiment bodies so the default report path is
//! byte-identical with observability off — tracing and collection happen
//! only in here.

use crate::collect::{collect_cluster, record_trace_drops};
use crate::registry::{Metric, MetricsRegistry};
use crate::report::Table;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig};
use ys_proto::Workload;
use ys_simcore::time::SimTime;

/// Run a mixed Zipf workload on an instrumented cluster and render the
/// registry grouped by subsystem, plus the per-blade ledger.
pub fn breakdown() -> String {
    const OPS: usize = 1200;
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
    c.enable_tracing();
    let vol = c.create_volume("obs", 0, 4 << 30).expect("volume");
    let mut wl = Workload::zipf(1 << 30, 64 * 1024, 1.0, 0.3, 7);
    let mut t = SimTime::ZERO;
    for i in 0..OPS {
        let op = wl.next_op();
        let done = if op.write {
            c.write(t, i % 8, vol, op.offset, op.len, 2, Retention::Normal).expect("write")
        } else {
            c.read(t, i % 8, vol, op.offset, op.len).expect("read")
        };
        t = done.done;
    }
    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &c, t);
    let (events, dropped) = c.take_trace();
    record_trace_drops(&mut reg, "cluster", dropped);

    let mut out = String::from("================================================================\n");
    out.push_str("OBS per-subsystem breakdown (reference run: Zipf 1.0, 1200 ops, 30% writes)\n");
    out.push_str("================================================================\n");
    let mut agg = Table::new("aggregate metrics by subsystem", &["metric", "kind", "value"]);
    for (key, metric) in reg.iter() {
        if key.blade.is_some() {
            continue;
        }
        let (kind, value) = match metric {
            Metric::Counter(c) => (
                "counter",
                if c.bytes() > 0 { format!("{} ({} B)", c.count(), c.bytes()) } else { c.count().to_string() },
            ),
            Metric::Rate(r) => ("rate", format!("{:.2} MB/s", r.mb_per_sec())),
            Metric::Latency(h) => (
                "latency",
                format!("p50 {:.0}us p99 {:.0}us n={}", h.p50().as_micros_f64(), h.p99().as_micros_f64(), h.count()),
            ),
            Metric::Gauge(v) => ("gauge", format!("{v:.3}")),
        };
        agg.row(vec![key.dotted(), kind.to_string(), value]);
    }
    out.push_str(&agg.render());
    out.push('\n');
    let mut per_blade = Table::new(
        "per-blade ledger",
        &["blade", "local hits", "remote hits", "misses", "evictions", "cpu util"],
    );
    for b in 0..4u32 {
        use crate::registry::MetricKey;
        per_blade.row(vec![
            b.to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "local_hits")).to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "remote_hits")).to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "misses")).to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "evictions")).to_string(),
            format!("{:.3}", reg.gauge_value(&MetricKey::scoped("core", b, "cpu_util")).unwrap_or(0.0)),
        ]);
    }
    out.push_str(&per_blade.render());
    out.push_str(&format!("\ntrace: {} events captured, {} dropped\n", events.len(), dropped));
    out.push('\n');
    out.push_str(&qos_chargeback());
    out
}

/// A two-tenant run with `ys-qos` admission control on, rendered as the
/// per-tenant chargeback ledger: QoS class x provisioned/actual capacity,
/// plus how often the policy throttled or shed each tenant.
fn qos_chargeback() -> String {
    use ys_qos::{QosClass, QosConfig, TenantSpec};
    const PAGE: u64 = ys_core::PAGE_BYTES;
    let policy = QosConfig::new()
        .with_tenant(TenantSpec::new(1, "prod", QosClass::Premium))
        .with_tenant(
            TenantSpec::new(2, "batch", QosClass::Scavenger)
                .rate_mb_per_sec(8)
                .burst_bytes(512 * 1024),
        );
    let mut c = BladeCluster::new(
        ClusterConfig::default().with_blades(2).with_disks(8).with_qos(policy),
    );
    let prod = c.create_volume("prod", 1, 1 << 30).expect("volume");
    let batch = c.create_volume("batch", 2, 2 << 30).expect("volume");
    let mut t = SimTime::ZERO;
    for i in 0..200u64 {
        if let Ok(d) = c.write_as(t, 1, 0, prod, (i % 64) * PAGE, PAGE, 2, Retention::Normal) {
            t = d.done;
        }
        // The batch tenant pushes 4x its token rate: part throttled, part shed.
        let _ = c.write_as(t, 2, 1, batch, (i % 64) * 4 * PAGE, 4 * PAGE, 2, Retention::Normal);
    }
    let mut table = Table::new(
        "per-tenant QoS chargeback (2 tenants, scavenger pushing 4x its token rate)",
        &["tenant", "class", "provisioned MiB", "actual MiB", "throttled", "shed"],
    );
    for line in c.chargeback() {
        table.row(vec![
            line.tenant.to_string(),
            QosClass::from_id(line.qos_class).map(|q| q.name()).unwrap_or("-").to_string(),
            (line.provisioned_bytes >> 20).to_string(),
            (line.actual_bytes >> 20).to_string(),
            line.throttled_requests.to_string(),
            line.shed_requests.to_string(),
        ]);
    }
    let mut out = table.render();
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn breakdown_renders_subsystem_and_blade_tables() {
        let text = super::breakdown();
        assert!(text.contains("aggregate metrics by subsystem"));
        assert!(text.contains("per-blade ledger"));
        assert!(text.contains("cache.hit_ratio"));
        assert!(text.contains("trace:"));
    }

    #[test]
    fn chargeback_table_shows_class_and_shed_counts() {
        let text = super::qos_chargeback();
        assert!(text.contains("per-tenant QoS chargeback"));
        assert!(text.contains("premium"));
        assert!(text.contains("scavenger"));
        // The overdriven batch tenant must show policed requests.
        let batch_row = text.lines().find(|l| l.trim_start().starts_with("2 ")).expect("batch row");
        let cols: Vec<&str> = batch_row.split_whitespace().collect();
        let throttled: u64 = cols[cols.len() - 2].parse().expect("throttled");
        let shed: u64 = cols[cols.len() - 1].parse().expect("shed");
        assert!(throttled + shed > 0, "batch tenant was policed: {batch_row}");
    }
}
