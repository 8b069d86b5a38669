//! The metric registry: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` at the repo root is this table written out
//! (`spec` prints it; a test holds the two equal), so a metric cannot be
//! emitted without being declared or declared without being emitted.

use crate::ledger;
use crate::workloads::Values;
use std::collections::BTreeMap;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// A metric a user of the simulator sees, with the share of the parent's
/// median by which it may worsen before a change is a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Taken with tracing off, on every workload. The simulated results
/// (`sim.*`) are exact functions of (code, seed) and are checked for
/// identity inside every run instead of being bounded here. The host-time
/// bounds are as wide as the contract allows because the shared box is that
/// noisy: ten runs on ten seeds spread (IQR / median) by 2-5 % in calm
/// minutes and by up to 19 % when a slow minute of the host hits three of
/// them (README, "First numbers").
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "host_ops_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "host_peak_rss_mb", unit: "MB", better: Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Counters read at layer boundaries over a workload's measured phase.
/// Exact: they repeat for a (code, seed). For a plain amount of work the
/// direction is "lower": less work for the same operations.
pub const COUNTS: [PerLayer; 39] = [
    m("cache.local_hits", "count", Higher),
    m("cache.remote_hits", "count", Higher),
    m("cache.misses", "count", Lower),
    m("cache.evictions", "count", Lower),
    m("cache.destages", "count", Lower),
    m("cache.replica_placements", "count", Lower),
    m("cache.heal_placements", "count", Lower),
    m("cache.hit_ratio", "ratio", Higher),
    m("cache.directory_pages", "count", Lower),
    m("core.client_reads", "count", Higher),
    m("core.client_writes", "count", Higher),
    m("core.reads_from_disk", "count", Lower),
    m("core.prefetch_hits", "count", Higher),
    m("core.integrity_errors", "count", Lower),
    m("core.pages_evacuated", "count", Lower),
    m("simdisk.reads", "count", Lower),
    m("simdisk.writes", "count", Lower),
    m("simdisk.bytes_read", "B", Lower),
    m("simdisk.bytes_written", "B", Lower),
    m("simnet.disk_fc_bytes", "B", Lower),
    m("virt.pool_used_extents", "count", Lower),
    m("security.pages_ciphered", "count", Lower),
    m("security.pages_deciphered", "count", Lower),
    m("qos.admitted", "count", Higher),
    m("qos.throttled", "count", Lower),
    m("qos.shed", "count", Lower),
    m("heal.ticks", "count", Lower),
    m("heal.shed_ticks", "count", Lower),
    m("heal.replicas_placed", "count", Higher),
    m("scrub.pages_verified", "count", Higher),
    m("scrub.repaired", "count", Higher),
    m("raid.rebuild_batches", "count", Lower),
    m("chaos.injections_fired", "count", Higher),
    m("chaos.acked_writes", "count", Higher),
    m("chaos.degraded_ops", "count", Lower),
    m("chaos.ops_refused", "count", Lower),
    m("check.states_visited", "count", Higher),
    m("check.transitions", "count", Higher),
    m("check.deduplicated", "count", Higher),
];

/// Simulated results: what the modelled machine did. Exact per (code, seed).
pub const SIM: [PerLayer; 8] = [
    m("sim.mb_per_s", "MB/s", Higher),
    m("sim.p50_us", "us", Lower),
    m("sim.p99_us", "us", Lower),
    m("sim.recover_s", "s", Lower),
    m("sim.final_time_s", "s", Lower),
    m("sim.op_fail_ratio", "ratio", Lower),
    m("chaos.healthy_ops_per_s", "1/s", Higher),
    m("chaos.degraded_ops_per_s", "1/s", Higher),
];

/// From the traced repetition: host self time per call site, per-call
/// percentiles, the span count and what tracing cost.
pub const TRACE: [PerLayer; 18] = [
    m("trace.core_read_self_s", "s", Lower),
    m("trace.core_write_self_s", "s", Lower),
    m("trace.core_drain_self_s", "s", Lower),
    m("trace.proto_next_op_self_s", "s", Lower),
    m("trace.driver_self_s", "s", Lower),
    m("trace.heal_run_self_s", "s", Lower),
    m("trace.scrub_run_self_s", "s", Lower),
    m("trace.rebuild_run_self_s", "s", Lower),
    m("trace.lifecycle_self_s", "s", Lower),
    m("trace.chaos_run_self_s", "s", Lower),
    m("trace.check_run_self_s", "s", Lower),
    m("trace.core_read_p50_ns", "ns", Lower),
    m("trace.core_read_p99_ns", "ns", Lower),
    m("trace.core_write_p50_ns", "ns", Lower),
    m("trace.core_write_p99_ns", "ns", Lower),
    m("trace.heal_tick_p99_ns", "ns", Lower),
    m("trace.spans", "count", Lower),
    m("trace.overhead_ratio", "ratio", Lower),
];

/// Ledger cost × boundary count ÷ measured wall, per layer; the remainder
/// is core glue and whatever only in-program spans can split.
pub const SHARES: [PerLayer; 11] = [
    m("share.proto", "ratio", Lower),
    m("share.simcore", "ratio", Lower),
    m("share.simnet", "ratio", Lower),
    m("share.simdisk", "ratio", Lower),
    m("share.raid", "ratio", Lower),
    m("share.virt", "ratio", Lower),
    m("share.cache", "ratio", Lower),
    m("share.qos", "ratio", Lower),
    m("share.security", "ratio", Lower),
    m("share.check", "ratio", Lower),
    m("share.unattributed", "ratio", Lower),
];

pub const PROCESS: [PerLayer; 2] = [m("process.cpu_s", "s", Lower), m("process.rep_spread", "ratio", Lower)];

/// Every per-layer metric, ledger first.
pub fn per_layer() -> Vec<PerLayer> {
    let ledger = ledger::NAMES.iter().map(|&(name, unit)| m(name, unit, if unit == "MB/s" { Higher } else { Lower }));
    ledger.chain(COUNTS).chain(SIM).chain(TRACE).chain(SHARES).chain(PROCESS).collect()
}

/// The layer shares of one workload: each ledger cost times the number of
/// times the workload's boundary counts say it ran, over the measured wall.
/// The formulas are spelled out in the README next to the share table.
pub fn shares(ledger: &BTreeMap<&str, f64>, counts: &Values, wall_s: f64) -> Vec<(&'static str, f64)> {
    let l = |name: &str| ledger.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let (reads, writes) = (c("core.client_reads"), c("core.client_writes"));
    let pages_read = c("cache.local_hits") + c("cache.remote_hits") + c("cache.misses");
    // Every write the workloads issue is one 64 KiB page.
    let pages_written = writes;
    let from_disk = c("core.reads_from_disk");
    let verified = c("scrub.pages_verified");
    let admissions = c("qos.admitted") + c("qos.shed");
    let placements = c("cache.replica_placements") + c("cache.heal_placements");
    let ns = [
        ("share.proto", l("proto.next_op_ns") * (reads + writes)),
        ("share.simcore", l("simcore.histo_record_ns") * (reads + writes)),
        (
            "share.simnet",
            l("simnet.fabric_send_ns") * (2.0 * reads + writes + c("cache.remote_hits") + placements)
                + l("simnet.link_transfer_ns")
                    * (pages_read + pages_written + c("simdisk.reads") + c("simdisk.writes")),
        ),
        (
            "share.simdisk",
            l("simdisk.submit_verified_ns") * c("simdisk.reads")
                + l("simdisk.submit_ns") * c("simdisk.writes")
                + l("simdisk.page_tag_rw_ns") * (from_disk + pages_written),
        ),
        (
            "share.raid",
            l("raid.read_plan_ns") * (from_disk + verified)
                + l("raid.write_plan_ns") * pages_written
                + l("raid.rebuild_batch_plan_ns") * c("raid.rebuild_batches"),
        ),
        ("share.virt", l("virt.translate_ns") * (from_disk + pages_written + verified) + l("virt.map_ns") * writes),
        (
            "share.cache",
            l("cache.read_local_hit_ns") * c("cache.local_hits")
                + l("cache.read_remote_hit_ns") * c("cache.remote_hits")
                + l("cache.fill_evict_ns") * c("cache.misses")
                + l("cache.write_nway_ns") * pages_written
                + l("cache.destage_ns") * c("cache.destages")
                + l("cache.dirty_ratio_ns") * admissions
                + l("cache.under_target_scan_ns_per_page") * c("cache.directory_pages") * 3.0 * c("heal.ticks"),
        ),
        ("share.qos", l("qos.admit_ns") * admissions + l("qos.complete_ns") * c("qos.admitted")),
        (
            "share.security",
            l("security.page_tag_xor_ns") * (c("security.pages_ciphered") + c("security.pages_deciphered")),
        ),
        ("share.check", (l("check.state_clone_ns") + l("check.canonical_hash_ns")) * c("check.transitions")),
    ];
    let mut out: Vec<(&'static str, f64)> = ns.iter().map(|&(name, ns)| (name, ns / 1e9 / wall_s)).collect();
    let attributed: f64 = out.iter().map(|&(_, s)| s).sum();
    out.push(("share.unattributed", 1.0 - attributed));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_unique_and_inside_the_contract_limits() {
        let layers = per_layer();
        assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
        let mut seen = BTreeSet::new();
        for name in END_TO_END.iter().map(|e| e.name).chain(layers.iter().map(|p| p.name)) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for e in END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        assert!(END_TO_END.iter().any(|e| e.name == "setup_s" && e.unit == "s" && e.better == Lower));
    }

    #[test]
    fn shares_follow_the_counts_and_close_to_one() {
        let ledger: BTreeMap<&str, f64> = [("cache.read_local_hit_ns", 100.0), ("simnet.fabric_send_ns", 50.0)].into();
        let counts: Values = [("cache.local_hits", 1e6), ("core.client_reads", 1e6)].into();
        let s: BTreeMap<_, _> = shares(&ledger, &counts, 1.0).into_iter().collect();
        assert!((s["share.cache"] - 0.1).abs() < 1e-12, "1e6 hits x 100 ns over 1 s");
        assert!((s["share.simnet"] - 0.1).abs() < 1e-12, "2 sends per read x 50 ns");
        assert_eq!(s["share.simdisk"], 0.0);
        assert!((s.values().sum::<f64>() - 1.0).abs() < 1e-12, "unattributed closes the ledger");
        let declared: BTreeSet<_> = SHARES.iter().map(|p| p.name).collect();
        assert_eq!(s.keys().copied().collect::<BTreeSet<_>>(), declared);
    }
}
