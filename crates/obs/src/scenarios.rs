//! Named observability scenarios: each one drives a subsystem the way the
//! paper describes it, collects the registry + structured trace, and checks
//! the paper's quantitative claims as [`Checkpoint`]s.

use crate::collect::{collect_cluster, collect_geo, collect_qos, record_trace_drops};
use crate::registry::{MetricKey, MetricsRegistry};
use crate::report::{f2, f3, Checkpoint, RunReport, Table};
use ys_cache::Retention;
use ys_core::fastpath::{deliver_stream, deliver_stream_traced};
use ys_core::{
    BladeCluster, BlockTarget, ClusterConfig, EncryptionConfig, FastPathConfig, LoadBalance,
    NetStorage, NetStorageConfig, Rebuilder,
};
use ys_geo::SiteId;
use ys_pfs::{FilePolicy, GeoPolicy};
use ys_proto::{block, BlockCmd, BlockStatus, Workload};
use ys_security::{InitiatorId, PortZone};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_simdisk::DiskId;

/// Ring capacity used by every scenario (per subsystem ring).
const TRACE_CAPACITY: usize = 8192;

/// `(name, what it demonstrates)` for every scenario.
pub const SCENARIOS: &[(&str, &str)] = &[
    ("stripe4x2", "Figure 1 fast path: 4 blades x 2 FC ports deliver a ~10 Gb/s stream (§2.3, §8)"),
    ("hotspot", "hot-data skew over the load-balanced cache pool vs pinned islands (§2.2, §6.3)"),
    ("nway", "N-way dirty replication survives N-1 blade failures (§6.1)"),
    ("rebuild", "distributed RAID rebuild scales with worker blades (§2.4, §6.3)"),
    ("georep", "sync vs async geographic replication and the async loss window (§7)"),
    ("noisy-neighbor", "ys-qos admission control isolates a premium tenant from a scavenger flood"),
    ("rolling-restart", "ys-heal rolling maintenance: drain + rejoin every blade under premium load with zero loss, bounded p99 impact, and health returning to Healthy"),
    ("bitrot-scrub", "ys-scrub background pass repairs latent rot under foreground load inside the Scavenger isolation bound"),
    ("crash-nway", "ys-chaos campaign: blade crashes at adversarial instants recover clean; a deliberate N-failure shrinks to a replayable counterexample (§6.1)"),
    ("partition-heal", "ys-chaos campaign: WAN trunks cut mid-geo-ship heal gapless — the async backlog drains with no prefix gap (§7)"),
    ("secure-tenants", "E2 secure multi-tenant pool: zoning + LUN masking deny every cross-tenant frame, denials audited, media bytes are ciphertext (§5)"),
    ("wire-speed-crypt", "E11 wire-speed encryption: the hardware-assist cipher streams within 5% of crypt-off while software crypt measurably degrades (§5.1)"),
];

/// Run a scenario by name; `None` for an unknown name.
pub fn run(name: &str) -> Option<RunReport> {
    match name {
        "stripe4x2" => Some(stripe4x2()),
        "hotspot" => Some(hotspot()),
        "nway" => Some(nway()),
        "rebuild" => Some(rebuild()),
        "georep" => Some(georep()),
        "noisy-neighbor" => Some(noisy_neighbor()),
        "rolling-restart" => Some(rolling_restart()),
        "bitrot-scrub" => Some(bitrot_scrub()),
        "crash-nway" => Some(crash_nway()),
        "partition-heal" => Some(partition_heal()),
        "secure-tenants" => Some(secure_tenants()),
        "wire-speed-crypt" => Some(wire_speed_crypt()),
        _ => None,
    }
}

/// §2.3 / §8: the striped stream of Figure 1, swept over blade counts, with
/// the 4-blade headline run traced per FC port.
fn stripe4x2() -> RunReport {
    const OBJECT: u64 = 1 << 30;
    let mut reg = MetricsRegistry::new();
    let mut sweep = Table::new(
        "aggregate stream rate vs blade count (1 GiB object, 2 FC ports/blade)",
        &["blades", "Gb/s", "bus util", "port util"],
    );
    let mut rates = Vec::new();
    for k in [1usize, 2, 4, 8] {
        let cfg = FastPathConfig { blades: k, ..FastPathConfig::default() };
        let r = deliver_stream(&cfg, OBJECT);
        sweep.row(vec![
            k.to_string(),
            f2(r.gbit_per_sec),
            f3(r.bus_utilization),
            f3(r.port_utilization),
        ]);
        reg.gauge(MetricKey::aggregate("fastpath", &format!("gbps_{k}_blades")), r.gbit_per_sec);
        rates.push(r.gbit_per_sec);
    }
    // The headline configuration, traced.
    let (r4, events, dropped) = deliver_stream_traced(&FastPathConfig::default(), OBJECT, TRACE_CAPACITY);
    reg.gauge(MetricKey::aggregate("fastpath", "bus_util"), r4.bus_utilization);
    reg.gauge(MetricKey::aggregate("fastpath", "port_util"), r4.port_utilization);
    record_trace_drops(&mut reg, "fastpath", dropped);

    // Per-blade table straight from the trace: lane 2b+p is blade b port p;
    // 1000 the PCI-X bus; 1001 the 10 GbE port.
    let mut per_blade = Table::new(
        "per-blade FC feed (4 blades x 2 ports, from the trace)",
        &["stage", "transfers", "MiB", "busy ms", "Gb/s"],
    );
    let ports = FastPathConfig::default().fc_ports_per_blade as u32;
    let mut stage =
        |label: String, pred: &dyn Fn(u32) -> bool, reg: &mut MetricsRegistry, scope: Option<u32>| {
            let mut n = 0u64;
            let mut bytes = 0u64;
            let mut busy_ns = 0u64;
            for e in events.iter().filter(|e| pred(e.lane)) {
                n += 1;
                bytes += e.a;
                busy_ns += e.dur.nanos();
            }
            let gbps = if busy_ns > 0 { bytes as f64 * 8.0 / busy_ns as f64 } else { 0.0 };
            per_blade.row(vec![
                label,
                n.to_string(),
                (bytes >> 20).to_string(),
                f2(busy_ns as f64 / 1e6),
                f2(gbps),
            ]);
            if let Some(b) = scope {
                *reg.counter(MetricKey::scoped("fastpath", b, "fc_io")) =
                    ys_simcore::stats::Counter::of(n, bytes);
            }
        };
    for b in 0..4u32 {
        stage(format!("blade {b}"), &|lane| lane < 1000 && lane / ports == b, &mut reg, Some(b));
    }
    stage("PCI-X bus".to_string(), &|lane| lane == 1000, &mut reg, None);
    stage("10GbE port".to_string(), &|lane| lane == 1001, &mut reg, None);

    let checkpoints = vec![
        Checkpoint {
            claim: "§2.3/§8: four blades over two FC ports each sustain ~10 Gb/s",
            metric: "fastpath.gbps_4_blades".into(),
            observed: f2(rates[2]),
            target: "> 9.0".into(),
            pass: rates[2] > 9.0,
        },
        Checkpoint {
            claim: "§2.3: striping scales — two blades nearly double one",
            metric: "fastpath.gbps_2_blades / gbps_1_blades".into(),
            observed: f2(rates[1] / rates[0]),
            target: "> 1.8".into(),
            pass: rates[1] / rates[0] > 1.8,
        },
        Checkpoint {
            claim: "§2.3: the 10 GbE port is the saturated stage at 4 blades",
            metric: "fastpath.port_util".into(),
            observed: f3(r4.port_utilization),
            target: "> 0.9".into(),
            pass: r4.port_utilization > 0.9,
        },
    ];
    RunReport { scenario: "stripe4x2", tables: vec![sweep, per_blade], checkpoints, registry: reg, events, dropped }
}

/// §2.2 / §6.3: Zipf-skewed access over the pooled coherent cache, with the
/// pinned-islands ablation for contrast.
fn hotspot() -> RunReport {
    const EXTENT: u64 = 2 << 30;
    const IO: u64 = 64 * 1024;
    const OPS: usize = 2500;

    let run_one = |lb: LoadBalance, trace: bool| -> (BladeCluster, SimTime, Vec<ys_simcore::SpanEvent>, u64) {
        let cfg = ClusterConfig::default().with_blades(4).with_disks(8).with_load_balance(lb);
        let mut c = BladeCluster::new(cfg);
        if trace {
            c.enable_tracing(TRACE_CAPACITY);
        }
        let vol = c.create_volume("hot", 0, 4 << 30).expect("volume");
        let mut wl = Workload::zipf(EXTENT, IO, 1.1, 0.3, 42);
        let mut t = SimTime::ZERO;
        for i in 0..OPS {
            let op = wl.next_op();
            let client = i % 8;
            let done = if op.write {
                c.write(t, client, vol, op.offset, op.len, 2, Retention::Normal).expect("write")
            } else {
                c.read(t, client, vol, op.offset, op.len).expect("read")
            };
            t = done.done;
        }
        let (ev, dropped) = c.take_trace();
        (c, t, ev, dropped)
    };

    let (pooled, t_pooled, events, dropped) = run_one(LoadBalance::RoundRobin, true);
    let (pinned, t_pinned, _, _) = run_one(LoadBalance::PinnedByVolume, false);

    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &pooled, t_pooled);
    record_trace_drops(&mut reg, "cluster", dropped);
    let hit_ratio = reg.gauge_value(&MetricKey::aggregate("cache", "hit_ratio")).unwrap_or(0.0);
    let pooled_imb = reg.gauge_value(&MetricKey::aggregate("core", "cpu_imbalance")).unwrap_or(f64::MAX);
    let pinned_utils = pinned.blade_utilizations(t_pinned);
    let pinned_mean = pinned_utils.iter().sum::<f64>() / pinned_utils.len() as f64;
    let pinned_imb = if pinned_mean > 0.0 {
        pinned_utils.iter().cloned().fold(0.0f64, f64::max) / pinned_mean
    } else {
        f64::MAX
    };
    reg.gauge(MetricKey::aggregate("core", "cpu_imbalance_pinned"), pinned_imb);

    let mut table = Table::new(
        "Zipf(1.1) skew, 2500 ops, 30% writes — pooled cache vs pinned islands",
        &["metric", "pooled (RR)", "pinned"],
    );
    table.row(vec!["cache hit ratio".into(), f3(hit_ratio), "-".into()]);
    table.row(vec!["cpu max/mean imbalance".into(), f2(pooled_imb), f2(pinned_imb)]);
    let mut per_blade = Table::new(
        "per-blade activity (pooled run)",
        &["blade", "local hits", "remote hits", "misses", "cpu util"],
    );
    for b in 0..4u32 {
        per_blade.row(vec![
            b.to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "local_hits")).to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "remote_hits")).to_string(),
            reg.counter_value(&MetricKey::scoped("cache", b, "misses")).to_string(),
            f3(reg.gauge_value(&MetricKey::scoped("core", b, "cpu_util")).unwrap_or(0.0)),
        ]);
    }

    let checkpoints = vec![
        Checkpoint {
            claim: "§2.2: hot data concentrates in the pooled cache — skewed reads mostly hit",
            metric: "cache.hit_ratio".into(),
            observed: f3(hit_ratio),
            target: "> 0.5".into(),
            pass: hit_ratio > 0.5,
        },
        Checkpoint {
            claim: "§6.3: load balancing spreads the hot spot the pinned islands concentrate",
            metric: "core.cpu_imbalance (pooled vs pinned)".into(),
            observed: format!("{} vs {}", f2(pooled_imb), f2(pinned_imb)),
            target: "pooled < pinned".into(),
            pass: pooled_imb < pinned_imb,
        },
    ];
    RunReport { scenario: "hotspot", tables: vec![table, per_blade], checkpoints, registry: reg, events, dropped }
}

/// §6.1: N-way dirty replication — data survives N-1 blade failures, and
/// the unreplicated baseline does not.
fn nway() -> RunReport {
    const PAGE: u64 = 64 * 1024;
    let mut table =
        Table::new("dirty-page survival under blade failures", &["copies", "failures", "lost", "promoted"]);

    // 3-way protected writes, then two blade failures.
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(6).with_disks(8));
    c.enable_tracing(TRACE_CAPACITY);
    let vol = c.create_volume("crit", 0, 1 << 30).expect("volume");
    let mut t = SimTime::ZERO;
    for i in 0..30u64 {
        t = c.write(t, 0, vol, i * PAGE, PAGE, 3, Retention::Normal).expect("write").done;
    }
    let mut lost3 = 0u64;
    let mut promoted3 = 0u64;
    for blade in [0usize, 1] {
        let report = c.fail_blade(t, blade);
        lost3 += report.lost.len() as u64;
        promoted3 += report.promoted.len() as u64;
    }
    table.row(vec!["3".into(), "2".into(), lost3.to_string(), promoted3.to_string()]);

    // Unprotected baseline: 1-way writes die with their blade.
    let mut c1 = BladeCluster::new(ClusterConfig::default().with_blades(6).with_disks(8));
    let vol1 = c1.create_volume("scratch", 0, 1 << 30).expect("volume");
    let mut t1 = SimTime::ZERO;
    for i in 0..30u64 {
        t1 = c1.write(t1, 0, vol1, i * PAGE, PAGE, 1, Retention::Normal).expect("write").done;
    }
    let mut lost1 = 0u64;
    for blade in 0..6 {
        lost1 += c1.fail_blade(t1, blade).lost.len() as u64;
    }
    table.row(vec!["1".into(), "6".into(), lost1.to_string(), "0".into()]);

    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &c, t);
    let (events, dropped) = c.take_trace();
    record_trace_drops(&mut reg, "cluster", dropped);

    let checkpoints = vec![
        Checkpoint {
            claim: "§6.1: 3-way replicated dirty data survives 2 blade failures",
            metric: "core.dirty_pages_lost".into(),
            observed: lost3.to_string(),
            target: "== 0".into(),
            pass: lost3 == 0,
        },
        Checkpoint {
            claim: "§6.1: survivors promote replicas to owners",
            metric: "core.dirty_pages_promoted".into(),
            observed: promoted3.to_string(),
            target: "> 0".into(),
            pass: promoted3 > 0,
        },
        Checkpoint {
            claim: "§6.1 (contrast): unreplicated dirty pages die with their blade",
            metric: "baseline dirty_pages_lost".into(),
            observed: lost1.to_string(),
            target: "> 0".into(),
            pass: lost1 > 0,
        },
    ];
    RunReport { scenario: "nway", tables: vec![table], checkpoints, registry: reg, events, dropped }
}

/// §2.4 / §6.3: the distributed rebuild gets faster with more worker
/// blades, until the replacement disk's write queue binds.
fn rebuild() -> RunReport {
    const REGION: u64 = 64 << 20;
    let mut table = Table::new("RAID-5 rebuild of a 64 MiB region", &["workers", "finish ms"]);
    let mut reg = MetricsRegistry::new();
    let mut times = Vec::new();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for nworkers in [1usize, 2, 4] {
        let cfg = ClusterConfig::default().with_blades(4).with_disks(6).with_raid(RaidLevel::Raid5);
        let mut c = BladeCluster::new(cfg);
        c.fail_disk(DiskId(1));
        let workers: Vec<usize> = (0..nworkers).collect();
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(1), REGION, &workers, 32);
        r.enable_tracing(TRACE_CAPACITY);
        let done = r.run(&mut c).expect("rebuild");
        let ms = done.as_millis_f64();
        table.row(vec![nworkers.to_string(), f2(ms)]);
        reg.gauge(MetricKey::aggregate("raid", &format!("rebuild_ms_{nworkers}_workers")), ms);
        times.push(done);
        if nworkers == 4 {
            let (ev, d) = r.take_trace();
            events = ev;
            dropped = d;
        }
    }
    record_trace_drops(&mut reg, "raid", dropped);
    let checkpoints = vec![
        Checkpoint {
            claim: "§2.4: a second worker blade speeds the rebuild",
            metric: "raid.rebuild_ms_2_workers".into(),
            observed: f2(times[1].as_millis_f64()),
            target: format!("< {}", f2(times[0].as_millis_f64())),
            pass: times[1] < times[0],
        },
        Checkpoint {
            claim: "§2.4: beyond the disk bound, more workers never regress",
            metric: "raid.rebuild_ms_4_workers".into(),
            observed: f2(times[2].as_millis_f64()),
            target: format!("<= {}", f2(times[1].as_millis_f64())),
            pass: times[2] <= times[1],
        },
    ];
    RunReport { scenario: "rebuild", tables: vec![table], checkpoints, registry: reg, events, dropped }
}

/// §7: synchronous vs asynchronous geographic replication, and the async
/// loss window a site disaster exposes.
fn georep() -> RunReport {
    const MB: u64 = 1 << 20;
    let cfg = NetStorageConfig {
        site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
        ..NetStorageConfig::default()
    };
    let mut ns = NetStorage::new(cfg);
    ns.enable_tracing(TRACE_CAPACITY);
    let s0 = SiteId(0);
    let s1 = SiteId(1);
    ns.create_file("/sync.dat", FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() }, s0)
        .expect("create sync");
    ns.create_file("/async.dat", FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() }, s0)
        .expect("create async");

    let w_sync = ns.write_file(SimTime::ZERO, s0, 0, "/sync.dat", 0, MB).expect("sync write");
    let w_async = ns.write_file(w_sync.done, s0, 0, "/async.dat", 0, MB).expect("async write");
    let shipped_by = ns.ship_async(w_async.done, u64::MAX).expect("ship");

    // Five more async writes that never ship, then the site dies.
    let mut t = shipped_by;
    for i in 1..=5u64 {
        t = ns.write_file(t, s0, 0, "/async.dat", i * MB, MB).expect("async write").done;
    }
    let disaster = ns.fail_site(s0);
    let sync_readable = ns.read_file(t, s1, 0, "/sync.dat", 0, MB).is_ok();

    let mut reg = MetricsRegistry::new();
    collect_geo(&mut reg, &ns);
    let (events, dropped) = ns.take_trace();
    record_trace_drops(&mut reg, "netstorage", dropped);
    reg.gauge(MetricKey::aggregate("geo", "sync_ack_ms"), w_sync.latency.as_millis_f64());
    reg.gauge(MetricKey::aggregate("geo", "async_ack_ms"), w_async.latency.as_millis_f64());

    let mut table = Table::new("1 MiB write at the home site, replicated to a metro peer", &["policy", "ack ms"]);
    table.row(vec!["synchronous mirror".into(), f3(w_sync.latency.as_millis_f64())]);
    table.row(vec!["asynchronous journal".into(), f3(w_async.latency.as_millis_f64())]);
    let mut loss = Table::new("site disaster at the home site", &["metric", "value"]);
    loss.row(vec!["unshipped async writes lost".into(), disaster.async_writes_lost.to_string()]);
    loss.row(vec!["files wholly lost".into(), disaster.files_lost.len().to_string()]);
    loss.row(vec!["sync file readable at peer".into(), sync_readable.to_string()]);

    let checkpoints = vec![
        Checkpoint {
            claim: "§7.2: async acks locally, well before the sync mirror's WAN round trip",
            metric: "geo.async_ack_ms < geo.sync_ack_ms".into(),
            observed: format!(
                "{} < {}",
                f3(w_async.latency.as_millis_f64()),
                f3(w_sync.latency.as_millis_f64())
            ),
            target: "async < sync".into(),
            pass: w_async.latency < w_sync.latency,
        },
        Checkpoint {
            claim: "§7.2: the async journal's unshipped tail is the loss window",
            metric: "disaster.async_writes_lost".into(),
            observed: disaster.async_writes_lost.to_string(),
            target: "== 5".into(),
            pass: disaster.async_writes_lost == 5,
        },
        Checkpoint {
            claim: "§7: the synchronous replica serves reads after the home site dies",
            metric: "read(/sync.dat)@peer".into(),
            observed: sync_readable.to_string(),
            target: "true".into(),
            pass: sync_readable,
        },
    ];
    RunReport { scenario: "georep", tables: vec![table, loss], checkpoints, registry: reg, events, dropped }
}

/// Multi-tenant isolation: a scavenger-class tenant floods the cluster
/// open-loop while a premium tenant runs a light cache-resident read
/// workload. Without QoS the victim's p99 read latency collapses; with
/// `ys-qos` admission control the flood is shed at the door and the
/// victim stays within its solo envelope.
fn noisy_neighbor() -> RunReport {
    use ys_qos::{QosClass, QosConfig, TenantSpec};
    use ys_simcore::time::SimDuration;

    const IO: u64 = 64 * 1024; // victim reads, cache-resident
    const SET_PAGES: u64 = 64; // 4 MiB victim working set
    const HOG_IO: u64 = 256 * 1024;
    const VICTIM_OPS: u64 = 500;
    const HOG_OPS: u64 = 300;
    const VICTIM: u32 = 1;
    const HOG: u32 = 2;
    // The victim runs well below saturation (~600 µs service every 2 ms),
    // so its solo latency is a stable envelope; the hog demands 20 GB/s.
    let victim_gap = SimDuration::from_millis(2);
    let hog_gap = SimDuration::from_micros(50);

    // One contention experiment: warm the victim's working set, then replay
    // both tenants' open-loop schedules merged in issue order. Returns the
    // cluster, the victim's exact read latencies, and per-tenant shed counts.
    let drive = |qos: QosConfig, with_hog: bool| -> (BladeCluster, Vec<SimDuration>, u64, u64) {
        let cfg = ClusterConfig::default()
            .with_blades(2)
            .with_disks(8)
            .with_load_balance(LoadBalance::PageAffinity)
            .with_qos(qos);
        let mut c = BladeCluster::new(cfg);
        let victim = c.create_volume("victim", 0, 1 << 30).expect("volume");
        let hogv = c.create_volume("hog", 0, 1 << 30).expect("volume");
        let mut t = SimTime::ZERO;
        for i in 0..SET_PAGES {
            t = c.read(t, 0, victim, i * IO, IO).expect("warm").done;
        }
        // Open-loop: issue times are fixed by the schedule, not by
        // completions — exactly how a noisy neighbor keeps pushing.
        let mut ops: Vec<(SimTime, bool, u64)> =
            (0..VICTIM_OPS).map(|i| (t + victim_gap * i, false, i)).collect();
        if with_hog {
            ops.extend((0..HOG_OPS).map(|i| (t + hog_gap * i, true, i)));
        }
        ops.sort_by_key(|&(at, is_hog, _)| (at, is_hog));
        let mut latencies = Vec::new();
        let mut victim_shed = 0u64;
        let mut hog_shed = 0u64;
        for (at, is_hog, i) in ops {
            if is_hog {
                let off = (i % 1024) * HOG_IO;
                match c.write_as(at, HOG, 1, hogv, off, HOG_IO, 2, Retention::Normal) {
                    Ok(_) => {}
                    Err(_) => hog_shed += 1,
                }
            } else {
                let off = (i % SET_PAGES) * IO;
                match c.read_as(at, VICTIM, 0, victim, off, IO) {
                    Ok(done) => latencies.push(done.latency),
                    Err(_) => victim_shed += 1,
                }
            }
        }
        (c, latencies, victim_shed, hog_shed)
    };
    let exact_p99 = |lat: &[SimDuration]| -> SimDuration {
        let mut v: Vec<SimDuration> = lat.to_vec();
        v.sort();
        v[((v.len() * 99) / 100).min(v.len() - 1)]
    };

    let policy = QosConfig::new()
        .with_tenant(
            TenantSpec::new(VICTIM, "victim", QosClass::Premium)
                .weight(4)
                .latency_budget(SimDuration::from_millis(2)),
        )
        .with_tenant(
            TenantSpec::new(HOG, "hog", QosClass::Scavenger)
                .rate_mb_per_sec(5)
                .burst_bytes(256 * 1024)
                .inflight_cap(2),
        )
        .with_max_delay(SimDuration::from_millis(5));

    let (_, solo_lat, _, _) = drive(QosConfig::disabled(), false);
    let (_, flood_lat, _, _) = drive(QosConfig::disabled(), true);
    let (guarded, fair_lat, victim_shed, hog_shed) = drive(policy, true);

    let solo = exact_p99(&solo_lat);
    let flood = exact_p99(&flood_lat);
    let fair = exact_p99(&fair_lat);
    let flood_x = flood.nanos() as f64 / solo.nanos() as f64;
    let fair_x = fair.nanos() as f64 / solo.nanos() as f64;

    let mut reg = MetricsRegistry::new();
    collect_qos(&mut reg, guarded.qos());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_solo_us"), solo.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_flood_us"), flood.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_guarded_us"), fair.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_slowdown_flood"), flood_x);
    reg.gauge(MetricKey::aggregate("qos", "victim_slowdown_guarded"), fair_x);

    let mut table = Table::new(
        "victim p99 read latency (500 cache-resident 64 KiB reads)",
        &["run", "p99 µs", "vs solo"],
    );
    table.row(vec!["solo".into(), f2(solo.as_micros_f64()), "1.00".into()]);
    table.row(vec!["flooded, no QoS".into(), f2(flood.as_micros_f64()), f2(flood_x)]);
    table.row(vec!["flooded, ys-qos".into(), f2(fair.as_micros_f64()), f2(fair_x)]);
    let mut adm = Table::new(
        "admission ledger (QoS run: 300 x 256 KiB scavenger writes, 5 GB/s demand)",
        &["tenant", "class", "requests", "admitted", "throttled", "shed", "SLO met"],
    );
    for slo in guarded.qos().slo_report() {
        let s = &slo.stats;
        adm.row(vec![
            slo.name.clone(),
            guarded.qos().cfg().tenant(slo.tenant).map(|t| t.class.name()).unwrap_or("-").into(),
            s.requests.to_string(),
            s.admitted.to_string(),
            s.throttled.to_string(),
            s.shed.to_string(),
            slo.met().to_string(),
        ]);
    }

    let checkpoints = vec![
        Checkpoint {
            claim: "an unpoliced scavenger flood wrecks the premium tenant's p99",
            metric: "qos.victim_slowdown_flood".into(),
            observed: f2(flood_x),
            target: ">= 3.0".into(),
            pass: flood_x >= 3.0,
        },
        Checkpoint {
            claim: "ys-qos admission control holds the victim inside its solo envelope",
            metric: "qos.victim_slowdown_guarded".into(),
            observed: f2(fair_x),
            target: "<= 1.5".into(),
            pass: fair_x <= 1.5,
        },
        Checkpoint {
            claim: "the shed burden lands on the hog alone",
            metric: "qos.shed (hog vs victim)".into(),
            observed: format!("{hog_shed} vs {victim_shed}"),
            target: "hog > 0, victim == 0".into(),
            pass: hog_shed > 0 && victim_shed == 0,
        },
    ];
    RunReport {
        scenario: "noisy-neighbor",
        tables: vec![table, adm],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// `ys-heal` rolling maintenance: drain and rejoin every blade in turn
/// while a premium tenant keeps reading its 2-way-dirty working set, with
/// the Scavenger-class healer restoring redundancy after each rejoin.
/// Planned maintenance must lose nothing, keep the foreground p99 within
/// 1.5x its solo envelope, and end with the cluster back at `Healthy`.
fn rolling_restart() -> RunReport {
    use ys_heal::{HealConfig, Healer};
    use ys_qos::{QosClass, QosConfig, TenantSpec};
    use ys_simcore::time::SimDuration;

    const IO: u64 = 64 * 1024; // one cache page per op
    const SET_PAGES: u64 = 48; // 3 MiB working set, written 2-way
    const OPS_PER_PHASE: u64 = 120;
    const FG: u32 = 1;
    const HEALER: u32 = 9;
    const BLADES: usize = 4;
    let gap = SimDuration::from_millis(2);

    let policy = || {
        QosConfig::new()
            .with_tenant(
                TenantSpec::new(FG, "foreground", QosClass::Premium)
                    .weight(4)
                    .latency_budget(SimDuration::from_millis(2)),
            )
            .with_tenant(
                TenantSpec::new(HEALER, "healer", QosClass::Scavenger)
                    .rate_mb_per_sec(50)
                    .burst_bytes(1 << 20)
                    .inflight_cap(4),
            )
            .with_max_delay(SimDuration::from_millis(5))
    };

    // One experiment: seed the dirty working set, then run BLADES phases of
    // open-loop premium reads. When `rolling`, each phase starts by
    // draining one blade, rejoining it, and healing back to target.
    struct PhaseRow {
        blade: usize,
        evacuated: usize,
        healed: u64,
        converged: bool,
        health: ys_cache::Health,
    }
    let drive = |rolling: bool| {
        let cfg = ClusterConfig::default()
            .with_blades(BLADES)
            .with_disks(8)
            .with_load_balance(LoadBalance::PageAffinity)
            .with_qos(policy())
            .with_health_governor();
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("fg", FG, 1 << 30).expect("volume");
        let mut t = SimTime::ZERO;
        for i in 0..SET_PAGES {
            let w = c
                .write_as(t, FG, 0, vol, i * IO, IO, 2, Retention::Normal)
                .expect("seed write");
            t = t.max(w.done);
        }
        let mut latencies = Vec::new();
        let mut write_errors = 0u64;
        let mut phases = Vec::new();
        for blade in 0..BLADES {
            if rolling {
                let (rep, done) = c.drain_blade(t, blade).expect("planned drain");
                t = t.max(done);
                c.revive_blade(blade).expect("revive");
                let mut h =
                    Healer::new(HealConfig { tenant: Some(HEALER) });
                t = t.max(h.run(&mut c, t).expect("heal pass"));
                phases.push(PhaseRow {
                    blade,
                    evacuated: rep.evacuated(),
                    healed: h.report().replicas_placed,
                    converged: h.report().converged,
                    health: c.health(),
                });
            }
            // Open-loop premium writes keep the set dirty all the way
            // through the restart; write-back acks at cache speed, so this
            // latency isolates healer/QoS interference from cache warmth.
            for i in 0..OPS_PER_PHASE {
                let off = ((blade as u64 * OPS_PER_PHASE + i) % SET_PAGES) * IO;
                match c.write_as(t + gap * i, FG, 0, vol, off, IO, 2, Retention::Normal) {
                    Ok(w) => latencies.push(w.latency),
                    Err(_) => write_errors += 1,
                }
            }
            t += gap * OPS_PER_PHASE;
        }
        // Read back the whole acknowledged set: zero loss, end to end.
        let mut read_errors = 0u64;
        for i in 0..SET_PAGES {
            match c.read_as(t, FG, 0, vol, i * IO, IO) {
                Ok(rd) => t = t.max(rd.done),
                Err(_) => read_errors += 1,
            }
        }
        (c, latencies, write_errors + read_errors, phases)
    };
    let exact_p99 = |lat: &[ys_simcore::time::SimDuration]| {
        let mut v = lat.to_vec();
        v.sort();
        v[((v.len() * 99) / 100).min(v.len() - 1)]
    };

    let (_, solo_lat, solo_errors, _) = drive(false);
    let (c, roll_lat, roll_errors, phases) = drive(true);
    let solo = exact_p99(&solo_lat);
    let roll = exact_p99(&roll_lat);
    let slowdown = roll.nanos() as f64 / solo.nanos() as f64;
    let lost = c.cache.lost_pages().len();
    let healed: u64 = phases.iter().map(|p| p.healed).sum();
    let evacuated: usize = phases.iter().map(|p| p.evacuated).sum();
    let all_converged = phases.iter().all(|p| p.converged);
    let final_health = c.health();

    let mut reg = MetricsRegistry::new();
    collect_qos(&mut reg, c.qos());
    reg.gauge(MetricKey::aggregate("heal", "fg_p99_solo_us"), solo.as_micros_f64());
    reg.gauge(MetricKey::aggregate("heal", "fg_p99_rolling_us"), roll.as_micros_f64());
    reg.gauge(MetricKey::aggregate("heal", "fg_slowdown_rolling"), slowdown);
    reg.gauge(MetricKey::aggregate("heal", "replicas_healed"), healed as f64);
    reg.gauge(MetricKey::aggregate("heal", "pages_evacuated"), evacuated as f64);

    let mut table = Table::new(
        "rolling restart, one blade at a time (48-page 2-way dirty set, premium writes throughout)",
        &["blade", "evacuated", "healed replicas", "converged", "health after"],
    );
    for p in &phases {
        table.row(vec![
            p.blade.to_string(),
            p.evacuated.to_string(),
            p.healed.to_string(),
            p.converged.to_string(),
            format!("{:?}", p.health),
        ]);
    }
    let mut lat_table = Table::new(
        "foreground p99 write-ack latency (480 open-loop 64 KiB 2-way writes)",
        &["run", "p99 µs", "vs solo"],
    );
    lat_table.row(vec!["solo".into(), f2(solo.as_micros_f64()), "1.00".into()]);
    lat_table.row(vec!["rolling restart".into(), f2(roll.as_micros_f64()), f2(slowdown)]);

    let checkpoints = vec![
        Checkpoint {
            claim: "planned maintenance loses no acknowledged write",
            metric: "heal.lost_pages + failed ops".into(),
            observed: format!("{lost} lost, {} vs {} failed ops", roll_errors, solo_errors),
            target: "all 0".into(),
            pass: lost == 0 && roll_errors == 0 && solo_errors == 0,
        },
        Checkpoint {
            claim: "the QoS-governed healer keeps the foreground inside 1.5x its solo p99",
            metric: "heal.fg_slowdown_rolling".into(),
            observed: f2(slowdown),
            target: "<= 1.5".into(),
            pass: slowdown <= 1.5,
        },
        Checkpoint {
            claim: "every rejoin heals back to target and the cluster ends Healthy",
            metric: "heal.converged / health".into(),
            observed: format!("{all_converged} / {final_health:?}"),
            target: "true / Healthy".into(),
            pass: all_converged && final_health == ys_cache::Health::Healthy,
        },
        Checkpoint {
            claim: "the restart exercised real evacuation and re-replication",
            metric: "heal.pages_evacuated / heal.replicas_healed".into(),
            observed: format!("{evacuated} / {healed}"),
            target: "both > 0".into(),
            pass: evacuated > 0 && healed > 0,
        },
    ];
    RunReport {
        scenario: "rolling-restart",
        tables: vec![table, lat_table],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// End-to-end integrity under load: latent media errors rot a data volume
/// while a premium tenant runs its cache-resident read workload. A
/// Scavenger-class `ys-scrub` pass walks the cluster between foreground
/// ops, detects every injected error, and repairs it in place — without
/// pushing the victim's p99 outside its solo envelope. The scrub is the
/// noisy neighbor here, and QoS admission keeps it polite.
fn bitrot_scrub() -> RunReport {
    use ys_qos::{QosClass, QosConfig, TenantSpec};
    use ys_scrub::{ScrubConfig, ScrubReport, ScrubTarget, Scrubber};
    use ys_simcore::time::SimDuration;

    const IO: u64 = 64 * 1024; // victim reads, cache-resident
    const SET_PAGES: u64 = 64; // 4 MiB victim working set
    const DATA_BYTES: u64 = 16 << 20; // at-rest volume the rot lands in
    const ERRORS: u64 = 24;
    const STRIDE: u64 = 10; // > data members, so every rotten row is unique
    const VICTIM_OPS: u64 = 400;
    const VICTIM: u32 = 1;
    const SCRUB: u32 = 3;
    let victim_gap = SimDuration::from_millis(2);

    let policy = || {
        QosConfig::new()
            .with_tenant(
                TenantSpec::new(VICTIM, "victim", QosClass::Premium)
                    .weight(4)
                    .latency_budget(SimDuration::from_millis(2)),
            )
            .with_tenant(
                TenantSpec::new(SCRUB, "scrubber", QosClass::Scavenger)
                    .rate_mb_per_sec(50)
                    .burst_bytes(1 << 20)
                    .inflight_cap(2),
            )
            .with_max_delay(SimDuration::from_millis(5))
    };

    // One run: write the data volume, rot ERRORS of its pages, warm the
    // victim's working set, then replay the victim's open-loop read
    // schedule — optionally with a Scavenger-tenant scrub pass ticking
    // between foreground ops. Returns the cluster, the victim's exact
    // latencies, the shed count, and the scrub report (empty when off).
    let drive = |with_scrub: bool| -> (BladeCluster, Vec<SimDuration>, u64, ScrubReport) {
        let cfg = ClusterConfig::default()
            .with_blades(2)
            .with_disks(8)
            .with_load_balance(LoadBalance::PageAffinity)
            .with_qos(policy());
        let mut c = BladeCluster::new(cfg);
        let victim = c.create_volume("victim", 0, 1 << 30).expect("volume");
        let data = c.create_volume("data", 0, 1 << 30).expect("volume");
        let mut t = SimTime::ZERO;
        for off in (0..DATA_BYTES).step_by(1 << 20) {
            t = c.write(t, 0, data, off, 1 << 20, 2, Retention::Normal).expect("write").done;
        }
        t = c.drain().max(t);
        // Latent errors: silent on the media until something verifies them.
        for i in 0..ERRORS {
            assert!(c.corrupt_volume_page(data, i * STRIDE).is_some(), "rot lands on mapped page");
        }
        for i in 0..SET_PAGES {
            t = c.read(t, 0, victim, i * IO, IO).expect("warm").done;
        }
        let mut scrubber = Scrubber::new(
            ScrubConfig { tenant: Some(SCRUB) },
            &c,
        );
        let mut latencies = Vec::new();
        let mut victim_shed = 0u64;
        let mut scrub_now = t;
        for i in 0..VICTIM_OPS {
            let at = t + victim_gap * i;
            if with_scrub && !scrubber.is_done() {
                let mut target = ScrubTarget::Cluster(&mut c);
                scrub_now = scrubber.step(&mut target, scrub_now.max(at)).expect("scrub step");
            }
            let off = (i % SET_PAGES) * IO;
            match c.read_as(at, VICTIM, 0, victim, off, IO) {
                Ok(done) => latencies.push(done.latency),
                Err(_) => victim_shed += 1,
            }
        }
        // The foreground window closes; the pass trickles to completion.
        if with_scrub && !scrubber.is_done() {
            let mut target = ScrubTarget::Cluster(&mut c);
            scrubber.run(&mut target, scrub_now.max(t + victim_gap * VICTIM_OPS)).expect("scrub finish");
        }
        (c, latencies, victim_shed, scrubber.report().clone())
    };
    let exact_p99 = |lat: &[SimDuration]| -> SimDuration {
        let mut v: Vec<SimDuration> = lat.to_vec();
        v.sort();
        v[((v.len() * 99) / 100).min(v.len() - 1)]
    };

    let (unscrubbed, solo_lat, _, _) = drive(false);
    let (scrubbed, scrub_lat, victim_shed, report) = drive(true);

    let solo = exact_p99(&solo_lat);
    let under = exact_p99(&scrub_lat);
    let under_x = under.nanos() as f64 / solo.nanos() as f64;
    let rot_before = unscrubbed.corrupt_page_count();
    let rot_after = scrubbed.corrupt_page_count();

    let mut reg = MetricsRegistry::new();
    collect_qos(&mut reg, scrubbed.qos());
    reg.gauge(MetricKey::aggregate("scrub", "pages_scanned"), report.pages_scanned as f64);
    reg.gauge(MetricKey::aggregate("scrub", "mismatch_pages"), report.mismatch_pages as f64);
    reg.gauge(MetricKey::aggregate("scrub", "repaired"), report.repaired() as f64);
    reg.gauge(MetricKey::aggregate("scrub", "losses"), report.losses.len() as f64);
    reg.gauge(MetricKey::aggregate("scrub", "rot_left_on_media"), rot_after as f64);
    reg.gauge(MetricKey::aggregate("scrub", "victim_p99_solo_us"), solo.as_micros_f64());
    reg.gauge(MetricKey::aggregate("scrub", "victim_p99_scrubbed_us"), under.as_micros_f64());
    reg.gauge(MetricKey::aggregate("scrub", "victim_slowdown_scrubbed"), under_x);

    let mut table = Table::new(
        "victim p99 read latency (400 cache-resident 64 KiB reads)",
        &["run", "p99 µs", "vs solo"],
    );
    table.row(vec!["no scrub".into(), f2(solo.as_micros_f64()), "1.00".into()]);
    table.row(vec!["background scrub".into(), f2(under.as_micros_f64()), f2(under_x)]);
    let mut pass = Table::new(
        &format!("scrub pass ({ERRORS} latent errors injected into a {} MiB volume)", DATA_BYTES >> 20),
        &["pages", "mismatched", "parity", "replica", "geo", "lost", "ticks", "shed", "forced"],
    );
    pass.row(vec![
        report.pages_scanned.to_string(),
        report.mismatch_pages.to_string(),
        report.repaired_parity.to_string(),
        report.repaired_replica.to_string(),
        report.repaired_geo.to_string(),
        report.losses.len().to_string(),
        report.ticks.to_string(),
        report.shed_ticks.to_string(),
        report.forced_ticks.to_string(),
    ]);

    let checkpoints = vec![
        Checkpoint {
            claim: "the scrub pass detects every injected latent error",
            metric: "scrub.mismatch_pages".into(),
            observed: report.mismatch_pages.to_string(),
            target: format!("== {ERRORS} (injected)"),
            pass: report.mismatch_pages == ERRORS && rot_before == ERRORS as usize,
        },
        Checkpoint {
            claim: "every detected error is repaired in place — the media ends clean",
            metric: "scrub.repaired / rot_left_on_media".into(),
            observed: format!("{} / {rot_after}", report.repaired()),
            target: format!("== {ERRORS} / == 0"),
            pass: report.fully_repaired() && report.repaired() == ERRORS && rot_after == 0,
        },
        Checkpoint {
            claim: "Scavenger-class scrubbing holds the victim inside its solo envelope",
            metric: "scrub.victim_slowdown_scrubbed".into(),
            observed: f2(under_x),
            target: "<= 1.5".into(),
            pass: under_x <= 1.5,
        },
        Checkpoint {
            claim: "admission pressure lands on the scrubber, never the victim",
            metric: "qos.shed (victim)".into(),
            observed: victim_shed.to_string(),
            target: "== 0".into(),
            pass: victim_shed == 0,
        },
    ];
    RunReport {
        scenario: "bitrot-scrub",
        tables: vec![table, pass],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// §6.1 end-to-end, via `ys-chaos`: a seeded fault campaign crashes blades
/// at adversarial trace-spine instants (mid-destage, mid-promotion) and the
/// recovery oracle checks every paper promise against a shadow model. The
/// fatal arm appends a deliberate N-failure, which must surface as an
/// *explicit* `acked-write-lost` — never a silent stale read — and shrink
/// to a minimal replayable `--seed S --keep i,j` schedule.
fn crash_nway() -> RunReport {
    use ys_chaos::{
        minimize, run_campaign, run_with_schedule, CampaignConfig, CampaignSchedule, Injection,
    };

    // The schedule is a pure function of the seed; pick the first seed whose
    // campaign includes a blade-crash episode so the recovery path is on.
    let seed = (0u64..64)
        .find(|&s| {
            let cfg = CampaignConfig { seed: s, steps: 64, ..CampaignConfig::default() };
            CampaignSchedule::generate(&cfg)
                .entries
                .iter()
                .any(|e| matches!(e.injection, Injection::CrashBlade { .. }))
        })
        .unwrap_or(4);
    let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
    let within = run_campaign(&cfg);

    // Fatal arm: the same seed with a deliberate N-failure appended, then
    // ddmin down to a minimal still-failing subset.
    let fatal_cfg = CampaignConfig { fatal: true, ..cfg };
    let schedule = CampaignSchedule::generate(&fatal_cfg);
    let fatal = run_with_schedule(&fatal_cfg, schedule.clone());
    let (minimal, shrink_runs) = minimize(&fatal_cfg, &schedule);
    let shrunk = run_with_schedule(&fatal_cfg, minimal.clone());

    let mut reg = MetricsRegistry::new();
    reg.gauge(MetricKey::aggregate("chaos", "injections_fired"), within.injections_fired as f64);
    reg.gauge(MetricKey::aggregate("chaos", "acked_verified"), within.acked_verified as f64);
    reg.gauge(MetricKey::aggregate("chaos", "violations_within_budget"), within.violations.len() as f64);
    reg.gauge(MetricKey::aggregate("chaos", "shrink_runs"), shrink_runs as f64);
    reg.gauge(MetricKey::aggregate("chaos", "counterexample_len"), minimal.entries.len() as f64);
    for (kind, took) in &within.recovery {
        reg.gauge(MetricKey::aggregate("chaos", &format!("recovery_{kind}_ms")), took.as_millis_f64());
    }

    let mut runs = Table::new(
        &format!("fault campaign, seed {seed}, {} workload steps", cfg.steps),
        &["run", "injections fired", "acked verified", "violations"],
    );
    runs.row(vec![
        "within budget (≤ N−1)".into(),
        within.injections_fired.to_string(),
        format!("{}/{}", within.acked_verified, within.acked_writes),
        within.violations.len().to_string(),
    ]);
    runs.row(vec![
        "fatal (N-failure appended)".into(),
        fatal.injections_fired.to_string(),
        format!("{}/{}", fatal.acked_verified, fatal.acked_writes),
        fatal.violations.len().to_string(),
    ]);
    let mut rec = Table::new("recovery, fault to fully-destaged", &["fault", "ms"]);
    for (kind, took) in &within.recovery {
        rec.row(vec![(*kind).into(), f2(took.as_millis_f64())]);
    }
    let mut shrink = Table::new("schedule shrinking (ddmin)", &["metric", "value"]);
    shrink.row(vec!["original entries".into(), schedule.entries.len().to_string()]);
    shrink.row(vec!["shrunk entries".into(), minimal.entries.len().to_string()]);
    shrink.row(vec!["campaign runs spent".into(), shrink_runs.to_string()]);
    shrink.row(vec!["replay".into(), minimal.replay_line()]);

    let fatal_loud = fatal.violations.iter().any(|v| v.rule == "acked-write-lost");
    let fatal_clean = fatal.violations.iter().all(|v| v.rule != "loss-within-budget");
    let minimal_subset = minimal.entries.iter().all(|e| schedule.entries.contains(e));
    let checkpoints = vec![
        Checkpoint {
            claim: "§6.1: a ≤ N−1 fault campaign recovers with zero oracle violations",
            metric: "chaos.violations_within_budget".into(),
            observed: within.violations.len().to_string(),
            target: "== 0".into(),
            pass: within.passed(),
        },
        Checkpoint {
            claim: "§6.1: every surviving acknowledged write reads back verbatim",
            metric: "chaos.acked_verified".into(),
            observed: format!("{}/{}", within.acked_verified, within.acked_writes),
            target: "> 0, none unreadable".into(),
            pass: within.acked_verified > 0,
        },
        Checkpoint {
            claim: "§6.1: blade-crash recovery (repair + destage drain) is measured",
            metric: "chaos.recovery_blade-crash_ms".into(),
            observed: within
                .recovery
                .iter()
                .find(|(k, _)| *k == "blade-crash")
                .map(|(_, d)| f2(d.as_millis_f64()))
                .unwrap_or_else(|| "absent".into()),
            target: "recorded".into(),
            pass: within.recovery.iter().any(|(k, _)| *k == "blade-crash"),
        },
        Checkpoint {
            claim: "the deliberate N-failure surfaces as an explicit acked-write-lost",
            metric: "fatal.violations".into(),
            observed: if fatal_loud { "acked-write-lost".into() } else { "missing".into() },
            target: "present".into(),
            pass: fatal_loud,
        },
        Checkpoint {
            claim: "no loss ever hides inside the §6.1 budget (that would be a bug)",
            metric: "fatal.loss-within-budget".into(),
            observed: if fatal_clean { "absent".into() } else { "PRESENT".into() },
            target: "absent".into(),
            pass: fatal_clean,
        },
        Checkpoint {
            claim: "ddmin shrinks the schedule to a replayable subset that still fails",
            metric: "chaos.counterexample_len".into(),
            observed: format!("{} of {}", minimal.entries.len(), schedule.entries.len()),
            target: "subset, still failing".into(),
            pass: minimal_subset && minimal.entries.len() <= schedule.entries.len() && !shrunk.passed(),
        },
    ];
    RunReport {
        scenario: "crash-nway",
        tables: vec![runs, rec, shrink],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// §7 end-to-end, via `ys-chaos`: hand-built adversarial schedule that cuts
/// the WAN trunks out of the home site — the first exactly as an async geo
/// batch is on the wire — then heals them. The recovery oracle requires the
/// backlog to drain gapless afterwards: shipped == enqueued, intact acked
/// prefix, nothing stuck in flight.
fn partition_heal() -> RunReport {
    use ys_chaos::{
        run_with_schedule, CampaignConfig, CampaignSchedule, CrashEvent, Injection, ScheduledFault,
        Trigger,
    };

    let cfg = CampaignConfig { seed: 11, steps: 64, ..CampaignConfig::default() };
    let entries = vec![
        ScheduledFault {
            index: 0,
            trigger: Trigger::OnEvent { site: 0, event: CrashEvent::GeoShip, after_step: 4 },
            injection: Injection::PartitionLink { a: 0, b: 1 },
        },
        ScheduledFault {
            index: 1,
            trigger: Trigger::AtStep(12),
            injection: Injection::PartitionLink { a: 0, b: 2 },
        },
        ScheduledFault {
            index: 2,
            trigger: Trigger::AtStep(22),
            injection: Injection::HealLink { a: 0, b: 1 },
        },
        ScheduledFault {
            index: 3,
            trigger: Trigger::AtStep(30),
            injection: Injection::HealLink { a: 0, b: 2 },
        },
    ];
    let schedule = CampaignSchedule { seed: cfg.seed, entries };
    let n_entries = schedule.entries.len() as u64;
    let rendered = schedule.render();
    let r = run_with_schedule(&cfg, schedule);

    let geo_violations =
        r.violations.iter().filter(|v| v.rule.starts_with("geo-")).count();
    let mut reg = MetricsRegistry::new();
    reg.gauge(MetricKey::aggregate("chaos", "partition_injections_fired"), r.injections_fired as f64);
    reg.gauge(MetricKey::aggregate("chaos", "partition_violations"), r.violations.len() as f64);
    reg.gauge(MetricKey::aggregate("chaos", "partition_geo_violations"), geo_violations as f64);
    reg.gauge(MetricKey::aggregate("chaos", "partition_acked_verified"), r.acked_verified as f64);
    reg.gauge(MetricKey::aggregate("chaos", "partition_ops_failed"), r.ops_failed as f64);

    let mut sched = Table::new("adversarial schedule (cut both trunks, heal both)", &["entry"]);
    for line in rendered.lines() {
        sched.row(vec![line.trim_start().to_string()]);
    }
    let mut out = Table::new("campaign outcome", &["metric", "value"]);
    out.row(vec!["injections fired".into(), r.injections_fired.to_string()]);
    out.row(vec!["workload ops failed".into(), r.ops_failed.to_string()]);
    out.row(vec![
        "acked writes verified".into(),
        format!("{}/{}", r.acked_verified, r.acked_writes),
    ]);
    out.row(vec!["oracle violations".into(), r.violations.len().to_string()]);

    let checkpoints = vec![
        Checkpoint {
            claim: "§7: after both trunks heal, the async backlog drains gapless",
            metric: "chaos.partition_geo_violations".into(),
            observed: geo_violations.to_string(),
            target: "== 0 (no backlog-stuck, no prefix gap)".into(),
            pass: geo_violations == 0,
        },
        Checkpoint {
            claim: "§7: a double WAN partition is absorbed with zero oracle violations",
            metric: "chaos.partition_violations".into(),
            observed: r.violations.len().to_string(),
            target: "== 0".into(),
            pass: r.passed(),
        },
        Checkpoint {
            claim: "every cut and heal in the schedule actually fired",
            metric: "chaos.partition_injections_fired".into(),
            observed: r.injections_fired.to_string(),
            target: format!("== {n_entries}"),
            pass: r.injections_fired == n_entries,
        },
        Checkpoint {
            claim: "home-site acknowledged writes all read back after the heal",
            metric: "chaos.partition_acked_verified".into(),
            observed: format!("{}/{}", r.acked_verified, r.acked_writes),
            target: "> 0, none unreadable".into(),
            pass: r.acked_verified > 0,
        },
    ];
    RunReport {
        scenario: "partition-heal",
        tables: vec![sched, out],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// §5 (E2): two tenants share one ciphered pool. Zoning plus the LUN mask
/// deny every cross-tenant frame at the target, every denial lands in the
/// audit log, `ReportLuns` never reveals the other tenant's volume even
/// exists, and what a removed disk would disclose is ciphertext that only
/// the per-volume key recovers.
fn secure_tenants() -> RunReport {
    const IO_SECTORS: u32 = 128; // 64 KiB per frame
    const ROUNDS: u64 = 16;
    let hex = |tag: &[u8]| tag.iter().map(|b| format!("{b:02x}")).collect::<String>();

    let cfg = ClusterConfig::default()
        .with_blades(4)
        .with_disks(8)
        .with_clients(4)
        .with_encryption(EncryptionConfig::full_hw());
    let mut c = BladeCluster::new(cfg);
    let vol_a = c.create_volume("tenant-a", 1, 1 << 30).expect("volume a");
    let vol_b = c.create_volume("tenant-b", 2, 1 << 30).expect("volume b");

    // The operator zones one host port per tenant, the disk-side bridge,
    // and a management port; each tenant is granted only its own LUN.
    let mut target = BlockTarget::new(2, 8);
    target.mask.set_zone(0, PortZone::HostSide);
    target.mask.set_zone(1, PortZone::HostSide);
    target.mask.set_zone(8, PortZone::DiskSide);
    target.mask.set_zone(9, PortZone::Management);
    let tenant_a = InitiatorId(1);
    let tenant_b = InitiatorId(2);
    target.mask.grant(tenant_a, vol_a);
    target.mask.grant(tenant_b, vol_b);

    // Interleaved workload: each tenant streams to its own LUN while
    // probing the other's — reads, writes, and a frame smuggled onto the
    // trusted disk-side fabric.
    let mut t = SimTime::ZERO;
    let mut own_ok = 0u64;
    let mut cross_attempts = 0u64;
    let mut cross_denied = 0u64;
    for i in 0..ROUNDS {
        let lba = i * IO_SECTORS as u64;
        for (who, client, port, own, other) in [
            (tenant_a, 0usize, 0usize, vol_a, vol_b),
            (tenant_b, 1, 1, vol_b, vol_a),
        ] {
            let w = target.handle(&mut c, who, client, port, t,
                block::encode(&BlockCmd::Write { lun: own.0, lba, sectors: IO_SECTORS }));
            if w.status == BlockStatus::Good {
                own_ok += 1;
            }
            t = w.done;
            let probes = [
                (port, BlockCmd::Read { lun: other.0, lba, sectors: IO_SECTORS }),
                (port, BlockCmd::Write { lun: other.0, lba, sectors: IO_SECTORS }),
                // Even with a mask grant, the disk-side fabric is a breach.
                (8, BlockCmd::Read { lun: own.0, lba, sectors: IO_SECTORS }),
            ];
            for (p, cmd) in probes {
                cross_attempts += 1;
                if target.handle(&mut c, who, client, p, t, block::encode(&cmd)).status
                    == BlockStatus::AccessDenied
                {
                    cross_denied += 1;
                }
            }
        }
    }
    let luns_a = target.report_luns(tenant_a);
    let luns_b = target.report_luns(tenant_b);
    let leak_free = luns_a == vec![vol_a] && luns_b == vec![vol_b];
    let audited = target.audit.violations().count() as u64;

    // §5.1's warranty-return scenario: destage everything, then look at
    // the raw media bytes a removed disk would disclose.
    c.drain();
    let plain = BladeCluster::plaintext_page_tag(vol_a, 0);
    let media = c.media_tag(vol_a, 0).expect("destaged page has media bytes");
    let mut dec = media;
    ys_security::ctr_xor(&c.volume_key(vol_a), 0, 0, &mut dec);
    let ciphered_at_rest = media != plain && dec == plain;

    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &c, t);
    reg.gauge(MetricKey::aggregate("security", "cross_tenant_attempts"), cross_attempts as f64);
    reg.gauge(MetricKey::aggregate("security", "cross_tenant_denied"), cross_denied as f64);
    reg.gauge(MetricKey::aggregate("security", "denials_audited"), audited as f64);
    reg.gauge(MetricKey::aggregate("security", "pages_ciphered"), c.stats.pages_ciphered as f64);

    let mut view = Table::new(
        "per-tenant view of the shared pool",
        &["tenant", "host port", "visible LUNs", "own I/O ok", "probes denied"],
    );
    let probes = format!("{}/{}", cross_denied / 2, cross_attempts / 2);
    view.row(vec!["A".into(), "0".into(), format!("{luns_a:?}"), (own_ok / 2).to_string(), probes.clone()]);
    view.row(vec!["B".into(), "1".into(), format!("{luns_b:?}"), (own_ok / 2).to_string(), probes]);
    let mut disk = Table::new(
        "removed-disk disclosure (tenant A, page 0)",
        &["bytes", "value"],
    );
    disk.row(vec!["host plaintext".into(), hex(&plain)]);
    disk.row(vec!["on the media".into(), hex(&media)]);
    disk.row(vec!["deciphered (volume key)".into(), hex(&dec)]);

    let checkpoints = vec![
        Checkpoint {
            claim: "§5: no cross-tenant frame ever succeeds — mask and zones fail closed",
            metric: "security.cross_tenant_denied".into(),
            observed: format!("{cross_denied}/{cross_attempts}"),
            target: format!("== {cross_attempts}"),
            pass: cross_denied == cross_attempts && cross_attempts > 0,
        },
        Checkpoint {
            claim: "§5.2: ReportLuns hides the other tenant's volume existence",
            metric: "report_luns(A), report_luns(B)".into(),
            observed: format!("{luns_a:?}, {luns_b:?}"),
            target: "own volume only".into(),
            pass: leak_free,
        },
        Checkpoint {
            claim: "§5.2: every denial is in the audit trail",
            metric: "security.denials_audited".into(),
            observed: audited.to_string(),
            target: format!("== {}", target.stats.denied),
            pass: audited == target.stats.denied && audited == cross_denied,
        },
        Checkpoint {
            claim: "§5.1: media bytes are ciphertext; only the volume key recovers them",
            metric: "media_tag(vol_a, 0)".into(),
            observed: if ciphered_at_rest { "ciphered, round-trips".into() } else { "PLAINTEXT".to_string() },
            target: "!= plaintext, deciphers back".into(),
            pass: ciphered_at_rest,
        },
    ];
    RunReport {
        scenario: "secure-tenants",
        tables: vec![view, disk],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

/// §5.1 (E11): the encryption ablation on the Figure 1 striping topology.
/// A 64 MiB stream is written through the pool with the cipher off, with
/// the hardware engine, and in software: hardware assist must hold the
/// stream within 5% of crypt-off while the software path measurably
/// degrades it.
fn wire_speed_crypt() -> RunReport {
    const CHUNK: u64 = 1 << 20;
    const CHUNKS: u64 = 64;

    let drive = |enc: EncryptionConfig| -> (BladeCluster, f64, SimTime) {
        let mut c = BladeCluster::new(ClusterConfig::default().with_encryption(enc));
        let vol = c.create_volume("stream", 0, 1 << 30).expect("volume");
        let mut t = SimTime::ZERO;
        for i in 0..CHUNKS {
            t = c
                .write(t, 0, vol, i * CHUNK, CHUNK, 1, Retention::Normal)
                .expect("stream write")
                .done;
        }
        c.drain();
        let gbps = (CHUNKS * CHUNK) as f64 * 8.0 / t.nanos() as f64;
        (c, gbps, t)
    };

    let (_c_off, off, _) = drive(EncryptionConfig::off());
    let (c_hw, hw, hw_end) = drive(EncryptionConfig::full_hw());
    let (c_sw, sw, _) = drive(EncryptionConfig::full_sw());
    let hw_ratio = hw / off;
    let sw_ratio = sw / off;

    let mut reg = MetricsRegistry::new();
    collect_cluster(&mut reg, &c_hw, hw_end);
    reg.gauge(MetricKey::aggregate("crypt", "gbps_off"), off);
    reg.gauge(MetricKey::aggregate("crypt", "gbps_hw"), hw);
    reg.gauge(MetricKey::aggregate("crypt", "gbps_sw"), sw);
    reg.gauge(MetricKey::aggregate("crypt", "hw_wire_ratio"), hw_ratio);
    reg.gauge(MetricKey::aggregate("crypt", "sw_wire_ratio"), sw_ratio);

    let mut table = Table::new(
        "64 MiB stream through the 4-blade pool, by cipher deployment",
        &["cipher", "Gb/s", "vs off", "pages ciphered"],
    );
    table.row(vec!["off".into(), f2(off), "1.00".into(), "0".into()]);
    table.row(vec!["hardware engine".into(), f2(hw), f3(hw_ratio), c_hw.stats.pages_ciphered.to_string()]);
    table.row(vec!["software".into(), f2(sw), f3(sw_ratio), c_sw.stats.pages_ciphered.to_string()]);

    let checkpoints = vec![
        Checkpoint {
            claim: "§5.1: hardware-assist encryption runs at wire speed — within 5% of crypt-off",
            metric: "crypt.hw_wire_ratio".into(),
            observed: f3(hw_ratio),
            target: ">= 0.95".into(),
            pass: hw_ratio >= 0.95,
        },
        Checkpoint {
            claim: "§5.1: software crypt measurably degrades the same stream",
            metric: "crypt.sw_wire_ratio".into(),
            observed: f3(sw_ratio),
            target: "< 0.90".into(),
            pass: sw_ratio < 0.90,
        },
        Checkpoint {
            claim: "§5.1: the cipher costs something real in either deployment",
            metric: "crypt.gbps_off > gbps_hw > gbps_sw".into(),
            observed: format!("{} > {} > {}", f2(off), f2(hw), f2(sw)),
            target: "strictly ordered".into(),
            pass: off > hw && hw > sw,
        },
        Checkpoint {
            claim: "§5.1: the ciphered runs actually ciphered every destaged page",
            metric: "cluster.pages_ciphered (hw run)".into(),
            observed: c_hw.stats.pages_ciphered.to_string(),
            target: format!(">= {}", CHUNKS * (CHUNK / (64 * 1024))),
            pass: c_hw.stats.pages_ciphered >= CHUNKS * (CHUNK / (64 * 1024))
                && c_sw.stats.pages_ciphered == c_hw.stats.pages_ciphered,
        },
    ];
    RunReport {
        scenario: "wire-speed-crypt",
        tables: vec![table],
        checkpoints,
        registry: reg,
        events: Vec::new(),
        dropped: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_runs_and_passes_its_checkpoints() {
        for (name, _) in SCENARIOS {
            let report = run(name).expect("known scenario");
            assert_eq!(&report.scenario, name);
            for c in &report.checkpoints {
                assert!(c.pass, "{name}: {}", c.render());
            }
            assert!(!report.registry.is_empty(), "{name} collected no metrics");
        }
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(run("nope").is_none());
    }

    #[test]
    fn stripe4x2_trace_is_valid_chrome_json() {
        let report = run("stripe4x2").expect("scenario");
        assert!(!report.events.is_empty(), "the traced run produced span events");
        let json = crate::chrome::chrome_trace_json(&report.events);
        let v = serde_json::parse_value(&json).expect("valid Chrome trace JSON");
        match v.get("traceEvents") {
            Some(serde_json::Value::Arr(a)) => assert_eq!(a.len(), report.events.len()),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
