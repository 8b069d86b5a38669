//! The claims only `ys-report` runs: each drives a subsystem the way the
//! paper describes it, collects the registry (and, where it has one, the
//! trace), and checks the paper's claim as checkpoints. The merged
//! claims `report` also prints live in [`crate::experiments`].

use crate::collect::{collect_cache, collect_qos};
use crate::registry::{MetricKey, MetricsRegistry};
use crate::report::{f2, Checkpoint, RunReport, Table};
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, LoadBalance};
use ys_proto::Workload;
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

/// The p99 of `lat`, exactly: the sorted sample at index ⌊0.99·n⌋.
fn exact_p99(lat: &[SimDuration]) -> SimDuration {
    let mut v = lat.to_vec();
    v.sort();
    v[((v.len() * 99) / 100).min(v.len() - 1)]
}

/// A Premium tenant (2 ms latency budget) beside a Scavenger
/// tenant held to `mb_per_sec`, a `burst`-byte bucket and `inflight`
/// requests in flight; nothing waits more than 5 ms for admission.
fn premium_over_scavenger(
    premium: (u32, &str),
    scavenger: (u32, &str),
    mb_per_sec: u64,
    burst: u64,
    inflight: u32,
) -> QosConfig {
    QosConfig::new()
        .with_tenant(
            TenantSpec::new(premium.0, premium.1, QosClass::Premium).latency_budget(SimDuration::from_millis(2)),
        )
        .with_tenant(
            TenantSpec::new(scavenger.0, scavenger.1, QosClass::Scavenger)
                .rate_mb_per_sec(mb_per_sec)
                .burst_bytes(burst)
                .inflight_cap(inflight),
        )
        .with_max_delay(SimDuration::from_millis(5))
}

/// The table of each run's p99 against the first run's, the solo envelope.
/// Returns it with each run's p99 and slowdown.
fn p99_table<const N: usize>(title: &str, runs: [(&str, &[SimDuration]); N]) -> (Table, [(SimDuration, f64); N]) {
    let solo = exact_p99(runs[0].1);
    let mut table = Table::new(title, &["run", "p99 µs", "vs solo"]);
    let p99s = runs.map(|(label, lat)| {
        let p99 = exact_p99(lat);
        let slowdown = p99.nanos() as f64 / solo.nanos() as f64;
        table.row(vec![label.into(), f2(p99.as_micros_f64()), f2(slowdown)]);
        (p99, slowdown)
    });
    (table, p99s)
}

/// The Premium tenant noisy-neighbor and bitrot-scrub protect: the first
/// volume of a 2-blade page-affinity cluster, a cache-resident working set
/// of 64 pages read open-loop, and what those reads saw.
struct Victim {
    vol: VolumeId,
    latencies: Vec<SimDuration>,
    shed: u64,
}

impl Victim {
    const TENANT: u32 = 1;
    const IO: u64 = 64 * 1024;
    const SET_PAGES: u64 = 64;

    /// The victim's cluster under `qos`, its volume created.
    fn cluster(qos: QosConfig) -> (BladeCluster, Victim) {
        let cfg = ClusterConfig::default()
            .with_blades(2)
            .with_disks(8)
            .with_load_balance(LoadBalance::PageAffinity)
            .with_qos(qos);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("victim", 0, 1 << 30).expect("volume");
        (c, Victim { vol, latencies: Vec::new(), shed: 0 })
    }

    /// Read the working set into cache, one page after another from `t`;
    /// returns the last completion.
    fn warm(&self, c: &mut BladeCluster, mut t: SimTime) -> SimTime {
        for i in 0..Self::SET_PAGES {
            t = c.read(t, 0, self.vol, i * Self::IO, Self::IO).expect("warm").done;
        }
        t
    }

    /// The `i`th open-loop read, issued at `at`: its latency, or a shed.
    fn read(&mut self, c: &mut BladeCluster, at: SimTime, i: u64) {
        let off = (i % Self::SET_PAGES) * Self::IO;
        match c.read_as(at, Self::TENANT, 0, self.vol, off, Self::IO) {
            Ok(done) => self.latencies.push(done.latency),
            Err(_) => self.shed += 1,
        }
    }
}

/// Multi-tenant isolation: a scavenger-class tenant floods the cluster
/// open-loop while a premium tenant runs a light cache-resident read
/// workload. Without QoS the victim's p99 read latency collapses; with
/// `ys-qos` admission control the flood is shed at the door and the
/// victim stays within its solo envelope.
pub fn noisy_neighbor() -> RunReport {
    const HOG_IO: u64 = 256 * 1024;
    const VICTIM_OPS: u64 = 500;
    const HOG_OPS: u64 = 300;
    const HOG: u32 = 2;
    // The victim runs well below saturation (~600 µs service every 2 ms),
    // so its solo latency is a stable envelope; the hog demands 20 GB/s.
    let victim_gap = SimDuration::from_millis(2);
    let hog_gap = SimDuration::from_micros(50);

    // One contention experiment: warm the victim's working set, then replay
    // both tenants' open-loop schedules merged in issue order. Returns the
    // cluster, the victim, and the hog's shed count.
    let drive = |qos: QosConfig, with_hog: bool| -> (BladeCluster, Victim, u64) {
        let (mut c, mut victim) = Victim::cluster(qos);
        let hogv = c.create_volume("hog", 0, 1 << 30).expect("volume");
        let t = victim.warm(&mut c, SimTime::ZERO);
        // Open-loop: issue times are fixed by the schedule, not by
        // completions — exactly how a noisy neighbor keeps pushing.
        let mut ops: Vec<(SimTime, bool, u64)> =
            (0..VICTIM_OPS).map(|i| (t + victim_gap * i, false, i)).collect();
        if with_hog {
            ops.extend((0..HOG_OPS).map(|i| (t + hog_gap * i, true, i)));
        }
        ops.sort_by_key(|&(at, is_hog, _)| (at, is_hog));
        let mut hog_shed = 0u64;
        for (at, is_hog, i) in ops {
            if !is_hog {
                victim.read(&mut c, at, i);
            } else if c.write_as(at, HOG, 1, hogv, (i % 1024) * HOG_IO, HOG_IO, 2, Retention::Normal).is_err() {
                hog_shed += 1;
            }
        }
        (c, victim, hog_shed)
    };

    let policy = premium_over_scavenger((Victim::TENANT, "victim"), (HOG, "hog"), 5, 256 * 1024, 2);
    let (_, solo_run, _) = drive(QosConfig::disabled(), false);
    let (_, flood_run, _) = drive(QosConfig::disabled(), true);
    let (guarded, fair_run, hog_shed) = drive(policy, true);
    let victim_shed = fair_run.shed;
    let (table, [(solo, _), (flood, flood_x), (fair, fair_x)]) = p99_table(
        "victim p99 read latency (500 cache-resident 64 KiB reads)",
        [
            ("solo", &solo_run.latencies),
            ("flooded, no QoS", &flood_run.latencies),
            ("flooded, ys-qos", &fair_run.latencies),
        ],
    );

    let mut reg = MetricsRegistry::new();
    collect_qos(&mut reg, guarded.qos());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_solo_us"), solo.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_flood_us"), flood.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_p99_guarded_us"), fair.as_micros_f64());
    reg.gauge(MetricKey::aggregate("qos", "victim_slowdown_flood"), flood_x);
    reg.gauge(MetricKey::aggregate("qos", "victim_slowdown_guarded"), fair_x);

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
    RunReport { tables: vec![table, adm], checkpoints, registry: reg, ..RunReport::default() }
}

/// `ys-heal` rolling maintenance: drain and rejoin every blade in turn
/// while a premium tenant keeps reading its 2-way-dirty working set, with
/// the Scavenger-class healer restoring redundancy after each rejoin.
/// Planned maintenance must lose nothing, keep the foreground p99 within
/// 1.5x its solo envelope, and end with the cluster back at `Healthy`.
pub fn rolling_restart() -> RunReport {
    use ys_heal::{HealConfig, Healer};

    const IO: u64 = 64 * 1024; // one cache page per op
    const SET_PAGES: u64 = 48; // 3 MiB working set, written 2-way
    const OPS_PER_PHASE: u64 = 120;
    const FG: u32 = 1;
    const HEALER: u32 = 9;
    const BLADES: usize = 4;
    let gap = SimDuration::from_millis(2);

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
            .with_qos(premium_over_scavenger((FG, "foreground"), (HEALER, "healer"), 50, 1 << 20, 4))
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
    let (_, solo_lat, solo_errors, _) = drive(false);
    let (c, roll_lat, roll_errors, phases) = drive(true);
    let (lat_table, [(solo, _), (roll, slowdown)]) = p99_table(
        "foreground p99 write-ack latency (480 open-loop 64 KiB 2-way writes)",
        [("solo", &solo_lat), ("rolling restart", &roll_lat)],
    );
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
    RunReport { tables: vec![table, lat_table], checkpoints, registry: reg, ..RunReport::default() }
}

/// End-to-end integrity under load: latent media errors rot a data volume
/// while a premium tenant runs its cache-resident read workload. A
/// Scavenger-class `ys-scrub` pass walks the cluster between foreground
/// ops, detects every injected error, and repairs it in place — without
/// pushing the victim's p99 outside its solo envelope. The scrub is the
/// noisy neighbor here, and QoS admission keeps it polite.
pub fn bitrot_scrub() -> RunReport {
    use ys_scrub::{ScrubConfig, ScrubReport, ScrubTarget, Scrubber};

    const DATA_BYTES: u64 = 16 << 20; // at-rest volume the rot lands in
    const ERRORS: u64 = 24;
    const STRIDE: u64 = 10; // > data members, so every rotten row is unique
    const VICTIM_OPS: u64 = 400;
    const SCRUB: u32 = 3;
    let victim_gap = SimDuration::from_millis(2);

    // One run: write the data volume, rot ERRORS of its pages, warm the
    // victim's working set, then replay the victim's open-loop read
    // schedule — optionally with a Scavenger-tenant scrub pass ticking
    // between foreground ops. Returns the cluster, the victim, and the
    // scrub report (empty when off).
    let drive = |with_scrub: bool| -> (BladeCluster, Victim, ScrubReport) {
        let policy = premium_over_scavenger((Victim::TENANT, "victim"), (SCRUB, "scrubber"), 50, 1 << 20, 2);
        let (mut c, mut victim) = Victim::cluster(policy);
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
        t = victim.warm(&mut c, t);
        let mut scrubber = Scrubber::new(
            ScrubConfig { tenant: Some(SCRUB) },
            &c,
        );
        let mut scrub_now = t;
        for i in 0..VICTIM_OPS {
            let at = t + victim_gap * i;
            if with_scrub && !scrubber.is_done() {
                let mut target = ScrubTarget::Cluster(&mut c);
                scrub_now = scrubber.step(&mut target, scrub_now.max(at)).expect("scrub step");
            }
            victim.read(&mut c, at, i);
        }
        // The foreground window closes; the pass trickles to completion.
        if with_scrub && !scrubber.is_done() {
            let mut target = ScrubTarget::Cluster(&mut c);
            scrubber.run(&mut target, scrub_now.max(t + victim_gap * VICTIM_OPS)).expect("scrub finish");
        }
        (c, victim, scrubber.report().clone())
    };

    let (unscrubbed, solo_run, _) = drive(false);
    let (scrubbed, scrub_run, report) = drive(true);
    let victim_shed = scrub_run.shed;
    let (table, [(solo, _), (under, under_x)]) = p99_table(
        "victim p99 read latency (400 cache-resident 64 KiB reads)",
        [("no scrub", &solo_run.latencies), ("background scrub", &scrub_run.latencies)],
    );
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
    RunReport { tables: vec![table, pass], checkpoints, registry: reg, ..RunReport::default() }
}

/// §6.1 end-to-end, via `ys-chaos`: a seeded fault campaign crashes blades
/// at adversarial trace-spine instants (mid-destage, mid-promotion) and the
/// recovery oracle checks every paper promise against a shadow model. The
/// fatal arm appends a deliberate N-failure, which must surface as an
/// *explicit* `acked-write-lost` — never a silent stale read — and shrink
/// to a minimal replayable `--seed S --keep i,j` schedule.
pub fn crash_nway() -> RunReport {
    use ys_cache::durability::{ACKED_WRITE_LOST, LOSS_WITHIN_BUDGET};
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

    let fatal_loud = fatal.violations.iter().any(|v| v.rule == ACKED_WRITE_LOST);
    let fatal_clean = fatal.violations.iter().all(|v| v.rule != LOSS_WITHIN_BUDGET);
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
            observed: if fatal_loud { ACKED_WRITE_LOST.into() } else { "missing".into() },
            target: "present".into(),
            pass: fatal_loud,
        },
        Checkpoint {
            claim: "no loss ever hides inside the §6.1 budget (that would be a bug)",
            metric: format!("fatal.{LOSS_WITHIN_BUDGET}"),
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
    RunReport { tables: vec![runs, rec, shrink], checkpoints, registry: reg, ..RunReport::default() }
}

/// §7 end-to-end, via `ys-chaos`: hand-built adversarial schedule that cuts
/// the WAN trunks out of the home site — the first exactly as an async geo
/// batch is on the wire — then heals them. The recovery oracle requires the
/// backlog to drain gapless afterwards: shipped == enqueued, intact acked
/// prefix, nothing stuck in flight.
pub fn partition_heal() -> RunReport {
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
    RunReport { tables: vec![sched, out], checkpoints, registry: reg, ..RunReport::default() }
}

/// §6.3 at the national-lab deployment's shape: a Zipf(0.99) workload with
/// 30 % 2-way writes over eight page-affinity blades (RAID-5 and 256 MiB of
/// cache per blade, the defaults), while a blade fails and is repaired and
/// a disk dies mid-run — "if any given portion of the system failed, access
/// to data would continue through remaining portions". Each fault lands
/// before the first operation issued at or after its instant; a refused
/// operation counts as failed and the next one is issued 1 ms later.
pub fn national_lab() -> RunReport {
    const OPS: usize = 5000;
    let cfg = ClusterConfig::default()
        .with_blades(8)
        .with_disks(24)
        .with_clients(16)
        .with_load_balance(LoadBalance::PageAffinity)
        .with_prefetch(4);
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("lab", 0, 1 << 30).expect("volume");
    type Fault = fn(&mut BladeCluster, SimTime);
    // (instant in ms, fault), in time order.
    let faults: [(u64, Fault); 3] = [
        (200, |c, t| {
            c.fail_blade(t, 0);
        }),
        (500, |c, _| c.fail_disk(DiskId(7))),
        (900, |c, _| c.repair_blade(0)),
    ];
    let mut faults = faults.into_iter().peekable();
    let mut workload = Workload::zipf(512 << 20, 64 << 10, 0.99, 0.3, 2002);
    let (mut ops_completed, mut ops_failed, mut bytes_moved) = (0u64, 0u64, 0u64);
    let mut t = SimTime::ZERO;
    for i in 0..OPS {
        while let Some((_, fault)) = faults.next_if(|&(ms, _)| SimTime::ZERO + SimDuration::from_millis(ms) <= t) {
            fault(&mut c, t);
        }
        let op = workload.next_op();
        let client = i % c.config().clients;
        let outcome = if op.write {
            c.write(t, client, vol, op.offset, op.len, 2, Retention::Normal)
        } else {
            c.read(t, client, vol, op.offset, op.len)
        };
        match outcome {
            Ok(done) => {
                ops_completed += 1;
                bytes_moved += op.len;
                t = done.done;
            }
            Err(_) => {
                ops_failed += 1;
                t = SimTime(t.nanos() + 1_000_000);
            }
        }
    }
    let availability = ops_completed as f64 / OPS as f64;
    let dirty_pages_lost = c.stats.dirty_pages_lost;

    let s = &c.stats;
    let outcome = [
        ("ops_completed", ops_completed as f64),
        ("ops_failed", ops_failed as f64),
        ("availability", availability),
        ("mb_moved", bytes_moved as f64 / 1e6),
        ("read_p50_ms", s.read_latency.p50().as_millis_f64()),
        ("read_p99_ms", s.read_latency.p99().as_millis_f64()),
        ("write_p99_ms", s.write_latency.p99().as_millis_f64()),
        ("dirty_pages_lost", dirty_pages_lost as f64),
        ("cache_local_hits", s.reads_from_local_cache as f64),
        ("cache_remote_hits", s.reads_from_remote_cache as f64),
        ("disk_reads", s.reads_from_disk as f64),
    ];
    let mut reg = MetricsRegistry::new();
    collect_cache(&mut reg, c.cache.stats());
    let mut table = Table::new(
        "5000 ops, 8 blades x 24 disks RAID-5; blade 0 fails at 200 ms and returns at 900 ms, disk 7 fails at 500 ms",
        &["outcome", "value"],
    );
    for (name, v) in outcome {
        reg.gauge(MetricKey::aggregate("lab", name), v);
        table.row(vec![name.into(), format!("{v}")]);
    }
    let checkpoints = vec![
        Checkpoint {
            claim: "§6.3: a blade failure, its repair and a disk failure refuse no request",
            metric: "lab.availability".into(),
            observed: format!("{availability}"),
            target: "== 1".into(),
            pass: ops_failed == 0,
        },
        Checkpoint {
            claim: "§6.1: 2-way write-back loses no dirty page through the blade failure",
            metric: "lab.dirty_pages_lost".into(),
            observed: dirty_pages_lost.to_string(),
            target: "== 0".into(),
            pass: dirty_pages_lost == 0,
        },
    ];
    RunReport { tables: vec![table], checkpoints, registry: reg, ..RunReport::default() }
}

/// §5 and §5.2 end to end: the fortified ring. An administrator logs in and
/// drives the management plane; two hosts reach the pool, one through the
/// block target and one through the NAS head. Every request meets the real
/// gates — token and role, the fail-closed ingress zone, the in-band
/// command filter, the LUN mask, the export — and every refusal must land
/// in its audit log exactly once. The mask the plane administers is the
/// one both data heads enforce.
pub fn fortified_ring() -> RunReport {
    use ys_core::{AdminError, AdminOp, AdminOutcome, BlockTarget, FileReply, FileServer, ManagementPlane};
    use ys_core::{NetStorage, NetStorageConfig};
    use ys_proto::{block, file, BlockCmd, BlockStatus, FileOp};
    use ys_security::{AuditEvent, AuditLog, AuthService, ControlCommand, InitiatorId, PortZone, Role};
    use ys_security::SecurityViolation::{InBandDenied, MaskDenied, ZoneBreach};
    type Step = (Result<AdminOutcome, AdminError>, Vec<AuditEvent>);

    const HOST: usize = 0;
    const UNZONED: usize = 5;
    const BRIDGE: usize = 8;
    const MGMT: usize = 9;
    const TTL_NS: u64 = 3_600_000_000_000;
    const MB: u64 = 1 << 20;
    let t0 = SimTime::ZERO;
    let entries = |log: &AuditLog| log.events().iter().map(|(_, e)| e.clone()).collect::<Vec<_>>();

    let mut auth = AuthService::new(2002);
    let ops = auth.register("ops", 0, Role::Admin, 1);
    let pi = auth.register("physics-pi", 1, Role::User, 2);
    let login = |who| {
        let response = auth.client_response(who, 7).expect("registered principal");
        auth.login(who, 7, response, t0, TTL_NS).expect("its own secret")
    };
    let (admin, user) = (login(ops), login(pi));
    let mut plane = ManagementPlane::new(auth);
    plane.mask.set_zone(HOST, PortZone::HostSide);
    plane.mask.set_zone(BRIDGE, PortZone::DiskSide);
    plane.mask.set_zone(MGMT, PortZone::Management);
    plane.mask.disable_inband(HOST, ControlCommand::DeleteVolume);
    let mut ns = NetStorage::new(NetStorageConfig {
        site_cluster: ClusterConfig::default().with_blades(4).with_disks(12).with_clients(4),
        ..NetStorageConfig::default()
    });

    // One control op: what the plane answered, and the entries it audited.
    let mut control_table = Table::new("control ops through the management plane", &["op", "port", "outcome", "audited"]);
    let mut control = |plane: &mut ManagementPlane, what: &str, token, port, op, now| -> Step {
        let before = plane.audit.events().len();
        let r = plane.execute(&mut ns.clusters[0], token, port, op, now);
        let audited = entries(&plane.audit).split_off(before);
        let outcome = r.as_ref().map_or_else(|e| e.to_string(), |o| format!("{o:?}"));
        let labels: Vec<String> = audited
            .iter()
            .map(|e| match e {
                AuditEvent::LoginFailed { .. } => "LoginFailed".into(),
                AuditEvent::PolicyChange { .. } => "PolicyChange".into(),
                AuditEvent::Violation(v) => v.to_string(),
            })
            .collect();
        control_table.row(vec![what.into(), port.to_string(), outcome, labels.join(", ")]);
        (r, audited)
    };
    let performed = |(r, a): &Step| r.is_ok() && matches!(a[..], [AuditEvent::PolicyChange { .. }]);
    let created = |(r, _): &Step| match r {
        Ok(AdminOutcome::VolumeCreated(v)) => *v,
        _ => VolumeId(0),
    };
    let create = |name: &str| AdminOp::CreateVolume { group: 0, name: name.into(), tenant: 1, bytes: 10 << 30 };

    let by_user = control(&mut plane, "create (User token)", &user, MGMT, create("by-user"), t0);
    let late = SimTime(TTL_NS + 1);
    let expired = control(&mut plane, "create (expired Admin token)", &admin, MGMT, create("late"), late);
    let by_admin = control(&mut plane, "create (Admin token)", &admin, MGMT, create("san-lun"), t0);
    let vol = created(&by_admin);
    let auth_refused = [by_user, expired]
        .iter()
        .filter(|(r, a)| matches!(r, Err(AdminError::Auth(_))) && matches!(a[..], [AuditEvent::LoginFailed { .. }]))
        .count();

    let delete = AdminOp::DeleteVolume { vol: created(&control(&mut plane, "create", &admin, MGMT, create("tmp"), t0)) };
    let (r, a) = control(&mut plane, "delete in-band", &admin, HOST, delete.clone(), t0);
    let refusal = InBandDenied { port: HOST, command: ControlCommand::DeleteVolume };
    let inband_refused = matches!(&r, Err(AdminError::PathDenied(v)) if *v == refusal)
        && a == [AuditEvent::Violation(refusal)];
    let out_of_band = performed(&control(&mut plane, "delete out-of-band", &admin, MGMT, delete, t0));

    let mut zone_refused = 0;
    for port in [UNZONED, BRIDGE] {
        let (r, a) = control(&mut plane, "create on a non-host port", &admin, port, create("smuggled"), t0);
        zone_refused += usize::from(
            matches!(&r, Err(AdminError::PathDenied(v)) if *v == ZoneBreach { port })
                && a == [AuditEvent::Violation(ZoneBreach { port })],
        );
    }

    // The plane grants each host its export; both heads enforce its mask.
    let (san_host, nas_host, spy) = (InitiatorId(1), InitiatorId(2), InitiatorId(66));
    let mut grants = 0;
    for (initiator, vol) in [(san_host.0, vol), (nas_host.0, FileServer::NAMESPACE_VOL)] {
        let grant = AdminOp::MaskGrant { initiator, vol };
        grants += usize::from(performed(&control(&mut plane, "mask grant", &admin, MGMT, grant, t0)));
    }

    let mut data_table = Table::new("data frames through the block target and the NAS head", &["frame", "port", "reply"]);
    let mut target = BlockTarget::new(2, BRIDGE);
    target.mask = plane.mask.clone();
    let mut t = t0;
    let mut block_good = 0;
    for lba in (0..8192u64).step_by(2048) {
        for cmd in [BlockCmd::Write { lun: vol.0, lba, sectors: 2048 }, BlockCmd::Read { lun: vol.0, lba, sectors: 2048 }] {
            let r = target.handle(&mut ns.clusters[0], san_host, 0, HOST, t, block::encode(&cmd));
            block_good += usize::from(r.status == BlockStatus::Good);
            t = r.done;
        }
    }
    data_table.row(vec!["SAN host: 4 x (1 MiB write + read)".into(), HOST.to_string(), format!("{block_good} of 8 Good")]);
    let mut block_denied = 0;
    for (who, port, label) in [(spy, HOST, "unmasked initiator"), (san_host, UNZONED, "SAN host, unzoned port")] {
        let read = block::encode(&BlockCmd::Read { lun: vol.0, lba: 0, sectors: 8 });
        let r = target.handle(&mut ns.clusters[0], who, 0, port, t, read);
        block_denied += usize::from(r.status == BlockStatus::AccessDenied);
        data_table.row(vec![format!("block read: {label}"), port.to_string(), format!("{:?}", r.status)]);
    }
    let block_audited = entries(&target.audit)
        == [AuditEvent::Violation(MaskDenied { initiator: spy, volume: vol }), AuditEvent::Violation(ZoneBreach { port: UNZONED })];
    let block_ok = block_good == 8 && target.stats.bytes == 8 * MB && block_denied == 2 && block_audited;

    let mut nas = FileServer::new(ys_geo::SiteId(0));
    nas.mask = plane.mask.clone();
    let mut send = |who, port, op: FileOp| nas.handle(&mut ns, who, 0, port, t, file::encode(&op));
    send(nas_host, HOST, FileOp::Mkdir { path: "/shared".into() });
    let ino = match send(nas_host, HOST, FileOp::Create { path: "/shared/results.csv".into() }) {
        FileReply::Ino { ino, .. } => ino,
        _ => u64::MAX,
    };
    let mut nas_good = 0;
    for op in [FileOp::Write { ino, offset: 0, len: 4 * MB }, FileOp::Read { ino, offset: 0, len: 4 * MB }] {
        nas_good += usize::from(matches!(send(nas_host, HOST, op), FileReply::Ok { .. }));
    }
    data_table.row(vec!["NAS host: 4 MiB write + read".into(), HOST.to_string(), format!("{nas_good} of 2 Ok")]);
    let mut nas_denied = 0;
    for (who, port, label) in [(spy, HOST, "unexported initiator"), (nas_host, UNZONED, "NAS host, unzoned port")] {
        let r = send(who, port, FileOp::Lookup { path: "/shared/results.csv".into() });
        nas_denied += usize::from(matches!(r, FileReply::Error(_)));
        data_table.row(vec![format!("file lookup: {label}"), port.to_string(), format!("{r:?}")]);
    }
    let namespace = FileServer::NAMESPACE_VOL;
    let nas_audited = entries(&nas.audit)
        == [AuditEvent::Violation(MaskDenied { initiator: spy, volume: namespace }), AuditEvent::Violation(ZoneBreach { port: UNZONED })];
    let nas_ok = nas_good == 2 && nas.stats.bytes == 8 * MB && nas_denied == 2 && nas_audited;

    let mut reg = MetricsRegistry::new();
    for (name, v) in [
        ("auth_refused", auth_refused),
        ("inband_refused", usize::from(inband_refused)),
        ("zone_refused", zone_refused),
        ("mask_grants", grants),
        ("audit_entries", plane.audit.events().len()),
        ("block_denied", block_denied),
        ("nas_denied", nas_denied),
    ] {
        reg.gauge(MetricKey::aggregate("ring", name), v as f64);
    }
    reg.gauge(MetricKey::aggregate("ring", "block_mb"), target.stats.bytes as f64 / MB as f64);
    reg.gauge(MetricKey::aggregate("ring", "nas_mb"), nas.stats.bytes as f64 / MB as f64);
    let admin_performed = performed(&by_admin);
    let checkpoints = vec![
        Checkpoint {
            claim: "§5 authentication: a User or expired token is refused and audited; an Admin op is performed and audited",
            metric: "ring.auth_refused".into(),
            observed: format!("{auth_refused} refused, admin op performed: {admin_performed}"),
            target: "== 2, each LoginFailed once; admin op audited as PolicyChange".into(),
            pass: auth_refused == 2 && admin_performed,
        },
        Checkpoint {
            claim: "§5.2 in-band disabling: DeleteVolume is refused on the host port, performed on the management port",
            metric: "ring.inband_refused".into(),
            observed: format!("refused: {inband_refused}, then performed out-of-band: {out_of_band}"),
            target: "InBandDenied audited once; then PolicyChange".into(),
            pass: inband_refused && out_of_band,
        },
        Checkpoint {
            claim: "§5 fabric separation: a control op on an unzoned or disk-side port is a zone breach",
            metric: "ring.zone_refused".into(),
            observed: zone_refused.to_string(),
            target: "== 2, each ZoneBreach audited once".into(),
            pass: zone_refused == 2,
        },
        Checkpoint {
            claim: "§5 LUN masking at the block target: the admitted host moves bytes; a stranger and an unzoned port are denied",
            metric: "ring.block_denied".into(),
            observed: format!("{block_denied} denied, {} audited; host {block_good} of 8 Good", target.audit.events().len()),
            target: "== 2, MaskDenied + ZoneBreach audited once each".into(),
            pass: block_ok && grants == 2,
        },
        Checkpoint {
            claim: "§8 NAS head: the exported host moves bytes; an unexported initiator and an unzoned port are denied",
            metric: "ring.nas_denied".into(),
            observed: format!("{nas_denied} denied, {} audited; host {nas_good} of 2 Ok", nas.audit.events().len()),
            target: "== 2, MaskDenied + ZoneBreach audited once each".into(),
            pass: nas_ok && grants == 2,
        },
    ];
    RunReport { tables: vec![control_table, data_table], checkpoints, registry: reg, ..RunReport::default() }
}

#[cfg(test)]
mod tests {
    use crate::claims::{by_name, CLAIMS};

    /// Every claim in the registry, whichever door it is reached by.
    #[test]
    fn every_scenario_runs_and_passes_its_checkpoints() {
        for claim in CLAIMS {
            let report = (claim.run)();
            for c in &report.checkpoints {
                assert!(c.pass, "{}: {c:?}", claim.what);
            }
            if let Some(name) = claim.name {
                assert!(report.registry.iter().next().is_some(), "{name} collected no metrics");
            }
        }
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn stripe4x2_trace_is_valid_chrome_json() {
        let report = (by_name("stripe4x2").expect("scenario").run)();
        assert!(!report.events.is_empty(), "the traced run produced span events");
        let json = ys_simcore::chrome_trace_json(&report.events);
        let v = serde_json::parse_value(&json).expect("valid Chrome trace JSON");
        match v.get("traceEvents") {
            Some(serde_json::Value::Arr(a)) => assert_eq!(a.len(), report.events.len()),
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
