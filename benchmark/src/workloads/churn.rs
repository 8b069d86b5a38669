//! `blade-churn`: the maintenance planes at four times the blade count of
//! every other workload.
//!
//! 16 blades hold 16 384 pages, written 2-way and flushed. Each round a
//! Premium foreground tenant checkpoints the next 512 pages of the set
//! (2-way writes, dirty for seconds: the disks absorb them far slower
//! than the caches ack them), then a blade fails under it. A Scavenger-class
//! [`Healer`] restores full redundancy while the foreground keeps reading
//! and rewriting its checkpoint; the blade is revived and rejoins. Every
//! blade takes its turn, and pages of earlier checkpoints are still dirty
//! when later blades fail, so the heal queue grows round by round. Then one
//! scrub pass finds and repairs 64 injected latent errors, and an 8-worker
//! distributed rebuild replaces one disk. The heal work is `Healer::tick`
//! and `Healer::run` themselves — the scan-shaped paths
//! (`under_target_pages`, `health`, scrub planning) are measured as the
//! program runs them, not as the benchmark imitates them.
//!
//! The foreground stays inside its checkpoint region on purpose: those
//! pages are dirty, hence cached, hence hits. A read that missed would
//! queue behind seconds of pending destage writes on the simulated disks
//! and carry its client — and the simulated clock — past every destage,
//! leaving the healer nothing to do.

use super::{closed_loop, cluster_counters, measured_counts, ClientStats, Rep};
use crate::spans::{Kind, Tracer};
use std::collections::BTreeSet;
use std::time::Instant;
use ys_cache::{Health, Retention};
use ys_core::{BladeCluster, ClusterConfig, ClusterError, Rebuilder};
use ys_heal::{HealConfig, Healer};
use ys_proto::Workload as Generator;
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_scrub::{ScrubConfig, ScrubTarget, Scrubber};
use ys_simcore::time::SimTime;
use ys_simcore::Rng;
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

const BLADES: usize = 16;
const PAGE: u64 = 64 << 10;
const PAGES: u64 = 16_384;
/// Foreground tenant (Premium: never shed) and maintenance tenant
/// (Scavenger: shed under dirty pressure, forced through after a backoff).
const FOREGROUND: u32 = 1;
const MAINTENANCE: u32 = 9;
const TENANTS: [u32; 2] = [FOREGROUND, MAINTENANCE];
/// Pages checkpointed per round at full size; the 16 regions cover half
/// the set.
const CHECKPOINT: u64 = 512;
/// The first heal ticks of a round are each followed by this many foreground
/// operations (70 % reads), so they compete with live traffic for admission;
/// `Healer::run` finishes the round.
const INTERLEAVED_TICKS: usize = 8;
const TICK_SLICE: u64 = 32;
const LATENT_ERRORS: usize = 64;
const REBUILD_REGION: u64 = 256 << 20;
const REBUILD_BATCH_ROWS: u64 = 16;
const REBUILD_WORKERS: usize = 8;

struct Churn {
    c: BladeCluster,
    vol: VolumeId,
    /// Offsets within one checkpoint region, 30 % writes.
    gen: Generator,
    /// Pages per checkpoint region.
    checkpoint: u64,
    fg: ClientStats,
    t: SimTime,
}

impl Churn {
    /// Byte offset of `round`'s checkpoint region.
    fn region(&self, round: usize) -> u64 {
        (round as u64 * self.checkpoint % PAGES) * PAGE
    }

    /// The foreground checkpoints `round`'s region: every page once, 2-way.
    fn write_checkpoint(&mut self, tr: &mut Tracer, round: usize) {
        let base = self.region(round);
        let Churn { c, vol, checkpoint, fg, t, .. } = self;
        let mut next = 0u64;
        closed_loop(tr, fg, *t, *checkpoint, |tr, client, now, req| {
            let off = base + next * PAGE;
            next += 1;
            let done = tr.leaf(Kind::CoreWrite, req, || {
                c.write_as(now, FOREGROUND, client, *vol, off, PAGE, 2, Retention::Normal)
            })?;
            Ok((done.done, PAGE))
        });
        *t = (*t).max(fg.end);
    }

    /// `ops` foreground operations (70 % reads) over `round`'s region.
    fn foreground(&mut self, tr: &mut Tracer, round: usize, ops: u64) {
        let base = self.region(round);
        let Churn { c, vol, gen, fg, t, .. } = self;
        closed_loop(tr, fg, *t, ops, |tr, client, now, req| {
            let op = tr.leaf(Kind::ProtoNextOp, req, || gen.next_op());
            let off = base + op.offset;
            let done = if op.write {
                tr.leaf(Kind::CoreWrite, req, || {
                    c.write_as(now, FOREGROUND, client, *vol, off, op.len, 2, Retention::Normal)
                })?
            } else {
                tr.leaf(Kind::CoreRead, req, || c.read_as(now, FOREGROUND, client, *vol, off, op.len))?
            };
            Ok((done.done, op.len))
        });
        *t = (*t).max(fg.end);
    }
}

#[derive(Default)]
struct HealTotals {
    ticks: u64,
    shed_ticks: u64,
    replicas_placed: u64,
    unconverged: u64,
}

impl HealTotals {
    fn add(&mut self, h: &Healer) {
        let r = h.report();
        self.ticks += r.ticks;
        self.shed_ticks += r.shed_ticks;
        self.replicas_placed += r.replicas_placed;
        self.unconverged += u64::from(!r.converged);
    }
}

pub fn blade_churn(seed: u64, scale: u64, tr: &mut Tracer) -> Rep {
    let rounds = (BLADES as u64 / scale).max(2) as usize;
    let checkpoint = (CHECKPOINT / scale).max(64);
    let setup = Instant::now();
    let qos = QosConfig::new()
        .with_tenant(TenantSpec::new(FOREGROUND, "foreground", QosClass::Premium))
        .with_tenant(TenantSpec::new(MAINTENANCE, "maintenance", QosClass::Scavenger));
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(BLADES).with_qos(qos));
    let vol = c.create_volume("churn", FOREGROUND, 1 << 40).expect("volume");
    // Preload: every page written 2-way by the closed-loop clients, then
    // flushed — mapped, on the media (the scrub pass walks all of them) and
    // clean in cache (the directory the healer scans holds all of them).
    // Administrative writes: admission control would sample the dirty ratio
    // — a walk over every cached page — 16 384 times before timing starts.
    let mut preload = ClientStats::new(SimTime::ZERO);
    let mut next = 0u64;
    closed_loop(&mut Tracer::off(), &mut preload, SimTime::ZERO, PAGES, |_, client, now, _| {
        let off = next * PAGE;
        next += 1;
        let done = c.write(now, client, vol, off, PAGE, 2, Retention::Normal)?;
        Ok((done.done, PAGE))
    });
    let t = preload.end.max(c.drain());
    let gen = Generator::random(checkpoint * PAGE, PAGE, 0.3, seed);
    let mut w = Churn { c, vol, gen, checkpoint, fg: ClientStats::new(t), t };
    let before = cluster_counters(&w.c, &TENANTS);
    let mut rep = Rep { setup_s: setup.elapsed().as_secs_f64(), failed: preload.failed, ..Rep::default() };

    let measured = Instant::now();
    let root = tr.enter(Kind::Measure, 0);
    let outcome = churn(&mut w, seed, rounds, tr);
    tr.exit(root);
    rep.wall_s = measured.elapsed().as_secs_f64();

    w.fg.report(&mut rep, scale);
    rep.failed += w.fg.failed;
    rep.counts = measured_counts(&w.c, &TENANTS, &before);
    match outcome {
        Ok(m) => m.report(&w.c, &mut rep),
        Err(e) => rep.problems.push(format!("maintenance call failed: {e}")),
    }
    rep
}

/// What the maintenance planes did over the measured phase.
struct Maintenance {
    heal: HealTotals,
    /// Simulated seconds from each blade failure to redundancy restored.
    recover_s: Vec<f64>,
    scrub: ys_scrub::ScrubReport,
    injected: usize,
    rebuild_batches: u64,
    rebuild_done: bool,
}

impl Maintenance {
    fn report(self, c: &BladeCluster, rep: &mut Rep) {
        rep.ops = self.heal.replicas_placed + self.scrub.pages_scanned + self.rebuild_batches;
        rep.sim.insert("sim.recover_s", crate::stats::median(&self.recover_s));
        rep.counts.insert("heal.ticks", self.heal.ticks as f64);
        rep.counts.insert("heal.shed_ticks", self.heal.shed_ticks as f64);
        rep.counts.insert("heal.replicas_placed", self.heal.replicas_placed as f64);
        rep.counts.insert("scrub.pages_verified", self.scrub.pages_scanned as f64);
        rep.counts.insert("scrub.repaired", self.scrub.repaired() as f64);
        rep.counts.insert("raid.rebuild_batches", self.rebuild_batches as f64);
        rep.check(self.heal.unconverged == 0, || format!("{} heal passes did not converge", self.heal.unconverged));
        rep.check(c.stats.dirty_pages_lost == 0, || format!("{} dirty pages lost", c.stats.dirty_pages_lost));
        rep.check(self.scrub.mismatch_pages == self.injected as u64, || {
            format!("scrub detected {} of {} injected latent errors", self.scrub.mismatch_pages, self.injected)
        });
        rep.check(self.scrub.fully_repaired(), || format!("scrub left damage behind: {}", self.scrub));
        rep.check(c.corrupt_page_count() == 0, || {
            format!("{} rotten pages remain on the media", c.corrupt_page_count())
        });
        rep.check(self.rebuild_done, || "rebuild did not finish".into());
        rep.check(c.health() == Health::Healthy, || format!("final health {:?}", c.health()));
    }
}

fn churn(w: &mut Churn, seed: u64, rounds: usize, tr: &mut Tracer) -> Result<Maintenance, ClusterError> {
    let governed = || Healer::new(HealConfig { tenant: Some(MAINTENANCE), ..HealConfig::default() });
    let mut heal = HealTotals::default();
    let mut recover_s = Vec::new();
    for blade in 0..rounds {
        w.write_checkpoint(tr, blade);
        let failed_at = w.t;
        tr.leaf(Kind::Lifecycle, 0, || w.c.fail_blade(failed_at, blade));
        let mut healer = governed();
        for _ in 0..INTERLEAVED_TICKS {
            w.t = tr.leaf(Kind::HealTick, 0, || healer.tick(&mut w.c, w.t))?;
            w.foreground(tr, blade, TICK_SLICE);
        }
        w.t = tr.leaf(Kind::HealRun, 0, || healer.run(&mut w.c, w.t))?;
        recover_s.push(w.t.since(failed_at).as_secs_f64());
        heal.add(&healer);

        tr.leaf(Kind::Lifecycle, 0, || w.c.revive_blade(blade))?;
        let mut rejoin = governed();
        w.t = tr.leaf(Kind::HealRun, 0, || rejoin.run(&mut w.c, w.t))?;
        heal.add(&rejoin);
        tr.leaf(Kind::Lifecycle, 0, || w.c.finish_rejoin(blade));
    }
    // Flush so the media holds every page, then rot 64 of them: one error
    // per page and per stripe row, so each is independently repairable from
    // parity (a second rotten span in a row would poison its reconstruction).
    w.t = w.t.max(tr.leaf(Kind::CoreDrain, 0, || w.c.drain()));
    let mut rng = Rng::new(seed ^ 0x5c4b_c8a5);
    let chunk = w.c.raid_geometry().chunk_size;
    let (mut pages, mut rows) = (BTreeSet::new(), BTreeSet::new());
    while pages.len() < LATENT_ERRORS {
        let page = rng.next_below(PAGES);
        let Some((disk, offset)) = w.c.locate_volume_page(w.vol, page) else { continue };
        if pages.contains(&page) || !rows.insert(offset / chunk) {
            continue;
        }
        if w.c.corrupt_disk_page(disk, offset) {
            pages.insert(page);
        }
    }
    let scrub = tr.leaf(Kind::ScrubRun, 0, || {
        let mut scrubber = Scrubber::new(ScrubConfig { tenant: Some(MAINTENANCE), ..ScrubConfig::default() }, &w.c);
        let end = scrubber.run(&mut ScrubTarget::Cluster(&mut w.c), w.t)?;
        Ok::<_, ClusterError>((scrubber.report().clone(), end))
    })?;
    w.t = w.t.max(scrub.1);

    let disk = DiskId((seed % 16) as usize);
    w.c.fail_disk(disk);
    let workers: Vec<usize> = (0..REBUILD_WORKERS).collect();
    let rebuilder = tr.leaf(Kind::RebuildRun, 0, || {
        let mut r = Rebuilder::new(&mut w.c, w.t, disk, REBUILD_REGION, &workers, REBUILD_BATCH_ROWS);
        r.run(&mut w.c)?;
        Ok::<_, ClusterError>(r)
    })?;
    Ok(Maintenance {
        heal,
        recover_s,
        scrub: scrub.0,
        injected: pages.len(),
        rebuild_batches: rebuilder.coordinator().total_rows().div_ceil(REBUILD_BATCH_ROWS),
        rebuild_done: rebuilder.is_done(),
    })
}
