//! The campaign runner: a seeded workload over a full [`NetStorage`]
//! cluster while a [`CampaignSchedule`] injects faults at adversarial
//! instants, with the [`crate::oracle`] checking the paper's promises
//! after every injection and at convergence.
//!
//! A campaign is a pure function of `(config, schedule)`: no wall clock,
//! no OS randomness, deterministic iteration everywhere — so a failing
//! run replays bit-identically from its seed, and the shrinker
//! ([`crate::shrink`]) can bisect the schedule meaningfully.
//!
//! The runner is one type, `Campaign`, in five files, split on its seams:
//! * this one: the config and the report, the step loop, the schedule's
//!   firing with its crash-point tripwires, the workload and the
//!   rebuild's progress;
//! * `fixture`: what every campaign of one shape starts from, built once
//!   per shape and thread and cloned per campaign;
//! * `inject`: each injection's guard and effect, and the one place an
//!   entry is counted, fired or skipped;
//! * `converge`: the drive back to a healed state, the promises that hold
//!   only after it, and the finished report;
//! * `tests`: the unit tests, under their long-standing module path.

use crate::oracle::{self, OracleViolation, SiteShadow};
use crate::schedule::{CampaignSchedule, CrashEvent, Trigger};
use fixture::{Fixture, FixtureShape};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use ys_core::{NetStorage, Rebuilder};
use ys_geo::SiteId;
use ys_pfs::Ino;
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::{Rng, SpanRecorder};
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

mod converge;
mod fixture;
mod inject;
#[cfg(test)]
mod tests;

const PAGE: u64 = 64 * 1024;

/// Member-capacity span a campaign disk rebuild covers (see
/// [`Campaign::fail_disk`]).
const REBUILD_REGION: u64 = 8 << 20;

/// Volume pages the schedule may rot. The per-site integrity volume is
/// written through `integ_target_pages(disks).end * PAGE` bytes at setup;
/// the final 128 pages land beyond [`REBUILD_REGION`] on every member, so
/// latent errors and rebuild survivor reads never meet — the scrubber,
/// not the rebuilder, owns rot repair.
pub(crate) fn integ_target_pages(disks_per_site: usize) -> Range<u64> {
    let data_members = disks_per_site.saturating_sub(1).max(1) as u64;
    let total = (REBUILD_REGION * data_members + (16 << 20)) / PAGE;
    total - 128..total
}

/// Everything that determines a campaign, besides the schedule itself.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    pub seed: u64,
    /// Workload steps before convergence.
    pub steps: u64,
    pub sites: usize,
    pub blades_per_site: usize,
    pub disks_per_site: usize,
    /// The paper's N: dirty copies held before a host write is acked.
    pub write_back_copies: usize,
    /// Upper bound on generated schedule entries.
    pub max_injections: usize,
    /// Append a deliberate N-failure episode (the loss the oracle must
    /// surface and the shrinker must minimize).
    pub fatal: bool,
    /// Run with the multi-tenant QoS policy enabled and probed.
    pub enable_qos: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            steps: 96,
            sites: 3,
            blades_per_site: 4,
            disks_per_site: 8,
            write_back_copies: 2,
            max_injections: 12,
            fatal: false,
            enable_qos: true,
        }
    }
}

/// What a finished campaign proved (or failed to prove).
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub seed: u64,
    pub steps: u64,
    pub schedule: CampaignSchedule,
    pub injections_fired: u64,
    pub injections_skipped: u64,
    /// Broken promises, sorted by (step, site, rule, detail).
    pub violations: Vec<OracleViolation>,
    pub acked_writes: u64,
    /// Acked writes re-read successfully at convergence.
    pub acked_verified: u64,
    /// Legal Nth-failure losses (still violations, but the accepted kind).
    pub expected_losses: u64,
    /// Single-copy cache installs lost benignly (no promise attached).
    pub benign_losses: u64,
    pub ops_failed: u64,
    /// (what recovered, how long it took) — blade-crash, disk-rebuild.
    pub recovery: Vec<(&'static str, SimDuration)>,
    pub degraded_ops: u64,
    pub degraded_time: SimDuration,
    pub healthy_ops: u64,
    pub healthy_time: SimDuration,
    /// Latent errors injected (CorruptPage entries that actually fired).
    pub corruptions_injected: u64,
    /// Injected errors no longer rotten after the converge scrub
    /// (repaired from a source, or rewritten/replaced along the way).
    pub corruptions_repaired: u64,
    /// Injected errors the scrub explicitly declared lost.
    pub corruptions_declared: u64,
    /// Pages the converge scrub verified across every site.
    pub scrub_scanned: u64,
    /// Pages the converge scrub found rotten.
    pub scrub_mismatches: u64,
    /// Oracle cache audits answered by the full invariant scan, over every
    /// site (see `ys_cache::CacheCluster::audit_checkpoint`). With the two
    /// counts below: where the oracle's time goes, as deterministic counts.
    /// The campaign's own audits only — the one full scan per site its
    /// fixture was given when built is not among them.
    /// Attribution, not behaviour — [`CampaignReport::render`] omits them.
    pub audits_full: u64,
    /// Oracle cache audits answered from the change journal alone.
    pub audits_incremental: u64,
    /// Pages those incremental audits re-checked.
    pub audit_keys_checked: u64,
    pub final_time: SimTime,
}

impl CampaignReport {
    /// Did the campaign uphold every promise?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Ops/sec while any fault was active.
    fn degraded_throughput(&self) -> f64 {
        per_sec(self.degraded_ops, self.degraded_time)
    }

    /// Ops/sec while the system was clean.
    fn healthy_throughput(&self) -> f64 {
        per_sec(self.healthy_ops, self.healthy_time)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "campaign seed {}  steps {}  injections {} fired / {} skipped\n",
            self.seed, self.steps, self.injections_fired, self.injections_skipped
        ));
        out.push_str(&format!(
            "  acked writes {} ({} verified)  failed ops {}  losses: {} accepted, {} benign\n",
            self.acked_writes,
            self.acked_verified,
            self.ops_failed,
            self.expected_losses,
            self.benign_losses
        ));
        out.push_str(&format!(
            "  throughput: healthy {:.0} ops/s ({} ops), degraded {:.0} ops/s ({} ops)\n",
            self.healthy_throughput(),
            self.healthy_ops,
            self.degraded_throughput(),
            self.degraded_ops
        ));
        out.push_str(&format!(
            "  scrub: {} pages verified, {} rotten; latent errors: {} injected = {} repaired + {} declared lost\n",
            self.scrub_scanned,
            self.scrub_mismatches,
            self.corruptions_injected,
            self.corruptions_repaired,
            self.corruptions_declared
        ));
        for (what, dur) in &self.recovery {
            out.push_str(&format!("  recovered: {what} in {dur}\n"));
        }
        if self.violations.is_empty() {
            out.push_str("  oracle: all promises held\n");
        } else {
            out.push_str(&format!("  oracle: {} violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("    {v}\n"));
            }
        }
        out
    }
}

fn per_sec(ops: u64, time: SimDuration) -> f64 {
    let ns = time.nanos();
    if ns == 0 {
        return 0.0;
    }
    ops as f64 / (ns as f64 / 1e9)
}

/// Run the schedule generated from `cfg.seed`.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    run_with_schedule(cfg, CampaignSchedule::generate(cfg))
}

/// Run an explicit (possibly shrunk) schedule under `cfg`'s cluster and
/// workload. This is the entry the shrinker bisects through.
pub fn run_with_schedule(cfg: &CampaignConfig, schedule: CampaignSchedule) -> CampaignReport {
    let fixture = Fixture::for_shape(FixtureShape::of(cfg));
    Campaign::from_fixture(cfg, schedule, fixture).run_to_end()
}

/// An in-flight distributed rebuild and when it started.
struct RebuildState {
    site: usize,
    target: usize,
    r: Rebuilder,
    started: SimTime,
}

struct Campaign {
    cfg: CampaignConfig,
    ns: NetStorage,
    rng: Rng,
    shadows: Vec<SiteShadow>,
    /// (ino, home site) for workload files.
    files: Vec<(Ino, usize)>,
    /// Per-site QoS probe volume per tenant id (1..=3); empty if QoS off.
    probes: Vec<Vec<(u32, VolumeId)>>,
    /// Per-site integrity volume — the latent-error target.
    integ_vols: Vec<VolumeId>,
    /// Stripe rows already rotten, keyed (site, member offset / chunk):
    /// parity repair is single-failure arithmetic, one error per row.
    rotten_rows: BTreeSet<(usize, u64)>,
    /// Fired latent errors: (site, disk, member offset, volume page).
    corruptions: Vec<(usize, DiskId, u64, u64)>,
    /// Writes the system acknowledged: (ino, offset) -> len.
    acked: BTreeMap<(u64, u64), u64>,
    down: Vec<Vec<bool>>,
    /// Per site: when the first un-stabilized crash happened.
    crash_since: Vec<Option<SimTime>>,
    /// (site, disk, heal-at-step) transient FC-port flaps.
    flaps: Vec<(usize, usize, u64)>,
    partitions: Vec<(usize, usize)>,
    rebuild: Option<RebuildState>,
    /// Cursor into `report.schedule.entries`; entries fire strictly in order.
    next_entry: usize,
    /// Whether the head OnEvent entry's tripwire is currently armed.
    armed: bool,
    t: SimTime,
    step: u64,
    /// The report, filled in place as the campaign runs; its schedule is
    /// the one firing.
    report: CampaignReport,
    /// [`audit_counts`] of the fixture as received: what
    /// [`Fixture::build`]'s own audit cost, not the oracle's doing.
    audits_at_start: [u64; 3],
}

/// `[full, incremental, keys checked]` of the cache checkpoint audits,
/// summed over every site.
fn audit_counts(ns: &NetStorage) -> [u64; 3] {
    let mut counts = [0; 3];
    for cluster in &ns.clusters {
        let stats = cluster.cache.stats();
        counts[0] += stats.audits_full;
        counts[1] += stats.audits_incremental;
        counts[2] += stats.audit_keys_checked;
    }
    counts
}

impl Campaign {
    fn from_fixture(cfg: &CampaignConfig, schedule: CampaignSchedule, fixture: Fixture) -> Campaign {
        let Fixture { ns, files, probes, integ_vols } = fixture;
        let sites = integ_vols.len();
        Campaign {
            rng: Rng::new(cfg.seed ^ 0x0c4a_0517),
            shadows: vec![SiteShadow::default(); sites],
            files,
            probes,
            integ_vols,
            rotten_rows: BTreeSet::new(),
            corruptions: Vec::new(),
            acked: BTreeMap::new(),
            down: vec![vec![false; cfg.blades_per_site]; sites],
            crash_since: vec![None; sites],
            flaps: Vec::new(),
            partitions: Vec::new(),
            rebuild: None,
            next_entry: 0,
            armed: false,
            t: SimTime::ZERO,
            step: 0,
            report: CampaignReport {
                seed: cfg.seed,
                steps: cfg.steps,
                schedule,
                injections_fired: 0,
                injections_skipped: 0,
                violations: Vec::new(),
                acked_writes: 0,
                acked_verified: 0,
                expected_losses: 0,
                benign_losses: 0,
                ops_failed: 0,
                recovery: Vec::new(),
                degraded_ops: 0,
                degraded_time: SimDuration::ZERO,
                healthy_ops: 0,
                healthy_time: SimDuration::ZERO,
                corruptions_injected: 0,
                corruptions_repaired: 0,
                corruptions_declared: 0,
                scrub_scanned: 0,
                scrub_mismatches: 0,
                audits_full: 0,
                audits_incremental: 0,
                audit_keys_checked: 0,
                final_time: SimTime::ZERO,
            },
            audits_at_start: audit_counts(&ns),
            ns,
            cfg: cfg.clone(),
        }
    }

    fn sites(&self) -> usize {
        self.shadows.len()
    }

    fn fault_active(&self) -> bool {
        self.down.iter().flatten().any(|&d| d)
            || self.rebuild.is_some()
            || !self.flaps.is_empty()
            || !self.partitions.is_empty()
    }

    /// Whether `site`'s blade `blade` is down; `None` if there is no such
    /// blade (a blade injection's guard).
    fn blade_down(&self, site: usize, blade: usize) -> Option<bool> {
        self.down.get(site)?.get(blade).copied()
    }

    /// Take `site`'s blade `blade` down or bring it back up in the books,
    /// and tell a rebuild running at that site, which loses or regains the
    /// blade as a worker.
    fn set_down(&mut self, site: usize, blade: usize, down: bool) {
        self.down[site][blade] = down;
        let t = self.t;
        if let Some(rs) = self.rebuild.as_mut().filter(|rs| rs.site == site) {
            if down {
                rs.r.fail_worker(blade);
            } else {
                rs.r.add_worker(blade, t);
            }
        }
    }

    /// Record a broken promise at the current step.
    fn violate(&mut self, rule: &'static str, site: usize, detail: String) {
        self.report.violations.push(OracleViolation { rule, step: self.step, site, detail });
    }

    /// The oracle's check of one site: refresh its shadow, then audit.
    fn audit(&mut self, site: usize) {
        self.shadows[site].refresh(&self.ns.clusters[site]);
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.report.violations);
    }

    // ---- schedule firing -------------------------------------------------

    /// The head entry's crash event and the recorder that emits it, if the
    /// head waits on an event and its subsystem exists yet (a rebuild claim
    /// needs a running rebuild).
    fn head_crash_point(&mut self) -> Option<(CrashEvent, &mut SpanRecorder)> {
        let e = self.report.schedule.entries.get(self.next_entry)?;
        let Trigger::OnEvent { site, event, .. } = e.trigger else { return None };
        let rec = match event {
            CrashEvent::Destage | CrashEvent::Promote => self.ns.clusters[site].cache.trace_mut(),
            CrashEvent::GeoShip => self.ns.replication_mut().trace_mut(),
            CrashEvent::RebuildClaim => self.rebuild.as_mut()?.r.coordinator_mut().trace_mut(),
        };
        Some((event, rec))
    }

    /// Arm the head entry's tripwire once its `after_step` has come.
    fn arm_head(&mut self) {
        let head = self.report.schedule.entries.get(self.next_entry);
        let due = head.is_some_and(|e| {
            matches!(e.trigger, Trigger::OnEvent { after_step, .. } if self.step >= after_step)
        });
        if self.armed || !due {
            return;
        }
        if let Some((event, rec)) = self.head_crash_point() {
            rec.arm_crash_point(event.event_name(), 1);
            self.armed = true;
        }
    }

    /// True if the armed head entry's tripwire has fired.
    fn head_tripped(&mut self) -> bool {
        if !self.armed {
            return false;
        }
        match self.head_crash_point() {
            Some((event, rec)) => rec.take_crash_trips().iter().any(|&n| n == event.event_name()),
            None => false,
        }
    }

    /// Disarm whatever tripwire the head entry left behind.
    fn disarm_head(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        if let Some((_, rec)) = self.head_crash_point() {
            rec.disarm_crash_points();
        }
    }

    /// Fire every due entry at the current instant. `tripped` reports
    /// whether the head's armed event fired this step.
    fn fire_due(&mut self, tripped: bool) {
        loop {
            let Some(e) = self.report.schedule.entries.get(self.next_entry).copied() else { return };
            let due = match e.trigger {
                Trigger::AtStep(s) => self.step >= s,
                Trigger::OnEvent { .. } => tripped || self.step >= e.trigger.deadline(),
            };
            if !due {
                return;
            }
            self.disarm_head();
            self.next_entry += 1;
            self.apply(e);
            // Only the first OnEvent firing per step can consume the trip.
            if matches!(e.trigger, Trigger::OnEvent { .. }) && tripped {
                return;
            }
        }
    }

    // ---- workload --------------------------------------------------------

    fn workload_op(&mut self) {
        if self.files.is_empty() {
            return;
        }
        let (ino, home) = self.files[self.rng.next_below(self.files.len() as u64) as usize];
        let off = self.rng.next_below(64) * PAGE;
        let start = self.t;
        let write = self.rng.next_below(10) < 6;
        let result = if write {
            self.ns.write_ino(self.t, SiteId(home), 0, ino, off, PAGE)
        } else {
            // Mostly local reads; sometimes from a neighbor site, which
            // exercises first-reference migration over the WAN.
            let site = if self.rng.next_below(10) < 3 {
                (home + 1) % self.sites()
            } else {
                home
            };
            self.ns.read_ino(self.t, SiteId(site), 0, ino, off, PAGE)
        };
        match result {
            Ok(c) => {
                self.t = self.t.max(c.done);
                if write {
                    self.acked.insert((ino.0, off), PAGE);
                    self.report.acked_writes += 1;
                }
                self.count_op(c.done.since(start).max(SimDuration::from_micros(1)));
            }
            Err(_) => {
                self.report.ops_failed += 1;
                self.t += SimDuration::from_millis(1);
                self.count_op(SimDuration::from_millis(1));
            }
        }
    }

    fn count_op(&mut self, took: SimDuration) {
        if self.fault_active() {
            self.report.degraded_ops += 1;
            self.report.degraded_time += took;
        } else {
            self.report.healthy_ops += 1;
            self.report.healthy_time += took;
        }
    }

    fn qos_probes(&mut self) {
        for site in 0..self.sites() {
            for probe in 0..self.probes[site].len() {
                let (tenant, vol) = self.probes[site][probe];
                let off = self.rng.next_below(16) * PAGE;
                // Errors here are sheds and throttles — the QoS layer doing
                // its job; the oracle checks *who* absorbed them at the end.
                if let Ok(c) = self.ns.clusters[site].read_as(self.t, tenant, 0, vol, off, PAGE) {
                    self.t = self.t.max(c.done);
                }
            }
        }
    }

    fn step_rebuild(&mut self) {
        if self.rebuild.is_none() {
            return;
        }
        let mut io_errs = 0u64;
        let mut stalled = false;
        let mut coverage: Vec<String> = Vec::new();
        let mut finished: Option<(SimTime, SimTime)> = None;
        let site;
        {
            let Campaign { ns, rebuild, .. } = self;
            let Some(rs) = rebuild.as_mut() else { return };
            site = rs.site;
            for _ in 0..2 {
                match rs.r.step(&mut ns.clusters[rs.site]) {
                    Ok(true) => {}
                    Ok(false) => {
                        stalled = !rs.r.is_done();
                        break;
                    }
                    // A worker hit a dead survivor (flap mid-rebuild): it
                    // has retired itself and requeued its claim. Counted as
                    // a degraded-mode failure, not a violation — the
                    // coverage audit below is the correctness check.
                    Err(_) => {
                        io_errs += 1;
                        break;
                    }
                }
            }
            for v in rs.r.coordinator().audit_coverage() {
                coverage.push(format!("{v:?}"));
            }
            if rs.r.is_done() {
                finished = Some((rs.r.finished_at().unwrap_or(rs.started), rs.started));
            }
        }
        self.report.ops_failed += io_errs;
        for detail in coverage {
            self.violate("rebuild-coverage", site, detail);
        }
        if let Some((fin, started)) = finished {
            self.report.recovery.push(("disk-rebuild", fin.max(started).since(started)));
            self.rebuild = None;
        } else if stalled && !self.flaps.iter().any(|&(s, _, _)| s == site) {
            // Every worker died and the fabric is back: conscript one up
            // blade so the rebuild can finish.
            if let Some(b) = (0..self.cfg.blades_per_site).find(|&b| !self.down[site][b]) {
                let t = self.t;
                if let Some(rs) = self.rebuild.as_mut() {
                    rs.r.add_worker(b, t);
                }
            }
        }
    }

    // ---- main loop -------------------------------------------------------

    fn run_to_end(mut self) -> CampaignReport {
        while self.step < self.cfg.steps {
            self.t += SimDuration::from_micros(500);
            self.heal_flaps(self.step);
            self.fire_due(false);
            self.arm_head();
            self.workload_op();
            if self.cfg.enable_qos && self.step.is_multiple_of(2) {
                self.qos_probes();
            }
            if self.step % 4 == 3 {
                let t = self.t;
                match self.ns.ship_async(t, 1 << 20) {
                    Ok(done) => self.t = self.t.max(done),
                    Err(_) => self.report.ops_failed += 1,
                }
            }
            self.step_rebuild();
            let tripped = self.head_tripped();
            if tripped {
                self.fire_due(true);
            }
            for site in 0..self.sites() {
                self.audit(site);
            }
            self.step += 1;
        }
        self.converge();
        self.finish()
    }
}
