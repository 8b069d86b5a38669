//! The campaign runner: a seeded workload over a full [`NetStorage`]
//! cluster while a [`CampaignSchedule`] injects faults at adversarial
//! instants, with the [`crate::oracle`] checking the paper's promises
//! after every injection and at convergence.
//!
//! A campaign is a pure function of `(config, schedule)`: no wall clock,
//! no OS randomness, deterministic iteration everywhere — so a failing
//! run replays bit-identically from its seed, and the shrinker
//! ([`crate::shrink`]) can bisect the schedule meaningfully.

use crate::oracle::{self, OracleViolation, SiteShadow};
use crate::schedule::{CampaignSchedule, CrashEvent, Injection, ScheduledFault, Trigger};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use ys_core::{NetStorage, NetStorageConfig, Rebuilder};
use ys_geo::SiteId;
use ys_heal::{HealConfig, Healer};
use ys_pfs::{FilePolicy, GeoPolicy, Ino};
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_scrub::{ScrubConfig, ScrubTarget, Scrubber};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::Rng;
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

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
    pub fn degraded_throughput(&self) -> f64 {
        per_sec(self.degraded_ops, self.degraded_time)
    }

    /// Ops/sec while the system was clean.
    pub fn healthy_throughput(&self) -> f64 {
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
    schedule: CampaignSchedule,
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
    /// Cursor into `schedule.entries`; entries fire strictly in order.
    next_entry: usize,
    /// Whether the head OnEvent entry's tripwire is currently armed.
    armed: bool,
    t: SimTime,
    step: u64,
    // Report accumulators.
    violations: Vec<OracleViolation>,
    injections_fired: u64,
    injections_skipped: u64,
    expected_losses: u64,
    benign_losses: u64,
    ops_failed: u64,
    recovery: Vec<(&'static str, SimDuration)>,
    acked_writes: u64,
    acked_verified: u64,
    degraded_ops: u64,
    degraded_time: SimDuration,
    healthy_ops: u64,
    healthy_time: SimDuration,
    corruptions_repaired: u64,
    corruptions_declared: u64,
    scrub_scanned: u64,
    scrub_mismatches: u64,
    /// [`audit_counts`] of the fixture as received: what
    /// [`Fixture::build`]'s own audit cost, not the oracle's doing.
    audits_at_start: [u64; 3],
}

/// The [`CampaignConfig`] fields that reach cluster construction. Two
/// campaigns of one shape start from identical clusters whatever their
/// seed, length or schedule — [`Fixture::build`] takes the shape and
/// nothing else, so it *cannot* read the rest of the config, and the key
/// the built fixture is reused under is complete by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct FixtureShape {
    sites: usize,
    blades_per_site: usize,
    disks_per_site: usize,
    write_back_copies: usize,
    enable_qos: bool,
}

impl FixtureShape {
    fn of(cfg: &CampaignConfig) -> FixtureShape {
        FixtureShape {
            sites: cfg.sites,
            blades_per_site: cfg.blades_per_site,
            disks_per_site: cfg.disks_per_site,
            write_back_copies: cfg.write_back_copies,
            enable_qos: cfg.enable_qos,
        }
    }
}

/// What every campaign of one shape starts from: the multi-site cluster
/// with its workload files, probe volumes and integrity volumes written,
/// destaged and audited. Plain owned data all the way down, so a clone
/// shares nothing with its original.
#[derive(Clone)]
struct Fixture {
    // Each becomes the [`Campaign`] field of the same name.
    ns: NetStorage,
    files: Vec<(Ino, usize)>,
    probes: Vec<Vec<(u32, VolumeId)>>,
    integ_vols: Vec<VolumeId>,
}

thread_local! {
    /// The fixture this thread built last, and the shape it was built for.
    /// One slot: the callers that matter — a sweep worker, the shrinker,
    /// the benchmark — replay a single shape hundreds of times.
    static LAST_FIXTURE: RefCell<Option<(FixtureShape, Fixture)>> = const { RefCell::new(None) };
}

impl Fixture {
    /// A fixture of `shape` for one campaign to consume: a clone of the
    /// one this thread built last if that had the same shape, else built
    /// now and kept for the next caller.
    fn for_shape(shape: FixtureShape) -> Fixture {
        LAST_FIXTURE.with(|slot| match &mut *slot.borrow_mut() {
            Some((built, fixture)) if *built == shape => fixture.clone(),
            stale => {
                let fixture = Fixture::build(&shape);
                *stale = Some((shape, fixture.clone()));
                fixture
            }
        })
    }

    /// Build the clusters and everything a campaign expects to find on
    /// them before its first step.
    fn build(shape: &FixtureShape) -> Fixture {
        let mut site_cluster = ys_core::ClusterConfig::default()
            .with_blades(shape.blades_per_site)
            .with_disks(shape.disks_per_site)
            .with_write_copies(shape.write_back_copies);
        if shape.enable_qos {
            site_cluster = site_cluster.with_qos(
                QosConfig::new()
                    .with_tenant(TenantSpec::new(1, "premium", QosClass::Premium))
                    .with_tenant(TenantSpec::new(2, "standard", QosClass::Standard))
                    .with_tenant(TenantSpec::new(3, "scavenger", QosClass::Scavenger)),
            );
        }
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster,
            ..NetStorageConfig::default()
        });
        let sites = ns.topology.len().min(shape.sites.max(1));

        // Workload files: two per site; site-0 files replicate async so the
        // geo path is always in play.
        if let Err(e) = ns.fs.mkdir("/camp", None) {
            panic!("campaign setup: mkdir /camp: {e}"); // lint: allow(panic-path) — harness setup, not simulated fault path
        }
        let mut files = Vec::new();
        for site in 0..sites {
            for f in 0..2usize {
                let geo = if site == 0 { GeoPolicy::async_(2) } else { GeoPolicy::none() };
                let policy = FilePolicy {
                    geo,
                    write_back_copies: shape.write_back_copies,
                    ..FilePolicy::default()
                };
                let path = format!("/camp/s{site}f{f}.dat");
                match ns.create_file(&path, policy, SiteId(site)) {
                    Ok(ino) => files.push((ino, site)),
                    Err(e) => panic!("campaign setup: create {path}: {e}"), // lint: allow(panic-path) — harness setup
                }
            }
        }

        // QoS probe volumes, pre-populated then destaged so probes read
        // clean pages and measure admission, not cold misses.
        let mut probes = Vec::new();
        for site in 0..sites {
            let mut row = Vec::new();
            if shape.enable_qos {
                for tenant in 1..=3u32 {
                    let c = &mut ns.clusters[site];
                    match c.create_volume(&format!("probe-t{tenant}"), tenant, 64 << 20) {
                        Ok(vol) => {
                            if let Err(e) = c.write(
                                SimTime::ZERO,
                                0,
                                vol,
                                0,
                                1 << 20,
                                1,
                                ys_cache::Retention::Normal,
                            ) {
                                panic!("campaign setup: probe fill: {e}"); // lint: allow(panic-path) — harness setup
                            }
                            row.push((tenant, vol));
                        }
                        Err(e) => panic!("campaign setup: probe volume: {e}"), // lint: allow(panic-path) — harness setup
                    }
                }
                ns.clusters[site].drain();
            }
            probes.push(row);
        }

        // Integrity volumes: pre-written cold data for the schedule's
        // latent errors to rot. Sized so the corruptible tail sits past
        // the rebuild region on every member (see `integ_target_pages`);
        // written with one cache copy so the scrubber's replica source
        // stays plausible, then destaged so the data is at rest.
        let mut integ_vols = Vec::new();
        let integ_bytes = integ_target_pages(shape.disks_per_site).end * PAGE;
        for site in 0..sites {
            let c = &mut ns.clusters[site];
            match c.create_volume("integrity", 0, integ_bytes) {
                Ok(vol) => {
                    let mut off = 0;
                    while off < integ_bytes {
                        if let Err(e) =
                            c.write(SimTime::ZERO, 0, vol, off, 1 << 20, 1, ys_cache::Retention::Normal)
                        {
                            panic!("campaign setup: integrity fill: {e}"); // lint: allow(panic-path) — harness setup
                        }
                        off += 1 << 20;
                    }
                    c.drain();
                    integ_vols.push(vol);
                }
                Err(e) => panic!("campaign setup: integrity volume: {e}"), // lint: allow(panic-path) — harness setup
            }
        }

        // One full audit per site here instead of one per campaign: a clean
        // answer opens the cache's change journal, clones inherit it open,
        // and each campaign's first per-step audit is a checkpoint of what
        // its first step touched. A violation leaves the journal closed,
        // so every campaign's own first audit still finds and reports it.
        for cluster in &mut ns.clusters {
            cluster.cache.audit_checkpoint();
        }
        Fixture { ns, files, probes, integ_vols }
    }
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
            violations: Vec::new(),
            injections_fired: 0,
            injections_skipped: 0,
            expected_losses: 0,
            benign_losses: 0,
            ops_failed: 0,
            recovery: Vec::new(),
            acked_writes: 0,
            acked_verified: 0,
            degraded_ops: 0,
            degraded_time: SimDuration::ZERO,
            healthy_ops: 0,
            healthy_time: SimDuration::ZERO,
            corruptions_repaired: 0,
            corruptions_declared: 0,
            scrub_scanned: 0,
            scrub_mismatches: 0,
            audits_at_start: audit_counts(&ns),
            ns,
            schedule,
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

    // ---- schedule firing -------------------------------------------------

    /// The recorder a crash event watches, if its subsystem exists yet.
    fn arm_head(&mut self) {
        let Some(e) = self.schedule.entries.get(self.next_entry) else { return };
        let Trigger::OnEvent { site, event, after_step } = e.trigger else { return };
        if self.armed || self.step < after_step {
            return;
        }
        let rec = match event {
            CrashEvent::Destage | CrashEvent::Promote => {
                Some(self.ns.clusters[site].cache.trace_mut())
            }
            CrashEvent::GeoShip => Some(self.ns.replication_mut().trace_mut()),
            CrashEvent::RebuildClaim => {
                self.rebuild.as_mut().map(|rs| rs.r.coordinator_mut().trace_mut())
            }
        };
        if let Some(rec) = rec {
            rec.arm_crash_point(event.event_name(), 1);
            self.armed = true;
        }
    }

    /// True if the armed head entry's tripwire has fired.
    fn head_tripped(&mut self) -> bool {
        if !self.armed {
            return false;
        }
        let Some(e) = self.schedule.entries.get(self.next_entry) else { return false };
        let Trigger::OnEvent { site, event, .. } = e.trigger else { return false };
        let rec = match event {
            CrashEvent::Destage | CrashEvent::Promote => {
                Some(self.ns.clusters[site].cache.trace_mut())
            }
            CrashEvent::GeoShip => Some(self.ns.replication_mut().trace_mut()),
            CrashEvent::RebuildClaim => {
                self.rebuild.as_mut().map(|rs| rs.r.coordinator_mut().trace_mut())
            }
        };
        match rec {
            Some(rec) => rec.take_crash_trips().iter().any(|&n| n == event.event_name()),
            None => false,
        }
    }

    /// Disarm whatever tripwire the head entry left behind.
    fn disarm_head(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        let Some(e) = self.schedule.entries.get(self.next_entry) else { return };
        let Trigger::OnEvent { site, event, .. } = e.trigger else { return };
        match event {
            CrashEvent::Destage | CrashEvent::Promote => {
                self.ns.clusters[site].cache.trace_mut().disarm_crash_points();
            }
            CrashEvent::GeoShip => self.ns.replication_mut().trace_mut().disarm_crash_points(),
            CrashEvent::RebuildClaim => {
                if let Some(rs) = self.rebuild.as_mut() {
                    rs.r.coordinator_mut().trace_mut().disarm_crash_points();
                }
            }
        }
    }

    /// Fire every due entry at the current instant. `tripped` reports
    /// whether the head's armed event fired this step.
    fn fire_due(&mut self, tripped: bool) {
        loop {
            let Some(e) = self.schedule.entries.get(self.next_entry).copied() else { return };
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

    // ---- injections ------------------------------------------------------

    fn apply(&mut self, e: ScheduledFault) {
        match e.injection {
            Injection::CrashBlade { site, blade } => self.crash_blade(site, blade),
            Injection::RepairBlade { site, blade } => self.repair_blade(site, blade),
            Injection::Stabilize { site } => self.stabilize(site),
            Injection::FlapFcPort { site, disk } => self.flap_port(site, disk),
            Injection::FailDisk { site, disk } => self.fail_disk(site, disk),
            Injection::PartitionLink { a, b } => {
                self.ns.partition_link(SiteId(a), SiteId(b));
                if !self.partitions.contains(&(a, b)) {
                    self.partitions.push((a, b));
                }
                self.injections_fired += 1;
            }
            Injection::HealLink { a, b } => {
                self.ns.heal_link(SiteId(a), SiteId(b));
                self.partitions.retain(|&p| p != (a, b));
                self.injections_fired += 1;
            }
            Injection::KillDirtyPage { site } => self.kill_dirty_page(site),
            Injection::CorruptPage { site, page } => self.corrupt_page(site, page),
            Injection::BladeDrain { site, blade } => self.drain_blade(site, blade),
            Injection::BladeRevive { site, blade } => self.revive_blade(site, blade),
        }
    }

    /// Planned online shutdown: evacuate the blade with zero loss of
    /// acknowledged writes, then take it down. Any `DataLost` tombstone a
    /// *drain* mints breaks the maintenance promise — unlike a crash, no
    /// loss budget applies.
    fn drain_blade(&mut self, site: usize, blade: usize) {
        if site >= self.sites() || blade >= self.cfg.blades_per_site || self.down[site][blade] {
            self.injections_skipped += 1;
            return;
        }
        // Evacuated dirty pages need peers to land on: keep at least two
        // other blades up (guards shrunk subsets that stacked faults).
        if self.down[site].iter().filter(|&&d| !d).count() <= 2 {
            self.injections_skipped += 1;
            return;
        }
        self.shadows[site].refresh(&self.ns.clusters[site]);
        let lost_before = self.ns.clusters[site].cache.lost_pages().len();
        match self.ns.clusters[site].drain_blade(self.t, blade) {
            Ok((_report, done)) => {
                self.injections_fired += 1;
                self.t = self.t.max(done);
                let lost_after = self.ns.clusters[site].cache.lost_pages().len();
                if lost_after > lost_before {
                    self.violations.push(OracleViolation {
                        rule: "drain-lost-write",
                        step: self.step,
                        site,
                        detail: format!(
                            "draining blade {blade} minted {} DataLost tombstone(s)",
                            lost_after - lost_before
                        ),
                    });
                }
                self.down[site][blade] = true;
                if let Some(rs) = self.rebuild.as_mut() {
                    if rs.site == site {
                        rs.r.fail_worker(blade);
                    }
                }
            }
            Err(_) => {
                // No eligible peer even after forced destages (concurrent
                // faults shrank the cluster): abort the drain and put the
                // blade back in service — its pages are intact.
                self.ns.clusters[site].repair_blade(blade);
                self.injections_skipped += 1;
            }
        }
        self.shadows[site].refresh(&self.ns.clusters[site]);
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
    }

    /// Rejoin a drained (or crashed) blade empty, then run the healer to
    /// convergence. The healer's own stall budget is the converge budget
    /// the oracle holds it to: with every blade back up, a stalled heal is
    /// a broken promise, not bad luck.
    fn revive_blade(&mut self, site: usize, blade: usize) {
        if site >= self.sites() || blade >= self.cfg.blades_per_site || !self.down[site][blade] {
            self.injections_skipped += 1;
            return;
        }
        if self.ns.clusters[site].revive_blade(blade).is_err() {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.down[site][blade] = false;
        if let Some(rs) = self.rebuild.as_mut() {
            if rs.site == site {
                rs.r.add_worker(blade, self.t);
            }
        }
        // Administrative heal pass (no QoS tenant); on convergence it
        // promotes the Rejoining blade to full Up membership.
        let mut healer = Healer::new(HealConfig::default());
        match healer.run(&mut self.ns.clusters[site], self.t) {
            Ok(done) => self.t = self.t.max(done),
            Err(_) => self.ops_failed += 1,
        }
        let rep = healer.report();
        if !rep.converged && !self.down[site].iter().any(|&d| d) {
            self.violations.push(OracleViolation {
                rule: "redundancy-not-restored",
                step: self.step,
                site,
                detail: format!(
                    "healer stalled with {} page(s) under target after blade {blade} rejoined",
                    rep.stalled_pages
                ),
            });
        }
        self.shadows[site].refresh(&self.ns.clusters[site]);
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
    }

    fn corrupt_page(&mut self, site: usize, page: u64) {
        if site >= self.sites() {
            self.injections_skipped += 1;
            return;
        }
        let vol = self.integ_vols[site];
        let Some((disk, offset)) = self.ns.clusters[site].locate_volume_page(vol, page) else {
            self.injections_skipped += 1;
            return;
        };
        let row = (site, offset / PAGE);
        if offset < REBUILD_REGION
            || self.rotten_rows.contains(&row)
            || self.ns.clusters[site].disk_page_corrupt(disk, offset)
        {
            self.injections_skipped += 1;
            return;
        }
        self.ns.clusters[site].corrupt_disk_page(disk, offset);
        self.rotten_rows.insert(row);
        self.corruptions.push((site, disk, offset, page));
        self.injections_fired += 1;
    }

    fn crash_blade(&mut self, site: usize, blade: usize) {
        if site >= self.sites() || blade >= self.cfg.blades_per_site || self.down[site][blade] {
            self.injections_skipped += 1;
            return;
        }
        // Refuse to crash the last blade standing: the campaign needs a
        // survivor to re-home dirty pages onto (the schedule respects the
        // N−1 budget; this guards shrunk subsets that dropped repairs).
        if self.down[site].iter().filter(|&&d| !d).count() <= 1 {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.shadows[site].refresh(&self.ns.clusters[site]);
        self.shadows[site].pre_crash(&self.ns.clusters[site], blade);
        let report = self.ns.clusters[site].fail_blade(self.t, blade);
        let (legal, benign) = self.shadows[site].judge_losses(
            site,
            self.step,
            &report.lost,
            self.cfg.write_back_copies,
            &mut self.violations,
        );
        self.expected_losses += legal;
        self.benign_losses += benign;
        // The oracle has recorded the verdict on every loss; acknowledge
        // the tombstones so the structural audit sees a clean directory.
        for &key in &report.lost {
            self.ns.clusters[site].cache.acknowledge_loss(key);
        }
        self.down[site][blade] = true;
        if self.crash_since[site].is_none() {
            self.crash_since[site] = Some(self.t);
        }
        if let Some(rs) = self.rebuild.as_mut() {
            if rs.site == site {
                rs.r.fail_worker(blade);
            }
        }
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
    }

    fn repair_blade(&mut self, site: usize, blade: usize) {
        if site >= self.sites() || blade >= self.cfg.blades_per_site || !self.down[site][blade] {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.restore_blade(site, blade);
    }

    /// The repair itself, shared with [`Campaign::converge`]'s end-of-run
    /// cleanup (which is administrative, not a scheduled injection, and so
    /// must not count toward `injections_fired`).
    fn restore_blade(&mut self, site: usize, blade: usize) {
        self.ns.clusters[site].repair_blade(blade);
        self.down[site][blade] = false;
        if let Some(rs) = self.rebuild.as_mut() {
            if rs.site == site {
                rs.r.add_worker(blade, self.t);
            }
        }
    }

    fn stabilize(&mut self, site: usize) {
        if site >= self.sites() {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.drain_site(site);
    }

    /// Destage drain + budget reset + audit, shared with
    /// [`Campaign::converge`] (uncounted there, same reasoning as
    /// [`Campaign::restore_blade`]).
    fn drain_site(&mut self, site: usize) {
        let fin = self.ns.clusters[site].drain();
        self.t = self.t.max(fin);
        if let Some(t0) = self.crash_since[site].take() {
            self.recovery.push(("blade-crash", self.t.since(t0)));
        }
        self.shadows[site].refresh(&self.ns.clusters[site]);
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
    }

    fn flap_port(&mut self, site: usize, disk: usize) {
        let already_flapped = self.flaps.iter().any(|&(s, d, _)| s == site && d == disk);
        let rebuild_target = self
            .rebuild
            .as_ref()
            .is_some_and(|rs| rs.site == site && rs.target == disk);
        if site >= self.sites() || disk >= self.cfg.disks_per_site || already_flapped || rebuild_target
        {
            self.injections_skipped += 1;
            return;
        }
        if self.ns.clusters[site].failed_disks().get(disk).copied().unwrap_or(true) {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.ns.clusters[site].fail_disk(DiskId(disk));
        self.flaps.push((site, disk, self.step + 2));
    }

    fn heal_due_flaps(&mut self) {
        let step = self.step;
        let mut healed = Vec::new();
        self.flaps.retain(|&(site, disk, at)| {
            if step >= at {
                healed.push((site, disk));
                false
            } else {
                true
            }
        });
        for (site, disk) in healed {
            // Transient fabric loss: the media comes back intact, no
            // rebuild needed.
            self.ns.clusters[site].replace_disk(DiskId(disk));
            self.ns.clusters[site].mark_disk_rebuilt(DiskId(disk));
        }
    }

    fn fail_disk(&mut self, site: usize, disk: usize) {
        if site >= self.sites()
            || disk >= self.cfg.disks_per_site
            || self.rebuild.is_some()
            || self.ns.clusters[site].failed_disks().get(disk).copied().unwrap_or(true)
        {
            self.injections_skipped += 1;
            return;
        }
        // A disk failed with nobody to rebuild it would stay failed: skip
        // before touching it.
        let workers: Vec<usize> =
            (0..self.cfg.blades_per_site).filter(|&b| !self.down[site][b]).collect();
        if workers.is_empty() {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        self.ns.clusters[site].fail_disk(DiskId(disk));
        // A small region keeps campaign rebuilds bounded while still giving
        // the claim/complete/requeue machinery dozens of batches.
        let r = Rebuilder::new(
            &mut self.ns.clusters[site],
            self.t,
            DiskId(disk),
            REBUILD_REGION,
            &workers,
            8,
        );
        self.rebuild = Some(RebuildState { site, target: disk, r, started: self.t });
    }

    fn kill_dirty_page(&mut self, site: usize) {
        if site >= self.sites() {
            self.injections_skipped += 1;
            return;
        }
        self.injections_fired += 1;
        // Make sure there is a protected dirty page to kill.
        if let Some(&(ino, _)) = self.files.iter().find(|&&(_, home)| home == site) {
            match self.ns.write_ino(self.t, SiteId(site), 0, ino, 0, PAGE) {
                Ok(c) => {
                    self.acked.insert((ino.0, 0), PAGE);
                    self.acked_writes += 1;
                    self.t = c.done;
                }
                Err(_) => self.ops_failed += 1,
            }
        }
        self.shadows[site].refresh(&self.ns.clusters[site]);
        // The adversary: pick the smallest fully-replicated dirty page (the
        // directory iterates in key order) and crash every holder, owner
        // first, before any destage can rescue it. Each crash goes through
        // the full judged path.
        let victim = self.ns.clusters[site]
            .cache
            .directory()
            .iter()
            .find(|(_, e)| e.owner.is_some() && !e.replicas.is_empty())
            .map(|(k, _)| *k);
        let Some(key) = victim else {
            self.injections_skipped += 1;
            return;
        };
        for _ in 0..self.cfg.blades_per_site {
            let holder = self.ns.clusters[site]
                .cache
                .directory()
                .get(&key)
                .and_then(|e| e.owner);
            let Some(blade) = holder else { break };
            self.crash_blade(site, blade);
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
                    self.acked_writes += 1;
                }
                self.count_op(c.done.since(start).max(SimDuration::from_micros(1)));
            }
            Err(_) => {
                self.ops_failed += 1;
                self.t += SimDuration::from_millis(1);
                self.count_op(SimDuration::from_millis(1));
            }
        }
    }

    fn count_op(&mut self, took: SimDuration) {
        if self.fault_active() {
            self.degraded_ops += 1;
            self.degraded_time += took;
        } else {
            self.healthy_ops += 1;
            self.healthy_time += took;
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
        self.ops_failed += io_errs;
        for detail in coverage {
            self.violations.push(OracleViolation {
                rule: "rebuild-coverage",
                step: self.step,
                site,
                detail,
            });
        }
        if let Some((fin, started)) = finished {
            self.recovery.push(("disk-rebuild", fin.max(started).since(started)));
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
            self.heal_due_flaps();
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
                    Err(_) => self.ops_failed += 1,
                }
            }
            self.step_rebuild();
            let tripped = self.head_tripped();
            if tripped {
                self.fire_due(true);
            }
            for site in 0..self.sites() {
                self.shadows[site].refresh(&self.ns.clusters[site]);
                oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
            }
            self.step += 1;
        }
        self.converge();
        self.finish()
    }

    /// Drive the cluster back to a clean, fully-healed state and check the
    /// promises that only hold *after* recovery (gapless geo prefix,
    /// complete rebuild, readable acked data). Always runs, so shrunk
    /// schedules that dropped their repair entries still terminate in a
    /// comparable state instead of failing for a spurious reason.
    fn converge(&mut self) {
        // Fire everything the step loop didn't reach.
        self.disarm_head();
        while self.next_entry < self.schedule.entries.len() {
            let e = self.schedule.entries[self.next_entry];
            self.next_entry += 1;
            self.apply(e);
        }
        // Heal the fabric and the WAN.
        let flaps: Vec<_> = self.flaps.drain(..).collect();
        for (site, disk, _) in flaps {
            self.ns.clusters[site].replace_disk(DiskId(disk));
            self.ns.clusters[site].mark_disk_rebuilt(DiskId(disk));
        }
        for (a, b) in std::mem::take(&mut self.partitions) {
            self.ns.heal_link(SiteId(a), SiteId(b));
        }
        // Bring every blade back, then let destage finish everywhere.
        // Administrative recovery — not scheduled injections, not counted.
        for site in 0..self.sites() {
            for blade in 0..self.cfg.blades_per_site {
                if self.down[site][blade] {
                    self.restore_blade(site, blade);
                }
            }
            self.drain_site(site);
        }
        // Finish the rebuild, conscripting workers as needed.
        for _ in 0..8 {
            if self.rebuild.is_none() {
                break;
            }
            self.step_rebuild();
        }
        if let Some(rs) = self.rebuild.take() {
            self.violations.push(OracleViolation {
                rule: "rebuild-stuck",
                step: self.step,
                site: rs.site,
                detail: format!(
                    "disk {} rebuild at {:.0}% after convergence",
                    rs.target,
                    rs.r.progress() * 100.0
                ),
            });
        }
        // Geo convergence: the async backlog must drain to a gapless
        // acknowledged prefix once links are healed.
        for _ in 0..32 {
            let t = self.t;
            match self.ns.ship_async(t, 4 << 20) {
                Ok(done) => self.t = self.t.max(done),
                Err(_) => break,
            }
            if self.geo_drained() {
                break;
            }
        }
        let sites = self.sites();
        for s in 0..sites {
            for d in 0..sites {
                if s == d {
                    continue;
                }
                let (src, dst) = (SiteId(s), SiteId(d));
                let (pending, bytes) = self.ns.async_backlog(src, dst);
                if pending > 0 {
                    self.violations.push(OracleViolation {
                        rule: "geo-backlog-stuck",
                        step: self.step,
                        site: s,
                        detail: format!("{pending} records ({bytes} B) still queued to site {d} after heal"),
                    });
                }
                let inflight = self.ns.replication().inflight(src, dst);
                if inflight > 0 {
                    self.violations.push(OracleViolation {
                        rule: "geo-inflight-stuck",
                        step: self.step,
                        site: s,
                        detail: format!("{inflight} records to site {d} neither confirmed nor requeued"),
                    });
                }
            }
        }
        if self.ns.stats.async_writes_shipped != self.ns.stats.async_writes_enqueued {
            self.violations.push(OracleViolation {
                rule: "geo-prefix-gap",
                step: self.step,
                site: 0,
                detail: format!(
                    "{} enqueued but only {} shipped after full heal",
                    self.ns.stats.async_writes_enqueued, self.ns.stats.async_writes_shipped
                ),
            });
        }
        // Destage whatever the geo applies dirtied, then the final audits.
        for site in 0..self.sites() {
            self.ns.clusters[site].drain();
            self.shadows[site].refresh(&self.ns.clusters[site]);
            oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.violations);
            oracle::audit_qos(site, self.step, &self.ns.clusters[site], &mut self.violations);
            oracle::audit_redundancy(site, self.step, &self.ns.clusters[site], &mut self.violations);
        }
        // Scrub every site and hold the integrity promise: each injected
        // latent error must now be repaired or explicitly declared lost.
        // Runs before the acked re-reads below so repairable rot can't
        // masquerade as structural unreadability.
        self.scrub_sites();
        // Every acknowledged write must still be readable. (Legally lost
        // pages were surfaced and acknowledged above — their stale-on-disk
        // image reads back; what this catches is structural unreadability:
        // a directory entry still pointing at a dead blade, an undestaged
        // page stranded by re-homing, a volume map hole.)
        let acked: Vec<_> = self.acked.iter().map(|(&k, &len)| (k, len)).collect();
        for ((ino, off), len) in acked {
            match self.ns.read_ino(self.t, self.home_of(ino), 0, Ino(ino), off, len) {
                Ok(c) => {
                    self.t = self.t.max(c.done);
                    self.acked_verified += 1;
                }
                Err(e) => self.violations.push(OracleViolation {
                    rule: "acked-write-unreadable",
                    step: self.step,
                    site: self.home_of(ino).0,
                    detail: format!("ino {ino} offset {off}: {e}"),
                }),
            }
        }
    }

    /// Converge-time scrub of every site, as the Scavenger tenant when
    /// QoS is on (administratively otherwise), plus the integrity oracle:
    /// every fired [`Injection::CorruptPage`] must be repaired or carry
    /// an explicit [`ys_scrub::ScrubLoss`] — silent residue is a
    /// violation.
    fn scrub_sites(&mut self) {
        let tenant = if self.cfg.enable_qos { Some(3) } else { None };
        for site in 0..self.sites() {
            let mut scrubber = Scrubber::new(
                ScrubConfig { tenant },
                &self.ns.clusters[site],
            );
            let run = {
                let mut target = ScrubTarget::Site(&mut self.ns, SiteId(site));
                scrubber.run(&mut target, self.t)
            };
            match run {
                Ok(done) => self.t = self.t.max(done),
                Err(e) => self.violations.push(OracleViolation {
                    rule: "scrub-error",
                    step: self.step,
                    site,
                    detail: format!("converge scrub aborted: {e}"),
                }),
            }
            let report = scrubber.report();
            self.scrub_scanned += report.pages_scanned;
            self.scrub_mismatches += report.mismatch_pages;
            for i in 0..self.corruptions.len() {
                let (s, disk, offset, page) = self.corruptions[i];
                if s != site {
                    continue;
                }
                let declared = report
                    .losses
                    .iter()
                    .any(|l| l.vol == self.integ_vols[site] && l.page == page);
                if declared {
                    self.corruptions_declared += 1;
                } else if self.ns.clusters[site].disk_page_corrupt(disk, offset) {
                    self.violations.push(OracleViolation {
                        rule: "corruption-unrepaired",
                        step: self.step,
                        site,
                        detail: format!(
                            "disk {} offset {offset} (integrity page {page}) still rotten, not declared",
                            disk.0
                        ),
                    });
                } else {
                    self.corruptions_repaired += 1;
                }
            }
        }
    }

    fn home_of(&self, ino: u64) -> SiteId {
        self.files
            .iter()
            .find(|&&(i, _)| i.0 == ino)
            .map(|&(_, home)| SiteId(home))
            .unwrap_or(SiteId(0))
    }

    fn geo_drained(&self) -> bool {
        let sites = self.sites();
        for s in 0..sites {
            for d in 0..sites {
                if s == d {
                    continue;
                }
                let (src, dst) = (SiteId(s), SiteId(d));
                if self.ns.async_backlog(src, dst).0 > 0
                    || self.ns.replication().inflight(src, dst) > 0
                {
                    return false;
                }
            }
        }
        true
    }

    fn finish(mut self) -> CampaignReport {
        self.violations.sort_by(|a, b| {
            (a.step, a.site, a.rule, &a.detail).cmp(&(b.step, b.site, b.rule, &b.detail))
        });
        let (now, start) = (audit_counts(&self.ns), self.audits_at_start);
        let [audits_full, audits_incremental, audit_keys_checked] = std::array::from_fn(|i| now[i] - start[i]);
        CampaignReport {
            seed: self.cfg.seed,
            steps: self.cfg.steps,
            schedule: self.schedule,
            injections_fired: self.injections_fired,
            injections_skipped: self.injections_skipped,
            violations: self.violations,
            acked_writes: self.acked_writes,
            acked_verified: self.acked_verified,
            expected_losses: self.expected_losses,
            benign_losses: self.benign_losses,
            ops_failed: self.ops_failed,
            recovery: self.recovery,
            degraded_ops: self.degraded_ops,
            degraded_time: self.degraded_time,
            healthy_ops: self.healthy_ops,
            healthy_time: self.healthy_time,
            corruptions_injected: self.corruptions.len() as u64,
            corruptions_repaired: self.corruptions_repaired,
            corruptions_declared: self.corruptions_declared,
            scrub_scanned: self.scrub_scanned,
            scrub_mismatches: self.scrub_mismatches,
            audits_full,
            audits_incremental,
            audit_keys_checked,
            final_time: self.t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaigns_are_deterministic() {
        let cfg = CampaignConfig { seed: 4, steps: 48, ..CampaignConfig::default() };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.injections_fired, b.injections_fired);
        assert_eq!(a.final_time, b.final_time);
    }

    #[test]
    fn within_budget_campaign_holds_every_promise() {
        let cfg = CampaignConfig { seed: 4, steps: 64, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        assert!(r.injections_fired > 0, "schedule must actually inject");
        assert!(r.acked_writes > 0);
        // acked_verified counts distinct (ino, offset) cells; rewrites of
        // the same cell collapse, so it can trail the total ack count but
        // never exceed it — and every cell must have read back (any
        // unreadable cell is an acked-write-unreadable violation, which
        // passed() below would catch).
        assert!(r.acked_verified > 0 && r.acked_verified <= r.acked_writes);
        assert!(
            r.passed(),
            "within-budget campaign must hold all promises:\n{}",
            r.render()
        );
    }

    #[test]
    fn fatal_campaign_surfaces_the_loss_explicitly() {
        let cfg = CampaignConfig { seed: 9, steps: 48, fatal: true, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        assert!(
            r.violations.iter().any(|v| v.rule == "acked-write-lost"),
            "the deliberate N-failure must surface as an explicit loss:\n{}",
            r.render()
        );
        assert!(
            r.violations.iter().all(|v| v.rule != "loss-within-budget"),
            "even the fatal campaign must not lose data *within* budget:\n{}",
            r.render()
        );
    }

    #[test]
    fn latent_errors_are_repaired_or_declared_at_convergence() {
        for seed in 0..8 {
            let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
            let r = run_campaign(&cfg);
            assert!(r.passed(), "seed {seed}:\n{}", r.render());
            assert!(r.scrub_scanned > 0, "converge scrub must actually walk pages");
            if r.corruptions_injected > 0 {
                assert_eq!(
                    r.corruptions_injected,
                    r.corruptions_repaired + r.corruptions_declared,
                    "every latent error accounted for:\n{}",
                    r.render()
                );
                return;
            }
        }
        panic!("no seed in 0..8 fired a latent error");
    }

    #[test]
    fn the_oracle_audits_what_changed() {
        let cfg =
            CampaignConfig { seed: 4, steps: 128, max_injections: 6, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        assert!(r.passed(), "{}", r.render());
        let audits = r.audits_full + r.audits_incremental;
        // Every step audits every site, and injections add their own.
        assert!(audits >= cfg.steps * cfg.sites as u64, "{audits} audits");
        assert!(
            r.audits_incremental * 100 >= audits * 95,
            "{} of {audits} audits were full scans",
            r.audits_full
        );
        // What the journal saves: a full scan walks every directory entry
        // (≈1,180 a site), an incremental audit a page or two.
        assert!(r.audit_keys_checked < 4 * r.audits_incremental, "{} keys", r.audit_keys_checked);
        assert!(!r.render().contains("audit"), "attribution stays out of the transcript");
        // The full scans left are the ones after a blade comes or goes: the
        // fixture was audited when built and arrives with its journal open,
        // so a campaign that injects nothing never scans in full at all —
        // 128 steps and two converge audits, per site, all incremental.
        let quiet = run_with_schedule(&cfg, CampaignSchedule { seed: cfg.seed, entries: Vec::new() });
        assert_eq!((quiet.audits_full, quiet.audits_incremental), (0, (128 + 2) * 3));
    }

    /// The same campaign from a fixture built for it alone — never
    /// through the slot.
    fn run_fresh(cfg: &CampaignConfig) -> CampaignReport {
        let fixture = Fixture::build(&FixtureShape::of(cfg));
        Campaign::from_fixture(cfg, CampaignSchedule::generate(cfg), fixture).run_to_end()
    }

    fn assert_slot_matches_fresh(cfg: &CampaignConfig) {
        let (slot, fresh) = (run_campaign(cfg), run_fresh(cfg));
        assert_eq!(slot.render(), fresh.render(), "{cfg:?}");
        assert_eq!(format!("{slot:?}"), format!("{fresh:?}"), "{cfg:?}");
    }

    #[test]
    fn a_cloned_fixture_runs_the_campaign_a_fresh_build_does() {
        let base = CampaignConfig { steps: 64, ..CampaignConfig::default() };
        // `fatal` shares the default shape and must be served from its
        // slot; each of the others differs in one shape field and must not.
        let others = [
            CampaignConfig { fatal: true, ..base.clone() },
            CampaignConfig { enable_qos: false, ..base.clone() },
            CampaignConfig { blades_per_site: 5, ..base.clone() },
            CampaignConfig { disks_per_site: 6, ..base.clone() },
            CampaignConfig { write_back_copies: 3, ..base.clone() },
            CampaignConfig { sites: 2, ..base.clone() },
        ];
        for seed in 0..32 {
            assert_slot_matches_fresh(&CampaignConfig { seed, ..base.clone() });
            // A-B-A: re-key the slot, and let the next seed re-key it back.
            if seed % 4 == 1 {
                assert_slot_matches_fresh(&others[seed as usize / 4 % others.len()]);
            }
        }
        // Seeds 30 and 31 ran off the stored fixture; had either (or any
        // campaign before them) written through its clone into it, this
        // one starts from the damage and a fresh build does not.
        assert_slot_matches_fresh(&base);
    }

    #[test]
    fn a_clone_shares_nothing_with_its_fixture() {
        let original = Fixture::build(&FixtureShape::of(&CampaignConfig::default()));
        let books = |f: &Fixture| {
            let cache = &f.ns.clusters[0].cache;
            (format!("{:?}", cache.stats()), cache.directory().len(), f.ns.clusters[0].pool_used_extents())
        };
        let before = books(&original);
        let mut clone = original.clone();
        assert_eq!(books(&clone), before);
        let vol = clone.ns.clusters[0].create_volume("scribble", 0, 1 << 30).unwrap();
        clone.ns.clusters[0].write(SimTime::ZERO, 0, vol, 0, 4 * PAGE, 2, ys_cache::Retention::Normal).unwrap();
        assert_ne!(books(&clone), before, "the write must have moved the clone's books");
        assert_eq!(books(&original), before);
    }

    #[test]
    fn recovery_times_are_recorded() {
        // Scan a few seeds for one whose schedule includes a blade-crash
        // episode (generation is random but deterministic per seed).
        for seed in 0..8 {
            let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
            let r = run_campaign(&cfg);
            if r.recovery.iter().any(|(what, _)| *what == "blade-crash") {
                return;
            }
        }
        panic!("no seed in 0..8 produced a recovered blade crash");
    }
}
