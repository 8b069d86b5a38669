//! The background scrubber: a deterministic volume walk that detects
//! latent media errors and repairs them from the best available source.
//!
//! A scrub pass is Scavenger-class work: each batch runs under
//! [`ys_core::governed`] — the admission, fixed-wait backoff and forced
//! trickle policy shared with `ys-heal` — so foreground tenants are never
//! stalled by integrity maintenance and a pass always finishes. This
//! module is only the unit of work: the walk order and the repair chain,
//! which tries sources in a fixed order — RAID redundancy, then a cached replica,
//! then a geographic remote copy — and a page no source can fix becomes
//! an explicit [`ScrubLoss`], mirroring the cache's `DataLost` tombstone
//! discipline: loss is always declared, never silent.

use ys_core::governed::{self, GovernedWork, Governor, BASE_BACKOFF};
use ys_core::{BladeCluster, ClusterError, NetStorage, EXTENT_BYTES, PAGE_BYTES};
use ys_geo::SiteId;
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

/// What the scrubber operates on.
pub enum ScrubTarget<'a> {
    /// A single site cluster; the geo repair source is unavailable.
    Cluster(&'a mut BladeCluster),
    /// One site of a multi-site system; rotten pages may be re-fetched
    /// from a remote replica as the repair source of last resort.
    Site(&'a mut NetStorage, SiteId),
}

impl std::fmt::Debug for ScrubTarget<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScrubTarget::Cluster(_) => write!(f, "ScrubTarget::Cluster"),
            ScrubTarget::Site(_, s) => write!(f, "ScrubTarget::Site({s:?})"),
        }
    }
}

impl ScrubTarget<'_> {
    fn cluster(&mut self) -> &mut BladeCluster {
        match self {
            ScrubTarget::Cluster(c) => c,
            ScrubTarget::Site(ns, s) => &mut ns.clusters[s.0],
        }
    }

    fn geo_fetch(&mut self, now: SimTime, vol: VolumeId, page: u64) -> Option<SimTime> {
        match self {
            ScrubTarget::Cluster(_) => None,
            ScrubTarget::Site(ns, s) => ns.geo_fetch_page(now, *s, vol, page),
        }
    }
}

/// Scrub pass policy.
#[derive(Clone, Debug, Default)]
pub struct ScrubConfig {
    /// QoS tenant the scrub's batches are admitted as (Scavenger-class in
    /// the shipped configurations). `None` runs administratively, without
    /// admission control — the mode fault campaigns use to converge.
    pub tenant: Option<u32>,
}

/// A page the scrubber could not repair from any source: the explicit
/// declaration that its bytes are gone (the integrity analogue of the
/// cache's `DataLost` tombstone).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScrubLoss {
    /// Volume holding the unrepairable page.
    pub vol: VolumeId,
    /// Page index within the volume.
    pub page: u64,
}

/// What one scrub pass found and did.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Pages verified.
    pub pages_scanned: u64,
    /// Pages whose verification found at least one checksum mismatch.
    pub mismatch_pages: u64,
    /// Mismatched pages repaired from RAID redundancy.
    pub repaired_parity: u64,
    /// Mismatched pages repaired by rewriting a surviving cached replica.
    pub repaired_replica: u64,
    /// Mismatched pages repaired from a geographic remote copy.
    pub repaired_geo: u64,
    /// Pages no source could repair — explicit, attributed losses.
    pub losses: Vec<ScrubLoss>,
    /// Pages the pass could not even read (e.g. RAID group down beyond
    /// tolerance); they remain unverified, not silently passed.
    pub unreadable: u64,
    /// Batches executed.
    pub ticks: u64,
    /// Batches shed by QoS admission (retried later).
    pub shed_ticks: u64,
    /// Batches forced through after `MAX_CONSECUTIVE_SHEDS`.
    pub forced_ticks: u64,
}

impl ScrubReport {
    /// Total pages repaired, across all sources.
    pub fn repaired(&self) -> u64 {
        self.repaired_parity + self.repaired_replica + self.repaired_geo
    }

    /// Every detected mismatch was repaired: nothing lost, nothing left.
    pub fn fully_repaired(&self) -> bool {
        self.losses.is_empty() && self.unreadable == 0 && self.repaired() == self.mismatch_pages
    }

    /// Every detected mismatch reached a verdict — repaired or an explicit
    /// loss. This is the invariant scrubbing exists to uphold; only
    /// unreadable pages (no data path at all) escape it.
    // lint: allow(dead-pub) — (b) the scrub verdict oracle the scrubber tests assert
    pub fn all_accounted(&self) -> bool {
        self.repaired() + self.losses.len() as u64 == self.mismatch_pages
    }
}

impl std::fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scrub: {} pages, {} mismatched, repaired {} (parity {}, replica {}, geo {}), \
             lost {}, unreadable {}, ticks {} (shed {}, forced {})",
            self.pages_scanned,
            self.mismatch_pages,
            self.repaired(),
            self.repaired_parity,
            self.repaired_replica,
            self.repaired_geo,
            self.losses.len(),
            self.unreadable,
            self.ticks,
            self.shed_ticks,
            self.forced_ticks,
        )
    }
}

/// A scrub pass in progress: a deterministic cursor over every mapped
/// page of every volume, plus the accumulated [`ScrubReport`].
#[derive(Debug)]
pub struct Scrubber {
    governor: Governor,
    /// (volume, page) work list in (group, volume id, page) order.
    work: Vec<(VolumeId, u64)>,
    cursor: usize,
    report: ScrubReport,
}

impl<'a> GovernedWork<ScrubTarget<'a>> for Scrubber {
    fn governor(&mut self) -> &mut Governor {
        &mut self.governor
    }

    fn cluster<'t>(target: &'t mut ScrubTarget<'a>) -> &'t mut BladeCluster {
        target.cluster()
    }

    fn plan(&mut self, _: &ScrubTarget<'a>) -> usize {
        self.work.len() - self.cursor
    }

    fn execute(&mut self, target: &mut ScrubTarget<'a>, pages: usize, start: SimTime) -> Result<SimTime, ClusterError> {
        let mut done = start;
        for _ in 0..pages {
            let (vol, page) = self.work[self.cursor];
            self.cursor += 1;
            done = done.max(self.scrub_one(target, done, vol, page)?);
        }
        Ok(done)
    }
}

impl Scrubber {
    /// Plan a full pass over `cluster`'s mapped pages. The walk order is a
    /// pure function of the volume maps, so identical clusters scrub in
    /// identical order.
    pub fn new(cfg: ScrubConfig, cluster: &BladeCluster) -> Scrubber {
        let ppe = EXTENT_BYTES / PAGE_BYTES;
        let mut work = Vec::new();
        for vol in cluster.volume_ids() {
            for ext in cluster.mapped_extents(vol) {
                for p in 0..ppe {
                    work.push((vol, ext * ppe + p));
                }
            }
        }
        // Cap == base: a scrub pass waits a fixed interval after each shed.
        let governor = Governor::new(cfg.tenant, BASE_BACKOFF);
        Scrubber { governor, work, cursor: 0, report: ScrubReport::default() }
    }

    /// Whether the pass has covered its whole work list.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.work.len()
    }

    /// The accumulated report (final once [`Scrubber::is_done`]).
    pub fn report(&self) -> &ScrubReport {
        &self.report
    }

    /// Run one batch: admit it under the configured QoS tenant, verify up
    /// to `PAGES_PER_BATCH` pages, repair or declare what fails. Returns
    /// the batch completion time (== `now` when shed or already done).
    pub fn tick(&mut self, target: &mut ScrubTarget<'_>, now: SimTime) -> Result<SimTime, ClusterError> {
        let done = governed::tick(self, target, now);
        self.count();
        done
    }

    /// [`Scrubber::tick`], returning when the pass should next wake: the
    /// batch completion time, or `now` plus the backoff wait when the batch
    /// was shed. For callers that interleave the pass with foreground work.
    pub fn step(&mut self, target: &mut ScrubTarget<'_>, now: SimTime) -> Result<SimTime, ClusterError> {
        let wake = governed::step(self, target, now);
        self.count();
        wake
    }

    /// Drive the pass to completion, backing off in virtual time after
    /// each shed batch. Returns the completion time.
    pub fn run(&mut self, target: &mut ScrubTarget<'_>, now: SimTime) -> Result<SimTime, ClusterError> {
        let done = governed::run(self, target, now);
        self.count();
        done
    }

    /// Mirror the governor's counters into the report; scrub counts only
    /// executed batches as ticks.
    fn count(&mut self) {
        let c = self.governor.counters();
        self.report.ticks = c.ticks;
        self.report.shed_ticks = c.shed_ticks;
        self.report.forced_ticks = c.forced_ticks;
    }

    /// Verify one page; on mismatch, walk the repair-source chain and
    /// re-verify after each attempt. A page that exhausts every source is
    /// recorded as a [`ScrubLoss`] and counted on the cluster's stats.
    fn scrub_one(
        &mut self,
        target: &mut ScrubTarget<'_>,
        now: SimTime,
        vol: VolumeId,
        page: u64,
    ) -> Result<SimTime, ClusterError> {
        let Some(blade) = target.cluster().any_up_blade() else {
            self.report.unreadable += 1;
            return Ok(now);
        };
        let pv = match target.cluster().verify_page(now, blade, vol, page) {
            Ok(pv) => pv,
            Err(_) => {
                // No data path to the page at all (e.g. group down beyond
                // tolerance): it stays unverified, visibly.
                self.report.unreadable += 1;
                return Ok(now);
            }
        };
        self.report.pages_scanned += 1;
        let mut done = pv.done;
        if pv.mismatches.is_empty() {
            return Ok(done);
        }
        self.report.mismatch_pages += 1;

        // Source 1: RAID redundancy, span by span.
        let mut parity_ok = true;
        for m in &pv.mismatches {
            match target.cluster().repair_disk_span_from_parity(done, blade, m.disk, m.offset, m.bytes) {
                Ok(d) => done = done.max(d),
                Err(_) => parity_ok = false,
            }
        }
        if parity_ok {
            let check = target.cluster().verify_page(done, blade, vol, page)?;
            if check.mismatches.is_empty() {
                self.report.repaired_parity += 1;
                return Ok(check.done);
            }
            done = check.done;
        }

        // Source 2: a surviving cached replica is the current data —
        // rewriting it lays down fresh checksums.
        if let Some(d) = target.cluster().rewrite_page_from_cache(done, vol, page)? {
            let check = target.cluster().verify_page(d, blade, vol, page)?;
            if check.mismatches.is_empty() {
                self.report.repaired_replica += 1;
                return Ok(check.done);
            }
            done = check.done;
        }

        // Source 3: a geographic remote copy of the same data image.
        if let Some(d) = target.geo_fetch(done, vol, page) {
            let check = target.cluster().verify_page(d, blade, vol, page)?;
            if check.mismatches.is_empty() {
                self.report.repaired_geo += 1;
                return Ok(check.done);
            }
            done = check.done;
        }

        // Every source exhausted: declare the loss, loudly.
        target.cluster().stats.scrub_losses += 1;
        self.report.losses.push(ScrubLoss { vol, page });
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_cache::Retention;
    use ys_core::ClusterConfig;
    use ys_simdisk::DiskId;

    fn small() -> (BladeCluster, VolumeId) {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(6));
        let vol = c.create_volume("scrub-test", 0, 1 << 30).unwrap();
        (c, vol)
    }

    fn write_and_drain(c: &mut BladeCluster, vol: VolumeId, bytes: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for off in (0..bytes).step_by(1 << 20) {
            t = c.write(t, 0, vol, off, 1 << 20, 2, Retention::Normal).unwrap().done;
        }
        c.drain().max(t)
    }

    fn clear_cache(c: &mut BladeCluster, vol: VolumeId, pages: u64) {
        for p in 0..pages {
            c.cache.invalidate_page(ys_cache::PageKey::new(vol.0, p));
        }
    }

    #[test]
    fn clean_volume_scrubs_clean() {
        let (mut c, vol) = small();
        let t = write_and_drain(&mut c, vol, 4 << 20);
        let mut s = Scrubber::new(ScrubConfig::default(), &c);
        assert_eq!(s.work.len(), 64, "4 MiB / 64 KiB pages");
        let mut target = ScrubTarget::Cluster(&mut c);
        let end = s.run(&mut target, t).unwrap();
        assert!(end >= t);
        let r = s.report();
        assert_eq!(r.pages_scanned, 64);
        assert_eq!(r.mismatch_pages, 0);
        assert!(r.fully_repaired());
    }

    #[test]
    fn parity_repairs_rot_on_a_healthy_group() {
        let (mut c, vol) = small();
        let t = write_and_drain(&mut c, vol, 4 << 20);
        clear_cache(&mut c, vol, 64);
        assert!(c.corrupt_volume_page(vol, 7).is_some());
        assert!(c.corrupt_volume_page(vol, 30).is_some());
        let mut s = Scrubber::new(ScrubConfig::default(), &c);
        let mut target = ScrubTarget::Cluster(&mut c);
        s.run(&mut target, t).unwrap();
        let r = s.report();
        assert_eq!(r.mismatch_pages, 2);
        assert_eq!(r.repaired_parity, 2);
        assert!(r.fully_repaired());
        assert_eq!(c.corrupt_page_count(), 0, "media actually repaired");
        assert_eq!(c.stats.scrub_losses, 0);
    }

    #[test]
    fn cached_replica_repairs_when_parity_cannot() {
        let (mut c, vol) = small();
        let t = write_and_drain(&mut c, vol, 4 << 20);
        // Degrade the group: RAID5 tolerance is spent, parity can't help.
        c.fail_disk(DiskId(5));
        let (disk, _) = c.locate_volume_page(vol, 3).unwrap();
        if disk == DiskId(5) {
            return; // page lives on the failed member; scenario is moot
        }
        assert!(c.corrupt_volume_page(vol, 3).is_some());
        let mut s = Scrubber::new(ScrubConfig::default(), &c);
        let mut target = ScrubTarget::Cluster(&mut c);
        s.run(&mut target, t).unwrap();
        let r = s.report();
        assert_eq!(r.mismatch_pages, 1);
        assert_eq!(r.repaired_parity, 0);
        assert_eq!(r.repaired_replica, 1, "cache still holds the page");
        assert!(r.fully_repaired());
    }

    #[test]
    fn exhausted_sources_declare_explicit_loss() {
        let (mut c, vol) = small();
        let t = write_and_drain(&mut c, vol, 4 << 20);
        c.fail_disk(DiskId(5));
        clear_cache(&mut c, vol, 64);
        let (disk, _) = c.locate_volume_page(vol, 9).unwrap();
        if disk == DiskId(5) {
            return;
        }
        assert!(c.corrupt_volume_page(vol, 9).is_some());
        let mut s = Scrubber::new(ScrubConfig::default(), &c);
        let mut target = ScrubTarget::Cluster(&mut c);
        s.run(&mut target, t).unwrap();
        let r = s.report();
        assert_eq!(r.mismatch_pages, 1);
        assert_eq!(r.repaired(), 0);
        assert_eq!(r.losses, vec![ScrubLoss { vol, page: 9 }]);
        assert!(r.all_accounted(), "loss is declared, not dropped");
        assert_eq!(c.stats.scrub_losses, 1);
        // The rot stays on the media: a later read still surfaces it.
        let (_, off) = c.locate_volume_page(vol, 9).unwrap();
        assert!(c.disk_page_corrupt(disk, off));
    }

    #[test]
    fn scrub_walk_order_is_deterministic() {
        let build = || {
            let (mut c, vol) = small();
            write_and_drain(&mut c, vol, 4 << 20);
            (c, vol)
        };
        let (c1, _) = build();
        let (c2, _) = build();
        let s1 = Scrubber::new(ScrubConfig::default(), &c1);
        let s2 = Scrubber::new(ScrubConfig::default(), &c2);
        assert_eq!(s1.work, s2.work);
    }
}
