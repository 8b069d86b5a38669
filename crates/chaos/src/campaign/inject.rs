//! The injections a schedule entry applies. Each checks its guard, acts,
//! and says whether it fired; [`Campaign::apply`] counts the entry once.

use super::{Campaign, RebuildState, BLADES_PER_SITE, DISKS_PER_SITE, PAGE, REBUILD_REGION, SITES, WRITE_BACK_COPIES};
use crate::oracle;
use crate::schedule::{Injection, ScheduledFault};
use ys_cache::durability::{self, Verdict};
use ys_core::Rebuilder;
use ys_geo::SiteId;
use ys_heal::{HealConfig, Healer};
use ys_simdisk::DiskId;

impl Campaign {
    /// Apply one entry and count it, once: fired, or skipped when its
    /// guard refuses it (no such blade, a disk already failed, ...).
    pub(super) fn apply(&mut self, e: ScheduledFault) {
        let fired = match e.injection {
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
                true
            }
            Injection::HealLink { a, b } => {
                self.ns.heal_link(SiteId(a), SiteId(b));
                self.partitions.retain(|&p| p != (a, b));
                true
            }
            Injection::KillDirtyPage { site } => self.kill_dirty_page(site),
            Injection::CorruptPage { site, page } => self.corrupt_page(site, page),
            Injection::BladeDrain { site, blade } => self.drain_blade(site, blade),
            Injection::BladeRevive { site, blade } => self.revive_blade(site, blade),
        };
        self.count(fired);
    }

    fn count(&mut self, fired: bool) {
        if fired {
            self.report.injections_fired += 1;
        } else {
            self.report.injections_skipped += 1;
        }
    }

    /// Planned online shutdown: evacuate the blade with zero loss of
    /// acknowledged writes, then take it down. Any `DataLost` tombstone a
    /// *drain* mints breaks the maintenance promise — unlike a crash, no
    /// loss budget applies.
    fn drain_blade(&mut self, site: usize, blade: usize) -> bool {
        if self.blade_down(site, blade) != Some(false) {
            return false;
        }
        // Evacuated dirty pages need peers to land on: keep at least two
        // other blades up (guards shrunk subsets that stacked faults).
        if self.down[site].iter().filter(|&&d| !d).count() <= 2 {
            return false;
        }
        oracle::refresh(&mut self.ledgers[site], &self.ns.clusters[site]);
        let lost_before = self.ns.clusters[site].cache.lost_pages().len();
        let drained = match self.ns.clusters[site].drain_blade(self.t, blade) {
            Ok((_report, done)) => {
                self.t = self.t.max(done);
                let lost_after = self.ns.clusters[site].cache.lost_pages().len();
                if lost_after > lost_before {
                    self.violate(
                        "drain-lost-write",
                        site,
                        format!("draining blade {blade} minted {} DataLost tombstone(s)", lost_after - lost_before),
                    );
                }
                self.set_down(site, blade, true);
                true
            }
            Err(_) => {
                // No eligible peer even after forced destages (concurrent
                // faults shrank the cluster): abort the drain and put the
                // blade back in service — its pages are intact.
                self.ns.clusters[site].repair_blade(blade);
                false
            }
        };
        self.audit(site);
        drained
    }

    /// Rejoin a drained (or crashed) blade empty, then run the healer to
    /// convergence. The healer's own stall budget is the converge budget
    /// the oracle holds it to: with every blade back up, a stalled heal is
    /// a broken promise, not bad luck.
    fn revive_blade(&mut self, site: usize, blade: usize) -> bool {
        if self.blade_down(site, blade) != Some(true) || self.ns.clusters[site].revive_blade(blade).is_err() {
            return false;
        }
        self.set_down(site, blade, false);
        // Administrative heal pass (no QoS tenant); on convergence it
        // promotes the Rejoining blade to full Up membership.
        let mut healer = Healer::new(HealConfig::default());
        match healer.run(&mut self.ns.clusters[site], self.t) {
            Ok(done) => self.t = self.t.max(done),
            Err(_) => self.report.ops_failed += 1,
        }
        let rep = healer.report();
        if !rep.converged && !self.down[site].iter().any(|&d| d) {
            self.violate(
                "redundancy-not-restored",
                site,
                format!("healer stalled with {} page(s) under target after blade {blade} rejoined", rep.stalled_pages),
            );
        }
        self.audit(site);
        true
    }

    fn corrupt_page(&mut self, site: usize, page: u64) -> bool {
        if site >= SITES {
            return false;
        }
        let vol = self.integ_vols[site];
        let Some((disk, offset)) = self.ns.clusters[site].locate_volume_page(vol, page) else {
            return false;
        };
        let row = (site, offset / PAGE);
        if offset < REBUILD_REGION
            || self.rotten_rows.contains(&row)
            || self.ns.clusters[site].disk_page_corrupt(disk, offset)
        {
            return false;
        }
        self.ns.clusters[site].corrupt_disk_page(disk, offset);
        self.rotten_rows.insert(row);
        self.corruptions.push((site, disk, offset, page));
        true
    }

    fn crash_blade(&mut self, site: usize, blade: usize) -> bool {
        if self.blade_down(site, blade) != Some(false) {
            return false;
        }
        // Refuse to crash the last blade standing: the campaign needs a
        // survivor to re-home dirty pages onto (the schedule respects the
        // N−1 budget; this guards shrunk subsets that dropped repairs).
        if self.down[site].iter().filter(|&&d| !d).count() <= 1 {
            return false;
        }
        oracle::refresh(&mut self.ledgers[site], &self.ns.clusters[site]);
        self.ledgers[site].pre_crash(self.ns.clusters[site].cache.directory(), blade);
        let failure = self.ns.clusters[site].fail_blade(self.t, blade);
        for &key in &failure.lost {
            let verdict = self.ledgers[site].judge(key, WRITE_BACK_COPIES);
            match verdict {
                Verdict::Benign => self.report.benign_losses += 1,
                Verdict::AtLimit(_) => self.report.expected_losses += 1,
                _ => {}
            }
            if let Some(rule) = verdict.rule() {
                self.violate(rule, site, verdict.detail(key));
            }
            if let Err(detail) = durability::check_loss_is_loud(&mut self.ns.clusters[site].cache, blade, key) {
                self.violate(durability::SILENT_LOSS, site, detail);
            }
            // Judged: acknowledge the tombstone so the structural audit
            // sees a clean directory.
            self.ns.clusters[site].cache.acknowledge_loss(key);
        }
        self.set_down(site, blade, true);
        if self.crash_since[site].is_none() {
            self.crash_since[site] = Some(self.t);
        }
        oracle::audit_site(site, self.step, &mut self.ns.clusters[site], &mut self.report.violations);
        true
    }

    pub(super) fn repair_blade(&mut self, site: usize, blade: usize) -> bool {
        if self.blade_down(site, blade) != Some(true) {
            return false;
        }
        self.ns.clusters[site].repair_blade(blade);
        self.set_down(site, blade, false);
        true
    }

    /// Destage drain + budget reset + audit.
    pub(super) fn stabilize(&mut self, site: usize) -> bool {
        if site >= SITES {
            return false;
        }
        let fin = self.ns.clusters[site].drain();
        self.t = self.t.max(fin);
        if let Some(t0) = self.crash_since[site].take() {
            self.report.recovery.push(("blade-crash", self.t.since(t0)));
        }
        self.audit(site);
        true
    }

    fn flap_port(&mut self, site: usize, disk: usize) -> bool {
        let already_flapped = self.flaps.iter().any(|&(s, d, _)| s == site && d == disk);
        let rebuild_target = self
            .rebuild
            .as_ref()
            .is_some_and(|rs| (rs.site, rs.target) == (site, disk));
        if site >= SITES || disk >= DISKS_PER_SITE || already_flapped || rebuild_target {
            return false;
        }
        if self.ns.clusters[site].failed_disks().get(disk).copied().unwrap_or(true) {
            return false;
        }
        self.ns.clusters[site].fail_disk(DiskId(disk));
        self.flaps.push((site, disk, self.step + 2));
        true
    }

    /// Bring back every flapped port due by `step`: a transient fabric
    /// loss, so the media returns intact and needs no rebuild.
    pub(super) fn heal_flaps(&mut self, step: u64) {
        let healed: Vec<_> = self.flaps.extract_if(.., |&mut (_, _, at)| step >= at).collect();
        for (site, disk, _) in healed {
            self.ns.clusters[site].replace_disk(DiskId(disk));
            self.ns.clusters[site].mark_disk_rebuilt(DiskId(disk));
        }
    }

    fn fail_disk(&mut self, site: usize, disk: usize) -> bool {
        if site >= SITES
            || disk >= DISKS_PER_SITE
            || self.rebuild.is_some()
            || self.ns.clusters[site].failed_disks().get(disk).copied().unwrap_or(true)
        {
            return false;
        }
        // A disk failed with nobody to rebuild it would stay failed: skip
        // before touching it.
        let workers: Vec<usize> = (0..BLADES_PER_SITE).filter(|&b| !self.down[site][b]).collect();
        if workers.is_empty() {
            return false;
        }
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
        true
    }

    /// Fired once a victim is chosen; skipped, and nothing more, when no
    /// replicated dirty page exists.
    fn kill_dirty_page(&mut self, site: usize) -> bool {
        if site >= SITES {
            return false;
        }
        // Make sure there is a protected dirty page to kill.
        if let Some(&(ino, _)) = self.files.iter().find(|&&(_, home)| home == site) {
            match self.ns.write_ino(self.t, SiteId(site), 0, ino, 0, PAGE) {
                Ok(c) => {
                    self.acked.insert((ino.0, 0), PAGE);
                    self.report.acked_writes += 1;
                    self.t = c.done;
                }
                Err(_) => self.report.ops_failed += 1,
            }
        }
        // Apply the destages that fell due by `self.t` before picking the
        // victim: left to the first crash's own advance, they would rescue
        // it and leave the kill nothing to lose.
        self.ns.clusters[site].advance(self.t);
        oracle::refresh(&mut self.ledgers[site], &self.ns.clusters[site]);
        // The adversary: pick the smallest fully-replicated dirty page (the
        // directory iterates in key order) and crash every holder, owner
        // first, before any destage can rescue it. Each crash goes through
        // the full judged path, and counts as an injection of its own.
        let victim = self.ns.clusters[site]
            .cache
            .directory()
            .iter()
            .find(|(_, e)| e.owner.is_some() && !e.replicas.is_empty())
            .map(|(k, _)| *k);
        let Some(key) = victim else { return false };
        for _ in 0..BLADES_PER_SITE {
            let holder = self.ns.clusters[site]
                .cache
                .directory()
                .get(&key)
                .and_then(|e| e.owner);
            let Some(blade) = holder else { break };
            let crashed = self.crash_blade(site, blade);
            self.count(crashed);
        }
        true
    }
}
