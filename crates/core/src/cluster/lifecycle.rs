//! Membership lifecycle: controller blades failing, draining, rejoining
//! and being healed back to their replica target; disks failing and being
//! replaced.

use super::{BladeCluster, ClusterError};
use crate::config::PAGE_BYTES;
use std::cmp::Reverse;
use ys_cache::{CacheError, DrainReport, Health, PageKey};
use ys_simcore::time::SimTime;
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

impl BladeCluster {
    /// Fail a controller blade (§6). Dirty data survives via replicas; any
    /// page without a surviving replica is lost and counted.
    pub fn fail_blade(&mut self, now: SimTime, blade: usize) -> ys_cache::FailureReport {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let report = self.cache.fail_blade(blade);
        self.stats.dirty_pages_lost += report.lost.len() as u64;
        self.stats.dirty_pages_promoted += report.promoted.len() as u64;
        // Promoted pages get a fresh destage from their new owner.
        for &key in &report.promoted {
            let Some((version, Some(owner))) = self.cache.directory().get(&key).map(|e| (e.version, e.owner)) else {
                continue;
            };
            let Ok(destage) = self.write_page_media(now, owner, VolumeId(key.volume), key.page) else {
                // The re-destage cannot be planned or charged (the RAID
                // group is past tolerance, a member died under the write),
                // and the dead blade's own in-flight destage died with it:
                // nothing may mark the page clean. It stays dirty at its
                // new owner, exactly as a foreground write whose destage
                // plan fails leaves it — never released as if on disk.
                self.pending.retain(|&Reverse((_, vol, page, _))| (vol, page) != (key.volume, key.page));
                continue;
            };
            self.pending.push(Reverse((destage.done.nanos(), key.volume, key.page, version)));
        }
        report
    }

    pub fn repair_blade(&mut self, blade: usize) {
        self.cache.repair_blade(blade);
    }

    /// Planned blade shutdown (`Up → Draining → Down`): evacuate every copy
    /// with zero loss of acknowledged writes, forcing pending destages to
    /// free peer space whenever the drain stalls. Returns the cache-level
    /// report and the time the evacuation copies complete on the blade
    /// fabric.
    pub fn drain_blade(
        &mut self,
        now: SimTime,
        blade: usize,
    ) -> Result<(DrainReport, SimTime), ClusterError> {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let mut report = DrainReport::default();
        let mut t = now;
        loop {
            let pass = self.cache.drain_blade(blade).map_err(ClusterError::Cache)?;
            let completed = pass.completed;
            report.merge(pass);
            if completed {
                break;
            }
            // A dirty page had no eligible peer: free space by applying the
            // earliest pending destage, then retry the drain.
            t = self
                .force_one_destage(t)
                .ok_or(ClusterError::Cache(CacheError::NoEligiblePeer))?;
        }
        // Charge the evacuation traffic: every moved owner copy and every
        // re-placed replica is one page over the blade-to-blade fabric.
        let pb = PAGE_BYTES;
        let mut done = t;
        for &key in &report.moved {
            if let Some(owner) = self.cache.directory().get(&key).and_then(|e| e.owner) {
                done = done.max(self.cluster_fabric.send(t, blade, owner, pb).arrival);
            }
        }
        for &key in &report.replicas_moved {
            // add_replica appends: the re-placed copy is the last replica.
            let dest = self.cache.directory().get(&key).and_then(|e| e.replicas.last().copied());
            if let Some(dest) = dest {
                done = done.max(self.cluster_fabric.send(t, blade, dest, pb).arrival);
            }
        }
        self.stats.pages_evacuated += report.evacuated() as u64;
        Ok((report, done))
    }

    /// Admit a failed/shut-down blade back, empty and `Rejoining`; the
    /// healer promotes it to `Up` once redundancy converges.
    pub fn revive_blade(&mut self, blade: usize) -> Result<(), ClusterError> {
        self.cache.revive_blade(blade).map_err(ClusterError::Cache)
    }

    /// Promote a `Rejoining` blade to `Up` (healer convergence).
    pub fn finish_rejoin(&mut self, blade: usize) -> bool {
        self.cache.finish_rejoin(blade)
    }

    /// Cluster health from surviving replica margins (`ys-heal` governor).
    pub fn health(&self) -> Health {
        self.cache.health()
    }

    /// Dirty pages below their fault-tolerance target — the healer's queue.
    pub fn under_target_pages(&self) -> Vec<(PageKey, usize)> {
        self.cache.under_target_pages()
    }

    /// Re-establish one replica for an under-protected page (the healer's
    /// unit of work): place the copy, charge the owner → target page
    /// transfer on the blade fabric, return `(target, done)`.
    pub fn heal_page(&mut self, now: SimTime, key: PageKey) -> Result<(usize, SimTime), ClusterError> {
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let owner = match self.cache.directory().get(&key).and_then(|e| e.owner) {
            Some(o) => o,
            None => return Err(ClusterError::Cache(CacheError::BadState)),
        };
        let target = self.cache.add_replica(key).map_err(ClusterError::Cache)?;
        self.stats.heal_replicas_placed += 1;
        let done = self.cluster_fabric.send(now, owner, target, PAGE_BYTES).arrival;
        Ok((target, done))
    }

    /// First up blade, if any — the deterministic default actor for
    /// administrative work like scrubbing.
    pub fn any_up_blade(&self) -> Option<usize> {
        (0..self.cfg.blades).find(|&b| self.cache.blade_up(b))
    }

    /// Fail a disk; RAID keeps serving in degraded mode.
    pub fn fail_disk(&mut self, disk: DiskId) {
        self.failed_disks[disk.0] = true;
        self.farm.fail(disk);
    }

    /// Replace a failed disk (rebuild is driven by [`crate::rebuild`]).
    pub fn replace_disk(&mut self, disk: DiskId) {
        self.farm.replace(disk);
        // Disk stays logically failed for planning until the rebuild ends.
    }

    /// Mark a rebuilt disk healthy for planning.
    pub fn mark_disk_rebuilt(&mut self, disk: DiskId) {
        self.failed_disks[disk.0] = false;
    }

    pub fn failed_disks(&self) -> &[bool] {
        &self.failed_disks
    }
}
