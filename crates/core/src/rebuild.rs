//! Distributed rebuild driver (§2.4, §6.3): executes a RAID rebuild across
//! participating blades over the live cluster, tolerating worker failures.

use crate::cluster::{BladeCluster, ClusterError};
use ys_raid::{rebuild_batch_plan, RebuildCoordinator};
use ys_simcore::time::SimTime;
use ys_simcore::TRACE_CAPACITY;
use ys_simdisk::DiskId;

/// A running distributed rebuild.
pub struct Rebuilder {
    coord: RebuildCoordinator,
    group: usize,
    disk: DiskId,
    /// (blade, next-available-time) per worker; None = worker dead.
    workers: Vec<Option<(usize, SimTime)>>,
    finished_at: Option<SimTime>,
}

impl Rebuilder {
    /// Start rebuilding `disk` over `region_bytes` of member capacity,
    /// using `blades` as workers, `batch_rows` stripe rows per claim.
    pub fn new(
        cluster: &mut BladeCluster,
        now: SimTime,
        disk: DiskId,
        region_bytes: u64,
        blades: &[usize],
        batch_rows: u64,
    ) -> Rebuilder {
        assert!(!blades.is_empty());
        cluster.replace_disk(disk);
        let (group, member) = cluster.group_of_disk(disk);
        let geo = cluster.group(group).geo;
        Rebuilder {
            coord: RebuildCoordinator::new(geo, member, region_bytes, batch_rows),
            group,
            disk,
            workers: blades.iter().map(|&b| Some((b, now))).collect(),
            finished_at: None,
        }
    }

    /// Enable structured tracing of rebuild phases (claim / complete /
    /// requeue instants on the coordinator), [`TRACE_CAPACITY`] events deep.
    pub fn enable_tracing(&mut self) {
        self.coord.trace_mut().enable(TRACE_CAPACITY);
    }

    /// Drain the rebuild trace ring: (events, dropped count).
    pub fn take_trace(&mut self) -> (Vec<ys_simcore::SpanEvent>, u64) {
        let dropped = self.coord.trace().dropped();
        (self.coord.trace_mut().take(), dropped)
    }

    /// Progress in [0, 1].
    pub fn progress(&self) -> f64 {
        self.coord.progress()
    }

    /// The underlying coordinator, for coverage audits.
    pub fn coordinator(&self) -> &RebuildCoordinator {
        &self.coord
    }

    /// Mutable coordinator access, for fault harnesses that arm crash
    /// points on its trace recorder.
    pub fn coordinator_mut(&mut self) -> &mut RebuildCoordinator {
        &mut self.coord
    }

    pub fn is_done(&self) -> bool {
        self.coord.is_done()
    }

    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// A worker blade died mid-rebuild; its outstanding batch re-queues.
    pub fn fail_worker(&mut self, blade: usize) {
        for w in self.workers.iter_mut() {
            if let Some((b, _)) = w {
                if *b == blade {
                    self.coord.fail_worker(blade);
                    *w = None;
                }
            }
        }
    }

    /// Execute one batch on the earliest-available live worker. Returns
    /// `Ok(false)` when no work remains (rebuild finished or finishing).
    pub fn step(&mut self, cluster: &mut BladeCluster) -> Result<bool, ClusterError> {
        // Earliest available live worker.
        let Some((widx, blade, avail)) = self
            .workers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|(blade, t)| (i, blade, t)))
            .min_by_key(|&(_, _, t)| t)
        else {
            return Ok(false);
        };
        self.coord.trace_mut().set_now(avail);
        let Some(batch) = self.coord.claim(blade) else {
            if self.coord.is_done() && self.finished_at.is_none() {
                self.finished_at = Some(avail);
            }
            return Ok(false);
        };
        // One large sequential read per survivor + one sequential write to
        // the replacement, covering the whole batch (see ys-raid::rebuild).
        let plan = rebuild_batch_plan(self.coord.geometry(), self.coord.failed_member(), batch.start, batch.rows());
        // Verified reads: a latent error on a survivor must not be baked
        // silently into the replacement. The batch still completes (coverage
        // must finish), but the affected replacement spans are poisoned so
        // they stay detectable until a scrub repairs them.
        let mut mismatches = Vec::new();
        let t = match cluster.charge(self.group, blade, avail, &plan, Some(&mut mismatches)) {
            Ok(t) => {
                if !mismatches.is_empty() {
                    cluster.poison_rebuilt_spans(self.disk, &mismatches);
                }
                t
            }
            Err(e) => {
                // The worker crashed between claim and complete (e.g. a
                // survivor member died under it). Its claim must requeue —
                // leaking it would leave the batch's rows never rebuilt and
                // a retried step would panic on the stuck claim.
                self.coord.fail_worker(blade);
                self.workers[widx] = None;
                return Err(e);
            }
        };
        self.coord.trace_mut().set_now(t);
        self.coord.complete(blade);
        self.workers[widx] = Some((blade, t));
        if self.coord.is_done() {
            self.finished_at = Some(self.finished_at.map_or(t, |f| f.max(t)));
            cluster.mark_disk_rebuilt(self.disk);
        }
        Ok(true)
    }

    /// Drive the rebuild to completion; returns the finish time.
    pub fn run(&mut self, cluster: &mut BladeCluster) -> Result<SimTime, ClusterError> {
        while self.step(cluster)? {}
        // If every worker died the rebuild stalls rather than finishing.
        Ok(self.finished_at.unwrap_or(SimTime::FAR_FUTURE))
    }

    /// Add a replacement worker (e.g. after a blade failure elsewhere).
    pub fn add_worker(&mut self, blade: usize, available_from: SimTime) {
        self.workers.push(Some((blade, available_from)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ys_raid::RaidLevel;

    fn cluster(blades: usize, disks: usize) -> BladeCluster {
        BladeCluster::new(
            ClusterConfig::default()
                .with_blades(blades)
                .with_disks(disks)
                .with_raid(RaidLevel::Raid5),
        )
    }

    const REGION: u64 = 64 * 1024 * 1024; // 64 MiB of member capacity

    #[test]
    fn rebuild_completes_and_clears_degraded_state() {
        let mut c = cluster(4, 6);
        c.fail_disk(DiskId(2));
        assert!(c.failed_disks()[2]);
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(2), REGION, &[0, 1, 2, 3], 64);
        let done = r.run(&mut c).unwrap();
        assert!(r.is_done());
        assert!(done > SimTime::ZERO);
        assert!(!c.failed_disks()[2], "disk healthy after rebuild");
        assert_eq!(r.progress(), 1.0);
    }

    #[test]
    fn more_workers_finish_faster() {
        let mut times = Vec::new();
        for nworkers in [1usize, 2, 4] {
            let mut c = cluster(4, 6);
            c.fail_disk(DiskId(1));
            let workers: Vec<usize> = (0..nworkers).collect();
            let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(1), REGION, &workers, 32);
            times.push(r.run(&mut c).unwrap());
        }
        assert!(times[1] < times[0], "2 workers {:?} !< 1 worker {:?}", times[1], times[0]);
        // Beyond 2 workers the replacement disk's write queue is the
        // bottleneck (a real effect): time must not regress, and the
        // speedup curve flattens rather than climbing.
        assert!(times[2] <= times[1], "4 workers {:?} regressed vs 2 {:?}", times[2], times[1]);
    }

    #[test]
    fn worker_death_midway_still_completes() {
        let mut c = cluster(4, 6);
        c.fail_disk(DiskId(0));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(0), REGION, &[0, 1], 16);
        // Run a few steps, then kill worker blade 0.
        for _ in 0..3 {
            r.step(&mut c).unwrap();
        }
        r.fail_worker(0);
        let done = r.run(&mut c).unwrap();
        assert!(r.is_done(), "survivor finishes the rebuild");
        assert!(done != SimTime::FAR_FUTURE);
    }

    #[test]
    fn failed_io_mid_batch_requeues_the_claim() {
        let mut c = cluster(4, 6);
        c.fail_disk(DiskId(0));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(0), REGION, &[0, 1], 16);
        for _ in 0..2 {
            r.step(&mut c).unwrap();
        }
        // A survivor member dies mid-rebuild: the next charged batch fails
        // after the claim. The claim must requeue, not leak.
        c.fail_disk(DiskId(1));
        let mut failures = 0;
        loop {
            match r.step(&mut c) {
                Ok(true) => {}
                Ok(false) => break,
                Err(_) => failures += 1,
            }
            assert!(
                r.coordinator().audit_coverage().is_empty(),
                "coverage hole after failed step: {:?}",
                r.coordinator().audit_coverage()
            );
            if failures > 4 {
                break;
            }
        }
        assert!(failures > 0, "survivor-member failure must surface");
        assert!(!r.is_done(), "rebuild cannot finish against a dead survivor");
        // No rows may be stranded: everything unfinished is claimable again.
        assert_eq!(r.coordinator().outstanding(), 0, "no claims leaked");
        assert!(r.coordinator().audit_coverage().is_empty());
    }

    #[test]
    fn survivor_bitrot_poisons_rebuilt_span_instead_of_silent_copy() {
        let mut c = cluster(4, 6);
        // Corrupt a page on a survivor (disk 1) before disk 2 dies; the
        // rebuild will read it to reconstruct the replacement.
        assert!(c.corrupt_disk_page(DiskId(1), 0));
        c.fail_disk(DiskId(2));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(2), REGION, &[0, 1], 64);
        r.run(&mut c).unwrap();
        assert!(r.is_done(), "rebuild still completes; bitrot is not fatal");
        assert!(
            c.disk_page_corrupt(DiskId(2), 0),
            "replacement span built from a rotten source must stay detectable"
        );
        assert!(c.stats.rebuild_mismatches > 0, "mismatch counted");
        assert!(c.stats.integrity_errors > 0, "verified read observed the rot");
    }

    #[test]
    fn clean_rebuild_poisons_nothing() {
        let mut c = cluster(4, 6);
        c.fail_disk(DiskId(2));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(2), REGION, &[0, 1], 64);
        r.run(&mut c).unwrap();
        assert_eq!(c.corrupt_page_count(), 0);
        assert_eq!(c.stats.rebuild_mismatches, 0);
    }

    #[test]
    fn all_workers_dead_stalls_without_finishing() {
        let mut c = cluster(2, 6);
        c.fail_disk(DiskId(0));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(0), REGION, &[0], 16);
        r.step(&mut c).unwrap();
        r.fail_worker(0);
        assert_eq!(r.run(&mut c).unwrap(), SimTime::FAR_FUTURE);
        assert!(!r.is_done());
        // A replacement worker rescues it.
        r.add_worker(1, SimTime::ZERO);
        let done = r.run(&mut c).unwrap();
        assert!(r.is_done());
        assert!(done != SimTime::FAR_FUTURE);
    }
}
