//! Scenario runner: replay a deterministic [`FaultPlan`] against a cluster
//! while a workload runs, and account for what the users experienced.
//!
//! This is the harness behind the availability claims of §6.3 ("if any
//! given portion of the system failed, access to data would continue
//! through remaining portions") — fault schedules are configuration, not
//! ad-hoc test code.

use crate::cluster::{BladeCluster, ClusterError};
use ys_cache::Retention;
use ys_proto::Workload;
use ys_simcore::fault::{FaultKind, FaultPlan, FaultTarget};
use ys_simcore::stats::LatencyHisto;
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

/// What the scenario observed.
#[derive(Debug, Default)]
pub struct ScenarioResult {
    pub ops_completed: u64,
    pub ops_failed: u64,
    pub bytes_moved: u64,
    pub dirty_pages_lost: u64,
    pub latency: LatencyHisto,
    /// Faults applied, in order.
    pub faults_applied: usize,
}

impl ScenarioResult {
    /// Fraction of operations that completed.
    pub fn availability(&self) -> f64 {
        let total = self.ops_completed + self.ops_failed;
        if total == 0 {
            1.0
        } else {
            self.ops_completed as f64 / total as f64
        }
    }
}

/// Run `ops` operations of `workload` against `vol` on `cluster`,
/// interleaving the fault plan by simulated time. Blade and disk faults
/// (and repairs) are applied when the workload clock passes them.
pub fn run_scenario(
    cluster: &mut BladeCluster,
    vol: VolumeId,
    mut workload: Workload,
    ops: usize,
    write_copies: usize,
    plan: &FaultPlan,
) -> ScenarioResult {
    let mut result = ScenarioResult::default();
    let mut faults = plan.sorted().into_iter().peekable();
    let mut t = SimTime::ZERO;
    for i in 0..ops {
        // Apply every fault scheduled at or before the current time.
        while let Some(f) = faults.next_if(|f| f.at <= t) {
            match (f.target, f.kind) {
                (FaultTarget::Blade(b), FaultKind::Fail) => {
                    cluster.fail_blade(t, b);
                }
                (FaultTarget::Blade(b), FaultKind::Repair) => cluster.repair_blade(b),
                (FaultTarget::Disk(d), FaultKind::Fail) => cluster.fail_disk(ys_simdisk::DiskId(d)),
                (FaultTarget::Disk(d), FaultKind::Repair) => {
                    cluster.replace_disk(ys_simdisk::DiskId(d));
                    cluster.mark_disk_rebuilt(ys_simdisk::DiskId(d));
                }
                // Site faults are a NetStorage concern; ignored here.
                (FaultTarget::Site(_) | FaultTarget::Link(..), _) => {}
            }
            result.faults_applied += 1;
        }
        let op = workload.next_op();
        let outcome: Result<_, ClusterError> = if op.write {
            cluster.write(t, i % cluster.config().clients, vol, op.offset, op.len, write_copies, Retention::Normal)
        } else {
            cluster.read(t, i % cluster.config().clients, vol, op.offset, op.len)
        };
        match outcome {
            Ok(c) => {
                result.ops_completed += 1;
                result.bytes_moved += op.len;
                result.latency.record(c.latency);
                t = c.done;
            }
            Err(_) => {
                result.ops_failed += 1;
                // The client retries after a beat; time still advances.
                t = SimTime(t.nanos() + 1_000_000);
            }
        }
    }
    result.dirty_pages_lost = cluster.stats.dirty_pages_lost;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ys_simcore::time::SimDuration;

    const MB: u64 = 1 << 20;

    fn setup() -> (BladeCluster, VolumeId) {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(6).with_disks(12).with_clients(4));
        let v = c.create_volume("v", 0, 4 << 30).unwrap();
        (c, v)
    }

    #[test]
    fn no_faults_full_availability() {
        let (mut c, v) = setup();
        let wl = Workload::random(64 * MB, 64 * 1024, 0.5, 1);
        let r = run_scenario(&mut c, v, wl, 200, 2, &FaultPlan::new());
        assert_eq!(r.availability(), 1.0);
        assert_eq!(r.ops_completed, 200);
        assert_eq!(r.dirty_pages_lost, 0);
    }

    #[test]
    fn blade_churn_is_absorbed_without_loss() {
        let (mut c, v) = setup();
        let wl = Workload::random(64 * MB, 64 * 1024, 0.5, 2);
        // Blades fail and return staggered through the run.
        let plan = FaultPlan::new()
            .fail(SimTime::ZERO + SimDuration::from_millis(20), FaultTarget::Blade(0))
            .repair(SimTime::ZERO + SimDuration::from_millis(120), FaultTarget::Blade(0))
            .fail(SimTime::ZERO + SimDuration::from_millis(140), FaultTarget::Blade(1))
            .repair(SimTime::ZERO + SimDuration::from_millis(260), FaultTarget::Blade(1));
        let r = run_scenario(&mut c, v, wl, 300, 2, &plan);
        assert_eq!(r.faults_applied, 4);
        assert_eq!(r.availability(), 1.0, "non-overlapping single failures never refuse service");
        assert_eq!(r.dirty_pages_lost, 0, "2-way replication absorbs each single failure");
    }

    #[test]
    fn disk_failure_mid_run_degrades_but_serves() {
        let (mut c, v) = setup();
        let wl = Workload::random(64 * MB, 64 * 1024, 0.3, 3);
        let plan = FaultPlan::new().fail(SimTime::ZERO + SimDuration::from_millis(30), FaultTarget::Disk(4));
        let r = run_scenario(&mut c, v, wl, 300, 2, &plan);
        assert_eq!(r.availability(), 1.0, "RAID5 serves degraded");
        assert!(c.failed_disks()[4]);
    }

    #[test]
    fn total_blade_loss_refuses_service_until_repair() {
        let (mut c, v) = setup();
        let wl = Workload::random(64 * MB, 64 * 1024, 0.0, 4);
        let mut plan = FaultPlan::new();
        for b in 0..6 {
            plan = plan.fail(SimTime::ZERO + SimDuration::from_millis(10), FaultTarget::Blade(b));
        }
        plan = plan.repair(SimTime::ZERO + SimDuration::from_millis(200), FaultTarget::Blade(0));
        let r = run_scenario(&mut c, v, wl, 300, 1, &plan);
        assert!(r.ops_failed > 0, "no blades = no service");
        assert!(r.ops_completed > 0, "service resumes after repair");
        assert!(r.availability() < 1.0);
    }
}
