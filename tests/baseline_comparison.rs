//! The paper's central comparisons, verified end-to-end: the blade-cluster
//! pool vs the traditional dual-controller array
//! (`ClusterConfig::dual_controller`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, LoadBalance};
use ys_proto::Workload;
use ys_simcore::time::SimTime;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

/// Closed loop from `base`: each of `clients` clients issues its next
/// request when its last one completes, earliest client first, until `ops`
/// requests were issued in all. `issue(client, at)` issues one request and
/// returns when it completes; the loop returns when the last one did.
fn closed_loop(base: SimTime, clients: usize, ops: usize, mut issue: impl FnMut(usize, SimTime) -> SimTime) -> SimTime {
    let mut ready: BinaryHeap<Reverse<(u64, usize)>> = (0..clients).map(|cl| Reverse((base.nanos(), cl))).collect();
    let mut end = base;
    for _ in 0..ops {
        let Some(Reverse((at, cl))) = ready.pop() else { break };
        let done = issue(cl, SimTime(at));
        end = end.max(done);
        ready.push(Reverse((done.nanos(), cl)));
    }
    end
}

/// Issue `ops` cache-warm reads from 16 closed-loop clients and return MB/s.
fn cluster_throughput(blades: usize, ops: usize) -> f64 {
    let clients = 16;
    let mut c = BladeCluster::new(ClusterConfig::default().with_blades(blades).with_disks(16).with_clients(clients));
    let vol = c.create_volume("v", 0, 4 * GB).unwrap();
    let set = 64 * MB;
    let io = 64 * KB;
    let mut t = SimTime::ZERO;
    for off in (0..set).step_by(io as usize) {
        t = c.write(t, 0, vol, off, io, 1, Retention::Normal).unwrap().done;
    }
    let base = c.drain().max(t);
    let mut wl = Workload::random(set, io, 0.0, 5);
    let mut bytes = 0u64;
    let end = closed_loop(base, clients, ops, |cl, at| {
        let op = wl.next_op();
        bytes += op.len;
        c.read(at, cl, vol, op.offset, op.len).unwrap().done
    });
    bytes as f64 / 1e6 / end.since(base).as_secs_f64()
}

#[test]
fn blade_scaling_beats_the_fixed_controller_ceiling() {
    let two = cluster_throughput(2, 2000);
    let eight = cluster_throughput(8, 2000);
    assert!(
        eight > two * 1.7,
        "8 blades ({eight:.0} MB/s) should far outrun 2 ({two:.0} MB/s) — the paper's §2.1"
    );
}

#[test]
fn pooled_cache_beats_partitioned_under_skew() {
    // Same hardware, same Zipf workload over 8 volumes; only the routing
    // policy differs: pooled page-affinity spreads the hot volume's pages
    // over every blade's cache, while volume pinning creates an island.
    let clients = 16usize;
    let run = |lb: LoadBalance| {
        let mut c = BladeCluster::new(
            ClusterConfig::default().with_blades(8).with_disks(16).with_clients(clients).with_load_balance(lb),
        );
        let vols: Vec<_> = (0..8).map(|i| c.create_volume(&format!("v{i}"), 0, GB).unwrap()).collect();
        let mut t = SimTime::ZERO;
        for &v in &vols {
            for off in (0..(16 * MB)).step_by((64 * KB) as usize) {
                t = c.write(t, 0, v, off, 64 * KB, 1, Retention::Normal).unwrap().done;
            }
        }
        let base = c.drain().max(t);
        let zipf = ys_simcore::Zipf::new(8, 1.2);
        let mut rng = ys_simcore::Rng::new(31);
        let mut wl = Workload::random(16 * MB, 64 * KB, 0.0, 17);
        // Closed loop with 16 concurrent clients: hot-spot queueing only
        // shows up when requests actually overlap in time.
        let end = closed_loop(base, clients, 2000, |cl, at| {
            let v = vols[zipf.sample(&mut rng)];
            let op = wl.next_op();
            c.read(at, cl, v, op.offset, op.len).unwrap().done
        });
        (end.since(base), c.blade_utilizations(end))
    };
    let (pooled_time, pooled_utils) = run(LoadBalance::PageAffinity);
    let (pinned_time, pinned_utils) = run(LoadBalance::PinnedByVolume);
    assert!(pooled_time < pinned_time, "pooled {pooled_time} !< pinned {pinned_time}");
    let spread = |u: &[f64]| {
        let max = u.iter().cloned().fold(0.0, f64::max);
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        max / mean.max(1e-12)
    };
    assert!(
        spread(&pinned_utils) > spread(&pooled_utils) * 1.3,
        "pinned routing must show the hot-spot: {:?} vs {:?}",
        pinned_utils,
        pooled_utils
    );
}

#[test]
fn nway_cluster_survives_where_dual_controller_loses() {
    // Write 30 pages `copies`-way, then fail the first blade and the
    // second (if any), returning the pages each failure lost.
    let fail_in_turn = |cfg: ClusterConfig, copies: usize| {
        let blades = cfg.blades.min(2);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("v", 0, GB).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..30u64 {
            t = c.write(t, 0, vol, i * 64 * KB, 64 * KB, copies, Retention::Normal).unwrap().done;
        }
        let lost: Vec<usize> = (0..blades).map(|b| c.fail_blade(t, b).lost.len()).collect();
        (lost, c.read(t, 0, vol, 0, 512).is_ok())
    };
    // Cluster with 3-way replication: two blade failures, zero loss.
    let (lost, _) = fail_in_turn(ClusterConfig::default().with_blades(6).with_disks(12), 3);
    assert_eq!(lost, [0, 0], "3-way survives 2 failures");

    // The traditional array mirrors write-back to its one partner.
    let (lost, _) = fail_in_turn(ClusterConfig::dual_controller(), 2);
    assert_eq!(lost[0], 0, "first failure covered by the mirror");
    assert!(lost[1] > 0, "second failure loses data — the paper's §6.1 limit");

    // A single controller has no partner: the first failure loses the
    // dirty pages, and the array then refuses reads.
    let (lost, reads) = fail_in_turn(ClusterConfig::dual_controller().with_blades(1), 1);
    assert!(lost[0] > 0, "no mirror, immediate loss");
    assert!(!reads, "array is dead");
}

#[test]
fn dmsd_needs_a_fraction_of_fixed_provisioning() {
    use ys_virt::{PhysicalPool, VolumeKind, VolumeManager};
    // Fixed provisioning of 20 × 10 GiB volumes needs 200 GiB of disk; the
    // same volumes as DMSDs with 10% utilization need 20 GiB.
    let extent = MB;
    let mut thin = VolumeManager::new(PhysicalPool::new(256 * 1024, extent));
    for i in 0..20 {
        let id = thin.create(format!("t{i}"), i, VolumeKind::DemandMapped, 10 * 1024).unwrap();
        thin.write(id, 0, 1024).unwrap(); // 1 GiB of 10 used
    }
    let thin_used = thin.pool().used_extents();
    let mut fixed = VolumeManager::new(PhysicalPool::new(256 * 1024, extent));
    for i in 0..20 {
        fixed.create(format!("f{i}"), i, VolumeKind::Fixed, 10 * 1024).unwrap();
    }
    let fixed_used = fixed.pool().used_extents();
    assert_eq!(thin_used * 10, fixed_used, "10x provisioning efficiency at 10% utilization");
}
