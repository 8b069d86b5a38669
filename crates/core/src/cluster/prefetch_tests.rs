#![cfg(test)]

use super::*;
use ys_cache::Retention;
use ys_virt::VolumeId;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

fn cold_cluster(prefetch: usize) -> (BladeCluster, VolumeId, SimTime) {
    let cfg = ClusterConfig::default().with_blades(4).with_disks(8).with_prefetch(prefetch);
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("seq", 0, 1 << 30).unwrap();
    // Materialize 16 MiB, then drop every cached copy.
    let mut t = SimTime::ZERO;
    for off in (0..(16 * MB)).step_by(MB as usize) {
        t = c.write(t, 0, vol, off, MB, 1, Retention::Normal).unwrap().done;
    }
    let t = c.drain().max(t);
    for b in 0..4 {
        c.fail_blade(t, b);
        c.repair_blade(b);
    }
    (c, vol, t)
}

#[test]
fn sequential_reads_trigger_readahead_and_join_inflight() {
    let (mut c, vol, mut t) = cold_cluster(8);
    for off in (0..(8 * MB)).step_by((64 * KB) as usize) {
        t = c.read(t, 0, vol, off, 64 * KB).unwrap().done;
    }
    assert!(c.stats.prefetches_issued > 0, "readahead fired");
    assert!(
        c.stats.prefetch_hits + c.stats.reads_from_local_cache > 0,
        "later reads were served by prefetched pages"
    );
}

#[test]
fn prefetch_speeds_up_sequential_streams() {
    let run = |pf: usize| {
        let (mut c, vol, start) = cold_cluster(pf);
        let mut t = start;
        for off in (0..(8 * MB)).step_by((64 * KB) as usize) {
            t = c.read(t, 0, vol, off, 64 * KB).unwrap().done;
        }
        t.since(start)
    };
    let without = run(0);
    let with = run(8);
    assert!(
        with < without,
        "readahead must help sequential streams: with={with} without={without}"
    );
}

#[test]
fn random_reads_do_not_trigger_readahead() {
    let (mut c, vol, mut t) = cold_cluster(8);
    // Jump around: never two adjacent reads.
    for i in [11u64, 3, 7, 1, 13, 5, 9, 2] {
        t = c.read(t, 0, vol, i * MB, 64 * KB).unwrap().done;
    }
    assert_eq!(c.stats.prefetches_issued, 0, "no sequentiality, no readahead");
}

#[test]
fn prefetch_never_reads_holes() {
    let cfg = ClusterConfig::default().with_blades(2).with_disks(8).with_prefetch(4);
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("sparse", 0, 1 << 30).unwrap();
    // Exactly one 1 MiB extent is mapped (pages 0..16).
    let mut t = c.write(SimTime::ZERO, 0, vol, 0, MB, 1, Retention::Normal).unwrap().done;
    t = c.drain().max(t);
    for b in 0..2 {
        c.fail_blade(t, b);
        c.repair_blade(b);
    }
    // Sequential reads at the extent's tail: readahead would walk into
    // the unmapped region beyond page 15 and must skip every hole.
    t = c.read(t, 0, vol, 14 * 64 * KB, 64 * KB).unwrap().done;
    let _ = c.read(t, 0, vol, 15 * 64 * KB, 64 * KB).unwrap();
    assert_eq!(c.stats.prefetches_issued, 0, "hole pages are not prefetched");
}
