//! Ablations: the design choices DESIGN.md calls out, toggled off one at a
//! time to show what each buys.
//!
//! * **A1 prefetch** — §4's readahead on a cold sequential stream;
//! * **A2 rebuild batch size** — why rebuilds issue large sequential
//!   member I/O instead of per-row reads;
//! * **A3 coherent peer supply** — §2.2's remote cache hits vs.
//!   partitioned-controller timing (every non-local page from disk).

use crate::driver::{fill, read_loop};
use ys_core::{BladeCluster, ClusterConfig, Rebuilder};
use crate::report::RunReport;
use ys_simcore::stats::Series;
use ys_simcore::time::SimTime;
use ys_simdisk::DiskId;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// A1 — sequential stream rate vs. prefetch depth.
pub fn a1_prefetch() -> RunReport {
    let mut rate = Series::new("A1 cold sequential read MB/s vs prefetch depth (pages)");
    for depth in [0usize, 2, 4, 8, 16] {
        let cfg = ClusterConfig::default().with_blades(4).with_disks(8).with_prefetch(depth);
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("seq", 0, 1 << 30).unwrap();
        let total = 32 * MB;
        let t = fill(&mut c, vol, total, MB, SimTime::ZERO);
        let start = c.drain().max(t);
        for b in 0..4 {
            c.fail_blade(start, b);
            c.repair_blade(b);
        }
        let mut t = start;
        for off in (0..total).step_by((64 * KB) as usize) {
            t = c.read(t, 0, vol, off, 64 * KB).unwrap().done;
        }
        let mbps = total as f64 / 1e6 / t.since(start).as_secs_f64();
        rate.push(depth as f64, mbps);
    }
    vec![rate].into()
}

/// A2 — rebuild time vs. batch size (rows per worker claim).
pub fn a2_rebuild_batch() -> RunReport {
    let mut time = Series::new("A2 rebuild time (s) vs batch rows (4 workers)");
    for batch in [1u64, 8, 64, 256] {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
        c.fail_disk(DiskId(2));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(2), 128 * MB, &[0, 1, 2, 3], batch);
        let done = r.run(&mut c).unwrap();
        time.push(batch as f64, done.as_secs_f64());
    }
    vec![time].into()
}

/// A3 — Zipf read throughput with and without coherent peer supply.
pub fn a3_remote_supply() -> RunReport {
    let mut tput = Series::new("A3 Zipf read MB/s: 0=coherent peer supply 1=partitioned (disk on non-local)");
    for (i, coherent) in [true, false].into_iter().enumerate() {
        let mut cfg = ClusterConfig::default().with_blades(8).with_disks(16).with_clients(16);
        if !coherent {
            cfg = cfg.without_remote_supply();
        }
        let mut c = BladeCluster::new(cfg);
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        let set = 64 * MB;
        let io = 64 * KB;
        let t = fill(&mut c, vol, set, io, SimTime::ZERO);
        let base = c.drain().max(t);
        let mut wl = ys_proto::Workload::zipf(set, io, 0.9, 0.0, 7);
        tput.push(i as f64, read_loop(&mut c, vol, &mut wl, base, 16, 200).mb_per_sec());
    }
    vec![tput].into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_monotonically_helps_cold_sequential() {
        let s = &a1_prefetch().series[0];
        let off = s.points[0].1;
        let deep = s.points.last().unwrap().1;
        assert!(deep > off * 1.2, "prefetch 16 ({deep:.0} MB/s) should beat none ({off:.0})");
    }

    #[test]
    fn rebuild_batch_size_has_a_sweet_spot() {
        // Tiny batches pay per-claim latency; huge batches leave the tail
        // imbalanced across workers. The middle wins.
        let s = &a2_rebuild_batch().series[0];
        let first = s.points[0].1;
        let last = s.points.last().unwrap().1;
        let best = s.points.iter().map(|&(_, y)| y).fold(f64::INFINITY, f64::min);
        assert!(best < first, "some batch beats 1-row ({first}s)");
        assert!(best < last, "some batch beats the largest ({last}s)");
    }

    #[test]
    fn coherent_supply_beats_partitioned() {
        let s = &a3_remote_supply().series[0];
        assert!(s.points[0].1 > s.points[1].1, "coherence must pay: {:?}", s.points);
    }
}
