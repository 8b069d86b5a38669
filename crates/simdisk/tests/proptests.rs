//! Property tests for the disk model: physical sanity of service times and
//! queue accounting under arbitrary command streams.

use proptest::prelude::*;
use ys_simcore::time::SimTime;
use ys_simdisk::{Disk, DiskFarm, DiskOp, DiskSpec};

proptest! {
    /// Completions are FIFO and causal for any submission pattern, and the
    /// sequential special case is never slower than the same I/O after a
    /// seek.
    #[test]
    fn disk_completions_are_fifo(
        ops in proptest::collection::vec((0u64..50_000_000_000, 512u64..10_000_000, any::<bool>(), 0u64..1_000_000), 1..60),
    ) {
        let mut d = Disk::new(DiskSpec::cheetah_73());
        let cap = DiskSpec::cheetah_73().capacity_bytes;
        let mut clock = 0u64;
        let mut last_done = SimTime::ZERO;
        for (offset, bytes, write, gap) in ops {
            clock += gap;
            let offset = offset.min(cap - bytes);
            let op = if write { DiskOp::Write { offset, bytes } } else { DiskOp::Read { offset, bytes } };
            let done = d.submit(SimTime(clock), op).unwrap();
            prop_assert!(done > SimTime(clock), "I/O takes time");
            prop_assert!(done >= last_done, "FIFO order violated");
            last_done = done;
        }
    }

    /// Service time decomposition: total ≥ transfer time, and the
    /// sequential continuation is the floor.
    #[test]
    fn sequential_is_the_floor(offset in 0u64..60_000_000_000, bytes in 512u64..8_000_000) {
        let spec = DiskSpec::cheetah_73();
        let mut seq = Disk::new(spec);
        let mut rnd = Disk::new(spec);
        // Position the sequential disk's head exactly at the offset.
        let pre = offset.saturating_sub(4096);
        let t0 = if offset >= 4096 {
            seq.submit(SimTime::ZERO, DiskOp::Read { offset: pre, bytes: 4096 }).unwrap()
        } else {
            SimTime::ZERO
        };
        let s = seq.submit(t0, DiskOp::Read { offset, bytes }).unwrap().since(t0);
        // The random disk's head is at the far end.
        let t1 = rnd.submit(SimTime::ZERO, DiskOp::Read { offset: spec.capacity_bytes - 512, bytes: 512 }).unwrap();
        let r = rnd.submit(t1, DiskOp::Read { offset, bytes }).unwrap().since(t1);
        prop_assert!(s <= r, "sequential {s} must not exceed post-seek {r}");
        let floor = spec.command_overhead + spec.media_rate.transfer_time(bytes);
        prop_assert!(s >= floor, "service below physical floor");
    }

    /// Seek time is monotone in distance, bounded by [0, max_seek]. On an
    /// idle disk with its head at 0, a read at `d > 0` costs exactly seek(d)
    /// plus half a rotation more than the sequential read at 0.
    #[test]
    fn seek_monotone_bounded(a in 1u64..72_000_000_000, b in 1u64..72_000_000_000) {
        let spec = DiskSpec::cheetah_73();
        let service = |offset| Disk::new(spec).submit(SimTime::ZERO, DiskOp::Read { offset, bytes: 512 }).unwrap();
        let (near, far) = (a.min(b), a.max(b));
        prop_assert!(service(near) <= service(far));
        prop_assert!(service(far).since(service(0)) <= spec.max_seek + spec.rotation / 2);
    }

    /// Farm counters conserve: sum of per-disk bytes equals what was
    /// submitted, regardless of distribution.
    #[test]
    fn farm_conserves_bytes(ops in proptest::collection::vec((0usize..8, 1u64..1_000_000), 1..80)) {
        let mut farm = DiskFarm::new(8, DiskSpec::cheetah_73());
        let mut expect = 0u64;
        for (disk, bytes) in ops {
            farm.submit(ys_simdisk::DiskId(disk), SimTime::ZERO, DiskOp::Write { offset: 0, bytes }).unwrap();
            expect += bytes;
        }
        let got: u64 = (0..8).map(|i| farm.disk(ys_simdisk::DiskId(i)).bytes_written()).sum();
        prop_assert_eq!(got, expect);
    }
}
