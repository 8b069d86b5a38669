//! Closed-loop multi-client workload driver over the virtual-time cluster.
//!
//! Each client keeps one I/O outstanding: it issues its next operation the
//! moment the previous one completes. A binary heap orders clients by their
//! next-issue time so the cluster always sees requests in global time order.
//! `fill` and `read_loop` are the warm-up and the read loop the claim
//! bodies share.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_cache::Retention;
use ys_core::BladeCluster;
use ys_proto::Workload;
use ys_simcore::time::{SimDuration, SimTime};
use ys_virt::VolumeId;

/// Result of a closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    pub makespan: SimDuration,
    pub bytes: u64,
    pub ops: u64,
}

impl RunResult {
    pub fn mb_per_sec(&self) -> f64 {
        ys_simcore::time::throughput_mb_per_sec(self.bytes, self.makespan)
    }
}

/// Run `clients` closed-loop clients from `start`, each issuing
/// `ops_per_client` operations through `issue(client, now) -> (done, bytes)`.
/// `now` is absolute; the makespan counts from `start`.
pub fn closed_loop<F>(start: SimTime, clients: usize, ops_per_client: usize, mut issue: F) -> RunResult
where
    F: FnMut(usize, SimTime) -> (SimTime, u64),
{
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..clients).map(|c| Reverse((start.nanos(), c))).collect();
    let mut remaining = vec![ops_per_client; clients];
    let mut bytes = 0u64;
    let mut ops = 0u64;
    let mut end = start;
    while let Some(Reverse((t, c))) = heap.pop() {
        if remaining[c] == 0 {
            continue;
        }
        let now = SimTime(t);
        let (done, b) = issue(c, now);
        debug_assert!(done >= now);
        bytes += b;
        ops += 1;
        end = end.max(done);
        remaining[c] -= 1;
        if remaining[c] > 0 {
            heap.push(Reverse((done.nanos(), c)));
        }
    }
    RunResult { makespan: end.since(start), bytes, ops }
}

/// Write the first `bytes` of `vol` from client 0, `io` at a time, 1-way
/// and [`Retention::Normal`], each write issued when the last completes,
/// from `t`. Returns the last completion.
pub(crate) fn fill(c: &mut BladeCluster, vol: VolumeId, bytes: u64, io: u64, mut t: SimTime) -> SimTime {
    for off in (0..bytes).step_by(io as usize) {
        t = c.write(t, 0, vol, off, io, 1, Retention::Normal).unwrap().done;
    }
    t
}

/// [`closed_loop`] reads of `wl`'s operations on `vol`.
pub(crate) fn read_loop(
    c: &mut BladeCluster,
    vol: VolumeId,
    wl: &mut Workload,
    start: SimTime,
    clients: usize,
    ops_per_client: usize,
) -> RunResult {
    closed_loop(start, clients, ops_per_client, |client, now| {
        let op = wl.next_op();
        (c.read(now, client, vol, op.offset, op.len).unwrap().done, op.len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_is_sequential() {
        // Each op takes 10 ns: makespan = 100 ns for 10 ops.
        let r = closed_loop(SimTime::ZERO, 1, 10, |_, now| (now + SimDuration::from_nanos(10), 1));
        assert_eq!(r.makespan.nanos(), 100);
        assert_eq!(r.ops, 10);
        assert_eq!(r.bytes, 10);
    }

    #[test]
    fn independent_clients_overlap() {
        // Two clients, disjoint fixed-cost ops: same makespan as one client.
        let r1 = closed_loop(SimTime::ZERO, 1, 10, |_, now| (now + SimDuration::from_nanos(10), 1));
        let r2 = closed_loop(SimTime::ZERO, 2, 10, |_, now| (now + SimDuration::from_nanos(10), 1));
        assert_eq!(r1.makespan, r2.makespan, "perfectly parallel ops");
        assert_eq!(r2.ops, 20);
    }

    #[test]
    fn issue_order_is_globally_time_sorted() {
        let mut last = 0u64;
        closed_loop(SimTime::ZERO, 4, 25, |c, now| {
            assert!(now.nanos() >= last, "time went backwards");
            last = now.nanos();
            (now + SimDuration::from_nanos(7 + c as u64), 1)
        });
    }

    #[test]
    fn a_later_start_shifts_every_issue_and_nothing_else() {
        // Op cost depends on the client and on how many ops it has issued,
        // so any change to the interleaving shows in the issue sequence.
        let run = |start: SimTime| {
            let mut issued = Vec::new();
            let r = closed_loop(start, 3, 20, |c, now| {
                issued.push((c, now.since(start)));
                let n = issued.iter().filter(|&&(i, _)| i == c).count() as u64;
                (now + SimDuration::from_nanos(5 + 3 * c as u64 + n % 4), 2 + c as u64)
            });
            (issued, r.makespan, r.bytes, r.ops)
        };
        let at_zero = run(SimTime::ZERO);
        for start in [SimTime(1), SimTime(12_345), SimTime((1 << 40) + 7)] {
            assert_eq!(run(start), at_zero, "start {start:?}");
        }
    }
}
