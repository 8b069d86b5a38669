//! Port-level fair scheduling.
//!
//! A [`Link`] is strictly FIFO: whoever reserves first serializes first,
//! so one flow that floods a shared FC port starves everyone behind it.
//! [`FairPort`] puts a fair queue in front of a link: pending messages
//! carry start/finish *virtual-time tags* (start-time fair queueing,
//! integer fixed-point — no floats, fully deterministic) and the port
//! always serves the eligible message with the smallest finish tag.
//! Backlogged flows then share the port's bandwidth equally instead of in
//! arrival order, which is the §6.3 noisy-neighbor defence at the
//! blade/FC-port level.
//!
//! Usage is batch-oriented to fit the simulation style: `enqueue` the
//! messages (each with the instant it becomes ready at the port), then
//! `service()` drains them through the underlying link in fair order and
//! reports one [`Transfer`] per message.

use std::collections::BTreeMap;

use ys_simcore::time::SimTime;

use crate::link::{Link, LinkSpec, Transfer};

/// Fixed-point scale for virtual-time tags (bytes × SCALE).
const TAG_SCALE: u128 = 1 << 16;

#[derive(Clone, Debug)]
struct Pending {
    seq: u64,
    flow: u32,
    bytes: u64,
    ready: SimTime,
    finish_tag: u128,
    start_tag: u128,
}

/// One serviced message: which flow it belonged to and its link reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Served {
    /// Caller-supplied message id (the `seq` returned by [`FairPort::enqueue`]).
    pub seq: u64,
    pub flow: u32,
    pub transfer: Transfer,
}

/// A shared output port with fair queueing in front of its link.
#[derive(Clone, Debug)]
pub struct FairPort {
    link: Link,
    flow_finish: BTreeMap<u32, u128>,
    virtual_time: u128,
    queue: Vec<Pending>,
    next_seq: u64,
}

impl FairPort {
    pub fn new(spec: LinkSpec) -> FairPort {
        FairPort {
            link: Link::new(spec),
            flow_finish: BTreeMap::new(),
            virtual_time: 0,
            queue: Vec::new(),
            next_seq: 0,
        }
    }

    /// Queue a message of `bytes` for `flow`, becoming eligible for
    /// service at `ready` (e.g. when its last bit arrives from the
    /// upstream hop). Returns the message's sequence id, echoed back in
    /// [`Served::seq`].
    pub fn enqueue(&mut self, flow: u32, ready: SimTime, bytes: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let last = self.flow_finish.get(&flow).copied().unwrap_or(0);
        let start_tag = self.virtual_time.max(last);
        let cost = u128::from(bytes.max(1)) * TAG_SCALE;
        let finish_tag = start_tag + cost;
        self.flow_finish.insert(flow, finish_tag);
        self.queue.push(Pending { seq, flow, bytes, ready, finish_tag, start_tag });
        seq
    }

    /// Drain the queue through the link in fair order.
    ///
    /// The port is work-conserving: at each step it advances to the
    /// earliest instant at which both the link and at least one message
    /// are available, then serves the *eligible* (ready) message with the
    /// smallest finish tag, breaking ties by enqueue order.
    pub fn service(&mut self) -> Vec<Served> {
        let mut out = Vec::with_capacity(self.queue.len());
        while !self.queue.is_empty() {
            let min_ready = self
                .queue
                .iter()
                .map(|p| p.ready)
                .min()
                .unwrap_or(SimTime::ZERO); // queue is non-empty here
            let horizon = self.link.next_free().max(min_ready);
            let pick = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, p)| p.ready <= horizon)
                .min_by_key(|(_, p)| (p.finish_tag, p.seq))
                .map(|(i, _)| i)
                .unwrap_or(0); // min_ready guarantees one eligible
            let p = self.queue.swap_remove(pick);
            self.virtual_time = self.virtual_time.max(p.start_tag);
            let transfer = self.link.transfer(p.ready.max(horizon), p.bytes);
            out.push(Served { seq: p.seq, flow: p.flow, transfer });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_simcore::time::{Bandwidth, SimDuration};

    fn spec() -> LinkSpec {
        LinkSpec::new(Bandwidth::from_gbit_per_sec(8), SimDuration::ZERO, SimDuration::ZERO)
    }

    #[test]
    fn single_flow_matches_plain_fifo_link() {
        let mut port = FairPort::new(spec());
        let mut link = Link::new(spec());
        for i in 0..10u64 {
            port.enqueue(7, SimTime(i * 1_000), 64 * 1024);
        }
        let served = port.service();
        for (i, s) in served.iter().enumerate() {
            let t = link.transfer(SimTime(i as u64 * 1_000), 64 * 1024);
            assert_eq!(s.transfer, t, "message {i}");
        }
    }

    #[test]
    fn light_flow_is_isolated_from_a_flood() {
        // A hog queues 64 MiB before a light flow's single 64 KiB message
        // becomes ready. FIFO would make the light message wait for the
        // whole flood; fair queueing serves it almost immediately.
        let hog_msg = 64 * 1024u64;
        let mut fair = FairPort::new(spec());
        let mut fifo = Link::new(spec());
        for i in 0..1024u64 {
            fair.enqueue(1, SimTime(i), hog_msg);
            fifo.transfer(SimTime(i), hog_msg);
        }
        fair.enqueue(2, SimTime(2_000), 64 * 1024);
        let fifo_t = fifo.transfer(SimTime(2_000), 64 * 1024);
        let served = fair.service();
        let light = served
            .iter()
            .find(|s| s.flow == 2)
            .expect("light flow served");
        let fair_wait = light.transfer.arrival.since(SimTime(2_000));
        let fifo_wait = fifo_t.arrival.since(SimTime(2_000));
        assert!(
            fair_wait.nanos() * 50 < fifo_wait.nanos(),
            "fair {fair_wait:?} vs fifo {fifo_wait:?}"
        );
    }

    #[test]
    fn service_is_work_conserving_and_deterministic() {
        let build = || {
            let mut p = FairPort::new(spec());
            for i in 0..32u64 {
                p.enqueue((i % 3) as u32, SimTime(i * 500), 4096 + i * 13);
            }
            p.service()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "identical inputs must serve identically");
        // Work conservation: the port never idles while a message is ready.
        let total: u64 = a.iter().map(|s| s.transfer.serialized.since(s.transfer.start).nanos()).sum();
        let makespan = a.iter().map(|s| s.transfer.serialized).max().unwrap();
        assert!(total <= makespan.0, "busy time exceeds makespan");
    }
}
