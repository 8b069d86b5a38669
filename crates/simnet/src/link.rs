//! Point-to-point link model.
//!
//! A [`Link`] is a FIFO serialization resource with a bandwidth, a
//! propagation delay, and a fixed per-message overhead (framing, protocol
//! processing). `transfer` answers the only question the simulation asks:
//! *given the link's queue, when does this message start, finish
//! serializing, and arrive at the far end?*

use ys_simcore::time::{Bandwidth, SimDuration, SimTime};
use ys_simcore::{SpanRecorder, TRACE_CAPACITY};

/// Immutable description of a link's performance envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    pub bandwidth: Bandwidth,
    /// One-way propagation delay (speed-of-light + switch transit).
    pub propagation: SimDuration,
    /// Fixed cost charged per message (framing, interrupt, protocol stack).
    pub per_message: SimDuration,
}

impl LinkSpec {
    pub const fn new(bandwidth: Bandwidth, propagation: SimDuration, per_message: SimDuration) -> LinkSpec {
        LinkSpec { bandwidth, propagation, per_message }
    }
}

/// Completed reservation on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// When the message began serializing (after queueing).
    pub start: SimTime,
    /// When the last bit left the sender.
    pub serialized: SimTime,
    /// When the last bit arrived at the receiver.
    pub arrival: SimTime,
}

/// A unidirectional FIFO link.
#[derive(Clone, Debug)]
pub struct Link {
    spec: LinkSpec,
    busy_until: SimTime,
    busy_time: SimDuration,
    first_use: Option<SimTime>,
    messages: u64,
    bytes: u64,
    trace: SpanRecorder,
    lane: u32,
}

impl Link {
    pub fn new(spec: LinkSpec) -> Link {
        Link {
            spec,
            busy_until: SimTime::ZERO,
            busy_time: SimDuration::ZERO,
            first_use: None,
            messages: 0,
            bytes: 0,
            trace: SpanRecorder::disabled(),
            lane: 0,
        }
    }

    /// Enable structured tracing of transfers on this link, labelling its
    /// events with `lane` (a port / blade / hop index for chrome://tracing).
    pub fn enable_trace(&mut self, lane: u32) {
        self.lane = lane;
        self.trace.enable(TRACE_CAPACITY);
    }

    /// Structured trace of transfer spans (disabled by default).
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    /// Earliest instant a new message submitted now could begin serializing.
    pub fn next_free(&self) -> SimTime {
        self.busy_until
    }

    /// Reserve the link for a message of `bytes` submitted at `now`.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = now.max(self.busy_until);
        let serialize = self.spec.per_message + self.spec.bandwidth.transfer_time(bytes);
        let serialized = start + serialize;
        self.busy_until = serialized;
        self.busy_time += serialize;
        self.first_use.get_or_insert(now);
        self.messages += 1;
        self.bytes += bytes;
        self.trace.span_at(start, serialize, "simnet", "xfer", self.lane, bytes, self.messages);
        Transfer { start, serialized, arrival: serialized + self.spec.propagation }
    }

    /// Fraction of time the link was serializing, measured from first use to `until`.
    pub fn utilization(&self, until: SimTime) -> f64 {
        match self.first_use {
            None => 0.0,
            Some(first) => {
                let span = until.since(first);
                if span.is_zero() {
                    0.0
                } else {
                    (self.busy_time.as_secs_f64() / span.as_secs_f64()).min(1.0)
                }
            }
        }
    }

    pub fn messages(&self) -> u64 {
        self.messages
    }

    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn fc2() -> LinkSpec {
        catalog::fibre_channel_2g()
    }

    #[test]
    fn unloaded_transfer_matches_spec_math() {
        let mut l = Link::new(LinkSpec::new(
            Bandwidth::from_gbit_per_sec(1),
            SimDuration::from_micros(1),
            SimDuration::from_nanos(500),
        ));
        let t = l.transfer(SimTime::ZERO, 125_000); // 1 ms at 1 Gb/s
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.serialized, SimTime(500 + 1_000_000));
        assert_eq!(t.arrival, SimTime(500 + 1_000_000 + 1_000));
    }

    #[test]
    fn fifo_queueing_serializes_back_to_back() {
        let mut l = Link::new(fc2());
        let a = l.transfer(SimTime::ZERO, 1 << 20);
        let b = l.transfer(SimTime::ZERO, 1 << 20);
        assert_eq!(b.start, a.serialized, "second message waits for the first");
        let c = l.transfer(b.serialized + SimDuration::from_secs(1), 1024);
        assert_eq!(c.start, b.serialized + SimDuration::from_secs(1), "an idle link does not queue");
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let spec = LinkSpec::new(Bandwidth::from_gbit_per_sec(8), SimDuration::ZERO, SimDuration::ZERO);
        let mut l = Link::new(spec);
        // 1 MB at 8 Gb/s = 1 ms busy.
        l.transfer(SimTime::ZERO, 1_000_000);
        let u = l.utilization(SimTime(2_000_000));
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        assert_eq!(l.messages(), 1);
        assert_eq!(l.bytes(), 1_000_000);
    }
}
