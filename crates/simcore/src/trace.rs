//! Bounded event tracing for simulation debugging and observability.
//!
//! [`SpanRecorder`] is the one recorder, behind the `ys-obs`
//! observability layer and the chaos crash points. Events are fixed-size [`SpanEvent`] values
//! (`&'static str` names, integer args), so the hot path never allocates
//! and a *disabled* recorder costs a single branch. Data-path crates
//! (cache, virt, raid, geo, simnet) emit through it; `ys-obs` drains the
//! rings and serializes Chrome `trace_event` JSON.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One structured trace record: an instant (`dur == 0`) or a span.
///
/// Field meanings follow the schema in `docs/observability.md`:
/// `subsystem` is the emitting crate ("cache", "virt", "raid", "geo",
/// "simnet"), `name` the transition ("invalidate", "dmsd_alloc", "claim",
/// "ship", "xfer", ...), `lane` a blade / worker / link index, and `a`/`b`
/// two event-specific integers (page and version, bytes and count, ...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    pub at: SimTime,
    pub dur: SimDuration,
    pub subsystem: &'static str,
    pub name: &'static str,
    pub lane: u32,
    pub a: u64,
    pub b: u64,
}

impl SpanEvent {
    /// Instants are zero-duration events (`ph: "i"` in Chrome traces).
    pub fn is_instant(&self) -> bool {
        self.dur.is_zero()
    }
}

/// Ring-buffered structured recorder, disabled by default.
///
/// Subsystems that already know the simulated time emit with
/// [`SpanRecorder::instant_at`] / [`SpanRecorder::span_at`]. Untimed state
/// machines (the cache directory, the DMSD volume manager, the rebuild
/// coordinator) instead emit with [`SpanRecorder::instant`], which stamps
/// the clock last supplied by their time-aware orchestrator via
/// [`SpanRecorder::set_now`].
///
/// When the ring is full the *oldest* event is dropped and the drop is
/// counted; `ys-obs` surfaces the drop count as its own metric so truncated
/// traces are never mistaken for complete ones.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    now: SimTime,
    capacity: usize,
    events: VecDeque<SpanEvent>,
    dropped: u64,
    /// Armed crash points: `(event name, matches left before trip)`.
    armed: Vec<(&'static str, u64)>,
    /// Names whose counters reached zero, in trip order.
    tripped: Vec<&'static str>,
}

/// Ring capacity of every traced component: each link, cache directory,
/// volume manager, rebuild coordinator and replication engine that turns
/// tracing on keeps at most this many events before dropping the oldest.
pub const TRACE_CAPACITY: usize = 8192;

impl SpanRecorder {
    /// A disabled recorder: every emit is a single branch, no allocation.
    pub fn disabled() -> SpanRecorder {
        SpanRecorder::default()
    }

    /// Enable recording with a fixed ring capacity (components use
    /// [`TRACE_CAPACITY`]). `capacity == 0` leaves the recorder disabled.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = capacity > 0;
        self.capacity = capacity;
    }

    /// Supply the simulated clock for subsequent [`SpanRecorder::instant`]
    /// emits. Called by orchestrators that own the clock, on behalf of the
    /// untimed state machines beneath them.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Record an instant at the clock set by [`SpanRecorder::set_now`].
    pub fn instant(&mut self, subsystem: &'static str, name: &'static str, lane: u32, a: u64, b: u64) {
        let at = self.now;
        self.instant_at(at, subsystem, name, lane, a, b);
    }

    /// Record an instant at an explicit simulated time.
    pub fn instant_at(&mut self, at: SimTime, subsystem: &'static str, name: &'static str, lane: u32, a: u64, b: u64) {
        self.span_at(at, SimDuration::ZERO, subsystem, name, lane, a, b);
    }

    /// Record a span `[at, at + dur)` at an explicit simulated time.
    #[allow(clippy::too_many_arguments)]
    pub fn span_at(
        &mut self,
        at: SimTime,
        dur: SimDuration,
        subsystem: &'static str,
        name: &'static str,
        lane: u32,
        a: u64,
        b: u64,
    ) {
        // Crash points fire regardless of whether the ring records: a
        // fault campaign may want precise injection without trace memory.
        if !self.armed.is_empty() {
            let mut hit = false;
            for (armed_name, left) in self.armed.iter_mut() {
                if *armed_name == name && *left > 0 {
                    *left -= 1;
                    if *left == 0 {
                        self.tripped.push(armed_name);
                        hit = true;
                    }
                }
            }
            if hit {
                self.armed.retain(|&(_, left)| left > 0);
            }
        }
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(SpanEvent { at, dur, subsystem, name, lane, a, b });
    }

    /// Arm a crash point: the `nth` future event named `name` (1-based)
    /// trips it. A fault-injection harness polls
    /// [`SpanRecorder::take_crash_trips`] between operations and applies
    /// its scheduled fault at the tripped instant — mid-destage,
    /// mid-promotion, mid-rebuild-batch — rather than at a coarse step
    /// boundary. Tripwires fire even while the ring itself is disabled.
    pub fn arm_crash_point(&mut self, name: &'static str, nth: u64) {
        if nth > 0 {
            self.armed.push((name, nth));
        }
    }

    /// Drain the names of crash points that have tripped since the last
    /// call, in trip order.
    pub fn take_crash_trips(&mut self) -> Vec<&'static str> {
        std::mem::take(&mut self.tripped)
    }

    /// Clear every armed (and any already-tripped) crash point — used when
    /// a fault harness gives up on an event (deadline) so a stale tripwire
    /// cannot fire into a later injection.
    pub fn disarm_crash_points(&mut self) {
        self.armed.clear();
        self.tripped.clear();
    }

    /// Events evicted to make room (how much history was lost).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain retained events (oldest→newest), keeping the recorder enabled.
    pub fn take(&mut self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        self.take_into(&mut out);
        out
    }

    /// Drain retained events (oldest→newest) into a caller-owned buffer,
    /// appending after its current contents. Collectors that flush many
    /// rings per step reuse one buffer across flushes instead of allocating
    /// a fresh `Vec` per ring — the batched-flush fast path `ys-obs` and
    /// the bench breakdown use.
    pub fn take_into(&mut self, out: &mut Vec<SpanEvent>) {
        out.extend(self.events.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_recorder_disabled_is_noop_and_default() {
        let mut r = SpanRecorder::default();
        r.instant_at(SimTime(1), "cache", "miss", 0, 1, 2);
        r.span_at(SimTime(1), SimDuration::from_nanos(5), "simnet", "xfer", 0, 1, 2);
        assert!(r.events.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn span_recorder_overflow_drops_oldest_and_counts() {
        let mut r = SpanRecorder::disabled();
        r.enable(3);
        for i in 0..8u64 {
            r.instant_at(SimTime(i), "raid", "claim", i as u32, i, 0);
        }
        assert_eq!(r.events.len(), 3, "ring holds exactly its capacity");
        assert_eq!(r.dropped(), 5, "every eviction is counted");
        let lanes: Vec<u32> = r.events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![5, 6, 7], "oldest events dropped first");
    }

    #[test]
    fn crash_points_trip_on_the_nth_event_even_when_disabled() {
        let mut r = SpanRecorder::disabled();
        r.arm_crash_point("destage", 2);
        r.arm_crash_point("promote", 1);
        r.instant_at(SimTime(1), "cache", "destage", 0, 1, 0);
        assert!(r.take_crash_trips().is_empty(), "first destage passes");
        r.instant_at(SimTime(2), "cache", "miss", 0, 2, 0);
        r.instant_at(SimTime(3), "cache", "destage", 0, 3, 0);
        assert_eq!(r.take_crash_trips(), vec!["destage"]);
        r.instant_at(SimTime(4), "cache", "promote", 1, 4, 0);
        assert_eq!(r.take_crash_trips(), vec!["promote"], "promote still armed");
        r.instant_at(SimTime(5), "cache", "promote", 1, 5, 0);
        r.instant_at(SimTime(6), "cache", "destage", 0, 6, 0);
        assert!(r.take_crash_trips().is_empty(), "each point trips once");
        assert!(r.events.is_empty(), "disabled ring recorded nothing");
    }

    #[test]
    fn span_recorder_set_now_stamps_instants() {
        let mut r = SpanRecorder::disabled();
        r.enable(8);
        r.set_now(SimTime(42));
        r.instant("virt", "dmsd_alloc", 1, 16, 0);
        let e = r.events.iter().next().copied().expect("one event");
        assert_eq!(e.at, SimTime(42));
        assert!(e.is_instant());
        r.span_at(SimTime(50), SimDuration::from_nanos(7), "simnet", "xfer", 2, 4096, 1);
        assert!(!r.events.get(1).expect("span").is_instant());
    }

    #[test]
    fn span_recorder_enable_zero_capacity_stays_disabled() {
        let mut r = SpanRecorder::disabled();
        r.enable(0);
        r.instant_at(SimTime(1), "cache", "miss", 0, 0, 0);
        assert!(r.events.is_empty());
    }

    #[test]
    fn span_recorder_take_drains_but_keeps_recording() {
        let mut r = SpanRecorder::disabled();
        r.enable(4);
        r.instant_at(SimTime(1), "geo", "enqueue", 0, 1, 10);
        let drained = r.take();
        assert_eq!(drained.len(), 1);
        assert!(r.events.is_empty());
        r.instant_at(SimTime(2), "geo", "ship", 0, 1, 10);
        assert_eq!(r.events.len(), 1);
    }

    #[test]
    fn take_into_appends_and_keeps_recording() {
        let mut r = SpanRecorder::disabled();
        r.enable(4);
        r.instant_at(SimTime(1), "geo", "enqueue", 0, 1, 10);
        let mut buf = vec![SpanEvent {
            at: SimTime(0),
            dur: SimDuration::ZERO,
            subsystem: "x",
            name: "pre",
            lane: 0,
            a: 0,
            b: 0,
        }];
        r.take_into(&mut buf);
        assert_eq!(buf.len(), 2, "drained events append after existing contents");
        assert_eq!(buf[1].name, "enqueue");
        assert!(r.events.is_empty());
        r.instant_at(SimTime(2), "geo", "ship", 0, 1, 10);
        assert_eq!(r.events.len(), 1);
    }
}
