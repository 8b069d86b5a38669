//! Bounded event tracing for simulation debugging and observability.
//!
//! [`SpanRecorder`] is the one recorder, behind the claim reports and the
//! chaos crash points. Events are fixed-size [`SpanEvent`] values
//! (`&'static str` names, integer args), so the hot path never allocates
//! and a *disabled* recorder costs a single branch. Data-path crates
//! (cache, virt, raid, geo, simnet) emit through it; `ys-bench` drains the
//! rings, and [`chrome_trace_json`] serializes what it drained as Chrome
//! `trace_event` JSON.

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
    fn is_instant(&self) -> bool {
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
/// counted; `ys-bench` surfaces the drop count as its own metric so truncated
/// traces are never mistaken for complete ones.
#[derive(Clone, Debug, Default)]
pub struct SpanRecorder {
    enabled: bool,
    now: SimTime,
    capacity: usize,
    events: VecDeque<SpanEvent>,
    dropped: u64,
    /// The armed crash point: the event name that trips it.
    crash_point: Option<&'static str>,
    /// Whether a crash point tripped since the last take.
    crash_tripped: bool,
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
        if self.crash_point == Some(name) {
            self.crash_point = None;
            self.crash_tripped = true;
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

    /// Arm a crash point, replacing any armed one: the next event named
    /// `name` trips it, once. A fault-injection harness polls
    /// [`SpanRecorder::take_crash_trip`] between operations and applies
    /// its scheduled fault at the tripped instant — mid-destage,
    /// mid-promotion, mid-rebuild-batch — rather than at a coarse step
    /// boundary. Tripwires fire even while the ring itself is disabled.
    pub fn arm_crash_point(&mut self, name: &'static str) {
        self.crash_point = Some(name);
    }

    /// Whether a crash point tripped since the last call (draining).
    pub fn take_crash_trip(&mut self) -> bool {
        std::mem::take(&mut self.crash_tripped)
    }

    /// Clear the armed (or already-tripped) crash point — used when a
    /// fault harness gives up on an event (deadline) so a stale tripwire
    /// cannot fire into a later injection.
    pub fn disarm_crash_point(&mut self) {
        self.crash_point = None;
        self.crash_tripped = false;
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
    /// a fresh `Vec` per ring — the batched-flush fast path the claim
    /// reports and the bench breakdown use.
    pub fn take_into(&mut self, out: &mut Vec<SpanEvent>) {
        out.extend(self.events.drain(..));
    }
}

// ---- Chrome `trace_event` serialization --------------------------------
//
// Converts the `SpanEvent` streams drained from subsystem rings into the
// JSON Array Format understood by `chrome://tracing` / Perfetto: complete
// events (`"ph":"X"`, microsecond `ts` + `dur`) for spans and thread-scoped
// instants (`"ph":"i"`) for zero-duration marks. The process id is always
// 0 (one simulated machine); the thread id is the event's lane (blade,
// port, worker, or site index), so chrome's per-track view becomes a
// per-blade timeline.

/// Render events as a Chrome trace_event JSON document
/// (`{"traceEvents":[...]}`). Deterministic: the caller supplies the order
/// (collectors sort by time).
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        out.push_str(e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.subsystem);
        out.push_str("\",\"ph\":\"");
        if e.is_instant() {
            out.push_str("i\",\"s\":\"t");
        } else {
            out.push('X');
        }
        out.push_str("\",\"ts\":");
        out.push_str(&micros(e.at.nanos()));
        if !e.is_instant() {
            out.push_str(",\"dur\":");
            out.push_str(&micros(e.dur.nanos()));
        }
        out.push_str(&format!(
            ",\"pid\":0,\"tid\":{},\"args\":{{\"a\":{},\"b\":{}}}}}",
            e.lane, e.a, e.b
        ));
    }
    out.push_str("]}");
    out
}

/// Nanoseconds → microseconds with exact 3-decimal rendering (chrome's `ts`
/// unit is µs; floats would lose determinism).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
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
    fn a_crash_point_trips_once_on_its_first_event_even_when_disabled() {
        let mut r = SpanRecorder::disabled();
        r.arm_crash_point("destage");
        r.instant_at(SimTime(1), "cache", "miss", 0, 1, 0);
        assert!(!r.take_crash_trip(), "another event passes");
        r.instant_at(SimTime(2), "cache", "destage", 0, 2, 0);
        assert!(r.take_crash_trip(), "the first destage trips it");
        assert!(!r.take_crash_trip(), "taking the trip drains it");
        r.instant_at(SimTime(3), "cache", "destage", 0, 3, 0);
        assert!(!r.take_crash_trip(), "a point trips once");
        r.arm_crash_point("destage");
        r.arm_crash_point("promote");
        r.instant_at(SimTime(4), "cache", "destage", 0, 4, 0);
        assert!(!r.take_crash_trip(), "re-arming replaced destage");
        r.instant_at(SimTime(5), "cache", "promote", 1, 5, 0);
        assert!(r.take_crash_trip(), "promote is armed");
        r.arm_crash_point("promote");
        r.disarm_crash_point();
        r.instant_at(SimTime(6), "cache", "promote", 1, 6, 0);
        assert!(!r.take_crash_trip(), "disarm clears the point");
        r.arm_crash_point("promote");
        r.instant_at(SimTime(7), "cache", "promote", 1, 7, 0);
        r.disarm_crash_point();
        assert!(!r.take_crash_trip(), "disarm clears a trip not yet taken");
        assert!(r.events.is_empty(), "disabled ring recorded nothing");
    }

    #[test]
    fn chrome_trace_json_renders_spans_instants_and_the_empty_trace() {
        let span = SpanEvent {
            at: SimTime(1_500),
            dur: SimDuration::from_nanos(2_000),
            subsystem: "simnet",
            name: "xfer",
            lane: 0,
            a: 4096,
            b: 1,
        };
        let instant = SpanEvent { at: SimTime(10_000), dur: SimDuration::ZERO, lane: 3, ..span };
        assert_eq!(
            chrome_trace_json(&[span, instant]),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"xfer","cat":"simnet","ph":"X","ts":1.500,"dur":2.000,"pid":0,"tid":0,"args":{"a":4096,"b":1}},"#,
                r#"{"name":"xfer","cat":"simnet","ph":"i","s":"t","ts":10.000,"pid":0,"tid":3,"args":{"a":4096,"b":1}}"#,
                "]}"
            )
        );
        assert_eq!(chrome_trace_json(&[]), r#"{"traceEvents":[]}"#);
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
