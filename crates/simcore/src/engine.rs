//! The discrete-event engine.
//!
//! A minimal, deterministic event scheduler: events are `(time, seq, E)`
//! triples ordered first by time, then by insertion sequence, so two events
//! scheduled for the same instant fire in the order they were scheduled.
//! Determinism is the property every experiment in EXPERIMENTS.md leans on —
//! `(config, seed)` fully determines a run.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(PartialEq, Eq)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E: Eq> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E: Eq> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event scheduler over event payloads `E`.
///
/// ```
/// use ys_simcore::{Engine, Control, SimTime, SimDuration};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_at(SimTime(100), "second");
/// engine.schedule_at(SimTime(50), "first");
/// let mut seen = Vec::new();
/// engine.run(|eng, t, ev| {
///     seen.push(ev);
///     if ev == "first" {
///         eng.schedule_at(t + SimDuration::from_nanos(200), "third");
///     }
///     Control::Continue
/// });
/// assert_eq!(seen, vec!["first", "second", "third"]);
/// assert_eq!(engine.now(), SimTime(250));
/// ```
pub struct Engine<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E: Eq> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> Engine<E> {
    pub fn new() -> Engine<E> {
        Engine::with_capacity(0)
    }

    /// An engine whose event queue is pre-sized for `capacity` pending
    /// events, so steady-state scheduling never reallocates the heap.
    pub fn with_capacity(capacity: usize) -> Engine<E> {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// `at` may not precede the engine's current time: the simulation cannot
    /// rewrite its past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "cannot schedule into the past ({at:?} < {:?})", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time: at, seq, payload }));
    }

    /// Pop the next event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue time went backwards");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Drive the simulation to completion (or until `handler` returns
    /// [`Control::Stop`]), feeding each event to `handler` together with a
    /// mutable reference to the engine so the handler can schedule follow-ups.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E) -> Control,
    {
        while let Some((t, ev)) = self.pop() {
            if handler(self, t, ev) == Control::Stop {
                break;
            }
        }
    }
}

/// Handler verdict for [`Engine::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Control {
    Continue,
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(30), 3);
        e.schedule_at(SimTime(10), 1);
        e.schedule_at(SimTime(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.now(), SimTime(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..100 {
            e.schedule_at(SimTime(5), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn run_handler_can_schedule_followups() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(1), 0);
        let mut count = 0u32;
        e.run(|eng, t, v| {
            count += 1;
            if v < 9 {
                eng.schedule_at(t + SimDuration::from_nanos(1), v + 1);
            }
            Control::Continue
        });
        assert_eq!(count, 10);
        assert_eq!(e.now(), SimTime(10));
    }

    #[test]
    fn run_stops_on_control_stop() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime(i), i as u32);
        }
        let mut seen = 0;
        e.run(|_, _, v| {
            seen += 1;
            if v == 4 { Control::Stop } else { Control::Continue }
        });
        assert_eq!(seen, 5);
        assert_eq!(e.pending(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(100), 1);
        e.pop();
        e.schedule_at(SimTime(50), 2);
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a: Engine<u32> = Engine::new();
        let mut b: Engine<u32> = Engine::with_capacity(64);
        for i in 0..10 {
            a.schedule_at(SimTime(100 - i), i as u32);
            b.schedule_at(SimTime(100 - i), i as u32);
        }
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert!(b.pop().is_none());
    }
}
