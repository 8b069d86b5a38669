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
/// use ys_simcore::{Engine, SimTime, SimDuration};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_at(SimTime(100), "second");
/// engine.schedule_at(SimTime(50), "first");
/// let mut seen = Vec::new();
/// while let Some((t, ev)) = engine.pop() {
///     seen.push((t, ev));
///     if ev == "first" {
///         engine.schedule_at(t + SimDuration::from_nanos(200), "third");
///     }
/// }
/// assert_eq!(seen, vec![(SimTime(50), "first"), (SimTime(100), "second"), (SimTime(250), "third")]);
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
    fn with_capacity(capacity: usize) -> Engine<E> {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::with_capacity(capacity),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(30), 3);
        e.schedule_at(SimTime(10), 1);
        e.schedule_at(SimTime(20), 2);
        let popped: Vec<(SimTime, u32)> = std::iter::from_fn(|| e.pop()).collect();
        assert_eq!(popped, vec![(SimTime(10), 1), (SimTime(20), 2), (SimTime(30), 3)]);
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
