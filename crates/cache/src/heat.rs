//! Access-heat tracking.
//!
//! §7.1: "The system would recognize files that are commonly accessed at
//! multiple locations and automatically replicate copies." The tracker
//! counts accesses per key per accessor with exponential decay, and reports
//! keys hot at more than one accessor.

use std::collections::BTreeMap;
use ys_simcore::time::SimTime;

/// Exponentially-decayed access counter per (key, accessor).
///
/// Keys are `Ord` (not `Hash`): [`HeatTracker::hot_accessors`] iterates the
/// map, and replication triggers fired from it must not depend on a
/// process-random hasher seed.
#[derive(Clone, Debug)]
pub struct HeatTracker<K: Ord + Clone> {
    /// Decay half-life.
    half_life_secs: f64,
    entries: BTreeMap<(K, usize), (f64, SimTime)>,
}

impl<K: Ord + Clone> HeatTracker<K> {
    pub fn new(half_life_secs: f64) -> HeatTracker<K> {
        assert!(half_life_secs > 0.0);
        HeatTracker { half_life_secs, entries: BTreeMap::new() }
    }

    fn decayed(&self, value: f64, since: SimTime, now: SimTime) -> f64 {
        let dt = now.since(since).as_secs_f64();
        value * 0.5f64.powf(dt / self.half_life_secs)
    }

    /// Record one access by `accessor` at `now`.
    pub fn record(&mut self, key: K, accessor: usize, now: SimTime) {
        let half_life = self.half_life_secs;
        let e = self.entries.entry((key, accessor)).or_insert((0.0, now));
        let dt = now.since(e.1).as_secs_f64();
        let current = e.0 * 0.5f64.powf(dt / half_life);
        *e = (current + 1.0, now);
    }

    /// Accessors whose heat for `key` exceeds `threshold`.
    pub fn hot_accessors(&self, key: &K, threshold: f64, now: SimTime) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .entries
            .iter()
            .filter(|((k, _), _)| k == key)
            .filter(|((_, _), &(v, t))| self.decayed(v, t, now) > threshold)
            .map(|((_, a), _)| *a)
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_simcore::time::SimDuration;

    #[test]
    fn heat_accumulates_per_accessor() {
        let mut h: HeatTracker<u64> = HeatTracker::new(60.0);
        let t = SimTime::ZERO;
        for _ in 0..5 {
            h.record(1, 0, t);
        }
        h.record(1, 1, t);
        // Accessor 0 holds heat 5, accessor 1 heat 1, key 2 none.
        assert_eq!(h.hot_accessors(&1, 4.999, t), vec![0]);
        assert!(h.hot_accessors(&1, 5.0, t).is_empty());
        assert_eq!(h.hot_accessors(&1, 0.999, t), vec![0, 1]);
        assert!(h.hot_accessors(&2, 0.0, t).is_empty());
    }

    #[test]
    fn heat_decays_with_half_life() {
        let mut h: HeatTracker<u64> = HeatTracker::new(10.0);
        h.record(1, 0, SimTime::ZERO);
        // One half-life later the heat is 0.5.
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(h.hot_accessors(&1, 0.499, later), vec![0]);
        assert!(h.hot_accessors(&1, 0.501, later).is_empty());
        let much_later = SimTime::ZERO + SimDuration::from_secs(100);
        assert!(h.hot_accessors(&1, 0.01, much_later).is_empty());
    }

    #[test]
    fn multi_hot_requires_two_accessors() {
        let mut h: HeatTracker<u64> = HeatTracker::new(60.0);
        let t = SimTime::ZERO;
        for _ in 0..10 {
            h.record(7, 0, t);
        }
        assert_eq!(h.hot_accessors(&7, 3.0, t), vec![0], "only one site is hot");
        for _ in 0..10 {
            h.record(7, 2, t);
        }
        assert_eq!(h.hot_accessors(&7, 3.0, t), vec![0, 2]);
    }

    #[test]
    fn cooling_removes_hotness() {
        let mut h: HeatTracker<u64> = HeatTracker::new(5.0);
        for _ in 0..8 {
            h.record(3, 0, SimTime::ZERO);
            h.record(3, 1, SimTime::ZERO);
        }
        assert_eq!(h.hot_accessors(&3, 4.0, SimTime::ZERO), vec![0, 1]);
        let later = SimTime::ZERO + SimDuration::from_secs(30);
        assert!(h.hot_accessors(&3, 4.0, later).is_empty());
    }
}
