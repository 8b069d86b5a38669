//! An O(1) LRU list over a slab, with priority bands.
//!
//! The paper's file system can "override cache retention priorities" per
//! file (§4), so the recency list is split into bands: eviction always
//! drains the lowest band's tail before touching higher bands.
//!
//! Keys that must not be evicted for a reason other than their retention
//! (a cache's dirty and replica pages) are *held*: they sit in one more,
//! counted list outside the bands, so eviction never walks past them.

use std::collections::HashMap; // lint: allow(unordered-iteration) — see `index` field
use std::hash::Hash;

/// Cache retention priority (§4 extended metadata). Order matters:
/// `Low` evicts first, `Pinned` never auto-evicts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Retention {
    Low = 0,
    Normal = 1,
    High = 2,
    Pinned = 3,
}

const BANDS: usize = 4;
/// Index of the held list in `LruList::bands`, after the retention bands.
const HELD: usize = BANDS;

#[derive(Clone, Debug)]
struct Node<K> {
    key: K,
    band: usize,
    prev: Option<usize>,
    next: Option<usize>,
}

#[derive(Clone, Copy, Debug, Default)]
struct BandList {
    head: Option<usize>, // most recent
    tail: Option<usize>, // least recent
    len: usize,
}

/// LRU with priority bands. Keys are unique; touching a key moves it to the
/// front of its band.
#[derive(Clone, Debug)]
pub struct LruList<K: Eq + Hash + Clone> {
    slab: Vec<Node<K>>,
    free: Vec<usize>,
    /// Lookup-only: recency order lives in the slab links, and nothing ever
    /// iterates this map, so the hasher seed cannot leak into replay.
    index: HashMap<K, usize>, // lint: allow(unordered-iteration)
    /// The retention bands, then the held list.
    bands: [BandList; BANDS + 1],
}

impl<K: Eq + Hash + Clone> Default for LruList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone> LruList<K> {
    pub fn new() -> LruList<K> {
        LruList {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(), // lint: allow(unordered-iteration) — lookup-only, never iterated
            bands: [BandList::default(); BANDS + 1],
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (band, prev, next) = {
            let n = &self.slab[idx];
            (n.band, n.prev, n.next)
        };
        match prev {
            Some(p) => self.slab[p].next = next,
            None => self.bands[band].head = next,
        }
        match next {
            Some(nx) => self.slab[nx].prev = prev,
            None => self.bands[band].tail = prev,
        }
        self.bands[band].len -= 1;
    }

    fn link_front(&mut self, idx: usize, band: usize) {
        let old_head = self.bands[band].head;
        {
            let n = &mut self.slab[idx];
            n.band = band;
            n.prev = None;
            n.next = old_head;
        }
        if let Some(h) = old_head {
            self.slab[h].prev = Some(idx);
        }
        self.bands[band].head = Some(idx);
        if self.bands[band].tail.is_none() {
            self.bands[band].tail = Some(idx);
        }
        self.bands[band].len += 1;
    }

    /// Insert (or touch) `key` at the front of `retention`'s band. A held
    /// key is released into the band.
    pub fn insert(&mut self, key: K, retention: Retention) {
        self.link(key, retention as usize);
    }

    /// Hold `key` (inserting it if absent): it leaves the recency bands and
    /// is never auto-evicted until [`LruList::insert`] releases it.
    pub(crate) fn hold(&mut self, key: K) {
        self.link(key, HELD);
    }

    /// Number of held keys.
    pub(crate) fn held_len(&self) -> usize {
        self.bands[HELD].len
    }

    /// Whether `key` is held; `None` when it is not in the list at all.
    pub(crate) fn is_held(&self, key: &K) -> Option<bool> {
        self.index.get(key).map(|&idx| self.slab[idx].band == HELD)
    }

    fn link(&mut self, key: K, band: usize) {
        if let Some(&idx) = self.index.get(&key) {
            self.unlink(idx);
            self.link_front(idx, band);
            return;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node { key: key.clone(), band, prev: None, next: None };
                i
            }
            None => {
                self.slab.push(Node { key: key.clone(), band, prev: None, next: None });
                self.slab.len() - 1
            }
        };
        self.index.insert(key, idx);
        self.link_front(idx, band);
    }

    /// Touch an existing key (move to front of its current list).
    pub fn touch(&mut self, key: &K) -> bool {
        match self.index.get(key).copied() {
            Some(idx) => {
                let band = self.slab[idx].band;
                self.unlink(idx);
                self.link_front(idx, band);
                true
            }
            None => false,
        }
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Evict the least-recently-used key from the lowest non-empty,
    /// non-pinned band: O(1), since nothing un-evictable sits in a band.
    pub(crate) fn evict(&mut self) -> Option<K> {
        self.evict_where(|_| false)
    }

    /// Evict the least-recently-used key from the lowest non-empty,
    /// non-pinned band, skipping keys `veto` rejects — for callers that
    /// keep un-evictable keys in the bands, at one step per key skipped.
    pub fn evict_where<F: Fn(&K) -> bool>(&mut self, veto: F) -> Option<K> {
        for band in 0..BANDS - 1 {
            // never auto-evict Pinned or held
            let mut cursor = self.bands[band].tail;
            while let Some(idx) = cursor {
                if veto(&self.slab[idx].key) {
                    cursor = self.slab[idx].prev;
                    continue;
                }
                let key = self.slab[idx].key.clone();
                self.index.remove(&key);
                self.unlink(idx);
                self.free.push(idx);
                return Some(key);
            }
        }
        None
    }

    /// Iterate keys from most- to least-recent within a band.
    pub fn band_keys(&self, retention: Retention) -> Vec<K> {
        self.band_iter(retention).cloned().collect()
    }

    /// Allocation-free variant of [`LruList::band_keys`]: borrow keys from
    /// most- to least-recent within a band. Hot callers (the model
    /// checker's canonical hash) walk recency order once per explored
    /// transition and must not pay a `Vec` per walk.
    pub fn band_iter(&self, retention: Retention) -> impl Iterator<Item = &K> + '_ {
        self.list_iter(retention as usize)
    }

    /// The held keys, most recently held first.
    pub(crate) fn held_iter(&self) -> impl Iterator<Item = &K> + '_ {
        self.list_iter(HELD)
    }

    fn list_iter(&self, band: usize) -> impl Iterator<Item = &K> + '_ {
        std::iter::successors(self.bands[band].head, move |&idx| self.slab[idx].next)
            .map(move |idx| &self.slab[idx].key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_evict_lru_order() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        assert_eq!(l.evict_where(|_| false), Some(1));
        assert_eq!(l.evict_where(|_| false), Some(2));
        assert_eq!(l.evict_where(|_| false), Some(3));
        assert_eq!(l.evict_where(|_| false), None);
        assert!(l.is_empty());
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        assert!(l.touch(&1));
        assert_eq!(l.evict_where(|_| false), Some(2), "1 was refreshed");
    }

    #[test]
    fn low_band_evicts_before_high() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(10, Retention::High);
        l.insert(20, Retention::Low);
        l.insert(30, Retention::Normal);
        assert_eq!(l.evict_where(|_| false), Some(20));
        assert_eq!(l.evict_where(|_| false), Some(30));
        assert_eq!(l.evict_where(|_| false), Some(10));
    }

    #[test]
    fn pinned_is_never_auto_evicted() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Pinned);
        assert_eq!(l.evict_where(|_| false), None);
        assert!(l.remove(&1), "explicit removal still works");
    }

    #[test]
    fn veto_skips_but_does_not_block_others() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        // veto the LRU entry (1); eviction takes 2's... no wait: veto(1) → take 2.
        assert_eq!(l.evict_where(|&k| k == 1), Some(2));
        assert!(l.contains(&1));
    }

    #[test]
    fn held_keys_leave_the_bands_and_return_at_the_front() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        l.hold(1);
        l.hold(9);
        assert_eq!((l.held_len(), l.len()), (2, 4));
        assert_eq!(l.held_iter().collect::<Vec<_>>(), vec![&9, &1]);
        assert_eq!((l.is_held(&1), l.is_held(&9), l.is_held(&2), l.is_held(&7)), (Some(true), Some(true), Some(false), None));
        assert_eq!(l.band_keys(Retention::Normal), vec![3, 2], "held keys are in no band");
        assert_eq!(l.evict(), Some(2));
        // Released, the key is the most recent of its band.
        l.insert(1, Retention::Normal);
        assert_eq!((l.held_len(), l.band_keys(Retention::Normal)), (1, vec![1, 3]));
        assert_eq!(l.evict(), Some(3));
        assert_eq!(l.evict(), Some(1));
        assert_eq!(l.evict(), None, "only the held key is left");
        assert!(l.remove(&9));
        assert_eq!(l.held_len(), 0);
    }

    #[test]
    fn reinsert_updates_band() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Low);
        l.insert(1, Retention::High);
        assert_eq!(l.len(), 1);
        l.insert(2, Retention::Normal);
        assert_eq!(l.evict_where(|_| false), Some(2), "1 now lives in the High band");
    }

    #[test]
    fn remove_then_slab_reuse() {
        let mut l: LruList<u32> = LruList::new();
        for k in 0..100 {
            l.insert(k, Retention::Normal);
        }
        for k in 0..50 {
            assert!(l.remove(&k));
        }
        for k in 100..150 {
            l.insert(k, Retention::Normal);
        }
        assert_eq!(l.len(), 100);
        // Eviction order: 50..99 then 100..149.
        assert_eq!(l.evict_where(|_| false), Some(50));
    }

    #[test]
    fn band_keys_lists_most_recent_first() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        assert_eq!(l.band_keys(Retention::Normal), vec![3, 2, 1]);
        assert!(l.band_keys(Retention::High).is_empty());
    }
}
