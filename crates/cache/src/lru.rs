//! An O(1) LRU table over a slab, with priority bands.
//!
//! The paper's file system can "override cache retention priorities" per
//! file (§4), so the recency list is split into bands: eviction always
//! drains the lowest band's tail before touching higher bands.
//!
//! Keys that must not be evicted for a reason other than their retention
//! (a cache's dirty and replica pages) are *held*: they sit in one more,
//! counted list outside the bands, so eviction never walks past them.
//!
//! Each slab node carries its key's value beside the recency links, so a
//! table is the one index over what it holds: a lookup, a touch and an
//! update are one probe of one hashed index.

use crate::slab::{FixedHash, KeyOrder, Slot};
use std::collections::HashMap; // lint: allow(unordered-iteration) — fixed hasher, walked only in key order (see `index`)
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
const HELD: u8 = BANDS as u8;
/// The `band` of a slab node that is on the free list.
const FREE: u8 = u8::MAX;
/// The null link.
const NIL: u32 = u32::MAX;
#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Retention band, [`HELD`], or [`FREE`].
    band: u8,
    prev: u32,
    next: u32,
}

#[derive(Clone, Copy, Debug)]
struct BandList {
    head: u32, // most recent
    tail: u32, // least recent
    len: usize,
}

impl Default for BandList {
    fn default() -> Self {
        BandList { head: NIL, tail: NIL, len: 0 }
    }
}

/// LRU table with priority bands: each key maps to one value, and sits in
/// one recency list. Touching a key moves it to the front of its list.
#[derive(Debug)]
pub struct LruList<K: Eq + Hash + Clone, V = ()> {
    slab: Vec<Node<K, V>>,
    free: Vec<u32>,
    /// Key → slab position. Lookup-only with a fixed hasher: recency order
    /// lives in the slab links and key order comes from [`LruList::iter`],
    /// so nothing ever walks this map.
    index: HashMap<K, u32, FixedHash>, // lint: allow(unordered-iteration) — never iterated
    /// The retention bands, then the held list.
    bands: [BandList; BANDS + 1],
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for LruList<K, V> {
    fn clone(&self) -> Self {
        let LruList { slab, free, index, bands } = self;
        LruList { slab: slab.clone(), free: free.clone(), index: index.clone(), bands: *bands }
    }

    /// Refills the slab, the free list and the index in their own buffers:
    /// the model checker refills one scratch cluster per explored
    /// transition.
    fn clone_from(&mut self, source: &Self) {
        let LruList { slab, free, index, bands } = self;
        slab.clone_from(&source.slab);
        free.clone_from(&source.free);
        index.clone_from(&source.index);
        *bands = source.bands;
    }
}

impl<K: Eq + Hash + Clone, V> Default for LruList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V> LruList<K, V> {
    pub fn new() -> LruList<K, V> {
        LruList {
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(), // lint: allow(unordered-iteration) — fixed hasher, never iterated
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

    pub fn get(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&idx| &self.slab[idx as usize].value)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.index.get(key).map(|&idx| &mut self.slab[idx as usize].value)
    }

    /// Touch an existing key (move to front of its current list): a cache
    /// hit's one probe. `false` when absent.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.index.get(key) {
            Some(&idx) => {
                let band = self.slab[idx as usize].band;
                self.unlink(idx);
                self.link_front(idx, band);
                true
            }
            None => false,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (band, prev, next) = {
            let n = &self.slab[idx as usize];
            (n.band as usize, n.prev, n.next)
        };
        match prev {
            NIL => self.bands[band].head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.bands[band].tail = prev,
            nx => self.slab[nx as usize].prev = prev,
        }
        self.bands[band].len -= 1;
    }

    fn link_front(&mut self, idx: u32, band: u8) {
        let list = &mut self.bands[band as usize];
        let old_head = list.head;
        list.head = idx;
        if list.tail == NIL {
            list.tail = idx;
        }
        list.len += 1;
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        }
        let n = &mut self.slab[idx as usize];
        n.band = band;
        n.prev = NIL;
        n.next = old_head;
    }

    /// Set `key`'s value and put it at the front of `retention`'s band. A
    /// held key is released into the band.
    pub fn put(&mut self, key: K, value: V, retention: Retention) {
        self.link(key, value, retention as u8);
    }

    /// Set `key`'s value and hold it: it leaves the recency bands and is
    /// never auto-evicted until [`LruList::put`] or [`LruList::release`]
    /// returns it to a band.
    pub fn put_held(&mut self, key: K, value: V) {
        self.link(key, value, HELD);
    }

    /// Move an existing key, value unchanged, to the front of
    /// `retention`'s band (a held key is released). `false` when absent.
    pub fn release(&mut self, key: &K, retention: Retention) -> bool {
        match self.index.get(key) {
            Some(&idx) => {
                self.unlink(idx);
                self.link_front(idx, retention as u8);
                true
            }
            None => false,
        }
    }

    fn link(&mut self, key: K, value: V, band: u8) {
        if let Some(&idx) = self.index.get(&key) {
            self.slab[idx as usize].value = value;
            self.unlink(idx);
            self.link_front(idx, band);
            return;
        }
        let node = Node { key: key.clone(), value, band, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = node;
                i
            }
            None => {
                self.slab.push(node);
                (self.slab.len() - 1) as u32
            }
        };
        self.index.insert(key, idx);
        self.link_front(idx, band);
    }

    /// Number of held keys.
    pub fn held_len(&self) -> usize {
        self.bands[HELD as usize].len
    }

    /// Whether `key` is held; `None` when it is not in the table at all.
    pub(crate) fn is_held(&self, key: &K) -> Option<bool> {
        self.index.get(key).map(|&idx| self.slab[idx as usize].band == HELD)
    }

    /// Remove a specific key.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.index.remove(key) {
            Some(idx) => {
                self.free_node(idx);
                true
            }
            None => false,
        }
    }

    fn free_node(&mut self, idx: u32) {
        self.unlink(idx);
        self.slab[idx as usize].band = FREE;
        self.free.push(idx);
    }

    /// Evict the least-recently-used key from the lowest non-empty,
    /// non-pinned band: O(1), since nothing un-evictable sits in a band.
    pub fn evict(&mut self) -> Option<K> {
        // never auto-evict Pinned or held
        let band = self.bands[..BANDS - 1].iter().position(|b| b.tail != NIL)?;
        let tail = self.bands[band].tail;
        let key = self.slab[tail as usize].key.clone();
        self.index.remove(&key);
        self.free_node(tail);
        Some(key)
    }

    /// Borrow keys from most- to least-recent within a band, without
    /// allocating: hot callers (the model checker's canonical hash) walk
    /// recency order once per explored transition and must not pay a `Vec`
    /// per walk.
    pub fn band_iter(&self, retention: Retention) -> impl Iterator<Item = &K> + '_ {
        self.list_iter(retention as u8).map(|n| &n.key)
    }

    /// The held entries, most recently held first.
    pub fn held_iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.list_iter(HELD).map(|n| (&n.key, &n.value))
    }

    fn list_iter(&self, band: u8) -> impl Iterator<Item = &Node<K, V>> + '_ {
        let head = self.bands[band as usize].head;
        std::iter::successors((head != NIL).then_some(head), move |&idx| {
            let next = self.slab[idx as usize].next;
            (next != NIL).then_some(next)
        })
        .map(move |idx| &self.slab[idx as usize])
    }

    /// Every entry in no particular order, for a caller whose result does
    /// not depend on it.
    pub(crate) fn iter_unordered(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.slab.iter().filter(|n| n.band != FREE).map(|n| (&n.key, &n.value))
    }
}

impl<K: Eq + Hash + Clone + Ord, V> LruList<K, V> {
    /// Every entry in key order: the one walk whose order may reach
    /// behaviour or output (`slab::KeyOrder`: tables of at most 16 keys are
    /// walked without allocating).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        KeyOrder::new(&self.slab, self.len()).map(|n| (&n.key, &n.value))
    }
}

impl<K: Eq + Hash + Clone> LruList<K> {
    /// Insert (or touch) a value-less `key` at the front of `retention`'s
    /// band. A held key is released into the band.
    pub fn insert(&mut self, key: K, retention: Retention) {
        self.put(key, (), retention);
    }
}

impl<K: Ord, V> Slot for Node<K, V> {
    type Key = K;

    fn key(&self) -> Option<&K> {
        (self.band != FREE).then_some(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One band's keys, most recent first.
    fn band_keys(l: &LruList<u32>, retention: Retention) -> Vec<u32> {
        l.band_iter(retention).copied().collect()
    }

    #[test]
    fn insert_and_evict_lru_order() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        assert_eq!(l.evict(), Some(1));
        assert_eq!(l.evict(), Some(2));
        assert_eq!(l.evict(), Some(3));
        assert_eq!(l.evict(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn touch_moves_to_front() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        assert!(l.touch(&1));
        assert_eq!(l.evict(), Some(2), "1 was refreshed");
    }

    #[test]
    fn low_band_evicts_before_high() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(10, Retention::High);
        l.insert(20, Retention::Low);
        l.insert(30, Retention::Normal);
        assert_eq!(l.evict(), Some(20));
        assert_eq!(l.evict(), Some(30));
        assert_eq!(l.evict(), Some(10));
    }

    #[test]
    fn pinned_is_never_auto_evicted() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Pinned);
        assert_eq!(l.evict(), None);
        assert!(l.remove(&1), "explicit removal still works");
    }

    #[test]
    fn held_keys_leave_the_bands_and_return_at_the_front() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        l.put_held(1, ());
        l.put_held(9, ());
        assert_eq!((l.held_len(), l.len()), (2, 4));
        assert_eq!(l.held_iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![9, 1]);
        assert_eq!((l.is_held(&1), l.is_held(&9), l.is_held(&2), l.is_held(&7)), (Some(true), Some(true), Some(false), None));
        assert_eq!(band_keys(&l, Retention::Normal), vec![3, 2], "held keys are in no band");
        assert_eq!(l.evict(), Some(2));
        // Released, the key is the most recent of its band.
        assert!(l.release(&1, Retention::Normal));
        assert_eq!((l.held_len(), band_keys(&l, Retention::Normal)), (1, vec![1, 3]));
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
        assert_eq!(l.evict(), Some(2), "1 now lives in the High band");
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
        assert_eq!(l.evict(), Some(50));
    }

    #[test]
    fn band_keys_lists_most_recent_first() {
        let mut l: LruList<u32> = LruList::new();
        l.insert(1, Retention::Normal);
        l.insert(2, Retention::Normal);
        l.insert(3, Retention::Normal);
        assert_eq!(band_keys(&l, Retention::Normal), vec![3, 2, 1]);
        assert!(band_keys(&l, Retention::High).is_empty());
    }
}
