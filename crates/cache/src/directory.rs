//! The coherence directory.
//!
//! Directory-based coherence over cache pages, with MSI's per-copy states
//! and MOSI's owned sharing (see [`crate::cluster`]): each page has a
//! *home* blade (hash-sharded so directory load scales with the cluster,
//! §2.2), and the home's directory entry records the set of sharers, the
//! dirty owner (if modified), the write version, and where dirty replicas
//! live (§6.1).
//!
//! The entries sit in a dense slab behind one fixed-hasher index, so a
//! lookup, an insert and a removal are one probe each; the walks whose
//! order can reach behaviour or output go through [`Directory::iter`], in
//! key order.

use crate::slab::{FixedHash, KeyOrder, Slot};
use std::collections::HashMap; // lint: allow(unordered-iteration) — fixed hasher, never iterated: key order comes from the slab walk

/// Global cache-page key: (volume, page index within volume).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageKey {
    pub volume: u32,
    pub page: u64,
}

impl PageKey {
    pub fn new(volume: u32, page: u64) -> PageKey {
        PageKey { volume, page }
    }

    /// Home blade for this page's directory entry.
    pub fn home(&self, blades: usize) -> usize {
        // Fibonacci hashing over a mixed key: cheap and well-spread.
        let k = (self.volume as u64).rotate_left(32) ^ self.page;
        let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize % blades
    }
}

/// Per-page coherence state as seen by one blade.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageState {
    Shared,
    Modified,
}

/// Directory entry for one page.
#[derive(Debug, Default)]
pub struct DirEntry {
    /// Blades holding a Shared copy.
    pub sharers: Vec<usize>,
    /// Blade holding the Modified (exclusive, dirty) copy.
    pub owner: Option<usize>,
    /// Blades holding dirty replicas for N-way write protection.
    pub replicas: Vec<usize>,
    /// Monotonic write version; replicas carry the version they protect.
    pub version: u64,
    /// Fault-tolerance target: total dirty copies (owner + replicas) the
    /// last write asked for. Non-zero only while the page is dirty; the
    /// healer re-replicates any page whose surviving copies fall below it
    /// (after a promote, drain, or join). Cleared on destage — a page on
    /// disk no longer needs in-cache protection.
    pub protect: usize,
}

/// `clone_from` refills the holder lists in their own buffers: the model
/// checker refills one scratch cluster per explored transition.
impl Clone for DirEntry {
    fn clone(&self) -> Self {
        let DirEntry { sharers, owner, replicas, version, protect } = self;
        DirEntry { sharers: sharers.clone(), owner: *owner, replicas: replicas.clone(), version: *version, protect: *protect }
    }

    fn clone_from(&mut self, source: &Self) {
        let DirEntry { sharers, owner, replicas, version, protect } = self;
        sharers.clone_from(&source.sharers);
        *owner = source.owner;
        replicas.clone_from(&source.replicas);
        *version = source.version;
        *protect = source.protect;
    }
}

impl DirEntry {
    pub fn is_cached_anywhere(&self) -> bool {
        self.owner.is_some() || !self.sharers.is_empty()
    }

    pub fn holders(&self) -> Vec<usize> {
        let mut h = self.sharers.clone();
        if let Some(o) = self.owner {
            h.push(o);
        }
        h
    }
}

/// The directory: sharded by page home; this struct holds all shards and
/// exposes per-shard accounting so tests can verify load spreading.
#[derive(Debug)]
pub struct Directory {
    blades: usize,
    /// Every entry, packed in no particular order: a removal moves the last
    /// one into the hole. [`Directory::iter`] walks it in key order, since
    /// that walk feeds ys-check's canonical hash and the ys-chaos oracle,
    /// whose output must not depend on the history of the table.
    slab: Vec<DirSlot>,
    /// Key → slab position; lookup-only.
    index: HashMap<PageKey, u32, FixedHash>, // lint: allow(unordered-iteration) — never iterated: key order comes from the slab walk
    shard_lookups: Vec<u64>,
}

/// One slab slot: a page and its entry. A struct, not a tuple, because
/// tuples clone field by field but do not forward `clone_from`: refilling
/// a directory must reach each entry's [`DirEntry::clone_from`].
#[derive(Debug)]
struct DirSlot {
    key: PageKey,
    entry: DirEntry,
}

impl Clone for DirSlot {
    fn clone(&self) -> Self {
        DirSlot { key: self.key, entry: self.entry.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        let DirSlot { key, entry } = self;
        *key = source.key;
        entry.clone_from(&source.entry);
    }
}

impl Clone for Directory {
    fn clone(&self) -> Self {
        let Directory { blades, slab, index, shard_lookups } = self;
        Directory { blades: *blades, slab: slab.clone(), index: index.clone(), shard_lookups: shard_lookups.clone() }
    }

    /// Refills every buffer in place, the entries' holder lists included.
    fn clone_from(&mut self, source: &Self) {
        let Directory { blades, slab, index, shard_lookups } = self;
        *blades = source.blades;
        slab.clone_from(&source.slab);
        index.clone_from(&source.index);
        shard_lookups.clone_from(&source.shard_lookups);
    }
}

impl Directory {
    pub fn new(blades: usize) -> Directory {
        assert!(blades > 0);
        Directory {
            blades,
            slab: Vec::new(),
            index: HashMap::default(), // lint: allow(unordered-iteration) — fixed hasher, never iterated
            shard_lookups: vec![0; blades],
        }
    }

    pub fn entry(&mut self, key: PageKey) -> &mut DirEntry {
        self.shard_lookups[key.home(self.blades)] += 1;
        let slab = &mut self.slab;
        let idx = *self.index.entry(key).or_insert_with(|| {
            slab.push(DirSlot { key, entry: DirEntry::default() });
            (slab.len() - 1) as u32
        });
        &mut self.slab[idx as usize].entry
    }

    pub fn get(&self, key: &PageKey) -> Option<&DirEntry> {
        self.index.get(key).map(|&idx| &self.slab[idx as usize].entry)
    }

    pub fn remove(&mut self, key: &PageKey) {
        let Some(idx) = self.index.remove(key) else { return };
        self.slab.swap_remove(idx as usize);
        if let Some(moved) = self.slab.get(idx as usize) {
            if let Some(at) = self.index.get_mut(&moved.key) {
                *at = idx;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.slab.len()
    }

    // lint: allow(dead-pub) — (e) clippy's len_without_is_empty pairs it with the live pub len
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Directory lookups served per home shard — E5's evidence that
    /// directory work itself spreads across the cluster.
    pub fn shard_lookups(&self) -> &[u64] {
        &self.shard_lookups
    }

    /// Every entry in the slab's order, which is no key order and shifts
    /// as entries come and go. Only a caller whose result does not depend
    /// on the order may use it; [`Directory::iter`] walks in key order.
    pub fn iter_unordered(&self) -> impl Iterator<Item = (&PageKey, &DirEntry)> {
        self.slab.iter().map(|s| (&s.key, &s.entry))
    }

    /// Iterate entries in page-key order (deterministic across runs; see
    /// `slab::KeyOrder`: directories of at most 16 entries are walked without
    /// allocating).
    pub fn iter(&self) -> impl Iterator<Item = (&PageKey, &DirEntry)> {
        KeyOrder::new(&self.slab, self.slab.len()).map(|s| (&s.key, &s.entry))
    }
}

impl Slot for DirSlot {
    type Key = PageKey;

    fn key(&self) -> Option<&PageKey> {
        Some(&self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_is_stable_and_in_range() {
        for blades in 1..16 {
            for v in 0..4u32 {
                for p in 0..100u64 {
                    let k = PageKey::new(v, p);
                    let h = k.home(blades);
                    assert!(h < blades);
                    assert_eq!(h, k.home(blades), "home must be deterministic");
                }
            }
        }
    }

    #[test]
    fn homes_spread_across_blades() {
        let blades = 8;
        let mut counts = vec![0u32; blades];
        for p in 0..8000u64 {
            counts[PageKey::new(1, p).home(blades)] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max < 2 * min, "uneven home distribution: {counts:?}");
    }

    #[test]
    fn entry_creates_and_tracks_shard_load() {
        let mut d = Directory::new(4);
        let k = PageKey::new(0, 7);
        d.entry(k).sharers.push(2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.get(&k).unwrap().sharers, vec![2]);
        assert_eq!(d.shard_lookups().iter().sum::<u64>(), 1);
        d.remove(&k);
        assert!(d.is_empty());
    }

    #[test]
    fn holders_combines_sharers_and_owner() {
        let mut e = DirEntry::default();
        assert!(!e.is_cached_anywhere());
        e.sharers = vec![0, 3];
        e.owner = Some(5);
        let h = e.holders();
        assert!(h.contains(&0) && h.contains(&3) && h.contains(&5));
        assert!(e.is_cached_anywhere());
    }
}
