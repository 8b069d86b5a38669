//! What the cache's two slab tables share: the fixed hasher their indices
//! use, and their key-order walk.
//!
//! [`crate::lru::LruList`] and [`crate::directory::Directory`] each keep
//! their entries in a slab (a `Vec` in no particular order) behind one
//! hashed key → position index. Lookups go through the index; the one walk
//! whose order may reach behaviour or output goes through [`KeyOrder`].

use std::hash::{BuildHasherDefault, Hasher};

/// Tables of at most this many keys are walked in key order in place;
/// larger ones sort their slab positions once per walk.
const WALK_IN_PLACE: usize = 16;

/// A fixed, seedless multiplicative hasher (the Fx mixing step): the same
/// key lands in the same bucket in every process and every run, and costs
/// one multiply per word to hash.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MulHasher(u64);

/// The index hasher of both slab tables.
pub(crate) type FixedHash = BuildHasherDefault<MulHasher>;

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    /// The product's high bits are its best mixed; rotate them down to the
    /// bucket-index end.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A slab slot: its key, or `None` when the slot is free.
pub(crate) trait Slot {
    type Key: Ord;

    fn key(&self) -> Option<&Self::Key>;
}

/// Every live slot of a slab in key order. A table of at most 16 keys is
/// walked in place (each step scans the slab for the next key), so the
/// model checker's tiny tables never allocate; a larger one sorts its slab
/// positions once.
pub(crate) struct KeyOrder<'a, S> {
    slab: &'a [S],
    walk: Walk,
}

enum Walk {
    /// Each step yields the least live key above the last one yielded.
    InPlace { last: Option<usize>, left: usize },
    /// Slab positions of the live slots, sorted by key.
    Sorted(std::vec::IntoIter<u32>),
}

impl<'a, S: Slot> KeyOrder<'a, S> {
    /// Walk `slab`, of which exactly `live` slots hold a key.
    pub(crate) fn new(slab: &'a [S], live: usize) -> KeyOrder<'a, S> {
        let walk = if live <= WALK_IN_PLACE {
            Walk::InPlace { last: None, left: live }
        } else {
            let mut order: Vec<u32> =
                (0..slab.len() as u32).filter(|&i| slab[i as usize].key().is_some()).collect();
            order.sort_unstable_by_key(|&i| slab[i as usize].key());
            Walk::Sorted(order.into_iter())
        };
        KeyOrder { slab, walk }
    }
}

impl<'a, S: Slot> Iterator for KeyOrder<'a, S> {
    type Item = &'a S;

    fn next(&mut self) -> Option<&'a S> {
        let slab = self.slab;
        let idx = match &mut self.walk {
            Walk::InPlace { last, left } => {
                if *left == 0 {
                    return None;
                }
                let floor = last.and_then(|i| slab[i].key());
                let mut best: Option<(usize, &S::Key)> = None;
                for (idx, slot) in slab.iter().enumerate() {
                    let Some(key) = slot.key() else { continue };
                    if floor.is_some_and(|f| key <= f) {
                        continue;
                    }
                    if best.is_none_or(|(_, b)| key < b) {
                        best = Some((idx, key));
                    }
                }
                *left -= 1;
                *last = best.map(|(idx, _)| idx);
                (*last)?
            }
            Walk::Sorted(order) => order.next()? as usize,
        };
        Some(&slab[idx])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.walk {
            Walk::InPlace { left, .. } => *left,
            Walk::Sorted(order) => order.len(),
        };
        (left, Some(left))
    }
}
