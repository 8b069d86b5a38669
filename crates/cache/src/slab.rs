//! What the cache's two slab tables share: the fixed hasher their indices
//! use, and their key-order walk.
//!
//! [`crate::lru::LruList`] and [`crate::directory::Directory`] each keep
//! their entries in a slab (a `Vec` in no particular order) behind one
//! hashed key → position index. Lookups go through the index; the one walk
//! whose order may reach behaviour or output goes through [`KeyOrder`].

use std::hash::{BuildHasherDefault, Hasher};

/// Tables of at most this many keys sort their slab positions on the
/// stack; larger ones sort them in a `Vec`.
const SMALL_WALK: usize = 16;

/// A fixed, seedless multiplicative hasher (the Fx mixing step): the same
/// key lands in the same bucket in every process and every run, and costs
/// one multiply per word to hash.
#[derive(Clone, Copy, Debug, Default)]
pub struct MulHasher(u64);

/// The index hasher of both slab tables, and of ys-check's shadow maps.
pub type FixedHash = BuildHasherDefault<MulHasher>;

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

/// Every live slot of a slab in key order. The live slab positions are
/// sorted by key once per walk: a table of at most 16 keys sorts them in
/// an array on the stack, so the model checker's tiny tables never
/// allocate; a larger one sorts a `Vec`.
pub(crate) struct KeyOrder<'a, S> {
    slab: &'a [S],
    walk: Walk,
}

enum Walk {
    /// `order[next..len]`: the slab positions still to yield.
    Small { order: [u32; SMALL_WALK], next: usize, len: usize },
    Sorted(std::vec::IntoIter<u32>),
}

impl<'a, S: Slot> KeyOrder<'a, S> {
    /// Walk `slab`, of which exactly `live` slots hold a key.
    pub(crate) fn new(slab: &'a [S], live: usize) -> KeyOrder<'a, S> {
        let walk = if live <= SMALL_WALK {
            // Insertion sort: each live position moves down past the
            // positions already placed whose keys are greater.
            let mut order = [0u32; SMALL_WALK];
            let mut len = 0;
            for (idx, slot) in slab.iter().enumerate() {
                let Some(key) = slot.key() else { continue };
                let mut at = len;
                while at > 0 && slab[order[at - 1] as usize].key() > Some(key) {
                    order[at] = order[at - 1];
                    at -= 1;
                }
                order[at] = idx as u32;
                len += 1;
            }
            Walk::Small { order, next: 0, len }
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
        let idx = match &mut self.walk {
            Walk::Small { order, next, len } => {
                let idx = order[..*len].get(*next)?;
                *next += 1;
                *idx
            }
            Walk::Sorted(order) => order.next()?,
        };
        Some(&self.slab[idx as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.walk {
            Walk::Small { next, len, .. } => len - next,
            Walk::Sorted(order) => order.len(),
        };
        (left, Some(left))
    }
}
