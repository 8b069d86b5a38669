//! Differential test for `LruList`, the table each blade keeps its pages
//! in: after every operation of a seeded random sequence it must answer as
//! a slow reference does — a `BTreeMap` of the values, a `Vec` per
//! retention band and one for the held list, each most recent first.
//!
//! Tables grow past and shrink back under the 16 keys up to which
//! `LruList::iter` walks in place instead of sorting, so both walks are
//! held to the map's key order. Two hand mutations this catches: `<=` →
//! `<` in the in-place walk's floor test (a key is yielded twice), and a
//! `release` that relinks at its band's tail instead of the front (the
//! band lists the released key last).

use proptest::prelude::*;
use std::collections::BTreeMap;
use ys_cache::{LruList, Retention};
use ys_simcore::Rng;

const RETENTIONS: [Retention; 4] = [Retention::Low, Retention::Normal, Retention::High, Retention::Pinned];

#[derive(Clone, Copy, Debug)]
enum Op {
    Put { key: u32, value: u32, retention: Retention },
    PutHeld { key: u32, value: u32 },
    GetTouch { key: u32 },
    Release { key: u32, retention: Retention },
    Remove { key: u32 },
    Evict,
}

/// The reference: values by key, and recency lists as plain vectors.
#[derive(Default)]
struct Reference {
    values: BTreeMap<u32, u32>,
    bands: [Vec<u32>; 4],
    held: Vec<u32>,
}

impl Reference {
    fn unlink(&mut self, key: u32) {
        for list in self.bands.iter_mut().chain(std::iter::once(&mut self.held)) {
            list.retain(|&k| k != key);
        }
    }

    fn list_of(&mut self, key: u32) -> &mut Vec<u32> {
        let band = self.bands.iter().position(|list| list.contains(&key));
        match band {
            Some(b) => &mut self.bands[b],
            None => &mut self.held,
        }
    }

    /// Apply `op`; returns what the table must answer (a value, a flag or
    /// an evicted key, flattened to one `Option<u32>`).
    fn apply(&mut self, op: Op) -> Option<u32> {
        match op {
            Op::Put { key, value, retention } => {
                self.values.insert(key, value);
                self.unlink(key);
                self.bands[retention as usize].insert(0, key);
                None
            }
            Op::PutHeld { key, value } => {
                self.values.insert(key, value);
                self.unlink(key);
                self.held.insert(0, key);
                None
            }
            Op::GetTouch { key } => {
                let value = *self.values.get(&key)?;
                let list = self.list_of(key);
                list.retain(|&k| k != key);
                list.insert(0, key);
                Some(value)
            }
            Op::Release { key, retention } => {
                self.values.contains_key(&key).then(|| {
                    self.unlink(key);
                    self.bands[retention as usize].insert(0, key);
                    1
                })
            }
            Op::Remove { key } => {
                self.values.remove(&key)?;
                self.unlink(key);
                Some(1)
            }
            Op::Evict => {
                // Least recent of the lowest non-empty band; never Pinned,
                // never held.
                let key = self.bands[..3].iter_mut().find_map(|list| list.pop())?;
                self.values.remove(&key);
                Some(key)
            }
        }
    }
}

fn table_apply(t: &mut LruList<u32, u32>, op: Op) -> Option<u32> {
    match op {
        Op::Put { key, value, retention } => {
            t.put(key, value, retention);
            None
        }
        Op::PutHeld { key, value } => {
            t.put_held(key, value);
            None
        }
        Op::GetTouch { key } => t.touch(&key).then(|| t.get(&key).copied()).flatten(),
        Op::Release { key, retention } => t.release(&key, retention).then_some(1),
        Op::Remove { key } => t.remove(&key).then_some(1),
        Op::Evict => t.evict(),
    }
}

fn pick_op(rng: &mut Rng, keys: u64) -> Op {
    let key = rng.next_below(keys) as u32;
    let retention = RETENTIONS[rng.next_below(4) as usize];
    let value = rng.next_below(1 << 20) as u32;
    match rng.next_below(16) {
        0..=4 => Op::Put { key, value, retention },
        5..=6 => Op::PutHeld { key, value },
        7..=9 => Op::GetTouch { key },
        10..=11 => Op::Release { key, retention },
        12..=13 => Op::Remove { key },
        _ => Op::Evict,
    }
}

/// Everything observable about the table against the reference.
fn check(t: &LruList<u32, u32>, r: &Reference) -> Result<(), String> {
    let walked: Vec<(u32, u32)> = t.iter().map(|(&k, &v)| (k, v)).collect();
    let expected: Vec<(u32, u32)> = r.values.iter().map(|(&k, &v)| (k, v)).collect();
    if walked != expected {
        return Err(format!("iter() walked {walked:?}, key order is {expected:?}"));
    }
    if t.iter().size_hint() != (expected.len(), Some(expected.len())) {
        return Err(format!("iter() promises {:?} entries of {}", t.iter().size_hint(), expected.len()));
    }
    if (t.len(), t.held_len()) != (r.values.len(), r.held.len()) {
        return Err(format!("len/held_len {:?}, the reference says {:?}", (t.len(), t.held_len()), (r.values.len(), r.held.len())));
    }
    for (band, &retention) in RETENTIONS.iter().enumerate() {
        let keys: Vec<_> = t.band_iter(retention).copied().collect();
        if keys != r.bands[band] {
            return Err(format!("{retention:?} band {keys:?}, the reference says {:?}", r.bands[band]));
        }
    }
    let held: Vec<u32> = t.held_iter().map(|(&k, _)| k).collect();
    if held != r.held {
        return Err(format!("held list {held:?}, the reference says {:?}", r.held));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_table_answers_as_its_reference_does(seed in 0u64..512) {
        let mut rng = Rng::new(seed ^ 0x7ab1_e5ee);
        // Key spaces from 8 to 47: some tables never leave the in-place
        // walk, most cross the 16-key boundary in both directions.
        let keys = 8 + seed % 40;
        let mut table: LruList<u32, u32> = LruList::new();
        let mut reference = Reference::default();
        for step in 0..300 {
            let op = pick_op(&mut rng, keys);
            let (got, want) = (table_apply(&mut table, op), reference.apply(op));
            prop_assert!(got == want, "seed {seed} step {step} {op:?}: the table answered {got:?}, the reference {want:?}");
            let checked = check(&table, &reference);
            prop_assert!(checked.is_ok(), "seed {seed} step {step} {op:?}: {}", checked.unwrap_err());
        }
    }
}
