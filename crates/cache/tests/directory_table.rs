//! Differential test for `Directory`, the coherence directory's table:
//! after every operation of a seeded random sequence it must answer as a
//! slow reference does — a `BTreeMap` of the entries and a per-home count
//! of `entry` calls.
//!
//! Each sequence alternates growing and shrinking phases, so most tables
//! cross the 16 entries up to which `Directory::iter` sorts on the stack
//! instead of in a `Vec`, in both directions, and both walks are held to
//! the map's key order. Removals take random keys, which mostly sit in the
//! middle of the slab, and the entry created last, which sits in the last
//! slot unless a removal has moved it since.
//!
//! One long-lived scratch directory is refilled from the table under test
//! with `clone_from` after every operation, so it always held an earlier,
//! different state; refilled, it must answer as the reference does too.
//!
//! Hand mutations this catches: dropping the re-index of the entry
//! `remove` moves into the hole `swap_remove` left (a later `get` answers
//! from the wrong slot); `at > 0` → `at > 1` in the stack walk's insertion
//! sort (a key smaller than the first one placed stays behind it); and a
//! slab slot's `clone_from` that copies the key but not the entry (the
//! scratch walks stale holder lists).

use proptest::prelude::*;
use std::collections::BTreeMap;
use ys_cache::{DirEntry, Directory, PageKey};
use ys_simcore::Rng;

const BLADES: usize = 5;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `entry(key)`, then change what it holds.
    Entry { key: PageKey, blade: usize, version: u64 },
    Get { key: PageKey },
    Remove { key: PageKey },
    /// Remove the entry `entry` created last, if it is still there.
    RemoveNewest,
}

/// Everything a `DirEntry` holds, comparable.
type Fields = (Vec<usize>, Option<usize>, Vec<usize>, u64, usize);

fn fields(e: &DirEntry) -> Fields {
    (e.sharers.clone(), e.owner, e.replicas.clone(), e.version, e.protect)
}

/// The change an `Entry` op makes, to the table's entry and the
/// reference's alike.
fn mutate(e: &mut DirEntry, blade: usize, version: u64) {
    match version % 3 {
        0 => e.sharers.push(blade),
        1 => e.owner = Some(blade),
        _ => e.replicas.push(blade),
    }
    e.version = version;
    e.protect = e.replicas.len() + 1;
}

#[derive(Default)]
struct Reference {
    entries: BTreeMap<PageKey, DirEntry>,
    lookups: Vec<u64>,
}

fn pick_op(rng: &mut Rng, keys: u64, growing: bool) -> Op {
    let key = PageKey::new(rng.next_below(2) as u32, rng.next_below(keys.div_ceil(2)));
    let blade = rng.next_below(BLADES as u64) as usize;
    let version = rng.next_below(1 << 20);
    let (entry, get, remove) = if growing { (8, 4, 3) } else { (2, 4, 8) };
    match rng.next_below(16) {
        n if n < entry => Op::Entry { key, blade, version },
        n if n < entry + get => Op::Get { key },
        n if n < entry + get + remove => Op::Remove { key },
        _ => Op::RemoveNewest,
    }
}

/// Everything observable about the table against the reference.
fn check(d: &Directory, r: &Reference, keys: u64) -> Result<(), String> {
    let walked: Vec<(PageKey, Fields)> = d.iter().map(|(&k, e)| (k, fields(e))).collect();
    let expected: Vec<(PageKey, Fields)> = r.entries.iter().map(|(&k, e)| (k, fields(e))).collect();
    if walked != expected {
        return Err(format!("iter() walked {walked:?}, key order is {expected:?}"));
    }
    if d.len() != r.entries.len() {
        return Err(format!("len {}, the reference holds {}", d.len(), r.entries.len()));
    }
    for volume in 0..2 {
        for page in 0..keys.div_ceil(2) {
            let key = PageKey::new(volume, page);
            let (got, want) = (d.get(&key).map(fields), r.entries.get(&key).map(fields));
            if got != want {
                return Err(format!("get({key:?}) is {got:?}, the reference says {want:?}"));
            }
        }
    }
    if d.shard_lookups() != r.lookups {
        return Err(format!("shard_lookups {:?}, the reference counted {:?}", d.shard_lookups(), r.lookups));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_directory_answers_as_its_reference_does(seed in 0u64..512) {
        let mut rng = Rng::new(seed ^ 0xd1ec_7041);
        // Key spaces from 8 to 47: some tables never leave the stack walk,
        // most cross the 16-entry boundary in both directions.
        let keys = 8 + seed % 40;
        let mut dir = Directory::new(BLADES);
        let mut scratch = Directory::new(BLADES);
        let mut reference = Reference { lookups: vec![0; BLADES], ..Reference::default() };
        let mut newest: Option<PageKey> = None;
        let (mut grew, mut shrank_back) = (false, false);
        for step in 0..400 {
            let op = pick_op(&mut rng, keys, step / 100 % 2 == 0);
            match op {
                Op::Entry { key, blade, version } => {
                    if !reference.entries.contains_key(&key) {
                        newest = Some(key);
                    }
                    mutate(dir.entry(key), blade, version);
                    mutate(reference.entries.entry(key).or_default(), blade, version);
                    reference.lookups[key.home(BLADES)] += 1;
                }
                Op::Get { key } => {
                    let (got, want) = (dir.get(&key).map(fields), reference.entries.get(&key).map(fields));
                    prop_assert!(got == want, "seed {seed} step {step} {op:?}: {got:?}, the reference {want:?}");
                }
                Op::Remove { key } => {
                    dir.remove(&key);
                    reference.entries.remove(&key);
                }
                Op::RemoveNewest => {
                    if let Some(key) = newest.take() {
                        dir.remove(&key);
                        reference.entries.remove(&key);
                    }
                }
            }
            let checked = check(&dir, &reference, keys);
            prop_assert!(checked.is_ok(), "seed {seed} step {step} {op:?}: {}", checked.unwrap_err());
            scratch.clone_from(&dir);
            let refilled = check(&scratch, &reference, keys);
            prop_assert!(refilled.is_ok(), "seed {seed} step {step} {op:?}, refilled: {}", refilled.unwrap_err());
            grew |= dir.len() > 16;
            shrank_back |= grew && dir.len() <= 16;
        }
        prop_assert!(keys < 30 || shrank_back, "seed {seed}: {keys} keys never crossed 16 entries both ways");
    }
}
