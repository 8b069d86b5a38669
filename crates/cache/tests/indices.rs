//! Differential tests for the books `CacheCluster` keeps instead of
//! scanning: the held list (dirty ratio, O(1) eviction) and the heal queue.
//!
//! After every operation of a seeded random sequence the indexed answers
//! must equal the definitions they replaced, recomputed here from the
//! public views alone — and every eviction must take the page the scan
//! would have taken: the least-recent clean page of the lowest non-empty
//! band.
//!
//! The checkpoint audit is held to the same standard from both ends: every
//! page an operation changed, by any public view, must be in the change
//! journal (or the journal closed), and `audit_checkpoint` must answer
//! exactly as the full `audit_invariants` does.

use proptest::prelude::*;
use std::collections::BTreeSet;
use ys_cache::{BladeState, CacheCluster, CacheError, Health, PageKey, ReadOutcome, ResidentPage, Retention};
use ys_simcore::Rng;

const CAP: usize = 4;
const PAGES: u64 = 12;
const MAX_BLADES: usize = 6;
const RETENTIONS: [Retention; 4] = [Retention::Low, Retention::Normal, Retention::High, Retention::Pinned];

#[derive(Clone, Copy, Debug)]
enum Op {
    Read { blade: usize, key: PageKey, retention: Retention },
    Write { blade: usize, key: PageKey, n_way: usize, retention: Retention },
    Destage { key: PageKey },
    AddReplica { key: PageKey },
    Invalidate { key: PageKey },
    Fail { blade: usize },
    Revive { blade: usize },
    FinishRejoin { blade: usize },
    Drain { blade: usize },
    AddBlade,
}

fn pick_op(rng: &mut Rng, c: &CacheCluster) -> Op {
    let blade = rng.next_below(c.blade_count() as u64) as usize;
    let key = PageKey::new(0, rng.next_below(PAGES));
    let retention = RETENTIONS[rng.next_below(4) as usize];
    match rng.next_below(20) {
        0..=5 => Op::Read { blade, key, retention },
        6..=11 => Op::Write { blade, key, n_way: 1 + rng.next_below(3) as usize, retention },
        12..=13 => {
            // Mostly a page that is dirty, so the destage does something.
            let dirty: Vec<PageKey> = (0..c.blade_count()).flat_map(|b| c.dirty_pages(b)).collect();
            Op::Destage { key: if dirty.is_empty() { key } else { *rng.choose(&dirty) } }
        }
        14 => {
            let queue = c.under_target_pages();
            Op::AddReplica { key: if queue.is_empty() { key } else { rng.choose(&queue).0 } }
        }
        15 => Op::Invalidate { key },
        16 => Op::Fail { blade },
        17 => match c.blade_state(blade) {
            BladeState::Down => Op::Revive { blade },
            _ => Op::FinishRejoin { blade },
        },
        18 => Op::Drain { blade },
        _ if c.blade_count() < MAX_BLADES => Op::AddBlade,
        _ => Op::Revive { blade },
    }
}

/// Keys held at `blade` by the old definition: a residency scan.
fn held_scan(c: &CacheCluster, blade: usize) -> BTreeSet<PageKey> {
    c.resident_pages(blade).iter().filter(|p| p.dirty || p.replica).map(|p| p.key).collect()
}

/// The order the veto walk would evict `blade`'s pages in: per band from
/// `Low` up (never `Pinned`), least recent first, clean pages only.
fn victims(c: &CacheCluster, blade: usize) -> Vec<PageKey> {
    let held = held_scan(c, blade);
    [Retention::Low, Retention::Normal, Retention::High]
        .iter()
        .flat_map(|&band| c.lru_order(blade, band).into_iter().rev())
        .filter(|k| !held.contains(k))
        .collect()
}

/// `health()` as it was computed before the heal queue existed.
fn health_scan(c: &CacheCluster) -> Health {
    let states: Vec<BladeState> = (0..c.blade_count()).map(|b| c.blade_state(b)).collect();
    let accepting = states.iter().filter(|s| matches!(s, BladeState::Up | BladeState::Rejoining)).count();
    if accepting < 2 {
        return Health::ReadOnly;
    }
    let mut degraded = states.iter().any(|s| matches!(s, BladeState::Draining | BladeState::Rejoining));
    for (_, e) in c.directory().iter() {
        if e.owner.is_some() && e.protect > 1 + e.replicas.len() {
            if e.replicas.is_empty() {
                return Health::Critical;
            }
            degraded = true;
        }
    }
    if degraded {
        Health::Degraded
    } else {
        Health::Healthy
    }
}

/// Every indexed answer against its scan definition.
fn check_indices(c: &CacheCluster) -> Result<(), String> {
    let audit: Vec<String> = c.audit_invariants().iter().map(|v| v.to_string()).collect();
    if !audit.is_empty() {
        return Err(format!("audit: {}", audit.join("; ")));
    }
    let mut undestaged = 0;
    let mut capacity = 0;
    for b in 0..c.blade_count() {
        let resident: BTreeSet<PageKey> = c.resident_pages(b).iter().map(|p| p.key).collect();
        let held = held_scan(c, b);
        // The bands list exactly the clean pages, so the held list is
        // exactly the scan's complement: per-blade held count ≡ scan.
        let banded: Vec<PageKey> = RETENTIONS.iter().flat_map(|&r| c.lru_order(b, r)).collect();
        let banded_set: BTreeSet<PageKey> = banded.iter().copied().collect();
        let clean: BTreeSet<PageKey> = resident.difference(&held).copied().collect();
        if banded.len() != banded_set.len() || banded_set != clean {
            return Err(format!("blade {b}: bands list {banded:?}, clean pages are {clean:?}"));
        }
        // `dirty_pages` reads the held list; its definition is the
        // page-table scan: same keys, same (key) order.
        let dirty: Vec<PageKey> = c.resident_pages_iter(b).filter(|p| p.dirty).map(|p| p.key).collect();
        if c.dirty_pages(b) != dirty {
            return Err(format!("blade {b}: dirty_pages {:?}, the page-table scan says {dirty:?}", c.dirty_pages(b)));
        }
        if c.blade_up(b) {
            undestaged += held.len();
            capacity += c.capacity_pages(b);
        }
    }
    let ratio = if capacity == 0 { 0.0 } else { undestaged as f64 / capacity as f64 };
    if c.dirty_ratio() != ratio {
        return Err(format!("dirty_ratio {} but the scan says {ratio}", c.dirty_ratio()));
    }
    let queue: Vec<(PageKey, usize)> = c
        .directory()
        .iter()
        .filter(|(_, e)| e.owner.is_some() && e.protect > 1 + e.replicas.len())
        .map(|(k, e)| (*k, e.protect - 1 - e.replicas.len()))
        .collect();
    if c.under_target_pages() != queue || c.under_target_iter().len() != queue.len() {
        return Err(format!("heal queue {:?} but the directory scan says {queue:?}", c.under_target_pages()));
    }
    if c.health() != health_scan(c) {
        return Err(format!("health {} but the scan says {}", c.health(), health_scan(c)));
    }
    Ok(())
}

/// Everything the public views show about one page: its directory entry
/// (sharers, owner, replicas, version, target), its heal-queue count, and
/// per blade its resident copy and the retention band listing it.
type Fingerprint =
    (Option<(Vec<usize>, Option<usize>, Vec<usize>, u64, usize)>, Option<usize>, Vec<(Option<ResidentPage>, Option<Retention>)>);

fn fingerprint(c: &CacheCluster, key: PageKey) -> Fingerprint {
    let entry = c.directory().get(&key).map(|e| (e.sharers.clone(), e.owner, e.replicas.clone(), e.version, e.protect));
    let queued = c.under_target_iter().find(|&(k, _)| k == key).map(|(_, missing)| missing);
    let blades = (0..c.blade_count())
        .map(|b| {
            let resident = c.resident_pages_iter(b).find(|p| p.key == key);
            let band = RETENTIONS.iter().copied().find(|&r| c.lru_order_iter(b, r).any(|&k| k == key));
            (resident, band)
        })
        .collect();
    (entry, queued, blades)
}

fn fingerprints(c: &CacheCluster) -> Vec<Fingerprint> {
    (0..PAGES).map(|p| fingerprint(c, PageKey::new(0, p))).collect()
}

/// The change journal (`None` = closed), read off the cluster's `Debug`
/// view: it is bookkeeping with no accessor, and this test is its only
/// reader outside the crate.
fn journal(c: &CacheCluster) -> Option<BTreeSet<PageKey>> {
    let view = format!("{c:?}");
    let (_, rest) = view.split_once("journal: ").expect("the Debug view names the journal");
    let (list, _) = rest.strip_prefix("Some([")?.split_once(']').expect("a list of keys");
    let number = |key: &str, field: &str| -> u64 {
        let (_, value) = key.split_once(field).expect("a PageKey's Debug view");
        value.split(|ch: char| !ch.is_ascii_digit()).next().and_then(|d| d.parse().ok()).expect("a number")
    };
    Some(list.split("PageKey").skip(1).map(|k| PageKey::new(number(k, "volume: ") as u32, number(k, "page: "))).collect())
}

/// The checkpoint differential, after an operation that began from a clean
/// checkpoint with the pages looking like `before`: (a) no page changed
/// behind the journal's back, (b) checkpoint verdict ≡ full verdict.
fn check_checkpoint(c: &mut CacheCluster, before: &[Fingerprint]) -> Result<(), String> {
    if let Some(journal) = journal(c) {
        for (page, (was, now)) in before.iter().zip(fingerprints(c)).enumerate() {
            let key = PageKey::new(0, page as u64);
            if *was != now && !journal.contains(&key) {
                return Err(format!("unjournalled change to {key:?}: {was:?} became {now:?}; journal {journal:?}"));
            }
        }
    }
    let full = c.audit_invariants();
    let checkpoint = c.audit_checkpoint();
    if checkpoint != full {
        return Err(format!("checkpoint audit says {checkpoint:?}, the full audit says {full:?}"));
    }
    Ok(())
}

/// What the public views showed before an operation.
struct Before {
    resident: Vec<BTreeSet<PageKey>>,
    victims: Vec<Vec<PageKey>>,
    evictions: Vec<u64>,
}

fn snapshot(c: &CacheCluster) -> Before {
    let blades = 0..c.blade_count();
    Before {
        resident: blades.clone().map(|b| c.resident_pages(b).iter().map(|p| p.key).collect()).collect(),
        victims: blades.clone().map(|b| victims(c, b)).collect(),
        evictions: blades.map(|b| c.stats().per_blade[b].evictions).collect(),
    }
}

/// Every page a blade lost to eviction during `op` was the scan's victim.
/// `key` is the page `op` names (it may leave a blade by invalidation or
/// unpinning, which is not eviction); `emptied` is the blade `op` failed
/// or drained.
fn check_evictions(c: &CacheCluster, before: &Before, key: Option<PageKey>, emptied: Option<usize>) -> Result<(), String> {
    for b in (0..before.resident.len()).filter(|&b| Some(b) != emptied) {
        let now: BTreeSet<PageKey> = c.resident_pages(b).iter().map(|p| p.key).collect();
        let held = held_scan(c, b);
        let evicted: BTreeSet<PageKey> =
            before.resident[b].difference(&now).copied().filter(|&k| Some(k) != key).collect();
        let count = (c.stats().per_blade[b].evictions - before.evictions[b]) as usize;
        // A page that turned dirty in place left the eviction order without
        // leaving the blade.
        let expected: BTreeSet<PageKey> = before.victims[b]
            .iter()
            .copied()
            .filter(|&k| Some(k) != key && !held.contains(&k))
            .take(count)
            .collect();
        if evicted != expected {
            return Err(format!(
                "blade {b}: {count} eviction(s) took {evicted:?}, the scan's victims were {expected:?} of {:?}",
                before.victims[b]
            ));
        }
    }
    Ok(())
}

/// `EvictionStall(blade)` iff the requesting blade is full of pages that are
/// dirty, replicas or pinned, and does not already hold `key`.
fn check_stall<T>(
    c: &CacheCluster,
    before: &Before,
    blade: usize,
    key: PageKey,
    result: &Result<T, CacheError>,
) -> Result<(), String> {
    let must_stall = before.resident[blade].len() >= c.capacity_pages(blade)
        && !before.resident[blade].contains(&key)
        && before.victims[blade].is_empty();
    let stalled = matches!(result, Err(CacheError::EvictionStall(b)) if *b == blade);
    if let Err(CacheError::EvictionStall(b)) = result {
        if *b != blade {
            return Err(format!("a peer's stall (blade {b}) surfaced to the requester"));
        }
    }
    if stalled != must_stall {
        return Err(format!(
            "blade {blade}: stalled = {stalled}, but full-of-unevictable = {must_stall} (victims {:?})",
            before.victims[blade]
        ));
    }
    Ok(())
}

fn apply(c: &mut CacheCluster, op: Op) -> Result<(), String> {
    let unclean = c.audit_checkpoint();
    if !unclean.is_empty() {
        return Err(format!("checkpoint before the operation: {unclean:?}"));
    }
    let pages_before = fingerprints(c);
    let before = snapshot(c);
    let (key, emptied) = match op {
        Op::Read { blade, key, retention } => {
            if c.blade_up(blade) && !c.is_lost(key) {
                let result = match c.read(blade, key) {
                    Ok(ReadOutcome::Miss) => c.fill(blade, key, retention).map(|_| ()),
                    other => other.map(|_| ()),
                };
                check_stall(c, &before, blade, key, &result)?;
            }
            (Some(key), None)
        }
        Op::Write { blade, key, n_way, retention } => {
            if c.blade_up(blade) {
                let result = c.write(blade, key, n_way, retention);
                check_stall(c, &before, blade, key, &result)?;
            }
            (Some(key), None)
        }
        Op::Destage { key } => {
            let _ = c.destage(key);
            (Some(key), None)
        }
        Op::AddReplica { key } => {
            let _ = c.add_replica(key);
            (Some(key), None)
        }
        Op::Invalidate { key } => {
            c.invalidate_page(key);
            (Some(key), None)
        }
        Op::Fail { blade } => {
            // Losing an under-replicated write is legal; these tests are
            // about the bookkeeping, so the tombstone is accepted at once.
            for key in c.fail_blade(blade).lost {
                c.acknowledge_loss(key);
            }
            (None, Some(blade))
        }
        Op::Revive { blade } => {
            let _ = c.revive_blade(blade);
            (None, None)
        }
        Op::FinishRejoin { blade } => {
            c.finish_rejoin(blade);
            (None, None)
        }
        Op::Drain { blade } => {
            let _ = c.drain_blade(blade);
            (None, Some(blade))
        }
        Op::AddBlade => {
            c.add_blade(CAP);
            (None, None)
        }
    };
    check_evictions(c, &before, key, emptied)?;
    check_checkpoint(c, &pages_before)?;
    check_indices(c)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn indices_equal_their_scans_and_evictions_take_the_scan_victim(seed in 0u64..1000) {
        let mut rng = Rng::new(seed ^ 0x001d_1ce5);
        let mut c = CacheCluster::new(4, CAP);
        for step in 0..120 {
            let op = pick_op(&mut rng, &c);
            let checked = apply(&mut c, op);
            prop_assert!(checked.is_ok(), "seed {seed} step {step} {op:?}: {}", checked.unwrap_err());
        }
    }
}

/// The sequence hold → release → evict, spelled out: a destaged page is the
/// most recent of its band, so older clean pages go first.
#[test]
fn destaged_page_rejoins_its_band_at_the_front() {
    let key = |p| PageKey::new(0, p);
    let mut c = CacheCluster::new(2, 3);
    c.write(0, key(1), 1, Retention::Normal).unwrap();
    c.fill(0, key(2), Retention::Normal).unwrap();
    c.fill(0, key(3), Retention::Normal).unwrap();
    assert_eq!(c.lru_order(0, Retention::Normal), vec![key(3), key(2)], "the dirty page is in no band");
    c.destage(key(1)).unwrap();
    assert_eq!(c.lru_order(0, Retention::Normal), vec![key(1), key(3), key(2)]);
    assert_eq!(c.fill(0, key(4), Retention::Normal).unwrap(), Some(key(2)));
    assert_eq!(c.audit_invariants(), vec![]);
}
