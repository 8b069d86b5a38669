//! Property tests for the virtualization layer: extent-map algebra and
//! pool accounting under arbitrary operation sequences.

use proptest::prelude::*;
use ys_virt::{ExtentMap, PhysicalPool, Run, Segment, VolumeKind, VolumeManager};

/// The run of `m` holding virtual extent `v`, found by a scan.
fn run_at(m: &ExtentMap, v: u64) -> Option<Run> {
    m.runs().find(|r| r.vstart <= v && v < r.vend())
}

/// `ExtentMap::segments` as the loop that pushes onto a `Vec`, written
/// against a scan of the map's runs — the borrowing form's reference.
fn segments_by_lookup(m: &ExtentMap, vstart: u64, len: u64) -> Vec<Segment> {
    let mut out = Vec::new();
    let mut pos = vstart;
    let end = vstart + len;
    while pos < end {
        let (seg, len) = match run_at(m, pos) {
            Some(run) => {
                let len = (run.vend() - pos).min(end - pos);
                (Segment::Mapped { vstart: pos, pstart: run.pstart + (pos - run.vstart), len }, len)
            }
            None => {
                let next = m.runs().map(|r| r.vstart).find(|&v| v >= pos).unwrap_or(end).min(end);
                (Segment::Hole { vstart: pos, len: next - pos }, next - pos)
            }
        };
        pos += len;
        out.push(seg);
    }
    out
}

proptest! {
    /// Mapping then unmapping arbitrary disjoint ranges always round-trips:
    /// the map ends empty and every physical extent is released exactly once.
    #[test]
    fn extent_map_roundtrip(ranges in proptest::collection::vec((0u64..1000, 1u64..50), 1..40)) {
        let mut m = ExtentMap::new();
        let mut next_phys = 0u64;
        let mut mapped: Vec<(u64, u64)> = Vec::new();
        for (start, len) in ranges {
            // Only map the holes within the requested range.
            let holes: Vec<(u64, u64)> = m
                .segments(start, len)
                .iter()
                .filter(|s| !matches!(s, Segment::Mapped { .. }))
                .map(|s| match *s {
                    ys_virt::Segment::Hole { vstart, len } => (vstart, len),
                    _ => unreachable!(),
                })
                .collect();
            for (hs, hl) in holes {
                m.map(hs, next_phys, hl);
                mapped.push((hs, hl));
                next_phys += hl;
            }
            m.check().map_err(TestCaseError::fail)?;
        }
        let total_mapped: u64 = m.mapped_extents();
        let released: u64 = m.unmap(0, 2000).iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(released, total_mapped);
        prop_assert_eq!(m.mapped_extents(), 0);
        m.check().map_err(TestCaseError::fail)?;
    }

    /// The borrowing `segments_iter` — whole, and stopped early — and the
    /// `Vec` form that wraps it both equal the push-onto-a-Vec loop, after
    /// every step of a random write/unmap history of a volume (recycled
    /// extents keep its runs from coalescing); and the volume's
    /// `read_iter` is its `read`, refusals included.
    /// (Hand mutation: advance `pos` by `seg.len().max(2)` in `segments_iter`.)
    #[test]
    fn borrowed_segments_match_the_vec_form(
        ops in proptest::collection::vec((any::<bool>(), 0u64..240, 1u64..30, 0u64..260, 0u64..60), 1..60),
    ) {
        let mut mgr = VolumeManager::new(PhysicalPool::new(4096, 1 << 20));
        let vol = mgr.create("v", 0, VolumeKind::DemandMapped, 280).unwrap();
        for (is_unmap, start, len, qstart, qlen) in ops {
            if is_unmap {
                mgr.unmap(vol, start, len).unwrap();
            } else {
                mgr.write(vol, start, len).unwrap();
            }
            let map = &mgr.volume(vol).unwrap().map;
            let want = segments_by_lookup(map, qstart, qlen);
            prop_assert_eq!(&map.segments_iter(qstart, qlen).collect::<Vec<_>>(), &want);
            prop_assert_eq!(&map.segments(qstart, qlen), &want);
            prop_assert_eq!(map.segments_iter(qstart, qlen).take(2).collect::<Vec<_>>(), want.iter().take(2).copied().collect::<Vec<_>>());
            // Queries that end past extent 280 are out of the volume's range.
            match (mgr.read(vol, qstart, qlen), mgr.read_iter(vol, qstart, qlen)) {
                (Ok(vec), Ok(iter)) => {
                    prop_assert_eq!(&vec, &want);
                    prop_assert_eq!(iter.collect::<Vec<_>>(), vec);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "read {:?} but read_iter {:?}", a, b.map(|i| i.collect::<Vec<_>>())),
            }
        }
    }

    /// Interleaved random map/unmap against a shadow model: after every
    /// operation the map stays internally consistent (`check()`), and its
    /// runs agree extent-for-extent with a naive per-extent map —
    /// mapped addresses round-trip to the exact physical extent they were
    /// given, unmapped addresses stay `None`.
    #[test]
    fn extent_map_random_map_unmap_matches_shadow(
        ops in proptest::collection::vec((any::<bool>(), 0u64..240, 1u64..30), 1..60),
    ) {
        let mut m = ExtentMap::new();
        let mut shadow = std::collections::HashMap::new();
        let mut next_phys = 0u64;
        for (is_unmap, start, len) in ops {
            if is_unmap {
                let released = m.unmap(start, len);
                // Every released physical run was live in the shadow.
                let mut freed = 0u64;
                for (p, l) in released {
                    freed += l;
                    for i in 0..l {
                        prop_assert!(shadow.values().any(|&pv| pv == p + i));
                    }
                }
                let live_before = shadow.len() as u64;
                shadow.retain(|&v, _| !(start..start + len).contains(&v));
                prop_assert_eq!(live_before - shadow.len() as u64, freed);
            } else {
                // Map only the holes, like real callers do.
                let holes: Vec<(u64, u64)> = m.segments(start, len).iter()
                    .filter(|s| !matches!(s, Segment::Mapped { .. }))
                    .map(|s| match *s { ys_virt::Segment::Hole { vstart, len } => (vstart, len), _ => unreachable!() })
                    .collect();
                for (hs, hl) in holes {
                    m.map(hs, next_phys, hl);
                    for i in 0..hl {
                        shadow.insert(hs + i, next_phys + i);
                    }
                    next_phys += hl;
                }
            }
            m.check().map_err(TestCaseError::fail)?;
            prop_assert_eq!(m.mapped_extents(), shadow.len() as u64);
            for v in 0..300u64 {
                let translated = run_at(&m, v).map(|r| r.pstart + (v - r.vstart));
                prop_assert_eq!(translated, shadow.get(&v).copied(), "extent {}", v);
            }
        }
    }

    /// Pool invariant: used + free == total after any alloc/release mix,
    /// and the manager's physical usage equals the sum of all mappings.
    #[test]
    fn pool_accounting_balances(
        ops in proptest::collection::vec((0u8..4, 0u64..50, 1u64..20), 1..60),
    ) {
        let mut m = VolumeManager::new(PhysicalPool::new(4096, 1 << 20));
        let vol = m.create("p", 0, VolumeKind::DemandMapped, 2000).unwrap();
        let mut snaps = Vec::new();
        for (kind, off, len) in ops {
            let off = off.min(2000 - len);
            match kind {
                0 | 1 => { let _ = m.write(vol, off, len); }
                2 => { let _ = m.unmap(vol, off, len); }
                _ => {
                    if snaps.len() < 4 {
                        snaps.push(m.snapshot(vol).unwrap());
                    } else if let Some(s) = snaps.pop() {
                        let _ = m.delete_snapshot(vol, s);
                    }
                }
            }
            m.check().map_err(TestCaseError::fail)?;
        }
        // Cleanup returns every extent.
        for s in snaps {
            m.delete_snapshot(vol, s).unwrap();
        }
        m.delete(vol).unwrap();
        prop_assert_eq!(m.pool().used_extents(), 0);
        m.check().map_err(TestCaseError::fail)?;
    }

    /// DMSD physical consumption equals exactly the set of extents ever
    /// written and not since unmapped.
    #[test]
    fn dmsd_usage_matches_written_set(writes in proptest::collection::vec((0u64..100, 1u64..10, any::<bool>()), 1..40)) {
        let mut m = VolumeManager::new(PhysicalPool::new(1024, 1 << 20));
        let vol = m.create("d", 0, VolumeKind::DemandMapped, 128).unwrap();
        let mut live = std::collections::HashSet::new();
        for (off, len, is_unmap) in writes {
            let off = off.min(128 - len);
            if is_unmap {
                m.unmap(vol, off, len).unwrap();
                for e in off..off + len {
                    live.remove(&e);
                }
            } else {
                m.write(vol, off, len).unwrap();
                for e in off..off + len {
                    live.insert(e);
                }
            }
            prop_assert_eq!(m.pool().used_extents(), live.len() as u64);
        }
    }
}

/// The eager pool — a refcount and a free-list entry for every extent the
/// pool could ever hand out, free list seeded in reverse — kept as the
/// specification `PhysicalPool` is held to: same runs, same counts, same
/// reclaim order, whatever the pool does inside to avoid materialising
/// extents nobody has touched.
struct EagerPool {
    refs: Vec<u32>,
    free: Vec<u64>,
    used: u64,
    reclaimed: Vec<u64>,
}

impl EagerPool {
    fn new(total: u64) -> EagerPool {
        EagerPool { refs: vec![0; total as usize], free: (0..total).rev().collect(), used: 0, reclaimed: Vec::new() }
    }

    fn allocate(&mut self, count: u64) -> Result<Vec<(u64, u64)>, ys_virt::OutOfSpace> {
        let available = self.free.len() as u64;
        if count > available {
            return Err(ys_virt::OutOfSpace { requested: count, available });
        }
        let mut picked = self.free.split_off((available - count) as usize);
        picked.sort_unstable();
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for e in picked {
            self.refs[e as usize] = 1;
            match runs.last_mut() {
                Some((start, len)) if *start + *len == e => *len += 1,
                _ => runs.push((e, 1)),
            }
        }
        self.used += count;
        Ok(runs)
    }

    fn add_ref(&mut self, start: u64, len: u64) {
        for e in start..start + len {
            assert!(self.refs[e as usize] > 0);
            self.refs[e as usize] += 1;
        }
    }

    fn release(&mut self, start: u64, len: u64) -> u64 {
        let before = self.used;
        for e in start..start + len {
            assert!(self.refs[e as usize] > 0);
            self.refs[e as usize] -= 1;
            if self.refs[e as usize] == 0 {
                self.free.push(e);
                self.reclaimed.push(e);
                self.used -= 1;
            }
        }
        before - self.used
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `PhysicalPool` ≡ the eager pool under random allocate / add_ref /
    /// release / take_reclaimed, including exhaustion, release-then-
    /// reallocate and partial releases of shared runs. `held` is the
    /// test's own ledger of references it may still drop, so every
    /// `add_ref` / `release` it issues is legal.
    #[test]
    fn pool_matches_the_eager_reference(
        total in 1u64..65,
        ops in proptest::collection::vec((0u8..8, any::<u64>(), any::<u64>()), 1..80),
    ) {
        let mut pool = PhysicalPool::new(total, 1 << 20);
        let mut model = EagerPool::new(total);
        let mut held: Vec<(u64, u64)> = Vec::new();
        for (step, (kind, a, b)) in ops.into_iter().enumerate() {
            // A sub-range of one held reference: (index, start, len).
            let pick = |held: &[(u64, u64)]| {
                let i = (a % held.len() as u64) as usize;
                let (start, len) = held[i];
                let off = b % len;
                (i, start + off, 1 + (b >> 8) % (len - off))
            };
            match kind {
                // Up to two past the pool, so exhaustion is hit from both
                // a fresh and a recycled pool.
                0..=2 => {
                    let got = pool.allocate(a % (total + 3));
                    prop_assert_eq!(&got, &model.allocate(a % (total + 3)), "step {}: allocate", step);
                    held.extend(got.unwrap_or_default());
                }
                3 if !held.is_empty() => {
                    let (_, start, len) = pick(&held);
                    pool.add_ref(start, len);
                    model.add_ref(start, len);
                    held.push((start, len));
                }
                4..=6 if !held.is_empty() => {
                    let (i, start, len) = pick(&held);
                    prop_assert_eq!(pool.release(start, len), model.release(start, len), "step {}: release", step);
                    let (h_start, h_len) = held.swap_remove(i);
                    if start > h_start {
                        held.push((h_start, start - h_start));
                    }
                    if start + len < h_start + h_len {
                        held.push((start + len, h_start + h_len - (start + len)));
                    }
                }
                _ => {
                    prop_assert_eq!(pool.take_reclaimed(), std::mem::take(&mut model.reclaimed), "step {}: reclaimed", step);
                }
            }
            prop_assert_eq!(pool.total_extents(), total);
            prop_assert_eq!(pool.free_extents(), model.free.len() as u64, "step {}: free", step);
            prop_assert_eq!(pool.used_extents(), model.used, "step {}: used", step);
            for e in 0..total {
                prop_assert_eq!(pool.refcount(e), model.refs[e as usize], "step {}: refcount({})", step, e);
            }
            pool.check().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(pool.take_reclaimed(), model.reclaimed);
    }
}
