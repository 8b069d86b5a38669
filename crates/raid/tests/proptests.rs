//! Property-based tests: parity reconstruction and stripe-geometry
//! invariants under arbitrary configurations.

use proptest::prelude::*;
use ys_raid::{gf256, layout::Geometry, parity, read_plan, read_plan_into, write_plan, write_plan_into, IoPlan, RaidLevel};

fn chunk_data(seed: u64, n: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = ys_simcore::Rng::new(seed);
    (0..n).map(|_| (0..len).map(|_| rng.next_u64() as u8).collect()).collect()
}

fn refs(c: &[Vec<u8>]) -> Vec<&[u8]> {
    c.iter().map(|v| v.as_slice()).collect()
}

const LEVELS: [RaidLevel; 4] = [RaidLevel::Raid0, RaidLevel::Raid1 { copies: 2 }, RaidLevel::Raid5, RaidLevel::Raid6];

/// Closed-form `data_member` against its definition: walk the members,
/// skip the row's parity, stop at the `chunk`-th data member.
#[test]
fn data_member_matches_the_skip_the_parity_walk() {
    // RAID1's data member is its mirror set's primary, not a parity skip.
    for level in [RaidLevel::Raid0, RaidLevel::Raid5, RaidLevel::Raid6] {
        for members in level.min_members().max(3)..=16 {
            let g = Geometry::new(level, members, 4096);
            for stripe in 0..4 * members as u64 {
                let parity = g.parity_members(stripe);
                let walk: Vec<usize> = (0..members).filter(|m| !parity.contains(m)).collect();
                assert_eq!(walk.len(), g.data_chunks());
                for (chunk, &member) in walk.iter().enumerate() {
                    assert_eq!(g.data_member(stripe, chunk), member, "{level:?} × {members}, stripe {stripe}, chunk {chunk}");
                }
            }
        }
    }
}

proptest! {
    /// Any two erased data chunks are recoverable from P+Q, for any stripe
    /// width and any data.
    #[test]
    fn raid6_double_erasure_recovers(
        seed in any::<u64>(),
        n in 3usize..12,
        len in 1usize..128,
        picks in any::<(u8, u8)>(),
    ) {
        let data = chunk_data(seed, n, len);
        let p = parity::compute_p(&refs(&data));
        let q = parity::compute_q(&refs(&data));
        let x = (picks.0 as usize) % n;
        let mut y = (picks.1 as usize) % n;
        if x == y { y = (y + 1) % n; }
        let (x, y) = (x.min(y), x.max(y));
        let present: Vec<(usize, &[u8])> = data.iter().enumerate()
            .filter(|(i, _)| *i != x && *i != y)
            .map(|(i, c)| (i, c.as_slice()))
            .collect();
        let (dx, dy) = parity::recover_two_data(&present, x, y, &p, &q);
        prop_assert_eq!(dx, data[x].clone());
        prop_assert_eq!(dy, data[y].clone());
    }

    /// Incremental P/Q updates equal full recomputation after any sequence
    /// of chunk overwrites.
    #[test]
    fn incremental_parity_matches_recompute(
        seed in any::<u64>(),
        n in 2usize..8,
        writes in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..10),
    ) {
        let len = 64usize;
        let mut data = chunk_data(seed, n, len);
        let mut p = parity::compute_p(&refs(&data));
        let mut q = parity::compute_q(&refs(&data));
        for (which, wseed) in writes {
            let idx = (which as usize) % n;
            let newc: Vec<u8> = {
                let mut r = ys_simcore::Rng::new(wseed);
                (0..len).map(|_| r.next_u64() as u8).collect()
            };
            parity::update_p(&mut p, &data[idx], &newc);
            parity::update_q(&mut q, idx, &data[idx], &newc);
            data[idx] = newc;
        }
        prop_assert_eq!(&p, &parity::compute_p(&refs(&data)));
        prop_assert_eq!(&q, &parity::compute_q(&refs(&data)));
    }

    /// GF(2⁸): every nonzero element's inverse round-trips and the field
    /// axioms hold pointwise.
    #[test]
    fn gf256_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
        prop_assert_eq!(gf256::mul(a, gf256::add(b, c)), gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
        }
    }

    /// Geometry: the logical address space maps injectively onto
    /// (member, offset) pairs and never lands on a parity member.
    #[test]
    fn layout_injective_and_avoids_parity(
        members in 4usize..10,
        level_pick in 0usize..3,
        addrs in proptest::collection::vec(0u64..10_000, 1..50),
    ) {
        let level = [RaidLevel::Raid0, RaidLevel::Raid5, RaidLevel::Raid6][level_pick];
        let chunk = 4096u64;
        let g = Geometry::new(level, members, chunk);
        let mut seen = std::collections::HashSet::new();
        for &a in &addrs {
            let logical = a * chunk;
            let p = g.locate(logical);
            prop_assert!(p.member < members);
            prop_assert!(seen.insert((p.member, p.offset)) || addrs.iter().filter(|&&x| x == a).count() > 1);
            prop_assert!(!g.parity_members(p.stripe).contains(&p.member));
        }
    }

    /// Plans never touch failed members (when planning succeeds) and
    /// degraded plans exist whenever failures ≤ tolerance.
    #[test]
    fn plans_respect_failures(
        members in 4usize..8,
        fail_mask in any::<u8>(),
        offset_chunks in 0u64..100,
        len in 1u64..200_000,
    ) {
        let g = Geometry::new(RaidLevel::Raid6, members, 64 * 1024);
        let failed: Vec<bool> = (0..members).map(|i| fail_mask & (1 << i) != 0).collect();
        let nfail = failed.iter().filter(|&&f| f).count();
        let offset = offset_chunks * 64 * 1024;
        let r = read_plan(&g, offset, len, &failed);
        let w = write_plan(&g, offset, len, &failed);
        if nfail <= 2 {
            let r = r.unwrap();
            let w = w.unwrap();
            for io in r.reads.iter().chain(&w.reads).chain(&w.writes) {
                prop_assert!(!failed[io.member]);
            }
        } else {
            prop_assert!(r.is_err());
            prop_assert!(w.is_err());
        }
    }

    /// split_range pieces tile the requested range exactly.
    #[test]
    fn split_range_tiles(offset in 0u64..1_000_000, len in 1u64..1_000_000) {
        let g = Geometry::new(RaidLevel::Raid0, 4, 64 * 1024);
        let pieces = g.split_range(offset, len);
        let mut pos = offset;
        for (o, l) in pieces {
            prop_assert_eq!(o, pos);
            prop_assert!(l > 0);
            pos += l;
        }
        prop_assert_eq!(pos, offset + len);
    }

    /// The iterator `split_range` yields the pieces the chunk-by-chunk
    /// loop pushes.
    #[test]
    fn split_range_matches_the_loop(chunk_log in 12u32..17, offset in 0u64..1_000_000, len in 0u64..1_000_000) {
        let g = Geometry::new(RaidLevel::Raid0, 4, 1 << chunk_log);
        let mut pieces = Vec::new();
        let mut pos = offset;
        while pos < offset + len {
            let take = (g.chunk_size - pos % g.chunk_size).min(offset + len - pos);
            pieces.push((pos, take));
            pos += take;
        }
        prop_assert_eq!(g.split_range(offset, len).collect::<Vec<_>>(), pieces);
    }

    /// One `IoPlan` reused, never emptied by the caller, across a sequence
    /// of reads and writes over changing geometries and failed masks —
    /// planning failures in between included — holds what a fresh
    /// `read_plan` / `write_plan` returns, call by call.
    /// (Hand mutation: drop `plan.clear()` from either `*_plan_into`.)
    #[test]
    fn a_reused_plan_is_the_fresh_plan(
        calls in proptest::collection::vec(
            ((0usize..4, 4usize..9), (0usize..16, 0usize..16, 0usize..16), (any::<bool>(), 0u64..4_000_000, 1u64..600_000)),
            1..24,
        ),
    ) {
        let mut reused = IoPlan::default();
        for ((level, members), picks, (write, offset, len)) in calls {
            let g = Geometry::new(LEVELS[level], members, 64 * 1024);
            // Each pick below `members` fails that member: none to three.
            let mut failed = vec![false; members];
            for pick in [picks.0, picks.1, picks.2] {
                if pick < members {
                    failed[pick] = true;
                }
            }
            let (fresh, into) = if write {
                (write_plan(&g, offset, len, &failed), write_plan_into(&g, offset, len, &failed, &mut reused))
            } else {
                (read_plan(&g, offset, len, &failed), read_plan_into(&g, offset, len, &failed, &mut reused))
            };
            match (fresh, into) {
                (Ok(fresh), Ok(())) => prop_assert_eq!(&fresh, &reused),
                (Err(fresh), Err(into)) => prop_assert_eq!(fresh, into),
                (fresh, into) => prop_assert!(false, "fresh {:?} but reused {:?}", fresh, into),
            }
        }
    }

    /// A page's tag slot — `locate` of its first mapped byte — is the
    /// first read of the *healthy* read plan, at every level, for
    /// misaligned starts and sub-chunk and multi-chunk lengths; and it is
    /// not where the plan starts once the slot's own member has failed.
    /// (Hand mutation: take `first` from the plan against `failed`.)
    #[test]
    fn tag_slot_is_the_first_read_of_the_healthy_plan(
        level in 0usize..4,
        members in 4usize..9,
        phys in 0u64..50_000_000,
        len in 1u64..300_000,
    ) {
        let g = Geometry::new(LEVELS[level], members, 64 * 1024);
        let healthy = vec![false; members];
        let slot = g.locate(phys);
        let first = read_plan(&g, phys, len, &healthy).unwrap().reads[0];
        prop_assert_eq!((slot.member, slot.offset), (first.member, first.offset));
        if g.level.fault_tolerance() > 0 {
            let mut failed = healthy;
            failed[slot.member] = true;
            let degraded = read_plan(&g, phys, len, &failed).unwrap().reads[0];
            prop_assert_ne!(degraded.member, slot.member, "a degraded plan opens on a surviving peer");
        }
    }
}
