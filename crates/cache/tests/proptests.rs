//! Property tests: the coherence invariants hold under arbitrary operation
//! sequences, dirty data survives any N−1 blade failures, and a cluster
//! refilled with `clone_from` is indistinguishable from a fresh clone.

use proptest::prelude::*;
use ys_cache::{
    BladeState, CacheCluster, Health, PageKey, ReadOutcome, ResidentPage, Retention, Violation,
};

#[derive(Clone, Copy, Debug)]
enum Op {
    Read { blade: u8, page: u8 },
    Write { blade: u8, page: u8, n_way: u8 },
    Destage { page: u8 },
    Fail { blade: u8 },
    Repair { blade: u8 },
    /// `Fail` without acknowledging what it lost: the tombstones stay.
    Crash { blade: u8 },
    Invalidate { page: u8 },
    Revive { blade: u8 },
    Drain { blade: u8 },
    /// One healer pass over the under-target pages.
    Heal,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(blade, page)| Op::Read { blade, page }),
        (any::<u8>(), any::<u8>(), 1u8..4).prop_map(|(blade, page, n_way)| Op::Write { blade, page, n_way }),
        any::<u8>().prop_map(|page| Op::Destage { page }),
        any::<u8>().prop_map(|blade| Op::Fail { blade }),
        any::<u8>().prop_map(|blade| Op::Repair { blade }),
    ]
}

/// [`op_strategy`] (half the draws) plus the lifecycle and heal
/// transitions, and crashes whose losses stay unacknowledged.
fn any_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        any::<u8>().prop_map(|blade| Op::Crash { blade }),
        any::<u8>().prop_map(|page| Op::Invalidate { page }),
        any::<u8>().prop_map(|blade| Op::Revive { blade }),
        any::<u8>().prop_map(|blade| Op::Drain { blade }),
        Just(Op::Heal),
    ]
}

/// Apply `op` to `c`, wrapping blade and page numbers into its scope, and
/// return what the cluster answered.
fn apply(c: &mut CacheCluster, op: Op) -> String {
    let blades = c.blade_count();
    let blade = |b: u8| b as usize % blades;
    let key = |page: u8| PageKey::new(0, (page % 32) as u64);
    match op {
        Op::Read { blade: b, page } => {
            let out = c.read(blade(b), key(page));
            if let Ok(ReadOutcome::Miss) = out {
                return format!("{out:?} {:?}", c.fill(blade(b), key(page), Retention::Normal));
            }
            format!("{out:?}")
        }
        Op::Write { blade: b, page, n_way } => format!("{:?}", c.write(blade(b), key(page), n_way as usize, Retention::Normal)),
        Op::Destage { page } => format!("{:?}", c.destage(key(page))),
        Op::Fail { blade: b } => {
            // Losses are legal for under-replicated writes; the audit flags
            // them until acknowledged, so acknowledge here — the properties
            // are about protocol bookkeeping, not the durability budget.
            let report = c.fail_blade(blade(b));
            for &key in &report.lost {
                c.acknowledge_loss(key);
            }
            format!("{report:?}")
        }
        Op::Crash { blade: b } => format!("{:?}", c.fail_blade(blade(b))),
        Op::Repair { blade: b } => {
            c.repair_blade(blade(b));
            String::new()
        }
        Op::Invalidate { page } => {
            c.invalidate_page(key(page));
            String::new()
        }
        Op::Revive { blade: b } => format!("{:?}", c.revive_blade(blade(b))),
        Op::Drain { blade: b } => format!("{:?}", c.drain_blade(blade(b))),
        Op::Heal => {
            let placed: Vec<_> = c.under_target_pages().into_iter().map(|(key, _)| c.add_replica(key)).collect();
            format!("{placed:?}")
        }
    }
}

/// One directory entry, key first, every field comparable.
type EntryView = (PageKey, Vec<usize>, Option<usize>, Vec<usize>, u64, usize);

/// One blade as the public walks show it: its state, resident pages in
/// key order, each retention band's recency order, and its dirty pages.
type BladeView = (BladeState, Vec<ResidentPage>, Vec<Vec<PageKey>>, Vec<PageKey>);

/// Everything a cluster shows through its public walks and reports, with
/// no `Debug` of the cluster itself: its index maps may be laid out
/// differently in two clusters that hold the same state.
#[derive(Debug, PartialEq)]
struct View {
    directory: Vec<EntryView>,
    shard_lookups: Vec<u64>,
    blades: Vec<BladeView>,
    under_target: Vec<(PageKey, usize)>,
    lost: Vec<(PageKey, u64)>,
    health: Health,
    pooled_capacity: usize,
    dirty_ratio_bits: u64,
    stats: String,
    audit: Vec<Violation>,
}

fn view(c: &CacheCluster) -> View {
    let bands = [Retention::Low, Retention::Normal, Retention::High, Retention::Pinned];
    View {
        directory: c
            .directory()
            .iter()
            .map(|(&k, e)| (k, e.sharers.clone(), e.owner, e.replicas.clone(), e.version, e.protect))
            .collect(),
        shard_lookups: c.directory().shard_lookups().to_vec(),
        blades: (0..c.blade_count())
            .map(|b| {
                let order = bands.iter().map(|&band| c.lru_order_iter(b, band).copied().collect()).collect();
                (c.blade_state(b), c.resident_pages_iter(b).collect(), order, c.dirty_pages(b))
            })
            .collect(),
        under_target: c.under_target_pages(),
        lost: c.lost_pages(),
        health: c.health(),
        pooled_capacity: c.pooled_capacity(),
        dirty_ratio_bits: c.dirty_ratio().to_bits(),
        // Plain counters and a per-blade vector: no layout in it.
        stats: format!("{:?}", c.stats()),
        audit: c.audit_invariants(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants hold after every operation in any sequence, including
    /// failures and repairs.
    #[test]
    fn invariants_hold_under_arbitrary_ops(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut c = CacheCluster::new(5, 8);
        for op in ops {
            apply(&mut c, op);
            // The structured audit names every broken rule at once; report
            // the full list so a failure pinpoints the invariant by name.
            let violations = c.audit_invariants();
            prop_assert!(
                violations.is_empty(),
                "after {op:?}: {}",
                violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
            );
        }
    }

    /// With N-way replication, killing any N−1 blades never loses a dirty
    /// page; versions survive intact.
    #[test]
    fn n_way_survives_any_n_minus_1_failures(
        n_way in 2usize..5,
        kill_order in proptest::collection::vec(any::<u8>(), 1..4),
        page in any::<u8>(),
    ) {
        let blades = 6usize;
        let mut c = CacheCluster::new(blades, 16);
        let key = PageKey::new(1, page as u64);
        let out = c.write(0, key, n_way, Retention::Normal).unwrap();
        prop_assume!(out.replicas.len() == n_way - 1);

        // Kill up to n_way - 1 distinct blades (any blades at all).
        let mut killed = std::collections::HashSet::new();
        for k in kill_order.iter().take(n_way - 1) {
            let b = *k as usize % blades;
            if killed.insert(b) {
                let report = c.fail_blade(b);
                prop_assert!(report.lost.is_empty(), "lost dirty data after {} failures", killed.len());
            }
        }
        let violations = c.audit_invariants();
        prop_assert!(
            violations.is_empty(),
            "{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
        );
    }

    /// Reads return the latest written version: after a write, any reader
    /// observes the directory version of that write (monotonicity).
    #[test]
    fn versions_are_monotonic(writes in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..50)) {
        let blades = 4usize;
        let mut c = CacheCluster::new(blades, 64);
        let mut last_version = std::collections::HashMap::new();
        for (blade, page) in writes {
            let b = blade as usize % blades;
            let key = PageKey::new(0, (page % 16) as u64);
            let out = c.write(b, key, 2, Retention::Normal).unwrap();
            if let Some(prev) = last_version.insert(key, out.version) {
                prop_assert!(out.version > prev, "version regressed");
            }
        }
    }

    /// A cluster refilled with `clone_from` over a different earlier state
    /// (another blade count, its own history) answers as `clone()` does:
    /// the same walks, stats and audit, and the same outcomes, checkpoint
    /// audits included, for the same follow-on operations.
    #[test]
    fn a_refilled_cluster_behaves_as_a_fresh_clone(
        scratch_blades in 1usize..8,
        scratch_history in proptest::collection::vec(any_op_strategy(), 0..120),
        history in proptest::collection::vec(any_op_strategy(), 0..120),
        follow_on in proptest::collection::vec(any_op_strategy(), 1..60),
    ) {
        let mut scratch = CacheCluster::new(scratch_blades, 4);
        for op in scratch_history {
            apply(&mut scratch, op);
        }
        let mut c = CacheCluster::new(5, 8);
        for op in history {
            apply(&mut c, op);
        }
        c.audit_checkpoint();
        scratch.clone_from(&c);
        let mut fresh = c.clone();
        prop_assert_eq!(view(&scratch), view(&fresh), "refilled");
        for op in follow_on {
            let (got, want) = (apply(&mut scratch, op), apply(&mut fresh, op));
            prop_assert_eq!(got, want, "{:?}", op);
            prop_assert_eq!(scratch.audit_checkpoint(), fresh.audit_checkpoint(), "checkpoint after {:?}", op);
            prop_assert_eq!(view(&scratch), view(&fresh), "after {:?}", op);
        }
    }
}
