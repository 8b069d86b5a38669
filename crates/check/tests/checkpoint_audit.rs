//! `CacheCluster::audit_checkpoint` ≡ `audit_invariants`, on every
//! transition of the two models that drive a `CacheCluster` — cache (at its
//! acceptance, eviction and failover scopes) and heal.
//!
//! The models themselves audit every state with the full scan and never
//! open a change journal — that is what `ys-check` runs and what the depth-5
//! summaries pin. This harness walks the same transition relation and asks
//! both ways: from every reached state it takes a clean checkpoint (which
//! opens the journal), applies each action to a copy, and requires the
//! checkpoint's answer to equal the full audit's. The journal is
//! bookkeeping and stays out of canonical state, so the walk dedups exactly
//! as the explorer does.

use std::collections::{BTreeMap, HashSet, VecDeque};
use ys_cache::CacheCluster;
use ys_check::{CacheModel, HealModel, Model, Scope};

const DEPTH: usize = 4;

/// The action's kind: its variant name.
fn kind<Op: std::fmt::Debug>(op: &Op) -> String {
    let text = format!("{op:?}");
    text.split([' ', '{']).next().unwrap_or_default().to_string()
}

/// Walk `initial`'s transition relation breadth-first to [`DEPTH`], holding
/// the checkpoint to the full audit on every (state, action). Returns how
/// many transitions each action kind contributed, and the most evictions
/// any path saw.
fn differential<M: Model>(initial: M, cluster_mut: fn(&mut M) -> &mut CacheCluster) -> (BTreeMap<String, usize>, u64) {
    let ops = initial.enumerate_ops();
    let mut per_kind: BTreeMap<String, usize> = ops.iter().map(|op| (kind(op), 0)).collect();
    let mut seen = HashSet::from([initial.canonical_hash()]);
    let mut frontier = VecDeque::from([(0, initial)]);
    let (mut incremental, mut full, mut evictions) = (0, 0, 0);
    while let Some((depth, mut parent)) = frontier.pop_front() {
        let unclean = cluster_mut(&mut parent).audit_checkpoint();
        assert!(unclean.is_empty(), "a reached state is clean: {unclean:?}");
        for &op in &ops {
            let mut child = parent.clone();
            let violations = child.apply(op);
            assert!(violations.is_empty(), "{op:?}: {violations:?}");
            let cluster = cluster_mut(&mut child);
            let before = cluster.stats().clone();
            let expected = cluster.audit_invariants();
            assert_eq!(cluster.audit_checkpoint(), expected, "after {op:?} at depth {depth}");
            incremental += cluster.stats().audits_incremental - before.audits_incremental;
            full += cluster.stats().audits_full - before.audits_full;
            evictions = evictions.max(cluster.stats().evictions);
            *per_kind.entry(kind(&op)).or_default() += 1;
            if depth + 1 < DEPTH && seen.insert(child.canonical_hash()) {
                frontier.push_back((depth + 1, child));
            }
        }
    }
    // Both answers were exercised: page transitions took the journal, blade
    // lifecycle transitions the fallback.
    assert!(incremental > 0 && full > 0, "{incremental} incremental, {full} full");
    (per_kind, evictions)
}

fn assert_every_kind_visited(model: &str, per_kind: &BTreeMap<String, usize>, kinds: &[&str]) {
    assert_eq!(per_kind.keys().map(String::as_str).collect::<Vec<_>>(), kinds, "{model}");
    assert!(per_kind.values().all(|&n| n > 0), "{model}: {per_kind:?}");
}

#[test]
fn cache_model_checkpoints_agree_with_the_full_audit() {
    let (per_kind, _) = differential(CacheModel::new(Scope::small()), CacheModel::cluster_mut);
    assert_every_kind_visited("cache", &per_kind, &["Destage", "Fail", "Invalidate", "Read", "Repair", "Write"]);
}

/// Capacity below the page count: evictions (noted by `make_room`, not by
/// the operation that caused them) are reachable.
#[test]
fn cache_model_under_eviction_checkpoints_agree_with_the_full_audit() {
    let scope = Scope { blades: 2, pages: 4, n_way: 2, capacity_pages: 2 };
    let (_, evictions) = differential(CacheModel::new(scope), CacheModel::cluster_mut);
    assert!(evictions > 0, "the scope was chosen to reach eviction");
}

/// The failover checks' scope: the cache model over two pages.
#[test]
fn failover_model_checkpoints_agree_with_the_full_audit() {
    let scope = Scope { pages: 2, ..Scope::small() };
    let (per_kind, _) = differential(CacheModel::new(scope), CacheModel::cluster_mut);
    assert_every_kind_visited("failover", &per_kind, &["Destage", "Fail", "Invalidate", "Read", "Repair", "Write"]);
}

#[test]
fn heal_model_checkpoints_agree_with_the_full_audit() {
    let (per_kind, _) = differential(HealModel::new(Scope::small()), HealModel::cluster_mut);
    assert_every_kind_visited("heal", &per_kind, &["Destage", "Drain", "Fail", "HealStep", "Revive", "Write"]);
}
