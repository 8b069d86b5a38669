//! The §6.1 failover checks the cache model runs on every `Fail`, beyond
//! its loss-within-budget shadow:
//!
//! * **promotion legality** — when a crash promotes a dirty page, the
//!   crashed blade was its owner and the new owner one of the replicas the
//!   page was pinned to *before* the crash (re-homing may not invent
//!   copies);
//! * **loud loss** — when the budget is exhausted and a page is lost,
//!   reading it from any surviving blade must return
//!   [`CacheError::DataLost`] until the loss is acknowledged: the paper's
//!   promise is *no silent loss*, not no loss.
//!
//! That no surviving directory entry references the crashed blade is the
//! structural audit's `down-blade-consistency` rule, which runs on the same
//! transition.

use ys_cache::{CacheCluster, CacheError, PageKey};

/// A page the failing blade owned or replicated, as the directory held it
/// before the crash.
pub(crate) struct Prior {
    pub key: PageKey,
    pub owner: Option<usize>,
    pub replicas: Vec<usize>,
}

/// Promotion legality: each page `blade`'s crash reports `promoted` had
/// `blade` as its owner, and now has an owner that held a replica of it in
/// `prior`.
pub(crate) fn check_promotions(
    cluster: &CacheCluster,
    blade: usize,
    promoted: &[PageKey],
    prior: &[Prior],
    violations: &mut Vec<String>,
) {
    for key in promoted {
        let before = prior.iter().find(|p| p.key == *key);
        let (owner, replicas) = before.map_or((None, &[][..]), |p| (p.owner, &p.replicas[..]));
        if owner != Some(blade) {
            violations.push(format!("promotion of {key:?} reported, but blade {blade} was not its owner"));
        }
        match cluster.directory().get(key).and_then(|e| e.owner) {
            Some(now) if !replicas.contains(&now) => violations.push(format!(
                "{key:?} promoted to blade {now}, which held no replica (had {replicas:?})"
            )),
            Some(_) => {}
            None => violations.push(format!("{key:?} reported promoted but has no owner afterwards")),
        }
    }
}

/// Loud loss: `key`, lost when `failed` crashed and not yet acknowledged,
/// reads as [`CacheError::DataLost`] from a surviving blade.
pub(crate) fn check_loss_is_loud(cluster: &mut CacheCluster, failed: usize, key: PageKey, violations: &mut Vec<String>) {
    let Some(reader) = (0..cluster.blade_count()).find(|&b| b != failed && cluster.blade_up(b)) else {
        return;
    };
    match cluster.read(reader, key) {
        Err(CacheError::DataLost(_)) => {}
        other => violations.push(format!("silent loss: read of lost {key:?} returned {other:?}, not DataLost")),
    }
}

#[cfg(test)]
mod tests {
    use crate::cache_model::{key_of, render_trace, CacheModel, Op, Scope};
    use crate::explore::{explore_timed, Limits, Model};

    /// The failover scope: 3 blades × 2 pages, 2-way writes — every
    /// crash/promote/destage interleaving to the exploration depth.
    const SCOPE: Scope = Scope { blades: 3, pages: 2, n_way: 2, capacity_pages: 8 };

    #[test]
    fn crash_promotes_to_a_prior_replica() {
        let mut m = CacheModel::new(SCOPE);
        assert!(m.apply(Op::Write { blade: 0, page: 0 }).is_empty());
        let owner = m.cluster.directory().get(&key_of(0)).and_then(|e| e.owner).unwrap();
        assert!(m.apply(Op::Fail { blade: owner }).is_empty());
        assert!(m.cluster.directory().get(&key_of(0)).and_then(|e| e.owner).is_some());
    }

    #[test]
    fn exhausted_budget_is_loud_then_acknowledged() {
        let mut m = CacheModel::new(SCOPE);
        assert!(m.apply(Op::Write { blade: 0, page: 0 }).is_empty());
        // Crash the owner, then the promoted owner: budget exhausted. The
        // model itself asserts the read-before-acknowledge returns
        // DataLost; no violations means the loss was loud and legal.
        for _ in 0..2 {
            let owner = m.cluster.directory().get(&key_of(0)).and_then(|e| e.owner);
            let Some(b) = owner else { break };
            assert!(m.apply(Op::Fail { blade: b }).is_empty());
        }
        assert!(m.cluster.directory().get(&key_of(0)).is_none(), "page gone after N failures");
        assert!(m.cluster.lost_pages().is_empty(), "loss acknowledged");
    }

    #[test]
    fn destage_ends_the_promise_before_the_crash() {
        let mut m = CacheModel::new(SCOPE);
        assert!(m.apply(Op::Write { blade: 0, page: 1 }).is_empty());
        assert!(m.apply(Op::Destage { page: 1 }).is_empty());
        for blade in 0..3 {
            assert!(m.apply(Op::Fail { blade }).is_empty());
            assert!(m.apply(Op::Repair { blade }).is_empty());
        }
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = Scope { blades: 2, pages: 2, n_way: 2, capacity_pages: 4 };
        let result = explore_timed(
            CacheModel::new(scope),
            Limits { max_depth: 5, max_states: 50_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 100);
    }

    #[test]
    fn render_trace_is_replayable_rust() {
        let text = render_trace(
            &[Op::Write { blade: 0, page: 1 }, Op::Fail { blade: 0 }],
            SCOPE,
            &["silent loss: example".into()],
        );
        assert!(text.starts_with("// Violations:\n//   silent loss: example\n"));
        assert!(text.contains("c.write(0, PageKey::new(0, 1)"));
        assert!(text.contains("for key in c.fail_blade(0).lost { c.acknowledge_loss(key); }"));
    }
}
