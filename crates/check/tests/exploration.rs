//! Acceptance-scope explorations (ISSUE: ≥ 3 blades × 4 pages × depth ≥ 5,
//! ≥ 10 000 distinct states after dedup, zero violations, under a minute).
//!
//! These run the *real* `CacheCluster` / `VolumeManager` exhaustively: every
//! operation from every reachable state up to the depth bound. A failure
//! prints the shortest violating trace as a ready-to-paste regression test —
//! copy it into `tests/replays.rs` before fixing the bug.

use ys_check::{
    explore_timed, CacheModel, Limits, QosModel, QosScope, Scope, StandardModel, VirtModel, VirtScope,
};

#[test]
fn cache_acceptance_scope_is_violation_free() {
    let scope = Scope { blades: 3, pages: 4, n_way: 2, capacity_pages: 8 };
    let result = explore_timed(
        CacheModel::new(scope),
        Limits { max_depth: 5, max_states: 2_000_000 },
        || 0.0,
    );
    if let Some(cx) = &result.counterexample {
        panic!(
            "coherence violation after {} ops:\n{}",
            cx.trace.len(),
            CacheModel::new(scope).render_counterexample(cx)
        );
    }
    assert!(!result.truncated, "depth-5 scope must be explored exhaustively");
    assert_eq!(result.deepest, 5);
    assert!(
        result.states_visited >= 10_000,
        "expected ≥ 10k distinct states, saw {}",
        result.states_visited
    );
}

/// Eviction pressure: capacity below the page count forces the LRU paths
/// (evictions, eviction stalls) into scope. Smaller per-step fan-out keeps
/// the run quick; recency order joins the canonical hash automatically.
#[test]
fn cache_under_eviction_pressure_is_violation_free() {
    let scope = Scope { blades: 2, pages: 4, n_way: 2, capacity_pages: 2 };
    let result = explore_timed(
        CacheModel::new(scope),
        Limits { max_depth: 5, max_states: 2_000_000 },
        || 0.0,
    );
    if let Some(cx) = &result.counterexample {
        panic!(
            "coherence violation after {} ops:\n{}",
            cx.trace.len(),
            CacheModel::new(scope).render_counterexample(cx)
        );
    }
    assert!(!result.truncated);
}

/// Triple-protected writes across a larger blade set, shallower because the
/// per-step fan-out is bigger.
#[test]
fn cache_three_way_writes_are_violation_free() {
    let scope = Scope { blades: 4, pages: 2, n_way: 3, capacity_pages: 8 };
    let result = explore_timed(
        CacheModel::new(scope),
        Limits { max_depth: 4, max_states: 2_000_000 },
        || 0.0,
    );
    if let Some(cx) = &result.counterexample {
        panic!(
            "coherence violation after {} ops:\n{}",
            cx.trace.len(),
            CacheModel::new(scope).render_counterexample(cx)
        );
    }
    assert!(!result.truncated);
}

#[test]
fn dmsd_conservation_holds_through_depth_6() {
    let scope = VirtScope::small();
    let result = explore_timed(
        VirtModel::new(scope),
        Limits { max_depth: 6, max_states: 2_000_000 },
        || 0.0,
    );
    if let Some(cx) = &result.counterexample {
        panic!(
            "conservation violation after {} ops:\n{}",
            cx.trace.len(),
            VirtModel::new(scope).render_counterexample(cx)
        );
    }
    assert!(!result.truncated);
    assert!(
        result.states_visited >= 10_000,
        "expected ≥ 10k distinct states, saw {}",
        result.states_visited
    );
}

#[test]
fn qos_admission_machine_holds_through_depth_7() {
    let scope = QosScope::small();
    let result = explore_timed(
        QosModel::new(scope),
        Limits { max_depth: 7, max_states: 2_000_000 },
        || 0.0,
    );
    if let Some(cx) = &result.counterexample {
        panic!(
            "admission violation after {} ops:\n{}",
            cx.trace.len(),
            QosModel::new(scope).render_counterexample(cx)
        );
    }
    assert!(!result.truncated, "depth-7 QoS scope must be explored exhaustively");
    assert_eq!(result.deepest, 7);
    assert!(
        result.states_visited >= 10_000,
        "expected >= 10k distinct states, saw {}",
        result.states_visited
    );
}
