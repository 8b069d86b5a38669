//! The bounded state-space explorer.
//!
//! Generic over a [`Model`]: a deterministic system-under-test plus the
//! shadow bookkeeping that judges each step. The explorer drives every
//! enumerable operation from every reached state up to a depth bound,
//! deduplicating states by 128-bit canonical hash, and reconstructs the
//! operation trace when a step produces a violation or panics.
//!
//! Search is breadth-first, so the first counterexample found is a
//! *shortest* one, and a state's first visit is at its shallowest depth:
//! seeing it again can never open more of the depth budget.

use crate::hash::SeenSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A checkable system: apply ops, audit state, canonicalize for dedup.
pub trait Model: Clone {
    type Op: Copy + std::fmt::Debug;

    /// Every operation the bounded scope allows, in a fixed order. Must not
    /// depend on current state (the explorer applies each to a clone and
    /// lets illegal ops surface as error-returning no-ops).
    fn enumerate_ops(&self) -> Vec<Self::Op>;

    /// Apply one operation, updating shadow bookkeeping, and return the
    /// violations this step caused (empty = healthy step). Errors returned
    /// by the system under test are legal outcomes, not violations.
    fn apply(&mut self, op: Self::Op) -> Vec<String>;

    /// Hash of the canonical state: behavioral state only, normalized so
    /// that equivalent states (e.g. differing only in absolute version
    /// counters) collide intentionally.
    fn canonical_hash(&self) -> u128;
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum operations applied along any path.
    pub max_depth: usize,
    /// Stop expanding once this many distinct states were visited.
    pub max_states: usize,
}

/// A violating operation sequence, replayable from the initial state.
#[derive(Clone, Debug)]
pub struct Counterexample<Op> {
    /// Ops from the initial state; the last one triggers the violation.
    pub trace: Vec<Op>,
    /// What broke on the final step.
    pub violations: Vec<String>,
}

/// How every rendered counterexample opens: what broke, as comments above
/// the replayable trace.
pub(crate) fn violations_header(violations: &[String]) -> String {
    let mut out = String::from("// Violations:\n");
    for v in violations {
        out.push_str(&format!("//   {v}\n"));
    }
    out
}

/// Aggregate result of one bounded exploration.
#[derive(Clone, Debug)]
pub struct Exploration<Op> {
    /// Distinct states visited (after dedup), including the initial state.
    pub states_visited: usize,
    /// Transitions applied (ops executed on cloned states).
    pub transitions: usize,
    /// Transitions that landed on an already-seen state.
    pub deduplicated: usize,
    /// Deepest path length expanded.
    pub deepest: usize,
    /// True when `max_states` stopped the search before the depth bound.
    pub truncated: bool,
    /// First violation found, if any: a shortest one.
    pub counterexample: Option<Counterexample<Op>>,
    /// Wall-clock seconds spent.
    pub elapsed_secs: f64,
}

struct Node<Op> {
    parent: usize,
    op: Option<Op>,
}

fn trace_to<Op: Copy>(nodes: &[Node<Op>], mut idx: usize, last: Op) -> Vec<Op> {
    let mut trace = vec![last];
    while let Some(op) = nodes[idx].op {
        trace.push(op);
        idx = nodes[idx].parent;
    }
    trace.reverse();
    trace
}

/// Run a bounded breadth-first exploration from `initial`.
///
/// Library code reads no clock: `elapsed` is an injected elapsed-seconds
/// reader, sampled once at whichever exit path ends the exploration, so
/// the wall-clock exemption stays confined to the CLI entry point.
pub fn explore_timed<M: Model>(initial: M, limits: Limits, elapsed: impl Fn() -> f64) -> Exploration<M::Op> {
    let ops = initial.enumerate_ops();

    // node index → (parent, op) for trace reconstruction; states themselves
    // live only in the frontier, so memory scales with the frontier, not
    // with everything ever visited.
    let mut nodes: Vec<Node<M::Op>> = vec![Node { parent: 0, op: None }];
    // Canonical hashes of every state reached. Keys are pre-mixed digests,
    // so the set skips SipHash (see SeenSet).
    let mut seen = SeenSet::default();
    seen.insert(initial.canonical_hash());

    let mut frontier: VecDeque<(usize, usize, M)> = VecDeque::new();
    frontier.push_back((0, 0, initial));

    let mut out = Exploration {
        states_visited: 1,
        transitions: 0,
        deduplicated: 0,
        deepest: 0,
        truncated: false,
        counterexample: None,
        elapsed_secs: 0.0,
    };

    while let Some((node_idx, depth, state)) = frontier.pop_front() {
        if depth >= limits.max_depth {
            continue;
        }
        for &op in &ops {
            let mut next = state.clone();
            out.transitions += 1;
            // A panic inside the system under test (e.g. a tripped
            // debug_assert) is itself a counterexample, not a checker crash.
            let step = catch_unwind(AssertUnwindSafe(|| {
                let violations = next.apply(op);
                (violations, next)
            }));
            let (violations, next) = match step {
                Ok(pair) => pair,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    out.counterexample = Some(Counterexample {
                        trace: trace_to(&nodes, node_idx, op),
                        violations: vec![format!("panic: {msg}")],
                    });
                    out.elapsed_secs = elapsed();
                    return out;
                }
            };
            if !violations.is_empty() {
                out.counterexample =
                    Some(Counterexample { trace: trace_to(&nodes, node_idx, op), violations });
                out.elapsed_secs = elapsed();
                return out;
            }

            if !seen.insert(next.canonical_hash()) {
                out.deduplicated += 1;
                continue;
            }
            out.states_visited += 1;
            out.deepest = out.deepest.max(depth + 1);
            if out.states_visited >= limits.max_states {
                out.truncated = true;
                out.elapsed_secs = elapsed();
                return out;
            }
            if depth + 1 < limits.max_depth {
                nodes.push(Node { parent: node_idx, op: Some(op) });
                frontier.push_back((nodes.len() - 1, depth + 1, next));
            }
        }
    }

    out.elapsed_secs = elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explore<M: Model>(initial: M, limits: Limits) -> Exploration<M::Op> {
        explore_timed(initial, limits, || 0.0)
    }

    /// Toy model: a counter with inc/dec ops, violation at 3, modeled
    /// states wrap at 8.
    #[derive(Clone)]
    struct Counter {
        value: i64,
        forbidden: i64,
    }

    impl Model for Counter {
        type Op = i64;

        fn enumerate_ops(&self) -> Vec<i64> {
            vec![1, -1]
        }

        fn apply(&mut self, op: i64) -> Vec<String> {
            self.value = (self.value + op).rem_euclid(8);
            if self.value == self.forbidden {
                vec![format!("hit forbidden value {}", self.value)]
            } else {
                vec![]
            }
        }

        fn canonical_hash(&self) -> u128 {
            self.value as u128
        }
    }

    #[test]
    fn bfs_finds_shortest_counterexample() {
        let result = explore(
            Counter { value: 0, forbidden: 3 },
            Limits { max_depth: 10, max_states: 1000 },
        );
        let cx = result.counterexample.expect("3 is reachable");
        assert_eq!(cx.trace.len(), 3, "shortest path is +1 +1 +1");
    }

    #[test]
    fn clean_model_visits_all_states() {
        let result = explore(
            Counter { value: 0, forbidden: -1 },
            Limits { max_depth: 10, max_states: 1000 },
        );
        assert!(result.counterexample.is_none());
        assert_eq!(result.states_visited, 8, "all residues mod 8");
        assert!(result.deduplicated > 0);
    }

    #[test]
    fn state_cap_truncates() {
        let result = explore(
            Counter { value: 0, forbidden: -1 },
            Limits { max_depth: 10, max_states: 4 },
        );
        assert!(result.truncated);
        assert_eq!(result.states_visited, 4);
    }

    /// Panicking models become counterexamples, not checker crashes.
    #[derive(Clone)]
    struct Bomb;

    impl Model for Bomb {
        type Op = u8;

        fn enumerate_ops(&self) -> Vec<u8> {
            vec![0]
        }

        fn apply(&mut self, _op: u8) -> Vec<String> {
            panic!("boom");
        }

        fn canonical_hash(&self) -> u128 {
            0
        }
    }

    #[test]
    fn panics_are_reported_as_counterexamples() {
        let result = explore(Bomb, Limits { max_depth: 3, max_states: 10 });
        let cx = result.counterexample.expect("panic must surface");
        assert!(cx.violations[0].contains("panic: boom"));
        assert_eq!(cx.trace.len(), 1);
    }
}
