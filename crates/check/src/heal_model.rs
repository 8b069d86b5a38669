//! Model-checker harness for the `ys-heal` lifecycle/re-replication
//! protocol: every interleaving of governed writes, destages, blade
//! crashes, revivals, planned drains, and healer steps in a bounded scope,
//! against an independent shadow of each page's protection target:
//!
//! * **protect bookkeeping** — the directory's `protect` field must agree
//!   with a shadow map maintained from op outcomes alone: set by an acked
//!   N-way write, cleared by destage or (acknowledged) loss, untouched by
//!   crash, drain, heal, and rejoin;
//! * **never under target while `Healthy`** — a `Healthy` verdict with a
//!   page below its fault-tolerance target is a lie, and a single blade
//!   failure from `Healthy` may lose nothing;
//! * **`ReadOnly` refuses writes** — a governed write must fail (with
//!   [`CacheError::ReadOnly`]) exactly when health is `ReadOnly`, and
//!   succeed-or-fail-for-other-reasons otherwise;
//! * **drain implies zero loss** — a planned drain never mints a
//!   `DataLost` tombstone, no matter what the other ops left in flight.

use crate::cache_model::{destage_line, fail_line, hash_cluster, key_of, render_cluster_trace, Scope, ShadowMap};
use crate::explore::{Counterexample, Model};
use crate::summary::StandardModel;
use ys_cache::{BladeState, CacheCluster, CacheError, Health, Retention};

/// One operation in the bounded heal scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealOp {
    /// N-way write at `blade` through the degraded-mode governor.
    Write { blade: usize, page: u64 },
    /// Write-back a page; its in-cache protection promise ends.
    Destage { page: u64 },
    /// Crash a blade (unplanned; may spend the replica margin).
    Fail { blade: usize },
    /// Bring a failed blade back as `Rejoining`.
    Revive { blade: usize },
    /// Planned drain: evacuate, then go `Down` — never losing a write.
    Drain { blade: usize },
    /// One healer pass: attempt a replica placement for every page below
    /// its target.
    HealStep,
}

/// The real cluster plus the protection-target shadow.
pub struct HealModel {
    scope: Scope,
    cluster: CacheCluster,
    /// Page → protection target, maintained independently from op results.
    shadow: ShadowMap<usize>,
}

/// `clone_from` refills the cluster and the shadow in their own buffers.
impl Clone for HealModel {
    fn clone(&self) -> Self {
        let HealModel { scope, cluster, shadow } = self;
        HealModel { scope: *scope, cluster: cluster.clone(), shadow: shadow.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        let HealModel { scope, cluster, shadow } = self;
        *scope = source.scope;
        cluster.clone_from(&source.cluster);
        shadow.clone_from(&source.shadow);
    }
}

impl HealModel {
    /// The model over `scope`, with pages clamped to the two it needs.
    pub fn new(scope: Scope) -> HealModel {
        let scope = Scope { pages: scope.pages.min(2), ..scope };
        HealModel {
            scope,
            cluster: CacheCluster::new(scope.blades, scope.capacity_pages),
            shadow: ShadowMap::default(),
        }
    }

    /// For harnesses that audit the cluster through its `&mut` checkpoint;
    /// the model itself never does.
    // lint: allow(dead-pub) — (b) the checkpoint-vs-full-audit differential of tests/checkpoint_audit.rs
    pub fn cluster_mut(&mut self) -> &mut CacheCluster {
        &mut self.cluster
    }

    fn step(&mut self, op: HealOp) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            HealOp::Write { blade, page } => {
                let key = key_of(page);
                let read_only = self.cluster.health() == Health::ReadOnly;
                match self.cluster.governed_write(blade, key, self.scope.n_way, Retention::Normal)
                {
                    Ok(_) => {
                        if read_only {
                            violations.push(format!(
                                "governor accepted a write to {key:?} at ReadOnly health"
                            ));
                        }
                        self.shadow.insert(key, self.scope.n_way);
                    }
                    Err(CacheError::ReadOnly) => {
                        if !read_only {
                            violations.push(format!(
                                "governor refused a write to {key:?} but health was not ReadOnly"
                            ));
                        }
                    }
                    Err(_) => {} // blade down/draining etc. — not a policy call
                }
            }
            HealOp::Destage { page } => {
                let key = key_of(page);
                if self.cluster.destage(key).is_ok() {
                    self.shadow.remove(&key);
                }
            }
            HealOp::Fail { blade } => {
                let healthy_before = self.cluster.health() == Health::Healthy;
                let report = self.cluster.fail_blade(blade);
                if healthy_before && !report.lost.is_empty() {
                    violations.push(format!(
                        "single failure of blade {blade} from Healthy lost {:?}",
                        report.lost
                    ));
                }
                for key in &report.lost {
                    self.shadow.remove(key);
                    self.cluster.acknowledge_loss(*key);
                }
            }
            HealOp::Revive { blade } => {
                if self.cluster.revive_blade(blade).is_ok()
                    && self.cluster.health() == Health::Healthy
                {
                    violations.push(format!(
                        "blade {blade} is Rejoining but health says Healthy"
                    ));
                }
            }
            HealOp::Drain { blade } => {
                let lost_before = self.cluster.lost_pages().len();
                if let Ok(report) = self.cluster.drain_blade(blade) {
                    if self.cluster.lost_pages().len() > lost_before {
                        violations.push(format!(
                            "drain of blade {blade} minted a DataLost tombstone"
                        ));
                    }
                    if report.completed
                        && self.cluster.blade_state(blade) != BladeState::Down
                    {
                        violations.push(format!(
                            "drain of blade {blade} reported complete but state is {:?}",
                            self.cluster.blade_state(blade)
                        ));
                    }
                }
            }
            HealOp::HealStep => {
                for (key, _) in self.cluster.under_target_pages() {
                    let _ = self.cluster.add_replica(key);
                }
            }
        }
        violations
    }

    /// Cross-checks that hold after every op.
    fn audit(&self, violations: &mut Vec<String>) {
        // Protect bookkeeping vs the shadow, both directions.
        for (key, &target) in &self.shadow {
            match self.cluster.directory().get(key) {
                Some(e) if e.protect == target => {}
                Some(e) => violations.push(format!(
                    "{key:?} protect is {} but the shadow says {target}",
                    e.protect
                )),
                None => violations.push(format!(
                    "{key:?} is protection-shadowed but left the directory without \
                     destage or loss"
                )),
            }
        }
        for (key, e) in self.cluster.directory().iter() {
            if e.protect > 0 && !self.shadow.contains_key(key) {
                violations.push(format!(
                    "{key:?} carries protect {} with no shadow entry",
                    e.protect
                ));
            }
        }
        // Never under target while Healthy.
        if self.cluster.health() == Health::Healthy
            && !self.cluster.under_target_pages().is_empty()
        {
            violations.push(format!(
                "health is Healthy with pages under target: {:?}",
                self.cluster.under_target_pages()
            ));
        }
    }
}

impl Model for HealModel {
    type Op = HealOp;

    fn enumerate_ops(&self) -> Vec<HealOp> {
        let mut ops = Vec::new();
        for blade in 0..self.scope.blades {
            for page in 0..self.scope.pages {
                ops.push(HealOp::Write { blade, page });
            }
        }
        for page in 0..self.scope.pages {
            ops.push(HealOp::Destage { page });
        }
        for blade in 0..self.scope.blades {
            ops.push(HealOp::Fail { blade });
            ops.push(HealOp::Revive { blade });
            ops.push(HealOp::Drain { blade });
        }
        ops.push(HealOp::HealStep);
        ops
    }

    fn apply(&mut self, op: HealOp) -> Vec<String> {
        let mut violations = self.step(op);
        self.audit(&mut violations);
        for v in self.cluster.audit_invariants() {
            violations.push(v.to_string());
        }
        violations
    }

    fn canonical_hash(&self) -> u128 {
        hash_cluster(&self.cluster, self.scope, std::iter::empty(), |h, _, rows| {
            // The directory's protection targets, in the key order the
            // cluster half already hashed, then the shadow of them.
            for (_, e) in self.cluster.directory().iter() {
                h.write_usize(e.protect);
            }
            h.boundary();
            for (k, &target) in &self.shadow {
                rows.push([k.page, target as u64, 0, 0]);
            }
        })
    }
}

impl StandardModel for HealModel {
    fn describe(&self, depth: usize) -> String {
        let s = self.scope;
        format!("heal model, {} blades × {} pages, {}-way writes, depth {depth}", s.blades, s.pages, s.n_way)
    }

    fn render_counterexample(&self, cx: &Counterexample<HealOp>) -> String {
        render_heal_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render a heal counterexample as a ready-to-paste regression test.
fn render_heal_trace(trace: &[HealOp], scope: Scope, violations: &[String]) -> String {
    render_cluster_trace(trace, scope, violations, |op| match op {
        HealOp::Write { blade, page } => format!(
            "let _ = c.governed_write({blade}, PageKey::new(0, {page}), {}, Retention::Normal);",
            scope.n_way
        ),
        HealOp::Destage { page } => destage_line(page),
        HealOp::Fail { blade } => fail_line(blade),
        HealOp::Revive { blade } => format!("let _ = c.revive_blade({blade});"),
        HealOp::Drain { blade } => format!("let _ = c.drain_blade({blade});"),
        HealOp::HealStep => {
            "for (key, _) in c.under_target_pages() { let _ = c.add_replica(key); }".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn heal_step_restores_target_after_crash() {
        let mut m = HealModel::new(Scope::small());
        assert!(m.apply(HealOp::Write { blade: 0, page: 0 }).is_empty());
        let owner = m.cluster.directory().get(&key_of(0)).and_then(|e| e.owner).unwrap();
        assert!(m.apply(HealOp::Fail { blade: owner }).is_empty());
        assert!(!m.cluster.under_target_pages().is_empty(), "promotion spent the margin");
        assert!(m.apply(HealOp::HealStep).is_empty());
        assert!(m.cluster.under_target_pages().is_empty(), "heal restored the margin");
    }

    #[test]
    fn drain_never_loses_and_readonly_refuses() {
        let mut m = HealModel::new(Scope::small());
        assert!(m.apply(HealOp::Write { blade: 0, page: 0 }).is_empty());
        assert!(m.apply(HealOp::Write { blade: 1, page: 1 }).is_empty());
        assert!(m.apply(HealOp::Drain { blade: 0 }).is_empty());
        assert!(m.cluster.lost_pages().is_empty());
        // Drain a second blade: one accepting blade left → ReadOnly; the
        // model itself asserts the governor's refusal consistency.
        assert!(m.apply(HealOp::Drain { blade: 1 }).is_empty());
        assert_eq!(m.cluster.health(), Health::ReadOnly);
        assert!(m.apply(HealOp::Write { blade: 2, page: 0 }).is_empty());
    }

    #[test]
    fn revive_then_heal_returns_to_healthy() {
        let mut m = HealModel::new(Scope::small());
        assert!(m.apply(HealOp::Write { blade: 0, page: 0 }).is_empty());
        assert!(m.apply(HealOp::Fail { blade: 2 }).is_empty());
        assert!(m.apply(HealOp::Revive { blade: 2 }).is_empty());
        assert!(m.apply(HealOp::HealStep).is_empty());
        // Rejoining still shows Degraded until promotion; the real promote
        // is the healer's job (finish_rejoin), modeled outside this scope.
        assert!(m.cluster.health() <= Health::Degraded);
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = Scope { blades: 2, pages: 2, n_way: 2, capacity_pages: 4 };
        let result = explore_timed(
            HealModel::new(scope),
            Limits { max_depth: 5, max_states: 50_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_heal_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 100);
    }

    #[test]
    fn render_trace_is_replayable_rust() {
        let text = render_heal_trace(
            &[
                HealOp::Write { blade: 0, page: 1 },
                HealOp::Drain { blade: 0 },
                HealOp::HealStep,
            ],
            Scope::small(),
            &["example".into()],
        );
        assert!(text.contains("c.governed_write(0, PageKey::new(0, 1)"));
        assert!(text.contains("c.drain_blade(0)"));
        assert!(text.contains("c.add_replica(key)"));
    }
}
