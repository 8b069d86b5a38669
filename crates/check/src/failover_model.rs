//! Model-checker harness for the §6.1 failover protocol: every
//! interleaving of N-way writes, destages, blade crashes, and repairs in a
//! bounded scope, with failover-specific checks the cache model doesn't
//! make:
//!
//! * **promotion legality** — when a crash promotes a dirty page, the new
//!   owner must be one of the replicas the page was pinned to *before* the
//!   crash (re-homing may not invent copies);
//! * **no owner on a dead blade** — after a crash, no surviving directory
//!   entry may point at the crashed blade (checked from the pre-crash
//!   snapshot, independently of the structural audit);
//! * **explicit loss** — when the budget is exhausted and a page is lost,
//!   reading it from any surviving blade must return
//!   [`CacheError::DataLost`] until the loss is acknowledged: the paper's
//!   promise is *no silent loss*, not no loss;
//! * **loss-within-budget** — as in the cache model: a page acked with N
//!   dirty copies must survive any N−1 failures.

use crate::cache_model::Scope;
use crate::explore::{violations_header, Counterexample, Model};
use crate::summary::StandardModel;
use crate::hash::StateHasher;
use std::collections::HashMap;
use ys_cache::{CacheCluster, CacheError, PageKey, Retention};

/// One operation in the bounded failover scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverOp {
    /// N-way protected write at `blade`.
    Write { blade: usize, page: u64 },
    /// Write-back a page; its in-cache protection promise ends.
    Destage { page: u64 },
    /// Crash a blade mid-whatever the other ops left in flight.
    Fail { blade: usize },
    /// Bring a failed blade back, empty.
    Repair { blade: usize },
}

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct FailoverScope {
    pub blades: usize,
    pub pages: u64,
    /// Total dirty copies per write (owner + replicas).
    pub n_way: usize,
    pub capacity_pages: usize,
}

impl FailoverScope {
    /// The acceptance scope: 3 blades × 2 pages, 2-way writes — every
    /// crash/promote/destage interleaving to the exploration depth.
    pub fn small() -> FailoverScope {
        FailoverScope { blades: 3, pages: 2, n_way: 2, capacity_pages: 8 }
    }
}

#[derive(Clone, Copy, Debug)]
struct Budget {
    copies: usize,
    failures: usize,
}

/// The real cluster plus the failover shadow.
#[derive(Clone)]
pub struct FailoverModel {
    scope: FailoverScope,
    cluster: CacheCluster,
    budgets: HashMap<PageKey, Budget>,
}

fn key_of(page: u64) -> PageKey {
    PageKey::new(0, page)
}

impl FailoverModel {
    pub fn new(scope: FailoverScope) -> FailoverModel {
        FailoverModel {
            scope,
            cluster: CacheCluster::new(scope.blades, scope.capacity_pages),
            budgets: HashMap::new(),
        }
    }

    pub fn cluster(&self) -> &CacheCluster {
        &self.cluster
    }

    /// For harnesses that audit the cluster through its `&mut` checkpoint
    /// (`tests/checkpoint_audit.rs`); the model itself never does.
    pub fn cluster_mut(&mut self) -> &mut CacheCluster {
        &mut self.cluster
    }

    fn step(&mut self, op: FailoverOp) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            FailoverOp::Write { blade, page } => {
                let key = key_of(page);
                if let Ok(out) = self.cluster.write(blade, key, self.scope.n_way, Retention::Normal)
                {
                    self.budgets
                        .insert(key, Budget { copies: 1 + out.replicas.len(), failures: 0 });
                }
            }
            FailoverOp::Destage { page } => {
                let key = key_of(page);
                if self.cluster.destage(key).is_ok() {
                    self.budgets.remove(&key);
                }
            }
            FailoverOp::Fail { blade } => self.fail(blade, &mut violations),
            FailoverOp::Repair { blade } => self.cluster.repair_blade(blade),
        }
        violations
    }

    fn fail(&mut self, blade: usize, violations: &mut Vec<String>) {
        // Pre-crash snapshot: who owned and replicated each page.
        let snapshot: HashMap<PageKey, (Option<usize>, Vec<usize>)> = self
            .cluster
            .directory()
            .iter()
            .map(|(k, e)| (*k, (e.owner, e.replicas.clone())))
            .collect();
        for (key, b) in self.budgets.iter_mut() {
            if let Some((owner, replicas)) = snapshot.get(key) {
                if *owner == Some(blade) || replicas.contains(&blade) {
                    b.failures += 1;
                }
            }
        }
        let report = self.cluster.fail_blade(blade);

        // Promotion legality: the new owner existed as a replica before.
        for key in &report.promoted {
            let prior = snapshot.get(key);
            let new_owner = self.cluster.directory().get(key).and_then(|e| e.owner);
            match (prior, new_owner) {
                (Some((old_owner, replicas)), Some(now)) => {
                    if *old_owner != Some(blade) {
                        violations.push(format!(
                            "promotion of {key:?} reported, but blade {blade} was not its owner"
                        ));
                    }
                    if !replicas.contains(&now) {
                        violations.push(format!(
                            "{key:?} promoted to blade {now}, which held no replica (had {replicas:?})"
                        ));
                    }
                }
                (_, None) => violations
                    .push(format!("{key:?} reported promoted but has no owner afterwards")),
                (None, _) => violations
                    .push(format!("{key:?} reported promoted but was not in the directory")),
            }
        }

        // No surviving entry may still reference the dead blade.
        for (key, e) in self.cluster.directory().iter() {
            if e.owner == Some(blade) || e.replicas.contains(&blade) || e.sharers.contains(&blade)
            {
                violations.push(format!("{key:?} still references crashed blade {blade}"));
            }
        }

        // Losses: within budget is a bug; at the limit the loss must be
        // *loud* — reads fail with DataLost until acknowledged.
        for key in &report.lost {
            match self.budgets.get(key) {
                Some(b) if b.failures < b.copies => violations.push(format!(
                    "loss-within-budget: {key:?} written {}-way lost after only {} failures",
                    b.copies, b.failures
                )),
                _ => {}
            }
            if let Some(reader) =
                (0..self.scope.blades).find(|&b| b != blade && self.cluster.blade_up(b))
            {
                match self.cluster.read(reader, *key) {
                    Err(CacheError::DataLost(_)) => {}
                    other => violations.push(format!(
                        "silent loss: read of lost {key:?} returned {other:?}, not DataLost"
                    )),
                }
            }
            self.budgets.remove(key);
            self.cluster.acknowledge_loss(*key);
        }
    }
}

impl Model for FailoverModel {
    type Op = FailoverOp;

    fn enumerate_ops(&self) -> Vec<FailoverOp> {
        let mut ops = Vec::new();
        for blade in 0..self.scope.blades {
            for page in 0..self.scope.pages {
                ops.push(FailoverOp::Write { blade, page });
            }
        }
        for page in 0..self.scope.pages {
            ops.push(FailoverOp::Destage { page });
        }
        for blade in 0..self.scope.blades {
            ops.push(FailoverOp::Fail { blade });
            ops.push(FailoverOp::Repair { blade });
        }
        ops
    }

    fn apply(&mut self, op: FailoverOp) -> Vec<String> {
        let mut violations = self.step(op);
        for v in self.cluster.audit_invariants() {
            violations.push(v.to_string());
        }
        violations
    }

    fn canonical_hash(&self) -> u128 {
        // Same scratch-reuse discipline as `CacheModel::canonical_hash`:
        // this runs once per explored transition, so rank/shadow buffers
        // are recycled per thread rather than allocated per call.
        HASH_SCRATCH.with(|scratch| {
            let (versions, shadow) = &mut *scratch.borrow_mut();
            versions.clear();
            shadow.clear();
            let mut h = StateHasher::new();
            // Version-rank normalization, as in the cache model: absolute
            // counters grow without bound but only their order is observable.
            for (_, e) in self.cluster.directory().iter() {
                versions.push(e.version);
            }
            for b in 0..self.scope.blades {
                for p in self.cluster.resident_pages_iter(b) {
                    versions.push(p.version);
                }
            }
            versions.sort_unstable();
            versions.dedup();
            let rank = |v: u64| versions.binary_search(&v).unwrap_or(usize::MAX) as u64;

            for b in 0..self.scope.blades {
                h.write_bool(self.cluster.blade_up(b));
                for p in self.cluster.resident_pages_iter(b) {
                    h.write_u64(p.key.page);
                    h.write_bool(p.replica);
                    h.write_bool(p.dirty);
                    h.write_u64(rank(p.version));
                }
                h.boundary();
            }
            // Directory iteration is key-ordered already (ordered map).
            for (key, e) in self.cluster.directory().iter() {
                h.write_u64(key.page);
                match e.owner {
                    Some(o) => h.write_u64(1 + o as u64),
                    None => h.write_u64(0),
                }
                for &r in &e.replicas {
                    h.write_usize(r);
                }
                h.boundary();
                h.write_u64(rank(e.version));
            }
            h.boundary();
            for (k, b) in &self.budgets {
                shadow.push((k.page, b.copies as u64, b.failures as u64));
            }
            shadow.sort_unstable();
            for &(page, copies, failures) in shadow.iter() {
                h.write_u64(page);
                h.write_u64(copies);
                h.write_u64(failures);
            }
            h.finish()
        })
    }
}

/// `(version ranks, shadow tuples)` buffers reused across hash calls.
type HashScratch = (Vec<u64>, Vec<(u64, u64, u64)>);

thread_local! {
    /// Reused scratch for [`FailoverModel::canonical_hash`].
    static HASH_SCRATCH: std::cell::RefCell<HashScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The CLI's `--blades/--pages/--nway/--capacity`, with pages clamped to
/// the two this model needs.
impl From<Scope> for FailoverScope {
    fn from(cli: Scope) -> FailoverScope {
        FailoverScope { blades: cli.blades, pages: cli.pages.min(2), n_way: cli.n_way, capacity_pages: cli.capacity_pages }
    }
}

impl StandardModel for FailoverModel {
    fn describe(&self, depth: usize) -> String {
        let s = self.scope;
        format!("failover model, {} blades × {} pages, {}-way writes, depth {depth}", s.blades, s.pages, s.n_way)
    }

    fn render_counterexample(&self, cx: &Counterexample<FailoverOp>) -> String {
        render_failover_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render a failover counterexample as a ready-to-paste regression test.
pub fn render_failover_trace(
    trace: &[FailoverOp],
    scope: FailoverScope,
    violations: &[String],
) -> String {
    let mut out = violations_header(violations);
    out.push_str(&format!(
        "let mut c = CacheCluster::new({}, {});\n",
        scope.blades, scope.capacity_pages
    ));
    for op in trace {
        let line = match *op {
            FailoverOp::Write { blade, page } => format!(
                "let _ = c.write({blade}, PageKey::new(0, {page}), {}, Retention::Normal);",
                scope.n_way
            ),
            FailoverOp::Destage { page } => format!("let _ = c.destage(PageKey::new(0, {page}));"),
            FailoverOp::Fail { blade } => format!(
                "for key in c.fail_blade({blade}).lost {{ c.acknowledge_loss(key); }}"
            ),
            FailoverOp::Repair { blade } => format!("c.repair_blade({blade});"),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("assert_eq!(c.audit_invariants(), vec![]);\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Limits, SearchOrder};

    #[test]
    fn crash_promotes_to_a_prior_replica() {
        let mut m = FailoverModel::new(FailoverScope::small());
        assert!(m.apply(FailoverOp::Write { blade: 0, page: 0 }).is_empty());
        let owner = m.cluster().directory().get(&key_of(0)).and_then(|e| e.owner).unwrap();
        assert!(m.apply(FailoverOp::Fail { blade: owner }).is_empty());
        assert!(m.cluster().directory().get(&key_of(0)).and_then(|e| e.owner).is_some());
    }

    #[test]
    fn exhausted_budget_is_loud_then_acknowledged() {
        let mut m = FailoverModel::new(FailoverScope::small());
        assert!(m.apply(FailoverOp::Write { blade: 0, page: 0 }).is_empty());
        // Crash the owner, then the promoted owner: budget exhausted. The
        // model itself asserts the read-before-acknowledge returns
        // DataLost; no violations means the loss was loud and legal.
        for _ in 0..2 {
            let owner = m.cluster().directory().get(&key_of(0)).and_then(|e| e.owner);
            let Some(b) = owner else { break };
            assert!(m.apply(FailoverOp::Fail { blade: b }).is_empty());
        }
        assert!(m.cluster().directory().get(&key_of(0)).is_none(), "page gone after N failures");
        assert!(m.cluster().lost_pages().is_empty(), "loss acknowledged");
    }

    #[test]
    fn destage_ends_the_promise_before_the_crash() {
        let mut m = FailoverModel::new(FailoverScope::small());
        assert!(m.apply(FailoverOp::Write { blade: 0, page: 1 }).is_empty());
        assert!(m.apply(FailoverOp::Destage { page: 1 }).is_empty());
        for blade in 0..3 {
            assert!(m.apply(FailoverOp::Fail { blade }).is_empty());
            assert!(m.apply(FailoverOp::Repair { blade }).is_empty());
        }
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = FailoverScope { blades: 2, pages: 2, n_way: 2, capacity_pages: 4 };
        let result = explore(
            FailoverModel::new(scope),
            Limits { max_depth: 5, max_states: 50_000 },
            SearchOrder::Bfs,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_failover_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 100);
    }

    #[test]
    fn render_trace_is_replayable_rust() {
        let text = render_failover_trace(
            &[FailoverOp::Write { blade: 0, page: 1 }, FailoverOp::Fail { blade: 0 }],
            FailoverScope::small(),
            &["example".into()],
        );
        assert!(text.contains("c.write(0, PageKey::new(0, 1)"));
        assert!(text.contains("c.fail_blade(0)"));
    }
}
