//! Model-checker harness for [`ys_cache::CacheCluster`].
//!
//! Wraps the real cluster (no mock) in shadow bookkeeping that encodes the
//! paper's guarantees independently of the implementation:
//!
//! * **write-version monotonicity** — re-writes of a live page always bump
//!   its version (§6.3's coherent single image: readers can order writes);
//! * **durability** (§6.1) — every `Fail`'s losses are judged by
//!   [`ys_cache::durability`]'s [`LossLedger`], as the chaos oracle's are:
//!   a loss within budget, untracked or silent is a violation;
//! * promotion legality on every `Fail` (`failover_model.rs`);
//! * plus the full structural audit in [`ys_cache::invariants`] after every
//!   step.
//!
//! Canonical hashing normalizes version counters to their *rank order* so
//! that states differing only in absolute version numbers — unreachable to
//! distinguish by any future operation — deduplicate, keeping the bounded
//! space finite.
//!
//! The module also holds what every model on a `CacheCluster` shares —
//! this one and [`crate::heal_model`]: the [`Scope`], the cluster half of
//! the canonical hash and the counterexample preamble.

use crate::explore::{violations_header, Counterexample, Model};
use crate::failover_model::{self, Prior};
use crate::hash::StateHasher;
use crate::summary::StandardModel;
use std::collections::HashMap;
use ys_cache::durability::{self, LossLedger, Verdict};
use ys_cache::{CacheCluster, FixedHash, PageKey, ReadOutcome, Retention};

/// One operation in the bounded scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read at `blade`; on miss, fill from "disk" (the paper's read path).
    Read { blade: usize, page: u64 },
    /// N-way protected write at `blade`.
    Write { blade: usize, page: u64 },
    /// Destage (write-back) a page, unpinning its replicas.
    Destage { page: u64 },
    /// Drop every copy cluster-wide (volume rollback under the cache).
    Invalidate { page: u64 },
    /// Crash a blade.
    Fail { blade: usize },
    /// Bring a failed blade back, empty.
    Repair { blade: usize },
}

/// Bounds of the exploration: how many blades/pages, protection level, and
/// per-blade capacity.
#[derive(Clone, Copy, Debug)]
pub struct Scope {
    pub blades: usize,
    pub pages: u64,
    /// Total dirty copies per write (owner + replicas).
    pub n_way: usize,
    pub capacity_pages: usize,
}

impl Scope {
    /// The acceptance scope: 3 blades × 4 pages, 2-way writes.
    pub fn small() -> Scope {
        Scope { blades: 3, pages: 4, n_way: 2, capacity_pages: 8 }
    }
}

/// The real cluster plus the shadow observer.
pub struct CacheModel {
    scope: Scope,
    pub(crate) cluster: CacheCluster,
    /// Last version each live page was written at.
    last_written: ShadowMap<u64>,
    /// Outstanding protection promises for dirty pages.
    ledger: LossLedger,
}

/// A shadow map of a model on a `CacheCluster`. The hasher is fixed and
/// seedless, because SipHash would cost every explored transition and no
/// state depends on iteration order: the canonical hash sorts the rows it
/// takes from these maps.
pub(crate) type ShadowMap<V> = HashMap<PageKey, V, FixedHash>;

/// `clone_from` refills the cluster, the version map and the ledger in
/// their own buffers.
impl Clone for CacheModel {
    fn clone(&self) -> Self {
        let CacheModel { scope, cluster, last_written, ledger } = self;
        CacheModel { scope: *scope, cluster: cluster.clone(), last_written: last_written.clone(), ledger: ledger.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        let CacheModel { scope, cluster, last_written, ledger } = self;
        *scope = source.scope;
        cluster.clone_from(&source.cluster);
        last_written.clone_from(&source.last_written);
        ledger.clone_from(&source.ledger);
    }
}

/// The key of page `page` in the one volume the cluster models use.
pub(crate) fn key_of(page: u64) -> PageKey {
    PageKey::new(0, page)
}

impl CacheModel {
    pub fn new(scope: Scope) -> CacheModel {
        CacheModel {
            scope,
            cluster: CacheCluster::new(scope.blades, scope.capacity_pages),
            last_written: ShadowMap::default(),
            ledger: LossLedger::default(),
        }
    }

    /// For harnesses that audit the cluster through its `&mut` checkpoint;
    /// the model itself never does.
    // lint: allow(dead-pub) — (b) the checkpoint-vs-full-audit differential of tests/checkpoint_audit.rs
    pub fn cluster_mut(&mut self) -> &mut CacheCluster {
        &mut self.cluster
    }

    /// Apply `op` to the inner cluster and update the shadow, returning
    /// shadow-detected violations (structural audit happens separately).
    fn step(&mut self, op: Op) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            Op::Read { blade, page } => {
                let key = key_of(page);
                if let Ok(ReadOutcome::Miss) = self.cluster.read(blade, key) {
                    let _ = self.cluster.fill(blade, key, Retention::Normal);
                }
            }
            Op::Write { blade, page } => {
                let key = key_of(page);
                if let Ok(out) = self.cluster.write(blade, key, self.scope.n_way, Retention::Normal)
                {
                    if let Some(&prev) = self.last_written.get(&key) {
                        if out.version <= prev {
                            violations.push(format!(
                                "monotonicity: write of {key:?} returned v{} after v{prev}",
                                out.version
                            ));
                        }
                    }
                    self.last_written.insert(key, out.version);
                    self.ledger.open(key, out.version, 1 + out.replicas.len());
                }
            }
            Op::Destage { page } => {
                let key = key_of(page);
                if self.cluster.destage(key).is_ok() {
                    // Data is on disk: the in-cache protection promise ends.
                    self.ledger.close(key);
                }
            }
            Op::Invalidate { page } => {
                let key = key_of(page);
                self.cluster.invalidate_page(key);
                // Deliberate drop (rollback): both shadow entries reset.
                self.ledger.close(key);
                self.last_written.remove(&key);
            }
            Op::Fail { blade } => {
                // Who owned and replicated the pages this blade holds
                // before it dies, for the promotion check.
                let mut prior: Vec<Prior> = Vec::new();
                for (key, e) in self.cluster.directory().iter() {
                    if e.owner == Some(blade) || e.replicas.contains(&blade) {
                        prior.push(Prior { key: *key, owner: e.owner, replicas: e.replicas.clone() });
                    }
                }
                self.ledger.pre_crash(self.cluster.directory(), blade);
                let report = self.cluster.fail_blade(blade);
                failover_model::check_promotions(&self.cluster, blade, &report.promoted, &prior, &mut violations);
                for &key in &report.lost {
                    // Every write here is a client write: no loss is benign.
                    let verdict = self.ledger.judge(key, 1);
                    match (verdict, verdict.rule()) {
                        // The Nth-failure loss is the accepted limit.
                        (Verdict::AtLimit(_), _) | (_, None) => {}
                        (_, Some(rule)) => violations.push(format!("{rule}: {}", verdict.detail(key))),
                    }
                    if let Err(detail) = durability::check_loss_is_loud(&mut self.cluster, blade, key) {
                        violations.push(format!("{}: {detail}", durability::SILENT_LOSS));
                    }
                    self.last_written.remove(&key);
                    // The ledger has judged this loss; either way the
                    // tombstone is now accounted for, so clear it before the
                    // structural audit.
                    self.cluster.acknowledge_loss(key);
                }
            }
            Op::Repair { blade } => {
                self.cluster.repair_blade(blade);
            }
        }

        // Version bookkeeping resets when a page's directory entry vanishes
        // (eviction of the last copy, loss, invalidation): a later write
        // legitimately restarts its version counter.
        self.last_written.retain(|key, _| self.cluster.directory().get(key).is_some());

        violations
    }
}

impl Model for CacheModel {
    type Op = Op;

    fn enumerate_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for blade in 0..self.scope.blades {
            for page in 0..self.scope.pages {
                ops.push(Op::Read { blade, page });
                ops.push(Op::Write { blade, page });
            }
        }
        for page in 0..self.scope.pages {
            ops.push(Op::Destage { page });
            ops.push(Op::Invalidate { page });
        }
        for blade in 0..self.scope.blades {
            ops.push(Op::Fail { blade });
            ops.push(Op::Repair { blade });
        }
        ops
    }

    fn apply(&mut self, op: Op) -> Vec<String> {
        let mut violations = self.step(op);
        for v in self.cluster.audit_invariants() {
            violations.push(v.to_string());
        }
        violations
    }

    fn canonical_hash(&self) -> u128 {
        // Shadow state distinguishes paths the structural state alone may
        // not (protection promises judge *future* failures).
        hash_cluster(&self.cluster, self.scope, self.last_written.values().copied(), |_, rank, rows| {
            for (k, b) in self.ledger.iter() {
                rows.push([k.page, u64::from(b.copies), u64::from(b.failures), u64::MAX]);
            }
            for (k, &v) in &self.last_written {
                rows.push([k.page, u64::MAX, u64::MAX, rank(v)]);
            }
        })
    }
}

/// `(version ranks, shadow rows)` buffers reused across hash calls.
type HashScratch = (Vec<u64>, Vec<[u64; 4]>);

thread_local! {
    /// Scratch for [`hash_cluster`], which runs once per explored
    /// transition — the single hottest function in a `ys-check` run — so
    /// its buffers are recycled rather than allocated per call. One per
    /// thread, so explorations on different threads never share it.
    static HASH_SCRATCH: std::cell::RefCell<HashScratch> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The canonical hash of a model on a `CacheCluster` in `scope`: the
/// cluster's behavioral state, then the model's own shadow. `shadow` gets
/// the hasher, each version's rank and an empty row buffer: it hashes what
/// it walks in a fixed order and pushes the rest (hash-map entries) as
/// rows, which are hashed sorted. `shadow_versions` are the versions the
/// shadow holds; they join the ranks.
pub(crate) fn hash_cluster(
    cluster: &CacheCluster,
    scope: Scope,
    shadow_versions: impl Iterator<Item = u64>,
    shadow: impl FnOnce(&mut StateHasher, &dyn Fn(u64) -> u64, &mut Vec<[u64; 4]>),
) -> u128 {
    HASH_SCRATCH.with(|scratch| {
        let (versions, rows) = &mut *scratch.borrow_mut();
        versions.clear();
        rows.clear();
        let mut h = StateHasher::new();

        // Version-rank normalization: collect every version that is
        // currently observable, then hash each occurrence as its rank.
        // Absolute counter values can grow without bound, but no operation
        // can distinguish two states that order their versions identically.
        // The sort below makes the collection order irrelevant.
        for (_, e) in cluster.directory().iter_unordered() {
            versions.push(e.version);
        }
        for b in 0..scope.blades {
            versions.extend(cluster.resident_pages_unordered(b).map(|p| p.version));
        }
        versions.extend(shadow_versions);
        versions.sort_unstable();
        versions.dedup();
        let rank = |v: u64| versions.binary_search(&v).unwrap_or(usize::MAX) as u64;

        // Blade contents, index order; each blade table streams its pages
        // out key-sorted without allocating.
        let include_lru = scope.capacity_pages < scope.pages as usize;
        for b in 0..scope.blades {
            h.write_u64(cluster.blade_state(b) as u64);
            for p in cluster.resident_pages_iter(b) {
                h.write_u64(p.key.page);
                h.write_bool(p.replica);
                h.write_bool(p.dirty);
                h.write_u64(p.retention as u64);
                h.write_u64(rank(p.version));
            }
            h.boundary();
            if include_lru {
                // Recency order decides future evictions, so it is part of
                // behavioral state whenever eviction is reachable. The bands
                // list the clean pages only. The held list (dirty and
                // replica pages) is not hashed: membership is the
                // `dirty`/`replica` bits above, and its order cannot reach
                // any future transition — a page leaves it by removal or to
                // the front of its band.
                for band in [Retention::Low, Retention::Normal, Retention::High, Retention::Pinned] {
                    for key in cluster.lru_order_iter(b, band) {
                        h.write_u64(key.page);
                    }
                    h.boundary();
                }
            }
        }

        // Directory: `iter` walks the entries in key order (sorted on the
        // stack for the model's tiny directories), so iteration is
        // canonical. Sharer and replica lists keep their stored order:
        // replica order decides promotion on failure.
        for (key, e) in cluster.directory().iter() {
            h.write_u64(key.page);
            match e.owner {
                Some(o) => h.write_u64(1 + o as u64),
                None => h.write_u64(0),
            }
            for &s in &e.sharers {
                h.write_usize(s);
            }
            h.boundary();
            for &r in &e.replicas {
                h.write_usize(r);
            }
            h.boundary();
            h.write_u64(rank(e.version));
        }
        h.boundary();

        shadow(&mut h, &rank, rows);
        rows.sort_unstable();
        for row in rows.iter() {
            for &v in row {
                h.write_u64(v);
            }
        }
        h.finish()
    })
}

impl StandardModel for CacheModel {
    fn describe(&self, depth: usize) -> String {
        let s = self.scope;
        format!("cache model, {} blades × {} pages, {}-way writes, depth {depth}", s.blades, s.pages, s.n_way)
    }

    fn render_counterexample(&self, cx: &Counterexample<Op>) -> String {
        render_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render a counterexample trace as a ready-to-paste regression test body.
pub(crate) fn render_trace(trace: &[Op], scope: Scope, violations: &[String]) -> String {
    render_cluster_trace(trace, scope, violations, |op| match op {
        Op::Read { blade, page } => format!(
            "if let Ok(ReadOutcome::Miss) = c.read({blade}, PageKey::new(0, {page})) {{ \
             let _ = c.fill({blade}, PageKey::new(0, {page}), Retention::Normal); }}"
        ),
        Op::Write { blade, page } => format!(
            "let _ = c.write({blade}, PageKey::new(0, {page}), {}, Retention::Normal);",
            scope.n_way
        ),
        Op::Destage { page } => destage_line(page),
        Op::Invalidate { page } => format!("c.invalidate_page(PageKey::new(0, {page}));"),
        Op::Fail { blade } => fail_line(blade),
        Op::Repair { blade } => format!("c.repair_blade({blade});"),
    })
}

/// A counterexample on a `CacheCluster` in `scope` as a regression test:
/// the violations, the cluster, `line` for each op, and the closing audit.
pub(crate) fn render_cluster_trace<O: Copy>(
    trace: &[O],
    scope: Scope,
    violations: &[String],
    line: impl Fn(O) -> String,
) -> String {
    let mut out = violations_header(violations);
    out.push_str(&format!(
        "let mut c = CacheCluster::new({}, {});\n",
        scope.blades, scope.capacity_pages
    ));
    for &op in trace {
        out.push_str(&line(op));
        out.push('\n');
    }
    out.push_str("assert_eq!(c.audit_invariants(), vec![]);\n");
    out
}

/// The replay line of a destage, in every cluster model's rendering.
pub(crate) fn destage_line(page: u64) -> String {
    format!("let _ = c.destage(PageKey::new(0, {page}));")
}

/// The replay line of a blade crash, in every cluster model's rendering.
pub(crate) fn fail_line(blade: usize) -> String {
    format!("for key in c.fail_blade({blade}).lost {{ c.acknowledge_loss(key); }}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn initial_state_is_healthy() {
        let m = CacheModel::new(Scope::small());
        assert!(m.cluster.audit_invariants().is_empty());
    }

    #[test]
    fn hash_ignores_absolute_versions() {
        // Two clusters whose only difference is how many times the page was
        // rewritten (same final structure, different absolute counters).
        let scope = Scope::small();
        let mut a = CacheModel::new(scope);
        let mut b = CacheModel::new(scope);
        a.apply(Op::Write { blade: 0, page: 1 });
        b.apply(Op::Write { blade: 0, page: 1 });
        b.apply(Op::Write { blade: 0, page: 1 });
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn hash_distinguishes_dirty_from_clean() {
        let scope = Scope::small();
        let mut a = CacheModel::new(scope);
        let mut b = CacheModel::new(scope);
        a.apply(Op::Write { blade: 0, page: 1 });
        b.apply(Op::Write { blade: 0, page: 1 });
        b.apply(Op::Destage { page: 1 });
        assert_ne!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = Scope { blades: 2, pages: 2, n_way: 2, capacity_pages: 4 };
        let result = explore_timed(
            CacheModel::new(scope),
            Limits { max_depth: 4, max_states: 50_000 },
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
            Scope::small(),
            &["example".into()],
        );
        assert!(text.contains("c.write(0, PageKey::new(0, 1)"));
        assert!(text.contains("c.fail_blade(0)"));
    }
}
