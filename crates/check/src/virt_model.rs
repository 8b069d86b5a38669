//! Model-checker harness for [`ys_virt::VolumeManager`] — the DMSD
//! allocation machinery of paper §3.
//!
//! The shadow invariant is **allocated-block conservation**: every physical
//! extent's refcount equals the number of volume images (live maps plus
//! frozen snapshot maps) referencing it, and `used_extents` counts exactly
//! the extents with nonzero refcount. Thin provisioning, redirect-on-write,
//! snapshot delete, and rollback all move references around; a leak or a
//! double-free shows up here immediately.

use crate::explore::{violations_header, Counterexample, Model};
use crate::summary::StandardModel;
use crate::hash::StateHasher;
use std::collections::HashMap;
use ys_virt::{PhysicalPool, SnapshotId, VolumeId, VolumeKind, VolumeManager};

/// One operation in the bounded DMSD scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VirtOp {
    /// Demand-map / overwrite a 2-extent run at `offset`.
    Write { volume: u32, offset: u64 },
    /// TRIM a 2-extent run at `offset`.
    Unmap { volume: u32, offset: u64 },
    /// Freeze the live map.
    Snapshot { volume: u32 },
    /// Delete the oldest snapshot.
    DeleteOldestSnapshot { volume: u32 },
    /// Roll the live image back to the newest snapshot.
    RollbackNewest { volume: u32 },
    /// Move a mapped run onto fresh extents (host-transparent relocation).
    Relocate { volume: u32, offset: u64 },
}

/// Exploration bounds for the DMSD model.
#[derive(Clone, Copy, Debug)]
pub struct VirtScope {
    pub volumes: u32,
    /// Virtual size of each volume, in extents.
    pub volume_extents: u64,
    /// Physical pool size, in extents (smaller than the sum of volume
    /// sizes, so overcommit/out-of-space paths are reachable).
    pub pool_extents: u64,
    /// Snapshots per volume are capped to keep the space bounded.
    pub max_snapshots: usize,
    /// Write/unmap granularity.
    pub run_len: u64,
}

impl VirtScope {
    pub fn small() -> VirtScope {
        VirtScope { volumes: 2, volume_extents: 4, pool_extents: 10, max_snapshots: 2, run_len: 2 }
    }
}

/// The real volume manager plus scope bookkeeping.
#[derive(Clone)]
pub struct VirtModel {
    scope: VirtScope,
    mgr: VolumeManager,
}

impl VirtModel {
    pub fn new(scope: VirtScope) -> VirtModel {
        let mut mgr = VolumeManager::new(PhysicalPool::new(scope.pool_extents, 1 << 20));
        for v in 0..scope.volumes {
            mgr.create(format!("vol{v}"), v, VolumeKind::DemandMapped, scope.volume_extents)
                .expect("DMSD creation allocates nothing");
        }
        VirtModel { scope, mgr }
    }

    /// Conservation audit: refcounts ⇔ references from live + frozen maps.
    fn audit_conservation(&self) -> Vec<String> {
        let mut violations = Vec::new();

        // Count references the catalog actually holds on each extent.
        let mut held: HashMap<u64, u32> = HashMap::new();
        for vol in self.mgr.volumes() {
            for run in vol.map.runs() {
                for p in run.pstart..run.pstart + run.len {
                    *held.entry(p).or_default() += 1;
                }
            }
            for snap in &vol.snapshots {
                for run in snap.map.runs() {
                    for p in run.pstart..run.pstart + run.len {
                        *held.entry(p).or_default() += 1;
                    }
                }
            }
        }

        let pool = self.mgr.pool();
        let mut used = 0u64;
        for p in 0..pool.total_extents() {
            let rc = pool.refcount(p);
            if rc > 0 {
                used += 1;
            }
            let expected = held.get(&p).copied().unwrap_or(0);
            if rc != expected {
                violations.push(format!(
                    "conservation: extent {p} refcount {rc} but {expected} map references"
                ));
            }
        }
        if used != pool.used_extents() {
            violations.push(format!(
                "conservation: pool reports {} used extents but {used} have refs",
                pool.used_extents()
            ));
        }

        if let Err(e) = self.mgr.check() {
            violations.push(format!("internal-check: {e}"));
        }
        violations
    }
}

impl Model for VirtModel {
    type Op = VirtOp;

    fn enumerate_ops(&self) -> Vec<VirtOp> {
        let mut ops = Vec::new();
        let offsets: Vec<u64> =
            (0..self.scope.volume_extents).step_by(self.scope.run_len as usize).collect();
        for volume in 0..self.scope.volumes {
            for &offset in &offsets {
                ops.push(VirtOp::Write { volume, offset });
                ops.push(VirtOp::Unmap { volume, offset });
            }
            ops.push(VirtOp::Snapshot { volume });
            ops.push(VirtOp::DeleteOldestSnapshot { volume });
            ops.push(VirtOp::RollbackNewest { volume });
            ops.push(VirtOp::Relocate { volume, offset: 0 });
        }
        ops
    }

    fn apply(&mut self, op: VirtOp) -> Vec<String> {
        let run = self.scope.run_len;
        match op {
            VirtOp::Write { volume, offset } => {
                let _ = self.mgr.write(VolumeId(volume), offset, run);
            }
            VirtOp::Unmap { volume, offset } => {
                let _ = self.mgr.unmap(VolumeId(volume), offset, run);
            }
            VirtOp::Snapshot { volume } => {
                let at_cap = self
                    .mgr
                    .volume(VolumeId(volume))
                    .map(|v| v.snapshots.len() >= self.scope.max_snapshots)
                    .unwrap_or(true);
                if !at_cap {
                    let _ = self.mgr.snapshot(VolumeId(volume));
                }
            }
            VirtOp::DeleteOldestSnapshot { volume } => {
                let oldest: Option<SnapshotId> = self
                    .mgr
                    .volume(VolumeId(volume))
                    .and_then(|v| v.snapshots.first().map(|s| s.id));
                if let Some(sid) = oldest {
                    let _ = self.mgr.delete_snapshot(VolumeId(volume), sid);
                }
            }
            VirtOp::RollbackNewest { volume } => {
                let newest: Option<SnapshotId> = self
                    .mgr
                    .volume(VolumeId(volume))
                    .and_then(|v| v.snapshots.last().map(|s| s.id));
                if let Some(sid) = newest {
                    let _ = self.mgr.rollback(VolumeId(volume), sid);
                }
            }
            VirtOp::Relocate { volume, offset } => {
                let _ = self.mgr.relocate(VolumeId(volume), offset, self.scope.volume_extents);
                let _ = offset;
            }
        }
        self.audit_conservation()
    }

    fn canonical_hash(&self) -> u128 {
        let mut h = StateHasher::new();
        // Physical identity matters (allocation picks specific extents), so
        // hash the exact refcount vector plus every map verbatim.
        let pool = self.mgr.pool();
        for p in 0..pool.total_extents() {
            h.write_u64(pool.refcount(p) as u64);
        }
        h.boundary();
        for vol in self.mgr.volumes() {
            h.write_u64(vol.id.0 as u64);
            h.write_u64(vol.size_extents);
            for r in vol.map.runs() {
                h.write_u64(r.vstart);
                h.write_u64(r.pstart);
                h.write_u64(r.len);
            }
            h.boundary();
            for snap in &vol.snapshots {
                h.write_u64(snap.id.0 as u64);
                for r in snap.map.runs() {
                    h.write_u64(r.vstart);
                    h.write_u64(r.pstart);
                    h.write_u64(r.len);
                }
                h.boundary();
            }
            h.boundary();
        }
        h.finish()
    }
}

impl StandardModel for VirtModel {
    fn describe(&self, depth: usize) -> String {
        let s = self.scope;
        format!(
            "DMSD model, {} volumes × {} extents over a {}-extent pool, depth {depth}",
            s.volumes, s.volume_extents, s.pool_extents
        )
    }

    fn render_counterexample(&self, cx: &Counterexample<VirtOp>) -> String {
        render_virt_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render a DMSD counterexample trace as a ready-to-paste regression test.
fn render_virt_trace(trace: &[VirtOp], scope: VirtScope, violations: &[String]) -> String {
    let mut out = violations_header(violations);
    out.push_str(&format!(
        "let mut m = VolumeManager::new(PhysicalPool::new({}, 1 << 20));\n",
        scope.pool_extents
    ));
    for v in 0..scope.volumes {
        out.push_str(&format!(
            "m.create(\"vol{v}\", {v}, VolumeKind::DemandMapped, {}).unwrap();\n",
            scope.volume_extents
        ));
    }
    for op in trace {
        let line = match *op {
            VirtOp::Write { volume, offset } => {
                format!("let _ = m.write(VolumeId({volume}), {offset}, {});", scope.run_len)
            }
            VirtOp::Unmap { volume, offset } => {
                format!("let _ = m.unmap(VolumeId({volume}), {offset}, {});", scope.run_len)
            }
            VirtOp::Snapshot { volume } => format!("let _ = m.snapshot(VolumeId({volume}));"),
            VirtOp::DeleteOldestSnapshot { volume } => format!(
                "if let Some(s) = m.volume(VolumeId({volume})).and_then(|v| \
                 v.snapshots.first().map(|s| s.id)) {{ let _ = \
                 m.delete_snapshot(VolumeId({volume}), s); }}"
            ),
            VirtOp::RollbackNewest { volume } => format!(
                "if let Some(s) = m.volume(VolumeId({volume})).and_then(|v| \
                 v.snapshots.last().map(|s| s.id)) {{ let _ = m.rollback(VolumeId({volume}), s); \
                 }}"
            ),
            VirtOp::Relocate { volume, offset } => format!(
                "let _ = m.relocate(VolumeId({volume}), {offset}, {});",
                scope.volume_extents
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("m.check().unwrap();\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn initial_state_conserves() {
        let m = VirtModel::new(VirtScope::small());
        assert_eq!(m.audit_conservation(), Vec::<String>::new());
    }

    #[test]
    fn snapshot_and_redirect_keep_conservation() {
        let mut m = VirtModel::new(VirtScope::small());
        assert!(m.apply(VirtOp::Write { volume: 0, offset: 0 }).is_empty());
        assert!(m.apply(VirtOp::Snapshot { volume: 0 }).is_empty());
        assert!(m.apply(VirtOp::Write { volume: 0, offset: 0 }).is_empty());
        assert!(m.apply(VirtOp::DeleteOldestSnapshot { volume: 0 }).is_empty());
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope =
            VirtScope { volumes: 1, volume_extents: 4, pool_extents: 6, max_snapshots: 1, run_len: 2 };
        let result = explore_timed(
            VirtModel::new(scope),
            Limits { max_depth: 5, max_states: 50_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_virt_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 50);
    }
}
