//! Replayed operation traces, checked step-by-step with the full shadow +
//! structural audit.
//!
//! This module is the landing pad for counterexamples: when an exploration
//! in `tests/exploration.rs` fails, it prints the shortest violating trace
//! in exactly this form — paste it here, fix the bug, and the trace stays
//! as a permanent regression test. The bounded explorations of this repo's
//! seed found no violations, so the module is seeded with three known-good
//! traces that walk the protocol's trickiest corridors end to end.

use ys_check::cache_model::{CacheModel, Op, Scope};
use ys_check::explore::Model;
use ys_check::virt_model::{VirtModel, VirtOp};

fn replay_cache(scope: Scope, trace: &[Op]) {
    let mut m = CacheModel::new(scope);
    for (i, &op) in trace.iter().enumerate() {
        let violations = m.apply(op);
        assert!(violations.is_empty(), "step {i} ({op:?}): {}", violations.join("; "));
    }
}

fn replay_virt(trace: &[VirtOp]) {
    let mut m = VirtModel::default();
    for (i, &op) in trace.iter().enumerate() {
        let violations = m.apply(op);
        assert!(violations.is_empty(), "step {i} ({op:?}): {}", violations.join("; "));
    }
}

/// §6.1's headline corridor: a 3-way write survives two blade failures via
/// replica promotion, destages from the promoted owner, and the blades come
/// back clean.
#[test]
fn replica_promotion_through_double_failure() {
    replay_cache(
        Scope { blades: 4, pages: 2, n_way: 3, capacity_pages: 8 },
        &[
            Op::Write { blade: 0, page: 0 },
            Op::Fail { blade: 0 },
            Op::Fail { blade: 1 },
            Op::Destage { page: 0 },
            Op::Repair { blade: 0 },
            Op::Repair { blade: 1 },
            Op::Write { blade: 0, page: 0 },
        ],
    );
}

/// Coherence churn: sharers installed by reads are invalidated by a remote
/// write, ownership migrates between blades, and an invalidate resets the
/// page's version history without tripping monotonicity.
#[test]
fn ownership_migration_and_version_reset() {
    replay_cache(
        Scope { blades: 3, pages: 2, n_way: 2, capacity_pages: 8 },
        &[
            Op::Write { blade: 0, page: 1 },
            Op::Destage { page: 1 },
            Op::Read { blade: 1, page: 1 },
            Op::Read { blade: 2, page: 1 },
            Op::Write { blade: 1, page: 1 },
            Op::Write { blade: 2, page: 1 },
            Op::Invalidate { page: 1 },
            Op::Write { blade: 0, page: 1 },
        ],
    );
}

/// Eviction pressure: tiny per-blade capacity forces clean evictions under
/// a miss/fill storm while a dirty protected page stays pinned.
#[test]
fn dirty_pages_survive_eviction_pressure() {
    replay_cache(
        Scope { blades: 2, pages: 4, n_way: 2, capacity_pages: 2 },
        &[
            Op::Write { blade: 0, page: 0 },
            Op::Read { blade: 0, page: 1 },
            Op::Read { blade: 0, page: 2 },
            Op::Read { blade: 0, page: 3 },
            Op::Read { blade: 1, page: 1 },
            Op::Read { blade: 1, page: 2 },
            Op::Destage { page: 0 },
        ],
    );
}

/// DMSD conservation through the full snapshot lifecycle: thin allocation,
/// copy-on-write redirect, rollback to the frozen image, snapshot delete,
/// and TRIM back to empty.
#[test]
fn dmsd_snapshot_lifecycle_conserves_blocks() {
    replay_virt(&[
        VirtOp::Write { volume: 0, offset: 0 },
        VirtOp::Write { volume: 0, offset: 2 },
        VirtOp::Snapshot { volume: 0 },
        VirtOp::Write { volume: 0, offset: 0 }, // redirect-on-write
        VirtOp::RollbackNewest { volume: 0 },
        VirtOp::DeleteOldestSnapshot { volume: 0 },
        VirtOp::Unmap { volume: 0, offset: 0 },
        VirtOp::Unmap { volume: 0, offset: 2 },
    ]);
}

/// Overcommitted pool: two full 4-extent volumes and a snapshot's
/// redirects over 10 physical extents hit out-of-space; failed
/// allocations must not leak.
#[test]
fn dmsd_out_of_space_leaks_nothing() {
    replay_virt(&[
        VirtOp::Write { volume: 0, offset: 0 },
        VirtOp::Write { volume: 0, offset: 2 },
        VirtOp::Write { volume: 1, offset: 0 },
        VirtOp::Write { volume: 1, offset: 2 },
        VirtOp::Snapshot { volume: 0 },
        VirtOp::Write { volume: 0, offset: 0 }, // redirect takes the last 2 extents
        VirtOp::Write { volume: 0, offset: 2 }, // pool exhausted
        VirtOp::Unmap { volume: 1, offset: 2 },
        VirtOp::Write { volume: 0, offset: 2 }, // freed space reusable
    ]);
}
