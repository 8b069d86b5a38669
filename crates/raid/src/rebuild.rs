//! Distributed rebuild coordination (§2.4, §6.3).
//!
//! "Rebuilds would be distributed, in a fault tolerant fashion, across the
//! controllers within the cluster. If a controller failed during a rebuild,
//! the rebuild would automatically continue on other available controllers."
//!
//! The coordinator owns a queue of stripe-row batches. Worker blades claim
//! batches, perform the member reads + replacement write for each row, and
//! report completion. A worker failure returns its outstanding batch to the
//! queue, so progress is never lost — merely re-queued.

use crate::layout::Geometry;
use crate::plan::{IoPlan, MemberIo};
use std::collections::BTreeMap;
use ys_simcore::SpanRecorder;

/// A contiguous range of stripe rows `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RowBatch {
    pub start: u64,
    pub end: u64,
}

impl RowBatch {
    pub fn rows(&self) -> u64 {
        self.end - self.start
    }
}

/// The member I/O to rebuild `rows` consecutive stripe rows in one pass:
/// a single large sequential read per surviving member and one large
/// sequential write to the replacement. Real rebuilds batch exactly like
/// this — per-row I/O would pay a head seek per row once several workers
/// interleave, destroying the §2.4 scaling the batching preserves.
pub fn rebuild_batch_plan(geo: &Geometry, failed_member: usize, start_row: u64, rows: u64) -> IoPlan {
    assert!(rows > 0);
    let mut plan = IoPlan::default();
    let offset = start_row * geo.chunk_size;
    let bytes = rows * geo.chunk_size;
    for m in 0..geo.members {
        if m != failed_member {
            plan.reads.push(MemberIo { member: m, offset, bytes, write: false });
        }
    }
    plan.writes.push(MemberIo { member: failed_member, offset, bytes, write: true });
    plan
}

/// Work-queue coordinator for one rebuild.
#[derive(Clone, Debug)]
pub struct RebuildCoordinator {
    geo: Geometry,
    failed_member: usize,
    batch_rows: u64,
    total_rows: u64,
    /// Next unclaimed row frontier.
    next_row: u64,
    /// Batches returned by failed workers, served before the frontier.
    requeued: Vec<RowBatch>,
    /// Outstanding claims per worker.
    /// Ordered: progress audits iterate outstanding claims by worker id.
    claims: BTreeMap<usize, RowBatch>,
    completed_rows: u64,
    /// Ledger of completed batches, for the exact-once coverage audit.
    completed: Vec<RowBatch>,
    trace: SpanRecorder,
}

impl RebuildCoordinator {
    pub fn new(geo: Geometry, failed_member: usize, member_capacity: u64, batch_rows: u64) -> RebuildCoordinator {
        assert!(failed_member < geo.members);
        assert!(batch_rows > 0);
        RebuildCoordinator {
            geo,
            failed_member,
            batch_rows,
            total_rows: member_capacity / geo.chunk_size,
            next_row: 0,
            requeued: Vec::new(),
            claims: BTreeMap::new(),
            completed_rows: 0,
            completed: Vec::new(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// Structured trace of rebuild phases (disabled by default). The
    /// orchestrator driving workers calls `trace_mut().set_now(..)` as
    /// simulated time advances.
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    pub fn failed_member(&self) -> usize {
        self.failed_member
    }

    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Claim the next batch for `worker`. Returns `None` when no work
    /// remains unclaimed (the rebuild may still be finishing elsewhere).
    pub fn claim(&mut self, worker: usize) -> Option<RowBatch> {
        assert!(!self.claims.contains_key(&worker), "worker {worker} already holds a batch");
        let batch = if let Some(b) = self.requeued.pop() {
            b
        } else if self.next_row < self.total_rows {
            let start = self.next_row;
            let end = (start + self.batch_rows).min(self.total_rows);
            self.next_row = end;
            RowBatch { start, end }
        } else {
            return None;
        };
        self.claims.insert(worker, batch);
        self.trace.instant("raid", "claim", worker as u32, batch.start, batch.end);
        Some(batch)
    }

    /// Worker reports its claimed batch done, and gets it back; `None`
    /// (and nothing recorded) when the worker holds no batch.
    pub fn complete(&mut self, worker: usize) -> Option<RowBatch> {
        let batch = self.claims.remove(&worker)?;
        self.completed_rows += batch.rows();
        self.completed.push(batch);
        self.trace.instant("raid", "complete", worker as u32, batch.start, batch.end);
        Some(batch)
    }

    /// Worker died: its outstanding batch (if any) returns to the queue.
    pub fn fail_worker(&mut self, worker: usize) {
        if let Some(batch) = self.claims.remove(&worker) {
            self.trace.instant("raid", "requeue", worker as u32, batch.start, batch.end);
            self.requeued.push(batch);
        }
    }

    pub fn is_done(&self) -> bool {
        self.completed_rows == self.total_rows
    }

    /// Rows currently claimed but not yet completed.
    // lint: allow(dead-pub) — (b) the leaked-claim check of the core rebuild failure tests
    pub fn outstanding(&self) -> u64 {
        self.claims.values().map(|b| b.rows()).sum()
    }

    /// Exact-once coverage audit: every row in `[0, total_rows)` must be
    /// accounted for by exactly one of {completed ledger, outstanding
    /// claim, requeued batch, unclaimed frontier}. A row covered twice
    /// means a batch was rebuilt twice (requeue after complete); a row
    /// covered zero times means a crashed worker's claim leaked and the
    /// rows will never be rebuilt. Returns human-readable violations
    /// (empty = healthy); valid at any point in the rebuild, not just at
    /// the end.
    pub fn audit_coverage(&self) -> Vec<String> {
        let mut intervals: Vec<(u64, u64, &str)> = Vec::new();
        for b in &self.completed {
            intervals.push((b.start, b.end, "completed"));
        }
        for b in self.claims.values() {
            intervals.push((b.start, b.end, "claimed"));
        }
        for b in &self.requeued {
            intervals.push((b.start, b.end, "requeued"));
        }
        if self.next_row < self.total_rows {
            intervals.push((self.next_row, self.total_rows, "frontier"));
        }
        intervals.sort_unstable();
        let mut violations = Vec::new();
        let mut cursor = 0u64;
        for (s, e, kind) in intervals {
            if s < cursor {
                violations.push(format!(
                    "rows [{s}, {}) covered more than once (overlapping {kind} batch)",
                    cursor.min(e)
                ));
            } else if s > cursor {
                violations.push(format!("rows [{cursor}, {s}) never covered"));
            }
            cursor = cursor.max(e);
        }
        if cursor < self.total_rows {
            violations.push(format!("rows [{cursor}, {}) never covered", self.total_rows));
        }
        let ledger: u64 = self.completed.iter().map(|b| b.rows()).sum();
        if ledger != self.completed_rows {
            violations.push(format!(
                "completed ledger has {ledger} rows but the counter says {}",
                self.completed_rows
            ));
        }
        violations
    }

    pub fn progress(&self) -> f64 {
        if self.total_rows == 0 {
            1.0
        } else {
            self.completed_rows as f64 / self.total_rows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RaidLevel;

    fn coord(batch: u64) -> RebuildCoordinator {
        let geo = Geometry::new(RaidLevel::Raid5, 4, 64 * 1024);
        // 100 rows worth of member capacity.
        RebuildCoordinator::new(geo, 2, 100 * 64 * 1024, batch)
    }

    #[test]
    fn batches_cover_all_rows_exactly_once() {
        let mut c = coord(7);
        let mut covered = [false; 100];
        let mut worker = 0usize;
        while let Some(b) = c.claim(worker) {
            for r in b.start..b.end {
                assert!(!covered[r as usize], "row {r} double-claimed");
                covered[r as usize] = true;
            }
            c.complete(worker);
            worker += 1;
        }
        assert!(covered.iter().all(|&x| x));
        assert!(c.is_done());
        assert_eq!(c.progress(), 1.0);
    }

    #[test]
    fn failed_worker_batch_is_requeued() {
        let mut c = coord(10);
        let b1 = c.claim(1).unwrap();
        let _b2 = c.claim(2).unwrap();
        c.fail_worker(1);
        // Another worker picks up exactly the abandoned batch.
        let b3 = c.claim(3).unwrap();
        assert_eq!(b3, b1, "requeued batch served first");
        c.complete(2);
        c.complete(3);
        // Finish the rest.
        while c.claim(9).is_some() {
            c.complete(9);
        }
        assert!(c.is_done());
    }

    #[test]
    fn fail_worker_without_claim_is_noop() {
        let mut c = coord(10);
        c.fail_worker(42);
        assert!(!c.is_done());
        // Completing without a claim records nothing either.
        assert_eq!(c.complete(42), None);
        assert!(c.audit_coverage().is_empty());
        let b = c.claim(42).unwrap();
        assert_eq!(c.complete(42), Some(b));
    }

    #[test]
    fn rebuild_row_plan_reads_survivors_writes_replacement() {
        let geo = Geometry::new(RaidLevel::Raid5, 5, 64 * 1024);
        let plan = rebuild_batch_plan(&geo, 3, 17, 1);
        assert_eq!(plan.reads.len(), 4);
        assert!(plan.reads.iter().all(|io| io.member != 3));
        assert_eq!(plan.writes.len(), 1);
        assert_eq!(plan.writes[0].member, 3);
        assert_eq!(plan.writes[0].offset, 17 * 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "already holds")]
    fn double_claim_panics() {
        let mut c = coord(10);
        c.claim(1).unwrap();
        c.claim(1).unwrap();
    }

    #[test]
    fn crash_between_claim_and_complete_keeps_exact_coverage() {
        let mut c = coord(9);
        // Worker 1 claims and crashes before completing; worker 2 claims,
        // completes, then crashes (its batch must NOT requeue).
        let b1 = c.claim(1).unwrap();
        c.fail_worker(1);
        assert!(c.audit_coverage().is_empty(), "requeued batch still covered: {:?}", c.audit_coverage());
        let _b2 = c.claim(2).unwrap();
        c.complete(2);
        c.fail_worker(2);
        assert!(c.audit_coverage().is_empty(), "completed batch survives late crash");
        // Drain with crashes interleaved every other claim.
        let mut w = 10usize;
        while let Some(b) = c.claim(w) {
            if w.is_multiple_of(2) {
                c.fail_worker(w);
            } else {
                c.complete(w);
            }
            assert!(c.audit_coverage().is_empty(), "mid-rebuild audit after batch {b:?}");
            w += 1;
        }
        // Requeued remnants of the crashed workers still drain.
        while !c.is_done() {
            if c.claim(w).is_some() {
                c.complete(w);
            }
            w += 1;
        }
        assert!(c.audit_coverage().is_empty());
        assert_eq!(c.completed.iter().map(|b| b.rows()).sum::<u64>(), 100);
        let _ = b1;
    }

    #[test]
    fn coverage_audit_is_not_vacuous() {
        // Leaked claim: drop a claimed batch without complete/fail.
        let mut c = coord(10);
        c.claim(1).unwrap();
        c.claims.remove(&1);
        let v = c.audit_coverage();
        assert!(v.iter().any(|m| m.contains("never covered")), "leak undetected: {v:?}");

        // Double rebuild: a completed batch requeued again.
        let mut c = coord(10);
        let b = c.claim(1).unwrap();
        c.complete(1);
        c.requeued.push(b);
        let v = c.audit_coverage();
        assert!(v.iter().any(|m| m.contains("more than once")), "double-cover undetected: {v:?}");

        // Ledger/counter drift.
        let mut c = coord(10);
        c.claim(1).unwrap();
        c.complete(1);
        c.completed_rows += 1;
        let v = c.audit_coverage();
        assert!(v.iter().any(|m| m.contains("counter")), "drift undetected: {v:?}");
    }
}
