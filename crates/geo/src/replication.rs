//! Remote replication engine (§6.2, §7.2): synchronous mirrors and
//! write-ordered asynchronous journals, with measurable loss windows.
//!
//! "An asynchronous replication approach has been available where every
//! write is written, in the order of the writes, to a remote volume. This
//! solution still leaves a significant window for data loss." The journal
//! here preserves exactly that semantics so E9 can measure the window.

use crate::topology::SiteId;
use std::collections::{BTreeMap, VecDeque};
use ys_simcore::time::SimTime;
use ys_simcore::SpanRecorder;

/// One replicated write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WriteRecord {
    /// Global order stamp (per source site).
    pub seq: u64,
    /// File identity (inode number).
    pub file: u64,
    pub offset: u64,
    pub len: u64,
    /// When the host write happened.
    pub created: SimTime,
}

/// Per-destination journal: FIFO, shipped strictly in order.
///
/// Shipping is two-phase. [`ReplicationEngine::ship_begin`] moves records
/// from `queue` to `inflight`; once the orchestrator has confirmed delivery
/// it calls [`ReplicationEngine::ship_confirm`], which is the only place
/// `last_shipped_seq` advances. A transfer that dies
/// mid-batch calls [`ReplicationEngine::ship_abort`], which requeues the
/// inflight records at the *front* of the queue so the acknowledged prefix
/// stays gapless: nothing is counted shipped that was not applied, and
/// nothing applied is ever re-sent (no double-apply, no skip).
#[derive(Clone, Debug, Default)]
struct Journal {
    queue: VecDeque<WriteRecord>,
    /// Popped by `ship_begin`, not yet confirmed or aborted.
    inflight: VecDeque<WriteRecord>,
    pending_bytes: u64,
    last_shipped_seq: Option<u64>,
}

/// The engine: one journal per (source, destination) site pair.
#[derive(Clone, Debug)]
pub struct ReplicationEngine {
    /// Ordered: `advance` walks every journal per step, and WAN-loss
    /// accounting must visit site pairs in the same order on every replay.
    journals: BTreeMap<(SiteId, SiteId), Journal>,
    next_seq: u64,
    trace: SpanRecorder,
}

impl Default for ReplicationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplicationEngine {
    pub fn new() -> ReplicationEngine {
        ReplicationEngine {
            journals: BTreeMap::new(),
            next_seq: 0,
            trace: SpanRecorder::disabled(),
        }
    }

    /// Structured trace of replication batches (disabled by default). `ship`
    /// and `source_cut` are untimed; the orchestrator calls
    /// `trace_mut().set_now(..)` before them.
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    fn stamp(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Enqueue an asynchronous replica write from `src` toward `dst`.
    pub fn enqueue(&mut self, src: SiteId, dst: SiteId, file: u64, offset: u64, len: u64, now: SimTime) -> u64 {
        let seq = self.stamp();
        let j = self.journals.entry((src, dst)).or_default();
        j.queue.push_back(WriteRecord { seq, file, offset, len, created: now });
        j.pending_bytes += len;
        self.trace.instant_at(now, "geo", "enqueue", dst.0 as u32, seq, len);
        seq
    }

    /// Ship up to `max_bytes` from the (src, dst) journal, strictly in
    /// write order, assuming delivery cannot fail. Equivalent to
    /// [`ship_begin`] + [`ship_confirm`] of the whole batch — orchestrators
    /// that can lose a transfer mid-batch (WAN partition, site crash) must
    /// use the two-phase calls instead.
    ///
    /// [`ship_begin`]: ReplicationEngine::ship_begin
    /// [`ship_confirm`]: ReplicationEngine::ship_confirm
    pub fn ship(&mut self, src: SiteId, dst: SiteId, max_bytes: u64) -> Vec<WriteRecord> {
        let out = self.ship_begin(src, dst, max_bytes);
        if let Some(last) = out.last() {
            self.ship_confirm(src, dst, last.seq);
        }
        out
    }

    /// Phase one: pop up to `max_bytes` of records into the inflight set
    /// and return copies for the orchestrator to deliver. Shipped counters
    /// do not move yet. A `ship_begin` while records are already inflight
    /// returns an empty batch — the previous batch must be confirmed or
    /// aborted first (one outstanding batch per journal keeps write order).
    pub fn ship_begin(&mut self, src: SiteId, dst: SiteId, max_bytes: u64) -> Vec<WriteRecord> {
        let Some(j) = self.journals.get_mut(&(src, dst)) else {
            return vec![];
        };
        if !j.inflight.is_empty() {
            return vec![];
        }
        let mut out = Vec::new();
        let mut budget = max_bytes;
        while let Some(front) = j.queue.front() {
            if front.len > budget && !out.is_empty() {
                break;
            }
            // Always ship at least one record even if it exceeds the budget,
            // so giant writes cannot wedge the journal.
            let Some(rec) = j.queue.pop_front() else { break };
            budget = budget.saturating_sub(rec.len);
            j.pending_bytes -= rec.len;
            j.inflight.push_back(rec);
            out.push(rec);
            if budget == 0 {
                break;
            }
        }
        if !out.is_empty() {
            let bytes: u64 = out.iter().map(|r| r.len).sum();
            self.trace.instant("geo", "ship", dst.0 as u32, out.len() as u64, bytes);
        }
        out
    }

    /// Phase two (success): the destination has durably applied every
    /// inflight record with `seq <= through_seq`. Advances the acknowledged
    /// prefix. Records beyond `through_seq`
    /// stay inflight for a later confirm or abort.
    pub fn ship_confirm(&mut self, src: SiteId, dst: SiteId, through_seq: u64) {
        let Some(j) = self.journals.get_mut(&(src, dst)) else {
            return;
        };
        while let Some(front) = j.inflight.front() {
            if front.seq > through_seq {
                break;
            }
            let Some(rec) = j.inflight.pop_front() else { break };
            if let Some(last) = j.last_shipped_seq {
                debug_assert!(rec.seq > last, "journal order violated");
            }
            j.last_shipped_seq = Some(rec.seq);
        }
    }

    /// Phase two (failure): the transfer died before the remaining inflight
    /// records were applied. They return to the *front* of the queue in
    /// order, so the next `ship_begin` re-sends exactly the unacknowledged
    /// suffix — no record is skipped and none is counted twice. Returns the
    /// number of records requeued.
    pub fn ship_abort(&mut self, src: SiteId, dst: SiteId) -> usize {
        let Some(j) = self.journals.get_mut(&(src, dst)) else {
            return 0;
        };
        let n = j.inflight.len();
        while let Some(rec) = j.inflight.pop_back() {
            j.pending_bytes += rec.len;
            j.queue.push_front(rec);
        }
        if n > 0 {
            self.trace.instant("geo", "ship_abort", dst.0 as u32, n as u64, 0);
        }
        n
    }

    /// Records currently inflight (begun, neither confirmed nor aborted).
    pub fn inflight(&self, src: SiteId, dst: SiteId) -> u64 {
        match self.journals.get(&(src, dst)) {
            Some(j) => j.inflight.len() as u64,
            None => 0,
        }
    }

    /// Writes and bytes not yet shipped from `src` to `dst`.
    pub fn pending(&self, src: SiteId, dst: SiteId) -> (u64, u64) {
        match self.journals.get(&(src, dst)) {
            Some(j) => (j.queue.len() as u64, j.pending_bytes),
            None => (0, 0),
        }
    }

    /// The source site is destroyed: every pending (unshipped) async write
    /// toward every destination is lost, and so is anything inflight —
    /// begun but never confirmed applied. Returns them — this IS the data
    /// loss window the paper contrasts sync against.
    pub fn source_cut(&mut self, src: SiteId) -> Vec<WriteRecord> {
        let mut lost = Vec::new();
        for ((s, _), j) in self.journals.iter_mut() {
            if *s == src {
                lost.extend(j.inflight.drain(..));
                lost.extend(j.queue.drain(..));
                j.pending_bytes = 0;
            }
        }
        lost.sort_by_key(|r| r.seq);
        if !lost.is_empty() {
            let bytes: u64 = lost.iter().map(|r| r.len).sum();
            self.trace.instant("geo", "source_cut", src.0 as u32, lost.len() as u64, bytes);
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SiteId = SiteId(0);
    const B: SiteId = SiteId(1);
    const C: SiteId = SiteId(2);

    #[test]
    fn ships_in_write_order() {
        let mut e = ReplicationEngine::new();
        for i in 0..10u64 {
            e.enqueue(A, B, 1, i * 100, 100, SimTime(i));
        }
        let shipped = e.ship(A, B, u64::MAX);
        let seqs: Vec<u64> = shipped.iter().map(|r| r.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(shipped.len(), 10);
        assert_eq!(e.pending(A, B), (0, 0));
    }

    #[test]
    fn ship_respects_byte_budget() {
        let mut e = ReplicationEngine::new();
        for i in 0..5u64 {
            e.enqueue(A, B, 1, i * 100, 100, SimTime::ZERO);
        }
        let first = e.ship(A, B, 250);
        assert_eq!(first.len(), 2, "two 100-byte writes fit the 250-byte budget");
        let rest = e.ship(A, B, u64::MAX);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn oversized_write_still_ships_alone() {
        let mut e = ReplicationEngine::new();
        e.enqueue(A, B, 1, 0, 1_000_000, SimTime::ZERO);
        let shipped = e.ship(A, B, 10);
        assert_eq!(shipped.len(), 1, "giant write cannot wedge the journal");
    }

    #[test]
    fn journals_are_per_destination() {
        let mut e = ReplicationEngine::new();
        e.enqueue(A, B, 1, 0, 10, SimTime::ZERO);
        e.enqueue(A, C, 1, 0, 20, SimTime::ZERO);
        assert_eq!(e.pending(A, B), (1, 10));
        assert_eq!(e.pending(A, C), (1, 20));
        e.ship(A, B, u64::MAX);
        assert_eq!(e.pending(A, B), (0, 0));
        assert_eq!(e.pending(A, C), (1, 20), "C's journal untouched");
    }

    #[test]
    fn source_cut_loses_exactly_the_pending_writes() {
        let mut e = ReplicationEngine::new();
        for i in 0..6u64 {
            e.enqueue(A, B, 1, i, 1, SimTime(i));
        }
        e.ship(A, B, 3); // 3 made it out
        let lost = e.source_cut(A);
        assert_eq!(lost.len(), 3, "unshipped tail is the loss window");
        assert!(lost.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn aborted_batch_is_resent_without_gap_or_double_count() {
        let mut e = ReplicationEngine::new();
        for i in 0..6u64 {
            e.enqueue(A, B, 1, i * 100, 100, SimTime(i));
        }
        // Begin a 3-record batch, then the link dies before delivery.
        let batch = e.ship_begin(A, B, 300);
        assert_eq!(batch.len(), 3);
        assert_eq!(e.inflight(A, B), 3);
        assert_eq!(e.journals[&(A, B)].last_shipped_seq, None, "nothing confirmed yet");
        assert_eq!(e.ship_abort(A, B), 3);
        assert_eq!(e.inflight(A, B), 0);
        assert_eq!(e.pending(A, B), (6, 600), "aborted records are pending again");
        // After heal the full sequence ships exactly once, in order.
        let resent = e.ship(A, B, u64::MAX);
        let seqs: Vec<u64> = resent.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>());
        assert_eq!(e.journals[&(A, B)].last_shipped_seq, Some(5));
    }

    #[test]
    fn partial_confirm_keeps_the_unacked_suffix_inflight() {
        let mut e = ReplicationEngine::new();
        for i in 0..4u64 {
            e.enqueue(A, B, 1, i, 50, SimTime(i));
        }
        let batch = e.ship_begin(A, B, u64::MAX);
        assert_eq!(batch.len(), 4);
        // Only the first two landed before the partition.
        e.ship_confirm(A, B, batch[1].seq);
        assert_eq!(e.journals[&(A, B)].last_shipped_seq, Some(batch[1].seq));
        assert_eq!(e.inflight(A, B), 2);
        // Second begin while a batch is outstanding returns nothing.
        assert!(e.ship_begin(A, B, u64::MAX).is_empty());
        e.ship_abort(A, B);
        let resent = e.ship(A, B, u64::MAX);
        let seqs: Vec<u64> = resent.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![batch[2].seq, batch[3].seq], "exactly the unacked suffix");
        assert_eq!(e.journals[&(A, B)].last_shipped_seq, Some(batch[3].seq), "no record skipped");
    }

    #[test]
    fn source_cut_counts_inflight_as_lost() {
        let mut e = ReplicationEngine::new();
        for i in 0..5u64 {
            e.enqueue(A, B, 1, i, 1, SimTime(i));
        }
        let batch = e.ship_begin(A, B, 2);
        assert_eq!(batch.len(), 2);
        let lost = e.source_cut(A);
        assert_eq!(lost.len(), 5, "inflight-but-unconfirmed writes are lost too");
        assert!(lost.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
