//! What [`CacheCluster`]'s transitions keep besides the directory, and
//! the audits that check it: the change journal behind
//! [`CacheCluster::audit_checkpoint`], the heal queue and the health it
//! feeds, the held-list views, the loss tombstones, and the read-only
//! views external auditors canonicalize state from.

use super::{BladeState, CacheCluster, Health, Residency, ResidentPage};
use crate::directory::PageKey;
use crate::lru::Retention;

/// Notes the change journal takes before it closes. Fixed, so an open
/// journal costs a `CacheCluster` (and every clone of it) 1 KiB at most;
/// the chaos campaigns, which checkpoint every step, peak at 11 notes.
pub(super) const JOURNAL_CAPACITY: usize = 64;

impl CacheCluster {
    /// Put `key` in the change journal, if one is open. On its own this ends
    /// the one transition that cannot move a page's replica margin — a
    /// clean install, on the read path — at the price of this branch.
    pub(super) fn note_touch(&mut self, key: PageKey) {
        #[cfg(test)]
        if self.skip_change_notes {
            return;
        }
        if let Some(journal) = &mut self.journal {
            if journal.len() < JOURNAL_CAPACITY {
                journal.push(key);
            } else {
                self.journal = None;
            }
        }
    }

    /// Every transition that changes a page's owner, replica set or
    /// protection target ends with this: the page goes in the change
    /// journal, and its heal-queue entry is re-derived from its directory
    /// entry.
    pub(super) fn note_change(&mut self, key: PageKey) {
        #[cfg(test)]
        if self.skip_change_notes {
            return;
        }
        self.note_touch(key);
        let missing = match self.directory.get(&key) {
            Some(e) if e.owner.is_some() => e.protect.saturating_sub(1 + e.replicas.len()),
            _ => 0,
        };
        if missing > 0 {
            self.deficit.insert(key, missing);
        } else {
            self.deficit.remove(&key);
        }
    }

    /// Close the change journal: the next checkpoint audits everything.
    /// Every blade lifecycle transition does, because a blade's state is an
    /// input to every page's verdict (who may hold a copy, which references
    /// dangle) and no per-page note can stand for that; so does
    /// `acknowledge_loss`, the tombstones being audited as a set.
    pub(super) fn close_journal(&mut self) {
        self.journal = None;
    }

    /// Fraction of the pooled cache holding un-destaged state: dirty
    /// owner pages plus their protection replicas, over the pooled
    /// capacity of up blades. This is the backpressure signal the QoS
    /// admission controller keys off (`ys-qos`): a high dirty ratio
    /// means writes are outrunning destage and new low-priority work
    /// should be delayed or shed. Returns 0 when no capacity is up.
    pub fn dirty_ratio(&self) -> f64 {
        let capacity = self.pooled_capacity();
        if capacity == 0 {
            return 0.0;
        }
        let undestaged: usize =
            self.blades.iter().filter(|b| b.serving()).map(|b| b.lru.held_len()).sum();
        undestaged as f64 / capacity as f64
    }

    /// Pages currently dirty at `blade` (owner copies awaiting destage), in
    /// key order. Read off the blade's held list — dirty owner copies and
    /// replicas, nothing else — so the cost follows what is dirty, not what
    /// is resident.
    pub fn dirty_pages(&self, blade: usize) -> Vec<PageKey> {
        let mut dirty: Vec<PageKey> = self.blades[blade]
            .lru
            .held_iter()
            .filter(|(_, m)| matches!(m.residency, Residency::Cached { dirty: true, .. }))
            .map(|(&key, _)| key)
            .collect();
        dirty.sort_unstable();
        dirty
    }

    /// Dirty pages below their fault-tolerance target, with the deficit
    /// (missing replica count) — the healer's work queue. Sorted by key.
    pub fn under_target_pages(&self) -> Vec<(PageKey, usize)> {
        self.under_target_iter().collect()
    }

    /// Allocation-free variant of [`CacheCluster::under_target_pages`]: the
    /// queue's length and its head, in page-key order.
    pub fn under_target_iter(&self) -> impl ExactSizeIterator<Item = (PageKey, usize)> + '_ {
        self.deficit.iter().map(|(&key, &missing)| (key, missing))
    }

    /// Cluster health from surviving replica margins — the degraded-mode
    /// governor's input (severity-ordered; see [`Health`]).
    pub fn health(&self) -> Health {
        if self.read_only() {
            return Health::ReadOnly;
        }
        // An acked protected write with zero surviving replicas: the next
        // owner failure loses it.
        let exhausted = |key| self.directory.get(key).is_some_and(|e| e.replicas.is_empty());
        if self.deficit.keys().any(exhausted) {
            Health::Critical
        } else if !self.deficit.is_empty()
            || self.blades.iter().any(|b| matches!(b.state, BladeState::Draining | BladeState::Rejoining))
        {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }

    /// Fewer than two blades accept data, so no write can be
    /// replica-protected: the [`Health::ReadOnly`] condition on its own,
    /// for the write gate that needs no severity.
    pub fn read_only(&self) -> bool {
        self.blades.iter().filter(|b| b.accepting()).count() < 2
    }

    /// Outstanding data-loss tombstones: `(page, lost version)` sorted by
    /// key. Non-empty means an acknowledged write is gone and nothing has
    /// accepted responsibility for it yet.
    pub fn lost_pages(&self) -> Vec<(PageKey, u64)> {
        self.lost.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// True when `key` carries an unacknowledged loss tombstone.
    pub fn is_lost(&self, key: PageKey) -> bool {
        self.lost.contains_key(&key)
    }

    /// Explicitly accept a data loss (operator restored from backup,
    /// application re-created the data, or the loss was recorded upstream).
    /// Clears the tombstone so the page becomes cacheable again; returns
    /// the lost version if one was outstanding.
    pub fn acknowledge_loss(&mut self, key: PageKey) -> Option<u64> {
        self.close_journal();
        self.lost.remove(&key)
    }

    /// Read-only view of every page resident at `blade`, streamed in key
    /// order: a blade of at most 16 pages is walked without allocating.
    /// External auditors (the `ys-check` model checker) canonicalize
    /// cluster state from this once per explored transition.
    pub fn resident_pages_iter(&self, blade: usize) -> impl Iterator<Item = ResidentPage> + '_ {
        self.blades[blade].lru.iter().map(|(key, m)| ResidentPage {
            key: *key,
            replica: matches!(m.residency, Residency::Replica),
            dirty: matches!(m.residency, Residency::Cached { dirty: true, .. }),
            retention: m.retention,
            version: m.version,
        })
    }

    /// Recency order (most- to least-recent) of one retention band at
    /// `blade` — the part of blade state that decides future evictions.
    /// Bands list clean pages only: dirty and replica pages are held out of
    /// them until destage.
    pub fn lru_order_iter(&self, blade: usize, band: Retention) -> impl Iterator<Item = &PageKey> + '_ {
        self.blades[blade].lru.band_iter(band)
    }

    /// Audit every coherence invariant, returning all violations. See
    /// [`crate::invariants`] for the rule catalogue.
    pub fn audit_invariants(&self) -> Vec<crate::invariants::Violation> {
        crate::invariants::audit(self)
    }

    /// [`CacheCluster::audit_invariants`] for a caller that asks after every
    /// step: the same verdict, and the same violations in the same order,
    /// for the price of what changed since the last clean answer.
    ///
    /// A clean answer opens the change journal. While it is open the next
    /// call re-audits only the journalled pages and the per-blade totals
    /// (`invariants::audit_touched`, the same rule bodies); if that is clean, so is
    /// the full scan, and the journal restarts empty. A closed journal or
    /// any finding at all falls back to the full scan, which stays the
    /// specification and the only reporter; a violation leaves the journal
    /// closed. Debug builds assert "incremental clean ⇒ full clean" on
    /// every call.
    pub fn audit_checkpoint(&mut self) -> Vec<crate::invariants::Violation> {
        if let Some(mut journal) = self.journal.take() {
            journal.sort_unstable();
            journal.dedup();
            if crate::invariants::audit_touched(self, &journal).is_empty() {
                debug_assert_eq!(self.audit_invariants(), vec![], "checkpoint audit of {journal:?} missed these");
                self.stats.audits_incremental += 1;
                self.stats.audit_keys_checked += journal.len() as u64;
                journal.clear();
                self.journal = Some(journal);
                return Vec::new();
            }
        }
        self.stats.audits_full += 1;
        let violations = self.audit_invariants();
        if violations.is_empty() {
            self.journal = Some(Vec::with_capacity(JOURNAL_CAPACITY));
        }
        violations
    }

    /// Verify the coherence invariants; returns a description of the first
    /// violation. Convenience wrapper over [`CacheCluster::audit_invariants`]
    /// kept for call sites that only need pass/fail.
    // lint: allow(dead-pub) — (b) the pass/fail invariant oracle the cluster and root tests run
    pub fn check_invariants(&self) -> Result<(), String> {
        match self.audit_invariants().first() {
            None => Ok(()),
            Some(v) => Err(v.to_string()),
        }
    }
}
