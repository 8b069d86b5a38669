//! Blade lifecycle transitions of [`CacheCluster`]: a blade fails (its
//! dirty pages promote a surviving replica or are lost), is repaired,
//! revived and promoted back to `Up`, joins new, or drains with zero
//! loss. Each closes the change journal: a blade's state is an input to
//! every page's audit verdict.

use super::{
    BladeCacheStats, BladeSlot, BladeState, CacheCluster, CacheError, DrainReport, FailureReport, PageMeta,
    Residency,
};
use crate::directory::{DirEntry, PageKey};
use crate::lru::{LruList, Retention};

/// Promote `survivor`'s pinned replica of `key` to the page's dirty owner:
/// the survivor owns the page and leaves its replica set, and its copy
/// becomes the Modified one in place (its key is already held there).
/// Takes the directory entry its caller already looked up.
fn promote(blades: &mut [BladeSlot], e: &mut DirEntry, survivor: usize, key: PageKey, retention: Retention) {
    e.owner = Some(survivor);
    e.replicas.retain(|&r| r != survivor);
    if let Some(meta) = blades[survivor].lru.get_mut(&key) {
        *meta = PageMeta::modified(retention, e.version);
    }
}

impl CacheCluster {
    /// Fail a blade: every copy it held vanishes. Dirty pages survive iff a
    /// replica lives on an up blade (promoted to owner); otherwise lost.
    pub fn fail_blade(&mut self, blade: usize) -> FailureReport {
        let mut report = FailureReport::default();
        if self.blades[blade].state == BladeState::Down {
            return report;
        }
        self.close_journal();
        self.blades[blade].state = BladeState::Down;
        let resident = std::mem::take(&mut self.blades[blade].lru);
        for (&key, meta) in resident.iter() {
            let e: &mut DirEntry = self.directory.entry(key);
            e.sharers.retain(|&s| s != blade);
            e.replicas.retain(|&r| r != blade);
            match meta.residency {
                Residency::Cached { dirty: true, .. } => {
                    debug_assert_eq!(e.owner, Some(blade));
                    e.owner = None;
                    // Promote the first surviving replica.
                    if let Some(&survivor) = e.replicas.first() {
                        promote(&mut self.blades, e, survivor, key, meta.retention);
                        self.trace.instant("cache", "promote", survivor as u32, key.page, blade as u64);
                        report.promoted.push(key);
                    } else {
                        self.trace.instant("cache", "lost", blade as u32, key.page, key.volume as u64);
                        report.lost.push(key);
                        let version = e.version;
                        if !e.is_cached_anywhere() {
                            self.directory.remove(&key);
                        }
                        // Tombstone the loss: reads must surface it
                        // explicitly rather than miss to stale disk data.
                        self.lost.insert(key, version);
                    }
                }
                Residency::Cached { dirty: false, .. } | Residency::Replica => {
                    if e.owner == Some(blade) {
                        e.owner = None;
                    }
                    if !e.is_cached_anywhere() && e.replicas.is_empty() {
                        self.directory.remove(&key);
                    }
                }
            }
            self.note_change(key);
        }
        report
    }

    /// Bring a failed blade back, empty.
    pub fn repair_blade(&mut self, blade: usize) {
        self.close_journal();
        self.blades[blade].state = BladeState::Up;
    }

    /// Admit a previously failed blade back into the cluster, empty, in
    /// `Rejoining` state: it accepts new data immediately but is only
    /// promoted to `Up` once the healer converges
    /// ([`CacheCluster::finish_rejoin`]).
    pub fn revive_blade(&mut self, blade: usize) -> Result<(), CacheError> {
        match self.blades.get_mut(blade) {
            Some(slot) if slot.state == BladeState::Down => {
                slot.state = BladeState::Rejoining;
                self.close_journal();
                self.trace.instant("cache", "revive", blade as u32, 0, 0);
                Ok(())
            }
            Some(_) => Err(CacheError::BadState),
            None => Err(CacheError::BladeDown(blade)),
        }
    }

    /// Promote a `Rejoining` blade to full `Up` membership (the healer calls
    /// this once no page is below its fault-tolerance target). Returns
    /// whether a transition happened.
    pub fn finish_rejoin(&mut self, blade: usize) -> bool {
        match self.blades.get_mut(blade) {
            Some(slot) if slot.state == BladeState::Rejoining => {
                slot.state = BladeState::Up;
                self.close_journal();
                self.trace.instant("cache", "rejoin_done", blade as u32, 0, 0);
                true
            }
            _ => false,
        }
    }

    /// Grow the cluster by one brand-new blade (§2.1's scale-by-adding-
    /// blades): it joins in `Rejoining` state, folds into directory home
    /// placement, and starts taking fills and replicas immediately.
    /// Returns the new blade's id.
    pub fn add_blade(&mut self, capacity_pages: usize) -> usize {
        self.close_journal();
        self.blades.push(BladeSlot::new(capacity_pages, BladeState::Rejoining));
        let id = self.directory.add_blade();
        self.stats.per_blade.push(BladeCacheStats::default());
        self.trace.instant("cache", "add_blade", id as u32, 0, 0);
        id
    }

    /// Planned shutdown: evacuate every copy `blade` holds, with zero loss
    /// of acknowledged writes, then take it `Down`.
    ///
    /// Dirty owner pages hand off to an existing replica (promote) or are
    /// copied to a fresh accepting peer (move); pinned replicas are
    /// re-placed where possible and otherwise recorded for the healer;
    /// clean shared copies are simply dropped (disk has the data). If a
    /// dirty page has no eligible peer the blade stays `Draining` and the
    /// returned report has `completed == false` — the caller should free
    /// space (destage) and call again.
    pub fn drain_blade(&mut self, blade: usize) -> Result<DrainReport, CacheError> {
        if self.blades[blade].state == BladeState::Down {
            return Err(CacheError::BladeDown(blade));
        }
        self.close_journal();
        self.blades[blade].state = BladeState::Draining;
        let mut report = DrainReport::default();
        let keys: Vec<PageKey> = self.blades[blade].lru.iter().map(|(&key, _)| key).collect();
        for key in keys {
            let meta = match self.blades[blade].lru.get(&key) {
                Some(m) => m.clone(),
                None => continue,
            };
            match meta.residency {
                Residency::Cached { dirty: true, .. } => {
                    let promote_to =
                        self.directory.get(&key).and_then(|e| e.replicas.first().copied());
                    if let Some(survivor) = promote_to {
                        // Free hand-off: an up-to-date replica becomes owner.
                        promote(&mut self.blades, self.directory.entry(key), survivor, key, meta.retention);
                        self.trace.instant("cache", "drain_promote", survivor as u32, key.page, blade as u64);
                        report.promoted.push(key);
                    } else {
                        // No replica: the dirty data must be copied out. A
                        // peer's clean sharer copy upgrades in place (a
                        // replica is impossible here: replicas imply the
                        // promote path above).
                        let Some(target) = self.peer_with_room(key, blade, true) else {
                            // Nowhere to put an acknowledged write: stay
                            // Draining rather than lose it.
                            report.completed = false;
                            return Ok(report);
                        };
                        let version = {
                            let e = self.directory.entry(key);
                            e.sharers.retain(|&s| s != target);
                            e.owner = Some(target);
                            e.version
                        };
                        self.blades[target].lru.put_held(key, PageMeta::modified(meta.retention, version));
                        self.trace.instant("cache", "drain_move", target as u32, key.page, blade as u64);
                        report.moved.push(key);
                    }
                    self.blades[blade].lru.remove(&key);
                    self.note_change(key);
                }
                Residency::Cached { dirty: false, .. } => {
                    self.blades[blade].lru.remove(&key);
                    self.detach_holder(key, blade);
                    report.clean_dropped += 1;
                }
                Residency::Replica => {
                    self.blades[blade].lru.remove(&key);
                    self.directory.entry(key).replicas.retain(|&r| r != blade);
                    self.note_change(key);
                    // Re-place elsewhere when possible; otherwise the owner
                    // still holds the dirty data and the healer catches up.
                    match self.add_replica(key) {
                        Ok(_) => report.replicas_moved.push(key),
                        Err(_) => report.replicas_dropped.push(key),
                    }
                }
            }
        }
        debug_assert!(self.blades[blade].lru.is_empty());
        self.blades[blade].state = BladeState::Down;
        self.blades[blade].lru = LruList::new();
        report.completed = true;
        self.trace.instant("cache", "drain_done", blade as u32, report.evacuated() as u64, report.clean_dropped);
        Ok(report)
    }
}
