//! The coherent pooled cache across controller blades (§2.2, §6.1, §6.3).
//!
//! Protocol: directory coherence at page granularity, with MSI's per-copy
//! states ([`PageState`]: Shared or Modified; a blade without the page is
//! Invalid) and MOSI's owned sharing: a read of a dirty page installs a
//! Shared copy while the owner keeps its Modified one — MOSI's Owned state,
//! without a state of its own — and only the owner's destage cleans it.
//!
//! * A **read** hits locally, hits remotely (copy supplied from any holder's
//!   cache — "each controller would read/write data from/to the cache of
//!   other controllers"), or misses to disk.
//! * A **write** obtains exclusivity (invalidating other holders), bumps the
//!   page's version, and places **N−1 dirty replicas** on peer blades before
//!   the host is acked; the replicas are pinned until destage (§6.1).
//! * A **blade failure** promotes a surviving replica to owner; data is lost
//!   only when a dirty page's owner *and* all its replicas are gone —
//!   exactly the N−1-failures guarantee the paper claims.
//!
//! [`CacheCluster`] is one type in four files, split on its seams:
//! * this one: the types, construction and accessors, and the directory
//!   transitions (read, fill, write with its peer placement, destage,
//!   invalidate, `add_replica`);
//! * `lifecycle`: blades come and go (fail with its replica promotion,
//!   repair, revive, `finish_rejoin`, drain);
//! * `books`: what the transitions keep besides the directory (the
//!   change journal, the heal queue, the held-list views, the loss
//!   tombstones) and the audits that check them;
//! * `tests`: the unit tests, under their long-standing module path.

use crate::directory::{DirEntry, Directory, PageKey, PageState};
use crate::lru::{LruList, Retention};
use std::collections::BTreeMap;
use ys_simcore::SpanRecorder;

mod books;
mod lifecycle;
#[cfg(test)]
mod tests;

/// Lifecycle state of one controller blade (§2.1's scale-by-adding-blades
/// plus §6.1's repair-after-failure). Blades move
/// `Up → Draining → Down → Rejoining → Up`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BladeState {
    /// Full participant.
    Up,
    /// Planned shutdown in progress: keeps serving what it holds but
    /// accepts no new data while [`CacheCluster::drain_blade`] evacuates it.
    Draining,
    /// Failed or shut down: holds nothing, serves nothing.
    Down,
    /// Admitted (back) into the cluster and taking new data, but counted
    /// as transitional until the healer converges and promotes it to `Up`.
    Rejoining,
}

impl std::fmt::Display for BladeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BladeState::Up => "up",
            BladeState::Draining => "draining",
            BladeState::Down => "down",
            BladeState::Rejoining => "rejoining",
        })
    }
}

/// Cluster health derived from surviving replica margins (the degraded-mode
/// governor's input). Ordered by severity: `Healthy < Degraded < Critical <
/// ReadOnly`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Health {
    /// Every protected page is at its fault-tolerance target and every
    /// blade is a full participant.
    Healthy,
    /// Redundancy below target somewhere (heal backlog outstanding) or a
    /// blade is mid-drain/rejoin — one more planned step from healthy.
    Degraded,
    /// Some acknowledged write's replica margin is exhausted: a protected
    /// dirty page has zero surviving replicas, so the next owner failure
    /// loses it.
    Critical,
    /// Fewer than two blades can accept data: no write can be protected at
    /// all, so governed writes are refused rather than silently accepted.
    ReadOnly,
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Critical => "critical",
            Health::ReadOnly => "read-only",
        })
    }
}

/// Why a page occupies a blade's cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Residency {
    /// Normal coherent copy (Shared or Modified per directory).
    Cached { state: PageState, dirty: bool },
    /// Pinned dirty replica protecting another blade's write.
    Replica,
}

impl Residency {
    /// Un-destaged state (a dirty owner copy or a replica): it must survive
    /// until destage, so its key is held out of the blade's eviction bands.
    pub(crate) fn held(self) -> bool {
        !matches!(self, Residency::Cached { dirty: false, .. })
    }
}

#[derive(Clone, Debug)]
pub(crate) struct PageMeta {
    pub(crate) residency: Residency,
    pub(crate) retention: Retention,
    pub(crate) version: u64,
}

impl PageMeta {
    /// The owner's dirty copy, held from the write until its destage.
    fn modified(retention: Retention, version: u64) -> PageMeta {
        PageMeta { residency: Residency::Cached { state: PageState::Modified, dirty: true }, retention, version }
    }
}

#[derive(Clone, Debug)]
pub(crate) struct BladeSlot {
    pub(crate) capacity_pages: usize,
    /// The blade's page table: every resident page's [`PageMeta`], the
    /// clean pages in recency order by retention band, and the held list —
    /// exactly the pages whose residency is [`Residency::held`]. Sweeps
    /// whose order reaches a report (blade failure, drain, the audit,
    /// `resident_pages_iter`) walk it in key order through [`LruList::iter`].
    pub(crate) lru: LruList<PageKey, PageMeta>,
    pub(crate) state: BladeState,
}

impl BladeSlot {
    fn new(capacity_pages: usize, state: BladeState) -> BladeSlot {
        BladeSlot { capacity_pages, lru: LruList::new(), state }
    }

    fn occupancy(&self) -> usize {
        self.lru.len()
    }

    /// Can serve the copies it holds (everything but `Down`).
    pub(crate) fn serving(&self) -> bool {
        self.state != BladeState::Down
    }

    /// Eligible to receive new data (fills, write replicas, heal targets).
    fn accepting(&self) -> bool {
        matches!(self.state, BladeState::Up | BladeState::Rejoining)
    }
}

/// Outcome of a read probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Requesting blade already holds the page.
    LocalHit,
    /// Another blade supplied the page from its cache.
    RemoteHit { from: usize },
    /// Nobody holds it: caller must fetch from disk, then `fill`.
    Miss,
}

/// Outcome of a write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Blades whose copies were invalidated.
    pub invalidated: Vec<usize>,
    /// Peer blades now holding pinned dirty replicas.
    pub replicas: Vec<usize>,
    /// New version of the page.
    pub version: u64,
}

/// Result of a blade failure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailureReport {
    /// Dirty pages whose ownership moved to a surviving replica.
    pub promoted: Vec<PageKey>,
    /// Dirty pages with no surviving replica: data loss.
    pub lost: Vec<PageKey>,
}

/// Result of a planned blade drain ([`CacheCluster::drain_blade`]).
/// Unlike a failure, a drain never loses an acknowledged write: every
/// dirty page is promoted or moved before the blade goes down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Dirty pages whose ownership transferred to an existing replica
    /// (free hand-off; the protection margin shrinks by one until healed).
    pub promoted: Vec<PageKey>,
    /// Dirty pages copied to a fresh owner (no replica existed).
    pub moved: Vec<PageKey>,
    /// Pinned replicas re-placed on another accepting blade.
    pub replicas_moved: Vec<PageKey>,
    /// Pinned replicas dropped for later healing (no eligible peer had
    /// room; the owner still holds the dirty data, so nothing is lost).
    pub replicas_dropped: Vec<PageKey>,
    /// Clean shared copies discarded (disk still holds the data).
    pub clean_dropped: u64,
    /// Whether the blade reached `Down`. `false` means a dirty page had no
    /// eligible peer: the blade stays `Draining` and the caller should free
    /// space (destage) and call [`CacheCluster::drain_blade`] again.
    pub completed: bool,
}

impl DrainReport {
    /// Fold a retried drain pass into an accumulated report.
    pub fn merge(&mut self, other: DrainReport) {
        self.promoted.extend(other.promoted);
        self.moved.extend(other.moved);
        self.replicas_moved.extend(other.replicas_moved);
        self.replicas_dropped.extend(other.replicas_dropped);
        self.clean_dropped += other.clean_dropped;
        self.completed = other.completed;
    }

    /// Dirty pages evacuated (promoted + moved) — the zero-loss workload.
    pub fn evacuated(&self) -> usize {
        self.promoted.len() + self.moved.len()
    }
}

/// Read-only snapshot of one resident page (see
/// [`CacheCluster::resident_pages_iter`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResidentPage {
    pub key: PageKey,
    /// Pinned dirty replica protecting another blade's write.
    pub replica: bool,
    /// Dirty owner copy awaiting destage.
    pub dirty: bool,
    pub retention: Retention,
    pub version: u64,
}

/// Aggregate statistics, with a per-blade breakdown for the `ys-obs`
/// observability layer (§6.3's hot-spot claim needs per-blade numbers).
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    pub local_hits: u64,
    pub remote_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub destages: u64,
    pub replica_placements: u64,
    /// Replicas re-established by the healer ([`CacheCluster::add_replica`]).
    pub heal_placements: u64,
    /// [`CacheCluster::audit_checkpoint`] calls answered by the full scan.
    pub audits_full: u64,
    /// Checkpoint calls answered from the change journal alone.
    pub audits_incremental: u64,
    /// Distinct journal pages those incremental checkpoints re-audited.
    pub audit_keys_checked: u64,
    /// Indexed by blade id; sized by [`CacheCluster::new`].
    pub per_blade: Vec<BladeCacheStats>,
}

/// One blade's share of the cache activity. Hits and misses are attributed
/// to the *requesting* blade; invalidations, evictions, and replica
/// placements to the blade whose slot changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BladeCacheStats {
    pub local_hits: u64,
    pub remote_hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub replicas_hosted: u64,
}

/// Errors surfaced to the orchestrator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheError {
    BladeDown(usize),
    /// Every resident page is dirty/pinned: the write must wait for destage.
    EvictionStall(usize),
    /// Page isn't in the expected state for the operation.
    BadState,
    /// The page's dirty owner and every replica failed before destage: the
    /// acknowledged version is gone and disk holds stale data. Reads refuse
    /// to serve until the loss is acknowledged or the page rewritten —
    /// surfacing the loss explicitly instead of a silent stale miss.
    DataLost(PageKey),
    /// The degraded-mode governor refused the write: fewer than two blades
    /// accept data, so no write can be replica-protected at all.
    ReadOnly,
    /// No accepting peer blade could take the copy (drain evacuation or
    /// heal placement): every candidate is down, draining, or saturated
    /// with dirty data. Transient — destage frees space.
    NoEligiblePeer,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::BladeDown(b) => write!(f, "blade {b} is down"),
            CacheError::EvictionStall(b) => write!(f, "blade {b} cache saturated with dirty data"),
            CacheError::BadState => write!(f, "page in unexpected coherence state"),
            CacheError::DataLost(k) => write!(f, "page {k:?}: acknowledged write lost (owner and all replicas failed)"),
            CacheError::ReadOnly => write!(f, "cluster is read-only: surviving replica margin exhausted"),
            CacheError::NoEligiblePeer => write!(f, "no accepting peer blade can hold the copy"),
        }
    }
}

impl std::error::Error for CacheError {}

/// The pooled, coherent blade-cache cluster.
///
/// ```
/// use ys_cache::{CacheCluster, PageKey, ReadOutcome, Retention};
///
/// let mut pool = CacheCluster::new(4, 1024);
/// let page = PageKey::new(0, 42);
/// // A 3-way protected write: the data survives any 2 blade failures.
/// let w = pool.write(0, page, 3, Retention::Normal).unwrap();
/// assert_eq!(w.replicas.len(), 2);
/// // Any blade can read it — blade 3 is supplied from a peer's cache.
/// assert!(matches!(pool.read(3, page).unwrap(), ReadOutcome::LocalHit | ReadOutcome::RemoteHit { .. }));
/// let report = pool.fail_blade(0);
/// assert!(report.lost.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct CacheCluster {
    pub(crate) blades: Vec<BladeSlot>,
    pub(crate) directory: Directory,
    /// Tombstones for dirty pages whose owner and every replica failed:
    /// page key → the version that was lost. Persist until the loss is
    /// acknowledged or the page is rewritten, so a total loss can never
    /// degrade into a silent miss that refetches stale disk data.
    pub(crate) lost: std::collections::BTreeMap<PageKey, u64>,
    /// The heal queue: every page with an owner and fewer replicas than its
    /// protection target, with the missing count. Maintained by
    /// [`CacheCluster::note_change`] in each transition that changes a
    /// page's owner, replicas or target; [`crate::invariants`] holds it
    /// equal to the directory scan it replaces.
    pub(crate) deficit: BTreeMap<PageKey, usize>,
    /// The change journal: every page [`CacheCluster::note_touch`] saw
    /// since the last clean [`CacheCluster::audit_checkpoint`], which is the
    /// only thing that opens it. `None` is *closed* — the next checkpoint
    /// audits everything: nobody has checkpointed yet, the last checkpoint
    /// found a violation, a blade changed lifecycle state (every page's
    /// verdict can move at once), or more than [`books::JOURNAL_CAPACITY`] notes
    /// arrived. Bookkeeping, not behaviour: no transition reads it.
    pub(crate) journal: Option<Vec<PageKey>>,
    /// Sabotage hook: transitions skip their change note.
    #[cfg(test)]
    pub(crate) skip_change_notes: bool,
    stats: CacheStats,
    trace: SpanRecorder,
}

impl CacheCluster {
    pub fn new(blade_count: usize, capacity_pages_per_blade: usize) -> CacheCluster {
        assert!(blade_count > 0);
        CacheCluster {
            blades: (0..blade_count).map(|_| BladeSlot::new(capacity_pages_per_blade, BladeState::Up)).collect(),
            directory: Directory::new(blade_count),
            lost: std::collections::BTreeMap::new(),
            deficit: BTreeMap::new(),
            journal: None,
            #[cfg(test)]
            skip_change_notes: false,
            stats: CacheStats {
                per_blade: vec![BladeCacheStats::default(); blade_count],
                ..CacheStats::default()
            },
            trace: SpanRecorder::disabled(),
        }
    }

    pub fn blade_count(&self) -> usize {
        self.blades.len()
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Structured trace of directory transitions (disabled by default).
    /// Orchestrators that own the simulated clock call
    /// `trace_mut().set_now(..)` before driving cache operations.
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    /// True while the blade can serve the copies it holds (anything but
    /// `Down`; a draining blade still serves until evacuation completes).
    pub fn blade_up(&self, b: usize) -> bool {
        self.blades.get(b).map(|s| s.serving()).unwrap_or(false)
    }

    /// Lifecycle state of blade `b` (out-of-range reads as `Down`).
    pub fn blade_state(&self, b: usize) -> BladeState {
        self.blades.get(b).map(|s| s.state).unwrap_or(BladeState::Down)
    }

    /// Pooled capacity across up blades, in pages (§2.2: "adding additional
    /// controller blades would increase the cache available to all").
    pub fn pooled_capacity(&self) -> usize {
        self.blades.iter().filter(|b| b.serving()).map(|b| b.capacity_pages).sum()
    }

    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    fn ensure_up(&self, b: usize) -> Result<(), CacheError> {
        if self.blade_up(b) {
            Ok(())
        } else {
            Err(CacheError::BladeDown(b))
        }
    }

    /// Make room for one page on `blade`, returning the page evicted for
    /// it. Dirty and replica pages are held out of the eviction bands —
    /// they must survive until destage. One eviction always suffices: a
    /// blade's capacity is fixed when it is created, and no blade ever
    /// holds more pages than that (the `Capacity` rule).
    fn make_room(&mut self, blade: usize) -> Result<Option<PageKey>, CacheError> {
        let slot = &mut self.blades[blade];
        if slot.occupancy() < slot.capacity_pages {
            return Ok(None);
        }
        let key = slot.lru.evict().ok_or(CacheError::EvictionStall(blade))?;
        self.detach_holder(key, blade);
        self.stats.evictions += 1;
        self.stats.per_blade[blade].evictions += 1;
        self.trace.instant("cache", "evict", blade as u32, key.page, key.volume as u64);
        Ok(Some(key))
    }

    /// The one placement order for copies of `key` off blade `except`:
    /// every accepting blade but `except`, from the page's home onward and
    /// wrapping, so copies spread by page hash. `cursor` is the caller's,
    /// a count rather than a borrow, so the caller can make room on one
    /// peer before asking for the next (who accepts does not change).
    fn next_peer(&self, key: PageKey, except: usize, cursor: &mut usize) -> Option<usize> {
        let n = self.blades.len();
        let start = key.home(n);
        while *cursor < n {
            let b = (start + *cursor) % n;
            *cursor += 1;
            if b != except && self.blades[b].accepting() {
                return Some(b);
            }
        }
        None
    }

    /// The first of `key`'s peers, other than `except`, that can take a
    /// copy, making room on it if need be; a peer saturated with dirty data
    /// is skipped. A peer that already holds `key` is taken as it is when
    /// `holder_ok` (a drain upgrades a clean sharer copy in place) and
    /// passed over otherwise (a heal replica goes to a blade without one).
    fn peer_with_room(&mut self, key: PageKey, except: usize, holder_ok: bool) -> Option<usize> {
        let mut cursor = 0;
        while let Some(b) = self.next_peer(key, except, &mut cursor) {
            if self.blades[b].lru.contains(&key) {
                if holder_ok {
                    return Some(b);
                }
            } else if self.make_room(b).is_ok() {
                return Some(b);
            }
        }
        None
    }

    /// Remove `blade` from a page's directory holder sets; drop the entry
    /// when nobody holds the page anymore.
    fn detach_holder(&mut self, key: PageKey, blade: usize) {
        let e = self.directory.entry(key);
        e.sharers.retain(|&s| s != blade);
        if e.owner == Some(blade) {
            e.owner = None;
        }
        if !e.is_cached_anywhere() && e.replicas.is_empty() {
            self.directory.remove(&key);
        }
        self.note_change(key);
    }

    /// Probe for a read at `blade`. Does not fill on miss — the caller
    /// fetches from disk and then calls [`CacheCluster::fill`], so the
    /// simulator can charge the disk time in between.
    pub fn read(&mut self, blade: usize, key: PageKey) -> Result<ReadOutcome, CacheError> {
        self.ensure_up(blade)?;
        if self.lost.contains_key(&key) {
            return Err(CacheError::DataLost(key));
        }
        // Any resident copy serves, a pinned dirty replica included: it
        // carries the current version, and the touch keeps it held.
        if self.blades[blade].lru.touch(&key) {
            self.stats.local_hits += 1;
            self.stats.per_blade[blade].local_hits += 1;
            return Ok(ReadOutcome::LocalHit);
        }
        // Find a remote holder.
        let holder = self.directory.get(&key).and_then(|e| {
            e.sharers.iter().copied().chain(e.owner).find(|&h| h != blade && self.blades[h].serving())
        });
        match holder {
            Some(from) => {
                self.install_shared(blade, key, Retention::Normal)?;
                self.stats.remote_hits += 1;
                self.stats.per_blade[blade].remote_hits += 1;
                self.trace.instant("cache", "remote_hit", blade as u32, key.page, from as u64);
                Ok(ReadOutcome::RemoteHit { from })
            }
            None => {
                self.stats.misses += 1;
                self.stats.per_blade[blade].misses += 1;
                self.trace.instant("cache", "miss", blade as u32, key.page, key.volume as u64);
                Ok(ReadOutcome::Miss)
            }
        }
    }

    /// Install a clean Shared copy at `blade` (after a disk fetch or a
    /// remote supply), returning the page evicted to make room for it.
    pub fn fill(&mut self, blade: usize, key: PageKey, retention: Retention) -> Result<Option<PageKey>, CacheError> {
        self.ensure_up(blade)?;
        if self.lost.contains_key(&key) {
            // A disk fetch can only supply the stale pre-loss version.
            return Err(CacheError::DataLost(key));
        }
        // A resident copy is only refreshed. Never displace a pinned
        // replica: it already holds the data and is protecting an
        // un-destaged write.
        if self.blades[blade].lru.touch(&key) {
            return Ok(None);
        }
        self.install_shared(blade, key, retention)
    }

    /// Install a clean Shared copy of a page `blade` does not hold.
    fn install_shared(&mut self, blade: usize, key: PageKey, retention: Retention) -> Result<Option<PageKey>, CacheError> {
        let evicted = self.make_room(blade)?;
        let version = self.directory.entry(key).version;
        self.blades[blade].lru.put(
            key,
            PageMeta { residency: Residency::Cached { state: PageState::Shared, dirty: false }, retention, version },
            retention,
        );
        let e = self.directory.entry(key);
        if e.owner != Some(blade) && !e.sharers.contains(&blade) {
            e.sharers.push(blade);
        }
        self.note_touch(key);
        Ok(evicted)
    }

    /// Perform a write at `blade` with `n_way` total dirty copies
    /// (1 = no replication; 2 = classic dual-controller; N = paper §6.1).
    pub fn write(
        &mut self,
        blade: usize,
        key: PageKey,
        n_way: usize,
        retention: Retention,
    ) -> Result<WriteOutcome, CacheError> {
        assert!(n_way >= 1);
        self.ensure_up(blade)?;
        // A fresh write redefines the page's contents: the lost version no
        // longer matters, so the tombstone clears.
        self.lost.remove(&key);

        // Reserve local space FIRST: if the cache is saturated with dirty
        // data we must fail before mutating any remote state, or the
        // directory would point at copies we already dropped.
        if !self.blades[blade].lru.contains(&key) {
            self.make_room(blade)?;
        }

        // Invalidate every other holder.
        let holders: Vec<usize> = match self.directory.get(&key) {
            Some(e) => e.holders().into_iter().filter(|&h| h != blade).collect(),
            None => vec![],
        };
        for h in &holders {
            self.blades[*h].lru.remove(&key);
            self.stats.invalidations += 1;
            self.stats.per_blade[*h].invalidations += 1;
            self.trace.instant("cache", "invalidate", *h as u32, key.page, blade as u64);
        }
        // Drop any stale replicas from a previous write generation.
        let old_replicas: Vec<usize> = self.directory.entry(key).replicas.clone();
        for r in old_replicas {
            if r != blade {
                self.blades[r].lru.remove(&key);
            }
        }

        // Install/refresh the exclusive copy locally (space reserved above).
        let version = {
            let e = self.directory.entry(key);
            e.version += 1;
            e.sharers.clear();
            e.owner = Some(blade);
            e.replicas.clear();
            e.protect = n_way;
            e.version
        };
        self.blades[blade].lru.put_held(key, PageMeta::modified(retention, version));
        self.trace.instant("cache", "modify", blade as u32, key.page, version);

        // Place N−1 pinned replicas on the first N−1 peers. A peer saturated
        // with dirty data is skipped, not replaced, rather than stall.
        let mut replicas = Vec::new();
        let mut cursor = 0;
        for _ in 1..n_way {
            let Some(target) = self.next_peer(key, blade, &mut cursor) else { break };
            if self.make_room(target).is_err() {
                continue;
            }
            self.blades[target].lru.put_held(key, PageMeta { residency: Residency::Replica, retention, version });
            replicas.push(target);
            self.stats.replica_placements += 1;
            self.stats.per_blade[target].replicas_hosted += 1;
            self.trace.instant("cache", "replica_place", target as u32, key.page, version);
        }
        self.directory.entry(key).replicas = replicas.clone();
        self.note_change(key);
        Ok(WriteOutcome { invalidated: holders, replicas, version })
    }

    /// Write-back to disk finished: unpin replicas, clean the owner copy.
    pub fn destage(&mut self, key: PageKey) -> Result<(), CacheError> {
        let (owner, replicas) = match self.directory.get(&key) {
            Some(e) => (e.owner, e.replicas.clone()),
            None => return Err(CacheError::BadState),
        };
        let owner = owner.ok_or(CacheError::BadState)?;
        for r in replicas {
            self.blades[r].lru.remove(&key);
        }
        let table = &mut self.blades[owner].lru;
        if let Some(meta) = table.get_mut(&key) {
            meta.residency = Residency::Cached { state: PageState::Shared, dirty: false };
            let retention = meta.retention;
            // Released from the held list to the front of its band.
            table.release(&key, retention);
        }
        let e = self.directory.entry(key);
        e.replicas.clear();
        e.owner = None;
        e.protect = 0;
        if !e.sharers.contains(&owner) {
            e.sharers.push(owner);
        }
        self.note_change(key);
        self.stats.destages += 1;
        self.trace.instant("cache", "destage", owner as u32, key.page, key.volume as u64);
        Ok(())
    }

    /// Drop every copy and replica of `key` cluster-wide (e.g. after a
    /// volume rollback invalidated the data under it).
    pub fn invalidate_page(&mut self, key: PageKey) {
        // Rollback administratively replaces the data under the page; a
        // pending loss tombstone is moot.
        self.lost.remove(&key);
        let holders: Vec<usize> = match self.directory.get(&key) {
            Some(e) => {
                let mut h = e.holders();
                h.extend(&e.replicas);
                h
            }
            None => return,
        };
        for b in holders {
            self.blades[b].lru.remove(&key);
        }
        self.directory.remove(&key);
        self.note_change(key);
    }

    /// Re-establish one pinned dirty replica for `key` on an accepting peer
    /// (the healer's unit of work). Returns the blade that took the copy.
    pub fn add_replica(&mut self, key: PageKey) -> Result<usize, CacheError> {
        let (owner, version) = match self.directory.get(&key) {
            Some(&DirEntry { owner: Some(owner), version, .. }) => (owner, version),
            _ => return Err(CacheError::BadState),
        };
        let retention = self.blades[owner].lru.get(&key).map_or(Retention::Normal, |m| m.retention);
        let target = self.peer_with_room(key, owner, false).ok_or(CacheError::NoEligiblePeer)?;
        self.blades[target].lru.put_held(key, PageMeta { residency: Residency::Replica, retention, version });
        self.directory.entry(key).replicas.push(target);
        self.note_change(key);
        self.stats.replica_placements += 1;
        self.stats.heal_placements += 1;
        self.stats.per_blade[target].replicas_hosted += 1;
        self.trace.instant("cache", "replica_heal", target as u32, key.page, version);
        Ok(target)
    }

    /// Write under the degraded-mode governor: refused with an explicit
    /// error (and audit trace event) when the cluster is [`Health::ReadOnly`]
    /// — better to fail the write than to accept data one more failure
    /// would silently lose.
    pub fn governed_write(
        &mut self,
        blade: usize,
        key: PageKey,
        n_way: usize,
        retention: Retention,
    ) -> Result<WriteOutcome, CacheError> {
        if self.read_only() {
            self.trace.instant("cache", "write_refused", blade as u32, key.page, key.volume as u64);
            return Err(CacheError::ReadOnly);
        }
        self.write(blade, key, n_way, retention)
    }
}
