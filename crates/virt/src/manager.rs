//! The volume manager: create/expand/delete/snapshot volumes over the
//! shared physical pool, demand mapping on write, redirect-on-write under
//! snapshots, and charge-back accounting (§3).

use crate::extent::{ExtentMap, Segment};
use crate::pool::{OutOfSpace, PhysicalPool};
use crate::volume::{Snapshot, SnapshotId, VirtualVolume, VolumeId, VolumeKind};
use std::collections::BTreeMap;
use ys_simcore::SpanRecorder;

/// What a write did to the mapping (the sim charges allocation work; the
/// DMSD experiment counts allocations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteEffect {
    /// Extents newly allocated because the range was previously a hole.
    pub allocated: u64,
    /// Extents re-allocated to preserve a snapshot (redirect-on-write).
    pub redirected: u64,
    /// Extents overwritten in place.
    pub in_place: u64,
}

/// Volume-manager errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VirtError {
    NoSuchVolume(VolumeId),
    NoSuchSnapshot(VolumeId, SnapshotId),
    OutOfSpace(OutOfSpace),
    OutOfRange { offset: u64, len: u64, size: u64 },
}

impl std::fmt::Display for VirtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VirtError::NoSuchVolume(v) => write!(f, "no such volume {v:?}"),
            VirtError::NoSuchSnapshot(v, s) => write!(f, "no such snapshot {s:?} on {v:?}"),
            VirtError::OutOfSpace(e) => write!(f, "{e}"),
            VirtError::OutOfRange { offset, len, size } => {
                write!(f, "I/O [{offset}, {}) beyond volume size {size}", offset + len)
            }
        }
    }
}

impl std::error::Error for VirtError {}

impl From<OutOfSpace> for VirtError {
    fn from(e: OutOfSpace) -> Self {
        VirtError::OutOfSpace(e)
    }
}

/// One physical copy a relocation requires: (old_phys, new_phys, extents).
pub type CopyRun = (u64, u64, u64);

/// Per-tenant charge-back line (§3: "charge back can reflect actual
/// storage usage").
///
/// The QoS fields are plain data filled in by layers that know the
/// tenant's service contract (`ys-core` merges in `ys-qos` accounting);
/// the volume manager itself reports them as zero/unclassified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChargebackLine {
    pub tenant: u32,
    pub provisioned_bytes: u64,
    pub actual_bytes: u64,
    /// QoS class id (`ys_qos::QosClass::id`); 0 = unclassified.
    pub qos_class: u8,
    /// Requests admitted with a delayed start by admission control.
    pub throttled_requests: u64,
    /// Requests refused by admission control.
    pub shed_requests: u64,
}

impl ChargebackLine {
    /// A line carrying storage usage only (no QoS accounting).
    pub fn usage(tenant: u32, provisioned_bytes: u64, actual_bytes: u64) -> ChargebackLine {
        ChargebackLine {
            tenant,
            provisioned_bytes,
            actual_bytes,
            qos_class: 0,
            throttled_requests: 0,
            shed_requests: 0,
        }
    }
}

/// The pool + volume catalog.
///
/// ```
/// use ys_virt::{PhysicalPool, VolumeKind, VolumeManager};
///
/// let mut mgr = VolumeManager::new(PhysicalPool::new(1024, 1 << 20));
/// // A 1000-extent DMSD consumes nothing until written (§3).
/// let vol = mgr.create("projects", 7, VolumeKind::DemandMapped, 1000).unwrap();
/// assert_eq!(mgr.pool().used_extents(), 0);
/// mgr.write(vol, 0, 10).unwrap();
/// assert_eq!(mgr.pool().used_extents(), 10);
/// // Unused blocks return to the pool.
/// mgr.unmap(vol, 0, 5).unwrap();
/// assert_eq!(mgr.pool().used_extents(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct VolumeManager {
    pool: PhysicalPool,
    volumes: BTreeMap<VolumeId, VirtualVolume>,
    next_volume: u32,
    trace: SpanRecorder,
}

impl VolumeManager {
    pub fn new(pool: PhysicalPool) -> VolumeManager {
        VolumeManager { pool, volumes: BTreeMap::new(), next_volume: 0, trace: SpanRecorder::disabled() }
    }

    pub fn pool(&self) -> &PhysicalPool {
        &self.pool
    }

    /// Drain the physical extents the pool reclaimed since the last call
    /// (see [`PhysicalPool::take_reclaimed`]). Every mutation that can
    /// free extents — delete, unmap, COW redirect, relocate, snapshot
    /// delete, rollback — feeds this; the storage layer above discards
    /// the reclaimed media bytes before the extents can be reused.
    pub fn take_reclaimed(&mut self) -> Vec<u64> {
        self.pool.take_reclaimed()
    }

    /// Structured trace of DMSD mapping transitions (disabled by default).
    /// The time-aware orchestrator calls `trace_mut().set_now(..)` before
    /// driving writes, since the volume manager itself is untimed.
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }

    pub fn trace_mut(&mut self) -> &mut SpanRecorder {
        &mut self.trace
    }

    pub fn volume(&self, id: VolumeId) -> Option<&VirtualVolume> {
        self.volumes.get(&id)
    }

    pub fn volumes(&self) -> impl Iterator<Item = &VirtualVolume> {
        self.volumes.values()
    }

    /// Create a volume. `Fixed` volumes are fully backed immediately;
    /// `DemandMapped` consume nothing until written.
    pub fn create(
        &mut self,
        name: impl Into<String>,
        tenant: u32,
        kind: VolumeKind,
        size_extents: u64,
    ) -> Result<VolumeId, VirtError> {
        let id = VolumeId(self.next_volume);
        let mut vol = VirtualVolume::new(id, name, tenant, kind, size_extents);
        if kind == VolumeKind::Fixed {
            let runs = self.pool.allocate(size_extents)?;
            let mut v = 0;
            for (p, l) in runs {
                vol.map.map(v, p, l);
                v += l;
            }
        }
        self.next_volume += 1;
        self.volumes.insert(id, vol);
        Ok(id)
    }

    /// Grow a volume's virtual size. DMSDs grow for free; fixed volumes
    /// allocate the delta.
    pub fn expand(&mut self, id: VolumeId, new_size: u64) -> Result<(), VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        assert!(new_size >= vol.size_extents, "shrink not supported");
        if vol.kind == VolumeKind::Fixed {
            let delta = new_size - vol.size_extents;
            let mut v = vol.size_extents;
            let runs = self.pool.allocate(delta)?;
            for (p, l) in runs {
                vol.map.map(v, p, l);
                v += l;
            }
        }
        vol.size_extents = new_size;
        Ok(())
    }

    /// Delete a volume: release the live map and every snapshot.
    pub fn delete(&mut self, id: VolumeId) -> Result<(), VirtError> {
        let vol = self.volumes.remove(&id).ok_or(VirtError::NoSuchVolume(id))?;
        for run in vol.map.runs() {
            self.pool.release(run.pstart, run.len);
        }
        for snap in &vol.snapshots {
            for run in snap.map.runs() {
                self.pool.release(run.pstart, run.len);
            }
        }
        Ok(())
    }

    fn check_range(vol: &VirtualVolume, offset: u64, len: u64) -> Result<(), VirtError> {
        if offset + len > vol.size_extents {
            return Err(VirtError::OutOfRange { offset, len, size: vol.size_extents });
        }
        Ok(())
    }

    /// Resolve a read: mapped segments (physical runs) and holes (zeroes).
    pub fn read(&self, id: VolumeId, offset: u64, len: u64) -> Result<Vec<Segment>, VirtError> {
        Ok(self.read_iter(id, offset, len)?.collect())
    }

    /// [`Self::read`] borrowed from the volume's map, one segment at a time.
    pub fn read_iter(&self, id: VolumeId, offset: u64, len: u64) -> Result<impl Iterator<Item = Segment> + '_, VirtError> {
        let vol = self.volumes.get(&id).ok_or(VirtError::NoSuchVolume(id))?;
        Self::check_range(vol, offset, len)?;
        Ok(vol.map.segments_iter(offset, len))
    }

    /// Apply a write to `[offset, offset+len)` extents: demand-map holes,
    /// redirect snapshot-shared extents, overwrite exclusive ones in place.
    pub fn write(&mut self, id: VolumeId, offset: u64, len: u64) -> Result<WriteEffect, VirtError> {
        // Split borrows: compute against the map, mutate pool alongside.
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        Self::check_range(vol, offset, len)?;
        let mut effect = WriteEffect::default();
        let segments = vol.map.segments(offset, len);
        for seg in segments {
            match seg {
                Segment::Hole { vstart, len } => {
                    if vol.kind == VolumeKind::Fixed {
                        // Fixed volumes are always fully mapped; a hole here
                        // is a bug.
                        unreachable!("fixed volume with unmapped extents"); // lint: allow(panic-path) — Fixed maps fully at create
                    }
                    let runs = self.pool.allocate(len)?;
                    let mut v = vstart;
                    for (p, l) in runs {
                        vol.map.map(v, p, l);
                        v += l;
                    }
                    effect.allocated += len;
                    // §3 first-write: the hole just became backed storage.
                    self.trace.instant("virt", "dmsd_alloc", id.0, vstart, len);
                }
                Segment::Mapped { vstart, pstart, len } => {
                    // Extent-by-extent refcount scan, batching runs of the
                    // same disposition.
                    let mut i = 0;
                    while i < len {
                        let shared = self.pool.refcount(pstart + i) > 1;
                        let mut j = i + 1;
                        while j < len && (self.pool.refcount(pstart + j) > 1) == shared {
                            j += 1;
                        }
                        let run_len = j - i;
                        if shared {
                            // Redirect-on-write: new extents for the live
                            // image; the snapshot keeps the old ones.
                            let runs = self.pool.allocate(run_len)?;
                            vol.map.unmap(vstart + i, run_len);
                            self.pool.release(pstart + i, run_len);
                            let mut v = vstart + i;
                            for (p, l) in runs {
                                vol.map.map(v, p, l);
                                v += l;
                            }
                            effect.redirected += run_len;
                            self.trace.instant("virt", "redirect", id.0, vstart + i, run_len);
                        } else {
                            effect.in_place += run_len;
                        }
                        i = j;
                    }
                }
            }
        }
        Ok(effect)
    }

    /// Unmap (TRIM) a range: DMSD space returns to the pool (§3: "when a
    /// virtual disk block becomes unused, the physical block is freed").
    pub fn unmap(&mut self, id: VolumeId, offset: u64, len: u64) -> Result<u64, VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        Self::check_range(vol, offset, len)?;
        let released = vol.map.unmap(offset, len);
        let mut freed = 0;
        for (p, l) in released {
            freed += self.pool.release(p, l);
        }
        Ok(freed)
    }

    /// Relocate every mapped extent of `[offset, offset+len)` onto fresh
    /// physical extents — §3's host-transparent movement: "changes in the
    /// physical location of storage blocks ... can be accommodated by a
    /// simple update of the virtual-to-real mappings". Extents shared with
    /// snapshots stay put for the snapshot; the live image moves.
    ///
    /// Returns (moved_extents, copy pairs (old_phys, new_phys, len)) so the
    /// caller can charge the data copies.
    pub fn relocate(&mut self, id: VolumeId, offset: u64, len: u64) -> Result<(u64, Vec<CopyRun>), VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        Self::check_range(vol, offset, len)?;
        let mapped: Vec<CopyRun> = vol
            .map
            .segments(offset, len)
            .iter()
            .filter_map(|s| match *s {
                Segment::Mapped { vstart, pstart, len } => Some((vstart, pstart, len)),
                Segment::Hole { .. } => None,
            })
            .collect();
        let mut moved = 0u64;
        let mut copies = Vec::new();
        for (vstart, pstart, seg_len) in mapped {
            let runs = self.pool.allocate(seg_len)?;
            vol.map.unmap(vstart, seg_len);
            self.pool.release(pstart, seg_len);
            let mut v = vstart;
            let mut old = pstart;
            for (p, l) in runs {
                vol.map.map(v, p, l);
                copies.push((old, p, l));
                v += l;
                old += l;
            }
            moved += seg_len;
        }
        Ok((moved, copies))
    }

    /// Take a point-in-time snapshot: freeze the current map, bump
    /// refcounts on everything it references. O(runs), no data copied.
    pub fn snapshot(&mut self, id: VolumeId) -> Result<SnapshotId, VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        let frozen: ExtentMap = vol.map.clone();
        for run in frozen.runs() {
            self.pool.add_ref(run.pstart, run.len);
        }
        let sid = vol.next_snapshot_id();
        vol.snapshots.push(Snapshot { id: sid, map: frozen });
        self.trace.instant("virt", "snapshot", id.0, sid.0 as u64, 0);
        Ok(sid)
    }

    /// Delete a snapshot, reclaiming extents nothing else references.
    pub fn delete_snapshot(&mut self, id: VolumeId, sid: SnapshotId) -> Result<u64, VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        let pos = vol
            .snapshots
            .iter()
            .position(|s| s.id == sid)
            .ok_or(VirtError::NoSuchSnapshot(id, sid))?;
        let snap = vol.snapshots.remove(pos);
        let mut freed = 0;
        for run in snap.map.runs() {
            freed += self.pool.release(run.pstart, run.len);
        }
        Ok(freed)
    }

    /// Roll the live volume back to a snapshot's image (the paper's
    /// SnapRestore reference \[1\]): live-only extents are released, the
    /// frozen mapping becomes current again. The snapshot itself survives
    /// (it can be rolled back to repeatedly). Returns extents freed.
    pub fn rollback(&mut self, id: VolumeId, sid: SnapshotId) -> Result<u64, VirtError> {
        let vol = self.volumes.get_mut(&id).ok_or(VirtError::NoSuchVolume(id))?;
        let snap_map = vol
            .snapshots
            .iter()
            .find(|s| s.id == sid)
            .ok_or(VirtError::NoSuchSnapshot(id, sid))?
            .map
            .clone();
        // The restored live image takes its own references on the
        // snapshot's extents...
        for run in snap_map.runs() {
            self.pool.add_ref(run.pstart, run.len);
        }
        // ...then the old live mapping drops its references (shared extents
        // stay at refcount ≥ 2, diverged ones are reclaimed).
        let old = std::mem::replace(&mut vol.map, snap_map);
        let mut freed = 0;
        for run in old.runs() {
            freed += self.pool.release(run.pstart, run.len);
        }
        Ok(freed)
    }

    /// Charge-back: per tenant, provisioned vs. actually consumed bytes.
    pub fn chargeback(&self) -> Vec<ChargebackLine> {
        let eb = self.pool.extent_bytes();
        let mut per: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for vol in self.volumes.values() {
            let e = per.entry(vol.tenant).or_default();
            e.0 += vol.size_extents * eb;
            e.1 += vol.mapped_extents() * eb;
            // Snapshot-only extents (not shared with the live image) also
            // belong to the tenant: count unique extents per snapshot that
            // the live map no longer references.
            for snap in &vol.snapshots {
                for run in snap.map.runs() {
                    for p in run.pstart..run.pstart + run.len {
                        let live = vol.map.runs().any(|lr| p >= lr.pstart && p < lr.pstart + lr.len);
                        if !live {
                            e.1 += eb;
                        }
                    }
                }
            }
        }
        per.into_iter()
            .map(|(tenant, (prov, act))| ChargebackLine::usage(tenant, prov, act))
            .collect()
    }

    /// Invariant check for tests.
    pub fn check(&self) -> Result<(), String> {
        self.pool.check()?;
        for v in self.volumes.values() {
            v.map.check()?;
            for s in &v.snapshots {
                s.map.check()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(extents: u64) -> VolumeManager {
        VolumeManager::new(PhysicalPool::new(extents, 1 << 20))
    }

    #[test]
    fn dmsd_consumes_nothing_until_written() {
        let mut m = mgr(100);
        let id = m.create("big", 0, VolumeKind::DemandMapped, 1_000_000).unwrap();
        assert_eq!(m.pool().used_extents(), 0, "a huge DMSD costs nothing");
        let eff = m.write(id, 500_000, 10).unwrap();
        assert_eq!(eff.allocated, 10);
        assert_eq!(m.pool().used_extents(), 10);
        m.check().unwrap();
    }

    #[test]
    fn fixed_volume_fully_backed_at_create() {
        let mut m = mgr(100);
        let id = m.create("legacy", 0, VolumeKind::Fixed, 40).unwrap();
        assert_eq!(m.pool().used_extents(), 40);
        let eff = m.write(id, 0, 40).unwrap();
        assert_eq!(eff.in_place, 40);
        assert_eq!(eff.allocated, 0);
    }

    #[test]
    fn rewrite_is_in_place_without_snapshots() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 100).unwrap();
        m.write(id, 0, 10).unwrap();
        let eff = m.write(id, 0, 10).unwrap();
        assert_eq!(eff, WriteEffect { allocated: 0, redirected: 0, in_place: 10 });
        assert_eq!(m.pool().used_extents(), 10);
    }

    #[test]
    fn unmap_returns_space_to_pool() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 100).unwrap();
        m.write(id, 0, 20).unwrap();
        let freed = m.unmap(id, 5, 10).unwrap();
        assert_eq!(freed, 10);
        assert_eq!(m.pool().used_extents(), 10);
        // Reads of the unmapped middle are holes.
        let segs = m.read(id, 0, 20).unwrap();
        assert!(segs.iter().any(|s| !s.is_mapped()));
        m.check().unwrap();
    }

    #[test]
    fn snapshot_shares_then_redirects_on_write() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 100).unwrap();
        m.write(id, 0, 10).unwrap();
        let used_before = m.pool().used_extents();
        let sid = m.snapshot(id).unwrap();
        assert_eq!(m.pool().used_extents(), used_before, "snapshot allocates nothing");
        // Overwrite 4 extents: redirect-on-write allocates 4 new ones.
        let eff = m.write(id, 0, 4).unwrap();
        assert_eq!(eff.redirected, 4);
        assert_eq!(m.pool().used_extents(), used_before + 4);
        // Snapshot still sees its frozen mapping.
        let segs = m.volumes[&id].snapshots.iter().find(|s| s.id == sid).unwrap().map.segments(0, 10);
        assert!(segs.iter().all(|s| s.is_mapped()));
        m.check().unwrap();
    }

    #[test]
    fn delete_snapshot_reclaims_unshared_extents() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 100).unwrap();
        m.write(id, 0, 10).unwrap();
        let sid = m.snapshot(id).unwrap();
        m.write(id, 0, 10).unwrap(); // fully diverged
        assert_eq!(m.pool().used_extents(), 20);
        let freed = m.delete_snapshot(id, sid).unwrap();
        assert_eq!(freed, 10);
        assert_eq!(m.pool().used_extents(), 10);
        m.check().unwrap();
    }

    #[test]
    fn delete_volume_releases_everything_including_snapshots() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 100).unwrap();
        m.write(id, 0, 10).unwrap();
        m.snapshot(id).unwrap();
        m.write(id, 0, 5).unwrap();
        m.delete(id).unwrap();
        assert_eq!(m.pool().used_extents(), 0);
        m.check().unwrap();
    }

    #[test]
    fn overcommit_fails_only_at_actual_exhaustion() {
        let mut m = mgr(10);
        // Provision 3 volumes of 10 extents each over a 10-extent pool.
        let a = m.create("a", 0, VolumeKind::DemandMapped, 10).unwrap();
        let b = m.create("b", 1, VolumeKind::DemandMapped, 10).unwrap();
        let _c = m.create("c", 2, VolumeKind::DemandMapped, 10).unwrap();
        m.write(a, 0, 5).unwrap();
        m.write(b, 0, 5).unwrap();
        // The pool is now full; further demand mapping fails.
        let err = m.write(a, 5, 1).unwrap_err();
        assert!(matches!(err, VirtError::OutOfSpace(_)));
    }

    #[test]
    fn expand_dmsd_is_free_fixed_allocates() {
        let mut m = mgr(100);
        let d = m.create("d", 0, VolumeKind::DemandMapped, 10).unwrap();
        let f = m.create("f", 0, VolumeKind::Fixed, 10).unwrap();
        let used = m.pool().used_extents();
        m.expand(d, 1000).unwrap();
        assert_eq!(m.pool().used_extents(), used);
        m.expand(f, 20).unwrap();
        assert_eq!(m.pool().used_extents(), used + 10);
    }

    #[test]
    fn chargeback_reflects_actual_usage() {
        let mut m = mgr(1000);
        let a = m.create("a", 1, VolumeKind::DemandMapped, 100).unwrap();
        let _b = m.create("b", 2, VolumeKind::DemandMapped, 100).unwrap();
        m.write(a, 0, 30).unwrap();
        let lines = m.chargeback();
        let eb = 1u64 << 20;
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], ChargebackLine::usage(1, 100 * eb, 30 * eb));
        assert_eq!(lines[0].qos_class, 0, "volume manager reports no QoS class");
        assert_eq!(lines[1].actual_bytes, 0, "tenant 2 pays nothing");
    }

    #[test]
    fn out_of_range_io_rejected() {
        let mut m = mgr(100);
        let id = m.create("v", 0, VolumeKind::DemandMapped, 10).unwrap();
        assert!(matches!(m.write(id, 8, 4), Err(VirtError::OutOfRange { .. })));
        assert!(matches!(m.read(id, 10, 1), Err(VirtError::OutOfRange { .. })));
    }
}

#[cfg(test)]
mod relocate_tests {
    use super::*;

    #[test]
    fn relocate_moves_mappings_and_preserves_accounting() {
        let mut m = VolumeManager::new(PhysicalPool::new(100, 1 << 20));
        let id = m.create("v", 0, VolumeKind::DemandMapped, 50).unwrap();
        m.write(id, 0, 10).unwrap();
        let before: Vec<_> = m.volume(id).unwrap().map.runs().collect();
        let (moved, copies) = m.relocate(id, 0, 10).unwrap();
        assert_eq!(moved, 10);
        let copied: u64 = copies.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(copied, 10);
        let after: Vec<_> = m.volume(id).unwrap().map.runs().collect();
        assert_ne!(before, after, "physical placement changed");
        assert_eq!(m.volume(id).unwrap().mapped_extents(), 10, "virtual view unchanged");
        assert_eq!(m.pool().used_extents(), 10, "no leak");
        m.check().unwrap();
    }

    #[test]
    fn relocate_skips_holes() {
        let mut m = VolumeManager::new(PhysicalPool::new(100, 1 << 20));
        let id = m.create("v", 0, VolumeKind::DemandMapped, 50).unwrap();
        m.write(id, 5, 3).unwrap();
        let (moved, _) = m.relocate(id, 0, 20).unwrap();
        assert_eq!(moved, 3, "only mapped extents move");
        m.check().unwrap();
    }

    #[test]
    fn relocate_under_snapshot_leaves_frozen_image_intact() {
        let mut m = VolumeManager::new(PhysicalPool::new(100, 1 << 20));
        let id = m.create("v", 0, VolumeKind::DemandMapped, 50).unwrap();
        m.write(id, 0, 8).unwrap();
        let snap = m.snapshot(id).unwrap();
        let (moved, _) = m.relocate(id, 0, 8).unwrap();
        assert_eq!(moved, 8);
        // Live + snapshot now diverge: 16 extents total.
        assert_eq!(m.pool().used_extents(), 16);
        let segs = m.volumes[&id].snapshots.iter().find(|s| s.id == snap).unwrap().map.segments(0, 8);
        assert!(segs.iter().all(|s| s.is_mapped()), "snapshot image untouched");
        m.delete_snapshot(id, snap).unwrap();
        assert_eq!(m.pool().used_extents(), 8);
        m.check().unwrap();
    }
}

#[cfg(test)]
mod rollback_tests {
    use super::*;

    fn mgr() -> VolumeManager {
        VolumeManager::new(PhysicalPool::new(100, 1 << 20))
    }

    #[test]
    fn rollback_restores_the_frozen_image_and_reclaims_divergence() {
        let mut m = mgr();
        let id = m.create("db", 0, VolumeKind::DemandMapped, 50).unwrap();
        m.write(id, 0, 10).unwrap();
        let golden: Vec<_> = m.volume(id).unwrap().map.runs().collect();
        let snap = m.snapshot(id).unwrap();
        // Diverge: overwrite 6 extents (redirect) and extend with 4 more.
        m.write(id, 0, 6).unwrap();
        m.write(id, 20, 4).unwrap();
        assert_eq!(m.pool().used_extents(), 20);
        let freed = m.rollback(id, snap).unwrap();
        assert_eq!(freed, 10, "6 redirected + 4 new extents reclaimed");
        let restored: Vec<_> = m.volume(id).unwrap().map.runs().collect();
        assert_eq!(restored, golden, "live map is the frozen image again");
        assert_eq!(m.pool().used_extents(), 10);
        m.check().unwrap();
    }

    #[test]
    fn rollback_is_repeatable() {
        let mut m = mgr();
        let id = m.create("db", 0, VolumeKind::DemandMapped, 50).unwrap();
        m.write(id, 0, 4).unwrap();
        let snap = m.snapshot(id).unwrap();
        for _ in 0..3 {
            m.write(id, 0, 4).unwrap(); // diverge
            m.rollback(id, snap).unwrap();
            m.check().unwrap();
        }
        assert_eq!(m.pool().used_extents(), 4);
        // Snapshot still deletable afterwards.
        m.delete_snapshot(id, snap).unwrap();
        assert_eq!(m.pool().used_extents(), 4, "live image holds its own refs");
        m.delete(id).unwrap();
        assert_eq!(m.pool().used_extents(), 0);
    }

    #[test]
    fn rollback_to_missing_snapshot_errors() {
        let mut m = mgr();
        let id = m.create("v", 0, VolumeKind::DemandMapped, 10).unwrap();
        assert!(matches!(m.rollback(id, SnapshotId(9)), Err(VirtError::NoSuchSnapshot(..))));
    }
}
