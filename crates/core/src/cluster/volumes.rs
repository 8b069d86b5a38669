//! Volume administration over the per-group DMSD catalogs (create, UNMAP,
//! snapshot, rollback, relocate), charge-back, and the QoS glue that puts
//! tenant admission in front of the data path.

use super::{BladeCluster, ClusterError, Completion};
use crate::config::{EXTENT_BYTES, PAGE_BYTES};
use ys_cache::{PageKey, Retention};
use ys_qos::{AdmissionController, Decision, Pressure};
use ys_simcore::time::SimTime;
use ys_virt::{VolumeId, VolumeKind};

impl BladeCluster {
    /// Split a global volume id into (group index, group-local id).
    pub(super) fn decode_vol(vol: VolumeId) -> (usize, VolumeId) {
        ((vol.0 >> 24) as usize, VolumeId(vol.0 & 0x00FF_FFFF))
    }

    fn encode_vol(group: usize, local: VolumeId) -> VolumeId {
        debug_assert!(local.0 < (1 << 24) && group < 256);
        VolumeId(((group as u32) << 24) | local.0)
    }

    /// Create a demand-mapped volume in the primary group.
    pub fn create_volume(&mut self, name: &str, tenant: u32, bytes: u64) -> Result<VolumeId, ClusterError> {
        self.create_volume_in(0, name, tenant, bytes)
    }

    /// Create a demand-mapped volume in a specific RAID group (§4's
    /// per-class placement).
    pub fn create_volume_in(&mut self, group: usize, name: &str, tenant: u32, bytes: u64) -> Result<VolumeId, ClusterError> {
        let extents = bytes.div_ceil(EXTENT_BYTES);
        let local = self.groups[group].volumes.create(name, tenant, VolumeKind::DemandMapped, extents)?;
        Ok(Self::encode_vol(group, local))
    }

    /// Total physical extents in use across every group's pool.
    pub fn pool_used_extents(&self) -> u64 {
        self.groups.iter().map(|g| g.volumes.pool().used_extents()).sum()
    }

    pub fn pool_used_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.volumes.pool().used_bytes()).sum()
    }

    /// UNMAP a range of extents from a volume; returns extents freed.
    pub fn unmap_volume(&mut self, vol: VolumeId, extent_off: u64, extents: u64) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.unmap(local, extent_off, extents)?;
        self.scrub_reclaimed_extents(gi);
        Ok(freed)
    }

    /// Point-in-time snapshot of a volume (§7.2).
    pub fn snapshot_volume(&mut self, vol: VolumeId) -> Result<ys_virt::SnapshotId, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        Ok(self.groups[gi].volumes.snapshot(local)?)
    }

    /// Delete a volume, releasing its extents (and its snapshots').
    pub fn delete_volume(&mut self, vol: VolumeId) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        self.groups[gi].volumes.delete(local)?;
        self.scrub_reclaimed_extents(gi);
        Ok(())
    }

    /// Grow a volume's virtual size (free for DMSDs, §3).
    pub fn expand_volume(&mut self, vol: VolumeId, new_bytes: u64) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let extents = new_bytes.div_ceil(EXTENT_BYTES);
        Ok(self.groups[gi].volumes.expand(local, extents)?)
    }

    /// Host-transparently relocate a volume's physical extents within its
    /// group (§3's "performance optimization ... failure recovery" moves),
    /// charging the data copies to disks via `blade`. Returns (extents
    /// moved, completion time).
    // lint: allow(dead-pub) — (c) §3 live migration, driven by tests/full_stack.rs
    pub fn migrate_volume_data(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        extent_off: u64,
        extents: u64,
    ) -> Result<(u64, SimTime), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let geo = self.groups[gi].geo;
        let eb = EXTENT_BYTES;
        let (moved, copies) = self.groups[gi].volumes.relocate(local, extent_off, extents)?;
        let mut done = now;
        for &(old_phys, new_phys, len) in &copies {
            let read = ys_raid::read_plan(&geo, old_phys * eb, len * eb, self.group_failed(gi))?;
            let t = self.charge(gi, blade, now, &read, None)?;
            let write = ys_raid::write_plan(&geo, new_phys * eb, len * eb, self.group_failed(gi))?;
            done = done.max(self.charge(gi, blade, t, &write, None)?);
        }
        // Data plane: the media bytes travel with the copy, page by page,
        // before the vacated extents are trimmed below. The cipher nonce is
        // the *logical* page index, so relocated ciphertext stays valid.
        let pb = PAGE_BYTES;
        for &(old_phys, new_phys, len) in &copies {
            let mut off = 0;
            while off < len * eb {
                let (src, src_off) = self.tag_slot(gi, old_phys * eb + off);
                let (dst, dst_off) = self.tag_slot(gi, new_phys * eb + off);
                if let Some(tag) = self.farm.read_page_tag(src, src_off) {
                    self.farm.write_page_tag(dst, dst_off, tag);
                }
                off += pb;
            }
        }
        self.scrub_reclaimed_extents(gi);
        Ok((moved, done))
    }

    /// Delete a snapshot; returns extents reclaimed.
    pub fn delete_snapshot(&mut self, vol: VolumeId, snap: ys_virt::SnapshotId) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.delete_snapshot(local, snap)?;
        self.scrub_reclaimed_extents(gi);
        Ok(freed)
    }

    /// Roll a volume back to a snapshot (instant recovery, §7.2 / ref \[1\]).
    /// Cached pages of the volume are dropped — they describe overwritten
    /// data. Returns extents reclaimed from the divergence.
    pub fn rollback_volume(&mut self, vol: VolumeId, snap: ys_virt::SnapshotId) -> Result<u64, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let freed = self.groups[gi].volumes.rollback(local, snap)?;
        self.scrub_reclaimed_extents(gi);
        // Invalidate the volume's cached pages everywhere: the mapping
        // underneath them changed.
        let keys: Vec<PageKey> = self
            .cache
            .directory()
            .iter()
            .filter(|(k, _)| k.volume == vol.0)
            .map(|(k, _)| *k)
            .collect();
        for key in keys {
            let _ = self.cache.destage(key);
            self.cache.invalidate_page(key);
        }
        Ok(freed)
    }

    /// Volumes across every group, in (group, id) order — the scrubber's
    /// deterministic walk order.
    pub fn volume_ids(&self) -> Vec<VolumeId> {
        let mut out = Vec::new();
        for (gi, g) in self.groups.iter().enumerate() {
            let mut ids: Vec<u32> = g.volumes.volumes().map(|v| v.id.0).collect();
            ids.sort_unstable();
            out.extend(ids.into_iter().map(|id| Self::encode_vol(gi, VolumeId(id))));
        }
        out
    }

    /// Mapped extent indices of `vol`, ascending — the extents a scrub
    /// pass must cover (holes have no data to verify).
    pub fn mapped_extents(&self, vol: VolumeId) -> Vec<u64> {
        let (gi, local) = Self::decode_vol(vol);
        let Some(v) = self.groups[gi].volumes.volume(local) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for run in v.map.runs() {
            out.extend(run.vstart..run.vend());
        }
        out
    }

    /// Charge-back lines aggregated across every group, annotated with
    /// each tenant's QoS class and admission-control counters (§3's
    /// charge-back × the tenant's service contract).
    pub fn chargeback(&self) -> Vec<ys_virt::ChargebackLine> {
        use std::collections::BTreeMap;
        let mut per: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for g in &self.groups {
            for line in g.volumes.chargeback() {
                let e = per.entry(line.tenant).or_default();
                e.0 += line.provisioned_bytes;
                e.1 += line.actual_bytes;
            }
        }
        per.into_iter()
            .map(|(tenant, (p, a))| {
                let mut line = ys_virt::ChargebackLine::usage(tenant, p, a);
                line.qos_class = self.qos.cfg().class_id(tenant);
                if let Some(s) = self.qos.stats(tenant) {
                    line.throttled_requests = s.throttled;
                    line.shed_requests = s.shed;
                }
                line
            })
            .collect()
    }

    /// The QoS admission controller (per-tenant stats, SLO report).
    pub fn qos(&self) -> &AdmissionController {
        &self.qos
    }

    /// Sample backpressure (cache dirty ratio, rebuild activity) and run
    /// admission control for one tenant request of `bytes`.
    fn qos_admit(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Result<SimTime, ClusterError> {
        if !self.qos.enabled() {
            return Ok(now);
        }
        self.qos.set_pressure(Pressure {
            dirty_ratio: self.cache.dirty_ratio(),
            rebuild_active: self.failed_disks.iter().any(|&f| f),
        });
        match self.qos.admit(now, tenant, bytes) {
            Decision::Admit { start } => Ok(start),
            Decision::Shed { reason } => Err(ClusterError::QosShed { tenant, reason }),
        }
    }

    /// [`BladeCluster::read`] on behalf of a QoS tenant: the request
    /// passes admission control (which may delay its start or shed it)
    /// and its completion feeds the tenant's SLO tracking. Latency is
    /// measured from `now`, so queueing imposed by throttling counts.
    pub fn read_as(
        &mut self,
        now: SimTime,
        tenant: u32,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
    ) -> Result<Completion, ClusterError> {
        let start = self.qos_admit(now, tenant, len)?;
        let c = self.read(start, client, vol, offset, len)?;
        self.qos.complete(tenant, now, c.done, len);
        Ok(Completion { done: c.done, latency: c.done.since(now) })
    }

    /// [`BladeCluster::write`] on behalf of a QoS tenant (see
    /// [`BladeCluster::read_as`]).
    #[allow(clippy::too_many_arguments)] // the op surface: who, where, what, how protected
    pub fn write_as(
        &mut self,
        now: SimTime,
        tenant: u32,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
        copies: usize,
        retention: Retention,
    ) -> Result<Completion, ClusterError> {
        let start = self.qos_admit(now, tenant, len)?;
        let c = self.write(start, client, vol, offset, len, copies, retention)?;
        self.qos.complete(tenant, now, c.done, len);
        Ok(Completion { done: c.done, latency: c.done.since(now) })
    }

    /// Run admission control for a background maintenance batch as `tenant`
    /// (Scavenger-class in the shipped configs). Called by the
    /// [`crate::governed`] driver, which pairs every admission with
    /// [`BladeCluster::qos_complete_as`].
    pub fn qos_admit_as(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Result<SimTime, ClusterError> {
        self.qos_admit(now, tenant, bytes)
    }

    /// Report a batch admitted via [`BladeCluster::qos_admit_as`] complete,
    /// releasing its in-flight slot and feeding the tenant's SLO ledger.
    pub fn qos_complete_as(&mut self, tenant: u32, issued: SimTime, done: SimTime, bytes: u64) {
        self.qos.complete(tenant, issued, done, bytes);
    }
}
