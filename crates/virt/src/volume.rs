//! Virtual volumes: fixed-provisioned and demand-mapped (DMSD, §3).

use crate::extent::ExtentMap;

/// Volume identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VolumeId(pub u32);

/// Snapshot identifier (scoped to its volume).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SnapshotId(pub u32);

/// Provisioning style.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VolumeKind {
    /// Traditional: every virtual extent is backed at creation time.
    Fixed,
    /// Demand-mapped storage device: physical extents are allocated on
    /// first write and freed on unmap (§3).
    DemandMapped,
}

/// A frozen point-in-time image (§7.2 "snap shot copies of data").
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub id: SnapshotId,
    /// Frozen copy of the volume's map at snapshot time. The physical
    /// extents it references hold an extra refcount in the pool.
    pub map: ExtentMap,
}

/// One virtual volume.
#[derive(Clone, Debug)]
pub struct VirtualVolume {
    pub id: VolumeId,
    pub name: String,
    pub tenant: u32,
    pub kind: VolumeKind,
    /// Provisioned (virtual) size in extents. A DMSD can be enormous (§3:
    /// "up to 1.5 yottabytes") without consuming anything.
    pub size_extents: u64,
    pub map: ExtentMap,
    pub snapshots: Vec<Snapshot>,
    next_snapshot: u32,
}

impl VirtualVolume {
    pub fn new(id: VolumeId, name: impl Into<String>, tenant: u32, kind: VolumeKind, size_extents: u64) -> VirtualVolume {
        VirtualVolume {
            id,
            name: name.into(),
            tenant,
            kind,
            size_extents,
            map: ExtentMap::new(),
            snapshots: Vec::new(),
            next_snapshot: 0,
        }
    }

    /// Physical extents currently consumed by the live image.
    pub fn mapped_extents(&self) -> u64 {
        self.map.mapped_extents()
    }

    pub(crate) fn next_snapshot_id(&mut self) -> SnapshotId {
        let id = SnapshotId(self.next_snapshot);
        self.next_snapshot += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_volume_is_empty() {
        let v = VirtualVolume::new(VolumeId(1), "scratch", 7, VolumeKind::DemandMapped, 1000);
        assert_eq!(v.mapped_extents(), 0);
        assert_eq!(v.tenant, 7);
        assert!(v.snapshots.is_empty());
    }
}
