//! The disk farm: an addressable shelf of drives behind the controllers.
//!
//! Every controller blade can reach every disk (§2.1: "any controller to
//! access any data on any disk"), so the farm is a single flat namespace of
//! [`DiskId`]s. Fibre-channel path time to reach a disk is charged by the
//! caller via `ys-simnet`; the farm accounts only for drive service.

use crate::model::{Disk, DiskError, DiskOp, DiskSpec, Verification, PAGE_TAG_BYTES};
use ys_simcore::time::SimTime;

/// Farm-wide drive index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DiskId(pub usize);

/// A shelf of identical drives.
#[derive(Clone, Debug)]
pub struct DiskFarm {
    disks: Vec<Disk>,
}

impl DiskFarm {
    pub fn new(count: usize, spec: DiskSpec) -> DiskFarm {
        DiskFarm { disks: (0..count).map(|_| Disk::new(spec)).collect() }
    }

    pub fn len(&self) -> usize {
        self.disks.len()
    }

    // lint: allow(dead-pub) — (e) clippy's len_without_is_empty pairs it with the live pub len
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    pub fn disk(&self, id: DiskId) -> &Disk {
        &self.disks[id.0]
    }

    pub fn submit(&mut self, id: DiskId, now: SimTime, op: DiskOp) -> Result<SimTime, DiskError> {
        self.disks[id.0].submit(now, op)
    }

    /// Checksum-verified submit: identical timing to [`DiskFarm::submit`],
    /// plus the verification verdict for read spans.
    pub fn submit_verified(
        &mut self,
        id: DiskId,
        now: SimTime,
        op: DiskOp,
    ) -> Result<(SimTime, Verification), DiskError> {
        self.disks[id.0].submit_verified(now, op)
    }

    /// Inject a latent media error on `id`'s page containing `offset`.
    pub fn corrupt_page(&mut self, id: DiskId, offset: u64) -> bool {
        self.disks[id.0].corrupt_page(offset)
    }

    /// Whether `id`'s page containing `offset` currently fails verification.
    pub fn is_page_corrupt(&self, id: DiskId, offset: u64) -> bool {
        self.disks[id.0].is_page_corrupt(offset)
    }

    /// Farm-wide count of pages currently failing verification.
    pub fn corrupt_page_count(&self) -> usize {
        self.disks.iter().map(|d| d.corrupt_page_count()).sum()
    }

    /// Farm-wide count of checksum mismatches observed by verified reads.
    pub fn checksum_mismatches(&self) -> u64 {
        self.disks.iter().map(|d| d.checksum_mismatches()).sum()
    }

    /// Store the data-plane bytes for `id`'s page containing `offset`.
    pub fn write_page_tag(&mut self, id: DiskId, offset: u64, tag: [u8; PAGE_TAG_BYTES]) -> bool {
        self.disks[id.0].write_page_tag(offset, tag)
    }

    /// The data-plane bytes on `id`'s media for the page containing
    /// `offset`, if that page was ever written.
    pub fn read_page_tag(&self, id: DiskId, offset: u64) -> Option<[u8; PAGE_TAG_BYTES]> {
        self.disks[id.0].read_page_tag(offset)
    }

    /// Discard the data-plane bytes for `id`'s page containing `offset`
    /// (see [`Disk::clear_page_tag`]).
    pub fn clear_page_tag(&mut self, id: DiskId, offset: u64) -> bool {
        self.disks[id.0].clear_page_tag(offset)
    }

    pub fn fail(&mut self, id: DiskId) {
        self.disks[id.0].fail();
    }

    pub fn replace(&mut self, id: DiskId) {
        self.disks[id.0].replace();
    }

    pub fn healthy_disks(&self) -> impl Iterator<Item = DiskId> + '_ {
        self.disks
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_failed())
            .map(|(i, _)| DiskId(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn farm(n: usize) -> DiskFarm {
        DiskFarm::new(n, DiskSpec::cheetah_73())
    }

    #[test]
    fn farm_has_independent_queues() {
        let mut f = farm(4);
        let t0 = f.submit(DiskId(0), SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 1 << 20 }).unwrap();
        let t1 = f.submit(DiskId(1), SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 1 << 20 }).unwrap();
        assert_eq!(t0, t1, "disks service in parallel");
        let t0b = f.submit(DiskId(0), SimTime::ZERO, DiskOp::Read { offset: 1 << 20, bytes: 1 << 20 }).unwrap();
        assert!(t0b > t0, "same disk queues");
    }

    #[test]
    fn capacity_excludes_failed_drives() {
        let mut f = farm(3);
        f.fail(DiskId(1));
        assert_eq!(f.healthy_disks().collect::<Vec<_>>(), vec![DiskId(0), DiskId(2)]);
        f.replace(DiskId(1));
        assert_eq!(f.healthy_disks().count(), 3);
    }

    #[test]
    fn farm_routes_corruption_to_the_right_drive() {
        let mut f = farm(3);
        f.corrupt_page(DiskId(1), 0);
        assert!(f.is_page_corrupt(DiskId(1), 0));
        assert!(!f.is_page_corrupt(DiskId(0), 0));
        assert_eq!(f.corrupt_page_count(), 1);
        let op = DiskOp::Read { offset: 0, bytes: 4096 };
        let (_, v0) = f.submit_verified(DiskId(0), SimTime::ZERO, op).unwrap();
        let (_, v1) = f.submit_verified(DiskId(1), SimTime::ZERO, op).unwrap();
        assert!(v0.is_verified());
        assert!(!v1.is_verified());
        assert_eq!(f.checksum_mismatches(), 1);
        f.replace(DiskId(1));
        assert_eq!(f.corrupt_page_count(), 0);
    }
}
