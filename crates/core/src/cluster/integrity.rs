//! End-to-end integrity: the per-page media tags (ciphered at rest), where
//! a page's tag lives, latent-error injection, and the scrub probe and
//! repair paths.

use super::{refuse_rot, BladeCluster, ClusterError, PageIo, PageVerify, ReadMismatch};
use crate::config::{EXTENT_BYTES, PAGE_BYTES};
use ys_cache::PageKey;
use ys_simcore::time::SimTime;
use ys_simdisk::{DiskId, PAGE_TAG_BYTES};
use ys_virt::VolumeId;

impl BladeCluster {
    /// Per-volume cipher key, derived from the cluster master seed (§5.1's
    /// key hierarchy): each volume's key is a keyed hash of its id under
    /// the master key, so disclosing one volume's key reveals nothing
    /// about its neighbours'.
    pub fn volume_key(&self, vol: VolumeId) -> ys_security::Key {
        let master = ys_security::Key::from_seed(self.cfg.master_key_seed);
        ys_security::Key::from_seed(ys_security::keyed_hash(&master, &vol.0.to_be_bytes()))
    }

    /// [`Self::volume_key`] for the page cipher, derived on a volume's
    /// first ciphered page and kept: it is a function of the volume id and
    /// the master seed alone, and the seed is fixed when the cluster is
    /// built, so an entry cannot go stale.
    fn page_cipher_key(&mut self, vol: VolumeId) -> ys_security::Key {
        if let Some(&key) = self.volume_keys.get(&vol.0) {
            return key;
        }
        let key = self.volume_key(vol);
        self.volume_keys.insert(vol.0, key);
        key
    }

    /// The deterministic plaintext the data plane expects for `vol`'s page
    /// `page` — the representative bytes a host "wrote" there.
    pub fn plaintext_page_tag(vol: VolumeId, page: u64) -> [u8; PAGE_TAG_BYTES] {
        let mut tag = [0u8; PAGE_TAG_BYTES];
        tag[..4].copy_from_slice(&vol.0.to_be_bytes());
        tag[4..12].copy_from_slice(&page.to_be_bytes());
        tag[12..].copy_from_slice(b"page");
        tag
    }

    /// The bytes that belong on the media for `vol`'s page `page`: the
    /// plaintext tag, ciphered under the per-volume key when at-rest
    /// encryption is on. The page index is the CTR nonce — the
    /// per-(key, nonce) subkey derivation keeps every page's keystream
    /// disjoint under one volume key.
    fn media_page_tag(&mut self, vol: VolumeId, page: u64) -> [u8; PAGE_TAG_BYTES] {
        let mut tag = Self::plaintext_page_tag(vol, page);
        if self.cfg.encryption.at_rest {
            ys_security::ctr_xor(&self.page_cipher_key(vol), page, 0, &mut tag);
        }
        tag
    }

    /// Stamp the media bytes for `vol`'s page onto its backing disk — the
    /// data-plane half of the destage or scrub rewrite whose timing `at`
    /// charged; unmapped pages are a no-op.
    pub(super) fn stamp_page_tag(&mut self, vol: VolumeId, page: u64, at: &PageIo) {
        if let Some((disk, offset)) = at.tag_slot {
            let tag = self.media_page_tag(vol, page);
            if self.farm.write_page_tag(disk, offset, tag) && self.cfg.encryption.at_rest {
                self.stats.pages_ciphered += 1;
            }
        }
    }

    /// Raw media bytes currently backing `vol`'s page — what a removed
    /// disk would disclose (§5.1's warranty-return scenario). Ciphertext
    /// when at-rest encryption is on; `None` before the first destage.
    pub fn media_tag(&mut self, vol: VolumeId, page: u64) -> Option<[u8; PAGE_TAG_BYTES]> {
        let (disk, offset) = self.locate_volume_page(vol, page)?;
        self.farm.read_page_tag(disk, offset)
    }

    /// Pull the media bytes for `vol`'s page (just read by `at`) back
    /// through the cipher and check them against the expected plaintext.
    /// `Ok(())` when the page has no data-plane bytes yet (never destaged,
    /// or rebuilt media).
    pub(super) fn check_page_tag(&mut self, vol: VolumeId, page: u64, at: &PageIo) -> Result<(), ClusterError> {
        let Some((disk, offset)) = at.tag_slot else {
            return Ok(());
        };
        let Some(mut tag) = self.farm.read_page_tag(disk, offset) else {
            return Ok(());
        };
        if self.cfg.encryption.at_rest {
            ys_security::ctr_xor(&self.page_cipher_key(vol), page, 0, &mut tag);
            self.stats.pages_deciphered += 1;
        }
        if tag != Self::plaintext_page_tag(vol, page) {
            return Err(ClusterError::Integrity { disk, offset });
        }
        Ok(())
    }

    /// Discard the media bytes of every extent the group's pool reclaimed
    /// since the last drain. Refcount-zero extents go back on the free
    /// list; without this trim a recycled extent resurfaces its previous
    /// life's bytes — a stale-tag integrity false positive at best, and a
    /// §5 disclosure hole (the next tenant reads the previous owner's
    /// media) at worst.
    pub(super) fn scrub_reclaimed_extents(&mut self, gi: usize) {
        let freed = self.groups[gi].volumes.take_reclaimed();
        if freed.is_empty() {
            return;
        }
        let eb = EXTENT_BYTES;
        let pb = PAGE_BYTES;
        for e in freed {
            let mut off = 0;
            while off < eb {
                let (disk, offset) = self.tag_slot(gi, e * eb + off);
                self.farm.clear_page_tag(disk, offset);
                off += pb;
            }
        }
    }

    /// Where the media tag of a page whose first mapped byte is
    /// RAID-logical byte `phys` of `group` lives: the member span holding
    /// that byte — by definition the first read of the *healthy* plan, so
    /// the slot does not move while a member is failed.
    pub(super) fn tag_slot(&self, group: usize, phys: u64) -> (DiskId, u64) {
        let g = &self.groups[group];
        let at = g.geo.locate(phys);
        (DiskId(g.disk_base + at.member), at.offset)
    }

    /// Where the first physical data span backing `vol`'s page `page`
    /// lives: the (disk, member offset) a fault injector would hit.
    /// `None` for unmapped pages. Does not alter any state.
    pub fn locate_volume_page(&mut self, vol: VolumeId, page: u64) -> Option<(DiskId, u64)> {
        let pb = PAGE_BYTES;
        let (gi, _) = Self::decode_vol(vol);
        let (phys, _) = self.mapped_pieces(vol, page * pb, pb).ok()?.next()?;
        Some(self.tag_slot(gi, phys))
    }

    /// Inject a latent media error on the page of `disk` containing
    /// `offset` (the ys-chaos `CorruptPage` fault). Silent until a
    /// verified read or a scrub covers it. Returns false for out-of-range
    /// targets.
    pub fn corrupt_disk_page(&mut self, disk: DiskId, offset: u64) -> bool {
        if disk.0 >= self.farm.len() {
            return false;
        }
        self.farm.corrupt_page(disk, offset)
    }

    /// Inject a latent error on the physical data span backing `vol`'s
    /// page `page`, so the rot is visible to any verified read of that
    /// page (unlike a raw [`BladeCluster::corrupt_disk_page`], which may
    /// land on parity or free space). Returns the (disk, member offset)
    /// hit, or `None` when the page is unmapped.
    pub fn corrupt_volume_page(&mut self, vol: VolumeId, page: u64) -> Option<(DiskId, u64)> {
        let (disk, offset) = self.locate_volume_page(vol, page)?;
        self.farm.corrupt_page(disk, offset);
        Some((disk, offset))
    }

    /// Whether `disk`'s page containing `offset` currently fails
    /// verification.
    pub fn disk_page_corrupt(&self, disk: DiskId, offset: u64) -> bool {
        disk.0 < self.farm.len() && self.farm.is_page_corrupt(disk, offset)
    }

    /// Pages across the farm currently failing verification.
    pub fn corrupt_page_count(&self) -> usize {
        self.farm.corrupt_page_count()
    }

    /// Scrub probe: read volume page `page` directly from the disks
    /// through the healthy RAID path and verify checksums, without
    /// touching the cache (a scrub must observe the media, not the
    /// cache). Unmapped pages verify trivially clean.
    pub fn verify_page(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
    ) -> Result<PageVerify, ClusterError> {
        let mut mismatches = Vec::new();
        let io = self.read_page_media(now, blade, vol, page, &mut mismatches)?;
        Ok(PageVerify { done: io.done, mismatches })
    }

    /// Scrub repair, source 1: reconstruct the rotten span on `disk` from
    /// its RAID group's redundancy and rewrite it (laying down fresh
    /// checksums). Fails with [`ClusterError::Integrity`] if a peer read
    /// is itself rotten (the reconstruction would be garbage) and with
    /// [`ClusterError::Raid`] when the level has no redundancy to spend.
    pub fn repair_disk_span_from_parity(
        &mut self,
        now: SimTime,
        blade: usize,
        disk: DiskId,
        offset: u64,
        bytes: u64,
    ) -> Result<SimTime, ClusterError> {
        let (gi, member) = self.group_of_disk(disk);
        let plan = ys_raid::repair_plan(&self.groups[gi].geo, member, offset, bytes, self.group_failed(gi))?;
        let mut mismatches = Vec::new();
        let done = self.charge(gi, blade, now, &plan, Some(&mut mismatches))?;
        refuse_rot(&mismatches)?;
        Ok(done)
    }

    /// Scrub repair, source 2: if any up blade still caches `page`, its
    /// copy is the current data — rewrite it to disk (fresh checksums
    /// repair the rot). Returns `Ok(None)` when no usable cached copy
    /// exists (not resident, holder down, or tombstoned lost).
    pub fn rewrite_page_from_cache(
        &mut self,
        now: SimTime,
        vol: VolumeId,
        page: u64,
    ) -> Result<Option<SimTime>, ClusterError> {
        let key = PageKey::new(vol.0, page);
        if self.cache.is_lost(key) {
            return Ok(None);
        }
        let holder = self
            .cache
            .directory()
            .get(&key)
            .map(|e| e.holders())
            .unwrap_or_default()
            .into_iter()
            .find(|&b| self.cache.blade_up(b));
        let Some(blade) = holder else {
            return Ok(None);
        };
        Ok(Some(self.scrub_rewrite_page(now, blade, vol, page)?))
    }

    /// Rewrite one volume page to disk from blade `blade` (scrub repair
    /// install path — also used to land a geo-fetched copy). Pure disk
    /// traffic: cache metadata is untouched.
    pub fn scrub_rewrite_page(
        &mut self,
        now: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
    ) -> Result<SimTime, ClusterError> {
        let io = self.write_page_media(now, blade, vol, page)?;
        // A repair install rewrites the page's media bytes too, so a
        // scrubbed page reads back byte-identical (still ciphertext when
        // at-rest encryption is on).
        self.stamp_page_tag(vol, page, &io);
        Ok(io.done)
    }

    /// Copy rot markers from mismatched rebuild source reads onto the
    /// replacement disk: the reconstructed spans came from untrustworthy
    /// bytes, so they must stay detectable instead of reading back as
    /// clean. Returns the number of pages poisoned.
    pub fn poison_rebuilt_spans(&mut self, target: DiskId, mismatches: &[ReadMismatch]) -> u64 {
        let mut poisoned = 0u64;
        for m in mismatches {
            let bad: Vec<u64> = self
                .farm
                .disk(m.disk)
                .corrupt_offsets()
                .filter(|&off| off >= m.offset && off < m.offset + m.bytes)
                .collect();
            for off in bad {
                if self.farm.corrupt_page(target, off) {
                    poisoned += 1;
                }
            }
        }
        self.stats.rebuild_mismatches += u64::from(poisoned > 0);
        poisoned
    }
}
