//! Single-disk service model.

use std::collections::{BTreeMap, BTreeSet};
use ys_simcore::time::{Bandwidth, SimDuration, SimTime};

/// Granularity of the at-rest checksum plane: one checksum protects one
/// 64 KiB page (matching the cluster cache page). Corruption is tracked and
/// repaired at this unit.
pub const CHECKSUM_PAGE_BYTES: u64 = 64 * 1024;

/// Size of the representative payload stored per page by the data plane.
/// The simulator does not hold 64 KiB of real bytes per page; instead each
/// written page carries a small *tag* — enough real bytes to prove the
/// cipher pipeline end to end (plaintext in, ciphertext on media,
/// plaintext back out, repairs byte-identical) without the memory cost.
pub const PAGE_TAG_BYTES: usize = 16;

/// Outcome of a checksum-verified read: either every covered page matched
/// its stored checksum, or at least one page is silently rotten. The
/// mismatch carries no data — callers must treat the whole read as poisoned
/// and go to a redundant source (parity, cache replica, geo copy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verification {
    /// All covered pages matched their checksums.
    Verified,
    /// At least one covered page failed verification (latent media error).
    ChecksumMismatch,
}

impl Verification {
    /// True iff the read verified clean.
    pub fn is_verified(&self) -> bool {
        matches!(self, Verification::Verified)
    }
}

/// Mechanical and interface parameters of one drive.
#[derive(Clone, Copy, Debug)]
pub struct DiskSpec {
    pub capacity_bytes: u64,
    /// Shortest (track-to-track) seek.
    pub min_seek: SimDuration,
    /// Full-stroke seek.
    pub max_seek: SimDuration,
    /// One full platter rotation (6 ms at 10k RPM).
    pub rotation: SimDuration,
    /// Sustained media transfer rate.
    pub media_rate: Bandwidth,
    /// Controller/firmware fixed overhead per command.
    pub command_overhead: SimDuration,
}

impl DiskSpec {
    /// A c. 2001 10k-RPM, 73 GB Fibre Channel drive.
    pub fn cheetah_73() -> DiskSpec {
        DiskSpec {
            capacity_bytes: 73 * 1000 * 1000 * 1000,
            min_seek: SimDuration::from_micros(600),
            max_seek: SimDuration::from_millis(11),
            rotation: SimDuration::from_millis(6),
            media_rate: Bandwidth::from_mbyte_per_sec(50),
            command_overhead: SimDuration::from_micros(200),
        }
    }

    /// Seek time for a head movement spanning `distance` bytes of LBA space.
    /// The classic concave model: `min + (max - min) * sqrt(d / capacity)`.
    fn seek_time(&self, distance: u64) -> SimDuration {
        if distance == 0 {
            return SimDuration::ZERO;
        }
        let frac = (distance as f64 / self.capacity_bytes as f64).min(1.0);
        let extra = (self.max_seek.nanos() - self.min_seek.nanos()) as f64 * frac.sqrt();
        SimDuration::from_nanos(self.min_seek.nanos() + extra as u64)
    }

    /// Average rotational latency: half a revolution. Deterministic by
    /// design — experiments must not depend on hidden randomness.
    fn avg_rotation(&self) -> SimDuration {
        self.rotation / 2
    }
}

/// A disk command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskOp {
    Read { offset: u64, bytes: u64 },
    Write { offset: u64, bytes: u64 },
}

impl DiskOp {
    fn offset(&self) -> u64 {
        match *self {
            DiskOp::Read { offset, .. } | DiskOp::Write { offset, .. } => offset,
        }
    }

    fn bytes(&self) -> u64 {
        match *self {
            DiskOp::Read { bytes, .. } | DiskOp::Write { bytes, .. } => bytes,
        }
    }

    fn end(&self) -> u64 {
        self.offset() + self.bytes()
    }

    fn is_write(&self) -> bool {
        matches!(self, DiskOp::Write { .. })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskError {
    /// The drive has failed; commands are not serviced.
    Failed,
    /// Command extends past the end of the medium.
    OutOfRange,
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Failed => write!(f, "disk failed"),
            DiskError::OutOfRange => write!(f, "I/O beyond end of medium"),
        }
    }
}

impl std::error::Error for DiskError {}

/// One drive: FIFO command queue plus head-position state.
#[derive(Clone, Debug)]
pub struct Disk {
    spec: DiskSpec,
    /// Byte position where the head will rest after the queued commands.
    head: u64,
    busy_until: SimTime,
    failed: bool,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    /// Page indices (offset / [`CHECKSUM_PAGE_BYTES`]) whose media has
    /// rotted since they were last written. Silent until a verified read
    /// or a scrub looks; plain `submit` timing is unaffected.
    corrupt: BTreeSet<u64>,
    mismatches: u64,
    /// Sparse data plane: page index → the representative bytes most
    /// recently written there ([`PAGE_TAG_BYTES`] per page). What lives
    /// here is exactly what is on the media — ciphertext when the
    /// controller encrypts at rest.
    content: BTreeMap<u64, [u8; PAGE_TAG_BYTES]>,
}

impl Disk {
    pub fn new(spec: DiskSpec) -> Disk {
        Disk {
            spec,
            head: 0,
            busy_until: SimTime::ZERO,
            failed: false,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
            corrupt: BTreeSet::new(),
            mismatches: 0,
            content: BTreeMap::new(),
        }
    }

    pub fn is_failed(&self) -> bool {
        self.failed
    }

    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Replace the drive with a fresh unit: empty, healthy, head at zero.
    /// Fresh media carries fresh checksums, so any rot dies with the old
    /// platters.
    pub fn replace(&mut self) {
        self.failed = false;
        self.head = 0;
        self.reads = 0;
        self.writes = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
        self.corrupt.clear();
        self.content.clear();
    }

    /// Store the representative bytes for the page containing `offset`
    /// (the data-plane side of a write; service time is charged via
    /// [`Disk::submit`] separately). Returns false past the end of the
    /// medium or on a failed drive.
    pub fn write_page_tag(&mut self, offset: u64, tag: [u8; PAGE_TAG_BYTES]) -> bool {
        if self.failed || offset >= self.spec.capacity_bytes {
            return false;
        }
        self.content.insert(offset / CHECKSUM_PAGE_BYTES, tag);
        true
    }

    /// The representative bytes currently on the media for the page
    /// containing `offset`. `None` if the page was never written (or the
    /// drive was replaced since), or if the drive has failed.
    pub fn read_page_tag(&self, offset: u64) -> Option<[u8; PAGE_TAG_BYTES]> {
        if self.failed {
            return None;
        }
        self.content.get(&(offset / CHECKSUM_PAGE_BYTES)).copied()
    }

    /// Discard the data-plane bytes of the page containing `offset` — the
    /// device-level trim a controller issues when the extent above is
    /// reclaimed, so a recycled extent never carries a previous life's
    /// bytes. Returns true if the page actually held bytes; false on a
    /// failed drive, past the end of the medium, or on an empty page.
    pub fn clear_page_tag(&mut self, offset: u64) -> bool {
        if self.failed || offset >= self.spec.capacity_bytes {
            return false;
        }
        self.content.remove(&(offset / CHECKSUM_PAGE_BYTES)).is_some()
    }

    /// Inject a latent media error on the page containing `offset`. The
    /// rot is silent — nothing notices until a verified read or a scrub
    /// covers the page. Returns false (no-op) past the end of the medium.
    pub fn corrupt_page(&mut self, offset: u64) -> bool {
        if offset >= self.spec.capacity_bytes {
            return false;
        }
        self.corrupt.insert(offset / CHECKSUM_PAGE_BYTES);
        true
    }

    /// Whether the page containing `offset` currently fails verification.
    pub fn is_page_corrupt(&self, offset: u64) -> bool {
        self.corrupt.contains(&(offset / CHECKSUM_PAGE_BYTES))
    }

    /// Number of pages currently failing verification.
    pub fn corrupt_page_count(&self) -> usize {
        self.corrupt.len()
    }

    /// Byte offsets (page-aligned, ascending) of every rotten page.
    pub fn corrupt_offsets(&self) -> impl Iterator<Item = u64> + '_ {
        self.corrupt.iter().map(|p| p * CHECKSUM_PAGE_BYTES)
    }

    /// Checksum mismatches observed by verified reads so far.
    pub fn checksum_mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Would `op`'s span fail verification right now?
    fn span_corrupt(&self, op: &DiskOp) -> bool {
        if op.bytes() == 0 || self.corrupt.is_empty() {
            return false;
        }
        let first = op.offset() / CHECKSUM_PAGE_BYTES;
        let last = (op.end() - 1) / CHECKSUM_PAGE_BYTES;
        self.corrupt.range(first..=last).next().is_some()
    }

    /// Drop rot markers on every page `op` touches: a write lays down
    /// fresh checksums over the whole span (the controller writes full
    /// checksum units).
    fn clear_span(&mut self, op: &DiskOp) {
        if op.bytes() == 0 || self.corrupt.is_empty() {
            return;
        }
        let first = op.offset() / CHECKSUM_PAGE_BYTES;
        let last = (op.end() - 1) / CHECKSUM_PAGE_BYTES;
        for p in first..=last {
            self.corrupt.remove(&p);
        }
    }

    /// Pure service-time estimate (no queueing) for `op` given the current
    /// head position.
    fn service_time(&self, op: &DiskOp) -> SimDuration {
        let positioning = if op.offset() == self.head {
            // Sequential continuation: no seek, no rotational loss.
            SimDuration::ZERO
        } else {
            let dist = op.offset().abs_diff(self.head);
            self.spec.seek_time(dist) + self.spec.avg_rotation()
        };
        self.spec.command_overhead + positioning + self.spec.media_rate.transfer_time(op.bytes())
    }

    /// Queue `op` at `now`; returns its completion instant.
    pub fn submit(&mut self, now: SimTime, op: DiskOp) -> Result<SimTime, DiskError> {
        if self.failed {
            return Err(DiskError::Failed);
        }
        if op.end() > self.spec.capacity_bytes {
            return Err(DiskError::OutOfRange);
        }
        let start = now.max(self.busy_until);
        let service = self.service_time(&op);
        let done = start + service;
        self.busy_until = done;
        self.head = op.end();
        if op.is_write() {
            self.writes += 1;
            self.bytes_written += op.bytes();
            self.clear_span(&op);
        } else {
            self.reads += 1;
            self.bytes_read += op.bytes();
        }
        Ok(done)
    }

    /// Queue `op` at `now` and verify checksums over its span. Timing is
    /// identical to [`Disk::submit`] — verification is a metadata check,
    /// not extra I/O — so a corruption-free run is byte-identical either
    /// way. Writes always verify (they lay down fresh checksums).
    pub fn submit_verified(
        &mut self,
        now: SimTime,
        op: DiskOp,
    ) -> Result<(SimTime, Verification), DiskError> {
        let done = self.submit(now, op)?;
        let verdict = if !op.is_write() && self.span_corrupt(&op) {
            self.mismatches += 1;
            Verification::ChecksumMismatch
        } else {
            Verification::Verified
        };
        Ok((done, verdict))
    }

    pub fn reads(&self) -> u64 {
        self.reads
    }

    pub fn writes(&self) -> u64 {
        self.writes
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskSpec::cheetah_73())
    }

    #[test]
    fn sequential_io_skips_positioning() {
        let mut d = disk();
        let t1 = d.submit(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 64 * 1024 }).unwrap();
        let before = d.busy_until;
        let t2 = d.submit(t1, DiskOp::Read { offset: 64 * 1024, bytes: 64 * 1024 }).unwrap();
        // Second op: overhead + transfer only.
        let expect = before + d.spec.command_overhead + d.spec.media_rate.transfer_time(64 * 1024);
        assert_eq!(t2, expect);
    }

    #[test]
    fn random_io_pays_seek_and_rotation() {
        let mut d = disk();
        let seq = d.service_time(&DiskOp::Read { offset: 0, bytes: 4096 });
        d.head = 0;
        let rand = d.service_time(&DiskOp::Read { offset: 30_000_000_000, bytes: 4096 });
        assert!(rand > seq + SimDuration::from_millis(5), "seq {seq} rand {rand}");
    }

    #[test]
    fn random_4k_service_time_is_era_plausible() {
        // A mid-stroke random 4 KiB read on a 10k-RPM drive should take
        // roughly 6–12 ms (seek + half rotation + transfer).
        let mut d = disk();
        d.head = 0;
        let s = d.service_time(&DiskOp::Read { offset: 36_000_000_000, bytes: 4096 });
        let ms = s.as_millis_f64();
        assert!((6.0..12.0).contains(&ms), "{ms} ms");
    }

    #[test]
    fn queueing_is_fifo() {
        let mut d = disk();
        let t1 = d.submit(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 1 << 20 }).unwrap();
        let t2 = d.submit(SimTime::ZERO, DiskOp::Read { offset: 1 << 20, bytes: 1 << 20 }).unwrap();
        assert!(t2 > t1);
    }

    #[test]
    fn failed_disk_rejects_io() {
        let mut d = disk();
        d.fail();
        assert_eq!(d.submit(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 512 }), Err(DiskError::Failed));
        d.replace();
        assert!(d.submit(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 512 }).is_ok());
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = disk();
        let cap = d.spec.capacity_bytes;
        assert_eq!(
            d.submit(SimTime::ZERO, DiskOp::Write { offset: cap - 100, bytes: 200 }),
            Err(DiskError::OutOfRange)
        );
        assert!(d.submit(SimTime::ZERO, DiskOp::Write { offset: cap - 200, bytes: 200 }).is_ok());
    }

    #[test]
    fn counters_track_reads_and_writes() {
        let mut d = disk();
        d.submit(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 1000 }).unwrap();
        d.submit(SimTime::ZERO, DiskOp::Write { offset: 5000, bytes: 2000 }).unwrap();
        assert_eq!((d.reads(), d.writes()), (1, 1));
        assert_eq!((d.bytes_read(), d.bytes_written()), (1000, 2000));
    }

    #[test]
    fn corruption_is_silent_until_verified() {
        let mut d = disk();
        assert!(d.corrupt_page(3 * CHECKSUM_PAGE_BYTES + 17));
        // Plain submit never looks at checksums.
        let op = DiskOp::Read { offset: 3 * CHECKSUM_PAGE_BYTES, bytes: 4096 };
        assert!(d.submit(SimTime::ZERO, op).is_ok());
        assert_eq!(d.checksum_mismatches(), 0);
        // A verified read of the same span flags it.
        let (_, v) = d.submit_verified(SimTime::ZERO, op).unwrap();
        assert_eq!(v, Verification::ChecksumMismatch);
        assert_eq!(d.checksum_mismatches(), 1);
        // Clean span verifies fine.
        let clean = DiskOp::Read { offset: 0, bytes: 4096 };
        let (_, v) = d.submit_verified(SimTime::ZERO, clean).unwrap();
        assert!(v.is_verified());
    }

    #[test]
    fn verified_timing_matches_plain_submit() {
        let mut a = disk();
        let mut b = disk();
        b.corrupt_page(0);
        let op = DiskOp::Read { offset: 0, bytes: 64 * 1024 };
        let t_plain = a.submit(SimTime::ZERO, op).unwrap();
        let (t_verified, v) = b.submit_verified(SimTime::ZERO, op).unwrap();
        assert_eq!(t_plain, t_verified, "verification must not cost simulated time");
        assert_eq!(v, Verification::ChecksumMismatch);
    }

    #[test]
    fn writes_lay_down_fresh_checksums() {
        let mut d = disk();
        d.corrupt_page(0);
        d.corrupt_page(CHECKSUM_PAGE_BYTES);
        assert_eq!(d.corrupt_page_count(), 2);
        // Overwriting a rotten span repairs it; the neighbour stays rotten.
        d.submit(SimTime::ZERO, DiskOp::Write { offset: 0, bytes: 4096 }).unwrap();
        assert!(!d.is_page_corrupt(0));
        assert!(d.is_page_corrupt(CHECKSUM_PAGE_BYTES));
        assert_eq!(d.corrupt_offsets().collect::<Vec<_>>(), vec![CHECKSUM_PAGE_BYTES]);
    }

    #[test]
    fn replacement_media_is_clean() {
        let mut d = disk();
        d.corrupt_page(0);
        d.fail();
        d.replace();
        assert_eq!(d.corrupt_page_count(), 0);
        let (_, v) = d
            .submit_verified(SimTime::ZERO, DiskOp::Read { offset: 0, bytes: 512 })
            .unwrap();
        assert!(v.is_verified());
    }

    #[test]
    fn corrupting_past_the_medium_is_a_noop() {
        let mut d = disk();
        assert!(!d.corrupt_page(d.spec.capacity_bytes + 1));
        assert_eq!(d.corrupt_page_count(), 0);
    }

    #[test]
    fn page_tags_round_trip_and_die_with_the_media() {
        let mut d = disk();
        let tag = *b"ciphertext bytes";
        assert!(d.write_page_tag(2 * CHECKSUM_PAGE_BYTES + 100, tag));
        // Any offset within the page reads the same tag.
        assert_eq!(d.read_page_tag(2 * CHECKSUM_PAGE_BYTES), Some(tag));
        assert_eq!(d.read_page_tag(3 * CHECKSUM_PAGE_BYTES - 1), Some(tag));
        assert_eq!(d.read_page_tag(0), None, "never-written page has no bytes");
        assert_eq!(d.content.len(), 1);
        // Failed drives serve nothing; fresh media is empty.
        d.fail();
        assert!(!d.write_page_tag(0, tag));
        assert_eq!(d.read_page_tag(2 * CHECKSUM_PAGE_BYTES), None);
        d.replace();
        assert_eq!(d.content.len(), 0);
        assert_eq!(d.read_page_tag(2 * CHECKSUM_PAGE_BYTES), None);
    }

    #[test]
    fn clearing_a_page_tag_discards_only_that_page() {
        let mut d = disk();
        let tag = *b"ciphertext bytes";
        assert!(d.write_page_tag(CHECKSUM_PAGE_BYTES, tag));
        assert!(d.write_page_tag(2 * CHECKSUM_PAGE_BYTES, tag));
        // Trim one page; any offset within it addresses the same page.
        assert!(d.clear_page_tag(CHECKSUM_PAGE_BYTES + 512));
        assert_eq!(d.read_page_tag(CHECKSUM_PAGE_BYTES), None);
        assert_eq!(d.read_page_tag(2 * CHECKSUM_PAGE_BYTES), Some(tag));
        assert_eq!(d.content.len(), 1);
        // Empty pages, the void past the medium, and failed drives all
        // report nothing-to-discard.
        assert!(!d.clear_page_tag(CHECKSUM_PAGE_BYTES));
        assert!(!d.clear_page_tag(d.spec.capacity_bytes + 1));
        d.fail();
        assert!(!d.clear_page_tag(2 * CHECKSUM_PAGE_BYTES));
    }

    #[test]
    fn page_tags_past_the_medium_are_a_noop() {
        let mut d = disk();
        assert!(!d.write_page_tag(d.spec.capacity_bytes + 1, [0u8; PAGE_TAG_BYTES]));
        assert_eq!(d.content.len(), 0);
    }

    #[test]
    fn seek_time_is_monotone_and_bounded() {
        let spec = DiskSpec::cheetah_73();
        assert_eq!(spec.seek_time(0), SimDuration::ZERO);
        let near = spec.seek_time(1_000_000);
        let far = spec.seek_time(spec.capacity_bytes);
        assert!(near >= spec.min_seek);
        assert!(near < far);
        assert!(far <= spec.max_seek);
    }

    #[test]
    fn sustained_sequential_rate_approaches_media_rate() {
        let mut d = disk();
        let mut t = SimTime::ZERO;
        let chunk = 1 << 20;
        let total = 100u64;
        for i in 0..total {
            t = d.submit(t, DiskOp::Read { offset: i * chunk, bytes: chunk }).unwrap();
        }
        let rate = (total * chunk) as f64 / 1e6 / t.as_secs_f64();
        assert!(rate > 45.0 && rate <= 50.0, "sequential rate {rate} MB/s");
    }
}
