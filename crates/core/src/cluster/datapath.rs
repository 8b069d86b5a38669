//! The data path: client reads and writes through the pooled cache, the
//! background destage queue, readahead — and the one path from a volume
//! page to the media that all of them (and the lifecycle and integrity
//! planes) share.

use super::{refuse_rot, BladeCluster, ClusterError, Completion, PageIo, ReadMismatch};
use crate::config::{LoadBalance, EXTENT_BYTES, PAGE_BYTES};
use std::cmp::Reverse;
use ys_cache::{CacheError, PageKey, ReadOutcome, Retention};
use ys_raid::{DataLoss, Geometry, IoPlan};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::{DiskId, DiskOp, Verification};
use ys_virt::{Segment, VolumeId};

impl BladeCluster {
    fn client_port(&self, client: usize) -> usize {
        debug_assert!(client < self.cfg.clients);
        client
    }

    fn blade_host_port(&self, blade: usize) -> usize {
        self.cfg.clients + blade
    }

    /// Pick the serving blade per the configured policy.
    fn pick_blade(&mut self, vol: VolumeId, page: u64) -> Result<usize, ClusterError> {
        let (cache, blades) = (&self.cache, self.cfg.blades);
        let up = || (0..blades).filter(|&b| cache.blade_up(b));
        let n = up().count();
        if n == 0 {
            return Err(ClusterError::NoBladesUp);
        }
        let slot = match self.cfg.load_balance {
            LoadBalance::RoundRobin => {
                self.rr_next = (self.rr_next + 1) % n;
                self.rr_next
            }
            LoadBalance::PageAffinity => PageKey::new(vol.0, page).home(n),
            LoadBalance::PinnedByVolume => vol.0 as usize % n,
        };
        up().nth(slot).ok_or(ClusterError::NoBladesUp)
    }

    /// Encryption time for `bytes` (zero when disabled).
    pub(crate) fn crypt_time(&self, bytes: u64, enabled: bool) -> SimDuration {
        if !enabled {
            return SimDuration::ZERO;
        }
        let per_byte = if self.cfg.encryption.hardware_assist {
            ys_security::HW_NS_PER_BYTE
        } else {
            ys_security::SW_NS_PER_BYTE
        };
        SimDuration::from_nanos((bytes as f64 * per_byte) as u64)
    }

    /// Read `[offset, offset+len)` from `vol` on behalf of `client`.
    pub fn read(
        &mut self,
        now: SimTime,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
    ) -> Result<Completion, ClusterError> {
        assert!(len > 0);
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let pb = PAGE_BYTES;
        let blade = self.pick_blade(vol, offset / pb)?;
        // Request command to the blade.
        let t0 = self
            .host_fabric
            .send(now, self.client_port(client), self.blade_host_port(blade), 64)
            .arrival;
        let mut data_ready = t0;
        let first_page = offset / pb;
        let last_page = (offset + len - 1) / pb;
        for page in first_page..=last_page {
            let key = PageKey::new(vol.0, page);
            let page_off = page * pb;
            // Overlap of the request with this page.
            let lo = offset.max(page_off);
            let hi = (offset + len).min(page_off + pb);
            let piece = hi - lo;
            let outcome = self.cache.read(blade, key).map_err(ClusterError::Cache)?;
            let page_done = match outcome {
                ReadOutcome::LocalHit => {
                    self.stats.reads_from_local_cache += 1;
                    self.cpus[blade].transfer(t0, piece).arrival
                }
                ReadOutcome::RemoteHit { from } => {
                    if self.cfg.remote_cache_supply {
                        self.stats.reads_from_remote_cache += 1;
                        let hop = self.cluster_fabric.send(t0, from, blade, pb).arrival;
                        self.cpus[blade].transfer(hop, piece).arrival
                    } else {
                        // Ablation: partitioned controllers — the peer's
                        // copy is invisible, pay the full disk path.
                        let ready = self.fetch_page(t0, blade, vol, page)?;
                        self.cpus[blade].transfer(ready, piece).arrival
                    }
                }
                ReadOutcome::Miss => {
                    // A prefetch may already have this page in flight:
                    // join it rather than re-reading the disks.
                    if let Some(&(arrival, _)) = self.inflight_fills.get(&(key.volume, key.page)) {
                        self.stats.prefetch_hits += 1;
                        self.inflight_fills.remove(&(key.volume, key.page));
                        let ready = t0.max(SimTime(arrival));
                        let filled = self.cpus[blade].transfer(ready, piece).arrival;
                        self.fill_with_backpressure(blade, key, Retention::Normal, filled)?;
                        filled
                    } else {
                        let ready = self.fetch_page(t0, blade, vol, page)?;
                        let filled = self.cpus[blade].transfer(ready, piece).arrival;
                        self.fill_with_backpressure(blade, key, Retention::Normal, filled)?;
                        filled
                    }
                }
            };
            data_ready = data_ready.max(page_done);
        }
        // Sequential detection → readahead (§4 "storage prefetch").
        if self.cfg.prefetch_pages > 0 {
            let seq = self.seq_cursor.get(&(client, vol.0)) == Some(&offset);
            self.seq_cursor.insert((client, vol.0), offset + len);
            if seq {
                self.issue_readahead(blade, vol, last_page + 1, data_ready)?;
            }
        }
        // In-transit encryption, then the data crosses the host fabric.
        let enc = self.crypt_time(len, self.cfg.encryption.in_transit);
        let arrival = self
            .host_fabric
            .send(data_ready + enc, self.blade_host_port(blade), self.client_port(client), len)
            .arrival;
        let latency = arrival.since(now);
        self.stats.read_latency.record(latency);
        self.stats.read_meter.record(arrival, len);
        Ok(Completion { done: arrival, latency })
    }

    /// Foreground fetch of one whole page from the disks through RAID (the
    /// miss fill, and the partitioned-controller ablation's remote arm).
    /// Rot never propagates: a checksum mismatch, or media bytes that do
    /// not decipher back to the expected plaintext, is an explicit
    /// [`ClusterError::Integrity`]. Returns when the page, deciphered on
    /// the way up, is in blade memory.
    fn fetch_page(&mut self, t0: SimTime, blade: usize, vol: VolumeId, page: u64) -> Result<SimTime, ClusterError> {
        self.stats.reads_from_disk += 1;
        let mut mismatches = Vec::new();
        let io = self.read_page_media(t0, blade, vol, page, &mut mismatches)?;
        refuse_rot(&mismatches)?;
        self.check_page_tag(vol, page, &io)?;
        Ok(io.done + self.crypt_time(PAGE_BYTES, self.cfg.encryption.at_rest))
    }

    /// Issue background disk reads for the next `prefetch_pages` pages of
    /// `vol` starting at `from_page`; they land in the cache at their disk
    /// arrival time (see [`BladeCluster::advance`]).
    fn issue_readahead(&mut self, blade: usize, vol: VolumeId, from_page: u64, at: SimTime) -> Result<(), ClusterError> {
        for page in from_page..from_page + self.cfg.prefetch_pages as u64 {
            let key = PageKey::new(vol.0, page);
            if self.inflight_fills.contains_key(&(key.volume, key.page)) {
                continue;
            }
            if self.cache.directory().get(&key).map(|e| e.is_cached_anywhere()).unwrap_or(false) {
                continue;
            }
            // Only mapped data, and only verified: a prefetched page that
            // fails its checksum must never land in cache as if it were
            // good data — the fill is dropped and the later foreground
            // miss surfaces the mismatch explicitly.
            let mut mismatches = Vec::new();
            match self.read_page_media(at, blade, vol, page, &mut mismatches) {
                Ok(io) if io.tag_slot.is_some() && mismatches.is_empty() => {
                    self.inflight_fills.insert((key.volume, key.page), (io.done.nanos(), blade));
                    self.stats.prefetches_issued += 1;
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn fill_with_backpressure(
        &mut self,
        blade: usize,
        key: PageKey,
        retention: Retention,
        mut t: SimTime,
    ) -> Result<SimTime, ClusterError> {
        loop {
            match self.cache.fill(blade, key, retention) {
                Ok(_) => return Ok(t),
                Err(CacheError::EvictionStall(_)) => match self.force_one_destage(t) {
                    Some(nt) => t = nt,
                    None => return Err(ClusterError::Cache(CacheError::EvictionStall(blade))),
                },
                Err(e) => return Err(ClusterError::Cache(e)),
            }
        }
    }

    /// Write `[offset, offset+len)` with `copies`-way dirty replication and
    /// the given retention class. Write-back: the host is acked once the
    /// data is replicated in cache; destage to disk happens in background.
    #[allow(clippy::too_many_arguments)] // the op surface: who, where, what, how protected
    pub fn write(
        &mut self,
        now: SimTime,
        client: usize,
        vol: VolumeId,
        offset: u64,
        len: u64,
        copies: usize,
        retention: Retention,
    ) -> Result<Completion, ClusterError> {
        assert!(len > 0);
        self.advance(now);
        self.cache.trace_mut().set_now(now);
        let (tgi, _) = Self::decode_vol(vol);
        self.groups[tgi].volumes.trace_mut().set_now(now);
        let pb = PAGE_BYTES;
        let blade = self.pick_blade(vol, offset / pb)?;
        // Degraded-mode governor: refuse writes outright when no replica
        // protection is possible, instead of accepting data one more
        // failure would silently lose.
        if self.cfg.health_governor && self.cache.read_only() {
            self.stats.writes_refused_readonly += 1;
            self.cache.trace_mut().instant("heal", "write_refused", blade as u32, offset / pb, vol.0 as u64);
            return Err(ClusterError::ReadOnly);
        }
        // Data travels client → blade (with in-transit decryption charge on
        // arrival if transit encryption is on).
        let mut t = self
            .host_fabric
            .send(now, self.client_port(client), self.blade_host_port(blade), len)
            .arrival;
        t += self.crypt_time(len, self.cfg.encryption.in_transit);
        // Ensure DMSD backing exists (allocation is metadata work on the CPU).
        self.allocate_backing(vol, offset, len)?;

        let first_page = offset / pb;
        let last_page = (offset + len - 1) / pb;
        let mut ack = t;
        for page in first_page..=last_page {
            let key = PageKey::new(vol.0, page);
            // Cache write with backpressure on dirty saturation.
            let (outcome, t_cache) = loop {
                match self.cache.write(blade, key, copies, retention) {
                    Ok(o) => break (o, t),
                    Err(CacheError::EvictionStall(_)) => {
                        t = self.force_one_destage(t).ok_or(ClusterError::Cache(CacheError::EvictionStall(blade)))?;
                    }
                    Err(e) => return Err(ClusterError::Cache(e)),
                }
            };
            // Governed writes that land below their requested protection
            // level are a policy downgrade: audit it explicitly.
            if self.cfg.health_governor && outcome.replicas.len() + 1 < copies {
                self.stats.writes_downgraded += 1;
                let missing = (copies - 1 - outcome.replicas.len()) as u64;
                self.cache.trace_mut().instant("heal", "write_downgraded", blade as u32, key.page, missing);
            }
            let cpu_done = self.cpus[blade].transfer(t_cache, pb.min(len)).arrival;
            // N-way replication to peer caches before ack (§6.1).
            let mut repl_done = cpu_done;
            for &r in &outcome.replicas {
                let a = self.cluster_fabric.send(t_cache, blade, r, pb).arrival;
                repl_done = repl_done.max(a);
            }
            ack = ack.max(repl_done);
            // Background destage: RAID write of the page at ack time, with
            // at-rest encryption charged on the way down.
            let enc = self.crypt_time(pb, self.cfg.encryption.at_rest);
            let destage = self.write_page_media(ack + enc, blade, vol, page)?;
            // Data plane: what lands on the media is the (possibly
            // ciphered) page bytes, not the plaintext.
            self.stamp_page_tag(vol, page, &destage);
            self.pending.push(Reverse((destage.done.nanos(), key.volume, key.page, outcome.version)));
        }
        let latency = ack.since(now);
        self.stats.write_latency.record(latency);
        self.stats.write_meter.record(ack, len);
        Ok(Completion { done: ack, latency })
    }

    /// Apply every destage whose disk write has completed by `now`, and
    /// land every prefetch whose disk read has arrived.
    pub fn advance(&mut self, now: SimTime) {
        while let Some(Reverse((t, vol, page, version))) = self.pending.peek().copied() {
            if SimTime(t) > now {
                break;
            }
            self.pending.pop();
            self.apply_destage(PageKey::new(vol, page), version);
        }
        if !self.inflight_fills.is_empty() {
            let landed: Vec<((u32, u64), usize)> = self
                .inflight_fills
                .iter()
                .filter(|(_, &(t, _))| SimTime(t) <= now)
                .map(|(&k, &(_, blade))| (k, blade))
                .collect();
            for ((vol, page), blade) in landed {
                self.inflight_fills.remove(&(vol, page));
                if self.cache.blade_up(blade) {
                    let _ = self.cache.fill(blade, PageKey::new(vol, page), Retention::Normal);
                }
            }
        }
    }

    fn apply_destage(&mut self, key: PageKey, version: u64) {
        // Skip if a newer write superseded this destage (its own destage is
        // queued) or the page vanished with a failed blade.
        let current = self.cache.directory().get(&key).map(|e| e.version);
        if current == Some(version) {
            let _ = self.cache.destage(key);
        }
    }

    /// Force the earliest pending destage (used when a cache fills with
    /// dirty data — the write must wait for write-back to free space).
    pub(super) fn force_one_destage(&mut self, now: SimTime) -> Option<SimTime> {
        let Reverse((t, vol, page, version)) = self.pending.pop()?;
        self.apply_destage(PageKey::new(vol, page), version);
        Some(now.max(SimTime(t)))
    }

    /// Flush: apply every pending destage and return the time the last one
    /// completes.
    pub fn drain(&mut self) -> SimTime {
        let mut last = SimTime::ZERO;
        while let Some(Reverse((t, vol, page, version))) = self.pending.pop() {
            last = last.max(SimTime(t));
            self.apply_destage(PageKey::new(vol, page), version);
        }
        last
    }

    /// This group's slice of the global failed-disk mask.
    pub(super) fn group_failed(&self, group: usize) -> &[bool] {
        let g = &self.groups[group];
        &self.failed_disks[g.disk_base..g.disk_base + g.geo.members]
    }

    /// The extents a volume byte range touches: (first, how many).
    fn extent_span(&self, offset: u64, len: u64) -> (u64, u64) {
        let first_ext = offset / EXTENT_BYTES;
        (first_ext, (offset + len - 1) / EXTENT_BYTES - first_ext + 1)
    }

    /// Back a volume byte range about to be written with DMSD extents.
    fn allocate_backing(&mut self, vol: VolumeId, offset: u64, len: u64) -> Result<(), ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let (first_ext, extents) = self.extent_span(offset, len);
        self.groups[gi].volumes.write(local, first_ext, extents)?;
        // A COW redirect may have released extents; trim anything that
        // reached refcount zero (backstop: also drains frees from any
        // path above) before a stale tag can be stamped over or read.
        self.scrub_reclaimed_extents(gi);
        Ok(())
    }

    /// Translate a volume byte range into the (RAID-logical byte, len)
    /// pieces of its group that back it; holes contribute nothing.
    pub(super) fn mapped_pieces(&self, vol: VolumeId, offset: u64, len: u64) -> Result<impl Iterator<Item = (u64, u64)> + '_, ClusterError> {
        let (gi, local) = Self::decode_vol(vol);
        let eb = EXTENT_BYTES;
        let (first_ext, extents) = self.extent_span(offset, len);
        let segs = self.groups[gi].volumes.read_iter(local, first_ext, extents)?;
        Ok(segs.filter_map(move |seg| {
            let Segment::Mapped { vstart, pstart, len: elen } = seg else {
                return None;
            };
            // Overlap of [offset, offset+len) with this extent run.
            let seg_vbytes = vstart * eb;
            let lo = offset.max(seg_vbytes);
            let hi = (offset + len).min((vstart + elen) * eb);
            (lo < hi).then(|| (pstart * eb + (lo - seg_vbytes), hi - lo))
        }))
    }

    /// The one way a volume page comes up from the media: map it, plan a
    /// (possibly degraded) RAID read of each mapped piece, and charge the
    /// member reads checksum-verified from `start` via `blade`. Reads that
    /// hit rotten media are appended to `mismatches` — surfacing them is
    /// the caller's policy. The cache is untouched; a hole costs nothing.
    pub(super) fn read_page_media(
        &mut self,
        start: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
        mismatches: &mut Vec<ReadMismatch>,
    ) -> Result<PageIo, ClusterError> {
        self.page_media(start, blade, vol, page, ys_raid::read_plan_into, Some(mismatches))
    }

    /// The one way a volume page goes down to the media: map it, plan the
    /// RAID write (parity RMW included) of each mapped piece, and charge it
    /// from `start` via `blade`. Stamping the page's media tag and queueing
    /// the destage are the caller's.
    pub(super) fn write_page_media(&mut self, start: SimTime, blade: usize, vol: VolumeId, page: u64) -> Result<PageIo, ClusterError> {
        self.page_media(start, blade, vol, page, ys_raid::write_plan_into, None)
    }

    /// Both directions' body: each mapped piece is planned by `plan_into`
    /// into the cluster's one reused plan and charged before the next is
    /// planned.
    fn page_media(
        &mut self,
        start: SimTime,
        blade: usize,
        vol: VolumeId,
        page: u64,
        plan_into: impl Fn(&Geometry, u64, u64, &[bool], &mut IoPlan) -> Result<(), DataLoss>,
        mut mismatches: Option<&mut Vec<ReadMismatch>>,
    ) -> Result<PageIo, ClusterError> {
        let pb = PAGE_BYTES;
        let (gi, _) = Self::decode_vol(vol);
        let geo = self.groups[gi].geo;
        // `charge` borrows the whole cluster, so the buffers step outside
        // it for the trip and go back whatever the outcome.
        let mut scratch = std::mem::take(&mut self.media_scratch);
        let io = (|| {
            scratch.pieces.clear();
            scratch.pieces.extend(self.mapped_pieces(vol, page * pb, pb)?);
            let mut done = start;
            for &(phys, plen) in &scratch.pieces {
                plan_into(&geo, phys, plen, self.group_failed(gi), &mut scratch.plan)?;
                done = done.max(self.charge(gi, blade, start, &scratch.plan, mismatches.as_deref_mut())?);
            }
            let tag_slot = scratch.pieces.first().map(|&(phys, _)| self.tag_slot(gi, phys));
            Ok(PageIo { done, tag_slot })
        })();
        self.media_scratch = scratch;
        io
    }

    /// Charge the RAID member I/O for `plan` (member indices relative to
    /// `group`) starting at `start`, via blade `blade`'s disk-side link.
    /// Reads: disk first, then FC back to blade. Writes: FC to the shelf,
    /// then disk service.
    ///
    /// With `mismatches`, every read is checksum-verified: timing is
    /// identical (verification is metadata, not I/O) and each read that
    /// hit rotten media is appended, for the caller to surface or repair —
    /// never to ignore. Without it, reads are not verified at all.
    pub(crate) fn charge(
        &mut self,
        group: usize,
        blade: usize,
        start: SimTime,
        plan: &IoPlan,
        mut mismatches: Option<&mut Vec<ReadMismatch>>,
    ) -> Result<SimTime, ClusterError> {
        let base = self.groups[group].disk_base;
        let mut done = start;
        let mut rotten = 0u64;
        for io in &plan.reads {
            let id = DiskId(base + io.member);
            let op = DiskOp::Read { offset: io.offset, bytes: io.bytes };
            let disk_done = match mismatches.as_deref_mut() {
                None => self.farm.submit(id, start, op)?,
                Some(found) => {
                    let (disk_done, verdict) = self.farm.submit_verified(id, start, op)?;
                    if verdict == Verification::ChecksumMismatch {
                        found.push(ReadMismatch { disk: id, offset: io.offset, bytes: io.bytes });
                        rotten += 1;
                    }
                    disk_done
                }
            };
            let arrival = self.disk_links[blade].transfer(disk_done, io.bytes).arrival;
            done = done.max(arrival);
        }
        // Writes begin after the reads they depend on (RMW ordering).
        let write_start = done;
        for io in &plan.writes {
            let arrival = self.disk_links[blade].transfer(write_start, io.bytes).arrival;
            let disk_done = self.farm.submit(DiskId(base + io.member), arrival, DiskOp::Write { offset: io.offset, bytes: io.bytes })?;
            done = done.max(disk_done);
        }
        self.stats.integrity_errors += rotten;
        Ok(done)
    }
}
