//! The NetStorage facade: multiple blade-cluster sites managed as a single
//! data image (§7) — one global namespace, policy-driven geographic
//! replication, first-reference migration with local performance
//! thereafter, and real-time disaster recovery.

use crate::cluster::{BladeCluster, ClusterError, Completion};
use crate::config::{ClusterConfig, EXTENT_BYTES, PAGE_BYTES};
use ys_geo::{place, AccessKind, DistributedAccess, Placement, ReplicationEngine, SiteId, SiteTopology};
use ys_pfs::{FileExtent, FilePolicy, FileSystem, FsError, Ino};
use ys_simcore::stats::LatencyHisto;
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::TRACE_CAPACITY;
use ys_simnet::Link;
use ys_virt::VolumeId;

/// Stripe unit of the global file system.
const STRIPE_UNIT: u64 = 1 << 20;

/// Multi-site configuration.
#[derive(Clone, Debug)]
pub struct NetStorageConfig {
    /// Per-site cluster hardware (identical sites, as labs deploy).
    pub site_cluster: ClusterConfig,
    pub topology: SiteTopology,
    /// Heat half-life for §7.1 auto-replication.
    pub heat_half_life_secs: f64,
    pub hot_threshold: f64,
}

impl Default for NetStorageConfig {
    fn default() -> NetStorageConfig {
        NetStorageConfig {
            site_cluster: ClusterConfig::default(),
            topology: SiteTopology::national_lab(),
            heat_half_life_secs: 300.0,
            hot_threshold: 3.0,
        }
    }
}

/// Errors from the facade.
#[derive(Debug)]
pub enum NetError {
    Fs(FsError),
    Cluster(ClusterError),
    Placement(ys_geo::PlacementError),
    FileUnavailable(Ino),
    SiteDown(SiteId),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Fs(e) => write!(f, "fs: {e}"),
            NetError::Cluster(e) => write!(f, "cluster: {e}"),
            NetError::Placement(e) => write!(f, "placement: {e}"),
            NetError::FileUnavailable(i) => write!(f, "file {i:?} unavailable (no surviving copy)"),
            NetError::SiteDown(s) => write!(f, "site {s:?} is down"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FsError> for NetError {
    fn from(e: FsError) -> Self {
        NetError::Fs(e)
    }
}

impl From<ClusterError> for NetError {
    fn from(e: ClusterError) -> Self {
        NetError::Cluster(e)
    }
}

impl From<ys_geo::PlacementError> for NetError {
    fn from(e: ys_geo::PlacementError) -> Self {
        NetError::Placement(e)
    }
}

/// Multi-site statistics.
#[derive(Clone, Debug, Default)]
pub struct GeoStats {
    pub local_read_latency: LatencyHisto,
    pub remote_first_reference_latency: LatencyHisto,
    pub migrations: u64,
    pub auto_replications: u64,
    pub sync_replica_writes: u64,
    pub async_writes_enqueued: u64,
    pub async_writes_shipped: u64,
    /// Pages re-fetched from a remote site by the scrubber's geo repair
    /// source ([`NetStorage::geo_fetch_page`]).
    pub scrub_page_fetches: u64,
    /// WAN frames whose payload was ciphered before touching the link
    /// (§5.1 in-transit encryption). With `in_transit` on, *every* frame
    /// is counted here and none under `wire_frames_plaintext`.
    pub wire_frames_ciphered: u64,
    /// WAN frames that crossed a site boundary as plaintext (crypt off).
    pub wire_frames_plaintext: u64,
}

/// Disaster-recovery report after a site failure.
#[derive(Clone, Debug, Default)]
pub struct DisasterReport {
    /// Files whose only copy lived at the failed site.
    pub files_lost: Vec<u64>,
    /// Async journal entries destroyed before shipping (the loss window).
    pub async_writes_lost: u64,
}

/// The geographically distributed storage system.
#[derive(Clone)]
pub struct NetStorage {
    pub clusters: Vec<BladeCluster>,
    pub topology: SiteTopology,
    access: DistributedAccess,
    repl: ReplicationEngine,
    pub fs: FileSystem,
    /// Queued WAN links per ordered site pair.
    wan: Vec<Vec<Option<Link>>>,
    files: Vec<Ino>,
    /// Monotone wire-frame sequence: the CTR nonce for in-transit frames,
    /// so no two frames ever share a keystream.
    wire_seq: u64,
    pub stats: GeoStats,
}

impl NetStorage {
    pub fn new(cfg: NetStorageConfig) -> NetStorage {
        let nsites = cfg.topology.len();
        let specs = cfg.site_cluster.group_specs();
        let mut clusters = Vec::with_capacity(nsites);
        let mut class_volumes: Vec<VolumeId> = Vec::new();
        for site in 0..nsites {
            let mut c = BladeCluster::new(cfg.site_cluster.clone());
            // Volume 0 at every site backs the global namespace; identical
            // layouts keep file extents addressable at any replica site.
            // lint: allow(panic-path) — a demand-mapped create reserves no extents: it cannot fail
            let v = c.create_volume("fs", 0, 1 << 40).expect("fs volume");
            debug_assert_eq!(v, VolumeId(0));
            // One backing volume per additional RAID group, so §4's
            // per-file RAID override has somewhere to place data.
            for (gi, _spec) in specs.iter().enumerate().skip(1) {
                let cv = c
                    .create_volume_in(gi, &format!("fs-class{gi}"), 0, 1 << 40)
                    .expect("class volume"); // lint: allow(panic-path) — demand-mapped, as above
                if site == 0 {
                    class_volumes.push(cv);
                }
            }
            clusters.push(c);
        }
        let mut wan = Vec::with_capacity(nsites);
        for a in 0..nsites {
            let mut row = Vec::with_capacity(nsites);
            for b in 0..nsites {
                row.push(if a == b {
                    None
                } else {
                    cfg.topology.link(SiteId(a), SiteId(b)).map(Link::new)
                });
            }
            wan.push(row);
        }
        let mut fs = FileSystem::new(vec![VolumeId(0)], STRIPE_UNIT);
        for (spec, &vol) in specs.iter().skip(1).zip(&class_volumes) {
            fs.add_storage_class(spec.level, vec![vol]);
        }
        NetStorage {
            clusters,
            access: DistributedAccess::new(cfg.heat_half_life_secs, cfg.hot_threshold),
            repl: ReplicationEngine::new(),
            fs,
            wan,
            topology: cfg.topology,
            files: Vec::new(),
            wire_seq: 0,
            stats: GeoStats::default(),
        }
    }

    /// Enable structured tracing across the whole multi-site system: the
    /// replication engine's batch instants, every WAN link's transfer spans
    /// (lane = `src * nsites + dst`), and each site cluster's internal
    /// tracing. Every ring holds [`TRACE_CAPACITY`] events.
    pub fn enable_tracing(&mut self) {
        self.repl.trace_mut().enable(TRACE_CAPACITY);
        let nsites = self.clusters.len();
        for (s, row) in self.wan.iter_mut().enumerate() {
            for (d, l) in row.iter_mut().enumerate() {
                if let Some(l) = l {
                    l.enable_trace((s * nsites + d) as u32);
                }
            }
        }
        for c in &mut self.clusters {
            c.enable_tracing();
        }
    }

    /// Drain every trace ring (replication engine, WAN links, site
    /// clusters): events sorted by time, plus the total dropped count.
    pub fn take_trace(&mut self) -> (Vec<ys_simcore::SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = self.repl.trace().dropped();
        self.repl.trace_mut().take_into(&mut events);
        for row in self.wan.iter_mut() {
            for l in row.iter_mut().flatten() {
                dropped += l.trace().dropped();
                l.trace_mut().take_into(&mut events);
            }
        }
        for c in &mut self.clusters {
            let (ev, d) = c.take_trace();
            events.extend(ev);
            dropped += d;
        }
        events.sort_by(|x, y| {
            (x.at, x.subsystem, x.name, x.lane).cmp(&(y.at, y.subsystem, y.name, y.lane))
        });
        (events, dropped)
    }

    /// Per-ordered-site-pair wire key: a keyed hash of (src, dst) under
    /// the cluster master key, so the WAN stage never reuses a volume key
    /// and a compromised trunk tap reveals nothing about data at rest.
    fn wire_key(&self, from: SiteId, to: SiteId) -> ys_security::Key {
        let master = ys_security::Key::from_seed(self.clusters[0].config().master_key_seed);
        let mut label = [0u8; 16];
        label[..8].copy_from_slice(&(from.0 as u64).to_be_bytes());
        label[8..].copy_from_slice(&(to.0 as u64).to_be_bytes());
        ys_security::Key::from_seed(ys_security::keyed_hash(&master, &label))
    }

    /// The representative plaintext bytes of one wire frame.
    fn wire_frame_tag(from: SiteId, to: SiteId, seq: u64) -> [u8; 16] {
        let mut tag = [0u8; 16];
        tag[..4].copy_from_slice(&(from.0 as u32).to_be_bytes());
        tag[4..8].copy_from_slice(&(to.0 as u32).to_be_bytes());
        tag[8..].copy_from_slice(&seq.to_be_bytes());
        tag
    }

    /// Move `bytes` from `from` to `to` over the WAN. With `in_transit`
    /// encryption on, the frame's representative bytes are ciphered under
    /// the pair's wire key *before* the link sees them (the link carries
    /// only ciphertext) and deciphered on arrival; both cipher stages are
    /// charged at the configured sw/hw per-byte rate.
    fn wan_transfer(&mut self, now: SimTime, from: SiteId, to: SiteId, bytes: u64) -> Option<SimTime> {
        self.topology.link(from, to)?;
        let enc = self.clusters[from.0].config().encryption;
        let mut depart = now;
        if enc.in_transit {
            self.wire_seq += 1;
            let seq = self.wire_seq;
            let key = self.wire_key(from, to);
            let plain = Self::wire_frame_tag(from, to, seq);
            let mut frame = plain;
            ys_security::ctr_xor(&key, seq, 0, &mut frame);
            debug_assert_ne!(frame, plain, "ciphertext must differ from plaintext");
            depart += self.clusters[from.0].crypt_time(bytes, true);
            // The link only ever carries `frame` (ciphertext); the receiver
            // deciphers with the same (key, nonce) and must round-trip.
            let mut received = frame;
            ys_security::ctr_xor(&key, seq, 0, &mut received);
            debug_assert_eq!(received, plain, "wire frame must decipher byte-identical");
            self.stats.wire_frames_ciphered += 1;
        } else {
            self.stats.wire_frames_plaintext += 1;
        }
        let arrival = self.wan[from.0][to.0].as_mut().map(|l| l.transfer(depart, bytes).arrival)?;
        Some(if enc.in_transit { arrival + self.clusters[to.0].crypt_time(bytes, true) } else { arrival })
    }

    /// Create a file homed at `site` with the given policy.
    pub fn create_file(&mut self, path: &str, policy: FilePolicy, site: SiteId) -> Result<Ino, NetError> {
        if !self.topology.site(site).up {
            return Err(NetError::SiteDown(site));
        }
        let ino = self.fs.create(path, Some(policy))?;
        self.access.set_home(ino.0, site);
        self.files.push(ino);
        Ok(ino)
    }

    fn write_extents_at(
        &mut self,
        site: SiteId,
        now: SimTime,
        client: usize,
        extents: &[FileExtent],
        copies: usize,
        retention: ys_cache::Retention,
    ) -> Result<SimTime, NetError> {
        let mut done = now;
        for e in extents {
            let c = self.clusters[site.0].write(now, client, e.vol, e.voff, e.len, copies, retention)?;
            done = done.max(c.done);
        }
        Ok(done)
    }

    /// Write `[offset, offset+len)` of `path` at `site`. Applies the file's
    /// §4 policy: write-back copies, retention, and geographic replication
    /// (sync replicas before ack; async enqueued).
    pub fn write_file(
        &mut self,
        now: SimTime,
        site: SiteId,
        client: usize,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Completion, NetError> {
        let ino = self.fs.lookup(path)?;
        self.write_ino(now, site, client, ino, offset, len)
    }

    /// [`NetStorage::write_file`] addressed by inode (the NAS head's path).
    pub fn write_ino(
        &mut self,
        now: SimTime,
        site: SiteId,
        client: usize,
        ino: Ino,
        offset: u64,
        len: u64,
    ) -> Result<Completion, NetError> {
        if !self.topology.site(site).up {
            return Err(NetError::SiteDown(site));
        }
        let policy = self.fs.policy(ino).clone();
        let extents = self.fs.write(ino, offset, len)?;
        let local_done = self.write_extents_at(site, now, client, &extents, policy.write_back_copies, policy.retention)?;
        // Residency: the writer holds the current data.
        self.access.write(ino.0, site, now);
        // Geographic replication per policy.
        let placement: Placement = place(&self.topology, site, &policy.geo)?;
        let mut ack = local_done;
        for &s in &placement.sync_sites {
            if let Some(arrival) = self.wan_transfer(now, site, s, len) {
                let remote_done =
                    self.write_extents_at(s, arrival, 0, &extents, policy.write_back_copies, policy.retention)?;
                ack = ack.max(remote_done);
                self.stats.sync_replica_writes += 1;
                self.access.set_home(ino.0, s);
            }
        }
        for &s in &placement.async_sites {
            self.repl.enqueue(site, s, ino.0, offset, len, now);
            self.stats.async_writes_enqueued += 1;
        }
        Ok(Completion { done: ack, latency: ack.since(now) })
    }

    /// Read `[offset, offset+len)` of `path` at `site` — local speed when
    /// resident, first-reference migration otherwise (§7.1).
    pub fn read_file(
        &mut self,
        now: SimTime,
        site: SiteId,
        client: usize,
        path: &str,
        offset: u64,
        len: u64,
    ) -> Result<Completion, NetError> {
        let ino = self.fs.lookup(path)?;
        self.read_ino(now, site, client, ino, offset, len)
    }

    /// [`NetStorage::read_file`] addressed by inode (the NAS head's path).
    pub fn read_ino(
        &mut self,
        now: SimTime,
        site: SiteId,
        client: usize,
        ino: Ino,
        offset: u64,
        len: u64,
    ) -> Result<Completion, NetError> {
        if !self.topology.site(site).up {
            return Err(NetError::SiteDown(site));
        }
        let policy = self.fs.policy(ino).clone();
        let extents = self.fs.read(ino, offset, len)?;
        if extents.is_empty() {
            // Pure hole: metadata-only round trip.
            let done = now + SimDuration::from_micros(100);
            return Ok(Completion { done, latency: done.since(now) });
        }
        match self.access.read(&self.topology, ino.0, site, now) {
            AccessKind::Local => {
                let mut done = now;
                for e in &extents {
                    let c = self.clusters[site.0].read(now, client, e.vol, e.voff, e.len)?;
                    done = done.max(c.done);
                }
                let latency = done.since(now);
                self.stats.local_read_latency.record(latency);
                Ok(Completion { done, latency })
            }
            AccessKind::RemoteMigration { from } => {
                // Source site reads the data out of its pool…
                let mut src_done = now;
                for e in &extents {
                    let c = self.clusters[from.0].read(now, 0, e.vol, e.voff, e.len)?;
                    src_done = src_done.max(c.done);
                }
                // …ships it over the WAN…
                let arrival = self
                    .wan_transfer(src_done, from, site, len)
                    .ok_or(NetError::FileUnavailable(ino))?;
                // …and the local site installs the copy (prefetch pipelines
                // the remaining blocks; subsequent reads are local).
                let installed =
                    self.write_extents_at(site, arrival, client, &extents, 1, policy.retention)?;
                self.stats.migrations += 1;
                let latency = installed.since(now);
                self.stats.remote_first_reference_latency.record(latency);
                Ok(Completion { done: installed, latency })
            }
            AccessKind::Unavailable => Err(NetError::FileUnavailable(ino)),
        }
    }

    fn apply_shipped(
        &mut self,
        dst: SiteId,
        arrival: SimTime,
        rec: &ys_geo::WriteRecord,
    ) -> Result<SimTime, NetError> {
        let ino = Ino(rec.file);
        let policy = self.fs.policy(ino).clone();
        let extents = self.fs.read(ino, rec.offset, rec.len)?;
        self.write_extents_at(dst, arrival, 0, &extents, 1, policy.retention)
    }

    /// Ship pending async replication, up to `budget_bytes` per site pair.
    /// Returns the last delivery time.
    ///
    /// Shipping is two-phase against the journal: records are only counted
    /// shipped once applied at the destination. A pair whose WAN link is
    /// down (site failure or [`partition_link`]) keeps its backlog intact,
    /// and a link that dies mid-batch requeues exactly the unapplied suffix
    /// — the destination's acknowledged prefix never gains a gap and never
    /// sees a record twice.
    ///
    /// [`partition_link`]: NetStorage::partition_link
    pub fn ship_async(&mut self, now: SimTime, budget_bytes: u64) -> Result<SimTime, NetError> {
        let nsites = self.topology.len();
        let mut last = now;
        // ReplicationEngine batches are untimed; stamp their instants.
        self.repl.trace_mut().set_now(now);
        for s in 0..nsites {
            for d in 0..nsites {
                if s == d {
                    continue;
                }
                let (src, dst) = (SiteId(s), SiteId(d));
                if self.topology.link(src, dst).is_none() {
                    // Partitioned or dead endpoint: leave the journal
                    // intact so the backlog drains after heal.
                    continue;
                }
                let records = self.repl.ship_begin(src, dst, budget_bytes);
                if records.is_empty() {
                    continue;
                }
                let mut acked: Option<u64> = None;
                for rec in &records {
                    let Some(arrival) = self.wan_transfer(now, src, dst, rec.len) else {
                        break; // link dropped mid-batch; suffix is aborted below
                    };
                    match self.apply_shipped(dst, arrival, rec) {
                        Ok(done) => {
                            acked = Some(rec.seq);
                            self.access.set_home(rec.file, dst);
                            self.stats.async_writes_shipped += 1;
                            last = last.max(done);
                        }
                        Err(e) => {
                            if let Some(seq) = acked {
                                self.repl.ship_confirm(src, dst, seq);
                            }
                            self.repl.ship_abort(src, dst);
                            return Err(e);
                        }
                    }
                }
                if let Some(seq) = acked {
                    self.repl.ship_confirm(src, dst, seq);
                }
                // Anything unconfirmed goes back to the queue head.
                self.repl.ship_abort(src, dst);
            }
        }
        Ok(last)
    }

    /// §7.1 automatic replication: push copies of multi-site-hot files.
    pub fn run_auto_replication(&mut self, now: SimTime) -> Result<u64, NetError> {
        let files = self.files.clone();
        let mut pushed_total = 0;
        for ino in files {
            // Current holders supply the data; push to each hot non-holder.
            let holders = self.access.sites_of(ino.0);
            let Some(&src) = holders.first() else { continue };
            let targets = self.access.auto_replicate(ino.0, now);
            if targets.is_empty() {
                continue;
            }
            let size = self.fs.size_of(ino).unwrap_or(0);
            for t in targets {
                if t == src {
                    continue;
                }
                if size > 0 {
                    if let Some(arrival) = self.wan_transfer(now, src, t, size) {
                        let policy = self.fs.policy(ino).clone();
                        let extents = self.fs.read(ino, 0, size)?;
                        self.write_extents_at(t, arrival, 0, &extents, 1, policy.retention)?;
                    }
                }
                self.stats.auto_replications += 1;
                pushed_total += 1;
            }
        }
        Ok(pushed_total)
    }

    /// Fetch a known-good copy of `vol`'s page `page` from another site and
    /// rewrite it locally — the scrubber's third repair source (§7: every
    /// replica site holds the same data image at the same addresses).
    /// Candidate sites are tried in ascending id order; one qualifies when
    /// it is up, reachable over the WAN, has the page's extent mapped, and
    /// its own checksum-verified read of the page is clean (a rotten remote
    /// copy is skipped, never trusted). Returns the local install
    /// completion, or `None` when no viable source exists.
    pub fn geo_fetch_page(
        &mut self,
        now: SimTime,
        site: SiteId,
        vol: VolumeId,
        page: u64,
    ) -> Option<SimTime> {
        if !self.topology.site(site).up {
            return None;
        }
        let pb = PAGE_BYTES;
        let ext = page * pb / EXTENT_BYTES;
        let blade = self.clusters[site.0].any_up_blade()?;
        for d in 0..self.clusters.len() {
            let src = SiteId(d);
            if d == site.0 || !self.topology.site(src).up || self.topology.link(src, site).is_none()
            {
                continue;
            }
            if !self.clusters[d].mapped_extents(vol).contains(&ext) {
                continue; // no copy resident at this site
            }
            // Verified read at the source: rot there surfaces as an
            // Integrity error and the site is skipped.
            let Ok(c) = self.clusters[d].read(now, 0, vol, page * pb, pb) else {
                continue;
            };
            let Some(arrival) = self.wan_transfer(c.done, src, site, pb) else {
                continue;
            };
            if let Ok(done) = self.clusters[site.0].scrub_rewrite_page(arrival, blade, vol, page) {
                self.stats.scrub_page_fetches += 1;
                return Some(done);
            }
        }
        None
    }

    /// Pending async backlog between two sites.
    pub fn async_backlog(&self, src: SiteId, dst: SiteId) -> (u64, u64) {
        self.repl.pending(src, dst)
    }

    /// Bytes that have crossed the WAN in every direction (replication +
    /// migrations) — the §7.2 network-cost metric.
    pub fn wan_bytes_total(&self) -> u64 {
        self.wan
            .iter()
            .flatten()
            .filter_map(|l| l.as_ref().map(|l| l.bytes()))
            .sum()
    }

    /// Catastrophic site failure (§6.2's raison d'être).
    pub fn fail_site(&mut self, site: SiteId) -> DisasterReport {
        self.topology.fail_site(site);
        let lost_async = self.repl.source_cut(site).len() as u64;
        let files_lost = self.access.fail_site(site);
        DisasterReport { files_lost, async_writes_lost: lost_async }
    }

    /// Cut the WAN trunk between two sites without failing either site:
    /// async backlog accumulates, sync-policy replication to the far side
    /// stops, and both sites keep serving local traffic.
    pub fn partition_link(&mut self, a: SiteId, b: SiteId) {
        self.topology.fail_link(a, b);
    }

    /// Restore a trunk cut by [`NetStorage::partition_link`]. The backlog
    /// drains on the next [`NetStorage::ship_async`].
    pub fn heal_link(&mut self, a: SiteId, b: SiteId) {
        self.topology.repair_link(a, b);
    }

    /// Replication-engine view (acknowledged prefixes, inflight batches) —
    /// read-only, for oracles and reports.
    pub fn replication(&self) -> &ReplicationEngine {
        &self.repl
    }

    /// Mutable replication-engine access, for fault harnesses that arm
    /// crash points on its trace recorder.
    pub fn replication_mut(&mut self) -> &mut ReplicationEngine {
        &mut self.repl
    }

    /// Where a file currently has copies.
    // lint: allow(dead-pub) — (b) the per-file site oracle tests/multi_site.rs asserts placement with
    pub fn residency(&self, ino: Ino) -> Vec<SiteId> {
        self.access.sites_of(ino.0)
    }

    /// §7.3: "the system would be managed as one large system" — a single
    /// inventory across every site for the (possibly distributed) IT team.
    // lint: allow(dead-pub) — (c) §7.3 single-system inventory, driven by tests/multi_site.rs
    pub fn system_report(&self, now: SimTime) -> SystemReport {
        let mut sites = Vec::new();
        for (i, c) in self.clusters.iter().enumerate() {
            let sid = SiteId(i);
            let blades_up = (0..c.config().blades).filter(|&b| c.cache.blade_up(b)).count();
            let disks_up = c.farm.healthy_disks().count();
            let outbound_backlog: u64 = (0..self.clusters.len())
                .filter(|&d| d != i)
                .map(|d| self.repl.pending(sid, SiteId(d)).1)
                .sum();
            sites.push(SiteReport {
                site: sid,
                name: self.topology.site(sid).name.clone(),
                up: self.topology.site(sid).up,
                blades_up,
                blades_total: c.config().blades,
                disks_up,
                disks_total: c.farm.len(),
                pool_used_bytes: c.pool_used_bytes(),
                dirty_pages_lost: c.stats.dirty_pages_lost,
                async_backlog_bytes: outbound_backlog,
            });
        }
        SystemReport { at: now, files: self.files.len(), sites }
    }
}

/// One site's line in the §7.3 single-system view.
#[derive(Clone, Debug)]
pub struct SiteReport {
    pub site: SiteId,
    pub name: String,
    pub up: bool,
    pub blades_up: usize,
    pub blades_total: usize,
    pub disks_up: usize,
    pub disks_total: usize,
    pub pool_used_bytes: u64,
    pub dirty_pages_lost: u64,
    pub async_backlog_bytes: u64,
}

/// The whole distributed operation, as one report.
#[derive(Clone, Debug)]
pub struct SystemReport {
    pub at: SimTime,
    pub files: usize,
    pub sites: Vec<SiteReport>,
}

impl std::fmt::Display for SystemReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "NetStorage system report at t={} ({} files)", self.at, self.files)?;
        for s in &self.sites {
            writeln!(
                f,
                "  [{}] {:<12} {}  blades {}/{}  disks {}/{}  pool {} MiB  backlog {} KiB  lost {}",
                s.site.0,
                s.name,
                if s.up { "UP  " } else { "DOWN" },
                s.blades_up,
                s.blades_total,
                s.disks_up,
                s.disks_total,
                s.pool_used_bytes >> 20,
                s.async_backlog_bytes >> 10,
                s.dirty_pages_lost,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_pfs::GeoPolicy;

    fn small_sites() -> NetStorageConfig {
        NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        }
    }

    const S0: SiteId = SiteId(0);
    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);

    #[test]
    fn sync_policy_pays_wan_latency_on_write() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        ns.create_file("/sync.dat", pol, S0).unwrap();
        let pol_none = FilePolicy { geo: GeoPolicy::none(), ..FilePolicy::default() };
        ns.create_file("/local.dat", pol_none, S0).unwrap();

        let w_sync = ns.write_file(SimTime::ZERO, S0, 0, "/sync.dat", 0, 1 << 20).unwrap();
        let w_local = ns.write_file(w_sync.done, S0, 0, "/local.dat", 0, 1 << 20).unwrap();
        assert!(
            w_sync.latency > w_local.latency,
            "sync replication {} must exceed local {}",
            w_sync.latency,
            w_local.latency
        );
        assert_eq!(ns.stats.sync_replica_writes, 1);
    }

    #[test]
    fn async_policy_acks_locally_and_ships_later() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
        ns.create_file("/async.dat", pol, S0).unwrap();
        // Same-size file replicated synchronously to the far (regional)
        // site, for comparison: async must ack well before sync.
        let sync_pol = FilePolicy {
            geo: ys_pfs::GeoPolicy {
                mode: ys_pfs::GeoMode::Synchronous,
                site_copies: 2,
                min_distance_km: 500.0,
                preferred_sites: vec![],
            },
            ..FilePolicy::default()
        };
        ns.create_file("/sync_far.dat", sync_pol, S0).unwrap();
        let w = ns.write_file(SimTime::ZERO, S0, 0, "/async.dat", 0, 1 << 20).unwrap();
        let ws = ns.write_file(w.done, S0, 0, "/sync_far.dat", 0, 1 << 20).unwrap();
        assert!(
            w.latency + SimDuration::from_millis(5) < ws.latency,
            "async ack {} must beat far-sync ack {}",
            w.latency,
            ws.latency
        );
        let backlog = ns.async_backlog(S0, S1);
        assert_eq!(backlog.0, 1, "one journal entry pending");
        ns.ship_async(w.done, u64::MAX).unwrap();
        assert_eq!(ns.async_backlog(S0, S1).0, 0);
        assert_eq!(ns.stats.async_writes_shipped, 1);
    }

    #[test]
    fn first_reference_migrates_then_local_speed() {
        let mut ns = NetStorage::new(small_sites());
        ns.create_file("/data.h5", FilePolicy::default(), S0).unwrap();
        let w = ns.write_file(SimTime::ZERO, S0, 0, "/data.h5", 0, 4 << 20).unwrap();
        // First read from the continental site: pays WAN.
        let r1 = ns.read_file(w.done, S2, 0, "/data.h5", 0, 4 << 20).unwrap();
        // Second read: local.
        let r2 = ns.read_file(r1.done, S2, 0, "/data.h5", 0, 4 << 20).unwrap();
        assert!(
            r1.latency > r2.latency * 2,
            "first reference {} should dwarf subsequent local {}",
            r1.latency,
            r2.latency
        );
        assert_eq!(ns.stats.migrations, 1);
        assert!(ns.residency(ns.fs.lookup("/data.h5").unwrap()).contains(&S2));
    }

    #[test]
    fn site_loss_with_sync_replica_loses_nothing() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        ns.create_file("/critical.db", pol, S0).unwrap();
        let w = ns.write_file(SimTime::ZERO, S0, 0, "/critical.db", 0, 1 << 20).unwrap();
        let report = ns.fail_site(S0);
        assert!(report.files_lost.is_empty(), "sync replica at S1 preserves the file");
        // Still readable at the replica site.
        let r = ns.read_file(w.done, S1, 0, "/critical.db", 0, 1 << 20);
        assert!(r.is_ok());
    }

    #[test]
    fn site_loss_with_unshipped_async_has_a_loss_window() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
        ns.create_file("/bulk.dat", pol, S0).unwrap();
        for i in 0..5u64 {
            ns.write_file(SimTime(i * 1000), S0, 0, "/bulk.dat", i << 20, 1 << 20).unwrap();
        }
        // Nothing shipped yet; the site dies.
        let report = ns.fail_site(S0);
        assert_eq!(report.async_writes_lost, 5, "entire unshipped journal is the loss window");
        assert_eq!(report.files_lost, vec![ns.fs.lookup("/bulk.dat").unwrap().0]);
    }

    #[test]
    fn unreplicated_file_dies_with_its_site() {
        let mut ns = NetStorage::new(small_sites());
        ns.create_file("/scratch.tmp", FilePolicy::scratch(), S0).unwrap();
        ns.write_file(SimTime::ZERO, S0, 0, "/scratch.tmp", 0, 1 << 20).unwrap();
        let report = ns.fail_site(S0);
        assert_eq!(report.files_lost.len(), 1);
        let err = ns.read_file(SimTime(1), S1, 0, "/scratch.tmp", 0, 1 << 20);
        assert!(matches!(err, Err(NetError::FileUnavailable(_))));
    }

    #[test]
    fn partition_accumulates_backlog_then_heals_gapless() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
        ns.create_file("/wal.dat", pol, S0).unwrap();
        ns.partition_link(S0, S1);
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            let w = ns.write_file(t, S0, 0, "/wal.dat", i << 20, 1 << 20).unwrap();
            t = w.done;
        }
        // Partitioned: the S0->S1 journal must not drain, and nothing may
        // be counted shipped.
        ns.ship_async(t, u64::MAX).unwrap();
        assert_eq!(ns.async_backlog(S0, S1).0, 4, "backlog survives the partition");
        assert_eq!(ns.stats.async_writes_shipped, 0);
        // Both endpoints are still up and serving local traffic.
        assert!(ns.read_file(t, S0, 0, "/wal.dat", 0, 1 << 20).is_ok());
        ns.heal_link(S0, S1);
        ns.ship_async(t, u64::MAX).unwrap();
        assert_eq!(ns.async_backlog(S0, S1).0, 0, "backlog drains after heal");
        assert_eq!(ns.stats.async_writes_shipped, 4, "the whole journal is the acked prefix");
    }

    #[test]
    fn geo_fetch_repairs_local_rot_from_remote_replica() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        ns.create_file("/geo.dat", pol, S0).unwrap();
        let w = ns.write_file(SimTime::ZERO, S0, 0, "/geo.dat", 0, 1 << 20).unwrap();
        let vol = VolumeId(0);
        let blade = ns.clusters[1].any_up_blade().unwrap();
        // Blanket-rot the front of every S1 drive so page 0's backing spans
        // are certainly hit, wherever the pool placed them.
        let ndisks = ns.clusters[1].farm.len();
        for d in 0..ndisks {
            for off in (0..(2 << 20)).step_by(64 << 10) {
                ns.clusters[1].corrupt_disk_page(ys_simdisk::DiskId(d), off as u64);
            }
        }
        let probe = ns.clusters[1].verify_page(w.done, blade, vol, 0).unwrap();
        assert!(!probe.mismatches.is_empty(), "rot must be visible to a scrub probe");
        // Parity cannot help (peers are rotten too) — the geo copy can.
        let done = ns.geo_fetch_page(w.done, S1, vol, 0);
        assert!(done.is_some(), "remote replica is a viable repair source");
        assert!(done.unwrap() > w.done, "geo repair pays WAN + install time");
        assert_eq!(ns.stats.scrub_page_fetches, 1);
        let after = ns.clusters[1].verify_page(done.unwrap(), blade, vol, 0).unwrap();
        assert!(after.mismatches.is_empty(), "page verifies clean after geo install");
    }

    #[test]
    fn geo_fetch_without_any_remote_copy_returns_none() {
        let mut ns = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::none(), ..FilePolicy::default() };
        ns.create_file("/only_here.dat", pol, S0).unwrap();
        let w = ns.write_file(SimTime::ZERO, S0, 0, "/only_here.dat", 0, 1 << 20).unwrap();
        // No other site has the extent mapped, so there is nothing to fetch.
        assert!(ns.geo_fetch_page(w.done, S0, VolumeId(0), 0).is_none());
        assert_eq!(ns.stats.scrub_page_fetches, 0);
    }

    #[test]
    fn wan_frames_are_ciphered_in_transit_and_pay_crypt_time() {
        use crate::config::EncryptionConfig;
        let sw = NetStorageConfig {
            site_cluster: small_sites().site_cluster.with_encryption(EncryptionConfig::full_sw()),
            ..NetStorageConfig::default()
        };
        let mut ns_sw = NetStorage::new(sw);
        let mut ns_off = NetStorage::new(small_sites());
        let pol = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        for ns in [&mut ns_sw, &mut ns_off] {
            ns.create_file("/wire.dat", pol.clone(), S0).unwrap();
        }
        let w_sw = ns_sw.write_file(SimTime::ZERO, S0, 0, "/wire.dat", 0, 1 << 20).unwrap();
        let w_off = ns_off.write_file(SimTime::ZERO, S0, 0, "/wire.dat", 0, 1 << 20).unwrap();
        assert!(
            w_sw.latency > w_off.latency,
            "software wire crypt {} must cost more than plaintext {}",
            w_sw.latency,
            w_off.latency
        );
        // Every frame the ciphered system sent crossed the link encrypted;
        // the plaintext system never ciphered one.
        assert!(ns_sw.stats.wire_frames_ciphered >= 1);
        assert_eq!(ns_sw.stats.wire_frames_plaintext, 0, "no plaintext crosses a site boundary");
        assert_eq!(ns_off.stats.wire_frames_ciphered, 0);
        assert!(ns_off.stats.wire_frames_plaintext >= 1);
        // First-reference migration ships over the same ciphered path.
        let before = ns_sw.stats.wire_frames_ciphered;
        ns_sw.read_file(w_sw.done, S2, 0, "/wire.dat", 0, 1 << 20).unwrap();
        assert!(ns_sw.stats.wire_frames_ciphered > before, "migration frames are ciphered too");
        assert_eq!(ns_sw.stats.wire_frames_plaintext, 0);
    }

    #[test]
    fn hw_assist_makes_wire_crypt_near_free() {
        use crate::config::EncryptionConfig;
        let mk = |e: EncryptionConfig| NetStorageConfig {
            site_cluster: small_sites().site_cluster.with_encryption(e),
            ..NetStorageConfig::default()
        };
        let pol = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
        let mut lat = Vec::new();
        for e in [EncryptionConfig::off(), EncryptionConfig::full_hw(), EncryptionConfig::full_sw()] {
            let mut ns = NetStorage::new(mk(e));
            ns.create_file("/hw.dat", pol.clone(), S0).unwrap();
            let w = ns.write_file(SimTime::ZERO, S0, 0, "/hw.dat", 0, 1 << 20).unwrap();
            lat.push(w.latency);
        }
        assert!(lat[0] < lat[1], "hw crypt still costs something");
        assert!(lat[1] < lat[2], "sw crypt costs much more than hw");
        let over_hw = lat[1].as_secs_f64() / lat[0].as_secs_f64();
        assert!(over_hw < 1.05, "hw-assist overhead should be within 5%: {over_hw}");
    }

    #[test]
    fn writes_at_down_site_are_rejected() {
        let mut ns = NetStorage::new(small_sites());
        ns.create_file("/f", FilePolicy::default(), S0).unwrap();
        ns.fail_site(S1);
        assert!(matches!(
            ns.write_file(SimTime::ZERO, S1, 0, "/f", 0, 4096),
            Err(NetError::SiteDown(_))
        ));
    }
}
