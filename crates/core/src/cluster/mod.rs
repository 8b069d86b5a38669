//! The single-site blade cluster: the integrated data path.
//!
//! This is the machine the paper describes — controller blades pooling a
//! coherent cache over a shared disk farm, load-balanced, with write-back
//! N-way replication and RAID destage. The simulation style is
//! *virtual-time request processing*: every hardware resource (fabric port,
//! blade CPU/memory, disk, FC link) is a FIFO queueing model from the
//! substrate crates, so issuing a request returns its completion instant
//! and contention emerges from the queues.
//!
//! This file holds the types, the constructor and the observability
//! surface; [`BladeCluster`]'s behaviour is split on its seams into the
//! `datapath`, `lifecycle`, `integrity` and `volumes` submodules (module
//! map in `docs/architecture.md`).

mod datapath;
mod integrity;
mod lifecycle;
mod volumes;

#[cfg(test)]
mod prefetch_tests;
#[cfg(test)]
mod tests;

use crate::config::{blade_cpu, ClusterConfig, EXTENT_BYTES};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use ys_cache::{CacheCluster, CacheError};
use ys_qos::{AdmissionController, ShedReason};
use ys_raid::Geometry;
use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::TRACE_CAPACITY;
use ys_simdisk::{DiskFarm, DiskId, DiskSpec};
use ys_simnet::{catalog, Fabric, Link, LinkSpec};
use ys_virt::{PhysicalPool, VirtError, VolumeManager};

/// Completion info for one request.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    pub done: SimTime,
    pub latency: SimDuration,
}

/// One planned read that failed checksum verification: the farm disk it
/// hit and the member-local span that was read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadMismatch {
    pub disk: DiskId,
    pub offset: u64,
    pub bytes: u64,
}

/// Result of scrub-probing one volume page directly against the disks.
#[derive(Clone, Debug)]
pub struct PageVerify {
    /// When the probe's member reads completed.
    pub done: SimTime,
    /// Reads that hit rotten media (empty = page verified clean).
    pub mismatches: Vec<ReadMismatch>,
}

/// One volume page's trip between a blade and the media (see
/// `BladeCluster::read_page_media` / `write_page_media`).
struct PageIo {
    /// When the last member I/O completed.
    done: SimTime,
    /// Where the page's media tag lives (`BladeCluster::tag_slot` of its
    /// first mapped byte); `None` for a hole.
    tag_slot: Option<(DiskId, u64)>,
}

/// The buffers every page trip plans into, kept so that a warm cluster
/// moves a page without touching the heap. Their contents mean nothing
/// between trips.
#[derive(Clone, Default)]
struct MediaScratch {
    /// The page's mapped pieces `(RAID-logical byte, len)`.
    pieces: Vec<(u64, u64)>,
    /// The member I/O of the piece being charged.
    plan: ys_raid::IoPlan,
}

/// Cluster-level error.
#[derive(Clone, Debug)]
pub enum ClusterError {
    Virt(VirtError),
    Cache(CacheError),
    Raid(ys_raid::DataLoss),
    Disk(ys_simdisk::DiskError),
    NoBladesUp,
    /// Admission control refused the request (`ys-qos`).
    QosShed { tenant: u32, reason: ShedReason },
    /// A checksum-verified read hit a latent media error. The data never
    /// propagates — same discipline as `DataLost` tombstones: the caller
    /// sees an explicit error until a scrub repairs (or declares) the page.
    Integrity { disk: DiskId, offset: u64 },
    /// The degraded-mode governor refused the write: the surviving replica
    /// margin is exhausted, so accepting data would risk silent loss on the
    /// next failure (`ys-heal`).
    ReadOnly,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Virt(e) => write!(f, "virtualization: {e}"),
            ClusterError::Cache(e) => write!(f, "cache: {e}"),
            ClusterError::Raid(e) => write!(f, "raid: {e}"),
            ClusterError::Disk(e) => write!(f, "disk: {e}"),
            ClusterError::NoBladesUp => write!(f, "no controller blades available"),
            ClusterError::QosShed { tenant, reason } => {
                write!(f, "qos: tenant {tenant} request shed ({reason:?})")
            }
            ClusterError::Integrity { disk, offset } => {
                write!(f, "integrity: checksum mismatch on disk {} at offset {offset}", disk.0)
            }
            ClusterError::ReadOnly => {
                write!(f, "governor: cluster read-only — replica margin exhausted, write refused")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<VirtError> for ClusterError {
    fn from(e: VirtError) -> Self {
        ClusterError::Virt(e)
    }
}

impl From<ys_raid::DataLoss> for ClusterError {
    fn from(e: ys_raid::DataLoss) -> Self {
        ClusterError::Raid(e)
    }
}

impl From<ys_simdisk::DiskError> for ClusterError {
    fn from(e: ys_simdisk::DiskError) -> Self {
        ClusterError::Disk(e)
    }
}

/// Rot never propagates: the first mismatch becomes an explicit
/// [`ClusterError::Integrity`].
fn refuse_rot(mismatches: &[ReadMismatch]) -> Result<(), ClusterError> {
    match mismatches.first() {
        Some(m) => Err(ClusterError::Integrity { disk: m.disk, offset: m.offset }),
        None => Ok(()),
    }
}

/// Aggregate measurements.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    pub read_latency: LatencyHisto,
    pub write_latency: LatencyHisto,
    pub read_meter: RateMeter,
    pub write_meter: RateMeter,
    /// Dirty pages lost to blade failures (should be 0 with N-way ≥ failures+1).
    pub dirty_pages_lost: u64,
    /// Dirty pages saved by replica promotion.
    pub dirty_pages_promoted: u64,
    pub reads_from_local_cache: u64,
    pub reads_from_remote_cache: u64,
    pub reads_from_disk: u64,
    /// Readahead I/Os issued (§4 prefetch).
    pub prefetches_issued: u64,
    /// Misses that joined an in-flight prefetch instead of going to disk.
    pub prefetch_hits: u64,
    /// Checksum mismatches surfaced by verified reads (cache fills,
    /// readahead, rebuild sources, scrub probes). Never silent: each one
    /// either errored the request, skipped a prefetch, poisoned a rebuild
    /// target, or fed a scrub repair.
    pub integrity_errors: u64,
    /// Rebuild batches whose survivor reads failed verification; the
    /// affected replacement-disk pages were poisoned rather than silently
    /// reconstructed from rot.
    pub rebuild_mismatches: u64,
    /// Pages a scrub declared unrepairable (explicit `ScrubLoss`).
    pub scrub_losses: u64,
    /// Pages whose media bytes were ciphered on destage (at-rest stage on).
    pub pages_ciphered: u64,
    /// Disk-sourced pages whose media bytes were deciphered and verified
    /// against the expected plaintext on the way back up.
    pub pages_deciphered: u64,
    /// Replicas re-established by the healer (`ys-heal`).
    pub heal_replicas_placed: u64,
    /// Writes refused by the degraded-mode governor at `ReadOnly` health.
    pub writes_refused_readonly: u64,
    /// Governed writes acknowledged with fewer dirty copies than requested
    /// (peers saturated or down — audited, never silent).
    pub writes_downgraded: u64,
    /// Dirty pages evacuated with zero loss by planned blade drains.
    pub pages_evacuated: u64,
}

/// One RAID group inside the cluster: a geometry over a contiguous range
/// of farm disks, with its own thin-provisioning pool and volume catalog.
#[derive(Clone)]
pub struct RaidGroup {
    pub geo: Geometry,
    /// First farm disk of this group; member `m` is `DiskId(disk_base + m)`.
    pub disk_base: usize,
    pub volumes: VolumeManager,
}

/// The cluster.
///
/// ```
/// use ys_core::{BladeCluster, ClusterConfig};
/// use ys_cache::Retention;
/// use ys_simcore::SimTime;
///
/// let mut cluster = BladeCluster::new(ClusterConfig::default());
/// let vol = cluster.create_volume("scratch", 0, 1 << 40).unwrap(); // 1 TiB DMSD
/// let w = cluster.write(SimTime::ZERO, 0, vol, 0, 65536, 2, Retention::Normal).unwrap();
/// let r = cluster.read(w.done, 1, vol, 0, 65536).unwrap();
/// assert!(r.latency < w.latency * 4); // cache-warm read
/// assert_eq!(cluster.pool_used_extents(), 1); // demand-mapped
/// ```
#[derive(Clone)]
pub struct BladeCluster {
    cfg: ClusterConfig,
    pub cache: CacheCluster,
    groups: Vec<RaidGroup>,
    pub farm: DiskFarm,
    /// Host-side fabric: ports [0, clients) are clients, [clients, clients+blades) blades.
    host_fabric: Fabric,
    /// Blade-to-blade fabric for coherence and replica traffic.
    cluster_fabric: Fabric,
    /// Per-blade aggregated disk-side FC (2 × 2 Gb/s ports bonded).
    disk_links: Vec<Link>,
    /// Per-blade CPU/memory path: per-I/O overhead + copy bandwidth, FIFO.
    cpus: Vec<Link>,
    rr_next: usize,
    pending: BinaryHeap<Reverse<(u64, u32, u64, u64)>>, // (time, vol, page, version)
    /// In-flight prefetches: (vol, page) → (disk arrival ns, blade).
    /// Ordered: `advance` sweeps this map to land fills, and the landing
    /// order must be the same on every replay of a seed.
    inflight_fills: std::collections::BTreeMap<(u32, u64), (u64, usize)>,
    /// Last sequential position per (client, volume), for readahead.
    seq_cursor: std::collections::BTreeMap<(usize, u32), u64>,
    failed_disks: Vec<bool>,
    media_scratch: MediaScratch,
    /// `volume_key` of every volume that has moved a ciphered page, by
    /// global volume id (see `BladeCluster::page_cipher_key`).
    volume_keys: std::collections::BTreeMap<u32, ys_security::Key>,
    /// Multi-tenant admission control + SLO tracking (`ys-qos`).
    qos: AdmissionController,
    pub stats: ClusterStats,
}

impl BladeCluster {
    pub fn new(cfg: ClusterConfig) -> BladeCluster {
        let mut groups = Vec::new();
        let mut disk_base = 0usize;
        for spec in cfg.group_specs() {
            let geo = Geometry::new(spec.level, spec.disks, spec.chunk);
            let usable = geo.usable_capacity(DiskSpec::cheetah_73().capacity_bytes);
            let pool = PhysicalPool::new(usable / EXTENT_BYTES, EXTENT_BYTES);
            groups.push(RaidGroup { geo, disk_base, volumes: VolumeManager::new(pool) });
            disk_base += spec.disks;
        }
        let total_disks = disk_base;
        let blade_ports = cfg.clients + cfg.blades;
        let disk_link_spec = LinkSpec::new(
            // two bonded 2 Gb/s FC ports per blade
            ys_simcore::time::Bandwidth::from_gbit_per_sec(4),
            catalog::fibre_channel_2g().propagation,
            catalog::fibre_channel_2g().per_message,
        );
        let blades = cfg.blades;
        let cache_pages = cfg.cache_pages_per_blade;
        BladeCluster {
            cache: CacheCluster::new(blades, cache_pages),
            groups,
            farm: DiskFarm::new(total_disks, DiskSpec::cheetah_73()),
            host_fabric: Fabric::new(blade_ports, catalog::fibre_channel_2g()),
            cluster_fabric: Fabric::new(cfg.blades, catalog::fibre_channel_2g()),
            disk_links: (0..cfg.blades).map(|_| Link::new(disk_link_spec)).collect(),
            cpus: (0..cfg.blades).map(|_| Link::new(blade_cpu())).collect(),
            rr_next: 0,
            pending: BinaryHeap::new(),
            inflight_fills: std::collections::BTreeMap::new(),
            seq_cursor: std::collections::BTreeMap::new(),
            failed_disks: vec![false; total_disks],
            media_scratch: MediaScratch::default(),
            volume_keys: std::collections::BTreeMap::new(),
            qos: AdmissionController::new(cfg.qos.clone()),
            stats: ClusterStats::default(),
            cfg,
        }
    }

    /// The RAID group a farm disk belongs to: (group index, member index).
    pub fn group_of_disk(&self, disk: DiskId) -> (usize, usize) {
        for (gi, g) in self.groups.iter().enumerate() {
            if disk.0 >= g.disk_base && disk.0 < g.disk_base + g.geo.members {
                return (gi, disk.0 - g.disk_base);
            }
        }
        // lint: allow(panic-path) — the groups tile the farm, so only a DiskId this cluster never issued gets here; callers assert on the bare (group, member) tuple
        panic!("disk {disk:?} outside every group");
    }

    pub fn group(&self, g: usize) -> &RaidGroup {
        &self.groups[g]
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Geometry of the primary group.
    pub fn raid_geometry(&self) -> &Geometry {
        &self.groups[0].geo
    }

    /// Per-blade CPU utilization at `until` — the hot-spot metric for E5.
    pub fn blade_utilizations(&self, until: SimTime) -> Vec<f64> {
        self.cpus.iter().map(|c| c.utilization(until)).collect()
    }

    /// Per-blade disk-side FC link utilization at `until`.
    pub fn disk_link_utilizations(&self, until: SimTime) -> Vec<f64> {
        self.disk_links.iter().map(|l| l.utilization(until)).collect()
    }

    /// Per-blade disk-side FC traffic: (messages, bytes).
    pub fn disk_link_traffic(&self) -> Vec<(u64, u64)> {
        self.disk_links.iter().map(|l| (l.messages(), l.bytes())).collect()
    }

    /// Enable structured tracing across the cluster's subsystems: cache
    /// directory transitions, DMSD allocations, and disk-side FC transfers.
    /// Each subsystem's ring holds [`TRACE_CAPACITY`] events. Purely
    /// observational — no simulated time or random draws change.
    pub fn enable_tracing(&mut self) {
        self.cache.trace_mut().enable(TRACE_CAPACITY);
        for g in &mut self.groups {
            g.volumes.trace_mut().enable(TRACE_CAPACITY);
        }
        for (b, l) in self.disk_links.iter_mut().enumerate() {
            l.enable_trace(b as u32);
        }
    }

    /// Drain every subsystem trace ring, returning the events sorted by
    /// time (ties broken by subsystem/name/lane for determinism) plus the
    /// total number of events dropped to ring overflow.
    pub fn take_trace(&mut self) -> (Vec<ys_simcore::SpanEvent>, u64) {
        let mut events = Vec::new();
        let mut dropped = self.cache.trace().dropped();
        self.cache.trace_mut().take_into(&mut events);
        for g in &mut self.groups {
            dropped += g.volumes.trace().dropped();
            g.volumes.trace_mut().take_into(&mut events);
        }
        for l in &mut self.disk_links {
            dropped += l.trace().dropped();
            l.trace_mut().take_into(&mut events);
        }
        events.sort_by_key(|e| (e.at, e.subsystem, e.name, e.lane));
        (events, dropped)
    }
}
