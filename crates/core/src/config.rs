//! Cluster configuration: the knobs experiments sweep, and the era
//! machine's fixed sizes and costs.

use ys_simcore::time::{Bandwidth, SimDuration};
use ys_simnet::LinkSpec;
use ys_raid::RaidLevel;

/// How incoming requests are spread over controller blades.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadBalance {
    /// Rotate across up blades — the paper's load-balanced pool (§2.2).
    RoundRobin,
    /// Route by page hash: maximizes local cache affinity while still
    /// spreading load.
    PageAffinity,
    /// Pin each volume to one blade — the traditional "islands" model the
    /// paper argues against; used by the baseline and the E5 ablation.
    PinnedByVolume,
}

/// Cache page size in bytes: the unit of caching, replication, destage
/// and media tagging.
pub const PAGE_BYTES: u64 = 64 * 1024;

/// Stripe chunk of the primary RAID group.
pub(crate) const RAID_CHUNK: u64 = 64 * 1024;

/// Physical-pool extent size for virtualization.
pub const EXTENT_BYTES: u64 = 1 << 20;

/// Fixed software-path cost per I/O command on a blade (era-calibrated).
const PER_IO: SimDuration = SimDuration::from_micros(30);

/// Cache-memory copy bandwidth per blade: ~1.6 GB/s era memory copy.
const CACHE_COPY_MB_PER_SEC: u64 = 1600;

/// One blade's CPU as a link: copy bandwidth plus the per-I/O cost.
pub(crate) fn blade_cpu() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_mbyte_per_sec(CACHE_COPY_MB_PER_SEC), SimDuration::ZERO, PER_IO)
}

/// Encryption deployment options (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EncryptionConfig {
    pub at_rest: bool,
    pub in_transit: bool,
    pub hardware_assist: bool,
}

impl EncryptionConfig {
    pub fn off() -> EncryptionConfig {
        EncryptionConfig { at_rest: false, in_transit: false, hardware_assist: false }
    }

    pub fn full_hw() -> EncryptionConfig {
        EncryptionConfig { at_rest: true, in_transit: true, hardware_assist: true }
    }

    pub fn full_sw() -> EncryptionConfig {
        EncryptionConfig { at_rest: true, in_transit: true, hardware_assist: false }
    }
}

/// One RAID group: a set of member disks under one personality. The §4
/// per-file RAID override works by the cluster exposing several groups
/// (e.g. RAID-5 capacity, RAID-1 fast, RAID-0 scratch) and the file system
/// placing each file's extents on a volume in the matching group.
#[derive(Clone, Copy, Debug)]
pub struct RaidGroupSpec {
    pub level: RaidLevel,
    pub disks: usize,
    pub chunk: u64,
}

/// Full cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub blades: usize,
    /// Cache capacity per blade, in pages.
    pub cache_pages_per_blade: usize,
    /// Member disks of the *primary* RAID group (group 0).
    pub disks: usize,
    /// Personality of the primary group.
    pub raid: RaidLevel,
    /// Additional RAID groups (their disks extend the farm beyond `disks`).
    pub extra_groups: Vec<RaidGroupSpec>,
    pub load_balance: LoadBalance,
    pub encryption: EncryptionConfig,
    /// Host clients attached to the host-side fabric.
    pub clients: usize,
    /// Pages to read ahead when sequential access is detected (0 = off) —
    /// §4's "storage prefetch operations".
    pub prefetch_pages: usize,
    /// Whether a blade may be supplied from a peer blade's cache (§2.2's
    /// coherent pool). `false` is the ablation: every non-local page is
    /// fetched from disk, as in partitioned controllers.
    pub remote_cache_supply: bool,
    /// Multi-tenant QoS policy (`ys-qos`): token buckets, admission
    /// control, SLOs. Disabled by default — with the default config the
    /// data path is bit-identical to pre-QoS builds.
    pub qos: ys_qos::QosConfig,
    /// Cluster master key seed: every per-volume cipher key is derived
    /// from it (the §5.1 key hierarchy). The seed only matters when
    /// `encryption` turns a cipher stage on.
    pub master_key_seed: u64,
    /// Degraded-mode governor (`ys-heal`): when on, writes are refused with
    /// [`crate::ClusterError::ReadOnly`] once the surviving replica margin
    /// is exhausted, and replica-count downgrades are audited. Off by
    /// default — the data path is bit-identical to pre-heal builds.
    pub health_governor: bool,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            blades: 4,
            cache_pages_per_blade: 4096, // 256 MiB at 64 KiB pages
            disks: 16,
            raid: RaidLevel::Raid5,
            extra_groups: Vec::new(),
            load_balance: LoadBalance::RoundRobin,
            encryption: EncryptionConfig::off(),
            clients: 8,
            prefetch_pages: 0,
            remote_cache_supply: true,
            qos: ys_qos::QosConfig::disabled(),
            master_key_seed: 0x59_53_4B_45_59,
            health_governor: false,
        }
    }
}

impl ClusterConfig {
    pub fn with_blades(mut self, n: usize) -> ClusterConfig {
        self.blades = n;
        self
    }

    pub fn with_disks(mut self, n: usize) -> ClusterConfig {
        self.disks = n;
        self
    }

    pub fn with_clients(mut self, n: usize) -> ClusterConfig {
        self.clients = n;
        self
    }

    pub fn with_raid(mut self, level: RaidLevel) -> ClusterConfig {
        self.raid = level;
        self
    }

    pub fn with_cache_pages(mut self, pages: usize) -> ClusterConfig {
        self.cache_pages_per_blade = pages;
        self
    }

    pub fn with_load_balance(mut self, lb: LoadBalance) -> ClusterConfig {
        self.load_balance = lb;
        self
    }

    pub fn with_encryption(mut self, e: EncryptionConfig) -> ClusterConfig {
        self.encryption = e;
        self
    }

    pub fn with_prefetch(mut self, pages: usize) -> ClusterConfig {
        self.prefetch_pages = pages;
        self
    }

    /// Enable a multi-tenant QoS policy (see `ys_qos::QosConfig`).
    pub fn with_qos(mut self, qos: ys_qos::QosConfig) -> ClusterConfig {
        self.qos = qos;
        self
    }

    /// Enable the degraded-mode governor (write refusal at `ReadOnly`
    /// health, downgrade auditing — see `ys-heal`).
    pub fn with_health_governor(mut self) -> ClusterConfig {
        self.health_governor = true;
        self
    }

    /// Ablation: disable peer-cache supply (partitioned-controller timing).
    pub fn without_remote_supply(mut self) -> ClusterConfig {
        self.remote_cache_supply = false;
        self
    }

    /// Add a secondary RAID group (its disks extend the farm).
    pub fn with_extra_group(mut self, level: RaidLevel, disks: usize, chunk: u64) -> ClusterConfig {
        self.extra_groups.push(RaidGroupSpec { level, disks, chunk });
        self
    }

    /// All groups in order (group 0 = the primary fields).
    pub fn group_specs(&self) -> Vec<RaidGroupSpec> {
        let mut v = vec![RaidGroupSpec { level: self.raid, disks: self.disks, chunk: RAID_CHUNK }];
        v.extend(self.extra_groups.iter().copied());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = ClusterConfig::default()
            .with_blades(8)
            .with_disks(32)
            .with_load_balance(LoadBalance::PageAffinity);
        assert_eq!(c.blades, 8);
        assert_eq!(c.disks, 32);
        assert_eq!(c.load_balance, LoadBalance::PageAffinity);
    }

    #[test]
    fn default_is_a_plausible_2001_machine() {
        let c = ClusterConfig::default();
        assert_eq!(PAGE_BYTES * c.cache_pages_per_blade as u64, 256 << 20, "256 MiB per blade");
        assert!(c.disks >= 8);
    }
}
