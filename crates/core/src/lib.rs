//! `ys-core` — the paper's system: YottaYotta-style *NetStorage*, a storage
//! machine built as a distributed-memory parallel computer of controller
//! blades, reproduced over deterministic simulated hardware.
//!
//! * [`config`] — cluster configuration and the era machine's fixed sizes
//!   and costs, including [`ClusterConfig::dual_controller`], the
//!   traditional dual-controller baseline the paper argues against;
//! * [`cluster`] — [`BladeCluster`]: the single-site data path — pooled
//!   coherent cache, N-way write-back replication, DMSD virtualization,
//!   RAID destage, load balancing, blade/disk failures (§2, §3, §6),
//!   plus per-tenant QoS admission via `ys-qos` (`read_as`/`write_as`).
//!   One type, split on its seams: `cluster/mod.rs` (types, constructor,
//!   tracing), `datapath` (read / write / advance / destage / readahead
//!   and the one page → media path), `lifecycle` (blade and disk fail /
//!   drain / revive / heal), `integrity` (media tags, verify, repair,
//!   corruption injection), `volumes` (volume admin, charge-back, QoS
//!   glue);
//! * [`governed`] — the one admit → shed → back off → forced-trickle →
//!   complete driver every Scavenger-class maintenance pass runs under;
//! * [`harness`] — the seeded-campaign CLI kit behind `ys-chaos`,
//!   `ys-scrub` and `ys-heal` (`--seed/--quiet/--double-run`, exit codes);
//! * [`fastpath`] — the Figure 1 high-speed striped stream engine (§2.3, §8);
//! * [`rebuild`] — distributed, fault-tolerant RAID rebuild (§2.4, §6.3);
//! * [`services`] — load-balanced PIT-copy/backup services (§2.4);
//! * [`netstorage`] — [`NetStorage`]: multiple sites as one data image,
//!   policy-driven geographic replication, migration, disaster recovery (§7).

pub mod admin;
pub mod cluster;
pub mod config;
pub mod fastpath;
pub mod frontend;
pub mod governed;
pub mod harness;
pub mod netstorage;
pub mod rebuild;
pub mod services;

pub use admin::{AdminError, AdminOp, AdminOutcome, ManagementPlane};
pub use cluster::{
    BladeCluster, ClusterError, ClusterStats, Completion, PageVerify, RaidGroup, ReadMismatch,
};
pub use config::{ClusterConfig, EncryptionConfig, LoadBalance, EXTENT_BYTES, PAGE_BYTES};
pub use fastpath::{deliver_stream, FastPathConfig, StreamResult};
pub use frontend::{BlockReply, BlockTarget, FileReply, FileServer, TargetStats};
pub use netstorage::{DisasterReport, GeoStats, NetError, NetStorage, NetStorageConfig, SiteReport, SystemReport};
pub use rebuild::Rebuilder;
pub use services::{run_service, ServiceJob, ServiceResult};
