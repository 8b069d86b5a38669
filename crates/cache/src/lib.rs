//! `ys-cache` — the coherent, pooled blade cache (§2.2, §6.1, §6.3).
//!
//! "The controller blades would use the cache on all the controller blades
//! as a single, coherent, distributed pool of cache. Because each controller
//! would read/write data from/to the cache of other controllers ... there
//! would be no cache or controller hot spots."
//!
//! * [`lru`] — O(1) slab LRU with the §4 retention-priority bands;
//! * [`directory`] — hash-sharded MSI directory (page homes spread across
//!   blades so directory load scales with the cluster);
//! * [`cluster`] — [`CacheCluster`]: local/remote hits, invalidation on
//!   write, **N-way dirty replication** with replica promotion on blade
//!   failure (§6.1's N−1-failure guarantee), destage, and eviction;
//! * [`durability`] — the loss ledger: the §6.1 `(copies, failures)`
//!   budget every crash is judged against, by ys-check and ys-chaos alike;
//! * [`heat`] — decayed access-heat tracking feeding §7.1's automatic
//!   hot-file replication.

pub mod cluster;
pub mod directory;
pub mod durability;
pub mod heat;
pub mod invariants;
pub mod lru;
mod slab;

pub use cluster::{
    BladeCacheStats, BladeState, CacheCluster, CacheError, CacheStats, DrainReport, FailureReport,
    Health, ReadOutcome, ResidentPage, WriteOutcome,
};
pub use directory::{DirEntry, Directory, PageKey, PageState};
pub use heat::HeatTracker;
pub use invariants::{Invariant, Violation};
pub use lru::{LruList, Retention};
pub use slab::FixedHash;
