//! `ys-check` — bounded model checker and protocol-invariant audit.
//!
//! Drives the *real* implementation crates through exhaustive permutations
//! of operations up to a configurable depth, one standard model per
//! subsystem (cache, virt, qos, integrity, security, heal — see
//! [`STANDARD_MODELS`]), auditing an invariant suite after every step:
//!
//! * single-writer exclusion and version monotonicity (§2.2, §6.1);
//! * replica-set protection — no acknowledged dirty page lost while fewer
//!   blades failed than copies held (§6.1's N−1 guarantee), a crash
//!   promoting only to a replica held before it, and a loss beyond the
//!   budget read back as `DataLost`, never silently (the cache model's
//!   `Fail` step, judged by `ys_cache::durability`'s loss ledger, as the
//!   chaos oracle's crashes are);
//! * directory-vs-LRU residency agreement and per-blade capacity (§2.2);
//! * DMSD allocated-block conservation across snapshot/rollback (§3);
//! * QoS admission-ledger balance, token/burst bounds, in-flight caps, and
//!   counter monotonicity (`ys-qos`);
//! * end-to-end integrity — a rotten page is never read back clean, and a
//!   scrub either repairs it from a live source or declares an explicit
//!   loss (`ys-simdisk`'s checksum plane + `ys-scrub`'s repair protocol);
//! * security enforcement — the real LUN mask and fail-closed zoning vs a
//!   shadow ACL: no post-revoke access ever succeeds, no unzoned port is
//!   admitted, every denial is audited, and no frame crosses a site
//!   boundary as plaintext (`ys-security`).
//! * blade lifecycle and graceful degradation — the directory's protection
//!   targets vs an independent shadow map, `Healthy` never hiding an
//!   under-target page, the governor refusing writes exactly at `ReadOnly`
//!   health, and planned drains never minting a `DataLost` tombstone
//!   (`ys-heal`).
//!
//! States deduplicate by a canonical 128-bit hash that normalizes unbounded
//! counters (absolute write versions hash as ranks), so the explored space
//! is finite and the exploration exhaustive within scope. Counterexamples
//! come back as shortest operation traces, rendered as ready-to-paste
//! regression tests.
//!
//! Run with `cargo run -p ys-check --release`, or through the acceptance
//! tests in `tests/exploration.rs`.

pub mod cache_model;
pub mod explore;
mod failover_model;
pub mod hash;
pub mod heal_model;
pub mod integrity_model;
pub mod qos_model;
pub mod security_model;
pub mod summary;
pub mod virt_model;

pub use cache_model::{CacheModel, Op, Scope};
pub use explore::{explore_timed, Counterexample, Exploration, Limits, Model};
pub use hash::StateHasher;
pub use heal_model::{HealModel, HealOp};
pub use integrity_model::{IntegrityModel, IntegrityOp};
pub use qos_model::{QosModel, QosOp};
pub use security_model::{SecurityModel, SecurityOp};
pub use summary::{
    parse_args, run_named, run_standard, Invocation, StandardModel, StandardRun, STANDARD_MODELS,
};
pub use virt_model::{VirtModel, VirtOp};
