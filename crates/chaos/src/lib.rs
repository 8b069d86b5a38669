//! # ys-chaos — deterministic fault campaigns for the full stack
//!
//! The paper's recovery story (§6) makes promises that unit tests can only
//! check one subsystem at a time: no acknowledged write is lost while at
//! most N−1 of its cache copies fail, dirty pages re-home to exactly one
//! surviving owner, a rebuild covers every degraded row exactly once, the
//! geo destination converges to a gapless acknowledged prefix after a
//! partition heals, and QoS sheds land only on classes configured to
//! absorb them. `ys-chaos` checks them *end to end*: a seeded workload
//! runs against a full multi-site [`ys_core::NetStorage`] while a
//! [`CampaignSchedule`] injects blade crashes, FC-port flaps, disk
//! failures, and geo-link partitions — not at arbitrary step boundaries,
//! but at adversarial instants on the trace spine (mid-destage,
//! mid-promotion, mid-rebuild-batch, mid-geo-batch) via
//! [`ys_simcore::SpanRecorder`] crash-point tripwires.
//!
//! After every injection and again at convergence, the
//! [`oracle`] compares the cluster against a shadow model
//! of the durability budgets. A campaign is a pure function of
//! `(config, schedule)`, so a failure replays bit-identically from its
//! seed — and [`minimize`] ddmin-bisects the injection list down to a
//! minimal reproducing schedule, printed as `ys-chaos --seed S --keep
//! i,j,k`.
//!
//! ```
//! use ys_chaos::{run_campaign, CampaignConfig};
//!
//! let report = run_campaign(&CampaignConfig { seed: 4, steps: 32, ..Default::default() });
//! assert!(report.passed(), "{}", report.render());
//! ```

pub mod campaign;
pub mod oracle;
pub mod run;
pub mod schedule;
pub mod shrink;

pub use campaign::{run_campaign, run_with_schedule, CampaignConfig, CampaignReport};
pub use oracle::{OracleViolation, SiteShadow};
pub use run::{CampaignRun, RunOptions};
pub use schedule::{CampaignSchedule, CrashEvent, Injection, ScheduledFault, Trigger};
pub use shrink::minimize;
