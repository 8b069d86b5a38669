//! `ys-bench` — the claim registry reproducing every figure and
//! quantitative claim of the paper (see DESIGN.md §4 for the index).
//!
//! * [`claims`] — the registry: one entry, one body per claim;
//! * [`experiments`] — E1–E12, [`ablations`] — A1–A3, [`scenarios`] — the
//!   claims only `ys-report` runs;
//! * [`driver`] — the closed-loop multi-client workload driver;
//! * [`registry`] — the hierarchical [`registry::MetricsRegistry`]: every
//!   number addressable as `(subsystem, blade, name)`, with snapshot /
//!   diff algebra and deterministic JSON export;
//! * `collect` — adapters that lift each crate's native stats (cache
//!   coherence, DMSD pools, cluster latencies, geo replication, QoS) into
//!   the registry address space;
//! * [`report`] — aligned tables, paper-claim checkpoints, the
//!   [`report::RunReport`] every claim returns, and its two renderers:
//!   `src/bin/report.rs` prints the sections EXPERIMENTS.md quotes,
//!   `src/bin/ys-report.rs` renders one named claim with its checkpoints,
//!   metrics and Chrome trace ([`ys_simcore::chrome_trace_json`]).
//!
//! Instrumentation is measurement-neutral by construction: recorders are
//! written to *after* the timing math, so a traced run and an untraced run
//! produce bit-identical simulated results.
//!
//! Host-time measurement of the same kernels and experiment bodies lives
//! in the out-of-workspace `benchmark/` package (`-- ledger`).

pub mod ablations;
pub mod claims;
mod collect;
pub mod driver;
pub mod experiments;
pub mod obs_breakdown;
pub mod registry;
pub mod report;
pub mod scenarios;

pub use driver::{closed_loop, RunResult};
