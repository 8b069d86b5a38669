//! `ys-bench` — the claim registry reproducing every figure and
//! quantitative claim of the paper (see DESIGN.md §4 for the index).
//!
//! * [`claims`] — the registry: one entry, one body per claim;
//! * [`experiments`] — E1–E12, [`ablations`] — A1–A3, [`scenarios`] — the
//!   claims only `ys-report` runs;
//! * [`driver`] — the closed-loop multi-client workload driver;
//! * [`report`] — the `report` renderer; `src/bin/report.rs` prints the
//!   sections EXPERIMENTS.md quotes, `src/bin/ys-report.rs` renders one
//!   named claim with its checkpoints, metrics and Chrome trace.
//!
//! Host-time measurement of the same kernels and experiment bodies lives
//! in the out-of-workspace `benchmark/` package (`-- ledger`).

pub mod ablations;
pub mod claims;
pub mod driver;
pub mod experiments;
pub mod obs_breakdown;
pub mod report;
pub mod scenarios;

pub use driver::{closed_loop, RunResult};
