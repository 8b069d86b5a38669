//! `ys-bench` — the experiment suite reproducing every figure and
//! quantitative claim of the paper (see DESIGN.md §4 for the index).
//!
//! * [`driver`] — the closed-loop multi-client workload driver;
//! * [`experiments`] — E1–E12, each returning the printed series;
//! * `src/bin/report.rs` — runs the suite and prints the tables recorded
//!   in EXPERIMENTS.md.
//!
//! Host-time measurement of the same kernels and experiment bodies lives
//! in the out-of-workspace `benchmark/` package (`-- ledger`).

pub mod ablations;
pub mod driver;
pub mod experiments;
pub mod obs_breakdown;
pub mod report;
pub mod spec;

pub use driver::{closed_loop, RunResult};
