//! # ys-sweep — parallel deterministic multi-seed runner
//!
//! Every simulation in this workspace is a pure function of
//! `(config, seed)` on a single thread. That makes multi-seed work —
//! `ys-check` explorations, `ys-chaos` fault campaigns, benchmark
//! confidence sweeps — embarrassingly parallel: `ys-sweep` fans one shard
//! per seed (or per model) across a worker pool, then merges results in
//! input order, so the aggregate report is **byte-identical** to a serial
//! run. Parallelism is a throughput knob that can never reach replay:
//! `ys-sweep --jobs 16` and `--jobs 1` print the same bytes, and
//! `scripts/check.sh` compares them on every run.
//!
//! Threads live only here; the
//! simulation crates remain thread-free and clock-free, which keeps the
//! `ys-lint` ambient-entropy rule meaningful.
//!
//! The [`snapshot`] module emits `BENCH_baseline.json` — the
//! machine-independent simulation metrics and transcript digests the
//! drift gate compares exactly.

#![warn(missing_docs)]

pub mod pool;
pub mod shard;
pub mod snapshot;

pub use pool::{default_threads, run_sweep};
pub use shard::{bench_sweep, campaign_sweep, check_sweep, SweepOutcome};
pub use snapshot::{collect, diff, render, Scenario, SCHEMA};
