//! # ys-sweep — parallel deterministic multi-seed runner
//!
//! Every simulation in this workspace is a pure function of
//! `(config, seed)` on a single thread. That makes multi-seed work —
//! `ys-chaos`, `ys-scrub` and `ys-heal` campaigns, the snapshot's model
//! checks and benchmark confidence sweep — embarrassingly parallel:
//! `ys-sweep` fans one shard per seed across a worker pool, then merges
//! results in input order, so the aggregate report is **byte-identical**
//! to a serial run. Parallelism is a throughput knob that can never reach
//! replay: `ys-sweep --jobs 16` and `--jobs 1` print the same bytes, and
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
pub use shard::{campaign_sweep, SweepOutcome};
pub use snapshot::{collect, diff, render, Scenario, SCHEMA};
