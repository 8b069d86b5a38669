//! `ys-obs` — the unified observability layer over the yottastore
//! simulation.
//!
//! The data-path crates measure themselves with `ys_simcore::stats`
//! primitives and emit structured [`ys_simcore::SpanEvent`]s into
//! per-subsystem rings (disabled by default; zero-cost beyond one branch).
//! This crate is the consumer at the top of the dependency stack:
//!
//! * [`registry`] — the hierarchical [`MetricsRegistry`]: every number
//!   addressable as `(subsystem, blade, name)`, with snapshot / merge /
//!   diff algebra and deterministic JSON export;
//! * [`collect`] — adapters that lift each crate's native stats
//!   (cache coherence, DMSD pools, cluster latencies, geo replication)
//!   into the registry address space;
//! * [`chrome`] — serialization of drained span events to Chrome
//!   `trace_event` JSON for `chrome://tracing` / Perfetto;
//! * [`report`] — aligned tables, paper-claim [`Checkpoint`]s, and the
//!   [`RunReport`] every claim of `ys-bench`'s registry returns.
//!
//! Instrumentation is measurement-neutral by construction: recorders are
//! written to *after* the timing math, so a traced run and an untraced run
//! produce bit-identical simulated results (`ys-bench` asserts this).

pub mod chrome;
pub mod collect;
pub mod registry;
pub mod report;

pub use chrome::chrome_trace_json;
pub use collect::{collect_cache, collect_cluster, collect_geo, collect_qos, record_trace_drops};
pub use registry::{Metric, MetricKey, MetricsRegistry};
pub use report::{Checkpoint, RunReport, Table};
