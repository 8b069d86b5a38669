//! `ys-simcore` — deterministic discrete-event simulation substrate for the
//! yottastore reproduction.
//!
//! Provides the pieces every other crate builds on:
//!
//! * [`time`] — nanosecond [`SimTime`]/[`SimDuration`] and exact
//!   [`Bandwidth`] arithmetic for the paper's link-rate catalog;
//! * [`engine`] — the [`Engine`] event queue with total (time, seq) ordering;
//! * [`rng`] — seedable xoshiro256++ [`Rng`] plus the workload distributions
//!   (uniform, exponential, log-normal, [`Zipf`] hot-spot skew);
//! * [`stats`] — counters, latency histograms, rate meters, and the
//!   [`Series`] text tables benches print;
//! * [`trace`] — the [`SpanRecorder`] event spine replay and chaos testing
//!   hang off.
//!
//! Everything here is single-threaded and clock-free: parallelism over
//! *independent* runs lives in the `ys-sweep` harness crate, never in the
//! simulation substrate.

pub mod engine;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::Engine;
pub use rng::{Rng, Zipf};
pub use stats::{Counter, LatencyHisto, RateMeter, Series};
pub use time::{Bandwidth, SimDuration, SimTime};
pub use trace::{chrome_trace_json, SpanEvent, SpanRecorder, TRACE_CAPACITY};
