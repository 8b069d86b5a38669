//! `ys-qos` — multi-tenant quality of service for the shared store.
//!
//! The paper's premise is a *shared* national-lab infrastructure: many
//! labs hit the same pooled cache-coherent blades (§3 charge-back, §6.3
//! hot-data skew), so one tenant's flood must not starve another's
//! interactive traffic. This crate is the policy layer that makes the
//! pool shareable:
//!
//! * [`config`] — tenant table: QoS class, weights, token-bucket rates,
//!   in-flight caps, SLO targets ([`QosConfig`], [`TenantSpec`]);
//! * [`bucket`] — deterministic integer [`TokenBucket`] throttles
//!   (exact nanosecond-granularity refill, no floats);
//! * [`admission`] — the [`AdmissionController`] state machine:
//!   admit / delay / shed per request, with backpressure keyed off the
//!   cache dirty ratio and RAID-rebuild activity;
//! * [`slo`] — per-tenant latency budgets and throughput floors
//!   ([`SloStatus`]), fed to the `ys-obs` metrics registry.
//!
//! Everything is deterministic in virtual time: the same `(config, op
//! sequence)` produces the same admissions, delays, and sheds. The
//! admission state machine's invariants (tokens never negative, shed
//! counters monotone, in-flight ≤ cap) are model-checked by `ys-check`.

pub mod admission;
pub mod bucket;
pub mod config;
pub mod slo;

pub use admission::{AdmissionController, Decision, Pressure, ShedReason, TenantQosStats};
pub use bucket::TokenBucket;
pub use config::{QosClass, QosConfig, TenantSpec};
pub use slo::SloStatus;
