//! `ys-heal` — blade lifecycle, online re-replication, and graceful
//! degradation for the NetStorage machine.
//!
//! The paper's shared pool survives a blade failure because dirty pages are
//! mirrored N-way — but every failure *spends* that margin: promoted pages
//! run one copy short until something restores it. This crate closes the
//! redundancy loop over the rest of the workspace:
//!
//! * `ys-cache` carries the blade lifecycle state machine
//!   (`Up → Draining → Down → Rejoining → Up`), planned-drain evacuation
//!   that never loses an acknowledged write, online blade admission, and a
//!   cluster [`ys_cache::Health`] signal derived from surviving replica
//!   margins;
//! * [`healer`] — the background [`Healer`] scans the directory for pages
//!   below their fault-tolerance target and re-establishes replicas over
//!   the blade fabric, under Scavenger-class QoS admission (the same
//!   discipline as `ys-scrub`), with exponential backoff in virtual time
//!   and a bounded per-batch budget;
//! * `ys-core` carries the degraded-mode governor: with
//!   `ClusterConfig::with_health_governor()` writes are refused with an
//!   explicit `ReadOnly` error once the surviving margin is exhausted, and
//!   silent replica-count downgrades become audited trace events;
//! * [`campaign`] — a seeded fail → heal → fail-again campaign (plus a
//!   rolling drain/rejoin of every blade under foreground load) that
//!   audits zero loss of acknowledged writes and byte-identical replay.

#![warn(missing_docs)]

pub mod campaign;
pub mod healer;

pub use campaign::{CampaignConfig, CampaignReport};
pub use healer::{HealConfig, HealReport, Healer};
