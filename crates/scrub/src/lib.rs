//! `ys-scrub` — end-to-end data integrity for the NetStorage machine.
//!
//! The paper's shared-storage pool is only as useful as the bytes it gives
//! back: a national-lab archive holds data for decades, long enough for
//! latent media errors ("bit rot") to accumulate silently. This crate closes
//! the integrity loop over the rest of the workspace:
//!
//! * `ys-simdisk` carries a deterministic per-page checksum plane and a
//!   seeded latent-error fault model (`corrupt_page`): rot is silent until a
//!   *verified* read covers it;
//! * every foreground fill path in `ys-core` (cache miss, prefetch, RAID
//!   rebuild source reads, geo installs) verifies checksums and surfaces
//!   [`ys_core::ClusterError::Integrity`] — mismatched bytes never propagate
//!   silently, the same discipline as the cache's `DataLost` tombstones;
//! * [`scrubber`] — the background [`Scrubber`] walks
//!   volumes in deterministic extent order under a Scavenger-class QoS
//!   budget, detects mismatches, and drives **multi-source repair**: RAID
//!   redundancy first, an N-way cached replica second, a geographic remote
//!   copy third; unrepairable pages become explicit
//!   [`ScrubLoss`] entries, never clean-looking reads;
//! * [`campaign`] — a seeded end-to-end latent-error campaign that injects
//!   dozens of corruptions across RAID-protected, cache-resident, and
//!   geo-replicated data and audits that every one is repaired (with the
//!   repair source attributed) or explicitly declared lost.

#![warn(missing_docs)]

pub mod campaign;
pub mod scrubber;

pub use campaign::{CampaignConfig, CampaignReport};
pub use scrubber::{ScrubConfig, ScrubLoss, ScrubReport, ScrubTarget, Scrubber};
