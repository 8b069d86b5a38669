//! `ys-simnet` — network substrate: links, switched fabrics, shared buses,
//! and the era link-rate catalog.
//!
//! The paper's performance claims (Figure 1 striping, §2 scalability, §7
//! geographic access) are all statements about *which serialization resource
//! a transfer waits on*. This crate provides exactly those resources as
//! passive queueing models:
//!
//! * [`link::Link`] — FIFO serialization + propagation;
//! * [`fabric::Fabric`] — non-blocking crossbar, contention at ports;
//! * [`fabric::SharedBus`] — a single shared serialization point (PCI-X);
//! * [`sched::FairPort`] — fair queueing in front of a shared port, the
//!   noisy-neighbor defence at the blade/FC-port level;
//! * [`catalog`] — FC 2 Gb/s, 10 GbE, PCI-X, OC-192/768, WAN.
//!
//! Orchestration (who sends what when) lives in `ys-core`; these models just
//! answer "when does it arrive".

pub mod catalog;
pub mod fabric;
pub mod link;
pub mod sched;

pub use fabric::{Fabric, PortId, SharedBus};
pub use link::{Link, LinkSpec, Transfer};
pub use sched::{FairPort, Served};
