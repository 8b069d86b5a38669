//! The repo's benchmark. See `README.md` in this directory.

pub mod compare;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod runner;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
