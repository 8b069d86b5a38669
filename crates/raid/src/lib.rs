//! `ys-raid` — RAID geometry, parity mathematics, I/O planning, and
//! distributed rebuild coordination.
//!
//! The paper's storage pool "overrides the automatic selection of RAID type"
//! per file (§4), survives disk failures through parity (§6), and
//! distributes rebuilds across the controller cluster, resuming them when a
//! rebuilding controller dies (§2.4, §6.3). This crate implements all the
//! underlying machinery:
//!
//! * [`gf256`] — the GF(2⁸) field used by RAID-6 Q parity;
//! * [`parity`] — P/Q computation, incremental updates, and reconstruction
//!   of up to two erasures over real byte buffers;
//! * [`layout`] — left-symmetric rotating stripe [`Geometry`] for
//!   RAID 0/1/5/6 and logical→member address mapping;
//! * [`plan`] — translation of logical reads/writes into member-disk I/O,
//!   including read-modify-write and degraded-mode reconstruction;
//! * [`rebuild`] — the fault-tolerant distributed rebuild work queue.

pub mod gf256;
pub mod layout;
pub mod parity;
pub mod plan;
pub mod rebuild;

pub use layout::{Geometry, Placement, RaidLevel};
pub use plan::{read_plan, read_plan_into, repair_plan, write_plan, write_plan_into, DataLoss, IoPlan, MemberIo};
pub use rebuild::{rebuild_batch_plan, RebuildCoordinator, RowBatch};
