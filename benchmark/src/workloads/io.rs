//! The three pure-I/O workloads: the same layers driven three ways.
//!
//! * `hot-read` keeps the working set inside the pooled cache, so the cache
//!   hit paths, the fabric hop and dispatch do nearly all the work;
//! * `cold-scan` is its mirror image — a set 32× the cache, so virt
//!   translate, the RAID read plan, verified disk submit, decipher and cache
//!   fill/evict dominate;
//! * `nway-write` uses those layers the other way: N-way replica placement,
//!   dirty eviction, parity read-modify-write, first-write allocation,
//!   ciphering and admission.

use super::{preload, warm_then_measure, Phases, Rep};
use crate::spans::{Kind, Tracer};
use std::time::Instant;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, EncryptionConfig};
use ys_proto::Workload as Generator;
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

const PAGE: u64 = 64 << 10;
const MIB: u64 = 1 << 20;

/// Closed-loop reads of `gen`'s offsets; verified reads must find no rot.
fn read_workload(c: &mut BladeCluster, vol: VolumeId, mut gen: Generator, p: Phases<'_>, tr: &mut Tracer) -> Rep {
    let mut rep = warm_then_measure(
        c,
        p,
        tr,
        |c, tr, client, now, req| {
            let op = tr.leaf(Kind::ProtoNextOp, req, || gen.next_op());
            let done = tr.leaf(Kind::CoreRead, req, || c.read(now, client, vol, op.offset, op.len))?;
            Ok((done.done, op.len))
        },
        |_, _| {},
    );
    rep.check(rep.counts["core.integrity_errors"] == 0.0, || "verified reads hit rotten media".into());
    rep
}

/// 4 blades / 16 disks RAID5, a 512 MiB Zipf(0.9) set of 64 KiB pages inside
/// the 1 GiB pooled cache; 2 M reads.
pub fn hot_read(seed: u64, scale: u64, tr: &mut Tracer) -> Rep {
    const SET: u64 = 512 * MIB;
    let ops = 2_000_000 / scale;
    let setup = Instant::now();
    let mut c = BladeCluster::new(ClusterConfig::default());
    let vol = c.create_volume("hot", 0, 1 << 40).expect("volume");
    let start = preload(&mut c, vol, SET, PAGE);
    let gen = Generator::zipf(SET, PAGE, 0.9, 0.0, seed);
    read_workload(&mut c, vol, gen, Phases { setup, start, warm: ops / 4, ops, scale, tenants: &[] }, tr)
}

/// Same cluster with the cache cut to 256 pages/blade (64 MiB) against a
/// 2 GiB set; uniform 256 KiB reads, RAID6, hardware-assisted encryption at
/// rest and in transit; 150 k reads.
pub fn cold_scan(seed: u64, scale: u64, tr: &mut Tracer) -> Rep {
    const SET: u64 = 2048 * MIB;
    let ops = 150_000 / scale;
    let setup = Instant::now();
    let cfg = ClusterConfig::default()
        .with_cache_pages(256)
        .with_raid(RaidLevel::Raid6)
        .with_encryption(EncryptionConfig::full_hw());
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("cold", 0, 1 << 40).expect("volume");
    let start = preload(&mut c, vol, SET, MIB);
    let gen = Generator::random(SET, 4 * PAGE, 0.0, seed);
    let mut rep =
        read_workload(&mut c, vol, gen, Phases { setup, start, warm: ops / 16, ops, scale, tenants: &[] }, tr);
    // Every page that came from disk went back through the cipher: the
    // preload stamped ciphertext on all of them.
    let (from_disk, deciphered) = (rep.counts["core.reads_from_disk"], rep.counts["security.pages_deciphered"]);
    rep.check(from_disk == deciphered, || format!("{from_disk} pages read from disk but {deciphered} deciphered"));
    rep
}

/// The QoS tenant `nway-write` writes as (Standard class, no rate limit:
/// admission delays under dirty pressure but never sheds).
const WRITER: u32 = 1;

/// 4 blades, 1024 pages/blade; random 64 KiB writes with 3 dirty copies over
/// 2 GiB via `write_as` (one Standard tenant), RAID5, full encryption; 20 k
/// writes into a cache already at steady dirty eviction, then `drain`.
pub fn nway_write(seed: u64, scale: u64, tr: &mut Tracer) -> Rep {
    const SET: u64 = 2048 * MIB;
    // Enough writes to fill every blade with dirty copies (4096 page slots,
    // three per write) several times over, whatever the scale.
    const WARM: u64 = 6_000;
    let ops = 20_000 / scale;
    let setup = Instant::now();
    let qos = QosConfig::new().with_tenant(TenantSpec::new(WRITER, "writer", QosClass::Standard));
    let cfg =
        ClusterConfig::default().with_cache_pages(1024).with_encryption(EncryptionConfig::full_hw()).with_qos(qos);
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("nway", WRITER, 1 << 40).expect("volume");
    let mut gen = Generator::random(SET, PAGE, 1.0, seed);
    let mut rep = warm_then_measure(
        &mut c,
        Phases { setup, start: SimTime::ZERO, warm: WARM, ops, scale, tenants: &[WRITER] },
        tr,
        |c, tr, client, now, req| {
            let op = tr.leaf(Kind::ProtoNextOp, req, || gen.next_op());
            let done = tr.leaf(Kind::CoreWrite, req, || {
                c.write_as(now, WRITER, client, vol, op.offset, op.len, 3, Retention::Normal)
            })?;
            Ok((done.done, op.len))
        },
        |c, tr| {
            tr.leaf(Kind::CoreDrain, 0, || c.drain());
        },
    );
    let violations = c.cache.audit_invariants();
    rep.check(violations.is_empty(), || format!("cache invariants broken after drain: {violations:?}"));
    rep.check(c.stats.dirty_pages_lost == 0, || "dirty pages lost without a failure".into());
    rep
}
