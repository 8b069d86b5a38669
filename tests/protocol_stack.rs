//! Protocol-stack integration: wire frames decoded into real operations
//! against the pool, with LUN masking enforced in the dispatch path — the
//! "complete range of storage protocols ... all managed from a common
//! pool" of §8.

use bytes::Bytes;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig};
use ys_pfs::{FilePolicy, FileSystem};
use ys_proto::{block, file, plan_stream, BlockCmd, FileOp};
use ys_security::{InitiatorId, LunMask};
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

const KB: u64 = 1 << 10;
const GB: u64 = 1 << 30;

/// A minimal block target: decode → mask check → execute on the cluster.
fn dispatch_block(
    cluster: &mut BladeCluster,
    mask: &LunMask,
    initiator: InitiatorId,
    now: SimTime,
    frame: Bytes,
) -> Result<SimTime, String> {
    let cmd = block::decode(frame).map_err(|e| e.to_string())?;
    match cmd {
        BlockCmd::Read { lun, lba, sectors } => {
            let vol = VolumeId(lun);
            mask.check_access(initiator, vol).map_err(|v| v.to_string())?;
            let c = cluster
                .read(now, 0, vol, lba * block::SECTOR, sectors as u64 * block::SECTOR)
                .map_err(|e| e.to_string())?;
            Ok(c.done)
        }
        BlockCmd::Write { lun, lba, sectors } => {
            let vol = VolumeId(lun);
            mask.check_access(initiator, vol).map_err(|v| v.to_string())?;
            let c = cluster
                .write(now, 0, vol, lba * block::SECTOR, sectors as u64 * block::SECTOR, 2, Retention::Normal)
                .map_err(|e| e.to_string())?;
            Ok(c.done)
        }
        BlockCmd::Unmap { lun, lba, sectors } => {
            let vol = VolumeId(lun);
            mask.check_access(initiator, vol).map_err(|v| v.to_string())?;
            let eb = ys_core::EXTENT_BYTES;
            let first = lba * block::SECTOR / eb;
            let count = (sectors as u64 * block::SECTOR).div_ceil(eb);
            cluster.unmap_volume(vol, first, count).map_err(|e| e.to_string())?;
            Ok(now)
        }
        BlockCmd::ReportLuns | BlockCmd::Inquiry => Ok(now),
    }
}

#[test]
fn block_protocol_round_trips_through_the_pool() {
    let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
    let vol = cluster.create_volume("lun0", 1, GB).unwrap();
    let mut mask = LunMask::new();
    let host = InitiatorId(1);
    mask.grant(host, vol);

    let mut t = SimTime::ZERO;
    // WRITE 128 sectors at LBA 0, then READ them back, all via wire frames.
    let w = block::encode(&BlockCmd::Write { lun: 0, lba: 0, sectors: 128 });
    t = dispatch_block(&mut cluster, &mask, host, t, w).unwrap();
    let r = block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 128 });
    t = dispatch_block(&mut cluster, &mask, host, t, r).unwrap();
    assert!(cluster.stats.reads_from_local_cache + cluster.stats.reads_from_remote_cache >= 1);

    // UNMAP returns the space.
    let used = cluster.pool_used_extents();
    assert!(used >= 1);
    let u = block::encode(&BlockCmd::Unmap { lun: 0, lba: 0, sectors: 2048 });
    dispatch_block(&mut cluster, &mask, host, t, u).unwrap();
    assert!(cluster.pool_used_extents() < used);
}

#[test]
fn lun_masking_blocks_foreign_initiators_at_the_protocol_layer() {
    let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
    let vol = cluster.create_volume("secret", 1, GB).unwrap();
    let mut mask = LunMask::new();
    mask.grant(InitiatorId(1), vol);
    let intruder = InitiatorId(66);
    let frame = block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 8 });
    let err = dispatch_block(&mut cluster, &mask, intruder, SimTime::ZERO, frame).unwrap_err();
    assert!(err.contains("denied"), "intruder read must be denied: {err}");
    // The denied command moved no data.
    assert_eq!(cluster.stats.read_meter.ops(), 0);
}

#[test]
fn file_protocol_drives_the_namespace() {
    let mut fs = FileSystem::new(vec![VolumeId(0)], 1 << 20);
    let ops = vec![
        FileOp::Mkdir { path: "/exp".into() },
        FileOp::Create { path: "/exp/run1.dat".into() },
        FileOp::SetPolicy { path: "/exp/run1.dat".into(), preset: "critical".into() },
        FileOp::Write { ino: 0, offset: 0, len: 0 }, // placeholder; real write below
        FileOp::Rename { from: "/exp/run1.dat".into(), to: "/exp/run-final.dat".into() },
    ];
    for op in ops {
        // Decode from the wire, then apply.
        let decoded = file::decode(file::encode(&op)).unwrap();
        match decoded {
            FileOp::Mkdir { path } => {
                fs.mkdir(&path, None).unwrap();
            }
            FileOp::Create { path } => {
                fs.create(&path, None).unwrap();
            }
            FileOp::SetPolicy { path, preset } => {
                let pol = match preset.as_str() {
                    "critical" => FilePolicy::critical(),
                    "scratch" => FilePolicy::scratch(),
                    _ => FilePolicy::default(),
                };
                fs.set_policy(&path, pol).unwrap();
            }
            FileOp::Write { .. } => { /* data-path op exercised elsewhere */ }
            FileOp::Rename { from, to } => {
                fs.rename(&from, &to).unwrap();
            }
            _ => unreachable!(),
        }
    }
    let st = fs.stat("/exp/run-final.dat").unwrap();
    assert_eq!(st.policy, FilePolicy::critical());
    // Write through the namespace and confirm striping happened.
    let ino = fs.lookup("/exp/run-final.dat").unwrap();
    let extents = fs.write(ino, 0, 4 << 20).unwrap();
    assert!(!extents.is_empty());
}

#[test]
fn stream_plans_cover_every_protocol_and_range() {
    for proto in [
        ys_proto::StreamProtocol::Http,
        ys_proto::StreamProtocol::Ftp,
        ys_proto::StreamProtocol::Rtsp,
        ys_proto::StreamProtocol::Dicom,
    ] {
        let req = ys_proto::StreamRequest { protocol: proto, path: "/x".into(), range: Some((100 * KB, 500 * KB)) };
        let rt = ys_proto::stream::decode(ys_proto::stream::encode(&req)).unwrap();
        assert_eq!(rt, req);
        let plan = plan_stream(GB, req.range, 64 * KB, 4);
        let total: u64 = plan.segments.iter().map(|s| s.len).sum();
        assert_eq!(total, 500 * KB);
    }
}
