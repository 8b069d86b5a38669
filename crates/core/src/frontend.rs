//! Protocol front-ends (§8): the blades speak the network's languages
//! directly — a SCSI-style block target and an NFS-style file server, both
//! dispatching real wire frames onto the pool with LUN masking and
//! security checks in the path.
//!
//! "The storage system would need to communicate directly with the
//! network ... connectivity between the controller blades and the hosts
//! over non-traditional networks such as IP or Infiniband encapsulated as
//! SCSI, NAS, VI ..."

use crate::cluster::BladeCluster;
use crate::config::EXTENT_BYTES;
use crate::netstorage::{NetError, NetStorage};
use bytes::Bytes;
use ys_cache::Retention;
use ys_geo::SiteId;
use ys_pfs::FilePolicy;
use ys_proto::{block, file, BlockCmd, BlockStatus, FileOp};
use ys_security::{AuditEvent, AuditLog, InitiatorId, LunMask, PortZone};
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

/// Result of one block command: completion time + SCSI-style status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockReply {
    pub status: BlockStatus,
    pub done: SimTime,
}

/// Per-target statistics.
#[derive(Clone, Debug, Default)]
pub struct TargetStats {
    pub commands: u64,
    pub denied: u64,
    pub errors: u64,
    pub bytes: u64,
}

/// The block target: decodes frames, enforces zoning and the mask on every
/// frame, executes on the cluster, audits denials.
pub struct BlockTarget {
    pub mask: LunMask,
    pub audit: AuditLog,
    pub stats: TargetStats,
    write_copies: usize,
    /// The target's own egress port onto the trusted disk-side fabric. The
    /// operator must zone it `DiskSide`; until then every data command is
    /// denied fail-closed (§5's fabric separation has no default-allow).
    bridge_port: usize,
}

impl BlockTarget {
    pub fn new(write_copies: usize, bridge_port: usize) -> BlockTarget {
        BlockTarget {
            mask: LunMask::new(),
            audit: AuditLog::new(),
            stats: TargetStats::default(),
            write_copies,
            bridge_port,
        }
    }

    /// LUNs visible to an initiator (the `ReportLuns` answer — masked LUNs
    /// simply do not exist for it).
    pub fn report_luns(&self, initiator: InitiatorId) -> Vec<VolumeId> {
        self.mask.visible_volumes(initiator)
    }

    /// Gate a frame's ingress port: only explicitly host-side (or
    /// management) zoned ports may submit frames. A frame showing up on
    /// the trusted disk-side fabric — or on a port nobody ever zoned —
    /// is a breach, audited and denied.
    fn ingress(&mut self, port: usize, now: SimTime) -> Result<(), BlockReply> {
        match self.mask.zone(port) {
            Some(PortZone::HostSide) | Some(PortZone::Management) => Ok(()),
            Some(PortZone::DiskSide) | None => {
                self.stats.denied += 1;
                self.audit.record(
                    now,
                    AuditEvent::Violation(ys_security::SecurityViolation::ZoneBreach { port }),
                );
                Err(BlockReply { status: BlockStatus::AccessDenied, done: now })
            }
        }
    }

    /// Gate the target's bridge hop onto the disk-side fabric (data
    /// commands only; fail-closed when the bridge port is unzoned).
    fn bridge(&mut self, now: SimTime) -> Result<(), BlockReply> {
        match self.mask.check_zone_path(self.bridge_port, PortZone::DiskSide) {
            Ok(()) => Ok(()),
            Err(v) => {
                self.stats.denied += 1;
                self.audit.record(now, AuditEvent::Violation(v));
                Err(BlockReply { status: BlockStatus::AccessDenied, done: now })
            }
        }
    }

    /// Handle one wire frame from `initiator`, arriving on fabric port
    /// `port`, at `now`. Every frame pays the zone gate; data commands
    /// additionally pay the bridge gate and the LUN mask.
    pub fn handle(
        &mut self,
        cluster: &mut BladeCluster,
        initiator: InitiatorId,
        client: usize,
        port: usize,
        now: SimTime,
        frame: Bytes,
    ) -> BlockReply {
        self.stats.commands += 1;
        let cmd = match block::decode(frame) {
            Ok(c) => c,
            Err(_) => {
                self.stats.errors += 1;
                return BlockReply { status: BlockStatus::TargetFailure, done: now };
            }
        };
        if let Err(r) = self.ingress(port, now) {
            return r;
        }
        let check = |this: &mut Self, vol: VolumeId| -> Result<(), BlockReply> {
            this.bridge(now)?;
            match this.mask.check_access(initiator, vol) {
                Ok(()) => Ok(()),
                Err(v) => {
                    this.stats.denied += 1;
                    this.audit.record(now, AuditEvent::Violation(v));
                    Err(BlockReply { status: BlockStatus::AccessDenied, done: now })
                }
            }
        };
        match cmd {
            BlockCmd::Read { lun, lba, sectors } => {
                let vol = VolumeId(lun);
                if let Err(r) = check(self, vol) {
                    return r;
                }
                let bytes = sectors as u64 * block::SECTOR;
                match cluster.read(now, client, vol, lba * block::SECTOR, bytes) {
                    Ok(c) => {
                        self.stats.bytes += bytes;
                        BlockReply { status: BlockStatus::Good, done: c.done }
                    }
                    Err(crate::cluster::ClusterError::Virt(ys_virt::VirtError::OutOfRange { .. })) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::LbaOutOfRange, done: now }
                    }
                    Err(_) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::TargetFailure, done: now }
                    }
                }
            }
            BlockCmd::Write { lun, lba, sectors } => {
                let vol = VolumeId(lun);
                if let Err(r) = check(self, vol) {
                    return r;
                }
                let bytes = sectors as u64 * block::SECTOR;
                match cluster.write(now, client, vol, lba * block::SECTOR, bytes, self.write_copies, Retention::Normal)
                {
                    Ok(c) => {
                        self.stats.bytes += bytes;
                        BlockReply { status: BlockStatus::Good, done: c.done }
                    }
                    Err(crate::cluster::ClusterError::Virt(ys_virt::VirtError::OutOfRange { .. })) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::LbaOutOfRange, done: now }
                    }
                    Err(crate::cluster::ClusterError::Virt(ys_virt::VirtError::OutOfSpace(_))) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::SpaceExhausted, done: now }
                    }
                    Err(_) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::TargetFailure, done: now }
                    }
                }
            }
            BlockCmd::Unmap { lun, lba, sectors } => {
                let vol = VolumeId(lun);
                if let Err(r) = check(self, vol) {
                    return r;
                }
                let first = lba * block::SECTOR / EXTENT_BYTES;
                let count = (sectors as u64 * block::SECTOR).div_ceil(EXTENT_BYTES);
                match cluster.unmap_volume(vol, first, count) {
                    Ok(_) => BlockReply { status: BlockStatus::Good, done: now },
                    Err(_) => {
                        self.stats.errors += 1;
                        BlockReply { status: BlockStatus::LbaOutOfRange, done: now }
                    }
                }
            }
            BlockCmd::ReportLuns | BlockCmd::Inquiry => BlockReply { status: BlockStatus::Good, done: now },
        }
    }
}

/// A file-protocol reply.
#[derive(Clone, Debug, PartialEq)]
pub enum FileReply {
    Ok { done: SimTime },
    Ino { ino: u64, done: SimTime },
    Entries { names: Vec<String>, done: SimTime },
    Error(String),
}

/// The NAS head: decodes file-protocol frames, enforces zoning and export
/// visibility, and executes against the global namespace at one site.
pub struct FileServer {
    pub site: SiteId,
    pub stats: TargetStats,
    /// Export authorization: a client initiator must be granted the
    /// namespace volume ([`FileServer::NAMESPACE_VOL`]) to touch data.
    pub mask: LunMask,
    pub audit: AuditLog,
}

impl FileServer {
    /// The volume backing the global namespace at every site.
    pub const NAMESPACE_VOL: VolumeId = VolumeId(0);

    pub fn new(site: SiteId) -> FileServer {
        FileServer {
            site,
            stats: TargetStats::default(),
            mask: LunMask::new(),
            audit: AuditLog::new(),
        }
    }

    fn policy_preset(name: &str) -> FilePolicy {
        match name {
            "critical" => FilePolicy::critical(),
            "scratch" => FilePolicy::scratch(),
            _ => FilePolicy::default(),
        }
    }

    /// Zone + export gate, shared by every frame: same fail-closed
    /// semantics as the block target's ingress check.
    fn admit(&mut self, initiator: InitiatorId, port: usize, now: SimTime) -> Result<(), FileReply> {
        let breach = !matches!(
            self.mask.zone(port),
            Some(PortZone::HostSide) | Some(PortZone::Management)
        );
        if breach {
            self.stats.denied += 1;
            let v = ys_security::SecurityViolation::ZoneBreach { port };
            self.audit.record(now, AuditEvent::Violation(v.clone()));
            return Err(FileReply::Error(v.to_string()));
        }
        if let Err(v) = self.mask.check_access(initiator, Self::NAMESPACE_VOL) {
            self.stats.denied += 1;
            self.audit.record(now, AuditEvent::Violation(v.clone()));
            return Err(FileReply::Error(v.to_string()));
        }
        Ok(())
    }

    /// Handle one wire frame from `initiator` (host `client`), arriving on
    /// fabric port `port`, at `now`.
    pub fn handle(
        &mut self,
        ns: &mut NetStorage,
        initiator: InitiatorId,
        client: usize,
        port: usize,
        now: SimTime,
        frame: Bytes,
    ) -> FileReply {
        self.stats.commands += 1;
        let op = match file::decode(frame) {
            Ok(o) => o,
            Err(e) => {
                self.stats.errors += 1;
                return FileReply::Error(e.to_string());
            }
        };
        if let Err(r) = self.admit(initiator, port, now) {
            return r;
        }
        let map_err = |this: &mut Self, e: NetError| {
            this.stats.errors += 1;
            FileReply::Error(e.to_string())
        };
        match op {
            FileOp::Lookup { path } => match ns.fs.lookup(&path) {
                Ok(ino) => FileReply::Ino { ino: ino.0, done: now },
                Err(e) => map_err(self, e.into()),
            },
            FileOp::Create { path } => match ns.create_file(&path, FilePolicy::default(), self.site) {
                Ok(ino) => FileReply::Ino { ino: ino.0, done: now },
                Err(e) => map_err(self, e),
            },
            FileOp::Mkdir { path } => match ns.fs.mkdir(&path, None) {
                Ok(ino) => FileReply::Ino { ino: ino.0, done: now },
                Err(e) => map_err(self, e.into()),
            },
            FileOp::Read { ino, offset, len } => {
                // Resolve ino → path-independent read via namespace lookup.
                match ns.read_ino(now, self.site, client, ys_pfs::Ino(ino), offset, len) {
                    Ok(c) => {
                        self.stats.bytes += len;
                        FileReply::Ok { done: c.done }
                    }
                    Err(e) => map_err(self, e),
                }
            }
            FileOp::Write { ino, offset, len } => match ns.write_ino(now, self.site, client, ys_pfs::Ino(ino), offset, len) {
                Ok(c) => {
                    self.stats.bytes += len;
                    FileReply::Ok { done: c.done }
                }
                Err(e) => map_err(self, e),
            },
            FileOp::Remove { path } => match ns.fs.unlink(&path) {
                Ok(_) => FileReply::Ok { done: now },
                Err(e) => map_err(self, e.into()),
            },
            FileOp::Rename { from, to } => match ns.fs.rename(&from, &to) {
                Ok(()) => FileReply::Ok { done: now },
                Err(e) => map_err(self, e.into()),
            },
            FileOp::GetAttr { path } => match ns.fs.stat(&path) {
                Ok(st) => FileReply::Ino { ino: st.ino.0, done: now },
                Err(e) => map_err(self, e.into()),
            },
            FileOp::SetPolicy { path, preset } => {
                let pol = Self::policy_preset(&preset);
                match ns.fs.set_policy(&path, pol) {
                    Ok(()) => FileReply::Ok { done: now },
                    Err(e) => map_err(self, e.into()),
                }
            }
            FileOp::ReadDir { path } => match ns.fs.readdir(&path) {
                Ok(names) => FileReply::Entries { names, done: now },
                Err(e) => map_err(self, e.into()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::netstorage::NetStorageConfig;

    const MB: u64 = 1 << 20;

    /// A block target wired the way an operator would: host port 0,
    /// management port 9, disk-side bridge on port 8.
    fn zoned_target(write_copies: usize) -> BlockTarget {
        let mut t = BlockTarget::new(write_copies, 8);
        t.mask.set_zone(0, PortZone::HostSide);
        t.mask.set_zone(8, PortZone::DiskSide);
        t.mask.set_zone(9, PortZone::Management);
        t
    }

    #[test]
    fn block_target_full_cycle_with_masking() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8).with_clients(2));
        let vol = cluster.create_volume("lun0", 1, 1 << 30).unwrap();
        let mut target = zoned_target(2);
        let host = InitiatorId(1);
        target.mask.grant(host, vol);
        assert_eq!(target.report_luns(host), vec![vol]);
        assert!(target.report_luns(InitiatorId(9)).is_empty());

        let w = target.handle(&mut cluster, host, 0, 0, SimTime::ZERO,
            block::encode(&BlockCmd::Write { lun: 0, lba: 0, sectors: 256 }));
        assert_eq!(w.status, BlockStatus::Good);
        let r = target.handle(&mut cluster, host, 0, 0, w.done,
            block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 256 }));
        assert_eq!(r.status, BlockStatus::Good);
        assert_eq!(target.stats.bytes, 2 * 256 * 512);

        // Foreign initiator denied and audited.
        let d = target.handle(&mut cluster, InitiatorId(9), 0, 0, r.done,
            block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 8 }));
        assert_eq!(d.status, BlockStatus::AccessDenied);
        assert_eq!(target.stats.denied, 1);
        assert_eq!(target.audit.violations().count(), 1);

        // Out of range maps to the right status.
        let oor = target.handle(&mut cluster, host, 0, 0, r.done,
            block::encode(&BlockCmd::Write { lun: 0, lba: u64::MAX / 1024, sectors: 8 }));
        assert_eq!(oor.status, BlockStatus::LbaOutOfRange);
    }

    #[test]
    fn garbage_frames_get_target_failure() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
        let mut target = zoned_target(1);
        let r = target.handle(&mut cluster, InitiatorId(1), 0, 0, SimTime::ZERO, Bytes::from_static(&[0xFF, 1, 2]));
        assert_eq!(r.status, BlockStatus::TargetFailure);
        assert_eq!(target.stats.errors, 1);
    }

    #[test]
    fn unzoned_or_disk_side_ingress_is_a_breach() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
        let vol = cluster.create_volume("lun0", 1, 1 << 30).unwrap();
        let mut target = zoned_target(1);
        let host = InitiatorId(1);
        target.mask.grant(host, vol);
        let read = block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 8 });
        // Port 5 was never zoned — fail closed even though the mask allows.
        let r = target.handle(&mut cluster, host, 0, 5, SimTime::ZERO, read.clone());
        assert_eq!(r.status, BlockStatus::AccessDenied);
        // A host frame materializing on the trusted disk fabric is a breach.
        let r = target.handle(&mut cluster, host, 0, 8, SimTime::ZERO, read.clone());
        assert_eq!(r.status, BlockStatus::AccessDenied);
        assert_eq!(target.stats.denied, 2);
        assert!(target
            .audit
            .violations()
            .all(|(_, v)| matches!(v, ys_security::SecurityViolation::ZoneBreach { .. })));
        // Even ReportLuns pays the zone gate.
        let r = target.handle(&mut cluster, host, 0, 5, SimTime::ZERO, block::encode(&BlockCmd::ReportLuns));
        assert_eq!(r.status, BlockStatus::AccessDenied);
    }

    #[test]
    fn unzoned_bridge_port_denies_all_data_commands() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
        let vol = cluster.create_volume("lun0", 1, 1 << 30).unwrap();
        // Operator zoned the host port but forgot the disk-side bridge.
        let mut target = BlockTarget::new(1, 8);
        target.mask.set_zone(0, PortZone::HostSide);
        let host = InitiatorId(1);
        target.mask.grant(host, vol);
        let r = target.handle(&mut cluster, host, 0, 0, SimTime::ZERO,
            block::encode(&BlockCmd::Read { lun: 0, lba: 0, sectors: 8 }));
        assert_eq!(r.status, BlockStatus::AccessDenied, "no default-allow toward the disk fabric");
        assert_eq!(target.audit.violations().count(), 1);
        // Inquiry still answers — it never crosses the bridge.
        let r = target.handle(&mut cluster, host, 0, 0, SimTime::ZERO, block::encode(&BlockCmd::Inquiry));
        assert_eq!(r.status, BlockStatus::Good);
    }

    #[test]
    fn mid_stream_revoke_denies_next_frame_and_audits() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8).with_clients(2));
        let vol = cluster.create_volume("lun0", 1, 1 << 30).unwrap();
        let mut target = zoned_target(2);
        let host = InitiatorId(1);
        target.mask.grant(host, vol);
        assert_eq!(target.report_luns(host), vec![vol]);
        let w = target.handle(&mut cluster, host, 0, 0, SimTime::ZERO,
            block::encode(&BlockCmd::Write { lun: 0, lba: 0, sectors: 64 }));
        assert_eq!(w.status, BlockStatus::Good);
        // Revocation lands mid-stream: the very next frame must bounce.
        target.mask.revoke(host, vol);
        assert!(target.report_luns(host).is_empty(), "revoked LUN no longer exists for the host");
        for cmd in [
            BlockCmd::Read { lun: 0, lba: 0, sectors: 64 },
            BlockCmd::Write { lun: 0, lba: 64, sectors: 64 },
        ] {
            let r = target.handle(&mut cluster, host, 0, 0, w.done, block::encode(&cmd));
            assert_eq!(r.status, BlockStatus::AccessDenied, "post-revoke {cmd:?} must be denied");
        }
        assert_eq!(target.stats.denied, 2);
        assert_eq!(target.audit.violations().count(), 2, "every post-revoke attempt is audited");
    }

    #[test]
    fn target_stats_account_mixed_accept_deny() {
        let mut cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8).with_clients(2));
        let vol = cluster.create_volume("lun0", 1, 1 << 30).unwrap();
        let mut target = zoned_target(1);
        let good = InitiatorId(1);
        let spy = InitiatorId(66);
        target.mask.grant(good, vol);
        let mut t = SimTime::ZERO;
        for i in 0..4u64 {
            let r = target.handle(&mut cluster, good, 0, 0, t,
                block::encode(&BlockCmd::Write { lun: 0, lba: i * 64, sectors: 64 }));
            assert_eq!(r.status, BlockStatus::Good);
            t = r.done;
            let d = target.handle(&mut cluster, spy, 1, 0, t,
                block::encode(&BlockCmd::Read { lun: 0, lba: i * 64, sectors: 64 }));
            assert_eq!(d.status, BlockStatus::AccessDenied);
        }
        assert_eq!(target.stats.commands, 8, "accepted and denied frames both count");
        assert_eq!(target.stats.denied, 4);
        assert_eq!(target.stats.errors, 0);
        assert_eq!(target.stats.bytes, 4 * 64 * 512, "denied frames move zero bytes");
        assert_eq!(target.audit.violations().count(), 4);
    }

    #[test]
    fn file_server_runs_a_session_over_the_wire() {
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        });
        let mut srv = FileServer::new(SiteId(0));
        srv.mask.set_zone(0, PortZone::HostSide);
        let nas_client = InitiatorId(1);
        srv.mask.grant(nas_client, FileServer::NAMESPACE_VOL);
        let t = SimTime::ZERO;
        let send = |srv: &mut FileServer, ns: &mut NetStorage, t: SimTime, op: &FileOp| {
            srv.handle(ns, InitiatorId(1), 0, 0, t, file::encode(op))
        };
        assert!(matches!(send(&mut srv, &mut ns, t, &FileOp::Mkdir { path: "/exp".into() }), FileReply::Ino { .. }));
        let ino = match send(&mut srv, &mut ns, t, &FileOp::Create { path: "/exp/data".into() }) {
            FileReply::Ino { ino, .. } => ino,
            other => panic!("{other:?}"),
        };
        let w = match send(&mut srv, &mut ns, t, &FileOp::Write { ino, offset: 0, len: MB }) {
            FileReply::Ok { done } => done,
            other => panic!("{other:?}"),
        };
        assert!(matches!(
            send(&mut srv, &mut ns, w, &FileOp::Read { ino, offset: 0, len: MB }),
            FileReply::Ok { .. }
        ));
        assert!(matches!(
            send(&mut srv, &mut ns, w, &FileOp::SetPolicy { path: "/exp/data".into(), preset: "critical".into() }),
            FileReply::Ok { .. }
        ));
        assert_eq!(ns.fs.stat("/exp/data").unwrap().policy, FilePolicy::critical());
        match send(&mut srv, &mut ns, w, &FileOp::ReadDir { path: "/exp".into() }) {
            FileReply::Entries { names, .. } => assert_eq!(names, vec!["data"]),
            other => panic!("{other:?}"),
        }
        // Errors are replies, not panics.
        assert!(matches!(
            send(&mut srv, &mut ns, w, &FileOp::Remove { path: "/nope".into() }),
            FileReply::Error(_)
        ));
        assert_eq!(srv.stats.bytes, 2 * MB);
    }

    #[test]
    fn file_server_denies_unexported_initiators_and_breach_ports() {
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            ..NetStorageConfig::default()
        });
        let mut srv = FileServer::new(SiteId(0));
        srv.mask.set_zone(0, PortZone::HostSide);
        let granted = InitiatorId(1);
        let stranger = InitiatorId(2);
        srv.mask.grant(granted, FileServer::NAMESPACE_VOL);
        let t = SimTime::ZERO;
        let create = file::encode(&FileOp::Create { path: "/f".into() });
        // Granted client on a zoned port: fine.
        assert!(matches!(
            srv.handle(&mut ns, granted, 0, 0, t, create.clone()),
            FileReply::Ino { .. }
        ));
        // Same port, initiator without the export: denied + audited.
        assert!(matches!(
            srv.handle(&mut ns, stranger, 0, 0, t, file::encode(&FileOp::Lookup { path: "/f".into() })),
            FileReply::Error(_)
        ));
        // Granted client arriving on an unzoned port: breach, fail closed.
        assert!(matches!(
            srv.handle(&mut ns, granted, 0, 3, t, file::encode(&FileOp::Lookup { path: "/f".into() })),
            FileReply::Error(_)
        ));
        assert_eq!(srv.stats.denied, 2);
        assert_eq!(srv.audit.violations().count(), 2);
        // Revoking the export cuts off the session mid-stream.
        srv.mask.revoke(granted, FileServer::NAMESPACE_VOL);
        assert!(matches!(
            srv.handle(&mut ns, granted, 0, 0, t, file::encode(&FileOp::Lookup { path: "/f".into() })),
            FileReply::Error(_)
        ));
        assert_eq!(srv.stats.denied, 3);
    }
}
