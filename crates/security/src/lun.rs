//! LUN masking, port zoning, and in-band command filtering (§5, §5.2).
//!
//! "LUN masking technology allows each client, or server, to privately own
//! portions of the storage system's capacity while concealing it from other
//! attached servers." The mask is the data-path authorization check; the
//! in-band filter lets administrators disable control commands arriving on
//! data ports "on a command-by-command, port-by-port basis".

use std::collections::{BTreeMap, BTreeSet};
use ys_virt::VolumeId;

/// An initiator (host HBA / NIC identity).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InitiatorId(pub u32);

/// Which fabric a port belongs to: the paper requires "complete separation
/// of the host side Fibre Channel fabric from the trusted disk-side fabric".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortZone {
    HostSide,
    DiskSide,
    /// Out-of-band management Ethernet (§5.2's separate secure network).
    Management,
}

/// Control commands that may arrive in-band.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ControlCommand {
    CreateVolume,
    DeleteVolume,
    ExpandVolume,
    Snapshot,
    MaskUpdate,
}

/// Violations surfaced to the audit log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SecurityViolation {
    /// Initiator touched a volume outside its mask.
    MaskDenied { initiator: InitiatorId, volume: VolumeId },
    /// Control command arrived on a port where it is disabled.
    InBandDenied { port: usize, command: ControlCommand },
    /// Host-side traffic attempted to reach the disk-side fabric directly.
    ZoneBreach { port: usize },
}

impl std::fmt::Display for SecurityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SecurityViolation::MaskDenied { initiator, volume } => {
                write!(f, "LUN mask denied {initiator:?} -> {volume:?}")
            }
            SecurityViolation::InBandDenied { port, command } => {
                write!(f, "in-band {command:?} disabled on port {port}")
            }
            SecurityViolation::ZoneBreach { port } => write!(f, "zone breach on port {port}"),
        }
    }
}

/// The masking + zoning table.
#[derive(Clone, Debug, Default)]
pub struct LunMask {
    visible: BTreeMap<InitiatorId, BTreeSet<VolumeId>>,
    zones: BTreeMap<usize, PortZone>,
    /// (port, command) pairs explicitly disabled.
    inband_disabled: BTreeSet<(usize, ControlCommand)>,
}

impl LunMask {
    pub fn new() -> LunMask {
        LunMask::default()
    }

    /// Expose `volume` to `initiator`.
    pub fn grant(&mut self, initiator: InitiatorId, volume: VolumeId) {
        self.visible.entry(initiator).or_default().insert(volume);
    }

    /// Revoke visibility.
    pub fn revoke(&mut self, initiator: InitiatorId, volume: VolumeId) {
        if let Some(set) = self.visible.get_mut(&initiator) {
            set.remove(&volume);
        }
    }

    /// Volumes `initiator` can see — everything else does not exist for it.
    pub fn visible_volumes(&self, initiator: InitiatorId) -> Vec<VolumeId> {
        let mut v: Vec<VolumeId> = self
            .visible
            .get(&initiator)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Data-path check.
    pub fn check_access(&self, initiator: InitiatorId, volume: VolumeId) -> Result<(), SecurityViolation> {
        match self.visible.get(&initiator) {
            Some(set) if set.contains(&volume) => Ok(()),
            _ => Err(SecurityViolation::MaskDenied { initiator, volume }),
        }
    }

    pub fn set_zone(&mut self, port: usize, zone: PortZone) {
        self.zones.insert(port, zone);
    }

    pub fn zone(&self, port: usize) -> Option<PortZone> {
        self.zones.get(&port).copied()
    }

    /// Fail-closed fabric separation: only ports explicitly zoned
    /// `DiskSide` or `Management` may address the trusted disk-side
    /// fabric. Host-side ports — and ports with *no* zone assignment at
    /// all — are a [`SecurityViolation::ZoneBreach`]. (The previous
    /// fail-open `_ => Ok(())` let any unzoned port through.)
    pub fn check_zone_path(&self, from_port: usize, to_zone: PortZone) -> Result<(), SecurityViolation> {
        if to_zone != PortZone::DiskSide {
            return Ok(());
        }
        match self.zones.get(&from_port) {
            Some(PortZone::DiskSide) | Some(PortZone::Management) => Ok(()),
            Some(PortZone::HostSide) | None => Err(SecurityViolation::ZoneBreach { port: from_port }),
        }
    }

    /// The ingress gate every front end runs first: a request may enter
    /// only on a port explicitly zoned `HostSide` or `Management`. One
    /// arriving on the trusted disk-side fabric, or on a port nobody ever
    /// zoned, is a [`SecurityViolation::ZoneBreach`] (fail closed).
    pub fn check_ingress(&self, port: usize) -> Result<(), SecurityViolation> {
        match self.zones.get(&port) {
            Some(PortZone::HostSide) | Some(PortZone::Management) => Ok(()),
            Some(PortZone::DiskSide) | None => Err(SecurityViolation::ZoneBreach { port }),
        }
    }

    /// Disable an in-band control command on a port.
    pub fn disable_inband(&mut self, port: usize, command: ControlCommand) {
        self.inband_disabled.insert((port, command));
    }

    /// Check an in-band control command. Management-zone ports are always
    /// allowed (out-of-band path).
    pub fn check_inband(&self, port: usize, command: ControlCommand) -> Result<(), SecurityViolation> {
        if self.zones.get(&port) == Some(&PortZone::Management) {
            return Ok(());
        }
        if self.inband_disabled.contains(&(port, command)) {
            Err(SecurityViolation::InBandDenied { port, command })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_grants_and_denies() {
        let mut m = LunMask::new();
        let (a, b) = (InitiatorId(1), InitiatorId(2));
        m.grant(a, VolumeId(10));
        m.grant(a, VolumeId(11));
        m.grant(b, VolumeId(11));
        assert!(m.check_access(a, VolumeId(10)).is_ok());
        assert!(m.check_access(b, VolumeId(11)).is_ok());
        assert_eq!(
            m.check_access(b, VolumeId(10)),
            Err(SecurityViolation::MaskDenied { initiator: b, volume: VolumeId(10) })
        );
        assert_eq!(m.visible_volumes(a), vec![VolumeId(10), VolumeId(11)]);
        assert_eq!(m.visible_volumes(InitiatorId(99)), vec![]);
    }

    #[test]
    fn revoke_takes_effect() {
        let mut m = LunMask::new();
        let a = InitiatorId(1);
        m.grant(a, VolumeId(5));
        assert!(m.check_access(a, VolumeId(5)).is_ok());
        m.revoke(a, VolumeId(5));
        assert!(m.check_access(a, VolumeId(5)).is_err());
    }

    #[test]
    fn host_ports_cannot_reach_disk_fabric() {
        let mut m = LunMask::new();
        m.set_zone(0, PortZone::HostSide);
        m.set_zone(1, PortZone::DiskSide);
        assert!(m.check_zone_path(0, PortZone::DiskSide).is_err());
        assert!(m.check_zone_path(0, PortZone::HostSide).is_ok());
        assert!(m.check_zone_path(1, PortZone::DiskSide).is_ok(), "disk-side internal path fine");
    }

    #[test]
    fn unzoned_ports_fail_closed_toward_disk_fabric() {
        let mut m = LunMask::new();
        m.set_zone(9, PortZone::Management);
        // Port 7 was never zoned: it must NOT reach the disk-side fabric.
        assert_eq!(
            m.check_zone_path(7, PortZone::DiskSide),
            Err(SecurityViolation::ZoneBreach { port: 7 })
        );
        // Management reaches the disk fabric (out-of-band admin path).
        assert!(m.check_zone_path(9, PortZone::DiskSide).is_ok());
        // Non-disk targets stay permissive even for unzoned ports.
        assert!(m.check_zone_path(7, PortZone::HostSide).is_ok());
        assert!(m.check_zone_path(7, PortZone::Management).is_ok());
    }

    #[test]
    fn ingress_admits_only_host_and_management_ports() {
        let mut m = LunMask::new();
        m.set_zone(0, PortZone::HostSide);
        m.set_zone(8, PortZone::DiskSide);
        m.set_zone(9, PortZone::Management);
        assert_eq!(m.check_ingress(0), Ok(()));
        assert_eq!(m.check_ingress(9), Ok(()));
        assert_eq!(m.check_ingress(8), Err(SecurityViolation::ZoneBreach { port: 8 }));
        // Port 5 was never zoned: fail closed.
        assert_eq!(m.check_ingress(5), Err(SecurityViolation::ZoneBreach { port: 5 }));
    }

    #[test]
    fn inband_commands_disabled_per_port_per_command() {
        let mut m = LunMask::new();
        m.set_zone(0, PortZone::HostSide);
        m.set_zone(9, PortZone::Management);
        m.disable_inband(0, ControlCommand::DeleteVolume);
        assert!(m.check_inband(0, ControlCommand::Snapshot).is_ok());
        assert!(m.check_inband(0, ControlCommand::DeleteVolume).is_err());
        // Out-of-band management port always allowed.
        assert!(m.check_inband(9, ControlCommand::DeleteVolume).is_ok());
    }
}
