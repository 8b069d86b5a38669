//! The management plane — §5.2's "fortified architectural ring that
//! encloses and protects controller management, security and policy
//! administration, virtualization, and the file system".
//!
//! Every control operation passes its gates before touching the cluster:
//! 1. **authentication** — a valid, unexpired, correctly-MAC'd session
//!    token with the Admin role;
//! 2. **path policy** — the mask's fail-closed ingress gate (only host-side
//!    or management ports may carry a request), then the in-band command
//!    filter (control commands can be disabled per port; the out-of-band
//!    management network always works);
//! 3. **audit** — success or refusal, everything lands in the audit log.

use crate::cluster::{BladeCluster, ClusterError};
use ys_security::{
    AuditEvent, AuditLog, AuthError, AuthService, ControlCommand, LunMask, Role, SecurityViolation, SessionToken,
};
use ys_simcore::time::SimTime;
use ys_virt::{SnapshotId, VolumeId};

/// A control-plane request.
#[derive(Clone, Debug)]
pub enum AdminOp {
    CreateVolume { group: usize, name: String, tenant: u32, bytes: u64 },
    DeleteVolume { vol: VolumeId },
    ExpandVolume { vol: VolumeId, new_bytes: u64 },
    Snapshot { vol: VolumeId },
    DeleteSnapshot { vol: VolumeId, snap: SnapshotId },
    /// Instant recovery to a point-in-time image (ref \[1\] SnapRestore).
    Rollback { vol: VolumeId, snap: SnapshotId },
    /// Expose `vol` to an initiator.
    MaskGrant { initiator: u32, vol: VolumeId },
    MaskRevoke { initiator: u32, vol: VolumeId },
}

impl AdminOp {
    /// The in-band command class this op belongs to.
    fn command(&self) -> ControlCommand {
        match self {
            AdminOp::CreateVolume { .. } => ControlCommand::CreateVolume,
            AdminOp::DeleteVolume { .. } => ControlCommand::DeleteVolume,
            AdminOp::ExpandVolume { .. } => ControlCommand::ExpandVolume,
            AdminOp::Snapshot { .. } | AdminOp::DeleteSnapshot { .. } | AdminOp::Rollback { .. } => {
                ControlCommand::Snapshot
            }
            AdminOp::MaskGrant { .. } | AdminOp::MaskRevoke { .. } => ControlCommand::MaskUpdate,
        }
    }
}

/// What an accepted op produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdminOutcome {
    VolumeCreated(VolumeId),
    VolumeDeleted,
    VolumeExpanded,
    SnapshotTaken(SnapshotId),
    SnapshotDeleted { extents_freed: u64 },
    RolledBack { extents_freed: u64 },
    MaskUpdated,
}

/// Why an op was refused.
#[derive(Debug)]
pub enum AdminError {
    Auth(AuthError),
    PathDenied(SecurityViolation),
    Cluster(ClusterError),
}

impl std::fmt::Display for AdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdminError::Auth(e) => write!(f, "authentication: {e}"),
            AdminError::PathDenied(v) => write!(f, "path policy: {v}"),
            AdminError::Cluster(e) => write!(f, "execution: {e}"),
        }
    }
}

impl std::error::Error for AdminError {}

/// The fortified management plane wrapping a cluster.
pub struct ManagementPlane {
    pub auth: AuthService,
    pub mask: LunMask,
    pub audit: AuditLog,
}

impl ManagementPlane {
    pub fn new(auth: AuthService) -> ManagementPlane {
        ManagementPlane { auth, mask: LunMask::new(), audit: AuditLog::new() }
    }

    /// Execute `op` arriving on `port` under `token` at `now`.
    pub fn execute(
        &mut self,
        cluster: &mut BladeCluster,
        token: &SessionToken,
        port: usize,
        op: AdminOp,
        now: SimTime,
    ) -> Result<AdminOutcome, AdminError> {
        // Gate 1: authentication + role.
        let principal = match self.auth.authorize(token, Role::Admin, now) {
            Ok(p) => p.id,
            Err(e) => {
                self.audit.record(now, AuditEvent::LoginFailed { principal: token.principal.0 });
                return Err(AdminError::Auth(e));
            }
        };
        // Gate 2: ingress zone, then the in-band command filter.
        let path = self.mask.check_ingress(port).and_then(|()| self.mask.check_inband(port, op.command()));
        if let Err(v) = path {
            self.audit.record(now, AuditEvent::Violation(v.clone()));
            return Err(AdminError::PathDenied(v));
        }
        // Gate 3: execute + audit.
        let outcome = self.apply(cluster, &op).map_err(AdminError::Cluster)?;
        self.audit.record(
            now,
            AuditEvent::PolicyChange { actor: principal.0, description: format!("{op:?} -> {outcome:?}") },
        );
        Ok(outcome)
    }

    fn apply(&mut self, cluster: &mut BladeCluster, op: &AdminOp) -> Result<AdminOutcome, ClusterError> {
        Ok(match op {
            AdminOp::CreateVolume { group, name, tenant, bytes } => {
                AdminOutcome::VolumeCreated(cluster.create_volume_in(*group, name, *tenant, *bytes)?)
            }
            AdminOp::DeleteVolume { vol } => {
                cluster.delete_volume(*vol)?;
                AdminOutcome::VolumeDeleted
            }
            AdminOp::ExpandVolume { vol, new_bytes } => {
                cluster.expand_volume(*vol, *new_bytes)?;
                AdminOutcome::VolumeExpanded
            }
            AdminOp::Snapshot { vol } => AdminOutcome::SnapshotTaken(cluster.snapshot_volume(*vol)?),
            AdminOp::DeleteSnapshot { vol, snap } => {
                let freed = cluster.delete_snapshot(*vol, *snap)?;
                AdminOutcome::SnapshotDeleted { extents_freed: freed }
            }
            AdminOp::Rollback { vol, snap } => {
                let freed = cluster.rollback_volume(*vol, *snap)?;
                AdminOutcome::RolledBack { extents_freed: freed }
            }
            AdminOp::MaskGrant { initiator, vol } => {
                self.mask.grant(ys_security::InitiatorId(*initiator), *vol);
                AdminOutcome::MaskUpdated
            }
            AdminOp::MaskRevoke { initiator, vol } => {
                self.mask.revoke(ys_security::InitiatorId(*initiator), *vol);
                AdminOutcome::MaskUpdated
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ys_security::PortZone;

    fn setup() -> (BladeCluster, ManagementPlane, SessionToken, SessionToken) {
        let cluster = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
        let mut auth = AuthService::new(42);
        let admin = auth.register("ops", 0, Role::Admin, 1);
        let user = auth.register("pi", 1, Role::User, 2);
        let now = SimTime::ZERO;
        let ttl = 1_000_000_000_000;
        let at = {
            let r = auth.client_response(admin, 5).unwrap();
            auth.login(admin, 5, r, now, ttl).unwrap()
        };
        let ut = {
            let r = auth.client_response(user, 5).unwrap();
            auth.login(user, 5, r, now, ttl).unwrap()
        };
        let mut plane = ManagementPlane::new(auth);
        plane.mask.set_zone(0, PortZone::HostSide);
        plane.mask.set_zone(9, PortZone::Management);
        (cluster, plane, at, ut)
    }

    #[test]
    fn admin_full_lifecycle_through_the_ring() {
        let (mut cluster, mut plane, admin, _) = setup();
        let now = SimTime::ZERO;
        let created = plane
            .execute(
                &mut cluster,
                &admin,
                9,
                AdminOp::CreateVolume { group: 0, name: "v".into(), tenant: 3, bytes: 1 << 30 },
                now,
            )
            .unwrap();
        let vol = match created {
            AdminOutcome::VolumeCreated(v) => v,
            other => panic!("{other:?}"),
        };
        plane.execute(&mut cluster, &admin, 9, AdminOp::MaskGrant { initiator: 7, vol }, now).unwrap();
        assert!(plane.mask.check_access(ys_security::InitiatorId(7), vol).is_ok());
        let snap = plane.execute(&mut cluster, &admin, 9, AdminOp::Snapshot { vol }, now).unwrap();
        let snap = match snap {
            AdminOutcome::SnapshotTaken(s) => s,
            other => panic!("{other:?}"),
        };
        plane.execute(&mut cluster, &admin, 9, AdminOp::DeleteSnapshot { vol, snap }, now).unwrap();
        plane
            .execute(&mut cluster, &admin, 9, AdminOp::ExpandVolume { vol, new_bytes: 2 << 30 }, now)
            .unwrap();
        plane.execute(&mut cluster, &admin, 9, AdminOp::DeleteVolume { vol }, now).unwrap();
        // Every success was audited.
        assert_eq!(plane.audit.events().len(), 6);
        assert_eq!(plane.audit.violations().count(), 0);
    }

    #[test]
    fn users_cannot_reach_the_control_plane() {
        let (mut cluster, mut plane, _, user) = setup();
        let err = plane
            .execute(
                &mut cluster,
                &user,
                9,
                AdminOp::CreateVolume { group: 0, name: "v".into(), tenant: 1, bytes: 1 << 30 },
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, AdminError::Auth(AuthError::Forbidden)));
        assert_eq!(plane.audit.events().len(), 1, "refusal is audited");
    }

    #[test]
    fn inband_disabled_commands_are_refused_and_audited() {
        let (mut cluster, mut plane, admin, _) = setup();
        plane.mask.disable_inband(0, ControlCommand::DeleteVolume);
        let vol = match plane
            .execute(
                &mut cluster,
                &admin,
                9,
                AdminOp::CreateVolume { group: 0, name: "v".into(), tenant: 0, bytes: 1 << 30 },
                SimTime::ZERO,
            )
            .unwrap()
        {
            AdminOutcome::VolumeCreated(v) => v,
            other => panic!("{other:?}"),
        };
        // In-band on a host port: refused.
        let err = plane
            .execute(&mut cluster, &admin, 0, AdminOp::DeleteVolume { vol }, SimTime(1))
            .unwrap_err();
        assert!(matches!(err, AdminError::PathDenied(_)));
        assert_eq!(plane.audit.violations().count(), 1);
        // Out-of-band on the management port: accepted.
        plane.execute(&mut cluster, &admin, 9, AdminOp::DeleteVolume { vol }, SimTime(2)).unwrap();
    }

    #[test]
    fn unzoned_and_disk_side_ports_are_refused_as_zone_breaches() {
        let (mut cluster, mut plane, admin, _) = setup();
        plane.mask.set_zone(8, PortZone::DiskSide);
        for port in [5, 8] {
            let op = AdminOp::CreateVolume { group: 0, name: "v".into(), tenant: 0, bytes: 1 << 30 };
            let err = plane.execute(&mut cluster, &admin, port, op, SimTime::ZERO).unwrap_err();
            assert!(matches!(err, AdminError::PathDenied(SecurityViolation::ZoneBreach { port: p }) if p == port));
        }
        let breaches: Vec<_> = plane.audit.violations().map(|(_, v)| v.clone()).collect();
        assert_eq!(breaches, [SecurityViolation::ZoneBreach { port: 5 }, SecurityViolation::ZoneBreach { port: 8 }]);
        assert!(cluster.volume_ids().is_empty(), "nothing was created");
    }

    #[test]
    fn expired_tokens_are_refused() {
        let (mut cluster, mut plane, admin, _) = setup();
        let much_later = SimTime(u64::MAX / 2);
        let err = plane
            .execute(&mut cluster, &admin, 9, AdminOp::Snapshot { vol: VolumeId(0) }, much_later)
            .unwrap_err();
        assert!(matches!(err, AdminError::Auth(AuthError::TokenExpired)));
    }
}
