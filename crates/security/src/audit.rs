//! Security audit log: failed logins, enforcement violations and policy
//! changes are recorded with their simulated timestamps, for the
//! management plane (§5.2's "redundant storage management servers ... for
//! a central management staff").

use crate::lun::SecurityViolation;
use ys_simcore::time::SimTime;

#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditEvent {
    LoginFailed { principal: u32 },
    Violation(SecurityViolation),
    PolicyChange { actor: u32, description: String },
}

#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    entries: Vec<(SimTime, AuditEvent)>,
}

impl AuditLog {
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    pub fn record(&mut self, at: SimTime, event: AuditEvent) {
        self.entries.push((at, event));
    }

    /// Every entry, in the order recorded.
    pub fn events(&self) -> &[(SimTime, AuditEvent)] {
        &self.entries
    }

    pub fn violations(&self) -> impl Iterator<Item = (&SimTime, &SecurityViolation)> {
        self.entries.iter().filter_map(|(t, e)| match e {
            AuditEvent::Violation(v) => Some((t, v)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lun::{InitiatorId, SecurityViolation};
    use ys_virt::VolumeId;

    #[test]
    fn records_and_filters_violations() {
        let mut log = AuditLog::new();
        log.record(SimTime(1), AuditEvent::PolicyChange { actor: 1, description: "mask grant".into() });
        log.record(
            SimTime(2),
            AuditEvent::Violation(SecurityViolation::MaskDenied {
                initiator: InitiatorId(9),
                volume: VolumeId(4),
            }),
        );
        log.record(SimTime(3), AuditEvent::LoginFailed { principal: 2 });
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.violations().count(), 1);
    }
}
