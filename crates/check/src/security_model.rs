//! Model-checker harness for the security pillar — the *real*
//! [`ys_security::LunMask`] (masking + zoning) and the real CTR cipher,
//! driven through every interleaving of grants, revocations, port
//! re-zoning, data-path accesses, and cross-site frame shipping over a
//! small scope, audited against a shadow ACL after each step:
//!
//! * an access the shadow says is revoked (or arriving on a port the
//!   shadow says is not host-zoned) **never** succeeds — no post-revoke
//!   read, no fail-open path through an unzoned port;
//! * an access the shadow says is authorized never bounces (no spurious
//!   denials — availability is part of the contract);
//! * every denial is audited, exactly once, deterministically;
//! * a frame crossing a site boundary is ciphertext on the wire —
//!   never byte-equal to its plaintext — and deciphers back identically
//!   on arrival (the §5.1 in-transit guarantee, with the fixed
//!   nonce-in-key-derivation keystream).

use crate::explore::{violations_header, Counterexample, Model};
use crate::summary::StandardModel;
use crate::hash::StateHasher;
use ys_security::{ctr_xor, AuditEvent, AuditLog, InitiatorId, Key, LunMask, PortZone};
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

/// One operation in the bounded security scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SecurityOp {
    /// Expose `volume` to `initiator`.
    Grant { initiator: u32, volume: u32 },
    /// Revoke that visibility.
    Revoke { initiator: u32, volume: u32 },
    /// Data-path read attempt via fabric port `port`.
    Read { initiator: u32, volume: u32, port: usize },
    /// Data-path write attempt via fabric port `port`.
    Write { initiator: u32, volume: u32, port: usize },
    /// Operator re-zones a fabric port.
    Zone { port: usize, zone: PortZone },
    /// A frame carrying `volume`'s bytes crosses a site boundary.
    Ship { volume: u32 },
}

const INITIATORS: u32 = 2;
const VOLUMES: u32 = 2;
const PORTS: usize = 2;

const ZONES: [PortZone; 3] = [PortZone::HostSide, PortZone::DiskSide, PortZone::Management];

/// The real mask plus the shadow it is checked against.
#[derive(Clone)]
pub struct SecurityModel {
    mask: LunMask,
    audit: AuditLog,
    /// Shadow ACL: `acl[initiator][volume]`.
    acl: Vec<Vec<bool>>,
    /// Shadow zone table (`None` = never zoned).
    zones: Vec<Option<PortZone>>,
    /// Denials the shadow predicted; must equal the audited violations.
    expected_denials: u64,
    /// Wire-frame nonce (monotone; excluded from the canonical hash, like
    /// the integrity model's clock — the cipher checks hold for any nonce).
    wire_seq: u64,
    wire_key: Key,
}

impl Default for SecurityModel {
    fn default() -> SecurityModel {
        SecurityModel {
            mask: LunMask::new(),
            audit: AuditLog::new(),
            acl: vec![vec![false; VOLUMES as usize]; INITIATORS as usize],
            zones: vec![None; PORTS],
            expected_denials: 0,
            wire_seq: 0,
            wire_key: Key::from_seed(0x5EC0_DE5E_C0DE_5EC0),
        }
    }
}

impl SecurityModel {
    /// Whether the shadow authorizes `(initiator, volume)` via `port`:
    /// the ACL bit is set AND the port is explicitly host-zoned (the
    /// management zone is the out-of-band path, also admitted).
    fn shadow_allows(&self, initiator: u32, volume: u32, port: usize) -> bool {
        let acl = self.acl[initiator as usize][volume as usize];
        let zoned = matches!(self.zones[port], Some(PortZone::HostSide) | Some(PortZone::Management));
        acl && zoned
    }

    /// The real enforcement pipeline the block target runs: the mask's
    /// ingress gate ([`LunMask::check_ingress`]) first, then the LUN mask;
    /// denials audited.
    fn real_access(&mut self, initiator: u32, volume: u32, port: usize) -> bool {
        let gate = self
            .mask
            .check_ingress(port)
            .and_then(|()| self.mask.check_access(InitiatorId(initiator), VolumeId(volume)));
        match gate {
            Ok(()) => true,
            Err(v) => {
                self.audit.record(SimTime(self.wire_seq), AuditEvent::Violation(v));
                false
            }
        }
    }

    fn access(&mut self, what: &str, initiator: u32, volume: u32, port: usize, out: &mut Vec<String>) {
        let expected = self.shadow_allows(initiator, volume, port);
        let actual = self.real_access(initiator, volume, port);
        if actual && !expected {
            out.push(format!(
                "{what} i{initiator} -> v{volume} via port {port} SUCCEEDED though shadow revoked/unzoned it"
            ));
        }
        if !actual && expected {
            out.push(format!(
                "{what} i{initiator} -> v{volume} via port {port} DENIED though shadow authorizes it"
            ));
        }
        if !actual {
            self.expected_denials += 1;
        }
    }

    /// Cross-check the real mask against the shadow.
    fn audit_state(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for i in 0..INITIATORS {
            for v in 0..VOLUMES {
                let real = self.mask.check_access(InitiatorId(i), VolumeId(v)).is_ok();
                let shadow = self.acl[i as usize][v as usize];
                if real != shadow {
                    violations.push(format!("mask says i{i}->v{v}={real}, shadow ACL says {shadow}"));
                }
            }
        }
        for (p, &z) in self.zones.iter().enumerate() {
            if self.mask.zone(p) != z {
                violations.push(format!("port {p}: mask zone {:?} != shadow {z:?}", self.mask.zone(p)));
            }
            // Fail-closed invariant: the disk fabric is reachable from a
            // port iff it is explicitly disk-side or management zoned.
            let reaches = self.mask.check_zone_path(p, PortZone::DiskSide).is_ok();
            let should = matches!(z, Some(PortZone::DiskSide) | Some(PortZone::Management));
            if reaches != should {
                violations.push(format!(
                    "port {p}: disk-fabric reachability {reaches} != fail-closed expectation {should}"
                ));
            }
        }
        let audited = self.audit.violations().count() as u64;
        if audited != self.expected_denials {
            violations.push(format!(
                "audited violations {audited} != shadow-predicted denials {}",
                self.expected_denials
            ));
        }
        violations
    }
}

impl Model for SecurityModel {
    type Op = SecurityOp;

    fn enumerate_ops(&self) -> Vec<SecurityOp> {
        let mut ops = Vec::new();
        for i in 0..INITIATORS {
            for v in 0..VOLUMES {
                if self.acl[i as usize][v as usize] {
                    ops.push(SecurityOp::Revoke { initiator: i, volume: v });
                } else {
                    ops.push(SecurityOp::Grant { initiator: i, volume: v });
                }
                for p in 0..PORTS {
                    ops.push(SecurityOp::Read { initiator: i, volume: v, port: p });
                    ops.push(SecurityOp::Write { initiator: i, volume: v, port: p });
                }
            }
        }
        for p in 0..PORTS {
            for z in ZONES {
                if self.zones[p] != Some(z) {
                    ops.push(SecurityOp::Zone { port: p, zone: z });
                }
            }
        }
        for v in 0..VOLUMES {
            ops.push(SecurityOp::Ship { volume: v });
        }
        ops
    }

    fn apply(&mut self, op: SecurityOp) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            SecurityOp::Grant { initiator, volume } => {
                self.mask.grant(InitiatorId(initiator), VolumeId(volume));
                self.acl[initiator as usize][volume as usize] = true;
            }
            SecurityOp::Revoke { initiator, volume } => {
                self.mask.revoke(InitiatorId(initiator), VolumeId(volume));
                self.acl[initiator as usize][volume as usize] = false;
            }
            SecurityOp::Read { initiator, volume, port } => {
                self.access("read", initiator, volume, port, &mut violations);
            }
            SecurityOp::Write { initiator, volume, port } => {
                self.access("write", initiator, volume, port, &mut violations);
            }
            SecurityOp::Zone { port, zone } => {
                self.mask.set_zone(port, zone);
                self.zones[port] = Some(zone);
            }
            SecurityOp::Ship { volume } => {
                // The §5.1 wire stage with the real cipher: the link only
                // ever carries `frame`, which must not equal the plaintext
                // and must round-trip byte-identical at the far end.
                self.wire_seq += 1;
                let mut plain = [0u8; 16];
                plain[..4].copy_from_slice(&volume.to_be_bytes());
                plain[4..12].copy_from_slice(&self.wire_seq.to_be_bytes());
                plain[12..].copy_from_slice(b"ship");
                let mut frame = plain;
                ctr_xor(&self.wire_key, self.wire_seq, 0, &mut frame);
                if frame == plain {
                    violations.push(format!(
                        "v{volume} frame {} crossed the site boundary as plaintext",
                        self.wire_seq
                    ));
                }
                let mut received = frame;
                ctr_xor(&self.wire_key, self.wire_seq, 0, &mut received);
                if received != plain {
                    violations.push(format!(
                        "v{volume} frame {} failed to decipher byte-identical on arrival",
                        self.wire_seq
                    ));
                }
            }
        }
        violations.extend(self.audit_state());
        violations
    }

    fn canonical_hash(&self) -> u128 {
        // Excludes the wire nonce and denial counters: authorization
        // outcomes depend only on the ACL and the zone table, so states
        // equal modulo history explore identically.
        let mut h = StateHasher::new();
        for row in &self.acl {
            for &bit in row {
                h.write_bool(bit);
            }
            h.boundary();
        }
        for z in &self.zones {
            h.write_u64(match z {
                None => 0,
                Some(PortZone::HostSide) => 1,
                Some(PortZone::DiskSide) => 2,
                Some(PortZone::Management) => 3,
            });
        }
        h.finish()
    }
}

impl StandardModel for SecurityModel {
    fn describe(&self, depth: usize) -> String {
        format!("security model, {INITIATORS} initiators × {VOLUMES} volumes × {PORTS} ports, depth {depth}")
    }

    fn render_counterexample(&self, cx: &Counterexample<SecurityOp>) -> String {
        render_security_trace(&cx.trace, &cx.violations)
    }
}

/// Render a security counterexample trace as a ready-to-paste
/// regression test.
fn render_security_trace(trace: &[SecurityOp], violations: &[String]) -> String {
    let mut out = violations_header(violations);
    out.push_str("let mut m = SecurityModel::default();\n");
    for op in trace {
        out.push_str(&format!("assert!(m.apply(SecurityOp::{op:?}).is_empty());\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn initial_state_is_clean() {
        let m = SecurityModel::default();
        assert_eq!(m.audit_state(), Vec::<String>::new());
    }

    #[test]
    fn post_revoke_access_is_denied_and_audited() {
        let mut m = SecurityModel::default();
        assert!(m.apply(SecurityOp::Zone { port: 0, zone: PortZone::HostSide }).is_empty());
        assert!(m.apply(SecurityOp::Grant { initiator: 0, volume: 0 }).is_empty());
        assert!(m.apply(SecurityOp::Read { initiator: 0, volume: 0, port: 0 }).is_empty());
        assert!(m.apply(SecurityOp::Revoke { initiator: 0, volume: 0 }).is_empty());
        // The model itself asserts the denial happens; a success here
        // would surface as a violation string.
        assert!(m.apply(SecurityOp::Read { initiator: 0, volume: 0, port: 0 }).is_empty());
        assert_eq!(m.audit.violations().count(), 1);
    }

    #[test]
    fn unzoned_port_access_is_a_breach_even_when_granted() {
        let mut m = SecurityModel::default();
        assert!(m.apply(SecurityOp::Grant { initiator: 1, volume: 1 }).is_empty());
        // Port 1 was never zoned: fail closed, audited.
        assert!(m.apply(SecurityOp::Write { initiator: 1, volume: 1, port: 1 }).is_empty());
        assert_eq!(m.audit.violations().count(), 1);
    }

    #[test]
    fn shipped_frames_are_never_plaintext() {
        let mut m = SecurityModel::default();
        for _ in 0..8 {
            assert!(m.apply(SecurityOp::Ship { volume: 0 }).is_empty());
        }
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let result = explore_timed(
            SecurityModel::default(),
            Limits { max_depth: 4, max_states: 200_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_security_trace(&cx.trace, &cx.violations));
        }
        assert!(result.states_visited > 50);
    }
}
