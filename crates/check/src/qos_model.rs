//! Model-checker harness for [`ys_qos::AdmissionController`] — the
//! multi-tenant admission state machine.
//!
//! The scope drives the *real* controller through every interleaving of
//! requests, completions, clock advances, and backpressure flips, auditing
//! after each step:
//!
//! * token balances never exceed burst (never-negative is structural —
//!   tokens are unsigned and the bucket refuses rather than borrows);
//! * no tenant's in-flight count exceeds its cap;
//! * the admission ledger always balances (`admitted + shed == requests`,
//!   shed reasons sum, `throttled <= admitted`);
//! * all ledger counters are monotone — a shed is never un-shed;
//! * an admitted request never starts in the caller's past.

use crate::explore::{violations_header, Counterexample, Model};
use crate::summary::StandardModel;
use crate::hash::StateHasher;
use std::collections::VecDeque;
use ys_qos::{AdmissionController, Decision, Pressure, QosClass, QosConfig, TenantQosStats, TenantSpec};
use ys_simcore::time::{SimDuration, SimTime};

/// One operation in the bounded QoS scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QosOp {
    /// Advance the virtual clock one quantum.
    Advance,
    /// One request from `tenant`: the scope's request size, doubled when
    /// `large` (so token balances explore more than one arithmetic path).
    Request { tenant: u32, large: bool },
    /// Complete the oldest outstanding admitted request of `tenant`.
    Complete { tenant: u32 },
    /// Flip cluster backpressure (high dirty ratio + rebuild) on or off.
    Pressure { on: bool },
}

/// Exploration bounds for the QoS model.
#[derive(Clone, Copy, Debug)]
pub struct QosScope {
    /// Clock quantum per `Advance`, nanoseconds.
    pub quantum_ns: u64,
    /// Service time of an admitted request, nanoseconds.
    pub service_ns: u64,
    /// Bytes per request.
    pub req_bytes: u64,
}

impl QosScope {
    pub fn small() -> QosScope {
        QosScope { quantum_ns: 1_000_000, service_ns: 400_000, req_bytes: 64 * 1024 }
    }
}

const PREMIUM: u32 = 1;
const SCAVENGER: u32 = 2;

fn policy(scope: QosScope) -> QosConfig {
    QosConfig::new()
        .with_tenant(TenantSpec::new(PREMIUM, "premium", QosClass::Premium).inflight_cap(2))
        .with_tenant(
            TenantSpec::new(SCAVENGER, "scavenger", QosClass::Scavenger)
                .rate_mb_per_sec(32)
                .burst_bytes(scope.req_bytes * 2)
                .inflight_cap(2),
        )
        .with_max_delay(SimDuration::from_millis(2))
}

/// The real controller plus the shadow the invariants are checked against.
#[derive(Clone)]
pub struct QosModel {
    scope: QosScope,
    ctl: AdmissionController,
    clock: SimTime,
    /// Outstanding admitted requests per tenant: (start, bytes), FIFO.
    pending: Vec<(u32, VecDeque<(SimTime, u64)>)>,
    /// Last observed ledger per tenant, for monotonicity.
    prev: Vec<(u32, TenantQosStats)>,
}

impl QosModel {
    pub fn new(scope: QosScope) -> QosModel {
        QosModel {
            scope,
            ctl: AdmissionController::new(policy(scope)),
            clock: SimTime::ZERO,
            pending: vec![(PREMIUM, VecDeque::new()), (SCAVENGER, VecDeque::new())],
            prev: vec![(PREMIUM, TenantQosStats::default()), (SCAVENGER, TenantQosStats::default())],
        }
    }

    fn queue_mut(&mut self, tenant: u32) -> &mut VecDeque<(SimTime, u64)> {
        &mut self.pending.iter_mut().find(|(t, _)| *t == tenant).expect("tenant in scope").1
    }

    /// Controller self-audit plus the shadow monotonicity checks.
    fn audit(&mut self) -> Vec<String> {
        let mut violations = self.ctl.audit();
        for (tenant, prev) in &mut self.prev {
            let cur = self.ctl.stats(*tenant).expect("tenant in scope");
            for (name, before, after) in [
                ("requests", prev.requests, cur.requests),
                ("admitted", prev.admitted, cur.admitted),
                ("shed", prev.shed, cur.shed),
                ("shed_rate", prev.shed_rate, cur.shed_rate),
                ("shed_inflight", prev.shed_inflight, cur.shed_inflight),
                ("shed_pressure", prev.shed_pressure, cur.shed_pressure),
                ("throttled", prev.throttled, cur.throttled),
                ("bytes_admitted", prev.bytes_admitted, cur.bytes_admitted),
                ("bytes_shed", prev.bytes_shed, cur.bytes_shed),
            ] {
                if after < before {
                    violations
                        .push(format!("tenant {tenant}: {name} went backwards ({before} -> {after})"));
                }
            }
            *prev = cur;
        }
        violations
    }
}

impl Model for QosModel {
    type Op = QosOp;

    fn enumerate_ops(&self) -> Vec<QosOp> {
        let mut ops = vec![QosOp::Advance];
        for &(tenant, ref queue) in &self.pending {
            ops.push(QosOp::Request { tenant, large: false });
            ops.push(QosOp::Request { tenant, large: true });
            if !queue.is_empty() {
                ops.push(QosOp::Complete { tenant });
            }
        }
        let on = self.ctl.under_pressure();
        ops.push(QosOp::Pressure { on: !on });
        ops
    }

    fn apply(&mut self, op: QosOp) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            QosOp::Advance => self.clock += SimDuration::from_nanos(self.scope.quantum_ns),
            QosOp::Pressure { on } => self.ctl.set_pressure(if on {
                Pressure { dirty_ratio: 0.9, rebuild_active: true }
            } else {
                Pressure::default()
            }),
            QosOp::Request { tenant, large } => {
                let bytes = if large { self.scope.req_bytes * 2 } else { self.scope.req_bytes };
                match self.ctl.admit(self.clock, tenant, bytes) {
                    Decision::Admit { start } => {
                        if start < self.clock {
                            violations.push(format!(
                                "tenant {tenant}: admitted to start at {start:?}, before now {:?}",
                                self.clock
                            ));
                        }
                        self.queue_mut(tenant).push_back((start, bytes));
                    }
                    Decision::Shed { .. } => {}
                }
            }
            QosOp::Complete { tenant } => {
                if let Some((start, bytes)) = self.queue_mut(tenant).pop_front() {
                    let done = start.max(self.clock) + SimDuration::from_nanos(self.scope.service_ns);
                    self.ctl.complete(tenant, start, done, bytes);
                }
            }
        }
        violations.extend(self.audit());
        violations
    }

    fn canonical_hash(&self) -> u128 {
        let mut h = StateHasher::new();
        h.write_u64(self.clock.0);
        h.write_bool(self.ctl.under_pressure());
        h.boundary();
        for &(tenant, ref queue) in &self.pending {
            h.write_u64(u64::from(tenant));
            h.write_u64(self.ctl.tokens(tenant).unwrap_or(0));
            let s = self.ctl.stats(tenant).expect("tenant in scope");
            for v in [
                s.requests,
                s.admitted,
                s.shed,
                s.shed_rate,
                s.shed_inflight,
                s.shed_pressure,
                s.throttled,
            ] {
                h.write_u64(v);
            }
            h.boundary();
            for &(start, bytes) in queue {
                h.write_u64(start.0);
                h.write_u64(bytes);
            }
            h.boundary();
        }
        h.finish()
    }
}

impl StandardModel for QosModel {
    fn describe(&self, depth: usize) -> String {
        format!("QoS admission model, 2 tenants, quantum {} us, depth {depth}", self.scope.quantum_ns / 1000)
    }

    fn render_counterexample(&self, cx: &Counterexample<QosOp>) -> String {
        render_qos_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render a QoS counterexample trace as a ready-to-paste regression test.
fn render_qos_trace(trace: &[QosOp], scope: QosScope, violations: &[String]) -> String {
    let mut out = violations_header(violations);
    out.push_str(&format!(
        "let mut m = QosModel::new(QosScope {{ quantum_ns: {}, service_ns: {}, req_bytes: {} }});\n",
        scope.quantum_ns, scope.service_ns, scope.req_bytes
    ));
    for op in trace {
        out.push_str(&format!("assert!(m.apply({op:?}).is_empty());\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn initial_state_is_clean() {
        let mut m = QosModel::new(QosScope::small());
        assert_eq!(m.audit(), Vec::<String>::new());
    }

    #[test]
    fn request_complete_cycle_keeps_the_ledger() {
        let mut m = QosModel::new(QosScope::small());
        assert!(m.apply(QosOp::Request { tenant: PREMIUM, large: false }).is_empty());
        assert!(m.apply(QosOp::Request { tenant: SCAVENGER, large: true }).is_empty());
        assert!(m.apply(QosOp::Advance).is_empty());
        assert!(m.apply(QosOp::Complete { tenant: PREMIUM }).is_empty());
        assert!(m.apply(QosOp::Complete { tenant: SCAVENGER }).is_empty());
    }

    #[test]
    fn overdrive_sheds_but_never_breaks_invariants() {
        let mut m = QosModel::new(QosScope::small());
        for _ in 0..8 {
            assert!(m.apply(QosOp::Request { tenant: SCAVENGER, large: true }).is_empty());
        }
        let s = m.ctl.stats(SCAVENGER).expect("stats");
        assert!(s.shed > 0, "overdriven scavenger must shed: {s:?}");
    }

    #[test]
    fn pressure_sheds_scavenger_not_premium() {
        let mut m = QosModel::new(QosScope::small());
        assert!(m.apply(QosOp::Pressure { on: true }).is_empty());
        assert!(m.apply(QosOp::Request { tenant: SCAVENGER, large: true }).is_empty());
        assert!(m.apply(QosOp::Request { tenant: PREMIUM, large: false }).is_empty());
        let scav = m.ctl.stats(SCAVENGER).expect("stats");
        let prem = m.ctl.stats(PREMIUM).expect("stats");
        assert_eq!(scav.shed_pressure, 1);
        assert_eq!(prem.admitted, 1);
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = QosScope::small();
        let result = explore_timed(
            QosModel::new(scope),
            Limits { max_depth: 5, max_states: 100_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_qos_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 50);
    }
}
