//! The admission-control state machine.
//!
//! Every tenant request passes through [`AdmissionController::admit`]
//! before touching the data path. The decision is one of:
//!
//! * **Admit now** — tokens available, under the in-flight cap;
//! * **Admit delayed** (throttled) — the token bucket funds the request
//!   at a later instant within `max_delay`; the request starts then;
//! * **Shed** — over the in-flight cap, the token wait exceeds
//!   `max_delay`, or backpressure is asserted against a scavenger.
//!
//! Backpressure ([`Pressure`]) is keyed off the cache dirty ratio (above
//! `DIRTY_SHED_RATIO`) and RAID-rebuild activity: while either is hot,
//! scavenger tenants are shed outright and standard tenants pay
//! `PRESSURE_DELAY`; premium traffic is untouched. Completions feed
//! per-tenant SLO tracking (latency histogram + throughput meter, see
//! [`crate::slo`]).
//!
//! Invariants (model-checked by `ys-check`): token balances stay within
//! `0..=burst`, every shed/admit counter is monotone, and the number of
//! in-flight admitted requests never exceeds the tenant's cap.

use std::collections::BinaryHeap;
use std::cmp::Reverse;

use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::{SimDuration, SimTime};

use crate::bucket::TokenBucket;
use crate::config::{QosClass, QosConfig, TenantSpec};
use crate::slo::SloStatus;

/// Cache dirty ratio above which backpressure is asserted.
pub(crate) const DIRTY_SHED_RATIO: f64 = 0.75;

/// Extra delay applied to `Standard` tenants while backpressure (dirty
/// cache or active rebuild) is asserted.
pub(crate) const PRESSURE_DELAY: SimDuration = SimDuration::from_millis(2);

/// Why a request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant is at its in-flight cap.
    InflightCap,
    /// Funding the request would exceed `max_delay`.
    RateLimit,
    /// Backpressure (dirty cache / rebuild) against a low class.
    Pressure,
}

/// Outcome of admission control for one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Proceed, starting at `start` (`start > now` ⇒ the request was
    /// throttled and queued for `start − now`).
    Admit { start: SimTime },
    Shed { reason: ShedReason },
}

/// Cluster backpressure signals sampled from the data path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pressure {
    /// Fraction of pooled cache pages holding dirty data or replicas.
    pub dirty_ratio: f64,
    /// A RAID rebuild (or geo resync) is in flight.
    pub rebuild_active: bool,
}

/// Monotone per-tenant admission counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQosStats {
    pub requests: u64,
    pub admitted: u64,
    /// Admitted, but with a delayed start (token wait or pressure delay).
    pub throttled: u64,
    pub shed: u64,
    pub shed_rate: u64,
    pub shed_inflight: u64,
    pub shed_pressure: u64,
    pub bytes_admitted: u64,
    pub bytes_shed: u64,
    /// Total queueing delay imposed on throttled requests, nanoseconds.
    pub queued_ns: u64,
}

#[derive(Clone, Debug)]
struct TenantState {
    spec: TenantSpec,
    bucket: TokenBucket,
    /// Admitted requests whose completion instant is not yet known.
    open: u32,
    /// Known completion instants of admitted requests, min-first.
    completions: BinaryHeap<Reverse<u64>>,
    stats: TenantQosStats,
    latency: LatencyHisto,
    meter: RateMeter,
}

impl TenantState {
    fn new(spec: TenantSpec) -> TenantState {
        let bucket = TokenBucket::new(spec.rate_bytes_per_sec, spec.burst_bytes);
        TenantState {
            spec,
            bucket,
            open: 0,
            completions: BinaryHeap::new(),
            stats: TenantQosStats::default(),
            latency: LatencyHisto::new(),
            meter: RateMeter::new(),
        }
    }

    /// In-flight admitted requests as of `now`.
    fn inflight(&mut self, now: SimTime) -> u32 {
        while let Some(&Reverse(done)) = self.completions.peek() {
            if done <= now.nanos() {
                self.completions.pop();
            } else {
                break;
            }
        }
        self.open
            + u32::try_from(self.completions.len()).unwrap_or(u32::MAX) // saturating fallback
    }
}

/// Per-tenant admission control, throttling, and SLO accounting.
#[derive(Clone, Debug)]
pub struct AdmissionController {
    cfg: QosConfig,
    tenants: Vec<TenantState>,
    pressure: Pressure,
}

impl AdmissionController {
    pub fn new(cfg: QosConfig) -> AdmissionController {
        let tenants = cfg.tenants.iter().cloned().map(TenantState::new).collect();
        AdmissionController { cfg, tenants, pressure: Pressure::default() }
    }

    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    pub fn cfg(&self) -> &QosConfig {
        &self.cfg
    }

    /// Update the backpressure signals (sampled before each admission).
    pub fn set_pressure(&mut self, p: Pressure) {
        self.pressure = p;
    }

    /// True while either backpressure signal is asserted.
    pub fn under_pressure(&self) -> bool {
        self.pressure.rebuild_active || self.pressure.dirty_ratio > DIRTY_SHED_RATIO
    }

    fn state_mut(&mut self, tenant: u32) -> Option<&mut TenantState> {
        self.tenants.iter_mut().find(|t| t.spec.id == tenant)
    }

    fn state(&self, tenant: u32) -> Option<&TenantState> {
        self.tenants.iter().find(|t| t.spec.id == tenant)
    }

    /// Decide one request of `bytes` for `tenant` arriving at `now`.
    ///
    /// Unknown tenants (not in the table) and disabled controllers admit
    /// unconditionally with no accounting.
    pub fn admit(&mut self, now: SimTime, tenant: u32, bytes: u64) -> Decision {
        if !self.cfg.enabled {
            return Decision::Admit { start: now };
        }
        let pressure = self.under_pressure();
        let max_delay = self.cfg.max_delay;
        let Some(st) = self.state_mut(tenant) else {
            return Decision::Admit { start: now };
        };
        st.stats.requests += 1;
        if st.inflight(now) >= st.spec.inflight_cap {
            st.stats.shed += 1;
            st.stats.shed_inflight += 1;
            st.stats.bytes_shed += bytes;
            return Decision::Shed { reason: ShedReason::InflightCap };
        }
        if pressure && st.spec.class == QosClass::Scavenger {
            st.stats.shed += 1;
            st.stats.shed_pressure += 1;
            st.stats.bytes_shed += bytes;
            return Decision::Shed { reason: ShedReason::Pressure };
        }
        let ready = st.bucket.ready_at(now, bytes);
        if ready.since(now) > max_delay {
            st.stats.shed += 1;
            st.stats.shed_rate += 1;
            st.stats.bytes_shed += bytes;
            return Decision::Shed { reason: ShedReason::RateLimit };
        }
        let funded = st.bucket.take(ready, bytes);
        debug_assert!(funded, "ready_at must fund take");
        let mut start = ready;
        if pressure && st.spec.class == QosClass::Standard {
            start += PRESSURE_DELAY;
        }
        st.open += 1;
        st.stats.admitted += 1;
        st.stats.bytes_admitted += bytes;
        if start > now {
            st.stats.throttled += 1;
            st.stats.queued_ns += start.since(now).nanos();
        }
        Decision::Admit { start }
    }

    /// Record the completion of an admitted request: releases its
    /// in-flight slot at `done` and feeds the tenant's SLO tracking with
    /// the request's end-to-end latency (measured from `issued`).
    pub fn complete(&mut self, tenant: u32, issued: SimTime, done: SimTime, bytes: u64) {
        if !self.cfg.enabled {
            return;
        }
        let Some(st) = self.state_mut(tenant) else {
            return;
        };
        if st.open == 0 {
            return;
        }
        st.open -= 1;
        st.completions.push(Reverse(done.nanos()));
        st.latency.record(done.since(issued));
        st.meter.record(done, bytes);
    }

    pub fn stats(&self, tenant: u32) -> Option<TenantQosStats> {
        self.state(tenant).map(|t| t.stats)
    }

    pub fn latency(&self, tenant: u32) -> Option<&LatencyHisto> {
        self.state(tenant).map(|t| &t.latency)
    }

    /// Remaining token balance, for introspection and model checking.
    pub fn tokens(&self, tenant: u32) -> Option<u64> {
        self.state(tenant).map(|t| t.bucket.tokens())
    }

    /// In-flight admitted requests for `tenant` as of `now`.
    pub fn inflight(&mut self, now: SimTime, tenant: u32) -> u32 {
        self.state_mut(tenant).map(|t| t.inflight(now)).unwrap_or(0)
    }

    /// SLO snapshots for every configured tenant, in id order.
    pub fn slo_report(&self) -> Vec<SloStatus> {
        self.tenants
            .iter()
            .map(|st| SloStatus::evaluate(&st.spec, &st.latency, &st.meter, st.stats))
            .collect()
    }

    /// Audit the controller's invariants; returns violations (empty = ok).
    pub fn audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        for st in &self.tenants {
            let id = st.spec.id;
            if st.bucket.tokens() > st.bucket.burst() {
                out.push(format!("tenant {id}: tokens {} exceed burst {}", st.bucket.tokens(), st.bucket.burst()));
            }
            let inflight = st.open as usize + st.completions.len();
            if inflight > st.spec.inflight_cap as usize {
                out.push(format!("tenant {id}: in-flight {inflight} exceeds cap {}", st.spec.inflight_cap));
            }
            let s = st.stats;
            if s.admitted + s.shed != s.requests {
                out.push(format!("tenant {id}: admitted {} + shed {} != requests {}", s.admitted, s.shed, s.requests));
            }
            if s.shed_rate + s.shed_inflight + s.shed_pressure != s.shed {
                out.push(format!("tenant {id}: shed breakdown does not sum to {}", s.shed));
            }
            if s.throttled > s.admitted {
                out.push(format!("tenant {id}: throttled {} exceeds admitted {}", s.throttled, s.admitted));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> QosConfig {
        QosConfig::new()
            .with_max_delay(SimDuration::from_millis(10))
            .with_tenant(TenantSpec::new(1, "prem", QosClass::Premium).inflight_cap(2))
            .with_tenant(TenantSpec::new(2, "std", QosClass::Standard).rate_mb_per_sec(1).burst_bytes(64 * 1024))
            .with_tenant(TenantSpec::new(3, "scav", QosClass::Scavenger))
    }

    #[test]
    fn disabled_controller_admits_everything() {
        let mut ac = AdmissionController::new(QosConfig::disabled());
        let d = ac.admit(SimTime(5), 999, u64::MAX);
        assert_eq!(d, Decision::Admit { start: SimTime(5) });
        assert!(ac.audit().is_empty());
    }

    #[test]
    fn unknown_tenant_bypasses() {
        let mut ac = AdmissionController::new(cfg());
        assert_eq!(ac.admit(SimTime::ZERO, 42, 1 << 30), Decision::Admit { start: SimTime::ZERO });
        assert_eq!(ac.stats(42), None);
    }

    #[test]
    fn token_exhaustion_throttles_then_sheds() {
        let mut ac = AdmissionController::new(cfg());
        // Burst 64 KiB at 1 MB/s. First 64 KiB free, next delayed, then shed.
        assert_eq!(ac.admit(SimTime::ZERO, 2, 64 * 1024), Decision::Admit { start: SimTime::ZERO });
        match ac.admit(SimTime::ZERO, 2, 8 * 1024) {
            Decision::Admit { start } => assert!(start > SimTime::ZERO, "second burst must wait"),
            d => panic!("expected throttled admit, got {d:?}"),
        }
        // 64 KiB more would need ~65 ms > 10 ms max_delay.
        assert_eq!(
            ac.admit(SimTime::ZERO, 2, 64 * 1024),
            Decision::Shed { reason: ShedReason::RateLimit }
        );
        let s = ac.stats(2).unwrap();
        assert_eq!((s.requests, s.admitted, s.throttled, s.shed, s.shed_rate), (3, 2, 1, 1, 1));
        assert!(s.queued_ns > 0);
        assert!(ac.audit().is_empty());
    }

    #[test]
    fn inflight_cap_sheds_until_completion_passes() {
        let mut ac = AdmissionController::new(cfg());
        let t0 = SimTime::ZERO;
        for _ in 0..2 {
            assert!(matches!(ac.admit(t0, 1, 4096), Decision::Admit { .. }));
        }
        assert_eq!(ac.admit(t0, 1, 4096), Decision::Shed { reason: ShedReason::InflightCap });
        // Both complete at t=1ms; a request at 2ms is admitted again.
        ac.complete(1, t0, SimTime(1_000_000), 4096);
        ac.complete(1, t0, SimTime(1_000_000), 4096);
        assert_eq!(ac.inflight(SimTime(2_000_000), 1), 0);
        assert!(matches!(ac.admit(SimTime(2_000_000), 1, 4096), Decision::Admit { .. }));
        assert!(ac.audit().is_empty());
    }

    #[test]
    fn pressure_sheds_scavenger_delays_standard_spares_premium() {
        let mut ac = AdmissionController::new(cfg());
        ac.set_pressure(Pressure { dirty_ratio: 0.9, rebuild_active: false });
        assert!(ac.under_pressure());
        assert_eq!(ac.admit(SimTime::ZERO, 3, 4096), Decision::Shed { reason: ShedReason::Pressure });
        match ac.admit(SimTime::ZERO, 2, 4096) {
            Decision::Admit { start } => {
                assert_eq!(start, SimTime::ZERO + PRESSURE_DELAY, "standard pays the pressure delay")
            }
            d => panic!("{d:?}"),
        }
        assert_eq!(ac.admit(SimTime::ZERO, 1, 4096), Decision::Admit { start: SimTime::ZERO });
        ac.set_pressure(Pressure { dirty_ratio: 0.1, rebuild_active: true });
        assert!(ac.under_pressure(), "rebuild alone asserts pressure");
        ac.set_pressure(Pressure::default());
        assert!(!ac.under_pressure());
        assert!(matches!(ac.admit(SimTime(1), 3, 4096), Decision::Admit { .. }));
        assert!(ac.audit().is_empty());
    }

    #[test]
    fn the_dirty_threshold_itself_is_not_pressure() {
        let mut ac = AdmissionController::new(cfg());
        ac.set_pressure(Pressure { dirty_ratio: DIRTY_SHED_RATIO, rebuild_active: false });
        assert!(!ac.under_pressure(), "the threshold is strict");
        assert_eq!(ac.admit(SimTime::ZERO, 3, 4096), Decision::Admit { start: SimTime::ZERO });
        ac.set_pressure(Pressure { dirty_ratio: DIRTY_SHED_RATIO + f64::EPSILON, rebuild_active: false });
        assert!(ac.under_pressure());
        assert_eq!(ac.admit(SimTime::ZERO, 3, 4096), Decision::Shed { reason: ShedReason::Pressure });
        assert!(ac.audit().is_empty());
    }

    #[test]
    fn completions_feed_slo_tracking() {
        let mut ac = AdmissionController::new(cfg());
        for i in 0..10u64 {
            let now = SimTime(i * 1_000_000);
            if let Decision::Admit { start } = ac.admit(now, 1, 64 * 1024) {
                ac.complete(1, now, start + SimDuration::from_micros(200), 64 * 1024);
            }
        }
        let report = ac.slo_report();
        let slo = &report[0];
        assert_eq!(slo.ops, 10);
        assert!(slo.p99 >= SimDuration::from_micros(100), "log-bucketed p99 {:?}", slo.p99);
        assert!(slo.met(), "no budget configured means met");
        assert_eq!(report.len(), 3);
        assert_eq!(report[0].tenant, 1);
    }
}
