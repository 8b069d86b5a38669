//! Per-tenant SLO evaluation.
//!
//! A tenant's contract ([`TenantSpec`]) can carry one service-level
//! objective: a p99 latency budget. [`SloStatus`] is the point-in-time
//! evaluation of it against the tenant's observed latency histogram, with
//! the achieved rate and the admission counters that explain *why* the
//! objective was missed (heavy shedding vs genuine contention). `ys-bench`
//! lifts these into the metrics registry.

use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::SimDuration;

use crate::admission::TenantQosStats;
use crate::config::TenantSpec;

/// Point-in-time SLO evaluation for one tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct SloStatus {
    pub tenant: u32,
    pub name: String,
    /// Completed (admitted) operations observed so far.
    pub ops: u64,
    pub p99: SimDuration,
    /// Configured latency budget (`ZERO` = no latency SLO).
    pub latency_budget: SimDuration,
    pub achieved_mb_per_sec: f64,
    pub stats: TenantQosStats,
}

impl SloStatus {
    pub fn evaluate(
        spec: &TenantSpec,
        latency: &LatencyHisto,
        meter: &RateMeter,
        stats: TenantQosStats,
    ) -> SloStatus {
        SloStatus {
            tenant: spec.id,
            name: spec.name.clone(),
            ops: latency.count(),
            p99: latency.p99(),
            latency_budget: spec.latency_budget,
            achieved_mb_per_sec: meter.mb_per_sec(),
            stats,
        }
    }

    /// p99 ≤ budget (vacuously true with no budget or no traffic).
    pub fn met(&self) -> bool {
        self.latency_budget.is_zero() || self.ops == 0 || self.p99 <= self.latency_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QosClass;

    #[test]
    fn budget_violation_is_detected() {
        let spec = TenantSpec::new(1, "t", QosClass::Standard)
            .latency_budget(SimDuration::from_micros(100));
        let mut h = LatencyHisto::new();
        let meter = RateMeter::new();
        for _ in 0..100 {
            h.record(SimDuration::from_millis(5));
        }
        let s = SloStatus::evaluate(&spec, &h, &meter, TenantQosStats::default());
        assert!(!s.met());
    }

    #[test]
    fn no_traffic_is_vacuously_met() {
        let spec = TenantSpec::new(1, "t", QosClass::Standard).latency_budget(SimDuration::from_nanos(1));
        let s = SloStatus::evaluate(
            &spec,
            &LatencyHisto::new(),
            &RateMeter::new(),
            TenantQosStats::default(),
        );
        assert!(s.met());
    }
}
