//! Tenant and policy configuration for the QoS layer.
//!
//! A [`QosConfig`] is a small declarative table: one [`TenantSpec`] per
//! lab/tenant naming its [`QosClass`], token-bucket envelope, in-flight
//! cap, and latency SLO, plus the one cluster-wide policy knob: the
//! maximum queueing delay before a request is shed. `QosConfig::disabled()`
//! is the default everywhere — with it, the data path is bit-identical to
//! a build without this crate.

use ys_simcore::time::SimDuration;

/// Service class, ordered by privilege. Class determines how the tenant
/// is treated under backpressure: `Premium` is never penalized,
/// `Standard` is delayed, `Scavenger` is shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosClass {
    Scavenger,
    Standard,
    Premium,
}

impl QosClass {
    /// Stable wire id for charge-back records (0 = unclassified).
    pub fn id(self) -> u8 {
        match self {
            QosClass::Scavenger => 1,
            QosClass::Standard => 2,
            QosClass::Premium => 3,
        }
    }

    pub fn from_id(id: u8) -> Option<QosClass> {
        match id {
            1 => Some(QosClass::Scavenger),
            2 => Some(QosClass::Standard),
            3 => Some(QosClass::Premium),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            QosClass::Scavenger => "scavenger",
            QosClass::Standard => "standard",
            QosClass::Premium => "premium",
        }
    }
}

/// Per-tenant QoS contract.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant id — matches the `tenant` field on volumes / charge-back.
    pub id: u32,
    pub name: String,
    pub class: QosClass,
    /// Token-bucket sustained rate in bytes/second; 0 = unthrottled.
    pub rate_bytes_per_sec: u64,
    /// Token-bucket depth: how large a burst may exceed the rate.
    pub burst_bytes: u64,
    /// Maximum simultaneously in-flight admitted requests.
    pub inflight_cap: u32,
    /// SLO: p99 latency budget; `ZERO` = no latency SLO.
    pub latency_budget: SimDuration,
}

impl TenantSpec {
    pub fn new(id: u32, name: impl Into<String>, class: QosClass) -> TenantSpec {
        TenantSpec {
            id,
            name: name.into(),
            class,
            rate_bytes_per_sec: 0,
            burst_bytes: 8 << 20,
            inflight_cap: u32::MAX,
            latency_budget: SimDuration::ZERO,
        }
    }

    /// Sustained rate limit in MB/s (decimal megabytes, matching link math).
    pub fn rate_mb_per_sec(mut self, mb: u64) -> TenantSpec {
        self.rate_bytes_per_sec = mb * 1_000_000;
        self
    }

    pub fn burst_bytes(mut self, b: u64) -> TenantSpec {
        self.burst_bytes = b.max(1);
        self
    }

    pub fn inflight_cap(mut self, cap: u32) -> TenantSpec {
        self.inflight_cap = cap.max(1);
        self
    }

    pub fn latency_budget(mut self, d: SimDuration) -> TenantSpec {
        self.latency_budget = d;
        self
    }
}

/// Cluster-wide QoS policy: the tenant table plus the shed deadline.
#[derive(Clone, Debug, PartialEq)]
pub struct QosConfig {
    pub enabled: bool,
    pub tenants: Vec<TenantSpec>,
    /// Longest a request may be delayed for tokens before being shed.
    pub max_delay: SimDuration,
}

impl QosConfig {
    /// QoS off: every request is admitted untouched. The default.
    pub fn disabled() -> QosConfig {
        QosConfig {
            enabled: false,
            tenants: Vec::new(),
            max_delay: SimDuration::from_millis(50),
        }
    }

    /// QoS on with an empty tenant table (unknown tenants pass through).
    pub fn new() -> QosConfig {
        QosConfig { enabled: true, ..QosConfig::disabled() }
    }

    pub fn with_tenant(mut self, spec: TenantSpec) -> QosConfig {
        self.tenants.retain(|t| t.id != spec.id);
        self.tenants.push(spec);
        self.tenants.sort_by_key(|t| t.id);
        self
    }

    pub fn with_max_delay(mut self, d: SimDuration) -> QosConfig {
        self.max_delay = d;
        self
    }

    pub fn tenant(&self, id: u32) -> Option<&TenantSpec> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Charge-back class id for a tenant (0 = unclassified).
    pub fn class_id(&self, id: u32) -> u8 {
        self.tenant(id).map(|t| t.class.id()).unwrap_or(0)
    }
}

impl Default for QosConfig {
    fn default() -> QosConfig {
        QosConfig::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ids_round_trip() {
        for c in [QosClass::Scavenger, QosClass::Standard, QosClass::Premium] {
            assert_eq!(QosClass::from_id(c.id()), Some(c));
        }
        assert_eq!(QosClass::from_id(0), None);
        assert!(QosClass::Premium > QosClass::Standard);
        assert!(QosClass::Standard > QosClass::Scavenger);
    }

    #[test]
    fn tenant_table_is_sorted_and_deduped() {
        let cfg = QosConfig::new()
            .with_tenant(TenantSpec::new(7, "b", QosClass::Standard))
            .with_tenant(TenantSpec::new(3, "a", QosClass::Premium))
            .with_tenant(TenantSpec::new(7, "b2", QosClass::Scavenger));
        assert_eq!(cfg.tenants.len(), 2);
        assert_eq!(cfg.tenants[0].id, 3);
        assert_eq!(cfg.tenant(7).map(|t| t.class), Some(QosClass::Scavenger));
        assert_eq!(cfg.class_id(7), QosClass::Scavenger.id());
        assert_eq!(cfg.class_id(99), 0);
    }

    #[test]
    fn disabled_is_default() {
        assert!(!QosConfig::default().enabled);
        assert!(QosConfig::new().enabled);
    }
}
