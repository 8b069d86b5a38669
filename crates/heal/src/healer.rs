//! The healer engine: deterministic background re-replication.
//!
//! After a blade failure promotes replicas (or a drain drops them), pages
//! sit *below their fault-tolerance target*: one more failure could lose
//! an acknowledged write. The [`Healer`] reads that deficit from the
//! cache's heal queue and re-establishes N-way replicas over the blade
//! fabric.
//!
//! How the pass shares the machine with foreground I/O — Scavenger-class
//! admission per batch, exponential backoff in virtual time after a shed
//! or stalled batch (backing off is productive here: pending destages land
//! meanwhile, freeing peer space and shrinking the deficit), a forced
//! trickle under sustained load, a declared stall when no batch can make
//! progress — is [`ys_core::governed`]'s policy, shared with `ys-scrub`.
//! This module is only the unit of work: the head of the queue (page-key
//! order), one `heal_page` each.
//!
//! On convergence (no page under target) the healer promotes every
//! `Rejoining` blade to full `Up` membership.

use ys_cache::PageKey;
use ys_core::governed::{self, GovernedWork, Governor, MAX_BACKOFF, PAGES_PER_BATCH};
use ys_core::{BladeCluster, ClusterError};
use ys_simcore::time::SimTime;

/// Healer policy.
#[derive(Clone, Debug, Default)]
pub struct HealConfig {
    /// QoS tenant the heal batches are admitted as (Scavenger-class in the
    /// shipped configurations). `None` runs administratively, without
    /// admission control — the mode fault campaigns use to converge.
    pub tenant: Option<u32>,
}

/// What one heal pass did.
#[derive(Clone, Debug, Default)]
pub struct HealReport {
    /// Batches executed (shed batches included).
    pub ticks: u64,
    /// Batches refused by QoS admission (retried after backoff).
    pub shed_ticks: u64,
    /// Batches forced through after `MAX_CONSECUTIVE_SHEDS`.
    pub forced_ticks: u64,
    /// Virtual-time backoff waits taken (shed or stalled).
    pub backoff_events: u64,
    /// Replicas re-established.
    pub replicas_placed: u64,
    /// Per-copy placements that failed transiently (no eligible peer yet)
    /// and were left for a later batch.
    pub retries: u64,
    /// Pages still under target when the pass gave up (0 on convergence).
    pub stalled_pages: u64,
    /// Whether the pass ended with every page at its target.
    pub converged: bool,
}

impl std::fmt::Display for HealReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "heal: {} replicas placed, ticks {} (shed {}, forced {}), backoffs {}, \
             retries {}, stalled {}, {}",
            self.replicas_placed,
            self.ticks,
            self.shed_ticks,
            self.forced_ticks,
            self.backoff_events,
            self.retries,
            self.stalled_pages,
            if self.converged { "converged" } else { "NOT CONVERGED" },
        )
    }
}

/// A heal pass in progress over one cluster.
#[derive(Debug)]
pub struct Healer {
    governor: Governor,
    /// The head of the planned work list (buffer reused across batches).
    batch: Vec<PageKey>,
    report: HealReport,
}

impl GovernedWork<BladeCluster> for Healer {
    fn governor(&mut self) -> &mut Governor {
        &mut self.governor
    }

    fn cluster(cluster: &mut BladeCluster) -> &mut BladeCluster {
        cluster
    }

    /// Every page under target, in page-key order.
    fn plan(&mut self, cluster: &BladeCluster) -> usize {
        let queue = cluster.cache.under_target_iter();
        let remaining = queue.len();
        self.batch.clear();
        self.batch.extend(queue.take(PAGES_PER_BATCH).map(|(key, _)| key));
        remaining
    }

    fn execute(&mut self, cluster: &mut BladeCluster, pages: usize, start: SimTime) -> Result<SimTime, ClusterError> {
        let mut done = start;
        for &key in self.batch.iter().take(pages) {
            match cluster.heal_page(done, key) {
                Ok((_, d)) => {
                    done = done.max(d);
                    self.report.replicas_placed += 1;
                }
                // Transient: every candidate peer is down, draining, or
                // saturated — or the page destaged/changed since the plan.
                // The next plan reads the queue afresh.
                Err(ClusterError::Cache(_)) => self.report.retries += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }
}

impl Healer {
    /// New pass with the given policy.
    pub fn new(cfg: HealConfig) -> Healer {
        Healer {
            governor: Governor::new(cfg.tenant, MAX_BACKOFF),
            batch: Vec::new(),
            report: HealReport::default(),
        }
    }

    /// The accumulated report (final once [`Healer::run`] returns).
    pub fn report(&self) -> &HealReport {
        &self.report
    }

    /// Run one batch: admit it under the configured tenant, then attempt up
    /// to `PAGES_PER_BATCH` replica placements for the pages at the head of
    /// the queue.
    /// Returns the batch completion time (== `now` when shed or when there
    /// is no work).
    pub fn tick(&mut self, cluster: &mut BladeCluster, now: SimTime) -> Result<SimTime, ClusterError> {
        let done = governed::tick(self, cluster, now);
        self.count();
        done
    }

    /// Drive the pass to convergence (or a declared stall), backing off
    /// exponentially in virtual time after shed or zero-progress batches.
    /// On convergence, promote every `Rejoining` blade to `Up`. Returns
    /// the completion time.
    pub fn run(&mut self, cluster: &mut BladeCluster, now: SimTime) -> Result<SimTime, ClusterError> {
        let done = governed::run(self, cluster, now);
        self.count();
        let done = done?;
        // Every remaining page has no eligible peer at all: reported,
        // loudly, never dropped.
        self.report.stalled_pages = cluster.cache.under_target_iter().len() as u64;
        if self.report.stalled_pages == 0 {
            self.report.converged = true;
            for b in 0..cluster.cache.blade_count() {
                cluster.finish_rejoin(b);
            }
        }
        Ok(done)
    }

    /// Mirror the governor's counters into the report; heal counts a shed
    /// batch as a tick.
    fn count(&mut self) {
        let c = self.governor.counters();
        self.report.ticks = c.ticks + c.shed_ticks;
        self.report.shed_ticks = c.shed_ticks;
        self.report.forced_ticks = c.forced_ticks;
        self.report.backoff_events = c.backoff_events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_cache::{Health, Retention};
    use ys_core::ClusterConfig;
    use ys_qos::{QosClass, QosConfig, TenantSpec};

    fn small() -> (BladeCluster, ys_virt::VolumeId) {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
        let vol = c.create_volume("heal-test", 0, 1 << 30).unwrap();
        (c, vol)
    }

    #[test]
    fn healer_restores_target_after_failure() {
        let (mut c, vol) = small();
        let mut t = SimTime::ZERO;
        for i in 0..16u64 {
            t = c.write(t, 0, vol, i * 65536, 65536, 2, Retention::Normal).unwrap().done;
        }
        c.fail_blade(t, 0);
        let deficit = c.under_target_pages().len();
        let mut h = Healer::new(HealConfig::default());
        let end = h.run(&mut c, t).unwrap();
        assert!(end >= t);
        assert!(h.report().converged, "{}", h.report());
        assert!(c.under_target_pages().is_empty());
        if deficit > 0 {
            assert!(h.report().replicas_placed > 0);
        }
        assert_eq!(c.health(), Health::Healthy);
    }

    #[test]
    fn healer_promotes_rejoining_blades_on_convergence() {
        let (mut c, vol) = small();
        let t = c.write(SimTime::ZERO, 0, vol, 0, 65536, 2, Retention::Normal).unwrap().done;
        c.fail_blade(t, 3);
        c.revive_blade(3).unwrap();
        assert_eq!(c.cache.blade_state(3), ys_cache::BladeState::Rejoining);
        let mut h = Healer::new(HealConfig::default());
        h.run(&mut c, t).unwrap();
        assert!(h.report().converged);
        assert_eq!(c.cache.blade_state(3), ys_cache::BladeState::Up);
        assert_eq!(c.health(), Health::Healthy);
    }

    #[test]
    fn qos_governed_heal_still_converges() {
        let qos = QosConfig::new()
            .with_tenant(TenantSpec::new(1, "fg", QosClass::Premium))
            .with_tenant(TenantSpec::new(9, "healer", QosClass::Scavenger));
        let mut c = BladeCluster::new(
            ClusterConfig::default().with_blades(4).with_disks(8).with_qos(qos),
        );
        let vol = c.create_volume("heal-qos", 1, 1 << 30).unwrap();
        let mut t = SimTime::ZERO;
        for i in 0..24u64 {
            t = c.write(t, 0, vol, i * 65536, 65536, 2, Retention::Normal).unwrap().done;
        }
        c.fail_blade(t, 1);
        let mut h = Healer::new(HealConfig { tenant: Some(9) });
        h.run(&mut c, t).unwrap();
        assert!(h.report().converged, "{}", h.report());
        assert!(c.under_target_pages().is_empty());
    }

    #[test]
    fn healer_with_no_work_is_a_no_op() {
        let (mut c, _) = small();
        let mut h = Healer::new(HealConfig::default());
        let end = h.run(&mut c, SimTime::ZERO).unwrap();
        assert_eq!(end, SimTime::ZERO);
        assert!(h.report().converged);
        assert_eq!(h.report().ticks, 0);
    }

    #[test]
    fn no_peer_deficit_resolves_via_destage_during_backoff() {
        // 2 blades: after one fails there is no peer to hold a replica, so
        // placement retries fail — but the pending destage lands while the
        // healer backs off in virtual time, clearing the deficit. The
        // failed placements are counted, never silent.
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(8));
        let vol = c.create_volume("stall", 0, 1 << 30).unwrap();
        let t = c.write(SimTime::ZERO, 0, vol, 0, 65536, 2, Retention::Normal).unwrap().done;
        c.fail_blade(t, 1);
        if c.under_target_pages().is_empty() {
            return; // destage beat the failure; scenario is moot
        }
        let mut h = Healer::new(HealConfig::default());
        h.run(&mut c, t).unwrap();
        assert!(h.report().converged, "{}", h.report());
        assert_eq!(h.report().replicas_placed, 0, "no peer existed to take a copy");
        assert!(h.report().retries > 0, "the failed placements are visible");
        assert!(h.report().backoff_events > 0);
        assert!(c.under_target_pages().is_empty());
    }
}
