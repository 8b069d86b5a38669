//! The recovery oracle: the paper's promises, checked against a shadow
//! model while a campaign injects faults.
//!
//! * **durability** — a page acked with N dirty copies survives failure of
//!   any N−1 of them (§6.1). Each site keeps a
//!   [`ys_cache::durability::LossLedger`], opened from the directory
//!   ([`refresh`]); every crash's losses are judged and read back through
//!   it, the one statement of the promise, shared with ys-check's cache
//!   model. The legal loss at the Nth failure is still *reported*.
//! * **re-homing** — after every injection the structural invariants of
//!   `ys_cache::invariants` must hold: each dirty page has exactly one
//!   surviving owner, replicas are consistent, no directory entry points
//!   at a down blade.
//! * **rebuild** — the coordinator's coverage ledger shows every degraded
//!   row claimed/completed exactly once, at every check point.
//! * **geo** — after heal, the destination's acknowledged prefix is
//!   gapless and the backlog drains to zero (checked by the campaign's
//!   convergence phase using [`ys_geo::ReplicationEngine`] accessors).
//! * **QoS** — under degradation, sheds land only on classes configured to
//!   absorb them; `Premium` is never shed.

use ys_cache::durability::LossLedger;
use ys_cache::{CacheCluster, Retention};
use ys_core::BladeCluster;

/// One broken promise, attributed to the step and site where it surfaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// Stable rule name (a [`ys_cache::durability`] loss rule, `cache-invariant`, ...).
    pub rule: &'static str,
    pub step: u64,
    pub site: usize,
    pub detail: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] step {} site {}: {}", self.rule, self.step, self.site, self.detail)
    }
}

/// Sync a site's ledger with its directory: every dirty page is opened at
/// its version ([`LossLedger::open`]); pages that lost their owner (destaged,
/// evicted, invalidated) drop their budget.
///
/// The pages with an owner are read off each blade's held list
/// (`dirty_pages`) rather than filtered out of the whole directory, which
/// is nearly all cold pages; no budget is read in any order, so the order
/// they are opened in cannot reach a verdict.
pub fn refresh(ledger: &mut LossLedger, cluster: &BladeCluster) {
    let cache = &cluster.cache;
    let dir = cache.directory();
    ledger.retain(|key| dir.get(key).is_some_and(|e| e.owner.is_some()));
    debug_assert!(
        held_lists_name_the_owned_pages(cache),
        "the held lists name exactly the pages the directory gives an owner"
    );
    for key in (0..cache.blade_count()).flat_map(|b| cache.dirty_pages(b)) {
        if let Some(e) = dir.get(&key) {
            ledger.open(key, e.version, 1 + e.replicas.len());
        }
    }
}

/// Whether the blades' held lists name exactly the pages the directory
/// gives an owner, each on its owner's list: the shortcut
/// [`refresh`] takes, against its definition. Debug builds ask
/// it on every refresh, so it counts the owned entries without a key-order
/// walk of the directory: each entry is found from the blade lists that
/// hold it and counted once, at its first holder (the owner, else the
/// first sharer). Only when that misses an entry, because no list of its
/// first holder names it, are the owners counted by the key-order walk.
fn held_lists_name_the_owned_pages(cache: &CacheCluster) -> bool {
    const BANDS: [Retention; 4] = [Retention::Low, Retention::Normal, Retention::High, Retention::Pinned];
    let dir = cache.directory();
    let mut held = 0;
    let (mut seen, mut owned) = (0, 0);
    for b in 0..cache.blade_count() {
        let dirty = cache.dirty_pages(b);
        if !dirty.iter().all(|key| dir.get(key).is_some_and(|e| e.owner == Some(b))) {
            return false;
        }
        held += dirty.len();
        // A blade keeps each key on one list at most: a band or the held list.
        let clean = BANDS.iter().flat_map(|&r| cache.lru_order_iter(b, r));
        for e in clean.chain(&dirty).filter_map(|key| dir.get(key)) {
            if e.owner.or(e.sharers.first().copied()) == Some(b) {
                seen += 1;
                owned += usize::from(e.owner.is_some());
            }
        }
    }
    if seen < dir.len() {
        owned = dir.iter().filter(|(_, e)| e.owner.is_some()).count();
    }
    held == owned
}

/// Structural audit of one site: invariants, unacknowledged tombstones.
/// (Tombstones for judged losses are acknowledged at the injection site,
/// so anything left here is a promise broken silently.) Asked after every
/// step, so it goes through the cache's checkpoint: the pages that changed
/// since the last clean answer are re-audited, and anything else — a blade
/// came or went, a finding — is the full scan, reported verbatim.
pub fn audit_site(site: usize, step: u64, cluster: &mut BladeCluster, out: &mut Vec<OracleViolation>) {
    for v in cluster.cache.audit_checkpoint() {
        out.push(OracleViolation {
            rule: "cache-invariant",
            step,
            site,
            detail: v.to_string(),
        });
    }
}

/// Converge-time redundancy rule: once every blade is restored and the
/// destage backlog has drained, no page may still sit below its
/// fault-tolerance target — the healer's converge budget has expired.
pub fn audit_redundancy(
    site: usize,
    step: u64,
    cluster: &BladeCluster,
    out: &mut Vec<OracleViolation>,
) {
    let deficit = cluster.cache.under_target_iter().len();
    if deficit > 0 {
        out.push(OracleViolation {
            rule: "redundancy-not-restored",
            step,
            site,
            detail: format!(
                "{deficit} page(s) under fault-tolerance target after convergence"
            ),
        });
    }
}

/// QoS shed discipline: `Premium` is never shed; only the classes
/// configured to absorb pressure (`Scavenger` sheds, `Standard` delays)
/// may carry the degradation.
pub fn audit_qos(site: usize, step: u64, cluster: &BladeCluster, out: &mut Vec<OracleViolation>) {
    let qos = cluster.qos();
    if !qos.enabled() {
        return;
    }
    for slo in qos.slo_report() {
        let Some(spec) = qos.cfg().tenant(slo.tenant) else { continue };
        if spec.class == ys_qos::QosClass::Premium {
            if let Some(stats) = qos.stats(slo.tenant) {
                if stats.shed > 0 {
                    out.push(OracleViolation {
                        rule: "qos-shed-discipline",
                        step,
                        site,
                        detail: format!(
                            "premium tenant {} shed {} times; degradation must fall on \
                             sheddable classes only",
                            slo.tenant, stats.shed
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_core::ClusterConfig;
    use ys_simcore::time::SimTime;

    #[test]
    fn destage_ends_the_protection_promise() {
        let mut c = BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8));
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let mut ledger = LossLedger::default();
        refresh(&mut ledger, &c);
        let owned = c.cache.directory().iter().filter(|(_, e)| e.owner.is_some()).count();
        assert!(owned > 0);
        assert_eq!(ledger.iter().count(), owned, "one budget per owned page");
        assert!(ledger.iter().all(|(_, b)| b.copies == 2 && b.failures == 0));
        c.drain();
        refresh(&mut ledger, &c);
        assert_eq!(ledger.iter().count(), 0, "clean pages carry no promise");
    }
}
