//! The recovery oracle: the paper's promises, checked against a shadow
//! model while a campaign injects faults.
//!
//! * **durability** — a page acked with N dirty copies survives failure of
//!   any N−1 of them (§6.1). The shadow tracks each protected page's
//!   `(copies, failures)` budget exactly like `ys-check`'s cache model, so
//!   a loss within budget is distinguished from the legal loss at the Nth
//!   failure — which the oracle still *reports* (campaigns must surface
//!   it), just under a different rule name.
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

use std::collections::BTreeMap;
use ys_cache::PageKey;
use ys_core::BladeCluster;

/// One broken promise, attributed to the step and site where it surfaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleViolation {
    /// Stable rule name (`loss-within-budget`, `acked-write-lost`, ...).
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

/// Protection promised to one dirty page when its write was acked.
#[derive(Clone, Copy, Debug)]
struct Budget {
    version: u64,
    /// Dirty copies at ack (owner + pinned replicas).
    copies: usize,
    /// Failures since then that removed one of those copies.
    failures: usize,
}

/// Per-site shadow of the durability budgets, refreshed from the real
/// directory between operations.
#[derive(Clone, Debug, Default)]
pub struct SiteShadow {
    /// Ordered: budget refresh and verdict sweeps iterate this map, and
    /// oracle verdict order must match across same-seed replays.
    budgets: BTreeMap<PageKey, Budget>,
}

impl SiteShadow {
    /// Sync with the directory: new or re-written dirty pages get a fresh
    /// budget; destaged/evicted/invalidated pages drop theirs. Failures
    /// survive a refresh (promotion keeps the version, and the promise
    /// keeps counting).
    ///
    /// The pages with an owner are read off each blade's held list
    /// (`dirty_pages`) rather than filtered out of the whole directory,
    /// which is nearly all cold pages; the budgets are an ordered map, so
    /// the order they are visited in cannot reach a verdict.
    pub fn refresh(&mut self, cluster: &BladeCluster) {
        let cache = &cluster.cache;
        let dir = cache.directory();
        self.budgets.retain(|key, _| dir.get(key).map(|e| e.owner.is_some()).unwrap_or(false));
        let owned = || (0..cache.blade_count()).flat_map(|b| cache.dirty_pages(b));
        debug_assert_eq!(
            {
                let mut held: Vec<PageKey> = owned().collect();
                held.sort_unstable();
                held
            },
            dir.iter().filter(|(_, e)| e.owner.is_some()).map(|(k, _)| *k).collect::<Vec<_>>(),
            "the held lists name exactly the pages the directory gives an owner"
        );
        for key in owned() {
            let Some(e) = dir.get(&key) else { continue };
            let fresh = Budget { version: e.version, copies: 1 + e.replicas.len(), failures: 0 };
            match self.budgets.get_mut(&key) {
                Some(b) if b.version == e.version => {}
                Some(b) => *b = fresh,
                None => {
                    self.budgets.insert(key, fresh);
                }
            }
        }
    }

    /// Account one blade crash *before* it happens: every budgeted page
    /// holding a copy on `blade` loses one of its promised copies.
    pub fn pre_crash(&mut self, cluster: &BladeCluster, blade: usize) {
        let dir = cluster.cache.directory();
        for (key, b) in self.budgets.iter_mut() {
            if let Some(e) = dir.get(key) {
                if e.owner == Some(blade) || e.replicas.contains(&blade) {
                    b.failures += 1;
                }
            }
        }
    }

    /// Judge the losses a crash reported. Pages acked with
    /// `< protected_copies` dirty copies are *internal* single-copy cache
    /// installs (first-reference migrations, shipped geo batches): their
    /// source survives, so losing the cached copy breaks no client promise
    /// and is returned as the benign count. For protected pages: within
    /// budget ⇒ a genuine protocol bug; at/over budget ⇒ the accepted
    /// Nth-failure loss. Both are violations (a campaign that loses acked
    /// data fails), but the rule name tells the debugger which class it is.
    pub fn judge_losses(
        &mut self,
        site: usize,
        step: u64,
        lost: &[PageKey],
        protected_copies: usize,
        out: &mut Vec<OracleViolation>,
    ) -> (u64, u64) {
        let mut legal = 0;
        let mut benign = 0;
        for key in lost {
            match self.budgets.remove(key) {
                Some(b) if b.copies < protected_copies => benign += 1,
                Some(b) if b.failures < b.copies => out.push(OracleViolation {
                    rule: "loss-within-budget",
                    step,
                    site,
                    detail: format!(
                        "{key:?} written {}-way lost after only {} of its copies failed",
                        b.copies, b.failures
                    ),
                }),
                Some(b) => {
                    legal += 1;
                    out.push(OracleViolation {
                        rule: "acked-write-lost",
                        step,
                        site,
                        detail: format!(
                            "{key:?} lost at copy failure #{} (N={}): the accepted limit, \
                             surfaced explicitly",
                            b.failures, b.copies
                        ),
                    });
                }
                None => out.push(OracleViolation {
                    rule: "untracked-loss",
                    step,
                    site,
                    detail: format!("{key:?} lost but never had a durability budget"),
                }),
            }
        }
        (legal, benign)
    }
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
    use ys_cache::Retention;
    use ys_core::ClusterConfig;
    use ys_simcore::time::SimTime;

    fn cluster() -> BladeCluster {
        BladeCluster::new(ClusterConfig::default().with_blades(4).with_disks(8))
    }

    #[test]
    fn within_budget_loss_is_flagged_as_a_bug() {
        let mut c = cluster();
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let mut shadow = SiteShadow::default();
        shadow.refresh(&c);
        assert!(!shadow.budgets.is_empty());
        // Forge a loss the budget says cannot happen yet: one failure
        // against a 2-way page.
        let key = *c.cache.directory().iter().next().unwrap().0;
        shadow.pre_crash(&c, c.cache.directory().get(&key).unwrap().owner.unwrap());
        let mut out = Vec::new();
        shadow.judge_losses(0, 1, &[key], 2, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "loss-within-budget");
    }

    #[test]
    fn nth_failure_loss_is_reported_as_accepted_limit() {
        let mut c = cluster();
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let mut shadow = SiteShadow::default();
        shadow.refresh(&c);
        let key = *c.cache.directory().iter().next().unwrap().0;
        let e = c.cache.directory().get(&key).unwrap();
        let (owner, replica) = (e.owner.unwrap(), e.replicas[0]);
        shadow.pre_crash(&c, owner);
        shadow.pre_crash(&c, replica);
        let mut out = Vec::new();
        let (legal, benign) = shadow.judge_losses(0, 2, &[key], 2, &mut out);
        assert_eq!(legal, 1);
        assert_eq!(benign, 0);
        assert_eq!(out[0].rule, "acked-write-lost");
    }

    #[test]
    fn single_copy_cache_installs_lose_benignly() {
        let mut c = cluster();
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        // A 1-way install (read migration / geo ship apply): its loss must
        // not be charged as a broken write promise.
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 1, Retention::Normal).unwrap();
        let mut shadow = SiteShadow::default();
        shadow.refresh(&c);
        let key = *c.cache.directory().iter().next().unwrap().0;
        shadow.pre_crash(&c, c.cache.directory().get(&key).unwrap().owner.unwrap());
        let mut out = Vec::new();
        let (legal, benign) = shadow.judge_losses(0, 1, &[key], 2, &mut out);
        assert_eq!((legal, benign), (0, 1));
        assert!(out.is_empty(), "benign cache-copy loss is not a violation");
    }

    #[test]
    fn destage_ends_the_protection_promise() {
        let mut c = cluster();
        let vol = c.create_volume("v", 0, 1 << 30).unwrap();
        c.write(SimTime::ZERO, 0, vol, 0, 64 * 1024, 2, Retention::Normal).unwrap();
        let mut shadow = SiteShadow::default();
        shadow.refresh(&c);
        assert!(!shadow.budgets.is_empty());
        c.drain();
        shadow.refresh(&c);
        assert_eq!(shadow.budgets.len(), 0, "clean pages carry no promise");
    }
}
