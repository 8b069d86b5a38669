//! Replica-site selection under §6.2/§7.2 policies: "a file could be
//! synchronously replicated to a center close by, and then, asynchronously
//! replicated to further distances. Users could specify the number of sites
//! ... or specific replication sites."

use crate::topology::{SiteId, SiteTopology};
use ys_pfs::GeoPolicy;

/// The outcome of placement: which sites hold copies and how each copy is
/// kept current.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    pub home: SiteId,
    /// Sites updated synchronously with the host write.
    pub sync_sites: Vec<SiteId>,
    /// Sites updated from the write-ordered journal.
    pub async_sites: Vec<SiteId>,
}

/// Placement failures.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PlacementError {
    /// Fewer reachable sites than the policy demands.
    NotEnoughSites { wanted: usize, reachable: usize },
    /// No reachable site satisfies the minimum distance.
    MinDistanceUnsatisfiable { min_km: f64 },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NotEnoughSites { wanted, reachable } => {
                write!(f, "policy wants {wanted} sites, only {reachable} reachable")
            }
            PlacementError::MinDistanceUnsatisfiable { min_km } => {
                write!(f, "no reachable site at ≥ {min_km} km")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Choose replica sites for a file homed at `home` under `policy`.
///
/// Strategy (distance-tiered, per the paper): prefer the policy's pinned
/// sites; otherwise take nearest sites first. The nearest replica is
/// synchronous when the policy is synchronous; extra copies beyond the
/// first replica are shipped asynchronously ("synchronously replicated to a
/// center close by, and then asynchronously ... to further distances").
/// At least one replica must satisfy `min_distance_km` if set.
pub fn place(topology: &SiteTopology, home: SiteId, policy: &GeoPolicy) -> Result<Placement, PlacementError> {
    use ys_pfs::GeoMode;
    let needed = policy.site_copies.saturating_sub(1);
    if needed == 0 || policy.mode == GeoMode::None {
        return Ok(Placement { home, sync_sites: vec![], async_sites: vec![] });
    }
    // Candidate order: pinned sites first (in given order), then nearest.
    let mut candidates: Vec<SiteId> = Vec::new();
    for &p in &policy.preferred_sites {
        let sid = SiteId(p);
        if sid != home && topology.link(home, sid).is_some() {
            candidates.push(sid);
        }
    }
    for s in topology.nearest_sites(home) {
        if !candidates.contains(&s) {
            candidates.push(s);
        }
    }
    if candidates.len() < needed {
        return Err(PlacementError::NotEnoughSites { wanted: policy.site_copies, reachable: candidates.len() + 1 });
    }
    let mut chosen: Vec<SiteId> = candidates.iter().copied().take(needed).collect();
    // Enforce min distance: at least one chosen site must be far enough.
    if policy.min_distance_km > 0.0
        && !chosen.iter().any(|&s| topology.distance_km(home, s) >= policy.min_distance_km)
    {
        match candidates
            .iter()
            .copied()
            .find(|&s| topology.distance_km(home, s) >= policy.min_distance_km)
        {
            Some(far) => {
                // Swap the farthest-needed site in for the last choice.
                if let Some(last) = chosen.last_mut() {
                    *last = far;
                }
            }
            None => return Err(PlacementError::MinDistanceUnsatisfiable { min_km: policy.min_distance_km }),
        }
    }
    let (sync_sites, async_sites) = if policy.mode == GeoMode::Synchronous {
        // Nearest chosen replica is synchronous; the rest follow async.
        // `chosen` holds `needed ≥ 1` sites.
        let rest = chosen.split_off(1);
        (chosen, rest)
    } else {
        (vec![], chosen)
    };
    Ok(Placement { home, sync_sites, async_sites })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_pfs::GeoPolicy;
    use ys_simnet::catalog;

    fn copies(p: &Placement) -> usize {
        1 + p.sync_sites.len() + p.async_sites.len()
    }

    fn topo() -> SiteTopology {
        let mut t = SiteTopology::new(&["home", "metro", "regional", "continental"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc768(), 20.0);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 800.0);
        t.connect(SiteId(0), SiteId(3), catalog::oc192(), 6000.0);
        t
    }

    #[test]
    fn no_replication_stays_home() {
        let t = topo();
        let p = place(&t, SiteId(0), &GeoPolicy::none()).unwrap();
        assert_eq!(copies(&p), 1);
        assert!(p.sync_sites.is_empty() && p.async_sites.is_empty());
    }

    #[test]
    fn sync_policy_picks_nearest_sync_then_async_tail() {
        let t = topo();
        let p = place(&t, SiteId(0), &GeoPolicy::sync(3)).unwrap();
        assert_eq!(p.sync_sites, vec![SiteId(1)], "nearest is synchronous");
        assert_eq!(p.async_sites, vec![SiteId(2)], "farther copy is async");
        assert_eq!(copies(&p), 3);
    }

    #[test]
    fn async_policy_has_no_sync_sites() {
        let t = topo();
        let p = place(&t, SiteId(0), &GeoPolicy::async_(2)).unwrap();
        assert!(p.sync_sites.is_empty());
        assert_eq!(p.async_sites, vec![SiteId(1)]);
    }

    #[test]
    fn preferred_sites_win_over_distance() {
        let t = topo();
        let mut pol = GeoPolicy::sync(2);
        pol.preferred_sites = vec![3];
        let p = place(&t, SiteId(0), &pol).unwrap();
        assert_eq!(p.sync_sites, vec![SiteId(3)], "pinned site selected despite distance");
    }

    #[test]
    fn min_distance_forces_a_far_replica() {
        let t = topo();
        let mut pol = GeoPolicy::sync(2);
        pol.min_distance_km = 5000.0;
        let p = place(&t, SiteId(0), &pol).unwrap();
        assert_eq!(p.sync_sites, vec![SiteId(3)], "only the continental site satisfies 5000 km");
    }

    #[test]
    fn min_distance_unsatisfiable_errors() {
        let t = topo();
        let mut pol = GeoPolicy::sync(2);
        pol.min_distance_km = 50_000.0;
        assert_eq!(
            place(&t, SiteId(0), &pol).unwrap_err(),
            PlacementError::MinDistanceUnsatisfiable { min_km: 50_000.0 }
        );
    }

    #[test]
    fn too_many_copies_errors() {
        let t = topo();
        let pol = GeoPolicy::sync(10);
        assert!(matches!(place(&t, SiteId(0), &pol), Err(PlacementError::NotEnoughSites { .. })));
    }

    #[test]
    fn failed_sites_are_skipped() {
        let mut t = topo();
        t.fail_site(SiteId(1));
        let p = place(&t, SiteId(0), &GeoPolicy::sync(2)).unwrap();
        assert_eq!(p.sync_sites, vec![SiteId(2)], "metro down, regional takes over");
    }
}
