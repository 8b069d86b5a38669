//! Distributed data access (§7.1): residency tracking, first-reference
//! migration, prefetch accounting, and automatic replication of files hot
//! at multiple sites.
//!
//! "If a file were commonly used in a single location, the system would
//! locate the physical data at that location. ... The first time the data
//! was referenced, a copy of the data would be moved to the referencing
//! site. ... The system would recognize files that are commonly accessed at
//! multiple locations and automatically replicate copies."

use crate::topology::{SiteId, SiteTopology};
use std::collections::{BTreeMap, BTreeSet};
use ys_cache::HeatTracker;
use ys_simcore::time::SimTime;

/// How a read was served.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Data already resident at the reading site.
    Local,
    /// First reference: data migrates from the nearest holder; the caller
    /// charges one WAN round trip for the first block and pipelines the
    /// prefetch of the rest.
    RemoteMigration { from: SiteId },
    /// No site holds the file (lost or never written).
    Unavailable,
}

/// Residency + heat state for the distributed namespace.
#[derive(Clone, Debug)]
pub struct DistributedAccess {
    /// Ordered: site-destruction sweeps iterate residency, and the
    /// surviving-copy audit must be replay-deterministic.
    residency: BTreeMap<u64, BTreeSet<SiteId>>,
    heat: HeatTracker<u64>,
    hot_threshold: f64,
}

impl DistributedAccess {
    pub fn new(heat_half_life_secs: f64, hot_threshold: f64) -> DistributedAccess {
        DistributedAccess {
            residency: BTreeMap::new(),
            heat: HeatTracker::new(heat_half_life_secs),
            hot_threshold,
        }
    }

    /// Declare where a file's data lives (creation or placement decision).
    pub fn set_home(&mut self, file: u64, site: SiteId) {
        self.residency.entry(file).or_default().insert(site);
    }

    pub fn sites_of(&self, file: u64) -> Vec<SiteId> {
        self.residency.get(&file).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// Serve a read at `site`, migrating on first reference.
    pub fn read(&mut self, topology: &SiteTopology, file: u64, site: SiteId, now: SimTime) -> AccessKind {
        self.heat.record(file, site.0, now);
        let holders = match self.residency.get(&file) {
            Some(h) if !h.is_empty() => h,
            _ => return AccessKind::Unavailable,
        };
        if holders.contains(&site) {
            return AccessKind::Local;
        }
        // Nearest up holder supplies the copy.
        let mut best: Option<(f64, SiteId)> = None;
        for &h in holders {
            if topology.site(h).up && topology.link(site, h).is_some() {
                let d = topology.distance_km(site, h);
                if best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, h));
                }
            }
        }
        match best {
            Some((_, from)) => {
                // Migration: the referencing site now holds a copy.
                self.residency.entry(file).or_default().insert(site);
                AccessKind::RemoteMigration { from }
            }
            None => AccessKind::Unavailable,
        }
    }

    /// A write at `site` invalidates every other site's copy (they must
    /// re-fetch or be re-pushed); `site` becomes the sole holder.
    pub fn write(&mut self, file: u64, site: SiteId, now: SimTime) {
        self.heat.record(file, site.0, now);
        let set = self.residency.entry(file).or_default();
        set.clear();
        set.insert(site);
    }

    /// Sites where `file` is hot but not resident — the system pushes
    /// copies there proactively. Returns the push targets.
    pub fn auto_replicate(&mut self, file: u64, now: SimTime) -> Vec<SiteId> {
        let hot = self.heat.hot_accessors(&file, self.hot_threshold, now);
        let mut pushed = Vec::new();
        if hot.len() < 2 {
            return pushed;
        }
        for a in hot {
            let sid = SiteId(a);
            let set = self.residency.entry(file).or_default();
            if !set.contains(&sid) {
                set.insert(sid);
                pushed.push(sid);
            }
        }
        pushed
    }

    /// Site destroyed: purge it from residency. Returns files whose *last*
    /// copy lived there (unrecoverable without geo replicas).
    pub fn fail_site(&mut self, site: SiteId) -> Vec<u64> {
        let mut lost = Vec::new();
        for (&file, set) in self.residency.iter_mut() {
            if set.remove(&site) && set.is_empty() {
                lost.push(file);
            }
        }
        lost.sort_unstable();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_simcore::time::SimDuration;
    use ys_simnet::catalog;

    fn topo() -> SiteTopology {
        let mut t = SiteTopology::new(&["a", "b", "c"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc768(), 30.0);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 4000.0);
        t.connect(SiteId(1), SiteId(2), catalog::oc192(), 4000.0);
        t
    }

    #[test]
    fn first_reference_migrates_then_local() {
        let t = topo();
        let mut d = DistributedAccess::new(60.0, 3.0);
        d.set_home(1, SiteId(0));
        assert_eq!(
            d.read(&t, 1, SiteId(1), SimTime::ZERO),
            AccessKind::RemoteMigration { from: SiteId(0) }
        );
        assert_eq!(d.read(&t, 1, SiteId(1), SimTime(1)), AccessKind::Local, "second read is local");
        assert!(d.sites_of(1).contains(&SiteId(1)));
    }

    #[test]
    fn migration_pulls_from_nearest_holder() {
        let t = topo();
        let mut d = DistributedAccess::new(60.0, 3.0);
        d.set_home(1, SiteId(1)); // 30 km from site 0
        d.set_home(1, SiteId(2)); // 4000 km from site 0
        assert_eq!(
            d.read(&t, 1, SiteId(0), SimTime::ZERO),
            AccessKind::RemoteMigration { from: SiteId(1) }
        );
    }

    #[test]
    fn write_invalidates_remote_copies() {
        let t = topo();
        let mut d = DistributedAccess::new(60.0, 3.0);
        d.set_home(1, SiteId(0));
        d.read(&t, 1, SiteId(1), SimTime::ZERO); // copy at both
        d.write(1, SiteId(0), SimTime(1));
        assert_eq!(d.sites_of(1), vec![SiteId(0)], "writer is the sole holder");
        assert!(matches!(d.read(&t, 1, SiteId(1), SimTime(2)), AccessKind::RemoteMigration { .. }));
    }

    #[test]
    fn auto_replication_pushes_to_multi_hot_sites() {
        let t = topo();
        let mut d = DistributedAccess::new(1000.0, 3.0);
        d.set_home(9, SiteId(0));
        // Site 2 hammers the file; writes at site 0 keep invalidating it.
        for i in 0..6u64 {
            d.read(&t, 9, SiteId(2), SimTime(i));
            d.write(9, SiteId(0), SimTime(i));
        }
        // Heat at both sites 0 and 2 → push a copy back to 2.
        let pushed = d.auto_replicate(9, SimTime(100));
        assert_eq!(pushed, vec![SiteId(2)]);
        assert_eq!(d.read(&t, 9, SiteId(2), SimTime(101)), AccessKind::Local);
    }

    #[test]
    fn single_site_heat_does_not_trigger_push() {
        let mut d = DistributedAccess::new(1000.0, 2.0);
        d.set_home(1, SiteId(0));
        for i in 0..10u64 {
            d.write(1, SiteId(0), SimTime(i));
        }
        assert!(d.auto_replicate(1, SimTime(20)).is_empty());
    }

    #[test]
    fn unavailable_when_no_holder() {
        let t = topo();
        let mut d = DistributedAccess::new(60.0, 3.0);
        assert_eq!(d.read(&t, 42, SiteId(0), SimTime::ZERO), AccessKind::Unavailable);
    }

    #[test]
    fn site_failure_loses_sole_copies_only() {
        let t = topo();
        let mut d = DistributedAccess::new(60.0, 3.0);
        d.set_home(1, SiteId(0)); // only at 0
        d.set_home(2, SiteId(0));
        d.read(&t, 2, SiteId(1), SimTime::ZERO); // file 2 also at 1 now
        let lost = d.fail_site(SiteId(0));
        assert_eq!(lost, vec![1], "file 2 survives at site 1");
        assert_eq!(d.sites_of(2), vec![SiteId(1)]);
    }

    #[test]
    fn heat_decays_so_old_interest_fades() {
        let t = topo();
        let mut d = DistributedAccess::new(1.0, 3.0); // 1 s half-life
        d.set_home(5, SiteId(0));
        for i in 0..8u64 {
            d.read(&t, 5, SiteId(1), SimTime(i));
            d.write(5, SiteId(0), SimTime(i));
        }
        let much_later = SimTime::ZERO + SimDuration::from_secs(60);
        assert!(d.auto_replicate(5, much_later).is_empty(), "heat decayed");
    }
}
