//! Multi-site topology (§7, Figure 3): sites joined by WAN links of
//! configurable distance and trunk rate.

use ys_simnet::catalog;
use ys_simnet::LinkSpec;

/// Site index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SiteId(pub usize);

/// One data-center site.
#[derive(Clone, Debug)]
pub struct Site {
    pub id: SiteId,
    pub name: String,
    pub up: bool,
}

/// Inter-site connectivity.
#[derive(Clone, Debug)]
pub struct SiteTopology {
    sites: Vec<Site>,
    /// Symmetric matrices indexed `[a][b]`.
    distance_km: Vec<Vec<f64>>,
    trunk: Vec<Vec<Option<LinkSpec>>>,
    /// Symmetric partition mask: `true` means the trunk exists but is cut.
    link_down: Vec<Vec<bool>>,
}

impl SiteTopology {
    pub fn new(names: &[&str]) -> SiteTopology {
        let n = names.len();
        assert!(n > 0);
        SiteTopology {
            sites: names
                .iter()
                .enumerate()
                .map(|(i, &name)| Site { id: SiteId(i), name: name.into(), up: true })
                .collect(),
            distance_km: vec![vec![0.0; n]; n],
            trunk: vec![vec![None; n]; n],
            link_down: vec![vec![false; n]; n],
        }
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    // lint: allow(dead-pub) — (e) clippy's len_without_is_empty pairs it with the live pub len
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// Connect two sites with a trunk of the given spec over `km`.
    pub fn connect(&mut self, a: SiteId, b: SiteId, trunk: LinkSpec, km: f64) {
        assert_ne!(a, b, "no self links");
        let spec = catalog::wan(trunk, km);
        self.distance_km[a.0][b.0] = km;
        self.distance_km[b.0][a.0] = km;
        self.trunk[a.0][b.0] = Some(spec);
        self.trunk[b.0][a.0] = Some(spec);
    }

    pub fn distance_km(&self, a: SiteId, b: SiteId) -> f64 {
        self.distance_km[a.0][b.0]
    }

    pub fn link(&self, a: SiteId, b: SiteId) -> Option<LinkSpec> {
        if !self.sites[a.0].up || !self.sites[b.0].up || self.link_down[a.0][b.0] {
            return None;
        }
        self.trunk[a.0][b.0]
    }

    /// Cut the trunk between two sites (both directions) without taking
    /// either site down: a WAN partition, not a site failure.
    pub fn fail_link(&mut self, a: SiteId, b: SiteId) {
        self.link_down[a.0][b.0] = true;
        self.link_down[b.0][a.0] = true;
    }

    /// Restore a previously cut trunk.
    pub fn repair_link(&mut self, a: SiteId, b: SiteId) {
        self.link_down[a.0][b.0] = false;
        self.link_down[b.0][a.0] = false;
    }

    pub fn fail_site(&mut self, s: SiteId) {
        self.sites[s.0].up = false;
    }

    /// Up sites sorted by distance from `from` (excluding `from` itself and
    /// unconnected sites).
    pub fn nearest_sites(&self, from: SiteId) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self
            .sites
            .iter()
            .filter(|s| s.up && s.id != from && self.trunk[from.0][s.id.0].is_some())
            .map(|s| s.id)
            .collect();
        v.sort_by(|&a, &b| {
            self.distance_km(from, a).total_cmp(&self.distance_km(from, b)).then(a.0.cmp(&b.0))
        });
        v
    }

    /// Standard three-site lab deployment used across the experiments:
    /// metro dark fibre (25 km), regional OC-192 (1000 km),
    /// continental OC-48 (7000 km).
    pub fn national_lab() -> SiteTopology {
        let mut t = SiteTopology::new(&["metro", "regional", "continental"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc768(), 25.0);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 1000.0);
        t.connect(SiteId(1), SiteId(2), catalog::oc192(), 1000.0);
        // continental site reachable from both at long haul
        t.connect(SiteId(1), SiteId(0), catalog::oc768(), 25.0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_is_symmetric() {
        let mut t = SiteTopology::new(&["a", "b"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc192(), 500.0);
        assert_eq!(t.distance_km(SiteId(0), SiteId(1)), 500.0);
        assert_eq!(t.distance_km(SiteId(1), SiteId(0)), 500.0);
        assert!(t.link(SiteId(0), SiteId(1)).is_some());
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut t = SiteTopology::new(&["a", "b", "c"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc192(), 10.0);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 5000.0);
        let near = t.link(SiteId(0), SiteId(1)).unwrap().propagation;
        let far = t.link(SiteId(0), SiteId(2)).unwrap().propagation;
        assert!(far > near * 10);
        // 5000 km ≈ 25 ms one-way.
        assert!(far.as_millis_f64() >= 25.0);
    }

    #[test]
    fn failed_site_has_no_links() {
        let mut t = SiteTopology::new(&["a", "b"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc192(), 100.0);
        t.fail_site(SiteId(1));
        assert!(t.link(SiteId(0), SiteId(1)).is_none());
    }

    #[test]
    fn cut_link_blocks_traffic_without_failing_sites() {
        let mut t = SiteTopology::new(&["a", "b", "c"]);
        t.connect(SiteId(0), SiteId(1), catalog::oc192(), 100.0);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 100.0);
        t.fail_link(SiteId(1), SiteId(0));
        assert!(t.link(SiteId(0), SiteId(1)).is_none());
        assert!(t.link(SiteId(1), SiteId(0)).is_none());
        // Other trunks and the sites themselves stay up.
        assert!(t.link(SiteId(0), SiteId(2)).is_some());
        assert!(t.site(SiteId(1)).up);
        t.repair_link(SiteId(0), SiteId(1));
        assert!(t.link(SiteId(0), SiteId(1)).is_some());
    }

    #[test]
    fn nearest_sites_ordered_by_distance() {
        let mut t = SiteTopology::new(&["home", "near", "far", "island"]);
        t.connect(SiteId(0), SiteId(2), catalog::oc192(), 3000.0);
        t.connect(SiteId(0), SiteId(1), catalog::oc768(), 30.0);
        // island (3) never connected
        assert_eq!(t.nearest_sites(SiteId(0)), vec![SiteId(1), SiteId(2)]);
        t.fail_site(SiteId(1));
        assert_eq!(t.nearest_sites(SiteId(0)), vec![SiteId(2)]);
    }

    #[test]
    fn national_lab_shape() {
        let t = SiteTopology::national_lab();
        assert_eq!(t.len(), 3);
        let metro = t.link(SiteId(0), SiteId(1)).unwrap().propagation;
        let long = t.link(SiteId(0), SiteId(2)).unwrap().propagation;
        assert!(metro.as_millis_f64() < 0.5, "metro one-way {metro}");
        assert!(long.as_millis_f64() > 4.5, "continental one-way {long}");
    }
}
