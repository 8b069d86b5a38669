//! Property tests for geographic replication: journal ordering and
//! conservation under arbitrary enqueue/ship/cut interleavings, and
//! residency consistency under arbitrary access patterns.

use proptest::prelude::*;
use ys_geo::{DistributedAccess, ReplicationEngine, SiteId, SiteTopology};
use ys_simcore::time::SimTime;
use ys_simnet::catalog;

proptest! {
    /// For any interleaving of enqueues and budget-limited ships, shipped
    /// records per (src,dst) are strictly seq-ordered and
    /// shipped + pending == enqueued (until a cut).
    #[test]
    fn journal_conservation_and_order(
        ops in proptest::collection::vec((any::<bool>(), 0usize..3, 1u64..100_000), 1..120),
    ) {
        let mut e = ReplicationEngine::new();
        let src = SiteId(0);
        let mut enqueued = [0u64; 3];
        let mut shipped = [0u64; 3];
        let mut last_seq = [None::<u64>; 3];
        for (is_ship, dst, arg) in ops {
            let d = SiteId(dst + 1);
            if is_ship {
                for rec in e.ship(src, d, arg) {
                    if let Some(prev) = last_seq[dst] {
                        prop_assert!(rec.seq > prev, "order violated");
                    }
                    last_seq[dst] = Some(rec.seq);
                    shipped[dst] += 1;
                }
            } else {
                e.enqueue(src, d, 1, 0, arg, SimTime::ZERO);
                enqueued[dst] += 1;
            }
            for i in 0..3 {
                let (pend, _) = e.pending(src, SiteId(i + 1));
                prop_assert_eq!(pend + shipped[i], enqueued[i], "conservation for dst {}", i);
            }
        }
        // A source cut loses exactly the pending tail.
        let lost = e.source_cut(src).len() as u64;
        let total_pending: u64 = (0..3).map(|i| enqueued[i] - shipped[i]).sum();
        prop_assert_eq!(lost, total_pending);
    }

    /// Residency invariants under arbitrary read/write/fail sequences:
    /// a write leaves exactly one holder; reads only add holders; a failed
    /// site never appears in residency afterwards.
    #[test]
    fn residency_invariants(
        ops in proptest::collection::vec((0u8..4, 0usize..3, 0u64..6), 1..100),
    ) {
        let mut topo = SiteTopology::new(&["a", "b", "c"]);
        topo.connect(SiteId(0), SiteId(1), catalog::oc192(), 100.0);
        topo.connect(SiteId(0), SiteId(2), catalog::oc192(), 2000.0);
        topo.connect(SiteId(1), SiteId(2), catalog::oc192(), 2000.0);
        let mut acc = DistributedAccess::new(60.0, 2.0);
        let mut failed: Vec<SiteId> = vec![];
        let mut clock = 0u64;
        for (kind, site, file) in ops {
            clock += 1;
            let s = SiteId(site);
            let now = SimTime(clock);
            match kind {
                0 => {
                    if topo.site(s).up {
                        acc.set_home(file, s);
                    }
                }
                1 => {
                    if topo.site(s).up {
                        let before = acc.sites_of(file).len();
                        let _ = acc.read(&topo, file, s, now);
                        prop_assert!(acc.sites_of(file).len() >= before.min(1), "reads never shrink residency below 1 holder");
                    }
                }
                2 => {
                    if topo.site(s).up {
                        acc.write(file, s, now);
                        prop_assert_eq!(acc.sites_of(file), vec![s], "writer is sole holder");
                    }
                }
                _ => {
                    if topo.site(s).up && failed.len() < 2 {
                        topo.fail_site(s);
                        acc.fail_site(s);
                        failed.push(s);
                    }
                }
            }
            for f in 0..6u64 {
                for dead in &failed {
                    prop_assert!(!acc.sites_of(f).contains(dead), "failed site still resident");
                }
            }
        }
    }

    /// Placement never selects the home site, never exceeds reachable
    /// sites, and honours the copy count when it succeeds.
    #[test]
    fn placement_counts(copies in 1usize..6, home in 0usize..4, sync in any::<bool>()) {
        use ys_pfs::GeoPolicy;
        let mut topo = SiteTopology::new(&["a", "b", "c", "d"]);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                topo.connect(SiteId(i), SiteId(j), catalog::oc192(), 100.0 * (i + j) as f64);
            }
        }
        let pol = if sync { GeoPolicy::sync(copies) } else { GeoPolicy::async_(copies) };
        match ys_geo::place(&topo, SiteId(home), &pol) {
            Ok(p) => {
                let placed = 1 + p.sync_sites.len() + p.async_sites.len();
                prop_assert_eq!(placed, copies.max(1));
                prop_assert!(!p.sync_sites.contains(&SiteId(home)));
                prop_assert!(!p.async_sites.contains(&SiteId(home)));
                let mut all = vec![p.home];
                all.extend(&p.sync_sites);
                all.extend(&p.async_sites);
                all.sort();
                all.dedup();
                prop_assert_eq!(all.len(), placed, "no duplicate sites");
            }
            Err(_) => prop_assert!(copies > 4, "4 reachable sites satisfy ≤4 copies"),
        }
    }
}
