//! Multi-site integration: the geographically distributed single data
//! image of §7 — policies, migration, replication shipping, failover.

use ys_core::{ClusterConfig, NetError, NetStorage, NetStorageConfig};
use ys_geo::{SiteId, SiteTopology};
use ys_pfs::{FilePolicy, GeoMode, GeoPolicy};
use ys_simcore::time::SimTime;
use ys_simnet::catalog;

const MB: u64 = 1 << 20;
const S0: SiteId = SiteId(0);
const S1: SiteId = SiteId(1);
const S2: SiteId = SiteId(2);

fn net() -> NetStorage {
    NetStorage::new(NetStorageConfig {
        site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
        ..NetStorageConfig::default()
    })
}

#[test]
fn single_namespace_spans_sites() {
    let mut ns = net();
    ns.fs.mkdir("/projects", None).unwrap();
    ns.create_file("/projects/alpha", FilePolicy::default(), S0).unwrap();
    ns.create_file("/projects/beta", FilePolicy::default(), S1).unwrap();
    // Any site sees the same namespace.
    assert_eq!(ns.fs.readdir("/projects").unwrap(), vec!["alpha", "beta"]);
    // Data lives where it was created.
    let alpha = ns.fs.lookup("/projects/alpha").unwrap();
    let beta = ns.fs.lookup("/projects/beta").unwrap();
    assert_eq!(ns.residency(alpha), vec![S0]);
    assert_eq!(ns.residency(beta), vec![S1]);
}

#[test]
fn policy_change_takes_effect_on_next_write() {
    let mut ns = net();
    let p = FilePolicy { geo: GeoPolicy::none(), ..FilePolicy::default() };
    ns.create_file("/f", p, S0).unwrap();
    let w1 = ns.write_file(SimTime::ZERO, S0, 0, "/f", 0, MB).unwrap();
    assert_eq!(ns.stats.sync_replica_writes, 0);
    // Upgrade the file to synchronous replication "at any time" (§7.2).
    let p2 = FilePolicy { geo: GeoPolicy::sync(2), ..FilePolicy::default() };
    ns.fs.set_policy("/f", p2).unwrap();
    let w2 = ns.write_file(w1.done, S0, 0, "/f", 0, MB).unwrap();
    assert_eq!(ns.stats.sync_replica_writes, 1);
    assert!(w2.latency >= w1.latency, "sync replica costs at least the local path");
}

#[test]
fn write_ordering_is_preserved_by_async_shipping() {
    let mut ns = net();
    let p = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
    ns.create_file("/log", p, S0).unwrap();
    let mut t = SimTime::ZERO;
    for i in 0..30u64 {
        t = ns.write_file(t, S0, 0, "/log", i * 4096, 4096).unwrap().done;
    }
    // Ship in three budget-limited rounds; ordering must hold (verified
    // internally by the journal's debug assertions), and everything lands.
    for _ in 0..3 {
        ns.ship_async(t, 10 * 4096).unwrap();
    }
    ns.ship_async(t, u64::MAX).unwrap();
    assert_eq!(ns.async_backlog(S0, S1).0, 0);
    assert_eq!(ns.stats.async_writes_shipped, 30);
}

#[test]
fn migration_then_writer_invalidation_then_remigration() {
    let mut ns = net();
    ns.create_file("/shared", FilePolicy::default(), S0).unwrap();
    let ino = ns.fs.lookup("/shared").unwrap();
    let mut t = ns.write_file(SimTime::ZERO, S0, 0, "/shared", 0, 2 * MB).unwrap().done;
    // S2 reads: copy migrates.
    t = ns.read_file(t, S2, 0, "/shared", 0, 2 * MB).unwrap().done;
    assert!(ns.residency(ino).contains(&S2));
    // S0 writes: S2's copy is stale and dropped.
    t = ns.write_file(t, S0, 0, "/shared", 0, 2 * MB).unwrap().done;
    assert_eq!(ns.residency(ino), vec![S0]);
    // S2 reads again: pays migration again (no free staleness).
    let before = ns.stats.migrations;
    ns.read_file(t, S2, 0, "/shared", 0, 2 * MB).unwrap();
    assert_eq!(ns.stats.migrations, before + 1);
}

#[test]
fn preferred_site_policy_is_honoured() {
    let mut ns = net();
    let p = FilePolicy {
        geo: GeoPolicy {
            mode: GeoMode::Synchronous,
            site_copies: 2,
            min_distance_km: 0.0,
            preferred_sites: vec![2], // pin the replica to the continental site
        },
        ..FilePolicy::default()
    };
    ns.create_file("/pinned", p, S0).unwrap();
    let w = ns.write_file(SimTime::ZERO, S0, 0, "/pinned", 0, MB).unwrap();
    let ino = ns.fs.lookup("/pinned").unwrap();
    assert!(ns.residency(ino).contains(&S2), "replica pinned to site 2");
    assert!(w.latency.as_millis_f64() > 9.0, "paid the continental RTT: {}", w.latency);
}

#[test]
fn double_site_failure_with_three_copies_still_serves() {
    let mut ns = net();
    let p = FilePolicy { geo: GeoPolicy::sync(3), ..FilePolicy::default() };
    ns.create_file("/vital", p, S0).unwrap();
    let mut t = ns.write_file(SimTime::ZERO, S0, 0, "/vital", 0, MB).unwrap().done;
    // With a sync(3) policy the nearest replica is sync; the far one async.
    t = ns.ship_async(t, u64::MAX).unwrap();
    ns.fail_site(S0);
    ns.fail_site(S1);
    let r = ns.read_file(t, S2, 0, "/vital", 0, MB);
    assert!(r.is_ok(), "third copy at the continental site survives: {:?}", r.err().map(|e| e.to_string()));
}

#[test]
fn reads_at_failed_site_are_rejected_cleanly() {
    let mut ns = net();
    ns.create_file("/f", FilePolicy::default(), S0).unwrap();
    ns.write_file(SimTime::ZERO, S0, 0, "/f", 0, MB).unwrap();
    ns.fail_site(S1);
    assert!(matches!(ns.read_file(SimTime(1), S1, 0, "/f", 0, MB), Err(NetError::SiteDown(_))));
}

#[test]
fn wan_distance_shapes_first_reference_latency() {
    // Two topologies differing only in distance: the farther one pays more
    // for its first remote reference.
    let run = |km: f64| {
        let mut topo = SiteTopology::new(&["a", "b"]);
        topo.connect(SiteId(0), SiteId(1), catalog::oc192(), km);
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster: ClusterConfig::default().with_blades(2).with_disks(6).with_clients(2),
            topology: topo,
            ..NetStorageConfig::default()
        });
        ns.create_file("/d", FilePolicy::default(), SiteId(0)).unwrap();
        let t = ns.write_file(SimTime::ZERO, SiteId(0), 0, "/d", 0, 4 * MB).unwrap().done;
        ns.read_file(t, SiteId(1), 0, "/d", 0, 4 * MB).unwrap().latency
    };
    let near = run(50.0);
    let far = run(5000.0);
    assert!(far > near, "distance must cost: near {near}, far {far}");
    // The bulk migration pays one-way light time: ~(5000−50) km × 5 µs/km.
    assert!((far.as_millis_f64() - near.as_millis_f64()) > 20.0, "≈25 ms of light time missing");
}

#[test]
fn single_system_image_report_covers_every_site() {
    let mut ns = net();
    ns.create_file("/f", FilePolicy::default(), S0).unwrap();
    let pol = FilePolicy { geo: GeoPolicy::async_(2), ..FilePolicy::default() };
    ns.create_file("/g", pol, S0).unwrap();
    let t = ns.write_file(SimTime::ZERO, S0, 0, "/g", 0, MB).unwrap().done;
    ns.clusters[1].fail_blade(t, 0);
    ns.fail_site(S2);

    let report = ns.system_report(t);
    assert_eq!(report.sites.len(), 3);
    assert_eq!(report.files, 2);
    assert!(report.sites[0].up && report.sites[1].up && !report.sites[2].up);
    assert_eq!(report.sites[1].blades_up, report.sites[1].blades_total - 1);
    assert!(report.sites[0].pool_used_bytes >= MB, "home site holds the data");
    assert!(report.sites[0].async_backlog_bytes > 0, "unshipped journal visible in the report");
    // Renders as one view for the distributed IT team (§7.3).
    let text = format!("{report}");
    assert!(text.contains("metro") && text.contains("continental") && text.contains("DOWN"));
}
