//! §4's per-file RAID override, end to end: a cluster exposing several
//! RAID groups, files whose policies route their extents to the matching
//! class, and the performance/availability consequences.

use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, NetStorage, NetStorageConfig};
use ys_geo::SiteId;
use ys_pfs::FilePolicy;
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_simdisk::DiskId;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;
const GB: u64 = 1 << 30;

fn tiered_cluster_cfg() -> ClusterConfig {
    // Group 0: RAID-5 capacity over 8 disks; group 1: RAID-1 mirrors over
    // 4 disks; group 2: RAID-0 scratch over 4 disks.
    ClusterConfig::default()
        .with_blades(4)
        .with_disks(8)
        .with_clients(4)
        .with_extra_group(RaidLevel::Raid1 { copies: 2 }, 4, 64 * KB)
        .with_extra_group(RaidLevel::Raid0, 4, 64 * KB)
}

#[test]
fn groups_partition_the_farm() {
    let c = BladeCluster::new(tiered_cluster_cfg());
    assert_eq!(c.farm.len(), 16, "8 + 4 + 4 disks");
    assert_eq!(c.group(0).geo.level, RaidLevel::Raid5);
    assert_eq!(c.group(1).geo.level, RaidLevel::Raid1 { copies: 2 });
    assert_eq!(c.group(2).geo.level, RaidLevel::Raid0);
    assert_eq!(c.group_of_disk(DiskId(3)), (0, 3));
    assert_eq!(c.group_of_disk(DiskId(9)), (1, 1));
    assert_eq!(c.group_of_disk(DiskId(14)), (2, 2));
}

#[test]
fn volumes_in_different_groups_use_their_own_disks() {
    let mut c = BladeCluster::new(tiered_cluster_cfg());
    let v_r5 = c.create_volume_in(0, "cap", 0, GB).unwrap();
    let v_r0 = c.create_volume_in(2, "scratch", 0, GB).unwrap();
    let mut t = SimTime::ZERO;
    for i in 0..16u64 {
        t = c.write(t, 0, v_r5, i * MB, MB, 1, Retention::Normal).unwrap().done;
        t = c.write(t, 0, v_r0, i * MB, MB, 1, Retention::Normal).unwrap().done;
    }
    c.drain();
    // RAID5 traffic lands on disks 0..8; RAID0 on 12..16; mirrors idle.
    let writes = |range: std::ops::Range<usize>| -> u64 {
        range.map(|i| c.farm.disk(DiskId(i)).writes()).sum()
    };
    assert!(writes(0..8) > 0, "capacity group served the RAID5 volume");
    assert!(writes(12..16) > 0, "scratch group served the RAID0 volume");
    assert_eq!(writes(8..12), 0, "mirror group untouched");
}

#[test]
fn raid0_group_dies_with_one_disk_raid1_survives() {
    let mut c = BladeCluster::new(tiered_cluster_cfg());
    let v_r1 = c.create_volume_in(1, "mirror", 0, GB).unwrap();
    let v_r0 = c.create_volume_in(2, "scratch", 0, GB).unwrap();
    let mut t = SimTime::ZERO;
    t = c.write(t, 0, v_r1, 0, MB, 1, Retention::Normal).unwrap().done;
    t = c.write(t, 0, v_r0, 0, MB, 1, Retention::Normal).unwrap().done;
    t = c.drain().max(t);
    // Cold caches.
    for b in 0..4 {
        c.fail_blade(t, b);
        c.repair_blade(b);
    }
    // Kill one disk in each group.
    c.fail_disk(DiskId(8)); // mirror member
    c.fail_disk(DiskId(12)); // scratch member
    assert!(c.read(t, 0, v_r1, 0, MB).is_ok(), "mirror survives a member loss");
    assert!(c.read(t, 0, v_r0, 0, MB).is_err(), "RAID0 scratch does not");
}

#[test]
fn per_file_policy_routes_extents_to_the_matching_class() {
    let mut ns = NetStorage::new(NetStorageConfig {
        site_cluster: tiered_cluster_cfg(),
        ..NetStorageConfig::default()
    });
    let s0 = SiteId(0);
    // Default file → class 0 (RAID5 group); scratch policy → RAID0 group.
    ns.create_file("/normal.dat", FilePolicy::default(), s0).unwrap();
    ns.create_file("/scratch.tmp", FilePolicy::scratch(), s0).unwrap();
    let mirror_pol =
        FilePolicy { raid: Some(RaidLevel::Raid1 { copies: 2 }), ..FilePolicy::default() };
    ns.create_file("/hot.db", mirror_pol, s0).unwrap();

    let mut t = SimTime::ZERO;
    t = ns.write_file(t, s0, 0, "/normal.dat", 0, 4 * MB).unwrap().done;
    t = ns.write_file(t, s0, 0, "/scratch.tmp", 0, 4 * MB).unwrap().done;
    let _ = ns.write_file(t, s0, 0, "/hot.db", 0, 4 * MB).unwrap();

    // Each file's extents name a volume in the right group (group id is
    // encoded in the top byte of the VolumeId).
    let group_of = |ns: &NetStorage, path: &str| -> u32 {
        let ino = ns.fs.lookup(path).unwrap();
        let ext = ns.fs.read(ino, 0, 4 * MB).unwrap();
        assert!(!ext.is_empty());
        ext[0].vol.0 >> 24
    };
    assert_eq!(group_of(&ns, "/normal.dat"), 0, "default class on the RAID5 group");
    assert_eq!(group_of(&ns, "/hot.db"), 1, "mirror class on the RAID1 group");
    assert_eq!(group_of(&ns, "/scratch.tmp"), 2, "scratch class on the RAID0 group");

    // And the physical traffic went to each group's own disks.
    let cluster = &ns.clusters[0];
    assert!(cluster.group(0).volumes.pool().used_extents() > 0);
    assert!(cluster.group(1).volumes.pool().used_extents() > 0);
    assert!(cluster.group(2).volumes.pool().used_extents() > 0);
}

#[test]
fn unknown_raid_override_falls_back_to_default_class() {
    let mut ns = NetStorage::new(NetStorageConfig {
        site_cluster: tiered_cluster_cfg(),
        ..NetStorageConfig::default()
    });
    // No RAID6 group is configured in this cluster.
    let pol = FilePolicy { raid: Some(RaidLevel::Raid6), ..FilePolicy::default() };
    ns.create_file("/wants-r6.dat", pol, SiteId(0)).unwrap();
    ns.write_file(SimTime::ZERO, SiteId(0), 0, "/wants-r6.dat", 0, MB).unwrap();
    let ino = ns.fs.lookup("/wants-r6.dat").unwrap();
    let ext = ns.fs.read(ino, 0, MB).unwrap();
    assert_eq!(ext[0].vol.0 >> 24, 0, "graceful fallback to the default class");
}
