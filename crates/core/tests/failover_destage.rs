//! `fail_blade` re-destages every promoted page from its new owner. When
//! the RAID group under the volume has lost more members than it
//! tolerates, that re-destage cannot be planned — and the promoted page is
//! then the last copy of an acknowledged write. It must stay dirty at its
//! new owner, exactly as a foreground write whose destage plan fails leaves
//! it; queueing the destage as complete would release it as if it were on
//! disk.

use ys_cache::{PageKey, Retention};
use ys_core::{BladeCluster, ClusterConfig, ClusterError};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_simdisk::DiskId;

const PAGE: u64 = 64 * 1024;

#[test]
fn promoted_page_whose_redestage_cannot_be_planned_stays_dirty() {
    let cfg = ClusterConfig::default().with_blades(3).with_disks(6).with_raid(RaidLevel::Raid5);
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("acked", 0, 1 << 30).unwrap();
    let mut t = SimTime::ZERO;
    for page in 0..6 {
        t = c.write(t, 0, vol, page * PAGE, PAGE, 2, Retention::Normal).unwrap().done;
    }
    // RAID-5 tolerates one failed member; lose two.
    c.fail_disk(DiskId(0));
    c.fail_disk(DiskId(1));
    let beyond = c.write(t, 0, vol, 6 * PAGE, PAGE, 2, Retention::Normal);
    assert!(matches!(beyond, Err(ClusterError::Raid(_))), "the group is past its tolerance: {beyond:?}");

    let owner = c.cache.directory().get(&PageKey::new(vol.0, 0)).and_then(|e| e.owner).unwrap();
    let report = c.fail_blade(t, owner);
    assert!(report.lost.is_empty(), "2-way writes survive one blade");
    assert!(!report.promoted.is_empty(), "the failed owner's pages were promoted");

    c.drain();
    for key in &report.promoted {
        let entry = c.cache.directory().get(key).expect("promoted page stays in the directory");
        let new_owner = entry.owner.expect("the last copy of an acknowledged write keeps its owner");
        assert!(c.cache.dirty_pages(new_owner).contains(key), "{key:?} must still be dirty at blade {new_owner}");
    }
    assert!(c.cache.dirty_ratio() > 0.0, "undestaged data is still accounted as dirty");
}
