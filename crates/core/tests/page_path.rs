//! Every way a volume page comes up from the media is one path
//! (`read_page_media`): the cold miss, the partitioned-controller
//! ablation's peer-cached arm, readahead and the scrub probe. These tests
//! pin, through the public API only, the agreement between those callers
//! that used to hold by copy-paste.

use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, ClusterError};
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

const PAGE: u64 = 64 * 1024;
const MB: u64 = 1 << 20;

fn config() -> ClusterConfig {
    ClusterConfig::default().with_blades(4).with_disks(8).with_clients(4)
}

/// Write and destage the volume's first MiB (pages 0..16); every page is
/// left clean in the cache of the blade that took the write.
fn destaged(cfg: ClusterConfig) -> (BladeCluster, VolumeId, SimTime) {
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("pages", 0, 1 << 30).unwrap();
    let w = c.write(SimTime::ZERO, 0, vol, 0, MB, 1, Retention::Normal).unwrap();
    let t = c.drain().max(w.done);
    (c, vol, t)
}

fn drop_caches(c: &mut BladeCluster, t: SimTime) {
    for b in 0..4 {
        c.fail_blade(t, b);
        c.repair_blade(b);
    }
}

#[test]
fn peer_supply_off_read_of_a_peer_cached_page_pays_the_cold_miss_path() {
    // Round-robin sends the read to the blade after the writer, so the
    // page is cached on a peer of the requester.
    let (mut ablated, vol, t) = destaged(config().without_remote_supply());
    let r = ablated.read(t, 0, vol, 0, PAGE).unwrap();
    assert_eq!(ablated.stats.reads_from_remote_cache, 0, "the peer's copy is invisible");
    assert_eq!(ablated.stats.reads_from_disk, 1);
    assert_eq!(ablated.cache.stats().remote_hits, 1, "the cache did see a peer copy");

    // The twin has no cached copy anywhere: the same read is a true miss.
    let (mut cold, cvol, ct) = destaged(config().without_remote_supply());
    drop_caches(&mut cold, ct);
    let m = cold.read(ct, 0, cvol, 0, PAGE).unwrap();
    assert_eq!(cold.cache.stats().misses, 1);
    assert_eq!((t, vol), (ct, cvol), "twins share their history");
    assert_eq!(r.latency, m.latency, "peer-supply-off costs exactly the cold-miss disk path");
    assert_eq!(r.done, m.done);

    // And it refuses rot exactly as the miss does.
    let (mut rotten, rvol, rt) = destaged(config().without_remote_supply());
    let (disk, offset) = rotten.corrupt_volume_page(rvol, 0).unwrap();
    match rotten.read(rt, 0, rvol, 0, PAGE) {
        Err(ClusterError::Integrity { disk: d, offset: o }) => assert_eq!((d, o), (disk, offset)),
        other => panic!("rot must surface as Integrity, got {other:?}"),
    }
}

#[test]
fn miss_scrub_probe_and_readahead_agree_on_one_rotten_page() {
    const ROTTEN: u64 = 4;
    let (mut c, vol, t) = destaged(config().with_prefetch(4));
    drop_caches(&mut c, t);
    let (disk, offset) = c.corrupt_volume_page(vol, ROTTEN).unwrap();

    // The scrub probe reports the rot where it was injected.
    let probe = c.verify_page(t, 0, vol, ROTTEN).unwrap();
    assert_eq!(probe.mismatches.len(), 1);
    assert_eq!((probe.mismatches[0].disk, probe.mismatches[0].offset), (disk, offset));

    // Two sequential reads trigger readahead over pages 2..6: every page
    // but the rotten one is prefetched.
    let mut now = probe.done;
    for page in 0..2 {
        now = c.read(now, 0, vol, page * PAGE, PAGE).unwrap().done;
    }
    assert_eq!(c.stats.prefetches_issued, 3, "pages 2, 3 and 5 — never the rotten page 4");
    for page in 2..ROTTEN {
        now = c.read(now, 0, vol, page * PAGE, PAGE).unwrap().done;
    }
    assert_eq!(c.stats.reads_from_disk, 2, "the clean neighbours were served by their prefetch");

    // The foreground miss of the skipped page names the same media span.
    match c.read(now, 0, vol, ROTTEN * PAGE, PAGE) {
        Err(ClusterError::Integrity { disk: d, offset: o }) => assert_eq!((d, o), (disk, offset)),
        other => panic!("the rotten page must error the foreground read, got {other:?}"),
    }
}
