//! The gate that keeps a page's trip to the media off the heap: under a
//! counting allocator, the scrub probe and the scrub rewrite of a warm
//! cluster allocate nothing, and a cold read and a write allocate only
//! the sharer and replica lists of `ys-cache`'s directory entries. The
//! cache's own hits stay off it too: a warm local hit allocates nothing,
//! and a remote hit that evicts almost never does.
//!
//! One `#[test]` in this file, and the count is per thread, so the test
//! harness's own allocations never reach it.

// A `#[global_allocator]` is an `unsafe impl GlobalAlloc` by definition;
// this one counts and forwards every call to `System` unchanged.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterConfig, EncryptionConfig};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_simcore::Rng;
use ys_simdisk::DiskId;
use ys_virt::VolumeId;

thread_local! {
    /// Allocations this thread has made since counting was switched on
    /// (`None` = off). Const-initialised and without a destructor, so
    /// touching it from inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

// SAFETY: every method hands its arguments to `System` untouched and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counter is a thread-local `Cell` no pointer depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations and reallocations `f` makes.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(Some(0)));
    f();
    ALLOCATIONS.with(|n| n.replace(None)).expect("counting was on")
}

const PAGE: u64 = 64 * 1024;
const OPS: u64 = 1_000;

/// A ciphered cluster with `pages` pages of one volume written and
/// destaged: mapped, stamped on the media, clean.
fn preloaded(cfg: ClusterConfig, pages: u64) -> (BladeCluster, VolumeId, SimTime) {
    let mut c = BladeCluster::new(cfg.with_encryption(EncryptionConfig::full_hw()));
    let vol = c.create_volume("gate", 0, 1 << 40).expect("volume");
    let mut t = SimTime::ZERO;
    for page in 0..pages {
        t = c.write(t, 0, vol, page * PAGE, PAGE, 1, Retention::Normal).expect("preload").done;
    }
    let flushed = t.max(c.drain());
    (c, vol, flushed)
}

#[test]
fn a_warm_page_trip_allocates_nothing() {
    const PAGES: u64 = 256;
    let raid1 = RaidLevel::Raid1 { copies: 2 };
    for (level, failed_member) in [(RaidLevel::Raid5, None), (RaidLevel::Raid6, None), (raid1, None), (RaidLevel::Raid6, Some(2))] {
        let (mut c, vol, mut now) = preloaded(ClusterConfig::default().with_disks(8).with_raid(level), PAGES);
        if let Some(member) = failed_member {
            c.fail_disk(DiskId(member));
        }
        let what = format!("{level:?}, failed member {failed_member:?}");
        // Warm-up: the first trips size the plan and the pieces buffer and
        // derive the volume's key.
        for page in 0..PAGES {
            now = c.verify_page(now, 0, vol, page).expect("probe").done;
            now = c.scrub_rewrite_page(now, 0, vol, page).expect("rewrite");
        }
        let probes = allocations(|| {
            for i in 0..OPS {
                let probe = c.verify_page(now, (i % 4) as usize, vol, i * 7919 % PAGES).expect("probe");
                assert!(probe.mismatches.is_empty());
                now = probe.done;
            }
        });
        assert_eq!(probes, 0, "{OPS} verify_page calls ({what})");
        let ciphered = c.stats.pages_ciphered;
        let rewrites = allocations(|| {
            for i in 0..OPS {
                now = c.scrub_rewrite_page(now, (i % 4) as usize, vol, i * 7919 % PAGES).expect("rewrite");
            }
        });
        assert_eq!(rewrites, 0, "{OPS} scrub_rewrite_page calls ({what})");
        // (A tag whose slot is on the failed member has nowhere to land.)
        if failed_member.is_none() {
            assert_eq!(c.stats.pages_ciphered - ciphered, OPS, "every rewrite stamped a ciphered tag ({what})");
        }
    }

    // The foreground paths. Cold read: 4096 pages behind 4 × 64 cache slots.
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default().with_raid(RaidLevel::Raid6).with_cache_pages(64), 4096);
    for i in 0..OPS {
        now = c.read(now, (i % 8) as usize, vol, (i * 7919 % 4096) * PAGE, PAGE).expect("warm").done;
    }
    let from_disk = c.stats.reads_from_disk;
    let reads = allocations(|| {
        for i in OPS..2 * OPS {
            now = c.read(now, (i % 8) as usize, vol, (i * 7919 % 4096) * PAGE, PAGE).expect("read").done;
        }
    });
    assert!(c.stats.reads_from_disk - from_disk > OPS * 9 / 10, "the reads were cold");
    assert_eq!(c.stats.pages_deciphered, c.stats.reads_from_disk, "every disk-sourced page is deciphered and compared");
    assert!(reads <= OPS, "{reads} allocations in {OPS} cold reads (budget 1.0 each)");

    // Write: single-copy pages into caches already saturated with dirty
    // ones, so every write evicts, and most map a fresh extent or stamp a
    // fresh tag.
    let cfg = ClusterConfig::default().with_raid(RaidLevel::Raid6).with_cache_pages(256);
    let mut c = BladeCluster::new(cfg.with_encryption(EncryptionConfig::full_hw()));
    let vol = c.create_volume("gate", 0, 1 << 40).expect("volume");
    let mut now = SimTime::ZERO;
    let mut write = |c: &mut BladeCluster, i: u64| {
        let off = (i * 7919 % 8192) * PAGE;
        now = c.write(now, (i % 8) as usize, vol, off, PAGE, 1, Retention::Normal).expect("write").done;
    };
    (0..2048).for_each(|i| write(&mut c, i));
    let writes = allocations(|| (2048..2048 + OPS).for_each(|i| write(&mut c, i)));
    assert!(writes * 10 <= OPS * 24, "{writes} allocations in {OPS} writes (budget 2.4 each)");

    // Warm local hit: reads go round-robin over the four blades, so four
    // reads in a row put a page on every blade; after that every read is
    // one probe of the serving blade's page table.
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default(), 64);
    for i in 0..4 * 64 {
        now = c.read(now, 0, vol, (i / 4) * PAGE, PAGE).expect("warm").done;
    }
    let local = c.stats.reads_from_local_cache;
    let hits = allocations(|| {
        for i in 0..OPS {
            now = c.read(now, (i % 8) as usize, vol, (i * 7919 % 64) * PAGE, PAGE).expect("hit").done;
        }
    });
    assert_eq!(c.stats.reads_from_local_cache - local, OPS, "every read was a local hit");
    assert_eq!(hits, 0, "{OPS} local-hit reads");

    // Remote hit that evicts: random reads of 128 clean pages over four
    // 64-page caches, from round-robin blades. Only the reads that both
    // copy from a peer and evict are counted.
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default().with_cache_pages(64), 128);
    let (mut counted, mut remote_evicting, mut rng) = (0, 0, Rng::new(7));
    for i in 0..2 * OPS {
        let page = rng.next_below(128);
        let (remote, evictions) = (c.cache.stats().remote_hits, c.cache.stats().evictions);
        let n = allocations(|| now = c.read(now, (i % 8) as usize, vol, page * PAGE, PAGE).expect("read").done);
        if c.cache.stats().remote_hits > remote && c.cache.stats().evictions > evictions {
            counted += n;
            remote_evicting += 1;
        }
    }
    assert!(remote_evicting > OPS / 4, "only {remote_evicting} remote hits evicted");
    // 773 reads qualify, and all but a handful allocate nothing: what is
    // left is the directory's sharer lists growing.
    assert!(counted * 10 <= remote_evicting, "{counted} allocations in {remote_evicting} evicting remote hits");
}
