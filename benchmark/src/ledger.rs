//! The layer ledger: the isolated host cost of each layer's public calls.
//!
//! Kukol & Gray's method for the simulator itself — time every stage alone,
//! run end to end, account for the gap. Each entry drives one public
//! function of one crate on a fixture shaped like the workloads' state
//! (directory of 16 k pages, 4 × 1024-page caches, 16-member RAID5 …) and
//! reports the median nanoseconds per call (or MB/s where named `_mb_s`).
//! `ledger cost × a workload's boundary count ÷ its measured wall` is that
//! layer's *share* of the workload (see `report.rs`); what the shares leave
//! over is glue only in-program spans can split.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};
use ys_cache::{CacheCluster, LruList, PageKey, ReadOutcome, Retention};
use ys_core::{BladeCluster, ClusterConfig, Rebuilder};
use ys_raid::{Geometry, RaidLevel};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::{Engine, LatencyHisto, Rng, SpanRecorder};
use ys_simdisk::{DiskFarm, DiskId, DiskOp, DiskSpec};
use ys_simnet::{catalog, Fabric, FairPort, Link};
use ys_virt::{PhysicalPool, VolumeId, VolumeKind, VolumeManager};

const PAGE: u64 = 64 << 10;

/// How long one timed batch lasts and how many are taken.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    pub batch: Duration,
    pub samples: usize,
}

impl Sampler {
    /// The stand-alone `ledger` run: ≥ 30 samples of ≥ 10 ms batches.
    pub fn full() -> Sampler {
        Sampler { batch: Duration::from_millis(10), samples: 30 }
    }

    /// Inside a traced benchmark run: fit all entries into `budget_s`.
    pub fn within(budget_s: f64) -> Sampler {
        let samples = 7;
        // Calibration costs about three batches on top of the samples.
        let batch = budget_s / (ENTRIES as f64 * (samples + 3) as f64);
        Sampler { batch: Duration::from_secs_f64(batch.clamp(0.001, 0.010)), samples }
    }

    /// Median nanoseconds per operation. `run(n)` performs up to `n`
    /// operations and returns the time spent inside them and how many it
    /// performed (fewer than `n` when its fixture holds only so much work).
    /// The batch size grows until a batch lasts [`Sampler::batch`]; those
    /// calibration batches are the warm-up.
    pub fn ns_per_op(&self, mut run: impl FnMut(u64) -> (Duration, u64)) -> f64 {
        let mut n = 1u64;
        loop {
            let (t, done) = run(n);
            assert!(done > 0, "a ledger batch performed no operation");
            if t >= self.batch || done < n || n >= 1 << 30 {
                n = done;
                break;
            }
            let grow = self.batch.as_secs_f64() / t.as_secs_f64().max(1e-9);
            n = (n as f64 * grow.clamp(2.0, 64.0)).ceil() as u64;
        }
        let per_op: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let (t, done) = run(n);
                t.as_nanos() as f64 / done.max(1) as f64
            })
            .collect();
        median(&per_op)
    }
}

/// Time `n` calls of `op(i)`.
fn time_ops(n: u64, mut op: impl FnMut(u64)) -> (Duration, u64) {
    let t = Instant::now();
    for i in 0..n {
        op(i);
    }
    (t.elapsed(), n)
}

/// One measured entry.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Every entry name with its unit, in ledger order.
pub const NAMES: [(&str, &str); ENTRIES] = [
    ("simcore.engine_event_ns", "ns"),
    ("simcore.span_record_ns", "ns"),
    ("simcore.histo_record_ns", "ns"),
    ("proto.next_op_ns", "ns"),
    ("simnet.link_transfer_ns", "ns"),
    ("simnet.fabric_send_ns", "ns"),
    ("simnet.fairport_serve_ns", "ns"),
    ("simdisk.submit_ns", "ns"),
    ("simdisk.submit_verified_ns", "ns"),
    ("simdisk.page_tag_rw_ns", "ns"),
    ("raid.read_plan_ns", "ns"),
    ("raid.write_plan_ns", "ns"),
    ("raid.parity_p_mb_s", "MB/s"),
    ("raid.parity_q_mb_s", "MB/s"),
    ("raid.rebuild_batch_plan_ns", "ns"),
    ("virt.translate_ns", "ns"),
    ("virt.map_ns", "ns"),
    ("virt.first_write_alloc_ns", "ns"),
    ("cache.read_local_hit_ns", "ns"),
    ("cache.read_remote_hit_ns", "ns"),
    ("cache.fill_evict_ns", "ns"),
    ("cache.write_nway_ns", "ns"),
    ("cache.destage_ns", "ns"),
    ("cache.lru_touch_ns", "ns"),
    ("cache.under_target_scan_ns_per_page", "ns"),
    ("cache.health_ns_per_page", "ns"),
    ("cache.dirty_ratio_ns", "ns"),
    ("qos.admit_ns", "ns"),
    ("qos.complete_ns", "ns"),
    ("security.ctr_xor_mb_s", "MB/s"),
    ("security.page_tag_xor_ns", "ns"),
    ("security.lun_check_ns", "ns"),
    ("geo.ship_async_ns_per_record", "ns"),
    ("geo.place_ns", "ns"),
    ("pfs.lookup_ns", "ns"),
    ("pfs.write_extent_ns", "ns"),
    ("core.read_hit_ns", "ns"),
    ("core.read_miss_ns", "ns"),
    ("core.write_ns", "ns"),
    ("core.advance_ns", "ns"),
    ("core.heal_page_ns", "ns"),
    ("core.verify_page_ns", "ns"),
    ("core.rebuild_step_ns", "ns"),
    ("check.state_clone_ns", "ns"),
    ("check.canonical_hash_ns", "ns"),
    ("heal.tick_ns", "ns"),
    ("scrub.tick_ns", "ns"),
];

pub const ENTRIES: usize = 47;

/// Measure every entry, in [`NAMES`] order.
pub fn run(s: Sampler) -> Vec<Entry> {
    let groups: [fn(Sampler) -> Vec<f64>; 12] =
        [simcore, proto, simnet, simdisk, raid, virt, cache, qos, security, geo_pfs, core, planes];
    let values: Vec<f64> = groups.iter().flat_map(|g| g(s)).collect();
    assert_eq!(values.len(), ENTRIES, "every ledger entry is measured exactly once");
    NAMES.iter().zip(values).map(|(&(name, unit), value)| Entry { name, unit, value }).collect()
}

/// MB/s of an operation that processes `bytes` in `ns` nanoseconds.
fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / ns * 1e3
}

fn simcore(s: Sampler) -> Vec<f64> {
    // One pop and one schedule against 1024 pending events.
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..1024u64 {
        engine.schedule_at(SimTime(i * 17), i);
    }
    let event = s.ns_per_op(|n| {
        time_ops(n, |_| {
            let (t, v) = engine.pop().expect("1024 events stay pending");
            engine.schedule_at(SimTime(t.nanos() + 17 * 1024), black_box(v));
        })
    });
    let mut rec = SpanRecorder::disabled();
    rec.enable(4096);
    let span =
        s.ns_per_op(|n| time_ops(n, |i| rec.span_at(SimTime(i), SimDuration::from_nanos(50), "bench", "op", 0, i, 0)));
    let mut histo = LatencyHisto::new();
    let record = s.ns_per_op(|n| time_ops(n, |i| histo.record(SimDuration::from_nanos(500 + (i * 7919) % 100_000))));
    black_box(histo.count());
    vec![event, span, record]
}

fn proto(s: Sampler) -> Vec<f64> {
    let mut gen = ys_proto::Workload::zipf(512 << 20, PAGE, 0.9, 0.0, 1);
    vec![s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(gen.next_op());
        })
    })]
}

fn simnet(s: Sampler) -> Vec<f64> {
    let spec = catalog::fibre_channel_2g();
    let mut link = Link::new(spec);
    let mut now = SimTime::ZERO;
    let transfer = s.ns_per_op(|n| time_ops(n, |_| now = link.transfer(now, PAGE).arrival));
    let mut fabric = Fabric::new(12, spec);
    let send =
        s.ns_per_op(|n| time_ops(n, |i| now = fabric.send(now, (i % 8) as usize, 8 + (i % 4) as usize, PAGE).arrival));
    // Eight flows each queue a message, then the port serves all eight.
    let mut port = FairPort::new(spec);
    let serve = s.ns_per_op(|n| {
        let rounds = n.div_ceil(8);
        let (t, _) = time_ops(rounds, |_| {
            for flow in 0..8 {
                port.enqueue(flow, now, PAGE);
            }
            now = port.service().last().expect("eight served").transfer.arrival;
        });
        (t, rounds * 8)
    });
    vec![transfer, send, serve]
}

fn simdisk(s: Sampler) -> Vec<f64> {
    let spec = DiskSpec::cheetah_73();
    let span = spec.capacity_bytes / PAGE;
    let mut farm = DiskFarm::new(16, spec);
    let mut now = SimTime::ZERO;
    let read = |i: u64| DiskOp::Read { offset: (i * 7919 % span) * PAGE, bytes: PAGE };
    let submit = s.ns_per_op(|n| {
        time_ops(n, |i| now = farm.submit(DiskId((i % 16) as usize), now, read(i)).expect("healthy disk"))
    });
    let verified = s.ns_per_op(|n| {
        time_ops(n, |i| now = farm.submit_verified(DiskId((i % 16) as usize), now, read(i)).expect("healthy disk").0)
    });
    // One tag written and read back, over 16 k distinct page slots.
    let tag = s.ns_per_op(|n| {
        time_ops(n, |i| {
            let (disk, offset) = (DiskId((i % 16) as usize), (i % 16_384) * PAGE);
            farm.write_page_tag(disk, offset, [i as u8; ys_simdisk::PAGE_TAG_BYTES]);
            black_box(farm.read_page_tag(disk, offset));
        })
    });
    vec![submit, verified, tag]
}

fn raid(s: Sampler) -> Vec<f64> {
    let geo = Geometry::new(RaidLevel::Raid5, 16, PAGE);
    let healthy = [false; 16];
    let at = |i: u64| (i * 7919 % 32_768) * PAGE;
    let read = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(ys_raid::read_plan(&geo, at(i), PAGE, &healthy).expect("healthy group"));
        })
    });
    let write = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(ys_raid::write_plan(&geo, at(i), PAGE, &healthy).expect("healthy group"));
        })
    });
    let mut rng = Rng::new(1);
    let chunks: Vec<Vec<u8>> = (0..8).map(|_| (0..PAGE).map(|_| rng.next_u64() as u8).collect()).collect();
    let refs: Vec<&[u8]> = chunks.iter().map(Vec::as_slice).collect();
    let stripe = 8 * PAGE as usize;
    let p = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(ys_raid::parity::compute_p(&refs));
        })
    });
    let q = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(ys_raid::parity::compute_q(&refs));
        })
    });
    let batch = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(ys_raid::rebuild_batch_plan(&geo, 3, (i % 1024) * 16, 16));
        })
    });
    vec![read, write, mb_per_s(stripe, p), mb_per_s(stripe, q), batch]
}

fn virt(s: Sampler) -> Vec<f64> {
    const EXTENTS: u64 = 2048;
    let mut vm = VolumeManager::new(PhysicalPool::new(1 << 16, 1 << 20));
    let vol = vm.create("ledger", 0, VolumeKind::DemandMapped, 1 << 20).expect("volume");
    // Mapped in scattered order, as random first writes leave a DMSD.
    for i in 0..EXTENTS {
        vm.write(vol, i * 1031 % EXTENTS, 1).expect("pool has room");
    }
    let translate = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(vm.read(vol, i * 7919 % EXTENTS, 1).expect("in range"));
        })
    });
    let map = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(vm.write(vol, i * 7919 % EXTENTS, 1).expect("already mapped"));
        })
    });
    // First writes into a fresh volume, every other extent so runs never
    // coalesce; a new manager per batch keeps the map at workload size.
    let alloc = s.ns_per_op(|n| {
        let n = n.min(EXTENTS);
        let mut vm = VolumeManager::new(PhysicalPool::new(1 << 16, 1 << 20));
        let vol = vm.create("fresh", 0, VolumeKind::DemandMapped, 1 << 20).expect("volume");
        time_ops(n, |i| {
            black_box(vm.write(vol, i * 2, 1).expect("pool has room"));
        })
    });
    vec![translate, map, alloc]
}

fn cache(s: Sampler) -> Vec<f64> {
    let key = |p: u64| PageKey::new(0, p);
    // Local hits: 4 × 1024 pages, each resident on the blade that reads it.
    let mut cc = CacheCluster::new(4, 1024);
    for p in 0..4096 {
        cc.fill((p % 4) as usize, key(p), Retention::Normal).expect("room");
    }
    let local = s.ns_per_op(|n| {
        time_ops(n, |i| {
            let p = i * 7919 % 4096;
            black_box(cc.read((p % 4) as usize, key(p)).expect("blade up"));
        })
    });
    assert_eq!(cc.stats().remote_hits + cc.stats().misses, 0, "the local-hit entry measured only local hits");
    // Remote hits: blades 0 and 1 hold 2048 pages between them, blade 2
    // reads them in a cycle twice its capacity, so every read is supplied by
    // a peer and installs over an evicted copy.
    let mut cc = CacheCluster::new(3, 1024);
    for p in 0..2048 {
        cc.fill((p / 1024) as usize, key(p), Retention::Normal).expect("room");
    }
    let mut next = 0u64;
    let remote = s.ns_per_op(|n| {
        time_ops(n, |_| {
            let got = cc.read(2, key(next % 2048)).expect("blade up");
            debug_assert!(matches!(got, ReadOutcome::RemoteHit { .. }));
            next += 1;
        })
    });
    assert_eq!(cc.stats().local_hits + cc.stats().misses, 0, "the remote-hit entry measured only remote hits");
    // Miss probe + fill into a full blade: evicts the LRU page every time.
    let mut cc = CacheCluster::new(4, 1024);
    let mut next = 0u64;
    let fill = s.ns_per_op(|n| {
        time_ops(n, |_| {
            let blade = (next % 4) as usize;
            black_box(cc.read(blade, key(next)).expect("blade up"));
            cc.fill(blade, key(next), Retention::Normal).expect("clean pages evict");
            next += 1;
        })
    });
    // 3-way writes and their destages, each timed with the other untimed:
    // at most 512 pages are dirty at once, so placement never stalls.
    let mut cc = CacheCluster::new(4, 1024);
    let mut next = 0u64;
    let write = s.ns_per_op(|n| {
        let n = n.min(512);
        let first = next;
        let out = time_ops(n, |_| {
            cc.write((next % 4) as usize, key(next), 3, Retention::Normal).expect("room for 3 copies");
            next += 1;
        });
        (first..next).for_each(|p| cc.destage(key(p)).expect("dirty page"));
        out
    });
    let destage = s.ns_per_op(|n| {
        let n = n.min(512);
        let first = next;
        for _ in 0..n {
            cc.write((next % 4) as usize, key(next), 3, Retention::Normal).expect("room for 3 copies");
            next += 1;
        }
        time_ops(n, |i| cc.destage(key(first + i)).expect("dirty page"))
    });
    let mut lru: LruList<u64> = LruList::new();
    (0..4096).for_each(|k| lru.insert(k, Retention::Normal));
    let touch = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(lru.touch(&(i * 7919 % 4096)));
        })
    });
    // The scans over a `blade-churn`-sized directory: 16 blades, 16 k clean
    // pages, 1024 dirty 2-way pages, one blade down.
    let mut cc = CacheCluster::new(16, 4096);
    for p in 0..16_384 {
        cc.fill((p % 16) as usize, key(p), Retention::Normal).expect("room");
    }
    for p in 0..1024 {
        cc.write((p % 16) as usize, key(p), 2, Retention::Normal).expect("room");
    }
    cc.fail_blade(0);
    let pages = cc.directory().len() as f64;
    let scan = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(cc.under_target_pages().len());
        })
    });
    let health = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(cc.health());
        })
    });
    // The admission controller samples this on every QoS-admitted request;
    // sized like `nway-write`: 4 × 1024 pages, saturated with dirty copies.
    let mut cc = CacheCluster::new(4, 1024);
    for p in 0..1300 {
        cc.write((p % 4) as usize, key(p), 3, Retention::Normal).expect("room");
    }
    let dirty = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(cc.dirty_ratio());
        })
    });
    vec![local, remote, fill, write, destage, touch, scan / pages, health / pages, dirty]
}

fn qos(s: Sampler) -> Vec<f64> {
    use ys_qos::{AdmissionController, QosClass, QosConfig, TenantSpec};
    let cfg = QosConfig::new()
        .with_tenant(TenantSpec::new(1, "standard", QosClass::Standard))
        .with_tenant(TenantSpec::new(9, "scavenger", QosClass::Scavenger));
    let mut ac = AdmissionController::new(cfg);
    let mut now = SimTime::ZERO;
    // Admissions and completions alternate in blocks: one is timed, the
    // other keeps the in-flight set bounded.
    let admit = s.ns_per_op(|n| {
        let n = n.min(4096);
        let out = time_ops(n, |_| {
            black_box(ac.admit(now, 1, PAGE));
        });
        (0..n).for_each(|_| ac.complete(1, now, now + SimDuration::from_micros(500), PAGE));
        now += SimDuration::from_millis(1);
        out
    });
    let complete = s.ns_per_op(|n| {
        let n = n.min(4096);
        (0..n).for_each(|_| {
            black_box(ac.admit(now, 1, PAGE));
        });
        let out = time_ops(n, |_| ac.complete(1, now, now + SimDuration::from_micros(500), PAGE));
        now += SimDuration::from_millis(1);
        out
    });
    vec![admit, complete]
}

fn security(s: Sampler) -> Vec<f64> {
    use ys_security::{ctr_xor, InitiatorId, Key, LunMask};
    let k = Key::from_seed(7);
    let mut page = vec![0xA5u8; PAGE as usize];
    let bulk = s.ns_per_op(|n| {
        time_ops(n, |i| {
            ctr_xor(&k, i, 0, &mut page);
            black_box(page[0]);
        })
    });
    // What the data path actually ciphers: one 16-byte page tag per page.
    let mut tag = [0x5Au8; ys_simdisk::PAGE_TAG_BYTES];
    let small = s.ns_per_op(|n| {
        time_ops(n, |i| {
            ctr_xor(&k, i, 0, &mut tag);
            black_box(tag[0]);
        })
    });
    let mut mask = LunMask::new();
    for i in 0..64 {
        for v in 0..16 {
            mask.grant(InitiatorId(i), VolumeId(v));
        }
    }
    let lun = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(mask.check_access(InitiatorId((i % 64) as u32), VolumeId((i % 16) as u32)).is_ok());
        })
    });
    vec![mb_per_s(PAGE as usize, bulk), small, lun]
}

fn geo_pfs(s: Sampler) -> Vec<f64> {
    use ys_geo::{ReplicationEngine, SiteId, SiteTopology};
    use ys_pfs::{FileSystem, GeoPolicy};
    let (src, dst) = (SiteId(0), SiteId(1));
    let mut eng = ReplicationEngine::new();
    let mut seq = 0u64;
    // Journal `n` records untimed, then ship them 64 at a time.
    let ship = s.ns_per_op(|n| {
        let n = n.clamp(64, 1 << 16);
        for _ in 0..n {
            eng.enqueue(src, dst, 1, seq * PAGE, PAGE, SimTime(seq));
            seq += 1;
        }
        let t = Instant::now();
        let mut shipped = 0u64;
        while shipped < n {
            shipped += eng.ship(src, dst, 64 * PAGE).len() as u64;
        }
        (t.elapsed(), shipped)
    });
    let topo = SiteTopology::national_lab();
    let policy = GeoPolicy::sync(2);
    let place = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(ys_geo::place(&topo, SiteId((i % 3) as usize), &policy).expect("three sites hold two copies"));
        })
    });
    let mut fs = FileSystem::new((0..4).map(VolumeId).collect(), 1 << 20);
    let mut paths = Vec::new();
    for d in 0..64 {
        fs.mkdir(&format!("/d{d}"), None).expect("fresh directory");
        for f in 0..64 {
            let path = format!("/d{d}/f{f}");
            fs.create(&path, None).expect("fresh file");
            paths.push(path);
        }
    }
    let lookup = s.ns_per_op(|n| {
        time_ops(n, |i| {
            black_box(fs.lookup(&paths[(i * 7919 % 4096) as usize]).expect("file exists"));
        })
    });
    // Sequential 1 MiB appends; a fresh file per batch keeps extent maps at
    // the size the campaign's files reach.
    let mut files = 0u64;
    let write = s.ns_per_op(|n| {
        let n = n.min(4096);
        files += 1;
        let ino = fs.create(&format!("/d0/grow{files}"), None).expect("fresh file");
        time_ops(n, |i| {
            black_box(fs.write(ino, i << 20, 1 << 20).expect("space"));
        })
    });
    vec![ship, place, lookup, write]
}

/// A cluster with `pages` 64 KiB pages of one volume written and flushed.
fn preloaded(cfg: ClusterConfig, pages: u64) -> (BladeCluster, VolumeId, SimTime) {
    let mut c = BladeCluster::new(cfg);
    let vol = c.create_volume("ledger", 0, 1 << 40).expect("volume");
    let t = crate::workloads::preload(&mut c, vol, pages * PAGE, PAGE);
    (c, vol, t)
}

/// `blade-churn` in miniature: 16 blades, 4096 flushed pages, 1024 of them
/// rewritten 2-way and still dirty, blade 0 just failed.
fn degraded() -> (BladeCluster, SimTime) {
    let (mut c, vol, mut t) = preloaded(ClusterConfig::default().with_blades(16), 4096);
    for p in 0..1024u64 {
        t = c.write(t, (p % 8) as usize, vol, p * PAGE, PAGE, 2, Retention::Normal).expect("write").done;
    }
    c.fail_blade(t, 0);
    (c, t)
}

fn core(s: Sampler) -> Vec<f64> {
    // Cached read: a 64-page hot set on the default cluster.
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default(), 64);
    for p in 0..256u64 {
        now = c.read(now, (p % 8) as usize, vol, (p % 64) * PAGE, PAGE).expect("warm").done;
    }
    let hit = s.ns_per_op(|n| {
        time_ops(n, |i| now = c.read(now, (i % 8) as usize, vol, (i % 64) * PAGE, PAGE).expect("read").done)
    });
    // `advance` with nothing pending: the fixed toll on every read and write.
    let advance = s.ns_per_op(|n| {
        time_ops(n, |_| {
            now += SimDuration::from_nanos(100);
            c.advance(now);
        })
    });
    // Missing read: 4096 pages behind 4 × 64 cache slots.
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default().with_cache_pages(64), 4096);
    let miss = s.ns_per_op(|n| {
        time_ops(n, |i| now = c.read(now, (i % 8) as usize, vol, (i * 7919 % 4096) * PAGE, PAGE).expect("read").done)
    });
    // 3-way write into caches already saturated with dirty copies.
    let mut c = BladeCluster::new(ClusterConfig::default().with_cache_pages(256));
    let vol = c.create_volume("ledger", 0, 1 << 40).expect("volume");
    let mut now = SimTime::ZERO;
    let mut write = |c: &mut BladeCluster, i: u64| {
        let off = (i * 7919 % 8192) * PAGE;
        now = c.write(now, (i % 8) as usize, vol, off, PAGE, 3, Retention::Normal).expect("write").done;
    };
    (0..2048).for_each(|i| write(&mut c, i));
    let write_ns = s.ns_per_op(|n| time_ops(n, |i| write(&mut c, 2048 + i)));
    // One replica re-established; a fresh degraded cluster per batch.
    let heal = s.ns_per_op(|n| {
        let (mut c, t) = degraded();
        let work = c.under_target_pages();
        let n = n.min(work.len() as u64);
        time_ops(n, |i| {
            black_box(c.heal_page(t, work[i as usize].0).expect("a peer has room"));
        })
    });
    let (mut c, vol, mut now) = preloaded(ClusterConfig::default(), 4096);
    let verify = s.ns_per_op(|n| {
        time_ops(n, |i| now = c.verify_page(now, (i % 4) as usize, vol, i * 7919 % 4096).expect("verify").done)
    });
    // One rebuild batch (16 rows) claimed, charged and completed.
    let step = s.ns_per_op(|n| {
        let mut c = BladeCluster::new(ClusterConfig::default());
        c.fail_disk(DiskId(3));
        let mut r = Rebuilder::new(&mut c, SimTime::ZERO, DiskId(3), 1 << 30, &[0, 1, 2, 3], 16);
        let n = n.min(1024);
        time_ops(n, |_| {
            black_box(r.step(&mut c).expect("survivors healthy"));
        })
    });
    vec![hit, miss, write_ns, advance, heal, verify, step]
}

/// The model checker's two per-transition costs and the two maintenance
/// planes' per-batch costs.
fn planes(s: Sampler) -> Vec<f64> {
    use ys_check::{CacheModel, Model, Scope};
    use ys_heal::{HealConfig, Healer};
    use ys_scrub::{ScrubConfig, ScrubTarget, Scrubber};
    // A state a few steps into the acceptance scope, so its maps are not
    // empty.
    let mut model = CacheModel::new(Scope::small());
    for op in model.enumerate_ops().into_iter().take(6) {
        model.apply(op);
    }
    let clone = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(model.clone());
        })
    });
    let hash = s.ns_per_op(|n| {
        time_ops(n, |_| {
            black_box(model.canonical_hash());
        })
    });
    // Heal batches of 8 pages until the deficit is gone; a fresh degraded
    // cluster per batch of ticks.
    let heal = s.ns_per_op(|n| {
        let (mut c, mut t) = degraded();
        let mut healer = Healer::new(HealConfig::default());
        let ticks = (c.under_target_pages().len() as u64 / 8).max(1);
        time_ops(n.min(ticks), |_| t = healer.tick(&mut c, t).expect("tick"))
    });
    // Scrub batches of 8 pages over 4096 clean mapped pages.
    let (mut c, _, t) = preloaded(ClusterConfig::default(), 4096);
    let scrub = s.ns_per_op(|n| {
        let mut scrubber = Scrubber::new(ScrubConfig::default(), &c);
        let mut now = t;
        time_ops(n.min(4096 / 8), |_| now = scrubber.tick(&mut ScrubTarget::Cluster(&mut c), now).expect("tick"))
    });
    vec![clone, hash, heal, scrub]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_reports_the_median_time_per_operation() {
        let s = Sampler { batch: Duration::from_micros(200), samples: 5 };
        // A fixture that can only do 10 operations per batch, 1 µs each.
        let mut calls = 0;
        let ns = s.ns_per_op(|n| {
            calls += 1;
            let done = n.min(10);
            (Duration::from_micros(done), done)
        });
        assert_eq!(ns, 1000.0);
        assert!(calls > 5, "calibration batches come before the samples");
    }

    #[test]
    fn names_are_unique_contract_safe_and_prefixed_by_their_crate() {
        let set: std::collections::BTreeSet<_> = NAMES.iter().map(|(n, _)| *n).collect();
        assert_eq!(set.len(), ENTRIES);
        for (name, unit) in NAMES {
            assert!(crate::json::valid_name(name), "{name}");
            assert!(name.contains('.'), "{name} carries its layer as a prefix");
            assert_eq!(unit == "MB/s", name.ends_with("_mb_s"), "{name}");
        }
    }

    #[test]
    fn every_entry_measures_something() {
        // The quickest possible pass: still runs every fixture and every
        // assertion inside the entries.
        let entries = run(Sampler { batch: Duration::from_micros(100), samples: 1 });
        assert_eq!(entries.len(), ENTRIES);
        for e in entries {
            assert!(e.value.is_finite() && e.value > 0.0, "{} = {}", e.name, e.value);
        }
    }
}
