//! The six named workloads and what they share: the closed-loop driver, the
//! shape of one repetition's result, and the boundary counters read off a
//! [`BladeCluster`] through its public fields.
//!
//! Load shape: one process, one host thread, eight *virtual* closed-loop
//! clients — each issues its next operation when its previous one completes
//! in simulated time. Work is a fixed operation count per repetition, so
//! every simulated number and every count repeats exactly for a seed; only
//! the host clock varies between repetitions.

mod campaigns;
mod churn;
mod io;

use crate::spans::{Kind, Tracer};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;
use ys_cache::Retention;
use ys_core::{BladeCluster, ClusterError};
use ys_simcore::stats::LatencyHisto;
use ys_simcore::time::{throughput_mb_per_sec, SimDuration, SimTime};
use ys_virt::VolumeId;

/// Virtual closed-loop clients driving every I/O workload.
pub const CLIENTS: usize = 8;

/// Name → value, sorted by name. Counts and simulated metrics are exact:
/// two repetitions of one (code, seed) must produce equal maps.
pub type Values = BTreeMap<&'static str, f64>;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// What one `op` of `host_ops_per_s` is.
    pub op: &'static str,
    /// One line: why the workload exists (recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether `--seed` reaches a generator (`check-explore` enumerates a
    /// fixed state space and takes none).
    pub seeded: bool,
    run: fn(seed: u64, scale: u64, tr: &mut Tracer) -> Rep,
}

impl Workload {
    /// One repetition on fresh state. `scale` divides the operation counts
    /// (1 = the sizes in the README; the tests use 100).
    pub fn run(&self, seed: u64, scale: u64, tr: &mut Tracer) -> Rep {
        (self.run)(seed, scale.max(1), tr)
    }
}

pub const ALL: [Workload; 6] = [
    Workload {
        name: "hot-read",
        op: "client read",
        why: "Zipf reads inside the pooled cache: cache directory/LRU, fabric hop and dispatch do the work; disk/RAID/virt idle",
        seeded: true,
        run: io::hot_read,
    },
    Workload {
        name: "cold-scan",
        op: "client read",
        why: "uniform 256 KiB reads over 32x the cache, RAID6, ciphered: virt/RAID/disk/decipher/fill-evict dominate; hit paths idle",
        seeded: true,
        run: io::cold_scan,
    },
    Workload {
        name: "nway-write",
        op: "client write",
        why: "3-copy QoS-admitted writes under steady dirty eviction: replica placement, destage, parity RMW, DMSD allocation, admission",
        seeded: true,
        run: io::nway_write,
    },
    Workload {
        name: "blade-churn",
        op: "replica placed + page scrubbed + rebuild batch",
        why: "16 blades failed/healed/rejoined in turn, then scrub and rebuild: the scan-shaped maintenance paths; little foreground I/O",
        seeded: true,
        run: churn::blade_churn,
    },
    Workload {
        name: "chaos-campaign",
        op: "campaign step",
        why: "3-site fault campaigns: pfs, geo ship/ack over the WAN, proto, fault injection and the oracle all run together",
        seeded: true,
        run: campaigns::chaos_campaign,
    },
    Workload {
        name: "check-explore",
        op: "state visited",
        why: "model-checker BFS over the cache model: state clone + canonical hash + seen-set, i.e. the cost of CacheCluster's size",
        seeded: false,
        run: campaigns::check_explore,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// What one repetition measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds before the measured phase: build, preload, drain, warm-up.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Operations attempted in the measured phase (the workload's `op`).
    pub ops: u64,
    /// Operations that failed or were refused (sheds count as failed).
    pub failed: u64,
    /// Simulated results (`sim.*`), pure functions of (code, seed).
    pub sim: Values,
    /// Counters read at layer boundaries over the measured phase.
    pub counts: Values,
    /// In-run correctness checks that did not hold; empty on a good run.
    pub problems: Vec<String>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, claim: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(claim());
        }
    }
}

/// Simulated outcome of the client operations of one measured phase.
#[derive(Debug)]
pub struct ClientStats {
    pub ops: u64,
    pub failed: u64,
    pub bytes: u64,
    pub start: SimTime,
    pub end: SimTime,
    pub latency: LatencyHisto,
    /// First few failures, for the problem report.
    pub errors: Vec<String>,
    next_request: u32,
}

impl ClientStats {
    pub fn new(start: SimTime) -> ClientStats {
        ClientStats {
            ops: 0,
            failed: 0,
            bytes: 0,
            start,
            end: start,
            latency: LatencyHisto::new(),
            errors: Vec::new(),
            next_request: 1,
        }
    }

    /// Record the `sim.*` client metrics and the failure list into `rep`.
    /// At full size (`scale == 1`) a p99 must rest on at least 1000 samples.
    pub fn report(&self, rep: &mut Rep, scale: u64) {
        rep.sim.insert("sim.mb_per_s", throughput_mb_per_sec(self.bytes, self.end.since(self.start)));
        rep.sim.insert("sim.p50_us", self.latency.p50().as_micros_f64());
        rep.sim.insert("sim.p99_us", self.latency.p99().as_micros_f64());
        rep.check(scale > 1 || self.latency.count() >= 1000, || {
            format!("only {} latency samples behind sim.p99_us", self.latency.count())
        });
        for e in &self.errors {
            rep.problems.push(format!("client op failed: {e}"));
        }
    }
}

/// What a client operation reports back to the loop.
pub type Issued = Result<(SimTime, u64), ClusterError>;

/// Run `CLIENTS` closed-loop clients from `start` until `ops` operations
/// have been issued in total, through `issue(tracer, client, now, request)`
/// → `(done, bytes)`. Same discipline as `ys_bench::closed_loop`: a binary
/// heap orders clients by next-issue time, so the cluster sees requests in
/// global simulated-time order. A failed operation is counted and its client
/// retries a simulated millisecond later.
pub fn closed_loop(
    tr: &mut Tracer,
    stats: &mut ClientStats,
    start: SimTime,
    ops: u64,
    mut issue: impl FnMut(&mut Tracer, usize, SimTime, u32) -> Issued,
) {
    let span = tr.enter(Kind::Driver, 0);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..CLIENTS).map(|c| Reverse((start.nanos(), c))).collect();
    for _ in 0..ops {
        let Reverse((t, client)) = heap.pop().expect("every client stays in the heap");
        let now = SimTime(t);
        let request = stats.next_request;
        stats.next_request = stats.next_request.wrapping_add(1);
        stats.ops += 1;
        let next = match issue(tr, client, now, request) {
            Ok((done, bytes)) => {
                stats.bytes += bytes;
                stats.latency.record(done.since(now));
                stats.end = stats.end.max(done);
                done
            }
            Err(e) => {
                stats.failed += 1;
                if stats.errors.len() < 4 {
                    stats.errors.push(e.to_string());
                }
                now + SimDuration::from_millis(1)
            }
        };
        heap.push(Reverse((next.nanos(), client)));
    }
    tr.exit(span);
}

/// Write `[0, bytes)` of `vol` once in `io`-sized single-copy writes and
/// flush, so every page is mapped, stamped on the media and clean.
pub fn preload(c: &mut BladeCluster, vol: VolumeId, bytes: u64, io: u64) -> SimTime {
    let mut t = SimTime::ZERO;
    for (i, off) in (0..bytes).step_by(io as usize).enumerate() {
        t = c.write(t, i % CLIENTS, vol, off, io, 1, Retention::Normal).expect("preload write").done;
    }
    t.max(c.drain())
}

/// The phases of a single-cluster I/O repetition.
pub struct Phases<'a> {
    /// When the repetition's set-up began on the host clock.
    pub setup: Instant,
    /// Simulated time the clients start at (after any preload).
    pub start: SimTime,
    /// Untimed warm-up operations: caches fill and reach their steady state
    /// before timing starts. Neither traced nor counted.
    pub warm: u64,
    /// Measured operations.
    pub ops: u64,
    /// Operation counts are the README's divided by this.
    pub scale: u64,
    /// QoS tenants whose admission counters are summed into `qos.*`.
    pub tenants: &'a [u32],
}

/// Warm up, then run the measured closed loop under the root span, then
/// `finish` (still measured — e.g. the final `drain`), and collect client
/// metrics and boundary counts of the measured phase only.
pub fn warm_then_measure(
    c: &mut BladeCluster,
    p: Phases<'_>,
    tr: &mut Tracer,
    mut issue: impl FnMut(&mut BladeCluster, &mut Tracer, usize, SimTime, u32) -> Issued,
    finish: impl FnOnce(&mut BladeCluster, &mut Tracer),
) -> Rep {
    let mut warm = ClientStats::new(p.start);
    closed_loop(&mut Tracer::off(), &mut warm, p.start, p.warm, |tr, cl, now, req| issue(c, tr, cl, now, req));
    let before = cluster_counters(c, p.tenants);
    let mut rep = Rep { setup_s: p.setup.elapsed().as_secs_f64(), ..Rep::default() };

    let measured = Instant::now();
    let root = tr.enter(Kind::Measure, 0);
    let mut stats = ClientStats::new(warm.end);
    closed_loop(tr, &mut stats, warm.end, p.ops, |tr, cl, now, req| issue(c, tr, cl, now, req));
    finish(c, tr);
    tr.exit(root);
    rep.wall_s = measured.elapsed().as_secs_f64();

    rep.ops = stats.ops;
    rep.failed = stats.failed + warm.failed;
    stats.report(&mut rep, p.scale);
    rep.counts = measured_counts(c, p.tenants, &before);
    rep
}

/// Cumulative boundary counters of a cluster, read through its public
/// fields. Subtract a snapshot taken after set-up to get the measured
/// phase's counts.
pub fn cluster_counters(c: &BladeCluster, tenants: &[u32]) -> Values {
    let mut v = Values::new();
    let cs = c.cache.stats();
    v.insert("cache.local_hits", cs.local_hits as f64);
    v.insert("cache.remote_hits", cs.remote_hits as f64);
    v.insert("cache.misses", cs.misses as f64);
    v.insert("cache.evictions", cs.evictions as f64);
    v.insert("cache.destages", cs.destages as f64);
    v.insert("cache.replica_placements", cs.replica_placements as f64);
    v.insert("cache.heal_placements", cs.heal_placements as f64);
    let s = &c.stats;
    v.insert("core.reads_from_disk", s.reads_from_disk as f64);
    v.insert("core.prefetch_hits", s.prefetch_hits as f64);
    v.insert("core.integrity_errors", s.integrity_errors as f64);
    v.insert("core.pages_evacuated", s.pages_evacuated as f64);
    v.insert("core.client_reads", s.read_latency.count() as f64);
    v.insert("core.client_writes", s.write_latency.count() as f64);
    v.insert("security.pages_ciphered", s.pages_ciphered as f64);
    v.insert("security.pages_deciphered", s.pages_deciphered as f64);
    let (mut reads, mut writes, mut bytes_read, mut bytes_written) = (0u64, 0u64, 0u64, 0u64);
    for d in 0..c.farm.len() {
        let disk = c.farm.disk(ys_simdisk::DiskId(d));
        reads += disk.reads();
        writes += disk.writes();
        bytes_read += disk.bytes_read();
        bytes_written += disk.bytes_written();
    }
    v.insert("simdisk.reads", reads as f64);
    v.insert("simdisk.writes", writes as f64);
    v.insert("simdisk.bytes_read", bytes_read as f64);
    v.insert("simdisk.bytes_written", bytes_written as f64);
    let fc_bytes: u64 = c.disk_link_traffic().iter().map(|&(_, b)| b).sum();
    v.insert("simnet.disk_fc_bytes", fc_bytes as f64);
    let (mut admitted, mut throttled, mut shed) = (0u64, 0u64, 0u64);
    for &t in tenants {
        if let Some(q) = c.qos().stats(t) {
            admitted += q.admitted;
            throttled += q.throttled;
            shed += q.shed;
        }
    }
    v.insert("qos.admitted", admitted as f64);
    v.insert("qos.throttled", throttled as f64);
    v.insert("qos.shed", shed as f64);
    v
}

/// The counters now minus `before` (a snapshot taken after set-up), plus the
/// levels and ratios that are not differences: pool occupancy, directory
/// size and the measured-phase cache hit ratio.
pub fn measured_counts(c: &BladeCluster, tenants: &[u32], before: &Values) -> Values {
    let mut v = cluster_counters(c, tenants);
    for (k, x) in v.iter_mut() {
        *x -= before.get(k).copied().unwrap_or(0.0);
    }
    v.insert("virt.pool_used_extents", c.pool_used_extents() as f64);
    v.insert("cache.directory_pages", c.cache.directory().len() as f64);
    let hits = v["cache.local_hits"] + v["cache.remote_hits"];
    let lookups = hits + v["cache.misses"];
    v.insert("cache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
    v
}
