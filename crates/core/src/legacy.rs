//! The traditional dual-controller array — the baseline the paper argues
//! against (§2, §5, §6.1, §7.2).
//!
//! Characteristics faithfully reproduced:
//! * one or two controllers; **active-passive** (all I/O through the
//!   primary) or **active-active** (volumes statically pinned to a
//!   controller — "islands of storage");
//! * **private caches**: a miss in the owning controller's cache goes to
//!   disk even if the partner holds the page;
//! * write-back protected by mirroring to *the* partner: at most one
//!   failure survivable (§6.1: "can survive at most a single
//!   point-of-failure");
//! * fixed provisioning (no demand mapping);
//! * replication only at whole-volume granularity (§7.2).

use crate::config::{blade_cpu, PAGE_BYTES, RAID_CHUNK};
use ys_cache::{LruList, PageKey, Retention};
use ys_raid::{Geometry, RaidLevel};
use ys_simcore::stats::{LatencyHisto, RateMeter};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simdisk::{DiskFarm, DiskId, DiskOp, DiskSpec};
use ys_simnet::{catalog, Link};

/// Failover mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LegacyMode {
    ActivePassive,
    ActiveActive,
}

/// Private cache per controller, in pages: the same 256 MiB a blade holds.
const CACHE_PAGES_PER_CONTROLLER: usize = 4096;

/// Member disks behind the controller pair, one RAID-5 group.
const DISKS: usize = 16;

/// Baseline configuration.
#[derive(Clone, Debug)]
pub struct LegacyConfig {
    pub controllers: usize,
    pub mode: LegacyMode,
}

impl Default for LegacyConfig {
    fn default() -> LegacyConfig {
        LegacyConfig { controllers: 2, mode: LegacyMode::ActiveActive }
    }
}

struct ControllerState {
    /// The private cache: page → (dirty, version), in recency order.
    pages: LruList<PageKey, (bool, u64)>,
    up: bool,
}

/// Baseline statistics.
#[derive(Clone, Debug, Default)]
pub struct LegacyStats {
    pub read_latency: LatencyHisto,
    pub write_latency: LatencyHisto,
    pub read_meter: RateMeter,
    pub write_meter: RateMeter,
    pub hits: u64,
    pub misses: u64,
    pub dirty_pages_lost: u64,
}

/// The array.
pub struct LegacyArray {
    cfg: LegacyConfig,
    controllers: Vec<ControllerState>,
    pub farm: DiskFarm,
    raid: Geometry,
    host_links: Vec<Link>,
    cpus: Vec<Link>,
    mirror_link: Link,
    version: u64,
    pub stats: LegacyStats,
}

impl LegacyArray {
    pub fn new(cfg: LegacyConfig) -> LegacyArray {
        assert!(cfg.controllers >= 1 && cfg.controllers <= 2, "traditional arrays have 1–2 controllers");
        let raid = Geometry::new(RaidLevel::Raid5, DISKS, RAID_CHUNK);
        LegacyArray {
            controllers: (0..cfg.controllers)
                .map(|_| ControllerState { pages: LruList::new(), up: true })
                .collect(),
            farm: DiskFarm::new(DISKS, DiskSpec::cheetah_73()),
            raid,
            host_links: (0..cfg.controllers).map(|_| Link::new(catalog::fibre_channel_2g())).collect(),
            cpus: (0..cfg.controllers).map(|_| Link::new(blade_cpu())).collect(),
            mirror_link: Link::new(catalog::fibre_channel_2g()),
            version: 0,
            cfg,
            stats: LegacyStats::default(),
        }
    }

    pub fn config(&self) -> &LegacyConfig {
        &self.cfg
    }

    /// Which controller owns I/O for `vol`.
    fn owner(&self, vol: u32) -> Option<usize> {
        match self.cfg.mode {
            LegacyMode::ActivePassive => {
                // Primary first; fail over to the partner.
                (0..self.cfg.controllers).find(|&c| self.controllers[c].up)
            }
            LegacyMode::ActiveActive => {
                let pinned = vol as usize % self.cfg.controllers;
                if self.controllers[pinned].up {
                    Some(pinned)
                } else {
                    (0..self.cfg.controllers).find(|&c| self.controllers[c].up)
                }
            }
        }
    }

    fn partner(&self, c: usize) -> Option<usize> {
        (self.cfg.controllers == 2).then(|| 1 - c).filter(|&p| self.controllers[p].up)
    }

    fn evict_for(&mut self, c: usize) {
        let pages = &mut self.controllers[c].pages;
        while pages.len() >= CACHE_PAGES_PER_CONTROLLER {
            // Dirty pages veto their own eviction.
            if pages.evict_where(|_, &(dirty, _)| dirty).is_none() {
                // Cache saturated with dirty pages: drop the oldest dirty
                // one after an (implicit, already-charged) destage.
                let Some(&k) = pages.band_iter(Retention::Normal).last() else { return };
                pages.remove(&k);
            }
        }
    }

    /// `None` when a member disk cannot serve the read (failed through the
    /// public `farm`, or the range lies past its end).
    fn charge_disk_read(&mut self, t: SimTime, phys: u64, len: u64) -> Option<SimTime> {
        let plan = ys_raid::read_plan(&self.raid, phys, len, &[false; DISKS]).ok()?;
        let mut done = t;
        for io in &plan.reads {
            let d = self
                .farm
                .submit(DiskId(io.member), t, DiskOp::Read { offset: io.offset, bytes: io.bytes })
                .ok()?;
            done = done.max(d);
        }
        Some(done)
    }

    fn charge_disk_write(&mut self, t: SimTime, phys: u64, len: u64) {
        if let Ok(plan) = ys_raid::write_plan(&self.raid, phys, len, &[false; DISKS]) {
            let mut start = t;
            for io in &plan.reads {
                if let Ok(d) = self.farm.submit(DiskId(io.member), t, DiskOp::Read { offset: io.offset, bytes: io.bytes }) {
                    start = start.max(d);
                }
            }
            for io in &plan.writes {
                let _ = self.farm.submit(DiskId(io.member), start, DiskOp::Write { offset: io.offset, bytes: io.bytes });
            }
        }
    }

    /// Read through the owning controller's private cache. `None` when no
    /// controller is up or the disks cannot serve a missed page.
    pub fn read(&mut self, now: SimTime, vol: u32, offset: u64, len: u64) -> Option<SimDuration> {
        let c = self.owner(vol)?;
        let pb = PAGE_BYTES;
        let t0 = self.host_links[c].transfer(now, 64).arrival;
        let mut ready = t0;
        for page in offset / pb..=(offset + len - 1) / pb {
            let key = PageKey::new(vol, page);
            let done = if self.controllers[c].pages.touch(&key) {
                self.stats.hits += 1;
                self.cpus[c].transfer(t0, pb.min(len)).arrival
            } else {
                self.stats.misses += 1;
                let disk_done = self.charge_disk_read(t0, page * pb, pb)?;
                self.evict_for(c);
                self.controllers[c].pages.put(key, (false, self.version), Retention::Normal);
                self.cpus[c].transfer(disk_done, pb.min(len)).arrival
            };
            ready = ready.max(done);
        }
        let arrival = self.host_links[c].transfer(ready, len).arrival;
        let lat = arrival.since(now);
        self.stats.read_latency.record(lat);
        self.stats.read_meter.record(arrival, len);
        Some(lat)
    }

    /// Write-back through the owner, mirrored to the single partner.
    pub fn write(&mut self, now: SimTime, vol: u32, offset: u64, len: u64) -> Option<SimDuration> {
        let c = self.owner(vol)?;
        let pb = PAGE_BYTES;
        let t0 = self.host_links[c].transfer(now, len).arrival;
        self.version += 1;
        let mut ack = t0;
        for page in offset / pb..=(offset + len - 1) / pb {
            let key = PageKey::new(vol, page);
            self.evict_for(c);
            self.controllers[c].pages.put(key, (true, self.version), Retention::Normal);
            let cpu = self.cpus[c].transfer(t0, pb.min(len)).arrival;
            // Mirror dirty data to the partner (the only protection level).
            let mirrored = match self.partner(c) {
                Some(p) => {
                    let m = self.mirror_link.transfer(t0, pb).arrival;
                    self.evict_for(p);
                    self.controllers[p].pages.put(key, (true, self.version), Retention::Normal);
                    m
                }
                None => cpu,
            };
            ack = ack.max(cpu).max(mirrored);
            // Background destage.
            self.charge_disk_write(ack, page * pb, pb.min(len));
        }
        let lat = ack.since(now);
        self.stats.write_latency.record(lat);
        self.stats.write_meter.record(ack, len);
        Some(lat)
    }

    /// Fail a controller. Dirty pages without a live mirror are lost.
    // lint: allow(dead-pub) — (c) the dual-controller baseline's failure, driven by tests/baseline_comparison.rs
    pub fn fail_controller(&mut self, c: usize) -> u64 {
        if !self.controllers[c].up {
            return 0;
        }
        self.controllers[c].up = false;
        let held = std::mem::take(&mut self.controllers[c].pages);
        let mut lost = 0;
        for (key, &(dirty, version)) in held.iter() {
            if dirty {
                let survives = (0..self.cfg.controllers).any(|o| {
                    o != c && self.controllers[o].up && self.controllers[o].pages.get(key).is_some_and(|&(d, v)| d && v == version)
                });
                if !survives {
                    lost += 1;
                }
            }
        }
        self.stats.dirty_pages_lost += lost;
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> LegacyArray {
        LegacyArray::new(LegacyConfig::default())
    }

    #[test]
    fn active_active_pins_volumes() {
        let a = array();
        assert_eq!(a.owner(0), Some(0));
        assert_eq!(a.owner(1), Some(1));
        assert_eq!(a.owner(2), Some(0));
    }

    #[test]
    fn active_passive_routes_everything_to_primary() {
        let cfg = LegacyConfig { mode: LegacyMode::ActivePassive, ..LegacyConfig::default() };
        let mut a = LegacyArray::new(cfg);
        assert_eq!(a.owner(0), Some(0));
        assert_eq!(a.owner(7), Some(0));
        a.fail_controller(0);
        assert_eq!(a.owner(7), Some(1), "failover to partner");
    }

    #[test]
    fn private_caches_do_not_share() {
        let mut a = array();
        // Volume 0 → controller 0; warm its cache.
        a.write(SimTime::ZERO, 0, 0, 64 * 1024);
        let before = a.stats.misses;
        // Volume 1 → controller 1 reads the same LBA range of ITS volume:
        // no sharing possible (different volume), but also re-reading
        // volume 0 through controller 1 can't happen (ownership). Verify a
        // read of volume 0 hits only controller 0's cache.
        a.read(SimTime::ZERO, 0, 0, 64 * 1024);
        assert_eq!(a.stats.misses, before, "read served from owner's cache");
        assert!(a.stats.hits >= 1);
    }

    #[test]
    fn single_failure_survives_second_loses() {
        let mut a = array();
        a.write(SimTime::ZERO, 0, 0, 64 * 1024);
        // Mirrored to partner: first failure loses nothing.
        assert_eq!(a.fail_controller(0), 0);
        // Partner now holds the only dirty copy: second failure loses it.
        assert!(a.fail_controller(1) > 0, "dual-controller cannot survive 2 failures");
    }

    #[test]
    fn reads_and_writes_complete_with_plausible_latency() {
        let mut a = array();
        let w = a.write(SimTime::ZERO, 0, 0, 64 * 1024).unwrap();
        assert!(w < SimDuration::from_millis(5));
        let r = a.read(SimTime(10_000_000), 0, 0, 64 * 1024).unwrap();
        assert!(r < SimDuration::from_millis(5), "cached read {r}");
        let cold = a.read(SimTime(20_000_000), 0, 100 << 20, 64 * 1024).unwrap();
        assert!(cold > SimDuration::from_millis(2), "cold read pays disk {cold}");
    }
}

#[cfg(test)]
mod hotspot_tests {
    use super::*;

    #[test]
    fn hot_volume_saturates_its_owning_controller() {
        // The §2 "hot spot" pathology, reproduced on the baseline: all
        // traffic to volume 0 funnels through controller 0 while
        // controller 1 idles.
        let mut a = LegacyArray::new(LegacyConfig::default());
        let mut t = SimTime::ZERO;
        for i in 0..200u64 {
            a.write(t, 0, (i % 64) * 64 * 1024, 64 * 1024);
            t = SimTime(t.nanos() + 100_000);
        }
        let utils: Vec<f64> = a.cpus.iter().map(|c| c.utilization(t)).collect();
        assert!(utils[0] > utils[1] * 5.0, "owning controller is the hot spot: {utils:?}");
    }

    #[test]
    fn single_controller_array_loses_on_first_failure() {
        let mut a = LegacyArray::new(LegacyConfig { controllers: 1, mode: LegacyMode::ActivePassive });
        a.write(SimTime::ZERO, 0, 0, 64 * 1024);
        assert!(a.fail_controller(0) > 0, "no mirror, immediate loss");
        assert!(a.read(SimTime(1), 0, 0, 512).is_none(), "array is dead");
    }

    #[test]
    fn cache_eviction_under_pressure_keeps_serving() {
        let mut a = LegacyArray::new(LegacyConfig::default());
        let mut t = SimTime::ZERO;
        for i in 0..CACHE_PAGES_PER_CONTROLLER as u64 + 100 {
            a.write(t, 0, i * 64 * 1024, 64 * 1024);
            t = SimTime(t.nanos() + 1_000_000);
        }
        // Old pages were evicted; re-reading them goes to disk.
        let miss_before = a.stats.misses;
        a.read(t, 0, 0, 64 * 1024);
        assert!(a.stats.misses > miss_before, "early page was evicted");
    }
}
