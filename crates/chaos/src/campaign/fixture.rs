//! What every campaign starts from: [`Fixture::build`] makes it, once per
//! thread, and [`Fixture::cloned`] hands out clones of it.

use super::{integ_target_pages, BLADES_PER_SITE, DISKS_PER_SITE, PAGE, SITES, WRITE_BACK_COPIES};
use ys_core::{BladeCluster, NetStorage, NetStorageConfig};
use ys_geo::SiteId;
use ys_pfs::{FilePolicy, GeoPolicy, Ino};
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_simcore::time::SimTime;
use ys_virt::VolumeId;

/// What every campaign starts from: the multi-site cluster with its
/// workload files, probe volumes and integrity volumes written, destaged
/// and audited. Two campaigns start from identical clusters whatever their
/// seed, length or schedule — [`Fixture::build`] reads no config at all.
/// Plain owned data all the way down, so a clone shares nothing with its
/// original.
#[derive(Clone)]
pub(super) struct Fixture {
    // Each becomes the [`Campaign`] field of the same name.
    pub(super) ns: NetStorage,
    pub(super) files: Vec<(Ino, usize)>,
    pub(super) probes: Vec<Vec<(u32, VolumeId)>>,
    pub(super) integ_vols: Vec<VolumeId>,
}

thread_local! {
    /// This thread's fixture, built on first use: the callers that matter
    /// — a sweep worker, the shrinker, the benchmark — run hundreds of
    /// campaigns each. It keeps a clone, not the build itself, because a
    /// clone's buffers are sized to their contents while the build's keep
    /// the slack they grew into, and this copy lives as long as the thread.
    static FIXTURE: Fixture = Fixture::build().clone();
}

impl Fixture {
    /// A fixture for one campaign to consume: a clone of this thread's.
    pub(super) fn cloned() -> Fixture {
        FIXTURE.with(Fixture::clone)
    }

    /// Build the clusters and everything a campaign expects to find on
    /// them before its first step.
    pub(super) fn build() -> Fixture {
        let qos = QosConfig::new()
            .with_tenant(TenantSpec::new(1, "premium", QosClass::Premium))
            .with_tenant(TenantSpec::new(2, "standard", QosClass::Standard))
            .with_tenant(TenantSpec::new(3, "scavenger", QosClass::Scavenger));
        let site_cluster =
            ys_core::ClusterConfig::default().with_blades(BLADES_PER_SITE).with_disks(DISKS_PER_SITE).with_qos(qos);
        let mut ns = NetStorage::new(NetStorageConfig {
            site_cluster,
            ..NetStorageConfig::default()
        });

        // Workload files: two per site; site-0 files replicate async so the
        // geo path is always in play.
        if let Err(e) = ns.fs.mkdir("/camp", None) {
            panic!("campaign setup: mkdir /camp: {e}"); // lint: allow(panic-path) — harness setup, not simulated fault path
        }
        let mut files = Vec::new();
        for site in 0..SITES {
            for f in 0..2usize {
                let geo = if site == 0 { GeoPolicy::async_(2) } else { GeoPolicy::none() };
                let policy = FilePolicy {
                    geo,
                    write_back_copies: WRITE_BACK_COPIES,
                    ..FilePolicy::default()
                };
                let path = format!("/camp/s{site}f{f}.dat");
                match ns.create_file(&path, policy, SiteId(site)) {
                    Ok(ino) => files.push((ino, site)),
                    Err(e) => panic!("campaign setup: create {path}: {e}"), // lint: allow(panic-path) — harness setup
                }
            }
        }

        // QoS probe volumes, pre-populated then destaged so probes read
        // clean pages and measure admission, not cold misses.
        let mut probes = Vec::new();
        for site in 0..SITES {
            let mut row = Vec::new();
            for tenant in 1..=3u32 {
                let name = format!("probe-t{tenant}");
                row.push((tenant, written_volume(&mut ns.clusters[site], &name, tenant, 64 << 20, 1 << 20)));
            }
            ns.clusters[site].drain();
            probes.push(row);
        }

        // Integrity volumes: pre-written cold data for the schedule's
        // latent errors to rot. Sized so the corruptible tail sits past
        // the rebuild region on every member (see `integ_target_pages`);
        // written with one cache copy so the scrubber's replica source
        // stays plausible, then destaged so the data is at rest.
        let mut integ_vols = Vec::new();
        let integ_bytes = integ_target_pages().end * PAGE;
        for site in 0..SITES {
            let c = &mut ns.clusters[site];
            integ_vols.push(written_volume(c, "integrity", 0, integ_bytes, integ_bytes));
            c.drain();
        }

        // One full audit per site here instead of one per campaign: a clean
        // answer opens the cache's change journal, clones inherit it open,
        // and each campaign's first per-step audit is a checkpoint of what
        // its first step touched. A violation leaves the journal closed,
        // so every campaign's own first audit still finds and reports it.
        for cluster in &mut ns.clusters {
            cluster.cache.audit_checkpoint();
        }
        Fixture { ns, files, probes, integ_vols }
    }
}

/// A new volume on `c` with its first `fill` bytes written at setup, 1 MiB
/// at a time and one cache copy each; the caller destages them.
fn written_volume(c: &mut BladeCluster, name: &str, tenant: u32, size: u64, fill: u64) -> VolumeId {
    let vol = match c.create_volume(name, tenant, size) {
        Ok(vol) => vol,
        Err(e) => panic!("campaign setup: {name} volume: {e}"), // lint: allow(panic-path) — harness setup
    };
    let mut off = 0;
    while off < fill {
        if let Err(e) = c.write(SimTime::ZERO, 0, vol, off, 1 << 20, 1, ys_cache::Retention::Normal) {
            panic!("campaign setup: {name} fill: {e}"); // lint: allow(panic-path) — harness setup
        }
        off += 1 << 20;
    }
    vol
}
