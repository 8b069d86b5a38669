//! Seeded end-to-end latent-error campaigns.
//!
//! A campaign builds a three-site NetStorage system, lays data with four
//! different protection postures, injects a seeded batch of latent media
//! errors across all of them, scrubs every site, and audits the outcome:
//! every injected corruption must be detected and either repaired — with
//! the repair source attributed — or explicitly declared lost. Reads
//! after the scrub must never return mismatched bytes silently: clean
//! data reads clean, declared-lost data errors loudly.

use crate::scrubber::{ScrubConfig, ScrubReport, ScrubTarget, Scrubber};
use ys_cache::PageKey;
use ys_core::harness::{Campaign, CampaignRun};
use ys_core::{ClusterConfig, ClusterError, NetError, NetStorage, NetStorageConfig, PAGE_BYTES};
use ys_geo::SiteId;
use ys_pfs::{FilePolicy, GeoPolicy};
use ys_raid::RaidLevel;
use ys_simcore::time::SimTime;
use ys_simcore::Rng;

/// Which protection posture a corruption was injected under — and thus
/// which repair source (or loss) the audit expects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ErrorClass {
    /// Healthy RAID5 data: parity reconstructs the span.
    Parity,
    /// RAID0 data, page still cache-resident: replica rewrite.
    Replica,
    /// RAID0 data, cache cold, sync geo replica: remote re-fetch.
    Geo,
    /// RAID0 data, cache cold, no replica anywhere: explicit loss.
    Loss,
}

impl ErrorClass {
    fn name(self) -> &'static str {
        match self {
            ErrorClass::Parity => "parity",
            ErrorClass::Replica => "replica",
            ErrorClass::Geo => "geo",
            ErrorClass::Loss => "loss",
        }
    }
}

/// One injected latent error, for the audit trail.
#[derive(Clone, Copy, Debug)]
struct Injected {
    class: ErrorClass,
    site: SiteId,
    vol: ys_virt::VolumeId,
    page: u64,
    disk: ys_simdisk::DiskId,
    offset: u64,
}

/// Latent errors one campaign injects, spread round-robin over the four
/// classes.
const ERRORS: usize = 64;

/// Campaign parameters.
#[derive(Clone, Debug, Default)]
pub struct CampaignConfig {
    /// Seed for the injection schedule.
    pub seed: u64,
}

impl Campaign for CampaignConfig {
    const BIN: &'static str = "ys-scrub";

    fn seed(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn run(&self) -> CampaignRun {
        let report = run_campaign(self);
        CampaignRun { transcript: report.to_string(), reproducer: String::new(), ok: report.ok }
    }
}

/// Campaign outcome: the per-site scrub reports plus the audit verdict.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Errors actually injected.
    pub injected: usize,
    /// Injected count per class: parity / replica / geo / loss.
    pub injected_per_class: [usize; 4],
    /// Scrub report per site id.
    pub site_reports: Vec<ScrubReport>,
    /// Mismatched pages detected across all sites.
    pub detected: u64,
    /// Pages repaired from parity across all sites.
    pub repaired_parity: u64,
    /// Pages repaired from a cached replica across all sites.
    pub repaired_replica: u64,
    /// Pages repaired from a geo remote copy across all sites.
    pub repaired_geo: u64,
    /// Pages explicitly declared lost across all sites.
    pub declared_lost: u64,
    /// Injected corruptions neither cleared from the media nor covered by
    /// a `ScrubLoss` declaration — the silent residue. Must be zero.
    pub unaccounted: usize,
    /// Post-scrub foreground reads that returned mismatched data without
    /// an error. Must be zero, always.
    pub silent_reads: u64,
    /// Post-scrub reads of declared-lost data that correctly errored.
    pub explicit_loss_reads: u64,
    /// Human-readable campaign transcript.
    pub lines: Vec<String>,
    /// The audit verdict.
    pub ok: bool,
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for l in &self.lines {
            writeln!(f, "{l}")?;
        }
        Ok(())
    }
}

const FILE_MB: u64 = 8;

/// Run one seeded campaign end to end. Deterministic: the transcript and
/// verdict are pure functions of the config.
fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut r = CampaignReport::default();
    match drive(cfg, &mut r) {
        Ok(()) => {}
        Err(e) => {
            r.lines.push(format!("campaign aborted: {e}"));
            r.ok = false;
        }
    }
    r
}

enum CampaignError {
    Net(NetError),
    Cluster(ClusterError),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Net(e) => write!(f, "{e}"),
            CampaignError::Cluster(e) => write!(f, "{e}"),
        }
    }
}

impl From<NetError> for CampaignError {
    fn from(e: NetError) -> Self {
        CampaignError::Net(e)
    }
}

impl From<ClusterError> for CampaignError {
    fn from(e: ClusterError) -> Self {
        CampaignError::Cluster(e)
    }
}

fn drive(cfg: &CampaignConfig, r: &mut CampaignReport) -> Result<(), CampaignError> {
    // Group 0: the default RAID5 pool (parity repairs). Group 1: a RAID0
    // class — the §4 per-file override — whose data has no on-site
    // redundancy, forcing repair to fall through to replica/geo sources.
    let site_cluster = ClusterConfig::default()
        .with_blades(2)
        .with_disks(6)
        .with_clients(2)
        .with_extra_group(RaidLevel::Raid0, 4, 64 << 10);
    let mut ns = NetStorage::new(NetStorageConfig { site_cluster, ..NetStorageConfig::default() });
    r.lines.push(format!(
        "ys-scrub campaign: seed {} errors {ERRORS} over 3 sites (RAID5 pool + RAID0 class)",
        cfg.seed
    ));

    // Four files, one protection posture each.
    let raid0 = Some(RaidLevel::Raid0);
    let classes = [
        (ErrorClass::Parity, "/parity.dat", SiteId(0), GeoPolicy::none(), None),
        (ErrorClass::Replica, "/replica.dat", SiteId(1), GeoPolicy::none(), raid0),
        (ErrorClass::Geo, "/geo.dat", SiteId(2), GeoPolicy::sync(2), raid0),
        (ErrorClass::Loss, "/loss.dat", SiteId(2), GeoPolicy::none(), raid0),
    ];
    let mut t = SimTime::ZERO;
    // Per class: the file's volume and its (file offset, volume page) map.
    let mut vols = Vec::new();
    let mut pages: Vec<Vec<(u64, u64)>> = Vec::new();
    for (_, path, site, geo, raid) in &classes {
        let pol = FilePolicy { geo: geo.clone(), raid: *raid, ..FilePolicy::default() };
        let ino = ns.create_file(path, pol, *site)?;
        for off in (0..FILE_MB << 20).step_by(1 << 20) {
            t = ns.write_ino(t, *site, 0, ino, off, 1 << 20)?.done;
        }
        let pb = PAGE_BYTES;
        let extents = ns.fs.read(ino, 0, FILE_MB << 20).map_err(NetError::Fs)?;
        let mut file_pages = Vec::new();
        let mut file_off = 0u64;
        for e in &extents {
            for p in e.voff / pb..(e.voff + e.len) / pb {
                file_pages.push((file_off + (p * pb - e.voff), p));
            }
            file_off += e.len;
        }
        vols.push(extents.first().map(|e| e.vol).unwrap_or(ys_virt::VolumeId(0)));
        pages.push(file_pages);
    }
    // Flush write-back so the media holds everything and nothing is dirty.
    for c in &mut ns.clusters {
        let d = c.drain();
        t = t.max(d);
    }
    // Cold caches where the replica source must be unavailable: the
    // parity file at S0 and the geo + loss files at S2.
    for (ci, site) in [(0usize, 0usize), (2, 2), (3, 2)] {
        for (_, p) in &pages[ci] {
            ns.clusters[site].cache.invalidate_page(PageKey::new(vols[ci].0, *p));
        }
    }

    // Seeded injection, round-robin over classes. Two constraints keep
    // each error independently repairable-in-principle: one error per
    // page, and (for the RAID5 parity class) one error per stripe row —
    // parity reconstruction reads the whole row, and a second rotten
    // span there would poison it.
    let mut rng = Rng::new(cfg.seed ^ 0x5c4b_5eed);
    let mut used_pages: Vec<std::collections::BTreeSet<u64>> = vec![Default::default(); 4];
    let mut used_rows: std::collections::BTreeSet<u64> = Default::default();
    let chunk = ns.clusters[0].raid_geometry().chunk_size;
    let mut injected: Vec<Injected> = Vec::new();
    for i in 0..ERRORS {
        let ci = i % classes.len();
        let class = classes[ci].0;
        let site = classes[ci].2;
        let mut placed = false;
        for _attempt in 0..pages[ci].len() * 4 {
            let idx = rng.next_below(pages[ci].len() as u64) as usize;
            let (_, page) = pages[ci][idx];
            if used_pages[ci].contains(&page) {
                continue;
            }
            let Some((disk, offset)) = ns.clusters[site.0].locate_volume_page(vols[ci], page)
            else {
                continue;
            };
            if class == ErrorClass::Parity && !used_rows.insert(offset / chunk) {
                continue;
            }
            ns.clusters[site.0].corrupt_disk_page(disk, offset);
            used_pages[ci].insert(page);
            injected.push(Injected { class, site, vol: vols[ci], page, disk, offset });
            r.injected_per_class[ci] += 1;
            placed = true;
            break;
        }
        if !placed {
            r.lines.push(format!("  injection {i} ({}) found no eligible page", class.name()));
        }
    }
    r.injected = injected.len();
    r.lines.push(format!(
        "injected {} latent errors (parity {}, replica {}, geo {}, loss {})",
        r.injected,
        r.injected_per_class[0],
        r.injected_per_class[1],
        r.injected_per_class[2],
        r.injected_per_class[3]
    ));

    // Scrub every site to a verdict.
    for s in 0..ns.clusters.len() {
        let mut scrubber = Scrubber::new(ScrubConfig::default(), &ns.clusters[s]);
        let mut target = ScrubTarget::Site(&mut ns, SiteId(s));
        let end = scrubber.run(&mut target, t)?;
        t = t.max(end);
        let rep = scrubber.report().clone();
        r.lines.push(format!("site {s}: {rep}"));
        r.detected += rep.mismatch_pages;
        r.repaired_parity += rep.repaired_parity;
        r.repaired_replica += rep.repaired_replica;
        r.repaired_geo += rep.repaired_geo;
        r.declared_lost += rep.losses.len() as u64;
        r.site_reports.push(rep);
    }

    // Audit 1: every injection is off the media or covered by a loss.
    for inj in &injected {
        let still_rotten = ns.clusters[inj.site.0].disk_page_corrupt(inj.disk, inj.offset);
        let declared = r.site_reports[inj.site.0]
            .losses
            .iter()
            .any(|l| l.vol == inj.vol && l.page == inj.page);
        let accounted = match inj.class {
            ErrorClass::Loss => still_rotten && declared,
            _ => !still_rotten && !declared,
        };
        if !accounted {
            r.unaccounted += 1;
            r.lines.push(format!(
                "  UNACCOUNTED {:?} site {} page {} (rotten={} declared={})",
                inj.class, inj.site.0, inj.page, still_rotten, declared
            ));
        }
    }

    // Audit 2: foreground reads after the scrub. Repaired data must read
    // clean; declared-lost data must error loudly, never return silently.
    for (ci, (class, path, site, _, _)) in classes.iter().enumerate() {
        let pb = PAGE_BYTES;
        for &(file_off, page) in &pages[ci] {
            if !used_pages[ci].contains(&page) {
                continue;
            }
            match ns.read_file(t, *site, 0, path, file_off, pb) {
                Ok(_) if *class == ErrorClass::Loss => r.silent_reads += 1,
                Ok(_) => {}
                Err(NetError::Cluster(ClusterError::Integrity { .. }))
                    if *class == ErrorClass::Loss =>
                {
                    r.explicit_loss_reads += 1;
                }
                Err(e) => {
                    r.silent_reads += 1;
                    r.lines.push(format!("  unexpected read error on {path} page {page}: {e}"));
                }
            }
        }
    }

    let attribution_ok = r.repaired_parity >= r.injected_per_class[0] as u64
        && r.repaired_replica >= r.injected_per_class[1] as u64
        && r.repaired_geo >= r.injected_per_class[2] as u64
        && r.declared_lost == r.injected_per_class[3] as u64;
    r.ok = r.detected == r.injected as u64
        && r.unaccounted == 0
        && r.silent_reads == 0
        && r.explicit_loss_reads == r.injected_per_class[3] as u64
        && attribution_ok;
    r.lines.push(format!(
        "verdict: {} — detected {}/{}, repaired {} (parity {}, replica {}, geo {}), \
         lost {} (all declared), silent reads {}",
        if r.ok { "PASS" } else { "FAIL" },
        r.detected,
        r.injected,
        r.repaired_parity + r.repaired_replica + r.repaired_geo,
        r.repaired_parity,
        r.repaired_replica,
        r.repaired_geo,
        r.declared_lost,
        r.silent_reads
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_repairs_or_declares_every_error() {
        let r = run_campaign(&CampaignConfig::default());
        assert!(r.ok, "campaign failed:\n{r}");
        assert!(r.injected >= 50, "acceptance floor: >=50 latent errors, got {}", r.injected);
        assert_eq!(r.detected, r.injected as u64);
        assert_eq!(r.unaccounted, 0);
        assert_eq!(r.silent_reads, 0);
        assert!(r.repaired_parity > 0 && r.repaired_replica > 0 && r.repaired_geo > 0);
        assert!(r.declared_lost > 0, "loss class exercises the tombstone path");
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let a = run_campaign(&CampaignConfig { seed: 7 });
        let b = run_campaign(&CampaignConfig { seed: 7 });
        assert_eq!(a.lines, b.lines);
        let c = run_campaign(&CampaignConfig { seed: 8 });
        assert!(c.ok, "every seed must converge:\n{c}");
    }
}
