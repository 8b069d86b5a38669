//! Convergence: drive the cluster back to a clean, fully healed state,
//! check the promises that only hold after recovery, and finish the
//! report.

use super::{audit_counts, Campaign, CampaignReport, BLADES_PER_SITE, SITES};
use crate::oracle;
use ys_geo::SiteId;
use ys_pfs::Ino;
use ys_scrub::{ScrubConfig, ScrubTarget, Scrubber};

impl Campaign {
    /// Drive the cluster back to a clean, fully-healed state and check the
    /// promises that only hold *after* recovery (gapless geo prefix,
    /// complete rebuild, readable acked data). Always runs, so shrunk
    /// schedules that dropped their repair entries still terminate in a
    /// comparable state instead of failing for a spurious reason.
    pub(super) fn converge(&mut self) {
        // Fire everything the step loop didn't reach.
        self.disarm_head();
        while let Some(&e) = self.report.schedule.entries.get(self.next_entry) {
            self.next_entry += 1;
            self.apply(e);
        }
        // Heal the fabric and the WAN.
        self.heal_flaps(u64::MAX);
        for (a, b) in std::mem::take(&mut self.partitions) {
            self.ns.heal_link(SiteId(a), SiteId(b));
        }
        // Bring every down blade back, then let destage finish everywhere.
        // Administrative recovery, not scheduled injections: only `apply`
        // counts those.
        for site in 0..SITES {
            for blade in 0..BLADES_PER_SITE {
                self.repair_blade(site, blade);
            }
            self.stabilize(site);
        }
        // Finish the rebuild, conscripting workers as needed.
        for _ in 0..8 {
            if self.rebuild.is_none() {
                break;
            }
            self.step_rebuild();
        }
        if let Some(rs) = self.rebuild.take() {
            let detail = format!("disk {} rebuild at {:.0}% after convergence", rs.target, rs.r.progress() * 100.0);
            self.violate("rebuild-stuck", rs.site, detail);
        }
        // Geo convergence: the async backlog must drain to a gapless
        // acknowledged prefix once links are healed.
        for _ in 0..32 {
            let t = self.t;
            match self.ns.ship_async(t, 4 << 20) {
                Ok(done) => self.t = self.t.max(done),
                Err(_) => break,
            }
            if self.geo_drained() {
                break;
            }
        }
        for (src, dst) in site_pairs(SITES) {
            let (pending, bytes) = self.ns.async_backlog(src, dst);
            if pending > 0 {
                let detail = format!("{pending} records ({bytes} B) still queued to site {} after heal", dst.0);
                self.violate("geo-backlog-stuck", src.0, detail);
            }
            let inflight = self.ns.replication().inflight(src, dst);
            if inflight > 0 {
                let detail = format!("{inflight} records to site {} neither confirmed nor requeued", dst.0);
                self.violate("geo-inflight-stuck", src.0, detail);
            }
        }
        let (enqueued, shipped) = (self.ns.stats.async_writes_enqueued, self.ns.stats.async_writes_shipped);
        if shipped != enqueued {
            let detail = format!("{enqueued} enqueued but only {shipped} shipped after full heal");
            self.violate("geo-prefix-gap", 0, detail);
        }
        // Destage whatever the geo applies dirtied, then the final audits.
        for site in 0..SITES {
            self.ns.clusters[site].drain();
            self.audit(site);
            oracle::audit_qos(site, self.step, &self.ns.clusters[site], &mut self.report.violations);
            oracle::audit_redundancy(site, self.step, &self.ns.clusters[site], &mut self.report.violations);
        }
        // Scrub every site and hold the integrity promise: each injected
        // latent error must now be repaired or explicitly declared lost.
        // Runs before the acked re-reads below so repairable rot can't
        // masquerade as structural unreadability.
        self.scrub_sites();
        // Every acknowledged write must still be readable. (Legally lost
        // pages were surfaced and acknowledged above — their stale-on-disk
        // image reads back; what this catches is structural unreadability:
        // a directory entry still pointing at a dead blade, an undestaged
        // page stranded by re-homing, a volume map hole.)
        let acked: Vec<_> = self.acked.iter().map(|(&k, &len)| (k, len)).collect();
        for ((ino, off), len) in acked {
            match self.ns.read_ino(self.t, self.home_of(ino), 0, Ino(ino), off, len) {
                Ok(c) => {
                    self.t = self.t.max(c.done);
                    self.report.acked_verified += 1;
                }
                Err(e) => {
                    let site = self.home_of(ino).0;
                    self.violate("acked-write-unreadable", site, format!("ino {ino} offset {off}: {e}"));
                }
            }
        }
    }

    /// Converge-time scrub of every site, as the Scavenger tenant, plus
    /// the integrity oracle:
    /// every fired [`crate::Injection::CorruptPage`] must be repaired or carry
    /// an explicit [`ys_scrub::ScrubLoss`] — silent residue is a
    /// violation.
    fn scrub_sites(&mut self) {
        for site in 0..SITES {
            let mut scrubber = Scrubber::new(ScrubConfig { tenant: Some(3) }, &self.ns.clusters[site]);
            let run = {
                let mut target = ScrubTarget::Site(&mut self.ns, SiteId(site));
                scrubber.run(&mut target, self.t)
            };
            match run {
                Ok(done) => self.t = self.t.max(done),
                Err(e) => self.violate("scrub-error", site, format!("converge scrub aborted: {e}")),
            }
            let scrubbed = scrubber.report();
            self.report.scrub_scanned += scrubbed.pages_scanned;
            self.report.scrub_mismatches += scrubbed.mismatch_pages;
            for i in 0..self.corruptions.len() {
                let (s, disk, offset, page) = self.corruptions[i];
                if s != site {
                    continue;
                }
                let declared = scrubbed
                    .losses
                    .iter()
                    .any(|l| l.vol == self.integ_vols[site] && l.page == page);
                if declared {
                    self.report.corruptions_declared += 1;
                } else if self.ns.clusters[site].disk_page_corrupt(disk, offset) {
                    let disk = disk.0;
                    let detail = format!("disk {disk} offset {offset} (integrity page {page}) still rotten, not declared");
                    self.violate("corruption-unrepaired", site, detail);
                } else {
                    self.report.corruptions_repaired += 1;
                }
            }
        }
    }

    fn home_of(&self, ino: u64) -> SiteId {
        self.files
            .iter()
            .find(|&&(i, _)| i.0 == ino)
            .map(|&(_, home)| SiteId(home))
            .unwrap_or(SiteId(0))
    }

    fn geo_drained(&self) -> bool {
        site_pairs(SITES).all(|(src, dst)| {
            self.ns.async_backlog(src, dst).0 == 0 && self.ns.replication().inflight(src, dst) == 0
        })
    }

    /// The report as filled, with the violations in order and the fields
    /// derived from the end state.
    pub(super) fn finish(self) -> CampaignReport {
        let mut report = self.report;
        report.violations.sort_by(|a, b| {
            (a.step, a.site, a.rule, &a.detail).cmp(&(b.step, b.site, b.rule, &b.detail))
        });
        let (now, start) = (audit_counts(&self.ns), self.audits_at_start);
        [report.audits_full, report.audits_incremental, report.audit_keys_checked] =
            std::array::from_fn(|i| now[i] - start[i]);
        report.corruptions_injected = self.corruptions.len() as u64;
        report.final_time = self.t;
        report
    }
}

/// Every ordered pair of distinct sites, source-major: the geo links.
fn site_pairs(sites: usize) -> impl Iterator<Item = (SiteId, SiteId)> {
    (0..sites).flat_map(move |s| {
        (0..sites).filter(move |&d| d != s).map(move |d| (SiteId(s), SiteId(d)))
    })
}
