//! Seeded fail → heal → fail-again campaign.
//!
//! The question `ys-heal` exists to answer: after a blade failure is
//! *healed*, does the cluster really have its full fault-tolerance margin
//! back? The campaign builds a five-blade machine with the degraded-mode
//! governor on, writes a seeded working set 2-way, then:
//!
//! 1. fails a seeded victim blade — zero acknowledged writes may be lost;
//! 2. runs the QoS-governed healer to convergence;
//! 3. fails the blade that *promoted ownership* of the victim's pages —
//!    the direct test that healing restored the margin (without the heal,
//!    this second failure would lose data);
//! 4. heals again, revives both blades, and rejoins them;
//! 5. rolling-drains and rejoins **every** blade in turn under continued
//!    foreground load — planned drains must never lose an acked write;
//! 6. reads back every acknowledged offset;
//! 7. flushes, fails all but one blade, and demands the governor refuse
//!    the next write with an explicit `ReadOnly` error.
//!
//! Every line of the transcript is derived from virtual time and seeded
//! randomness, so `--double-run` byte-identity is a real replay check.

use std::collections::BTreeSet;

use crate::healer::{HealConfig, Healer};
use ys_cache::{Health, Retention};
use ys_core::harness::{Campaign, CampaignRun};
use ys_core::{BladeCluster, ClusterConfig, ClusterError, PAGE_BYTES};
use ys_qos::{QosClass, QosConfig, TenantSpec};
use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::Rng;
use ys_virt::VolumeId;

/// Foreground tenant (Premium class).
const TENANT_FG: u32 = 1;
/// Healer tenant (Scavenger class).
const TENANT_HEALER: u32 = 9;
/// Blades in the campaign machine.
const BLADES: usize = 5;

/// Foreground pages written before the first failure.
const WRITES: usize = 48;

/// Campaign knobs.
#[derive(Clone, Debug, Default)]
pub struct CampaignConfig {
    /// Seed for victim selection and the write working set.
    pub seed: u64,
}

impl Campaign for CampaignConfig {
    const BIN: &'static str = "ys-heal";

    fn seed(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn run(&self) -> CampaignRun {
        let report = run_campaign(self);
        CampaignRun { transcript: report.to_string(), reproducer: String::new(), ok: report.ok }
    }
}

/// Campaign outcome: transcript plus the audited counters.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Foreground writes acknowledged across all phases.
    pub writes_acked: u64,
    /// Replicas re-established by heal passes.
    pub replicas_healed: u64,
    /// Pages evacuated by planned drains.
    pub pages_evacuated: u64,
    /// Writes the governor refused at `ReadOnly` health.
    pub writes_refused: u64,
    /// `DataLost` tombstones at the end (must be 0).
    pub lost_pages: u64,
    /// Acked offsets that failed to read back (must be 0).
    pub read_errors: u64,
    /// Human-readable transcript (byte-stable per seed).
    pub lines: Vec<String>,
    /// Overall verdict.
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

/// Run the seeded campaign to completion.
fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut r = CampaignReport { ok: true, ..CampaignReport::default() };
    if let Err(e) = drive(cfg, &mut r) {
        r.lines.push(format!("campaign error: {e}"));
        r.ok = false;
    }
    let verdict = if r.ok { "PASS" } else { "FAIL" };
    r.lines.push(format!(
        "verdict: {verdict} — {} writes acked, {} replicas healed, {} pages evacuated, \
         {} writes refused, {} lost, {} read errors",
        r.writes_acked, r.replicas_healed, r.pages_evacuated, r.writes_refused, r.lost_pages,
        r.read_errors,
    ));
    r
}

fn check(r: &mut CampaignReport, ok: bool, claim: &str) {
    if ok {
        r.lines.push(format!("ok: {claim}"));
    } else {
        r.lines.push(format!("FAIL: {claim}"));
        r.ok = false;
    }
}

/// 2-way foreground write with bounded retry over QoS sheds (admission can
/// legitimately push back; the campaign waits out the bucket in virtual
/// time rather than counting a shed as a failure).
fn write_page(
    c: &mut BladeCluster,
    t: &mut SimTime,
    client: usize,
    vol: VolumeId,
    off: u64,
    pb: u64,
) -> Result<(), ClusterError> {
    let mut now = *t;
    let mut tries = 0u32;
    loop {
        match c.write_as(now, TENANT_FG, client, vol, off, pb, 2, Retention::Normal) {
            Ok(w) => {
                *t = (*t).max(w.done);
                return Ok(());
            }
            Err(ClusterError::QosShed { .. }) if tries < 256 => {
                tries += 1;
                now += SimDuration::from_millis(10);
            }
            Err(e) => return Err(e),
        }
    }
}

fn read_page(
    c: &mut BladeCluster,
    t: &mut SimTime,
    vol: VolumeId,
    off: u64,
    pb: u64,
) -> Result<(), ClusterError> {
    let mut now = *t;
    let mut tries = 0u32;
    loop {
        match c.read_as(now, TENANT_FG, 0, vol, off, pb) {
            Ok(rd) => {
                *t = (*t).max(rd.done);
                return Ok(());
            }
            Err(ClusterError::QosShed { .. }) if tries < 256 => {
                tries += 1;
                now += SimDuration::from_millis(10);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run one QoS-governed heal pass and audit convergence.
fn heal_pass(
    c: &mut BladeCluster,
    t: &mut SimTime,
    r: &mut CampaignReport,
    label: &str,
) -> Result<(), ClusterError> {
    let mut h = Healer::new(HealConfig { tenant: Some(TENANT_HEALER) });
    *t = h.run(c, *t)?;
    r.replicas_healed += h.report().replicas_placed;
    r.lines.push(format!("{label}: {}", h.report()));
    check(r, h.report().converged, &format!("{label} converged"));
    Ok(())
}

fn drive(cfg: &CampaignConfig, r: &mut CampaignReport) -> Result<(), ClusterError> {
    let qos = QosConfig::new()
        .with_tenant(TenantSpec::new(TENANT_FG, "foreground", QosClass::Premium))
        .with_tenant(TenantSpec::new(TENANT_HEALER, "healer", QosClass::Scavenger));
    let mut c = BladeCluster::new(
        ClusterConfig::default()
            .with_blades(BLADES)
            .with_disks(8)
            .with_clients(4)
            .with_qos(qos)
            .with_health_governor(),
    );
    let vol = c.create_volume("heal", TENANT_FG, 1 << 30)?;
    let pb = PAGE_BYTES;
    let mut rng = Rng::new(cfg.seed ^ 0x4ea1_5eed);
    let mut acked: BTreeSet<u64> = BTreeSet::new();
    let mut t = SimTime::ZERO;

    // Phase 1: seeded foreground working set, written 2-way.
    for i in 0..WRITES {
        let off = rng.next_below(256) * pb;
        write_page(&mut c, &mut t, i % 4, vol, off, pb)?;
        acked.insert(off);
        r.writes_acked += 1;
    }
    r.lines.push(format!(
        "phase 1: wrote {} pages 2-way ({} distinct offsets)",
        r.writes_acked,
        acked.len()
    ));

    // Phase 2: seeded victim failure — inside the margin, zero loss.
    let victim = rng.next_below(BLADES as u64) as usize;
    let rep1 = c.fail_blade(t, victim);
    r.lines.push(format!(
        "phase 2: fail blade {victim} — {} promoted, {} lost",
        rep1.promoted.len(),
        rep1.lost.len()
    ));
    check(r, rep1.lost.is_empty(), "first failure loses nothing (within N-way margin)");

    // Phase 3: heal back to target.
    heal_pass(&mut c, &mut t, r, "phase 3: heal #1")?;

    // Phase 4: fail the promoted owner. This is the tentpole acceptance
    // check — healing restored the margin, so losing the blade that now
    // owns the victim's pages must still lose nothing.
    let owner2 = rep1
        .promoted
        .first()
        .and_then(|k| c.cache.directory().get(k).and_then(|e| e.owner))
        .unwrap_or((victim + 1) % BLADES);
    let rep2 = c.fail_blade(t, owner2);
    r.lines.push(format!(
        "phase 4: fail promoted owner (blade {owner2}) — {} promoted, {} lost",
        rep2.promoted.len(),
        rep2.lost.len()
    ));
    check(r, rep2.lost.is_empty(), "second failure after heal loses nothing");

    // Phase 5: heal again with two blades down.
    heal_pass(&mut c, &mut t, r, "phase 5: heal #2")?;

    // Phase 6: revive both blades; convergence promotes Rejoining → Up.
    c.revive_blade(victim)?;
    if owner2 != victim {
        c.revive_blade(owner2)?;
    }
    heal_pass(&mut c, &mut t, r, "phase 6: heal after revive")?;
    r.lines.push(format!("phase 6: health after rejoin = {}", c.health()));
    check(r, c.health() == Health::Healthy, "cluster returns to Healthy after rejoin");

    // Phase 7: rolling drain + rejoin of every blade under foreground load.
    for b in 0..BLADES {
        for i in 0..4usize {
            let off = rng.next_below(256) * pb;
            write_page(&mut c, &mut t, i, vol, off, pb)?;
            acked.insert(off);
            r.writes_acked += 1;
        }
        let (dr, done) = c.drain_blade(t, b)?;
        t = done;
        r.lines.push(format!(
            "phase 7: drain blade {b} — {} promoted, {} moved, {} replicas moved, {} dropped, \
             {} clean dropped",
            dr.promoted.len(),
            dr.moved.len(),
            dr.replicas_moved.len(),
            dr.replicas_dropped.len(),
            dr.clean_dropped,
        ));
        check(
            r,
            dr.completed && c.cache.lost_pages().is_empty(),
            &format!("drain of blade {b} completes with zero loss"),
        );
        c.revive_blade(b)?;
        heal_pass(&mut c, &mut t, r, &format!("phase 7: heal after rejoin of blade {b}"))?;
    }
    check(r, c.health() == Health::Healthy, "rolling restart ends Healthy");

    // Phase 8: read back every acknowledged offset.
    for &off in &acked {
        if read_page(&mut c, &mut t, vol, off, pb).is_err() {
            r.read_errors += 1;
        }
    }
    r.lines.push(format!(
        "phase 8: read back {} offsets, {} errors",
        acked.len(),
        r.read_errors
    ));
    check(r, r.read_errors == 0, "every acked write reads back");

    // Phase 9: graceful degradation. Flush, then fail every blade but one:
    // with fewer than two accepting blades the governor must refuse writes
    // with an explicit ReadOnly error rather than accept unprotectable data.
    t = t.max(c.drain());
    for b in 1..BLADES {
        let rep = c.fail_blade(t, b);
        check(r, rep.lost.is_empty(), &format!("post-flush failure of blade {b} is clean"));
    }
    r.lines.push(format!("phase 9: health with one blade = {}", c.health()));
    let mut refused = false;
    let mut now = t;
    for _ in 0..256 {
        match c.write_as(now, TENANT_FG, 0, vol, 0, pb, 2, Retention::Normal) {
            Err(ClusterError::ReadOnly) => {
                refused = true;
                break;
            }
            Err(ClusterError::QosShed { .. }) => now += SimDuration::from_millis(10),
            _ => break,
        }
    }
    check(r, refused, "governor refuses the write at ReadOnly health");
    r.writes_refused = c.stats.writes_refused_readonly;

    // Recover: revive everyone, heal, end Healthy.
    for b in 1..BLADES {
        c.revive_blade(b)?;
    }
    heal_pass(&mut c, &mut t, r, "phase 9: heal after mass revive")?;
    check(r, c.health() == Health::Healthy, "cluster ends Healthy");

    r.pages_evacuated = c.stats.pages_evacuated;
    r.lost_pages = c.cache.lost_pages().len() as u64;
    check(r, r.lost_pages == 0, "no DataLost tombstones at campaign end");
    let audit = c.cache.audit_invariants();
    check(r, audit.is_empty(), "cache invariant audit is clean");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_campaign_passes() {
        let r = run_campaign(&CampaignConfig::default());
        assert!(r.ok, "campaign failed:\n{r}");
        assert_eq!(r.lost_pages, 0);
        assert_eq!(r.read_errors, 0);
        assert!(r.writes_refused >= 1, "governor refusal must be exercised");
        assert!(r.pages_evacuated > 0, "rolling drains must move data");
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        for seed in [0u64, 7, 42] {
            let a = run_campaign(&CampaignConfig { seed });
            let b = run_campaign(&CampaignConfig { seed });
            assert_eq!(a.lines, b.lines, "seed {seed} transcripts diverge");
            assert!(a.ok, "seed {seed} failed:\n{a}");
        }
    }
}
