//! Unit tests of the campaign runner and its fixture.

use super::*;
use crate::schedule::{Injection, ScheduledFault};

#[test]
fn campaigns_are_deterministic() {
    let cfg = CampaignConfig { seed: 4, steps: 48, ..CampaignConfig::default() };
    let a = run_campaign(&cfg);
    let b = run_campaign(&cfg);
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.acked_writes, b.acked_writes);
    assert_eq!(a.injections_fired, b.injections_fired);
    assert_eq!(a.final_time, b.final_time);
}

#[test]
fn each_schedule_entry_counts_once_as_fired_or_skipped() {
    // `converge` applies whatever the step loop did not reach, so every
    // entry is applied exactly once. The fatal kill is the one entry
    // that injects more than itself: each crash of a victim's holder
    // (at most N of them) counts as an injection of its own.
    let counted = |r: &CampaignReport| r.injections_fired + r.injections_skipped;
    for seed in 0..32 {
        let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
        let plain = run_campaign(&cfg);
        assert_eq!(counted(&plain), plain.schedule.entries.len() as u64, "{}", plain.render());
        // The kill fires last, so the schedule without it runs the same
        // campaign up to the kill.
        let fatal_cfg = CampaignConfig { fatal: true, ..cfg };
        let fatal = run_campaign(&fatal_cfg);
        let mut before_kill = fatal.schedule.clone();
        before_kill.entries.pop();
        let prefix = run_with_schedule(&fatal_cfg, before_kill);
        assert_eq!(counted(&prefix), prefix.schedule.entries.len() as u64, "{}", prefix.render());
        let kill = counted(&fatal) - counted(&prefix);
        assert!((1..=1 + WRITE_BACK_COPIES as u64).contains(&kill), "{}", fatal.render());
    }
    // With one blade left at the site no page has a peer copy, so there is
    // no replicated dirty page to kill: the three crashes fire, and the
    // kill is skipped, and not also fired.
    let cfg = CampaignConfig::default();
    let at_step_4 = |injection| ScheduledFault { index: 0, trigger: Trigger::AtStep(4), injection };
    let mut entries: Vec<_> = (1..BLADES_PER_SITE).map(|blade| at_step_4(Injection::CrashBlade { site: 0, blade })).collect();
    entries.push(at_step_4(Injection::KillDirtyPage { site: 0 }));
    let r = run_with_schedule(&cfg, CampaignSchedule { seed: cfg.seed, entries });
    assert_eq!((r.injections_fired, r.injections_skipped), (3, 1), "{}", r.render());
}

#[test]
fn within_budget_campaign_holds_every_promise() {
    let cfg = CampaignConfig { seed: 4, steps: 64, ..CampaignConfig::default() };
    let r = run_campaign(&cfg);
    assert!(r.injections_fired > 0, "schedule must actually inject");
    assert!(r.acked_writes > 0);
    // acked_verified counts distinct (ino, offset) cells; rewrites of
    // the same cell collapse, so it can trail the total ack count but
    // never exceed it — and every cell must have read back (any
    // unreadable cell is an acked-write-unreadable violation, which
    // passed() below would catch).
    assert!(r.acked_verified > 0 && r.acked_verified <= r.acked_writes);
    assert!(
        r.passed(),
        "within-budget campaign must hold all promises:\n{}",
        r.render()
    );
}

#[test]
fn fatal_campaign_surfaces_the_loss_explicitly() {
    // In seeds 16, 46 and 155 the kill's own write moves the clock past its
    // victim's due destage, which the kill must apply before it picks.
    for (seed, steps) in [(9, 48), (16, 64), (46, 64), (155, 64)] {
        let cfg = CampaignConfig { seed, steps, fatal: true, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        assert!(
            r.violations.iter().any(|v| v.rule == "acked-write-lost"),
            "seed {seed}: the deliberate N-failure must surface as an explicit loss:\n{}",
            r.render()
        );
        assert!(
            r.violations.iter().all(|v| v.rule != "loss-within-budget"),
            "seed {seed}: even the fatal campaign must not lose data *within* budget:\n{}",
            r.render()
        );
    }
}

#[test]
fn latent_errors_are_repaired_or_declared_at_convergence() {
    for seed in 0..8 {
        let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        assert!(r.passed(), "seed {seed}:\n{}", r.render());
        assert!(r.scrub_scanned > 0, "converge scrub must actually walk pages");
        if r.corruptions_injected > 0 {
            assert_eq!(
                r.corruptions_injected,
                r.corruptions_repaired + r.corruptions_declared,
                "every latent error accounted for:\n{}",
                r.render()
            );
            return;
        }
    }
    panic!("no seed in 0..8 fired a latent error");
}

#[test]
fn the_oracle_audits_what_changed() {
    let cfg =
        CampaignConfig { seed: 4, steps: 128, max_injections: 6, ..CampaignConfig::default() };
    let r = run_campaign(&cfg);
    assert!(r.passed(), "{}", r.render());
    let audits = r.audits_full + r.audits_incremental;
    // Every step audits every site, and injections add their own.
    assert!(audits >= cfg.steps * SITES as u64, "{audits} audits");
    assert!(
        r.audits_incremental * 100 >= audits * 95,
        "{} of {audits} audits were full scans",
        r.audits_full
    );
    // What the journal saves: a full scan walks every directory entry
    // (≈1,180 a site), an incremental audit a page or two.
    assert!(r.audit_keys_checked < 4 * r.audits_incremental, "{} keys", r.audit_keys_checked);
    assert!(!r.render().contains("audit"), "attribution stays out of the transcript");
    // The full scans left are the ones after a blade comes or goes: the
    // fixture was audited when built and arrives with its journal open,
    // so a campaign that injects nothing never scans in full at all —
    // 128 steps and two converge audits, per site, all incremental.
    let quiet = run_with_schedule(&cfg, CampaignSchedule { seed: cfg.seed, entries: Vec::new() });
    assert_eq!((quiet.audits_full, quiet.audits_incremental), (0, (128 + 2) * 3));
}

/// The same campaign from a fixture built for it alone — never
/// through the slot.
fn run_fresh(cfg: &CampaignConfig) -> CampaignReport {
    Campaign::from_fixture(cfg, CampaignSchedule::generate(cfg), Fixture::build()).run_to_end()
}

fn assert_slot_matches_fresh(cfg: &CampaignConfig) {
    let (slot, fresh) = (run_campaign(cfg), run_fresh(cfg));
    assert_eq!(slot.render(), fresh.render(), "{cfg:?}");
    assert_eq!(format!("{slot:?}"), format!("{fresh:?}"), "{cfg:?}");
}

#[test]
fn a_cloned_fixture_runs_the_campaign_a_fresh_build_does() {
    let base = CampaignConfig { steps: 64, ..CampaignConfig::default() };
    for seed in 0..32 {
        assert_slot_matches_fresh(&CampaignConfig { seed, ..base.clone() });
    }
    assert_slot_matches_fresh(&CampaignConfig { fatal: true, ..base.clone() });
    // Every campaign above ran off the stored fixture; had any of them
    // written through its clone into it, this one starts from the damage
    // and a fresh build does not.
    assert_slot_matches_fresh(&base);
}

#[test]
fn a_clone_shares_nothing_with_its_fixture() {
    let original = Fixture::build();
    let books = |f: &Fixture| {
        let cache = &f.ns.clusters[0].cache;
        (format!("{:?}", cache.stats()), cache.directory().len(), f.ns.clusters[0].pool_used_extents())
    };
    let before = books(&original);
    let mut clone = original.clone();
    assert_eq!(books(&clone), before);
    let vol = clone.ns.clusters[0].create_volume("scribble", 0, 1 << 30).unwrap();
    clone.ns.clusters[0].write(SimTime::ZERO, 0, vol, 0, 4 * PAGE, 2, ys_cache::Retention::Normal).unwrap();
    assert_ne!(books(&clone), before, "the write must have moved the clone's books");
    assert_eq!(books(&original), before);
}

#[test]
fn recovery_times_are_recorded() {
    // Scan a few seeds for one whose schedule includes a blade-crash
    // episode (generation is random but deterministic per seed).
    for seed in 0..8 {
        let cfg = CampaignConfig { seed, steps: 64, ..CampaignConfig::default() };
        let r = run_campaign(&cfg);
        if r.recovery.iter().any(|(what, _)| *what == "blade-crash") {
            return;
        }
    }
    panic!("no seed in 0..8 produced a recovered blade crash");
}
