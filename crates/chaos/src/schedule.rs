//! Seeded fault schedules: what to inject, and *when* — not just a step
//! number, but an adversarial instant on the trace spine (mid-destage,
//! mid-promotion, mid-rebuild-batch, mid-geo-batch) via the
//! [`ys_simcore::SpanRecorder`] crash-point tripwires.
//!
//! A schedule is fully determined by `(seed, config)`, so every failing
//! campaign is replayable from its seed alone, and a shrunk schedule is
//! replayable as `seed + kept entry indices` (`ys-chaos --keep`).

use crate::campaign::{CampaignConfig, BLADES_PER_SITE, DISKS_PER_SITE, SITES, WRITE_BACK_COPIES};
use std::fmt;
use ys_simcore::Rng;

/// A trace-spine instant worth attacking (see the emitting subsystems:
/// `cache::destage` / `cache::promote` / `raid::claim` / `geo::ship`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashEvent {
    /// A dirty page is being written back (`cache`/`destage`).
    Destage,
    /// A replica is being promoted to owner after a crash (`cache`/`promote`).
    Promote,
    /// A rebuild worker claimed a row batch (`raid`/`claim`).
    RebuildClaim,
    /// An async geo batch left the journal (`geo`/`ship`).
    GeoShip,
}

impl CrashEvent {
    /// The `SpanEvent::name` this crash point watches for.
    pub fn event_name(self) -> &'static str {
        match self {
            CrashEvent::Destage => "destage",
            CrashEvent::Promote => "promote",
            CrashEvent::RebuildClaim => "claim",
            CrashEvent::GeoShip => "ship",
        }
    }
}

/// When an injection fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// At the start of workload step `n`.
    AtStep(u64),
    /// At the next `event` emitted by `site`'s subsystems after step
    /// `after_step` — with a deadline so schedules always complete even
    /// when the event never occurs (e.g. it was shrunk away).
    OnEvent { site: usize, event: CrashEvent, after_step: u64 },
}

impl Trigger {
    /// The step at which the entry fires unconditionally if its event
    /// never trips (keeps subsets of a schedule terminating).
    pub fn deadline(&self) -> u64 {
        match *self {
            Trigger::AtStep(s) => s,
            Trigger::OnEvent { after_step, .. } => after_step + 16,
        }
    }
}

/// One fault (or recovery action) the campaign applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Blade crash: cache contents die, dirty pages promote or are lost.
    CrashBlade { site: usize, blade: usize },
    /// The crashed blade returns, empty.
    RepairBlade { site: usize, blade: usize },
    /// Operator-driven recovery completes: destage drains, the site is
    /// clean again (resets the N−1 crash budget).
    Stabilize { site: usize },
    /// FC-port flap: a disk drops off the fabric transiently and returns
    /// with its media intact a couple of steps later.
    FlapFcPort { site: usize, disk: usize },
    /// Disk failure: starts a distributed rebuild of the replacement.
    FailDisk { site: usize, disk: usize },
    /// Cut the WAN trunk between two sites (both stay up).
    PartitionLink { a: usize, b: usize },
    /// Restore a cut trunk; the async backlog drains afterwards.
    HealLink { a: usize, b: usize },
    /// Adversary: find a dirty page and crash its owner and every
    /// replica, back to back — the deliberate N-failure that must surface
    /// as an explicit loss, never a silent stale read.
    KillDirtyPage { site: usize },
    /// Latent media error: a page of the site's integrity volume rots
    /// silently on disk. Nothing notices until a verified read covers it;
    /// the converge-time scrub must repair it or declare it lost — the
    /// oracle rejects silent residue.
    CorruptPage { site: usize, page: u64 },
    /// Planned maintenance: drain a blade online (`Up → Draining → Down`).
    /// Unlike a crash, a drain evacuates every copy first — the oracle
    /// rejects any `DataLost` tombstone it mints.
    BladeDrain { site: usize, blade: usize },
    /// Rejoin a drained (or crashed) blade empty; the campaign runs the
    /// `ys-heal` healer and the oracle demands redundancy restored within
    /// the healer's bounded converge budget.
    BladeRevive { site: usize, blade: usize },
}

/// A scheduled fault: original index (stable across shrinking), trigger,
/// and the injection itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Index in the originally generated schedule; survives subsetting so
    /// a shrunk schedule prints as `--seed S --keep i,j`.
    pub index: usize,
    pub trigger: Trigger,
    pub injection: Injection,
}

impl fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<2} ", self.index)?;
        match self.trigger {
            Trigger::AtStep(s) => write!(f, "at step {s:<3}")?,
            Trigger::OnEvent { site, event, after_step } => {
                write!(f, "on {}@site{} (>{after_step})", event.event_name(), site)?
            }
        }
        write!(f, "  {:?}", self.injection)
    }
}

/// The full campaign schedule: a seed plus the injection list it expands
/// to. Entries fire strictly in list order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignSchedule {
    pub seed: u64,
    pub entries: Vec<ScheduledFault>,
}

impl CampaignSchedule {
    /// Expand `cfg.seed` into a schedule. Within-budget generation keeps
    /// every site at ≤ N−1 un-stabilized blade crashes (the paper's §6.1
    /// survivable envelope); `cfg.fatal` appends a deliberate N-failure
    /// episode so the oracle has a loss to find and shrink.
    pub fn generate(cfg: &CampaignConfig) -> CampaignSchedule {
        let mut rng = Rng::new(cfg.seed ^ 0xc4a0_5eed);
        let mut entries: Vec<ScheduledFault> = Vec::new();
        let step_span = cfg.steps.max(8);
        // Crashes a site can still absorb before its next stabilize.
        let mut credit = [WRITE_BACK_COPIES - 1; SITES];
        let mut step = 2 + rng.next_below(4);
        let mut partitions: Vec<(usize, usize)> = Vec::new();
        while step + 8 < step_span && entries.len() + 4 < cfg.max_injections {
            let site = rng.next_below(SITES as u64) as usize;
            match rng.next_below(5) {
                0 if credit[site] > 0 => {
                    // Blade-crash episode: crash at an adversarial instant,
                    // repair, then stabilize before the budget resets.
                    credit[site] -= 1;
                    let blade = rng.next_below(BLADES_PER_SITE as u64) as usize;
                    let event =
                        *rng.choose(&[CrashEvent::Destage, CrashEvent::Promote, CrashEvent::RebuildClaim]);
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::OnEvent { site, event, after_step: step },
                        injection: Injection::CrashBlade { site, blade },
                    });
                    let repair_at = step + 3 + rng.next_below(4);
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(repair_at),
                        injection: Injection::RepairBlade { site, blade },
                    });
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(repair_at + 2),
                        injection: Injection::Stabilize { site },
                    });
                    credit[site] = WRITE_BACK_COPIES - 1;
                }
                1 => {
                    // Disk episode: fail a disk (starts a rebuild), flap a
                    // sibling port mid-rebuild to force the requeue path.
                    let disk = rng.next_below(DISKS_PER_SITE as u64) as usize;
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(step),
                        injection: Injection::FailDisk { site, disk },
                    });
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::OnEvent {
                            site,
                            event: CrashEvent::RebuildClaim,
                            after_step: step + 1,
                        },
                        injection: Injection::FlapFcPort {
                            site,
                            disk: (disk + 1) % DISKS_PER_SITE,
                        },
                    });
                }
                2 => {
                    // Partition episode: cut a trunk mid-geo-batch, heal it
                    // later; backlog must drain gapless after heal.
                    let a = rng.next_below(SITES as u64) as usize;
                    let b = (a + 1 + rng.next_below(SITES as u64 - 1) as usize) % SITES;
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::OnEvent {
                            site: a,
                            event: CrashEvent::GeoShip,
                            after_step: step,
                        },
                        injection: Injection::PartitionLink { a, b },
                    });
                    partitions.push((a, b));
                    let heal_at = step + 6 + rng.next_below(6);
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(heal_at),
                        injection: Injection::HealLink { a, b },
                    });
                }
                3 => {
                    // Lifecycle episode: planned online drain, then rejoin
                    // a few steps later. Zero-loss evacuation and healed
                    // redundancy are both oracle promises.
                    let blade = rng.next_below(BLADES_PER_SITE as u64) as usize;
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(step),
                        injection: Injection::BladeDrain { site, blade },
                    });
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(step + 2 + rng.next_below(4)),
                        injection: Injection::BladeRevive { site, blade },
                    });
                }
                _ => {
                    let disk = rng.next_below(DISKS_PER_SITE as u64) as usize;
                    entries.push(ScheduledFault {
                        index: 0,
                        trigger: Trigger::AtStep(step),
                        injection: Injection::FlapFcPort { site, disk },
                    });
                }
            }
            step += 4 + rng.next_below(6);
        }
        // Latent-error episode: a few integrity-volume pages rot silently
        // at scattered instants. Appended after the main loop with
        // continued draws, so the episode structure above is unchanged
        // for every seed; placed before the fatal kill so that entry
        // stays last. Budget: never exceed `max_injections` (reserving a
        // slot for the kill).
        let reserve = usize::from(cfg.fatal);
        let wanted = 2 + rng.next_below(3) as usize;
        let room = cfg.max_injections.saturating_sub(entries.len() + reserve);
        let targets = crate::campaign::integ_target_pages();
        for _ in 0..wanted.min(room) {
            let site = rng.next_below(SITES as u64) as usize;
            let page = targets.start + rng.next_below(targets.end - targets.start);
            entries.push(ScheduledFault {
                index: 0,
                trigger: Trigger::AtStep(step.min(step_span.saturating_sub(2))),
                injection: Injection::CorruptPage { site, page },
            });
            step += 1 + rng.next_below(3);
        }
        if cfg.fatal {
            let site = rng.next_below(SITES as u64) as usize;
            entries.push(ScheduledFault {
                index: 0,
                trigger: Trigger::AtStep(step.min(step_span.saturating_sub(2))),
                injection: Injection::KillDirtyPage { site },
            });
        }
        for (i, e) in entries.iter_mut().enumerate() {
            e.index = i;
        }
        CampaignSchedule { seed: cfg.seed, entries }
    }

    /// Keep only the entries whose *original* index is listed (replay of a
    /// shrunk schedule: `--seed S --keep i,j,k`). An index with no entry
    /// is an error naming it, so a mistyped replay cannot run clean.
    pub fn keep(&self, indices: &[usize]) -> Result<CampaignSchedule, String> {
        if let Some(missing) = indices.iter().find(|&&i| !self.entries.iter().any(|e| e.index == i)) {
            return Err(format!(
                "--keep index {missing} is not in the schedule (seed {} has {} entries)",
                self.seed,
                self.entries.len()
            ));
        }
        Ok(CampaignSchedule {
            seed: self.seed,
            entries: self.entries.iter().filter(|e| indices.contains(&e.index)).copied().collect(),
        })
    }

    /// The replay command line reproducing exactly this schedule.
    pub fn replay_line(&self) -> String {
        let kept: Vec<String> = self.entries.iter().map(|e| e.index.to_string()).collect();
        format!("ys-chaos --seed {} --keep {}", self.seed, kept.join(","))
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("  {e}\n"));
        }
        out.push_str(&format!("  replay: {}\n", self.replay_line()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let cfg = CampaignConfig { seed: 7, ..CampaignConfig::default() };
        let a = CampaignSchedule::generate(&cfg);
        let b = CampaignSchedule::generate(&cfg);
        assert_eq!(a, b);
        let c = CampaignSchedule::generate(&CampaignConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
        assert!(!a.entries.is_empty());
    }

    #[test]
    fn within_budget_schedules_never_stack_crashes_past_n_minus_1() {
        for seed in 0..32 {
            let cfg = CampaignConfig { seed, ..CampaignConfig::default() };
            let s = CampaignSchedule::generate(&cfg);
            let mut un_stabilized = [0usize; SITES];
            for e in &s.entries {
                match e.injection {
                    Injection::CrashBlade { site, .. } => {
                        un_stabilized[site] += 1;
                        assert!(
                            un_stabilized[site] < WRITE_BACK_COPIES,
                            "seed {seed}: site {site} over budget"
                        );
                    }
                    Injection::Stabilize { site } => un_stabilized[site] = 0,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn keep_preserves_original_indices_for_replay() {
        let cfg = CampaignConfig { seed: 3, ..CampaignConfig::default() };
        let s = CampaignSchedule::generate(&cfg);
        assert!(s.entries.len() >= 3);
        let sub = s.keep(&[0, 2]).unwrap();
        assert_eq!(sub.entries.len(), 2);
        assert_eq!(sub.entries[0].index, 0);
        assert_eq!(sub.entries[1].index, 2);
        assert!(sub.replay_line().contains("--keep 0,2"));
        let past_the_end = s.entries.len();
        let err = s.keep(&[0, past_the_end]).unwrap_err();
        assert!(err.contains(&format!("--keep index {past_the_end} ")), "{err}");
    }

    #[test]
    fn latent_errors_are_scheduled_within_the_injection_budget() {
        let mut any = false;
        for seed in 0..16 {
            let cfg = CampaignConfig { seed, ..CampaignConfig::default() };
            let s = CampaignSchedule::generate(&cfg);
            assert!(s.entries.len() <= cfg.max_injections, "seed {seed} over budget");
            any |= s
                .entries
                .iter()
                .any(|e| matches!(e.injection, Injection::CorruptPage { .. }));
        }
        assert!(any, "no seed in 0..16 scheduled a latent error");
    }

    #[test]
    fn drain_episodes_pair_with_later_revives() {
        let mut seen = false;
        for seed in 0..32 {
            let cfg = CampaignConfig { seed, ..CampaignConfig::default() };
            let s = CampaignSchedule::generate(&cfg);
            for e in &s.entries {
                if let Injection::BladeDrain { site, blade } = e.injection {
                    seen = true;
                    let drain_at = e.trigger.deadline();
                    assert!(
                        s.entries.iter().any(|r| {
                            matches!(
                                r.injection,
                                Injection::BladeRevive { site: rs, blade: rb }
                                    if rs == site && rb == blade
                            ) && r.trigger.deadline() > drain_at
                        }),
                        "seed {seed}: drain of site {site} blade {blade} never revived"
                    );
                }
            }
        }
        assert!(seen, "no seed in 0..32 scheduled a planned drain");
    }

    #[test]
    fn fatal_schedules_end_with_a_kill() {
        let cfg = CampaignConfig { seed: 11, fatal: true, ..CampaignConfig::default() };
        let s = CampaignSchedule::generate(&cfg);
        assert!(matches!(
            s.entries.last().map(|e| e.injection),
            Some(Injection::KillDirtyPage { .. })
        ));
    }
}
