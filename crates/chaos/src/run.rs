//! One rendered campaign run: the shared body behind the `ys-chaos` CLI
//! and the `ys-sweep` parallel harness.
//!
//! A run is a pure function of [`RunOptions`]: it regenerates the schedule
//! from the seed, drives the campaign, renders the transcript exactly as
//! the CLI prints it, and — on failure — shrinks the schedule to a minimal
//! reproducer with its replay command line. Keeping this in the library
//! means a shard executed by `ys-sweep --jobs 8` produces the same bytes
//! as `ys-chaos` run serially from a shell, which is what the
//! parallel-vs-serial byte-identity gate compares.

use crate::campaign::{run_with_schedule, CampaignConfig};
use crate::schedule::CampaignSchedule;
use crate::shrink::minimize;
use std::fmt::Write as _;
pub use ys_core::harness::CampaignRun;
use ys_core::harness::{number, Campaign};

/// Everything that determines one rendered campaign run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Campaign seed: schedule, workload, and injection instants all
    /// derive from it.
    pub seed: u64,
    /// Workload steps before convergence.
    pub steps: u64,
    /// Append a deliberate N-failure episode; the run then *passes* by
    /// surfacing (and shrinking) the expected acked-write loss.
    pub fatal: bool,
    /// Replay only the schedule entries with these original indices
    /// (what a shrunk counterexample prints).
    pub keep: Option<Vec<usize>>,
}

impl RunOptions {
    /// Options for a plain within-budget campaign at `seed`.
    pub fn new(seed: u64, steps: u64) -> RunOptions {
        RunOptions { seed, steps, fatal: false, keep: None }
    }
}

impl Campaign for RunOptions {
    const BIN: &'static str = "ys-chaos";

    fn seed(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String> {
        match flag {
            "--steps" => self.steps = number("--steps", value)?,
            "--fatal" => self.fatal = true,
            "--keep" => {
                let list = value()?;
                let keep = list.split(',').filter(|p| !p.is_empty()).map(|part| {
                    part.parse().map_err(|_| format!("bad --keep index {part}"))
                });
                self.keep = Some(keep.collect::<Result<_, _>>()?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn run(&self) -> CampaignRun {
        run_rendered(self)
    }
}

/// The exact replay command line for a (possibly shrunk) schedule.
fn replay_command(opts: &RunOptions, schedule: &CampaignSchedule) -> String {
    let kept: Vec<String> = schedule.entries.iter().map(|e| e.index.to_string()).collect();
    let mut cmd = format!("ys-chaos --seed {} --steps {}", schedule.seed, opts.steps);
    if opts.fatal {
        cmd.push_str(" --fatal");
    }
    format!("{cmd} --keep {}", kept.join(","))
}

/// One full campaign from scratch. Every call regenerates schedule and
/// state, so two calls share nothing but the seed — exactly what a
/// cross-process replay (or a `ys-sweep` shard on another thread) sees.
fn run_rendered(opts: &RunOptions) -> CampaignRun {
    let cfg = CampaignConfig {
        seed: opts.seed,
        steps: opts.steps,
        fatal: opts.fatal,
        ..CampaignConfig::default()
    };
    let full = CampaignSchedule::generate(&cfg);
    let schedule = match &opts.keep {
        Some(keep) => full.keep(keep),
        None => full,
    };
    let mut transcript = String::new();
    let _ = writeln!(transcript, "schedule ({} entries):", schedule.entries.len());
    transcript.push_str(&schedule.render());
    let report = run_with_schedule(&cfg, schedule);
    transcript.push_str(&report.render());

    let failed = !report.passed();
    let mut reproducer = String::new();
    if failed {
        let (minimal, runs) = minimize(&cfg, &report.schedule);
        let _ = writeln!(
            reproducer,
            "counterexample: {} of {} injections suffice ({} shrink runs)",
            minimal.entries.len(),
            report.schedule.entries.len(),
            runs
        );
        for e in &minimal.entries {
            let _ = writeln!(reproducer, "  {e}");
        }
        let _ = writeln!(reproducer, "replay: {}", replay_command(opts, &minimal));
        transcript.push_str(&reproducer);
    }

    let ok = if opts.fatal {
        // Fatal mode: the harness passes by FINDING the loss.
        report.violations.iter().any(|v| v.rule == "acked-write-lost")
            && report.violations.iter().all(|v| v.rule != "loss-within-budget")
    } else {
        !failed
    };
    CampaignRun { transcript, reproducer, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_run_matches_manual_assembly() {
        let opts = RunOptions::new(4, 24);
        let run = run_rendered(&opts);
        assert!(run.ok, "seed 4 within-budget campaign must pass:\n{}", run.transcript);
        assert!(run.reproducer.is_empty());
        assert!(run.transcript.starts_with("schedule ("));
    }

    #[test]
    fn fatal_run_carries_a_replayable_reproducer() {
        let opts = RunOptions { seed: 4, steps: 24, fatal: true, keep: None };
        let run = run_rendered(&opts);
        assert!(run.ok, "fatal mode passes by finding the loss");
        assert!(run.reproducer.contains("replay: ys-chaos --seed 4"));
        assert!(run.transcript.ends_with(&run.reproducer));
    }
}
