//! Shard definitions: one deterministic harness run per shard, fanned
//! across the [`crate::pool`] and merged back in input order.
//!
//! Every shard is a pure function of its input (a seed or a model name),
//! so the merged report is byte-identical whether shards ran on one worker
//! or sixteen. That identity is what `scripts/check.sh` compares and what
//! `tests/determinism.rs` pins.

use crate::pool::run_sweep;
use std::fmt::Write as _;
use ys_check::run_standard;
use ys_core::harness::Campaign;

/// A merged sweep: the full rendered report plus the aggregate verdict.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Per-shard sections concatenated in input (seed) order.
    pub report: String,
    /// True iff every shard met its promise.
    pub ok: bool,
}

/// Fan one seeded campaign per seed across `jobs` workers; `campaign`
/// builds the configuration a shard runs from its seed.
///
/// Each shard renders exactly what the campaign's own binary prints for
/// that seed (transcript — on a chaos failure including the shrunk
/// reproducer — and verdict), so the merged report is byte-identical for
/// every `--jobs` value.
pub fn campaign_sweep<C: Campaign>(seeds: &[u64], jobs: usize, campaign: impl Fn(u64) -> C + Sync) -> SweepOutcome {
    let bin = C::BIN;
    let runs = run_sweep(seeds.to_vec(), jobs, |&seed| campaign(seed).run());
    let mut report = String::new();
    for (seed, run) in seeds.iter().zip(&runs) {
        let _ = writeln!(report, "=== {bin} seed {seed} ===");
        report.push_str(&run.transcript);
        let _ = writeln!(report, "{bin}: seed {seed} {}", if run.ok { "PASS" } else { "FAIL" });
    }
    let failed = runs.iter().filter(|r| !r.ok).count();
    let _ = writeln!(report, "ys-sweep: {} campaigns, {failed} failed", seeds.len());
    SweepOutcome { report, ok: failed == 0 }
}

/// Fan the named standard model checks across `jobs` workers.
///
/// Each shard runs one bounded exploration through
/// [`ys_check::run_standard`], so its section matches a serial `ys-check`
/// invocation byte for byte (library runs report `elapsed 0.00s`).
pub fn check_sweep(models: &[String], depth: usize, max_states: usize, jobs: usize) -> SweepOutcome {
    let runs = run_sweep(models.to_vec(), jobs, |model| run_standard(model, depth, max_states));
    let mut report = String::new();
    let mut ok = true;
    let mut violations = 0usize;
    for (model, run) in models.iter().zip(&runs) {
        let _ = writeln!(report, "=== ys-check {model} ===");
        match run {
            Ok(r) => {
                report.push_str(&r.rendered);
                if r.found_counterexample {
                    violations += 1;
                    ok = false;
                }
            }
            Err(e) => {
                let _ = writeln!(report, "error: {e}");
                ok = false;
            }
        }
    }
    let _ = writeln!(report, "ys-sweep: {} models, {violations} violations", models.len());
    SweepOutcome { report, ok }
}

/// Fan the benchmark confidence sweep (one Zipf workload per seed) across
/// `jobs` workers, then merge through
/// `ys_bench::experiments::summarize_seed_sweep`.
pub fn bench_sweep(seeds: &[u64], jobs: usize) -> SweepOutcome {
    let results = run_sweep(seeds.to_vec(), jobs, |&seed| ys_bench::experiments::seed_run(seed));
    let series = ys_bench::experiments::summarize_seed_sweep(seeds, &results);
    let mut report = String::new();
    report.push_str(&series[0].render("seed", "MB/s"));
    report.push_str(&series[1].render("stat", "MB/s"));
    let ok = results.iter().all(|&mbps| mbps > 0.0);
    SweepOutcome { report, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<String> {
        vec!["cache".into(), "qos".into()]
    }

    #[test]
    fn chaos_sweep_parallel_is_byte_identical_to_serial() {
        let seeds = [1u64, 2, 3, 4];
        let chaos = |seed| ys_chaos::RunOptions::new(seed, 16);
        let serial = campaign_sweep(&seeds, 1, chaos);
        let parallel = campaign_sweep(&seeds, 4, chaos);
        assert_eq!(serial.report, parallel.report, "jobs count changed the merged report");
        assert!(serial.ok);
    }

    #[test]
    fn scrub_sweep_parallel_is_byte_identical_to_serial() {
        let seeds = [1u64, 2, 3];
        let scrub = |seed| ys_scrub::CampaignConfig { seed, errors: 56 };
        let serial = campaign_sweep(&seeds, 1, scrub);
        let parallel = campaign_sweep(&seeds, 3, scrub);
        assert_eq!(serial.report, parallel.report, "jobs count changed the merged report");
        assert!(serial.ok, "{}", serial.report);
        assert!(serial.report.contains("=== ys-scrub seed 2 ==="));
    }

    #[test]
    fn heal_sweep_parallel_is_byte_identical_to_serial() {
        let seeds = [1u64, 2, 3];
        let heal = |seed| ys_heal::CampaignConfig { seed, writes: 32 };
        let serial = campaign_sweep(&seeds, 1, heal);
        let parallel = campaign_sweep(&seeds, 3, heal);
        assert_eq!(serial.report, parallel.report, "jobs count changed the merged report");
        assert!(serial.ok, "{}", serial.report);
        assert!(serial.report.contains("=== ys-heal seed 2 ==="));
    }

    #[test]
    fn check_sweep_parallel_is_byte_identical_to_serial() {
        let serial = check_sweep(&models(), 3, 200_000, 1);
        let parallel = check_sweep(&models(), 3, 200_000, 4);
        assert_eq!(serial.report, parallel.report);
        assert!(serial.ok, "{}", serial.report);
        assert!(serial.report.contains("=== ys-check cache ==="));
    }

    #[test]
    fn bench_sweep_parallel_is_byte_identical_to_serial() {
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let serial = bench_sweep(&seeds, 1);
        let parallel = bench_sweep(&seeds, 8);
        assert_eq!(serial.report, parallel.report, "thread count changed results");
        assert!(serial.ok);
    }

    #[test]
    fn unknown_check_model_fails_the_sweep() {
        let out = check_sweep(&["nope".to_string()], 2, 1_000, 2);
        assert!(!out.ok);
        assert!(out.report.contains("error: unknown standard model"));
    }
}
