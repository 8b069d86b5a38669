//! Shard definitions: one deterministic harness run per shard, fanned
//! across the [`crate::pool`] and merged back in input order.
//!
//! Every shard is a pure function of its seed, so the merged report is
//! byte-identical whether shards ran on one worker or sixteen. That
//! identity is what `scripts/check.sh` compares and what
//! `tests/determinism.rs` pins.

use crate::pool::run_sweep;
use std::fmt::Write as _;
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let scrub = |seed| ys_scrub::CampaignConfig { seed };
        let serial = campaign_sweep(&seeds, 1, scrub);
        let parallel = campaign_sweep(&seeds, 3, scrub);
        assert_eq!(serial.report, parallel.report, "jobs count changed the merged report");
        assert!(serial.ok, "{}", serial.report);
        assert!(serial.report.contains("=== ys-scrub seed 2 ==="));
    }

    #[test]
    fn heal_sweep_parallel_is_byte_identical_to_serial() {
        let seeds = [1u64, 2, 3];
        let heal = |seed| ys_heal::CampaignConfig { seed };
        let serial = campaign_sweep(&seeds, 1, heal);
        let parallel = campaign_sweep(&seeds, 3, heal);
        assert_eq!(serial.report, parallel.report, "jobs count changed the merged report");
        assert!(serial.ok, "{}", serial.report);
        assert!(serial.report.contains("=== ys-heal seed 2 ==="));
    }
}
