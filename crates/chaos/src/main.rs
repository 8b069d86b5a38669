//! `ys-chaos` — run a deterministic fault campaign from a seed.
//!
//! Exit codes: `0` the campaign proved its promises (or, with `--fatal`,
//! found and shrank the expected loss), `1` the proof failed, `2` usage.
//!
//! The campaign body and its flags live in [`ys_chaos::run`], shared with
//! the `ys-sweep` parallel harness; argument parsing, `--double-run` and
//! the exit codes are [`ys_core::harness`]'s.

use std::process::ExitCode;
use ys_chaos::RunOptions;

const USAGE: &str = "\
ys-chaos: deterministic fault-campaign harness

USAGE:
    ys-chaos [--seed N] [--steps N] [--fatal] [--keep i,j,k] [--quiet]
             [--double-run]

OPTIONS:
    --seed N      Campaign seed (default 4). Schedule, workload, and
                  injection instants are all derived from it.
    --steps N     Workload steps before convergence (default 64).
    --fatal       Append a deliberate N-failure episode. The campaign is
                  then EXPECTED to surface an explicit acked-write loss;
                  exit 0 means it did (and the schedule was shrunk).
    --keep i,j,k  Replay only the schedule entries with these original
                  indices (what a shrunk counterexample prints).
    --quiet       Only the verdict line and, on failure, the reproducer.
    --double-run  Run the identical campaign twice in one process and fail
                  unless the transcripts are byte-identical. Catches replay
                  nondeterminism (hasher-seeded iteration, ambient entropy)
                  that a single run can never see.
    -h, --help    This help.

A failing campaign prints a minimal reproducing schedule and the exact
command line that replays it.";

fn main() -> ExitCode {
    ys_core::harness::main(USAGE, RunOptions::new(4, 64))
}
