//! `ys-heal` — run the seeded fail → heal → fail-again campaign.
//!
//! Exit codes: `0` zero acked writes lost and every audit passed, `1` the
//! audit failed, `2` usage.

use std::process::ExitCode;
use ys_heal::CampaignConfig;

const USAGE: &str = "\
ys-heal: blade-lifecycle and re-replication campaign

USAGE:
    ys-heal [--seed N] [--writes N] [--quiet] [--double-run]

OPTIONS:
    --seed N      Victim-selection and working-set seed (default 0).
    --writes N    Foreground pages written before the first failure
                  (default 48).
    --quiet       Only the verdict line.
    --double-run  Run the identical campaign twice in one process and
                  fail unless the transcripts are byte-identical.
    -h, --help    This help.

The campaign fails a seeded blade, heals back to the fault-tolerance
target under Scavenger-class QoS, fails the promoted owner (the direct
test that healing restored the margin), rolling-drains and rejoins every
blade under foreground load, reads back every acknowledged write, and
demands the degraded-mode governor refuse writes at ReadOnly health.";

fn main() -> ExitCode {
    ys_core::harness::main(USAGE, CampaignConfig::default())
}
