//! `ys-scrub` — run a seeded end-to-end latent-error campaign.
//!
//! Exit codes: `0` every injected corruption was detected and repaired or
//! explicitly declared lost, `1` the audit failed, `2` usage.

use std::process::ExitCode;
use ys_scrub::CampaignConfig;

const USAGE: &str = "\
ys-scrub: end-to-end data-integrity campaign

USAGE:
    ys-scrub [--seed N] [--errors N] [--quiet] [--double-run]

OPTIONS:
    --seed N      Injection-schedule seed (default 0).
    --errors N    Latent errors to inject, round-robin over the four
                  protection classes: RAID parity, cached replica,
                  geo replica, and unprotected (default 64).
    --quiet       Only the verdict line.
    --double-run  Run the identical campaign twice in one process and
                  fail unless the transcripts are byte-identical.
    -h, --help    This help.

The campaign builds a three-site NetStorage system, injects the errors
across RAID-protected, cache-resident, geo-replicated, and unprotected
data, scrubs every site, and audits that each corruption is repaired
(with the source attributed) or explicitly declared lost — never silent.";

fn main() -> ExitCode {
    ys_core::harness::main(USAGE, CampaignConfig::default())
}
