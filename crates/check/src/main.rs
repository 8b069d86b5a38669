//! `ys-check` CLI: bounded exploration of the six standard models — the
//! cache cluster (with its §6.1 failover checks), DMSD, QoS admission,
//! integrity, security and heal — from the command line.
//!
//! ```text
//! cargo run -p ys-check --release -- --blades 3 --pages 4 --depth 5
//! cargo run -p ys-check --release -- --virt --depth 6
//! cargo run -p ys-check --release -- --qos --depth 7
//! ```
//!
//! Exit status is 0 when the explored space is violation-free, 1 when a
//! counterexample was found (its trace is printed as a replayable test
//! body), and 2 on usage errors.

use std::process::ExitCode;
use ys_check::{parse_args, run_named};

const USAGE: &str = "\
ys-check: bounded model checker for the cache cluster (default; with the
§6.1 crash/promote/destage failover checks) and five more subsystems

USAGE: ys-check [OPTIONS]

OPTIONS:
  --blades N       controller blades in scope        (default 3)
  --pages N        distinct pages in scope           (default 4)
  --capacity N     per-blade capacity in pages       (default 8)
  --depth N        max ops along any path            (default 5)
  --virt           check the DMSD volume manager instead of the cache
  --qos            check the ys-qos admission controller instead
  --integrity      check the checksum / scrub repair-or-declare protocol
  --security       check LUN masking / zoning / wire-cipher enforcement
  --heal           check the blade lifecycle / re-replication protocol
  -h, --help       print this help
";

fn main() -> ExitCode {
    let inv = match parse_args(std::env::args().skip(1)) {
        Ok(inv) => inv,
        Err(e) if e.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ys-check: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library stays clock-free; this binary is the one place allowed
    // to touch real time.
    let started = std::time::Instant::now();
    let elapsed = move || started.elapsed().as_secs_f64();
    let run = run_named(inv.model, inv.scope, inv.limits, elapsed)
        .expect("parse_args only selects standard models");
    print!("{}", run.rendered);
    ExitCode::from(u8::from(run.found_counterexample))
}
