//! `ys-sweep` CLI — fan deterministic multi-seed harness runs across
//! worker threads.
//!
//! Exit codes: `0` every shard met its promise (or, for `snapshot
//! --check`, no drift), `1` a shard failed or the snapshot drifted, `2`
//! usage errors.

use std::process::ExitCode;
use ys_core::harness::number;
use ys_sweep::{campaign_sweep, default_threads, snapshot, SweepOutcome};

const USAGE: &str = "\
ys-sweep: parallel deterministic multi-seed runner

USAGE:
    ys-sweep chaos [--seeds LIST] [--steps N] [--jobs N]
    ys-sweep scrub [--seeds LIST] [--jobs N]
    ys-sweep heal [--seeds LIST] [--jobs N]
    ys-sweep snapshot [--out PATH] [--check] [--jobs N]

OPTIONS:
    --seeds LIST    Comma list (1,2,7) or half-open range (1..9), not
                    empty (default 1..5).
    --steps N       Chaos workload steps per campaign (default 32).
    --out PATH      Snapshot path (default BENCH_baseline.json).
    --check         Compare a fresh snapshot against --out instead of
                    writing it.
    --jobs N        Worker threads (default: available parallelism, max 16).

Shards are merged in input order, so output is byte-identical for every
--jobs value — parallelism is a throughput knob, not a behaviour knob.";

fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a.trim().parse().map_err(|_| format!("bad seed range start {a}"))?;
        let b: u64 = b.trim().parse().map_err(|_| format!("bad seed range end {b}"))?;
        if b <= a {
            return Err(format!("empty seed range {spec}"));
        }
        return Ok((a..b).collect());
    }
    let seeds = spec
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| p.trim().parse().map_err(|_| format!("bad seed {p}")))
        .collect::<Result<Vec<u64>, String>>()?;
    if seeds.is_empty() {
        // A sweep over no seeds runs nothing and would pass.
        return Err(format!("empty seed list {spec:?}"));
    }
    Ok(seeds)
}

struct Args {
    mode: String,
    seeds: Vec<u64>,
    steps: u64,
    out: String,
    check_drift: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = match it.next() {
        Some(m) if matches!(m.as_str(), "chaos" | "scrub" | "heal" | "snapshot") => m,
        Some(m) if matches!(m.as_str(), "-h" | "--help") => return Err(String::new()),
        Some(m) => return Err(format!("unknown mode {m}")),
        None => return Err("missing mode".into()),
    };
    let mut args = Args {
        mode,
        seeds: (1..5).collect(),
        steps: 32,
        out: "BENCH_baseline.json".into(),
        check_drift: false,
        jobs: default_threads(),
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--seeds" => args.seeds = parse_seeds(&val()?)?,
            "--steps" => args.steps = number("--steps", &mut val)?,
            "--out" => args.out = val()?,
            "--check" => args.check_drift = true,
            "--jobs" => {
                args.jobs = number("--jobs", &mut val)?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_snapshot(args: &Args) -> Result<bool, String> {
    let snap = snapshot::render(&snapshot::collect(args.jobs));
    if args.check_drift {
        let baseline = std::fs::read_to_string(&args.out)
            .map_err(|e| format!("cannot read baseline {}: {e}", args.out))?;
        match snapshot::diff(&baseline, &snap) {
            None => {
                println!("ys-sweep: snapshot matches {}", args.out);
                Ok(true)
            }
            Some(report) => {
                print!("{report}");
                println!("regenerate with: cargo xtask bench-snapshot");
                Ok(false)
            }
        }
    } else {
        std::fs::write(&args.out, &snap).map_err(|e| format!("cannot write {}: {e}", args.out))?;
        println!("ys-sweep: wrote {} ({} bytes)", args.out, snap.len());
        Ok(true)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ys-sweep: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let sweep = match args.mode.as_str() {
        "chaos" => campaign_sweep(&args.seeds, args.jobs, |seed| ys_chaos::RunOptions::new(seed, args.steps)),
        "scrub" => campaign_sweep(&args.seeds, args.jobs, |seed| ys_scrub::CampaignConfig { seed }),
        "heal" => campaign_sweep(&args.seeds, args.jobs, |seed| ys_heal::CampaignConfig { seed }),
        "snapshot" => {
            let ok = run_snapshot(&args).unwrap_or_else(|e| {
                eprintln!("ys-sweep: {e}");
                false
            });
            SweepOutcome { report: String::new(), ok }
        }
        _ => unreachable!("parse_args validated the mode"),
    };
    print!("{}", sweep.report);
    if sweep.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
