//! `ys-report` — run a named claim of the registry and render its report:
//! per-blade / per-subsystem tables, paper-claim checkpoints, the metrics
//! registry as JSON, and a Chrome `trace_event` file for chrome://tracing.
//!
//! ```text
//! ys-report <scenario> [--trace-out PATH] [--metrics]
//! ys-report --list
//! ```
//!
//! Exit codes: 0 = every checkpoint passed, 1 = a checkpoint failed (or the
//! trace could not be written), 2 = usage error.

use std::process::ExitCode;
use ys_bench::claims::{by_name, CLAIMS};
use ys_simcore::chrome_trace_json;

fn usage() -> String {
    let mut out = String::from(
        "usage: ys-report <scenario> [--trace-out PATH] [--metrics]\n\
         \n\
         scenarios:\n",
    );
    let named = || CLAIMS.iter().filter_map(|c| Some((c.name?, c.what)));
    let width = named().map(|(name, _)| name.len()).max().unwrap_or(0);
    for (name, what) in named() {
        out.push_str(&format!("  {name:<width$} {what}\n"));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut metrics = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" | "-l" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--metrics" => metrics = true,
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_out = Some(p.clone()),
                    None => {
                        eprintln!("--trace-out needs a path\n{}", usage());
                        return ExitCode::from(2);
                    }
                }
            }
            name if scenario.is_none() && !name.starts_with('-') => scenario = Some(name.to_string()),
            other => {
                eprintln!("unknown argument: {other}\n{}", usage());
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let Some(name) = scenario else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let Some(claim) = by_name(&name) else {
        eprintln!("unknown scenario: {name}\n{}", usage());
        return ExitCode::from(2);
    };
    let report = (claim.run)();

    print!("{}", report.render(&name));

    let trace_json = chrome_trace_json(&report.events);
    // Self-check so a consumer never loads a malformed trace.
    if let Err(e) = serde_json::parse_value(&trace_json) {
        eprintln!("internal error: emitted trace is not valid JSON: {e}");
        return ExitCode::FAILURE;
    }
    let path = trace_out.unwrap_or_else(|| format!("ys-report-{name}.trace.json"));
    match std::fs::write(&path, &trace_json) {
        Ok(()) => println!(
            "chrome trace: {path} ({} events, valid trace_event JSON — load in chrome://tracing)",
            report.events.len()
        ),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if metrics {
        println!("{}", report.registry.to_json());
    }
    if report.all_pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
