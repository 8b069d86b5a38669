//! Run the claims' `report` sections and print them — the numbers
//! `cargo xtask experiments` writes into EXPERIMENTS.md. Usage:
//!
//! ```text
//! cargo run --release -p ys-bench --bin report            # every claim with an id
//! cargo run --release -p ys-bench --bin report -- E1 E7   # a subset
//! cargo run --release -p ys-bench --bin report -- --obs   # + observability breakdown
//! ```
//!
//! `--obs` appends the per-subsystem observability breakdown from an
//! instrumented reference run; without it the output is byte-identical to
//! the uninstrumented suite. An unknown id or flag prints the known ids and
//! exits 2.
//!
//! The suite body lives in [`ys_bench::report`]; this shim only wires up
//! stdout and the wall clock (this file is the bench crate's one
//! wall-clock-exempt location).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let started = std::time::Instant::now();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match ys_bench::report::run_report(&mut out, &args, move || started.elapsed().as_secs_f64()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("report: {e}");
            ExitCode::from(2)
        }
    }
}
