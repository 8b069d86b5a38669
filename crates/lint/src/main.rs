//! `ys-lint` CLI — lint the workspace for determinism & panic-safety.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ys-lint: token-aware determinism & panic-safety analyzer

USAGE:
    ys-lint [--json] [--root DIR]

OPTIONS:
    --json        Emit the deterministic JSON report instead of text.
    --root DIR    Repo root to lint (default: nearest ancestor of the
                  current directory containing a `crates/` directory).
    -h, --help    This help.

Rules: panic-path, wall-clock, ambient-entropy, unordered-iteration, dead-pub,
allow-syntax. Suppress per line with `// lint: allow(<rule>) — <reason>`.
See docs/lint.md for the catalog and JSON schema.";

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("ys-lint: --root needs a value\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ys-lint: unknown argument {other}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(find_root) {
        Some(r) => r,
        None => {
            eprintln!("ys-lint: no crates/ directory found; pass --root");
            return ExitCode::from(2);
        }
    };
    let report = match ys_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ys-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", ys_lint::render_json(&report));
    } else {
        print!("{}", ys_lint::render_text(&report));
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
