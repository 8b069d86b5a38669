//! ys-lint — token-aware determinism & panic-safety analyzer.
//!
//! The simulator's whole value is that ys-chaos can replay a seeded fault
//! campaign byte-for-byte and ddmin-shrink any failure. That property dies
//! silently the moment a replay-affecting path consults wall-clock time,
//! ambient randomness, or unordered `HashMap` iteration — and a panic in
//! fallible library code turns a one-request failure into a lost controller
//! blade. ys-lint makes those contracts statically enforced instead of
//! tribal knowledge, and its `dead-pub` rule keeps the public surface to
//! what some non-test code calls.
//!
//! Unlike the substring matcher it replaces, ys-lint lexes Rust for real
//! ([`lexer`]), so `unwrap` inside a doc comment or string literal is never
//! a finding, and `#[cfg(test)]` items are recognized structurally rather
//! than by "tests are at the bottom of the file" convention.
//!
//! Entry points: [`lint_workspace`] walks `crates/` under a repo root and
//! asks the compiler for `dead-pub`'s callers ([`resolve`]);
//! [`analyze_files`] checks a set of `(path, text)` pairs against those
//! warnings, purely, so fixtures can feed it text under any path and
//! warnings in rustc's format; [`render_text`] formats a [`Report`].
//! `cargo xtask lint` is the one command line.

pub mod lexer;
pub mod resolve;
pub mod rules;

pub use rules::{analyze_files, mark_pub_fns, Finding, RULES};

use std::fs;
use std::io;
use std::path::Path;

/// Result of linting a set of files.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Files analyzed.
    pub files_scanned: usize,
}

/// Directories whose files are test or fixture code, exempt from all rules
/// (unit-test *modules* inside library files are handled token-wise).
const SKIP_DIRS: &[&str] = &["tests", "fixtures", "target"];

/// Lint every `.rs` file under `<root>/crates`, reading `benchmark/src`
/// too, as `dead-pub` callers only, with the callers the compiler finds in
/// a marked copy under `<root>/target/dead-pub`. The walk is sorted so the
/// report is deterministic regardless of directory order.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths)?;
    let files_scanned = paths.len();
    let bench = root.join("benchmark/src");
    if bench.is_dir() {
        collect_rs(&bench, &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        files.push((rel, fs::read_to_string(path)?));
    }
    let warnings = resolve::deprecation_warnings(root)?;
    let pairs: Vec<(&str, &str)> = files.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    Ok(Report { findings: analyze_files(&pairs, &warnings), files_scanned })
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if SKIP_DIRS.iter().any(|d| name.to_string_lossy() == *d) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Human-readable report: one line per finding plus a summary.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n    {}\n",
            f.file, f.line, f.rule, f.message, f.snippet
        ));
    }
    if report.findings.is_empty() {
        out.push_str(&format!(
            "ys-lint: {} files clean ({} rules)\n",
            report.files_scanned,
            RULES.len() + 1
        ));
    } else {
        out.push_str(&format!(
            "\nys-lint: {} finding(s) in {} files. Fix the code, or append a \
             scoped marker — `// lint: allow(<rule>) — <why it is safe>` — on \
             the offending line.\n",
            report.findings.len(),
            report.files_scanned
        ));
    }
    out
}
