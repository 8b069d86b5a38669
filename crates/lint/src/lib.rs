//! ys-lint — token-aware determinism & panic-safety analyzer.
//!
//! The simulator's whole value is that ys-chaos can replay a seeded fault
//! campaign byte-for-byte and ddmin-shrink any failure. That property dies
//! silently the moment a replay-affecting path consults wall-clock time,
//! ambient randomness, or unordered `HashMap` iteration — and a panic in
//! fallible library code turns a one-request failure into a lost controller
//! blade. ys-lint makes those contracts statically enforced instead of
//! tribal knowledge.
//!
//! Unlike the substring matcher it replaces, ys-lint lexes Rust for real
//! ([`lexer`]), so `unwrap` inside a doc comment or string literal is never
//! a finding, and `#[cfg(test)]` items are recognized structurally rather
//! than by "tests are at the bottom of the file" convention.
//!
//! Entry points: [`lint_workspace`] walks `crates/` under a repo root;
//! [`analyze_source`] checks one file's text (used by fixtures and xtask);
//! [`render_text`] / [`render_json`] format a [`Report`], the JSON form
//! deterministically (sorted findings, stable key order).

pub mod lexer;
pub mod rules;

pub use rules::{analyze_source, Finding, ALLOW_SYNTAX, RULES};

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

impl Report {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Directories whose files are test or fixture code, exempt from all rules
/// (unit-test *modules* inside library files are handled token-wise).
const SKIP_DIRS: &[&str] = &["tests", "examples", "fixtures", "target"];

/// Lint every `.rs` file under `<root>/crates`. The walk is sorted so the
/// report (and its JSON) is deterministic regardless of directory order.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    files.sort();
    let mut report = Report::default();
    for path in files {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        report.findings.extend(analyze_source(&rel, &src));
        report.files_scanned += 1;
    }
    report.findings.sort();
    Ok(report)
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
    if report.clean() {
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

/// Deterministic JSON: findings pre-sorted, object keys in fixed order,
/// no floats, LF-free strings escaped. Schema documented in docs/lint.md.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"rules\": [");
    for (i, r) in RULES.iter().chain([&ALLOW_SYNTAX]).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        out.push_str(r);
        out.push('"');
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str(&format!("  \"finding_count\": {},\n", report.findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"snippet\": {}}}",
            json_str(&f.file),
            f.line,
            json_str(f.rule),
            json_str(&f.message),
            json_str(&f.snippet)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_report_is_stable_and_parseable_shape() {
        let report = Report {
            findings: vec![Finding {
                file: "crates/cache/src/x.rs".into(),
                line: 3,
                rule: "panic-path",
                message: "m".into(),
                snippet: "s".into(),
            }],
            files_scanned: 1,
        };
        let a = render_json(&report);
        let b = render_json(&report);
        assert_eq!(a, b);
        assert!(a.contains("\"finding_count\": 1"));
        assert!(a.contains("\"rule\": \"panic-path\""));
    }
}
