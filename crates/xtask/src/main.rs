//! Repo automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! * `lint` — run the [`ys_lint`] token-aware static analyzer over the
//!   whole workspace: panic paths in fallible library code, wall-clock
//!   reads outside the exempt binaries, ambient entropy in simulation
//!   crates, unordered (hash-based) iteration in replay-affecting crates,
//!   and `pub fn`s no other file calls outside test code. Those callers
//!   come from the compiler: a copy of the sources under
//!   `target/dead-pub` deprecates every library `pub fn`, and a non-test
//!   `cargo check` of that copy names each call site. The working tree is
//!   never written. Suppressions are scoped inline markers only —
//!   `// lint: allow(rule) — justification` on the offending line; see
//!   `docs/lint.md` for the rule catalog and policy.
//! * `doc` — build the workspace rustdoc with warnings denied
//!   (`RUSTDOCFLAGS="-D warnings" cargo doc --no-deps`), so broken intra-doc
//!   links and malformed doc comments fail the hygiene gate instead of
//!   rotting silently.
//! * `bench-snapshot` — regenerate `BENCH_baseline.json` via a release
//!   build of `ys-sweep snapshot` (pass `--check` to compare instead of
//!   write). See `docs/performance.md` for the snapshot schema and
//!   workflow.
//! * `experiments` — rewrite EXPERIMENTS.md's generated "Measured" blocks
//!   from a release run of `report` (pass `--check` to compare instead of
//!   write): each `<!-- report ID -->` … `<!-- /report -->` region holds
//!   claim ID's report section verbatim, so the document cannot drift
//!   from the code.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        ["lint"] => lint(),
        ["doc"] => doc(),
        ["bench-snapshot"] => bench_snapshot(false),
        ["bench-snapshot", "--check"] => bench_snapshot(true),
        ["experiments"] => experiments(false),
        ["experiments", "--check"] => experiments(true),
        _ => {
            eprintln!(
                "xtask: unknown arguments {args:?}\n\
                 usage: cargo xtask <lint|doc|bench-snapshot [--check]|experiments [--check]>"
            );
            ExitCode::from(2)
        }
    }
}

/// Build the workspace docs with rustdoc warnings promoted to errors.
fn doc() -> ExitCode {
    let root = repo_root();
    let mut flags = std::env::var("RUSTDOCFLAGS").unwrap_or_default();
    if !flags.contains("-D warnings") {
        if !flags.is_empty() {
            flags.push(' ');
        }
        flags.push_str("-D warnings");
    }
    let status = Command::new("cargo")
        .args(["doc", "--no-deps", "--workspace"])
        .current_dir(&root)
        .env("RUSTDOCFLAGS", flags)
        .status();
    match status {
        Ok(s) if s.success() => {
            println!("xtask doc: workspace rustdoc clean (-D warnings)");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask doc: cannot spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerate (or, with `check`, verify) the simulation-metric baseline,
/// via a release build of `ys-sweep snapshot` (the scenarios are the slow
/// part, not the compile).
fn bench_snapshot(check: bool) -> ExitCode {
    let root = repo_root();
    let baseline = root.join("BENCH_baseline.json");
    let mut cmd = Command::new("cargo");
    cmd.args(["run", "--release", "-q", "-p", "ys-sweep", "--", "snapshot", "--out"])
        .arg(&baseline)
        .current_dir(&root);
    if check {
        cmd.arg("--check");
    }
    match cmd.status() {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xtask bench-snapshot: cannot spawn cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerate (or, with `check`, verify) the report sections quoted in
/// EXPERIMENTS.md.
fn experiments(check: bool) -> ExitCode {
    let root = repo_root();
    let run = Command::new("cargo")
        .args(["run", "--release", "-q", "-p", "ys-bench", "--bin", "report"])
        .current_dir(&root)
        .output();
    let report = match run {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
        Ok(out) => {
            eprintln!("xtask experiments: report failed\n{}", String::from_utf8_lossy(&out.stderr));
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("xtask experiments: cannot spawn cargo: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = root.join("EXPERIMENTS.md");
    let spliced = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|doc| Ok((splice(&doc, &report)?, doc)));
    let (new, doc) = match spliced {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("xtask experiments: {e}");
            return ExitCode::FAILURE;
        }
    };
    if check {
        if new == doc {
            return ExitCode::SUCCESS;
        }
        eprintln!("xtask experiments: EXPERIMENTS.md differs from `report`; regenerate with: cargo xtask experiments");
        return ExitCode::FAILURE;
    }
    match std::fs::write(&path, new) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask experiments: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `doc` with the body of every `<!-- report ID -->` … `<!-- /report -->`
/// region replaced by ID's section of `report`, as a text block.
fn splice(doc: &str, report: &str) -> Result<String, String> {
    const OPEN: &str = "<!-- report ";
    const CLOSE: &str = "<!-- /report -->";
    let mut out = String::new();
    let mut rest = doc;
    while let Some(start) = rest.find(OPEN) {
        let open_end = rest[start..].find("-->").map(|i| start + i + 3).ok_or("unterminated report marker")?;
        let id = rest[start + OPEN.len()..open_end - 3].trim();
        let close = rest[open_end..].find(CLOSE).map(|i| open_end + i).ok_or(format!("{id}: no {CLOSE}"))?;
        out.push_str(&rest[..open_end]);
        out.push_str("\n```text\n");
        out.push_str(section_body(report, id).ok_or(format!("{id}: no such report section"))?);
        out.push_str("```\n");
        rest = &rest[close..];
    }
    out.push_str(rest);
    Ok(out)
}

/// What `report` printed under `id`'s banner, up to the next banner or the
/// footer, ending in one newline.
fn section_body<'a>(report: &'a str, id: &str) -> Option<&'a str> {
    const RULE: &str = "================================================================\n";
    let title = report.find(&format!("{RULE}{id} "))? + RULE.len();
    let start = title + report[title..].find(RULE)? + RULE.len();
    let end = report[start..].find(RULE).or_else(|| report[start..].find("(suite completed"))? + start;
    let body = report[start..end].trim_end_matches('\n');
    Some(&report[start..start + body.len() + 1])
}

fn repo_root() -> PathBuf {
    // Under `cargo run`/`cargo xtask` the manifest dir is crates/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

fn lint() -> ExitCode {
    let root = repo_root();
    let report = match ys_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", ys_lint::render_text(&report));
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
