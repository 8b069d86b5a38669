//! Callers for `dead-pub`, as the compiler resolves them.
//!
//! A name match cannot tell a dead method from a live one of the same name
//! on another type; the compiler can. [`deprecation_warnings`]
//! mirrors the sources into `target/dead-pub/tree`, deprecates each library
//! `pub fn` there ([`mark_pub_fns`]), and runs `cargo check` over the
//! targets that count as callers: the workspace's libraries and binaries,
//! and `benchmark/`'s library and binary. Test and example targets are not
//! built, so a call from a test or an example is not a caller. Every use
//! of a marked function is then one warning naming its site and its
//! definition, which [`analyze_files`](crate::analyze_files) maps back,
//! purely.
//!
//! Nothing is written outside `target/dead-pub`. A file is rewritten only
//! when its marked text changed, so a warm run re-checks only what moved.

use crate::rules::mark_pub_fns;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// What the marked tree mirrors: every file under these, minus `target/`.
const TREES: &[&str] = &["crates", "shims", "benchmark/src"];
/// Single files the builds need besides the trees.
const MANIFESTS: &[&str] = &["Cargo.toml", "Cargo.lock", "benchmark/Cargo.toml", "benchmark/Cargo.lock"];

/// The compiler's short-format warnings for the marked tree, every site
/// path repo-relative and `/`-separated.
pub fn deprecation_warnings(root: &Path) -> io::Result<String> {
    let work = root.join("target").join("dead-pub");
    let tree = work.join("tree");
    mirror(root, &tree)?;
    let mut warnings = String::new();
    for (dir, args) in [
        ("", &["--workspace", "--lib", "--bins"][..]),
        ("benchmark", &["--lib", "--bins"][..]),
    ] {
        let cwd = tree.join(dir);
        let out = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
            .args(["check", "--offline", "--message-format", "short"])
            .args(args)
            .current_dir(&cwd)
            .env("CARGO_TARGET_DIR", work.join("build"))
            .output()?;
        let stderr = String::from_utf8_lossy(&out.stderr);
        if !out.status.success() {
            return Err(io::Error::other(format!("cargo check in {} failed:\n{stderr}", cwd.display())));
        }
        for line in stderr.lines().filter(|l| l.contains("use of deprecated")) {
            // Paths are relative to `cwd`, or absolute for a path
            // dependency outside `cwd`'s workspace.
            let site = Path::new(line.split(':').next().unwrap_or_default());
            let Ok(rel) = normalize(&cwd.join(site)).strip_prefix(&tree).map(Path::to_path_buf) else {
                continue;
            };
            let rel = rel.to_string_lossy().replace(std::path::MAIN_SEPARATOR, "/");
            warnings.push_str(&rel);
            warnings.push_str(&line[site.as_os_str().len()..]);
            warnings.push('\n');
        }
    }
    Ok(warnings)
}

/// `path` with `.` and `..` components folded, without touching the disk.
fn normalize(path: &Path) -> PathBuf {
    let mut out = PathBuf::new();
    for c in path.components() {
        match c {
            std::path::Component::ParentDir => {
                out.pop();
            }
            std::path::Component::CurDir => {}
            c => out.push(c),
        }
    }
    out
}

/// Make `tree` hold exactly the marked copy of what the builds read.
fn mirror(root: &Path, tree: &Path) -> io::Result<()> {
    let mut wanted = BTreeSet::new();
    for rel in MANIFESTS {
        copy(root, tree, Path::new(rel), &mut wanted)?;
    }
    for dir in TREES {
        let mut files = Vec::new();
        walk(&root.join(dir), &mut files)?;
        for path in files {
            copy(root, tree, path.strip_prefix(root).unwrap_or(&path), &mut wanted)?;
        }
    }
    // A file gone from the sources must go from the copy too: a stale
    // `src/bin/` file or crate directory would still be built.
    let mut present = Vec::new();
    walk(tree, &mut present)?;
    for path in present.iter().filter(|p| !wanted.contains(*p)) {
        fs::remove_file(path)?;
    }
    prune_empty(tree)?;
    Ok(())
}

fn copy(root: &Path, tree: &Path, rel: &Path, wanted: &mut BTreeSet<PathBuf>) -> io::Result<()> {
    let from = root.join(rel);
    if !from.is_file() {
        return Ok(());
    }
    let bytes = fs::read(&from)?;
    let slash = rel.to_string_lossy().replace(std::path::MAIN_SEPARATOR, "/");
    let marked = std::str::from_utf8(&bytes).ok().and_then(|src| mark_pub_fns(&slash, src));
    let bytes = marked.map_or(bytes, String::into_bytes);
    let to = tree.join(rel);
    if fs::read(&to).ok().as_deref() != Some(&bytes[..]) {
        if let Some(dir) = to.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(&to, bytes)?;
    }
    wanted.insert(to);
    Ok(())
}

/// Every file under `dir`, skipping `target/` directories.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out)?;
            }
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Remove the directories under `dir` that hold no file.
fn prune_empty(dir: &Path) -> io::Result<bool> {
    let mut empty = true;
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() && path.file_name().is_some_and(|n| n != "target") && prune_empty(&path)? {
            fs::remove_dir(&path)?;
        } else {
            empty = false;
        }
    }
    Ok(empty)
}
