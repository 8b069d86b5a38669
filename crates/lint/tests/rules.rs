//! Fixture-driven proof that every rule fires where it should, respects
//! its scoped allow marker, and stays silent out of scope. Fixtures live in
//! `tests/fixtures/` (never compiled, and skipped by the workspace walker);
//! each is fed to `analyze_source` under hand-picked fake paths so one
//! snippet exercises both the in-scope and out-of-scope behavior.

use ys_lint::{analyze_source, Finding};

const PANIC: &str = include_str!("fixtures/panic_path.rs");
const WALL: &str = include_str!("fixtures/wall_clock.rs");
const ENTROPY: &str = include_str!("fixtures/ambient_entropy.rs");
const UNORDERED: &str = include_str!("fixtures/unordered_iteration.rs");
const SYNTAX: &str = include_str!("fixtures/allow_syntax.rs");
const SOUP: &str = include_str!("fixtures/token_soup.rs");

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost its needle: {needle}"))
}

fn lines_for(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn panic_path_fires_and_respects_markers() {
    let f = analyze_source("crates/virt/src/fixture.rs", PANIC);
    let got = lines_for(&f, "panic-path");
    let want = vec![
        line_of(PANIC, "v.unwrap()\n".trim()), // unwrap_fires body
        line_of(PANIC, "v.expect(\"boom\")"),
        line_of(PANIC, "panic!(\"too big\")"),
        line_of(PANIC, "todo!()"),
        line_of(PANIC, "Ok(xs[i + 1])"),
    ];
    assert_eq!(got, want, "findings: {f:#?}");
    // The suppressed twin, the comment-line marker, the bare index, the
    // computed index outside a Result fn, and the #[cfg(test)] module all
    // stay silent — covered by the exact-set assertion above.
    assert!(lines_for(&f, "allow-syntax").is_empty(), "markers are well-formed");
}

#[test]
fn inner_cfg_test_exempts_the_rest_of_its_block() {
    // The file of an out-of-line `mod tests;` opens with `#![cfg(test)]`:
    // all of it is test code, non-`#[test]` helpers included.
    let file = "#![cfg(test)]\nuse super::*;\nfn helper() -> u32 { Some(1).unwrap() }\n";
    assert!(analyze_source("crates/virt/src/tests.rs", file).is_empty());
    // Inside a block it reaches that block's end and no further.
    let nested = "mod t {\n    #![cfg(test)]\n    fn a() { Some(1).unwrap(); }\n}\nfn b() { Some(1).unwrap(); }\n";
    let f = analyze_source("crates/virt/src/x.rs", nested);
    assert_eq!(lines_for(&f, "panic-path"), vec![5], "findings: {f:#?}");
}

#[test]
fn panic_path_is_scoped_to_typed_error_crates() {
    let f = analyze_source("crates/pfs/src/fixture.rs", PANIC);
    assert!(f.is_empty(), "pfs is not a panic-scoped crate: {f:#?}");
    let f = analyze_source("crates/simnet/src/fixture.rs", PANIC);
    assert!(!f.is_empty(), "simnet is a panic-scoped crate");
}

#[test]
fn wall_clock_fires_and_respects_markers() {
    let f = analyze_source("crates/core/src/fixture.rs", WALL);
    let got = lines_for(&f, "wall-clock");
    let want = vec![
        line_of(WALL, "let started = std::time::Instant::now();"),
        line_of(WALL, "std::time::SystemTime::now()"),
    ];
    assert_eq!(got, want, "findings: {f:#?}");
}

#[test]
fn wall_clock_exempts_designated_binaries() {
    let f = analyze_source("crates/bench/src/bin/report.rs", WALL);
    assert!(f.is_empty(), "the report binary may read the clock: {f:#?}");
}

#[test]
fn ambient_entropy_fires_and_respects_markers() {
    let f = analyze_source("crates/simnet/src/fixture.rs", ENTROPY);
    let got = lines_for(&f, "ambient-entropy");
    let want = vec![
        line_of(ENTROPY, "use rand::Rng;"),
        line_of(ENTROPY, "-> std::collections::hash_map::RandomState"),
        line_of(ENTROPY, "std::collections::hash_map::RandomState::new()"),
        line_of(ENTROPY, "rand::random()"),
        line_of(ENTROPY, "std::thread::spawn(|| {});\n".trim()), // thread_spawn_fires
        line_of(ENTROPY, "pool.spawn(|| {});"),
        line_of(ENTROPY, "std::thread::available_parallelism()"),
    ];
    assert_eq!(got, want, "findings: {f:#?}");
}

#[test]
fn ambient_entropy_exempts_tooling_crates() {
    let f = analyze_source("crates/check/src/fixture.rs", ENTROPY);
    assert!(f.is_empty(), "check may use thread pools: {f:#?}");
}

#[test]
fn unordered_iteration_fires_and_respects_markers() {
    let f = analyze_source("crates/raid/src/fixture.rs", UNORDERED);
    let got = lines_for(&f, "unordered-iteration");
    let want = vec![
        line_of(UNORDERED, "use std::collections::HashMap;"),
        line_of(UNORDERED, "pub rows: HashMap<u64, u64>,"),
        line_of(UNORDERED, "-> std::collections::HashSet<u64>"),
        line_of(UNORDERED, "std::collections::HashSet::new()"),
    ];
    assert_eq!(got, want, "findings: {f:#?}");
}

#[test]
fn unordered_iteration_is_scoped_to_replay_crates() {
    let f = analyze_source("crates/pfs/src/fixture.rs", UNORDERED);
    assert!(f.is_empty(), "pfs state never feeds replay: {f:#?}");
}

#[test]
fn allow_syntax_flags_bad_markers_but_not_doc_prose() {
    let f = analyze_source("crates/pfs/src/fixture.rs", SYNTAX);
    let got = lines_for(&f, "allow-syntax");
    let want = vec![
        line_of(SYNTAX, "// lint: allow — unscoped"),
        line_of(SYNTAX, "made-up-rule"),
    ];
    assert_eq!(got, want, "findings: {f:#?}");
    assert_eq!(f.len(), 2, "doc-comment prose produced findings: {f:#?}");
}

#[test]
fn strings_and_comments_never_fire() {
    // cache is in every scope (panic + replay + entropy + wall-clock), so
    // a substring matcher would report a dozen findings here.
    let f = analyze_source("crates/cache/src/fixture.rs", SOUP);
    assert!(f.is_empty(), "token soup leaked findings: {f:#?}");
}

#[test]
fn marker_suppresses_only_its_own_rule() {
    // A wall-clock marker must not waive a panic-path finding on the line.
    let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint: allow(wall-clock)\n}\n";
    let f = analyze_source("crates/cache/src/fixture.rs", src);
    assert_eq!(lines_for(&f, "panic-path"), vec![2], "findings: {f:#?}");
}
