//! Fixture-driven proof that every rule fires where it should, respects
//! its scoped allow marker, and stays silent out of scope. Fixtures live in
//! `tests/fixtures/` (never compiled, and skipped by the workspace walker);
//! each is fed to `analyze_files` under hand-picked fake paths so one
//! snippet exercises both the in-scope and out-of-scope behavior.

use ys_lint::{analyze_files, Finding};

const PANIC: &str = include_str!("fixtures/panic_path.rs");
const WALL: &str = include_str!("fixtures/wall_clock.rs");
const ENTROPY: &str = include_str!("fixtures/ambient_entropy.rs");
const UNORDERED: &str = include_str!("fixtures/unordered_iteration.rs");
const SYNTAX: &str = include_str!("fixtures/allow_syntax.rs");
const SOUP: &str = include_str!("fixtures/token_soup.rs");
const DEAD: &str = include_str!("fixtures/dead_pub.rs");
const DEAD_CALLER: &str = include_str!("fixtures/dead_pub_caller.rs");
const DEAD_FROZEN: &str = include_str!("fixtures/dead_pub_frozen.rs");

/// The per-file rules over one file alone. Alone, every fixture `pub fn`
/// is uncalled, so its `dead-pub` findings are dropped here; the
/// `dead-pub` tests below feed whole file sets instead.
fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut f = analyze_files(&[(rel, src)]);
    f.retain(|f| f.rule != "dead-pub");
    f
}

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
    let f = analyze_source("crates/obs/src/fixture.rs", PANIC);
    assert!(f.is_empty(), "obs is not a panic-scoped crate: {f:#?}");
    let f = analyze_source("crates/pfs/src/fixture.rs", PANIC);
    assert!(!f.is_empty(), "pfs is a panic-scoped crate");
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

/// The `dead-pub` fixture set: a library file, a library caller, and the
/// caller-only file under `frozen`, a `benchmark/src` or `examples` path.
fn dead_pub_set(frozen: Option<&str>) -> Vec<Finding> {
    let mut files = vec![("crates/raid/src/dead.rs", DEAD), ("crates/core/src/caller.rs", DEAD_CALLER)];
    files.extend(frozen.map(|path| (path, DEAD_FROZEN)));
    analyze_files(&files)
}

const BENCH: Option<&str> = Some("benchmark/src/ledger.rs");

#[test]
fn dead_pub_flags_each_pub_fn_no_other_file_calls() {
    let f = dead_pub_set(BENCH);
    let want = vec![
        line_of(DEAD, "pub fn never_called"),
        line_of(DEAD, "pub const fn const_and_never_called"),
        line_of(DEAD, "pub fn called_only_by_a_test_module"),
        line_of(DEAD, "pub fn named_only_in_a_pub_use"),
        line_of(DEAD, "pub fn named_only_in_prose"),
        line_of(DEAD, "pub fn the_line_after_a_marker"),
        line_of(DEAD, "pub fn under_another_rules_marker"),
    ];
    assert_eq!(lines_for(&f, "dead-pub"), want, "findings: {f:#?}");
    assert!(f.iter().all(|f| f.file == "crates/raid/src/dead.rs"), "findings: {f:#?}");
    assert_eq!(f.len(), want.len(), "only dead-pub fires: {f:#?}");
}

#[test]
fn dead_pub_counts_benchmark_and_examples_as_callers() {
    let frozen = [line_of(DEAD, "pub fn called_by_benchmark"), line_of(DEAD, "pub fn called_by_an_example")];
    let without = lines_for(&dead_pub_set(None), "dead-pub");
    assert!(frozen.iter().all(|l| without.contains(l)), "{without:?}");
    for tree in ["benchmark/src/ledger.rs", "examples/quickstart.rs"] {
        let f = dead_pub_set(Some(tree));
        assert!(f.iter().all(|f| f.file != tree), "{tree} is read as a caller only: {f:#?}");
        let with = lines_for(&f, "dead-pub");
        assert!(frozen.iter().all(|l| !with.contains(l)), "{tree}: {with:?}");
    }
}

#[test]
fn dead_pub_ignores_narrow_visibility_test_code_and_binaries() {
    let f = lines_for(&dead_pub_set(BENCH), "dead-pub");
    let ignored = [
        "pub(crate) fn crate_visible",
        "pub fn gated_by_cfg_test",
        "pub fn inside_a_test_module",
        "pub fn called_from_a_library_file",
    ];
    for needle in ignored {
        assert!(!f.contains(&line_of(DEAD, needle)), "{needle} flagged: {f:?}");
    }
    // A binary's `pub fn` is not library surface.
    let bin = analyze_files(&[("crates/raid/src/main.rs", DEAD), ("crates/raid/src/bin/tool.rs", DEAD)]);
    assert!(lines_for(&bin, "dead-pub").is_empty(), "findings: {bin:#?}");
}

#[test]
fn dead_pub_marker_suppresses_only_its_own_line() {
    let f = lines_for(&dead_pub_set(BENCH), "dead-pub");
    assert!(!f.contains(&line_of(DEAD, "pub fn kept_under_a_marker")));
    assert!(f.contains(&line_of(DEAD, "pub fn the_line_after_a_marker")));
    assert!(f.contains(&line_of(DEAD, "pub fn under_another_rules_marker")));
}
