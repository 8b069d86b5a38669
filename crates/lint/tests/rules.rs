//! Fixture-driven proof that every rule fires where it should, respects
//! its scoped allow marker, and stays silent out of scope. Fixtures live in
//! `tests/fixtures/` (never compiled, and skipped by the workspace walker);
//! each is fed to `analyze_files` under hand-picked fake paths so one
//! snippet exercises both the in-scope and out-of-scope behavior.

use ys_lint::{analyze_files, mark_pub_fns, Finding};

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
/// `dead-pub` tests below feed whole file sets and their warnings instead.
fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut f = analyze_files(&[(rel, src)], "");
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
    let f = analyze_source("crates/bench/src/fixture.rs", PANIC);
    assert!(f.is_empty(), "bench is not a panic-scoped crate: {f:#?}");
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

const DEAD_RS: &str = "crates/raid/src/dead.rs";
const CALLER_RS: &str = "crates/core/src/caller.rs";

/// The warning rustc prints, in its short format, for the marked copy of
/// the `pub fn` on `def`'s line of `dead_pub.rs`, named at `site` in the
/// file `rel` holding `src`.
fn warning(rel: &str, src: &str, site: &str, def: &str) -> String {
    let line = line_of(src, site);
    let col = src.lines().nth(line as usize - 1).and_then(|l| l.find(site)).map_or(0, |c| c + 1);
    format!(
        "{rel}:{line}:{col}: warning: use of deprecated function `x`: dead-pub {DEAD_RS}:{}\n",
        line_of(DEAD, def)
    )
}

/// The `dead-pub` fixture set: a library file, a library caller, and the
/// caller-only file under `frozen`, a `benchmark/src` path (or an
/// `examples` path, whose calls must not count),
/// with the warnings the compiler prints for each call into `dead_pub.rs`.
fn dead_pub_set(frozen: Option<&str>) -> Vec<Finding> {
    let mut files = vec![(DEAD_RS, DEAD), (CALLER_RS, DEAD_CALLER)];
    let mut warnings = String::from("warning: unused variable: `x`\n");
    warnings += &warning(CALLER_RS, DEAD_CALLER, "reached_only_through_a_re_export;", "pub fn reached_only_through");
    // The first `pub fn tick` in the fixture is `Live`'s.
    warnings += &warning(CALLER_RS, DEAD_CALLER, "tick() +", "pub fn tick");
    warnings += &warning(CALLER_RS, DEAD_CALLER, "called_from_a_library_file()", "pub fn called_from_a_library");
    warnings += &warning(DEAD_RS, DEAD, "called_only_in_its_own_file() +", "pub fn called_only_in_its_own_file");
    if let Some(path) = frozen {
        files.push((path, DEAD_FROZEN));
        warnings += &warning(path, DEAD_FROZEN, "called_by_benchmark()", "pub fn called_by_benchmark");
        warnings += &warning(path, DEAD_FROZEN, "called_by_an_example()", "pub fn called_by_an_example");
    }
    warnings += "warning: `ys-raid` (lib) generated 4 warnings\n";
    analyze_files(&files, &warnings)
}

const BENCH: Option<&str> = Some("benchmark/src/ledger.rs");

/// 1-based line of the last fixture line containing `needle`.
fn last_line_of(src: &str, needle: &str) -> u32 {
    src.lines().enumerate().filter(|(_, l)| l.contains(needle)).map(|(i, _)| i as u32 + 1).last().unwrap_or(0)
}

#[test]
fn dead_pub_flags_each_pub_fn_no_other_file_calls() {
    let f = dead_pub_set(BENCH);
    let want = vec![
        last_line_of(DEAD, "pub fn tick"),
        line_of(DEAD, "pub fn never_called"),
        line_of(DEAD, "pub const fn const_and_never_called"),
        line_of(DEAD, "pub fn called_only_by_a_test_module"),
        line_of(DEAD, "pub fn reached_only_through_a_re_export"),
        line_of(DEAD, "pub fn called_only_in_its_own_file"),
        line_of(DEAD, "pub fn the_line_after_a_marker"),
        line_of(DEAD, "pub fn under_another_rules_marker"),
    ];
    assert_eq!(lines_for(&f, "dead-pub"), want, "findings: {f:#?}");
    assert!(f.iter().all(|f| f.file == DEAD_RS), "findings: {f:#?}");
    assert_eq!(f.len(), want.len(), "only dead-pub fires: {f:#?}");
}

#[test]
fn dead_pub_tells_a_dead_method_from_a_live_one_of_the_same_name() {
    let f = lines_for(&dead_pub_set(BENCH), "dead-pub");
    assert!(!f.contains(&line_of(DEAD, "pub fn tick")), "Live::tick is called: {f:?}");
    assert!(f.contains(&last_line_of(DEAD, "pub fn tick")), "Dead::tick is not: {f:?}");
}

#[test]
fn dead_pub_counts_cross_file_calls_not_re_exports_or_own_file_calls() {
    let f = dead_pub_set(BENCH);
    let lines = lines_for(&f, "dead-pub");
    assert!(!lines.contains(&line_of(DEAD, "pub fn called_from_a_library_file")), "{lines:?}");
    // Its one other-file site is the `pub use`: a re-export is not a call.
    assert!(lines.contains(&line_of(DEAD, "pub fn reached_only_through_a_re_export")), "{lines:?}");
    // Called from its own file only: the finding says to narrow it.
    let own = line_of(DEAD, "pub fn called_only_in_its_own_file");
    let own = f.iter().find(|f| f.line == own).expect("own-file caller flagged");
    assert!(own.message.ends_with("delete it, or narrow it"), "{own:?}");
}

#[test]
fn dead_pub_counts_benchmark_but_not_examples_as_callers() {
    let frozen = [line_of(DEAD, "pub fn called_by_benchmark"), line_of(DEAD, "pub fn called_by_an_example")];
    let without = lines_for(&dead_pub_set(None), "dead-pub");
    assert!(frozen.iter().all(|l| without.contains(l)), "{without:?}");
    let f = dead_pub_set(BENCH);
    assert!(f.iter().all(|f| f.file != "benchmark/src/ledger.rs"), "the benchmark is read as a caller only: {f:#?}");
    let with = lines_for(&f, "dead-pub");
    assert!(frozen.iter().all(|l| !with.contains(l)), "{with:?}");
    // A root example is no caller: what only it calls is still dead.
    let f = dead_pub_set(Some("examples/quickstart.rs"));
    assert!(f.iter().all(|f| f.file != "examples/quickstart.rs"), "no rule reports in an example: {f:#?}");
    assert_eq!(lines_for(&f, "dead-pub"), without, "an example's calls keep nothing alive");
}

#[test]
fn dead_pub_ignores_narrow_visibility_test_code_and_binaries() {
    let f = lines_for(&dead_pub_set(BENCH), "dead-pub");
    let ignored = ["pub(crate) fn crate_visible", "pub fn gated_by_cfg_test", "pub fn inside_a_test_module"];
    for needle in ignored {
        assert!(!f.contains(&line_of(DEAD, needle)), "{needle} flagged: {f:?}");
    }
    // A binary's `pub fn` is not library surface.
    let bin = analyze_files(&[("crates/raid/src/main.rs", DEAD), ("crates/raid/src/bin/tool.rs", DEAD)], "");
    assert!(lines_for(&bin, "dead-pub").is_empty(), "findings: {bin:#?}");
}

#[test]
fn dead_pub_marker_suppresses_only_its_own_line() {
    let f = lines_for(&dead_pub_set(BENCH), "dead-pub");
    assert!(!f.contains(&line_of(DEAD, "pub fn kept_under_a_marker")));
    assert!(f.contains(&line_of(DEAD, "pub fn the_line_after_a_marker")));
    assert!(f.contains(&line_of(DEAD, "pub fn under_another_rules_marker")));
}

#[test]
fn marking_deprecates_each_judged_pub_fn_in_place() {
    let marked = mark_pub_fns(DEAD_RS, DEAD).expect("the fixture has pub fns to mark");
    assert_eq!(marked.lines().count(), DEAD.lines().count(), "no line moves");
    let tagged: Vec<u32> = marked
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("#[deprecated(note = \"dead-pub "))
        .map(|(i, l)| {
            let line = i as u32 + 1;
            assert!(l.trim_start().starts_with(&format!("#[deprecated(note = \"dead-pub {DEAD_RS}:{line}\")] pub ")));
            line
        })
        .collect();
    let judged = [
        "pub fn tick",
        "pub fn never_called",
        "pub const fn const_and_never_called",
        "pub fn called_from_a_library_file",
        "pub fn called_only_by_a_test_module",
        "pub fn reached_only_through_a_re_export",
        "pub fn called_only_in_its_own_file",
        "pub fn called_by_benchmark",
        "pub fn called_by_an_example",
        "pub fn the_line_after_a_marker",
        "pub fn under_another_rules_marker",
    ];
    let mut want: Vec<u32> = judged.iter().map(|n| line_of(DEAD, n)).collect();
    want.push(last_line_of(DEAD, "pub fn tick"));
    want.sort();
    assert_eq!(tagged, want, "{marked}");
    // Binaries and callers-only trees are not marked.
    assert!(mark_pub_fns("crates/raid/src/main.rs", DEAD).is_none());
    assert!(mark_pub_fns("benchmark/src/ledger.rs", DEAD_FROZEN).is_none());
}
