//! One registry, two doors: every claim is measured by one body, and
//! `report`, `ys-report` and the snapshot's `claims` section all print
//! what that body returned.

use std::collections::BTreeSet;
use std::process::Command;
use ys_bench::claims::{by_name, CLAIMS};
use ys_bench::report::{run_report, section};
use ys_sweep::snapshot::{claims, digest};

#[test]
fn ids_and_names_are_unique_and_every_claim_has_a_door() {
    let ids: Vec<&str> = CLAIMS.iter().filter_map(|c| c.id).collect();
    let names: Vec<&str> = CLAIMS.iter().filter_map(|c| c.name).collect();
    assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), ids.len(), "duplicate id in {ids:?}");
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len(), "duplicate name in {names:?}");
    for c in CLAIMS {
        assert!(c.id.is_some() || c.name.is_some(), "{} is reachable by neither door", c.what);
    }
}

#[test]
fn a_merged_claim_prints_its_body_through_report() {
    for c in CLAIMS.iter().filter(|c| c.name.is_some()) {
        let Some(id) = c.id else { continue };
        let mut out = Vec::new();
        run_report(&mut out, &[id.to_string()], || 0.0).expect("known id");
        let direct = format!("{}(suite completed in 0.0s)\n", section(id, c.what, &(c.run)()));
        assert_eq!(String::from_utf8(out).expect("utf-8"), direct, "{id}");
    }
}

#[test]
fn the_snapshot_pins_what_report_and_ys_report_print() {
    let snapshot = claims(2);
    let sim = |scenario: &str| &snapshot.iter().find(|s| s.name == scenario).expect("snapshot scenario").sim;
    let pinned = sim("claims");
    let value = |key: String| pinned.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("{key} not pinned")).1;

    let mut full = Vec::new();
    run_report(&mut full, &["--obs".to_string()], || 0.0).expect("no ids");
    let full = String::from_utf8(full).expect("utf-8");
    let suite = sim("experiment_report");
    assert!(suite.contains(&("report_digest".to_string(), digest(&full))), "experiment_report != report --obs");

    let trace = std::env::temp_dir().join(format!("claims-test-{}.trace.json", std::process::id()));
    for name in CLAIMS.iter().filter_map(|c| c.name) {
        let out = Command::new(env!("CARGO_BIN_EXE_ys-report"))
            .arg(name)
            .arg("--trace-out")
            .arg(&trace)
            .output()
            .expect("ys-report runs");
        assert!(out.status.success(), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("utf-8");
        let rendered = &stdout[..stdout.find("chrome trace: ").expect("trace line")];
        assert_eq!(value(format!("{name}_bytes")), rendered.len() as f64, "{name}");
        assert_eq!(value(format!("{name}_digest")), digest(rendered), "{name}");
        let json = std::fs::read_to_string(&trace).expect("trace written");
        assert_eq!(value(format!("{name}_trace_digest")), digest(&json), "{name} trace");
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn report_rejects_an_unknown_or_partial_id_with_the_id_list() {
    for bad in ["E13", "A", "E", "--bogus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report")).arg(bad).output().expect("report runs");
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(out.stdout.is_empty(), "{bad} printed a report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("E1 E2") && err.contains("A3"), "{bad}: {err}");
        let what = if bad.starts_with('-') { "flag" } else { "id" };
        assert!(err.starts_with(&format!("report: unknown {what} {bad}")), "{bad}: {err}");
    }
}

#[test]
fn ys_report_exits_2_on_a_usage_error() {
    let cases: [&[&str]; 6] = [
        &["nope"],
        &["--bogus"],
        &["stripe4x2", "--bogus"],
        &["stripe4x2", "--trace-out"],
        &[],
        // Retired: the trace is the --trace-out file.
        &["stripe4x2", "--trace-stdout"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_ys-report")).args(args).output().expect("ys-report runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: ys-report"), "{args:?}");
    }
}

#[test]
fn ys_report_list_aligns_every_description() {
    let out = Command::new(env!("CARGO_BIN_EXE_ys-report")).arg("--list").output().expect("ys-report runs");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let columns: BTreeSet<usize> = CLAIMS
        .iter()
        .filter_map(|c| c.name.map(|name| (name, c.what)))
        .map(|(name, what)| {
            let line = text.lines().find(|l| l.trim_start().starts_with(&format!("{name} "))).expect("listed");
            line.find(what).expect("description listed")
        })
        .collect();
    assert_eq!(columns.len(), 1, "descriptions start at columns {columns:?}");
}

/// The national-lab claim reproduces, number for number, what the deleted
/// JSON scenario runner printed for the same deployment.
#[test]
fn national_lab_reproduces_the_scenario_file_outcome() {
    let report = (by_name("national-lab").expect("registered").run)();
    let lab = |name: &str| {
        report.registry.gauge_value(&ys_bench::registry::MetricKey::aggregate("lab", name)).unwrap_or_else(|| panic!("lab.{name}"))
    };
    let golden = [
        ("ops_completed", 5000.0),
        ("ops_failed", 0.0),
        ("availability", 1.0),
        ("mb_moved", 327.68),
        ("read_p50_ms", 0.589824),
        ("read_p99_ms", 30.408704),
        ("write_p99_ms", 1.048576),
        ("dirty_pages_lost", 0.0),
        ("cache_local_hits", 2223.0),
        ("cache_remote_hits", 73.0),
        ("disk_reads", 1197.0),
    ];
    for (name, want) in golden {
        assert_eq!(lab(name), want, "lab.{name}");
    }
}
