//! The `ys-check` command line: the model is a single selection, scope
//! flags resize only the models that have those dimensions (and never to
//! zero), and usage errors and `-h` leave through `main` with the
//! documented exit codes.

use std::process::{Command, Output};
use ys_check::{parse_args, run_named, Invocation};

fn args(list: &[&str]) -> Result<Invocation, String> {
    parse_args(list.iter().map(|s| s.to_string()))
}

fn ys_check(list: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ys-check")).args(list).output().expect("spawn ys-check")
}

#[test]
fn the_model_is_a_single_selection() {
    assert_eq!(args(&[]).unwrap().model, "cache");
    assert_eq!(args(&["--virt", "--depth", "6", "--virt"]).unwrap().model, "virt");
    let clash = args(&["--virt", "--qos"]).unwrap_err();
    assert!(clash.contains("--virt") && clash.contains("--qos"), "{clash}");
    // The default model has no flag of its own.
    assert_eq!(args(&["--cache"]).unwrap_err(), "unknown flag --cache");
    // The failover checks run inside the cache model's `Fail` step.
    assert_eq!(args(&["--failover"]).unwrap_err(), "unknown flag --failover");
    assert_eq!(args(&["--help"]).unwrap_err(), "");
    assert_eq!(args(&["--depth"]).unwrap_err(), "--depth needs a value");
    // Retired: writes are 2-way, and the state cap is fixed.
    assert_eq!(args(&["--nway", "3"]).unwrap_err(), "unknown flag --nway");
    assert_eq!(args(&["--max-states", "10"]).unwrap_err(), "unknown flag --max-states");
    assert_eq!(args(&["--blades", "0"]).unwrap_err(), "--blades must be at least 1");
    assert_eq!(args(&["--capacity", "0"]).unwrap_err(), "--capacity must be at least 1");
}

#[test]
fn scope_flags_resize_only_the_models_that_have_those_dimensions() {
    let inv = args(&["--heal", "--blades", "4", "--pages", "3", "--depth", "2"]).unwrap();
    let run = run_named(inv.model, inv.scope, inv.limits, || 0.0).unwrap();
    assert!(run.rendered.starts_with("ys-check: heal model, 4 blades × 2 pages, 2-way writes, depth 2\n"));
    let fixed = args(&["--blades", "4", "--virt"]).unwrap_err();
    assert_eq!(fixed, "--blades resizes the cache and heal models only; --virt has a fixed scope");
}

#[test]
fn conflicting_model_flags_exit_2_with_usage_and_help_exits_0() {
    let clash = ys_check(&["--virt", "--qos"]);
    assert_eq!(clash.status.code(), Some(2));
    assert!(clash.stdout.is_empty());
    let err = String::from_utf8_lossy(&clash.stderr);
    assert!(err.starts_with("ys-check: --virt and --qos"), "{err}");
    assert!(err.contains("USAGE: ys-check [OPTIONS]"), "{err}");

    // Retired flags, scopes the models cannot run (no blades to build a
    // cluster from; no pages or no depth: an empty space), and scope flags
    // a fixed-scope model would ignore leave through the same door, before
    // any model runs.
    let refused: [&[&str]; 10] = [
        &["--nway", "2"],
        &["--max-states", "10"],
        &["--blades", "0"],
        &["--heal", "--blades", "0"],
        &["--pages", "0"],
        &["--heal", "--pages", "0"],
        &["--depth", "0"],
        &["--virt", "--blades", "4", "--depth", "2"],
        &["--qos", "--pages", "9"],
        &["--capacity", "2", "--security"],
    ];
    for list in refused {
        let out = ys_check(list);
        assert_eq!(out.status.code(), Some(2), "{list:?}");
        assert!(out.stdout.is_empty(), "{list:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE: ys-check [OPTIONS]"), "{list:?}");
    }

    let help = ys_check(&["-h"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE: ys-check [OPTIONS]"));
    assert!(help.stderr.is_empty());
}
