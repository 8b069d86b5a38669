//! The `ys-check` command line: the model is a single selection, scope
//! flags resize only the models that have those dimensions, and usage
//! errors and `-h` leave through `main` with the documented exit codes.

use std::process::{Command, Output};
use ys_check::{parse_args, run_named, run_standard, Invocation};

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
}

#[test]
fn scope_flags_resize_only_the_models_that_have_those_dimensions() {
    let inv = args(&["--heal", "--blades", "4", "--pages", "3", "--depth", "2"]).unwrap();
    let run = run_named(inv.model, inv.scope, inv.limits, inv.order, || 0.0).unwrap();
    assert!(run.rendered.starts_with("ys-check: heal model, 4 blades × 2 pages, 2-way writes, depth 2\n"));
    let inv = args(&["--virt", "--blades", "4", "--depth", "2"]).unwrap();
    let run = run_named(inv.model, inv.scope, inv.limits, inv.order, || 0.0).unwrap();
    assert_eq!(run.rendered, run_standard("virt", 2, 2_000_000).unwrap().rendered);
}

#[test]
fn conflicting_model_flags_exit_2_with_usage_and_help_exits_0() {
    let clash = ys_check(&["--virt", "--qos"]);
    assert_eq!(clash.status.code(), Some(2));
    assert!(clash.stdout.is_empty());
    let err = String::from_utf8_lossy(&clash.stderr);
    assert!(err.starts_with("ys-check: --virt and --qos"), "{err}");
    assert!(err.contains("USAGE: ys-check [OPTIONS]"), "{err}");

    let help = ys_check(&["-h"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("USAGE: ys-check [OPTIONS]"));
    assert!(help.stderr.is_empty());
}
