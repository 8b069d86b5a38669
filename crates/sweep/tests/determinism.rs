//! Cross-process determinism: the `ys-sweep` binary must print the same
//! bytes for every `--jobs` value. This drives the real CLI (argument
//! parsing, shard merge, report rendering) rather than the library, so it
//! also pins the exit codes and the seed-range syntax.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ys-sweep"))
        .args(args)
        .output()
        .expect("spawn ys-sweep")
}

#[test]
fn chaos_jobs4_is_byte_identical_to_jobs1() {
    let serial = sweep(&["chaos", "--seeds", "1..5", "--steps", "24", "--jobs", "1"]);
    let parallel = sweep(&["chaos", "--seeds", "1..5", "--steps", "24", "--jobs", "4"]);
    assert!(serial.status.success(), "{}", String::from_utf8_lossy(&serial.stderr));
    assert!(parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "--jobs changed the merged chaos report");
    let text = String::from_utf8(serial.stdout).unwrap();
    assert!(text.contains("=== ys-chaos seed 4 ==="));
    assert!(text.contains("ys-sweep: 4 campaigns, 0 failed"));
}

#[test]
fn usage_errors_exit_2() {
    let cases: [&[&str]; 12] = [
        &["chaos", "--seeds", "9..1"],
        &["frobnicate"],
        // An empty seed list would run nothing and pass.
        &["chaos", "--seeds", ","],
        &["chaos", "--seeds", ""],
        // Retired modes and flags: `ys-check` and `ys-chaos --fatal` are
        // the doors for those runs, and the campaign sizes are constants.
        &["check"],
        &["bench"],
        &["chaos", "--fatal"],
        &["scrub", "--errors", "64"],
        &["heal", "--writes", "48"],
        &["chaos", "--models", "cache"],
        &["chaos", "--depth", "3"],
        &["chaos", "--max-states", "10"],
    ];
    for args in cases {
        let out = sweep(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE:"), "{args:?}");
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    let help = sweep(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("byte-identical"));
}
