//! The campaign CLI kit driven with a toy campaign: exit codes, `--quiet`,
//! and the `--double-run` verdict lines.

use std::cell::Cell;
use ys_core::harness::{drive, number, Campaign, CampaignRun, Exit};

/// A campaign whose transcript is its seed and size — plus, when
/// `drifts`, how many times it has run.
#[derive(Default)]
struct Toy {
    seed: u64,
    size: u64,
    drifts: bool,
    runs: Cell<u64>,
}

impl Campaign for Toy {
    const BIN: &'static str = "ys-toy";
    fn seed(&mut self) -> &mut u64 {
        &mut self.seed
    }
    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String> {
        match flag {
            "--size" => self.size = number("--size", value)?,
            "--drift" => self.drifts = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
    fn run(&self) -> CampaignRun {
        self.runs.set(self.runs.get() + 1);
        let drift = if self.drifts { self.runs.get() } else { 0 };
        CampaignRun {
            transcript: format!("seed {} size {} drift {drift}\n", self.seed, self.size),
            reproducer: if self.size > 9 { "replay: ys-toy --size 9\n".into() } else { String::new() },
            ok: self.size <= 9,
        }
    }
}

fn toy(args: &[&str]) -> Exit {
    drive("USAGE", Toy::default(), args.iter().map(|s| s.to_string()))
}

#[test]
fn exit_codes_are_0_pass_1_fail_2_usage() {
    let pass = toy(&["--seed", "7", "--size", "3"]);
    assert_eq!((pass.code, pass.stdout.as_str()), (0, "seed 7 size 3 drift 0\nys-toy: seed 7 PASS\n"));
    let fail = toy(&["--size", "10"]);
    assert_eq!(fail.code, 1);
    assert!(fail.stdout.ends_with("ys-toy: seed 0 FAIL\n"));
    for (bad, why) in [
        (&["--frob"][..], "unknown argument --frob"),
        (&["--seed"][..], "--seed needs a value"),
        (&["--size", "x"][..], "bad --size x"),
    ] {
        let usage = toy(bad);
        assert_eq!((usage.code, usage.stdout.as_str()), (2, ""));
        assert_eq!(usage.stderr, format!("ys-toy: {why}\n\nUSAGE\n"));
    }
    assert_eq!(toy(&["-h"]), Exit { code: 0, stdout: "USAGE\n".into(), stderr: String::new() });
}

#[test]
fn quiet_prints_only_the_reproducer_and_the_verdict() {
    assert_eq!(toy(&["--quiet"]).stdout, "ys-toy: seed 0 PASS\n");
    assert_eq!(toy(&["--quiet", "--size", "10"]).stdout, "replay: ys-toy --size 9\nys-toy: seed 0 FAIL\n");
}

#[test]
fn double_run_compares_transcripts_and_names_the_diverging_byte() {
    let same = toy(&["--double-run", "--quiet"]);
    assert_eq!(same.code, 0);
    assert_eq!(
        same.stdout,
        "ys-toy: double-run transcripts byte-identical (22 bytes)\nys-toy: seed 0 PASS\n"
    );
    let drifted = toy(&["--double-run", "--quiet", "--drift"]);
    assert_eq!(drifted.code, 1, "a campaign that passes but does not replay fails");
    assert_eq!(
        drifted.stdout,
        "ys-toy: DOUBLE-RUN MISMATCH: transcripts diverge at byte 20 (22 vs 22 bytes) — \
         replay determinism is broken\nys-toy: seed 0 FAIL\n"
    );
}
