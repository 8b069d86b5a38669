//! The seeded-campaign CLI kit: what `ys-chaos`, `ys-scrub` and `ys-heal`
//! share.
//!
//! A campaign is a pure function of its configuration, seed included, that
//! yields a transcript and a verdict ([`CampaignRun`]). Each campaign
//! crate implements [`Campaign`] for its configuration — name, seed, its
//! own flags, and the run — and its binary is its usage text plus one call
//! to [`main`]. The kit owns `--seed`, `--quiet`, `--double-run`, `-h`,
//! the verdict line and the exit codes: `0` the campaign met its promise
//! (and replayed byte-identically, when asked), `1` it did not, `2` usage.
//! `ys-sweep` fans the same trait out across seeds.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::str::FromStr;

/// What one campaign run printed and decided.
#[derive(Clone, Debug)]
pub struct CampaignRun {
    /// Everything a non-quiet run prints before the verdict line.
    pub transcript: String,
    /// The part of the transcript `--quiet` still prints: a failing run's
    /// shrunk reproducer, empty for campaigns that have none.
    pub reproducer: String,
    /// Did the campaign meet its promise?
    pub ok: bool,
}

/// A seeded campaign's configuration, as its CLI and `ys-sweep` drive it.
pub trait Campaign {
    /// The binary's name; prefixes every line the kit prints.
    const BIN: &'static str;

    /// The campaign seed (`--seed N` writes it).
    fn seed(&mut self) -> &mut u64;

    /// Apply one of the campaign's own flags; `value` pulls the flag's
    /// argument (see [`number`]). `Ok(false)`: not a flag of this campaign.
    fn flag(&mut self, flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>;

    /// Run the campaign from scratch. Two calls share nothing but the
    /// configuration — exactly what a cross-process replay sees.
    fn run(&self) -> CampaignRun;
}

/// Pull and parse a flag's numeric argument.
pub fn number<T: FromStr>(flag: &str, value: &mut dyn FnMut() -> Result<String, String>) -> Result<T, String> {
    let v = value()?;
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

/// What a campaign binary does with its arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exit {
    /// Process exit code: 0 pass, 1 fail, 2 usage.
    pub code: u8,
    /// Everything for standard output.
    pub stdout: String,
    /// Everything for standard error.
    pub stderr: String,
}

/// Parse `args` (without the program name) over `cfg`, run the campaign —
/// twice under `--double-run` — and render output and exit code.
pub fn drive<C: Campaign>(usage: &str, mut cfg: C, args: impl IntoIterator<Item = String>) -> Exit {
    let bin = C::BIN;
    let (mut quiet, mut double_run) = (false, false);
    let mut args = args.into_iter();
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--seed" => *cfg.seed() = number("--seed", &mut value)?,
                "--quiet" => quiet = true,
                "--double-run" => double_run = true,
                "-h" | "--help" => return Err(String::new()),
                other if cfg.flag(other, &mut value)? => {}
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(())
    };
    match parse() {
        Ok(()) => {}
        Err(e) if e.is_empty() => return Exit { code: 0, stdout: format!("{usage}\n"), stderr: String::new() },
        Err(e) => return Exit { code: 2, stdout: String::new(), stderr: format!("{bin}: {e}\n\n{usage}\n") },
    }

    let run = cfg.run();
    let mut out = if quiet { run.reproducer.clone() } else { run.transcript.clone() };
    let mut deterministic = true;
    if double_run {
        let (first, second) = (&run.transcript, cfg.run().transcript);
        deterministic = *first == second;
        if deterministic {
            let _ = writeln!(out, "{bin}: double-run transcripts byte-identical ({} bytes)", first.len());
        } else {
            let byte = first
                .bytes()
                .zip(second.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(first.len().min(second.len()));
            let _ = writeln!(
                out,
                "{bin}: DOUBLE-RUN MISMATCH: transcripts diverge at byte {byte} \
                 ({} vs {} bytes) — replay determinism is broken",
                first.len(),
                second.len()
            );
        }
    }
    let ok = run.ok && deterministic;
    let _ = writeln!(out, "{bin}: seed {} {}", cfg.seed(), if ok { "PASS" } else { "FAIL" });
    Exit { code: u8::from(!ok), stdout: out, stderr: String::new() }
}

/// A campaign binary's whole `main`: [`drive`] the process arguments and
/// print.
pub fn main<C: Campaign>(usage: &str, cfg: C) -> ExitCode {
    let exit = drive(usage, cfg, std::env::args().skip(1));
    print!("{}", exit.stdout);
    eprint!("{}", exit.stderr);
    ExitCode::from(exit.code)
}
