//! Command line of the benchmark. With `--workload` it is the acceptance
//! contract's single run; the subcommands wrap that run for people.

use serde_json::Value;
use std::process::{Command, ExitCode, Stdio};
use ys_benchmark::json::{self, Obj};
use ys_benchmark::runner::{self, Request};
use ys_benchmark::spec::{spec, RUN_SECONDS};
use ys_benchmark::{compare, ledger, workloads};

const USAGE: &str = "\
usage: ys-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       ys-benchmark run   [--seed <n>] [--seconds <s>] [--out <file>]   every workload, end-to-end metrics
       ys-benchmark trace [--seed <n>] [--seconds <s>] [--out <file>]   every workload, per-layer metrics
       ys-benchmark ledger                                              the layer ledger alone, full sampling
       ys-benchmark compare <a.json> <b.json>                           two run files, verdict per metric
       ys-benchmark aa    [--seed <n>] [--seconds <s>]                  run twice on this build and compare
       ys-benchmark spec                                                print BENCHMARK.json
workloads: hot-read cold-scan nway-write blade-churn chaos-campaign check-explore";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ys-benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs after the subcommand.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn get(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self.0.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value")),
        }
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: {v:?} is not a number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        for pair in self.0.chunks(2) {
            if !allowed.contains(&pair[0].as_str()) {
                return Err(format!("unexpected argument {:?}", pair[0]));
            }
        }
        Ok(())
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let Some(first) = args.first() else { return Err("no arguments".into()) };
    let rest = Flags(&args[1..]);
    let all = ["--seed", "--seconds", "--out"];
    match first.as_str() {
        "--workload" | "--seed" | "--seconds" | "--trace" => contract(&Flags(args)),
        "run" | "trace" => {
            rest.only(&all)?;
            let traced = first == "trace";
            let out = rest.get("--out")?.unwrap_or(if traced {
                "target/benchmark/trace.json"
            } else {
                "target/benchmark/run.json"
            });
            let doc = run_all(traced, rest.number("--seed", 1)?, rest.number("--seconds", RUN_SECONDS)?)?;
            write_file(out, &json::pretty(&doc))?;
            println!("written to {out}");
            Ok(exit_if(all_correct(&doc)))
        }
        "ledger" => {
            rest.only(&[])?;
            for e in ledger::run(ledger::Sampler::full()) {
                println!("{:<40} {:>14.2} {}", e.name, e.value, e.unit);
            }
            Ok(ExitCode::SUCCESS)
        }
        "compare" => {
            let [a, b] = &args[1..] else { return Err("compare takes two files".into()) };
            let load = |p: &String| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                serde_json::parse_value(&text).map_err(|e| format!("{p}: {e}"))
            };
            let c = compare::compare(&load(a)?, &load(b)?)?;
            print!("{}", c.report);
            Ok(exit_if(c.passed()))
        }
        "aa" => {
            rest.only(&all[..2])?;
            let (seed, seconds) = (rest.number("--seed", 1)?, rest.number("--seconds", RUN_SECONDS)?);
            let a = run_all(false, seed, seconds)?;
            let b = run_all(false, seed, seconds)?;
            write_file("target/benchmark/aa-a.json", &json::pretty(&a))?;
            write_file("target/benchmark/aa-b.json", &json::pretty(&b))?;
            let c = compare::compare(&a, &b)?;
            print!("{}", c.report);
            // Two runs of one build must agree outright.
            Ok(exit_if(c.passed() && c.unresolved == 0 && c.changed == 0 && all_correct(&a) && all_correct(&b)))
        }
        "spec" => {
            rest.only(&[])?;
            println!("{}", json::pretty(&spec()));
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn exit_if(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// The contract: one workload, one run, one JSON object on the last line.
fn contract(flags: &Flags<'_>) -> Result<ExitCode, String> {
    flags.only(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name = flags.get("--workload")?.ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or(format!("no workload named {name:?}"))?;
    let seconds: f64 = flags.number("--seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let trace = match flags.get("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let req = Request { workload, seed: flags.number("--seed", 1)?, seconds, trace, scale: 1 };
    let mut outcome = runner::run(&req);
    if let Some(trace) = outcome.trace.take() {
        let path = format!("target/benchmark/trace-{name}.json");
        match write_file(&path, &json::compact(&trace)) {
            Ok(()) => eprintln!("ys-benchmark: {name}: spans written to {path}"),
            Err(e) => outcome.problems.push(format!("could not write the trace file: {e}")),
        }
    }
    for p in &outcome.problems {
        eprintln!("ys-benchmark: {name}: CHECK FAILED: {p}");
    }
    println!("detail {}", json::compact(&outcome.detail));
    println!("{}", outcome.result_line());
    Ok(exit_if(outcome.correct()))
}

/// Run every workload, each in a child process of its own (so peak RSS is
/// per workload), print every metric by name with its unit, and return the
/// combined document `compare` reads.
fn run_all(traced: bool, seed: u64, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut all = Obj::new();
    for w in &workloads::ALL {
        eprintln!("== {} (op = {}; seed {seed}, {seconds} s, trace {})", w.name, w.op, u8::from(traced));
        let child = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
        let output = child.wait_with_output().map_err(|e| format!("{}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().ok_or(format!("{}: the run printed nothing", w.name))?;
        let mut result = serde_json::parse_value(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
        let detail = stdout.lines().rev().find_map(|l| l.strip_prefix("detail ")).map(serde_json::parse_value);
        if let (Value::Obj(entries), Some(Ok(detail))) = (&mut result, detail) {
            entries.push(("detail".into(), detail));
        }
        print_metrics(w.name, &result);
        all.set(w.name, result);
    }
    let mut doc = Obj::new();
    doc.set("schema", json::text("ys-benchmark/run/v1"))
        .set("mode", json::text(if traced { "trace" } else { "run" }))
        .set("nproc", json::uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)))
        .set("seed", json::uint(seed))
        .set("seconds", json::uint(seconds))
        .set("workloads", all.into_value());
    Ok(doc.into_value())
}

fn print_metrics(workload: &str, result: &Value) {
    let field = |k: &str| result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let correct = result.get("correct") == Some(&Value::Bool(true));
    println!("{workload}: correct {correct}, attempted {}, failed {}", field("attempted"), field("failed"));
    if let Some(Value::Obj(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!("  {name:<40} {value:>18.4} {}", m.get("unit").and_then(Value::as_str).unwrap_or(""));
        }
    }
    if let Some(Value::Arr(problems)) = result.get("detail").and_then(|d| d.get("problems")) {
        for p in problems {
            println!("  CHECK FAILED: {}", p.as_str().unwrap_or("?"));
        }
    }
}

fn all_correct(doc: &Value) -> bool {
    match doc.get("workloads") {
        Some(Value::Obj(ws)) => ws.iter().all(|(_, w)| w.get("correct") == Some(&Value::Bool(true))),
        _ => false,
    }
}
