//! `compare <a.json> <b.json>`: two sets of runs, workload by workload.
//!
//! One row per workload × end-to-end metric with both medians, the ratio
//! *with its base*, the metric's bound and a verdict:
//!
//! * `unchanged` — the medians differ by no more than the bound;
//! * `improved` / `regressed` — they differ by more, and the difference is
//!   resolved: the repetition-to-repetition spread on both sides is within
//!   the bound, or every repetition of one side beats every one of the other;
//! * `unresolved` — they differ by more than the bound but the spread is
//!   wider than the bound and the repetitions overlap.
//!
//! Simulated results and boundary counts are exact, so any change in them is
//! listed. The comparison fails on any `regressed` row, on a higher
//! operation-failure ratio, and on a side that was not correct.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::iqr_ratio;
use serde_json::Value;
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `a`/`b` are the medians; `a_reps`/`b_reps` the
/// per-repetition values behind them (empty for a once-per-process metric
/// such as peak RSS, whose spread is then taken as zero).
pub fn judge(m: &EndToEnd, a: f64, b: f64, a_reps: &[f64], b_reps: &[f64]) -> Verdict {
    if a == 0.0 {
        return if b == 0.0 { Verdict::Unchanged } else { Verdict::Unresolved };
    }
    let change = (b - a) / a.abs();
    if change.abs() <= m.bound {
        return Verdict::Unchanged;
    }
    let better = (change > 0.0) == (m.better == Better::Higher);
    let spread = iqr_ratio(a_reps).max(iqr_ratio(b_reps));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let disjoint = a_reps.is_empty() || b_reps.is_empty() || max(a_reps) < min(b_reps) || max(b_reps) < min(a_reps);
    match (spread <= m.bound || disjoint, better) {
        (false, _) => Verdict::Unresolved,
        (true, true) => Verdict::Improved,
        (true, false) => Verdict::Regressed,
    }
}

pub struct Comparison {
    pub report: String,
    pub regressed: usize,
    pub unresolved: usize,
    /// Simulated results and counts that differ between the two sides.
    pub changed: usize,
    /// Anything that fails the comparison besides a regressed row.
    pub failures: Vec<String>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressed == 0 && self.failures.is_empty()
    }
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    match v {
        Some(Value::Arr(items)) => items.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn metric_value(workload: &Value, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn fail_ratio(workload: &Value) -> f64 {
    let n = |k: &str| workload.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    n("failed") / n("attempted").max(1.0)
}

/// Compare two files written by `run` (or `trace`; only end-to-end metrics
/// present on both sides are judged).
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let workloads = |v: &Value| match v.get("workloads") {
        Some(Value::Obj(entries)) => Ok(entries.clone()),
        _ => Err("not a run file: no \"workloads\" object".to_string()),
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison { report: String::new(), regressed: 0, unresolved: 0, changed: 0, failures: Vec::new() };
    let r = &mut out.report;
    let _ = writeln!(
        r,
        "{:<15} {:<17} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    for (name, x) in &wa {
        let Some((_, y)) = wb.iter().find(|(n, _)| n == name) else {
            out.failures.push(format!("{name}: missing from b"));
            continue;
        };
        for (side, w) in [("a", x), ("b", y)] {
            if w.get("correct") != Some(&Value::Bool(true)) {
                out.failures.push(format!("{name}: side {side} was not correct"));
            }
        }
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(x, m.name), metric_value(y, m.name)) else { continue };
            let reps = |w: &Value| {
                let key = match m.name {
                    "host_ops_per_s" => "rep_ops_per_s",
                    "setup_s" => "rep_setup_s",
                    _ => return Vec::new(),
                };
                numbers(w.get("detail").and_then(|d| d.get(key)))
            };
            let verdict = judge(m, va, vb, &reps(x), &reps(y));
            out.regressed += usize::from(verdict == Verdict::Regressed);
            out.unresolved += usize::from(verdict == Verdict::Unresolved);
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            let _ = writeln!(
                r,
                "{:<15} {:<17} {:>14.4} {:>14.4} {:>9.4} of {:>9.4} {:>5.0}%  {}",
                name,
                m.name,
                va,
                vb,
                ratio,
                va,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (fail_ratio(x), fail_ratio(y));
        if fb > fa {
            out.failures.push(format!("{name}: op_fail_ratio rose from {fa} to {fb}"));
        }
        // Exact values: list every change.
        for family in ["sim", "counts"] {
            let (Some(Value::Obj(ea)), Some(eb)) =
                (x.get("detail").and_then(|d| d.get(family)), y.get("detail").and_then(|d| d.get(family)))
            else {
                continue;
            };
            for (k, v) in ea {
                let other = eb.get(k);
                if other != Some(v) {
                    out.changed += 1;
                    let show =
                        |v: Option<&Value>| v.and_then(Value::as_f64).map_or("absent".to_string(), |f| f.to_string());
                    let _ = writeln!(r, "{:<15} {:<17} changed: {} -> {}", name, k, show(Some(v)), show(other));
                }
            }
        }
    }
    let _ = writeln!(
        r,
        "{} regressed, {} unresolved, {} exact value(s) changed, {} other failure(s)",
        out.regressed,
        out.unresolved,
        out.changed,
        out.failures.len()
    );
    for f in &out.failures {
        let _ = writeln!(r, "FAIL {f}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Bounds of the tests' own, so they do not move when the registry's do.
    const OPS: EndToEnd = EndToEnd { name: "host_ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.08 };
    const SETUP: EndToEnd = EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.15 };
    const RSS: EndToEnd = EndToEnd { name: "host_peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.10 };

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let tight = |c: f64| vec![c * 0.99, c, c * 1.01];
        // Within the bound either way.
        assert_eq!(judge(&OPS, 100.0, 95.0, &tight(100.0), &tight(95.0)), Verdict::Unchanged);
        assert_eq!(judge(&OPS, 100.0, 107.0, &tight(100.0), &tight(107.0)), Verdict::Unchanged);
        // Beyond it, tight repetitions: direction decides.
        assert_eq!(judge(&OPS, 100.0, 80.0, &tight(100.0), &tight(80.0)), Verdict::Regressed);
        assert_eq!(judge(&OPS, 100.0, 120.0, &tight(100.0), &tight(120.0)), Verdict::Improved);
        // Lower-is-better flips it.
        assert_eq!(judge(&SETUP, 1.0, 1.3, &tight(1.0), &tight(1.3)), Verdict::Regressed);
        assert_eq!(judge(&SETUP, 1.0, 0.7, &tight(1.0), &tight(0.7)), Verdict::Improved);
        // Wide, overlapping repetitions cannot resolve a 15 % difference...
        let wide_a = [70.0, 100.0, 130.0, 85.0, 115.0];
        let wide_b = [60.0, 85.0, 110.0, 72.0, 98.0];
        assert_eq!(judge(&OPS, 100.0, 85.0, &wide_a, &wide_b), Verdict::Unresolved);
        // ...unless every repetition of one side beats every one of the other.
        let far_b = [30.0, 45.0, 60.0, 38.0, 52.0];
        assert_eq!(judge(&OPS, 100.0, 45.0, &wide_a, &far_b), Verdict::Regressed);
        // A once-per-process metric has no repetitions: the bound alone decides.
        assert_eq!(judge(&RSS, 20.0, 25.0, &[], &[]), Verdict::Regressed);
    }

    fn run_file(ops: f64, failed: u64, p99: f64) -> Value {
        let text = format!(
            r#"{{"workloads": {{"hot-read": {{"correct": true, "attempted": 1000, "failed": {failed},
                "metrics": {{"host_ops_per_s": {{"value": {ops}, "unit": "1/s"}},
                             "host_peak_rss_mb": {{"value": 20.5, "unit": "MB"}},
                             "setup_s": {{"value": 0.3, "unit": "s"}}}},
                "detail": {{"rep_ops_per_s": [{ops}, {ops}, {ops}], "rep_setup_s": [0.3, 0.3, 0.3],
                            "sim": {{"sim.p99_us": {p99}}}, "counts": {{"cache.misses": 7.0}}}}}}}}}}"#
        );
        serde_json::parse_value(&text).unwrap()
    }

    #[test]
    fn identical_files_pass_and_print_one_row_per_metric() {
        let a = run_file(1.6e6, 0, 5767.168);
        let c = compare(&a, &a).unwrap();
        assert!(c.passed(), "{}", c.report);
        assert_eq!(c.report.matches("unchanged").count(), 3, "{}", c.report);
        assert!(!c.report.contains("changed:"), "{}", c.report);
        assert!(c.report.contains("of 1600000.0000"), "the ratio names its base: {}", c.report);
    }

    #[test]
    fn regressions_failures_and_exact_changes_are_reported() {
        let a = run_file(1.6e6, 0, 5767.168);
        let slow = compare(&a, &run_file(0.8e6, 0, 5767.168)).unwrap();
        assert_eq!((slow.regressed, slow.passed()), (1, false), "{}", slow.report);
        let failing = compare(&a, &run_file(1.6e6, 5, 5767.168)).unwrap();
        assert!(!failing.passed() && failing.report.contains("op_fail_ratio rose"), "{}", failing.report);
        let moved = compare(&a, &run_file(1.6e6, 0, 6000.0)).unwrap();
        assert!(
            moved.passed() && moved.changed == 1,
            "a changed simulated value is printed, not judged: {}",
            moved.report
        );
        assert!(
            moved.report.contains("sim.p99_us") && moved.report.contains("changed: 5767.168 -> 6000"),
            "{}",
            moved.report
        );
        assert!(compare(&a, &serde_json::parse_value("{}").unwrap()).is_err());
    }
}
