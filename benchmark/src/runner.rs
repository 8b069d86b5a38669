//! One benchmark run of one workload: repetitions on fresh state until the
//! measuring time is used up, identity checks across them, and the metrics.
//!
//! Untraced (`--trace 0`) the run yields the end-to-end metrics: host
//! numbers are medians over the repetitions. Traced (`--trace 1`) it runs
//! untraced repetitions for the baseline wall, one more repetition with the
//! span tracer on, then the layer ledger, and yields every per-layer metric.
//! Either way every repetition must reproduce the first one's simulated
//! results and boundary counts exactly, or the run is not correct.

use crate::json::{self, Obj};
use crate::metrics::{self, COUNTS, SIM};
use crate::spans::{self, Kind, KindTotal, Span, Tracer};
use crate::stats::{iqr_ratio, median, percentile_u32};
use crate::workloads::{Rep, Values, Workload};
use crate::{host, ledger};
use serde_json::Value;
use std::collections::BTreeMap;

/// Fewest repetitions a host median is taken over.
const MIN_REPS: usize = 3;
/// Spans written to the trace file; the rest are counted, not listed.
const TRACE_FILE_SPANS: usize = 50_000;

#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Host seconds to spend measuring.
    pub seconds: f64,
    pub trace: bool,
    /// Divides every operation count (1 except in tests).
    pub scale: u64,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: the end-to-end metrics of an untraced run, the
    /// per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks; the run is correct iff this is empty.
    pub problems: Vec<String>,
    /// Per-repetition values, simulated results and counts, for `compare`.
    pub detail: Value,
    /// The spans of a traced run, for the caller to flush to a file.
    pub trace: Option<Value>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut o = Obj::new();
        o.set("correct", Value::Bool(self.correct()))
            .set("attempted", json::uint(self.attempted.max(1)))
            .set("failed", json::uint(self.failed))
            .set("metrics", json::metrics_object(self.metrics.iter().copied()));
        json::compact(&o.into_value())
    }
}

/// Repetitions of one workload plus the identity check across them.
struct Reps {
    reps: Vec<Rep>,
    problems: Vec<String>,
}

impl Reps {
    fn new() -> Reps {
        Reps { reps: Vec::new(), problems: Vec::new() }
    }

    fn push(&mut self, what: &str, rep: Rep) {
        let n = self.reps.len();
        for p in &rep.problems {
            self.problems.push(format!("{what} {n}: {p}"));
        }
        if let Some(first) = self.reps.first() {
            if (rep.ops, rep.failed) != (first.ops, first.failed) {
                self.problems.push(format!(
                    "{what} {n}: {} ops / {} failed, first repetition had {} / {}",
                    rep.ops, rep.failed, first.ops, first.failed
                ));
            }
            for (kind, now, then) in [("sim", &rep.sim, &first.sim), ("count", &rep.counts, &first.counts)] {
                if let Some(diff) = first_difference(now, then) {
                    self.problems.push(format!("{what} {n}: {kind} {diff} differs from the first repetition"));
                }
            }
        }
        self.reps.push(rep);
    }

    fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_s).collect()
    }
}

fn first_difference(a: &Values, b: &Values) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("set ({} names vs {})", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x.0 != y.0 || x.1.to_bits() != y.1.to_bits())
        .map(|(x, y)| format!("{} = {} vs {}", x.0, x.1, y.1))
}

/// Untraced repetitions until `seconds` of measured wall have accumulated
/// (at least `at_least`).
fn repeat(req: &Request, seconds: f64, at_least: usize) -> Reps {
    let mut out = Reps::new();
    let mut measured = 0.0;
    while out.reps.len() < at_least || measured < seconds {
        let rep = req.workload.run(req.seed, req.scale, &mut Tracer::off());
        measured += rep.wall_s;
        out.push("repetition", rep);
    }
    out
}

pub fn run(req: &Request) -> Outcome {
    if req.trace {
        traced(req)
    } else {
        untraced(req)
    }
}

fn untraced(req: &Request) -> Outcome {
    let reps = repeat(req, req.seconds, MIN_REPS);
    let rate: Vec<f64> = reps.reps.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let setup: Vec<f64> = reps.reps.iter().map(|r| r.setup_s).collect();
    let metrics = vec![
        ("host_ops_per_s", median(&rate), "1/s"),
        ("host_peak_rss_mb", host::peak_rss_mb(), "MB"),
        ("setup_s", median(&setup), "s"),
    ];
    finish(req, reps, metrics, None)
}

fn traced(req: &Request) -> Outcome {
    let mut reps = repeat(req, req.seconds * 0.4, MIN_REPS);
    let plain_wall = median(&reps.walls());
    let rep_spread = iqr_ratio(&reps.walls());

    let mut tr = Tracer::on();
    let traced = req.workload.run(req.seed, req.scale, &mut tr);
    let traced_wall = traced.wall_s;
    reps.push("traced repetition", traced);
    let cpu_s = host::cpu_s();

    let entries = ledger::run(ledger::Sampler::within(req.seconds * 0.35));
    let ledger_map: BTreeMap<&str, f64> = entries.iter().map(|e| (e.name, e.value)).collect();
    let first = &reps.reps[0];

    let mut metrics: Vec<(&'static str, f64, &'static str)> =
        entries.iter().map(|e| (e.name, e.value, e.unit)).collect();
    metrics.extend(COUNTS.iter().map(|c| (c.name, first.counts.get(c.name).copied().unwrap_or(0.0), c.unit)));
    let mut sim = first.sim.clone();
    sim.insert("sim.op_fail_ratio", first.failed as f64 / first.ops.max(1) as f64);
    metrics.extend(SIM.iter().map(|s| (s.name, sim.get(s.name).copied().unwrap_or(0.0), s.unit)));
    let totals = spans::totals_by_kind(tr.spans());
    metrics.extend(trace_metrics(tr.spans(), &totals, traced_wall / plain_wall));
    metrics.extend(metrics::shares(&ledger_map, &first.counts, plain_wall).into_iter().map(|(n, v)| (n, v, "ratio")));
    metrics.push(("process.cpu_s", cpu_s, "s"));
    metrics.push(("process.rep_spread", rep_spread, "ratio"));

    finish(req, reps, metrics, Some(trace_document(req, tr.spans(), &totals)))
}

fn finish(req: &Request, reps: Reps, metrics: Vec<(&'static str, f64, &'static str)>, trace: Option<Value>) -> Outcome {
    let first = &reps.reps[0];
    let list = |f: fn(&Rep) -> f64| Value::Arr(reps.reps.iter().map(|r| json::num(f(r))).collect());
    let values = |v: &Values| {
        let mut o = Obj::new();
        for (k, x) in v {
            o.set(k, json::num(*x));
        }
        o.into_value()
    };
    let mut d = Obj::new();
    d.set("workload", json::text(req.workload.name))
        .set("seed", json::uint(req.seed))
        .set("ops_per_rep", json::uint(first.ops))
        .set("rep_ops_per_s", list(|r| r.ops as f64 / r.wall_s))
        .set("rep_wall_s", list(|r| r.wall_s))
        .set("rep_setup_s", list(|r| r.setup_s))
        .set("sim", values(&first.sim))
        .set("counts", values(&first.counts))
        .set("problems", Value::Arr(reps.problems.iter().map(|p| json::text(p)).collect()));
    Outcome {
        attempted: reps.reps.iter().map(|r| r.ops).sum(),
        failed: reps.reps.iter().map(|r| r.failed).sum(),
        metrics,
        detail: d.into_value(),
        problems: reps.problems,
        trace,
    }
}

/// The `trace.*` metrics of one traced repetition.
fn trace_metrics(spans: &[Span], totals: &[KindTotal], overhead_ratio: f64) -> Vec<(&'static str, f64, &'static str)> {
    let self_s = |kinds: &[Kind]| kinds.iter().map(|&k| totals[k as usize].self_s()).sum::<f64>();
    let [reads, writes, ticks] =
        [Kind::CoreRead, Kind::CoreWrite, Kind::HealTick].map(|k| spans::sorted_durations_ns(spans, k));
    let pct = |sorted: &[u32], q: f64| f64::from(percentile_u32(sorted, q));
    vec![
        ("trace.core_read_self_s", self_s(&[Kind::CoreRead]), "s"),
        ("trace.core_write_self_s", self_s(&[Kind::CoreWrite]), "s"),
        ("trace.core_drain_self_s", self_s(&[Kind::CoreDrain]), "s"),
        ("trace.proto_next_op_self_s", self_s(&[Kind::ProtoNextOp]), "s"),
        // The benchmark's own time: client heap, dispatch, bookkeeping.
        ("trace.driver_self_s", self_s(&[Kind::Driver, Kind::Measure]), "s"),
        ("trace.heal_run_self_s", self_s(&[Kind::HealRun, Kind::HealTick]), "s"),
        ("trace.scrub_run_self_s", self_s(&[Kind::ScrubRun]), "s"),
        ("trace.rebuild_run_self_s", self_s(&[Kind::RebuildRun]), "s"),
        ("trace.lifecycle_self_s", self_s(&[Kind::Lifecycle]), "s"),
        ("trace.chaos_run_self_s", self_s(&[Kind::ChaosRun]), "s"),
        ("trace.check_run_self_s", self_s(&[Kind::CheckRun]), "s"),
        ("trace.core_read_p50_ns", pct(&reads, 0.50), "ns"),
        ("trace.core_read_p99_ns", pct(&reads, 0.99), "ns"),
        ("trace.core_write_p50_ns", pct(&writes, 0.50), "ns"),
        ("trace.core_write_p99_ns", pct(&writes, 0.99), "ns"),
        ("trace.heal_tick_p99_ns", pct(&ticks, 0.99), "ns"),
        ("trace.spans", spans.len() as f64, "count"),
        ("trace.overhead_ratio", overhead_ratio, "ratio"),
    ]
}

/// The trace file's content: per-kind totals for all spans, and the first
/// [`TRACE_FILE_SPANS`] listed one by one.
fn trace_document(req: &Request, spans: &[Span], totals: &[KindTotal]) -> Value {
    let mut kinds = Obj::new();
    for (kind, total) in Kind::ALL.iter().zip(totals).filter(|(_, t)| t.spans > 0) {
        let mut k = Obj::new();
        k.set("spans", json::uint(total.spans)).set("self_s", json::num(total.self_s()));
        kinds.set(kind.name(), k.into_value());
    }
    let listed = spans.iter().take(TRACE_FILE_SPANS).map(|s| {
        let mut o = Obj::new();
        o.set("name", json::text(s.kind.name()))
            .set("start_ns", json::uint(s.start_ns))
            .set("end_ns", json::uint(s.end_ns))
            .set("parent", if s.parent == spans::NO_PARENT { Value::Null } else { json::uint(u64::from(s.parent)) })
            .set("request", json::uint(u64::from(s.request)));
        o.into_value()
    });
    let mut doc = Obj::new();
    doc.set("workload", json::text(req.workload.name))
        .set("seed", json::uint(req.seed))
        .set("spans_total", json::uint(spans.len() as u64))
        .set("spans_listed", json::uint(spans.len().min(TRACE_FILE_SPANS) as u64))
        .set("by_kind", kinds.into_value())
        .set("spans", Value::Arr(listed.collect()));
    doc.into_value()
}
