//! `BENCHMARK.json`: the benchmark's declaration to the acceptance driver,
//! generated from the workload and metric registries so it cannot drift
//! from what the runs emit (`ys-benchmark spec` prints it).

use crate::json::{self, Obj};
use crate::metrics::{per_layer, END_TO_END};
use crate::workloads;
use serde_json::Value;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

pub fn spec() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|s| json::text(s)).collect());
    let workloads = workloads::ALL.iter().map(|w| {
        let mut o = Obj::new();
        o.set("name", json::text(w.name)).set("why", json::text(w.why));
        o.into_value()
    });
    let end_to_end = END_TO_END.iter().map(|m| {
        let mut o = Obj::new();
        o.set("name", json::text(m.name))
            .set("unit", json::text(m.unit))
            .set("better", json::text(m.better.as_str()))
            .set("bound", json::num(m.bound));
        o.into_value()
    });
    let layers = per_layer().into_iter().map(|m| {
        let mut o = Obj::new();
        o.set("name", json::text(m.name)).set("unit", json::text(m.unit)).set("better", json::text(m.better.as_str()));
        o.into_value()
    });
    let mut doc = Obj::new();
    doc.set(
        "command",
        strings(&["cargo", "run", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"]),
    )
    .set("paths", strings(&["benchmark"]))
    .set("run_seconds", json::uint(RUN_SECONDS))
    .set("workloads", Value::Arr(workloads.collect()))
    .set("end_to_end", Value::Arr(end_to_end.collect()))
    .set("per_layer", Value::Arr(layers.collect()));
    doc.into_value()
}
