//! The declaration in `BENCHMARK.json` against what runs emit.

use std::collections::BTreeSet;
use ys_benchmark::metrics::{per_layer, END_TO_END};
use ys_benchmark::runner::{run, Request};
use ys_benchmark::{json, spec, workloads};

fn declared() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json is {} bytes", text.len());
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn names(list: Option<&serde_json::Value>) -> BTreeSet<String> {
    match list {
        Some(serde_json::Value::Arr(items)) => {
            items.iter().map(|m| m.get("name").and_then(|n| n.as_str()).expect("a name").to_string()).collect()
        }
        other => panic!("expected a list, found {other:?}"),
    }
}

/// Parse a result line back into its metric names, checking its shape.
fn emitted(line: &str) -> BTreeSet<String> {
    let v = serde_json::parse_value(line).expect("the result line is JSON");
    let serde_json::Value::Obj(keys) = &v else { panic!("not an object: {line}") };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "exactly the contract's keys, sorted");
    assert_eq!(v.get("correct"), Some(&serde_json::Value::Bool(true)), "{line}");
    assert!(v.get("attempted").and_then(|a| a.as_u64()).unwrap() >= 1);
    let Some(serde_json::Value::Obj(metrics)) = v.get("metrics") else { panic!("no metrics: {line}") };
    for (name, m) in metrics {
        assert!(json::valid_name(name), "{name}");
        assert!(m.get("value").and_then(|x| x.as_f64()).is_some_and(f64::is_finite), "{name}");
        assert!(m.get("unit").and_then(|u| u.as_str()).is_some(), "{name}");
    }
    metrics.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn benchmark_json_is_the_registry_written_out() {
    assert_eq!(declared(), spec::spec(), "regenerate with `ys-benchmark spec > BENCHMARK.json`");
}

#[test]
fn an_untraced_run_emits_exactly_the_end_to_end_metrics() {
    let want = names(declared().get("end_to_end"));
    assert_eq!(want, END_TO_END.iter().map(|m| m.name.to_string()).collect());
    for workload in &workloads::ALL {
        let out = run(&Request { workload, seed: 3, seconds: 0.0, trace: false, scale: 100 });
        assert!(out.correct(), "{}: {:?}", workload.name, out.problems);
        assert_eq!(emitted(&out.result_line()), want, "{}", workload.name);
        assert!(out.metrics.iter().all(|&(_, v, _)| v > 0.0), "{}: end-to-end metrics are never 0", workload.name);
    }
}

#[test]
fn a_traced_run_emits_exactly_the_per_layer_metrics() {
    let want = names(declared().get("per_layer"));
    assert_eq!(want, per_layer().iter().map(|m| m.name.to_string()).collect());
    // The set of names does not depend on the workload; two that exercise
    // different families are enough.
    for name in ["blade-churn", "check-explore"] {
        let workload = workloads::by_name(name).unwrap();
        let out = run(&Request { workload, seed: 3, seconds: 0.0, trace: true, scale: 100 });
        assert!(out.correct(), "{name}: {:?}", out.problems);
        assert_eq!(emitted(&out.result_line()), want, "{name}");
        let trace = out.trace.expect("a traced run carries its spans");
        assert!(trace.get("spans_total").and_then(|n| n.as_u64()).unwrap() >= 2, "{name}");
        assert_eq!(serde_json::parse_value(&json::compact(&trace)).unwrap(), trace, "{name}: the trace file is JSON");
    }
}
