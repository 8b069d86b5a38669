//! JSON output with sorted keys, over the workspace's offline `serde_json`
//! shim. Every object the benchmark emits goes through [`Obj`], so two runs
//! of the same code print their keys in the same order and `compare` can
//! diff files line by line.

use serde_json::{Number, Value};
use std::collections::BTreeMap;

/// A metric, workload or span name the acceptance contract accepts: starts
/// with a letter or digit, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A JSON object under construction; keys come out sorted.
#[derive(Clone, Debug, Default)]
pub struct Obj(BTreeMap<String, Value>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn set(&mut self, key: &str, value: Value) -> &mut Obj {
        self.0.insert(key.to_string(), value);
        self
    }

    pub fn into_value(self) -> Value {
        Value::Obj(self.0.into_iter().collect())
    }
}

pub fn num(v: f64) -> Value {
    // JSON has no NaN/inf; a metric that is not a number is a benchmark bug.
    assert!(v.is_finite(), "non-finite metric value {v}");
    Value::Num(Number::F(v))
}

pub fn uint(v: u64) -> Value {
    Value::Num(Number::U(v))
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// `{"value": v, "unit": u}` — the shape of one reported metric.
pub fn metric(value: f64, unit: &str) -> Value {
    let mut o = Obj::new();
    o.set("value", num(value)).set("unit", text(unit));
    o.into_value()
}

/// A `name → {"value", "unit"}` object; panics on a name the contract
/// would refuse, so a bad name never reaches a result line.
pub fn metrics_object<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    let mut o = Obj::new();
    for (name, value, unit) in metrics {
        assert!(valid_name(name), "metric name {name:?} is outside [A-Za-z0-9_.-]");
        o.set(name, metric(value, unit));
    }
    o.into_value()
}

struct Doc<'a>(&'a Value);

impl serde::Serialize for Doc<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// One-line rendering (the contract's result line).
pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Doc(v)).expect("the shim's printer is infallible")
}

/// Indented rendering (files meant to be read and diffed).
pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Doc(v)).expect("the shim's printer is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract_alphabet() {
        for ok in ["host_ops_per_s", "cache.read_local_hit_ns", "hot-read", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-x", "has space", "per/s", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn objects_print_with_sorted_keys() {
        let v = metrics_object([("zeta", 1.5, "s"), ("alpha", 2.0, "count"), ("mid.dle", 0.25, "1/s")]);
        let line = compact(&v);
        let (a, m, z) = (line.find("alpha").unwrap(), line.find("mid.dle").unwrap(), line.find("zeta").unwrap());
        assert!(a < m && m < z, "{line}");
        // Inner objects are sorted too: "unit" before "value".
        assert!(line.contains(r#""alpha":{"unit":"count","value":2.0}"#), "{line}");
        // And the text parses back to the same tree.
        assert_eq!(serde_json::parse_value(&line).unwrap(), v);
        assert_eq!(serde_json::parse_value(&pretty(&v)).unwrap(), v);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_bad_metric_name_never_reaches_the_output() {
        metrics_object([("bad name", 1.0, "s")]);
    }
}
