//! The Chrome trace `ys-report` writes parses as JSON, with the fields
//! `chrome://tracing` reads where it expects them.

use ys_simcore::time::{SimDuration, SimTime};
use ys_simcore::{chrome_trace_json, SpanEvent};

fn span(at: u64, dur: u64, lane: u32) -> SpanEvent {
    SpanEvent {
        at: SimTime(at),
        dur: SimDuration::from_nanos(dur),
        subsystem: "simnet",
        name: "xfer",
        lane,
        a: 4096,
        b: 1,
    }
}

#[test]
fn renders_valid_json_with_span_and_instant() {
    let events = vec![span(1_500, 2_000, 0), span(10_000, 0, 3) /* instant: dur 0 */];
    let text = chrome_trace_json(&events);
    let v = serde_json::parse_value(&text).expect("chrome trace must be valid JSON");
    let arr = match v.get("traceEvents") {
        Some(serde_json::Value::Arr(a)) => a,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert_eq!(arr.len(), 2);
    assert_eq!(arr[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    assert_eq!(arr[0].get("ts").and_then(|t| t.as_f64()), Some(1.5));
    assert_eq!(arr[0].get("dur").and_then(|t| t.as_f64()), Some(2.0));
    assert_eq!(arr[1].get("ph").and_then(|p| p.as_str()), Some("i"));
    assert_eq!(arr[1].get("s").and_then(|p| p.as_str()), Some("t"));
    assert_eq!(arr[1].get("tid").and_then(|t| t.as_u64()), Some(3));
    assert!(arr[1].get("dur").is_none(), "instants carry no dur");
    assert!(serde_json::parse_value(&chrome_trace_json(&[])).is_ok(), "the empty trace parses too");
}
