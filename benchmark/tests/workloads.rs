//! Every workload body, at 1/100 of its size: a pure function of its seed,
//! passing its own checks, with tracing a neutral observer.

use ys_benchmark::spans::{Kind, Tracer};
use ys_benchmark::workloads::{Rep, ALL};

const SCALE: u64 = 100;

/// Everything about a repetition that must repeat exactly, bit for bit.
fn exact(rep: &Rep) -> (u64, u64, Vec<(&'static str, u64)>) {
    let bits = rep.sim.iter().chain(&rep.counts).map(|(&k, x)| (k, x.to_bits())).collect();
    (rep.ops, rep.failed, bits)
}

#[test]
fn each_workload_is_seed_deterministic_and_checks_clean() {
    for w in &ALL {
        let a = w.run(1, SCALE, &mut Tracer::off());
        let b = w.run(1, SCALE, &mut Tracer::off());
        assert!(a.problems.is_empty(), "{}: {:?}", w.name, a.problems);
        assert_eq!(a.failed, 0, "{}: no operation may fail", w.name);
        assert!(a.ops > 0 && a.wall_s > 0.0 && a.setup_s > 0.0, "{}", w.name);
        assert_eq!(exact(&a), exact(&b), "{}: two calls with one seed", w.name);
    }
}

#[test]
fn the_seed_reaches_the_generators() {
    for w in ALL.iter().filter(|w| w.seeded) {
        let a = w.run(1, SCALE, &mut Tracer::off());
        let b = w.run(2, SCALE, &mut Tracer::off());
        assert!(b.problems.is_empty(), "{}: {:?}", w.name, b.problems);
        assert_ne!((&a.sim, &a.counts), (&b.sim, &b.counts), "{}: seeds 1 and 2 gave the same results", w.name);
    }
}

#[test]
fn tracing_changes_no_simulated_result_and_roots_every_span() {
    for w in &ALL {
        let plain = w.run(7, SCALE, &mut Tracer::off());
        let mut tr = Tracer::on();
        let traced = w.run(7, SCALE, &mut tr);
        assert_eq!(exact(&plain), exact(&traced), "{}", w.name);
        let spans = tr.spans();
        assert_eq!(spans[0].kind, Kind::Measure, "{}: the measured phase is the root", w.name);
        assert!(spans.len() > 1, "{}", w.name);
        for (i, s) in spans.iter().enumerate().skip(1) {
            assert!((s.parent as usize) < i, "{}: span {i} has no earlier parent", w.name);
            assert!(s.end_ns >= s.start_ns);
        }
    }
}
