//! Property tests for the network substrate: FIFO conservation laws that
//! must hold for any message sequence.

use proptest::prelude::*;
use ys_simcore::time::{Bandwidth, SimDuration, SimTime};
use ys_simnet::{Fabric, Link, LinkSpec};

fn spec(gbps: u64, prop_us: u64, per_msg_ns: u64) -> LinkSpec {
    LinkSpec::new(
        Bandwidth::from_gbit_per_sec(gbps),
        SimDuration::from_micros(prop_us),
        SimDuration::from_nanos(per_msg_ns),
    )
}

proptest! {
    /// A link never reorders: arrivals are non-decreasing for any
    /// submission pattern, and every transfer starts no earlier than
    /// submitted.
    #[test]
    fn link_is_fifo_and_causal(
        msgs in proptest::collection::vec((0u64..1_000_000, 1u64..1_000_000), 1..100),
        gbps in 1u64..40,
    ) {
        let mut link = Link::new(spec(gbps, 5, 500));
        let mut last_arrival = SimTime::ZERO;
        let mut clock = 0u64;
        for (gap, bytes) in msgs {
            clock += gap;
            let t = link.transfer(SimTime(clock), bytes);
            prop_assert!(t.start >= SimTime(clock), "started before submission");
            prop_assert!(t.serialized > t.start);
            prop_assert!(t.arrival >= t.serialized);
            prop_assert!(t.arrival >= last_arrival, "reordered delivery");
            last_arrival = t.arrival;
        }
    }

    /// Total busy time equals the sum of serialization times: utilization
    /// accounting never invents or loses time.
    #[test]
    fn utilization_conserves_time(
        sizes in proptest::collection::vec(1u64..10_000_000, 1..50),
        gbps in 1u64..40,
    ) {
        let s = spec(gbps, 0, 0);
        let mut link = Link::new(s);
        let mut expected_busy = SimDuration::ZERO;
        let mut last = SimTime::ZERO;
        for bytes in &sizes {
            let t = link.transfer(SimTime::ZERO, *bytes);
            expected_busy += s.bandwidth.transfer_time(*bytes);
            last = t.serialized;
        }
        // Back-to-back: serialization window == sum of transfer times.
        prop_assert_eq!(last.nanos(), expected_busy.nanos());
        let u = link.utilization(last);
        prop_assert!((u - 1.0).abs() < 1e-9, "back-to-back link must be 100% busy, got {u}");
    }

    /// Fabric conservation: bytes leaving egress ports equal bytes entering
    /// ingress ports, for any traffic matrix.
    #[test]
    fn fabric_conserves_bytes(
        sends in proptest::collection::vec((0usize..6, 0usize..6, 1u64..1_000_000), 1..60),
    ) {
        let mut f = Fabric::new(6, spec(2, 1, 700));
        let mut sent = 0u64;
        for (from, to, bytes) in sends {
            f.send(SimTime::ZERO, from, to, bytes);
            sent += bytes;
        }
        let egress: u64 = (0..6).map(|p| f.egress_bytes(p)).sum();
        let ingress: u64 = (0..6).map(|p| f.ingress_bytes(p)).sum();
        prop_assert_eq!(egress, sent);
        prop_assert_eq!(ingress, sent);
    }

    /// Unloaded latency is monotone in bytes and in propagation distance.
    #[test]
    fn unloaded_latency_monotone(bytes_a in 0u64..10_000_000, extra in 1u64..10_000_000, km in 0u64..10_000) {
        use ys_simnet::catalog;
        // On an idle link a message arrives after exactly its unloaded latency.
        let latency = |spec, bytes| Link::new(spec).transfer(SimTime::ZERO, bytes).arrival;
        let near = catalog::wan(catalog::oc192(), km as f64);
        let far = catalog::wan(catalog::oc192(), (km + 100) as f64);
        prop_assert!(latency(near, bytes_a) <= latency(near, bytes_a + extra));
        prop_assert!(latency(near, bytes_a) < latency(far, bytes_a));
    }
}
