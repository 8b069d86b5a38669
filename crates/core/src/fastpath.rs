//! The Figure 1 fast path: "in order to support a 10 Gb/s stream, a large
//! read would be striped, in a round robin fashion, over four controller
//! blades. These controllers would take turns driving a 10 Gb/s Ethernet
//! port via a common PCI-X bus." (§2.3, §8)
//!
//! Each blade pulls its stripe segments over its two 2 Gb/s FC ports
//! (≈ 1.7 Gb/s payload each after 8b/10b coding) and pushes them through
//! the shared PCI-X bus onto the 10 GbE port. The deliverable stream rate
//! is therefore min(k × 3.4 Gb/s, PCI-X, 10 GbE) — reaching the port's
//! neighbourhood at k = 4, exactly the paper's claim.

use ys_proto::plan_stream;
use ys_simcore::time::{throughput_gbit_per_sec, SimDuration, SimTime};
use ys_simcore::SpanEvent;
use ys_simnet::{catalog, Link, LinkSpec, SharedBus};

/// Result of one striped stream delivery.
#[derive(Clone, Copy, Debug)]
pub struct StreamResult {
    pub bytes: u64,
    pub elapsed: SimDuration,
    pub gbit_per_sec: f64,
    /// Utilization of the shared PCI-X bus.
    pub bus_utilization: f64,
    /// Utilization of the 10 GbE port.
    pub port_utilization: f64,
}

/// Configuration of the high-speed path.
#[derive(Clone, Copy, Debug)]
pub struct FastPathConfig {
    /// Number of controller blades striping the stream.
    pub blades: usize,
    /// FC ports per blade (the paper: two).
    pub fc_ports_per_blade: usize,
    /// Segment size for round-robin striping.
    pub segment_bytes: u64,
    /// The high-speed output port.
    pub port: LinkSpec,
}

impl Default for FastPathConfig {
    fn default() -> FastPathConfig {
        FastPathConfig {
            blades: 4,
            fc_ports_per_blade: 2,
            segment_bytes: 1 << 20,
            port: catalog::ten_gigabit_ethernet(),
        }
    }
}

/// Deliver a large object of `object_bytes` through the striped fast path;
/// returns the achieved stream rate.
pub fn deliver_stream(cfg: &FastPathConfig, object_bytes: u64) -> StreamResult {
    deliver_stream_traced(cfg, object_bytes, 0).0
}

/// [`deliver_stream`] with per-link tracing for the observability layer:
/// with `trace_capacity > 0` every FC link, the PCI-X bus, and the output
/// port record their transfer spans. Lanes: blade *b*'s FC port *p* is
/// `b * ports + p`, the bus is `1000`, the output port `1001`. Also returns
/// how many events overflowed the rings. Tracing never changes the
/// simulated timings — `deliver_stream` is this with capacity 0.
pub fn deliver_stream_traced(
    cfg: &FastPathConfig,
    object_bytes: u64,
    trace_capacity: usize,
) -> (StreamResult, Vec<SpanEvent>, u64) {
    assert!(cfg.blades > 0 && cfg.fc_ports_per_blade > 0);
    // Per-blade FC feed: each blade owns `fc_ports_per_blade` FC links and
    // alternates segments across them. Payload rate (1.7 Gb/s after 8b/10b)
    // is what actually reaches the bus.
    let fc = catalog::fibre_channel_2g_payload();
    let mut fc_links: Vec<Vec<Link>> = (0..cfg.blades)
        .map(|_| (0..cfg.fc_ports_per_blade).map(|_| Link::new(fc)).collect())
        .collect();
    let mut bus = SharedBus::new(catalog::pci_x_266_bus());
    let mut port = Link::new(cfg.port);
    if trace_capacity > 0 {
        for (b, links) in fc_links.iter_mut().enumerate() {
            for (p, l) in links.iter_mut().enumerate() {
                l.enable_trace((b * cfg.fc_ports_per_blade + p) as u32, trace_capacity);
            }
        }
        bus.enable_trace(1000, trace_capacity);
        port.enable_trace(1001, trace_capacity);
    }

    let plan = plan_stream(object_bytes, None, cfg.segment_bytes, cfg.blades);
    let mut last_arrival = SimTime::ZERO;
    let mut per_blade_seg = vec![0usize; cfg.blades];
    for seg in &plan.segments {
        let blade = seg.blade;
        // Pull from disk-side FC (alternating the blade's two ports).
        let fc_idx = per_blade_seg[blade] % cfg.fc_ports_per_blade;
        per_blade_seg[blade] += 1;
        let fetched = fc_links[blade][fc_idx].transfer(SimTime::ZERO, seg.len).arrival;
        // Cross the shared PCI-X bus (the blades "take turns").
        let crossed = bus.transfer(fetched, seg.len).arrival;
        // Out the high-speed port.
        let out = port.transfer(crossed, seg.len).arrival;
        last_arrival = last_arrival.max(out);
    }
    let elapsed = last_arrival.since(SimTime::ZERO);
    let result = StreamResult {
        bytes: plan.total_bytes,
        elapsed,
        gbit_per_sec: throughput_gbit_per_sec(plan.total_bytes, elapsed),
        bus_utilization: bus.utilization(last_arrival),
        port_utilization: port.utilization(last_arrival),
    };
    let mut events = Vec::new();
    let mut dropped = 0;
    for links in &mut fc_links {
        for l in links {
            dropped += l.trace().dropped();
            l.trace_mut().take_into(&mut events);
        }
    }
    for l in [bus.link_mut(), &mut port] {
        dropped += l.trace().dropped();
        l.trace_mut().take_into(&mut events);
    }
    events.sort_by_key(|e| (e.at, e.lane));
    (result, events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(blades: usize) -> StreamResult {
        let cfg = FastPathConfig { blades, ..FastPathConfig::default() };
        deliver_stream(&cfg, 1 << 30) // 1 GiB stream
    }

    #[test]
    fn one_blade_is_fc_limited() {
        let r = run(1);
        // 2 × 1.7 Gb/s FC payload per blade → ~3.4 Gb/s ceiling.
        assert!(r.gbit_per_sec < 3.45, "got {}", r.gbit_per_sec);
        assert!(r.gbit_per_sec > 3.0, "got {}", r.gbit_per_sec);
    }

    #[test]
    fn two_blades_double_the_stream() {
        let r1 = run(1);
        let r2 = run(2);
        let ratio = r2.gbit_per_sec / r1.gbit_per_sec;
        assert!(ratio > 1.8, "scaling ratio {ratio}");
    }

    #[test]
    fn four_blades_saturate_the_port_neighbourhood() {
        // The paper's headline: 4 blades × 2 FC feed a ~10 Gb/s stream —
        // "in the neighbourhood of 10 Gbs" (§8). The 10 GbE port becomes
        // the saturated stage.
        let r = run(4);
        assert!(r.gbit_per_sec > 9.0, "got {}", r.gbit_per_sec);
        assert!(r.port_utilization > 0.9, "port is the saturated stage: {}", r.port_utilization);
    }

    #[test]
    fn more_blades_cannot_exceed_the_port() {
        let r4 = run(4);
        let r8 = run(8);
        assert!(r8.gbit_per_sec <= r4.gbit_per_sec * 1.05, "port-bound: {} vs {}", r8.gbit_per_sec, r4.gbit_per_sec);
        assert!(r8.gbit_per_sec < 10.0);
    }

    #[test]
    fn stream_is_complete_and_in_order() {
        let cfg = FastPathConfig::default();
        let r = deliver_stream(&cfg, 10_000_001);
        assert_eq!(r.bytes, 10_000_001, "every byte delivered");
    }
}
