//! Switched fabric model.
//!
//! A [`Fabric`] connects N endpoints through a non-blocking crossbar — the
//! standard assumption for the FC and Ethernet switches of the paper's era —
//! so contention arises only at endpoint ports: a message reserves the
//! sender's egress port and the receiver's ingress port in FIFO order.
//! A [`SharedBus`] models the opposite extreme: one serialization resource
//! shared by all parties (the blades' common PCI-X bus of §2.3).

use crate::link::{Link, LinkSpec, Transfer};
use ys_simcore::time::{SimDuration, SimTime};

/// Endpoint index within a fabric.
pub type PortId = usize;

/// A non-blocking switched fabric with per-endpoint duplex ports.
#[derive(Clone, Debug)]
pub struct Fabric {
    egress: Vec<Link>,
    ingress: Vec<Link>,
    /// Extra transit delay through the switch core.
    core_delay: SimDuration,
}

impl Fabric {
    pub fn new(ports: usize, spec: LinkSpec) -> Fabric {
        Fabric {
            egress: (0..ports).map(|_| Link::new(spec)).collect(),
            ingress: (0..ports).map(|_| Link::new(spec)).collect(),
            core_delay: SimDuration::from_nanos(400),
        }
    }

    /// Send one message. Reserves `from`'s egress, transits the core, then
    /// reserves `to`'s ingress.
    pub fn send(&mut self, now: SimTime, from: PortId, to: PortId, bytes: u64) -> Transfer {
        let out = self.egress[from].transfer(now, bytes);
        let at_core = out.arrival + self.core_delay;
        let inn = self.ingress[to].transfer(at_core, bytes);
        Transfer { start: out.start, serialized: inn.serialized, arrival: inn.arrival }
    }

    // lint: allow(dead-pub) — (b) byte-conservation oracle of the fabric proptest
    pub fn egress_bytes(&self, port: PortId) -> u64 {
        self.egress[port].bytes()
    }

    // lint: allow(dead-pub) — (b) byte-conservation oracle of the fabric proptest
    pub fn ingress_bytes(&self, port: PortId) -> u64 {
        self.ingress[port].bytes()
    }
}

/// One serialization resource shared by every attached party.
#[derive(Clone, Debug)]
pub struct SharedBus {
    link: Link,
}

impl SharedBus {
    pub fn new(spec: LinkSpec) -> SharedBus {
        SharedBus { link: Link::new(spec) }
    }

    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Transfer {
        self.link.transfer(now, bytes)
    }

    pub fn utilization(&self, until: SimTime) -> f64 {
        self.link.utilization(until)
    }

    /// Enable transfer tracing on the shared serialization resource.
    pub fn enable_trace(&mut self, lane: u32) {
        self.link.enable_trace(lane);
    }

    pub fn link_mut(&mut self) -> &mut Link {
        &mut self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = Fabric::new(4, catalog::fibre_channel_2g());
        let a = f.send(SimTime::ZERO, 0, 1, 1 << 20);
        let b = f.send(SimTime::ZERO, 2, 3, 1 << 20);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO, "crossbar is non-blocking");
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn shared_destination_port_serializes() {
        let mut f = Fabric::new(4, catalog::fibre_channel_2g());
        let a = f.send(SimTime::ZERO, 0, 3, 1 << 20);
        let b = f.send(SimTime::ZERO, 1, 3, 1 << 20);
        assert!(b.arrival > a.arrival, "ingress port 3 is the contention point");
        // The two payloads arrive roughly back-to-back at port 3.
        let gap = b.arrival.since(a.arrival);
        let serialize = catalog::fibre_channel_2g().bandwidth.transfer_time(1 << 20);
        assert!(gap >= serialize);
    }

    #[test]
    fn shared_source_port_serializes() {
        let mut f = Fabric::new(4, catalog::fibre_channel_2g());
        let spec = catalog::fibre_channel_2g();
        let a = f.send(SimTime::ZERO, 0, 1, 1 << 20);
        let b = f.send(SimTime::ZERO, 0, 2, 1 << 20);
        // b queues behind a on egress port 0: starts when a's egress
        // serialization (per-message overhead + wire time) completes.
        let a_egress_done = SimTime::ZERO + spec.per_message + spec.bandwidth.transfer_time(1 << 20);
        assert_eq!(b.start, a_egress_done, "egress 0 is FIFO");
        assert!(a.start < b.start);
    }

    #[test]
    fn bus_contention_halves_per_party_rate() {
        let mut bus = SharedBus::new(catalog::pci_x_266_bus());
        let a = bus.transfer(SimTime::ZERO, 1_000_000);
        let b = bus.transfer(SimTime::ZERO, 1_000_000);
        assert_eq!(b.start, a.serialized);
        assert!(bus.utilization(b.serialized) > 0.99);
    }
}
