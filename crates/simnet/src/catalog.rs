//! Catalog of the link technologies the paper names, with era-appropriate
//! (c. 2001) rates and overheads.
//!
//! | Technology | Rate | Where the paper uses it |
//! |---|---|---|
//! | Fibre Channel 2 Gb/s | 2 Gb/s | blade disk/host ports (§2.3, §8) |
//! | 10 Gigabit Ethernet | 10 Gb/s | the high-speed stream port (Fig. 1) |
//! | PCI-X 266 bus | 17 Gb/s | blades sharing the high-speed port (§2.3) |
//! | OC-192 / OC-768 | 10 / 40 Gb/s | WAN backbones (§2) |

use crate::link::LinkSpec;
use ys_simcore::time::{Bandwidth, SimDuration};

/// Fibre Channel payload efficiency is high; we charge a small fixed
/// per-frame cost instead of shaving the rate.
const FC_PER_MSG: SimDuration = SimDuration::from_nanos(700);
const ETH_PER_MSG: SimDuration = SimDuration::from_nanos(1200);
/// Intra-datacenter propagation: a few tens of metres of fibre + switch.
const LOCAL_PROP: SimDuration = SimDuration::from_nanos(800);

pub fn fibre_channel_2g() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_gbit_per_sec(2), LOCAL_PROP, FC_PER_MSG)
}

pub fn ten_gigabit_ethernet() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_gbit_per_sec(10), LOCAL_PROP, ETH_PER_MSG)
}

/// PCI-X 266 (DDR): ~17 Gb/s. Shared bus — model as one Link contended by
/// everything on the blade shelf (§2.3's "common PCI-X bus" feeding the
/// 10 Gb/s port). A 10 GbE port cannot be driven through the 8.5 Gb/s
/// PCI-X 133 variant, so the high-speed port card the paper sketches
/// implies this faster bus.
pub fn pci_x_266_bus() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_mbit_per_sec(17024), SimDuration::from_nanos(120), SimDuration::from_nanos(250))
}

/// Fibre Channel "2 Gb/s" *payload* rate: the line runs at 2.125 Gbaud
/// with 8b/10b coding, leaving ≈ 1.7 Gb/s (200 MB/s) of data — the number
/// that matters when the paper adds blades until a 10 Gb/s stream fills
/// (4 blades × 2 ports × 1.7 Gb/s ≈ 13.6 Gb/s of feed).
pub fn fibre_channel_2g_payload() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_mbit_per_sec(1700), LOCAL_PROP, FC_PER_MSG)
}

pub fn oc192() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_mbit_per_sec(9953), SimDuration::ZERO, ETH_PER_MSG)
}

pub fn oc768() -> LinkSpec {
    LinkSpec::new(Bandwidth::from_gbit_per_sec(40), SimDuration::ZERO, ETH_PER_MSG)
}

/// Speed of light in fibre: ~5 microseconds per kilometre, one-way.
fn wan_propagation(km: f64) -> SimDuration {
    SimDuration::from_secs_f64(km * 5e-6 / 1e0 * 1e-0 * 1e-0 * 1e-0)
}

/// A WAN path: an OC-class trunk plus distance-derived propagation.
pub fn wan(trunk: LinkSpec, km: f64) -> LinkSpec {
    LinkSpec::new(trunk.bandwidth, trunk.propagation + wan_propagation(km), trunk.per_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bw` in Gb/s, read back from the time it takes to move 1 GB.
    fn gbps(bw: Bandwidth) -> f64 {
        8.0 / bw.transfer_time(1_000_000_000).as_secs_f64()
    }

    #[test]
    fn rates_match_the_paper() {
        assert_eq!(fibre_channel_2g().bandwidth, Bandwidth::from_gbit_per_sec(2));
        assert_eq!(ten_gigabit_ethernet().bandwidth, Bandwidth::from_gbit_per_sec(10));
        assert_eq!(oc768().bandwidth, Bandwidth::from_gbit_per_sec(40));
        assert!(pci_x_266_bus().bandwidth > Bandwidth::from_gbit_per_sec(10), "the bus can drive the 10 GbE port");
    }

    #[test]
    fn wan_propagation_scales_with_distance() {
        // 1000 km ≈ 5 ms one-way.
        let p = wan_propagation(1000.0);
        assert!((p.as_millis_f64() - 5.0).abs() < 0.01, "{p:?}");
        let spec = wan(oc192(), 3000.0);
        assert!((spec.propagation.as_millis_f64() - 15.0).abs() < 0.1);
        assert_eq!(spec.bandwidth, oc192().bandwidth);
    }

    #[test]
    fn two_fc2_ports_cannot_saturate_ten_gbe_but_eight_can() {
        // Core arithmetic behind Figure 1: each blade contributes 2×2 Gb/s.
        let per_blade = 2.0 * gbps(fibre_channel_2g().bandwidth);
        assert!(per_blade * 2.0 < 10.0);
        assert!(per_blade * 4.0 >= 10.0 * 0.8, "4 blades reach the high-speed port's neighbourhood");
    }
}
