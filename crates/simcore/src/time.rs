//! Simulated time.
//!
//! Time is a `u64` count of nanoseconds since simulation start. Nanosecond
//! resolution comfortably spans multi-day simulated runs (`u64::MAX` ns is
//! about 584 years) while keeping rate arithmetic exact for every link speed
//! in the paper's catalog (1 Gb/s FC through OC-768).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// A sentinel later than any reachable simulation instant.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    pub fn from_secs_f64(s: f64) -> SimDuration {
        assert!(s >= 0.0 && s.is_finite(), "duration must be finite and non-negative");
        SimDuration((s * 1e9).round() as u64)
    }

    pub fn nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow")) // lint: allow(panic-path) — checked_ arithmetic; overflow is a sim-config bug
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime underflow: rhs later than lhs")) // lint: allow(panic-path) — checked_ arithmetic; caller must order operands
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow")) // lint: allow(panic-path) — checked_ arithmetic; overflow is a sim-config bug
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow")) // lint: allow(panic-path) — checked_ arithmetic; caller must order operands
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow")) // lint: allow(panic-path) — checked_ arithmetic; overflow is a sim-config bug
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

fn format_nanos(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Bandwidth, stored as bits per second so the paper's link-rate catalog
/// (quoted in Gb/s) is exact.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    pub const fn from_gbit_per_sec(gbps: u64) -> Bandwidth {
        Bandwidth { bits_per_sec: gbps * 1_000_000_000 }
    }

    pub const fn from_mbit_per_sec(mbps: u64) -> Bandwidth {
        Bandwidth { bits_per_sec: mbps * 1_000_000 }
    }

    pub fn from_mbyte_per_sec(mbs: u64) -> Bandwidth {
        Bandwidth { bits_per_sec: mbs * 8_000_000 }
    }

    /// Time to serialize `bytes` onto a medium of this bandwidth.
    ///
    /// Computed as `bytes * 8e9 / bits_per_sec` nanoseconds using u128
    /// intermediates, so it is exact for any realistic transfer size.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        assert!(self.bits_per_sec > 0, "zero bandwidth");
        let num = (bytes as u128) * 8 * 1_000_000_000;
        SimDuration(num.div_ceil(self.bits_per_sec as u128) as u64)
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits_per_sec >= 1_000_000_000 {
            write!(f, "{:.2}Gb/s", self.bits_per_sec as f64 / 1e9)
        } else {
            write!(f, "{:.2}Mb/s", self.bits_per_sec as f64 / 1e6)
        }
    }
}

/// Observed throughput: bytes moved per unit of simulated time.
pub fn throughput_mb_per_sec(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Observed throughput in Gb/s.
pub fn throughput_gbit_per_sec(bytes: u64, elapsed: SimDuration) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 * 8.0 / 1e9 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.nanos(), 5_000_000);
        let d = t - SimTime::ZERO;
        assert_eq!(d, SimDuration::from_millis(5));
        assert_eq!(t.since(SimTime(10_000_000)), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_secs_f64(0.25), SimDuration::from_millis(250));
    }

    #[test]
    fn bandwidth_transfer_time_is_exact_for_catalog_rates() {
        // 2 Gb/s FC: 1 MiB takes 1 MiB * 8 / 2e9 s = 4194.304 us.
        let fc2 = Bandwidth::from_gbit_per_sec(2);
        let d = fc2.transfer_time(1 << 20);
        assert_eq!(d.nanos(), 4_194_304);
        // 10 GbE: 1 GB takes 0.8 s.
        let tenge = Bandwidth::from_gbit_per_sec(10);
        assert_eq!(tenge.transfer_time(1_000_000_000), SimDuration::from_millis(800));
    }

    #[test]
    fn bandwidth_transfer_time_rounds_up() {
        // 3 bytes at 1 Gb/s = 24 ns exactly; 1 byte = 8 ns.
        let g1 = Bandwidth::from_gbit_per_sec(1);
        assert_eq!(g1.transfer_time(3).nanos(), 24);
        // 1 byte at 3 Gb/s = 8/3 ns -> rounds up to 3.
        let g3 = Bandwidth::from_gbit_per_sec(3);
        assert_eq!(g3.transfer_time(1).nanos(), 3);
    }

    #[test]
    fn throughput_helpers() {
        let d = SimDuration::from_secs(2);
        assert!((throughput_mb_per_sec(200_000_000, d) - 100.0).abs() < 1e-9);
        assert!((throughput_gbit_per_sec(250_000_000, d) - 1.0).abs() < 1e-9);
        assert_eq!(throughput_mb_per_sec(1, SimDuration::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::ZERO - SimTime(1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", SimDuration::from_nanos(9)), "9ns");
    }
}
