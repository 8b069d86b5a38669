//! Fixture: a caller-only file, fed as `benchmark/src/…` (its calls count)
//! and as `examples/…` (they do not). No rule reports here, not even on
//! its own uncalled `pub fn`, its `.unwrap()` or its wall clock.

pub fn frozen_entry() -> u32 {
    let _started = std::time::Instant::now();
    ys_raid::called_by_benchmark() + ys_raid::called_by_an_example() + Some(1).unwrap()
}
