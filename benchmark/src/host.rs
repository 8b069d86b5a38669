//! What the operating system knows about this process: peak resident set
//! and CPU time, read from `/proc` (the benchmark runs on Linux only).

use std::time::Instant;

/// `VmHWM` of this process in MiB — the peak resident set so far. Each
/// workload runs in a process of its own, so the peak is that workload's.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// User + system CPU seconds consumed so far (`utime + stime`, fields 14 and
/// 15 of `/proc/self/stat`, in the kernel's fixed 100 Hz `USER_HZ`).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // The command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis, where field 3 comes first.
    let after = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i - 3].parse().expect("numeric tick count") };
    (ticks(14) + ticks(15)) / 100.0
}

/// Seconds `f` takes on the wall clock, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_numbers() {
        assert!(peak_rss_mb() > 0.5, "a running test binary holds more than half a MiB");
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_s() >= before);
    }
}
