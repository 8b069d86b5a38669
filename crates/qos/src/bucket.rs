//! Deterministic token-bucket throttle.
//!
//! The bucket holds byte tokens refilled continuously at a configured
//! rate. Refill is *exact integer arithmetic* at nanosecond granularity:
//! the fractional token remainder (`rate × Δt mod 1e9`) is carried
//! forward, so refilling in one step or a thousand small steps yields the
//! same token count — a requirement for deterministic replay and for the
//! ys-check model. Tokens are unsigned and never borrowed, so "tokens
//! never negative" holds structurally; admission instead asks
//! [`TokenBucket::ready_at`] *when* enough tokens will exist and delays
//! or sheds the request.

use ys_simcore::time::{SimDuration, SimTime};

const NANOS_PER_SEC: u128 = 1_000_000_000;

/// A byte-granularity token bucket (rate 0 = unthrottled).
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    burst: u64,
    tokens: u64,
    /// Fractional refill carry: numerator of (rate × Δt) mod 1e9.
    frac: u64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket that starts full.
    pub fn new(rate_bytes_per_sec: u64, burst: u64) -> TokenBucket {
        let burst = burst.max(1);
        TokenBucket { rate_bytes_per_sec, burst, tokens: burst, frac: 0, last: SimTime::ZERO }
    }

    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Current token balance (as of the last refill instant).
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Advance the refill clock to `now`. Idempotent; ignores rewinds.
    fn refill(&mut self, now: SimTime) {
        if now <= self.last || self.rate_bytes_per_sec == 0 {
            self.last = self.last.max(now);
            return;
        }
        let dt = u128::from(now.since(self.last).nanos());
        let num = dt * u128::from(self.rate_bytes_per_sec) + u128::from(self.frac);
        let add = num / NANOS_PER_SEC;
        let added = self.tokens.saturating_add(u64::try_from(add).unwrap_or(u64::MAX)); // saturating fallback
        if added >= self.burst {
            self.tokens = self.burst;
            self.frac = 0;
        } else {
            self.tokens = added;
            self.frac = (num % NANOS_PER_SEC) as u64;
        }
        self.last = now;
    }

    /// Earliest instant at which `bytes` tokens will be available.
    /// Returns `now` for unthrottled buckets or when already funded.
    ///
    /// A prior [`take`](TokenBucket::take) at a delayed-admission instant
    /// may have advanced the bucket clock past `now`; the quote is always
    /// relative to the bucket clock, so taking at the returned instant is
    /// guaranteed to succeed.
    pub fn ready_at(&mut self, now: SimTime, bytes: u64) -> SimTime {
        self.refill(now);
        if self.rate_bytes_per_sec == 0 || self.tokens >= bytes {
            return now;
        }
        let deficit = u128::from(bytes - self.tokens) * NANOS_PER_SEC - u128::from(self.frac);
        let rate = u128::from(self.rate_bytes_per_sec);
        let wait_ns = deficit.div_ceil(rate);
        // Tokens and frac are as of `self.last`, which a delayed take may
        // have pushed beyond `now` — the wait accrues from there.
        self.last + SimDuration::from_nanos(u64::try_from(wait_ns).unwrap_or(u64::MAX)) // saturating fallback
    }

    /// Take `bytes` tokens at `at` (refilling first). Returns false — and
    /// takes nothing — if the balance is insufficient.
    pub fn take(&mut self, at: SimTime, bytes: u64) -> bool {
        self.refill(at);
        if self.rate_bytes_per_sec == 0 {
            return true;
        }
        if self.tokens >= bytes {
            self.tokens -= bytes;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_caps_at_burst() {
        let mut b = TokenBucket::new(1_000_000, 4096);
        assert_eq!(b.tokens(), 4096);
        b.refill(SimTime(1_000_000_000));
        assert_eq!(b.tokens(), 4096, "refill never exceeds burst");
    }

    #[test]
    fn refill_is_exact_and_step_invariant() {
        // 333 bytes/s: fractional carry matters.
        let mk = || TokenBucket::new(333, 1_000_000);
        let mut one = mk();
        let mut many = mk();
        one.take(SimTime::ZERO, 1_000_000);
        many.take(SimTime::ZERO, 1_000_000);
        let end = SimTime(10_000_000_007);
        one.refill(end);
        for i in 1..=1000u64 {
            many.refill(SimTime(end.0 * i / 1000));
        }
        assert_eq!(one.tokens(), many.tokens(), "refill must not depend on step size");
        // 10.000000007 s × 333 B/s = 3330.000002331 → 3330 tokens.
        assert_eq!(one.tokens(), 3330);
    }

    #[test]
    fn ready_at_predicts_take() {
        let mut b = TokenBucket::new(1_000_000, 64 * 1024);
        assert!(b.take(SimTime::ZERO, 64 * 1024));
        let ready = b.ready_at(SimTime::ZERO, 50_000);
        assert!(ready > SimTime::ZERO);
        // One nanosecond early: not yet funded.
        let mut early = b.clone();
        assert!(!early.take(SimTime(ready.0 - 1), 50_000));
        assert!(b.take(ready, 50_000), "funded exactly at ready_at");
    }

    #[test]
    fn ready_at_quotes_from_the_advanced_bucket_clock() {
        let mut b = TokenBucket::new(1_000_000, 64 * 1024);
        assert!(b.take(SimTime::ZERO, 64 * 1024));
        // A delayed admission spends tokens at a future instant, pushing
        // the bucket clock ahead of the caller's.
        let r1 = b.ready_at(SimTime::ZERO, 64 * 1024);
        assert!(b.take(r1, 64 * 1024));
        // The next request arrives before r1 on the caller's clock; the
        // quote must account for the tokens already spent at r1.
        let r2 = b.ready_at(SimTime(1), 64 * 1024);
        assert!(r2 > r1);
        assert!(b.take(r2, 64 * 1024), "quoted instant funds the take");
    }

    #[test]
    fn unthrottled_bucket_always_ready() {
        let mut b = TokenBucket::new(0, 1);
        assert_eq!(b.ready_at(SimTime(5), u64::MAX), SimTime(5));
        assert!(b.take(SimTime(5), u64::MAX));
    }

    #[test]
    fn take_refuses_rather_than_borrowing() {
        let mut b = TokenBucket::new(100, 1000);
        assert!(b.take(SimTime::ZERO, 900));
        assert!(!b.take(SimTime::ZERO, 200), "no borrowing");
        assert_eq!(b.tokens(), 100, "failed take leaves balance intact");
    }
}
