//! Time sources for the telemetry layer.
//!
//! Production code reads a monotonic clock; tests plug in a [`MockClock`]
//! they can advance by hand, so no test ever sleeps or depends on wall-clock
//! behaviour. Everything downstream ([`Span`](crate::Span), histograms, trace
//! spans) only sees `u64` nanoseconds from this trait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// Implementations must be cheap (one clock read) and monotone
/// non-decreasing per instance; the absolute origin is arbitrary.
pub trait Clock: Send + Sync {
    /// Nanoseconds elapsed since this clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The production clock: [`Instant`] anchored at construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturates after ~584 years of process uptime.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for tests: starts at zero, moves only when told.
#[derive(Debug, Default)]
pub struct MockClock {
    nanos: AtomicU64,
}

impl MockClock {
    /// A mock clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves time forward by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Jumps to an absolute reading (tests only; must not go backwards if
    /// spans are open across the jump).
    pub fn set(&self, nanos: u64) {
        self.nanos.store(nanos, Ordering::Relaxed);
    }
}

impl Clock for MockClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_advances_only_when_told() {
        let clock = MockClock::new();
        assert_eq!(clock.now_nanos(), 0);
        clock.advance(5);
        clock.advance(7);
        assert_eq!(clock.now_nanos(), 12);
        clock.set(3);
        assert_eq!(clock.now_nanos(), 3);
    }

    #[test]
    fn monotonic_clock_is_nondecreasing() {
        let clock = MonotonicClock::new();
        let a = clock.now_nanos();
        let b = clock.now_nanos();
        assert!(b >= a);
    }
}
