//! A health-tracked connection to one remote shard: per-request deadlines,
//! bounded retry with seeded exponential backoff, and a clock-pluggable
//! circuit breaker.
//!
//! [`RemoteShard`] wraps a [`Client`] with the three defences a router
//! needs before it may trust a shard over the wire:
//!
//! * **Deadlines** — every blocking read carries
//!   [`RemoteShardConfig::deadline`], so a stalled shard surfaces as a
//!   typed timeout, never a hang.
//! * **Bounded retry** — transport failures (timeout, disconnect, torn or
//!   corrupt frames) are retried on a *fresh* connection up to
//!   [`RetryPolicy::max_attempts`] times, sleeping an exponentially growing,
//!   seeded-jittered backoff between attempts. The sleep goes through a
//!   [`Sleeper`], so tests record the schedule instead of waiting it out.
//! * **Circuit breaker** — consecutive failures past a threshold open the
//!   breaker: calls fail fast (no dial, no deadline burned) until a cooldown
//!   on a pluggable [`rknnt_obs::Clock`] elapses, after which exactly one
//!   probe request is admitted (half-open). A probe answer closes the
//!   breaker; a probe failure re-opens it for another cooldown.
//!
//! Exhausting the budget yields a typed [`RemoteError::Unavailable`] — the
//! router's cue to degrade the answer, never to hang or guess.

use crate::client::{Client, ClientConfig, ClientError};
use rknnt_fault::splitmix64;
use rknnt_obs::Clock;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How retry pauses happen. Production sleeps the thread; tests record the
/// requested schedule and return immediately, so backoff logic is verified
/// without wall-clock time.
pub trait Sleeper: Send + Sync {
    /// Pauses the caller for `duration` (or pretends to).
    fn sleep(&self, duration: Duration);
}

/// The production [`Sleeper`]: actually sleeps the thread.
#[derive(Debug, Default)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A [`Sleeper`] that records every requested pause and never sleeps.
#[derive(Debug, Default)]
pub struct RecordingSleeper {
    slept: Mutex<Vec<Duration>>,
}

impl RecordingSleeper {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every pause requested so far, in order.
    pub fn slept(&self) -> Vec<Duration> {
        self.slept.lock().expect("sleeper poisoned").clone()
    }
}

impl Sleeper for RecordingSleeper {
    fn sleep(&self, duration: Duration) {
        self.slept.lock().expect("sleeper poisoned").push(duration);
    }
}

/// Bounded-retry schedule: exponential backoff with seeded jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, the first included (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `retry` (0-based): `base × 2^retry`
    /// capped at `max`, then jittered into `[half, full]` by the seeded
    /// stream — deterministic per seed, desynchronised across shards.
    pub fn backoff(&self, retry: u32, rng: &mut u64) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        let exp = if retry >= 32 {
            u64::MAX
        } else {
            base.saturating_mul(1u64 << retry)
        };
        let capped = exp.min(self.max_backoff.as_nanos() as u64).max(1);
        let half = capped / 2;
        let jittered = half + splitmix64(rng) % (capped - half + 1);
        Duration::from_nanos(jittered)
    }
}

/// Public view of the breaker's state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe call is admitted.
    HalfOpen,
}

enum Breaker {
    Closed { failures: u32 },
    Open { since: u64 },
    HalfOpen,
}

/// A per-shard circuit breaker over a pluggable [`Clock`], so tests drive
/// the open→half-open transition with [`rknnt_obs::MockClock::advance`]
/// instead of sleeping.
pub struct CircuitBreaker {
    state: Breaker,
    failure_threshold: u32,
    open_for_nanos: u64,
    clock: Arc<dyn Clock>,
}

impl CircuitBreaker {
    /// A closed breaker tripping after `failure_threshold` consecutive
    /// failures and cooling down for `open_for` on `clock`.
    pub fn new(failure_threshold: u32, open_for: Duration, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            state: Breaker::Closed { failures: 0 },
            failure_threshold: failure_threshold.max(1),
            open_for_nanos: u64::try_from(open_for.as_nanos()).unwrap_or(u64::MAX),
            clock,
        }
    }

    /// The current state, after applying any due open→half-open transition.
    pub fn state(&mut self) -> BreakerState {
        if let Breaker::Open { since } = self.state {
            if self.clock.now_nanos().saturating_sub(since) >= self.open_for_nanos {
                self.state = Breaker::HalfOpen;
            }
        }
        match self.state {
            Breaker::Closed { .. } => BreakerState::Closed,
            Breaker::Open { .. } => BreakerState::Open,
            Breaker::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// Whether a call may proceed right now. Closed and half-open admit
    /// (half-open admits the probe); open fails fast.
    pub fn admits(&mut self) -> bool {
        self.state() != BreakerState::Open
    }

    /// Records a successful call: the breaker closes and the failure count
    /// resets (a half-open probe that answers heals the shard).
    pub fn on_success(&mut self) {
        self.state = Breaker::Closed { failures: 0 };
    }

    /// Records a failed call. In closed state, trips to open once the
    /// consecutive-failure threshold is reached; a failed half-open probe
    /// re-opens immediately for another full cooldown.
    pub fn on_failure(&mut self) {
        match &mut self.state {
            Breaker::Closed { failures } => {
                *failures += 1;
                if *failures >= self.failure_threshold {
                    self.state = Breaker::Open {
                        since: self.clock.now_nanos(),
                    };
                }
            }
            Breaker::HalfOpen => {
                self.state = Breaker::Open {
                    since: self.clock.now_nanos(),
                };
            }
            Breaker::Open { .. } => {}
        }
    }
}

/// A failed remote call, after the full defence budget.
#[derive(Debug)]
pub enum RemoteError {
    /// The shard is unreachable: the breaker failed the call fast
    /// (`attempts == 0`) or every attempt in the retry budget failed.
    /// The router's cue to degrade — a [`crate::FleetResult`] will name
    /// this shard as missing.
    Unavailable {
        /// Attempts actually made (0 when the breaker was open).
        attempts: u32,
        /// The last transport error, for diagnostics.
        last_error: String,
    },
    /// The shard answered with an application-level error: it is alive, and
    /// retrying would not change the answer.
    Server {
        /// The shard's description of the failure.
        message: String,
    },
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Unavailable {
                attempts,
                last_error,
            } => write!(
                f,
                "shard unavailable after {attempts} attempt(s): {last_error}"
            ),
            RemoteError::Server { message } => write!(f, "shard error: {message}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// Knobs for one [`RemoteShard`].
#[derive(Debug, Clone)]
pub struct RemoteShardConfig {
    /// Per-request read deadline on the underlying [`Client`].
    pub deadline: Duration,
    /// Retry schedule for transport failures.
    pub retry: RetryPolicy,
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Breaker cooldown before a half-open probe is admitted.
    pub open_for: Duration,
    /// Seed for backoff jitter (deterministic per seed).
    pub seed: u64,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            deadline: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            failure_threshold: 3,
            open_for: Duration::from_millis(50),
            seed: 0x5AFE_C0DE,
        }
    }
}

/// Counters for one shard's dispatch history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteShardStats {
    /// Calls attempted (breaker-denied calls excluded).
    pub dispatches: u64,
    /// Retry attempts beyond each call's first.
    pub retries: u64,
    /// Calls that exhausted the retry budget.
    pub failures: u64,
    /// Calls failed fast by an open breaker.
    pub breaker_denials: u64,
    /// Successful dials. When this moves, the previous connection — and
    /// every per-connection resource on it — is gone.
    pub dials: u64,
}

enum AttemptError {
    /// Transport-level: retry on a fresh connection.
    Retryable(String),
    /// The shard answered an error: alive, not retryable.
    Fatal(String),
}

/// The router's handle to one shard server over the wire.
pub struct RemoteShard {
    addr: SocketAddr,
    config: RemoteShardConfig,
    client: Option<Client>,
    breaker: CircuitBreaker,
    sleeper: Arc<dyn Sleeper>,
    rng: u64,
    stats: RemoteShardStats,
}

impl RemoteShard {
    /// A handle dialling `addr`, with the clock its breaker cools down on
    /// and the sleeper its backoff pauses on (the fleet passes its own;
    /// deterministic tests a mock clock and a recording sleeper).
    pub fn with_parts(
        addr: SocketAddr,
        config: RemoteShardConfig,
        clock: Arc<dyn Clock>,
        sleeper: Arc<dyn Sleeper>,
    ) -> Self {
        let breaker = CircuitBreaker::new(config.failure_threshold, config.open_for, clock);
        let rng = config.seed ^ 0xD15C_0DE5_u64.rotate_left(17);
        RemoteShard {
            addr,
            config,
            client: None,
            breaker,
            sleeper,
            rng,
            stats: RemoteShardStats::default(),
        }
    }

    /// Points the handle at a restarted shard (ephemeral ports move) and
    /// drops any cached connection to the old incarnation.
    pub fn set_addr(&mut self, addr: SocketAddr) {
        self.addr = addr;
        self.client = None;
        // A new address is a new incarnation: the old incarnation's failure
        // history (and an open breaker) must not block the first probe.
        self.breaker.on_success();
    }

    /// The breaker's current state.
    pub fn breaker_state(&mut self) -> BreakerState {
        self.breaker.state()
    }

    /// Dispatch counters so far.
    pub fn stats(&self) -> RemoteShardStats {
        self.stats
    }

    /// Drops the cached connection, forcing the next call to re-dial.
    pub fn disconnect(&mut self) {
        self.client = None;
    }

    fn attempt<T>(
        &mut self,
        op: &mut dyn FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, AttemptError> {
        if self.client.is_none() {
            let config = ClientConfig::default().with_read_timeout(self.config.deadline);
            match Client::connect_with(self.addr, config) {
                Ok(client) => {
                    self.client = Some(client);
                    self.stats.dials += 1;
                }
                Err(e) => return Err(AttemptError::Retryable(format!("connect: {e}"))),
            }
        }
        let client = self.client.as_mut().expect("just connected");
        match op(client) {
            Ok(v) => Ok(v),
            Err(ClientError::Server { message, .. }) => Err(AttemptError::Fatal(message)),
            Err(e) => {
                // Transport or protocol damage: this connection's framing
                // can no longer be trusted; retries dial fresh.
                self.client = None;
                Err(AttemptError::Retryable(e.to_string()))
            }
        }
    }

    /// Runs `op` against the shard under the full defence stack: breaker
    /// fast-fail, per-read deadline, bounded retry with seeded backoff on a
    /// fresh connection per attempt.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, RemoteError> {
        if !self.breaker.admits() {
            self.stats.breaker_denials += 1;
            return Err(RemoteError::Unavailable {
                attempts: 0,
                last_error: "circuit breaker open".into(),
            });
        }
        self.stats.dispatches += 1;
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..max_attempts {
            if attempt > 0 {
                self.stats.retries += 1;
                let pause = self.config.retry.backoff(attempt - 1, &mut self.rng);
                self.sleeper.sleep(pause);
            }
            match self.attempt(&mut op) {
                Ok(v) => {
                    self.breaker.on_success();
                    return Ok(v);
                }
                Err(AttemptError::Fatal(message)) => {
                    // The shard answered: it is alive. The breaker heals,
                    // the call still fails.
                    self.breaker.on_success();
                    return Err(RemoteError::Server { message });
                }
                Err(AttemptError::Retryable(e)) => {
                    self.breaker.on_failure();
                    last_error = e;
                    // A freshly opened breaker ends the budget early: the
                    // shard is gone, further attempts only burn deadlines.
                    if !self.breaker.admits() && attempt + 1 < max_attempts {
                        self.stats.failures += 1;
                        return Err(RemoteError::Unavailable {
                            attempts: attempt + 1,
                            last_error,
                        });
                    }
                }
            }
        }
        self.stats.failures += 1;
        Err(RemoteError::Unavailable {
            attempts: max_attempts,
            last_error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_obs::MockClock;

    #[test]
    fn backoff_grows_exponentially_within_bounds_and_is_seeded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(20),
        };
        let mut rng_a = 42u64;
        let mut rng_b = 42u64;
        let schedule_a: Vec<Duration> = (0..4).map(|r| policy.backoff(r, &mut rng_a)).collect();
        let schedule_b: Vec<Duration> = (0..4).map(|r| policy.backoff(r, &mut rng_b)).collect();
        assert_eq!(schedule_a, schedule_b, "same seed, same schedule");
        for (retry, pause) in schedule_a.iter().enumerate() {
            let full = Duration::from_millis((4u64 << retry).min(20));
            assert!(*pause <= full, "retry {retry}: {pause:?} > cap {full:?}");
            assert!(
                *pause >= full / 2,
                "retry {retry}: {pause:?} < half of {full:?}"
            );
        }
        let mut rng_c = 43u64;
        let schedule_c: Vec<Duration> = (0..4).map(|r| policy.backoff(r, &mut rng_c)).collect();
        assert_ne!(schedule_a, schedule_c, "different seeds desynchronise");
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let clock = Arc::new(MockClock::new());
        let mut breaker = CircuitBreaker::new(2, Duration::from_nanos(100), clock.clone());
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Closed, "below threshold");
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "threshold trips");
        assert!(!breaker.admits(), "open fails fast");
        clock.advance(99);
        assert!(!breaker.admits(), "cooldown not yet elapsed");
        clock.advance(1);
        assert_eq!(breaker.state(), BreakerState::HalfOpen, "cooldown elapsed");
        assert!(breaker.admits(), "half-open admits the probe");
        breaker.on_success();
        assert_eq!(breaker.state(), BreakerState::Closed, "probe answer heals");
    }

    #[test]
    fn failed_probe_reopens_for_a_full_cooldown() {
        let clock = Arc::new(MockClock::new());
        let mut breaker = CircuitBreaker::new(1, Duration::from_nanos(50), clock.clone());
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        clock.advance(50);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.on_failure();
        assert_eq!(breaker.state(), BreakerState::Open, "failed probe re-opens");
        clock.advance(49);
        assert!(!breaker.admits(), "full cooldown restarts from the probe");
        clock.advance(1);
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn closed_breaker_resets_failure_count_on_success() {
        let clock = Arc::new(MockClock::new());
        let mut breaker = CircuitBreaker::new(2, Duration::from_nanos(10), clock);
        breaker.on_failure();
        breaker.on_success();
        breaker.on_failure();
        assert_eq!(
            breaker.state(),
            BreakerState::Closed,
            "non-consecutive failures never trip"
        );
    }

    #[test]
    fn unreachable_shard_exhausts_retries_with_recorded_backoff() {
        // A bound-then-dropped listener yields a port nothing listens on.
        let addr = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap()
        };
        let sleeper = Arc::new(RecordingSleeper::new());
        let config = RemoteShardConfig {
            failure_threshold: 10, // keep the breaker out of this test
            ..RemoteShardConfig::default()
        };
        let mut shard = RemoteShard::with_parts(
            addr,
            config.clone(),
            Arc::new(MockClock::new()),
            sleeper.clone(),
        );
        let err = shard.call(|c| c.ping()).expect_err("nothing listens there");
        match err {
            RemoteError::Unavailable {
                attempts,
                last_error,
            } => {
                assert_eq!(attempts, config.retry.max_attempts);
                assert!(last_error.contains("connect"), "got: {last_error}");
            }
            other => panic!("wanted Unavailable, got {other:?}"),
        }
        let slept = sleeper.slept();
        assert_eq!(
            slept.len() as u32,
            config.retry.max_attempts - 1,
            "one backoff pause between consecutive attempts"
        );
        assert_eq!(shard.stats().failures, 1);
        assert_eq!(
            shard.stats().retries,
            u64::from(config.retry.max_attempts - 1)
        );
    }

    #[test]
    fn open_breaker_fails_fast_without_dialling() {
        let addr = {
            let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
            listener.local_addr().unwrap()
        };
        let clock = Arc::new(MockClock::new());
        let config = RemoteShardConfig {
            failure_threshold: 1,
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            open_for: Duration::from_nanos(1_000),
            ..RemoteShardConfig::default()
        };
        let mut shard = RemoteShard::with_parts(
            addr,
            config,
            clock.clone(),
            Arc::new(RecordingSleeper::new()),
        );
        assert!(shard.call(|c| c.ping()).is_err());
        assert_eq!(shard.breaker_state(), BreakerState::Open);
        let err = shard
            .call(|c| c.ping())
            .expect_err("breaker must fast-fail");
        match err {
            RemoteError::Unavailable { attempts, .. } => assert_eq!(attempts, 0),
            other => panic!("wanted a fast-fail, got {other:?}"),
        }
        assert_eq!(shard.stats().breaker_denials, 1);
        clock.advance(1_000);
        assert_eq!(shard.breaker_state(), BreakerState::HalfOpen, "probe due");
    }
}
