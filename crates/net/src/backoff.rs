//! Capped exponential backoff with deterministic jitter, and the dial
//! retry loop built on it.
//!
//! The jitter RNG is a `ChaCha8Rng` seeded from
//! [`bci_blackboard::runner::derive_trial_seed`]`(master_seed, player)`,
//! so reconnect schedules are reproducible per `(run, player)` — the same
//! discipline the fabric applies to session randomness. Delay `i` is
//! uniform in `[exp/2, exp]` where `exp = min(base · 2^i, cap)`
//! ("equal jitter": spreads out thundering herds without ever halving the
//! wait below half the nominal delay).

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bci_blackboard::runner::derive_trial_seed;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::NetConfig;

/// Deterministic capped-exponential backoff schedule.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: ChaCha8Rng,
}

impl Backoff {
    /// A schedule jittered by `derive_trial_seed(master_seed, player)`.
    pub fn new(config: &NetConfig, master_seed: u64, player: u64) -> Self {
        Backoff {
            base: config.backoff_base,
            cap: config.backoff_cap,
            attempt: 0,
            rng: ChaCha8Rng::seed_from_u64(derive_trial_seed(master_seed, player)),
        }
    }

    /// The delay to sleep before the next retry; advances the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let exp_us = (self.base.as_micros() as u64)
            .saturating_mul(1u64 << self.attempt.min(20))
            .min(self.cap.as_micros() as u64);
        self.attempt = self.attempt.saturating_add(1);
        if exp_us == 0 {
            return Duration::ZERO;
        }
        let jittered = self.rng.random_range(exp_us / 2..=exp_us);
        Duration::from_micros(jittered)
    }

    /// How many delays have been handed out so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// Runs `dial` up to `attempts` times, sleeping a backoff delay between
/// failures via `sleep`. Returns the first success together with the
/// number of *retries* (0 when the first attempt lands), or the last
/// error. `sleep` is injected so tests can observe the schedule without
/// real clocks or sockets.
pub fn retry_with_backoff<T, E>(
    mut dial: impl FnMut() -> Result<T, E>,
    attempts: u32,
    backoff: &mut Backoff,
    mut sleep: impl FnMut(Duration),
) -> Result<(T, u32), E> {
    assert!(attempts > 0, "at least one attempt");
    let mut last_err = None;
    for retry in 0..attempts {
        match dial() {
            Ok(value) => return Ok((value, retry)),
            Err(e) => {
                last_err = Some(e);
                if retry + 1 < attempts {
                    sleep(backoff.next_delay());
                }
            }
        }
    }
    Err(last_err.expect("attempts > 0 implies at least one error"))
}

/// Dials `addr` with up to `config.connect_attempts` tries and the
/// player's deterministic backoff schedule. Returns the stream and the
/// retry count (for the `net.reconnects` counter).
pub fn connect_with_backoff(
    addr: SocketAddr,
    config: &NetConfig,
    master_seed: u64,
    player: u64,
) -> io::Result<(TcpStream, u32)> {
    let mut backoff = Backoff::new(config, master_seed, player);
    retry_with_backoff(
        || TcpStream::connect(addr),
        config.connect_attempts,
        &mut backoff,
        std::thread::sleep,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_capped_exponential_with_equal_jitter() {
        let config = NetConfig::default();
        let mut backoff = Backoff::new(&config, 9, 1);
        let mut exp = config.backoff_base;
        for _ in 0..12 {
            let d = backoff.next_delay();
            assert!(d <= exp, "delay {d:?} above nominal {exp:?}");
            assert!(d >= exp / 2, "delay {d:?} below half of nominal {exp:?}");
            exp = (exp * 2).min(config.backoff_cap);
        }
        // Past the doubling horizon every delay sits in [cap/2, cap].
        let d = backoff.next_delay();
        assert!(d <= config.backoff_cap && d >= config.backoff_cap / 2);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_player() {
        let config = NetConfig::default();
        let mut a = Backoff::new(&config, 123, 4);
        let mut b = Backoff::new(&config, 123, 4);
        let mut c = Backoff::new(&config, 123, 5);
        let delays_a: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let delays_b: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        let delays_c: Vec<_> = (0..8).map(|_| c.next_delay()).collect();
        assert_eq!(delays_a, delays_b);
        assert_ne!(delays_a, delays_c, "players get distinct jitter streams");
    }

    #[test]
    fn retry_reports_retries_and_sleeps_between_failures() {
        let config = NetConfig::default();
        let mut backoff = Backoff::new(&config, 0, 0);
        let mut calls = 0u32;
        let mut slept = Vec::new();
        let (value, retries) = retry_with_backoff(
            || {
                calls += 1;
                if calls < 3 {
                    Err("refused")
                } else {
                    Ok("connected")
                }
            },
            5,
            &mut backoff,
            |d| slept.push(d),
        )
        .unwrap();
        assert_eq!(value, "connected");
        assert_eq!(retries, 2);
        assert_eq!(slept.len(), 2, "one sleep per failure");
    }

    #[test]
    fn retry_exhaustion_returns_last_error_without_final_sleep() {
        let config = NetConfig::default();
        let mut backoff = Backoff::new(&config, 0, 0);
        let mut slept = 0usize;
        let result: Result<((), u32), &str> =
            retry_with_backoff(|| Err("down"), 3, &mut backoff, |_| slept += 1);
        assert_eq!(result.unwrap_err(), "down");
        assert_eq!(slept, 2, "no sleep after the final failure");
    }

    #[test]
    fn dial_retries_until_the_coordinator_appears() {
        use std::net::TcpListener;

        // Reserve an address, release it, and only re-bind after a delay:
        // the first dials are refused and backoff carries the dialer
        // through.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);

        let config = NetConfig {
            connect_attempts: 40,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
            ..NetConfig::default()
        };
        let dialer = std::thread::spawn(move || connect_with_backoff(addr, &config, 1, 0));
        std::thread::sleep(Duration::from_millis(150));
        let listener = TcpListener::bind(addr).expect("re-bind reserved addr");
        let (stream, retries) = dialer.join().unwrap().expect("dial eventually succeeds");
        assert!(retries > 0, "first dial should have been refused");
        drop(stream);
        drop(listener);
    }
}
