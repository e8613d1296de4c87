//! Open-loop arrival schedule.  Request `i` is due `i / rate` seconds after
//! the loop starts.  The generator sends it as soon as it gets there and
//! never drops a late one; each request is timed from its due time, so a
//! stall also charges the wait it imposes on every request behind it.

use std::time::{Duration, Instant};

/// Time since the loop started, and a way to wait for a later time.
pub trait Clock {
    /// Elapsed time since the loop started.
    fn now(&self) -> Duration;
    /// Return no earlier than `t` (immediately when `t` has passed).
    fn wait_until(&self, t: Duration);
}

/// The wall clock, read with `Instant`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose zero is now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn wait_until(&self, t: Duration) {
        // Inter-arrival gaps are microseconds, below what a sleep can hit;
        // yielding lets the serving threads use this core meanwhile.
        while self.now() < t {
            std::thread::yield_now();
        }
    }
}

/// When request `i` is due at `rate` requests per second.
pub fn due(i: u64, rate: f64) -> Duration {
    Duration::from_nanos((i as f64 * 1e9 / rate).round() as u64)
}

/// Microseconds from `due` to `at` (0 when `at` is not later).
pub fn since_us(due: Duration, at: Duration) -> f64 {
    at.saturating_sub(due).as_secs_f64() * 1e6
}

/// Send every request due before `window`, each at its due time or as soon
/// after as the generator gets there.  `send(i, due)` issues request `i`.
/// Returns how late each send was, in microseconds.
pub fn drive(
    clock: &impl Clock,
    rate: f64,
    window: Duration,
    mut send: impl FnMut(u64, Duration),
) -> Vec<f64> {
    let mut late = Vec::with_capacity((rate * window.as_secs_f64()) as usize + 1);
    for i in 0u64.. {
        let at = due(i, rate);
        if at >= window {
            break;
        }
        clock.wait_until(at);
        late.push(since_us(at, clock.now()));
        send(i, at);
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when waited on or advanced by hand.
    #[derive(Default)]
    struct ManualClock(Cell<Duration>);

    impl ManualClock {
        fn advance_us(&self, us: u64) {
            self.0.set(self.0.get() + Duration::from_micros(us));
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn wait_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    #[test]
    fn a_stall_makes_later_sends_late_and_counts_from_due_time() {
        let clock = ManualClock::default();
        let mut latency = Vec::new();
        // 10k req/s: due every 100 µs; requests take 10 µs, except that
        // request 1 stalls the generator for 250 µs.
        let late = drive(&clock, 10_000.0, Duration::from_micros(500), |i, at| {
            clock.advance_us(if i == 1 { 250 } else { 10 });
            latency.push(since_us(at, clock.now()));
        });
        // Due at 0, 100, 200, 300, 400 µs; request 2 goes out at 350 µs.
        assert_eq!(late, [0.0, 0.0, 150.0, 60.0, 0.0]);
        assert_eq!(latency, [10.0, 250.0, 160.0, 70.0, 10.0]);
    }

    #[test]
    fn no_request_is_dropped_however_late_the_generator_runs() {
        let clock = ManualClock::default();
        let mut sent = Vec::new();
        let late = drive(&clock, 1_000.0, Duration::from_millis(10), |i, _| {
            clock.advance_us(5_000); // every send takes five inter-arrival gaps
            sent.push(i);
        });
        assert_eq!(sent, (0..10).collect::<Vec<u64>>());
        assert_eq!(late[9], 36_000.0); // due at 9 ms, sent at 45 ms
    }

    #[test]
    fn due_times_are_exact_on_integer_nanosecond_grids() {
        assert_eq!(due(3, 40_000.0), Duration::from_nanos(75_000));
        assert_eq!(due(0, 1.0), Duration::ZERO);
    }
}
