//! Open-loop request generation and its accounting.
//!
//! Requests fall due on a fixed schedule whatever the system does.  A
//! connection carries one request at a time, so a slow reply delays the
//! requests due behind it; timing every request from when it was *due*
//! (not from when it could be sent) charges that wait to the system, and
//! the gap between due and sent is the generator's lateness.

use std::time::{Duration, Instant};

use salsa_metrics::LatencySeries;

use crate::stats::{beyond, quantile, series};

/// Mean lateness may rise by at most this much from the first quarter of a
/// run to the last before the backlog counts as growing.
pub const LATENESS_GROWTH_LIMIT_MS: f64 = 1.0;

/// One request's life on the generator's clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule wanted the request sent.
    pub due: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When its reply (or failure) arrived.
    pub done: Instant,
    /// `false` for a failed, refused or timed-out request.
    pub ok: bool,
}

/// A fixed-rate schedule: request `i` falls due at `start + offset + i·interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Schedule origin.
    pub start: Instant,
    /// Gap between consecutive requests.
    pub interval: Duration,
    /// Shift of this schedule against `start` (interleaves connections).
    pub offset: Duration,
}

impl Schedule {
    /// `count` requests at `rate` per second, split evenly over `lanes`
    /// connections; this is lane `lane`'s share.
    pub fn lane(start: Instant, rate: f64, lanes: usize, lane: usize) -> Self {
        let interval = Duration::from_secs_f64(lanes as f64 / rate);
        Self {
            start,
            interval,
            offset: interval.mul_f64(lane as f64 / lanes as f64),
        }
    }

    /// When request `i` falls due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.offset + self.interval.mul_f64(i as f64)
    }
}

/// Sleeps until `at` (returns at once when `at` has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Issues `count` requests on `schedule`, one at a time: `op(i)` sends
/// request `i`, waits for its reply and says whether it succeeded.
pub fn drive(schedule: Schedule, count: usize, mut op: impl FnMut(usize) -> bool) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        let due = schedule.due(i);
        sleep_until(due);
        let sent = Instant::now();
        let ok = op(i);
        samples.push(Sample {
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    samples
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a set of samples says about the system and the generator.
#[derive(Debug, Clone)]
pub struct Account {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed, were refused or timed out.
    pub failed: u64,
    /// Due-to-done latency in ms; a failed request counts as infinitely
    /// late, so it misses any latency limit.
    pub latency: LatencySeries,
    /// Sent-to-done span in ms (the client's view of one round trip).
    pub rtt: LatencySeries,
    /// Due-to-sent lateness of the generator in ms.
    pub lateness: LatencySeries,
    /// Mean lateness of the last quarter of the samples minus that of the
    /// first quarter, in ms: positive growth means the backlog grew.
    pub lateness_growth_ms: f64,
}

impl Account {
    /// Accounts for `samples` (any order).
    pub fn of(samples: &[Sample]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by_key(|s| s.due);
        let latency: Vec<f64> = sorted
            .iter()
            .map(|s| {
                if s.ok {
                    ms(s.done - s.due)
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let rtt: Vec<f64> = sorted.iter().map(|s| ms(s.done - s.sent)).collect();
        let lateness: Vec<f64> = sorted.iter().map(|s| ms(s.sent - s.due)).collect();
        let quarter = (lateness.len() / 4).max(1);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let growth = if lateness.is_empty() {
            0.0
        } else {
            mean(&lateness[lateness.len() - quarter..]) - mean(&lateness[..quarter])
        };
        Self {
            attempted: samples.len() as u64,
            failed: samples.iter().filter(|s| !s.ok).count() as u64,
            latency: series(&latency),
            rtt: series(&rtt),
            lateness: series(&lateness),
            lateness_growth_ms: growth,
        }
    }

    /// Failed requests over attempted ones.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether the samples meet a p99 latency limit with a p99 that rests
    /// on at least ten samples beyond it, and without a growing backlog.
    pub fn meets(&self, slo_p99_ms: f64) -> bool {
        beyond(&self.latency, 0.99) >= 10
            && quantile(&self.latency, 0.99) <= slo_p99_ms
            && self.lateness_growth_ms <= LATENESS_GROWTH_LIMIT_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_reply_counts_against_requests_due_behind_it() {
        let schedule = Schedule::lane(Instant::now(), 1000.0, 1, 0);
        // Request 10 stalls for 30 ms; the ~30 requests due meanwhile can
        // only be sent once it returns.
        let samples = drive(schedule, 200, |i| {
            if i == 10 {
                std::thread::sleep(Duration::from_millis(30));
            }
            true
        });
        let behind = &samples[11..30];
        for s in behind {
            assert!(s.sent > s.due + Duration::from_millis(1), "sent late");
            assert!(s.done - s.due > s.done - s.sent, "timed from due");
        }
        let account = Account::of(&samples);
        assert_eq!((account.attempted, account.failed), (200, 0));
        // More than 1% of the requests waited behind the stall, so the p99
        // latency and lateness both show it although every reply was fast.
        assert!(
            quantile(&account.latency, 0.99) > 10.0,
            "{:?}",
            account.latency
        );
        assert!(
            quantile(&account.lateness, 0.99) > 10.0,
            "{:?}",
            account.lateness
        );
        assert!(quantile(&account.rtt, 0.5) < 1.0, "{:?}", account.rtt);
    }

    #[test]
    fn failed_requests_miss_any_latency_limit() {
        let schedule = Schedule::lane(Instant::now(), 20_000.0, 1, 0);
        let samples = drive(schedule, 1000, |i| i % 50 != 0);
        let account = Account::of(&samples);
        assert_eq!(account.failed, 20);
        assert!((account.fail_share() - 0.02).abs() < 1e-12);
        assert_eq!(quantile(&account.latency, 0.99), f64::INFINITY);
        assert!(!account.meets(1e9));
    }

    #[test]
    fn growing_backlog_fails_the_limit() {
        // Each request takes twice its interval: lateness grows linearly.
        let schedule = Schedule::lane(Instant::now(), 2000.0, 1, 0);
        let samples = drive(schedule, 400, |_| {
            std::thread::sleep(Duration::from_micros(1000));
            true
        });
        let account = Account::of(&samples);
        assert!(account.lateness_growth_ms > LATENESS_GROWTH_LIMIT_MS);
        assert!(!account.meets(1e9));
    }

    #[test]
    fn lanes_interleave() {
        let start = Instant::now();
        let a = Schedule::lane(start, 1000.0, 2, 0);
        let b = Schedule::lane(start, 1000.0, 2, 1);
        assert_eq!(b.due(0) - a.due(0), Duration::from_millis(1));
        assert_eq!(a.due(1) - a.due(0), Duration::from_millis(2));
    }
}
