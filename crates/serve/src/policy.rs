//! The batcher's decisions as one pure, clock-free step.
//!
//! [`Batcher`] holds the requests a serving worker has pulled but not yet
//! run, as `(enqueued_us, deadline_us)` pairs, and answers what to do next
//! given the time. It never reads a clock, touches a channel, sleeps or
//! draws a random number: its driver does all of that. Two drivers call
//! it — the wall server's worker (`server.rs`, `Instant`s converted to µs
//! against one origin per worker) and the virtual-clock driver
//! ([`crate::serve_virtual`], seeded arrivals and priced service) — so the
//! two clocks run one policy.
//!
//! The protocol, per batch: the driver holds the first request it
//! receives and asks [`Batcher::decide`]. The answer is one of
//!
//! 1. [`Action::Take`] — pull up to that many requests that are already
//!    queued, without waiting, and ask again. Under backlog the batch
//!    fills at once instead of waiting out a linger window that expired
//!    while the oldest request sat in the queue.
//! 2. [`Action::WaitUntil`] — wait for one more arrival until that time,
//!    hold it if one came, and ask again. The batch lingers only if the
//!    last two requests pulled arrived less than `ServeConfig::linger`
//!    apart (with no earlier arrival, as on a fresh server, it lingers):
//!    after a quiet spell a lone request would wait the whole window for
//!    company that is not coming. Lingering counts from the oldest
//!    request, so `linger` bounds what it adds to any request's latency.
//! 3. [`Action::Run`] — run the batch: drop the requests whose deadline
//!    has passed and execute the rest in power-of-two chunks, largest
//!    first, so every chunk maps to a cached engine variant (the plan
//!    cache holds at most `log2(max_batch)+1` of them).

use crate::server::ServeConfig;

/// Largest power of two `<= n` (n > 0).
pub(crate) fn largest_pow2(n: usize) -> usize {
    1 << n.ilog2()
}

/// The chunk sizes a run of `live` requests executes as: repeatedly the
/// largest power of two that fits, i.e. the set bits of `live`, largest
/// first.
pub fn chunks(live: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS)
        .rev()
        .map(|b| 1 << b)
        .filter(move |k| live & k != 0)
}

/// What the driver does next.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Hold up to this many requests that are already queued, without
    /// waiting; then decide again.
    Take(usize),
    /// Wait for an arrival until this time (µs). Hold it if one comes;
    /// either way, decide again.
    WaitUntil(f64),
    /// Run the held batch, and the batcher is empty again: answer the
    /// requests at the `expired` hold indices (ascending) with an expiry,
    /// and execute the `live` rest, in hold order, in [`chunks`] of
    /// `live`.
    Run { expired: Vec<usize>, live: usize },
}

/// The batching policy of one serving worker: see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Batcher {
    max_batch: usize,
    linger_us: f64,
    /// `(enqueued_us, deadline_us)` of every held request, in hold order.
    held: Vec<(f64, f64)>,
    /// When the last request of the previous batch was enqueued.
    last_arrival_us: Option<f64>,
    /// Whether this batch's backlog has been taken.
    taken: bool,
    /// Once taken, until when the batch waits for more arrivals.
    until_us: Option<f64>,
}

impl Batcher {
    pub fn new(cfg: &ServeConfig) -> Self {
        let (max_batch, linger_us) = (cfg.max_batch, cfg.linger.as_secs_f64() * 1e6);
        Batcher {
            max_batch,
            linger_us,
            ..Batcher::default()
        }
    }

    /// Hold one more pulled request; `deadline_us` is `f64::INFINITY`
    /// without an SLA. A driver holds at most `max_batch`: one to open a
    /// batch, then what `Take` and `WaitUntil` allow.
    pub fn hold(&mut self, enqueued_us: f64, deadline_us: f64) {
        debug_assert!(self.held.len() < self.max_batch, "held past max_batch");
        self.held.push((enqueued_us, deadline_us));
    }

    /// The next step at time `now_us`, with at least one request held.
    pub fn decide(&mut self, now_us: f64) -> Action {
        let n = self.held.len();
        if n < self.max_batch {
            if !std::mem::replace(&mut self.taken, true) {
                return Action::Take(self.max_batch - n);
            }
            // Linger only if the last two arrivals were less than `linger`
            // apart (or there is no earlier one); count from the oldest.
            let until = *self.until_us.get_or_insert_with(|| {
                let before = n
                    .checked_sub(2)
                    .map_or(self.last_arrival_us, |i| Some(self.held[i].0));
                let lingers = before.is_none_or(|t| self.held[n - 1].0 - t < self.linger_us);
                self.held[0].0 + if lingers { self.linger_us } else { 0.0 }
            });
            if now_us < until {
                return Action::WaitUntil(until);
            }
        }
        self.run(now_us)
    }

    /// Run what is held at `now_us`.
    fn run(&mut self, now_us: f64) -> Action {
        let n = self.held.len();
        let expired: Vec<usize> = (0..n).filter(|&i| self.held[i].1 <= now_us).collect();
        let live = n - expired.len();
        self.last_arrival_us = self.held.last().map(|&(enqueued_us, _)| enqueued_us);
        self.held.clear();
        (self.taken, self.until_us) = (false, None);
        Action::Run { expired, live }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    const NONE: f64 = f64::INFINITY;

    fn cfg() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            linger: Duration::from_micros(2000),
            ..ServeConfig::default()
        }
    }

    /// A run's expired indices and chunk sizes.
    fn ran(action: Action) -> (Vec<usize>, Vec<usize>) {
        match action {
            Action::Run { expired, live } => (expired, chunks(live).collect()),
            other => panic!("expected a run, got {other:?}"),
        }
    }

    #[test]
    fn chunks_are_powers_of_two_largest_first() {
        for live in 0..=64 {
            let sizes: Vec<usize> = chunks(live).collect();
            assert_eq!(sizes.iter().sum::<usize>(), live);
            assert!(sizes.iter().all(|k| k.is_power_of_two()));
            assert!(sizes.windows(2).all(|w| w[0] > w[1]), "{sizes:?}");
        }
    }

    #[test]
    fn pow2_rounding() {
        assert_eq!(largest_pow2(1), 1);
        assert_eq!(largest_pow2(2), 2);
        assert_eq!(largest_pow2(3), 2);
        assert_eq!(largest_pow2(7), 4);
        assert_eq!(largest_pow2(8), 8);
        assert_eq!(largest_pow2(9), 8);
    }

    #[test]
    fn backlog_is_taken_then_runs_without_lingering() {
        let cfg = cfg();
        let mut b = Batcher::new(&cfg);
        b.hold(0.0, NONE);
        // Long past the oldest request's linger window.
        assert_eq!(b.decide(10_000.0), Action::Take(7));
        for t in [10.0, 20.0, 30.0, 40.0] {
            b.hold(t, NONE);
        }
        assert_eq!(ran(b.decide(10_000.0)), (vec![], vec![4, 1]));
        // A full batch runs at once: nothing to take, nothing to wait for.
        for t in 0..8 {
            b.hold(20_000.0 + t as f64, NONE);
        }
        assert_eq!(ran(b.decide(20_010.0)), (vec![], vec![8]));
    }

    #[test]
    fn a_lone_request_after_a_quiet_spell_runs_at_once_and_a_burst_still_coalesces() {
        let cfg = cfg();
        let mut b = Batcher::new(&cfg);
        // Fresh server: no earlier arrival, so the first request lingers.
        b.hold(0.0, NONE);
        assert_eq!(b.decide(0.0), Action::Take(7));
        assert_eq!(b.decide(0.0), Action::WaitUntil(2000.0));
        assert_eq!(ran(b.decide(2000.0)), (vec![], vec![1]));
        // 10 ms later: the gap to the last arrival is a whole linger.
        b.hold(10_000.0, NONE);
        assert_eq!(b.decide(10_001.0), Action::Take(7));
        assert_eq!(ran(b.decide(10_001.0)), (vec![], vec![1]));
        // A burst of two right after it lingers and runs as one batch.
        b.hold(20_000.0, NONE);
        assert_eq!(b.decide(20_011.0), Action::Take(7));
        b.hold(20_010.0, NONE);
        assert_eq!(b.decide(20_011.0), Action::WaitUntil(22_000.0));
        assert_eq!(ran(b.decide(22_000.0)), (vec![], vec![2]));
    }

    #[test]
    fn lingering_counts_from_the_oldest_request() {
        let cfg = cfg();
        let mut b = Batcher::new(&cfg);
        b.hold(100.0, NONE);
        assert_eq!(b.decide(100.0), Action::Take(7));
        assert_eq!(b.decide(100.0), Action::WaitUntil(2100.0));
        // An arrival during the window does not extend it.
        b.hold(1500.0, NONE);
        assert_eq!(b.decide(1500.0), Action::WaitUntil(2100.0));
        assert_eq!(ran(b.decide(2100.0)), (vec![], vec![2]));
    }

    #[test]
    fn seven_requests_run_as_four_two_one() {
        let cfg = cfg();
        let mut b = Batcher::new(&cfg);
        for t in 0..7 {
            b.hold(t as f64, NONE);
        }
        assert_eq!(ran(b.run(10_000.0)), (vec![], vec![4, 2, 1]));
    }

    #[test]
    fn a_request_expires_at_its_deadline() {
        let cfg = cfg();
        let mut b = Batcher::new(&cfg);
        b.hold(0.0, 100.0);
        b.hold(1.0, 200.0);
        b.hold(2.0, 100.0);
        b.hold(3.0, NONE);
        assert_eq!(ran(b.run(100.0)), (vec![0, 2], vec![2]));
        // Everything expired: nothing to run.
        b.hold(0.0, 50.0);
        assert_eq!(ran(b.run(50.0)), (vec![0], vec![]));
    }
}
