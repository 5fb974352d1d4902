//! The serving policy on a virtual clock.
//!
//! [`serve_virtual`] drives the same [`Batcher`] the wall server's worker
//! drives, with seeded arrivals instead of callers and a priced service
//! time instead of a run: deterministic, and a 10 000-request overload
//! takes milliseconds. Admission is the wall server's: an arrival that
//! finds `queue_cap` requests waiting unpulled is shed, which is what a
//! full `sync_channel(queue_cap)` does to a submit.
//!
//! With `max_batch = 1`, no linger and `queue_cap = usize::MAX` it is the
//! M/G/1 model of a dedicated batch-1 engine behind an unbounded FIFO
//! queue: each request finishes at `max(arrival, server free) + service`.
//! `results/ext-serving.json` is that model fed seeded Poisson arrivals
//! ([`crate::poisson_arrivals`]) and a noisy `Timeline` replay per request.

use std::collections::VecDeque;

use duet_runtime::LatencyStats;

use crate::policy::{chunks, Action, Batcher};
use crate::server::ServeConfig;

/// What a virtual serving run observed. Every arrival is exactly one of
/// completed (`sojourn.count()`), `expired` or `shed`.
#[derive(Debug, Clone)]
pub struct VirtualReport {
    /// Completed requests' sojourn times (queueing, lingering and
    /// service), microseconds.
    pub sojourn: LatencyStats,
    /// Service time of every executed batch, microseconds.
    pub service: LatencyStats,
    /// Fraction of the run the server was busy.
    pub utilization: f64,
    /// Completed requests per second.
    pub throughput_qps: f64,
    /// Mean size of an executed batch.
    pub mean_batch: f64,
    /// Requests pulled after their deadline had passed.
    pub expired: usize,
    /// Arrivals refused at a full queue.
    pub shed: usize,
}

/// Serve `arrivals` — `(arrival_us, deadline_us)` in arrival order, the
/// deadline `f64::INFINITY` for no SLA — under `cfg`'s batching policy.
/// `service_us(k)` prices one batch of `k` requests and is called once per
/// executed batch, in execution order.
pub fn serve_virtual(
    arrivals: impl IntoIterator<Item = (f64, f64)>,
    mut service_us: impl FnMut(usize) -> f64,
    cfg: &ServeConfig,
) -> VirtualReport {
    let mut arrivals = arrivals.into_iter().peekable();
    // Admitted and not yet pulled.
    let mut queue = VecDeque::new();
    let mut batcher = Batcher::new(cfg);
    // Arrival times of the held requests, in hold order.
    let mut held = Vec::with_capacity(cfg.max_batch);
    let (mut now, mut busy, mut lapsed, mut shed) = (0.0f64, 0.0f64, 0, 0);
    let (mut sojourn, mut service) = (Vec::new(), Vec::new());
    loop {
        // Every arrival up to `now` finds the queue as the last pull left it.
        while let Some(arrival) = arrivals.next_if(|&(at, _)| at <= now) {
            if queue.len() < cfg.queue_cap {
                queue.push_back(arrival);
            } else {
                shed += 1;
            }
        }
        let action = if held.is_empty() {
            // Idle, the worker blocks until a request arrives.
            Action::WaitUntil(f64::INFINITY)
        } else {
            batcher.decide(now)
        };
        match action {
            Action::WaitUntil(until) if queue.is_empty() => match arrivals.peek() {
                Some(&(at, _)) => now = at.min(until),
                None if held.is_empty() => break,
                None => now = until,
            },
            // A wait for a request that is already queued ends at once.
            Action::WaitUntil(_) | Action::Take(_) => {
                let room = match action {
                    Action::Take(room) => room,
                    _ => 1,
                };
                for (at, deadline) in queue.drain(..room.min(queue.len())) {
                    batcher.hold(at, deadline);
                    held.push(at);
                }
            }
            Action::Run { expired, live } => {
                for (n, i) in expired.iter().enumerate() {
                    held.remove(i - n);
                }
                lapsed += expired.len();
                for k in chunks(live) {
                    let exec = service_us(k);
                    let finish = now + exec;
                    sojourn.extend(held.drain(..k).map(|at| finish - at));
                    service.push(exec);
                    busy += exec;
                    now = finish;
                }
            }
        }
    }
    // The last request was resolved at `now`.
    let (completed, batches) = (sojourn.len() as f64, service.len() as f64);
    VirtualReport {
        sojourn: LatencyStats::from_samples(sojourn),
        service: LatencyStats::from_samples(service),
        utilization: (busy / now).min(1.0),
        throughput_qps: completed / (now / 1e6),
        mean_batch: completed / batches,
        expired: lapsed,
        shed,
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use duet_core::Duet;
    use duet_models::{mlp, MlpConfig};
    use duet_runtime::{simulate, SimNoise};

    use super::*;
    use crate::poisson_arrivals;

    /// The M/G/1 configuration: batch 1, no linger, an unbounded queue.
    fn mg1() -> ServeConfig {
        ServeConfig {
            max_batch: 1,
            linger: Duration::ZERO,
            queue_cap: usize::MAX,
            ..ServeConfig::default()
        }
    }

    /// `requests` Poisson arrivals at `qps` on the MLP engine, one noisy
    /// replay per request.
    fn serve_mlp(qps: f64, requests: usize, seed: u64) -> (VirtualReport, f64) {
        let duet = Duet::builder().build(&mlp(&MlpConfig::default())).unwrap();
        let mut noise = SimNoise::seeded(seed ^ 0x5eef);
        let arrivals = poisson_arrivals(qps, seed).take(requests);
        let report = serve_virtual(
            arrivals.map(|at| (at, f64::INFINITY)),
            |_| simulate(duet.graph(), duet.placed(), duet.system(), &mut noise).latency_us,
            &mg1(),
        );
        (report, duet.latency_us())
    }

    #[test]
    fn light_load_sojourn_is_service_time() {
        // Arrivals far apart: no queueing.
        let (r, _) = serve_mlp(1.0, 300, 1);
        assert!((r.sojourn.p50() - r.service.p50()).abs() / r.service.p50() < 0.01);
        assert!(r.utilization < 0.01);
        assert_eq!((r.sojourn.count(), r.mean_batch), (300, 1.0));
    }

    #[test]
    fn heavy_load_queues_and_saturates() {
        let (_, service) = serve_mlp(1.0, 1, 2);
        // Offer 3x the service capacity.
        let capacity = 1e6 / service;
        let (r, _) = serve_mlp(3.0 * capacity, 500, 2);
        assert!(r.utilization > 0.95, "{}", r.utilization);
        // Sojourn far exceeds service under overload.
        assert!(r.sojourn.p50() > 5.0 * r.service.p50());
        // Throughput capped near capacity, not at the offered rate.
        assert!(r.throughput_qps < 1.1 * capacity);
        // An unbounded queue sheds nothing.
        assert_eq!((r.sojourn.count(), r.shed, r.expired), (500, 0, 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = serve_mlp(200.0, 200, 7);
        let (b, _) = serve_mlp(200.0, 200, 7);
        assert_eq!(a.sojourn.p99().to_bits(), b.sojourn.p99().to_bits());
        assert_eq!(a.throughput_qps.to_bits(), b.throughput_qps.to_bits());
    }

    #[test]
    #[should_panic(expected = "positive arrival rate")]
    fn zero_rate_rejected() {
        serve_mlp(0.0, 10, 0);
    }
}
