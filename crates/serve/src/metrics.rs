//! Serving metrics: counters, gauges and latency windows.
//!
//! Two latency domains coexist and must not be mixed:
//!
//! * **wall-clock** — what the host actually took (sojourn = queueing +
//!   batching linger + numeric execution). This is what a production SLA
//!   would bound, so sojourn percentiles are reported from wall time.
//! * **virtual** — latency on the *modeled* hardware (Xeon + Titan V),
//!   from the executor's virtual clock. The feedback loop compares
//!   virtual-measured against virtual-predicted, and the drift study
//!   compares per-epoch virtual service, because only the virtual domain
//!   is affected by an injected system-model change.
//!
//! Service samples are normalized per request (`batch latency / batch
//! size`) so epochs with different batch-size mixes stay comparable.
//!
//! **Bounded memory.** Every window here is fixed-size: batch sizes go
//! into a log2-bucket [`Histogram`] (power-of-two batch sizes occupy
//! distinct buckets, so the histogram is exact), and latency percentiles
//! come from bounded [`Reservoir`]s (uniform samples, deterministic
//! stream). A serving process under sustained load holds a constant
//! metrics footprint — the previous unbounded `Vec`-per-sample design
//! grew without limit.
//!
//! Every update is also mirrored into the process-global
//! [`duet_telemetry::registry`] families (`duet_serve_*`), which is what
//! `--metrics-addr` / `--metrics-out` expose; the per-model instance
//! remains the source for [`MetricsSnapshot`] reports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use duet_runtime::LatencyStats;
use duet_telemetry::registry as tm;
use duet_telemetry::{Histogram, Reservoir};
use parking_lot::Mutex;

/// Bounded sample count for the wall-sojourn and virtual-service windows.
const RESERVOIR_CAP: usize = 4096;
/// Bounded sample count per epoch window.
const EPOCH_RESERVOIR_CAP: usize = 1024;
/// Epoch windows tracked per model. Epochs advance only on drift
/// injection and plan hot-swap, so this is generous; samples from epochs
/// beyond the cap still feed the aggregate windows but get no dedicated
/// per-epoch summary.
const MAX_EPOCHS: usize = 32;

/// Epoch indices: 0 until the system model changes, bumped on every
/// injected change and on every plan hot-swap. The drift experiment
/// reads epoch 1 as "drifted, stale plan" and epoch 2 as "post-swap".
#[derive(Debug)]
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_expired: AtomicU64,
    exec_errors: AtomicU64,
    batches_executed: AtomicU64,
    plan_swaps: AtomicU64,
    plan_swaps_rejected: AtomicU64,
    queue_depth: AtomicUsize,
    epoch: AtomicUsize,
    batch_size: Histogram,
    sojourn_us: Reservoir,
    virtual_service_us: Reservoir,
    epoch_service_us: Mutex<Vec<Reservoir>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_expired: AtomicU64::new(0),
            exec_errors: AtomicU64::new(0),
            batches_executed: AtomicU64::new(0),
            plan_swaps: AtomicU64::new(0),
            plan_swaps_rejected: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            epoch: AtomicUsize::new(0),
            batch_size: Histogram::new("serve_batch_size", "per-model batch sizes"),
            sojourn_us: Reservoir::new(RESERVOIR_CAP),
            virtual_service_us: Reservoir::new(RESERVOIR_CAP),
            epoch_service_us: Mutex::new(Vec::new()),
        }
    }

    /// Current epoch index.
    pub fn epoch(&self) -> usize {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Enter the next epoch (system change or plan swap).
    pub fn bump_epoch(&self) -> usize {
        let e = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        tm::SERVE_EPOCH.set_max(e as i64);
        e
    }

    /// One request submitted (before admission).
    pub fn inc_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_SUBMITTED.inc();
    }

    /// One request admitted into the bounded queue. Must be balanced by
    /// [`Metrics::queue_dec`] when the worker pulls it off — the pairing
    /// is what makes `queue_depth` return to zero on a drained server.
    pub fn queue_inc(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_ADMITTED.inc();
        tm::SERVE_QUEUE_DEPTH.inc();
    }

    /// `n` requests pulled off the queue by the worker.
    pub fn queue_dec(&self, n: usize) {
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
        tm::SERVE_QUEUE_DEPTH.add(-(n as i64));
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// One request shed at admission (queue full). The submit-side inc
    /// is rolled back by the caller via [`Metrics::queue_dec`].
    pub fn shed_queue_full(&self) {
        self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_SHED_QUEUE_FULL.inc();
    }

    /// One request shed after queueing (SLA expired before execution).
    pub fn shed_expired(&self) {
        self.shed_expired.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_SHED_EXPIRED.inc();
    }

    /// One batch failed in execution.
    pub fn exec_error(&self) {
        self.exec_errors.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_EXEC_ERRORS.inc();
    }

    /// One drift-driven plan hot-swap.
    pub fn plan_swap(&self) {
        self.plan_swaps.fetch_add(1, Ordering::Relaxed);
        tm::SERVE_PLAN_SWAPS.inc();
    }

    /// `n` re-corrected plans refused by the D5xx model-check gate.
    pub fn plan_swap_rejected(&self, n: u64) {
        self.plan_swaps_rejected.fetch_add(n, Ordering::Relaxed);
        tm::SERVE_PLAN_SWAP_REJECTED.add(n);
    }

    /// Record one executed batch: its size, and each member request's
    /// wall sojourn plus per-request virtual service share, booked to
    /// `epoch` — the one the batch *ran* in, which a system injection
    /// during the run has already left.
    pub fn record_batch(
        &self,
        epoch: usize,
        batch: usize,
        sojourns_us: &[f64],
        virtual_batch_us: f64,
    ) {
        self.batches_executed.fetch_add(1, Ordering::Relaxed);
        self.completed
            .fetch_add(sojourns_us.len() as u64, Ordering::Relaxed);
        self.batch_size.observe(batch as u64);
        tm::SERVE_BATCHES.inc();
        tm::SERVE_COMPLETED.add(sojourns_us.len() as u64);
        tm::SERVE_BATCH_SIZE.observe(batch as u64);
        for &s in sojourns_us {
            self.sojourn_us.record(s);
            tm::SERVE_SOJOURN_US.observe_us(s);
        }
        let per_request = virtual_batch_us / batch as f64;
        {
            let mut windows = self.epoch_service_us.lock();
            while windows.len() <= epoch && windows.len() < MAX_EPOCHS {
                windows.push(Reservoir::new(EPOCH_RESERVOIR_CAP));
            }
            if let Some(window) = windows.get(epoch) {
                for _ in 0..sojourns_us.len() {
                    window.record(per_request);
                }
            }
        }
        for _ in 0..sojourns_us.len() {
            self.virtual_service_us.record(per_request);
            tm::SERVE_VIRTUAL_SERVICE_US.observe_us(per_request);
        }
    }

    /// Latency summary of per-request virtual service in one epoch.
    pub fn epoch_service_stats(&self, epoch: usize) -> Option<LatencyStats> {
        let windows = self.epoch_service_us.lock();
        let samples = windows.get(epoch).map(Reservoir::snapshot)?;
        (!samples.is_empty()).then(|| LatencyStats::from_samples(samples))
    }

    /// Point-in-time summary of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let sojourn_samples = self.sojourn_us.snapshot();
        let service_samples = self.virtual_service_us.snapshot();
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_expired: self.shed_expired.load(Ordering::Relaxed),
            exec_errors: self.exec_errors.load(Ordering::Relaxed),
            batches_executed: self.batches_executed.load(Ordering::Relaxed),
            plan_swaps: self.plan_swaps.load(Ordering::Relaxed),
            plan_swaps_rejected: self.plan_swaps_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            epoch: self.epoch(),
            batch_histogram: self
                .batch_size
                .pow2_values()
                .into_iter()
                .map(|(v, n)| (v as usize, n))
                .collect(),
            sojourn: (!sojourn_samples.is_empty())
                .then(|| LatencyStats::from_samples(sojourn_samples)),
            virtual_service: (!service_samples.is_empty())
                .then(|| LatencyStats::from_samples(service_samples)),
        }
    }
}

/// Owned summary of a [`Metrics`] instance.
#[derive(Debug)]
pub struct MetricsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub shed_queue_full: u64,
    pub shed_expired: u64,
    pub exec_errors: u64,
    pub batches_executed: u64,
    pub plan_swaps: u64,
    /// Re-corrected plans refused by the D5xx model-check gate.
    pub plan_swaps_rejected: u64,
    pub queue_depth: usize,
    pub epoch: usize,
    /// (batch size, number of batches executed at that size). Exact:
    /// batch sizes are powers of two, which land in distinct log2
    /// buckets.
    pub batch_histogram: Vec<(usize, u64)>,
    /// Wall-clock sojourn (queueing + linger + execution), microseconds.
    /// Percentiles come from a bounded uniform reservoir.
    pub sojourn: Option<LatencyStats>,
    /// Per-request virtual service (modeled hardware), microseconds.
    pub virtual_service: Option<LatencyStats>,
}

impl MetricsSnapshot {
    /// Total requests shed (admission + expiry).
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_expired
    }

    /// Mean executed batch size.
    pub fn mean_batch(&self) -> f64 {
        let (sum, n) = self
            .batch_histogram
            .iter()
            .fold((0u64, 0u64), |(s, n), &(b, c)| (s + b as u64 * c, n + c));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_has_no_stats() {
        let m = Metrics::new();
        let s = m.snapshot();
        assert!(s.sojourn.is_none());
        assert!(s.virtual_service.is_none());
        assert_eq!(s.shed(), 0);
        assert_eq!(s.mean_batch(), 0.0);
    }

    #[test]
    fn batches_are_histogrammed_and_normalized_per_request() {
        let m = Metrics::new();
        m.record_batch(m.epoch(), 4, &[10.0, 11.0, 12.0, 13.0], 400.0);
        m.record_batch(m.epoch(), 2, &[20.0, 21.0], 300.0);
        m.record_batch(m.epoch(), 4, &[10.0, 11.0, 12.0, 13.0], 400.0);
        let s = m.snapshot();
        assert_eq!(s.batch_histogram, vec![(2, 1), (4, 2)]);
        assert_eq!(s.completed, 10);
        assert_eq!(s.batches_executed, 3);
        assert!((s.mean_batch() - 10.0 / 3.0).abs() < 1e-12);
        // Per-request service: 400/4 = 100 (x8 requests), 300/2 = 150 (x2).
        let svc = s.virtual_service.unwrap();
        assert_eq!(svc.min(), 100.0);
        assert_eq!(svc.max(), 150.0);
    }

    #[test]
    fn epoch_windows_partition_service_samples() {
        let m = Metrics::new();
        m.record_batch(m.epoch(), 1, &[5.0], 100.0);
        assert_eq!(m.bump_epoch(), 1);
        m.record_batch(m.epoch(), 1, &[5.0], 900.0);
        m.record_batch(m.epoch(), 1, &[5.0], 1100.0);
        assert_eq!(m.bump_epoch(), 2);
        m.record_batch(m.epoch(), 1, &[5.0], 200.0);
        // A batch that started before a bump is booked where it ran.
        m.record_batch(1, 1, &[5.0], 1300.0);
        assert_eq!(m.epoch_service_stats(0).unwrap().p50(), 100.0);
        assert_eq!(m.epoch_service_stats(1).unwrap().max(), 1300.0);
        assert_eq!(m.epoch_service_stats(2).unwrap().p50(), 200.0);
        assert!(m.epoch_service_stats(3).is_none());
    }

    #[test]
    fn latency_windows_stay_bounded_under_sustained_load() {
        let m = Metrics::new();
        for i in 0..20_000u64 {
            m.record_batch(m.epoch(), 4, &[i as f64; 4], 400.0);
        }
        let s = m.snapshot();
        assert_eq!(s.completed, 80_000);
        let sojourn = s.sojourn.unwrap();
        assert!(sojourn.count() <= RESERVOIR_CAP, "reservoir is bounded");
        assert_eq!(s.batch_histogram, vec![(4, 20_000)]);
        assert!(m.epoch_service_stats(0).is_some());
    }

    #[test]
    fn queue_depth_pairs_inc_and_dec() {
        let m = Metrics::new();
        for _ in 0..5 {
            m.queue_inc();
        }
        assert_eq!(m.queue_depth(), 5);
        m.queue_dec(3);
        m.queue_dec(2);
        assert_eq!(m.queue_depth(), 0);
    }
}
