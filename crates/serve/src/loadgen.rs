//! Load generation against a [`ServeServer`]: open-loop Poisson traffic
//! (arrivals independent of completions — the serving literature's
//! standard for measuring sojourn under load) or closed-loop worker
//! traffic (each worker waits for its response before the next submit).
//!
//! Besides driving load, the generator performs the runtime's end-to-end
//! verifications: it samples completed requests and checks their batched
//! outputs are bit-identical to direct batch-1 reference runs, and it
//! reads the per-epoch metrics windows to judge whether a drift
//! injection led to exactly one plan hot-swap that lowered measured
//! latency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use duet_device::SystemModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::insight::{Attribution, AttributionSummary};
use crate::metrics::MetricsSnapshot;
use crate::server::{ServeResponse, ServeServer};
use crate::ServeError;

/// A plausible degraded deployment: the GPU loses an order of magnitude
/// of compute (thermal throttling), most of its memory bandwidth
/// (co-tenant contention) and pays much more per kernel launch (driver
/// regression). Placements corrected against the healthy model become
/// badly stale under this.
pub fn degraded_gpu(base: &SystemModel) -> SystemModel {
    let mut sys = base.clone();
    sys.gpu.peak_gflops /= 12.0;
    sys.gpu.mem_bw_gbps /= 8.0;
    sys.gpu.kernel_launch_us *= 8.0;
    sys
}

/// Arrival times, µs from 0, of a seeded Poisson process: exponential
/// gaps by inverse transform. The open-loop load generator and the
/// virtual driver ([`crate::serve_virtual`]) both draw from it.
pub fn poisson_arrivals(qps: f64, seed: u64) -> impl Iterator<Item = f64> {
    assert!(qps > 0.0, "need a positive arrival rate");
    let (mut rng, mean_gap_us, mut at_us) = (SmallRng::seed_from_u64(seed), 1e6 / qps, 0.0);
    std::iter::repeat_with(move || {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        at_us += -mean_gap_us * u.ln();
        at_us
    })
}

/// Scenario description.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Mean offered rate, queries/second (open loop only).
    pub qps: f64,
    /// How long to generate load.
    pub duration: Duration,
    /// Seed for arrivals and request contents.
    pub seed: u64,
    /// Per-request SLA budget passed to the server.
    pub sla: Option<Duration>,
    /// `Some(n)` switches to closed-loop mode with `n` workers.
    pub closed_workers: Option<usize>,
    /// Inject this system model at half duration (drift scenario).
    pub drift: Option<SystemModel>,
    /// How many completed requests to verify bit-identical against
    /// reference runs.
    pub verify_samples: usize,
    /// How long to wait for in-flight responses after generation ends
    /// before declaring the server wedged.
    pub drain_timeout: Duration,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            qps: 100.0,
            duration: Duration::from_millis(2000),
            seed: 0x10ad,
            sla: None,
            closed_workers: None,
            drift: None,
            verify_samples: 8,
            drain_timeout: Duration::from_secs(30),
        }
    }
}

/// What a load run observed.
#[derive(Debug)]
pub struct LoadReport {
    /// Wall time of the whole run including drain.
    pub wall: Duration,
    /// Server-side metrics at the end of the run.
    pub snapshot: MetricsSnapshot,
    /// Submit attempts.
    pub offered: u64,
    /// Submits accepted by admission control.
    pub accepted: u64,
    /// Submits shed at admission ([`ServeError::QueueFull`]).
    pub shed_at_submit: u64,
    /// Responses that arrived as errors (expiry included).
    pub error_responses: u64,
    /// Responses that arrived successfully.
    pub ok_responses: u64,
    /// Requests whose responses never arrived within the drain timeout —
    /// nonzero means the server wedged (the binary treats it as a
    /// deadlock and fails).
    pub undrained: u64,
    /// Bit-identity verification: (checked, failures, largest batch
    /// size among checked responses).
    pub verified: (usize, usize, usize),
    /// Whether a drift system was injected.
    pub drift_injected: bool,
    /// P50 of per-request virtual service before injection (epoch 0,
    /// healthy system), in the drifted epoch (stale plans) and in the
    /// post-swap epoch, microseconds. Comparing the drifted epoch to the
    /// baseline tells whether the injection perturbed this model at all
    /// (a model placed entirely on the undegraded device won't move).
    pub baseline_epoch_p50_us: Option<f64>,
    pub drift_epoch_p50_us: Option<f64>,
    pub post_swap_epoch_p50_us: Option<f64>,
    /// Completed requests per second of generation time.
    pub throughput_qps: f64,
    /// Per-segment tail-latency attribution (mean/P50/P99) over every
    /// successful response — where the sojourn actually went.
    pub attribution: AttributionSummary,
    /// Responses whose attribution segments failed to sum to the
    /// measured sojourn within 5% — nonzero means the decomposition
    /// lost track of real time.
    pub attribution_mismatches: u64,
}

/// The generator itself.
#[derive(Debug, Default)]
pub struct LoadGen {
    pub cfg: LoadGenConfig,
}

impl LoadGen {
    pub fn new(cfg: LoadGenConfig) -> Self {
        LoadGen { cfg }
    }

    /// Run the scenario against `model` on `server`.
    pub fn run(&self, server: &ServeServer, model: &str) -> Result<LoadReport, ServeError> {
        let cache = server
            .cache(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let started = Instant::now();

        let offered = AtomicU64::new(0);
        let accepted = AtomicU64::new(0);
        let shed_at_submit = AtomicU64::new(0);
        let ok_responses = AtomicU64::new(0);
        let error_responses = AtomicU64::new(0);
        let undrained = AtomicU64::new(0);
        // (request seed, response) pairs kept for bit-identity checks.
        let samples: Mutex<Vec<(u64, ServeResponse)>> = Mutex::new(Vec::new());
        // Every successful response's sojourn decomposition.
        let attributions: Mutex<Vec<Attribution>> = Mutex::new(Vec::new());
        let attribution_mismatches = AtomicU64::new(0);
        let drift_injected = AtomicBool::new(false);

        let half = self.cfg.duration / 2;
        let inject_if_due = |elapsed: Duration| {
            if let Some(sys) = &self.cfg.drift {
                if elapsed >= half && !drift_injected.swap(true, Ordering::Relaxed) {
                    server.inject_system(model, sys.clone());
                }
            }
        };
        let handle_response =
            |seed: u64, result: Option<Result<ServeResponse, ServeError>>| match result {
                Some(Ok(resp)) => {
                    ok_responses.fetch_add(1, Ordering::Relaxed);
                    // The segments must re-add to the measured sojourn —
                    // an attribution that loses time is worthless.
                    let sojourn_us = resp.sojourn.as_secs_f64() * 1e6;
                    if (resp.attribution.total_us() - sojourn_us).abs() > sojourn_us.max(1.0) * 0.05
                    {
                        attribution_mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    attributions
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(resp.attribution);
                    let mut s = samples.lock().unwrap_or_else(PoisonError::into_inner);
                    if s.len() < self.cfg.verify_samples {
                        s.push((seed, resp));
                    }
                }
                Some(Err(_)) => {
                    error_responses.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    undrained.fetch_add(1, Ordering::Relaxed);
                }
            };

        // One counted submit attempt: the handle if it was admitted.
        let submit = |seed: u64| {
            offered.fetch_add(1, Ordering::Relaxed);
            let feeds = cache.spec().request_feeds(seed);
            match server.submit(model, feeds, self.cfg.sla) {
                Ok(handle) => {
                    accepted.fetch_add(1, Ordering::Relaxed);
                    Some(handle)
                }
                Err(ServeError::QueueFull) => {
                    shed_at_submit.fetch_add(1, Ordering::Relaxed);
                    None
                }
                Err(_) => {
                    error_responses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        };

        match self.cfg.closed_workers {
            None => {
                // Open loop: Poisson arrivals on this thread, responses
                // drained by a collector thread.
                let (tx, rx) = std::sync::mpsc::channel::<(u64, crate::server::ServeHandle)>();
                let drain_timeout = self.cfg.drain_timeout;
                std::thread::scope(|scope| {
                    let handle_response = &handle_response;
                    let collector = scope.spawn(move || {
                        for (seed, handle) in rx {
                            handle_response(seed, handle.wait_timeout(drain_timeout));
                        }
                    });
                    // The first request goes out at once.
                    let poisson = poisson_arrivals(self.cfg.qps.max(1e-9), self.cfg.seed);
                    let arrivals = std::iter::once(0.0).chain(poisson);
                    for (i, at_us) in (0u64..).zip(arrivals) {
                        if started.elapsed() >= self.cfg.duration {
                            break;
                        }
                        inject_if_due(started.elapsed());
                        let due = started + Duration::from_secs_f64(at_us / 1e6);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let seed = self.cfg.seed.wrapping_add(i);
                        // A closed channel means the collector is gone:
                        // nobody will drain this request.
                        if let Some(handle) = submit(seed) {
                            if tx.send((seed, handle)).is_err() {
                                undrained.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    drop(tx);
                    if let Err(panic) = collector.join() {
                        std::panic::resume_unwind(panic);
                    }
                });
            }
            Some(workers) => {
                // Closed loop: each worker keeps exactly one request in
                // flight; drift injection runs on this thread's clock.
                std::thread::scope(|scope| {
                    for w in 0..workers.max(1) {
                        let (submit, handle_response) = (&submit, &handle_response);
                        scope.spawn(move || {
                            let mut i: u64 = 0;
                            while started.elapsed() < self.cfg.duration {
                                let seed =
                                    self.cfg.seed.wrapping_add((w as u64) << 32).wrapping_add(i);
                                i += 1;
                                if let Some(handle) = submit(seed) {
                                    let response = handle.wait_timeout(self.cfg.drain_timeout);
                                    handle_response(seed, response);
                                }
                            }
                        });
                    }
                    while started.elapsed() < self.cfg.duration {
                        inject_if_due(started.elapsed());
                        std::thread::sleep(Duration::from_millis(5));
                    }
                });
            }
        }

        // Bit-identity verification against direct reference runs. The
        // system model never affects numeric outputs, so this holds
        // across drift epochs too.
        let samples = samples.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut failures = 0;
        let mut max_checked_batch = 0;
        for (seed, resp) in &samples {
            max_checked_batch = max_checked_batch.max(resp.batch_size);
            let feeds = cache.spec().request_feeds(*seed);
            let want = server.reference_run(model, &feeds)?;
            if resp.outputs != want {
                failures += 1;
            }
        }

        let metrics = server
            .metrics(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let snapshot = metrics.snapshot();
        let drift = drift_injected.load(Ordering::Relaxed);
        let epoch_p50 = |e| {
            metrics
                .epoch_service_stats(e)
                .filter(|_| drift)
                .map(|s| s.p50())
        };
        let completed = snapshot.completed;
        let attribution = AttributionSummary::from_samples(
            &attributions
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        );
        Ok(LoadReport {
            wall: started.elapsed(),
            snapshot,
            offered: offered.load(Ordering::Relaxed),
            accepted: accepted.load(Ordering::Relaxed),
            shed_at_submit: shed_at_submit.load(Ordering::Relaxed),
            error_responses: error_responses.load(Ordering::Relaxed),
            ok_responses: ok_responses.load(Ordering::Relaxed),
            undrained: undrained.load(Ordering::Relaxed),
            verified: (samples.len(), failures, max_checked_batch),
            drift_injected: drift,
            baseline_epoch_p50_us: epoch_p50(0),
            drift_epoch_p50_us: epoch_p50(1),
            post_swap_epoch_p50_us: epoch_p50(2),
            throughput_qps: completed as f64 / self.cfg.duration.as_secs_f64().max(1e-9),
            attribution,
            attribution_mismatches: attribution_mismatches.load(Ordering::Relaxed),
        })
    }
}
