//! The four workloads. Each is a set-up (timed, repeated for
//! `setup_s`), an untimed preparation of seeded inputs and oracle
//! outputs, and a window loop that runs for a given time with or
//! without spans.
//!
//! End-to-end paths call only the facade the README lists (`Duet::*`,
//! `ServeServer::*`, `duet_tune::*`, `Graph::eval`, `duet_models::*`) so
//! they keep compiling across the internal refactors ROADMAP item 3
//! plans; anything deeper belongs in `crate::layers`.

pub mod infer_heavy;
pub mod plan_offline;
pub mod serve_open;
pub mod serve_sat;

use std::time::Duration;

use duet_serve::{ModelSpec, ServeConfig, ServeError, ServeHandle, ServeServer};

use crate::oracle::{self, Labeled};
use crate::trace::{Open, Tracer};

/// What is fixed about a workload.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Arrivals follow a schedule regardless of completions.
    pub open_loop: bool,
    /// `latency_tail_ms` percentile: the highest with ≥ 10 samples
    /// beyond it in a full window.
    pub tail_pct: f64,
    /// Latency limit of `slo_ok_share`, frozen at about twice the tail
    /// measured when the benchmark was calibrated (see README).
    pub slo_ms: f64,
}

pub const SPECS: [&WorkloadSpec; 4] = [
    &infer_heavy::SPEC,
    &serve_open::SPEC,
    &serve_sat::SPEC,
    &plan_offline::SPEC,
];

/// Outcome accounting of one window. Every attempted operation lands
/// in exactly one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub ok: u64,
    /// The call returned an error.
    pub errors: u64,
    /// Refused at admission (queue full).
    pub shed: u64,
    /// Dropped by the server after its deadline passed.
    pub expired: u64,
    /// Submitted but not answered before the drain timeout.
    pub undrained: u64,
    /// Answered, but the output differs from the oracle's.
    pub mismatched: u64,
}

impl Counts {
    pub fn failed(&self) -> u64 {
        self.errors + self.shed + self.expired + self.undrained + self.mismatched
    }
}

/// Latency and completion time of a window's correct completions.
/// Stored as `f32` (a ms value keeps seven digits; a completion time
/// within a minute keeps 4 µs): `serve_sat` answers over a million
/// requests per window, and these vectors are the benchmark's own share
/// of `peak_rss_mb`.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    latency_ms: Vec<f32>,
    done_s: Vec<f32>,
}

impl Samples {
    /// `done_s`: completion time, seconds from window start.
    pub fn push(&mut self, done_s: f64, latency_ms: f64) {
        self.latency_ms.push(latency_ms as f32);
        self.done_s.push(done_s as f32);
    }

    pub fn len(&self) -> usize {
        self.latency_ms.len()
    }

    /// Latencies, ascending.
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.latency_ms.iter().map(|&ms| f64::from(ms)).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Completion times, seconds from window start, in the order recorded.
    pub fn done_s(&self) -> Vec<f64> {
        self.done_s.iter().map(|&at| f64::from(at)).collect()
    }

    /// (completion time s, latency ms) pairs.
    pub fn done_and_latency(&self) -> Vec<(f64, f64)> {
        self.done_s
            .iter()
            .zip(&self.latency_ms)
            .map(|(&at, &ms)| (f64::from(at), f64::from(ms)))
            .collect()
    }
}

/// What the serve workloads read off their responses.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Answered requests and Σ 1/batch_size over them (= batches run).
    pub responses: u64,
    pub batches: f64,
    pub cache_misses: u64,
    /// Per-request vectors, filled in traced windows only (they would
    /// inflate `peak_rss_mb` in the end-to-end ones).
    pub submit_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub linger_us: Vec<f64>,
    pub compute_us: Vec<f64>,
    pub overhead_us: Vec<f64>,
}

impl ServeStats {
    pub fn record(&mut self, response: &duet_serve::ServeResponse, keep_segments: bool) {
        self.responses += 1;
        self.batches += 1.0 / response.batch_size as f64;
        if keep_segments {
            let a = &response.attribution;
            self.queue_us.push(a.queue_us);
            self.linger_us.push(a.linger_us);
            self.compute_us
                .push(a.compute_cpu_us + a.compute_gpu_us + a.transfer_us);
            self.overhead_us.push(a.overhead_us);
        }
    }
}

/// How long a serve workload waits for one answer before counting it —
/// and every request behind it — as undrained.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What both serve workloads do with a submitted request's handle.
#[derive(Default)]
pub struct ServeTally {
    pub counts: Counts,
    pub samples: Samples,
    pub stats: ServeStats,
    pub virtual_sum: f64,
    wedged: bool,
}

impl ServeTally {
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// Wait for the answer, record its latency, then compare its
    /// outputs with the oracle's; ends the request's root span.
    /// `timing` turns the server-measured sojourn (s) into the
    /// operation's (completion time s, latency ms).
    pub fn settle(
        &mut self,
        tracer: &Tracer,
        root: Open,
        request: u64,
        handle: ServeHandle,
        expected: &Labeled,
        timing: impl FnOnce(f64) -> (f64, f64),
    ) {
        if self.wedged {
            self.counts.undrained += 1;
            tracer.end(root);
            return;
        }
        let wait = tracer.begin("serve.wait", root, request);
        let answer = handle.wait_timeout(DRAIN_TIMEOUT);
        tracer.end(wait);
        match answer {
            None => {
                self.counts.undrained += 1;
                self.wedged = true;
            }
            Some(Err(ServeError::Expired)) => self.counts.expired += 1,
            Some(Err(_)) => self.counts.errors += 1,
            Some(Ok(response)) => {
                let (done_s, latency_ms) = timing(response.sojourn.as_secs_f64());
                let verify = tracer.begin("bench.verify", root, request);
                self.stats.record(&response, tracer.is_on());
                if oracle::matches(&response.outputs, expected) {
                    self.counts.ok += 1;
                    self.virtual_sum += response.virtual_service_us;
                    self.samples.push(done_s, latency_ms);
                } else {
                    self.counts.mismatched += 1;
                }
                tracer.end(verify);
            }
        }
        tracer.end(root);
    }

    /// Account for a refused `submit`.
    pub fn refused(&mut self, error: &ServeError) {
        match error {
            ServeError::QueueFull => self.counts.shed += 1,
            _ => self.counts.errors += 1,
        }
    }

    pub fn into_window(self, seconds: f64, gen_late_ms: Vec<f64>) -> Window {
        Window {
            seconds,
            samples: self.samples,
            counts: self.counts,
            virtual_us: self.virtual_sum / self.counts.ok.max(1) as f64,
            gen_late_ms,
            serve: Some(self.stats),
        }
    }
}

/// Build every engine variant the batcher can ask for. `register`
/// prewarms batch 1 and the largest; the ones between are otherwise
/// built on first need, which put a build stall — and, on `serve_open`,
/// ≈ 50 MB of weights — into whichever window first coalesced that
/// many requests, or into none.
pub fn build_all_variants(server: &ServeServer, model: &str) {
    let cache = server.cache(model).expect("model is registered");
    let mut batch = 2;
    while batch < ServeConfig::default().max_batch {
        cache.get_or_build(batch);
        batch *= 2;
    }
}

/// Engine variants `model`'s plan cache has had to build so far.
pub fn cache_misses(server: &ServeServer, model: &str) -> u64 {
    server
        .cache(model)
        .expect("model is registered")
        .counters()
        .1
}

/// Everything one window measured.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Window start to the last completion.
    pub seconds: f64,
    pub samples: Samples,
    pub counts: Counts,
    /// Mean modeled-hardware latency of what ran, per operation.
    pub virtual_us: f64,
    /// Open loop only: how late each request was submitted.
    pub gen_late_ms: Vec<f64>,
    pub serve: Option<ServeStats>,
}

pub trait Workload: Sized {
    const SPEC: &'static WorkloadSpec;
    /// Run the whole process — window, set-ups and, in a traced run,
    /// the layer probes — on one CPU (see `crate::pin`).
    const ONE_CPU: bool = false;

    /// Everything between process start and the first answered
    /// operation: model construction, `build`/`register`, one call.
    /// Independent of the seed.
    fn set_up() -> Self;

    /// Seeded inputs and their oracle outputs. Not part of `setup_s`.
    fn prepare(&mut self, seed: u64);

    /// Run the loop for `seconds`. Callable repeatedly (warm-up, then
    /// the measured window); input rotation continues across calls.
    fn window(&mut self, seconds: f64, tracer: &Tracer) -> Window;

    /// The model `layers::serve` should probe, for the serve workloads.
    fn serve_model() -> Option<fn() -> ModelSpec> {
        None
    }
}

/// Seed of feed set `i` of a run seeded with `seed`.
pub fn feed_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x1_0000).wrapping_add(i as u64)
}
