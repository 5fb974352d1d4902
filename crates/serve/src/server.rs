//! The serving runtime: per-model dynamic batcher, SLA admission,
//! plan-cache-backed execution and the drift feedback loop.
//!
//! One worker thread per registered model owns that model's execution
//! (the paper's engine is a dedicated per-model deployment). The worker:
//!
//! 1. blocks on the bounded request queue (the queue bound *is* the
//!    admission control — a full queue sheds at submit time);
//! 2. on the first request, lingers up to `ServeConfig::linger` to
//!    coalesce more arrivals, up to `max_batch`;
//! 3. drops requests whose SLA deadline already expired;
//! 4. executes the batch on the engine variant for its size (rounded
//!    down to a power of two, so the plan cache holds at most
//!    `log2(max_batch)+1` variants), through the current system model;
//! 5. feeds measured-vs-predicted virtual latency to the drift monitor,
//!    and on sustained drift re-corrects every cached plan against the
//!    observed system and atomically publishes the result (hot swap).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use duet_device::SystemModel;
use duet_ir::{Graph, Op};
use duet_telemetry::registry as tm;
use duet_telemetry::{clock_us, Span, SpanKind, TraceContext};
use duet_tensor::Tensor;

use crate::batch::{merge_feeds, split_outputs};
use crate::cache::{ArcCell, PlanCache};
use crate::feedback::{DriftMonitor, FeedbackConfig};
use crate::flight::{
    AnomalyRule, DumpPayload, FlightRecorder, RequestTrace, SloConfig, SloMonitor,
};
use crate::insight::Attribution;
use crate::metrics::Metrics;
use crate::spec::ModelSpec;
use crate::ServeError;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch the coalescer will form.
    pub max_batch: usize,
    /// How long the batcher waits past the first pending request for
    /// more arrivals.
    pub linger: Duration,
    /// Bounded queue depth per model — admission control: submits
    /// beyond this shed immediately with [`ServeError::QueueFull`].
    pub queue_cap: usize,
    /// Drift detection tuning.
    pub feedback: FeedbackConfig,
    /// Per-request sojourn SLO; a burn (threshold breaches within the
    /// sliding window) fires the flight recorder. `None` disables SLO
    /// monitoring entirely.
    pub slo: Option<SloConfig>,
    /// Where an anomaly-triggered flight dump lands. `None` keeps the
    /// in-memory ring (still inspectable via [`ServeServer::flight`])
    /// but never writes a dump.
    pub flight_dir: Option<PathBuf>,
}

/// How many completed request traces a model's flight ring retains.
const FLIGHT_CAPACITY: usize = 64;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            linger: Duration::from_millis(2),
            queue_cap: 256,
            feedback: FeedbackConfig::default(),
            slo: None,
            flight_dir: None,
        }
    }
}

/// One completed inference.
#[derive(Debug)]
pub struct ServeResponse {
    /// Output tensors, keyed by output node label.
    pub outputs: HashMap<String, Tensor>,
    /// Size of the batch this request was coalesced into.
    pub batch_size: usize,
    /// This request's share of the batch's virtual (modeled-hardware)
    /// latency: batch latency / batch size, microseconds.
    pub virtual_service_us: f64,
    /// Wall-clock sojourn: submit to completion.
    pub sojourn: Duration,
    /// Metrics epoch the request completed in.
    pub epoch: usize,
    /// Causal trace id minted at admission — the key that joins this
    /// response to its span tree in `/metrics` exemplars and flight
    /// dumps.
    pub trace_id: u64,
    /// Where the sojourn went, segment by segment; sums to `sojourn`.
    pub attribution: Attribution,
}

/// Awaitable handle for a submitted request.
#[derive(Debug)]
pub struct ServeHandle {
    rx: Receiver<Result<ServeResponse, ServeError>>,
}

impl ServeHandle {
    /// Block until the response arrives.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError::Exec("response channel closed".into())))
    }

    /// Block with a timeout; `None` means the deadline passed first.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<ServeResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                Some(Err(ServeError::Exec("response channel closed".into())))
            }
        }
    }
}

struct Pending {
    feeds: HashMap<String, Tensor>,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// When the batcher pulled this request off the queue; stamped by
    /// the worker, `None` until then.
    pulled: Option<Instant>,
    /// Causal trace context minted at admission: the trace id and the
    /// root (request) span id.
    trace: TraceContext,
    tx: Sender<Result<ServeResponse, ServeError>>,
}

struct ModelHandle {
    tx: Sender<Pending>,
    metrics: Arc<Metrics>,
    system: Arc<ArcCell<SystemModel>>,
    cache: Arc<PlanCache>,
    flight: Arc<FlightRecorder>,
    worker: Option<JoinHandle<()>>,
}

/// The engine registry + per-model serving workers.
pub struct ServeServer {
    cfg: ServeConfig,
    models: HashMap<String, ModelHandle>,
}

impl ServeServer {
    pub fn new(cfg: ServeConfig) -> Self {
        ServeServer {
            cfg,
            models: HashMap::new(),
        }
    }

    /// Register a model and start its serving worker. Engines are built
    /// against `system` (and re-corrected if the feedback loop later
    /// observes the deployed system drifting away from it).
    pub fn register(&mut self, spec: ModelSpec, system: SystemModel) {
        let name = spec.name().to_string();
        let cache = Arc::new(PlanCache::new(spec, system.clone()));
        // Build the batch-1 and max-batch engines now, so the first
        // requests don't pay the offline-pipeline cost inline.
        cache.get_or_build(1);
        let top = largest_pow2(self.cfg.max_batch);
        if top > 1 {
            cache.get_or_build(top);
        }
        let metrics = Arc::new(Metrics::new());
        let system = Arc::new(ArcCell::new(system));
        let flight = Arc::new(FlightRecorder::new(
            FLIGHT_CAPACITY,
            self.cfg.flight_dir.clone(),
        ));
        let (tx, rx) = bounded::<Pending>(self.cfg.queue_cap);
        let worker = {
            let cache = cache.clone();
            let system = system.clone();
            let metrics = metrics.clone();
            let flight = flight.clone();
            let cfg = self.cfg.clone();
            std::thread::Builder::new()
                .name(format!("duet-serve:{name}"))
                .spawn(move || worker_loop(rx, cache, system, metrics, flight, cfg))
                .expect("spawn serving worker")
        };
        self.models.insert(
            name,
            ModelHandle {
                tx,
                metrics,
                system,
                cache,
                flight,
                worker: Some(worker),
            },
        );
    }

    /// Registered model names.
    pub fn models(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Submit one request. `sla` is the request's end-to-end budget: if
    /// it elapses before execution starts, the request is shed with
    /// [`ServeError::Expired`] instead of wasting a batch slot. Feeds that
    /// do not fit the model are refused here, before admission, so the
    /// error reaches this caller and not the requests batched with it.
    pub fn submit(
        &self,
        model: &str,
        feeds: HashMap<String, Tensor>,
        sla: Option<Duration>,
    ) -> Result<ServeHandle, ServeError> {
        let handle = self
            .models
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        handle.metrics.inc_submitted();
        check_feeds(handle.cache.spec().reference(), &feeds)?;
        let now = Instant::now();
        let trace = TraceContext::root();
        let (tx, rx) = bounded(1);
        let pending = Pending {
            feeds,
            deadline: sla.map(|d| now + d),
            enqueued: now,
            pulled: None,
            trace,
            tx,
        };
        // Inc *before* try_send so the worker (which decs per pulled
        // request) can never observe depth below zero; a failed send
        // rolls the inc back.
        handle.metrics.queue_inc();
        match handle.tx.try_send(pending) {
            Ok(()) => Ok(ServeHandle { rx }),
            Err(TrySendError::Full(_)) => {
                handle.metrics.queue_dec(1);
                handle.metrics.shed_queue_full();
                if handle.flight.armed() {
                    let system = (*handle.system.load()).clone();
                    handle.flight.trigger(AnomalyRule::Shed, || {
                        anomaly_payload(&handle.cache, &system, trace.trace_id)
                    });
                }
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => {
                handle.metrics.queue_dec(1);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// The model's metrics.
    pub fn metrics(&self, model: &str) -> Option<Arc<Metrics>> {
        self.models.get(model).map(|h| h.metrics.clone())
    }

    /// The model's plan cache.
    pub fn cache(&self, model: &str) -> Option<Arc<PlanCache>> {
        self.models.get(model).map(|h| h.cache.clone())
    }

    /// The model's flight recorder (trace ring + anomaly dump latch).
    pub fn flight(&self, model: &str) -> Option<Arc<FlightRecorder>> {
        self.models.get(model).map(|h| h.flight.clone())
    }

    /// Replace the model's *deployed* system model (drift injection for
    /// tests and the load generator — in production this is the slot a
    /// hardware telemetry feed would write). Bumps the metrics epoch so
    /// pre- and post-drift samples stay separable.
    pub fn inject_system(&self, model: &str, system: SystemModel) -> bool {
        match self.models.get(model) {
            Some(h) => {
                h.system.store(Arc::new(system));
                h.metrics.bump_epoch();
                true
            }
            None => false,
        }
    }

    /// Run `feeds` as a single batch-1 request directly on the cached
    /// engine, bypassing the queue — the reference the bit-identity
    /// verification compares batched responses against.
    pub fn reference_run(
        &self,
        model: &str,
        feeds: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Tensor>, ServeError> {
        let handle = self
            .models
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let variant = handle.cache.get_or_build(1);
        let merged = merge_feeds(variant.duet.graph(), &[feeds])?;
        let system = (*handle.system.load()).clone();
        let outcome = variant
            .duet
            .executor_with(system)
            .run(&merged)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        let mut split = split_outputs(variant.duet.graph(), &outcome.outputs, 1)?;
        Ok(split.pop().expect("one request, one output map"))
    }

    /// Execute one witnessed batch-1 request and run the `duet-analysis`
    /// D3xx runtime-conformance checker on the recorded event log.
    pub fn witness_check(
        &self,
        model: &str,
        seed: u64,
    ) -> Result<duet_analysis::Report, ServeError> {
        let handle = self
            .models
            .get(model)
            .ok_or_else(|| ServeError::UnknownModel(model.to_string()))?;
        let variant = handle.cache.get_or_build(1);
        let feeds = handle.cache.spec().request_feeds(seed);
        let merged = merge_feeds(variant.duet.graph(), &[&feeds])?;
        let system = (*handle.system.load()).clone();
        let (_, witness) = variant
            .duet
            .executor_with(system.clone())
            .run_witnessed(&merged)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        Ok(duet_analysis::check_witness(
            variant.duet.graph(),
            variant.duet.placed(),
            &system,
            &witness,
            &duet_analysis::WitnessCheckConfig::default(),
        ))
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        // Closing the request channels lets each worker drain what it
        // already pulled and exit; then join so no thread outlives the
        // registry.
        for (_, mut handle) in self.models.drain() {
            drop(handle.tx);
            if let Some(worker) = handle.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// A request must feed every input of the batch-1 `reference` graph with
/// a tensor of exactly that input's shape (so: batch extent 1).
fn check_feeds(reference: &Graph, feeds: &HashMap<String, Tensor>) -> Result<(), ServeError> {
    let inputs = reference.nodes().iter();
    for node in inputs.filter(|n| matches!(n.op, Op::Input)) {
        let label = || node.label.clone();
        let fed = feeds
            .get(&node.label)
            .ok_or_else(|| ServeError::MissingInput { label: label() })?;
        if fed.shape() != &node.shape {
            return Err(ServeError::BadShape {
                label: label(),
                msg: format!(
                    "request feed {:?} does not match model input {:?}",
                    fed.shape().dims(),
                    node.shape.dims()
                ),
            });
        }
    }
    Ok(())
}

/// Largest power of two `<= n` (n > 0).
fn largest_pow2(n: usize) -> usize {
    1 << n.ilog2()
}

fn worker_loop(
    rx: Receiver<Pending>,
    cache: Arc<PlanCache>,
    system: Arc<ArcCell<SystemModel>>,
    metrics: Arc<Metrics>,
    flight: Arc<FlightRecorder>,
    cfg: ServeConfig,
) {
    let mut monitor = DriftMonitor::new(cfg.feedback.clone());
    let mut slo = cfg.slo.clone().map(SloMonitor::new);
    loop {
        // Block for the first request; a closed channel is shutdown.
        let mut first = match rx.recv() {
            Ok(p) => p,
            Err(_) => return,
        };
        first.pulled = Some(Instant::now());
        let mut batch = vec![first];
        // Greedily drain whatever is already queued: under backlog the
        // batch should fill instantly instead of waiting out a linger
        // window that expired while the oldest request sat in the queue.
        while batch.len() < cfg.max_batch {
            match rx.try_recv() {
                Some(mut p) => {
                    p.pulled = Some(Instant::now());
                    batch.push(p);
                }
                None => break,
            }
        }
        // Linger relative to the oldest pending request so a request's
        // added latency is bounded by `linger` regardless of arrivals.
        let linger_deadline = batch[0].enqueued + cfg.linger;
        while batch.len() < cfg.max_batch {
            let now = Instant::now();
            let Some(remaining) = linger_deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            match rx.recv_timeout(remaining) {
                Ok(mut p) => {
                    p.pulled = Some(Instant::now());
                    batch.push(p);
                }
                Err(_) => break,
            }
        }
        // One dec per request pulled off the queue — the exact pair of
        // the submit-side inc, so depth drains back to zero (expired
        // requests included: they left the queue too).
        metrics.queue_dec(batch.len());

        // SLA expiry: shed requests whose budget elapsed while queued.
        let now = Instant::now();
        let (live, expired): (Vec<_>, Vec<_>) = batch
            .into_iter()
            .partition(|p| p.deadline.is_none_or(|d| d > now));
        for p in expired {
            metrics.shed_expired();
            if flight.armed() {
                let deployed = (*system.load()).clone();
                flight.trigger(AnomalyRule::Shed, || {
                    anomaly_payload(&cache, &deployed, p.trace.trace_id)
                });
            }
            let _ = p.tx.send(Err(ServeError::Expired));
        }

        // Execute in power-of-two chunks (largest first) so every chunk
        // maps to a cached engine variant.
        let mut rest = live;
        while !rest.is_empty() {
            let k = largest_pow2(rest.len().min(cfg.max_batch));
            let chunk: Vec<Pending> = rest.drain(..k).collect();
            execute_chunk(
                chunk,
                &cache,
                &system,
                &metrics,
                &flight,
                &mut monitor,
                &mut slo,
            );
        }
    }
}

/// Build the forensic context for a flight dump: the serving batch-1
/// plan, the deployed system model and one freshly witnessed batch-1
/// run. Only called when a dump is actually about to be written (the
/// dump-once latch means each server process pays this at most once).
fn anomaly_payload(cache: &PlanCache, system: &SystemModel, trigger_trace: u64) -> DumpPayload {
    let variant = cache.get_or_build(1);
    let witness_json = (|| {
        let feeds = cache.spec().request_feeds(0);
        let merged = merge_feeds(variant.duet.graph(), &[&feeds]).ok()?;
        let (_, witness) = variant
            .duet
            .executor_with(system.clone())
            .run_witnessed(&merged)
            .ok()?;
        serde_json::to_string_pretty(&witness).ok()
    })();
    DumpPayload {
        model: cache.spec().name().to_string(),
        plan_json: variant.plan.to_json(),
        plan_fingerprint: variant.plan.fingerprint,
        system_json: serde_json::to_string_pretty(system).expect("system model serializes"),
        witness_json,
        trigger_trace_id: trigger_trace,
    }
}

fn execute_chunk(
    chunk: Vec<Pending>,
    cache: &PlanCache,
    system: &ArcCell<SystemModel>,
    metrics: &Metrics,
    flight: &FlightRecorder,
    monitor: &mut DriftMonitor,
    slo: &mut Option<SloMonitor>,
) {
    let k = chunk.len();
    let variant = cache.get_or_build(k);
    // Epoch before system: `inject_system` stores the system and then
    // bumps the epoch, so a batch is never booked to the drifted epoch
    // having run on the healthy system.
    let epoch = metrics.epoch();
    let deployed = (*system.load()).clone();

    let fail_all = |chunk: Vec<Pending>, err: ServeError| {
        metrics.exec_error();
        for p in chunk {
            let _ = p.tx.send(Err(err.clone()));
        }
    };

    let t_exec = Instant::now();
    let req_feeds: Vec<&HashMap<String, Tensor>> = chunk.iter().map(|p| &p.feeds).collect();
    let feeds = match merge_feeds(variant.duet.graph(), &req_feeds) {
        Ok(f) => f,
        Err(e) => return fail_all(chunk, e),
    };
    // Causal context: the shared batch span is a child of the *oldest*
    // request's root, so at least one trace id runs admission → batch →
    // subgraph → kernel unbroken; every other member links to the batch
    // span through its exec span's arg0.
    let lead = chunk[0].trace;
    let batch_ctx = lead.child();
    // Execute through the *deployed* system model, not the one the plan
    // was built against — that gap is exactly what the drift monitor
    // measures.
    // The engine-owned arena pool makes this steady-state path recycle
    // its tape buffers across requests.
    let t_run_start = Instant::now();
    let outcome = match variant
        .duet
        .executor_with(deployed.clone())
        .with_trace(batch_ctx)
        .run(&feeds)
    {
        Ok(o) => o,
        Err(e) => return fail_all(chunk, ServeError::Exec(e.to_string())),
    };
    let run_wall_us = t_run_start.elapsed().as_secs_f64() * 1e6;
    let pieces = match split_outputs(variant.duet.graph(), &outcome.outputs, k) {
        Ok(p) => p,
        Err(e) => return fail_all(chunk, e),
    };

    let done = Instant::now();
    let sojourns_us: Vec<f64> = chunk
        .iter()
        .map(|p| done.duration_since(p.enqueued).as_secs_f64() * 1e6)
        .collect();
    metrics.record_batch(epoch, k, &sojourns_us, outcome.virtual_latency_us);

    // Anchor for converting `Instant`s into the telemetry wall clock:
    // one sample serves every span of this batch.
    let anchor = Instant::now();
    let anchor_us = clock_us();
    let us_of = |t: Instant| anchor_us - anchor.saturating_duration_since(t).as_secs_f64() * 1e6;
    let exec_wall_us = done.duration_since(t_exec).as_secs_f64() * 1e6;
    let batch_span = Span::linked(
        SpanKind::ServeBatch,
        k as u64,
        us_of(t_exec),
        exec_wall_us,
        outcome.virtual_latency_us,
        batch_ctx,
        lead.span_id,
    );
    batch_span.record();

    let plan_fingerprint = variant.plan.fingerprint;
    let model = cache.spec().name().to_string();
    for ((p, piece), sojourn_us) in chunk.into_iter().zip(pieces).zip(sojourns_us) {
        let pulled = p.pulled.unwrap_or(t_exec);
        let queue_us = pulled.saturating_duration_since(p.enqueued).as_secs_f64() * 1e6;
        let linger_us = t_exec.saturating_duration_since(pulled).as_secs_f64() * 1e6;
        // Per-member execution share is the sojourn remainder, so the
        // attribution sums to the measured sojourn *exactly*.
        let attribution = Attribution::attribute(
            queue_us,
            linger_us,
            sojourn_us - queue_us - linger_us,
            run_wall_us,
            &outcome.breakdown,
        );
        let tid = p.trace.trace_id;
        tm::SERVE_SEGMENT_QUEUE.observe_exemplar(attribution.queue_us as u64, tid);
        tm::SERVE_SEGMENT_LINGER.observe_exemplar(attribution.linger_us as u64, tid);
        tm::SERVE_SEGMENT_COMPUTE_CPU.observe_exemplar(attribution.compute_cpu_us as u64, tid);
        tm::SERVE_SEGMENT_COMPUTE_GPU.observe_exemplar(attribution.compute_gpu_us as u64, tid);
        tm::SERVE_SEGMENT_TRANSFER.observe_exemplar(attribution.transfer_us as u64, tid);
        tm::SERVE_SEGMENT_OVERHEAD.observe_exemplar(attribution.overhead_us as u64, tid);
        // Sojourn was already observed by `record_batch`; only attach
        // the trace linkage here.
        tm::SERVE_SOJOURN_US.exemplar_hint(sojourn_us as u64, tid);

        // The request's own span tree: root + one span per segment
        // phase, children of the root.
        let (enqueued_us, root) = (us_of(p.enqueued), p.trace.span_id);
        let phase = |seq, kind, detail, start_us, dur_us, arg0| Span {
            seq,
            ..Span::linked(kind, detail, start_us, dur_us, arg0, p.trace.child(), root)
        };
        let member_spans = [
            Span::linked(
                SpanKind::ServeRequest,
                k as u64,
                enqueued_us,
                sojourn_us,
                0.0,
                p.trace,
                0,
            ),
            phase(1, SpanKind::ServeQueue, 0, enqueued_us, queue_us, 0.0),
            phase(2, SpanKind::ServeLinger, 0, us_of(pulled), linger_us, 0.0),
            // arg0 links into the shared batch span (which lives in the
            // lead request's trace).
            phase(
                3,
                SpanKind::ServeExec,
                k as u64,
                us_of(t_exec),
                exec_wall_us,
                batch_ctx.span_id as f64,
            ),
        ];
        for s in &member_spans {
            s.record();
        }

        // Flight ring: the member's own tree plus the shared batch and
        // executor spans, so a dumped trace replays end to end.
        let mut spans = member_spans.to_vec();
        spans.push(batch_span);
        spans.extend(outcome.trace_spans.iter().copied());
        flight.record(Arc::new(RequestTrace {
            trace_id: tid,
            model: model.clone(),
            batch: k,
            epoch,
            plan_fingerprint,
            sojourn_us,
            attribution,
            spans,
        }));

        // SLO accounting, and the flight trigger on a burn.
        if let Some(m) = slo.as_mut() {
            let verdict = m.observe(sojourn_us);
            if verdict.breached {
                tm::SERVE_SLO_BREACHES.inc();
            }
            if verdict.burning && flight.armed() {
                flight.trigger(AnomalyRule::SloBurn, || {
                    anomaly_payload(cache, &deployed, tid)
                });
            }
        }

        let _ = p.tx.send(Ok(ServeResponse {
            outputs: piece,
            batch_size: k,
            virtual_service_us: outcome.virtual_latency_us / k as f64,
            sojourn: Duration::from_secs_f64(sojourn_us / 1e6),
            epoch,
            trace_id: tid,
            attribution,
        }));
    }

    // Feedback: measured vs predicted, both in the virtual domain. A
    // sustained gap means the deployed system no longer matches the one
    // the plans were corrected against → re-correct and hot-swap every
    // cached variant, once. After the responses are out: this batch ran
    // under the old plans and epoch, its `sojourn` was stamped at `done`,
    // and its callers must not wait out a replan that stamp leaves out.
    if monitor.observe(outcome.virtual_latency_us, variant.duet.latency_us()) {
        // Re-planning runs here, on the worker thread, in front of every
        // request still queued: its wall time is the stall a hot-swap costs.
        let replan_start = Instant::now();
        let (swapped, rejected) = cache.recorrect_all(&deployed);
        tm::SERVE_SWAP_STALL_US.observe_us(replan_start.elapsed().as_secs_f64() * 1e6);
        if rejected > 0 {
            metrics.plan_swap_rejected(rejected as u64);
            if flight.armed() {
                flight.trigger(AnomalyRule::SwapRefused, || {
                    anomaly_payload(cache, &deployed, 0)
                });
            }
        }
        if swapped > 0 {
            metrics.plan_swap();
            if flight.armed() {
                flight.trigger(AnomalyRule::DriftSwap, || {
                    anomaly_payload(cache, &deployed, 0)
                });
            }
        }
        metrics.bump_epoch();
        monitor.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_rounding() {
        assert_eq!(largest_pow2(1), 1);
        assert_eq!(largest_pow2(2), 2);
        assert_eq!(largest_pow2(3), 2);
        assert_eq!(largest_pow2(7), 4);
        assert_eq!(largest_pow2(8), 8);
        assert_eq!(largest_pow2(9), 8);
    }

    fn mlp_server(cfg: ServeConfig) -> ServeServer {
        let mut s = ServeServer::new(cfg);
        s.register(
            ModelSpec::serving_zoo("mlp").unwrap(),
            SystemModel::paper_server(),
        );
        s
    }

    #[test]
    fn single_request_round_trips() {
        let server = mlp_server(ServeConfig {
            linger: Duration::from_micros(100),
            ..ServeConfig::default()
        });
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let feeds = spec.request_feeds(7);
        let resp = server
            .submit("mlp", feeds.clone(), None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.batch_size, 1);
        assert!(resp.virtual_service_us > 0.0);
        // Bit-identical to the direct reference run.
        let want = server.reference_run("mlp", &feeds).unwrap();
        assert_eq!(resp.outputs, want);
        let m = server.metrics("mlp").unwrap().snapshot();
        assert_eq!((m.submitted, m.completed, m.shed()), (1, 1, 0));
    }

    #[test]
    fn unknown_model_is_rejected() {
        let server = mlp_server(ServeConfig::default());
        let err = server.submit("nope", HashMap::new(), None).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
    }

    #[test]
    fn zero_sla_requests_expire_instead_of_executing() {
        let server = mlp_server(ServeConfig {
            linger: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let spec = ModelSpec::serving_zoo("mlp").unwrap();
        let h = server
            .submit("mlp", spec.request_feeds(1), Some(Duration::ZERO))
            .unwrap();
        assert!(matches!(h.wait(), Err(ServeError::Expired)));
        let m = server.metrics("mlp").unwrap().snapshot();
        assert_eq!(m.shed_expired, 1);
        assert_eq!(m.completed, 0);
    }
}
