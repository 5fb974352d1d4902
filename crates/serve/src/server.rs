//! The serving runtime: per-model dynamic batcher, SLA admission,
//! plan-cache-backed execution and the drift feedback loop.
//!
//! One worker thread per registered model owns that model's execution
//! (the paper's engine is a dedicated per-model deployment). The worker:
//!
//! 1. blocks on the bounded request queue (the queue bound *is* the
//!    admission control — a full queue sheds at submit time);
//! 2. forms a batch as the [`Batcher`] policy step decides — drain the
//!    backlog, linger or not, expire past-deadline requests, chunk to
//!    powers of two (see [`crate::policy`]). The worker only moves
//!    requests between the channel and the batch, converting `Instant`s
//!    to µs against one origin; the same step runs on a virtual clock in
//!    [`crate::serve_virtual`];
//! 3. executes each chunk on the engine variant for its size, through
//!    the current system model, opening a new metrics epoch whenever that
//!    system is not the one its last batch ran on;
//! 4. feeds measured-vs-predicted virtual latency to the drift monitor,
//!    and on sustained drift re-corrects every cached plan against the
//!    observed system and atomically publishes the result (hot swap).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use duet_device::SystemModel;
use duet_ir::{Graph, Op};
use duet_runtime::{ExecutionWitness, SpanLog, WitnessLog, WitnessSource};
use duet_telemetry::registry as tm;
use duet_telemetry::{clock_us, Span, SpanKind, TraceContext};
use duet_tensor::Tensor;

use crate::batch::{merge_feeds, split_outputs};
use crate::cache::{ArcCell, EngineVariant, PlanCache};
use crate::feedback::{DriftMonitor, FeedbackConfig};
use crate::flight::{
    AnomalyRule, DumpPayload, FlightRecorder, RequestTrace, SloConfig, SloMonitor,
};
use crate::insight::Attribution;
use crate::metrics::Metrics;
use crate::policy::{chunks, largest_pow2, Action, Batcher};
use crate::spec::ModelSpec;
use crate::ServeError;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch the coalescer will form.
    pub max_batch: usize,
    /// The longest the batcher waits past the oldest pending request for
    /// more arrivals. It waits at all only while arrivals come closer
    /// together than this: when the last two requests it pulled were
    /// `linger` or more apart, the batch it holds runs at once.
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
    /// The request's place in the model's queue depth until the worker
    /// pulls it. Whoever drops an unpulled request — a refused
    /// `try_send`, a dead worker's discarded queue — gives it back.
    /// Declared before `tx` so the count is down before the caller can
    /// see its channel close.
    queued: Option<Queued>,
    feeds: HashMap<String, Tensor>,
    deadline: Option<Instant>,
    enqueued: Instant,
    /// When the batcher pulled this request off the queue; stamped by
    /// the worker, `None` until then.
    pulled: Option<Instant>,
    /// Causal trace context minted at admission: the trace id and the
    /// root (request) span id.
    trace: TraceContext,
    tx: SyncSender<Result<ServeResponse, ServeError>>,
}

impl Pending {
    /// The worker took this request off the queue: stamp it and take it
    /// out of the queue depth.
    fn pull(mut self) -> Self {
        self.pulled = Some(Instant::now());
        self.queued = None;
        self
    }
}

/// One request counted in [`Metrics::queue_depth`]: counted when made,
/// uncounted when dropped.
struct Queued(Arc<Metrics>);

impl Queued {
    fn new(metrics: &Arc<Metrics>) -> Self {
        metrics.queue_inc();
        Queued(metrics.clone())
    }
}

impl Drop for Queued {
    fn drop(&mut self) {
        self.0.queue_dec();
    }
}

struct ModelHandle {
    tx: SyncSender<Pending>,
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
        // Build and lower the batch-1 and max-batch engines now, so the
        // first requests pay neither the offline pipeline nor lowering
        // inline.
        cache.get_or_build(1).duet.lower_tapes();
        let top = largest_pow2(self.cfg.max_batch);
        if top > 1 {
            cache.get_or_build(top).duet.lower_tapes();
        }
        let metrics = Arc::new(Metrics::new());
        let system = Arc::new(ArcCell::new(system));
        let flight = Arc::new(FlightRecorder::new(
            FLIGHT_CAPACITY,
            self.cfg.flight_dir.clone(),
        ));
        let (tx, rx) = sync_channel::<Pending>(self.cfg.queue_cap);
        let worker = {
            // Taken here, before any submit can be: every request's
            // timestamps come after the worker's origin and first system.
            let origin = Instant::now();
            let worker = Worker {
                cache: cache.clone(),
                system: system.clone(),
                metrics: metrics.clone(),
                flight: flight.clone(),
                monitor: DriftMonitor::new(self.cfg.feedback.clone()),
                slo: self.cfg.slo.clone().map(SloMonitor::new),
                ran_on: system.load(),
            };
            let cfg = self.cfg.clone();
            std::thread::Builder::new()
                .name(format!("duet-serve:{name}"))
                .spawn(move || worker.serve(rx, &cfg, origin))
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

    fn handle(&self, model: &str) -> Result<&ModelHandle, ServeError> {
        let handle = self.models.get(model);
        handle.ok_or_else(|| ServeError::UnknownModel(model.to_string()))
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
        let handle = self.handle(model)?;
        handle.metrics.inc_submitted();
        check_feeds(handle.cache.spec().reference(), &feeds)?;
        let now = Instant::now();
        let trace = TraceContext::root();
        let (tx, rx) = sync_channel(1);
        // Counted *before* try_send so the worker can never pull the
        // request, and uncount it, first; a refused send drops it, which
        // uncounts it.
        let pending = Pending {
            queued: Some(Queued::new(&handle.metrics)),
            feeds,
            deadline: sla.map(|d| now + d),
            enqueued: now,
            pulled: None,
            trace,
            tx,
        };
        match handle.tx.try_send(pending) {
            Ok(()) => Ok(ServeHandle { rx }),
            Err(TrySendError::Full(_)) => {
                handle.metrics.shed_queue_full();
                if handle.flight.armed() {
                    let system = (*handle.system.load()).clone();
                    handle.flight.trigger(AnomalyRule::Shed, || {
                        anomaly_payload(&handle.cache, &system, trace.trace_id)
                    });
                }
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
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
    /// hardware telemetry feed would write). The first batch that runs on
    /// it opens a new metrics epoch, so pre- and post-drift samples stay
    /// separable.
    pub fn inject_system(&self, model: &str, system: SystemModel) -> bool {
        self.models
            .get(model)
            .map(|h| h.system.store(Arc::new(system)))
            .is_some()
    }

    /// Run `feeds` as a single batch-1 request directly on the cached
    /// engine, bypassing the queue — the reference the bit-identity
    /// verification compares batched responses against.
    pub fn reference_run(
        &self,
        model: &str,
        feeds: &HashMap<String, Tensor>,
    ) -> Result<HashMap<String, Tensor>, ServeError> {
        let handle = self.handle(model)?;
        let variant = handle.cache.get_or_build(1);
        let merged = merge_feeds(variant.duet.graph(), &[feeds])?;
        let system = (*handle.system.load()).clone();
        let outcome = variant
            .duet
            .executor_with(system)
            .run(&merged)
            .map_err(|e| ServeError::Exec(e.to_string()))?;
        let mut split = split_outputs(variant.duet.graph(), &outcome.outputs, 1)?;
        split
            .pop()
            .ok_or_else(|| ServeError::Exec("batch split returned no output map".into()))
    }

    /// Execute one witnessed batch-1 request and run the `duet-analysis`
    /// D3xx runtime-conformance checker on the recorded event log.
    pub fn witness_check(
        &self,
        model: &str,
        seed: u64,
    ) -> Result<duet_analysis::Report, ServeError> {
        let handle = self.handle(model)?;
        let system = (*handle.system.load()).clone();
        let (variant, witness) = witnessed(&handle.cache, &system, seed)?;
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

/// Build the forensic context for a flight dump: the serving batch-1
/// plan, the deployed system model and one freshly witnessed batch-1
/// run. Only called when a dump is actually about to be written (the
/// dump-once latch means each server process pays this at most once).
fn anomaly_payload(cache: &PlanCache, system: &SystemModel, trigger_trace: u64) -> DumpPayload {
    let variant = cache.get_or_build(1);
    let witness = witnessed(cache, system, 0).ok();
    let witness_json = witness.and_then(|(_, w)| serde_json::to_string_pretty(&w).ok());
    DumpPayload {
        model: cache.spec().name().to_string(),
        plan_json: variant.plan.to_json(),
        plan_fingerprint: variant.plan.fingerprint,
        system_json: serde_json::to_string_pretty(system).expect("system model serializes"),
        witness_json,
        trigger_trace_id: trigger_trace,
    }
}

/// One witnessed batch-1 run of request `seed`'s feeds on `system`.
fn witnessed(
    cache: &PlanCache,
    system: &SystemModel,
    seed: u64,
) -> Result<(Arc<EngineVariant>, ExecutionWitness), ServeError> {
    let variant = cache.get_or_build(1);
    let merged = merge_feeds(variant.duet.graph(), &[&cache.spec().request_feeds(seed)])?;
    let executor = variant.duet.executor_with(system.clone());
    let log = WitnessLog::default();
    let run = executor.run_observed(&merged, &log);
    let outcome = run.map_err(|e| ServeError::Exec(e.to_string()))?;
    let model = &variant.duet.graph().name;
    let witness = log.seal(model, WitnessSource::Executor, outcome.virtual_latency_us);
    Ok((variant, witness))
}

/// What a model's serving worker owns besides its queue and its policy.
struct Worker {
    cache: Arc<PlanCache>,
    system: Arc<ArcCell<SystemModel>>,
    metrics: Arc<Metrics>,
    flight: Arc<FlightRecorder>,
    monitor: DriftMonitor,
    slo: Option<SloMonitor>,
    /// The deployed system the last batch ran on. The worker alone moves
    /// the epoch: a batch that loads any other system opens a new one, so
    /// every batch is booked to the epoch it ran in. Holding the `Arc`
    /// keeps its address from being reused by a later system.
    ran_on: Arc<SystemModel>,
}

impl Worker {
    /// The batcher's channel plumbing: block for a request, drain what is
    /// queued, wait with a timeout, all as [`Batcher`] decides, with every
    /// `Instant` in µs since `origin`.
    fn serve(mut self, rx: Receiver<Pending>, cfg: &ServeConfig, origin: Instant) {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let hold = |batcher: &mut Batcher, batch: &mut Vec<Pending>, p: Pending| {
            batcher.hold(us(p.enqueued), p.deadline.map_or(f64::INFINITY, us));
            batch.push(p.pull());
        };
        let mut batcher = Batcher::new(cfg);
        let mut batch = Vec::with_capacity(cfg.max_batch);
        loop {
            // Block for the first request; a closed channel is shutdown.
            if batch.is_empty() {
                let Ok(p) = rx.recv() else { return };
                hold(&mut batcher, &mut batch, p);
            }
            let now = us(Instant::now());
            match batcher.decide(now) {
                Action::Take(room) => {
                    for p in rx.try_iter().take(room) {
                        hold(&mut batcher, &mut batch, p);
                    }
                }
                Action::WaitUntil(until) => {
                    let wait = Duration::from_secs_f64((until - now) / 1e6);
                    match rx.recv_timeout(wait) {
                        Ok(p) => hold(&mut batcher, &mut batch, p),
                        Err(RecvTimeoutError::Timeout) => {}
                        // Nothing more can arrive: the wait ends as if none did.
                        Err(RecvTimeoutError::Disconnected) => std::thread::sleep(wait),
                    }
                }
                // Answer the expired requests; execute the live ones in chunks.
                Action::Run { expired, live } => {
                    for (n, i) in expired.iter().enumerate() {
                        let p = batch.remove(i - n);
                        self.metrics.shed_expired();
                        if self.flight.armed() {
                            let deployed = (*self.system.load()).clone();
                            self.flight.trigger(AnomalyRule::Shed, || {
                                anomaly_payload(&self.cache, &deployed, p.trace.trace_id)
                            });
                        }
                        let _ = p.tx.send(Err(ServeError::Expired));
                    }
                    for k in chunks(live) {
                        self.execute_chunk(batch.drain(..k).collect());
                    }
                }
            }
        }
    }

    fn execute_chunk(&mut self, chunk: Vec<Pending>) {
        let k = chunk.len();
        let variant = self.cache.get_or_build(k);
        // A system this worker has not run on yet opens a new epoch.
        let deployed = self.system.load();
        if !Arc::ptr_eq(&deployed, &self.ran_on) {
            self.metrics.bump_epoch();
            self.ran_on = deployed.clone();
        }
        let epoch = self.metrics.epoch();
        let deployed = (*deployed).clone();

        let t_exec = Instant::now();
        // Causal context: the shared batch span is a child of the *oldest*
        // request's root, so at least one trace id runs admission → batch →
        // subgraph → kernel unbroken; every other member links to the batch
        // span through its exec span's arg0.
        let lead = chunk[0].trace;
        let batch_ctx = lead.child();
        let mut run_wall_us = 0.0;
        let ran = (|| {
            let req_feeds: Vec<_> = chunk.iter().map(|p| &p.feeds).collect();
            let feeds = merge_feeds(variant.duet.graph(), &req_feeds)?;
            // Execute through the *deployed* system model, not the one the
            // plan was built against — that gap is exactly what the drift
            // monitor measures. The engine-owned arena pool makes this
            // steady-state path recycle its tape buffers across requests.
            let t_run_start = Instant::now();
            let executor = variant.duet.executor_with(deployed.clone());
            let spans = SpanLog::new(batch_ctx);
            let run = executor.run_observed(&feeds, &spans);
            let outcome = run.map_err(|e| ServeError::Exec(e.to_string()))?;
            let run_spans = spans.seal(outcome.virtual_latency_us);
            run_wall_us = t_run_start.elapsed().as_secs_f64() * 1e6;
            let pieces = split_outputs(variant.duet.graph(), &outcome.outputs, k)?;
            Ok::<_, ServeError>((outcome, run_spans, pieces))
        })();
        let (outcome, run_spans, pieces) = match ran {
            Ok(ran) => ran,
            Err(err) => {
                self.metrics.exec_error();
                for p in chunk {
                    let _ = p.tx.send(Err(err.clone()));
                }
                return;
            }
        };

        let done = Instant::now();
        let sojourn_us = |p: &Pending| done.duration_since(p.enqueued).as_secs_f64() * 1e6;
        let sojourns_us: Vec<f64> = chunk.iter().map(sojourn_us).collect();
        self.metrics
            .record_batch(epoch, k, &sojourns_us, outcome.virtual_latency_us);

        // Anchor for converting `Instant`s into the telemetry wall clock:
        // one sample serves every span of this batch.
        let anchor = Instant::now();
        let anchor_us = clock_us();
        let us_of =
            |t: Instant| anchor_us - anchor.saturating_duration_since(t).as_secs_f64() * 1e6;
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
        let model = self.cache.spec().name().to_string();
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
            spans.extend_from_slice(&run_spans);
            self.flight.record(Arc::new(RequestTrace {
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
            if let Some(m) = self.slo.as_mut() {
                let verdict = m.observe(sojourn_us);
                if verdict.breached {
                    tm::SERVE_SLO_BREACHES.inc();
                }
                if verdict.burning && self.flight.armed() {
                    self.flight.trigger(AnomalyRule::SloBurn, || {
                        anomaly_payload(&self.cache, &deployed, tid)
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
        if self
            .monitor
            .observe(outcome.virtual_latency_us, variant.duet.latency_us())
        {
            // Re-planning runs here, on the worker thread, in front of every
            // request still queued: its wall time is the stall a hot-swap costs.
            let replan_start = Instant::now();
            let (swapped, rejected) = self.cache.recorrect_all(&deployed);
            tm::SERVE_SWAP_STALL_US.observe_us(replan_start.elapsed().as_secs_f64() * 1e6);
            if rejected > 0 {
                self.metrics.plan_swap_rejected(rejected as u64);
                if self.flight.armed() {
                    self.flight.trigger(AnomalyRule::SwapRefused, || {
                        anomaly_payload(&self.cache, &deployed, 0)
                    });
                }
            }
            if swapped > 0 {
                self.metrics.plan_swap();
                if self.flight.armed() {
                    self.flight.trigger(AnomalyRule::DriftSwap, || {
                        anomaly_payload(&self.cache, &deployed, 0)
                    });
                }
            }
            self.metrics.bump_epoch();
            self.monitor.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
