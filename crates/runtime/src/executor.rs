//! The heterogeneous execution engine (§IV-D, Fig. 9).
//!
//! Once a schedule is decided, DUET instantiates an executor with one
//! worker per device. Each worker runs a loop over its own synchronization
//! queue: it polls for ready subgraphs, executes them, and triggers the
//! subgraphs that depend on the results. The paper uses two child
//! processes with a shared-memory queue; this reproduction uses two
//! threads with lock-free MPMC channels (crossbeam) and a mutex-protected
//! value store — same architecture, same dependency-triggered dataflow.
//!
//! The executor computes *real tensors* (host numerics for both devices)
//! while also maintaining the virtual clock of the device models, so a run
//! yields both verifiable outputs and the latency the modeled hardware
//! would have achieved.
//!
//! Runs can be **witnessed**: [`HeterogeneousExecutor::run_recorded`]
//! threads an optional [`WitnessRecorder`] through the workers, emitting
//! the `D3xx`-checkable event log of [`crate::witness`] (start/finish per
//! subgraph, triggering edges, every modeled transfer) at zero cost when
//! no recorder is attached. For race hunting, [`DelayInjection`] makes
//! each worker sleep a seeded random interval before every dispatch,
//! perturbing the real thread interleaving without changing what a
//! correct run may produce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use duet_compiler::ArenaPool;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId, Op};
use duet_tensor::Tensor;
use parking_lot::Mutex;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::sim::Placed;
use crate::witness::{
    DelayInjection, ExecutionWitness, TransferKind, TriggerEdge, WitnessEvent, WitnessRecorder,
    WitnessSource,
};

/// Virtual-time decomposition of one run: where the modeled hardware
/// spent its microseconds. Busy times are summed per device (they can
/// overlap in wall terms — the two workers run concurrently — so the
/// three parts bound, rather than partition, the virtual latency); the
/// attribution layer in `duet-serve` uses their *ratios* to split a
/// measured wall interval into per-device compute and transfer shares.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecBreakdown {
    /// Summed virtual execution time of CPU-placed subgraphs, µs.
    pub cpu_busy_us: f64,
    /// Summed virtual execution time of GPU-placed subgraphs, µs.
    pub gpu_busy_us: f64,
    /// Summed virtual interconnect time (H2D + D2D + final D2H), µs.
    pub transfer_us: f64,
}

impl ExecBreakdown {
    /// Total accounted virtual time across all three parts.
    pub fn total_us(&self) -> f64 {
        self.cpu_busy_us + self.gpu_busy_us + self.transfer_us
    }
}

/// Result of one heterogeneous inference.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Values of the graph outputs, keyed by node id. Empty for
    /// virtual-clock-only runs ([`HeterogeneousExecutor::run_virtual`]).
    pub outputs: HashMap<NodeId, Tensor>,
    /// End-to-end latency on the modeled hardware, microseconds.
    pub virtual_latency_us: f64,
    /// Wall-clock time of the host-side numeric execution (not the metric
    /// the paper reports — the virtual latency is — but useful for
    /// harness sanity checks).
    pub wall_time: Duration,
    /// How many subgraphs each device executed.
    pub tasks_per_device: HashMap<DeviceKind, usize>,
    /// Virtual-time decomposition of the run.
    pub breakdown: ExecBreakdown,
    /// Causally-linked spans of this run (run → subgraph → kernel),
    /// populated only when [`HeterogeneousExecutor::with_trace`] set a
    /// context. Independent of the global ring and of
    /// `duet_telemetry::enabled()`, so the flight recorder sees a
    /// complete tree even with span recording off.
    pub trace_spans: Vec<duet_telemetry::Span>,
}

enum Msg {
    Run(usize),
    Stop,
}

/// Two-worker dependency-triggered executor for a placed schedule.
pub struct HeterogeneousExecutor<'g> {
    graph: &'g Graph,
    placed: &'g [Placed],
    system: SystemModel,
    delays: Option<DelayInjection>,
    pool: Option<&'g ArenaPool>,
    trace: Option<duet_telemetry::TraceContext>,
}

impl<'g> HeterogeneousExecutor<'g> {
    /// Create an executor over a placed schedule.
    ///
    /// The executor runs one worker thread per device (CPU, GPU) and does
    /// not size the kernel pool: that is as wide as the machine, by the one
    /// rule in `vendor/rayon` ("Sizing"), and process-wide, so concurrent
    /// executors share it. A device worker blocked on its queue costs no
    /// CPU; only while both lanes are inside kernels at once does the
    /// machine carry one runnable thread more than it has CPUs.
    pub fn new(graph: &'g Graph, placed: &'g [Placed], system: SystemModel) -> Self {
        HeterogeneousExecutor {
            graph,
            placed,
            system,
            delays: None,
            pool: None,
            trace: None,
        }
    }

    /// Inject seeded random wall-clock delays before every dispatch
    /// (interleaving stress testing; virtual clocks are unaffected).
    pub fn with_delays(mut self, delays: DelayInjection) -> Self {
        self.delays = Some(delays);
        self
    }

    /// Check tape arenas out of `pool` instead of allocating slot slabs
    /// per run — the steady-state serving path.
    pub fn with_arena_pool(mut self, pool: &'g ArenaPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Link this run into a causal trace: the run span becomes a child
    /// of `parent`, each subgraph dispatch a child of the run span, and
    /// each kernel-tape execution a child of its dispatch. The linked
    /// spans go to the global ring *and* come back in
    /// [`ExecutionOutcome::trace_spans`].
    pub fn with_trace(mut self, parent: duet_telemetry::TraceContext) -> Self {
        self.trace = Some(parent);
        self
    }

    /// Execute one inference with the given input feeds.
    pub fn run(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<ExecutionOutcome, GraphError> {
        self.run_recorded(feeds, None)
    }

    /// Execute one inference, optionally streaming witness events into
    /// `recorder`. With `None` this is exactly [`Self::run`]: no events
    /// are built and no recorder locks are taken.
    pub fn run_recorded(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
        recorder: Option<&WitnessRecorder>,
    ) -> Result<ExecutionOutcome, GraphError> {
        self.run_inner(Some(feeds), recorder)
    }

    /// Execute one inference and return the sealed witness next to the
    /// outcome.
    pub fn run_witnessed(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
    ) -> Result<(ExecutionOutcome, ExecutionWitness), GraphError> {
        let rec = WitnessRecorder::new();
        let outcome = self.run_recorded(feeds, Some(&rec))?;
        let witness = rec.into_witness(
            self.graph.name.clone(),
            WitnessSource::Executor,
            outcome.virtual_latency_us,
        );
        Ok((outcome, witness))
    }

    /// Drive the full two-worker machinery — queues, triggers, virtual
    /// clocks — without computing any tensor numerics. `outputs` comes
    /// back empty; everything else (latency, task counts, witness
    /// events) is as a real run would produce. This makes the threaded
    /// engine's *scheduling* behavior testable on paper-size models in
    /// milliseconds.
    pub fn run_virtual(
        &self,
        recorder: Option<&WitnessRecorder>,
    ) -> Result<ExecutionOutcome, GraphError> {
        self.run_inner(None, recorder)
    }

    fn run_inner(
        &self,
        feeds: Option<&HashMap<NodeId, Tensor>>,
        recorder: Option<&WitnessRecorder>,
    ) -> Result<ExecutionOutcome, GraphError> {
        let n = self.placed.len();
        let wall_start = Instant::now();

        // node -> producing subgraph.
        let mut producer: HashMap<NodeId, usize> = HashMap::new();
        for (i, p) in self.placed.iter().enumerate() {
            for &id in &p.sg.node_ids {
                producer.insert(id, i);
            }
        }
        // Subgraph-level dependency edges.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in self.placed.iter().enumerate() {
            for &src in &p.sg.inputs {
                if matches!(self.graph.node(src).op, Op::Input) {
                    continue;
                }
                let pidx = *producer.get(&src).ok_or(GraphError::MissingFeed(src))?;
                if !deps[i].contains(&pidx) {
                    deps[i].push(pidx);
                    consumers[pidx].push(i);
                }
            }
        }
        let pending: Vec<AtomicUsize> = deps.iter().map(|d| AtomicUsize::new(d.len())).collect();

        // Shared state. The store holds only cross-subgraph intermediates;
        // feeds are immutable for the whole run and are read lock-free
        // straight from the caller's map (cloning the feed map per run was
        // a full HashMap rebuild on every inference).
        let values: Mutex<HashMap<NodeId, Tensor>> = Mutex::new(HashMap::new());
        let numerics = feeds.is_some();
        let finish_us: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
        let error: Mutex<Option<GraphError>> = Mutex::new(None);
        let done = AtomicUsize::new(0);
        let task_counts: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
        // Virtual-time accounting and (when tracing) the causal span
        // tree; workers accumulate locally and merge once at exit.
        let busy_us: [Mutex<f64>; 2] = [Mutex::new(0.0), Mutex::new(0.0)];
        let transfer_total_us: Mutex<f64> = Mutex::new(0.0);
        let run_ctx = self.trace.map(|parent| (parent, parent.child()));
        let trace_spans: Mutex<Vec<duet_telemetry::Span>> = Mutex::new(Vec::new());

        let (cpu_tx, cpu_rx) = unbounded::<Msg>();
        let (gpu_tx, gpu_rx) = unbounded::<Msg>();
        let queue = |d: DeviceKind| -> &Sender<Msg> {
            match d {
                DeviceKind::Cpu => &cpu_tx,
                DeviceKind::Gpu => &gpu_tx,
            }
        };

        // Seed the queues with dependency-free subgraphs.
        for (i, d) in deps.iter().enumerate() {
            if d.is_empty() {
                queue(self.placed[i].device)
                    .send(Msg::Run(i))
                    .expect("queue open");
            }
        }

        std::thread::scope(|scope| {
            for (device, rx) in [(DeviceKind::Cpu, &cpu_rx), (DeviceKind::Gpu, &gpu_rx)] {
                let values = &values;
                let finish_us = &finish_us;
                let error = &error;
                let done = &done;
                let pending = &pending;
                let consumers = &consumers;
                let deps = &deps;
                let task_counts = &task_counts;
                let busy_us = &busy_us;
                let transfer_total_us = &transfer_total_us;
                let trace_spans = &trace_spans;
                let cpu_tx = cpu_tx.clone();
                let gpu_tx = gpu_tx.clone();
                scope.spawn(move || {
                    // Worker loop: poll own queue, execute, trigger deps.
                    let mut device_time = 0.0f64;
                    let mut local_busy = 0.0f64;
                    let mut local_xfer = 0.0f64;
                    let mut delay_rng = self
                        .delays
                        .map(|d| SmallRng::seed_from_u64(d.seed ^ (0xD1CE << device as u64)));
                    while let Ok(msg) = rx.recv() {
                        let i = match msg {
                            Msg::Stop => break,
                            Msg::Run(i) => i,
                        };
                        if let (Some(d), Some(rng)) = (self.delays, delay_rng.as_mut()) {
                            std::thread::sleep(Duration::from_micros(
                                rng.gen_range(0..d.max_us + 1),
                            ));
                        }
                        let placed = &self.placed[i];
                        // Virtual readiness: producers' finish + transfers.
                        let mut ready = 0.0f64;
                        let mut triggers: Vec<TriggerEdge> = Vec::new();
                        let mut transfers: Vec<WitnessEvent> = Vec::new();
                        for &src in &placed.sg.inputs {
                            let bytes = self.graph.node(src).shape.byte_size() as f64;
                            let (producer_idx, mut t, xfer) =
                                if matches!(self.graph.node(src).op, Op::Input) {
                                    let xfer = if device == DeviceKind::Gpu {
                                        self.system.transfer_time_us(bytes)
                                    } else {
                                        0.0
                                    };
                                    (None, 0.0, xfer)
                                } else {
                                    let p = deps[i]
                                        .iter()
                                        .copied()
                                        .find(|&p| self.placed[p].sg.node_ids.contains(&src))
                                        .expect("dep registered");
                                    let t = *finish_us[p].lock();
                                    let xfer = if self.placed[p].device != device {
                                        self.system.transfer_time_us(bytes)
                                    } else {
                                        0.0
                                    };
                                    (Some(p), t, xfer)
                                };
                            t += xfer;
                            ready = ready.max(t);
                            local_xfer += xfer;
                            if recorder.is_some() {
                                triggers.push(TriggerEdge {
                                    node: src,
                                    producer: producer_idx,
                                    bytes,
                                    transfer_us: xfer,
                                });
                                if xfer > 0.0 {
                                    transfers.push(WitnessEvent::Transfer {
                                        node: src,
                                        kind: match producer_idx {
                                            None => TransferKind::HostToDevice,
                                            Some(_) => TransferKind::DeviceToDevice,
                                        },
                                        bytes,
                                        time_us: xfer,
                                        consumer: Some(i),
                                    });
                                }
                            }
                        }
                        let start = ready.max(device_time);
                        let exec =
                            crate::sim::subgraph_exec_time_us(&self.system, device, &placed.sg);
                        if let Some(rec) = recorder {
                            transfers.push(WitnessEvent::Start {
                                sg: i,
                                name: placed.sg.name.clone(),
                                device,
                                at_us: start,
                                triggers,
                            });
                            rec.record_all(transfers);
                        }

                        // Real numerics on the host. Only the values this
                        // subgraph's boundary inputs name are cloned out of
                        // the shared store — cloning the whole map would be
                        // O(n²) traffic on deep graphs.
                        if numerics {
                            let feed_map = feeds.expect("numerics implies feeds");
                            let env: HashMap<NodeId, Tensor> = {
                                let store = values.lock();
                                placed
                                    .sg
                                    .inputs
                                    .iter()
                                    .filter_map(|&id| {
                                        store
                                            .get(&id)
                                            .or_else(|| feed_map.get(&id))
                                            .map(|t| (id, t.clone()))
                                    })
                                    .collect()
                            };
                            let result = match self.pool {
                                Some(pool) => {
                                    let mut arena = pool.checkout(&placed.sg.tape);
                                    let r = placed.sg.execute_with_arena(&env, &mut arena);
                                    pool.give_back(arena);
                                    r
                                }
                                None => placed.sg.execute(self.graph, &env),
                            };
                            match result {
                                Ok(outs) => {
                                    values.lock().extend(outs);
                                }
                                Err(e) => {
                                    // First error wins: a second worker
                                    // failing while we shut down must not
                                    // mask the original cause.
                                    error.lock().get_or_insert(e);
                                    let _ = cpu_tx.send(Msg::Stop);
                                    let _ = gpu_tx.send(Msg::Stop);
                                    break;
                                }
                            }
                        }
                        device_time = start + exec;
                        *finish_us[i].lock() = device_time;
                        if let Some(rec) = recorder {
                            rec.record(WitnessEvent::Finish {
                                sg: i,
                                device,
                                at_us: device_time,
                            });
                        }
                        task_counts[device as usize].fetch_add(1, Ordering::Relaxed);
                        match device {
                            DeviceKind::Cpu => duet_telemetry::registry::EXEC_SUBGRAPHS_CPU.inc(),
                            DeviceKind::Gpu => duet_telemetry::registry::EXEC_SUBGRAPHS_GPU.inc(),
                        }
                        local_busy += exec;
                        // Span timestamps are *virtual* µs — the same
                        // clock the witness records, so span order can be
                        // checked against witness happens-before.
                        match run_ctx {
                            Some((_, run)) => {
                                // Dispatch and kernel spans hang off the
                                // run span: request → batch → run →
                                // subgraph → kernel is one linked tree.
                                let sg_ctx = run.child();
                                let kernel_ctx = sg_ctx.child();
                                let instrs = placed.sg.tape.instrs.len() as u64;
                                duet_telemetry::record_span_traced(
                                    duet_telemetry::SpanKind::ExecSubgraph,
                                    i as u64,
                                    start,
                                    exec,
                                    device as u64 as f64,
                                    0.0,
                                    sg_ctx.trace_id,
                                    sg_ctx.span_id,
                                    run.span_id,
                                );
                                duet_telemetry::record_span_traced(
                                    duet_telemetry::SpanKind::ExecKernel,
                                    instrs,
                                    start,
                                    exec,
                                    device as u64 as f64,
                                    0.0,
                                    kernel_ctx.trace_id,
                                    kernel_ctx.span_id,
                                    sg_ctx.span_id,
                                );
                                let mut spans = trace_spans.lock();
                                let seq = spans.len() as u64;
                                spans.push(duet_telemetry::Span {
                                    seq,
                                    kind: duet_telemetry::SpanKind::ExecSubgraph,
                                    detail: i as u64,
                                    start_us: start,
                                    dur_us: exec,
                                    arg0: device as u64 as f64,
                                    arg1: 0.0,
                                    trace_id: sg_ctx.trace_id,
                                    span_id: sg_ctx.span_id,
                                    parent_id: run.span_id,
                                });
                                spans.push(duet_telemetry::Span {
                                    seq: seq + 1,
                                    kind: duet_telemetry::SpanKind::ExecKernel,
                                    detail: instrs,
                                    start_us: start,
                                    dur_us: exec,
                                    arg0: device as u64 as f64,
                                    arg1: 0.0,
                                    trace_id: kernel_ctx.trace_id,
                                    span_id: kernel_ctx.span_id,
                                    parent_id: sg_ctx.span_id,
                                });
                            }
                            None => duet_telemetry::record_span(
                                duet_telemetry::SpanKind::ExecSubgraph,
                                i as u64,
                                start,
                                exec,
                                device as u64 as f64,
                                0.0,
                            ),
                        }

                        // Trigger consumers whose last dependency this was.
                        for &c in &consumers[i] {
                            if pending[c].fetch_sub(1, Ordering::AcqRel) == 1 {
                                let tx = match self.placed[c].device {
                                    DeviceKind::Cpu => &cpu_tx,
                                    DeviceKind::Gpu => &gpu_tx,
                                };
                                tx.send(Msg::Run(c)).expect("queue open");
                            }
                        }
                        if done.fetch_add(1, Ordering::AcqRel) + 1 == n {
                            let _ = cpu_tx.send(Msg::Stop);
                            let _ = gpu_tx.send(Msg::Stop);
                        }
                    }
                    *busy_us[device as usize].lock() += local_busy;
                    *transfer_total_us.lock() += local_xfer;
                });
            }
        });

        if let Some(e) = error.into_inner() {
            return Err(e);
        }

        // Collect outputs and account for D2H transfers.
        let values = values.into_inner();
        let mut outputs = HashMap::new();
        let mut latency = 0.0f64;
        for &out in self.graph.outputs() {
            let p = producer[&out];
            let mut t = *finish_us[p].lock();
            if self.placed[p].device == DeviceKind::Gpu {
                let bytes = self.graph.node(out).shape.byte_size() as f64;
                let xfer = self.system.transfer_time_us(bytes);
                t += xfer;
                *transfer_total_us.lock() += xfer;
                if let Some(rec) = recorder {
                    rec.record(WitnessEvent::Transfer {
                        node: out,
                        kind: TransferKind::DeviceToHost,
                        bytes,
                        time_us: xfer,
                        consumer: None,
                    });
                }
            }
            latency = latency.max(t);
            if numerics {
                let v = values
                    .get(&out)
                    .cloned()
                    .ok_or(GraphError::MissingFeed(out))?;
                outputs.insert(out, v);
            }
        }
        duet_telemetry::registry::EXEC_RUNS.inc();
        let mut trace_spans = trace_spans.into_inner();
        match run_ctx {
            Some((parent, run)) => {
                duet_telemetry::record_span_traced(
                    duet_telemetry::SpanKind::ExecRun,
                    n as u64,
                    0.0,
                    latency,
                    0.0,
                    0.0,
                    run.trace_id,
                    run.span_id,
                    parent.span_id,
                );
                let seq = trace_spans.len() as u64;
                trace_spans.push(duet_telemetry::Span {
                    seq,
                    kind: duet_telemetry::SpanKind::ExecRun,
                    detail: n as u64,
                    start_us: 0.0,
                    dur_us: latency,
                    arg0: 0.0,
                    arg1: 0.0,
                    trace_id: run.trace_id,
                    span_id: run.span_id,
                    parent_id: parent.span_id,
                });
            }
            None => duet_telemetry::record_span(
                duet_telemetry::SpanKind::ExecRun,
                n as u64,
                0.0,
                latency,
                0.0,
                0.0,
            ),
        }
        Ok(ExecutionOutcome {
            outputs,
            virtual_latency_us: latency,
            wall_time: wall_start.elapsed(),
            tasks_per_device: HashMap::from([
                (DeviceKind::Cpu, task_counts[0].load(Ordering::Relaxed)),
                (DeviceKind::Gpu, task_counts[1].load(Ordering::Relaxed)),
            ]),
            breakdown: {
                let [cpu_busy, gpu_busy] = busy_us;
                ExecBreakdown {
                    cpu_busy_us: cpu_busy.into_inner(),
                    gpu_busy_us: gpu_busy.into_inner(),
                    transfer_us: transfer_total_us.into_inner(),
                }
            },
            trace_spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_latency;
    use duet_compiler::Compiler;
    use duet_ir::GraphBuilder;
    use duet_models::{input_feeds, siamese, SiameseConfig};

    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 32]);
        let l = b.dense("left", x, 32, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 32, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 4, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn split(g: &Graph, prefixes: &[&str]) -> Vec<duet_compiler::CompiledSubgraph> {
        let c = Compiler::default();
        let mut used: Vec<NodeId> = Vec::new();
        let mut sgs = Vec::new();
        for p in prefixes {
            let ids: Vec<NodeId> = g
                .compute_ids()
                .into_iter()
                .filter(|&i| g.node(i).label.starts_with(p))
                .collect();
            used.extend(&ids);
            sgs.push(c.compile_nodes(g, &ids, *p));
        }
        let rest: Vec<NodeId> = g
            .compute_ids()
            .into_iter()
            .filter(|i| !used.contains(i))
            .collect();
        if !rest.is_empty() {
            sgs.push(c.compile_nodes(g, &rest, "rest"));
        }
        sgs
    }

    #[test]
    fn heterogeneous_run_matches_reference_eval() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 5);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        let got = &out.outputs[&g.outputs()[0]];
        assert!(got.approx_eq(&want[0], 1e-5));
        assert_eq!(out.tasks_per_device[&DeviceKind::Cpu], 2);
        assert_eq!(out.tasks_per_device[&DeviceKind::Gpu], 1);
    }

    #[test]
    fn virtual_latency_close_to_simulator() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let sys = SystemModel::paper_server();
        let sim_lat = measure_latency(&g, &placed, &sys);
        let exec = HeterogeneousExecutor::new(&g, &placed, sys);
        let out = exec.run(&input_feeds(&g, 1)).unwrap();
        // The threaded engine may serialize same-device work in a slightly
        // different (still valid) order; latencies agree within 20%.
        let rel = (out.virtual_latency_us - sim_lat).abs() / sim_lat;
        assert!(
            rel < 0.2,
            "threaded {} vs sim {sim_lat}",
            out.virtual_latency_us
        );
    }

    #[test]
    fn single_device_run_works() {
        let g = branchy();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let placed = vec![Placed {
            sg: whole,
            device: DeviceKind::Gpu,
        }];
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 2);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert!(out.outputs[&g.outputs()[0]].approx_eq(&want[0], 1e-5));
        assert_eq!(out.tasks_per_device[&DeviceKind::Cpu], 0);
    }

    #[test]
    fn siamese_split_across_devices_is_numerically_exact() {
        let g = siamese(&SiameseConfig::small());
        let sgs = split(&g, &["query", "passage"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let feeds = input_feeds(&g, 3);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        // Same host kernels run in both paths: results are bit-identical.
        assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
    }

    #[test]
    fn missing_feed_surfaces_as_error() {
        let g = branchy();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let placed = vec![Placed {
            sg: whole,
            device: DeviceKind::Cpu,
        }];
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let res = exec.run(&HashMap::new());
        assert!(res.is_err());
    }

    /// Two independent branches from two separate inputs; only one input
    /// is fed, so exactly one branch fails while the other succeeds.
    fn two_input_branchy() -> Graph {
        let mut b = GraphBuilder::new("two_input", 3);
        let x = b.input("x", vec![1, 16]);
        let z = b.input("z", vec![1, 16]);
        let l = b.dense("left", x, 16, Some(Op::Relu)).unwrap();
        let r = b.dense("right", z, 16, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 4, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn mid_graph_failure_stops_promptly_with_original_error() {
        let g = two_input_branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let z = g.input_ids()[1];
        // Feed only x: the "right" subgraph dies on the missing z feed,
        // the "head" subgraph never becomes ready. The run must return
        // (not hang) with exactly the missing-feed error — across many
        // perturbed interleavings, never masked by a later error.
        let mut feeds = input_feeds(&g, 4);
        feeds.remove(&z);
        for seed in 0..20 {
            let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server())
                .with_delays(DelayInjection::new(seed, 80));
            let err = exec.run(&feeds).unwrap_err();
            assert_eq!(err, GraphError::MissingFeed(z), "seed {seed}");
        }
    }

    #[test]
    fn narrowed_env_leaves_outputs_unchanged_on_deep_chain() {
        // A deep chain split into many subgraphs: with whole-map cloning
        // this moved O(n²) tensors; the narrowed env must stay correct.
        let mut b = GraphBuilder::new("deep", 9);
        let x = b.input("x", vec![1, 24]);
        let mut cur = x;
        for i in 0..24 {
            cur = b.dense(&format!("fc{i}"), cur, 24, Some(Op::Relu)).unwrap();
        }
        let g = b.finish(&[cur]).unwrap();
        let c = Compiler::default();
        let ids = g.compute_ids();
        let placed: Vec<Placed> = ids
            .chunks(3)
            .enumerate()
            .map(|(i, chunk)| Placed {
                sg: c.compile_nodes(&g, chunk, format!("c{i}")),
                device: if i % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
            })
            .collect();
        let feeds = input_feeds(&g, 11);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
    }

    #[test]
    fn repeated_runs_are_stable() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 8);
        let first = exec.run(&feeds).unwrap();
        for _ in 0..10 {
            let again = exec.run(&feeds).unwrap();
            assert_eq!(
                again.outputs[&g.outputs()[0]],
                first.outputs[&g.outputs()[0]]
            );
        }
    }

    #[test]
    fn witnessed_run_logs_every_subgraph_and_transfer() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let (out, w) = exec.run_witnessed(&input_feeds(&g, 5)).unwrap();
        assert_eq!(w.source, WitnessSource::Executor);
        assert_eq!(w.virtual_latency_us, out.virtual_latency_us);
        assert_eq!(w.dispatch_count(), placed.len());
        // The GPU-placed "right" subgraph consumed the host input: an H2D
        // transfer must be on record, and its boundary output crosses back.
        assert!(w.events.iter().any(|e| matches!(
            e,
            WitnessEvent::Transfer {
                kind: TransferKind::HostToDevice,
                ..
            }
        )));
        assert!(w.events.iter().any(|e| matches!(
            e,
            WitnessEvent::Transfer {
                kind: TransferKind::DeviceToDevice,
                ..
            }
        )));
    }

    #[test]
    fn virtual_run_matches_real_run_latency() {
        let g = branchy();
        let sgs = split(&g, &["left", "right"]);
        let placed: Vec<Placed> = sgs
            .into_iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg,
                device: if i == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let real = exec.run(&input_feeds(&g, 2)).unwrap();
        let virt = exec.run_virtual(None).unwrap();
        assert!(virt.outputs.is_empty());
        // Virtual clocks do not depend on the numerics; a same-ordering
        // virtual run lands on the same latency.
        let rel =
            (real.virtual_latency_us - virt.virtual_latency_us).abs() / real.virtual_latency_us;
        assert!(rel < 0.2, "real {real:?} vs virtual {virt:?}");
    }
}
