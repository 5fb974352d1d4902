//! The heterogeneous execution engine (§IV-D, Fig. 9).
//!
//! Once a schedule is decided, DUET instantiates an executor with one
//! worker per device. Each worker runs a loop over its own synchronization
//! queue: it polls for ready subgraphs, executes them, and triggers the
//! subgraphs that depend on the results. The paper uses two child
//! processes with a shared-memory queue; this reproduction runs one *lane*
//! per device over MPMC channels (the vendored `crossbeam` stand-in: a
//! `Mutex<VecDeque>` and a `Condvar`) and a mutex-protected value store
//! — same architecture, same dependency-triggered dataflow. The unit of
//! concurrency is the lane, not the thread: the calling thread runs the
//! lane of the device that owns the last subgraph, and the other device's
//! lane gets a scoped thread only if the placement gives that device
//! work. A single-device placement spawns nothing and hands nothing across
//! threads; Fig. 9's long-lived worker is whoever calls — a serve worker,
//! a `Duet::run` caller.
//!
//! As in the paper, everything structural is settled before the workers
//! start: the executor holds the placement's [`Timeline`] — the engine's
//! own, re-priced for the system it runs under, or one built by
//! [`HeterogeneousExecutor::new`] for a hand-assembled schedule — and
//! reads dependencies, trigger counts, transfer and execution prices and
//! the graph-output table from it, deriving and pricing nothing itself.
//! What the workers add is what only real threads can: the *dispatch
//! order* the virtual clock then follows. A run yields real tensors (host
//! numerics for both devices) and the latency the modeled hardware would
//! have achieved — [`Timeline::makespan`] bit for bit wherever the
//! per-device order is forced, within the D310 tolerance where it is free.
//!
//! Runs can be **witnessed**: [`HeterogeneousExecutor::run_witnessed`]
//! has the workers commit the `D3xx`-checkable event log of
//! [`crate::witness`], built by the [`WitnessEvent::dispatch`] the
//! simulator uses too; other runs build no events and take no log
//! lock. For race hunting, [`DelayInjection`] makes each worker sleep a
//! seeded random interval before every dispatch, perturbing the real
//! interleaving without changing what a correct run may produce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use duet_compiler::ArenaPool;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId, Op};
use duet_telemetry::{Span, SpanKind, TraceContext};
use duet_tensor::Tensor;
use parking_lot::Mutex;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::sim::Placed;
use crate::timeline::Timeline;
use crate::witness::{DelayInjection, ExecutionWitness, WitnessEvent, WitnessSource};

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
    pub trace_spans: Vec<Span>,
}

enum Msg {
    Run(usize),
    Stop,
}

/// What one device worker hands back when it exits.
#[derive(Default)]
struct Lane {
    tasks: usize,
    busy_us: f64,
    transfer_us: f64,
    spans: Vec<Span>,
}

/// Two-lane dependency-triggered executor for a placed schedule.
pub struct HeterogeneousExecutor<'g> {
    graph: &'g Graph,
    placed: &'g [Placed],
    /// Structure and prices of `placed`; the error of a hand-assembled
    /// schedule that does not cover the graph surfaces at run.
    timeline: Result<Timeline, GraphError>,
    delays: Option<DelayInjection>,
    pool: Option<&'g ArenaPool>,
    trace: Option<TraceContext>,
}

impl<'g> HeterogeneousExecutor<'g> {
    /// Create an executor over a hand-assembled placed schedule, priced
    /// under `system`. A schedule that does not cover the producer of a
    /// boundary value or of a graph output makes every run return a typed
    /// error (see [`crate::validate_schedule`] to check up front).
    ///
    /// The executor runs one lane per device — on the caller's thread and
    /// at most one scoped thread (module doc) — and does not size the
    /// kernel pool: that is as wide as the machine (`vendor/rayon`,
    /// "Sizing") and process-wide. A lane blocked on its queue costs no
    /// CPU; only while both lanes are inside kernels at once does the
    /// machine carry one runnable thread more than it has CPUs.
    pub fn new(graph: &'g Graph, placed: &'g [Placed], system: SystemModel) -> Self {
        let timeline = Timeline::new(graph, placed.iter().map(|p| &p.sg), &system);
        Self::over(graph, placed, timeline.map_err(GraphError::from))
    }

    /// Create an executor over `placed` that runs on an already built
    /// `timeline` of exactly those subgraphs, priced for the system the
    /// run is to model — how an engine hands over its own tables instead
    /// of having them derived again.
    pub fn with_timeline(graph: &'g Graph, placed: &'g [Placed], timeline: Timeline) -> Self {
        assert_eq!(timeline.len(), placed.len(), "one row per subgraph");
        Self::over(graph, placed, Ok(timeline))
    }

    fn over(
        graph: &'g Graph,
        placed: &'g [Placed],
        timeline: Result<Timeline, GraphError>,
    ) -> Self {
        HeterogeneousExecutor {
            graph,
            placed,
            timeline,
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
    pub fn with_trace(mut self, parent: TraceContext) -> Self {
        self.trace = Some(parent);
        self
    }

    /// Execute one inference with the given input feeds.
    pub fn run(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<ExecutionOutcome, GraphError> {
        self.run_inner(Some(feeds), None)
    }

    /// Execute one inference and return the sealed witness next to the
    /// outcome.
    pub fn run_witnessed(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
    ) -> Result<(ExecutionOutcome, ExecutionWitness), GraphError> {
        let log = Mutex::new(Vec::new());
        let outcome = self.run_inner(Some(feeds), Some(&log))?;
        let witness = ExecutionWitness {
            model: self.graph.name.clone(),
            source: WitnessSource::Executor,
            events: log.into_inner(),
            virtual_latency_us: outcome.virtual_latency_us,
        };
        Ok((outcome, witness))
    }

    /// Drive the full two-lane machinery — queues, triggers, virtual
    /// clocks — without computing any tensor numerics. `outputs` comes
    /// back empty; everything else (latency, task counts) is as a real
    /// run would produce. This makes the threaded engine's *scheduling*
    /// behavior testable on paper-size models in milliseconds.
    pub fn run_virtual(&self) -> Result<ExecutionOutcome, GraphError> {
        self.run_inner(None, None)
    }

    fn run_inner(
        &self,
        feeds: Option<&HashMap<NodeId, Tensor>>,
        log: Option<&Mutex<Vec<WitnessEvent>>>,
    ) -> Result<ExecutionOutcome, GraphError> {
        let wall_start = Instant::now();
        let timeline = self.timeline.as_ref().map_err(GraphError::clone)?;
        let n = self.placed.len();
        let devices: Vec<DeviceKind> = self.placed.iter().map(|p| p.device).collect();
        // One trigger per dependency edge that has a producing subgraph.
        let produced = |i| timeline.deps(i).iter().filter(|d| d.producer.is_some());
        let pending: Vec<AtomicUsize> = (0..n)
            .map(|i| AtomicUsize::new(produced(i).count()))
            .collect();

        // Shared state. The store holds only cross-subgraph intermediates
        // (sized once: no rehash under the lock); feeds are immutable for
        // the run and are read lock-free straight from the caller's map.
        let boundary_values = self.placed.iter().map(|p| p.sg.outputs.len()).sum();
        let values: Mutex<HashMap<NodeId, Tensor>> =
            Mutex::new(HashMap::with_capacity(boundary_values));
        let finish_us: Vec<Mutex<f64>> = (0..n).map(|_| Mutex::new(0.0)).collect();
        let error: Mutex<Option<GraphError>> = Mutex::new(None);
        let done = AtomicUsize::new(0);
        let trace = self.trace.unwrap_or(TraceContext::UNTRACED);
        let run_ctx = trace.child();

        // One queue per device. Both ends live to the end of this function,
        // so a send cannot fail.
        let queues = DeviceKind::both().map(|_| unbounded::<Msg>());
        let send = |device: DeviceKind, msg: Msg| {
            let _ = queues[device as usize].0.send(msg);
        };
        let stop = || {
            send(DeviceKind::Cpu, Msg::Stop);
            send(DeviceKind::Gpu, Msg::Stop);
        };

        // Seed the queues with dependency-free subgraphs.
        for (i, waits) in pending.iter().enumerate() {
            if waits.load(Ordering::Relaxed) == 0 {
                send(devices[i], Msg::Run(i));
            }
        }
        if n == 0 {
            stop();
        }

        // Worker loop: poll own queue, execute, trigger dependents.
        let worker = |device: DeviceKind| -> Lane {
            let mut lane = Lane::default();
            let mut device_time = 0.0f64;
            let mut delay_rng = self
                .delays
                .map(|d| SmallRng::seed_from_u64(d.seed ^ (0xD1CE << device as u64)));
            while let Ok(Msg::Run(i)) = queues[device as usize].1.recv() {
                if let (Some(d), Some(rng)) = (self.delays, delay_rng.as_mut()) {
                    std::thread::sleep(Duration::from_micros(rng.gen_range(0..d.max_us + 1)));
                }
                let placed = &self.placed[i];
                let deps = timeline.deps(i);
                // Virtual readiness: producers' finish + priced transfers.
                let mut ready = 0.0f64;
                for d in deps {
                    let produced_at = d.producer.map_or(0.0, |p| *finish_us[p].lock());
                    let xfer = d.paid_us(&devices, device);
                    ready = ready.max(produced_at + xfer);
                    lane.transfer_us += xfer;
                }
                let start = ready.max(device_time);
                let exec = timeline.exec_time_us(i, device);
                let end = start + exec;
                // The dispatch goes on record before the values exist, the
                // retirement only after them.
                let finished = log.map(|log| {
                    let (started, finished) =
                        WitnessEvent::dispatch(timeline, &devices, i, &placed.sg.name, start, end);
                    log.lock().extend(started);
                    finished
                });

                // Real numerics on the host. Only the values this
                // subgraph's boundary inputs name are cloned out of the
                // shared store — cloning the whole map would be O(n²)
                // traffic on deep graphs.
                if let Some(feeds) = feeds {
                    let env: HashMap<NodeId, Tensor> = {
                        let store = values.lock();
                        let held = |id| store.get(id).or_else(|| feeds.get(id));
                        let inputs = placed.sg.inputs.iter();
                        inputs
                            .filter_map(|id| Some((*id, held(id)?.clone())))
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
                        Ok(outs) => values.lock().extend(outs),
                        Err(e) => {
                            // First error wins: a second worker failing
                            // while we shut down must not mask the
                            // original cause.
                            error.lock().get_or_insert(e);
                            stop();
                            break;
                        }
                    }
                }
                device_time = end;
                *finish_us[i].lock() = end;
                if let (Some(log), Some(finished)) = (log, finished) {
                    log.lock().push(finished);
                }
                lane.tasks += 1;
                lane.busy_us += exec;
                match device {
                    DeviceKind::Cpu => duet_telemetry::registry::EXEC_SUBGRAPHS_CPU.inc(),
                    DeviceKind::Gpu => duet_telemetry::registry::EXEC_SUBGRAPHS_GPU.inc(),
                }
                // Request → batch → run → subgraph → kernel is one linked
                // tree, stamped in *virtual* µs: the witness's clock, so span
                // order can be checked against its happens-before.
                let span = |kind, detail, ctx, parent| {
                    Span::linked(kind, detail, start, exec, device as u64 as f64, ctx, parent)
                };
                let sg_ctx = run_ctx.child();
                let sg_span = span(SpanKind::ExecSubgraph, i as u64, sg_ctx, run_ctx.span_id);
                sg_span.record();
                if sg_span.is_traced() {
                    let instrs = placed.sg.tape.instrs.len() as u64;
                    let kernel_span =
                        span(SpanKind::ExecKernel, instrs, sg_ctx.child(), sg_ctx.span_id);
                    kernel_span.record();
                    lane.spans.extend([sg_span, kernel_span]);
                }

                // Trigger every dependency edge this subgraph feeds; the
                // consumer whose last edge this was is dispatched.
                for (c, waits) in pending.iter().enumerate() {
                    for d in timeline.deps(c) {
                        if d.producer == Some(i) && waits.fetch_sub(1, Ordering::AcqRel) == 1 {
                            send(devices[c], Msg::Run(c));
                        }
                    }
                }
                if done.fetch_add(1, Ordering::AcqRel) + 1 == n {
                    stop();
                }
            }
            lane
        };
        // The caller is the lane of the device that finishes the run — the
        // last subgraph's — so its result is handed to no other thread; the
        // other device gets a thread only if the placement gives it work.
        let mine = devices.last().copied().unwrap_or(DeviceKind::Cpu);
        let mut lanes = if devices.contains(&mine.other()) {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| worker(mine.other()));
                // A worker's panic continues here, as the scope's own would.
                let resume = |e| std::panic::resume_unwind(e);
                [worker(mine), other.join().unwrap_or_else(resume)]
            })
        } else {
            [worker(mine), Lane::default()]
        };
        if mine == DeviceKind::Gpu {
            lanes.reverse();
        }
        let [cpu, gpu] = lanes;

        if let Some(e) = error.into_inner() {
            return Err(e);
        }

        // Latency: every produced graph output back on the host.
        let mut latency = 0.0f64;
        let mut transfer_us = cpu.transfer_us + gpu.transfer_us;
        for o in timeline.outputs() {
            let mut t = *finish_us[o.producer].lock();
            if devices[o.producer] == DeviceKind::Gpu {
                t += o.d2h_us;
                transfer_us += o.d2h_us;
                if let Some(log) = log {
                    log.lock().push(WitnessEvent::output_landed(o));
                }
            }
            latency = latency.max(t);
        }
        // Output values. A source named as an output never left the
        // host: the fed tensor or the constant's parameter, exactly as
        // `Graph::eval` returns it.
        let values = values.into_inner();
        let mut outputs = HashMap::new();
        if let Some(feeds) = feeds {
            for &out in self.graph.outputs() {
                let value = match self.graph.node(out).op {
                    Op::Input => feeds.get(&out).ok_or(GraphError::MissingFeed(out))?,
                    Op::Constant => self.graph.param(out).ok_or(GraphError::UnknownNode(out))?,
                    _ => values.get(&out).ok_or(GraphError::MissingFeed(out))?,
                };
                outputs.insert(out, value.clone());
            }
        }
        duet_telemetry::registry::EXEC_RUNS.inc();
        let run_span = Span::linked(
            SpanKind::ExecRun,
            n as u64,
            0.0,
            latency,
            0.0,
            run_ctx,
            trace.span_id,
        );
        run_span.record();
        let mut trace_spans = cpu.spans;
        trace_spans.extend(gpu.spans);
        trace_spans.extend(run_span.is_traced().then_some(run_span));
        for (seq, span) in trace_spans.iter_mut().enumerate() {
            span.seq = seq as u64;
        }
        Ok(ExecutionOutcome {
            outputs,
            virtual_latency_us: latency,
            wall_time: wall_start.elapsed(),
            tasks_per_device: HashMap::from([
                (DeviceKind::Cpu, cpu.tasks),
                (DeviceKind::Gpu, gpu.tasks),
            ]),
            breakdown: ExecBreakdown {
                cpu_busy_us: cpu.busy_us,
                gpu_busy_us: gpu.busy_us,
                transfer_us,
            },
            trace_spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_witnessed, SimNoise};
    use crate::witness::TransferKind;
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

    fn on(sgs: Vec<duet_compiler::CompiledSubgraph>, devices: &[DeviceKind]) -> Vec<Placed> {
        assert_eq!(sgs.len(), devices.len());
        sgs.into_iter()
            .zip(devices)
            .map(|(sg, &device)| Placed { sg, device })
            .collect()
    }

    #[test]
    fn heterogeneous_run_matches_reference_eval() {
        let g = branchy();
        let placed = on(
            split(&g, &["left", "right"]),
            &[DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu],
        );
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = input_feeds(&g, 5);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        let got = &out.outputs[&g.outputs()[0]];
        assert!(got.approx_eq(&want[0], 1e-5));
        assert_eq!(out.tasks_per_device[&DeviceKind::Cpu], 2);
        assert_eq!(out.tasks_per_device[&DeviceKind::Gpu], 1);
    }

    /// Events of subgraph `sg`: its boundary transfers, `Start` and
    /// `Finish` (`None`: the final D2H copies), in log order.
    fn events_of(w: &ExecutionWitness, sg: Option<usize>) -> Vec<&WitnessEvent> {
        w.events
            .iter()
            .filter(|e| match e {
                WitnessEvent::Transfer { consumer, .. } => *consumer == sg,
                other => other.subgraph() == sg,
            })
            .collect()
    }

    /// Where the per-device dispatch order is forced, the threaded
    /// executor *is* the timeline: real and virtual runs land on
    /// `Timeline::makespan` bit for bit, and executor and simulator put
    /// the same events on record for every subgraph.
    fn assert_executor_is_the_timeline(g: &Graph, placed: &[Placed]) {
        let sys = SystemModel::paper_server();
        let timeline = Timeline::new(g, placed.iter().map(|p| &p.sg), &sys).unwrap();
        let devices: Vec<DeviceKind> = placed.iter().map(|p| p.device).collect();
        let want = timeline.makespan(&devices).to_bits();
        let exec = HeterogeneousExecutor::new(g, placed, sys.clone());
        let (real, exec_w) = exec.run_witnessed(&input_feeds(g, 1)).unwrap();
        let virt = exec.run_virtual().unwrap();
        assert!(virt.outputs.is_empty());
        assert_eq!(real.virtual_latency_us.to_bits(), want);
        assert_eq!(virt.virtual_latency_us.to_bits(), want);
        assert_eq!(virt.breakdown, real.breakdown);
        // Each lane's account comes back under its own device, whichever
        // of the two the caller ran.
        for device in DeviceKind::both() {
            let placed_here = devices.iter().filter(|&&d| d == device).count();
            assert_eq!(real.tasks_per_device[&device], placed_here, "{device}");
        }
        let (_, sim_w) = simulate_witnessed(g, placed, &sys, &mut SimNoise::disabled());
        assert_eq!(exec_w.events.len(), sim_w.events.len());
        for sg in (0..placed.len()).map(Some).chain([None]) {
            assert_eq!(events_of(&exec_w, sg), events_of(&sim_w, sg), "{sg:?}");
        }
    }

    #[test]
    fn single_device_runs_equal_the_timeline_bit_for_bit() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        // One lane, the caller's, drains one queue seeded in index order;
        // on the GPU pass the first device has no work.
        for device in [Cpu, Gpu] {
            let placed = on(split(&g, &["left", "right"]), &[device; 3]);
            assert_executor_is_the_timeline(&g, &placed);
            let whole = Compiler::default().compile_whole(&g, "whole");
            assert_executor_is_the_timeline(&g, &on(vec![whole], &[device]));
        }
    }

    /// The caller runs the lane of the last subgraph's device, whichever
    /// that is, and the other device's lane runs on a thread.
    #[test]
    fn each_caller_lane_and_an_empty_placement_equal_the_timeline_bit_for_bit() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        for devices in [[Gpu, Gpu, Cpu], [Cpu, Cpu, Gpu]] {
            let placed = on(split(&g, &["left", "right"]), &devices);
            assert_executor_is_the_timeline(&g, &placed);
        }
        // No subgraph at all: the caller's lane stops at once and the
        // source named as the output comes back as fed.
        let mut b = GraphBuilder::new("sources", 2);
        let x = b.input("x", vec![1, 16]);
        let g = b.finish(&[x]).unwrap();
        assert_executor_is_the_timeline(&g, &[]);
        let feeds = input_feeds(&g, 3);
        let exec = HeterogeneousExecutor::new(&g, &[], SystemModel::paper_server());
        assert_eq!(exec.run(&feeds).unwrap().outputs[&x], feeds[&x]);
    }

    #[test]
    fn chain_across_devices_equals_the_timeline_bit_for_bit() {
        let (g, placed) = deep_chain();
        assert_executor_is_the_timeline(&g, &placed);
    }

    #[test]
    fn one_subgraph_per_device_equals_the_timeline_bit_for_bit() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        for devices in [[Gpu, Cpu], [Cpu, Gpu]] {
            let placed = on(split(&g, &["left"]), &devices);
            assert_executor_is_the_timeline(&g, &placed);
        }
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
        let placed = on(
            split(&g, &["query", "passage"]),
            &[DeviceKind::Gpu, DeviceKind::Cpu, DeviceKind::Cpu],
        );
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
        let placed = on(
            split(&g, &["left", "right"]),
            &[DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu],
        );
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

    /// A deep chain cut into many subgraphs on alternating devices.
    fn deep_chain() -> (Graph, Vec<Placed>) {
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
        (g, placed)
    }

    #[test]
    fn narrowed_env_leaves_outputs_unchanged_on_deep_chain() {
        // With whole-map cloning this moved O(n²) tensors; the narrowed
        // env must stay correct.
        let (g, placed) = deep_chain();
        let feeds = input_feeds(&g, 11);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert_eq!(out.outputs[&g.outputs()[0]], want[0]);
    }

    #[test]
    fn repeated_runs_are_stable() {
        let g = branchy();
        let placed = on(
            split(&g, &["left", "right"]),
            &[DeviceKind::Gpu, DeviceKind::Cpu, DeviceKind::Cpu],
        );
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
        let placed = on(
            split(&g, &["left", "right"]),
            &[DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu],
        );
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

    /// `y = head(x)` with the output list `[y, x, k]`: an input and a
    /// constant named as outputs next to a computed one.
    fn pass_through() -> (Graph, [NodeId; 3]) {
        let mut b = GraphBuilder::new("pass_through", 2);
        let x = b.input("x", vec![1, 16]);
        let k = b.constant("k", Tensor::randn(vec![1, 4], 1.0, 5));
        let y = b.dense("head", x, 4, Some(Op::Relu)).unwrap();
        (b.finish(&[y, x, k]).unwrap(), [y, x, k])
    }

    #[test]
    fn source_named_as_output_is_returned_as_eval_does() {
        let (g, outs) = pass_through();
        let feeds = input_feeds(&g, 6);
        let want = g.eval(&feeds).unwrap();
        for device in DeviceKind::both() {
            let whole = Compiler::default().compile_whole(&g, "whole");
            let placed = on(vec![whole], &[device]);
            let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
            let (out, witness) = exec.run_witnessed(&feeds).unwrap();
            assert_eq!(out.outputs.len(), 3);
            for (id, want) in outs.iter().zip(&want) {
                assert_eq!(&out.outputs[id], want, "output {id} on {device:?}");
            }
            // Host-resident outputs cost no D2H: one copy back at most.
            let d2h = events_of(&witness, None).len();
            assert_eq!(d2h, (device == DeviceKind::Gpu) as usize);
        }
    }

    #[test]
    fn source_output_without_feed_is_a_missing_feed() {
        let mut b = GraphBuilder::new("unfed", 2);
        let x = b.input("x", vec![1, 8]);
        let z = b.input("z", vec![1, 8]);
        let y = b.dense("head", x, 4, None).unwrap();
        let g = b.finish(&[y, z]).unwrap();
        let whole = Compiler::default().compile_whole(&g, "whole");
        let placed = on(vec![whole], &[DeviceKind::Cpu]);
        let mut feeds = input_feeds(&g, 1);
        feeds.remove(&z);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        assert_eq!(exec.run(&feeds).unwrap_err(), GraphError::MissingFeed(z));
    }

    #[test]
    fn uncovered_boundary_producer_is_a_typed_error() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        let mut sgs = split(&g, &["left", "right"]);
        let left = sgs.remove(0);
        let placed = on(sgs, &[Gpu, Cpu]);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        for res in [exec.run(&input_feeds(&g, 1)), exec.run_virtual()] {
            let err = res.unwrap_err();
            assert!(
                matches!(err, GraphError::MissingFeed(n) if left.node_ids.contains(&n)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn uncovered_graph_output_is_a_typed_error() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        let mut sgs = split(&g, &["left", "right"]);
        sgs.pop(); // the head, which produces the output
        let placed = on(sgs, &[Cpu, Gpu]);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let missing = GraphError::MissingFeed(g.outputs()[0]);
        assert_eq!(exec.run(&input_feeds(&g, 1)).unwrap_err(), missing);
        assert_eq!(exec.run_virtual().unwrap_err(), missing);
    }
}
