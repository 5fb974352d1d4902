//! The heterogeneous execution engine (§IV-D, Fig. 9).
//!
//! Once a schedule is decided, DUET instantiates an executor with one
//! worker per device. Each worker runs a loop over its own synchronization
//! queue: it polls for ready subgraphs, executes them, and triggers the
//! subgraphs that depend on the results. The paper uses two child
//! processes with a shared-memory queue; this reproduction runs one *lane*
//! per device, each woken through its own `std::sync::mpsc` channel, over
//! a mutex-protected value store — same architecture, same
//! dependency-triggered dataflow. A lane that panics stops both queues on
//! its way out, so the panic reaches the caller instead of leaving the
//! other lane waiting on an empty queue. The unit of concurrency is the
//! lane, not the thread: the calling thread runs the lane of the device
//! that owns the last subgraph, and the other device's lane gets a scoped
//! thread only if the placement gives that device work. A single-device
//! placement spawns nothing and hands nothing across threads; Fig. 9's
//! long-lived worker is whoever calls — a serve worker, a `Duet::run`
//! caller.
//!
//! As in the paper, everything is settled before the workers start: the
//! executor holds the placement's [`Timeline`] — the engine's own, or one
//! built by [`HeterogeneousExecutor::new`] for a hand-assembled schedule —
//! and the [`Schedule`] one noise-free [`Timeline::replay`] of it
//! dispatched, the order and the virtual intervals Algorithm 1 priced.
//! Each lane walks its device's list in that order, waiting on the trigger
//! countdowns until its next subgraph's producers have all run; a trigger
//! that readies the other lane's work wakes it. The replay is one linear
//! extension of the dependency order, so the per-device lists cannot
//! deadlock. A run yields real tensors (host numerics for both devices)
//! and the replay's latency, breakdown and virtual intervals, bit for bit:
//! the executor keeps no clock of its own.
//!
//! A lane polls, runs and triggers; everything a run reports besides its
//! outcome goes to an [`Observer`], the seam the timeline's replay
//! reports to as well: [`HeterogeneousExecutor::run_observed`] has each
//! lane report a subgraph `dispatched` before its numerics, `executed`
//! once its values are stored and before any consumer is triggered, and
//! every GPU-resident output landing on the host. A [`WitnessLog`]
//! records the `D3xx`-checkable event log of [`crate::witness`] from those
//! calls, the same observer the simulator's replay reports to; a
//! [`SpanLog`] records the telemetry spans (run → subgraph → kernel,
//! linked into a request's trace when it has one); for race hunting,
//! [`DelayInjection`] sleeps a seeded random interval in every
//! `dispatched`, perturbing the real interleaving without changing what a
//! correct run may produce. A pair observes with both. [`run`] observes
//! with `()`, which compiles to nothing, so a bare executor records no
//! spans; `Duet::run` pairs its caller's observer with an untraced
//! [`SpanLog`].
//!
//! [`WitnessLog`]: crate::WitnessLog
//! [`SpanLog`]: crate::SpanLog
//! [`DelayInjection`]: crate::DelayInjection
//! [`run`]: HeterogeneousExecutor::run

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use duet_compiler::ArenaPool;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId, Op};
use duet_tensor::Tensor;

use crate::sim::Placed;
use crate::timeline::{Dispatch, ExecBreakdown, Observer, Schedule, Timeline};

/// Result of one heterogeneous inference.
#[derive(Debug)]
pub struct ExecutionOutcome {
    /// Values of the graph outputs, keyed by node id.
    pub outputs: HashMap<NodeId, Tensor>,
    /// End-to-end latency on the modeled hardware, microseconds: the
    /// priced schedule's, [`Timeline::makespan`] bit for bit.
    pub virtual_latency_us: f64,
    /// Wall-clock time of the host-side numeric execution (not the metric
    /// the paper reports — the virtual latency is — but useful for
    /// harness sanity checks).
    pub wall_time: Duration,
    /// How many subgraphs each device executed.
    pub tasks_per_device: HashMap<DeviceKind, usize>,
    /// Virtual-time decomposition of the run.
    pub breakdown: ExecBreakdown,
}

/// What a lane's queue carries: one of its planned subgraphs may have
/// become ready, or the run is over.
enum Msg {
    Wake,
    Stop,
}

/// Sends `Stop` to both lanes if the lane holding it unwinds: the other
/// lane, and the caller joining it, would otherwise wait on an empty queue
/// forever. The panic itself still reaches the caller.
struct StopOnUnwind<F: Fn()>(F);

impl<F: Fn()> Drop for StopOnUnwind<F> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            (self.0)();
        }
    }
}

/// The structure, prices and priced schedule a run executes.
type Plan<'g> = (Cow<'g, Timeline>, Cow<'g, Schedule>);

/// Two-lane dependency-triggered executor for a placed schedule.
pub struct HeterogeneousExecutor<'g> {
    graph: &'g Graph,
    placed: &'g [Placed],
    /// The error of a hand-assembled schedule that does not cover the
    /// graph surfaces at run.
    plan: Result<Plan<'g>, GraphError>,
    pool: Option<&'g ArenaPool>,
}

impl<'g> HeterogeneousExecutor<'g> {
    /// Create an executor over a hand-assembled placed schedule, priced
    /// under `system`. A schedule that does not cover the producer of a
    /// boundary value or of a graph output makes every run return a typed
    /// error (`duet_analysis::lint_plan` checks a plan up front).
    ///
    /// The executor runs one lane per device — on the caller's thread and
    /// at most one scoped thread (module doc) — and does not size the
    /// kernel pool: that is as wide as the machine (`vendor/rayon`,
    /// "Sizing") and process-wide. A lane blocked on its queue costs no
    /// CPU; only while both lanes are inside kernels at once does the
    /// machine carry one runnable thread more than it has CPUs.
    pub fn new(graph: &'g Graph, placed: &'g [Placed], system: SystemModel) -> Self {
        match Timeline::new(graph, placed.iter().map(|p| &*p.sg), &system) {
            Ok(timeline) => Self::with_timeline(graph, placed, timeline),
            Err(e) => Self::over(graph, placed, Err(e.into())),
        }
    }

    /// Create an executor over `placed` that runs on an already built
    /// `timeline` of exactly those subgraphs, priced for the system the
    /// run is to model, and replays it once for the schedule to run.
    pub fn with_timeline(graph: &'g Graph, placed: &'g [Placed], timeline: Timeline) -> Self {
        assert_eq!(timeline.len(), placed.len(), "one row per subgraph");
        let devices: Vec<DeviceKind> = placed.iter().map(|p| p.device).collect();
        let schedule = timeline.schedule(&devices);
        Self::over(
            graph,
            placed,
            Ok((Cow::Owned(timeline), Cow::Owned(schedule))),
        )
    }

    /// Create an executor that runs `schedule`, already replayed on
    /// `timeline` for `placed` — how an engine hands over what it priced
    /// instead of having it derived again.
    pub fn with_schedule(
        graph: &'g Graph,
        placed: &'g [Placed],
        timeline: &'g Timeline,
        schedule: &'g Schedule,
    ) -> Self {
        assert_eq!(
            schedule.dispatches.len(),
            placed.len(),
            "one row per subgraph"
        );
        Self::over(
            graph,
            placed,
            Ok((Cow::Borrowed(timeline), Cow::Borrowed(schedule))),
        )
    }

    fn over(graph: &'g Graph, placed: &'g [Placed], plan: Result<Plan<'g>, GraphError>) -> Self {
        HeterogeneousExecutor {
            graph,
            placed,
            plan,
            pool: None,
        }
    }

    /// Check tape arenas out of `pool` instead of allocating slot slabs
    /// per run — the steady-state serving path.
    pub fn with_arena_pool(mut self, pool: &'g ArenaPool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Execute one inference with the given input feeds.
    pub fn run(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<ExecutionOutcome, GraphError> {
        self.run_observed(feeds, &())
    }

    /// Execute one inference, reporting every dispatch to `observer` from
    /// the lane that runs it (module doc). A panic in the observer ends
    /// the run and reaches the caller, as a panicking subgraph's does.
    pub fn run_observed<O: Observer + Sync>(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
        observer: &O,
    ) -> Result<ExecutionOutcome, GraphError> {
        let wall_start = Instant::now();
        let (timeline, schedule) = match &self.plan {
            Ok((timeline, schedule)) => (&**timeline, &**schedule),
            Err(e) => return Err(e.clone()),
        };
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
        let error: OnceLock<GraphError> = OnceLock::new();

        // One queue per device; each lane owns its receiver. A send fails
        // only once that lane has stopped, when the run is over or failing.
        let [(cpu_tx, cpu_rx), (gpu_tx, gpu_rx)] = [mpsc::channel(), mpsc::channel()];
        let senders = [cpu_tx, gpu_tx];
        let send = |device: DeviceKind, msg: Msg| {
            let _ = senders[device as usize].send(msg);
        };
        let stop = || {
            send(DeviceKind::Cpu, Msg::Stop);
            send(DeviceKind::Gpu, Msg::Stop);
        };

        // Worker loop: walk the device's planned list, wait for the next
        // subgraph's triggers, execute, trigger its consumers.
        let worker = |device: DeviceKind, queue: Receiver<Msg>| {
            let _stop_on_unwind = StopOnUnwind(stop);
            let mine = schedule
                .dispatches
                .iter()
                .filter(|(i, _)| devices[*i] == device);
            for &(i, [start, end]) in mine {
                while pending[i].load(Ordering::Acquire) > 0 {
                    if !matches!(queue.recv(), Ok(Msg::Wake)) {
                        return;
                    }
                }
                let placed = &self.placed[i];
                let at = Dispatch {
                    timeline,
                    devices: &devices,
                    sg: i,
                    name: &placed.sg.name,
                    start_us: start,
                    end_us: end,
                };
                observer.dispatched(&at);

                // Real numerics on the host. Only the values this
                // subgraph's boundary inputs name are cloned out of the
                // shared store — cloning the whole map would be O(n²)
                // traffic on deep graphs.
                let env: HashMap<NodeId, Tensor> = {
                    let store = values.lock().unwrap_or_else(PoisonError::into_inner);
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
                    None => placed.sg.execute(&env),
                };
                match result {
                    Ok(outs) => values
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(outs),
                    Err(e) => {
                        // First error wins: a second worker failing
                        // while we shut down must not mask the
                        // original cause.
                        let _ = error.set(e);
                        stop();
                        return;
                    }
                }
                observer.executed(&at);
                match device {
                    DeviceKind::Cpu => duet_telemetry::registry::EXEC_SUBGRAPHS_CPU.inc(),
                    DeviceKind::Gpu => duet_telemetry::registry::EXEC_SUBGRAPHS_GPU.inc(),
                }
                // Trigger every dependency edge this subgraph feeds, and
                // wake the other lane when one of its subgraphs is ready.
                for &c in timeline.consumers(i) {
                    if pending[c].fetch_sub(1, Ordering::AcqRel) == 1 && devices[c] != device {
                        send(devices[c], Msg::Wake);
                    }
                }
            }
        };
        // The caller is the lane of the device that finishes the run — the
        // last subgraph's — so its result is handed to no other thread; the
        // other device gets a thread only if the placement gives it work.
        let mine = devices.last().copied().unwrap_or(DeviceKind::Cpu);
        let (my_queue, other_queue) = match mine {
            DeviceKind::Cpu => (cpu_rx, gpu_rx),
            DeviceKind::Gpu => (gpu_rx, cpu_rx),
        };
        if !devices.contains(&mine.other()) {
            worker(mine, my_queue);
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let other = scope.spawn(move || worker(mine.other(), other_queue));
                worker(mine, my_queue);
                // A worker's panic continues here, as the scope's own would.
                let resume = |e| std::panic::resume_unwind(e);
                other.join().unwrap_or_else(resume);
            });
        }

        if let Some(e) = error.into_inner() {
            return Err(e);
        }
        for o in timeline.outputs() {
            if devices[o.producer] == DeviceKind::Gpu {
                observer.output_landed(o);
            }
        }
        // Output values. A source named as an output never left the
        // host: the fed tensor or the constant's parameter, exactly as
        // `Graph::eval` returns it.
        let values = values.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut outputs = HashMap::new();
        for &out in self.graph.outputs() {
            let value = match self.graph.node(out).op {
                Op::Input => feeds.get(&out).ok_or(GraphError::MissingFeed(out))?,
                Op::Constant => self.graph.param(out).ok_or(GraphError::UnknownNode(out))?,
                _ => values.get(&out).ok_or(GraphError::MissingFeed(out))?,
            };
            outputs.insert(out, value.clone());
        }
        duet_telemetry::registry::EXEC_RUNS.inc();
        Ok(ExecutionOutcome {
            outputs,
            virtual_latency_us: schedule.latency_us,
            wall_time: wall_start.elapsed(),
            tasks_per_device: HashMap::from(
                DeviceKind::both().map(|d| (d, devices.iter().filter(|&&on| on == d).count())),
            ),
            breakdown: schedule.breakdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_witnessed, SimNoise};
    use crate::witness::{
        DelayInjection, ExecutionWitness, TransferKind, WitnessEvent, WitnessLog, WitnessSource,
    };
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
            .map(|(sg, &device)| Placed {
                sg: sg.into(),
                device,
            })
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

    /// `Start`s on `device`, in log order.
    fn order_of(w: &ExecutionWitness, device: DeviceKind) -> Vec<usize> {
        let on = |e: &WitnessEvent| match e {
            WitnessEvent::Start { sg, device: d, .. } => (*d == device).then_some(*sg),
            _ => None,
        };
        w.events.iter().filter_map(on).collect()
    }

    /// The threaded executor *is* the timeline: a run lands on
    /// `Timeline::makespan` bit for bit, each lane runs its device's
    /// subgraphs in the replay's order, and executor and simulator put the
    /// same events on record for every subgraph. That holds with two lanes
    /// per device too, where the replay overlaps subgraphs that the one
    /// worker per device runs one after the other.
    fn assert_executor_is_the_timeline(g: &Graph, placed: &[Placed]) {
        let paper = SystemModel::paper_server();
        let mut two_lanes = paper.clone();
        two_lanes.cpu = two_lanes.cpu.with_lanes(2, 0.7);
        two_lanes.gpu = two_lanes.gpu.with_lanes(2, 0.7);
        for sys in [paper, two_lanes] {
            let timeline = Timeline::new(g, placed.iter().map(|p| &*p.sg), &sys).unwrap();
            let devices: Vec<DeviceKind> = placed.iter().map(|p| p.device).collect();
            let want = timeline.makespan(&devices).to_bits();
            let exec = HeterogeneousExecutor::new(g, placed, sys.clone());
            let log = WitnessLog::default();
            let real = exec.run_observed(&input_feeds(g, 1), &log).unwrap();
            let exec_w = log.seal(&g.name, WitnessSource::Executor, real.virtual_latency_us);
            assert_eq!(real.virtual_latency_us.to_bits(), want);
            // Each lane's account comes back under its own device, whichever
            // of the two the caller ran.
            for device in DeviceKind::both() {
                let placed_here = devices.iter().filter(|&&d| d == device).count();
                assert_eq!(real.tasks_per_device[&device], placed_here, "{device}");
            }
            let (_, sim_w) = simulate_witnessed(g, placed, &sys, &mut SimNoise::disabled());
            for device in DeviceKind::both() {
                assert_eq!(order_of(&exec_w, device), order_of(&sim_w, device));
            }
            assert_eq!(exec_w.events.len(), sim_w.events.len());
            for sg in (0..placed.len()).map(Some).chain([None]) {
                assert_eq!(events_of(&exec_w, sg), events_of(&sim_w, sg), "{sg:?}");
            }
        }
    }

    #[test]
    fn single_device_runs_equal_the_timeline_bit_for_bit() {
        use DeviceKind::{Cpu, Gpu};
        let g = branchy();
        // One lane, the caller's, runs everything; on the GPU pass the
        // first device has no work.
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

    /// Two dependency-free subgraphs share the GPU lane; the lower index
    /// waits on the larger H2D copy, so the replay starts the higher one
    /// first — and so does the lane, though both are ready at once.
    #[test]
    fn a_lane_runs_its_subgraphs_in_the_replayed_order() {
        use DeviceKind::{Cpu, Gpu};
        let mut b = GraphBuilder::new("uneven_feeds", 4);
        let big = b.input("big", vec![1, 4096]);
        let small = b.input("small", vec![1, 8]);
        let l = b.dense("left", big, 16, Some(Op::Relu)).unwrap();
        let r = b.dense("right", small, 16, Some(Op::Relu)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 4, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        let placed = on(split(&g, &["left", "right"]), &[Gpu, Gpu, Cpu]);
        let sys = SystemModel::paper_server();
        let (_, sim_w) = simulate_witnessed(&g, &placed, &sys, &mut SimNoise::disabled());
        assert_eq!(order_of(&sim_w, Gpu), [1, 0]);
        assert_executor_is_the_timeline(&g, &placed);
    }

    #[test]
    fn single_device_run_works() {
        let g = branchy();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let placed = vec![Placed {
            sg: whole.into(),
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
            sg: whole.into(),
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

    /// Panics in the dispatch of every subgraph placed on its device.
    struct PanicOn(DeviceKind);

    impl Observer for PanicOn {
        fn dispatched(&self, at: &Dispatch<'_>) {
            assert_ne!(at.device(), self.0, "injected fault");
        }
    }

    /// A subgraph that panics, on either lane, ends the run: its panic
    /// comes back to the caller instead of leaving the other lane, or the
    /// caller joining it, blocked on an empty queue. So does an observer
    /// that panics in `dispatched`, a fault the seam hosts on its own.
    #[test]
    fn a_panicking_subgraph_on_either_lane_returns_its_panic() {
        use std::sync::mpsc::RecvTimeoutError;
        use DeviceKind::{Cpu, Gpu};
        fn run_alone<O: Observer + Sync + Send + 'static>(
            g: &Graph,
            placed: Vec<Placed>,
            observer: O,
        ) -> Result<bool, RecvTimeoutError> {
            let g = g.clone();
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
                let _ = tx.send(exec.run_observed(&input_feeds(&g, 1), &observer).is_ok());
            });
            // The panic drops `tx` unsent; a hang times out.
            rx.recv_timeout(Duration::from_secs(10))
        }
        let g = branchy();
        for devices in [[Gpu, Cpu, Cpu], [Cpu, Gpu, Gpu]] {
            for broken in 0..devices.len() {
                let mut placed = on(split(&g, &["left", "right"]), &devices);
                // A destination slot past the arena: the tape indexes out
                // of bounds.
                std::sync::Arc::get_mut(&mut placed[broken].sg)
                    .expect("unshared")
                    .tape
                    .instrs[0]
                    .out = usize::MAX;
                assert_eq!(
                    run_alone(&g, placed, ()),
                    Err(RecvTimeoutError::Disconnected),
                    "{devices:?} with subgraph {broken} broken"
                );
            }
            for lane in DeviceKind::both() {
                let placed = on(split(&g, &["left", "right"]), &devices);
                assert_eq!(
                    run_alone(&g, placed, PanicOn(lane)),
                    Err(RecvTimeoutError::Disconnected),
                    "{devices:?} with the observer panicking on the {lane} lane"
                );
            }
        }
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
            let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
            let err = exec
                .run_observed(&feeds, &DelayInjection::new(seed, 80))
                .unwrap_err();
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
                sg: c.compile_nodes(&g, chunk, format!("c{i}")).into(),
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
        let log = WitnessLog::default();
        let out = exec.run_observed(&input_feeds(&g, 5), &log).unwrap();
        let w = log.seal(&g.name, WitnessSource::Executor, out.virtual_latency_us);
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
            let log = WitnessLog::default();
            let out = exec.run_observed(&feeds, &log).unwrap();
            let witness = log.seal(&g.name, WitnessSource::Executor, out.virtual_latency_us);
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
        let err = exec.run(&input_feeds(&g, 1)).unwrap_err();
        assert!(
            matches!(err, GraphError::MissingFeed(n) if left.node_ids.contains(&n)),
            "{err:?}"
        );
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
    }
}
