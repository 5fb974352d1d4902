//! The `Duet` engine facade (paper Fig. 6).
//!
//! `DuetBuilder::build` runs the full offline pipeline on a pre-trained
//! graph:
//!
//! 1. graph-level compilation (fold/CSE/DCE),
//! 2. coarse-grained multi-phase partitioning,
//! 3. per-subgraph lowering with fusion,
//! 4. compiler-aware profiling on both device models,
//! 5. subgraph scheduling under the chosen policy,
//! 6. the single-device **fallback** check: if heterogeneous execution
//!    does not beat the best single device (e.g. ResNet, §VI-E), DUET
//!    "falls back to the original best-performing single device
//!    execution".
//!
//! The resulting [`Duet`] value can execute inferences (threaded
//! heterogeneous executor), report its placement (Table II), and measure
//! latency distributions (Fig. 11/12).

use std::collections::HashMap;
use std::sync::Arc;

use duet_analysis::{LintConfig, ModelCheckConfig, ModelCheckOutcome, PlanModel};
use duet_compiler::{
    ArenaPool, ArenaPoolStats, CompileError, CompileOptions, CompiledSubgraph, Compiler,
};
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId};
use duet_runtime::{
    measure_stats, HeterogeneousExecutor, LatencyStats, Observer, Placed, Profiler, Schedule,
    ScheduleError, SpanLog, Timeline,
};
use duet_telemetry::TraceContext;
use duet_tensor::Tensor;

use crate::partition::{partition, partition_per_operator, Partition, Phase};
use crate::plan::{fingerprint, PlannedSubgraph, SchedulePlan};
use crate::report::{PlacementReport, SubgraphRow};
use crate::sched::{self, SchedulePolicy, SubgraphUnit};

/// Errors from engine construction.
#[derive(Debug)]
pub enum EngineError {
    /// Graph evaluation or construction failed.
    Graph(GraphError),
    /// Graph optimization failed (a pass errored, or — in check mode —
    /// broke a pipeline invariant).
    Compile(CompileError),
    /// A supplied schedule plan does not fit the model: the
    /// `duet-analysis` plan linter found hard errors, and the report
    /// carries the individual `D2xx` diagnostics.
    Lint(duet_analysis::Report),
    /// The `duet-analysis` plan model checker proved a `D5xx` violation
    /// (reachable deadlock, nondeterministic dispatch, transfer race,
    /// device overcommit) in the scheduling decision. Raised only in
    /// checked builds (`CompileOptions::check`, the debug default).
    ModelCheck(duet_analysis::Report),
    /// The `duet-analysis` dataflow analyzer proved a `D6xx` value
    /// hazard in the optimized model (certain division by zero,
    /// reachable NaN, certain overflow, unsound attribute). Raised only
    /// in checked builds.
    Dataflow(duet_analysis::Report),
    /// The subgraphs do not cover the producer of a boundary value or
    /// of a graph output, so no timeline can be built for them. The
    /// `D2xx` coverage lint is the first line of defence; this is what
    /// a plan that got past it meets instead of a panic.
    Schedule(ScheduleError),
}

impl From<ScheduleError> for EngineError {
    fn from(e: ScheduleError) -> Self {
        EngineError::Schedule(e)
    }
}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Graph(e) => write!(f, "{e}"),
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Lint(r) => write!(f, "{r}"),
            EngineError::ModelCheck(r) => write!(f, "{r}"),
            EngineError::Dataflow(r) => write!(f, "{r}"),
            EngineError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Partitioning granularity (the coarse-vs-fine ablation of §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// The paper's coarse multi-phase partition (default).
    #[default]
    Coarse,
    /// One subgraph per operator — fusion scope destroyed, every edge a
    /// potential transfer. Exists to quantify why DUET stays coarse.
    PerOperator,
    /// Multi-level partitioning (footnote-1 future work): multi-path
    /// branches recursively split into sub-phases, up to the given depth;
    /// branches smaller than 6 nodes stay whole.
    Nested { depth: usize },
}

/// Builder for [`Duet`].
#[derive(Debug, Clone)]
pub struct DuetBuilder {
    system: SystemModel,
    compile_options: CompileOptions,
    policy: SchedulePolicy,
    profile_runs: usize,
    profile_warmup: usize,
    allow_fallback: bool,
    granularity: Granularity,
}

impl Default for DuetBuilder {
    fn default() -> Self {
        DuetBuilder {
            system: SystemModel::paper_server(),
            compile_options: CompileOptions::full(),
            policy: SchedulePolicy::GreedyCorrection,
            profile_runs: 500,
            profile_warmup: 50,
            allow_fallback: true,
            granularity: Granularity::Coarse,
        }
    }
}

impl DuetBuilder {
    /// Target system model (defaults to the paper's server).
    pub fn system(mut self, system: SystemModel) -> Self {
        self.system = system;
        self
    }

    /// Compiler configuration (defaults to all passes on).
    pub fn compile_options(mut self, options: CompileOptions) -> Self {
        self.compile_options = options;
        self
    }

    /// Scheduling policy (defaults to greedy-correction).
    pub fn policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Profiling micro-benchmark repetitions.
    pub fn profile_runs(mut self, runs: usize, warmup: usize) -> Self {
        self.profile_runs = runs;
        self.profile_warmup = warmup;
        self
    }

    /// Disable the single-device fallback (used by ablations that want to
    /// observe the raw heterogeneous schedule).
    pub fn no_fallback(mut self) -> Self {
        self.allow_fallback = false;
        self
    }

    /// Partitioning granularity (defaults to the paper's coarse phases).
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Run the offline pipeline and return a ready engine.
    pub fn build(self, model: &Graph) -> Result<Duet, EngineError> {
        let compiler = Compiler::new(self.compile_options);
        let graph = optimize_gated(&compiler, model)?;

        let part = match self.granularity {
            Granularity::Coarse => partition(&graph),
            Granularity::PerOperator => partition_per_operator(&graph),
            Granularity::Nested { depth } => crate::partition::partition_nested(&graph, depth, 6),
        };
        let subgraphs = part.compile(&graph, &compiler);
        self.assemble(compiler, graph, &part, subgraphs, Decision::Schedule)
    }

    /// Instantiate an engine from a previously exported [`SchedulePlan`],
    /// skipping the scheduler entirely (the production fast path: the
    /// offline decision ships next to the model).
    ///
    /// The `duet-analysis` plan linter gates the plan against the
    /// optimized graph: its structural fingerprint (weight changes are
    /// fine, architecture changes are not), its batch size, exact
    /// coverage of the compute nodes, and acyclic subgraph dependencies.
    /// Any `D2xx` error is [`EngineError::Lint`]; warnings are advisory.
    pub fn build_with_plan(self, model: &Graph, plan: &SchedulePlan) -> Result<Duet, EngineError> {
        let compiler = Compiler::new(self.compile_options);
        let graph = optimize_gated(&compiler, model)?;
        let lint = duet_analysis::lint_plan(&graph, &plan.to_facts(), &LintConfig::default());
        if lint.has_errors() {
            return Err(EngineError::Lint(lint));
        }

        // Reconstruct phases from the plan (grouped by phase index).
        let mut phases: Vec<Phase> = Vec::new();
        for p in &plan.subgraphs {
            if phases.len() <= p.phase {
                phases.resize_with(p.phase + 1, || Phase {
                    kind: p.kind,
                    subgraphs: Vec::new(),
                });
            }
            phases[p.phase].kind = p.kind;
            phases[p.phase].subgraphs.push(p.nodes.clone());
        }
        let part = Partition { phases };
        let subgraphs: Vec<_> = plan
            .subgraphs
            .iter()
            .map(|p| Arc::new(compiler.compile_nodes(&graph, &p.nodes, p.name.clone())))
            .collect();
        self.assemble(compiler, graph, &part, subgraphs, Decision::Replay(plan))
    }

    /// The shared tail of both builds: profile, build the timing core,
    /// take the scheduling decision (the policy's, or the replayed
    /// plan's), resolve the fallback, and — in checked builds —
    /// model-check.
    fn assemble(
        self,
        compiler: Compiler,
        graph: Graph,
        part: &Partition,
        subgraphs: Vec<Arc<CompiledSubgraph>>,
        decision: Decision<'_>,
    ) -> Result<Duet, EngineError> {
        let profiler =
            Profiler::new(self.system.clone()).with_runs(self.profile_runs, self.profile_warmup);
        let profiles = profiler.profile_all(&graph, &subgraphs);
        let units = sched::make_units(part, subgraphs, profiles);
        let timeline = Timeline::new(&graph, units.iter().map(|u| &*u.sg), &self.system)?;
        let (devices, batch, dictated_fallback) = match decision {
            Decision::Schedule => (
                sched::schedule(&timeline, &units, &self.system, self.policy),
                graph.leading_batch().unwrap_or(1),
                None,
            ),
            Decision::Replay(plan) => (
                plan.subgraphs.iter().map(|p| p.device).collect(),
                plan.batch,
                Some(plan.fallback),
            ),
        };

        // Single-device baselines use whole-graph compilation (maximum
        // fusion scope — the best the compiler can do on one device).
        let whole = Arc::new(compiler.compile_whole(&graph, graph.name.clone()));
        let whole_timeline = Timeline::new(&graph, [&*whole], &self.system)?;
        let duet = Duet::resolve(
            Scheduled {
                graph,
                units,
                devices,
                system: self.system,
                timeline,
                whole,
                whole_timeline,
                allow_fallback: self.allow_fallback,
                batch,
                arenas: Arc::new(ArenaPool::new()),
            },
            dictated_fallback,
        );
        // Checked builds prove the D5xx properties of the scheduling
        // decision — the scheduler's own, or an untrusted plan's —
        // before handing it to anyone.
        if self.compile_options.check {
            let outcome = duet.check_plan(&ModelCheckConfig::default());
            if outcome.report.has_errors() {
                return Err(EngineError::ModelCheck(outcome.report));
            }
        }
        Ok(duet)
    }
}

/// Optimize `model`; in checked builds also pass the D6xx gate: the
/// dataflow analyzer must prove the optimized graph free of certain
/// value hazards (division by zero, reachable NaN, overflow to Inf,
/// unsound attributes). Warnings (`D603` dead-by-constant) do not block
/// the build. The gate reads the facts the checked optimizer already
/// computed for this graph.
fn optimize_gated(compiler: &Compiler, model: &Graph) -> Result<Graph, EngineError> {
    let (graph, _stats, facts) = compiler.optimize_with_facts(model)?;
    if let Some(facts) = facts {
        let report = duet_analysis::dataflow_report(&graph, &facts);
        if report.has_errors() {
            return Err(EngineError::Dataflow(report));
        }
    }
    Ok(graph)
}

/// Where an engine's device vector comes from.
enum Decision<'a> {
    /// Run the builder's policy; the §VI-E rule decides the fallback.
    Schedule,
    /// Replay an exported plan, fallback included.
    Replay(&'a SchedulePlan),
}

/// Everything an engine is made of except the fallback resolution:
/// what [`Duet::resolve`] turns into a [`Duet`].
struct Scheduled {
    graph: Graph,
    units: Vec<SubgraphUnit>,
    devices: Vec<DeviceKind>,
    system: SystemModel,
    timeline: Timeline,
    whole: Arc<CompiledSubgraph>,
    whole_timeline: Timeline,
    allow_fallback: bool,
    batch: usize,
    arenas: Arc<ArenaPool>,
}

/// A scheduled, ready-to-run DUET engine for one model.
#[derive(Debug)]
pub struct Duet {
    graph: Graph,
    units: Vec<SubgraphUnit>,
    devices: Vec<DeviceKind>,
    placed: Vec<Placed>,
    /// What one noise-free replay of `placed` dispatched: the latency
    /// the engine claims and the order its runs execute.
    schedule: Schedule,
    cpu_only_us: f64,
    gpu_only_us: f64,
    fallback: Option<DeviceKind>,
    system: SystemModel,
    /// The timing core over `units`: structure built once per engine
    /// lineage, re-priced (not rebuilt) by [`Duet::recorrect`].
    timeline: Timeline,
    /// Whole-graph compilation, for single-device execution.
    whole: Arc<CompiledSubgraph>,
    /// Timing core over `whole`: the single-device baselines.
    whole_timeline: Timeline,
    allow_fallback: bool,
    batch: usize,
    /// Tape-arena pool shared by every executor this engine creates, so
    /// repeated inferences recycle slot buffers instead of allocating.
    arenas: Arc<ArenaPool>,
}

/// Minimum relative improvement heterogeneous execution must deliver
/// over the best single device to be kept. Sub-threshold "wins" are
/// measurement noise plus avoidable PCIe traffic, so DUET falls back —
/// this is what keeps ResNet on one device (§VI-E).
const MIN_GAIN: f64 = 0.02;

impl Duet {
    /// Start building an engine.
    pub fn builder() -> DuetBuilder {
        DuetBuilder::default()
    }

    /// Price the heterogeneous placement and both single-device
    /// baselines on the engine's timelines and settle the fallback:
    /// `dictated` (a replayed plan's recorded decision) if given,
    /// otherwise the §VI-E rule — heterogeneous execution is kept only
    /// if it beats the best single device by [`MIN_GAIN`].
    fn resolve(s: Scheduled, dictated: Option<Option<DeviceKind>>) -> Duet {
        let hetero = s.timeline.schedule(&s.devices);
        let hetero_us = hetero.latency_us();
        let cpu_only_us = s.whole_timeline.makespan(&[DeviceKind::Cpu]);
        let gpu_only_us = s.whole_timeline.makespan(&[DeviceKind::Gpu]);
        let best_single = cpu_only_us.min(gpu_only_us);
        let fallback = dictated.unwrap_or_else(|| {
            (s.allow_fallback && hetero_us > best_single * (1.0 - MIN_GAIN)).then_some(
                if cpu_only_us <= gpu_only_us {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
            )
        });
        let (placed, schedule) = match fallback {
            Some(device) => (
                vec![Placed {
                    sg: Arc::clone(&s.whole),
                    device,
                }],
                s.whole_timeline.schedule(&[device]),
            ),
            None => (sched::to_placed(&s.units, &s.devices), hetero),
        };
        Duet {
            graph: s.graph,
            units: s.units,
            devices: s.devices,
            placed,
            schedule,
            cpu_only_us,
            gpu_only_us,
            fallback,
            system: s.system,
            timeline: s.timeline,
            whole: s.whole,
            whole_timeline: s.whole_timeline,
            allow_fallback: s.allow_fallback,
            batch: s.batch,
            arenas: s.arenas,
        }
    }

    /// The timing core over [`Duet::units`]: one
    /// [`Timeline::makespan`] prices any device vector for them under
    /// [`Duet::system`].
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The timing core over [`Duet::placed`] — the units' timeline, or
    /// the whole-graph one when the engine fell back to a single device.
    pub fn placed_timeline(&self) -> &Timeline {
        match self.fallback {
            Some(_) => &self.whole_timeline,
            None => &self.timeline,
        }
    }

    /// The optimized graph the engine executes (node ids refer to this
    /// graph, not the one passed to `build`).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The active schedule (fallback-resolved).
    pub fn placed(&self) -> &[Placed] {
        &self.placed
    }

    /// The profiled scheduling units (one per planned subgraph).
    pub fn units(&self) -> &[SubgraphUnit] {
        &self.units
    }

    /// The per-subgraph device decision (before fallback resolution).
    pub fn devices(&self) -> &[DeviceKind] {
        &self.devices
    }

    /// Batch size the engine's graph was built for (leading output dim).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The system model scheduled against.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// Whether the engine fell back to single-device execution.
    pub fn fallback_device(&self) -> Option<DeviceKind> {
        self.fallback
    }

    /// Scheduled (noise-free) end-to-end latency, microseconds.
    pub fn latency_us(&self) -> f64 {
        self.schedule.latency_us()
    }

    /// Noise-free latency of single-device execution.
    pub fn single_device_latency_us(&self, device: DeviceKind) -> f64 {
        match device {
            DeviceKind::Cpu => self.cpu_only_us,
            DeviceKind::Gpu => self.gpu_only_us,
        }
    }

    /// Execute one inference on the threaded heterogeneous engine; its
    /// telemetry spans go to the global ring, untraced.
    pub fn run(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
    ) -> Result<duet_runtime::executor::ExecutionOutcome, GraphError> {
        self.run_observed(feeds, &())
    }

    /// [`Duet::run`], reporting every dispatch to `observer` — a
    /// [`WitnessLog`] records the ordered event log the `duet-analysis`
    /// D3xx conformance checker (and `duet trace`) consumes. Either way
    /// the run's telemetry spans go to the global ring, untraced.
    ///
    /// [`WitnessLog`]: duet_runtime::WitnessLog
    pub fn run_observed<O: Observer + Sync>(
        &self,
        feeds: &HashMap<NodeId, Tensor>,
        observer: &O,
    ) -> Result<duet_runtime::executor::ExecutionOutcome, GraphError> {
        let spans = SpanLog::new(TraceContext::UNTRACED);
        let outcome = self
            .executor_with(self.system.clone())
            .run_observed(feeds, &(observer, &spans))?;
        spans.seal(outcome.virtual_latency_us);
        Ok(outcome)
    }

    /// Build a pooled executor over this engine's schedule under an
    /// arbitrary system model (duet-serve runs against the *deployed*
    /// model, which may drift from the one the plan was made with). Under
    /// the engine's own system it runs the schedule priced at build;
    /// under another, the placement is re-priced and replayed once.
    /// Arenas come from the engine's shared pool, so steady-state
    /// inference reuses slot buffers across requests.
    pub fn executor_with(&self, system: SystemModel) -> HeterogeneousExecutor<'_> {
        let (graph, placed, timeline) = (&self.graph, &self.placed, self.placed_timeline());
        let executor = if system == self.system {
            HeterogeneousExecutor::with_schedule(graph, placed, timeline, &self.schedule)
        } else {
            let mut timeline = timeline.clone();
            timeline.reprice(&system);
            HeterogeneousExecutor::with_timeline(graph, placed, timeline)
        };
        executor.with_arena_pool(&self.arenas)
    }

    /// Lower the tape of every subgraph [`Duet::placed`] runs now, not in
    /// the first run. Tapes are shared with every engine derived from
    /// this one that places the same subgraphs.
    pub fn lower_tapes(&self) {
        for p in &self.placed {
            let _lowered = &*p.sg.tape;
        }
    }

    /// Arena-pool checkout statistics (created vs. reused).
    pub fn arena_stats(&self) -> ArenaPoolStats {
        self.arenas.stats()
    }

    /// Measure the latency distribution over repeated (noisy, seeded)
    /// simulated runs — the paper's 5000-run methodology.
    pub fn measure(&self, runs: usize, seed: u64) -> LatencyStats {
        measure_stats(&self.graph, &self.placed, &self.system, runs, seed)
    }

    /// Export the scheduling decision as a serializable plan (the
    /// offline phase's deployment artifact).
    pub fn export_plan(&self) -> SchedulePlan {
        SchedulePlan {
            model: self.graph.name.clone(),
            fingerprint: fingerprint(&self.graph),
            batch: self.batch,
            subgraphs: self
                .units
                .iter()
                .zip(&self.devices)
                .map(|(u, &device)| PlannedSubgraph {
                    name: u.sg.name.clone(),
                    phase: u.phase,
                    kind: u.kind,
                    nodes: u.sg.node_ids.clone(),
                    device,
                })
                .collect(),
            fallback: self.fallback,
            expected_latency_us: self.latency_us(),
            critical_path_lb_us: Some(self.critical_path_lower_bound_us()),
        }
    }

    /// Critical-path lower bound on the makespan of *any* placement of
    /// this engine's subgraphs, microseconds (chain bound ∨ work bound;
    /// see [`sched::critical_path_lower_bound_us`]). No device
    /// assignment — tuned, corrected, or exhaustively enumerated — can
    /// simulate below this, which makes `latency_us() / bound` the
    /// engine's "how far from optimal" readout.
    pub fn critical_path_lower_bound_us(&self) -> f64 {
        sched::critical_path_lower_bound_us(&self.timeline)
    }

    /// Re-place this engine's *already compiled and profiled* subgraphs
    /// onto an explicit device vector and return the resulting engine —
    /// the autotuner's promotion path. Everything expensive (graph
    /// optimization, partitioning, lowering, profiling) is reused; only
    /// the fallback decision re-runs, so instantiating a candidate costs
    /// three replays of timelines the engine already holds.
    ///
    /// The fallback rule is the same as [`DuetBuilder::build`]: if the
    /// proposed heterogeneous placement does not beat the best single
    /// device by 2 %, the returned engine records a fallback (a
    /// tuned plan must not smuggle a sub-threshold win past the §VI-E
    /// guardrail).
    ///
    /// Panics if `devices.len()` differs from `units().len()`.
    pub fn with_devices(&self, devices: Vec<DeviceKind>) -> Duet {
        assert_eq!(
            devices.len(),
            self.units.len(),
            "one device per scheduling unit"
        );
        Duet::resolve(
            Scheduled {
                graph: self.graph.clone(),
                units: self.units.clone(),
                devices,
                system: self.system.clone(),
                timeline: self.timeline.clone(),
                whole: Arc::clone(&self.whole),
                whole_timeline: self.whole_timeline.clone(),
                allow_fallback: self.allow_fallback,
                batch: self.batch,
                // Same compiled tapes — candidates can share the pool.
                arenas: Arc::clone(&self.arenas),
            },
            None,
        )
    }

    /// Model-check this engine's scheduling decision (`D5xx`): over the
    /// happens-before closure of the run its executor takes — trigger
    /// edges plus each device lane's dispatch order — prove
    /// deadlock-freedom, determinism, transfer-race freedom, occupancy
    /// soundness and bounded trigger staleness.
    ///
    /// The model is priced from the engine's own timeline — the very
    /// execution table its claimed latency was replayed from, and the
    /// replay whose order the executor walks — so the `D503` occupancy
    /// bound is checked against what the plan's `expected_latency_us`
    /// actually claims. A structurally unmodelable plan comes back as
    /// [`Duet::plan_model`]'s lint report. Checked builds run this
    /// automatically and refuse dirty plans; it is public so serving can
    /// gate hot-swaps and tools can render counterexamples.
    pub fn check_plan(&self, cfg: &ModelCheckConfig) -> ModelCheckOutcome {
        match self.plan_model() {
            Ok(model) => duet_analysis::check_plan_model(&model, cfg),
            Err(report) => ModelCheckOutcome {
                report,
                stats: Default::default(),
                counterexample: None,
            },
        }
    }

    /// The priced [`PlanModel`] of this engine's scheduling decision —
    /// the model checker's input, exposed so callers (the serving
    /// hot-swap gate, chaos tests) can perturb it before checking.
    /// `Err` carries the lint report of a structurally unmodelable plan.
    pub fn plan_model(&self) -> Result<PlanModel, duet_analysis::Report> {
        let facts = self.export_plan().to_facts();
        let mut model = PlanModel::from_facts(&self.graph, &facts)?;
        // The plan's subgraphs are the heterogeneous units even when a
        // fallback was recorded (self.placed is then the whole-graph
        // compilation, which has a different shape).
        model.price_with(&self.timeline, self.units.iter().map(|u| &*u.sg));
        Ok(model)
    }

    /// Re-run the offline correction pass (Algorithm 1, step 3) against a
    /// *changed* system model and return a re-scheduled engine — the
    /// serving runtime's response to sustained drift between predicted
    /// and measured latency (§IV-C refines on measured cost precisely
    /// because analytic estimates go stale).
    ///
    /// Partitioning, compilation and the timelines' structure are reused
    /// as-is; only profiling, the timelines' prices, the correction
    /// sweep (seeded from the current placement) and the single-device
    /// fallback decision re-run under `system`. Nothing here can fail:
    /// coverage was established when the engine was built.
    pub fn recorrect(&self, system: SystemModel) -> Duet {
        // Re-profiling is pure cost-model evaluation over the seeded
        // micro-benchmark draws, which the profiler makes once per process,
        // so the run count no longer buys time. It stays at 100/10 because
        // every recorrected price, and the `results/` files built on them,
        // depend on it.
        let profiler = Profiler::new(system.clone()).with_runs(100, 10);
        let units: Vec<SubgraphUnit> = self
            .units
            .iter()
            .map(|u| SubgraphUnit {
                phase: u.phase,
                kind: u.kind,
                sg: Arc::clone(&u.sg),
                profile: profiler.profile(&self.graph, &u.sg),
            })
            .collect();
        // Same subgraphs, new prices: the structure is not rebuilt.
        let mut timeline = self.timeline.clone();
        timeline.reprice(&system);
        let mut whole_timeline = self.whole_timeline.clone();
        whole_timeline.reprice(&system);
        let devices = sched::greedy::correct(&timeline, &units, self.devices.clone());
        Duet::resolve(
            Scheduled {
                graph: self.graph.clone(),
                units,
                devices,
                system,
                timeline,
                whole: Arc::clone(&self.whole),
                whole_timeline,
                allow_fallback: self.allow_fallback,
                batch: self.batch,
                arenas: Arc::new(ArenaPool::new()),
            },
            None,
        )
    }

    /// The Table II report: per-subgraph profiled costs and placements.
    pub fn placement_report(&self) -> PlacementReport {
        let subgraphs = self
            .units
            .iter()
            .zip(&self.devices)
            .map(|(u, &device)| SubgraphRow {
                name: u.sg.name.clone(),
                phase: u.phase,
                kind: u.kind,
                cpu_us: u.profile.cpu_time_us,
                gpu_us: u.profile.gpu_time_us,
                device: self.fallback.unwrap_or(device),
                input_bytes: u.profile.input_bytes,
                output_bytes: u.profile.output_bytes,
                kernels: u.profile.kernel_count,
                planned_peak_bytes: u.sg.tape.plan.planned_peak_bytes,
                naive_peak_bytes: u.sg.tape.plan.naive_peak_bytes,
            })
            .collect();
        PlacementReport {
            model: self.graph.name.clone(),
            subgraphs,
            latency_us: self.latency_us(),
            cpu_only_us: self.cpu_only_us,
            gpu_only_us: self.gpu_only_us,
            fallback: self.fallback,
            critical_path_lb_us: self.critical_path_lower_bound_us(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::{
        input_feeds, mtdnn, resnet, siamese, wide_and_deep, MtDnnConfig, ResNetConfig,
        SiameseConfig, WideAndDeepConfig,
    };

    #[test]
    fn wide_and_deep_schedules_heterogeneously_and_wins() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let duet = Duet::builder().build(&g).unwrap();
        assert!(duet.fallback_device().is_none(), "W&D should co-execute");
        let report = duet.placement_report();
        // Table II row 1: RNN on CPU, CNN on GPU.
        let rnn = report
            .subgraphs
            .iter()
            .find(|r| r.name.starts_with("rnn"))
            .unwrap();
        let cnn = report
            .subgraphs
            .iter()
            .find(|r| r.name.starts_with("cnn@"))
            .unwrap();
        assert_eq!(rnn.device, DeviceKind::Cpu);
        assert_eq!(cnn.device, DeviceKind::Gpu);
        assert!(
            report.speedup_vs_best_single() > 1.2,
            "{}",
            report.speedup_vs_best_single()
        );
    }

    #[test]
    fn resnet_falls_back_to_gpu() {
        let g = resnet(&ResNetConfig::default());
        let duet = Duet::builder().build(&g).unwrap();
        // §VI-E: sequential CNN → DUET offers the best single device (GPU).
        assert_eq!(duet.fallback_device(), Some(DeviceKind::Gpu));
        assert_eq!(
            duet.latency_us(),
            duet.single_device_latency_us(DeviceKind::Gpu)
        );
    }

    #[test]
    fn siamese_and_mtdnn_beat_single_device() {
        for g in [
            siamese(&SiameseConfig::default()),
            mtdnn(&MtDnnConfig::default()),
        ] {
            let duet = Duet::builder().build(&g).unwrap();
            assert!(
                duet.fallback_device().is_none(),
                "{} should co-execute",
                g.name
            );
            let best = duet
                .single_device_latency_us(DeviceKind::Cpu)
                .min(duet.single_device_latency_us(DeviceKind::Gpu));
            assert!(duet.latency_us() < best, "{}", g.name);
        }
    }

    #[test]
    fn checked_build_rejects_proven_dataflow_hazard() {
        use duet_ir::Op;
        // A BatchNorm whose constant variance is provably negative makes
        // rsqrt(var + eps) NaN on every run — the D6xx gate must refuse
        // to build it in checked mode.
        let mut g = Graph::new("bn_bad");
        let x = g.add_input("x", vec![1, 4, 8, 8]);
        let gamma = g.add_constant("gamma", Tensor::ones(vec![4]));
        let beta = g.add_constant("beta", Tensor::zeros(vec![4]));
        let mean = g.add_constant("mean", Tensor::zeros(vec![4]));
        let var = g.add_constant("var", Tensor::full(vec![4], -0.5));
        let bn = g
            .add_op("bn", Op::BatchNorm2d, &[x, gamma, beta, mean, var])
            .unwrap();
        g.mark_output(bn).unwrap();

        let err = Duet::builder()
            .compile_options(CompileOptions::checked())
            .build(&g)
            .unwrap_err();
        match err {
            EngineError::Dataflow(report) => {
                assert!(report.contains(duet_analysis::codes::DATAFLOW_NAN))
            }
            other => panic!("expected Dataflow error, got {other}"),
        }

        // Unchecked builds skip the gate (hazards are a lint concern,
        // not a hard failure, when the user opts out of checking).
        Duet::builder()
            .compile_options(CompileOptions::default().with_check(false))
            .build(&g)
            .unwrap();
    }

    #[test]
    fn run_produces_reference_results() {
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        let feeds = input_feeds(duet.graph(), 5);
        let outcome = duet.run(&feeds).unwrap();
        let want = duet.graph().eval(&feeds).unwrap();
        let out_id = duet.graph().outputs()[0];
        assert!(outcome.outputs[&out_id].approx_eq(&want[0], 1e-5));
    }

    #[test]
    fn arena_pool_recycles_across_runs() {
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        let feeds = input_feeds(duet.graph(), 3);
        for _ in 0..3 {
            duet.run(&feeds).unwrap();
        }
        let stats = duet.arena_stats();
        assert!(stats.created > 0, "pool never created an arena");
        assert!(
            stats.reused > 0,
            "repeated runs never recycled an arena (created {})",
            stats.created
        );
    }

    #[test]
    fn witnessed_run_is_conformant_and_matches_reference() {
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        let feeds = input_feeds(duet.graph(), 5);
        let log = duet_runtime::WitnessLog::default();
        let outcome = duet.run_observed(&feeds, &log).unwrap();
        let witness = log.seal(
            &duet.graph().name,
            duet_runtime::WitnessSource::Executor,
            outcome.virtual_latency_us,
        );
        let want = duet.graph().eval(&feeds).unwrap();
        let out_id = duet.graph().outputs()[0];
        assert!(outcome.outputs[&out_id].approx_eq(&want[0], 1e-5));
        let report = duet_analysis::check_witness(
            duet.graph(),
            duet.placed(),
            duet.system(),
            &witness,
            &duet_analysis::WitnessCheckConfig::default(),
        );
        assert!(report.is_clean(), "witness must check clean:\n{report}");
    }

    #[test]
    fn measure_returns_tail_statistics() {
        let g = siamese(&SiameseConfig::default());
        let duet = Duet::builder().build(&g).unwrap();
        let stats = duet.measure(500, 1);
        assert!(stats.p999() >= stats.p50());
        assert!((stats.p50() - duet.latency_us()).abs() / duet.latency_us() < 0.1);
    }

    #[test]
    fn pinned_policy_respected() {
        let g = siamese(&SiameseConfig::default());
        let duet = Duet::builder()
            .policy(SchedulePolicy::Pin(DeviceKind::Gpu))
            .no_fallback()
            .build(&g)
            .unwrap();
        assert!(duet.placed().iter().all(|p| p.device == DeviceKind::Gpu));
    }

    #[test]
    fn per_operator_granularity_never_beats_coarse() {
        for g in [
            wide_and_deep(&WideAndDeepConfig::default()),
            siamese(&SiameseConfig::default()),
        ] {
            let coarse = Duet::builder().no_fallback().build(&g).unwrap();
            let fine = Duet::builder()
                .granularity(Granularity::PerOperator)
                .no_fallback()
                .build(&g)
                .unwrap();
            assert!(
                coarse.latency_us() <= fine.latency_us() * 1.001,
                "{}: coarse {} vs per-op {}",
                g.name,
                coarse.latency_us(),
                fine.latency_us()
            );
            assert!(fine.placed().len() > coarse.placed().len());
        }
    }

    #[test]
    fn flops_proxy_policy_degrades_latency() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let proxy = Duet::builder()
            .policy(SchedulePolicy::FlopsProxy)
            .no_fallback()
            .build(&g)
            .unwrap();
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        assert!(proxy.latency_us() > 1.5 * duet.latency_us());
    }

    #[test]
    fn cpu_lanes_help_twin_tower_models() {
        let g = siamese(&SiameseConfig::default());
        let base = Duet::builder().build(&g).unwrap().latency_us();
        let mut sys = duet_device::SystemModel::paper_server();
        sys.cpu = sys.cpu.with_lanes(2, 0.7);
        let lanes = Duet::builder().system(sys).build(&g).unwrap().latency_us();
        assert!(lanes < base, "lanes {lanes} < base {base}");
    }

    #[test]
    fn mobilenet_is_a_fallback_model() {
        use duet_models::{mobilenet, MobileNetConfig};
        let g = mobilenet(&MobileNetConfig::default());
        let duet = Duet::builder().build(&g).unwrap();
        assert_eq!(duet.fallback_device(), Some(DeviceKind::Gpu));
    }

    #[test]
    fn export_plan_records_batch() {
        let g = wide_and_deep(&WideAndDeepConfig {
            batch: 4,
            ..WideAndDeepConfig::small()
        });
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        assert_eq!(duet.batch(), 4);
        let plan = duet.export_plan();
        assert_eq!(plan.batch, 4);
        // And the round trip through JSON + build_with_plan keeps it.
        let plan = crate::plan::SchedulePlan::from_json(&plan.to_json()).unwrap();
        let rebuilt = Duet::builder()
            .no_fallback()
            .build_with_plan(&g, &plan)
            .unwrap();
        assert_eq!(rebuilt.batch(), 4);
    }

    #[test]
    fn plan_missing_a_producer_is_rejected_without_unwinding() {
        // The matching `Timeline::new` case (typed `ScheduleError`) is
        // tested next to the constructor; an engine never gets that far,
        // because the lint gate in front of it answers first — and
        // neither of them panics.
        use duet_analysis::codes;
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        let rejected = |edit: fn(&mut SchedulePlan)| {
            let mut plan = duet.export_plan();
            edit(&mut plan);
            match Duet::builder().no_fallback().build_with_plan(&g, &plan) {
                Err(EngineError::Lint(report)) => report,
                Err(e) => panic!("not a lint rejection: {e}"),
                Ok(_) => panic!("plan accepted"),
            }
        };
        let stale = rejected(|p| p.fingerprint ^= 1);
        assert_eq!(stale.error_count(), 1, "{stale}");
        assert!(stale.contains(codes::PLAN_STALE_FINGERPRINT), "{stale}");
        let batch = rejected(|p| p.batch = 4);
        assert!(batch.contains(codes::PLAN_BATCH_MISMATCH), "{batch}");
        let uncovered = rejected(|p| {
            p.subgraphs.remove(0);
        });
        assert!(uncovered.contains(codes::PLAN_UNCOVERED), "{uncovered}");
    }

    #[test]
    fn recorrect_adapts_placement_to_a_degraded_system() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();

        // The deployed GPU degrades badly (thermal throttling, contention):
        // an order of magnitude less compute, slower memory, pricier
        // launches.
        let mut sys = duet_device::SystemModel::paper_server();
        sys.gpu.peak_gflops /= 12.0;
        sys.gpu.mem_bw_gbps /= 8.0;
        sys.gpu.kernel_launch_us *= 8.0;

        // Cost of keeping the *old* placement on the degraded system.
        let stale_us = duet_runtime::measure_latency(duet.graph(), duet.placed(), &sys);
        let corrected = duet.recorrect(sys.clone());
        assert_eq!(corrected.batch(), duet.batch());
        // Correction never hurts, and under this much drift it must win.
        assert!(
            corrected.latency_us() < stale_us,
            "recorrected {} vs stale {}",
            corrected.latency_us(),
            stale_us
        );
        // The corrected placement differs from the stale one.
        assert_ne!(corrected.devices(), duet.devices());
    }

    #[test]
    fn critical_path_bound_is_sound_and_with_devices_reuses_artifacts() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let duet = Duet::builder().no_fallback().build(&g).unwrap();
        let lb = duet.critical_path_lower_bound_us();
        assert!(lb > 0.0);
        assert!(
            duet.latency_us() >= lb - 1e-9,
            "bound must be a lower bound"
        );
        // Re-placing on the engine's own devices reproduces its latency
        // exactly, and every single-flip neighbor still respects the
        // bound.
        let same = duet.with_devices(duet.devices().to_vec());
        assert_eq!(same.latency_us().to_bits(), duet.latency_us().to_bits());
        for i in 0..duet.devices().len() {
            let mut devices = duet.devices().to_vec();
            devices[i] = devices[i].other();
            let cand = duet.with_devices(devices.clone());
            assert_eq!(cand.devices(), &devices[..]);
            assert!(cand.latency_us() >= lb - 1e-9);
        }
    }

    #[test]
    fn with_devices_keeps_the_fallback_guardrail() {
        // A deliberately bad placement must not smuggle a sub-threshold
        // "win" past the §VI-E fallback rule.
        let g = resnet(&ResNetConfig::default());
        let duet = Duet::builder().build(&g).unwrap();
        let all_cpu = vec![DeviceKind::Cpu; duet.units().len()];
        let cand = duet.with_devices(all_cpu);
        assert_eq!(cand.fallback_device(), Some(DeviceKind::Gpu));
        assert_eq!(
            cand.latency_us(),
            cand.single_device_latency_us(DeviceKind::Gpu)
        );
    }

    #[test]
    fn greedy_correction_matches_ideal_on_small_models() {
        // The paper verifies empirically that greedy-correction finds the
        // optimum when enumeration is feasible.
        for g in [
            siamese(&SiameseConfig::default()),
            wide_and_deep(&WideAndDeepConfig::default()),
        ] {
            let gc = Duet::builder()
                .policy(SchedulePolicy::GreedyCorrection)
                .build(&g)
                .unwrap();
            let ideal = Duet::builder()
                .policy(SchedulePolicy::Ideal)
                .build(&g)
                .unwrap();
            let rel = (gc.latency_us() - ideal.latency_us()) / ideal.latency_us();
            assert!(
                rel.abs() < 0.01,
                "{}: gc {} vs ideal {}",
                g.name,
                gc.latency_us(),
                ideal.latency_us()
            );
        }
    }
}
