//! The plan model checker (`D5xx`): exhaustive interleaving exploration
//! of a schedule plan's concurrent execution, *before* it runs.
//!
//! The D3xx conformance checker is dynamic — it can only condemn a plan
//! after a bad run happened in production. This pass is the static
//! counterpart: it extracts a small event-system abstraction of the
//! plan ([`PlanModel`]) and explores **every** reachable state of its
//! concurrent execution, proving per plan:
//!
//! * **D500 deadlock-freedom** — no reachable state has unfinished
//!   subgraphs yet no enabled event (a trigger cycle or phantom
//!   dependency stalls the engine forever);
//! * **D501 schedule-determinism** — in no interleaving can a subgraph
//!   dispatch while the producer of one of its boundary inputs is still
//!   unfinished (a dropped trigger edge makes the read race the write,
//!   so outputs depend on the interleaving);
//! * **D502 transfer/aliasing race freedom** — no transfer departs
//!   while the producer may still be mutating the buffer, and every
//!   value crossing a subgraph boundary is an *escaped* tape output
//!   (cross-check of the D4xx memory plan: a recycled or in-place slot
//!   must never be read from outside after the producer moves on);
//! * **D503 device-occupancy soundness** — the plan's claimed latency
//!   admits at most one subgraph at a time per single-lane device: a
//!   plan whose serialized per-device work exceeds its own
//!   `expected_latency_us` is promising intra-device concurrency the
//!   engine does not have (a double-booked device);
//! * **D504 bounded trigger staleness** — under `DelayInjection`-style
//!   perturbation, the number of other completions that can interleave
//!   between a trigger edge's producer finishing and its consumer
//!   starting stays within a bound (a stale trigger value must survive
//!   at most that many arena-recycling opportunities).
//!
//! ## State abstraction
//!
//! A state is the pair of bitmasks `(started, finished)`; *running* is
//! their difference. Events are `Start(i)` — enabled when `i` has not
//! started, every declared trigger producer has finished, and the
//! subgraph's device has a free lane — and `Finish(i)` — enabled while
//! `i` runs. This mirrors the threaded executor's run-to-completion
//! dispatch (one worker per device, trigger countdowns) and the
//! simulator's per-device serialization, while quantifying over *all*
//! cross-device interleavings instead of the one a particular run takes.
//!
//! ## Reduction
//!
//! Exploration memoizes the visited frontier (states are revisited by
//! many interleavings but expanded once) and applies a sleep-set
//! partial-order reduction over provably independent sibling events
//! (`Finish`/`Finish` always commute; `Start`/`Start` on distinct
//! devices commute; `Start`/`Finish` commute whenever both are enabled,
//! which forces distinct devices). Property checks are evaluated for
//! every enabled `Start` at state-expansion time, so pruning only skips
//! redundant *transitions*, never a check: a skipped `(state, Start)`
//! pair was already checked at an ancestor state with a subset of the
//! finished mask, where the check is strictly harder to pass. Paper-
//! scale zoo plans explore well under a thousand states and check in
//! well under a millisecond each.
//!
//! ## Counterexamples
//!
//! The first violation's event path is replayed into a synthetic
//! [`ExecutionWitness`] (virtual clocks from the priced model when
//! available), so `duet-lint model-check --trace` renders it through the
//! existing `witness_to_chrome_trace` path and the static finding
//! reproduces as a `D3xx` violation when fed to the dynamic checker.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use duet_compiler::CompiledSubgraph;
use duet_device::DeviceKind;
use duet_ir::{Graph, NodeId, Op};
use duet_runtime::{ExecutionWitness, Timeline, TriggerEdge, WitnessEvent, WitnessSource};

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};
use crate::plan_lint::{lint_plan, LintConfig, PlanFacts};

/// Largest plan (subgraph count) the explorer's bitmask state supports.
const MAX_SUBGRAPHS: usize = 128;

/// Model-checker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCheckConfig {
    /// Exploration budget; exceeding it truncates the proof and reports
    /// `D510` (a warning — nothing was *disproved*).
    pub max_states: usize,
    /// Maximum tolerated trigger staleness (completions interleavable
    /// between a producer's finish and its consumer's start). `None`
    /// means the subgraph count — the loosest bound any single-shot
    /// plan can exhibit, so unmutated plans always pass.
    pub staleness_bound: Option<usize>,
    /// Relative slack for the D503 occupancy bound (floating-point sums
    /// of the same kernel prices in different orders).
    pub latency_tolerance: f64,
}

impl Default for ModelCheckConfig {
    fn default() -> Self {
        ModelCheckConfig {
            max_states: 1 << 18,
            staleness_bound: None,
            latency_tolerance: 1e-3,
        }
    }
}

/// One boundary value that must move between devices before its
/// consumer can start.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    /// The graph node whose value crosses.
    pub node: NodeId,
    /// Producing subgraph; `None` for a host-resident graph input.
    pub producer: Option<usize>,
    pub bytes: f64,
    /// True when the transfer is modeled as departing at the producer's
    /// *start* instead of its finish — an overlapped copy that reads the
    /// buffer while the producer still mutates it. Real plans always
    /// depart after the finish; mutation tests flip this to provoke
    /// `D502`.
    pub departs_early: bool,
}

/// The checker's view of one planned subgraph.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphModel {
    pub name: String,
    pub device: DeviceKind,
    /// Boundary values read at dispatch: `(node, producing subgraph)`.
    pub reads: Vec<(NodeId, usize)>,
    /// Boundary values fed from host-resident graph inputs.
    pub feeds: Vec<NodeId>,
    /// Declared dispatch dependencies (subgraph indices whose `Finish`
    /// gates this `Start`). Derived from `reads`; mutations edit this
    /// independently, which is exactly how a dropped trigger edge is
    /// modeled.
    pub triggers: Vec<usize>,
    /// Cross-device movements into this subgraph.
    pub transfers: Vec<TransferModel>,
    /// Priced execution time on `device`; `0.0` when unpriced.
    pub exec_us: f64,
    /// Producer-side escape set (tape outputs); `None` when no compiled
    /// tape was attached.
    pub escapes: Option<Vec<NodeId>>,
}

/// The event-system abstraction of one schedule plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanModel {
    pub model: String,
    pub subgraphs: Vec<SubgraphModel>,
    /// The plan's claimed end-to-end latency (the D503 budget).
    pub expected_latency_us: Option<f64>,
    /// True when the plan records a single-device fallback — execution
    /// is then serialized on one device by construction and the D503
    /// occupancy bound is vacuous.
    pub fallback: bool,
    pub cpu_lanes: usize,
    pub gpu_lanes: usize,
}

impl PlanModel {
    /// Derive the model from plan facts and the graph they schedule.
    ///
    /// Structurally broken plans (unknown nodes, double coverage,
    /// cycles, …) cannot be modeled; those come back as the `D2xx`
    /// lint report instead.
    pub fn from_facts(graph: &Graph, facts: &PlanFacts) -> Result<PlanModel, Report> {
        let lint = lint_plan(graph, facts, &LintConfig::default());
        if lint.has_errors() {
            return Err(lint);
        }
        let mut owner: HashMap<NodeId, usize> = HashMap::new();
        for (si, sg) in facts.subgraphs.iter().enumerate() {
            for &id in &sg.nodes {
                owner.insert(id, si);
            }
        }
        let mut subgraphs = Vec::with_capacity(facts.subgraphs.len());
        for (si, sg) in facts.subgraphs.iter().enumerate() {
            let in_sg: HashSet<NodeId> = sg.nodes.iter().copied().collect();
            let mut reads: Vec<(NodeId, usize)> = Vec::new();
            let mut feeds: Vec<NodeId> = Vec::new();
            for &id in &sg.nodes {
                for &src in &graph.node(id).inputs {
                    if in_sg.contains(&src) {
                        continue;
                    }
                    match graph.node(src).op {
                        Op::Input => {
                            if !feeds.contains(&src) {
                                feeds.push(src);
                            }
                        }
                        Op::Constant => {}
                        _ => {
                            let p = *owner.get(&src).expect("lint guarantees coverage");
                            if p != si && !reads.iter().any(|&(n, _)| n == src) {
                                reads.push((src, p));
                            }
                        }
                    }
                }
            }
            let mut triggers: Vec<usize> = reads.iter().map(|&(_, p)| p).collect();
            triggers.sort_unstable();
            triggers.dedup();
            subgraphs.push(SubgraphModel {
                name: sg.name.clone(),
                device: sg.device,
                reads,
                feeds,
                triggers,
                transfers: Vec::new(),
                exec_us: 0.0,
                escapes: None,
            });
        }
        let mut model = PlanModel {
            model: facts.model.clone(),
            subgraphs,
            expected_latency_us: facts.expected_latency_us,
            fallback: facts.fallback,
            cpu_lanes: 1,
            gpu_lanes: 1,
        };
        model.recompute_transfers(graph);
        Ok(model)
    }

    /// Re-derive the cross-device transfer set from the current device
    /// assignment (kept in sync by [`PlanModel::set_device`]).
    fn recompute_transfers(&mut self, graph: &Graph) {
        let devices: Vec<DeviceKind> = self.subgraphs.iter().map(|s| s.device).collect();
        for sg in &mut self.subgraphs {
            sg.transfers.clear();
            for &(node, p) in &sg.reads {
                if devices[p] != sg.device {
                    sg.transfers.push(TransferModel {
                        node,
                        producer: Some(p),
                        bytes: graph.node(node).shape.byte_size() as f64,
                        departs_early: false,
                    });
                }
            }
            if sg.device == DeviceKind::Gpu {
                for &node in &sg.feeds {
                    sg.transfers.push(TransferModel {
                        node,
                        producer: None,
                        bytes: graph.node(node).shape.byte_size() as f64,
                        departs_early: false,
                    });
                }
            }
        }
    }

    /// Enrich the model with the plan's timing core and compiled
    /// subgraphs: per-subgraph execution prices read from `timeline`'s
    /// execution table (on the *model's* device assignment, so a mutated
    /// device is priced where it now sits), its lane counts, and the
    /// tape escape sets the D502 aliasing cross-check needs. Both must
    /// describe the plan's subgraphs in plan order.
    pub fn price_with<'a>(
        &mut self,
        timeline: &Timeline,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
    ) {
        assert_eq!(
            timeline.len(),
            self.subgraphs.len(),
            "priced timeline must match the plan subgraph-for-subgraph"
        );
        self.cpu_lanes = timeline.lanes(DeviceKind::Cpu);
        self.gpu_lanes = timeline.lanes(DeviceKind::Gpu);
        for (i, (sg, compiled)) in self.subgraphs.iter_mut().zip(subgraphs).enumerate() {
            sg.exec_us = timeline.exec_time_us(i, sg.device);
            sg.escapes = Some(
                compiled
                    .tape
                    .outputs
                    .iter()
                    .map(|&(node, _)| node)
                    .collect(),
            );
        }
    }

    /// Mutation: remove a declared trigger edge (the consumer no longer
    /// waits for `producer`'s finish). Reads stay — that is the bug.
    pub fn drop_trigger(&mut self, consumer: usize, producer: usize) {
        self.subgraphs[consumer].triggers.retain(|&t| t != producer);
    }

    /// Mutation: add a phantom trigger edge (used to close cycles).
    pub fn add_trigger(&mut self, consumer: usize, producer: usize) {
        assert!(producer < self.subgraphs.len(), "trigger target exists");
        if !self.subgraphs[consumer].triggers.contains(&producer) {
            self.subgraphs[consumer].triggers.push(producer);
        }
    }

    /// Mutation: reassign a subgraph's device, re-deriving transfers.
    /// Re-price afterwards if occupancy checking should see the move.
    pub fn set_device(&mut self, graph: &Graph, index: usize, device: DeviceKind) {
        self.subgraphs[index].device = device;
        self.recompute_transfers(graph);
    }

    /// Mutation: make the transfer of `node` into `consumer` depart at
    /// the producer's start (a premature read of a buffer still being
    /// written).
    pub fn depart_early(&mut self, consumer: usize, node: NodeId) {
        for t in &mut self.subgraphs[consumer].transfers {
            if t.node == node {
                t.departs_early = true;
            }
        }
    }

    /// Mutation: pretend the producer's tape does *not* escape `node`
    /// (models an in-place epilogue or recycled slot aliasing a value
    /// that leaves the subgraph).
    pub fn unescape(&mut self, producer: usize, node: NodeId) {
        if let Some(escapes) = &mut self.subgraphs[producer].escapes {
            escapes.retain(|&n| n != node);
        }
    }

    fn lanes(&self, device: DeviceKind) -> usize {
        match device {
            DeviceKind::Cpu => self.cpu_lanes,
            DeviceKind::Gpu => self.gpu_lanes,
        }
    }
}

/// Exploration statistics — also what the CI gate bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelCheckStats {
    /// Distinct states expanded.
    pub states: usize,
    /// Transitions taken (after reduction).
    pub transitions: usize,
    /// Transitions pruned by the sleep-set reduction.
    pub pruned: usize,
    /// Worst trigger staleness over all edges (D504's measured value).
    pub max_staleness: usize,
    /// Checker wall time, microseconds.
    pub wall_us: f64,
    /// True when `max_states` (or the bitmask width) truncated the
    /// exploration.
    pub truncated: bool,
}

/// Everything one check produces.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome {
    pub report: Report,
    pub stats: ModelCheckStats,
    /// A synthetic witness reaching the first violation (then greedily
    /// completed), present whenever the report has errors. Renderable
    /// via `duet_runtime::witness_to_chrome_trace` and checkable by the
    /// dynamic D3xx checker.
    pub counterexample: Option<ExecutionWitness>,
}

/// Check a plan straight from its facts (unpriced: the D503 occupancy
/// bound and the D502 tape cross-check need [`PlanModel::price_with`],
/// use [`check_plan_model`] for those).
pub fn check_plan(graph: &Graph, facts: &PlanFacts, cfg: &ModelCheckConfig) -> ModelCheckOutcome {
    match PlanModel::from_facts(graph, facts) {
        Ok(model) => check_plan_model(&model, cfg),
        Err(mut lint) => {
            lint.subject = format!("{}:model-check", facts.model);
            let outcome = ModelCheckOutcome {
                report: lint,
                stats: ModelCheckStats::default(),
                counterexample: None,
            };
            crate::telemetry::record_model_check(&outcome);
            outcome
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Event {
    Start(usize),
    Finish(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    started: u128,
    finished: u128,
}

impl State {
    const INITIAL: State = State {
        started: 0,
        finished: 0,
    };

    fn apply(self, e: Event) -> State {
        match e {
            Event::Start(i) => State {
                started: self.started | (1u128 << i),
                ..self
            },
            Event::Finish(i) => State {
                finished: self.finished | (1u128 << i),
                ..self
            },
        }
    }
}

/// Exhaustively check a plan model. This is the D5xx oracle proper;
/// `duet-lint model-check`, checked engine builds and the serve
/// hot-swap gate all funnel here.
pub fn check_plan_model(model: &PlanModel, cfg: &ModelCheckConfig) -> ModelCheckOutcome {
    let clock = Instant::now();
    let mut report = Report::new(format!("{}:model-check", model.model));
    let mut stats = ModelCheckStats::default();
    let n = model.subgraphs.len();
    let mut counterexample_path: Option<Vec<Event>> = None;

    if n > MAX_SUBGRAPHS {
        report.push(Diagnostic::warning(
            codes::MODEL_STATE_BUDGET,
            format!(
                "plan has {n} subgraphs, beyond the explorer's {MAX_SUBGRAPHS}-bit \
                 state; interleaving properties not proven"
            ),
        ));
        stats.truncated = true;
    } else {
        explore(
            model,
            cfg,
            &mut report,
            &mut stats,
            &mut counterexample_path,
        );
    }

    check_escapes(model, &mut report);
    check_occupancy(model, cfg, &mut report);
    if n <= MAX_SUBGRAPHS {
        stats.max_staleness = check_staleness(model, cfg, &mut report);
    }

    let counterexample = if report.has_errors() {
        Some(synthesize_witness(
            model,
            counterexample_path.as_deref().unwrap_or(&[]),
        ))
    } else {
        None
    };
    stats.wall_us = clock.elapsed().as_secs_f64() * 1e6;
    let outcome = ModelCheckOutcome {
        report,
        stats,
        counterexample,
    };
    crate::telemetry::record_model_check(&outcome);
    outcome
}

/// The explorer: memoized-frontier DFS over `(started, finished)` with
/// sleep-set pruning of commuting sibling transitions. Property checks
/// (D500 deadlock, D501 read-before-write, D502 premature departure)
/// are evaluated at every state expansion over the *full* enabled set,
/// so the reduction can never hide a violation.
fn explore(
    model: &PlanModel,
    cfg: &ModelCheckConfig,
    report: &mut Report,
    stats: &mut ModelCheckStats,
    counterexample_path: &mut Option<Vec<Event>>,
) {
    let n = model.subgraphs.len();
    let full: u128 = if n == 128 { !0 } else { (1u128 << n) - 1 };
    let mut visited: HashSet<State> = HashSet::new();
    let mut parent: HashMap<State, (State, Event)> = HashMap::new();
    // (state to expand, events slept by sibling ordering at the parent).
    let mut stack: Vec<(State, Vec<Event>)> = vec![(State::INITIAL, Vec::new())];
    visited.insert(State::INITIAL);
    // Dedup sets so one structural bug reports once, not once per state.
    let mut seen_read_races: HashSet<(usize, NodeId)> = HashSet::new();
    let mut seen_early: HashSet<(usize, NodeId)> = HashSet::new();
    let mut deadlock_reported = false;

    // Record the path to `state` (+ the violating event) the first time
    // any error is found; that path becomes the rendered counterexample.
    let record_path = |cex: &mut Option<Vec<Event>>,
                       parent: &HashMap<State, (State, Event)>,
                       state: State,
                       last: Option<Event>| {
        if cex.is_some() {
            return;
        }
        let mut path = Vec::new();
        let mut cur = state;
        while let Some(&(prev, ev)) = parent.get(&cur) {
            path.push(ev);
            cur = prev;
        }
        path.reverse();
        path.extend(last);
        *cex = Some(path);
    };

    while let Some((state, sleep)) = stack.pop() {
        if stats.states >= cfg.max_states {
            report.push(Diagnostic::warning(
                codes::MODEL_STATE_BUDGET,
                format!(
                    "state budget {} exhausted with interleavings unexplored; \
                     D500/D501/D502 not fully proven (raise --max-states)",
                    cfg.max_states
                ),
            ));
            stats.truncated = true;
            break;
        }
        stats.states += 1;

        // Enabled events, finishes first (stable order keeps sibling
        // sleep sets deterministic).
        let mut enabled: Vec<Event> = Vec::new();
        let running = state.started & !state.finished;
        for i in 0..n {
            if running & (1u128 << i) != 0 {
                enabled.push(Event::Finish(i));
            }
        }
        for i in 0..n {
            if state.started & (1u128 << i) != 0 {
                continue;
            }
            let sg = &model.subgraphs[i];
            if sg
                .triggers
                .iter()
                .any(|&t| state.finished & (1u128 << t) == 0)
            {
                continue;
            }
            let busy = (0..n)
                .filter(|&j| running & (1u128 << j) != 0 && model.subgraphs[j].device == sg.device)
                .count();
            if busy >= model.lanes(sg.device) {
                continue;
            }
            enabled.push(Event::Start(i));
        }

        // D500: quiescent but unfinished.
        if enabled.is_empty() && state.finished != full && !deadlock_reported {
            deadlock_reported = true;
            let stuck: Vec<String> = (0..n)
                .filter(|&i| state.finished & (1u128 << i) == 0)
                .map(|i| {
                    let sg = &model.subgraphs[i];
                    let waiting: Vec<&str> = sg
                        .triggers
                        .iter()
                        .filter(|&&t| state.finished & (1u128 << t) == 0)
                        .map(|&t| model.subgraphs[t].name.as_str())
                        .collect();
                    format!("'{}' (waiting on {})", sg.name, waiting.join(", "))
                })
                .collect();
            report.push(Diagnostic::error(
                codes::MODEL_DEADLOCK,
                format!(
                    "reachable deadlock: no enabled event with {} subgraph(s) \
                     unfinished — {}",
                    stuck.len(),
                    stuck.join("; ")
                ),
            ));
            record_path(counterexample_path, &parent, state, None);
        }

        // Property checks over every enabled Start (reduction-independent).
        for &e in &enabled {
            let Event::Start(i) = e else { continue };
            let sg = &model.subgraphs[i];
            // D501: dispatch reachable while a read's producer is
            // unfinished — the value read depends on the interleaving.
            for &(node, p) in &sg.reads {
                if state.finished & (1u128 << p) == 0 && seen_read_races.insert((i, node)) {
                    report.push(
                        Diagnostic::error(
                            codes::MODEL_NONDETERMINISM,
                            format!(
                                "'{}' can dispatch while producer '{}' of its boundary \
                                 input is unfinished — outputs depend on the \
                                 interleaving (missing trigger edge)",
                                sg.name, model.subgraphs[p].name
                            ),
                        )
                        .with_node(node)
                        .with_context(sg.name.clone()),
                    );
                    record_path(counterexample_path, &parent, state, Some(e));
                }
            }
            // D502: a producer starting with an early-departing outgoing
            // transfer — the copy overlaps the producer's mutation window.
            for (c, consumer) in model.subgraphs.iter().enumerate() {
                for t in &consumer.transfers {
                    if t.producer == Some(i) && t.departs_early && seen_early.insert((c, t.node)) {
                        report.push(
                            Diagnostic::error(
                                codes::MODEL_TRANSFER_RACE,
                                format!(
                                    "transfer of node {} to '{}' departs while producer \
                                     '{}' is still executing — the copy races the write",
                                    t.node, consumer.name, sg.name
                                ),
                            )
                            .with_node(t.node)
                            .with_context(consumer.name.clone()),
                        );
                        record_path(counterexample_path, &parent, state, Some(e));
                    }
                }
            }
        }

        // Expand, pruning sibling-slept transitions.
        let mut taken: Vec<Event> = Vec::new();
        for &e in &enabled {
            if sleep.contains(&e) {
                stats.pruned += 1;
                continue;
            }
            let child = state.apply(e);
            if visited.insert(child) {
                stats.transitions += 1;
                parent.insert(child, (state, e));
                // The child sleeps every earlier-taken sibling that
                // commutes with `e` globally: Finish/Finish pairs,
                // Start/Start on distinct devices, and Start/Finish
                // (co-enabledness forces distinct devices).
                let child_sleep: Vec<Event> = taken
                    .iter()
                    .copied()
                    .filter(|&prior| independent(model, prior, e))
                    .collect();
                stack.push((child, child_sleep));
            } else {
                stats.pruned += 1;
            }
            taken.push(e);
        }
    }
}

/// Global independence: both orders of a co-enabled pair reach the same
/// state and neither disables the other.
fn independent(model: &PlanModel, a: Event, b: Event) -> bool {
    match (a, b) {
        (Event::Finish(_), Event::Finish(_)) => true,
        (Event::Start(i), Event::Start(j)) => {
            model.subgraphs[i].device != model.subgraphs[j].device
        }
        (Event::Start(_), Event::Finish(_)) | (Event::Finish(_), Event::Start(_)) => true,
    }
}

/// D502 (static half): every value read across a subgraph boundary must
/// be an escaped tape output of its producer. A non-escaped value lives
/// in a recyclable (possibly in-place-mutated) slot, so a transfer or a
/// same-device consumer reading it races the producer's epilogue and
/// the arena recycler.
fn check_escapes(model: &PlanModel, report: &mut Report) {
    for sg in &model.subgraphs {
        for &(node, p) in &sg.reads {
            let producer = &model.subgraphs[p];
            if let Some(escapes) = &producer.escapes {
                if !escapes.contains(&node) {
                    report.push(
                        Diagnostic::error(
                            codes::MODEL_TRANSFER_RACE,
                            format!(
                                "node {} crosses out of '{}' into '{}' but is not an \
                                 escaped tape output — its slot may be recycled or \
                                 mutated in place while still being read",
                                node, producer.name, sg.name
                            ),
                        )
                        .with_node(node)
                        .with_context(sg.name.clone()),
                    );
                }
            }
        }
    }
}

/// D503: a heterogeneous plan's claimed latency must cover each
/// single-lane device's serialized work. Claiming less is claiming the
/// device runs two subgraphs at once. Fallback plans serialize on one
/// device by construction; multi-lane devices legitimately co-schedule;
/// unpriced models carry no exec times — all three are skipped.
fn check_occupancy(model: &PlanModel, cfg: &ModelCheckConfig, report: &mut Report) {
    let Some(expected) = model.expected_latency_us else {
        return;
    };
    if model.fallback || expected <= 0.0 || model.subgraphs.iter().any(|s| s.exec_us <= 0.0) {
        return;
    }
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        if model.lanes(device) > 1 {
            continue;
        }
        let members: Vec<&SubgraphModel> = model
            .subgraphs
            .iter()
            .filter(|s| s.device == device)
            .collect();
        let busy: f64 = members.iter().map(|s| s.exec_us).sum();
        if busy > expected * (1.0 + cfg.latency_tolerance) {
            report.push(Diagnostic::error(
                codes::MODEL_DEVICE_OVERCOMMIT,
                format!(
                    "{device:?} is double-booked: its {} subgraph(s) serialize to \
                     {busy:.1} us but the plan claims {expected:.1} us end-to-end — \
                     the plan admits two subgraphs concurrently on one device",
                    members.len()
                ),
            ));
        }
    }
}

/// D504: per trigger edge `p -> i`, the worst-case number of *other*
/// completions on `p`'s device that any interleaving can place between
/// `p`'s finish and `i`'s start. Computed exactly from the trigger
/// closure: subgraph `j` fits in the window iff it shares `p`'s device,
/// is neither endpoint, is not an ancestor of `p` (it would finish
/// before `p` even starts) and does not depend on `i` (it cannot finish
/// before `i` starts). Returns the measured maximum.
fn check_staleness(model: &PlanModel, cfg: &ModelCheckConfig, report: &mut Report) -> usize {
    let n = model.subgraphs.len();
    // anc[i] = transitive trigger ancestors of i, as a bitmask.
    let mut anc: Vec<u128> = vec![0; n];
    // Subgraph indices in a topological order of the declared triggers;
    // cyclic models (D500 already reported) fall back to index order.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut indeg: Vec<usize> = model.subgraphs.iter().map(|s| s.triggers.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = ready.pop() {
        order.push(i);
        for (c, sg) in model.subgraphs.iter().enumerate() {
            if sg.triggers.contains(&i) {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    ready.push(c);
                }
            }
        }
    }
    if order.len() < n {
        order = (0..n).collect();
    }
    for &i in &order {
        for &t in &model.subgraphs[i].triggers {
            anc[i] |= (1u128 << t) | anc[t];
        }
    }

    let bound = cfg.staleness_bound.unwrap_or(n);
    let mut max_staleness = 0usize;
    for (i, sg) in model.subgraphs.iter().enumerate() {
        for &p in &sg.triggers {
            let device = model.subgraphs[p].device;
            let staleness = (0..n)
                .filter(|&j| {
                    j != i
                        && j != p
                        && model.subgraphs[j].device == device
                        && anc[p] & (1u128 << j) == 0
                        && anc[j] & (1u128 << i) == 0
                })
                .count();
            if staleness > max_staleness {
                max_staleness = staleness;
            }
            if staleness > bound {
                report.push(
                    Diagnostic::error(
                        codes::MODEL_TRIGGER_STALENESS,
                        format!(
                            "trigger edge '{}' -> '{}' admits staleness {staleness} \
                             (bound {bound}): that many other completions can land on \
                             {device:?} between the producer's finish and the \
                             consumer's start under delay injection",
                            model.subgraphs[p].name, sg.name
                        ),
                    )
                    .with_context(sg.name.clone()),
                );
            }
        }
    }
    max_staleness
}

/// Replay an exploration path into a synthetic witness, then greedily
/// complete the run (checks off) so the trace shows the full schedule
/// with the violation embedded. Virtual clocks come from the priced
/// model when available (unit steps otherwise); event *order* is the
/// replayed interleaving, which is what makes a D501 counterexample
/// reproduce as a D303 happens-before violation in the dynamic checker.
fn synthesize_witness(model: &PlanModel, path: &[Event]) -> ExecutionWitness {
    let n = model.subgraphs.len();
    let mut events: Vec<WitnessEvent> = Vec::new();
    let mut state = State::INITIAL;
    let mut device_clock: HashMap<DeviceKind, f64> = HashMap::new();
    let mut start_at = vec![0.0f64; n];
    let mut finish_at = vec![f64::NAN; n];

    let emit = |e: Event,
                state: &State,
                device_clock: &mut HashMap<DeviceKind, f64>,
                start_at: &mut Vec<f64>,
                finish_at: &mut Vec<f64>,
                events: &mut Vec<WitnessEvent>| {
        match e {
            Event::Start(i) => {
                let sg = &model.subgraphs[i];
                let mut ready = *device_clock.get(&sg.device).unwrap_or(&0.0);
                let mut triggers = Vec::new();
                for &(node, p) in &sg.reads {
                    let transfer_us = sg
                        .transfers
                        .iter()
                        .find(|t| t.node == node)
                        .map(|_| 0.0)
                        .unwrap_or(0.0);
                    if state.finished & (1u128 << p) != 0 {
                        ready = ready.max(finish_at[p]);
                    }
                    triggers.push(TriggerEdge {
                        node,
                        producer: Some(p),
                        bytes: 0.0,
                        transfer_us,
                    });
                }
                for &node in &sg.feeds {
                    triggers.push(TriggerEdge {
                        node,
                        producer: None,
                        bytes: 0.0,
                        transfer_us: 0.0,
                    });
                }
                start_at[i] = ready;
                events.push(WitnessEvent::Start {
                    sg: i,
                    name: sg.name.clone(),
                    device: sg.device,
                    at_us: ready,
                    triggers,
                });
            }
            Event::Finish(i) => {
                let sg = &model.subgraphs[i];
                let dur = if sg.exec_us > 0.0 { sg.exec_us } else { 10.0 };
                let end = start_at[i] + dur;
                finish_at[i] = end;
                device_clock
                    .entry(sg.device)
                    .and_modify(|c| *c = c.max(end))
                    .or_insert(end);
                events.push(WitnessEvent::Finish {
                    sg: i,
                    device: sg.device,
                    at_us: end,
                });
            }
        }
    };

    for &e in path {
        emit(
            e,
            &state,
            &mut device_clock,
            &mut start_at,
            &mut finish_at,
            &mut events,
        );
        state = state.apply(e);
    }
    // Greedy completion: finish whatever runs, start whatever is ready.
    // A deadlocked model simply stops making progress here.
    loop {
        let running = state.started & !state.finished;
        let next = (0..n)
            .find(|&i| running & (1u128 << i) != 0)
            .map(Event::Finish)
            .or_else(|| {
                (0..n)
                    .find(|&i| {
                        state.started & (1u128 << i) == 0
                            && model.subgraphs[i]
                                .triggers
                                .iter()
                                .all(|&t| state.finished & (1u128 << t) != 0)
                    })
                    .map(Event::Start)
            });
        let Some(e) = next else { break };
        emit(
            e,
            &state,
            &mut device_clock,
            &mut start_at,
            &mut finish_at,
            &mut events,
        );
        state = state.apply(e);
    }

    let latency = device_clock.values().fold(0.0f64, |a, &b| a.max(b));
    ExecutionWitness {
        model: format!("{}:counterexample", model.model),
        source: WitnessSource::Executor,
        events,
        virtual_latency_us: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::GraphBuilder;

    /// diamond: a -> {b, c} -> d, b/c on opposite devices.
    fn diamond() -> (Graph, PlanFacts) {
        let mut b = GraphBuilder::new("diamond", 1);
        let x = b.input("x", vec![1, 16]);
        let a = b.dense("a", x, 16, None).unwrap();
        let l = b.dense("b", a, 16, None).unwrap();
        let r = b.dense("c", a, 16, None).unwrap();
        let cat = b.op("d", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let g = b.finish(&[cat]).unwrap();
        let by_prefix = |pfx: &str| -> Vec<NodeId> {
            g.compute_ids()
                .into_iter()
                .filter(|&i| g.node(i).label.starts_with(pfx))
                .collect()
        };
        let facts = PlanFacts {
            model: "diamond".into(),
            fingerprint: duet_ir::fingerprint(&g),
            batch: 1,
            expected_latency_us: None,
            fallback: false,
            critical_path_lb_us: None,
            subgraphs: [
                ("a", DeviceKind::Cpu),
                ("b", DeviceKind::Cpu),
                ("c", DeviceKind::Gpu),
                ("d", DeviceKind::Cpu),
            ]
            .into_iter()
            .map(|(name, device)| crate::plan_lint::PlanSubgraphFacts {
                name: name.into(),
                phase: 0,
                multi_path: false,
                nodes: by_prefix(name),
                device,
            })
            .collect(),
        };
        (g, facts)
    }

    #[test]
    fn clean_diamond_proves_all_properties() {
        let (g, facts) = diamond();
        let outcome = check_plan(&g, &facts, &ModelCheckConfig::default());
        assert!(
            !outcome.report.has_errors(),
            "clean plan:\n{}",
            outcome.report
        );
        assert!(outcome.counterexample.is_none());
        assert!(outcome.stats.states > 0 && !outcome.stats.truncated);
    }

    #[test]
    fn exploration_covers_cross_device_interleavings() {
        let (g, facts) = diamond();
        let model = PlanModel::from_facts(&g, &facts).unwrap();
        let outcome = check_plan_model(&model, &ModelCheckConfig::default());
        // b (cpu) and c (gpu) can run concurrently: strictly more states
        // than one serialized chain would have (2n+1 = 9).
        assert!(outcome.stats.states > 9, "{:?}", outcome.stats);
    }

    #[test]
    fn dropped_trigger_is_d501_with_counterexample() {
        let (g, facts) = diamond();
        let mut model = PlanModel::from_facts(&g, &facts).unwrap();
        // d no longer waits for the GPU branch c (index 2).
        model.drop_trigger(3, 2);
        let outcome = check_plan_model(&model, &ModelCheckConfig::default());
        assert!(outcome.report.contains(codes::MODEL_NONDETERMINISM));
        let cex = outcome.counterexample.expect("violation has a path");
        // In the counterexample, d starts before c finishes.
        let pos = |pred: &dyn Fn(&WitnessEvent) -> bool| cex.events.iter().position(pred);
        let d_start = pos(&|e| matches!(e, WitnessEvent::Start { sg: 3, .. })).unwrap();
        let c_finish = pos(&|e| matches!(e, WitnessEvent::Finish { sg: 2, .. })).unwrap();
        assert!(d_start < c_finish, "start precedes producer finish");
    }

    #[test]
    fn trigger_cycle_is_d500_deadlock() {
        let (g, facts) = diamond();
        let mut model = PlanModel::from_facts(&g, &facts).unwrap();
        model.add_trigger(0, 3); // a waits on d: cycle a -> b/c -> d -> a.
        let outcome = check_plan_model(&model, &ModelCheckConfig::default());
        assert!(outcome.report.contains(codes::MODEL_DEADLOCK));
        assert!(outcome.counterexample.is_some());
    }

    #[test]
    fn early_transfer_is_d502() {
        let (g, facts) = diamond();
        let mut model = PlanModel::from_facts(&g, &facts).unwrap();
        // c reads a's output across the boundary; make the copy depart
        // at a's start.
        let node = model.subgraphs[2].reads[0].0;
        model.depart_early(2, node);
        let outcome = check_plan_model(&model, &ModelCheckConfig::default());
        assert!(outcome.report.contains(codes::MODEL_TRANSFER_RACE));
        assert!(outcome.counterexample.is_some());
    }

    #[test]
    fn tight_staleness_bound_is_d504() {
        let (g, facts) = diamond();
        let model = PlanModel::from_facts(&g, &facts).unwrap();
        let cfg = ModelCheckConfig {
            staleness_bound: Some(0),
            ..Default::default()
        };
        let outcome = check_plan_model(&model, &cfg);
        // b and d share a's CPU: b can finish between a's finish and
        // d's start, so some edge has staleness >= 1 > 0.
        assert!(outcome.report.contains(codes::MODEL_TRIGGER_STALENESS));
        assert!(outcome.stats.max_staleness >= 1);
    }

    #[test]
    fn state_budget_truncation_is_d510_warning() {
        let (g, facts) = diamond();
        let model = PlanModel::from_facts(&g, &facts).unwrap();
        let cfg = ModelCheckConfig {
            max_states: 1,
            ..Default::default()
        };
        let outcome = check_plan_model(&model, &cfg);
        assert!(outcome.report.contains(codes::MODEL_STATE_BUDGET));
        assert!(outcome.stats.truncated);
        assert!(!outcome.report.has_errors(), "truncation is a warning");
    }

    #[test]
    fn structurally_broken_plan_reports_lint_errors() {
        let (g, mut facts) = diamond();
        facts.subgraphs[0].nodes.push(9999);
        let outcome = check_plan(&g, &facts, &ModelCheckConfig::default());
        assert!(outcome.report.contains(codes::PLAN_UNKNOWN_NODE));
    }
}
