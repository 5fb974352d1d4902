//! The plan model checker (`D5xx`): the happens-before closure of the
//! run a schedule plan takes, proven *before* it runs.
//!
//! The D3xx conformance checker is dynamic — it can only condemn a plan
//! after a bad run happened in production. This pass is the static
//! counterpart. It models the plan ([`PlanModel`]) as the threaded
//! executor runs it: one lane per device walks that device's subgraphs
//! in the dispatch order Algorithm 1's replay priced, and each subgraph
//! waits for its declared trigger producers to finish. So a subgraph
//! happens after its triggers and after its lane predecessor, and after
//! nothing else. One Kahn pass over those edges orders the subgraphs
//! and gives each its ancestor set; every property is read from them:
//!
//! * **D500 deadlock-freedom** — every subgraph can be ordered. One that
//!   cannot waits on itself through a trigger cycle, or through a lane
//!   that runs a consumer before its producer;
//! * **D501 schedule-determinism** — the producer of every boundary
//!   input is an ancestor of its reader (a dropped trigger edge that the
//!   lane order does not cover makes the read race the write, so outputs
//!   depend on the interleaving);
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
//! * **D504 bounded trigger staleness** — under perturbation of the kind
//!   the `DelayInjection` observer applies to real runs, the number of
//!   other completions that can land between a trigger edge's producer
//!   finishing and its consumer starting stays within a bound (a stale
//!   trigger value must survive at most that many arena-recycling
//!   opportunities).
//!
//! Wall-clock durations are abstracted away, so the proof covers every
//! delay an observer could inject: a delay moves *when* a lane runs its
//! next subgraph, never which one. D501 and D504 are judged over the
//! subgraphs that can dispatch.
//!
//! ## Counterexamples
//!
//! A dirty plan carries its planned run as a synthetic
//! [`ExecutionWitness`] (virtual clocks from the priced model when
//! available). For a D501 the run is the reader's ancestors first, then
//! the reader's start and finish, then everything else, so the reader
//! starts before its producer finishes: `duet model-check --out`
//! renders it through the one trace writer, `duet_runtime::chrome_trace`,
//! and the dynamic checker rejects it as a `D303` happens-before
//! violation.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use duet_compiler::CompiledSubgraph;
use duet_device::DeviceKind;
use duet_ir::{Graph, NodeId, Op};
use duet_runtime::{ExecutionWitness, Timeline, TriggerEdge, WitnessEvent, WitnessSource};

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};
use crate::plan_lint::{lint_plan, LintConfig, PlanFacts};

/// Model-checker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelCheckConfig {
    /// Maximum tolerated trigger staleness (completions that can land
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

/// The checker's view of one schedule plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanModel {
    pub model: String,
    pub subgraphs: Vec<SubgraphModel>,
    /// Every subgraph once, in dispatch order: each device's lane runs
    /// its subgraphs in this order. [`PlanModel::from_facts`] starts
    /// from plan order, [`PlanModel::price_with`] takes the order the
    /// replay priced.
    pub order: Vec<usize>,
    /// The plan's claimed end-to-end latency (the D503 budget).
    pub expected_latency_us: Option<f64>,
    /// True when the plan records a single-device fallback — execution
    /// is then serialized on one device by construction and the D503
    /// occupancy bound is vacuous.
    pub fallback: bool,
    /// Lanes of each device in the priced system. Only D503 reads them:
    /// a multi-lane device may co-schedule, so its bound is skipped.
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
            order: (0..subgraphs.len()).collect(),
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
    /// subgraphs: the dispatch order of `timeline`'s noise-free replay
    /// and per-subgraph execution prices from its execution table (both
    /// on the *model's* device assignment, so a mutated device is
    /// ordered and priced where it now sits), its lane counts, and the
    /// tape escape sets the D502 aliasing cross-check needs. Both must
    /// describe the plan's subgraphs in plan order. On an engine's own
    /// placement the order is the [`duet_runtime::Schedule`] its
    /// executor walks.
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
        let devices: Vec<DeviceKind> = self.subgraphs.iter().map(|s| s.device).collect();
        self.order = timeline.schedule(&devices).order().collect();
        self.cpu_lanes = timeline.lanes(DeviceKind::Cpu);
        self.gpu_lanes = timeline.lanes(DeviceKind::Gpu);
        for (i, (sg, compiled)) in self.subgraphs.iter_mut().zip(subgraphs).enumerate() {
            sg.exec_us = timeline.exec_time_us(i, sg.device);
            // The values the tape publishes: its outputs are these
            // nodes, in this order, so pricing lowers nothing.
            sg.escapes = Some(compiled.outputs.clone());
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

    /// Mutation: swap two subgraphs' places in the dispatch order (on
    /// one device: a lane that runs a consumer before its producer).
    pub fn swap_order(&mut self, a: usize, b: usize) {
        let at = |i| self.order.iter().position(|&j| j == i).expect("ordered");
        let (a, b) = (at(a), at(b));
        self.order.swap(a, b);
    }

    /// Mutation: reassign a subgraph's device, re-deriving transfers.
    /// Re-price afterwards if the order and occupancy checking should
    /// see the move.
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

/// What one check measured.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelCheckStats {
    /// States of the one run walked: the initial state plus a start and
    /// a finish per subgraph that can dispatch (2n + 1 on a clean plan).
    pub states: usize,
    /// Worst trigger staleness over all edges (D504's measured value).
    pub max_staleness: usize,
    /// Checker wall time, microseconds.
    pub wall_us: f64,
}

/// Everything one check produces.
#[derive(Debug, Clone)]
pub struct ModelCheckOutcome {
    pub report: Report,
    pub stats: ModelCheckStats,
    /// The planned run as a synthetic witness, present whenever the
    /// report has errors (a D501 reader starts before its producer
    /// finishes). Renderable via `duet_runtime::chrome_trace` and
    /// checkable by the dynamic D3xx checker.
    pub counterexample: Option<ExecutionWitness>,
}

/// Check a plan model. This is the D5xx oracle proper; `duet
/// model-check`, checked engine builds and the serve hot-swap gate all
/// funnel here. An unpriced model (no [`PlanModel::price_with`]) skips
/// the D503 occupancy bound and the D502 tape cross-check, and runs in
/// plan order.
pub fn check_plan_model(model: &PlanModel, cfg: &ModelCheckConfig) -> ModelCheckOutcome {
    let clock = Instant::now();
    let mut report = Report::new(format!("{}:model-check", model.model));
    let hb = Closure::of(model);
    check_deadlock(model, &hb, &mut report);
    let reader = check_reads(model, &hb, &mut report);
    check_departures(model, &mut report);
    check_escapes(model, &mut report);
    check_occupancy(model, cfg, &mut report);
    let max_staleness = check_staleness(model, &hb, cfg, &mut report);
    let counterexample = report
        .has_errors()
        .then(|| synthesize_witness(model, &hb, reader));
    let outcome = ModelCheckOutcome {
        report,
        stats: ModelCheckStats {
            states: 2 * hb.order.len() + 1,
            max_staleness,
            wall_us: clock.elapsed().as_secs_f64() * 1e6,
        },
        counterexample,
    };
    crate::telemetry::record_model_check(&outcome);
    outcome
}

/// The happens-before closure of the planned run: a subgraph follows
/// its trigger producers and its predecessor on its device's lane.
struct Closure {
    /// Each subgraph's predecessor on its device's lane.
    lane_pred: Vec<Option<usize>>,
    /// The subgraphs that can dispatch, in topological order (dispatch
    /// order wherever that is one).
    order: Vec<usize>,
    /// Whether each subgraph is in `order`.
    dispatches: Vec<bool>,
    /// Ancestor bitsets, `words` 64-bit words per subgraph.
    anc: Vec<u64>,
    words: usize,
}

impl Closure {
    fn of(model: &PlanModel) -> Closure {
        let n = model.subgraphs.len();
        let mut lane_pred = vec![None; n];
        let mut last = [None; 2];
        for &i in &model.order {
            lane_pred[i] = last[model.subgraphs[i].device as usize].replace(i);
        }
        let preds = |i: usize| {
            let triggers = model.subgraphs[i].triggers.iter().copied();
            triggers.chain(lane_pred[i])
        };
        // Kahn's pass, taking the first ready subgraph in dispatch order
        // each step: on a clean plan it reproduces that order.
        let mut dispatches = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while let Some(&i) = model
            .order
            .iter()
            .find(|&&i| !dispatches[i] && preds(i).all(|p| dispatches[p]))
        {
            dispatches[i] = true;
            order.push(i);
        }
        let words = n.div_ceil(64);
        let mut anc = vec![0u64; n * words];
        for &i in &order {
            for p in preds(i) {
                anc[i * words + p / 64] |= 1 << (p % 64);
                for w in 0..words {
                    anc[i * words + w] |= anc[p * words + w];
                }
            }
        }
        Closure {
            lane_pred,
            order,
            dispatches,
            anc,
            words,
        }
    }

    /// Whether `a` finishes before `b` starts in every run.
    fn before(&self, a: usize, b: usize) -> bool {
        (self.anc[b * self.words + a / 64] >> (a % 64)) & 1 == 1
    }
}

/// D500: the subgraphs the Kahn pass cannot order, each with what it
/// waits on.
fn check_deadlock(model: &PlanModel, hb: &Closure, report: &mut Report) {
    let stuck: Vec<String> = (0..model.subgraphs.len())
        .filter(|&i| !hb.dispatches[i])
        .map(|i| {
            let sg = &model.subgraphs[i];
            let triggers = sg.triggers.iter().map(|&t| (t, ""));
            let waits: Vec<String> = triggers
                .chain(hb.lane_pred[i].map(|p| (p, "lane predecessor ")))
                .filter(|&(p, _)| !hb.dispatches[p])
                .map(|(p, what)| format!("{what}'{}'", model.subgraphs[p].name))
                .collect();
            format!("'{}' (waiting on {})", sg.name, waits.join(", "))
        })
        .collect();
    if !stuck.is_empty() {
        report.push(Diagnostic::error(
            codes::MODEL_DEADLOCK,
            format!(
                "deadlock: {} subgraph(s) can never dispatch — {}",
                stuck.len(),
                stuck.join("; ")
            ),
        ));
    }
}

/// D501: every boundary read of a subgraph that can dispatch must have
/// its producer among the reader's ancestors. Returns the first reader
/// that does not, the subject of the counterexample.
fn check_reads(model: &PlanModel, hb: &Closure, report: &mut Report) -> Option<usize> {
    let mut first = None;
    for &i in &hb.order {
        let sg = &model.subgraphs[i];
        for &(node, p) in sg.reads.iter().filter(|&&(_, p)| !hb.before(p, i)) {
            report.push(
                Diagnostic::error(
                    codes::MODEL_NONDETERMINISM,
                    format!(
                        "'{}' can dispatch while producer '{}' of its boundary input \
                         is unfinished: no trigger edge or lane order makes it wait — \
                         outputs depend on the interleaving (missing trigger edge)",
                        sg.name, model.subgraphs[p].name
                    ),
                )
                .with_node(node)
                .with_context(sg.name.clone()),
            );
            first.get_or_insert(i);
        }
    }
    first
}

/// D502 (transfer half): a transfer that departs at its producer's start
/// copies the buffer while the producer still writes it.
fn check_departures(model: &PlanModel, report: &mut Report) {
    for consumer in &model.subgraphs {
        for t in consumer.transfers.iter().filter(|t| t.departs_early) {
            let Some(p) = t.producer else { continue };
            report.push(
                Diagnostic::error(
                    codes::MODEL_TRANSFER_RACE,
                    format!(
                        "transfer of node {} to '{}' departs while producer '{}' is \
                         still executing — the copy races the write",
                        t.node, consumer.name, model.subgraphs[p].name
                    ),
                )
                .with_node(t.node)
                .with_context(consumer.name.clone()),
            );
        }
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
/// completions on `p`'s device that can land between `p`'s finish and
/// `i`'s start. Subgraph `j` fits in that window iff it shares `p`'s
/// device, is neither endpoint, is not an ancestor of `p` (it would
/// finish before `p` even starts) and does not descend from `i` (it
/// cannot finish before `i` starts). Returns the measured maximum.
fn check_staleness(
    model: &PlanModel,
    hb: &Closure,
    cfg: &ModelCheckConfig,
    report: &mut Report,
) -> usize {
    let bound = cfg.staleness_bound.unwrap_or(model.subgraphs.len());
    let mut max_staleness = 0usize;
    for &i in &hb.order {
        let sg = &model.subgraphs[i];
        for &p in &sg.triggers {
            let device = model.subgraphs[p].device;
            let staleness = hb
                .order
                .iter()
                .filter(|&&j| {
                    j != i
                        && j != p
                        && model.subgraphs[j].device == device
                        && !hb.before(j, p)
                        && !hb.before(i, j)
                })
                .count();
            max_staleness = max_staleness.max(staleness);
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

/// The planned run as a witness: each subgraph that can dispatch starts
/// and finishes in topological order, except that a D501 `reader` runs
/// right after its own ancestors — before the producer it does not wait
/// for, which is what makes the counterexample reproduce as a D303
/// happens-before violation in the dynamic checker. Virtual clocks come
/// from the priced model (10 µs per unpriced subgraph).
fn synthesize_witness(model: &PlanModel, hb: &Closure, reader: Option<usize>) -> ExecutionWitness {
    let first = |j: usize| reader.is_some_and(|r| j == r || hb.before(j, r));
    let (mut run, rest): (Vec<usize>, Vec<usize>) = hb.order.iter().partition(|&&j| first(j));
    run.extend(rest);
    let mut events = Vec::with_capacity(2 * run.len());
    let mut lane_free = [0.0f64; 2];
    let mut finish_at: Vec<Option<f64>> = vec![None; model.subgraphs.len()];
    for i in run {
        let sg = &model.subgraphs[i];
        let lane = &mut lane_free[sg.device as usize];
        let ready = sg.reads.iter().filter_map(|&(_, p)| finish_at[p]);
        let start = ready.fold(*lane, f64::max);
        *lane = start + if sg.exec_us > 0.0 { sg.exec_us } else { 10.0 };
        finish_at[i] = Some(*lane);
        let edge = |node, producer| TriggerEdge {
            node,
            producer,
            bytes: 0.0,
            transfer_us: 0.0,
        };
        let reads = sg.reads.iter().map(|&(node, p)| edge(node, Some(p)));
        events.push(WitnessEvent::Start {
            sg: i,
            name: sg.name.clone(),
            device: sg.device,
            at_us: start,
            triggers: reads
                .chain(sg.feeds.iter().map(|&n| edge(n, None)))
                .collect(),
        });
        events.push(WitnessEvent::Finish {
            sg: i,
            device: sg.device,
            at_us: *lane,
        });
    }
    ExecutionWitness {
        model: format!("{}:counterexample", model.model),
        source: WitnessSource::Executor,
        events,
        virtual_latency_us: lane_free[0].max(lane_free[1]),
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
        let model = PlanModel::from_facts(&g, &facts).unwrap();
        let outcome = check_plan_model(&model, &ModelCheckConfig::default());
        assert!(
            !outcome.report.has_errors(),
            "clean plan:\n{}",
            outcome.report
        );
        assert!(outcome.counterexample.is_none());
        // The one run walked: a start and a finish per subgraph.
        assert_eq!(outcome.stats.states, 9);
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
    fn structurally_broken_plan_reports_lint_errors() {
        let (g, mut facts) = diamond();
        facts.subgraphs[0].nodes.push(9999);
        let lint = PlanModel::from_facts(&g, &facts).unwrap_err();
        assert!(lint.contains(codes::PLAN_UNKNOWN_NODE));
    }
}
