//! The static→dynamic bridge for the `D5xx` model checker.
//!
//! Two directions, both required for the checker to mean anything:
//!
//! * **Soundness of "clean"**: a plan the checker proves `D5xx`-clean
//!   must actually run deadlock-free and bit-identically under seeded
//!   [`DelayInjection`] interleaving stress, each device starting its
//!   subgraphs in the lane order the checker proved — property-tested
//!   over the delay-seed space on genuinely heterogeneous schedules of
//!   the zoo's multi-path architectures.
//! * **Soundness of "dirty"**: when the checker condemns a plan, its
//!   synthetic counterexample witness must reproduce as a `D3xx`
//!   violation in the *dynamic* conformance checker — the static
//!   finding is a real run the runtime rules would reject, not an
//!   artifact of the abstraction.
//!
//! The clean direction stresses `::small()` configs of the zoo's
//! heterogeneous architectures with explicitly chunked two-device
//! schedules (the `interleave.rs` idiom): full-size zoo inference takes
//! seconds per run in debug builds, and the zoo's fallback plans
//! serialize on one device lane, where delay injection cannot reorder
//! anything. The full-size zoo plans themselves are proven clean here
//! too — statically, which is milliseconds — and again in release mode
//! by the `duet model-check all` CI gate.

use std::sync::OnceLock;

use duet_analysis::plan_lint::{PlanFacts, PlanSubgraphFacts};
use duet_analysis::{
    check_plan_model, check_witness, codes, ModelCheckConfig, PlanModel, WitnessCheckConfig,
};
use duet_compiler::Compiler;
use duet_core::Duet;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{fingerprint, Graph, NodeId};
use duet_models::{
    input_feeds, mtdnn, siamese, wide_and_deep, zoo_model, MtDnnConfig, SiameseConfig,
    WideAndDeepConfig,
};
use duet_runtime::{
    DelayInjection, HeterogeneousExecutor, Placed, Timeline, WitnessEvent, WitnessLog,
    WitnessSource,
};
use proptest::prelude::*;

const ZOO: &[&str] = &[
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "vgg16",
    "squeezenet",
    "mobilenet",
];

/// One engine per zoo model, built once (short profiling: the plans are
/// the same decisions, just cheaper to reach).
fn engines() -> &'static Vec<Duet> {
    static ENGINES: OnceLock<Vec<Duet>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        ZOO.iter()
            .map(|name| {
                Duet::builder()
                    .profile_runs(20, 3)
                    .build(&zoo_model(name).expect("zoo model exists"))
                    .expect("zoo engine builds")
            })
            .collect()
    })
}

#[test]
fn every_zoo_plan_is_d5xx_clean() {
    for (name, engine) in ZOO.iter().zip(engines()) {
        let outcome = engine.check_plan(&ModelCheckConfig::default());
        assert!(
            !outcome.report.has_errors(),
            "{name} plan must prove clean:\n{}",
            outcome.report
        );
    }
}

/// The zoo's heterogeneous architectures at `::small()` scale — fast
/// enough to run thousands of times in a debug build.
fn small_graph(idx: usize) -> Graph {
    match idx {
        0 => wide_and_deep(&WideAndDeepConfig::small()),
        1 => siamese(&SiameseConfig::small()),
        _ => mtdnn(&MtDnnConfig::small()),
    }
}

/// Split a graph's compute nodes into `k` contiguous topo-order chunks,
/// alternating devices — always a valid heterogeneous schedule.
fn chunked(graph: &Graph, k: usize) -> (Vec<Placed>, Vec<Vec<NodeId>>) {
    let c = Compiler::default();
    let ids = graph.compute_ids();
    let k = k.clamp(1, ids.len());
    let chunk = ids.len().div_ceil(k);
    let node_sets: Vec<Vec<NodeId>> = ids.chunks(chunk).map(<[NodeId]>::to_vec).collect();
    let placed = node_sets
        .iter()
        .enumerate()
        .map(|(i, nodes)| Placed {
            sg: c.compile_nodes(graph, nodes, format!("c{i}")).into(),
            device: if i % 2 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
        })
        .collect();
    (placed, node_sets)
}

/// Model exactly the schedule the executor will run: same node chunks,
/// same devices, triggers derived the same way the executor derives
/// them (from cross-subgraph dataflow), and priced on the executor's
/// system, so the lane order is the one its replay dispatches.
fn model_of(graph: &Graph, placed: &[Placed], node_sets: &[Vec<NodeId>]) -> PlanModel {
    let facts = PlanFacts {
        model: graph.name.clone(),
        fingerprint: fingerprint(graph),
        batch: 1,
        expected_latency_us: None,
        fallback: false,
        critical_path_lb_us: None,
        subgraphs: placed
            .iter()
            .zip(node_sets)
            .map(|(p, nodes)| PlanSubgraphFacts {
                name: p.sg.name.clone(),
                phase: 0,
                multi_path: false,
                nodes: nodes.clone(),
                device: p.device,
            })
            .collect(),
    };
    let mut model = PlanModel::from_facts(graph, &facts).expect("chunked schedule is modelable");
    let subgraphs = || placed.iter().map(|p| &*p.sg);
    let timeline = Timeline::new(graph, subgraphs(), &SystemModel::paper_server())
        .expect("chunked schedule covers its graph");
    model.price_with(&timeline, subgraphs());
    model
}

/// The subgraphs `device`'s lane runs, in the model's order.
fn lane(model: &PlanModel, device: DeviceKind) -> Vec<usize> {
    let on = |&i: &usize| model.subgraphs[i].device == device;
    model.order.iter().copied().filter(on).collect()
}

/// Small wide-and-deep, kept heterogeneous: the replay runs its GPU
/// subgraphs out of plan order, so the lane order is not plan order.
fn reordered_engine() -> &'static Duet {
    static ENGINE: OnceLock<Duet> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Duet::builder()
            .profile_runs(20, 3)
            .no_fallback()
            .build(&wide_and_deep(&WideAndDeepConfig::small()))
            .expect("small wide-and-deep builds")
    })
}

/// Stress a plan with one delay seed after the checker proves it clean:
/// the run completes (deadlock-freedom made operational), each device
/// starts its subgraphs in the lane order the checker proved, and the
/// outputs are the undelayed run's bit for bit (schedule-determinism
/// made operational).
fn stress(
    graph: &Graph,
    placed: &[Placed],
    sys: &SystemModel,
    model: &PlanModel,
    seed: u64,
) -> Result<(), TestCaseError> {
    let outcome = check_plan_model(model, &ModelCheckConfig::default());
    prop_assert!(
        !outcome.report.has_errors(),
        "the plan must prove clean first:\n{}",
        outcome.report
    );
    let feeds = input_feeds(graph, 42);
    let reference = HeterogeneousExecutor::new(graph, placed, sys.clone())
        .run(&feeds)
        .expect("reference run succeeds");
    // A deadlocked dispatch would hang rather than return: the run
    // completing at all is the deadlock-freedom half of the bridge.
    let observer = (WitnessLog::default(), DelayInjection::new(seed, 150));
    let out = HeterogeneousExecutor::new(graph, placed, sys.clone())
        .run_observed(&feeds, &observer)
        .unwrap_or_else(|e| panic!("{} seed={seed}: {e}", graph.name));
    let witness = observer
        .0
        .seal(&graph.name, WitnessSource::Executor, out.virtual_latency_us);
    for device in DeviceKind::both() {
        let started: Vec<usize> = witness
            .events
            .iter()
            .filter_map(|e| match e {
                WitnessEvent::Start { sg, device: d, .. } if *d == device => Some(*sg),
                _ => None,
            })
            .collect();
        prop_assert_eq!(
            started,
            lane(model, device),
            "seed {}: {:?} lane",
            seed,
            device
        );
    }
    prop_assert_eq!(reference.outputs.len(), out.outputs.len());
    for (id, want) in &reference.outputs {
        prop_assert!(
            out.outputs.get(id) == Some(want),
            "seed {seed}: output {id} not bit-identical"
        );
    }
    let executed: usize = out.tasks_per_device.values().sum();
    prop_assert_eq!(executed, placed.len(), "lost or extra task");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bridge property proper: any chunked two-device schedule the
    /// checker proves D5xx-clean survives an arbitrary delay seed.
    #[test]
    fn clean_plans_run_deadlock_free_and_bit_identical(
        arch in 0usize..3,
        k in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let graph = small_graph(arch);
        let (placed, node_sets) = chunked(&graph, k);
        let model = model_of(&graph, &placed, &node_sets);
        stress(&graph, &placed, &SystemModel::paper_server(), &model, seed)?;
    }

    /// The same on an engine's own plan, whose lanes do not run in plan
    /// order: the executor walks the order the checker proved.
    #[test]
    fn an_engine_plan_runs_in_its_proved_lane_order(seed in 0u64..1_000_000) {
        let engine = reordered_engine();
        let model = engine.plan_model().expect("plan is modelable");
        prop_assert!(
            DeviceKind::both().into_iter().any(|d| lane(&model, d).windows(2).any(|w| w[0] > w[1])),
            "some lane runs out of plan order: {:?}",
            model.order
        );
        stress(engine.graph(), engine.placed(), engine.system(), &model, seed)?;
    }
}

/// When the checker *does* condemn a plan, its counterexample is a
/// witness the dynamic `D3xx` checker also rejects — specifically with
/// `D303` (happens-before order): the consumer's start is committed
/// before its producer's finish in the event log.
#[test]
fn counterexample_reproduces_as_d3xx_witness_violation() {
    // siamese: the smallest non-fallback zoo plan, so the engine's
    // placed schedule is exactly the heterogeneous plan the model
    // checker models (witness subgraph indices line up).
    let engine = &engines()[1];
    assert!(
        engine.fallback_device().is_none(),
        "siamese is heterogeneous"
    );
    let model = engine.plan_model().expect("plan is modelable");
    // Drop a cross-device edge that no other trigger or lane order
    // covers: the first whose removal the checker condemns as D501.
    let crosses = |&(i, t): &(usize, usize)| model.subgraphs[i].device != model.subgraphs[t].device;
    let outcome = (0..model.subgraphs.len())
        .flat_map(|i| model.subgraphs[i].triggers.iter().map(move |&t| (i, t)))
        .filter(crosses)
        .map(|(consumer, producer)| {
            let mut dropped = model.clone();
            dropped.drop_trigger(consumer, producer);
            check_plan_model(&dropped, &ModelCheckConfig::default())
        })
        .find(|o| o.report.contains(codes::MODEL_NONDETERMINISM))
        .expect("some cross-device edge is covered by its trigger alone");
    let cex = outcome
        .counterexample
        .expect("D501 carries a counterexample");

    let dynamic = check_witness(
        engine.graph(),
        engine.placed(),
        engine.system(),
        &cex,
        &WitnessCheckConfig::default(),
    );
    assert!(
        dynamic.contains(codes::WITNESS_ORDER),
        "static counterexample must reproduce as a dynamic D303 happens-before \
         violation:\n{dynamic}"
    );
}
