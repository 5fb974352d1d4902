//! Mutation coverage for the `D5xx` plan model checker: each injected
//! plan corruption must produce exactly the diagnostic code that names
//! it, with a renderable counterexample trace where the property is an
//! ordering property. `ci.sh` runs this suite as the model-check
//! mutation gate.
//!
//! The victim is a two-branch heterogeneous plan with a deliberately
//! heavyweight GPU branch, priced with the same per-kernel cost model
//! the simulator charges, and carrying the simulator's own makespan as
//! its claimed latency — so every check runs exactly as it does for a
//! real engine plan.

use duet_analysis::codes;
use duet_analysis::model_check::{check_plan_model, ModelCheckConfig, PlanModel};
use duet_analysis::plan_lint::{PlanFacts, PlanSubgraphFacts};
use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{fingerprint, Graph, GraphBuilder, NodeId, Op};
use duet_runtime::{chrome_trace, simulate, Placed, SimNoise, Timeline, WitnessEvent};

/// `x -> pre -> {big, side} -> head`: a diamond whose `big` branch is
/// heavy enough (1024x2048 dense) to be genuinely GPU-favorable, so
/// moving it onto the CPU visibly blows the plan's latency claim.
fn victim() -> Graph {
    let mut b = GraphBuilder::new("victim", 3);
    let x = b.input("x", vec![1, 128]);
    let pre = b.dense("pre", x, 1024, Some(Op::Relu)).unwrap();
    let big = b.dense("big", pre, 2048, Some(Op::Relu)).unwrap();
    let side = b.dense("side", pre, 64, None).unwrap();
    let big_out = b.dense("big.out", big, 64, None).unwrap();
    let cat = b
        .op("head", Op::Concat { axis: 1 }, &[big_out, side])
        .unwrap();
    let y = b.dense("head.out", cat, 8, None).unwrap();
    b.finish(&[y]).unwrap()
}

const PLACEMENT: &[(&str, DeviceKind)] = &[
    ("pre", DeviceKind::Cpu),
    ("big", DeviceKind::Gpu),
    ("side", DeviceKind::Cpu),
    ("head", DeviceKind::Cpu),
];

fn subgraph_nodes(g: &Graph, name: &str) -> Vec<NodeId> {
    g.compute_ids()
        .into_iter()
        .filter(|&i| {
            let label = &g.node(i).label;
            label == name || label.starts_with(&format!("{name}."))
        })
        .collect()
}

/// The victim plan, priced: compiled subgraphs, simulator makespan as
/// the claimed latency, escape sets from the tapes.
fn priced_model() -> (Graph, PlanModel, Vec<Placed>) {
    let g = victim();
    let system = SystemModel::paper_server();
    let compiler = Compiler::default();
    let placed: Vec<Placed> = PLACEMENT
        .iter()
        .map(|&(name, device)| Placed {
            sg: compiler
                .compile_nodes(&g, &subgraph_nodes(&g, name), name)
                .into(),
            device,
        })
        .collect();
    let expected = simulate(&g, &placed, &system, &mut SimNoise::disabled()).latency_us;
    let facts = PlanFacts {
        model: g.name.clone(),
        fingerprint: fingerprint(&g),
        batch: 1,
        expected_latency_us: Some(expected),
        fallback: false,
        critical_path_lb_us: None,
        subgraphs: PLACEMENT
            .iter()
            .map(|&(name, device)| PlanSubgraphFacts {
                name: name.into(),
                phase: 0,
                multi_path: false,
                nodes: subgraph_nodes(&g, name),
                device,
            })
            .collect(),
    };
    let mut model = PlanModel::from_facts(&g, &facts).expect("victim plan is structurally sound");
    price(&mut model, &g, &placed);
    (g, model, placed)
}

/// Price `model` from the plan's own timing core on the paper server.
fn price(model: &mut PlanModel, g: &Graph, placed: &[Placed]) {
    let subgraphs = || placed.iter().map(|p| &*p.sg);
    let timeline = Timeline::new(g, subgraphs(), &SystemModel::paper_server())
        .expect("the victim plan covers its graph");
    model.price_with(&timeline, subgraphs());
}

fn index_of(model: &PlanModel, name: &str) -> usize {
    model
        .subgraphs
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("subgraph {name} exists"))
}

#[test]
fn unmutated_plan_proves_every_property() {
    let (_, model, _) = priced_model();
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(
        !outcome.report.has_errors() && outcome.report.warning_count() == 0,
        "priced victim plan must be fully D5xx-clean:\n{}",
        outcome.report
    );
    assert!(outcome.counterexample.is_none());
    assert!(
        outcome.stats.wall_us < 50_000.0,
        "milliseconds, not seconds"
    );
}

#[test]
fn dropped_trigger_is_d501_with_rendered_counterexample() {
    let (_, mut model, _) = priced_model();
    let head = index_of(&model, "head");
    let big = index_of(&model, "big");
    model.drop_trigger(head, big);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(outcome.report.contains(codes::MODEL_NONDETERMINISM));
    assert!(
        !outcome.report.contains(codes::MODEL_DEADLOCK)
            && !outcome.report.contains(codes::MODEL_DEVICE_OVERCOMMIT),
        "the mutation must map to its own code, not a shotgun:\n{}",
        outcome.report
    );

    // The counterexample renders as a loadable Chrome trace whose event
    // order embeds the violation: head starts before big finishes.
    let cex = outcome.counterexample.expect("violations carry a path");
    let head_start = cex
        .events
        .iter()
        .position(|e| matches!(e, WitnessEvent::Start { sg, .. } if *sg == head))
        .expect("head starts");
    let big_finish = cex
        .events
        .iter()
        .position(|e| matches!(e, WitnessEvent::Finish { sg, .. } if *sg == big))
        .expect("big finishes");
    assert!(
        head_start < big_finish,
        "violation visible in the log order"
    );

    let trace = chrome_trace("victim", &cex, &[]);
    let parsed: serde_json::Value =
        serde_json::from_str(&trace).expect("counterexample trace is valid JSON");
    let events = parsed.as_array().expect("chrome trace-event array");
    assert!(
        events.iter().any(|e| e["ph"] == "X"),
        "trace has complete events to render"
    );
}

#[test]
fn trigger_cycle_is_d500_deadlock() {
    let (_, mut model, _) = priced_model();
    let pre = index_of(&model, "pre");
    let head = index_of(&model, "head");
    model.add_trigger(pre, head);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(outcome.report.contains(codes::MODEL_DEADLOCK));
    assert!(
        !outcome.report.contains(codes::MODEL_NONDETERMINISM),
        "no dispatch ever happens out of order in a total deadlock:\n{}",
        outcome.report
    );
    assert!(outcome.counterexample.is_some());
}

#[test]
fn premature_transfer_read_is_d502() {
    let (_, mut model, _) = priced_model();
    // `big` (GPU) reads `pre`'s output across the device boundary; make
    // that copy depart at `pre`'s start — while the buffer is written.
    let big = index_of(&model, "big");
    let node = model.subgraphs[big].reads[0].0;
    model.depart_early(big, node);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(outcome.report.contains(codes::MODEL_TRANSFER_RACE));
    assert!(!outcome.report.contains(codes::MODEL_NONDETERMINISM));
    assert!(outcome.counterexample.is_some());
}

#[test]
fn unescaped_boundary_value_is_d502_aliasing() {
    let (_, mut model, _) = priced_model();
    // Pretend `pre`'s tape recycles the boundary value's slot instead of
    // escaping it: the D4xx cross-check half of D502.
    let pre = index_of(&model, "pre");
    let big = index_of(&model, "big");
    let node = model.subgraphs[big].reads[0].0;
    model.unescape(pre, node);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(outcome.report.contains(codes::MODEL_TRANSFER_RACE));
}

#[test]
fn device_swap_with_stale_latency_claim_is_d503() {
    let (g, mut model, placed) = priced_model();
    // Move the heavyweight GPU branch onto the CPU but keep the plan's
    // original latency claim: the CPU's serialized work now exceeds what
    // the plan promises, i.e. it silently assumes the CPU doubles up.
    let big = index_of(&model, "big");
    model.set_device(&g, big, DeviceKind::Cpu);
    price(&mut model, &g, &placed);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(
        outcome.report.contains(codes::MODEL_DEVICE_OVERCOMMIT),
        "stale latency claim after a device swap must be caught:\n{}",
        outcome.report
    );
    assert!(!outcome.report.contains(codes::MODEL_DEADLOCK));
}

#[test]
fn tight_staleness_bound_is_d504() {
    let (_, model, _) = priced_model();
    let cfg = ModelCheckConfig {
        staleness_bound: Some(0),
        ..Default::default()
    };
    let outcome = check_plan_model(&model, &cfg);
    // `side` can finish on the CPU between `pre`'s finish and `head`'s
    // start, so the pre->head edge has staleness >= 1 > 0.
    assert!(outcome.report.contains(codes::MODEL_TRIGGER_STALENESS));
    assert!(outcome.stats.max_staleness >= 1);
    // The default (auto) bound never fires on the same plan.
    let auto = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(!auto.report.contains(codes::MODEL_TRIGGER_STALENESS));
}

#[test]
fn lane_order_running_a_consumer_before_its_producer_is_exactly_d500() {
    let (_, mut model, _) = priced_model();
    // `side` and `head` share the CPU lane and `head` reads `side`: run
    // `head` first and the lane waits on a trigger only it can fire.
    let side = index_of(&model, "side");
    let head = index_of(&model, "head");
    model.swap_order(side, head);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    let found: Vec<&str> = outcome
        .report
        .diagnostics()
        .iter()
        .map(|d| d.code)
        .collect();
    assert!(
        !found.is_empty() && found.iter().all(|&c| c == codes::MODEL_DEADLOCK),
        "a consumer ahead of its producer on one lane is D500 alone:\n{}",
        outcome.report
    );
    assert!(outcome.counterexample.is_some());
}

#[test]
fn dropped_trigger_covered_by_the_lane_order_is_clean() {
    let (_, mut model, _) = priced_model();
    // `side` runs ahead of `head` on the CPU lane, so `head` still waits
    // for it without the trigger edge.
    let side = index_of(&model, "side");
    let head = index_of(&model, "head");
    model.drop_trigger(head, side);
    let outcome = check_plan_model(&model, &ModelCheckConfig::default());
    assert!(
        outcome.report.is_clean(),
        "the lane order covers the dropped edge:\n{}",
        outcome.report
    );
    assert!(outcome.counterexample.is_none());
}
