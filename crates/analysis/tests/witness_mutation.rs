//! Witness mutation tests: record a genuine, clean witness from the
//! threaded executor (and the simulator), then seed one corruption per
//! `D3xx` class and assert the conformance checker reports the distinct
//! code reserved for that class.

use duet_analysis::{check_agreement, check_witness, codes, WitnessCheckConfig};
use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphBuilder, NodeId, Op};
use duet_models::input_feeds;
use duet_runtime::{
    simulate_witnessed, ExecutionWitness, HeterogeneousExecutor, Placed, SimNoise, WitnessEvent,
    WitnessLog, WitnessSource,
};

/// Two dense branches joined by a concat head — enough structure for
/// cross-device edges, H2D feeds and a final D2H.
fn branchy() -> Graph {
    let mut b = GraphBuilder::new("victim", 3);
    let x = b.input("x", vec![1, 32]);
    let l = b.dense("left", x, 32, Some(Op::Relu)).unwrap();
    let r = b.dense("right", x, 32, Some(Op::Tanh)).unwrap();
    let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
    let y = b.dense("head", cat, 4, None).unwrap();
    b.finish(&[y]).unwrap()
}

fn split(g: &Graph, devices: [DeviceKind; 3]) -> Vec<Placed> {
    let c = Compiler::default();
    let ids = g.compute_ids();
    let by_prefix = |p: &str| -> Vec<NodeId> {
        ids.iter()
            .copied()
            .filter(|&i| g.node(i).label.starts_with(p))
            .collect()
    };
    let (left, right) = (by_prefix("left"), by_prefix("right"));
    let rest: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|i| !left.contains(i) && !right.contains(i))
        .collect();
    [(left, "left"), (right, "right"), (rest, "rest")]
        .into_iter()
        .zip(devices)
        .map(|((nodes, name), device)| Placed {
            sg: c.compile_nodes(g, &nodes, name).into(),
            device,
        })
        .collect()
}

/// A fresh clean executor witness for `devices`, plus its context.
fn witnessed(devices: [DeviceKind; 3]) -> (Graph, Vec<Placed>, SystemModel, ExecutionWitness) {
    let g = branchy();
    let placed = split(&g, devices);
    let sys = SystemModel::paper_server();
    let exec = HeterogeneousExecutor::new(&g, &placed, sys.clone());
    let log = WitnessLog::default();
    let out = exec.run_observed(&input_feeds(&g, 7), &log).unwrap();
    let w = log.seal(&g.name, WitnessSource::Executor, out.virtual_latency_us);
    (g, placed, sys, w)
}

const BASE: [DeviceKind; 3] = [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu];

fn start_pos(w: &ExecutionWitness, sg: usize) -> usize {
    w.events
        .iter()
        .position(|e| matches!(e, WitnessEvent::Start { sg: s, .. } if *s == sg))
        .expect("start present")
}

fn finish_pos(w: &ExecutionWitness, sg: usize) -> usize {
    w.events
        .iter()
        .position(|e| matches!(e, WitnessEvent::Finish { sg: s, .. } if *s == sg))
        .expect("finish present")
}

#[test]
fn baseline_executor_and_simulator_witnesses_are_clean() {
    let (g, placed, sys, w) = witnessed(BASE);
    let cfg = WitnessCheckConfig::default();
    let r = check_witness(&g, &placed, &sys, &w, &cfg);
    assert!(r.is_clean(), "executor witness must start clean:\n{r}");

    let (_, sw) = simulate_witnessed(&g, &placed, &sys, &mut SimNoise::disabled());
    let r = check_witness(&g, &placed, &sys, &sw, &cfg);
    assert!(r.is_clean(), "simulator witness must start clean:\n{r}");

    let a = check_agreement(&w, &sw);
    assert!(a.is_clean(), "executor and simulator must agree:\n{a}");
}

#[test]
fn reordered_event_is_caught_as_d303() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    // Commit the head's start before its producers' finishes: classic
    // lost-synchronization symptom. Timestamps stay untouched, so only
    // the observed order is wrong.
    let start = w.events.remove(start_pos(&w, 2));
    w.events.insert(0, start);
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(r.contains(codes::WITNESS_ORDER), "expected D303 in:\n{r}");
}

#[test]
fn clock_overlap_is_caught_as_d305() {
    // Both branches on the CPU: independent same-device subgraphs whose
    // only readiness constraint is the host-resident input.
    let (g, placed, sys, mut w) = witnessed([DeviceKind::Cpu, DeviceKind::Cpu, DeviceKind::Gpu]);
    let left_finish = match &w.events[finish_pos(&w, 0)] {
        WitnessEvent::Finish { at_us, .. } => *at_us,
        _ => unreachable!(),
    };
    // Pretend the CPU dispatched "right" halfway through "left".
    let pos = start_pos(&w, 1);
    if let WitnessEvent::Start { at_us, .. } = &mut w.events[pos] {
        *at_us = left_finish / 2.0;
    }
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_CLOCK_OVERLAP),
        "expected D305 in:\n{r}"
    );
}

#[test]
fn missing_transfer_is_caught_as_d306() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    let pos = w
        .events
        .iter()
        .position(|e| matches!(e, WitnessEvent::Transfer { .. }))
        .expect("a transfer was recorded");
    w.events.remove(pos);
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_MISSING_TRANSFER),
        "expected D306 in:\n{r}"
    );
}

#[test]
fn spurious_transfer_is_caught_as_d306() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    // Claim the CPU-placed "left" subgraph needed an H2D of the input.
    w.events.push(WitnessEvent::Transfer {
        node: g.input_ids()[0],
        kind: duet_runtime::TransferKind::HostToDevice,
        bytes: 128.0,
        time_us: 1.0,
        consumer: Some(0),
    });
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_MISSING_TRANSFER),
        "expected D306 in:\n{r}"
    );
}

#[test]
fn mispriced_transfer_is_caught_as_d307() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    for e in &mut w.events {
        if let WitnessEvent::Transfer { time_us, .. } = e {
            *time_us *= 3.0;
        }
    }
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_TRANSFER_TIME),
        "expected D307 in:\n{r}"
    );
}

#[test]
fn missing_execution_is_caught_as_d300() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    w.events.retain(|e| e.subgraph() != Some(0));
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_MISSING_EXECUTION),
        "expected D300 in:\n{r}"
    );
}

#[test]
fn duplicate_execution_is_caught_as_d301() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    let start = w.events[start_pos(&w, 0)].clone();
    let finish = w.events[finish_pos(&w, 0)].clone();
    w.events.push(start);
    w.events.push(finish);
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_DUPLICATE_EXECUTION),
        "expected D301 in:\n{r}"
    );
}

#[test]
fn wrong_device_is_caught_as_d302() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    let pos = start_pos(&w, 0);
    if let WitnessEvent::Start { device, .. } = &mut w.events[pos] {
        *device = device.other();
    }
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_MALFORMED),
        "expected D302 in:\n{r}"
    );
}

#[test]
fn lost_finish_is_caught_as_d302() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    let pos = finish_pos(&w, 1);
    w.events.remove(pos);
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_MALFORMED),
        "expected D302 in:\n{r}"
    );
}

#[test]
fn readiness_violation_is_caught_as_d304() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    // The head consumed the GPU branch's output across the device
    // boundary; claiming it started at t=0 ignores producer + transfer.
    let pos = start_pos(&w, 2);
    if let WitnessEvent::Start { at_us, .. } = &mut w.events[pos] {
        *at_us = 0.0;
    }
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(
        r.contains(codes::WITNESS_CLOCK_READINESS),
        "expected D304 in:\n{r}"
    );
}

#[test]
fn fudged_latency_is_caught_as_d308() {
    let (g, placed, sys, mut w) = witnessed(BASE);
    w.virtual_latency_us *= 2.0;
    let r = check_witness(&g, &placed, &sys, &w, &WitnessCheckConfig::default());
    assert!(r.contains(codes::WITNESS_LATENCY), "expected D308 in:\n{r}");
}

#[test]
fn latency_divergence_is_caught_as_d310() {
    let (_, _, _, w) = witnessed(BASE);
    let mut other = w.clone();
    other.virtual_latency_us *= 2.0;
    let r = check_agreement(&w, &other);
    assert!(
        r.contains(codes::WITNESS_DIVERGENCE_LATENCY),
        "expected D310 in:\n{r}"
    );
    // One ulp apart is apart: both witnesses record the same replay.
    other.virtual_latency_us = f64::from_bits(w.virtual_latency_us.to_bits() + 1);
    let r = check_agreement(&w, &other);
    assert!(
        r.contains(codes::WITNESS_DIVERGENCE_LATENCY),
        "expected D310 in:\n{r}"
    );
}

#[test]
fn order_divergence_is_caught_as_d311_error() {
    let (_, _, _, w) = witnessed(BASE);
    let mut other = w.clone();
    // Swap the two CPU dispatches ("left" sg 0 and "rest" sg 2) in the
    // copy: same sets per device, different order.
    let (a, b) = (start_pos(&other, 0), start_pos(&other, 2));
    other.events.swap(a, b);
    let r = check_agreement(&w, &other);
    assert!(
        r.contains(codes::WITNESS_DIVERGENCE_ORDER),
        "expected D311 in:\n{r}"
    );
    assert!(r.has_errors(), "D311 is an error:\n{r}");
}
