//! Interleaving stress harness: a practical race/deadlock detector for
//! the executor's lane queues (`std::sync::mpsc`), trigger counters and
//! value-store mutex.
//!
//! Each case runs a branchy model through the threaded executor many
//! times with seeded random worker delays ([`DelayInjection`]) that
//! perturb the *real* interleaving of the two workers. Every run must:
//!
//! * produce a witness that passes the full `D3xx` conformance check
//!   (happens-before order, virtual-clock readiness, per-device
//!   monotonicity, transfer accounting, latency recomputation);
//! * produce bit-identical outputs to the undelayed reference run —
//!   dataflow execution admits many orders but exactly one answer.
//!
//! The delays make lost-wakeup, double-trigger and value-race bugs
//! vastly more likely to manifest than back-to-back reruns would; the
//! witness checker then turns any manifestation into a diagnostic
//! instead of a silent wrong answer. `ci.sh` runs this suite on a fixed
//! seed set on every gate.

use duet_analysis::{check_witness, WitnessCheckConfig};
use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphBuilder, NodeId, Op};
use duet_models::{
    input_feeds, mtdnn, siamese, wide_and_deep, MtDnnConfig, SiameseConfig, WideAndDeepConfig,
};
use duet_runtime::{DelayInjection, HeterogeneousExecutor, Placed, WitnessLog, WitnessSource};

/// Split a graph's compute nodes into `k` contiguous topo-order chunks,
/// alternating devices — always a valid schedule, always branchy enough
/// to keep both workers busy.
fn chunked(graph: &Graph, k: usize) -> Vec<Placed> {
    let c = Compiler::default();
    let ids = graph.compute_ids();
    let k = k.clamp(1, ids.len());
    let chunk = ids.len().div_ceil(k);
    ids.chunks(chunk)
        .enumerate()
        .map(|(i, nodes)| Placed {
            sg: c.compile_nodes(graph, nodes, format!("c{i}")).into(),
            device: if i % 2 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
        })
        .collect()
}

/// Four independent dense branches into a concat head: the widest
/// hand-built dependency fan the two workers can race over.
fn branchy4() -> Graph {
    let mut b = GraphBuilder::new("branchy4", 5);
    let x = b.input("x", vec![1, 48]);
    let mut branches = Vec::new();
    for (i, act) in [Op::Relu, Op::Tanh, Op::Sigmoid, Op::Relu]
        .iter()
        .enumerate()
    {
        let h = b.dense(&format!("b{i}"), x, 48, Some(act.clone())).unwrap();
        branches.push(b.dense(&format!("b{i}out"), h, 24, None).unwrap());
    }
    let cat = b.op("cat", Op::Concat { axis: 1 }, &branches).unwrap();
    let y = b.dense("head", cat, 8, None).unwrap();
    b.finish(&[y]).unwrap()
}

/// Per-branch placement of `branchy4`: each branch its own subgraph.
fn branchy4_placed(g: &Graph) -> Vec<Placed> {
    let c = Compiler::default();
    let ids = g.compute_ids();
    let mut placed = Vec::new();
    for i in 0..4 {
        let nodes: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&n| g.node(n).label.starts_with(&format!("b{i}")))
            .collect();
        placed.push(Placed {
            sg: c.compile_nodes(g, &nodes, format!("b{i}")).into(),
            device: if i % 2 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
        });
    }
    let rest: Vec<NodeId> = ids
        .iter()
        .copied()
        .filter(|&n| !g.node(n).label.starts_with('b'))
        .collect();
    placed.push(Placed {
        sg: c.compile_nodes(g, &rest, "head").into(),
        device: DeviceKind::Cpu,
    });
    placed
}

/// Stress one (graph, placement) pair over `seeds` delay seeds.
fn stress(graph: &Graph, placed: &[Placed], seeds: std::ops::Range<u64>, max_delay_us: u64) {
    let sys = SystemModel::paper_server();
    let cfg = WitnessCheckConfig::default();
    let feeds = input_feeds(graph, 42);
    // Undelayed reference run: the one answer every interleaving must
    // reproduce bit for bit.
    let reference = HeterogeneousExecutor::new(graph, placed, sys.clone())
        .run(&feeds)
        .expect("reference run succeeds");
    for seed in seeds {
        let exec = HeterogeneousExecutor::new(graph, placed, sys.clone());
        let observer = (
            WitnessLog::default(),
            DelayInjection::new(seed, max_delay_us),
        );
        let out = exec
            .run_observed(&feeds, &observer)
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        let witness = observer
            .0
            .seal(&graph.name, WitnessSource::Executor, out.virtual_latency_us);
        let report = check_witness(graph, placed, &sys, &witness, &cfg);
        assert!(
            !report.has_errors(),
            "seed {seed}: witness conformance failed:\n{report}"
        );
        assert_eq!(
            out.outputs.len(),
            reference.outputs.len(),
            "seed {seed}: output arity changed"
        );
        for (&id, want) in &reference.outputs {
            assert_eq!(
                out.outputs.get(&id),
                Some(want),
                "seed {seed}: output node {id} not bit-identical"
            );
        }
        let executed: usize = out.tasks_per_device.values().sum();
        assert_eq!(executed, placed.len(), "seed {seed}: lost or extra task");
    }
}

#[test]
fn branchy4_survives_hundreds_of_interleavings() {
    let g = branchy4();
    let placed = branchy4_placed(&g);
    stress(&g, &placed, 0..200, 120);
}

/// One device owns every subgraph: the caller runs the only lane and no
/// thread is spawned, with the delays on the calling thread.
#[test]
fn single_device_placement_is_conformant_under_delays() {
    let g = branchy4();
    let mut placed = branchy4_placed(&g);
    for p in &mut placed {
        p.device = DeviceKind::Gpu;
    }
    stress(&g, &placed, 0..25, 120);
}

#[test]
fn siamese_small_chunked_interleavings_are_conformant() {
    let g = siamese(&SiameseConfig::small());
    let placed = chunked(&g, 5);
    stress(&g, &placed, 0..25, 150);
}

#[test]
fn mtdnn_small_chunked_interleavings_are_conformant() {
    let g = mtdnn(&MtDnnConfig::small());
    let placed = chunked(&g, 6);
    stress(&g, &placed, 0..25, 150);
}

#[test]
fn wide_deep_small_chunked_interleavings_are_conformant() {
    let g = wide_and_deep(&WideAndDeepConfig::small());
    let placed = chunked(&g, 4);
    stress(&g, &placed, 0..25, 150);
}
