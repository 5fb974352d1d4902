//! Property-based tests for the runtime: simulator conservation laws,
//! profiler/simulator agreement, and threaded-executor correctness on
//! random schedules of random graphs.

use std::collections::HashMap;
use std::sync::OnceLock;

use duet_analysis::WitnessCheckConfig;
use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, Op};
use duet_models::zoo_model;
use duet_runtime::{
    measure_latency, simulate, subgraph_exec_time_us, HeterogeneousExecutor, Placed, Profiler,
    SimNoise,
};
use duet_tensor::Tensor;
use proptest::prelude::*;

/// The paper workloads, built once: the executor-vs-simulator agreement
/// property samples random placements of all of them, and graph
/// construction (not placement) dominates the cost.
fn zoo() -> &'static [(String, Graph)] {
    static ZOO: OnceLock<Vec<(String, Graph)>> = OnceLock::new();
    ZOO.get_or_init(|| {
        [
            "wide_and_deep",
            "siamese",
            "mtdnn",
            "resnet18",
            "resnet50",
            "vgg16",
            "squeezenet",
            "mobilenet",
        ]
        .iter()
        .map(|&n| (n.to_string(), zoo_model(n).expect("zoo model exists")))
        .collect()
    })
}

#[derive(Debug, Clone)]
struct Spec {
    op_sel: u8,
    a: prop::sample::Index,
    b: prop::sample::Index,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..6,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
    )
        .prop_map(|(op_sel, a, b)| Spec { op_sel, a, b })
}

fn build(specs: &[Spec]) -> Graph {
    let mut g = Graph::new("r");
    let x = g.add_input("x", vec![6]);
    let mut nodes = vec![g.add_op("seed", Op::Relu, &[x]).unwrap()];
    for (i, s) in specs.iter().enumerate() {
        let pick = |idx: &prop::sample::Index| nodes[idx.index(nodes.len())];
        let id = match s.op_sel {
            0 => g.add_op(format!("n{i}"), Op::Relu, &[pick(&s.a)]).unwrap(),
            1 => g.add_op(format!("n{i}"), Op::Tanh, &[pick(&s.a)]).unwrap(),
            2 => g
                .add_op(format!("n{i}"), Op::Sigmoid, &[pick(&s.a)])
                .unwrap(),
            3 => g
                .add_op(format!("n{i}"), Op::Add, &[pick(&s.a), pick(&s.b)])
                .unwrap(),
            4 => g
                .add_op(format!("n{i}"), Op::Mul, &[pick(&s.a), pick(&s.b)])
                .unwrap(),
            _ => g
                .add_op(format!("n{i}"), Op::Scale { factor: 0.3 }, &[pick(&s.a)])
                .unwrap(),
        };
        nodes.push(id);
    }
    for id in g.compute_ids() {
        if g.node(id).outputs.is_empty() {
            g.mark_output(id).unwrap();
        }
    }
    g
}

/// Split a graph's compute nodes into `k` contiguous (topo-order) chunks
/// and compile each — an arbitrary but always-valid coverage.
fn chunked(graph: &Graph, k: usize, device_bits: u64) -> Vec<Placed> {
    let compiler = Compiler::default();
    let ids = graph.compute_ids();
    let k = k.clamp(1, ids.len());
    let chunk = ids.len().div_ceil(k);
    ids.chunks(chunk)
        .enumerate()
        .map(|(i, nodes)| Placed {
            sg: compiler.compile_nodes(graph, nodes, format!("c{i}")),
            device: if device_bits >> (i % 64) & 1 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn timeline_is_consistent(
        specs in prop::collection::vec(spec(), 1..30),
        k in 1usize..6,
        bits in any::<u64>(),
    ) {
        let g = build(&specs);
        let sys = SystemModel::paper_server();
        let placed = chunked(&g, k, bits);
        let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
        // Every subgraph appears exactly once, intervals are well-formed,
        // and per-device intervals never overlap (one subgraph per device).
        prop_assert_eq!(r.timeline.len(), placed.len());
        for e in &r.timeline {
            prop_assert!(e.end_us >= e.start_us);
        }
        for d in DeviceKind::both() {
            let mut iv: Vec<(f64, f64)> = r
                .timeline
                .iter()
                .filter(|e| e.device == d)
                .map(|e| (e.start_us, e.end_us))
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in iv.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-9, "device {d} overlaps");
            }
        }
        // Latency is the max finish (+ possible D2H) — at least max end.
        let max_end = r.timeline.iter().map(|e| e.end_us).fold(0.0, f64::max);
        prop_assert!(r.latency_us >= max_end - 1e-9);
    }

    #[test]
    fn noise_only_increases_tail_not_determinism(
        specs in prop::collection::vec(spec(), 1..20),
        seed in any::<u64>(),
    ) {
        let g = build(&specs);
        let sys = SystemModel::paper_server();
        let placed = chunked(&g, 3, 0b101);
        let clean = measure_latency(&g, &placed, &sys);
        let mut n1 = SimNoise::seeded(seed);
        let mut n2 = SimNoise::seeded(seed);
        let a = simulate(&g, &placed, &sys, &mut n1).latency_us;
        let b = simulate(&g, &placed, &sys, &mut n2).latency_us;
        prop_assert_eq!(a, b, "same seed, same result");
        // Noise is multiplicative around 1: stays within a sane envelope.
        prop_assert!(a > clean * 0.5 && a < clean * 3.0);
    }

    #[test]
    fn profiler_mean_tracks_model_time(
        specs in prop::collection::vec(spec(), 1..20),
    ) {
        let g = build(&specs);
        let sys = SystemModel::paper_server();
        let compiler = Compiler::default();
        let sg = compiler.compile_whole(&g, "w");
        let profile = Profiler::new(sys.clone()).profile(&g, &sg);
        for device in DeviceKind::both() {
            let model_t = subgraph_exec_time_us(&sys, device, &sg);
            let measured = profile.time_on(device);
            prop_assert!(
                (measured - model_t).abs() / model_t < 0.05,
                "profiled {measured} vs model {model_t}"
            );
        }
    }

    #[test]
    fn threaded_executor_correct_on_random_schedules(
        specs in prop::collection::vec(spec(), 1..20),
        k in 1usize..5,
        bits in any::<u64>(),
    ) {
        let g = build(&specs);
        let placed = chunked(&g, k, bits);
        let exec = HeterogeneousExecutor::new(&g, &placed, SystemModel::paper_server());
        let feeds = HashMap::from([(g.input_ids()[0], Tensor::randn(vec![6], 1.0, bits))]);
        let out = exec.run(&feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        for (i, &id) in g.outputs().iter().enumerate() {
            prop_assert!(out.outputs[&id].approx_eq(&want[i], 1e-5));
        }
        prop_assert!(out.virtual_latency_us > 0.0);
    }

    /// Satellite of the D3xx conformance work: for every paper workload
    /// under a random valid placement, the threaded executor's virtual
    /// latency and the noise-free simulator's latency agree within the
    /// documented agreement tolerance ([`WitnessCheckConfig`]'s
    /// `agreement_tol`, the same bound `check_agreement` enforces as
    /// D310). The executor runs in virtual mode (no tensor numerics),
    /// which makes paper-size models cheap to drive through the real
    /// threaded machinery.
    #[test]
    fn zoo_executor_and_simulator_latencies_agree(
        model in any::<prop::sample::Index>(),
        k in 2usize..9,
        bits in any::<u64>(),
    ) {
        let (name, g) = &zoo()[model.index(zoo().len())];
        let sys = SystemModel::paper_server();
        let placed = chunked(g, k, bits);
        let sim = simulate(g, &placed, &sys, &mut SimNoise::disabled()).latency_us;
        let exec = HeterogeneousExecutor::new(g, &placed, sys)
            .run_virtual()
            .unwrap()
            .virtual_latency_us;
        let tol = WitnessCheckConfig::default().agreement_tol;
        let rel = (exec - sim).abs() / sim.max(1e-9);
        prop_assert!(
            rel <= tol,
            "{name} (k={k}, bits={bits:#x}): executor {exec:.1}us vs sim {sim:.1}us \
             diverge by {rel:.3} > {tol}"
        );
    }
}
