//! Zoo-wide properties of the memory-planned tape executor.
//!
//! The tape is the execution path, so the bar is bit identity — not
//! approximate agreement — against the reference interpreter
//! (`Graph::eval` of the same optimized graph), which computes every value
//! in a fresh buffer and therefore cannot suffer slot-reuse bugs. Every
//! model family in the zoo is covered (the MLP/LSTM/CNN-branched
//! wide-and-deep, the Siamese bi-LSTM, the transformer MT-DNN, and
//! pure CNNs), both through a fresh tape run and through a reused
//! arena, across proptest-driven feed seeds. Execution uses the zoo's
//! `small()` configs — same operators and graph topology, test-sized
//! tensors — while the planner assertions compile the full paper-scale
//! models.

use std::collections::HashMap;

use duet_compiler::passes::fuse_groups;
use duet_compiler::{CompileOptions, CompiledSubgraph, Compiler, EpilogueOp, TapeArena};
use duet_ir::{Graph, GraphBuilder, NodeId, Op};
use duet_models::{
    input_feeds, mobilenet, mtdnn, resnet, siamese, wide_and_deep, zoo_model, MobileNetConfig,
    MtDnnConfig, ResNetConfig, SiameseConfig, WideAndDeepConfig,
};
use duet_tensor::Tensor;
use proptest::prelude::*;

/// One small-config representative per zoo family.
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("wide_and_deep", wide_and_deep(&WideAndDeepConfig::small())),
        ("siamese", siamese(&SiameseConfig::small())),
        ("mtdnn", mtdnn(&MtDnnConfig::small())),
        ("resnet", resnet(&ResNetConfig::small())),
        ("mobilenet", mobilenet(&MobileNetConfig::small())),
    ]
}

/// A chain of every elementwise operator with no anchor to fuse into. As
/// singletons its instructions copy operand 0 from a feed (`x` is read
/// twice) and from live slots (`s` and `d` are read twice), and its batch
/// norm runs standalone.
fn elementwise_chain() -> Graph {
    let mut b = GraphBuilder::new("elementwise_chain", 11);
    let x = b.input("x", vec![2, 3, 4, 4]);
    let bias = b.weight("bias", &[4]);
    let (gamma, beta) = (b.weight("gamma", &[3]), b.weight("beta", &[3]));
    let (mean, var) = (b.zeros("mean", &[3]), b.ones("var", &[3]));
    let mut op = |label: &str, op: Op, inputs: &[NodeId]| b.op(label, op, inputs).unwrap();
    let s = op("sigmoid", Op::Sigmoid, &[x]);
    let t = op("scale", Op::Scale { factor: 0.5 }, &[s]);
    let p = op("mul", Op::Mul, &[s, t]);
    let d = op("sub", Op::Sub, &[x, p]);
    let g = op("gelu", Op::Gelu, &[d]);
    let h = op("tanh", Op::Tanh, &[g]);
    let c = op("bias_add", Op::BiasAdd, &[h, bias]);
    let n = op("batch_norm", Op::BatchNorm2d, &[c, gamma, beta, mean, var]);
    let r = op("relu", Op::Relu, &[n]);
    let y = op("add", Op::Add, &[r, d]);
    b.finish(&[y]).unwrap()
}

/// Optimize through the real pipeline and lower the whole graph into
/// one subgraph — the same lowering every placed unit goes through.
fn compile(name: &str, graph: &Graph) -> (Graph, CompiledSubgraph) {
    let (graph, _) = Compiler::new(CompileOptions::default())
        .optimize(graph)
        .expect("optimize");
    let ids = graph.compute_ids();
    let sg = CompiledSubgraph::from_groups(&graph, name, fuse_groups(&graph, &ids));
    (graph, sg)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn assert_bit_identical(name: &str, want: &HashMap<NodeId, Tensor>, got: &HashMap<NodeId, Tensor>) {
    assert_eq!(want.len(), got.len(), "{name}: output count");
    for (id, w) in want {
        let g = got
            .get(id)
            .unwrap_or_else(|| panic!("{name}: missing {id}"));
        assert_eq!(w.shape(), g.shape(), "{name}: shape of {id}");
        assert_eq!(bits(w), bits(g), "{name}: output {id} not bit-identical");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tape output == `Graph::eval` output, to the bit, for every model
    /// family and random feed seed — through a fresh run AND through a
    /// warm arena reused across three inferences.
    #[test]
    fn tape_bit_identical_to_reference(seed in 0u64..1_000_000) {
        for (name, model) in families() {
            let (graph, sg) = compile(name, &model);
            let env = input_feeds(&graph, seed);
            let values = graph.eval(&env).unwrap();
            let want: HashMap<NodeId, Tensor> =
                graph.outputs().iter().copied().zip(values).collect();

            let fresh = sg.execute(&env).unwrap();
            assert_bit_identical(name, &want, &fresh);

            let mut arena = TapeArena::for_tape(&sg.tape);
            for _ in 0..3 {
                let warm = sg.execute_with_arena(&env, &mut arena).unwrap();
                assert_bit_identical(name, &want, &warm);
            }
        }
    }
}

/// The planner must actually save memory on every zoo model — a plan
/// that degenerates to one-slot-per-value would silently pass the
/// identity tests above. Paper-scale configs: compiled, never executed.
#[test]
fn planner_beats_naive_on_every_zoo_model() {
    for name in [
        "wide_and_deep",
        "siamese",
        "mtdnn",
        "resnet18",
        "resnet50",
        "vgg16",
        "squeezenet",
        "mobilenet",
    ] {
        let model = zoo_model(name).expect("zoo model");
        let (_, sg) = compile(name, &model);
        let plan = &sg.tape.plan;
        assert!(
            plan.planned_peak_bytes < plan.naive_peak_bytes,
            "{name}: planned {} >= naive {}",
            plan.planned_peak_bytes,
            plan.naive_peak_bytes
        );
        assert!(
            plan.reused_slots > 0 || plan.in_place_ops > 0,
            "{name}: plan shows no reuse at all"
        );
        assert!(
            plan.fused_epilogues > 0,
            "{name}: no epilogue chains fused on the tape"
        );
    }
}

/// The dataflow-proof-gated BatchNorm handling must actually fire: zoo
/// CNNs carry constant, provably well-conditioned BatchNorm statistics
/// (unit variance), so conv → batchnorm (→ relu) chains emit as single
/// fused instructions whose BatchNorm is an [`EpilogueOp::BatchNorm`]
/// step mutating the convolution's output buffer — no standalone
/// BatchNorm instruction, no intermediate slot. Bit identity of the
/// fused chain is covered by `tape_bit_identical_to_reference` above
/// (resnet and mobilenet are in `families()`).
#[test]
fn batch_norm_fuses_into_conv_on_zoo_cnns() {
    for name in ["resnet18", "mobilenet"] {
        let model = zoo_model(name).expect("zoo model");
        let (graph, sg) = compile(name, &model);
        let bn_steps = sg
            .tape
            .instrs
            .iter()
            .flat_map(|i| i.epilogue.iter())
            .filter(|s| matches!(s.op, EpilogueOp::BatchNorm { .. }))
            .count();
        let bn_nodes = graph
            .compute_ids()
            .iter()
            .filter(|&&id| matches!(graph.node(id).op, Op::BatchNorm2d))
            .count();
        assert!(
            bn_steps > 0,
            "{name}: no batch-norm epilogue steps on the tape"
        );
        assert_eq!(
            bn_steps, bn_nodes,
            "{name}: some batch-norms still anchor their own instruction"
        );
        assert!(sg.tape.plan.fused_epilogues >= bn_steps);
    }
}

/// Fusion is bit-transparent: the fused groups and singleton groups (one
/// instruction per node) produce the same outputs, to the bit, on every
/// zoo family.
#[test]
fn fused_and_singleton_groups_are_bit_identical() {
    let elementwise = ("elementwise_chain", elementwise_chain());
    for (name, model) in families().into_iter().chain([elementwise]) {
        let (graph, _) = Compiler::new(CompileOptions::default())
            .optimize(&model)
            .expect("optimize");
        let ids = graph.compute_ids();
        let env = input_feeds(&graph, 42);
        let fused = CompiledSubgraph::from_groups(&graph, name, fuse_groups(&graph, &ids));
        let want = fused.execute(&env).unwrap();
        let singletons = ids.iter().map(|&id| vec![id]).collect();
        let unfused = CompiledSubgraph::from_groups(&graph, name, singletons);
        assert_eq!(unfused.tape.instrs.len(), ids.len(), "{name}: one per node");
        let got = unfused.execute(&env).unwrap();
        assert_bit_identical(name, &want, &got);
    }
}

/// Escaped outputs must stay intact when the arena is re-run: a second
/// inference writes into recycled buffers, and the refresh logic must
/// copy-on-write rather than clobber the tensors already handed out.
#[test]
fn arena_rerun_does_not_clobber_published_outputs() {
    let model = wide_and_deep(&WideAndDeepConfig::small());
    let (graph, sg) = compile("wide_and_deep", &model);
    let mut arena = TapeArena::for_tape(&sg.tape);
    let out1 = sg
        .execute_with_arena(&input_feeds(&graph, 1), &mut arena)
        .unwrap();
    let snapshot: HashMap<NodeId, Vec<u32>> = out1.iter().map(|(&k, v)| (k, bits(v))).collect();
    let out2 = sg
        .execute_with_arena(&input_feeds(&graph, 2), &mut arena)
        .unwrap();
    for (id, t) in &out1 {
        assert_eq!(
            &bits(t),
            &snapshot[id],
            "run 2 clobbered run 1's output {id}"
        );
    }
    // And the second run really produced different numbers (different
    // feeds), so the assertion above is not vacuous.
    assert!(out1.iter().any(|(id, t)| bits(t) != bits(&out2[id])));
}
