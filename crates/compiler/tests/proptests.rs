//! Property-based tests for the compiler: for arbitrary generated
//! graphs, every pass pipeline must preserve program semantics, and
//! fusion/lowering must preserve both semantics and total work.

use std::collections::HashMap;

use duet_compiler::{passes, CompileOptions, Compiler};
use duet_ir::{Graph, NodeId, Op};
use duet_tensor::Tensor;
use proptest::prelude::*;

/// Recipe for a random elementwise-DAG node (see `build_graph`).
#[derive(Debug, Clone)]
struct Spec {
    op_sel: u8,
    a: prop::sample::Index,
    b: prop::sample::Index,
    const_operand: bool,
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0u8..7,
        any::<prop::sample::Index>(),
        any::<prop::sample::Index>(),
        any::<bool>(),
    )
        .prop_map(|(op_sel, a, b, const_operand)| Spec {
            op_sel,
            a,
            b,
            const_operand,
        })
}

/// Build a random graph mixing input-dependent and constant subtrees so
/// folding, CSE and DCE all have work to do.
fn build_graph(specs: &[Spec]) -> (Graph, NodeId) {
    let mut g = Graph::new("random");
    let x = g.add_input("x", vec![6]);
    let c0 = g.add_constant("c0", Tensor::randn(vec![6], 1.0, 999));
    let mut nodes: Vec<NodeId> = vec![x, c0];
    for (i, s) in specs.iter().enumerate() {
        let pick = |idx: &prop::sample::Index| nodes[idx.index(nodes.len())];
        let id = match s.op_sel {
            0 => g.add_op(format!("n{i}"), Op::Relu, &[pick(&s.a)]).unwrap(),
            1 => g.add_op(format!("n{i}"), Op::Tanh, &[pick(&s.a)]).unwrap(),
            2 => g
                .add_op(format!("n{i}"), Op::Sigmoid, &[pick(&s.a)])
                .unwrap(),
            3 => g
                .add_op(format!("n{i}"), Op::Scale { factor: 0.5 }, &[pick(&s.a)])
                .unwrap(),
            4 => {
                let b = if s.const_operand { c0 } else { pick(&s.b) };
                g.add_op(format!("n{i}"), Op::Add, &[pick(&s.a), b])
                    .unwrap()
            }
            5 => g
                .add_op(format!("n{i}"), Op::Mul, &[pick(&s.a), pick(&s.b)])
                .unwrap(),
            _ => g
                .add_op(format!("n{i}"), Op::Sub, &[pick(&s.a), pick(&s.b)])
                .unwrap(),
        };
        nodes.push(id);
    }
    let last = *nodes.last().unwrap();
    // If the last node is a source, derive an output from it.
    let out = if matches!(g.node(last).op, Op::Input | Op::Constant) {
        g.add_op("out", Op::Relu, &[last]).unwrap()
    } else {
        last
    };
    g.mark_output(out).unwrap();
    (g, x)
}

fn eval_with(g: &Graph, x: NodeId, input: &Tensor) -> Vec<Tensor> {
    g.eval(&HashMap::from([(x, input.clone())])).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_pipeline_preserves_semantics(specs in prop::collection::vec(spec(), 1..40)) {
        let (g, x) = build_graph(&specs);
        let input = Tensor::randn(vec![6], 1.0, 4242);
        let before = eval_with(&g, x, &input);
        let (g2, stats) = Compiler::default().optimize(&g).unwrap();
        // Folding + DCE may remove the input entirely when the output
        // subtree is all-constant.
        let feeds: HashMap<_, _> = g2
            .input_ids()
            .into_iter()
            .map(|id| (id, input.clone()))
            .collect();
        let after = g2.eval(&feeds).unwrap();
        prop_assert!(before[0].approx_eq(&after[0], 1e-4));
        prop_assert!(stats.nodes_after <= stats.nodes_before);
    }

    #[test]
    fn each_pass_individually_preserves_semantics(specs in prop::collection::vec(spec(), 1..30)) {
        let (g, x) = build_graph(&specs);
        let input = Tensor::randn(vec![6], 1.0, 77);
        let want = eval_with(&g, x, &input);
        for (name, result) in [
            ("fold", passes::fold_constants(&g).unwrap().0),
            ("cse", passes::eliminate_common_subexpressions(&g).unwrap().0),
            ("dce", passes::eliminate_dead_code(&g).unwrap().0),
        ] {
            let feeds: HashMap<_, _> = result
                .input_ids()
                .into_iter()
                .map(|id| (id, input.clone()))
                .collect();
            let got = result.eval(&feeds).unwrap();
            prop_assert!(want[0].approx_eq(&got[0], 1e-5), "{name} changed semantics");
            result.validate().unwrap();
        }
    }

    #[test]
    fn passes_are_idempotent(specs in prop::collection::vec(spec(), 1..25)) {
        let (g, _) = build_graph(&specs);
        let (g1, _) = Compiler::default().optimize(&g).unwrap();
        let (g2, stats2) = Compiler::default().optimize(&g1).unwrap();
        // A second run finds nothing new to fold/merge/remove.
        prop_assert_eq!(stats2.constants_folded, 0);
        prop_assert_eq!(stats2.subexpressions_merged, 0);
        prop_assert_eq!(stats2.dead_removed, 0);
        prop_assert_eq!(g1.len(), g2.len());
    }

    #[test]
    fn fusion_groups_partition_the_node_set(specs in prop::collection::vec(spec(), 1..30)) {
        let (g, _) = build_graph(&specs);
        let ids = g.compute_ids();
        let groups = passes::fuse_groups(&g, &ids);
        let mut flat: Vec<NodeId> = groups.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        prop_assert_eq!(flat, want);
        // Members of a group are topologically ordered and anchored first.
        for grp in &groups {
            for w in grp.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn lowered_execution_matches_interpreter(specs in prop::collection::vec(spec(), 1..30)) {
        let (g, x) = build_graph(&specs);
        let input = Tensor::randn(vec![6], 1.0, 31);
        let want = eval_with(&g, x, &input);
        for options in [CompileOptions::full(), CompileOptions::none()] {
            let c = Compiler::new(options);
            let sg = c.compile_whole(&g, "w");
            let out = sg.execute(&HashMap::from([(x, input.clone())])).unwrap();
            prop_assert!(out[&g.outputs()[0]].approx_eq(&want[0], 1e-5));
        }
    }

    #[test]
    fn fusion_never_increases_priced_cost(specs in prop::collection::vec(spec(), 1..30)) {
        let (g, _) = build_graph(&specs);
        let fused = Compiler::new(CompileOptions::full()).compile_whole(&g, "f");
        let unfused = Compiler::new(CompileOptions::none()).compile_whole(&g, "u");
        prop_assert!(fused.cost.kernel_launches <= unfused.cost.kernel_launches);
        prop_assert!(fused.cost.flops <= unfused.cost.flops + 1e-9);
        prop_assert!(fused.kernel_count() <= unfused.kernel_count());
    }
}
