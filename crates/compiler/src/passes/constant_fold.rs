//! Constant folding: evaluate operators whose inputs are all constants at
//! compile time. Typical wins in inference graphs: pre-transposed weights,
//! folded scales, batch-norm parameter arithmetic.

use std::borrow::Cow;

use duet_ir::{Graph, Op};
use duet_tensor::Tensor;

use super::rewrite::GraphRewriter;
use super::Rewritten;

/// Fold every operator with all-constant operands into a constant.
/// Returns the rewritten graph and the number of nodes folded; a graph
/// with no compute node over constants alone comes back as it was given.
pub fn fold_constants(graph: &Graph) -> Rewritten<'_> {
    // Folding is transitive, but only through a first fold: without one
    // every operand keeps the kind it has in `graph`.
    let foldable = graph.nodes().iter().any(|node| {
        !matches!(node.op, Op::Input | Op::Constant)
            && !node.inputs.is_empty()
            && node
                .inputs
                .iter()
                .all(|&i| matches!(graph.node(i).op, Op::Constant))
    });
    if !foldable {
        return Ok((Cow::Borrowed(graph), 0));
    }
    let mut rw = GraphRewriter::new(graph);
    let mut folded = 0;
    for node in graph.nodes() {
        match node.op {
            Op::Input | Op::Constant => {
                rw.copy(graph, node.id)?;
            }
            _ => {
                let all_const =
                    !node.inputs.is_empty() && node.inputs.iter().all(|&i| rw.maps_to_constant(i));
                if all_const {
                    let inputs: Vec<&Tensor> = node
                        .inputs
                        .iter()
                        .map(|&i| rw.constant_value(i).expect("constant payload"))
                        .collect();
                    let value = node.op.execute(&inputs)?;
                    rw.replace_with_constant(graph, node.id, value);
                    folded += 1;
                } else {
                    rw.copy(graph, node.id)?;
                }
            }
        }
    }
    Ok((Cow::Owned(rw.finish(graph)?), folded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn folds_constant_chain() {
        let mut g = Graph::new("t");
        let a = g.add_constant("a", Tensor::full(vec![4], 3.0));
        let b = g.add_constant("b", Tensor::full(vec![4], 1.0));
        let s = g.add_op("sum", Op::Add, &[a, b]).unwrap();
        let r = g.add_op("relu", Op::Relu, &[s]).unwrap();
        g.mark_output(r).unwrap();
        let (g2, folded) = fold_constants(&g).unwrap();
        assert_eq!(folded, 2);
        assert_eq!(g2.compute_ids().len(), 0);
        assert_eq!(g2.eval(&HashMap::new()).unwrap()[0].data(), &[4.0; 4]);
    }

    #[test]
    fn folding_stops_at_inputs() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_constant("a", Tensor::full(vec![4], 3.0));
        let neg = g.add_op("neg", Op::Scale { factor: -1.0 }, &[a]).unwrap();
        let s = g.add_op("sum", Op::Add, &[x, neg]).unwrap();
        g.mark_output(s).unwrap();
        let (g2, folded) = fold_constants(&g).unwrap();
        // neg folds, sum (depends on x) survives.
        assert_eq!(folded, 1);
        assert_eq!(g2.compute_ids().len(), 1);
        let out = g2
            .eval(&HashMap::from([(
                g2.input_ids()[0],
                Tensor::zeros(vec![4]),
            )]))
            .unwrap();
        assert_eq!(out[0].data(), &[-3.0; 4]);
    }

    #[test]
    fn transitive_folding_through_new_constants() {
        // relu(scale(const)) — the relu sees a *folded* constant input.
        let mut g = Graph::new("t");
        let a = g.add_constant("a", Tensor::full(vec![2], -2.0));
        let n = g.add_op("neg", Op::Scale { factor: -1.0 }, &[a]).unwrap();
        let r = g.add_op("relu", Op::Relu, &[n]).unwrap();
        g.mark_output(r).unwrap();
        let (g2, folded) = fold_constants(&g).unwrap();
        assert_eq!(folded, 2);
        assert_eq!(g2.eval(&HashMap::new()).unwrap()[0].data(), &[2.0, 2.0]);
    }

    #[test]
    fn semantics_preserved_on_mixed_graph() {
        let mut b = duet_ir::GraphBuilder::new("m", 5);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("fc", x, 4, Some(Op::Tanh)).unwrap();
        let g = b.finish(&[y]).unwrap();
        let (g2, _) = fold_constants(&g).unwrap();
        let t = Tensor::randn(vec![1, 8], 1.0, 6);
        let o1 = g.eval(&HashMap::from([(x, t.clone())])).unwrap();
        let o2 = g2.eval(&HashMap::from([(g2.input_ids()[0], t)])).unwrap();
        assert!(o1[0].approx_eq(&o2[0], 1e-6));
    }

    #[test]
    fn a_graph_without_constant_operators_comes_back_unrewritten() {
        // `sum` reads a constant, but also an input.
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_constant("a", Tensor::full(vec![4], 3.0));
        let s = g.add_op("sum", Op::Add, &[x, a]).unwrap();
        g.mark_output(s).unwrap();
        let (out, folded) = fold_constants(&g).unwrap();
        assert_eq!(folded, 0);
        assert!(matches!(out, Cow::Borrowed(same) if std::ptr::eq(same, &g)));
    }
}
