//! Dead code elimination: drop nodes that cannot reach any output.
//!
//! Folding and CSE orphan nodes (replaced constants' operands, merged
//! duplicates); DCE runs last to sweep them.

use std::borrow::Cow;

use duet_ir::Graph;

use super::rewrite::GraphRewriter;
use super::Rewritten;

/// Remove all nodes unreachable (backwards) from the declared outputs.
/// Returns the new graph and the number of removed nodes; a graph whose
/// every node reaches an output comes back as it was given.
pub fn eliminate_dead_code(graph: &Graph) -> Rewritten<'_> {
    let mut live = vec![false; graph.len()];
    let mut stack: Vec<_> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if live[id] {
            continue;
        }
        live[id] = true;
        stack.extend_from_slice(&graph.node(id).inputs);
    }
    if live.iter().all(|&l| l) {
        return Ok((Cow::Borrowed(graph), 0));
    }
    let mut rw = GraphRewriter::new(graph);
    let mut removed = 0;
    for node in graph.nodes() {
        if live[node.id] {
            rw.copy(graph, node.id)?;
        } else {
            removed += 1;
        }
    }
    Ok((Cow::Owned(rw.finish(graph)?), removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::Op;
    use duet_tensor::Tensor;
    use std::collections::HashMap;

    #[test]
    fn removes_orphan_branch() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let live = g.add_op("live", Op::Relu, &[x]).unwrap();
        let dead1 = g.add_op("dead1", Op::Tanh, &[x]).unwrap();
        let _dead2 = g.add_op("dead2", Op::Sigmoid, &[dead1]).unwrap();
        g.mark_output(live).unwrap();
        let (g2, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn removes_unused_constants() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        g.add_constant("unused", Tensor::zeros(vec![100]));
        let y = g.add_op("y", Op::Relu, &[x]).unwrap();
        g.mark_output(y).unwrap();
        let (g2, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(g2.param_bytes(), 0);
    }

    #[test]
    fn keeps_everything_reachable() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Relu, &[x]).unwrap();
        let b = g.add_op("b", Op::Tanh, &[a]).unwrap();
        g.mark_output(b).unwrap();
        let (g2, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(g2.len(), g.len());
        let t = Tensor::randn(vec![4], 1.0, 1);
        let o1 = g.eval(&HashMap::from([(x, t.clone())])).unwrap();
        let o2 = g2.eval(&HashMap::from([(g2.input_ids()[0], t)])).unwrap();
        assert!(o1[0].approx_eq(&o2[0], 1e-6));
    }

    #[test]
    fn multiple_outputs_all_kept() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Relu, &[x]).unwrap();
        let b = g.add_op("b", Op::Tanh, &[x]).unwrap();
        g.mark_output(a).unwrap();
        g.mark_output(b).unwrap();
        let (g2, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 0);
        assert_eq!(g2.outputs().len(), 2);
    }

    #[test]
    fn a_graph_without_dead_nodes_comes_back_unrewritten() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Relu, &[x]).unwrap();
        g.mark_output(a).unwrap();
        let (out, removed) = eliminate_dead_code(&g).unwrap();
        assert_eq!(removed, 0);
        assert!(matches!(out, Cow::Borrowed(same) if std::ptr::eq(same, &g)));
    }
}
