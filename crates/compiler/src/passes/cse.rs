//! Common subexpression elimination.
//!
//! Two operator nodes with identical operators and identical (remapped)
//! operand lists compute the same value; keep one. This matters for DUET's
//! shared-node handling: the partitioner *replicates* shared placeholders
//! across branches (§IV-A), and CSE ahead of partitioning guarantees the
//! graph it sees has no accidental duplicates inflating subgraph costs.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use duet_ir::{Graph, NodeId, Op};

use super::rewrite::GraphRewriter;
use super::Rewritten;

/// What two operator nodes must share to compute the same value: the
/// operator with every attribute, floats compared by their bits (so
/// `Scale { factor: 0.0 }` and `Scale { factor: -0.0 }` stay apart), and
/// the operand list in order.
struct Key<'g> {
    op: &'g Op,
    inputs: Cow<'g, [NodeId]>,
}

impl Key<'_> {
    fn same_op(&self, other: &Op) -> bool {
        match (self.op, other) {
            (Op::Scale { factor: a }, Op::Scale { factor: b })
            | (Op::LayerNorm { eps: a }, Op::LayerNorm { eps: b }) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }
    }
}

impl PartialEq for Key<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.inputs == other.inputs && self.same_op(other.op)
    }
}

impl Eq for Key<'_> {}

impl Hash for Key<'_> {
    /// The operator's kind and the operands; attributes only in `eq`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self.op).hash(state);
        self.inputs.hash(state);
    }
}

/// Deduplicate structurally identical operator nodes. Returns the new
/// graph and how many nodes were merged away; a graph without two such
/// nodes comes back as it was given.
pub fn eliminate_common_subexpressions(graph: &Graph) -> Rewritten<'_> {
    // Merges cascade, but only from a first duplicate over the operands
    // as they are in `graph`.
    let mut distinct = HashSet::new();
    let duplicate = graph
        .nodes()
        .iter()
        .filter(|n| !matches!(n.op, Op::Input | Op::Constant))
        .any(|n| {
            !distinct.insert(Key {
                op: &n.op,
                inputs: Cow::Borrowed(&n.inputs),
            })
        });
    if !duplicate {
        return Ok((Cow::Borrowed(graph), 0));
    }
    let mut rw = GraphRewriter::new(graph);
    let mut seen: HashMap<Key<'_>, NodeId> = HashMap::new();
    let mut merged = 0;
    for node in graph.nodes() {
        match node.op {
            Op::Input | Op::Constant => {
                rw.copy(graph, node.id)?;
            }
            _ => {
                let key = Key {
                    op: &node.op,
                    inputs: node.inputs.iter().map(|&i| rw.mapped(i)).collect(),
                };
                if let Some(&existing) = seen.get(&key) {
                    rw.alias(node.id, existing);
                    merged += 1;
                } else {
                    let id = rw.copy(graph, node.id)?;
                    seen.insert(key, id);
                }
            }
        }
    }
    Ok((Cow::Owned(rw.finish(graph)?), merged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_tensor::Tensor;
    use std::collections::HashMap as Map;

    #[test]
    fn merges_identical_siblings() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let r1 = g.add_op("r1", Op::Relu, &[x]).unwrap();
        let r2 = g.add_op("r2", Op::Relu, &[x]).unwrap();
        let s = g.add_op("s", Op::Add, &[r1, r2]).unwrap();
        g.mark_output(s).unwrap();
        let (g2, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 1);
        assert_eq!(g2.compute_ids().len(), 2); // one relu + add
        let t = Tensor::randn(vec![4], 1.0, 1);
        let o1 = g.eval(&Map::from([(x, t.clone())])).unwrap();
        let o2 = g2.eval(&Map::from([(g2.input_ids()[0], t)])).unwrap();
        assert!(o1[0].approx_eq(&o2[0], 1e-6));
    }

    #[test]
    fn attribute_differences_prevent_merging() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Scale { factor: 2.0 }, &[x]).unwrap();
        let b = g.add_op("b", Op::Scale { factor: 3.0 }, &[x]).unwrap();
        let s = g.add_op("s", Op::Add, &[a, b]).unwrap();
        g.mark_output(s).unwrap();
        let (_, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 0);
    }

    #[test]
    fn cascading_merges() {
        // Duplicate subtrees of depth 2 collapse fully.
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let r1 = g.add_op("r1", Op::Relu, &[x]).unwrap();
        let t1 = g.add_op("t1", Op::Tanh, &[r1]).unwrap();
        let r2 = g.add_op("r2", Op::Relu, &[x]).unwrap();
        let t2 = g.add_op("t2", Op::Tanh, &[r2]).unwrap();
        let s = g.add_op("s", Op::Add, &[t1, t2]).unwrap();
        g.mark_output(s).unwrap();
        let (g2, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 2);
        assert_eq!(g2.compute_ids().len(), 3);
    }

    #[test]
    fn different_operand_order_not_merged() {
        // Sub(a,b) != Sub(b,a); operand order is part of the key.
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let y = g.add_input("y", vec![4]);
        let d1 = g.add_op("d1", Op::Sub, &[x, y]).unwrap();
        let d2 = g.add_op("d2", Op::Sub, &[y, x]).unwrap();
        let s = g.add_op("s", Op::Add, &[d1, d2]).unwrap();
        g.mark_output(s).unwrap();
        let (_, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 0);
    }

    #[test]
    fn a_graph_without_duplicates_comes_back_unrewritten() {
        // Same operands, attributes apart — including a float that only
        // its sign tells apart.
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Scale { factor: 0.0 }, &[x]).unwrap();
        let b = g.add_op("b", Op::Scale { factor: -0.0 }, &[x]).unwrap();
        let s = g.add_op("s", Op::Add, &[a, b]).unwrap();
        g.mark_output(s).unwrap();
        let (out, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 0);
        assert!(matches!(out, Cow::Borrowed(same) if std::ptr::eq(same, &g)));
    }

    #[test]
    fn equal_float_attributes_merge() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![4]);
        let a = g.add_op("a", Op::Scale { factor: f32::NAN }, &[x]).unwrap();
        let b = g.add_op("b", Op::Scale { factor: f32::NAN }, &[x]).unwrap();
        let s = g.add_op("s", Op::Add, &[a, b]).unwrap();
        g.mark_output(s).unwrap();
        let (out, merged) = eliminate_common_subexpressions(&g).unwrap();
        assert_eq!(merged, 1);
        assert!(matches!(out, Cow::Owned(_)));
    }
}
