//! Shared bookkeeping for whole-graph rewrites.

use duet_ir::{Graph, GraphError, NodeId, Op};
use duet_tensor::Tensor;

/// Builds a new graph from an old one while tracking the id mapping.
pub struct GraphRewriter {
    new: Graph,
    map: Vec<Option<NodeId>>,
}

impl GraphRewriter {
    /// Start rewriting `src` into an empty graph with the same name.
    pub fn new(src: &Graph) -> Self {
        GraphRewriter {
            new: Graph::new(src.name.clone()),
            map: vec![None; src.len()],
        }
    }

    /// New id for an old node; panics if the node was dropped — callers
    /// must only request mappings for nodes they kept.
    pub fn mapped(&self, old: NodeId) -> NodeId {
        self.map[old].expect("node was rewritten")
    }

    /// Whether an old node has been emitted.
    pub fn has(&self, old: NodeId) -> bool {
        self.map[old].is_some()
    }

    /// Record that `old` is represented by existing new node `new` (used
    /// by CSE to alias duplicates).
    pub fn alias(&mut self, old: NodeId, new: NodeId) {
        self.map[old] = Some(new);
    }

    /// Is the *new* node behind `old` a constant? (Folding promotes ops to
    /// constants, so check the rewritten graph, not the source.)
    pub fn maps_to_constant(&self, old: NodeId) -> bool {
        self.map[old]
            .map(|n| matches!(self.new.node(n).op, Op::Constant))
            .unwrap_or(false)
    }

    /// Payload of the new constant behind `old`.
    pub fn constant_value(&self, old: NodeId) -> Option<&Tensor> {
        self.map[old].and_then(|n| self.new.param(n))
    }

    /// Copy one node verbatim (with remapped inputs).
    pub fn copy(&mut self, src: &Graph, old: NodeId) -> Result<NodeId, GraphError> {
        let node = src.node(old);
        let id = match node.op {
            Op::Input => self.new.add_input(node.label.clone(), node.shape.clone()),
            Op::Constant => self
                .new
                .copy_constant(src, old)
                .expect("constant has payload"),
            _ => {
                let inputs: Vec<NodeId> = node.inputs.iter().map(|&i| self.mapped(i)).collect();
                self.new
                    .add_op(node.label.clone(), node.op.clone(), &inputs)?
            }
        };
        self.map[old] = Some(id);
        Ok(id)
    }

    /// Replace an old node with a fresh constant.
    pub fn replace_with_constant(&mut self, src: &Graph, old: NodeId, value: Tensor) {
        let id = self.new.add_constant(src.node(old).label.clone(), value);
        self.map[old] = Some(id);
    }

    /// Finish: mark the (remapped) outputs of `src` and validate.
    pub fn finish(mut self, src: &Graph) -> Result<Graph, GraphError> {
        for &o in src.outputs() {
            let n = self.map[o].ok_or(GraphError::UnknownNode(o))?;
            self.new.mark_output(n)?;
        }
        self.new.validate()?;
        Ok(self.new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::GraphBuilder;

    #[test]
    fn identity_rewrite_preserves_structure() {
        let mut b = GraphBuilder::new("g", 1);
        let x = b.input("x", vec![1, 4]);
        let y = b.dense("fc", x, 2, Some(Op::Relu)).unwrap();
        let g = b.finish(&[y]).unwrap();
        let mut rw = GraphRewriter::new(&g);
        for n in g.nodes() {
            rw.copy(&g, n.id).unwrap();
        }
        let g2 = rw.finish(&g).unwrap();
        assert_eq!(g2.len(), g.len());
        assert_eq!(g2.outputs().len(), 1);
        let feeds = std::collections::HashMap::from([(x, Tensor::randn(vec![1, 4], 1.0, 2))]);
        assert!(g.eval(&feeds).unwrap()[0].approx_eq(&g2.eval(&feeds).unwrap()[0], 1e-6));
    }

    #[test]
    fn replace_with_constant_maps() {
        let mut g = Graph::new("t");
        let a = g.add_constant("a", Tensor::scalar(2.0));
        let y = g.add_op("neg", Op::Scale { factor: -1.0 }, &[a]).unwrap();
        g.mark_output(y).unwrap();
        let mut rw = GraphRewriter::new(&g);
        rw.copy(&g, a).unwrap();
        rw.replace_with_constant(&g, y, Tensor::scalar(-2.0));
        let g2 = rw.finish(&g).unwrap();
        assert_eq!(g2.eval(&Default::default()).unwrap()[0].data(), &[-2.0]);
    }
}
