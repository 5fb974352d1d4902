//! The adjacency-list tensor-program DAG.
//!
//! This is the representation the paper builds from Relay (§V): every node
//! is an operator with an input list (in-edges) and a fan-out list
//! (out-edges), and the partitioner/schedulers work directly on it.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use duet_tensor::{Shape, Tensor, TensorError};

use crate::op::Op;

/// Index of a node within its [`Graph`].
pub type NodeId = usize;

/// Errors raised by graph construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// Referenced node does not exist (or is defined after its use).
    UnknownNode(NodeId),
    /// Operator given the wrong number of inputs.
    BadArity {
        op: &'static str,
        expected: (usize, usize),
        actual: usize,
    },
    /// Shape inference or kernel execution failed.
    Tensor(TensorError),
    /// An `Input` node had no feed at evaluation time.
    MissingFeed(NodeId),
    /// Graph has no declared outputs.
    NoOutputs,
}

impl From<TensorError> for GraphError {
    fn from(e: TensorError) -> Self {
        GraphError::Tensor(e)
    }
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode(id) => write!(f, "unknown node {id}"),
            GraphError::BadArity {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "{op}: expected {}..{} inputs, got {actual}",
                    expected.0, expected.1
                )
            }
            GraphError::Tensor(e) => write!(f, "{e}"),
            GraphError::MissingFeed(id) => write!(f, "no feed for input node {id}"),
            GraphError::NoOutputs => write!(f, "graph has no outputs"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One operator instance in the DAG.
#[derive(Debug, Clone)]
pub struct Node {
    pub id: NodeId,
    pub op: Op,
    /// Data dependencies (ordered — operand position matters).
    pub inputs: Vec<NodeId>,
    /// Fan-out adjacency list (consumers), in insertion order.
    pub outputs: Vec<NodeId>,
    /// Inferred (or declared, for sources) output shape.
    pub shape: Shape,
    /// Human-readable label; model builders use dotted component prefixes
    /// ("rnn.lstm0") which the evaluation harness groups by (Table II).
    pub label: String,
}

/// Extremes of a constant payload: the bounds of its non-NaN elements
/// (`lo > hi` when there are none) and whether any element is NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PayloadRange {
    pub lo: f32,
    pub hi: f32,
    pub nan: bool,
}

impl PayloadRange {
    /// One pass over `data`.
    pub fn of(data: &[f32]) -> Self {
        // Branch-free 8-lane accumulation: `f32::min`/`max` ignore a
        // NaN operand (IEEE minNum), so NaNs drop out of the bounds
        // exactly as the obvious branching loop would, and an infinity
        // shows up as an infinite bound. The independent lanes break
        // the serial min/max dependence chain (which a strict-FP
        // compiler cannot reassociate), letting the loop vectorize.
        let mut lo8 = [f32::INFINITY; 8];
        let mut hi8 = [f32::NEG_INFINITY; 8];
        let mut nan8 = [false; 8];
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            for k in 0..8 {
                lo8[k] = lo8[k].min(c[k]);
                hi8[k] = hi8[k].max(c[k]);
                nan8[k] |= c[k].is_nan();
            }
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        let mut nan = false;
        for k in 0..8 {
            lo = lo.min(lo8[k]);
            hi = hi.max(hi8[k]);
            nan |= nan8[k];
        }
        for &v in chunks.remainder() {
            lo = lo.min(v);
            hi = hi.max(v);
            nan |= v.is_nan();
        }
        PayloadRange { lo, hi, nan }
    }
}

/// A constant's payload and, once somebody asked, its range. The
/// payload is immutable (`Tensor`), so the range never goes stale; the
/// cell is shared by every copy of the entry, so what an analysis of
/// one clone of a graph paid for, the next analysis of any clone reads.
/// Streaming a model's weights from memory is most of what a value
/// analysis costs, and the one part whose time follows the machine's
/// other tenants.
#[derive(Debug, Clone)]
struct Param {
    value: Tensor,
    range: Arc<OnceLock<PayloadRange>>,
}

/// A tensor program as an adjacency-list DAG.
///
/// Nodes are appended in a valid topological order by construction: an
/// operator may only reference already-existing nodes, so cycles cannot be
/// expressed. (The builder API preserves this; deserialized graphs would
/// need re-validation, which [`Graph::validate`] provides.)
///
/// Clones share the node list and the constant table until one of them
/// is written (copy on write), so handing a graph to every subgraph
/// compiled from it, or to an engine derived from another, costs two
/// reference counts, not a copy of the program.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    pub name: String,
    nodes: Arc<Vec<Node>>,
    params: Arc<HashMap<NodeId, Param>>,
    outputs: Vec<NodeId>,
}

impl Graph {
    /// Empty graph with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add an external input placeholder with an explicit shape.
    pub fn add_input(&mut self, label: impl Into<String>, shape: impl Into<Shape>) -> NodeId {
        let id = self.nodes.len();
        Arc::make_mut(&mut self.nodes).push(Node {
            id,
            op: Op::Input,
            inputs: Vec::new(),
            outputs: Vec::new(),
            shape: shape.into(),
            label: label.into(),
        });
        id
    }

    /// Add a parameter (weight) node carrying a constant tensor.
    pub fn add_constant(&mut self, label: impl Into<String>, value: Tensor) -> NodeId {
        let param = Param {
            value,
            range: Arc::default(),
        };
        self.push_constant(label.into(), param)
    }

    /// Add a copy of `src`'s constant `id`: same label and payload, and
    /// the same [`Graph::param_range`] cell, so a graph rebuilt from
    /// another does not scan its weights again. `None` if `id` is not a
    /// constant of `src`.
    pub fn copy_constant(&mut self, src: &Graph, id: NodeId) -> Option<NodeId> {
        let param = src.params.get(&id)?.clone();
        Some(self.push_constant(src.node(id).label.clone(), param))
    }

    fn push_constant(&mut self, label: String, param: Param) -> NodeId {
        let id = self.nodes.len();
        Arc::make_mut(&mut self.nodes).push(Node {
            id,
            op: Op::Constant,
            inputs: Vec::new(),
            outputs: Vec::new(),
            shape: param.value.shape().clone(),
            label,
        });
        Arc::make_mut(&mut self.params).insert(id, param);
        id
    }

    /// Add an operator node; validates arity and infers the output shape.
    pub fn add_op(
        &mut self,
        label: impl Into<String>,
        op: Op,
        inputs: &[NodeId],
    ) -> Result<NodeId, GraphError> {
        let (lo, hi) = op.arity();
        if inputs.len() < lo || inputs.len() > hi {
            return Err(GraphError::BadArity {
                op: op.name(),
                expected: (lo, hi),
                actual: inputs.len(),
            });
        }
        for &i in inputs {
            if i >= self.nodes.len() {
                return Err(GraphError::UnknownNode(i));
            }
        }
        let shapes: Vec<&Shape> = inputs.iter().map(|&i| &self.nodes[i].shape).collect();
        let shape = op.infer_shape(&shapes)?;
        let id = self.nodes.len();
        let nodes = Arc::make_mut(&mut self.nodes);
        for &i in inputs {
            nodes[i].outputs.push(id);
        }
        nodes.push(Node {
            id,
            op,
            inputs: inputs.to_vec(),
            outputs: Vec::new(),
            shape,
            label: label.into(),
        });
        Ok(id)
    }

    /// Declare a graph output.
    pub fn mark_output(&mut self, id: NodeId) -> Result<(), GraphError> {
        if id >= self.nodes.len() {
            return Err(GraphError::UnknownNode(id));
        }
        self.outputs.push(id);
        Ok(())
    }

    /// All nodes, in id (= topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Parameter payload for a `Constant` node.
    pub fn param(&self, id: NodeId) -> Option<&Tensor> {
        self.params.get(&id).map(|p| &p.value)
    }

    /// [`PayloadRange`] of a `Constant` node's payload, scanned on first
    /// request and remembered (see [`Graph::copy_constant`]).
    pub fn param_range(&self, id: NodeId) -> Option<PayloadRange> {
        let p = self.params.get(&id)?;
        Some(*p.range.get_or_init(|| PayloadRange::of(p.value.data())))
    }

    /// Ids of all `Input` placeholders.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Input))
            .map(|n| n.id)
            .collect()
    }

    /// Ids of all computational (non-source) nodes.
    pub fn compute_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.op, Op::Input | Op::Constant))
            .map(|n| n.id)
            .collect()
    }

    /// Total parameter bytes (model size).
    pub fn param_bytes(&self) -> usize {
        self.params.values().map(|p| p.value.byte_size()).sum()
    }

    /// The batch size implied by the graph's outputs: the leading
    /// dimension shared by every (rank ≥ 1) output, or `None` when the
    /// outputs disagree or are scalars. Every zoo model produces
    /// `[batch, ...]` outputs, so serving-plan tooling uses this as the
    /// ground truth a plan's recorded batch size is checked against.
    pub fn leading_batch(&self) -> Option<usize> {
        let mut batch: Option<usize> = None;
        for &o in &self.outputs {
            let shape = &self.node(o).shape;
            if shape.rank() == 0 {
                return None;
            }
            let lead = shape.dim(0);
            match batch {
                None => batch = Some(lead),
                Some(b) if b != lead => return None,
                Some(_) => {}
            }
        }
        batch
    }

    /// Unchecked mutable access to a node. Exists for verifier tests,
    /// fuzzers and pass debugging: it can break every structural
    /// invariant the safe builders maintain (edge symmetry, topological
    /// ordering, inferred shapes). Anything edited through this handle
    /// must be re-checked with [`Graph::validate`] or the `duet-analysis`
    /// graph verifier before being evaluated or scheduled.
    #[doc(hidden)]
    pub fn node_unchecked_mut(&mut self, id: NodeId) -> &mut Node {
        &mut Arc::make_mut(&mut self.nodes)[id]
    }

    /// Unchecked mutable access to the declared output list; same
    /// caveats as [`Graph::node_unchecked_mut`].
    #[doc(hidden)]
    pub fn outputs_unchecked_mut(&mut self) -> &mut Vec<NodeId> {
        &mut self.outputs
    }

    /// Whether `other` is the same program node for node: the same
    /// operators (attributes included) over the same operands with the
    /// same shapes, the same declared outputs, and bit-identical
    /// constant payloads. Labels are not compared. Every analysis that is
    /// a function of the program alone gives equal results on two graphs
    /// for which this holds, which is what lets a checked pipeline carry
    /// facts across a pass that rewrote nothing.
    pub fn same_program(&self, other: &Graph) -> bool {
        let same_bits = |a: &Tensor, b: &Tensor| {
            a.shape() == b.shape()
                && (std::sync::Arc::ptr_eq(a.data_arc(), b.data_arc())
                    || a.data()
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(b.data().iter().map(|v| v.to_bits())))
        };
        self.outputs == other.outputs
            && self.nodes.len() == other.nodes.len()
            && self.nodes.iter().zip(other.nodes.iter()).all(|(a, b)| {
                a.op == b.op
                    && a.inputs == b.inputs
                    && a.shape == b.shape
                    && match (self.param(a.id), other.param(b.id)) {
                        (None, None) => true,
                        (Some(x), Some(y)) => same_bits(x, y),
                        _ => false,
                    }
            })
    }

    /// Check structural invariants; useful after hand-editing or
    /// deserialization. Verifies edge symmetry, reference validity,
    /// topological ordering of inputs, and source-node arity.
    pub fn validate(&self) -> Result<(), GraphError> {
        for node in self.nodes.iter() {
            for &i in &node.inputs {
                if i >= self.nodes.len() {
                    return Err(GraphError::UnknownNode(i));
                }
                if i >= node.id {
                    // An input defined at-or-after its consumer breaks the
                    // append-only topological invariant.
                    return Err(GraphError::UnknownNode(i));
                }
                if !self.nodes[i].outputs.contains(&node.id) {
                    return Err(GraphError::UnknownNode(node.id));
                }
            }
            let (lo, hi) = node.op.arity();
            if node.inputs.len() < lo || node.inputs.len() > hi {
                return Err(GraphError::BadArity {
                    op: node.op.name(),
                    expected: (lo, hi),
                    actual: node.inputs.len(),
                });
            }
        }
        for &o in &self.outputs {
            if o >= self.nodes.len() {
                return Err(GraphError::UnknownNode(o));
            }
        }
        Ok(())
    }

    /// Reference interpreter: execute every node in topological order on
    /// the host, single device, no optimization. Ground truth for all
    /// executor and compiler tests.
    ///
    /// `feeds` maps `Input` node ids to concrete tensors. Returns the
    /// value of every declared output.
    pub fn eval(&self, feeds: &HashMap<NodeId, Tensor>) -> Result<Vec<Tensor>, GraphError> {
        if self.outputs.is_empty() {
            return Err(GraphError::NoOutputs);
        }
        let mut values: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        for node in self.nodes.iter() {
            let value = match node.op {
                Op::Input => feeds
                    .get(&node.id)
                    .cloned()
                    .ok_or(GraphError::MissingFeed(node.id))?,
                Op::Constant => self
                    .param(node.id)
                    .cloned()
                    .ok_or(GraphError::UnknownNode(node.id))?,
                _ => {
                    let inputs: Vec<&Tensor> = node
                        .inputs
                        .iter()
                        .map(|&i| values[i].as_ref().expect("topological order"))
                        .collect();
                    node.op.execute(&inputs)?
                }
            };
            values[node.id] = Some(value);
        }
        Ok(self
            .outputs
            .iter()
            .map(|&o| values[o].clone().expect("outputs computed"))
            .collect())
    }

    /// Sum of cost profiles over all compute nodes (whole-model work).
    pub fn total_cost(&self) -> crate::CostProfile {
        let mut acc = crate::CostProfile::zero();
        for node in self.nodes.iter() {
            if matches!(node.op, Op::Input | Op::Constant) {
                continue;
            }
            let shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &self.nodes[i].shape).collect();
            acc = acc.merge(&node.op.cost(&shapes, &node.shape));
        }
        acc
    }

    /// Cost profile of a single node.
    pub fn node_cost(&self, id: NodeId) -> crate::CostProfile {
        let node = &self.nodes[id];
        if matches!(node.op, Op::Input | Op::Constant) {
            return crate::CostProfile::zero();
        }
        let shapes: Vec<&Shape> = node.inputs.iter().map(|&i| &self.nodes[i].shape).collect();
        node.op.cost(&shapes, &node.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, NodeId) {
        // x -> relu -> +--> add -> out
        //          \-> tanh -/
        let mut g = Graph::new("diamond");
        let x = g.add_input("x", vec![2, 2]);
        let r = g.add_op("r", Op::Relu, &[x]).unwrap();
        let t = g.add_op("t", Op::Tanh, &[r]).unwrap();
        let s = g.add_op("s", Op::Sigmoid, &[r]).unwrap();
        let a = g.add_op("a", Op::Add, &[t, s]).unwrap();
        g.mark_output(a).unwrap();
        (g, x)
    }

    #[test]
    fn build_and_validate() {
        let (g, _) = diamond();
        assert_eq!(g.len(), 5);
        g.validate().unwrap();
        assert_eq!(g.node(1).outputs, vec![2, 3]);
    }

    #[test]
    fn same_program_sees_attributes_and_constant_bits() {
        let build = |factor: f32, c: f32| {
            let mut g = Graph::new("p");
            let x = g.add_input("x", vec![2]);
            let k = g.add_constant("k", Tensor::full(vec![2], c));
            let s = g.add_op("s", Op::Scale { factor }, &[x]).unwrap();
            let a = g.add_op("a", Op::Add, &[s, k]).unwrap();
            g.mark_output(a).unwrap();
            g
        };
        let g = build(2.0, 0.0);
        assert!(g.same_program(&g.clone()), "shared payloads");
        assert!(g.same_program(&build(2.0, 0.0)), "equal payloads");
        assert!(!g.same_program(&build(3.0, 0.0)), "attribute differs");
        // 0.0 == -0.0 as floats, but 1/x tells them apart.
        assert!(!g.same_program(&build(2.0, -0.0)), "constant bits differ");
        let (d, _) = diamond();
        assert!(!g.same_program(&d));
    }

    #[test]
    fn param_range_is_scanned_once_and_shared_by_copies() {
        let mut g = Graph::new("p");
        let payload = Tensor::from_vec(vec![3], vec![2.0, f32::NAN, -1.0]).unwrap();
        let k = g.add_constant("k", payload);
        let clone = g.clone();
        assert!(g.params[&k].range.get().is_none(), "nothing asked yet");
        let want = PayloadRange {
            lo: -1.0,
            hi: 2.0,
            nan: true,
        };
        assert_eq!(clone.param_range(k), Some(want));
        assert_eq!(g.params[&k].range.get(), Some(&want), "the clone's scan");

        let mut rebuilt = Graph::new("q");
        let k2 = rebuilt.copy_constant(&g, k).unwrap();
        assert_eq!(rebuilt.node(k2).label, "k");
        assert!(Arc::ptr_eq(
            rebuilt.param(k2).unwrap().data_arc(),
            g.param(k).unwrap().data_arc()
        ));
        assert!(Arc::ptr_eq(&rebuilt.params[&k2].range, &g.params[&k].range));
        assert_eq!(rebuilt.copy_constant(&g, 99), None);

        // Another payload under the same label and id has its own cell.
        let mut other = Graph::new("p");
        let k3 = other.add_constant("k", Tensor::full(vec![3], 7.0));
        assert_eq!(k3, k);
        assert_eq!(
            other.param_range(k3).map(|r| (r.lo, r.hi, r.nan)),
            Some((7.0, 7.0, false))
        );
        // No non-NaN element: the bounds stay crossed.
        assert!(PayloadRange::of(&[f32::NAN]).lo > PayloadRange::of(&[f32::NAN]).hi);
        assert!(PayloadRange::of(&[]).lo > PayloadRange::of(&[]).hi);
    }

    #[test]
    fn arity_enforced() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![2]);
        assert!(matches!(
            g.add_op("bad", Op::Add, &[x]),
            Err(GraphError::BadArity { .. })
        ));
    }

    #[test]
    fn unknown_input_rejected() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![2]);
        assert!(matches!(
            g.add_op("bad", Op::Add, &[x, 99]),
            Err(GraphError::UnknownNode(99))
        ));
    }

    #[test]
    fn shape_inference_at_insertion() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![1, 8]);
        let w = g.add_constant("w", Tensor::randn(vec![4, 8], 1.0, 1));
        let b = g.add_constant("b", Tensor::zeros(vec![4]));
        let y = g.add_op("fc", Op::Linear, &[x, w, b]).unwrap();
        assert_eq!(g.node(y).shape.dims(), &[1, 4]);
    }

    #[test]
    fn eval_diamond_matches_manual() {
        let (g, x) = diamond();
        let input = Tensor::randn(vec![2, 2], 1.0, 7);
        let feeds = HashMap::from([(x, input.clone())]);
        let out = g.eval(&feeds).unwrap();
        let r = duet_tensor::kernels::relu(&input);
        let expect = duet_tensor::kernels::add(
            &duet_tensor::kernels::tanh(&r),
            &duet_tensor::kernels::sigmoid(&r),
        )
        .unwrap();
        assert!(out[0].approx_eq(&expect, 1e-6));
    }

    #[test]
    fn eval_requires_feeds_and_outputs() {
        let (g, _) = diamond();
        assert!(matches!(
            g.eval(&HashMap::new()),
            Err(GraphError::MissingFeed(_))
        ));
        let mut g2 = Graph::new("no-out");
        g2.add_input("x", vec![1]);
        assert!(matches!(
            g2.eval(&HashMap::new()),
            Err(GraphError::NoOutputs)
        ));
    }

    #[test]
    fn constants_feed_eval() {
        let mut g = Graph::new("c");
        let c = g.add_constant("c", Tensor::full(vec![3], 2.0));
        let y = g.add_op("neg", Op::Scale { factor: -1.0 }, &[c]).unwrap();
        g.mark_output(y).unwrap();
        let out = g.eval(&HashMap::new()).unwrap();
        assert_eq!(out[0].data(), &[-2.0, -2.0, -2.0]);
    }

    #[test]
    fn total_cost_accumulates() {
        let (g, _) = diamond();
        let c = g.total_cost();
        // relu + tanh + sigmoid + add over 4 elements each.
        assert_eq!(c.flops, 16.0);
        assert_eq!(c.kernel_launches, 4.0);
    }

    #[test]
    fn input_and_compute_id_partition() {
        let (g, x) = diamond();
        assert_eq!(g.input_ids(), vec![x]);
        assert_eq!(g.compute_ids().len(), 4);
    }

    #[test]
    fn param_bytes_counts_constants() {
        let mut g = Graph::new("p");
        g.add_constant("w", Tensor::zeros(vec![10, 10]));
        assert_eq!(g.param_bytes(), 400);
    }
}
