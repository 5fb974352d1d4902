//! Lowering: from a set of graph nodes to an executable, priced kernel
//! sequence.
//!
//! A [`CompiledSubgraph`] is the unit everything downstream handles: the
//! profiler micro-benchmarks it (§IV-B "treating that subgraph as a
//! standalone DNN model and going through the DL compilation pipeline"),
//! the scheduler places it, and the executor runs it.

use std::collections::{HashMap, HashSet};

use duet_ir::{CostProfile, Graph, GraphError, NodeId, Op};
use duet_tensor::Tensor;

use crate::memory::{ExecutableTape, TapeArena, TapeOptions};

/// One fused kernel: an anchor operator plus absorbed epilogues.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Representative node (first in the group).
    pub anchor: NodeId,
    /// All member nodes, topologically ordered.
    pub nodes: Vec<NodeId>,
    /// Priced cost: anchor cost with epilogues absorbed.
    pub cost: CostProfile,
}

/// A compiled subgraph: boundary description, kernel sequence, total cost.
#[derive(Debug, Clone)]
pub struct CompiledSubgraph {
    /// Human-readable name ("wide", "rnn", "cnn", …).
    pub name: String,
    /// Compute nodes covered, topologically ordered.
    pub node_ids: Vec<NodeId>,
    /// Fused kernels in execution order.
    pub kernels: Vec<CompiledKernel>,
    /// Boundary inputs: graph `Input` nodes or compute nodes *outside*
    /// this subgraph whose values must be fed (and, if the producer ran on
    /// the other device, transferred).
    pub inputs: Vec<NodeId>,
    /// Nodes whose values leave the subgraph (consumed outside, or graph
    /// outputs).
    pub outputs: Vec<NodeId>,
    /// Total priced cost of the kernel sequence.
    pub cost: CostProfile,
    /// Memory-planned instruction tape — the default execution path.
    pub tape: ExecutableTape,
}

impl CompiledSubgraph {
    /// Lower `nodes` of `graph` into a kernel sequence using the given
    /// fusion groups (`groups` must exactly cover `nodes`; see
    /// [`crate::passes::fuse_groups`]).
    pub fn from_groups(graph: &Graph, name: impl Into<String>, groups: Vec<Vec<NodeId>>) -> Self {
        Self::from_groups_with(graph, name, groups, TapeOptions::default())
    }

    /// [`CompiledSubgraph::from_groups`] with explicit tape planner
    /// switches — A/B benchmarking and checker fixtures that need the
    /// unfused/unscheduled tape layout.
    pub fn from_groups_with(
        graph: &Graph,
        name: impl Into<String>,
        groups: Vec<Vec<NodeId>>,
        tape_opts: TapeOptions,
    ) -> Self {
        let mut node_ids: Vec<NodeId> = groups.iter().flatten().copied().collect();
        node_ids.sort_unstable();
        let in_set: HashSet<NodeId> = node_ids.iter().copied().collect();

        let kernels: Vec<CompiledKernel> = groups
            .into_iter()
            .map(|nodes| {
                let anchor = nodes[0];
                let mut cost = graph.node_cost(anchor);
                for &m in &nodes[1..] {
                    cost = cost.absorb_epilogue(&graph.node_cost(m));
                }
                CompiledKernel {
                    anchor,
                    nodes,
                    cost,
                }
            })
            .collect();

        let mut inputs: Vec<NodeId> = Vec::new();
        let mut input_set: HashSet<NodeId> = HashSet::new();
        let mut outputs: Vec<NodeId> = Vec::new();
        let graph_outputs: HashSet<NodeId> = graph.outputs().iter().copied().collect();
        for &id in &node_ids {
            for &src in &graph.node(id).inputs {
                let srcn = graph.node(src);
                let is_boundary = match srcn.op {
                    Op::Constant => false, // weights are resident, not fed
                    Op::Input => true,
                    _ => !in_set.contains(&src),
                };
                if is_boundary && input_set.insert(src) {
                    inputs.push(src);
                }
            }
            let escapes = graph_outputs.contains(&id)
                || graph.node(id).outputs.iter().any(|c| !in_set.contains(c));
            if escapes {
                outputs.push(id);
            }
        }

        let cost = kernels
            .iter()
            .fold(CostProfile::zero(), |acc, k| acc.merge(&k.cost));

        let tape = ExecutableTape::build_with(graph, &node_ids, &inputs, &outputs, tape_opts);

        CompiledSubgraph {
            name: name.into(),
            node_ids,
            kernels,
            inputs,
            outputs,
            cost,
            tape,
        }
    }

    /// Bytes that must arrive over the boundary before execution
    /// (excluding resident weights).
    pub fn input_bytes(&self, graph: &Graph) -> f64 {
        self.inputs
            .iter()
            .map(|&i| graph.node(i).shape.byte_size() as f64)
            .sum()
    }

    /// Bytes this subgraph exports.
    pub fn output_bytes(&self, graph: &Graph) -> f64 {
        self.outputs
            .iter()
            .map(|&i| graph.node(i).shape.byte_size() as f64)
            .sum()
    }

    /// Number of kernel launches after fusion.
    pub fn kernel_count(&self) -> usize {
        self.kernels.len()
    }

    /// Execute numerically via the memory-planned tape (the default
    /// path). `env` must hold a tensor for every boundary input (keyed by
    /// producer node id). Returns the values of
    /// [`CompiledSubgraph::outputs`], keyed by node id.
    ///
    /// `graph` is unused at run time — weights were bound at lowering —
    /// but kept in the signature so call sites document which graph the
    /// subgraph belongs to (and so the reference interpreter is a drop-in
    /// substitute).
    pub fn execute(
        &self,
        _graph: &Graph,
        env: &HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        self.tape.execute(env)
    }

    /// Execute via the tape into a caller-provided arena (see
    /// [`TapeArena`]); the zero-allocation serve path.
    pub fn execute_with_arena(
        &self,
        env: &HashMap<NodeId, Tensor>,
        arena: &mut TapeArena,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        self.tape.execute_with(env, arena)
    }

    /// The legacy HashMap interpreter, kept as the bit-identity reference
    /// for the tape executor (property-tested across the model zoo).
    pub fn execute_reference(
        &self,
        graph: &Graph,
        env: &HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        let fetch = |values: &HashMap<NodeId, Tensor>, id: NodeId| -> Result<Tensor, GraphError> {
            if let Some(v) = values.get(&id) {
                return Ok(v.clone());
            }
            if let Some(v) = env.get(&id) {
                return Ok(v.clone());
            }
            if let Some(p) = graph.param(id) {
                return Ok(p.clone());
            }
            Err(GraphError::MissingFeed(id))
        };
        for &id in &self.node_ids {
            let node = graph.node(id);
            let input_vals: Vec<Tensor> = node
                .inputs
                .iter()
                .map(|&i| fetch(&values, i))
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Tensor> = input_vals.iter().collect();
            let out = node.op.execute(&refs)?;
            values.insert(id, out);
        }
        Ok(self
            .outputs
            .iter()
            .map(|&o| (o, values[&o].clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::fuse_groups;
    use duet_ir::GraphBuilder;

    fn mlp() -> (Graph, NodeId) {
        let mut b = GraphBuilder::new("mlp", 1);
        let x = b.input("x", vec![1, 8]);
        let h = b.dense("fc1", x, 16, Some(Op::Relu)).unwrap();
        let y = b.dense("fc2", h, 4, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        (g, x)
    }

    fn compile_all(g: &Graph) -> CompiledSubgraph {
        let ids = g.compute_ids();
        let groups = fuse_groups(g, &ids);
        CompiledSubgraph::from_groups(g, "all", groups)
    }

    #[test]
    fn whole_graph_subgraph_boundary() {
        let (g, x) = mlp();
        let sg = compile_all(&g);
        assert_eq!(sg.inputs, vec![x]);
        assert_eq!(sg.outputs, vec![*g.outputs().first().unwrap()]);
        assert_eq!(sg.kernel_count(), 2); // fc1+relu fused, fc2
    }

    #[test]
    fn execute_matches_reference_interpreter() {
        let (g, x) = mlp();
        let sg = compile_all(&g);
        let input = Tensor::randn(vec![1, 8], 1.0, 7);
        let env = HashMap::from([(x, input.clone())]);
        let got = sg.execute(&g, &env).unwrap();
        let want = g.eval(&HashMap::from([(x, input)])).unwrap();
        let out_id = g.outputs()[0];
        assert!(got[&out_id].approx_eq(&want[0], 1e-6));
    }

    #[test]
    fn fusion_reduces_launches_not_flops() {
        let (g, _) = mlp();
        let ids = g.compute_ids();
        let fused = CompiledSubgraph::from_groups(&g, "f", fuse_groups(&g, &ids));
        let unfused =
            CompiledSubgraph::from_groups(&g, "u", ids.iter().map(|&i| vec![i]).collect());
        assert!(fused.cost.kernel_launches < unfused.cost.kernel_launches);
        assert_eq!(fused.cost.flops, unfused.cost.flops);
        assert!(fused.cost.bytes_in <= unfused.cost.bytes_in);
    }

    #[test]
    fn split_subgraphs_pass_values_across_boundary() {
        let (g, x) = mlp();
        let ids = g.compute_ids();
        // First half: fc1+relu. Second half: fc2.
        let (front, back) = (ids[..2].to_vec(), ids[2..].to_vec());
        let sg1 = CompiledSubgraph::from_groups(&g, "front", fuse_groups(&g, &front));
        let sg2 = CompiledSubgraph::from_groups(&g, "back", fuse_groups(&g, &back));
        assert_eq!(sg1.inputs, vec![x]);
        assert_eq!(sg2.inputs, sg1.outputs);
        let input = Tensor::randn(vec![1, 8], 1.0, 9);
        let mid = sg1
            .execute(&g, &HashMap::from([(x, input.clone())]))
            .unwrap();
        let fin = sg2.execute(&g, &mid).unwrap();
        let want = g.eval(&HashMap::from([(x, input)])).unwrap();
        assert!(fin[&g.outputs()[0]].approx_eq(&want[0], 1e-6));
    }

    #[test]
    fn missing_boundary_feed_is_reported() {
        let (g, _) = mlp();
        let sg = compile_all(&g);
        let err = sg.execute(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, GraphError::MissingFeed(_)));
    }

    #[test]
    fn io_bytes_reflect_shapes() {
        let (g, _) = mlp();
        let sg = compile_all(&g);
        assert_eq!(sg.input_bytes(&g), 32.0); // [1,8] f32
        assert_eq!(sg.output_bytes(&g), 16.0); // [1,4] f32
    }
}
