//! Operator fusion grouping: the one rule that decides what runs as a
//! single tape instruction and what is priced as a single kernel.
//!
//! Fusion is the graph-level optimization the paper leans on hardest: it is
//! why DUET partitions *coarsely* — fine-grained (per-operator) partitions
//! destroy fusion opportunities and with them single-device efficiency
//! (§III-B, opportunity 3). Grouping here follows the classic
//! producer-epilogue rule TVM applies, restricted to what the tape can run
//! as an in-place mutation of the producer's output buffer
//! (`epilogue_fusable`):
//!
//! * an elementwise operator (ReLU, bias-add, residual add, …) joins the
//!   group whose tail is its sole-consumer producer, when it reads that
//!   tail once and keeps its volume;
//! * an inference batch-norm joins the same way (after a convolution, a
//!   depthwise convolution, anything of its shape) when the dataflow
//!   analyzer proves its folded scale well-conditioned;
//! * a graph output never takes a follower (its value must materialize);
//! * everything else anchors a fresh group.
//!
//! Each group runs as *one* tape instruction — the anchor's kernel with
//! the members applied as [`crate::EpilogueStep`]s to its output buffer,
//! so intermediates never materialize — and is priced as one kernel launch
//! ([`duet_ir::CostProfile::absorb_epilogue`]). Kernel *k* of a
//! [`crate::CompiledSubgraph`] is instruction *k* of its tape.

use std::collections::{HashMap, HashSet};

use duet_ir::{Graph, Node, NodeId, Op};

/// Partition `nodes` (compute nodes of one subgraph, any order) into fused
/// kernel groups. Returns groups in anchor order; each group's first
/// element is its anchor and every later member reads the one before it.
pub fn fuse_groups(graph: &Graph, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut sorted: Vec<NodeId> = nodes.to_vec();
    sorted.sort_unstable();
    let graph_outputs: HashSet<NodeId> = graph.outputs().iter().copied().collect();

    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    // Only nodes of this subgraph have a group, so a producer found here
    // whose sole consumer is `id` never leaves the subgraph. It is also
    // its group's tail: every earlier member's sole consumer is the member
    // after it.
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    for &id in &sorted {
        let node = graph.node(id);
        let joined = node.inputs.iter().find_map(|&p| {
            let g = *group_of.get(&p)?;
            (graph.node(p).outputs == [id]
                && !graph_outputs.contains(&p)
                && epilogue_fusable(graph, node, p))
            .then_some(g)
        });
        let g = joined.unwrap_or_else(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(id);
        group_of.insert(id, g);
    }
    groups
}

/// Can `node` run as an in-place epilogue step on `tail`'s output buffer?
/// Structural conditions only (the sole-consumer and graph-output checks
/// are [`fuse_groups`]'s): the op must read the tail exactly once and
/// preserve its volume.
fn epilogue_fusable(graph: &Graph, node: &Node, tail: NodeId) -> bool {
    if node.inputs.iter().filter(|&&i| i == tail).count() != 1 {
        return false;
    }
    let tail_shape = &graph.node(tail).shape;
    if node.shape.volume() != tail_shape.volume() {
        return false;
    }
    match node.op {
        // Broadcast over the trailing dim: only the data operand may be
        // the tail.
        Op::BiasAdd => node.inputs[0] == tail,
        // The in-place kernel reinterprets the buffer through the node's
        // NCHW shape, so dims must match exactly — and the scale factors
        // must be proven well-conditioned, the same gate standalone
        // in-place batch-norm uses.
        Op::BatchNorm2d => {
            node.inputs[0] == tail
                && node.shape == *tail_shape
                && duet_ir::absint::prove_batchnorm_inplace(graph, node)
        }
        ref op => op.is_fusable_elementwise(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::GraphBuilder;

    #[test]
    fn conv_bn_relu_fuses_to_one_group() {
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 3, 8, 8]);
        let y = b.conv_bn_relu("c", x, 4, 3, 1, 1, true).unwrap();
        let g = b.finish(&[y]).unwrap();
        let groups = fuse_groups(&g, &g.compute_ids());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 3); // conv, bn, relu
        assert!(matches!(g.node(groups[0][0]).op, Op::Conv2d { .. }));
    }

    #[test]
    fn depthwise_bn_relu_fuses_to_one_group() {
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 4, 8, 8]);
        let w = b.weight("dw.w", &[4, 1, 3, 3]);
        let dw = Op::DepthwiseConv2d {
            stride: 1,
            padding: 1,
            bias: false,
        };
        let dw = b.op("dw", dw, &[x, w]).unwrap();
        let params = [b.ones("g", &[4]), b.zeros("b", &[4]), b.zeros("m", &[4])];
        let var = b.ones("v", &[4]);
        let bn = b
            .op(
                "bn",
                Op::BatchNorm2d,
                &[dw, params[0], params[1], params[2], var],
            )
            .unwrap();
        let y = b.op("relu", Op::Relu, &[bn]).unwrap();
        let g = b.finish(&[y]).unwrap();
        assert_eq!(fuse_groups(&g, &g.compute_ids()), vec![vec![dw, bn, y]]);
    }

    #[test]
    fn graph_output_takes_no_follower() {
        // fc is a graph output *and* relu's sole consumer edge: its value
        // must materialize, so relu anchors its own group.
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 8]);
        let fc = b.dense("fc", x, 4, None).unwrap();
        let r = b.op("r", Op::Relu, &[fc]).unwrap();
        let g = b.finish(&[fc, r]).unwrap();
        assert_eq!(fuse_groups(&g, &g.compute_ids()), vec![vec![fc], vec![r]]);
    }

    #[test]
    fn linear_relu_fuses() {
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("fc", x, 4, Some(Op::Relu)).unwrap();
        let g = b.finish(&[y]).unwrap();
        let groups = fuse_groups(&g, &g.compute_ids());
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn fanout_blocks_fusion() {
        // relu's producer feeds two consumers → relu cannot fuse.
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 8]);
        let fc = b.dense("fc", x, 8, None).unwrap();
        let r = b.op("r", Op::Relu, &[fc]).unwrap();
        let t = b.op("t", Op::Tanh, &[fc]).unwrap();
        let s = b.op("s", Op::Add, &[r, t]).unwrap();
        let g = b.finish(&[s]).unwrap();
        let groups = fuse_groups(&g, &g.compute_ids());
        // fc alone; relu alone; tanh alone (not fusable-elementwise? tanh
        // is); but fc has fanout 2 so neither fuses into it. The add fuses
        // into whichever single-consumer branch it closes.
        let fc_group = groups.iter().find(|grp| grp.contains(&fc)).unwrap();
        assert_eq!(fc_group.len(), 1);
    }

    #[test]
    fn residual_add_fuses_into_conv_branch() {
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 4, 8, 8]);
        let c1 = b.conv_bn_relu("c1", x, 4, 3, 1, 1, true).unwrap();
        let c2 = b.conv_bn_relu("c2", c1, 4, 3, 1, 1, false).unwrap();
        // residual: add(c2, c1) — c1 has fanout 2 (c2's conv and the add),
        // c2 has fanout 1 → add fuses into c2's group.
        let s = b.op("res", Op::Add, &[c2, c1]).unwrap();
        let y = b.op("out_relu", Op::Relu, &[s]).unwrap();
        let g = b.finish(&[y]).unwrap();
        let groups = fuse_groups(&g, &g.compute_ids());
        assert_eq!(groups.len(), 2, "{groups:?}");
        let g2 = groups.iter().find(|grp| grp.contains(&s)).unwrap();
        assert!(g2.contains(&y), "trailing relu joins the same group");
    }

    #[test]
    fn boundary_of_subgraph_blocks_fusion() {
        // When the producer is outside the node set, the consumer anchors
        // its own kernel (its input arrives over the subgraph boundary).
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 8]);
        let fc = b.dense("fc", x, 4, None).unwrap();
        let r = b.op("r", Op::Relu, &[fc]).unwrap();
        let g = b.finish(&[r]).unwrap();
        let groups = fuse_groups(&g, &[r]);
        assert_eq!(groups, vec![vec![r]]);
    }

    #[test]
    fn anchors_stay_separate() {
        // Two back-to-back linears never fuse (both are anchors).
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 8]);
        let a = b.dense("fc1", x, 8, None).unwrap();
        let y = b.dense("fc2", a, 8, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        let groups = fuse_groups(&g, &g.compute_ids());
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn groups_cover_exactly_the_node_set() {
        let mut b = GraphBuilder::new("t", 1);
        let x = b.input("x", vec![1, 3, 16, 16]);
        let c = b.conv_bn_relu("c", x, 8, 3, 1, 1, true).unwrap();
        let p = b
            .op(
                "pool",
                Op::MaxPool2d {
                    window: 2,
                    stride: 2,
                },
                &[c],
            )
            .unwrap();
        let gpool = b.op("gap", Op::GlobalAvgPool2d, &[p]).unwrap();
        let y = b.dense("head", gpool, 4, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        let ids = g.compute_ids();
        let groups = fuse_groups(&g, &ids);
        let mut flat: Vec<NodeId> = groups.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(flat, want);
    }
}
