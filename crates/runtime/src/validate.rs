//! Schedule validation.
//!
//! The simulator and executor assume a *well-formed* placed schedule:
//! every compute node covered exactly once, every boundary producer
//! present, no stale node ids. Library callers hand-assembling schedules
//! (rather than going through `duet-core`) should validate first — the
//! checks here turn executor panics into typed errors.

use std::collections::HashMap;

use duet_ir::{Graph, GraphError, NodeId, Op};

use crate::sim::Placed;

/// Why a placed schedule cannot execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A compute node is not covered by any subgraph.
    Uncovered(NodeId),
    /// A node appears in more than one subgraph.
    DoublyCovered(NodeId),
    /// A subgraph references a node id outside the graph.
    UnknownNode(NodeId),
    /// A subgraph covers a non-compute node (input/constant).
    CoversSource(NodeId),
    /// A graph output is produced by no subgraph.
    MissingOutput(NodeId),
    /// The subgraph dependency structure has a cycle (two subgraphs
    /// mutually feeding each other).
    CyclicSubgraphs,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Uncovered(n) => write!(f, "compute node {n} not scheduled"),
            ScheduleError::DoublyCovered(n) => write!(f, "node {n} scheduled twice"),
            ScheduleError::UnknownNode(n) => write!(f, "schedule references unknown node {n}"),
            ScheduleError::CoversSource(n) => write!(f, "node {n} is a source, not schedulable"),
            ScheduleError::MissingOutput(n) => write!(f, "graph output {n} not produced"),
            ScheduleError::CyclicSubgraphs => write!(f, "subgraph dependencies form a cycle"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A schedule error in the executor's error type: a value no subgraph
/// produces is a missing feed, a stale or misplaced id an unknown node.
impl From<ScheduleError> for GraphError {
    fn from(e: ScheduleError) -> Self {
        match e {
            ScheduleError::Uncovered(n) | ScheduleError::MissingOutput(n) => {
                GraphError::MissingFeed(n)
            }
            ScheduleError::UnknownNode(n)
            | ScheduleError::DoublyCovered(n)
            | ScheduleError::CoversSource(n) => GraphError::UnknownNode(n),
            ScheduleError::CyclicSubgraphs => GraphError::NoOutputs,
        }
    }
}

/// Check that `placed` is a complete, acyclic, non-overlapping schedule
/// of `graph`'s compute nodes.
pub fn validate_schedule(graph: &Graph, placed: &[Placed]) -> Result<(), ScheduleError> {
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    for (i, p) in placed.iter().enumerate() {
        for &id in &p.sg.node_ids {
            if id >= graph.len() {
                return Err(ScheduleError::UnknownNode(id));
            }
            if matches!(graph.node(id).op, Op::Input | Op::Constant) {
                return Err(ScheduleError::CoversSource(id));
            }
            if owner.insert(id, i).is_some() {
                return Err(ScheduleError::DoublyCovered(id));
            }
        }
    }
    for id in graph.compute_ids() {
        if !owner.contains_key(&id) {
            return Err(ScheduleError::Uncovered(id));
        }
    }
    for &o in graph.outputs() {
        if !owner.contains_key(&o) && !matches!(graph.node(o).op, Op::Input | Op::Constant) {
            return Err(ScheduleError::MissingOutput(o));
        }
    }
    // Subgraph-level cycle check: peel every subgraph whose producers are
    // all peeled; mutually feeding subgraphs are left behind.
    let mut peeled = vec![false; placed.len()];
    let ready = |i: usize, peeled: &[bool]| {
        let produced = |src| owner.get(src).is_none_or(|&p| p == i || peeled[p]);
        !peeled[i] && placed[i].sg.inputs.iter().all(produced)
    };
    while let Some(i) = (0..placed.len()).find(|&i| ready(i, &peeled)) {
        peeled[i] = true;
    }
    if peeled.contains(&false) {
        return Err(ScheduleError::CyclicSubgraphs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_device::DeviceKind;
    use duet_ir::GraphBuilder;

    fn graph() -> Graph {
        let mut b = GraphBuilder::new("g", 1);
        let x = b.input("x", vec![1, 8]);
        let a = b.dense("a", x, 8, None).unwrap();
        let y = b.dense("b", a, 4, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn placed_for(g: &Graph, chunks: &[&[NodeId]]) -> Vec<Placed> {
        let c = Compiler::default();
        chunks
            .iter()
            .enumerate()
            .map(|(i, nodes)| Placed {
                sg: c.compile_nodes(g, nodes, format!("s{i}")),
                device: DeviceKind::Cpu,
            })
            .collect()
    }

    #[test]
    fn valid_schedule_passes() {
        let g = graph();
        let ids = g.compute_ids();
        let placed = placed_for(&g, &[&ids]);
        assert_eq!(validate_schedule(&g, &placed), Ok(()));
    }

    #[test]
    fn uncovered_node_detected() {
        let g = graph();
        let ids = g.compute_ids();
        let placed = placed_for(&g, &[&ids[..1]]);
        assert!(matches!(
            validate_schedule(&g, &placed),
            Err(ScheduleError::Uncovered(_)) | Err(ScheduleError::MissingOutput(_))
        ));
    }

    #[test]
    fn double_coverage_detected() {
        let g = graph();
        let ids = g.compute_ids();
        let placed = placed_for(&g, &[&ids, &ids[..1]]);
        assert!(matches!(
            validate_schedule(&g, &placed),
            Err(ScheduleError::DoublyCovered(_))
        ));
    }

    #[test]
    fn mutually_feeding_subgraphs_detected() {
        // a -> b -> c with {a, c} in one subgraph and {b} in the other.
        let mut b = GraphBuilder::new("g3", 1);
        let x = b.input("x", vec![1, 8]);
        let a = b.dense("a", x, 8, None).unwrap();
        let m = b.dense("b", a, 8, None).unwrap();
        let y = b.dense("c", m, 4, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        let of = |label: &str| -> Vec<NodeId> {
            let ids = g.compute_ids().into_iter();
            ids.filter(|&i| g.node(i).label.starts_with(label))
                .collect()
        };
        let outer: Vec<NodeId> = [of("a"), of("c")].concat();
        let placed = placed_for(&g, &[&outer, &of("b")]);
        assert_eq!(
            validate_schedule(&g, &placed),
            Err(ScheduleError::CyclicSubgraphs)
        );
        let chain = placed_for(&g, &[&of("c"), &of("a"), &of("b")]);
        assert_eq!(validate_schedule(&g, &chain), Ok(()));
    }

    #[test]
    fn source_named_as_output_is_no_missing_output() {
        let mut b = GraphBuilder::new("g", 1);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("a", x, 4, None).unwrap();
        let g = b.finish(&[y, x]).unwrap();
        let placed = placed_for(&g, &[&g.compute_ids()]);
        assert_eq!(validate_schedule(&g, &placed), Ok(()));
    }

    #[test]
    fn engine_schedules_always_validate() {
        use duet_models::{siamese, SiameseConfig};
        let g = siamese(&SiameseConfig::small());
        let duet = duet_core_shim(&g);
        assert_eq!(validate_schedule(duet.0.as_ref(), &duet.1), Ok(()));
    }

    // duet-core depends on duet-runtime, so tests here can't use Duet
    // directly; emulate the engine's coarse split instead.
    fn duet_core_shim(g: &Graph) -> (Box<Graph>, Vec<Placed>) {
        let c = Compiler::default();
        let ids = g.compute_ids();
        let placed = vec![Placed {
            sg: c.compile_nodes(g, &ids, "all"),
            device: DeviceKind::Gpu,
        }];
        (Box::new(g.clone()), placed)
    }
}
