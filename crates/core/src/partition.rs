//! Coarse-grained multi-phase graph partitioning (§IV-A).
//!
//! A *phased schedule* executes the DAG as a totally-ordered sequence of
//! phases S1, S2, …; each phase is either **sequential** (one chain
//! subgraph) or **multi-path** (several mutually-independent subgraphs).
//! Phase boundaries are the DAG's *synchronization points*: nodes through
//! which every source→sink path passes. Between two consecutive sync
//! points the interior nodes split into weakly-connected components — one
//! component means the flow is still a chain; several components are
//! exactly the independent branches of a multi-path phase (Fig. 7).
//!
//! Shared nodes (one value consumed by several branches, §IV-A's
//! "replicated placeholders") need no special graph surgery here: each
//! branch subgraph lists the shared producer among its boundary `inputs`,
//! and the executor feeds all of them from the same value — the runtime
//! equivalent of pointing every replica at one input stream.
//!
//! Partitioning is deliberately one-level (footnote 1: nested partitions
//! lower granularity and raise communication, so the paper leaves
//! multi-level partitioning as future work).

use std::collections::HashMap;
use std::sync::Arc;

use duet_compiler::{CompiledSubgraph, Compiler};
use duet_ir::{Graph, NodeId, Op};

/// Phase flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PhaseKind {
    /// A single chain of operators; no intra-phase parallelism.
    Sequential,
    /// Two or more independent subgraphs that may run concurrently.
    MultiPath,
}

/// One phase: a set of subgraphs (node-id sets) that may execute
/// concurrently with each other but not with other phases' subgraphs
/// (beyond what the dependency structure already permits).
#[derive(Debug, Clone)]
pub struct Phase {
    pub kind: PhaseKind,
    /// Node sets, each topologically ordered.
    pub subgraphs: Vec<Vec<NodeId>>,
}

/// A complete phased partition of a graph's compute nodes.
#[derive(Debug, Clone)]
pub struct Partition {
    pub phases: Vec<Phase>,
}

impl Partition {
    /// Total number of subgraphs.
    pub fn subgraph_count(&self) -> usize {
        self.phases.iter().map(|p| p.subgraphs.len()).sum()
    }

    /// All node sets with their phase index, in phase order.
    pub fn flat(&self) -> Vec<(usize, PhaseKind, &Vec<NodeId>)> {
        self.phases
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.subgraphs.iter().map(move |s| (i, p.kind, s)))
            .collect()
    }

    /// Compile every subgraph (fusion inside each subgraph — this is where
    /// coarse granularity preserves the compiler's graph-level wins).
    /// Subgraphs are named from the dominant label prefix of their nodes.
    pub fn compile(&self, graph: &Graph, compiler: &Compiler) -> Vec<Arc<CompiledSubgraph>> {
        let mut used: HashMap<String, usize> = HashMap::new();
        self.flat()
            .into_iter()
            .map(|(phase, _, nodes)| {
                let base = dominant_prefix(graph, nodes);
                let n = used.entry(base.clone()).or_insert(0);
                let name = if *n == 0 {
                    format!("{base}@p{phase}")
                } else {
                    format!("{base}#{n}@p{phase}")
                };
                *n += 1;
                Arc::new(compiler.compile_nodes(graph, nodes, name))
            })
            .collect()
    }
}

/// Most common first label segment among a node set — a readable subgraph
/// name like "rnn", "cnn", "task0".
fn dominant_prefix(graph: &Graph, nodes: &[NodeId]) -> String {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for &id in nodes {
        let label = graph.node(id).label.as_str();
        let prefix = label.split('.').next().unwrap_or(label);
        *counts.entry(prefix).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
        .map(|(p, _)| p.to_string())
        .unwrap_or_else(|| "sub".into())
}

/// Partition a graph's compute nodes into a phased schedule.
pub fn partition(graph: &Graph) -> Partition {
    partition_nodes(graph, &graph.compute_ids())
}

/// Phased partition of an arbitrary (topologically closed within itself)
/// node subset. Edges to nodes outside `nodes` are treated like graph
/// inputs/outputs: they delimit the subset's sources and sinks. This is
/// the recursion step of [`partition_nested`].
pub fn partition_nodes(graph: &Graph, nodes: &[NodeId]) -> Partition {
    let compute: Vec<NodeId> = {
        let mut v = nodes.to_vec();
        v.sort_unstable();
        v
    };
    if compute.is_empty() {
        return Partition { phases: Vec::new() };
    }
    let in_set: std::collections::HashSet<NodeId> = compute.iter().copied().collect();
    let is_compute =
        |id: NodeId| in_set.contains(&id) && !matches!(graph.node(id).op, Op::Input | Op::Constant);

    // --- Sync-point detection over the compute DAG, in topo order.
    // A sync point is a node every source→sink path passes through.
    // After emitting node v that holds iff (a) no *other* emitted node
    // still has un-emitted consumers (every open edge starts at v),
    // (b) no un-emitted compute *source* remains (no path can begin after
    // v and bypass it), and (c) no compute *sink* was emitted before v
    // (no path ended before v and bypassed it).
    let mut remaining: HashMap<NodeId, usize> = HashMap::new();
    let mut open = 0usize; // emitted nodes with remaining > 0
    let mut future_sources = compute
        .iter()
        .filter(|&&v| graph.node(v).inputs.iter().all(|&p| !is_compute(p)))
        .count();
    let mut past_sinks = 0usize;
    let mut sync_flags: Vec<bool> = Vec::with_capacity(compute.len());
    for &v in &compute {
        if graph.node(v).inputs.iter().all(|&p| !is_compute(p)) {
            future_sources -= 1;
        }
        // Emitting v closes one pending edge at each distinct producer.
        let mut producers: Vec<NodeId> = graph
            .node(v)
            .inputs
            .iter()
            .copied()
            .filter(|&p| is_compute(p))
            .collect();
        producers.sort_unstable();
        producers.dedup();
        for p in producers {
            let r = remaining
                .get_mut(&p)
                .expect("producer emitted before consumer");
            *r -= 1;
            if *r == 0 {
                open -= 1;
            }
        }
        let consumers = graph
            .node(v)
            .outputs
            .iter()
            .filter(|&&c| is_compute(c))
            .count();
        remaining.insert(v, consumers);
        if consumers > 0 {
            open += 1;
        }
        let open_excluding_v = open - usize::from(consumers > 0);
        sync_flags.push(open_excluding_v == 0 && future_sources == 0 && past_sinks == 0);
        if consumers == 0 {
            past_sinks += 1;
        }
    }

    // --- Regions between sync points → phases.
    // Interior nodes of a region are grouped into weakly-connected
    // components; ≥2 components form a multi-path phase, otherwise the
    // run merges into the surrounding sequential phase.
    let mut phases: Vec<Phase> = Vec::new();
    let mut seq_run: Vec<NodeId> = Vec::new();
    let mut region: Vec<NodeId> = Vec::new();
    let flush_region =
        |region: &mut Vec<NodeId>, seq_run: &mut Vec<NodeId>, phases: &mut Vec<Phase>| {
            if region.is_empty() {
                return;
            }
            let comps = components(graph, region);
            if comps.len() >= 2 {
                if !seq_run.is_empty() {
                    phases.push(Phase {
                        kind: PhaseKind::Sequential,
                        subgraphs: vec![std::mem::take(seq_run)],
                    });
                }
                phases.push(Phase {
                    kind: PhaseKind::MultiPath,
                    subgraphs: comps,
                });
            } else {
                // Chain region: stays in the current sequential run.
                seq_run.append(region);
            }
            region.clear();
        };
    for (&v, &is_sync) in compute.iter().zip(&sync_flags) {
        if is_sync {
            flush_region(&mut region, &mut seq_run, &mut phases);
            seq_run.push(v);
        } else {
            region.push(v);
        }
    }
    flush_region(&mut region, &mut seq_run, &mut phases);
    if !seq_run.is_empty() {
        phases.push(Phase {
            kind: PhaseKind::Sequential,
            subgraphs: vec![seq_run],
        });
    }
    Partition { phases }
}

/// Multi-level partitioning — the paper's footnote-1 future work.
///
/// After the one-level partition, every multi-path branch with more than
/// `min_branch` nodes is recursively partitioned into its own phase
/// sequence, and the resulting finer subgraphs replace the branch inside
/// its parent phase (up to `depth` levels). The paper declines to do this
/// because "doing so will decrease the computation granularity and incur
/// more CPU-GPU communication overhead"; the `ext-nested` experiment
/// quantifies exactly that trade-off.
///
/// Like [`partition_per_operator`], nesting relaxes the strict mutual
/// independence of multi-path phase-mates (a branch's internal stages
/// depend on each other); the simulator handles those dependencies
/// exactly, the greedy heuristic approximately.
pub fn partition_nested(graph: &Graph, depth: usize, min_branch: usize) -> Partition {
    fn split(graph: &Graph, nodes: &[NodeId], depth: usize, min_branch: usize) -> Vec<Vec<NodeId>> {
        if depth == 0 || nodes.len() < min_branch {
            return vec![nodes.to_vec()];
        }
        let sub = partition_nodes(graph, nodes);
        if sub.subgraph_count() <= 1 {
            return vec![nodes.to_vec()];
        }
        sub.phases
            .into_iter()
            .flat_map(|ph| ph.subgraphs)
            .flat_map(|sg| split(graph, &sg, depth - 1, min_branch))
            .collect()
    }
    let top = partition(graph);
    Partition {
        phases: top
            .phases
            .into_iter()
            .map(|ph| match ph.kind {
                PhaseKind::Sequential => ph,
                PhaseKind::MultiPath => Phase {
                    kind: PhaseKind::MultiPath,
                    subgraphs: ph
                        .subgraphs
                        .into_iter()
                        .flat_map(|branch| split(graph, &branch, depth, min_branch))
                        .collect(),
                },
            })
            .collect(),
    }
}

/// Operator-granularity partition: every compute node becomes its own
/// subgraph, keeping the coarse partition's phase indices and kinds.
///
/// This is the ablation of the paper's central design choice (§III-B,
/// opportunity 3): per-operator scheduling destroys the fusion scope
/// inside subgraphs and multiplies boundary edges (communication
/// candidates). Note the within-phase independence guarantee of
/// [`PhaseKind::MultiPath`] is relaxed here — singleton subgraphs from
/// the same branch depend on each other; the simulator handles the
/// dependencies exactly, only the greedy load-balancing heuristic loses
/// fidelity (which is part of what the ablation shows).
pub fn partition_per_operator(graph: &Graph) -> Partition {
    let coarse = partition(graph);
    Partition {
        phases: coarse
            .phases
            .into_iter()
            .map(|ph| Phase {
                kind: ph.kind,
                subgraphs: ph
                    .subgraphs
                    .into_iter()
                    .flatten()
                    .map(|n| vec![n])
                    .collect(),
            })
            .collect(),
    }
}

/// Weakly-connected components of the induced sub-DAG over `nodes`
/// (edges through nodes outside the set do not connect).
fn components(graph: &Graph, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
    let index: HashMap<NodeId, usize> = nodes
        .iter()
        .copied()
        .enumerate()
        .map(|(i, n)| (n, i))
        .collect();
    let mut dsu: Vec<usize> = (0..nodes.len()).collect();
    fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
        if dsu[x] != x {
            let root = find(dsu, dsu[x]);
            dsu[x] = root;
        }
        dsu[x]
    }
    for (i, &id) in nodes.iter().enumerate() {
        for &nb in graph
            .node(id)
            .inputs
            .iter()
            .chain(graph.node(id).outputs.iter())
        {
            if let Some(&j) = index.get(&nb) {
                let (a, b) = (find(&mut dsu, i), find(&mut dsu, j));
                if a != b {
                    dsu[a] = b;
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for (i, &id) in nodes.iter().enumerate() {
        groups.entry(find(&mut dsu, i)).or_default().push(id);
    }
    let mut out: Vec<Vec<NodeId>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by_key(|g| g[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::{
        mlp, mtdnn, siamese, wide_and_deep, MlpConfig, MtDnnConfig, SiameseConfig,
        WideAndDeepConfig,
    };

    fn phase_node_union(p: &Partition) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = p
            .phases
            .iter()
            .flat_map(|ph| ph.subgraphs.iter().flatten().copied())
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn mlp_is_one_sequential_phase() {
        let g = mlp(&MlpConfig::default());
        let p = partition(&g);
        assert_eq!(p.phases.len(), 1);
        assert_eq!(p.phases[0].kind, PhaseKind::Sequential);
        assert_eq!(p.subgraph_count(), 1);
    }

    #[test]
    fn siamese_has_two_branch_multipath() {
        let g = siamese(&SiameseConfig::default());
        let p = partition(&g);
        let multi: Vec<&Phase> = p
            .phases
            .iter()
            .filter(|ph| ph.kind == PhaseKind::MultiPath)
            .collect();
        assert_eq!(multi.len(), 1);
        assert_eq!(multi[0].subgraphs.len(), 2);
        // Followed by the sequential head.
        assert_eq!(p.phases.last().unwrap().kind, PhaseKind::Sequential);
    }

    #[test]
    fn wide_and_deep_has_four_branches() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let p = partition(&g);
        let multi: Vec<&Phase> = p
            .phases
            .iter()
            .filter(|ph| ph.kind == PhaseKind::MultiPath)
            .collect();
        // The encoder phase has ≥4 components (the W&D branches; ResNet's
        // projection shortcuts may add small local multi-path phases, but
        // the branch phase itself must contain wide/ffn/rnn/cnn).
        let branch_phase = multi
            .iter()
            .find(|ph| ph.subgraphs.len() >= 4)
            .expect("four-branch phase exists");
        let names: Vec<String> = branch_phase
            .subgraphs
            .iter()
            .map(|sg| super::dominant_prefix(&g, sg))
            .collect();
        for want in ["wide", "ffn", "rnn", "cnn"] {
            assert!(names.iter().any(|n| n == want), "{want} in {names:?}");
        }
    }

    #[test]
    fn mtdnn_heads_form_trailing_multipath() {
        let g = mtdnn(&MtDnnConfig::default());
        let p = partition(&g);
        let last = p.phases.last().unwrap();
        assert_eq!(last.kind, PhaseKind::MultiPath);
        assert_eq!(last.subgraphs.len(), 4);
    }

    #[test]
    fn partition_covers_exactly_compute_nodes() {
        for g in [
            mlp(&MlpConfig::default()),
            siamese(&SiameseConfig::default()),
            wide_and_deep(&WideAndDeepConfig::small()),
            mtdnn(&MtDnnConfig::small()),
        ] {
            let p = partition(&g);
            assert_eq!(phase_node_union(&p), g.compute_ids(), "graph {}", g.name);
        }
    }

    #[test]
    fn phases_are_topologically_consistent() {
        // Every edge goes within a phase or from an earlier phase to a
        // later one — never backwards.
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let p = partition(&g);
        let mut phase_of: HashMap<NodeId, usize> = HashMap::new();
        for (i, ph) in p.phases.iter().enumerate() {
            for sg in &ph.subgraphs {
                for &n in sg {
                    phase_of.insert(n, i);
                }
            }
        }
        for id in g.compute_ids() {
            for &src in &g.node(id).inputs {
                if let (Some(&a), Some(&b)) = (phase_of.get(&src), phase_of.get(&id)) {
                    assert!(a <= b, "edge {src}->{id} goes backwards ({a} -> {b})");
                }
            }
        }
    }

    #[test]
    fn multipath_subgraphs_are_mutually_independent() {
        let g = siamese(&SiameseConfig::default());
        let p = partition(&g);
        for ph in p.phases.iter().filter(|p| p.kind == PhaseKind::MultiPath) {
            for (i, a) in ph.subgraphs.iter().enumerate() {
                for b in ph.subgraphs.iter().skip(i + 1) {
                    for &n in a {
                        for &src in &g.node(n).inputs {
                            assert!(!b.contains(&src), "cross-branch dependency");
                        }
                    }
                    for &n in b {
                        for &src in &g.node(n).inputs {
                            assert!(!a.contains(&src), "cross-branch dependency");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_partition_names_components() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let p = partition(&g);
        let sgs = p.compile(&g, &Compiler::default());
        assert_eq!(sgs.len(), p.subgraph_count());
        let names: Vec<&str> = sgs.iter().map(|s| s.name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("rnn")), "{names:?}");
        assert!(names.iter().any(|n| n.starts_with("cnn")), "{names:?}");
    }

    #[test]
    fn nested_partition_covers_and_refines() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let coarse = partition(&g);
        let nested = partition_nested(&g, 2, 6);
        assert_eq!(phase_node_union(&nested), g.compute_ids());
        assert!(nested.subgraph_count() >= coarse.subgraph_count());
        // The CNN branch (69 nodes) must have been split.
        let max_coarse = coarse
            .phases
            .iter()
            .flat_map(|p| p.subgraphs.iter().map(Vec::len))
            .max()
            .unwrap();
        let max_nested = nested
            .phases
            .iter()
            .flat_map(|p| p.subgraphs.iter().map(Vec::len))
            .max()
            .unwrap();
        assert!(max_nested < max_coarse, "{max_nested} < {max_coarse}");
    }

    #[test]
    fn nested_depth_zero_equals_coarse() {
        let g = siamese(&SiameseConfig::default());
        let coarse = partition(&g);
        let nested = partition_nested(&g, 0, 6);
        assert_eq!(nested.subgraph_count(), coarse.subgraph_count());
    }

    #[test]
    fn partition_nodes_on_subset_respects_boundaries() {
        // Partitioning only the RNN branch of W&D yields a sequential
        // chain (its internal structure), not the whole-graph phases.
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let rnn_nodes: Vec<NodeId> = g
            .compute_ids()
            .into_iter()
            .filter(|&i| g.node(i).label.starts_with("rnn"))
            .collect();
        let p = partition_nodes(&g, &rnn_nodes);
        assert_eq!(phase_node_union(&p), {
            let mut v = rnn_nodes.clone();
            v.sort_unstable();
            v
        });
        assert!(p.phases.iter().all(|ph| ph.kind == PhaseKind::Sequential));
    }

    #[test]
    fn diamond_reconverges_into_sequential_tail() {
        use duet_ir::{GraphBuilder, Op};
        let mut b = GraphBuilder::new("diamond", 1);
        let x = b.input("x", vec![1, 8]);
        let pre = b.dense("pre", x, 8, None).unwrap();
        let l = b.dense("left", pre, 8, None).unwrap();
        let r = b.dense("right", pre, 8, None).unwrap();
        let j = b.op("join", Op::Add, &[l, r]).unwrap();
        let out = b.dense("post", j, 4, None).unwrap();
        let g = b.finish(&[out]).unwrap();
        let p = partition(&g);
        let kinds: Vec<PhaseKind> = p.phases.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            vec![
                PhaseKind::Sequential,
                PhaseKind::MultiPath,
                PhaseKind::Sequential
            ]
        );
        assert_eq!(p.phases[1].subgraphs.len(), 2);
    }
}
