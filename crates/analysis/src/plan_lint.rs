//! The plan linter (`D2xx`): the one check that a schedule is well
//! formed.
//!
//! Its hard errors — stale fingerprint (reported alone), batch mismatch,
//! unknown, source, doubly covered or uncovered nodes, missing outputs,
//! cyclic subgraphs — each carry a precise code, and they are what
//! `Duet::build_with_plan` refuses a plan on. Performance lints sit on
//! top: plans that will *run* but waste the coupled
//! architecture — excessive cross-device boundary traffic inside a
//! phase (the PCIe tax of §III-B), subgraphs split below fusion
//! granularity, and unbalanced multi-path phases whose slowest path
//! hides every other device's work.
//!
//! To stay free of a `duet-core` dependency (core's plan loading calls
//! *into* this linter), the input is a plain [`PlanFacts`] view; core's
//! `SchedulePlan::to_facts` produces it.

use std::collections::HashMap;

use duet_device::DeviceKind;
use duet_ir::{fingerprint, Graph, NodeId, Op};

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};

/// One planned subgraph, decoupled from `duet-core`'s serialized form.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSubgraphFacts {
    pub name: String,
    /// Phase index the subgraph executes in.
    pub phase: usize,
    /// True when the owning phase runs its subgraphs concurrently.
    pub multi_path: bool,
    /// Node ids in the optimized graph.
    pub nodes: Vec<NodeId>,
    pub device: DeviceKind,
}

/// Everything the linter needs to know about a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanFacts {
    /// Model name, used as the report subject.
    pub model: String,
    /// Structural fingerprint of the graph the plan was made for.
    pub fingerprint: u64,
    /// Batch size the plan was compiled for. Serving keeps one plan per
    /// (model, batch) — the Fig. 17 occupancy model means batch-1 and
    /// batch-16 want different placements — so a plan applied at the
    /// wrong batch is an error, not a curiosity.
    pub batch: usize,
    /// The plan's claimed end-to-end latency, when it carries one. Used
    /// by the model checker's `D503` occupancy bound; `None` disables
    /// that check.
    pub expected_latency_us: Option<f64>,
    /// True when the plan records a single-device fallback decision.
    pub fallback: bool,
    /// Critical-path lower bound on any placement's makespan, when the
    /// producer computed one (chain bound ∨ work bound; see
    /// `duet-core`'s `critical_path_lower_bound_us`). Drives the `D215`
    /// optimality-gap lint; `None` disables it.
    pub critical_path_lb_us: Option<f64>,
    pub subgraphs: Vec<PlanSubgraphFacts>,
}

/// Thresholds for the performance lints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LintConfig {
    /// Warn when one phase moves more than this many bytes across the
    /// device boundary (default 8 MiB — several PCIe round-trips of
    /// activation traffic per inference).
    pub max_cross_traffic_bytes: f64,
    /// Warn when a multi-path phase's heaviest path exceeds its lightest
    /// by more than this factor (default 8×).
    pub imbalance_ratio: f64,
    /// Warn when a heterogeneous plan's claimed makespan exceeds the
    /// critical-path lower bound by more than this factor (default 2×) —
    /// the schedule is leaving at least half the provable headroom on
    /// the table and is a candidate for re-tuning.
    pub makespan_bound_factor: f64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_cross_traffic_bytes: 8.0 * 1024.0 * 1024.0,
            imbalance_ratio: 8.0,
            makespan_bound_factor: 2.0,
        }
    }
}

/// Lint a plan against the (optimized) graph it claims to schedule.
///
/// Hard errors come first; the performance lints only run on plans with
/// no errors — linting a structurally broken plan would index nodes
/// that may not exist. A stale fingerprint is the only finding reported
/// for a plan made for another graph.
pub fn lint_plan(graph: &Graph, facts: &PlanFacts, config: &LintConfig) -> Report {
    let mut report = Report::new(format!("{}:plan", facts.model));
    let n = graph.len();

    let actual = fingerprint(graph);
    if facts.fingerprint != actual {
        report.push(Diagnostic::error(
            codes::PLAN_STALE_FINGERPRINT,
            format!(
                "plan fingerprint {:#x} does not match graph {actual:#x} — \
                 the model changed since the plan was made",
                facts.fingerprint
            ),
        ));
        // The plan's node ids name another graph's nodes: every further
        // finding would be noise.
        crate::telemetry::record_check(crate::telemetry::Family::Plan, &report);
        return report;
    }

    // Batch consistency: the graph's outputs define its batch size
    // (`Graph::leading_batch`); a plan recorded for a different batch
    // would hand the serving layer a placement tuned for the wrong
    // occupancy regime. Graphs whose outputs don't share a leading
    // dimension have no well-defined batch and are skipped.
    if facts.batch == 0 {
        report.push(Diagnostic::error(
            codes::PLAN_BATCH_MISMATCH,
            "plan records batch size 0 — a plan must serve at least one request",
        ));
    } else if let Some(graph_batch) = graph.leading_batch() {
        if facts.batch != graph_batch {
            report.push(Diagnostic::error(
                codes::PLAN_BATCH_MISMATCH,
                format!(
                    "plan records batch size {} but the graph's input/output \
                     shapes imply batch {graph_batch}",
                    facts.batch
                ),
            ));
        }
    }

    // Ownership: node id -> subgraph index, with coverage errors.
    let mut owner: HashMap<NodeId, usize> = HashMap::new();
    for (si, sg) in facts.subgraphs.iter().enumerate() {
        if sg.nodes.is_empty() {
            report.push(
                Diagnostic::error(codes::PLAN_EMPTY_SUBGRAPH, "subgraph schedules no nodes")
                    .with_context(sg.name.clone()),
            );
        }
        for &id in &sg.nodes {
            if id >= n {
                report.push(
                    Diagnostic::error(
                        codes::PLAN_UNKNOWN_NODE,
                        format!("schedules nonexistent node {id}"),
                    )
                    .with_context(sg.name.clone()),
                );
                continue;
            }
            if matches!(graph.node(id).op, Op::Input | Op::Constant) {
                report.push(
                    Diagnostic::error(
                        codes::PLAN_COVERS_SOURCE,
                        format!("{} is a source, not schedulable", graph.node(id).label),
                    )
                    .with_node(id)
                    .with_context(sg.name.clone()),
                );
            }
            if let Some(prev) = owner.insert(id, si) {
                report.push(
                    Diagnostic::error(
                        codes::PLAN_DOUBLY_COVERED,
                        format!("node also scheduled by '{}'", facts.subgraphs[prev].name),
                    )
                    .with_node(id)
                    .with_context(sg.name.clone()),
                );
            }
        }
    }
    for id in graph.compute_ids() {
        if !owner.contains_key(&id) {
            report.push(
                Diagnostic::error(
                    codes::PLAN_UNCOVERED,
                    format!("compute node '{}' is not scheduled", graph.node(id).label),
                )
                .with_node(id),
            );
        }
    }
    for &o in graph.outputs() {
        if o < n && !owner.contains_key(&o) && !matches!(graph.node(o).op, Op::Input | Op::Constant)
        {
            report.push(
                Diagnostic::error(
                    codes::PLAN_MISSING_OUTPUT,
                    format!(
                        "graph output '{}' is produced by no subgraph",
                        graph.node(o).label
                    ),
                )
                .with_node(o),
            );
        }
    }

    if !report.has_errors() {
        check_subgraph_cycles(graph, facts, &owner, &mut report);
    }
    if !report.has_errors() {
        perf_lints(graph, facts, &owner, config, &mut report);
    }
    crate::telemetry::record_check(crate::telemetry::Family::Plan, &report);
    report
}

/// Kahn over subgraph-level dependencies (a node's input owned by a
/// different subgraph is an edge between the two).
fn check_subgraph_cycles(
    graph: &Graph,
    facts: &PlanFacts,
    owner: &HashMap<NodeId, usize>,
    report: &mut Report,
) {
    let m = facts.subgraphs.len();
    let mut indeg = vec![0usize; m];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (si, sg) in facts.subgraphs.iter().enumerate() {
        let mut deps: Vec<usize> = sg
            .nodes
            .iter()
            .flat_map(|&id| graph.node(id).inputs.iter())
            .filter_map(|src| owner.get(src).copied())
            .filter(|&d| d != si)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        indeg[si] = deps.len();
        for d in deps {
            consumers[d].push(si);
        }
    }
    let mut ready: Vec<usize> = (0..m).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0usize;
    while let Some(i) = ready.pop() {
        seen += 1;
        for &c in &consumers[i] {
            indeg[c] -= 1;
            if indeg[c] == 0 {
                ready.push(c);
            }
        }
    }
    if seen < m {
        let stuck = (0..m).find(|&i| indeg[i] > 0).expect("cycle member");
        report.push(
            Diagnostic::error(
                codes::PLAN_CYCLIC,
                format!("subgraph dependencies form a cycle ({} members)", m - seen),
            )
            .with_context(facts.subgraphs[stuck].name.clone()),
        );
    }
}

fn perf_lints(
    graph: &Graph,
    facts: &PlanFacts,
    owner: &HashMap<NodeId, usize>,
    config: &LintConfig,
    report: &mut Report,
) {
    let phase_count = facts
        .subgraphs
        .iter()
        .map(|s| s.phase + 1)
        .max()
        .unwrap_or(0);
    let mut cross_bytes = vec![0.0f64; phase_count];

    for (si, sg) in facts.subgraphs.iter().enumerate() {
        let in_sg: std::collections::HashSet<NodeId> = sg.nodes.iter().copied().collect();
        let mut same_device_neighbor = false;
        for &id in &sg.nodes {
            for &src in &graph.node(id).inputs {
                if in_sg.contains(&src) || matches!(graph.node(src).op, Op::Constant) {
                    continue;
                }
                // Boundary input: charge it to this phase when the
                // producer sits on the other device.
                if let Some(&psi) = owner.get(&src) {
                    if facts.subgraphs[psi].device != sg.device {
                        cross_bytes[sg.phase] += graph.node(src).shape.byte_size() as f64;
                    } else if psi != si {
                        same_device_neighbor = true;
                    }
                }
            }
        }

        // Sub-fusion-granularity: a subgraph of nothing but elementwise
        // epilogue ops, cut off from a same-device producer the fuser
        // would have absorbed it into.
        let all_elementwise = !sg.nodes.is_empty()
            && sg
                .nodes
                .iter()
                .all(|&id| graph.node(id).op.is_fusable_elementwise());
        if all_elementwise && same_device_neighbor {
            report.push(
                Diagnostic::warning(
                    codes::PLAN_SUB_FUSION,
                    "subgraph is only elementwise ops split from a same-device \
                     producer — below fusion granularity",
                )
                .with_context(sg.name.clone()),
            );
        }
    }

    for (phase, &bytes) in cross_bytes.iter().enumerate() {
        if bytes > config.max_cross_traffic_bytes {
            report.push(Diagnostic::warning(
                codes::PLAN_CROSS_TRAFFIC,
                format!(
                    "phase {phase} moves {:.1} MB across the device boundary",
                    bytes / 1e6
                ),
            ));
        }
    }

    // Optimality gap: a heterogeneous plan whose claimed makespan sits
    // far above the critical-path lower bound is leaving provable
    // headroom unused. Fallback plans are exempt — a single device
    // cannot exploit the work bound's two-device parallelism, so
    // best-single latency near 2× the bound is the *expected* shape of
    // a correct fallback decision, not a tuning failure.
    if !facts.fallback {
        if let (Some(latency), Some(lb)) = (facts.expected_latency_us, facts.critical_path_lb_us) {
            if lb > 0.0 && latency > config.makespan_bound_factor * lb {
                report.push(Diagnostic::warning(
                    codes::PLAN_FAR_FROM_BOUND,
                    format!(
                        "simulated makespan {:.1} us is {:.2}x the critical-path \
                         lower bound {:.1} us (threshold {:.1}x) — the schedule \
                         has provable headroom; consider `duet tune`",
                        latency,
                        latency / lb,
                        lb,
                        config.makespan_bound_factor
                    ),
                ));
            }
        }
    }

    // Multi-path balance: within each concurrent phase, compare the
    // FLOPs of the heaviest and lightest paths.
    for phase in 0..phase_count {
        let members: Vec<&PlanSubgraphFacts> = facts
            .subgraphs
            .iter()
            .filter(|s| s.phase == phase && s.multi_path)
            .collect();
        if members.len() == 1 {
            report.push(
                Diagnostic::warning(
                    codes::PLAN_SINGLE_PATH,
                    format!("phase {phase} is declared multi-path but has a single path"),
                )
                .with_context(members[0].name.clone()),
            );
        }
        if members.len() < 2 {
            continue;
        }
        let flops: Vec<f64> = members
            .iter()
            .map(|s| {
                s.nodes
                    .iter()
                    .map(|&id| graph.node_cost(id).flops)
                    .sum::<f64>()
                    .max(1.0)
            })
            .collect();
        let (max, min) = (
            flops.iter().cloned().fold(f64::MIN, f64::max),
            flops.iter().cloned().fold(f64::MAX, f64::min),
        );
        if max / min > config.imbalance_ratio {
            report.push(Diagnostic::warning(
                codes::PLAN_UNBALANCED,
                format!(
                    "phase {phase} paths are unbalanced: heaviest {max:.2e} FLOPs vs \
                     lightest {min:.2e}"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::GraphBuilder;

    fn facts_for(g: &Graph, chunks: &[Vec<NodeId>]) -> PlanFacts {
        PlanFacts {
            model: g.name.clone(),
            fingerprint: fingerprint(g),
            batch: 1,
            expected_latency_us: None,
            fallback: false,
            critical_path_lb_us: None,
            subgraphs: chunks
                .iter()
                .enumerate()
                .map(|(i, nodes)| PlanSubgraphFacts {
                    name: format!("s{i}"),
                    phase: 0,
                    multi_path: false,
                    nodes: nodes.clone(),
                    device: DeviceKind::Cpu,
                })
                .collect(),
        }
    }

    #[test]
    fn mutually_feeding_subgraphs_are_d205() {
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
        let config = LintConfig::default();
        let outer = [of("a"), of("c")].concat();
        let cyclic = lint_plan(&g, &facts_for(&g, &[outer, of("b")]), &config);
        assert_eq!(cyclic.error_count(), 1, "{cyclic}");
        assert!(cyclic.contains(codes::PLAN_CYCLIC), "{cyclic}");
        let chain = lint_plan(&g, &facts_for(&g, &[of("c"), of("a"), of("b")]), &config);
        assert!(!chain.has_errors(), "{chain}");
    }

    #[test]
    fn source_named_as_output_needs_no_producer() {
        let mut b = GraphBuilder::new("g", 1);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("a", x, 4, None).unwrap();
        let g = b.finish(&[y, x]).unwrap();
        let report = lint_plan(
            &g,
            &facts_for(&g, &[g.compute_ids()]),
            &LintConfig::default(),
        );
        assert!(!report.has_errors(), "{report}");
    }
}
