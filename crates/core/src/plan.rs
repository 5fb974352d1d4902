//! Serializable schedule plans.
//!
//! DUET's pipeline is split offline/online: partitioning, compilation and
//! profiling happen once at deployment time (§IV-B: "profiling is only
//! done during the offline phase and is therefore a one-time cost"), and
//! the serving process just executes the decided schedule. A
//! [`SchedulePlan`] is that decision as data: which nodes form which
//! subgraph, on which device — exportable to JSON next to the model and
//! re-loadable without re-running the scheduler.
//!
//! Plans embed a structural fingerprint of the optimized graph, so
//! loading a plan against a changed model fails loudly instead of
//! silently mis-assigning subgraphs.

use duet_analysis::{PlanFacts, PlanSubgraphFacts};
use duet_device::DeviceKind;
use duet_ir::NodeId;
use serde::{Deserialize, Serialize};

// The structural fingerprint lives in `duet-ir` (so `duet-analysis` can
// cross-check plans without depending on this crate); re-exported here
// where plans are defined.
pub use duet_ir::fingerprint;

use crate::partition::PhaseKind;

/// One subgraph's planned placement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedSubgraph {
    pub name: String,
    pub phase: usize,
    pub kind: PhaseKind,
    /// Node ids in the *optimized* graph.
    pub nodes: Vec<NodeId>,
    pub device: DeviceKind,
}

/// A complete, serializable scheduling decision for one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulePlan {
    pub model: String,
    /// Structural fingerprint of the optimized graph the plan was made
    /// for (operators, shapes, edges — not weights).
    pub fingerprint: u64,
    /// Batch size the plan was compiled for (the leading dimension of
    /// the graph's outputs). A serving deployment keeps one plan per
    /// (model, batch) — Fig. 17's occupancy model means batch-1 and
    /// batch-16 want different placements. Plans exported before this
    /// field existed deserialize as batch 1.
    #[serde(default = "default_batch")]
    pub batch: usize,
    pub subgraphs: Vec<PlannedSubgraph>,
    /// `Some(device)` when the plan is a single-device fallback.
    pub fallback: Option<DeviceKind>,
    /// The latency the scheduler measured when the plan was made, us.
    pub expected_latency_us: f64,
    /// Critical-path lower bound on any placement's makespan, us (chain
    /// bound ∨ work bound — `sched::critical_path_lower_bound_us`).
    /// Feeds the `D215` optimality-gap lint; plans exported before this
    /// field existed deserialize as `None` and skip the lint.
    #[serde(default)]
    pub critical_path_lb_us: Option<f64>,
}

fn default_batch() -> usize {
    1
}

impl SchedulePlan {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("plan serializes")
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The `duet-analysis` linter's view of this plan (that crate sits
    /// below `duet-core`, so it cannot consume [`SchedulePlan`]
    /// directly).
    pub fn to_facts(&self) -> PlanFacts {
        PlanFacts {
            model: self.model.clone(),
            fingerprint: self.fingerprint,
            batch: self.batch,
            expected_latency_us: Some(self.expected_latency_us),
            fallback: self.fallback.is_some(),
            critical_path_lb_us: self.critical_path_lb_us,
            subgraphs: self
                .subgraphs
                .iter()
                .map(|s| PlanSubgraphFacts {
                    name: s.name.clone(),
                    phase: s.phase,
                    multi_path: matches!(s.kind, PhaseKind::MultiPath),
                    nodes: s.nodes.clone(),
                    device: s.device,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_ir::{Graph, GraphBuilder, Op};

    fn graph(hidden: usize) -> Graph {
        let mut b = GraphBuilder::new("m", 1);
        let x = b.input("x", vec![1, 8]);
        let y = b.dense("fc", x, hidden, Some(Op::Relu)).unwrap();
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn fingerprint_stable_and_shape_sensitive() {
        assert_eq!(fingerprint(&graph(16)), fingerprint(&graph(16)));
        assert_ne!(fingerprint(&graph(16)), fingerprint(&graph(17)));
    }

    #[test]
    fn fingerprint_ignores_weight_values() {
        // Same structure, different seeds → same fingerprint.
        let a = {
            let mut b = GraphBuilder::new("m", 1);
            let x = b.input("x", vec![1, 8]);
            let y = b.dense("fc", x, 4, None).unwrap();
            b.finish(&[y]).unwrap()
        };
        let b2 = {
            let mut b = GraphBuilder::new("m", 999);
            let x = b.input("x", vec![1, 8]);
            let y = b.dense("fc", x, 4, None).unwrap();
            b.finish(&[y]).unwrap()
        };
        assert_eq!(fingerprint(&a), fingerprint(&b2));
    }

    #[test]
    fn json_roundtrip() {
        let plan = SchedulePlan {
            model: "m".into(),
            fingerprint: 42,
            batch: 1,
            subgraphs: vec![PlannedSubgraph {
                name: "rnn".into(),
                phase: 0,
                kind: PhaseKind::MultiPath,
                nodes: vec![3, 4],
                device: DeviceKind::Cpu,
            }],
            fallback: None,
            expected_latency_us: 2400.0,
            critical_path_lb_us: None,
        };
        let back = SchedulePlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(back.subgraphs[0].nodes, vec![3, 4]);
        assert_eq!(back.subgraphs[0].device, DeviceKind::Cpu);
    }

    #[test]
    fn multi_batch_variants_roundtrip() {
        // A serving plan cache keeps one plan per (model, batch); the
        // batch must survive serialization for every variant.
        for batch in [1usize, 4, 16] {
            let plan = SchedulePlan {
                model: "m".into(),
                fingerprint: 42 + batch as u64,
                batch,
                subgraphs: vec![PlannedSubgraph {
                    name: "all".into(),
                    phase: 0,
                    kind: PhaseKind::Sequential,
                    nodes: vec![3, 4],
                    device: DeviceKind::Gpu,
                }],
                fallback: None,
                expected_latency_us: 100.0 * batch as f64,
                critical_path_lb_us: None,
            };
            let back = SchedulePlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back.batch, batch);
            assert_eq!(back.fingerprint, plan.fingerprint);
            assert_eq!(back.expected_latency_us, plan.expected_latency_us);
        }
    }

    #[test]
    fn pre_batch_plans_deserialize_as_batch_one() {
        // JSON exported before the `batch` field existed must still load.
        let json = r#"{
            "model": "m",
            "fingerprint": 7,
            "subgraphs": [],
            "fallback": null,
            "expected_latency_us": 1.0
        }"#;
        let plan = SchedulePlan::from_json(json).unwrap();
        assert_eq!(plan.batch, 1);
    }
}
