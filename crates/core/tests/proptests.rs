//! Property-based tests for the scheduler on synthetic profile
//! landscapes: whatever the cost surface looks like, greedy placement
//! must be valid, correction must never regress, and the engine's
//! decision must never lose to the best single device by more than the
//! fallback guarantee allows.

use duet_analysis::{lint_plan, LintConfig};
use duet_core::{partition, partition_per_operator, sched, Duet, SchedulePolicy};
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphBuilder, NodeId, Op};
use duet_runtime::{Profiler, Timeline};
use proptest::prelude::*;

/// A fan-out model with `branches` parallel dense towers of varying
/// widths — a parametric family of multi-path graphs.
fn fan_model(branches: usize, widths: &[usize]) -> Graph {
    let mut b = GraphBuilder::new("fan", 1);
    let x = b.input("x", vec![1, 64]);
    let mut outs: Vec<NodeId> = Vec::new();
    for i in 0..branches {
        let w = widths[i % widths.len()].max(1);
        let h = b
            .dense(&format!("br{i}.fc1"), x, w, Some(Op::Relu))
            .unwrap();
        let o = b.dense(&format!("br{i}.fc2"), h, 32, None).unwrap();
        outs.push(o);
    }
    let cat = b.op("join.concat", Op::Concat { axis: 1 }, &outs).unwrap();
    let y = b.dense("join.head", cat, 4, None).unwrap();
    b.finish(&[y]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_correction_never_loses_to_greedy(
        branches in 2usize..6,
        widths in prop::collection::vec(1usize..2048, 1..6),
    ) {
        let g = fan_model(branches, &widths);
        let sys = SystemModel::paper_server();
        let part = partition(&g);
        let compiler = duet_compiler::Compiler::default();
        let sgs = part.compile(&g, &compiler);
        let profiles = Profiler::new(sys.clone()).with_runs(60, 10).profile_all(&g, &sgs);
        let units = sched::make_units(&part, sgs, profiles);
        let tl = Timeline::new(&g, units.iter().map(|u| &*u.sg), &sys).unwrap();
        let greedy = sched::schedule(&tl, &units, &sys, SchedulePolicy::GreedyOnly);
        let corrected = sched::schedule(&tl, &units, &sys, SchedulePolicy::GreedyCorrection);
        prop_assert!(tl.makespan(&corrected) <= tl.makespan(&greedy) + 1e-9);
    }

    #[test]
    fn all_policies_produce_validatable_schedules(
        branches in 2usize..5,
        widths in prop::collection::vec(1usize..512, 1..4),
        seed in any::<u64>(),
    ) {
        let g = fan_model(branches, &widths);
        for policy in [
            SchedulePolicy::GreedyCorrection,
            SchedulePolicy::Random { seed },
            SchedulePolicy::RoundRobin,
            SchedulePolicy::FlopsProxy,
            SchedulePolicy::Pin(DeviceKind::Gpu),
        ] {
            let duet = Duet::builder().policy(policy).profile_runs(60, 10).build(&g).unwrap();
            let facts = duet.export_plan().to_facts();
            let report = lint_plan(duet.graph(), &facts, &LintConfig::default());
            prop_assert!(!report.has_errors(), "{:?}: {}", policy, report);
        }
    }

    #[test]
    fn engine_never_worse_than_best_single_device(
        branches in 2usize..5,
        widths in prop::collection::vec(1usize..1024, 1..4),
    ) {
        let g = fan_model(branches, &widths);
        let duet = Duet::builder().profile_runs(60, 10).build(&g).unwrap();
        let best = duet
            .single_device_latency_us(DeviceKind::Cpu)
            .min(duet.single_device_latency_us(DeviceKind::Gpu));
        prop_assert!(duet.latency_us() <= best + 1e-9);
    }

    #[test]
    fn per_operator_partition_covers_same_nodes(
        branches in 2usize..6,
        widths in prop::collection::vec(1usize..256, 1..4),
    ) {
        let g = fan_model(branches, &widths);
        let coarse = partition(&g);
        let fine = partition_per_operator(&g);
        let mut a: Vec<NodeId> =
            coarse.phases.iter().flat_map(|p| p.subgraphs.iter().flatten().copied()).collect();
        let mut b: Vec<NodeId> =
            fine.phases.iter().flat_map(|p| p.subgraphs.iter().flatten().copied()).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert!(fine.subgraph_count() >= coarse.subgraph_count());
        for ph in &fine.phases {
            for sg in &ph.subgraphs {
                prop_assert_eq!(sg.len(), 1);
            }
        }
    }

    #[test]
    fn plan_roundtrip_for_any_fan_model(
        branches in 2usize..5,
        widths in prop::collection::vec(1usize..512, 1..4),
    ) {
        let g = fan_model(branches, &widths);
        let duet = Duet::builder().profile_runs(60, 10).build(&g).unwrap();
        let plan = duet.export_plan();
        let json = plan.to_json();
        let back = duet_core::SchedulePlan::from_json(&json).unwrap();
        let reloaded = Duet::builder()
            .profile_runs(60, 10)
            .build_with_plan(&g, &back)
            .unwrap();
        prop_assert_eq!(duet.latency_us(), reloaded.latency_us());
    }
}
