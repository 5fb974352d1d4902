//! Schedule-plan round trips: the offline decision serializes, reloads,
//! and reproduces the same engine behaviour — and refuses to apply to a
//! structurally different model.

use duet::core::{Duet, EngineError, SchedulePlan};
use duet::device::DeviceKind;
use duet::prelude::*;
use duet_analysis::codes;
use duet_models::input_feeds;

#[test]
fn plan_roundtrip_reproduces_engine() {
    let model = wide_and_deep(&WideAndDeepConfig::default());
    let original = Duet::builder().build(&model).unwrap();
    let json = original.export_plan().to_json();

    let plan = SchedulePlan::from_json(&json).unwrap();
    let reloaded = Duet::builder().build_with_plan(&model, &plan).unwrap();

    assert_eq!(original.latency_us(), reloaded.latency_us());
    assert_eq!(original.fallback_device(), reloaded.fallback_device());
    let a: Vec<DeviceKind> = original.placed().iter().map(|p| p.device).collect();
    let b: Vec<DeviceKind> = reloaded.placed().iter().map(|p| p.device).collect();
    assert_eq!(a, b);
}

#[test]
fn reloaded_plan_executes_correctly() {
    let model = siamese(&SiameseConfig::small());
    let original = Duet::builder().no_fallback().build(&model).unwrap();
    let plan = original.export_plan();
    let reloaded = Duet::builder()
        .no_fallback()
        .build_with_plan(&model, &plan)
        .unwrap();
    let feeds = input_feeds(reloaded.graph(), 3);
    let out = reloaded.run(&feeds).unwrap();
    let want = reloaded.graph().eval(&feeds).unwrap();
    assert_eq!(out.outputs[&reloaded.graph().outputs()[0]], want[0]);
}

#[test]
fn plan_survives_weight_changes_but_not_architecture_changes() {
    let cfg = SiameseConfig::default();
    let model = siamese(&cfg);
    let plan = Duet::builder().build(&model).unwrap().export_plan();

    // Same architecture, different weights: fine.
    let retrained = siamese(&SiameseConfig {
        seed: 999,
        ..cfg.clone()
    });
    assert!(Duet::builder().build_with_plan(&retrained, &plan).is_ok());

    // Different architecture: refused, with the stale fingerprint alone
    // (the plan's node ids name the other graph's nodes).
    let deeper = siamese(&SiameseConfig {
        rnn_layers: 2,
        ..cfg
    });
    match Duet::builder().build_with_plan(&deeper, &plan) {
        Err(EngineError::Lint(report))
            if report.contains(codes::PLAN_STALE_FINGERPRINT) && report.error_count() == 1 => {}
        other => panic!("expected one stale-fingerprint lint, got {other:?}"),
    }
}

#[test]
fn fallback_plans_reload_as_fallback() {
    let model = resnet(&ResNetConfig::default());
    let original = Duet::builder().build(&model).unwrap();
    assert_eq!(original.fallback_device(), Some(DeviceKind::Gpu));
    let plan = original.export_plan();
    assert_eq!(plan.fallback, Some(DeviceKind::Gpu));
    let reloaded = Duet::builder().build_with_plan(&model, &plan).unwrap();
    assert_eq!(reloaded.fallback_device(), Some(DeviceKind::Gpu));
    assert_eq!(reloaded.placed().len(), 1);
}
