//! A placement changes devices, not code: every engine derived from one
//! build — another placement (`with_devices`), a re-correction under a
//! drifted system (`recorrect`) — shares that build's compiled subgraphs,
//! and a subgraph's tape is lowered the first time something runs it, once
//! for every engine that shares it. Plan-time work (building, replaying a
//! plan, re-placing, re-correcting) lowers nothing.

use std::sync::Arc;

use duet::core::Duet;
use duet::prelude::*;
use duet_models::input_feeds;
use duet_serve::loadgen::degraded_gpu;

/// The small wide-and-deep, held heterogeneous so `placed` is the units.
fn base() -> (Graph, Duet) {
    let model = wide_and_deep(&WideAndDeepConfig::small());
    let engine = Duet::builder().no_fallback().build(&model).unwrap();
    assert!(engine.units().len() > 1, "a multi-unit plan");
    assert_eq!(engine.fallback_device(), None);
    (model, engine)
}

/// How many of the engine's units and placed subgraphs have a tape.
fn lowered(engine: &Duet) -> (usize, usize) {
    let units = engine.units().iter().filter(|u| u.sg.tape.is_lowered());
    let placed = engine.placed().iter().filter(|p| p.sg.tape.is_lowered());
    (units.count(), placed.count())
}

fn flipped(engine: &Duet) -> Vec<DeviceKind> {
    engine
        .devices()
        .iter()
        .map(|&d| match d {
            DeviceKind::Cpu => DeviceKind::Gpu,
            DeviceKind::Gpu => DeviceKind::Cpu,
        })
        .collect()
}

fn output_bits(engine: &Duet, seed: u64) -> Vec<Vec<u32>> {
    let feeds = input_feeds(engine.graph(), seed);
    let out = engine.run(&feeds).unwrap();
    engine
        .graph()
        .outputs()
        .iter()
        .map(|id| out.outputs[id].data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn engines_lower_no_tape_until_they_run() {
    let (model, engine) = base();
    let replayed = Duet::builder()
        .no_fallback()
        .build_with_plan(&model, &engine.export_plan())
        .unwrap();
    let moved = engine.with_devices(flipped(&engine));
    let drifted = engine.recorrect(degraded_gpu(engine.system()));
    for (what, e) in [
        ("build", &engine),
        ("build_with_plan", &replayed),
        ("with_devices", &moved),
        ("recorrect", &drifted),
    ] {
        assert_eq!(lowered(e), (0, 0), "{what} lowered a tape before a run");
    }

    output_bits(&engine, 1);
    let n = engine.units().len();
    assert_eq!(lowered(&engine), (n, n), "a run lowers every placed tape");
    // The derived engines share that lowering; the replayed build has its
    // own subgraphs and still has lowered nothing.
    assert_eq!(lowered(&drifted).0, n);
    assert_eq!(lowered(&moved).0, n);
    assert_eq!(lowered(&replayed), (0, 0));
}

#[test]
fn derived_engines_share_every_subgraph() {
    let (_, engine) = base();
    let moved = engine.with_devices(flipped(&engine));
    let drifted = engine.recorrect(degraded_gpu(engine.system()));
    for (what, derived) in [("with_devices", &moved), ("recorrect", &drifted)] {
        assert_eq!(derived.units().len(), engine.units().len());
        for (a, b) in engine.units().iter().zip(derived.units()) {
            assert!(
                Arc::ptr_eq(&a.sg, &b.sg),
                "{what} copied unit {}",
                a.sg.name
            );
        }
        // Whatever it places — the units or the whole-graph fallback — is
        // a subgraph the base build compiled.
        for p in derived.placed() {
            let shared = engine.units().iter().any(|u| Arc::ptr_eq(&u.sg, &p.sg));
            assert!(
                shared || derived.fallback_device().is_some(),
                "{what} placed a copy of {}",
                p.sg.name
            );
        }
    }
    for (a, b) in engine.placed().iter().zip(moved.placed()) {
        if moved.fallback_device().is_none() {
            assert!(Arc::ptr_eq(&a.sg, &b.sg));
            assert_ne!(a.device, b.device, "the placement moved");
        }
    }
}

#[test]
fn recorrected_outputs_are_bit_identical() {
    let (_, engine) = base();
    let before = output_bits(&engine, 7);
    let drifted = engine.recorrect(degraded_gpu(engine.system()));
    assert_eq!(output_bits(&drifted, 7), before);
    assert_eq!(
        output_bits(&engine, 7),
        before,
        "the base engine is unchanged"
    );
}
