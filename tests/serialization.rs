//! Binary-format round trips across the entire model zoo, and the
//! full save→load→schedule→execute deployment path.

use duet::ir::{decode, encode};
use duet::prelude::*;
use duet_models::{input_feeds, mlp, mobilenet, squeezenet, MlpConfig, MobileNetConfig};

fn small_zoo() -> Vec<duet_ir::Graph> {
    vec![
        wide_and_deep(&WideAndDeepConfig::small()),
        siamese(&SiameseConfig::small()),
        mtdnn(&MtDnnConfig::small()),
        resnet(&ResNetConfig::small()),
        mobilenet(&MobileNetConfig::small()),
        squeezenet(1, 32),
        mlp(&MlpConfig {
            input: 16,
            hidden: 32,
            ..Default::default()
        }),
    ]
}

#[test]
fn every_zoo_model_roundtrips_bitexactly() {
    for g in small_zoo() {
        let back = decode(&encode(&g)).unwrap_or_else(|e| panic!("{}: {e}", g.name));
        assert_eq!(back.len(), g.len(), "{}", g.name);
        let feeds = input_feeds(&g, 17);
        let a = g.eval(&feeds).unwrap();
        let b = back.eval(&feeds).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y, "{}: decoded model diverged", g.name);
        }
    }
}

#[test]
fn deployment_path_save_load_schedule_execute() {
    let g = wide_and_deep(&WideAndDeepConfig::small());
    // "Ship" the model as bytes, then serve it from the decoded copy.
    let artifact = encode(&g);
    let served = decode(&artifact).unwrap();
    let engine = Duet::builder().no_fallback().build(&served).unwrap();
    let feeds = input_feeds(engine.graph(), 23);
    let out = engine.run(&feeds).unwrap();
    let want = engine.graph().eval(&feeds).unwrap();
    assert!(out.outputs[&engine.graph().outputs()[0]].approx_eq(&want[0], 1e-5));
}

#[test]
fn schedules_identical_for_original_and_decoded_model() {
    let g = siamese(&SiameseConfig::default());
    let a = Duet::builder().build(&g).unwrap();
    let b = Duet::builder()
        .build(&decode(&encode(&g)).unwrap())
        .unwrap();
    assert_eq!(a.latency_us(), b.latency_us());
    assert_eq!(a.fallback_device(), b.fallback_device());
    // And plans exported from either apply to the other.
    let plan = a.export_plan();
    assert!(Duet::builder()
        .build_with_plan(&decode(&encode(&g)).unwrap(), &plan)
        .is_ok());
}

#[test]
fn encoded_size_tracks_parameters() {
    let small = encode(&mlp(&MlpConfig {
        input: 8,
        hidden: 8,
        layers: 1,
        ..Default::default()
    }));
    let big = encode(&mlp(&MlpConfig {
        input: 64,
        hidden: 256,
        layers: 4,
        ..Default::default()
    }));
    assert!(big.len() > 10 * small.len());
}
