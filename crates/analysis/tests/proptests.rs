//! Property tests: every builder-generated model verifies clean, and
//! stays clean through the optimization pipeline under every combination
//! of passes — with pass-invariant checking forced on, so a pass that
//! broke an invariant would fail here first.

use duet_analysis::{check_optimize, verify_graph};
use duet_compiler::CompileOptions;
use duet_ir::Graph;
use duet_models::{
    mlp, mtdnn, siamese, wide_and_deep, zoo_model, MlpConfig, MtDnnConfig, SiameseConfig,
    WideAndDeepConfig,
};
use proptest::prelude::*;

const ZOO: &[&str] = &[
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "vgg16",
    "squeezenet",
    "mobilenet",
];

/// Cheap builder-generated models for the randomized runs.
fn small_model(sel: usize) -> Graph {
    match sel % 4 {
        0 => wide_and_deep(&WideAndDeepConfig::small()),
        1 => siamese(&SiameseConfig::small()),
        2 => mtdnn(&MtDnnConfig::small()),
        _ => mlp(&MlpConfig::default()),
    }
}

/// Verify `graph` is error-free before and after optimizing with `options`.
fn assert_clean_through_pipeline(graph: &Graph, options: CompileOptions) {
    let pre = verify_graph(graph);
    assert!(
        !pre.has_errors(),
        "{} verifies dirty before passes:\n{pre}",
        graph.name
    );

    let (optimized, passes) = check_optimize(graph, options);
    assert!(
        !passes.has_errors(),
        "{} broke a pass invariant:\n{passes}",
        graph.name
    );
    let (optimized, _stats) = optimized.expect("pipeline completed");

    let post = verify_graph(&optimized);
    assert!(
        !post.has_errors(),
        "{} verifies dirty after passes:\n{post}",
        graph.name
    );
}

proptest! {
    /// Any small builder model, any subset of passes: the graph verifier
    /// must be clean on both sides of the pipeline and no pass may break
    /// an invariant.
    #[test]
    fn small_models_verify_clean_under_any_pass_subset(
        sel in any::<prop::sample::Index>(),
        fold in any::<bool>(),
        cse in any::<bool>(),
        dce in any::<bool>(),
        fusion in any::<bool>(),
    ) {
        let graph = small_model(sel.index(4));
        let options = CompileOptions {
            fold_constants: fold,
            cse,
            dce,
            fusion,
            check: true,
        };
        assert_clean_through_pipeline(&graph, options);
    }
}

/// Deterministic sweep: every full-size zoo model verifies clean before
/// and after the complete pipeline (the same property `duet lint all`
/// enforces from the CLI).
#[test]
fn zoo_models_verify_clean_through_full_pipeline() {
    for name in ZOO {
        let graph = zoo_model(name).expect("known zoo model");
        assert_clean_through_pipeline(&graph, CompileOptions::checked());
    }
}
