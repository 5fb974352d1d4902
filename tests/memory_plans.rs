//! The kernels DUET prices are the instructions the tape runs.
//!
//! `passes::fuse_groups` decides fusion once; every compiled subgraph's
//! tape emits one instruction per group and lists its priced kernels in
//! the tape's order, so kernel *k* is instruction *k*. The `D4xx` memory
//! checker holds that (`D400`) alongside the slot plan. These tests run
//! it over every subgraph the engine builds in the shapes the repository
//! uses: the paper-scale zoo (every candidate unit, not only the placed
//! ones), a per-operator partition, the unfused framework lowering and
//! the serving zoo at the batch sizes the plan cache builds. The placed
//! zoo and serving tapes must also have no standalone elementwise
//! instruction: only unfused lowerings copy an operand before an in-place
//! kernel.

use duet_analysis::{check_memory_plans, Report};
use duet_compiler::{CompileOptions, Compiler};
use duet_core::{Duet, Granularity};
use duet_ir::Op;
use duet_models::zoo_model;
use duet_serve::ModelSpec;

const ZOO: [&str; 8] = [
    "wide_and_deep",
    "siamese",
    "mtdnn",
    "resnet18",
    "resnet50",
    "vgg16",
    "squeezenet",
    "mobilenet",
];

fn assert_clean(what: &str, report: &Report) {
    assert!(report.is_clean(), "{what}: unexpected findings:\n{report}");
}

fn check_units(what: &str, engine: &Duet) {
    let sgs = engine.units().iter().map(|u| &*u.sg);
    assert_clean(what, &check_memory_plans(engine.graph(), sgs));
}

/// A standalone elementwise instruction copies its first operand into its
/// slot before the in-place kernel runs. With full compile options every
/// elementwise operator of a placed tape fuses into an anchor's epilogue
/// instead, so the tapes a run executes never pay that copy. (A candidate
/// unit may still begin at one: resnet18's `cnn#3@p2` starts at a residual
/// add whose producers sit in other units.)
fn assert_no_standalone_elementwise(what: &str, engine: &Duet) {
    for p in engine.placed() {
        for instr in &p.sg.tape.instrs {
            assert!(
                !instr.op.is_fusable_elementwise() && !matches!(instr.op, Op::BatchNorm2d),
                "{what}: {} runs {} as a standalone instruction",
                p.sg.name,
                instr.op.name()
            );
        }
    }
}

#[test]
fn every_zoo_unit_prices_the_instructions_it_runs() {
    for name in ZOO {
        let engine = Duet::builder()
            .build(&zoo_model(name).expect("zoo model"))
            .expect("zoo engine builds");
        check_units(name, &engine);
        assert_no_standalone_elementwise(name, &engine);
    }
}

#[test]
fn per_operator_and_unfused_lowerings_price_what_they_run() {
    let resnet18 = zoo_model("resnet18").expect("zoo model");
    let per_op = Duet::builder()
        .granularity(Granularity::PerOperator)
        .build(&resnet18)
        .expect("per-operator engine builds");
    check_units("resnet18 per-operator", &per_op);

    let unfused = Compiler::new(CompileOptions::none());
    for name in ZOO {
        let model = zoo_model(name).expect("zoo model");
        let (graph, _) = unfused.optimize(&model).expect("optimize");
        let sg = unfused.compile_whole(&graph, name);
        assert_eq!(
            sg.tape.instrs.len(),
            sg.node_ids.len(),
            "{name}: the unfused lowering runs one instruction per operator"
        );
        assert_clean(name, &check_memory_plans(&graph, [&sg]));
    }
}

#[test]
fn serving_zoo_prices_what_it_runs_at_every_batch() {
    for name in ["wide_deep", "mlp", "siamese"] {
        let spec = ModelSpec::serving_zoo(name).expect("serving model");
        for batch in [1, 2, 4] {
            let engine = Duet::builder()
                .build(&spec.graph_at(batch))
                .expect("serving engine builds");
            check_units(&format!("{name}@{batch}"), &engine);
            assert_no_standalone_elementwise(&format!("{name}@{batch}"), &engine);
        }
    }
}
