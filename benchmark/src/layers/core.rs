//! `duet-core`: partitioning, Algorithm 1 and the engine builds.
//!
//! All of these move `plan_offline` latency (the per-operator build is
//! its slowest single stage, so also its tail) and the serve workloads'
//! `setup_s`.

use duet_compiler::{CompileOptions, Compiler};
use duet_core::{partition, Duet, Granularity};
use duet_serve::loadgen::degraded_gpu;

use super::{Probe, Readings};

pub fn probe(p: &Probe) -> Readings {
    let (optimized, _) = Compiler::new(CompileOptions::full())
        .optimize(&p.wd_model)
        .expect("optimizes");
    let partition_ms = p.time_ms("core.partition", || {
        partition(&optimized);
    });
    let build_ms = p.time_ms("core.build", || {
        Duet::builder().build(&p.wd_model).expect("builds");
    });
    let plan = p.wd.export_plan();
    let build_with_plan_ms = p.time_ms("core.build_with_plan", || {
        Duet::builder()
            .build_with_plan(&p.wd_model, &plan)
            .expect("replays");
    });
    let degraded = degraded_gpu(p.wd.system());
    let recorrect_ms = p.time_ms("core.recorrect", || {
        p.wd.recorrect(degraded.clone());
    });
    let per_operator_build_ms = p.time_ms("core.per_operator_build", || {
        Duet::builder()
            .granularity(Granularity::PerOperator)
            .build(&p.resnet18)
            .expect("builds");
    });
    vec![
        ("core.partition_ms", partition_ms),
        ("core.build_ms", build_ms),
        ("core.build_with_plan_ms", build_with_plan_ms),
        ("core.recorrect_ms", recorrect_ms),
        ("core.per_operator_build_ms", per_operator_build_ms),
        ("core.subgraphs", p.wd.units().len() as f64),
    ]
}
