//! `duet-analysis`: the D2xx plan linter, the D5xx model checker and the
//! D6xx dataflow analyzer, as a checked build runs them. They move
//! `plan_offline` latency and nothing else: release builds of the other
//! workloads' engines are unchecked.

use duet_analysis::{check_dataflow, lint_plan, LintConfig, ModelCheckConfig};
use duet_compiler::CompileOptions;
use duet_core::Duet;

use super::{Probe, Readings};

pub fn probe(p: &Probe) -> Readings {
    let graph = p.wd.graph();
    let dataflow_ms = p.time_ms("analysis.dataflow", || {
        check_dataflow(graph);
    });
    let facts = p.wd.export_plan().to_facts();
    let lint_plan_ms = p.time_ms("analysis.lint_plan", || {
        lint_plan(graph, &facts, &LintConfig::default());
    });
    let cfg = ModelCheckConfig::default();
    let model_check_ms = p.time_ms("analysis.model_check", || {
        p.wd.check_plan(&cfg);
    });
    let states = p.wd.check_plan(&cfg).stats.states;
    let checked_ms = p.time_ms("analysis.checked_build", || {
        Duet::builder()
            .compile_options(CompileOptions::checked())
            .build(&p.wd_model)
            .expect("builds, checked");
    });
    let unchecked_ms = p.time_ms("analysis.unchecked_build", || {
        Duet::builder()
            .compile_options(CompileOptions::full().with_check(false))
            .build(&p.wd_model)
            .expect("builds");
    });
    vec![
        ("analysis.dataflow_ms", dataflow_ms),
        ("analysis.lint_plan_ms", lint_plan_ms),
        ("analysis.model_check_ms", model_check_ms),
        ("analysis.model_check_states", states as f64),
        ("analysis.checked_build_extra_ms", checked_ms - unchecked_ms),
    ]
}
