//! Memory-planner experiment: what did the instruction tape and arena
//! actually buy?
//!
//! Three execution paths over the same graph, same feeds:
//!
//! * **interpreter** — the reference interpreter (`Graph::eval`): fresh
//!   buffer per value, per run;
//! * **tape** — the memory-planned instruction tape (`execute`): slots
//!   allocated once per run, reused across values within the run;
//! * **tape+arena** — the tape writing into a persistent [`TapeArena`]
//!   (`execute_with_arena`): the serve path, steady-state allocations
//!   near zero.
//!
//! Reported per model: mean wall time per inference and *exact*
//! heap-allocation calls per inference (counted by
//! [`crate::alloc_count`]), plus the plan's peak-bytes accounting.

use std::time::Instant;

use duet_compiler::{Compiler, TapeArena};
use duet_models::{
    input_feeds, mlp, mtdnn, siamese, wide_and_deep, MlpConfig, MtDnnConfig, SiameseConfig,
    WideAndDeepConfig,
};
use serde_json::json;

use crate::count_allocs;
use crate::output::Table;

const WARMUP: usize = 2;
const RUNS: u32 = 10;

/// A labelled execution path over one compiled subgraph.
type PathRunner<'a> = (&'a str, Box<dyn FnMut() + 'a>);

pub fn memory_plan() -> serde_json::Value {
    println!("== Ext. 8: memory-planned tape vs interpreter ==\n");
    let mut t = Table::new(&[
        "model",
        "path",
        "mean us/inf",
        "allocs/inf",
        "planned KB",
        "naive KB",
    ]);
    let mut out = Vec::new();
    for graph in [
        // Batch-1 MLP: the serve steady state, where the arena drives
        // per-inference allocations to single digits. The big models'
        // counts are dominated by the parallel kernels' chunk
        // bookkeeping and by ops outside the in-place dispatch set.
        mlp(&MlpConfig::default()),
        wide_and_deep(&WideAndDeepConfig::default()),
        siamese(&SiameseConfig::default()),
        mtdnn(&MtDnnConfig::default()),
    ] {
        let sg = Compiler::default().compile_whole(&graph, graph.name.clone());
        let env = input_feeds(&graph, 7);
        let plan = &sg.tape.plan;
        let planned_kb = plan.planned_peak_bytes as f64 / 1024.0;
        let naive_kb = plan.naive_peak_bytes as f64 / 1024.0;

        let mut arena = TapeArena::for_tape(&sg.tape);
        let mut paths: Vec<PathRunner> = vec![
            ("interpreter", {
                let (graph, env) = (&graph, &env);
                Box::new(move || {
                    graph.eval(env).unwrap();
                })
            }),
            ("tape", {
                let (sg, env) = (&sg, &env);
                Box::new(move || {
                    sg.execute(env).unwrap();
                })
            }),
            ("tape+arena", {
                let (sg, env, arena) = (&sg, &env, &mut arena);
                Box::new(move || {
                    sg.execute_with_arena(env, arena).unwrap();
                })
            }),
        ];

        for (label, run) in &mut paths {
            for _ in 0..WARMUP {
                run();
            }
            let start = Instant::now();
            let (allocs, ()) = count_allocs(|| {
                for _ in 0..RUNS {
                    run();
                }
            });
            let mean_us = start.elapsed().as_secs_f64() * 1e6 / f64::from(RUNS);
            let allocs_per_run = allocs as f64 / f64::from(RUNS);
            t.row(vec![
                graph.name.clone(),
                (*label).to_string(),
                format!("{mean_us:.1}"),
                format!("{allocs_per_run:.1}"),
                format!("{planned_kb:.1}"),
                format!("{naive_kb:.1}"),
            ]);
            out.push(json!({
                "model": graph.name,
                "path": *label,
                "mean_us_per_inference": mean_us,
                "allocs_per_inference": allocs_per_run,
                "planned_peak_bytes": plan.planned_peak_bytes,
                "naive_peak_bytes": plan.naive_peak_bytes,
                "in_place_ops": plan.in_place_ops,
                "reused_slots": plan.reused_slots,
            }));
        }
    }
    println!("{t}");
    println!("the tape removes per-value HashMap churn; the arena removes the");
    println!("remaining per-run slot allocations — the serve path's steady state\n");
    json!(out)
}
