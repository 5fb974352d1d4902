//! `duet-compiler`: graph passes, lowering, and the compiled tapes.
//!
//! `subgraph_sum_us` moves `infer_heavy` latency (it is the compute the
//! executor schedules); the planned/naive bytes move `peak_rss_mb`;
//! `optimize_ms`/`compile_ms` move `plan_offline` latency and every
//! `setup_s`.

use std::collections::HashMap;

use duet_compiler::{CompileOptions, Compiler, TapeArena};
use duet_core::{partition, Duet};
use duet_device::DeviceKind;
use duet_ir::NodeId;
use duet_tensor::Tensor;

use super::{Probe, Readings};

/// Serial, warm-arena execution times of an engine's subgraphs.
pub struct SubgraphTimes {
    /// Σ over subgraphs, µs.
    pub sum_us: f64,
    /// The same sum split by the device lane each subgraph is placed on.
    pub cpu_lane_us: f64,
    pub gpu_lane_us: f64,
}

/// Time `CompiledSubgraph::execute_with_arena` over `duet`'s schedule in
/// plan order, one subgraph at a time, each in its own warm arena.
pub fn subgraph_times(
    p: &Probe,
    duet: &Duet,
    feeds: &HashMap<NodeId, Tensor>,
    span: &'static str,
) -> SubgraphTimes {
    let placed = duet.placed();
    let mut arenas: Vec<TapeArena> = placed
        .iter()
        .map(|pl| TapeArena::for_tape(&pl.sg.tape))
        .collect();
    // Boundary values each subgraph reads, produced by one serial pass.
    let mut env = feeds.clone();
    for (pl, arena) in placed.iter().zip(&mut arenas) {
        let out = pl
            .sg
            .execute_with_arena(&env, arena)
            .expect("subgraph executes");
        env.extend(out);
    }
    let mut times = SubgraphTimes {
        sum_us: 0.0,
        cpu_lane_us: 0.0,
        gpu_lane_us: 0.0,
    };
    for (pl, arena) in placed.iter().zip(&mut arenas) {
        let us = p.time_us(span, || {
            pl.sg
                .execute_with_arena(&env, arena)
                .expect("subgraph executes");
        });
        times.sum_us += us;
        match pl.device {
            DeviceKind::Cpu => times.cpu_lane_us += us,
            DeviceKind::Gpu => times.gpu_lane_us += us,
        }
    }
    times
}

pub fn probe(p: &Probe, wd_subgraphs: &SubgraphTimes) -> Readings {
    let compiler = Compiler::new(CompileOptions::full());
    let optimize_ms = p.time_ms("compiler.optimize", || {
        compiler.optimize(&p.wd_model).expect("optimizes");
    });
    let (optimized, _) = compiler.optimize(&p.wd_model).expect("optimizes");
    let part = partition(&optimized);
    let compile_ms = p.time_ms("compiler.compile", || {
        part.compile(&optimized, &compiler);
    });

    let plans = || p.wd.placed().iter().map(|pl| &pl.sg.tape.plan);
    // Steady state: the first run stocks the pool, the next two should
    // be served from it entirely.
    p.wd.run(&p.wd_feeds).expect("wide_and_deep runs");
    let before = p.wd.arena_stats();
    for _ in 0..2 {
        p.wd.run(&p.wd_feeds).expect("wide_and_deep runs");
    }
    let after = p.wd.arena_stats();
    let (created, reused) = (
        (after.created - before.created) as f64,
        (after.reused - before.reused) as f64,
    );
    vec![
        ("compiler.subgraph_sum_us", wd_subgraphs.sum_us),
        ("compiler.optimize_ms", optimize_ms),
        ("compiler.compile_ms", compile_ms),
        (
            "compiler.fused_epilogues",
            plans().map(|m| m.fused_epilogues).sum::<usize>() as f64,
        ),
        (
            "compiler.peak_planned_bytes",
            plans().map(|m| m.planned_peak_bytes).sum::<usize>() as f64,
        ),
        (
            "compiler.peak_naive_bytes",
            plans().map(|m| m.naive_peak_bytes).sum::<usize>() as f64,
        ),
        ("compiler.arena_reuse_share", reused / (created + reused)),
    ]
}
