//! # duet-bench
//!
//! The evaluation harness: one module per table/figure of the paper
//! (§VI), each regenerating the artifact's rows/series from this
//! reproduction's stack, plus shared table/JSON output utilities.
//!
//! Run everything with
//! `cargo run --release -p duet-bench --bin duet-experiments -- all`,
//! or a single artifact with e.g. `... -- fig11`. Text tables go to
//! stdout; machine-readable copies land in `results/<id>.json`.

pub mod alloc_count;
pub mod experiments;
pub mod output;

pub use alloc_count::{allocations, count_allocs};
pub use output::Table;

use duet_compiler::Compiler;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::Graph;
use duet_runtime::{measure_latency, measure_stats, LatencyStats, Placed};

/// Noise-free latency of TVM-style (fully compiled, whole-graph fused)
/// single-device execution — the paper's strongest baseline.
pub fn tvm_latency_us(graph: &Graph, device: DeviceKind, system: &SystemModel) -> f64 {
    let placed = tvm_plan(graph, device);
    measure_latency(graph, &placed, system)
}

/// The TVM-style single-device plan.
pub fn tvm_plan(graph: &Graph, device: DeviceKind) -> Vec<Placed> {
    let compiler = Compiler::default();
    vec![Placed {
        sg: compiler.compile_whole(graph, graph.name.clone()).into(),
        device,
    }]
}

/// Noisy repeated measurement of the TVM-style plan.
pub fn tvm_stats(
    graph: &Graph,
    device: DeviceKind,
    system: &SystemModel,
    runs: usize,
    seed: u64,
) -> LatencyStats {
    measure_stats(graph, &tvm_plan(graph, device), system, runs, seed)
}

/// Milliseconds, for display.
pub fn ms(us: f64) -> f64 {
    us / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::{mlp, MlpConfig};

    #[test]
    fn tvm_latency_positive_and_device_dependent() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let cpu = tvm_latency_us(&g, DeviceKind::Cpu, &sys);
        let gpu = tvm_latency_us(&g, DeviceKind::Gpu, &sys);
        assert!(cpu > 0.0 && gpu > 0.0);
        assert_ne!(cpu, gpu);
    }
}
