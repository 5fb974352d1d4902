//! Latency measurement harnesses over the timing core.

use duet_device::SystemModel;
use duet_ir::Graph;

use crate::sim::{placed_timeline, Placed, SimNoise};
use crate::stats::LatencyStats;

/// Noise-free end-to-end latency of a placed schedule, microseconds.
/// This is the `measure_latency` oracle of Algorithm 1, for callers
/// holding one finished placement; panics like [`crate::simulate`] on a
/// schedule that does not cover the graph.
pub fn measure_latency(graph: &Graph, placed: &[Placed], system: &SystemModel) -> f64 {
    let (timeline, devices) = placed_timeline(graph, placed, system);
    timeline.makespan(&devices)
}

/// Repeated noisy measurement, as the paper's 5000-run evaluation does
/// (warm-up excluded — the noise model has no warm-up transient, so the
/// first samples are already representative; we still drop 2% to mirror
/// the methodology).
pub fn measure_stats(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    runs: usize,
    seed: u64,
) -> LatencyStats {
    assert!(runs >= 50, "need enough runs for tail percentiles");
    let warmup = runs / 50;
    let (timeline, devices) = placed_timeline(graph, placed, system);
    let mut noise = SimNoise::seeded(seed);
    let samples: Vec<f64> = (0..runs)
        .map(|_| timeline.replay(&devices, &mut noise, &mut ()))
        .skip(warmup)
        .collect();
    LatencyStats::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use duet_compiler::Compiler;
    use duet_device::DeviceKind;
    use duet_models::{mlp, MlpConfig};

    fn whole(graph: &Graph, device: DeviceKind) -> Vec<Placed> {
        let sg = Compiler::default().compile_whole(graph, graph.name.clone());
        vec![Placed { sg, device }]
    }

    #[test]
    fn measure_latency_matches_sim() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let p = whole(&g, DeviceKind::Cpu);
        let a = measure_latency(&g, &p, &sys);
        let b = simulate(&g, &p, &sys, &mut SimNoise::disabled()).latency_us;
        assert_eq!(a, b);
    }

    #[test]
    fn stats_center_on_noise_free_latency() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let p = whole(&g, DeviceKind::Cpu);
        let clean = measure_latency(&g, &p, &sys);
        let stats = measure_stats(&g, &p, &sys, 2000, 3);
        assert!((stats.p50() - clean).abs() / clean < 0.05);
        assert!(stats.p999() >= stats.p99());
        assert!(stats.p99() >= stats.p50());
    }

    #[test]
    #[should_panic(expected = "enough runs")]
    fn too_few_runs_rejected() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let p = whole(&g, DeviceKind::Cpu);
        measure_stats(&g, &p, &sys, 10, 1);
    }
}
