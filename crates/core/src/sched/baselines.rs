//! Baseline scheduling policies (§VI-C, Fig. 13).

use duet_device::{DeviceKind, SystemModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use duet_runtime::{LatencyStats, SubgraphProfile, Timeline};

use super::{greedy, SubgraphUnit};

/// Random device per subgraph, seeded.
pub fn random(units: &[SubgraphUnit], seed: u64) -> Vec<DeviceKind> {
    let mut rng = SmallRng::seed_from_u64(seed);
    units
        .iter()
        .map(|_| {
            if rng.gen_bool(0.5) {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            }
        })
        .collect()
}

/// Alternate CPU / GPU by subgraph index.
pub fn round_robin(units: &[SubgraphUnit]) -> Vec<DeviceKind> {
    (0..units.len())
        .map(|i| {
            if i % 2 == 0 {
                DeviceKind::Cpu
            } else {
                DeviceKind::Gpu
            }
        })
        .collect()
}

/// The §III-A ablation: schedule from a FLOPs-only latency proxy instead
/// of compiler-aware profiles ("FLOPs is often an inaccurate proxy").
/// `time ∝ flops / peak_flops` ignores occupancy, kernel-launch overhead
/// and memory traffic — under it the GPU appears faster for *every*
/// subgraph (its peak is ~57x the CPU's), so launch-bound RNNs get
/// mis-placed onto the GPU.
pub fn flops_proxy(units: &[SubgraphUnit], system: &SystemModel) -> Vec<DeviceKind> {
    let fake_units: Vec<SubgraphUnit> = units
        .iter()
        .map(|u| {
            let t = |peak_gflops: f64| (u.sg.cost.flops / (peak_gflops * 1e3)).max(1e-3);
            let cpu = t(system.cpu.peak_gflops);
            let gpu = t(system.gpu.peak_gflops);
            SubgraphUnit {
                profile: SubgraphProfile {
                    cpu_time_us: cpu,
                    gpu_time_us: gpu,
                    cpu_stats: LatencyStats::from_samples(vec![cpu]),
                    gpu_stats: LatencyStats::from_samples(vec![gpu]),
                    ..u.profile.clone()
                },
                ..u.clone()
            }
        })
        .collect();
    greedy::greedy_placement(&fake_units)
}

/// Exhaustive search over every placement. Finding the optimal schedule
/// is NP-hard; this brute force exists to validate greedy-correction on
/// small subgraph counts, exactly as the paper does ("we enumerate all
/// possible schedules … to find the exact optimal schedule (Ideal)").
///
/// # Panics
/// Panics above 20 subgraphs (2^20 replays is the sensible limit).
pub fn ideal(timeline: &Timeline) -> Vec<DeviceKind> {
    let n = timeline.len();
    assert!(n <= 20, "ideal enumeration infeasible for {n} subgraphs");
    let placement = |mask: u32| -> Vec<DeviceKind> {
        (0..n)
            .map(|i| DeviceKind::both()[(mask >> i & 1) as usize])
            .collect()
    };
    // Strict `<` keeps the lowest mask among equals.
    let best = (0u32..1 << n)
        .map(|mask| (timeline.makespan(&placement(mask)), mask))
        .reduce(|best, cand| if cand.0 < best.0 { cand } else { best })
        .expect("at least one placement");
    placement(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::sched::make_units;
    use duet_compiler::Compiler;
    use duet_ir::Graph;
    use duet_models::{siamese, SiameseConfig};
    use duet_runtime::Profiler;

    fn units_for(graph: &Graph) -> Vec<SubgraphUnit> {
        let part = partition(graph);
        let compiler = Compiler::default();
        let sgs = part.compile(graph, &compiler);
        let profiler = Profiler::new(SystemModel::paper_server());
        let profiles = profiler.profile_all(graph, &sgs);
        make_units(&part, sgs, profiles)
    }

    fn timeline_for(graph: &Graph, units: &[SubgraphUnit]) -> Timeline {
        let sys = SystemModel::paper_server();
        Timeline::new(graph, units.iter().map(|u| &u.sg), &sys).unwrap()
    }

    #[test]
    fn random_is_seeded_and_varied() {
        let g = siamese(&SiameseConfig::default());
        let units = units_for(&g);
        assert_eq!(random(&units, 7), random(&units, 7));
        let draws: Vec<Vec<DeviceKind>> = (0..32).map(|s| random(&units, s)).collect();
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn round_robin_alternates() {
        let g = siamese(&SiameseConfig::default());
        let units = units_for(&g);
        let rr = round_robin(&units);
        assert_eq!(rr[0], DeviceKind::Cpu);
        if rr.len() > 1 {
            assert_eq!(rr[1], DeviceKind::Gpu);
        }
    }

    #[test]
    fn flops_proxy_misplaces_launch_bound_work() {
        // On Siamese the proxy sends both LSTM towers to the GPU (higher
        // peak FLOPs) even though profiling shows the CPU is faster.
        let g = siamese(&SiameseConfig::default());
        let sys = SystemModel::paper_server();
        let units = units_for(&g);
        let proxy = flops_proxy(&units, &sys);
        for (u, d) in units.iter().zip(&proxy) {
            if u.sg.name.starts_with("query") || u.sg.name.starts_with("passage") {
                assert_eq!(*d, DeviceKind::Gpu, "proxy prefers GPU everywhere");
            }
        }
        // And that placement is measurably worse than profile-driven.
        let tl = timeline_for(&g, &units);
        let t_proxy = tl.makespan(&proxy);
        let t_prof = tl.makespan(&crate::sched::greedy::greedy_placement(&units));
        assert!(t_prof < t_proxy, "profiled {t_prof} beats proxy {t_proxy}");
    }

    #[test]
    fn ideal_at_least_matches_every_baseline() {
        let g = siamese(&SiameseConfig::default());
        let units = units_for(&g);
        let tl = timeline_for(&g, &units);
        let t_ideal = tl.makespan(&ideal(&tl));
        for devices in [
            random(&units, 1),
            random(&units, 2),
            round_robin(&units),
            vec![DeviceKind::Cpu; units.len()],
            vec![DeviceKind::Gpu; units.len()],
        ] {
            let t = tl.makespan(&devices);
            assert!(t_ideal <= t + 1e-9, "ideal {t_ideal} <= {t}");
        }
    }
}
