//! The compiler-aware profiler (§IV-B).
//!
//! Framework profilers measure unoptimized per-operator execution;
//! hardware profilers (nvprof, VTune) measure kernels that do not map back
//! to subgraphs. DUET instead builds a micro-benchmark per *compiled*
//! subgraph and runs it end-to-end on each device, recording execution
//! time and I/O sizes. Profiling happens offline, once.
//!
//! In this reproduction "running on a device" means sampling the device
//! model with per-run noise — the same noise the simulator applies at
//! schedule time — so profiled statistics and scheduled reality line up
//! exactly the way they do for the paper's system.

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, NoiseModel, SystemModel};
use duet_ir::Graph;

use crate::stats::LatencyStats;

/// Profiled statistics of one compiled subgraph.
#[derive(Debug, Clone)]
pub struct SubgraphProfile {
    pub name: String,
    /// Mean execution time on the CPU, microseconds.
    pub cpu_time_us: f64,
    /// Mean execution time on the GPU, microseconds.
    pub gpu_time_us: f64,
    /// Full per-device sample statistics.
    pub cpu_stats: LatencyStats,
    pub gpu_stats: LatencyStats,
    /// Boundary input payload (what would cross PCIe inbound).
    pub input_bytes: f64,
    /// Boundary output payload.
    pub output_bytes: f64,
    /// Kernel launches after fusion.
    pub kernel_count: usize,
}

impl SubgraphProfile {
    /// The faster device for this subgraph.
    pub fn best_device(&self) -> DeviceKind {
        if self.cpu_time_us <= self.gpu_time_us {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        }
    }

    /// Mean time on a given device.
    pub fn time_on(&self, device: DeviceKind) -> f64 {
        match device {
            DeviceKind::Cpu => self.cpu_time_us,
            DeviceKind::Gpu => self.gpu_time_us,
        }
    }

    /// `min(cpu, gpu)` — the subgraph's cost in the scheduler's
    /// critical-path step.
    pub fn best_time(&self) -> f64 {
        self.cpu_time_us.min(self.gpu_time_us)
    }
}

/// Offline profiler for compiled subgraphs.
#[derive(Debug, Clone)]
pub struct Profiler {
    system: SystemModel,
    /// Micro-benchmark repetitions per device. The paper finds "a fixed,
    /// small number of profiling runs (e.g., 500)" statistically stable.
    runs: usize,
    /// Leading samples discarded as warm-up.
    warmup: usize,
}

/// Seed of the profiling noise (mixed with a per-subgraph tag).
const NOISE_SEED: u64 = 0xbe9c;

impl Profiler {
    /// Profiler with the paper's defaults: 500 runs, 50 warm-up, on the
    /// paper's server model.
    pub fn new(system: SystemModel) -> Self {
        Profiler {
            system,
            runs: 500,
            warmup: 50,
        }
    }

    /// Override the run count (min 1 measured run enforced).
    pub fn with_runs(mut self, runs: usize, warmup: usize) -> Self {
        assert!(runs > warmup, "need at least one measured run");
        self.runs = runs;
        self.warmup = warmup;
        self
    }

    /// The system model being profiled against.
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// Micro-benchmark one compiled subgraph on both devices.
    pub fn profile(&self, graph: &Graph, sg: &CompiledSubgraph) -> SubgraphProfile {
        use duet_telemetry::registry as tm;
        let span_start = duet_telemetry::clock_us();
        let run_device = |device: DeviceKind, seed: u64| -> LatencyStats {
            let base = crate::sim::subgraph_exec_time_us(&self.system, device, sg);
            let mut noise = NoiseModel::new(seed);
            let samples: Vec<f64> = (0..self.runs)
                .map(|_| noise.sample(base))
                .skip(self.warmup)
                .collect();
            match device {
                DeviceKind::Cpu => tm::PROFILE_SAMPLES_CPU.add(samples.len() as u64),
                DeviceKind::Gpu => tm::PROFILE_SAMPLES_GPU.add(samples.len() as u64),
            }
            LatencyStats::from_samples(samples)
        };
        // Distinct noise streams per (subgraph, device).
        let tag = sg
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
        let cpu_stats = run_device(DeviceKind::Cpu, NOISE_SEED ^ tag);
        let gpu_stats = run_device(DeviceKind::Gpu, NOISE_SEED ^ tag ^ 0xffff);
        tm::PROFILE_SUBGRAPHS.inc();
        duet_telemetry::record_span(
            duet_telemetry::SpanKind::ProfileSubgraph,
            tag % 1024,
            span_start,
            duet_telemetry::clock_us() - span_start,
            cpu_stats.mean(),
            gpu_stats.mean(),
        );
        SubgraphProfile {
            name: sg.name.clone(),
            cpu_time_us: cpu_stats.mean(),
            gpu_time_us: gpu_stats.mean(),
            cpu_stats,
            gpu_stats,
            input_bytes: sg.input_bytes(graph),
            output_bytes: sg.output_bytes(graph),
            kernel_count: sg.kernel_count(),
        }
    }

    /// Profile a list of subgraphs.
    pub fn profile_all(&self, graph: &Graph, sgs: &[CompiledSubgraph]) -> Vec<SubgraphProfile> {
        sgs.iter().map(|sg| self.profile(graph, sg)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_models::{siamese, wide_and_deep, SiameseConfig, WideAndDeepConfig};

    fn profile_whole(graph: &Graph) -> SubgraphProfile {
        let c = Compiler::default();
        let sg = c.compile_whole(graph, graph.name.clone());
        Profiler::new(SystemModel::paper_server()).profile(graph, &sg)
    }

    #[test]
    fn rnn_model_prefers_cpu() {
        let g = siamese(&SiameseConfig::default());
        let p = profile_whole(&g);
        assert_eq!(p.best_device(), DeviceKind::Cpu);
    }

    #[test]
    fn wide_and_deep_whole_model_prefers_gpu() {
        // The CNN dominates whole-model time, so single-device best is GPU
        // (paper Fig. 4: GPU takes less total time than CPU).
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let p = profile_whole(&g);
        assert_eq!(p.best_device(), DeviceKind::Gpu);
    }

    #[test]
    fn profile_is_deterministic_per_seed() {
        let g = siamese(&SiameseConfig::small());
        let c = Compiler::default();
        let sg = c.compile_whole(&g, "s");
        let prof = Profiler::new(SystemModel::paper_server());
        let a = prof.profile(&g, &sg);
        let b = prof.profile(&g, &sg);
        assert_eq!(a.cpu_time_us, b.cpu_time_us);
        assert_eq!(a.gpu_time_us, b.gpu_time_us);
    }

    #[test]
    fn warmup_excluded_from_count() {
        let g = siamese(&SiameseConfig::small());
        let c = Compiler::default();
        let sg = c.compile_whole(&g, "s");
        let prof = Profiler::new(SystemModel::paper_server()).with_runs(100, 20);
        let p = prof.profile(&g, &sg);
        assert_eq!(p.cpu_stats.count(), 80);
    }

    #[test]
    fn io_bytes_recorded() {
        let g = siamese(&SiameseConfig::small());
        let c = Compiler::default();
        let sg = c.compile_whole(&g, "s");
        let p = Profiler::new(SystemModel::paper_server()).profile(&g, &sg);
        // Two [4,1,8] inputs -> 2*128 bytes; one [1,1] output -> 4 bytes.
        assert_eq!(p.input_bytes, 256.0);
        assert_eq!(p.output_bytes, 4.0);
    }

    #[test]
    #[should_panic(expected = "at least one measured run")]
    fn bad_run_config_panics() {
        Profiler::new(SystemModel::paper_server()).with_runs(10, 10);
    }
}
