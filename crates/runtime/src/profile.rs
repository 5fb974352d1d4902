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
//! exactly the way they do for the paper's system. A run's noise draw
//! depends only on the subgraph's name, so "once" is literal: each seed's
//! draw sequence is made once per process and every later profile of that
//! subgraph (plan replay, `recorrect`, a drift replan) reads it again.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, NoiseModel, SystemModel};
use duet_ir::Graph;

/// Profiled statistics of one compiled subgraph.
#[derive(Debug, Clone)]
pub struct SubgraphProfile {
    pub name: String,
    /// Mean execution time on the CPU, microseconds.
    pub cpu_time_us: f64,
    /// Mean execution time on the GPU, microseconds.
    pub gpu_time_us: f64,
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

/// Hash of a subgraph name: the per-subgraph half of its noise seeds.
fn name_tag(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64))
}

/// Distinct noise streams per (subgraph, device).
fn noise_seed(tag: u64, device: DeviceKind) -> u64 {
    match device {
        DeviceKind::Cpu => NOISE_SEED ^ tag,
        DeviceKind::Gpu => NOISE_SEED ^ tag ^ 0xffff,
    }
}

/// The first `runs` multipliers of `NoiseModel::new(seed)`, drawn once per
/// process. A longer request redraws the stream from the seed and replaces
/// the entry; the new draws extend the old ones, so a shorter request reads
/// the same values either way.
fn multipliers(seed: u64, runs: usize) -> Arc<[f64]> {
    static DRAWS: Mutex<BTreeMap<u64, Arc<[f64]>>> = Mutex::new(BTreeMap::new());
    // The map is never left half-updated, so a poisoned lock is still sound.
    let mut draws = DRAWS.lock().unwrap_or_else(PoisonError::into_inner);
    let entry = draws.entry(seed).or_default();
    if entry.len() < runs {
        let mut noise = NoiseModel::new(seed);
        *entry = (0..runs).map(|_| noise.multiplier()).collect();
    }
    entry.clone()
}

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
        // Mean of the runs after warm-up: run `i` takes `base · m[i]`.
        let run_device = |device: DeviceKind, seed: u64| -> f64 {
            let base = crate::sim::subgraph_exec_time_us(&self.system, device, sg);
            let measured = &multipliers(seed, self.runs)[self.warmup..self.runs];
            match device {
                DeviceKind::Cpu => tm::PROFILE_SAMPLES_CPU.add(measured.len() as u64),
                DeviceKind::Gpu => tm::PROFILE_SAMPLES_GPU.add(measured.len() as u64),
            }
            measured.iter().map(|m| base * m).sum::<f64>() / measured.len() as f64
        };
        let tag = name_tag(&sg.name);
        let cpu_time_us = run_device(DeviceKind::Cpu, noise_seed(tag, DeviceKind::Cpu));
        let gpu_time_us = run_device(DeviceKind::Gpu, noise_seed(tag, DeviceKind::Gpu));
        tm::PROFILE_SUBGRAPHS.inc();
        duet_telemetry::record_span(
            duet_telemetry::SpanKind::ProfileSubgraph,
            tag % 1024,
            span_start,
            duet_telemetry::clock_us() - span_start,
            cpu_time_us,
            gpu_time_us,
        );
        SubgraphProfile {
            name: sg.name.clone(),
            cpu_time_us,
            gpu_time_us,
            input_bytes: sg.input_bytes(graph),
            output_bytes: sg.output_bytes(graph),
            kernel_count: sg.kernel_count(),
        }
    }

    /// Profile a list of subgraphs.
    pub fn profile_all(
        &self,
        graph: &Graph,
        sgs: &[Arc<CompiledSubgraph>],
    ) -> Vec<SubgraphProfile> {
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

    /// A profile mean computed without the memo: a fresh noise stream,
    /// `runs` samples, warm-up skipped, summed in order.
    fn fresh_mean(sg: &CompiledSubgraph, device: DeviceKind, runs: usize, warmup: usize) -> f64 {
        let base = crate::sim::subgraph_exec_time_us(&SystemModel::paper_server(), device, sg);
        let mut noise = NoiseModel::new(noise_seed(name_tag(&sg.name), device));
        let samples: Vec<f64> = (0..runs).map(|_| noise.sample(base)).skip(warmup).collect();
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    /// Profiles `sg` at each (runs, warmup) in turn and requires every
    /// mean to equal the memo-free one bit for bit.
    fn assert_profiles_match_fresh_draws(name: &str) {
        let g = siamese(&SiameseConfig::small());
        let sg = Compiler::default().compile_whole(&g, name);
        // The last two are shorter than the stored 1000 draws.
        for (runs, warmup) in [(100, 10), (500, 50), (1000, 100), (60, 10), (100, 10)] {
            let prof = Profiler::new(SystemModel::paper_server()).with_runs(runs, warmup);
            let p = prof.profile(&g, &sg);
            for (device, got) in [
                (DeviceKind::Cpu, p.cpu_time_us),
                (DeviceKind::Gpu, p.gpu_time_us),
            ] {
                let want = fresh_mean(&sg, device, runs, warmup);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{device} at ({runs}, {warmup})"
                );
            }
        }
    }

    #[test]
    fn memoized_draws_give_the_fresh_means_bit_for_bit() {
        assert_profiles_match_fresh_draws("memo-serial");
    }

    #[test]
    fn memoized_draws_are_shared_safely_between_threads() {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| assert_profiles_match_fresh_draws("memo-threads"));
            }
        });
    }

    #[test]
    fn warmup_runs_are_excluded_from_the_mean() {
        let g = siamese(&SiameseConfig::small());
        let sg = Compiler::default().compile_whole(&g, "memo-warmup");
        let profile = |runs, warmup| {
            let prof = Profiler::new(SystemModel::paper_server()).with_runs(runs, warmup);
            prof.profile(&g, &sg).cpu_time_us
        };
        let with_warmup = profile(100, 20);
        assert_eq!(
            with_warmup.to_bits(),
            fresh_mean(&sg, DeviceKind::Cpu, 100, 20).to_bits()
        );
        assert_ne!(with_warmup, profile(100, 0));
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
