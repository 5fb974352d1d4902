//! # duet-frameworks
//!
//! The "existing DL framework" baseline (PyTorch / TensorFlow stand-in)
//! used throughout the paper's evaluation (Fig. 11).
//!
//! The paper attributes the frameworks' inefficiency to two properties
//! (§III-A): **Operators-in-Sequence scheduling** — one operator at a
//! time, the next starting only when the previous finishes — and the
//! absence of graph-level compiler optimization. This baseline has
//! exactly those two properties and nothing else different:
//!
//! * the graph is executed **unfused and unoptimized**
//!   ([`duet_compiler::CompileOptions::none`]), so every operator is its
//!   own kernel with its own memory round-trip;
//! * every operator dispatch pays a **framework overhead** on top of the
//!   device's raw kernel-launch cost (Python/C++ dispatch, shape checks,
//!   allocator traffic) — modeled by inflating the device's per-kernel
//!   launch overhead;
//! * execution is single-device.
//!
//! Numerics still run on the real host kernels, so framework outputs can
//! be checked against every other execution path.

use std::collections::HashMap;

use duet_compiler::{CompileOptions, Compiler};
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, GraphError, NodeId};
use duet_runtime::{measure_stats, simulate, LatencyStats, Placed, SimNoise};
use duet_tensor::Tensor;

/// A DL-framework execution baseline.
#[derive(Debug, Clone)]
pub struct Framework {
    /// Display name ("PyTorch", "TensorFlow").
    pub name: String,
    /// Per-operator dispatch overhead added on top of the device's raw
    /// kernel-launch cost, microseconds.
    pub dispatch_overhead_us: f64,
}

impl Framework {
    /// PyTorch-like eager dispatch (~20 us per op at batch 1).
    pub fn pytorch() -> Self {
        Framework {
            name: "PyTorch".into(),
            dispatch_overhead_us: 20.0,
        }
    }

    /// TensorFlow-like session dispatch (~25 us per op).
    pub fn tensorflow() -> Self {
        Framework {
            name: "TensorFlow".into(),
            dispatch_overhead_us: 25.0,
        }
    }

    /// System model as this framework experiences it: same silicon, but
    /// every kernel launch carries the framework's dispatch overhead.
    pub fn effective_system(&self, system: &SystemModel) -> SystemModel {
        let mut sys = system.clone();
        sys.cpu.kernel_launch_us += self.dispatch_overhead_us;
        sys.gpu.kernel_launch_us += self.dispatch_overhead_us;
        sys
    }

    /// The unfused, unoptimized single-subgraph schedule on one device.
    pub fn plan(&self, graph: &Graph, device: DeviceKind) -> Vec<Placed> {
        let compiler = Compiler::new(CompileOptions::none());
        vec![Placed {
            sg: compiler.compile_whole(graph, graph.name.clone()).into(),
            device,
        }]
    }

    /// Noise-free end-to-end latency on one device, microseconds.
    pub fn latency_us(&self, graph: &Graph, device: DeviceKind, system: &SystemModel) -> f64 {
        let sys = self.effective_system(system);
        simulate(
            graph,
            &self.plan(graph, device),
            &sys,
            &mut SimNoise::disabled(),
        )
        .latency_us
    }

    /// Repeated noisy measurement (Fig. 11/12 methodology).
    pub fn measure(
        &self,
        graph: &Graph,
        device: DeviceKind,
        system: &SystemModel,
        runs: usize,
        seed: u64,
    ) -> LatencyStats {
        let sys = self.effective_system(system);
        measure_stats(graph, &self.plan(graph, device), &sys, runs, seed)
    }

    /// Numerically execute one inference (operators in sequence).
    pub fn run(
        &self,
        graph: &Graph,
        feeds: &HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        let plan = self.plan(graph, DeviceKind::Cpu);
        plan[0].sg.execute(feeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_models::{input_feeds, mlp, wide_and_deep, MlpConfig, WideAndDeepConfig};

    #[test]
    fn framework_slower_than_compiled_on_same_device() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let sys = SystemModel::paper_server();
        let compiler = Compiler::default();
        let tvm_like = vec![Placed {
            sg: compiler.compile_whole(&g, "tvm").into(),
            device: DeviceKind::Gpu,
        }];
        let tvm_gpu = simulate(&g, &tvm_like, &sys, &mut SimNoise::disabled()).latency_us;
        let pt_gpu = Framework::pytorch().latency_us(&g, DeviceKind::Gpu, &sys);
        assert!(
            pt_gpu > 1.3 * tvm_gpu,
            "framework {pt_gpu} should trail compiled {tvm_gpu}"
        );
    }

    #[test]
    fn dispatch_overhead_ordering() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let pt = Framework::pytorch().latency_us(&g, DeviceKind::Cpu, &sys);
        let tf = Framework::tensorflow().latency_us(&g, DeviceKind::Cpu, &sys);
        assert!(tf > pt, "heavier dispatch means slower: {tf} > {pt}");
    }

    #[test]
    fn numerics_match_reference() {
        let g = wide_and_deep(&WideAndDeepConfig::small());
        let feeds = input_feeds(&g, 4);
        let fw = Framework::pytorch().run(&g, &feeds).unwrap();
        let want = g.eval(&feeds).unwrap();
        assert!(fw[&g.outputs()[0]].approx_eq(&want[0], 1e-6));
    }

    #[test]
    fn framework_plan_is_unfused_single_device() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let fw = Framework::pytorch();
        let plan = fw.plan(&g, DeviceKind::Gpu);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].device, DeviceKind::Gpu);
        // One kernel per operator: no fusion.
        assert_eq!(plan[0].sg.kernel_count(), g.compute_ids().len());
    }

    #[test]
    fn effective_system_inflates_both_devices() {
        let sys = SystemModel::paper_server();
        let eff = Framework::pytorch().effective_system(&sys);
        assert!(eff.cpu.kernel_launch_us > sys.cpu.kernel_launch_us);
        assert!(eff.gpu.kernel_launch_us > sys.gpu.kernel_launch_us);
        // Silicon itself unchanged.
        assert_eq!(eff.gpu.peak_gflops, sys.gpu.peak_gflops);
    }

    #[test]
    fn framework_gap_grows_with_op_count() {
        // Deeper models pay more dispatch overhead relative to compiled
        // execution — the agility argument for DL compilers (§II-B).
        let sys = SystemModel::paper_server();
        let gap = |layers: usize| {
            let g = mlp(&MlpConfig {
                layers,
                hidden: 64,
                input: 64,
                ..Default::default()
            });
            let fw = Framework::pytorch().latency_us(&g, DeviceKind::Gpu, &sys);
            let compiled = {
                let c = Compiler::default();
                let placed = vec![Placed {
                    sg: c.compile_whole(&g, "t").into(),
                    device: DeviceKind::Gpu,
                }];
                simulate(&g, &placed, &sys, &mut SimNoise::disabled()).latency_us
            };
            fw / compiled
        };
        assert!(gap(8) >= gap(1));
    }

    #[test]
    fn measure_produces_tail_stats() {
        let g = mlp(&MlpConfig::default());
        let sys = SystemModel::paper_server();
        let stats = Framework::pytorch().measure(&g, DeviceKind::Cpu, &sys, 200, 1);
        assert!(stats.p99() >= stats.p50());
    }
}
