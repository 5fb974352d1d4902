//! Roofline-with-occupancy device models.

use duet_ir::CostProfile;
use serde::{Deserialize, Serialize};

use crate::transfer::TransferModel;

/// Which side of the coupled architecture a device (or a placement) is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    Cpu,
    Gpu,
}

impl DeviceKind {
    /// The opposite device.
    pub fn other(self) -> DeviceKind {
        match self {
            DeviceKind::Cpu => DeviceKind::Gpu,
            DeviceKind::Gpu => DeviceKind::Cpu,
        }
    }

    /// Both devices, CPU first.
    pub fn both() -> [DeviceKind; 2] {
        [DeviceKind::Cpu, DeviceKind::Gpu]
    }
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "CPU"),
            DeviceKind::Gpu => write!(f, "GPU"),
        }
    }
}

/// Analytic execution-time model of one device.
///
/// Estimated time for a kernel sequence with cost profile `c`:
///
/// ```text
/// t = launches·launch_overhead + max(flops / (peak·occ(par)), bytes / bw)
/// occ(par) = clamp(par / (par + saturation_parallelism), min_eff, 1)
/// ```
///
/// The occupancy curve is the crux: a Titan V needs ~10^5 independent work
/// items to approach peak, so a `[1x256]` LSTM gate GEMM runs at a fraction
/// of a percent of peak while a ResNet conv with 10^5-10^6 output pixels
/// runs near it. Constants below were calibrated against the paper's
/// Table II (see `tests::calibration_*`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceModel {
    pub kind: DeviceKind,
    pub name: String,
    /// Peak fp32 throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Fixed cost of dispatching one kernel, microseconds.
    pub kernel_launch_us: f64,
    /// Work items at which occupancy reaches 50%.
    pub saturation_parallelism: f64,
    /// Occupancy floor (a single warp/core still makes progress).
    pub min_efficiency: f64,
    /// How many subgraphs the device may execute concurrently. The paper
    /// executes one subgraph per device (footnote 2) — `1` here — and
    /// names intra-device concurrency as a possible improvement; lanes >1
    /// model that extension.
    #[serde(default = "default_lanes")]
    pub lanes: usize,
    /// Per-lane throughput factor when `lanes > 1` (concurrent subgraphs
    /// share caches, memory bandwidth and cores; a static discount keeps
    /// the model conservative).
    #[serde(default = "default_lane_efficiency")]
    pub lane_efficiency: f64,
}

fn default_lanes() -> usize {
    1
}

fn default_lane_efficiency() -> f64 {
    1.0
}

impl DeviceModel {
    /// Calibrated stand-in for the paper's Intel Xeon Gold 6152 (22 cores,
    /// AVX-512). Low launch overhead, saturates at modest parallelism.
    pub fn xeon_gold_6152() -> Self {
        DeviceModel {
            kind: DeviceKind::Cpu,
            name: "Xeon-Gold-6152 (model)".into(),
            peak_gflops: 260.0,
            mem_bw_gbps: 100.0,
            kernel_launch_us: 0.3,
            saturation_parallelism: 1650.0,
            min_efficiency: 0.02,
            lanes: 1,
            lane_efficiency: 1.0,
        }
    }

    /// Calibrated stand-in for the paper's NVIDIA Titan V. Enormous peak,
    /// high launch overhead, needs huge parallelism to occupy.
    pub fn titan_v() -> Self {
        DeviceModel {
            kind: DeviceKind::Gpu,
            name: "Titan-V (model)".into(),
            peak_gflops: 14_900.0,
            mem_bw_gbps: 651.0,
            kernel_launch_us: 6.0,
            saturation_parallelism: 194_000.0,
            min_efficiency: 0.0005,
            lanes: 1,
            lane_efficiency: 1.0,
        }
    }

    /// Occupancy (0..=1) for a given per-kernel parallelism.
    pub fn occupancy(&self, parallelism: f64) -> f64 {
        let p = parallelism.max(1.0);
        (p / (p + self.saturation_parallelism)).clamp(self.min_efficiency, 1.0)
    }

    /// Enable intra-device concurrency: `lanes` concurrent subgraphs,
    /// each running at `efficiency` of full speed (footnote-2 extension).
    pub fn with_lanes(mut self, lanes: usize, efficiency: f64) -> Self {
        assert!(lanes >= 1, "at least one lane");
        assert!((0.0..=1.0).contains(&efficiency) && efficiency > 0.0);
        self.lanes = lanes;
        self.lane_efficiency = efficiency;
        self
    }

    /// Throughput discount applied to every execution when the device
    /// runs multiple concurrent lanes.
    pub fn lane_penalty(&self) -> f64 {
        if self.lanes > 1 {
            1.0 / self.lane_efficiency
        } else {
            1.0
        }
    }

    /// Estimated execution time of a kernel sequence, microseconds.
    pub fn exec_time_us(&self, cost: &CostProfile) -> f64 {
        let occ = self.occupancy(cost.parallelism);
        let compute_us = cost.flops / (self.peak_gflops * 1e3 * occ);
        let memory_us = (cost.bytes_in + cost.bytes_out) / (self.mem_bw_gbps * 1e3);
        cost.kernel_launches * self.kernel_launch_us + compute_us.max(memory_us)
    }
}

/// The whole coupled system: one CPU, one GPU, one interconnect.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemModel {
    pub cpu: DeviceModel,
    pub gpu: DeviceModel,
    pub transfer: TransferModel,
}

impl SystemModel {
    /// The paper's evaluation server: Xeon Gold 6152 + Titan V + PCIe 3.0.
    pub fn paper_server() -> Self {
        SystemModel {
            cpu: DeviceModel::xeon_gold_6152(),
            gpu: DeviceModel::titan_v(),
            transfer: TransferModel::pcie3(),
        }
    }

    /// The same silicon behind a PCIe 4.0 x16 link (twice the bandwidth,
    /// slightly lower setup latency) — an interconnect-sensitivity
    /// variant.
    pub fn pcie4_server() -> Self {
        SystemModel {
            cpu: DeviceModel::xeon_gold_6152(),
            gpu: DeviceModel::titan_v(),
            transfer: TransferModel {
                latency_us: 8.0,
                bandwidth_gbps: 24.0,
            },
        }
    }

    /// An integrated edge SoC (Jetson-class): weak 6-core CPU, a small
    /// GPU, and — crucially — a *shared* physical memory: CPU↔GPU
    /// "transfers" are pointer passes (sub-microsecond, no bandwidth
    /// term). On such systems the communication penalty that limits
    /// co-execution on PCIe servers nearly disappears.
    pub fn edge_soc() -> Self {
        SystemModel {
            cpu: DeviceModel {
                kind: DeviceKind::Cpu,
                name: "edge-6core (model)".into(),
                peak_gflops: 48.0,
                mem_bw_gbps: 40.0,
                kernel_launch_us: 0.4,
                saturation_parallelism: 700.0,
                min_efficiency: 0.02,
                lanes: 1,
                lane_efficiency: 1.0,
            },
            gpu: DeviceModel {
                kind: DeviceKind::Gpu,
                name: "edge-igpu (model)".into(),
                peak_gflops: 1_300.0,
                mem_bw_gbps: 40.0, // shares the LPDDR with the CPU
                kernel_launch_us: 9.0,
                saturation_parallelism: 24_000.0,
                min_efficiency: 0.002,
                lanes: 1,
                lane_efficiency: 1.0,
            },
            transfer: TransferModel {
                latency_us: 0.5,
                bandwidth_gbps: 10_000.0,
            },
        }
    }

    /// The model for one side.
    pub fn device(&self, kind: DeviceKind) -> &DeviceModel {
        match kind {
            DeviceKind::Cpu => &self.cpu,
            DeviceKind::Gpu => &self.gpu,
        }
    }

    /// Estimated time of a cost profile on a device, microseconds.
    pub fn exec_time_us(&self, kind: DeviceKind, cost: &CostProfile) -> f64 {
        self.device(kind).exec_time_us(cost)
    }

    /// Time to move `bytes` across the interconnect, microseconds.
    pub fn transfer_time_us(&self, bytes: f64) -> f64 {
        self.transfer.time_us(bytes)
    }
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::paper_server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// LSTM(input 128, hidden 256, seq 100, batch 1) cost profile, matching
    /// `Op::Lstm`'s accounting.
    fn lstm_cost() -> CostProfile {
        let per_step = 2.0 * 4.0 * 256.0 * (128.0 + 256.0);
        CostProfile {
            flops: 100.0 * per_step,
            bytes_in: (100.0 * 128.0 + 4.0 * 256.0 * 384.0) * 4.0,
            bytes_out: 100.0 * 256.0 * 4.0,
            parallelism: 256.0,
            kernel_launches: 400.0,
        }
    }

    /// ResNet-18-ish conv stack: 3.6 GFLOP, wide, ~30 launches.
    fn cnn_cost() -> CostProfile {
        CostProfile {
            flops: 3.6e9,
            bytes_in: 30e6,
            bytes_out: 20e6,
            parallelism: 800_000.0,
            kernel_launches: 30.0,
        }
    }

    #[test]
    fn calibration_rnn_cpu_beats_gpu() {
        let sys = SystemModel::paper_server();
        let cpu = sys.exec_time_us(DeviceKind::Cpu, &lstm_cost());
        let gpu = sys.exec_time_us(DeviceKind::Gpu, &lstm_cost());
        // Paper Table II (Wide&Deep): RNN 2.4 ms CPU vs 6.4 ms GPU.
        assert!(cpu < gpu, "cpu {cpu} vs gpu {gpu}");
        assert!((1_000.0..5_000.0).contains(&cpu), "cpu {cpu}us");
        assert!((4_000.0..12_000.0).contains(&gpu), "gpu {gpu}us");
        let ratio = gpu / cpu;
        assert!((1.5..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn calibration_cnn_gpu_beats_cpu_by_order_of_magnitude() {
        let sys = SystemModel::paper_server();
        let cpu = sys.exec_time_us(DeviceKind::Cpu, &cnn_cost());
        let gpu = sys.exec_time_us(DeviceKind::Gpu, &cnn_cost());
        // Paper Table II: CNN 14.9 ms CPU vs 0.9 ms GPU (≈16x).
        assert!((8_000.0..25_000.0).contains(&cpu), "cpu {cpu}us");
        assert!((300.0..2_000.0).contains(&gpu), "gpu {gpu}us");
        assert!(cpu / gpu > 8.0, "ratio {}", cpu / gpu);
    }

    #[test]
    fn occupancy_monotone_and_clamped() {
        let gpu = DeviceModel::titan_v();
        assert!(gpu.occupancy(10.0) <= gpu.occupancy(100.0));
        assert!(gpu.occupancy(1e12) <= 1.0);
        assert!(gpu.occupancy(0.0) >= gpu.min_efficiency);
    }

    #[test]
    fn exec_time_monotone_in_flops() {
        let cpu = DeviceModel::xeon_gold_6152();
        let base = CostProfile {
            flops: 1e6,
            parallelism: 1e4,
            ..CostProfile::zero()
        };
        let more = CostProfile { flops: 2e6, ..base };
        assert!(cpu.exec_time_us(&more) > cpu.exec_time_us(&base));
    }

    #[test]
    fn exec_time_includes_launch_overhead() {
        let gpu = DeviceModel::titan_v();
        let c = CostProfile {
            kernel_launches: 100.0,
            ..CostProfile::zero()
        };
        assert!((gpu.exec_time_us(&c) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_profile_uses_bandwidth_roof() {
        let cpu = DeviceModel::xeon_gold_6152();
        // 100 MB of traffic, trivial flops: time ≈ bytes / bw.
        let c = CostProfile {
            flops: 1.0,
            bytes_in: 50e6,
            bytes_out: 50e6,
            parallelism: 1e6,
            kernel_launches: 0.0,
        };
        let t = cpu.exec_time_us(&c);
        assert!((t - 1000.0).abs() < 1.0, "t {t}");
    }

    #[test]
    fn batch_scaling_shrinks_gpu_gap() {
        // Fig. 17 mechanism: batch multiplies parallelism and flops; the
        // GPU's relative advantage must grow with batch.
        let sys = SystemModel::paper_server();
        let at_batch = |b: f64| {
            let c = CostProfile {
                flops: 1e8 * b,
                bytes_in: 1e6 * b,
                bytes_out: 1e6 * b,
                parallelism: 4096.0 * b,
                kernel_launches: 10.0,
            };
            sys.exec_time_us(DeviceKind::Cpu, &c) / sys.exec_time_us(DeviceKind::Gpu, &c)
        };
        assert!(at_batch(32.0) > at_batch(1.0));
    }

    #[test]
    fn device_kind_other_is_involution() {
        assert_eq!(DeviceKind::Cpu.other(), DeviceKind::Gpu);
        assert_eq!(DeviceKind::Gpu.other().other(), DeviceKind::Gpu);
    }
}
