//! Virtual-clock simulation of a placed schedule: the `Vec<Placed>`
//! front end of the timing core.
//!
//! The event semantics, the noise draw order and the one list-scheduling
//! loop live in [`crate::timeline`]. This module holds the types a caller
//! with a finished placement works with — [`Placed`], [`SimNoise`],
//! [`SimResult`] — and [`simulate`] and [`simulate_witnessed`], which
//! build a [`Timeline`] for the placement, replay it once and turn what
//! the replay observed into timeline entries and a transfer-byte total —
//! and, when witnessed, hand the replay to the same [`WitnessLog`]
//! observer the threaded executor reports to.
//!
//! Code that prices *many* placements of the same subgraphs (the
//! scheduler, the tuner, the engine) builds the [`Timeline`] once and
//! calls [`Timeline::makespan`] instead.

use std::cell::RefCell;
use std::sync::Arc;

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, NoiseModel, SystemModel};
use duet_ir::Graph;

use crate::timeline::{Noise, Observer, Schedule, Timeline};
use crate::witness::{ExecutionWitness, WitnessLog, WitnessSource};

/// A subgraph with its device assignment.
#[derive(Debug, Clone)]
pub struct Placed {
    /// Shared with every engine and schedule that places the same
    /// compiled subgraph: a placement changes devices, not code.
    pub sg: Arc<CompiledSubgraph>,
    pub device: DeviceKind,
}

/// Execution time of a compiled subgraph on one device: the sum of its
/// fused kernels' times, each priced individually.
///
/// Summing per kernel (not pricing one merged profile) matters: a merged
/// profile FLOPs-averages parallelism, which would let a wide convolution
/// mask the low occupancy of the launch-bound LSTM kernels sharing the
/// subgraph — exactly the distinction the paper's per-subgraph profiling
/// exists to expose.
pub fn subgraph_exec_time_us(
    system: &SystemModel,
    device: DeviceKind,
    sg: &CompiledSubgraph,
) -> f64 {
    sg.kernels
        .iter()
        .map(|k| system.exec_time_us(device, &k.cost))
        .sum()
}

/// One executed subgraph in the simulated timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    pub name: String,
    pub device: DeviceKind,
    pub start_us: f64,
    pub end_us: f64,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// End-to-end latency: all graph outputs resident on the host.
    pub latency_us: f64,
    /// Per-subgraph execution intervals (Fig. 4-style timeline).
    pub timeline: Vec<TimelineEntry>,
    /// Total bytes moved across the interconnect.
    pub transferred_bytes: f64,
}

/// Per-run noise sources for the simulator.
#[derive(Debug, Clone)]
pub struct SimNoise {
    pub compute: NoiseModel,
    pub transfer: NoiseModel,
}

impl SimNoise {
    /// Deterministic (noise-free) simulation.
    pub fn disabled() -> Self {
        SimNoise {
            compute: NoiseModel::disabled(),
            transfer: NoiseModel::disabled(),
        }
    }

    /// Seeded realistic noise (compute jitter + PCIe contention spikes).
    pub fn seeded(seed: u64) -> Self {
        SimNoise {
            compute: NoiseModel::new(seed),
            transfer: NoiseModel::interconnect(seed ^ 0xfeed),
        }
    }
}

impl Noise for SimNoise {
    const ACTIVE: bool = true;
    fn transfer_multiplier(&mut self) -> f64 {
        self.transfer.multiplier()
    }
    fn compute_sample(&mut self, time_us: f64) -> f64 {
        self.compute.sample(time_us)
    }
}

/// The [`Timeline`] of a finished placement and its device vector.
///
/// # Panics
/// Panics if `placed` does not cover the producer of a boundary input or
/// of a graph output — direct callers hand over whole schedules (the
/// `duet-analysis` plan linter checks one up front); the engine uses the
/// fallible [`Timeline::new`].
pub(crate) fn placed_timeline(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
) -> (Timeline, Vec<DeviceKind>) {
    let timeline = Timeline::new(graph, placed.iter().map(|p| &*p.sg), system)
        .unwrap_or_else(|e| panic!("schedule does not cover the graph: {e}"));
    (timeline, placed.iter().map(|p| p.device).collect())
}

/// Simulate a placed schedule. Panics if a boundary input's producer is
/// not covered by `placed` — schedules must cover the whole graph.
pub fn simulate(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
) -> SimResult {
    replay_observed(graph, placed, system, noise, ()).0
}

/// [`simulate`] with its witness (events in dispatch order) sealed next
/// to the result.
///
/// Witnesses are meant for conformance checking, which models noise-free
/// clocks; pass [`SimNoise::disabled`] when the witness will be checked.
pub fn simulate_witnessed(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
) -> (SimResult, ExecutionWitness) {
    let (result, log) = replay_observed(graph, placed, system, noise, WitnessLog::default());
    let witness = log.seal(&graph.name, WitnessSource::Simulator, result.latency_us);
    (result, witness)
}

/// One replay of the placement's timeline, reported to `observer` as well
/// as to the [`Schedule`] the result is read from.
fn replay_observed<O: Observer>(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    noise: &mut SimNoise,
    observer: O,
) -> (SimResult, O) {
    let (timeline, devices) = placed_timeline(graph, placed, system);
    let observed = (RefCell::new(Schedule::default()), observer);
    let latency_us = timeline.replay(&devices, noise, &observed);
    let (schedule, observer) = observed;
    let schedule = schedule.into_inner();
    let entry = |&(i, [start_us, end_us]): &(usize, [f64; 2])| TimelineEntry {
        name: placed[i].sg.name.clone(),
        device: devices[i],
        start_us,
        end_us,
    };
    let result = SimResult {
        latency_us,
        timeline: schedule.dispatches.iter().map(entry).collect(),
        transferred_bytes: schedule.transferred_bytes,
    };
    (result, observer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_ir::{GraphBuilder, Op};

    /// Two independent dense branches joined by a concat head. The
    /// branches are wide enough (tens of microseconds) that cross-device
    /// overlap is visible past the ~10 us H2D transfer.
    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 2048]);
        let l = b.dense("left", x, 4096, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 4096, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 8, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn three_way_split(g: &Graph) -> Vec<CompiledSubgraph> {
        let c = Compiler::default();
        let ids = g.compute_ids();
        // left = {1st dense+act}, right = {2nd dense+act}, head = rest.
        let left: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| g.node(i).label.starts_with("left"))
            .collect();
        let right: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| g.node(i).label.starts_with("right"))
            .collect();
        let head: Vec<_> = ids
            .iter()
            .copied()
            .filter(|&i| {
                !g.node(i).label.starts_with("left") && !g.node(i).label.starts_with("right")
            })
            .collect();
        vec![
            c.compile_nodes(g, &left, "left"),
            c.compile_nodes(g, &right, "right"),
            c.compile_nodes(g, &head, "head"),
        ]
    }

    #[test]
    fn single_device_latency_is_sum_of_subgraphs() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone().into(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
        let sum: f64 = sgs
            .iter()
            .map(|s| subgraph_exec_time_us(&sys, DeviceKind::Cpu, s))
            .sum();
        assert!((r.latency_us - sum).abs() < 1e-9);
        assert_eq!(r.transferred_bytes, 0.0);
    }

    #[test]
    fn parallel_branches_overlap_across_devices() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let both_cpu: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone().into(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let mut split = both_cpu.clone();
        split[1].device = DeviceKind::Gpu;
        let seq = simulate(&g, &both_cpu, &sys, &mut SimNoise::disabled());
        let par = simulate(&g, &split, &sys, &mut SimNoise::disabled());
        // The branch subgraphs overlap in time in the split schedule.
        let l = par.timeline.iter().find(|t| t.name == "left").unwrap();
        let r = par.timeline.iter().find(|t| t.name == "right").unwrap();
        assert!(
            l.start_us < r.end_us && r.start_us < l.end_us,
            "branches overlap"
        );
        // And transfers were paid.
        assert!(par.transferred_bytes > 0.0);
        let _ = seq;
    }

    #[test]
    fn dependencies_are_respected() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        for devices in [
            [DeviceKind::Cpu, DeviceKind::Gpu, DeviceKind::Cpu],
            [DeviceKind::Gpu, DeviceKind::Gpu, DeviceKind::Gpu],
            [DeviceKind::Gpu, DeviceKind::Cpu, DeviceKind::Gpu],
        ] {
            let placed: Vec<Placed> = sgs
                .iter()
                .zip(devices)
                .map(|(sg, device)| Placed {
                    sg: sg.clone().into(),
                    device,
                })
                .collect();
            let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
            let head = r.timeline.iter().find(|t| t.name == "head").unwrap();
            for branch in ["left", "right"] {
                let b = r.timeline.iter().find(|t| t.name == branch).unwrap();
                assert!(
                    b.end_us <= head.start_us,
                    "{branch} finishes before head starts"
                );
            }
        }
    }

    #[test]
    fn gpu_placement_pays_host_transfers() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let c = Compiler::default();
        let whole = c.compile_whole(&g, "whole");
        let gpu = simulate(
            &g,
            &[Placed {
                sg: whole.clone().into(),
                device: DeviceKind::Gpu,
            }],
            &sys,
            &mut SimNoise::disabled(),
        );
        let exec = subgraph_exec_time_us(&sys, DeviceKind::Gpu, &whole);
        // H2D for x + D2H for output.
        assert!(gpu.latency_us > exec, "{} > {}", gpu.latency_us, exec);
        assert!(gpu.transferred_bytes > 0.0);
    }

    #[test]
    fn noise_disabled_is_deterministic() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone().into(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let a = simulate(&g, &placed, &sys, &mut SimNoise::disabled()).latency_us;
        let b = simulate(&g, &placed, &sys, &mut SimNoise::disabled()).latency_us;
        assert_eq!(a, b);
    }

    #[test]
    fn noisy_latency_at_least_spreads() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .map(|sg| Placed {
                sg: sg.clone().into(),
                device: DeviceKind::Cpu,
            })
            .collect();
        let mut noise = SimNoise::seeded(1);
        let samples: Vec<f64> = (0..50)
            .map(|_| simulate(&g, &placed, &sys, &mut noise).latency_us)
            .collect();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(max > min);
    }

    #[test]
    fn latency_bounded_by_critical_path_and_serial_sum() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = three_way_split(&g);
        let placed: Vec<Placed> = sgs
            .iter()
            .enumerate()
            .map(|(i, sg)| Placed {
                sg: sg.clone().into(),
                device: if i == 1 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
            })
            .collect();
        let r = simulate(&g, &placed, &sys, &mut SimNoise::disabled());
        let times: Vec<f64> = placed
            .iter()
            .map(|p| subgraph_exec_time_us(&sys, p.device, &p.sg))
            .collect();
        // Lower bound: the longest single chain (left->head here).
        let lower = times[0].max(times[1]) + times[2];
        // Upper bound: serial sum plus all transfers ever paid.
        let upper: f64 = times.iter().sum::<f64>()
            + r.transferred_bytes / (sys.transfer.bandwidth_gbps * 1e3)
            + 10.0 * sys.transfer.latency_us;
        assert!(r.latency_us >= lower - 1e-9, "{} >= {lower}", r.latency_us);
        assert!(r.latency_us <= upper, "{} <= {upper}", r.latency_us);
    }
}
