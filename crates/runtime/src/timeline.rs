//! The one timing core: a precomputed [`Timeline`] and its replay.
//!
//! Every plan-time price in the workspace — Algorithm 1's correction
//! loop, the exhaustive `Ideal` baseline, engine builds and plan replay,
//! `recorrect`, the autotuner's oracle, the D503 occupancy bound, the
//! noisy 5000-run measurements and the witnessed simulator — is the same
//! list-scheduling replay over the same tables. Only the device vector,
//! the noise source and the observer differ.
//!
//! A `Timeline` separates what is **structural** (a property of the
//! graph and its subgraphs, built once by [`Timeline::new`]) from what is
//! **priced** (a property of the [`SystemModel`], refreshed by
//! [`Timeline::reprice`] without touching the structure):
//!
//! | structural | priced |
//! |---|---|
//! | dense boundary-dependency table (consumer → producer subgraph, or host input) | per-edge transfer time |
//! | per-edge payload bytes | per-output D2H time |
//! | graph-output table (producing subgraph, bytes) | `n × 2` execution table |
//! | per-kernel cost profiles | lanes and lane-sharing penalty per device |
//!
//! # Event semantics
//!
//! [`Timeline::replay`] plays out the execution the paper's engine
//! (Fig. 9) performs:
//!
//! * each device runs its subgraphs **sequentially** per lane (footnote
//!   2: one lane per device on the paper's server), always dispatching
//!   the ready subgraph with the earliest feasible start, ties to the
//!   lower index;
//! * a subgraph is ready when all producer subgraphs have finished, plus
//!   PCIe transfer time for every value that crosses devices (graph
//!   inputs are host-resident: free for the CPU, one H2D transfer for the
//!   GPU);
//! * a subgraph dispatched while another lane of its device is still
//!   busy runs stretched by the lane-sharing penalty;
//! * every graph output produced on the GPU pays one D2H transfer.
//!
//! # Noise draw order
//!
//! Noise is sampled at dispatch, never while scanning candidates, so the
//! stream stays aligned with execution order: per dispatched subgraph one
//! **transfer multiplier** (only if any payload crossed devices), then
//! one **compute sample**; after the last dispatch one transfer
//! multiplier per GPU-resident graph output, in output order. The tail
//! percentiles of Fig. 12 are a function of this order; the golden
//! fixture (`tests/golden.rs`) pins it.

use std::sync::Arc;

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::{CostProfile, Graph, NodeId, Op};

use crate::validate::ScheduleError;

/// One boundary dependency of a subgraph.
#[derive(Debug, Clone, Copy)]
pub struct Dep {
    /// The value read.
    pub node: NodeId,
    /// Producing subgraph, or `None` for a host-resident graph input.
    pub producer: Option<usize>,
    /// Payload size.
    pub bytes: f64,
    /// Transfer time if this edge crosses the device boundary, µs.
    pub transfer_us: f64,
}

impl Dep {
    /// Whether the edge moves data over the interconnect when its
    /// consumer runs on `consumer` under `devices`.
    pub fn crosses(&self, devices: &[DeviceKind], consumer: DeviceKind) -> bool {
        match self.producer {
            None => consumer == DeviceKind::Gpu,
            Some(p) => devices[p] != consumer,
        }
    }

    /// Transfer time this edge costs its consumer: `transfer_us` if it
    /// crosses, else nothing.
    pub fn paid_us(&self, devices: &[DeviceKind], consumer: DeviceKind) -> f64 {
        if self.crosses(devices, consumer) {
            self.transfer_us
        } else {
            0.0
        }
    }
}

/// One graph output produced by a subgraph.
#[derive(Debug, Clone, Copy)]
pub struct OutputEdge {
    pub node: NodeId,
    pub producer: usize,
    pub bytes: f64,
    /// D2H transfer time if produced on the GPU, µs.
    pub d2h_us: f64,
}

/// Per-run perturbation of the replay. See the module docs for the
/// order in which the replay draws.
pub trait Noise {
    /// `false` lets the replay skip the bookkeeping that only decides
    /// whether a draw happens.
    const ACTIVE: bool;
    /// Multiplier on a transfer-bound readiness or D2H time.
    fn transfer_multiplier(&mut self) -> f64;
    /// Perturbed execution time.
    fn compute_sample(&mut self, time_us: f64) -> f64;
}

/// The noise-free replay (every multiplier exactly 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoNoise;

impl Noise for NoNoise {
    const ACTIVE: bool = false;
    fn transfer_multiplier(&mut self) -> f64 {
        1.0
    }
    fn compute_sample(&mut self, time_us: f64) -> f64 {
        time_us
    }
}

/// What a replay reports besides its makespan. The unit observer `()`
/// records nothing and compiles to nothing.
pub trait Observer {
    /// Subgraph `sg` was dispatched and ran over `[start_us, end_us]`.
    fn executed(&mut self, _sg: usize, _start_us: f64, _end_us: f64) {}
    /// A GPU-resident graph output was copied back to the host.
    fn output_landed(&mut self, _output: &OutputEdge) {}
}

impl Observer for () {}

/// A reusable, allocation-light evaluator of placements over one fixed
/// set of compiled subgraphs. See the module docs.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Boundary dependencies of every subgraph, flattened;
    /// `deps[dep_start[i]..dep_start[i + 1]]` belong to subgraph `i`.
    deps: Vec<Dep>,
    /// Never written after [`Timeline::new`], like `kernel_costs`: clones
    /// (one per executor) share both.
    dep_start: Arc<[usize]>,
    outputs: Vec<OutputEdge>,
    /// Per-subgraph fused-kernel costs, kept so [`Timeline::reprice`]
    /// needs nothing but the new system model.
    kernel_costs: Arc<[Vec<CostProfile>]>,
    /// Execution time per (subgraph, device), µs.
    exec_us: Vec<[f64; 2]>,
    /// Execution lanes per device (paper engines run 1).
    lanes: [usize; 2],
    /// Lane-sharing contention penalty per device.
    lane_penalty: [f64; 2],
}

impl Timeline {
    /// Build the structure for `subgraphs` of `graph` and price it under
    /// `system` with the analytic device model.
    ///
    /// Fails, instead of panicking later, when the subgraphs do not
    /// cover the producer of a boundary value or of a graph output.
    pub fn new<'a>(
        graph: &Graph,
        subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
        system: &SystemModel,
    ) -> Result<Self, ScheduleError> {
        let subgraphs: Vec<&CompiledSubgraph> = subgraphs.into_iter().collect();
        let mut producer: Vec<Option<usize>> = vec![None; graph.len()];
        for (i, sg) in subgraphs.iter().enumerate() {
            for &id in &sg.node_ids {
                *producer.get_mut(id).ok_or(ScheduleError::UnknownNode(id))? = Some(i);
            }
        }
        let produced_by = |id: NodeId| match producer.get(id) {
            None => Err(ScheduleError::UnknownNode(id)),
            Some(None) => Err(ScheduleError::Uncovered(id)),
            Some(&Some(p)) => Ok(p),
        };
        let mut deps = Vec::new();
        let mut dep_start = Vec::with_capacity(subgraphs.len() + 1);
        for sg in &subgraphs {
            dep_start.push(deps.len());
            for &src in &sg.inputs {
                let node = graph
                    .nodes()
                    .get(src)
                    .ok_or(ScheduleError::UnknownNode(src))?;
                deps.push(Dep {
                    node: src,
                    producer: match node.op {
                        Op::Input => None,
                        _ => Some(produced_by(src)?),
                    },
                    bytes: node.shape.byte_size() as f64,
                    transfer_us: 0.0,
                });
            }
        }
        dep_start.push(deps.len());
        let mut outputs = Vec::with_capacity(graph.outputs().len());
        for &out in graph.outputs() {
            // A source that is itself an output is already on the host.
            if matches!(graph.node(out).op, Op::Input | Op::Constant) {
                continue;
            }
            outputs.push(OutputEdge {
                node: out,
                producer: produced_by(out).map_err(|_| ScheduleError::MissingOutput(out))?,
                bytes: graph.node(out).shape.byte_size() as f64,
                d2h_us: 0.0,
            });
        }
        let mut timeline = Timeline {
            deps,
            dep_start: dep_start.into(),
            outputs,
            kernel_costs: subgraphs
                .iter()
                .map(|sg| sg.kernels.iter().map(|k| k.cost).collect())
                .collect(),
            exec_us: vec![[0.0; 2]; subgraphs.len()],
            lanes: [1; 2],
            lane_penalty: [1.0; 2],
        };
        timeline.reprice(system);
        Ok(timeline)
    }

    /// Re-price every table under `system` (analytic execution times,
    /// transfer times, lanes), keeping the structure.
    pub fn reprice(&mut self, system: &SystemModel) {
        for d in &mut self.deps {
            d.transfer_us = system.transfer_time_us(d.bytes);
        }
        for o in &mut self.outputs {
            o.d2h_us = system.transfer_time_us(o.bytes);
        }
        for (row, costs) in self.exec_us.iter_mut().zip(self.kernel_costs.iter()) {
            // Summed per kernel, as `subgraph_exec_time_us` does.
            *row = DeviceKind::both()
                .map(|device| costs.iter().map(|c| system.exec_time_us(device, c)).sum());
        }
        self.lanes = [system.cpu.lanes.max(1), system.gpu.lanes.max(1)];
        self.lane_penalty = [system.cpu.lane_penalty(), system.gpu.lane_penalty()];
    }

    /// Number of subgraphs a device vector must cover.
    pub fn len(&self) -> usize {
        self.exec_us.len()
    }

    /// True when the timeline covers no subgraphs.
    pub fn is_empty(&self) -> bool {
        self.exec_us.is_empty()
    }

    /// Execution time of subgraph `i` on `device`, µs.
    pub fn exec_time_us(&self, i: usize, device: DeviceKind) -> f64 {
        self.exec_us[i][device as usize]
    }

    /// Execution lanes of `device`.
    pub fn lanes(&self, device: DeviceKind) -> usize {
        self.lanes[device as usize]
    }

    /// Boundary dependencies of subgraph `i`.
    pub fn deps(&self, i: usize) -> &[Dep] {
        &self.deps[self.dep_start[i]..self.dep_start[i + 1]]
    }

    /// Graph outputs a subgraph produces, in graph-output order (outputs
    /// that name a source are host-resident and not listed).
    pub fn outputs(&self) -> &[OutputEdge] {
        &self.outputs
    }

    /// Noise-free end-to-end makespan of one placement, µs.
    pub fn makespan(&self, devices: &[DeviceKind]) -> f64 {
        self.replay(devices, &mut NoNoise, &mut ())
    }

    /// Replay one placement: the earliest-start list-scheduling loop.
    /// Returns the end-to-end latency (all graph outputs on the host).
    ///
    /// Panics if `devices` does not hold one device per subgraph, or if
    /// the subgraph dependencies are cyclic (the D205 lint's job).
    pub fn replay<N: Noise, O: Observer>(
        &self,
        devices: &[DeviceKind],
        noise: &mut N,
        observer: &mut O,
    ) -> f64 {
        let n = self.len();
        assert_eq!(devices.len(), n, "one device per subgraph");
        let mut done = vec![false; n];
        // One scratch buffer: finish time per subgraph (read only once
        // done), then the time each lane of each device falls free.
        let mut clock = vec![0.0f64; n + self.lanes[0] + self.lanes[1]];
        let (finish, free) = clock.split_at_mut(n);
        let (free_cpu, free_gpu) = free.split_at_mut(self.lanes[0]);
        let free = [free_cpu, free_gpu];
        let earliest_lane = |free: &[f64]| -> usize {
            free.iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("device has at least one lane")
        };
        for _ in 0..n {
            // Earliest-start-first among ready subgraphs, ties to the
            // lower index.
            let mut best: Option<(f64, usize, f64)> = None; // (est, idx, ready)
            for i in 0..n {
                let waits = |d: &Dep| d.producer.is_some_and(|p| !done[p]);
                if done[i] || self.deps(i).iter().any(waits) {
                    continue;
                }
                let dev = devices[i];
                let mut ready = 0.0f64;
                for d in self.deps(i) {
                    let produced_at = d.producer.map_or(0.0, |p| finish[p]);
                    ready = ready.max(if d.crosses(devices, dev) {
                        produced_at + d.transfer_us
                    } else {
                        produced_at
                    });
                }
                let lanes = &*free[dev as usize];
                let est = ready.max(lanes[earliest_lane(lanes)]);
                let better = match best {
                    None => true,
                    Some((bs, bi, _)) => est < bs || (est == bs && i < bi),
                };
                if better {
                    best = Some((est, i, ready));
                }
            }
            let (_, i, ready) = best.expect("acyclic schedule always has a ready subgraph");
            let dev = devices[i];
            // Noise is sampled at dispatch only: transfer noise stretches
            // readiness, compute noise stretches execution.
            let crossed = N::ACTIVE
                && self
                    .deps(i)
                    .iter()
                    .filter(|d| d.crosses(devices, dev))
                    .map(|d| d.bytes)
                    .sum::<f64>()
                    > 0.0;
            let ready = if crossed {
                ready * noise.transfer_multiplier()
            } else {
                ready
            };
            let lanes = &mut *free[dev as usize];
            let lane = earliest_lane(lanes);
            let start = ready.max(lanes[lane]);
            // The lane-sharing discount applies only under actual
            // contention: another lane of this device still busy.
            let contended = lanes
                .iter()
                .enumerate()
                .any(|(l, &t)| l != lane && t > start);
            let penalty = if contended {
                self.lane_penalty[dev as usize]
            } else {
                1.0
            };
            let end = start + noise.compute_sample(self.exec_us[i][dev as usize] * penalty);
            finish[i] = end;
            done[i] = true;
            lanes[lane] = end;
            observer.executed(i, start, end);
        }
        let mut latency: f64 = 0.0;
        for o in &self.outputs {
            let mut t = finish[o.producer];
            if devices[o.producer] == DeviceKind::Gpu {
                t += o.d2h_us * noise.transfer_multiplier();
                observer.output_landed(o);
            }
            latency = latency.max(t);
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::subgraph_exec_time_us;
    use duet_compiler::Compiler;
    use duet_ir::GraphBuilder;

    fn branchy() -> Graph {
        let mut b = GraphBuilder::new("branchy", 1);
        let x = b.input("x", vec![1, 512]);
        let l = b.dense("left", x, 1024, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 1024, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 8, None).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn split(g: &Graph) -> Vec<CompiledSubgraph> {
        let c = Compiler::default();
        let ids = g.compute_ids();
        let by = |prefix: &str| -> Vec<NodeId> {
            ids.iter()
                .copied()
                .filter(|&i| g.node(i).label.starts_with(prefix))
                .collect()
        };
        let rest: Vec<NodeId> = ids
            .iter()
            .copied()
            .filter(|&i| {
                !g.node(i).label.starts_with("left") && !g.node(i).label.starts_with("right")
            })
            .collect();
        vec![
            c.compile_nodes(g, &by("left"), "left"),
            c.compile_nodes(g, &by("right"), "right"),
            c.compile_nodes(g, &rest, "head"),
        ]
    }

    #[test]
    fn uncovered_producer_is_a_typed_error() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let mut sgs = split(&g);
        // Drop "left": the head's boundary input loses its producer.
        let left = sgs.remove(0);
        let err = Timeline::new(&g, &sgs, &sys).unwrap_err();
        assert!(
            matches!(err, ScheduleError::Uncovered(n) if left.node_ids.contains(&n)),
            "{err:?}"
        );
        // Drop the head instead: the graph output has no producer.
        let sgs = split(&g);
        let err = Timeline::new(&g, &sgs[..2], &sys).unwrap_err();
        assert_eq!(err, ScheduleError::MissingOutput(g.outputs()[0]));
    }

    #[test]
    fn reprice_equals_a_fresh_build() {
        let g = branchy();
        let sgs = split(&g);
        let mut slow = SystemModel::paper_server();
        slow.gpu.peak_gflops /= 12.0;
        slow.cpu = slow.cpu.with_lanes(2, 0.7);
        slow.transfer.bandwidth_gbps /= 2.0;
        let mut repriced = Timeline::new(&g, &sgs, &SystemModel::paper_server()).unwrap();
        repriced.reprice(&slow);
        let fresh = Timeline::new(&g, &sgs, &slow).unwrap();
        for mask in 0u32..8 {
            let devices: Vec<DeviceKind> = (0..3)
                .map(|i| DeviceKind::both()[(mask >> i & 1) as usize])
                .collect();
            assert_eq!(
                repriced.makespan(&devices).to_bits(),
                fresh.makespan(&devices).to_bits(),
                "mask {mask}"
            );
        }
    }

    #[test]
    fn exec_table_is_the_analytic_kernel_sum() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = split(&g);
        let tl = Timeline::new(&g, &sgs, &sys).unwrap();
        for (i, sg) in sgs.iter().enumerate() {
            for d in DeviceKind::both() {
                assert_eq!(
                    tl.exec_time_us(i, d).to_bits(),
                    subgraph_exec_time_us(&sys, d, sg).to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "one device per subgraph")]
    fn wrong_arity_rejected() {
        let g = branchy();
        let sys = SystemModel::paper_server();
        let sgs = split(&g);
        Timeline::new(&g, &sgs, &sys)
            .unwrap()
            .makespan(&[DeviceKind::Cpu]);
    }
}
