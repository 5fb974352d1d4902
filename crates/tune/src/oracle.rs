//! The search objective: a [`Timeline`] with telemetry.
//!
//! The tuner prices candidates on the timing core the engine already
//! built ([`duet_core::Duet::timeline`]) — dependency structure,
//! transfer prices and the per-(subgraph, device) execution table exist
//! once, so each candidate evaluation is a pure list-scheduling replay,
//! the same replay `SchedulePolicy::Ideal`, Algorithm 1 and the D503
//! bound read. Every evaluation increments `duet_tune_candidates_total`
//! and feeds the `duet_tune_oracle_wall_us` histogram, which is what the
//! CLI's "search cost" report and the CI overhead gate read.

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::Graph;
use duet_runtime::Timeline;
use duet_telemetry::registry::{TUNE_CANDIDATES, TUNE_ORACLE_WALL_US};

/// A reusable placement evaluator over one fixed set of compiled
/// subgraphs.
#[derive(Debug, Clone)]
pub struct Oracle {
    sim: Timeline,
}

impl Oracle {
    /// Oracle over an engine's own timing core: every value it
    /// returns is the latency the engine would claim for that placement
    /// (the property the never-worse guarantee rides on).
    pub fn over(timeline: Timeline) -> Self {
        Oracle { sim: timeline }
    }

    /// Oracle over a timing core built here, for callers without an
    /// engine.
    ///
    /// # Panics
    /// Panics if `subgraphs` do not cover `graph` (see
    /// [`Timeline::new`] for the fallible form).
    pub fn analytic(graph: &Graph, subgraphs: &[CompiledSubgraph], system: &SystemModel) -> Self {
        Self::over(
            Timeline::new(graph, subgraphs, system)
                .unwrap_or_else(|e| panic!("subgraphs do not cover the graph: {e}")),
        )
    }

    /// Number of subgraphs a candidate must place.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True when the oracle covers no subgraphs.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Memoized execution time of subgraph `i` on `device`, µs.
    pub fn exec_time_us(&self, i: usize, device: DeviceKind) -> f64 {
        self.sim.exec_time_us(i, device)
    }

    /// Simulated end-to-end makespan of one placement, µs.
    pub fn evaluate(&self, devices: &[DeviceKind]) -> f64 {
        let t0 = std::time::Instant::now();
        let makespan = self.sim.makespan(devices);
        TUNE_CANDIDATES.inc();
        TUNE_ORACLE_WALL_US.observe_us(t0.elapsed().as_secs_f64() * 1e6);
        makespan
    }

    /// Evaluate a batch of candidates across threads, results in input
    /// order. Each evaluation is a pure function of (table, devices), so
    /// parallel scheduling cannot perturb the values — batch results are
    /// bitwise equal to sequential `evaluate` calls.
    pub fn evaluate_batch(&self, candidates: &[Vec<DeviceKind>]) -> Vec<f64> {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(candidates.len().max(1));
        if threads <= 1 || candidates.len() < 8 {
            return candidates.iter().map(|c| self.evaluate(c)).collect();
        }
        let t0 = std::time::Instant::now();
        let mut out = vec![0.0f64; candidates.len()];
        let chunk = candidates.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (slot, work) in out.chunks_mut(chunk).zip(candidates.chunks(chunk)) {
                scope.spawn(move || {
                    for (o, c) in slot.iter_mut().zip(work) {
                        *o = self.sim.makespan(c);
                    }
                });
            }
        });
        TUNE_CANDIDATES.add(candidates.len() as u64);
        TUNE_ORACLE_WALL_US.observe_us(t0.elapsed().as_secs_f64() * 1e6);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::Compiler;
    use duet_ir::{GraphBuilder, Op};

    fn fixture() -> (Graph, Vec<CompiledSubgraph>, SystemModel) {
        let mut b = GraphBuilder::new("fixture", 1);
        let x = b.input("x", vec![1, 256]);
        let l = b.dense("left", x, 512, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 512, Some(Op::Tanh)).unwrap();
        let cat = b.op("cat", Op::Concat { axis: 1 }, &[l, r]).unwrap();
        let y = b.dense("head", cat, 8, None).unwrap();
        let g = b.finish(&[y]).unwrap();
        let c = Compiler::default();
        let pick = |prefix: &str| {
            g.compute_ids()
                .into_iter()
                .filter(|&i| g.node(i).label.starts_with(prefix))
                .collect::<Vec<_>>()
        };
        let rest = g
            .compute_ids()
            .into_iter()
            .filter(|&i| {
                !g.node(i).label.starts_with("left") && !g.node(i).label.starts_with("right")
            })
            .collect::<Vec<_>>();
        let sgs = vec![
            c.compile_nodes(&g, &pick("left"), "left"),
            c.compile_nodes(&g, &pick("right"), "right"),
            c.compile_nodes(&g, &rest, "head"),
        ];
        (g, sgs, SystemModel::paper_server())
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let (g, sgs, sys) = fixture();
        let oracle = Oracle::analytic(&g, &sgs, &sys);
        let candidates: Vec<Vec<DeviceKind>> = (0u32..8)
            .flat_map(|mask| {
                // Repeat each mask a few times to force the parallel path.
                std::iter::repeat_with(move || {
                    (0..3)
                        .map(|i| {
                            if mask >> i & 1 == 0 {
                                DeviceKind::Cpu
                            } else {
                                DeviceKind::Gpu
                            }
                        })
                        .collect()
                })
                .take(4)
            })
            .collect();
        let batch = oracle.evaluate_batch(&candidates);
        for (c, &b) in candidates.iter().zip(&batch) {
            assert_eq!(b.to_bits(), oracle.evaluate(c).to_bits());
        }
    }
}
