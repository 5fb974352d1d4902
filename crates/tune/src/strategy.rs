//! Search strategies over per-subgraph device vectors.
//!
//! Every strategy receives the same [`SearchContext`]: the oracle, a
//! fixed RNG seed (same seed ⇒ bit-identical winning plan — CI asserts
//! this), an evaluation budget, and Algorithm 1's placement as the
//! starting point. Strategies score the starting point first and never
//! return anything worse, so the tuner's never-worse guarantee holds
//! per strategy, not just after the final min.

use duet_device::DeviceKind;
use rand::{rngs::SmallRng, Rng, SeedableRng};

use crate::oracle::Oracle;

/// Everything a strategy needs for one search run.
pub struct SearchContext<'a> {
    pub oracle: &'a Oracle,
    /// Algorithm 1's device vector — the seed placement.
    pub seed_devices: &'a [DeviceKind],
    /// Deterministic RNG seed.
    pub seed: u64,
    /// Maximum oracle evaluations this strategy may spend.
    pub budget: usize,
}

/// One strategy's best placement and what it cost to find.
#[derive(Debug, Clone)]
pub struct SearchResult {
    pub devices: Vec<DeviceKind>,
    /// Oracle makespan of `devices`, µs.
    pub makespan_us: f64,
    /// Oracle evaluations spent.
    pub evaluated: usize,
}

/// A placement search procedure.
pub trait SearchStrategy: Sync {
    /// Short display name ("beam", "anneal", "cp-first").
    fn name(&self) -> &'static str;
    fn search(&self, cx: &SearchContext<'_>) -> SearchResult;
}

fn flipped(devices: &[DeviceKind], i: usize) -> Vec<DeviceKind> {
    let mut d = devices.to_vec();
    d[i] = d[i].other();
    d
}

/// Constructive baseline: place every subgraph on its faster device,
/// then sweep subgraphs in descending execution-time order (the
/// critical path's likeliest members first), keeping any single flip
/// that improves the simulated makespan. No randomness — the seed is
/// unused.
#[derive(Debug, Clone, Copy, Default)]
pub struct CriticalPathFirst;

impl SearchStrategy for CriticalPathFirst {
    fn name(&self) -> &'static str {
        "cp-first"
    }

    fn search(&self, cx: &SearchContext<'_>) -> SearchResult {
        let oracle = cx.oracle;
        let n = oracle.len();
        let mut evaluated = 1;
        let mut best = cx.seed_devices.to_vec();
        let mut best_us = oracle.evaluate(&best);

        // Greedy start: each subgraph on its faster device.
        let greedy: Vec<DeviceKind> = (0..n)
            .map(|i| {
                if oracle.exec_time_us(i, DeviceKind::Cpu)
                    <= oracle.exec_time_us(i, DeviceKind::Gpu)
                {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                }
            })
            .collect();
        let greedy_us = oracle.evaluate(&greedy);
        evaluated += 1;
        if greedy_us < best_us {
            best = greedy;
            best_us = greedy_us;
        }

        // Heaviest subgraphs first: they bound the critical path.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let w = |i: usize| {
                oracle
                    .exec_time_us(i, DeviceKind::Cpu)
                    .min(oracle.exec_time_us(i, DeviceKind::Gpu))
            };
            w(b).total_cmp(&w(a)).then(a.cmp(&b))
        });
        let mut improved = true;
        while improved && evaluated < cx.budget {
            improved = false;
            for &i in &order {
                if evaluated >= cx.budget {
                    break;
                }
                let cand = flipped(&best, i);
                let us = oracle.evaluate(&cand);
                evaluated += 1;
                if us < best_us {
                    best = cand;
                    best_us = us;
                    improved = true;
                }
            }
        }
        SearchResult {
            devices: best,
            makespan_us: best_us,
            evaluated,
        }
    }
}

/// Beam search over single-device flips: each round expands every beam
/// member's full flip neighborhood (evaluated as one parallel batch),
/// keeps the `width` best distinct placements, and stops when a round
/// fails to improve the incumbent. Deterministic — candidate order is
/// (beam index, subgraph index) and ties break toward earlier
/// candidates.
#[derive(Debug, Clone, Copy)]
pub struct BeamSearch {
    pub width: usize,
}

impl Default for BeamSearch {
    fn default() -> Self {
        BeamSearch { width: 4 }
    }
}

impl SearchStrategy for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn search(&self, cx: &SearchContext<'_>) -> SearchResult {
        let oracle = cx.oracle;
        let n = oracle.len();
        let width = self.width.max(1);
        let mut evaluated = 1;
        let seed_us = oracle.evaluate(cx.seed_devices);
        let mut beam: Vec<(f64, Vec<DeviceKind>)> = vec![(seed_us, cx.seed_devices.to_vec())];
        let (mut best, mut best_us) = (cx.seed_devices.to_vec(), seed_us);
        loop {
            let mut frontier: Vec<Vec<DeviceKind>> = Vec::with_capacity(beam.len() * n);
            for (_, member) in &beam {
                for i in 0..n {
                    frontier.push(flipped(member, i));
                }
            }
            frontier.truncate(cx.budget.saturating_sub(evaluated));
            if frontier.is_empty() {
                break;
            }
            let scores = oracle.evaluate_batch(&frontier);
            evaluated += frontier.len();
            let mut pool: Vec<(f64, Vec<DeviceKind>)> = scores.into_iter().zip(frontier).collect();
            pool.extend(beam.iter().cloned());
            // Stable sort keeps earlier candidates ahead on score ties,
            // which is what makes the search order-deterministic.
            pool.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut seen: std::collections::HashSet<Vec<DeviceKind>> =
                std::collections::HashSet::new();
            pool.retain(|(_, d)| seen.insert(d.clone()));
            pool.truncate(width);
            let improved = pool[0].0 < best_us;
            if improved {
                best_us = pool[0].0;
                best = pool[0].1.clone();
            }
            beam = pool;
            if !improved || evaluated >= cx.budget {
                break;
            }
        }
        SearchResult {
            devices: best,
            makespan_us: best_us,
            evaluated,
        }
    }
}

/// Simulated annealing over flip/swap neighborhoods with a geometric
/// cooling schedule and Metropolis acceptance. Runs `restarts`
/// independent chains from the seed placement, each on a sub-seed
/// derived from the context seed, so the whole run is a pure function
/// of (oracle, seed placement, seed).
#[derive(Debug, Clone, Copy)]
pub struct SimulatedAnnealing {
    pub iters: usize,
    pub restarts: usize,
    /// Initial temperature as a fraction of the seed makespan.
    pub t0_frac: f64,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            iters: 400,
            restarts: 3,
            t0_frac: 0.05,
        }
    }
}

impl SearchStrategy for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn search(&self, cx: &SearchContext<'_>) -> SearchResult {
        let oracle = cx.oracle;
        let n = oracle.len();
        let mut evaluated = 1;
        let seed_us = oracle.evaluate(cx.seed_devices);
        let (mut best, mut best_us) = (cx.seed_devices.to_vec(), seed_us);
        let t0 = (self.t0_frac * seed_us).max(1e-9);
        for restart in 0..self.restarts.max(1) {
            let mut rng = SmallRng::seed_from_u64(
                cx.seed
                    .wrapping_add((restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let mut cur = cx.seed_devices.to_vec();
            let mut cur_us = seed_us;
            for step in 0..self.iters {
                if evaluated >= cx.budget {
                    break;
                }
                let mut cand = cur.clone();
                if n >= 2 && rng.gen_bool(0.3) {
                    // Swap move: exchange the devices of two subgraphs
                    // (preserves the CPU/GPU load split).
                    let a = rng.gen_range(0..n);
                    let b = rng.gen_range(0..n);
                    cand.swap(a, b);
                } else {
                    let i = rng.gen_range(0..n);
                    cand[i] = cand[i].other();
                }
                if cand == cur {
                    continue;
                }
                let cand_us = oracle.evaluate(&cand);
                evaluated += 1;
                let temp = t0 * (1e-3f64).powf(step as f64 / self.iters.max(1) as f64);
                let accept = cand_us <= cur_us || {
                    let p = (-(cand_us - cur_us) / temp).exp();
                    rng.gen_bool(p.clamp(0.0, 1.0))
                };
                if accept {
                    cur = cand;
                    cur_us = cand_us;
                    if cur_us < best_us {
                        best = cur.clone();
                        best_us = cur_us;
                    }
                }
            }
            if evaluated >= cx.budget {
                break;
            }
        }
        SearchResult {
            devices: best,
            makespan_us: best_us,
            evaluated,
        }
    }
}

/// The tuner's default strategy portfolio, in report order.
pub fn default_strategies() -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(CriticalPathFirst),
        Box::new(BeamSearch::default()),
        Box::new(SimulatedAnnealing::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use duet_compiler::{CompiledSubgraph, Compiler};
    use duet_device::SystemModel;
    use duet_ir::{Graph, GraphBuilder, Op};

    fn fixture() -> (Graph, Vec<CompiledSubgraph>, SystemModel) {
        let mut b = GraphBuilder::new("fixture", 1);
        let x = b.input("x", vec![1, 256]);
        let l = b.dense("left", x, 2048, Some(Op::Relu)).unwrap();
        let r = b.dense("right", x, 2048, Some(Op::Tanh)).unwrap();
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
    fn every_strategy_is_never_worse_than_the_seed() {
        let (g, sgs, sys) = fixture();
        let oracle = Oracle::analytic(&g, &sgs, &sys);
        // Deliberately bad seed: everything on the CPU.
        let seed_devices = vec![DeviceKind::Cpu; 3];
        let seed_us = oracle.evaluate(&seed_devices);
        for s in default_strategies() {
            let cx = SearchContext {
                oracle: &oracle,
                seed_devices: &seed_devices,
                seed: 7,
                budget: 500,
            };
            let r = s.search(&cx);
            assert!(
                r.makespan_us <= seed_us,
                "{} regressed: {} > {seed_us}",
                s.name(),
                r.makespan_us
            );
            assert!(r.evaluated <= 501, "{} blew the budget", s.name());
            // The reported makespan is the placement's real score.
            assert_eq!(
                r.makespan_us.to_bits(),
                oracle.evaluate(&r.devices).to_bits()
            );
        }
    }

    #[test]
    fn same_seed_same_result() {
        let (g, sgs, sys) = fixture();
        let oracle = Oracle::analytic(&g, &sgs, &sys);
        let seed_devices = vec![DeviceKind::Gpu; 3];
        for s in default_strategies() {
            let run = || {
                s.search(&SearchContext {
                    oracle: &oracle,
                    seed_devices: &seed_devices,
                    seed: 42,
                    budget: 300,
                })
            };
            let (a, b) = (run(), run());
            assert_eq!(a.devices, b.devices, "{} is nondeterministic", s.name());
            assert_eq!(a.makespan_us.to_bits(), b.makespan_us.to_bits());
            assert_eq!(a.evaluated, b.evaluated);
        }
    }
}
