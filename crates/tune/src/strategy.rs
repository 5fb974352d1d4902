//! The placement search: beam search over single-device flips.
//!
//! One deterministic search, seeded with Algorithm 1's placement. It
//! scores the seed first and only ever replaces the incumbent on a
//! strict improvement, so it never returns anything worse than it was
//! given — the tuner's never-worse guarantee starts here.

use std::collections::HashSet;

use duet_device::DeviceKind;

use crate::oracle::Oracle;

/// Placements kept per round.
const BEAM_WIDTH: usize = 4;

/// The search's best placement and what it cost to find.
#[derive(Debug, Clone)]
pub(crate) struct SearchResult {
    pub devices: Vec<DeviceKind>,
    /// Oracle evaluations spent.
    pub evaluated: usize,
}

fn flipped(devices: &[DeviceKind], i: usize) -> Vec<DeviceKind> {
    let mut d = devices.to_vec();
    d[i] = d[i].other();
    d
}

/// Beam search from `seed_devices`: each round prices every beam
/// member's full flip neighborhood, keeps the [`BEAM_WIDTH`] best
/// distinct placements, and stops when a round fails to improve the
/// incumbent or `budget` oracle evaluations are spent. Deterministic —
/// candidate order is (beam index, subgraph index) and ties break toward
/// earlier candidates.
pub(crate) fn beam_search(
    oracle: &Oracle,
    seed_devices: &[DeviceKind],
    budget: usize,
) -> SearchResult {
    let n = oracle.len();
    let mut evaluated = 1;
    let mut beam = vec![(oracle.evaluate(seed_devices), seed_devices.to_vec())];
    let mut best = beam[0].clone();
    loop {
        let mut pool: Vec<(f64, Vec<DeviceKind>)> = beam
            .iter()
            .flat_map(|(_, member)| (0..n).map(move |i| flipped(member, i)))
            .take(budget.saturating_sub(evaluated))
            .map(|devices| (oracle.evaluate(&devices), devices))
            .collect();
        if pool.is_empty() {
            break;
        }
        evaluated += pool.len();
        pool.append(&mut beam);
        // Stable sort keeps earlier candidates ahead on score ties,
        // which is what makes the search order-deterministic.
        pool.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut seen = HashSet::new();
        pool.retain(|(_, d)| seen.insert(d.clone()));
        pool.truncate(BEAM_WIDTH);
        let improved = pool[0].0 < best.0;
        if improved {
            best = pool[0].clone();
        }
        beam = pool;
        if !improved || evaluated >= budget {
            break;
        }
    }
    SearchResult {
        devices: best.1,
        evaluated,
    }
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
        let r = beam_search(&oracle, &seed_devices, 500);
        let found_us = oracle.evaluate(&r.devices);
        assert!(
            found_us <= seed_us,
            "search regressed: {found_us} > {seed_us}"
        );
        assert!(r.evaluated <= 501, "search blew the budget");
    }

    #[test]
    fn same_seed_same_result() {
        let (g, sgs, sys) = fixture();
        let oracle = Oracle::analytic(&g, &sgs, &sys);
        let seed_devices = vec![DeviceKind::Gpu; 3];
        let run = || beam_search(&oracle, &seed_devices, 300);
        let (a, b) = (run(), run());
        assert_eq!(a.devices, b.devices, "search is nondeterministic");
        assert_eq!(a.evaluated, b.evaluated);
    }
}
