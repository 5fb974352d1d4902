//! Subgraph scheduling and mapping (§IV-C, Algorithm 1).
//!
//! Input: the partitioned, compiled, *profiled* subgraphs. Output: a
//! device (CPU or GPU) per subgraph. The flagship policy is
//! **greedy-correction**:
//!
//! 1. **Critical path first** — sequential-phase subgraphs go to their
//!    faster device; in each multi-path phase the costliest subgraph
//!    (by `min(cpu, gpu)` time) is pinned to its faster device.
//! 2. **Greedy placement** — remaining multi-path subgraphs, in
//!    decreasing cost order, go wherever they least increase the phase's
//!    makespan.
//! 3. **Correction** — Kernighan-Lin-style refinement: repeatedly apply
//!    the single move or pairwise swap (within one multi-path phase) that
//!    most reduces *measured end-to-end latency*, until no move improves.
//!    Measurement is a replay of the engine's [`Timeline`], which prices
//!    the CPU↔GPU communication the greedy step ignored — the paper
//!    refines on measured latency precisely because analytic
//!    communication estimates are unreliable (§IV-C).
//!
//! Every policy that prices a placement does so through one
//! [`Timeline`] built once per (graph, subgraphs) by the caller: a
//! candidate costs one [`Timeline::makespan`] replay over its device
//! vector — no subgraph is cloned and no table rebuilt per candidate.

pub mod baselines;
pub mod greedy;

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_runtime::{Placed, SubgraphProfile, Timeline};

use crate::partition::PhaseKind;

/// A schedulable unit: one compiled subgraph with its phase context and
/// profiled statistics.
#[derive(Debug, Clone)]
pub struct SubgraphUnit {
    /// Phase index in the partition.
    pub phase: usize,
    /// Whether the phase is sequential or multi-path.
    pub kind: PhaseKind,
    pub sg: CompiledSubgraph,
    pub profile: SubgraphProfile,
}

/// Scheduling policy (§VI-C compares these head-to-head, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// The paper's algorithm: greedy critical-path placement + correction.
    GreedyCorrection,
    /// Ablation: steps 1-2 only, no correction loop.
    GreedyOnly,
    /// Random device per subgraph.
    Random { seed: u64 },
    /// Alternate CPU/GPU by subgraph index.
    RoundRobin,
    /// Random initialisation followed by the correction loop.
    RandomCorrection { seed: u64 },
    /// Exhaustive search over all placements (NP-hard in general; only
    /// feasible for small subgraph counts — the paper uses it to verify
    /// that greedy-correction finds the optimum).
    Ideal,
    /// §III-A ablation: greedy placement driven by a FLOPs-only cost
    /// proxy instead of compiler-aware profiles (no correction).
    FlopsProxy,
    /// Pin everything to one device.
    Pin(DeviceKind),
}

/// Compute a placement for `units` under `policy`, pricing candidates
/// by replaying `timeline` (built over the same units, in order).
pub fn schedule(
    timeline: &Timeline,
    units: &[SubgraphUnit],
    system: &SystemModel,
    policy: SchedulePolicy,
) -> Vec<DeviceKind> {
    match policy {
        SchedulePolicy::GreedyCorrection => {
            greedy::correct(timeline, units, greedy::greedy_placement(units))
        }
        SchedulePolicy::GreedyOnly => greedy::greedy_placement(units),
        SchedulePolicy::Random { seed } => baselines::random(units, seed),
        SchedulePolicy::RoundRobin => baselines::round_robin(units),
        SchedulePolicy::RandomCorrection { seed } => {
            greedy::correct(timeline, units, baselines::random(units, seed))
        }
        SchedulePolicy::Ideal => baselines::ideal(timeline),
        SchedulePolicy::FlopsProxy => baselines::flops_proxy(units, system),
        SchedulePolicy::Pin(d) => vec![d; units.len()],
    }
}

/// Turn units + devices into the executor's `Placed` list (one clone of
/// every compiled subgraph: for finished schedules, never for
/// candidates).
pub fn to_placed(units: &[SubgraphUnit], devices: &[DeviceKind]) -> Vec<Placed> {
    units
        .iter()
        .zip(devices)
        .map(|(u, &device)| Placed {
            sg: u.sg.clone(),
            device,
        })
        .collect()
}

/// Critical-path lower bound on the makespan of *any* placement of the
/// timeline's subgraphs, microseconds.
///
/// Two classic bounds, both sound for a two-device system, combined by
/// `max`:
///
/// * **chain bound** — the longest dependency chain through the subgraph
///   DAG with every subgraph priced at its *faster* device and all
///   transfers ignored (no placement can beat the best device on a
///   serial chain);
/// * **work bound** — total best-device work divided by the system's
///   total lane capacity (two on the paper's one-lane-per-device
///   server): even perfect overlap cannot finish faster than the work
///   spread evenly, and lane sharing only *slows* lanes down
///   (`lane_penalty >= 1`), so capacity is an over-estimate and the
///   bound stays sound.
///
/// No replay of `timeline` can undercut this, which makes
/// `simulated / bound` a principled "how far from optimal" readout
/// (reported in the placement report, linted as `D215` past 2×) and a
/// stopping signal for schedule search.
pub fn critical_path_lower_bound_us(timeline: &Timeline) -> f64 {
    let n = timeline.len();
    let best: Vec<f64> = (0..n)
        .map(|i| {
            timeline
                .exec_time_us(i, DeviceKind::Cpu)
                .min(timeline.exec_time_us(i, DeviceKind::Gpu))
        })
        .collect();
    // Longest chain ending at each subgraph. Subgraphs are not
    // guaranteed topologically ordered, so iterate to a fixpoint over
    // the DAG (depth bounded by n).
    let mut chain = best.clone();
    for _ in 0..n {
        let mut changed = false;
        for i in 0..n {
            let longest_dep = timeline
                .deps(i)
                .iter()
                .filter_map(|d| d.producer)
                .map(|p| chain[p])
                .fold(0.0f64, f64::max);
            let c = best[i] + longest_dep;
            if c > chain[i] {
                chain[i] = c;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let chain_bound = chain.iter().copied().fold(0.0f64, f64::max);
    let capacity = (timeline.lanes(DeviceKind::Cpu) + timeline.lanes(DeviceKind::Gpu)) as f64;
    let work_bound = best.iter().sum::<f64>() / capacity;
    chain_bound.max(work_bound)
}

/// Build scheduling units from a compiled partition and its profiles.
pub fn make_units(
    partition: &crate::Partition,
    subgraphs: Vec<CompiledSubgraph>,
    profiles: Vec<SubgraphProfile>,
) -> Vec<SubgraphUnit> {
    let meta = partition.flat();
    assert_eq!(meta.len(), subgraphs.len());
    assert_eq!(meta.len(), profiles.len());
    meta.into_iter()
        .zip(subgraphs.into_iter().zip(profiles))
        .map(|((phase, kind, _), (sg, profile))| SubgraphUnit {
            phase,
            kind,
            sg,
            profile,
        })
        .collect()
}
