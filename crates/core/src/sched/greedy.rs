//! Greedy-correction scheduling (Algorithm 1).

use duet_device::DeviceKind;
use duet_runtime::Timeline;
use duet_telemetry::SpanKind;

use super::SubgraphUnit;
use crate::partition::PhaseKind;

/// Relative improvement below which a correction move is considered noise.
const EPS: f64 = 1e-9;
/// Hard cap on correction iterations per phase (the loop converges long
/// before this; the cap guards against measurement oscillation).
const MAX_ROUNDS: usize = 64;

/// Phase indices in partition order.
fn phases_of(units: &[SubgraphUnit]) -> Vec<usize> {
    let mut phases: Vec<usize> = units.iter().map(|u| u.phase).collect();
    phases.dedup();
    phases
}

/// Steps 1 + 2: critical-path-first greedy placement.
pub fn greedy_placement(units: &[SubgraphUnit]) -> Vec<DeviceKind> {
    let mut devices = vec![DeviceKind::Cpu; units.len()];
    for phase in phases_of(units) {
        let idxs: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].phase == phase)
            .collect();
        if units[idxs[0]].kind == PhaseKind::Sequential {
            // Step 1, sequential phase: the chain is on the critical path
            // by definition; give it its faster device.
            for &i in &idxs {
                devices[i] = units[i].profile.best_device();
            }
            continue;
        }
        // Step 1, multi-path phase: the costliest subgraph (cost =
        // min(cpu, gpu)) joins the critical path on its faster device.
        let crit = *idxs
            .iter()
            .max_by(|&&a, &&b| {
                units[a]
                    .profile
                    .best_time()
                    .total_cmp(&units[b].profile.best_time())
            })
            .expect("phase non-empty");
        devices[crit] = units[crit].profile.best_device();
        let mut load = [0.0f64; 2];
        load[devices[crit] as usize] += units[crit].profile.time_on(devices[crit]);
        // Step 2: remaining subgraphs in decreasing cost order, each to
        // the device that least increases the phase makespan.
        let mut rest: Vec<usize> = idxs.iter().copied().filter(|&i| i != crit).collect();
        rest.sort_by(|&a, &b| {
            units[b]
                .profile
                .best_time()
                .total_cmp(&units[a].profile.best_time())
        });
        for i in rest {
            let mut best = (f64::INFINITY, DeviceKind::Cpu);
            for d in DeviceKind::both() {
                let mut l = load;
                l[d as usize] += units[i].profile.time_on(d);
                let makespan = l[0].max(l[1]);
                // Strict `<` keeps the CPU on ties (cheaper to reach).
                if makespan < best.0 {
                    best = (makespan, d);
                }
            }
            devices[i] = best.1;
            load[best.1 as usize] += units[i].profile.time_on(best.1);
        }
    }
    devices
}

/// One candidate of the correction search: flip a subgraph to the other
/// device, or swap a CPU-side and a GPU-side subgraph by flipping both
/// ("one of the subgraphs could be empty" — a single move is a swap
/// against the empty subgraph).
#[derive(Debug, Clone, Copy)]
struct Move(usize, Option<usize>);

impl Move {
    /// Apply the move; applying it again undoes it.
    fn flip(self, devices: &mut [DeviceKind]) {
        for i in std::iter::once(self.0).chain(self.1) {
            devices[i] = devices[i].other();
        }
    }

    /// Telemetry identity: single move `i+1`, pairwise swap
    /// `i*1024 + j + 1`.
    fn encoded(self) -> u64 {
        match self.1 {
            None => self.0 as u64 + 1,
            Some(j) => self.0 as u64 * 1024 + j as u64 + 1,
        }
    }
}

/// A priced candidate: identity, predicted latency, and the margin vs
/// the epsilon-scaled incumbent (positive = improving).
fn record_rejected(mv: Move, t_new: f64, margin: f64) {
    duet_telemetry::registry::SCHED_MOVES_REJECTED.inc();
    duet_telemetry::record_instant(SpanKind::SchedMoveRejected, mv.encoded(), t_new, margin);
}

/// Rounds of best-improvement local search: price every move
/// `candidates` offers for the current placement, apply the one that
/// most reduces the replayed makespan, and stop when none improves it.
/// Returns the number of rounds run.
fn refine(
    timeline: &Timeline,
    devices: &mut [DeviceKind],
    t_old: &mut f64,
    candidates: impl Fn(&[DeviceKind]) -> Vec<Move>,
) -> u64 {
    use duet_telemetry::registry as tm;
    let mut rounds = 0;
    for round in 0..MAX_ROUNDS {
        let round_start = duet_telemetry::clock_us();
        tm::SCHED_ROUNDS.inc();
        rounds += 1;
        let bar = *t_old * (1.0 - EPS);
        let mut best: Option<(f64, Move)> = None;
        for mv in candidates(devices) {
            mv.flip(devices);
            let t_new = timeline.makespan(devices);
            mv.flip(devices);
            tm::SCHED_MOVES_EVALUATED.inc();
            if t_new < bar && best.is_none_or(|(b, _)| t_new < b) {
                // The superseded incumbent candidate ends up rejected.
                if let Some((b_t, b_mv)) = best.replace((t_new, mv)) {
                    record_rejected(b_mv, b_t, bar - b_t);
                }
            } else {
                record_rejected(mv, t_new, bar - t_new);
            }
        }
        duet_telemetry::record_span(
            SpanKind::SchedRound,
            round as u64,
            round_start,
            duet_telemetry::clock_us() - round_start,
            *t_old,
            0.0,
        );
        // No improving move: converged.
        let Some((t_new, mv)) = best else { break };
        mv.flip(devices);
        tm::SCHED_MOVES_ACCEPTED.inc();
        tm::SCHED_ACCEPTED_GAIN_US.observe_us(*t_old - t_new);
        duet_telemetry::record_instant(
            SpanKind::SchedMoveAccepted,
            mv.encoded(),
            t_new,
            bar - t_new,
        );
        *t_old = t_new;
    }
    rounds
}

/// Step 3: per-multi-path-phase swap refinement against measured
/// end-to-end latency — one replay of `timeline` per candidate.
pub fn correct(
    timeline: &Timeline,
    units: &[SubgraphUnit],
    mut devices: Vec<DeviceKind>,
) -> Vec<DeviceKind> {
    use duet_telemetry::registry as tm;
    let correction_start = duet_telemetry::clock_us();
    tm::SCHED_CORRECTIONS.inc();
    let t_initial = timeline.makespan(&devices);
    let mut t_old = t_initial;
    let mut rounds = 0u64;
    // The paper runs the correction once per multi-path layer; a model may
    // have several such layers (§IV-C), so loop phases in order.
    for phase in phases_of(units) {
        let idxs: Vec<usize> = (0..units.len())
            .filter(|&i| units[i].phase == phase)
            .collect();
        if units[idxs[0]].kind != PhaseKind::MultiPath {
            continue;
        }
        // Single moves and pairwise swaps within the phase.
        rounds += refine(timeline, &mut devices, &mut t_old, |devices| {
            let side = |d: DeviceKind| idxs.iter().copied().filter(move |&i| devices[i] == d);
            let singles = side(DeviceKind::Cpu).chain(side(DeviceKind::Gpu));
            let swaps = side(DeviceKind::Cpu)
                .flat_map(|i| side(DeviceKind::Gpu).map(move |j| Move(i, Some(j))));
            singles.map(|i| Move(i, None)).chain(swaps).collect()
        });
    }
    // Final global pass: single-subgraph moves across *all* phases,
    // including sequential ones. Algorithm 1 only refines multi-path
    // layers — sufficient when step 1 placed every sequential chain on
    // its faster device, but a correction run from an arbitrary
    // initialisation (the Random+Correction baseline of §VI-C) must also
    // be able to repair a misplaced sequential phase.
    rounds += refine(timeline, &mut devices, &mut t_old, |devices| {
        (0..devices.len()).map(|i| Move(i, None)).collect()
    });
    tm::SCHED_PREDICTED_LATENCY_US.set(t_old as i64);
    let wall_us = duet_telemetry::clock_us() - correction_start;
    tm::SCHED_CORRECTION_WALL_US.observe_us(wall_us);
    duet_telemetry::record_span(
        SpanKind::SchedCorrection,
        rounds,
        correction_start,
        wall_us,
        t_initial,
        t_old,
    );
    devices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::sched::make_units;
    use duet_compiler::Compiler;
    use duet_device::SystemModel;
    use duet_ir::Graph;
    use duet_models::{siamese, wide_and_deep, SiameseConfig, WideAndDeepConfig};
    use duet_runtime::Profiler;

    fn units_for(graph: &Graph) -> Vec<SubgraphUnit> {
        let part = partition(graph);
        let compiler = Compiler::default();
        let sgs = part.compile(graph, &compiler);
        let profiler = Profiler::new(SystemModel::paper_server());
        let profiles = profiler.profile_all(graph, &sgs);
        make_units(&part, sgs, profiles)
    }

    fn timeline_for(graph: &Graph, units: &[SubgraphUnit]) -> Timeline {
        let sys = SystemModel::paper_server();
        Timeline::new(graph, units.iter().map(|u| &*u.sg), &sys).unwrap()
    }

    #[test]
    fn wide_and_deep_greedy_splits_rnn_cpu_cnn_gpu() {
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let units = units_for(&g);
        let devices = greedy_placement(&units);
        for (u, d) in units.iter().zip(&devices) {
            if u.sg.name.starts_with("rnn") {
                assert_eq!(*d, DeviceKind::Cpu, "RNN belongs on CPU");
            }
            if u.sg.name.starts_with("cnn@") {
                assert_eq!(*d, DeviceKind::Gpu, "CNN belongs on GPU");
            }
        }
    }

    #[test]
    fn correction_never_hurts() {
        for g in [
            wide_and_deep(&WideAndDeepConfig::default()),
            siamese(&SiameseConfig::default()),
        ] {
            let units = units_for(&g);
            let tl = timeline_for(&g, &units);
            let init = greedy_placement(&units);
            let t_init = tl.makespan(&init);
            let t_corr = tl.makespan(&correct(&tl, &units, init));
            assert!(t_corr <= t_init + 1e-9, "{}: {t_corr} <= {t_init}", g.name);
        }
    }

    #[test]
    fn correction_fixes_adversarial_start() {
        // Start from the *worst* intuition: RNN on GPU, CNN on CPU.
        let g = wide_and_deep(&WideAndDeepConfig::default());
        let units = units_for(&g);
        let tl = timeline_for(&g, &units);
        let adversarial: Vec<DeviceKind> = units
            .iter()
            .map(|u| {
                if u.sg.name.starts_with("rnn") {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                }
            })
            .collect();
        let t_bad = tl.makespan(&adversarial);
        let t_fixed = tl.makespan(&correct(&tl, &units, adversarial));
        assert!(
            t_fixed < t_bad * 0.8,
            "correction recovers: {t_fixed} < {t_bad}"
        );
    }

    #[test]
    fn sequential_phases_get_their_best_device() {
        let g = siamese(&SiameseConfig::default());
        let units = units_for(&g);
        let devices = greedy_placement(&units);
        for (u, d) in units.iter().zip(&devices) {
            if u.kind == PhaseKind::Sequential {
                assert_eq!(*d, u.profile.best_device());
            }
        }
    }
}
