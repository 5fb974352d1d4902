//! Runtime-conformance checking of execution witnesses (`D3xx`).
//!
//! A [`duet_runtime::ExecutionWitness`] is the ordered event log of one
//! run — subgraph dispatches and retirements with virtual timestamps,
//! triggering edges, and every modeled interconnect transfer. This
//! module verifies a witness against the ground truth it claims to be a
//! run of: the graph, the placed schedule and the system model.
//!
//! [`check_witness`] is the happens-before checker:
//!
//! * every placed subgraph executed exactly once (`D300`/`D301`), with a
//!   well-formed start/finish pair on the placed device (`D302`);
//! * **observed order** respects the dependency relation — a consumer's
//!   `Start` may only be committed after every producer's `Finish`
//!   (`D303`). For the threaded executor the log order is the order
//!   events were committed under the recorder lock, so a violation here
//!   is a genuine synchronization bug regardless of what the virtual
//!   clocks say;
//! * **virtual clocks** are conformant: no subgraph starts before every
//!   producer's finish plus the modeled transfer time for each
//!   boundary-crossing value (`D304`), and per-device execution
//!   intervals are monotone and non-overlapping — one subgraph at a
//!   time per device, footnote 2 (`D305`);
//! * **transfer accounting** is exact: each value that crosses the
//!   device boundary (H2D of a graph input consumed on the GPU, D2D of
//!   a cross-placed intermediate, final D2H of a GPU-resident output)
//!   appears exactly once (`D306`) with the bytes and modeled time the
//!   system model prices (`D307`);
//! * the **reported latency** equals the maximum output-ready time
//!   recomputed independently from the recorded finishes (`D308`).
//!
//! [`check_agreement`] cross-checks two witnesses of the same placement
//! — typically the threaded executor's against the simulator's. The
//! executor runs the schedule one noise-free replay dispatched and reads
//! its clock from it, so the two are one schedule: end-to-end latencies
//! must be equal to the bit (`D310`) and so must each device's dispatch
//! order (`D311`). Both are errors; neither has a tolerance.
//!
//! Checks assume noise-free clocks: record witnesses with
//! [`duet_runtime::SimNoise::disabled`] (the executor's virtual clock is
//! always noise-free).

use std::collections::{BTreeMap, HashMap};

use duet_device::{DeviceKind, SystemModel};
use duet_ir::{Graph, NodeId, Op};
use duet_runtime::{ExecutionWitness, Placed, TransferKind, WitnessEvent};

use crate::{codes, Diagnostic, Report};

/// Tolerances for [`check_witness`], which re-prices every event from
/// the system model on its own; [`check_agreement`] takes none.
#[derive(Debug, Clone)]
pub struct WitnessCheckConfig {
    /// Relative tolerance for virtual-clock arithmetic (the checker sums
    /// its own prices in its own order), applied to readiness, overlap
    /// and latency recomputation.
    pub clock_tol: f64,
}

impl Default for WitnessCheckConfig {
    fn default() -> Self {
        WitnessCheckConfig { clock_tol: 1e-6 }
    }
}

fn eps(cfg: &WitnessCheckConfig, t: f64) -> f64 {
    cfg.clock_tol * t.abs().max(1.0)
}

/// One device-boundary crossing, identified by the tensor it moves, the
/// transfer direction (as a sortable tag) and the consuming subgraph
/// (`None` for final output D2H).
type TransferKey = (NodeId, u8, Option<usize>);

/// Everything recorded about one subgraph's execution.
#[derive(Debug, Clone, Default)]
struct SgRecord {
    start_idx: Option<usize>,
    start_us: f64,
    start_device: Option<DeviceKind>,
    starts: usize,
    finish_idx: Option<usize>,
    finish_us: f64,
    finishes: usize,
}

/// Verify one witness against its graph, placed schedule and system
/// model. The report's subject is `"<model>:witness:<source>"`.
pub fn check_witness(
    graph: &Graph,
    placed: &[Placed],
    system: &SystemModel,
    witness: &ExecutionWitness,
    cfg: &WitnessCheckConfig,
) -> Report {
    let mut report = Report::new(format!("{}:witness:{}", witness.model, witness.source));
    let n = placed.len();

    // node -> producing subgraph, from the schedule (ground truth).
    let mut producer: HashMap<NodeId, usize> = HashMap::new();
    for (i, p) in placed.iter().enumerate() {
        for &id in &p.sg.node_ids {
            producer.insert(id, i);
        }
    }

    // --- Scan: collect per-subgraph records and transfer events. ------
    let mut recs: Vec<SgRecord> = vec![SgRecord::default(); n];
    // key -> (bytes, time_us, count)
    let mut observed_transfers: BTreeMap<TransferKey, (f64, f64, usize)> = BTreeMap::new();
    let kind_tag = |k: TransferKind| -> u8 {
        match k {
            TransferKind::HostToDevice => 0,
            TransferKind::DeviceToDevice => 1,
            TransferKind::DeviceToHost => 2,
        }
    };
    for (idx, ev) in witness.events.iter().enumerate() {
        match ev {
            WitnessEvent::Start {
                sg, device, at_us, ..
            } => {
                if *sg >= n {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!("start of unknown subgraph {sg} (schedule has {n})"),
                        )
                        .with_context(format!("event {idx}")),
                    );
                    continue;
                }
                let r = &mut recs[*sg];
                r.starts += 1;
                if r.starts == 1 {
                    r.start_idx = Some(idx);
                    r.start_us = *at_us;
                    r.start_device = Some(*device);
                }
                if *device != placed[*sg].device {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!(
                                "subgraph {sg} ({}) started on {:?} but is placed on {:?}",
                                placed[*sg].sg.name, device, placed[*sg].device
                            ),
                        )
                        .with_context(placed[*sg].sg.name.clone()),
                    );
                }
            }
            WitnessEvent::Finish { sg, device, at_us } => {
                if *sg >= n {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!("finish of unknown subgraph {sg} (schedule has {n})"),
                        )
                        .with_context(format!("event {idx}")),
                    );
                    continue;
                }
                let r = &mut recs[*sg];
                r.finishes += 1;
                if r.finishes == 1 {
                    r.finish_idx = Some(idx);
                    r.finish_us = *at_us;
                }
                if *device != placed[*sg].device {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!(
                                "subgraph {sg} ({}) finished on {:?} but is placed on {:?}",
                                placed[*sg].sg.name, device, placed[*sg].device
                            ),
                        )
                        .with_context(placed[*sg].sg.name.clone()),
                    );
                }
            }
            WitnessEvent::Transfer {
                node,
                kind,
                bytes,
                time_us,
                consumer,
            } => {
                let e = observed_transfers
                    .entry((*node, kind_tag(*kind), *consumer))
                    .or_insert((*bytes, *time_us, 0));
                e.2 += 1;
            }
        }
    }

    // --- Execution multiplicity and pairing. --------------------------
    for (i, r) in recs.iter().enumerate() {
        let name = placed[i].sg.name.clone();
        if r.starts == 0 && r.finishes == 0 {
            report.push(
                Diagnostic::error(
                    codes::WITNESS_MISSING_EXECUTION,
                    format!("subgraph {i} ({name}) never executed"),
                )
                .with_context(name),
            );
            continue;
        }
        if r.starts > 1 || r.finishes > 1 {
            report.push(
                Diagnostic::error(
                    codes::WITNESS_DUPLICATE_EXECUTION,
                    format!(
                        "subgraph {i} ({name}) executed more than once \
                         ({} starts, {} finishes)",
                        r.starts, r.finishes
                    ),
                )
                .with_context(name),
            );
            continue;
        }
        match (r.start_idx, r.finish_idx) {
            (Some(s), Some(f)) => {
                if f < s {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!("subgraph {i} ({name}) finish recorded before its start"),
                        )
                        .with_context(name.clone()),
                    );
                }
                if r.finish_us < r.start_us - eps(cfg, r.start_us) {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MALFORMED,
                            format!(
                                "subgraph {i} ({name}) has negative duration \
                                 (start {:.3} us, finish {:.3} us)",
                                r.start_us, r.finish_us
                            ),
                        )
                        .with_context(name),
                    );
                }
            }
            _ => {
                report.push(
                    Diagnostic::error(
                        codes::WITNESS_MALFORMED,
                        format!(
                            "subgraph {i} ({name}) has {} start(s) but {} finish(es)",
                            r.starts, r.finishes
                        ),
                    )
                    .with_context(name),
                );
            }
        }
    }

    // --- Happens-before (observed order) and clock readiness. ---------
    for (i, p) in placed.iter().enumerate() {
        let Some(start_idx) = recs[i].start_idx else {
            continue;
        };
        let device = p.device;
        for &src in &p.sg.inputs {
            let bytes = graph.node(src).shape.byte_size() as f64;
            let (dep, base_us) = if matches!(graph.node(src).op, Op::Input) {
                (None, 0.0)
            } else {
                let Some(&pi) = producer.get(&src) else {
                    // Schedule does not cover the producer; the plan
                    // linter (D2xx) owns that failure mode.
                    continue;
                };
                (Some(pi), recs[pi].finish_us)
            };
            if let Some(pi) = dep {
                match recs[pi].finish_idx {
                    Some(fidx) if fidx < start_idx => {}
                    Some(_) | None => {
                        report.push(
                            Diagnostic::error(
                                codes::WITNESS_ORDER,
                                format!(
                                    "subgraph {i} ({}) started before producer {pi} ({}) \
                                     finished (observed event order)",
                                    p.sg.name, placed[pi].sg.name
                                ),
                            )
                            .with_node(src)
                            .with_context(p.sg.name.clone()),
                        );
                        continue;
                    }
                }
            }
            let crosses = match dep {
                None => device == DeviceKind::Gpu,
                Some(pi) => placed[pi].device != device,
            };
            let need = base_us
                + if crosses {
                    system.transfer_time_us(bytes)
                } else {
                    0.0
                };
            if recs[i].start_us < need - eps(cfg, need) {
                report.push(
                    Diagnostic::error(
                        codes::WITNESS_CLOCK_READINESS,
                        format!(
                            "subgraph {i} ({}) started at {:.3} us but node {src} is only \
                             ready at {:.3} us ({})",
                            p.sg.name,
                            recs[i].start_us,
                            need,
                            match dep {
                                None => "H2D transfer of a graph input".to_string(),
                                Some(pi) => format!(
                                    "producer {pi} finish{}",
                                    if crosses {
                                        " + cross-device transfer"
                                    } else {
                                        ""
                                    }
                                ),
                            }
                        ),
                    )
                    .with_node(src)
                    .with_context(p.sg.name.clone()),
                );
            }
        }
    }

    // --- Per-device monotone, non-overlapping intervals. --------------
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let mut intervals: Vec<(f64, f64, usize)> = recs
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                placed[*i].device == device && r.start_idx.is_some() && r.finish_idx.is_some()
            })
            .map(|(i, r)| (r.start_us, r.finish_us, i))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in intervals.windows(2) {
            let (_, prev_end, prev_sg) = w[0];
            let (next_start, _, next_sg) = w[1];
            if next_start < prev_end - eps(cfg, prev_end) {
                report.push(
                    Diagnostic::error(
                        codes::WITNESS_CLOCK_OVERLAP,
                        format!(
                            "device {device:?} virtual clock overlaps: subgraph {next_sg} \
                             ({}) starts at {:.3} us while subgraph {prev_sg} ({}) runs \
                             until {:.3} us",
                            placed[next_sg].sg.name, next_start, placed[prev_sg].sg.name, prev_end
                        ),
                    )
                    .with_context(format!("{device:?}")),
                );
            }
        }
    }

    // --- Transfer accounting. -----------------------------------------
    let mut expected: BTreeMap<TransferKey, f64> = BTreeMap::new();
    for (i, p) in placed.iter().enumerate() {
        for &src in &p.sg.inputs {
            let bytes = graph.node(src).shape.byte_size() as f64;
            if matches!(graph.node(src).op, Op::Input) {
                if p.device == DeviceKind::Gpu {
                    expected.insert((src, 0, Some(i)), bytes);
                }
            } else if let Some(&pi) = producer.get(&src) {
                if placed[pi].device != p.device {
                    expected.insert((src, 1, Some(i)), bytes);
                }
            }
        }
    }
    for &out in graph.outputs() {
        if let Some(&pi) = producer.get(&out) {
            if placed[pi].device == DeviceKind::Gpu {
                let bytes = graph.node(out).shape.byte_size() as f64;
                expected.insert((out, 2, None), bytes);
            }
        }
    }
    let kind_name = |tag: u8| ["H2D", "D2D", "D2H"][tag as usize];
    for (&(node, tag, consumer), &bytes) in &expected {
        match observed_transfers.get(&(node, tag, consumer)) {
            None => {
                report.push(
                    Diagnostic::error(
                        codes::WITNESS_MISSING_TRANSFER,
                        format!(
                            "missing {} transfer of node {node}{}",
                            kind_name(tag),
                            match consumer {
                                Some(c) => format!(" into subgraph {c} ({})", placed[c].sg.name),
                                None => " back to the host".to_string(),
                            }
                        ),
                    )
                    .with_node(node),
                );
            }
            Some(&(obs_bytes, obs_time, count)) => {
                if count != 1 {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_MISSING_TRANSFER,
                            format!(
                                "{} transfer of node {node} recorded {count} times \
                                 (expected once)",
                                kind_name(tag)
                            ),
                        )
                        .with_node(node),
                    );
                }
                let want_time = system.transfer_time_us(bytes);
                if (obs_bytes - bytes).abs() > eps(cfg, bytes)
                    || (obs_time - want_time).abs() > eps(cfg, want_time)
                {
                    report.push(
                        Diagnostic::error(
                            codes::WITNESS_TRANSFER_TIME,
                            format!(
                                "{} transfer of node {node} recorded as {obs_bytes} B / \
                                 {obs_time:.3} us; model prices {bytes} B / {want_time:.3} us",
                                kind_name(tag)
                            ),
                        )
                        .with_node(node),
                    );
                }
            }
        }
    }
    for &(node, tag, consumer) in observed_transfers.keys() {
        if !expected.contains_key(&(node, tag, consumer)) {
            report.push(
                Diagnostic::error(
                    codes::WITNESS_MISSING_TRANSFER,
                    format!(
                        "spurious {} transfer of node {node}: no device boundary crossed \
                         for this edge in the schedule",
                        kind_name(tag)
                    ),
                )
                .with_node(node),
            );
        }
    }

    // --- Reported latency vs. independent recomputation. --------------
    let complete = recs
        .iter()
        .all(|r| r.start_idx.is_some() && r.finish_idx.is_some());
    if complete {
        let mut want = 0.0f64;
        for &out in graph.outputs() {
            let Some(&pi) = producer.get(&out) else {
                continue;
            };
            let mut t = recs[pi].finish_us;
            if placed[pi].device == DeviceKind::Gpu {
                t += system.transfer_time_us(graph.node(out).shape.byte_size() as f64);
            }
            want = want.max(t);
        }
        if (witness.virtual_latency_us - want).abs() > eps(cfg, want) {
            report.push(Diagnostic::error(
                codes::WITNESS_LATENCY,
                format!(
                    "reported virtual latency {:.3} us differs from the max output-ready \
                     time {want:.3} us recomputed from the event log",
                    witness.virtual_latency_us
                ),
            ));
        }
    }

    crate::telemetry::record_check(crate::telemetry::Family::Witness, &report);
    report
}

/// Cross-check two witnesses of the *same* placed schedule — typically
/// the threaded executor's against the simulator's. Both record the one
/// noise-free replay, so the latencies must be the same `f64` (`D310`)
/// and every device must have dispatched the same subgraphs in the same
/// order (`D311`).
pub fn check_agreement(a: &ExecutionWitness, b: &ExecutionWitness) -> Report {
    let mut report = Report::new(format!("{}:agreement", a.model));
    if a.model != b.model {
        report.push(Diagnostic::error(
            codes::WITNESS_MALFORMED,
            format!(
                "cannot compare witnesses of different models ({} vs {})",
                a.model, b.model
            ),
        ));
        return report;
    }
    let (la, lb) = (a.virtual_latency_us, b.virtual_latency_us);
    if la.to_bits() != lb.to_bits() {
        report.push(Diagnostic::error(
            codes::WITNESS_DIVERGENCE_LATENCY,
            format!(
                "{} reports {la:?} us but {} reports {lb:?} us",
                a.source, b.source
            ),
        ));
    }
    let order_of = |w: &ExecutionWitness, device: DeviceKind| -> Vec<usize> {
        w.events
            .iter()
            .filter_map(|e| match e {
                WitnessEvent::Start { sg, device: d, .. } if *d == device => Some(*sg),
                _ => None,
            })
            .collect()
    };
    for device in [DeviceKind::Cpu, DeviceKind::Gpu] {
        let oa = order_of(a, device);
        let ob = order_of(b, device);
        if oa != ob {
            report.push(
                Diagnostic::error(
                    codes::WITNESS_DIVERGENCE_ORDER,
                    format!(
                        "{device:?} dispatch order differs: {} ran {oa:?}, {} ran {ob:?}",
                        a.source, b.source
                    ),
                )
                .with_context(format!("{device:?}")),
            );
        }
    }
    crate::telemetry::record_check(crate::telemetry::Family::Witness, &report);
    report
}
