//! Memory-plan checker (`D4xx`): verifies a compiled subgraph's
//! instruction tape and slot plan.
//!
//! The tape executor ([`duet_compiler::ExecutableTape`]) trades the
//! HashMap interpreter's per-value buffers for a liveness-planned slot
//! set — which makes three new classes of miscompilation possible:
//! clobbering a value another instruction still needs (slot reuse while
//! live), running an op in place on an input that is *not* dead, and
//! reordering the tape against the graph's data dependencies. This
//! checker re-derives liveness from the tape itself — independently of
//! the planner's own bookkeeping — and verifies:
//!
//! * **D400** the tape covers exactly the subgraph's nodes (anchors
//!   plus fused epilogue steps), feeds and outputs, with weight
//!   bindings matching the graph's parameters — and the priced kernels
//!   are the instructions: kernel *k*'s nodes are instruction *k*'s
//!   anchor followed by its epilogue nodes;
//! * **D401** tape order respects graph dependencies (a producer's
//!   instruction precedes every consumer's; within one fused
//!   instruction, only the chain-predecessor may be read);
//! * **D402** no two values with overlapping live ranges share a slot;
//! * **D403** in-place instructions only alias their dying first
//!   operand — and any instruction whose output slot doubles as an input
//!   slot *must* be flagged in place;
//! * **D404** slot volumes, per-instruction operand shapes, feed and
//!   weight shapes agree with the graph;
//! * **D405** (warning) the recorded peak-byte accounting is consistent
//!   and planned peak does not exceed naive peak;
//! * **D406** fused epilogue chains are sound: no epilogue operand
//!   aliases the buffer being mutated, interior chain values are
//!   sole-consumer and never escape, each step agrees with its graph
//!   node's operator, and fused batch-norms carry the dataflow
//!   well-conditioning proof.

use std::collections::{HashMap, HashSet};

use duet_compiler::{CompiledSubgraph, EpilogueOp, Instr, Operand};
use duet_ir::{Graph, NodeId, Op};
use duet_tensor::kernels::UnaryOp;

use crate::codes;
use crate::diagnostics::{Diagnostic, Report};

/// Verify `sg`'s memory plan against the graph it was compiled from.
pub fn check_memory_plan(graph: &Graph, sg: &CompiledSubgraph) -> Report {
    let mut report = Report::new(format!("{}/tape", sg.name));
    let tape = &sg.tape;
    let n_slots = tape.plan.slot_shapes.len();

    // --- D400: coverage -------------------------------------------------
    let tape_nodes: Vec<_> = tape.instrs.iter().flat_map(Instr::members).collect();
    let tape_set: HashSet<_> = tape_nodes.iter().copied().collect();
    let sg_set: HashSet<_> = sg.node_ids.iter().copied().collect();
    if tape_set != sg_set || tape_nodes.len() != sg.node_ids.len() {
        report.push(
            Diagnostic::error(
                codes::TAPE_COVERAGE,
                format!(
                    "tape instructions cover {} nodes but the subgraph has {}",
                    tape_nodes.len(),
                    sg.node_ids.len()
                ),
            )
            .with_context(&sg.name),
        );
    }
    let priced_as_run = sg.kernels.len() == tape.instrs.len()
        && sg
            .kernels
            .iter()
            .zip(&tape.instrs)
            .all(|(k, i)| k.nodes.iter().copied().eq(i.members()));
    if !priced_as_run {
        report.push(
            Diagnostic::error(
                codes::TAPE_COVERAGE,
                format!(
                    "the {} priced kernels are not the tape's {} instructions in order",
                    sg.kernels.len(),
                    tape.instrs.len()
                ),
            )
            .with_context(&sg.name),
        );
    }
    if tape.feed_ids != sg.inputs {
        report.push(
            Diagnostic::error(
                codes::TAPE_COVERAGE,
                "tape feed list disagrees with the subgraph's boundary inputs",
            )
            .with_context(&sg.name),
        );
    }
    let out_nodes: Vec<_> = tape.outputs.iter().map(|&(id, _)| id).collect();
    if out_nodes != sg.outputs {
        report.push(
            Diagnostic::error(
                codes::TAPE_COVERAGE,
                "tape output bindings disagree with the subgraph's outputs",
            )
            .with_context(&sg.name),
        );
    }

    // --- D404: shape agreement -----------------------------------------
    // Every member (anchor or epilogue step) maps to its instruction.
    let instr_of: HashMap<NodeId, usize> = tape
        .instrs
        .iter()
        .enumerate()
        .flat_map(|(k, i)| i.members().map(move |m| (m, k)))
        .collect();
    for (k, instr) in tape.instrs.iter().enumerate() {
        if instr.out >= n_slots {
            report.push(
                Diagnostic::error(
                    codes::TAPE_SLOT_SHAPE,
                    format!("instruction writes nonexistent slot {}", instr.out),
                )
                .with_node(instr.node)
                .with_context(&sg.name),
            );
            continue;
        }
        // The value left in the slot is the chain tail's.
        let tail = instr.members().last().expect("anchor always present");
        let value_shape = &graph.node(tail).shape;
        let slot = &tape.plan.slot_shapes[instr.out];
        if slot.volume() != value_shape.volume() {
            report.push(
                Diagnostic::error(
                    codes::TAPE_SLOT_SHAPE,
                    format!(
                        "instruction produces {} elements but its slot {} holds {}",
                        value_shape.volume(),
                        instr.out,
                        slot.volume()
                    ),
                )
                .with_node(instr.node)
                .with_context(&sg.name),
            );
        }
        if instr.out_shape != *value_shape {
            report.push(
                Diagnostic::error(
                    codes::TAPE_SLOT_SHAPE,
                    format!(
                        "recorded out_shape {:?} disagrees with the chain tail's graph \
                         shape {:?}",
                        instr.out_shape.dims(),
                        value_shape.dims()
                    ),
                )
                .with_node(instr.node)
                .with_context(&sg.name),
            );
        }
        // Slots are shape-polymorphic under coalescing, so the
        // per-instruction operand shapes are authoritative — each must
        // agree with what actually flows in: the producing
        // instruction's out_shape for slots, the bound tensor for
        // weights, the declared feed shape for feeds.
        if instr.arg_shapes.len() != instr.inputs.len() || instr.args > instr.inputs.len() {
            report.push(
                Diagnostic::error(
                    codes::TAPE_SLOT_SHAPE,
                    format!(
                        "operand bookkeeping inconsistent: {} inputs, {} arg_shapes, \
                         {} anchor args",
                        instr.inputs.len(),
                        instr.arg_shapes.len(),
                        instr.args
                    ),
                )
                .with_node(instr.node)
                .with_context(&sg.name),
            );
            continue;
        }
        for (i, operand) in instr.inputs.iter().enumerate() {
            let expect = match *operand {
                Operand::Slot(s) => tape.instrs[..k]
                    .iter()
                    .rev()
                    .find(|p| p.out == s)
                    .map(|p| p.out_shape.clone()),
                Operand::Weight(w) => tape.weights.get(w).map(|t| t.shape().clone()),
                Operand::Feed(f) => tape.feed_shapes.get(f).cloned(),
            };
            if let Some(expect) = expect {
                if instr.arg_shapes[i] != expect {
                    report.push(
                        Diagnostic::error(
                            codes::TAPE_SLOT_SHAPE,
                            format!(
                                "operand {i} records shape {:?} but the incoming value \
                                 has shape {:?}",
                                instr.arg_shapes[i].dims(),
                                expect.dims()
                            ),
                        )
                        .with_node(instr.node)
                        .with_context(&sg.name),
                    );
                }
            }
        }
    }
    for (w, &id) in tape.weight_ids.iter().enumerate() {
        let bound = &tape.weights[w];
        let expect = &graph.node(id).shape;
        if bound.shape() != expect {
            report.push(
                Diagnostic::error(
                    codes::TAPE_SLOT_SHAPE,
                    format!(
                        "weight binding {w} has shape {:?}, graph says {:?}",
                        bound.shape().dims(),
                        expect.dims()
                    ),
                )
                .with_node(id)
                .with_context(&sg.name),
            );
        }
    }

    // --- D401: tape order respects graph dependencies -------------------
    for (k, instr) in tape.instrs.iter().enumerate() {
        let chain: Vec<NodeId> = instr.members().collect();
        for (mi, &m) in chain.iter().enumerate() {
            for &src in &graph.node(m).inputs {
                let Some(&kp) = instr_of.get(&src) else {
                    continue;
                };
                // A same-instruction source is legal only as the chain
                // predecessor (the value flowing through the epilogue).
                let ok = kp < k || (kp == k && mi > 0 && chain[mi - 1] == src);
                if !ok {
                    report.push(
                        Diagnostic::error(
                            codes::TAPE_ORDER,
                            format!(
                                "instruction {k} consumes node {src}, which instruction {kp} \
                                 has not produced yet"
                            ),
                        )
                        .with_node(m)
                        .with_context(&sg.name),
                    );
                }
            }
        }
    }

    // --- Re-derive liveness from the tape alone -------------------------
    // A value is born at its instruction's index and dies at its last
    // reading instruction — or at the end of the tape if it escapes.
    let escaping: HashSet<usize> = tape.outputs.iter().map(|&(_, s)| s).collect();
    let end = tape.instrs.len();
    // births[slot] = list of (birth index, death index, in_place) in tape order.
    let mut lives: HashMap<usize, Vec<(usize, usize, bool)>> = HashMap::new();
    for (k, instr) in tape.instrs.iter().enumerate() {
        if instr.out >= n_slots {
            continue; // already reported under D404
        }
        let mut death = k;
        for (k2, later) in tape.instrs.iter().enumerate().skip(k + 1) {
            if later.inputs.contains(&Operand::Slot(instr.out)) {
                death = k2;
            }
            if later.out == instr.out {
                break; // slot rebound; reads past this belong to the next value
            }
        }
        let is_last_value_in_slot = !tape.instrs[k + 1..].iter().any(|l| l.out == instr.out);
        if is_last_value_in_slot && escaping.contains(&instr.out) {
            death = end;
        }
        lives
            .entry(instr.out)
            .or_default()
            .push((k, death, instr.in_place));
    }

    // --- D402: overlapping live ranges in one slot ----------------------
    for (&slot, ranges) in &lives {
        for pair in ranges.windows(2) {
            let (_, death1, _) = pair[0];
            let (birth2, _, in_place2) = pair[1];
            // The next value may be born exactly when the previous dies
            // only if the rebinding instruction is the in-place consumer
            // of the dying value.
            let ok = death1 < birth2 || (death1 == birth2 && in_place2);
            if !ok {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_SLOT_OVERLAP,
                        format!(
                            "slot {slot}: value born at instruction {} is overwritten at \
                             instruction {birth2} while still live (last use at {})",
                            pair[0].0, death1
                        ),
                    )
                    .with_node(tape.instrs[birth2].node)
                    .with_context(&sg.name),
                );
            }
        }
    }

    // --- D403: in-place aliasing discipline ------------------------------
    for (k, instr) in tape.instrs.iter().enumerate() {
        let reads_own_slot = instr.inputs.contains(&Operand::Slot(instr.out));
        if instr.in_place {
            let first_is_own =
                matches!(instr.inputs.first(), Some(&Operand::Slot(s)) if s == instr.out);
            // Either unconditionally capable, or proof-gated ("extended")
            // — the same dataflow proof the planner used must still hold
            // when the tape is checked.
            let proven = instr.node < graph.len()
                && duet_compiler::memory::in_place_extended(graph, graph.node(instr.node));
            if !instr.op.is_fusable_elementwise() && !proven {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_INPLACE,
                        format!(
                            "instruction {k} ({}) is flagged in-place but the op cannot \
                             run in place",
                            instr.op.name()
                        ),
                    )
                    .with_node(instr.node)
                    .with_context(&sg.name),
                );
            } else if !first_is_own {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_INPLACE,
                        format!(
                            "instruction {k} is flagged in-place but its first operand \
                             is not its output slot {}",
                            instr.out
                        ),
                    )
                    .with_node(instr.node)
                    .with_context(&sg.name),
                );
            } else if instr.inputs[1..].contains(&Operand::Slot(instr.out)) {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_INPLACE,
                        format!(
                            "instruction {k} runs in place on slot {} but another operand \
                             reads the same slot",
                            instr.out
                        ),
                    )
                    .with_node(instr.node)
                    .with_context(&sg.name),
                );
            }
        } else if reads_own_slot {
            report.push(
                Diagnostic::error(
                    codes::TAPE_INPLACE,
                    format!(
                        "instruction {k} writes slot {} that it also reads, without being \
                         flagged in-place",
                        instr.out
                    ),
                )
                .with_node(instr.node)
                .with_context(&sg.name),
            );
        }
    }

    // --- D406: fused epilogue chains ------------------------------------
    let escaping_nodes: HashSet<NodeId> = tape.outputs.iter().map(|&(id, _)| id).collect();
    for (k, instr) in tape.instrs.iter().enumerate() {
        let chain: Vec<NodeId> = instr.members().collect();
        // Interior chain values are elided — they never materialize, so
        // every one must be consumed by its chain successor alone and
        // must not escape the subgraph.
        for w in chain.windows(2) {
            let (cur, next) = (w[0], w[1]);
            let n = graph.node(cur);
            if n.outputs.len() != 1 || n.outputs[0] != next || escaping_nodes.contains(&cur) {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_FUSED_ALIAS,
                        format!(
                            "instruction {k} elides chain value {cur}, but it is not the \
                             sole input of its successor {next} (or it escapes)"
                        ),
                    )
                    .with_node(cur)
                    .with_context(&sg.name),
                );
            }
        }
        for (si, step) in instr.epilogue.iter().enumerate() {
            let enode = graph.node(step.node);
            let chain_val = chain[si];
            // Operand references must stay in range and must never
            // alias the output buffer the epilogue is mutating.
            let refs: Vec<usize> = match step.op {
                EpilogueOp::Unary(_) | EpilogueOp::Scale(_) => vec![],
                EpilogueOp::Add { rhs } | EpilogueOp::Sub { rhs, .. } | EpilogueOp::Mul { rhs } => {
                    vec![rhs]
                }
                EpilogueOp::BiasAdd { bias } => vec![bias],
                EpilogueOp::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    ..
                } => vec![gamma, beta, mean, var],
            };
            for &r in &refs {
                if r >= instr.inputs.len() {
                    report.push(
                        Diagnostic::error(
                            codes::TAPE_FUSED_ALIAS,
                            format!(
                                "epilogue step {si} of instruction {k} references operand \
                                 {r}, but the instruction has {}",
                                instr.inputs.len()
                            ),
                        )
                        .with_node(step.node)
                        .with_context(&sg.name),
                    );
                } else if instr.inputs[r] == Operand::Slot(instr.out) {
                    report.push(
                        Diagnostic::error(
                            codes::TAPE_FUSED_ALIAS,
                            format!(
                                "epilogue step {si} of instruction {k} reads slot {} — \
                                 the buffer the chain is mutating",
                                instr.out
                            ),
                        )
                        .with_node(step.node)
                        .with_context(&sg.name),
                    );
                }
            }
            // The recorded in-place operation must realize exactly the
            // graph node's operator applied to the chain value.
            let agrees = match (&enode.op, step.op) {
                (Op::Relu, EpilogueOp::Unary(UnaryOp::Relu))
                | (Op::Sigmoid, EpilogueOp::Unary(UnaryOp::Sigmoid))
                | (Op::Tanh, EpilogueOp::Unary(UnaryOp::Tanh))
                | (Op::Gelu, EpilogueOp::Unary(UnaryOp::Gelu)) => true,
                (Op::Scale { factor }, EpilogueOp::Scale(f)) => factor.to_bits() == f.to_bits(),
                (Op::Add, EpilogueOp::Add { .. }) | (Op::Mul, EpilogueOp::Mul { .. }) => true,
                (Op::Sub, EpilogueOp::Sub { reversed, .. }) => {
                    reversed == (enode.inputs[1] == chain_val)
                }
                (Op::BiasAdd, EpilogueOp::BiasAdd { .. }) => enode.inputs[0] == chain_val,
                // A fused batch-norm reinterprets the buffer through the
                // node's shape and bakes in the scale factors — the same
                // dataflow proof the planner used must still hold here.
                (Op::BatchNorm2d, EpilogueOp::BatchNorm { .. }) => {
                    enode.inputs[0] == chain_val
                        && duet_ir::absint::prove_batchnorm_inplace(graph, enode)
                }
                _ => false,
            };
            if !agrees {
                report.push(
                    Diagnostic::error(
                        codes::TAPE_FUSED_ALIAS,
                        format!(
                            "epilogue step {si} of instruction {k} ({:?}) does not realize \
                             graph node {}'s operator {}",
                            step.op,
                            step.node,
                            enode.op.name()
                        ),
                    )
                    .with_node(step.node)
                    .with_context(&sg.name),
                );
            }
        }
    }

    // --- D405: peak-byte accounting (warning) ----------------------------
    let planned: usize = tape.plan.slot_shapes.iter().map(|s| s.byte_size()).sum();
    let naive: usize = sg
        .node_ids
        .iter()
        .map(|&id| graph.node(id).shape.byte_size())
        .sum();
    if planned != tape.plan.planned_peak_bytes
        || naive != tape.plan.naive_peak_bytes
        || tape.plan.planned_peak_bytes > tape.plan.naive_peak_bytes
    {
        report.push(
            Diagnostic::warning(
                codes::TAPE_PEAK_ACCOUNTING,
                format!(
                    "plan records planned/naive peak {}/{} bytes; recomputed {}/{}",
                    tape.plan.planned_peak_bytes, tape.plan.naive_peak_bytes, planned, naive
                ),
            )
            .with_context(&sg.name),
        );
    }

    crate::telemetry::record_check(crate::telemetry::Family::Memory, &report);
    report
}

/// Run [`check_memory_plan`] over every placed subgraph of an engine
/// schedule, merging findings into one report.
pub fn check_memory_plans<'a>(
    graph: &Graph,
    subgraphs: impl IntoIterator<Item = &'a CompiledSubgraph>,
) -> Report {
    let mut report = Report::new(format!("{}/memory", graph.name));
    for sg in subgraphs {
        report.merge(check_memory_plan(graph, sg));
    }
    report
}
