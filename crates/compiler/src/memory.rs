//! Static memory planning and the register-graph instruction tape.
//!
//! Lowering used to hand the executor a per-call HashMap interpreter:
//! every inference re-resolved node ids, cloned resident weights out of
//! the graph and allocated a fresh buffer per op. This module replaces
//! that with a compile-time plan:
//!
//! * **Epilogue-chain fusion** — each fusion group
//!   ([`crate::passes::fuse_groups`]: an anchor and its sole-consumer
//!   chain of elementwise followers — relu, scale, residual add, bias-add,
//!   proof-gated inference batch-norm) emits as *one* instruction, the
//!   followers as [`EpilogueStep`]s. `linear → relu → add` and
//!   `conv → batchnorm → relu` each run as a single instruction whose
//!   intermediates never materialize: the epilogue mutates the anchor's
//!   output buffer in registers-to-slot order. A standalone elementwise
//!   instruction runs the same step code on operand 0 copied into its
//!   slot (or on the slot itself, in place), so fused and unfused tapes
//!   run one loop per operator and agree bit for bit. Singleton groups
//!   give one instruction per node.
//! * **Tape-order scheduling** — the groups are list-scheduled with a
//!   bytes-freed-greedy heuristic: among ready groups, prefer the one
//!   that releases the most dead input bytes net of its own output
//!   allocation. Any topological order is semantically equal; this one
//!   shortens live ranges so the slot planner sees more reuse.
//! * **Liveness-based slot assignment** — each value's last use is
//!   computed over the tape; a dead *equal-volume* slot is recycled
//!   (shape-changing reuse is "coalescing", counted separately) before a
//!   new one is opened, and elementwise anchors run **in place** on their
//!   first operand when it dies at that instruction. [`MemoryPlan`]
//!   records planned vs. naive peak bytes plus fusion/coalescing counts.
//! * **Arena** — a [`TapeArena`] is the slab of slot buffers one
//!   execution writes into; an [`ArenaPool`] recycles arenas across
//!   requests (keyed by tape fingerprint) so steady-state serving does
//!   near-zero tensor allocation.
//!
//! Because slots are shape-polymorphic under coalescing, every
//! instruction carries its own operand shapes ([`Instr::arg_shapes`])
//! and output shape ([`Instr::out_shape`]); `plan.slot_shapes` records
//! the shape each slot was *opened* with and is only authoritative for
//! volume.
//!
//! Escaping values (subgraph outputs) are published as tensors that
//! share their slot's buffer; the next execution that finds such a slot
//! still shared simply re-allocates it (a "refresh"), so aliasing is
//! never observable from outside.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use duet_ir::{Graph, GraphError, Node, NodeId, Op};
use duet_tensor::kernels::{self, UnaryOp};
use duet_tensor::{Shape, Tensor, TensorError};

/// Where an instruction input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Value produced earlier on the tape, living in an arena slot.
    Slot(usize),
    /// Resident weight, bound at lowering time (index into `weights`).
    Weight(usize),
    /// Boundary feed (index into `feed_ids`).
    Feed(usize),
}

/// One fused follower applied to the anchor's output buffer in place.
/// Operand references are indices into the owning [`Instr::inputs`]
/// (always `>= Instr::args`, the extras appended after the anchor's own
/// arguments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpilogueOp {
    /// `buf = u(buf)` elementwise.
    Unary(UnaryOp),
    /// `buf *= factor`.
    Scale(f32),
    /// `buf += inputs[rhs]` elementwise.
    Add { rhs: usize },
    /// `buf -= inputs[rhs]`, or `buf = inputs[rhs] - buf` when
    /// `reversed` (the chain value was the graph op's second operand).
    Sub { rhs: usize, reversed: bool },
    /// `buf *= inputs[rhs]` elementwise.
    Mul { rhs: usize },
    /// `buf += inputs[bias]` broadcast over the trailing dim.
    BiasAdd { bias: usize },
    /// Inference batch-norm over the buffer interpreted through the
    /// node's NCHW shape. Fused only when
    /// [`duet_ir::absint::prove_batchnorm_inplace`] holds for the node, so
    /// its four parameters are constants: they are folded at tape build
    /// into [`ExecutableTape::bn_folds`]`[fold]`, which is what runs.
    BatchNorm {
        gamma: usize,
        beta: usize,
        mean: usize,
        var: usize,
        fold: usize,
    },
}

/// A fused batch norm's per-channel parameters, folded at tape build by
/// [`kernels::batch_norm2d_fold`] from its constant operands (`eps` 1e-5),
/// so they are the bits the unfused kernel computes per call.
#[derive(Debug, Clone, PartialEq)]
pub struct BnFold {
    pub scale: Vec<f32>,
    pub shift: Vec<f32>,
    /// Floats per channel plane of the normalized value.
    pub plane: usize,
}

/// One node of an absorbed epilogue chain: which graph node it computes
/// and the in-place operation that realizes it.
#[derive(Debug, Clone, PartialEq)]
pub struct EpilogueStep {
    /// Graph node this step computes (for diagnostics/verification).
    pub node: NodeId,
    /// The in-place operation applied to the output buffer.
    pub op: EpilogueOp,
}

/// One tape instruction: an anchor op with pre-resolved operands, an
/// absorbed epilogue chain and a destination slot.
#[derive(Debug, Clone)]
pub struct Instr {
    /// Graph node the *anchor* op computes (for diagnostics/outputs).
    pub node: NodeId,
    /// The anchor operator to run.
    pub op: Op,
    /// Pre-resolved inputs: the anchor's own arguments (`..args`)
    /// followed by extra operands referenced by epilogue steps.
    pub inputs: Vec<Operand>,
    /// How many leading `inputs` belong to the anchor op itself.
    pub args: usize,
    /// Shape of each operand in `inputs` (authoritative — slot shapes
    /// may be coalesced).
    pub arg_shapes: Vec<Shape>,
    /// Fused followers applied to the output buffer, in chain order.
    pub epilogue: Vec<EpilogueStep>,
    /// Destination slot index.
    pub out: usize,
    /// Shape of the value this instruction leaves in `out` (the last
    /// chain node's shape; equal to the anchor's when no epilogue).
    pub out_shape: Shape,
    /// True if this op overwrites its first operand's slot (which the
    /// planner proved dead after this instruction).
    pub in_place: bool,
}

impl Instr {
    /// The graph nodes this instruction computes: the anchor, then its
    /// epilogue steps in chain order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.node).chain(self.epilogue.iter().map(|s| s.node))
    }
}

/// What the liveness planner decided, plus its accounting.
#[derive(Debug, Clone)]
pub struct MemoryPlan {
    /// Shape each physical slot was opened with (the arena allocates one
    /// buffer of that volume each; later values may coalesce into it
    /// with a different shape of equal volume).
    pub slot_shapes: Vec<Shape>,
    /// Bytes the slot set occupies — the planned peak.
    pub planned_peak_bytes: usize,
    /// Bytes a one-buffer-per-value interpreter would hold live.
    pub naive_peak_bytes: usize,
    /// Instructions executing in place on a dead input slot.
    pub in_place_ops: usize,
    /// Values that recycled a previously freed equal-volume slot.
    pub reused_slots: usize,
    /// Epilogue steps fused into anchor instructions (intermediates that
    /// never materialized).
    pub fused_epilogues: usize,
    /// Slot reuses whose new shape differed from the slot's opening
    /// shape (equal volume) — reuse a shape-keyed free list would miss.
    pub coalesced_slots: usize,
}

/// A compiled, memory-planned executable for one subgraph.
#[derive(Debug, Clone)]
pub struct ExecutableTape {
    /// Instructions in execution (topological) order.
    pub instrs: Vec<Instr>,
    /// Weight tensors bound once at lowering ([`Operand::Weight`] order).
    pub weights: Vec<Tensor>,
    /// Graph node each weight binding came from (parallel to `weights`).
    pub weight_ids: Vec<NodeId>,
    /// Boundary inputs in feed-resolution order ([`Operand::Feed`]).
    pub feed_ids: Vec<NodeId>,
    /// Expected shape of each feed (parallel to `feed_ids`).
    pub feed_shapes: Vec<Shape>,
    /// Escaping values: node id and the slot holding its result.
    pub outputs: Vec<(NodeId, usize)>,
    /// Shape of each escaping value (parallel to `outputs`; slots may be
    /// coalesced, so the slot's opening shape is not authoritative).
    pub output_shapes: Vec<Shape>,
    /// The slot plan and its accounting.
    pub plan: MemoryPlan,
    /// Folded parameters of the fused batch norms
    /// ([`EpilogueOp::BatchNorm`]'s `fold`), shared by the tape's clones.
    pub bn_folds: Arc<[BnFold]>,
    /// FNV fold over the whole tape; arenas are keyed by this.
    pub fingerprint: u64,
}

/// The slab of slot buffers one tape execution writes into.
///
/// Slots are `Arc<[f32]>` so escaping outputs can be published without a
/// copy; a slot still shared at the next execution (its consumer kept the
/// tensor alive) is transparently re-allocated.
#[derive(Debug)]
pub struct TapeArena {
    fingerprint: u64,
    slots: Vec<Arc<[f32]>>,
    empty: Arc<[f32]>,
}

impl TapeArena {
    /// Allocate a fresh arena sized for `tape`.
    pub fn for_tape(tape: &ExecutableTape) -> Self {
        TapeArena {
            fingerprint: tape.fingerprint,
            slots: tape
                .plan
                .slot_shapes
                .iter()
                .map(|s| zero_arc(s.volume()))
                .collect(),
            empty: Vec::new().into(),
        }
    }

    /// Fingerprint of the tape this arena was sized for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn take(&mut self, slot: usize) -> Arc<[f32]> {
        std::mem::replace(&mut self.slots[slot], Arc::clone(&self.empty))
    }
}

fn zero_arc(n: usize) -> Arc<[f32]> {
    (0..n).map(|_| 0.0f32).collect()
}

/// Running totals for an [`ArenaPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaPoolStats {
    /// Arenas allocated because none was available for the fingerprint.
    pub created: u64,
    /// Checkouts served from the pool (steady-state hits).
    pub reused: u64,
}

/// Recycles [`TapeArena`]s across requests, keyed by tape fingerprint.
///
/// The engine owns one pool; each executor run checks an arena out per
/// subgraph and returns it after the reply, so steady-state serving
/// allocates no fresh slot buffers.
#[derive(Debug, Default)]
pub struct ArenaPool {
    shelves: Mutex<HashMap<u64, Vec<TapeArena>>>,
    created: AtomicU64,
    reused: AtomicU64,
}

/// Arenas kept per fingerprint; more are dropped on return.
const POOL_DEPTH: usize = 8;

impl ArenaPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an arena for `tape`, reusing a pooled one if available.
    pub fn checkout(&self, tape: &ExecutableTape) -> TapeArena {
        let pooled = self
            .shelves
            .lock()
            .expect("arena pool poisoned")
            .get_mut(&tape.fingerprint)
            .and_then(Vec::pop);
        match pooled {
            Some(a) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                duet_telemetry::registry::ARENA_CHECKOUTS_REUSED.inc();
                a
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                duet_telemetry::registry::ARENA_CHECKOUTS_CREATED.inc();
                TapeArena::for_tape(tape)
            }
        }
    }

    /// Return an arena for later reuse.
    pub fn give_back(&self, arena: TapeArena) {
        let mut shelves = self.shelves.lock().expect("arena pool poisoned");
        let shelf = shelves.entry(arena.fingerprint).or_default();
        if shelf.len() < POOL_DEPTH {
            shelf.push(arena);
        }
    }

    /// Checkout/creation totals so far.
    pub fn stats(&self) -> ArenaPoolStats {
        ArenaPoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// Ops the planner may run in place only when the dataflow analyzer can
/// *prove* the specific node safe (vs. the unconditional
/// [`Op::is_fusable_elementwise`] list). Today: a BatchNorm2d epilogue whose four parameters are
/// constants proven finite with `min(var) + eps > 0` — its kernel is
/// elementwise per position, so overwriting the dying input slot is
/// exactly as safe as a relu, but only once the scale factors are known
/// not to blow up (see [`duet_ir::absint::prove_batchnorm_inplace`]).
pub fn in_place_extended(graph: &Graph, node: &Node) -> bool {
    matches!(node.op, Op::BatchNorm2d) && duet_ir::absint::prove_batchnorm_inplace(graph, node)
}

/// Put fusion `groups` in the order their instructions are emitted:
/// topological, ties broken bytes-freed-greedy — among ready groups the
/// one releasing the most dead input bytes net of its own output
/// allocation (then lowest original index, for determinism). `outputs`
/// are the values that escape the subgraph (never freed).
pub fn emission_order(
    graph: &Graph,
    mut groups: Vec<Vec<NodeId>>,
    outputs: &[NodeId],
) -> Vec<Vec<NodeId>> {
    let escape_set: HashSet<NodeId> = outputs.iter().copied().collect();
    let order = schedule_groups(graph, &groups, &escape_set);
    order
        .into_iter()
        .map(|g| std::mem::take(&mut groups[g]))
        .collect()
}

/// The permutation [`emission_order`] applies.
fn schedule_groups(
    graph: &Graph,
    groups: &[Vec<NodeId>],
    escape_set: &HashSet<NodeId>,
) -> Vec<usize> {
    let n = groups.len();
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    for (g, members) in groups.iter().enumerate() {
        for &m in members {
            group_of.insert(m, g);
        }
    }
    // Group-level dependency edges and per-value consumer counts. A
    // group's consumed values are the *tails* of other groups (chain
    // intermediates are only ever read inside their own group).
    let mut consumed: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut indegree: Vec<usize> = vec![0; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut consumers_left: HashMap<NodeId, usize> = HashMap::new();
    for (g, members) in groups.iter().enumerate() {
        let mut preds: Vec<usize> = Vec::new();
        for &m in members {
            for &src in &graph.node(m).inputs {
                match group_of.get(&src) {
                    Some(&pg) if pg != g => {
                        if !consumed[g].contains(&src) {
                            consumed[g].push(src);
                            *consumers_left.entry(src).or_insert(0) += 1;
                        }
                        if !preds.contains(&pg) {
                            preds.push(pg);
                        }
                    }
                    _ => {}
                }
            }
        }
        indegree[g] = preds.len();
        for pg in preds {
            successors[pg].push(g);
        }
    }

    let tail_bytes = |g: usize| -> i64 {
        graph
            .node(*groups[g].last().expect("non-empty group"))
            .shape
            .byte_size() as i64
    };
    let mut ready: Vec<usize> = (0..n).filter(|&g| indegree[g] == 0).collect();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    while !ready.is_empty() {
        let score = |g: usize| -> i64 {
            let freed: i64 = consumed[g]
                .iter()
                .filter(|&&v| !escape_set.contains(&v) && consumers_left[&v] == 1)
                .map(|&v| graph.node(v).shape.byte_size() as i64)
                .sum();
            freed - tail_bytes(g)
        };
        let pos = (0..ready.len())
            .max_by_key(|&i| (score(ready[i]), std::cmp::Reverse(ready[i])))
            .expect("non-empty ready set");
        let g = ready.swap_remove(pos);
        order.push(g);
        for &v in &consumed[g] {
            *consumers_left.get_mut(&v).expect("counted above") -= 1;
        }
        for &s in &successors[g] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.push(s);
            }
        }
    }
    assert_eq!(order.len(), n, "group dependency cycle (graph is a DAG)");
    order
}

/// Resolves graph value ids to tape operands, creating weight bindings
/// on first sight.
struct OperandBinder<'g> {
    graph: &'g Graph,
    feed_index: HashMap<NodeId, usize>,
    weights: Vec<Tensor>,
    weight_ids: Vec<NodeId>,
    weight_index: HashMap<NodeId, usize>,
}

impl OperandBinder<'_> {
    fn resolve(&mut self, slot_of: &HashMap<NodeId, usize>, src: NodeId) -> Operand {
        if let Some(&s) = slot_of.get(&src) {
            Operand::Slot(s)
        } else if let Some(&f) = self.feed_index.get(&src) {
            Operand::Feed(f)
        } else {
            let w = *self.weight_index.entry(src).or_insert_with(|| {
                let t = self
                    .graph
                    .param(src)
                    .cloned()
                    .unwrap_or_else(|| Tensor::zeros(node_shape(self.graph, src)));
                self.weights.push(t);
                self.weight_ids.push(src);
                self.weights.len() - 1
            });
            Operand::Weight(w)
        }
    }
}

impl ExecutableTape {
    /// Plan fusion `groups` of `graph` into a tape: one instruction per
    /// group, in the order given ([`emission_order`]), its anchor first
    /// and the rest as epilogue steps, each member reading the one before
    /// it ([`crate::passes::fuse_groups`] makes such groups; singletons
    /// are always valid).
    ///
    /// `boundary_inputs` are the values fed at run time; `outputs` the
    /// values that escape the subgraph (their slots are never recycled).
    pub fn build(
        graph: &Graph,
        groups: &[Vec<NodeId>],
        boundary_inputs: &[NodeId],
        outputs: &[NodeId],
    ) -> Self {
        let in_set: HashSet<NodeId> = groups.iter().flatten().copied().collect();
        let feed_index: HashMap<NodeId, usize> = boundary_inputs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();

        // Last emission index reading each materialized value (group
        // tails); escaping values stay live to the end of the tape.
        // Chain-internal reads are not uses — the value never exists.
        let mut last_use: HashMap<NodeId, usize> = HashMap::new();
        for (k, group) in groups.iter().enumerate() {
            let members: HashSet<NodeId> = group.iter().copied().collect();
            for &m in group {
                for &src in &graph.node(m).inputs {
                    if in_set.contains(&src) && !members.contains(&src) {
                        last_use.insert(src, k);
                    }
                }
            }
        }
        for &o in outputs {
            last_use.insert(o, usize::MAX);
        }

        let mut binder = OperandBinder {
            graph,
            feed_index,
            weights: Vec::new(),
            weight_ids: Vec::new(),
            weight_index: HashMap::new(),
        };
        let mut slot_shapes: Vec<Shape> = Vec::new();
        let mut slot_of: HashMap<NodeId, usize> = HashMap::new();
        // Dead slots by volume: any equal-volume slot may be recycled.
        let mut free: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut in_place_ops = 0usize;
        let mut reused_slots = 0usize;
        let mut fused_epilogues = 0usize;
        let mut coalesced_slots = 0usize;
        let mut bn_folds: Vec<BnFold> = Vec::new();

        let mut instrs: Vec<Instr> = Vec::with_capacity(groups.len());
        for (k, group) in groups.iter().enumerate() {
            let anchor_id = group[0];
            let anchor = graph.node(anchor_id);
            let tail_id = *group.last().expect("non-empty group");
            let out_shape = node_shape(graph, tail_id);

            let mut inputs: Vec<Operand> = Vec::with_capacity(anchor.inputs.len());
            let mut arg_shapes: Vec<Shape> = Vec::with_capacity(anchor.inputs.len());
            // Distinct graph values this instruction consumes (for the
            // dying-slot release below).
            let mut consumed: Vec<NodeId> = Vec::new();
            for &src in &anchor.inputs {
                inputs.push(binder.resolve(&slot_of, src));
                arg_shapes.push(node_shape(graph, src));
                if in_set.contains(&src) && !consumed.contains(&src) {
                    consumed.push(src);
                }
            }
            let args = inputs.len();

            let mut epilogue: Vec<EpilogueStep> = Vec::with_capacity(group.len() - 1);
            let mut chain = anchor_id;
            for &e in &group[1..] {
                let enode = graph.node(e);
                assert!(
                    enode.inputs.contains(&chain),
                    "fusion group member {e} does not read its predecessor {chain}"
                );
                // Append the non-chain operand(s) and record their index.
                let mut extra = |src: NodeId,
                                 inputs: &mut Vec<Operand>,
                                 arg_shapes: &mut Vec<Shape>|
                 -> usize {
                    inputs.push(binder.resolve(&slot_of, src));
                    arg_shapes.push(node_shape(graph, src));
                    if in_set.contains(&src) && !consumed.contains(&src) {
                        consumed.push(src);
                    }
                    inputs.len() - 1
                };
                let op = match enode.op {
                    Op::Relu | Op::Sigmoid | Op::Tanh | Op::Gelu | Op::Scale { .. } => {
                        standalone_step(&enode.op)
                    }
                    Op::Add => {
                        let other = other_operand(enode, chain);
                        EpilogueOp::Add {
                            rhs: extra(other, &mut inputs, &mut arg_shapes),
                        }
                    }
                    Op::Mul => {
                        let other = other_operand(enode, chain);
                        EpilogueOp::Mul {
                            rhs: extra(other, &mut inputs, &mut arg_shapes),
                        }
                    }
                    Op::Sub => {
                        let reversed = enode.inputs[1] == chain;
                        let other = other_operand(enode, chain);
                        EpilogueOp::Sub {
                            rhs: extra(other, &mut inputs, &mut arg_shapes),
                            reversed,
                        }
                    }
                    Op::BiasAdd => EpilogueOp::BiasAdd {
                        bias: extra(enode.inputs[1], &mut inputs, &mut arg_shapes),
                    },
                    Op::BatchNorm2d => {
                        bn_folds.push(fold_batch_norm(graph, enode));
                        EpilogueOp::BatchNorm {
                            gamma: extra(enode.inputs[1], &mut inputs, &mut arg_shapes),
                            beta: extra(enode.inputs[2], &mut inputs, &mut arg_shapes),
                            mean: extra(enode.inputs[3], &mut inputs, &mut arg_shapes),
                            var: extra(enode.inputs[4], &mut inputs, &mut arg_shapes),
                            fold: bn_folds.len() - 1,
                        }
                    }
                    ref other => unreachable!("non-fusable epilogue op {}", other.name()),
                };
                epilogue.push(EpilogueStep { node: e, op });
                chain = e;
            }
            fused_epilogues += epilogue.len();

            // In-place: the anchor's first operand is a slot value that
            // dies right here and no other operand (including epilogue
            // extras) aliases the same slot.
            let dies_here = |src: NodeId| last_use.get(&src) == Some(&k);
            // Extended (proof-gated) candidates additionally need the
            // incoming value's shape to match the node's exactly,
            // because their kernels reinterpret the buffer through it.
            let extended = in_place_extended(graph, anchor);
            let in_place_slot = if anchor.op.is_fusable_elementwise() || extended {
                match (anchor.inputs.first(), inputs.first()) {
                    (Some(&src0), Some(&Operand::Slot(s)))
                        if dies_here(src0)
                            && slot_shapes[s].volume() == out_shape.volume()
                            && (!extended || arg_shapes[0] == anchor.shape)
                            && !inputs[1..].contains(&Operand::Slot(s)) =>
                    {
                        Some(s)
                    }
                    _ => None,
                }
            } else {
                None
            };

            let (out, in_place) = match in_place_slot {
                Some(s) => {
                    in_place_ops += 1;
                    (s, true)
                }
                None => {
                    let slot = match free.get_mut(&out_shape.volume()).and_then(Vec::pop) {
                        Some(s) => {
                            reused_slots += 1;
                            if slot_shapes[s] != out_shape {
                                coalesced_slots += 1;
                            }
                            s
                        }
                        None => {
                            slot_shapes.push(out_shape.clone());
                            slot_shapes.len() - 1
                        }
                    };
                    (slot, false)
                }
            };
            slot_of.insert(tail_id, out);

            // Release dying input slots *after* the output was assigned
            // so a non-in-place op never aliases its own input. The
            // in-place slot itself was consumed, not freed.
            let mut freed: Vec<usize> = Vec::new();
            for &src in &consumed {
                if let Some(&s) = slot_of.get(&src) {
                    if src != tail_id && dies_here(src) && s != out && !freed.contains(&s) {
                        free.entry(slot_shapes[s].volume()).or_default().push(s);
                        freed.push(s);
                    }
                }
            }

            instrs.push(Instr {
                node: anchor_id,
                op: anchor.op.clone(),
                inputs,
                args,
                arg_shapes,
                epilogue,
                out,
                out_shape,
                in_place,
            });
        }

        let out_slots: Vec<(NodeId, usize)> = outputs.iter().map(|&o| (o, slot_of[&o])).collect();
        let output_shapes: Vec<Shape> = outputs.iter().map(|&o| node_shape(graph, o)).collect();
        let planned_peak_bytes: usize = slot_shapes.iter().map(Shape::byte_size).sum();
        let naive_peak_bytes: usize = in_set
            .iter()
            .map(|&id| graph.node(id).shape.byte_size())
            .sum();
        let plan = MemoryPlan {
            slot_shapes,
            planned_peak_bytes,
            naive_peak_bytes,
            in_place_ops,
            reused_slots,
            fused_epilogues,
            coalesced_slots,
        };
        let fingerprint = tape_fingerprint(&instrs, &plan, &out_slots);
        ExecutableTape {
            instrs,
            weights: binder.weights,
            weight_ids: binder.weight_ids,
            feed_ids: boundary_inputs.to_vec(),
            feed_shapes: boundary_inputs
                .iter()
                .map(|&id| node_shape(graph, id))
                .collect(),
            outputs: out_slots,
            output_shapes,
            plan,
            bn_folds: bn_folds.into(),
            fingerprint,
        }
    }
}

/// The folded parameters of a batch norm that
/// [`duet_ir::absint::prove_batchnorm_inplace`] admitted: its four
/// parameters are constants with data.
fn fold_batch_norm(graph: &Graph, node: &Node) -> BnFold {
    let param = |i: usize| {
        graph
            .param(node.inputs[i])
            .expect("a fused batch norm's parameters are proven constants")
            .data()
    };
    BnFold::new([param(1), param(2), param(3), param(4)], &node.shape)
}

impl BnFold {
    /// Batch norm's `[gamma, beta, mean, var]` folded for an NCHW value of
    /// `shape`.
    fn new(p: [&[f32]; 4], shape: &Shape) -> BnFold {
        let (scale, shift) = kernels::batch_norm2d_fold(p[0], p[1], p[2], p[3], 1e-5);
        BnFold {
            scale,
            shift,
            plane: shape.dim(2) * shape.dim(3),
        }
    }
}

/// The in-place step a standalone elementwise instruction runs once
/// operand 0 is in its output: the epilogue step the op is fused as, with
/// its other operands from operand 1 on. A standalone batch norm's
/// parameters need not be constants, so it names fold 0 of a list its
/// instruction folds per run.
fn standalone_step(op: &Op) -> EpilogueOp {
    match *op {
        Op::Relu => EpilogueOp::Unary(UnaryOp::Relu),
        Op::Sigmoid => EpilogueOp::Unary(UnaryOp::Sigmoid),
        Op::Tanh => EpilogueOp::Unary(UnaryOp::Tanh),
        Op::Gelu => EpilogueOp::Unary(UnaryOp::Gelu),
        Op::Scale { factor } => EpilogueOp::Scale(factor),
        Op::Add => EpilogueOp::Add { rhs: 1 },
        Op::Sub => EpilogueOp::Sub {
            rhs: 1,
            reversed: false,
        },
        Op::Mul => EpilogueOp::Mul { rhs: 1 },
        Op::BiasAdd => EpilogueOp::BiasAdd { bias: 1 },
        Op::BatchNorm2d => EpilogueOp::BatchNorm {
            gamma: 1,
            beta: 2,
            mean: 3,
            var: 4,
            fold: 0,
        },
        ref other => unreachable!("{} is not elementwise", other.name()),
    }
}

/// The operand of a binary `node` that is *not* the chain value (the
/// chain appears exactly once; guaranteed by the fusion grouper's
/// `epilogue_fusable`).
fn other_operand(node: &Node, chain: NodeId) -> NodeId {
    if node.inputs[0] == chain {
        node.inputs[1]
    } else {
        node.inputs[0]
    }
}

impl ExecutableTape {
    /// Execute with a fresh arena (convenience; allocates the slot slab).
    pub fn execute(
        &self,
        env: &HashMap<NodeId, Tensor>,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        let mut arena = TapeArena::for_tape(self);
        self.execute_with(env, &mut arena)
    }

    /// Execute into `arena`, which must have been built for this tape
    /// (same fingerprint). `env` must hold a tensor per boundary input.
    /// Returns the escaping values keyed by node id; those tensors share
    /// the arena's buffers (zero-copy) until the next execution refreshes
    /// the slots they occupy.
    pub fn execute_with(
        &self,
        env: &HashMap<NodeId, Tensor>,
        arena: &mut TapeArena,
    ) -> Result<HashMap<NodeId, Tensor>, GraphError> {
        if arena.fingerprint != self.fingerprint {
            return Err(TensorError::InvalidArgument {
                op: "tape",
                msg: "arena fingerprint does not match tape".into(),
            }
            .into());
        }
        let mut feeds: Vec<&Tensor> = Vec::with_capacity(self.feed_ids.len());
        for (i, &id) in self.feed_ids.iter().enumerate() {
            let t = env.get(&id).ok_or(GraphError::MissingFeed(id))?;
            if t.len() != self.feed_shapes[i].volume() {
                return Err(TensorError::LengthMismatch {
                    expected: self.feed_shapes[i].volume(),
                    actual: t.len(),
                }
                .into());
            }
            feeds.push(t);
        }
        duet_telemetry::registry::TAPE_RUNS.inc();
        duet_telemetry::registry::TAPE_INSTRS.add(self.instrs.len() as u64);
        for instr in &self.instrs {
            self.run_instr(instr, &feeds, arena)?;
        }
        let mut result: HashMap<NodeId, Tensor> = HashMap::with_capacity(self.outputs.len());
        for (i, &(id, slot)) in self.outputs.iter().enumerate() {
            let t = Tensor::from_arc(
                self.output_shapes[i].clone(),
                Arc::clone(&arena.slots[slot]),
            )
            .map_err(GraphError::from)?;
            result.insert(id, t);
        }
        Ok(result)
    }

    fn run_instr(
        &self,
        instr: &Instr,
        feeds: &[&Tensor],
        arena: &mut TapeArena,
    ) -> Result<(), GraphError> {
        let out_len = instr.out_shape.volume();
        let mut out_arc = arena.take(instr.out);
        // A slot still shared with a previous run's published output (or
        // wrongly sized) must be re-allocated before we may write it.
        if Arc::get_mut(&mut out_arc).map(|b| b.len()) != Some(out_len) {
            out_arc = if instr.in_place && out_arc.len() == out_len {
                // In-place ops read the old value: copy it into the
                // fresh buffer.
                Arc::from(&out_arc[..])
            } else {
                zero_arc(out_len)
            };
        }
        let res = {
            let out = Arc::get_mut(&mut out_arc).expect("refresh made the slot unique");
            self.dispatch(instr, feeds, arena, out).map(|()| {
                // A convolution runs its epilogue inside its GEMM's chunks,
                // a depthwise one on each plane it finishes.
                if !matches!(instr.op, Op::Conv2d { .. } | Op::DepthwiseConv2d { .. }) {
                    self.finish(instr, feeds, arena, 0, out);
                }
            })
        };
        arena.slots[instr.out] = out_arc;
        res.map_err(GraphError::from)
    }

    /// Raw data + shape of operand `idx`. Never called for the
    /// instruction's own output slot (the planner forbids that aliasing
    /// except via `in_place`, which reads `out` directly). Shapes come
    /// from the instruction, not the slot plan — slots may be coalesced.
    fn src<'a>(
        &'a self,
        instr: &'a Instr,
        idx: usize,
        feeds: &[&'a Tensor],
        arena: &'a TapeArena,
    ) -> (&'a [f32], &'a Shape) {
        let shape = &instr.arg_shapes[idx];
        match instr.inputs[idx] {
            Operand::Slot(s) => (&arena.slots[s], shape),
            Operand::Weight(w) => (self.weights[w].data(), shape),
            Operand::Feed(f) => (feeds[f].data(), shape),
        }
    }

    /// Operand as a zero-copy tensor (for ops without an `_into` kernel).
    fn src_tensor(
        &self,
        instr: &Instr,
        idx: usize,
        feeds: &[&Tensor],
        arena: &TapeArena,
    ) -> Result<Tensor, TensorError> {
        let shape = instr.arg_shapes[idx].clone();
        match instr.inputs[idx] {
            Operand::Slot(s) => Tensor::from_arc(shape, Arc::clone(&arena.slots[s])),
            Operand::Weight(w) => Ok(self.weights[w].clone()),
            Operand::Feed(f) => Ok(feeds[f].clone()),
        }
    }

    /// Apply the fused epilogue chain to `seg`, elements `[at, at +
    /// seg.len())` of the anchor's output, in chain order: the whole buffer
    /// after most anchors, a GEMM chunk's run of one channel from inside a
    /// convolution. Each step is elementwise, so the buffer ends
    /// bit-identical to the unfused sequence however it is cut into runs.
    fn finish(
        &self,
        instr: &Instr,
        feeds: &[&Tensor],
        arena: &TapeArena,
        at: usize,
        seg: &mut [f32],
    ) {
        for step in &instr.epilogue {
            self.step(instr, feeds, arena, step.op, &self.bn_folds, at, seg);
        }
    }

    /// Run one step's in-place kernel on `seg`, elements `[at, at +
    /// seg.len())` of the instruction's output: an epilogue step, or a
    /// standalone elementwise instruction's own op. A batch norm reads
    /// `folds[fold]`.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        instr: &Instr,
        feeds: &[&Tensor],
        arena: &TapeArena,
        op: EpilogueOp,
        folds: &[BnFold],
        at: usize,
        seg: &mut [f32],
    ) {
        let len = seg.len();
        let operand = |idx: usize| &self.src(instr, idx, feeds, arena).0[at..at + len];
        match op {
            EpilogueOp::Unary(u) => kernels::unary_inplace(u, seg),
            EpilogueOp::Scale(f) => kernels::scale_inplace(seg, f),
            EpilogueOp::Add { rhs } => kernels::add_inplace(seg, operand(rhs)),
            EpilogueOp::Mul { rhs } => kernels::mul_inplace(seg, operand(rhs)),
            EpilogueOp::Sub { rhs, reversed } => {
                if reversed {
                    kernels::rsub_inplace(seg, operand(rhs));
                } else {
                    kernels::sub_inplace(seg, operand(rhs));
                }
            }
            EpilogueOp::BiasAdd { bias } => {
                let (bd, _) = self.src(instr, bias, feeds, arena);
                kernels::bias_add_inplace_at(seg, at, bd);
            }
            EpilogueOp::BatchNorm { fold, .. } => {
                let f = &folds[fold];
                kernels::batch_norm2d_folded_inplace(seg, at, f.plane, &f.scale, &f.shift);
            }
        }
    }

    fn dispatch(
        &self,
        instr: &Instr,
        feeds: &[&Tensor],
        arena: &TapeArena,
        out: &mut [f32],
    ) -> Result<(), TensorError> {
        match &instr.op {
            Op::Linear => {
                let (xd, xs) = self.src(instr, 0, feeds, arena);
                let (wd, ws) = self.src(instr, 1, feeds, arena);
                let (bd, _) = self.src(instr, 2, feeds, arena);
                kernels::linear_into(xd, wd, Some(bd), out, xs.dim(0), xs.dim(1), ws.dim(0));
                Ok(())
            }
            Op::MatMul => {
                let (ad, ashape) = self.src(instr, 0, feeds, arena);
                let (bd, bshape) = self.src(instr, 1, feeds, arena);
                kernels::matmul_into(ad, bd, out, ashape.dim(0), ashape.dim(1), bshape.dim(1));
                Ok(())
            }
            Op::Conv2d {
                stride,
                padding,
                bias,
            }
            | Op::DepthwiseConv2d {
                stride,
                padding,
                bias,
            } => {
                let (xd, xs) = self.src(instr, 0, feeds, arena);
                let (wd, ws) = self.src(instr, 1, feeds, arena);
                let bd = bias.then(|| self.src(instr, 2, feeds, arena).0);
                let finish = |at, seg: &mut [f32]| self.finish(instr, feeds, arena, at, seg);
                if let Op::Conv2d { .. } = instr.op {
                    let dims = kernels::Conv2dDims::new(xs.dims(), ws.dims(), *stride, *padding)?;
                    kernels::conv2d_fused_into(xd, wd, bd, dims, out, finish)
                } else {
                    let dims = kernels::depthwise_dims(xs.dims(), ws.dims(), *stride, *padding)?;
                    kernels::depthwise_fused_into(xd, wd, bd, dims, out, finish)
                }
            }
            Op::MaxPool2d { window, stride } => {
                let (xd, xs) = self.src(instr, 0, feeds, arena);
                kernels::max_pool2d_into(xd, xs.dims(), *window, *stride, out)
            }
            Op::AvgPool2d { window, stride } => {
                let (xd, xs) = self.src(instr, 0, feeds, arena);
                kernels::avg_pool2d_into(xd, xs.dims(), *window, *stride, out)
            }
            // Elementwise: operand 0 into the slot (already there in
            // place), then the step code a fused epilogue runs.
            op if op.is_fusable_elementwise() || matches!(op, Op::BatchNorm2d) => {
                if !instr.in_place {
                    out.copy_from_slice(self.src(instr, 0, feeds, arena).0);
                }
                let step = standalone_step(op);
                let folds = match step {
                    EpilogueOp::BatchNorm { .. } => {
                        let p = |i: usize| self.src(instr, i, feeds, arena).0;
                        vec![BnFold::new([p(1), p(2), p(3), p(4)], &instr.arg_shapes[0])]
                    }
                    _ => Vec::new(),
                };
                self.step(instr, feeds, arena, step, &folds, 0, out);
                Ok(())
            }
            // Every other op keeps its allocating kernel; inputs are
            // wrapped zero-copy and the result is copied into the slot.
            // Only the anchor's own arguments participate — trailing
            // operands belong to epilogue steps.
            op => {
                let tensors: Vec<Tensor> = (0..instr.args)
                    .map(|i| self.src_tensor(instr, i, feeds, arena))
                    .collect::<Result<_, _>>()?;
                let refs: Vec<&Tensor> = tensors.iter().collect();
                let t = op.execute(&refs)?;
                out.copy_from_slice(t.data());
                Ok(())
            }
        }
    }
}

fn node_shape(graph: &Graph, id: NodeId) -> Shape {
    graph.node(id).shape.clone()
}

/// FNV-style fold over the tape structure (mirrors `duet_ir::fingerprint`).
fn tape_fingerprint(instrs: &[Instr], plan: &MemoryPlan, outputs: &[(NodeId, usize)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(PRIME);
    };
    for i in instrs {
        fold(i.node as u64);
        for b in i.op.name().bytes() {
            fold(b as u64);
        }
        for op in &i.inputs {
            match *op {
                Operand::Slot(s) => fold(0x1000_0000 | s as u64),
                Operand::Weight(w) => fold(0x2000_0000 | w as u64),
                Operand::Feed(f) => fold(0x3000_0000 | f as u64),
            }
        }
        fold(i.args as u64);
        for step in &i.epilogue {
            fold(step.node as u64);
            match step.op {
                EpilogueOp::Unary(u) => {
                    fold(0x41);
                    fold(match u {
                        UnaryOp::Relu => 1,
                        UnaryOp::Sigmoid => 2,
                        UnaryOp::Tanh => 3,
                        UnaryOp::Gelu => 4,
                    });
                }
                EpilogueOp::Scale(f) => {
                    fold(0x42);
                    fold(f.to_bits() as u64);
                }
                EpilogueOp::Add { rhs } => {
                    fold(0x43);
                    fold(rhs as u64);
                }
                EpilogueOp::Sub { rhs, reversed } => {
                    fold(0x44);
                    fold(rhs as u64);
                    fold(reversed as u64);
                }
                EpilogueOp::Mul { rhs } => {
                    fold(0x45);
                    fold(rhs as u64);
                }
                EpilogueOp::BiasAdd { bias } => {
                    fold(0x46);
                    fold(bias as u64);
                }
                EpilogueOp::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                    ..
                } => {
                    fold(0x47);
                    fold(gamma as u64);
                    fold(beta as u64);
                    fold(mean as u64);
                    fold(var as u64);
                }
            }
        }
        fold(i.out as u64);
        for &d in i.out_shape.dims() {
            fold(d as u64);
        }
        fold(i.in_place as u64);
    }
    for s in &plan.slot_shapes {
        for &d in s.dims() {
            fold(d as u64);
        }
        fold(u64::MAX); // shape separator
    }
    for &(id, s) in outputs {
        fold(id as u64);
        fold(s as u64);
    }
    h
}
