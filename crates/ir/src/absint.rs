//! Forward abstract interpretation over tensor graphs — the engine
//! behind the `D6xx` dataflow analyzer in `duet-analysis`.
//!
//! Every node gets one [`AbsVal`]: a product domain of
//!
//! * an **f32 interval** `[lo, hi]` (stored as f64 so slack arithmetic
//!   cannot itself round) bounding every non-NaN element the tensor can
//!   hold at runtime,
//! * explicit **NaN-reachable** / **Inf-reachable** flags, and
//! * **constantness** — for fully-known constant tensors under
//!   [`AbsintConfig::fold_cap`] elements the exact payload is carried
//!   and folded through ops with the real kernels, so the abstract
//!   value is *exact* on constant subgraphs.
//!
//! Transfer functions are per-[`Op`]: reductions (matmul, conv, linear,
//! reduce-sum) scale the elementwise product/sum interval by the
//! reduction length; monotone unaries (sigmoid, tanh, relu) map
//! endpoints; saturating ops (softmax, lstm/gru gates) clamp to their
//! ranges. Bounds are expanded **outward** by a slack proportional to
//! the reduction length before use, so f32 kernel rounding can never
//! escape the interval (soundness is property-tested against real
//! kernel runs in `duet-analysis`). Joins (`Concat` fan-ins) widen the
//! joined bounds outward to the nearest power of two, bounding the
//! lattice height so any iterative strategy over the domain terminates;
//! on the append-only DAG itself one forward pass suffices.
//!
//! Soundness caveats, by design: external `Input`s are assumed to be
//! fed finite non-NaN values inside [`AbsintConfig`]'s declared input
//! range (full finite f32 by default), and constants larger than
//! [`AbsintConfig::stat_cap`] elements are assumed finite rather than
//! scanned (scanning a 138M-element VGG weight would blow the <10 ms
//! per-model analysis budget). Both assumptions are visible in the
//! config, not buried.
//!
//! The engine reports [`Hazard`]s — certain division by zero, possible
//! NaN production (mathematical domain violations only; mere overflow
//! arithmetic sets the NaN *fact* silently), certain overflow to Inf,
//! dead-by-constant subgraphs, interval-unsound attributes — which
//! `duet-analysis` maps to `D600`–`D604` diagnostics. It also derives
//! alias facts (which node outputs are bitwise views of another node's
//! buffer) and escape facts (which values leave the graph), unified
//! with the `D4xx` tape checker's escape discipline.

use duet_tensor::Tensor;

use crate::graph::{Graph, Node, NodeId, PayloadRange};
use crate::infer;
use crate::op::Op;

/// The epsilon hard-wired into the `BatchNorm2d` kernel
/// (`kernels::batch_norm2d(.., 1e-5)`).
pub const BN_EPS: f64 = 1e-5f32 as f64;

const F32_MAX: f64 = f32::MAX as f64;
const INF: f64 = f64::INFINITY;
const NEG_INF: f64 = f64::NEG_INFINITY;

/// Analysis configuration: the assumed input domain and the element
/// caps that keep the pass inside its time budget.
#[derive(Debug, Clone)]
pub struct AbsintConfig {
    /// Assumed lower bound of every external input's elements.
    pub input_lo: f64,
    /// Assumed upper bound of every external input's elements.
    pub input_hi: f64,
    /// Constants up to this many elements are scanned exactly for
    /// min/max/NaN/Inf; larger ones are assumed full-finite-range.
    pub stat_cap: usize,
    /// Constant tensors up to this many elements are carried exactly
    /// and folded through ops with the real kernels.
    pub fold_cap: usize,
}

impl Default for AbsintConfig {
    fn default() -> Self {
        AbsintConfig {
            input_lo: -F32_MAX,
            input_hi: F32_MAX,
            stat_cap: 262_144,
            fold_cap: 4_096,
        }
    }
}

impl AbsintConfig {
    /// Config with a narrowed input domain (what the soundness
    /// proptests use: feeds are drawn inside the declared range).
    pub fn with_input_range(lo: f64, hi: f64) -> Self {
        AbsintConfig {
            input_lo: lo,
            input_hi: hi,
            ..Self::default()
        }
    }
}

/// Abstract value of one tensor: interval × NaN flag × Inf flag ×
/// optional exact payload.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsVal {
    /// Lower bound on every non-NaN element (may be `-inf`).
    pub lo: f64,
    /// Upper bound on every non-NaN element (may be `+inf`).
    pub hi: f64,
    /// A NaN element may appear at runtime.
    pub nan: bool,
    /// An infinite element may appear at runtime.
    pub inf: bool,
    /// Exact payload, when the tensor is a fully-known constant under
    /// the fold cap.
    pub constant: Option<Tensor>,
}

impl AbsVal {
    /// No information: anything, including NaN and ±Inf.
    pub fn top() -> Self {
        AbsVal {
            lo: NEG_INF,
            hi: INF,
            nan: true,
            inf: true,
            constant: None,
        }
    }

    /// Finite interval, no NaN/Inf.
    pub fn finite(lo: f64, hi: f64) -> Self {
        AbsVal {
            lo,
            hi,
            nan: false,
            inf: false,
            constant: None,
        }
        .normalized()
    }

    /// Degenerate single-value interval.
    pub fn point(v: f64) -> Self {
        Self::finite(v, v)
    }

    /// Every finite f32, no NaN/Inf — the default input assumption.
    pub fn full_finite() -> Self {
        Self::finite(-F32_MAX, F32_MAX)
    }

    /// True when exactly one finite value is possible.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi && !self.nan && !self.inf
    }

    /// True when no NaN or Inf can appear.
    pub fn is_finite(&self) -> bool {
        !self.nan && !self.inf
    }

    /// True when the interval admits zero.
    pub fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && self.hi >= 0.0
    }

    /// `self` is at least as precise as `coarser` (interval contained,
    /// flags implied). This is the pass-refinement ordering the `D1xx`
    /// checker enforces: optimization may only shrink abstract state.
    pub fn refines(&self, coarser: &AbsVal) -> bool {
        self.lo >= coarser.lo
            && self.hi <= coarser.hi
            && (!self.nan || coarser.nan)
            && (!self.inf || coarser.inf)
    }

    /// Exact scan of a concrete tensor (fold results; a graph's own
    /// constants go through [`Graph::param_range`], which remembers).
    pub fn scan(t: &Tensor) -> Self {
        Self::from_range(PayloadRange::of(t.data()))
    }

    /// The abstract value of a payload with these extremes.
    fn from_range(r: PayloadRange) -> Self {
        let inf = r.lo == f32::NEG_INFINITY || r.hi == f32::INFINITY;
        let (mut lo, mut hi) = (r.lo as f64, r.hi as f64);
        if lo > hi {
            // Empty or all-NaN payload: collapse the interval.
            lo = 0.0;
            hi = 0.0;
        }
        AbsVal {
            lo,
            hi,
            nan: r.nan,
            inf,
            constant: None,
        }
    }

    /// Push out-of-f32-range bounds to ±Inf (an f32 kernel would have
    /// produced an infinity there) and record the Inf fact.
    fn normalized(mut self) -> Self {
        if self.lo < -F32_MAX {
            self.lo = NEG_INF;
            self.inf = true;
        }
        if self.hi > F32_MAX {
            self.hi = INF;
            self.inf = true;
        }
        if self.hi < -F32_MAX {
            self.hi = NEG_INF;
            self.inf = true;
        }
        if self.lo > F32_MAX {
            self.lo = INF;
            self.inf = true;
        }
        self
    }

    /// Expand bounds outward so f32 kernel rounding over a length-`k`
    /// reduction cannot escape the interval.
    fn slacked(mut self, k: usize) -> Self {
        let rel = 1e-6 + 3e-7 * k as f64;
        // An exactly-zero bound survives f32 rounding (a nonnegative
        // real rounds to a nonnegative f32 and vice versa), so it needs
        // no slack — this keeps e.g. `x * 0` at the exact point [0, 0]
        // for the dead-by-constant check.
        if self.lo.is_finite() && self.lo != 0.0 {
            self.lo -= rel * self.lo.abs() + 1e-40;
        }
        if self.hi.is_finite() && self.hi != 0.0 {
            self.hi += rel * self.hi.abs() + 1e-40;
        }
        self.normalized()
    }

    /// Least upper bound with widening: the joined bounds are pushed
    /// outward to the nearest power of two, so a chain of joins can
    /// only climb a logarithmic ladder before hitting ±Inf.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        let constant = match (&self.constant, &other.constant) {
            (Some(a), Some(b)) if a == b => Some(a.clone()),
            _ => None,
        };
        AbsVal {
            lo: widen_out(self.lo.min(other.lo), false),
            hi: widen_out(self.hi.max(other.hi), true),
            nan: self.nan || other.nan,
            inf: self.inf || other.inf,
            constant,
        }
        .normalized()
    }
}

impl std::fmt::Display for AbsVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:.4e}, {:.4e}]", self.lo, self.hi)?;
        if self.nan {
            write!(f, " nan?")?;
        }
        if self.inf {
            write!(f, " inf?")?;
        }
        if self.constant.is_some() {
            write!(f, " const")?;
        }
        Ok(())
    }
}

/// Snap a bound outward to the nearest power of two (0 and infinities
/// are fixed points).
fn widen_out(v: f64, upper: bool) -> f64 {
    if v == 0.0 || !v.is_finite() {
        return v;
    }
    let m = v.abs().log2();
    let e = if upper == (v > 0.0) {
        m.ceil()
    } else {
        m.floor()
    };
    let w = (2f64).powf(e).copysign(v);
    if upper {
        w.max(v)
    } else {
        w.min(v)
    }
}

/// What can go wrong, as proven (or admitted) by the interpreter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HazardKind {
    /// A divisor is certainly exactly zero (`D600`).
    CertainDivByZero,
    /// A mathematical domain violation can (or certainly will) produce
    /// NaN (`D601`).
    NanProduction {
        /// Every execution produces NaN, not just some feed.
        certain: bool,
    },
    /// The entire output interval lies beyond f32 range: every
    /// execution overflows to ±Inf (`D602`).
    CertainOverflow,
    /// The op's output is statically constant although a runtime-
    /// varying input feeds it: the subgraph is dead weight (`D603`,
    /// warning).
    DeadByConstant,
    /// An op attribute makes interval reasoning (and the kernel)
    /// unsound, e.g. a non-positive layer-norm epsilon (`D604`).
    UnsoundAttribute,
}

/// One dataflow hazard, anchored to the node that produces it.
#[derive(Debug, Clone)]
pub struct Hazard {
    /// The producing node.
    pub node: NodeId,
    pub kind: HazardKind,
    pub detail: String,
    /// Producer chain of the offending operand (for NaN hazards: the
    /// path the poisoned value travels), nearest first.
    pub path: Vec<NodeId>,
}

/// Everything the interpreter learned about one graph.
#[derive(Debug, Clone)]
pub struct DataflowFacts {
    /// Per-node abstract value, indexed by node id.
    pub vals: Vec<AbsVal>,
    /// `alias_of[id]` is the root node whose buffer `id`'s output is a
    /// bitwise view of (reshape chains), if any.
    pub alias_of: Vec<Option<NodeId>>,
    /// `escapes[id]` is true when the value leaves the graph as a
    /// declared output — the same escape discipline the `D4xx` tape
    /// checker enforces on published slots.
    pub escapes: Vec<bool>,
    /// Hazards in node order (at most one error-grade hazard per node).
    pub hazards: Vec<Hazard>,
}

impl DataflowFacts {
    /// The abstract value of node `id` (TOP when out of range).
    pub fn val(&self, id: NodeId) -> AbsVal {
        self.vals.get(id).cloned().unwrap_or_else(AbsVal::top)
    }
}

/// Analyze with the default (full finite input range) configuration.
pub fn analyze_values(graph: &Graph) -> DataflowFacts {
    analyze_values_with(graph, &AbsintConfig::default())
}

/// Forward abstract interpretation: one pass over the DAG in id order
/// (ids are topological by construction; corrupt forward references
/// degrade to TOP instead of being followed).
pub fn analyze_values_with(graph: &Graph, cfg: &AbsintConfig) -> DataflowFacts {
    let n = graph.len();
    let shape_checks = infer::check_shapes(graph);
    let mut vals: Vec<AbsVal> = Vec::with_capacity(n);
    let mut alias_of: Vec<Option<NodeId>> = vec![None; n];
    let mut hazards: Vec<Hazard> = Vec::new();

    for (idx, node) in graph.nodes().iter().enumerate() {
        let val = match node.op {
            Op::Input => AbsVal::finite(cfg.input_lo, cfg.input_hi),
            Op::Constant => match graph.param(idx) {
                Some(t) if t.shape().volume() <= cfg.stat_cap => {
                    let range = graph.param_range(idx).expect("a constant with a payload");
                    let mut v = AbsVal::from_range(range);
                    if t.shape().volume() <= cfg.fold_cap {
                        v.constant = Some(t.clone());
                    }
                    v
                }
                // Beyond the scan cap: assumed finite (documented).
                Some(_) => AbsVal::full_finite(),
                None => AbsVal::top(),
            },
            _ => {
                if !shape_checks[idx].trusted() {
                    // Shape defects carry their own D0xx codes; value
                    // reasoning over untrusted shapes would be noise.
                    AbsVal::top()
                } else {
                    compute_node(graph, idx, node, cfg, &vals, &mut alias_of, &mut hazards)
                }
            }
        };
        vals.push(val);
    }

    let mut escapes = vec![false; n];
    for &o in graph.outputs() {
        if o < n {
            escapes[o] = true;
        }
    }
    DataflowFacts {
        vals,
        alias_of,
        escapes,
        hazards,
    }
}

/// Transfer + hazard detection + constant folding for one compute node.
#[allow(clippy::too_many_arguments)]
fn compute_node(
    graph: &Graph,
    idx: NodeId,
    node: &Node,
    cfg: &AbsintConfig,
    vals: &[AbsVal],
    alias_of: &mut [Option<NodeId>],
    hazards: &mut Vec<Hazard>,
) -> AbsVal {
    let top = AbsVal::top();
    let ins: Vec<&AbsVal> = node
        .inputs
        .iter()
        .map(|&i| if i < idx { &vals[i] } else { &top })
        .collect();
    let hazards_before = hazards.len();

    // Attribute soundness first (D604): an unsound attribute poisons
    // any value reasoning about the node, so it wins and yields TOP.
    if let Some(detail) = unsound_attribute(&node.op) {
        hazards.push(Hazard {
            node: idx,
            kind: HazardKind::UnsoundAttribute,
            detail,
            path: Vec::new(),
        });
        return AbsVal::top();
    }

    // Blanket NaN rule: once an operand may be NaN, every kernel here
    // can smuggle it anywhere (Rust's `f32::max` even swallows NaN in
    // relu/maxpool), so the output is TOP and no *new* hazard fires —
    // the D601 diagnostic stays anchored at the node that created the
    // NaN from clean operands.
    if ins.iter().any(|v| v.nan) {
        return AbsVal::top();
    }

    let mut val = transfer(graph, idx, node, &ins, hazards);

    // Exact constant folding through the real kernels.
    if node.shape.volume() <= cfg.fold_cap && node.inputs.iter().all(|&i| i < idx) {
        let consts: Option<Vec<&Tensor>> = node
            .inputs
            .iter()
            .map(|&i| vals[i].constant.as_ref())
            .collect();
        if let Some(cs) = consts {
            if let Ok(t) = node.op.execute(&cs) {
                let mut exact = AbsVal::scan(&t);
                exact.constant = Some(t);
                val = exact;
            }
        }
    }

    // Certain overflow (D602): only charged to the node that turns
    // finite operands into a certainly-out-of-range result.
    let ins_finite = ins.iter().all(|v| v.is_finite());
    if ins_finite
        && !val.nan
        && (val.lo > F32_MAX || val.hi < -F32_MAX)
        && hazards.len() == hazards_before
    {
        hazards.push(Hazard {
            node: idx,
            kind: HazardKind::CertainOverflow,
            detail: format!(
                "every execution of {} overflows f32: output bounds {}",
                node.op.name(),
                val
            ),
            path: producer_path(graph, idx),
        });
    }

    // Dead-by-constant (D603, warning): a runtime-varying operand
    // feeds the node, yet its output is a statically known point.
    let varying_input = node
        .inputs
        .iter()
        .any(|&i| i < idx && !vals[i].is_point() && vals[i].constant.is_none());
    if val.is_point() && varying_input && hazards.len() == hazards_before {
        hazards.push(Hazard {
            node: idx,
            kind: HazardKind::DeadByConstant,
            detail: format!(
                "{} output is constant {:.4e} although a runtime input feeds it; \
                 the subgraph behind it is dead",
                node.op.name(),
                val.lo
            ),
            path: Vec::new(),
        });
    }

    // Alias facts: reshape republishes its input buffer bit-for-bit.
    if matches!(node.op, Op::Reshape { .. }) {
        if let Some(&src) = node.inputs.first() {
            if src < idx {
                alias_of[idx] = Some(alias_of[src].unwrap_or(src));
            }
        }
    }
    val
}

/// Attribute checks behind `D604`.
fn unsound_attribute(op: &Op) -> Option<String> {
    match op {
        Op::LayerNorm { eps } if *eps <= 0.0 || eps.is_nan() => Some(format!(
            "layer_norm eps {eps} must be > 0: sqrt(var + eps) can go \
             NaN/Inf on legitimate data"
        )),
        Op::Scale { factor } if factor.is_nan() => {
            Some("scale factor is NaN: every output element is NaN".to_string())
        }
        _ => None,
    }
}

/// Producer chain of `id`'s first operand, nearest first, bounded.
fn producer_path(graph: &Graph, id: NodeId) -> Vec<NodeId> {
    let mut path = Vec::new();
    let mut cur = id;
    for _ in 0..8 {
        let Some(&src) = graph.node(cur).inputs.first() else {
            break;
        };
        if src >= graph.len() || src >= cur {
            break;
        }
        path.push(src);
        cur = src;
    }
    path
}

/// Producer chain starting from a specific operand of `id`.
fn operand_path(graph: &Graph, id: NodeId, operand: usize) -> Vec<NodeId> {
    match graph.node(id).inputs.get(operand) {
        Some(&src) if src < graph.len() && src < id => {
            let mut path = vec![src];
            path.extend(producer_path(graph, src));
            path
        }
        _ => Vec::new(),
    }
}

/// Per-op transfer function over clean (non-NaN) operands.
fn transfer(
    graph: &Graph,
    idx: NodeId,
    node: &Node,
    ins: &[&AbsVal],
    hazards: &mut Vec<Hazard>,
) -> AbsVal {
    let in_shape = |slot: usize| &graph.node(node.inputs[slot]).shape;
    match &node.op {
        // Handled by the caller.
        Op::Input | Op::Constant => AbsVal::top(),

        Op::Linear => {
            let k = in_shape(1).dim(1).max(1);
            av_add(&av_dot(ins[0], ins[1], k, false), ins[2]).slacked(k)
        }
        Op::MatMul => {
            let k = in_shape(0).dim(1).max(1);
            av_dot(ins[0], ins[1], k, false).slacked(k)
        }
        Op::Conv2d { padding, bias, .. } => {
            let w = in_shape(1);
            let k = (w.dim(1) * w.dim(2) * w.dim(3)).max(1);
            let mut acc = av_dot(ins[0], ins[1], k, *padding > 0);
            if *bias {
                acc = av_add(&acc, ins[2]);
            }
            acc.slacked(k)
        }
        Op::DepthwiseConv2d { padding, bias, .. } => {
            let w = in_shape(1);
            let k = (w.dim(2) * w.dim(3)).max(1);
            let mut acc = av_dot(ins[0], ins[1], k, *padding > 0);
            if *bias {
                acc = av_add(&acc, ins[2]);
            }
            acc.slacked(k)
        }
        Op::BatchNorm2d => batch_norm_transfer(graph, idx, ins, hazards),
        Op::MaxPool2d { .. } | Op::ReduceMax => strip_const(ins[0]),
        Op::AvgPool2d { window, .. } => mean_like(ins[0], window * window),
        Op::GlobalAvgPool2d => {
            let x = in_shape(0);
            mean_like(ins[0], (x.dim(2) * x.dim(3)).max(1))
        }
        Op::ReduceMean => {
            let x = in_shape(0);
            mean_like(ins[0], x.dim(x.rank() - 1).max(1))
        }
        Op::ReduceSum => {
            let x = in_shape(0);
            let k = x.dim(x.rank() - 1).max(1);
            let kk = k as f64;
            AbsVal {
                lo: ins[0].lo * kk,
                hi: ins[0].hi * kk,
                // Mixed-sign infinities cancel into NaN.
                nan: ins[0].inf,
                inf: ins[0].inf || overflow_possible(ins[0], k),
                constant: None,
            }
            .slacked(k)
        }
        Op::Lstm | Op::Gru => {
            // Gates saturate: h = o·tanh(c) ∈ (-1, 1). Infinite gate
            // pre-activations can only arise from Inf operands, and
            // 0·Inf inside the GEMMs can mint NaN.
            let dirty = ins.iter().any(|v| v.inf);
            AbsVal {
                lo: -1.0,
                hi: 1.0,
                nan: dirty,
                inf: false,
                constant: None,
            }
        }
        Op::Mha { .. } => {
            let d = in_shape(0).dim(1).max(1);
            let pq = av_dot(ins[0], ins[1], d, false);
            let pk = av_dot(ins[0], ins[2], d, false);
            let pv = av_dot(ins[0], ins[3], d, false);
            if pq.inf || pk.inf || pv.inf {
                // Infinite scores make max-shifted softmax mint NaN.
                return AbsVal::top();
            }
            // Attention context is a convex combination of V rows, so
            // it stays inside pv; then the output projection reduces
            // over d again.
            av_dot(&pv, ins[4], d, false).slacked(d)
        }
        Op::LayerNorm { eps } => {
            let x = ins[0];
            if x.inf {
                // mean subtraction over ±Inf is Inf - Inf.
                return AbsVal::top();
            }
            let shape = in_shape(0);
            let k = shape.dim(shape.rank() - 1).max(1);
            if overflow_possible(x, k) {
                return AbsVal::top();
            }
            // |x - mean| ≤ range and the divisor is ≥ sqrt(eps).
            let m = (x.hi - x.lo) / (*eps as f64).sqrt();
            let z = AbsVal::finite(-m, m).slacked(k);
            av_add(&av_mul(&z, ins[1]), ins[2]).slacked(1)
        }
        Op::Softmax => AbsVal {
            lo: 0.0,
            hi: 1.0 + 1e-6,
            nan: ins[0].inf,
            inf: false,
            constant: None,
        },
        Op::LogSoftmax => {
            let x = ins[0];
            let shape = in_shape(0);
            let k = shape.dim(shape.rank() - 1).max(1) as f64;
            AbsVal {
                lo: x.lo - x.hi - k.ln(),
                hi: 1e-6,
                nan: x.inf,
                inf: false,
                constant: None,
            }
            .slacked(1)
            .normalized()
        }
        Op::Relu => AbsVal {
            lo: ins[0].lo.max(0.0),
            hi: ins[0].hi.max(0.0),
            nan: false,
            inf: ins[0].inf && ins[0].hi > 0.0,
            constant: None,
        },
        Op::Sigmoid => {
            let s = |v: f64| 1.0 / (1.0 + (-v).exp());
            AbsVal::finite(s(ins[0].lo) - 1e-6, s(ins[0].hi) + 1e-6)
        }
        Op::Tanh => AbsVal::finite(ins[0].lo.tanh() - 1e-6, ins[0].hi.tanh() + 1e-6),
        Op::Gelu => {
            // gelu(x) = x·Φ(x): ≤ max(x, 0), ≥ max(x, -0.2) (global
            // minimum ≈ -0.17, and x/2 < gelu(x) < 0 for x < 0), for
            // both the erf and tanh-approximation kernels.
            let x = ins[0];
            let lo = if x.lo < 0.0 { x.lo.max(-0.2) } else { 0.0 };
            AbsVal {
                lo: lo - 1e-6,
                hi: x.hi.max(0.0) + 1e-6,
                nan: false,
                inf: x.inf && x.hi > 0.0,
                constant: None,
            }
            .normalized()
        }
        Op::Add => av_add(ins[0], ins[1]).slacked(1),
        Op::Sub => av_sub(ins[0], ins[1]).slacked(1),
        Op::Mul => av_mul(ins[0], ins[1]).slacked(1),
        Op::BiasAdd => av_add(ins[0], ins[1]).slacked(1),
        Op::Scale { factor } => {
            if *factor == 0.0 {
                AbsVal::point(0.0)
            } else {
                av_mul(ins[0], &AbsVal::point(*factor as f64)).slacked(1)
            }
        }
        Op::Concat { .. } => {
            let mut acc = strip_const(ins[0]);
            for v in &ins[1..] {
                acc = acc.join(v);
            }
            acc
        }
        Op::Embedding => strip_const(ins[0]),
        Op::Reshape { .. } | Op::Transpose2d | Op::SliceRows { .. } => strip_const(ins[0]),
    }
}

/// `BatchNorm2d` transfer: the only operator in the vocabulary with a
/// data-dependent divisor, `sqrt(var + eps)`. D600/D601 live here.
fn batch_norm_transfer(
    graph: &Graph,
    idx: NodeId,
    ins: &[&AbsVal],
    hazards: &mut Vec<Hazard>,
) -> AbsVal {
    let v = ins[4];
    // Divisor-zero and domain checks use exact (un-slacked) bounds:
    // f64 addition of two f32-representable values is exact.
    let s_lo = v.lo + BN_EPS;
    let s_hi = v.hi + BN_EPS;
    if !v.inf && s_lo == 0.0 && s_hi == 0.0 {
        hazards.push(Hazard {
            node: idx,
            kind: HazardKind::CertainDivByZero,
            detail: format!(
                "batch_norm divisor sqrt(var + {BN_EPS:.0e}) is exactly zero: \
                 var is constant {:.4e}",
                v.lo
            ),
            path: operand_path(graph, idx, 4),
        });
        return AbsVal::top();
    }
    if s_lo < 0.0 {
        let certain = s_hi < 0.0;
        hazards.push(Hazard {
            node: idx,
            kind: HazardKind::NanProduction { certain },
            detail: format!(
                "batch_norm takes sqrt(var + {BN_EPS:.0e}) with var bounds {v}: \
                 {} negative argument produces NaN",
                if certain { "certainly" } else { "a possibly" },
            ),
            path: operand_path(graph, idx, 4),
        });
        return AbsVal::top();
    }
    // Divisor d ∈ [sqrt(s_lo), sqrt(s_hi)]; its reciprocal can reach
    // +Inf when s_lo == 0 (possible-but-not-certain div-by-zero).
    let d_lo = s_lo.sqrt();
    let d_hi = s_hi.sqrt();
    let inv = AbsVal {
        lo: if d_hi == 0.0 || d_hi.is_infinite() {
            0.0
        } else {
            1.0 / d_hi
        },
        hi: if d_lo == 0.0 { INF } else { 1.0 / d_lo },
        nan: false,
        inf: d_lo == 0.0,
        constant: None,
    }
    .slacked(1);
    let scale = av_mul(ins[1], &inv);
    let shift = av_sub(ins[2], &av_mul(ins[3], &scale));
    av_add(&av_mul(ins[0], &scale), &shift).slacked(2)
}

/// Interval copy without the exact payload (selection/permutation ops:
/// output values are a subset of input values).
fn strip_const(v: &AbsVal) -> AbsVal {
    AbsVal {
        constant: None,
        ..v.clone()
    }
}

/// Mean-like ops stay inside the input interval (convex combination),
/// but the f32 partial sums can overflow first.
fn mean_like(x: &AbsVal, count: usize) -> AbsVal {
    AbsVal {
        lo: x.lo,
        hi: x.hi,
        nan: false,
        inf: x.inf || overflow_possible(x, count),
        constant: None,
    }
    .slacked(count.max(1))
}

/// Could a length-`k` f32 accumulation over values bounded by `x`
/// overflow?
fn overflow_possible(x: &AbsVal, k: usize) -> bool {
    let maxabs = x.lo.abs().max(x.hi.abs());
    !maxabs.is_finite() || maxabs * k as f64 > F32_MAX
}

/// Sum interval. NaN-safe on mixed infinities: an indeterminate corner
/// falls back to the corresponding infinity.
fn av_add(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let lo = a.lo + b.lo;
    let hi = a.hi + b.hi;
    AbsVal {
        lo: if lo.is_nan() { NEG_INF } else { lo },
        hi: if hi.is_nan() { INF } else { hi },
        // +Inf + -Inf is NaN; without signed-infinity tracking any two
        // infinite operands may collide (silent fact, not a D601).
        nan: a.inf && b.inf,
        inf: a.inf || b.inf,
        constant: None,
    }
    .normalized()
}

/// Difference interval.
fn av_sub(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let neg_b = AbsVal {
        lo: -b.hi,
        hi: -b.lo,
        ..b.clone()
    };
    av_add(a, &neg_b)
}

/// Product interval over the four corners; 0·Inf corners blow the
/// bounds open and set the NaN fact.
fn av_mul(a: &AbsVal, b: &AbsVal) -> AbsVal {
    let mut lo = INF;
    let mut hi = NEG_INF;
    for &x in &[a.lo, a.hi] {
        for &y in &[b.lo, b.hi] {
            let p = x * y;
            if p.is_nan() {
                lo = NEG_INF;
                hi = INF;
            } else {
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
    }
    AbsVal {
        lo,
        hi,
        nan: (a.inf && b.contains_zero()) || (b.inf && a.contains_zero()),
        inf: a.inf || b.inf,
        constant: None,
    }
    .normalized()
}

/// Length-`k` dot-product interval: `k` products each inside the
/// elementwise product interval. `pad` marks a convolution over a
/// zero-padded `a`: a padded position computes `0·b`, so the product
/// interval is hulled with zero, and an infinite `b` makes it NaN.
fn av_dot(a: &AbsVal, b: &AbsVal, k: usize, pad: bool) -> AbsVal {
    let mut p = av_mul(a, b);
    if pad {
        p.lo = p.lo.min(0.0);
        p.hi = p.hi.max(0.0);
        p.nan |= b.inf;
    }
    let kk = k as f64;
    AbsVal {
        lo: p.lo * kk,
        hi: p.hi * kk,
        // Mixed-sign infinite partial products cancel into NaN.
        nan: p.nan || (p.inf && p.lo < 0.0 && p.hi > 0.0),
        inf: p.inf,
        constant: None,
    }
    .normalized()
}

/// Prove that a `BatchNorm2d` node may run as an in-place tape
/// epilogue, overwriting its activation operand's slot.
///
/// The kernel is an elementwise affine map `x[i]·scale[c] + shift[c]`
/// whose coefficients come only from the four per-channel parameter
/// tensors, so writing over `x` in the same loop order is bit-identical
/// to writing a fresh buffer — *provided* the parameters are proven
/// safe. This helper proves exactly that, with the same scan machinery
/// the analyzer uses for constants:
///
/// * **non-aliasing**: all four parameters are `Constant` nodes with
///   payloads — they bind as weight operands, never as the activation's
///   buffer slot;
/// * **finite range**: every parameter element is finite (no NaN/Inf
///   poisoning the per-channel coefficients), and
/// * `min(var) + eps > 0`, so the divisor `sqrt(var + eps)` is a
///   strictly positive finite number and the coefficients exist.
///
/// Parameters beyond the stat cap are *not* assumed finite here (unlike
/// interval analysis, an in-place rewrite must not rest on assumptions)
/// — the proof simply fails and the planner keeps the copying path.
pub fn prove_batchnorm_inplace(graph: &Graph, node: &Node) -> bool {
    if !matches!(node.op, Op::BatchNorm2d) || node.inputs.len() != 5 {
        return false;
    }
    let cap = AbsintConfig::default().stat_cap;
    let mut var_min = INF;
    for (slot, &pid) in node.inputs.iter().enumerate().skip(1) {
        if pid >= graph.len() || !matches!(graph.node(pid).op, Op::Constant) {
            return false;
        }
        let Some(t) = graph.param(pid) else {
            return false;
        };
        if t.shape().volume() > cap {
            return false;
        }
        for &v in t.data() {
            if !v.is_finite() {
                return false;
            }
            if slot == 4 {
                var_min = var_min.min(v as f64);
            }
        }
    }
    var_min + BN_EPS > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use duet_tensor::Tensor;
    use std::collections::HashMap;

    fn narrow() -> AbsintConfig {
        AbsintConfig::with_input_range(-4.0, 4.0)
    }

    #[test]
    fn constant_scan_is_exact() {
        let mut g = Graph::new("t");
        let c = g.add_constant(
            "c",
            Tensor::from_vec(vec![4], vec![-2.0, 0.5, 3.0, 1.0]).unwrap(),
        );
        let r = g.add_op("r", Op::Relu, &[c]).unwrap();
        g.mark_output(r).unwrap();
        let f = analyze_values(&g);
        assert_eq!(f.vals[c].lo, -2.0);
        assert_eq!(f.vals[c].hi, 3.0);
        assert!(f.vals[c].is_finite());
        // Relu of a small constant folds exactly.
        assert_eq!(f.vals[r].lo, 0.0);
        assert_eq!(f.vals[r].hi, 3.0);
        assert!(f.vals[r].constant.is_some());
    }

    #[test]
    fn matmul_bounds_contain_concrete_run() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![2, 8]);
        let w = g.add_constant("w", Tensor::randn(vec![8, 3], 0.5, 7));
        let m = g.add_op("m", Op::MatMul, &[x, w]).unwrap();
        let s = g.add_op("s", Op::Sigmoid, &[m]).unwrap();
        g.mark_output(s).unwrap();
        let f = analyze_values_with(&g, &narrow());
        let feed = Tensor::randn(vec![2, 8], 1.0, 9); // std 1 stays in ±4 rarely exceeded… clamp below
        let feed = Tensor::from_vec(
            vec![2, 8],
            feed.data().iter().map(|v| v.clamp(-4.0, 4.0)).collect(),
        )
        .unwrap();
        let outs = g.eval(&HashMap::from([(x, feed)])).unwrap();
        for &v in outs[0].data() {
            assert!((v as f64) >= f.vals[s].lo && (v as f64) <= f.vals[s].hi);
        }
        assert!(f.vals[s].is_finite());
        assert!(f.vals[s].lo >= -1e-5 && f.vals[s].hi <= 1.0 + 1e-5);
    }

    #[test]
    fn widening_join_is_outward() {
        let a = AbsVal::finite(-3.0, 5.0);
        let b = AbsVal::finite(-7.0, 1.0);
        let j = a.join(&b);
        assert!(j.lo <= -7.0 && j.hi >= 5.0);
        assert_eq!(j.lo, -8.0); // snapped to the power-of-two ladder
        assert_eq!(j.hi, 8.0);
    }

    #[test]
    fn zero_divisor_batch_norm_is_certain() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![1, 2, 2, 2]);
        let gamma = g.add_constant("g", Tensor::full(vec![2], 1.0));
        let beta = g.add_constant("b", Tensor::full(vec![2], 0.0));
        let mean = g.add_constant("m", Tensor::full(vec![2], 0.0));
        let var = g.add_constant("v", Tensor::full(vec![2], -1e-5));
        let bn = g
            .add_op("bn", Op::BatchNorm2d, &[x, gamma, beta, mean, var])
            .unwrap();
        g.mark_output(bn).unwrap();
        let f = analyze_values(&g);
        assert_eq!(f.hazards.len(), 1);
        assert_eq!(f.hazards[0].kind, HazardKind::CertainDivByZero);
        assert_eq!(f.hazards[0].node, bn);
    }

    #[test]
    fn escape_and_alias_facts() {
        let mut g = Graph::new("t");
        let x = g.add_input("x", vec![2, 8]);
        let r = g
            .add_op("r", Op::Reshape { shape: vec![4, 4] }, &[x])
            .unwrap();
        let t = g.add_op("t", Op::Tanh, &[r]).unwrap();
        g.mark_output(t).unwrap();
        let f = analyze_values(&g);
        assert_eq!(f.alias_of[r], Some(x));
        assert!(f.escapes[t]);
        assert!(!f.escapes[r]);
    }
}
