//! # duet-analysis
//!
//! LLVM-verifier-style static analysis for DUET: three analyzers over
//! one diagnostics framework, each with a stable code namespace.
//!
//! * **Graph verifier** ([`verify_graph`], `D0xx`) — structural and
//!   shape invariants of a [`duet_ir::Graph`]: cycles, dangling and
//!   unknown node ids, arity, full shape re-inference cross-checked
//!   against stored shapes, parameter consistency, reachability,
//!   degenerate ops. Strictly subsumes `Graph::validate`.
//! * **Pass-invariant checker** ([`check_optimize`], `D1xx`) — verifies
//!   every compiler pass (fold → CSE → DCE, plus fusion grouping at
//!   lowering) immediately after it runs: output interface preserved,
//!   no new dangling edges, DCE removed only dead nodes. The mechanical
//!   checks live in [`duet_compiler::invariants`] so `Compiler::optimize`
//!   runs them itself whenever `CompileOptions::check` is set (the
//!   default in debug builds); this crate maps violations to coded
//!   diagnostics that name the offending pass.
//! * **Plan/schedule linter** ([`lint_plan`], [`lint_schedule`],
//!   `D2xx`) — subsumes the runtime's schedule validation (coverage,
//!   sources, cycles) and the plan fingerprint check, then adds
//!   performance lints: cross-device boundary traffic per phase,
//!   sub-fusion-granularity subgraphs, unbalanced multi-path phases.
//! * **Runtime-conformance checker** ([`check_witness`],
//!   [`check_agreement`], `D3xx`) — the only analyzer that looks at
//!   what actually *ran*: it verifies a recorded
//!   [`duet_runtime::ExecutionWitness`] against its graph + placed
//!   schedule (happens-before order, virtual-clock readiness, per-
//!   device monotonicity, transfer accounting, reported latency) and
//!   cross-checks executor and simulator witnesses of one placement.
//! * **Memory-plan checker** ([`check_memory_plan`], `D4xx`) — verifies
//!   a compiled subgraph's instruction tape and liveness-planned buffer
//!   slots: coverage, dependency order, no overlapping live ranges
//!   sharing a slot, in-place aliasing discipline, slot/weight shape
//!   agreement, peak-byte accounting.
//! * **Plan model checker** ([`check_plan`], [`check_plan_model`],
//!   `D5xx`) — the static counterpart of the witness checker: it
//!   exhaustively explores every reachable interleaving of a plan's
//!   concurrent execution (memoized frontier + sleep-set partial-order
//!   reduction) and proves deadlock-freedom, schedule-determinism,
//!   transfer/aliasing race freedom, device-occupancy soundness and
//!   bounded trigger staleness *before* the plan ever runs. Violations
//!   come with a synthetic counterexample witness renderable as a
//!   Chrome trace and re-checkable by the `D3xx` analyzer.
//! * **Dataflow analyzer** ([`check_dataflow`], `D6xx`) — abstract
//!   interpretation over the graph (see [`duet_ir::absint`]): every
//!   node gets a value interval, NaN/Inf reachability flags,
//!   constantness and alias/escape facts. Proven hazards become coded
//!   diagnostics — certain division by zero, reachable NaN production
//!   with the producing path, certain overflow to Inf, dead-by-constant
//!   subgraphs, interval-unsound attributes. The same facts feed the
//!   pass checker (passes must refine, never widen, abstract state) and
//!   the tape planner's extended in-place eligibility.
//!
//! Severities are [`Severity::Error`] (do not run/deploy this artifact)
//! and [`Severity::Warning`] (runs, but suspicious). The `duet-lint`
//! CLI in the root crate drives all seven over the model zoo and exits
//! non-zero on errors; its `trace` subcommand runs a model, records
//! witnesses and checks them; its `model-check` subcommand proves the
//! `D5xx` properties per plan. Every analyzer invocation is counted in
//! the `duet-telemetry` registry (see [`telemetry`]).

pub mod dataflow;
pub mod diagnostics;
pub mod graph_verifier;
pub mod memory_check;
pub mod model_check;
pub mod pass_check;
pub mod plan_lint;
pub mod telemetry;
pub mod witness_check;

pub use dataflow::{check_dataflow, check_dataflow_with, dataflow_report};
pub use diagnostics::{Diagnostic, Report, Severity};
pub use graph_verifier::verify_graph;
pub use memory_check::{check_memory_plan, check_memory_plans};
pub use model_check::{
    check_plan, check_plan_model, ModelCheckConfig, ModelCheckOutcome, ModelCheckStats, PlanModel,
    SubgraphModel, TransferModel,
};
pub use pass_check::{check_optimize, violation_to_diagnostic};
pub use plan_lint::{lint_plan, lint_schedule, LintConfig, PlanFacts, PlanSubgraphFacts};
pub use witness_check::{check_agreement, check_witness, WitnessCheckConfig};

/// The stable diagnostic code namespace.
///
/// `D0xx` — graph verifier, `D1xx` — pass-invariant checker, `D2xx` —
/// plan/schedule linter, `D3xx` — runtime-conformance (witness)
/// checker. Codes are append-only: a released code keeps its meaning
/// forever so tooling can match on it.
pub mod codes {
    // D0xx — graph verifier
    /// A node, edge or declared output references a nonexistent id.
    pub const UNKNOWN_NODE: &str = "D000";
    /// The dependency graph contains a cycle (incl. self-loops).
    pub const CYCLE: &str = "D001";
    /// An input is defined at-or-after its consumer (append-only
    /// topological invariant broken).
    pub const TOPO_ORDER: &str = "D002";
    /// Forward and reverse adjacency lists disagree (dangling edge).
    pub const DANGLING_EDGE: &str = "D003";
    /// Operator given the wrong number of inputs.
    pub const BAD_ARITY: &str = "D004";
    /// Stored shape differs from what `Op::infer_shape` re-derives.
    pub const SHAPE_MISMATCH: &str = "D005";
    /// Shape inference failed outright on a compute node.
    pub const SHAPE_INFERENCE: &str = "D006";
    /// Graph declares no outputs.
    pub const NO_OUTPUTS: &str = "D007";
    /// Constant node and its parameter payload disagree (or payload
    /// missing).
    pub const PARAM_SHAPE: &str = "D008";
    /// Node feeds no declared output (warning).
    pub const UNREACHABLE: &str = "D009";
    /// Identity-in-disguise operator, e.g. single-input concat
    /// (warning).
    pub const DEGENERATE_OP: &str = "D010";

    // D1xx — pass-invariant checker
    /// A pass changed the graph's output count or output shapes.
    pub const PASS_OUTPUT_INTERFACE: &str = "D100";
    /// A pass produced a graph that fails structural validation.
    pub const PASS_BROKE_VALIDATION: &str = "D101";
    /// DCE removed a node still reachable from the outputs.
    pub const PASS_REMOVED_LIVE_NODE: &str = "D102";
    /// An optimization pass grew the graph.
    pub const PASS_GREW_GRAPH: &str = "D103";
    /// A pass itself reported an error while rewriting.
    pub const PASS_FAILED: &str = "D104";
    /// A pass widened some output's abstract state (interval grew, or a
    /// NaN/Inf fact appeared that the input graph did not have).
    pub const PASS_WIDENED_ABSTRACT: &str = "D105";

    // D2xx — plan/schedule linter
    /// A planned subgraph schedules a nonexistent node.
    pub const PLAN_UNKNOWN_NODE: &str = "D200";
    /// A planned subgraph schedules an input/constant source.
    pub const PLAN_COVERS_SOURCE: &str = "D201";
    /// A node is scheduled by more than one subgraph.
    pub const PLAN_DOUBLY_COVERED: &str = "D202";
    /// A compute node is scheduled by no subgraph.
    pub const PLAN_UNCOVERED: &str = "D203";
    /// A graph output is produced by no subgraph.
    pub const PLAN_MISSING_OUTPUT: &str = "D204";
    /// Subgraph dependencies form a cycle.
    pub const PLAN_CYCLIC: &str = "D205";
    /// Plan fingerprint does not match the graph (model changed since
    /// the plan was made).
    pub const PLAN_STALE_FINGERPRINT: &str = "D206";
    /// A planned subgraph schedules no nodes at all.
    pub const PLAN_EMPTY_SUBGRAPH: &str = "D207";
    /// A phase moves excessive bytes across the device boundary
    /// (warning).
    pub const PLAN_CROSS_TRAFFIC: &str = "D210";
    /// A subgraph is split below fusion granularity (warning).
    pub const PLAN_SUB_FUSION: &str = "D211";
    /// A multi-path phase's paths have wildly different work (warning).
    pub const PLAN_UNBALANCED: &str = "D212";
    /// A multi-path phase contains a single path (warning).
    pub const PLAN_SINGLE_PATH: &str = "D213";
    /// The plan's recorded batch size disagrees with the batch implied
    /// by its graph's input/output shapes (or is zero).
    pub const PLAN_BATCH_MISMATCH: &str = "D214";
    /// A heterogeneous plan's simulated makespan exceeds the
    /// critical-path lower bound by more than the configured factor
    /// (warning): provable headroom remains — re-tune the schedule.
    pub const PLAN_FAR_FROM_BOUND: &str = "D215";

    // D3xx — runtime-conformance (witness) checker
    /// A placed subgraph never executed.
    pub const WITNESS_MISSING_EXECUTION: &str = "D300";
    /// A placed subgraph executed more than once.
    pub const WITNESS_DUPLICATE_EXECUTION: &str = "D301";
    /// Structurally broken witness: unknown subgraph index, device
    /// disagreeing with the placement, finish without start, negative
    /// duration, or incomparable witnesses.
    pub const WITNESS_MALFORMED: &str = "D302";
    /// Observed event order violates happens-before: a consumer's start
    /// was committed before a producer's finish.
    pub const WITNESS_ORDER: &str = "D303";
    /// Virtual clock readiness violated: a subgraph started before a
    /// producer's finish plus the modeled transfer time.
    pub const WITNESS_CLOCK_READINESS: &str = "D304";
    /// Per-device virtual execution intervals overlap (a device ran two
    /// subgraphs at once).
    pub const WITNESS_CLOCK_OVERLAP: &str = "D305";
    /// A device-boundary crossing has no matching transfer event (or a
    /// spurious/duplicated one).
    pub const WITNESS_MISSING_TRANSFER: &str = "D306";
    /// A transfer's bytes or modeled time disagree with the system
    /// model's pricing.
    pub const WITNESS_TRANSFER_TIME: &str = "D307";
    /// The reported end-to-end latency differs from the max output-ready
    /// time recomputed from the event log.
    pub const WITNESS_LATENCY: &str = "D308";
    /// Executor and simulator latencies for one placement diverge beyond
    /// the documented tolerance.
    pub const WITNESS_DIVERGENCE_LATENCY: &str = "D310";
    /// Executor and simulator dispatched same-device work in different
    /// orders (warning; both orders are legal).
    pub const WITNESS_DIVERGENCE_ORDER: &str = "D311";

    // D4xx — memory-plan (tape) checker
    /// Tape instructions, feeds, weight bindings or output bindings do
    /// not cover the subgraph exactly.
    pub const TAPE_COVERAGE: &str = "D400";
    /// Tape order violates graph data dependencies (consumer scheduled
    /// at or before its producer).
    pub const TAPE_ORDER: &str = "D401";
    /// Two values with overlapping live ranges share a buffer slot.
    pub const TAPE_SLOT_OVERLAP: &str = "D402";
    /// In-place aliasing discipline broken: flagged in-place without a
    /// dying first operand in the output slot, aliasing a second read of
    /// the slot, on an incapable op — or reading the output slot without
    /// the flag.
    pub const TAPE_INPLACE: &str = "D403";
    /// A slot, feed or weight binding's shape disagrees with the graph.
    pub const TAPE_SLOT_SHAPE: &str = "D404";
    /// Recorded planned/naive peak bytes disagree with recomputation, or
    /// the planned peak exceeds the naive peak (warning).
    pub const TAPE_PEAK_ACCOUNTING: &str = "D405";
    /// A fused epilogue chain is unsound: an epilogue operand aliases
    /// the output buffer being mutated, a chain interior value has
    /// another consumer or escapes (so eliding it loses a live value),
    /// a step disagrees with its graph node's operator/operands, or a
    /// fused batch-norm lacks the dataflow well-conditioning proof.
    pub const TAPE_FUSED_ALIAS: &str = "D406";

    // D5xx — plan model checker
    /// A reachable state has unfinished subgraphs but no enabled event
    /// (trigger cycle / phantom dependency): the engine stalls forever.
    pub const MODEL_DEADLOCK: &str = "D500";
    /// Some interleaving dispatches a subgraph while the producer of one
    /// of its boundary inputs is unfinished — outputs depend on the
    /// interleaving (missing trigger edge).
    pub const MODEL_NONDETERMINISM: &str = "D501";
    /// A transfer departs while the producer may still be mutating the
    /// buffer, or a boundary value is not an escaped tape output (its
    /// slot can be recycled or mutated in place while read).
    pub const MODEL_TRANSFER_RACE: &str = "D502";
    /// The plan admits two subgraphs concurrently on one single-lane
    /// device: its claimed latency is below a device's serialized work.
    pub const MODEL_DEVICE_OVERCOMMIT: &str = "D503";
    /// A trigger edge's staleness (completions interleavable between
    /// producer finish and consumer start under delay injection) exceeds
    /// the configured bound.
    pub const MODEL_TRIGGER_STALENESS: &str = "D504";
    /// The exploration was truncated (state budget or plan size): the
    /// interleaving properties were not fully proven (warning).
    pub const MODEL_STATE_BUDGET: &str = "D510";

    // D6xx — dataflow (abstract interpretation) analyzer
    /// A divisor is certainly exactly zero on every execution.
    pub const DATAFLOW_DIV_BY_ZERO: &str = "D600";
    /// A mathematical domain violation can produce NaN (e.g. the square
    /// root of a provably negative variance).
    pub const DATAFLOW_NAN: &str = "D601";
    /// The entire output interval lies beyond f32 range: every
    /// execution overflows to ±Inf.
    pub const DATAFLOW_OVERFLOW: &str = "D602";
    /// A node's output is statically constant despite a runtime-varying
    /// input: the subgraph feeding it is dead (warning).
    pub const DATAFLOW_DEAD_CONST: &str = "D603";
    /// An op attribute makes interval reasoning (and the kernel itself)
    /// unsound, e.g. a non-positive or NaN epsilon.
    pub const DATAFLOW_BAD_ATTRIBUTE: &str = "D604";
}
