//! # duet-runtime
//!
//! The runtime half of DUET: profiling, schedule simulation, heterogeneous
//! execution, and latency measurement.
//!
//! * [`Profiler`] — the compiler-aware profiler of §IV-B: each compiled
//!   subgraph is treated as a standalone model and "run" on both device
//!   models for a fixed number of runs, recording execution time and I/O
//!   sizes.
//! * [`Timeline`] — the one timing core: dependency, transfer and
//!   execution tables built once per (graph, subgraphs), re-priced per
//!   system, and a single deterministic list-scheduling replay
//!   (per-device serialization, cross-device transfer latency, optional
//!   noise). All evaluation figures and every price the scheduler, the
//!   tuner and the engine take come from it; [`simulate`] and
//!   [`measure_latency`] are its front ends for one finished placement.
//!   Latency under load is `duet-serve`'s: its virtual driver runs the
//!   server's batching policy on seeded arrivals and prices each batch
//!   with [`simulate`].
//! * [`HeterogeneousExecutor`] — the engine of §IV-D: one lane per device,
//!   dependency-triggered subgraph execution, real tensor numerics. Each
//!   lane runs its device's subgraphs in the order the noise-free replay
//!   dispatched them (a [`Schedule`]) and reports that replay's clock. The
//!   caller's thread runs one lane; the other device gets a thread only if
//!   the placement gives it work.
//! * [`Observer`] — the one seam both clocks report a run to: the
//!   executor's lanes (`run_observed`) and the [`Timeline`] replay call
//!   it per dispatch. Witnessing ([`WitnessLog`]), telemetry spans
//!   ([`SpanLog`]) and interleaving stress ([`DelayInjection`]) are
//!   observers; `()` is none.
//! * [`LatencyStats`] — mean and percentile statistics over repeated runs
//!   (the paper reports P50/P99/P99.9 over 5000 runs).
//! * [`ExecutionWitness`] — an ordered event log both engines emit
//!   through one [`WitnessLog`] (`run_observed`, [`simulate_witnessed`]);
//!   `duet-analysis` checks witnesses for runtime conformance (`D3xx`):
//!   happens-before order, virtual-clock readiness, per-device
//!   monotonicity, transfer accounting, reported latency. [`chrome_trace`]
//!   renders one, with any telemetry spans, for a trace viewer.

pub mod executor;
pub mod measure;
pub mod profile;
pub mod sim;
pub mod stats;
pub mod timeline;
pub mod trace;
pub mod witness;

pub use executor::{ExecutionOutcome, HeterogeneousExecutor};
pub use measure::{measure_latency, measure_stats};
pub use profile::{Profiler, SubgraphProfile};
pub use sim::{
    simulate, simulate_witnessed, subgraph_exec_time_us, Placed, SimNoise, SimResult, TimelineEntry,
};
pub use stats::LatencyStats;
pub use timeline::{
    Dispatch, ExecBreakdown, NoNoise, Noise, Observer, Schedule, ScheduleError, Timeline,
};
pub use trace::chrome_trace;
pub use witness::{
    DelayInjection, ExecutionWitness, SpanLog, TransferKind, TriggerEdge, WitnessEvent, WitnessLog,
    WitnessSource,
};
