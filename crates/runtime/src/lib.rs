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
//! * [`HeterogeneousExecutor`] — the engine of §IV-D: one lane per device
//!   polling its own synchronization queue, dependency-triggered subgraph
//!   execution, real tensor numerics. The caller's thread runs one lane;
//!   the other device gets a thread only if the placement gives it work.
//! * [`LatencyStats`] — mean and percentile statistics over repeated runs
//!   (the paper reports P50/P99/P99.9 over 5000 runs).
//! * [`ExecutionWitness`] — an ordered event log both engines can emit
//!   (`run_witnessed`, [`simulate_witnessed`]); `duet-analysis` checks
//!   witnesses for runtime conformance (`D3xx`): happens-before order,
//!   virtual-clock readiness, per-device monotonicity, transfer
//!   accounting, reported latency.

pub mod executor;
pub mod measure;
pub mod profile;
pub mod serving;
pub mod sim;
pub mod stats;
pub mod timeline;
pub mod trace;
pub mod validate;
pub mod witness;

pub use executor::{ExecBreakdown, ExecutionOutcome, HeterogeneousExecutor};
pub use measure::{measure_latency, measure_stats};
pub use profile::{Profiler, SubgraphProfile};
pub use serving::{simulate_serving, ServingConfig, ServingResult};
pub use sim::{
    simulate, simulate_witnessed, subgraph_exec_time_us, Placed, SimNoise, SimResult, TimelineEntry,
};
pub use stats::LatencyStats;
pub use timeline::{NoNoise, Noise, Observer, Timeline};
pub use trace::{merged_perfetto_trace, witness_to_chrome_trace};
pub use validate::{validate_schedule, ScheduleError};
pub use witness::{
    DelayInjection, ExecutionWitness, TransferKind, TriggerEdge, WitnessEvent, WitnessSource,
};
