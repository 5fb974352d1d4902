//! `duet-tune`: simulator-oracle schedule autotuning.
//!
//! Algorithm 1 (greedy critical-path placement + correction) is fast and
//! good, but it is one point in a large placement space — the D215
//! optimality-gap lint shows several zoo models sitting 1.5–1.6× above
//! the critical-path lower bound. This crate searches that space with
//! the deterministic virtual-clock simulator as the objective oracle:
//!
//! * [`SearchStrategy`] — pluggable search over per-subgraph device
//!   vectors. Ships three implementations: a critical-path-first
//!   constructive baseline, beam search over single-device flips, and
//!   simulated annealing over flip/swap neighborhoods. All are seeded
//!   with Algorithm 1's placement, so the tuner is *never worse* by
//!   construction.
//! * [`Oracle`] — the objective: the engine's own
//!   [`duet_runtime::Timeline`] with evaluation counters. A candidate is
//!   priced by the replay that prices the engine, so every latency the
//!   search sees is one the D503 occupancy check re-derives, and a run
//!   is a pure function of (engine, config).
//! * Proven-plan promotion — a winning placement is instantiated via
//!   [`duet_core::Duet::with_devices`] (which re-applies the §VI-E
//!   single-device fallback guardrail), then must pass the D2xx plan
//!   lints *and* the exhaustive D5xx model check before [`TuneCache`]
//!   persists it for serving to hot-swap.
//!
//! Entry point: [`tune`] (or the `duet tune <model>` CLI).

pub mod cache;
pub mod oracle;
pub mod strategy;
pub mod tuner;

pub use cache::TuneCache;
pub use oracle::Oracle;
pub use strategy::{
    BeamSearch, CriticalPathFirst, SearchContext, SearchResult, SearchStrategy, SimulatedAnnealing,
};
pub use tuner::{tune, tune_drifted, StrategyReport, TuneConfig, TuneOutcome};
