//! `duet-tune`: simulator-oracle schedule autotuning.
//!
//! Algorithm 1 (greedy critical-path placement + correction) is fast and
//! good, but it is one point in a large placement space — the D215
//! optimality-gap lint shows several zoo models sitting 1.5–1.6× above
//! the critical-path lower bound. This crate checks that point against
//! its neighbourhood with the deterministic virtual-clock simulator as
//! the objective oracle:
//!
//! * The search — beam search over single-device flips, seeded with
//!   Algorithm 1's placement, so the tuner is *never worse* by
//!   construction. Deterministic and cheap (tens of oracle evaluations
//!   on the zoo). On every zoo model, offline and under drift, it
//!   certifies Algorithm 1's placement rather than replacing it; it
//!   does repair a deliberately bad seed to the enumerated optimum.
//! * [`Oracle`] — the objective: the engine's own
//!   [`duet_runtime::Timeline`] with an evaluation counter. A candidate
//!   is priced by the replay that prices the engine, so every latency
//!   the search sees is one the D503 occupancy check re-derives, and a
//!   run is a pure function of (engine, config).
//! * Proven-plan promotion — a winning placement is instantiated via
//!   [`duet_core::Duet::with_devices`] (which re-applies the §VI-E
//!   single-device fallback guardrail), then must pass the D2xx plan
//!   lints *and* the exhaustive D5xx model check;
//!   [`TuneOutcome::promoted`] records the verdict.
//!
//! Entry point: [`tune`] (or the `duet tune <model>` CLI).

pub mod oracle;
mod strategy;
pub mod tuner;

pub use oracle::Oracle;
pub use tuner::{tune, tune_drifted, TuneConfig, TuneOutcome};
