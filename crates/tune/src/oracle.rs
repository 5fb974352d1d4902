//! The search objective: a [`Timeline`] with telemetry.
//!
//! The tuner prices candidates on the timing core the engine already
//! built ([`duet_core::Duet::timeline`]) — dependency structure,
//! transfer prices and the per-(subgraph, device) execution table exist
//! once, so each candidate evaluation is a pure list-scheduling replay,
//! the same replay `SchedulePolicy::Ideal`, Algorithm 1 and the D503
//! bound read. Every evaluation increments `duet_tune_candidates_total`;
//! at ≈ 0.3 µs a replay it is too short to time by itself, so
//! [`crate::tune`] times the whole search instead.

use duet_compiler::CompiledSubgraph;
use duet_device::{DeviceKind, SystemModel};
use duet_ir::Graph;
use duet_runtime::Timeline;
use duet_telemetry::registry::TUNE_CANDIDATES;

/// A reusable placement evaluator over one fixed set of compiled
/// subgraphs.
#[derive(Debug, Clone)]
pub struct Oracle {
    sim: Timeline,
}

impl Oracle {
    /// Oracle over an engine's own timing core: every value it
    /// returns is the latency the engine would claim for that placement
    /// (the property the never-worse guarantee rides on).
    pub fn over(timeline: Timeline) -> Self {
        Oracle { sim: timeline }
    }

    /// Oracle over a timing core built here, for callers without an
    /// engine.
    ///
    /// # Panics
    /// Panics if `subgraphs` do not cover `graph` (see
    /// [`Timeline::new`] for the fallible form).
    pub fn analytic(graph: &Graph, subgraphs: &[CompiledSubgraph], system: &SystemModel) -> Self {
        Self::over(
            Timeline::new(graph, subgraphs, system)
                .unwrap_or_else(|e| panic!("subgraphs do not cover the graph: {e}")),
        )
    }

    /// Number of subgraphs a candidate must place.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True when the oracle covers no subgraphs.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Simulated end-to-end makespan of one placement, µs.
    pub fn evaluate(&self, devices: &[DeviceKind]) -> f64 {
        TUNE_CANDIDATES.inc();
        self.sim.makespan(devices)
    }
}
