//! # duet-serve
//!
//! An online-serving runtime on top of the DUET engine: the piece that
//! turns the paper's offline-scheduled, single-request engine into a
//! long-lived server with production concerns.
//!
//! Request flow: **registry → admission → batcher → executor →
//! feedback**.
//!
//! * **Engine registry + plan cache** ([`ServeServer`], [`PlanCache`]) —
//!   one compiled engine per (model, batch size), built lazily and
//!   reused; every variant's [`duet_core::SchedulePlan`] records its
//!   batch (Fig. 17: occupancy — and therefore the optimal placement —
//!   changes with batch size).
//! * **SLA admission** — bounded per-model queues shed at submit time
//!   ([`ServeError::QueueFull`]); per-request deadlines shed while
//!   queued ([`ServeError::Expired`]).
//! * **Dynamic batcher** ([`Batcher`]) — coalesces requests up to a max
//!   batch within a linger window, executes power-of-two sized chunks on
//!   the batch-appropriate engine variant; batched outputs are
//!   bit-identical to individual batch-1 runs (every kernel is
//!   row-independent). Its decisions are one pure step over µs
//!   timestamps, driven on two clocks: the server's worker thread on the
//!   wall clock, and [`serve_virtual`] on a virtual one (seeded
//!   [`poisson_arrivals`], priced service) — the source of
//!   `results/ext-serving.json` and of `ext-serving-real`'s sim column.
//! * **Runtime feedback** ([`DriftMonitor`]) — EWMA of measured vs
//!   predicted virtual latency per batch; sustained drift re-runs
//!   Algorithm 1's correction against the observed system and hot-swaps
//!   every cached plan through an [`ArcCell`] (arc-swap-style atomic
//!   publication).
//! * **Metrics** ([`Metrics`]) — shed/completion counters, queue depth,
//!   batch-size histogram, wall-clock sojourn and virtual service
//!   percentiles, partitioned into drift epochs.
//! * **duet-insight** ([`FlightRecorder`], [`Attribution`],
//!   [`SloMonitor`]) — a per-request trace context minted at admission
//!   links every span from admission through batch, subgraph and kernel
//!   into one causal tree; each response carries a per-segment
//!   (queue/linger/compute/transfer/overhead) decomposition of its
//!   measured sojourn; an always-on bounded ring of completed span
//!   trees is dumped to disk on anomalies (SLO burn, shed, drift
//!   hot-swap, checker-refused swap) for offline analysis with
//!   `duet insight` and `duet trace --dump`.
//!
//! The `duet-serve` binary is a closed/open-loop Poisson load generator
//! over this runtime; `cargo run --release -p duet-serve --bin
//! duet-serve -- --help` lists its scenario knobs.

pub mod batch;
pub mod cache;
pub mod feedback;
pub mod flight;
pub mod insight;
pub mod loadgen;
pub mod metrics;
pub mod policy;
pub mod server;
pub mod spec;
pub mod virtual_time;

pub use batch::{merge_feeds, split_outputs};
pub use cache::{ArcCell, EngineVariant, PlanCache};
pub use feedback::{DriftMonitor, FeedbackConfig};
pub use flight::{
    AnomalyRule, FlightDump, FlightRecorder, RequestTrace, SloConfig, SloMonitor, SloVerdict,
};
pub use insight::{Attribution, AttributionSummary, SegmentSummary};
pub use loadgen::{poisson_arrivals, LoadGen, LoadGenConfig, LoadReport};
pub use metrics::{Metrics, MetricsSnapshot};
pub use policy::{Action, Batcher};
pub use server::{ServeConfig, ServeHandle, ServeResponse, ServeServer};
pub use spec::{batch_axis, ModelSpec};
pub use virtual_time::{serve_virtual, VirtualReport};

/// Everything that can go wrong between submit and response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// No model of that name is registered.
    UnknownModel(String),
    /// Admission control: the model's bounded queue is full.
    QueueFull,
    /// The request's SLA deadline elapsed before execution started.
    Expired,
    /// The model's worker is gone: the server is shutting down, or the
    /// worker died. Requests it had admitted but not answered resolve to
    /// [`ServeError::Exec`] ("response channel closed").
    ShuttingDown,
    /// A request feed is missing an input tensor.
    MissingInput { label: String },
    /// A request feed has the wrong shape for its input.
    BadShape { label: String, msg: String },
    /// Execution failed.
    Exec(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::QueueFull => write!(f, "queue full (request shed)"),
            ServeError::Expired => write!(f, "SLA deadline expired before execution"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::MissingInput { label } => write!(f, "missing input tensor {label:?}"),
            ServeError::BadShape { label, msg } => write!(f, "bad shape for {label:?}: {msg}"),
            ServeError::Exec(msg) => write!(f, "execution failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}
