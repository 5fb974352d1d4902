//! # duet-core
//!
//! The DUET engine: everything between a pre-trained model graph and a
//! running heterogeneous schedule (paper §IV, Fig. 6).
//!
//! * [`partition`] — coarse-grained multi-phase graph partitioning
//!   (§IV-A): the DAG becomes a sequence of phases, each either a
//!   *sequential* chain or a *multi-path* set of independent subgraphs.
//! * [`sched`] — the greedy-correction subgraph scheduler (§IV-C,
//!   Algorithm 1) and the baseline policies of §VI-C (Random,
//!   Round-Robin, Random+Correction, exhaustive Ideal).
//! * [`engine`] — the [`Duet`] facade: optimize → partition → compile →
//!   profile → schedule → (fallback?) → execute, with a placement report
//!   reproducing Table II.
//!
//! ```
//! use duet_core::{Duet, SchedulePolicy};
//! use duet_models::{wide_and_deep, WideAndDeepConfig};
//!
//! let model = wide_and_deep(&WideAndDeepConfig::small());
//! let engine = Duet::builder()
//!     .policy(SchedulePolicy::GreedyCorrection)
//!     .build(&model)
//!     .unwrap();
//! let feeds = duet_models::input_feeds(engine.graph(), 1);
//! let outcome = engine.run(&feeds).unwrap();
//! assert!(outcome.virtual_latency_us > 0.0);
//! ```

pub mod engine;
pub mod explain;
pub mod partition;
pub mod plan;
pub mod report;
pub mod sched;

pub use engine::{Duet, DuetBuilder, EngineError, Granularity};
pub use explain::{explain, Explanation, PlacementRationale};
pub use partition::{
    partition, partition_nested, partition_nodes, partition_per_operator, Partition, Phase,
    PhaseKind,
};
pub use plan::{fingerprint, PlannedSubgraph, SchedulePlan};
pub use report::{PlacementReport, SubgraphRow};
pub use sched::{SchedulePolicy, SubgraphUnit};
