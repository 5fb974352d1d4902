//! # duet-ir
//!
//! The tensor-program intermediate representation used throughout DUET.
//!
//! Mirroring the paper's implementation section (§V), there are two layers:
//!
//! * an **expression IR** ([`expr::Expr`]) in the style of TVM's Relay — a
//!   pure, expression-oriented form convenient for writing models, and
//! * an **adjacency-list DAG** ([`Graph`]) obtained from expressions by a
//!   visitor-pattern translation ([`expr::to_graph`]) — the form the
//!   partitioner, profiler and schedulers operate on. Each node is one
//!   tensor operator, each edge a data dependency.
//!
//! Every operator carries an analytic [`CostProfile`] (FLOPs, memory
//! traffic, exploitable parallelism, kernel-launch count) derived from its
//! input shapes. The device models in `duet-device` turn those profiles
//! into per-device execution-time estimates; the *profiler* in
//! `duet-runtime` measures compiled subgraphs against those models.

pub mod absint;
pub mod builder;
pub mod cost;
pub mod expr;
pub mod fingerprint;
pub mod graph;
pub mod infer;
pub mod op;
pub mod serialize;

pub use builder::GraphBuilder;
pub use cost::CostProfile;
pub use fingerprint::fingerprint;
pub use graph::{Graph, GraphError, Node, NodeId};
pub use op::Op;
pub use serialize::{decode, encode, DecodeError};
