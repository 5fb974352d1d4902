//! Graph-level optimization passes.
//!
//! Passes are whole-graph rewrites: they build a fresh [`Graph`] and an
//! old→new node map, because `Graph` maintains its topological invariant
//! by being append-only. [`rewrite::GraphRewriter`] carries the shared
//! bookkeeping. Each pass scans for work first and hands a graph with none
//! back as it was given, so a pass that would change nothing rebuilds
//! nothing.

pub mod constant_fold;
pub mod cse;
pub mod dce;
pub mod fusion;
pub mod rewrite;

use std::borrow::Cow;

use duet_ir::{Graph, GraphError};

/// What a pass returns: the rewritten graph (`Cow::Owned`), or the graph
/// it was given (`Cow::Borrowed`) when its scan found nothing to do, and
/// the pass's count.
pub type Rewritten<'g> = Result<(Cow<'g, Graph>, usize), GraphError>;

pub use constant_fold::fold_constants;
pub use cse::eliminate_common_subexpressions;
pub use dce::eliminate_dead_code;
pub use fusion::fuse_groups;
