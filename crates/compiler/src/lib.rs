//! # duet-compiler
//!
//! The optimizing tensor-program compiler DUET is "aware" of.
//!
//! In the paper DUET sits on top of TVM: subgraphs produced by the
//! partitioner are translated back into Relay, pushed through TVM's
//! graph-level optimizations, and code-generated per device. This crate is
//! that compiler for the reproduction:
//!
//! * **Graph-level passes** (the ones that matter for coarse-grained
//!   partitioning, §III-B opportunity 3): constant folding, common
//!   subexpression elimination, dead-code elimination.
//! * **Lowering with operator fusion**: one grouper
//!   ([`passes::fuse_groups`]) folds elementwise epilogues (ReLU,
//!   bias-add, residual adds) and proven batch norms into their producers.
//!   Each group runs as one instruction of the subgraph's memory-planned
//!   [`ExecutableTape`] and is priced as one [`CompiledKernel`] — fewer
//!   kernel launches, less memory traffic — so kernel *k* is instruction
//!   *k*, and what the device models price is what runs.
//!
//! The unfused path (`CompileOptions::none()`: one instruction per
//! operator) is what the DL-framework baseline in `duet-frameworks` uses,
//! priced and run; the delta between the two *is* the compiler's
//! contribution to the evaluation figures.

pub mod invariants;
pub mod lower;
pub mod memory;
pub mod pass;
pub mod passes;

pub use invariants::{PassViolation, ViolationKind};
pub use lower::{CompiledKernel, CompiledSubgraph, LazyTape};
pub use memory::{
    ArenaPool, ArenaPoolStats, EpilogueOp, EpilogueStep, ExecutableTape, Instr, MemoryPlan,
    Operand, TapeArena,
};
pub use pass::{CompileError, CompileOptions, Compiler, OptimizeStats};
