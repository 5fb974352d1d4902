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
//! * **Lowering with operator fusion**: a subgraph becomes a sequence of
//!   [`CompiledKernel`]s, where elementwise epilogues (ReLU, bias-add,
//!   residual adds) and conv-side batch norms are folded into their
//!   producers — fewer kernel launches, less memory traffic, and a cost
//!   profile the device models price accordingly.
//!
//! The unfused path (`CompileOptions::none()`) is what the DL-framework
//! baseline in `duet-frameworks` uses; the delta between the two *is* the
//! compiler's contribution to the evaluation figures.

pub mod invariants;
pub mod lower;
pub mod memory;
pub mod pass;
pub mod passes;

pub use invariants::{PassViolation, ViolationKind};
pub use lower::{CompiledKernel, CompiledSubgraph};
pub use memory::{
    ArenaPool, ArenaPoolStats, EpilogueOp, EpilogueStep, ExecutableTape, Instr, MemoryPlan,
    Operand, TapeArena, TapeOptions,
};
pub use pass::{CompileError, CompileOptions, Compiler, OptimizeStats};
