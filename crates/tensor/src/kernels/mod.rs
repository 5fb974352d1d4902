//! Real CPU kernels for every operator in the DUET operator vocabulary.
//!
//! Each kernel validates shapes and writes its output in one pass. The
//! `_into` entry points the tape runs allocate nothing per call: outputs are
//! caller-owned, the one kernel temporary — the packed B strip of a GEMM
//! chunk, `k × 32` floats — is borrowed from a grow-only process-wide list,
//! and a parallel region is described by a pointer and a chunk geometry, not
//! a chunk list (one that forks allocates its job header, nothing else). The
//! tensor-returning wrappers allocate their result, once.
//!
//! Heavy kernels split their output across the global kernel pool
//! (`vendor/rayon`: as wide as the machine): GEMM into column-panel ×
//! row-block chunks that each pack their own strips, conv2d into images and
//! then into those GEMM chunks, depthwise and pooling into planes, `linear`
//! into rows.
//! Every split goes through one fork gate, `micro::fork_if_worthwhile`: a
//! region whose estimated work is below `FORK_MIN_WORK` runs inline on its
//! caller. Each output element is produced by exactly one reduction,
//! performed in a fixed order inside one chunk, so results are bit-exact
//! regardless of thread count or chunk shape.
//!
//! The arithmetic engine lives in [`micro`]: lane-chunked, register-tiled
//! microkernels with documented reduction-order contracts (exact `to_bits`
//! identity where reassociation-free — GEMM and conv2d, one fused
//! multiply-add chain per output — ulp-bounded where the k-reduction is
//! lane-split). [`set_reference_mode`] routes the heavy kernels through the
//! seed scalar implementations instead — the oracle for contract tests and
//! the baseline for the `duet-kernel-floor` CI gate.

mod attention;
mod conv;
mod elementwise;
mod gemm;
mod linalg;
pub mod micro;
mod norm;
mod reference;
mod rnn;
mod util;

pub use attention::{multi_head_attention, scaled_dot_attention};
pub use conv::{
    avg_pool2d, batch_norm2d, batch_norm2d_inplace, batch_norm2d_into, conv2d, conv2d_into,
    depthwise_conv2d, global_avg_pool2d, max_pool2d,
};
pub use elementwise::{
    add, add_inplace, add_into, bias_add, bias_add_inplace, bias_add_into, gelu, mul, mul_inplace,
    mul_into, relu, rsub_inplace, scale, scale_inplace, scale_into, sigmoid, sub, sub_inplace,
    sub_into, tanh, unary_inplace, unary_into, UnaryOp,
};
pub use gemm::{batched_matmul, linear, linear_acc_into, linear_into, matmul, matmul_into};
pub use linalg::{
    concat, embedding, reduce_max, reduce_mean, reduce_sum, slice_rows, split, transpose2d,
};
pub use norm::{layer_norm, log_softmax, softmax};
pub use reference::{reference_mode, set_reference_mode};
pub use rnn::{gru_step, lstm, lstm_step, LstmState};
pub use util::{argmax, cosine_similarity, one_hot, topk};
