//! Real CPU kernels for every operator in the DUET operator vocabulary.
//!
//! Each kernel validates shapes and writes its output in one pass. The
//! `_into` entry points the tape runs allocate nothing per call: outputs are
//! caller-owned, the kernel temporaries — a GEMM's packed B strips, a
//! convolution's padded image and its row-offset table, a depthwise
//! plane's padded copy and pitched accumulator — are borrowed from
//! grow-only process-wide lists, and a parallel region is described by a
//! pointer and a chunk geometry, not a chunk list (one that forks allocates
//! its job header, nothing else). The tensor-returning wrappers allocate
//! their result, once.
//!
//! Heavy kernels split their output across the global kernel pool
//! (`vendor/rayon`: as wide as the machine): GEMM into column-panel ×
//! row-block chunks, which pack each B strip once per GEMM (or read B in
//! place from a pitched image), conv2d into images and then into those GEMM
//! chunks, which also run the convolution's bias and fused epilogue on the
//! rows they just stored, depthwise (one padded phase-plane pass per tap,
//! the epilogue on each finished plane) and pooling into planes, `linear`
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
//! lane-split). There is one engine; [`reference`](mod@reference) is the contract's
//! oracle, plain single-threaded loops that contract tests and the
//! `duet-kernel-floor` CI gate call by name next to the engine's kernels.

mod attention;
mod conv;
mod elementwise;
mod gemm;
mod linalg;
pub mod micro;
mod norm;
pub mod reference;
mod rnn;
mod util;

pub use attention::{multi_head_attention, scaled_dot_attention};
pub use conv::{
    avg_pool2d, avg_pool2d_into, batch_norm2d, batch_norm2d_fold, batch_norm2d_folded_inplace,
    conv2d, conv2d_fused_into, conv2d_into, depthwise_conv2d, depthwise_dims, depthwise_fused_into,
    global_avg_pool2d, max_pool2d, max_pool2d_into, pool_dims, Conv2dDims,
};
pub use elementwise::{
    add, add_inplace, bias_add, bias_add_inplace_at, gelu, mul, mul_inplace, relu, rsub_inplace,
    scale, scale_inplace, sigmoid, sub, sub_inplace, tanh, unary_inplace, UnaryOp,
};
pub use gemm::{batched_matmul, linear, linear_acc_into, linear_into, matmul, matmul_into};
pub use linalg::{
    concat, embedding, reduce_max, reduce_mean, reduce_sum, slice_rows, split, transpose2d,
};
pub use norm::{layer_norm, log_softmax, softmax};
pub use rnn::{gru, gru_step, lstm, lstm_step, LstmState};
pub use util::{argmax, cosine_similarity, one_hot, topk};
