//! The operator vocabulary.
//!
//! Each [`Op`] knows its arity, how to infer its output shape, how to
//! execute numerically (via `duet-tensor` kernels), and its analytic
//! [`CostProfile`]. This keeps shape/cost/semantics in one place so the
//! compiler, profiler and device models can never disagree about an
//! operator.

use duet_tensor::{kernels, Shape, Tensor, TensorError};

use crate::cost::CostProfile;

/// A tensor operator.
///
/// `Input` and `Constant` are nullary graph sources; everything else
/// consumes the outputs of other nodes. Shapes are static (TVM of the
/// paper's era froze batch size too, see §VI-D "Varying the batch sizes").
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// External input (placeholder). Fed at inference time.
    Input,
    /// Model parameter; payload stored in the [`crate::Graph`].
    Constant,
    /// Fully-connected layer `x @ w^T + b`; inputs `[x, w, b]`.
    Linear,
    /// Plain matrix product; inputs `[a, b]`.
    MatMul,
    /// 2-D convolution (NCHW); inputs `[x, w]` or `[x, w, b]`.
    Conv2d {
        stride: usize,
        padding: usize,
        bias: bool,
    },
    /// Depthwise 2-D convolution (one filter per channel, MobileNet
    /// style); inputs `[x, w]` or `[x, w, b]` with `w: [c, 1, kh, kw]`.
    DepthwiseConv2d {
        stride: usize,
        padding: usize,
        bias: bool,
    },
    /// Inference batch norm; inputs `[x, gamma, beta, mean, var]`.
    BatchNorm2d,
    /// Square-window max pool; inputs `[x]`.
    MaxPool2d {
        window: usize,
        stride: usize,
    },
    /// Square-window average pool; inputs `[x]`.
    AvgPool2d {
        window: usize,
        stride: usize,
    },
    /// Global average pool `[n,c,h,w] -> [n,c]`; inputs `[x]`.
    GlobalAvgPool2d,
    /// Single-layer LSTM over a full sequence; inputs `[x, w_ih, w_hh, b]`
    /// with `x: [seq, batch, in]`; output `[seq, batch, hidden]`.
    Lstm,
    /// Single-layer GRU over a full sequence; same input convention with
    /// 3-gate weights; output `[seq, batch, hidden]`.
    Gru,
    /// Multi-head self attention; inputs `[x, w_q, w_k, w_v, w_o]`.
    Mha {
        heads: usize,
    },
    /// Layer norm over the trailing dim; inputs `[x, gamma, beta]`.
    LayerNorm {
        eps: f32,
    },
    /// Softmax over the trailing dim; inputs `[x]`.
    Softmax,
    /// Log-softmax over the trailing dim; inputs `[x]`.
    LogSoftmax,
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
    /// Elementwise sum; inputs `[a, b]` (same shape).
    Add,
    /// Elementwise difference; inputs `[a, b]`.
    Sub,
    /// Elementwise (Hadamard) product; inputs `[a, b]`.
    Mul,
    /// Add `[c]` bias over the trailing dim; inputs `[x, b]`.
    BiasAdd,
    /// Multiply by a compile-time scalar; inputs `[x]`.
    Scale {
        factor: f32,
    },
    /// Concatenate along `axis`; variadic inputs.
    Concat {
        axis: usize,
    },
    /// Embedding lookup; inputs `[table, ids]`.
    Embedding,
    /// Reinterpret shape; inputs `[x]`.
    Reshape {
        shape: Vec<usize>,
    },
    /// 2-D transpose; inputs `[x]`.
    Transpose2d,
    ReduceSum,
    ReduceMean,
    ReduceMax,
    /// Row slice `[start, end)` of a rank-2 tensor; inputs `[x]`.
    SliceRows {
        start: usize,
        end: usize,
    },
}

impl Op {
    /// Short operator name, used for graph dumps and DOT export.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Constant => "const",
            Op::Linear => "linear",
            Op::MatMul => "matmul",
            Op::Conv2d { .. } => "conv2d",
            Op::DepthwiseConv2d { .. } => "depthwise_conv2d",
            Op::BatchNorm2d => "batch_norm",
            Op::MaxPool2d { .. } => "max_pool",
            Op::AvgPool2d { .. } => "avg_pool",
            Op::GlobalAvgPool2d => "global_avg_pool",
            Op::Lstm => "lstm",
            Op::Gru => "gru",
            Op::Mha { .. } => "mha",
            Op::LayerNorm { .. } => "layer_norm",
            Op::Softmax => "softmax",
            Op::LogSoftmax => "log_softmax",
            Op::Relu => "relu",
            Op::Sigmoid => "sigmoid",
            Op::Tanh => "tanh",
            Op::Gelu => "gelu",
            Op::Add => "add",
            Op::Sub => "sub",
            Op::Mul => "mul",
            Op::BiasAdd => "bias_add",
            Op::Scale { .. } => "scale",
            Op::Concat { .. } => "concat",
            Op::Embedding => "embedding",
            Op::Reshape { .. } => "reshape",
            Op::Transpose2d => "transpose",
            Op::ReduceSum => "reduce_sum",
            Op::ReduceMean => "reduce_mean",
            Op::ReduceMax => "reduce_max",
            Op::SliceRows { .. } => "slice_rows",
        }
    }

    /// Allowed input count as `(min, max)`; `usize::MAX` marks variadic.
    pub fn arity(&self) -> (usize, usize) {
        match self {
            Op::Input | Op::Constant => (0, 0),
            Op::Linear => (3, 3),
            Op::MatMul | Op::Add | Op::Sub | Op::Mul | Op::BiasAdd | Op::Embedding => (2, 2),
            Op::Conv2d { bias, .. } | Op::DepthwiseConv2d { bias, .. } => {
                if *bias {
                    (3, 3)
                } else {
                    (2, 2)
                }
            }
            Op::BatchNorm2d | Op::Mha { .. } => (5, 5),
            Op::Lstm | Op::Gru => (4, 4),
            Op::LayerNorm { .. } => (3, 3),
            Op::Concat { .. } => (1, usize::MAX),
            Op::MaxPool2d { .. }
            | Op::AvgPool2d { .. }
            | Op::GlobalAvgPool2d
            | Op::Softmax
            | Op::LogSoftmax
            | Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Gelu
            | Op::Scale { .. }
            | Op::Reshape { .. }
            | Op::Transpose2d
            | Op::ReduceSum
            | Op::ReduceMean
            | Op::ReduceMax
            | Op::SliceRows { .. } => (1, 1),
        }
    }

    /// True for cheap elementwise operators the fusion pass can fold into
    /// an upstream producer.
    pub fn is_fusable_elementwise(&self) -> bool {
        matches!(
            self,
            Op::Relu
                | Op::Sigmoid
                | Op::Tanh
                | Op::Gelu
                | Op::Add
                | Op::Sub
                | Op::Mul
                | Op::BiasAdd
                | Op::Scale { .. }
        )
    }

    /// Infer the output shape from input shapes.
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape, TensorError> {
        let need = |i: usize| -> Result<&Shape, TensorError> {
            inputs.get(i).copied().ok_or(TensorError::InvalidArgument {
                op: "infer_shape",
                msg: format!("{} missing input {i}", self.name()),
            })
        };
        match self {
            Op::Input | Op::Constant => Err(TensorError::InvalidArgument {
                op: "infer_shape",
                msg: "source nodes carry explicit shapes".into(),
            }),
            Op::Linear => {
                let x = need(0)?;
                let w = need(1)?;
                x.expect_rank("linear", 2)?;
                w.expect_rank("linear", 2)?;
                if x.dim(1) != w.dim(1) {
                    return Err(TensorError::ShapeMismatch {
                        op: "linear",
                        lhs: x.dims().to_vec(),
                        rhs: w.dims().to_vec(),
                    });
                }
                Ok(Shape::new(vec![x.dim(0), w.dim(0)]))
            }
            Op::MatMul => {
                let a = need(0)?;
                let b = need(1)?;
                a.expect_rank("matmul", 2)?;
                b.expect_rank("matmul", 2)?;
                if a.dim(1) != b.dim(0) {
                    return Err(TensorError::ShapeMismatch {
                        op: "matmul",
                        lhs: a.dims().to_vec(),
                        rhs: b.dims().to_vec(),
                    });
                }
                Ok(Shape::new(vec![a.dim(0), b.dim(1)]))
            }
            Op::Conv2d {
                stride, padding, ..
            } => {
                let (x, w) = (need(0)?.dims(), need(1)?.dims());
                let d = kernels::Conv2dDims::new(x, w, *stride, *padding)?;
                let (oh, ow) = d.out_hw();
                Ok(Shape::new(vec![d.images, d.c_out, oh, ow]))
            }
            Op::DepthwiseConv2d {
                stride, padding, ..
            } => {
                let x = need(0)?;
                let d = kernels::depthwise_dims(x.dims(), need(1)?.dims(), *stride, *padding)?;
                let (oh, ow) = d.out_hw();
                Ok(Shape::new(vec![x.dim(0), x.dim(1), oh, ow]))
            }
            Op::BatchNorm2d => {
                let x = need(0)?;
                x.expect_rank("batch_norm", 4)?;
                Ok(x.clone())
            }
            Op::MaxPool2d { window, stride } | Op::AvgPool2d { window, stride } => {
                let x = need(0)?;
                let (oh, ow) = kernels::pool_dims(self.name(), x.dims(), *window, *stride)?;
                Ok(Shape::new(vec![x.dim(0), x.dim(1), oh, ow]))
            }
            Op::GlobalAvgPool2d => {
                let x = need(0)?;
                x.expect_rank("global_avg_pool", 4)?;
                Ok(Shape::new(vec![x.dim(0), x.dim(1)]))
            }
            Op::Lstm | Op::Gru => {
                let x = need(0)?;
                let w_hh = need(2)?;
                x.expect_rank("rnn", 3)?;
                w_hh.expect_rank("rnn", 2)?;
                let hidden = w_hh.dim(1);
                let gates = if matches!(self, Op::Lstm) { 4 } else { 3 };
                if w_hh.dim(0) != gates * hidden {
                    return Err(TensorError::ShapeMismatch {
                        op: "rnn",
                        lhs: w_hh.dims().to_vec(),
                        rhs: vec![gates * hidden, hidden],
                    });
                }
                Ok(Shape::new(vec![x.dim(0), x.dim(1), hidden]))
            }
            Op::Mha { heads } => {
                let x = need(0)?;
                x.expect_rank("mha", 2)?;
                if *heads == 0 || x.dim(1) % heads != 0 {
                    return Err(TensorError::InvalidArgument {
                        op: "mha",
                        msg: format!("d_model {} not divisible by {heads} heads", x.dim(1)),
                    });
                }
                Ok(x.clone())
            }
            Op::LayerNorm { .. }
            | Op::Softmax
            | Op::LogSoftmax
            | Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Gelu
            | Op::Scale { .. } => Ok(need(0)?.clone()),
            Op::Add | Op::Sub | Op::Mul => {
                let a = need(0)?;
                let b = need(1)?;
                if a != b {
                    return Err(TensorError::ShapeMismatch {
                        op: "elementwise",
                        lhs: a.dims().to_vec(),
                        rhs: b.dims().to_vec(),
                    });
                }
                Ok(a.clone())
            }
            Op::BiasAdd => {
                let x = need(0)?;
                let b = need(1)?;
                b.expect_rank("bias_add", 1)?;
                if x.rank() == 0 || x.dim(x.rank() - 1) != b.dim(0) {
                    return Err(TensorError::ShapeMismatch {
                        op: "bias_add",
                        lhs: x.dims().to_vec(),
                        rhs: b.dims().to_vec(),
                    });
                }
                Ok(x.clone())
            }
            Op::Concat { axis } => {
                let first = need(0)?;
                first.check_axis("concat", *axis)?;
                let mut dims = first.dims().to_vec();
                for (i, s) in inputs.iter().enumerate().skip(1) {
                    s.expect_rank("concat", first.rank())?;
                    for d in 0..first.rank() {
                        if d != *axis && s.dim(d) != first.dim(d) {
                            return Err(TensorError::ShapeMismatch {
                                op: "concat",
                                lhs: first.dims().to_vec(),
                                rhs: s.dims().to_vec(),
                            });
                        }
                    }
                    let _ = i;
                    dims[*axis] += s.dim(*axis);
                }
                Ok(Shape::new(dims))
            }
            Op::Embedding => {
                let table = need(0)?;
                let ids = need(1)?;
                table.expect_rank("embedding", 2)?;
                Ok(Shape::new(vec![ids.volume(), table.dim(1)]))
            }
            Op::Reshape { shape } => {
                let x = need(0)?;
                let target = Shape::new(shape.clone());
                if target.volume() != x.volume() {
                    return Err(TensorError::LengthMismatch {
                        expected: target.volume(),
                        actual: x.volume(),
                    });
                }
                Ok(target)
            }
            Op::Transpose2d => {
                let x = need(0)?;
                x.expect_rank("transpose", 2)?;
                Ok(Shape::new(vec![x.dim(1), x.dim(0)]))
            }
            Op::ReduceSum | Op::ReduceMean | Op::ReduceMax => {
                let x = need(0)?;
                if x.rank() == 0 {
                    return Err(TensorError::RankMismatch {
                        op: "reduce",
                        expected: 1,
                        actual: 0,
                    });
                }
                Ok(Shape::new(x.dims()[..x.rank() - 1].to_vec()))
            }
            Op::SliceRows { start, end } => {
                let x = need(0)?;
                x.expect_rank("slice_rows", 2)?;
                if start > end || *end > x.dim(0) {
                    return Err(TensorError::InvalidArgument {
                        op: "slice_rows",
                        msg: format!("range {start}..{end} out of bounds"),
                    });
                }
                Ok(Shape::new(vec![end - start, x.dim(1)]))
            }
        }
    }

    /// Execute the operator on concrete inputs.
    pub fn execute(&self, inputs: &[&Tensor]) -> Result<Tensor, TensorError> {
        let need = |i: usize| -> Result<&Tensor, TensorError> {
            inputs.get(i).copied().ok_or(TensorError::InvalidArgument {
                op: "execute",
                msg: format!("{} missing input {i}", self.name()),
            })
        };
        match self {
            Op::Input | Op::Constant => Err(TensorError::InvalidArgument {
                op: "execute",
                msg: "source nodes are fed by the executor, not computed".into(),
            }),
            Op::Linear => kernels::linear(need(0)?, need(1)?, Some(need(2)?)),
            Op::MatMul => kernels::matmul(need(0)?, need(1)?),
            Op::Conv2d {
                stride,
                padding,
                bias,
            } => {
                let b = if *bias { Some(need(2)?) } else { None };
                kernels::conv2d(need(0)?, need(1)?, b, *stride, *padding)
            }
            Op::DepthwiseConv2d {
                stride,
                padding,
                bias,
            } => {
                let b = if *bias { Some(need(2)?) } else { None };
                kernels::depthwise_conv2d(need(0)?, need(1)?, b, *stride, *padding)
            }
            Op::BatchNorm2d => {
                kernels::batch_norm2d(need(0)?, need(1)?, need(2)?, need(3)?, need(4)?, 1e-5)
            }
            Op::MaxPool2d { window, stride } => kernels::max_pool2d(need(0)?, *window, *stride),
            Op::AvgPool2d { window, stride } => kernels::avg_pool2d(need(0)?, *window, *stride),
            Op::GlobalAvgPool2d => kernels::global_avg_pool2d(need(0)?),
            Op::Lstm => kernels::lstm(need(0)?, need(1)?, need(2)?, need(3)?).map(|(o, _)| o),
            Op::Gru => kernels::gru(need(0)?, need(1)?, need(2)?, need(3)?),
            Op::Mha { heads } => kernels::multi_head_attention(
                need(0)?,
                need(1)?,
                need(2)?,
                need(3)?,
                need(4)?,
                *heads,
            ),
            Op::LayerNorm { eps } => kernels::layer_norm(need(0)?, need(1)?, need(2)?, *eps),
            Op::Softmax => kernels::softmax(need(0)?),
            Op::LogSoftmax => kernels::log_softmax(need(0)?),
            Op::Relu => Ok(kernels::relu(need(0)?)),
            Op::Sigmoid => Ok(kernels::sigmoid(need(0)?)),
            Op::Tanh => Ok(kernels::tanh(need(0)?)),
            Op::Gelu => Ok(kernels::gelu(need(0)?)),
            Op::Add => kernels::add(need(0)?, need(1)?),
            Op::Sub => kernels::sub(need(0)?, need(1)?),
            Op::Mul => kernels::mul(need(0)?, need(1)?),
            Op::BiasAdd => kernels::bias_add(need(0)?, need(1)?),
            Op::Scale { factor } => Ok(kernels::scale(need(0)?, *factor)),
            Op::Concat { axis } => kernels::concat(inputs, *axis),
            Op::Embedding => kernels::embedding(need(0)?, need(1)?),
            Op::Reshape { shape } => need(0)?.reshape(shape.clone()),
            Op::Transpose2d => kernels::transpose2d(need(0)?),
            Op::ReduceSum => kernels::reduce_sum(need(0)?),
            Op::ReduceMean => kernels::reduce_mean(need(0)?),
            Op::ReduceMax => kernels::reduce_max(need(0)?),
            Op::SliceRows { start, end } => kernels::slice_rows(need(0)?, *start, *end),
        }
    }

    /// Analytic cost profile from input/output shapes.
    ///
    /// The profile feeds the device models: `flops` against the compute
    /// roof, `bytes_*` against the memory roof, `parallelism` against the
    /// occupancy curve (independent work items *per kernel launch*), and
    /// `kernel_launches` against the launch-overhead term. Recurrent ops
    /// report per-step parallelism and seq-many launches — exactly the
    /// property that makes them launch-bound on GPUs at batch 1 (§III-B).
    pub fn cost(&self, inputs: &[&Shape], out: &Shape) -> CostProfile {
        let bytes_in: f64 = inputs.iter().map(|s| s.byte_size() as f64).sum();
        let bytes_out = out.byte_size() as f64;
        let vol_out = out.volume() as f64;
        let (flops, parallelism, launches) = match self {
            Op::Input | Op::Constant => (0.0, 1.0, 0.0),
            Op::Linear => {
                let k = inputs[0].dim(1) as f64;
                (2.0 * vol_out * k, vol_out, 1.0)
            }
            Op::MatMul => {
                let k = inputs[0].dim(1) as f64;
                (2.0 * vol_out * k, vol_out, 1.0)
            }
            Op::Conv2d { .. } => {
                let w = inputs[1];
                let work_per_out = (w.dim(1) * w.dim(2) * w.dim(3)) as f64;
                (2.0 * vol_out * work_per_out, vol_out, 1.0)
            }
            Op::DepthwiseConv2d { .. } => {
                // One filter per channel: kh*kw MACs per output element.
                let w = inputs[1];
                let work_per_out = (w.dim(2) * w.dim(3)) as f64;
                (2.0 * vol_out * work_per_out, vol_out, 1.0)
            }
            Op::BatchNorm2d => (2.0 * vol_out, vol_out, 1.0),
            Op::MaxPool2d { window, .. } | Op::AvgPool2d { window, .. } => {
                ((window * window) as f64 * vol_out, vol_out, 1.0)
            }
            Op::GlobalAvgPool2d => (inputs[0].volume() as f64, vol_out, 1.0),
            Op::Lstm | Op::Gru => {
                let x = inputs[0];
                let (seq, batch, input) = (x.dim(0) as f64, x.dim(1) as f64, x.dim(2) as f64);
                let hidden = out.dim(2) as f64;
                let gates = if matches!(self, Op::Lstm) { 4.0 } else { 3.0 };
                let per_step = 2.0 * batch * gates * hidden * (input + hidden);
                // Per step: x-proj GEMM, h-proj GEMM, gate elementwise,
                // state update — 4 kernels that cannot overlap across steps.
                (seq * per_step, batch * hidden, seq * 4.0)
            }
            Op::Mha { .. } => {
                let x = inputs[0];
                let (seq, d) = (x.dim(0) as f64, x.dim(1) as f64);
                let flops = 8.0 * seq * d * d + 4.0 * seq * seq * d;
                // QKV projections + scores + softmax + context + out-proj.
                (flops, seq * d, 6.0)
            }
            Op::LayerNorm { .. } => (8.0 * vol_out, vol_out, 2.0),
            Op::Softmax | Op::LogSoftmax => (4.0 * vol_out, vol_out, 3.0),
            Op::Relu
            | Op::Sigmoid
            | Op::Tanh
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::BiasAdd
            | Op::Scale { .. } => (vol_out, vol_out, 1.0),
            Op::Gelu => (8.0 * vol_out, vol_out, 1.0),
            Op::Concat { .. } | Op::Reshape { .. } | Op::Transpose2d | Op::SliceRows { .. } => {
                (0.0, vol_out, 1.0)
            }
            Op::Embedding => (0.0, vol_out, 1.0),
            Op::ReduceSum | Op::ReduceMean | Op::ReduceMax => {
                (inputs[0].volume() as f64, vol_out.max(1.0), 1.0)
            }
        };
        CostProfile {
            flops,
            bytes_in,
            bytes_out,
            parallelism: parallelism.max(1.0),
            kernel_launches: launches,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec())
    }

    #[test]
    fn linear_shape_inference() {
        let out = Op::Linear
            .infer_shape(&[&s(&[2, 8]), &s(&[16, 8]), &s(&[16])])
            .unwrap();
        assert_eq!(out.dims(), &[2, 16]);
        assert!(Op::Linear
            .infer_shape(&[&s(&[2, 8]), &s(&[16, 9]), &s(&[16])])
            .is_err());
    }

    #[test]
    fn conv_shape_inference() {
        let op = Op::Conv2d {
            stride: 2,
            padding: 3,
            bias: false,
        };
        let out = op
            .infer_shape(&[&s(&[1, 3, 224, 224]), &s(&[64, 3, 7, 7])])
            .unwrap();
        assert_eq!(out.dims(), &[1, 64, 112, 112]);
    }

    #[test]
    fn lstm_shape_inference_checks_gates() {
        let ok = Op::Lstm
            .infer_shape(&[&s(&[10, 1, 32]), &s(&[256, 32]), &s(&[256, 64]), &s(&[256])])
            .unwrap();
        assert_eq!(ok.dims(), &[10, 1, 64]);
        // 3-gate weights under Lstm must be rejected.
        assert!(Op::Lstm
            .infer_shape(&[&s(&[10, 1, 32]), &s(&[192, 32]), &s(&[192, 64]), &s(&[192])])
            .is_err());
        // …but accepted under Gru.
        assert!(Op::Gru
            .infer_shape(&[&s(&[10, 1, 32]), &s(&[192, 32]), &s(&[192, 64]), &s(&[192])])
            .is_ok());
    }

    #[test]
    fn concat_shape_accumulates_axis() {
        let op = Op::Concat { axis: 1 };
        let out = op
            .infer_shape(&[&s(&[1, 4]), &s(&[1, 6]), &s(&[1, 2])])
            .unwrap();
        assert_eq!(out.dims(), &[1, 12]);
        assert!(op.infer_shape(&[&s(&[1, 4]), &s(&[2, 6])]).is_err());
    }

    #[test]
    fn reshape_volume_checked() {
        let op = Op::Reshape { shape: vec![2, 6] };
        assert!(op.infer_shape(&[&s(&[3, 4])]).is_ok());
        assert!(op.infer_shape(&[&s(&[3, 5])]).is_err());
    }

    #[test]
    fn arity_bounds() {
        assert_eq!(Op::Linear.arity(), (3, 3));
        assert_eq!(
            Op::Conv2d {
                stride: 1,
                padding: 0,
                bias: true
            }
            .arity(),
            (3, 3)
        );
        assert_eq!(
            Op::Conv2d {
                stride: 1,
                padding: 0,
                bias: false
            }
            .arity(),
            (2, 2)
        );
        assert_eq!(Op::Concat { axis: 0 }.arity().1, usize::MAX);
        assert_eq!(Op::Input.arity(), (0, 0));
    }

    #[test]
    fn execute_matches_kernels() {
        let x = Tensor::randn(vec![2, 4], 1.0, 1);
        let direct = kernels::relu(&x);
        let via_op = Op::Relu.execute(&[&x]).unwrap();
        assert_eq!(direct, via_op);
    }

    #[test]
    fn execute_gru_over_sequence() {
        let x = Tensor::randn(vec![3, 1, 4], 1.0, 2);
        let w_ih = Tensor::randn(vec![18, 4], 0.2, 3);
        let w_hh = Tensor::randn(vec![18, 6], 0.2, 4);
        let b = Tensor::zeros(vec![18]);
        let y = Op::Gru.execute(&[&x, &w_ih, &w_hh, &b]).unwrap();
        assert_eq!(y.shape().dims(), &[3, 1, 6]);
    }

    #[test]
    fn source_nodes_neither_infer_nor_execute() {
        assert!(Op::Input.infer_shape(&[]).is_err());
        assert!(Op::Constant.execute(&[]).is_err());
    }

    #[test]
    fn lstm_cost_is_launch_heavy_and_narrow() {
        let x = s(&[100, 1, 128]);
        let w_ih = s(&[1024, 128]);
        let w_hh = s(&[1024, 256]);
        let b = s(&[1024]);
        let out = s(&[100, 1, 256]);
        let c = Op::Lstm.cost(&[&x, &w_ih, &w_hh, &b], &out);
        assert_eq!(c.kernel_launches, 400.0);
        assert_eq!(c.parallelism, 256.0);
        assert!(c.flops > 0.0);
    }

    #[test]
    fn conv_cost_is_wide_and_single_launch() {
        let x = s(&[1, 64, 56, 56]);
        let w = s(&[64, 64, 3, 3]);
        let out = Op::Conv2d {
            stride: 1,
            padding: 1,
            bias: false,
        }
        .infer_shape(&[&x, &w])
        .unwrap();
        let c = Op::Conv2d {
            stride: 1,
            padding: 1,
            bias: false,
        }
        .cost(&[&x, &w], &out);
        assert_eq!(c.kernel_launches, 1.0);
        assert_eq!(c.parallelism, (64 * 56 * 56) as f64);
        // 2 * out_elems * cin * kh * kw
        assert_eq!(c.flops, 2.0 * (64.0 * 56.0 * 56.0) * (64.0 * 9.0));
    }

    #[test]
    fn matmul_flops_formula() {
        let a = s(&[4, 8]);
        let b = s(&[8, 3]);
        let out = s(&[4, 3]);
        let c = Op::MatMul.cost(&[&a, &b], &out);
        assert_eq!(c.flops, 2.0 * 4.0 * 8.0 * 3.0);
        assert_eq!(c.bytes_out, 48.0);
    }
}
