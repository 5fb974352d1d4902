//! The oracle: the kernel contract's specification, written as the plainest
//! single-threaded loops.
//!
//! Every function here computes what a heavy kernel of the engine is
//! specified to compute, one output element at a time, in the order the
//! contract fixes, and shares no code with the engine — no tiling, no
//! packing, no lane split, no thread. The engine's contract tests
//! (`tests/kernel_contract.rs`, the root `tests/kernel_pool_width.rs`) and
//! its speed gates (`duet-kernel-floor`, `ext-kernel-speed`) call these by
//! name next to the engine's entry point of the same name:
//!
//! * **Exact** (`to_bits` identity): [`matmul`], [`conv2d`] and [`linear`]
//!   — every dense product — are one `f32::mul_add` chain per output from
//!   `+0.0`, k-ascending; the bias is added after the chain.
//!   [`depthwise_conv2d`] starts each output at its bias and adds its taps,
//!   unfused. Both
//!   convolutions read the zero-padded image: every tap is taken, in order,
//!   and one outside the image computes `0·w` (NaN for an infinite weight;
//!   it turns a −0.0 sum into +0.0).
//!   [`max_pool2d`] and [`avg_pool2d`] take each output's taps in (ky, kx)
//!   order (`f32::max` from `-inf`; a sum from `0.0`, then `/ area`).
//! * **Ulp-bounded** ([`within_ulps`]): [`linear_acc_into`], the recurrent
//!   matvec, is one serial unfused chain per output, which the engine's
//!   lane-split dot products reassociate.
//! * **Absolute**: [`lstm`] and [`gru`] are two [`linear`]s per step, of
//!   the input and of the hidden state, plus the gate math with libm's
//!   `exp` and `tanh`. The engine's recurrent kernels, whose hidden-state
//!   term is the lane-split matvec, match them within an absolute tolerance.
//! * **Bounded against f64**: [`gelu`] evaluates its formula in f64 and
//!   rounds once; the engine's polynomial GELU stays within
//!   2⁻²²·max(|y|, 1) of it.
//!
//! Shapes are the caller's to get right: an oracle panics on a shape the
//! engine would reject.

use super::rnn::LstmState;
use crate::Tensor;

/// `a @ b` for `a: [m, k]`, `b: [k, n]`: the naive triple loop, each output
/// one fused multiply-add chain over `t = 0..k`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.shape().dim(0), a.shape().dim(1), b.shape().dim(1));
    let (ad, bd) = (a.data(), b.data());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc = ad[i * k + t].mul_add(bd[t * n + j], acc);
            }
            out.push(acc);
        }
    }
    tensor(vec![m, n], out)
}

/// Direct convolution, NCHW: each output one fused chain over its taps in
/// (c_in, ky, kx) order, an out-of-image tap as `0·w`, then the bias.
pub fn conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Tensor {
    let [n, c_in, h, wd] = dims4(x);
    let [c_out, _, kh, kw] = dims4(w);
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (wd + 2 * padding - kw) / stride + 1;
    let (xd, wgt) = (x.data(), w.data());
    let mut out = Vec::with_capacity(n * c_out * oh * ow);
    for img in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky).wrapping_sub(padding);
                                let ix = (ox * stride + kx).wrapping_sub(padding);
                                let v = if iy < h && ix < wd {
                                    xd[((img * c_in + ci) * h + iy) * wd + ix]
                                } else {
                                    0.0
                                };
                                acc = wgt[((co * c_in + ci) * kh + ky) * kw + kx].mul_add(v, acc);
                            }
                        }
                    }
                    if let Some(b) = bias {
                        acc += b.data()[co];
                    }
                    out.push(acc);
                }
            }
        }
    }
    tensor(vec![n, c_out, oh, ow], out)
}

/// Depthwise convolution, `w: [c, 1, kh, kw]`: each output starts at its
/// channel's bias and adds its taps in (ky, kx) order, unfused, an
/// out-of-image tap as `0·w`.
pub fn depthwise_conv2d(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Tensor {
    let [n, c, h, wd] = dims4(x);
    let [_, _, kh, kw] = dims4(w);
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (wd + 2 * padding - kw) / stride + 1;
    let (xd, wgt) = (x.data(), w.data());
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for img in 0..n {
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b.data()[ci]);
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * stride + ky).wrapping_sub(padding);
                            let ix = (ox * stride + kx).wrapping_sub(padding);
                            let v = if iy < h && ix < wd {
                                xd[((img * c + ci) * h + iy) * wd + ix]
                            } else {
                                0.0
                            };
                            acc += v * wgt[(ci * kh + ky) * kw + kx];
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    tensor(vec![n, c, oh, ow], out)
}

/// Max pooling with a square `window`, NCHW: each output `f32::max` over
/// its window's taps in (ky, kx) order, from `-inf`.
pub fn max_pool2d(x: &Tensor, window: usize, stride: usize) -> Tensor {
    pool2d(x, window, stride, f32::NEG_INFINITY, f32::max, |acc| acc)
}

/// Average pooling with a square `window`, NCHW: each output the sum of its
/// window's taps in (ky, kx) order, from `0.0`, divided by the window's area.
pub fn avg_pool2d(x: &Tensor, window: usize, stride: usize) -> Tensor {
    let area = (window * window) as f32;
    pool2d(x, window, stride, 0.0, |acc, v| acc + v, |acc| acc / area)
}

fn pool2d(
    x: &Tensor,
    window: usize,
    stride: usize,
    init: f32,
    step: fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) -> Tensor {
    let [n, c, h, w] = dims4(x);
    let (oh, ow) = ((h - window) / stride + 1, (w - window) / stride + 1);
    let xd = x.data();
    let mut out = Vec::with_capacity(n * c * oh * ow);
    for plane in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = init;
                for ky in 0..window {
                    for kx in 0..window {
                        acc = step(
                            acc,
                            xd[(plane * h + oy * stride + ky) * w + ox * stride + kx],
                        );
                    }
                }
                out.push(finish(acc));
            }
        }
    }
    tensor(vec![n, c, oh, ow], out)
}

/// `x @ w^T + bias` for `x: [m, kin]`, `w: [nout, kin]`: each output one
/// fused multiply-add chain over `t = 0..kin` from `+0.0`, then the bias.
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Tensor {
    let (m, kin, nout) = (x.shape().dim(0), x.shape().dim(1), w.shape().dim(0));
    let (xd, wd) = (x.data(), w.data());
    let mut out = Vec::with_capacity(m * nout);
    for i in 0..m {
        for j in 0..nout {
            let mut acc = 0.0f32;
            for t in 0..kin {
                acc = xd[i * kin + t].mul_add(wd[j * kin + t], acc);
            }
            out.push(acc + bias.map_or(0.0, |b| b.data()[j]));
        }
    }
    tensor(vec![m, nout], out)
}

/// `out[i, j] += x_i · w_j` over raw slices: one serial unfused chain per
/// output, added to what `out` held. The oracle of the recurrent matvec.
pub fn linear_acc_into(x: &[f32], w: &[f32], out: &mut [f32], m: usize, kin: usize, nout: usize) {
    for i in 0..m {
        for j in 0..nout {
            let mut acc = 0.0f32;
            for t in 0..kin {
                acc += x[i * kin + t] * w[j * kin + t];
            }
            out[i * nout + j] += acc;
        }
    }
}

/// Tanh-approximated GELU, `x/2 · (1 + tanh(√(2/π)·(x + 0.044715·x³)))`,
/// evaluated in f64 with libm's `tanh` and rounded once per element.
pub fn gelu(x: &Tensor) -> Tensor {
    let c = (2.0 / std::f64::consts::PI).sqrt();
    let data = x
        .data()
        .iter()
        .map(|&v| {
            let v = f64::from(v);
            (0.5 * v * (1.0 + (c * (v + 0.044715 * v * v * v)).tanh())) as f32
        })
        .collect();
    tensor(x.shape().dims().to_vec(), data)
}

/// Single-layer LSTM over `x: [seq, batch, in]` from a zero state, gate
/// order i, f, g, o: the `[seq, batch, hidden]` stack of hidden states and
/// the final state. Each step is [`linear`] of the input (with `b`) and of
/// the hidden state, summed, then the cell equations.
pub fn lstm(x: &Tensor, w_ih: &Tensor, w_hh: &Tensor, b: &Tensor) -> (Tensor, LstmState) {
    let (seq, batch, input) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let hidden = w_hh.shape().dim(1);
    let mut state = LstmState::zeros(batch, hidden);
    let mut outputs = Vec::with_capacity(seq * batch * hidden);
    for t in 0..seq {
        let xt = x.data()[t * batch * input..(t + 1) * batch * input].to_vec();
        state = lstm_step(&tensor(vec![batch, input], xt), &state, w_ih, w_hh, b);
        outputs.extend_from_slice(state.h.data());
    }
    (tensor(vec![seq, batch, hidden], outputs), state)
}

fn lstm_step(x: &Tensor, state: &LstmState, w_ih: &Tensor, w_hh: &Tensor, b: &Tensor) -> LstmState {
    let (batch, hidden) = (x.shape().dim(0), w_hh.shape().dim(1));
    let (gx, gh) = (linear(x, w_ih, Some(b)), linear(&state.h, w_hh, None));
    let gate = |bi: usize, g: usize, j: usize| {
        let at = (bi * 4 + g) * hidden + j;
        gx.data()[at] + gh.data()[at]
    };
    let (mut h, mut c) = (Vec::new(), Vec::new());
    for bi in 0..batch {
        for j in 0..hidden {
            let (i_g, f_g) = (sigmoid(gate(bi, 0, j)), sigmoid(gate(bi, 1, j)));
            let (g_g, o_g) = (gate(bi, 2, j).tanh(), sigmoid(gate(bi, 3, j)));
            let c_new = f_g * state.c.data()[bi * hidden + j] + i_g * g_g;
            c.push(c_new);
            h.push(o_g * c_new.tanh());
        }
    }
    LstmState {
        h: tensor(vec![batch, hidden], h),
        c: tensor(vec![batch, hidden], c),
    }
}

/// Single-layer GRU over `x: [seq, batch, in]` from a zero state, gate
/// order r, z, n, `b` on the input side: the `[seq, batch, hidden]` stack of
/// hidden states. Each step is [`linear`] of the input (with `b`) and of the
/// hidden state, kept apart, then the cell equations.
pub fn gru(x: &Tensor, w_ih: &Tensor, w_hh: &Tensor, b: &Tensor) -> Tensor {
    let (seq, batch, input) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let hidden = w_hh.shape().dim(1);
    let mut h = tensor(vec![batch, hidden], vec![0.0; batch * hidden]);
    let mut outputs = Vec::with_capacity(seq * batch * hidden);
    for t in 0..seq {
        let xt = x.data()[t * batch * input..(t + 1) * batch * input].to_vec();
        let gx = linear(&tensor(vec![batch, input], xt), w_ih, Some(b));
        let gh = linear(&h, w_hh, None);
        let at =
            |g: &Tensor, bi: usize, gate: usize, j: usize| g.data()[(bi * 3 + gate) * hidden + j];
        let mut next = Vec::with_capacity(batch * hidden);
        for bi in 0..batch {
            for j in 0..hidden {
                let r = sigmoid(at(&gx, bi, 0, j) + at(&gh, bi, 0, j));
                let z = sigmoid(at(&gx, bi, 1, j) + at(&gh, bi, 1, j));
                let n = (at(&gx, bi, 2, j) + r * at(&gh, bi, 2, j)).tanh();
                next.push((1.0 - z) * n + z * h.data()[bi * hidden + j]);
            }
        }
        h = tensor(vec![batch, hidden], next);
        outputs.extend_from_slice(h.data());
    }
    tensor(vec![seq, batch, hidden], outputs)
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// The ulp-bounded contract between an engine result `got` and the oracle's
/// `want`: at most `ulps` representable values apart, or — where the
/// result sits too close to zero for bit distance to mean anything, as under
/// cancellation — within `ulps` ulp of the accumulated magnitude `mag`
/// (`Σ|xᵢ·wᵢ|` plus any addend), which bounds either association's rounding.
pub fn within_ulps(got: f32, want: f32, mag: f32, ulps: u32) -> bool {
    ulps_apart(got, want) <= u64::from(ulps)
        || (got - want).abs() <= ulps as f32 * mag * f32::EPSILON
}

/// Number of representable f32 values between `a` and `b` (0 for equal
/// values, so +0 and −0 are 0 apart).
pub fn ulps_apart(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    let order = |f: f32| -> i64 {
        let i = i64::from(f.to_bits() as i32);
        if i < 0 {
            i64::from(i32::MIN) - i
        } else {
            i
        }
    };
    order(a).abs_diff(order(b))
}

fn dims4(t: &Tensor) -> [usize; 4] {
    let d = t.shape().dims();
    [d[0], d[1], d[2], d[3]]
}

fn tensor(dims: Vec<usize>, data: Vec<f32>) -> Tensor {
    Tensor::from_vec(dims, data).expect("an oracle sizes its output from its own loop bounds")
}
