//! Recurrent kernels: LSTM and GRU.
//!
//! Recurrent layers are the reason DUET exists: at batch size 1 their
//! per-timestep GEMMs are too small to occupy a GPU, and the sequential
//! dependence between steps forbids cross-step parallelism, so the CPU often
//! wins (paper §III-B, Fig. 4). These kernels implement the standard cell
//! equations; gate weights follow the PyTorch `[4*hidden, in]` layout with
//! gate order i, f, g, o (LSTM) and r, z, n (GRU).
//!
//! The LSTM path is fused: one gates buffer receives `x @ w_ih^T + b` and
//! then accumulates `h @ w_hh^T` in place (`linear_acc_into`), and the
//! sequence driver reuses that buffer plus ping-pong h/c state across
//! timesteps — no per-step tensor allocation. The gate arithmetic
//! `σ((x·w+b) + h·w)` associates exactly as a two-GEMM composition does, so
//! the fused path is **bit-identical** to composing `linear` + `linear` +
//! gate math with the same dot kernel (a unit test asserts this), and within
//! the ulp contract of [`super::reference::lstm`], whose dots are serial.

use super::elementwise::UnaryOp;
use super::gemm::{linear, linear_acc_into, linear_into};
use crate::{Tensor, TensorError};

/// Hidden and cell state of an LSTM layer, each `[batch, hidden]`.
#[derive(Debug, Clone)]
pub struct LstmState {
    pub h: Tensor,
    pub c: Tensor,
}

impl LstmState {
    /// Zero state for a given batch and hidden size.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Tensor::zeros(vec![batch, hidden]),
            c: Tensor::zeros(vec![batch, hidden]),
        }
    }
}

/// Validate LSTM weight shapes against an input width. Returns `hidden`.
fn lstm_weight_dims(
    input: usize,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<usize, TensorError> {
    w_ih.shape().expect_rank("lstm_step", 2)?;
    w_hh.shape().expect_rank("lstm_step", 2)?;
    let hidden = w_hh.shape().dim(1);
    if w_ih.shape().dim(0) != 4 * hidden
        || w_ih.shape().dim(1) != input
        || w_hh.shape().dim(0) != 4 * hidden
        || b.len() != 4 * hidden
    {
        return Err(TensorError::ShapeMismatch {
            op: "lstm_step",
            lhs: w_ih.shape().dims().to_vec(),
            rhs: w_hh.shape().dims().to_vec(),
        });
    }
    Ok(hidden)
}

/// One fused LSTM timestep over raw slices. `gates` is scratch of len
/// `batch * 4 * hidden`; `h_out`/`c_out` are `batch * hidden`.
#[allow(clippy::too_many_arguments)]
fn lstm_step_fused(
    x: &[f32],
    h_prev: &[f32],
    c_prev: &[f32],
    w_ih: &[f32],
    w_hh: &[f32],
    b: &[f32],
    gates: &mut [f32],
    h_out: &mut [f32],
    c_out: &mut [f32],
    batch: usize,
    input: usize,
    hidden: usize,
) {
    linear_into(x, w_ih, Some(b), gates, batch, input, 4 * hidden);
    linear_acc_into(h_prev, w_hh, gates, batch, hidden, 4 * hidden);
    for bi in 0..batch {
        let g = &gates[bi * 4 * hidden..(bi + 1) * 4 * hidden];
        let (gi, rest) = g.split_at(hidden);
        let (gf, rest) = rest.split_at(hidden);
        let (gg, go) = rest.split_at(hidden);
        let cp = &c_prev[bi * hidden..(bi + 1) * hidden];
        let ho = &mut h_out[bi * hidden..(bi + 1) * hidden];
        let co = &mut c_out[bi * hidden..(bi + 1) * hidden];
        for j in 0..hidden {
            let i_g = UnaryOp::Sigmoid.apply(gi[j]);
            let f_g = UnaryOp::Sigmoid.apply(gf[j]);
            let g_g = gg[j].tanh();
            let o_g = UnaryOp::Sigmoid.apply(go[j]);
            let c_new = f_g * cp[j] + i_g * g_g;
            co[j] = c_new;
            ho[j] = o_g * c_new.tanh();
        }
    }
}

/// One LSTM timestep.
///
/// `x: [batch, in]`, `w_ih: [4*hidden, in]`, `w_hh: [4*hidden, hidden]`,
/// `b: [4*hidden]`. Returns the next state.
pub fn lstm_step(
    x: &Tensor,
    state: &LstmState,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<LstmState, TensorError> {
    x.shape().expect_rank("lstm_step", 2)?;
    state.h.shape().expect_rank("lstm_step", 2)?;
    let (batch, input) = (x.shape().dim(0), x.shape().dim(1));
    let hidden = lstm_weight_dims(input, w_ih, w_hh, b)?;
    if state.h.shape().dim(0) != batch
        || state.h.shape().dim(1) != hidden
        || state.c.shape() != state.h.shape()
    {
        return Err(TensorError::ShapeMismatch {
            op: "lstm_step",
            lhs: state.h.shape().dims().to_vec(),
            rhs: vec![batch, hidden],
        });
    }
    let mut gates = vec![0.0f32; batch * 4 * hidden];
    let mut h = vec![0.0f32; batch * hidden];
    let mut c = vec![0.0f32; batch * hidden];
    lstm_step_fused(
        x.data(),
        state.h.data(),
        state.c.data(),
        w_ih.data(),
        w_hh.data(),
        b.data(),
        &mut gates,
        &mut h,
        &mut c,
        batch,
        input,
        hidden,
    );
    Ok(LstmState {
        h: Tensor::from_vec(vec![batch, hidden], h)?,
        c: Tensor::from_vec(vec![batch, hidden], c)?,
    })
}

/// Full single-layer LSTM over a sequence.
///
/// `x: [seq, batch, in]`. Returns the `[seq, batch, hidden]` output stack
/// (all hidden states) and the final state. The driver allocates one gates
/// scratch buffer and one ping-pong state pair for the whole sequence.
pub fn lstm(
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<(Tensor, LstmState), TensorError> {
    x.shape().expect_rank("lstm", 3)?;
    let (seq, batch, input) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let hidden = lstm_weight_dims(input, w_ih, w_hh, b)?;
    let mut h = vec![0.0f32; batch * hidden];
    let mut c = vec![0.0f32; batch * hidden];
    let mut h_next = vec![0.0f32; batch * hidden];
    let mut c_next = vec![0.0f32; batch * hidden];
    let mut gates = vec![0.0f32; batch * 4 * hidden];
    let mut outputs = Vec::with_capacity(seq * batch * hidden);
    let xd = x.data();
    for t in 0..seq {
        lstm_step_fused(
            &xd[t * batch * input..(t + 1) * batch * input],
            &h,
            &c,
            w_ih.data(),
            w_hh.data(),
            b.data(),
            &mut gates,
            &mut h_next,
            &mut c_next,
            batch,
            input,
            hidden,
        );
        std::mem::swap(&mut h, &mut h_next);
        std::mem::swap(&mut c, &mut c_next);
        outputs.extend_from_slice(&h);
    }
    Ok((
        Tensor::from_vec(vec![seq, batch, hidden], outputs)?,
        LstmState {
            h: Tensor::from_vec(vec![batch, hidden], h)?,
            c: Tensor::from_vec(vec![batch, hidden], c)?,
        },
    ))
}

/// One GRU timestep. `w_ih: [3*hidden, in]`, `w_hh: [3*hidden, hidden]`,
/// gate order r, z, n (PyTorch convention). Returns the next hidden state.
/// The n-gate couples `r` with the hidden GEMM (`r * (h·w_n)`), so the two
/// GEMMs cannot share a buffer the way the LSTM's do; the win here comes
/// from the lane-split dot kernel underneath `linear`.
pub fn gru_step(
    x: &Tensor,
    h: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<Tensor, TensorError> {
    let batch = x.shape().dim(0);
    let hidden = h.shape().dim(1);
    let gx = linear(x, w_ih, Some(b))?;
    let gh = linear(h, w_hh, None)?;
    if gx.shape().dim(1) != 3 * hidden {
        return Err(TensorError::ShapeMismatch {
            op: "gru_step",
            lhs: gx.shape().dims().to_vec(),
            rhs: vec![batch, 3 * hidden],
        });
    }
    let gxd = gx.data();
    let ghd = gh.data();
    let hd = h.data();
    let mut out = vec![0.0f32; batch * hidden];
    for bi in 0..batch {
        let row = bi * 3 * hidden;
        for j in 0..hidden {
            let r = UnaryOp::Sigmoid.apply(gxd[row + j] + ghd[row + j]);
            let z = UnaryOp::Sigmoid.apply(gxd[row + hidden + j] + ghd[row + hidden + j]);
            let n = (gxd[row + 2 * hidden + j] + r * ghd[row + 2 * hidden + j]).tanh();
            out[bi * hidden + j] = (1.0 - z) * n + z * hd[bi * hidden + j];
        }
    }
    Tensor::from_vec(vec![batch, hidden], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_weights(hidden: usize, input: usize, gates: usize) -> (Tensor, Tensor, Tensor) {
        (
            Tensor::randn(vec![gates * hidden, input], 0.2, 1),
            Tensor::randn(vec![gates * hidden, hidden], 0.2, 2),
            Tensor::randn(vec![gates * hidden], 0.2, 3),
        )
    }

    #[test]
    fn lstm_step_shapes() {
        let (w_ih, w_hh, b) = tiny_weights(6, 4, 4);
        let x = Tensor::randn(vec![2, 4], 1.0, 5);
        let s = LstmState::zeros(2, 6);
        let s2 = lstm_step(&x, &s, &w_ih, &w_hh, &b).unwrap();
        assert_eq!(s2.h.shape().dims(), &[2, 6]);
        assert_eq!(s2.c.shape().dims(), &[2, 6]);
    }

    #[test]
    fn lstm_hidden_bounded_by_tanh() {
        let (w_ih, w_hh, b) = tiny_weights(8, 8, 4);
        let x = Tensor::randn(vec![4, 8], 10.0, 6);
        let s = LstmState::zeros(4, 8);
        let s2 = lstm_step(&x, &s, &w_ih, &w_hh, &b).unwrap();
        assert!(s2.h.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_zero_weights_zero_input_stays_zero() {
        let w_ih = Tensor::zeros(vec![16, 4]);
        let w_hh = Tensor::zeros(vec![16, 4]);
        let b = Tensor::zeros(vec![16]);
        let x = Tensor::zeros(vec![3, 1, 4]);
        let (out, st) = lstm(&x, &w_ih, &w_hh, &b).unwrap();
        // i=f=o=sigmoid(0)=0.5, g=tanh(0)=0 → c=0, h=0 at every step.
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert!(st.c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lstm_sequence_matches_manual_unroll() {
        let (w_ih, w_hh, b) = tiny_weights(5, 3, 4);
        let x = Tensor::randn(vec![4, 2, 3], 1.0, 9);
        let (stack, fin) = lstm(&x, &w_ih, &w_hh, &b).unwrap();
        assert_eq!(stack.shape().dims(), &[4, 2, 5]);
        // Manual unroll must agree with the batched driver.
        let mut st = LstmState::zeros(2, 5);
        for t in 0..4 {
            let xt = Tensor::from_vec(vec![2, 3], x.data()[t * 6..(t + 1) * 6].to_vec()).unwrap();
            st = lstm_step(&xt, &st, &w_ih, &w_hh, &b).unwrap();
        }
        assert!(fin.h.approx_eq(&st.h, 1e-6));
        assert!(fin.c.approx_eq(&st.c, 1e-6));
        assert_eq!(&stack.data()[3 * 10..], st.h.data());
    }

    /// The step as two allocating `linear` calls, then the gate math — on
    /// the engine's own dot kernel, unlike the oracle's serial one.
    fn lstm_step_composed(
        x: &Tensor,
        state: &LstmState,
        w_ih: &Tensor,
        w_hh: &Tensor,
        b: &Tensor,
    ) -> LstmState {
        let (batch, hidden) = (x.shape().dim(0), state.h.shape().dim(1));
        let gx = linear(x, w_ih, Some(b)).unwrap();
        let gh = linear(&state.h, w_hh, None).unwrap();
        let gate = |bi: usize, g: usize, j: usize| {
            let at = (bi * 4 + g) * hidden + j;
            gx.data()[at] + gh.data()[at]
        };
        let (mut h, mut c) = (Vec::new(), Vec::new());
        for bi in 0..batch {
            for j in 0..hidden {
                let i_g = UnaryOp::Sigmoid.apply(gate(bi, 0, j));
                let f_g = UnaryOp::Sigmoid.apply(gate(bi, 1, j));
                let g_g = gate(bi, 2, j).tanh();
                let o_g = UnaryOp::Sigmoid.apply(gate(bi, 3, j));
                let c_new = f_g * state.c.data()[bi * hidden + j] + i_g * g_g;
                c.push(c_new);
                h.push(o_g * c_new.tanh());
            }
        }
        LstmState {
            h: Tensor::from_vec(vec![batch, hidden], h).unwrap(),
            c: Tensor::from_vec(vec![batch, hidden], c).unwrap(),
        }
    }

    /// The fused step and the two-GEMM composition share every arithmetic
    /// operation in the same association, so they must agree bit-for-bit.
    #[test]
    fn lstm_fused_bit_identical_to_composed() {
        let (w_ih, w_hh, b) = tiny_weights(17, 9, 4);
        let x = Tensor::randn(vec![3, 9], 1.0, 31);
        let s = LstmState {
            h: Tensor::randn(vec![3, 17], 0.7, 32),
            c: Tensor::randn(vec![3, 17], 0.7, 33),
        };
        let fused = lstm_step(&x, &s, &w_ih, &w_hh, &b).unwrap();
        let composed = lstm_step_composed(&x, &s, &w_ih, &w_hh, &b);
        assert!(fused
            .h
            .data()
            .iter()
            .zip(composed.h.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(fused
            .c
            .data()
            .iter()
            .zip(composed.c.data())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn lstm_step_rejects_mismatched_weights() {
        let x = Tensor::zeros(vec![1, 4]);
        let s = LstmState::zeros(1, 6);
        let w_ih = Tensor::zeros(vec![24, 4]);
        let w_hh_bad = Tensor::zeros(vec![20, 6]);
        let b = Tensor::zeros(vec![24]);
        assert!(lstm_step(&x, &s, &w_ih, &w_hh_bad, &b).is_err());
    }

    #[test]
    fn gru_step_shapes_and_bounds() {
        let (w_ih, w_hh, b) = tiny_weights(7, 3, 3);
        let x = Tensor::randn(vec![2, 3], 1.0, 8);
        let h = Tensor::zeros(vec![2, 7]);
        let h2 = gru_step(&x, &h, &w_ih, &w_hh, &b).unwrap();
        assert_eq!(h2.shape().dims(), &[2, 7]);
        assert!(h2.data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn gru_z_one_keeps_state() {
        // With huge z-gate bias, h' ≈ h.
        let hidden = 4;
        let w_ih = Tensor::zeros(vec![3 * hidden, 2]);
        let w_hh = Tensor::zeros(vec![3 * hidden, hidden]);
        let mut bias = vec![0.0; 3 * hidden];
        for j in 0..hidden {
            bias[hidden + j] = 100.0; // z gate saturated to 1
        }
        let b = Tensor::from_vec(vec![3 * hidden], bias).unwrap();
        let x = Tensor::randn(vec![1, 2], 1.0, 4);
        let h = Tensor::randn(vec![1, hidden], 0.5, 5);
        let h2 = gru_step(&x, &h, &w_ih, &w_hh, &b).unwrap();
        assert!(h2.approx_eq(&h, 1e-4));
    }
}
