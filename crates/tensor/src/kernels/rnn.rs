//! Recurrent kernels: LSTM and GRU.
//!
//! Recurrent layers are the reason DUET exists: at batch size 1 their
//! per-timestep GEMMs are too small to occupy a GPU, and the sequential
//! dependence between steps forbids cross-step parallelism, so the CPU often
//! wins (paper §III-B, Fig. 4). These kernels implement the standard cell
//! equations; gate weights follow the PyTorch `[4*hidden, in]` layout with
//! gate order i, f, g, o (LSTM) and r, z, n (GRU).
//!
//! Both sequence kernels, [`lstm`] and [`gru`], run on the engine's fast
//! paths in three parts:
//!
//! * **Input projection, hoisted.** `x @ w_ih^T + b` does not depend on
//!   the recurrence, so it is computed for all `seq × batch` rows in one
//!   [`linear_into`] call before the time loop: the exact GEMM with `w_ih`
//!   read in place as its A operand. Each element is one k-ascending
//!   `mul_add` chain plus `b` whatever the row count, so [`lstm_step`] and
//!   [`gru_step`], which make the same call on their `batch` rows, are
//!   **bit-identical** to the sequence kernels' steps.
//! * **Recurrent matvec.** `h @ w_hh^T` is added per step by
//!   [`linear_acc_into`]: 16-lane `mul_add` chains, eight rows of `w_hh`
//!   per pass over `h`, ulp-bounded against a serial dot.
//! * **Gates without libm.** The cells call the elementwise kernels'
//!   scalar `sigmoid` and `tanh` (`elementwise.rs`), built on an inlined
//!   polynomial `exp`, branch-free, so the cell loop vectorizes. Their
//!   contracts, swept over every 509th f32 of `|x| ≤ 40` and the special
//!   values in `tests/kernel_contract.rs`: sigmoid within 4 ulp of the
//!   f64-rounded truth (2 measured), tanh within absolute 2⁻²² (2⁻²³
//!   measured), NaN in gives NaN out, and outputs stay in `[0, 1]` and
//!   `[−1, 1]`.
//!
//! The sequence kernels allocate the sequence-long gates buffer, the output
//! stack (each step writes its `h` straight into it and reads the previous
//! one from it) and one state buffer updated in place — nothing per step. At
//! the paper shape (seq 100, batch 1, 128 → 256) the LSTM takes ≈ 2.5 ms on
//! one thread of the 2-vCPU AVX-512 benchmark host, most of it the matvec,
//! which streams all of `w_hh` (1 MB) once per step.
//! Against [`super::reference::lstm`] and [`super::reference::gru`] (serial
//! fused dots, libm activations)
//! the state trajectories agree within an absolute 1e-4: the gates are
//! contractive, so the ulp-level differences of the parts do not grow along
//! the sequence.

use super::elementwise::scalar::{sigmoid, tanh};
use super::gemm::{linear_acc_into, linear_into};
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

/// Validate recurrent weights of `gates` gates against an input width:
/// `w_ih: [gates·hidden, input]`, `w_hh: [gates·hidden, hidden]`,
/// `b: [gates·hidden]`. Returns `hidden`.
fn rnn_weight_dims(
    op: &'static str,
    gates: usize,
    input: usize,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<usize, TensorError> {
    w_ih.shape().expect_rank(op, 2)?;
    w_hh.shape().expect_rank(op, 2)?;
    let hidden = w_hh.shape().dim(1);
    if w_ih.shape().dim(0) != gates * hidden
        || w_ih.shape().dim(1) != input
        || w_hh.shape().dim(0) != gates * hidden
        || b.len() != gates * hidden
    {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: w_ih.shape().dims().to_vec(),
            rhs: w_hh.shape().dims().to_vec(),
        });
    }
    Ok(hidden)
}

/// Validate one step's `x: [batch, input]` and state `h: [batch, hidden]`
/// against each other and the weights. Returns `(batch, input, hidden)`.
fn step_dims(
    op: &'static str,
    gates: usize,
    x: &Tensor,
    h: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<(usize, usize, usize), TensorError> {
    x.shape().expect_rank(op, 2)?;
    let (batch, input) = (x.shape().dim(0), x.shape().dim(1));
    let hidden = rnn_weight_dims(op, gates, input, w_ih, w_hh, b)?;
    if h.shape().dims() != [batch, hidden] {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: h.shape().dims().to_vec(),
            rhs: vec![batch, hidden],
        });
    }
    Ok((batch, input, hidden))
}

/// Validate a sequence kernel's `x: [seq, batch, input]` and weights.
/// Returns `(seq, batch, input, hidden)`.
fn sequence_dims(
    op: &'static str,
    gates: usize,
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<(usize, usize, usize, usize), TensorError> {
    x.shape().expect_rank(op, 3)?;
    let (seq, batch, input) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
    let hidden = rnn_weight_dims(op, gates, input, w_ih, w_hh, b)?;
    Ok((seq, batch, input, hidden))
}

/// One LSTM timestep over `batch` rows. On entry `gates` (`[batch,
/// 4·hidden]`) holds the step's input projection plus bias; the recurrent
/// matvec adds `h_prev @ w_hh^T` onto it, then the cell equations update `c`
/// in place and write `h_out`.
fn lstm_cell(
    gates: &mut [f32],
    w_hh: &[f32],
    h_prev: &[f32],
    c: &mut [f32],
    h_out: &mut [f32],
    batch: usize,
    hidden: usize,
) {
    linear_acc_into(h_prev, w_hh, gates, batch, hidden, 4 * hidden);
    for bi in 0..batch {
        let g = &gates[bi * 4 * hidden..(bi + 1) * 4 * hidden];
        let (gi, rest) = g.split_at(hidden);
        let (gf, rest) = rest.split_at(hidden);
        let (gg, go) = rest.split_at(hidden);
        let c = &mut c[bi * hidden..(bi + 1) * hidden];
        let h = &mut h_out[bi * hidden..(bi + 1) * hidden];
        for j in 0..hidden {
            let c_new = sigmoid(gf[j]) * c[j] + sigmoid(gi[j]) * tanh(gg[j]);
            c[j] = c_new;
            h[j] = sigmoid(go[j]) * tanh(c_new);
        }
    }
}

/// One GRU timestep over `batch` rows: `gx` (`[batch, 3·hidden]`) is the
/// step's input projection plus bias, `gh` scratch of the same size for
/// `h_prev @ w_hh^T`, which stays apart because the n-gate scales it by `r`.
fn gru_cell(
    gx: &[f32],
    w_hh: &[f32],
    h_prev: &[f32],
    gh: &mut [f32],
    h_out: &mut [f32],
    batch: usize,
    hidden: usize,
) {
    gh.fill(0.0);
    linear_acc_into(h_prev, w_hh, gh, batch, hidden, 3 * hidden);
    for bi in 0..batch {
        let (xr, rest) = gx[bi * 3 * hidden..(bi + 1) * 3 * hidden].split_at(hidden);
        let (xz, xn) = rest.split_at(hidden);
        let (hr, rest) = gh[bi * 3 * hidden..(bi + 1) * 3 * hidden].split_at(hidden);
        let (hz, hn) = rest.split_at(hidden);
        let hp = &h_prev[bi * hidden..(bi + 1) * hidden];
        let ho = &mut h_out[bi * hidden..(bi + 1) * hidden];
        for j in 0..hidden {
            let r = sigmoid(xr[j] + hr[j]);
            let z = sigmoid(xz[j] + hz[j]);
            let n = tanh(xn[j] + r * hn[j]);
            ho[j] = (1.0 - z) * n + z * hp[j];
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
    let (batch, input, hidden) = step_dims("lstm_step", 4, x, &state.h, w_ih, w_hh, b)?;
    if state.c.shape() != state.h.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "lstm_step",
            lhs: state.c.shape().dims().to_vec(),
            rhs: state.h.shape().dims().to_vec(),
        });
    }
    let mut gates = vec![0.0f32; batch * 4 * hidden];
    let (w, b) = (w_ih.data(), Some(b.data()));
    linear_into(x.data(), w, b, &mut gates, batch, input, 4 * hidden);
    let mut h = vec![0.0f32; batch * hidden];
    let mut c = state.c.data().to_vec();
    lstm_cell(
        &mut gates,
        w_hh.data(),
        state.h.data(),
        &mut c,
        &mut h,
        batch,
        hidden,
    );
    Ok(LstmState {
        h: Tensor::from_vec(vec![batch, hidden], h)?,
        c: Tensor::from_vec(vec![batch, hidden], c)?,
    })
}

/// Full single-layer LSTM over a sequence from a zero state.
///
/// `x: [seq, batch, in]`. Returns the `[seq, batch, hidden]` output stack
/// (all hidden states) and the final state.
pub fn lstm(
    x: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<(Tensor, LstmState), TensorError> {
    let (seq, batch, input, hidden) = sequence_dims("lstm", 4, x, w_ih, w_hh, b)?;
    let (bh, bg) = (batch * hidden, batch * 4 * hidden);
    let mut gates = vec![0.0f32; seq * bg];
    let (w, b) = (w_ih.data(), Some(b.data()));
    linear_into(x.data(), w, b, &mut gates, seq * batch, input, 4 * hidden);
    let mut h = vec![0.0f32; bh];
    let mut c = vec![0.0f32; bh];
    let mut outputs = vec![0.0f32; seq * bh];
    for t in 0..seq {
        let (done, rest) = outputs.split_at_mut(t * bh);
        let h_prev = if t == 0 { &h } else { &done[(t - 1) * bh..] };
        lstm_cell(
            &mut gates[t * bg..(t + 1) * bg],
            w_hh.data(),
            h_prev,
            &mut c,
            &mut rest[..bh],
            batch,
            hidden,
        );
    }
    if seq > 0 {
        h.copy_from_slice(&outputs[(seq - 1) * bh..]);
    }
    Ok((
        Tensor::from_vec(vec![seq, batch, hidden], outputs)?,
        LstmState {
            h: Tensor::from_vec(vec![batch, hidden], h)?,
            c: Tensor::from_vec(vec![batch, hidden], c)?,
        },
    ))
}

/// One GRU timestep. `x: [batch, in]`, `h: [batch, hidden]`,
/// `w_ih: [3*hidden, in]`, `w_hh: [3*hidden, hidden]`, `b: [3*hidden]` (on
/// the input side), gate order r, z, n (PyTorch convention). Returns the
/// next hidden state.
pub fn gru_step(
    x: &Tensor,
    h: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
) -> Result<Tensor, TensorError> {
    let (batch, input, hidden) = step_dims("gru_step", 3, x, h, w_ih, w_hh, b)?;
    let mut gx = vec![0.0f32; batch * 3 * hidden];
    let (w, b) = (w_ih.data(), Some(b.data()));
    linear_into(x.data(), w, b, &mut gx, batch, input, 3 * hidden);
    let mut gh = vec![0.0f32; batch * 3 * hidden];
    let mut out = vec![0.0f32; batch * hidden];
    gru_cell(&gx, w_hh.data(), h.data(), &mut gh, &mut out, batch, hidden);
    Tensor::from_vec(vec![batch, hidden], out)
}

/// Full single-layer GRU over a sequence from a zero state, weights as in
/// [`gru_step`]. `x: [seq, batch, in]`; returns the `[seq, batch, hidden]`
/// stack of hidden states, whose last step is the final state.
pub fn gru(x: &Tensor, w_ih: &Tensor, w_hh: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (seq, batch, input, hidden) = sequence_dims("gru", 3, x, w_ih, w_hh, b)?;
    let (bh, bg) = (batch * hidden, batch * 3 * hidden);
    let mut gx = vec![0.0f32; seq * bg];
    let (w, b) = (w_ih.data(), Some(b.data()));
    linear_into(x.data(), w, b, &mut gx, seq * batch, input, 3 * hidden);
    let mut gh = vec![0.0f32; bg];
    let h0 = vec![0.0f32; bh];
    let mut outputs = vec![0.0f32; seq * bh];
    for t in 0..seq {
        let (done, rest) = outputs.split_at_mut(t * bh);
        let h_prev = if t == 0 { &h0 } else { &done[(t - 1) * bh..] };
        gru_cell(
            &gx[t * bg..(t + 1) * bg],
            w_hh.data(),
            h_prev,
            &mut gh,
            &mut rest[..bh],
            batch,
            hidden,
        );
    }
    Tensor::from_vec(vec![seq, batch, hidden], outputs)
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

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
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

    /// The sequence kernels project the whole sequence in one GEMM and the
    /// step entry points one step's rows: each element is the same `mul_add`
    /// chain either way, so the two must agree bit for bit — on a tail strip
    /// of 4 columns (hidden 17) and at the paper shape, whose 100 rows fork.
    #[test]
    fn sequence_projection_bit_identical_to_per_step() {
        for (seq, batch, input, hidden) in [(5, 3, 9, 17), (100, 1, 128, 256)] {
            let (w_ih, _, b) = tiny_weights(hidden, input, 4);
            let x = Tensor::randn(vec![seq, batch, input], 1.0, 31);
            let n = 4 * hidden;
            let mut whole = vec![0.0f32; seq * batch * n];
            let (w, b) = (w_ih.data(), Some(b.data()));
            linear_into(x.data(), w, b, &mut whole, seq * batch, input, n);
            for t in 0..seq {
                let mut step = vec![f32::NAN; batch * n];
                let xt = &x.data()[t * batch * input..(t + 1) * batch * input];
                linear_into(xt, w, b, &mut step, batch, input, n);
                assert!(
                    bits_eq(&step, &whole[t * batch * n..(t + 1) * batch * n]),
                    "step {t} of seq {seq} batch {batch} {input}->{hidden}"
                );
            }
        }
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

    /// Both shapes indexed past the end of a buffer before the step checked
    /// them: a state with fewer rows than `x`, and a `w_hh` short of
    /// `3·hidden` rows.
    #[test]
    fn gru_step_rejects_short_state_and_short_w_hh() {
        let (w_ih, w_hh, b) = tiny_weights(4, 3, 3);
        let x = Tensor::randn(vec![3, 3], 1.0, 8);
        let h_short = Tensor::zeros(vec![1, 4]);
        assert!(gru_step(&x, &h_short, &w_ih, &w_hh, &b).is_err());
        let h = Tensor::zeros(vec![3, 4]);
        let w_hh_short = Tensor::zeros(vec![8, 4]);
        assert!(gru_step(&x, &h, &w_ih, &w_hh_short, &b).is_err());
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

    #[test]
    fn gru_sequence_bit_identical_to_step_unroll() {
        let (seq, batch, input, hidden) = (5, 2, 7, 11);
        let (w_ih, w_hh, b) = tiny_weights(hidden, input, 3);
        let x = Tensor::randn(vec![seq, batch, input], 1.0, 12);
        let stack = gru(&x, &w_ih, &w_hh, &b).unwrap();
        assert_eq!(stack.shape().dims(), &[seq, batch, hidden]);
        let mut h = Tensor::zeros(vec![batch, hidden]);
        for t in 0..seq {
            let xt = Tensor::from_vec(
                vec![batch, input],
                x.data()[t * batch * input..(t + 1) * batch * input].to_vec(),
            )
            .unwrap();
            h = gru_step(&xt, &h, &w_ih, &w_hh, &b).unwrap();
            let bh = batch * hidden;
            assert!(bits_eq(h.data(), &stack.data()[t * bh..(t + 1) * bh]));
        }
    }
}
