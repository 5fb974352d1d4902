//! General matrix multiplication: the workhorse kernel.
//!
//! The default engine is the register-tiled microkernel in [`super::micro`]
//! over packed column strips (exact contract: bit-identical to the naive
//! triple loop of `f32::mul_add` — see the module docs there). Setting
//! reference mode (see [`super::reference`]) routes every entry point
//! through the seed scalar kernels instead, which is how the contract tests
//! and the `duet-kernel-floor` gate get a same-process before/after
//! comparison.
//!
//! `linear` is dot-product shaped (`x @ w^T`), so it uses the lane-split
//! reduction with the **ulp-bounded** contract rather than the exact one:
//! a serial dot product is a single dependency chain that cannot
//! vectorize without reassociating.

use rayon::prelude::*;

use super::{micro, reference};
use crate::{Tensor, TensorError};

/// `C[m,n] = A[m,k] * B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    a.shape().expect_rank("matmul", 2)?;
    b.shape().expect_rank("matmul", 2)?;
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_into(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec(vec![m, n], out)
}

/// `matmul` into a caller-provided buffer (`out` is overwritten, len m*n).
///
/// Same kernel and per-element reduction order as [`matmul`], so the bytes
/// written are identical; the only difference is who owns the buffer. The
/// tiled engine writes every element, so there is no zero-fill pass here.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_into(a, b, out, m, k, n);
}

/// `linear` into a caller-provided buffer (`out` is overwritten, len m*nout).
///
/// `x: [m, kin]`, `w: [nout, kin]`, `bias: [nout]`. Shares the lane-split
/// dot kernel with [`linear`], so results are bit-identical between the
/// two entry points. Ulp-bounded contract versus the serial reference.
pub fn linear_into(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    kin: usize,
    nout: usize,
) {
    debug_assert_eq!(x.len(), m * kin);
    debug_assert_eq!(w.len(), kin * nout);
    debug_assert_eq!(out.len(), m * nout);
    if reference::reference_mode() {
        return reference::linear_into_ref(x, w, bias, out, m, kin, nout);
    }
    if m <= 1 {
        // Batch-1 inference: skip the parallel split (and the chunk list it
        // allocates) entirely — the hot path for the serve arena.
        if m == 1 {
            micro::linear_row(x, w, bias, out, kin);
        }
        return;
    }
    micro::fork_if_worthwhile(m * kin * nout * micro::LANE_OP_WORK, || {
        out.par_chunks_mut(nout).enumerate().for_each(|(i, orow)| {
            micro::linear_row(&x[i * kin..(i + 1) * kin], w, bias, orow, kin)
        });
    });
}

/// Accumulating linear: `out[i,j] += x_i · w_j` (no bias). The LSTM/GRU
/// gate kernels use this to fold the hidden-state GEMM onto the input
/// GEMM's buffer without a separate gates tensor. Same lane-split dot and
/// ulp-bounded contract as [`linear_into`].
pub fn linear_acc_into(x: &[f32], w: &[f32], out: &mut [f32], m: usize, kin: usize, nout: usize) {
    debug_assert_eq!(x.len(), m * kin);
    debug_assert_eq!(w.len(), kin * nout);
    debug_assert_eq!(out.len(), m * nout);
    if reference::reference_mode() {
        return reference::linear_acc_into_ref(x, w, out, m, kin, nout);
    }
    for i in 0..m {
        micro::linear_row_acc(
            &x[i * kin..(i + 1) * kin],
            w,
            &mut out[i * nout..(i + 1) * nout],
            kin,
        );
    }
}

/// `y = x @ w^T + bias` where `x: [m, in]`, `w: [out, in]`, `bias: [out]`.
///
/// This is the fully-connected layer layout used by the model zoo (PyTorch
/// convention: weight stored `[out_features, in_features]`).
pub fn linear(x: &Tensor, w: &Tensor, bias: Option<&Tensor>) -> Result<Tensor, TensorError> {
    x.shape().expect_rank("linear", 2)?;
    w.shape().expect_rank("linear", 2)?;
    let (m, kin) = (x.shape().dim(0), x.shape().dim(1));
    let (nout, kin2) = (w.shape().dim(0), w.shape().dim(1));
    if kin != kin2 {
        return Err(TensorError::ShapeMismatch {
            op: "linear",
            lhs: x.shape().dims().to_vec(),
            rhs: w.shape().dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != nout {
            return Err(TensorError::ShapeMismatch {
                op: "linear",
                lhs: vec![nout],
                rhs: b.shape().dims().to_vec(),
            });
        }
    }
    let mut out = vec![0.0f32; m * nout];
    // x @ w^T: each output row is a series of dot products over rows of w.
    linear_into(
        x.data(),
        w.data(),
        bias.map(Tensor::data),
        &mut out,
        m,
        kin,
        nout,
    );
    Tensor::from_vec(vec![m, nout], out)
}

/// Batched matmul: `A: [b, m, k]`, `B: [b, k, n]` → `[b, m, n]`.
pub fn batched_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    a.shape().expect_rank("batched_matmul", 3)?;
    b.shape().expect_rank("batched_matmul", 3)?;
    let (ba, m, k) = (a.shape().dim(0), a.shape().dim(1), a.shape().dim(2));
    let (bb, k2, n) = (b.shape().dim(0), b.shape().dim(1), b.shape().dim(2));
    if ba != bb || k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "batched_matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let ad = a.data();
    let bd = b.data();
    let mut out = vec![0.0f32; ba * m * n];
    micro::fork_if_worthwhile(ba * m * k * n, || {
        out.par_chunks_mut(m * n).enumerate().for_each(|(i, o)| {
            gemm_into(
                &ad[i * m * k..(i + 1) * m * k],
                &bd[i * k * n..(i + 1) * k * n],
                o,
                m,
                k,
                n,
            );
        });
    });
    Tensor::from_vec(vec![ba, m, n], out)
}

/// GEMM into a preallocated output (`c` is overwritten, len m*n).
///
/// Dispatches to the register-tiled engine (writes every element; exact
/// contract) or, in reference mode, zero-fills and runs the seed
/// accumulate kernel — reproducing the seed bytes exactly.
pub(crate) fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if reference::reference_mode() {
        c.fill(0.0);
        reference::gemm_acc_ref(a, b, c, m, k, n);
        return;
    }
    micro::gemm_tiled(a, b, c, m, k, n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let n = b.shape().dim(1);
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for t in 0..k {
                    acc = a.data()[i * k + t].mul_add(b.data()[t * n + j], acc);
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(vec![m, n], out).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::randn(vec![5, 7], 1.0, 3);
        let i = Tensor::eye(7);
        let c = matmul(&a, &i).unwrap();
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_matches_naive_odd_sizes() {
        // Sizes straddle the block boundaries on purpose.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 257, 17), (64, 16, 31)] {
            let a = Tensor::randn(vec![m, k], 1.0, m as u64);
            let b = Tensor::randn(vec![k, n], 1.0, n as u64);
            let fast = matmul(&a, &b).unwrap();
            let slow = naive_matmul(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-3), "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn matmul_exact_against_naive_bits() {
        // The tiled engine's contract is exact identity with the fused
        // chain, not approx: strips of 17, 32 + 16 and 2 * 32 + 1 columns,
        // row tiles of 3, 5 * 6 + 3 and 6 + 2 rows.
        for &(m, k, n) in &[(3, 5, 2), (33, 64, 17), (8, 128, 48), (20, 147, 65)] {
            let a = Tensor::randn(vec![m, k], 1.0, (m + n) as u64);
            let b = Tensor::randn(vec![k, n], 1.0, (k + 1) as u64);
            let fast = matmul(&a, &b).unwrap();
            let slow = naive_matmul(&a, &b);
            assert!(
                fast.data()
                    .iter()
                    .zip(slow.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "bit mismatch at ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 5]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(vec![3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn linear_matches_matmul_transpose() {
        let x = Tensor::randn(vec![4, 8], 1.0, 1);
        let w = Tensor::randn(vec![6, 8], 1.0, 2);
        let b = Tensor::randn(vec![6], 1.0, 3);
        let y = linear(&x, &w, Some(&b)).unwrap();
        // Reference: x @ w^T + b.
        let wt = crate::kernels::transpose2d(&w).unwrap();
        let ref_y = matmul(&x, &wt).unwrap();
        for i in 0..4 {
            for j in 0..6 {
                let expect = ref_y.data()[i * 6 + j] + b.data()[j];
                assert!((y.data()[i * 6 + j] - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn linear_without_bias() {
        let x = Tensor::ones(vec![1, 3]);
        let w = Tensor::ones(vec![2, 3]);
        let y = linear(&x, &w, None).unwrap();
        assert_eq!(y.data(), &[3.0, 3.0]);
    }

    #[test]
    fn linear_rejects_bad_bias() {
        let x = Tensor::zeros(vec![1, 3]);
        let w = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![5]);
        assert!(linear(&x, &w, Some(&b)).is_err());
    }

    #[test]
    fn linear_acc_adds_onto_existing() {
        let x = Tensor::ones(vec![2, 3]);
        let w = Tensor::ones(vec![4, 3]);
        let mut out = vec![10.0f32; 8];
        linear_acc_into(x.data(), w.data(), &mut out, 2, 3, 4);
        assert!(out.iter().all(|&v| v == 13.0));
    }

    #[test]
    fn batched_matmul_matches_per_batch() {
        let a = Tensor::randn(vec![3, 4, 5], 1.0, 10);
        let b = Tensor::randn(vec![3, 5, 2], 1.0, 11);
        let c = batched_matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[3, 4, 2]);
        for i in 0..3 {
            let ai = Tensor::from_vec(vec![4, 5], a.data()[i * 20..(i + 1) * 20].to_vec()).unwrap();
            let bi = Tensor::from_vec(vec![5, 2], b.data()[i * 10..(i + 1) * 10].to_vec()).unwrap();
            let ci = matmul(&ai, &bi).unwrap();
            assert_eq!(&c.data()[i * 8..(i + 1) * 8], ci.data());
        }
    }

    #[test]
    fn batched_matmul_rejects_batch_mismatch() {
        let a = Tensor::zeros(vec![2, 3, 4]);
        let b = Tensor::zeros(vec![3, 4, 5]);
        assert!(batched_matmul(&a, &b).is_err());
    }

    #[test]
    fn gemm_deterministic_across_runs() {
        let a = Tensor::randn(vec![65, 130], 1.0, 5);
        let b = Tensor::randn(vec![130, 33], 1.0, 6);
        let c1 = matmul(&a, &b).unwrap();
        let c2 = matmul(&a, &b).unwrap();
        assert_eq!(c1, c2);
    }
}
