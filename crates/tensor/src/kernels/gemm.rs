//! General matrix multiplication: the workhorse kernel.
//!
//! Every GEMM runs the register-tiled microkernel in [`super::micro`] over
//! packed column strips (exact contract, see the module docs there):
//! bit-identical to [`super::reference::matmul`], the naive triple loop of
//! `f32::mul_add`.
//!
//! [`linear`] is the same engine turned around: `x @ w^T + b` as
//! `(w @ x^T)^T + b`, the weight read in place as the A operand, so it is
//! exact too and bit-identical to [`super::reference::linear`]. Only the
//! recurrent matvec [`linear_acc_into`] splits each dot into lanes and
//! carries the **ulp-bounded** contract.

use rayon::prelude::*;

use super::micro;
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
    micro::gemm_tiled(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec(vec![m, n], out)
}

/// `matmul` into a caller-provided buffer (`out` is overwritten, len m*n).
///
/// Same kernel and per-element reduction order as [`matmul`], so the bytes
/// written are identical; the only difference is who owns the buffer. The
/// tiled engine writes every element, so there is no zero-fill pass here.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    micro::gemm_tiled(a, b, out, m, k, n);
}

/// `linear` into a caller-provided buffer (`out` is overwritten, len m*nout).
///
/// `x: [m, kin]`, `w: [nout, kin]`, `bias: [nout]`: the one `x @ w^T + b` of
/// the workspace. It runs the GEMM transposed, `C^T = w @ x^T`, so the
/// row-major weight is exactly the A operand the tile reads in place — never
/// copied — and only `x^T`, `m` columns wide, is packed into B strips. At
/// m = 1 `C^T` is `out` itself; at m >= 2 it is a scratch buffer transposed
/// into `out`. The bias is added to each row of `C^T` as its chunk finishes.
/// **Exact contract**: each output is one k-ascending `mul_add` chain from
/// `+0.0`, plus `b[j]`, whatever `m`, the pool width or the tile split.
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
    let gemm = |ct: &mut [f32]| {
        let add_bias = |j: usize, _: usize, row: &mut [f32]| {
            if let Some(b) = bias {
                row.iter_mut().for_each(|o| *o += b[j]);
            }
        };
        micro::gemm_packed(w, ct, nout, kin, m, micro::row_strips(x, kin), add_bias);
    };
    if m == 1 {
        gemm(out);
        return;
    }
    micro::with_scratch(nout * m, |ct| {
        gemm(ct);
        for (i, orow) in out.chunks_exact_mut(nout).enumerate() {
            for (o, c) in orow.iter_mut().zip(ct[i..].iter().step_by(m)) {
                *o = *c;
            }
        }
    });
}

/// Accumulating linear: `out[i,j] += x_i · w_j` (no bias). The recurrent
/// matvec of the LSTM/GRU gates: it adds `h @ w_hh^T` onto the buffer that
/// holds the input projection. Each dot is the fused 16-lane split of
/// [`micro::linear_row_acc`], ulp-bounded against the serial oracle.
pub fn linear_acc_into(x: &[f32], w: &[f32], out: &mut [f32], m: usize, kin: usize, nout: usize) {
    debug_assert_eq!(x.len(), m * kin);
    debug_assert_eq!(w.len(), kin * nout);
    debug_assert_eq!(out.len(), m * nout);
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
            micro::gemm_tiled(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;

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
            let slow = reference::matmul(&a, &b);
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
            let slow = reference::matmul(&a, &b);
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
