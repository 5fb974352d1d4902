//! Reference (pre-vectorization) kernels and the global reference-mode
//! switch.
//!
//! These are the seed implementations of the heavy kernels: the
//! cache-blocked zero-skipping accumulate GEMM and the serial
//! one-chain-per-output linear, kept as they were but for one thing — the
//! GEMM's axpy step is `f32::mul_add`, as the register tile's is, so that
//! the exact contract between the two engines is a statement about loop
//! structure and not about who fuses. (`conv2d` in reference mode builds
//! the whole patch matrix and multiplies it here: the seed lowering.) They
//! serve two roles:
//!
//! 1. **Numeric oracle.** The ulp-bounded contract of the lane-split
//!    kernels (see `micro.rs`) is stated *against these*: the contract
//!    tests compare vectorized output to reference-mode output.
//! 2. **Before/after measurement.** `duet-bench`'s kernel-speed experiment
//!    and the `duet-kernel-floor` CI gate flip [`set_reference_mode`]
//!    between alternating trials inside one process, so the speedup they
//!    record compares the two engines under identical build flags, cache
//!    state and scheduler conditions.
//!
//! The switch is process-global and intended for benchmarks and tests
//! only; the serving path never touches it.

use std::sync::atomic::{AtomicBool, Ordering};

use rayon::prelude::*;

use super::micro::{fork_if_worthwhile, LANE_OP_WORK};

static REFERENCE_MODE: AtomicBool = AtomicBool::new(false);

/// Route the heavy kernels (GEMM, linear, depthwise conv, LSTM) through the
/// seed scalar implementations (`true`) or the vectorized engine (`false`,
/// the default).
pub fn set_reference_mode(on: bool) {
    REFERENCE_MODE.store(on, Ordering::SeqCst);
}

/// Whether reference mode is currently active.
pub fn reference_mode() -> bool {
    REFERENCE_MODE.load(Ordering::Relaxed)
}

/// Tile height for the parallel row split (seed value).
const ROW_BLOCK: usize = 32;
/// K-blocking factor (seed value).
const K_BLOCK: usize = 256;

/// Seed blocked GEMM, accumulating into `c` (`c` must be pre-zeroed).
/// i-k-j loop order with a fused axpy inner loop straight through memory.
pub(crate) fn gemm_acc_ref(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m <= ROW_BLOCK {
        gemm_block(a, b, c, 0, m, k, n);
        return;
    }
    fork_if_worthwhile(m * k * n * LANE_OP_WORK, || {
        c.par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, cblk)| {
                let i0 = blk * ROW_BLOCK;
                let rows = cblk.len() / n.max(1);
                gemm_block(a, b, cblk, i0, rows, k, n);
            });
    });
}

/// One ROW_BLOCK-tall tile of the seed GEMM: rows `[i0, i0+rows)` of A
/// into `cblk`, k-blocked, reduction strictly k-ascending per element.
fn gemm_block(a: &[f32], b: &[f32], cblk: &mut [f32], i0: usize, rows: usize, k: usize, n: usize) {
    for kk in (0..k).step_by(K_BLOCK) {
        let kend = (kk + K_BLOCK).min(k);
        for di in 0..rows {
            let i = i0 + di;
            let crow = &mut cblk[di * n..(di + 1) * n];
            for t in kk..kend {
                let aval = a[i * k + t];
                if aval == 0.0 {
                    continue;
                }
                let brow = &b[t * n..(t + 1) * n];
                for (cv, bv) in crow.iter_mut().zip(brow.iter()) {
                    *cv = aval.mul_add(*bv, *cv);
                }
            }
        }
    }
}

/// Seed linear: one serial scalar accumulation chain per output element.
pub(crate) fn linear_into_ref(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    out: &mut [f32],
    m: usize,
    kin: usize,
    nout: usize,
) {
    let row = |i: usize, orow: &mut [f32]| {
        let xrow = &x[i * kin..(i + 1) * kin];
        for (j, o) in orow.iter_mut().enumerate() {
            let wrow = &w[j * kin..(j + 1) * kin];
            let mut acc = 0.0f32;
            for t in 0..kin {
                acc += xrow[t] * wrow[t];
            }
            *o = acc + bias.map_or(0.0, |b| b[j]);
        }
    };
    if m <= 1 {
        if m == 1 {
            row(0, out);
        }
        return;
    }
    fork_if_worthwhile(m * kin * nout * LANE_OP_WORK, || {
        out.par_chunks_mut(nout)
            .enumerate()
            .for_each(|(i, orow)| row(i, orow));
    });
}

/// Accumulating seed linear: `out[i][j] += x_i · w_j`, serial chains.
pub(crate) fn linear_acc_into_ref(
    x: &[f32],
    w: &[f32],
    out: &mut [f32],
    m: usize,
    kin: usize,
    nout: usize,
) {
    for i in 0..m {
        let xrow = &x[i * kin..(i + 1) * kin];
        let orow = &mut out[i * nout..(i + 1) * nout];
        for (j, o) in orow.iter_mut().enumerate() {
            let wrow = &w[j * kin..(j + 1) * kin];
            let mut acc = 0.0f32;
            for t in 0..kin {
                acc += xrow[t] * wrow[t];
            }
            *o += acc;
        }
    }
}
