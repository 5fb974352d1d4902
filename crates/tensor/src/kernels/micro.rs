//! Lane-chunked microkernels: the vector engine under every heavy kernel.
//!
//! Everything here is stable Rust: fixed-width `[f32; LANES]` accumulator
//! arrays and `chunks_exact` walks that LLVM auto-vectorizes (the same idiom
//! `duet-ir`'s abstract interpreter proves out in `absint.rs`). No
//! `std::simd`, no intrinsics, no `unsafe`.
//!
//! # Reduction-order contracts
//!
//! Every kernel documents one of two numeric contracts, and the test suite
//! in `crates/tensor/tests/kernel_contract.rs` enforces them:
//!
//! * **Exact (`to_bits` identity).** The kernel performs each output
//!   element's reduction as a single scalar accumulation chain in a fixed
//!   (k-ascending) order, so the result is bit-identical to the naive loop
//!   no matter how the kernel tiles rows/columns or how many threads run.
//!   [`gemm_tiled`] is exact: register tiling changes *which* elements are
//!   computed together, never the order of any one element's sum. Rust
//!   never contracts `mul`+`add` into FMA, so this holds on every ISA.
//! * **Ulp-bounded.** The kernel splits the k-reduction across `LANES`
//!   independent partial sums (that's what makes a dot product
//!   vectorizable), which reassociates the sum. [`dot_lanes`] and friends
//!   carry this contract: results differ from the serial reference by a
//!   bounded number of ulp (property-tested ≤ 4 ulp for the distributions
//!   the zoo produces), and are still fully deterministic — the lane
//!   structure is fixed, so the same inputs give the same bits on every
//!   run, ISA and thread count.

use rayon::TileMut;

/// Number of parallel f32 accumulator lanes for lane-split reductions.
/// Eight f32 lanes fill one AVX2 register and half an AVX-512 register;
/// on narrower ISAs LLVM legalizes the same code to multiple registers
/// with identical results.
pub const LANES: usize = 8;

/// Rows per register tile in [`gemm_tiled`].
pub const MR: usize = 4;
/// Columns per register tile in [`gemm_tiled`] (one AVX-512 f32 vector,
/// two AVX2 vectors).
pub const NR: usize = 16;

/// Rows per parallel work unit of the GEMM drivers: one block's rows of A
/// (32 × k floats) stay L2-resident while its column tiles stream B.
pub(crate) const ROW_BLOCK: usize = 32;

/// Chunks a GEMM region aims for per pool thread. With the two chunks per
/// region the old 32-row split gave a 64-row GEMM, a worker that arrives
/// late costs the caller half the kernel; at four per thread a straggler
/// costs at most an eighth of it on two threads.
const CHUNKS_PER_THREAD: usize = 4;

/// The fork gate: estimated inner-loop operations (multiply-adds for GEMM,
/// convolution and linear; window taps for pooling and depthwise; weighted
/// element moves for im2col) below which a parallel region runs inline on
/// its caller. On the 2-vCPU benchmark host a fork/join costs ≈ 1 µs while
/// a worker is still spinning (0.9 µs for an empty 8-chunk region) and, once
/// it has parked, a futex wake plus a helper that arrives 50–100 µs late.
/// The tiled GEMM retires ≈ 20 multiply-adds per ns on one thread, so 2²⁰
/// operations are ≈ 50 µs of GEMM: the least work whose halving repays a
/// cold fork. Slower-per-operation kernels (pooling, depthwise) take longer
/// than that at the gate, which only errs towards forking later.
/// `duet-kernel-floor` guards the choice: a serving-scale conv (5.3 M
/// multiply-adds) must not run slower on the pool than inline.
pub(crate) const FORK_MIN_WORK: usize = 1 << 20;

/// Run `region` — code that submits `par_chunks_mut` / `par_tiles_mut`
/// regions — on the pool if its estimated `work` passes [`FORK_MIN_WORK`],
/// inline otherwise. `work` must be a function of the input's shape alone.
/// Every parallel call site in this crate goes through here.
#[inline]
pub(crate) fn fork_if_worthwhile<R>(work: usize, region: impl FnOnce() -> R) -> R {
    if work >= FORK_MIN_WORK {
        region()
    } else {
        rayon::inline_scope(region)
    }
}

/// Fixed lane-combination order shared by every lane-split reduction:
/// pairwise tree `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
pub fn reduce_lanes(acc: &[f32; LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Lane-split dot product. **Ulp-bounded contract** (reassociates the
/// k-sum into [`LANES`] partial sums, combined via [`reduce_lanes`], plus
/// a serial tail for `len % LANES` trailing elements).
#[inline]
pub fn dot_lanes(x: &[f32], w: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), w.len());
    let mut acc = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let wc = w.chunks_exact(LANES);
    let xr = xc.remainder();
    let wr = wc.remainder();
    for (xv, wv) in xc.zip(wc) {
        for l in 0..LANES {
            acc[l] += xv[l] * wv[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, wv) in xr.iter().zip(wr.iter()) {
        tail += xv * wv;
    }
    reduce_lanes(&acc) + tail
}

/// Four lane-split dot products sharing one pass over `x`.
///
/// Each row's bits are **identical to [`dot_lanes`]** on the same pair of
/// slices — the accumulation order per row does not depend on the 4-row
/// tiling — so callers may mix the tiled and single-row paths freely.
#[inline]
pub fn dot_lanes_x4(x: &[f32], w0: &[f32], w1: &[f32], w2: &[f32], w3: &[f32]) -> [f32; 4] {
    let n = x.len();
    debug_assert!(w0.len() == n && w1.len() == n && w2.len() == n && w3.len() == n);
    let mut acc = [[0.0f32; LANES]; 4];
    let split = n - n % LANES;
    let mut t = 0;
    while t < split {
        let xv = <&[f32; LANES]>::try_from(&x[t..t + LANES]).unwrap();
        let w0v = <&[f32; LANES]>::try_from(&w0[t..t + LANES]).unwrap();
        let w1v = <&[f32; LANES]>::try_from(&w1[t..t + LANES]).unwrap();
        let w2v = <&[f32; LANES]>::try_from(&w2[t..t + LANES]).unwrap();
        let w3v = <&[f32; LANES]>::try_from(&w3[t..t + LANES]).unwrap();
        for l in 0..LANES {
            acc[0][l] += xv[l] * w0v[l];
            acc[1][l] += xv[l] * w1v[l];
            acc[2][l] += xv[l] * w2v[l];
            acc[3][l] += xv[l] * w3v[l];
        }
        t += LANES;
    }
    let mut tail = [0.0f32; 4];
    for i in split..n {
        tail[0] += x[i] * w0[i];
        tail[1] += x[i] * w1[i];
        tail[2] += x[i] * w2[i];
        tail[3] += x[i] * w3[i];
    }
    [
        reduce_lanes(&acc[0]) + tail[0],
        reduce_lanes(&acc[1]) + tail[1],
        reduce_lanes(&acc[2]) + tail[2],
        reduce_lanes(&acc[3]) + tail[3],
    ]
}

/// One output row of a fully-connected layer: `orow[j] = xrow · w[j] (+ b[j])`.
///
/// Walks `w` rows in 4-row tiles (sharing each `xrow` load across rows)
/// with a single-row tail; every dot carries the [`dot_lanes`] ulp-bounded
/// contract. The bias branch is hoisted out of the loop entirely: dots are
/// written first, then bias is added in one vector pass (`acc + b[j]` — the
/// same single rounding the fused form would produce).
#[inline]
pub fn linear_row(xrow: &[f32], w: &[f32], bias: Option<&[f32]>, orow: &mut [f32], kin: usize) {
    let nout = orow.len();
    debug_assert_eq!(w.len(), nout * kin);
    let mut j = 0;
    while j + 4 <= nout {
        let d = dot_lanes_x4(
            xrow,
            &w[j * kin..(j + 1) * kin],
            &w[(j + 1) * kin..(j + 2) * kin],
            &w[(j + 2) * kin..(j + 3) * kin],
            &w[(j + 3) * kin..(j + 4) * kin],
        );
        orow[j..j + 4].copy_from_slice(&d);
        j += 4;
    }
    while j < nout {
        orow[j] = dot_lanes(xrow, &w[j * kin..(j + 1) * kin]);
        j += 1;
    }
    if let Some(b) = bias {
        for (o, bv) in orow.iter_mut().zip(b.iter()) {
            *o += bv;
        }
    }
}

/// Accumulating variant of [`linear_row`]: `orow[j] += xrow · w[j]`.
/// Same lane structure, same ulp-bounded contract per dot.
#[inline]
pub fn linear_row_acc(xrow: &[f32], w: &[f32], orow: &mut [f32], kin: usize) {
    let nout = orow.len();
    debug_assert_eq!(w.len(), nout * kin);
    let mut j = 0;
    while j + 4 <= nout {
        let d = dot_lanes_x4(
            xrow,
            &w[j * kin..(j + 1) * kin],
            &w[(j + 1) * kin..(j + 2) * kin],
            &w[(j + 2) * kin..(j + 3) * kin],
            &w[(j + 3) * kin..(j + 4) * kin],
        );
        for (o, dv) in orow[j..j + 4].iter_mut().zip(d.iter()) {
            *o += dv;
        }
        j += 4;
    }
    while j < nout {
        orow[j] += dot_lanes(xrow, &w[j * kin..(j + 1) * kin]);
        j += 1;
    }
}

/// Register-tiled GEMM: `c = a @ b` (every element of `c` is written).
///
/// **Exact contract**: each `c[i][j]` is one scalar accumulation chain in
/// strictly k-ascending order — bit-identical to the naive triple loop for
/// every tile shape, chunk split and thread count. The tiling only decides
/// which [`MR`]×[`NR`] block of independent chains advances together, so
/// the per-element order never changes; what it buys is keeping those
/// MR×NR accumulators in vector registers across the whole k loop instead
/// of streaming the C row through memory k times.
///
/// The parallel work unit is a [`ROW_BLOCK`]-row × NR-multiple column panel
/// of C (see [`chunk_cols`]); each chunk computes whole chains.
pub fn gemm_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    use rayon::prelude::*;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if n == 0 || m == 0 {
        return;
    }
    fork_if_worthwhile(m * k * n, || {
        c.par_tiles_mut(n, ROW_BLOCK, chunk_cols(m, n))
            .for_each(|(i0, j0, mut cblk)| gemm_chunk(a, b, &mut cblk, i0, j0, k, n));
    });
}

/// Column-panel width of a GEMM chunk: the widest multiple of [`NR`] that
/// still yields [`CHUNKS_PER_THREAD`] chunks per pool thread, given the
/// `m / ROW_BLOCK` row blocks — so a 64-row GEMM, which has only two row
/// blocks, is cut along its columns as well.
fn chunk_cols(m: usize, n: usize) -> usize {
    let want = CHUNKS_PER_THREAD * rayon::current_num_threads();
    let panels = want
        .div_ceil(m.div_ceil(ROW_BLOCK))
        .clamp(1, n.div_ceil(NR));
    n.div_ceil(panels).next_multiple_of(NR)
}

/// One chunk of the tiled GEMM: rows `[i0, i0 + cblk.rows())` × columns
/// `[j0, j0 + cblk.cols())` of C. Column tiles run outermost so one k×NR
/// panel of B is reused by every row tile in the block.
fn gemm_chunk(
    a: &[f32],
    b: &[f32],
    cblk: &mut TileMut<'_, f32>,
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let mut dj = 0;
    let cols = cblk.cols();
    while dj + NR <= cols {
        tile_col::<NR>(a, b, cblk, i0, j0, dj, k, n);
        dj += NR;
    }
    // Cascaded column tails: 8- then 4-wide tiles, then one 1–3-wide tile.
    // Per-element order is k-ascending throughout, so the exact contract is
    // preserved at every width. The narrow tiles keep MR chains in flight
    // per B load where a per-row scalar chain would keep one.
    if dj + 8 <= cols {
        tile_col::<8>(a, b, cblk, i0, j0, dj, k, n);
        dj += 8;
    }
    if dj + 4 <= cols {
        tile_col::<4>(a, b, cblk, i0, j0, dj, k, n);
        dj += 4;
    }
    match cols - dj {
        0 => {}
        1 => tile_col::<1>(a, b, cblk, i0, j0, dj, k, n),
        2 => tile_col::<2>(a, b, cblk, i0, j0, dj, k, n),
        _ => tile_col::<3>(a, b, cblk, i0, j0, dj, k, n),
    }
}

/// One `NC`-wide column strip at chunk column `dj`: walks the chunk's rows
/// in [`MR`]-row tiles.
#[allow(clippy::too_many_arguments)]
fn tile_col<const NC: usize>(
    a: &[f32],
    b: &[f32],
    cblk: &mut TileMut<'_, f32>,
    i0: usize,
    j0: usize,
    dj: usize,
    k: usize,
    n: usize,
) {
    let rows = cblk.rows();
    let mut di = 0;
    while di < rows {
        match rows - di {
            1 => tile::<1, NC>(a, b, cblk, i0, di, j0, dj, k, n),
            2 => tile::<2, NC>(a, b, cblk, i0, di, j0, dj, k, n),
            3 => tile::<3, NC>(a, b, cblk, i0, di, j0, dj, k, n),
            _ => tile::<4, NC>(a, b, cblk, i0, di, j0, dj, k, n),
        }
        di += (rows - di).min(MR);
    }
}

/// One `R`×`NC` register tile: R rows of A against an NC-wide panel of B,
/// accumulators held in `[[f32; NC]; R]` for the entire k loop, then stored.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile<const R: usize, const NC: usize>(
    a: &[f32],
    b: &[f32],
    cblk: &mut TileMut<'_, f32>,
    i0: usize,
    di0: usize,
    j0: usize,
    dj: usize,
    k: usize,
    n: usize,
) {
    let mut arows = [&a[..0]; R];
    for (r, arow) in arows.iter_mut().enumerate() {
        let row = i0 + di0 + r;
        *arow = &a[row * k..(row + 1) * k];
    }
    let mut acc = [[0.0f32; NC]; R];
    for t in 0..k {
        let bv = <&[f32; NC]>::try_from(&b[t * n + j0 + dj..t * n + j0 + dj + NC]).unwrap();
        for r in 0..R {
            let av = arows[r][t];
            for l in 0..NC {
                acc[r][l] += av * bv[l];
            }
        }
    }
    for (r, accrow) in acc.iter().enumerate() {
        cblk.row_mut(di0 + r)[dj..dj + NC].copy_from_slice(accrow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_dot(x: &[f32], w: &[f32]) -> f64 {
        x.iter()
            .zip(w)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum()
    }

    #[test]
    fn dot_lanes_x4_matches_single_row_bits() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let ws: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..37).map(|i| ((i + r * 7) as f32 * 0.11).cos()).collect())
            .collect();
        let tiled = dot_lanes_x4(&x, &ws[0], &ws[1], &ws[2], &ws[3]);
        for r in 0..4 {
            assert_eq!(tiled[r].to_bits(), dot_lanes(&x, &ws[r]).to_bits());
        }
    }

    #[test]
    fn dot_lanes_close_to_f64_reference() {
        let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.71).sin()).collect();
        let w: Vec<f32> = (0..100).map(|i| (i as f32 * 0.13).cos()).collect();
        let got = dot_lanes(&x, &w) as f64;
        let want = serial_dot(&x, &w);
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
    }

    #[test]
    fn gemm_tiled_bit_identical_to_naive() {
        // Column tails n % 4 in {1, 2, 3} below and above one register
        // tile, with m on both sides of ROW_BLOCK.
        let tails = [1, 2, 3, 5, 49, 50, 51];
        let shapes = [(1, 1, 1), (3, 5, 2), (7, 33, 17), (40, 64, 50), (4, 16, 16)]
            .into_iter()
            .chain(tails.map(|n| (7, 19, n)))
            .chain(tails.map(|n| (ROW_BLOCK + 9, 19, n)));
        for (m, k, n) in shapes {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 97) as f32 - 48.0) / 7.0)
                .collect();
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 89) as f32 - 44.0) / 9.0)
                .collect();
            let mut c = vec![f32::NAN; m * n];
            gemm_tiled(&a, &b, &mut c, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for t in 0..k {
                        acc += a[i * k + t] * b[t * n + j];
                    }
                    assert_eq!(
                        c[i * n + j].to_bits(),
                        acc.to_bits(),
                        "({m},{k},{n}) at ({i},{j})"
                    );
                }
            }
        }
    }
}
