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
//!   element's reduction as a single fused multiply-add chain in a fixed
//!   (k-ascending) order, `acc = a[t].mul_add(b[t], acc)` from `+0.0`, so
//!   the result is bit-identical to the naive fused loop no matter how the
//!   kernel tiles rows/columns or how many threads run. [`gemm_packed`] is
//!   exact: register tiling changes *which* elements are computed together,
//!   never the order of any one element's chain. The fusion is written, not
//!   hoped for: Rust never contracts `a * b + c`, and IEEE 754 specifies
//!   `fma` exactly (one rounding), so the bits are the same on every ISA —
//!   a host without FMA hardware gets them from libm's software `fmaf`,
//!   correctly and slowly.
//! * **Ulp-bounded.** The kernel splits the k-reduction across `LANES`
//!   independent partial sums (that's what makes a dot product
//!   vectorizable), which reassociates the sum. [`dot_lanes`] and friends
//!   carry this contract: results differ from the serial reference by a
//!   bounded number of ulp (property-tested ≤ 4 ulp for the distributions
//!   the zoo produces), and are still fully deterministic — the lane
//!   structure is fixed, so the same inputs give the same bits on every
//!   run, ISA and thread count.

use std::sync::Mutex;

use rayon::TileMut;

/// Number of parallel f32 accumulator lanes for lane-split reductions.
/// Eight f32 lanes fill one AVX2 register and half an AVX-512 register;
/// on narrower ISAs LLVM legalizes the same code to multiple registers
/// with identical results.
pub const LANES: usize = 8;

/// Rows per register tile in [`gemm_packed`]. A core with two FMA pipes of
/// 4-cycle latency needs eight independent chains in flight to keep both
/// busy; `MR × NR / 16` = twelve 512-bit accumulators cover that with room
/// for the loads, and together with the two B vectors and a broadcast fit
/// the 32 vector registers of AVX-512.
pub const MR: usize = 6;
/// Columns per register tile in [`gemm_packed`] and width of a packed B
/// strip: two AVX-512 f32 vectors. (With 256-bit vectors the tile is 24
/// accumulators and at best half the rate; the bits are the same.)
pub const NR: usize = 32;

/// The narrow tile, for a strip with at most `NR_NARROW` real columns (a
/// feature map of 4×4 or less; the last strip of a 6×6 one): the same twelve
/// accumulators turned to cover twice the rows with one vector each, so a
/// strip that is mostly padding costs half. A serving-scale ResNet spends
/// its deepest eight convolutions here (3×3 and 2×2 maps), where the old
/// cascade's 8-, 4- and 1-wide tiles each made their own pass over the rows.
const MR_NARROW: usize = 2 * MR;
const NR_NARROW: usize = NR / 2;

/// Chunks a GEMM region aims for per pool thread. With two chunks per
/// region a worker that arrives late costs the caller half the kernel; at
/// four per thread a straggler costs at most an eighth of it on two threads.
const CHUNKS_PER_THREAD: usize = 4;

/// The fork gate, in GEMM multiply-adds: estimated work below which a
/// parallel region runs inline on its caller. On the 2-vCPU benchmark host
/// a fork/join costs ≈ 1 µs while a worker is still spinning (0.9 µs for an
/// empty 8-chunk region) and, once it has parked, a futex wake plus a helper
/// that arrives 50–100 µs late. [`gemm_packed`] retires ≈ 60 multiply-adds
/// per ns on one thread (`duet-kernel-floor` prints the measured rate and its
/// share of the host's FMA peak), so 3·2²⁰ are ≈ 50 µs of GEMM: the least
/// work whose halving repays a cold fork. `duet-kernel-floor` guards the
/// choice: a serving-scale conv (5.3 M multiply-adds) must not run slower on
/// the pool than inline.
pub(crate) const FORK_MIN_WORK: usize = 3 << 20;

/// Fork-gate weight, in GEMM multiply-adds, of one operation of the kernels
/// that are not on the register tile: a lane-split dot-product multiply-add
/// (`linear`, the seed GEMM), a pooling or depthwise window tap. They retire
/// at most ≈ 20 per ns, a third of the tile's rate, so their regions fork
/// from 2²⁰ of their own operations.
pub(crate) const LANE_OP_WORK: usize = 3;

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

/// Register-tiled GEMM over a row-major `b`: `c = a @ b` (every element of
/// `c` is written). [`gemm_packed`] with the strip packer for a matrix that
/// already exists in memory.
pub fn gemm_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    gemm_packed(a, c, m, k, n, |j0, width, strip| {
        for (t, dst) in strip.as_chunks_mut::<NR>().0.iter_mut().enumerate() {
            dst[..width].copy_from_slice(&b[t * n + j0..t * n + j0 + width]);
            dst[width..].fill(0.0);
        }
    });
}

/// The GEMM engine: `c = a @ B`, where `a` is `m × k` row-major and B
/// (`k × n`) exists only as the [`NR`]-wide column strips `pack` writes.
///
/// `pack(j0, width, strip)` must fill `strip` (`k × NR`, row-major) with
/// columns `[j0, j0 + width)` of B in lanes `0..width` of every row and zero
/// in the rest: `matmul` copies them out of a row-major matrix, `conv2d`
/// gathers them straight from the image, so the im2col matrix never exists.
/// A strip is packed once per chunk and swept by every row tile of the
/// chunk. A tail strip (`width < NR`) runs the same loop on its zero padding
/// and stores only its `width` real columns — there is no cascade of ever
/// narrower tiles, only the [`MR_NARROW`]×[`NR_NARROW`] shape for strips
/// that are at least half padding.
///
/// **Exact contract**: each `c[i][j]` is one `f32::mul_add` chain over
/// `t = 0..k` in ascending order, started from `+0.0` — bit-identical to the
/// naive fused triple loop for every tile shape, chunk split and thread
/// count. The tiling only decides which block of independent chains
/// advances together; what it buys is keeping those accumulators in vector
/// registers for the whole k loop.
pub(crate) fn gemm_packed(
    a: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    pack: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    use rayon::prelude::*;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if n == 0 || m == 0 {
        return;
    }
    let (rows, cols) = chunk_shape(m, n);
    fork_if_worthwhile(m * k * n.next_multiple_of(NR), || {
        c.par_tiles_mut(n, rows, cols)
            .for_each(|(i0, j0, mut cblk)| gemm_chunk(a, &mut cblk, i0, j0, k, &pack));
    });
}

/// Rows × columns of a GEMM chunk. Columns split first, into whole strips: a
/// chunk packs each of its strips once, so chunks that share columns repeat
/// that packing, and the taller a chunk the more row tiles reuse one strip.
/// Only when the strips are fewer than the [`CHUNKS_PER_THREAD`] chunks per
/// pool thread a region aims for (a 7×7 feature map is two) are the rows
/// cut as well, into whole tiles of either shape.
fn chunk_shape(m: usize, n: usize) -> (usize, usize) {
    let want = CHUNKS_PER_THREAD * rayon::current_num_threads();
    let strips = n.div_ceil(NR);
    let strips_per_chunk = strips.div_ceil(want);
    let panels = strips.div_ceil(strips_per_chunk);
    let row_blocks = want.div_ceil(panels).min(m.div_ceil(MR_NARROW));
    let rows = m.div_ceil(row_blocks).next_multiple_of(MR_NARROW);
    (rows, strips_per_chunk * NR)
}

/// One chunk of the GEMM: rows `[i0, i0 + cblk.rows())` × columns
/// `[j0, j0 + cblk.cols())` of C, strip by strip. A strip of at most
/// [`NR_NARROW`] real columns is swept by the narrow tile.
fn gemm_chunk(
    a: &[f32],
    cblk: &mut TileMut<'_, f32>,
    i0: usize,
    j0: usize,
    k: usize,
    pack: &(impl Fn(usize, usize, &mut [f32]) + Sync),
) {
    let (rows, cols) = (cblk.rows(), cblk.cols());
    let arows = &a[i0 * k..(i0 + rows) * k];
    with_pack_scratch(k * NR, |strip| {
        for dj in (0..cols).step_by(NR) {
            let width = (cols - dj).min(NR);
            pack(j0 + dj, width, strip);
            if width > NR_NARROW {
                for di in (0..rows).step_by(MR) {
                    tile::<MR, NR>(arows, strip, cblk, di, dj, width, k);
                }
            } else {
                for di in (0..rows).step_by(MR_NARROW) {
                    tile::<MR_NARROW, NR_NARROW>(arows, strip, cblk, di, dj, width, k);
                }
            }
        }
    });
}

/// One `R`×`NC` register tile: chunk rows `di..di + R` (rows of `arows`, `k`
/// apart) against lanes `0..NC` of a packed strip, accumulators held in
/// `[[f32; NC]; R]` for the entire k loop, then the strip's `width` real
/// columns stored at column `dj`. Below the chunk's last row the tile runs
/// on a repeat of it and stores nothing — like the zero lanes right of a
/// tail strip, chains that are computed and dropped, so that one shape of
/// loop serves every edge.
///
/// Never inlined: on its own the k loop gets twelve accumulator registers;
/// merged into the chunk's strip and row loops it was measured a third
/// slower (the same source, 95 vs 140 GFLOP/s on one thread).
#[inline(never)]
fn tile<const R: usize, const NC: usize>(
    arows: &[f32],
    strip: &[f32],
    cblk: &mut TileMut<'_, f32>,
    di: usize,
    dj: usize,
    width: usize,
    k: usize,
) {
    let real = (cblk.rows() - di).min(R);
    let arows: [&[f32]; R] = std::array::from_fn(|r| {
        let row = di + r.min(real - 1);
        &arows[row * k..(row + 1) * k]
    });
    let strip = &strip.as_chunks::<NR>().0[..k];
    let mut acc = [[0.0f32; NC]; R];
    for t in 0..k {
        for r in 0..R {
            let av = arows[r][t];
            for l in 0..NC {
                acc[r][l] = av.mul_add(strip[t][l], acc[r][l]);
            }
        }
    }
    for (r, accrow) in acc[..real].iter().enumerate() {
        cblk.row_mut(di + r)[dj..dj + width].copy_from_slice(&accrow[..width]);
    }
}

/// Grow-only strip buffers: a GEMM chunk checks one out and returns it, so
/// steady-state inference allocates none. The list is process-wide rather
/// than per-thread because a chunk runs on whichever thread claims it — a
/// pool worker, or an executor lane that lives for one run — and it never
/// holds more buffers than chunks ran at once.
static PACK_SCRATCH: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());

fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    const LOCK: &str = "pack scratch list: push and pop cannot panic";
    let mut buf = PACK_SCRATCH.lock().expect(LOCK).pop().unwrap_or_default();
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    let result = f(&mut buf[..len]);
    PACK_SCRATCH.lock().expect(LOCK).push(buf);
    result
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
        // Every residue of the tile geometry: n % NR in {0, 1, 15, 16, 17,
        // 31} — both sides of the narrow tile's width — below and above one
        // strip; m % MR in 0..MR with m below one chunk, across a few (the
        // rows split when strips are few) and far past; k of one step, a
        // round number and the stem's 147.
        let ms = [1, 2, 3, 4, 5, 6, 7, 12, 13, 50, 100];
        let ns = [1, 15, 16, 17, 31, 32, 33, 36, 47, 63, 64, 65, 113];
        for (m, n, k) in ms
            .into_iter()
            .flat_map(|m| ns.into_iter().map(move |n| (m, n)))
            .flat_map(|(m, n)| [1, 64, 147].into_iter().map(move |k| (m, n, k)))
        {
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
                        acc = a[i * k + t].mul_add(b[t * n + j], acc);
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
