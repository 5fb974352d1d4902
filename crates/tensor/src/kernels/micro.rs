//! Register-tiled microkernels: the vector engine under every heavy kernel.
//!
//! Everything here is stable Rust: fixed-width `[f32; N]` accumulator
//! arrays and `chunks_exact` walks that LLVM auto-vectorizes (the same idiom
//! `duet-ir`'s abstract interpreter proves out in `absint.rs`). No
//! `std::simd`, no intrinsics, no `unsafe`.
//!
//! # Reduction-order contracts
//!
//! Every kernel documents one of two numeric contracts against its oracle
//! in [`super::reference`], and the test suite in
//! `crates/tensor/tests/kernel_contract.rs` enforces them:
//!
//! * **Exact (`to_bits` identity).** Every dense product — `matmul`, the
//!   convolutions lowered onto it, `linear` (which runs `w @ xᵀ` with the
//!   weight as A) and so the LSTM/GRU input projection — is
//!   [`gemm_packed`] or [`gemm_pitched`]: each output element one fused
//!   multiply-add chain in a fixed (k-ascending) order,
//!   `acc = a[t].mul_add(b[t], acc)` from `+0.0`, so the result is
//!   bit-identical to the naive fused loop no matter how the kernel tiles
//!   rows/columns or how many threads run. Register tiling changes *which*
//!   elements are computed together, never the order of any one element's
//!   chain. The fusion is written, not hoped for: Rust never contracts
//!   `a * b + c`, and IEEE 754 specifies `fma` exactly (one rounding), so
//!   the bits are the same on every ISA — a host without FMA hardware gets
//!   them from libm's software `fmaf`, correctly and slowly.
//! * **Ulp-bounded.** The recurrent matvec of the RNN gates,
//!   [`linear_row_acc`] (16 `mul_add` chains per dot, eight rows per pass),
//!   splits the k-reduction across independent partial sums, which
//!   reassociates the sum: results differ from the serial reference by a
//!   bounded number of ulp (property-tested ≤ 4 ulp for the distributions
//!   the zoo produces), and are still fully deterministic — the lane
//!   structure is fixed, so the same inputs give the same bits on every
//!   run, ISA and thread count.

use std::sync::Mutex;

use rayon::TileMut;

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
pub(crate) const CHUNKS_PER_THREAD: usize = 4;

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
/// that are not on the register tile: a pooling window tap, a depthwise tap
/// (one unfused multiply and add of a pass over a padded plane). On one
/// thread of the 2-vCPU benchmark host, beside a tile at 62 multiply-adds
/// per ns, MobileNet's nine depthwise shapes retired 0.7–8 taps per ns
/// (median ≈ 3; stride-2 and 7×7 maps the slowest) and the zoo's max and
/// average pools 0.8–2.8 and 0.8–2.5 (medians 2.2 and 1.7): one rate within
/// 2× for both, ≈ a twentieth of the tile's. So their regions fork from
/// ≈ 157 K operations, ≈ 55 µs; every one of those shapes then ran 1.2–2.8×
/// faster on the pool than inline, in each of three runs.
pub(crate) const LANE_OP_WORK: usize = 20;

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

/// Rows of `w` per pass of [`linear_row_acc`] over `xrow`: eight 512-bit
/// accumulators, enough independent FMA chains for two pipes of 4-cycle
/// latency, with one `x` vector and the eight row loads beside them.
const ACC_ROWS: usize = 8;
/// Accumulator lanes per row in [`linear_row_acc`]: one 512-bit vector.
const ACC_LANES: usize = 16;

/// The recurrent matvec: `orow[j] += xrow · w[j]` for every row `j` of `w`
/// (`orow.len()` rows of `kin`), the hidden-state term of the LSTM and GRU
/// gates.
///
/// Each dot is 16 `mul_add` chains over the `kin / 16` full vectors of the
/// row, summed by a fixed halving tree, plus one serial `mul_add` chain
/// over the `kin % 16` trailing elements: the **ulp-bounded contract**
/// against the serial oracle. Rows go eight to a pass over `xrow`; a last
/// pass with fewer real rows repeats its last row and stores nothing for
/// the repeats, so a row's bits do not depend on where the passes fall.
#[inline]
pub fn linear_row_acc(xrow: &[f32], w: &[f32], orow: &mut [f32], kin: usize) {
    let nout = orow.len();
    debug_assert_eq!(w.len(), nout * kin);
    debug_assert_eq!(xrow.len(), kin);
    let (xv, xtail) = xrow.as_chunks::<ACC_LANES>();
    for j in (0..nout).step_by(ACC_ROWS) {
        let real = (nout - j).min(ACC_ROWS);
        let rows: [&[f32]; ACC_ROWS] = std::array::from_fn(|r| {
            let row = j + r.min(real - 1);
            &w[row * kin..(row + 1) * kin]
        });
        let acc = accumulate_rows(xv, rows);
        for ((o, acc), row) in orow[j..j + real].iter_mut().zip(&acc).zip(rows) {
            let mut tail = 0.0f32;
            for (x, w) in xtail.iter().zip(&row[xv.len() * ACC_LANES..]) {
                tail = x.mul_add(*w, tail);
            }
            *o += reduce_halving(acc) + tail;
        }
    }
}

/// The lane accumulators of [`ACC_ROWS`] dot products sharing one pass
/// over the full vectors `xv` of `x`.
///
/// Codegen-fragile, so written for LLVM, which must keep the eight
/// accumulators in vector registers for the whole loop:
/// - eight named rows and accumulators, not arrays indexed by a row loop
///   (indexed, the FMAs went scalar: 3× slower than the unfused loop this
///   replaced);
/// - the accumulators are locals updated by value and copied into the
///   result at the end: as the returned array itself, they were built in
///   the caller's return slot, in memory, and the FMAs went scalar again —
///   only in builds without debug info, such as the benchmark's;
/// - the rows walked by one zipped iterator, so the loop holds no bounds
///   check;
/// - the lane sums left to the caller (summed in here, the SLP vectorizer
///   turned the loop across rows into gathers, 2× slower);
/// - never inlined, like the GEMM tile, so no caller can undo any of it.
///
/// To check a build: `objdump -d` shows 8–24 `vfmadd…ps` on `zmm` in this
/// function and no `vfmadd…ss`. A scalar loop makes the paper-shape LSTM
/// ≈ 3.4× slower (8.4 instead of 2.5 ms).
#[inline(never)]
fn accumulate_rows(
    xv: &[[f32; ACC_LANES]],
    rows: [&[f32]; ACC_ROWS],
) -> [[f32; ACC_LANES]; ACC_ROWS] {
    let w = |r: usize| rows[r].as_chunks::<ACC_LANES>().0.iter();
    let steps = xv
        .iter()
        .zip(w(0).zip(w(1)))
        .zip(w(2).zip(w(3)))
        .zip(w(4).zip(w(5)))
        .zip(w(6).zip(w(7)));
    let zero = [0.0f32; ACC_LANES];
    let (mut a0, mut a1, mut a2, mut a3) = (zero, zero, zero, zero);
    let (mut a4, mut a5, mut a6, mut a7) = (zero, zero, zero, zero);
    for ((((x, (w0, w1)), (w2, w3)), (w4, w5)), (w6, w7)) in steps {
        a0 = fma_lanes(a0, x, w0);
        a1 = fma_lanes(a1, x, w1);
        a2 = fma_lanes(a2, x, w2);
        a3 = fma_lanes(a3, x, w3);
        a4 = fma_lanes(a4, x, w4);
        a5 = fma_lanes(a5, x, w5);
        a6 = fma_lanes(a6, x, w6);
        a7 = fma_lanes(a7, x, w7);
    }
    [a0, a1, a2, a3, a4, a5, a6, a7]
}

/// `acc[l] + x[l]·w[l]`, one rounding per lane.
#[inline(always)]
fn fma_lanes(
    acc: [f32; ACC_LANES],
    x: &[f32; ACC_LANES],
    w: &[f32; ACC_LANES],
) -> [f32; ACC_LANES] {
    std::array::from_fn(|l| x[l].mul_add(w[l], acc[l]))
}

/// Fixed pairwise sum of [`ACC_LANES`] lanes by halving: lane `l` plus lane
/// `l + 8`, then `l + 4`, `l + 2`, `l + 1` — each level one vector shuffle
/// and add.
#[inline(always)]
fn reduce_halving(acc: &[f32; ACC_LANES]) -> f32 {
    let s8: [f32; 8] = std::array::from_fn(|l| acc[l] + acc[l + 8]);
    let s4: [f32; 4] = std::array::from_fn(|l| s8[l] + s8[l + 4]);
    let s2: [f32; 2] = std::array::from_fn(|l| s4[l] + s4[l + 2]);
    s2[0] + s2[1]
}

/// Register-tiled GEMM over a row-major `b`: `c = a @ b` (every element of
/// `c` is written). [`gemm_packed`] with the strip packer for a matrix that
/// already exists in memory.
pub fn gemm_tiled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(b.len(), k * n);
    gemm_packed(a, c, m, k, n, row_major_strips(b, n), |_, _, _| {});
}

/// The strip packer of a row-major matrix `b` with `n` columns.
pub(crate) fn row_major_strips(
    b: &[f32],
    n: usize,
) -> impl Fn(usize, usize, &mut [f32]) + Sync + '_ {
    move |j0, width, strip| {
        for (t, dst) in strip.as_chunks_mut::<NR>().0.iter_mut().enumerate() {
            dst[..width].copy_from_slice(&b[t * n + j0..t * n + j0 + width]);
            dst[width..].fill(0.0);
        }
    }
}

/// The strip packer of the transpose of a row-major matrix `bt` with `k`
/// columns: B's column `j` is `bt`'s row `j`.
pub(crate) fn row_strips(bt: &[f32], k: usize) -> impl Fn(usize, usize, &mut [f32]) + Sync + '_ {
    move |j0, width, strip| {
        let strip = strip.as_chunks_mut::<NR>().0;
        if width < NR {
            strip.iter_mut().for_each(|lanes| lanes.fill(0.0));
        }
        for l in 0..width {
            let row = &bt[(j0 + l) * k..(j0 + l + 1) * k];
            for (lanes, &v) in strip.iter_mut().zip(row) {
                lanes[l] = v;
            }
        }
    }
}

/// The GEMM engine: `c = a @ B`, where `a` is `m × k` row-major and B
/// (`k × n`) exists only as the [`NR`]-wide column strips `pack` writes.
///
/// `pack(j0, width, strip)` must fill `strip` (`k × NR`, row-major) with
/// columns `[j0, j0 + width)` of B in lanes `0..width` of every row and zero
/// in the rest: `matmul` copies them out of a row-major matrix, `linear`
/// gathers them from the rows of `x` ([`row_strips`]), `conv2d` straight
/// from the image. Each strip is packed once per
/// GEMM: by the one chunk that sweeps it, or — when the rows are cut too, so
/// that chunks share strips, and the region is large enough to fork — all
/// strips up front, in parallel, into one buffer every chunk reads. A tail
/// strip (`width < NR`) runs the same loop on its zero padding and stores
/// only its `width` real columns; the [`MR_NARROW`]×[`NR_NARROW`] tile
/// sweeps strips that are at least half padding.
///
/// `finish(i, j0, row)` runs on each chunk's part of C's row `i` (columns
/// `[j0, j0 + row.len())`) right after the chunk's last tile, on the thread
/// that ran the chunk: the place for a per-element epilogue, while the rows
/// are still in cache.
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
    finish: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    use rayon::prelude::*;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if n == 0 || m == 0 {
        return;
    }
    let strips = n.div_ceil(NR);
    let (rows, per_panel) = chunk_shape(m, strips);
    let work = m * k * packed_columns(n);
    fork_if_worthwhile(work, || {
        if rows < m && work >= FORK_MIN_WORK {
            with_scratch(strips * k * NR, |packed| {
                packed
                    .par_chunks_mut(k * NR)
                    .enumerate()
                    .for_each(|(s, strip)| pack(s * NR, (n - s * NR).min(NR), strip));
                let packed = packed.as_chunks::<NR>().0;
                c.par_tiles_mut(n, rows, per_panel * NR)
                    .for_each(|(i0, j0, mut cblk)| {
                        let arows = &a[i0 * k..(i0 + cblk.rows()) * k];
                        for dj in (0..cblk.cols()).step_by(NR) {
                            let (s, width) = ((j0 + dj) / NR, (cblk.cols() - dj).min(NR));
                            let strip = &packed[s * k..(s + 1) * k];
                            sweep(arows, strip, &mut cblk, k, width, &[(0, width, dj)]);
                        }
                        finish_rows(&mut cblk, i0, j0, &finish);
                    });
            });
        } else {
            c.par_tiles_mut(n, rows, per_panel * NR)
                .for_each(|(i0, j0, mut cblk)| {
                    let arows = &a[i0 * k..(i0 + cblk.rows()) * k];
                    with_scratch(k * NR, |strip| {
                        for dj in (0..cblk.cols()).step_by(NR) {
                            let width = (cblk.cols() - dj).min(NR);
                            pack(j0 + dj, width, strip);
                            let strip = strip.as_chunks::<NR>().0;
                            sweep(arows, strip, &mut cblk, k, width, &[(0, width, dj)]);
                        }
                    });
                    finish_rows(&mut cblk, i0, j0, &finish);
                });
        }
    });
}

/// B read in place from a pitched image, so nothing is packed: B's row `t`
/// at pitched column `q` is `image[offsets[t] + q]`. Pitched column
/// `q = y·pitch + x` is C's column `y·width + x` when `x < width`; the
/// `pitch − width` other columns of each row are computed and dropped. So
/// any [`NR`] consecutive pitched columns of a row of B are one slice of the
/// image, even across C's rows. `image` must extend `NR` floats past the
/// last real column any row of B reads.
pub(crate) struct Pitched<'a> {
    pub image: &'a [f32],
    pub offsets: &'a [usize],
    pub pitch: usize,
    pub width: usize,
}

/// A store of a strip's lanes: `(first lane, lanes, first column of the
/// chunk's C window)`.
type Run = (usize, usize, usize);

/// The pitched column of C's column `j` for rows `pitch` apart holding
/// `width` real columns each.
fn pitched_column(pitch: usize, width: usize, j: usize) -> usize {
    j / width * pitch + j % width
}

/// Rows and C columns of a [`gemm_pitched`] chunk over `n` columns of C,
/// rows as for packed strips counted over the pitched span. Of two cuts of
/// C into column panels, the one that sweeps fewer tile columns: evenly,
/// or each panel as wide as its whole strips hold wherever it starts (`c`
/// columns cross at most `⌈c / width⌉` row ends, each followed by
/// `pitch − width` junk columns). Even cuts leave each panel's last strip
/// half empty on average (a 55×55 map at width 2: 104 strips); fitted ones
/// sweep 99, but on a map of one or two strips a fitted cut adds a panel.
fn pitched_panels(pitch: usize, width: usize, m: usize, n: usize) -> (usize, usize) {
    let strips = (pitched_column(pitch, width, n - 1) + 1).div_ceil(NR);
    let (rows, per_panel) = chunk_shape(m, strips);
    let even = n.div_ceil(strips.div_ceil(per_panel));
    let (room, junk) = (per_panel * NR, pitch - width);
    let mut fitted = room;
    while fitted > 1 && fitted + fitted.div_ceil(width) * junk > room {
        fitted -= 1;
    }
    let cols = [even, fitted]
        .into_iter()
        .min_by_key(|&cols| swept_columns(pitch, width, n, cols))
        .expect("two candidates");
    (rows, cols)
}

/// Tile columns [`gemm_pitched`] sweeps for `n` columns of C with `width`
/// real columns per `pitch`: its panels' pitched spans, in strips, a strip
/// of at most [`NR_NARROW`] lanes counting half. [`packed_columns`] is the
/// same count for [`gemm_packed`]; the difference is the junk a caller weighs
/// against the packing it saves.
pub(crate) fn pitched_columns(pitch: usize, width: usize, n: usize) -> usize {
    let (_, cols) = pitched_panels(pitch, width, 1, n);
    swept_columns(pitch, width, n, cols)
}

/// Tile columns swept by panels of `cols` columns of C.
fn swept_columns(pitch: usize, width: usize, n: usize, cols: usize) -> usize {
    (0..n)
        .step_by(cols)
        .map(|j0| {
            let j1 = (j0 + cols).min(n);
            let span = pitched_column(pitch, width, j1 - 1) + 1 - pitched_column(pitch, width, j0);
            span / NR * NR + swept(span % NR)
        })
        .sum()
}

/// Tile columns [`gemm_packed`] sweeps for `n` columns of C.
pub(crate) fn packed_columns(n: usize) -> usize {
    n / NR * NR + swept(n % NR)
}

/// Lanes a tile computes for a strip of `lanes` real ones.
fn swept(lanes: usize) -> usize {
    match lanes {
        0 => 0,
        1..=NR_NARROW => NR_NARROW,
        _ => NR,
    }
}

impl Pitched<'_> {
    /// Where lanes `0..lanes` of the strip at pitched column `q0` land in a
    /// chunk whose C window starts at column `j0`: its real runs, in lane
    /// order, written to the front of `runs`; returns how many.
    fn runs(&self, q0: usize, lanes: usize, j0: usize, runs: &mut [Run; NR]) -> usize {
        let (end, mut count, mut q) = (q0 + lanes, 0, q0);
        while q < end {
            let (y, x) = (q / self.pitch, q % self.pitch);
            if x < self.width {
                let (lane, len, col) = (
                    q - q0,
                    (self.width - x).min(end - q),
                    y * self.width + x - j0,
                );
                match runs[..count].last_mut() {
                    Some(prev) if prev.0 + prev.1 == lane && prev.2 + prev.1 == col => {
                        prev.1 += len
                    }
                    _ => {
                        runs[count] = (lane, len, col);
                        count += 1;
                    }
                }
            }
            q = (y + 1) * self.pitch;
        }
        count
    }
}

/// [`gemm_packed`] with B read in place from a [`Pitched`] image instead of
/// packed, and the same `finish` hook. Column panels are cut evenly in C
/// and each sweeps the pitched span its columns need, so a panel (and a
/// strip) may start or end mid-row; each strip's lanes are stored run by
/// run, junk lanes skipped. Same exact contract: a junk lane is a chain of
/// its own, and nothing reads it.
pub(crate) fn gemm_pitched(
    a: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    b: &Pitched<'_>,
    finish: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    use rayon::prelude::*;
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(b.offsets.len(), k);
    if n == 0 || m == 0 {
        return;
    }
    let (rows, cols) = pitched_panels(b.pitch, b.width, m, n);
    let work = m * k * pitched_columns(b.pitch, b.width, n);
    fork_if_worthwhile(work, || {
        c.par_tiles_mut(n, rows, cols)
            .for_each(|(i0, j0, mut cblk)| {
                let arows = &a[i0 * k..(i0 + cblk.rows()) * k];
                let first = pitched_column(b.pitch, b.width, j0);
                let end = pitched_column(b.pitch, b.width, j0 + cblk.cols() - 1) + 1;
                let mut runs = [(0, 0, 0); NR];
                for q0 in (first..end).step_by(NR) {
                    let lanes = (end - q0).min(NR);
                    let count = b.runs(q0, lanes, j0, &mut runs);
                    let strip = InPlace {
                        image: b.image,
                        offsets: b.offsets,
                        q0,
                    };
                    sweep(arows, &strip, &mut cblk, k, lanes, &runs[..count]);
                }
                finish_rows(&mut cblk, i0, j0, &finish);
            });
    });
}

/// Rows × strips of a GEMM chunk, for `strips` strips of B. Columns split
/// first, into whole strips: the taller a chunk the more row tiles reuse
/// one strip. Only when the strips are fewer than the [`CHUNKS_PER_THREAD`]
/// chunks per pool thread a region aims for (a 7×7 feature map is two) are
/// the rows cut as well, into whole tiles of either shape.
fn chunk_shape(m: usize, strips: usize) -> (usize, usize) {
    let want = CHUNKS_PER_THREAD * rayon::current_num_threads();
    let per_panel = strips.div_ceil(want);
    let panels = strips.div_ceil(per_panel);
    let row_blocks = want.div_ceil(panels).min(m.div_ceil(MR_NARROW));
    let rows = m.div_ceil(row_blocks).next_multiple_of(MR_NARROW);
    (rows, per_panel)
}

/// `finish` on every row of a chunk's C window.
fn finish_rows(
    cblk: &mut TileMut<'_, f32>,
    i0: usize,
    j0: usize,
    finish: &impl Fn(usize, usize, &mut [f32]),
) {
    for r in 0..cblk.rows() {
        finish(i0 + r, j0, cblk.row_mut(r));
    }
}

/// The rows of one strip of B, as the tile reads them.
trait StripRows {
    /// Lanes `0..NR` of row `t`.
    fn row(&self, t: usize) -> &[f32; NR];
}

/// A packed strip.
impl StripRows for [[f32; NR]] {
    #[inline(always)]
    fn row(&self, t: usize) -> &[f32; NR] {
        &self[t]
    }
}

/// A strip of a [`Pitched`] image, starting at pitched column `q0`.
struct InPlace<'a> {
    image: &'a [f32],
    offsets: &'a [usize],
    q0: usize,
}

impl StripRows for InPlace<'_> {
    #[inline(always)]
    fn row(&self, t: usize) -> &[f32; NR] {
        let at = self.offsets[t] + self.q0;
        self.image[at..at + NR]
            .try_into()
            .expect("a slice of NR floats")
    }
}

/// Every row tile of a chunk against one strip of `lanes` computed lanes,
/// stored through `runs`. A strip of at most [`NR_NARROW`] lanes is swept by
/// the narrow tile.
fn sweep<B: StripRows + ?Sized>(
    arows: &[f32],
    strip: &B,
    cblk: &mut TileMut<'_, f32>,
    k: usize,
    lanes: usize,
    runs: &[Run],
) {
    if lanes > NR_NARROW {
        for di in (0..cblk.rows()).step_by(MR) {
            tile::<MR, NR, B>(arows, strip, cblk, di, k, runs);
        }
    } else {
        for di in (0..cblk.rows()).step_by(MR_NARROW) {
            tile::<MR_NARROW, NR_NARROW, B>(arows, strip, cblk, di, k, runs);
        }
    }
}

/// One `R`×`NC` register tile: chunk rows `di..di + R` (rows of `arows`, `k`
/// apart) against lanes `0..NC` of a strip, accumulators held in
/// `[[f32; NC]; R]` for the entire k loop, then each run of lanes stored at
/// its column of the chunk's C window. Below the chunk's last row the tile
/// runs on a repeat of it and stores nothing — like the lanes no run
/// covers, chains that are computed and dropped, so that one shape of loop
/// serves every edge.
///
/// Never inlined: on its own the k loop gets twelve accumulator registers;
/// merged into the chunk's strip and row loops it was measured a third
/// slower (the same source, 95 vs 140 GFLOP/s on one thread).
#[inline(never)]
#[allow(clippy::needless_range_loop)] // `t` indexes six rows of A and B: one counter
fn tile<const R: usize, const NC: usize, B: StripRows + ?Sized>(
    arows: &[f32],
    strip: &B,
    cblk: &mut TileMut<'_, f32>,
    di: usize,
    k: usize,
    runs: &[Run],
) {
    let real = (cblk.rows() - di).min(R);
    let arows: [&[f32]; R] = std::array::from_fn(|r| {
        let row = di + r.min(real - 1);
        &arows[row * k..(row + 1) * k]
    });
    let mut acc = [[0.0f32; NC]; R];
    for t in 0..k {
        // Copied out as a value: read through the reference, the in-place
        // instances lost the unrolled row loop and went scalar (or worse,
        // gathered), 4–20× slower.
        let brow: [f32; NC] = *strip.row(t).first_chunk().expect("NC <= NR");
        for r in 0..R {
            let av = arows[r][t];
            for l in 0..NC {
                acc[r][l] = av.mul_add(brow[l], acc[r][l]);
            }
        }
    }
    for (r, accrow) in acc[..real].iter().enumerate() {
        let crow = cblk.row_mut(di + r);
        for &(lane, len, col) in runs {
            crow[col..col + len].copy_from_slice(&accrow[lane..lane + len]);
        }
    }
}

/// Grow-only scratch buffers: strips, prepacked B, padded images. A kernel
/// checks one out and returns it, so steady-state inference allocates none.
/// The lists are process-wide rather than per-thread because a chunk runs on
/// whichever thread claims it — a pool worker, or an executor lane that
/// lives for one run — and they never hold more buffers than were in use at
/// once. A buffer comes back holding whatever its last user wrote.
static SCRATCH: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
/// Index tables (a pitched GEMM's row offsets), kept like [`SCRATCH`].
static INDEX_SCRATCH: Mutex<Vec<Vec<usize>>> = Mutex::new(Vec::new());

/// Run `f` on a scratch slice of `len` floats (contents unspecified).
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    borrow(&SCRATCH, len, f)
}

/// Run `f` on a scratch slice of `len` indices (contents unspecified).
pub(crate) fn with_index_scratch<R>(len: usize, f: impl FnOnce(&mut [usize]) -> R) -> R {
    borrow(&INDEX_SCRATCH, len, f)
}

/// Check out the shortest buffer of `list` that holds `len` elements (else
/// the longest, grown), so buffers keep to the sizes they are used at.
fn borrow<T: Copy + Default, R>(
    list: &Mutex<Vec<Vec<T>>>,
    len: usize,
    f: impl FnOnce(&mut [T]) -> R,
) -> R {
    const LOCK: &str = "scratch list: push and pop cannot panic";
    let mut buf = {
        let mut list = list.lock().expect(LOCK);
        let fits = (0..list.len())
            .filter(|&i| list[i].len() >= len)
            .min_by_key(|&i| list[i].len());
        let pick = fits.or_else(|| (0..list.len()).max_by_key(|&i| list[i].len()));
        pick.map(|i| list.swap_remove(i)).unwrap_or_default()
    };
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    let result = f(&mut buf[..len]);
    list.lock().expect(LOCK).push(buf);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

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
