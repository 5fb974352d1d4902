//! Convolution and pooling kernels (NCHW layout).
//!
//! `conv2d` is an implicit GEMM — `weight [c_out, c_in*kh*kw]` times the
//! image's patch matrix B — so the im2col matrix is never materialized. Its
//! FLOP profile is that of im2col + GEMM, the baseline schedule of TVM's CPU
//! backend, which the analytic cost model in `duet-device` prices. B reaches
//! the register tile one of three ways ([`Layout`]):
//!
//! * **Pitched** (most k×k convolutions): the image is zero-padded once per
//!   call into a reused buffer whose rows are `w + 2p` apart, a strided one
//!   split into its `stride²` phase images ([`PhaseImages`]). Then B's row
//!   for one tap is the padded image shifted by one offset, so any 32
//!   consecutive *pitched* pixels of it are one slice, even across output
//!   rows, and the tile reads them in place: nothing is packed. The
//!   `pitch − ow` junk columns of each row are computed and dropped.
//! * **Packed**: where pitching would add more strips than the packing it
//!   saves is worth ([`Layout::of`] says where), each strip is gathered from
//!   the image ([`Conv2dDims::pack_patches`]), once per GEMM.
//! * **Pointwise** (1×1, stride 1, no padding): B is the image itself.
//!
//! The conv bias and the caller's `finish` (the tape's fused epilogue: batch
//! norm, residual add, activation) run inside the GEMM's chunks on the rows
//! they just stored, on whichever thread ran the chunk.
//!
//! The depthwise convolution is the same geometry per channel plane: each
//! plane is a one-channel image ([`depthwise_dims`]), zero-padded once into
//! its phase images, and each tap is one `acc += x·w` pass at the pitch
//! over the whole plane; the junk columns are dropped and `finish` runs on
//! the plane while it is in cache. Like the dense engine, a tap in the
//! padding computes `0·w`.
//!
//! Inference batch norm is one loop, [`batch_norm2d_folded_inplace`] over
//! the per-channel scale and shift [`batch_norm2d_fold`] computes: a fused
//! epilogue runs it on runs of the GEMM's rows, a standalone tape
//! instruction on its slot, and [`batch_norm2d`] on a copy of its input.

use rayon::prelude::*;

use super::elementwise::copied;
use super::micro::{
    fork_if_worthwhile, gemm_packed, gemm_pitched, packed_columns, pitched_columns,
    row_major_strips, with_index_scratch, with_scratch, Pitched, CHUNKS_PER_THREAD, LANE_OP_WORK,
    NR,
};
use crate::{Tensor, TensorError};

/// 2-D convolution. `x: [n, c_in, h, w]`, `weight: [c_out, c_in, kh, kw]`,
/// optional `bias: [c_out]`, symmetric `stride`/`padding`.
pub fn conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let dims = Conv2dDims::new(x.shape().dims(), weight.shape().dims(), stride, padding)?;
    if let Some(b) = bias {
        if b.len() != dims.c_out {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: vec![dims.c_out],
                rhs: b.shape().dims().to_vec(),
            });
        }
    }
    let (oh, ow) = dims.out_hw();
    let mut out = vec![0.0f32; dims.images * dims.c_out * oh * ow];
    let bias = bias.map(Tensor::data);
    conv2d_fused_into(x.data(), weight.data(), bias, dims, &mut out, |_, _| {})?;
    Tensor::from_vec(vec![dims.images, dims.c_out, oh, ow], out)
}

/// [`conv2d`] into a caller-provided buffer (`out` is overwritten; len
/// `n * c_out * oh * ow`). Both entry points run [`conv2d_fused_into`],
/// so the bytes written are identical.
pub fn conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let dims = Conv2dDims::new(x.shape().dims(), weight.shape().dims(), stride, padding)?;
    conv2d_fused_into(
        x.data(),
        weight.data(),
        bias.map(Tensor::data),
        dims,
        out,
        |_, _| {},
    )
}

/// Geometry of a 2-D convolution: `x: [images, c_in, h, w]`,
/// `weight: [c_out, c_in, kh, kw]`, symmetric `stride` and `padding`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dDims {
    pub images: usize,
    pub c_in: usize,
    pub h: usize,
    pub w: usize,
    pub c_out: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub padding: usize,
}

impl Conv2dDims {
    /// The convolution of an input of dims `x` with a weight of dims
    /// `weight`, checked: both rank 4, channels agreeing, `stride >= 1`,
    /// the kernel inside the padded input.
    pub fn new(
        x: &[usize],
        weight: &[usize],
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        let (&[images, c_in, h, w], &[c_out, c_in2, kh, kw]) = (x, weight) else {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                msg: format!("input {x:?} and weight {weight:?} must both be rank 4"),
            });
        };
        if stride == 0 || c_in != c_in2 || h + 2 * padding < kh || w + 2 * padding < kw {
            return Err(TensorError::InvalidArgument {
                op: "conv2d",
                msg: "bad stride, channel or kernel geometry".into(),
            });
        }
        Ok(Conv2dDims {
            images,
            c_in,
            h,
            w,
            c_out,
            kh,
            kw,
            stride,
            padding,
        })
    }

    /// Output height and width.
    pub fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.padding - self.kh) / self.stride + 1,
            (self.w + 2 * self.padding - self.kw) / self.stride + 1,
        )
    }

    /// The im2col index map restricted to output pixels `[p0, p0 + width)`
    /// (flattened `oy * ow + ox`), written in the GEMM's strip layout:
    /// `strip[((ci*kh + ki)*kw + kj) * NR + l] = x[ci][oy*stride + ki - padding][ox*stride + kj - padding]`
    /// for pixel `p0 + l` (zero outside the image and in lanes `width..NR`).
    /// Every element of `strip` is written.
    ///
    /// Each lane's `(oy·stride, ox·stride)` is found once per strip; a tap
    /// `(ki, kj)` reads the same offsets of every channel plane, so its
    /// index arithmetic is done once, into a table of one source offset per
    /// lane, and the channel loop is a lookup through it, or one 32-float
    /// copy where the strip's pixels sit in one image row away from the
    /// border.
    fn pack_patches(&self, x: &[f32], p0: usize, width: usize, strip: &mut [f32]) {
        const OUTSIDE: usize = usize::MAX;
        let (plane, taps, ow) = (self.h * self.w, self.kh * self.kw, self.out_hw().1);
        let rows = strip.as_chunks_mut::<NR>().0;
        debug_assert_eq!(rows.len(), self.c_in * taps);
        let mut corner = [(0, 0); NR];
        for (l, c) in corner[..width].iter_mut().enumerate() {
            *c = ((p0 + l) / ow * self.stride, (p0 + l) % ow * self.stride);
        }
        for tap in 0..taps {
            let (ki, kj) = (tap / self.kw, tap % self.kw);
            // Where in a channel plane each lane reads; `OUTSIDE`, past the
            // end of any plane, where it reads nothing.
            let mut offsets = [OUTSIDE; NR];
            for (offset, &(y, x)) in offsets[..width].iter_mut().zip(&corner) {
                let iy = (y + ki).wrapping_sub(self.padding);
                let ix = (x + kj).wrapping_sub(self.padding);
                if iy < self.h && ix < self.w {
                    *offset = iy * self.w + ix;
                }
            }
            let first = offsets[0];
            let contiguous = first != OUTSIDE && (0..NR).all(|l| offsets[l] == first + l);
            for ci in 0..self.c_in {
                let xplane = &x[ci * plane..(ci + 1) * plane];
                let row = &mut rows[ci * taps + tap];
                if contiguous {
                    row.copy_from_slice(&xplane[first..first + NR]);
                } else {
                    for (d, &offset) in row[..width].iter_mut().zip(&offsets) {
                        *d = xplane.get(offset).copied().unwrap_or(0.0);
                    }
                    row[width..].fill(0.0);
                }
            }
        }
    }
}

/// The convolution the tape runs: [`conv2d`] on raw NCHW slices, then the
/// bias, then `finish(at, seg)` on every finished run `seg` of the output,
/// `at` the flat index of `seg[0]` in `out` (one output channel's pixels of
/// one image, a GEMM chunk's columns). `finish` runs inside the GEMM's
/// chunks, on whichever thread ran the chunk, and sees each output element
/// exactly once, so a per-element epilogue there gives the bits it would
/// give as a pass over `out` afterwards.
pub fn conv2d_fused_into(
    x: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    dims: Conv2dDims,
    out: &mut [f32],
    finish: impl Fn(usize, &mut [f32]) + Sync,
) -> Result<(), TensorError> {
    conv2d_laid_out(x, weight, bias, dims, Layout::of(&dims), out, finish)
}

/// [`conv2d_fused_into`] with B reached through `layout`.
fn conv2d_laid_out(
    x: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    d: Conv2dDims,
    layout: Layout,
    out: &mut [f32],
    finish: impl Fn(usize, &mut [f32]) + Sync,
) -> Result<(), TensorError> {
    let (oh, ow) = d.out_hw();
    let (image, patch, opix) = (d.c_in * d.h * d.w, d.c_in * d.kh * d.kw, oh * ow);
    for (expected, actual) in [
        (d.images * image, x.len()),
        (d.c_out * patch, weight.len()),
        (d.c_out, bias.map_or(d.c_out, <[f32]>::len)),
        (d.images * d.c_out * opix, out.len()),
    ] {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    if out.is_empty() {
        return Ok(());
    }
    let table = if let Layout::Pitched(_) = layout {
        patch
    } else {
        0
    };
    // One GEMM per image: weight [c_out, patch] x B [patch, opix] -> oimg
    // [c_out, opix]. Images split across the pool; within an image the GEMM
    // splits again (a batch-1 conv has one image, so all its parallelism is
    // inside). No zero-fill pass: the GEMM writes every output element.
    fork_if_worthwhile(
        d.images * d.c_out * patch * opix.next_multiple_of(NR),
        || {
            with_index_scratch(table, |offsets| {
                if let Layout::Pitched(phases) = &layout {
                    phases.offsets(&d, offsets);
                }
                let offsets = &*offsets;
                out.par_chunks_mut(d.c_out * opix)
                    .enumerate()
                    .for_each(|(img, oimg)| {
                        let ximg = &x[img * image..(img + 1) * image];
                        let finish = |co: usize, j0: usize, seg: &mut [f32]| {
                            if let Some(b) = bias {
                                let bv = b[co];
                                for v in seg.iter_mut() {
                                    *v += bv;
                                }
                            }
                            finish((img * d.c_out + co) * opix + j0, seg);
                        };
                        match &layout {
                            Layout::Pointwise => {
                                let pack = row_major_strips(ximg, opix);
                                gemm_packed(weight, oimg, d.c_out, patch, opix, pack, finish);
                            }
                            Layout::Packed => {
                                let pack = |p0, width, strip: &mut [f32]| {
                                    d.pack_patches(ximg, p0, width, strip)
                                };
                                gemm_packed(weight, oimg, d.c_out, patch, opix, pack, finish);
                            }
                            Layout::Pitched(phases) => with_scratch(phases.len(d.c_in), |padded| {
                                phases.fill(&d, ximg, padded);
                                let b = Pitched {
                                    image: padded,
                                    offsets,
                                    pitch: phases.pitch,
                                    width: ow,
                                };
                                gemm_pitched(weight, oimg, d.c_out, patch, opix, &b, finish);
                            }),
                        }
                    });
            });
        },
    );
    Ok(())
}

/// How a convolution's GEMM gets its B (see the module docs).
#[derive(Debug, Clone, Copy)]
enum Layout {
    Pointwise,
    Packed,
    Pitched(PhaseImages),
}

impl Layout {
    /// The rule. Pitched needs two things:
    /// - enough taps per copied float: at least four per image float, so
    ///   `kh·kw ≥ 4·stride²`. A 3×3 stride-1 conv reads each padded float
    ///   for nine taps, the 7×7/2 stem for twelve; a 3×3/2 conv for two
    ///   and a quarter, and its phase images cost about as much as packing
    ///   saves while their in-place reads hop between four planes — measured
    ///   13–27 % slower than packed on the ResNet-18 shapes (64→128 at 28×28
    ///   down to 256→512 at 7×7), and the 1×1/2 shortcut 25 %.
    /// - junk columns that cost the tile at most a quarter more columns than
    ///   packing would sweep (a strip of at most 16 lanes counts half). A
    ///   3×3 stride-1 conv at 55×55 sweeps 4 % more, at 28×28 6–10 % more,
    ///   at 14×14 8 %, at 7×7 and 2×2 as many, and runs 1–34 % faster than
    ///   packed on two threads (interleaved, best of 40); at 4×4 it sweeps
    ///   twice as many (a wide tile for a narrow one) and ties, so it stays
    ///   packed.
    fn of(d: &Conv2dDims) -> Layout {
        if d.kh == 1 && d.kw == 1 && d.stride == 1 && d.padding == 0 {
            return Layout::Pointwise;
        }
        if d.kh * d.kw < 4 * d.stride * d.stride {
            return Layout::Packed;
        }
        let phases = PhaseImages::new(d);
        let (oh, ow) = d.out_hw();
        let pitched = pitched_columns(phases.pitch, ow, oh * ow);
        if 4 * pitched <= 5 * packed_columns(oh * ow) {
            Layout::Pitched(phases)
        } else {
            Layout::Packed
        }
    }
}

/// The zero-padded image split into its stride phases: phase `(a, b)` holds
/// padded pixel `(y·s + a, x·s + b)` at `(y, x)`, in `c_in` planes of
/// `rows × pitch`, and the phases no tap reads (`a >= kh` or `b >= kw`) are
/// left out. Tap `(ki, kj)` of output pixel `(oy, ox)` is phase
/// `(ki mod s, kj mod s)` at `(oy + ki / s, ox + kj / s)`, so B's row for
/// tap `(ci, ki, kj)` at pitched column `oy·pitch + ox` is one offset into
/// the planes, the same for every pixel. At stride 1 there is one phase, the
/// padded image itself.
#[derive(Debug, Clone, Copy)]
struct PhaseImages {
    phases_y: usize,
    phases_x: usize,
    rows: usize,
    pitch: usize,
}

impl PhaseImages {
    fn new(d: &Conv2dDims) -> Self {
        let s = d.stride;
        PhaseImages {
            phases_y: s.min(d.kh),
            phases_x: s.min(d.kw),
            rows: (d.h + 2 * d.padding).div_ceil(s),
            pitch: (d.w + 2 * d.padding).div_ceil(s),
        }
    }

    /// Floats of the buffer: the planes, then `NR` of slack, which a strip
    /// whose last real lane is the last pixel reads past it.
    fn len(&self, c_in: usize) -> usize {
        self.phases_y * self.phases_x * c_in * self.rows * self.pitch + NR
    }

    /// B's row offsets, in the weight's `(ci, ki, kj)` order.
    fn offsets(&self, d: &Conv2dDims, offsets: &mut [usize]) {
        let s = d.stride;
        let mut t = 0;
        for ci in 0..d.c_in {
            for ki in 0..d.kh {
                for kj in 0..d.kw {
                    let phase = (ki % s) * self.phases_x + kj % s;
                    let row = (phase * d.c_in + ci) * self.rows + ki / s;
                    offsets[t] = row * self.pitch + kj / s;
                    t += 1;
                }
            }
        }
    }

    /// Write every float of `padded` (`len` of them) from image `x`.
    fn fill(&self, d: &Conv2dDims, x: &[f32], padded: &mut [f32]) {
        let (s, p, plane) = (d.stride, d.padding, d.h * d.w);
        let (planes, slack) = padded.split_at_mut(padded.len() - NR);
        slack.fill(0.0);
        let mut rows = planes.chunks_exact_mut(self.pitch);
        for a in 0..self.phases_y {
            for b in 0..self.phases_x {
                // Columns `lo..hi` of this phase fall inside the image.
                let lo = p.saturating_sub(b).div_ceil(s).min(self.pitch);
                let hi = (d.w + p)
                    .saturating_sub(b)
                    .div_ceil(s)
                    .clamp(lo, self.pitch);
                for ci in 0..d.c_in {
                    let xplane = &x[ci * plane..(ci + 1) * plane];
                    for y in 0..self.rows {
                        let dst = rows.next().expect("one row per phase, channel and y");
                        let iy = (y * s + a).wrapping_sub(p);
                        if iy >= d.h {
                            dst.fill(0.0);
                            continue;
                        }
                        let src = &xplane[iy * d.w..(iy + 1) * d.w];
                        dst[..lo].fill(0.0);
                        dst[hi..].fill(0.0);
                        let (dst, src) = (&mut dst[lo..hi], &src[lo * s + b - p..]);
                        match s {
                            1 => dst.copy_from_slice(&src[..dst.len()]),
                            2 => every::<2>(dst, src),
                            _ => {
                                for (o, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                                    *o = v;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `dst[i] = src[i·S]`, written so that it vectorizes.
#[inline(always)]
fn every<const S: usize>(dst: &mut [f32], src: &[f32]) {
    let (whole, _) = src.as_chunks::<S>();
    let full = whole.len().min(dst.len());
    for (o, pair) in dst[..full].iter_mut().zip(whole) {
        *o = pair[0];
    }
    for (i, o) in dst.iter_mut().enumerate().skip(full) {
        *o = src[i * S];
    }
}

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

/// Check a pooling window over NCHW dims `x`; returns `(oh, ow)`.
pub fn pool_dims(
    op: &'static str,
    x: &[usize],
    window: usize,
    stride: usize,
) -> Result<(usize, usize), TensorError> {
    let &[_, _, h, w] = x else {
        return Err(TensorError::InvalidArgument {
            op,
            msg: format!("input {x:?} must be rank 4"),
        });
    };
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            msg: "window/stride must be >= 1".into(),
        });
    }
    if h < window || w < window {
        return Err(TensorError::InvalidArgument {
            op,
            msg: format!("window {window} larger than input {h}x{w}"),
        });
    }
    Ok(((h - window) / stride + 1, (w - window) / stride + 1))
}

/// Pooling into `out` (`n·c·oh·ow` floats): each output starts at `init`,
/// takes its window's taps in (ky, kx) order through `reduce`, then
/// `finish`.
#[allow(clippy::too_many_arguments)]
fn pool2d_into(
    op: &'static str,
    x: &[f32],
    dims: &[usize],
    window: usize,
    stride: usize,
    out: &mut [f32],
    reduce: impl Fn(f32, f32) -> f32 + Copy + Sync,
    init: f32,
    finish: impl Fn(f32) -> f32 + Sync,
) -> Result<(), TensorError> {
    let (oh, ow) = pool_dims(op, dims, window, stride)?;
    let (h, w) = (dims[2], dims[3]);
    let planes = dims[0] * dims[1];
    for (expected, actual) in [(planes * h * w, x.len()), (planes * oh * ow, out.len())] {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    if out.is_empty() {
        return Ok(());
    }
    // Window rows outermost, so the inner loop is a running reduction along
    // one output row over a strided input row, specialised by stride so that
    // it vectorizes; each output still takes its taps in (ky, kx) order.
    fork_if_worthwhile(out.len() * window * window * LANE_OP_WORK, || {
        out.par_chunks_mut(oh * ow)
            .enumerate()
            .for_each(|(plane, oplane)| {
                let xplane = &x[plane * h * w..(plane + 1) * h * w];
                for (oy, orow) in oplane.chunks_mut(ow).enumerate() {
                    orow.fill(init);
                    for ky in 0..window {
                        let xrow = &xplane[(oy * stride + ky) * w..][..w];
                        for kx in 0..window {
                            match stride {
                                1 => reduce_row::<1>(orow, &xrow[kx..], reduce),
                                2 => reduce_row::<2>(orow, &xrow[kx..], reduce),
                                _ => {
                                    let taps = xrow[kx..].iter().step_by(stride);
                                    for (acc, &v) in orow.iter_mut().zip(taps) {
                                        *acc = reduce(*acc, v);
                                    }
                                }
                            }
                        }
                    }
                    for acc in orow.iter_mut() {
                        *acc = finish(*acc);
                    }
                }
            });
    });
    Ok(())
}

/// `acc[o] = reduce(acc[o], taps[o·S])` for every output `o` of a row.
#[inline(always)]
fn reduce_row<const S: usize>(acc: &mut [f32], taps: &[f32], reduce: impl Fn(f32, f32) -> f32) {
    let (whole, _) = taps.as_chunks::<S>();
    let full = whole.len().min(acc.len());
    for (a, tap) in acc[..full].iter_mut().zip(whole) {
        *a = reduce(*a, tap[0]);
    }
    for (o, a) in acc.iter_mut().enumerate().skip(full) {
        *a = reduce(*a, taps[o * S]);
    }
}

/// Max-pool with square window.
pub fn max_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    let (oh, ow) = pool_dims("max_pool2d", x.shape().dims(), window, stride)?;
    let (n, c, _, _) = dims4(x);
    let mut out = vec![0.0f32; n * c * oh * ow];
    max_pool2d_into(x.data(), x.shape().dims(), window, stride, &mut out)?;
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// [`max_pool2d`] of an NCHW input with dims `dims` into `out`: each
/// output is `f32::max` over its window from `-inf`, taps in (ky, kx) order.
pub fn max_pool2d_into(
    x: &[f32],
    dims: &[usize],
    window: usize,
    stride: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let max = |a: f32, v: f32| a.max(v);
    pool2d_into(
        "max_pool2d",
        x,
        dims,
        window,
        stride,
        out,
        max,
        f32::NEG_INFINITY,
        |a| a,
    )
}

/// Average-pool with square window.
pub fn avg_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    let (oh, ow) = pool_dims("avg_pool2d", x.shape().dims(), window, stride)?;
    let (n, c, _, _) = dims4(x);
    let mut out = vec![0.0f32; n * c * oh * ow];
    avg_pool2d_into(x.data(), x.shape().dims(), window, stride, &mut out)?;
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// [`avg_pool2d`] of an NCHW input with dims `dims` into `out`: each
/// output is its window's sum from `0.0`, taps in (ky, kx) order, divided by
/// the window's area.
pub fn avg_pool2d_into(
    x: &[f32],
    dims: &[usize],
    window: usize,
    stride: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let area = (window * window) as f32;
    let add = |a: f32, v: f32| a + v;
    pool2d_into("avg_pool2d", x, dims, window, stride, out, add, 0.0, |a| {
        a / area
    })
}

/// Global average pool: `[n, c, h, w]` → `[n, c]`.
pub fn global_avg_pool2d(x: &Tensor) -> Result<Tensor, TensorError> {
    x.shape().expect_rank("global_avg_pool2d", 4)?;
    let (n, c, h, w) = dims4(x);
    if h * w == 0 {
        return Err(TensorError::InvalidArgument {
            op: "global_avg_pool2d",
            msg: "spatial dims must be non-empty".into(),
        });
    }
    let plane = h * w;
    let data: Vec<f32> = x
        .data()
        .chunks(plane)
        .map(|p| p.iter().sum::<f32>() / plane as f32)
        .collect();
    Tensor::from_vec(vec![n, c], data)
}

/// Depthwise 2-D convolution: each input channel is convolved with its
/// own single filter. `x: [n, c, h, w]`, `weight: [c, 1, kh, kw]`,
/// optional `bias: [c]`. The building block of MobileNet-style networks.
pub fn depthwise_conv2d(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    let dims = depthwise_dims(x.shape().dims(), weight.shape().dims(), stride, padding)?;
    let (oh, ow) = dims.out_hw();
    let mut out = vec![0.0f32; dims.images * oh * ow];
    let bias = bias.map(Tensor::data);
    depthwise_fused_into(x.data(), weight.data(), bias, dims, &mut out, |_, _| {})?;
    Tensor::from_vec(vec![x.shape().dim(0), dims.c_out, oh, ow], out)
}

/// The geometry of a depthwise convolution of `x: [n, c, h, w]` with
/// `weight: [c, 1, kh, kw]`: the `n·c` channel planes as one-channel
/// images (`images`), plane `p` convolved with filter `p mod c` (`c_out`
/// filters). The weight's layout is checked here, the rest by
/// [`Conv2dDims::new`].
pub fn depthwise_dims(
    x: &[usize],
    weight: &[usize],
    stride: usize,
    padding: usize,
) -> Result<Conv2dDims, TensorError> {
    match (x, weight) {
        (&[n, c, h, w], &[filters, 1, _, _]) if filters == c => {
            Conv2dDims::new(&[n * c, 1, h, w], weight, stride, padding)
        }
        _ => Err(TensorError::ShapeMismatch {
            op: "depthwise_conv2d",
            lhs: x.to_vec(),
            rhs: weight.to_vec(),
        }),
    }
}

/// The depthwise convolution the tape runs, on raw NCHW slices with the
/// geometry of [`depthwise_dims`], then `finish(at, plane)` on each output
/// plane, `at` the flat index of `plane[0]` in `out`, while the plane is
/// still in cache. Each input plane is zero-padded once into its
/// [`PhaseImages`] and its output computed at their pitch: bias first, then
/// per tap in (ky, kx) order one `acc += x·w` pass (unfused) over the whole
/// plane, so a tap outside the image adds `0·w`. The `pitch − ow` junk
/// columns are dropped. Planes split across the pool.
pub fn depthwise_fused_into(
    x: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    d: Conv2dDims,
    out: &mut [f32],
    finish: impl Fn(usize, &mut [f32]) + Sync,
) -> Result<(), TensorError> {
    let (oh, ow) = d.out_hw();
    let (plane, taps, opix) = (d.h * d.w, d.kh * d.kw, oh * ow);
    for (expected, actual) in [
        (d.images * plane, x.len()),
        (d.c_out * taps, weight.len()),
        (d.c_out, bias.map_or(d.c_out, <[f32]>::len)),
        (d.images * opix, out.len()),
    ] {
        if expected != actual {
            return Err(TensorError::LengthMismatch { expected, actual });
        }
    }
    if out.is_empty() {
        return Ok(());
    }
    let phases = PhaseImages::new(&d);
    let padded_len = phases.len(1);
    // Pitched outputs up to the last real one: every tap of each reads
    // inside the planes.
    let span = (oh - 1) * phases.pitch + ow;
    // Runs of planes, so that a chunk borrows its scratch once: one plane
    // per chunk measured 12–21 % slower on MobileNet's 7×7 and 14×14 layers.
    let chunks = CHUNKS_PER_THREAD * rayon::current_num_threads();
    let per_chunk = d.images.div_ceil(chunks);
    fork_if_worthwhile(out.len() * taps * LANE_OP_WORK, || {
        with_index_scratch(taps, |offsets| {
            phases.offsets(&d, offsets);
            let offsets = &*offsets;
            out.par_chunks_mut(per_chunk * opix)
                .enumerate()
                .for_each(|(chunk, ochunk)| {
                    with_scratch(padded_len + span, |buf| {
                        let (padded, acc) = buf.split_at_mut(padded_len);
                        for (i, oplane) in ochunk.chunks_exact_mut(opix).enumerate() {
                            let p = chunk * per_chunk + i;
                            let ci = p % d.c_out;
                            phases.fill(&d, &x[p * plane..(p + 1) * plane], padded);
                            acc.fill(bias.map_or(0.0, |b| b[ci]));
                            for (&offset, &wv) in offsets.iter().zip(&weight[ci * taps..]) {
                                for (a, &v) in acc.iter_mut().zip(&padded[offset..]) {
                                    *a += v * wv;
                                }
                            }
                            for (orow, arow) in
                                oplane.chunks_exact_mut(ow).zip(acc.chunks(phases.pitch))
                            {
                                orow.copy_from_slice(&arow[..ow]);
                            }
                            finish(p * opix, oplane);
                        }
                    })
                });
        })
    });
    Ok(())
}

/// Inference-mode batch norm over NCHW input with per-channel statistics.
///
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`, all params `[c]`:
/// [`batch_norm2d_fold`], then [`batch_norm2d_folded_inplace`] on a copy of
/// `x`, the loop a fused tape epilogue runs.
pub fn batch_norm2d(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<Tensor, TensorError> {
    x.shape().expect_rank("batch_norm2d", 4)?;
    let (_, c, h, w) = dims4(x);
    for p in [gamma, beta, mean, var] {
        p.shape().expect_rank("batch_norm2d", 1)?;
        if p.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm2d",
                lhs: x.shape().dims().to_vec(),
                rhs: p.shape().dims().to_vec(),
            });
        }
    }
    let (scale, shift) = batch_norm2d_fold(gamma.data(), beta.data(), mean.data(), var.data(), eps);
    Ok(copied(x, |buf| {
        batch_norm2d_folded_inplace(buf, 0, h * w, &scale, &shift)
    }))
}

/// Inference batch norm's per-channel `(scale, shift)`, with the
/// expressions every batch-norm kernel here uses: `scale = g / (v +
/// eps).sqrt()`, `shift = b − m·scale`, for [`batch_norm2d_folded_inplace`].
pub fn batch_norm2d_fold(
    gamma: &[f32],
    beta: &[f32],
    mean: &[f32],
    var: &[f32],
    eps: f32,
) -> (Vec<f32>, Vec<f32>) {
    let scale: Vec<f32> = gamma
        .iter()
        .zip(var)
        .map(|(g, v)| g / (v + eps).sqrt())
        .collect();
    let shift = beta
        .iter()
        .zip(mean)
        .zip(&scale)
        .map(|((b, m), s)| b - m * s)
        .collect();
    (scale, shift)
}

/// Batch norm with folded parameters on a run of an NCHW buffer in place:
/// `buf[j]` is element `at + j` of a buffer of `plane`-float channel planes,
/// `scale.len()` channels per image, and becomes `x·scale + shift` of its
/// channel.
pub fn batch_norm2d_folded_inplace(
    buf: &mut [f32],
    at: usize,
    plane: usize,
    scale: &[f32],
    shift: &[f32],
) {
    let mut j = 0;
    while j < buf.len() {
        let flat = at + j;
        let ch = flat / plane % scale.len();
        let end = (j + plane - flat % plane).min(buf.len());
        let (s, t) = (scale[ch], shift[ch]);
        for v in &mut buf[j..end] {
            *v = *v * s + t;
        }
        j = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::reference;

    #[test]
    fn conv2d_bit_identical_to_naive() {
        // Output rows of 7, 14, 28 and 56 pixels, none a divisor of the
        // strip width, so strips start mid-row and span up to five rows;
        // stride 1 and 2, padding 0, 1 and 3, the strided and the plain 1x1,
        // two images; channel counts that leave row-tile and k tails.
        // (images, c_in, c_out, h = w, kernel, stride, padding)
        for &(n, c_in, c_out, hw, k, stride, padding) in &[
            (1usize, 5usize, 7usize, 7usize, 3usize, 1usize, 1usize),
            (1, 3, 13, 14, 3, 1, 1),
            (2, 3, 7, 28, 3, 1, 1),
            (1, 2, 5, 56, 3, 1, 1),
            (1, 4, 9, 9, 3, 1, 0),
            (2, 5, 7, 14, 3, 2, 1),
            (1, 3, 8, 27, 7, 2, 3),
            (1, 6, 14, 14, 1, 2, 0),
            (1, 6, 14, 7, 1, 1, 0),
            (1, 3, 4, 8, 3, 2, 0),
        ] {
            let x = Tensor::randn(vec![n, c_in, hw, hw], 1.0, 1);
            let w = Tensor::randn(vec![c_out, c_in, k, k], 1.0, 2);
            let fast = conv2d(&x, &w, None, stride, padding).unwrap();
            let slow = reference::conv2d(&x, &w, None, stride, padding);
            assert_eq!(fast.shape(), slow.shape());
            for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    s.to_bits(),
                    "{c_in}->{c_out} {hw}x{hw} k{k} s{stride} p{padding} at {i}: {f} vs {s}"
                );
            }
        }
        // A +inf corner tap over an image in [1, 2]: the 7 outputs whose
        // corner tap falls in the padding compute 0·inf = NaN, the rest +inf.
        let x = Tensor::rand_uniform(vec![1, 1, 4, 4], 1.0, 2.0, 3);
        let mut w = vec![0.5f32; 9];
        w[0] = f32::INFINITY;
        let w = Tensor::from_vec(vec![1, 1, 3, 3], w).unwrap();
        let fast = conv2d(&x, &w, None, 1, 1).unwrap();
        let slow = reference::conv2d(&x, &w, None, 1, 1);
        assert_eq!(fast.data().iter().filter(|v| v.is_nan()).count(), 7);
        for (i, (f, s)) in fast.data().iter().zip(slow.data()).enumerate() {
            assert_eq!(
                f.to_bits(),
                s.to_bits(),
                "+inf corner tap at {i}: {f} vs {s}"
            );
        }
    }

    /// Both ways to B — pitched phase images read in place, packed strips —
    /// on the same shapes, whichever the rule picks: bit-identical to each
    /// other and to the oracle, with regions on the pool and inline. Maps of
    /// 2, 7, 14 and 55 (and the 112 of the stem), strides 1 and 2, paddings
    /// 0, 1 and 3, kernels 1, 3 and 7, two images, a bias.
    #[test]
    fn pitched_and_packed_layouts_are_bit_identical() {
        // (images, c_in, c_out, h = w, kernel, stride, padding)
        for &(n, c_in, c_out, hw, k, stride, padding) in &[
            (1usize, 16usize, 24usize, 55usize, 3usize, 1usize, 1usize),
            (1, 3, 16, 224, 7, 2, 3),
            (2, 8, 12, 14, 3, 1, 1),
            (2, 8, 12, 14, 3, 2, 1),
            (1, 8, 16, 9, 3, 1, 0),
            (2, 16, 16, 2, 3, 1, 1),
            (1, 6, 8, 14, 7, 1, 3),
            (1, 12, 20, 14, 1, 2, 0),
            (1, 5, 7, 4, 3, 1, 1),
            (2, 3, 5, 13, 3, 2, 0),
        ] {
            let what = format!("n{n} {c_in}->{c_out} {hw}x{hw} k{k} s{stride} p{padding}");
            let x = Tensor::randn(vec![n, c_in, hw, hw], 1.0, 31);
            let w = Tensor::randn(vec![c_out, c_in, k, k], 0.3, 32);
            let b = Tensor::randn(vec![c_out], 0.3, 33);
            let d = Conv2dDims::new(x.shape().dims(), w.shape().dims(), stride, padding).unwrap();
            let want = reference::conv2d(&x, &w, Some(&b), stride, padding);
            for layout in [Layout::Packed, Layout::Pitched(PhaseImages::new(&d))] {
                let name = match layout {
                    Layout::Packed => "packed",
                    _ => "pitched",
                };
                let run = || {
                    let mut out = vec![f32::NAN; want.len()];
                    conv2d_laid_out(
                        x.data(),
                        w.data(),
                        Some(b.data()),
                        d,
                        layout,
                        &mut out,
                        |_, _| {},
                    )
                    .unwrap();
                    out
                };
                for (side, got) in [("pool", run()), ("inline", rayon::inline_scope(run))] {
                    for (i, (g, r)) in got.iter().zip(want.data()).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            r.to_bits(),
                            "{what} {name} {side} at {i}: {g} vs {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv2d_output_shape() {
        let x = Tensor::zeros(vec![1, 3, 224, 224]);
        let w = Tensor::zeros(vec![64, 3, 7, 7]);
        let y = conv2d(&x, &w, None, 2, 3).unwrap();
        assert_eq!(y.shape().dims(), &[1, 64, 112, 112]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::ones(vec![1, 1, 3, 3]);
        let w = Tensor::zeros(vec![2, 1, 1, 1]);
        let b = Tensor::from_vec(vec![2], vec![1.0, -1.0]).unwrap();
        let y = conv2d(&x, &w, Some(&b), 1, 0).unwrap();
        assert!(y.data()[..9].iter().all(|&v| v == 1.0));
        assert!(y.data()[9..].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn conv2d_rejects_bad_inputs() {
        let x = Tensor::zeros(vec![1, 3, 8, 8]);
        let w_bad_cin = Tensor::zeros(vec![4, 2, 3, 3]);
        assert!(conv2d(&x, &w_bad_cin, None, 1, 1).is_err());
        let w = Tensor::zeros(vec![4, 3, 3, 3]);
        assert!(conv2d(&x, &w, None, 0, 1).is_err());
        let w_huge = Tensor::zeros(vec![4, 3, 20, 20]);
        assert!(conv2d(&x, &w_huge, None, 1, 0).is_err());
    }

    #[test]
    fn max_pool_takes_window_max() {
        let x = Tensor::from_vec(vec![1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let y = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_takes_window_mean() {
        let x = Tensor::ones(vec![1, 2, 4, 4]);
        let y = avg_pool2d(&x, 2, 2).unwrap();
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-7));
    }

    #[test]
    fn pool_rejects_oversized_window() {
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        assert!(max_pool2d(&x, 3, 1).is_err());
        assert!(avg_pool2d(&x, 0, 1).is_err());
    }

    #[test]
    fn global_avg_pool_shape_and_value() {
        let x =
            Tensor::from_vec(vec![1, 2, 2, 2], vec![1., 2., 3., 4., 10., 10., 10., 10.]).unwrap();
        let y = global_avg_pool2d(&x).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn batch_norm_normalises_channel() {
        let x = Tensor::from_vec(vec![1, 1, 1, 4], vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        let y = batch_norm2d(
            &x,
            &Tensor::ones(vec![1]),
            &Tensor::zeros(vec![1]),
            &Tensor::from_vec(vec![1], vec![5.0]).unwrap(),
            &Tensor::from_vec(vec![1], vec![5.0]).unwrap(),
            0.0,
        )
        .unwrap();
        let s = 5.0f32.sqrt();
        let expect = [-3.0 / s, -1.0 / s, 1.0 / s, 3.0 / s];
        for (a, e) in y.data().iter().zip(expect.iter()) {
            assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn depthwise_matches_grouped_naive() {
        // Depthwise conv == standard conv with a block-diagonal kernel.
        let x = Tensor::randn(vec![2, 3, 6, 6], 1.0, 21);
        let wd = Tensor::randn(vec![3, 1, 3, 3], 1.0, 22);
        let got = depthwise_conv2d(&x, &wd, None, 1, 1).unwrap();
        // Build the equivalent full kernel [3, 3, 3, 3] with zeros off the
        // channel diagonal.
        let mut full = vec![0.0f32; 3 * 3 * 3 * 3];
        for c in 0..3 {
            for k in 0..9 {
                full[((c * 3 + c) * 9) + k] = wd.data()[c * 9 + k];
            }
        }
        let wfull = Tensor::from_vec(vec![3, 3, 3, 3], full).unwrap();
        let want = conv2d(&x, &wfull, None, 1, 1).unwrap();
        assert!(got.approx_eq(&want, 1e-4));
    }

    #[test]
    fn depthwise_stride_and_bias() {
        let x = Tensor::ones(vec![1, 2, 4, 4]);
        let w = Tensor::ones(vec![2, 1, 2, 2]);
        let b = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let y = depthwise_conv2d(&x, &w, Some(&b), 2, 0).unwrap();
        assert_eq!(y.shape().dims(), &[1, 2, 2, 2]);
        assert!(y.data()[..4].iter().all(|&v| v == 4.5));
        assert!(y.data()[4..].iter().all(|&v| v == 3.5));
    }

    #[test]
    fn depthwise_rejects_bad_weight_layout() {
        let x = Tensor::zeros(vec![1, 3, 6, 6]);
        let w_wrong_c = Tensor::zeros(vec![2, 1, 3, 3]);
        assert!(depthwise_conv2d(&x, &w_wrong_c, None, 1, 1).is_err());
        let w_not_dw = Tensor::zeros(vec![3, 2, 3, 3]);
        assert!(depthwise_conv2d(&x, &w_not_dw, None, 1, 1).is_err());
    }

    #[test]
    fn batch_norm_rejects_wrong_param_len() {
        let x = Tensor::zeros(vec![1, 3, 2, 2]);
        let ok = Tensor::zeros(vec![3]);
        let bad = Tensor::zeros(vec![2]);
        assert!(batch_norm2d(&x, &bad, &ok, &ok, &ok, 1e-5).is_err());
    }
}
