//! Convolution and pooling kernels (NCHW layout).
//!
//! `conv2d` is an implicit GEMM — `weight [c_out, c_in*kh*kw]` times the
//! image's patch matrix, whose column strips the GEMM engine's chunks pack
//! straight from the image (`Geometry::pack_patches`), so the im2col matrix
//! is never materialized. Its FLOP profile is that of im2col + GEMM, the
//! baseline schedule of TVM's CPU backend, which the analytic cost model in
//! `duet-device` prices.

use rayon::prelude::*;

use super::micro::{fork_if_worthwhile, gemm_packed, gemm_tiled, LANE_OP_WORK, NR};
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
    x.shape().expect_rank("conv2d", 4)?;
    weight.shape().expect_rank("conv2d", 4)?;
    if stride == 0 {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: "stride must be >= 1".into(),
        });
    }
    let (n, c_in, h, w) = dims4(x);
    let (c_out, c_in2, kh, kw) = dims4(weight);
    if c_in != c_in2 {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.shape().dims().to_vec(),
            rhs: weight.shape().dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != c_out {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d",
                lhs: vec![c_out],
                rhs: b.shape().dims().to_vec(),
            });
        }
    }
    if h + 2 * padding < kh || w + 2 * padding < kw {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: format!("kernel {kh}x{kw} larger than padded input {h}x{w}+{padding}"),
        });
    }
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (w + 2 * padding - kw) / stride + 1;
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    conv2d_into(x, weight, bias, stride, padding, &mut out)?;
    Tensor::from_vec(vec![n, c_out, oh, ow], out)
}

/// [`conv2d`] into a caller-provided buffer (`out` is overwritten; len
/// `n * c_out * oh * ow`). The allocating entry point calls this one, so
/// the bytes written are identical.
pub fn conv2d_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
    out: &mut [f32],
) -> Result<(), TensorError> {
    x.shape().expect_rank("conv2d", 4)?;
    weight.shape().expect_rank("conv2d", 4)?;
    let (n, c_in, h, w) = dims4(x);
    let (c_out, c_in2, kh, kw) = dims4(weight);
    if stride == 0 || c_in != c_in2 || h + 2 * padding < kh || w + 2 * padding < kw {
        return Err(TensorError::InvalidArgument {
            op: "conv2d",
            msg: "bad stride, channel or kernel geometry".into(),
        });
    }
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (w + 2 * padding - kw) / stride + 1;
    let xd = x.data();
    let wd = weight.data();
    let bd = bias.map(Tensor::data);

    let patch = c_in * kh * kw;
    let opix = oh * ow;
    if out.len() != n * c_out * opix {
        return Err(TensorError::LengthMismatch {
            expected: n * c_out * opix,
            actual: out.len(),
        });
    }
    // One GEMM per image: weight [c_out, patch] x patches [patch, opix] ->
    // oimg [c_out, opix]. Images split across the pool; within an image the
    // GEMM splits again (a batch-1 conv has one image, so all its
    // parallelism is inside). No zero-fill pass: the GEMM writes every
    // output element.
    let geom = Geometry {
        c_in,
        h,
        w,
        kh,
        kw,
        stride,
        padding,
        ow,
    };
    let pointwise = kh == 1 && kw == 1 && stride == 1 && padding == 0;
    fork_if_worthwhile(n * c_out * patch * opix.next_multiple_of(NR), || {
        out.par_chunks_mut(c_out * opix)
            .enumerate()
            .for_each(|(img, oimg)| {
                let ximg = &xd[img * c_in * h * w..(img + 1) * c_in * h * w];
                if pointwise {
                    // A 1x1 stride-1 conv's patch matrix is the image itself.
                    gemm_tiled(wd, ximg, oimg, c_out, patch, opix);
                } else {
                    gemm_packed(wd, oimg, c_out, patch, opix, |p0, width, strip| {
                        geom.pack_patches(ximg, p0, width, strip)
                    });
                }
                if let Some(b) = bd {
                    for (co, chunk) in oimg.chunks_mut(opix).enumerate() {
                        let bv = b[co];
                        for v in chunk.iter_mut() {
                            *v += bv;
                        }
                    }
                }
            });
    });
    Ok(())
}

/// Shape of one image's convolution, as the strip packer needs it.
struct Geometry {
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    ow: usize,
}

impl Geometry {
    /// The im2col index map restricted to output pixels `[p0, p0 + width)`
    /// (flattened `oy * ow + ox`), written in the GEMM's strip layout:
    /// `strip[((ci*kh + ki)*kw + kj) * NR + l] = x[ci][oy*stride + ki - padding][ox*stride + kj - padding]`
    /// for pixel `p0 + l` (zero outside the image and in lanes `width..NR`).
    /// Every element of `strip` is written.
    ///
    /// A tap `(ki, kj)` reads the same offsets of every channel plane, so
    /// the index arithmetic is done once per tap, into a table of one source
    /// offset per lane; the channel loop is a lookup through it, or one
    /// 32-float copy where the strip's pixels sit in one image row away
    /// from the border.
    fn pack_patches(&self, x: &[f32], p0: usize, width: usize, strip: &mut [f32]) {
        const OUTSIDE: usize = usize::MAX;
        let (plane, taps) = (self.h * self.w, self.kh * self.kw);
        let rows = strip.as_chunks_mut::<NR>().0;
        debug_assert_eq!(rows.len(), self.c_in * taps);
        for tap in 0..taps {
            let (ki, kj) = (tap / self.kw, tap % self.kw);
            // Where in a channel plane each lane reads; `OUTSIDE`, past the
            // end of any plane, where it reads nothing.
            let mut offsets = [OUTSIDE; NR];
            for (l, offset) in offsets[..width].iter_mut().enumerate() {
                let (oy, ox) = ((p0 + l) / self.ow, (p0 + l) % self.ow);
                let iy = (oy * self.stride + ki).wrapping_sub(self.padding);
                let ix = (ox * self.stride + kj).wrapping_sub(self.padding);
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

fn dims4(t: &Tensor) -> (usize, usize, usize, usize) {
    (
        t.shape().dim(0),
        t.shape().dim(1),
        t.shape().dim(2),
        t.shape().dim(3),
    )
}

fn pool2d(
    op: &'static str,
    x: &Tensor,
    window: usize,
    stride: usize,
    reduce: impl Fn(&mut f32, f32) + Sync,
    init: f32,
    finish: impl Fn(f32, usize) -> f32 + Sync,
) -> Result<Tensor, TensorError> {
    x.shape().expect_rank(op, 4)?;
    if window == 0 || stride == 0 {
        return Err(TensorError::InvalidArgument {
            op,
            msg: "window/stride must be >= 1".into(),
        });
    }
    let (n, c, h, w) = dims4(x);
    if h < window || w < window {
        return Err(TensorError::InvalidArgument {
            op,
            msg: format!("window {window} larger than input {h}x{w}"),
        });
    }
    let oh = (h - window) / stride + 1;
    let ow = (w - window) / stride + 1;
    let xd = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    // Window rows outermost, so the inner loop is a running reduction along
    // one output row over a strided input row; each output still takes its
    // taps in (ky, kx) ascending order.
    fork_if_worthwhile(out.len() * window * window * LANE_OP_WORK, || {
        out.par_chunks_mut(oh * ow)
            .enumerate()
            .for_each(|(plane, oplane)| {
                let xplane = &xd[plane * h * w..(plane + 1) * h * w];
                for (oy, orow) in oplane.chunks_mut(ow).enumerate() {
                    orow.fill(init);
                    for ky in 0..window {
                        let xrow = &xplane[(oy * stride + ky) * w..][..w];
                        for kx in 0..window {
                            for (acc, tap) in orow.iter_mut().zip(xrow[kx..].chunks(stride)) {
                                reduce(acc, tap[0]);
                            }
                        }
                    }
                    for acc in orow.iter_mut() {
                        *acc = finish(*acc, window * window);
                    }
                }
            });
    });
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// Max-pool with square window.
pub fn max_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    pool2d(
        "max_pool2d",
        x,
        window,
        stride,
        |a, v| *a = a.max(v),
        f32::NEG_INFINITY,
        |a, _| a,
    )
}

/// Average-pool with square window.
pub fn avg_pool2d(x: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    pool2d(
        "avg_pool2d",
        x,
        window,
        stride,
        |a, v| *a += v,
        0.0,
        |a, n| a / n as f32,
    )
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
    x.shape().expect_rank("depthwise_conv2d", 4)?;
    weight.shape().expect_rank("depthwise_conv2d", 4)?;
    if stride == 0 {
        return Err(TensorError::InvalidArgument {
            op: "depthwise_conv2d",
            msg: "stride must be >= 1".into(),
        });
    }
    let (n, c, h, w) = dims4(x);
    let (cw, one, kh, kw) = dims4(weight);
    if cw != c || one != 1 {
        return Err(TensorError::ShapeMismatch {
            op: "depthwise_conv2d",
            lhs: x.shape().dims().to_vec(),
            rhs: weight.shape().dims().to_vec(),
        });
    }
    if let Some(b) = bias {
        if b.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "depthwise_conv2d",
                lhs: vec![c],
                rhs: b.shape().dims().to_vec(),
            });
        }
    }
    if h + 2 * padding < kh || w + 2 * padding < kw {
        return Err(TensorError::InvalidArgument {
            op: "depthwise_conv2d",
            msg: "kernel larger than padded input".into(),
        });
    }
    let oh = (h + 2 * padding - kh) / stride + 1;
    let ow = (w + 2 * padding - kw) / stride + 1;
    let xd = x.data();
    let wd = weight.data();
    let bd = bias.map(Tensor::data);
    let mut out = vec![0.0f32; n * c * oh * ow];
    // Each (image, channel) plane is independent: parallelise over planes.
    fork_if_worthwhile(out.len() * kh * kw * LANE_OP_WORK, || {
        out.par_chunks_mut(oh * ow)
            .enumerate()
            .for_each(|(plane, oplane)| {
                let ci = plane % c;
                let xplane = &xd[plane * h * w..(plane + 1) * h * w];
                let wplane = &wd[ci * kh * kw..(ci + 1) * kh * kw];
                let bv = bd.map_or(0.0, |b| b[ci]);
                depthwise_plane(
                    xplane, wplane, oplane, h, w, kh, kw, stride, padding, oh, ow, bv,
                );
            });
    });
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// One (image, channel) plane of the depthwise conv.
///
/// The stride-1 interior runs 8 outputs per step with lane accumulators;
/// each output element still accumulates `bias, then taps in (ky, kx)
/// ascending order` — exactly the scalar kernel's chain — so the
/// vectorized path is **bit-identical** to the scalar one (exact
/// contract: independent outputs, no reassociation). Edges and stride > 1
/// take the scalar path.
#[allow(clippy::too_many_arguments)]
fn depthwise_plane(
    x: &[f32],
    wk: &[f32],
    o: &mut [f32],
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    bv: f32,
) {
    const L: usize = 8;
    if stride != 1 {
        for oy in 0..oh {
            depthwise_scalar_span(
                x,
                wk,
                &mut o[oy * ow..(oy + 1) * ow],
                oy,
                0,
                ow,
                h,
                w,
                kh,
                kw,
                stride,
                padding,
                bv,
            );
        }
        return;
    }
    // Interior span where every kx tap is in bounds (stride 1):
    // ox >= padding and ox + kw - 1 - padding < w.
    let ox_lo = padding.min(ow);
    let ox_hi = (w + padding + 1).saturating_sub(kw).min(ow).max(ox_lo);
    for oy in 0..oh {
        let rows_ok = oy >= padding && oy + kh <= h + padding;
        let orow = &mut o[oy * ow..(oy + 1) * ow];
        if !rows_ok {
            depthwise_scalar_span(x, wk, orow, oy, 0, ow, h, w, kh, kw, 1, padding, bv);
            continue;
        }
        let iy0 = oy - padding;
        depthwise_scalar_span(x, wk, orow, oy, 0, ox_lo, h, w, kh, kw, 1, padding, bv);
        let mut ox = ox_lo;
        while ox + L <= ox_hi {
            let mut acc = [bv; L];
            for ky in 0..kh {
                let xrow = &x[(iy0 + ky) * w..(iy0 + ky + 1) * w];
                for kx in 0..kw {
                    let wv = wk[ky * kw + kx];
                    let base = ox + kx - padding;
                    let xs = <&[f32; L]>::try_from(&xrow[base..base + L]).unwrap();
                    for l in 0..L {
                        acc[l] += xs[l] * wv;
                    }
                }
            }
            orow[ox..ox + L].copy_from_slice(&acc);
            ox += L;
        }
        depthwise_scalar_span(x, wk, orow, oy, ox, ow, h, w, kh, kw, 1, padding, bv);
    }
}

/// Scalar depthwise span `[ox0, ox1)` of output row `oy`: bias first, then
/// in-bounds taps in (ky, kx) ascending order.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn depthwise_scalar_span(
    x: &[f32],
    wk: &[f32],
    orow: &mut [f32],
    oy: usize,
    ox0: usize,
    ox1: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    bv: f32,
) {
    for ox in ox0..ox1 {
        let mut acc = bv;
        for ky in 0..kh {
            let iy = (oy * stride + ky) as isize - padding as isize;
            if iy < 0 || iy as usize >= h {
                continue;
            }
            for kx in 0..kw {
                let ix = (ox * stride + kx) as isize - padding as isize;
                if ix < 0 || ix as usize >= w {
                    continue;
                }
                acc += x[iy as usize * w + ix as usize] * wk[ky * kw + kx];
            }
        }
        orow[ox] = acc;
    }
}

/// Inference-mode batch norm over NCHW input with per-channel statistics.
///
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`, all params `[c]`.
pub fn batch_norm2d(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<Tensor, TensorError> {
    x.shape().expect_rank("batch_norm2d", 4)?;
    let (n, c, h, w) = dims4(x);
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
    let plane = h * w;
    let (g, b, m, v) = (gamma.data(), beta.data(), mean.data(), var.data());
    let mut out = vec![0.0f32; x.len()];
    for img in 0..n {
        for ci in 0..c {
            let scale = g[ci] / (v[ci] + eps).sqrt();
            let shift = b[ci] - m[ci] * scale;
            let base = (img * c + ci) * plane;
            for i in 0..plane {
                out[base + i] = x.data()[base + i] * scale + shift;
            }
        }
    }
    Tensor::from_vec(x.shape().clone(), out)
}

/// Validate batch-norm parameter shapes against an NCHW input shape.
/// Returns `(n, c, plane)`.
fn batch_norm2d_check(
    shape: &crate::Shape,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
) -> Result<(usize, usize, usize), TensorError> {
    shape.expect_rank("batch_norm2d", 4)?;
    let (n, c) = (shape.dim(0), shape.dim(1));
    for p in [gamma, beta, mean, var] {
        p.shape().expect_rank("batch_norm2d", 1)?;
        if p.len() != c {
            return Err(TensorError::ShapeMismatch {
                op: "batch_norm2d",
                lhs: shape.dims().to_vec(),
                rhs: p.shape().dims().to_vec(),
            });
        }
    }
    Ok((n, c, shape.dim(2) * shape.dim(3)))
}

/// Writing variant of [`batch_norm2d`]: identical per-channel
/// scale/shift loop, result into a caller-owned buffer.
pub fn batch_norm2d_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
    out: &mut [f32],
) -> Result<(), TensorError> {
    let (n, c, plane) = batch_norm2d_check(x.shape(), gamma, beta, mean, var)?;
    if out.len() != x.len() {
        return Err(TensorError::LengthMismatch {
            expected: x.len(),
            actual: out.len(),
        });
    }
    let (g, b, m, v) = (gamma.data(), beta.data(), mean.data(), var.data());
    for img in 0..n {
        for ci in 0..c {
            let scale = g[ci] / (v[ci] + eps).sqrt();
            let shift = b[ci] - m[ci] * scale;
            let base = (img * c + ci) * plane;
            for i in 0..plane {
                out[base + i] = x.data()[base + i] * scale + shift;
            }
        }
    }
    Ok(())
}

/// In-place variant of [`batch_norm2d`]: `buf` is both the NCHW input
/// and the destination. Elementwise per position, so overwriting is
/// safe — each element is read exactly once, before its write.
pub fn batch_norm2d_inplace(
    buf: &mut [f32],
    shape: &crate::Shape,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Tensor,
    var: &Tensor,
    eps: f32,
) -> Result<(), TensorError> {
    let (n, c, plane) = batch_norm2d_check(shape, gamma, beta, mean, var)?;
    if buf.len() != shape.volume() {
        return Err(TensorError::LengthMismatch {
            expected: shape.volume(),
            actual: buf.len(),
        });
    }
    let (g, b, m, v) = (gamma.data(), beta.data(), mean.data(), var.data());
    for img in 0..n {
        for ci in 0..c {
            let scale = g[ci] / (v[ci] + eps).sqrt();
            let shift = b[ci] - m[ci] * scale;
            let base = (img * c + ci) * plane;
            for i in 0..plane {
                buf[base + i] = buf[base + i] * scale + shift;
            }
        }
    }
    Ok(())
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

    /// The writing and in-place variants must be bit-identical to the
    /// allocating kernel — the tape planner swaps them in freely.
    #[test]
    fn batch_norm_variants_are_bit_identical() {
        let x = Tensor::randn(vec![2, 3, 4, 5], 1.3, 7);
        let gamma = Tensor::randn(vec![3], 0.5, 8);
        let beta = Tensor::randn(vec![3], 0.5, 9);
        let mean = Tensor::randn(vec![3], 0.5, 10);
        let var = Tensor::rand_uniform(vec![3], 0.1, 2.0, 11);
        let want = batch_norm2d(&x, &gamma, &beta, &mean, &var, 1e-5).unwrap();

        let mut out = vec![0.0f32; x.len()];
        batch_norm2d_into(&x, &gamma, &beta, &mean, &var, 1e-5, &mut out).unwrap();
        assert!(want
            .data()
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        let mut buf = x.data().to_vec();
        batch_norm2d_inplace(&mut buf, x.shape(), &gamma, &beta, &mean, &var, 1e-5).unwrap();
        assert!(want
            .data()
            .iter()
            .zip(&buf)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
