//! Elementwise kernels: activations and binary arithmetic.
//!
//! Each operator has one arithmetic loop, its in-place kernel. A fused tape
//! epilogue runs it on its anchor's output; a standalone tape instruction
//! on operand 0 copied into its slot, or on the slot itself when the
//! planner proved that operand dead; and the allocating forms `Graph::eval`
//! calls on a fresh copy of their input, after the shape checks. Every path
//! therefore computes the same bits.
//!
//! Sigmoid, tanh and GELU call no libm: `scalar` builds them on an
//! inlined polynomial `exp`, branch-free, and [`unary_inplace`] matches on
//! the operator once, outside its loop, so each arm vectorizes. The
//! recurrent gates in `rnn.rs` call the same scalar functions. Their
//! contracts against an f64 oracle are in `tests/kernel_contract.rs`:
//! sigmoid within 4 ulp, tanh within absolute 2⁻²², GELU within
//! 2⁻²²·max(|y|, 1); NaN in gives NaN out.

use crate::{Tensor, TensorError};

/// The unary elementwise operators in the vocabulary.
///
/// Carried as data (rather than function pointers) so the compiler can
/// record *which* activation was fused into a producer kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
}

/// Apply a unary operator in place.
pub fn unary_inplace(op: UnaryOp, buf: &mut [f32]) {
    match op {
        UnaryOp::Relu => buf.iter_mut().for_each(|v| *v = v.max(0.0)),
        UnaryOp::Sigmoid => buf.iter_mut().for_each(|v| *v = scalar::sigmoid(*v)),
        UnaryOp::Tanh => buf.iter_mut().for_each(|v| *v = scalar::tanh(*v)),
        UnaryOp::Gelu => buf.iter_mut().for_each(|v| *v = scalar::gelu(*v)),
    }
}

/// `buf *= s` in place.
pub fn scale_inplace(buf: &mut [f32], s: f32) {
    for v in buf.iter_mut() {
        *v *= s;
    }
}

/// `buf += b` elementwise in place (equal lengths).
pub fn add_inplace(buf: &mut [f32], b: &[f32]) {
    debug_assert_eq!(buf.len(), b.len());
    for (x, &y) in buf.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// `buf -= b` elementwise in place (equal lengths).
pub fn sub_inplace(buf: &mut [f32], b: &[f32]) {
    debug_assert_eq!(buf.len(), b.len());
    for (x, &y) in buf.iter_mut().zip(b.iter()) {
        *x -= y;
    }
}

/// In-place *reversed* subtraction: `buf = a - buf`. The tape executor's
/// epilogue path for a `Sub` whose chain value is the *second* operand
/// (the subtrahend lives in the accumulator buffer).
pub fn rsub_inplace(buf: &mut [f32], a: &[f32]) {
    debug_assert_eq!(buf.len(), a.len());
    for (x, &y) in buf.iter_mut().zip(a.iter()) {
        *x = y - *x;
    }
}

/// `buf *= b` elementwise in place (equal lengths).
pub fn mul_inplace(buf: &mut [f32], b: &[f32]) {
    debug_assert_eq!(buf.len(), b.len());
    for (x, &y) in buf.iter_mut().zip(b.iter()) {
        *x *= y;
    }
}

/// `buf += bias` broadcast over the trailing dim, on a run of a larger
/// buffer: `buf[j]` is element `at + j`, and takes `bias[(at + j) %
/// bias.len()]`.
pub fn bias_add_inplace_at(buf: &mut [f32], at: usize, bias: &[f32]) {
    let c = bias.len();
    for (i, v) in buf.iter_mut().enumerate() {
        *v += bias[(at + i) % c];
    }
}

/// A fresh copy of `x` with `f` run on it in place: the allocating form of
/// an in-place kernel.
pub(super) fn copied(x: &Tensor, f: impl FnOnce(&mut [f32])) -> Tensor {
    let mut data = x.data().to_vec();
    f(&mut data);
    Tensor::from_vec(x.shape().clone(), data).expect("shape preserved")
}

/// `max(x, 0)` elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    copied(x, |buf| unary_inplace(UnaryOp::Relu, buf))
}

/// Logistic sigmoid elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    copied(x, |buf| unary_inplace(UnaryOp::Sigmoid, buf))
}

/// Hyperbolic tangent elementwise.
pub fn tanh(x: &Tensor) -> Tensor {
    copied(x, |buf| unary_inplace(UnaryOp::Tanh, buf))
}

/// GELU (tanh approximation) elementwise.
pub fn gelu(x: &Tensor) -> Tensor {
    copied(x, |buf| unary_inplace(UnaryOp::Gelu, buf))
}

/// Multiply by a scalar.
pub fn scale(x: &Tensor, s: f32) -> Tensor {
    copied(x, |buf| scale_inplace(buf, s))
}

/// `a ⊕ b` for two tensors of one shape, by the in-place kernel `f`.
fn binary(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    f: fn(&mut [f32], &[f32]),
) -> Result<Tensor, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    Ok(copied(a, |buf| f(buf, b.data())))
}

/// Elementwise addition (same shapes).
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    binary("add", a, b, add_inplace)
}

/// Elementwise subtraction (same shapes).
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    binary("sub", a, b, sub_inplace)
}

/// Elementwise multiplication (same shapes).
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    binary("mul", a, b, mul_inplace)
}

/// Add a `[c]` bias to the trailing dimension of `x: [..., c]`.
pub fn bias_add(x: &Tensor, bias: &Tensor) -> Result<Tensor, TensorError> {
    bias.shape().expect_rank("bias_add", 1)?;
    let c = bias.len();
    if x.shape().rank() == 0 || x.shape().dim(x.shape().rank() - 1) != c {
        return Err(TensorError::ShapeMismatch {
            op: "bias_add",
            lhs: x.shape().dims().to_vec(),
            rhs: bias.shape().dims().to_vec(),
        });
    }
    Ok(copied(x, |buf| bias_add_inplace_at(buf, 0, bias.data())))
}

/// The activations on one element, `#[inline(always)]` so that the loops
/// around them — [`unary_inplace`]'s arms and the recurrent cells —
/// vectorize.
pub(super) mod scalar {
    use std::f32::consts::{LN_2, LOG2_E};

    /// `ln 2 − LN_2`: the part of ln 2 the f32 constant drops, so that the
    /// Cody–Waite reduction subtracts `n·ln 2` to well past f32 precision.
    pub(super) const LN_2_LO: f32 = -1.904_654_2e-9;
    /// `e^r ≈ 1 + r + r²·(C2 + C3·r + C4·r² + C5·r³ + C6·r⁴)` on `|r| ≤ ln 2 / 2`:
    /// a minimax fit of the relative error with `1 + r` held exact (so
    /// `e^0 = 1`), 4.3e-9 at most before rounding — a twelfth of f32's half ulp.
    pub(super) const C2: f32 = 0.499_999_97;
    pub(super) const C3: f32 = 0.166_665_06;
    pub(super) const C4: f32 = 0.041_667_09;
    pub(super) const C5: f32 = 0.008_370_263;
    pub(super) const C6: f32 = 0.001_389_340_3;

    /// `e^x` for `x ≤ 0`, in `[0, 1]`; NaN propagates. Cody–Waite reduction
    /// `x = n·ln 2 + r`, `|r| ≤ ln 2 / 2`, the degree-6 polynomial for `e^r`,
    /// then `2ⁿ` as two exponent-field factors, so that a result below `2⁻¹²⁶`
    /// rounds once to a subnormal instead of flushing to zero. No libm call and
    /// no branch: the loops around it vectorize.
    #[inline(always)]
    pub(super) fn exp_nonpositive(x: f32) -> f32 {
        // e^-104 rounds to zero, and n ≥ -150 keeps both factors normal. A NaN
        // compares false and passes through.
        let x = if x < -104.0 { -104.0 } else { x };
        let n = (x * LOG2_E).round_ties_even();
        let r = n.mul_add(-LN_2, x);
        let r = n.mul_add(-LN_2_LO, r);
        let q = C6
            .mul_add(r, C5)
            .mul_add(r, C4)
            .mul_add(r, C3)
            .mul_add(r, C2);
        let p = 1.0 + q.mul_add(r * r, r);
        // `n` is an integer in [-150, 0], so adding 1.5·2²³ puts it, exactly, in
        // the low bits of the sum's mantissa. `n as i32` would be the same
        // number, but as a saturating cast it compiles to a scalar convert and
        // two compares per call, and the loops no longer vectorize. A NaN
        // reads as some integer here and stays NaN through `p`.
        let n = (n + ROUND_BIAS).to_bits() as i32 - ROUND_BIAS.to_bits() as i32;
        let half = n >> 1;
        p * pow2(half) * pow2(n - half)
    }

    /// 1.5·2²³: an integer `n` with `|n| ≤ 2²²` added to it lands in the low
    /// mantissa bits, `to_bits() − ROUND_BIAS.to_bits()` reads it back.
    const ROUND_BIAS: f32 = 12_582_912.0;

    /// `2ⁿ` for `-126 ≤ n ≤ 127`, built in the exponent field.
    #[inline(always)]
    pub(super) fn pow2(n: i32) -> f32 {
        f32::from_bits(((n + 127) as u32) << 23)
    }

    /// Logistic sigmoid in `[0, 1]`, within 4 ulp of the f64-rounded truth.
    /// With `e = e^-|x| ∈ [0, 1]` it is `1 / (1 + e)` for `x ≥ 0` and
    /// `e / (1 + e)` below, so nothing overflows and the left tail keeps its
    /// relative accuracy down into the subnormals.
    #[inline(always)]
    pub fn sigmoid(x: f32) -> f32 {
        let e = exp_nonpositive(-x.abs());
        let num = if x < 0.0 { e } else { 1.0 };
        num / (1.0 + e)
    }

    /// `tanh x = sign(x)·(1 − e) / (1 + e)` with `e = e^-2|x| ∈ [0, 1]`, so the
    /// magnitude is in `[0, 1]` by construction and ±0 keep their sign. Within
    /// absolute 2⁻²² of the truth: near zero `1 − e` cancels, which costs
    /// relative accuracy there, not absolute.
    #[inline(always)]
    pub fn tanh(x: f32) -> f32 {
        let e = exp_nonpositive(-2.0 * x.abs());
        ((1.0 - e) / (1.0 + e)).copysign(x)
    }

    /// Tanh-approximated GELU, the variant BERT-family models use:
    /// `x/2 · (1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
    #[inline(always)]
    pub fn gelu(x: f32) -> f32 {
        let c = (2.0f32 / std::f32::consts::PI).sqrt();
        0.5 * x * (1.0 + tanh(c * (x + 0.044715 * x * x * x)))
    }
}

#[cfg(test)]
mod tests {
    use super::scalar::{exp_nonpositive, pow2, C2, C3, C4, C5, C6, LN_2_LO};
    use super::*;
    use std::f32::consts::{LN_2, LOG2_E};

    /// `exp_nonpositive` with its exponent read by the saturating cast
    /// `n as i32`, as it was before the exponent came from the bits.
    fn exp_nonpositive_by_cast(x: f32) -> f32 {
        let x = if x < -104.0 { -104.0 } else { x };
        let n = (x * LOG2_E).round_ties_even();
        let r = n.mul_add(-LN_2, x);
        let r = n.mul_add(-LN_2_LO, r);
        let q = C6
            .mul_add(r, C5)
            .mul_add(r, C4)
            .mul_add(r, C3)
            .mul_add(r, C2);
        let p = 1.0 + q.mul_add(r * r, r);
        let n = n as i32;
        let half = n >> 1;
        p * pow2(half) * pow2(n - half)
    }

    #[test]
    fn exponent_from_the_bits_matches_the_cast() {
        // The arguments sigmoid and tanh pass: -|x| and -2|x| over the
        // activation sweep, then the special values and the clamp.
        let top = 40.0f32.to_bits();
        let sweep = (0..=top).step_by(509).map(f32::from_bits);
        let tiny = f32::from_bits(1);
        let specials = [
            0.0,
            f32::INFINITY,
            f32::NAN,
            88.0,
            52.0,
            104.0,
            200.0,
            f32::MIN_POSITIVE,
            tiny,
        ];
        for x in sweep.chain(specials) {
            for v in [-x.abs(), -2.0 * x.abs(), x.abs(), -x] {
                let (got, want) = (exp_nonpositive(v), exp_nonpositive_by_cast(v));
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "e^{v:e}: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![4], vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        let x = Tensor::from_vec(vec![3], vec![-10.0, 0.0, 10.0]).unwrap();
        let y = sigmoid(&x);
        assert!(y.data()[0] < 1e-4);
        assert!((y.data()[1] - 0.5).abs() < 1e-6);
        assert!(y.data()[2] > 1.0 - 1e-4);
    }

    #[test]
    fn tanh_matches_std() {
        let x = Tensor::from_vec(vec![2], vec![0.3, -1.2]).unwrap();
        let y = tanh(&x);
        assert!((y.data()[0] - 0.3f32.tanh()).abs() < 1e-7);
        assert!((y.data()[1] - (-1.2f32).tanh()).abs() < 1e-7);
    }

    #[test]
    fn gelu_known_points() {
        let x = Tensor::from_vec(vec![3], vec![0.0, 1.0, -1.0]).unwrap();
        let y = gelu(&x);
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 0.8412).abs() < 1e-3);
        assert!((y.data()[2] + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn add_sub_mul_roundtrip() {
        let a = Tensor::randn(vec![8], 1.0, 1);
        let b = Tensor::randn(vec![8], 1.0, 2);
        let s = add(&a, &b).unwrap();
        let back = sub(&s, &b).unwrap();
        assert!(back.approx_eq(&a, 1e-6));
        let p = mul(&a, &b).unwrap();
        assert!((p.data()[0] - a.data()[0] * b.data()[0]).abs() < 1e-7);
    }

    #[test]
    fn binary_ops_reject_shape_mismatch() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![3, 2]);
        assert!(add(&a, &b).is_err());
        assert!(mul(&a, &b).is_err());
    }

    #[test]
    fn bias_add_broadcasts_rows() {
        let x = Tensor::from_vec(vec![2, 3], vec![0., 0., 0., 1., 1., 1.]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let y = bias_add(&x, &b).unwrap();
        assert_eq!(y.data(), &[1., 2., 3., 2., 3., 4.]);
    }

    #[test]
    fn bias_add_rejects_wrong_channel() {
        let x = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4]);
        assert!(bias_add(&x, &b).is_err());
    }

    #[test]
    fn scale_multiplies() {
        let x = Tensor::ones(vec![3]);
        assert_eq!(scale(&x, 2.5).data(), &[2.5, 2.5, 2.5]);
    }
}
