//! Elementwise kernels: activations and binary arithmetic.
//!
//! These are the operators the compiler's fusion pass folds into their
//! producers; standalone implementations are still needed for the unfused
//! framework baseline and for fusion-correctness tests.

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

impl UnaryOp {
    /// Apply the operator to a single element.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            // tanh-approximated GELU, the variant used by BERT-family models.
            UnaryOp::Gelu => {
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())
            }
        }
    }

    /// Apply the operator across a whole tensor.
    pub fn eval(self, x: &Tensor) -> Tensor {
        let data: Vec<f32> = x.data().iter().map(|&v| self.apply(v)).collect();
        Tensor::from_vec(x.shape().clone(), data).expect("shape preserved")
    }
}

/// Apply a unary operator into a caller-provided buffer (same length).
pub fn unary_into(op: UnaryOp, x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = op.apply(v);
    }
}

/// Apply a unary operator in place — the tape executor's epilogue path
/// when the input value dies at this instruction.
pub fn unary_inplace(op: UnaryOp, buf: &mut [f32]) {
    for v in buf.iter_mut() {
        *v = op.apply(*v);
    }
}

/// `out = x * s` into a caller-provided buffer.
pub fn scale_into(x: &[f32], s: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = v * s;
    }
}

/// `buf *= s` in place.
pub fn scale_inplace(buf: &mut [f32], s: f32) {
    for v in buf.iter_mut() {
        *v *= s;
    }
}

/// `out = a + b` into a caller-provided buffer (equal lengths).
pub fn add_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x + y;
    }
}

/// `out = a - b` into a caller-provided buffer (equal lengths).
pub fn sub_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

/// `out = a * b` into a caller-provided buffer (equal lengths).
pub fn mul_into(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

/// `buf = buf ⊕ b` in place for add/sub/mul (first operand aliased).
pub fn add_inplace(buf: &mut [f32], b: &[f32]) {
    debug_assert_eq!(buf.len(), b.len());
    for (x, &y) in buf.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// In-place elementwise subtraction (first operand aliased).
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

/// In-place elementwise multiplication (first operand aliased).
pub fn mul_inplace(buf: &mut [f32], b: &[f32]) {
    debug_assert_eq!(buf.len(), b.len());
    for (x, &y) in buf.iter_mut().zip(b.iter()) {
        *x *= y;
    }
}

/// `out = x + bias` (bias broadcast over the trailing dim) into a buffer.
pub fn bias_add_into(x: &[f32], bias: &[f32], out: &mut [f32]) {
    debug_assert_eq!(x.len(), out.len());
    let c = bias.len();
    for (i, (o, &v)) in out.iter_mut().zip(x.iter()).enumerate() {
        *o = v + bias[i % c];
    }
}

/// `buf += bias` (broadcast over the trailing dim) in place.
pub fn bias_add_inplace(buf: &mut [f32], bias: &[f32]) {
    bias_add_inplace_at(buf, 0, bias);
}

/// [`bias_add_inplace`] on a run of a larger buffer: `buf[j]` is element
/// `at + j`, and takes `bias[(at + j) % bias.len()]`.
pub fn bias_add_inplace_at(buf: &mut [f32], at: usize, bias: &[f32]) {
    let c = bias.len();
    for (i, v) in buf.iter_mut().enumerate() {
        *v += bias[(at + i) % c];
    }
}

/// `max(x, 0)` elementwise.
pub fn relu(x: &Tensor) -> Tensor {
    UnaryOp::Relu.eval(x)
}

/// Logistic sigmoid elementwise.
pub fn sigmoid(x: &Tensor) -> Tensor {
    UnaryOp::Sigmoid.eval(x)
}

/// Hyperbolic tangent elementwise.
pub fn tanh(x: &Tensor) -> Tensor {
    UnaryOp::Tanh.eval(x)
}

/// GELU (tanh approximation) elementwise.
pub fn gelu(x: &Tensor) -> Tensor {
    UnaryOp::Gelu.eval(x)
}

/// Multiply by a scalar.
pub fn scale(x: &Tensor, s: f32) -> Tensor {
    let data: Vec<f32> = x.data().iter().map(|&v| v * s).collect();
    Tensor::from_vec(x.shape().clone(), data).expect("shape preserved")
}

fn zip_op(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let data: Vec<f32> = a
        .data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Tensor::from_vec(a.shape().clone(), data)
}

/// Elementwise addition (same shapes).
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_op("add", a, b, |x, y| x + y)
}

/// Elementwise subtraction (same shapes).
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_op("sub", a, b, |x, y| x - y)
}

/// Elementwise multiplication (same shapes).
pub fn mul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_op("mul", a, b, |x, y| x * y)
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
    let bd = bias.data();
    let data: Vec<f32> = x
        .data()
        .iter()
        .enumerate()
        .map(|(i, &v)| v + bd[i % c])
        .collect();
    Tensor::from_vec(x.shape().clone(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

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
