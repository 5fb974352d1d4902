//! Shapes: dimension lists with volume/stride helpers.

use crate::TensorError;

/// The shape of a dense tensor: an ordered list of dimension extents.
///
/// Row-major (C) layout is assumed everywhere in the workspace. A rank-0
/// shape is a scalar with volume 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Create a shape from dimension extents.
    pub fn new(dims: impl Into<Vec<usize>>) -> Self {
        Shape(dims.into())
    }

    /// A scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `axis`.
    ///
    /// # Panics
    /// Panics if `axis >= rank()`; indexing a shape out of range is a
    /// programming error, not a data error.
    pub fn dim(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// Total number of elements.
    pub fn volume(&self) -> usize {
        self.0.iter().product()
    }

    /// Size of the tensor in bytes (f32 elements).
    pub fn byte_size(&self) -> usize {
        self.volume() * std::mem::size_of::<f32>()
    }

    /// Check that `axis` is in range for this shape.
    pub fn check_axis(&self, op: &'static str, axis: usize) -> Result<(), TensorError> {
        if axis >= self.rank() {
            return Err(TensorError::InvalidArgument {
                op,
                msg: format!("axis {axis} out of range for rank {}", self.rank()),
            });
        }
        Ok(())
    }

    /// Require an exact rank, returning a uniform error otherwise.
    pub fn expect_rank(&self, op: &'static str, rank: usize) -> Result<(), TensorError> {
        if self.rank() != rank {
            return Err(TensorError::RankMismatch {
                op,
                expected: rank,
                actual: self.rank(),
            });
        }
        Ok(())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.volume(), 24);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.dim(1), 3);
        assert_eq!(s.byte_size(), 96);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn zero_dim_gives_zero_volume() {
        let s = Shape::new(vec![4, 0, 2]);
        assert_eq!(s.volume(), 0);
    }

    #[test]
    fn axis_check() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.check_axis("t", 1).is_ok());
        assert!(s.check_axis("t", 2).is_err());
    }

    #[test]
    fn expect_rank_errors() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.expect_rank("t", 2).is_ok());
        let e = s.expect_rank("t", 3).unwrap_err();
        assert_eq!(
            e,
            TensorError::RankMismatch {
                op: "t",
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![2, 3]).to_string(), "(2x3)");
        assert_eq!(Shape::scalar().to_string(), "()");
    }

    #[test]
    fn from_array_and_slice() {
        let a: Shape = [1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
    }
}
