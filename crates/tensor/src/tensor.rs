use crate::{Result, Shape, TensorError};

/// Owned, row-major, `f32` tensor.
///
/// `Tensor` is the dense workhorse of the reproduction: model activations,
/// weights and gradients are all `Tensor`s (or flat `&[f32]` views of them).
/// Operations are shape-checked and return [`TensorError`] on mismatch.
///
/// # Examples
///
/// ```
/// use gtopk_tensor::{Shape, Tensor};
/// let mut t = Tensor::zeros(Shape::d2(2, 2));
/// t.data_mut()[0] = 3.0;
/// assert_eq!(t.get(&[0, 0]), 3.0);
/// assert_eq!(t.sum(), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let n = shape.volume();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the shape's volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self> {
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-axis index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.offset(idx)]
    }

    /// Sets the element at a multi-axis index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Reinterprets the buffer under a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if volumes differ.
    pub fn reshape(self, shape: Shape) -> Result<Self> {
        Tensor::from_vec(shape, self.data)
    }

    /// Element-wise in-place addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        self.zip_assign(other, "add", |a, b| a + b)
    }

    fn zip_assign(
        &mut self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, *b);
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self += alpha * other` (the classic `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.zip_assign(other, "axpy", |a, b| a + alpha * b)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements; 0.0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.len() != other.len() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape.dims().to_vec(),
                rhs: other.shape.dims().to_vec(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm2(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Returns a new tensor with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl Default for Tensor {
    /// A 1-element zero tensor (the `Debug` representation is never empty).
    fn default() -> Self {
        Tensor::zeros(Shape::d1(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(Shape::d1(n), v).unwrap()
    }

    #[test]
    fn from_vec_checks_length() {
        let err = Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn get_set_roundtrip() {
        let mut x = Tensor::zeros(Shape::d2(2, 3));
        x.set(&[1, 2], 5.0);
        assert_eq!(x.get(&[1, 2]), 5.0);
        assert_eq!(x.data()[5], 5.0);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = t(vec![1.0, 2.0, 3.0]);
        let b = t(vec![4.0, 5.0, 6.0]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[5.0, 7.0, 9.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[2.5, 3.5, 4.5]);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = t(vec![1.0, 1.0]);
        let b = t(vec![2.0, -3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, -0.5]);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut a = Tensor::zeros(Shape::d2(2, 2));
        let b = Tensor::zeros(Shape::d1(4));
        assert!(a.add_assign(&b).is_err());
    }

    #[test]
    fn reductions() {
        let a = t(vec![3.0, -4.0]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.mean(), -0.5);
        assert_eq!(a.norm2(), 5.0);
        assert_eq!(a.dot(&t(vec![1.0, 1.0])).unwrap(), -1.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0]);
        let b = a.reshape(Shape::d2(2, 2)).unwrap();
        assert_eq!(b.get(&[1, 0]), 3.0);
        assert!(b.clone().reshape(Shape::d2(3, 2)).is_err());
    }

    #[test]
    fn map_and_fill() {
        let a = t(vec![1.0, -2.0]);
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
    }

    #[test]
    fn default_is_nonempty() {
        assert_eq!(Tensor::default().len(), 1);
    }
}
