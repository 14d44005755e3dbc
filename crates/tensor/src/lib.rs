//! Dense tensor math substrate for the gTop-k S-SGD reproduction.
//!
//! This crate provides the minimal-but-complete dense linear algebra needed
//! to train the scaled-down deep models used by the convergence experiments:
//! an owned row-major [`Tensor`] over `f32`, shape bookkeeping, matrix
//! multiplication (including transposed variants used by backpropagation),
//! common element-wise kernels with their derivatives, numerically stable
//! softmax / log-softmax, and seeded weight initializers.
//!
//! Everything is deliberately BLAS-free and deterministic so experiment
//! outputs are reproducible bit-for-bit across runs with the same seed.
//!
//! # Examples
//!
//! ```
//! use gtopk_tensor::{Tensor, Shape};
//!
//! let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
//! let b = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.]).unwrap();
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.data(), &[4., 5., 10., 11.]);
//! ```

#![warn(missing_docs)]

mod error;
mod init;
mod matmul;
mod ops;
pub mod parallel;
mod shape;
pub mod simd;
mod tensor;

pub use error::TensorError;
pub use init::{kaiming_uniform, uniform, xavier_uniform, zeros_vec};
pub use matmul::{
    matmul_at_flat_acc, matmul_bt_flat, matmul_flat, matmul_flat_acc, transpose_into,
};
pub use ops::{
    log_softmax_rows, relu, relu_backward, sigmoid, sigmoid_backward, softmax_rows, tanh_backward,
    tanh_forward,
};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient `Result` alias used throughout the tensor crate.
pub type Result<T> = std::result::Result<T, TensorError>;
