//! Sparsification primitives for gTop-k S-SGD.
//!
//! This crate implements the building blocks the paper's algorithms are
//! written in terms of:
//!
//! * [`SparseVec`] — a `[values, indices]` sparse gradient vector, the wire
//!   format every sparsified aggregation algorithm exchanges;
//! * [`topk_sparse`] and friends — exact Top-k selection over the absolute
//!   values of a dense gradient (paper Algorithm 1, lines 5–7), one
//!   streaming, RNG-free kernel;
//! * [`topk_merge`] — the paper's **Definition 1** binary operator `⊤`:
//!   merge-add two k-sparse vectors and keep only the k largest magnitudes;
//! * [`Residual`] — the error-feedback accumulator that stores zeroed-out
//!   gradients locally so they eventually contribute to a model update
//!   (Algorithm 4, lines 4, 8 and 10);
//! * [`Mask`] — a sorted index-set used to report *which* coordinates a
//!   global top-k selection kept (Algorithm 3, lines 21–22).
//!
//! # Examples
//!
//! ```
//! use gtopk_sparse::{topk_sparse, topk_merge};
//!
//! let a = topk_sparse(&[0.1, -5.0, 0.2, 3.0], 2);
//! let b = topk_sparse(&[4.0, 4.9, 0.0, -0.1], 2);
//! // a keeps {1, 3}, b keeps {0, 1}; the merged sum is {0: 4.0, 1: -0.1,
//! // 3: 3.0}, whose top-2 magnitudes sit at coordinates 0 and 3.
//! let merged = topk_merge(&a, &b, 2);
//! assert_eq!(merged.indices(), &[0, 3]);
//! ```

#![warn(missing_docs)]

mod mask;
mod merge;
mod residual;
mod topk;
mod vector;
pub mod wire;

pub use mask::Mask;
pub use merge::{
    topk_merge, topk_merge_into, topk_merge_many, topk_merge_split_into, MergeScratch,
};
pub use residual::Residual;
pub use topk::{
    accumulate_select_compact, topk_indices, topk_sparse, topk_sparse_into, SelectRule, TopkScratch,
};
pub use vector::SparseVec;
