//! Matrix multiplication kernels, including the transposed variants used by
//! backpropagation (`dX = dY·Wᵀ`, `dW = Xᵀ·dY`).
//!
//! All kernels operate on flat row-major slices so they can be reused on
//! tensor views without reshaping.
//!
//! # Threading & determinism
//!
//! Large multiplies run row-parallel (threads own disjoint blocks of
//! output rows, see `crate::parallel`) and the standard kernels block the
//! shared dimension so a `KC`-row panel of `B` stays cache-resident across
//! output rows — but only when more than one thread will actually engage:
//! the single-thread path dispatches to an unblocked i-k-j kernel, since
//! blocking without sharing only re-reads `C` rows. All transformations
//! are *bitwise identical* to the plain serial i-k-j loops: every output
//! element accumulates its products in exactly the same order (ascending
//! `p` for the standard kernels, ascending `i` for the `Aᵀ·B` kernel),
//! because row-parallelism only partitions independent output rows and the
//! `p`-blocking visits blocks in ascending order with the same per-thread
//! row kernel serial execution uses. The `av == 0.0` skip is likewise
//! shared by every path, and the inner `c += a·b` loop runs through the
//! [`crate::simd`] microkernel (one multiply + one add per element, never
//! FMA), which is itself bitwise identical at every dispatch level.
//! Training replicas rely on this: identical inputs must produce identical
//! models on every rank regardless of `GTOPK_THREADS` or `GTOPK_SIMD`.
//! (The `A·Bᵀ` kernel keeps its scalar sequential dot product: its
//! accumulation chain is a single running sum, which a lane-parallel
//! reduction would reassociate. `Linear` and `Lstm` call it; `Conv2d` no
//! longer does — its weight gradient runs the same chains as
//! [`crate::simd::row_axpy`]s across a transposed im2col block, see
//! `gtopk_nn`'s conv module.)

use crate::{parallel, simd};
use crate::{Result, Shape, Tensor, TensorError};

/// Shared-dimension block size: a `KC × n` panel of `B` (`KC` rows) is
/// reused across all output rows before moving on.
const KC: usize = 128;

/// Below this many fused multiply-adds a multiply stays serial.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Minimum output rows per thread so each spawn amortizes over at least
/// `PAR_MIN_FLOPS` work.
fn min_rows_for(flops_per_row: usize) -> usize {
    (PAR_MIN_FLOPS / flops_per_row.max(1)).max(1)
}

/// `C[rows,n] += A[rows,k] · B[k,n]` for a contiguous row block, with the
/// shared dimension visited in ascending `KC`-blocks.
///
/// This is THE row kernel for [`matmul_flat`] / [`matmul_flat_acc`]: the
/// serial path calls it once over all rows, the parallel path once per
/// disjoint row block, so per-element accumulation order (ascending `p`)
/// is identical everywhere.
fn flat_acc_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    let mut p0 = 0;
    while p0 < k {
        let p1 = (p0 + KC).min(k);
        for i in 0..rows {
            let arow = &a[i * k + p0..i * k + p1];
            let crow = &mut c[i * n..(i + 1) * n];
            for (off, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[(p0 + off) * n..(p0 + off + 1) * n];
                simd::row_axpy(crow, brow, av);
            }
        }
        p0 = p1;
    }
}

/// Unblocked serial i-k-j kernel for [`matmul_flat_acc`]'s single-thread
/// path. The `KC`-blocking exists to keep a `B` panel cache-resident
/// while *several threads* stream over it; with one thread it only adds
/// `⌈k/KC⌉` re-reads of every `C` row, which the kernel benchmark showed
/// costs ~25% at large sizes. Per-element accumulation order is ascending
/// `p` — identical to the blocked kernel — so dispatching on thread count
/// stays bitwise deterministic.
fn serial_acc_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            simd::row_axpy(crow, &b[p * n..(p + 1) * n], av);
        }
    }
}

/// `C[m,n] = A[m,k] · B[k,n]` over flat row-major slices.
///
/// Blocked and row-parallel for large inputs; bitwise identical to the
/// serial loop for any thread count (see module docs).
///
/// # Panics
///
/// Debug-asserts that slice lengths match the given dimensions.
pub fn matmul_flat(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    c.iter_mut().for_each(|v| *v = 0.0);
    matmul_flat_acc(a, b, c, m, k, n);
}

/// `C[m,n] += A[m,k] · B[k,n]` (accumulating variant).
pub fn matmul_flat_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let min_rows = min_rows_for(k * n);
    if parallel::chunk_count(m, min_rows) <= 1 {
        // Effective threads == 1 (below the blocking/parallel threshold
        // or a single-core limit): skip the p-blocking — see
        // `serial_acc_rows`. Bitwise identical to the blocked path by
        // the shared accumulation order.
        serial_acc_rows(a, b, c, m, k, n);
        return;
    }
    parallel::for_each_row_block_mut(c, n, min_rows, |first_row, cblock| {
        let rows = cblock.len() / n;
        let ablock = &a[first_row * k..(first_row + rows) * k];
        flat_acc_rows(ablock, b, cblock, rows, k, n);
    });
}

/// Dot-product row kernel for [`matmul_bt_flat`]: one output row of
/// `A · Bᵀ`. Single sequential accumulator per element, shared by the
/// serial and parallel paths.
fn bt_rows(a: &[f32], b: &[f32], c: &mut [f32], rows: usize, k: usize, n: usize) {
    for i in 0..rows {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow.iter()) {
                acc += av * bv;
            }
            *cv = acc;
        }
    }
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` — right operand stored transposed.
///
/// This is the `dX = dY · Wᵀ` step of a linear layer's backward pass when
/// `W` is stored `[n_out, n_in]`. Row-parallel for large inputs with a
/// bitwise-identical result.
pub fn matmul_bt_flat(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    parallel::for_each_row_block_mut(c, n, min_rows_for(k * n), |first_row, cblock| {
        let rows = cblock.len() / n;
        let ablock = &a[first_row * k..(first_row + rows) * k];
        bt_rows(ablock, b, cblock, rows, k, n);
    });
}

/// Row kernel for [`matmul_at_flat_acc`]: accumulates `Aᵀ · B` into the
/// contiguous block of `C` rows `[p_lo, p_lo + rows)`, visiting `i` in
/// ascending order — the same per-element order as the serial loop.
fn at_acc_rows(
    a: &[f32],
    b: &[f32],
    cblock: &mut [f32],
    p_lo: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    let rows = cblock.len() / n;
    for i in 0..m {
        let arow = &a[i * k + p_lo..i * k + p_lo + rows];
        let brow = &b[i * n..(i + 1) * n];
        for (r, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            simd::row_axpy(&mut cblock[r * n..(r + 1) * n], brow, av);
        }
    }
}

/// `C[k,n] += A[m,k]ᵀ · B[m,n]` — left operand transposed, accumulating.
///
/// This is the `dW += Xᵀ · dY` step of a linear layer's backward pass.
/// Threads own disjoint blocks of `C` rows (columns of `A`); each walks
/// `i` ascending, so the result is bitwise identical to the serial loop.
pub fn matmul_at_flat_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    parallel::for_each_row_block_mut(c, n, min_rows_for(m * n), |p_lo, cblock| {
        at_acc_rows(a, b, cblock, p_lo, m, k, n);
    });
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is `[m,k]` and
    /// `other` is `[k,n]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gtopk_tensor::{Shape, Tensor};
    /// let a = Tensor::from_vec(Shape::d2(1, 2), vec![1.0, 2.0]).unwrap();
    /// let b = Tensor::from_vec(Shape::d2(2, 1), vec![3.0, 4.0]).unwrap();
    /// assert_eq!(a.matmul(&b).unwrap().data(), &[11.0]);
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let (ls, rs) = (self.shape(), other.shape());
        if ls.rank() != 2 || rs.rank() != 2 || ls.dim(1) != rs.dim(0) {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: ls.dims().to_vec(),
                rhs: rs.dims().to_vec(),
            });
        }
        let (m, k, n) = (ls.dim(0), ls.dim(1), rs.dim(1));
        let mut out = Tensor::zeros(Shape::d2(m, n));
        matmul_flat(self.data(), other.data(), out.data_mut(), m, k, n);
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for non-rank-2 tensors.
    pub fn transpose2(&self) -> Result<Tensor> {
        let s = self.shape();
        if s.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "transpose2",
                lhs: s.dims().to_vec(),
                rhs: vec![],
            });
        }
        let (m, n) = (s.dim(0), s.dim(1));
        let mut out = Tensor::zeros(Shape::d2(n, m));
        for i in 0..m {
            for j in 0..n {
                out.data_mut()[j * m + i] = self.data()[i * n + j];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let (m, k, n) = (3, 4, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut c = vec![0.0; m * n];
        matmul_flat(&a, &b, &mut c, m, k, n);
        let expect = naive(&a, &b, m, k, n);
        for (x, y) in c.iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let (m, k, n) = (2, 3, 4);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        // b stored [n, k]
        let b: Vec<f32> = (0..n * k).map(|i| (i as f32) * 0.5).collect();
        // build bT [k, n]
        let mut bt = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut c1 = vec![0.0; m * n];
        matmul_bt_flat(&a, &b, &mut c1, m, k, n);
        let c2 = naive(&a, &bt, m, k, n);
        assert_eq!(c1, c2);
    }

    #[test]
    fn matmul_at_acc_matches_explicit_transpose() {
        let (m, k, n) = (4, 2, 3);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 - 3.0).collect();
        let b: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.25).collect();
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c1 = vec![1.0; k * n]; // accumulates onto existing
        matmul_at_flat_acc(&a, &b, &mut c1, m, k, n);
        let mut c2 = naive(&at, &b, k, m, n);
        for v in &mut c2 {
            *v += 1.0;
        }
        for (x, y) in c1.iter().zip(c2.iter()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn acc_variant_accumulates() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        matmul_flat_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [12.0, 13.0, 14.0, 15.0]);
    }

    #[test]
    fn serial_blocked_and_simd_dispatch_bitwise_identical() {
        use crate::parallel::{with_min_chunk, with_thread_limit};
        use crate::simd::{self, SimdLevel};
        // k > KC exercises the p-blocked kernel on the parallel path vs
        // the unblocked kernel on the single-thread path; irrational
        // inputs make any reassociation visible in the low bits.
        let (m, k, n) = (7, 2 * KC + 13, 9);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.61).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.29).cos()).collect();
        let run = || {
            let mut c = vec![0.0f32; m * n];
            matmul_flat(&a, &b, &mut c, m, k, n);
            c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let reference = with_thread_limit(1, || simd::with_simd_level(SimdLevel::Scalar, run));
        for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
            simd::with_simd_level(level, || {
                assert_eq!(with_thread_limit(1, run), reference, "serial {level}");
                with_thread_limit(4, || {
                    with_min_chunk(1, || assert_eq!(run(), reference, "parallel {level}"));
                });
            });
        }
    }

    #[test]
    fn tensor_matmul_shape_errors() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 3));
        assert!(a.matmul(&b).is_err());
        let c = Tensor::zeros(Shape::d1(3));
        assert!(a.matmul(&c).is_err());
    }

    #[test]
    fn transpose2_roundtrip() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let at = a.transpose2().unwrap();
        assert_eq!(at.shape().dims(), &[3, 2]);
        assert_eq!(at.data(), &[1., 4., 2., 5., 3., 6.]);
        assert_eq!(at.transpose2().unwrap(), a);
    }
}
