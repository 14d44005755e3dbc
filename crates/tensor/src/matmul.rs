//! Matrix multiplication kernels, including the transposed variants used by
//! backpropagation (`Y = X·Wᵀ`, `dW += dYᵀ·X`).
//!
//! All kernels operate on flat row-major slices so they can be reused on
//! tensor views without reshaping.
//!
//! # One kernel
//!
//! Every product runs on [`crate::simd::gemm_acc`], `C[rows,n] +=
//! A[rows,k]·B[k,n]`, which holds tiles of C (64 or 32 columns of one
//! row, or 16 columns of four rows) in registers across the whole
//! ascending-`p` loop. The transposed variants
//! first transpose their transposed operand once per call into a buffer:
//! `A·Bᵀ` transposes `B` to `[k, n]`, `Aᵀ·B` transposes `A` to `[k, m]`.
//! A transpose only moves bits, so it changes no sum.
//!
//! # Threading & determinism
//!
//! Large multiplies run row-parallel: threads own disjoint blocks of
//! output rows (see `crate::parallel`) and run the same kernel on them
//! that serial execution runs on all rows. Every output element keeps one
//! accumulation chain, the same at every thread count and SIMD level: its
//! starting value, then `c + a·b` as a separate multiply and add (never
//! FMA) for each term in ascending order of the shared index. That chain
//! is ascending `p` for `A·B`, ascending `i` for `Aᵀ·B`, and for `A·Bᵀ`
//! the scalar dot product's: from `+0.0` in ascending `p`. `A·B` and
//! `Aᵀ·B` skip the terms whose `A` entry is `0.0`; `A·Bᵀ` skips none. The
//! tile never splits or reorders a chain — it only keeps the partial sums
//! of neighbouring elements in registers instead of storing and reloading
//! them — so a dot product gets SIMD lanes across output columns without
//! reassociating anything. Training replicas rely on this: identical
//! inputs must produce identical models on every rank regardless of
//! `GTOPK_THREADS` or `GTOPK_SIMD`.

use crate::{parallel, simd};
use crate::{Result, Shape, Tensor, TensorError};

/// Below this many fused multiply-adds a multiply stays serial.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Minimum output rows per thread so each spawn amortizes over at least
/// `PAR_MIN_FLOPS` work.
fn min_rows_for(flops_per_row: usize) -> usize {
    (PAR_MIN_FLOPS / flops_per_row.max(1)).max(1)
}

/// Side of the square tiles [`transpose_into`] moves at a time.
const TILE: usize = 8;

/// Writes the transpose of the `[rows, cols]` matrix `x`, whose rows start
/// `ld` elements apart, into the row-major `[cols, rows]` matrix `out`.
///
/// Full 8×8 tiles are read as eight row slices and written as eight
/// contiguous column runs, so a tile touches a few cache lines instead of
/// one `rows`-strided line per element; the ragged right and bottom edges
/// go element by element. It only moves bits.
///
/// # Panics
///
/// Panics if `ld < cols`, if `out` does not hold `rows·cols` elements or
/// if `x` ends before its last row does.
///
/// # Examples
///
/// ```
/// use gtopk_tensor::transpose_into;
/// // The left two columns of a [2, 3] matrix, read with row stride 3.
/// let x = [1.0, 2.0, 9.0, 3.0, 4.0, 9.0];
/// let mut out = [0.0; 4];
/// transpose_into(&x, 3, 2, 2, &mut out);
/// assert_eq!(out, [1.0, 3.0, 2.0, 4.0]);
/// ```
pub fn transpose_into(x: &[f32], ld: usize, rows: usize, cols: usize, out: &mut [f32]) {
    assert!(ld >= cols, "row stride {ld} below the row length {cols}");
    assert_eq!(out.len(), rows * cols, "transpose output length");
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(
        x.len() >= (rows - 1) * ld + cols,
        "transpose input too short"
    );
    let (full_rows, full_cols) = (rows / TILE * TILE, cols / TILE * TILE);
    for i0 in (0..full_rows).step_by(TILE) {
        for j0 in (0..full_cols).step_by(TILE) {
            let src: [&[f32]; TILE] = std::array::from_fn(|r| &x[(i0 + r) * ld + j0..][..TILE]);
            for c in 0..TILE {
                let dst = &mut out[(j0 + c) * rows + i0..][..TILE];
                for (d, row) in dst.iter_mut().zip(&src) {
                    *d = row[c];
                }
            }
        }
    }
    // The ragged edges: each tiled row's last columns, then the last rows.
    for i in 0..rows {
        let j0 = if i < full_rows { full_cols } else { 0 };
        for (j, &v) in (j0..cols).zip(&x[i * ld + j0..i * ld + cols]) {
            out[j * rows + i] = v;
        }
    }
}

/// `C[m,n] = A[m,k] · B[k,n]` over flat row-major slices.
///
/// Row-parallel for large inputs; bitwise identical to the serial loop
/// for any thread count (see module docs).
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
    parallel::for_each_row_block_mut(c, n, min_rows_for(k * n), |first_row, cblock| {
        let rows = cblock.len() / n;
        let ablock = &a[first_row * k..(first_row + rows) * k];
        simd::gemm_acc(ablock, b, cblock, rows, k, n, true);
    });
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` — right operand stored transposed.
///
/// This is a linear layer's forward `Y = X · Wᵀ` when `W` is stored
/// `[n_out, n_in]`. `B` is transposed to `[k, n]` once per call; every
/// element is then the dot product's chain — from `+0.0`, `c + a·b` in
/// ascending `p`, no term skipped. Row-parallel for large inputs with a
/// bitwise-identical result.
pub fn matmul_bt_flat(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let mut bt = vec![0.0f32; k * n];
    transpose_into(b, k, n, k, &mut bt);
    c.fill(0.0);
    parallel::for_each_row_block_mut(c, n, min_rows_for(k * n), |first_row, cblock| {
        let rows = cblock.len() / n;
        let ablock = &a[first_row * k..(first_row + rows) * k];
        simd::gemm_acc(ablock, &bt, cblock, rows, k, n, false);
    });
}

/// `C[k,n] += A[m,k]ᵀ · B[m,n]` — left operand transposed, accumulating.
///
/// This is a linear layer's `dW += dYᵀ · X`. `A` is transposed to
/// `[k, m]` once per call, so every element sums over ascending `i`,
/// skipping `A[i, p] == 0.0`. Threads own disjoint blocks of `C` rows
/// (columns of `A`), so the result is bitwise identical to the serial
/// loop.
pub fn matmul_at_flat_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), m * n);
    debug_assert_eq!(c.len(), k * n);
    if k == 0 || n == 0 {
        return;
    }
    let mut at = vec![0.0f32; k * m];
    transpose_into(a, k, m, k, &mut at);
    parallel::for_each_row_block_mut(c, n, min_rows_for(m * n), |p_lo, cblock| {
        let rows = cblock.len() / n;
        simd::gemm_acc(
            &at[p_lo * m..(p_lo + rows) * m],
            b,
            cblock,
            rows,
            m,
            n,
            true,
        );
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
        let mut t = vec![0.0f32; m * n];
        transpose_into(self.data(), n, m, n, &mut t);
        Tensor::from_vec(Shape::d2(n, m), t)
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
        // A long shared dimension and a 9-column C (one 8-lane tile and a
        // one-lane masked one at AVX2); irrational inputs make any
        // reassociation visible in the low bits.
        let (m, k, n) = (7, 269, 9);
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

    /// The dot-product kernel `matmul_bt_flat` ran before it went through
    /// the tiled GEMM: per element one scalar accumulator from `+0.0`,
    /// `acc + a·b` in ascending `p`, no term skipped.
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

    /// The row kernel `matmul_at_flat_acc` ran before it went through the
    /// tiled GEMM: one scalar row axpy `c[j] += a·b[j]` (a rounded product,
    /// then a rounded sum) per `(i, p)` in ascending `i`, skipping
    /// `A[i, p] == 0.0`.
    fn at_acc_rows(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let brow = &b[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (cv, &bv) in c[p * n..(p + 1) * n].iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
        }
    }

    /// Finite values with `±0.0` mixed in, and `±∞`/NaN where `specials`
    /// is set — a pure function of `(i, salt)`.
    fn awkward(len: usize, salt: u64, specials: bool) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(salt.wrapping_mul(2) + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                match (h >> 59, specials) {
                    (0, _) => 0.0,
                    (1, _) => -0.0,
                    (2, true) => f32::INFINITY,
                    (3, true) => f32::NEG_INFINITY,
                    (4, true) => f32::NAN,
                    _ => ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0,
                }
            })
            .collect()
    }

    /// Bit patterns, with every NaN as `f32::NAN`'s: Rust leaves the sign
    /// and payload of a NaN result unspecified (the compiler may commute
    /// an add, and a vector body and a scalar tail may differ), so a NaN
    /// matches any NaN and every other value matches bit for bit.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    /// Runs `f` at every runnable SIMD level, on one thread and on four
    /// with every row its own block.
    fn on_every_level_and_thread_count(mut f: impl FnMut(String)) {
        use crate::parallel::{with_min_chunk, with_thread_limit};
        use crate::simd::SimdLevel;
        for level in SimdLevel::ALL.into_iter().filter(|l| l.available()) {
            for threads in [1, 4] {
                simd::with_simd_level(level, || {
                    with_thread_limit(threads, || {
                        with_min_chunk(1, || f(format!("{level}, {threads} threads")))
                    })
                });
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The tiled `transpose_into` writes what the one-element-at-a-time
        /// loop writes, for every shape in 1..=20 × 1..=20 (full, partial
        /// and single tiles in either dimension) and a source row stride
        /// at or above the row length.
        #[test]
        fn prop_transpose_into_is_the_naive_loop(slack in 0usize..=3, salt in 0u64..1000) {
            let raw = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            for rows in 1..=20 {
                for cols in 1..=20 {
                    let ld = cols + slack;
                    let x = awkward((rows - 1) * ld + cols, salt, true);
                    let mut expect = vec![0.0f32; rows * cols];
                    for i in 0..rows {
                        for j in 0..cols {
                            expect[j * rows + i] = x[i * ld + j];
                        }
                    }
                    let mut out = awkward(rows * cols, salt + 1, true);
                    transpose_into(&x, ld, rows, cols, &mut out);
                    proptest::prop_assert_eq!(raw(&out), raw(&expect), "rows={} cols={} ld={}", rows, cols, ld);
                }
            }
        }

        /// `matmul_bt_flat` (transpose B, then the tiled GEMM from a
        /// zeroed C with no skip) is bitwise the scalar dot-product
        /// oracle, for C widths hitting every tile and tail.
        #[test]
        fn prop_matmul_bt_flat_is_bitwise_the_dot_product_oracle(
            m in 1usize..=6, k in 0usize..=40, n in 1usize..=130,
            specials in 0u32..2, salt in 0u64..1000,
        ) {
            let specials = specials == 1;
            let a = awkward(m * k, salt, specials);
            let b = awkward(n * k, salt + 1, specials);
            let mut expect = vec![0.0f32; m * n];
            bt_rows(&a, &b, &mut expect, m, k, n);
            on_every_level_and_thread_count(|at| {
                let mut c = awkward(m * n, salt + 2, true);
                matmul_bt_flat(&a, &b, &mut c, m, k, n);
                assert_eq!(bits(&c), bits(&expect), "{at}, m={m} k={k} n={n}");
            });
        }

        /// `matmul_at_flat_acc` (transpose A, then the tiled GEMM with the
        /// zero skip) is bitwise the per-`(i, p)` scalar row-axpy oracle,
        /// accumulating onto a C that holds `-0.0`, `±∞` and NaN.
        #[test]
        fn prop_matmul_at_flat_acc_is_bitwise_the_row_axpy_oracle(
            m in 0usize..=12, k in 1usize..=6, n in 1usize..=130,
            specials in 0u32..2, salt in 0u64..1000,
        ) {
            let specials = specials == 1;
            let a = awkward(m * k, salt, true);
            let b = awkward(m * n, salt + 1, specials);
            let c0 = awkward(k * n, salt + 2, specials);
            let mut expect = c0.clone();
            at_acc_rows(&a, &b, &mut expect, m, k, n);
            on_every_level_and_thread_count(|at| {
                let mut c = c0.clone();
                matmul_at_flat_acc(&a, &b, &mut c, m, k, n);
                assert_eq!(bits(&c), bits(&expect), "{at}, m={m} k={k} n={n}");
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
