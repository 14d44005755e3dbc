//! Error-feedback residual accumulator (paper Algorithms 1/2/4).
//!
//! Every worker keeps a dense buffer `G` into which each iteration's fresh
//! stochastic gradient is accumulated (line 4: `Gᵢ = Gᵢ₋₁ + ∇L`). Top-k
//! extraction removes the selected coordinates from the buffer (line 8
//! stores `¬Mask ⊙ G` as residual); coordinates rejected by the *global*
//! selection are put back (Algorithm 4, line 10) so no gradient mass is
//! ever silently dropped — only delayed.
//!
//! Every extraction runs the one exact, RNG-free streaming kernel of
//! [`crate::topk`]; the training step takes its fused form, which folds
//! the gradient in and selects in a single pass over the buffer, in one
//! of two contracts:
//!
//! - **extract-and-zero** ([`Residual::accumulate_extract_into`]): the
//!   selected coordinates leave the buffer at once; what the caller wants
//!   back it returns with [`Residual::put_back`].
//! - **select-then-retire** ([`Residual::accumulate_select_into`], then
//!   [`Residual::retire`]): the selection stays in the buffer, and once
//!   the global selection is known, one pass over *its* coordinates
//!   zeroes those this buffer's select took. That is line 8 and line 10
//!   together, bitwise, with no walk over the local selection and no copy
//!   of it kept for one.
//!
//! The buffer never holds −0.0: it starts at +0.0, every zeroing writes
//! +0.0, and an IEEE sum is −0.0 only when both operands are — which is
//! what makes the two contracts agree bit for bit.

use crate::topk::{accumulate_select, accumulate_select_compact, topk_sparse_into, TopkScratch};
use crate::{SelectRule, SparseVec};
use gtopk_tensor::simd;

/// Dense error-feedback buffer with top-k extraction.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::Residual;
/// let mut r = Residual::new(4);
/// r.accumulate(&[1.0, -3.0, 0.5, 2.0]);
/// let top = r.extract_topk(2); // takes coordinates 1 and 3
/// assert_eq!(top.indices(), &[1, 3]);
/// // The extracted mass left the buffer; the rest stayed.
/// assert_eq!(r.dense(), &[1.0, 0.0, 0.5, 0.0]);
/// // A globally-rejected coordinate can be returned:
/// r.put_back(&top);
/// assert_eq!(r.dense(), &[1.0, -3.0, 0.5, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Residual {
    acc: Vec<f32>,
    /// Reused top-k selection buffers — extraction is O(dim) scratch that
    /// would otherwise be reallocated every training step.
    scratch: TopkScratch,
}

/// Equality is over the gradient content only; scratch buffers are
/// transient state.
impl PartialEq for Residual {
    fn eq(&self, other: &Self) -> bool {
        self.acc == other.acc
    }
}

impl Residual {
    /// A zeroed residual buffer of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Residual {
            acc: vec![0.0; dim],
            scratch: TopkScratch::new(),
        }
    }

    /// Buffer dimension.
    pub fn dim(&self) -> usize {
        self.acc.len()
    }

    /// Adds a fresh gradient into the buffer (`G += grad`).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != self.dim()`.
    pub fn accumulate(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.acc.len(), "gradient length mismatch");
        simd::axpy(&mut self.acc, grad);
    }

    /// Extracts the top-`k` coordinates by |value|, zeroing them in the
    /// buffer and returning them as a sparse vector.
    ///
    /// Selection scratch is reused across calls, so steady-state cost is
    /// the streaming select itself with no per-step allocation beyond the
    /// returned k-entry vector.
    pub fn extract_topk(&mut self, k: usize) -> SparseVec {
        let mut sv = SparseVec::empty(self.acc.len());
        self.extract_topk_into(k, &mut sv);
        sv
    }

    /// Like [`Residual::extract_topk`] but writing into a caller-supplied
    /// (typically pooled) vector — fully allocation-free in steady state.
    /// Returns the candidate count the select examined.
    pub fn extract_topk_into(&mut self, k: usize, out: &mut SparseVec) -> usize {
        let examined = topk_sparse_into(&self.acc, k, &mut self.scratch, out);
        for &i in out.indices() {
            self.acc[i as usize] = 0.0;
        }
        examined
    }

    /// Fused accumulate + exact extraction: `G += grad` and
    /// [`Residual::extract_topk`] in one memory pass over the buffer (see
    /// [`accumulate_select_compact`]) — bitwise identical, result and
    /// buffer state, to [`Residual::accumulate`] followed by
    /// [`Residual::extract_topk`].
    pub fn accumulate_extract(&mut self, grad: &[f32], k: usize) -> SparseVec {
        let mut sv = SparseVec::empty(self.acc.len());
        self.accumulate_extract_into(grad, k, &mut sv);
        sv
    }

    /// Like [`Residual::accumulate_extract`] but writing into a
    /// caller-supplied vector — fully allocation-free in steady state.
    /// Returns the candidate count the select examined.
    pub fn accumulate_extract_into(
        &mut self,
        grad: &[f32],
        k: usize,
        out: &mut SparseVec,
    ) -> usize {
        accumulate_select_compact(&mut self.acc, grad, k, &mut self.scratch, out)
    }

    /// Fused accumulate + exact selection under the select-then-retire
    /// contract (module docs): `G += grad` and the top-`k` into `out` —
    /// bitwise [`Residual::accumulate_extract_into`]'s selection — but the
    /// selected values stay in the buffer. Returns the rule that tells
    /// which coordinates were selected, for [`Residual::retire`]; it holds
    /// until the buffer is next written.
    pub fn accumulate_select_into(
        &mut self,
        grad: &[f32],
        k: usize,
        out: &mut SparseVec,
    ) -> SelectRule {
        accumulate_select(&mut self.acc, grad, k, &mut self.scratch, out).1
    }

    /// Algorithm 4 lines 8 and 10 after [`Residual::accumulate_select_into`]
    /// returned `rule`: zeroes every coordinate of the global selection
    /// `global` that this buffer's select took (`G ← G ⊙ ¬(Mask ⊙ gMask)`),
    /// in one pass over `global`.
    ///
    /// Bitwise, this is extract-and-zero followed by putting back the
    /// local selection's entries outside `global`: an entry both selected
    /// is zero either way, and one the global selection rejected keeps
    /// `acc[i]` here where it became `0.0 + acc[i]` there. Those are the
    /// same bits because the buffer never holds −0.0 (module docs) and a
    /// NaN in it is the result of arithmetic, hence already quiet, which
    /// `0.0 + NaN` returns unchanged.
    ///
    /// # Panics
    ///
    /// Panics if an index of `global` is out of range.
    pub fn retire(&mut self, rule: SelectRule, global: &[u32]) {
        for &i in global {
            let v = &mut self.acc[i as usize];
            *v = simd::select_f32(rule.admits(i as usize, *v), 0.0, *v);
        }
    }

    /// Returns previously extracted coordinates to the buffer
    /// (`G += rejected`).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn put_back(&mut self, rejected: &SparseVec) {
        assert_eq!(rejected.dim(), self.acc.len(), "sparse dim mismatch");
        rejected.add_into_dense(&mut self.acc);
    }

    /// Returns every entry of `v` whose coordinate is among the ascending
    /// `selected` — bitwise `put_back(&v.partition_by(&mask).0)` without
    /// building the mask or either half. One forward walk of `v` against
    /// `selected`, branch-free: each step rewrites the current entry's
    /// coordinate with either the sum or the unchanged value.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn put_back_selected(&mut self, v: &SparseVec, selected: &[u32]) {
        assert_eq!(v.dim(), self.acc.len(), "sparse dim mismatch");
        let (vi, vv) = (&v.indices, &v.values);
        let (mut x, mut s) = (0, 0);
        while x < vi.len() && s < selected.len() {
            let (i, j) = (vi[x], selected[s]);
            let cur = self.acc[i as usize];
            self.acc[i as usize] = simd::select_f32(i == j, cur + vv[x], cur);
            // Entry x's membership is settled once the walk reaches `i`.
            x += usize::from(i <= j);
            s += usize::from(j <= i);
        }
    }

    /// Immutable view of the dense buffer.
    pub fn dense(&self) -> &[f32] {
        &self.acc
    }

    /// Sum of |values| remaining in the buffer — the "delayed gradient
    /// mass" diagnostics used in tests and experiment logs.
    pub fn l1(&self) -> f32 {
        self.acc.iter().map(|v| v.abs()).sum()
    }

    /// Zeroes the whole buffer.
    pub fn clear(&mut self) {
        self.acc.iter_mut().for_each(|v| *v = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accumulate_then_extract_conserves_mass() {
        let mut r = Residual::new(6);
        let g = [0.1, -2.0, 0.3, 4.0, -0.5, 0.6];
        r.accumulate(&g);
        let before_l1 = r.l1();
        let top = r.extract_topk(2);
        let extracted_l1: f32 = top.values().iter().map(|v| v.abs()).sum();
        assert!((r.l1() + extracted_l1 - before_l1).abs() < 1e-6);
    }

    #[test]
    fn extracted_coordinates_zeroed() {
        let mut r = Residual::new(3);
        r.accumulate(&[5.0, 1.0, -7.0]);
        let top = r.extract_topk(1);
        assert_eq!(top.indices(), &[2]);
        assert_eq!(r.dense(), &[5.0, 1.0, 0.0]);
    }

    #[test]
    fn put_back_restores() {
        let mut r = Residual::new(3);
        r.accumulate(&[1.0, 2.0, 3.0]);
        let top = r.extract_topk(3);
        r.put_back(&top);
        assert_eq!(r.dense(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn put_back_walks_match_partition_then_put_back() {
        // Odd/even and hashed supports, NaN, ±0.0 and denormals in the
        // values, selections that end before, after and inside the vector.
        let dim = 3000usize;
        let pick = |salt: u64, every: u64| -> Vec<u32> {
            (0..dim as u64)
                .filter(|i| {
                    ((i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40).is_multiple_of(every)
                })
                .map(|i| i as u32)
                .collect()
        };
        let special = [f32::NAN, 0.0, -0.0, 1.0e-40, -2.5, f32::INFINITY];
        let v = SparseVec::from_pairs(
            dim,
            pick(1, 3)
                .into_iter()
                .map(|i| {
                    (
                        i,
                        special
                            .get(i as usize % 9)
                            .copied()
                            .unwrap_or(i as f32 - 7.5),
                    )
                })
                .collect(),
        );
        let base: Vec<f32> = (0..dim)
            .map(|i| if i % 5 == 0 { -0.0 } else { i as f32 * 0.25 })
            .collect();
        let bits = |r: &Residual| -> Vec<u32> { r.dense().iter().map(|x| x.to_bits()).collect() };
        let selections = [
            pick(2, 2),
            pick(3, 40),
            v.indices().to_vec(),
            Vec::new(),
            vec![0],
            vec![dim as u32 - 1],
        ];
        for selected in selections {
            let mask = crate::Mask::from_indices(dim, selected.clone());
            let mut want = Residual::new(dim);
            want.accumulate(&base);
            want.put_back(&v.partition_by(&mask).0);
            let mut got = Residual::new(dim);
            got.accumulate(&base);
            got.put_back_selected(&v, &selected);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    /// The one-walk put-back the select-then-retire contract replaced,
    /// kept as the oracle: returns to `acc` every entry of `local` whose
    /// coordinate is not among the ascending `selected`.
    fn put_back_unselected(acc: &mut [f32], local: &SparseVec, selected: &[u32]) {
        let (vi, vv) = (local.indices(), local.values());
        let (mut x, mut s) = (0, 0);
        while x < vi.len() {
            while s < selected.len() && selected[s] < vi[x] {
                s += 1;
            }
            if selected.get(s) != Some(&vi[x]) {
                acc[vi[x] as usize] += vv[x];
            }
            x += 1;
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A value from a small set: ties at every magnitude, NaN, ±0.0 and
    /// denormals among them.
    fn hostile(code: u8) -> f32 {
        match code % 12 {
            0 => f32::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => 1.0e-40,
            4 => -1.0e-40,
            c => c as f32 - 8.0,
        }
    }

    /// Whether any coordinate of `r` holds −0.0.
    fn holds_negative_zero(r: &Residual) -> bool {
        r.dense().iter().any(|v| v.to_bits() == (-0.0f32).to_bits())
    }

    #[test]
    fn residual_accumulates_across_iterations() {
        // A small value ignored twice must eventually win top-1.
        let mut r = Residual::new(2);
        r.accumulate(&[0.6, 1.0]);
        let t1 = r.extract_topk(1);
        assert_eq!(t1.indices(), &[1]);
        r.accumulate(&[0.6, 1.0]);
        let t2 = r.extract_topk(1);
        // residual on coord 0 is now 1.2 > 1.0
        assert_eq!(t2.indices(), &[0]);
        assert!((t2.values()[0] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn fused_accumulate_extract_matches_unfused() {
        let grads: Vec<Vec<f32>> = (0..4)
            .map(|s| {
                (0..257)
                    .map(|i| ((i * 31 + s * 7) % 101) as f32 - 50.0 + (i as f32 * 0.13).sin())
                    .collect()
            })
            .collect();
        let mut fused = Residual::new(257);
        let mut unfused = Residual::new(257);
        for g in &grads {
            let a = fused.accumulate_extract(g, 19);
            unfused.accumulate(g);
            let b = unfused.extract_topk(19);
            assert_eq!(a, b);
            assert_eq!(fused.dense(), unfused.dense());
        }
    }

    #[test]
    fn clear_zeroes() {
        let mut r = Residual::new(2);
        r.accumulate(&[1.0, 2.0]);
        r.clear();
        assert_eq!(r.l1(), 0.0);
    }

    proptest! {
        /// Select-then-retire equals extract-and-zero followed by the
        /// one-walk put-back of the local entries the global selection
        /// rejected, bitwise — selection and buffer — on buffers either
        /// side of the kernel's sampling cut-off, with ties at the k-th
        /// magnitude, NaN and zeros, for k from 0 to past the buffer.
        #[test]
        fn prop_retire_equals_the_one_walk_put_back(
            first in proptest::collection::vec(0u8..=255, 1..64),
            second in proptest::collection::vec(0u8..=255, 1..64),
            large in 0u8..2,
            pick_k in 0usize..6,
            global_salt in 0u64..u64::MAX,
            global_every in 1u64..5,
        ) {
            let n = if large == 1 { 5000 } else { 300 };
            let grad = |codes: &[u8], salt: usize| -> Vec<f32> {
                (0..n).map(|i| hostile(codes[(i * 7 + salt) % codes.len()] ^ (i / 97) as u8)).collect()
            };
            let (g1, g2) = (grad(&first, 0), grad(&second, 3));
            let nnz = g2.iter().filter(|v| crate::topk::mag(**v) > 0.0).count();
            let k = [0, 1, nnz, n / 3, n, n + 7][pick_k];
            let mut want = Residual::new(n);
            want.accumulate(&g1);
            let mut got = want.clone();
            let mut want_local = SparseVec::empty(n);
            want.accumulate_extract_into(&g2, k, &mut want_local);
            let mut local = SparseVec::empty(n);
            let rule = got.accumulate_select_into(&g2, k, &mut local);
            prop_assert_eq!(local.indices(), want_local.indices());
            prop_assert_eq!(bits(local.values()), bits(want_local.values()));
            // A global selection that takes some local coordinates and
            // some that no local select took.
            let global: Vec<u32> = (0..n as u64)
                .filter(|i| ((i ^ global_salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40)
                    .is_multiple_of(global_every))
                .map(|i| i as u32)
                .collect();
            put_back_unselected(&mut want.acc, &want_local, &global);
            got.retire(rule, &global);
            prop_assert_eq!(bits(got.dense()), bits(want.dense()));
        }

        /// No sequence of accumulate, extract, select, retire and
        /// put-back leaves −0.0 in the buffer, whatever signed zeros,
        /// cancelling values and NaNs its inputs carry.
        #[test]
        fn prop_no_operation_leaves_negative_zero(
            ops in proptest::collection::vec(
                (0u8..6, proptest::collection::vec(0u8..=255, 16), 0usize..20),
                1..24,
            ),
        ) {
            let dim = 16;
            let mut r = Residual::new(dim);
            let mut out = SparseVec::empty(dim);
            for (op, codes, k) in ops {
                let g: Vec<f32> = codes.iter().map(|&c| hostile(c)).collect();
                // The buffer's own values negated: a put-back that cancels.
                let minus: Vec<(u32, f32)> = r.dense().iter().enumerate()
                    .filter(|(i, _)| codes[*i] % 2 == 0)
                    .map(|(i, &v)| (i as u32, -v))
                    .collect();
                let minus = SparseVec::from_pairs(dim, minus);
                match op {
                    0 => r.accumulate(&g),
                    1 => { r.accumulate_extract_into(&g, k, &mut out); }
                    2 => {
                        let rule = r.accumulate_select_into(&g, k, &mut out);
                        let global: Vec<u32> = (0..dim as u32).filter(|i| codes[*i as usize] % 3 != 0).collect();
                        r.retire(rule, &global);
                    }
                    3 => r.put_back(&minus),
                    4 => r.put_back_selected(&minus, out.indices()),
                    _ => { r.extract_topk_into(k, &mut out); }
                }
                prop_assert!(!holds_negative_zero(&r), "op {} left -0.0: {:?}", op, r.dense());
            }
        }

        /// No gradient is ever lost: dense(buffer) + densify(extracted)
        /// equals the running sum of all accumulated gradients.
        #[test]
        fn prop_error_feedback_conserves_gradient(
            grads in proptest::collection::vec(
                proptest::collection::vec(-3.0f32..3.0, 16), 1..6),
            k in 1usize..8,
        ) {
            let dim = 16;
            let mut r = Residual::new(dim);
            let mut applied = vec![0.0f64; dim];
            let mut total = vec![0.0f64; dim];
            for g in &grads {
                r.accumulate(g);
                for (t, &x) in total.iter_mut().zip(g.iter()) { *t += x as f64; }
                let ext = r.extract_topk(k);
                for (i, v) in ext.iter() { applied[i as usize] += v as f64; }
            }
            for i in 0..dim {
                let reconstructed = applied[i] + r.dense()[i] as f64;
                prop_assert!((reconstructed - total[i]).abs() < 1e-3,
                             "coord {i}: {reconstructed} vs {}", total[i]);
            }
        }
    }
}
