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
//! [`crate::topk`]; the training step takes its fused form,
//! [`Residual::accumulate_extract_into`], which folds the gradient in and
//! selects in a single pass over the buffer.

use crate::topk::{accumulate_select_compact, topk_sparse_into, TopkScratch};
use crate::SparseVec;
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

    /// Algorithm 4 line 10 in one walk: returns to the buffer every entry
    /// of `local` whose coordinate is *not* among the ascending `selected`
    /// (`G += G̃ ⊙ ¬gMask`) — bitwise
    /// `put_back(&local.partition_by(&mask).1)` without building the mask
    /// or either half.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn put_back_unselected(&mut self, local: &SparseVec, selected: &[u32]) {
        self.put_back_where(local, selected, false);
    }

    /// The other half: returns every entry of `v` whose coordinate *is*
    /// among the ascending `selected` — bitwise
    /// `put_back(&v.partition_by(&mask).0)`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn put_back_selected(&mut self, v: &SparseVec, selected: &[u32]) {
        self.put_back_where(v, selected, true);
    }

    /// One forward walk of `v` against `selected` (both ascending), adding
    /// the entries whose membership equals `inside` straight into the
    /// buffer. Branch-free: each step rewrites the current entry's
    /// coordinate with either the sum or the unchanged value.
    fn put_back_where(&mut self, v: &SparseVec, selected: &[u32], inside: bool) {
        assert_eq!(v.dim(), self.acc.len(), "sparse dim mismatch");
        let (vi, vv) = (&v.indices, &v.values);
        let (mut x, mut s) = (0, 0);
        while x < vi.len() && s < selected.len() {
            let (i, j) = (vi[x], selected[s]);
            // Entry x's membership is settled once the walk reaches `i`.
            let settled = i <= j;
            let cur = self.acc[i as usize];
            let add = settled & ((i == j) == inside);
            self.acc[i as usize] = simd::select_f32(add, cur + vv[x], cur);
            x += usize::from(settled);
            s += usize::from(j <= i);
        }
        if !inside {
            for (&i, &val) in vi[x..].iter().zip(&vv[x..]) {
                self.acc[i as usize] += val;
            }
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
            let (inside, outside) = v.partition_by(&mask);
            for (walk_inside, half) in [(false, outside), (true, inside)] {
                let mut want = Residual::new(dim);
                want.accumulate(&base);
                want.put_back(&half);
                let mut got = Residual::new(dim);
                got.accumulate(&base);
                if walk_inside {
                    got.put_back_selected(&v, &selected);
                } else {
                    got.put_back_unselected(&v, &selected);
                }
                assert_eq!(bits(&got), bits(&want), "inside={walk_inside}");
            }
        }
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
