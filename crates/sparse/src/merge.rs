//! The paper's Definition 1: the binary top-k merge operator `⊤`.
//!
//! `a ⊤ b = mask ⊙ (a + b)` where `mask` keeps the `k` largest magnitudes
//! of the sparse sum. The operator is the reduction step of
//! gTopKAllReduce's binomial tree: each round a worker receives its
//! partner's k-sparse vector, merge-adds it into its own, and re-selects
//! the top-k of the (≤ 2k)-entry result.
//!
//! # Determinism
//!
//! The re-selection over the (≤ 2k)-entry sum *is* [`crate::topk_indices`]'s
//! streaming kernel run over the sum's values — strictly-above-threshold
//! candidates ⊇ answer, ties resolved by an ascending scan — so it shares
//! the total order (larger |value| first, lower position, i.e. lower
//! coordinate index, wins; NaN magnitude counts as 0) and returns
//! positions already ascending. Determinism here is what keeps every
//! replica's model bitwise identical across ranks.
//!
//! # Scratch reuse
//!
//! The `_into` variants ([`topk_merge_into`], [`topk_merge_split_into`])
//! merge with a two-pointer walk into reusable [`MergeScratch`] buffers and
//! write results into caller-owned [`SparseVec`]s, so the `O(log P)` merge
//! rounds of one all-reduce perform zero steady-state allocation — there is
//! no intermediate `a.add(b)` vector and no dense mask/partition pass.

use crate::topk::{topk_indices_into, TopkScratch};
use crate::SparseVec;

/// Reusable buffers for the `_into` merge kernels.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    /// Merged indices of `a + b` (≤ nnz(a) + nnz(b) entries).
    sum_idx: Vec<u32>,
    /// Values parallel to `sum_idx`.
    sum_val: Vec<f32>,
    /// Selection scratch for the top-k over the merged values.
    select: TopkScratch,
    /// Selected positions into `sum_idx`/`sum_val`, ascending.
    sel: Vec<u32>,
}

impl MergeScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        MergeScratch::default()
    }

    /// Two-pointer merge-add of `a` and `b` into the sum buffers.
    fn merge_sum(&mut self, a: &SparseVec, b: &SparseVec) {
        assert_eq!(a.dim, b.dim, "dimension mismatch in sparse merge");
        self.sum_idx.clear();
        self.sum_val.clear();
        self.sum_idx.reserve(a.nnz() + b.nnz());
        self.sum_val.reserve(a.nnz() + b.nnz());
        let (ai, av) = (&a.indices, &a.values);
        let (bi, bv) = (&b.indices, &b.values);
        let (mut x, mut y) = (0usize, 0usize);
        while x < ai.len() && y < bi.len() {
            let (ia, ib) = (ai[x], bi[y]);
            if ia == ib {
                self.sum_idx.push(ia);
                self.sum_val.push(av[x] + bv[y]);
                x += 1;
                y += 1;
            } else if ia < ib {
                self.sum_idx.push(ia);
                self.sum_val.push(av[x]);
                x += 1;
            } else {
                self.sum_idx.push(ib);
                self.sum_val.push(bv[y]);
                y += 1;
            }
        }
        self.sum_idx.extend_from_slice(&ai[x..]);
        self.sum_val.extend_from_slice(&av[x..]);
        self.sum_idx.extend_from_slice(&bi[y..]);
        self.sum_val.extend_from_slice(&bv[y..]);
    }
}

/// Applies the paper's `⊤` operator into `out`: top-`k` of the sparse sum
/// `a + b`, merging and selecting entirely inside reusable buffers.
///
/// The result has at most `min(k, nnz(a+b))` entries. `out` may alias
/// neither input.
///
/// # Panics
///
/// Panics if `a` and `b` have different dimensions.
pub fn topk_merge_into(
    a: &SparseVec,
    b: &SparseVec,
    k: usize,
    scratch: &mut MergeScratch,
    out: &mut SparseVec,
) {
    scratch.merge_sum(a, b);
    out.dim = a.dim;
    out.indices.clear();
    out.values.clear();
    if scratch.sum_idx.len() <= k {
        out.indices.extend_from_slice(&scratch.sum_idx);
        out.values.extend_from_slice(&scratch.sum_val);
        return;
    }
    topk_indices_into(&scratch.sum_val, k, &mut scratch.select, &mut scratch.sel);
    // `sel` holds ascending positions and positions ascend in coordinate
    // index, so `out.indices` stays strictly ascending.
    for &pos in &scratch.sel {
        out.indices.push(scratch.sum_idx[pos as usize]);
        out.values.push(scratch.sum_val[pos as usize]);
    }
}

/// Like [`topk_merge_into`] but also collects the truncated entries of the
/// sum into `rejected` — the exact values an interior gTopKAllReduce tree
/// merge would silently drop, needed for rejection feedback.
///
/// `kept` receives `a ⊤ b`; `rejected` receives every entry of `a + b`
/// that the selection discarded (empty when `nnz(a+b) <= k`).
///
/// # Panics
///
/// Panics if `a` and `b` have different dimensions.
pub fn topk_merge_split_into(
    a: &SparseVec,
    b: &SparseVec,
    k: usize,
    scratch: &mut MergeScratch,
    kept: &mut SparseVec,
    rejected: &mut SparseVec,
) {
    scratch.merge_sum(a, b);
    kept.dim = a.dim;
    kept.indices.clear();
    kept.values.clear();
    rejected.dim = a.dim;
    rejected.indices.clear();
    rejected.values.clear();
    if scratch.sum_idx.len() <= k {
        kept.indices.extend_from_slice(&scratch.sum_idx);
        kept.values.extend_from_slice(&scratch.sum_val);
        return;
    }
    topk_indices_into(&scratch.sum_val, k, &mut scratch.select, &mut scratch.sel);
    let mut next_sel = 0usize;
    for pos in 0..scratch.sum_idx.len() {
        let selected = scratch.sel.get(next_sel) == Some(&(pos as u32));
        let target = if selected {
            next_sel += 1;
            &mut *kept
        } else {
            &mut *rejected
        };
        target.indices.push(scratch.sum_idx[pos]);
        target.values.push(scratch.sum_val[pos]);
    }
}

/// Applies the paper's `⊤` operator: top-`k` of the sparse sum `a + b`.
///
/// Allocating wrapper around [`topk_merge_into`]; hot paths hold a
/// [`MergeScratch`] and call the `_into` variant instead.
///
/// # Panics
///
/// Panics if `a` and `b` have different dimensions.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::{SparseVec, topk_merge};
/// let a = SparseVec::from_pairs(6, vec![(0, 3.0), (2, -1.0)]);
/// let b = SparseVec::from_pairs(6, vec![(2, -1.5), (5, 0.5)]);
/// let m = topk_merge(&a, &b, 2);
/// assert_eq!(m.indices(), &[0, 2]);
/// assert_eq!(m.values(), &[3.0, -2.5]);
/// ```
pub fn topk_merge(a: &SparseVec, b: &SparseVec, k: usize) -> SparseVec {
    let mut out = SparseVec::empty(a.dim());
    topk_merge_into(a, b, k, &mut MergeScratch::new(), &mut out);
    out
}

/// Reduces many sparse vectors with `⊤` left-to-right.
///
/// `topk_merge_many([g1, g2, g3], k) = (g1 ⊤ g2) ⊤ g3`, matching the order
/// the paper writes `G̃ = G̃₁ ⊤ G̃₂ ⊤ … ⊤ G̃_P`. Returns an empty vector of
/// dimension 0 when `vs` is empty. Ping-pongs two accumulator buffers and
/// one scratch, so the fold never clones an input.
pub fn topk_merge_many(vs: &[SparseVec], k: usize) -> SparseVec {
    let Some(first) = vs.first() else {
        return SparseVec::empty(0);
    };
    let mut scratch = MergeScratch::new();
    let mut acc = SparseVec::empty(first.dim());
    truncate_topk_into(first, k, &mut scratch, &mut acc);
    let mut tmp = SparseVec::empty(first.dim());
    for v in &vs[1..] {
        topk_merge_into(&acc, v, k, &mut scratch, &mut tmp);
        std::mem::swap(&mut acc, &mut tmp);
    }
    acc
}

/// Copies the `k` largest-magnitude entries of `v` into `out` (all of them
/// if `nnz(v) <= k`).
fn truncate_topk_into(v: &SparseVec, k: usize, scratch: &mut MergeScratch, out: &mut SparseVec) {
    out.dim = v.dim;
    out.indices.clear();
    out.values.clear();
    if v.nnz() <= k {
        out.indices.extend_from_slice(&v.indices);
        out.values.extend_from_slice(&v.values);
        return;
    }
    topk_indices_into(&v.values, k, &mut scratch.select, &mut scratch.sel);
    for &pos in &scratch.sel {
        out.indices.push(v.indices[pos as usize]);
        out.values.push(v.values[pos as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk_sparse;
    use proptest::prelude::*;

    #[test]
    fn merge_keeps_global_largest() {
        let a = SparseVec::from_pairs(8, vec![(0, 1.0), (1, 5.0)]);
        let b = SparseVec::from_pairs(8, vec![(2, -4.0), (3, 0.5)]);
        let m = topk_merge(&a, &b, 2);
        assert_eq!(m.indices(), &[1, 2]);
        assert_eq!(m.values(), &[5.0, -4.0]);
    }

    #[test]
    fn merge_sums_overlapping_coordinates_before_selecting() {
        // Two small values on the same coordinate outrank one big value.
        let a = SparseVec::from_pairs(4, vec![(0, 2.0), (1, 1.6)]);
        let b = SparseVec::from_pairs(4, vec![(1, 1.6)]);
        let m = topk_merge(&a, &b, 1);
        assert_eq!(m.indices(), &[1]);
        assert!((m.values()[0] - 3.2).abs() < 1e-6);
    }

    #[test]
    fn merge_many_empty_and_single() {
        assert_eq!(topk_merge_many(&[], 3).dim(), 0);
        let a = SparseVec::from_pairs(4, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        let m = topk_merge_many(std::slice::from_ref(&a), 2);
        assert_eq!(m.indices(), &[1, 2]);
    }

    #[test]
    fn result_never_exceeds_k_entries() {
        let a = SparseVec::from_pairs(10, (0..5).map(|i| (i, 1.0 + i as f32)).collect());
        let b = SparseVec::from_pairs(10, (5..10).map(|i| (i, 1.0 + i as f32)).collect());
        let m = topk_merge(&a, &b, 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.indices(), &[7, 8, 9]);
    }

    #[test]
    fn split_partitions_the_exact_sum() {
        let a = SparseVec::from_pairs(10, vec![(0, 3.0), (2, 1.0), (5, -0.5)]);
        let b = SparseVec::from_pairs(10, vec![(2, 1.5), (7, -4.0)]);
        let mut scratch = MergeScratch::new();
        let mut kept = SparseVec::empty(0);
        let mut rejected = SparseVec::empty(0);
        topk_merge_split_into(&a, &b, 2, &mut scratch, &mut kept, &mut rejected);
        assert_eq!(kept, topk_merge(&a, &b, 2));
        // kept ∪ rejected == a + b exactly, disjointly.
        let sum = a.add(&b);
        assert_eq!(kept.nnz() + rejected.nnz(), sum.nnz());
        for (i, v) in sum.iter() {
            let in_kept = kept.contains(i);
            let in_rej = rejected.contains(i);
            assert!(in_kept ^ in_rej, "coord {i} must be in exactly one side");
            let got = if in_kept {
                kept.get(i)
            } else {
                rejected.get(i)
            };
            assert_eq!(got, v);
        }
    }

    #[test]
    fn split_with_no_truncation_rejects_nothing() {
        let a = SparseVec::from_pairs(6, vec![(1, 1.0)]);
        let b = SparseVec::from_pairs(6, vec![(4, -2.0)]);
        let mut kept = SparseVec::empty(0);
        let mut rejected = SparseVec::from_pairs(6, vec![(0, 9.0)]); // stale content
        topk_merge_split_into(
            &a,
            &b,
            5,
            &mut MergeScratch::new(),
            &mut kept,
            &mut rejected,
        );
        assert_eq!(kept, a.add(&b));
        assert!(rejected.is_empty());
    }

    #[test]
    fn scratch_reuse_across_merges_is_clean() {
        let mut scratch = MergeScratch::new();
        let mut out = SparseVec::empty(0);
        for seed in 0..6u32 {
            let a = SparseVec::from_pairs(
                40,
                (0..10)
                    .map(|i| ((i * 3 + seed) % 40, i as f32 - 4.5))
                    .collect(),
            );
            let b = SparseVec::from_pairs(
                40,
                (0..10)
                    .map(|i| ((i * 7 + seed) % 40, 4.5 - i as f32))
                    .collect(),
            );
            topk_merge_into(&a, &b, 6, &mut scratch, &mut out);
            assert_eq!(out, topk_merge(&a, &b, 6), "seed {seed}");
        }
    }

    proptest! {
        /// ⊤ agrees with "densify, add, exact top-k".
        #[test]
        fn prop_merge_matches_dense_reference(
            pa in proptest::collection::vec((0u32..50, -10.0f32..10.0), 0..20),
            pb in proptest::collection::vec((0u32..50, -10.0f32..10.0), 0..20),
            k in 1usize..12,
        ) {
            let a = SparseVec::from_pairs(50, pa);
            let b = SparseVec::from_pairs(50, pb);
            let m = topk_merge(&a, &b, k);

            let mut dense = a.to_dense();
            for (x, y) in dense.iter_mut().zip(b.to_dense()) { *x += y; }
            let reference = topk_sparse(&dense, k);

            // Compare magnitudes rather than exact index sets: ties between
            // an explicit zero entry and an absent entry may legitimately
            // differ. Selected magnitudes must match as multisets.
            let mut got: Vec<f32> = m.values().iter().map(|v| v.abs()).collect();
            let mut want: Vec<f32> = reference.values().iter().map(|v| v.abs()).collect();
            got.sort_by(|x, y| y.partial_cmp(x).unwrap());
            want.sort_by(|x, y| y.partial_cmp(x).unwrap());
            want.truncate(got.len());
            for (g, w) in got.iter().zip(want.iter()) {
                prop_assert!((g - w).abs() < 1e-4, "got {g} want {w}");
            }
        }

        /// ⊤ is commutative in the selected magnitude multiset.
        #[test]
        fn prop_merge_commutative_magnitudes(
            pa in proptest::collection::vec((0u32..30, -5.0f32..5.0), 0..15),
            pb in proptest::collection::vec((0u32..30, -5.0f32..5.0), 0..15),
            k in 1usize..8,
        ) {
            let a = SparseVec::from_pairs(30, pa);
            let b = SparseVec::from_pairs(30, pb);
            let ab = topk_merge(&a, &b, k);
            let ba = topk_merge(&b, &a, k);
            let mut ma: Vec<f32> = ab.values().iter().map(|v| v.abs()).collect();
            let mut mb: Vec<f32> = ba.values().iter().map(|v| v.abs()).collect();
            ma.sort_by(|x, y| x.partial_cmp(y).unwrap());
            mb.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(ma.len(), mb.len());
            for (x, y) in ma.iter().zip(mb.iter()) {
                prop_assert!((x - y).abs() < 1e-5);
            }
        }

        /// The in-place split merge partitions the exact sum: kept equals
        /// the ⊤ result and kept ⊎ rejected reconstructs a + b.
        #[test]
        fn prop_split_merge_partitions_sum(
            pa in proptest::collection::vec((0u32..40, -6.0f32..6.0), 0..16),
            pb in proptest::collection::vec((0u32..40, -6.0f32..6.0), 0..16),
            k in 1usize..10,
        ) {
            let a = SparseVec::from_pairs(40, pa);
            let b = SparseVec::from_pairs(40, pb);
            let mut kept = SparseVec::empty(0);
            let mut rejected = SparseVec::empty(0);
            topk_merge_split_into(&a, &b, k, &mut MergeScratch::new(),
                                  &mut kept, &mut rejected);
            prop_assert_eq!(&kept, &topk_merge(&a, &b, k));
            let reunion = kept.add(&rejected);
            prop_assert_eq!(reunion, a.add(&b));
        }
    }
}
