//! The paper's Definition 1: the binary top-k merge operator `⊤`.
//!
//! `a ⊤ b = mask ⊙ (a + b)` where `mask` keeps the `k` largest magnitudes
//! of the sparse sum. The operator is the reduction step of
//! gTopKAllReduce's binomial tree: each round a worker receives its
//! partner's k-sparse vector, merge-adds it into its own, and re-selects
//! the top-k of the (≤ 2k)-entry result.
//!
//! # The kernel
//!
//! Both [`topk_merge_into`] and [`topk_merge_split_into`]:
//!
//! 1. make **one branch-free two-pointer walk** over `a` and `b` that
//!    writes every entry of the sum, ascending, into the scratch's slots —
//!    the sum is materialised as packed (index, value) pairs;
//! 2. run **the selection kernel** of [`crate::topk`] over those pairs,
//!    exactly as the local select runs over a dense buffer: a sample at
//!    stratified positions of the sum gives the two-sided cut, one packed
//!    pass collects the candidates above its `t_lo`, and the tail (band,
//!    radix select, emit) writes the kept pairs straight into the result,
//!    already sorted. For the split the emit reads the whole sum, so the
//!    rejects come out ascending too.
//!
//! Materialising the sum costs one write of `nnz(a) + nnz(b)` pairs. A
//! kernel that never materialised it had to sample the sum through
//! galloping searches of the other input, walk both inputs a second time
//! to collect candidates, and slot the rejected candidates back among the
//! certain rejects: at `k = 250 000` the galloping sample alone took
//! 1.7 ms of a 5.2–5.9 ms merge. Cancellation needs no case of its own:
//! when fewer than `k` sum entries clear the sampled cut, every entry is
//! a candidate — the selection kernel's own fallback — and below the
//! kernel's 4096-entry cut-off no sample is taken at all.
//!
//! # Determinism
//!
//! Whatever the sample, the result is the exact top-k of the sum under
//! the selection kernel's total order — larger |value| first, lower
//! coordinate index wins ties, NaN magnitude counts as 0 — so it is a
//! pure function of `a` and `b`, bitwise the sum's values at the selected
//! coordinates. Determinism here is what keeps every replica's model
//! bitwise identical across ranks.
//!
//! # Scratch reuse
//!
//! The `_into` variants work in reusable [`MergeScratch`] buffers sized by
//! `nnz(a) + nnz(b)` and write results into caller-owned [`SparseVec`]s,
//! so the `O(log P)` merge rounds of one all-reduce perform zero
//! steady-state allocation — there is no intermediate `a.add(b)` vector
//! and no dense mask/partition pass.

use crate::topk::{select, Input, TopkScratch};
use crate::SparseVec;
use gtopk_tensor::simd::select_f32;
use std::hint::select_unpredictable;

/// Reusable buffers for the `_into` merge kernels: the materialised sum
/// and the selection kernel's scratch.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    /// The sum's indices, ascending. A grow-only array of slots: a merge
    /// of `n` input entries writes into the first `n` by position, so its
    /// writes need no branch and steady state neither allocates nor
    /// clears.
    sum_idx: Vec<u32>,
    /// Values parallel to `sum_idx`.
    sum_val: Vec<f32>,
    /// The selection's candidates and band.
    topk: TopkScratch,
}

impl MergeScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        MergeScratch::default()
    }
}

/// The first `n` slots of a grow-only buffer; only growth is zero-filled.
fn slots<T: Copy + Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::default());
    }
    &mut buf[..n]
}

/// Step 1: the two-pointer walk over `a + b`, writing every sum entry,
/// ascending, into the slots `idx`/`val`. Returns the sum's length. Every
/// step is branch-free: which input advances — and whether the entry is
/// `a`'s, `b`'s or their sum — is a coin toss per step on merged
/// supports.
fn sum_into(a: &SparseVec, b: &SparseVec, idx: &mut Vec<u32>, val: &mut Vec<f32>) -> usize {
    let n = a.nnz() + b.nnz();
    let (idx, val) = (slots(idx, n), slots(val, n));
    let (ai, av, bi, bv) = (&a.indices, &a.values, &b.indices, &b.values);
    let (mut x, mut y, mut len) = (0, 0, 0);
    while x < ai.len() && y < bi.len() {
        let (ia, ib) = (ai[x], bi[y]);
        let (va, vb) = (av[x], bv[y]);
        let (take_a, take_b) = (ia <= ib, ib <= ia);
        let one = select_f32(take_a, va, vb);
        idx[len] = select_unpredictable(take_a, ia, ib);
        val[len] = select_f32(take_a & take_b, va + vb, one);
        len += 1;
        x += usize::from(take_a);
        y += usize::from(take_b);
    }
    // At most one input has entries left.
    for (rest_idx, rest_val) in [(&ai[x..], &av[x..]), (&bi[y..], &bv[y..])] {
        idx[len..len + rest_idx.len()].copy_from_slice(rest_idx);
        val[len..len + rest_val.len()].copy_from_slice(rest_val);
        len += rest_idx.len();
    }
    len
}

/// The `⊤`: writes `a ⊤ b` into `kept` and, when given, every other
/// entry of `a + b` into `rejected` (both ascending). Returns how many
/// sum entries the selection's tail examined — the candidate count, which
/// is the whole sum when no cut was taken or cancellation left fewer than
/// `k` candidates.
fn fused_merge(
    a: &SparseVec,
    b: &SparseVec,
    k: usize,
    scratch: &mut MergeScratch,
    kept: &mut SparseVec,
    rejected: Option<&mut SparseVec>,
) -> usize {
    assert_eq!(a.dim, b.dim, "dimension mismatch in sparse merge");
    let MergeScratch {
        sum_idx,
        sum_val,
        topk,
    } = scratch;
    let n = sum_into(a, b, sum_idx, sum_val);
    kept.dim = a.dim;
    kept.clear();
    let rejected = rejected.map(|rejected| {
        rejected.dim = a.dim;
        rejected.clear();
        (&mut rejected.indices, &mut rejected.values)
    });
    let kept = (&mut kept.indices, &mut kept.values);
    let sum = Input::Packed(&sum_idx[..n], &sum_val[..n]);
    select(sum, k, topk, kept, rejected).0
}

/// Applies the paper's `⊤` operator into `out`: top-`k` of the sparse sum
/// `a + b`, merging and selecting entirely inside reusable buffers (the
/// kernel of the module docs).
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
    fused_merge(a, b, k, scratch, out, None);
}

/// Like [`topk_merge_into`] but also collects the truncated entries of the
/// sum into `rejected` — the exact values an interior gTopKAllReduce tree
/// merge would silently drop, needed for rejection feedback.
///
/// `kept` receives `a ⊤ b`; `rejected` receives every entry of `a + b`
/// that the selection discarded (empty when `nnz(a+b) <= k`), both
/// written by the same emit scan over the materialised sum.
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
    fused_merge(a, b, k, scratch, kept, Some(rejected));
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
/// the paper writes `G̃ = G̃₁ ⊤ G̃₂ ⊤ … ⊤ G̃_P`; the first vector is
/// truncated to its own top-`k` (a merge with the empty vector). Returns
/// an empty vector of dimension 0 when `vs` is empty. Ping-pongs two
/// accumulator buffers and one scratch, so the fold never clones an
/// input.
pub fn topk_merge_many(vs: &[SparseVec], k: usize) -> SparseVec {
    let Some(first) = vs.first() else {
        return SparseVec::empty(0);
    };
    let mut scratch = MergeScratch::new();
    let mut acc = SparseVec::empty(first.dim());
    topk_merge_into(
        first,
        &SparseVec::empty(first.dim()),
        k,
        &mut scratch,
        &mut acc,
    );
    let mut tmp = SparseVec::empty(first.dim());
    for v in &vs[1..] {
        topk_merge_into(&acc, v, k, &mut scratch, &mut tmp);
        std::mem::swap(&mut acc, &mut tmp);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::{mag, sample_positions};
    use crate::topk_sparse;
    use proptest::prelude::*;

    fn bits(v: &SparseVec) -> (usize, Vec<u32>, Vec<u32>) {
        let vals = v.values().iter().map(|x| x.to_bits()).collect();
        (v.dim(), v.indices().to_vec(), vals)
    }

    /// The pre-fusion merge, kept as the oracle: the two-pointer sum
    /// ([`SparseVec::add`]), then a full sort of its positions under the
    /// selection order — larger magnitude (NaN as 0), then lower
    /// coordinate — split into the first `k` and the rest.
    fn oracle_split(a: &SparseVec, b: &SparseVec, k: usize) -> (SparseVec, SparseVec) {
        let sum = a.add(b);
        let vals = sum.values();
        let mut order: Vec<usize> = (0..sum.nnz()).collect();
        order.sort_by(|&x, &y| mag(vals[y]).total_cmp(&mag(vals[x])).then(x.cmp(&y)));
        let mut keep = vec![false; sum.nnz()];
        order.iter().take(k).for_each(|&p| keep[p] = true);
        let (mut kept, mut rejected) = (SparseVec::empty(sum.dim()), SparseVec::empty(sum.dim()));
        for (p, (i, v)) in sum.iter().enumerate() {
            let side = if keep[p] { &mut kept } else { &mut rejected };
            side.indices.push(i);
            side.values.push(v);
        }
        (kept, rejected)
    }

    /// A hash of `i` under `seed`, uniform over `u64`.
    fn hash(i: u64, seed: u64) -> u64 {
        let z = (i ^ seed.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
    }

    /// A heavy-tailed value.
    fn heavy(i: u64, seed: u64) -> f32 {
        let u = (hash(i, seed) >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        u * u * u * 8.0
    }

    /// Two vectors of `n` entries each over a `16·n`-wide power-of-two
    /// dimension, sharing `shared_pct` % of their coordinates, with values
    /// of one hostile `shape`: 0 heavy-tailed; 1 NaN, ±0.0, ±inf,
    /// denormals and ties among them; 2 all magnitudes equal; 3 `b = −a`
    /// on every shared coordinate; 4 small integers, so every magnitude
    /// ties across `a`, `b` and their sums.
    fn pair(n: usize, shared_pct: usize, shape: usize, seed: u64) -> (SparseVec, SparseVec) {
        let dim = (16 * n).next_power_of_two();
        // An odd multiplier permutes 0..dim: a takes the images of 0..n,
        // b those of [n - shared, 2n - shared).
        let coord = |j: usize| (j.wrapping_mul(0x9e37_79b1) % dim) as u32;
        let shared = n * shared_pct / 100;
        let value = |c: u32, side: u64| -> f32 {
            let c = u64::from(c);
            match shape {
                1 => match hash(c, seed + side) % 10 {
                    0 => f32::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => 1.0e-40,
                    6 => -2.5,
                    7 => 2.5,
                    _ => heavy(c, seed + side),
                },
                2 if hash(c, seed + side).is_multiple_of(2) => 3.0,
                2 => -3.0,
                4 => (hash(c, seed + side) % 9) as f32 - 4.0,
                _ => heavy(c, seed + side),
            }
        };
        let a = SparseVec::from_pairs(
            dim,
            (0..n).map(|j| (coord(j), value(coord(j), 0))).collect(),
        );
        let b = SparseVec::from_pairs(
            dim,
            (n - shared..2 * n - shared)
                .map(|j| {
                    let c = coord(j);
                    let v = if shape == 3 && j < n {
                        -a.get(c)
                    } else {
                        value(c, 1)
                    };
                    (c, v)
                })
                .collect(),
        );
        (a, b)
    }

    /// Both fused merges against the oracle, bitwise, reusing one scratch
    /// so stale slots from a larger merge are exercised too.
    fn assert_matches_oracle(a: &SparseVec, b: &SparseVec, k: usize, scratch: &mut MergeScratch) {
        let (want_kept, want_rejected) = oracle_split(a, b, k);
        let what = format!("na={} nb={} k={k}", a.nnz(), b.nnz());
        let mut out = SparseVec::from_pairs(3, vec![(1, 7.0)]);
        topk_merge_into(a, b, k, scratch, &mut out);
        assert_eq!(bits(&out), bits(&want_kept), "plain {what}");
        let mut kept = SparseVec::empty(0);
        let mut rejected = SparseVec::from_pairs(3, vec![(2, 7.0)]);
        topk_merge_split_into(a, b, k, scratch, &mut kept, &mut rejected);
        assert_eq!(bits(&kept), bits(&want_kept), "split kept {what}");
        assert_eq!(
            bits(&rejected),
            bits(&want_rejected),
            "split rejected {what}"
        );
    }

    #[test]
    fn fused_merges_match_the_oracle_on_hostile_inputs() {
        let mut scratch = MergeScratch::new();
        // Both sides of the 4096-entry cut-off.
        for n in [50usize, 3000] {
            for shared_pct in [0, 50, 100] {
                for shape in 0..4 {
                    let (a, b) = pair(n, shared_pct, shape, (n + shape) as u64);
                    let n_sum = a.add(&b).nnz();
                    let ks = [
                        0,
                        1,
                        n_sum / 4,
                        n_sum / 2,
                        n_sum - 1,
                        n_sum,
                        n_sum + 1,
                        a.nnz() + b.nnz(),
                    ];
                    for k in ks {
                        assert_matches_oracle(&a, &b, k, &mut scratch);
                    }
                }
            }
        }
    }

    #[test]
    fn the_band_engages_on_benchmark_shaped_inputs_and_cancellation_falls_back() {
        // Two top-k selections of heavy-tailed gradients whose supports
        // partly overlap, merged at the same k — the tree's shape at the
        // first warm-up epoch's density.
        let dim = 1usize << 16;
        let k = dim / 4;
        let grad = |seed: u64| -> Vec<f32> {
            (0..dim as u64)
                .map(|i| heavy(i, if i % 3 == 0 { 99 } else { seed }))
                .collect()
        };
        let a = crate::topk_sparse(&grad(1), k);
        let b = crate::topk_sparse(&grad(2), k);
        let n_sum = a.add(&b).nnz();
        assert!(n_sum > k + k / 4, "n_sum {n_sum}");
        let mut scratch = MergeScratch::new();
        let (want_kept, want_rejected) = oracle_split(&a, &b, k);
        let mut kept = SparseVec::empty(dim);
        let mut rejected = SparseVec::empty(dim);
        for split in [false, true] {
            let side = split.then_some(&mut rejected);
            let examined = fused_merge(&a, &b, k, &mut scratch, &mut kept, side);
            assert!(
                (k..k + k / 4).contains(&examined),
                "split={split}: examined {examined} of {n_sum}"
            );
            assert_eq!(bits(&kept), bits(&want_kept));
        }
        assert_eq!(bits(&rejected), bits(&want_rejected));
        // b = −a: the sum is all zeros, nothing clears the sampled cut,
        // and every sum entry becomes a candidate.
        let mut minus_a = a.clone();
        minus_a.scale(-1.0);
        let examined = fused_merge(&a, &minus_a, k, &mut scratch, &mut kept, None);
        assert_eq!(examined, a.nnz());
        assert_eq!(bits(&kept), bits(&oracle_split(&a, &minus_a, k).0));
    }

    #[test]
    fn a_sample_that_puts_more_than_k_above_hi_stays_exact() {
        // Small magnitudes exactly at the sampled positions, large ones
        // everywhere else: the cut lands far too low, more than k entries
        // clear `hi`, and every candidate turns band.
        let n = 6000;
        let sampled: Vec<usize> = sample_positions(n, 16).collect();
        let a = SparseVec::from_pairs(
            4 * n,
            (0..n)
                .map(|j| {
                    let v = match sampled.binary_search(&j) {
                        Ok(s) => 0.1 + s as f32 * 1e-4,
                        Err(_) => 10.0 + (j % 7) as f32,
                    };
                    (2 * j as u32, v)
                })
                .collect(),
        );
        let b = SparseVec::empty(4 * n);
        let mut scratch = MergeScratch::new();
        for k in [n / 4, n / 2] {
            assert_matches_oracle(&a, &b, k, &mut scratch);
            let mut out = SparseVec::empty(0);
            let examined = fused_merge(&a, &b, k, &mut scratch, &mut out, None);
            // Only sampled entries can sit at or below the low cut.
            assert!(
                (n - n / 16..n).contains(&examined),
                "k={k}: examined {examined}"
            );
        }
    }

    #[test]
    fn sample_positions_ascend_one_per_block() {
        for (n, step) in [
            (1000usize, 16usize),
            (17, 16),
            (16, 16),
            (5, 16),
            (100_003, 97),
        ] {
            let pos: Vec<usize> = sample_positions(n, step).collect();
            assert!(pos.windows(2).all(|w| w[0] < w[1]));
            assert!(pos.iter().all(|&x| x < n));
            for (j, &x) in pos.iter().enumerate() {
                assert_eq!(x / step, j, "n={n} step={step}");
            }
            assert!(pos.len() + 1 >= n.div_ceil(step));
        }
    }

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
        /// Both merges, kept and split, equal the oracle bitwise: on
        /// supports shared 0, 50 or 100 %, over every hostile value shape
        /// (cancellation, ±0.0, NaN, denormals, ties at the k-th
        /// magnitude across `a` and `b`), either side of the 4096-entry
        /// cut-off, with `k` at a tie of the k-th magnitude, inside the
        /// sum and at or past its length.
        #[test]
        fn prop_merges_match_the_oracle_split(
            small in 1usize..120,
            large in 0u8..2,
            shared in 0usize..3,
            shape in 0usize..5,
            pick_k in 0usize..6,
            seed in 0u64..1000,
        ) {
            let n = if large == 1 { 2100 + small } else { small };
            let (a, b) = pair(n, 50 * shared, shape, seed);
            let sum = a.add(&b);
            let n_sum = sum.nnz();
            // The number of sum entries at or above the median magnitude:
            // a k whose k-th magnitude has ties on both sides of it.
            let mut mags: Vec<f32> = sum.values().iter().map(|&v| mag(v)).collect();
            mags.sort_by(|x, y| y.total_cmp(x));
            let median = mags.get(n_sum / 2).copied().unwrap_or(0.0);
            let at_tie = mags.iter().filter(|&&m| m >= median).count();
            let k = [0, 1 + seed as usize % n_sum.max(1), at_tie.saturating_sub(1), n_sum, n_sum + 3, n_sum / 3][pick_k];
            assert_matches_oracle(&a, &b, k, &mut MergeScratch::new());
        }

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
