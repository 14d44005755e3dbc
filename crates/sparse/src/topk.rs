//! Top-k selection kernels.
//!
//! The paper selects the `k = ρ·m` gradient coordinates of largest absolute
//! value (Algorithm 1, lines 5–7) and its Fig. 11 flags that selection as
//! the overhead left once the wire is O(k log P). Every exact caller — the
//! local select ([`topk_indices_into`]), its fusion with the residual
//! accumulate ([`accumulate_select_compact`]) and the `⊤` merge's
//! re-selection — runs one streaming kernel:
//!
//! 1. a magnitude **sample** picks a two-sided cut: `t_lo` aimed at `k`
//!    plus four binomial standard deviations of candidates (≈ 1.03 k at
//!    ρ = 0.25, ≤ 1.6 k at ρ = 0.001), `t_hi` at `k` minus four;
//! 2. one SIMD pass collects the coordinates *strictly above* `t_lo`, in
//!    ascending index order;
//! 3. the candidates above `t_hi` are certain members; `select_nth` runs
//!    only over the **band** `t_lo < |v| ≤ t_hi` (plain `f32` compares,
//!    ≈ 16k of ≈ 257k candidates at n = 1M, k = 250k) to find the k-th
//!    magnitude `t*`;
//! 4. one ordered scan emits every `|v| > t*` plus the lowest-index ties
//!    at `t*` — so the output is born sorted.
//!
//! The `⊤` merge ([`crate::topk_merge_into`]) reads the same cut off a
//! sample of its sum and shares steps 3–4. There is no approximate
//! selector: this one already reads its cut off a sample, and fused with
//! the residual accumulate it crosses the buffer once, which leaves an
//! approximate select nothing to save at paper scale (EXPERIMENTS.md,
//! `ext_selection_kernels`).
//!
//! # Determinism
//!
//! The order is total (larger magnitude first, lower index breaks ties,
//! NaN magnitude counts as 0), so the top-k set is unique. Every
//! coordinate the threshold pass drops is strictly beaten by every
//! candidate, hence **candidates ⊇ answer** whenever at least `k` survive;
//! if at most `k` clear `t_hi`, all of those are in the answer and `t*`
//! lies in the band, so steps 3–4 resolve it exactly, ties by ascending
//! scan. When more than `k` clear `t_hi`, every candidate is band. When
//! fewer than `k` survive (a sample that overshot, zero-heavy buffers) —
//! or the input is too small for a sample to pay — *every* index is a
//! candidate and the same two steps run. The result is therefore a pure
//! function of the buffer: independent of the sample, the SIMD level and
//! the thread count, which is what keeps worker replicas bitwise in step.
//! The sampler reads a fixed Weyl sequence of positions — no RNG.
//!
//! # Scratch reuse
//!
//! The `_into` variants take a [`TopkScratch`] holding the candidate and
//! magnitude buffers — O(k) on the threshold path — so steady-state
//! selection allocates nothing. The plain variants allocate internally.

use crate::SparseVec;
use gtopk_tensor::simd;

/// Below this many elements the built-in sampler is skipped: sampling
/// would cost more than the select over all of them that it spares.
pub(crate) const PREFILTER_MIN: usize = 4096;

/// Comparison magnitude of a value: `|v|`, with NaN mapped to 0 so the
/// order stays total (a NaN gradient coordinate sorts as if it were zero
/// instead of poisoning the selection).
#[inline]
pub(crate) fn mag(v: f32) -> f32 {
    let m = v.abs();
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

/// Reusable buffers for the exact selection kernels: steady-state
/// selection performs zero heap allocation.
#[derive(Debug, Clone, Default)]
pub struct TopkScratch {
    /// Strictly-above-threshold candidate indices, ascending.
    cand: Vec<u32>,
    /// The sampled magnitudes, then the candidates' magnitudes.
    mags: Vec<f32>,
}

impl TopkScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TopkScratch::default()
    }
}

/// A two-sided magnitude cut read off a sample: every entry strictly
/// above `lo` is a candidate, every entry strictly above `hi` a certain
/// member of the top-k — provided at least `k` entries clear `lo` and at
/// most `k` clear `hi` (the *band check*). Only the band `lo < |v| ≤ hi`
/// then needs a `select_nth`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    pub(crate) lo: f32,
    pub(crate) hi: f32,
}

impl Cut {
    /// No cut: every entry is a candidate and all of them are band.
    pub(crate) const NONE: Cut = Cut {
        lo: -1.0,
        hi: f32::INFINITY,
    };

    /// The cut for a top-k select from the magnitudes `sample` of the
    /// input, where `q` is the expected number of top-k members among
    /// them: `lo` is the sample's `(q + 4·√q)`-th magnitude and `hi` its
    /// `(q − 4·√q)`-th (`+∞` when that rank is below 1), so either side of
    /// the band check fails only as a four-sigma event. `None` when the
    /// lower quota reaches the sample size — no threshold would exclude
    /// anything worth a pass.
    pub(crate) fn from_sample(sample: &mut [f32], q: f64) -> Option<Cut> {
        let spread = 4.0 * q.sqrt();
        let quota = (q + spread).ceil() as usize;
        if quota >= sample.len() {
            return None;
        }
        // `mag` outputs are non-negative and never NaN: `total_cmp` is `<`.
        let (above, &mut lo, _) = sample.select_nth_unstable_by(quota - 1, |a, b| b.total_cmp(a));
        // Every entry of `above` is ≥ `lo` ≥ the rest, and the upper rank
        // is below `quota`, so it is found among them.
        let hi = match (q - spread).floor() {
            r if r >= 1.0 => {
                *above
                    .select_nth_unstable_by(r as usize - 1, |a, b| b.total_cmp(a))
                    .1
            }
            _ => f32::INFINITY,
        };
        Some(Cut { lo, hi })
    }
}

/// The k-th magnitude `t` of a candidate set and how many candidates tied
/// at `t` the top-k still admits, ties going to the lower index — steps
/// 3–4 of the module docs, as a predicate for the ordered emit scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KthMagnitude {
    t: f32,
    ties: usize,
}

impl KthMagnitude {
    /// Keeps every candidate (there are at most `k`).
    pub(crate) const ALL: KthMagnitude = KthMagnitude { t: -1.0, ties: 0 };

    /// Finds the k-th magnitude of candidates of which `n_hi` lie
    /// strictly above `hi` and the rest have magnitudes `band` (all
    /// `≤ hi`). Requires `n_hi ≤ k ≤ n_hi + band.len()`.
    pub(crate) fn find(k: usize, n_hi: usize, hi: f32, band: &mut [f32]) -> Self {
        if n_hi == k {
            // The certain members are the whole answer.
            return KthMagnitude { t: hi, ties: 0 };
        }
        let (above, &mut t, _) = band.select_nth_unstable_by(k - n_hi - 1, |a, b| b.total_cmp(a));
        let ties = k - n_hi - above.iter().filter(|&&m| m > t).count();
        KthMagnitude { t, ties }
    }

    /// Whether the candidate of magnitude `m` is selected; must be asked
    /// of every candidate in ascending index order.
    #[inline]
    pub(crate) fn keeps(&mut self, m: f32) -> bool {
        m > self.t
            || (m == self.t && self.ties > 0 && {
                self.ties -= 1;
                true
            })
    }
}

/// Step 1 of the kernel for a top-`k`-of-`n` select over the buffer whose
/// i-th value is `value_at(i)`: a [`Cut`] from a sample of `min(64 Ki,
/// n/16)` positions of a golden-ratio Weyl sequence (equidistributed,
/// blind to any stride in the buffer's layout), no RNG. `None` — and
/// nothing sampled — below the cut-off and for a degenerate select
/// (`k == 0`, `k ≥ n`).
fn sampled_cut(
    n: usize,
    k: usize,
    scratch: &mut TopkScratch,
    value_at: impl Fn(usize) -> f32,
) -> Option<Cut> {
    if n < PREFILTER_MIN || k == 0 || k >= n {
        return None;
    }
    let s = (n / 16).min(64 * 1024);
    let TopkScratch { cand, mags } = scratch;
    mags.clear();
    mags.extend((0..s).map(|j| {
        let frac = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mag(value_at(((frac as u128 * n as u128) >> 64) as usize))
    }));
    let q = k as f64 / n as f64 * s as f64;
    let cut = Cut::from_sample(mags, q)?;
    // Room for the expected candidates plus eight of their standard
    // deviations: capacity is then a function of (n, k), not of how this
    // step's sample happened to fall.
    let quota = q + 4.0 * q.sqrt();
    let per_hit = n as f64 / s as f64;
    let room = n.min(((quota + 8.0 * quota.sqrt()) * per_hit) as usize);
    cand.reserve(room);
    mags.reserve(room);
    Some(cut)
}

/// Step 3's gather: replaces `band` with the candidate magnitudes `mags`
/// that are `≤ hi` and returns how many lie above `hi`, with that `hi` —
/// unless more than `k` do (the sample's upper cut overshot), in which
/// case every candidate is band and `(0, +∞)` is returned.
pub(crate) fn gather_band(
    k: usize,
    hi: f32,
    mags: impl Iterator<Item = f32> + Clone,
    band: &mut Vec<f32>,
) -> (usize, f32) {
    band.clear();
    let mut n_hi = 0;
    for m in mags.clone() {
        if m > hi {
            n_hi += 1;
        } else {
            band.push(m);
        }
    }
    if n_hi <= k {
        return (n_hi, hi);
    }
    band.clear();
    band.extend(mags);
    (0, f32::INFINITY)
}

/// Steps 3–4 of the kernel over the ascending candidates `cand`, all
/// strictly above the cut's `lo`: appends the exact top-`k` (`1 ≤ k ≤`
/// candidate count) to `out`, ascending.
fn emit_topk(
    values: &[f32],
    k: usize,
    cand: impl Iterator<Item = u32> + Clone,
    hi: f32,
    mags: &mut Vec<f32>,
    out: &mut Vec<u32>,
) {
    let magnitudes = cand.clone().map(|i| mag(values[i as usize]));
    let (n_hi, hi) = gather_band(k, hi, magnitudes, mags);
    let mut kth = KthMagnitude::find(k, n_hi, hi, mags);
    out.extend(cand.filter(|&i| kth.keeps(mag(values[i as usize]))));
}

/// The shared exact tail: writes the top-`k` indices of `values` into
/// `out`, ascending, given the candidates strictly above `cut.lo` in
/// `scratch` — or, when fewer than `k` were collected, over every index.
/// Returns how many coordinates the tail examined.
fn select_among(
    values: &[f32],
    k: usize,
    cut: Cut,
    scratch: &mut TopkScratch,
    out: &mut Vec<u32>,
) -> usize {
    let TopkScratch { cand, mags } = scratch;
    out.clear();
    let n = values.len();
    if k >= n {
        out.extend(0..n as u32);
    } else if k > cand.len() {
        emit_topk(values, k, 0..n as u32, f32::INFINITY, mags, out);
    } else if k > 0 {
        emit_topk(values, k, cand.iter().copied(), cut.hi, mags, out);
        return cand.len();
    }
    n
}

/// Writes the indices of the `k` entries of largest absolute value into
/// `out`, ascending, reusing `scratch` buffers.
///
/// Writes all indices if `k >= values.len()`. One streaming O(m) pass plus
/// an O(k) select (see the module docs); a pure function of `values`.
/// Deterministic under ties (lower index wins).
///
/// Returns the number of coordinates the final exact select examined:
/// the candidate count on the threshold path, `values.len()` otherwise —
/// the speed-vs-exactness tests use it to show the fast path engages.
pub fn topk_indices_into(
    values: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut Vec<u32>,
) -> usize {
    scratch.cand.clear();
    // `|v| > thr` and `mag(v) > thr` agree for every thr ≥ 0: NaN fails both.
    let cut = sampled_cut(values.len(), k, scratch, |i| values[i]);
    if let Some(cut) = cut {
        simd::compact_above(values, cut.lo, 0, &mut scratch.cand);
    }
    select_among(values, k, cut.unwrap_or(Cut::NONE), scratch, out)
}

/// Indices of the `k` entries of largest absolute value, ascending order.
///
/// Allocating wrapper around [`topk_indices_into`]; hot paths hold a
/// [`TopkScratch`] and call the `_into` variant instead.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::topk_indices;
/// assert_eq!(topk_indices(&[1.0, -9.0, 3.0], 2), vec![1, 2]);
/// ```
pub fn topk_indices(values: &[f32], k: usize) -> Vec<u32> {
    let mut out = Vec::new();
    topk_indices_into(values, k, &mut TopkScratch::new(), &mut out);
    out
}

/// Sparsifies a dense vector into `out`, keeping the `k` entries of
/// largest |value| and reusing `scratch` buffers.
///
/// This is exactly `G̃ = G ⊙ Mask` of Algorithm 1, allocation-free in
/// steady state. Returns the examined count of [`topk_indices_into`].
pub fn topk_sparse_into(
    dense: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    out.dim = dense.len();
    let examined = topk_indices_into(dense, k, scratch, &mut out.indices);
    out.values.clear();
    out.values
        .extend(out.indices.iter().map(|&i| dense[i as usize]));
    examined
}

/// Sparsifies a dense vector keeping the `k` entries of largest |value|.
///
/// Allocating wrapper around [`topk_sparse_into`].
pub fn topk_sparse(dense: &[f32], k: usize) -> SparseVec {
    let mut out = SparseVec::empty(dense.len());
    topk_sparse_into(dense, k, &mut TopkScratch::new(), &mut out);
    out
}

/// Fused residual-accumulate + exact top-k extraction: the per-step
/// gradient hot loop in **one memory pass** instead of three.
///
/// Semantically identical — bitwise — to the unfused sequence
///
/// 1. `acc[i] += grad[i]` (residual accumulate),
/// 2. [`topk_sparse_into`] over the accumulated buffer,
/// 3. zeroing the selected coordinates in `acc`,
///
/// but the accumulate, the threshold scan, and the candidate compaction
/// all happen in a single traversal (`gtopk_tensor::simd::
/// accumulate_compact_above`), so the big buffer crosses the memory bus
/// once rather than three times. The threshold is estimated *before*
/// the pass by sampling `mag(acc[i] + grad[i])` — the identical floats
/// (one IEEE rounding per add) the unfused path samples after
/// accumulating, at the identical positions.
///
/// Writes the exact top-`k` of the accumulated buffer into `out` and
/// zeroes the selected coordinates in `acc`. Returns the number of
/// coordinates the final exact select examined, like
/// [`topk_indices_into`].
///
/// # Panics
///
/// Panics if `grad.len() != acc.len()`.
pub fn accumulate_select_compact(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    assert_eq!(grad.len(), acc.len(), "gradient length mismatch");
    scratch.cand.clear();
    let cut = sampled_cut(acc.len(), k, scratch, |i| acc[i] + grad[i]);
    match cut {
        // THE fused pass: accumulate, threshold-compare the accumulated
        // value, and emit candidate indices, one traversal.
        Some(cut) => simd::accumulate_compact_above(acc, grad, cut.lo, 0, &mut scratch.cand),
        None => simd::axpy(acc, grad),
    }
    out.dim = acc.len();
    let examined = select_among(acc, k, cut.unwrap_or(Cut::NONE), scratch, &mut out.indices);
    out.values.clear();
    let taken = out
        .indices
        .iter()
        .map(|&i| std::mem::take(&mut acc[i as usize]));
    out.values.extend(taken);
    examined
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_tensor::parallel::{with_min_chunk, with_thread_limit};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// The order the kernel promises, written the slow obvious way:
    /// larger |value| first, then lower index (the sort oracle's
    /// comparator).
    fn tie_cmp(values: &[f32], a: u32, b: u32) -> Ordering {
        let (va, vb) = (mag(values[a as usize]), mag(values[b as usize]));
        match vb.partial_cmp(&va) {
            Some(Ordering::Equal) | None => a.cmp(&b),
            Some(ord) => ord,
        }
    }

    /// Top-k by a full sort of all indices under [`tie_cmp`].
    fn oracle(values: &[f32], k: usize) -> Vec<u32> {
        let mut by_sort: Vec<u32> = (0..values.len() as u32).collect();
        by_sort.sort_by(|&a, &b| tie_cmp(values, a, b));
        by_sort.truncate(k);
        by_sort.sort_unstable();
        by_sort
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs every exact entry point — plain and fused — on `values` and
    /// checks each against the sort oracle, values and buffer state
    /// included.
    fn assert_all_paths_match_oracle(values: &[f32], k: usize) {
        let n = values.len();
        let want = oracle(values, k);
        let gather = |src: &[f32], idx: &[u32]| -> Vec<u32> {
            idx.iter().map(|&i| src[i as usize].to_bits()).collect()
        };
        assert_eq!(topk_indices(values, k), want, "topk_indices n={n} k={k}");
        let got = topk_sparse(values, k);
        assert_eq!(got.indices(), want, "topk_sparse n={n} k={k}");
        assert_eq!(bits(got.values()), gather(values, &want));

        // acc + grad = 2·values keeps every tie, zero, NaN and inf.
        let doubled: Vec<f32> = values.iter().map(|v| v + v).collect();
        let want_doubled = oracle(&doubled, k);
        let mut acc = values.to_vec();
        let mut out = SparseVec::empty(0);
        accumulate_select_compact(&mut acc, values, k, &mut TopkScratch::new(), &mut out);
        assert_eq!(out.dim(), n);
        assert_eq!(out.indices(), want_doubled, "fused n={n} k={k}");
        assert_eq!(bits(out.values()), gather(&doubled, &want_doubled));
        let mut left = doubled;
        want_doubled.iter().for_each(|&i| left[i as usize] = 0.0);
        assert_eq!(bits(&acc), bits(&left), "fused buffer n={n} k={k}");
    }

    /// A buffer of `n` values of one hostile `shape`, a pure function of
    /// its arguments.
    fn hostile(shape: usize, n: usize, seed: u64) -> Vec<f32> {
        let hash = |i: usize| {
            let z = (i as u64 ^ seed.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (z ^ (z >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 20
        };
        let heavy = |i: usize| ((hash(i) % 2001) as f32 - 1000.0) / (1 + hash(i + n) % 97) as f32;
        (0..n)
            .map(|i| match shape {
                // Every special value, and ties between most of them.
                0 => match hash(i) % 11 {
                    0 => f32::NAN,
                    1 => 0.0,
                    2 => -0.0,
                    3 => f32::INFINITY,
                    4 => f32::NEG_INFINITY,
                    5 => 1.0e-40,
                    6 => -2.5,
                    7 => 2.5,
                    _ => heavy(i),
                },
                // All equal: the whole answer is tie-breaking.
                1 => -3.0,
                // Zero-heavy: fewer non-zeros than most k, so the
                // threshold pass under-collects.
                2 if hash(i) % 50 != 0 => 0.0,
                // Small integers: ties everywhere, at every magnitude.
                3 => (hash(i) % 9) as f32 - 4.0,
                _ => heavy(i),
            })
            .collect()
    }

    #[test]
    fn selects_largest_magnitudes() {
        let v = [0.5, -2.0, 0.1, 1.5, -0.7];
        assert_eq!(topk_indices(&v, 2), vec![1, 3]);
        let sv = topk_sparse(&v, 2);
        assert_eq!(sv.values(), &[-2.0, 1.5]);
    }

    #[test]
    fn k_zero_and_k_oversized() {
        let v = [1.0, 2.0];
        assert!(topk_indices(&v, 0).is_empty());
        assert_eq!(topk_indices(&v, 5), vec![0, 1]);
        assert!(topk_sparse(&[], 3).is_empty());
    }

    #[test]
    fn ties_break_to_lower_index() {
        let v = [1.0, -1.0, 1.0, 1.0];
        assert_eq!(topk_indices(&v, 2), vec![0, 1]);
    }

    #[test]
    fn nan_and_infinity_are_handled_deterministically() {
        let v = [
            f32::NAN,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.0,
            f32::NAN,
        ];
        // ±inf dominate; NaN sorts as magnitude 0, below every finite value.
        assert_eq!(topk_indices(&v, 2), vec![2, 3]);
        assert_eq!(topk_indices(&v, 3), vec![1, 2, 3]);
        // Top-5 set is {2, 3} (±inf), {1, 4} (finite), then index 0 (the
        // lower-indexed NaN); output is the set sorted ascending.
        assert_eq!(topk_indices(&v, 5), vec![0, 1, 2, 3, 4]);
        // The full selection (k = n) must also terminate and stay sorted —
        // this hangs or panics if the comparator is not a total order.
        assert_eq!(topk_indices(&v, 6), vec![0, 1, 2, 3, 4, 5]);
        // All-NaN input: pure index order.
        let nans = [f32::NAN; 5];
        assert_eq!(topk_indices(&nans, 2), vec![0, 1]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_allocation() {
        let mut scratch = TopkScratch::new();
        let mut out = Vec::new();
        let mut sv = SparseVec::empty(0);
        for seed in 0..5u64 {
            let v: Vec<f32> = (0..500)
                .map(|i| (((i as u64 + 1) * (seed + 3) * 2_654_435_761) % 1000) as f32 - 500.0)
                .collect();
            topk_indices_into(&v, 17, &mut scratch, &mut out);
            assert_eq!(out, topk_indices(&v, 17), "seed {seed}");
            topk_sparse_into(&v, 17, &mut scratch, &mut sv);
            assert_eq!(sv, topk_sparse(&v, 17), "seed {seed}");
        }
    }

    #[test]
    fn parallel_matches_serial_on_forced_chunking() {
        let v: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64 as usize) % 997) as f32 - 498.0)
            .collect();
        for k in [1usize, 7, 100, 999] {
            let serial = with_thread_limit(1, || topk_indices(&v, k));
            for threads in [2, 3, 4, 8] {
                let par = with_thread_limit(threads, || with_min_chunk(64, || topk_indices(&v, k)));
                assert_eq!(par, serial, "threads={threads} k={k}");
            }
        }
    }

    #[test]
    fn threshold_path_engages_on_large_inputs_and_falls_back_on_ties() {
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(0);
        let n = 3 * PREFILTER_MIN;
        // Heavy-tailed: the sampled threshold keeps k and some.
        let v = hostile(4, n, 1);
        for k in [n / 1000, n / 4] {
            let examined = topk_sparse_into(&v, k, &mut scratch, &mut out);
            assert!(
                (k..n / 2).contains(&examined),
                "k={k}: examined {examined} of {n}"
            );
            assert_eq!(out.indices(), oracle(&v, k));
        }
        // All-equal and zero-heavy buffers leave nothing strictly above
        // the sampled threshold: every index becomes a candidate.
        for shape in [1, 2] {
            let v = hostile(shape, n, 1);
            let examined = topk_sparse_into(&v, n / 10, &mut scratch, &mut out);
            assert_eq!(examined, n, "shape {shape}");
            assert_eq!(out.indices(), oracle(&v, n / 10), "shape {shape}");
        }
        // Below the cut-off no sample is taken at all.
        let v = hostile(4, PREFILTER_MIN - 1, 1);
        let examined = topk_sparse_into(&v, 4, &mut scratch, &mut out);
        assert_eq!(examined, v.len());
    }

    #[test]
    fn a_sample_that_puts_more_than_k_above_hi_stays_exact() {
        // Small magnitudes exactly at the Weyl positions the sampler
        // reads, large ones everywhere else: more than k candidates clear
        // `t_hi`, and every candidate turns band.
        let n = 3 * PREFILTER_MIN;
        let mut values: Vec<f32> = (0..n).map(|i| 10.0 + (i % 7) as f32).collect();
        for j in 0..n / 16 {
            let frac = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            values[((frac as u128 * n as u128) >> 64) as usize] = 0.1 + j as f32 * 1e-4;
        }
        for k in [n / 4, n / 2] {
            assert_all_paths_match_oracle(&values, k);
            let examined = topk_indices_into(&values, k, &mut TopkScratch::new(), &mut Vec::new());
            assert!(examined > n - n / 16, "k={k}: examined {examined}");
        }
    }

    #[test]
    fn sample_size_clamp_boundary_matches_oracle() {
        // n/16 crosses the 64 Ki sample ceiling at n = 2^20.
        for n in [(1usize << 20) - 16, 1 << 20, (1 << 20) + 16] {
            let v = hostile(4, n, n as u64);
            for k in [n / 1000, n / 4] {
                assert_eq!(topk_indices(&v, k), oracle(&v, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn threshold_estimate_fast_path_engages_and_stays_exact() {
        // 5% heavy hitters: the sampled threshold lands inside the heavy
        // band, so the strict filter examines a few hundred candidates
        // instead of all n — while the output stays exact.
        let n = 20_000usize;
        let dense: Vec<f32> = (0..n)
            .map(|i| {
                if i % 20 == 0 {
                    100.0 + i as f32 * 1e-3
                } else {
                    (i % 7) as f32 * 1e-4
                }
            })
            .collect();
        let mut out = SparseVec::empty(0);
        let k = 150;
        let examined = topk_sparse_into(&dense, k, &mut TopkScratch::new(), &mut out);
        assert_eq!(out.indices(), oracle(&dense, k), "must be exact");
        assert!(
            examined < n / 4,
            "fast path should examine far fewer than n candidates, examined {examined}"
        );
    }

    #[test]
    fn fused_fast_path_engages_and_stays_exact() {
        // Same heavy-hitter structure as the unfused fast-path test: the
        // fused pass must stay exact while examining far fewer than n.
        let n = 20_000usize;
        let acc0: Vec<f32> = (0..n).map(|i| (i % 5) as f32 * 1e-5).collect();
        let grad: Vec<f32> = (0..n)
            .map(|i| {
                if i % 20 == 0 {
                    100.0 + i as f32 * 1e-3
                } else {
                    (i % 7) as f32 * 1e-4
                }
            })
            .collect();
        let mut acc = acc0.clone();
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(0);
        let k = 150;
        let examined = accumulate_select_compact(&mut acc, &grad, k, &mut scratch, &mut out);
        let mut expect_dense = acc0;
        for (a, &g) in expect_dense.iter_mut().zip(grad.iter()) {
            *a += g;
        }
        assert_eq!(out, topk_sparse(&expect_dense, k), "must be bitwise exact");
        assert!(
            examined < n / 4,
            "fast path should examine far fewer than n candidates, examined {examined}"
        );
        // Selected coordinates zeroed, everything else untouched.
        for (i, (&got, &exp)) in acc.iter().zip(expect_dense.iter()).enumerate() {
            let want = if out.contains(i as u32) { 0.0 } else { exp };
            assert_eq!(got.to_bits(), want.to_bits(), "coord {i}");
        }
    }

    proptest! {
        /// The fused accumulate+select+compact kernel is bitwise
        /// identical — extracted vector and buffer state — to the unfused
        /// three-pass sequence (accumulate, select, zero), for any state,
        /// gradient and k. Ties, NaNs, and degenerate k included.
        #[test]
        fn prop_fused_bitwise_equals_unfused(
            base in proptest::collection::vec(-6i32..6, 1..300),
            k in 0usize..48,
        ) {
            let acc0: Vec<f32> = base.iter().enumerate()
                .map(|(i, &v)| if i % 17 == 16 { f32::NAN } else { v as f32 * 0.5 })
                .collect();
            let grad: Vec<f32> = base.iter().enumerate()
                .map(|(i, &v)| if i % 13 == 12 { f32::NAN } else { (v as f32 * 0.7).cos() })
                .collect();

            // Unfused reference: accumulate, select, zero.
            let mut acc_ref = acc0.clone();
            for (a, &g) in acc_ref.iter_mut().zip(grad.iter()) { *a += g; }
            let mut out_ref = SparseVec::empty(0);
            topk_sparse_into(&acc_ref, k, &mut TopkScratch::new(), &mut out_ref);
            for &i in out_ref.indices() { acc_ref[i as usize] = 0.0; }

            let mut acc = acc0;
            let mut out = SparseVec::empty(0);
            accumulate_select_compact(&mut acc, &grad, k, &mut TopkScratch::new(), &mut out);

            prop_assert_eq!(out.indices(), out_ref.indices());
            prop_assert_eq!(bits(out.values()), bits(out_ref.values()));
            prop_assert_eq!(bits(&acc), bits(&acc_ref), "buffer state diverged");
        }

        /// Exact top-k always matches a full sort of magnitudes.
        #[test]
        fn prop_topk_matches_sort(values in proptest::collection::vec(-100.0f32..100.0, 1..200),
                                  k in 0usize..64) {
            prop_assert_eq!(topk_indices(&values, k), oracle(&values, k));
        }

        /// Every exact entry point equals the sort oracle on hostile
        /// buffers — NaN, ±0.0, ±inf, denormals, all-equal and tie-heavy,
        /// zero-heavy (forcing the all-candidates fallback) — for sizes
        /// either side of the prefilter cut-off and k at 1, around the
        /// non-zero count, around n, and in between.
        #[test]
        fn prop_all_paths_match_sort_oracle_on_hostile_inputs(
            shape in 0usize..5,
            small in 1usize..200,
            near_cutoff in 0usize..80,
            pick_n in 0usize..3,
            pick_k in 0usize..8,
            seed in 0u64..1000,
        ) {
            let n = match pick_n {
                0 => small,
                1 => PREFILTER_MIN - 40 + near_cutoff,
                _ => 2 * PREFILTER_MIN + near_cutoff,
            };
            let values = hostile(shape, n, seed);
            let nnz = values.iter().filter(|v| mag(**v) > 0.0).count();
            let k = match pick_k {
                0 => 1,
                1 => nnz.saturating_sub(1),
                2 => nnz,
                3 => nnz + 1,
                4 => n - 1,
                5 => n,
                6 => n + 5,
                _ => 1 + (seed as usize * 7919) % n,
            };
            assert_all_paths_match_oracle(&values, k);
        }

        /// The selected set's minimum magnitude dominates the rejected set's
        /// maximum magnitude.
        #[test]
        fn prop_topk_dominates_rest(values in proptest::collection::vec(-10.0f32..10.0, 1..100),
                                    k in 1usize..32) {
            let sel = topk_indices(&values, k);
            if sel.len() < values.len() {
                let min_sel = sel.iter().map(|&i| values[i as usize].abs())
                    .fold(f32::INFINITY, f32::min);
                let max_rest = (0..values.len() as u32)
                    .filter(|i| sel.binary_search(i).is_err())
                    .map(|i| values[i as usize].abs())
                    .fold(0.0f32, f32::max);
                prop_assert!(min_sel >= max_rest);
            }
        }

        /// Parallel selection is bitwise-identical to serial for any thread
        /// count and chunking, including tie-heavy and NaN-bearing inputs.
        #[test]
        fn prop_parallel_topk_identical_to_serial(
            values in proptest::collection::vec(-8i32..8, 1..400),
            k in 0usize..48,
            threads in 1usize..8,
            min_chunk in 4usize..64,
        ) {
            // Integer-derived values make magnitude ties extremely common;
            // sprinkle NaNs at a fixed stride.
            let values: Vec<f32> = values.iter().enumerate()
                .map(|(i, &v)| if i % 11 == 10 { f32::NAN } else { v as f32 })
                .collect();
            let serial = with_thread_limit(1, || topk_indices(&values, k));
            let par = with_thread_limit(threads, || {
                with_min_chunk(min_chunk, || topk_indices(&values, k))
            });
            prop_assert_eq!(par, serial);
        }
    }
}
