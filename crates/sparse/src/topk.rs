//! Top-k selection kernels.
//!
//! The paper selects the `k = ρ·m` gradient coordinates of largest absolute
//! value (Algorithm 1, lines 5–7) and its Fig. 11 flags that selection as
//! the overhead left once the wire is O(k log P). Every exact caller — the
//! local select ([`topk_sparse_into`]), its fusion with the residual
//! accumulate ([`accumulate_select_compact`]) and the `⊤` merge's
//! re-selection — runs one streaming kernel over **packed (index, value)
//! candidate pairs**:
//!
//! 1. a magnitude **sample** picks a two-sided cut: `t_lo` aimed at `k`
//!    plus four binomial standard deviations of candidates (≈ 1.03 k at
//!    ρ = 0.25, ≤ 1.6 k at ρ = 0.001), `t_hi` at `k` minus four. The
//!    sample is one position per block of `step` (about `n/16`, at most
//!    64 Ki of them), at a hashed offset inside the block: ascending, so
//!    the reads stream, and every position is drawn with the same
//!    probability;
//! 2. one SIMD pass writes the pairs *strictly above* `t_lo` — index and
//!    value, in ascending index order — left-packed without a
//!    data-dependent branch (`gtopk_tensor::simd::partition_above`);
//! 3. the **band**: the candidates above `t_hi` are certain members; one
//!    packed compare over the candidate values gathers the rest
//!    (`t_lo < |v| ≤ t_hi`, ≈ 16k of ≈ 257k candidates at n = 1M,
//!    k = 250k), and a radix select over the band's magnitude bits finds
//!    the k-th magnitude `t*` and how many of its ties the top-k admits
//!    — ties go to the lower index, so the admitted ones end at one
//!    candidate position;
//! 4. the **emit**: two more packed compares write the answer's pairs
//!    straight into the output, already sorted — `|v| ≥ t*` before the
//!    ties' end, `|v| > t*` from it.
//!
//! The `⊤` merge ([`crate::topk_merge_into`]) runs all four steps
//! unchanged over the packed pairs of the sum it materialises, and its
//! split form's emit reads the whole sum, so its rejects come out sorted
//! too. Every select also yields its answer as a [`SelectRule`] — `t*`
//! and the coordinate where the admitted ties end — which tells for any
//! coordinate of the input whether it was selected: the residual's
//! select-then-retire contract reads it instead of a copy of the
//! selection (see [`crate::Residual::retire`]). There is
//! no approximate selector: this one already reads its cut off a sample,
//! and fused with the residual accumulate it crosses the buffer once,
//! which leaves an approximate select nothing to save at paper scale
//! (EXPERIMENTS.md, `ext_selection_kernels`).
//!
//! # Determinism
//!
//! The order is total (larger magnitude first, lower index breaks ties,
//! NaN magnitude counts as 0), so the top-k set is unique. Every
//! coordinate the threshold pass drops is strictly beaten by every
//! candidate, hence **candidates ⊇ answer** whenever at least `k` survive;
//! if at most `k` clear `t_hi`, all of those are in the answer and `t*`
//! lies in the band, so steps 3–4 resolve it exactly. When more than `k`
//! clear `t_hi`, the radix select runs over every candidate instead. When
//! fewer than `k` survive (a sample that overshot, zero-heavy buffers) —
//! or the input is too small for a sample to pay — *every* index is a
//! candidate: the radix select and the emit then read the buffer itself,
//! which is never copied. The result is therefore a pure function of the
//! buffer: independent of the sample, the SIMD level and the thread
//! count, which is what keeps worker replicas bitwise in step. The
//! sampler's offsets are a fixed hash — no RNG.
//!
//! # Scratch reuse
//!
//! The `_into` variants take a [`TopkScratch`] holding the candidate pairs
//! and the band — O(k) on the threshold path — so steady-state selection
//! allocates nothing. The plain variants allocate internally.

use crate::SparseVec;
use gtopk_tensor::simd::{self, PairVecs, Pairs};
use std::ops::Range;

/// Below this many elements the built-in sampler is skipped: sampling
/// would cost more than the select over all of them that it spares.
const PREFILTER_MIN: usize = 4096;

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
    cand_idx: Vec<u32>,
    /// The sample's magnitudes, then the candidates' values, parallel to
    /// `cand_idx`.
    cand_val: Vec<f32>,
    /// The tail's band.
    band: Band,
}

impl TopkScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        TopkScratch::default()
    }
}

/// The exact tail's working pairs: the band's (candidate position,
/// value) pairs.
#[derive(Debug, Clone, Default)]
struct Band {
    pos: Vec<u32>,
    val: Vec<f32>,
}

impl Band {
    /// Both vectors, emptied, as one side of a partition.
    fn cleared(&mut self) -> PairVecs<'_> {
        self.pos.clear();
        self.val.clear();
        (&mut self.pos, &mut self.val)
    }

    /// Empties both vectors and makes them hold at least the band behind
    /// a cut read off a sample taken every `step` entries with `q`
    /// expected top-k members in it. The band spans the `8·√q` sample
    /// entries between the cut's two ranks; room for that many sampled
    /// entries' worth plus four standard deviations of the count is a
    /// function of the select's shape, not of how one sample fell, so a
    /// warm buffer does not grow (and a band past it grows the vectors
    /// once).
    fn reserve_for(&mut self, q: f64, step: usize) {
        let sampled = 8.0 * q.sqrt();
        let room = ((sampled + 4.0 * sampled.sqrt()) * step as f64) as usize;
        let (pos, val) = self.cleared();
        pos.reserve_exact(room);
        val.reserve_exact(room);
    }
}

/// The sampling stride over `n` entries: about `min(64 Ki, n/16)` samples.
fn sample_step(n: usize) -> usize {
    n.div_ceil(64 * 1024).max(16)
}

/// One position from each block of `step` positions below `n`, at a
/// hashed offset within the block: ascending, and every position is
/// drawn with probability `1/step`.
pub(crate) fn sample_positions(n: usize, step: usize) -> impl Iterator<Item = usize> {
    (0..n.div_ceil(step))
        .map(move |j| {
            let h = (j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
            j * step + h as usize % step
        })
        .filter(move |&x| x < n)
}

/// A two-sided magnitude cut read off a sample: every entry strictly
/// above `lo` is a candidate, every entry strictly above `hi` a certain
/// member of the top-k — provided at least `k` entries clear `lo` and at
/// most `k` clear `hi` (the *band check*). Only the band `lo < |v| ≤ hi`
/// then needs a select.
#[derive(Debug, Clone, Copy)]
struct Cut {
    lo: f32,
    hi: f32,
}

impl Cut {
    /// No cut: every entry is a candidate and all of them are band.
    const NONE: Cut = Cut {
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
    fn from_sample(sample: &mut [f32], q: f64) -> Option<Cut> {
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

/// An exact top-k selection as a rule over the coordinates of the input
/// it read: the entry `(i, v)` was selected iff `mag(v) > t`, or
/// `mag(v) == t` and `i < tie_end` — the kernel's `t*` and where its
/// admitted ties end. It holds for the input as the select read it.
#[derive(Debug, Clone, Copy)]
pub struct SelectRule {
    t: f32,
    tie_end: usize,
}

/// What a select reads: pairs in ascending index order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Input<'a> {
    /// `(j, v[j])`: a dense buffer.
    Dense(&'a [f32]),
    /// `(idx[j], val[j])`: packed pairs.
    Packed(&'a [u32], &'a [f32]),
}

impl<'a> Input<'a> {
    fn vals(self) -> &'a [f32] {
        match self {
            Input::Dense(v) | Input::Packed(_, v) => v,
        }
    }

    /// The pairs at positions `r`.
    fn pairs(self, r: Range<usize>) -> Pairs<'a> {
        match self {
            Input::Dense(v) => Pairs::Dense {
                base: r.start as u32,
                v: &v[r],
            },
            Input::Packed(idx, val) => Pairs::Packed {
                idx: &idx[r.clone()],
                val: &val[r],
            },
        }
    }

    /// The coordinate at position `j`.
    fn index(self, j: usize) -> usize {
        match self {
            Input::Dense(_) => j,
            Input::Packed(idx, _) => idx[j] as usize,
        }
    }

    /// How many pairs lie below coordinate `i`.
    fn position(self, i: usize) -> usize {
        match self {
            Input::Dense(v) => i.min(v.len()),
            Input::Packed(idx, _) => idx.partition_point(|&x| (x as usize) < i),
        }
    }
}

impl SelectRule {
    /// Whether the select took the entry `(i, v)` of its input. Without
    /// a branch: whether a global coordinate is a rank's own is a coin
    /// toss, and on a residual out of cache each misprediction discards
    /// the loads behind it (a branching test made a k = 250 000 put-back
    /// 4.2–5.0 ms of wall clock in a P = 4 step, this one 1.3–1.6 ms).
    #[inline]
    pub(crate) fn admits(self, i: usize, v: f32) -> bool {
        let m = mag(v);
        (m > self.t) | ((m == self.t) & (i < self.tie_end))
    }

    /// Every entry is selected.
    const ALL: SelectRule = SelectRule {
        t: -1.0,
        tie_end: 0,
    };

    /// Step 3 for the top-`k` of the candidates `cands`, given that at
    /// most `k` of them should lie above `hi` (`+∞`: no band): gathers
    /// the band `|v| ≤ hi` into `band` and radix-selects over it — or over
    /// every candidate when there is no band or more than `k` clear `hi`.
    fn find(k: usize, cands: Input<'_>, hi: f32, band: &mut Band) -> SelectRule {
        let vals = cands.vals();
        let n = vals.len();
        if k >= n {
            return SelectRule::ALL;
        }
        if k == 0 {
            // Nothing is above +∞.
            return SelectRule {
                t: f32::INFINITY,
                tie_end: 0,
            };
        }
        if hi < f32::INFINITY {
            let dense = Pairs::Dense { v: vals, base: 0 };
            simd::partition_above(dense, hi, None, Some(band.cleared()));
            let n_hi = n - band.pos.len();
            if n_hi == k {
                // The certain members are the whole answer.
                return SelectRule { t: hi, tie_end: 0 };
            }
            if n_hi < k {
                let at = band.pos.iter().map(|&p| p as usize);
                return SelectRule::rank(k - n_hi, &band.val, at, cands);
            }
        }
        SelectRule::rank(k, vals, 0..n, cands)
    }

    /// The `r`-th largest magnitude of `vals` (`1 ≤ r ≤ vals.len()`),
    /// whose positions among `cands` are `at`: every tie at it is
    /// admitted when the top `r` holds all of them, else they end just
    /// past the coordinate of the last one it holds.
    fn rank(r: usize, vals: &[f32], at: impl Iterator<Item = usize>, cands: Input<'_>) -> Self {
        let (t, admitted, ties) = radix_select(r, vals);
        let tie_end = if admitted == ties {
            usize::MAX
        } else {
            let mut tied = at.zip(vals).filter(|&(_, &v)| mag(v) == t);
            tied.nth(admitted - 1)
                .map_or(0, |(j, _)| cands.index(j) + 1)
        };
        SelectRule { t, tie_end }
    }

    /// Step 4: appends the selected pairs of `input` to `kept` and, when
    /// given, every other one to `rejected`, both ascending — a partition
    /// at `mag ≥ t` over the pairs below the ties' end and one at
    /// `mag > t` over those from it.
    fn emit(
        self,
        input: Input<'_>,
        (kept_idx, kept_val): PairVecs<'_>,
        mut rejected: Option<PairVecs<'_>>,
    ) {
        // For magnitudes (never NaN, never negative), `m ≥ t` is `m > t⁻`
        // with `t⁻` the next float down; at `t = 0` every one passes.
        let at_least = if self.t > 0.0 {
            f32::from_bits(self.t.to_bits() - 1)
        } else {
            -1.0
        };
        let (n, end) = (input.vals().len(), input.position(self.tie_end));
        for (range, thr) in [(0..end, at_least), (end..n, self.t)] {
            if !range.is_empty() {
                let rejected = rejected.as_mut().map(|(i, v)| (&mut **i, &mut **v));
                let kept = (&mut *kept_idx, &mut *kept_val);
                simd::partition_above(input.pairs(range), thr, Some(kept), rejected);
            }
        }
    }
}

/// The `r`-th largest magnitude of `vals` (`1 ≤ r ≤ vals.len()`), how
/// many entries of that magnitude the top `r` admits, and how many there
/// are: three histogram passes over the magnitudes' bits (11, 11 and 10
/// of them — non-negative floats order as their bit patterns), each
/// counting only the entries that match the digits fixed so far. Reads
/// `vals` three times and copies nothing.
fn radix_select(r: usize, vals: &[f32]) -> (f32, usize, usize) {
    let (mut prefix, mut rank, mut ties) = (0u32, r, 0);
    for (shift, width) in [(21, 11), (10, 11), (0, 10)] {
        let fixed = u32::MAX.checked_shl(shift + width).unwrap_or(0);
        let digit = (1u32 << width) - 1;
        let mut hist = [0usize; 1 << 11];
        for &v in vals {
            let bits = mag(v).to_bits();
            hist[(bits >> shift & digit) as usize] += usize::from(bits & fixed == prefix);
        }
        let mut d = digit as usize;
        while hist[d] < rank {
            rank -= hist[d];
            d -= 1;
        }
        prefix |= (d as u32) << shift;
        ties = hist[d];
    }
    (f32::from_bits(prefix), rank, ties)
}

/// Step 1 of the kernel for a top-`k`-of-`n` select over the buffer whose
/// i-th value is `value_at(i)`: a [`Cut`] from the magnitudes at
/// [`sample_positions`], with room reserved for the candidate pairs. `None`
/// — and nothing sampled — below the cut-off and for a degenerate select
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
    let step = sample_step(n);
    // The candidates' value vector holds the sample until the cut is read.
    let sample = &mut scratch.cand_val;
    sample.extend(sample_positions(n, step).map(|x| mag(value_at(x))));
    let q = k as f64 / step as f64;
    let cut = Cut::from_sample(sample, q);
    sample.clear();
    let cut = cut?;
    scratch.band.reserve_for(q, step);
    // Room for the expected candidates plus eight of their standard
    // deviations: capacity is then a function of (n, k), not of how this
    // step's sample happened to fall, and exact — a candidate past it
    // grows the vectors only as far as it needs.
    let quota = q + 4.0 * q.sqrt();
    let room = n.min(((quota + 8.0 * quota.sqrt()) * step as f64) as usize);
    scratch.cand_idx.reserve_exact(room);
    scratch.cand_val.reserve_exact(room);
    Some(cut)
}

/// Steps 3–4 of the kernel over `input`: appends the exact top-`k` pairs
/// to `kept` and, when given, every other pair to `rejected`, both
/// ascending — selecting among the candidates strictly above the cut's
/// `lo` in `scratch` or, without a cut or when fewer than `k` were
/// collected, among every pair. Returns how many pairs the tail examined
/// and the selection as a [`SelectRule`].
fn select_among(
    input: Input<'_>,
    k: usize,
    cut: Option<Cut>,
    scratch: &mut TopkScratch,
    kept: PairVecs<'_>,
    rejected: Option<PairVecs<'_>>,
) -> (usize, SelectRule) {
    let n = input.vals().len();
    kept.0.reserve_exact(k.min(n));
    kept.1.reserve_exact(k.min(n));
    let TopkScratch {
        cand_idx,
        cand_val,
        band,
    } = scratch;
    let (cands, cut) = match cut {
        Some(cut) if cand_idx.len() >= k => (Input::Packed(cand_idx, cand_val), cut),
        _ => (input, Cut::NONE),
    };
    let mut rule = SelectRule::find(k, cands, cut.hi, band);
    // `ALL` takes every candidate, which is every entry above `lo`.
    rule.t = rule.t.max(cut.lo);
    match rejected {
        None => rule.emit(cands, kept, None),
        // The rejects are every pair the answer leaves, candidate or not:
        // the emit reads the whole input.
        Some(rejected) => {
            rejected.0.reserve_exact(n.saturating_sub(k));
            rejected.1.reserve_exact(n.saturating_sub(k));
            rule.emit(input, kept, Some(rejected));
        }
    }
    (cands.vals().len(), rule)
}

/// The whole kernel, steps 1–4, over `input`: appends its exact top-`k`
/// pairs to `kept` and, when given, every other pair to `rejected`, both
/// ascending (see [`select_among`]). The local select runs it over a
/// dense buffer, the `⊤` merge over the packed pairs of its sum.
pub(crate) fn select(
    input: Input<'_>,
    k: usize,
    scratch: &mut TopkScratch,
    kept: PairVecs<'_>,
    rejected: Option<PairVecs<'_>>,
) -> (usize, SelectRule) {
    scratch.cand_idx.clear();
    scratch.cand_val.clear();
    let n = input.vals().len();
    let cut = sampled_cut(n, k, scratch, |j| input.vals()[j]);
    if let Some(cut) = cut {
        let cand = (&mut scratch.cand_idx, &mut scratch.cand_val);
        simd::partition_above(input.pairs(0..n), cut.lo, Some(cand), None);
    }
    select_among(input, k, cut, scratch, kept, rejected)
}

/// Sparsifies a dense vector into `out`, keeping the `k` entries of
/// largest |value| and reusing `scratch` buffers.
///
/// This is exactly `G̃ = G ⊙ Mask` of Algorithm 1, allocation-free in
/// steady state: one streaming O(m) pass plus an O(k) tail (see the
/// module docs), a pure function of `dense`, deterministic under ties
/// (lower index wins). Keeps every entry if `k >= dense.len()`.
///
/// Returns the number of coordinates the final exact select examined:
/// the candidate count on the threshold path, `dense.len()` otherwise —
/// the speed-vs-exactness tests use it to show the fast path engages.
pub fn topk_sparse_into(
    dense: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> usize {
    out.dim = dense.len();
    out.clear();
    let kept = (&mut out.indices, &mut out.values);
    select(Input::Dense(dense), k, scratch, kept, None).0
}

/// Indices of the `k` entries of largest absolute value, ascending order.
///
/// Allocating wrapper around [`topk_sparse_into`]; hot paths hold a
/// [`TopkScratch`] and call it instead.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::topk_indices;
/// assert_eq!(topk_indices(&[1.0, -9.0, 3.0], 2), vec![1, 2]);
/// ```
pub fn topk_indices(values: &[f32], k: usize) -> Vec<u32> {
    topk_sparse(values, k).indices
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
/// but the accumulate, the threshold compare and the packing of the
/// candidate pairs all happen in a single traversal
/// (`gtopk_tensor::simd::partition_above` over `Pairs::Accumulate`), so
/// the big buffer crosses the memory bus once rather than three times,
/// and the tail writes the selected values straight from the candidate
/// pairs. The threshold is estimated *before* the pass by sampling
/// `mag(acc[i] + grad[i])` — the identical floats (one IEEE rounding per
/// add) the unfused path samples after accumulating, at the identical
/// positions.
///
/// Writes the exact top-`k` of the accumulated buffer into `out` and
/// zeroes the selected coordinates in `acc`. Returns the number of
/// coordinates the final exact select examined, like
/// [`topk_sparse_into`].
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
    let (examined, _) = accumulate_select(acc, grad, k, scratch, out);
    for &i in &out.indices {
        acc[i as usize] = 0.0;
    }
    examined
}

/// [`accumulate_select_compact`] without step 3: the selection stays in
/// `acc`, and the returned [`SelectRule`] tells which of its coordinates
/// the select took, for as long as `acc` is not written. Also returns the
/// examined count.
///
/// # Panics
///
/// Panics if `grad.len() != acc.len()`.
pub(crate) fn accumulate_select(
    acc: &mut [f32],
    grad: &[f32],
    k: usize,
    scratch: &mut TopkScratch,
    out: &mut SparseVec,
) -> (usize, SelectRule) {
    assert_eq!(grad.len(), acc.len(), "gradient length mismatch");
    scratch.cand_idx.clear();
    scratch.cand_val.clear();
    let cut = sampled_cut(acc.len(), k, scratch, |i| acc[i] + grad[i]);
    match cut {
        // THE fused pass: accumulate, threshold-compare the accumulated
        // value, and pack the candidate pairs, one traversal.
        Some(cut) => {
            let src = Pairs::Accumulate {
                acc,
                g: grad,
                base: 0,
            };
            let cand = (&mut scratch.cand_idx, &mut scratch.cand_val);
            simd::partition_above(src, cut.lo, Some(cand), None);
        }
        None => simd::axpy(acc, grad),
    }
    out.dim = acc.len();
    out.clear();
    let kept = (&mut out.indices, &mut out.values);
    select_among(Input::Dense(acc), k, cut, scratch, kept, None)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut sv = SparseVec::empty(0);
        for seed in 0..5u64 {
            let v: Vec<f32> = (0..500)
                .map(|i| (((i as u64 + 1) * (seed + 3) * 2_654_435_761) % 1000) as f32 - 500.0)
                .collect();
            topk_sparse_into(&v, 17, &mut scratch, &mut sv);
            assert_eq!(sv, topk_sparse(&v, 17), "seed {seed}");
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
        // Small magnitudes exactly at the positions the sampler reads,
        // large ones everywhere else: more than k candidates clear
        // `t_hi`, and the tail selects over every candidate.
        let n = 3 * PREFILTER_MIN;
        let mut values: Vec<f32> = (0..n).map(|i| 10.0 + (i % 7) as f32).collect();
        let sampled: Vec<usize> = sample_positions(n, sample_step(n)).collect();
        assert_eq!(sampled.len(), n / 16);
        for (j, &x) in sampled.iter().enumerate() {
            values[x] = 0.1 + j as f32 * 1e-4;
        }
        for k in [n / 4, n / 2] {
            assert_all_paths_match_oracle(&values, k);
            let examined = topk_sparse_into(
                &values,
                k,
                &mut TopkScratch::new(),
                &mut SparseVec::empty(0),
            );
            assert!(examined > n - n / 16, "k={k}: examined {examined}");
        }
    }

    #[test]
    fn a_pass_that_collects_more_candidates_than_its_room_stays_exact() {
        // The sampled positions hold the small magnitudes, every other
        // position ties at a larger one: the pass collects every one of
        // those, far past the room reserved for the candidates, and the
        // answer is the lowest-index ties.
        let n = 3 * PREFILTER_MIN;
        let mut values = vec![-2.0f32; n];
        for (j, x) in sample_positions(n, sample_step(n)).enumerate() {
            values[x] = 1.0 + j as f32 * 1e-4;
        }
        let k = n / 100;
        assert_all_paths_match_oracle(&values, k);
        let mut scratch = TopkScratch::new();
        let examined = topk_sparse_into(&values, k, &mut scratch, &mut SparseVec::empty(0));
        assert!(examined > n - n / 16, "examined {examined}");
        assert!(
            scratch.cand_idx.capacity() < examined * 2,
            "the candidates doubled"
        );
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
    }
}
