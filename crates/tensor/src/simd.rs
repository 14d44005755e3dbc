//! Runtime-dispatched SIMD kernels for the gradient hot path.
//!
//! Every per-element pass the per-step critical path performs — residual
//! accumulate (`acc += g`), the packing kernel under every top-k
//! threshold pass ([`partition_above`]: split `(index, value)` pairs at a
//! magnitude, optionally fused with the accumulate), the GEMM kernel
//! under every matmul ([`gemm_acc`]), the convolution's table-driven data
//! movement ([`gather`]: im2col and the weight-gradient operand;
//! [`gather_sum`]: col2im) and the max pool's window scan
//! ([`max_pool`]) — funnels through this module, which picks an AVX2 or a
//! portable-scalar implementation at runtime.
//!
//! # Gathers are safe
//!
//! The gathers read `src[table[j]]` through an [`IndexTable`], which
//! records its largest entry when it is built. Each call compares that
//! one number with `src.len()` and panics if the table reaches past the
//! source, so the AVX2 kernel's unchecked `vgatherdps` loads never leave
//! `src`: one O(1) check a call, none per element, and no `unsafe`
//! function outside this module.
//!
//! # Dispatch
//!
//! The level is resolved, in priority order, from:
//!
//! 1. a thread-local override installed by [`with_simd_level`] (used by the
//!    identity tests and benchmarks to compare levels on the same inputs),
//! 2. the `GTOPK_SIMD` environment variable (read once per process;
//!    `auto`, `avx2`, or `scalar` — anything else falls back to `auto`),
//! 3. feature detection (`is_x86_feature_detected!`): AVX2 when the CPU
//!    has it (with POPCNT, which every AVX2 CPU has), otherwise scalar.
//!
//! A requested level the CPU cannot execute is clamped down to the best
//! detected one, so `GTOPK_SIMD=avx2` on a host without AVX2 runs scalar
//! instead of faulting.
//!
//! # Determinism
//!
//! Every kernel here is **bitwise identical** to its scalar counterpart
//! at every level: replicas must not diverge just because one host has
//! AVX2 and another does not.
//! The identity holds by construction, not by tolerance:
//!
//! - the elementwise kernels (`acc += g`, `c += a·b`) perform exactly one
//!   IEEE-754 rounding per element per operation in lane order; vector
//!   `addps`/`mulps` round each lane exactly like the scalar ops. The
//!   matmul kernels deliberately use separate multiply and add
//!   instructions — **no FMA** — because fusing would drop the
//!   intermediate rounding the scalar loop performs. [`gemm_acc`]'s
//!   register tiles only keep C's partial sums in registers between terms
//!   instead of storing and reloading them; no chain is split or
//!   reordered, and a skipped term keeps its accumulator by a blend.
//! - the packing kernel compares the top-k comparator's magnitude
//!   `max(|v|, +0.0)` with an ordered, non-signaling predicate
//!   (`_CMP_GT_OQ`): `maxps` returns its second operand when the first is
//!   NaN, so a NaN value counts as +0.0 exactly as the scalar `mag` makes
//!   it — it passes a negative threshold and ties `t = 0` like any zero —
//!   and, as with the scalar `>`, nothing is above a NaN threshold.
//! - packing keeps each side's lanes in ascending lane order — a
//!   left-pack permutation at AVX2, slot writes lane by lane at scalar
//!   level — so pairs are emitted in exactly the serial order.
//! - a gather only moves bits; a gather-sum adds each element's terms
//!   from `+0.0` in ascending table row, one `addps` lane per element,
//!   as the scalar loop adds them.
//! - the max pool compares with `_CMP_GT_OQ` (false for NaN, as the
//!   scalar `>`) and blends value and index on the same mask, taking a
//!   window's elements in the scalar loop's `(dy, dx)` order.
//! - denormals behave identically: Rust never enables FTZ/DAZ, and the
//!   scalar f32 ops on `x86_64` execute on the same SSE units.

use std::cell::Cell;
use std::fmt;
use std::hint::select_unpredictable;
use std::sync::OnceLock;

/// A SIMD instruction-set level the kernels can dispatch to.
///
/// Ordered by capability: `Scalar < Avx2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference implementation every other
    /// level must match bitwise.
    Scalar,
    /// 256-bit AVX2 (8 × f32 lanes).
    Avx2,
}

impl SimdLevel {
    /// All levels, weakest first.
    pub const ALL: [SimdLevel; 2] = [SimdLevel::Scalar, SimdLevel::Avx2];

    /// Lower-case name as accepted by `GTOPK_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this level.
    pub fn available(self) -> bool {
        self <= detect_best()
    }

    /// Parses a `GTOPK_SIMD` value. `auto` and unrecognized strings give
    /// `None` (= use detection).
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Best level the running CPU supports.
#[cfg(target_arch = "x86_64")]
pub fn detect_best() -> SimdLevel {
    static BEST: OnceLock<SimdLevel> = OnceLock::new();
    *BEST.get_or_init(|| {
        // Every AVX2 CPU has POPCNT; the packing kernels use both.
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("popcnt") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    })
}

/// Best level the running CPU supports.
#[cfg(not(target_arch = "x86_64"))]
pub fn detect_best() -> SimdLevel {
    SimdLevel::Scalar
}

/// Detected CPU SIMD features as a space-separated string (for bench
/// metadata), e.g. `"avx2 sse2"`.
pub fn features_string() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if std::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        feats.push("sse2");
    }
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(" ")
}

static DEFAULT_LEVEL: OnceLock<SimdLevel> = OnceLock::new();

thread_local! {
    static LEVEL_OVERRIDE: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The SIMD level kernels will dispatch to on this thread.
///
/// Resolution order: [`with_simd_level`] override, then `GTOPK_SIMD`,
/// then [`detect_best`]. The result is always executable on this CPU
/// (requests above the detected capability are clamped down).
pub fn level() -> SimdLevel {
    let requested = if let Some(l) = LEVEL_OVERRIDE.with(|c| c.get()) {
        l
    } else {
        *DEFAULT_LEVEL.get_or_init(|| {
            std::env::var("GTOPK_SIMD")
                .ok()
                .and_then(|v| SimdLevel::parse(&v))
                .unwrap_or_else(detect_best)
        })
    };
    requested.min(detect_best())
}

/// Runs `f` with the dispatch level pinned to `level` on this thread.
///
/// The override nests (the previous value is restored on exit, even on
/// panic) and only affects kernels invoked from the calling thread —
/// exactly what the bitwise-identity tests need to compare levels on the
/// same inputs within one process. Levels above the CPU's capability are
/// clamped down by [`level`], same as the environment override.
pub fn with_simd_level<T>(level: SimdLevel, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LEVEL_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(LEVEL_OVERRIDE.with(|c| c.replace(Some(level))));
    f()
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. Every SIMD path must match these bitwise.
// ---------------------------------------------------------------------------

fn axpy_scalar(acc: &mut [f32], x: &[f32]) {
    for (a, &g) in acc.iter_mut().zip(x.iter()) {
        *a += g;
    }
}

fn row_axpy_scalar(c: &mut [f32], b: &[f32], a: f32) {
    for (cv, &bv) in c.iter_mut().zip(b.iter()) {
        *cv += a * bv;
    }
}

/// The per-(row, p) loop every [`gemm_acc`] level reproduces: one
/// `c[j] += a·b[j]` row step per term, in ascending `p`.
fn gemm_acc_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize, skip_zero: bool) {
    for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        for (brow, &av) in b.chunks_exact(n).zip(arow) {
            if skip_zero && av == 0.0 {
                continue;
            }
            row_axpy_scalar(crow, brow, av);
        }
    }
}

/// The scalar [`gather`]: one copy per entry, row by row.
fn gather_scalar(src: &[f32], table: &IndexTable, dst: &mut [f32], stride: usize) {
    for (r, idx) in table.idx.chunks_exact(table.cols).enumerate() {
        for (d, &i) in dst[r * stride..][..table.cols].iter_mut().zip(idx) {
            *d = src[i as usize];
        }
    }
}

/// The scalar [`gather_sum`] of elements `from..`: each from `+0.0`, one
/// add per table row in ascending row.
fn gather_sum_scalar(src: &[f32], table: &IndexTable, dst: &mut [f32], from: usize) {
    let dst = &mut dst[from..];
    dst.fill(0.0);
    for idx in table.idx.chunks_exact(table.cols) {
        for (d, &i) in dst.iter_mut().zip(&idx[from..]) {
            *d += src[i as usize];
        }
    }
}

/// The scalar [`max_pool`]: one loop per window over its `k × k`
/// elements in `(dy, dx)` order, each a branch-free select on
/// `v > best`.
fn max_pool_scalar(
    x: &[f32],
    (h, w): (usize, usize),
    k: usize,
    best: &mut [f32],
    arg: &mut [usize],
) {
    let (oh, ow) = (h / k, w / k);
    let rows = best.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow));
    for (r, (best, arg)) in rows.enumerate() {
        // Output row `oy` of plane `r / oh` starts input row `oy·k`.
        let first = r / oh * h * w + r % oh * k * w;
        for (ox, (b, a)) in best.iter_mut().zip(arg).enumerate() {
            let corner = first + ox * k;
            let (mut m, mut at) = (f32::NEG_INFINITY, corner);
            for dy in 0..k {
                for dx in 0..k {
                    let i = corner + dy * w + dx;
                    let wins = x[i] > m;
                    m = select_unpredictable(wins, x[i], m);
                    at = select_unpredictable(wins, i, at);
                }
            }
            (*b, *a) = (m, at);
        }
    }
}

/// `|v|` with NaN mapped to +0.0 — the top-k comparator's magnitude.
#[inline]
fn mag(v: f32) -> f32 {
    let m = v.abs();
    if m.is_nan() {
        0.0
    } else {
        m
    }
}

/// The scalar [`partition_above`], and the AVX2 kernel's remainder:
/// groups of eight pairs, summed for [`Pairs::Accumulate`] and compared
/// by [`mask_scalar`] (a last group may be shorter), then written pair by
/// pair without a branch on each side — the above side skipping a group
/// with no lane set, as at AVX2.
fn partition_scalar<const ABOVE: bool, const BELOW: bool>(
    src: Pairs<'_>,
    thr: f32,
    above: &mut PairSink<'_>,
    below: &mut PairSink<'_>,
) {
    const W: usize = 8;
    let iota = |at: u32| -> [u32; W] { std::array::from_fn(|lane| at + lane as u32) };
    let n = src.len();
    // Whole groups as fixed-size windows, so every per-lane loop below
    // has a constant trip count; then the short last group.
    let whole = n - n % W;
    let mut sides = Sides::new(above, below);
    match src {
        Pairs::Dense { v, base } => {
            for j in (0..whole).step_by(W) {
                let val = &v[j..j + W];
                let mask = mask_scalar(val, thr);
                if Sides::writes::<ABOVE, BELOW>(mask) {
                    sides.put::<ABOVE, BELOW>(mask, &iota(base + j as u32), val);
                }
            }
            let val = &v[whole..];
            let idx = iota(base + whole as u32);
            sides.put::<ABOVE, BELOW>(mask_scalar(val, thr), &idx[..val.len()], val);
        }
        Pairs::Accumulate { acc, g, base } => {
            for j in (0..whole).step_by(W) {
                let sums = &mut acc[j..j + W];
                axpy_scalar(sums, &g[j..j + W]);
                let mask = mask_scalar(sums, thr);
                if Sides::writes::<ABOVE, BELOW>(mask) {
                    sides.put::<ABOVE, BELOW>(mask, &iota(base + j as u32), sums);
                }
            }
            let sums = &mut acc[whole..];
            axpy_scalar(sums, &g[whole..]);
            let idx = iota(base + whole as u32);
            sides.put::<ABOVE, BELOW>(mask_scalar(sums, thr), &idx[..sums.len()], sums);
        }
        Pairs::Packed { idx, val } => {
            for j in (0..whole).step_by(W) {
                let val = &val[j..j + W];
                sides.put::<ABOVE, BELOW>(mask_scalar(val, thr), &idx[j..j + W], val);
            }
            let val = &val[whole..];
            sides.put::<ABOVE, BELOW>(mask_scalar(val, thr), &idx[whole..], val);
        }
    }
    sides.finish();
}

/// The two sides of a partition, their cursors held apart from the
/// sinks for the length of a kernel's loop.
struct Sides<'s, 'a, 'b> {
    above: &'s mut PairSink<'a>,
    below: &'s mut PairSink<'b>,
    a: Cursor,
    b: Cursor,
}

impl<'s, 'a, 'b> Sides<'s, 'a, 'b> {
    fn new(above: &'s mut PairSink<'a>, below: &'s mut PairSink<'b>) -> Self {
        let (a, b) = (above.at, below.at);
        Sides { above, below, a, b }
    }

    /// Whether a group whose lanes above are `mask` writes anything: the
    /// above side skips a group with no lane set.
    #[inline(always)]
    fn writes<const ABOVE: bool, const BELOW: bool>(mask: u32) -> bool {
        BELOW || (ABOVE && mask != 0)
    }

    /// Slot writes of one group's pairs `(idx, val)`, above where their
    /// bit of `mask` is set (see [`Sides::writes`]).
    #[inline(always)]
    fn put<const ABOVE: bool, const BELOW: bool>(&mut self, mask: u32, idx: &[u32], val: &[f32]) {
        if ABOVE && mask != 0 {
            put_lanes(&mut self.a, self.above, mask, idx, val);
        }
        if BELOW {
            put_lanes(&mut self.b, self.below, !mask, idx, val);
        }
    }

    /// Stores the cursors back into their sinks.
    fn finish(self) {
        (self.above.at, self.below.at) = (self.a, self.b);
    }
}

/// [`Cursor::put`] for each pair of `(idx, val)`, kept where its bit of
/// `mask` is set.
#[inline(always)]
fn put_lanes(at: &mut Cursor, sink: &mut PairSink<'_>, mask: u32, idx: &[u32], val: &[f32]) {
    for (lane, (&i, &v)) in idx.iter().zip(val).enumerate() {
        at.put(sink, i, v, mask >> lane & 1 == 1);
    }
}

/// Bit `l` set for each lane `l` of `val` with `mag(val[l]) > thr`.
fn mask_scalar(val: &[f32], thr: f32) -> u32 {
    let hits = val.iter().map(|&v| u32::from(mag(v) > thr));
    hits.enumerate().fold(0, |m, (lane, hit)| m | hit << lane)
}

/// Where [`partition_above`] reads its `(index, value)` pairs from.
#[derive(Debug)]
pub enum Pairs<'a> {
    /// `(base + j, v[j])`.
    Dense {
        /// The values.
        v: &'a [f32],
        /// The index of `v[0]`.
        base: u32,
    },
    /// `(base + j, acc[j] + g[j])`, each sum also stored back into
    /// `acc[j]`: the residual accumulate, fused with the partition.
    Accumulate {
        /// The accumulator, updated in place.
        acc: &'a mut [f32],
        /// What is added to it.
        g: &'a [f32],
        /// The index of `acc[0]`.
        base: u32,
    },
    /// `(idx[j], val[j])`: packed candidates.
    Packed {
        /// The indices.
        idx: &'a [u32],
        /// The values, parallel to `idx`.
        val: &'a [f32],
    },
}

impl Pairs<'_> {
    fn len(&self) -> usize {
        match self {
            Pairs::Dense { v, .. } => v.len(),
            Pairs::Accumulate { acc, .. } => acc.len(),
            Pairs::Packed { val, .. } => val.len(),
        }
    }
}

/// One side's output of [`partition_above`]: parallel index and value
/// vectors, appended to.
pub type PairVecs<'a> = (&'a mut Vec<u32>, &'a mut Vec<f32>);

/// An index and a value vector being appended to by branch-free slot
/// writes: each pair is written to the slot past the end, inside spare
/// capacity, and only a kept pair moves the end. Only a pair kept while
/// no capacity is spare grows the vectors, so they never grow beyond
/// what the kept pairs need. Dropping the sink sets both lengths.
///
/// The kernels copy the write state ([`Cursor`]) into a local for their
/// loops and store it back before they return or grow the vectors, so it
/// stays in registers: as a field of the sink it would be reloaded
/// around every store through its own pointers.
struct PairSink<'a> {
    idx: &'a mut Vec<u32>,
    val: &'a mut Vec<f32>,
    at: Cursor,
}

/// Where a [`PairSink`] writes next: the vectors' buffers, the pairs
/// written so far and the slots allocated.
#[derive(Clone, Copy)]
struct Cursor {
    pi: *mut u32,
    pv: *mut f32,
    len: usize,
    cap: usize,
}

impl Cursor {
    /// Appends `(i, v)` to `sink`, whose cursor `self` is, if `keep` —
    /// without a branch while capacity is spare.
    #[inline(always)]
    fn put(&mut self, sink: &mut PairSink<'_>, i: u32, v: f32, keep: bool) {
        if self.len < self.cap {
            // SAFETY: `len < cap` keeps both writes inside the vectors'
            // allocations; `len` only moves past initialised slots.
            unsafe {
                self.pi.add(self.len).write(i);
                self.pv.add(self.len).write(v);
            }
            self.len += usize::from(keep);
        } else if keep {
            sink.at = *self;
            sink.push_growing(i, v);
            *self = sink.at;
        }
    }
}

impl<'a> PairSink<'a> {
    fn new((idx, val): PairVecs<'a>) -> Self {
        assert_eq!(
            idx.len(),
            val.len(),
            "index and value vectors differ in length"
        );
        let at = Cursor {
            pi: idx.as_mut_ptr(),
            pv: val.as_mut_ptr(),
            len: idx.len(),
            cap: idx.capacity().min(val.capacity()),
        };
        PairSink { idx, val, at }
    }

    #[cold]
    #[inline(never)]
    fn push_growing(&mut self, i: u32, v: f32) {
        self.set_lens();
        self.idx.push(i);
        self.val.push(v);
        self.at = Cursor {
            pi: self.idx.as_mut_ptr(),
            pv: self.val.as_mut_ptr(),
            len: self.at.len + 1,
            cap: self.idx.capacity().min(self.val.capacity()),
        };
    }

    fn set_lens(&mut self) {
        // SAFETY: `len <= cap` and every slot below `len` was written.
        unsafe {
            self.idx.set_len(self.at.len);
            self.val.set_len(self.at.len);
        }
    }
}

impl Drop for PairSink<'_> {
    fn drop(&mut self) {
        self.set_lens();
    }
}

// ---------------------------------------------------------------------------
// x86_64 SIMD kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{
        axpy_scalar, gather_sum_scalar, max_pool_scalar, partition_scalar, put_lanes, Cursor,
        IndexTable, PairSink, Pairs, Sides,
    };
    use core::arch::x86_64::*;

    // Every function in this module requires the caller to guarantee the
    // named target feature is available (enforced by `super::level()`
    // clamping to `detect_best()`); the pointer arithmetic stays inside
    // the slice bounds by construction of the `i + LANES <= n` loops.

    /// [`super::gather`] at AVX2: each row eight entries a `vgatherdps`,
    /// then its last `cols mod 8` one by one.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, every entry of `table` lies below
    /// `src.len()`, and row `r` fits `dst[r·stride..r·stride + cols]`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_avx2(src: &[f32], table: &IndexTable, dst: &mut [f32], stride: usize) {
        let cols = table.cols;
        let ps = src.as_ptr();
        for (r, row) in table.idx.chunks_exact(cols).enumerate() {
            let (pi, pd) = (row.as_ptr(), dst.as_mut_ptr().add(r * stride));
            let mut j = 0;
            while j + 8 <= cols {
                let vi = _mm256_loadu_si256(pi.add(j).cast());
                _mm256_storeu_ps(pd.add(j), _mm256_i32gather_ps::<4>(ps, vi));
                j += 8;
            }
            for j in j..cols {
                *pd.add(j) = *ps.add(*pi.add(j) as usize);
            }
        }
    }

    /// [`super::gather_sum`] at AVX2: eight elements at a time, each lane
    /// from `+0.0` with one gather and one add per table row in ascending
    /// row; the last `cols mod 8` elements by the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, every entry of `table` lies below
    /// `src.len()`, and `dst.len() == table.cols`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_sum_avx2(src: &[f32], table: &IndexTable, dst: &mut [f32]) {
        let (n, rows) = (table.cols, table.rows());
        let (ps, pi, pd) = (src.as_ptr(), table.idx.as_ptr(), dst.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = _mm256_setzero_ps();
            for r in 0..rows {
                let vi = _mm256_loadu_si256(pi.add(r * n + j).cast());
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(ps, vi));
            }
            _mm256_storeu_ps(pd.add(j), acc);
            j += 8;
        }
        gather_sum_scalar(src, table, dst, j);
    }

    /// [`super::max_pool`] at AVX2 for 2×2 windows over planes of even
    /// height whose width `w` is a multiple of 8 or is 4.
    ///
    /// With an even height the input is a run of row pairs, whatever
    /// plane each belongs to: the pair at `e` holds the windows whose
    /// outputs are `e/4..e/4 + w/2`. A step takes four windows' elements
    /// as four vectors in `(dy, dx)` order — each window's top-left
    /// (`a`), top-right (`b`), bottom-left (`c`) and bottom-right (`d`)
    /// — by one `permutevar8x32` per 8-lane load that deals the even
    /// lanes low and the odd lanes high. At `w % 8 == 0` one load is
    /// eight columns of one row (`[a | b]` from the top row, `[c | d]`
    /// from the bottom); at `w == 4` one load is a whole pair, and two
    /// pairs are regrouped into `[a | b]` and `[c | d]` by 64-bit
    /// unpacks. An odd last pair at `w == 4` runs the scalar loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `x` holds whole row pairs of `w`
    /// columns, `w % 8 == 0 || w == 4`, and `best` and `arg` hold
    /// `x.len() / 4` elements.
    #[target_feature(enable = "avx2")]
    pub unsafe fn max_pool2_avx2(x: &[f32], w: usize, best: &mut [f32], arg: &mut [usize]) {
        let deal = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        let px = x.as_ptr();
        let (pb, pa) = (best.as_mut_ptr(), arg.as_mut_ptr());
        let halves = |v: __m256| [_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v)];
        if w.is_multiple_of(8) {
            let lanes = _mm256_setr_epi64x(0, 2, 4, 6);
            for e in (0..x.len()).step_by(2 * w) {
                for j in (0..w).step_by(8) {
                    let top = _mm256_permutevar8x32_ps(_mm256_loadu_ps(px.add(e + j)), deal);
                    let bottom = _mm256_permutevar8x32_ps(_mm256_loadu_ps(px.add(e + w + j)), deal);
                    let [a, b] = halves(top);
                    let [c, d] = halves(bottom);
                    let first = _mm256_add_epi64(_mm256_set1_epi64x((e + j) as i64), lanes);
                    let o = e / 4 + j / 2;
                    window4(pb.add(o), pa.add(o), [a, b, c, d], first, [0, 1, w, w + 1]);
                }
            }
        } else {
            let lanes = _mm256_setr_epi64x(0, 2, 8, 10);
            let mut e = 0;
            while e + 16 <= x.len() {
                // [a0 a1 c0 c1 | b0 b1 d0 d1] and the next pair's [a2 a3 …].
                let p0 =
                    _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_loadu_ps(px.add(e)), deal));
                let p1 = _mm256_castps_pd(_mm256_permutevar8x32_ps(
                    _mm256_loadu_ps(px.add(e + 8)),
                    deal,
                ));
                let [a, b] = halves(_mm256_castpd_ps(_mm256_unpacklo_pd(p0, p1)));
                let [c, d] = halves(_mm256_castpd_ps(_mm256_unpackhi_pd(p0, p1)));
                let first = _mm256_add_epi64(_mm256_set1_epi64x(e as i64), lanes);
                window4(
                    pb.add(e / 4),
                    pa.add(e / 4),
                    [a, b, c, d],
                    first,
                    [0, 1, 4, 5],
                );
                e += 16;
            }
            if e < x.len() {
                let (best, arg) = (&mut best[e / 4..], &mut arg[e / 4..]);
                max_pool_scalar(&x[e..], (2, 4), 2, best, arg);
                arg.iter_mut().for_each(|a| *a += e);
            }
        }
    }

    /// Four windows' first strict maximum over the candidates `c`, taken
    /// in order from `(−∞, first)`: candidate `i` of window `l` is at
    /// index `first[l] + offs[i]`. Stores the maxima at `pb` and their
    /// indices at `pa`, four of each.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `pb`, `pa` must be valid for four
    /// writes.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn window4(
        pb: *mut f32,
        pa: *mut usize,
        c: [__m128; 4],
        first: __m256i,
        offs: [usize; 4],
    ) {
        let mut m = _mm_set1_ps(f32::NEG_INFINITY);
        let mut at = _mm256_castsi256_pd(first);
        for (v, off) in c.into_iter().zip(offs) {
            // GT_OQ: false for NaN, as the scalar `v > m`.
            let wins = _mm_cmp_ps::<_CMP_GT_OQ>(v, m);
            m = _mm_blendv_ps(m, v, wins);
            let idx = _mm256_add_epi64(first, _mm256_set1_epi64x(off as i64));
            let wide = _mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_castps_si128(wins)));
            at = _mm256_blendv_pd(at, _mm256_castsi256_pd(idx), wide);
        }
        _mm_storeu_ps(pb, m);
        _mm256_storeu_si256(pa.cast(), _mm256_castpd_si256(at));
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        debug_assert_eq!(n, x.len());
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let mut i = 0usize;
        while i + 8 <= n {
            let va = _mm256_loadu_ps(pa.add(i));
            let vx = _mm256_loadu_ps(px.add(i));
            _mm256_storeu_ps(pa.add(i), _mm256_add_ps(va, vx));
            i += 8;
        }
        axpy_scalar(&mut acc[i..], &x[i..]);
    }

    /// `C[rows, n] += A[rows, k] · B[k, n]`, holding C tiles in registers
    /// across the whole ascending-`p` loop: per element the same `c + a·b`
    /// chain (separate mul and add) as the scalar row loop, with C loaded
    /// and stored once instead of `k` times.
    ///
    /// The first `n − n mod 32` columns go one C row at a time, 64 or 32
    /// columns (8 or 4 registers) per tile. The last `n mod 32` columns
    /// go four C rows at a time, 16 columns (two registers a row, eight
    /// independent chains) per pass; the last pass masks its loads and
    /// stores to the columns that remain, so no scalar tail is left.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `k` and `n` must be non-zero (A and
    /// C are read as whole rows of `k` and `n`; B's length is checked).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_acc_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        k: usize,
        n: usize,
        skip_zero: bool,
    ) {
        assert_eq!(b.len(), k * n, "gemm_acc: B is not [k, n]");
        let wide = n / 32 * 32;
        // Every tile call below meets `gemm_tile_avx2`'s contract: `crow`
        // is a whole row of `n`, `arow` one of `k` with `b.len() == k·n`,
        // and each loop condition is `j + 8·R <= wide <= n`. The narrow
        // call meets `gemm_narrow_avx2`'s: `wide < n`, and `a` and `c`
        // hold the same whole rows the tiles walked.
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let mut j = 0usize;
            while j + 64 <= wide {
                gemm_tile_avx2::<8>(arow, b, crow, j, n, skip_zero);
                j += 64;
            }
            if j < wide {
                gemm_tile_avx2::<4>(arow, b, crow, j, n, skip_zero);
            }
        }
        if wide < n {
            gemm_narrow_avx2(a, b, c, wide, k, n, skip_zero);
        }
    }

    /// Columns `j0..n` of every C row of [`gemm_acc_avx2`], in blocks of
    /// four rows (the last block holds what is left).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `j0 < n`, `b.len() == k·n` and `a`, `c`
    /// hold whole rows of `k` and `n` (the same number of rows).
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_narrow_avx2(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        j0: usize,
        k: usize,
        n: usize,
        skip_zero: bool,
    ) {
        let rows = c.len() / n;
        let mut r = 0usize;
        // Each call's rows `r..r + block` lie inside C: `block <= rows − r`.
        while r < rows {
            let block = (rows - r).min(4);
            match block {
                4 => gemm_rows_avx2::<4>(a, b, c, r, j0, k, n, skip_zero),
                3 => gemm_rows_avx2::<3>(a, b, c, r, j0, k, n, skip_zero),
                2 => gemm_rows_avx2::<2>(a, b, c, r, j0, k, n, skip_zero),
                _ => gemm_rows_avx2::<1>(a, b, c, r, j0, k, n, skip_zero),
            }
            r += block;
        }
    }

    /// Columns `j0..n` of C rows `r0..r0 + R`: whole 16-column passes,
    /// then one masked pass of two tiles (9–15 columns left) or one tile
    /// (1–8 left).
    ///
    /// # Safety
    ///
    /// As [`gemm_narrow_avx2`], with `r0 + R` rows inside C.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_rows_avx2<const R: usize>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        r0: usize,
        j0: usize,
        k: usize,
        n: usize,
        skip_zero: bool,
    ) {
        // Lanes below `m` set: the columns a masked tile touches.
        let lanes = |m: usize| {
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(m as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        };
        // Every pass's columns, masked lanes only in the last, lie below
        // `n`: `j + 16 <= n`, then `left = n − j` columns.
        let mut j = j0;
        while j + 16 <= n {
            gemm_block_avx2::<R, 2, false>(a, b, c, r0, j, k, n, skip_zero, lanes(8));
            j += 16;
        }
        match n - j {
            0 => {}
            left @ 1..=8 => {
                gemm_block_avx2::<R, 1, true>(a, b, c, r0, j, k, n, skip_zero, lanes(left))
            }
            left => gemm_block_avx2::<R, 2, true>(a, b, c, r0, j, k, n, skip_zero, lanes(left - 8)),
        }
    }

    /// C rows `r0..r0 + R`, columns `j..j + 8·T` (the last tile only in
    /// `mask`'s lanes when `MASKED`), held in `R·T` registers across the
    /// ascending-`p` loop. A skipped term (`skip_zero` and
    /// `A[row, p] == 0.0`) keeps the row's accumulators by a blend, as
    /// `continue` would.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `r0 + R` rows of `k` and `n` lie inside
    /// `a` and `c`, `b.len() == k·n`, and the tiles' columns (the masked
    /// lanes only, for the last tile) lie below `n`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_block_avx2<const R: usize, const T: usize, const MASKED: bool>(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        r0: usize,
        j: usize,
        k: usize,
        n: usize,
        skip_zero: bool,
        mask: __m256i,
    ) {
        debug_assert!((r0 + R) * n <= c.len() && (r0 + R) * k <= a.len() && b.len() == k * n);
        let masked = |t: usize| MASKED && t == T - 1;
        let pa = a.as_ptr().add(r0 * k);
        let pb = b.as_ptr().add(j);
        let pc = c.as_mut_ptr().add(r0 * n + j);
        let mut acc = [[_mm256_setzero_ps(); T]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (t, v) in row.iter_mut().enumerate() {
                let src = pc.add(r * n + 8 * t);
                *v = if masked(t) {
                    _mm256_maskload_ps(src, mask)
                } else {
                    _mm256_loadu_ps(src)
                };
            }
        }
        let zero = _mm256_setzero_ps();
        for p in 0..k {
            let row_b = pb.add(p * n);
            let mut vb = [zero; T];
            for (t, v) in vb.iter_mut().enumerate() {
                let src = row_b.add(8 * t);
                *v = if masked(t) {
                    _mm256_maskload_ps(src, mask)
                } else {
                    _mm256_loadu_ps(src)
                };
            }
            let av: [f32; R] = core::array::from_fn(|r| *pa.add(r * k + p));
            // The blend costs as much as the term, so only a `p` with a
            // zero among its R terms pays for it.
            let blend = skip_zero && av.contains(&0.0);
            for (row, &a) in acc.iter_mut().zip(&av) {
                let va = _mm256_set1_ps(a);
                // EQ_OQ: true for ±0.0 only, as the scalar `av == 0.0`.
                let skip = _mm256_cmp_ps::<_CMP_EQ_OQ>(va, zero);
                for (v, &bv) in row.iter_mut().zip(&vb) {
                    // Separate mul + add (no FMA), as in `gemm_tile_avx2`.
                    let sum = _mm256_add_ps(*v, _mm256_mul_ps(va, bv));
                    *v = if blend {
                        _mm256_blendv_ps(sum, *v, skip)
                    } else {
                        sum
                    };
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (t, &v) in row.iter().enumerate() {
                let dst = pc.add(r * n + 8 * t);
                if masked(t) {
                    _mm256_maskstore_ps(dst, mask, v);
                } else {
                    _mm256_storeu_ps(dst, v);
                }
            }
        }
    }

    /// Columns `j..j + 8·R` of one C row `crow` of [`gemm_acc_avx2`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `crow.len() == n`, `j + 8·R <= n` and
    /// `b.len() == arow.len()·n`: together they keep every load and store
    /// inside `crow` and `b`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_tile_avx2<const R: usize>(
        arow: &[f32],
        b: &[f32],
        crow: &mut [f32],
        j: usize,
        n: usize,
        skip_zero: bool,
    ) {
        debug_assert!(j + 8 * R <= n && b.len() == arow.len() * n && crow.len() == n);
        let pc = crow.as_mut_ptr().add(j);
        let mut acc = [_mm256_setzero_ps(); R];
        for (r, v) in acc.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(pc.add(8 * r));
        }
        for (p, &av) in arow.iter().enumerate() {
            if skip_zero && av == 0.0 {
                continue;
            }
            let va = _mm256_set1_ps(av);
            let pb = b.as_ptr().add(p * n + j);
            for (r, v) in acc.iter_mut().enumerate() {
                // Separate mul + add (no FMA): the scalar loop rounds the
                // product before the add, and bitwise identity requires the
                // same two roundings here.
                *v = _mm256_add_ps(*v, _mm256_mul_ps(va, _mm256_loadu_ps(pb.add(8 * r))));
            }
        }
        for (r, v) in acc.iter().enumerate() {
            _mm256_storeu_ps(pc.add(8 * r), *v);
        }
    }

    /// For each 8-lane mask, its set lanes in ascending order, then
    /// padding: the `permutevar8x32` control that left-packs those lanes.
    static LEFT_PACK: [[u32; 8]; 256] = {
        let mut table = [[0u32; 8]; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut lane, mut n) = (0, 0);
            while lane < 8 {
                if mask >> lane & 1 == 1 {
                    table[mask][n] = lane as u32;
                    n += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    /// Appends the lanes of `(idx, val)` set in `mask` to `sink`, whose
    /// cursor `at` is, in lane order: one permute and one store of all
    /// eight per vector, the end then moved by the lane count — slot
    /// writes lane by lane once fewer than eight slots are spare.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    #[inline]
    unsafe fn pack8(
        at: &mut Cursor,
        sink: &mut PairSink<'_>,
        mask: u32,
        idx: __m256i,
        val: __m256,
    ) {
        if at.cap - at.len >= 8 {
            let perm = _mm256_loadu_si256(LEFT_PACK[mask as usize].as_ptr().cast());
            _mm256_storeu_si256(
                at.pi.add(at.len).cast(),
                _mm256_permutevar8x32_epi32(idx, perm),
            );
            _mm256_storeu_ps(at.pv.add(at.len), _mm256_permutevar8x32_ps(val, perm));
            at.len += mask.count_ones() as usize;
        } else {
            let (mut ia, mut va) = ([0u32; 8], [0.0f32; 8]);
            _mm256_storeu_si256(ia.as_mut_ptr().cast(), idx);
            _mm256_storeu_ps(va.as_mut_ptr(), val);
            put_spilled(at, sink, mask, &ia, &va);
        }
    }

    /// [`pack8`]'s lanes as slot writes, once fewer than eight slots are
    /// spare.
    #[cold]
    #[inline(never)]
    fn put_spilled(at: &mut Cursor, sink: &mut PairSink<'_>, mask: u32, idx: &[u32], val: &[f32]) {
        put_lanes(at, sink, mask, idx, val);
    }

    impl Sides<'_, '_, '_> {
        /// One group of eight pairs: the magnitude compare
        /// (`max(|v|, 0)` maps NaN to +0.0, as `mag` does), then a pack
        /// per side. The above side skips a group with no lane set: in a
        /// threshold pass at the paper's density nearly every group is
        /// one, and the branch predicts well. The below side — a band or
        /// the rejected candidates, a few per cent of the pairs — always
        /// packs, since there a skip would mispredict on about half the
        /// groups.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX2 and POPCNT.
        #[target_feature(enable = "avx2,popcnt")]
        #[inline]
        unsafe fn group8<const ABOVE: bool, const BELOW: bool>(
            &mut self,
            idx: __m256i,
            val: __m256,
            thr: __m256,
        ) {
            let m = _mm256_max_ps(
                _mm256_andnot_ps(_mm256_set1_ps(-0.0), val),
                _mm256_setzero_ps(),
            );
            let mask = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(m, thr)) as u32;
            if ABOVE && mask != 0 {
                pack8(&mut self.a, self.above, mask, idx, val);
            }
            if BELOW {
                pack8(&mut self.b, self.below, !mask & 0xff, idx, val);
            }
        }
    }

    /// [`super::partition_above`] at AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    pub unsafe fn partition_avx2<const ABOVE: bool, const BELOW: bool>(
        src: Pairs<'_>,
        thr: f32,
        above: &mut PairSink<'_>,
        below: &mut PairSink<'_>,
    ) {
        let n = src.len();
        let vthr = _mm256_set1_ps(thr);
        let eight = _mm256_set1_epi32(8);
        let iota = |base: u32| {
            _mm256_add_epi32(
                _mm256_set1_epi32(base as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        };
        let mut sides = Sides::new(above, below);
        let mut j = 0usize;
        // Every load and store below covers `j..j + 8` with `j + 8 <= n`.
        let rest = match src {
            Pairs::Dense { v, base } => {
                let mut lanes = iota(base);
                while j + 8 <= n {
                    let x = _mm256_loadu_ps(v.as_ptr().add(j));
                    sides.group8::<ABOVE, BELOW>(lanes, x, vthr);
                    lanes = _mm256_add_epi32(lanes, eight);
                    j += 8;
                }
                Pairs::Dense {
                    v: &v[j..],
                    base: base + j as u32,
                }
            }
            Pairs::Accumulate { acc, g, base } => {
                let (pa, pg) = (acc.as_mut_ptr(), g.as_ptr());
                let mut lanes = iota(base);
                while j + 8 <= n {
                    let s = _mm256_add_ps(_mm256_loadu_ps(pa.add(j)), _mm256_loadu_ps(pg.add(j)));
                    _mm256_storeu_ps(pa.add(j), s);
                    sides.group8::<ABOVE, BELOW>(lanes, s, vthr);
                    lanes = _mm256_add_epi32(lanes, eight);
                    j += 8;
                }
                Pairs::Accumulate {
                    acc: &mut acc[j..],
                    g: &g[j..],
                    base: base + j as u32,
                }
            }
            Pairs::Packed { idx, val } => {
                while j + 8 <= n {
                    let i = _mm256_loadu_si256(idx.as_ptr().add(j).cast());
                    let x = _mm256_loadu_ps(val.as_ptr().add(j));
                    sides.group8::<ABOVE, BELOW>(i, x, vthr);
                    j += 8;
                }
                Pairs::Packed {
                    idx: &idx[j..],
                    val: &val[j..],
                }
            }
        };
        sides.finish();
        partition_scalar::<ABOVE, BELOW>(rest, thr, above, below);
    }
}

// ---------------------------------------------------------------------------
// Public dispatching kernels.
// ---------------------------------------------------------------------------

/// `acc[i] += x[i]` — the residual-accumulate kernel.
///
/// Bitwise identical at every dispatch level: one `addps` rounding per
/// element, in order.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(acc, x) },
        _ => axpy_scalar(acc, x),
    }
}

/// `C[rows, n] += A[rows, k] · B[k, n]` over flat row-major slices — the
/// one GEMM kernel under every `nn` matmul.
///
/// Every element of C keeps the chain one row step `c[j] += a·b[j]` per
/// `(row, p)` gives it: its starting value, then `c + a·b` (a separate
/// multiply and add, never FMA) for ascending `p`, skipping the terms whose
/// `A[row, p] == 0.0` when `skip_zero` is set. The skip is part of the
/// result, not an optimisation: `0·∞` is NaN and `-0.0 + 0.0` is `+0.0`,
/// so a skipped term and an added one can differ.
///
/// Dispatched once per call. At AVX2 C is held in register tiles across
/// the whole `p` loop: 64 or 32 columns of one row, then the last
/// `n mod 32` columns four rows at a time, two 8-lane tiles a row, with
/// masked loads and stores for the last partial tile (no scalar tail).
/// At scalar level it is that row-step loop. Bitwise identical at every
/// level.
///
/// # Panics
///
/// Panics unless `a`, `b` and `c` hold `rows·k`, `k·n` and `rows·n`
/// elements.
pub fn gemm_acc(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    skip_zero: bool,
) {
    assert_eq!(a.len(), rows * k, "gemm_acc: A is not [rows, k]");
    assert_eq!(b.len(), k * n, "gemm_acc: B is not [k, n]");
    assert_eq!(c.len(), rows * n, "gemm_acc: C is not [rows, n]");
    if k == 0 || n == 0 {
        return;
    }
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`,
        // and `k`, `n` are non-zero past the early return.
        SimdLevel::Avx2 => unsafe { x86::gemm_acc_avx2(a, b, c, k, n, skip_zero) },
        _ => gemm_acc_rows(a, b, c, k, n, skip_zero),
    }
}

/// A row-major `[rows, cols]` table of source indices for [`gather`] and
/// [`gather_sum`], which records its reach — one past its largest entry —
/// when it is built, so that a call checks the whole table against its
/// source in O(1).
#[derive(Debug, Default)]
pub struct IndexTable {
    idx: Vec<u32>,
    cols: usize,
    reach: usize,
}

impl IndexTable {
    /// The table whose rows are the `cols`-entry runs of `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero or does not divide `idx.len()`, or if an
    /// entry exceeds `i32::MAX` (the AVX2 gather's index lanes are
    /// signed).
    pub fn new(idx: Vec<u32>, cols: usize) -> Self {
        assert!(
            cols > 0 && idx.len().is_multiple_of(cols),
            "index table of {} entries is not [rows, {cols}]",
            idx.len()
        );
        let reach = idx.iter().max().map_or(0, |&m| m as usize + 1);
        assert!(
            reach <= 1 << 31,
            "index table entry {} exceeds i32::MAX",
            reach - 1
        );
        IndexTable { idx, cols, reach }
    }

    fn rows(&self) -> usize {
        self.idx.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Panics unless every entry indexes `src`.
    fn check(&self, src: &[f32], kernel: &str) {
        assert!(
            self.reach <= src.len(),
            "{kernel}: the table reaches index {} of a {}-element source",
            self.reach - 1,
            src.len()
        );
    }
}

/// `dst[r·stride + j] = src[table[r, j]]` for every entry of `table`: row
/// `r` of the table fills `cols` elements of `dst` from `r·stride` on.
///
/// At AVX2 each row goes eight entries a `vgatherdps`
/// (`_mm256_i32gather_ps`), its last `cols mod 8` one by one; at scalar
/// level it is one copy per entry. It only moves bits, so every level
/// writes the same bits.
///
/// # Panics
///
/// Panics if `table` reaches past `src` (an entry is at least
/// `src.len()`), if `stride` is shorter than a table row, or if `dst`
/// ends before the table's last row does.
pub fn gather(src: &[f32], table: &IndexTable, dst: &mut [f32], stride: usize) {
    let rows = table.rows();
    if rows == 0 {
        return;
    }
    table.check(src, "gather");
    assert!(
        stride >= table.cols
            && (rows - 1)
                .checked_mul(stride)
                .and_then(|end| end.checked_add(table.cols))
                .is_some_and(|end| end <= dst.len()),
        "gather: {rows} rows of {} at stride {stride} do not fit {} elements",
        table.cols,
        dst.len()
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`;
        // every entry lies below `src.len()` and every row fits `dst`
        // (both checked above).
        SimdLevel::Avx2 => unsafe { x86::gather_avx2(src, table, dst, stride) },
        _ => gather_scalar(src, table, dst, stride),
    }
}

/// `dst[j] = +0.0 + src[table[0, j]] + src[table[1, j]] + …`: each element
/// the sum of its column's terms, one per table row, added from `+0.0` in
/// ascending row.
///
/// At AVX2 eight elements go at a time, one gather and one `addps` per
/// row, and the last `cols mod 8` by the scalar loop; at scalar level it
/// is a row-by-row loop of scalar adds. Every element gets the same adds
/// in the same order at every level, so the sums are bitwise identical.
///
/// # Panics
///
/// Panics if `table` reaches past `src` or if `dst` is not one table row
/// long.
pub fn gather_sum(src: &[f32], table: &IndexTable, dst: &mut [f32]) {
    assert_eq!(
        dst.len(),
        table.cols,
        "gather_sum: table columns and destination differ"
    );
    if dst.is_empty() {
        return;
    }
    table.check(src, "gather_sum");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`;
        // every entry lies below `src.len()` and `dst` is one row long
        // (both checked above).
        SimdLevel::Avx2 => unsafe { x86::gather_sum_avx2(src, table, dst) },
        _ => gather_sum_scalar(src, table, dst, 0),
    }
}

/// Max pooling of the `[h, w]` planes of `x` by `k × k` windows at stride
/// `k` (a plane's last `h mod k` rows and `w mod k` columns are in no
/// window). `best[o]` is window `o`'s first strict maximum in `(dy, dx)`
/// order, from `(−∞, the window's first element)`, and `arg[o]` the
/// index in `x` of the element it came from: a tie keeps the earlier
/// element and NaN never wins, so a window of only NaN and `−∞` gives
/// `−∞` at its first element.
///
/// At AVX2, `k = 2` over planes of even `h` whose `w` is a multiple of 8
/// or is 4 runs a row-pair kernel: four windows at a time, their
/// elements dealt into four vectors by `permutevar8x32`, then per
/// element one compare, one value blend and one index blend. Every other
/// shape, and the scalar level, runs one branch-free loop per window.
/// Bitwise identical, values and indices, at every level.
///
/// # Panics
///
/// Panics if `k == 0`, if a plane is smaller than a window, if `x` does
/// not hold whole planes, or unless `best` and `arg` hold one element per
/// window.
pub fn max_pool(x: &[f32], (h, w): (usize, usize), k: usize, best: &mut [f32], arg: &mut [usize]) {
    assert!(
        k > 0 && h >= k && w >= k,
        "max_pool: a {k}x{k} window does not fit a {h}x{w} plane"
    );
    let plane = h.checked_mul(w).expect("max_pool: plane size overflows");
    assert!(
        x.len().is_multiple_of(plane),
        "max_pool: input is not whole planes"
    );
    let windows = x.len() / plane * (h / k) * (w / k);
    assert!(
        best.len() == windows && arg.len() == windows,
        "max_pool: {windows} windows, {} maxima and {} indices",
        best.len(),
        arg.len()
    );
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`;
        // with `k = 2` and an even `h`, `x` is whole row pairs and there
        // are `x.len() / 4` windows (checked above).
        SimdLevel::Avx2 if k == 2 && h.is_multiple_of(2) && (w.is_multiple_of(8) || w == 4) => unsafe {
            x86::max_pool2_avx2(x, w, best, arg)
        },
        _ => max_pool_scalar(x, (h, w), k, best, arg),
    }
}

/// Partitions the pairs of `src` by magnitude: every pair whose value
/// has `mag(v) > thr` (`|v|`, NaN counting as +0.0 — so NaN passes only a
/// negative threshold) is appended to `above`, every other one to
/// `below`, each side in source order; a side given as `None` is
/// skipped. With [`Pairs::Accumulate`] the sums are stored back as the
/// pass goes.
///
/// The top-k kernels run every threshold pass through this one kernel:
/// the fused accumulate-and-collect pass, the band gather and the
/// ordered emit. At AVX2 each group of eight lanes is left-packed per
/// side by one `permutevar8x32` of the indices and one of the values; at
/// scalar level each pair is a branch-free slot write. A group whose side mask is empty skips
/// that side. Bitwise identical — pairs, order, and stored sums — at
/// every level.
///
/// # Panics
///
/// Panics if the slices of `src` differ in length, or a side's index and
/// value vectors do.
pub fn partition_above(
    src: Pairs<'_>,
    thr: f32,
    above: Option<PairVecs<'_>>,
    below: Option<PairVecs<'_>>,
) {
    match &src {
        Pairs::Accumulate { acc, g, .. } => assert_eq!(acc.len(), g.len(), "pair length mismatch"),
        Pairs::Packed { idx, val } => assert_eq!(idx.len(), val.len(), "pair length mismatch"),
        Pairs::Dense { .. } => {}
    }
    let (on_above, on_below) = (above.is_some(), below.is_some());
    let (mut idx_a, mut val_a, mut idx_b, mut val_b) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut above = PairSink::new(above.unwrap_or((&mut idx_a, &mut val_a)));
    let mut below = PairSink::new(below.unwrap_or((&mut idx_b, &mut val_b)));
    let (a, b) = (&mut above, &mut below);
    match (on_above, on_below) {
        (true, true) => partition_at::<true, true>(src, thr, a, b),
        (true, false) => partition_at::<true, false>(src, thr, a, b),
        (false, true) => partition_at::<false, true>(src, thr, a, b),
        (false, false) => partition_at::<false, false>(src, thr, a, b),
    }
}

fn partition_at<const ABOVE: bool, const BELOW: bool>(
    src: Pairs<'_>,
    thr: f32,
    above: &mut PairSink<'_>,
    below: &mut PairSink<'_>,
) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`,
        // which requires POPCNT along with AVX2.
        SimdLevel::Avx2 => unsafe { x86::partition_avx2::<ABOVE, BELOW>(src, thr, above, below) },
        _ => partition_scalar::<ABOVE, BELOW>(src, thr, above, below),
    }
}

/// `if cond { a } else { b }` without a branch, bit for bit: the sparse
/// two-pointer walks choose between floats on conditions no predictor
/// can learn, and LLVM lowers a plain `f32` select on the x86_64 (SSE2)
/// baseline to exactly such a branch. Not level-dispatched — every
/// level returns the same bits.
#[inline(always)]
pub fn select_f32(cond: bool, a: f32, b: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE2 is part of the x86_64 baseline ABI.
    unsafe {
        use core::arch::x86_64::*;
        let mask = _mm_castsi128_ps(_mm_cvtsi32_si128(-i32::from(cond)));
        let pick = _mm_or_ps(
            _mm_and_ps(mask, _mm_set_ss(a)),
            _mm_andnot_ps(mask, _mm_set_ss(b)),
        );
        _mm_cvtss_f32(pick)
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::hint::select_unpredictable(cond, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Levels that can actually run on this CPU.
    fn runnable_levels() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    /// Inputs covering lane remainders, NaN, ±0.0, denormals, and ties.
    fn nasty_input(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| match i % 9 {
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => 1.0e-40, // denormal
                4 => -1.0e-40,
                5 => 2.5,
                6 => -2.5, // magnitude tie with 5
                7 => f32::INFINITY,
                _ => (i as f32 * 0.37).sin() * 3.0,
            })
            .collect()
    }

    #[test]
    fn level_override_nests_and_restores() {
        with_simd_level(SimdLevel::Scalar, || {
            assert_eq!(level(), SimdLevel::Scalar);
            with_simd_level(SimdLevel::Avx2, || {
                assert_eq!(level(), SimdLevel::Avx2.min(detect_best()));
            });
            assert_eq!(level(), SimdLevel::Scalar);
        });
        assert!(level() <= detect_best());
    }

    #[test]
    fn unavailable_level_clamps_to_detected() {
        with_simd_level(SimdLevel::Avx2, || {
            assert!(level() <= detect_best());
        });
    }

    #[test]
    fn parse_accepts_known_names_only() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse(" SSE2 "), None);
        assert_eq!(SimdLevel::parse(" AVX2 "), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn display_matches_env_names() {
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert!(!features_string().is_empty());
    }

    /// Both sides of a partition of `src` at `thr`: (indices, value bits)
    /// above, then below.
    fn partition(src: Pairs<'_>, thr: f32) -> [(Vec<u32>, Vec<u32>); 2] {
        let (mut ai, mut av, mut bi, mut bv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        partition_above(src, thr, Some((&mut ai, &mut av)), Some((&mut bi, &mut bv)));
        let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect();
        [(ai, bits(av)), (bi, bits(bv))]
    }

    #[test]
    fn all_levels_match_scalar_on_nasty_inputs() {
        // Lengths straddling the 8-lane groups (and 4 within them).
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let v = nasty_input(n);
            let g = nasty_input(n + 1)[1..].to_vec();
            let idx: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            for thr in [-1.0f32, 0.0, 1.0, 2.5, f32::NAN] {
                let run = || {
                    let mut acc = v.clone();
                    let fused = partition(
                        Pairs::Accumulate {
                            acc: &mut acc,
                            g: &g,
                            base: 3,
                        },
                        thr,
                    );
                    let acc: Vec<u32> = acc.iter().map(|x| x.to_bits()).collect();
                    (
                        partition(Pairs::Dense { v: &v, base: 7 }, thr),
                        partition(Pairs::Packed { idx: &idx, val: &v }, thr),
                        fused,
                        acc,
                    )
                };
                let expect = with_simd_level(SimdLevel::Scalar, run);
                for l in runnable_levels() {
                    assert_eq!(with_simd_level(l, run), expect, "{l} n={n} thr={thr}");
                }
            }
        }
    }

    #[test]
    fn partition_keeps_the_magnitude_order_with_nan_as_zero() {
        let v = [f32::NAN, -0.0, 1.0e-40, -2.5, f32::INFINITY, 0.5];
        let above = |thr: f32| {
            partition(Pairs::Dense { v: &v, base: 10 }, thr)[0]
                .0
                .clone()
        };
        assert_eq!(above(-1.0), [10, 11, 12, 13, 14, 15]);
        assert_eq!(above(0.0), [12, 13, 14, 15]);
        assert_eq!(above(0.5), [13, 14]);
        assert_eq!(above(f32::MAX), [14]);
        assert!(above(f32::NAN).is_empty());
    }

    #[test]
    fn a_side_without_spare_capacity_grows_only_for_kept_pairs() {
        let v: Vec<f32> = (0..40)
            .map(|i| if i % 5 == 0 { 9.0 } else { 0.0 })
            .collect();
        for l in runnable_levels() {
            with_simd_level(l, || {
                let (mut idx, mut val) = (Vec::with_capacity(8), Vec::with_capacity(8));
                partition_above(
                    Pairs::Dense { v: &v, base: 0 },
                    1.0,
                    Some((&mut idx, &mut val)),
                    None,
                );
                assert_eq!(idx, [0, 5, 10, 15, 20, 25, 30, 35], "{l}");
                assert_eq!(val, [9.0; 8], "{l}");
                assert_eq!((idx.capacity(), val.capacity()), (8, 8), "{l}");
            });
        }
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for n in [0usize, 1, 5, 8, 13, 16, 33, 100] {
            let base = nasty_input(n);
            let x = nasty_input(n + 2)[2..].to_vec();
            let mut expect = base.clone();
            with_simd_level(SimdLevel::Scalar, || axpy(&mut expect, &x));
            for l in runnable_levels() {
                with_simd_level(l, || {
                    let mut acc = base.clone();
                    axpy(&mut acc, &x);
                    let ab: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
                    let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ab, eb, "axpy {l} n={n}");
                });
            }
        }
    }

    #[test]
    fn fused_equals_axpy_then_compact() {
        let n = 103;
        let v = nasty_input(n);
        let g = nasty_input(n + 3)[3..].to_vec();
        for l in runnable_levels() {
            with_simd_level(l, || {
                let mut two_pass = v.clone();
                axpy(&mut two_pass, &g);
                let expect = partition(
                    Pairs::Dense {
                        v: &two_pass,
                        base: 0,
                    },
                    1.0,
                );
                let mut fused_acc = v.clone();
                let fused = partition(
                    Pairs::Accumulate {
                        acc: &mut fused_acc,
                        g: &g,
                        base: 0,
                    },
                    1.0,
                );
                assert_eq!(fused, expect, "{l}");
                let fb: Vec<u32> = fused_acc.iter().map(|x| x.to_bits()).collect();
                let tb: Vec<u32> = two_pass.iter().map(|x| x.to_bits()).collect();
                assert_eq!(fb, tb, "{l}");
            });
        }
    }

    #[test]
    fn select_f32_returns_the_chosen_bits() {
        // A signalling NaN too: a select that went through arithmetic
        // would quiet it.
        let mut v = nasty_input(18);
        v.push(f32::from_bits(0x7f80_0001));
        for (&a, &b) in v.iter().zip(v.iter().rev()) {
            assert_eq!(select_f32(true, a, b).to_bits(), a.to_bits());
            assert_eq!(select_f32(false, a, b).to_bits(), b.to_bits());
        }
    }
}
