//! Runtime-dispatched SIMD kernels for the gradient hot path.
//!
//! Every per-element pass the per-step critical path performs — residual
//! accumulate (`acc += g`), magnitude scans (max / count-above-threshold),
//! threshold compaction (emit the indices where `|v| > thr`), the fused
//! accumulate-and-compact pass, and the matmul inner microkernel — funnels
//! through this module, which picks an AVX2, SSE2, or portable-scalar
//! implementation at runtime.
//!
//! # Dispatch
//!
//! The level is resolved, in priority order, from:
//!
//! 1. a thread-local override installed by [`with_simd_level`] (used by the
//!    identity tests and benchmarks to compare levels on the same inputs),
//! 2. the `GTOPK_SIMD` environment variable (read once per process;
//!    `auto`, `avx2`, `sse2`, or `scalar` — anything else falls back to
//!    `auto`), mirroring `GTOPK_THREADS`,
//! 3. feature detection (`is_x86_feature_detected!`): AVX2 when the CPU
//!    has it, otherwise SSE2 (always present on `x86_64`), otherwise —
//!    on non-x86 targets — scalar.
//!
//! A requested level the CPU cannot execute is clamped down to the best
//! detected one, so `GTOPK_SIMD=avx2` on an SSE2-only host degrades
//! gracefully instead of faulting.
//!
//! # Determinism
//!
//! Every kernel here is **bitwise identical** to its serial scalar
//! counterpart at every level — the same contract the threading layer
//! ([`crate::parallel`]) gives, and for the same reason: replicas must
//! not diverge just because one host has AVX2 and another does not.
//! The identity holds by construction, not by tolerance:
//!
//! - the elementwise kernels (`acc += g`, `c += a·b`) perform exactly one
//!   IEEE-754 rounding per element per operation in lane order; vector
//!   `addps`/`mulps` round each lane exactly like the scalar ops. The
//!   matmul microkernel deliberately uses separate multiply and add
//!   instructions — **no FMA** — because fusing would drop the
//!   intermediate rounding the scalar loop performs.
//! - the comparison kernels use ordered, non-signaling predicates
//!   (`_CMP_GT_OQ` / `cmpgtps`), which treat NaN as *not greater* — the
//!   same verdict the scalar `v.abs() > thr` reaches (and the same one
//!   the top-k comparator's NaN-counts-as-zero magnitude produces for
//!   any threshold ≥ 0).
//! - [`max_abs`] masks NaN lanes to `+0.0` before taking lane maxima;
//!   max over non-NaN, non-negative floats is associative and
//!   commutative, so the horizontal reduction order cannot matter.
//! - compaction walks each lane mask in ascending bit order, so indices
//!   are emitted in exactly the serial order.
//! - denormals behave identically: Rust never enables FTZ/DAZ, and the
//!   scalar f32 ops on `x86_64` execute on the same SSE units.

use std::cell::Cell;
use std::fmt;
use std::sync::OnceLock;

/// A SIMD instruction-set level the kernels can dispatch to.
///
/// Ordered by capability: `Scalar < Sse2 < Avx2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference implementation every other
    /// level must match bitwise.
    Scalar,
    /// 128-bit SSE2 (4 × f32 lanes) — baseline on every `x86_64`.
    Sse2,
    /// 256-bit AVX2 (8 × f32 lanes).
    Avx2,
}

impl SimdLevel {
    /// All levels, weakest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2];

    /// Lower-case name as accepted by `GTOPK_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
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
            "sse2" => Some(SimdLevel::Sse2),
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
        if std::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            // SSE2 is part of the x86_64 baseline ABI.
            SimdLevel::Sse2
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

fn max_abs_scalar(v: &[f32]) -> f32 {
    v.iter().fold(0.0f32, |m, &x| m.max(mag(x)))
}

fn count_above_scalar(v: &[f32], thr: f32) -> usize {
    v.iter().filter(|&&x| x.abs() > thr).count()
}

fn compact_above_scalar(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
    for (i, &x) in v.iter().enumerate() {
        if x.abs() > thr {
            out.push(base + i as u32);
        }
    }
}

fn accumulate_compact_above_scalar(
    acc: &mut [f32],
    g: &[f32],
    thr: f32,
    base: u32,
    out: &mut Vec<u32>,
) {
    for (i, (a, &gv)) in acc.iter_mut().zip(g.iter()).enumerate() {
        let s = *a + gv;
        *a = s;
        if s.abs() > thr {
            out.push(base + i as u32);
        }
    }
}

// ---------------------------------------------------------------------------
// x86_64 SIMD kernels.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::{
        accumulate_compact_above_scalar, axpy_scalar, compact_above_scalar, count_above_scalar,
        max_abs_scalar, row_axpy_scalar,
    };
    use core::arch::x86_64::*;

    // Every function in this module requires the caller to guarantee the
    // named target feature is available (enforced by `super::level()`
    // clamping to `detect_best()`); the pointer arithmetic stays inside
    // the slice bounds by construction of the `i + LANES <= n` loops.

    /// Emits `base + i + lane` for every set lane of `mask`, in ascending
    /// lane order — the exact order the scalar loop visits them.
    #[inline(always)]
    fn emit_mask(mut mask: u32, base: u32, i: usize, out: &mut Vec<u32>) {
        while mask != 0 {
            let lane = mask.trailing_zeros();
            out.push(base + i as u32 + lane);
            mask &= mask - 1;
        }
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

    pub fn axpy_sse2(acc: &mut [f32], x: &[f32]) {
        let n = acc.len();
        debug_assert_eq!(n, x.len());
        let pa = acc.as_mut_ptr();
        let px = x.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps both 128-bit accesses in bounds;
            // SSE2 is baseline on x86_64.
            unsafe {
                let va = _mm_loadu_ps(pa.add(i));
                let vx = _mm_loadu_ps(px.add(i));
                _mm_storeu_ps(pa.add(i), _mm_add_ps(va, vx));
            }
            i += 4;
        }
        axpy_scalar(&mut acc[i..], &x[i..]);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn row_axpy_avx2(c: &mut [f32], b: &[f32], a: f32) {
        let n = c.len();
        debug_assert_eq!(n, b.len());
        let pc = c.as_mut_ptr();
        let pb = b.as_ptr();
        let va = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 8 <= n {
            let vc = _mm256_loadu_ps(pc.add(i));
            let vb = _mm256_loadu_ps(pb.add(i));
            // Separate mul + add (no FMA): the scalar loop rounds the
            // product before the add, and bitwise identity requires the
            // same two roundings here.
            _mm256_storeu_ps(pc.add(i), _mm256_add_ps(vc, _mm256_mul_ps(va, vb)));
            i += 8;
        }
        row_axpy_scalar(&mut c[i..], &b[i..], a);
    }

    pub fn row_axpy_sse2(c: &mut [f32], b: &[f32], a: f32) {
        let n = c.len();
        debug_assert_eq!(n, b.len());
        let pc = c.as_mut_ptr();
        let pb = b.as_ptr();
        let mut i = 0usize;
        // SAFETY: i + 4 <= n keeps the accesses in bounds; SSE2 is
        // baseline on x86_64.
        unsafe {
            let va = _mm_set1_ps(a);
            while i + 4 <= n {
                let vc = _mm_loadu_ps(pc.add(i));
                let vb = _mm_loadu_ps(pb.add(i));
                _mm_storeu_ps(pc.add(i), _mm_add_ps(vc, _mm_mul_ps(va, vb)));
                i += 4;
            }
        }
        row_axpy_scalar(&mut c[i..], &b[i..], a);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn max_abs_avx2(v: &[f32]) -> f32 {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let mut best = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            // |x|, then force NaN lanes to +0.0 (the scalar `mag`).
            let m = _mm256_andnot_ps(sign, x);
            let ordered = _mm256_cmp_ps::<_CMP_ORD_Q>(x, x);
            best = _mm256_max_ps(best, _mm256_and_ps(m, ordered));
            i += 8;
        }
        // Horizontal max — order-free over non-NaN, non-negative lanes.
        let lo = _mm256_castps256_ps128(best);
        let hi = _mm256_extractf128_ps::<1>(best);
        let m4 = _mm_max_ps(lo, hi);
        let m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<0b01>(m2, m2));
        let mut out = _mm_cvtss_f32(m1);
        out = out.max(max_abs_scalar(&v[i..]));
        out
    }

    pub fn max_abs_sse2(v: &[f32]) -> f32 {
        let n = v.len();
        let pv = v.as_ptr();
        let mut i = 0usize;
        // SAFETY: i + 4 <= n keeps the loads in bounds; SSE2 is baseline.
        let head = unsafe {
            let sign = _mm_set1_ps(-0.0);
            let mut best = _mm_setzero_ps();
            while i + 4 <= n {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(sign, x);
                let ordered = _mm_cmpord_ps(x, x);
                best = _mm_max_ps(best, _mm_and_ps(m, ordered));
                i += 4;
            }
            let m2 = _mm_max_ps(best, _mm_movehl_ps(best, best));
            let m1 = _mm_max_ss(m2, _mm_shuffle_ps::<0b01>(m2, m2));
            _mm_cvtss_f32(m1)
        };
        head.max(max_abs_scalar(&v[i..]))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn count_above_avx2(v: &[f32], thr: f32) -> usize {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut count = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            let m = _mm256_andnot_ps(sign, x);
            // GT_OQ: NaN compares not-greater, same as scalar `>`.
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            count += (_mm256_movemask_ps(gt) as u32).count_ones() as usize;
            i += 8;
        }
        count + count_above_scalar(&v[i..], thr)
    }

    pub fn count_above_sse2(v: &[f32], thr: f32) -> usize {
        let n = v.len();
        let pv = v.as_ptr();
        let mut count = 0usize;
        let mut i = 0usize;
        // SAFETY: i + 4 <= n keeps the loads in bounds; SSE2 is baseline.
        unsafe {
            let sign = _mm_set1_ps(-0.0);
            let vthr = _mm_set1_ps(thr);
            while i + 4 <= n {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(sign, x);
                let gt = _mm_cmpgt_ps(m, vthr);
                count += (_mm_movemask_ps(gt) as u32).count_ones() as usize;
                i += 4;
            }
        }
        count + count_above_scalar(&v[i..], thr)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn compact_above_avx2(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
        let n = v.len();
        let pv = v.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut i = 0usize;
        while i + 8 <= n {
            let x = _mm256_loadu_ps(pv.add(i));
            let m = _mm256_andnot_ps(sign, x);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            emit_mask(_mm256_movemask_ps(gt) as u32, base, i, out);
            i += 8;
        }
        compact_above_scalar(&v[i..], thr, base + i as u32, out);
    }

    pub fn compact_above_sse2(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
        let n = v.len();
        let pv = v.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps the load in bounds; SSE2 is baseline.
            let mask = unsafe {
                let x = _mm_loadu_ps(pv.add(i));
                let m = _mm_andnot_ps(_mm_set1_ps(-0.0), x);
                _mm_movemask_ps(_mm_cmpgt_ps(m, _mm_set1_ps(thr))) as u32
            };
            emit_mask(mask, base, i, out);
            i += 4;
        }
        compact_above_scalar(&v[i..], thr, base + i as u32, out);
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn accumulate_compact_above_avx2(
        acc: &mut [f32],
        g: &[f32],
        thr: f32,
        base: u32,
        out: &mut Vec<u32>,
    ) {
        let n = acc.len();
        debug_assert_eq!(n, g.len());
        let pa = acc.as_mut_ptr();
        let pg = g.as_ptr();
        let sign = _mm256_set1_ps(-0.0);
        let vthr = _mm256_set1_ps(thr);
        let mut i = 0usize;
        while i + 8 <= n {
            let s = _mm256_add_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pg.add(i)));
            _mm256_storeu_ps(pa.add(i), s);
            let m = _mm256_andnot_ps(sign, s);
            let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(m, vthr);
            emit_mask(_mm256_movemask_ps(gt) as u32, base, i, out);
            i += 8;
        }
        accumulate_compact_above_scalar(&mut acc[i..], &g[i..], thr, base + i as u32, out);
    }

    pub fn accumulate_compact_above_sse2(
        acc: &mut [f32],
        g: &[f32],
        thr: f32,
        base: u32,
        out: &mut Vec<u32>,
    ) {
        let n = acc.len();
        debug_assert_eq!(n, g.len());
        let pa = acc.as_mut_ptr();
        let pg = g.as_ptr();
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n keeps the accesses in bounds; SSE2 is
            // baseline.
            let mask = unsafe {
                let s = _mm_add_ps(_mm_loadu_ps(pa.add(i)), _mm_loadu_ps(pg.add(i)));
                _mm_storeu_ps(pa.add(i), s);
                let m = _mm_andnot_ps(_mm_set1_ps(-0.0), s);
                _mm_movemask_ps(_mm_cmpgt_ps(m, _mm_set1_ps(thr))) as u32
            };
            emit_mask(mask, base, i, out);
            i += 4;
        }
        accumulate_compact_above_scalar(&mut acc[i..], &g[i..], thr, base + i as u32, out);
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
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::axpy_sse2(acc, x),
        _ => axpy_scalar(acc, x),
    }
}

/// `c[j] += a * b[j]` — the matmul inner microkernel (one output row,
/// one shared-dimension element).
///
/// Uses separate multiply and add (never FMA) so the two per-element
/// roundings match the scalar loop exactly.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn row_axpy(c: &mut [f32], b: &[f32], a: f32) {
    assert_eq!(c.len(), b.len(), "row_axpy length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::row_axpy_avx2(c, b, a) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::row_axpy_sse2(c, b, a),
        _ => row_axpy_scalar(c, b, a),
    }
}

/// Maximum magnitude `max_i |v[i]|`, with NaN entries counting as `+0.0`
/// (the top-k comparator's convention). Returns `0.0` for an empty slice.
pub fn max_abs(v: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::max_abs_avx2(v) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::max_abs_sse2(v),
        _ => max_abs_scalar(v),
    }
}

/// Number of entries with `|v[i]| > thr` (strict; NaN never counts).
pub fn count_above(v: &[f32], thr: f32) -> usize {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::count_above_avx2(v, thr) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::count_above_sse2(v, thr),
        _ => count_above_scalar(v, thr),
    }
}

/// Appends `base + i` to `out` for every entry with `|v[i]| > thr`
/// (strict; NaN never passes), in ascending index order.
pub fn compact_above(v: &[f32], thr: f32, base: u32, out: &mut Vec<u32>) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::compact_above_avx2(v, thr, base, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::compact_above_sse2(v, thr, base, out),
        _ => compact_above_scalar(v, thr, base, out),
    }
}

/// The fused hot-path kernel: `acc[i] += g[i]`, and `base + i` is
/// appended to `out` wherever the *accumulated* value satisfies
/// `|acc[i]| > thr` — residual accumulate, threshold scan, and
/// compaction in a single memory pass.
///
/// Bitwise identical (accumulated values *and* emitted indices) to
/// [`axpy`] followed by [`compact_above`] at every dispatch level.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn accumulate_compact_above(
    acc: &mut [f32],
    g: &[f32],
    thr: f32,
    base: u32,
    out: &mut Vec<u32>,
) {
    assert_eq!(acc.len(), g.len(), "accumulate_compact length mismatch");
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `level()` never returns a level above `detect_best()`.
        SimdLevel::Avx2 => unsafe { x86::accumulate_compact_above_avx2(acc, g, thr, base, out) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Sse2 => x86::accumulate_compact_above_sse2(acc, g, thr, base, out),
        _ => accumulate_compact_above_scalar(acc, g, thr, base, out),
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
            with_simd_level(SimdLevel::Sse2, || {
                assert_eq!(level(), SimdLevel::Sse2.min(detect_best()));
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
        assert_eq!(SimdLevel::parse(" SSE2 "), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("auto"), None);
        assert_eq!(SimdLevel::parse("neon"), None);
    }

    #[test]
    fn display_matches_env_names() {
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert!(!features_string().is_empty());
    }

    #[test]
    fn all_levels_match_scalar_on_nasty_inputs() {
        // Lengths straddling the 4- and 8-lane boundaries.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let v = nasty_input(n);
            let g = nasty_input(n + 1)[1..].to_vec();
            for thr in [0.0f32, 1.0, 2.5, f32::NAN] {
                let expect_cnt = with_simd_level(SimdLevel::Scalar, || count_above(&v, thr));
                let mut expect_idx = Vec::new();
                with_simd_level(SimdLevel::Scalar, || {
                    compact_above(&v, thr, 7, &mut expect_idx)
                });
                let expect_max = with_simd_level(SimdLevel::Scalar, || max_abs(&v)).to_bits();
                let mut expect_acc = v.clone();
                let mut expect_fused = Vec::new();
                with_simd_level(SimdLevel::Scalar, || {
                    accumulate_compact_above(&mut expect_acc, &g, thr, 3, &mut expect_fused)
                });
                for l in runnable_levels() {
                    with_simd_level(l, || {
                        assert_eq!(count_above(&v, thr), expect_cnt, "{l} n={n} thr={thr}");
                        let mut idx = Vec::new();
                        compact_above(&v, thr, 7, &mut idx);
                        assert_eq!(idx, expect_idx, "{l} n={n} thr={thr}");
                        assert_eq!(max_abs(&v).to_bits(), expect_max, "{l} n={n}");
                        let mut acc = v.clone();
                        let mut fused = Vec::new();
                        accumulate_compact_above(&mut acc, &g, thr, 3, &mut fused);
                        assert_eq!(fused, expect_fused, "{l} n={n} thr={thr}");
                        let ab: Vec<u32> = acc.iter().map(|x| x.to_bits()).collect();
                        let eb: Vec<u32> = expect_acc.iter().map(|x| x.to_bits()).collect();
                        assert_eq!(ab, eb, "{l} n={n} thr={thr}");
                    });
                }
            }
        }
    }

    #[test]
    fn axpy_and_row_axpy_match_scalar_bitwise() {
        for n in [0usize, 1, 5, 8, 13, 16, 33, 100] {
            let base = nasty_input(n);
            let x = nasty_input(n + 2)[2..].to_vec();
            let mut expect = base.clone();
            with_simd_level(SimdLevel::Scalar, || axpy(&mut expect, &x));
            let mut expect_row = base.clone();
            with_simd_level(SimdLevel::Scalar, || row_axpy(&mut expect_row, &x, 0.7));
            for l in runnable_levels() {
                with_simd_level(l, || {
                    let mut acc = base.clone();
                    axpy(&mut acc, &x);
                    let ab: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
                    let eb: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(ab, eb, "axpy {l} n={n}");
                    let mut c = base.clone();
                    row_axpy(&mut c, &x, 0.7);
                    let cb: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
                    let rb: Vec<u32> = expect_row.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(cb, rb, "row_axpy {l} n={n}");
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
                let mut expect_idx = Vec::new();
                compact_above(&two_pass, 1.0, 0, &mut expect_idx);

                let mut fused_acc = v.clone();
                let mut idx = Vec::new();
                accumulate_compact_above(&mut fused_acc, &g, 1.0, 0, &mut idx);
                assert_eq!(idx, expect_idx, "{l}");
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
