//! Bitwise-identity property tests for the SIMD dispatch matrix.
//!
//! The determinism contract (README "Threading & determinism") says every
//! kernel produces bitwise-identical results at **any** combination of
//! `GTOPK_SIMD` level and `GTOPK_THREADS` count — replicas of a training
//! run must not diverge because one host has AVX2 and another does not.
//! These properties pin that contract for every kernel the SIMD layer
//! dispatches: residual accumulate (axpy), the matmul row microkernel,
//! magnitude scans, threshold compaction, the fused
//! accumulate+select+compact pass, and the full selection pipeline
//! through `Residual`.
//!
//! Inputs deliberately include NaN, ±0.0, denormals, heavy |v| ties, and
//! lengths with `n % lane-width != 0` so lane-remainder tails, NaN
//! comparison semantics, and signed-zero handling are all exercised.

use gtopk_sparse::{accumulate_select_compact, Residual, SparseVec, TopkScratch};
use gtopk_tensor::parallel::with_thread_limit;
use gtopk_tensor::simd::{self, SimdLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dispatch matrix: every available SIMD level plus the "auto"
/// (no-override) default, crossed with single- and multi-threaded
/// execution. `None` means no override — the env/detect default path.
fn matrix_points() -> Vec<(Option<SimdLevel>, usize)> {
    let mut pts = Vec::new();
    for &threads in &[1usize, 4] {
        for l in SimdLevel::ALL {
            if l.available() {
                pts.push((Some(l), threads));
            }
        }
        pts.push((None, threads));
    }
    pts
}

/// Runs `f` at every matrix point.
fn on_matrix(mut f: impl FnMut()) {
    for (level, threads) in matrix_points() {
        with_thread_limit(threads, || match level {
            Some(l) => simd::with_simd_level(l, &mut f),
            None => f(),
        });
    }
}

/// Runs `f` in the scalar serial reference configuration.
fn scalar_ref<T>(f: impl FnOnce() -> T) -> T {
    with_thread_limit(1, || simd::with_simd_level(SimdLevel::Scalar, f))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Values chosen to stress IEEE edge cases: NaN (comparisons false),
/// signed zero, denormals (no FTZ/DAZ anywhere), and repeated ±2.5 so
/// |v| ties are common at realistic k.
fn nasty_f32() -> impl Strategy<Value = f32> {
    (0u32..12, -3.0f32..3.0).prop_map(|(sel, v)| match sel {
        0 => f32::NAN,
        1 => 0.0,
        2 => -0.0,
        3 => 1.0e-40,
        4 => -1.0e-40,
        5 => 2.5,
        6 => -2.5,
        _ => v,
    })
}

/// Finite-only variant for the selection pipeline (selection semantics
/// with NaN are covered by the sparse crate's own proptests; here the
/// point is the dispatch matrix, and finite ties/denormals are the
/// interesting cases).
fn tie_heavy_f32() -> impl Strategy<Value = f32> {
    (0u32..10, -3.0f32..3.0).prop_map(|(sel, v)| match sel {
        0 => 0.0,
        1 => -0.0,
        2 => 1.0e-40,
        3 | 4 => 2.5,
        5 | 6 => -2.5,
        _ => v,
    })
}

// Lengths up to 68 straddle the SSE2 (4) and AVX2 (8) lane widths with
// every possible remainder. Pairs keep the two operand vectors the same
// length without needing `prop_flat_map` (not in the vendored stub).
fn nasty_pairs(max_len: usize) -> impl Strategy<Value = Vec<(f32, f32)>> {
    proptest::collection::vec((nasty_f32(), nasty_f32()), 1..max_len)
}

fn unzip(pairs: &[(f32, f32)]) -> (Vec<f32>, Vec<f32>) {
    pairs.iter().copied().unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `axpy` (residual accumulate) is bitwise identical at every
    /// dispatch level and thread count.
    #[test]
    fn prop_axpy_bitwise_identical(pairs in nasty_pairs(69)) {
        let (acc0, x) = unzip(&pairs);
        let expect = scalar_ref(|| {
            let mut acc = acc0.clone();
            simd::axpy(&mut acc, &x);
            bits(&acc)
        });
        on_matrix(|| {
            let mut acc = acc0.clone();
            simd::axpy(&mut acc, &x);
            assert_eq!(bits(&acc), expect, "axpy at {:?}", simd::level());
        });
    }

    /// `row_axpy` (matmul inner microkernel, c += a * b) is bitwise
    /// identical — in particular the SIMD path must not contract the
    /// separate multiply and add into an FMA.
    #[test]
    fn prop_row_axpy_bitwise_identical(pairs in nasty_pairs(69), a in nasty_f32()) {
        let (c0, b) = unzip(&pairs);
        let expect = scalar_ref(|| {
            let mut c = c0.clone();
            simd::row_axpy(&mut c, &b, a);
            bits(&c)
        });
        on_matrix(|| {
            let mut c = c0.clone();
            simd::row_axpy(&mut c, &b, a);
            assert_eq!(bits(&c), expect, "row_axpy at {:?}", simd::level());
        });
    }

    /// Magnitude scans (`max_abs`, `count_above`) are bitwise/exactly
    /// identical — NaN lanes never poison the max, NaN compares false.
    #[test]
    fn prop_scans_bitwise_identical(
        v in proptest::collection::vec(nasty_f32(), 1..69),
        thr in nasty_f32(),
    ) {
        let (max_e, cnt_e) = scalar_ref(|| {
            (simd::max_abs(&v).to_bits(), simd::count_above(&v, thr))
        });
        on_matrix(|| {
            assert_eq!(simd::max_abs(&v).to_bits(), max_e, "max_abs at {:?}", simd::level());
            assert_eq!(simd::count_above(&v, thr), cnt_e, "count_above at {:?}", simd::level());
        });
    }

    /// Threshold compaction emits the same indices in the same (serial)
    /// order at every level, and the fused accumulate+compact pass equals
    /// axpy-then-compact exactly — same emitted indices, same buffer bits.
    #[test]
    fn prop_compact_and_fused_bitwise_identical(
        pairs in nasty_pairs(69),
        thr in nasty_f32(),
        base in 0u32..1000,
    ) {
        let (acc0, g) = unzip(&pairs);
        let expect = scalar_ref(|| {
            let mut idx = Vec::new();
            simd::compact_above(&acc0, thr, base, &mut idx);
            let mut acc = acc0.clone();
            let mut fused_idx = Vec::new();
            simd::accumulate_compact_above(&mut acc, &g, thr, base, &mut fused_idx);
            (idx, fused_idx, bits(&acc))
        });
        on_matrix(|| {
            let mut idx = Vec::new();
            simd::compact_above(&acc0, thr, base, &mut idx);
            let mut acc = acc0.clone();
            let mut fused_idx = Vec::new();
            simd::accumulate_compact_above(&mut acc, &g, thr, base, &mut fused_idx);
            assert_eq!((idx, fused_idx, bits(&acc)), expect,
                       "compaction at {:?}", simd::level());
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fused `accumulate_select_compact` kernel returns the same
    /// selection (indices, value bits) and leaves the same buffer bits at
    /// every matrix point.
    #[test]
    fn prop_fused_selection_bitwise_identical(
        pairs in proptest::collection::vec((tie_heavy_f32(), tie_heavy_f32()), 40..200),
        k in 1usize..24,
    ) {
        let (acc0, g) = unzip(&pairs);
        let n = acc0.len();
        let run = || {
            let mut acc = acc0.clone();
            let mut scratch = TopkScratch::new();
            let mut out = SparseVec::empty(n);
            accumulate_select_compact(&mut acc, &g, k, &mut scratch, &mut out);
            (out.indices().to_vec(), bits(out.values()), bits(&acc))
        };
        let expect = scalar_ref(run);
        on_matrix(|| {
            assert_eq!(run(), expect, "fused selection at {:?} threads={}",
                       simd::level(), gtopk_tensor::parallel::num_threads());
        });
    }

    /// The full `Residual` selection pipeline — multi-step, with error
    /// feedback carrying across steps — is bitwise reproducible across
    /// the whole dispatch matrix, fused and unfused alike.
    #[test]
    fn prop_residual_pipeline_bitwise_identical(
        grads in proptest::collection::vec(
            proptest::collection::vec(tie_heavy_f32(), 150), 1..4),
        k in 1usize..20,
    ) {
        let n = grads[0].len();
        let run = |fused: bool| {
            let mut r = Residual::new(n);
            let mut trace: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for g in &grads {
                let sv = if fused {
                    r.accumulate_extract(g, k)
                } else {
                    r.accumulate(g);
                    r.extract_topk(k)
                };
                trace.push((sv.indices().to_vec(), bits(sv.values())));
            }
            (trace, bits(r.dense()))
        };
        let expect = scalar_ref(|| run(false));
        on_matrix(|| {
            assert_eq!(run(false), expect, "unfused pipeline at {:?}", simd::level());
            assert_eq!(run(true), expect, "fused pipeline at {:?}", simd::level());
        });
    }
}

/// The default (`Selector::Exact`) step at a size where its sampler
/// engages the SIMD threshold pass: fused and unfused (`accumulate` +
/// `extract_topk`) agree with the scalar serial run at every matrix
/// point, across steps that carry residual.
#[test]
fn exact_pipeline_above_the_prefilter_cutoff_bitwise_identical() {
    let n = 3 * 4096 + 5; // lane remainder included
    let grads: Vec<Vec<f32>> = (0..3u64)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(s);
            (0..n)
                .map(|i| match rng.gen_range(0..40u32) {
                    0 => 2.5,
                    1 => -2.5,
                    2 => -0.0,
                    3 => 1.0e-40,
                    _ => rng.gen_range(-1.0f32..1.0).powi(5) * (1 + i % 7) as f32,
                })
                .collect()
        })
        .collect();
    for k in [12usize, 3000] {
        let run = |fused: bool| {
            let mut r = Residual::new(n);
            let mut trace: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for g in &grads {
                let mut sv = SparseVec::empty(n);
                if fused {
                    let examined = r.accumulate_extract_into(g, k, &mut sv);
                    assert!(examined < n / 2, "k={k}: threshold pass must engage");
                } else {
                    r.accumulate(g);
                    sv = r.extract_topk(k);
                }
                trace.push((sv.indices().to_vec(), bits(sv.values())));
            }
            (trace, bits(r.dense()))
        };
        let expect = scalar_ref(|| run(false));
        on_matrix(|| {
            assert_eq!(run(false), expect, "unfused k={k} at {:?}", simd::level());
            assert_eq!(run(true), expect, "fused k={k} at {:?}", simd::level());
        });
    }
}
