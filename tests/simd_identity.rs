//! Bitwise-identity property tests for the SIMD dispatch matrix.
//!
//! The determinism contract (README "Threading & determinism") says every
//! kernel produces bitwise-identical results at **any** `GTOPK_SIMD`
//! level — replicas of a training run must not diverge because one host
//! has AVX2 and another does not.
//! These properties pin that contract for every kernel the SIMD layer
//! dispatches: residual accumulate (axpy), the tiled GEMM kernel every
//! `nn` matmul runs on, the packing kernel under every top-k threshold pass
//! (fused with the accumulate or not, over dense or packed pairs), the
//! fused accumulate+select+compact pass, and the full selection pipeline
//! through `Residual`.
//!
//! Inputs deliberately include NaN, ±0.0, denormals, heavy |v| ties, and
//! lengths with `n % lane-width != 0` so lane-remainder tails, NaN
//! comparison semantics, and signed-zero handling are all exercised.

use gtopk_sparse::{accumulate_select_compact, Residual, SparseVec, TopkScratch};
use gtopk_tensor::simd::{self, Pairs, SimdLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dispatch matrix: every available SIMD level plus the "auto"
/// (no-override) default. `None` means no override — the env/detect
/// default path.
fn matrix_points() -> Vec<Option<SimdLevel>> {
    let mut pts: Vec<_> = SimdLevel::ALL
        .into_iter()
        .filter(|l| l.available())
        .map(Some)
        .collect();
    pts.push(None);
    pts
}

/// Runs `f` at every matrix point.
fn on_matrix(mut f: impl FnMut()) {
    for level in matrix_points() {
        match level {
            Some(l) => simd::with_simd_level(l, &mut f),
            None => f(),
        }
    }
}

/// Runs `f` in the scalar reference configuration.
fn scalar_ref<T>(f: impl FnOnce() -> T) -> T {
    simd::with_simd_level(SimdLevel::Scalar, f)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] with every NaN as `f32::NAN`'s: where two NaNs meet in an add,
/// Rust leaves the sign and payload of the result unspecified (the
/// compiler may commute the add, and a vector body and a scalar tail may
/// differ), so a NaN matches any NaN and every other value bit for bit.
fn bits_any_nan(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
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

// Lengths up to 68 straddle the AVX2 lane width (8) with every possible
// remainder. Pairs keep the two operand vectors the same
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
    /// dispatch level.
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

    /// The packing kernel (`partition_above`) writes the scalar
    /// reference's pairs — indices and value bits, both sides, in order —
    /// at every level, from every source; the fused source's stored sums
    /// equal `axpy`'s bits; and the output vectors hold exactly `room`
    /// slots beforehand, so candidates past them arrive too.
    #[test]
    fn prop_compact_and_fused_bitwise_identical(
        pairs in nasty_pairs(69),
        thr in nasty_f32(),
        base in 0u32..1000,
        room in 0usize..16,
    ) {
        let (acc0, g) = unzip(&pairs);
        let idx: Vec<u32> = (0..acc0.len() as u32).map(|i| base + 2 * i).collect();
        let expect = (
            partition_oracle(&idx, &acc0, thr),
            partition_oracle(&(base..).take(acc0.len()).collect::<Vec<_>>(), &acc0, thr),
            {
                let mut sum = acc0.clone();
                simd::axpy(&mut sum, &g);
                (partition_oracle(&(base..).take(sum.len()).collect::<Vec<_>>(), &sum, thr), bits(&sum))
            },
        );
        on_matrix(|| {
            let packed = partition(Pairs::Packed { idx: &idx, val: &acc0 }, thr, room);
            let dense = partition(Pairs::Dense { v: &acc0, base }, thr, room);
            let mut acc = acc0.clone();
            let fused = partition(Pairs::Accumulate { acc: &mut acc, g: &g, base }, thr, room);
            assert_eq!((packed, dense, (fused, bits(&acc))), expect.clone(),
                       "partition at {:?}", simd::level());
        });
    }
}

/// One side of a partition: indices and value bits.
type Side = (Vec<u32>, Vec<u32>);

/// What `partition_above` must write, the slow obvious way: each pair in
/// order to the side its magnitude (`|v|`, NaN as +0.0) puts it on.
fn partition_oracle(idx: &[u32], val: &[f32], thr: f32) -> [Side; 2] {
    let mut sides: [Side; 2] = Default::default();
    for (&i, &v) in idx.iter().zip(val) {
        let m = if v.is_nan() { 0.0 } else { v.abs() };
        let side = &mut sides[if m > thr { 0 } else { 1 }];
        side.0.push(i);
        side.1.push(v.to_bits());
    }
    sides
}

/// Both sides of `simd::partition_above` over `src` at `thr`, each
/// written into vectors that start with exactly `room` slots.
fn partition(src: Pairs<'_>, thr: f32, room: usize) -> [Side; 2] {
    let vecs = || (Vec::with_capacity(room), Vec::<f32>::with_capacity(room));
    let ((mut ai, mut av), (mut bi, mut bv)) = (vecs(), vecs());
    simd::partition_above(src, thr, Some((&mut ai, &mut av)), Some((&mut bi, &mut bv)));
    for (len, caps) in [
        (ai.len(), [ai.capacity(), av.capacity()]),
        (bi.len(), [bi.capacity(), bv.capacity()]),
    ] {
        assert!(
            len > room || caps == [room; 2],
            "a side grew beyond its pairs"
        );
    }
    [(ai, bits(&av)), (bi, bits(&bv))]
}

/// Every lane remainder of the 8-lane width, and of half of it (lengths
/// 0..=24), every source,
/// thresholds below zero, at zero, at a tie, at a denormal, at `+∞` and
/// NaN, with NaN, ±0.0, ±∞, denormals and magnitude ties in the data:
/// the pairs equal the reference at every level, and one side alone
/// writes what it writes beside the other.
#[test]
fn packed_kernels_match_the_scalar_reference_at_every_remainder() {
    let special = [
        f32::NAN,
        -0.0,
        0.0,
        1.0e-40,
        -1.0e-40,
        2.5,
        -2.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.75,
        -3.0,
    ];
    for n in 0..=24usize {
        let v: Vec<f32> = (0..n)
            .map(|i| special[(i * 7 + n) % special.len()])
            .collect();
        let g: Vec<f32> = (0..n)
            .map(|i| special[(i * 5 + 3) % special.len()])
            .collect();
        let idx: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
        for thr in [-1.0f32, 0.0, 1.0e-40, 0.75, 2.5, f32::INFINITY, f32::NAN] {
            let mut sum = v.clone();
            simd::axpy(&mut sum, &g);
            let iota: Vec<u32> = (5..5 + n as u32).collect();
            let expect = [
                partition_oracle(&idx, &v, thr),
                partition_oracle(&iota, &v, thr),
                partition_oracle(&iota, &sum, thr),
            ];
            for room in [0, 3, 8, 64] {
                on_matrix(|| {
                    let mut acc = v.clone();
                    let got = [
                        partition(Pairs::Packed { idx: &idx, val: &v }, thr, room),
                        partition(Pairs::Dense { v: &v, base: 5 }, thr, room),
                        partition(
                            Pairs::Accumulate {
                                acc: &mut acc,
                                g: &g,
                                base: 5,
                            },
                            thr,
                            room,
                        ),
                    ];
                    let what = format!("n={n} thr={thr} room={room} at {:?}", simd::level());
                    assert_eq!(got, expect, "{what}");
                    assert_eq!(bits(&acc), bits(&sum), "{what}");
                    let (mut ai, mut av) = (Vec::new(), Vec::new());
                    simd::partition_above(
                        Pairs::Dense { v: &v, base: 5 },
                        thr,
                        Some((&mut ai, &mut av)),
                        None,
                    );
                    assert_eq!((ai, bits(&av)), expect[1][0], "above alone {what}");
                    let (mut bi, mut bv) = (Vec::new(), Vec::new());
                    simd::partition_above(
                        Pairs::Dense { v: &v, base: 5 },
                        thr,
                        None,
                        Some((&mut bi, &mut bv)),
                    );
                    assert_eq!((bi, bits(&bv)), expect[1][1], "below alone {what}");
                });
            }
        }
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
            assert_eq!(run(), expect, "fused selection at {:?}", simd::level());
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

/// The per-`(row, p)` loop [`simd::gemm_acc`] must reproduce: for each
/// row and ascending `p`, one scalar `c += a·b` sweep over the C row,
/// skipping `a == 0.0` when `skip_zero` is set.
fn gemm_oracle(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
    skip_zero: bool,
) {
    for i in 0..rows {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p];
            if skip_zero && av == 0.0 {
                continue;
            }
            for (cv, &bv) in crow.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *cv += av * bv;
            }
        }
    }
}

/// GEMM operands that pin the skip: `±0.0` in A, `-0.0` in C and `±∞`/NaN
/// in B, where `0·∞` is NaN and `-0.0 + 0.0` is `+0.0` — a skipped term
/// and an added one differ.
fn gemm_operands(rng: &mut StdRng, rows: usize, k: usize, n: usize) -> [Vec<f32>; 3] {
    let mut pick = |len: usize, specials: &[f32]| -> Vec<f32> {
        (0..len)
            .map(|_| {
                let sel = rng.gen_range(0..12usize);
                specials
                    .get(sel)
                    .copied()
                    .unwrap_or_else(|| rng.gen_range(-2.0f32..2.0))
            })
            .collect()
    };
    [
        pick(rows * k, &[0.0, -0.0, 0.0]),
        pick(k * n, &[f32::INFINITY, f32::NEG_INFINITY, f32::NAN]),
        pick(rows * n, &[-0.0, -0.0]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiled GEMM kernel equals the per-`(row, p)` scalar loop bit
    /// for bit at every matrix point, in both skip modes, for every C
    /// width 1..=130 — every 64/32-lane row tile, every 16-column pass
    /// and masked remainder of the narrow columns — and for 1–9 rows:
    /// whole four-row blocks and every remainder block of 1–3 rows.
    #[test]
    fn prop_gemm_acc_is_bitwise_the_row_axpy_loop(
        rows in 1usize..=9, k in 0usize..=17, seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 1..=130 {
            let [a, b, c0] = gemm_operands(&mut rng, rows, k, n);
            for skip_zero in [false, true] {
                let mut expect = c0.clone();
                gemm_oracle(&a, &b, &mut expect, rows, k, n, skip_zero);
                on_matrix(|| {
                    let mut c = c0.clone();
                    simd::gemm_acc(&a, &b, &mut c, rows, k, n, skip_zero);
                    assert_eq!(bits_any_nan(&c), bits_any_nan(&expect),
                               "gemm_acc at {:?}, {rows}x{k}x{n}, skip {skip_zero}", simd::level());
                });
            }
        }
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
