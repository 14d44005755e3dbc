//! Hot-path kernel throughput at paper scale → `BENCH_kernels.json`.
//!
//! Measures elements/sec for the kernels the trainer spends its compute
//! budget on — top-k selection, sparse top-k merge, the sparse optimizer
//! apply, matmul, residual accumulate, and the fused
//! accumulate+select+compact pass — comparing:
//!
//! * the zero-allocation scratch-reuse paths against the allocating ones,
//!   at the paper's steady state (ρ = 0.001) and at its first warm-up
//!   epoch's density (ρ = 0.25, n = 1M);
//! * the split merge (the feedback row's tree) and the put-back of
//!   Algorithm 4 line 10, one walk against the mask + partition path;
//! * `MomentumSgd::step_sparse` against densify-then-`step_dense` (what
//!   it once did) at m = 25M, k = 25 000 and m = 1M, k = 250 000;
//! * a bucketed step with one full-model add per bucket (the overlap
//!   engine's former pattern) against one add per step, on vgg-lite per
//!   layer and at m = 25M in 8 buckets;
//! * the tiled matmul against the naive i-k-j loop, timed in alternating
//!   pairs (and asserting the tiled kernel is never slower than naive);
//! * vgg-lite's two convolutions and its first fully-connected layer,
//!   forward and backward, at the benchmark workload's batch of 16 8×8
//!   images, and conv1's backward as a first layer runs it (no input
//!   gradient);
//! * vgg-lite's first max pool, forward and backward;
//! * conv1's per-sample weight-gradient GEMM (27 columns, none in a
//!   32-wide tile) at every SIMD level;
//! * fc1's per-forward weight transpose, per element against 8×8 tiles;
//! * every available `GTOPK_SIMD` level against the scalar kernels;
//! * the fused single-pass residual+select against the three-pass
//!   accumulate / scan / compact sequence, at m = 25M and, at the best
//!   SIMD level, at m = 1M, k = 250 000;
//! * the TCP frame codec on one 250 000-entry sparse DATA frame (the
//!   message a ρ = 0.25 step of a 1M-parameter model ships): one-pass
//!   encode into a reused buffer, and read + slice-pass decode into a
//!   reused body, against the per-element codec they replaced.
//!
//! Every kernel runs on the calling thread, as it does on a rank.
//!
//! Run with `cargo run --release -p gtopk-bench --bin bench_kernels`;
//! the JSON lands in the repository root so future PRs have a perf
//! trajectory to compare against.

use gtopk_comm::transport::frame::{encode_into, read_frame_into, Frame};
use gtopk_comm::Payload;
use gtopk_nn::{models, Conv2d, Layer, Linear, MaxPool2d, Model, MomentumSgd};
use gtopk_sparse::{
    topk_merge, topk_merge_into, topk_merge_split_into, topk_sparse, topk_sparse_into, Mask,
    MergeScratch, Residual, SparseVec, TopkScratch,
};
use gtopk_tensor::simd::{self, Pairs, SimdLevel};
use gtopk_tensor::{matmul_flat, transpose_into, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::ops::Range;
use std::time::Instant;

/// VGG-16 has ~14.7M convolutional + fc parameters; ρ = 0.001.
const N: usize = 14_000_000;
const K: usize = 14_000;
/// SIMD / fusion rows run at the larger 25M scale from the perf issue so
/// the kernels are firmly memory-bound (100 MB per buffer).
const N2: usize = 25_000_000;
const K2: usize = 25_000;
/// The first warm-up epoch's density on a 1M-parameter model: k/n is 250×
/// the steady state's, so the select's candidate tail and the merge's
/// re-selection dominate instead of the streaming pass.
const N3: usize = 1_000_000;
const K3: usize = 250_000;

struct Row {
    kernel: &'static str,
    variant: &'static str,
    /// SIMD level the row actually dispatched ("scalar"/"avx2").
    simd: &'static str,
    elements: usize,
    secs: f64,
    /// Marks the row others of the same kernel are normalized against.
    baseline: bool,
}

impl Row {
    fn elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.secs
    }
}

/// Median-of-`runs` wall time for `f`, after one warm-up call.
fn time_median<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    median_of(runs, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Median of `runs` seconds that `sample` measures itself, after one
/// warm-up call.
fn median_of(runs: usize, mut sample: impl FnMut() -> f64) -> f64 {
    sample();
    median((0..runs).map(|_| sample()).collect())
}

/// Medians of two variants' samples taken in `pairs` alternating pairs
/// after one warm-up sample each, so host load falls on both alike.
fn alternating(pairs: usize, mut sample: impl FnMut(usize) -> f64) -> [f64; 2] {
    sample(0);
    sample(1);
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..pairs {
        for (v, secs) in samples.iter_mut().enumerate() {
            secs.push(sample(v));
        }
    }
    samples.map(median)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Every SIMD level this host can run, scalar first.
fn levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|l| l.available())
        .collect()
}

/// The pre-optimization matmul: plain scalar i-k-j, no blocking. Kept
/// here as the ablation baseline.
fn naive_matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|v| *v = 0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// Exact top-`k`-of-`n` selection, allocating vs scratch-reusing.
fn bench_select(rows: &mut Vec<Row>, kernel: &'static str, n: usize, k: usize) {
    let mut rng = StdRng::seed_from_u64(7);
    let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

    rows.push(Row {
        kernel,
        variant: "alloc_per_call",
        simd: simd::level().name(),
        elements: n,
        baseline: true,
        secs: time_median(5, || {
            black_box(topk_sparse(black_box(&dense), k));
        }),
    });
    let mut scratch = TopkScratch::new();
    let mut out = SparseVec::empty(n);
    rows.push(Row {
        kernel,
        variant: "scratch_reuse",
        simd: simd::level().name(),
        elements: n,
        baseline: false,
        secs: time_median(5, || {
            topk_sparse_into(black_box(&dense), k, &mut scratch, &mut out);
            black_box(&out);
        }),
    });
}

/// Two independent top-`k`-of-`n` selections of uniform data: the `⊤`
/// merge's inputs (2k entries in, k out).
fn merge_inputs(n: usize, k: usize) -> (SparseVec, SparseVec) {
    let mut rng = StdRng::seed_from_u64(11);
    let mut mk_sparse = || {
        let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        topk_sparse(&dense, k)
    };
    (mk_sparse(), mk_sparse())
}

/// The `⊤` merge, allocating vs scratch-reusing; looped `reps` times so
/// each timing sample is well above clock resolution.
fn bench_merge(rows: &mut Vec<Row>, kernel: &'static str, n: usize, k: usize, reps: usize) {
    let (a, b) = merge_inputs(n, k);

    rows.push(Row {
        kernel,
        variant: "alloc_per_call",
        simd: simd::level().name(),
        elements: 2 * k * reps,
        baseline: true,
        secs: time_median(5, || {
            for _ in 0..reps {
                black_box(topk_merge(black_box(&a), black_box(&b), k));
            }
        }),
    });
    let mut scratch = MergeScratch::new();
    let mut out = SparseVec::empty(n);
    rows.push(Row {
        kernel,
        variant: "scratch_reuse",
        simd: simd::level().name(),
        elements: 2 * k * reps,
        baseline: false,
        secs: time_median(5, || {
            for _ in 0..reps {
                topk_merge_into(black_box(&a), black_box(&b), k, &mut scratch, &mut out);
                black_box(&out);
            }
        }),
    });
}

/// The split `⊤` merge the feedback row's tree runs (kept and rejected
/// halves), scratch-reusing, at the first warm-up epoch's density.
fn bench_merge_split(rows: &mut Vec<Row>) {
    let (a, b) = merge_inputs(N3, K3);
    let mut scratch = MergeScratch::new();
    let (mut kept, mut rejected) = (SparseVec::empty(N3), SparseVec::empty(N3));
    rows.push(Row {
        kernel: "topk_merge_split_rho25",
        variant: "scratch_reuse",
        simd: simd::level().name(),
        elements: 2 * K3 * 10,
        baseline: true,
        secs: time_median(5, || {
            for _ in 0..10 {
                topk_merge_split_into(&a, &b, K3, &mut scratch, &mut kept, &mut rejected);
                black_box((&kept, &rejected));
            }
        }),
    });
}

/// Algorithm 4 line 10 at the first warm-up epoch's density: return a
/// rank's k = 250 000 selected entries that the global top-k (another
/// k-selection, partly overlapping) rejected to the n = 1M residual —
/// mask + partition + put-back (the path the benchmark's replica runs)
/// vs the select-then-retire pass over the global selection, which
/// zeroes the coordinates both selections took. Looped 10 times per
/// sample.
fn bench_put_back(rows: &mut Vec<Row>) {
    let (local, other) = merge_inputs(N3, K3);
    let global = topk_merge(&local, &other, K3);
    // A residual whose select took exactly `local`: its only non-zeros.
    let mut residual = Residual::new(N3);
    residual.accumulate(&local.to_dense());
    let mut selection = SparseVec::empty(N3);
    let rule = residual.accumulate_select_into(&vec![0.0; N3], K3, &mut selection);
    assert_eq!(selection, local);
    for (variant, retire) in [
        ("mask_partition_put_back", false),
        ("threshold_retire", true),
    ] {
        rows.push(Row {
            kernel: "put_back",
            variant,
            simd: simd::level().name(),
            elements: K3 * 10,
            baseline: !retire,
            secs: time_median(5, || {
                for _ in 0..10 {
                    if retire {
                        residual.retire(rule, black_box(global.indices()));
                    } else {
                        let mask = Mask::of_sparse(black_box(&global));
                        residual.put_back(&local.partition_by(&mask).1);
                    }
                }
                black_box(residual.dense());
            }),
        });
    }
}

/// The per-element frame codec the one-pass codec replaced, for a sparse
/// DATA frame only — kept here as the `frame_codec` rows' baseline.
mod per_element {
    use gtopk_sparse::SparseVec;
    use std::io::{self, Read};

    /// `wire::encode` pushing one 4-byte word at a time, copied into a
    /// frame body that grows from empty, copied again behind the prefix.
    pub fn encode(tag: u32, arrival_ms: f64, v: &SparseVec) -> Vec<u8> {
        let mut sparse = Vec::with_capacity(16 + 8 * v.nnz());
        sparse.extend_from_slice(&(v.dim() as u64).to_le_bytes());
        sparse.extend_from_slice(&(v.nnz() as u64).to_le_bytes());
        for &i in v.indices() {
            sparse.extend_from_slice(&i.to_le_bytes());
        }
        for &x in v.values() {
            sparse.extend_from_slice(&x.to_le_bytes());
        }
        let mut body = vec![3u8];
        body.extend_from_slice(&tag.to_le_bytes());
        body.extend_from_slice(&arrival_ms.to_le_bytes());
        body.push(1);
        body.extend_from_slice(&sparse);
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// A fresh zero-filled body per frame, then a decoder that pushes
    /// one index and one value at a time.
    pub fn read_decode<R: Read>(r: &mut R) -> io::Result<SparseVec> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        let mut body = Vec::new();
        while body.len() < len {
            let filled = body.len();
            body.resize(len.min((2 * filled).max(4 << 20)), 0);
            r.read_exact(&mut body[filled..])?;
        }
        let bytes = &body[14..]; // kind, tag, arrival, payload type
        let word = |pos: usize| <[u8; 4]>::try_from(&bytes[pos..pos + 4]).expect("4 bytes");
        let dim = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")) as usize;
        let nnz = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        let mut indices: Vec<u32> = Vec::with_capacity(nnz);
        let mut pos = 16;
        for _ in 0..nnz {
            let i = u32::from_le_bytes(word(pos));
            let bad = i as usize >= dim || indices.last().is_some_and(|&p| i <= p);
            if bad {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad index"));
            }
            indices.push(i);
            pos += 4;
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(f32::from_le_bytes(word(pos)));
            pos += 4;
        }
        Ok(SparseVec::from_sorted(dim, indices, values))
    }
}

/// One 250 000-entry sparse DATA frame of a 1M-parameter model: encode
/// and read + decode, per-element (the baseline) against one pass into a
/// reused buffer. Looped 10 times per sample.
fn bench_frame_codec(rows: &mut Vec<Row>) {
    let (v, _) = merge_inputs(N3, K3);
    let frame = Frame::Data {
        tag: 7,
        arrival_ms: 1.5,
        payload: Payload::sparse(v.clone()),
    };
    let mut buf = Vec::new();
    encode_into(&frame, &mut buf);
    assert_eq!(
        buf,
        per_element::encode(7, 1.5, &v),
        "same bytes on the wire"
    );
    for one_pass in [false, true] {
        rows.push(Row {
            kernel: "frame_codec_encode",
            variant: if one_pass {
                "one_pass_reused_buffer"
            } else {
                "per_element"
            },
            simd: "scalar",
            elements: K3 * 10,
            baseline: !one_pass,
            secs: time_median(5, || {
                for _ in 0..10 {
                    if one_pass {
                        encode_into(black_box(&frame), &mut buf);
                        black_box(&buf);
                    } else {
                        black_box(per_element::encode(7, 1.5, black_box(&v)));
                    }
                }
            }),
        });
    }
    let bytes = per_element::encode(7, 1.5, &v);
    let mut body = Vec::new();
    for one_pass in [false, true] {
        rows.push(Row {
            kernel: "frame_codec_read_decode",
            variant: if one_pass {
                "slice_pass_reused_body"
            } else {
                "per_element"
            },
            simd: "scalar",
            elements: K3 * 10,
            baseline: !one_pass,
            secs: time_median(5, || {
                for _ in 0..10 {
                    let mut r = io::Cursor::new(black_box(&bytes));
                    if one_pass {
                        black_box(read_frame_into(&mut r, &mut body).expect("well-formed"));
                    } else {
                        black_box(per_element::read_decode(&mut r).expect("well-formed"));
                    }
                }
            }),
        });
    }
}

/// A model that is nothing but its flat parameter vector, cut into the
/// given number of equal layers: the optimizer rows then time the
/// optimizer, not a layer stack's parameter walk.
struct FlatModel(Vec<f32>, usize);

impl Model for FlatModel {
    fn num_params(&self) -> usize {
        self.0.len()
    }
    fn forward(&mut self, _input: &Tensor, _train: bool) -> Tensor {
        unreachable!("the optimizer rows never run the model")
    }
    fn backward(&mut self, _grad_logits: &Tensor) {}
    fn zero_grads(&mut self) {}
    fn flat_grads(&self) -> Vec<f32> {
        vec![0.0; self.0.len()]
    }
    fn flat_params(&self) -> Vec<f32> {
        self.0.clone()
    }
    fn set_flat_params(&mut self, values: &[f32]) {
        self.0.copy_from_slice(values);
    }
    fn add_to_flat_params(&mut self, delta: &[f32]) {
        simd::axpy(&mut self.0, delta);
    }
    fn param_segments(&self) -> Vec<usize> {
        vec![self.0.len() / self.1; self.1]
    }
}

/// Momentum-SGD apply of a sparse aggregated update at density `rho`,
/// `steps` times a sample, the two variants' samples taken in alternating
/// pairs, over `model`'s layers as overlap buckets (back to front). One
/// bucket: densify into a fresh m-vector then
/// `step_dense` (what `step_sparse` once did) vs the windowed
/// `step_sparse`. Several: the engine's former pattern (per bucket, a
/// range step into a `−0.0` scratch, a full-model add and the slice
/// reset) vs each bucket's delta into the spent gradient, then one add.
fn bench_opt_apply(
    rows: &mut Vec<Row>,
    kernel: &'static str,
    model: &mut dyn Model,
    rho: f64,
    steps: usize,
) {
    let (m, mut hi) = (model.num_params(), model.num_params());
    let mut rng = StdRng::seed_from_u64(29);
    let buckets: Vec<(Range<usize>, SparseVec)> = (model.param_segments().iter().rev())
        .map(|&len| {
            hi -= len;
            let dense: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let k = ((len as f64 * rho).round() as usize).max(1);
            (hi..hi + len, topk_sparse(&dense, k))
        })
        .collect();
    let variants = match buckets.len() {
        1 => ["densify_then_dense", "step_sparse"],
        _ => ["per_bucket_add", "one_add"],
    };
    // The former scratch holds −0.0 between steps and the spent gradient
    // is overwritten whole, so one buffer serves both.
    let mut buf = vec![-0.0f32; m];
    let mut opts = variants.map(|_| MomentumSgd::new(m, 0.01, 0.9));
    let sample = |v: usize| {
        let (variant, opt) = (variants[v], &mut opts[v]);
        let t = Instant::now();
        for _ in 0..steps {
            let whole = &black_box(&buckets)[0].1;
            match variant {
                "densify_then_dense" => opt.step_dense(model, &whole.to_dense()),
                "step_sparse" => opt.step_sparse(model, whole),
                _ => {
                    for (r, update) in black_box(&buckets) {
                        opt.step_range(r.clone(), update, &mut buf[r.clone()]);
                        if variant == "per_bucket_add" {
                            model.add_to_flat_params(&buf);
                            buf[r.clone()].fill(-0.0);
                        }
                    }
                    if variant == "one_add" {
                        model.add_to_flat_params(&buf);
                    }
                }
            }
        }
        black_box(&buf);
        t.elapsed().as_secs_f64()
    };
    for (v, secs) in alternating(5, sample).into_iter().enumerate() {
        rows.push(Row {
            kernel,
            variant: variants[v],
            simd: simd::level().name(),
            elements: m * steps,
            baseline: v == 0,
            secs,
        });
    }
}

fn bench_matmul(rows: &mut Vec<Row>) {
    /// Samples of each variant, taken as (naive, tiled) pairs.
    const PAIRS: usize = 9;
    // A VGG-style fully-connected shape: 256-sample batch × 512 × 512.
    let (m, k, n) = (256usize, 512usize, 512usize);
    let mut rng = StdRng::seed_from_u64(13);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = m * k * n;

    let [naive, tiled] = alternating(PAIRS, |v| {
        let t = Instant::now();
        if v == 1 {
            matmul_flat(black_box(&a), black_box(&b), &mut c, m, k, n);
        } else {
            naive_matmul(black_box(&a), black_box(&b), &mut c, m, k, n);
        }
        black_box(&c);
        t.elapsed().as_secs_f64()
    });
    for (variant, simd, secs) in [
        ("naive_ikj", "scalar", naive),
        ("tiled", simd::level().name(), tiled),
    ] {
        rows.push(Row {
            kernel: "matmul",
            variant,
            simd,
            elements: flops,
            baseline: variant == "naive_ikj",
            secs,
        });
    }
}

/// One layer's forward and backward at a fixed input, single thread,
/// each summed over 20 calls a sample. Backward consumes the input its
/// forward cached, so every timed backward follows an untimed forward.
/// `elements` is the forward's multiply-adds per call, so a layer's rows
/// share a unit. A `first` layer also gets a `backward_params` row: the
/// backward a network's first layer runs, without the input gradient.
fn bench_layer(
    rows: &mut Vec<Row>,
    (kernel, first): (&'static str, bool),
    layer: &mut dyn Layer,
    (x, dy): (&Tensor, &Tensor),
    elements: usize,
) {
    const CALLS: usize = 20;
    let variants: &[&'static str] = if first {
        &["forward", "backward", "backward_params"]
    } else {
        &["forward", "backward"]
    };
    for &variant in variants {
        let mut call = || {
            let t = Instant::now();
            black_box(layer.forward(black_box(x), true));
            if variant == "forward" {
                return t.elapsed().as_secs_f64();
            }
            let t = Instant::now();
            if variant == "backward" {
                black_box(layer.backward(black_box(dy)));
            } else {
                layer.backward_params(black_box(dy));
            }
            t.elapsed().as_secs_f64()
        };
        let secs = median_of(5, || (0..CALLS).map(|_| call()).sum());
        rows.push(Row {
            kernel,
            variant,
            simd: simd::level().name(),
            elements: elements * CALLS,
            baseline: variant == "forward",
            secs,
        });
    }
}

/// Uniform `[-1, 1)` values of `shape`.
fn random_tensor(rng: &mut StdRng, shape: Shape) -> Tensor {
    let data = (0..shape.volume()).map(|_| rng.gen_range(-1.0f32..1.0));
    Tensor::from_vec(shape, data.collect()).expect("numel matches")
}

/// vgg-lite's two convolutions and its first fully-connected layer at the
/// benchmark workload's shape: a batch of 16 8×8 images, so conv1 maps
/// 3→16 channels at 8×8, conv2 16→32 at the pooled 4×4, and fc1 the
/// flattened 128 features to 128.
fn bench_vgg_layers(rows: &mut Vec<Row>) {
    let batch = 16;
    let mut rng = StdRng::seed_from_u64(23);
    for (kernel, in_c, out_c, img) in [
        ("conv2d_vgg_conv1", 3, 16, 8),
        ("conv2d_vgg_conv2", 16, 32, 4),
    ] {
        let mut conv = Conv2d::new(&mut rng, in_c, out_c, 3, 1, 1);
        let x = random_tensor(&mut rng, Shape::d4(batch, in_c, img, img));
        let dy = random_tensor(&mut rng, Shape::d4(batch, out_c, img, img));
        let elements = batch * img * img * out_c * in_c * 9;
        let first = kernel == "conv2d_vgg_conv1";
        bench_layer(rows, (kernel, first), &mut conv, (&x, &dy), elements);
    }
    let (nin, nout) = (128, 128);
    let mut fc1 = Linear::new(&mut rng, nin, nout);
    let x = random_tensor(&mut rng, Shape::d2(batch, nin));
    let dy = random_tensor(&mut rng, Shape::d2(batch, nout));
    bench_layer(
        rows,
        ("linear_vgg_fc1", false),
        &mut fc1,
        (&x, &dy),
        batch * nin * nout,
    );
}

/// vgg-lite's first max pool at the benchmark workload's shape: conv1's
/// 16 ReLU'd 8×8 planes a sample, batch 16. `elements` is the inputs
/// read per call.
fn bench_vgg_pool(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(31);
    let shape = Shape::d4(16, 16, 8, 8);
    let x = random_tensor(&mut rng, shape.clone()).map(|v| v.max(0.0));
    let dy = random_tensor(&mut rng, Shape::d4(16, 16, 4, 4));
    let elements = shape.volume();
    let pool = &mut MaxPool2d::new(2);
    bench_layer(
        rows,
        ("maxpool2d_vgg_pool1", false),
        pool,
        (&x, &dy),
        elements,
    );
}

/// conv1's per-sample weight-gradient GEMM, `dW_s [16, 27] = dY_s [16, 64]
/// · cols_sᵀ [64, 27]` from a zeroed `dW_s` without skips, 16 calls (one
/// batch) a sample, at every SIMD level: 27 columns, all of them past the
/// last 32-wide tile. `elements` is multiply-adds.
fn bench_gemm_narrow(rows: &mut Vec<Row>) {
    const CALLS: usize = 16;
    let (m, k, n) = (16usize, 64usize, 27usize);
    let mut rng = StdRng::seed_from_u64(37);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    for level in levels() {
        let secs = simd::with_simd_level(level, || {
            time_median(9, || {
                for _ in 0..CALLS {
                    c.fill(0.0);
                    simd::gemm_acc(black_box(&a), black_box(&b), &mut c, m, k, n, false);
                }
                black_box(&c);
            })
        });
        rows.push(Row {
            kernel: "gemm_acc_vgg_conv1_dw",
            variant: level.name(),
            simd: level.name(),
            elements: m * k * n * CALLS,
            baseline: level == SimdLevel::Scalar,
            secs,
        });
    }
}

/// The transpose `matmul_bt_flat` makes of fc1's 128×128 weight on every
/// forward: one element at a time with `rows`-strided writes (what it did
/// before `transpose_into`) against the 8×8-tiled `transpose_into`.
fn bench_transpose(rows: &mut Vec<Row>) {
    let n = 128;
    let mut rng = StdRng::seed_from_u64(29);
    let x: Vec<f32> = (0..n * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut out = vec![0.0f32; n * n];
    const CALLS: usize = 1000;
    for variant in ["per_element", "tiled"] {
        let secs = time_median(5, || {
            for _ in 0..CALLS {
                if variant == "tiled" {
                    transpose_into(black_box(&x), n, n, n, &mut out);
                } else {
                    for (i, row) in black_box(&x).chunks_exact(n).enumerate() {
                        for (j, &v) in row.iter().enumerate() {
                            out[j * n + i] = v;
                        }
                    }
                }
                black_box(&out);
            }
        });
        rows.push(Row {
            kernel: "transpose_128x128",
            variant,
            simd: "scalar",
            elements: n * n * CALLS,
            baseline: variant == "per_element",
            secs,
        });
    }
}

/// Residual accumulate (`acc += grad`) at every SIMD level, m = 25M.
fn bench_axpy(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(17);
    let grad: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut acc: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    for level in levels() {
        rows.push(Row {
            kernel: "residual_axpy",
            variant: level.name(),
            simd: level.name(),
            elements: N2,
            baseline: level == SimdLevel::Scalar,
            secs: simd::with_simd_level(level, || {
                time_median(5, || {
                    simd::axpy(black_box(&mut acc), black_box(&grad));
                })
            }),
        });
    }
}

/// Threshold magnitude scan + compaction at every SIMD level, m = 25M.
/// The threshold is placed so ~k = 25 000 indices survive (ρ = 0.001 on
/// uniform [-1, 1) data → |v| > 0.999).
fn bench_compact(rows: &mut Vec<Row>) {
    let mut rng = StdRng::seed_from_u64(19);
    let dense: Vec<f32> = (0..N2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let thr = 1.0 - K2 as f32 / N2 as f32;
    let (mut idx, mut val) = (Vec::new(), Vec::new());
    for level in levels() {
        rows.push(Row {
            kernel: "threshold_compact",
            variant: level.name(),
            simd: level.name(),
            elements: N2,
            baseline: level == SimdLevel::Scalar,
            secs: simd::with_simd_level(level, || {
                time_median(5, || {
                    idx.clear();
                    val.clear();
                    let src = Pairs::Dense {
                        v: black_box(&dense),
                        base: 0,
                    };
                    simd::partition_above(src, thr, Some((&mut idx, &mut val)), None);
                    black_box((&idx, &val));
                })
            }),
        });
    }
}

/// Fused accumulate+select+compact vs the three-pass accumulate / scan /
/// compact sequence, single thread: m = 25M, k = 25 000 at every level
/// (`residual_select`), and m = 1M, k = 250 000 — the first warm-up
/// epoch's density, where the candidate tail is as large as the pass —
/// at the best level (`residual_select_rho25`).
///
/// Each rep re-accumulates the same fresh gradient and extracts the
/// top-k, so the residual reaches the trainer's steady state (rotating
/// selection) and per-rep work stays constant. Both variants run the
/// kernel the product runs (exact, RNG-free sampler) over the
/// identical rep sequence, so thresholds — and every float — match
/// bitwise between them; only the number of memory passes differs.
fn bench_fused_select(rows: &mut Vec<Row>) {
    let best = simd::detect_best();
    let configs: [(&'static str, SimdLevel, bool); 4] = [
        ("three_pass_scalar", SimdLevel::Scalar, false),
        ("three_pass_simd", best, false),
        ("fused_scalar", SimdLevel::Scalar, true),
        ("fused_simd", best, true),
    ];
    let rho25 = [configs[1], configs[3]];
    let shapes: [(&'static str, usize, usize, &[_]); 2] = [
        ("residual_select", N2, K2, &configs),
        ("residual_select_rho25", N3, K3, &rho25),
    ];
    for (kernel, n, k, configs) in shapes {
        let mut rng = StdRng::seed_from_u64(21);
        let grad: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for &(variant, level, fused) in configs {
            let mut r = Residual::new(n);
            let mut out = SparseVec::empty(n);
            rows.push(Row {
                kernel,
                variant,
                simd: level.name(),
                elements: n,
                baseline: variant == configs[0].0,
                secs: simd::with_simd_level(level, || {
                    time_median(5, || {
                        if fused {
                            r.accumulate_extract_into(black_box(&grad), k, &mut out);
                        } else {
                            r.accumulate(black_box(&grad));
                            r.extract_topk_into(k, &mut out);
                        }
                        black_box(&out);
                    })
                }),
            });
        }
    }
}

fn render_json(rows: &[Row]) -> String {
    let per_elem = |r: &Row| r.secs / r.elements as f64;
    let baseline = |kernel: &str| -> f64 {
        rows.iter()
            .find(|r| r.kernel == kernel && r.baseline)
            .map(per_elem)
            .expect("every kernel has a baseline row")
    };
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"bench\": \"hot-path kernels at paper scale (n=14M k=14000 for select/merge, n=1M k=250000 for the _rho25 rows, put_back and frame_codec; n=25M k=25000 for opt_apply/simd/fusion rows; opt_apply_bucketed: n=25M in 8 buckets at rho=0.001, _vgg: vgg-lite per layer at rho=0.005, 200 steps a sample; conv2d_vgg_*, linear_vgg_fc1: vgg-lite's convolutions and first fc layer at batch 16 of 8x8 images, 20 calls a sample, elements = forward multiply-adds, backward_params = backward without the input gradient; maxpool2d_vgg_pool1: vgg-lite's first 2x2 max pool at batch 16, 20 calls a sample, elements = inputs read; gemm_acc_vgg_conv1_dw: conv1's per-sample weight-gradient GEMM [16,64]x[64,27], 16 calls a sample, elements = multiply-adds; transpose_128x128: 1000 transposes a sample)\","
    );
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(out, "  \"cpus\": {cpus},");
    let _ = writeln!(out, "  \"cpu_features\": \"{}\",", simd::features_string());
    let _ = writeln!(out, "  \"simd_default\": \"{}\",", simd::level().name());
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let speedup = baseline(r.kernel) / per_elem(r);
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"variant\": \"{}\", \"simd\": \"{}\", \"millis\": {:.3}, \"elements_per_sec\": {:.0}, \"speedup_vs_baseline\": {:.2}}}{}",
            r.kernel,
            r.variant,
            r.simd,
            r.secs * 1e3,
            r.elements_per_sec(),
            speedup,
            if i + 1 == rows.len() { "" } else { "," },
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The tiled matmul must never lose to the naive loop (the 1.05 factor
/// absorbs timer noise on shared CI machines).
fn assert_single_thread_matmul_not_slower(rows: &[Row]) {
    let naive = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "naive_ikj")
        .expect("naive matmul row");
    let tiled = rows
        .iter()
        .find(|r| r.kernel == "matmul" && r.variant == "tiled")
        .expect("tiled matmul row");
    assert!(
        tiled.secs <= naive.secs * 1.05,
        "tiled matmul regressed vs naive: {:.3}ms vs {:.3}ms",
        tiled.secs * 1e3,
        naive.secs * 1e3,
    );
}

fn main() {
    eprintln!(
        "simd: dispatching at '{}' (host features: {}; set GTOPK_SIMD to override)",
        simd::level().name(),
        simd::features_string()
    );
    let mut rows = Vec::new();
    eprintln!("benchmarking top-k selection (n = {N}, k = {K}; n = {N3}, k = {K3}) ...");
    bench_select(&mut rows, "topk_select", N, K);
    bench_select(&mut rows, "topk_select_rho25", N3, K3);
    eprintln!("benchmarking top-k merge ...");
    bench_merge(&mut rows, "topk_merge", N, K, 200);
    bench_merge(&mut rows, "topk_merge_rho25", N3, K3, 10);
    bench_merge_split(&mut rows);
    eprintln!("benchmarking the put-back (n = {N3}, k = {K3}) ...");
    bench_put_back(&mut rows);
    eprintln!("benchmarking the frame codec (one {K3}-entry DATA frame) ...");
    bench_frame_codec(&mut rows);
    eprintln!("benchmarking optimizer apply (m = {N2}, {N3}; {N2} in 8 buckets; vgg-lite) ...");
    for (kernel, m, buckets, rho) in [
        ("opt_apply_sparse", N2, 1, 0.001),
        ("opt_apply_sparse_rho25", N3, 1, 0.25),
        ("opt_apply_bucketed", N2, 8, 0.001),
    ] {
        let model = &mut FlatModel(vec![0.0; m], buckets);
        bench_opt_apply(&mut rows, kernel, model, rho, 1);
    }
    let vgg = &mut models::vgg_lite(42, 3, 8, 10);
    bench_opt_apply(&mut rows, "opt_apply_bucketed_vgg", vgg, 0.005, 200);
    eprintln!("benchmarking matmul ...");
    bench_matmul(&mut rows);
    eprintln!("benchmarking vgg-lite's convolutions and fc1 (batch 16, 8x8 images) ...");
    bench_vgg_layers(&mut rows);
    bench_vgg_pool(&mut rows);
    bench_gemm_narrow(&mut rows);
    bench_transpose(&mut rows);
    eprintln!("benchmarking residual axpy across simd levels (n = {N2}) ...");
    bench_axpy(&mut rows);
    eprintln!("benchmarking threshold compaction across simd levels ...");
    bench_compact(&mut rows);
    eprintln!("benchmarking fused vs three-pass residual select (n = {N2}, k = {K2}) ...");
    bench_fused_select(&mut rows);

    assert_single_thread_matmul_not_slower(&rows);
    let fused_speedup = {
        let pe = |v: &str| {
            rows.iter()
                .find(|r| r.kernel == "residual_select" && r.variant == v)
                .map(|r| r.secs)
                .expect("residual_select row")
        };
        pe("three_pass_scalar") / pe("fused_simd")
    };
    eprintln!("fused_simd vs three_pass_scalar: {fused_speedup:.2}x");

    let json = render_json(&rows);
    print!("{json}");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_kernels.json");
    std::fs::write(&path, &json).expect("write BENCH_kernels.json");
    eprintln!("wrote {}", path.display());
}
