//! Set-up probes: single calls into a layer's public function that a
//! step makes only inside another layer's span (matmul under `nn.*`, the
//! wire codec and the frame encoder under `comm.send` on TCP), timed on
//! their own at the workload's message size.

use gtopk_comm::transport::frame::{self, Frame};
use gtopk_comm::{Message, Payload};
use gtopk_sparse::{wire, SparseVec};
use std::hint::black_box;
use std::time::Instant;

/// vgg-lite's largest GEMM at batch 16: the second convolution's im2col
/// product, `[16·4·4, 16·3·3] × [144, 32]`.
const GEMM: (usize, usize, usize) = (256, 144, 32);

/// Samples behind every probe's median.
pub const REPS: usize = 15;

/// Median wall time of [`REPS`] calls of `f`, ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::median(&mut samples)
}

/// `gtopk_tensor::matmul_flat` throughput at [`GEMM`], GFLOP/s.
pub fn matmul_gflops() -> f64 {
    let (m, k, n) = GEMM;
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.1 - 0.6).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.2 - 0.6).collect();
    let mut c = vec![0.0f32; m * n];
    const BATCH: usize = 20;
    let ms = median_ms(|| {
        for _ in 0..BATCH {
            gtopk_tensor::matmul_flat(black_box(&a), black_box(&b), &mut c, m, k, n);
            black_box(&mut c);
        }
    });
    (2 * m * k * n * BATCH) as f64 / (ms * 1e6)
}

/// A `k`-entry vector of dimension `dim`, evenly spread.
fn message(dim: usize, k: usize) -> SparseVec {
    let indices: Vec<u32> = (0..k).map(|i| (i * dim / k) as u32).collect();
    let values: Vec<f32> = (0..k).map(|i| (i % 97) as f32 * 0.01 - 0.5).collect();
    SparseVec::from_sorted(dim, indices, values)
}

/// Wire-codec and frame-encoder cost of one `k`-entry message.
#[derive(Debug, Clone, Copy)]
pub struct CodecProbe {
    /// `gtopk_sparse::wire::encode`, ms.
    pub wire_encode_ms: f64,
    /// `gtopk_sparse::wire::decode`, ms.
    pub wire_decode_ms: f64,
    /// `transport::frame::encode` of one DATA frame, ms.
    pub frame_encode_ms: f64,
}

/// Times the codecs on a `k`-entry vector of dimension `dim`.
pub fn codec(dim: usize, k: usize) -> CodecProbe {
    let v = message(dim, k);
    let bytes = wire::encode(&v);
    let data = Frame::data(Message {
        src: 0,
        tag: 1,
        payload: Payload::sparse(v.clone()),
        arrival_ms: 0.0,
    });
    CodecProbe {
        wire_encode_ms: median_ms(|| {
            black_box(wire::encode(black_box(&v)));
        }),
        wire_decode_ms: median_ms(|| {
            black_box(wire::decode(black_box(&bytes)).expect("own encoding decodes"));
        }),
        frame_encode_ms: median_ms(|| {
            black_box(frame::encode(black_box(&data)));
        }),
    }
}
