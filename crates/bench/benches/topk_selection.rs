//! Micro-benchmark: the exact top-k selection kernel over a
//! million-element gradient (the compression cost the paper's Fig. 11
//! highlights as a real overhead), allocating and on reused scratch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtopk_sparse::{topk_sparse, topk_sparse_into, SparseVec, TopkScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn gradient(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("topk_selection");
    for &m in &[100_000usize, 1_000_000] {
        let dense = gradient(m);
        let k = m / 1000; // rho = 0.001
        group.bench_with_input(BenchmarkId::new("exact", m), &dense, |b, d| {
            b.iter(|| black_box(topk_sparse(black_box(d), k)))
        });
        // The zero-allocation path: the same exact kernel on reused scratch.
        let mut scratch = TopkScratch::new();
        let mut out = SparseVec::empty(m);
        group.bench_with_input(BenchmarkId::new("exact_scratch", m), &dense, |b, d| {
            b.iter(|| {
                topk_sparse_into(black_box(d), k, &mut scratch, &mut out);
                black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_selection);
criterion_main!(benches);
