//! Micro-benchmark: real wall-clock cost of the dense ring AllReduce on the
//! threaded substrate (thread scheduling + data movement, not simulated
//! time) — sanity check that the simulation harness itself is cheap
//! enough to run paper-scale sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtopk_comm::{collectives, Cluster, CostModel};
use std::hint::black_box;

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives_wallclock");
    group.sample_size(10);
    let m = 65_536usize;
    for &p in &[4usize, 8] {
        group.bench_with_input(BenchmarkId::new("ring_allreduce", p), &p, |b, &p| {
            let cluster = Cluster::new(p, CostModel::zero());
            b.iter(|| {
                cluster.run(|comm| {
                    let mut v = vec![1.0f32; m];
                    collectives::allreduce_ring(comm, &mut v).unwrap();
                    black_box(v[0])
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
