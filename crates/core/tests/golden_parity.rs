//! Golden per-algorithm parity: bitwise fingerprints of what every
//! `Algorithm` row produces — each rank's averaged `Update` and the
//! residual it leaves behind — over three consecutive steps with the
//! residual carried, serially and under the overlap engine.
//!
//! The literals were recorded from the eight per-algorithm aggregator
//! structs and the overlap engine's private step, before both were
//! collapsed into the one table-driven step; they pin that refactor (and
//! any later one) to the same floats. The warm-up-density literals were
//! recorded before the `⊤` merge, the put-back and the sparse optimizer
//! apply were rewritten. A change that moves a fingerprint changed the
//! numerics of that row.

use gtopk::{Aggregator, Algorithm, OverlapConfig, OverlapEngine, Selector, Update};
use gtopk_comm::{Cluster, Communicator, CostModel, Topology};
use gtopk_nn::{models, Model, MomentumSgd};
use gtopk_sparse::Residual;

const STEPS: u64 = 3;

/// FNV-1a over a stream of 32-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f32]) {
        self.word(v.len() as u32);
        v.iter().for_each(|x| self.word(x.to_bits()));
    }

    fn update(&mut self, u: &Update) {
        match u {
            Update::Dense(v) => self.floats(v),
            Update::Sparse(sv) => {
                self.word(sv.nnz() as u32);
                sv.indices().iter().for_each(|&i| self.word(i));
                self.floats(sv.values());
            }
        }
    }
}

/// Folds the per-rank fingerprints, in rank order, into one value.
fn fold(per_rank: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &r in per_rank {
        h.word(r as u32);
        h.word((r >> 32) as u32);
    }
    h.0
}

/// Heavy-tailed deterministic gradient: a pure function of its arguments,
/// with supports that partly overlap across ranks.
fn grad(rank: usize, step: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let shared = (i as u64 + 5).wrapping_mul(step + 3);
            let own = (i as u64 + 7).wrapping_mul(rank as u64 * 3 + step + 11);
            let h = (if i % 3 == 0 { shared } else { own }).wrapping_mul(0x2545_f491_4f6c_dd1d);
            let u = (h >> 33) as f32 / (1u64 << 31) as f32 - 0.5;
            u * u * u * 8.0
        })
        .collect()
}

fn step_for(alg: Algorithm, comm: &Communicator) -> Aggregator {
    Aggregator::new(alg, Selector::Exact, Topology::Binomial, comm.rank())
}

fn serial_fingerprint(alg: Algorithm, p: usize) -> u64 {
    // Above the streaming kernel's 4096-element cut-off, so the sampled
    // threshold pass runs.
    let dim = 6000usize;
    let k = 48usize;
    let per_rank = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let mut agg = step_for(alg, comm);
        let members: Vec<usize> = (0..comm.size()).collect();
        let mut residual = Residual::new(dim);
        let mut h = Fnv::new();
        for step in 0..STEPS {
            let g = grad(comm.rank(), step, dim);
            let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
            h.update(&update);
            h.floats(residual.dense());
        }
        h.0
    });
    fold(&per_rank)
}

/// The first warm-up epoch's density (ρ = 0.25, the paper's §IV-B
/// schedule): every `⊤` merge sees two ~16k-entry inputs, far above the
/// 4096-entry cut-off, so the merge's sampled cut, the put-back and the
/// sparse optimizer apply all run at the shape the training loop gives
/// them. Each step applies the update with `MomentumSgd::step_sparse` and
/// fingerprints update, residual, parameters and velocity.
fn warmup_fingerprint(alg: Algorithm, p: usize) -> u64 {
    let per_rank = Cluster::new(p, CostModel::zero()).run(move |comm| {
        // 4096 × 16 weights: 65 536 parameters.
        let mut model = models::logistic(0, 4095, 16);
        let dim = model.num_params();
        let k = dim / 4;
        let mut opt = MomentumSgd::new(dim, 0.1, 0.9);
        let mut agg = step_for(alg, comm);
        let members: Vec<usize> = (0..comm.size()).collect();
        let mut residual = Residual::new(dim);
        let mut h = Fnv::new();
        for step in 0..STEPS {
            let g = grad(comm.rank(), step, dim);
            let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
            let Update::Sparse(sv) = &update else {
                panic!("{} yields a sparse update", alg.name());
            };
            opt.step_sparse(&mut model, sv);
            h.update(&update);
            h.floats(residual.dense());
            h.floats(&model.flat_params());
            h.floats(opt.velocity());
        }
        h.0
    });
    fold(&per_rank)
}

fn overlap_fingerprint(alg: Algorithm, p: usize, buckets: usize) -> u64 {
    let net = CostModel::gigabit_ethernet();
    let per_rank = Cluster::new(p, net).run(move |comm| {
        // Two parameter-bearing layers: 6240 + 776 parameters.
        let mut model = models::mlp(3, 64, 96, 8);
        let segments = model.param_segments();
        let m = model.num_params();
        let mut opt = MomentumSgd::new(m, 0.1, 0.9);
        let mut engine = OverlapEngine::new(
            &OverlapConfig::buckets(buckets),
            &segments,
            None,
            net,
            step_for(alg, comm),
        );
        let members: Vec<usize> = (0..comm.size()).collect();
        let mut h = Fnv::new();
        for step in 0..STEPS {
            let g = grad(comm.rank(), step, m);
            engine
                .step(comm, &members, &g, 0.01, &mut opt, &mut model)
                .unwrap();
            h.floats(&model.flat_params());
            for r in &engine.snapshot().0 {
                h.floats(r);
            }
        }
        h.0
    });
    fold(&per_rank)
}

/// Renders a mismatching table so the failure message is the new literal.
fn check(what: &str, got: &[(String, u64)], want: &[u64]) {
    let rendered: Vec<String> = got
        .iter()
        .map(|(label, v)| format!("    0x{v:016x}, // {label}"))
        .collect();
    let values: Vec<u64> = got.iter().map(|(_, v)| *v).collect();
    assert_eq!(
        values,
        want,
        "{what} fingerprints moved; computed table:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn every_algorithm_row_reproduces_its_recorded_trajectory() {
    const WANT: [u64; 16] = [
        0xbcee8d57a5db00a5, // Dense P=4
        0xed9aae7b91f5241f, // Dense P=5
        0xc6e57d7867697e2b, // Top-k P=4
        0xa47dc626b57cae9b, // Top-k P=5
        0xcb961f60b701f8ed, // gTop-k P=4
        0xc54d3ceb6b52b89f, // gTop-k P=5
        0xdc579977ac5816e2, // gTop-k(naive) P=4
        0x745a667937556c33, // gTop-k(naive) P=5
        0xb9c452baae5f966f, // gTop-k(feedback) P=4
        0x5aa323f3ab1cc44e, // gTop-k(feedback) P=5
        0x77efd1e5a2d53be0, // gTop-k(no-putback) P=4
        0xd51026cb4923cd66, // gTop-k(no-putback) P=5
        0x845bfab2bb6c05c1, // Ok-Topk P=4
        0x18c5ff1f07204870, // Ok-Topk P=5
        0x92c635418745161b, // SparDL P=4
        0x16f531125f142f22, // SparDL P=5
    ];
    let mut got = Vec::new();
    for alg in Algorithm::ALL {
        for p in [4usize, 5] {
            got.push((format!("{} P={p}", alg.name()), serial_fingerprint(alg, p)));
        }
    }
    check("serial", &got, &WANT);
}

#[test]
fn tree_rows_reproduce_their_warmup_density_trajectory() {
    const WANT: [u64; 6] = [
        0xba3c9aeaa4a9e8f4, // gTop-k P=4
        0x847afdb5ac20701b, // gTop-k P=5
        0x93b3faa2a2cd7fa2, // gTop-k(feedback) P=4
        0x45350fba82016249, // gTop-k(feedback) P=5
        0x7cf40c81177e1254, // gTop-k(no-putback) P=4
        0x4c1b52682e0d2ec4, // gTop-k(no-putback) P=5
    ];
    let mut got = Vec::new();
    for alg in [
        Algorithm::GTopK,
        Algorithm::GTopKFeedback,
        Algorithm::GTopKNoPutback,
    ] {
        for p in [4usize, 5] {
            got.push((format!("{} P={p}", alg.name()), warmup_fingerprint(alg, p)));
        }
    }
    check("warm-up", &got, &WANT);
}

#[test]
fn overlapped_rows_reproduce_their_recorded_trajectory() {
    const WANT: [u64; 12] = [
        0x975c22fb807dd9c2, // gTop-k P=4 buckets=1
        0x65b74fe9329f9749, // gTop-k P=4 buckets=2
        0x1b260f380c2a3260, // gTop-k P=5 buckets=1
        0x702f51b58f83a4d4, // gTop-k P=5 buckets=2
        0x1f945ae59811a8ee, // Ok-Topk P=4 buckets=1
        0xfb65a4a09326f8ae, // Ok-Topk P=4 buckets=2
        0xa48c279d1136853b, // Ok-Topk P=5 buckets=1
        0xeba1157015db45bd, // Ok-Topk P=5 buckets=2
        0xd389aa5ecc27b8ce, // SparDL P=4 buckets=1
        0x0ac3ad8e279ac9c7, // SparDL P=4 buckets=2
        0x9ac2a1e1c482cdac, // SparDL P=5 buckets=1
        0x48e4464f42fd76d5, // SparDL P=5 buckets=2
    ];
    let mut got = Vec::new();
    for alg in [Algorithm::GTopK, Algorithm::OkTopk, Algorithm::SparDl] {
        for p in [4usize, 5] {
            for buckets in [1usize, 2] {
                got.push((
                    format!("{} P={p} buckets={buckets}", alg.name()),
                    overlap_fingerprint(alg, p, buckets),
                ));
            }
        }
    }
    check("overlap", &got, &WANT);
}
