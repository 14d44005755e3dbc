//! Golden per-algorithm parity: bitwise fingerprints of what every
//! `Algorithm` row produces — each rank's averaged `Update` and the
//! residual it leaves behind — over three consecutive steps with the
//! residual carried, serially and under the overlap engine; and of what
//! every row's whole training run reports through `train_distributed`.
//!
//! The literals were recorded from the eight per-algorithm aggregator
//! structs and the overlap engine's private step, before both were
//! collapsed into the one table-driven step; they pin that refactor (and
//! any later one) to the same floats. The warm-up-density literals were
//! recorded before the `⊤` merge, the put-back and the sparse optimizer
//! apply were rewritten. The training-run literals and the remaining
//! sparse rows' overlapped literals were recorded while the trainer still
//! had a separate whole-vector arm beside the bucketed engine. The
//! parameter-server literals were recorded while the PS round still had
//! its own hand-written send/receive loop. The momentum-correction
//! literals were recorded while the optimizer still added each bucket's
//! update into the parameters as that bucket's collective landed. A
//! change that moves a fingerprint changed the numerics of that row.

use gtopk::{
    train_distributed, Aggregator, Algorithm, ComputeCost, OverlapConfig, OverlapEngine, PsConfig,
    Selector, TrainConfig, Update,
};
use gtopk_comm::{Cluster, Communicator, CostModel, FaultPlan, Topology};
use gtopk_data::GaussianMixture;
use gtopk_nn::{models, Model, MomentumSgd};
use gtopk_sparse::Residual;
use gtopk_tensor::Tensor;
use std::sync::{Arc, Mutex};

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
            let mut g = grad(comm.rank(), step, m);
            engine
                .step(comm, &members, &mut g, 0.01, &mut opt, &mut model)
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

/// A model that hands its final parameters to `sink` when the training
/// run drops it (the report carries no parameters).
struct Recorded<M: Model> {
    inner: M,
    sink: Arc<Mutex<Vec<Vec<f32>>>>,
}

impl<M: Model> Drop for Recorded<M> {
    fn drop(&mut self) {
        let params = self.inner.flat_params();
        self.sink
            .lock()
            .expect("no panic while recording")
            .push(params);
    }
}

impl<M: Model> Model for Recorded<M> {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_logits: &Tensor) {
        self.inner.backward(grad_logits);
    }

    fn zero_grads(&mut self) {
        self.inner.zero_grads();
    }

    fn flat_grads(&self) -> Vec<f32> {
        self.inner.flat_grads()
    }

    fn flat_params(&self) -> Vec<f32> {
        self.inner.flat_params()
    }

    fn set_flat_params(&mut self, values: &[f32]) {
        self.inner.set_flat_params(values);
    }

    fn add_to_flat_params(&mut self, delta: &[f32]) {
        self.inner.add_to_flat_params(delta);
    }

    fn param_segments(&self) -> Vec<usize> {
        self.inner.param_segments()
    }
}

/// One whole training run of `alg` at `p` workers, without `--overlap`,
/// through `train_distributed`: per-epoch loss bits, the final
/// parameters, the simulated time, rank 0's traffic and the mean applied
/// update size. The paper's warm-up moves `k` every epoch, and the
/// non-dyadic modelled compute and sparsify costs pin the order in which
/// they land on the simulated clock.
fn trained_fingerprint(alg: Algorithm, p: usize) -> u64 {
    run_fingerprint(&train_cfg(p).with_algorithm(alg), alg.name())
}

fn train_cfg(p: usize) -> TrainConfig {
    let mut cfg = TrainConfig::convergence(p, 4, 3, 0.1, 0.05);
    cfg.compute_cost = Some(ComputeCost {
        compute_ms: 4.1,
        sparsify_ms: 0.7,
    });
    cfg
}

/// The fingerprint of one `train_distributed` run of `cfg`. The final
/// parameters are the ones every surviving replica agrees on.
fn run_fingerprint(cfg: &TrainConfig, what: &str) -> u64 {
    let data = GaussianMixture::new(13, 160, 8, 4, 2.5, 0.4);
    let sink = Arc::new(Mutex::new(Vec::new()));
    let build = || Recorded {
        inner: models::mlp(17, 8, 16, 4),
        sink: Arc::clone(&sink),
    };
    let report = train_distributed(cfg, build, &data, None);
    let finals = std::mem::take(&mut *sink.lock().expect("runs finished"));
    assert_eq!(finals.len(), cfg.workers, "{what}: one model per rank");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let agreed = finals
        .iter()
        .find(|f| finals.iter().filter(|g| bits(g) == bits(f)).count() == report.survivors)
        .unwrap_or_else(|| panic!("{what}: surviving replicas agree"));
    let mut h = Fnv::new();
    let mut f64_word = |x: f64| {
        h.word(x.to_bits() as u32);
        h.word((x.to_bits() >> 32) as u32);
    };
    for e in &report.epochs {
        f64_word(e.train_loss);
    }
    // When the survivors notice a crash, and so the simulated time and
    // traffic of a faulted run, depends on thread timing: a faulted run
    // pins its numerics only.
    let timed = !cfg.fault_tolerant();
    if timed {
        f64_word(report.sim_time_ms);
    }
    f64_word(report.mean_update_nnz);
    if timed {
        f64_word(report.elems_sent_rank0 as f64);
    }
    h.floats(agreed);
    h.0
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

#[test]
fn every_row_trains_to_its_recorded_report() {
    const WANT: [u64; 16] = [
        0xadb7ac17c7609b41, // Dense P=4
        0x1713a6cb0be44ce3, // Dense P=5
        0x965073f5489e187f, // Top-k P=4
        0x2a2c246f5b642cb8, // Top-k P=5
        0x9ac18d51a7dac59c, // gTop-k P=4
        0xc5c0211295277a84, // gTop-k P=5
        0x75ac8f63c7b89d5a, // gTop-k(naive) P=4
        0x638064ea820de262, // gTop-k(naive) P=5
        0x44942cd9f1bee72a, // gTop-k(feedback) P=4
        0x1298a6cd223df433, // gTop-k(feedback) P=5
        0xd733eb8902ce5735, // gTop-k(no-putback) P=4
        0x80503e2c7241af3e, // gTop-k(no-putback) P=5
        0xeb17084fc8bb367b, // Ok-Topk P=4
        0xa7c0edd234aa5dce, // Ok-Topk P=5
        0xf47f9432c59ecfe2, // SparDL P=4
        0x91407fd138fa9ff4, // SparDL P=5
    ];
    let mut got = Vec::new();
    for alg in Algorithm::ALL {
        for p in [4usize, 5] {
            got.push((format!("{} P={p}", alg.name()), trained_fingerprint(alg, p)));
        }
    }
    check("training run", &got, &WANT);
}

#[test]
fn the_other_sparse_rows_reproduce_their_overlapped_trajectory() {
    const WANT: [u64; 16] = [
        0xf0e7a58e3374bf98, // Top-k P=4 buckets=1
        0xc5e5b553e7d4a291, // Top-k P=4 buckets=2
        0x94cf05b3f90cd57b, // Top-k P=5 buckets=1
        0xeb8d654256737aa6, // Top-k P=5 buckets=2
        0x62b99f3454c0a129, // gTop-k(naive) P=4 buckets=1
        0xd46722e781aaf72e, // gTop-k(naive) P=4 buckets=2
        0x44759e1a8884820c, // gTop-k(naive) P=5 buckets=1
        0xc863d54296848336, // gTop-k(naive) P=5 buckets=2
        0x1a2a07be4980367e, // gTop-k(feedback) P=4 buckets=1
        0xee9b159f69b194c9, // gTop-k(feedback) P=4 buckets=2
        0xcfdbdcfc673526bd, // gTop-k(feedback) P=5 buckets=1
        0x7c19ba3bfea09736, // gTop-k(feedback) P=5 buckets=2
        0x28f2515f146dfea3, // gTop-k(no-putback) P=4 buckets=1
        0xdcc6fb8451addf8b, // gTop-k(no-putback) P=4 buckets=2
        0x5b4098958dcb9477, // gTop-k(no-putback) P=5 buckets=1
        0x83a8ffeb68222b8a, // gTop-k(no-putback) P=5 buckets=2
    ];
    let mut got = Vec::new();
    for alg in [
        Algorithm::TopK,
        Algorithm::NaiveGTopK,
        Algorithm::GTopKFeedback,
        Algorithm::GTopKNoPutback,
    ] {
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

#[test]
fn ps_rows_train_to_their_recorded_report() {
    const WANT: [u64; 7] = [
        0xed87a8e7b53164d8, // PS P=4 S=1
        0x08cdd44cb437dd59, // PS P=4 S=2
        0x0331b9b68e6bc8b4, // PS P=4 S=4
        0xca0c81a2007279f8, // PS P=5 S=1
        0x0de116f722218848, // PS P=5 S=2
        0x38673866379921ca, // PS P=5 S=5
        0x3b3309b71f951358, // PS P=4 S=4 host 1 crashes at step 13
    ];
    let mut got = Vec::new();
    for p in [4usize, 5] {
        for shards in [1, 2, p] {
            let what = format!("PS P={p} S={shards}");
            let cfg = train_cfg(p).with_ps(PsConfig::bulk_sync(shards));
            got.push((what.clone(), run_fingerprint(&cfg, &what)));
        }
    }
    // Shard host 1 dies mid-run: rollback, shrink to three members and
    // remap its shard.
    let what = "PS P=4 S=4 host 1 crashes at step 13".to_string();
    let cfg = train_cfg(4)
        .with_ps(PsConfig::bulk_sync(4))
        .with_fault_plan(FaultPlan::seeded(3).with_crash(1, 13));
    got.push((what.clone(), run_fingerprint(&cfg, &what)));
    check("parameter-server run", &got, &WANT);
}

#[test]
fn momentum_correction_rows_train_to_their_recorded_report() {
    // DGC-style correction folds `u ← μ·u + g` locally and applies the
    // aggregated update with plain SGD, at one bucket and at two.
    const WANT: [u64; 8] = [
        0xe3f51f9c1df189d5, // gTop-k P=4 buckets=1
        0x3905359e0ef172e8, // gTop-k P=4 buckets=2
        0xb373f2d76aa5ad8e, // gTop-k P=5 buckets=1
        0x8a2461115f5a34ab, // gTop-k P=5 buckets=2
        0x493b3a894c4d1a80, // Top-k P=4 buckets=1
        0xea4d5eefa7c3b7a8, // Top-k P=4 buckets=2
        0x75bd2eeb80fe50ff, // Top-k P=5 buckets=1
        0xea7c35db21a0e14c, // Top-k P=5 buckets=2
    ];
    let mut got = Vec::new();
    for alg in [Algorithm::GTopK, Algorithm::TopK] {
        for p in [4usize, 5] {
            for buckets in [1usize, 2] {
                let what = format!("{} P={p} buckets={buckets}", alg.name());
                let mut cfg = train_cfg(p)
                    .with_algorithm(alg)
                    .with_overlap(OverlapConfig::buckets(buckets));
                cfg.momentum_correction = true;
                got.push((what.clone(), run_fingerprint(&cfg, &what)));
            }
        }
    }
    check("momentum-correction run", &got, &WANT);
}
