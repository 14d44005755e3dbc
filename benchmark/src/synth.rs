//! Benchmark-owned inputs for the paper-scale step workloads: a flat
//! parameter vector whose "gradients" are pre-generated heavy-tailed
//! noise, so a step costs exactly what the product's sparsification,
//! collective and optimizer code cost on `m` parameters — no forward or
//! backward compute to hide it.

use gtopk_data::Dataset;
use gtopk_nn::Model;
use gtopk_tensor::{Shape, Tensor};
use std::sync::Arc;

/// Logit count of the constant `forward` output.
const CLASSES: usize = 2;

/// Scale of the Pareto magnitudes (keeps parameter values well inside
/// f32 range over any run length the benchmark uses).
const GRAD_SCALE: f32 = 1e-3;

fn mix(mut z: u64) -> u64 {
    // splitmix64 finalizer.
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The two pre-generated gradient buffers (one per step parity) every
/// rank of a synthetic workload reads from.
///
/// Rank `r` reads buffer `parity` rotated by `r·m/P`. Half of the residue
/// classes `i mod m/P` carry a magnitude that depends on the class only,
/// so it lands on the same coordinate of every rank's gradient; the rest
/// are independent per coordinate. Local top-k supports therefore overlap
/// by roughly a half at any density — what the `⊤` merge needs to do real
/// work — while set-up generates `2m` values instead of `2mP`.
#[derive(Debug)]
pub struct GradientBank {
    m: usize,
    ranks: usize,
    bases: [Vec<f32>; 2],
}

impl GradientBank {
    /// Generates both buffers; a pure function of its arguments.
    ///
    /// # Panics
    ///
    /// Panics unless `ranks` divides `m`.
    pub fn generate(seed: u64, m: usize, ranks: usize) -> Arc<Self> {
        assert!(ranks > 0 && m.is_multiple_of(ranks), "ranks must divide m");
        let stride = (m / ranks) as u64;
        let base = |parity: u64| -> Vec<f32> {
            let salt = mix(seed ^ (parity + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (0..m as u64)
                .map(|i| {
                    let class = mix(salt ^ (i % stride).wrapping_mul(0xd6e8_feb8_6659_fd93));
                    let own = mix(salt.rotate_left(17) ^ i.wrapping_mul(0xa076_1d64_78bd_642f));
                    let bits = if class & 1 == 0 { class } else { own };
                    // 24 uniform bits in (0, 1], Pareto(α = 2) magnitude.
                    let u = ((bits >> 40) as f32 + 1.0) * (1.0 / 16_777_216.0);
                    let mag = GRAD_SCALE * (1.0 / u.sqrt() - 1.0);
                    if own >> 63 == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect()
        };
        Arc::new(GradientBank {
            m,
            ranks,
            bases: [base(0), base(1)],
        })
    }

    /// Rank `rank`'s gradient for steps of the given parity.
    pub fn gradient(&self, rank: usize, parity: usize) -> Vec<f32> {
        let base = &self.bases[parity % 2];
        let off = rank % self.ranks * (self.m / self.ranks);
        let mut g = Vec::with_capacity(self.m);
        g.extend_from_slice(&base[off..]);
        g.extend_from_slice(&base[..off]);
        g
    }
}

/// One data item per (rank, step): the only thing it carries is its own
/// index, from which [`SyntheticModel`] learns which rank's shard — and
/// so which rotation of the gradient bank — it is training on.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticData {
    ranks: usize,
    steps: usize,
}

impl SyntheticData {
    /// A dataset giving each of `ranks` contiguous shards `steps` items
    /// (batch size 1, one epoch).
    pub fn new(ranks: usize, steps: usize) -> Self {
        assert!(ranks * steps < 1 << 24, "item index must be exact in f32");
        SyntheticData { ranks, steps }
    }
}

impl Dataset for SyntheticData {
    fn len(&self) -> usize {
        self.ranks * self.steps
    }
    fn input_dims(&self) -> Vec<usize> {
        vec![1]
    }
    fn targets_per_item(&self) -> usize {
        1
    }
    fn num_classes(&self) -> usize {
        CLASSES
    }
    fn item(&self, i: usize) -> (Vec<f32>, Vec<usize>) {
        (vec![i as f32], vec![0])
    }
}

/// A [`Model`] over a flat parameter vector: constant logits, no-op
/// backward, gradients from the [`GradientBank`].
#[derive(Debug)]
pub struct SyntheticModel {
    params: Vec<f32>,
    bank: Arc<GradientBank>,
    shard_len: usize,
    rank: Option<usize>,
    forwards: usize,
}

impl SyntheticModel {
    /// A zero-initialised model of `bank`'s size, to be trained on
    /// `data`.
    pub fn new(bank: Arc<GradientBank>, data: &SyntheticData) -> Self {
        SyntheticModel {
            params: vec![0.0; bank.m],
            bank,
            shard_len: data.steps,
            rank: None,
            forwards: 0,
        }
    }
}

impl Model for SyntheticModel {
    fn num_params(&self) -> usize {
        self.params.len()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let rank = input.data()[0] as usize / self.shard_len;
        assert_eq!(
            *self.rank.get_or_insert(rank),
            rank,
            "shard changed mid-run"
        );
        self.forwards += 1;
        Tensor::zeros(Shape::d2(input.shape().dim(0), CLASSES))
    }

    fn backward(&mut self, _grad_logits: &Tensor) {}

    fn zero_grads(&mut self) {}

    fn flat_grads(&self) -> Vec<f32> {
        let rank = self.rank.expect("flat_grads follows a forward pass");
        self.bank.gradient(rank, (self.forwards - 1) % 2)
    }

    fn flat_params(&self) -> Vec<f32> {
        self.params.clone()
    }

    fn set_flat_params(&mut self, values: &[f32]) {
        self.params.copy_from_slice(values);
    }

    fn add_to_flat_params(&mut self, delta: &[f32]) {
        assert_eq!(delta.len(), self.params.len(), "delta length mismatch");
        for (p, d) in self.params.iter_mut().zip(delta) {
            *p += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_sparse::topk_sparse;

    const M: usize = 1 << 16;

    #[test]
    fn gradients_are_a_pure_function_of_seed_rank_and_parity() {
        let a = GradientBank::generate(7, M, 4);
        let b = GradientBank::generate(7, M, 4);
        let other_seed = GradientBank::generate(8, M, 4);
        for rank in 0..4 {
            for parity in 0..2 {
                let g = a.gradient(rank, parity);
                assert_eq!(g, b.gradient(rank, parity));
                assert_eq!(g, a.gradient(rank, parity + 2));
                assert_ne!(g, other_seed.gradient(rank, parity));
                assert_ne!(g, a.gradient(rank, parity + 1));
                assert_ne!(g, a.gradient((rank + 1) % 4, parity));
                assert!(g.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn topk_supports_overlap_partly_across_ranks() {
        let bank = GradientBank::generate(42, M, 4);
        for k in [M / 1000, M / 4] {
            let s0 = topk_sparse(&bank.gradient(0, 0), k);
            for rank in 1..4 {
                let s = topk_sparse(&bank.gradient(rank, 0), k);
                let shared = s.indices().iter().filter(|&&i| s0.contains(i)).count();
                let share = shared as f64 / k as f64;
                assert!(
                    (0.2..0.8).contains(&share),
                    "k={k} rank {rank}: overlap {share}"
                );
            }
        }
    }

    #[test]
    fn model_reads_its_rank_from_the_data_shard() {
        let data = SyntheticData::new(4, 5);
        let bank = GradientBank::generate(1, 64, 4);
        let mut model = SyntheticModel::new(bank.clone(), &data);
        let (x, _) = data.batch(&[12]); // shard 2 holds items 10..15
        model.forward(&x, true);
        assert_eq!(model.flat_grads(), bank.gradient(2, 0));
        model.forward(&x, true);
        assert_eq!(model.flat_grads(), bank.gradient(2, 1));
    }
}
