//! Property-based tests over the core aggregation algorithms.

use gtopk::{
    gtopk_all_reduce, naive_gtopk_all_reduce, ps_pull_round, ps_push_round, Aggregator, Algorithm,
    Selector,
};
use gtopk_comm::{Cluster, Communicator, CostModel, ShardMap, Topology};
use gtopk_sparse::{topk_sparse, Residual};
use proptest::prelude::*;

fn step_for(alg: Algorithm, comm: &Communicator) -> Aggregator {
    Aggregator::new(alg, Selector::Exact, Topology::Binomial, comm.rank())
}

fn grad(rank: usize, dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 7)
                .wrapping_mul(rank as u64 * 3 + seed + 11)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The single-shard PS (the old star's semantics) and the exact-sum
    /// reference select identical coordinate sets for any P, k and
    /// input. The pull reconstruction drops exact zeros, so supports
    /// are compared over nonzero entries.
    #[test]
    fn prop_ps_matches_naive(p in 1usize..9, k in 1usize..8, seed in 0u64..40) {
        let dim = 48usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let members: Vec<usize> = (0..p).collect();
            let local = topk_sparse(&grad(comm.rank(), dim, seed), k);
            let map = ShardMap::new(dim, 1);
            let own = ps_push_round(comm, &members, &map, &[k], vec![local.clone()]).unwrap();
            let ps = ps_pull_round(comm, &members, &map, &own).unwrap();
            let naive = naive_gtopk_all_reduce(comm, local, k).unwrap();
            (ps, naive)
        });
        for (ps, (nv, _nm)) in out {
            let pidx: Vec<u32> =
                ps.iter().filter(|&(_, v)| v != 0.0).map(|(i, _)| i).collect();
            let nidx: Vec<u32> =
                nv.iter().filter(|&(_, v)| v != 0.0).map(|(i, _)| i).collect();
            prop_assert_eq!(pidx, nidx);
        }
    }

    /// The Top-k aggregator never loses gradient mass: residual plus
    /// P×(averaged update) reconstructs the contributed gradients.
    #[test]
    fn prop_topk_aggregator_conserves(p in 1usize..8, k in 1usize..6, seed in 0u64..30) {
        let dim = 32usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = step_for(Algorithm::TopK, comm);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let g = grad(comm.rank(), dim, seed);
            let update = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
            (g, update, residual.dense().to_vec())
        });
        let mut contributed = vec![0.0f64; dim];
        let mut recovered = vec![0.0f64; dim];
        for (r, (g, update, res)) in out.iter().enumerate() {
            for (c, &v) in contributed.iter_mut().zip(g.iter()) {
                *c += v as f64;
            }
            for (rec, &v) in recovered.iter_mut().zip(res.iter()) {
                *rec += v as f64;
            }
            if r == 0 {
                if let gtopk::Update::Sparse(sv) = update {
                    for (i, v) in sv.iter() {
                        recovered[i as usize] += v as f64 * p as f64;
                    }
                }
            }
        }
        for i in 0..dim {
            prop_assert!((contributed[i] - recovered[i]).abs() < 1e-3,
                         "coord {i}: {} vs {}", contributed[i], recovered[i]);
        }
    }

    /// gTop-k's returned mask always matches the returned vector's
    /// support, for any cluster size including non-powers-of-two.
    #[test]
    fn prop_gtopk_mask_matches_support(p in 1usize..10, k in 1usize..8, seed in 0u64..30) {
        let dim = 64usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let local = topk_sparse(&grad(comm.rank(), dim, seed), k);
            gtopk_all_reduce(comm, local, k).unwrap()
        });
        for (v, m) in out {
            prop_assert_eq!(v.indices(), m.indices());
        }
    }

    /// Aggregating twice with fresh gradients keeps replicas identical:
    /// every rank computes the same sequence of updates.
    #[test]
    fn prop_repeated_aggregation_stays_consistent(p in 2usize..7, seed in 0u64..20) {
        let dim = 40usize;
        let k = 3usize;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut agg = step_for(Algorithm::GTopK, comm);
            let members: Vec<usize> = (0..comm.size()).collect();
            let mut residual = Residual::new(dim);
            let mut updates = Vec::new();
            for step in 0..4u64 {
                let g = grad(comm.rank(), dim, seed + step);
                let u = agg.aggregate(comm, &members, &mut residual, &g, k).unwrap();
                updates.push(u);
            }
            updates
        });
        for rank in 1..p {
            prop_assert_eq!(&out[rank], &out[0], "rank {} diverged", rank);
        }
    }
}
