//! Cross-crate invariant tests relating the gTop-k variants to each
//! other and to dense references, over the real threaded substrate.

use gtopk::{gtopk_all_reduce, gtopk_all_reduce_over, naive_gtopk_all_reduce};
use gtopk_comm::{Cluster, CostModel};
use gtopk_sparse::{topk_merge_many, topk_sparse, SparseVec};

fn grad(rank: usize, dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 1)
                .wrapping_mul(rank as u64 * 2 + seed + 3)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

#[test]
fn tree_matches_pairwise_fold_for_p2() {
    // For P = 2 the tree is exactly one ⊤ application.
    let (dim, k) = (64usize, 5usize);
    let locals: Vec<SparseVec> = (0..2).map(|r| topk_sparse(&grad(r, dim, 1), k)).collect();
    let expected = topk_merge_many(&locals, k);
    let out = Cluster::new(2, CostModel::zero()).run(|comm| {
        let local = topk_sparse(&grad(comm.rank(), dim, 1), k);
        gtopk_all_reduce(comm, local, k).unwrap().0
    });
    for v in out {
        assert_eq!(v, expected);
    }
}

#[test]
fn all_variants_select_same_coordinates_when_supports_agree() {
    // When every worker proposes the same coordinate set, there is no
    // truncation ambiguity: tree, naive and feedback must agree exactly.
    for p in [2usize, 4, 8] {
        let dim = 32;
        let k = 4;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let scale = 1.0 + comm.rank() as f32;
            let local = SparseVec::from_pairs(
                dim,
                vec![
                    (1, scale),
                    (7, -2.0 * scale),
                    (20, 0.5 * scale),
                    (31, 3.0 * scale),
                ],
            );
            let tree = gtopk_all_reduce(comm, local.clone(), k).unwrap().0;
            let naive = naive_gtopk_all_reduce(comm, local.clone(), k).unwrap().0;
            let all: Vec<usize> = (0..comm.size()).collect();
            let (fb, _, _) = gtopk_all_reduce_over(comm, &all, local, k).unwrap();
            (tree, naive, fb)
        });
        for (tree, naive, fb) in out {
            assert_eq!(tree.indices(), naive.indices(), "P={p}");
            assert_eq!(tree, fb, "P={p}");
            for (a, b) in tree.values().iter().zip(naive.values()) {
                assert!((a - b).abs() < 1e-4, "P={p}");
            }
        }
    }
}

#[test]
fn tree_result_is_subset_of_union_of_contributions() {
    // Every surviving coordinate must have been proposed by some worker.
    for p in [3usize, 4, 7, 8] {
        let (dim, k) = (128usize, 6usize);
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let local = topk_sparse(&grad(comm.rank(), dim, 2), k);
            let (global, _) = gtopk_all_reduce(comm, local.clone(), k).unwrap();
            (local, global)
        });
        let mut proposed: Vec<u32> = out.iter().flat_map(|(l, _)| l.indices().to_vec()).collect();
        proposed.sort_unstable();
        proposed.dedup();
        let (_, global) = &out[0];
        for &i in global.indices() {
            assert!(
                proposed.binary_search(&i).is_ok(),
                "P={p}: coord {i} never proposed"
            );
        }
    }
}

#[test]
fn tree_values_never_exceed_exact_sum_magnitude() {
    // Interior truncation can only *lose* contributions, so |tree value|
    // <= |exact sum| + lost opposite-sign mass. With same-sign
    // construction below, the bound is strict: |tree| <= |exact|.
    for p in [4usize, 8] {
        let (dim, k) = (96usize, 4usize);
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            // All-positive gradients: no cancellation.
            let g: Vec<f32> = grad(comm.rank(), dim, 3).iter().map(|v| v.abs()).collect();
            let local = topk_sparse(&g, k);
            let (global, _) = gtopk_all_reduce(comm, local.clone(), k).unwrap();
            (local, global)
        });
        let mut exact = vec![0.0f64; dim];
        for (local, _) in &out {
            for (i, v) in local.iter() {
                exact[i as usize] += v as f64;
            }
        }
        let (_, global) = &out[0];
        for (i, v) in global.iter() {
            assert!(
                (v as f64) <= exact[i as usize] + 1e-5,
                "P={p}: coord {i} tree {v} > exact {}",
                exact[i as usize]
            );
        }
    }
}

#[test]
fn feedback_rejects_account_for_all_truncated_mass() {
    // Global conservation: Σ contributions = final global + Σ per-rank
    // rejects, coordinate-wise (the extension's defining property).
    for p in [2usize, 4, 5, 8, 16] {
        let (dim, k) = (64usize, 3usize);
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let local = topk_sparse(&grad(comm.rank(), dim, 4), k);
            let all: Vec<usize> = (0..comm.size()).collect();
            let (global, _, rejects) = gtopk_all_reduce_over(comm, &all, local.clone(), k).unwrap();
            (local, global, rejects)
        });
        let mut contributed = vec![0.0f64; dim];
        let mut recovered = vec![0.0f64; dim];
        for (r, (local, global, rejects)) in out.iter().enumerate() {
            for (i, v) in local.iter() {
                contributed[i as usize] += v as f64;
            }
            for (i, v) in rejects.iter() {
                recovered[i as usize] += v as f64;
            }
            if r == 0 {
                for (i, v) in global.iter() {
                    recovered[i as usize] += v as f64;
                }
            }
        }
        for i in 0..dim {
            assert!(
                (contributed[i] - recovered[i]).abs() < 1e-4,
                "P={p} coord {i}: {} vs {}",
                contributed[i],
                recovered[i]
            );
        }
    }
}

#[test]
fn plain_gtopk_can_lose_mass_but_feedback_cannot() {
    // Construct the paper's silent-loss corner: two workers propose the
    // same coordinate in different subtrees with k=1 and a dominating
    // third coordinate. The plain algorithm drops one contribution;
    // the feedback variant records it as a reject.
    let p = 4usize;
    let dim = 8usize;
    let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let local = match comm.rank() {
            0 => SparseVec::from_pairs(dim, vec![(1, 1.0)]),
            1 => SparseVec::from_pairs(dim, vec![(2, 1.1)]),
            2 => SparseVec::from_pairs(dim, vec![(1, 5.0)]),
            _ => SparseVec::from_pairs(dim, vec![(3, 0.2)]),
        };
        let (g1, _) = gtopk_all_reduce(comm, local.clone(), 1).unwrap();
        let all: Vec<usize> = (0..comm.size()).collect();
        let (_, _, rejects) = gtopk_all_reduce_over(comm, &all, local, 1).unwrap();
        (g1, rejects)
    });
    // Plain: coordinate 1 wins with 5.0 (rank 2's subtree) or 6.0 if the
    // merge saw both — here rank 0's 1.0 is truncated at the first round
    // against rank 1's 1.1, so the final value under-counts.
    let (global, _) = &out[0];
    assert_eq!(global.indices(), &[1]);
    assert!((global.get(1) - 5.0).abs() < 1e-6, "got {}", global.get(1));
    // Feedback: the lost 1.0 (and the other truncations) are recoverable.
    let total_rejects: f32 = out.iter().flat_map(|(_, r)| r.values().to_vec()).sum();
    let expected_rejects = 1.0 + 1.1 + 0.2; // every non-winning value
    assert!(
        (total_rejects - expected_rejects).abs() < 1e-5,
        "rejects {total_rejects}"
    );
}
