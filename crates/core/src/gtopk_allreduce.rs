//! gTopKAllReduce — the paper's Algorithm 3 — and its AllGather-based
//! reference, Algorithm 2.
//!
//! The reduction and broadcast phases are plan executions: the schedule
//! is the paper's binomial tree from [`CollectivePlan::reduce`] /
//! [`CollectivePlan::broadcast`], generated over positions, so
//! fault-tolerant callers regenerate it over the survivor set.

use crate::ft::epoch_tag_offset;
use crate::sparse_coll::{sparse_broadcast_over, sparse_sum_recursive_doubling};
use gtopk_comm::{
    execute_plan, CollectivePlan, Communicator, Message, Payload, PlanOps, Result, Topology,
};
use gtopk_sparse::{
    topk_merge_into, topk_merge_split_into, topk_sparse, Mask, MergeScratch, SparseVec,
};

/// Tree-reduction plan tag window (one tag per round, plus the epoch
/// offset).
const TAG_TREE: u32 = Message::COLLECTIVE_TAG_BASE + 256;

/// gTopKAllReduce (paper **Algorithm 3**).
///
/// A binomial-tree reduction under the top-k merge operator `⊤`
/// (Definition 1): `⌈log₂P⌉` rounds in which half the active ranks send
/// their k-sparse vector to a partner that merges and re-truncates to `k`,
/// leaving rank 0 with `G̃ = G̃₁ ⊤ G̃₂ ⊤ … ⊤ G̃_P`; a binomial-tree
/// broadcast then delivers `G̃` and its selection [`Mask`] to every rank.
/// Per-rank cost: `2·log₂P·α + 4k·log₂P·β` (paper Eq. 7).
///
/// Non-power-of-two cluster sizes (which the paper leaves out of scope)
/// are handled by folding the extra ranks into the low ranks with one
/// additional `⊤` before the tree.
///
/// The returned vector holds the *merged sums* of the surviving
/// coordinates — note that, exactly as in the paper's algorithm, a
/// contribution can be truncated at an interior tree node even when its
/// coordinate survives elsewhere, so values lower-bound the exact sparse
/// sum. See [`gtopk_all_reduce_over`] for the loss-free extension.
///
/// # Errors
///
/// Propagates transport errors.
pub fn gtopk_all_reduce(
    comm: &mut Communicator,
    local: SparseVec,
    k: usize,
) -> Result<(SparseVec, Mask)> {
    let members: Vec<usize> = (0..comm.size()).collect();
    let (global, _) = tree_all_reduce(comm, &members, local, k, false)?;
    let mask = Mask::of_sparse(&global);
    Ok((global, mask))
}

/// gTopKAllReduce with per-merge rejection feedback (extension),
/// membership-aware and epoch-stamped. Runs the `⊤`-reduction plan over
/// `members` (a sorted subset of ranks that must include the caller),
/// then the broadcast plan from the reduction's root, in the tag window
/// of the communicator's membership epoch ([`epoch_tag_offset`]).
/// Returns `(global top-k, mask, this rank's merge rejects)`. With the
/// full membership at epoch 0 the communication pattern, cost and global
/// are [`gtopk_all_reduce`]'s.
///
/// The rejects are the entries this rank's `⊤` merges truncated away, so
/// the caller can credit them back into its residual — making the
/// *global* error feedback exact: summed over all ranks,
/// `applied update + residual increments == Σ local contributions`.
/// A shrink-and-continue recovery is literally "regenerate the plan over
/// the survivors".
///
/// # Errors
///
/// Propagates transport errors — including
/// [`CommError::Disconnected`](gtopk_comm::CommError::Disconnected) /
/// [`CommError::Aborted`](gtopk_comm::CommError::Aborted) when a member
/// failed, which the caller should answer with [`crate::ft::recover`].
///
/// # Panics
///
/// Panics if the calling rank is not in `members`.
pub fn gtopk_all_reduce_over(
    comm: &mut Communicator,
    members: &[usize],
    local: SparseVec,
    k: usize,
) -> Result<(SparseVec, Mask, SparseVec)> {
    let (global, rejected) = tree_all_reduce(comm, members, local, k, true)?;
    let mask = Mask::of_sparse(&global);
    Ok((global, mask, rejected.expect("witnessed on request")))
}

/// The one gTopKAllReduce every entry point runs: the `⊤`-reduction plan
/// over `members`, then the broadcast from the reduction's root, both
/// epoch-stamped. Returns the global top-k and — only when `witness` asks
/// for them — the entries this rank's merges truncated, summed over its
/// rounds; without `witness` every merge is the reject-free `⊤`.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics if the calling rank is not in `members`.
pub(crate) fn tree_all_reduce(
    comm: &mut Communicator,
    members: &[usize],
    local: SparseVec,
    k: usize,
    witness: bool,
) -> Result<(SparseVec, Option<SparseVec>)> {
    let (global, rejected) = tree_reduce_over(comm, members, local, k, witness)?;
    let global = sparse_broadcast_over(comm, members, global, members[0])?;
    Ok((global, rejected))
}

/// The plan-driven tree-reduction phase: the reduce plan's root position
/// ends with the pairwise `⊤` combination of every member's
/// contribution; with `witness`, every rank also accumulates the entries
/// its own merges rejected. The tag window is the membership epoch's, so
/// at epoch 0 over the full membership the message schedule is the
/// plain binomial reduction's.
///
/// # Panics
///
/// Panics if the calling rank is not in `members`.
fn tree_reduce_over(
    comm: &mut Communicator,
    members: &[usize],
    local: SparseVec,
    k: usize,
    witness: bool,
) -> Result<(SparseVec, Option<SparseVec>)> {
    let p = members.len();
    let me = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller must be a member of the reduction group");
    let dim = local.dim();
    /// A witnessing rank's merge rejects: this round's, the running sum,
    /// and the sum's double buffer.
    struct Witnessed {
        round: SparseVec,
        total: SparseVec,
        swap: SparseVec,
    }
    // Pooled scratch + double-buffered accumulators serve every `⊤` merge
    // of the plan's rounds; sends *move* the accumulator into the message
    // and receivers retire incoming buffers into their own pool, so the
    // steady-state reduction allocates nothing from the buffer pool.
    struct TreeOps {
        acc: SparseVec,
        scratch: MergeScratch,
        merged: SparseVec,
        witnessed: Option<Witnessed>,
        dim: usize,
        k: usize,
    }
    impl TreeOps {
        fn merge_in(&mut self, other: &SparseVec) {
            let (acc, scratch, merged) = (&self.acc, &mut self.scratch, &mut self.merged);
            match &mut self.witnessed {
                None => topk_merge_into(acc, other, self.k, scratch, merged),
                Some(rej) => {
                    topk_merge_split_into(acc, other, self.k, scratch, merged, &mut rej.round);
                    rej.total.add_into(&rej.round, &mut rej.swap);
                    std::mem::swap(&mut rej.total, &mut rej.swap);
                }
            }
            std::mem::swap(&mut self.acc, &mut self.merged);
        }
    }
    impl PlanOps for TreeOps {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let outgoing = std::mem::replace(&mut self.acc, SparseVec::empty(self.dim));
            comm.send(peer, tag, Payload::sparse(outgoing))
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let other = comm.recv(peer, tag)?.payload.into_sparse();
            self.merge_in(&other);
            comm.pool().put_sparse(other);
            Ok(())
        }
    }
    let witnessed = witness.then(|| Witnessed {
        round: comm.pool().take_sparse(dim),
        total: comm.pool().take_sparse(dim),
        swap: comm.pool().take_sparse(dim),
    });
    let mut ops = TreeOps {
        acc: local,
        scratch: comm.pool().take_scratch(),
        merged: comm.pool().take_sparse(dim),
        witnessed,
        dim,
        k,
    };
    // Truncate our own contribution to k first (callers normally already
    // did via local top-k selection). Merging with an empty vector is the
    // identity, so the merge doubles as a plain truncation.
    if ops.acc.nnz() > k {
        let empty = SparseVec::empty(dim);
        ops.merge_in(&empty);
    }
    let plan = CollectivePlan::reduce(Topology::Binomial, p);
    let tag_base = TAG_TREE + epoch_tag_offset(comm.epoch());
    execute_plan(comm, &plan, me, tag_base, |pos| members[pos], &mut ops)?;
    comm.pool().put_scratch(ops.scratch);
    comm.pool().put_sparse(ops.merged);
    let rejected = ops.witnessed.map(|rej| {
        comm.pool().put_sparse(rej.round);
        comm.pool().put_sparse(rej.swap);
        rej.total
    });
    Ok((ops.acc, rejected))
}

/// Naive gTop-k via exact sparse sum (paper **Algorithm 2**).
///
/// Computes the exact sparse sum of all contributions (`O(kP)`
/// communication, the AllGather-equivalent), then selects the true global
/// top-k. Returns `(global top-k of the sum, selection mask)`; every rank
/// gets an identical result.
///
/// # Errors
///
/// Propagates transport errors.
pub fn naive_gtopk_all_reduce(
    comm: &mut Communicator,
    local: SparseVec,
    k: usize,
) -> Result<(SparseVec, Mask)> {
    let sum = sparse_sum_recursive_doubling(comm, local)?;
    let dense = sum.to_dense();
    let global = topk_sparse(&dense, k.min(sum.nnz()));
    let mask = Mask::of_sparse(&global);
    Ok((global, mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};
    use gtopk_sparse::topk_sparse;
    use proptest::prelude::*;

    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 8, 16];

    /// Deterministic pseudo-gradient for worker `r`.
    fn worker_grad(r: usize, dim: usize, seed: u64) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = (i as u64 + 1)
                    .wrapping_mul(r as u64 + seed + 1)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn all_ranks_get_identical_result() {
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let g = worker_grad(comm.rank(), 64, 7);
                let local = topk_sparse(&g, 4);
                gtopk_all_reduce(comm, local, 4).unwrap()
            });
            let (first, first_mask) = &out[0];
            for (v, m) in &out {
                assert_eq!(v, first, "P={p}");
                assert_eq!(m, first_mask);
            }
            assert!(first.nnz() <= 4);
        }
    }

    #[test]
    fn single_rank_is_identity_topk() {
        let out = Cluster::new(1, CostModel::zero()).run(|comm| {
            let local = SparseVec::from_pairs(8, vec![(1, 3.0), (2, -5.0), (5, 1.0)]);
            gtopk_all_reduce(comm, local, 2).unwrap()
        });
        assert_eq!(out[0].0.indices(), &[1, 2]);
    }

    #[test]
    fn shared_heavy_coordinate_accumulates_exactly() {
        // When all workers select the same coordinates, no truncation can
        // occur and values must equal the exact sum.
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let local = SparseVec::from_pairs(32, vec![(3, 2.0), (9, -1.0)]);
                gtopk_all_reduce(comm, local, 2).unwrap()
            });
            for (v, _) in out {
                assert_eq!(v.indices(), &[3, 9], "P={p}");
                assert!((v.get(3) - 2.0 * p as f32).abs() < 1e-4);
                assert!((v.get(9) + p as f32).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn two_worker_tree_equals_naive() {
        // For P=2 the tree is a single ⊤, identical to the exact global
        // top-k of the sum.
        let out = Cluster::new(2, CostModel::zero()).run(|comm| {
            let g = worker_grad(comm.rank(), 48, 3);
            let local = topk_sparse(&g, 5);
            let tree = gtopk_all_reduce(comm, local.clone(), 5).unwrap();
            let naive = naive_gtopk_all_reduce(comm, local, 5).unwrap();
            (tree, naive)
        });
        for ((tv, tm), (nv, nm)) in out {
            assert_eq!(tv, nv);
            assert_eq!(tm, nm);
        }
    }

    #[test]
    fn naive_matches_dense_reference() {
        for &p in SIZES {
            let dim = 40;
            let k = 6;
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let g = worker_grad(comm.rank(), dim, 11);
                let local = topk_sparse(&g, k);
                naive_gtopk_all_reduce(comm, local, k).unwrap()
            });
            // Dense reference: sum the locally-sparsified gradients.
            let mut sum = vec![0.0f32; dim];
            for r in 0..p {
                let g = worker_grad(r, dim, 11);
                for (i, v) in topk_sparse(&g, k).iter() {
                    sum[i as usize] += v;
                }
            }
            let reference = topk_sparse(&sum, k);
            for (v, _) in out {
                assert_eq!(v.indices(), reference.indices(), "P={p}");
            }
        }
    }

    #[test]
    fn feedback_variant_conserves_mass_globally() {
        for &p in SIZES {
            let dim = 64;
            let k = 3;
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let g = worker_grad(comm.rank(), dim, 5);
                let local = topk_sparse(&g, k);
                let members: Vec<usize> = (0..comm.size()).collect();
                let (global, _mask, rejected) =
                    gtopk_all_reduce_over(comm, &members, local.clone(), k).unwrap();
                (local, global, rejected)
            });
            // Σ locals == global + Σ rejects (the applied update plus what
            // went back into residuals), coordinate-wise.
            let mut total = vec![0.0f64; dim];
            let mut recovered = vec![0.0f64; dim];
            for (r, (local, global, rejected)) in out.iter().enumerate() {
                for (i, v) in local.iter() {
                    total[i as usize] += v as f64;
                }
                for (i, v) in rejected.iter() {
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
                    (total[i] - recovered[i]).abs() < 1e-4,
                    "P={p} coord {i}: {} vs {}",
                    total[i],
                    recovered[i]
                );
            }
        }
    }

    #[test]
    fn tree_communication_volume_is_klogp() {
        // Rank 0 must receive exactly 2k elements per tree round and send
        // 2k per broadcast round: O(k log P), not O(kP).
        let p = 16usize;
        let k = 8usize;
        let dim = 4096;
        let stats = Cluster::new(p, CostModel::zero()).run(|comm| {
            let g = worker_grad(comm.rank(), dim, 9);
            let local = topk_sparse(&g, k);
            gtopk_all_reduce(comm, local, k).unwrap();
            comm.stats()
        });
        let lg = 4; // log2(16)
                    // Rank 0: receives lg tree messages (≤2k each), sends 1 broadcast
                    // child message per bcast round... binomial bcast root sends lg
                    // messages of 2k.
        assert!(stats[0].elems_received <= 2 * k * lg);
        assert!(stats[0].elems_sent <= 2 * k * lg);
        // Total volume across ranks is O(k P) for broadcast, but per-rank
        // critical path stays O(k log P).
        for s in &stats {
            assert!(s.elems_sent <= 2 * k * lg, "{s:?}");
        }
    }

    #[test]
    fn sim_time_matches_eq7_shape() {
        // Simulated time for the tree+broadcast must grow ~log P, not ~P.
        let k = 1000usize;
        let dim = 100_000;
        let cost = CostModel::gigabit_ethernet();
        let time_for = |p: usize| {
            let times = Cluster::new(p, cost).run(|comm| {
                let g = worker_grad(comm.rank(), dim, 2);
                let local = topk_sparse(&g, k);
                gtopk_all_reduce(comm, local, k).unwrap();
                comm.now_ms()
            });
            times.into_iter().fold(0.0f64, f64::max)
        };
        let t4 = time_for(4);
        let t16 = time_for(16);
        // Eq. 7 ratio: log2(16)/log2(4) = 2. Allow slack for partial fills.
        assert!(t16 / t4 < 2.5, "t4={t4} t16={t16}");
        assert!(t16 > t4, "more rounds must cost more");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Invariants for arbitrary inputs and any cluster size:
        /// result is consistent, ≤ k entries, and its coordinates'
        /// magnitudes are ≥ those of any coordinate every rank rejected.
        #[test]
        fn prop_gtopk_invariants(p in 1usize..9, k in 1usize..6, seed in 0u64..30) {
            let dim = 32;
            let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
                let g = worker_grad(comm.rank(), dim, seed);
                let local = topk_sparse(&g, k);
                gtopk_all_reduce(comm, local, k).unwrap()
            });
            let (first, _) = &out[0];
            prop_assert!(first.nnz() <= k);
            for (v, m) in &out {
                prop_assert_eq!(v, first);
                prop_assert_eq!(m.len(), first.nnz());
            }
        }
    }
}
