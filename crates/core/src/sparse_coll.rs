//! Sparse collectives built on the simulated MPI substrate.
//!
//! The dense ring AllReduce in `gtopk_comm` cannot carry irregularly-indexed
//! sparse gradients (the exact difficulty the paper describes in §II-E),
//! so the sparse variants live here, next to the algorithms that need
//! them. Like the dense ring they are *plan executions*: the round
//! schedule comes from [`CollectivePlan`] generators and runs through
//! [`execute_plan`], and fault-tolerant callers rebuild the schedule
//! over survivors by re-generating the plan with a different
//! position→rank mapping. The collectives that take a member set run in
//! their membership epoch's tag window ([`epoch_tag_offset`]).

use crate::ft::epoch_tag_offset;
use gtopk_comm::collectives::largest_power_of_two_leq;
use gtopk_comm::{
    execute_plan, CollectivePlan, Communicator, Message, Payload, PlanOps, Result, Topology,
};
use gtopk_perfmodel::ZooSchedule;
use gtopk_sparse::{topk_merge_split_into, MergeScratch, SparseVec};
use std::sync::Arc;

// Plan tag windows (one tag per round). The member-set collectives add
// the epoch offset (a multiple of `EPOCH_TAG_STRIDE` = 4096), so each
// window must fit between its base and the next within a 4096-wide epoch.
const TAG_SBCAST: u32 = Message::COLLECTIVE_TAG_BASE + 1536;
const TAG_SSUM: u32 = Message::COLLECTIVE_TAG_BASE + 1792;
const TAG_ZOO_SPLIT: u32 = Message::COLLECTIVE_TAG_BASE + 2048;
const TAG_ZOO_GATHER: u32 = Message::COLLECTIVE_TAG_BASE + 2304;

/// Binomial-tree broadcast of a sparse vector from `root` over
/// `members` (a sorted subset of ranks that must include the caller and
/// `root`), addressing members by position, in the membership epoch's tag
/// window. Non-root ranks pass any placeholder (e.g.
/// `SparseVec::empty(dim)`); the root's vector is returned on every
/// member. This is the second phase of gTopKAllReduce (Algorithm 3, line
/// 19), costing `⌈log₂P⌉·(α + 2kβ)` — the paper's `log(P)α + 2k·log(P)β`
/// term.
///
/// # Errors
///
/// Propagates transport errors; rejects a root outside `members`.
///
/// # Panics
///
/// Panics if the calling rank is not in `members`.
pub(crate) fn sparse_broadcast_over(
    comm: &mut Communicator,
    members: &[usize],
    local: SparseVec,
    root: usize,
) -> Result<SparseVec> {
    let p = members.len();
    let me = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller must be a member of the broadcast group");
    let Some(root_pos) = members.iter().position(|&r| r == root) else {
        return Err(gtopk_comm::CommError::InvalidRank {
            rank: root,
            size: comm.size(),
        });
    };
    if p == 1 {
        return Ok(local);
    }
    // One Arc-shared buffer travels the whole tree: relays forward the
    // reference they received and fan-out sends bump a reference count.
    struct BcastOps {
        shared: Arc<SparseVec>,
    }
    impl PlanOps for BcastOps {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            comm.send(peer, tag, Payload::sparse_shared(self.shared.clone()))
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            self.shared = comm.recv(peer, tag)?.payload.into_sparse_arc();
            Ok(())
        }
    }
    let plan = CollectivePlan::broadcast(Topology::Binomial, p, root_pos);
    let mut ops = BcastOps {
        shared: Arc::new(local),
    };
    execute_plan(
        comm,
        &plan,
        me,
        TAG_SBCAST + epoch_tag_offset(comm.epoch()),
        |pos| members[pos],
        &mut ops,
    )?;
    Ok(reclaim(comm, ops.shared))
}

/// Takes back a vector shared with outgoing messages: free when the
/// reference is unique by now, otherwise copied into a pooled buffer (no
/// fresh allocation at steady state).
fn reclaim(comm: &mut Communicator, shared: Arc<SparseVec>) -> SparseVec {
    Arc::try_unwrap(shared).unwrap_or_else(|shared| {
        let mut owned = comm.pool().take_sparse(shared.dim());
        owned.copy_from(&shared);
        owned
    })
}

/// Sends the accumulator `acc` to `peer` without cloning it: it is
/// Arc-shared with the payload `wrap` builds, then [`reclaim`]ed.
fn send_shared(
    comm: &mut Communicator,
    peer: usize,
    tag: u32,
    acc: &mut SparseVec,
    wrap: impl FnOnce(Arc<SparseVec>) -> Payload,
) -> Result<()> {
    let dim = acc.dim();
    let shared = Arc::new(std::mem::replace(acc, SparseVec::empty(dim)));
    comm.send(peer, tag, wrap(shared.clone()))?;
    *acc = reclaim(comm, shared);
    Ok(())
}

/// Swaps the accumulator `acc` with `peer` and merge-adds the partner's
/// vector into it. The outgoing side is Arc-shared with the payload
/// `wrap` builds instead of cloned, and the merge reads it through the
/// Arc; every buffer left over goes back to the pool.
fn swap_add(
    comm: &mut Communicator,
    peer: usize,
    tag: u32,
    acc: &mut SparseVec,
    wrap: impl FnOnce(Arc<SparseVec>) -> Payload,
) -> Result<()> {
    let dim = acc.dim();
    let shared = Arc::new(std::mem::replace(acc, SparseVec::empty(dim)));
    let other = comm
        .sendrecv(peer, tag, wrap(shared.clone()))?
        .payload
        .into_sparse();
    let mut next = comm.pool().take_sparse(dim);
    shared.add_into(&other, &mut next);
    *acc = next;
    comm.pool().put_sparse(other);
    if let Ok(v) = Arc::try_unwrap(shared) {
        comm.pool().put_sparse(v);
    }
    Ok(())
}

/// Exact sparse sum across all ranks by recursive doubling.
///
/// Every rank contributes a sparse vector and receives the exact (merge-
/// added, untruncated) sum. With each worker contributing `k` non-zeros,
/// round `j` exchanges partial sums of up to `2ʲ·k` non-zeros, so the
/// total per-rank traffic is `2k(P−1)` elements over `log₂P` rounds —
/// exactly the paper's Eq. 6 cost for the AllGather-based TopKAllReduce
/// (which this operation replaces semantically: Algorithm 1 only ever
/// uses the gathered vectors to compute their sum).
///
/// Non-power-of-two sizes fold extra ranks in and out.
///
/// # Errors
///
/// Propagates transport errors.
pub fn sparse_sum_recursive_doubling(
    comm: &mut Communicator,
    local: SparseVec,
) -> Result<SparseVec> {
    let p = comm.size();
    if p == 1 {
        return Ok(local);
    }
    let rank = comm.rank();
    let dim = local.dim();
    // Folded ranks (>= p2) send their whole contribution in the fold-in
    // round and adopt the finished sum in the fold-out round; everyone
    // else accumulates on receive and Arc-shares the accumulator with
    // every outgoing message (no clone on the hot path).
    struct SumOps {
        acc: SparseVec,
        dim: usize,
        folded: bool,
    }
    impl PlanOps for SumOps {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            if self.folded {
                let outgoing = std::mem::replace(&mut self.acc, SparseVec::empty(self.dim));
                comm.send(peer, tag, Payload::sparse(outgoing))
            } else {
                send_shared(comm, peer, tag, &mut self.acc, Payload::sparse_shared)
            }
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let other = comm.recv(peer, tag)?.payload.into_sparse();
            if self.folded {
                self.acc = other;
            } else {
                let mut next = comm.pool().take_sparse(self.dim);
                self.acc.add_into(&other, &mut next);
                comm.pool()
                    .put_sparse(std::mem::replace(&mut self.acc, next));
                comm.pool().put_sparse(other);
            }
            Ok(())
        }
        fn on_swap(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            swap_add(comm, peer, tag, &mut self.acc, Payload::sparse_shared)
        }
    }
    let plan = CollectivePlan::exchange(p);
    let mut ops = SumOps {
        acc: local,
        dim,
        folded: rank >= largest_power_of_two_leq(p),
    };
    execute_plan(comm, &plan, rank, TAG_SSUM, |pos| pos, &mut ops)?;
    Ok(ops.acc)
}

/// First coordinate of region `j` when the `dim` coordinates are
/// balanced over `p2` contiguous regions (the "boundary re-balancing":
/// regions differ by at most one coordinate even when `p2 ∤ dim`).
fn region_start(dim: usize, p2: usize, j: usize) -> u32 {
    (dim * j / p2) as u32
}

/// Split-and-aggregate / gather state shared by both zoo collectives.
///
/// The round schedule and every per-round wire budget come from the
/// [`ZooSchedule`] — the same object the analytic twin charges on a
/// `PlanClock` — and every message is budget-padded
/// ([`Payload::sparse_padded`]), so the executed α-β time is independent
/// of the gradient values and matches the clock replay exactly.
///
/// Residual discipline is witness-based: whenever a budget forces this
/// rank to drop entries (fold-in overflow, a capped swap half, SparDL's
/// cascade truncation, the final per-region selection), the dropped sum
/// goes into this rank's `rejects`, to be returned to its own residual
/// by the caller. Contributions are never silently lost:
/// `Σ contributions == global result + Σ witnessed rejects` exactly.
struct ZooOps<'a> {
    sched: &'a ZooSchedule,
    dim: usize,
    p2: usize,
    my_pos: usize,
    /// Base tag of the phase currently executing (split, then gather) —
    /// `tag - tag_base` recovers the round index inside the plan.
    tag_base: u32,
    gather: bool,
    /// 1 when `p` is not a power of two (the split plan leads with a
    /// fold-in round), else 0.
    fold_rounds: usize,
    acc: SparseVec,
    rejects: SparseVec,
    lo: SparseVec,
    hi: SparseVec,
    tmp: SparseVec,
    rej_tmp: SparseVec,
    empty: SparseVec,
    merge: MergeScratch,
}

impl ZooOps<'_> {
    /// Folds the dropped entries sitting in `self.tmp` into this rank's
    /// witnessed rejects, leaving `self.tmp` empty again.
    fn witness_tmp(&mut self) {
        if self.tmp.is_empty() {
            return;
        }
        self.rejects.add_into(&self.tmp, &mut self.rej_tmp);
        std::mem::swap(&mut self.rejects, &mut self.rej_tmp);
        self.tmp.clear();
    }

    /// Truncates the accumulator to its `cap` largest-magnitude entries,
    /// witnessing the overflow.
    fn cap_acc(&mut self, cap: usize) {
        if self.acc.nnz() <= cap {
            return;
        }
        topk_merge_split_into(
            &self.acc,
            &self.empty,
            cap,
            &mut self.merge,
            &mut self.lo,
            &mut self.tmp,
        );
        std::mem::swap(&mut self.acc, &mut self.lo);
        self.witness_tmp();
    }
}

impl PlanOps for ZooOps<'_> {
    // `Send` exchanges only occur in the fold rounds: fold-in (split
    // phase, folded position ships its capped contribution) and fold-out
    // (gather phase, the assembled result ships to the folded position).
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let r = (tag - self.tag_base) as usize;
        if self.gather {
            let cap = self.sched.gather_slots[r];
            send_shared(comm, peer, tag, &mut self.acc, |v| {
                Payload::sparse_padded_shared(v, cap)
            })
        } else {
            let cap = self.sched.split_slots[r];
            self.cap_acc(cap);
            let outgoing = std::mem::replace(&mut self.acc, SparseVec::empty(self.dim));
            comm.send(peer, tag, Payload::sparse_padded(outgoing, cap))
        }
    }

    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let r = (tag - self.tag_base) as usize;
        let other = comm.recv(peer, tag)?.payload.into_sparse();
        if self.gather {
            // Fold-out: adopt the assembled global result.
            comm.pool()
                .put_sparse(std::mem::replace(&mut self.acc, other));
            return Ok(());
        }
        // Fold-in: merge the folded position's contribution, applying the
        // cascade truncation where the schedule demands one.
        match self.sched.split_trunc[r] {
            Some(h) => {
                topk_merge_split_into(
                    &self.acc,
                    &other,
                    h,
                    &mut self.merge,
                    &mut self.lo,
                    &mut self.tmp,
                );
                std::mem::swap(&mut self.acc, &mut self.lo);
                self.witness_tmp();
            }
            None => {
                self.acc.add_into(&other, &mut self.lo);
                std::mem::swap(&mut self.acc, &mut self.lo);
            }
        }
        comm.pool().put_sparse(other);
        Ok(())
    }

    fn on_swap(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let r = (tag - self.tag_base) as usize;
        if self.gather {
            // Doubling round: exchange whole holdings (disjoint region
            // sets) and merge-add.
            let cap = self.sched.gather_slots[r];
            return swap_add(comm, peer, tag, &mut self.acc, |v| {
                Payload::sparse_padded_shared(v, cap)
            });
        }
        // Halving round: split holdings at this round's (re-balanced)
        // block boundary, ship the partner's half under the round budget,
        // keep and merge our own half.
        let s = r - self.fold_rounds;
        let mask = self.p2 >> (s + 1);
        let blk_lo = self.my_pos & !((mask << 1) - 1);
        let boundary = region_start(self.dim, self.p2, blk_lo + mask);
        self.acc.split_at_into(boundary, &mut self.lo, &mut self.hi);
        let cap = self.sched.split_slots[r];
        let keep_low = self.my_pos & mask == 0;
        // Cap the outgoing half; what the budget drops stays here as a
        // witnessed reject (the stale accumulator serves as scratch).
        {
            let send = if keep_low { &mut self.hi } else { &mut self.lo };
            if send.nnz() > cap {
                topk_merge_split_into(
                    send,
                    &self.empty,
                    cap,
                    &mut self.merge,
                    &mut self.acc,
                    &mut self.tmp,
                );
                std::mem::swap(send, &mut self.acc);
            }
        }
        self.witness_tmp();
        let outgoing = {
            let send = if keep_low { &mut self.hi } else { &mut self.lo };
            std::mem::replace(send, SparseVec::empty(self.dim))
        };
        let msg = comm.sendrecv(peer, tag, Payload::sparse_padded(outgoing, cap))?;
        let other = msg.payload.into_sparse();
        {
            let keep = if keep_low { &self.lo } else { &self.hi };
            match self.sched.split_trunc[r] {
                // SparDL cascade: merge and truncate to this round's
                // holding budget; the drop lands in `tmp` and is
                // witnessed below.
                Some(h) => topk_merge_split_into(
                    keep,
                    &other,
                    h,
                    &mut self.merge,
                    &mut self.acc,
                    &mut self.tmp,
                ),
                None => keep.add_into(&other, &mut self.acc),
            }
        }
        self.witness_tmp();
        comm.pool().put_sparse(other);
        Ok(())
    }
}

/// Membership-aware zoo collective: runs the split-and-aggregate phase
/// and the gather phase of `sched` over `members` (sorted, including the
/// caller), addressing members by position, in the membership epoch's
/// tag window. Returns the global sparse
/// result — **identical on every member** — together with this rank's
/// witnessed rejects (entries some budget forced this rank to drop),
/// which the caller returns to its residual.
///
/// Both Ok-Topk and SparDL run through this one executor; they differ
/// only in the [`ZooSchedule`] driving it.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics if the caller is not in `members` or `sched` was built for a
/// different group size.
pub fn sparse_zoo_all_reduce_over(
    comm: &mut Communicator,
    members: &[usize],
    local: SparseVec,
    sched: &ZooSchedule,
) -> Result<(SparseVec, SparseVec)> {
    let p = members.len();
    assert_eq!(
        sched.p, p,
        "schedule built for {} positions, group has {p}",
        sched.p
    );
    let me = members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("caller must be a member of the zoo group");
    let dim = local.dim();
    let p2 = largest_power_of_two_leq(p);
    let tag_off = epoch_tag_offset(comm.epoch());
    let mut rejects = comm.pool().take_sparse(dim);
    rejects.clear();
    let mut ops = ZooOps {
        sched,
        dim,
        p2,
        my_pos: me,
        tag_base: TAG_ZOO_SPLIT + tag_off,
        gather: false,
        fold_rounds: usize::from(p > p2),
        acc: local,
        rejects,
        lo: comm.pool().take_sparse(dim),
        hi: comm.pool().take_sparse(dim),
        tmp: comm.pool().take_sparse(dim),
        rej_tmp: comm.pool().take_sparse(dim),
        empty: SparseVec::empty(dim),
        merge: MergeScratch::new(),
    };
    execute_plan(
        comm,
        &sched.split,
        me,
        TAG_ZOO_SPLIT + tag_off,
        |pos| members[pos],
        &mut ops,
    )?;
    // Region selection: narrow the surviving holdings to the region
    // budget — the final per-region top-g selection for Ok-Topk, a no-op
    // for SparDL whose cascade already truncated to it.
    ops.cap_acc(sched.region_slots);
    ops.gather = true;
    ops.tag_base = TAG_ZOO_GATHER + tag_off;
    execute_plan(
        comm,
        &sched.gather,
        me,
        TAG_ZOO_GATHER + tag_off,
        |pos| members[pos],
        &mut ops,
    )?;
    comm.pool().put_sparse(ops.lo);
    comm.pool().put_sparse(ops.hi);
    comm.pool().put_sparse(ops.tmp);
    comm.pool().put_sparse(ops.rej_tmp);
    Ok((ops.acc, ops.rejects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};

    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 8];

    #[test]
    fn broadcast_delivers_sparse_everywhere() {
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let members: Vec<usize> = (0..comm.size()).collect();
                let local = if comm.rank() == 0 {
                    SparseVec::from_pairs(10, vec![(2, 1.5), (7, -3.0)])
                } else {
                    SparseVec::empty(10)
                };
                let got = sparse_broadcast_over(comm, &members, local, 0).unwrap();
                // A root outside the membership is refused before any
                // message moves.
                let err =
                    sparse_broadcast_over(comm, &members, SparseVec::empty(10), p).unwrap_err();
                (got, err)
            });
            for (v, err) in out {
                assert_eq!(v.indices(), &[2, 7], "P={p}");
                assert_eq!(v.values(), &[1.5, -3.0]);
                assert_eq!(err, gtopk_comm::CommError::InvalidRank { rank: p, size: p });
            }
        }
    }

    #[test]
    fn sum_matches_dense_reference() {
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let r = comm.rank() as u32;
                // Overlapping and unique coordinates.
                let local =
                    SparseVec::from_pairs(32, vec![(0, 1.0), (r + 1, 10.0 * (r + 1) as f32)]);
                sparse_sum_recursive_doubling(comm, local).unwrap()
            });
            let mut expect = vec![0.0f32; 32];
            for r in 0..p {
                expect[0] += 1.0;
                expect[r + 1] += 10.0 * (r + 1) as f32;
            }
            for v in out {
                assert_eq!(v.to_dense(), expect, "P={p}");
            }
        }
    }

    #[test]
    fn zoo_collectives_agree_across_ranks_and_conserve_mass() {
        // Set consistency: every rank receives bitwise the same global
        // vector. Conservation: sum of contributions == global + sum of
        // witnessed rejects, coordinate by coordinate.
        for &p in SIZES {
            for sched_of in [ZooSchedule::oktopk, ZooSchedule::spardl] {
                let k = 4usize;
                let dim = 64usize;
                let sched = sched_of(p, k);
                let contrib = sched.contrib_slots;
                let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
                    let r = comm.rank() as u32;
                    // Overlapping coordinate 0 plus unique spread, capped
                    // at the schedule's contribution quota.
                    let pairs: Vec<(u32, f32)> = std::iter::once((0, 1.0 + r as f32))
                        .chain((0..contrib.saturating_sub(1) as u32).map(|j| {
                            let i = 1 + (r * 7 + j * 11) % 63;
                            (i, 0.5 + (r + j) as f32 * 0.25)
                        }))
                        .take(contrib)
                        .collect();
                    let mut dedup: Vec<(u32, f32)> = Vec::new();
                    for (i, v) in pairs {
                        match dedup.iter_mut().find(|(di, _)| *di == i) {
                            Some((_, dv)) => *dv += v,
                            None => dedup.push((i, v)),
                        }
                    }
                    let local = SparseVec::from_pairs(dim, dedup);
                    let members: Vec<usize> = (0..comm.size()).collect();
                    let sched = sched_of(comm.size(), k);
                    let (global, rejects) =
                        sparse_zoo_all_reduce_over(comm, &members, local.clone(), &sched).unwrap();
                    (local, global, rejects)
                });
                let first = &out[0].1;
                let mut contributed = vec![0.0f64; dim];
                let mut recovered: Vec<f64> = first.to_dense().iter().map(|&v| v as f64).collect();
                for (local, global, rejects) in &out {
                    assert_eq!(global, first, "{} P={p} rank disagreement", sched.name);
                    for (i, v) in local.iter() {
                        contributed[i as usize] += v as f64;
                    }
                    for (i, v) in rejects.iter() {
                        recovered[i as usize] += v as f64;
                    }
                }
                for i in 0..dim {
                    assert!(
                        (contributed[i] - recovered[i]).abs() < 1e-4,
                        "{} P={p} coord {i}: contributed {} vs recovered {}",
                        sched.name,
                        contributed[i],
                        recovered[i]
                    );
                }
            }
        }
    }

    #[test]
    fn zoo_result_is_global_topk_on_disjoint_uniform_contributions() {
        // With disjoint supports and per-rank nnz == the contribution
        // quota, Ok-Topk's region selections keep the globally largest
        // entries of each region.
        let p = 4usize;
        let k = 8usize; // quota 2 per rank
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let r = comm.rank() as u32;
            let local =
                SparseVec::from_pairs(64, vec![(r * 16, 10.0 + r as f32), (r * 16 + 3, 1.0)]);
            let members: Vec<usize> = (0..comm.size()).collect();
            let sched = ZooSchedule::oktopk(members.len(), k);
            sparse_zoo_all_reduce_over(comm, &members, local, &sched)
                .unwrap()
                .0
        });
        for v in &out {
            assert_eq!(v, &out[0]);
            // All 8 contributed entries fit the k budget: nothing dropped.
            assert_eq!(v.nnz(), 8, "got {:?}", v.indices());
        }
    }

    #[test]
    fn zoo_wire_traffic_is_input_independent() {
        // Budget padding: two clusters with very different gradients must
        // produce identical per-rank traffic and identical finish times.
        for &p in &[4usize, 5, 8] {
            for sched_of in [ZooSchedule::oktopk, ZooSchedule::spardl] {
                let k = 6usize;
                let run = |dense: bool| {
                    Cluster::new(p, CostModel::new(0.1, 0.001)).run(move |comm| {
                        let r = comm.rank() as u32;
                        let sched = sched_of(comm.size(), k);
                        let pairs: Vec<(u32, f32)> = if dense {
                            (0..sched.contrib_slots as u32)
                                .map(|j| (r * 31 + j * 3, 1.0 + j as f32))
                                .map(|(i, v)| (i % 256, v))
                                .collect()
                        } else {
                            vec![(r % 256, 1.0)]
                        };
                        let mut dedup: Vec<(u32, f32)> = Vec::new();
                        for (i, v) in pairs {
                            match dedup.iter_mut().find(|(di, _)| *di == i) {
                                Some((_, dv)) => *dv += v,
                                None => dedup.push((i, v)),
                            }
                        }
                        let local = SparseVec::from_pairs(256, dedup);
                        let members: Vec<usize> = (0..comm.size()).collect();
                        sparse_zoo_all_reduce_over(comm, &members, local, &sched).unwrap();
                        (comm.stats().elems_sent, comm.now_ms())
                    })
                };
                let full = run(true);
                let sparse = run(false);
                assert_eq!(
                    full, sparse,
                    "P={p}: padded traffic must not depend on data"
                );
            }
        }
    }

    #[test]
    fn zoo_per_rank_traffic_matches_schedule_exactly() {
        for &p in SIZES {
            for sched_of in [ZooSchedule::oktopk, ZooSchedule::spardl] {
                let k = 5usize;
                let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
                    let sched = sched_of(comm.size(), k);
                    let local = SparseVec::from_pairs(128, vec![(comm.rank() as u32, 1.0)]);
                    let members: Vec<usize> = (0..comm.size()).collect();
                    sparse_zoo_all_reduce_over(comm, &members, local, &sched).unwrap();
                    (comm.rank(), comm.stats().elems_sent)
                });
                let sched = sched_of(p, k);
                for (rank, sent) in stats {
                    assert_eq!(
                        sent,
                        sched.rank_send_elems(rank),
                        "{} P={p} rank {rank}",
                        sched.name
                    );
                }
            }
        }
    }

    #[test]
    fn sum_traffic_matches_eq6_volume() {
        // For power-of-two P, per-rank sent elements must be 2k(P-1) when
        // all contributions have disjoint supports.
        let p = 8usize;
        let k = 4usize;
        let stats = Cluster::new(p, CostModel::zero()).run(|comm| {
            let r = comm.rank() as u32;
            let pairs: Vec<(u32, f32)> = (0..k as u32).map(|j| (r * k as u32 + j, 1.0)).collect();
            let local = SparseVec::from_pairs(64, pairs);
            sparse_sum_recursive_doubling(comm, local).unwrap();
            comm.stats()
        });
        for s in stats {
            // k + 2k + 4k partial sums, 2 wire words per nnz.
            assert_eq!(s.elems_sent, 2 * k * (p - 1), "{s:?}");
        }
    }
}
