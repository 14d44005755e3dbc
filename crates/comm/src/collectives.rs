//! Collective communication algorithms built from point-to-point messages.
//!
//! These are the textbook algorithms whose α-β costs the paper quotes
//! (§II-D, §II-E, citing Chan et al. and Pješivac-Grbović et al.):
//!
//! * [`broadcast`] — binomial tree, `⌈log₂P⌉(α + nβ)`;
//! * [`allreduce_ring`] — ring reduce-scatter + ring all-gather,
//!   `2(P−1)α + 2((P−1)/P)·nβ` (paper Eq. 5);
//! * [`allreduce_recursive_doubling`] — `log₂P(α + nβ)` for power-of-two
//!   P, with a fold-in step otherwise;
//! * [`barrier`] — binomial tree.
//!
//! All functions must be called by *every* rank of the communicator with
//! compatible arguments, like their MPI counterparts.
//!
//! [`broadcast`], [`allreduce_ring`] and [`allreduce_recursive_doubling`]
//! are *plan executions*: their round schedules are generated by
//! [`crate::plan::CollectivePlan`] and run through the single
//! [`execute_plan`] entry point, so the schedule the simulated clock
//! charges is the one `gtopk_perfmodel::PlanClock` replays offline. The
//! ring's position-dependent chunk slices are the one thing its plan does
//! not carry: [`ring_chunk`] names them, for the executor and the replay
//! alike.

use crate::plan::{execute_plan, CollectivePlan, PlanOps, Topology};
use crate::{CommError, Communicator, Message, Payload, Result};
use std::ops::Range;
use std::sync::Arc;

// Plan-driven collectives reserve a tag *window* (`tag_base + round mod
// PLAN_TAG_WINDOW`). Cross-collective reuse of a tag is benign: matching
// is FIFO per (source, tag) and every collective drains all messages it
// produced. The ring's window [192, 448) stays below the recovery control
// band at offset 512 (`Message::is_control`).
const TAG_BCAST: u32 = Message::COLLECTIVE_TAG_BASE; // width 32
const TAG_RD: u32 = Message::COLLECTIVE_TAG_BASE + 64; // width 32
const TAG_RING: u32 = Message::COLLECTIVE_TAG_BASE + 192; // width 256
const TAG_BARRIER: u32 = Message::COLLECTIVE_TAG_BASE + 229;

fn check_root(comm: &Communicator, root: usize) -> Result<()> {
    if root >= comm.size() {
        return Err(CommError::InvalidRank {
            rank: root,
            size: comm.size(),
        });
    }
    Ok(())
}

/// Binomial-tree broadcast of a dense vector from `root` to all ranks.
///
/// On non-root ranks `data` is overwritten with the root's vector; its
/// length must already match.
///
/// # Errors
///
/// Returns [`CommError::InvalidRank`] for a bad root, or propagates
/// transport errors.
pub fn broadcast(comm: &mut Communicator, data: &mut Vec<f32>, root: usize) -> Result<()> {
    check_root(comm, root)?;
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    // The vector travels as one Arc-shared buffer: the root wraps it
    // once, relays forward the same reference, and every fan-out send is
    // a reference-count bump instead of a deep copy.
    struct BcastOps {
        shared: Arc<Vec<f32>>,
    }
    impl PlanOps for BcastOps {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            comm.send(peer, tag, Payload::dense_shared(self.shared.clone()))
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            self.shared = comm.recv(peer, tag)?.payload.into_dense_arc();
            Ok(())
        }
    }
    let plan = CollectivePlan::broadcast(Topology::Binomial, p, root);
    let mut ops = BcastOps {
        shared: Arc::new(std::mem::take(data)),
    };
    let me = comm.rank();
    execute_plan(comm, &plan, me, TAG_BCAST, |pos| pos, &mut ops)?;
    *data = Arc::try_unwrap(ops.shared).unwrap_or_else(|a| (*a).clone());
    Ok(())
}

/// The slice of an `n`-element vector that position `pos` sends in round
/// `round` of a `p`-position [`CollectivePlan::ring_allreduce`]: in
/// reduce-scatter round `s < p − 1` the partial sum of chunk `pos − s`,
/// in all-gather round `s` the completed chunk `pos + 1 − (s − (p − 1))`
/// (indices mod `p`, chunk `c` = `[c·n/p, (c+1)·n/p)`, possibly empty).
/// What a position receives in a round is its left neighbour's slice.
pub fn ring_chunk(n: usize, p: usize, round: usize, pos: usize) -> Range<usize> {
    let c = if round < p - 1 {
        (pos + p - round) % p
    } else {
        (pos + 2 * p - round) % p
    };
    c * n / p..(c + 1) * n / p
}

/// Ring AllReduce (reduce-scatter + all-gather), the paper's
/// DenseAllReduce (Eq. 5), executed as [`CollectivePlan::ring_allreduce`].
///
/// After the call every rank's `data` holds the element-wise sum across
/// all ranks.
///
/// # Errors
///
/// Returns [`CommError::BufferMismatch`] if a neighbour's chunk has the
/// wrong length, or propagates transport errors.
pub fn allreduce_ring(comm: &mut Communicator, data: &mut [f32]) -> Result<()> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    // Every position sends once and receives once per round, sending
    // first, so counting receives counts rounds. Reduce-scatter rounds
    // accumulate the left neighbour's chunk, all-gather rounds adopt it.
    struct RingOps<'a> {
        data: &'a mut [f32],
        p: usize,
        me: usize,
        round: usize,
    }
    impl PlanOps for RingOps<'_> {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let range = ring_chunk(self.data.len(), self.p, self.round, self.me);
            comm.send(peer, tag, Payload::dense(self.data[range].to_vec()))
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let v = comm.recv(peer, tag)?.payload.into_dense();
            let range = ring_chunk(self.data.len(), self.p, self.round, peer);
            if v.len() != range.len() {
                return Err(CommError::BufferMismatch {
                    op: "allreduce_ring",
                    expected: range.len(),
                    actual: v.len(),
                });
            }
            let chunk = &mut self.data[range];
            if self.round < self.p - 1 {
                for (a, b) in chunk.iter_mut().zip(v) {
                    *a += b;
                }
            } else {
                chunk.copy_from_slice(&v);
            }
            self.round += 1;
            Ok(())
        }
    }
    let me = comm.rank();
    let plan = CollectivePlan::ring_allreduce(p);
    let mut ops = RingOps {
        data,
        p,
        me,
        round: 0,
    };
    execute_plan(comm, &plan, me, TAG_RING, |pos| pos, &mut ops)
}

/// Recursive-doubling AllReduce: `log₂P` rounds of pairwise full-vector
/// exchange for power-of-two `P`; non-power-of-two sizes fold the extra
/// ranks in and out.
///
/// # Errors
///
/// Propagates transport errors.
pub fn allreduce_recursive_doubling(comm: &mut Communicator, data: &mut [f32]) -> Result<()> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    // Folded positions (>= p2) receive only in the fold-out round, where
    // the incoming vector *replaces* the local one; every other receive
    // accumulates. Swap rounds carry the pairwise exchange.
    struct RdOps<'a> {
        data: &'a mut [f32],
        folded: bool,
    }
    impl PlanOps for RdOps<'_> {
        fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            comm.send(peer, tag, Payload::dense(self.data.to_vec()))
        }
        fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let v = comm.recv(peer, tag)?.payload.into_dense();
            if self.folded {
                self.data.copy_from_slice(&v);
            } else {
                for (a, b) in self.data.iter_mut().zip(v) {
                    *a += b;
                }
            }
            Ok(())
        }
        fn on_swap(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
            let msg = comm.sendrecv(peer, tag, Payload::dense(self.data.to_vec()))?;
            for (a, b) in self.data.iter_mut().zip(msg.payload.into_dense()) {
                *a += b;
            }
            Ok(())
        }
    }
    let rank = comm.rank();
    let folded = rank >= largest_power_of_two_leq(p);
    let plan = CollectivePlan::exchange(p);
    execute_plan(
        comm,
        &plan,
        rank,
        TAG_RD,
        |pos| pos,
        &mut RdOps { data, folded },
    )
}

/// Largest power of two `<= n` (n >= 1) — the fold threshold every
/// non-power-of-two plan generator shares.
pub fn largest_power_of_two_leq(n: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

/// Synchronizes all ranks (binomial reduce to rank 0 + broadcast), also
/// aligning simulated clocks to the slowest rank plus the barrier cost.
///
/// # Errors
///
/// Propagates transport errors.
pub fn barrier(comm: &mut Communicator) -> Result<()> {
    let p = comm.size();
    if p == 1 {
        return Ok(());
    }
    let rank = comm.rank();
    // Reduce direction (control messages).
    let mut mask = 1usize;
    while mask < p {
        if rank & mask == 0 {
            let src = rank | mask;
            if src < p {
                comm.recv(src, TAG_BARRIER)?;
            }
        } else {
            comm.send(rank & !mask, TAG_BARRIER, Payload::Control)?;
            break;
        }
        mask <<= 1;
    }
    // Broadcast direction.
    let mut dummy = Vec::new();
    broadcast(comm, &mut dummy, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CostModel};

    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 16];

    #[test]
    fn broadcast_delivers_roots_vector() {
        for &p in SIZES {
            for root in [0, p - 1] {
                let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                    let mut v = if comm.rank() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        vec![0.0; 3]
                    };
                    broadcast(comm, &mut v, root).unwrap();
                    v
                });
                for v in out {
                    assert_eq!(v, vec![1.0, 2.0, 3.0], "P={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_sums_everywhere() {
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let mut v: Vec<f32> = (0..10).map(|i| (comm.rank() * 10 + i) as f32).collect();
                allreduce_ring(comm, &mut v).unwrap();
                v
            });
            for i in 0..10 {
                let expect: f32 = (0..p).map(|r| (r * 10 + i) as f32).sum();
                for v in &out {
                    assert_eq!(v[i], expect, "P={p} i={i}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_handles_short_vectors() {
        // n < P exercises empty chunks.
        let p = 8;
        let out = Cluster::new(p, CostModel::zero()).run(|comm| {
            let mut v = vec![1.0f32, 2.0];
            allreduce_ring(comm, &mut v).unwrap();
            v
        });
        for v in out {
            assert_eq!(v, vec![8.0, 16.0]);
        }
    }

    #[test]
    fn recursive_doubling_allreduce_matches_ring() {
        for &p in SIZES {
            let out = Cluster::new(p, CostModel::zero()).run(|comm| {
                let mut v: Vec<f32> = (0..5)
                    .map(|i| ((comm.rank() + 1) * (i + 1)) as f32)
                    .collect();
                allreduce_recursive_doubling(comm, &mut v).unwrap();
                v
            });
            let total: usize = (0..p).map(|r| r + 1).sum();
            for v in &out {
                for (i, &x) in v.iter().enumerate() {
                    assert_eq!(x, (total * (i + 1)) as f32, "P={p}");
                }
            }
        }
    }

    #[test]
    fn barrier_aligns_clocks() {
        let p = 4;
        let times = Cluster::new(p, CostModel::new(1.0, 0.0)).run(|comm| {
            // Skewed compute before the barrier.
            comm.advance_compute(comm.rank() as f64 * 10.0);
            barrier(comm).unwrap();
            comm.now_ms()
        });
        // All ranks end at the same simulated time, at or after the
        // slowest rank's pre-barrier time.
        let t0 = times[0];
        assert!(times.iter().all(|&t| (t - t0).abs() < 1e-9), "{times:?}");
        assert!(t0 >= 30.0);
    }

    #[test]
    fn ring_allreduce_time_matches_eq5() {
        // Eq. 5: 2(P-1)α + 2((P-1)/P) m β, for m divisible by P.
        let p = 4;
        let m = 1000usize;
        let cost = CostModel::new(0.5, 1e-3);
        let times = Cluster::new(p, cost).run(|comm| {
            let mut v = vec![1.0f32; m];
            allreduce_ring(comm, &mut v).unwrap();
            comm.now_ms()
        });
        let expect = 2.0 * (p as f64 - 1.0) * cost.alpha_ms
            + 2.0 * ((p - 1) as f64 / p as f64) * m as f64 * cost.beta_ms_per_elem;
        for &t in &times {
            assert!((t - expect).abs() < 1e-6, "sim {t} vs analytic {expect}");
        }
    }

    #[test]
    fn broadcast_time_matches_binomial_model() {
        // Binomial bcast critical path: log2(P) rounds of (α + nβ).
        let p = 8;
        let n = 100usize;
        let cost = CostModel::new(1.0, 0.01);
        let times = Cluster::new(p, cost).run(|comm| {
            let mut v = vec![0.0f32; n];
            broadcast(comm, &mut v, 0).unwrap();
            comm.now_ms()
        });
        let per_hop = cost.transfer_ms(n);
        let expect = 3.0 * per_hop; // log2(8) = 3 hops on the critical path
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - expect).abs() < 1e-9, "max {max} vs {expect}");
    }
}
