//! The dense collective built from point-to-point messages: ring
//! AllReduce (reduce-scatter + all-gather), the paper's DenseAllReduce,
//! `2(P−1)α + 2((P−1)/P)·nβ` (Eq. 5, §II-D, citing Chan et al. and
//! Pješivac-Grbović et al.). It is the Dense training row's collective;
//! the sparse collectives (the exact sparse sum, the gTop-k tree, the zoo
//! schedules) live in `gtopk`'s `sparse_coll` and `gtopk_allreduce`.
//!
//! [`allreduce_ring`] must be called by *every* rank of the communicator
//! with equal-length vectors, like its MPI counterpart. It is a *plan
//! execution*: its round schedule is [`CollectivePlan::ring_allreduce`],
//! run through the single [`execute_plan`] entry point, so the schedule
//! the simulated clock charges is the one `gtopk_perfmodel::PlanClock`
//! replays offline. The ring's position-dependent chunk slices are the
//! one thing its plan does not carry: [`ring_chunk`] names them, for the
//! executor and the replay alike.

use crate::plan::{execute_plan, CollectivePlan, PlanOps};
use crate::{CommError, Communicator, Message, Payload, Result};
use std::ops::Range;

// The ring reserves a plan tag *window* (`TAG_RING + round mod
// PLAN_TAG_WINDOW`), [192, 448), below the recovery control band at
// offset 512 (`Message::is_control`).
const TAG_RING: u32 = Message::COLLECTIVE_TAG_BASE + 192; // width 256

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

/// Largest power of two `<= n` (n >= 1) — the fold threshold every
/// non-power-of-two plan generator shares.
pub fn largest_power_of_two_leq(n: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CostModel};

    const SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 16];

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
}
