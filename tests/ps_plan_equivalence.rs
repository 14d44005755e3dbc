//! Executed PS time *is* the plan-clock replay.
//!
//! A bulk-synchronous PS round is two ordinary plans — the
//! `CollectivePlan::ps_push` fan-in to the shard hosts and the
//! `CollectivePlan::ps_reply` fan-out back — run by `execute_plan` and
//! priced by `PlanClock::charge`. These tests run real rounds over the
//! simulated cluster, with uneven compute between rounds, and require
//! every member's executed `Communicator::now_ms` to equal the replay bit
//! for bit across worker counts, shard counts and a shrunk, non-contiguous
//! membership — the plan-equals-execution discipline
//! `tests/plan_equivalence.rs` pins for the allreduce family.

use gtopk::ps_round;
use gtopk_comm::{Cluster, CollectivePlan, CostModel, ShardMap};
use gtopk_perfmodel::{ps_plan_ms, PlanClock};
use gtopk_sparse::Residual;

const DIM: usize = 600;
const K: usize = 30;

fn grad(rank: usize, round: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 17)
                .wrapping_mul(rank as u64 + 5)
                .wrapping_mul(round as u64 + 11)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Local compute before `round` at member position `pos`: uneven, so the
/// critical path moves between members from round to round.
fn compute_ms(pos: usize, round: usize) -> f64 {
    0.3 + 0.17 * ((pos * 7 + round * 3) % 5) as f64
}

/// Runs `rounds` executed PS rounds over `members` of a `p`-rank cluster
/// (the other ranks sit the run out) and returns each member's final
/// clock, in member order.
fn executed_ms(
    net: CostModel,
    p: usize,
    members: &[usize],
    shards: usize,
    rounds: usize,
    compute: bool,
) -> Vec<f64> {
    let members = members.to_vec();
    Cluster::new(p, net)
        .run(move |comm| {
            let pos = members.iter().position(|&r| r == comm.rank())?;
            let map = ShardMap::new(DIM, shards.min(members.len()));
            let budgets = map.budgets(K);
            let mut residual = Residual::new(DIM);
            for round in 0..rounds {
                if compute {
                    comm.advance_compute(compute_ms(pos, round));
                }
                residual.accumulate(&grad(comm.rank(), round, DIM));
                let locals: Vec<_> = (0..map.num_shards())
                    .map(|s| residual.extract_topk_range(map.range(s), budgets[s]))
                    .collect();
                ps_round(comm, &members, &map, &budgets, locals).unwrap();
            }
            Some(comm.now_ms())
        })
        .into_iter()
        .flatten()
        .collect()
}

/// The same rounds replayed on a `PlanClock` over `n` positions.
fn replayed_ms(net: CostModel, n: usize, shards: usize, rounds: usize) -> Vec<f64> {
    let map = ShardMap::new(DIM, shards.min(n));
    let budgets = map.budgets(K);
    let push = CollectivePlan::ps_push(n, map.num_shards());
    let reply = CollectivePlan::ps_reply(n, map.num_shards());
    let mut clock = PlanClock::new(n);
    for round in 0..rounds {
        for pos in 0..n {
            clock.advance_compute(pos, compute_ms(pos, round));
        }
        clock.charge(&net, &push, |_, _, host| 2 * budgets[host]);
        clock.charge(&net, &reply, |_, host, _| map.len(host));
    }
    (0..n).map(|pos| clock.now(pos)).collect()
}

fn assert_replay_matches(p: usize, members: &[usize], shards: usize, rounds: usize) {
    let net = CostModel::gigabit_ethernet();
    let got = executed_ms(net, p, members, shards, rounds, true);
    let want = replayed_ms(net, members.len(), shards, rounds);
    assert_eq!(got.len(), members.len());
    for (pos, (t, r)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            t.to_bits(),
            r.to_bits(),
            "P={p} members={members:?} S={shards} position {pos}: executed {t} vs replay {r}"
        );
    }
}

fn all(p: usize) -> Vec<usize> {
    (0..p).collect()
}

#[test]
fn bulk_sync_replay_is_exact_across_worker_and_shard_counts() {
    for p in [2usize, 3, 5, 8, 16] {
        for shards in [1usize, 2, 7, p] {
            assert_replay_matches(p, &all(p), shards, 2);
        }
    }
}

#[test]
fn replay_is_exact_at_the_largest_supported_scale() {
    // The acceptance envelope's upper end: P = 48 with co-located
    // shards, and with fewer shards than ranks.
    assert_replay_matches(48, &all(48), 48, 1);
    assert_replay_matches(48, &all(48), 16, 2);
}

#[test]
fn replay_is_exact_over_a_shrunk_membership() {
    // Members [0, 2, 3, 5] of a P = 6 cluster, as after two crashes: the
    // plans run over four positions mapped to those ranks, and shard s is
    // hosted by the s-th member.
    for shards in [1usize, 3, 4] {
        assert_replay_matches(6, &[0, 2, 3, 5], shards, 3);
    }
}

#[test]
fn ps_plan_ms_is_the_executed_makespan() {
    let net = CostModel::gigabit_ethernet();
    for (p, shards) in [(2usize, 1usize), (5, 2), (8, 8), (12, 5)] {
        let got = executed_ms(net, p, &all(p), shards, 3, false);
        let makespan = got.iter().copied().fold(0.0, f64::max);
        let replay = ps_plan_ms(&net, p, DIM, shards, K, 3);
        assert_eq!(makespan.to_bits(), replay.to_bits(), "P={p} S={shards}");
    }
}
