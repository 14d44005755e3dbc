//! Failure-injection tests: worker loss must surface as explicit
//! [`gtopk_comm::CommError::Disconnected`] errors (an MPI-abort-style
//! model), never as silent hangs or corrupted aggregates.

use gtopk::gtopk_all_reduce;
use gtopk_comm::{collectives, Cluster, CommError, CostModel, FaultPlan, Payload};
use gtopk_sparse::SparseVec;

#[test]
fn recv_from_dead_peer_errors_instead_of_hanging() {
    let out = Cluster::new(2, CostModel::zero()).run(|comm| {
        if comm.rank() == 1 {
            // Rank 1 dies immediately (returns without participating).
            return None;
        }
        Some(comm.recv(1, 0).err())
    });
    match &out[0] {
        Some(Some(CommError::Disconnected { peer: 1 })) => {}
        other => panic!("expected Disconnected from peer 1, got {other:?}"),
    }
}

#[test]
fn send_to_dead_peer_errors_once_channel_closes() {
    // The transport is buffered, so the *first* send may succeed even if
    // the peer is gone; a send after observing the closed channel fails.
    let out = Cluster::new(3, CostModel::zero()).run(|comm| {
        match comm.rank() {
            2 => None, // dies
            0 => {
                // Wait for rank 2's death to become observable.
                let recv_err = comm.recv(2, 9).expect_err("no message ever sent");
                let send_err = comm
                    .send(2, 9, Payload::Control)
                    .expect_err("channel closed");
                Some((recv_err, send_err))
            }
            _ => None,
        }
    });
    let (recv_err, send_err) = out[0].clone().expect("rank 0 observed errors");
    assert_eq!(recv_err, CommError::Disconnected { peer: 2 });
    assert_eq!(send_err, CommError::Disconnected { peer: 2 });
}

#[test]
fn gtopk_all_reduce_fails_cleanly_when_a_worker_dies() {
    // With rank 3 absent, some rank's tree receive must observe the
    // disconnect; no rank may hang or return a bogus aggregate as Ok.
    let out = Cluster::new(4, CostModel::zero()).run(|comm| {
        if comm.rank() == 3 {
            return (comm.rank(), None);
        }
        let local = SparseVec::from_pairs(16, vec![(comm.rank() as u32, 1.0)]);
        (comm.rank(), Some(gtopk_all_reduce(comm, local, 2)))
    });
    // Rank 1 (rank 3's tree partner at mask 2... structure-dependent):
    // at least one surviving rank must report Disconnected.
    let errors: Vec<usize> = out
        .iter()
        .filter_map(|(r, res)| match res {
            Some(Err(CommError::Disconnected { .. })) => Some(*r),
            _ => None,
        })
        .collect();
    assert!(
        !errors.is_empty(),
        "some rank must observe the dead worker: {out:?}"
    );
}

#[test]
fn collective_after_partial_failure_reports_error() {
    // A dense allreduce with a dead member: every survivor must
    // eventually error (ring dependencies propagate the failure).
    let out = Cluster::new(4, CostModel::zero()).run(|comm| {
        if comm.rank() == 2 {
            return None;
        }
        let mut v = vec![comm.rank() as f32; 8];
        Some(collectives::allreduce_ring(comm, &mut v))
    });
    let failed = out
        .iter()
        .enumerate()
        .filter(|(r, res)| *r != 2 && matches!(res, Some(Err(_))))
        .count();
    assert!(failed >= 1, "ring must break when a member dies: {out:?}");
}

#[test]
fn allgather_fails_cleanly_when_a_rank_dies() {
    // The AllGather exchange shape — recursive doubling, folded at
    // P = 6 — on the kept collective, the recursive-doubling AllReduce,
    // with a dead member: the survivors' exchange chains reach the hole
    // within log P rounds, so they must error rather than return a
    // partial result.
    for p in [4usize, 6] {
        let out = Cluster::new(p, CostModel::zero()).run(|comm| {
            if comm.rank() == 1 {
                return None;
            }
            let mut v = vec![comm.rank() as f32; 4];
            Some(collectives::allreduce_recursive_doubling(comm, &mut v).map(|()| v))
        });
        let failed = out
            .iter()
            .enumerate()
            .filter(|(r, res)| *r != 1 && matches!(res, Some(Err(_))))
            .count();
        assert_eq!(
            failed,
            p - 1,
            "P={p}: every survivor must error, none may return a partial sum: {out:?}"
        );
    }
}

#[test]
fn gtopk_all_reduce_fails_cleanly_at_non_power_of_two_sizes() {
    // The tree handles non-power-of-two P by folding extra ranks in;
    // losing a folded-in rank (the last one) must also surface cleanly.
    for (p, dead) in [(5usize, 4usize), (6, 5), (5, 2)] {
        let out = Cluster::new(p, CostModel::zero()).run(|comm| {
            if comm.rank() == dead {
                return (comm.rank(), None);
            }
            let local = SparseVec::from_pairs(16, vec![(comm.rank() as u32, 1.0)]);
            (comm.rank(), Some(gtopk_all_reduce(comm, local, 2)))
        });
        let errors: Vec<usize> = out
            .iter()
            .filter_map(|(r, res)| match res {
                Some(Err(CommError::Disconnected { .. })) => Some(*r),
                _ => None,
            })
            .collect();
        assert!(
            !errors.is_empty(),
            "P={p}, dead={dead}: some rank must observe the death: {out:?}"
        );
    }
}

#[test]
fn scheduled_crash_breaks_collectives_like_a_real_death() {
    // Same observable failure shape when the death comes from the
    // deterministic fault plan instead of an explicit early return.
    let plan = FaultPlan::seeded(1).with_crash(2, 0);
    let out = Cluster::new(4, CostModel::zero())
        .with_fault_plan(plan)
        .run(|comm| {
            if comm.begin_step().is_err() {
                return (comm.rank(), None); // rank 2's scheduled death
            }
            let mut v = vec![comm.rank() as f32; 8];
            (comm.rank(), Some(collectives::allreduce_ring(comm, &mut v)))
        });
    assert!(out[2].1.is_none(), "rank 2 must crash on schedule");
    let failed = out
        .iter()
        .filter(|(r, res)| *r != 2 && matches!(res, Some(Err(_))))
        .count();
    assert!(failed >= 1, "survivors must observe the crash: {out:?}");
}

#[test]
fn errors_are_values_not_panics() {
    // The substrate's failure model is Result-based: a rank can observe
    // an error, handle it, and still produce a value (here: a fallback).
    let out = Cluster::new(2, CostModel::zero()).run(|comm| {
        if comm.rank() == 1 {
            return "dead".to_string();
        }
        match comm.recv(1, 0) {
            Ok(_) => "unexpected".to_string(),
            Err(CommError::Disconnected { .. }) => "recovered".to_string(),
            Err(e) => format!("other: {e}"),
        }
    });
    assert_eq!(out[0], "recovered");
    assert_eq!(out[1], "dead");
}
