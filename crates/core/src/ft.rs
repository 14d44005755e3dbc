//! Fault-tolerant gTop-k collectives: revocation, survivor agreement,
//! and shrink-and-continue over a rebuilt binomial tree.
//!
//! The recovery protocol is a deliberately small cousin of MPI's ULFM
//! (revoke + shrink + agree):
//!
//! 1. **Detect** — a rank blocked in a collective observes a failure as
//!    [`CommError::Disconnected`] (the crashed rank's channels closed) or
//!    [`CommError::Timeout`].
//! 2. **Revoke** — the detecting rank sends a revoke message carrying the
//!    current membership epoch to every other previous member. Any rank
//!    blocked in `recv` that pulls a revoke for its current epoch aborts
//!    with [`CommError::Aborted`], which cascades the teardown through
//!    the whole dependency chain of the collective — no rank can stay
//!    blocked on a rank that has entered recovery, because entering
//!    recovery always starts by revoking everyone.
//! 3. **Agree** — survivors walk the previous member list in order; the
//!    first live member acts as coordinator, collects an ALIVE message
//!    (carrying the sender's latest checkpoint iteration) from every
//!    other previous member within a timeout, and answers with the agreed
//!    survivor set plus the common rollback iteration (the minimum of the
//!    reported checkpoints). Dead members are excluded by the immediate
//!    `Disconnected` their closed channels produce.
//! 4. **Shrink and continue** — every survivor bumps its membership
//!    epoch, purges traffic of the revoked epoch, rolls its training
//!    state back to the agreed checkpoint, and resumes with the
//!    collective *plan regenerated over the survivor positions* (the
//!    same binomial generator, a smaller position→rank mapping — no
//!    bespoke tree surgery) and gradient averaging rescaled to the live
//!    member count.
//!
//! Collective tags are epoch-stamped (`tag + epoch ·
//! [`EPOCH_TAG_STRIDE`]`, see [`epoch_tag_offset`]) by the member-set
//! collectives themselves ([`crate::gtopk_all_reduce_over`],
//! [`crate::sparse_zoo_all_reduce_over`]), so traffic from before a
//! recovery can never alias a post-recovery receive; at epoch 0 the
//! offset is zero and the message schedule is bit-identical to the
//! fault-free collectives.
//!
//! A live rank that the coordinator times out on is *expelled*: it is not
//! told the new membership, every candidate walk it attempts dies, and it
//! terminates with an error — the classic fate of a falsely-suspected
//! node in a crash-failure detector. Default timeouts are far above any
//! modeled straggler skew, so this only happens under pathological plans.
//!
//! # Rank rejoin (elastic regrowth)
//!
//! The same agreement round also *grows* membership. A restarted process
//! broadcasts [`Message::JOIN_REQ_TAG`] (carrying its newest durable
//! checkpoint iteration, see [`crate::ckpt`]) to every rank of the
//! original universe and keeps retrying. Members notice the request at a
//! step boundary, treat it exactly like a failure — revoke, epoch bump,
//! agree — and the coordinator folds the joiners into the member set. The
//! agreed rollback is then `min(anchor, joiner latest)`, where the
//! *anchor* is the iteration the membership last rolled back to when it
//! shrank: every survivor pins that generation in memory and the joiner
//! holds it (or the one boundary before it) on disk, so both sides can
//! restore a **common** generation and the regrown run replays the
//! fault-free schedule bit-exactly. Joiners do not take part in the ALIVE
//! round (they have no live epoch); the coordinator answers them directly
//! with [`Message::JOIN_WELCOME_TAG`] carrying the new epoch, the
//! rollback iteration, and the full member list.

use gtopk_comm::{CommError, Communicator, Message, Payload, Result};
use std::time::Duration;

/// Emits a recovery-protocol trace line on stderr when `GTOPK_FT_TRACE`
/// is set in the environment. The closure keeps formatting off the
/// normal path; the timestamp is wall-clock milliseconds modulo 10⁶ so
/// traces from different processes of one chaos run line up.
pub(crate) fn ft_trace(line: impl FnOnce() -> String) {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *ON.get_or_init(|| std::env::var_os("GTOPK_FT_TRACE").is_some()) {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() % 1_000_000)
            .unwrap_or(0);
        eprintln!("[ft {t:06}] {}", line());
    }
}

/// Tag-space stride between membership epochs. Everything a collective
/// sends in epoch `e` uses tags in
/// `[COLLECTIVE_TAG_BASE + e·stride, COLLECTIVE_TAG_BASE + (e+1)·stride)`.
/// Shared with the comm layer, which exempts the in-stride
/// ALIVE/MEMBERSHIP control band from link-serialization costs
/// (see [`Message::is_control`]).
pub const EPOCH_TAG_STRIDE: u32 = Message::EPOCH_TAG_STRIDE;

/// ALIVE round-robin tags start here (plus the epoch offset plus the
/// candidate index).
const TAG_ALIVE: u32 = Message::COLLECTIVE_TAG_BASE + 512;
/// Membership-announcement tags start here.
const TAG_MEMBERSHIP: u32 = Message::COLLECTIVE_TAG_BASE + 1024;
/// Joiner state-transfer tags start here (plus the epoch offset):
/// `+0` carries the model parameters, `+1` the optimizer velocity.
pub const TAG_XFER: u32 = Message::COLLECTIVE_TAG_BASE + 1536;

/// The collective tag offset of membership epoch `epoch`.
///
/// # Panics
///
/// Panics if the epoch count exceeds the tag space (far beyond any
/// realistic failure count).
pub fn epoch_tag_offset(epoch: u64) -> u32 {
    let off = epoch
        .checked_mul(u64::from(EPOCH_TAG_STRIDE))
        .expect("epoch overflow");
    assert!(
        off < u64::from(u32::MAX - Message::COLLECTIVE_TAG_BASE) - u64::from(EPOCH_TAG_STRIDE),
        "too many membership epochs for the tag space"
    );
    off as u32
}

/// The outcome of a survivor-agreement round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The agreed member set, sorted, including the caller (survivors
    /// plus any joiners admitted this round).
    pub members: Vec<usize>,
    /// The common checkpoint iteration every member must roll back to.
    /// Without joiners: the minimum of the survivors' latest checkpoints
    /// (checkpoints are taken at a fixed cadence, so ranks can be at most
    /// one checkpoint boundary apart when a failure hits). With joiners:
    /// `min(anchor, joiner latest)` — a generation survivors pin in
    /// memory and joiners hold on disk.
    pub rollback_iter: u64,
    /// The rank that coordinated this round (it owns the joiner state
    /// transfer).
    pub coordinator: usize,
    /// Ranks admitted into `members` this round, sorted (empty on a pure
    /// shrink).
    pub joined: Vec<usize>,
}

/// Runs the full recovery protocol after a detected failure *or* an
/// observed join request: revoke the current epoch towards every previous
/// member, bump the epoch, purge the revoked epoch's traffic, and agree
/// on the new member set and rollback point.
///
/// `my_latest_iter` is this rank's newest checkpoint iteration and
/// `my_anchor_iter` the generation the membership last rolled back to
/// (equal to `my_latest_iter` while no shrink has happened — both pinned
/// by the trainer). `known_joiners` carries any join requests the caller
/// already consumed via
/// [`gtopk_comm::Communicator::poll_join_requests`] at the step
/// boundary; the coordinator merges them with whatever is still queued.
///
/// # Errors
///
/// [`CommError::Disconnected`] / [`CommError::Timeout`] when no candidate
/// coordinator could be reached at all — the caller cannot continue and
/// should terminate (it has effectively been expelled).
pub fn recover(
    comm: &mut Communicator,
    prev_members: &[usize],
    my_latest_iter: u64,
    my_anchor_iter: u64,
    known_joiners: &[(usize, u64)],
) -> Result<Recovery> {
    assert!(
        prev_members.len() as u32 <= TAG_MEMBERSHIP - TAG_ALIVE,
        "member count exceeds the agreement tag space"
    );
    let revoked_epoch = comm.epoch();
    ft_trace(|| {
        format!(
            "rank {} enters recovery: revoking epoch {revoked_epoch}, latest {my_latest_iter}, \
             anchor {my_anchor_iter}, known joiners {known_joiners:?}",
            comm.rank()
        )
    });
    // Entering recovery ALWAYS starts by revoking everyone: this is what
    // guarantees no rank stays blocked waiting for us.
    for &m in prev_members {
        comm.revoke(m, revoked_epoch);
    }
    let epoch = revoked_epoch + 1;
    comm.set_epoch(epoch);
    purge_revoked_epochs(comm, epoch);
    agree_survivors(
        comm,
        prev_members,
        my_latest_iter,
        my_anchor_iter,
        known_joiners,
    )
}

/// Drops all buffered traffic belonging to epochs before `epoch`:
/// epoch-stamped collective payloads and stale revokes.
fn purge_revoked_epochs(comm: &mut Communicator, epoch: u64) {
    let fresh_base = Message::COLLECTIVE_TAG_BASE + epoch_tag_offset(epoch);
    comm.purge_pending(|m| {
        if m.tag == Message::REVOKE_TAG {
            return match m.payload {
                Payload::Scalar(e) => (e as u64) < epoch,
                _ => false,
            };
        }
        m.tag >= Message::COLLECTIVE_TAG_BASE && m.tag < fresh_base
    });
}

/// The values of a dense payload, `None` for any other kind: a recovery
/// frame may come off a socket, and a wrong kind must not panic.
pub(crate) fn dense_values(payload: &Payload) -> Option<&[f32]> {
    match payload {
        Payload::Dense(v) => Some(v),
        _ => None,
    }
}

/// Decodes a membership announcement, `[rollback, n_joined, joined..,
/// members..]`, into `(rollback_iter, joined, members)`. `None` unless
/// the payload is dense, holds `n_joined` joiners, and lists strictly
/// ascending members below `size` that include `me` and every joiner.
fn decode_announcement(
    payload: &Payload,
    me: usize,
    size: usize,
) -> Option<(u64, Vec<usize>, Vec<usize>)> {
    let [rollback, n_joined, rest @ ..] = dense_values(payload)? else {
        return None;
    };
    let (joined, members) = rest.split_at_checked(*n_joined as usize)?;
    let ranks = |v: &[f32]| v.iter().map(|&r| r as usize).collect::<Vec<usize>>();
    let (joined, members) = (ranks(joined), ranks(members));
    let listed = |r: &usize| members.binary_search(r).is_ok();
    let well_formed = members.windows(2).all(|w| w[0] < w[1])
        && members.last().is_some_and(|&r| r < size)
        && listed(&me)
        && joined.iter().all(listed);
    well_formed.then_some((*rollback as u64, joined, members))
}

/// The agreement round of [`recover`] (already at the new epoch).
fn agree_survivors(
    comm: &mut Communicator,
    prev_members: &[usize],
    my_latest_iter: u64,
    my_anchor_iter: u64,
    known_joiners: &[(usize, u64)],
) -> Result<Recovery> {
    let off = epoch_tag_offset(comm.epoch());
    let me = comm.rank();
    let timeout = comm.recovery_timeout_ms();
    let mut last_err = CommError::timeout(me);
    for (idx, &candidate) in prev_members.iter().enumerate() {
        let tag_alive = TAG_ALIVE + off + idx as u32;
        let tag_member = TAG_MEMBERSHIP + off + idx as u32;
        if candidate == me {
            // Coordinator: collect ALIVE (`[latest, anchor]`) from every
            // other previous member. Each member resolves as one of:
            // survivor (ALIVE received), rejoining incarnation (JOIN_REQ
            // seen — its channels are open again but it only speaks
            // JOIN_REQ), dead (closed link), or unreachable (still
            // silent at the deadline). Members are polled in rank order
            // — the stash drain order feeds the simulated incast
            // accounting, which must stay deterministic — but the
            // deadline is *shared*: one slow or silent-but-open link can
            // eat the window, after which the others resolve instantly
            // from their queues instead of each burning a timeout of
            // their own (summed waits would push the announcement past
            // the workers' deadlines and partition the survivors). The
            // window is 2× the recovery timeout because detection skew
            // lets a live member enter recovery up to a full receive cap
            // after this rank did; a short per-member grace keeps a
            // just-late ALIVE from being excluded with zero wait.
            let mut members = vec![me];
            let mut min_latest = my_latest_iter;
            let mut min_anchor = my_anchor_iter;
            let mut early_joiners: Vec<(usize, u64)> = Vec::new();
            let wall = std::time::Instant::now();
            let cap = Duration::from_millis((timeout.max(1.0) * 2.0) as u64);
            for &m in prev_members {
                if m == me {
                    continue;
                }
                let grace = std::time::Instant::now();
                loop {
                    let down = comm.probe_link(m);
                    if let Some(msg) = comm.poll_tagged_from(m, tag_alive) {
                        // A malformed ALIVE excludes its sender.
                        if let Some(&[latest, anchor]) = dense_values(&msg.payload) {
                            ft_trace(|| format!("coordinator {me}: {m} ALIVE {latest} {anchor}"));
                            min_latest = min_latest.min(latest as u64);
                            min_anchor = min_anchor.min(anchor as u64);
                            members.push(m);
                        } else {
                            ft_trace(|| format!("coordinator {me}: {m} malformed ALIVE, excluded"));
                        }
                        break;
                    }
                    let joins = comm.poll_join_requests(&[m]);
                    if !joins.is_empty() {
                        ft_trace(|| format!("coordinator {me}: {m} rejoining {joins:?}"));
                        early_joiners.extend(joins);
                        break;
                    }
                    if down {
                        ft_trace(|| format!("coordinator {me}: {m} link down, excluded"));
                        break;
                    }
                    if wall.elapsed() >= cap && grace.elapsed() >= Duration::from_millis(200) {
                        ft_trace(|| format!("coordinator {me}: {m} silent, excluded"));
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            // Admit joiners: requests the caller consumed at the step
            // boundary plus whatever is queued from absent ranks. A
            // request that arrives a moment too late simply triggers the
            // next recovery round (the joiner keeps retrying).
            let absent: Vec<usize> = (0..comm.size()).filter(|r| !members.contains(r)).collect();
            let mut joiners: Vec<(usize, u64)> = Vec::new();
            let queued = comm.poll_join_requests(&absent);
            for (r, iter) in known_joiners
                .iter()
                .copied()
                .chain(early_joiners)
                .chain(queued)
                .filter(|(r, _)| absent.contains(r))
            {
                match joiners.iter_mut().find(|(jr, _)| *jr == r) {
                    Some(j) => j.1 = j.1.max(iter),
                    None => joiners.push((r, iter)),
                }
            }
            joiners.sort_unstable();
            let rollback_iter = if joiners.is_empty() {
                min_latest
            } else {
                let min_join = joiners.iter().map(|&(_, it)| it).min().expect("non-empty");
                min_anchor.min(min_join)
            };
            let joined: Vec<usize> = joiners.iter().map(|&(r, _)| r).collect();
            members.extend(joined.iter().copied());
            members.sort_unstable();
            ft_trace(|| {
                format!(
                    "coordinator {me}: agreed members {members:?}, joined {joined:?}, \
                     rollback {rollback_iter}"
                )
            });
            // Announce the agreed membership + rollback point to the
            // survivors. The joined set is carried explicitly: when a
            // crashed rank restarts fast enough, its crash and rejoin
            // collapse into this one round and the announced membership
            // equals the previous one — a survivor diffing the member
            // lists would wrongly see a pure shrink and pin its rollback
            // anchor (the pin a *real* shrink plants so a later rejoin
            // can still reach the common generation), dragging every
            // future rollback to an iteration that eventually ages out
            // of the durable keep-window.
            let mut wire: Vec<f32> = Vec::with_capacity(members.len() + joined.len() + 2);
            wire.push(rollback_iter as f32);
            wire.push(joined.len() as f32);
            wire.extend(joined.iter().map(|&r| r as f32));
            wire.extend(members.iter().map(|&r| r as f32));
            let wire = std::sync::Arc::new(wire);
            for &m in &members {
                if m == me || joined.contains(&m) {
                    continue;
                }
                // A member that died between its ALIVE and now just
                // misses the announcement; it is still listed, and the
                // next failure detection will shrink it out.
                let _ = comm.send(m, tag_member, Payload::dense_shared(wire.clone()));
            }
            // Welcome the joiners: they are not in the ALIVE round, so
            // they learn epoch + rollback + membership from this frame.
            if !joined.is_empty() {
                let mut welcome: Vec<f32> = Vec::with_capacity(members.len() + 2);
                welcome.push(comm.epoch() as f32);
                welcome.push(rollback_iter as f32);
                welcome.extend(members.iter().map(|&r| r as f32));
                let welcome = std::sync::Arc::new(welcome);
                for &j in &joined {
                    let _ = comm.send(
                        j,
                        Message::JOIN_WELCOME_TAG,
                        Payload::dense_shared(welcome.clone()),
                    );
                }
            }
            return Ok(Recovery {
                members,
                rollback_iter,
                coordinator: me,
                joined,
            });
        }
        // Worker: report liveness to the candidate, then wait for the
        // membership announcement. Either step failing means the
        // candidate is dead or unreachable — walk on to the next one.
        let alive = vec![my_latest_iter as f32, my_anchor_iter as f32];
        if let Err(e) = comm.send(candidate, tag_alive, Payload::dense(alive)) {
            ft_trace(|| format!("rank {me}: ALIVE send to candidate {candidate} failed: {e:?}"));
            last_err = e;
            continue;
        }
        ft_trace(|| format!("rank {me}: ALIVE sent to candidate {candidate}, awaiting members"));
        // The announcement wait is a poll loop with its own wall
        // deadline rather than a `recv_deadline`: a blocking receive is
        // wall-capped at one receive timeout, but the coordinator may
        // legitimately answer later than that — it enters recovery up to
        // a full receive cap after this rank (failure-detection skew)
        // and then waits up to 2× the timeout collecting ALIVEs. 3×
        // covers the worst case; a dead candidate still resolves
        // instantly through `probe_link`.
        let wall = std::time::Instant::now();
        let cap = Duration::from_millis((timeout.max(1.0) * 3.0) as u64);
        let announcement = loop {
            let down = comm.probe_link(candidate);
            if let Some(msg) = comm.poll_tagged_from(candidate, tag_member) {
                break Ok(msg);
            }
            if down {
                break Err(CommError::Disconnected { peer: candidate });
            }
            if wall.elapsed() >= cap {
                break Err(CommError::timeout(candidate));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        // A malformed announcement, or one that leaves this rank out,
        // counts as none from this candidate.
        let decoded = announcement.and_then(|msg| {
            decode_announcement(&msg.payload, me, comm.size())
                .ok_or_else(|| CommError::timeout(candidate))
        });
        match decoded {
            Ok((rollback_iter, joined, members)) => {
                ft_trace(|| {
                    format!(
                        "rank {me}: announcement from {candidate}: rollback {rollback_iter}, \
                         joined {joined:?}, members {members:?}"
                    )
                });
                return Ok(Recovery {
                    members,
                    rollback_iter,
                    coordinator: candidate,
                    joined,
                });
            }
            Err(e) => {
                ft_trace(|| format!("rank {me}: no announcement from {candidate}: {e:?}"));
                last_err = e;
                continue;
            }
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtopk_all_reduce_over;
    use gtopk_comm::{Cluster, CostModel, FaultPlan};
    use gtopk_sparse::topk_sparse;

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
    fn ft_allreduce_matches_plain_on_full_membership() {
        for p in [2usize, 3, 4, 5, 8] {
            let members: Vec<usize> = (0..p).collect();
            let members_ref = &members;
            let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
                let g = worker_grad(comm.rank(), 64, 7);
                let local = topk_sparse(&g, 4);
                let plain = crate::gtopk_all_reduce(comm, local.clone(), 4).unwrap();
                let ft = gtopk_all_reduce_over(comm, members_ref, local, 4).unwrap();
                (plain, ft)
            });
            for ((pv, pm), (fv, fm, _)) in out {
                assert_eq!(pv, fv, "P={p}");
                assert_eq!(pm, fm);
            }
        }
    }

    #[test]
    fn ft_allreduce_over_a_shrunk_membership() {
        // 5 ranks, rank 2 "dead" (never participates): the other four run
        // the collective over the shrunk member set and agree.
        let members = vec![0usize, 1, 3, 4];
        let members_ref = &members;
        let out = Cluster::new(5, CostModel::zero()).run(move |comm| {
            if comm.rank() == 2 {
                return None;
            }
            let g = worker_grad(comm.rank(), 64, 3);
            let local = topk_sparse(&g, 4);
            Some(gtopk_all_reduce_over(comm, members_ref, local, 4).unwrap())
        });
        let (first, _, _) = out[0].clone().unwrap();
        assert!(first.nnz() <= 4 && first.nnz() > 0);
        for (r, o) in out.iter().enumerate() {
            match o {
                None => assert_eq!(r, 2),
                Some((v, _, _)) => assert_eq!(v, &first, "rank {r}"),
            }
        }
    }

    #[test]
    fn epoch_stamped_tags_separate_generations() {
        // The same collective at two different epochs must not cross
        // traffic: run epoch 0, bump, run epoch 1 with different data.
        let members = vec![0usize, 1, 2, 3];
        let members_ref = &members;
        let out = Cluster::new(4, CostModel::zero()).run(move |comm| {
            let g0 = worker_grad(comm.rank(), 32, 1);
            let r0 = gtopk_all_reduce_over(comm, members_ref, topk_sparse(&g0, 3), 3).unwrap();
            comm.set_epoch(1);
            let g1 = worker_grad(comm.rank(), 32, 2);
            let r1 = gtopk_all_reduce_over(comm, members_ref, topk_sparse(&g1, 3), 3).unwrap();
            (r0, r1)
        });
        for (r0, r1) in &out {
            assert_eq!(r0.0, out[0].0 .0);
            assert_eq!(r1.0, out[0].1 .0);
            assert_ne!(r0.0, r1.0, "different inputs must give different sums");
        }
    }

    #[test]
    fn recovery_agrees_on_survivors_and_min_checkpoint() {
        // Rank 1 crashes at step 0; the others detect it in the
        // collective, recover, and agree on {0, 2, 3} with the minimum
        // checkpoint. Checkpoint iters differ per rank on purpose.
        let out = Cluster::new(4, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(5).with_crash(1, 0))
            .run(|comm| {
                if comm.begin_step().is_err() {
                    return None; // rank 1 dies silently
                }
                let members: Vec<usize> = (0..4).collect();
                let g = worker_grad(comm.rank(), 32, 1);
                let local = topk_sparse(&g, 3);
                let err = gtopk_all_reduce_over(comm, &members, local, 3)
                    .expect_err("collective over a dead member must fail");
                assert!(
                    matches!(
                        err,
                        CommError::Disconnected { .. }
                            | CommError::Aborted { .. }
                            | CommError::Timeout { .. }
                    ),
                    "unexpected error {err}"
                );
                let ckpt = 10 + comm.rank() as u64; // min is rank 0's 10
                Some(recover(comm, &members, ckpt, ckpt, &[]).unwrap())
            });
        for (r, o) in out.iter().enumerate() {
            match o {
                None => assert_eq!(r, 1),
                Some(rec) => {
                    assert_eq!(rec.members, vec![0, 2, 3], "rank {r}");
                    assert_eq!(rec.rollback_iter, 10);
                }
            }
        }
    }

    #[test]
    fn recovery_cascades_to_the_next_candidate_when_rank0_dies() {
        // The lowest rank is the crashed one, so the coordinator role
        // falls to rank 1.
        let out = Cluster::new(4, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(6).with_crash(0, 0))
            .run(|comm| {
                if comm.begin_step().is_err() {
                    return None;
                }
                let members: Vec<usize> = (0..4).collect();
                let g = worker_grad(comm.rank(), 32, 2);
                let local = topk_sparse(&g, 3);
                gtopk_all_reduce_over(comm, &members, local, 3)
                    .expect_err("collective over a dead member must fail");
                Some(recover(comm, &members, 7, 7, &[]).unwrap())
            });
        for (r, o) in out.iter().enumerate() {
            match o {
                None => assert_eq!(r, 0),
                Some(rec) => {
                    assert_eq!(rec.members, vec![1, 2, 3], "rank {r}");
                    assert_eq!(rec.rollback_iter, 7);
                }
            }
        }
    }

    #[test]
    fn join_request_grows_the_membership() {
        // Ranks 0-3 are the current membership; rank 4 acts as a joiner:
        // it broadcasts JOIN_REQ (newest durable generation 40) and polls
        // for the WELCOME. The members agree on the grown set with
        // rollback = min(anchor=50, joiner 40) = 40, and run a collective
        // over all five ranks at the new epoch.
        let out = Cluster::new(5, CostModel::zero()).run(|comm| {
            let prev: Vec<usize> = (0..4).collect();
            if comm.rank() == 4 {
                for m in &prev {
                    let _ = comm.send(*m, Message::JOIN_REQ_TAG, Payload::Scalar(40.0));
                }
                let welcome = loop {
                    if let Some(msg) = comm.poll_tagged(Message::JOIN_WELCOME_TAG) {
                        break msg;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                };
                let coordinator = welcome.src;
                let wire = welcome.payload.into_dense();
                let epoch = wire[0] as u64;
                let rollback = wire[1] as u64;
                let members: Vec<usize> = wire[2..].iter().map(|&r| r as usize).collect();
                comm.set_epoch(epoch);
                assert_eq!(coordinator, 0);
                assert_eq!(rollback, 40);
                assert_eq!(members, vec![0, 1, 2, 3, 4]);
                let g = worker_grad(4, 32, 9);
                let sum = gtopk_all_reduce_over(comm, &members, topk_sparse(&g, 3), 3).unwrap();
                return (members, rollback, sum.0);
            }
            // Member side: wait until the join request is visible (as the
            // trainer does at a step boundary), then run recovery.
            let joiners = loop {
                let reqs = comm.poll_join_requests(&[4]);
                if !reqs.is_empty() {
                    break reqs;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            };
            assert_eq!(joiners, vec![(4, 40)]);
            let latest = 60 + comm.rank() as u64;
            let rec = recover(comm, &prev, latest, 50, &joiners).unwrap();
            assert_eq!(rec.members, vec![0, 1, 2, 3, 4]);
            assert_eq!(rec.rollback_iter, 40);
            assert_eq!(rec.coordinator, 0);
            assert_eq!(rec.joined, vec![4]);
            let g = worker_grad(comm.rank(), 32, 9);
            let sum = gtopk_all_reduce_over(comm, &rec.members, topk_sparse(&g, 3), 3).unwrap();
            (rec.members, rec.rollback_iter, sum.0)
        });
        for (members, rollback, sum) in &out {
            assert_eq!(members, &vec![0, 1, 2, 3, 4]);
            assert_eq!(*rollback, 40);
            assert_eq!(sum, &out[0].2, "post-join collective must agree");
        }
    }

    #[test]
    fn a_malformed_alive_excludes_its_sender() {
        // Rank 1 answers the coordinator with a scalar and rank 2 with one
        // value instead of `[latest, anchor]`; both are excluded and rank
        // 3's well-formed ALIVE alone joins the coordinator.
        let prev: Vec<usize> = (0..4).collect();
        let prev = &prev;
        let out = Cluster::new(4, CostModel::zero()).run(move |comm| {
            let tag_alive = TAG_ALIVE + epoch_tag_offset(1);
            match comm.rank() {
                1 => comm.send(0, tag_alive, Payload::Scalar(7.0)).unwrap(),
                2 => comm.send(0, tag_alive, Payload::dense(vec![7.0])).unwrap(),
                _ => return Some(recover(comm, prev, 7, 7, &[]).unwrap()),
            }
            None
        });
        for r in [0, 3] {
            let rec = out[r].as_ref().expect("survivor");
            assert_eq!(rec.members, vec![0, 3], "rank {r}");
            assert_eq!((rec.rollback_iter, rec.coordinator), (7, 0));
        }
    }

    #[test]
    fn a_malformed_announcement_or_one_without_the_caller_moves_to_the_next_candidate() {
        // Rank 0 collects the ALIVEs of its round, then announces a
        // scalar to rank 1, a joined count beyond the frame to rank 2 and
        // a member list without rank 3 to rank 3, and exits. Each counts
        // as no announcement: the walk moves on to rank 1, which agrees
        // on {1, 2, 3}.
        let prev: Vec<usize> = (0..4).collect();
        let prev = &prev;
        let out = Cluster::new(4, CostModel::zero()).run(move |comm| {
            if comm.rank() != 0 {
                return Some(recover(comm, prev, 9, 9, &[]).unwrap());
            }
            let off = epoch_tag_offset(1);
            for m in 1..4 {
                while comm.poll_tagged_from(m, TAG_ALIVE + off).is_none() {
                    comm.probe_link(m);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let tag_member = TAG_MEMBERSHIP + off;
            comm.send(1, tag_member, Payload::Scalar(9.0)).unwrap();
            let beyond = vec![9.0, 1e9, 1.0];
            comm.send(2, tag_member, Payload::dense(beyond)).unwrap();
            let without = vec![9.0, 0.0, 0.0, 1.0, 2.0];
            comm.send(3, tag_member, Payload::dense(without)).unwrap();
            None
        });
        assert!(out[0].is_none());
        for (r, rec) in out.iter().enumerate().skip(1) {
            let rec = rec.as_ref().expect("survivor");
            assert_eq!(rec.members, vec![1, 2, 3], "rank {r}");
            assert_eq!((rec.rollback_iter, rec.coordinator), (9, 1), "rank {r}");
            assert!(rec.joined.is_empty());
        }
    }

    #[test]
    fn collective_works_after_recovery() {
        // End-to-end shrink-and-continue at the collective level: fail,
        // recover, and run the next epoch-stamped collective over the
        // survivors on the regenerated plan.
        let out = Cluster::new(4, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(8).with_crash(2, 0))
            .run(|comm| {
                if comm.begin_step().is_err() {
                    return None;
                }
                let members: Vec<usize> = (0..4).collect();
                let g = worker_grad(comm.rank(), 48, 4);
                let local = topk_sparse(&g, 4);
                gtopk_all_reduce_over(comm, &members, local.clone(), 4)
                    .expect_err("must fail with rank 2 dead");
                let rec = recover(comm, &members, 0, 0, &[]).unwrap();
                assert_eq!(rec.members, vec![0, 1, 3]);
                assert_eq!(rec.coordinator, 0);
                assert!(rec.joined.is_empty());
                Some(gtopk_all_reduce_over(comm, &rec.members, local, 4).unwrap())
            });
        let (first, _, _) = out[0].clone().unwrap();
        assert!(first.nnz() > 0);
        for (r, o) in out.iter().enumerate() {
            match o {
                None => assert_eq!(r, 2),
                Some((v, _, _)) => assert_eq!(v, &first, "rank {r}"),
            }
        }
    }
}
