//! Sharded parameter-server gTop-k S-SGD (paper footnote 2: the
//! mechanism "is also applicable to the Parameter Server based
//! distributed SGD").
//!
//! The model is split into `S` contiguous regions by a [`ShardMap`];
//! shard `s` is hosted on member `members[s]` (servers are co-located with
//! workers, and `S` is capped at the membership, so a shrunk membership
//! re-hosts the shards on the survivors). Every iteration is one
//! bulk-synchronous round of two [`CollectivePlan`]s, both run by
//! [`execute_plan`] over the member positions:
//!
//! 1. **Push** ([`CollectivePlan::ps_push`]) — each worker extracts the
//!    top-`k_s` coordinates of its error-feedback residual *within every
//!    shard region* (stratified selection, budgets apportioned by
//!    [`ShardMap::budgets`]) and sends each region's k-sparse slice to its
//!    host. Wire size per push is `2·k_s` — a static function of the
//!    configuration, which is what lets `gtopk_perfmodel::ps_plan_ms`
//!    price the round on the plan clock, bit for bit.
//! 2. **Serve** — each host folds the pushes of its region, its own first
//!    and then by ascending source (the same deterministic fold the old
//!    star server used), and reselects the top-`k_s` of the sum. Servers
//!    are stateless between rounds: all persistent state (the residual)
//!    lives on the workers, so a dead shard host is recovered by the
//!    ordinary rollback path and the shard simply remaps.
//! 3. **Reply** ([`CollectivePlan::ps_reply`]) — each host sends the
//!    *dense* selected region (`len_s` elements) to every other worker.
//!    Each worker rebuilds the global sparse update in shard order (so
//!    indices stay sorted), returns globally-rejected coordinates to its
//!    residual, scales by `1/P`, and applies the update.
//!
//! At `S = 1` this is exactly the old single-server star baseline (its
//! loss trajectory is pinned bit-for-bit in `tests/ps_parity.rs`).
//!
//! The round is a collective, not an engine: `mode ps` runs the ordinary
//! step ([`crate::Aggregator`]) with [`crate::Collective::Sharded`] as
//! its collective. The worker's residual, the stratified selection, the
//! put-back of what lost, the `1/P` averaging, the apply and the
//! checkpoint are the all-reduce step's own.

use crate::ft::epoch_tag_offset;
use gtopk_comm::{
    execute_plan, CollectivePlan, Communicator, Message, Payload, PlanOps, Result, ShardMap,
};
use gtopk_sparse::{topk_indices_into, SparseVec, TopkScratch};
use std::sync::Arc;

/// Push-plan tag (plus the membership epoch's tag offset). Offsets
/// 2560.. keep clear of the collective, recovery and zoo bands while
/// staying inside one epoch stride.
const TAG_PS_PUSH: u32 = Message::COLLECTIVE_TAG_BASE + 2560;
/// Reply-plan tag.
const TAG_PS_PULL: u32 = Message::COLLECTIVE_TAG_BASE + 3328;

/// Configuration of the parameter-server execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsConfig {
    /// Number of server shards `S` (each owning one contiguous model
    /// region, hosted on `members[s]`).
    pub shards: usize,
}

impl PsConfig {
    /// Bulk-synchronous sharded PS with `shards` shards.
    pub fn bulk_sync(shards: usize) -> Self {
        PsConfig { shards }
    }
}

/// This rank's position in `members`.
fn position(comm: &Communicator, members: &[usize]) -> usize {
    members
        .iter()
        .position(|&r| r == comm.rank())
        .expect("a PS round runs on a member")
}

/// The push plan's data movement: a worker sends each host its slice of
/// the host's shard, in shard order; a host folds what it receives into
/// its region, in ascending source order.
struct Push {
    sends: std::vec::IntoIter<SparseVec>,
    start: usize,
    region: Vec<f32>,
}

impl PlanOps for Push {
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let slice = self.sends.next().expect("one push per other host");
        comm.send(peer, tag, Payload::sparse(slice))
    }

    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let msg = comm.recv(peer, tag)?;
        msg.payload
            .into_sparse()
            .add_into_region(self.start, &mut self.region);
        Ok(())
    }
}

/// The reply plan's data movement: a host sends its shard's selection to
/// every other worker; a worker keeps the other hosts' replies, which
/// arrive in shard order.
struct Reply {
    own: Option<Arc<Vec<f32>>>,
    received: Vec<Arc<Vec<f32>>>,
}

impl PlanOps for Reply {
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let own = self.own.as_ref().expect("only hosts reply");
        comm.send(peer, tag, Payload::dense_shared(Arc::clone(own)))
    }

    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let msg = comm.recv(peer, tag)?;
        self.received.push(msg.payload.into_dense_arc());
        Ok(())
    }
}

/// Push half of one PS round: runs the [`CollectivePlan::ps_push`] plan
/// over `members`, and — if this rank hosts a shard — folds the region
/// (own slice first, then ascending source) and reselects its top-`k_s`.
///
/// `locals[s]` must carry global (full-dim) indices confined to
/// `map.range(s)` with exactly `budgets[s]` entries (zero-padded by the
/// stratified extraction when a region runs out of nonzeros), so every
/// message size is statically known. Returns the dense selected region
/// of the shard hosted here, to be sent by [`ps_pull_round`].
///
/// # Errors
///
/// Propagates transport errors (a dead shard host surfaces here and
/// takes the ordinary recovery path).
///
/// # Panics
///
/// Panics if the map has more shards than `members`.
pub fn ps_push_round(
    comm: &mut Communicator,
    members: &[usize],
    map: &ShardMap,
    budgets: &[usize],
    locals: Vec<SparseVec>,
) -> Result<Option<Arc<Vec<f32>>>> {
    let me = position(comm, members);
    let shards = map.num_shards();
    debug_assert_eq!(locals.len(), shards);
    let mut sends = Vec::with_capacity(shards);
    let (mut start, mut region) = (0, Vec::new());
    for (s, local) in locals.into_iter().enumerate() {
        debug_assert_eq!(local.nnz(), budgets[s], "shard {s} push must be padded");
        if s == me {
            start = map.range(s).start;
            region = vec![0.0f32; map.len(s)];
            local.add_into_region(start, &mut region);
        } else {
            sends.push(local);
        }
    }
    let plan = CollectivePlan::ps_push(members.len(), shards);
    let mut ops = Push {
        sends: sends.into_iter(),
        start,
        region,
    };
    let tag = TAG_PS_PUSH + epoch_tag_offset(comm.epoch());
    execute_plan(comm, &plan, me, tag, |pos| members[pos], &mut ops)?;
    if me >= shards {
        return Ok(None);
    }
    // Reselect the region's top-k_s of the sum; the reply is the *dense*
    // selected region (zeros everywhere else), so the reply's wire cost
    // is the honest `len_s` elements of a dense shard.
    let region = ops.region;
    let mut sel_idx = Vec::new();
    topk_indices_into(&region, budgets[me], &mut TopkScratch::new(), &mut sel_idx);
    let mut selected = vec![0.0f32; region.len()];
    for &i in &sel_idx {
        selected[i as usize] = region[i as usize];
    }
    Ok(Some(Arc::new(selected)))
}

/// Pull half of one PS round: runs the [`CollectivePlan::ps_reply`] plan
/// (a host sends `own`, its shard's selection from [`ps_push_round`]) and
/// rebuilds the *unscaled* global sparse update from every shard's dense
/// selected region, in shard order — indices stay sorted because shard
/// regions are contiguous and ascending.
///
/// # Errors
///
/// Propagates transport errors.
pub fn ps_pull_round(
    comm: &mut Communicator,
    members: &[usize],
    map: &ShardMap,
    own: &Option<Arc<Vec<f32>>>,
) -> Result<SparseVec> {
    let me = position(comm, members);
    let shards = map.num_shards();
    let plan = CollectivePlan::ps_reply(members.len(), shards);
    let mut ops = Reply {
        own: own.clone(),
        received: Vec::with_capacity(shards),
    };
    let tag = TAG_PS_PULL + epoch_tag_offset(comm.epoch());
    execute_plan(comm, &plan, me, tag, |pos| members[pos], &mut ops)?;
    let mut received = ops.received.into_iter();
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    for s in 0..shards {
        let region = if s == me {
            Arc::clone(own.as_ref().expect("a host keeps its shard's selection"))
        } else {
            received.next().expect("one reply per other host")
        };
        let start = map.range(s).start as u32;
        for (i, &v) in region.iter().enumerate() {
            if v != 0.0 {
                indices.push(start + i as u32);
                values.push(v);
            }
        }
    }
    Ok(SparseVec::from_sorted(map.dim(), indices, values))
}

/// One bulk-synchronous PS round over `members`: [`ps_push_round`], then
/// [`ps_pull_round`]. Returns the *unscaled* global sparse update.
///
/// # Errors
///
/// Propagates transport errors.
pub fn ps_round(
    comm: &mut Communicator,
    members: &[usize],
    map: &ShardMap,
    budgets: &[usize],
    locals: Vec<SparseVec>,
) -> Result<SparseVec> {
    let own = ps_push_round(comm, members, map, budgets, locals)?;
    ps_pull_round(comm, members, map, &own)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};
    use gtopk_sparse::{topk_sparse, Residual};

    fn grad(rank: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| {
                let h = (i as u64 + 29)
                    .wrapping_mul(rank as u64 + 3)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// Runs one PS round from fresh residuals and returns each rank's
    /// unscaled global update.
    fn one_round(p: usize, dim: usize, shards: usize, k: usize) -> Vec<SparseVec> {
        Cluster::new(p, CostModel::zero()).run(move |comm| {
            let members: Vec<usize> = (0..p).collect();
            let map = ShardMap::new(dim, shards);
            let budgets = map.budgets(k);
            let mut residual = Residual::new(dim);
            residual.accumulate(&grad(comm.rank(), dim));
            let locals: Vec<SparseVec> = (0..map.num_shards())
                .map(|s| residual.extract_topk_range(map.range(s), budgets[s]))
                .collect();
            ps_round(comm, &members, &map, &budgets, locals).unwrap()
        })
    }

    #[test]
    fn all_ranks_agree_on_the_global_update() {
        for (p, shards) in [(2, 1), (3, 2), (4, 4), (8, 3)] {
            let out = one_round(p, 96, shards, 9);
            for o in &out[1..] {
                assert_eq!(o, &out[0], "P={p} S={shards}");
            }
        }
    }

    #[test]
    fn single_shard_matches_star_topk_of_exact_sum() {
        // S=1 with fresh residuals: the update must be exactly the
        // top-k of the summed per-rank top-k contributions — the old
        // star server's semantics.
        let (p, dim, k) = (4usize, 64usize, 5usize);
        let out = one_round(p, dim, 1, k);
        let mut sum = SparseVec::empty(dim);
        for r in 0..p {
            let mut res = Residual::new(dim);
            res.accumulate(&grad(r, dim));
            sum = sum.add(&res.extract_topk(k));
        }
        let expect = topk_sparse(&sum.to_dense(), k);
        assert_eq!(out[0].indices(), expect.indices());
        for (a, b) in out[0].values().iter().zip(expect.values()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0));
        }
    }

    #[test]
    fn sharded_update_is_union_of_regional_selections() {
        let (p, dim, shards, k) = (4usize, 60usize, 3usize, 9usize);
        let out = one_round(p, dim, shards, k);
        let map = ShardMap::new(dim, shards);
        let budgets = map.budgets(k);
        // Reference: each server re-selects over the *sum of the pushed
        // per-rank regional top-k_s extracts*, not the exact dense sum.
        let mut dense_sum = vec![0.0f32; dim];
        for r in 0..p {
            let mut res = Residual::new(dim);
            res.accumulate(&grad(r, dim));
            for (s, &budget) in budgets.iter().enumerate() {
                res.extract_topk_range(map.range(s), budget)
                    .add_into_dense(&mut dense_sum);
            }
        }
        for (s, &budget) in budgets.iter().enumerate() {
            let range = map.range(s);
            let region_update: Vec<(u32, f32)> = out[0]
                .iter()
                .filter(|(i, _)| range.contains(&(*i as usize)))
                .collect();
            assert_eq!(region_update.len(), budget, "shard {s} budget");
            let expect = topk_sparse(&dense_sum[range.clone()], budget);
            let got_idx: Vec<u32> = region_update
                .iter()
                .map(|(i, _)| i - range.start as u32)
                .collect();
            assert_eq!(got_idx, expect.indices(), "shard {s} selection");
        }
    }

    #[test]
    fn server_traffic_splits_across_shard_hosts() {
        let (p, dim, k) = (8usize, 4096usize, 64usize);
        let elems = |shards: usize| {
            let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
                let members: Vec<usize> = (0..p).collect();
                let map = ShardMap::new(dim, shards);
                let budgets = map.budgets(k);
                let mut residual = Residual::new(dim);
                residual.accumulate(&grad(comm.rank(), dim));
                let locals: Vec<SparseVec> = (0..map.num_shards())
                    .map(|s| residual.extract_topk_range(map.range(s), budgets[s]))
                    .collect();
                ps_round(comm, &members, &map, &budgets, locals).unwrap();
                comm.stats()
            });
            stats
                .iter()
                .map(|s| s.elems_sent + s.elems_received)
                .max()
                .unwrap()
        };
        let star = elems(1);
        let sharded = elems(8);
        assert!(
            sharded * 3 < star,
            "8-way sharding must shrink the hottest endpoint: {star} -> {sharded}"
        );
    }
}
