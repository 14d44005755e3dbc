//! Sharded parameter-server gTop-k S-SGD (paper footnote 2: the
//! mechanism "is also applicable to the Parameter Server based
//! distributed SGD").
//!
//! The model is split into `S` contiguous regions by a
//! [`ShardMap`]; shard `s` is hosted on rank `members[s]` (servers are
//! co-located with workers, round-robin if the membership shrinks below
//! `S`). Every iteration:
//!
//! 1. **Push** — each worker extracts the top-`k_s` coordinates of its
//!    error-feedback residual *within every shard region* (stratified
//!    selection, budgets apportioned by [`ShardMap::budgets`]) and sends
//!    each region's k-sparse slice to its host. Wire size per push is
//!    `2·k_s` — a static function of the configuration, which is what
//!    lets `gtopk_perfmodel::ps_plan_ms` replay executed time exactly.
//! 2. **Serve** — each host folds the pushes of its region in ascending
//!    source order (the same deterministic fold the old star server
//!    used), reselects the top-`k_s` of the summed region, and sends the
//!    *dense* selected region (`len_s` elements) back to every worker.
//!    Servers are stateless between rounds: all persistent state (the
//!    residual) lives on the workers, so a dead shard host is recovered
//!    by the ordinary rollback path and the shard simply remaps.
//! 3. **Pull** — each worker rebuilds the global sparse update from the
//!    shard replies (in shard order, so indices stay sorted), returns
//!    globally-rejected coordinates to its residual, scales by `1/P`,
//!    and applies the update.
//!
//! [`PsVariant::BulkSync`] applies round `t`'s pull in step `t` — at
//! `S = 1` this is exactly the old single-server star baseline (its loss
//! trajectory is pinned bit-for-bit in `tests/ps_parity.rs`).
//! [`PsVariant::WaitFree`] pipelines: the worker defers each round's
//! pull and applies round `t − B` at step `t` (`B` = the staleness
//! bound), so push traffic of the next rounds overlaps the servers'
//! previous fold. No worker ever applies a shard update older than `B`
//! rounds — the bound holds *by construction* and is asserted in
//! `tests/ps_staleness.rs` — and replicas stay bit-identical because
//! every worker defers identically.

use crate::ft::epoch_tag_offset;
use gtopk_comm::{Communicator, Message, Payload, Result, ShardMap};
use gtopk_nn::{Model, MomentumSgd};
use gtopk_sparse::{topk_indices_into, Residual, SparseVec, TopkScratch};
use std::collections::VecDeque;

/// Per-shard push tag band (`+ s` for shard `s`, plus the membership
/// epoch's tag offset). Offsets 2560.. keep clear of the collective,
/// recovery and zoo bands while staying inside one epoch stride.
const TAG_PS_PUSH: u32 = Message::COLLECTIVE_TAG_BASE + 2560;
/// Per-shard pull (dense shard update) tag band.
const TAG_PS_PULL: u32 = Message::COLLECTIVE_TAG_BASE + 3328;

/// Execution discipline of the parameter-server mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PsVariant {
    /// Classic bulk-synchronous parallel: every step pushes, waits for
    /// all shard replies, and applies them before the next step.
    BulkSync,
    /// Wait-free pipelining with a hard staleness bound: step `t`
    /// applies the shard updates of round `t − staleness_bound`.
    /// `staleness_bound = 0` degenerates to [`PsVariant::BulkSync`].
    WaitFree {
        /// Maximum age, in rounds, of the shard updates a worker may
        /// apply (and the pipeline depth of deferred pulls).
        staleness_bound: usize,
    },
}

/// Configuration of the parameter-server execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PsConfig {
    /// Number of server shards `S` (each owning one contiguous model
    /// region, hosted on `members[s % P]`).
    pub shards: usize,
    /// Bulk-synchronous or bounded-staleness execution.
    pub variant: PsVariant,
}

impl PsConfig {
    /// Bulk-synchronous sharded PS.
    pub fn bulk_sync(shards: usize) -> Self {
        PsConfig {
            shards,
            variant: PsVariant::BulkSync,
        }
    }

    /// Wait-free sharded PS with the given staleness bound.
    pub fn wait_free(shards: usize, staleness_bound: usize) -> Self {
        PsConfig {
            shards,
            variant: PsVariant::WaitFree { staleness_bound },
        }
    }

    /// The staleness bound (0 for bulk-synchronous execution).
    pub fn staleness_bound(&self) -> usize {
        match self.variant {
            PsVariant::BulkSync => 0,
            PsVariant::WaitFree { staleness_bound } => staleness_bound,
        }
    }
}

/// One worker's half-finished round: the combined local contribution
/// (for error-feedback put-back once the global selection is known) and
/// the selected dense regions of the shards this rank hosts (its own
/// "replies to itself", never sent over the wire).
struct PendingRound {
    combined_local: SparseVec,
    own_replies: Vec<(usize, Vec<f32>)>,
}

/// Push phase of one PS round: send this worker's per-shard k-sparse
/// slices to their hosts, and — for every shard *this* rank hosts —
/// fold all pushes in ascending source order, reselect the region's
/// top-`k_s`, and send the dense selected region to every other worker.
///
/// `locals[s]` must carry global (full-dim) indices confined to
/// `map.range(s)` with exactly `budgets[s]` entries (zero-padded by the
/// stratified extraction when a region runs out of nonzeros), so every
/// message size is statically known. Returns the selected dense regions
/// of the shards hosted here, to be consumed by [`ps_pull_round`].
///
/// # Errors
///
/// Propagates transport errors (a dead shard host surfaces here and
/// takes the ordinary recovery path).
pub fn ps_push_round(
    comm: &mut Communicator,
    members: &[usize],
    map: &ShardMap,
    budgets: &[usize],
    locals: Vec<SparseVec>,
) -> Result<Vec<(usize, Vec<f32>)>> {
    let me = comm.rank();
    let off = epoch_tag_offset(comm.epoch());
    debug_assert_eq!(locals.len(), map.num_shards());
    let mut hosted: Vec<(usize, SparseVec)> = Vec::new();
    for (s, local_s) in locals.into_iter().enumerate() {
        debug_assert_eq!(local_s.nnz(), budgets[s], "shard {s} push must be padded");
        let host = map.host(s, members);
        if host == me {
            hosted.push((s, local_s));
        } else {
            comm.send(host, TAG_PS_PUSH + s as u32 + off, Payload::sparse(local_s))?;
        }
    }

    let mut scratch = TopkScratch::new();
    let mut sel_idx: Vec<u32> = Vec::new();
    let mut own_replies = Vec::with_capacity(hosted.len());
    for (s, local_s) in hosted {
        let range = map.range(s);
        let start = range.start;
        let mut region = vec![0.0f32; range.len()];
        // Deterministic fold: own contribution first, then every other
        // member ascending — per coordinate the same addition sequence
        // as the old star server's sparse fold.
        local_s.add_into_region(start, &mut region);
        for &src in members {
            if src == me {
                continue;
            }
            let msg = comm.recv(src, TAG_PS_PUSH + s as u32 + off)?;
            msg.payload
                .into_sparse()
                .add_into_region(start, &mut region);
        }
        // Reselect the region's top-k_s of the sum; the reply is the
        // *dense* selected region (zeros everywhere else), so the pull
        // wire cost is the honest `len_s` elements of a dense shard.
        topk_indices_into(&region, budgets[s], &mut scratch, &mut sel_idx);
        let mut selected = vec![0.0f32; region.len()];
        for &i in &sel_idx {
            selected[i as usize] = region[i as usize];
        }
        let shared = std::sync::Arc::new(selected);
        for &dst in members {
            if dst != me {
                comm.send(
                    dst,
                    TAG_PS_PULL + s as u32 + off,
                    Payload::dense_shared(std::sync::Arc::clone(&shared)),
                )?;
            }
        }
        let selected = std::sync::Arc::try_unwrap(shared).unwrap_or_else(|a| a.as_ref().clone());
        own_replies.push((s, selected));
    }
    Ok(own_replies)
}

/// Pull phase of one PS round: receive every shard's dense selected
/// region (in ascending shard order; shards hosted here use the local
/// copy from [`ps_push_round`]) and rebuild the *unscaled* global
/// sparse update — indices stay sorted because shard regions are
/// contiguous and ascending.
///
/// # Errors
///
/// Propagates transport errors.
pub fn ps_pull_round(
    comm: &mut Communicator,
    members: &[usize],
    map: &ShardMap,
    own_replies: &[(usize, Vec<f32>)],
) -> Result<SparseVec> {
    let me = comm.rank();
    let off = epoch_tag_offset(comm.epoch());
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    for s in 0..map.num_shards() {
        let start = map.range(s).start as u32;
        let host = map.host(s, members);
        let append = |region: &[f32], indices: &mut Vec<u32>, values: &mut Vec<f32>| {
            for (i, &v) in region.iter().enumerate() {
                if v != 0.0 {
                    indices.push(start + i as u32);
                    values.push(v);
                }
            }
        };
        if host == me {
            let (_, region) = own_replies
                .iter()
                .find(|(sh, _)| *sh == s)
                .expect("hosted shard reply retained by the push phase");
            append(region, &mut indices, &mut values);
        } else {
            let msg = comm.recv(host, TAG_PS_PULL + s as u32 + off)?;
            append(msg.payload.as_dense(), &mut indices, &mut values);
        }
    }
    Ok(SparseVec::from_sorted(map.dim(), indices, values))
}

/// The per-rank parameter-server execution engine: owns the worker's
/// error-feedback residual and (in wait-free mode) the pipeline of
/// deferred rounds. Plugged into the trainer's `StepEngine` as the
/// execution mode beside the bucketed all-reduce engine.
pub struct PsEngine {
    cfg: PsConfig,
    residual: Residual,
    pending: VecDeque<PendingRound>,
}

impl PsEngine {
    /// A fresh engine for a `dim`-parameter model.
    pub fn new(cfg: PsConfig, dim: usize) -> Self {
        PsEngine {
            cfg,
            residual: Residual::new(dim),
            pending: VecDeque::new(),
        }
    }

    /// The configured execution variant.
    pub fn config(&self) -> &PsConfig {
        &self.cfg
    }

    /// Age, in rounds, of the oldest pushed-but-unapplied round — the
    /// observable the bounded-staleness invariant is stated over. Always
    /// `0` for bulk-synchronous execution; never exceeds the staleness
    /// bound in wait-free mode.
    pub fn lag(&self) -> usize {
        self.pending.len()
    }

    /// The effective shard count under the current membership (shards
    /// never outnumber live members, so each host owns at most
    /// `ceil(S/P)` regions and `S = P` keeps one shard per rank).
    fn effective_shards(&self, members: &[usize]) -> usize {
        self.cfg.shards.min(members.len())
    }

    /// One PS round: accumulate `src` into the residual, stratified
    /// push, and apply every round older than the staleness bound
    /// (bulk-sync: this very round). Returns the applied non-zero count.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; the caller (trainer) rolls back via
    /// the ordinary checkpoint recovery, which restores the residual and
    /// drops the half-finished pipeline.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        src: &[f32],
        k: usize,
        opt: &mut MomentumSgd,
        model: &mut dyn Model,
    ) -> Result<u64> {
        let map = ShardMap::new(self.residual.dim(), self.effective_shards(members));
        let budgets = map.budgets(k);
        self.residual.accumulate(src);
        let mut locals = Vec::with_capacity(map.num_shards());
        let (mut idx, mut val) = (Vec::new(), Vec::new());
        for (s, &budget) in budgets.iter().enumerate() {
            let l = self.residual.extract_topk_range(map.range(s), budget);
            idx.extend_from_slice(l.indices());
            val.extend_from_slice(l.values());
            locals.push(l);
        }
        let combined_local = SparseVec::from_sorted(self.residual.dim(), idx, val);
        let own_replies = ps_push_round(comm, members, &map, &budgets, locals)?;
        self.pending.push_back(PendingRound {
            combined_local,
            own_replies,
        });

        let mut applied = 0u64;
        while self.pending.len() > self.cfg.staleness_bound() {
            applied += self.apply_oldest(comm, members, &map, opt, model)?;
        }
        Ok(applied)
    }

    /// Applies every still-deferred round (wait-free mode after the last
    /// training step), leaving no gradient mass stranded in flight.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn drain(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        opt: &mut MomentumSgd,
        model: &mut dyn Model,
    ) -> Result<u64> {
        let map = ShardMap::new(self.residual.dim(), self.effective_shards(members));
        let mut applied = 0u64;
        while !self.pending.is_empty() {
            applied += self.apply_oldest(comm, members, &map, opt, model)?;
        }
        Ok(applied)
    }

    fn apply_oldest(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        map: &ShardMap,
        opt: &mut MomentumSgd,
        model: &mut dyn Model,
    ) -> Result<u64> {
        let round = self.pending.pop_front().expect("caller checked non-empty");
        let mut global = ps_pull_round(comm, members, map, &round.own_replies)?;
        // Identical error-feedback discipline to the allreduce family:
        // locally-selected coordinates the global selection rejected go
        // back into the residual; nothing is silently dropped.
        self.residual
            .put_back_unselected(&round.combined_local, global.indices());
        global.scale(1.0 / members.len() as f32);
        let nnz = global.nnz() as u64;
        opt.step_sparse(model, &global);
        Ok(nnz)
    }

    /// Dense view of the residual, for checkpointing.
    pub fn residual_dense(&self) -> &[f32] {
        self.residual.dense()
    }

    /// Restores the residual from a checkpoint. Only valid at a round
    /// boundary with an empty pipeline (checkpoints and rollback are
    /// bulk-sync-only, where that always holds).
    pub fn restore_residual(&mut self, saved: &[f32]) {
        assert!(
            self.pending.is_empty() || saved.len() == self.residual.dim(),
            "restore with rounds in flight"
        );
        self.pending.clear();
        self.residual.clear();
        self.residual.accumulate(saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_comm::{Cluster, CostModel};
    use gtopk_sparse::topk_sparse;

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

    /// Runs one BulkSync push+pull round from fresh residuals and
    /// returns each rank's unscaled global update.
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
            let own = ps_push_round(comm, &members, &map, &budgets, locals).unwrap();
            ps_pull_round(comm, &members, &map, &own).unwrap()
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
                let own = ps_push_round(comm, &members, &map, &budgets, locals).unwrap();
                ps_pull_round(comm, &members, &map, &own).unwrap();
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
