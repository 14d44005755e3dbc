//! The traced step loop: the same calls, in the same order, that
//! `gtopk`'s `run_rank` → `StepEngine::step` → `GtopkAggregator::aggregate`
//! → `gtopk_all_reduce_over` make for a fault-free serial gTop-k run with
//! the exact selector — but made from here, through the layers' public
//! functions, with a span around each. `tests/replica.rs` pins it to the
//! product path bit for bit, so a refactor that changes the product's call
//! sequence fails that test instead of silently mis-attributing time.

use crate::timed::fingerprint;
use crate::trace::{Span, Tracer};
use gtopk::ft::epoch_tag_offset;
use gtopk::{Selector, SelectorState, TrainConfig};
use gtopk_comm::{
    execute_plan, CollectivePlan, CommStats, Communicator, Message, Payload, PlanOps, Result,
};
use gtopk_data::{shard_indices, BatchIter, Dataset};
use gtopk_nn::{softmax_cross_entropy, Model, MomentumSgd};
use gtopk_sparse::{topk_merge_split_into, Mask, MergeScratch, Residual, SparseVec};
use std::sync::Arc;
use std::time::Instant;

// The product's tag windows (private there; any distinct windows match
// messages the same way).
const TAG_TREE: u32 = Message::COLLECTIVE_TAG_BASE + 256;
const TAG_SBCAST: u32 = Message::COLLECTIVE_TAG_BASE + 1536;

/// What one rank's traced loop produced.
#[derive(Debug)]
pub struct TracedRank {
    /// Every span the rank recorded, parents before children.
    pub spans: Vec<Span>,
    /// Fingerprint of the final parameters.
    pub fingerprint: u64,
    /// The rank's simulated clock when the loop ended, ms.
    pub sim_ms: f64,
    /// The rank's communication counters when the loop ended.
    pub stats: CommStats,
    /// Buffer-pool misses after the warm-up steps.
    pub pool_misses_after_warmup: u64,
    /// Summed non-zero count of the applied updates.
    pub update_nnz: u64,
}

/// `Communicator::send` under a `comm.send` span.
fn traced_send(
    tr: &mut Tracer,
    comm: &mut Communicator,
    peer: usize,
    tag: u32,
    payload: Payload,
) -> Result<()> {
    let span = tr.open("comm.send", comm.now_ms());
    let elems = payload.wire_elems() as u64;
    let sent = comm.send(peer, tag, payload);
    tr.close(span, comm.now_ms(), elems);
    sent
}

/// `Communicator::recv` under a `comm.recv` span.
fn traced_recv(tr: &mut Tracer, comm: &mut Communicator, peer: usize, tag: u32) -> Result<Payload> {
    let span = tr.open("comm.recv", comm.now_ms());
    let received = comm.recv(peer, tag);
    let elems = received
        .as_ref()
        .map_or(0, |msg| msg.payload.wire_elems() as u64);
    tr.close(span, comm.now_ms(), elems);
    Ok(received?.payload)
}

/// The `⊤`-reduction's per-exchange data movement (the product's
/// `TreeOps`), with spans.
struct TreeOps<'a> {
    acc: SparseVec,
    scratch: MergeScratch,
    merged: SparseVec,
    round_rej: SparseVec,
    rejected: SparseVec,
    rej_swap: SparseVec,
    dim: usize,
    k: usize,
    tr: &'a mut Tracer,
}

impl TreeOps<'_> {
    fn merge_in(&mut self, other: &SparseVec, sim_ms: f64) {
        let span = self.tr.open("sparse.merge", sim_ms);
        let entries = (self.acc.nnz() + other.nnz()) as u64;
        topk_merge_split_into(
            &self.acc,
            other,
            self.k,
            &mut self.scratch,
            &mut self.merged,
            &mut self.round_rej,
        );
        std::mem::swap(&mut self.acc, &mut self.merged);
        self.rejected.add_into(&self.round_rej, &mut self.rej_swap);
        std::mem::swap(&mut self.rejected, &mut self.rej_swap);
        self.tr.close(span, sim_ms, entries);
    }
}

impl PlanOps for TreeOps<'_> {
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let outgoing = std::mem::replace(&mut self.acc, SparseVec::empty(self.dim));
        traced_send(self.tr, comm, peer, tag, Payload::sparse(outgoing))
    }

    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let other = traced_recv(self.tr, comm, peer, tag)?.into_sparse();
        self.merge_in(&other, comm.now_ms());
        comm.pool().put_sparse(other);
        Ok(())
    }
}

/// The broadcast's data movement (the product's `BcastOps`), with spans.
struct BcastOps<'a> {
    shared: Arc<SparseVec>,
    tr: &'a mut Tracer,
}

impl PlanOps for BcastOps<'_> {
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let payload = Payload::sparse_shared(self.shared.clone());
        traced_send(self.tr, comm, peer, tag, payload)
    }

    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        self.shared = traced_recv(self.tr, comm, peer, tag)?.into_sparse_arc();
        Ok(())
    }
}

/// gTopKAllReduce over the full membership on the binomial plans:
/// returns `(global top-k, this rank's merge rejects)`.
fn traced_all_reduce(
    comm: &mut Communicator,
    local: SparseVec,
    k: usize,
    tr: &mut Tracer,
) -> Result<(SparseVec, SparseVec)> {
    let p = comm.size();
    let me = comm.rank();
    let dim = local.dim();
    let tag_off = epoch_tag_offset(comm.epoch());
    let topology = gtopk::Topology::Binomial;

    let mut ops = TreeOps {
        acc: local,
        scratch: comm.pool().take_scratch(),
        merged: comm.pool().take_sparse(dim),
        round_rej: comm.pool().take_sparse(dim),
        rejected: comm.pool().take_sparse(dim),
        rej_swap: comm.pool().take_sparse(dim),
        dim,
        k,
        tr,
    };
    if ops.acc.nnz() > k {
        ops.merge_in(&SparseVec::empty(dim), comm.now_ms());
    }
    let reduce = CollectivePlan::reduce(topology, p);
    execute_plan(comm, &reduce, me, TAG_TREE + tag_off, |pos| pos, &mut ops)?;
    comm.pool().put_scratch(ops.scratch);
    comm.pool().put_sparse(ops.merged);
    comm.pool().put_sparse(ops.round_rej);
    comm.pool().put_sparse(ops.rej_swap);
    let (reduced, rejected, tr) = (ops.acc, ops.rejected, ops.tr);

    if p == 1 {
        return Ok((reduced, rejected));
    }
    let bcast = CollectivePlan::broadcast(topology, p, topology.reduce_root(p));
    let mut ops = BcastOps {
        shared: Arc::new(reduced),
        tr,
    };
    execute_plan(comm, &bcast, me, TAG_SBCAST + tag_off, |pos| pos, &mut ops)?;
    let global = match Arc::try_unwrap(ops.shared) {
        Ok(v) => v,
        Err(shared) => {
            let mut owned = comm.pool().take_sparse(shared.dim());
            owned.copy_from(&shared);
            owned
        }
    };
    Ok((global, rejected))
}

/// Runs `cfg.epochs` epochs of gTop-k S-SGD on this rank, recording
/// spans against `origin`; the first `warmup` steps only count towards
/// [`TracedRank::pool_misses_after_warmup`]'s baseline.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics if `cfg` asks for anything but the fault-free serial gTop-k
/// path with the exact selector on the binomial topology.
pub fn traced_rank<M: Model>(
    cfg: &TrainConfig,
    comm: &mut Communicator,
    mut model: M,
    data: &dyn Dataset,
    warmup: usize,
    origin: Instant,
) -> Result<TracedRank> {
    assert!(
        cfg.algorithm == gtopk::Algorithm::GTopK
            && cfg.selector == Selector::Exact
            && cfg.topology == gtopk::Topology::Binomial
            && !cfg.fault_tolerant()
            && !cfg.momentum_correction
            && cfg.clip_norm.is_none()
            && cfg.compute_cost.is_none()
            && cfg.overlap.is_none()
            && cfg.ps.is_none()
            && cfg.checkpoint_dir.is_none(),
        "the traced loop replicates the plain gTop-k path only"
    );
    assert_eq!(comm.size(), cfg.workers, "communicator size mismatch");
    let p = comm.size();
    let m = model.num_params();
    let ipe = (data.len() / p) / cfg.batch_per_worker;
    let total = cfg.epochs * ipe;
    let mut opt = MomentumSgd::new(m, cfg.lr.lr(0), cfg.momentum);
    let mut residual = Residual::new(m);
    let mut select = SelectorState::new(cfg.selector, comm.rank());
    let shard = shard_indices(data.len(), comm.rank(), p);
    let mut batches = BatchIter::new(shard, cfg.batch_per_worker, cfg.data_seed);
    let mut tr = Tracer::new(origin, comm.rank(), total * (12 + 4 * p));
    let mut update_nnz = 0u64;
    let mut misses_at_warmup = 0u64;

    for it in 0..total {
        if it == warmup {
            misses_at_warmup = comm.pool_stats().misses;
        }
        let epoch = it / ipe;
        opt.set_lr(cfg.lr.lr(epoch));
        let k = cfg.density.k(epoch, m);
        tr.set_step(it);
        let step = tr.open("core.step", comm.now_ms());

        let span = tr.open("data.batch", comm.now_ms());
        let idx = batches
            .next_batch()
            .expect("iters_per_epoch fits every shard")
            .to_vec();
        let (x, ys) = data.batch(&idx);
        tr.close(span, comm.now_ms(), 0);

        let span = tr.open("nn.forward", comm.now_ms());
        model.zero_grads();
        let logits = model.forward(&x, true);
        let (_loss, grad) = softmax_cross_entropy(&logits, &ys);
        tr.close(span, comm.now_ms(), 0);

        let span = tr.open("nn.backward", comm.now_ms());
        model.backward(&grad);
        tr.close(span, comm.now_ms(), 0);

        let span = tr.open("nn.flat_grads", comm.now_ms());
        let g = model.flat_grads();
        tr.close(span, comm.now_ms(), 0);

        let span = tr.open("sparse.select", comm.now_ms());
        let local = select.accumulate_extract(&mut residual, &g, k);
        tr.close(span, comm.now_ms(), m as u64);

        let span = tr.open("core.allreduce", comm.now_ms());
        let reduced = traced_all_reduce(comm, local.clone(), k, &mut tr);
        tr.close(span, comm.now_ms(), 0);
        let (mut global, tree_rejects) = reduced?;

        // Buffers are freed where the product frees them (the aggregator's
        // locals when `aggregate` returns, the update when the engine's
        // step returns, the gradient when the loop body ends), so the
        // allocator sees the same sequence.
        let span = tr.open("sparse.putback", comm.now_ms());
        let gmask = Mask::of_sparse(&global);
        comm.pool().put_sparse(tree_rejects);
        let (kept, rejected) = local.partition_by(&gmask);
        residual.put_back(&rejected);
        global.scale(1.0 / p as f32);
        drop((rejected, kept, gmask, local));
        tr.close(span, comm.now_ms(), 0);

        update_nnz += global.nnz() as u64;
        let span = tr.open("nn.opt_apply", comm.now_ms());
        opt.step_sparse(&mut model, &global);
        drop(global);
        tr.close(span, comm.now_ms(), 0);

        if (it + 1) % ipe == 0 {
            batches.next_epoch();
        }
        drop((g, grad, logits, ys, x, idx));
        tr.close(step, comm.now_ms(), 0);
    }

    Ok(TracedRank {
        spans: tr.into_spans(),
        fingerprint: fingerprint(&model.flat_params()),
        sim_ms: comm.now_ms(),
        stats: comm.stats(),
        pool_misses_after_warmup: comm.pool_stats().misses - misses_at_warmup,
        update_nnz,
    })
}
