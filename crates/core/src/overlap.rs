//! The step engine of every all-reduce run: bucketed steps, executed
//! with compute/communication overlap. A run without `--overlap` is the
//! one-bucket case — the whole backward, then Algorithm 4 over the whole
//! vector.
//!
//! [`crate::pipeline`] *models* the layer-wise schedule analytically; this
//! module *executes* it on the simulated cluster. Backward propagation
//! produces layer gradients from the output layer backwards, so the flat
//! gradient becomes available back-to-front: the engine partitions the
//! flat vector into contiguous buckets (fused to roughly equal parameter
//! mass, MG-WFBP style), and as soon as a bucket's gradient is ready it
//! runs that bucket's [`Aggregator`] step while later buckets are still
//! "computing". The network is a single FIFO channel — each rank issues
//! its bucket collectives in backward order, so a bucket's collective
//! starts at `max(ready, channel_free)` exactly as the analytic model
//! assumes. The engine carries a [`PlanClock`] twin that replays each
//! bucket's collective plans on the analytic α-β clock, so the executed
//! timeline is verifiable against the model *exactly*, for any worker
//! count and topology (the two sparse sums excepted: their twin charges
//! the disjoint-support bound).
//!
//! Per-bucket error feedback: each bucket owns its own [`Residual`]
//! slice and its own step (selection state, schedule caches); rejected
//! values return to the bucket's residual (Algorithm 4 line 10, applied
//! bucket-wise). The moment a bucket's collective lands, the optimizer
//! writes its `−η·v` into the bucket's slice of the spent gradient
//! ([`MomentumSgd::step_range`], [`MomentumSgd::step_dense_range`] for the
//! dense row); one add of that gradient after the last bucket is bit for
//! bit one full-vector step of the combined update.

use crate::aggregator::{Aggregator, Update};
use crate::ckpt::SelectorDump;
use crate::pipeline::{bucket_k, check_timeline_invariants, fuse_layers, LayerCost, LayerTimeline};
use gtopk_comm::{Communicator, CostModel, Result};
use gtopk_nn::{Model, MomentumSgd};
use gtopk_perfmodel::PlanClock;
use gtopk_sparse::Residual;
use std::ops::Range;

/// Simulated per-iteration local costs, used by the timing experiments
/// (Figs. 10–11, Table IV). When present, the engine stages each
/// iteration's buckets on the simulated clock behind `compute_ms` (the
/// GPU's forward+backward, which we cannot measure without the paper's
/// hardware) and `sparsify_ms` (top-k selection). Communication time
/// always comes from the simulated α-β network. `None` leaves the clock
/// driven by communication alone — appropriate for pure convergence
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeCost {
    /// Forward + backward time per iteration, ms.
    pub compute_ms: f64,
    /// Sparsification time per iteration, ms (charged for sparse
    /// algorithms only).
    pub sparsify_ms: f64,
}

impl ComputeCost {
    /// When the share `produced` ∈ [0, 1] of an iteration's backward is
    /// computed and sparsified, from `t0` on a rank slowed by `straggle`.
    fn ready_ms(&self, t0: f64, straggle: f64, produced: f64) -> f64 {
        t0 + straggle * (self.compute_ms * produced) + straggle * (self.sparsify_ms * produced)
    }
}

/// How the flat gradient is partitioned into overlap buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketSpec {
    /// Fuse the model's layers into this many contiguous buckets of
    /// roughly equal parameter mass (at most one bucket per layer).
    Count(usize),
    /// One bucket per parameterized layer (no fusion) — maximum overlap
    /// granularity, maximum per-message α cost.
    PerLayer,
}

/// Configuration of the executed overlap engine. (The collective and its
/// plan topology are the training configuration's: the engine runs the
/// configured step per bucket.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapConfig {
    /// Bucket partition of the flat gradient.
    pub buckets: BucketSpec,
}

impl OverlapConfig {
    /// Overlap with `n` fused buckets.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn buckets(n: usize) -> Self {
        assert!(n >= 1, "need at least one bucket");
        OverlapConfig {
            buckets: BucketSpec::Count(n),
        }
    }

    /// Overlap with one bucket per parameterized layer.
    pub fn per_layer() -> Self {
        OverlapConfig {
            buckets: BucketSpec::PerLayer,
        }
    }
}

/// Aggregate schedule statistics of an overlapped training run (one
/// rank's view), comparing the executed timeline against the analytic
/// pipeline model on the same bucketization.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapStats {
    /// Number of buckets in force.
    pub buckets: usize,
    /// Overlapped iterations executed.
    pub iterations: usize,
    /// Sum over iterations of the executed iteration span (backward
    /// start to last bucket's collective completion), ms.
    pub executed_overlapped_ms: f64,
    /// Sum of the plan-clock twin's predicted iteration spans, ms. The
    /// twin ([`gtopk_perfmodel::PlanClock`]) replays the exact collective
    /// plans on the analytic α-β clock, so this matches the executed
    /// span for **every** worker count and topology, not just powers of
    /// two.
    pub analytic_overlapped_ms: f64,
    /// Sum of the analytic *serial* baselines (full backward, then one
    /// whole-model collective at its closed-form cost — Eq. 7 for
    /// gTopKAllReduce), ms.
    pub analytic_serial_ms: f64,
    /// Largest single-iteration deviation |executed − analytic|, ms
    /// (recorded only on straggle-free ranks at full membership).
    /// Absent fault injection the plan-clock twin reproduces the
    /// executed schedule exactly — for any `P`, any topology; armed
    /// drop/jitter plans legitimately inflate this — retransmits and
    /// jitter are not in the α-β model. Top-k's and the naive gTop-k's
    /// twin charges the sparse sum's disjoint-support bound
    /// ([`gtopk_perfmodel::topk_plan_ms`]): theirs is that bound's slack.
    pub max_abs_dev_ms: f64,
    /// Executed per-bucket timelines of the last iteration, relative to
    /// that iteration's start (same shape as the analytic
    /// [`PipelineReport::timelines`]).
    pub timelines: Vec<LayerTimeline>,
}

impl OverlapStats {
    /// Executed speedup over the analytic serial baseline.
    pub fn speedup_vs_serial(&self) -> f64 {
        self.analytic_serial_ms / self.executed_overlapped_ms
    }
}

/// Per-layer backward cost profile in **backward execution order**
/// (output layer first), distributing `compute_ms + sparsify_ms` over
/// the layers proportionally to parameter mass — a bucket's collective
/// can launch only after its gradient is both computed *and* sparsified,
/// so both delays gate readiness. This is the analytic model's cost
/// basis ([`crate::pipeline::simulate_fused`]); the engine stages the
/// same shares of the same costs, by the parameter mass backward has
/// produced when each bucket is ready.
pub fn backward_layer_costs(segments: &[usize], compute: Option<ComputeCost>) -> Vec<LayerCost> {
    let m: usize = segments.iter().sum();
    let work_ms = compute.map_or(0.0, |c| c.compute_ms + c.sparsify_ms);
    segments
        .iter()
        .rev()
        .map(|&params| LayerCost {
            params,
            backward_ms: work_ms * params as f64 / m as f64,
        })
        .collect()
}

/// The executed overlap engine: per-bucket residuals, steps, and
/// schedule bookkeeping for one rank. Created once per training run and
/// driven once per iteration through [`OverlapEngine::step`].
#[derive(Debug)]
pub struct OverlapEngine {
    /// Flat-vector ranges per bucket, in backward order (the *last*
    /// contiguous slice of the flat vector first).
    ranges: Vec<Range<usize>>,
    /// Modelled per-iteration compute and sparsification, staged per
    /// bucket by parameter mass.
    compute: ComputeCost,
    residuals: Vec<Residual>,
    /// Per-bucket aggregation steps (all of the configured algorithm).
    steps: Vec<Aggregator>,
    net: CostModel,
    /// Analytic twin: one α-β clock per member position, replaying every
    /// bucket collective's plan. Carried across buckets *and* iterations
    /// so cross-iteration channel backpressure is modelled exactly.
    twin: PlanClock,
    /// Membership the twin was built for; a membership change rebuilds
    /// it.
    twin_members: Vec<usize>,
    /// Own executed clock when the previous step ended — the twin
    /// advances all positions by the observed inter-step delta, which is
    /// rank-uniform in a fault-free run.
    last_end_ms: Option<f64>,
    /// Twin clocks at the start of the current iteration (reused buffer).
    twin_t0: Vec<f64>,
    iterations: usize,
    executed_ms: f64,
    analytic_overlapped_ms: f64,
    analytic_serial_ms: f64,
    max_abs_dev_ms: f64,
    timelines: Vec<LayerTimeline>,
}

impl OverlapEngine {
    /// Builds the engine for a model with the given parameter segments
    /// (see [`Model::param_segments`]), running a copy of `step` per
    /// bucket and staging `compute` on the simulated clock; `net` must be
    /// the cluster's cost model so analytic predictions price
    /// communication identically.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty (a model without parameters cannot
    /// be trained).
    pub fn new(
        cfg: &OverlapConfig,
        segments: &[usize],
        compute: Option<ComputeCost>,
        net: CostModel,
        step: Aggregator,
    ) -> Self {
        assert!(!segments.is_empty(), "model has no parameter segments");
        let m: usize = segments.iter().sum();
        let per_layer = backward_layer_costs(segments, None);
        let fused = match cfg.buckets {
            BucketSpec::PerLayer => per_layer,
            BucketSpec::Count(n) => fuse_layers(&per_layer, n),
        };
        // Bucket 0 is the first produced by backward — the *top* of the
        // flat vector; walk downwards.
        let mut ranges = Vec::with_capacity(fused.len());
        let mut hi = m;
        for bucket in &fused {
            let lo = hi - bucket.params;
            ranges.push(lo..hi);
            hi = lo;
        }
        assert_eq!(hi, 0, "buckets must cover the whole flat vector");
        let residuals = ranges.iter().map(|r| Residual::new(r.len())).collect();
        let steps = vec![step; ranges.len()];
        OverlapEngine {
            ranges,
            compute: compute.unwrap_or_default(),
            residuals,
            steps,
            net,
            twin: PlanClock::new(1),
            twin_members: Vec::new(),
            last_end_ms: None,
            twin_t0: Vec::new(),
            iterations: 0,
            executed_ms: 0.0,
            analytic_overlapped_ms: 0.0,
            analytic_serial_ms: 0.0,
            max_abs_dev_ms: 0.0,
            timelines: Vec::new(),
        }
    }

    /// Executes one iteration over `members` (the sorted, alive rank set
    /// — the full `0..P` when fault tolerance is off): for each bucket in
    /// backward order, waits until the bucket's gradient is computed and
    /// sparsified on the simulated clock, runs the bucket's step over
    /// `grad`'s slice and the bucket residual with budget
    /// `k = bucket_k(params, rho)` ([`Aggregator::aggregate`]), and writes
    /// the averaged update's `−η·v` into that slice
    /// ([`MomentumSgd::step_range`], a dense update through
    /// [`MomentumSgd::step_dense_range`]); one `add_to_flat_params(grad)`
    /// then applies the step.
    ///
    /// Collective tags are epoch-stamped, so the steps compose with crash
    /// recovery: after a membership change the plans are regenerated over
    /// the survivor positions and stale-epoch traffic can never be
    /// confused for live traffic.
    ///
    /// In parallel, the engine advances its [`PlanClock`] twin through
    /// the same plans; fault-free, the twin reproduces the executed
    /// timeline exactly (see [`OverlapStats::max_abs_dev_ms`]).
    ///
    /// `grad` is the full flat gradient of this iteration (backward has
    /// genuinely finished producing values; only the *clock* is staged
    /// per bucket). It is consumed: on return it holds the delta added to
    /// the parameters, which an error leaves untouched. Returns the total
    /// non-zero count applied.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from the communicator.
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not span the bucketed flat vector,
    /// `rho ∉ (0, 1]`, or the calling rank is not in `members`.
    pub fn step(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        grad: &mut [f32],
        rho: f64,
        opt: &mut MomentumSgd,
        model: &mut dyn Model,
    ) -> Result<u64> {
        assert_eq!(grad.len(), self.ranges[0].end, "gradient length mismatch");
        assert!(rho > 0.0 && rho <= 1.0, "density must be in (0, 1]");
        let p = members.len();
        let my_pos = members
            .iter()
            .position(|&r| r == comm.rank())
            .expect("caller must be a member of the overlap group");
        if self.twin_members != members {
            // Membership changed (first step, or crash recovery): new
            // twin over the survivor positions.
            self.twin = PlanClock::new(p);
            self.twin_members = members.to_vec();
            self.last_end_ms = None;
        }
        let t0 = comm.now_ms();
        let straggle = comm.straggle_factor();

        // Bring the twin to this iteration's start: everything charged
        // between steps (forward/backward compute, eval, liveness pings)
        // advances each rank by the same amount in a fault-free run, so
        // the own-rank delta applies to every position.
        if let Some(prev) = self.last_end_ms {
            let delta = t0 - prev;
            for pos in 0..p {
                self.twin.advance_compute(pos, delta);
            }
        }
        self.twin_t0.clear();
        self.twin_t0.extend((0..p).map(|pos| self.twin.now(pos)));

        let m = grad.len();
        let mut nnz = 0u64;
        self.timelines.clear();
        for j in 0..self.ranges.len() {
            let range = self.ranges[j].clone();
            // Backward has produced everything above the bucket's start.
            let produced = (m - range.start) as f64 / m as f64;
            let ready = self.compute.ready_ms(t0, straggle, produced);
            // Gradient availability: the clock may already be past
            // `ready` if the previous bucket's collective held the
            // channel longer (FIFO) — wait_until never moves backwards.
            comm.wait_until(ready);
            let start = comm.now_ms();
            let k = bucket_k(range.len(), rho);
            let update = self.steps[j].aggregate(
                comm,
                members,
                &mut self.residuals[j],
                &grad[range.clone()],
                k,
            )?;
            nnz += update.nnz() as u64;
            // The bucket's gradient is spent: its slice takes the delta.
            let delta = &mut grad[range.clone()];
            match &update {
                Update::Dense(v) => opt.step_dense_range(range.clone(), v, delta),
                Update::Sparse(sv) => opt.step_range(range.clone(), sv, delta),
            }
            self.timelines.push(LayerTimeline {
                ready_ms: ready - t0,
                start_ms: start - t0,
                end_ms: comm.now_ms() - t0,
            });

            // Twin replay of the same bucket: readiness gate, then the
            // step's collective on the analytic clock.
            for pos in 0..p {
                let ready = self.compute.ready_ms(self.twin_t0[pos], 1.0, produced);
                self.twin.sync_to(pos, ready);
            }
            self.steps[j].charge_twin(&mut self.twin, &self.net, p, range.len(), k);
        }
        model.add_to_flat_params(grad);
        let span = comm.now_ms() - t0;
        let twin_span = self.twin.now(my_pos) - self.twin_t0[my_pos];
        self.last_end_ms = Some(comm.now_ms());
        debug_assert!(
            check_timeline_invariants(&self.timelines).is_ok(),
            "executed schedule violated timeline invariants: {:?}",
            check_timeline_invariants(&self.timelines)
        );

        self.analytic_overlapped_ms += twin_span;
        self.analytic_serial_ms += self.compute.compute_ms
            + self.compute.sparsify_ms
            + self.steps[0]
                .collective()
                .model_ms(&self.net, p, m, bucket_k(m, rho));
        if straggle == 1.0 && p == comm.size() {
            self.max_abs_dev_ms = self.max_abs_dev_ms.max((span - twin_span).abs());
        }
        self.executed_ms += span;
        self.iterations += 1;
        Ok(nnz)
    }

    /// Snapshot of the per-bucket training state — dense residual copies
    /// and selector states, in backward bucket order — for checkpointing.
    /// The schedule twin and statistics are deliberately excluded: they
    /// describe the timeline, not the optimization state.
    pub fn snapshot(&self) -> (Vec<Vec<f32>>, Vec<SelectorDump>) {
        (
            self.residuals.iter().map(|r| r.dense().to_vec()).collect(),
            self.steps
                .iter()
                .map(|s| SelectorDump::capture(s.selector_state()))
                .collect(),
        )
    }

    /// Restores per-bucket residuals and selector states from a
    /// [`OverlapEngine::snapshot`], and resets the schedule twin (a
    /// rollback breaks the clock continuity the twin relies on; it
    /// re-seeds on the next step).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's bucketization disagrees with this
    /// engine's.
    pub fn restore(&mut self, residuals: &[Vec<f32>], selectors: &[SelectorDump]) {
        assert_eq!(
            (residuals.len(), selectors.len()),
            (self.residuals.len(), self.steps.len()),
            "snapshot bucket count mismatch"
        );
        for (mine, saved) in self.residuals.iter_mut().zip(residuals) {
            mine.clear();
            mine.accumulate(saved);
        }
        for (step, saved) in self.steps.iter_mut().zip(selectors) {
            step.restore_selector_state(saved.revive());
        }
        self.twin_members.clear();
        self.last_end_ms = None;
    }

    /// Snapshot of the accumulated schedule statistics.
    pub fn stats(&self) -> OverlapStats {
        OverlapStats {
            buckets: self.ranges.len(),
            iterations: self.iterations,
            executed_overlapped_ms: self.executed_ms,
            analytic_overlapped_ms: self.analytic_overlapped_ms,
            analytic_serial_ms: self.analytic_serial_ms,
            max_abs_dev_ms: self.max_abs_dev_ms,
            timelines: self.timelines.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Collective, PsConfig, Selector, TrainConfig};
    use gtopk_comm::{Cluster, CostModel, Topology};
    use gtopk_nn::models;
    use gtopk_perfmodel::ps_plan_ms;

    fn step_for(alg: Algorithm, rank: usize) -> Aggregator {
        Aggregator::new(alg, Selector::Exact, Topology::Binomial, rank)
    }

    #[test]
    fn bucket_ranges_cover_flat_vector_back_to_front() {
        let model = models::mlp(3, 8, 16, 4);
        let segments = gtopk_nn::Model::param_segments(&model);
        let m: usize = segments.iter().sum();
        let engine = OverlapEngine::new(
            &OverlapConfig::buckets(2),
            &segments,
            None,
            CostModel::zero(),
            step_for(Algorithm::GTopK, 0),
        );
        assert_eq!(engine.ranges.len(), 2);
        // Backward order: the first bucket ends at the top of the vector.
        let mut expect_hi = m;
        let mut covered = 0usize;
        for j in 0..engine.ranges.len() {
            let r = engine.ranges[j].clone();
            assert_eq!(r.end, expect_hi);
            expect_hi = r.start;
            covered += r.len();
        }
        assert_eq!(covered, m);
        assert_eq!(expect_hi, 0);
    }

    #[test]
    fn per_layer_spec_gives_one_bucket_per_segment() {
        let segments = [100usize, 50, 200];
        let engine = OverlapEngine::new(
            &OverlapConfig::per_layer(),
            &segments,
            None,
            CostModel::zero(),
            step_for(Algorithm::GTopK, 0),
        );
        assert_eq!(engine.ranges.len(), 3);
        // Backward order reverses the segment list.
        assert_eq!(engine.ranges[0], 150..350);
        assert_eq!(engine.ranges[2], 0..100);
    }

    #[test]
    fn backward_costs_distribute_compute_by_mass() {
        let costs = backward_layer_costs(
            &[100, 300],
            Some(ComputeCost {
                compute_ms: 8.0,
                sparsify_ms: 0.0,
            }),
        );
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0].params, 300); // backward order
        assert!((costs[0].backward_ms - 6.0).abs() < 1e-12);
        assert!((costs[1].backward_ms - 2.0).abs() < 1e-12);
        // Sparsification gates readiness too, so it folds into the basis.
        let with_sparsify = backward_layer_costs(
            &[100, 300],
            Some(ComputeCost {
                compute_ms: 8.0,
                sparsify_ms: 2.0,
            }),
        );
        assert!((with_sparsify[0].backward_ms - 7.5).abs() < 1e-12);
        assert!((with_sparsify[1].backward_ms - 2.5).abs() < 1e-12);
    }

    /// Three iterations of `alg` over `p` ranks on deterministic per-rank
    /// gradients, one bucket per entry of `segments` (summing to the
    /// 64-parameter model's size), with modelled compute on the paper's
    /// 1GbE network: each rank's final parameters, schedule statistics
    /// and clock.
    fn run_engine(
        alg: Algorithm,
        p: usize,
        segments: &[usize],
    ) -> Vec<(Vec<f32>, OverlapStats, f64)> {
        let cfg = TrainConfig::convergence(p, 8, 1, 0.1, 0.05).with_algorithm(alg);
        run_configured(&cfg, segments)
    }

    /// Rank `rank`'s deterministic gradient of iteration `it`.
    fn test_grad(rank: usize, it: u64, m: usize) -> Vec<f32> {
        (0..m)
            .map(|i| {
                let h = (i as u64 + 7)
                    .wrapping_mul(rank as u64 + 3)
                    .wrapping_mul(it + 11)
                    .wrapping_mul(0x2545_f491_4f6c_dd1d);
                ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    /// [`run_engine`] for the step `cfg` configures (over `cfg.workers`
    /// ranks).
    fn run_configured(cfg: &TrainConfig, segments: &[usize]) -> Vec<(Vec<f32>, OverlapStats, f64)> {
        let segments = segments.to_vec();
        Cluster::new(cfg.workers, CostModel::gigabit_ethernet()).run(move |comm| {
            let mut model = models::logistic(9, 7, 8); // 7*8+8 = 64 params
            let m = gtopk_nn::Model::num_params(&model);
            assert_eq!(segments.iter().sum::<usize>(), m);
            let mut opt = MomentumSgd::new(m, 0.1, 0.9);
            let mut engine = OverlapEngine::new(
                &OverlapConfig::per_layer(),
                &segments,
                Some(ComputeCost {
                    compute_ms: 4.0,
                    sparsify_ms: 0.0,
                }),
                CostModel::gigabit_ethernet(),
                Aggregator::for_config(cfg, comm.rank()),
            );
            let members: Vec<usize> = (0..comm.size()).collect();
            for it in 0..3u64 {
                let mut g = test_grad(comm.rank(), it, m);
                engine
                    .step(comm, &members, &mut g, 0.1, &mut opt, &mut model)
                    .unwrap();
            }
            (
                gtopk_nn::Model::flat_params(&model),
                engine.stats(),
                comm.now_ms(),
            )
        })
    }

    /// A model that counts its `add_to_flat_params` calls.
    struct CountingAdds<M: Model> {
        inner: M,
        adds: usize,
    }

    impl<M: Model> Model for CountingAdds<M> {
        fn num_params(&self) -> usize {
            self.inner.num_params()
        }

        fn forward(&mut self, input: &gtopk_tensor::Tensor, train: bool) -> gtopk_tensor::Tensor {
            self.inner.forward(input, train)
        }

        fn backward(&mut self, grad_logits: &gtopk_tensor::Tensor) {
            self.inner.backward(grad_logits);
        }

        fn zero_grads(&mut self) {
            self.inner.zero_grads();
        }

        fn flat_grads(&self) -> Vec<f32> {
            self.inner.flat_grads()
        }

        fn flat_params(&self) -> Vec<f32> {
            self.inner.flat_params()
        }

        fn set_flat_params(&mut self, values: &[f32]) {
            self.inner.set_flat_params(values);
        }

        fn add_to_flat_params(&mut self, delta: &[f32]) {
            self.adds += 1;
            self.inner.add_to_flat_params(delta);
        }
    }

    #[test]
    fn the_spent_gradient_holds_the_applied_delta() {
        // Whatever the bucket count, a step advances every bucket's
        // velocity, leaves −η·v in the gradient it consumed, and adds that
        // gradient into the parameters in one call.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for alg in [Algorithm::GTopK, Algorithm::Dense] {
            for (spec, want_buckets) in [
                (OverlapConfig::buckets(1), 1),
                (OverlapConfig::buckets(2), 2),
                (OverlapConfig::per_layer(), 3),
            ] {
                let cfg = TrainConfig::convergence(4, 8, 1, 0.1, 0.05).with_algorithm(alg);
                Cluster::new(4, CostModel::gigabit_ethernet()).run(move |comm| {
                    let what = format!("{} {:?} rank {}", alg.name(), spec.buckets, comm.rank());
                    let mut model = CountingAdds {
                        inner: models::logistic(9, 7, 8),
                        adds: 0,
                    };
                    let m = model.num_params();
                    let mut opt = MomentumSgd::new(m, 0.1, 0.9);
                    let mut engine = OverlapEngine::new(
                        &spec,
                        &[24, 20, 20],
                        None,
                        CostModel::gigabit_ethernet(),
                        Aggregator::for_config(&cfg, comm.rank()),
                    );
                    assert_eq!(engine.stats().buckets, want_buckets, "{what}");
                    let members: Vec<usize> = (0..comm.size()).collect();
                    for it in 0..3u64 {
                        let before = model.flat_params();
                        let mut g = test_grad(comm.rank(), it, m);
                        model.adds = 0;
                        engine
                            .step(comm, &members, &mut g, 0.1, &mut opt, &mut model)
                            .unwrap();
                        assert_eq!(model.adds, 1, "{what} step {it}: one add per step");
                        let lr = opt.lr();
                        let want_delta: Vec<f32> =
                            opt.velocity().iter().map(|&v| -lr * v).collect();
                        assert_eq!(bits(&g), bits(&want_delta), "{what} step {it}: delta");
                        let want_params: Vec<f32> =
                            before.iter().zip(&g).map(|(&p, &d)| p + d).collect();
                        assert_eq!(
                            bits(&model.flat_params()),
                            bits(&want_params),
                            "{what} step {it}: params"
                        );
                    }
                });
            }
        }
    }

    #[test]
    fn overlapped_steps_keep_replicas_identical() {
        let out = run_engine(Algorithm::GTopK, 4, &[24, 40]);
        for (params, stats, now) in &out {
            assert_eq!(params, &out[0].0, "replicas diverged");
            check_timeline_invariants(&stats.timelines).unwrap();
            assert_eq!(stats.iterations, 3);
            // Power-of-two P, straggle-free: executed == analytic.
            assert!(
                stats.max_abs_dev_ms < 1e-6,
                "executed deviates from analytic by {} ms",
                stats.max_abs_dev_ms
            );
            assert!((now - out[0].2).abs() < 1e-9, "ranks finish together");
        }
    }

    #[test]
    fn zoo_overlap_keeps_replicas_identical_and_matches_twin_exactly() {
        // The zoo collectives are budget-padded, so the plan-clock twin
        // must reproduce the executed bucket timeline to float precision
        // — including non-power-of-two P (fold rounds).
        for &p in &[4usize, 5] {
            for alg in [Algorithm::OkTopk, Algorithm::SparDl] {
                let out = run_engine(alg, p, &[24, 40]);
                for (params, stats, _) in &out {
                    assert_eq!(params, &out[0].0, "{} P={p}: replicas diverged", alg.name());
                    check_timeline_invariants(&stats.timelines).unwrap();
                    assert!(
                        stats.max_abs_dev_ms < 1e-9,
                        "{} P={p}: executed deviates from analytic by {} ms",
                        alg.name(),
                        stats.max_abs_dev_ms
                    );
                }
            }
        }
    }

    #[test]
    fn dense_overlap_keeps_replicas_identical_and_matches_the_ring_twin() {
        // Each bucket's ring AllReduce is the plan the twin replays with
        // the same chunk sizes, so the executed span equals it exactly.
        for p in [3usize, 4, 5] {
            for segments in [&[24usize, 40][..], &[24, 20, 20]] {
                let out = run_engine(Algorithm::Dense, p, segments);
                for (params, stats, _) in &out {
                    let what = format!("P={p} buckets={}", segments.len());
                    assert_eq!(params, &out[0].0, "{what}: replicas diverged");
                    assert_eq!(stats.buckets, segments.len(), "{what}");
                    check_timeline_invariants(&stats.timelines).unwrap();
                    assert_eq!(stats.max_abs_dev_ms, 0.0, "{what}");
                }
            }
        }
    }

    #[test]
    fn sharded_server_keeps_replicas_identical_and_matches_its_twin_exactly() {
        // Pushes are padded to their shard's budget and replies are dense
        // regions, so the twin replays the executed rounds exactly — one
        // bucket (a `mode ps` run) or two — and the serial baseline is
        // the one-round PS plan replay.
        let net = CostModel::gigabit_ethernet();
        for p in [4usize, 5] {
            for shards in [1, 2, p] {
                let cfg = TrainConfig::convergence(p, 8, 1, 0.1, 0.05)
                    .with_ps(PsConfig::bulk_sync(shards));
                for segments in [&[64usize][..], &[24, 40]] {
                    let what = format!("P={p} S={shards} buckets={}", segments.len());
                    let out = run_configured(&cfg, segments);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for (params, stats, _) in &out {
                        assert_eq!(bits(params), bits(&out[0].0), "{what}: replicas diverged");
                        check_timeline_invariants(&stats.timelines).unwrap();
                        assert!(
                            stats.max_abs_dev_ms < 1e-9,
                            "{what}: executed deviates from the twin by {} ms",
                            stats.max_abs_dev_ms
                        );
                    }
                }
                let k = bucket_k(64, 0.1);
                let serial = Collective::Sharded { shards }.model_ms(&net, p, 64, k);
                assert_eq!(serial, ps_plan_ms(&net, p, 64, shards, k, 1));
                let per_iteration = 4.0 + serial;
                let stats = &run_configured(&cfg, &[64])[0].1;
                assert!(
                    (stats.analytic_serial_ms - 3.0 * per_iteration).abs() < 1e-9,
                    "P={p} S={shards}: serial baseline {} vs 3 x {per_iteration}",
                    stats.analytic_serial_ms
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "fixed schedule")]
    fn zoo_overlap_rejects_non_binomial_topologies() {
        // The zoo schedules are fixed halving/doubling exchanges; the
        // engine builds over any step, so the validator has to say so.
        TrainConfig::convergence(4, 8, 1, 0.1, 0.05)
            .with_algorithm(Algorithm::SparDl)
            .with_overlap(OverlapConfig::buckets(2))
            .with_topology(Topology::Ring)
            .validate()
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
