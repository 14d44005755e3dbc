//! The step engine of every all-reduce run: bucketed steps, executed
//! with compute/communication overlap. A run without `--overlap` is the
//! one-bucket case — the whole backward, then Algorithm 4 over the whole
//! vector.
//!
//! The layer-wise schedule is the paper's §VII future work, executed on
//! the simulated cluster. Backward propagation produces layer gradients
//! from the output layer backwards, so the flat gradient becomes
//! available back-to-front: the engine partitions the flat vector into
//! contiguous buckets (fused to roughly equal parameter mass, MG-WFBP
//! style), and as soon as a bucket's gradient is ready it runs that
//! bucket's [`Aggregator`] step while later buckets are still
//! "computing". The network is a single FIFO channel — each rank issues
//! its bucket collectives in backward order, so a bucket's collective
//! starts at `max(ready, channel_free)`. The engine carries a
//! [`PlanClock`] twin that replays each bucket's collective plans on the
//! analytic α-β clock, so the executed timeline is verifiable *exactly*,
//! for any worker count (the two sparse sums excepted: their
//! twin charges the disjoint-support bound). A second twin replays the
//! one-bucket schedule — the whole backward, then one collective over the
//! whole vector — on the same clock: the serial baseline the overlap is
//! measured against.
//!
//! Per-bucket error feedback: each bucket owns its own [`Residual`]
//! slice and its own step (schedule caches); rejected values return to
//! the bucket's residual (Algorithm 4 line 10, applied bucket-wise). The
//! moment a bucket's collective lands, the optimizer writes its `−η·v`
//! into the bucket's slice of the spent gradient
//! ([`MomentumSgd::step_range`], [`MomentumSgd::step_dense_range`] for the
//! dense row); one add of that gradient after the last bucket is bit for
//! bit one full-vector step of the combined update.

use crate::aggregator::{Aggregator, Update};
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

/// Configuration of the executed overlap engine. (The collective is the
/// training configuration's: the engine runs the configured step per
/// bucket.)
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
/// rank's view), comparing the executed timeline against its plan-clock
/// twin and against the one-bucket schedule.
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
    /// span for **every** worker count, not just powers of two.
    pub analytic_overlapped_ms: f64,
    /// Sum of the *serial* baseline's iteration spans, ms: the plan-clock
    /// replay of the one-bucket schedule (full backward, then one
    /// whole-model collective), carried across iterations like the twin.
    /// A one-bucket run reports exactly its own twin's span.
    pub analytic_serial_ms: f64,
    /// Largest single-iteration deviation |executed − analytic|, ms
    /// (recorded only on straggle-free ranks at full membership).
    /// Absent fault injection the plan-clock twin reproduces the
    /// executed schedule exactly — for any `P`; armed
    /// drop/jitter plans legitimately inflate this — retransmits and
    /// jitter are not in the α-β model. Top-k's and the naive gTop-k's
    /// twin charges the sparse sum's disjoint-support bound
    /// ([`gtopk_perfmodel::topk_plan_ms`]): theirs is that bound's slack.
    pub max_abs_dev_ms: f64,
    /// Executed per-bucket timelines of the last iteration, relative to
    /// that iteration's start.
    pub timelines: Vec<LayerTimeline>,
}

impl OverlapStats {
    /// Executed speedup over the one-bucket serial baseline.
    pub fn speedup_vs_serial(&self) -> f64 {
        self.analytic_serial_ms / self.executed_overlapped_ms
    }
}

/// `k` for a bucket of `params` parameters under density `rho` (at
/// least 1).
fn bucket_k(params: usize, rho: f64) -> usize {
    ((params as f64 * rho).round() as usize).clamp(1, params.max(1))
}

/// Greedy contiguous fusion of per-layer parameter counts into at most
/// `buckets` groups of roughly equal parameter mass. Fusing trades
/// per-message latency (fewer α terms) against overlap granularity.
fn fuse_layers(layers: &[usize], buckets: usize) -> Vec<usize> {
    let buckets = buckets.min(layers.len()).max(1);
    let target = layers.iter().sum::<usize>() as f64 / buckets as f64;
    let mut out = Vec::with_capacity(buckets);
    let mut acc = 0;
    for (i, &params) in layers.iter().enumerate() {
        acc += params;
        let remaining_layers = layers.len() - i - 1;
        let remaining_buckets = buckets - out.len() - 1;
        let over_target = acc as f64 >= target * (1.0 - 1e-9);
        if (over_target && out.len() + 1 < buckets) || remaining_layers == remaining_buckets {
            out.push(std::mem::take(&mut acc));
        }
    }
    if acc > 0 {
        out.push(acc);
    }
    out
}

/// The flat-vector range of each bucket `cfg` partitions a model with
/// parameter `segments` into (see [`Model::param_segments`]), in backward
/// order: bucket 0 is the first produced by backward — the *top* of the
/// flat vector.
///
/// # Panics
///
/// Panics if `segments` is empty (a model without parameters cannot be
/// trained).
pub(crate) fn bucket_ranges(cfg: &OverlapConfig, segments: &[usize]) -> Vec<Range<usize>> {
    assert!(!segments.is_empty(), "model has no parameter segments");
    let per_layer: Vec<usize> = segments.iter().rev().copied().collect();
    let fused = match cfg.buckets {
        BucketSpec::PerLayer => per_layer,
        BucketSpec::Count(n) => fuse_layers(&per_layer, n),
    };
    let mut ranges = Vec::with_capacity(fused.len());
    let mut hi: usize = segments.iter().sum();
    for params in fused {
        let lo = hi - params;
        ranges.push(lo..hi);
        hi = lo;
    }
    assert_eq!(hi, 0, "buckets must cover the whole flat vector");
    ranges
}

/// Timeline of one bucket's aggregation within an iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTimeline {
    /// When the bucket's gradient becomes available (cumulative backward).
    pub ready_ms: f64,
    /// When its aggregation starts (network FIFO).
    pub start_ms: f64,
    /// When its aggregation completes.
    pub end_ms: f64,
}

/// Checks the invariants every pipelined schedule must satisfy:
/// `ready ≤ start ≤ end` per bucket, monotone readiness (backward
/// produces buckets in order), and FIFO non-overlap (a bucket's
/// collective starts no earlier than the previous one ended).
///
/// # Errors
///
/// Returns `Err` with a human-readable description naming the offending
/// bucket index and the two times that disagree.
pub fn check_timeline_invariants(timelines: &[LayerTimeline]) -> std::result::Result<(), String> {
    let tol = 1e-9;
    for (i, t) in timelines.iter().enumerate() {
        if !(t.ready_ms.is_finite() && t.start_ms.is_finite() && t.end_ms.is_finite()) {
            return Err(format!("bucket {i}: non-finite timeline {t:?}"));
        }
        if t.start_ms < t.ready_ms - tol {
            return Err(format!(
                "bucket {i}: starts at {} before ready at {}",
                t.start_ms, t.ready_ms
            ));
        }
        if t.end_ms < t.start_ms - tol {
            return Err(format!(
                "bucket {i}: ends at {} before start at {}",
                t.end_ms, t.start_ms
            ));
        }
        if i > 0 {
            let prev = &timelines[i - 1];
            if t.ready_ms < prev.ready_ms - tol {
                return Err(format!(
                    "bucket {i}: ready at {} before bucket {} at {}",
                    t.ready_ms,
                    i - 1,
                    prev.ready_ms
                ));
            }
            if t.start_ms < prev.end_ms - tol {
                return Err(format!(
                    "bucket {i}: starts at {} while bucket {} holds the channel until {}",
                    t.start_ms,
                    i - 1,
                    prev.end_ms
                ));
            }
        }
    }
    Ok(())
}

/// A schedule replayed on the analytic α-β clock: one [`PlanClock`]
/// position per member, carried across buckets *and* iterations so
/// cross-iteration channel backpressure is modelled exactly.
#[derive(Debug)]
struct Twin {
    clock: PlanClock,
    /// Clocks at the start of the current iteration.
    t0: Vec<f64>,
}

impl Twin {
    fn new(p: usize) -> Self {
        Twin {
            clock: PlanClock::new(p),
            t0: vec![0.0; p],
        }
    }

    /// Starts an iteration `delta` ms after the previous one ended.
    fn begin(&mut self, delta: f64) {
        for (pos, t0) in self.t0.iter_mut().enumerate() {
            self.clock.advance_compute(pos, delta);
            *t0 = self.clock.now(pos);
        }
    }

    /// Replays one bucket: every position waits until the share
    /// `produced` of the backward is ready, then `step`'s collective runs.
    fn charge(
        &mut self,
        compute: &ComputeCost,
        produced: f64,
        step: &mut Aggregator,
        net: &CostModel,
        dim: usize,
        k: usize,
    ) {
        for (pos, &t0) in self.t0.iter().enumerate() {
            self.clock.sync_to(pos, compute.ready_ms(t0, 1.0, produced));
        }
        step.charge_twin(&mut self.clock, net, self.t0.len(), dim, k);
    }

    /// Time since the current iteration began at `pos`, ms.
    fn span(&self, pos: usize) -> f64 {
        self.clock.now(pos) - self.t0[pos]
    }
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
    /// The step the serial twin charges: its own copy, so the whole
    /// vector's schedule caches do not evict bucket 0's.
    serial_step: Aggregator,
    net: CostModel,
    /// Replays every bucket collective's plan.
    twin: Twin,
    /// Replays the one-bucket schedule: the serial baseline.
    serial_twin: Twin,
    /// Membership the twins were built for; a membership change rebuilds
    /// them.
    twin_members: Vec<usize>,
    /// Own executed clock when the previous step ended — the twins
    /// advance all positions by the observed inter-step delta, which is
    /// rank-uniform in a fault-free run.
    last_end_ms: Option<f64>,
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
        let ranges = bucket_ranges(cfg, segments);
        let residuals = ranges.iter().map(|r| Residual::new(r.len())).collect();
        let steps = vec![step.clone(); ranges.len()];
        OverlapEngine {
            ranges,
            compute: compute.unwrap_or_default(),
            residuals,
            steps,
            serial_step: step,
            net,
            twin: Twin::new(1),
            serial_twin: Twin::new(1),
            twin_members: Vec::new(),
            last_end_ms: None,
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
    /// timeline exactly (see [`OverlapStats::max_abs_dev_ms`]). A second
    /// twin replays the one-bucket schedule of the same iteration
    /// ([`OverlapStats::analytic_serial_ms`]).
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
            // twins over the survivor positions.
            self.twin = Twin::new(p);
            self.serial_twin = Twin::new(p);
            self.twin_members = members.to_vec();
            self.last_end_ms = None;
        }
        let t0 = comm.now_ms();
        let straggle = comm.straggle_factor();

        // Bring the twins to this iteration's start: everything charged
        // between steps (forward/backward compute, eval, liveness pings)
        // advances each rank by the same amount in a fault-free run, so
        // the own-rank delta applies to every position.
        let delta = self.last_end_ms.map_or(0.0, |prev| t0 - prev);
        self.twin.begin(delta);
        self.serial_twin.begin(delta);

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
            match update {
                Update::Dense(v) => opt.step_dense_range(range.clone(), &v, delta),
                Update::Sparse(sv) => {
                    opt.step_range(range.clone(), &sv, delta);
                    // Applied: its buffers serve the next step's selection.
                    comm.pool().put_sparse(sv);
                }
            }
            self.timelines.push(LayerTimeline {
                ready_ms: ready - t0,
                start_ms: start - t0,
                end_ms: comm.now_ms() - t0,
            });

            // Twin replay of the same bucket on the analytic clock.
            let step = &mut self.steps[j];
            self.twin
                .charge(&self.compute, produced, step, &self.net, range.len(), k);
        }
        model.add_to_flat_params(grad);
        self.serial_twin.charge(
            &self.compute,
            1.0,
            &mut self.serial_step,
            &self.net,
            m,
            bucket_k(m, rho),
        );
        let span = comm.now_ms() - t0;
        let twin_span = self.twin.span(my_pos);
        self.last_end_ms = Some(comm.now_ms());
        debug_assert!(
            check_timeline_invariants(&self.timelines).is_ok(),
            "executed schedule violated timeline invariants: {:?}",
            check_timeline_invariants(&self.timelines)
        );

        self.analytic_overlapped_ms += twin_span;
        self.analytic_serial_ms += self.serial_twin.span(my_pos);
        if straggle == 1.0 && p == comm.size() {
            self.max_abs_dev_ms = self.max_abs_dev_ms.max((span - twin_span).abs());
        }
        self.executed_ms += span;
        self.iterations += 1;
        Ok(nnz)
    }

    /// Snapshot of the per-bucket training state — dense residual copies,
    /// in backward bucket order — for checkpointing. The schedule twins
    /// and statistics are deliberately excluded: they describe the
    /// timeline, not the optimization state.
    pub fn snapshot(&self) -> Vec<Vec<f32>> {
        self.residuals.iter().map(|r| r.dense().to_vec()).collect()
    }

    /// Restores per-bucket residuals from a [`OverlapEngine::snapshot`],
    /// and resets the schedule twins (a rollback breaks the clock
    /// continuity the twins rely on; they re-seed on the next step).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's bucketization disagrees with this
    /// engine's (a checkpoint from disk is checked first, see
    /// [`crate::check_resume`]).
    pub fn restore(&mut self, residuals: &[Vec<f32>]) {
        assert_eq!(
            residuals.len(),
            self.residuals.len(),
            "snapshot bucket count mismatch"
        );
        for (mine, saved) in self.residuals.iter_mut().zip(residuals) {
            mine.clear();
            mine.accumulate(saved);
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
    use crate::{Algorithm, TrainConfig};
    use gtopk_comm::{Cluster, CostModel};
    use gtopk_nn::models;

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
            Aggregator::new(Algorithm::GTopK),
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
            Aggregator::new(Algorithm::GTopK),
        );
        assert_eq!(engine.ranges.len(), 3);
        // Backward order reverses the segment list.
        assert_eq!(engine.ranges[0], 150..350);
        assert_eq!(engine.ranges[2], 0..100);
    }

    #[test]
    fn fusion_preserves_totals() {
        let layers: Vec<usize> = (1..=10).map(|i| i * 1000).collect();
        for buckets in [1usize, 2, 3, 5, 10, 20] {
            let fused = fuse_layers(&layers, buckets);
            assert!(fused.len() <= buckets.min(layers.len()));
            assert_eq!(fused.iter().sum::<usize>(), 55_000, "buckets={buckets}");
        }
    }

    #[test]
    fn invariant_checker_rejects_violations() {
        let ok = LayerTimeline {
            ready_ms: 1.0,
            start_ms: 2.0,
            end_ms: 3.0,
        };
        assert!(check_timeline_invariants(std::slice::from_ref(&ok)).is_ok());
        let starts_before_ready = LayerTimeline {
            ready_ms: 2.0,
            start_ms: 1.0,
            end_ms: 3.0,
        };
        assert!(check_timeline_invariants(&[starts_before_ready]).is_err());
        let overlaps_channel = LayerTimeline {
            ready_ms: 2.5,
            start_ms: 2.5,
            end_ms: 4.0,
        };
        assert!(check_timeline_invariants(&[ok, overlaps_channel]).is_err());
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
                Aggregator::new(cfg.algorithm),
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
                        Aggregator::new(cfg.algorithm),
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
    fn every_rank_serves_its_steps_from_its_pool_after_warm_up() {
        // The broadcast hands every rank an owned copy of the global and
        // the engine returns the applied update's buffers to the pool, so
        // a tree leaf — which gives its selection to its parent — takes
        // the next step's selection from its pool: after the warm-up
        // steps no rank of any tree row misses.
        for alg in [
            Algorithm::GTopK,
            Algorithm::GTopKFeedback,
            Algorithm::GTopKNoPutback,
        ] {
            let misses = Cluster::new(4, CostModel::zero()).run(move |comm| {
                let mut model = models::logistic(9, 7, 8);
                let m = model.num_params();
                let mut opt = MomentumSgd::new(m, 0.1, 0.9);
                let mut engine = OverlapEngine::new(
                    &OverlapConfig::buckets(1),
                    &[m],
                    None,
                    CostModel::zero(),
                    Aggregator::new(alg),
                );
                let members: Vec<usize> = (0..comm.size()).collect();
                let mut after_warm_up = 0;
                for it in 0..12u64 {
                    if it == 2 {
                        after_warm_up = comm.pool_stats().misses;
                    }
                    let mut g = test_grad(comm.rank(), it, m);
                    engine
                        .step(comm, &members, &mut g, 0.25, &mut opt, &mut model)
                        .unwrap();
                }
                comm.pool_stats().misses - after_warm_up
            });
            assert_eq!(misses, [0; 4], "{}: misses per rank", alg.name());
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
    fn the_serial_baseline_is_the_one_bucket_run() {
        // The serial baseline replays the one-bucket schedule on the
        // twin's clock, so a one-bucket run is its own baseline and a
        // two-bucket run's baseline is the one-bucket run's twin, bit for
        // bit — whatever the collective or worker count.
        let base = |p| TrainConfig::convergence(p, 8, 1, 0.1, 0.05);
        let configs = [
            base(3),
            base(5),
            base(6).with_algorithm(Algorithm::TopK),
            base(5).with_algorithm(Algorithm::Dense),
            base(4).with_algorithm(Algorithm::SparDl),
        ];
        for cfg in &configs {
            let what = format!("{} P={}", cfg.algorithm.name(), cfg.workers);
            let one = run_configured(cfg, &[64]);
            let two = run_configured(cfg, &[24, 40]);
            for (rank, ((_, one, _), (_, two, _))) in one.iter().zip(&two).enumerate() {
                assert_eq!(
                    one.analytic_serial_ms.to_bits(),
                    one.analytic_overlapped_ms.to_bits(),
                    "{what} rank {rank}: one bucket"
                );
                assert_eq!(
                    two.analytic_serial_ms.to_bits(),
                    one.analytic_overlapped_ms.to_bits(),
                    "{what} rank {rank}: two buckets"
                );
            }
        }
    }
}
