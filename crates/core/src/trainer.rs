//! Distributed S-SGD training loops (paper Algorithms 1, 2 and 4, plus
//! the dense baseline) over the simulated cluster.
//!
//! There is exactly **one** training loop ([`run_rank`]), one bundle of
//! training state ([`TrainState`]) and one per-iteration executor, the
//! bucketed [`OverlapEngine`] — one bucket without `--overlap`. The
//! collective each bucket's step reduces over (the algorithm row's) and
//! the *recovery policy* (fault-tolerant checkpoint/rollback vs.
//! fail-fast) are orthogonal
//! switches on the same loop, so `--overlap` composes with crash
//! recovery instead of selecting a different code path. Which
//! combinations are legal is [`TrainConfig::validate`]'s call alone.

use crate::ckpt::{CheckpointStore, DurableCheckpoint};
use crate::overlap::{bucket_ranges, ComputeCost, OverlapConfig, OverlapEngine, OverlapStats};
use crate::{
    ft, Aggregator, Algorithm, DensitySchedule, EpochRecord, LrSchedule, Selector, TimingBreakdown,
    TrainReport,
};
use gtopk_comm::{Cluster, Communicator, CostModel, FaultPlan, Message, Payload, Result, Topology};
use gtopk_data::{shard_indices, BatchIter, Dataset};
use gtopk_nn::{accuracy, softmax_cross_entropy, Model, MomentumSgd};
use std::collections::VecDeque;

/// Configuration of a distributed training run. Which combinations of
/// algorithm and recovery policy may run is decided by
/// [`TrainConfig::validate`] from the capability table
/// ([`crate::capability_table`]).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of simulated workers `P`.
    pub workers: usize,
    /// Per-worker mini-batch size `b` (global batch is `b·P`).
    pub batch_per_worker: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Gradient aggregation algorithm.
    pub algorithm: Algorithm,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Momentum coefficient (the paper uses 0.9 everywhere).
    pub momentum: f32,
    /// Gradient density schedule ρ(epoch).
    pub density: DensitySchedule,
    /// Network cost model for the simulated cluster.
    pub cost_model: CostModel,
    /// Optional modeled local compute costs (see [`ComputeCost`]).
    pub compute_cost: Option<ComputeCost>,
    /// Local top-k selection kernel: always [`Selector::Exact`], and read
    /// by no training path (see [`Selector`] for why it remains).
    pub selector: Selector,
    /// Always [`Topology::Binomial`], the one gTop-k tree, and read by no
    /// training path. The field remains only because
    /// `benchmark/src/traced.rs` reads it; ROADMAP item 1's `[benchmark]`
    /// change deletes it together with that file.
    pub topology: Topology,
    /// DGC-style momentum correction (Lin et al., cited in §VI): apply
    /// momentum *locally before* residual accumulation, so delayed
    /// coordinates carry their momentum history when finally selected;
    /// the global update is then applied with plain SGD.
    pub momentum_correction: bool,
    /// Gradient clipping: rescale each worker's local gradient to this
    /// maximum L2 norm before residual accumulation (the DGC trick the
    /// paper cites for protecting accuracy under sparsification).
    pub clip_norm: Option<f32>,
    /// Seed for batch shuffling (model seeds belong to the builder).
    pub data_seed: u64,
    /// Deterministic fault injection for the run. `None` (the default)
    /// and [`FaultPlan::none`] leave training bit-identical to a build
    /// without fault machinery; an active plan arms the fault-tolerant
    /// recovery policy: periodic in-memory checkpoints, rollback on
    /// membership change, and shrink-and-continue over the surviving
    /// ranks.
    pub fault_plan: Option<FaultPlan>,
    /// Iterations between in-memory checkpoints in the fault-tolerant
    /// loop (ignored in fault-free runs).
    pub checkpoint_interval: usize,
    /// Executed compute/communication overlap (see [`crate::overlap`]).
    /// `Some` partitions the gradient into buckets and pipelines each
    /// bucket's collective behind the remaining backward compute. `None`
    /// (the default) *is* [`OverlapConfig::buckets`]`(1)` — the whole
    /// backward, then one step over the whole vector — and only leaves
    /// [`TrainReport::overlap`] empty. Composes with fault injection,
    /// crash recovery included.
    pub overlap: Option<OverlapConfig>,
    /// Durable checkpoint directory for elastic recovery. `None` (the
    /// default) writes nothing — and adds **exactly zero** simulated
    /// time, since durable I/O is charged to the wall clock only, never
    /// the α-β clock. `Some` makes every checkpoint boundary also write
    /// a CRC-protected per-rank file under the directory (see
    /// [`crate::ckpt`]): a killed process restarted on the same
    /// directory restores from disk and — with the fault-tolerant
    /// policy armed — rejoins the membership via the join protocol in
    /// [`crate::ft`].
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Always `None`: the parameter-server mode is gone and its config
    /// type is [`std::convert::Infallible`], so no other value can be
    /// built. The field remains only because `benchmark/src/traced.rs`
    /// reads it; ROADMAP item 1's `[benchmark]` change deletes it
    /// together with that file.
    pub ps: Option<std::convert::Infallible>,
}

impl TrainConfig {
    /// A small-scale convergence-experiment configuration matching the
    /// paper's defaults: momentum 0.9, the paper's warmup (reduced
    /// density *and* reduced learning rate over the first four epochs,
    /// §IV-B), 1 GbE network, no modeled compute.
    pub fn convergence(workers: usize, batch: usize, epochs: usize, lr: f32, density: f64) -> Self {
        TrainConfig {
            workers,
            batch_per_worker: batch,
            epochs,
            algorithm: Algorithm::GTopK,
            lr: LrSchedule::new(lr, 4, Vec::new()),
            momentum: 0.9,
            density: DensitySchedule::paper_warmup(density),
            cost_model: CostModel::gigabit_ethernet(),
            compute_cost: None,
            selector: Selector::Exact,
            topology: Topology::Binomial,
            momentum_correction: false,
            clip_norm: None,
            data_seed: 0x5eed,
            fault_plan: None,
            checkpoint_interval: 10,
            overlap: None,
            checkpoint_dir: None,
            ps: None,
        }
    }

    /// Returns a copy with durable checkpoints written under `dir` (see
    /// [`TrainConfig::checkpoint_dir`]).
    pub fn with_checkpoint_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Returns a copy with a different algorithm (for baseline sweeps).
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns a copy with a fault plan installed (arming the
    /// fault-tolerant recovery policy when the plan is active).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Whether this configuration arms the fault-tolerant recovery
    /// policy.
    pub fn fault_tolerant(&self) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.is_active())
    }

    /// Returns a copy with the executed overlap engine enabled.
    pub fn with_overlap(mut self, overlap: OverlapConfig) -> Self {
        self.overlap = Some(overlap);
        self
    }
}

/// A generation on disk whose state has another shape than the run that
/// would resume from it: the part that disagrees, and both values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeMismatch {
    /// `parameter count`, `velocity length`, `bucket count`,
    /// `bucket sizes` or `momentum-correction buffer`.
    pub field: &'static str,
    /// The checkpoint's value.
    pub saved: String,
    /// The run's value.
    pub run: String,
}

impl std::fmt::Display for ResumeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ResumeMismatch { field, saved, run } = self;
        write!(f, "{field}: {saved} in the checkpoint, {run} in this run")
    }
}

impl std::error::Error for ResumeMismatch {}

/// Checks that `c`, loaded from disk, can resume a run of `cfg` on a
/// model with parameter `segments`: the parameter count, velocity length,
/// bucket count and sizes, and the momentum-correction buffer (present
/// exactly when `cfg` corrects momentum). The cold resume and the rejoin
/// run it before restoring.
///
/// # Errors
///
/// The first part whose shape disagrees.
pub fn check_resume(
    cfg: &TrainConfig,
    segments: &[usize],
    c: &DurableCheckpoint,
) -> std::result::Result<(), ResumeMismatch> {
    let m: usize = segments.iter().sum();
    let buckets = bucket_ranges(&cfg.overlap.unwrap_or(OverlapConfig::buckets(1)), segments);
    let run: Vec<usize> = buckets.into_iter().map(|r| r.len()).collect();
    let saved: Vec<usize> = c.residuals.iter().map(Vec::len).collect();
    let n = |v: usize| v.to_string();
    let buffer = |len: Option<usize>| len.map_or("absent".into(), |len| format!("{len} values"));
    let corrected = cfg.momentum_correction.then_some(m);
    [
        ("parameter count", n(c.params.len()), n(m)),
        ("velocity length", n(c.velocity.len()), n(m)),
        ("bucket count", n(saved.len()), n(run.len())),
        ("bucket sizes", format!("{saved:?}"), format!("{run:?}")),
        (
            "momentum-correction buffer",
            buffer(c.local_velocity.as_ref().map(Vec::len)),
            buffer(corrected),
        ),
    ]
    .into_iter()
    .find(|(_, saved, run)| saved != run)
    .map_or(Ok(()), |(field, saved, run)| {
        Err(ResumeMismatch { field, saved, run })
    })
}

/// Everything a rank's training run mutates — what a checkpoint captures
/// and a rollback or restart restores, as one value. (Time-breakdown
/// counters are deliberately *not* part of it: they describe executed
/// work, replays included.)
struct TrainState<M: Model> {
    model: M,
    opt: MomentumSgd,
    engine: Box<OverlapEngine>,
    /// Modelled compute per iteration, staged by the engine (zero
    /// without [`TrainConfig::compute_cost`]).
    cost: ComputeCost,
    /// DGC-style local momentum buffer, when momentum correction is on.
    local_velocity: Option<Vec<f32>>,
    batches: BatchIter,
    losses: Vec<f64>,
    evals: Vec<Option<f64>>,
    epoch_loss: f64,
    /// Global iteration index.
    it: u64,
}

impl<M: Model> TrainState<M> {
    fn new(cfg: &TrainConfig, comm: &Communicator, model: M, train_data: &dyn Dataset) -> Self {
        let m = model.num_params();
        // With momentum correction, momentum is applied locally (DGC
        // style) and the aggregated update is applied with plain SGD.
        let opt_momentum = if cfg.momentum_correction {
            0.0
        } else {
            cfg.momentum
        };
        let shard = shard_indices(train_data.len(), comm.rank(), comm.size());
        let mut cost = cfg.compute_cost.unwrap_or_default();
        if cfg.algorithm == Algorithm::Dense {
            cost.sparsify_ms = 0.0; // the dense row selects nothing
        }
        TrainState {
            opt: MomentumSgd::new(m, cfg.lr.lr(0), opt_momentum),
            engine: Box::new(OverlapEngine::new(
                &cfg.overlap.unwrap_or(OverlapConfig::buckets(1)),
                &model.param_segments(),
                Some(cost),
                cfg.cost_model,
                Aggregator::new(cfg.algorithm),
            )),
            cost,
            local_velocity: cfg.momentum_correction.then(|| vec![0.0; m]),
            batches: BatchIter::new(shard, cfg.batch_per_worker, cfg.data_seed),
            losses: Vec::with_capacity(cfg.epochs),
            evals: Vec::with_capacity(cfg.epochs),
            epoch_loss: 0.0,
            it: 0,
            model,
        }
    }

    /// The full state at this iteration boundary, in the one checkpoint
    /// format: kept in memory by the recovery policy, written to disk
    /// as is when a checkpoint directory is configured.
    fn snapshot(&self, rank: usize) -> DurableCheckpoint {
        let (data_epoch, data_cursor) = self.batches.position();
        DurableCheckpoint {
            rank: rank as u64,
            iter: self.it,
            params: self.model.flat_params(),
            velocity: self.opt.velocity().to_vec(),
            residuals: self.engine.snapshot(),
            local_velocity: self.local_velocity.clone(),
            data_epoch,
            data_cursor: data_cursor as u64,
            epoch_loss: self.epoch_loss,
            losses: self.losses.clone(),
            evals: self.evals.clone(),
        }
    }

    /// Replays from `c.iter` as if the iterations after it never
    /// happened.
    fn restore(&mut self, c: &DurableCheckpoint) {
        self.model.set_flat_params(&c.params);
        self.opt.set_velocity(&c.velocity);
        self.engine.restore(&c.residuals);
        self.local_velocity.clone_from(&c.local_velocity);
        self.batches
            .restore_position(c.data_epoch, c.data_cursor as usize);
        self.losses.clone_from(&c.losses);
        self.evals.clone_from(&c.evals);
        self.epoch_loss = c.epoch_loss;
        self.it = c.iter;
    }

    /// One aggregation step over `members`: fold the fresh gradient `g`
    /// (through the local momentum buffer under momentum correction) into
    /// the engine, which stages the modelled compute on the clock,
    /// aggregates each bucket at density `rho`, applies the averaged
    /// update, and returns the non-zero count applied. `g` is spent: the
    /// engine leaves the applied delta in it.
    fn step(
        &mut self,
        comm: &mut Communicator,
        members: &[usize],
        g: &mut [f32],
        momentum: f32,
        rho: f64,
    ) -> Result<u64> {
        if let Some(u) = &mut self.local_velocity {
            for (ui, gi) in u.iter_mut().zip(g.iter_mut()) {
                *ui = momentum * *ui + *gi;
                *gi = *ui;
            }
        }
        self.engine
            .step(comm, members, g, rho, &mut self.opt, &mut self.model)
    }
}

struct RankOutcome {
    losses: Vec<f64>,
    evals: Vec<Option<f64>>,
    timing: TimingBreakdown,
    sim_time_ms: f64,
    elems_sent: usize,
    retransmissions: usize,
    link_stats: Vec<gtopk_comm::LinkStats>,
    update_nnz_sum: u64,
    param_checksum: f64,
    pool_hits: u64,
    pool_misses: u64,
    overlap: Option<OverlapStats>,
    /// Ranks in this rank's final membership view (equals the initial
    /// worker count unless shrink-and-continue recoveries removed some).
    survivors: usize,
    /// True when this rank left the run: a scheduled crash, or expulsion
    /// after failing to reach any recovery coordinator.
    crashed: bool,
}

impl RankOutcome {
    /// The run's report as seen from this rank; `train_loss(e)` is epoch
    /// `e`'s reported training loss.
    fn report(
        &self,
        cfg: &TrainConfig,
        survivors: usize,
        train_loss: impl Fn(usize) -> f64,
    ) -> TrainReport {
        assert_eq!(
            self.losses.len(),
            cfg.epochs,
            "a surviving rank must complete every epoch"
        );
        let epochs = (0..cfg.epochs)
            .map(|e| EpochRecord {
                epoch: e,
                train_loss: train_loss(e),
                eval_accuracy: self.evals[e],
                density: cfg.density.density(e),
            })
            .collect();
        TrainReport {
            algorithm: cfg.algorithm.name(),
            workers: cfg.workers,
            epochs,
            timing: self.timing,
            sim_time_ms: self.sim_time_ms,
            elems_sent_rank0: self.elems_sent,
            retransmissions: self.retransmissions,
            link_stats: self.link_stats.clone(),
            survivors,
            mean_update_nnz: self.update_nnz_sum as f64 / self.timing.iterations.max(1) as f64,
            pool_hits_rank0: self.pool_hits,
            pool_misses_rank0: self.pool_misses,
            overlap: self.overlap.clone(),
        }
    }
}

/// Runs distributed S-SGD with the configured aggregation algorithm.
///
/// `build_model` is invoked once per rank and must produce bit-identical
/// replicas (seed it deterministically); `train_data` is sharded by rank;
/// `eval_data`, when given, is evaluated on rank 0 at the end of every
/// epoch (replicas stay identical across ranks, so one rank suffices —
/// this is asserted at the end of the run).
///
/// # Panics
///
/// Panics if [`TrainConfig::validate`] refuses the configuration (with
/// its message), if the configuration is inconsistent with the dataset
/// (e.g. a shard smaller than one batch) or a one-rank run's checkpoint
/// directory ([`check_resume`]), if model replicas diverge, or if a
/// communication error occurs (worker threads treat transport failures
/// as fatal, like an MPI abort).
pub fn train_distributed<M, F>(
    cfg: &TrainConfig,
    build_model: F,
    train_data: &dyn Dataset,
    eval_data: Option<&dyn Dataset>,
) -> TrainReport
where
    M: Model,
    F: Fn() -> M + Send + Sync,
{
    let iters_per_epoch = validated_iters_per_epoch(cfg, train_data);

    let mut cluster = Cluster::new(cfg.workers, cfg.cost_model);
    if let Some(plan) = &cfg.fault_plan {
        cluster = cluster.with_fault_plan(plan.clone());
    }
    let outcomes: Vec<RankOutcome> = cluster.run(|comm| {
        run_rank(
            cfg,
            comm,
            &build_model,
            train_data,
            eval_data,
            iters_per_epoch,
        )
    });

    // Ranks that crashed (or were expelled) leave partial outcomes; all
    // reporting is over the survivors. Fault-free runs have no crashes,
    // so this is the identity filter there.
    let survivors: Vec<&RankOutcome> = outcomes.iter().filter(|o| !o.crashed).collect();
    assert!(
        !survivors.is_empty(),
        "every rank crashed or was expelled; nothing to report"
    );

    // Replica-consistency invariant: identical updates on every
    // surviving rank.
    let checksum0 = survivors[0].param_checksum;
    for (r, o) in outcomes.iter().enumerate() {
        if o.crashed {
            continue;
        }
        assert!(
            (o.param_checksum - checksum0).abs() <= 1e-3 * checksum0.abs().max(1.0),
            "rank {r} model diverged: {} vs {}",
            o.param_checksum,
            checksum0
        );
    }

    survivors[0].report(cfg, survivors.len(), |e| {
        survivors.iter().map(|o| o.losses[e]).sum::<f64>() / survivors.len() as f64
    })
}

/// Runs the per-rank training loop on an externally constructed
/// communicator — the entry point for *real* multi-process launches,
/// where each OS process owns one rank over a
/// [`TcpTransport`](gtopk_comm::transport::TcpTransport) and there is no
/// in-process [`Cluster`] to orchestrate.
///
/// The communicator's size must match `cfg.workers`. `cfg.fault_plan`
/// (if any) is armed on the endpoint here; arming an empty active plan
/// ([`FaultPlan::seeded`] with no faults layered on) is how a real
/// deployment turns on the checkpoint/rollback recovery policy without
/// injecting any synthetic faults — organic peer death then surfaces
/// through the transport's own deadlines and heartbeats and takes the
/// same ULFM-style recovery path as a simulated crash.
///
/// Returns this rank's view of the run, or `None` if the rank crashed or
/// was expelled from the membership (its partial results are meaningless
/// — on a real cluster the process would have died).
///
/// # Panics
///
/// As for [`train_distributed`], plus if `comm.size() != cfg.workers`.
pub fn train_rank<M, F>(
    cfg: &TrainConfig,
    comm: &mut Communicator,
    build_model: F,
    train_data: &dyn Dataset,
    eval_data: Option<&dyn Dataset>,
) -> Option<TrainReport>
where
    M: Model,
    F: Fn() -> M,
{
    assert_eq!(
        comm.size(),
        cfg.workers,
        "communicator size must match cfg.workers"
    );
    let iters_per_epoch = validated_iters_per_epoch(cfg, train_data);
    if let Some(plan) = &cfg.fault_plan {
        comm.arm_fault_plan(plan.clone());
    }
    let outcome = run_rank(
        cfg,
        comm,
        &build_model,
        train_data,
        eval_data,
        iters_per_epoch,
    );
    (!outcome.crashed).then(|| outcome.report(cfg, outcome.survivors, |e| outcome.losses[e]))
}

/// Validates a configuration — against the capability table, then
/// against the dataset — and returns the iterations per epoch (shared by
/// [`train_distributed`] and [`train_rank`]).
fn validated_iters_per_epoch(cfg: &TrainConfig, train_data: &dyn Dataset) -> usize {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid training configuration: {e}"));
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.epochs > 0, "need at least one epoch");
    let iters_per_epoch = (train_data.len() / cfg.workers) / cfg.batch_per_worker;
    assert!(
        iters_per_epoch > 0,
        "dataset too small: {} items for {} workers × batch {}",
        train_data.len(),
        cfg.workers,
        cfg.batch_per_worker
    );
    iters_per_epoch
}

/// What the recovery policy keeps beside the [`TrainState`]: this rank's
/// membership view and its window of checkpoints.
struct RecoveryLog {
    /// Sorted alive rank set (the full `0..P` until a shrink).
    members: Vec<usize>,
    /// In-memory checkpoints, oldest first.
    ckpts: VecDeque<DurableCheckpoint>,
    /// Number of checkpoints pinned at the front of the deque: after a
    /// shrink, everything up to the rollback anchor stays resident so a
    /// later rejoin can roll the regrown membership back to it. Zero
    /// outside a shrunk phase (plain keep-2 eviction).
    pinned: usize,
    /// Durable twin of the deque, when a checkpoint directory is
    /// configured.
    store: Option<CheckpointStore>,
}

/// The per-rank training loop — the only one. A single global iteration
/// index drives an epoch-agnostic loop (so fault-tolerant rollback can
/// cross epoch boundaries) and every iteration funnels through
/// [`TrainState::step`].
///
/// With an active fault plan, the loop additionally:
///
/// * snapshots its full training state in memory every
///   `checkpoint_interval` iterations (the last two snapshots are kept —
///   ranks can be at most one checkpoint boundary apart when a failure
///   hits);
/// * starts each iteration with [`Communicator::begin_step`], which is
///   where a scheduled crash fires (the rank silently exits, closing its
///   channels — exactly how peers observe a real process death);
/// * on a communication error enters [`ft::recover`], agrees on the
///   surviving membership and the common rollback point, restores that
///   checkpoint (engine state included), and continues shrunk;
/// * has every live rank evaluate at epoch ends (rank 0 may not
///   survive), and charges recovery wall-time and count to
///   [`TimingBreakdown::recovery_ms`] / `recoveries`.
fn run_rank<M, F>(
    cfg: &TrainConfig,
    comm: &mut Communicator,
    build_model: &F,
    train_data: &dyn Dataset,
    eval_data: Option<&dyn Dataset>,
    iters_per_epoch: usize,
) -> RankOutcome
where
    M: Model,
    F: Fn() -> M,
{
    let ft = cfg.fault_tolerant();
    let mut state = TrainState::new(cfg, comm, build_model(), train_data);
    let mut log = RecoveryLog {
        members: (0..comm.size()).collect(),
        ckpts: VecDeque::with_capacity(2),
        pinned: 0,
        store: cfg.checkpoint_dir.as_ref().map(|dir| {
            CheckpointStore::new(dir, comm.rank()).expect("checkpoint directory must be writable")
        }),
    };
    let interval = cfg.checkpoint_interval.max(1) as u64;
    // Checkpoints are taken by the fault-tolerant policy and whenever a
    // durable directory is configured (a solo run can then cold-resume).
    let take_ckpts = ft || log.store.is_some();

    let ipe = iters_per_epoch as u64;
    let total_iters = cfg.epochs as u64 * ipe;
    let mut timing = TimingBreakdown::default();
    let mut update_nnz_sum = 0u64;

    // Durable restart: a non-empty checkpoint directory means this
    // process is a restarted incarnation of its rank. Solo it simply
    // cold-resumes from the newest intact generation; in a cluster it
    // runs the joiner side of the rejoin protocol.
    let restart = log.store.as_ref().and_then(CheckpointStore::load_latest);
    let mut crashed = match restart {
        None => false,
        Some((disk, _rejected)) if comm.size() == 1 => {
            check_resume(cfg, &state.model.param_segments(), &disk)
                .unwrap_or_else(|e| panic!("the checkpoint directory does not fit this run: {e}"));
            state.restore(&disk);
            false
        }
        Some((disk, _rejected)) => !rejoin(cfg, comm, &mut state, &mut log, disk.iter, &mut timing),
    };

    while !crashed && state.it < total_iters {
        let epoch = (state.it / ipe) as usize;
        state.opt.set_lr(cfg.lr.lr(epoch));
        let rho = cfg.density.density(epoch);

        // Periodic checkpoint. After a rollback `it` lands on the
        // restored snapshot's boundary; the `<` guard avoids
        // re-snapshotting the identical state.
        if take_ckpts
            && state.it.is_multiple_of(interval)
            && log.ckpts.back().is_none_or(|c| c.iter < state.it)
        {
            log.ckpts.push_back(state.snapshot(comm.rank()));
            // Keep the last two unpinned snapshots; pinned anchors
            // (front of the deque, shrunk phases only) stay.
            while log.ckpts.len() > log.pinned + 2 {
                let _ = log.ckpts.remove(log.pinned);
            }
            if let Some(store) = &log.store {
                // Durable twin of the snapshot just taken. Wall-clock
                // only: never touches the simulated α-β clock, so
                // `--checkpoint-dir` costs exactly zero simulated ms. A
                // failed write (a full disk, any I/O error) is not fatal:
                // the in-memory window still carries recovery.
                if let Err(err) = store.save(log.ckpts.back().expect("just pushed")) {
                    let (rank, dir) = (comm.rank(), store.dir().display());
                    eprintln!("warning: rank {rank}: checkpoint not written under {dir}: {err}");
                }
            }
        }
        if ft {
            // Scheduled crashes fire here: the rank just stops, and its
            // peers find out through the transport (no farewell message).
            if comm.begin_step().is_err() {
                crashed = true;
                break;
            }
            // A shrunk membership watches for rejoin requests at every
            // step boundary; seeing one triggers a growth recovery round
            // before any collective of this iteration starts.
            if log.members.len() < comm.size() {
                let absent: Vec<usize> = (0..comm.size())
                    .filter(|r| !log.members.contains(r))
                    .collect();
                let joiners = comm.poll_join_requests(&absent);
                if !joiners.is_empty() {
                    let t_rec = comm.now_ms();
                    if !handle_recovery(comm, &mut state, &mut log, &joiners, &mut timing, t_rec) {
                        crashed = true;
                        break;
                    }
                    continue;
                }
            }
        }

        let idx = state
            .batches
            .next_batch()
            .expect("iters_per_epoch fits every shard")
            .to_vec();
        let (x, ys) = train_data.batch(&idx);

        let t0 = comm.now_ms();
        state.model.zero_grads();
        let logits = state.model.forward(&x, true);
        let (loss, grad) = softmax_cross_entropy(&logits, &ys);
        state.model.backward(&grad);
        let mut g = state.model.flat_grads();
        if let Some(max_norm) = cfg.clip_norm {
            clip_to_norm(&mut g, max_norm);
        }

        // The engine stages the modelled compute and sparsification on
        // the clock itself; only the attribution shares are taken here.
        let straggle = comm.straggle_factor();
        let (charged_comp, charged_compr) = (
            straggle * state.cost.compute_ms,
            straggle * state.cost.sparsify_ms,
        );
        timing.compute_ms += charged_comp;
        timing.compression_ms += charged_compr;

        let t_step = comm.now_ms();
        match state.step(comm, &log.members, &mut g, cfg.momentum, rho) {
            Ok(nnz) => {
                update_nnz_sum += nnz;
                state.epoch_loss += loss as f64;
                timing.communication_ms += (comm.now_ms() - t0) - charged_comp - charged_compr;
                timing.iterations += 1;
                state.it += 1;
                if state.it.is_multiple_of(ipe) {
                    state.losses.push(state.epoch_loss / iters_per_epoch as f64);
                    // Fault-tolerant runs evaluate on every live rank
                    // (any rank may end up the reporter); otherwise only
                    // rank 0 does, replicas being identical.
                    let eval = if ft || comm.rank() == 0 {
                        eval_data.map(|ds| evaluate(&mut state.model, ds))
                    } else {
                        eval_data.map(|_| 0.0) // placeholder; only rank 0's is reported
                    };
                    state.evals.push(eval);
                    state.epoch_loss = 0.0;
                    state.batches.next_epoch();
                }
            }
            Err(err) => {
                assert!(ft, "aggregation must not fail mid-training: {err:?}");
                ft::ft_trace(|| format!("rank {} step {} failed: {err:?}", comm.rank(), state.it));
                if !handle_recovery(comm, &mut state, &mut log, &[], &mut timing, t_step) {
                    // Could not reach any coordinator: this rank was
                    // expelled (e.g. it timed out long enough for the
                    // others to shrink past it). It leaves the run.
                    crashed = true;
                    break;
                }
            }
        }
    }

    let params = state.model.flat_params();
    let stats = comm.stats();
    RankOutcome {
        losses: state.losses,
        evals: state.evals,
        timing,
        sim_time_ms: comm.now_ms(),
        elems_sent: stats.elems_sent,
        retransmissions: stats.retransmissions,
        link_stats: comm.link_stats(),
        update_nnz_sum,
        param_checksum: params.iter().map(|&v| v as f64).sum(),
        pool_hits: stats.pool_hits,
        pool_misses: stats.pool_misses,
        overlap: cfg.overlap.is_some().then(|| state.engine.stats()),
        survivors: log.members.len(),
        crashed,
    }
}

/// Rescales `g` in place so its L2 norm is at most `max_norm`.
fn clip_to_norm(g: &mut [f32], max_norm: f32) {
    debug_assert!(max_norm > 0.0, "clip norm must be positive");
    let norm = g
        .iter()
        .map(|v| (*v as f64) * (*v as f64))
        .sum::<f64>()
        .sqrt() as f32;
    if norm > max_norm {
        let scale = max_norm / norm;
        g.iter_mut().for_each(|v| *v *= scale);
    }
}

/// The joiner side of a multi-rank durable restart: broadcast JOIN_REQ,
/// wait for the coordinator's WELCOME, restore the agreed generation
/// from disk, and verify the donor's state transfer bit-for-bit. Returns
/// `false` if the cluster is gone, the generation is missing from disk or
/// unreadable, does not fit the run ([`check_resume`]), the transfer
/// never arrived, or it disagrees with the disk copy (the restarted
/// process leaves the run).
fn rejoin<M: Model>(
    cfg: &TrainConfig,
    comm: &mut Communicator,
    state: &mut TrainState<M>,
    log: &mut RecoveryLog,
    latest_iter: u64,
    timing: &mut TimingBreakdown,
) -> bool {
    let Some((members, rollback, coordinator, epoch)) = request_join(comm, latest_iter) else {
        return false;
    };
    comm.set_epoch(epoch);
    log.members = members;
    let rank = comm.rank();
    // The rollback iteration came off a socket: a generation this store
    // does not hold (or cannot read) makes the joiner leave, not panic.
    let loaded = log
        .store
        .as_ref()
        .expect("a restart was detected from the store")
        .load(rollback);
    let gen = match loaded {
        Ok(gen) => gen,
        Err(err) => {
            eprintln!(
                "rank {rank}: checkpoint {rollback} cannot be loaded ({err}); leaving the run"
            );
            return false;
        }
    };
    if let Err(err) = check_resume(cfg, &state.model.param_segments(), &gen) {
        eprintln!(
            "rank {rank}: checkpoint {rollback} does not fit this run ({err}); leaving the run"
        );
        return false;
    }
    state.restore(&gen);
    // Donor transfer: redundant with the disk copy by construction;
    // receiving and checking it makes the replica invariant
    // *established*, not assumed.
    let off = ft::epoch_tag_offset(epoch);
    let timeout = comm.recovery_timeout_ms();
    let xfer = comm
        .recv_deadline(coordinator, ft::TAG_XFER + off, timeout)
        .and_then(|p| {
            let v = comm.recv_deadline(coordinator, ft::TAG_XFER + off + 1, timeout)?;
            Ok((p.payload, v.payload))
        });
    let Ok((params, velocity)) = xfer else {
        return false;
    };
    let bits_eq = |donor: &Payload, disk: &[f32]| {
        ft::dense_values(donor).is_some_and(|a| {
            a.len() == disk.len() && a.iter().zip(disk).all(|(x, y)| x.to_bits() == y.to_bits())
        })
    };
    // Bytes off a socket (a transfer that is not dense, or a disk copy
    // gone bad) must not kill the process: without agreement the replica
    // invariant does not hold, so the joiner leaves the run instead.
    if !bits_eq(&params, &gen.params) || !bits_eq(&velocity, &gen.velocity) {
        eprintln!("rank {rank}: donor state differs from checkpoint {rollback}; leaving the run");
        return false;
    }
    timing.recoveries += 1;
    true
}

/// The joiner side of the rejoin handshake: broadcast JOIN_REQ (stamped
/// with the newest intact disk generation) to every other rank until a
/// WELCOME arrives, then return `(members, rollback_iter, coordinator,
/// epoch)`. A WELCOME too short to carry that is bytes off a socket gone
/// wrong, not a reason to die: it is dropped and polling goes on. Gives
/// up after a generous multiple of the recovery timeout — `None` means
/// the cluster is gone (or never noticed us) and the restarted process
/// should exit instead of spinning forever.
fn request_join(
    comm: &mut Communicator,
    latest_iter: u64,
) -> Option<(Vec<usize>, u64, usize, u64)> {
    let slice_ms = 200u64;
    let deadline = std::time::Instant::now()
        + std::time::Duration::from_millis((comm.recovery_timeout_ms() * 20.0) as u64 + 2000);
    loop {
        for m in 0..comm.size() {
            if m != comm.rank() {
                // Best effort: some targets may themselves be dead.
                let _ = comm.send(
                    m,
                    Message::JOIN_REQ_TAG,
                    Payload::Scalar(latest_iter as f64),
                );
            }
        }
        let slice_end = std::time::Instant::now() + std::time::Duration::from_millis(slice_ms);
        while std::time::Instant::now() < slice_end {
            let welcome = comm.poll_tagged(Message::JOIN_WELCOME_TAG);
            let wire = welcome
                .as_ref()
                .map(|msg| (msg.src, ft::dense_values(&msg.payload).unwrap_or_default()));
            match wire {
                Some((coordinator, [epoch, rollback, members @ ..])) if !members.is_empty() => {
                    let members = members.iter().map(|&v| v as usize).collect();
                    return Some((members, *rollback as u64, coordinator, *epoch as u64));
                }
                Some(_malformed) => {}
                None => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
        if std::time::Instant::now() >= deadline {
            return None;
        }
    }
}

/// One full recovery round as seen by a surviving member: agree on
/// membership (shrunk or regrown) and the rollback iteration, restore
/// that checkpoint, maintain the pinned-anchor window, and — when this
/// rank coordinates a growth round — transfer model state to the
/// joiners. Returns `false` if no coordinator was reachable (this rank
/// was expelled) or the agreed rollback generation is neither in memory
/// nor loadable from this rank's store: either way the rank leaves the
/// run.
fn handle_recovery<M: Model>(
    comm: &mut Communicator,
    state: &mut TrainState<M>,
    log: &mut RecoveryLog,
    known_joiners: &[(usize, u64)],
    timing: &mut TimingBreakdown,
    t_start: f64,
) -> bool {
    let my_latest = log
        .ckpts
        .back()
        .expect("a checkpoint is taken before iteration 0")
        .iter;
    // The anchor is the rollback point the *previous* (shrink) round
    // agreed on — the newest pinned snapshot. Every survivor pinned the
    // same value, so a regrow round can always roll back to it.
    let my_anchor = match log.pinned {
        0 => my_latest,
        n => log.ckpts[n - 1].iter,
    };
    let Ok(rec) = ft::recover(comm, &log.members, my_latest, my_anchor, known_joiners) else {
        return false;
    };
    log.members.clone_from(&rec.members);
    match log.ckpts.iter().position(|c| c.iter == rec.rollback_iter) {
        Some(pos) => log.ckpts.truncate(pos + 1),
        None => {
            // The agreed rollback predates the in-memory window (a
            // joiner whose newest disk generation was corrupt fell back
            // an extra interval). Reload it from this rank's own durable
            // store and rebuild the deque; without a store, or with the
            // generation missing or unreadable, this rank leaves the run.
            let (rank, iter) = (comm.rank(), rec.rollback_iter);
            let gen = match log.store.as_ref().map(|store| store.load(iter)) {
                Some(Ok(gen)) => gen,
                Some(Err(err)) => {
                    eprintln!(
                        "rank {rank}: checkpoint {iter} cannot be loaded ({err}); leaving the run"
                    );
                    return false;
                }
                None => {
                    eprintln!("rank {rank}: checkpoint {iter} is not in memory and no checkpoint directory is set; leaving the run");
                    return false;
                }
            };
            log.ckpts.clear();
            log.ckpts.push_back(gen);
        }
    }
    let c = log.ckpts.back().expect("rollback target present");
    state.restore(c);
    if rec.joined.is_empty() {
        // Shrink: pin everything up to (and including) the rollback
        // anchor so a later rejoin can still reach it.
        log.pinned = log.ckpts.len();
    } else {
        // Regrow: back to full membership, drop the pins and any stale
        // join traffic (ranks that are members again must not re-trigger
        // a recovery round).
        log.pinned = 0;
        comm.purge_pending(|m| {
            m.tag == Message::JOIN_REQ_TAG || m.tag == Message::JOIN_WELCOME_TAG
        });
        if rec.coordinator == comm.rank() {
            let off = ft::epoch_tag_offset(comm.epoch());
            let params = std::sync::Arc::new(c.params.clone());
            let velocity = std::sync::Arc::new(c.velocity.clone());
            for &j in &rec.joined {
                let _ = comm.send(
                    j,
                    ft::TAG_XFER + off,
                    Payload::dense_shared(std::sync::Arc::clone(&params)),
                );
                let _ = comm.send(
                    j,
                    ft::TAG_XFER + off + 1,
                    Payload::dense_shared(std::sync::Arc::clone(&velocity)),
                );
            }
        }
    }
    timing.recovery_ms += comm.now_ms() - t_start;
    timing.recoveries += 1;
    true
}

/// Top-1 accuracy of `model` over the whole dataset, in chunks.
fn evaluate(model: &mut dyn Model, ds: &dyn Dataset) -> f64 {
    let chunk = 32usize;
    let mut correct_weighted = 0.0f64;
    let mut total = 0usize;
    let mut i = 0usize;
    while i < ds.len() {
        let end = (i + chunk).min(ds.len());
        let idx: Vec<usize> = (i..end).collect();
        let (x, ys) = ds.batch(&idx);
        let logits = model.forward(&x, false);
        let acc = accuracy(&logits, &ys) as f64;
        correct_weighted += acc * ys.len() as f64;
        total += ys.len();
        i = end;
    }
    if total == 0 {
        0.0
    } else {
        correct_weighted / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_data::GaussianMixture;
    use gtopk_nn::models;

    fn quick_cfg(alg: Algorithm, workers: usize) -> TrainConfig {
        TrainConfig {
            workers,
            batch_per_worker: 8,
            epochs: 3,
            algorithm: alg,
            lr: LrSchedule::constant(0.2),
            momentum: 0.9,
            density: DensitySchedule::constant(0.05),
            cost_model: CostModel::zero(),
            compute_cost: None,
            selector: Selector::Exact,
            topology: Topology::Binomial,
            momentum_correction: false,
            clip_norm: None,
            data_seed: 1,
            fault_plan: None,
            checkpoint_interval: 4,
            checkpoint_dir: None,
            overlap: None,
            ps: None,
        }
    }

    #[test]
    fn all_algorithms_reduce_loss() {
        let data = GaussianMixture::new(3, 256, 8, 4, 2.0, 0.4);
        for alg in Algorithm::ALL {
            let mut cfg = quick_cfg(alg, 4);
            // Six epochs: the budget-cascade algorithms (Ok-Topk, SparDL)
            // oscillate for a few epochs at this aggressive lr/momentum
            // while their witnessed-reject feedback settles, then
            // converge like the rest.
            cfg.epochs = 6;
            let report = train_distributed(&cfg, || models::mlp(7, 8, 16, 4), &data, None);
            let first = report.epochs[0].train_loss;
            let last = report.final_loss();
            assert!(
                last < first,
                "{}: loss did not drop ({first} -> {last})",
                alg.name()
            );
            assert_eq!(report.workers, 4);
            assert_eq!(report.epochs.len(), 6);
        }
    }

    #[test]
    fn plan_driven_algorithms_train_at_a_folded_size() {
        let data = GaussianMixture::new(6, 320, 8, 4, 2.5, 0.4);
        // gTop-k over the binomial plan (the one topology) at a folded P.
        let mut cfg = quick_cfg(Algorithm::GTopK, 5);
        cfg.epochs = 5;
        let report = train_distributed(&cfg, || models::mlp(19, 8, 16, 4), &data, None);
        assert!(
            report.final_loss() < report.epochs[0].train_loss,
            "loss did not drop"
        );
    }

    #[test]
    fn eval_accuracy_improves_with_training() {
        let train = GaussianMixture::new(5, 256, 8, 4, 3.0, 0.3);
        // Same seed so train and eval share the class means; item noise
        // still differs because item indices map to different RNG streams.
        let eval = GaussianMixture::new(5, 64, 8, 4, 3.0, 0.3);
        let cfg = quick_cfg(Algorithm::GTopK, 4);
        let report = train_distributed(&cfg, || models::mlp(9, 8, 16, 4), &train, Some(&eval));
        let acc = report.final_accuracy().expect("eval ran");
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn replicas_stay_consistent_across_ranks() {
        // train_distributed asserts this internally; failure would panic.
        let data = GaussianMixture::new(8, 128, 6, 3, 2.0, 0.4);
        for alg in [Algorithm::Dense, Algorithm::GTopK, Algorithm::TopK] {
            let cfg = quick_cfg(alg, 3); // non-power-of-two on purpose
            let _ = train_distributed(&cfg, || models::mlp(11, 6, 8, 3), &data, None);
        }
    }

    #[test]
    fn gtopk_sends_fewer_elements_than_topk_at_scale() {
        let data = GaussianMixture::new(9, 512, 8, 4, 2.0, 0.4);
        let send = |alg| {
            let cfg = quick_cfg(alg, 8);
            train_distributed(&cfg, || models::mlp(13, 8, 32, 4), &data, None).elems_sent_rank0
        };
        let topk = send(Algorithm::TopK);
        let gtopk = send(Algorithm::GTopK);
        let dense = send(Algorithm::Dense);
        assert!(gtopk < topk, "gTop-k {gtopk} !< Top-k {topk}");
        assert!(topk < dense, "Top-k {topk} !< Dense {dense}");
    }

    #[test]
    fn timing_breakdown_reflects_compute_cost() {
        let data = GaussianMixture::new(10, 128, 6, 3, 2.0, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 2);
        cfg.cost_model = CostModel::gigabit_ethernet();
        cfg.compute_cost = Some(ComputeCost {
            compute_ms: 5.0,
            sparsify_ms: 1.0,
        });
        let report = train_distributed(&cfg, || models::mlp(15, 6, 8, 3), &data, None);
        let (comp, compr, comm) = report.timing.per_iteration();
        assert!((comp - 5.0).abs() < 1e-9);
        assert!((compr - 1.0).abs() < 1e-9);
        assert!(comm > 0.0, "communication time must be charged");
        assert!(report.sim_time_ms > 0.0);
        assert!(report.throughput(8) > 0.0);
    }

    #[test]
    fn update_nnz_reflects_algorithm_semantics() {
        let data = GaussianMixture::new(14, 256, 16, 4, 2.0, 0.4);
        let build = || models::mlp(23, 16, 32, 4);
        let m = build().num_params();
        let run = |alg| {
            let mut cfg = quick_cfg(alg, 4);
            cfg.density = DensitySchedule::constant(0.02);
            cfg.epochs = 1;
            train_distributed(&cfg, build, &data, None)
        };
        let k = (0.02 * m as f64).round();
        let dense = run(Algorithm::Dense);
        assert_eq!(dense.mean_update_nnz, m as f64);
        let gtopk = run(Algorithm::GTopK);
        assert!(gtopk.mean_update_nnz <= k + 0.5, "gTop-k applies exactly k");
        let topk = run(Algorithm::TopK);
        assert!(
            topk.mean_update_nnz >= k - 0.5 && topk.mean_update_nnz <= 4.0 * k + 0.5,
            "Top-k applies K in [k, kP]: {}",
            topk.mean_update_nnz
        );
        assert!(topk.mean_update_nnz > gtopk.mean_update_nnz);
    }

    #[test]
    fn clip_to_norm_rescales_only_when_needed() {
        let mut g = vec![3.0f32, 4.0]; // norm 5
        clip_to_norm(&mut g, 10.0);
        assert_eq!(g, vec![3.0, 4.0]);
        clip_to_norm(&mut g, 1.0);
        let norm = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        assert!((g[0] / g[1] - 0.75).abs() < 1e-6, "direction preserved");
    }

    #[test]
    fn clipped_training_converges() {
        let data = GaussianMixture::new(16, 256, 8, 4, 2.5, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.clip_norm = Some(1.0);
        let report = train_distributed(&cfg, || models::mlp(27, 8, 16, 4), &data, None);
        assert!(report.final_loss() < report.epochs[0].train_loss);
    }

    #[test]
    fn momentum_correction_trains_and_stays_consistent() {
        let data = GaussianMixture::new(12, 256, 8, 4, 2.5, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.momentum_correction = true;
        cfg.density = DensitySchedule::constant(0.01);
        cfg.epochs = 5;
        let report = train_distributed(&cfg, || models::mlp(21, 8, 16, 4), &data, None);
        assert!(
            report.final_loss() < 0.7 * report.epochs[0].train_loss,
            "correction run must converge: {} -> {}",
            report.epochs[0].train_loss,
            report.final_loss()
        );
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical() {
        let data = GaussianMixture::new(31, 256, 8, 4, 2.0, 0.4);
        let build = || models::mlp(33, 8, 16, 4);
        let plain = quick_cfg(Algorithm::GTopK, 4);
        let mut gated = plain.clone();
        gated.fault_plan = Some(FaultPlan::none());
        let a = train_distributed(&plain, build, &data, None);
        let b = train_distributed(&gated, build, &data, None);
        for (ea, eb) in a.epochs.iter().zip(b.epochs.iter()) {
            assert_eq!(ea.train_loss, eb.train_loss, "losses must be bit-identical");
        }
        assert_eq!(a.elems_sent_rank0, b.elems_sent_rank0);
        assert_eq!(b.retransmissions, 0);
        assert_eq!(b.survivors, 4);
    }

    #[test]
    fn dropped_messages_are_retried_transparently() {
        let data = GaussianMixture::new(32, 256, 8, 4, 2.0, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.fault_plan = Some(FaultPlan::seeded(7).with_drop_prob(0.15));
        let report = train_distributed(&cfg, || models::mlp(35, 8, 16, 4), &data, None);
        assert!(report.retransmissions > 0, "drops must force retransmits");
        assert_eq!(report.timing.recoveries, 0, "no membership change");
        assert_eq!(report.survivors, 4);
        assert!(report.final_loss() < report.epochs[0].train_loss);
    }

    #[test]
    fn fault_runs_are_deterministic_for_a_fixed_seed() {
        let data = GaussianMixture::new(33, 256, 8, 4, 2.0, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.fault_plan = Some(FaultPlan::seeded(11).with_drop_prob(0.08));
        let run = || train_distributed(&cfg, || models::mlp(37, 8, 16, 4), &data, None);
        let (a, b) = (run(), run());
        assert_eq!(a.retransmissions, b.retransmissions);
        assert_eq!(a.sim_time_ms, b.sim_time_ms);
        for (ea, eb) in a.epochs.iter().zip(b.epochs.iter()) {
            assert_eq!(ea.train_loss, eb.train_loss);
        }
    }

    #[test]
    fn crashed_rank_shrinks_the_run_which_still_converges() {
        let data = GaussianMixture::new(34, 256, 8, 4, 2.5, 0.4);
        let build = || models::mlp(39, 8, 16, 4);
        // 4 ranks, rank 3 dies before its 11th iteration (mid-epoch 1).
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.epochs = 4;
        cfg.cost_model = CostModel::gigabit_ethernet(); // nonzero α-β so recovery has a cost
        cfg.fault_plan = Some(FaultPlan::seeded(1).with_crash(3, 10));
        let faulted = train_distributed(&cfg, build, &data, None);
        assert_eq!(faulted.survivors, 3, "exactly one rank must be lost");
        assert!(faulted.timing.recoveries >= 1, "a recovery must be logged");
        assert!(faulted.timing.recovery_ms > 0.0);
        assert!(
            faulted.final_loss() < faulted.epochs[0].train_loss,
            "shrunk run must keep converging: {} -> {}",
            faulted.epochs[0].train_loss,
            faulted.final_loss()
        );

        // A fault-free 3-worker baseline on the same problem lands in
        // the same loss regime (shards differ, so not bit-identical).
        let mut base_cfg = quick_cfg(Algorithm::GTopK, 3);
        base_cfg.epochs = 4;
        let baseline = train_distributed(&base_cfg, build, &data, None);
        let (f, b) = (faulted.final_loss(), baseline.final_loss());
        assert!(
            (f - b).abs() <= 0.5 * b.max(0.1),
            "shrunk run must land near the 3-worker baseline: {f} vs {b}"
        );
    }

    #[test]
    fn feedback_variant_survives_a_crash_too() {
        let data = GaussianMixture::new(35, 256, 8, 4, 2.5, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopKFeedback, 4);
        cfg.epochs = 4;
        cfg.fault_plan = Some(FaultPlan::seeded(2).with_crash(1, 13));
        let report = train_distributed(&cfg, || models::mlp(41, 8, 16, 4), &data, None);
        assert_eq!(report.survivors, 3);
        assert!(report.final_loss() < report.epochs[0].train_loss);
    }

    #[test]
    fn straggler_inflates_sim_time_but_not_results() {
        let data = GaussianMixture::new(36, 256, 8, 4, 2.0, 0.4);
        let build = || models::mlp(43, 8, 16, 4);
        let mut slow = quick_cfg(Algorithm::GTopK, 4);
        slow.cost_model = CostModel::gigabit_ethernet();
        slow.fault_plan = Some(FaultPlan::seeded(3).with_straggler(2, 4.0));
        let mut fast = slow.clone();
        fast.fault_plan = Some(FaultPlan::seeded(3));
        let s = train_distributed(&slow, build, &data, None);
        let f = train_distributed(&fast, build, &data, None);
        assert!(
            s.sim_time_ms > f.sim_time_ms,
            "straggler must slow the run: {} !> {}",
            s.sim_time_ms,
            f.sim_time_ms
        );
        for (es, ef) in s.epochs.iter().zip(f.epochs.iter()) {
            assert_eq!(es.train_loss, ef.train_loss, "numerics must not change");
        }
    }

    #[test]
    fn overlap_composes_with_crash_recovery() {
        // --overlap --buckets 2 plus a scheduled crash: the run must
        // recover (rollback + shrink) and keep converging.
        let data = GaussianMixture::new(37, 256, 8, 4, 2.5, 0.4);
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.epochs = 4;
        cfg.cost_model = CostModel::gigabit_ethernet();
        cfg.compute_cost = Some(ComputeCost {
            compute_ms: 4.0,
            sparsify_ms: 1.0,
        });
        cfg = cfg.with_overlap(OverlapConfig::buckets(2));
        cfg.fault_plan = Some(FaultPlan::seeded(4).with_crash(2, 9));
        let report = train_distributed(&cfg, || models::mlp(45, 8, 16, 4), &data, None);
        assert_eq!(report.survivors, 3, "exactly one rank must be lost");
        assert!(report.timing.recoveries >= 1, "a recovery must be logged");
        let stats = report.overlap.as_ref().expect("overlap stats present");
        assert!(stats.iterations > 0);
        assert!(
            report.final_loss() < report.epochs[0].train_loss,
            "overlapped run must keep converging through the crash: {} -> {}",
            report.epochs[0].train_loss,
            report.final_loss()
        );
    }

    #[test]
    fn single_bucket_overlap_ft_matches_the_serial_ft_loss_exactly() {
        // A run without `--overlap` is the one-bucket engine, so asking
        // for one bucket explicitly must replay it through a mid-run
        // crash, rollback included — bit-identical losses at P = 8.
        let data = GaussianMixture::new(38, 512, 8, 4, 2.5, 0.4);
        let build = || models::mlp(47, 8, 16, 4);
        let mut serial = quick_cfg(Algorithm::GTopK, 8);
        serial.epochs = 3;
        serial.fault_plan = Some(FaultPlan::seeded(5).with_crash(6, 7));
        let overlapped = serial.clone().with_overlap(OverlapConfig::buckets(1));
        let a = train_distributed(&serial, build, &data, None);
        let b = train_distributed(&overlapped, build, &data, None);
        assert_eq!(a.survivors, 7);
        assert_eq!(b.survivors, 7);
        for (ea, eb) in a.epochs.iter().zip(b.epochs.iter()) {
            assert_eq!(
                ea.train_loss, eb.train_loss,
                "single-bucket overlap must replay the serial FT numerics"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dataset too small")]
    fn undersized_dataset_rejected() {
        let data = GaussianMixture::new(11, 8, 4, 2, 2.0, 0.4);
        let cfg = quick_cfg(Algorithm::Dense, 4);
        let _ = train_distributed(&cfg, || models::mlp(1, 4, 4, 2), &data, None);
    }

    #[test]
    fn a_short_welcome_frame_is_skipped_not_fatal() {
        use gtopk_comm::transport::SimTransport;
        let mut ends = SimTransport::mesh(2)
            .into_iter()
            .map(|endpoint| Communicator::from_transport(Box::new(endpoint), CostModel::zero()));
        let (mut coordinator, mut joiner) = (ends.next().unwrap(), ends.next().unwrap());
        // Too short to carry epoch, rollback and a member — then a valid
        // frame: epoch 3, rollback 40, members {0, 1}.
        for wire in [vec![3.0, 40.0], vec![3.0, 40.0, 0.0, 1.0]] {
            coordinator
                .send(1, Message::JOIN_WELCOME_TAG, Payload::dense(wire))
                .unwrap();
        }
        assert_eq!(request_join(&mut joiner, 40), Some((vec![0, 1], 40, 0, 3)));
    }

    #[test]
    fn a_welcome_naming_a_generation_missing_from_disk_makes_the_joiner_leave() {
        use gtopk_comm::transport::SimTransport;
        let mut ends = SimTransport::mesh(2)
            .into_iter()
            .map(|endpoint| Communicator::from_transport(Box::new(endpoint), CostModel::zero()));
        let (mut coordinator, mut joiner) = (ends.next().unwrap(), ends.next().unwrap());
        let dir = unique_dir("missing-generation");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..quick_cfg(Algorithm::GTopK, 2)
        };
        let data = GaussianMixture::new(61, 256, 8, 4, 2.5, 0.4);
        let mut state = TrainState::new(&cfg, &joiner, models::mlp(61, 8, 16, 4), &data);
        // The joiner's store holds generation 80 only.
        let store = CheckpointStore::new(&dir, 1).unwrap();
        store
            .save(&DurableCheckpoint {
                iter: 80,
                ..state.snapshot(1)
            })
            .unwrap();
        let mut log = RecoveryLog {
            members: vec![0, 1],
            ckpts: VecDeque::new(),
            pinned: 0,
            store: Some(store),
        };
        // A well-formed WELCOME: epoch 3, rollback 40, members {0, 1}.
        coordinator
            .send(
                1,
                Message::JOIN_WELCOME_TAG,
                Payload::dense(vec![3.0, 40.0, 0.0, 1.0]),
            )
            .unwrap();
        let mut timing = TimingBreakdown::default();
        assert!(!rejoin(
            &cfg,
            &mut joiner,
            &mut state,
            &mut log,
            80,
            &mut timing
        ));
        assert_eq!(timing.recoveries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unique_dir(label: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gtopk-elastic-{label}-{}", std::process::id()))
    }

    /// What happens to the victim's newest durable generation between its
    /// crash and its restart.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Disk {
        Intact,
        /// Truncated: a torn write.
        Torn,
        /// Re-encoded, CRC and all, with one parameter bit flipped: it
        /// loads, and disagrees with the donor's transfer.
        ParamBitFlipped,
        /// Re-encoded with its residual split in two buckets: it loads,
        /// and does not fit the one-bucket run.
        OtherShape,
    }

    /// Runs `cfg` over a manually wired mesh so a victim rank can be
    /// killed and *restarted* (the [`Cluster`] harness cannot re-spawn a
    /// thread). With `victim = Some((rank, step, disk))` that rank
    /// crashes at comm-local `step`, has its newest durable generation
    /// damaged as `disk` says, and is then re-wired in to rejoin from
    /// disk. Returns per-rank reports in rank order, `None` for a rank
    /// that left the run.
    fn run_elastic(
        data: &GaussianMixture,
        cfg: &TrainConfig,
        victim: Option<(usize, u64, Disk)>,
    ) -> Vec<Option<TrainReport>> {
        use gtopk_comm::transport::SimTransport;
        let build = || models::mlp(61, 8, 16, 4);
        let (mesh, ends) = SimTransport::mesh_with_handle(cfg.workers);
        std::thread::scope(|scope| {
            let mut handles: Vec<Option<_>> = ends
                .into_iter()
                .enumerate()
                .map(|(rank, endpoint)| {
                    let mut vcfg = cfg.clone();
                    if let Some((v, step, _)) = victim {
                        if rank == v {
                            let base = vcfg.fault_plan.clone().expect("elastic runs arm a plan");
                            vcfg.fault_plan = Some(base.with_crash(v, step));
                        }
                    }
                    Some(scope.spawn(move || {
                        let mut comm =
                            Communicator::from_transport(Box::new(endpoint), vcfg.cost_model);
                        train_rank(&vcfg, &mut comm, build, data, None)
                    }))
                })
                .collect();
            if let Some((v, _, disk)) = victim {
                let dead = handles[v].take().expect("victim handle").join().unwrap();
                assert!(dead.is_none(), "the victim must report a crash");
                if disk != Disk::Intact {
                    let dir = cfg.checkpoint_dir.as_ref().expect("elastic runs set a dir");
                    let store = CheckpointStore::new(dir, v).unwrap();
                    let newest = *store
                        .generations()
                        .last()
                        .expect("victim wrote checkpoints");
                    let path = dir.join(format!("ckpt-{v:04}-{newest:012}.bin"));
                    if disk == Disk::Torn {
                        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                        f.set_len(9).unwrap();
                    } else {
                        let mut c = store.load(newest).unwrap();
                        if disk == Disk::OtherShape {
                            let tail = c.residuals[0].split_off(1);
                            c.residuals.push(tail);
                        } else {
                            c.params[0] = f32::from_bits(c.params[0].to_bits() ^ 1);
                        }
                        std::fs::write(&path, crate::ckpt::encode(&c)).unwrap();
                    }
                }
                // The restarted incarnation: crash-free plan (its comm
                // step counter restarts at 0), same checkpoint directory.
                let rcfg = cfg.clone();
                let endpoint = mesh.rejoin(v);
                handles[v] = Some(scope.spawn(move || {
                    let mut comm =
                        Communicator::from_transport(Box::new(endpoint), rcfg.cost_model);
                    train_rank(&rcfg, &mut comm, build, data, None)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.expect("handle present").join().unwrap())
                .collect()
        })
    }

    /// The reports of a run every rank must finish.
    fn finished(reports: Vec<Option<TrainReport>>) -> Vec<TrainReport> {
        reports
            .into_iter()
            .enumerate()
            .map(|(rank, r)| r.unwrap_or_else(|| panic!("rank {rank} must finish the run")))
            .collect()
    }

    fn elastic_cfg(dir: Option<std::path::PathBuf>) -> TrainConfig {
        let mut cfg = quick_cfg(Algorithm::GTopK, 4);
        cfg.epochs = 10; // 8 iters/epoch on 256 items: 80 iterations
        cfg.fault_plan = Some(FaultPlan::seeded(9));
        cfg.checkpoint_dir = dir;
        cfg
    }

    #[test]
    fn killed_rank_rejoins_from_disk_and_matches_the_fault_free_run() {
        let data = GaussianMixture::new(61, 256, 8, 4, 2.5, 0.4);
        let dir = unique_dir("rejoin");
        let _ = std::fs::remove_dir_all(&dir);
        // Crash rank 3 at step 21 (one past the it=20 boundary, so every
        // rank's checkpoint window is aligned at [16, 20]).
        let elastic = run_elastic(
            &data,
            &elastic_cfg(Some(dir.clone())),
            Some((3, 21, Disk::Intact)),
        );
        let elastic = finished(elastic);
        let baseline = finished(run_elastic(&data, &elastic_cfg(None), None));
        for (rank, (e, b)) in elastic.iter().zip(&baseline).enumerate() {
            assert_eq!(e.survivors, 4, "rank {rank} must end with full membership");
            for (ee, eb) in e.epochs.iter().zip(&b.epochs) {
                assert!(
                    (ee.train_loss - eb.train_loss).abs() <= 1e-9,
                    "rank {rank} epoch {}: elastic {} vs fault-free {}",
                    ee.epoch,
                    ee.train_loss,
                    eb.train_loss
                );
            }
        }
        // Survivors log at least one round (the crash and the rejoin
        // collapse into a single round when the restart is fast enough
        // for the coordinator to spot the JOIN_REQ while collecting
        // ALIVEs); the joiner logs its verified state transfer.
        assert!(elastic[0].timing.recoveries >= 1, "survivor recoveries");
        assert!(elastic[3].timing.recoveries >= 1, "joiner recovery");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejoin_survives_a_torn_newest_generation() {
        let data = GaussianMixture::new(61, 256, 8, 4, 2.5, 0.4);
        let dir = unique_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        // The victim's newest on-disk generation (it = 20) is truncated
        // before the restart: the joiner must fall back to 16 and the
        // whole membership must roll back there with it.
        let elastic = run_elastic(
            &data,
            &elastic_cfg(Some(dir.clone())),
            Some((3, 21, Disk::Torn)),
        );
        let elastic = finished(elastic);
        let baseline = finished(run_elastic(&data, &elastic_cfg(None), None));
        for (rank, (e, b)) in elastic.iter().zip(&baseline).enumerate() {
            assert_eq!(e.survivors, 4, "rank {rank} must end with full membership");
            for (ee, eb) in e.epochs.iter().zip(&b.epochs) {
                assert!(
                    (ee.train_loss - eb.train_loss).abs() <= 1e-9,
                    "rank {rank} epoch {}: elastic {} vs fault-free {}",
                    ee.epoch,
                    ee.train_loss,
                    eb.train_loss
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_donor_transfer_that_disagrees_with_the_disk_copy_makes_the_joiner_leave() {
        let data = GaussianMixture::new(61, 256, 8, 4, 2.5, 0.4);
        let dir = unique_dir("disagree");
        let _ = std::fs::remove_dir_all(&dir);
        // The victim's newest generation (it = 20) loads, but one of its
        // parameter bits is not what the survivors hold: the joiner must
        // leave instead of panicking, and the survivors shrink past it.
        let cfg = elastic_cfg(Some(dir.clone()));
        let reports = run_elastic(&data, &cfg, Some((3, 21, Disk::ParamBitFlipped)));
        assert!(
            reports[3].is_none(),
            "the joiner must report as having left"
        );
        for (rank, r) in reports[..3].iter().enumerate() {
            let r = r
                .as_ref()
                .unwrap_or_else(|| panic!("survivor {rank} must finish"));
            assert_eq!(r.epochs.len(), cfg.epochs, "survivor {rank}");
            assert_eq!(r.survivors, 3, "survivor {rank} ends without the joiner");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_joiner_whose_checkpoint_does_not_fit_the_run_leaves() {
        let data = GaussianMixture::new(61, 256, 8, 4, 2.5, 0.4);
        let dir = unique_dir("other-shape");
        let _ = std::fs::remove_dir_all(&dir);
        // The victim's newest generation loads but holds two residual
        // buckets: the joiner must leave instead of panicking in the
        // restore, and the survivors shrink past it.
        let cfg = elastic_cfg(Some(dir.clone()));
        let reports = run_elastic(&data, &cfg, Some((3, 21, Disk::OtherShape)));
        assert!(
            reports[3].is_none(),
            "the joiner must report as having left"
        );
        for (rank, r) in reports[..3].iter().enumerate() {
            let r = r
                .as_ref()
                .unwrap_or_else(|| panic!("survivor {rank} must finish"));
            assert_eq!(r.epochs.len(), cfg.epochs, "survivor {rank}");
            assert_eq!(r.survivors, 3, "survivor {rank} ends without the joiner");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_resume_names_the_first_field_that_disagrees() {
        // A model of segments [6, 4, 2]: two fused buckets hold 2 + 4 and
        // 6 parameters.
        let segments = [6, 4, 2];
        let cfg = quick_cfg(Algorithm::GTopK, 1);
        let fits = DurableCheckpoint {
            rank: 0,
            iter: 8,
            params: vec![0.5; 12],
            velocity: vec![0.0; 12],
            residuals: vec![vec![0.0; 12]],
            local_velocity: None,
            data_epoch: 0,
            data_cursor: 8,
            epoch_loss: 0.0,
            losses: Vec::new(),
            evals: Vec::new(),
        };
        assert_eq!(check_resume(&cfg, &segments, &fits), Ok(()));
        let two = cfg.clone().with_overlap(OverlapConfig::buckets(2));
        let split = DurableCheckpoint {
            residuals: vec![vec![0.0; 4], vec![0.0; 8]],
            ..fits.clone()
        };
        let corrected = TrainConfig {
            momentum_correction: true,
            ..cfg.clone()
        };
        for (cfg, c, field, saved, run) in [
            (
                &cfg,
                DurableCheckpoint {
                    params: vec![0.5; 10],
                    ..fits.clone()
                },
                "parameter count",
                "10",
                "12",
            ),
            (
                &cfg,
                DurableCheckpoint {
                    velocity: Vec::new(),
                    ..fits.clone()
                },
                "velocity length",
                "0",
                "12",
            ),
            (&two, fits.clone(), "bucket count", "1", "2"),
            (&two, split, "bucket sizes", "[4, 8]", "[6, 6]"),
            (
                &corrected,
                fits.clone(),
                "momentum-correction buffer",
                "absent",
                "12 values",
            ),
            (
                &cfg,
                DurableCheckpoint {
                    local_velocity: Some(vec![0.0; 12]),
                    ..fits.clone()
                },
                "momentum-correction buffer",
                "12 values",
                "absent",
            ),
        ] {
            let err = check_resume(cfg, &segments, &c).unwrap_err();
            assert_eq!(
                (err.field, err.saved.as_str(), err.run.as_str()),
                (field, saved, run)
            );
        }
    }

    #[test]
    fn a_failed_durable_write_warns_and_trains_on() {
        // A directory squats on generation 4's final path, so its rename
        // fails: the rank must carry on with its in-memory checkpoints
        // and land exactly where a run without a checkpoint dir lands.
        let data = GaussianMixture::new(44, 128, 8, 4, 2.0, 0.4);
        let build = || models::mlp(53, 8, 16, 4);
        let dir = unique_dir("unwritable");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("ckpt-0000-000000000004.bin")).unwrap();
        let mut durable = quick_cfg(Algorithm::GTopK, 1);
        durable.epochs = 2;
        durable.checkpoint_dir = Some(dir.clone());
        let mut plain = durable.clone();
        plain.checkpoint_dir = None;
        let a = train_distributed(&durable, build, &data, None);
        let b = train_distributed(&plain, build, &data, None);
        assert_eq!(a.epochs.len(), 2);
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.train_loss.to_bits(), eb.train_loss.to_bits());
        }
        // The later generations were written; the failed one left no
        // temporary file behind.
        let store = CheckpointStore::new(&dir, 0).unwrap();
        assert!(store.load(28).is_ok(), "the newest generation is on disk");
        let litter = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with(".tmp-")
            })
            .count();
        assert_eq!(litter, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_checkpoints_cost_zero_simulated_time() {
        // Same crash-and-shrink run with and without a checkpoint
        // directory: durable I/O is wall-clock only, so the simulated
        // clock and the numerics must be bit-identical.
        let data = GaussianMixture::new(34, 256, 8, 4, 2.5, 0.4);
        let build = || models::mlp(39, 8, 16, 4);
        let mut plain = quick_cfg(Algorithm::GTopK, 4);
        plain.epochs = 4;
        plain.cost_model = CostModel::gigabit_ethernet();
        plain.fault_plan = Some(FaultPlan::seeded(1).with_crash(3, 10));
        let dir = unique_dir("overhead");
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = plain.clone();
        durable.checkpoint_dir = Some(dir.clone());
        let a = train_distributed(&plain, build, &data, None);
        let b = train_distributed(&durable, build, &data, None);
        assert_eq!(
            a.sim_time_ms, b.sim_time_ms,
            "durable checkpoints must cost exactly zero simulated time"
        );
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.train_loss, eb.train_loss, "numerics must not change");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solo_run_cold_resumes_from_disk() {
        // A single worker needs no rejoin protocol: a restart with the
        // same directory resumes from the newest intact generation and
        // must land exactly where an uninterrupted run lands.
        let data = GaussianMixture::new(44, 128, 8, 4, 2.0, 0.4);
        let build = || models::mlp(53, 8, 16, 4);
        let dir = unique_dir("solo");
        let _ = std::fs::remove_dir_all(&dir);
        let mut short = quick_cfg(Algorithm::GTopK, 1);
        short.epochs = 2;
        short.checkpoint_dir = Some(dir.clone());
        let _ = train_distributed(&short, build, &data, None);
        let mut resumed = short.clone();
        resumed.epochs = 4;
        let resumed_report = train_distributed(&resumed, build, &data, None);
        let mut full = resumed.clone();
        full.checkpoint_dir = None;
        let full_report = train_distributed(&full, build, &data, None);
        for (er, ef) in resumed_report.epochs.iter().zip(&full_report.epochs) {
            assert_eq!(
                er.train_loss, ef.train_loss,
                "epoch {}: cold resume must replay the uninterrupted run",
                er.epoch
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
