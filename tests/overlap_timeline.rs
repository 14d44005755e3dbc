//! Executed-overlap schedule validation: the engine's per-bucket
//! timelines must satisfy the schedule invariants, match the plan-clock
//! twin exactly for *any* worker count (power-of-two or folded), match an
//! independent FIFO oracle over the paper's closed form at power-of-two
//! counts, compose with transport-level fault injection, and keep the
//! send/recv hot path allocation-free at steady state.

use gtopk::overlap::check_timeline_invariants;
use gtopk::{
    train_distributed, Algorithm, ComputeCost, DensitySchedule, LrSchedule, OverlapConfig,
    Selector, TrainConfig, TrainReport,
};
use gtopk_comm::{CostModel, FaultPlan};
use gtopk_data::GaussianMixture;
use gtopk_nn::{models, Model};
use gtopk_perfmodel::gtopk_allreduce_ms;

fn overlap_cfg(workers: usize, buckets: usize, epochs: usize) -> TrainConfig {
    TrainConfig {
        workers,
        batch_per_worker: 8,
        epochs,
        algorithm: Algorithm::GTopK,
        lr: LrSchedule::constant(0.2),
        momentum: 0.9,
        density: DensitySchedule::constant(0.05),
        cost_model: CostModel::gigabit_ethernet(),
        // Nonzero sparsify exercises the folded cost basis: readiness
        // gates on compute *and* sparsification, and the twin and the oracle
        // must charge both.
        compute_cost: Some(ComputeCost {
            compute_ms: 8.0,
            sparsify_ms: 0.5,
        }),
        selector: Selector::Exact,
        topology: gtopk::Topology::Binomial,
        momentum_correction: false,
        clip_norm: None,
        data_seed: 17,
        fault_plan: None,
        checkpoint_interval: 10,
        checkpoint_dir: None,
        overlap: Some(OverlapConfig::buckets(buckets)),
        ps: None,
    }
}

fn run(cfg: &TrainConfig) -> TrainReport {
    let data = GaussianMixture::new(21, 256, 8, 4, 2.5, 0.4);
    train_distributed(cfg, || models::mlp(19, 8, 16, 4), &data, None)
}

/// Independent oracle of one iteration's span: `buckets` (parameter
/// counts in backward order) become ready as backward produces their
/// share of `compute`, queue on one FIFO channel, and each costs one
/// Eq. 7 gTopKAllReduce of its own `k`.
fn fifo_oracle_ms(buckets: &[usize], compute: ComputeCost, net: &CostModel, p: usize) -> f64 {
    let m: usize = buckets.iter().sum();
    let work_ms = compute.compute_ms + compute.sparsify_ms;
    let (mut ready, mut free) = (0.0f64, 0.0f64);
    for &params in buckets {
        ready += work_ms * params as f64 / m as f64;
        let k = ((params as f64 * 0.05).round() as usize).clamp(1, params);
        let start = ready.max(free);
        free = start + gtopk_allreduce_ms(net, p, k);
    }
    free
}

#[test]
fn executed_timelines_satisfy_schedule_invariants() {
    for buckets in [1usize, 2, 3] {
        let report = run(&overlap_cfg(4, buckets, 2));
        let stats = report.overlap.expect("overlap stats present");
        // The mlp has two parameter-bearing layers, so `fuse_layers`
        // clamps the requested bucket count to two.
        assert_eq!(stats.buckets, buckets.min(2));
        check_timeline_invariants(&stats.timelines).unwrap();
        assert!(stats.iterations > 0);
        assert!(stats.executed_overlapped_ms > 0.0);
    }
}

#[test]
fn executed_matches_analytic_for_any_worker_count() {
    // The engine and its plan-clock twin share the cost basis (readiness
    // by produced mass + the bucket fusion + `k` per bucket + the
    // replayed collective plans), so on a straggle-free cluster the
    // executed iteration span must equal the twin's prediction to float
    // tolerance for every worker count — including the folded
    // non-powers of two {3, 5, 6, 12}.
    let segments = models::mlp(19, 8, 16, 4).param_segments();
    // Two layers: one bucket is the whole vector, two are the layers.
    assert_eq!(segments.len(), 2);
    let m: usize = segments.iter().sum();
    let per_layer: Vec<usize> = segments.iter().rev().copied().collect();
    let compute = ComputeCost {
        compute_ms: 8.0,
        sparsify_ms: 0.5,
    };
    for p in [2usize, 3, 4, 5, 6, 12] {
        for buckets in [1usize, 2] {
            let cfg = overlap_cfg(p, buckets, 2);
            let report = run(&cfg);
            let stats = report.overlap.expect("overlap stats present");
            assert!(
                stats.max_abs_dev_ms < 1e-6,
                "P={p} buckets={buckets}: executed deviates from analytic by {} ms",
                stats.max_abs_dev_ms
            );
            // At power-of-two P the binomial plan cost coincides with
            // the paper's closed form (Eq. 7), so the twin must also
            // agree with the independently computed FIFO oracle; folded
            // counts pay extra pre/post rounds the continuous-log model
            // does not price.
            if p.is_power_of_two() {
                let fused = if buckets == 1 { &[m][..] } else { &per_layer };
                let overlapped = fifo_oracle_ms(fused, compute, &cfg.cost_model, p);
                let serial = fifo_oracle_ms(&[m], compute, &cfg.cost_model, p);
                let per_iter = stats.executed_overlapped_ms / stats.iterations as f64;
                assert!(
                    (per_iter - overlapped).abs() < 1e-6,
                    "P={p} buckets={buckets}: executed {per_iter} vs analytic {overlapped}"
                );
                // Wherever the oracle predicts a speedup, the
                // executed schedule must realize it.
                if serial / overlapped > 1.0 + 1e-9 {
                    assert!(
                        stats.executed_overlapped_ms < stats.analytic_serial_ms,
                        "P={p} buckets={buckets}: no realized speedup"
                    );
                }
            }
        }
    }
}

#[test]
fn overlap_converges_and_reports_consistently() {
    let report = run(&overlap_cfg(4, 2, 3));
    assert!(
        report.final_loss() < report.epochs[0].train_loss,
        "overlapped training must converge: {} -> {}",
        report.epochs[0].train_loss,
        report.final_loss()
    );
    let stats = report.overlap.expect("overlap stats present");
    assert_eq!(stats.iterations, report.timing.iterations);
    // Charged phases add up to the simulated clock.
    assert!(
        (report.timing.total_ms() - report.sim_time_ms).abs() < 1e-6,
        "timing breakdown {} must equal sim time {}",
        report.timing.total_ms(),
        report.sim_time_ms
    );
}

#[test]
fn overlap_composes_with_transport_fault_injection() {
    // Drops and stragglers act below the overlap engine; numerics must
    // be unchanged while the straggler stretches the simulated clock.
    let clean = run(&overlap_cfg(4, 2, 2));
    let mut dropped_cfg = overlap_cfg(4, 2, 2);
    dropped_cfg.fault_plan = Some(FaultPlan::seeded(5).with_drop_prob(0.1));
    let dropped = run(&dropped_cfg);
    assert!(dropped.retransmissions > 0, "drops must force retransmits");
    let mut straggled_cfg = overlap_cfg(4, 2, 2);
    straggled_cfg.fault_plan = Some(FaultPlan::seeded(5).with_straggler(2, 3.0));
    let straggled = run(&straggled_cfg);
    for ((c, d), s) in clean
        .epochs
        .iter()
        .zip(dropped.epochs.iter())
        .zip(straggled.epochs.iter())
    {
        assert_eq!(c.train_loss, d.train_loss, "drops must not change numerics");
        assert_eq!(
            c.train_loss, s.train_loss,
            "straggle must not change numerics"
        );
    }
    assert!(
        straggled.sim_time_ms > clean.sim_time_ms,
        "straggler must slow the run: {} !> {}",
        straggled.sim_time_ms,
        clean.sim_time_ms
    );
}

#[test]
fn steady_state_hot_path_allocates_nothing() {
    // All buffer-pool misses happen while the pool warms up in the
    // first iterations; training longer must not add a single miss —
    // the zero-allocation send/recv hot-path guarantee.
    let short = run(&overlap_cfg(4, 2, 1));
    let long = run(&overlap_cfg(4, 2, 3));
    assert!(short.pool_misses_rank0 > 0, "warmup must populate the pool");
    assert_eq!(
        long.pool_misses_rank0, short.pool_misses_rank0,
        "pool misses grew after warmup: steady-state hot path allocated"
    );
    assert!(
        long.pool_hits_rank0 > short.pool_hits_rank0,
        "longer runs must serve more requests from the pool"
    );
    // The same guarantee holds for the serial (non-overlapped) path.
    let mut serial_short = overlap_cfg(4, 2, 1);
    serial_short.overlap = None;
    let mut serial_long = overlap_cfg(4, 2, 3);
    serial_long.overlap = None;
    let (a, b) = (run(&serial_short), run(&serial_long));
    assert_eq!(b.pool_misses_rank0, a.pool_misses_rank0);
}

#[test]
fn disabling_overlap_restores_the_serial_report_shape() {
    let mut cfg = overlap_cfg(4, 2, 2);
    cfg.overlap = None;
    let report = run(&cfg);
    assert!(
        report.overlap.is_none(),
        "serial runs carry no overlap stats"
    );
    // Serial timing semantics unchanged: modeled compute is charged
    // exactly per iteration.
    let (comp, _compr, comm) = report.timing.per_iteration();
    assert!((comp - 8.0).abs() < 1e-9);
    assert!(comm > 0.0);
}
