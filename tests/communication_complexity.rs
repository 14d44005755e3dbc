//! Integration tests pinning the paper's communication-complexity claims
//! (Table I) to the *measured* per-rank traffic of the executed
//! algorithms, using the comm substrate's element counters.

use gtopk::{
    gtopk_all_reduce, sparse_sum_recursive_doubling, sparse_zoo_all_reduce_over, Algorithm,
    DensitySchedule, LrSchedule, Selector, TrainConfig,
};
use gtopk_comm::{collectives, Cluster, CostModel};
use gtopk_data::GaussianMixture;
use gtopk_nn::models;
use gtopk_perfmodel::ZooSchedule;
use gtopk_sparse::topk_sparse;

/// Deterministic per-rank pseudo-gradient.
fn grad(rank: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 11)
                .wrapping_mul(rank as u64 + 5)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn rank0_elems_gtopk(p: usize, dim: usize, k: usize) -> usize {
    let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let local = topk_sparse(&grad(comm.rank(), dim), k);
        gtopk_all_reduce(comm, local, k).unwrap();
        comm.stats()
    });
    stats[0].elems_sent + stats[0].elems_received
}

fn rank0_elems_topk(p: usize, dim: usize, k: usize) -> usize {
    let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let local = topk_sparse(&grad(comm.rank(), dim), k);
        sparse_sum_recursive_doubling(comm, local).unwrap();
        comm.stats()
    });
    stats[0].elems_sent + stats[0].elems_received
}

/// Rank-0 *sent* wire elements for a zoo collective (send volume is the
/// per-rank budget the zoo schedules bound; received volume mirrors it).
fn rank0_sent_zoo(p: usize, dim: usize, k: usize, oktopk: bool) -> usize {
    let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let local = topk_sparse(&grad(comm.rank(), dim), k);
        let all: Vec<usize> = (0..comm.size()).collect();
        let sched = if oktopk {
            ZooSchedule::oktopk(p, k)
        } else {
            ZooSchedule::spardl(p, k)
        };
        sparse_zoo_all_reduce_over(comm, &all, local, &sched).unwrap();
        comm.stats()
    });
    stats[0].elems_sent
}

fn rank0_elems_dense(p: usize, dim: usize) -> usize {
    let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
        let mut g = grad(comm.rank(), dim);
        collectives::allreduce_ring(comm, &mut g).unwrap();
        comm.stats()
    });
    stats[0].elems_sent + stats[0].elems_received
}

#[test]
fn gtopk_traffic_grows_logarithmically_with_p() {
    let (dim, k) = (8192usize, 32usize);
    let t4 = rank0_elems_gtopk(4, dim, k);
    let t16 = rank0_elems_gtopk(16, dim, k);
    let t64 = rank0_elems_gtopk(64, dim, k);
    // O(k log P): quadrupling P adds a constant amount, not a factor.
    let d1 = t16 as f64 - t4 as f64;
    let d2 = t64 as f64 - t16 as f64;
    assert!(
        d1 > 0.0 && d2 > 0.0,
        "traffic grows with P: {t4} {t16} {t64}"
    );
    assert!(
        d2 < 1.5 * d1,
        "increments must be ~constant (log growth): {d1} then {d2}"
    );
    // And far below linear growth.
    assert!((t64 as f64) < 4.0 * t4 as f64, "t64 {t64} vs t4 {t4}");
}

#[test]
fn topk_traffic_grows_linearly_with_p() {
    let (dim, k) = (8192usize, 32usize);
    let t4 = rank0_elems_topk(4, dim, k);
    let t16 = rank0_elems_topk(16, dim, k);
    // O(kP): 4× the workers ≈ 4-5× the traffic (disjoint supports).
    let ratio = t16 as f64 / t4 as f64;
    assert!(
        (3.0..8.0).contains(&ratio),
        "expected ~linear growth, got ratio {ratio} ({t4} -> {t16})"
    );
}

#[test]
fn dense_traffic_is_independent_of_p_and_linear_in_m() {
    let m = 4096usize;
    let t4 = rank0_elems_dense(4, m);
    let t16 = rank0_elems_dense(16, m);
    // Ring allreduce: each rank sends and receives 2((P−1)/P)·m elements
    // (reduce-scatter + allgather), i.e. 4m(P−1)/P counting both
    // directions — essentially independent of P for large P.
    for (p, t) in [(4usize, t4), (16, t16)] {
        let expect = 4.0 * m as f64 * (p as f64 - 1.0) / p as f64;
        let err = (t as f64 - expect).abs() / expect;
        assert!(err < 0.05, "P={p}: {t} vs expected ~{expect}");
    }
}

#[test]
fn gtopk_vs_topk_vs_dense_ordering_at_scale() {
    let (dim, k, p) = (100_000usize, 100usize, 32usize);
    let g = rank0_elems_gtopk(p, dim, k);
    let t = rank0_elems_topk(p, dim, k);
    let d = rank0_elems_dense(p, dim);
    assert!(g < t, "gTop-k {g} !< Top-k {t}");
    assert!(t < d, "Top-k {t} !< Dense {d}");
    // gTop-k must be at least an order of magnitude below dense here.
    assert!(g * 10 < d, "gTop-k {g} vs dense {d}");
}

#[test]
fn oktopk_traffic_is_o_k_with_no_log_p_factor() {
    let (dim, k) = (8192usize, 128usize);
    // Measured wire elements, not the analytic model: per-rank send
    // volume must stay O(k) as P grows. The split phase sends ⌈k/P⌉ per
    // round (log P rounds → the product *shrinks* with P) and the gather
    // phase sends ~2k total, so quadrupling P twice must not apply a
    // log-P factor the way gTop-k's 2k·log₂P volume does.
    let t4 = rank0_sent_zoo(4, dim, k, true);
    let t16 = rank0_sent_zoo(16, dim, k, true);
    let t64 = rank0_sent_zoo(64, dim, k, true);
    let g4 = rank0_elems_gtopk(4, dim, k);
    let g64 = rank0_elems_gtopk(64, dim, k);
    assert!(
        (t64 as f64) < 1.3 * t4 as f64,
        "Ok-Topk volume must be ~flat in P: {t4} {t16} {t64}"
    );
    // gTop-k's log-P growth over the same span, for contrast.
    assert!(
        g64 as f64 / g4 as f64 > 2.0,
        "gTop-k control should triple over 4 -> 64: {g4} {g64}"
    );
    // And the absolute scale is a small multiple of k (2 wire elems per
    // entry), nowhere near k·log P.
    assert!(
        t64 < 8 * k,
        "Ok-Topk per-rank send volume {t64} should be a few k (k = {k})"
    );
}

#[test]
fn spardl_has_no_dense_allgather_tail() {
    let (p, k) = (16usize, 128usize);
    // The Spar-All-Gather circulates the already-selected sparse regions;
    // nothing in the schedule touches the model dimension. Measured
    // volume must be *identical* across a 16x change in m (the budgets
    // are fixed by (P, k) alone) and far below one dense pass.
    let small = rank0_sent_zoo(p, 8192, k, false);
    let large = rank0_sent_zoo(p, 131_072, k, false);
    assert_eq!(
        small, large,
        "SparDL volume must not depend on m: {small} vs {large}"
    );
    assert!(
        large * 10 < 131_072,
        "SparDL send volume {large} must be far below a dense tail of m elements"
    );
}

#[test]
fn training_volume_matches_aggregation_volume() {
    // The full trainer's per-rank traffic must be dominated by the
    // aggregation algorithm's traffic (no hidden heavy collectives).
    let data = GaussianMixture::new(21, 256, 16, 4, 2.0, 0.4);
    let mk = |alg| TrainConfig {
        workers: 8,
        batch_per_worker: 4,
        epochs: 1,
        algorithm: alg,
        lr: LrSchedule::constant(0.1),
        momentum: 0.9,
        density: DensitySchedule::constant(0.01),
        cost_model: CostModel::zero(),
        compute_cost: None,
        selector: Selector::Exact,
        topology: gtopk::Topology::Binomial,
        momentum_correction: false,
        clip_norm: None,
        data_seed: 2,
        fault_plan: None,
        checkpoint_interval: 10,
        checkpoint_dir: None,
        overlap: None,
        ps: None,
    };
    let dense = gtopk::train_distributed(
        &mk(Algorithm::Dense),
        || models::mlp(3, 16, 64, 4),
        &data,
        None,
    );
    let gtopk_run = gtopk::train_distributed(
        &mk(Algorithm::GTopK),
        || models::mlp(3, 16, 64, 4),
        &data,
        None,
    );
    assert!(
        gtopk_run.elems_sent_rank0 * 10 < dense.elems_sent_rank0,
        "gTop-k {} vs dense {}",
        gtopk_run.elems_sent_rank0,
        dense.elems_sent_rank0
    );
}
