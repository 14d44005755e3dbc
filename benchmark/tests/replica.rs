//! Replica equivalence: the traced step loop, built from the layers'
//! public functions, must match the product's `train_distributed` /
//! `train_rank` bit for bit — final parameters, simulated time and wire
//! volume — or its spans attribute a different computation.

use gtopk::TrainConfig;
use gtopk_benchmark::episode::{self, loopback_available, Episode, Path, Transport};
use gtopk_benchmark::synth::{GradientBank, SyntheticData, SyntheticModel};
use gtopk_benchmark::workload::synthetic_config;
use gtopk_data::GaussianMixture;
use gtopk_nn::models;
use std::time::Instant;

const M: usize = 65_536;
const STEPS: usize = 6;

fn assert_same(product: &Episode, traced: &Episode, what: &str) {
    assert_eq!(
        product.fingerprint, traced.fingerprint,
        "{what}: final parameters"
    );
    assert_eq!(
        product.sim_ms_per_step, traced.sim_ms_per_step,
        "{what}: simulated time"
    );
    assert_eq!(
        product.wire_elems_per_step, traced.wire_elems_per_step,
        "{what}: wire volume"
    );
    assert_eq!(
        product.mean_update_nnz, traced.mean_update_nnz,
        "{what}: update size"
    );
    assert_eq!(product.steps, traced.steps, "{what}: steps");
    assert_eq!(
        traced.pool_misses_after_warmup, 0,
        "{what}: pool misses after warm-up"
    );
}

fn synthetic_pair(ranks: usize, rho: f64, transport: Transport) -> (Episode, Episode) {
    let cfg = synthetic_config(ranks, rho);
    let bank = GradientBank::generate(7, M, ranks);
    let data = SyntheticData::new(ranks, STEPS);
    let run = |path| {
        let build = || SyntheticModel::new(bank.clone(), &data);
        episode::run(&cfg, transport, path, 2, Instant::now(), build, &data)
            .unwrap_or_else(|e| panic!("P={ranks} rho={rho} {transport:?} {path:?}: {e}"))
    };
    (run(Path::Product), run(Path::Traced))
}

fn sweep(transport: Transport) {
    for ranks in [2, 4] {
        for rho in [0.001, 0.25] {
            let what = format!("P={ranks} rho={rho} {transport:?}");
            let (product, traced) = synthetic_pair(ranks, rho, transport);
            assert_same(&product, &traced, &what);
            let k = (rho * M as f64).round();
            assert_eq!(
                product.mean_update_nnz, k,
                "{what}: gTop-k applies exactly k"
            );
            assert_eq!(
                product.wire_elems_per_step,
                2.0 * k * f64::from(ranks.ilog2()),
                "{what}: 2k·log2(P) elements per step"
            );
            assert_eq!(traced.spans.len(), ranks, "{what}: one span list per rank");
        }
    }
}

#[test]
fn traced_loop_matches_train_distributed_on_sim() {
    sweep(Transport::Sim);
}

#[test]
fn traced_loop_matches_train_rank_on_tcp() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback sockets unavailable");
        return;
    }
    sweep(Transport::Tcp);
}

#[test]
fn tcp_run_ends_where_its_sim_twin_does() {
    if !loopback_available() {
        eprintln!("SKIPPED: loopback sockets unavailable");
        return;
    }
    let (sim, _) = synthetic_pair(4, 0.25, Transport::Sim);
    let (tcp, _) = synthetic_pair(4, 0.25, Transport::Tcp);
    assert_eq!(sim.fingerprint, tcp.fingerprint);
    assert_eq!(sim.sim_ms_per_step, tcp.sim_ms_per_step);
}

/// A real model across epoch boundaries and the paper's warm-up
/// densities: `k` and the learning rate change per epoch, batches
/// reshuffle.
#[test]
fn traced_loop_matches_real_training_with_warmup_schedules() {
    let cfg = TrainConfig::convergence(4, 4, 6, 0.05, 0.01);
    let data = GaussianMixture::new(11, 160, 16, 4, 2.5, 0.5);
    let run = |path| {
        let build = || models::mlp(7, 16, 32, 4);
        episode::run(&cfg, Transport::Sim, path, 10, Instant::now(), build, &data).expect("runs")
    };
    let (product, traced) = (run(Path::Product), run(Path::Traced));
    assert_eq!(product.steps, 60);
    assert_same(&product, &traced, "mlp, 6 epochs");
    assert!(product
        .final_loss
        .expect("product path reports loss")
        .is_finite());
}
