//! **Extension** — sharded parameter server → `BENCH_ps.json`.
//!
//! Two questions, answered on the same α-β network the paper uses:
//!
//! 1. **Crossover** — when does the sharded PS beat the gTop-k binomial
//!    allreduce? Per-round times (`ps_plan_ms`, the plan-clock replay
//!    of executed time) at P ∈ {4, 8, 16, 32} on 1GbE and 10GbE, S ∈
//!    {1, P/2, P}. The dense shard replies make PS bandwidth-bound, so
//!    the tree wins everywhere except tiny P with heavy sharding — the
//!    map below quantifies the gap instead of hand-waving it.
//! 2. **Convergence parity (gate)** — bulk-sync sharded PS must reach a
//!    final loss comparable to dense S-SGD on the same workload; the
//!    bench asserts it, so `run_all` fails if the PS path regresses.
//!
//! Run: `cargo run --release -p gtopk-bench --bin bench_ps`

use gtopk::{train_distributed, Algorithm, PsConfig, TrainConfig};
use gtopk_bench::report::{workspace_root, Table};
use gtopk_comm::{CostModel, Topology};
use gtopk_data::GaussianMixture;
use gtopk_nn::models;
use gtopk_perfmodel::{gtopk_plan_ms, ps_plan_ms};
use std::fmt::Write as _;

/// Paper-scale analytic model size and density (ρ = 0.001).
const M: usize = 1_000_000;
const K: usize = 1_000;

const WORKERS: usize = 4;
const EPOCHS: usize = 2;
const BATCH: usize = 4;

struct CrossRow {
    net: &'static str,
    p: usize,
    shards: usize,
    ps_ms: f64,
    tree_ms: f64,
}

fn crossover() -> Vec<CrossRow> {
    let nets = [
        ("1GbE", CostModel::gigabit_ethernet()),
        ("10GbE", CostModel::ten_gigabit_ethernet()),
    ];
    let mut rows = Vec::new();
    for (name, net) in nets {
        for p in [4usize, 8, 16, 32] {
            let tree_ms = gtopk_plan_ms(&net, Topology::Binomial, p, K);
            for shards in [1usize, p / 2, p] {
                rows.push(CrossRow {
                    net: name,
                    p,
                    shards,
                    ps_ms: ps_plan_ms(&net, p, M, shards, K, 1),
                    tree_ms,
                });
            }
        }
    }
    rows
}

fn job_cfg(ps: Option<PsConfig>) -> TrainConfig {
    let mut cfg = TrainConfig::convergence(WORKERS, BATCH, EPOCHS, 0.1, 0.05);
    if let Some(ps) = ps {
        cfg = cfg.with_ps(ps);
    }
    cfg
}

fn main() {
    // --- 1. Analytic crossover map. ----------------------------------
    let cross = crossover();
    let mut t = Table::new(
        &format!("PS vs gTop-k allreduce, per-round analytic ms (m = {M}, k = {K})"),
        &["network", "P", "S", "PS ms", "tree ms", "PS/tree", "winner"],
    );
    for r in &cross {
        t.row(vec![
            r.net.to_string(),
            r.p.to_string(),
            r.shards.to_string(),
            format!("{:.2}", r.ps_ms),
            format!("{:.2}", r.tree_ms),
            format!("{:.2}x", r.ps_ms / r.tree_ms),
            if r.ps_ms < r.tree_ms { "PS" } else { "tree" }.to_string(),
        ]);
    }
    t.emit("ext_ps_crossover");

    // --- 2. Convergence-parity gate: bulk-sync PS vs dense. ----------
    let data = GaussianMixture::new(23, 64 * WORKERS * BATCH, 16, 4, 2.5, 0.5);
    let mut dense_cfg = job_cfg(None);
    dense_cfg.algorithm = Algorithm::Dense;
    dense_cfg.epochs = 4;
    let mut ps_cfg = job_cfg(Some(PsConfig::bulk_sync(2)));
    ps_cfg.epochs = 4;
    let build = || models::mlp(17, 16, 32, 4);
    let dense = train_distributed(&dense_cfg, build, &data, None);
    let ps = train_distributed(&ps_cfg, build, &data, None);
    let gate = ps.final_loss() <= (10.0 * dense.final_loss()).max(0.05);
    println!(
        "parity gate: dense final loss {:.5}, bulk-sync PS (S=2) {:.5} — {}",
        dense.final_loss(),
        ps.final_loss(),
        if gate { "ok" } else { "FAIL" }
    );
    assert!(
        gate,
        "bulk-sync PS must stay convergence-comparable to dense \
         (dense {}, ps {})",
        dense.final_loss(),
        ps.final_loss()
    );

    // --- JSON artifact. ----------------------------------------------
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"ps\",");
    let _ = writeln!(
        json,
        "  \"config\": {{\"analytic_m\": {M}, \"analytic_k\": {K}, \
         \"job_workers\": {WORKERS}, \"job_epochs\": {EPOCHS}, \
         \"job_batch\": {BATCH}}},"
    );
    let _ = writeln!(json, "  \"crossover\": [");
    for (i, r) in cross.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"network\": \"{}\", \"p\": {}, \"shards\": {}, \
             \"ps_round_ms\": {:.6}, \"tree_round_ms\": {:.6}, \"ps_wins\": {}}}{}",
            r.net,
            r.p,
            r.shards,
            r.ps_ms,
            r.tree_ms,
            r.ps_ms < r.tree_ms,
            if i + 1 == cross.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"parity_gate\": {{\"dense_final_loss\": {:.6}, \
         \"ps_bulk_sync_final_loss\": {:.6}, \"pass\": {gate}}}",
        dense.final_loss(),
        ps.final_loss()
    );
    let _ = writeln!(json, "}}");
    print!("{json}");
    let path = workspace_root().join("BENCH_ps.json");
    std::fs::write(&path, &json).expect("write BENCH_ps.json");
    eprintln!("wrote {}", path.display());
}
