//! **Extension** — sparse-allreduce algorithm zoo crossover map →
//! `BENCH_zoo.json`.
//!
//! Sweeps algorithm × P ∈ {4, 8, 16, 32, 48} × density × network
//! (1GbE / 10GbE α-β constants) and reports where Ok-Topk's O(k)
//! split-and-aggregate schedule overtakes gTop-k's O(k log P) tree and
//! where SparDL's halved-budget cascade sits between them. Three gates
//! run *inside* the sweep, so the emitted table is also a regression
//! check:
//!
//! * for every swept cell the zoo collective is executed on the
//!   simulated cluster and its α-β time must match the offline
//!   [`gtopk_perfmodel::ZooSchedule`] PlanClock replay to < 1e-9 ms
//!   (the budget-padded wire format makes this exact, non-power-of-two
//!   P included);
//! * Ok-Topk's *measured* per-rank send volume must show no log P
//!   growth over the 4 → 48 span (gTop-k's is measured alongside for
//!   contrast);
//! * convergence parity: Ok-Topk and SparDL trained end-to-end must
//!   reach the dense baseline's loss drop within the tolerance
//!   `tests/convergence_parity.rs` uses.
//!
//! Run: `cargo run --release -p gtopk-bench --bin bench_zoo`

use gtopk::{
    sparse_zoo_all_reduce_over, train_distributed, Algorithm, DensitySchedule, LrSchedule,
    TrainConfig, TrainReport,
};
use gtopk_bench::report::{workspace_root, Table};
use gtopk_comm::{Cluster, CostModel, Topology};
use gtopk_data::GaussianMixture;
use gtopk_nn::models;
use gtopk_perfmodel::{gtopk_plan_ms, oktopk_plan_ms, spardl_plan_ms, ZooSchedule};
use gtopk_sparse::SparseVec;
use std::fmt::Write as _;

const WORKERS: [usize; 5] = [4, 8, 16, 32, 48];
const DENSITIES: [f64; 2] = [0.001, 0.01];
/// Model size for the crossover map (paper-scale k at the densities above).
const M: usize = 100_000;

struct Cell {
    network: &'static str,
    rho: f64,
    k: usize,
    p: usize,
    gtopk_ms: f64,
    oktopk_ms: f64,
    spardl_ms: f64,
    winner: &'static str,
    max_dev_ms: f64,
}

/// Rank `r`'s k-sparse contribution with a support disjoint from every
/// other rank's — content is irrelevant to the (budget-padded) timing.
fn disjoint_local(r: usize, k: usize, dim: usize) -> SparseVec {
    let pairs = (0..k)
        .map(|j| {
            let idx = (r * k + j) % dim;
            (idx as u32, 1.0 + (r * k + j) as f32 * 1e-4)
        })
        .collect();
    SparseVec::from_pairs(dim, pairs)
}

/// Executes one zoo collective on the simulated cluster; returns the
/// max α-β finish time across ranks and rank 0's sent wire elements.
fn execute_zoo(p: usize, k: usize, net: CostModel, sched: &ZooSchedule) -> (f64, usize) {
    let members: Vec<usize> = (0..p).collect();
    let sched = sched.clone();
    let out = Cluster::new(p, net).run(move |comm| {
        let mine = disjoint_local(comm.rank(), k, M);
        sparse_zoo_all_reduce_over(comm, &members, mine, &sched).unwrap();
        (comm.now_ms(), comm.stats().elems_sent)
    });
    let executed = out.iter().map(|c| c.0).fold(0.0f64, f64::max);
    (executed, out[0].1)
}

fn train_cfg(alg: Algorithm, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::convergence(4, 8, epochs, 0.05, 0.01);
    cfg.algorithm = alg;
    cfg.lr = LrSchedule::constant(0.05);
    cfg.density = DensitySchedule::paper_warmup(0.01);
    cfg.cost_model = CostModel::zero();
    cfg
}

fn main() {
    let networks: [(&str, CostModel); 2] = [
        ("1GbE", CostModel::gigabit_ethernet()),
        ("10GbE", CostModel::ten_gigabit_ethernet()),
    ];

    let mut table = Table::new(
        "Sparse-allreduce zoo — plan cost (ms) and crossover, executed == planned",
        &[
            "network",
            "rho",
            "k",
            "P",
            "gtopk ms",
            "oktopk ms",
            "spardl ms",
            "winner",
            "ok/gt",
        ],
    );
    let mut cells = Vec::new();
    // Ok-Topk / gTop-k rank-0 send volume over P, for the no-log-P gate.
    let mut volume: Vec<(usize, usize, usize)> = Vec::new();

    for (net_name, net) in &networks {
        for &rho in &DENSITIES {
            let k = ((M as f64 * rho) as usize).max(1);
            for &p in &WORKERS {
                let gtopk_ms = gtopk_plan_ms(net, Topology::Binomial, p, k);
                let ok_sched = ZooSchedule::oktopk(p, k);
                let sp_sched = ZooSchedule::spardl(p, k);
                let oktopk_ms = oktopk_plan_ms(net, p, k);
                let spardl_ms = spardl_plan_ms(net, p, k);

                // Gate: executed sim time == PlanClock replay, < 1e-9 ms.
                let mut max_dev: f64 = 0.0;
                let mut ok_sent = 0usize;
                for (sched, planned) in [(&ok_sched, oktopk_ms), (&sp_sched, spardl_ms)] {
                    let (executed, sent) = execute_zoo(p, k, *net, sched);
                    let dev = (executed - planned).abs();
                    assert!(
                        dev < 1e-9,
                        "{} {net_name} rho={rho} P={p}: executed {executed} \
                         vs planned {planned} (dev {dev})",
                        sched.name
                    );
                    max_dev = max_dev.max(dev);
                    if sched.name == "Ok-Topk" {
                        ok_sent = sent;
                    }
                }
                if *net_name == "1GbE" && rho == DENSITIES[1] {
                    volume.push((p, k, ok_sent));
                }

                let (winner, best) = [
                    ("gtopk", gtopk_ms),
                    ("oktopk", oktopk_ms),
                    ("spardl", spardl_ms),
                ]
                .into_iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
                eprintln!(
                    "{net_name} rho={rho} P={p}: gtopk {gtopk_ms:.3} oktopk \
                     {oktopk_ms:.3} spardl {spardl_ms:.3} -> {winner}"
                );
                let _ = best;
                table.row(vec![
                    net_name.to_string(),
                    rho.to_string(),
                    k.to_string(),
                    p.to_string(),
                    format!("{gtopk_ms:.3}"),
                    format!("{oktopk_ms:.3}"),
                    format!("{spardl_ms:.3}"),
                    winner.to_string(),
                    format!("{:.2}x", gtopk_ms / oktopk_ms),
                ]);
                cells.push(Cell {
                    network: net_name,
                    rho,
                    k,
                    p,
                    gtopk_ms,
                    oktopk_ms,
                    spardl_ms,
                    winner,
                    max_dev_ms: max_dev,
                });
            }
        }
    }
    table.emit("ext_zoo");

    // Gate: measured Ok-Topk volume is O(k) — no log P factor. Over the
    // power-of-two span the per-rank volume must be ~flat (the split
    // quota shrinks as ⌈k/P⌉ while the gather stays ~2k); at the folded
    // P = 48 a rank that also feeds a folded peer carries one extra
    // full-region copy — a constant factor, still independent of P
    // (gTop-k's volume at P = 48 would be ~k·log₂P wire elements more).
    let first = volume[0];
    for &(p, _, sent) in &volume {
        if p.is_power_of_two() {
            assert!(
                (sent as f64) < 1.3 * first.2 as f64,
                "Ok-Topk rank-0 send volume must stay ~flat over power-of-two \
                 P {} -> {p}: {} vs {sent}",
                first.0,
                first.2,
            );
        } else {
            assert!(
                (sent as f64) < 2.5 * first.2 as f64,
                "folded P = {p}: volume {sent} must stay a constant factor \
                 of the P = {} volume {}",
                first.0,
                first.2,
            );
        }
    }
    println!(
        "Ok-Topk measured rank-0 send volume (k = {}): {:?} over P = {:?} -> no log P growth",
        first.1,
        volume.iter().map(|v| v.2).collect::<Vec<_>>(),
        volume.iter().map(|v| v.0).collect::<Vec<_>>(),
    );

    // Convergence parity: zoo algorithms vs the dense baseline.
    eprintln!("convergence parity runs ...");
    let data = GaussianMixture::new(38, 256, 12, 4, 2.5, 0.5);
    let build = || models::mlp(8, 12, 24, 4);
    let dense = train_distributed(&train_cfg(Algorithm::Dense, 10), build, &data, None);
    let dense_drop = dense.epochs[0].train_loss - dense.final_loss();
    let mut parity = Vec::new();
    for alg in [Algorithm::GTopK, Algorithm::OkTopk, Algorithm::SparDl] {
        let report = train_distributed(&train_cfg(alg, 10), build, &data, None);
        let drop = report.epochs[0].train_loss - report.final_loss();
        let ratio = drop / dense_drop;
        println!(
            "parity {:12} final loss {:.4} drop {:.4} ({:.2}x dense)",
            report.algorithm,
            report.final_loss(),
            drop,
            ratio
        );
        assert!(
            ratio > 0.65,
            "{} loss drop {drop:.4} vs dense {dense_drop:.4}",
            report.algorithm
        );
        parity.push((alg.name(), report, ratio));
    }

    let json = render_json(&cells, &volume, &dense, &parity);
    print!("{json}");
    let path = workspace_root().join("BENCH_zoo.json");
    std::fs::write(&path, &json).expect("write BENCH_zoo.json");
    eprintln!("wrote {}", path.display());
}

fn render_json(
    cells: &[Cell],
    volume: &[(usize, usize, usize)],
    dense: &TrainReport,
    parity: &[(&str, TrainReport, f64)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"algorithm_zoo_crossover\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"m\": {M}, \"workers\": {WORKERS:?}, \
         \"densities\": {DENSITIES:?}, \"networks\": [\"1GbE\", \"10GbE\"]}},"
    );
    let _ = writeln!(out, "  \"crossover\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"network\": \"{}\", \"rho\": {}, \"k\": {}, \"p\": {}, \
             \"gtopk_ms\": {:.6}, \"oktopk_ms\": {:.6}, \"spardl_ms\": {:.6}, \
             \"winner\": \"{}\", \"executed_vs_planned_dev_ms\": {:.3e}}}{comma}",
            c.network,
            c.rho,
            c.k,
            c.p,
            c.gtopk_ms,
            c.oktopk_ms,
            c.spardl_ms,
            c.winner,
            c.max_dev_ms
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"oktopk_rank0_send_volume\": {{\"k\": {}, \"by_p\": [{}], \"no_log_p_growth\": true}},",
        volume[0].1,
        volume
            .iter()
            .map(|(p, _, sent)| format!("{{\"p\": {p}, \"wire_elems\": {sent}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"convergence_parity\": {{");
    let _ = writeln!(
        out,
        "    \"dense_final_loss\": {:.6}, \"dense_drop\": {:.6},",
        dense.final_loss(),
        dense.epochs[0].train_loss - dense.final_loss()
    );
    let _ = writeln!(out, "    \"runs\": [");
    for (i, (name, report, ratio)) in parity.iter().enumerate() {
        let comma = if i + 1 == parity.len() { "" } else { "," };
        let losses: Vec<String> = report
            .epochs
            .iter()
            .map(|e| format!("{:.6}", e.train_loss))
            .collect();
        let _ = writeln!(
            out,
            "      {{\"algorithm\": \"{name}\", \"final_loss\": {:.6}, \
             \"drop_ratio_vs_dense\": {ratio:.4}, \"epoch_losses\": [{}]}}{comma}",
            report.final_loss(),
            losses.join(", ")
        );
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
