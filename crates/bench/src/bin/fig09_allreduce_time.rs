//! **Fig. 9** — TopKAllReduce vs gTopKAllReduce communication time.
//!
//! Left panel: time vs number of workers (P = 4…128) at m = 25×10⁶,
//! ρ = 0.001. Right panel: time vs number of parameters (10⁶…10⁸) at
//! P = 32. Both replayed from the plans the product executes on the
//! simulated 1 GbE network, with the analytic Eqs. 6–7 printed alongside.
//!
//! Expected shape (paper): TopK is slightly faster at small P, gTopK wins
//! clearly from P ≈ 16, and the gap widens with P and with m.
//!
//! Run: `cargo run --release -p gtopk-bench --bin fig09_allreduce_time`

use gtopk_bench::report::{fmt_ms, Table};
use gtopk_comm::{CostModel, Topology};
use gtopk_perfmodel::{gtopk_allreduce_ms, gtopk_plan_ms, topk_allreduce_ms, topk_plan_ms};

fn main() {
    let net = CostModel::gigabit_ethernet();
    let rho = 0.001;

    // Left: sweep P at m = 25e6.
    let m = 25_000_000usize;
    let k = (m as f64 * rho) as usize;
    let mut left = Table::new(
        &format!("Fig. 9 (left) — AllReduce time vs workers (m = {m}, rho = {rho})"),
        &[
            "P",
            "TopK ms",
            "gTopK ms",
            "TopK Eq6",
            "gTopK Eq7",
            "speedup",
        ],
    );
    for p in [4usize, 8, 16, 32, 64, 128] {
        let t_top = topk_plan_ms(&net, p, k);
        let t_gtop = gtopk_plan_ms(&net, Topology::Binomial, p, k);
        left.row(vec![
            p.to_string(),
            fmt_ms(t_top),
            fmt_ms(t_gtop),
            fmt_ms(topk_allreduce_ms(&net, p, k)),
            fmt_ms(gtopk_allreduce_ms(&net, p, k)),
            format!("{:.2}x", t_top / t_gtop),
        ]);
    }
    left.emit("fig09_left_vs_workers");

    // Right: sweep m at P = 32.
    let p = 32usize;
    let mut right = Table::new(
        &format!("Fig. 9 (right) — AllReduce time vs parameters (P = {p}, rho = {rho})"),
        &["m", "k", "TopK ms", "gTopK ms", "speedup"],
    );
    for m in [
        1_000_000usize,
        2_500_000,
        5_000_000,
        10_000_000,
        25_000_000,
        50_000_000,
        100_000_000,
    ] {
        let k = ((m as f64 * rho) as usize).max(1);
        let t_top = topk_plan_ms(&net, p, k);
        let t_gtop = gtopk_plan_ms(&net, Topology::Binomial, p, k);
        right.row(vec![
            m.to_string(),
            k.to_string(),
            fmt_ms(t_top),
            fmt_ms(t_gtop),
            format!("{:.2}x", t_top / t_gtop),
        ]);
    }
    right.emit("fig09_right_vs_params");

    println!("shape check: TopK scales O(kP), gTopK scales O(k log P); crossover near P = 8-16.");
}
