//! **Table I** — communication complexity and α-β time cost of the three
//! gradient aggregation algorithms.
//!
//! Prints the paper's closed forms evaluated at its constants
//! (α = 0.436 ms, β = 3.6×10⁻⁵ ms/element) and, beside each, the
//! "measured" time: a thread-free replay of the plan the product executes,
//! pinned equal to the executed time by `tests/plan_equivalence.rs` — the
//! two must agree.
//!
//! Run: `cargo run --release -p gtopk-bench --bin table1_complexity`

use gtopk_bench::report::{fmt_ms, Table};
use gtopk_comm::{CostModel, Topology};
use gtopk_perfmodel::{dense_plan_ms, gtopk_plan_ms, topk_plan_ms, AggregationKind};

fn main() {
    let net = CostModel::gigabit_ethernet();
    let m = 25_000_000usize; // the paper's ResNet-50-scale setting
    let rho = 0.001;
    let k = (m as f64 * rho) as usize;
    let p = 32usize;

    println!(
        "Table I reproduction: m = {m}, rho = {rho}, k = {k}, P = {p}, \
         alpha = {} ms, beta = {} ms/elem\n",
        net.alpha_ms, net.beta_ms_per_elem
    );

    let mut table = Table::new(
        "Table I — gradient aggregation algorithms (analytic vs executed simulation)",
        &[
            "algorithm",
            "complexity",
            "time cost formula",
            "analytic ms",
            "measured ms",
        ],
    );
    for kind in AggregationKind::ALL {
        let formula = match kind {
            AggregationKind::Dense => "2(P-1)a + 2((P-1)/P) m b",
            AggregationKind::TopK => "log(P)a + 2(P-1)k b",
            AggregationKind::GTopK => "2log(P)a + 4k log(P) b",
        };
        let analytic = kind.time_ms(&net, p, m, k);
        let measured = match kind {
            AggregationKind::Dense => dense_plan_ms(&net, p, m),
            AggregationKind::TopK => topk_plan_ms(&net, p, k),
            AggregationKind::GTopK => gtopk_plan_ms(&net, Topology::Binomial, p, k),
        };
        table.row(vec![
            kind.name().to_string(),
            kind.complexity().to_string(),
            formula.to_string(),
            fmt_ms(analytic),
            fmt_ms(measured),
        ]);
    }
    table.emit("table1_complexity");
}
