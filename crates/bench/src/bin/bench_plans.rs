//! Plan-cost sweep: gTopKAllReduce time on the binomial tree →
//! `BENCH_plans.json`.
//!
//! The reduce/broadcast plan pair is replayed on the exact α-β clock
//! ([`gtopk_perfmodel::PlanClock`]) over a sweep of worker counts (powers
//! of two *and* folded non-powers) and selection budgets `k`. At
//! power-of-two `P` the plan cost must coincide with the paper's closed
//! form (Eq. 7, `2·log₂P·α + 4k·log₂P·β`) — the sweep checks that
//! identity while it measures, so the emitted table doubles as a
//! regression gate. (The `topology` column is always `binomial`: the
//! tree has one shape.)

use gtopk_bench::report::{workspace_root, Table};
use gtopk_comm::{CostModel, Topology};
use gtopk_perfmodel::{gtopk_allreduce_ms, gtopk_plan_ms};
use std::fmt::Write as _;

const WORKERS: [usize; 9] = [2, 4, 6, 8, 12, 16, 24, 32, 64];
const BUDGETS: [usize; 3] = [250, 2_500, 25_000];

struct Cell {
    p: usize,
    k: usize,
    plan_ms: f64,
    eq7_ms: f64,
}

fn main() {
    let net = CostModel::gigabit_ethernet();
    let mut table = Table::new(
        "gTopKAllReduce plan cost (ms), 1 GbE",
        &["topology", "P", "k", "plan ms", "Eq.7 ms", "vs Eq.7"],
    );
    let mut cells = Vec::new();
    for &p in &WORKERS {
        for &k in &BUDGETS {
            let plan_ms = gtopk_plan_ms(&net, Topology::Binomial, p, k);
            let eq7_ms = gtopk_allreduce_ms(&net, p, k);
            if p.is_power_of_two() {
                assert!(
                    (plan_ms - eq7_ms).abs() < 1e-9,
                    "binomial plan must equal Eq. 7 at P={p}, k={k}: \
                     {plan_ms} vs {eq7_ms}"
                );
            }
            table.row(vec![
                "binomial".to_string(),
                p.to_string(),
                k.to_string(),
                format!("{plan_ms:.3}"),
                format!("{eq7_ms:.3}"),
                format!("{:.2}x", plan_ms / eq7_ms),
            ]);
            cells.push(Cell {
                p,
                k,
                plan_ms,
                eq7_ms,
            });
        }
    }
    table.emit("bench_plans");

    let json = render_json(&cells);
    print!("{json}");
    let path = workspace_root().join("BENCH_plans.json");
    std::fs::write(&path, &json).expect("write BENCH_plans.json");
    eprintln!("wrote {}", path.display());
}

fn render_json(cells: &[Cell]) -> String {
    let net = CostModel::gigabit_ethernet();
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"plan_cost_sweep\",");
    let _ = writeln!(
        out,
        "  \"network\": {{\"alpha_ms\": {}, \"beta_ms_per_elem\": {}}},",
        net.alpha_ms, net.beta_ms_per_elem
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"topology\": \"binomial\", \"p\": {}, \"k\": {}, \
             \"plan_ms\": {:.6}, \"eq7_ms\": {:.6}}}{comma}",
            c.p, c.k, c.plan_ms, c.eq7_ms
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}
