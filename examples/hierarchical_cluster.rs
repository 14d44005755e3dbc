//! Running gTop-k on a rack-structured cluster: fast 10 GbE links inside
//! racks, a slow 1 GbE backbone between them — the kind of heterogeneous
//! low-bandwidth environment the paper targets, extended with per-link
//! cost models.
//!
//! Run: `cargo run --release -p gtopk-core --example hierarchical_cluster`

use gtopk::gtopk_all_reduce;
use gtopk_comm::{Cluster, CostModel};
use gtopk_sparse::topk_sparse;
use std::sync::Arc;

fn main() {
    let racks = 4usize;
    let per_rack = 4usize;
    let p = racks * per_rack;
    let fast = CostModel::ten_gigabit_ethernet();
    let slow = CostModel::gigabit_ethernet();
    let cluster = Cluster::with_link_costs(
        p,
        slow,
        Arc::new(move |src: usize, dst: usize| {
            if src / per_rack == dst / per_rack {
                fast
            } else {
                slow
            }
        }),
    );
    println!("{racks} racks x {per_rack} nodes; 10 GbE intra-rack, 1 GbE backbone\n");

    let dim = 200_000usize;
    let k = 200usize;
    let results = cluster.run(move |comm| {
        // Every worker contributes a synthetic sparse gradient.
        let g: Vec<f32> = (0..dim)
            .map(|i| ((i * 31 + comm.rank() * 7) % 1001) as f32 / 1000.0 - 0.5)
            .collect();
        let local = topk_sparse(&g, k);
        let (global, _mask) = gtopk_all_reduce(comm, local, k).expect("gtopk");
        (global.nnz(), comm.now_ms(), comm.stats().elems_sent)
    });

    let nnz = results[0].0;
    // The last rank to finish sets the completion time.
    let t = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    println!("global top-{k}: {nnz} coordinates selected");
    println!("simulated completion time: {t:.2} ms");
    let max_sent = results.iter().map(|r| r.2).max().unwrap_or(0);
    println!(
        "per-rank traffic: at most {max_sent} elements ({} KiB)",
        max_sent * 4 / 1024
    );
    println!(
        "\nthe binomial tree with contiguous ranks crosses the slow backbone only\n\
         log2({racks}) = {} times per reduction — the O(k log P) structure is\n\
         naturally topology-friendly.",
        (racks as f64).log2() as usize
    );
}
