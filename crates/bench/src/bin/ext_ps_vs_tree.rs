//! **Extension (paper footnote 2)** — parameter-server gTop-k vs the
//! decentralized tree.
//!
//! The paper notes gTop-k "is also applicable to the Parameter Server
//! based distributed SGD". This experiment quantifies the topology
//! choice: a single-shard PS star costs `O(kP)` at the server link
//! while the tree costs `O(k log P)`, so the decentralized design is
//! what makes gTop-k scale. Both run as real executed algorithms over
//! the simulated 1 GbE network — the PS side is one push/reply round of
//! the sharded PS engine pinned at `S = 1` (the classic star). Note the
//! PS pull ships the server's dense shard (`m` elements per worker), so
//! its gap over the tree here is even wider than the `O(kP)` sparse
//! star of earlier revisions.
//!
//! Run: `cargo run --release -p gtopk-bench --bin ext_ps_vs_tree`

use gtopk::{gtopk_all_reduce, ps_round};
use gtopk_bench::report::{fmt_ms, Table};
use gtopk_comm::{Cluster, CostModel, ShardMap};
use gtopk_sparse::topk_sparse;

fn grad(rank: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 41)
                .wrapping_mul(rank as u64 + 13)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn main() {
    let net = CostModel::gigabit_ethernet();
    let dim = 1_000_000usize;
    let k = 1_000usize; // rho = 0.001
    let mut table = Table::new(
        "Extension — PS-star (S=1) vs tree gTopKAllReduce (m = 1e6, k = 1000, 1 GbE)",
        &[
            "P",
            "PS ms",
            "tree ms",
            "tree speedup",
            "PS server elems",
            "tree rank-0 elems",
        ],
    );
    for p in [2usize, 4, 8, 16, 32] {
        let run = |use_ps: bool| {
            let out = Cluster::new(p, net).run(move |comm| {
                let local = topk_sparse(&grad(comm.rank(), dim), k);
                if use_ps {
                    let members: Vec<usize> = (0..comm.size()).collect();
                    let map = ShardMap::new(dim, 1);
                    let budgets = map.budgets(k);
                    ps_round(comm, &members, &map, &budgets, vec![local]).expect("ps round");
                } else {
                    gtopk_all_reduce(comm, local, k).expect("tree");
                }
                (comm.now_ms(), comm.stats())
            });
            let t = out.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
            let rank0 = out[0].1;
            (t, rank0.elems_sent + rank0.elems_received)
        };
        let (ps_ms, ps_elems) = run(true);
        let (tree_ms, tree_elems) = run(false);
        table.row(vec![
            p.to_string(),
            fmt_ms(ps_ms),
            fmt_ms(tree_ms),
            format!("{:.2}x", ps_ms / tree_ms),
            ps_elems.to_string(),
            tree_elems.to_string(),
        ]);
    }
    table.emit("ext_ps_vs_tree");
    println!(
        "shape check: PS time and server traffic grow ~linearly in P; the tree grows\n\
         logarithmically — the decentralized design is what makes gTop-k scale."
    );
}
