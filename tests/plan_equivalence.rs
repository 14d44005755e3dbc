//! Property tests pinning the plan IR to its two contracts.
//!
//! 1. **Cost is a fold over the plan**: for arbitrary P ∈ [2, 48], k and
//!    network, the α-β time a cluster actually spends executing
//!    gTopKAllReduce equals `gtopk_perfmodel::gtopk_plan_ms`'s offline
//!    replay of the same plans *exactly* — not to a tolerance. The same
//!    holds for the dense ring (`dense_plan_ms`), the exact sparse sum at
//!    disjoint supports (`topk_plan_ms`) and the zoo schedules, and past
//!    the 256-round tag window, which plan execution wraps.
//! 2. **The tree computes the paper's answer**: under disjoint per-rank
//!    supports with globally distinct magnitudes (where the
//!    non-associativity of the ⊤ merge cannot bite), the binomial tree
//!    produces the same global bit-for-bit on every rank, equal to the
//!    paper's `G̃₁ ⊤ G̃₂ ⊤ … ⊤ G̃_P` reference (`topk_merge_many`).

use gtopk::{gtopk_all_reduce_over, sparse_sum_recursive_doubling, sparse_zoo_all_reduce_over};
use gtopk_comm::{collectives, Cluster, CostModel, Topology};
use gtopk_perfmodel::{dense_plan_ms, gtopk_plan_ms, topk_plan_ms, ZooSchedule};
use gtopk_sparse::{topk_merge_many, Residual, SparseVec};
use proptest::prelude::*;

/// Rank `r`'s k-sparse contribution with support disjoint from every
/// other rank's (rank `r` owns indices `r·k .. (r+1)·k`) and globally
/// distinct magnitudes, so the global top-k is order-independent and
/// bitwise identity with the merge reference is well-defined.
fn disjoint_local(r: usize, p: usize, k: usize) -> SparseVec {
    let dim = p * k;
    let pairs = (0..k)
        .map(|j| {
            let idx = r * k + j;
            let sign = if (r + j).is_multiple_of(2) {
                1.0f32
            } else {
                -1.0
            };
            (idx as u32, sign * (1.0 + idx as f32 * 0.01))
        })
        .collect();
    SparseVec::from_pairs(dim, pairs)
}

/// Deterministic pseudo-random dense gradient (overlapping supports).
fn grad(rank: usize, dim: usize, seed: u64) -> Vec<f32> {
    (0..dim)
        .map(|i| {
            let h = (i as u64 + 7)
                .wrapping_mul(rank as u64 * 3 + seed + 11)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
            ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// The three networks every replay identity is checked on.
const NETS: [CostModel; 3] = [
    CostModel {
        alpha_ms: 0.436,
        beta_ms_per_elem: 3.6e-5,
    },
    CostModel {
        alpha_ms: 0.7,
        beta_ms_per_elem: 0.003,
    },
    CostModel {
        alpha_ms: 0.05,
        beta_ms_per_elem: 0.0001,
    },
];

/// Makespan of one dense ring AllReduce of `m` elements over `p` ranks,
/// checking the sum on the way.
fn executed_ring_ms(p: usize, m: usize, net: CostModel) -> f64 {
    let out = Cluster::new(p, net).run(|comm| {
        let mut v: Vec<f32> = (0..m).map(|i| (comm.rank() + i) as f32).collect();
        collectives::allreduce_ring(comm, &mut v).unwrap();
        (v, comm.now_ms())
    });
    let rank_sum = (p * (p - 1) / 2) as f32;
    for (v, _) in &out {
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, rank_sum + (p * i) as f32, "P={p} m={m} i={i}");
        }
    }
    out.iter().map(|&(_, t)| t).fold(0.0f64, f64::max)
}

fn bits(v: &SparseVec) -> (Vec<u32>, Vec<u32>) {
    (
        v.indices().to_vec(),
        v.values().iter().map(|x| x.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Executed α-β time == plan-cost replay, exactly, for any worker
    /// count (power-of-two or folded), any network.
    #[test]
    fn prop_executed_time_equals_plan_cost(
        p in 2usize..=48,
        k in 1usize..=6,
        net_idx in 0usize..3,
    ) {
        let net = NETS[net_idx];
        let members: Vec<usize> = (0..p).collect();
        let times = Cluster::new(p, net).run(|comm| {
            let mine = disjoint_local(comm.rank(), p, k);
            gtopk_all_reduce_over(comm, &members, mine, k).unwrap();
            comm.now_ms()
        });
        let executed = times.iter().copied().fold(0.0f64, f64::max);
        let planned = gtopk_plan_ms(&net, Topology::Binomial, p, k);
        prop_assert!(
            executed == planned,
            "P={p} k={k} net={net_idx}: executed {executed} != plan cost {planned}"
        );
    }

    /// The dense ring is a plan: executed α-β time == `dense_plan_ms`,
    /// exactly, with `m < P` (empty chunks), `P ∣ m` and `P ∤ m` (uneven
    /// chunks, so messages of one round differ in size).
    #[test]
    fn prop_ring_allreduce_time_equals_dense_plan(
        p in 2usize..=48,
        shape in 0usize..3,
        net_idx in 0usize..3,
    ) {
        let m = [p / 2, 3 * p, 3 * p + p / 2 + 1][shape];
        let net = NETS[net_idx];
        let executed = executed_ring_ms(p, m, net);
        let planned = dense_plan_ms(&net, p, m);
        prop_assert!(
            executed == planned,
            "P={p} m={m} net={net_idx}: executed {executed} != plan cost {planned}"
        );
    }

    /// The exact sparse sum at disjoint supports — Top-k's worst case —
    /// costs exactly `topk_plan_ms`, folded (non-power-of-two) P included.
    #[test]
    fn prop_sparse_sum_time_equals_topk_plan(
        p in 2usize..=48,
        k in 1usize..=6,
        net_idx in 0usize..3,
    ) {
        let net = NETS[net_idx];
        let times = Cluster::new(p, net).run(|comm| {
            let mine = disjoint_local(comm.rank(), p, k);
            let sum = sparse_sum_recursive_doubling(comm, mine).unwrap();
            assert_eq!(sum.nnz(), p * k);
            comm.now_ms()
        });
        let executed = times.iter().copied().fold(0.0f64, f64::max);
        let planned = topk_plan_ms(&net, p, k);
        prop_assert!(
            executed == planned,
            "P={p} k={k} net={net_idx}: executed {executed} != plan cost {planned}"
        );
    }

    /// Zoo collectives: executed α-β time == the ZooSchedule's offline
    /// PlanClock replay, exactly, for any worker count (power-of-two or
    /// folded) and any network. The budget-padded wire format makes the
    /// executed time input-independent, so the identity is bitwise.
    #[test]
    fn prop_zoo_executed_time_equals_plan_cost(
        p in 2usize..=48,
        k in 1usize..=6,
        alg_idx in 0usize..2,
        net_idx in 0usize..3,
    ) {
        let oktopk = alg_idx == 0;
        let net = NETS[net_idx];
        let sched = if oktopk {
            ZooSchedule::oktopk(p, k)
        } else {
            ZooSchedule::spardl(p, k)
        };
        let members: Vec<usize> = (0..p).collect();
        let times = {
            let sched = sched.clone();
            Cluster::new(p, net).run(move |comm| {
                let mine = disjoint_local(comm.rank(), p, k);
                sparse_zoo_all_reduce_over(comm, &members, mine, &sched).unwrap();
                comm.now_ms()
            })
        };
        let executed = times.iter().copied().fold(0.0f64, f64::max);
        let planned = sched.cost_ms(&net);
        prop_assert!(
            executed == planned,
            "{} P={p} k={k} net={net_idx}: executed {executed} != plan cost {planned}",
            sched.name
        );
    }

    /// The Ok-Topk fused selection path conserves gradient
    /// mass exactly: every extracted value either lands in the (unscaled)
    /// global or returns to someone's residual via the witnessed-reject
    /// put-back — coordinate-wise, across arbitrary P and k.
    #[test]
    fn prop_oktopk_threshold_path_conserves_mass(
        p in 2usize..=16,
        k in 1usize..=8,
        seed in 0u64..20,
    ) {
        let dim = 48usize;
        let sched = ZooSchedule::oktopk(p, k);
        let members: Vec<usize> = (0..p).collect();
        let out: Vec<(Vec<f32>, Vec<f32>, SparseVec)> = {
            let sched = sched.clone();
            Cluster::new(p, CostModel::zero()).run(move |comm| {
                let rank = comm.rank();
                let mut residual = Residual::new(dim);
                let mut local = SparseVec::empty(dim);
                let g = grad(rank, dim, seed);
                residual.accumulate_extract_into(&g, sched.contrib_slots, &mut local);
                let mass_in: Vec<f32> = residual
                    .dense()
                    .iter()
                    .zip(local.to_dense())
                    .map(|(r, l)| r + l)
                    .collect();
                let (global, rejects) =
                    sparse_zoo_all_reduce_over(comm, &members, local, &sched).unwrap();
                residual.put_back(&rejects);
                (mass_in, residual.dense().to_vec(), global)
            })
        };
        let global = out[0].2.to_dense();
        for (r, cell) in out.iter().enumerate() {
            prop_assert_eq!(&cell.2, &out[0].2, "rank {} global diverges", r);
        }
        for (c, &applied) in global.iter().enumerate() {
            let mass_in: f64 = out.iter().map(|cell| cell.0[c] as f64).sum();
            let mass_out: f64 =
                out.iter().map(|cell| cell.1[c] as f64).sum::<f64>() + applied as f64;
            prop_assert!(
                (mass_in - mass_out).abs() < 1e-4,
                "P={p} k={k} seed={seed}: coordinate {c} lost mass: \
                 {mass_in} != {mass_out}"
            );
        }
    }

    /// The binomial tree (the one topology) yields the same global on
    /// every rank, bit-for-bit equal to the paper's ⊤-fold reference, when
    /// supports are disjoint with distinct magnitudes.
    #[test]
    fn prop_topologies_agree_bitwise_with_the_merge_reference(
        p in 2usize..=48,
        k in 1usize..=6,
    ) {
        let members: Vec<usize> = (0..p).collect();
        let locals: Vec<SparseVec> = (0..p).map(|r| disjoint_local(r, p, k)).collect();
        let reference = bits(&topk_merge_many(&locals, k));
        let globals = Cluster::new(p, CostModel::zero()).run(|comm| {
            let mine = disjoint_local(comm.rank(), p, k);
            let (global, _mask, _rejects) =
                gtopk_all_reduce_over(comm, &members, mine, k).unwrap();
            bits(&global)
        });
        for (r, g) in globals.iter().enumerate() {
            prop_assert_eq!(
                g,
                &reference,
                "P={} k={}: rank {} diverges from the ⊤-fold reference",
                p, k, r
            );
        }
    }
}

/// Past the old tag window: the dense ring at P = 140 runs 278 rounds,
/// sums correctly, and costs exactly its replay.
#[test]
fn dense_ring_past_the_tag_window_equals_its_replay() {
    let (p, m) = (140usize, 2 * 140 + 3);
    let net = NETS[0];
    assert_eq!(executed_ring_ms(p, m, net), dense_plan_ms(&net, p, m));
}
