//! Property-based tests for the communication substrate: collective
//! correctness over random shapes/sizes and simulated-clock sanity.

use gtopk_comm::{collectives, Cluster, CostModel, Payload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ring AllReduce computes the exact element-wise sum for any P and
    /// any vector length (including n < P, empty chunks).
    #[test]
    fn prop_ring_allreduce_sums(p in 1usize..10, n in 0usize..40, seed in 0u64..100) {
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut v: Vec<f32> = (0..n)
                .map(|i| ((seed + comm.rank() as u64 * 31 + i as u64) % 17) as f32)
                .collect();
            collectives::allreduce_ring(comm, &mut v).unwrap();
            v
        });
        for i in 0..n {
            let expect: f32 = (0..p)
                .map(|r| ((seed + r as u64 * 31 + i as u64) % 17) as f32)
                .sum();
            for v in &out {
                prop_assert_eq!(v[i], expect);
            }
        }
    }

    /// Recursive-doubling AllReduce agrees with the ring for all P.
    #[test]
    fn prop_rd_allreduce_matches_ring(p in 1usize..10, n in 1usize..30, seed in 0u64..50) {
        let mk = move |r: usize| -> Vec<f32> {
            (0..n).map(|i| (((seed + r as u64) * 7 + i as u64) % 13) as f32 - 6.0).collect()
        };
        let ring = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut v = mk(comm.rank());
            collectives::allreduce_ring(comm, &mut v).unwrap();
            v
        });
        let rd = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut v = mk(comm.rank());
            collectives::allreduce_recursive_doubling(comm, &mut v).unwrap();
            v
        });
        for (a, b) in ring[0].iter().zip(rd[0].iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Broadcast delivers the root's data for any root and any P.
    #[test]
    fn prop_broadcast_any_root(p in 1usize..12, root_pick in 0usize..12, n in 0usize..20) {
        let root = root_pick % p;
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let mut v = if comm.rank() == root {
                (0..n).map(|i| i as f32 * 1.5).collect()
            } else {
                vec![0.0; n]
            };
            collectives::broadcast(comm, &mut v, root).unwrap();
            v
        });
        let expect: Vec<f32> = (0..n).map(|i| i as f32 * 1.5).collect();
        for v in out {
            prop_assert_eq!(v, expect.clone());
        }
    }

    /// Simulated clocks never run backwards, and with a zero-cost
    /// network a barrier aligns all ranks at the maximum compute time.
    #[test]
    fn prop_clock_monotone_and_barrier_aligns(
        p in 2usize..8,
        computes in proptest::collection::vec(0u16..1000, 8),
    ) {
        let computes2 = computes.clone();
        let out = Cluster::new(p, CostModel::zero()).run(move |comm| {
            let dt = computes2[comm.rank() % computes2.len()] as f64 / 10.0;
            let t0 = comm.now_ms();
            comm.advance_compute(dt);
            let t1 = comm.now_ms();
            collectives::barrier(comm).unwrap();
            let t2 = comm.now_ms();
            (t0, t1, t2)
        });
        let max_compute = (0..p)
            .map(|r| computes[r % computes.len()] as f64 / 10.0)
            .fold(0.0f64, f64::max);
        for &(t0, t1, t2) in &out {
            prop_assert!(t0 <= t1 && t1 <= t2, "clock must be monotone");
            // Zero-cost network: barrier exit time == slowest rank.
            prop_assert!((t2 - max_compute).abs() < 1e-9);
        }
    }

    /// Message volume accounting is symmetric: total elements sent across
    /// the cluster equals total elements received.
    #[test]
    fn prop_send_recv_accounting_balances(p in 2usize..8, n in 0usize..50) {
        let stats = Cluster::new(p, CostModel::zero()).run(move |comm| {
            // Ring of single messages.
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            comm.send(right, 5, Payload::dense(vec![1.0; n])).unwrap();
            comm.recv(left, 5).unwrap();
            comm.stats()
        });
        let sent: usize = stats.iter().map(|s| s.elems_sent).sum();
        let received: usize = stats.iter().map(|s| s.elems_received).sum();
        prop_assert_eq!(sent, received);
        prop_assert_eq!(sent, p * n);
    }
}
