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

    /// Simulated clocks never run backwards, and with a zero-cost
    /// network a ring AllReduce aligns all ranks at the maximum compute
    /// time like a barrier: its 2(P−1) rounds carry every rank's clock to
    /// every other rank.
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
            let mut v = vec![0.0f32; p];
            collectives::allreduce_ring(comm, &mut v).unwrap();
            let t2 = comm.now_ms();
            (t0, t1, t2)
        });
        let max_compute = (0..p)
            .map(|r| computes[r % computes.len()] as f64 / 10.0)
            .fold(0.0f64, f64::max);
        for &(t0, t1, t2) in &out {
            prop_assert!(t0 <= t1 && t1 <= t2, "clock must be monotone");
            // Zero-cost network: exit time == slowest rank.
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
