//! Exact α-β cost of a [`CollectivePlan`] — the analytic twin of the
//! executed collectives, and the one α-β pricer of every schedule the
//! product runs.
//!
//! The simulated transport in `gtopk-comm` charges every message with the
//! same three rules (see `Communicator::send` / `recv`):
//!
//! 1. a send advances the **sender's** clock by `α + nβ` and stamps the
//!    message with the post-charge time as its arrival;
//! 2. a receive serializes the **inbound link**: the delivery time is
//!    `max(arrival, rx_free + α + nβ)`, and `rx_free` advances to it;
//! 3. the receiver's clock synchronizes forward to the delivery time.
//!
//! Because plan execution is deterministic — per-rank program order is
//! the round order, messages are matched FIFO per `(src, tag)` — those
//! rules can be replayed *without running any threads*. [`PlanClock`]
//! does exactly that: it carries one clock and one inbound link horizon
//! per plan position and charges a plan round by round. The result is not
//! a model that approximates the executed time; it is the executed time,
//! reproduced bit-for-bit (pinned in `tests/plan_equivalence.rs` for every
//! topology and worker count).
//!
//! This is what turns Table I / Eqs. 5–7 from closed forms into
//! *assertions over plans*: [`dense_plan_ms`], [`topk_plan_ms`] and
//! [`gtopk_plan_ms`] replay the ring, the exact sparse sum and the
//! gTop-k tree, and for a power-of-two `P` they equal Eqs. 5, 6 and 7 —
//! see the tests below.

use gtopk_comm::collectives::{largest_power_of_two_leq, ring_chunk};
use gtopk_comm::{CollectivePlan, CostModel, Exchange, ShardMap, Topology};

/// Deterministic replay clock for plan executions: one simulated clock
/// and one inbound-link horizon per plan position, mirroring the
/// per-rank state of the executed transport (`Clock` + `rx_link_free_ms`)
/// over a uniform-cost network.
///
/// The clock persists across [`PlanClock::charge`] calls, exactly as the
/// real per-rank state persists across collectives — charging a reduce
/// plan and then a broadcast plan on the same `PlanClock` models one
/// gTopKAllReduce, inbound-link backpressure included.
#[derive(Debug, Clone)]
pub struct PlanClock {
    clocks: Vec<f64>,
    rx_free: Vec<f64>,
    /// Reused `(dst, arrival, cost)` staging buffer of the round being
    /// charged — kept here so steady-state charging allocates nothing.
    pending: Vec<(usize, f64, f64)>,
}

impl PlanClock {
    /// A clock for `p` positions, all at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    #[must_use]
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "plan clock needs at least one position");
        PlanClock {
            clocks: vec![0.0; p],
            rx_free: vec![0.0; p],
            pending: Vec::new(),
        }
    }

    /// Number of positions tracked.
    #[must_use]
    pub fn size(&self) -> usize {
        self.clocks.len()
    }

    /// Current simulated time at `pos`, ms.
    #[must_use]
    pub fn now(&self, pos: usize) -> f64 {
        self.clocks[pos]
    }

    /// The latest clock across all positions — the makespan so far.
    #[must_use]
    pub fn max_now(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }

    /// Advances `pos` by `dt_ms` of local computation (the analogue of
    /// `Communicator::advance_compute`).
    pub fn advance_compute(&mut self, pos: usize, dt_ms: f64) {
        self.clocks[pos] += dt_ms;
    }

    /// Synchronizes `pos` forward to `t_ms` if it is behind (the
    /// analogue of `Clock::sync_to`).
    pub fn sync_to(&mut self, pos: usize, t_ms: f64) {
        if self.clocks[pos] < t_ms {
            self.clocks[pos] = t_ms;
        }
    }

    /// Charges one full plan execution over the uniform network `net`,
    /// the message position `src` sends to `dst` in round `r` carrying
    /// `wire(r, src, dst)` elements on the wire.
    ///
    /// Within a round all sends are charged before any delivery — the
    /// per-thread program order of `execute_plan` (each rank sends before
    /// it receives, and a message's arrival stamp depends only on its
    /// sender's clock); each delivery then serializes on its receiver's
    /// inbound link at that message's own cost, in exchange order — the
    /// order `execute_plan` receives in. A star's fan-in thus queues on
    /// the hub's inbound horizon: the incast a parameter-server host
    /// pays.
    ///
    /// # Panics
    ///
    /// Panics if the plan's size disagrees with this clock's.
    pub fn charge(
        &mut self,
        net: &CostModel,
        plan: &CollectivePlan,
        wire: impl Fn(usize, usize, usize) -> usize,
    ) {
        assert_eq!(
            plan.size,
            self.size(),
            "plan size must match the clock's position count"
        );
        let mut pending = std::mem::take(&mut self.pending);
        for (r, round) in plan.rounds.iter().enumerate() {
            pending.clear();
            for ex in &round.exchanges {
                match *ex {
                    Exchange::Send { src, dst } => {
                        self.send(&mut pending, net, src, dst, wire(r, src, dst));
                    }
                    Exchange::Swap { a, b } => {
                        self.send(&mut pending, net, a, b, wire(r, a, b));
                        self.send(&mut pending, net, b, a, wire(r, b, a));
                    }
                }
            }
            for &(dst, arrival, cost) in &pending {
                let delivery = arrival.max(self.rx_free[dst] + cost);
                self.rx_free[dst] = delivery;
                self.sync_to(dst, delivery);
            }
        }
        self.pending = pending;
    }

    /// Charges one `elems`-element send to `src`'s clock and stages its
    /// delivery to `dst` at the post-charge time.
    fn send(
        &mut self,
        pending: &mut Vec<(usize, f64, f64)>,
        net: &CostModel,
        src: usize,
        dst: usize,
        elems: usize,
    ) {
        let cost = net.transfer_ms(elems);
        self.clocks[src] += cost;
        pending.push((dst, self.clocks[src], cost));
    }
}

/// Exact cost of one ring DenseAllReduce of `m` elements over `p`
/// positions: [`CollectivePlan::ring_allreduce`], every message carrying
/// its sender's [`ring_chunk`]. For `p ∣ m` this equals Eq. 5,
/// `2(P−1)α + 2((P−1)/P)·mβ`.
///
/// # Panics
///
/// Panics if `p == 0`.
#[must_use]
pub fn dense_plan_ms(net: &CostModel, p: usize, m: usize) -> f64 {
    let mut clock = PlanClock::new(p);
    clock.charge(net, &CollectivePlan::ring_allreduce(p), |r, src, _| {
        ring_chunk(m, p, r, src).len()
    });
    clock.max_now()
}

/// Exact cost of one Top-k aggregation — the recursive-doubling exact
/// sparse sum over [`CollectivePlan::exchange`] — at the disjoint-support
/// worst case, where a partial sum holding `c` contributions carries
/// `2k·c` wire elements: `1` contribution in the fold-in round, the
/// sender's `2ʲ`-position block (plus the folded ranks it absorbed) at
/// swap mask `2ʲ`, all `P` in the fold-out round. For a power-of-two `P`
/// this equals Eq. 6, `log₂P·α + 2(P−1)kβ`.
///
/// # Panics
///
/// Panics if `p == 0`.
#[must_use]
pub fn topk_plan_ms(net: &CostModel, p: usize, k: usize) -> f64 {
    let mut clock = PlanClock::new(p);
    clock.charge(net, &CollectivePlan::exchange(p), sparse_sum_wire(p, k));
    clock.max_now()
}

/// Wire elements position `src` sends in round `r` of the exact sparse
/// sum over [`CollectivePlan::exchange`]`(p)` at [`topk_plan_ms`]'s
/// disjoint-support worst case — an upper bound on the executed wire. The
/// third argument, the receiver, does not matter.
pub fn sparse_sum_wire(p: usize, k: usize) -> impl Fn(usize, usize, usize) -> usize {
    let p2 = largest_power_of_two_leq(p);
    let extra = p - p2;
    let fold = usize::from(extra > 0);
    let fold_out = fold + p2.trailing_zeros() as usize;
    move |r, src, _| {
        let held = if src >= p2 {
            1
        } else if extra > 0 && r == fold_out {
            p
        } else {
            let block = 1usize << (r - fold);
            let base = src & !(block - 1);
            block + extra.saturating_sub(base).min(block)
        };
        2 * k * held
    }
}

/// Exact cost of one gTopKAllReduce over `topology`: the reduce plan
/// followed by the broadcast plan from the reduce root, every message
/// carrying `2k` wire elements (k values + k indices), with the inbound
/// link horizon carried across the two phases.
///
/// For a power-of-two `P` on the binomial topology this equals Eq. 7,
/// `2·log₂P·α + 4k·log₂P·β`, exactly.
///
/// # Panics
///
/// Panics if `p == 0`.
#[must_use]
pub fn gtopk_plan_ms(net: &CostModel, topology: Topology, p: usize, k: usize) -> f64 {
    let reduce = CollectivePlan::reduce(topology, p);
    let bcast = CollectivePlan::broadcast(topology, p, reduce.root);
    let mut clock = PlanClock::new(p);
    clock.charge(net, &reduce, |_, _, _| 2 * k);
    clock.charge(net, &bcast, |_, _, _| 2 * k);
    clock.max_now()
}

/// Exact cost of `rounds` bulk-synchronous sharded parameter-server
/// rounds of an `m`-parameter model with global budget `k`, from time
/// zero. Each round is the [`CollectivePlan::ps_push`] plan, every push
/// carrying its receiving shard's zero-padded `k_s` entries (`2·k_s` wire
/// elements), then the [`CollectivePlan::ps_reply`] plan, every reply its
/// host's dense `len_s`-element region. Shards are capped at `p`, as the
/// executed engine caps them at the membership. A host's incast is its
/// inbound horizon in the push round; at `S = 1` the round is the
/// single-server star.
///
/// # Panics
///
/// Panics if `p == 0`, `shards == 0` or `shards > m`.
#[must_use]
pub fn ps_plan_ms(
    net: &CostModel,
    p: usize,
    m: usize,
    shards: usize,
    k: usize,
    rounds: usize,
) -> f64 {
    let map = ShardMap::new(m, shards.min(p));
    let budgets = map.budgets(k);
    let push = CollectivePlan::ps_push(p, map.num_shards());
    let reply = CollectivePlan::ps_reply(p, map.num_shards());
    let mut clock = PlanClock::new(p);
    for _ in 0..rounds {
        clock.charge(net, &push, |_, _, host| 2 * budgets[host]);
        clock.charge(net, &reply, |_, host, _| map.len(host));
    }
    clock.max_now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabeta::{dense_allreduce_ms, gtopk_allreduce_ms, topk_allreduce_ms};

    /// The paper's measured 1 GbE constants (Fig. 8).
    const PAPER: CostModel = CostModel {
        alpha_ms: 0.436,
        beta_ms_per_elem: 3.6e-5,
    };

    fn assert_close(replay: f64, eq: f64, what: &str) {
        assert!(
            (replay - eq).abs() / eq < 1e-6,
            "{what}: replay {replay} vs closed form {eq}"
        );
    }

    #[test]
    fn dense_plan_matches_eq5() {
        for (p, m) in [(4usize, 10_000usize), (32, 25_000_000), (8, 4096)] {
            let eq5 = dense_allreduce_ms(&PAPER, p, m);
            assert_close(dense_plan_ms(&PAPER, p, m), eq5, &format!("P={p} m={m}"));
        }
    }

    #[test]
    fn topk_plan_matches_eq6() {
        for (p, k) in [(32usize, 25_000usize), (8, 16), (2, 1)] {
            let eq6 = topk_allreduce_ms(&PAPER, p, k);
            assert_close(topk_plan_ms(&PAPER, p, k), eq6, &format!("P={p} k={k}"));
        }
    }

    #[test]
    fn gtopk_plan_matches_eq7() {
        let (p, k) = (32usize, 25_000usize);
        let eq7 = gtopk_allreduce_ms(&PAPER, p, k);
        assert_close(gtopk_plan_ms(&PAPER, Topology::Binomial, p, k), eq7, "P=32");
    }

    #[test]
    fn single_position_replays_are_free() {
        assert_eq!(dense_plan_ms(&PAPER, 1, 1000), 0.0);
        assert_eq!(topk_plan_ms(&PAPER, 1, 10), 0.0);
        assert_eq!(gtopk_plan_ms(&PAPER, Topology::Binomial, 1, 10), 0.0);
    }

    #[test]
    fn topk_fold_rounds_carry_what_their_senders_hold() {
        // P = 3 with β only: fold-in ships 1 contribution (2k), the one
        // swap ships 2 from position 0 and 1 from position 1, and the
        // fold-out ships all 3 — the critical path runs 2k + 4k + 6k.
        let net = CostModel::new(0.0, 1.0);
        let k = 5;
        assert_eq!(topk_plan_ms(&net, 3, k), (12 * k) as f64);
    }

    #[test]
    fn binomial_plan_cost_equals_eq7_for_powers_of_two() {
        let net = CostModel::new(0.7, 0.003);
        for p in [2usize, 4, 8, 16, 32, 64] {
            for k in [1usize, 25, 400] {
                let planned = gtopk_plan_ms(&net, Topology::Binomial, p, k);
                let eq7 = gtopk_allreduce_ms(&net, p, k);
                assert!(
                    (planned - eq7).abs() < 1e-9,
                    "P={p} k={k}: plan {planned} vs Eq.7 {eq7}"
                );
            }
        }
    }

    #[test]
    fn non_power_of_two_binomial_costs_ceil_log_rounds() {
        // The fold round adds one α + 2kβ hop: P=5 reduces in
        // ⌈log₂5⌉ = 3 rounds, broadcasts in 3 → the Eq. 7 shape with
        // ⌈log₂P⌉ in place of log₂P.
        let net = CostModel::new(1.0, 0.01);
        let k = 10;
        let hop = net.transfer_ms(2 * k);
        for (p, rounds) in [(3usize, 2usize), (5, 3), (6, 3), (12, 4)] {
            let planned = gtopk_plan_ms(&net, Topology::Binomial, p, k);
            assert!(
                (planned - 2.0 * rounds as f64 * hop).abs() < 1e-9,
                "P={p}: {planned} vs {} hops",
                2 * rounds
            );
        }
    }

    #[test]
    fn ring_plan_cost_is_linear_in_p() {
        // A chain reduce plus a chain broadcast: 2(P−1) serialized hops.
        let net = CostModel::new(0.5, 0.002);
        let k = 8;
        let hop = net.transfer_ms(2 * k);
        for p in [2usize, 3, 7, 12] {
            let planned = gtopk_plan_ms(&net, Topology::Ring, p, k);
            assert!(
                (planned - 2.0 * (p as f64 - 1.0) * hop).abs() < 1e-9,
                "P={p}: {planned}"
            );
        }
    }

    #[test]
    fn hierarchical_beats_ring_and_tracks_binomial_at_scale() {
        let net = CostModel::new(1.0, 1e-4);
        let k = 100;
        for p in [9usize, 16, 25, 36] {
            let tree = gtopk_plan_ms(&net, Topology::Binomial, p, k);
            let hier = gtopk_plan_ms(&net, Topology::Hierarchical, p, k);
            let ring = gtopk_plan_ms(&net, Topology::Ring, p, k);
            assert!(hier < ring, "P={p}: hierarchical {hier} vs ring {ring}");
            // Two √P star phases per direction stay within a small factor
            // of the binomial tree at these sizes.
            assert!(hier < 4.0 * tree, "P={p}: hierarchical {hier} vs {tree}");
        }
    }

    #[test]
    fn inbound_link_serialization_is_modelled() {
        // A star reduce onto one root serializes on the root's inbound
        // link: with α=1, β=0 and 4 leaves the last delivery lands at
        // 4·α, not α.
        let net = CostModel::new(1.0, 0.0);
        let p = 5;
        let plan = CollectivePlan::reduce(Topology::Hierarchical, p);
        // ⌈√5⌉ = 3 → groups {0,1,2},{3,4}: in-group stars then a leader
        // star; the root's inbound link carries multiple serialized
        // deliveries.
        let mut clock = PlanClock::new(p);
        clock.charge(&net, &plan, |_, _, _| 2);
        let cost = clock.max_now();
        assert!(
            cost >= 3.0,
            "serialized inbound deliveries must stack: {cost}"
        );
    }

    #[test]
    fn clock_state_persists_across_plans() {
        let net = CostModel::new(1.0, 0.0);
        let p = 4;
        let reduce = CollectivePlan::reduce(Topology::Binomial, p);
        let mut clock = PlanClock::new(p);
        clock.charge(&net, &reduce, |_, _, _| 2);
        let after_reduce = clock.max_now();
        let bcast = CollectivePlan::broadcast(Topology::Binomial, p, reduce.root);
        clock.charge(&net, &bcast, |_, _, _| 2);
        assert!(clock.max_now() > after_reduce);
        // Identical to the one-shot helper.
        assert_eq!(
            clock.max_now(),
            gtopk_plan_ms(&net, Topology::Binomial, p, 1)
        );
    }

    #[test]
    fn per_round_charging_matches_uniform_charging_on_equal_sizes() {
        let net = CostModel::new(0.7, 0.003);
        for p in [2usize, 5, 8, 12] {
            let plan = CollectivePlan::exchange(p);
            let sizes = vec![64usize; plan.num_rounds()];
            let mut uniform = PlanClock::new(p);
            uniform.charge(&net, &plan, |_, _, _| 64);
            let mut per_round = PlanClock::new(p);
            per_round.charge(&net, &plan, |r, _, _| sizes[r]);
            for pos in 0..p {
                assert_eq!(uniform.now(pos), per_round.now(pos), "P={p} pos={pos}");
            }
        }
    }

    #[test]
    fn per_round_charging_uses_each_rounds_size() {
        // Two positions, one swap per round: each round costs α + n_r β
        // on both clocks, so the total is the sum over rounds.
        let net = CostModel::new(1.0, 0.01);
        let plan = CollectivePlan::exchange(2);
        assert_eq!(plan.num_rounds(), 1);
        let mut clock = PlanClock::new(2);
        clock.charge(&net, &plan, |_, _, _| 100);
        clock.charge(&net, &plan, |_, _, _| 10);
        let expect = net.transfer_ms(100) + net.transfer_ms(10);
        assert!((clock.max_now() - expect).abs() < 1e-12);
    }

    #[test]
    fn single_shard_star_has_the_closed_form_incast_cost() {
        // S = 1: P−1 pushes serialize on the server's inbound link, then
        // P−1 dense replies serialize on its outbound clock — the round
        // costs exactly (P−1)·(push + pull) with the last reply's
        // delivery landing at that same instant.
        let net = CostModel::new(0.7, 0.003);
        let (m, k) = (4096usize, 64usize);
        for p in [2usize, 4, 8, 16] {
            let got = ps_plan_ms(&net, p, m, 1, k, 1);
            let expect = (p as f64 - 1.0) * (net.transfer_ms(2 * k) + net.transfer_ms(m));
            assert!((got - expect).abs() < 1e-9, "P={p}: {got} vs {expect}");
        }
    }

    #[test]
    fn sharding_cuts_the_star_incast() {
        let net = CostModel::gigabit_ethernet();
        let (p, m, k) = (16usize, 100_000usize, 1_000usize);
        let star = ps_plan_ms(&net, p, m, 1, k, 1);
        let sharded = ps_plan_ms(&net, p, m, p, k, 1);
        assert!(
            sharded * 2.0 < star,
            "P-way sharding must at least halve the round: {star} vs {sharded}"
        );
    }

    #[test]
    fn tree_allreduce_beats_the_star_at_scale_but_not_tiny_p() {
        // The crossover the benchmark maps: at P = 2 the star is one
        // hop each way while the tree pays two rounds; by P = 32 the
        // star's linear incast loses to the tree's log depth.
        let net = CostModel::gigabit_ethernet();
        let (m, k) = (1_000_000usize, 1_000usize);
        let star = |p| ps_plan_ms(&net, p, m, 1, k, 1);
        let tree = |p| gtopk_plan_ms(&net, Topology::Binomial, p, k);
        assert!(star(32) > tree(32), "the star must lose at P=32");
        assert!(
            ps_plan_ms(&net, 32, m, 32, k, 1) < star(32),
            "sharding must recover part of the gap"
        );
    }

    #[test]
    fn compute_advance_shifts_the_critical_path() {
        let net = CostModel::new(1.0, 0.0);
        let p = 2;
        let plan = CollectivePlan::reduce(Topology::Binomial, p);
        let mut clock = PlanClock::new(p);
        // The sender (position 1) is busy computing before it can send.
        clock.advance_compute(1, 10.0);
        clock.charge(&net, &plan, |_, _, _| 2);
        assert_eq!(clock.now(0), 11.0);
    }
}
