//! Communication schedules for the sparse-allreduce algorithm zoo:
//! Ok-Topk (split-and-aggregate with a sampled global threshold,
//! O(k) volume) and SparDL (Spar-Reduce-Scatter / Spar-All-Gather with
//! global residual collection).
//!
//! A [`ZooSchedule`] is the *single source of truth* both sides consume:
//! the executed collective in `gtopk_core::sparse_coll` pads every
//! message to the schedule's per-round slot budget, and the analytic
//! replay here charges a [`PlanClock`] with exactly those budgets. The
//! executed α-β time is therefore input-independent and matches the
//! replay bit-for-bit (property-tested in `tests/plan_equivalence.rs`).
//!
//! Cost shapes on the α-β model (P₂ = largest power of two ≤ P,
//! L = log₂P₂):
//!
//! * **Ok-Topk** — split rounds ship the per-rank contribution quota
//!   `q = ⌈k/P⌉`: `(L+fold)·(α + 2qβ)`. Gather rounds double the
//!   assembled slice, `Σⱼ α + 2g·2ʲβ ≈ L·α + 2·2kβ` with
//!   `g = ⌈k/P₂⌉`. Per-rank *volume* is `O(k)` — the `log P` factor
//!   multiplies only the α term and `k/P`-sized messages, unlike
//!   gTop-k's `4k log₂P·β` (Eq. 7).
//! * **SparDL** — the reduce-scatter cascades `hₜ = ⌈hₜ₋₁/2⌉` from
//!   `h₀ = k`, so split volume telescopes to `≈ 2kβ` and the gather
//!   mirrors it; no round ever carries a dense (m-proportional)
//!   payload, removing the dense-allgather tail.

use crate::plancost::PlanClock;
use gtopk_comm::collectives::largest_power_of_two_leq;
use gtopk_comm::{CollectivePlan, CostModel};

/// A fully-resolved communication schedule for one zoo collective at a
/// fixed `(P, k)`: the split (reduce-scatter) and gather (all-gather)
/// plans plus every round's slot budget, in index/value pairs.
#[derive(Debug, Clone)]
pub struct ZooSchedule {
    /// Algorithm display name ("Ok-Topk" or "SparDL").
    pub name: &'static str,
    /// Number of participating positions.
    pub p: usize,
    /// Global sparsification budget the schedule was derived for.
    pub k: usize,
    /// Per-rank contribution budget: how many local candidate entries a
    /// rank feeds into the collective (`k` for both algorithms — for
    /// Ok-Topk these model the entries above the sampled estimate of the
    /// global top-k threshold; the per-round `⌈k/P⌉` wire quotas, not
    /// the candidate set, bound what actually travels).
    pub contrib_slots: usize,
    /// Per-region budget each position's holdings are truncated to at
    /// the end of the split phase — the per-region global selection.
    pub region_slots: usize,
    /// The split-phase plan ([`CollectivePlan::halving_exchange`]).
    pub split: CollectivePlan,
    /// Slot budget of each split round's messages.
    pub split_slots: Vec<usize>,
    /// Post-merge holdings cap applied after each split round
    /// (`None` = unbounded growth until the final region truncation).
    pub split_trunc: Vec<Option<usize>>,
    /// The gather-phase plan ([`CollectivePlan::doubling_exchange`]).
    pub gather: CollectivePlan,
    /// Slot budget of each gather round's messages.
    pub gather_slots: Vec<usize>,
}

impl ZooSchedule {
    /// The Ok-Topk schedule: every rank's candidate set is its local
    /// top-k (modelling the entries above a sampled estimate of the
    /// *global* top-k threshold); each split round's messages carry the
    /// fixed balanced quota `q = ⌈k/P⌉` and holdings grow freely until
    /// the final per-region truncation to `g = ⌈k/P₂⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `k == 0`.
    #[must_use]
    pub fn oktopk(p: usize, k: usize) -> Self {
        assert!(p > 0 && k > 0, "Ok-Topk schedule needs p > 0 and k > 0");
        let p2 = largest_power_of_two_leq(p);
        let q = k.div_ceil(p);
        let g = k.div_ceil(p2);
        let split = CollectivePlan::halving_exchange(p);
        let split_slots = vec![q; split.num_rounds()];
        let split_trunc = vec![None; split.num_rounds()];
        let gather = CollectivePlan::doubling_exchange(p);
        let gather_slots = gather_budgets(&gather, p, p2, g);
        Self::finish(
            "Ok-Topk",
            p,
            k,
            k,
            g,
            split,
            split_slots,
            split_trunc,
            gather,
            gather_slots,
        )
    }

    /// The SparDL schedule: every rank contributes its local top-k and
    /// the Spar-Reduce-Scatter cascades the holdings cap
    /// `hₜ = ⌈hₜ₋₁/2⌉` from `h₀ = k`, re-sparsifying after every merge
    /// (the truncation rejects seed the global residual collection).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `k == 0`.
    #[must_use]
    pub fn spardl(p: usize, k: usize) -> Self {
        assert!(p > 0 && k > 0, "SparDL schedule needs p > 0 and k > 0");
        let p2 = largest_power_of_two_leq(p);
        let split = CollectivePlan::halving_exchange(p);
        let mut split_slots = Vec::with_capacity(split.num_rounds());
        let mut split_trunc = Vec::with_capacity(split.num_rounds());
        let mut h = k;
        if p > p2 {
            // Fold-in round: the folded ranks ship their full top-k and
            // receivers re-sparsify back down to k.
            split_slots.push(k);
            split_trunc.push(Some(k));
        }
        for _ in 0..split.num_rounds() - split_slots.len() {
            h = h.div_ceil(2);
            split_slots.push(h);
            split_trunc.push(Some(h));
        }
        let region = h;
        let gather = CollectivePlan::doubling_exchange(p);
        let gather_slots = gather_budgets(&gather, p, p2, region);
        Self::finish(
            "SparDL",
            p,
            k,
            k,
            region,
            split,
            split_slots,
            split_trunc,
            gather,
            gather_slots,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        name: &'static str,
        p: usize,
        k: usize,
        contrib_slots: usize,
        region_slots: usize,
        split: CollectivePlan,
        split_slots: Vec<usize>,
        split_trunc: Vec<Option<usize>>,
        gather: CollectivePlan,
        gather_slots: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(split_slots.len(), split.num_rounds());
        debug_assert_eq!(split_trunc.len(), split.num_rounds());
        debug_assert_eq!(gather_slots.len(), gather.num_rounds());
        ZooSchedule {
            name,
            p,
            k,
            contrib_slots,
            region_slots,
            split,
            split_slots,
            split_trunc,
            gather,
            gather_slots,
        }
    }

    /// Charges one full collective (split then gather) on `clock` —
    /// the analytic twin of `sparse_zoo_all_reduce_over`, allocation-free
    /// in steady state.
    ///
    /// # Panics
    ///
    /// Panics if the clock's position count disagrees with `p`.
    pub fn charge(&self, clock: &mut PlanClock, net: &CostModel) {
        clock.charge(net, &self.split, |r, _, _| 2 * self.split_slots[r]);
        clock.charge(net, &self.gather, |r, _, _| 2 * self.gather_slots[r]);
    }

    /// Makespan of one collective executed from time zero.
    #[must_use]
    pub fn cost_ms(&self, net: &CostModel) -> f64 {
        let mut clock = PlanClock::new(self.p);
        self.charge(&mut clock, net);
        clock.max_now()
    }

    /// Largest possible wire volume (elements, sends only) any single
    /// position moves in one collective — every budget of every round it
    /// takes part in, fully padded. An upper bound that is also exact,
    /// since padding makes every message carry its full budget.
    #[must_use]
    pub fn max_rank_send_elems(&self) -> usize {
        (0..self.p)
            .map(|pos| self.rank_send_elems(pos))
            .max()
            .unwrap_or(0)
    }

    /// Exact wire volume (elements) position `pos` sends in one
    /// collective.
    #[must_use]
    pub fn rank_send_elems(&self, pos: usize) -> usize {
        let mut total = 0usize;
        for (plan, slots) in [
            (&self.split, &self.split_slots),
            (&self.gather, &self.gather_slots),
        ] {
            for (round, &budget) in plan.rounds.iter().zip(slots) {
                for ex in &round.exchanges {
                    let sends = match *ex {
                        gtopk_comm::Exchange::Send { src, .. } => src == pos,
                        gtopk_comm::Exchange::Swap { a, b } => a == pos || b == pos,
                    };
                    if sends {
                        total += 2 * budget;
                    }
                }
            }
        }
        total
    }
}

/// Per-round slot budgets of the gather phase: swap round `j` (ascending
/// mask `2ʲ`) ships an assembled slice of `region·2ʲ`, and the fold-out
/// round ships the fully assembled `region·P₂` result.
fn gather_budgets(gather: &CollectivePlan, p: usize, p2: usize, region: usize) -> Vec<usize> {
    let mut slots = Vec::with_capacity(gather.num_rounds());
    let swap_rounds = gather.num_rounds() - usize::from(p > p2);
    for j in 0..swap_rounds {
        slots.push(region << j);
    }
    if p > p2 {
        slots.push(region * p2);
    }
    slots
}

/// Makespan of one Ok-Topk collective at `(p, k)` over `net`.
///
/// # Panics
///
/// Panics if `p == 0` or `k == 0`.
#[must_use]
pub fn oktopk_plan_ms(net: &CostModel, p: usize, k: usize) -> f64 {
    ZooSchedule::oktopk(p, k).cost_ms(net)
}

/// Makespan of one SparDL collective at `(p, k)` over `net`.
///
/// # Panics
///
/// Panics if `p == 0` or `k == 0`.
#[must_use]
pub fn spardl_plan_ms(net: &CostModel, p: usize, k: usize) -> f64 {
    ZooSchedule::spardl(p, k).cost_ms(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gtopk_plan_ms;
    use gtopk_comm::Topology;

    #[test]
    fn schedules_cover_all_round_budgets() {
        for p in 1..=17usize {
            for k in [1usize, 7, 100] {
                for sched in [ZooSchedule::oktopk(p, k), ZooSchedule::spardl(p, k)] {
                    assert_eq!(sched.split_slots.len(), sched.split.num_rounds());
                    assert_eq!(sched.split_trunc.len(), sched.split.num_rounds());
                    assert_eq!(sched.gather_slots.len(), sched.gather.num_rounds());
                    assert!(sched.split_slots.iter().all(|&s| s >= 1));
                    assert!(sched.gather_slots.iter().all(|&s| s >= 1));
                    assert!(sched.contrib_slots >= 1);
                    assert!(sched.region_slots >= 1);
                }
            }
        }
    }

    #[test]
    fn oktopk_rank_volume_has_no_log_p_growth() {
        // Per-rank send volume must stay O(k): quadrupling P (and its
        // log) must not grow the max per-rank volume beyond a constant
        // factor of 2k, while gTop-k's grows with log₂P.
        let k = 4096;
        let v8 = ZooSchedule::oktopk(8, k).max_rank_send_elems();
        let v32 = ZooSchedule::oktopk(32, k).max_rank_send_elems();
        assert!(
            v32 <= v8,
            "Ok-Topk volume grew with P: {v8} @P=8 vs {v32} @P=32"
        );
        assert!(v32 <= 6 * k, "Ok-Topk volume not O(k): {v32} vs k={k}");
    }

    #[test]
    fn spardl_rank_volume_is_bounded_by_4k() {
        // The halving cascade telescopes: split volume is
        // 2k(1 − 1/P₂) < 2k and the gather mirrors it, so the per-rank
        // total approaches (but never exceeds) 4k no matter how large P
        // — no log P factor.
        let k = 4096;
        let v4 = ZooSchedule::spardl(4, k).max_rank_send_elems();
        let v32 = ZooSchedule::spardl(32, k).max_rank_send_elems();
        assert!(v32 <= 4 * k, "SparDL volume not O(k): {v32} vs k={k}");
        assert!(v32 < 2 * v4, "SparDL volume must not scale with log P");
    }

    #[test]
    fn oktopk_beats_gtopk_at_scale_on_low_bandwidth() {
        // Where the crossover map must land: once the β term dominates
        // (large k on 1GbE), O(k) beats O(k log P) at P = 32.
        let net = CostModel::gigabit_ethernet();
        let k = 25_000;
        let gtopk = gtopk_plan_ms(&net, Topology::Binomial, 32, k);
        let oktopk = oktopk_plan_ms(&net, 32, k);
        let spardl = spardl_plan_ms(&net, 32, k);
        assert!(oktopk < gtopk, "Ok-Topk {oktopk} vs gTop-k {gtopk}");
        assert!(spardl < gtopk, "SparDL {spardl} vs gTop-k {gtopk}");
    }

    #[test]
    fn single_rank_schedules_are_free() {
        let net = CostModel::gigabit_ethernet();
        assert_eq!(oktopk_plan_ms(&net, 1, 10), 0.0);
        assert_eq!(spardl_plan_ms(&net, 1, 10), 0.0);
    }

    #[test]
    fn charging_is_deterministic_and_repeatable() {
        let net = CostModel::new(0.7, 0.003);
        for p in [2usize, 5, 8, 12, 48] {
            let sched = ZooSchedule::oktopk(p, 123);
            let a = sched.cost_ms(&net);
            let b = sched.cost_ms(&net);
            assert_eq!(a, b);
            assert!(a > 0.0);
        }
    }
}
