//! Plan-driven collectives: explicit, inspectable schedules executed
//! round-by-round against the simulated α-β clock.
//!
//! A [`CollectivePlan`] is a sequence of [`Round`]s; each round is a set
//! of point-to-point [`Exchange`]s between *positions* `0..size`. The
//! caller maps positions to ranks, which is how the fault-tolerant layer
//! regenerates a schedule over survivors: same generator, different
//! position→rank mapping. [`execute_plan`] is the single executor every
//! plan-driven collective goes through — the trees, the sparse sums, the
//! zoo schedules and the dense ring alike: round `r` uses tag
//! `tag_base + r mod PLAN_TAG_WINDOW`, and within a round a participant
//! issues its sends before its receives, so independent exchanges of one
//! round proceed in parallel on the simulated clock.
//!
//! Because all clock charging happens in the communicator's send/recv
//! path, the executed α-β time of a plan is reproducible by a
//! deterministic offline replay of the same rounds — `gtopk_perfmodel`'s
//! `PlanClock` is that replay, and property tests pin the two to exact
//! equality.

use crate::{Communicator, Result};

/// Width of the tag window a plan occupies: round `r` is tagged
/// `tag_base + r mod PLAN_TAG_WINDOW`, so callers reserve windows of this
/// width between plan `tag_base`s whatever the plan's length. The wrap is
/// safe because matching is FIFO per `(source, tag)` and every position
/// walks the rounds in order: two rounds sharing a tag are matched in
/// round order.
pub const PLAN_TAG_WINDOW: u32 = 256;

/// The gTop-k tree's shape: there is one, the binomial tree of the
/// paper's Algorithm 3 — `⌈log₂P⌉` rounds, with a fold pre-round over
/// the ranks beyond the largest power of two (Eq. 7 cost for
/// power-of-two `P`). Over contiguous ranks it is already rack-aware:
/// only its top `log₂(racks)` rounds cross a backbone.
///
/// The type, [`Topology::reduce_root`] and the arguments of
/// [`CollectivePlan::reduce`] and [`CollectivePlan::broadcast`] that take
/// it remain only because `benchmark/src/traced.rs` names them; ROADMAP
/// item 1's `[benchmark]` change deletes them together with that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The binomial tree.
    Binomial,
}

impl Topology {
    /// The position a `p`-position [`CollectivePlan::reduce`] plan roots
    /// its result at: always position 0.
    pub fn reduce_root(&self, _p: usize) -> usize {
        0
    }
}

/// One point-to-point exchange between plan positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// `src` sends to `dst`; `dst` combines (or adopts) the payload.
    Send {
        /// Sending position.
        src: usize,
        /// Receiving position.
        dst: usize,
    },
    /// `a` and `b` exchange payloads simultaneously (both charge their
    /// send before either computes its delivery — `sendrecv` semantics).
    Swap {
        /// One peer position.
        a: usize,
        /// The other peer position.
        b: usize,
    },
}

/// One round of a plan: a set of exchanges that may proceed in parallel.
/// A position sends at most once and receives at most once per round (a
/// [`Exchange::Swap`] counts as one of each), so a ring round — every
/// position sending right and receiving from the left — is one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The round's exchanges.
    pub exchanges: Vec<Exchange>,
}

/// An explicit collective schedule over positions `0..size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectivePlan {
    /// Number of participating positions.
    pub size: usize,
    /// For reductions: the position holding the final result. For
    /// broadcasts: the originating position.
    pub root: usize,
    /// The rounds, in execution order; round `r` uses tag
    /// `tag_base + r mod PLAN_TAG_WINDOW`.
    pub rounds: Vec<Round>,
}

impl CollectivePlan {
    /// Binomial reduction plan over `p` positions: a fold round
    /// (positions `≥ 2^⌊log₂p⌋` send down), then ascending-mask binomial
    /// combining into position 0, which holds the combined result after
    /// execution.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn reduce(_topology: Topology, p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let p2 = crate::collectives::largest_power_of_two_leq(p);
        let extra = p - p2;
        let mut rounds = Vec::new();
        if extra > 0 {
            rounds.push(Round {
                exchanges: (0..extra)
                    .map(|i| Exchange::Send {
                        src: p2 + i,
                        dst: i,
                    })
                    .collect(),
            });
        }
        let mut mask = 1usize;
        while mask < p2 {
            rounds.push(Round {
                exchanges: (0..p2)
                    .step_by(2 * mask)
                    .filter(|dst| dst | mask < p2)
                    .map(|dst| Exchange::Send {
                        src: dst | mask,
                        dst,
                    })
                    .collect(),
            });
            mask <<= 1;
        }
        let plan = CollectivePlan {
            size: p,
            root: 0,
            rounds,
        };
        plan.check();
        plan
    }

    /// Binomial broadcast plan from position `root` to all `p` positions:
    /// descending-mask fan-out over positions relative to the root (any
    /// `p`, no fold needed; the round structure of the classic
    /// relative-rank binomial broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `root >= p`.
    pub fn broadcast(_topology: Topology, p: usize, root: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        assert!(root < p, "broadcast root {root} out of range for size {p}");
        let rot = |rel: usize| (rel + root) % p;
        let mut rounds = Vec::new();
        let mut mask = p.next_power_of_two() >> 1;
        while mask > 0 {
            rounds.push(Round {
                exchanges: (0..p)
                    .step_by(2 * mask)
                    .filter(|src| src + mask < p)
                    .map(|src| Exchange::Send {
                        src: rot(src),
                        dst: rot(src + mask),
                    })
                    .collect(),
            });
            mask >>= 1;
        }
        let plan = CollectivePlan {
            size: p,
            root,
            rounds,
        };
        plan.check();
        plan
    }

    /// Recursive-doubling all-reduce plan: fold-in round (positions
    /// beyond the largest power of two send down), `log₂` rounds of
    /// pairwise [`Exchange::Swap`], then a fold-out round returning the
    /// result to the folded positions. After execution every position
    /// holds the combined result.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn exchange(p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let p2 = crate::collectives::largest_power_of_two_leq(p);
        let extra = p - p2;
        let mut rounds = Vec::new();
        if extra > 0 {
            rounds.push(Round {
                exchanges: (0..extra)
                    .map(|i| Exchange::Send {
                        src: p2 + i,
                        dst: i,
                    })
                    .collect(),
            });
        }
        let mut mask = 1usize;
        while mask < p2 {
            rounds.push(Round {
                exchanges: (0..p2)
                    .filter(|a| a & mask == 0)
                    .map(|a| Exchange::Swap { a, b: a ^ mask })
                    .collect(),
            });
            mask <<= 1;
        }
        if extra > 0 {
            rounds.push(Round {
                exchanges: (0..extra)
                    .map(|i| Exchange::Send {
                        src: i,
                        dst: p2 + i,
                    })
                    .collect(),
            });
        }
        let plan = CollectivePlan {
            size: p,
            root: 0,
            rounds,
        };
        plan.check();
        plan
    }

    /// Recursive-halving plan: fold-in round (positions beyond the
    /// largest power of two `p2` send down), then `log₂p2` rounds of
    /// pairwise [`Exchange::Swap`] with *descending* masks
    /// `p2/2, p2/4, …, 1`. This is the reduce-scatter shape: at swap
    /// round `s` each position trades with the peer `p2/2^{s+1}` away,
    /// so after all rounds position `i < p2` is paired ever more locally
    /// and can end up owning an ever-narrower slice of the index space
    /// (the Ok-Topk / SparDL split phase).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn halving_exchange(p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let p2 = crate::collectives::largest_power_of_two_leq(p);
        let extra = p - p2;
        let mut rounds = Vec::new();
        if extra > 0 {
            rounds.push(Round {
                exchanges: (0..extra)
                    .map(|i| Exchange::Send {
                        src: p2 + i,
                        dst: i,
                    })
                    .collect(),
            });
        }
        let mut mask = p2 >> 1;
        while mask > 0 {
            rounds.push(Round {
                exchanges: (0..p2)
                    .filter(|a| a & mask == 0)
                    .map(|a| Exchange::Swap { a, b: a ^ mask })
                    .collect(),
            });
            mask >>= 1;
        }
        let plan = CollectivePlan {
            size: p,
            root: 0,
            rounds,
        };
        plan.check();
        plan
    }

    /// Recursive-doubling all-gather plan: `log₂p2` rounds of pairwise
    /// [`Exchange::Swap`] with *ascending* masks `1, 2, …, p2/2`, then a
    /// fold-out round shipping the assembled result to the positions
    /// beyond the largest power of two. The mirror of
    /// [`CollectivePlan::halving_exchange`]: each swap round doubles the
    /// slice of the index space a position holds.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn doubling_exchange(p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let p2 = crate::collectives::largest_power_of_two_leq(p);
        let extra = p - p2;
        let mut rounds = Vec::new();
        let mut mask = 1usize;
        while mask < p2 {
            rounds.push(Round {
                exchanges: (0..p2)
                    .filter(|a| a & mask == 0)
                    .map(|a| Exchange::Swap { a, b: a ^ mask })
                    .collect(),
            });
            mask <<= 1;
        }
        if extra > 0 {
            rounds.push(Round {
                exchanges: (0..extra)
                    .map(|i| Exchange::Send {
                        src: i,
                        dst: p2 + i,
                    })
                    .collect(),
            });
        }
        let plan = CollectivePlan {
            size: p,
            root: 0,
            rounds,
        };
        plan.check();
        plan
    }

    /// Ring all-reduce plan: `p − 1` reduce-scatter rounds then `p − 1`
    /// all-gather rounds, every round `Send{r → r+1 mod p}` for every
    /// position `r` — the paper's DenseAllReduce (Eq. 5). Which chunk
    /// travels in which round is [`crate::collectives::ring_chunk`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn ring_allreduce(p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let round = Round {
            exchanges: (0..p)
                .map(|src| Exchange::Send {
                    src,
                    dst: (src + 1) % p,
                })
                .collect(),
        };
        let plan = CollectivePlan {
            size: p,
            root: 0,
            rounds: vec![round; 2 * (p - 1)],
        };
        plan.check();
        plan
    }

    /// Number of rounds (the plan's α depth along the busiest position).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of point-to-point messages the plan moves (a `Swap`
    /// counts as two).
    pub fn num_messages(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| r.exchanges.iter())
            .map(|e| match e {
                Exchange::Send { .. } => 1,
                Exchange::Swap { .. } => 2,
            })
            .sum()
    }

    /// Validates structural invariants: positions in range, and within a
    /// round every position sends at most once and receives at most once
    /// (a `Swap` counts as one of each for both peers).
    fn check(&self) {
        #[cfg(debug_assertions)]
        for round in &self.rounds {
            let mut sends = vec![false; self.size];
            let mut recvs = vec![false; self.size];
            let mut touch = |src: usize, dst: usize| {
                assert!(
                    src < self.size && dst < self.size,
                    "exchange {src}→{dst} out of range {}",
                    self.size
                );
                assert!(!sends[src], "position {src} sends twice in one round");
                assert!(!recvs[dst], "position {dst} receives twice in one round");
                sends[src] = true;
                recvs[dst] = true;
            };
            for ex in &round.exchanges {
                match *ex {
                    Exchange::Send { src, dst } => touch(src, dst),
                    Exchange::Swap { a, b } => {
                        touch(a, b);
                        touch(b, a);
                    }
                }
            }
        }
    }
}

/// The data movement a plan execution performs at each exchange the
/// caller takes part in. Implementations own the evolving local state
/// (accumulator, scratch buffers) and perform the actual
/// `send`/`recv`/`sendrecv` calls, so the executor stays payload-
/// agnostic while every byte still moves through the communicator.
pub trait PlanOps {
    /// This position sends to `peer` (a *rank*, already mapped) on `tag`.
    fn on_send(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()>;
    /// This position receives from `peer` on `tag` and combines.
    fn on_recv(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()>;
    /// This position swaps with `peer` on `tag` (only reached by plans
    /// containing [`Exchange::Swap`]).
    fn on_swap(&mut self, comm: &mut Communicator, peer: usize, tag: u32) -> Result<()> {
        let _ = (comm, peer, tag);
        unimplemented!("plan contains a Swap exchange but the operation does not support it")
    }
}

/// Executes `plan` from the perspective of `my_pos`: walks the rounds in
/// order, issuing this position's sends before its receives within each
/// round (so sibling exchanges overlap on the simulated clock), with
/// round `r` tagged `tag_base + r mod` [`PLAN_TAG_WINDOW`]. `rank_of`
/// maps plan positions to communicator ranks — the identity for
/// full-communicator collectives, a member table for shrunk memberships,
/// a rotation for rooted ones.
///
/// This is the single entry point all plan-driven collectives execute
/// through.
///
/// # Errors
///
/// Propagates transport errors from the underlying sends and receives.
pub fn execute_plan<F, O>(
    comm: &mut Communicator,
    plan: &CollectivePlan,
    my_pos: usize,
    tag_base: u32,
    rank_of: F,
    ops: &mut O,
) -> Result<()>
where
    F: Fn(usize) -> usize,
    O: PlanOps + ?Sized,
{
    debug_assert!(my_pos < plan.size, "position {my_pos} outside plan");
    for (r, round) in plan.rounds.iter().enumerate() {
        let tag = tag_base + (r % PLAN_TAG_WINDOW as usize) as u32;
        for ex in &round.exchanges {
            match *ex {
                Exchange::Send { src, dst } if src == my_pos => {
                    ops.on_send(comm, rank_of(dst), tag)?;
                }
                Exchange::Swap { a, b } if a == my_pos => {
                    ops.on_swap(comm, rank_of(b), tag)?;
                }
                Exchange::Swap { a, b } if b == my_pos => {
                    ops.on_swap(comm, rank_of(a), tag)?;
                }
                _ => {}
            }
        }
        for ex in &round.exchanges {
            if let Exchange::Send { src, dst } = *ex {
                if dst == my_pos {
                    ops.on_recv(comm, rank_of(src), tag)?;
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reaches_root(plan: &CollectivePlan) {
        // Every position's value must have a path to the root: simulate
        // set-union propagation over the rounds.
        let mut holds: Vec<std::collections::HashSet<usize>> =
            (0..plan.size).map(|i| [i].into_iter().collect()).collect();
        for round in &plan.rounds {
            for ex in &round.exchanges {
                if let Exchange::Send { src, dst } = *ex {
                    let from = holds[src].clone();
                    holds[dst].extend(from);
                }
            }
        }
        assert_eq!(
            holds[plan.root].len(),
            plan.size,
            "root must combine every position: {plan:?}"
        );
    }

    fn covers_all(plan: &CollectivePlan) {
        // Broadcast: every position must be reachable from the root.
        let mut has = vec![false; plan.size];
        has[plan.root] = true;
        for round in &plan.rounds {
            for ex in &round.exchanges {
                if let Exchange::Send { src, dst } = *ex {
                    assert!(has[src], "position {src} relays before receiving: {plan:?}");
                    has[dst] = true;
                }
            }
        }
        assert!(
            has.iter().all(|&h| h),
            "broadcast misses positions: {plan:?}"
        );
    }

    #[test]
    fn reduce_plans_combine_everything_for_all_topologies() {
        for p in 1..=17usize {
            let plan = CollectivePlan::reduce(Topology::Binomial, p);
            assert_eq!(plan.root, Topology::Binomial.reduce_root(p));
            reaches_root(&plan);
        }
    }

    #[test]
    fn broadcast_plans_cover_everything_for_all_topologies() {
        for p in 1..=17usize {
            for root in [0, p - 1, p / 2] {
                covers_all(&CollectivePlan::broadcast(Topology::Binomial, p, root));
            }
        }
    }

    #[test]
    fn exchange_plan_leaves_every_position_complete() {
        for p in 1..=17usize {
            let plan = CollectivePlan::exchange(p);
            let mut holds: Vec<std::collections::HashSet<usize>> =
                (0..p).map(|i| [i].into_iter().collect()).collect();
            for round in &plan.rounds {
                for ex in &round.exchanges {
                    match *ex {
                        Exchange::Send { src, dst } => {
                            let from = holds[src].clone();
                            holds[dst].extend(from);
                        }
                        Exchange::Swap { a, b } => {
                            let ha = holds[a].clone();
                            let hb = holds[b].clone();
                            holds[a].extend(hb);
                            holds[b].extend(ha);
                        }
                    }
                }
            }
            for (i, h) in holds.iter().enumerate() {
                assert_eq!(h.len(), p, "P={p}: position {i} incomplete");
            }
        }
    }

    #[test]
    fn halving_then_doubling_leaves_every_position_complete() {
        // Running the split schedule followed by the gather schedule must
        // give every position a path from every other position — the
        // set-union reachability the zoo collectives rely on.
        for p in 1..=17usize {
            let halve = CollectivePlan::halving_exchange(p);
            let double = CollectivePlan::doubling_exchange(p);
            let mut holds: Vec<std::collections::HashSet<usize>> =
                (0..p).map(|i| [i].into_iter().collect()).collect();
            for round in halve.rounds.iter().chain(double.rounds.iter()) {
                for ex in &round.exchanges {
                    match *ex {
                        Exchange::Send { src, dst } => {
                            let from = holds[src].clone();
                            holds[dst].extend(from);
                        }
                        Exchange::Swap { a, b } => {
                            let ha = holds[a].clone();
                            let hb = holds[b].clone();
                            holds[a].extend(hb);
                            holds[b].extend(ha);
                        }
                    }
                }
            }
            for (i, h) in holds.iter().enumerate() {
                assert_eq!(h.len(), p, "P={p}: position {i} incomplete");
            }
        }
    }

    #[test]
    fn halving_and_doubling_are_mask_mirrors() {
        // Same number of swap rounds, masks in opposite order, same fold
        // structure on the opposite side.
        for p in [2usize, 4, 6, 8, 12, 16] {
            let halve = CollectivePlan::halving_exchange(p);
            let double = CollectivePlan::doubling_exchange(p);
            assert_eq!(halve.num_rounds(), double.num_rounds(), "P={p}");
            let swaps = |plan: &CollectivePlan| -> Vec<Vec<Exchange>> {
                plan.rounds
                    .iter()
                    .filter(|r| matches!(r.exchanges[0], Exchange::Swap { .. }))
                    .map(|r| r.exchanges.clone())
                    .collect()
            };
            let mut h = swaps(&halve);
            h.reverse();
            assert_eq!(h, swaps(&double), "P={p}: swap rounds must mirror");
        }
    }

    #[test]
    fn binomial_round_counts_match_log2() {
        // Power-of-two reduce: exactly log2(p) rounds, no fold.
        for (p, lg) in [(2usize, 1usize), (4, 2), (8, 3), (16, 4)] {
            assert_eq!(
                CollectivePlan::reduce(Topology::Binomial, p).num_rounds(),
                lg
            );
            assert_eq!(
                CollectivePlan::broadcast(Topology::Binomial, p, 0).num_rounds(),
                lg
            );
        }
        // Non-power-of-two adds exactly the fold round.
        assert_eq!(
            CollectivePlan::reduce(Topology::Binomial, 5).num_rounds(),
            3
        );
        assert_eq!(
            CollectivePlan::reduce(Topology::Binomial, 12).num_rounds(),
            4
        );
    }

    #[test]
    fn ring_allreduce_plan_is_two_phases_of_full_rings() {
        for p in 1..=9usize {
            let plan = CollectivePlan::ring_allreduce(p);
            assert_eq!(plan.num_rounds(), 2 * (p - 1), "P={p}");
            assert_eq!(plan.num_messages(), 2 * (p - 1) * p, "P={p}");
            for round in &plan.rounds {
                for (src, ex) in round.exchanges.iter().enumerate() {
                    assert_eq!(
                        *ex,
                        Exchange::Send {
                            src,
                            dst: (src + 1) % p
                        }
                    );
                }
            }
        }
    }

    /// A one-round plan of `exchanges` over `size` positions.
    fn one_round(size: usize, exchanges: Vec<Exchange>) -> CollectivePlan {
        CollectivePlan {
            size,
            root: 0,
            rounds: vec![Round { exchanges }],
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "position 0 sends twice in one round")]
    fn a_position_may_not_send_twice_in_one_round() {
        // Distinct destinations: a fan-out is two rounds, not one.
        one_round(
            3,
            vec![
                Exchange::Send { src: 0, dst: 1 },
                Exchange::Send { src: 0, dst: 2 },
            ],
        )
        .check();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "position 0 receives twice in one round")]
    fn a_position_may_not_receive_twice_in_one_round() {
        // A swap's receive counts: a fan-in is two rounds, not one.
        one_round(
            3,
            vec![
                Exchange::Send { src: 2, dst: 0 },
                Exchange::Swap { a: 0, b: 1 },
            ],
        )
        .check();
    }

    #[test]
    fn single_position_plans_are_empty() {
        assert_eq!(
            CollectivePlan::reduce(Topology::Binomial, 1).num_rounds(),
            0
        );
        assert_eq!(
            CollectivePlan::broadcast(Topology::Binomial, 1, 0).num_rounds(),
            0
        );
        assert_eq!(CollectivePlan::exchange(1).num_rounds(), 0);
    }
}
