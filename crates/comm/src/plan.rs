//! Plan-driven collectives: explicit, inspectable schedules generated
//! from a topology and executed round-by-round against the simulated
//! α-β clock.
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

/// The schedule shape a plan is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// Binomial tree — the paper's Algorithm 3 shape: `⌈log₂P⌉` rounds,
    /// with a fold pre-round over the ranks beyond the largest power of
    /// two (Eq. 7 cost for power-of-two `P`).
    #[default]
    Binomial,
    /// Two-level hierarchy: `⌈√P⌉`-sized groups reduce internally, then
    /// the group leaders reduce — about `2(√P−1)` rounds, the shape of a
    /// rack/cluster network hierarchy.
    Hierarchical,
    /// Chain ring: `P−1` sequential rounds, one peer at a time — minimal
    /// per-round fan-out, maximal depth.
    Ring,
}

impl Topology {
    /// Every topology, for sweeps.
    pub const ALL: [Topology; 3] = [Topology::Binomial, Topology::Hierarchical, Topology::Ring];

    /// CLI / display name.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Binomial => "binomial",
            Topology::Hierarchical => "hierarchical",
            Topology::Ring => "ring",
        }
    }

    /// Parses a CLI topology name.
    pub fn parse(s: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.name() == s)
    }

    /// The position a `p`-position [`CollectivePlan::reduce`] plan roots
    /// its result at (without generating the plan).
    pub fn reduce_root(&self, p: usize) -> usize {
        match self {
            Topology::Ring => p.saturating_sub(1),
            _ => 0,
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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
/// Each ordered `(src, dst)` pair carries at most one message per round
/// (a [`Exchange::Swap`] is one message each way) — what matching by
/// `(source, tag)` needs — so a ring round, every position sending right
/// and receiving from the left, is one round, and so is a star's fan-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// The round's exchanges.
    pub exchanges: Vec<Exchange>,
}

/// An explicit collective schedule over positions `0..size`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectivePlan {
    /// Topology the plan was generated from.
    pub topology: Topology,
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
    /// Reduction plan over `p` positions: after execution, position
    /// [`CollectivePlan::root`] holds the combined result.
    ///
    /// * `Binomial` — fold round (positions `≥ 2^⌊log₂p⌋` send down),
    ///   then ascending-mask binomial combining into position 0;
    /// * `Hierarchical` — group members star into their group leader,
    ///   then leaders star into position 0;
    /// * `Ring` — ascending chain `0→1→…→p−1`, rooted at `p−1` (the
    ///   combine order of a left fold over positions).
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn reduce(topology: Topology, p: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        let mut rounds = Vec::new();
        let root = match topology {
            Topology::Binomial => {
                let p2 = crate::collectives::largest_power_of_two_leq(p);
                let extra = p - p2;
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
                0
            }
            Topology::Hierarchical => {
                let g = group_size(p);
                for t in 1..g {
                    let exchanges: Vec<Exchange> = (0..p)
                        .step_by(g)
                        .filter(|leader| leader + t < p && leader + t < leader + g)
                        .map(|leader| Exchange::Send {
                            src: leader + t,
                            dst: leader,
                        })
                        .collect();
                    if !exchanges.is_empty() {
                        rounds.push(Round { exchanges });
                    }
                }
                for leader in (0..p).step_by(g).skip(1) {
                    rounds.push(Round {
                        exchanges: vec![Exchange::Send {
                            src: leader,
                            dst: 0,
                        }],
                    });
                }
                0
            }
            Topology::Ring => {
                for i in 0..p.saturating_sub(1) {
                    rounds.push(Round {
                        exchanges: vec![Exchange::Send { src: i, dst: i + 1 }],
                    });
                }
                p - 1
            }
        };
        let plan = CollectivePlan {
            topology,
            size: p,
            root,
            rounds,
        };
        plan.check();
        plan
    }

    /// Broadcast plan from position `root` to all `p` positions — the
    /// mirror of [`CollectivePlan::reduce`] shapes, rotated so the plan
    /// works for any root:
    ///
    /// * `Binomial` — descending-mask binomial fan-out (handles any `p`,
    ///   no fold needed; identical round structure to the classic
    ///   relative-rank binomial broadcast);
    /// * `Hierarchical` — root to group leaders, then leaders fan out
    ///   within their groups;
    /// * `Ring` — chain from the root around the ring.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `root >= p`.
    pub fn broadcast(topology: Topology, p: usize, root: usize) -> Self {
        assert!(p > 0, "plan needs at least one position");
        assert!(root < p, "broadcast root {root} out of range for size {p}");
        let rot = |rel: usize| (rel + root) % p;
        let mut rounds = Vec::new();
        match topology {
            Topology::Binomial => {
                let mut top = 1usize;
                while top < p {
                    top <<= 1;
                }
                let mut mask = top >> 1;
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
            }
            Topology::Hierarchical => {
                let g = group_size(p);
                for leader in (0..p).step_by(g).skip(1) {
                    rounds.push(Round {
                        exchanges: vec![Exchange::Send {
                            src: rot(0),
                            dst: rot(leader),
                        }],
                    });
                }
                for t in 1..g {
                    let exchanges: Vec<Exchange> = (0..p)
                        .step_by(g)
                        .filter(|leader| leader + t < p && leader + t < leader + g)
                        .map(|leader| Exchange::Send {
                            src: rot(leader),
                            dst: rot(leader + t),
                        })
                        .collect();
                    if !exchanges.is_empty() {
                        rounds.push(Round { exchanges });
                    }
                }
            }
            Topology::Ring => {
                for i in 0..p.saturating_sub(1) {
                    rounds.push(Round {
                        exchanges: vec![Exchange::Send {
                            src: rot(i),
                            dst: rot(i + 1),
                        }],
                    });
                }
            }
        }
        let plan = CollectivePlan {
            topology,
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
            topology: Topology::Binomial,
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
            topology: Topology::Binomial,
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
            topology: Topology::Binomial,
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
            topology: Topology::Ring,
            size: p,
            root: 0,
            rounds: vec![round; 2 * (p - 1)],
        };
        plan.check();
        plan
    }

    /// Parameter-server push round over `p` positions whose first
    /// `shards` positions host one shard each: every position sends its
    /// slice of shard `s` to host `s` (its own slice stays local), walking
    /// positions in order and, within one, shards in order. A host thus
    /// receives in ascending source order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= p`.
    pub fn ps_push(p: usize, shards: usize) -> Self {
        let exchanges = (0..p)
            .flat_map(|src| {
                (0..shards)
                    .filter(move |&host| host != src)
                    .map(move |host| Exchange::Send { src, dst: host })
            })
            .collect();
        Self::star(p, shards, exchanges)
    }

    /// Parameter-server reply round, the mirror of
    /// [`CollectivePlan::ps_push`]: every host `s < shards` sends its
    /// shard's result to every other position, walking hosts in order. A
    /// position thus receives the shards in ascending order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= p`.
    pub fn ps_reply(p: usize, shards: usize) -> Self {
        let exchanges = (0..shards)
            .flat_map(|host| {
                (0..p)
                    .filter(move |&dst| dst != host)
                    .map(move |dst| Exchange::Send { src: host, dst })
            })
            .collect();
        Self::star(p, shards, exchanges)
    }

    /// The one-round plan of a parameter-server round between `p`
    /// positions and the `shards` hosts among them.
    fn star(p: usize, shards: usize, exchanges: Vec<Exchange>) -> Self {
        assert!(
            (1..=p).contains(&shards),
            "need 1 <= shards <= positions, got {shards} of {p}"
        );
        let plan = CollectivePlan {
            topology: Topology::default(),
            size: p,
            root: 0,
            rounds: vec![Round { exchanges }],
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
    /// round at most one message per ordered `(src, dst)` pair (a `Swap`
    /// is one message each way).
    fn check(&self) {
        #[cfg(debug_assertions)]
        for round in &self.rounds {
            let mut pairs = Vec::with_capacity(round.exchanges.len());
            for ex in &round.exchanges {
                match *ex {
                    Exchange::Send { src, dst } => pairs.push((src, dst)),
                    Exchange::Swap { a, b } => pairs.extend([(a, b), (b, a)]),
                }
            }
            for &(src, dst) in &pairs {
                assert!(
                    src < self.size && dst < self.size,
                    "exchange {src}→{dst} out of range {}",
                    self.size
                );
            }
            pairs.sort_unstable();
            if let Some(w) = pairs.windows(2).find(|w| w[0] == w[1]) {
                let (src, dst) = w[0];
                panic!("{src}→{dst} carries two messages in one round");
            }
        }
    }
}

/// Group width of the two-level hierarchy: `⌈√p⌉`.
fn group_size(p: usize) -> usize {
    let mut g = 1usize;
    while g * g < p {
        g += 1;
    }
    g.max(1)
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
            for topo in Topology::ALL {
                let plan = CollectivePlan::reduce(topo, p);
                assert_eq!(plan.root, topo.reduce_root(p));
                reaches_root(&plan);
            }
        }
    }

    #[test]
    fn broadcast_plans_cover_everything_for_all_topologies() {
        for p in 1..=17usize {
            for topo in Topology::ALL {
                for root in [0, p - 1, p / 2] {
                    covers_all(&CollectivePlan::broadcast(topo, p, root));
                }
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
    fn ring_plans_are_chains() {
        let plan = CollectivePlan::reduce(Topology::Ring, 5);
        assert_eq!(plan.num_rounds(), 4);
        assert_eq!(plan.root, 4);
        assert_eq!(plan.num_messages(), 4);
        let bc = CollectivePlan::broadcast(Topology::Ring, 5, 4);
        assert_eq!(
            bc.rounds[0].exchanges,
            vec![Exchange::Send { src: 4, dst: 0 }]
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

    #[test]
    fn topology_names_round_trip() {
        for t in Topology::ALL {
            assert_eq!(Topology::parse(t.name()), Some(t));
            assert_eq!(format!("{t}"), t.name());
        }
        assert_eq!(Topology::parse("torus"), None);
        assert_eq!(Topology::default(), Topology::Binomial);
    }

    #[test]
    fn ps_rounds_fan_in_to_each_host_and_back_out() {
        for p in 1..=9usize {
            for shards in 1..=p {
                let push = CollectivePlan::ps_push(p, shards);
                let reply = CollectivePlan::ps_reply(p, shards);
                assert_eq!(push.num_rounds(), 1);
                assert_eq!(push.num_messages(), shards * (p - 1), "P={p} S={shards}");
                assert_eq!(reply.num_messages(), shards * (p - 1), "P={p} S={shards}");
                // Each host hears from every other position in ascending
                // order; each position hears from every other host in
                // ascending order.
                for host in 0..shards {
                    let srcs: Vec<usize> = push.rounds[0]
                        .exchanges
                        .iter()
                        .filter_map(|ex| match *ex {
                            Exchange::Send { src, dst } if dst == host => Some(src),
                            _ => None,
                        })
                        .collect();
                    let want: Vec<usize> = (0..p).filter(|&src| src != host).collect();
                    assert_eq!(srcs, want, "P={p} S={shards} host {host}");
                }
                for pos in 0..p {
                    let hosts: Vec<usize> = reply.rounds[0]
                        .exchanges
                        .iter()
                        .filter_map(|ex| match *ex {
                            Exchange::Send { src, dst } if dst == pos => Some(src),
                            _ => None,
                        })
                        .collect();
                    let want: Vec<usize> = (0..shards).filter(|&h| h != pos).collect();
                    assert_eq!(hosts, want, "P={p} S={shards} position {pos}");
                }
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two messages in one round")]
    fn a_round_may_not_repeat_an_ordered_pair() {
        CollectivePlan {
            topology: Topology::Binomial,
            size: 3,
            root: 0,
            rounds: vec![Round {
                exchanges: vec![
                    Exchange::Send { src: 2, dst: 0 },
                    Exchange::Swap { a: 0, b: 2 },
                ],
            }],
        }
        .check();
    }

    #[test]
    fn single_position_plans_are_empty() {
        for topo in Topology::ALL {
            assert_eq!(CollectivePlan::reduce(topo, 1).num_rounds(), 0);
            assert_eq!(CollectivePlan::broadcast(topo, 1, 0).num_rounds(), 0);
        }
        assert_eq!(CollectivePlan::exchange(1).num_rounds(), 0);
    }
}
