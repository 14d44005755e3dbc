//! The per-rank communicator: tagged blocking point-to-point messaging over
//! a pluggable [`Transport`], with simulated-time accounting and (optional)
//! deterministic fault injection beneath the happy-path API.

use crate::fault::RetryPolicy;
use crate::pool::{BufferPool, PoolStats};
use crate::transport::Transport;
use crate::{CommError, CostModel, FaultPlan, Message, Payload, Result, SimClock};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-link cost override: maps `(src, dst)` to that link's cost model.
/// Used to model hierarchical networks (e.g. fast intra-rack links and a
/// slow inter-rack backbone).
pub type LinkCostFn = Arc<dyn Fn(usize, usize) -> CostModel + Send + Sync>;

/// Wait-slice length for wall-clock receives under a fault plan: between
/// slices the communicator scans the other inbound links so a REVOKE
/// (or a join request) queued there can interrupt/resolve promptly.
/// Bounds cross-rank failure-detection skew to roughly this value.
const REVOKE_SCAN_SLICE: Duration = Duration::from_millis(25);

/// Communication-volume counters for one rank.
///
/// Used by tests and benches to verify the paper's complexity claims — e.g.
/// that gTopKAllReduce moves `O(k log P)` elements per rank while the
/// AllGather-based TopKAllReduce moves `O(kP)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Messages sent by this rank (including dropped transmission
    /// attempts — they consumed wire time).
    pub msgs_sent: usize,
    /// Elements (4-byte words) sent by this rank.
    pub elems_sent: usize,
    /// Messages received by this rank.
    pub msgs_received: usize,
    /// Elements received by this rank.
    pub elems_received: usize,
    /// Retransmissions performed after fault-injected drops.
    pub retransmissions: usize,
    /// Operations that gave up with [`CommError::Timeout`].
    pub timeouts: usize,
    /// Buffer-pool requests served without allocating (see
    /// [`crate::BufferPool`]).
    pub pool_hits: u64,
    /// Buffer-pool requests that allocated. Steady-state training must
    /// keep this flat — the zero-allocation hot-path invariant.
    pub pool_misses: u64,
}

impl CommStats {
    /// Bytes sent (elements × 4).
    pub fn bytes_sent(&self) -> usize {
        self.elems_sent * 4
    }
}

/// Failure counters of one directed link, as seen by this rank.
///
/// Surfaced through `TrainReport` so a real-network run is diagnosable
/// from the report alone: which peer dropped traffic, which peer went
/// silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// The peer at the far end of the link.
    pub peer: usize,
    /// Retransmissions this rank performed toward `peer`.
    pub retransmissions: u64,
    /// Operations with `peer` that gave up with [`CommError::Timeout`].
    pub timeouts: u64,
}

/// Fault-injection context of one rank (present only when a plan is
/// active; `None` keeps every hot path bit-identical to the pre-fault
/// code).
struct FaultCtx {
    plan: Arc<FaultPlan>,
    retry: RetryPolicy,
    /// This rank's straggler slowdown factor (≥ 1).
    straggle: f64,
    /// Step at which this rank is scheduled to crash.
    crash_step: Option<u64>,
    /// Per-destination transmission-attempt counters (drop/jitter
    /// decisions are a pure function of `(seed, src, dst, counter)`).
    send_seq: Vec<u64>,
}

/// One rank's endpoint into the cluster.
///
/// Mirrors the MPI calls the paper's pseudo-code uses: `Send`, `Recv`,
/// (collectives are free functions in [`crate::collectives`]). All
/// operations are blocking and tagged; matching is by `(source, tag)` with
/// out-of-order messages from the same source buffered internally.
///
/// Delivery is delegated to a [`Transport`]: the in-process channel mesh
/// of the simulated [`Cluster`](crate::Cluster), or a supervised TCP
/// backend ([`crate::transport::TcpTransport`]) for real multi-process
/// runs. Everything above delivery — the simulated α-β clock, tag
/// matching, fault injection, REVOKE handling — lives here and is
/// identical on every backend.
///
/// With a [`FaultPlan`] installed (see
/// [`Cluster::with_fault_plan`](crate::Cluster::with_fault_plan) or
/// [`Communicator::arm_fault_plan`]) the same API additionally models
/// message drops with bounded exponential-backoff retransmission, delivery
/// jitter, per-rank crash schedules ([`Communicator::begin_step`]) and
/// straggler slowdowns; `recv` gains a simulated-clock timeout. Without a
/// plan, behaviour is bit-identical to the fault-free build.
pub struct Communicator {
    rank: usize,
    size: usize,
    transport: Box<dyn Transport>,
    /// Out-of-order stash, per source.
    pending: Vec<VecDeque<Message>>,
    clock: SimClock,
    cost: CostModel,
    link_costs: Option<LinkCostFn>,
    stats: CommStats,
    /// Per-destination retransmission counters (indexed by peer).
    link_retrans: Vec<u64>,
    /// Per-peer timeout counters (indexed by peer).
    link_timeouts: Vec<u64>,
    /// Simulated time at which this rank's inbound link finishes its
    /// last delivery — messages arriving together serialize (incast).
    rx_link_free_ms: f64,
    fault: Option<FaultCtx>,
    /// Membership epoch for fault-tolerant collectives: revoke messages
    /// stamped with an older epoch are stale and ignored.
    epoch: u64,
    /// Iteration counter driven by [`Communicator::begin_step`].
    step: u64,
    /// Set once this rank hit its crash step; all further operations
    /// fail with [`CommError::Aborted`].
    crashed: bool,
    /// Recycled sparse-gradient buffers for the zero-allocation hot path.
    pool: BufferPool,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("sim_time_ms", &self.clock.now_ms())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Communicator {
    /// Assembles a communicator endpoint over an arbitrary [`Transport`].
    ///
    /// The simulated [`Cluster`](crate::Cluster) uses this with
    /// [`SimTransport`](crate::transport::SimTransport) endpoints; real
    /// multi-process launches pair it with
    /// [`TcpTransport`](crate::transport::TcpTransport).
    pub fn from_transport(transport: Box<dyn Transport>, cost: CostModel) -> Self {
        let rank = transport.rank();
        let size = transport.size();
        Communicator {
            rank,
            size,
            transport,
            pending: (0..size).map(|_| VecDeque::new()).collect(),
            clock: SimClock::new(),
            cost,
            link_costs: None,
            stats: CommStats::default(),
            link_retrans: vec![0; size],
            link_timeouts: vec![0; size],
            rx_link_free_ms: 0.0,
            fault: None,
            epoch: 0,
            step: 0,
            crashed: false,
            pool: BufferPool::new(),
        }
    }

    /// Installs a per-link cost override (hierarchical topologies).
    pub(crate) fn set_link_costs(&mut self, links: LinkCostFn) {
        self.link_costs = Some(links);
    }

    /// Arms fault injection for this rank. Used by
    /// [`Cluster`](crate::Cluster).
    pub(crate) fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        if !plan.is_active() {
            return;
        }
        self.fault = Some(FaultCtx {
            retry: plan.retry(),
            straggle: plan.straggle_factor(self.rank),
            crash_step: plan.crash_step(self.rank),
            send_seq: vec![0; self.size],
            plan,
        });
    }

    /// Arms a deterministic [`FaultPlan`] on this rank (the per-endpoint
    /// equivalent of [`Cluster::with_fault_plan`](crate::Cluster::with_fault_plan),
    /// for endpoints constructed via [`Communicator::from_transport`]).
    /// An inactive plan ([`FaultPlan::none`]) changes nothing.
    pub fn arm_fault_plan(&mut self, plan: FaultPlan) {
        self.set_fault_plan(Arc::new(plan));
    }

    /// Cost model of the directed link `src → dst` (the uniform model
    /// unless a per-link override is installed).
    pub fn link_cost(&self, src: usize, dst: usize) -> CostModel {
        match &self.link_costs {
            Some(f) => f(src, dst),
            None => self.cost,
        }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The network cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Immutable view of this rank's simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.clock.now_ms()
    }

    /// This rank's straggler slowdown factor (1.0 unless a fault plan
    /// marks it a straggler).
    pub fn straggle_factor(&self) -> f64 {
        self.fault.as_ref().map_or(1.0, |f| f.straggle)
    }

    /// The simulated-clock timeout recovery protocols should grant an
    /// unresponsive peer (the fault plan's recv timeout, or its default
    /// when no plan is installed).
    pub fn recovery_timeout_ms(&self) -> f64 {
        self.fault.as_ref().map_or_else(
            || RetryPolicy::default().recv_timeout_ms,
            |f| f.retry.recv_timeout_ms,
        )
    }

    /// Current membership epoch (see [`Communicator::set_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the membership epoch. Fault-tolerant collectives bump
    /// this on every shrink-and-continue recovery; revoke messages
    /// stamped with an older epoch are then recognized as stale, and a
    /// real-network transport additionally rejects handshakes from peers
    /// still living in a revoked epoch.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` would move backwards.
    pub fn set_epoch(&mut self, epoch: u64) {
        assert!(
            epoch >= self.epoch,
            "membership epoch cannot move backwards"
        );
        self.epoch = epoch;
        self.transport.set_epoch(epoch);
    }

    /// Marks the start of one training step and enforces the fault
    /// plan's crash schedule.
    ///
    /// # Errors
    ///
    /// [`CommError::Aborted`] (with `rank == self.rank()`) when this rank
    /// reaches its scheduled crash step; the caller is expected to stop
    /// participating (returning from the cluster closure closes this
    /// rank's channels, which is how peers observe the crash).
    pub fn begin_step(&mut self) -> Result<()> {
        self.check_alive()?;
        if let Some(f) = &self.fault {
            if f.crash_step == Some(self.step) {
                self.crashed = true;
                return Err(CommError::aborted(self.rank));
            }
        }
        self.step += 1;
        Ok(())
    }

    /// The number of completed [`Communicator::begin_step`] calls.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Advances simulated time by `dt_ms` — models local computation (the
    /// paper's `t_f + t_b` forward/backward phases, or sparsification
    /// time). A straggler rank's compute is scaled by its slowdown
    /// factor.
    ///
    /// # Panics
    ///
    /// Panics if `dt_ms` is negative or not finite.
    pub fn advance_compute(&mut self, dt_ms: f64) {
        self.clock.advance(dt_ms * self.straggle_factor());
    }

    /// Advances simulated time to `t_ms` if it lies in the future (no-op
    /// otherwise). The overlap engine uses this to model waiting for a
    /// gradient bucket whose backward-ready timestamp was computed up
    /// front: communication for the bucket may not start before the
    /// compute stream has produced it.
    ///
    /// # Panics
    ///
    /// Panics if `t_ms` is not finite.
    pub fn wait_until(&mut self, t_ms: f64) {
        assert!(t_ms.is_finite(), "wait target must be finite");
        self.clock.sync_to(t_ms);
    }

    /// Communication-volume counters accumulated so far (including the
    /// buffer pool's hit/miss counters).
    pub fn stats(&self) -> CommStats {
        let mut s = self.stats;
        let pool = self.pool.stats();
        s.pool_hits = pool.hits;
        s.pool_misses = pool.misses;
        s
    }

    /// Per-link failure counters: one entry per peer that saw at least
    /// one retransmission or timeout from this rank (quiet links are
    /// omitted). Entries are in peer order.
    pub fn link_stats(&self) -> Vec<LinkStats> {
        (0..self.size)
            .filter(|&p| self.link_retrans[p] != 0 || self.link_timeouts[p] != 0)
            .map(|p| LinkStats {
                peer: p,
                retransmissions: self.link_retrans[p],
                timeouts: self.link_timeouts[p],
            })
            .collect()
    }

    /// This rank's recycled-buffer pool. Collectives and trainers draw
    /// message/workspace buffers from here and retire them after use so
    /// the steady-state hot path allocates nothing.
    pub fn pool(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    /// Buffer-pool counters (hits, misses, returns).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Resets counters and clock (between timed experiment repetitions).
    pub fn reset_accounting(&mut self) {
        self.stats = CommStats::default();
        self.link_retrans.iter_mut().for_each(|c| *c = 0);
        self.link_timeouts.iter_mut().for_each(|c| *c = 0);
        self.clock.reset();
        self.rx_link_free_ms = 0.0;
    }

    /// Drops stashed out-of-order messages for which `stale` returns
    /// true, after draining everything currently queued on the inbound
    /// links into the stash. Fault-tolerant recovery calls this to
    /// discard data from a revoked collective (identified by its
    /// epoch-stamped tags) so it can never alias a future receive.
    pub fn purge_pending<F: Fn(&Message) -> bool>(&mut self, stale: F) -> usize {
        for src in 0..self.size {
            if src == self.rank {
                continue;
            }
            let mut drained = Vec::new();
            while let Some(msg) = self.transport.try_recv(src) {
                drained.push(msg);
            }
            for mut msg in drained {
                self.serialize_inbound_at(src, &mut msg);
                self.pending[src].push_back(msg);
            }
        }
        let mut dropped = 0;
        for queue in &mut self.pending {
            let before = queue.len();
            queue.retain(|m| !stale(m));
            dropped += before - queue.len();
        }
        dropped
    }

    /// Non-blocking probe of the inbound link from `src`: moves every
    /// already-delivered message into the pending stash (dropping stale
    /// revokes) and reports whether the link is *closed* (peer dead).
    /// Recovery code uses this to distinguish a dead peer — instant
    /// `true` — from a live-but-silent one, without burning a timeout.
    pub fn probe_link(&mut self, src: usize) -> bool {
        if src == self.rank || src >= self.size {
            return false;
        }
        loop {
            match self.transport.recv(src, Some(Duration::ZERO)) {
                Ok(mut msg) => {
                    if msg.tag == Message::REVOKE_TAG {
                        if let Payload::Scalar(e) = msg.payload {
                            if (e as u64) < self.epoch {
                                continue; // stale revoke
                            }
                        }
                    }
                    self.serialize_inbound_at(src, &mut msg);
                    self.pending[src].push_back(msg);
                }
                Err(CommError::Disconnected { .. }) => return true,
                Err(_) => return false, // link open, nothing queued now
            }
        }
    }

    /// Drains every link other than `blocked` without waiting, stashing
    /// data messages and erroring on a REVOKE of the current (or a
    /// future) epoch. Called between wait slices of a wall-clock
    /// receive so a revoke can interrupt a receive that is blocked on a
    /// *different* link (see [`Transport::wall_clock`]).
    ///
    /// [`Transport::wall_clock`]: crate::transport::Transport::wall_clock
    fn scan_links_for_revoke(&mut self, blocked: usize, sim_start: f64) -> Result<()> {
        for src in 0..self.size {
            if src == self.rank || src == blocked {
                continue;
            }
            while let Some(mut msg) = self.transport.try_recv(src) {
                self.serialize_inbound_at(src, &mut msg);
                if msg.tag == Message::REVOKE_TAG {
                    let Payload::Scalar(revoked) = msg.payload else {
                        debug_assert!(false, "revoke payload must be a scalar");
                        continue;
                    };
                    if (revoked as u64) < self.epoch {
                        continue; // stale revoke from a recovered epoch
                    }
                    self.clock.sync_to(msg.arrival_ms);
                    return Err(CommError::Aborted {
                        rank: msg.src,
                        attempts: 1,
                        elapsed_ms: self.clock.now_ms() - sim_start,
                    });
                }
                self.pending[src].push_back(msg);
            }
        }
        Ok(())
    }

    /// Non-blocking claim of a stashed `tag` message from `src`. Does
    /// not drain the transport itself — pair it with
    /// [`Communicator::probe_link`], which does.
    pub fn poll_tagged_from(&mut self, src: usize, tag: u32) -> Option<Message> {
        if src == self.rank || src >= self.size {
            return None;
        }
        let pos = self.pending[src].iter().position(|m| m.tag == tag)?;
        let msg = self.pending[src].remove(pos).expect("position just found");
        self.deliver(&msg);
        Some(msg)
    }

    /// Non-blocking sweep for rejoin requests from `sources` (ranks
    /// currently outside the membership): drains their inbound links into
    /// the stash, removes every [`Message::JOIN_REQ_TAG`] message, and
    /// returns `(rank, newest durable checkpoint iteration)` per joiner.
    ///
    /// Members call this at step boundaries; a non-empty result triggers
    /// a membership-growth recovery round. Repeated requests from the
    /// same rank collapse to the newest reported checkpoint.
    pub fn poll_join_requests(&mut self, sources: &[usize]) -> Vec<(usize, u64)> {
        let mut joins = Vec::new();
        for &src in sources {
            if src == self.rank || src >= self.size {
                continue;
            }
            let mut drained = Vec::new();
            while let Some(msg) = self.transport.try_recv(src) {
                drained.push(msg);
            }
            for mut msg in drained {
                self.serialize_inbound_at(src, &mut msg);
                self.pending[src].push_back(msg);
            }
            let mut newest: Option<u64> = None;
            self.pending[src].retain(|m| {
                if m.tag == Message::JOIN_REQ_TAG {
                    if let Payload::Scalar(it) = m.payload {
                        let it = it as u64;
                        newest = Some(newest.map_or(it, |n| n.max(it)));
                    }
                    false
                } else {
                    true
                }
            });
            if let Some(it) = newest {
                joins.push((src, it));
            }
        }
        joins
    }

    /// Non-blocking sweep of *every* inbound link for the next message
    /// carrying `tag`, regardless of source. Revokes encountered while
    /// draining are discarded (the caller of this method is outside the
    /// membership — a joiner polling for its welcome — so it has no
    /// collective to abort). Returns `None` when no matching message is
    /// currently buffered anywhere.
    pub fn poll_tagged(&mut self, tag: u32) -> Option<Message> {
        for src in 0..self.size {
            if src == self.rank {
                continue;
            }
            let mut drained = Vec::new();
            while let Some(msg) = self.transport.try_recv(src) {
                drained.push(msg);
            }
            for mut msg in drained {
                if msg.tag == Message::REVOKE_TAG {
                    continue;
                }
                self.serialize_inbound_at(src, &mut msg);
                self.pending[src].push_back(msg);
            }
            if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
                let msg = self.pending[src].remove(pos).expect("position just found");
                self.deliver(&msg);
                return Some(msg);
            }
        }
        None
    }

    fn check_peer(&self, peer: usize) -> Result<()> {
        if peer >= self.size || peer == self.rank {
            return Err(CommError::InvalidRank {
                rank: peer,
                size: self.size,
            });
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed {
            return Err(CommError::aborted(self.rank));
        }
        Ok(())
    }

    /// Sends `payload` to `dest` with `tag`, charging `α + nβ` simulated
    /// milliseconds to this rank (scaled by the straggler factor when a
    /// fault plan marks this rank slow).
    ///
    /// Under an active [`FaultPlan`], each transmission attempt may be
    /// dropped; drops trigger bounded retransmission with exponential
    /// backoff, every attempt charged the full transfer cost and counted
    /// in [`CommStats`]. Drops are decided *above* the transport — a
    /// dropped attempt never reaches the wire — so fault injection is
    /// identical on the simulated and TCP backends.
    ///
    /// The transport buffers unboundedly, so the call never blocks on the
    /// peer draining; blocking flow control is modeled purely in simulated
    /// time, exactly like the paper's cost analysis assumes.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidRank`] if `dest` is out of range or `self`;
    /// [`CommError::Disconnected`] if the peer is gone;
    /// [`CommError::Timeout`] if every bounded retransmission was dropped
    /// (or a real network had no writable connection within its deadline);
    /// [`CommError::Aborted`] if this rank already crashed.
    pub fn send(&mut self, dest: usize, tag: u32, payload: Payload) -> Result<()> {
        self.check_alive()?;
        self.check_peer(dest)?;
        let n = payload.wire_elems();
        let base_cost = self.link_cost(self.rank, dest).transfer_ms(n);
        let Some(fault) = &mut self.fault else {
            // Fault-free fast path: identical to the pre-fault transport.
            self.clock.advance(base_cost);
            let msg = Message {
                src: self.rank,
                tag,
                payload,
                arrival_ms: self.clock.now_ms(),
            };
            self.stats.msgs_sent += 1;
            self.stats.elems_sent += n;
            return self.transport.send(dest, msg);
        };
        let cost = base_cost * fault.straggle;
        let retry = fault.retry;
        let t_start = self.clock.now_ms();
        // Revokes and join-protocol messages are control-plane traffic:
        // exempt from drop injection, like a connection reset — otherwise
        // a dropped revoke could stall the very recovery that handles
        // drops, and a dropped join request could strand a rejoiner.
        let reliable = tag == Message::REVOKE_TAG
            || tag == Message::JOIN_REQ_TAG
            || tag == Message::JOIN_WELCOME_TAG;
        let mut attempt = 0u32;
        loop {
            let seq = fault.send_seq[dest];
            fault.send_seq[dest] += 1;
            self.clock.advance(cost);
            self.stats.msgs_sent += 1;
            self.stats.elems_sent += n;
            let plan = &fault.plan;
            if !reliable && plan.drops(self.rank, dest, seq) {
                if attempt == retry.max_retries {
                    self.stats.timeouts += 1;
                    self.link_timeouts[dest] += 1;
                    return Err(CommError::Timeout {
                        peer: dest,
                        attempts: attempt + 1,
                        elapsed_ms: self.clock.now_ms() - t_start,
                    });
                }
                // Exponential backoff before the retransmission.
                self.clock
                    .advance(retry.backoff_base_ms * f64::from(1u32 << attempt.min(20)));
                self.stats.retransmissions += 1;
                self.link_retrans[dest] += 1;
                attempt += 1;
                continue;
            }
            let jitter = if reliable {
                0.0
            } else {
                plan.jitter(self.rank, dest, seq)
            };
            let msg = Message {
                src: self.rank,
                tag,
                payload,
                arrival_ms: self.clock.now_ms() + jitter,
            };
            return self.transport.send(dest, msg);
        }
    }

    /// Best-effort revocation of the in-flight collective of membership
    /// epoch `epoch`: tells `dest` to abandon it and enter recovery.
    /// Errors are intentionally swallowed — the peer may already be dead,
    /// which is fine.
    pub fn revoke(&mut self, dest: usize, epoch: u64) {
        if dest == self.rank || dest >= self.size {
            return;
        }
        let _ = self.send(dest, Message::REVOKE_TAG, Payload::Scalar(epoch as f64));
    }

    /// Receives the next message from `source` carrying `tag`, blocking
    /// until it arrives. The simulated clock advances to the message's
    /// delivery time if later than local time.
    ///
    /// Delivery models a full-duplex link with a serialized inbound
    /// direction: a message of `n` elements cannot complete before the
    /// previous inbound delivery plus its own `α + nβ` transfer time, so
    /// incast patterns (several peers sending to one rank
    /// "simultaneously") pay their true serialized cost, while
    /// symmetric exchanges (ring steps, recursive-doubling rounds) are
    /// unaffected.
    ///
    /// Under an active [`FaultPlan`] the receive is bounded by the plan's
    /// simulated-clock timeout (see [`RetryPolicy::recv_timeout_ms`]) and
    /// aborts when a peer revokes the current membership epoch. A
    /// real-network transport additionally applies its own per-link
    /// receive deadline, so organic peer death surfaces even with no
    /// fault plan armed.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidRank`] for a bad `source`;
    /// [`CommError::Disconnected`] if the peer exited before sending;
    /// [`CommError::Timeout`] if the deadline expired;
    /// [`CommError::Aborted`] on a revoke or if this rank crashed.
    pub fn recv(&mut self, source: usize, tag: u32) -> Result<Message> {
        let deadline = self
            .fault
            .as_ref()
            .map(|f| self.clock.now_ms() + f.retry.recv_timeout_ms);
        self.recv_inner(source, tag, deadline)
    }

    /// Like [`Communicator::recv`] but with an explicit simulated-clock
    /// timeout: gives up (advancing the clock to the deadline) if no
    /// matching message is *delivered* by `now + timeout_ms` in simulated
    /// time. Timeout decisions depend only on simulated arrival times, so
    /// they replay deterministically.
    ///
    /// # Errors
    ///
    /// As for [`Communicator::recv`], plus [`CommError::Timeout`] when
    /// the deadline expires.
    pub fn recv_deadline(&mut self, source: usize, tag: u32, timeout_ms: f64) -> Result<Message> {
        assert!(
            timeout_ms.is_finite() && timeout_ms >= 0.0,
            "timeout must be non-negative"
        );
        self.recv_inner(source, tag, Some(self.clock.now_ms() + timeout_ms))
    }

    fn recv_inner(&mut self, source: usize, tag: u32, deadline_ms: Option<f64>) -> Result<Message> {
        self.check_alive()?;
        self.check_peer(source)?;
        let sim_start = self.clock.now_ms();
        // Check the stash first.
        if let Some(pos) = self.pending[source].iter().position(|m| m.tag == tag) {
            let msg = self.pending[source]
                .remove(pos)
                .expect("position just found");
            if let Some(deadline) = deadline_ms {
                if msg.arrival_ms > deadline {
                    // Delivered too late: the receiver already gave up at
                    // the (simulated) deadline. Keep the message for a
                    // retry after recovery.
                    self.pending[source].push_front(msg);
                    return Err(self.recv_timeout_err(source, deadline, sim_start, 1, 0.0));
                }
            }
            self.deliver(&msg);
            return Ok(msg);
        }
        // Wall-clock safety net: never hang the host process even if the
        // protocol deadlocks — surface a Timeout instead. Without a fault
        // plan the sim backend blocks indefinitely (waiting is modeled in
        // simulated time only), while a real-network backend applies its
        // own per-link deadline.
        let wall_cap_ms = self.fault.as_ref().map(|f| f.retry.wall_cap_ms);
        let wall_start = Instant::now();
        // On a wall-clock transport a blocked receive must stay
        // responsive to REVOKEs arriving on *other* links: the revoke
        // broadcast is what bounds failure-detection skew across ranks
        // ("no rank stays blocked on a rank that entered recovery"),
        // and it cannot do that while it sits unread in another link's
        // queue — left unsliced, each receive in a blocked dependency
        // chain adds a full wall cap of skew. Simulated waits cost no
        // wall time, so they keep the single blocking receive.
        let scan = self.transport.wall_clock() && self.fault.is_some();
        loop {
            let cap = wall_cap_ms
                .map(|ms| Duration::from_millis(ms).saturating_sub(wall_start.elapsed()));
            let slice = if scan {
                Some(cap.map_or(REVOKE_SCAN_SLICE, |c| c.min(REVOKE_SCAN_SLICE)))
            } else {
                cap
            };
            let mut msg = match self.transport.recv(source, slice) {
                Ok(m) => m,
                Err(CommError::Timeout {
                    attempts,
                    elapsed_ms,
                    ..
                }) => {
                    if scan {
                        self.scan_links_for_revoke(source, sim_start)?;
                        if wall_cap_ms
                            .is_none_or(|ms| wall_start.elapsed() < Duration::from_millis(ms))
                        {
                            continue; // only the scan slice expired
                        }
                    }
                    return Err(self.recv_timeout_err(
                        source,
                        deadline_ms.unwrap_or(sim_start),
                        sim_start,
                        attempts,
                        if scan {
                            wall_start.elapsed().as_secs_f64() * 1e3
                        } else {
                            elapsed_ms
                        },
                    ));
                }
                Err(e) => return Err(e),
            };
            self.serialize_inbound(&mut msg);
            if msg.tag == Message::REVOKE_TAG {
                let Payload::Scalar(revoked) = msg.payload else {
                    debug_assert!(false, "revoke payload must be a scalar");
                    continue;
                };
                let revoked_epoch = revoked as u64;
                if revoked_epoch < self.epoch {
                    continue; // stale revoke from an already-recovered epoch
                }
                self.clock.sync_to(msg.arrival_ms);
                return Err(CommError::Aborted {
                    rank: msg.src,
                    attempts: 1,
                    elapsed_ms: self.clock.now_ms() - sim_start,
                });
            }
            if msg.tag == tag {
                if let Some(deadline) = deadline_ms {
                    if msg.arrival_ms > deadline {
                        self.pending[source].push_back(msg);
                        return Err(self.recv_timeout_err(source, deadline, sim_start, 1, 0.0));
                    }
                }
                self.deliver(&msg);
                return Ok(msg);
            }
            self.pending[source].push_back(msg);
        }
    }

    /// Accounts a receive timeout: advances the simulated clock to the
    /// deadline, bumps the global and per-link counters, and builds the
    /// enriched error. `wall_elapsed_ms` is used when the deadline carries
    /// no simulated-time information (real-network deadline expiry).
    fn recv_timeout_err(
        &mut self,
        source: usize,
        deadline: f64,
        sim_start: f64,
        attempts: u32,
        wall_elapsed_ms: f64,
    ) -> CommError {
        self.clock.sync_to(deadline);
        self.stats.timeouts += 1;
        self.link_timeouts[source] += 1;
        let sim_elapsed = deadline - sim_start;
        CommError::Timeout {
            peer: source,
            attempts,
            elapsed_ms: if sim_elapsed > 0.0 {
                sim_elapsed
            } else {
                wall_elapsed_ms
            },
        }
    }

    /// Applies inbound-link serialization, rewriting the message's
    /// effective delivery time.
    fn serialize_inbound(&mut self, msg: &mut Message) {
        let src = msg.src;
        self.serialize_inbound_at(src, msg);
    }

    fn serialize_inbound_at(&mut self, src: usize, msg: &mut Message) {
        // Recovery control-plane traffic (REVOKE, join frames, the
        // ALIVE/MEMBERSHIP agreement band) must cost nothing
        // *consistently*: different receive paths drain it at
        // wall-clock-dependent moments (inline receive, recovery
        // probes, the purge sweep), so charging it would make
        // simulated time depend on host scheduling. See
        // [`Message::is_control`].
        if Message::is_control(msg.tag) {
            return;
        }
        let cost = self
            .link_cost(src, self.rank)
            .transfer_ms(msg.payload.wire_elems());
        let delivery = msg.arrival_ms.max(self.rx_link_free_ms + cost);
        self.rx_link_free_ms = delivery;
        msg.arrival_ms = delivery;
    }

    fn deliver(&mut self, msg: &Message) {
        self.clock.sync_to(msg.arrival_ms);
        self.stats.msgs_received += 1;
        self.stats.elems_received += msg.payload.wire_elems();
    }

    /// Combined exchange with a partner: send `payload` to `peer` and
    /// receive the message `peer` sent us with the same tag.
    ///
    /// # Errors
    ///
    /// As for [`Communicator::send`] / [`Communicator::recv`].
    pub fn sendrecv(&mut self, peer: usize, tag: u32, payload: Payload) -> Result<Message> {
        self.send(peer, tag, payload)?;
        self.recv(peer, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;

    #[test]
    fn ping_pong_and_clock_sync() {
        let cluster = Cluster::new(2, CostModel::new(1.0, 0.1));
        let times = cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, Payload::dense(vec![1.0; 10])).unwrap();
                let m = comm.recv(1, 8).unwrap();
                assert_eq!(m.payload, Payload::dense(vec![2.0; 10]));
            } else {
                let m = comm.recv(0, 7).unwrap();
                assert_eq!(m.src, 0);
                let mut v = m.payload.into_dense();
                v.iter_mut().for_each(|x| *x *= 2.0);
                comm.send(0, 8, Payload::dense(v)).unwrap();
            }
            comm.now_ms()
        });
        // Each direction costs 1 + 10*0.1 = 2 ms.
        // Rank1 receives at 2, sends until 4; rank0 receives at 4.
        assert_eq!(times[0], 4.0);
        assert_eq!(times[1], 4.0);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let cluster = Cluster::new(2, CostModel::zero());
        cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, Payload::Scalar(1.0)).unwrap();
                comm.send(1, 2, Payload::Scalar(2.0)).unwrap();
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2).unwrap();
                let a = comm.recv(0, 1).unwrap();
                assert_eq!(b.payload.into_scalar(), 2.0);
                assert_eq!(a.payload.into_scalar(), 1.0);
            }
        });
    }

    #[test]
    fn invalid_peer_is_error() {
        let cluster = Cluster::new(2, CostModel::zero());
        cluster.run(|comm| {
            assert!(matches!(
                comm.send(5, 0, Payload::Control),
                Err(CommError::InvalidRank { rank: 5, size: 2 })
            ));
            // Sending to self is also rejected.
            let me = comm.rank();
            assert!(comm.send(me, 0, Payload::Control).is_err());
        });
    }

    #[test]
    fn stats_count_messages_and_elems() {
        let cluster = Cluster::new(2, CostModel::zero());
        let stats = cluster.run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::dense(vec![0.0; 5])).unwrap();
            } else {
                comm.recv(0, 0).unwrap();
            }
            comm.stats()
        });
        assert_eq!(stats[0].msgs_sent, 1);
        assert_eq!(stats[0].elems_sent, 5);
        assert_eq!(stats[0].bytes_sent(), 20);
        assert_eq!(stats[0].retransmissions, 0);
        assert_eq!(stats[1].msgs_received, 1);
        assert_eq!(stats[1].elems_received, 5);
    }

    #[test]
    fn compute_advance_accumulates() {
        let cluster = Cluster::new(2, CostModel::zero());
        let t = cluster.run(|comm| {
            comm.advance_compute(3.5);
            comm.advance_compute(1.5);
            comm.now_ms()
        });
        assert_eq!(t, vec![5.0, 5.0]);
    }

    #[test]
    fn inactive_plan_changes_nothing() {
        // FaultPlan::none() must leave timing and stats bit-identical.
        let run = |plan: Option<FaultPlan>| {
            let mut cluster = Cluster::new(2, CostModel::new(1.0, 0.1));
            if let Some(p) = plan {
                cluster = cluster.with_fault_plan(p);
            }
            cluster.run_timed(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, Payload::dense(vec![1.0; 10])).unwrap();
                } else {
                    comm.recv(0, 7).unwrap();
                }
            })
        };
        let bare = run(None);
        let none = run(Some(FaultPlan::none()));
        for ((_, t_a, s_a), (_, t_b, s_b)) in bare.iter().zip(&none) {
            assert_eq!(t_a, t_b);
            assert_eq!(s_a, s_b);
        }
    }

    #[test]
    fn drops_trigger_retransmission_and_charge_time() {
        // With a 40% drop rate, some messages need retries; the retried
        // run must be slower and record retransmissions, while still
        // delivering every payload intact.
        let rounds = 50usize;
        let run = |seed: Option<u64>| {
            let mut cluster = Cluster::new(2, CostModel::new(1.0, 0.0));
            if let Some(s) = seed {
                let retry = RetryPolicy {
                    max_retries: 12, // 0.4^13 ≈ 7e-6: no message is ever lost
                    ..RetryPolicy::default()
                };
                cluster = cluster
                    .with_fault_plan(FaultPlan::seeded(s).with_drop_prob(0.4).with_retry(retry));
            }
            cluster.run_timed(move |comm| {
                for i in 0..rounds {
                    if comm.rank() == 0 {
                        comm.send(1, i as u32, Payload::Scalar(i as f64)).unwrap();
                    } else {
                        let m = comm.recv(0, i as u32).unwrap();
                        assert_eq!(m.payload.into_scalar(), i as f64);
                    }
                }
            })
        };
        let clean = run(None);
        let faulty = run(Some(9));
        assert!(
            faulty[0].2.retransmissions > 0,
            "40% drops over {rounds} messages must retransmit: {:?}",
            faulty[0].2
        );
        assert!(
            faulty[0].1 > clean[0].1,
            "retransmissions must cost simulated time"
        );
        assert_eq!(faulty[0].2.timeouts, 0, "bounded retries must succeed");
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = || {
            Cluster::new(2, CostModel::new(1.0, 0.01))
                .with_fault_plan(
                    FaultPlan::seeded(1234)
                        .with_drop_prob(0.3)
                        .with_jitter_ms(0.25),
                )
                .run_timed(|comm| {
                    for i in 0..40u32 {
                        if comm.rank() == 0 {
                            comm.send(1, i, Payload::dense(vec![0.0; 16])).unwrap();
                        } else {
                            comm.recv(0, i).unwrap();
                        }
                    }
                })
        };
        let a = run();
        let b = run();
        for ((_, t_a, s_a), (_, t_b, s_b)) in a.iter().zip(&b) {
            assert_eq!(t_a, t_b, "sim time must replay bit-identically");
            assert_eq!(s_a, s_b, "stats must replay bit-identically");
        }
        assert!(a[0].2.retransmissions > 0);
    }

    #[test]
    fn all_drops_exhaust_retries_into_timeout() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(
                FaultPlan::seeded(1).with_drop_prob(0.999), // ≈ every attempt drops
            )
            .run(|comm| {
                if comm.rank() == 0 {
                    let err = comm.send(1, 0, Payload::Scalar(1.0)).err();
                    (err, comm.stats().timeouts, comm.link_stats())
                } else {
                    // The peer must not hang waiting for the lost message:
                    // the sender gives up and exits, which the receiver
                    // observes as a closed channel.
                    (comm.recv_deadline(0, 0, 10.0).err(), 0, comm.link_stats())
                }
            });
        match out[0].0 {
            Some(CommError::Timeout {
                peer,
                attempts,
                elapsed_ms,
            }) => {
                assert_eq!(peer, 1);
                assert_eq!(
                    attempts,
                    RetryPolicy::default().max_retries + 1,
                    "every bounded attempt must be counted"
                );
                assert!(elapsed_ms > 0.0, "backoff must cost simulated time");
            }
            ref other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(out[0].1, 1, "exhausted sends count as timeouts");
        // Per-link counters pinpoint the failing peer.
        assert_eq!(
            out[0].2,
            vec![LinkStats {
                peer: 1,
                retransmissions: u64::from(RetryPolicy::default().max_retries),
                timeouts: 1,
            }]
        );
        assert!(matches!(
            out[1].0,
            Some(CommError::Disconnected { peer: 0 })
        ));
    }

    #[test]
    fn recv_deadline_times_out_on_late_delivery_deterministically() {
        // The sender's message arrives (simulated) at t=5; a receiver
        // deadline of 2 ms must fail, one of 10 ms must succeed —
        // regardless of wall-clock interleaving.
        let out = Cluster::new(2, CostModel::new(5.0, 0.0))
            .with_fault_plan(FaultPlan::seeded(0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, Payload::Scalar(7.0)).unwrap();
                    None
                } else {
                    let early = comm.recv_deadline(0, 3, 2.0);
                    let t_after_timeout = comm.now_ms();
                    let late = comm.recv_deadline(0, 3, 10.0);
                    Some((early, t_after_timeout, late.is_ok()))
                }
            });
        let (early, t, late_ok) = out[1].clone().unwrap();
        match early {
            Err(CommError::Timeout {
                peer, elapsed_ms, ..
            }) => {
                assert_eq!(peer, 0);
                assert_eq!(elapsed_ms, 2.0, "elapsed must be the simulated wait");
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(t, 2.0, "timeout must advance the clock to the deadline");
        assert!(late_ok, "retry after the deadline still finds the message");
    }

    #[test]
    fn straggler_scales_compute_and_transfer() {
        let plan = FaultPlan::seeded(0).with_straggler(0, 3.0);
        let times = Cluster::new(2, CostModel::new(1.0, 0.0))
            .with_fault_plan(plan)
            .run(|comm| {
                comm.advance_compute(2.0);
                if comm.rank() == 0 {
                    comm.send(1, 0, Payload::Control).unwrap();
                } else {
                    comm.recv(0, 0).unwrap();
                }
                comm.now_ms()
            });
        // Rank 0 (straggler ×3): compute 6 + send 3 = 9. Rank 1 syncs to
        // the arrival at 9 (its own compute finished at 2).
        assert_eq!(times[0], 9.0);
        assert_eq!(times[1], 9.0);
    }

    #[test]
    fn crash_step_fires_exactly_on_schedule() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(0).with_crash(1, 2))
            .run(|comm| {
                let mut completed = 0u64;
                for _ in 0..5 {
                    match comm.begin_step() {
                        Ok(()) => completed += 1,
                        Err(CommError::Aborted { rank, .. }) => {
                            assert_eq!(rank, comm.rank());
                            break;
                        }
                        Err(e) => panic!("unexpected {e}"),
                    }
                }
                completed
            });
        assert_eq!(out[0], 5, "rank 0 never crashes");
        assert_eq!(out[1], 2, "rank 1 completes exactly 2 steps");
    }

    #[test]
    fn revoke_aborts_a_blocked_receiver() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.revoke(1, 0);
                    None
                } else {
                    Some(comm.recv(0, 42))
                }
            });
        assert!(
            matches!(out[1], Some(Err(CommError::Aborted { rank: 0, .. }))),
            "a revoke must unblock a receiver waiting on an unrelated tag: {:?}",
            out[1]
        );
    }

    #[test]
    fn stale_revokes_are_ignored_after_epoch_bump() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.revoke(1, 0); // stale by the time rank 1 looks
                    comm.send(1, 5, Payload::Scalar(1.0)).unwrap();
                    None
                } else {
                    comm.set_epoch(1);
                    Some(comm.recv(0, 5).map(|m| m.payload.into_scalar()))
                }
            });
        assert_eq!(out[1], Some(Ok(1.0)));
    }

    #[test]
    fn purge_pending_discards_stale_epoch_traffic() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(0))
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 100, Payload::Scalar(0.0)).unwrap(); // stale
                    comm.send(1, 200, Payload::Scalar(2.0)).unwrap(); // current
                    None
                } else {
                    // Receiving tag 200 stashes the stale tag-100 message.
                    let m = comm.recv(0, 200).unwrap();
                    let dropped = comm.purge_pending(|msg| msg.tag < 200);
                    Some((m.payload.into_scalar(), dropped))
                }
            });
        assert_eq!(out[1], Some((2.0, 1)));
    }

    #[test]
    fn operations_after_crash_are_aborted() {
        let out = Cluster::new(2, CostModel::zero())
            .with_fault_plan(FaultPlan::seeded(0).with_crash(0, 0))
            .run(|comm| {
                if comm.rank() == 0 {
                    let crash = comm.begin_step().expect_err("scheduled crash");
                    let send = comm.send(1, 0, Payload::Control).expect_err("dead");
                    Some((crash, send))
                } else {
                    None
                }
            });
        let (crash, send) = out[0].clone().unwrap();
        assert!(matches!(crash, CommError::Aborted { rank: 0, .. }));
        assert!(matches!(send, CommError::Aborted { rank: 0, .. }));
    }

    #[test]
    fn quiet_links_are_omitted_from_link_stats() {
        let out = Cluster::new(3, CostModel::zero()).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, Payload::Control).unwrap();
                comm.send(2, 0, Payload::Control).unwrap();
            } else {
                comm.recv(0, 0).unwrap();
            }
            comm.link_stats()
        });
        for stats in out {
            assert!(stats.is_empty(), "fault-free links must report nothing");
        }
    }
}
