//! Simulated MPI substrate for the gTop-k S-SGD reproduction.
//!
//! The paper evaluates on a 32-node GPU cluster connected by 1 Gbps
//! Ethernet. We do not have that hardware, so this crate provides the
//! closest synthetic equivalent that exercises the same code paths:
//!
//! * a [`Cluster`] of `P` OS threads, one per worker ("rank"), wired with a
//!   full mesh of lock-free channels;
//! * a blocking, tagged, point-to-point [`Communicator`] API
//!   (`send`/`recv`/`sendrecv`) modeled on MPI;
//! * classic collective algorithms built *only* from those point-to-point
//!   primitives: binomial-tree broadcast, ring and recursive-doubling
//!   AllReduce, and barrier (module [`collectives`]), all but the barrier
//!   executed as round schedules of the [`plan`] IR;
//! * a per-rank [`SimClock`] driven by an α-β [`CostModel`]: every message
//!   of `n` elements charges `α + nβ` to the sender and delivers at
//!   `sender_send_time + α + nβ`, the receiver's clock advancing to
//!   `max(own, arrival)`. This is the exact cost model the paper uses for
//!   all of its analysis (Table I, Eqs. 5–7), with default constants taken
//!   from the paper's measured fit (α = 0.436 ms, β = 3.6×10⁻⁵ ms per
//!   4-byte element, Fig. 8);
//! * a seeded, deterministic fault-injection layer ([`FaultPlan`], module
//!   [`fault`]) beneath the same API: per-link drops with bounded
//!   retransmission and exponential backoff, delivery jitter, per-rank
//!   crash schedules and straggler slowdowns — all replayable
//!   bit-identically from the seed.
//!
//! Because the collectives move real data and only the *timekeeping* is
//! simulated, algorithmic correctness and communication-volume accounting
//! are observable (see [`CommStats`]), while timing experiments are
//! deterministic and hardware-independent.
//!
//! # Examples
//!
//! ```
//! use gtopk_comm::{Cluster, CostModel, collectives};
//!
//! let cluster = Cluster::new(4, CostModel::gigabit_ethernet());
//! let sums = cluster.run(|comm| {
//!     let mut x = vec![comm.rank() as f32; 8];
//!     collectives::allreduce_ring(comm, &mut x).unwrap();
//!     x[0]
//! });
//! // 0 + 1 + 2 + 3 = 6 on every rank.
//! assert!(sums.iter().all(|&s| s == 6.0));
//! ```

#![warn(missing_docs)]

mod cluster;
pub mod collectives;
mod comm;
mod cost;
mod error;
pub mod fault;
mod message;
pub mod plan;
mod pool;
pub mod transport;

pub use cluster::Cluster;
pub use comm::{CommStats, Communicator, LinkCostFn, LinkStats};
pub use cost::{CostModel, SimClock};
pub use error::CommError;
pub use fault::{FaultPlan, RetryPolicy};
pub use message::{Message, Payload};
pub use plan::{execute_plan, CollectivePlan, Exchange, PlanOps, Round, Topology, PLAN_TAG_WINDOW};
pub use pool::{BufferPool, PoolStats};

/// Convenient `Result` alias for communication operations.
pub type Result<T> = std::result::Result<T, CommError>;
