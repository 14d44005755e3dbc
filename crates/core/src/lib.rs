//! # gtopk — global Top-k sparsification for distributed synchronous SGD
//!
//! This crate is the core contribution of the reproduced paper,
//! *"A Distributed Synchronous SGD Algorithm with Global Top-k
//! Sparsification for Low Bandwidth Networks"* (Shi et al., ICDCS 2019):
//!
//! * [`gtopk_all_reduce`] — **Algorithm 3**: a binomial-tree reduction of
//!   k-sparse gradients under the top-k merge operator `⊤` (Definition 1),
//!   followed by a tree broadcast of the global result, at `O(k log P)`
//!   communication cost;
//! * [`naive_gtopk_all_reduce`] — **Algorithm 2**: the AllGather-style
//!   reference that selects the true top-k of the exact sparse sum (used
//!   to illustrate the idea in the paper, and here to cross-validate the
//!   tree version);
//! * [`Aggregator`] — the one sparse step (select, reduce, put the
//!   rejects back, average) that executes any [`Algorithm`]: each
//!   algorithm is a row of the capability table — a [`Collective`] (ring
//!   AllReduce, exact sparse sum `O(kP)`, the gTop-k tree, the Ok-Topk /
//!   SparDL schedules) times a [`Rejects`] policy (e.g. the feedback
//!   extension, which recycles tree-merge rejections into the merging
//!   rank's residual so no gradient mass is ever dropped — see
//!   `DESIGN.md` §5) — and [`TrainConfig::validate`] reads the same
//!   table to decide where each row may run;
//! * [`DensitySchedule`] / [`LrSchedule`] — the warmup schedules of
//!   §IV-B ([0.25, 0.0725, 0.015, 0.004] densities in the first epochs);
//! * [`train_distributed`] — the full gTop-k S-SGD training loop
//!   (**Algorithm 4**) and its Dense/Top-k baselines over the simulated
//!   cluster, with per-phase time breakdown (compute / compression /
//!   communication, Fig. 11).
//!
//! # Examples
//!
//! Aggregate sparse gradients across 4 simulated workers:
//!
//! ```
//! use gtopk::gtopk_all_reduce;
//! use gtopk_comm::{Cluster, CostModel};
//! use gtopk_sparse::topk_sparse;
//!
//! let cluster = Cluster::new(4, CostModel::gigabit_ethernet());
//! let results = cluster.run(|comm| {
//!     // Each worker has a different dense gradient; keep top-2 locally.
//!     let mut g = vec![0.0f32; 16];
//!     g[comm.rank()] = 1.0 + comm.rank() as f32;
//!     g[15] = 10.0; // every worker agrees coordinate 15 is large
//!     let local = topk_sparse(&g, 2);
//!     gtopk_all_reduce(comm, local, 2).unwrap()
//! });
//! for (global, mask) in &results {
//!     assert_eq!(global.nnz(), 2);
//!     assert!(mask.contains(15)); // the shared heavy coordinate survives
//!     assert!((global.get(15) - 40.0).abs() < 1e-5); // 4 workers × 10.0
//! }
//! ```

#![warn(missing_docs)]

mod aggregator;
mod capability;
pub mod ckpt;
pub mod ft;
mod gtopk_allreduce;
mod metrics;
pub mod overlap;
mod schedule;
mod selector;
mod sparse_coll;
mod trainer;

pub use aggregator::{Aggregator, Update};
pub use capability::{
    capability_table, Algorithm, Caps, Collective, ConfigError, Rejects, Row, ZooKind,
};
pub use ckpt::{CheckpointStore, CkptError, DurableCheckpoint};
pub use ft::{recover, Recovery, EPOCH_TAG_STRIDE};
pub use gtopk_allreduce::{gtopk_all_reduce, gtopk_all_reduce_over, naive_gtopk_all_reduce};
pub use gtopk_comm::{LinkStats, Topology};
pub use metrics::{EpochRecord, TimingBreakdown, TrainReport};
pub use overlap::{BucketSpec, ComputeCost, OverlapConfig, OverlapEngine, OverlapStats};
pub use schedule::{DensitySchedule, LrSchedule};
pub use selector::{Selector, SelectorState};
pub use sparse_coll::{sparse_sum_recursive_doubling, sparse_zoo_all_reduce_over};
pub use trainer::{check_resume, train_distributed, train_rank, ResumeMismatch, TrainConfig};
