//! Analytic performance models from the paper.
//!
//! The paper's entire efficiency argument is expressed in the α-β
//! (latency–bandwidth) model:
//!
//! | Aggregation | Complexity | Time cost |
//! |---|---|---|
//! | DenseAllReduce (ring) | `O(m)` | `2(P−1)α + 2((P−1)/P)·mβ` (Eq. 5) |
//! | TopKAllReduce (AllGather) | `O(kP)` | `log(P)·α + 2(P−1)kβ` (Eq. 6) |
//! | gTopKAllReduce (ours) | `O(k log P)` | `2log(P)·α + 4k·log(P)·β` (Eq. 7) |
//!
//! This crate evaluates those closed forms ([`alphabeta`]), derives
//! scaling efficiency and throughput (Eq. 4, [`scaling`]), and records the
//! paper's hardware and DNN workload constants (Tables II and III,
//! [`workloads`]). The experiment harness overlays these analytic curves
//! on the times measured from the executed collectives in `gtopk-comm` —
//! the two must agree in shape for the reproduction to be faithful.

#![warn(missing_docs)]

pub mod alphabeta;
pub mod plancost;
pub mod scaling;
pub mod workloads;
pub mod zoo;

pub use alphabeta::{dense_allreduce_ms, gtopk_allreduce_ms, topk_allreduce_ms, AggregationKind};
pub use plancost::{dense_plan_ms, gtopk_plan_ms, sparse_sum_wire, topk_plan_ms, PlanClock};
pub use scaling::{scaling_efficiency, throughput_images_per_sec, IterationProfile};
pub use workloads::{paper_models, ModelSpec};
pub use zoo::{oktopk_plan_ms, spardl_plan_ms, ZooSchedule};
