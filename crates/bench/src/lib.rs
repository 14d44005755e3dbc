//! Shared experiment machinery for the table/figure reproduction
//! binaries (see `src/bin/`) and the Criterion micro-benchmarks.
//!
//! The timing experiments price the three aggregation algorithms at the
//! paper's full scale (`m` up to 10⁸, any `P`) by replaying the plans the
//! product executes on `gtopk_perfmodel`'s thread-free `PlanClock`
//! (`dense_plan_ms`, `topk_plan_ms`, `gtopk_plan_ms` — pinned equal to
//! the executed time in `tests/plan_equivalence.rs`), and combine them
//! with the paper-derived per-model compute costs ([`iteration`]) to
//! regenerate Figs. 9–11 and Table IV. Convergence figures train real
//! models via `gtopk::train_distributed` directly in the binaries.

#![warn(missing_docs)]

pub mod chart;
pub mod convergence;
pub mod iteration;
pub mod report;
