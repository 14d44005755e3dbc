//! Kernel thread count: one.
//!
//! A training run is one rank per thread, so every kernel in the
//! workspace runs on the calling rank's thread and splits no work across
//! others.

/// Always 1: kernels run on the calling rank's thread.
///
/// Nothing in the workspace branches on this. It stays only because the
/// frozen benchmark package (`benchmark/src/host.rs`) reports it, until
/// ROADMAP item 1d lets that package change.
pub fn num_threads() -> usize {
    1
}
