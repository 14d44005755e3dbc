//! Dependency-free chunked parallel runtime for hot-path kernels.
//!
//! Every parallel kernel in the workspace (the matmul family) funnels
//! through this module, which partitions a matrix into contiguous blocks
//! of rows and runs them on scoped `std::thread` workers — no thread-pool
//! crate, no unsafe, no allocation beyond the per-call chunk bounds.
//!
//! # Thread count
//!
//! The worker count is resolved, in priority order, from:
//!
//! 1. a thread-local override installed by [`with_thread_limit`] (used by
//!    tests and benchmarks to compare serial vs parallel execution),
//! 2. the `GTOPK_THREADS` environment variable (read once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! Work smaller than a minimum chunk size runs serially on the calling
//! thread — callers pick a floor so that spawn overhead never dominates.
//!
//! # Determinism
//!
//! These primitives are *structured*: chunks are contiguous and in order,
//! and each writes only its own rows, so callers can (and do) guarantee
//! bitwise-identical results to their serial variants regardless of thread
//! count. See the module docs of `gtopk_tensor::matmul` for the
//! per-kernel argument.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static THREAD_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
    static MIN_CHUNK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel kernels will use on this thread.
///
/// Resolution order: [`with_thread_limit`] override, then `GTOPK_THREADS`,
/// then [`std::thread::available_parallelism`]. Always at least 1.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_LIMIT.with(|c| c.get()) {
        return n.max(1);
    }
    *DEFAULT_THREADS.get_or_init(|| {
        std::env::var("GTOPK_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            })
    })
}

/// Runs `f` with the worker count pinned to `n` on this thread.
///
/// The override nests (the previous value is restored on exit, even on
/// panic) and only affects kernels invoked from the calling thread — which
/// is exactly what equivalence tests need to compare `n = 1` against
/// `n = 8` on the same inputs within one process.
pub fn with_thread_limit<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_LIMIT.with(|c| c.replace(Some(n))));
    f()
}

/// Runs `f` with the minimum chunk size forced to `n` on this thread.
///
/// Production kernels gate parallelism on generous minimum chunk sizes so
/// small inputs never pay spawn overhead; tests use this to force chunked
/// execution on inputs small enough to verify exhaustively.
pub fn with_min_chunk<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            MIN_CHUNK.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(MIN_CHUNK.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// The minimum chunk size in effect: the [`with_min_chunk`] override if
/// installed, otherwise the caller's `default_min`.
pub fn effective_min_chunk(default_min: usize) -> usize {
    MIN_CHUNK.with(|c| c.get()).unwrap_or(default_min.max(1))
}

/// Number of chunks `len` items split into under the current thread count
/// and the given minimum chunk size. Returns 1 when the work should run
/// serially.
pub fn chunk_count(len: usize, min_chunk: usize) -> usize {
    let min_chunk = effective_min_chunk(min_chunk);
    let threads = num_threads();
    if threads <= 1 || len < 2 * min_chunk {
        return 1;
    }
    (len / min_chunk).min(threads).max(1)
}

/// Even contiguous partition of `len` items into `chunks` pieces: the first
/// `len % chunks` pieces get one extra item. Returns `(start, end)` pairs
/// in order.
fn partition(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    let base = len / chunks;
    let extra = len % chunks;
    let mut bounds = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let end = start + base + usize::from(i < extra);
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// Runs `f` over blocks of whole rows of a row-major matrix in parallel.
///
/// `data` has `data.len() / row_len` rows of `row_len` elements each; `f`
/// receives `(first_row, block)` where `block` is a whole number of
/// contiguous rows. `min_rows` is the serial threshold in rows.
pub fn for_each_row_block_mut<T, F>(data: &mut [T], row_len: usize, min_rows: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    debug_assert_eq!(data.len() % row_len, 0);
    let rows = data.len() / row_len;
    let chunks = chunk_count(rows, min_rows);
    if chunks <= 1 {
        f(0, data);
        return;
    }
    let bounds = partition(rows, chunks);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut consumed = 0;
        for (i, &(start, end)) in bounds.iter().enumerate() {
            let (block, tail) = rest.split_at_mut((end - consumed) * row_len);
            debug_assert_eq!(consumed, start);
            rest = tail;
            consumed = end;
            if i + 1 < bounds.len() {
                let f = &f;
                scope.spawn(move || f(start, block));
            } else {
                f(start, block);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_even_and_complete() {
        for len in [0usize, 1, 7, 64, 1000] {
            for chunks in 1..=8 {
                let bounds = partition(len, chunks);
                assert_eq!(bounds.len(), chunks);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[chunks - 1].1, len);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0);
                }
                let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn thread_limit_nests_and_restores() {
        with_thread_limit(3, || {
            assert_eq!(num_threads(), 3);
            with_thread_limit(1, || assert_eq!(num_threads(), 1));
            assert_eq!(num_threads(), 3);
        });
        assert!(num_threads() >= 1);
    }

    #[test]
    fn min_chunk_override_forces_chunking() {
        with_thread_limit(4, || {
            with_min_chunk(2, || {
                assert!(chunk_count(16, 1 << 20) > 1);
            });
            // Without the override a 16-element input stays serial.
            assert_eq!(chunk_count(16, 1 << 20), 1);
        });
    }

    #[test]
    fn row_blocks_align_to_rows() {
        let rows = 37;
        let row_len = 8;
        let mut data = vec![0u32; rows * row_len];
        with_thread_limit(4, || {
            with_min_chunk(3, || {
                for_each_row_block_mut(&mut data, row_len, 3, |first_row, block| {
                    assert_eq!(block.len() % row_len, 0);
                    for (r, row) in block.chunks_mut(row_len).enumerate() {
                        row.fill((first_row + r) as u32);
                    }
                });
            });
        });
        for (r, row) in data.chunks(row_len).enumerate() {
            assert!(row.iter().all(|&v| v == r as u32));
        }
    }

    #[test]
    fn serial_fallback_below_threshold() {
        // 100 rows under a 2^20-row floor: one block, on the calling thread.
        let mut data = vec![0u32; 100];
        let caller = std::thread::current().id();
        with_thread_limit(8, || {
            for_each_row_block_mut(&mut data, 1, 1 << 20, |first_row, block| {
                assert_eq!((first_row, block.len()), (0, 100));
                assert_eq!(std::thread::current().id(), caller);
                block.fill(1);
            });
        });
        assert!(data.iter().all(|&v| v == 1));
    }
}
