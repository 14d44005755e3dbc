//! Per-rank buffer pool: recycles index/value vectors (and merge scratch)
//! across iterations so the steady-state send/recv hot path allocates
//! nothing.
//!
//! Every sparse message a rank assembles, every `⊤`-merge workspace, and
//! every aggregated update eventually flows back here instead of being
//! dropped. The pool counts hits (a request served from the free list)
//! and misses (a request that had to allocate); after a warm-up
//! iteration the miss counter must stop growing — that is the invariant
//! the trainer's zero-allocation test asserts via
//! [`PoolStats`].
//!
//! Buffers migrate between ranks: a zero-copy send moves its buffer into
//! the message, and the receiver eventually retires it into *its own*
//! pool. Because collective schedules are fixed, each rank gains and
//! loses the same buffers every iteration — in the gTop-k tree, where
//! every rank receives an owned buffer for each it sends, the counts
//! balance — and [`BufferPool::MAX_POOLED`] caps the free lists: a rank
//! that only gains holds at most that many idle buffers, whatever the
//! number of steps.

use gtopk_sparse::{MergeScratch, SparseVec};

/// Hit/miss counters for one rank's [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served by recycling a pooled buffer (no allocation).
    pub hits: u64,
    /// Requests that allocated because the free list was empty.
    pub misses: u64,
    /// Buffers returned to the pool.
    pub returns: u64,
}

/// A per-rank free list of reusable sparse-gradient buffers.
///
/// Sends move buffers into messages and receivers retire them into their
/// own pool, so a rank's free list gains what its collective role
/// receives and loses what it sends; [`BufferPool::MAX_POOLED`] bounds
/// what a rank that only gains can hold.
#[derive(Debug, Default)]
pub struct BufferPool {
    pairs: Vec<(Vec<u32>, Vec<f32>)>,
    scratch: Vec<MergeScratch>,
    stats: PoolStats,
}

impl BufferPool {
    /// Free-list cap: returns beyond this are dropped (bounds memory).
    /// Five is the smallest cap under which a tree rank, which holds five
    /// pairs through a feedback step's reduction — its selection, the
    /// merge's double buffer and three of rejects — still serves every
    /// steady-state step from its pool.
    pub const MAX_POOLED: usize = 5;

    /// An empty pool.
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Number of idle buffer pairs currently pooled.
    pub fn idle(&self) -> usize {
        self.pairs.len()
    }

    /// Takes an (index, value) buffer pair, recycled if possible.
    pub fn take_pair(&mut self) -> (Vec<u32>, Vec<f32>) {
        match self.pairs.pop() {
            Some(pair) => {
                self.stats.hits += 1;
                pair
            }
            None => {
                self.stats.misses += 1;
                (Vec::new(), Vec::new())
            }
        }
    }

    /// Returns an (index, value) buffer pair to the free list.
    pub fn put_pair(&mut self, mut indices: Vec<u32>, mut values: Vec<f32>) {
        self.stats.returns += 1;
        if self.pairs.len() >= Self::MAX_POOLED {
            return;
        }
        indices.clear();
        values.clear();
        self.pairs.push((indices, values));
    }

    /// Takes an empty [`SparseVec`] of logical dimension `dim`, backed by
    /// recycled buffers when available.
    pub fn take_sparse(&mut self, dim: usize) -> SparseVec {
        let (indices, values) = self.take_pair();
        SparseVec::empty_with_buffers(dim, indices, values)
    }

    /// Retires a [`SparseVec`], recycling its buffers.
    pub fn put_sparse(&mut self, v: SparseVec) {
        let (_dim, indices, values) = v.into_parts();
        self.put_pair(indices, values);
    }

    /// Takes a `⊤`-merge workspace, recycled if possible.
    pub fn take_scratch(&mut self) -> MergeScratch {
        match self.scratch.pop() {
            Some(s) => {
                self.stats.hits += 1;
                s
            }
            None => {
                self.stats.misses += 1;
                MergeScratch::new()
            }
        }
    }

    /// Returns a merge workspace to the free list.
    pub fn put_scratch(&mut self, s: MergeScratch) {
        self.stats.returns += 1;
        if self.scratch.len() < Self::MAX_POOLED {
            self.scratch.push(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_misses_then_recycles() {
        let mut pool = BufferPool::new();
        let v = pool.take_sparse(8);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 0);
        pool.put_sparse(v);
        let v2 = pool.take_sparse(16);
        assert_eq!(v2.dim(), 16);
        assert!(v2.is_empty());
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1, "steady state allocates nothing");
    }

    #[test]
    fn recycled_buffers_keep_their_capacity() {
        let mut pool = BufferPool::new();
        // Retire a grown vector and take again: capacity must survive.
        let grown = SparseVec::from_pairs(1024, (0..100).map(|i| (i, 1.0)).collect());
        pool.put_sparse(grown);
        let (idx, val) = pool.take_pair();
        assert!(idx.capacity() >= 100);
        assert!(val.capacity() >= 100);
        assert!(idx.is_empty() && val.is_empty());
    }

    #[test]
    fn scratch_round_trips() {
        let mut pool = BufferPool::new();
        let s = pool.take_scratch();
        pool.put_scratch(s);
        let _ = pool.take_scratch();
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().returns, 1);
    }

    #[test]
    fn free_list_is_capped() {
        let mut pool = BufferPool::new();
        for _ in 0..(BufferPool::MAX_POOLED + 10) {
            pool.put_pair(Vec::new(), Vec::new());
        }
        assert_eq!(pool.idle(), BufferPool::MAX_POOLED);
    }
}
