//! Steady-state allocation accounting for the selection hot path.
//!
//! The `TopkScratch` discipline promises that once buffers are warm,
//! per-step selection performs **zero** heap allocation — the analogue of
//! the `BufferPool` steady-state test on the comm side, but enforced at
//! the allocator itself: a counting `#[global_allocator]` wrapper
//! measures an entire warmed epoch and demands exactly zero calls.
//!
//! This lives in its own integration binary so no concurrently-running
//! test can allocate into the measurement window. The counter is
//! *thread-local*: libtest's harness threads (result channels, output
//! printing) allocate at unpredictable moments, so a process-global
//! count would flake whenever one test finishes while another measures —
//! each `#[test]` only ever counts its own thread's allocations.

use gtopk_sparse::{
    topk_merge_into, topk_merge_split_into, topk_sparse, MergeScratch, Residual, SparseVec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts every allocation entry point
/// made by the current thread.
struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter; `try_with` sidesteps the TLS
/// teardown window where the key is no longer accessible.
fn count_one() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Deterministic gradient stream (same content on the warm-up epoch and
/// the measured epoch, so buffer high-water marks are already reached).
fn grad_epoch(n: usize, steps: usize) -> Vec<Vec<f32>> {
    (0..steps)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let h = (i as u64 + 3)
                        .wrapping_mul(s as u64 + 17)
                        .wrapping_mul(0x2545_f491_4f6c_dd1d);
                    ((h >> 33) as f32 / (1u64 << 31) as f32) - 0.5
                })
                .collect()
        })
        .collect()
}

/// Runs one epoch of the unfused accumulate-then-select path over warmed
/// state.
fn run_unfused(r: &mut Residual, grads: &[Vec<f32>], k: usize, out: &mut SparseVec) {
    for g in grads {
        r.accumulate(g);
        r.extract_topk_into(k, out);
    }
}

/// Runs one epoch of the fused accumulate+select+compact path.
fn run_fused(r: &mut Residual, grads: &[Vec<f32>], k: usize, out: &mut SparseVec) {
    for g in grads {
        r.accumulate_extract_into(g, k, out);
    }
}

#[test]
fn threshold_estimate_path_allocates_nothing_at_steady_state() {
    let n = 8192;
    let k = 96;
    let grads = grad_epoch(n, 12);
    let mut r = Residual::new(n);
    let mut out = SparseVec::empty(n);
    // Warm-up epoch: identical call sequence (same gradients), so every
    // scratch buffer reaches its epoch high-water capacity.
    run_unfused(&mut r, &grads, k, &mut out);
    r.clear();
    let before = alloc_calls();
    run_unfused(&mut r, &grads, k, &mut out);
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "steady-state unfused epoch allocated {allocs}x");
}

/// One epoch of the Ok-Topk local selection discipline: fused
/// accumulate+select of the k-entry candidate set, split off
/// the over-budget tail (the entries the collective's per-round quotas
/// would drop), and witness it back into the residual.
fn run_oktopk(
    r: &mut Residual,
    grads: &[Vec<f32>],
    k: usize,
    out: &mut SparseVec,
    keep: &mut SparseVec,
    rej: &mut SparseVec,
) {
    for g in grads {
        r.accumulate_extract_into(g, k, out);
        // Boundary split stands in for the budget truncation: the upper
        // index range plays the witnessed rejects put back each step.
        out.split_at_into(out.dim() as u32 / 2, keep, rej);
        r.put_back(rej);
    }
}

#[test]
fn oktopk_selection_epoch_allocates_nothing_at_steady_state() {
    let n = 8192;
    let k = 96;
    let grads = grad_epoch(n, 12);
    let mut r = Residual::new(n);
    let mut out = SparseVec::empty(n);
    let mut keep = SparseVec::empty(n);
    let mut rej = SparseVec::empty(n);
    run_oktopk(&mut r, &grads, k, &mut out, &mut keep, &mut rej);
    r.clear();
    let before = alloc_calls();
    run_oktopk(&mut r, &grads, k, &mut out, &mut keep, &mut rej);
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "steady-state Ok-Topk epoch allocated {allocs}x");
}

#[test]
fn fused_path_allocates_nothing_at_steady_state() {
    let n = 8192;
    let k = 96;
    let grads = grad_epoch(n, 12);
    let mut r = Residual::new(n);
    let mut out = SparseVec::empty(n);
    run_fused(&mut r, &grads, k, &mut out);
    r.clear();
    let before = alloc_calls();
    run_fused(&mut r, &grads, k, &mut out);
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "steady-state fused epoch allocated {allocs}x");
}

/// The default selector's step — `Selector::Exact` runs the fused kernel
/// — at first-warm-up-epoch and steady-state densities. Stricter than the epochs above: only the first
/// *step* may allocate, although every later step sees a different
/// gradient and collects a different number of candidates.
#[test]
fn exact_fused_path_allocates_nothing_after_the_first_step() {
    let n = 1_000_000;
    let grads = grad_epoch(n, 6);
    for k in [1_000, 250_000] {
        let mut r = Residual::new(n);
        let mut out = SparseVec::empty(n);
        let mut examined = r.accumulate_extract_into(&grads[0], k, &mut out);
        let before = alloc_calls();
        for g in &grads[1..] {
            assert!(examined < n, "k={k}: the threshold pass must engage");
            examined = r.accumulate_extract_into(g, k, &mut out);
            assert_eq!(out.nnz(), k);
        }
        let allocs = alloc_calls() - before;
        assert_eq!(
            allocs, 0,
            "k={k}: steps after the first allocated {allocs}x"
        );
    }
}

/// The tree's two `⊤` merges at the first warm-up epoch's density — the
/// plain one and the split the feedback row runs — and the one-walk
/// put-backs of Algorithm 4 line 10: after the first call none of them
/// allocates, although every later call merges different selections.
#[test]
fn fused_merges_and_put_back_allocate_nothing_after_the_first_call() {
    let n = 1 << 18;
    let k = n / 4;
    let selections: Vec<SparseVec> = grad_epoch(n, 6).iter().map(|g| topk_sparse(g, k)).collect();
    let mut scratch = MergeScratch::new();
    let mut kept = SparseVec::empty(n);
    let mut rejected = SparseVec::empty(n);
    let mut r = Residual::new(n);
    let mut step = |s: usize| {
        let (a, b) = (&selections[s], &selections[s + 1]);
        topk_merge_into(a, b, k, &mut scratch, &mut kept);
        assert_eq!(kept.nnz(), k);
        r.put_back_unselected(a, kept.indices());
        topk_merge_split_into(a, b, k, &mut scratch, &mut kept, &mut rejected);
        assert!(!rejected.is_empty());
        r.put_back_selected(&rejected, kept.indices());
    };
    step(0);
    let before = alloc_calls();
    (1..5).for_each(&mut step);
    let allocs = alloc_calls() - before;
    assert_eq!(allocs, 0, "calls after the first allocated {allocs}x");
}
