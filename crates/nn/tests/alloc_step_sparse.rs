//! `MomentumSgd::step_sparse` allocates nothing after construction.
//!
//! The sparse update used to be scattered into a fresh model-sized vector
//! every step; at paper scale that temporary's page faults cost more than
//! the arithmetic. A counting `#[global_allocator]` (thread-local count,
//! own integration binary — see `crates/sparse/tests/alloc_steadystate.rs`
//! for why) pins the replacement at zero heap calls from the first step.

use gtopk_nn::{models, Model, MomentumSgd};
use gtopk_sparse::SparseVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

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

#[test]
fn step_sparse_allocates_nothing_after_construction() {
    let mut model = models::mlp(3, 64, 32, 10);
    let n = model.num_params();
    let mut opt = MomentumSgd::new(n, 0.1, 0.9);
    let updates: Vec<SparseVec> = [1usize, 97, n / 4, n]
        .into_iter()
        .map(|k| {
            let stride = n / k;
            SparseVec::from_pairs(
                n,
                (0..k as u32)
                    .map(|j| (j * stride as u32, j as f32 * 0.01 - 1.0))
                    .collect(),
            )
        })
        .chain([SparseVec::empty(n)])
        .collect();
    let before = ALLOC_CALLS.with(Cell::get);
    for _ in 0..3 {
        for sv in &updates {
            opt.step_sparse(&mut model, sv);
        }
    }
    let allocs = ALLOC_CALLS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "step_sparse allocated {allocs}x");
}
