//! Steady-state allocation pins for the `nn` hot path.
//!
//! * `MomentumSgd::step_sparse` allocates nothing after construction. The
//!   sparse update used to be scattered into a fresh model-sized vector
//!   every step; at paper scale that temporary's page faults cost more
//!   than the arithmetic.
//! * A warm vgg-lite forward and backward allocates no layer scratch: its
//!   count is exact, and each allocation is accounted for.
//!
//! A counting `#[global_allocator]` (thread-local count, own integration
//! binary — see `crates/sparse/tests/alloc_steadystate.rs` for why) pins
//! both.

use gtopk_nn::{models, Model, MomentumSgd};
use gtopk_sparse::SparseVec;
use gtopk_tensor::{Shape, Tensor};
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

/// A warm vgg-lite forward and backward at batch 16 allocates the tensors
/// the layers hand on, what Relu, Linear, Flatten, Conv2d and MaxPool2d
/// keep of their input for backward, and the linear layers' transposed
/// GEMM operands — and no other scratch: conv's columns, GEMM operands
/// and weight-gradient buffers and max-pool's argmax are grow-only
/// buffers reused from the warm-up steps on.
///
/// A tensor is two allocations (its shape's dims and its data). Forward's
/// 39: ten returned outputs (20), three Relu and two Linear input copies
/// (10), the two convs' and two pools' kept shapes (4), Flatten's dims
/// list, kept shape and the shape its reshape replaces (3), and
/// `matmul_bt_flat`'s transposed weight in each linear layer (2).
/// Backward's 18: the nine returned input gradients (the first layer
/// returns none), less the shape each pool hands on from forward (16),
/// and `matmul_at_flat_acc`'s transposed `dY` in each linear layer (2).
#[test]
fn a_warm_vgg_lite_step_allocates_no_layer_scratch() {
    let mut model = models::vgg_lite(0, 3, 8, 10);
    let x: Vec<f32> = (0..16 * 3 * 8 * 8)
        .map(|i| (i % 13) as f32 * 0.1 - 0.6)
        .collect();
    let x = Tensor::from_vec(Shape::d4(16, 3, 8, 8), x).unwrap();
    let g: Vec<f32> = (0..16 * 10).map(|i| (i % 7) as f32 * 0.01 - 0.03).collect();
    let g = Tensor::from_vec(Shape::d2(16, 10), g).unwrap();
    for _ in 0..2 {
        model.forward(&x, true);
        model.backward(&g);
    }
    let counts: Vec<u64> = (0..3)
        .flat_map(|_| {
            let before = ALLOC_CALLS.with(Cell::get);
            let y = model.forward(&x, true);
            let forward = ALLOC_CALLS.with(Cell::get) - before;
            drop(y);
            let before = ALLOC_CALLS.with(Cell::get);
            model.backward(&g);
            [forward, ALLOC_CALLS.with(Cell::get) - before]
        })
        .collect();
    assert_eq!(
        counts,
        [39, 18].repeat(3),
        "(forward, backward) allocations per step"
    );
}
