//! `read_frame` allocates for the bytes that arrive, not for the bytes a
//! length prefix promises.
//!
//! A counting `#[global_allocator]` (thread-local, own integration binary
//! — see `crates/sparse/tests/alloc_steadystate.rs` for why) measures the
//! reader against a header claiming a 1 GiB body that never comes.

use gtopk_comm::transport::frame::{encode, read_frame, Frame, MAX_FRAME_BYTES};
use gtopk_comm::Payload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

struct CountingAlloc;

thread_local! {
    /// (bytes requested, reallocations) by this thread.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize, realloc: bool) {
    let _ = COUNTS.try_with(|c| {
        let (b, r) = c.get();
        c.set((b + bytes as u64, r + u64::from(realloc)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it requested from the
/// allocator and how many times it reallocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (b0, r0) = COUNTS.with(Cell::get);
    let out = f();
    let (b1, r1) = COUNTS.with(Cell::get);
    (out, b1 - b0, r1 - r0)
}

#[test]
fn a_one_gib_header_followed_by_eof_allocates_under_8_mib() {
    let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[3, 0, 1, 2]); // a few body bytes, then EOF
    let mut cursor = io::Cursor::new(bytes);
    let (result, allocated, _) = measured(|| read_frame(&mut cursor));
    assert_eq!(result.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    assert!(allocated < 8 << 20, "allocated {allocated} bytes");
}

#[test]
fn frames_up_to_the_first_chunk_read_into_one_allocation_and_larger_ones_grow() {
    // 2 MB of dense f32 — the size of a ρ = 0.25 update of a 1M-parameter
    // model — then 6 MB, past the first chunk.
    for (elems, may_grow) in [(500_000usize, false), (1_500_000, true)] {
        let frame = Frame::Data {
            tag: 7,
            arrival_ms: 1.5,
            payload: Payload::dense((0..elems).map(|i| i as f32).collect()),
        };
        let mut cursor = io::Cursor::new(encode(&frame));
        let (read, _, reallocs) = measured(|| read_frame(&mut cursor).expect("well-formed"));
        assert_eq!(read, frame, "{elems} elements");
        assert_eq!(
            reallocs > 0,
            may_grow,
            "{elems} elements: {reallocs} reallocations"
        );
    }
}
