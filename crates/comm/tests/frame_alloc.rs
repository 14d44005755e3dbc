//! The frame codec allocates only what a frame needs: `read_frame`
//! allocates for the bytes that arrive, not for the bytes a length prefix
//! promises, and the TCP transport's reused buffers make a steady stream
//! of DATA frames cost nothing but the decoded vectors.
//!
//! A counting `#[global_allocator]` (thread-local, own integration binary
//! — see `crates/sparse/tests/alloc_steadystate.rs` for why) measures the
//! reader against a header claiming a 1 GiB body that never comes, and
//! the encoder and reader on warmed buffers.

use gtopk_comm::transport::frame::{
    encode, encode_into, read_frame, read_frame_into, Frame, MAX_FRAME_BYTES,
};
use gtopk_comm::Payload;
use gtopk_sparse::SparseVec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::mem::size_of;

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

/// A DATA frame carrying a 250 000-entry update of a 1M-parameter model —
/// one message of a ρ = 0.25 step.
fn warmup_density_frame() -> Frame {
    let (dim, k) = (1_000_000usize, 250_000usize);
    let indices = (0..k).map(|i| (i * dim / k) as u32).collect();
    let values = (0..k).map(|i| i as f32 * 0.5 - 7.0).collect();
    Frame::Data {
        tag: 7,
        arrival_ms: 1.5,
        payload: Payload::sparse(SparseVec::from_sorted(dim, indices, values)),
    }
}

#[test]
fn encoding_into_a_warmed_buffer_allocates_nothing() {
    let frame = warmup_density_frame();
    let mut buf = Vec::new();
    encode_into(&frame, &mut buf);
    let (_, allocated, reallocs) = measured(|| encode_into(&frame, &mut buf));
    assert_eq!((allocated, reallocs), (0, 0));
    assert_eq!(buf, encode(&frame));
}

#[test]
fn reading_into_a_warmed_body_allocates_only_the_decoded_vectors() {
    let frame = warmup_density_frame();
    let bytes = encode(&frame);
    let mut body = Vec::new();
    read_frame_into(&mut io::Cursor::new(&bytes), &mut body).expect("well-formed");
    let (read, allocated, reallocs) =
        measured(|| read_frame_into(&mut io::Cursor::new(&bytes), &mut body).expect("well-formed"));
    assert_eq!(read, frame);
    // The indices and the values, 4 bytes per entry each, plus the `Arc`
    // that shares them (two counts and the `SparseVec`).
    let nnz = 250_000;
    let arc = 2 * size_of::<usize>() + size_of::<SparseVec>();
    assert_eq!(allocated, (8 * nnz + arc) as u64);
    assert_eq!(reallocs, 0);
}

#[test]
fn a_one_gib_header_after_a_small_frame_allocates_under_8_mib() {
    let mut body = Vec::new();
    let small = encode(&Frame::Heartbeat { epoch: 1 });
    read_frame_into(&mut io::Cursor::new(&small), &mut body).expect("well-formed");
    let mut bytes = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[3, 0, 1, 2]); // a few body bytes, then EOF
    let (result, allocated, _) =
        measured(|| read_frame_into(&mut io::Cursor::new(&bytes), &mut body));
    assert_eq!(result.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    assert!(allocated < 8 << 20, "allocated {allocated} bytes");
}
