//! Wire messages exchanged between ranks.

use gtopk_sparse::SparseVec;
use std::sync::Arc;

/// Typed message payload.
///
/// The simulated network charges per *element* (4-byte word), matching the
/// paper's accounting: a dense gradient of `m` floats is `m` elements and a
/// k-sparse gradient is `2k` elements (k values + k indices).
///
/// Dense and sparse buffers are `Arc`-shared: sending the same vector to
/// many peers (broadcast fan-out, relay hops) bumps a reference count
/// instead of deep-copying, and [`Payload::into_dense`] /
/// [`Payload::into_sparse`] are copy-on-write — a receiver that is the
/// sole owner takes the buffer for free, one that shares it clones.
/// Sharing changes nothing observable: wire accounting and simulated-time
/// charges depend only on the logical element count.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A dense `f32` vector.
    Dense(Arc<Vec<f32>>),
    /// A sparse gradient (`[V, I]` pair).
    Sparse(Arc<SparseVec>),
    /// A single scalar (used by loss averaging and diagnostics).
    Scalar(f64),
    /// A zero-length control message (barriers and similar).
    Control,
    /// A phantom message of a given wire size carrying no data.
    ///
    /// Timing experiments replay paper-scale message schedules (e.g. a
    /// ring AllReduce over m = 25×10⁶ gradients on 32 ranks) without
    /// allocating gigabytes: the simulated clock charges `α + nβ` for the
    /// declared size exactly as for real payloads.
    Virtual {
        /// Declared wire size in 4-byte elements.
        elems: usize,
    },
    /// A sparse gradient padded to a fixed slot budget on the wire.
    ///
    /// The Ok-Topk / SparDL collectives exchange fixed-size buffers whose
    /// slot count is determined by the communication *schedule*, not by the
    /// data: a rank holding fewer than `slots` survivors still ships (and
    /// is charged for) the full budget. This makes the executed α-β time
    /// input-independent, so an analytic [`crate::plan::CollectivePlan`]
    /// replay predicts it exactly.
    PaddedSparse {
        /// The carried entries (`nnz() <= slots`).
        data: Arc<SparseVec>,
        /// Declared wire budget in index/value pairs.
        slots: usize,
    },
}

impl Payload {
    /// Wraps a dense vector (single owner until the payload is cloned).
    pub fn dense(v: Vec<f32>) -> Self {
        Payload::Dense(Arc::new(v))
    }

    /// Wraps a sparse vector (single owner until the payload is cloned).
    pub fn sparse(v: SparseVec) -> Self {
        Payload::Sparse(Arc::new(v))
    }

    /// Wraps an already-shared dense buffer (fan-out sends reuse one
    /// allocation across every destination).
    pub fn dense_shared(v: Arc<Vec<f32>>) -> Self {
        Payload::Dense(v)
    }

    /// Wraps an already-shared sparse buffer.
    pub fn sparse_shared(v: Arc<SparseVec>) -> Self {
        Payload::Sparse(v)
    }

    /// Wraps a sparse vector padded to a fixed wire budget of `slots`
    /// index/value pairs.
    ///
    /// # Panics
    ///
    /// Panics if the vector holds more than `slots` entries — the schedule
    /// budget is a hard capacity, not a hint.
    pub fn sparse_padded(v: SparseVec, slots: usize) -> Self {
        Self::sparse_padded_shared(Arc::new(v), slots)
    }

    /// Wraps an already-shared sparse buffer padded to a fixed wire
    /// budget of `slots` index/value pairs (the sender keeps reading the
    /// vector through the [`Arc`] after the send).
    ///
    /// # Panics
    ///
    /// Panics if the vector holds more than `slots` entries — the schedule
    /// budget is a hard capacity, not a hint.
    pub fn sparse_padded_shared(v: Arc<SparseVec>, slots: usize) -> Self {
        assert!(
            v.nnz() <= slots,
            "padded payload overflow: {} entries in a {slots}-slot budget",
            v.nnz()
        );
        Payload::PaddedSparse { data: v, slots }
    }

    /// Number of 4-byte elements this payload occupies on the wire.
    pub fn wire_elems(&self) -> usize {
        match self {
            Payload::Dense(v) => v.len(),
            Payload::Sparse(sv) => 2 * sv.nnz(),
            Payload::Scalar(_) => 2, // one f64 = two 4-byte words
            Payload::Control => 0,
            Payload::Virtual { elems } => *elems,
            Payload::PaddedSparse { slots, .. } => 2 * slots,
        }
    }

    /// Borrows the dense vector without taking ownership.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Dense`].
    pub fn as_dense(&self) -> &[f32] {
        match self {
            Payload::Dense(v) => v,
            other => panic!("expected dense payload, got {other:?}"),
        }
    }

    /// Borrows the sparse vector without taking ownership.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Sparse`].
    pub fn as_sparse(&self) -> &SparseVec {
        match self {
            Payload::Sparse(v) => v,
            Payload::PaddedSparse { data, .. } => data,
            other => panic!("expected sparse payload, got {other:?}"),
        }
    }

    /// Extracts a dense vector, copy-on-write: free when this payload is
    /// the buffer's only owner, a clone otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Dense`].
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            Payload::Dense(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| (*shared).clone()),
            other => panic!("expected dense payload, got {other:?}"),
        }
    }

    /// Extracts a sparse vector, copy-on-write (see [`Payload::into_dense`]).
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Sparse`].
    pub fn into_sparse(self) -> SparseVec {
        match self {
            Payload::Sparse(v) | Payload::PaddedSparse { data: v, .. } => {
                Arc::try_unwrap(v).unwrap_or_else(|shared| (*shared).clone())
            }
            other => panic!("expected sparse payload, got {other:?}"),
        }
    }

    /// Extracts the shared sparse buffer itself (no copy ever).
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Sparse`].
    pub fn into_sparse_arc(self) -> Arc<SparseVec> {
        match self {
            Payload::Sparse(v) | Payload::PaddedSparse { data: v, .. } => v,
            other => panic!("expected sparse payload, got {other:?}"),
        }
    }

    /// Extracts a scalar.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not [`Payload::Scalar`].
    pub fn into_scalar(self) -> f64 {
        match self {
            Payload::Scalar(s) => s,
            other => panic!("expected scalar payload, got {other:?}"),
        }
    }
}

/// A point-to-point message with simulated-time metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag for matching (collectives reserve tags ≥ [`Message::COLLECTIVE_TAG_BASE`]).
    pub tag: u32,
    /// Payload.
    pub payload: Payload,
    /// Simulated arrival time at the receiver, in milliseconds.
    pub arrival_ms: f64,
}

impl Message {
    /// Tags at or above this value are reserved for collectives.
    pub const COLLECTIVE_TAG_BASE: u32 = 1 << 24;

    /// Control-plane tag carried by a revoke message (ULFM-style): a rank
    /// that detects a failure mid-collective sends this to every live
    /// member, and any blocking receive that pulls it aborts. The payload
    /// is a [`Payload::Scalar`] holding the revoked membership epoch;
    /// revokes for epochs older than the receiver's current epoch are
    /// stale and ignored.
    pub const REVOKE_TAG: u32 = u32::MAX;

    /// Control-plane tag of a rejoin request: a restarted process
    /// broadcasts this to every rank of the original universe, carrying a
    /// [`Payload::Scalar`] with the iteration of its newest durable
    /// checkpoint. Members notice it at the next step boundary (via
    /// [`crate::Communicator::poll_join_requests`]) and trigger a
    /// membership-growth recovery round.
    pub const JOIN_REQ_TAG: u32 = u32::MAX - 1;

    /// Control-plane tag of the coordinator's answer to a join request: a
    /// dense payload `[epoch, rollback_iter, members...]` telling the
    /// joiner which membership epoch to adopt, which durable checkpoint
    /// generation to restore, and the agreed (regrown) member set.
    pub const JOIN_WELCOME_TAG: u32 = u32::MAX - 2;

    /// Tags-per-membership-epoch stride used by the fault-tolerance
    /// layer: epoch `e` owns collective tags
    /// `[COLLECTIVE_TAG_BASE + e·stride, COLLECTIVE_TAG_BASE + (e+1)·stride)`.
    pub const EPOCH_TAG_STRIDE: u32 = 4096;

    /// Whether `tag` is recovery control-plane traffic (REVOKE, join
    /// request/welcome, or the per-epoch ALIVE/MEMBERSHIP agreement
    /// band at in-stride offsets `[512, 1536)`).
    ///
    /// Control messages are exempt from the receiver's serialized-
    /// inbound-link cost model: they are tiny, their wall-clock drain
    /// order is scheduling-dependent (recovery polls several links
    /// concurrently with purges), and charging them would make the
    /// *simulated* clock depend on host thread timing. Bulk recovery
    /// state transfer (offset 1536+, shared with the sparse
    /// collectives) still pays full price.
    pub fn is_control(tag: u32) -> bool {
        if tag >= Self::JOIN_WELCOME_TAG {
            return true;
        }
        if tag < Self::COLLECTIVE_TAG_BASE {
            return false;
        }
        let off = (tag - Self::COLLECTIVE_TAG_BASE) % Self::EPOCH_TAG_STRIDE;
        (512..1536).contains(&off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_elems_accounting() {
        assert_eq!(Payload::dense(vec![0.0; 7]).wire_elems(), 7);
        let sv = SparseVec::from_pairs(100, vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(Payload::sparse(sv).wire_elems(), 6);
        assert_eq!(Payload::Scalar(1.0).wire_elems(), 2);
        assert_eq!(Payload::Control.wire_elems(), 0);
        assert_eq!(Payload::Virtual { elems: 123 }.wire_elems(), 123);
        // A padded payload is charged for its slot budget, not its nnz.
        let sv = SparseVec::from_pairs(100, vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(Payload::sparse_padded(sv, 5).wire_elems(), 10);
    }

    #[test]
    fn padded_sparse_extraction_and_budget_check() {
        let sv = SparseVec::from_pairs(10, vec![(1, 1.0), (4, -2.0)]);
        let p = Payload::sparse_padded(sv.clone(), 3);
        assert_eq!(p.as_sparse().nnz(), 2);
        assert_eq!(p.into_sparse(), sv);
        let shared = Payload::sparse_padded(sv.clone(), 2).into_sparse_arc();
        assert_eq!(shared.nnz(), 2);
        let overflow = std::panic::catch_unwind(|| Payload::sparse_padded(sv, 1));
        assert!(overflow.is_err(), "nnz > slots must panic");
    }

    #[test]
    fn into_dense_roundtrip() {
        let p = Payload::dense(vec![1.0, 2.0]);
        assert_eq!(p.into_dense(), vec![1.0, 2.0]);
    }

    #[test]
    fn sole_owner_extraction_takes_the_buffer_without_copying() {
        let v = vec![1.0f32, 2.0, 3.0];
        let ptr = v.as_ptr();
        let out = Payload::dense(v).into_dense();
        assert_eq!(out.as_ptr(), ptr, "unique Arc must unwrap in place");
    }

    #[test]
    fn shared_extraction_copies_on_write() {
        let shared = Arc::new(vec![1.0f32, 2.0]);
        let a = Payload::dense_shared(shared.clone());
        let b = Payload::dense_shared(shared.clone());
        let va = a.into_dense();
        let vb = b.into_dense();
        assert_eq!(va, vb);
        assert_ne!(va.as_ptr(), shared.as_ptr(), "shared Arc must clone");
    }

    #[test]
    fn borrow_accessors_do_not_consume() {
        let p = Payload::sparse(SparseVec::from_pairs(4, vec![(1, 2.0)]));
        assert_eq!(p.as_sparse().nnz(), 1);
        assert_eq!(p.into_sparse().get(1), 2.0);
        let d = Payload::dense(vec![5.0]);
        assert_eq!(d.as_dense(), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "expected sparse payload")]
    fn wrong_extraction_panics() {
        let _ = Payload::dense(vec![]).into_sparse();
    }
}
