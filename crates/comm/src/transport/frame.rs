//! Length-prefixed frame codec for the TCP backend.
//!
//! Every frame is `len: u32 LE | kind: u8 | body`, where `len` counts the
//! kind byte plus the body. Sparse payloads reuse the property-tested
//! `gtopk_sparse::wire` encoding verbatim, so the bytes on a real socket
//! are exactly the `[V, I]` frames whose size the α-β model charges for.
//!
//! Frames are parsed whole: a connection that dies mid-frame leaves a
//! truncated prefix, which the reader detects as an I/O error and discards
//! with the connection — a partial frame can never decode into a
//! plausible-but-wrong message (`wire.rs` proves this property for the
//! sparse body; the outer length prefix extends it to every frame kind).

use crate::{Message, Payload};
use gtopk_sparse::wire;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Protocol magic carried by every HELLO (`"gTK1"`).
pub const MAGIC: u32 = 0x6754_4b31;

/// Wire-protocol version.
pub const VERSION: u8 = 1;

/// Upper bound on a frame body — rejects absurd length prefixes before
/// allocating (1 GiB ≈ a 250M-element dense gradient, far above anything
/// the trainer ships).
pub const MAX_FRAME_BYTES: usize = 1 << 30;

/// The body chunk [`read_frame`] allocates before any body byte arrives:
/// every frame up to this size — a ρ = 0.25 update of a 1M-parameter model
/// is 2 MB — is read into one allocation, and a hostile length prefix
/// costs no more.
const FIRST_BODY_CHUNK: usize = 4 << 20;

const KIND_HELLO: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_LEAVE: u8 = 4;

const PAYLOAD_DENSE: u8 = 0;
const PAYLOAD_SPARSE: u8 = 1;
const PAYLOAD_SCALAR: u8 = 2;
const PAYLOAD_CONTROL: u8 = 3;
const PAYLOAD_VIRTUAL: u8 = 4;
const PAYLOAD_PADDED_SPARSE: u8 = 5;

/// One frame of the TCP protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Connection handshake: sent by the dialer, echoed by the acceptor.
    Hello {
        /// The sender's rank.
        rank: u32,
        /// The sender's cluster size (must agree).
        size: u32,
        /// The sender's membership epoch; acceptors reject dials from
        /// epochs older than their own (stale peers from a revoked
        /// membership).
        epoch: u64,
    },
    /// Liveness beacon, sent every heartbeat interval.
    Heartbeat {
        /// The sender's membership epoch (diagnostic).
        epoch: u64,
    },
    /// An application message. The source rank is *not* on the wire: the
    /// receiver stamps it from the link's handshake-authenticated peer
    /// identity.
    Data {
        /// Message tag.
        tag: u32,
        /// Simulated-clock arrival stamp (carried so the α-β accounting
        /// is preserved across processes).
        arrival_ms: f64,
        /// The payload.
        payload: Payload,
    },
    /// Graceful departure: the sender is shutting down on purpose (SIGTERM
    /// or ctrl-C). The receiver kills the link immediately instead of
    /// waiting out heartbeat deadlines, so a deliberate shutdown is
    /// detected as fast as a crash.
    Leave {
        /// The departing sender's membership epoch (diagnostic).
        epoch: u64,
    },
}

impl Frame {
    /// Builds a DATA frame from a message (drops the `src`, which the
    /// receiving link re-stamps).
    pub fn data(msg: Message) -> Frame {
        Frame::Data {
            tag: msg.tag,
            arrival_ms: msg.arrival_ms,
            payload: msg.payload,
        }
    }
}

/// Serializes `frame` into a self-contained byte string (length prefix
/// included) ready for a single `write_all`.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::new();
    match frame {
        Frame::Hello { rank, size, epoch } => {
            body.push(KIND_HELLO);
            body.extend_from_slice(&MAGIC.to_le_bytes());
            body.push(VERSION);
            body.extend_from_slice(&rank.to_le_bytes());
            body.extend_from_slice(&size.to_le_bytes());
            body.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Heartbeat { epoch } => {
            body.push(KIND_HEARTBEAT);
            body.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Leave { epoch } => {
            body.push(KIND_LEAVE);
            body.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Data {
            tag,
            arrival_ms,
            payload,
        } => {
            body.push(KIND_DATA);
            body.extend_from_slice(&tag.to_le_bytes());
            body.extend_from_slice(&arrival_ms.to_le_bytes());
            match payload {
                Payload::Dense(v) => {
                    body.push(PAYLOAD_DENSE);
                    body.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    for x in v.iter() {
                        body.extend_from_slice(&x.to_le_bytes());
                    }
                }
                Payload::Sparse(sv) => {
                    body.push(PAYLOAD_SPARSE);
                    body.extend_from_slice(&wire::encode(sv));
                }
                Payload::Scalar(s) => {
                    body.push(PAYLOAD_SCALAR);
                    body.extend_from_slice(&s.to_le_bytes());
                }
                Payload::Control => body.push(PAYLOAD_CONTROL),
                Payload::Virtual { elems } => {
                    body.push(PAYLOAD_VIRTUAL);
                    body.extend_from_slice(&(*elems as u64).to_le_bytes());
                }
                Payload::PaddedSparse { data, slots } => {
                    body.push(PAYLOAD_PADDED_SPARSE);
                    body.extend_from_slice(&(*slots as u64).to_le_bytes());
                    body.extend_from_slice(&wire::encode(data));
                }
            }
        }
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Writes one frame to `w` (single `write_all` of the encoded bytes).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))
}

/// Reads one whole frame from `r`, blocking until it is complete.
///
/// # Errors
///
/// I/O errors from the reader; `InvalidData` for malformed or oversized
/// frames; `UnexpectedEof` if the stream ends mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(bad(format!("frame length {len} out of range")));
    }
    // The body grows as its bytes arrive — to the first chunk, then
    // doubling — so a length prefix alone cannot make the reader allocate
    // more than the first chunk.
    let mut body = Vec::new();
    while body.len() < len {
        let filled = body.len();
        body.resize(len.min((2 * filled).max(FIRST_BODY_CHUNK)), 0);
        r.read_exact(&mut body[filled..])?;
    }
    decode_body(&body)
}

fn bad(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

/// A tiny cursor over the frame body.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| bad("frame body truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        s
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in frame body"))
        }
    }
}

fn decode_body(body: &[u8]) -> io::Result<Frame> {
    let mut c = Cur {
        bytes: body,
        pos: 0,
    };
    let frame = match c.u8()? {
        KIND_HELLO => {
            if c.u32()? != MAGIC {
                return Err(bad("bad HELLO magic"));
            }
            let version = c.u8()?;
            if version != VERSION {
                return Err(bad(format!("unsupported protocol version {version}")));
            }
            Frame::Hello {
                rank: c.u32()?,
                size: c.u32()?,
                epoch: c.u64()?,
            }
        }
        KIND_HEARTBEAT => Frame::Heartbeat { epoch: c.u64()? },
        KIND_LEAVE => Frame::Leave { epoch: c.u64()? },
        KIND_DATA => {
            let tag = c.u32()?;
            let arrival_ms = c.f64()?;
            let payload = match c.u8()? {
                PAYLOAD_DENSE => {
                    let n = c.u64()? as usize;
                    let raw = c.take(n.checked_mul(4).ok_or_else(|| bad("dense overflow"))?)?;
                    let v: Vec<f32> = raw
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4")))
                        .collect();
                    Payload::Dense(Arc::new(v))
                }
                PAYLOAD_SPARSE => {
                    let sv =
                        wire::decode(c.rest()).map_err(|e| bad(format!("sparse payload: {e}")))?;
                    Payload::Sparse(Arc::new(sv))
                }
                PAYLOAD_SCALAR => Payload::Scalar(c.f64()?),
                PAYLOAD_CONTROL => Payload::Control,
                PAYLOAD_VIRTUAL => Payload::Virtual {
                    elems: c.u64()? as usize,
                },
                PAYLOAD_PADDED_SPARSE => {
                    let slots = c.u64()? as usize;
                    let sv =
                        wire::decode(c.rest()).map_err(|e| bad(format!("padded payload: {e}")))?;
                    if sv.nnz() > slots {
                        return Err(bad(format!(
                            "padded payload overflow: {} entries in {slots} slots",
                            sv.nnz()
                        )));
                    }
                    Payload::PaddedSparse {
                        data: Arc::new(sv),
                        slots,
                    }
                }
                other => return Err(bad(format!("unknown payload type {other}"))),
            };
            Frame::Data {
                tag,
                arrival_ms,
                payload,
            }
        }
        other => return Err(bad(format!("unknown frame kind {other}"))),
    };
    c.done()?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_sparse::SparseVec;
    use proptest::prelude::*;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = encode(f);
        let mut cursor = io::Cursor::new(bytes);
        read_frame(&mut cursor).expect("roundtrip decodes")
    }

    #[test]
    fn hello_roundtrips() {
        let f = Frame::Hello {
            rank: 3,
            size: 8,
            epoch: 42,
        };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn heartbeat_roundtrips() {
        let f = Frame::Heartbeat { epoch: 7 };
        assert_eq!(roundtrip(&f), f);
    }

    #[test]
    fn leave_roundtrips() {
        let f = Frame::Leave { epoch: 11 };
        assert_eq!(roundtrip(&f), f);
        let bytes = encode(&f);
        for cut in 0..bytes.len() {
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            assert!(read_frame(&mut cursor).is_err(), "prefix of {cut} decoded");
        }
    }

    #[test]
    fn every_payload_kind_roundtrips() {
        let sv = SparseVec::from_pairs(100, vec![(3, 1.5), (42, -2.0)]);
        for payload in [
            Payload::dense(vec![1.0, -2.5, 3.25]),
            Payload::sparse(sv.clone()),
            Payload::Scalar(6.5),
            Payload::Control,
            Payload::Virtual { elems: 123_456 },
            Payload::sparse_padded(sv, 7),
        ] {
            let f = Frame::Data {
                tag: 9,
                arrival_ms: 1.25,
                payload,
            };
            assert_eq!(roundtrip(&f), f);
        }
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = encode(&Frame::Heartbeat { epoch: 1 });
        for cut in 0..bytes.len() {
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            assert!(read_frame(&mut cursor).is_err(), "prefix of {cut} decoded");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(KIND_HEARTBEAT);
        let mut cursor = io::Cursor::new(bytes);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let mut bytes = encode(&Frame::Hello {
            rank: 0,
            size: 2,
            epoch: 0,
        });
        bytes[5] ^= 0xff; // corrupt first magic byte
        assert!(read_frame(&mut io::Cursor::new(&bytes)).is_err());

        let mut bytes = encode(&Frame::Hello {
            rank: 0,
            size: 2,
            epoch: 0,
        });
        bytes[9] = VERSION + 1;
        assert!(read_frame(&mut io::Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&Frame::Heartbeat { epoch: 1 });
        // Grow the declared body by one byte of garbage.
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) + 1;
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        bytes.push(0xaa);
        assert!(read_frame(&mut io::Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn back_to_back_frames_parse_independently() {
        let a = Frame::Data {
            tag: 1,
            arrival_ms: 0.5,
            payload: Payload::Scalar(1.0),
        };
        let b = Frame::Heartbeat { epoch: 2 };
        let mut bytes = encode(&a);
        bytes.extend_from_slice(&encode(&b));
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), a);
        assert_eq!(read_frame(&mut cursor).unwrap(), b);
    }

    proptest! {
        /// Data frames roundtrip bit-exactly for arbitrary dense payloads
        /// and metadata.
        #[test]
        fn prop_dense_data_roundtrips(
            v in proptest::collection::vec(-1e6f32..1e6, 0..256),
            tag in 0u32..u32::MAX,
            arrival in 0.0f64..1e9,
        ) {
            let f = Frame::Data {
                tag,
                arrival_ms: arrival,
                payload: Payload::dense(v),
            };
            prop_assert_eq!(roundtrip(&f), f);
        }

        /// Sparse payloads ride the wire.rs codec unchanged.
        #[test]
        fn prop_sparse_data_roundtrips(
            pairs in proptest::collection::btree_map(0u32..500, -1e6f32..1e6, 0..64),
        ) {
            let sv = SparseVec::from_pairs(500, pairs.into_iter().collect());
            let f = Frame::Data {
                tag: 5,
                arrival_ms: 2.5,
                payload: Payload::sparse(sv),
            };
            prop_assert_eq!(roundtrip(&f), f);
        }

        /// Every strict prefix of an encoded frame fails to decode — the
        /// torn-frame property the supervisor relies on after a
        /// connection break.
        #[test]
        fn prop_truncation_always_detected(
            v in proptest::collection::vec(-1e3f32..1e3, 0..64),
            cut_frac in 0.0f64..1.0,
        ) {
            let bytes = encode(&Frame::Data {
                tag: 0,
                arrival_ms: 0.0,
                payload: Payload::dense(v),
            });
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            let mut cursor = io::Cursor::new(&bytes[..cut]);
            prop_assert!(read_frame(&mut cursor).is_err());
        }
    }
}
