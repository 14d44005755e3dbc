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
//!
//! Each frame costs one pass each way, into buffers that are reused.
//! [`encode_into`] reserves the exact frame size, writes a placeholder
//! prefix, appends the body in place — payload arrays a slice at a time,
//! sparse ones through `wire::encode_into` — and patches the prefix; the
//! TCP transport encodes every DATA frame into one send buffer it keeps.
//! [`read_frame_into`] reads the body into a buffer each link's reader
//! keeps across frames (grown only as bytes arrive, never zero-filled
//! again), and the payload is decoded with one slice pass per array. The
//! layout is unchanged byte for byte; the unit tests keep the per-element
//! codec this replaced as their oracle for bytes and errors.

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

/// The body chunk [`read_frame_into`] grows its buffer to before any body
/// byte arrives: every frame up to this size — a ρ = 0.25 update of a
/// 1M-parameter model is 2 MB — is read into one allocation, and a
/// hostile length prefix costs no more.
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
    let mut out = Vec::new();
    encode_into(frame, &mut out);
    out
}

/// Bytes [`encode`] produces for `frame`, length prefix included.
fn encoded_len(frame: &Frame) -> usize {
    let body = match frame {
        Frame::Hello { .. } => 1 + 4 + 1 + 4 + 4 + 8,
        Frame::Heartbeat { .. } | Frame::Leave { .. } => 1 + 8,
        Frame::Data { payload, .. } => {
            1 + 4
                + 8
                + 1
                + match payload {
                    Payload::Dense(v) => 8 + 4 * v.len(),
                    Payload::Sparse(sv) => wire::encoded_len(sv),
                    Payload::Scalar(_) | Payload::Virtual { .. } => 8,
                    Payload::Control => 0,
                    Payload::PaddedSparse { data, .. } => 8 + wire::encoded_len(data),
                }
        }
    };
    4 + body
}

/// Replaces the contents of `out` with the encoding of `frame` — the one
/// frame encoder, which [`encode`] calls on a fresh buffer and the TCP
/// transport on the send buffer it keeps.
///
/// One pass: the exact frame size is reserved up front (so a buffer with
/// the room is written without allocating), a placeholder length prefix
/// is written, the body is appended in place — payload arrays a slice at
/// a time — and the prefix is patched at the end.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(encoded_len(frame));
    out.extend_from_slice(&[0; 4]);
    match frame {
        Frame::Hello { rank, size, epoch } => {
            out.push(KIND_HELLO);
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.push(VERSION);
            out.extend_from_slice(&rank.to_le_bytes());
            out.extend_from_slice(&size.to_le_bytes());
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Heartbeat { epoch } => {
            out.push(KIND_HEARTBEAT);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Leave { epoch } => {
            out.push(KIND_LEAVE);
            out.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Data {
            tag,
            arrival_ms,
            payload,
        } => {
            out.push(KIND_DATA);
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&arrival_ms.to_le_bytes());
            match payload {
                Payload::Dense(v) => {
                    out.push(PAYLOAD_DENSE);
                    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    wire::put_words(out, v, f32::to_le_bytes);
                }
                Payload::Sparse(sv) => {
                    out.push(PAYLOAD_SPARSE);
                    wire::encode_into(sv, out);
                }
                Payload::Scalar(s) => {
                    out.push(PAYLOAD_SCALAR);
                    out.extend_from_slice(&s.to_le_bytes());
                }
                Payload::Control => out.push(PAYLOAD_CONTROL),
                Payload::Virtual { elems } => {
                    out.push(PAYLOAD_VIRTUAL);
                    out.extend_from_slice(&(*elems as u64).to_le_bytes());
                }
                Payload::PaddedSparse { data, slots } => {
                    out.push(PAYLOAD_PADDED_SPARSE);
                    out.extend_from_slice(&(*slots as u64).to_le_bytes());
                    wire::encode_into(data, out);
                }
            }
        }
    }
    debug_assert_eq!(out.len(), encoded_len(frame));
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
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
    read_frame_into(r, &mut Vec::new())
}

/// [`read_frame`] with the body read into `body`, a buffer the caller
/// keeps across frames (each TCP link's reader holds one).
///
/// `body` only grows, and only as bytes arrive — to the first chunk,
/// then doubling — so a length prefix alone cannot make the reader
/// allocate more than the first chunk, and a frame no longer than an
/// earlier one is read without allocating or zero-filling anything.
///
/// # Errors
///
/// As [`read_frame`].
pub fn read_frame_into<R: Read>(r: &mut R, body: &mut Vec<u8>) -> io::Result<Frame> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(bad(format!("frame length {len} out of range")));
    }
    let mut filled = 0;
    while filled < len {
        let end = len.min((2 * filled).max(FIRST_BODY_CHUNK));
        if body.len() < end {
            body.resize(end, 0);
        }
        r.read_exact(&mut body[filled..end])?;
        filled = end;
    }
    decode_body(&body[..len])
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
                    Payload::Dense(Arc::new(wire::read_words(raw, f32::from_le_bytes)))
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
mod oracle {
    //! The per-element codec the one-pass codec replaced — frame encoder,
    //! fresh-body reader, body decoder and the sparse wire codec under
    //! them — kept verbatim as the reference the product must match byte
    //! for byte and error for error.

    use super::*;
    use gtopk_sparse::wire::{WireError, HEADER_BYTES};
    use gtopk_sparse::SparseVec;

    fn wire_encode(v: &SparseVec) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + 8 * v.nnz());
        out.extend_from_slice(&(v.dim() as u64).to_le_bytes());
        out.extend_from_slice(&(v.nnz() as u64).to_le_bytes());
        for &i in v.indices() {
            out.extend_from_slice(&i.to_le_bytes());
        }
        for &x in v.values() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    fn wire_decode(bytes: &[u8]) -> Result<SparseVec, WireError> {
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::Truncated {
                expected: HEADER_BYTES,
                actual: bytes.len(),
            });
        }
        let dim = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")) as usize;
        let nnz = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
        if nnz > dim {
            return Err(WireError::Malformed {
                reason: "nnz exceeds dimension",
            });
        }
        let need = HEADER_BYTES + 8 * nnz;
        if bytes.len() < need {
            return Err(WireError::Truncated {
                expected: need,
                actual: bytes.len(),
            });
        }
        let mut indices = Vec::with_capacity(nnz);
        let mut pos = HEADER_BYTES;
        for _ in 0..nnz {
            let i = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
            if (i as usize) >= dim {
                return Err(WireError::Malformed {
                    reason: "index out of range",
                });
            }
            if let Some(&prev) = indices.last() {
                if i <= prev {
                    return Err(WireError::Malformed {
                        reason: "indices not strictly ascending",
                    });
                }
            }
            indices.push(i);
            pos += 4;
        }
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(f32::from_le_bytes(
                bytes[pos..pos + 4].try_into().expect("4 bytes"),
            ));
            pos += 4;
        }
        Ok(SparseVec::from_sorted(dim, indices, values))
    }

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
                        body.extend_from_slice(&wire_encode(sv));
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
                        body.extend_from_slice(&wire_encode(data));
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Frame> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(bad(format!("frame length {len} out of range")));
        }
        let mut body = Vec::new();
        while body.len() < len {
            let filled = body.len();
            body.resize(len.min((2 * filled).max(FIRST_BODY_CHUNK)), 0);
            r.read_exact(&mut body[filled..])?;
        }
        decode_body(&body)
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
                        let sv = wire_decode(c.rest())
                            .map_err(|e| bad(format!("sparse payload: {e}")))?;
                        Payload::Sparse(Arc::new(sv))
                    }
                    PAYLOAD_SCALAR => Payload::Scalar(c.f64()?),
                    PAYLOAD_CONTROL => Payload::Control,
                    PAYLOAD_VIRTUAL => Payload::Virtual {
                        elems: c.u64()? as usize,
                    },
                    PAYLOAD_PADDED_SPARSE => {
                        let slots = c.u64()? as usize;
                        let sv = wire_decode(c.rest())
                            .map_err(|e| bad(format!("padded payload: {e}")))?;
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

    /// Value bit patterns every payload must carry unchanged: NaNs with
    /// payloads and either sign, ±0.0, denormals, ±inf.
    const SPECIAL_BITS: [u32; 11] = [
        0x7fc0_0000,
        0x7fc0_0001,
        0xffc0_1234,
        0x7f80_0001,
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x007f_ffff,
        0x8000_0001,
        0x7f80_0000,
        0xff80_0000,
    ];

    /// Dimension of every generated sparse payload.
    const DIM: u32 = 500;

    /// `(index, (pick, bits))` pairs as values: `pick` below
    /// `SPECIAL_BITS.len()` takes that special value, any other the raw
    /// `bits`.
    fn entries(pairs: Vec<(u32, (usize, u32))>) -> (Vec<u32>, Vec<f32>) {
        pairs
            .into_iter()
            .map(|(i, (pick, bits))| {
                (
                    i,
                    f32::from_bits(SPECIAL_BITS.get(pick).copied().unwrap_or(bits)),
                )
            })
            .unzip()
    }

    /// A frame of kind `kind` (0–8: HELLO, heartbeat, LEAVE, then DATA
    /// with a dense, sparse, scalar, control, virtual and padded payload)
    /// built from `word` and `pairs`.
    fn frame_of(kind: usize, word: u64, pairs: Vec<(u32, (usize, u32))>) -> Frame {
        let (indices, values) = entries(pairs);
        let nnz = indices.len();
        let sparse = || SparseVec::from_sorted(DIM as usize, indices.clone(), values.clone());
        let payload = match kind {
            0 => {
                return Frame::Hello {
                    rank: word as u32,
                    size: (word >> 32) as u32,
                    epoch: word,
                }
            }
            1 => return Frame::Heartbeat { epoch: word },
            2 => return Frame::Leave { epoch: word },
            3 => Payload::dense(values.clone()),
            4 => Payload::sparse(sparse()),
            5 => Payload::Scalar(f64::from_bits(word)),
            6 => Payload::Control,
            7 => Payload::Virtual {
                elems: word as usize,
            },
            _ => Payload::sparse_padded(sparse(), nnz + (word % 5) as usize),
        };
        Frame::Data {
            tag: word as u32,
            arrival_ms: f64::from_bits(word.rotate_left(17)),
            payload,
        }
    }

    /// Reads `bytes` through the product reader (fresh and into `body`,
    /// a reused buffer) and through the oracle: the same frame, bit for
    /// bit (compared by re-encoding), or the same error kind and text.
    fn reads_like_the_oracle(bytes: &[u8], body: &mut Vec<u8>) -> Result<(), String> {
        let show = |r: &io::Result<Frame>| match r {
            Ok(f) => Ok(encode(f)),
            Err(e) => Err((e.kind(), e.to_string())),
        };
        let want = show(&oracle::read_frame(&mut io::Cursor::new(bytes)));
        let fresh = show(&read_frame(&mut io::Cursor::new(bytes)));
        let reused = show(&read_frame_into(&mut io::Cursor::new(bytes), body));
        if fresh == want && reused == want {
            Ok(())
        } else {
            Err(format!(
                "oracle {want:?}\nfresh  {fresh:?}\nreused {reused:?}"
            ))
        }
    }

    /// The header of a sparse wire body declaring `dim = u64::MAX` and
    /// `nnz = 2^61 + 1`, whose byte count `16 + 8·nnz` wraps a usize,
    /// followed by 16 bytes.
    fn overflowing_sparse_header() -> Vec<u8> {
        let mut b = u64::MAX.to_le_bytes().to_vec();
        b.extend_from_slice(&((1u64 << 61) + 1).to_le_bytes());
        b.extend_from_slice(&[0; 16]);
        b
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

    #[test]
    fn a_sparse_or_padded_frame_whose_byte_count_overflows_is_invalid_data() {
        for padded in [false, true] {
            let mut body = vec![KIND_DATA];
            body.extend_from_slice(&9u32.to_le_bytes());
            body.extend_from_slice(&0.5f64.to_le_bytes());
            if padded {
                body.push(PAYLOAD_PADDED_SPARSE);
                body.extend_from_slice(&u64::MAX.to_le_bytes());
            } else {
                body.push(PAYLOAD_SPARSE);
            }
            body.extend_from_slice(&overflowing_sparse_header());
            let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&body);
            let err = read_frame(&mut io::Cursor::new(&bytes)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "padded: {padded}");
        }
    }

    #[test]
    fn every_cut_of_every_kind_reads_like_the_oracle() {
        let pairs = vec![(3, (0, 0)), (42, (5, 0)), (499, (99, 0x3fc0_0000))];
        let mut body = vec![0xee; 7];
        for kind in 0..9 {
            let bytes = encode(&frame_of(kind, 0x0123_4567_89ab_cdef, pairs.clone()));
            for cut in 0..=bytes.len() {
                reads_like_the_oracle(&bytes[..cut], &mut body)
                    .unwrap_or_else(|e| panic!("kind {kind}, cut {cut}: {e}"));
            }
        }
    }

    #[test]
    fn a_reused_body_reads_short_and_long_frames_alike() {
        let short = encode(&Frame::Heartbeat { epoch: 3 });
        let long = encode(&frame_of(
            3,
            1,
            (0..2_000).map(|i| (i, (99, i * 7919))).collect(),
        ));
        let mut body = Vec::new();
        for bytes in [&long, &short, &long, &short] {
            let read = read_frame_into(&mut io::Cursor::new(bytes), &mut body).unwrap();
            assert_eq!(&encode(&read), bytes);
        }
        assert_eq!(
            body.len(),
            long.len() - 4,
            "the body keeps its longest frame"
        );
    }

    proptest! {
        /// The encoder writes the oracle's bytes for every frame kind and
        /// every value bit pattern — into a fresh or a dirty reused
        /// buffer — and reading them back returns those bits.
        #[test]
        fn prop_encode_matches_the_oracle_for_every_kind(
            kind in 0usize..9,
            word in 0u64..=u64::MAX,
            pairs in proptest::collection::btree_map(0u32..DIM, (0usize..24, 0u32..=u32::MAX), 0..64),
            dirt in proptest::collection::vec(0u8..=255, 0..40),
        ) {
            let f = frame_of(kind, word, pairs.into_iter().collect());
            let bytes = encode(&f);
            prop_assert_eq!(&bytes, &oracle::encode(&f));
            let mut reused = dirt;
            encode_into(&f, &mut reused);
            prop_assert_eq!(&reused, &bytes);
            let back = read_frame(&mut io::Cursor::new(&bytes)).unwrap();
            prop_assert_eq!(encode(&back), bytes);
        }

        /// On mutated bytes — a cut, an index ≥ dim, a non-ascending
        /// pair, nnz > dim, padded nnz > slots, trailing bytes, one
        /// flipped byte — the reader returns what the oracle returns,
        /// whether its body buffer is fresh or left over from earlier
        /// frames.
        #[test]
        fn prop_mutated_frames_read_like_the_oracle(
            padded in 0usize..2,
            pairs in proptest::collection::btree_map(0u32..DIM, (0usize..24, 0u32..=u32::MAX), 1..48),
            mutation in 0usize..7,
            at in 0usize..1 << 16,
            word in 0u32..=u32::MAX,
            leftover in 0usize..1200,
        ) {
            let pairs: Vec<_> = pairs.into_iter().collect();
            let nnz = pairs.len();
            let f = frame_of(4 + 4 * padded, 2, pairs);
            let mut bytes = encode(&f);
            // Offsets: prefix 4, kind 1, tag 4, arrival 8, type 1, then
            // (padded) slots 8, then the wire header dim 8, nnz 8.
            let slots_at = 18;
            let wire_at = 18 + 8 * padded;
            let entry = at % nnz;
            let index_at = |e: usize| wire_at + 16 + 4 * e;
            match mutation {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    // Half the time the last entry, the one a valid
                    // ascending run is range-checked by.
                    let e = if word % 2 == 0 { nnz - 1 } else { entry };
                    let bad = DIM + word % 1000;
                    bytes[index_at(e)..index_at(e) + 4].copy_from_slice(&bad.to_le_bytes());
                }
                2 => {
                    prop_assume!(nnz > 1);
                    let e = entry.max(1);
                    let prev = u32::from_le_bytes(bytes[index_at(e - 1)..index_at(e)].try_into().unwrap());
                    bytes[index_at(e)..index_at(e) + 4].copy_from_slice(&(prev - word % (prev + 1)).to_le_bytes());
                }
                3 => {
                    let over = u64::from(DIM) + 1 + u64::from(word % 64);
                    bytes[wire_at + 8..wire_at + 16].copy_from_slice(&over.to_le_bytes());
                }
                4 => {
                    prop_assume!(padded == 1);
                    let slots = (nnz - 1 - entry) as u64;
                    bytes[slots_at..slots_at + 8].copy_from_slice(&slots.to_le_bytes());
                }
                5 => {
                    let extra = 1 + at % 9;
                    bytes.extend(std::iter::repeat_n(word as u8, extra));
                    let len = (bytes.len() - 4) as u32;
                    bytes[..4].copy_from_slice(&len.to_le_bytes());
                }
                _ => {
                    let i = at % bytes.len();
                    bytes[i] ^= 1 | word as u8;
                }
            }
            let mut body = vec![0x5a; leftover];
            let verdict = reads_like_the_oracle(&bytes, &mut body);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

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
