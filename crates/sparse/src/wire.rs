//! Wire codec for sparse gradients.
//!
//! The paper transmits a sparsified gradient as the pair `[V, I]` — `k`
//! 32-bit values plus `k` 32-bit indices, i.e. `2k` four-byte words, the
//! count behind every `2k` term in Eqs. 6–7. This module makes that wire
//! format explicit: a little-endian framing with a validated decoder, so
//! the byte accounting used by the simulated network corresponds to real
//! serialized bytes.
//!
//! Layout: `dim: u64 | nnz: u64 | indices: nnz × u32 | values: nnz × f32`.
//!
//! This is not only an accounting device: the real-TCP transport
//! (`gtopk_comm::transport`) ships sparse DATA frames in exactly this
//! encoding, so the bytes the simulator charges for are the bytes that
//! cross the socket.
//!
//! Each direction is one pass per array. [`encode_into`] reserves the
//! exact size and appends the indices, then the values, a slice at a time
//! (`to_le_bytes` per 4-byte chunk, a plain copy on a little-endian host);
//! the TCP frame encoder calls it on its own reused send buffer, so there
//! is one encoder and no intermediate `Vec`. [`decode`] converts each
//! array in one slice pass and validates the indices in one branch-free
//! pass, with checked arithmetic on every length the header declares. The
//! layout above is unchanged byte for byte, and every malformed input
//! gets the same [`WireError`] a per-entry decoder gives it (the unit
//! tests keep that decoder as their oracle).

use crate::SparseVec;
use std::fmt;

/// Bytes of framing overhead (dim + nnz header).
pub const HEADER_BYTES: usize = 16;

/// Decoding error for the sparse wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than its header or declared body.
    Truncated {
        /// Bytes required.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// `nnz` exceeds `dim`, or an index is out of range / out of order.
    Malformed {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { expected, actual } => {
                write!(f, "buffer truncated: need {expected} bytes, have {actual}")
            }
            WireError::Malformed { reason } => write!(f, "malformed sparse frame: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bytes the encoding of `v` occupies: the header plus `8·nnz`.
pub fn encoded_len(v: &SparseVec) -> usize {
    HEADER_BYTES + 8 * v.nnz()
}

/// Serializes a sparse vector to the wire format.
///
/// The body is exactly `8·nnz` bytes (`2·nnz` four-byte words) plus the
/// 16-byte header — the paper's `2k` accounting.
///
/// # Examples
///
/// ```
/// use gtopk_sparse::{SparseVec, wire};
/// let v = SparseVec::from_pairs(100, vec![(3, 1.5), (42, -2.0)]);
/// let bytes = wire::encode(&v);
/// assert_eq!(bytes.len(), wire::HEADER_BYTES + 2 * 8);
/// assert_eq!(wire::decode(&bytes).unwrap(), v);
/// ```
pub fn encode(v: &SparseVec) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(v, &mut out);
    out
}

/// Appends the encoding of `v` to `out` — the one sparse encoder, which
/// [`encode`] and the TCP frame encoder both call on their own buffer.
///
/// Reserves [`encoded_len`] up front, so a buffer that already has the
/// room is written without allocating.
pub fn encode_into(v: &SparseVec, out: &mut Vec<u8>) {
    out.reserve(encoded_len(v));
    out.extend_from_slice(&(v.dim() as u64).to_le_bytes());
    out.extend_from_slice(&(v.nnz() as u64).to_le_bytes());
    put_words(out, v.indices(), u32::to_le_bytes);
    put_words(out, v.values(), f32::to_le_bytes);
}

/// Appends `xs` to `out` as little-endian 4-byte words in one slice pass
/// (`to_le_bytes` per 4-byte chunk is a plain copy on a little-endian
/// host).
pub fn put_words<T: Copy>(out: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; 4]) {
    let start = out.len();
    out.resize(start + 4 * xs.len(), 0);
    for (dst, &x) in out[start..].chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&to_le(x));
    }
}

/// Reads `bytes` as little-endian 4-byte words in one slice pass (a
/// trailing partial word is ignored; callers pass whole words).
pub fn read_words<T>(bytes: &[u8], from_le: impl Fn([u8; 4]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(4)
        .map(|w| from_le(w.try_into().expect("4-byte chunk")))
        .collect()
}

/// Deserializes and validates a sparse vector from the wire format.
///
/// Bytes past the declared body are ignored.
///
/// # Errors
///
/// [`WireError::Truncated`] if the buffer is too short — including a
/// header whose `nnz` implies more bytes than a `usize` can count;
/// [`WireError::Malformed`] if `nnz > dim`, indices are out of range, or
/// not strictly ascending.
pub fn decode(bytes: &[u8]) -> Result<SparseVec, WireError> {
    let Some(header) = bytes.get(..HEADER_BYTES) else {
        return Err(WireError::Truncated {
            expected: HEADER_BYTES,
            actual: bytes.len(),
        });
    };
    let dim = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes")) as usize;
    let nnz = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) as usize;
    if nnz > dim {
        return Err(WireError::Malformed {
            reason: "nnz exceeds dimension",
        });
    }
    // `nnz ≤ dim` still admits any count up to 2^64 − 1, so the body
    // length is computed with checked arithmetic: a length no buffer can
    // hold is a truncated buffer, not a wrapped bound.
    let need = nnz.checked_mul(8).and_then(|b| b.checked_add(HEADER_BYTES));
    let Some(body) = need.and_then(|n| bytes.get(HEADER_BYTES..n)) else {
        return Err(WireError::Truncated {
            expected: need.unwrap_or(usize::MAX),
            actual: bytes.len(),
        });
    };
    let (raw_indices, raw_values) = body.split_at(4 * nnz);
    let indices = read_words(raw_indices, u32::from_le_bytes);
    check_indices(&indices, dim)?;
    let values = read_words(raw_values, f32::from_le_bytes);
    Ok(SparseVec {
        dim,
        indices,
        values,
    })
}

/// Every index `< dim` and strictly ascending.
fn check_indices(indices: &[u32], dim: usize) -> Result<(), WireError> {
    // The valid case is one branch-free pass: strictly ascending indices
    // are all in range iff the last one is.
    let ascending = indices.windows(2).fold(true, |ok, w| ok & (w[0] < w[1]));
    if ascending && indices.last().is_none_or(|&i| (i as usize) < dim) {
        return Ok(());
    }
    // Otherwise name the first offending entry, range before order — the
    // order a per-entry check meets them in.
    let mut prev = None;
    for &i in indices {
        if i as usize >= dim {
            return Err(WireError::Malformed {
                reason: "index out of range",
            });
        }
        if prev.is_some_and(|p| i <= p) {
            return Err(WireError::Malformed {
                reason: "indices not strictly ascending",
            });
        }
        prev = Some(i);
    }
    Ok(())
}

#[cfg(test)]
mod oracle {
    //! The per-element codec the slice passes replaced, kept verbatim as
    //! the reference they must match byte for byte and error for error.

    use super::{WireError, HEADER_BYTES};
    use crate::SparseVec;

    pub fn encode(v: &SparseVec) -> Vec<u8> {
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

    pub fn decode(bytes: &[u8]) -> Result<SparseVec, WireError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit patterns a value round-trip must preserve: quiet and
    /// signalling NaNs with payloads and either sign, ±0.0, the smallest
    /// and largest denormals, ±inf.
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

    /// A vector of dimension `dim` from `(index, (pick, bits))` pairs:
    /// `pick` below `SPECIAL_BITS.len()` takes that special value, any
    /// other pick the raw `bits`.
    fn vector_of(dim: usize, pairs: Vec<(u32, (usize, u32))>) -> SparseVec {
        let (indices, values) = pairs
            .into_iter()
            .map(|(i, (pick, bits))| {
                let bits = SPECIAL_BITS.get(pick).copied().unwrap_or(bits);
                (i, f32::from_bits(bits))
            })
            .unzip();
        SparseVec::from_sorted(dim, indices, values)
    }

    /// `decode` and the oracle agree: the same `Ok` vector bit for bit,
    /// or the same error.
    fn agrees_with_oracle(bytes: &[u8]) -> Result<(), String> {
        match (decode(bytes), oracle::decode(bytes)) {
            (Ok(a), Ok(b)) => {
                let bits =
                    |v: &SparseVec| v.values().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                if a.dim() == b.dim() && a.indices() == b.indices() && bits(&a) == bits(&b) {
                    Ok(())
                } else {
                    Err(format!("decoded {a:?}, oracle {b:?}"))
                }
            }
            (Err(a), Err(b)) if a == b => Ok(()),
            (a, b) => Err(format!("decoded {a:?}, oracle {b:?}")),
        }
    }

    #[test]
    fn roundtrip_basic() {
        let v = SparseVec::from_pairs(64, vec![(0, 1.0), (7, -2.5), (63, 0.25)]);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn empty_vector_roundtrips() {
        let v = SparseVec::empty(10);
        let bytes = encode(&v);
        assert_eq!(bytes.len(), HEADER_BYTES);
        assert_eq!(decode(&bytes).unwrap(), v);
    }

    #[test]
    fn body_is_2k_words() {
        let k = 25usize;
        let v = SparseVec::from_pairs(1000, (0..k as u32).map(|i| (i * 3, 1.0)).collect());
        assert_eq!(encode(&v).len() - HEADER_BYTES, 2 * k * 4);
    }

    #[test]
    fn truncated_buffers_rejected() {
        let v = SparseVec::from_pairs(16, vec![(1, 1.0), (2, 2.0)]);
        let bytes = encode(&v);
        assert!(matches!(
            decode(&bytes[..10]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn malformed_frames_rejected() {
        // nnz > dim
        let mut bad = Vec::new();
        bad.extend_from_slice(&2u64.to_le_bytes());
        bad.extend_from_slice(&3u64.to_le_bytes());
        bad.extend_from_slice(&[0u8; 24]);
        assert!(matches!(decode(&bad), Err(WireError::Malformed { .. })));

        // index out of range
        let v = SparseVec::from_pairs(4, vec![(1, 1.0)]);
        let mut bytes = encode(&v);
        bytes[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(decode(&bytes), Err(WireError::Malformed { .. })));

        // out-of-order indices
        let v2 = SparseVec::from_pairs(8, vec![(2, 1.0), (5, 2.0)]);
        let mut bytes2 = encode(&v2);
        bytes2[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&6u32.to_le_bytes());
        assert!(matches!(decode(&bytes2), Err(WireError::Malformed { .. })));
    }

    #[test]
    fn display_messages_are_informative() {
        let e = WireError::Truncated {
            expected: 16,
            actual: 3,
        };
        assert!(e.to_string().contains("16"));
        let m = WireError::Malformed {
            reason: "index out of range",
        };
        assert!(m.to_string().contains("index"));
    }

    #[test]
    fn a_header_whose_byte_count_overflows_is_truncated_not_a_panic() {
        // nnz ≤ dim holds, but 8·nnz wraps a usize: a 32-byte buffer must
        // not pass a wrapped length check into an impossible allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&((1u64 << 61) + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode(&bytes),
            Err(WireError::Truncated {
                expected: usize::MAX,
                actual: 32
            })
        );
    }

    #[test]
    fn every_truncation_errs_like_the_oracle() {
        let v = SparseVec::from_pairs(40, vec![(0, 1.0), (7, -2.5), (39, f32::NAN)]);
        let bytes = encode(&v);
        for cut in 0..=bytes.len() {
            agrees_with_oracle(&bytes[..cut]).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        }
    }

    proptest! {
        /// The encoder writes the oracle's bytes for every vector and
        /// every value bit pattern, and decoding returns those bits.
        #[test]
        fn prop_encode_matches_the_oracle_and_roundtrips_bits(
            dim in 1usize..600,
            pairs in proptest::collection::btree_map(0u32..600, (0usize..24, 0u32..=u32::MAX), 0..80),
        ) {
            let pairs: Vec<_> = pairs.into_iter().filter(|&(i, _)| (i as usize) < dim).collect();
            let v = vector_of(dim, pairs);
            let bytes = encode(&v);
            prop_assert_eq!(&bytes, &oracle::encode(&v));
            prop_assert_eq!(bytes.len(), encoded_len(&v));
            let mut appended = vec![0xab; 3];
            encode_into(&v, &mut appended);
            prop_assert_eq!(&appended[3..], &bytes[..]);
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back.dim(), v.dim());
            prop_assert_eq!(back.indices(), v.indices());
            for (a, b) in back.values().iter().zip(v.values()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// On mutated bytes — a cut, an index ≥ dim, a non-ascending
        /// pair, nnz > dim, trailing bytes, one flipped byte — the decoder
        /// returns exactly what the oracle returns.
        #[test]
        fn prop_mutated_bytes_decode_like_the_oracle(
            pairs in proptest::collection::btree_map(0u32..300, (0usize..24, 0u32..=u32::MAX), 1..48),
            mutation in 0usize..6,
            at in 0usize..1 << 16,
            word in 0u32..=u32::MAX,
        ) {
            let v = vector_of(300, pairs.into_iter().collect());
            let mut bytes = encode(&v);
            let nnz = v.nnz();
            let entry = at % nnz;
            let index_at = HEADER_BYTES + 4 * entry;
            match mutation {
                0 => bytes.truncate(at % bytes.len()),
                1 => {
                    // Half the time the last entry, the one a valid
                    // ascending run is range-checked by.
                    let at = if word % 2 == 0 { HEADER_BYTES + 4 * (nnz - 1) } else { index_at };
                    let bad = 300 + word % 1000;
                    bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
                }
                2 => {
                    // Entry `entry` no larger than its predecessor (or,
                    // for the first entry, its successor no larger).
                    let (lo, hi) = if entry == 0 { (0, 1) } else { (entry - 1, entry) };
                    prop_assume!(hi < nnz);
                    let prev = v.indices()[lo];
                    let at_hi = HEADER_BYTES + 4 * hi;
                    bytes[at_hi..at_hi + 4].copy_from_slice(&(prev - word % (prev + 1)).to_le_bytes());
                }
                3 => {
                    let over = 301 + u64::from(word % 64);
                    bytes[8..16].copy_from_slice(&over.to_le_bytes());
                }
                4 => bytes.extend(std::iter::repeat_n(word as u8, 1 + at % 9)),
                _ => {
                    let i = at % bytes.len();
                    bytes[i] ^= 1 | word as u8;
                }
            }
            prop_assert!(agrees_with_oracle(&bytes).is_ok(), "{:?}", agrees_with_oracle(&bytes));
        }

        /// Every valid sparse vector roundtrips bit-exactly, and the
        /// frame size matches the paper's 2k accounting.
        #[test]
        fn prop_roundtrip(pairs in proptest::collection::btree_map(0u32..500, -1e6f32..1e6, 0..64)) {
            let v = SparseVec::from_pairs(500, pairs.into_iter().collect());
            let bytes = encode(&v);
            prop_assert_eq!(bytes.len(), HEADER_BYTES + 8 * v.nnz());
            let back = decode(&bytes).unwrap();
            prop_assert_eq!(back.indices(), v.indices());
            // Bit-exact values (NaN-free domain).
            for (a, b) in back.values().iter().zip(v.values()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        /// A top-k extraction from any dense gradient produces a frame
        /// of exactly `16 + 8·min(k, nnz)` bytes that roundtrips
        /// bit-exactly — the wire cost the α-β model charges per `2k`
        /// words is the cost the codec actually pays, for every k.
        #[test]
        fn prop_topk_extraction_roundtrips(
            dense in proptest::collection::vec(-1e3f32..1e3, 1..200),
            k in 1usize..64,
        ) {
            let v = crate::topk_sparse(&dense, k);
            prop_assert!(v.nnz() <= k.min(dense.len()));
            prop_assert!(v.values().iter().all(|x| x.is_finite()), "top-k must be NaN-free");
            let bytes = encode(&v);
            prop_assert_eq!(bytes.len(), HEADER_BYTES + 8 * v.nnz());
            prop_assert_eq!(decode(&bytes).unwrap(), v);
        }

        /// Empty frames are 16 bytes for any dimension and roundtrip.
        #[test]
        fn prop_empty_roundtrips_at_any_dim(dim in 0usize..100_000) {
            let v = SparseVec::empty(dim);
            let bytes = encode(&v);
            prop_assert_eq!(bytes.len(), HEADER_BYTES);
            prop_assert_eq!(decode(&bytes).unwrap(), v);
        }

        /// Every strict prefix of a valid frame is rejected as
        /// truncated — a partially received buffer can never decode
        /// into a plausible-but-wrong gradient.
        #[test]
        fn prop_truncation_always_detected(
            pairs in proptest::collection::btree_map(0u32..300, -1e3f32..1e3, 1..32),
            cut_frac in 0.0f64..1.0,
        ) {
            let v = SparseVec::from_pairs(300, pairs.into_iter().collect());
            let bytes = encode(&v);
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            let truncated = matches!(decode(&bytes[..cut]), Err(WireError::Truncated { .. }));
            prop_assert!(truncated, "prefix of {} of {} bytes decoded", cut, bytes.len());
        }
    }
}
