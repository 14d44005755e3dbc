//! Durable on-disk checkpoints for elastic recovery.
//!
//! PR 3's fault tolerance keeps checkpoints in process memory, which is
//! exactly what a crashed *process* loses. This module persists the full
//! per-rank training state — model weights, optimizer momentum, the
//! error-feedback residual(s), selector RNG state, data-iterator
//! position, and per-epoch accounting — so a SIGKILLed rank can restart
//! from disk and rejoin the membership (see `gtopk::ft`).
//!
//! Layout of one checkpoint file:
//!
//! ```text
//! magic   u32  "GTKC" (0x4354_4b47 LE on disk)
//! version u32  = 1
//! crc     u32  CRC-32/IEEE over the payload bytes
//! len     u64  payload byte count
//! payload ...  sections (see `encode`)
//! ```
//!
//! Every dense `f32` vector section rides through the property-tested
//! [`gtopk_sparse::wire`] codec (as a fully-dense sparse vector), so the
//! same validated decoder that guards gradients on the TCP wire guards
//! the restart path: a truncated or bit-flipped section is *detected*,
//! never decoded into a plausible-but-wrong state. On top of that, the
//! whole-file CRC rejects torn writes before any section is parsed.
//!
//! Writes are atomic — tmp file, `fsync`, rename, directory `fsync` — and
//! a keep-last-N manifest bounds disk use while retaining enough history
//! for the rejoin protocol's rollback point (survivors may have rolled
//! back to a boundary up to one interval *before* this rank's newest
//! durable generation).

use crate::selector::{Selector, SelectorState};
use gtopk_sparse::{wire, SparseVec};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// File magic: `"GTKC"`.
const MAGIC: u32 = u32::from_le_bytes(*b"GTKC");
/// Format version.
const VERSION: u32 = 1;
/// Fixed header size: magic + version + crc + payload length.
const HEADER_BYTES: usize = 4 + 4 + 4 + 8;
/// Default number of generations retained per rank.
pub const DEFAULT_KEEP: usize = 3;

/// Decoding / validation failure of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The buffer is shorter than its header or declared payload.
    Truncated {
        /// Bytes required.
        expected: usize,
        /// Bytes present.
        actual: usize,
    },
    /// Magic/version mismatch, CRC failure, or a malformed section.
    Corrupt {
        /// Human-readable reason.
        reason: &'static str,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated { expected, actual } => {
                write!(
                    f,
                    "checkpoint truncated: need {expected} bytes, have {actual}"
                )
            }
            CkptError::Corrupt { reason } => write!(f, "checkpoint corrupt: {reason}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Serializable snapshot of one selection kernel (the kind plus the raw
/// xoshiro256** stream position, so sampled kernels replay bit-exactly
/// after a process restart).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectorDump {
    /// The configured kernel.
    pub selector: Selector,
    /// Raw RNG state ([`SelectorState::rng_state`]).
    pub rng: [u64; 4],
}

impl SelectorDump {
    /// Captures a live selector state.
    pub fn capture(state: &SelectorState) -> Self {
        SelectorDump {
            selector: state.selector(),
            rng: state.rng_state(),
        }
    }

    /// Rebuilds the live state, continuing the RNG stream exactly.
    pub fn revive(&self) -> SelectorState {
        SelectorState::from_parts(self.selector, self.rng)
    }
}

/// Aggregation-engine state at a checkpoint boundary — the durable twin
/// of the trainer's in-memory engine snapshot, *including* the selector
/// state the in-memory path deliberately omits (a same-process rollback
/// keeps the kernel's RNG naturally; a process restart must persist it).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineState {
    /// The bucketed engine: per-bucket residuals and selector states, in
    /// backward bucket order (one bucket without `--overlap`, `mode ps`
    /// included).
    Buckets {
        /// Per-bucket dense residual copies.
        residuals: Vec<Vec<f32>>,
        /// Per-bucket selector states.
        selectors: Vec<SelectorDump>,
    },
}

/// The complete durable training state of one rank at an iteration
/// boundary. Restoring this on a fresh process and replaying from
/// `iter` is bit-identical to never having crashed.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableCheckpoint {
    /// Owning rank (sanity-checked on load).
    pub rank: u64,
    /// Global iteration this state corresponds to.
    pub iter: u64,
    /// Flat model parameters.
    pub params: Vec<f32>,
    /// Optimizer momentum buffer.
    pub velocity: Vec<f32>,
    /// Aggregation-engine state (residuals + selectors).
    pub engine: EngineState,
    /// DGC-style local momentum buffer, when momentum correction is on.
    pub local_velocity: Option<Vec<f32>>,
    /// Data iterator epoch ([`gtopk_data::BatchIter::position`]).
    pub data_epoch: u64,
    /// Data iterator cursor.
    pub data_cursor: u64,
    /// Partial loss accumulator of the in-flight epoch.
    pub epoch_loss: f64,
    /// Completed epochs' mean losses.
    pub losses: Vec<f64>,
    /// Completed epochs' eval accuracies.
    pub evals: Vec<Option<f64>>,
}

/// CRC-32/IEEE (the polynomial used by gzip/PNG), bitwise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes a dense `f32` vector section through the sparse wire codec: a
/// fully-dense `SparseVec` (indices `0..n`), length-prefixed.
fn put_fvec(out: &mut Vec<u8>, v: &[f32]) {
    let sv = SparseVec::from_sorted(v.len(), (0..v.len() as u32).collect(), v.to_vec());
    let bytes = wire::encode(&sv);
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(&bytes);
}

fn put_selector(out: &mut Vec<u8>, s: &SelectorDump) {
    let (kind, sample) = match s.selector {
        Selector::Exact => (0u8, 0usize),
        Selector::Sampled { sample } => (1, sample),
    };
    out.push(kind);
    put_u64(out, sample as u64);
    for w in s.rng {
        put_u64(out, w);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        // `n` may be a length read from the payload itself: a hostile
        // value must not overflow the bound it is checked against.
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(CkptError::Truncated {
                expected: self.pos.saturating_add(n),
                actual: self.buf.len(),
            });
        };
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn fvec(&mut self) -> Result<Vec<f32>, CkptError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        let bytes = self.take(n)?;
        let sv = wire::decode(bytes).map_err(|_| CkptError::Corrupt {
            reason: "vector section failed wire validation",
        })?;
        if sv.nnz() != sv.dim() {
            return Err(CkptError::Corrupt {
                reason: "vector section is not fully dense",
            });
        }
        let (_dim, _indices, values) = sv.into_parts();
        Ok(values)
    }

    fn selector(&mut self) -> Result<SelectorDump, CkptError> {
        let kind = self.u8()?;
        let sample = self.u64()? as usize;
        let selector = match kind {
            0 => Selector::Exact,
            1 => Selector::Sampled { sample },
            // Tag 2 was the retired threshold-estimate selector.
            _ => {
                return Err(CkptError::Corrupt {
                    reason: "unknown selector kind",
                })
            }
        };
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = self.u64()?;
        }
        Ok(SelectorDump { selector, rng })
    }
}

/// Serializes a checkpoint to its on-disk byte representation (header +
/// CRC-protected payload).
pub fn encode(c: &DurableCheckpoint) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, c.rank);
    put_u64(&mut p, c.iter);
    put_u64(&mut p, c.data_epoch);
    put_u64(&mut p, c.data_cursor);
    put_f64(&mut p, c.epoch_loss);
    // Modes 0 (a whole-vector residual with an optional selector) and 4
    // (the parameter server's residual) are no longer written; `decode`
    // reads each as the one bucket it was.
    p.push(1 | if c.local_velocity.is_some() { 2 } else { 0 });
    put_fvec(&mut p, &c.params);
    put_fvec(&mut p, &c.velocity);
    if let Some(lv) = &c.local_velocity {
        put_fvec(&mut p, lv);
    }
    let EngineState::Buckets {
        residuals,
        selectors,
    } = &c.engine;
    assert_eq!(residuals.len(), selectors.len(), "bucket count mismatch");
    put_u64(&mut p, residuals.len() as u64);
    for (r, s) in residuals.iter().zip(selectors) {
        put_fvec(&mut p, r);
        put_selector(&mut p, s);
    }
    put_u64(&mut p, c.losses.len() as u64);
    for &l in &c.losses {
        put_f64(&mut p, l);
    }
    put_u64(&mut p, c.evals.len() as u64);
    for e in &c.evals {
        match e {
            Some(v) => {
                p.push(1);
                put_f64(&mut p, *v);
            }
            None => p.push(0),
        }
    }

    let mut out = Vec::with_capacity(HEADER_BYTES + p.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&p).to_le_bytes());
    out.extend_from_slice(&(p.len() as u64).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Deserializes and fully validates a checkpoint from bytes.
///
/// # Errors
///
/// [`CkptError::Truncated`] when the buffer is shorter than declared;
/// [`CkptError::Corrupt`] on magic/version/CRC mismatch or any section
/// failing validation. A partial or bit-flipped file can never decode.
pub fn decode(bytes: &[u8]) -> Result<DurableCheckpoint, CkptError> {
    if bytes.len() < HEADER_BYTES {
        return Err(CkptError::Truncated {
            expected: HEADER_BYTES,
            actual: bytes.len(),
        });
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(CkptError::Corrupt {
            reason: "bad magic",
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CkptError::Corrupt {
            reason: "unsupported version",
        });
    }
    let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    // The length is read before the CRC can vouch for it: bound it by what
    // is actually there instead of trusting it in arithmetic.
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let Some(payload) = bytes[HEADER_BYTES..].get(..len) else {
        return Err(CkptError::Truncated {
            expected: HEADER_BYTES.saturating_add(len),
            actual: bytes.len(),
        });
    };
    if crc32(payload) != crc {
        return Err(CkptError::Corrupt {
            reason: "payload CRC mismatch",
        });
    }
    let mut r = Reader {
        buf: payload,
        pos: 0,
    };
    let rank = r.u64()?;
    let iter = r.u64()?;
    let data_epoch = r.u64()?;
    let data_cursor = r.u64()?;
    let epoch_loss = r.f64()?;
    let flags = r.u8()?;
    let params = r.fvec()?;
    let velocity = r.fvec()?;
    let local_velocity = if flags & 2 != 0 {
        Some(r.fvec()?)
    } else {
        None
    };
    let engine = if flags & 4 != 0 {
        // Mode 4, the parameter server's whole-vector residual, is the
        // one-bucket state of a `mode ps` run, whose exact selection
        // never advances the rank's selector stream.
        EngineState::Buckets {
            residuals: vec![r.fvec()?],
            selectors: vec![SelectorDump::capture(&SelectorState::new(
                Selector::Exact,
                rank as usize,
            ))],
        }
    } else {
        // Mode 0, a run without buckets, is exactly the one-bucket state:
        // a whole-vector residual, then a selector flag and the selector.
        let mode0 = flags & 1 == 0;
        let n = if mode0 { 1 } else { r.u64()? as usize };
        if n > 1 << 20 {
            return Err(CkptError::Corrupt {
                reason: "implausible bucket count",
            });
        }
        let mut residuals = Vec::with_capacity(n);
        let mut selectors = Vec::with_capacity(n);
        for _ in 0..n {
            residuals.push(r.fvec()?);
            if mode0 && r.u8()? == 0 {
                return Err(CkptError::Corrupt {
                    reason: "whole-vector section without selector state",
                });
            }
            selectors.push(r.selector()?);
        }
        EngineState::Buckets {
            residuals,
            selectors,
        }
    };
    let n_losses = r.u64()? as usize;
    if n_losses > 1 << 24 {
        return Err(CkptError::Corrupt {
            reason: "implausible loss count",
        });
    }
    let mut losses = Vec::with_capacity(n_losses);
    for _ in 0..n_losses {
        losses.push(r.f64()?);
    }
    let n_evals = r.u64()? as usize;
    if n_evals > 1 << 24 {
        return Err(CkptError::Corrupt {
            reason: "implausible eval count",
        });
    }
    let mut evals = Vec::with_capacity(n_evals);
    for _ in 0..n_evals {
        evals.push(if r.u8()? != 0 { Some(r.f64()?) } else { None });
    }
    Ok(DurableCheckpoint {
        rank,
        iter,
        params,
        velocity,
        engine,
        local_velocity,
        data_epoch,
        data_cursor,
        epoch_loss,
        losses,
        evals,
    })
}

// ---------------------------------------------------------------------
// On-disk store
// ---------------------------------------------------------------------

/// A per-rank durable checkpoint directory: atomic generation writes, a
/// keep-last-N manifest, and corrupt-fallback loading.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: usize,
    keep: usize,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store for `rank` under `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>, rank: usize) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            rank,
            keep: DEFAULT_KEEP,
        })
    }

    /// Same store with a different retention depth (`keep >= 1`).
    #[must_use]
    pub fn with_keep(mut self, keep: usize) -> Self {
        assert!(keep >= 1, "must retain at least one generation");
        self.keep = keep;
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(&self, iter: u64) -> String {
        format!("ckpt-{:04}-{:012}.bin", self.rank, iter)
    }

    fn manifest_name(&self) -> String {
        format!("manifest-{:04}.txt", self.rank)
    }

    /// Atomically writes `bytes` to `dir/name`: tmp file, `fsync`,
    /// rename, directory `fsync`. A crash at any point leaves either the
    /// old file or the new one — never a torn mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(".tmp-{}-{name}", std::process::id()));
        let written = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .and_then(|mut f| {
                f.write_all(bytes)?;
                f.sync_all()
            })
            .and_then(|()| fs::rename(&tmp, self.dir.join(name)));
        if let Err(err) = written {
            // A full disk must not also keep a partial tmp file.
            let _ = fs::remove_file(&tmp);
            return Err(err);
        }
        // Persist the rename itself.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Durably saves one generation and prunes beyond the retention
    /// depth. The manifest is rewritten (atomically) after the data file
    /// is safely in place.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the store is left consistent (at worst
    /// the new generation exists without a manifest entry, which the
    /// scan fallback still finds).
    ///
    /// # Panics
    ///
    /// Panics if `state.rank` disagrees with the store's rank.
    pub fn save(&self, state: &DurableCheckpoint) -> io::Result<()> {
        assert_eq!(state.rank as usize, self.rank, "rank mismatch");
        self.write_atomic(&self.file_name(state.iter), &encode(state))?;
        let mut gens = self.scan_generations();
        while gens.len() > self.keep {
            let oldest = gens.remove(0);
            let _ = fs::remove_file(self.dir.join(self.file_name(oldest)));
        }
        let manifest: String = gens.iter().map(|g| format!("{g}\n")).collect();
        self.write_atomic(&self.manifest_name(), manifest.as_bytes())
    }

    /// Generations currently on disk for this rank, ascending. Reads the
    /// manifest when present and intact, otherwise scans the directory —
    /// so a crash between data write and manifest write loses nothing.
    pub fn generations(&self) -> Vec<u64> {
        if let Ok(text) = fs::read_to_string(self.dir.join(self.manifest_name())) {
            let parsed: Option<Vec<u64>> = text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(|l| l.trim().parse().ok())
                .collect();
            if let Some(mut gens) = parsed {
                gens.sort_unstable();
                // The scan union covers generations written after the
                // last manifest update (crash window).
                let scanned = self.scan_generations();
                for g in scanned {
                    if !gens.contains(&g) {
                        gens.push(g);
                    }
                }
                gens.sort_unstable();
                gens.retain(|g| self.dir.join(self.file_name(*g)).exists());
                return gens;
            }
        }
        self.scan_generations()
    }

    fn scan_generations(&self) -> Vec<u64> {
        let prefix = format!("ckpt-{:04}-", self.rank);
        let mut gens: Vec<u64> = fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| {
                    let name = e.ok()?.file_name().into_string().ok()?;
                    let rest = name.strip_prefix(&prefix)?.strip_suffix(".bin")?;
                    rest.parse().ok()
                })
                .collect()
            })
            .unwrap_or_default();
        gens.sort_unstable();
        gens
    }

    /// Loads and validates one specific generation.
    ///
    /// # Errors
    ///
    /// [`CkptError`] as for [`decode`]; unreadable files surface as
    /// [`CkptError::Corrupt`].
    pub fn load(&self, iter: u64) -> Result<DurableCheckpoint, CkptError> {
        let path = self.dir.join(self.file_name(iter));
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|_| CkptError::Corrupt {
                reason: "checkpoint file unreadable",
            })?;
        let c = decode(&bytes)?;
        if c.iter != iter || c.rank as usize != self.rank {
            return Err(CkptError::Corrupt {
                reason: "checkpoint identity mismatch",
            });
        }
        Ok(c)
    }

    /// Loads the newest generation that validates, walking backwards
    /// past truncated/corrupt files. Returns the state plus the number
    /// of newer generations that were rejected (0 on the happy path);
    /// `None` when no generation validates.
    pub fn load_latest(&self) -> Option<(DurableCheckpoint, usize)> {
        let gens = self.generations();
        for (skipped, &g) in gens.iter().rev().enumerate() {
            if let Ok(c) = self.load(g) {
                return Some((c, skipped));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Two buckets with `overlap`, else the one bucket of a run without
    /// `--overlap`.
    fn sample_ckpt(iter: u64, overlap: bool) -> DurableCheckpoint {
        let engine = if overlap {
            EngineState::Buckets {
                residuals: vec![vec![1.0, -2.0], vec![0.0, 3.5, -0.25]],
                selectors: vec![
                    SelectorDump {
                        selector: Selector::Sampled { sample: 64 },
                        rng: [1, 2, 3, 4],
                    },
                    SelectorDump {
                        selector: Selector::Exact,
                        rng: [5, 6, 7, 8],
                    },
                ],
            }
        } else {
            EngineState::Buckets {
                residuals: vec![vec![0.5, 0.0, -1.5]],
                selectors: vec![SelectorDump {
                    selector: Selector::Sampled { sample: 16 },
                    rng: [9, 10, 11, 12],
                }],
            }
        };
        DurableCheckpoint {
            rank: 2,
            iter,
            params: vec![1.0, -0.5, 0.25, 3.0],
            velocity: vec![0.1, 0.2, -0.3, 0.0],
            engine,
            local_velocity: if overlap { None } else { Some(vec![7.0; 4]) },
            data_epoch: 3,
            data_cursor: 40,
            epoch_loss: 1.234,
            losses: vec![2.0, 1.5, 1.1],
            evals: vec![None, Some(0.75), Some(0.8)],
        }
    }

    #[test]
    fn roundtrip_serial_and_overlap() {
        for overlap in [false, true] {
            let c = sample_ckpt(40, overlap);
            assert_eq!(decode(&encode(&c)).unwrap(), c, "overlap={overlap}");
        }
    }

    /// A parameter-server checkpoint as its own engine wrote it (mode 4,
    /// with local momentum): rank 2 at iteration 25, the rest of
    /// `sample_ckpt(25, false)`, and the whole-vector residual
    /// `[0.25, -0.0, 1.5, f32::MIN_POSITIVE]`.
    const MODE4: [u8; 344] = [
        0x47, 0x54, 0x4b, 0x43, 0x01, 0x00, 0x00, 0x00, 0xe1, 0xd5, 0x92, 0xe7, 0x44, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x19, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x58, 0x39, 0xb4, 0xc8, 0x76, 0xbe, 0xf3, 0x3f,
        0x06, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x3f,
        0x00, 0x00, 0x00, 0xbf, 0x00, 0x00, 0x80, 0x3e, 0x00, 0x00, 0x40, 0x40, 0x30, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02,
        0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0xcd, 0xcc, 0xcc, 0x3d, 0xcd, 0xcc, 0x4c, 0x3e,
        0x9a, 0x99, 0x99, 0xbe, 0x00, 0x00, 0x00, 0x00, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x40, 0x00, 0x00, 0xe0, 0x40, 0x00, 0x00, 0xe0, 0x40,
        0x00, 0x00, 0xe0, 0x40, 0x30, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x80, 0x3e, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0xc0, 0x3f, 0x00, 0x00, 0x80, 0x00,
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99,
        0xf1, 0x3f, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xe8, 0x3f, 0x01, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xe9, 0x3f,
    ];

    #[test]
    fn a_mode_four_payload_decodes_as_one_bucket() {
        let back = decode(&MODE4).unwrap();
        let want = DurableCheckpoint {
            engine: EngineState::Buckets {
                residuals: vec![vec![0.25, -0.0, 1.5, f32::MIN_POSITIVE]],
                selectors: vec![SelectorDump::capture(&SelectorState::new(
                    Selector::Exact,
                    2,
                ))],
            },
            ..sample_ckpt(25, false)
        };
        assert_eq!(back, want);
        // PartialEq treats -0.0 == +0.0; pin the sign bit explicitly so
        // a restored residual replays bit-identically.
        let EngineState::Buckets { residuals, .. } = &back.engine;
        assert_eq!(residuals[0][1].to_bits(), (-0.0f32).to_bits());
        // Written again, it takes the one-bucket layout.
        let rewritten = encode(&back);
        assert_ne!(rewritten[..], MODE4[..]);
        assert_eq!(decode(&rewritten).unwrap(), want);
    }

    #[test]
    fn crc_rejects_any_flipped_payload_byte() {
        let bytes = encode(&sample_ckpt(10, false));
        for pos in [HEADER_BYTES, HEADER_BYTES + 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(decode(&bad), Err(CkptError::Corrupt { .. })),
                "flip at {pos} must be caught"
            );
        }
    }

    #[test]
    fn truncation_always_detected() {
        let bytes = encode(&sample_ckpt(10, true));
        for cut in [0, 3, HEADER_BYTES - 1, HEADER_BYTES + 5, bytes.len() - 1] {
            assert!(
                matches!(decode(&bytes[..cut]), Err(CkptError::Truncated { .. })),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let bytes = encode(&sample_ckpt(10, false));
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode(&bad), Err(CkptError::Corrupt { .. })));
        let mut v2 = bytes;
        v2[4] = 99;
        assert!(matches!(decode(&v2), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn store_saves_prunes_and_reloads() {
        let dir = std::env::temp_dir().join(format!("gtopk-ckpt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap().with_keep(3);
        for it in (0..60).step_by(10) {
            store.save(&sample_ckpt(it, false)).unwrap();
        }
        assert_eq!(store.generations(), vec![30, 40, 50], "keep-3 pruning");
        let (latest, skipped) = store.load_latest().unwrap();
        assert_eq!(latest.iter, 50);
        assert_eq!(skipped, 0);
        assert_eq!(store.load(30).unwrap().iter, 30);
        // No tmp litter after atomic writes.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "tmp files must not survive a save");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_newest_generation_falls_back_to_previous() {
        let dir = std::env::temp_dir().join(format!("gtopk-ckpt-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        store.save(&sample_ckpt(10, true)).unwrap();
        store.save(&sample_ckpt(20, true)).unwrap();
        // Tear the newest file: truncate to half.
        let newest = dir.join("ckpt-0002-000000000020.bin");
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (c, skipped) = store.load_latest().unwrap();
        assert_eq!(c.iter, 10, "must fall back past the torn file");
        assert_eq!(skipped, 1, "one rejected generation");
        // Bit-flip the survivor too: nothing valid remains.
        let prev = dir.join("ckpt-0002-000000000010.bin");
        let mut bytes = fs::read(&prev).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&prev, &bytes).unwrap();
        assert!(
            store.load_latest().is_none(),
            "all-corrupt store yields none"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Wraps `payload` in a header with a matching CRC and length.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn hostile_lengths_are_errors_not_overflows() {
        // A bare header whose declared payload length is u64::MAX.
        let mut header = framed(&[]);
        header[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(decode(&header), Err(CkptError::Truncated { .. })));
        // A CRC-valid payload whose first vector section claims u64::MAX
        // bytes: rank, iter, data_epoch, data_cursor, epoch_loss, flags,
        // then the params length.
        let mut payload = vec![0u8; 5 * 8 + 1];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode(&framed(&payload)),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_newest_generation_falls_back_instead_of_aborting() {
        let dir = std::env::temp_dir().join(format!("gtopk-ckpt-hostile-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, 2).unwrap();
        store.save(&sample_ckpt(10, false)).unwrap();
        store.save(&sample_ckpt(20, false)).unwrap();
        let mut header = framed(&[]);
        header[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        fs::write(dir.join("ckpt-0002-000000000020.bin"), &header).unwrap();
        let (c, skipped) = store.load_latest().expect("falls back a generation");
        assert_eq!((c.iter, skipped), (10, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retired_selector_tag_is_a_typed_error() {
        // A one-bucket checkpoint whose selector section carries tag 2
        // (the retired threshold-estimate selector).
        let c = DurableCheckpoint {
            engine: EngineState::Buckets {
                residuals: vec![vec![0.5]],
                selectors: vec![SelectorDump {
                    selector: Selector::Sampled { sample: 7 },
                    rng: [1, 2, 3, 4],
                }],
            },
            evals: Vec::new(),
            losses: Vec::new(),
            ..sample_ckpt(10, false)
        };
        let bytes = encode(&c);
        // The selector section is the last 41 bytes before the two empty
        // count words: kind(1) sample(8) rng(32).
        let kind_at = bytes.len() - 16 - 41;
        assert_eq!(bytes[kind_at], 1, "located the selector kind byte");
        let mut payload = bytes[HEADER_BYTES..].to_vec();
        payload[kind_at - HEADER_BYTES] = 2;
        assert_eq!(
            decode(&framed(&payload)),
            Err(CkptError::Corrupt {
                reason: "unknown selector kind"
            })
        );
    }

    /// The layout a run without buckets used to write (mode 0): the
    /// one-bucket state as a whole-vector residual, then a flag and the
    /// selector (`with_selector`) or a cleared flag alone.
    fn encode_mode0(c: &DurableCheckpoint, with_selector: bool) -> Vec<u8> {
        let EngineState::Buckets {
            residuals,
            selectors,
        } = &c.engine;
        assert_eq!(residuals.len(), 1, "mode 0 held one whole-vector bucket");
        let mut p = Vec::new();
        for w in [c.rank, c.iter, c.data_epoch, c.data_cursor] {
            put_u64(&mut p, w);
        }
        put_f64(&mut p, c.epoch_loss);
        p.push(if c.local_velocity.is_some() { 2 } else { 0 });
        put_fvec(&mut p, &c.params);
        put_fvec(&mut p, &c.velocity);
        if let Some(lv) = &c.local_velocity {
            put_fvec(&mut p, lv);
        }
        put_fvec(&mut p, &residuals[0]);
        p.push(u8::from(with_selector));
        if with_selector {
            put_selector(&mut p, &selectors[0]);
        }
        put_u64(&mut p, c.losses.len() as u64);
        c.losses.iter().for_each(|&l| put_f64(&mut p, l));
        put_u64(&mut p, c.evals.len() as u64);
        for e in &c.evals {
            p.push(u8::from(e.is_some()));
            e.iter().for_each(|&v| put_f64(&mut p, v));
        }
        framed(&p)
    }

    #[test]
    fn a_mode_zero_payload_decodes_as_one_bucket() {
        let c = sample_ckpt(40, false);
        let legacy = encode_mode0(&c, true);
        assert_ne!(legacy, encode(&c), "the encoder writes mode 1 now");
        assert_eq!(decode(&legacy).unwrap(), c);
        // A whole-vector state without a selector has no bucket to become.
        assert_eq!(
            decode(&encode_mode0(&c, false)),
            Err(CkptError::Corrupt {
                reason: "whole-vector section without selector state"
            })
        );
    }

    #[test]
    fn a_mode_zero_checkpoint_dir_resumes_bitwise() {
        // A solo run leaves its generations on disk; rewritten in the
        // layout a run without buckets wrote, they must still resume and
        // land exactly where an uninterrupted run lands.
        let data = gtopk_data::GaussianMixture::new(44, 128, 8, 4, 2.0, 0.4);
        let build = || gtopk_nn::models::mlp(53, 8, 16, 4);
        let dir = std::env::temp_dir().join(format!("gtopk-ckpt-mode0-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let short = crate::TrainConfig {
            epochs: 2,
            checkpoint_interval: 4,
            checkpoint_dir: Some(dir.clone()),
            ..crate::TrainConfig::convergence(1, 8, 2, 0.1, 0.05)
        };
        let _ = crate::train_distributed(&short, build, &data, None);
        let store = CheckpointStore::new(&dir, 0).unwrap();
        for g in store.generations() {
            let c = store.load(g).unwrap();
            fs::write(dir.join(store.file_name(g)), encode_mode0(&c, true)).unwrap();
            assert_eq!(store.load(g).unwrap(), c, "generation {g}");
        }
        let resumed = crate::TrainConfig {
            epochs: 4,
            ..short.clone()
        };
        let full = crate::TrainConfig {
            checkpoint_dir: None,
            ..resumed.clone()
        };
        let resumed = crate::train_distributed(&resumed, build, &data, None);
        let full = crate::train_distributed(&full, build, &data, None);
        for (r, f) in resumed.epochs.iter().zip(&full.epochs) {
            assert_eq!(
                r.train_loss.to_bits(),
                f.train_loss.to_bits(),
                "epoch {}",
                r.epoch
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32/IEEE("123456789") = 0xCBF43926 — the standard check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        /// Arbitrary checkpoints roundtrip bit-exactly through the
        /// full encode/decode path (values compared via bit patterns).
        #[test]
        fn prop_roundtrip(
            iter in 0u64..1_000_000,
            params in proptest::collection::vec(-1e6f32..1e6, 0..64),
            velocity in proptest::collection::vec(-1e3f32..1e3, 0..64),
            residual in proptest::collection::vec(-1e3f32..1e3, 0..64),
            losses in proptest::collection::vec(-1e3f64..1e3, 0..8),
            epoch_loss in -1e3f64..1e3,
            r0 in 0u64..u64::MAX,
            r1 in 0u64..u64::MAX,
            r2 in 0u64..u64::MAX,
            r3 in 0u64..u64::MAX,
            buckets in 1usize..3,
        ) {
            let sel = SelectorDump {
                selector: Selector::Sampled { sample: 32 },
                rng: [r0, r1, r2, r3],
            };
            let residuals = [residual.clone(), params.clone()][..buckets].to_vec();
            let engine = EngineState::Buckets {
                selectors: vec![sel; residuals.len()],
                residuals,
            };
            let c = DurableCheckpoint {
                rank: 1,
                iter,
                params,
                velocity,
                engine,
                local_velocity: None,
                data_epoch: iter / 100,
                data_cursor: iter % 97,
                epoch_loss,
                losses: losses.clone(),
                evals: losses.iter().map(|&l| if l > 0.0 { Some(l) } else { None }).collect(),
            };
            let back = decode(&encode(&c)).unwrap();
            prop_assert_eq!(back.iter, c.iter);
            for (a, b) in back.params.iter().zip(c.params.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(back, c);
        }

        /// Every strict prefix of a valid checkpoint file is rejected.
        #[test]
        fn prop_truncation_detected(
            n in 0usize..32,
            cut_frac in 0.0f64..1.0,
        ) {
            let mut c = sample_ckpt(7, false);
            c.params = (0..n).map(|i| i as f32).collect();
            let bytes = encode(&c);
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(decode(&bytes[..cut]).is_err());
        }
    }
}
