//! Trace-file workloads: a compact binary format for replayable memory
//! traces, a process-wide trace registry, and the [`TraceReader`] that
//! replays a trace through the same [`MemPort`](crate::port::MemPort)
//! the synthetic generators drive.
//!
//! ## File format (`.dcat`)
//!
//! A trace file is a little-endian blob:
//!
//! ```text
//! magic           8 B   "DCATRACE"
//! version         u32   TRACE_FORMAT_VERSION (currently 1)
//! flags           u32   bit 0: delta-encoded addresses; others reserved
//! record_count    u64   number of records, ≥ 1
//! records         …     see below
//! ```
//!
//! Each record is one memory operation `(gap, block, is_store)`:
//!
//! * `varint((gap << 1) | is_store)` — the compute-instruction gap
//!   preceding the op, with the store bit folded into bit 0;
//! * the 64-byte block address, **region-relative** (the replaying core
//!   adds its own region base, so one trace can drive any core slot of
//!   a multiprogrammed mix): `varint(block)` when flags bit 0 is clear,
//!   or `zigzag-varint(block − previous_block)` when set.
//!
//! Varints are LEB128 ([`ByteWriter::put_varint`]); delta encoding keeps
//! streaming traces near two bytes per record without any compression
//! dependency. Addresses must stay below [`MAX_TRACE_BLOCKS`] (the 4 GiB
//! per-core region of the simulated system); decoding rejects anything
//! larger with a typed [`TraceError`], never a panic.
//!
//! ## Registry and identity
//!
//! [`register_trace_file`] / [`register_trace_bytes`] parse and intern a
//! trace, returning a [`Benchmark::Trace`] handle — a `Copy` id usable
//! anywhere a Table I benchmark is (mixes, the `dca-bench` harness,
//! warm-state fingerprints). Interning is keyed by the **content
//! digest** ([`dca_sim_core::digest64`] over the file bytes): the same
//! bytes always yield the same handle, and an *edited* trace file yields
//! a new digest — which is how warm-state checkpoints keyed on the
//! digest invalidate by construction rather than by path or mtime.
//!
//! ## Replay semantics
//!
//! [`TraceReader`] replays records in order and wraps around at the end
//! (traces are finite; cores need an unbounded op stream). Replayed ops
//! carry a synthetic PC derived from the block address (traces carry no
//! program counters; MAP-I still needs a stable, address-correlated
//! index), and no dependence information — trace workloads expose full
//! MLP. Like [`TraceGen`], the reader is cloned into warm-state
//! checkpoints, and its `encode` adds the replay cursor to the
//! warm-state byte image, naming the trace by its content digest.

use dca_sim_core::hash::FastHashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

use dca_sim_core::{digest64, ByteReader, ByteWriter, CodecError};

use crate::profile::Benchmark;
use crate::trace::{TraceGen, TraceOp};

/// Magic prefix of a trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"DCATRACE";

/// Version of the trace-file schema; bump on any layout change.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Flag bit 0: block addresses are zigzag deltas from the previous
/// record instead of absolute varints.
const FLAG_DELTA: u32 = 1;

/// Upper bound (exclusive) on a trace's region-relative block
/// addresses: the 4 GiB (`2^26` × 64 B blocks) per-core region the
/// system model gives each workload. A trace touching more than one
/// region's worth of address space cannot be placed without aliasing
/// another core, so the decoder rejects it up front.
pub const MAX_TRACE_BLOCKS: u64 = 1 << 26;

/// One trace record: a memory operation and the compute gap before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Compute instructions preceding this op.
    pub gap: u32,
    /// Region-relative 64-byte block address (`< MAX_TRACE_BLOCKS`).
    pub block: u64,
    /// Store (true) or load (false).
    pub is_store: bool,
}

/// How record addresses are encoded on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TraceEncoding {
    /// Absolute varint block addresses.
    Absolute,
    /// Zigzag varint deltas from the previous record (default: smallest
    /// for both streaming and reuse-heavy traces).
    #[default]
    Delta,
}

/// Typed failure while loading or parsing a trace file. Malformed
/// headers and truncated files surface here — never as panics.
#[derive(Debug)]
pub enum TraceError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// The first 8 bytes are not [`TRACE_MAGIC`].
    BadMagic,
    /// The header version is not [`TRACE_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The header sets flag bits this reader does not know.
    UnknownFlags(u32),
    /// A record count of zero (a reader could never produce an op).
    Empty,
    /// The declared record count cannot fit in the remaining bytes.
    CountExceedsPayload {
        /// Records the header declared.
        declared: u64,
        /// Payload bytes actually present.
        payload_bytes: usize,
    },
    /// A record's block address falls outside [`MAX_TRACE_BLOCKS`] (or,
    /// under delta encoding, went negative).
    BlockOutOfRange(i64),
    /// A record's compute gap exceeds `u32::MAX`.
    GapOutOfRange(u64),
    /// Truncated or otherwise malformed record bytes.
    Malformed(CodecError),
    /// Bytes remain after the declared records.
    TrailingBytes(usize),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a DCA trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "unsupported trace format version {v}")
            }
            TraceError::UnknownFlags(bits) => {
                write!(f, "trace header sets unknown flag bits {bits:#x}")
            }
            TraceError::Empty => write!(f, "trace file declares zero records"),
            TraceError::CountExceedsPayload {
                declared,
                payload_bytes,
            } => write!(
                f,
                "trace declares {declared} records but only {payload_bytes} payload bytes follow"
            ),
            TraceError::BlockOutOfRange(b) => {
                write!(f, "trace block address {b} outside [0, {MAX_TRACE_BLOCKS})")
            }
            TraceError::GapOutOfRange(g) => write!(f, "trace compute gap {g} exceeds u32"),
            TraceError::Malformed(e) => write!(f, "malformed trace records: {e}"),
            TraceError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after the declared records")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for TraceError {
    fn from(e: CodecError) -> Self {
        TraceError::Malformed(e)
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Serialise records into the on-disk trace format.
///
/// # Panics
/// Panics if `records` is empty or any block address reaches
/// [`MAX_TRACE_BLOCKS`] — those are writer bugs, not file corruption.
pub fn encode_trace(records: &[TraceRecord], encoding: TraceEncoding) -> Vec<u8> {
    assert!(!records.is_empty(), "a trace must hold at least one record");
    let mut w = ByteWriter::with_capacity(24 + records.len() * 4);
    w.put_bytes(TRACE_MAGIC);
    w.put_u32(TRACE_FORMAT_VERSION);
    w.put_u32(match encoding {
        TraceEncoding::Absolute => 0,
        TraceEncoding::Delta => FLAG_DELTA,
    });
    w.put_u64(records.len() as u64);
    let mut prev: u64 = 0;
    for r in records {
        assert!(
            r.block < MAX_TRACE_BLOCKS,
            "trace block {} outside the per-core region",
            r.block
        );
        w.put_varint(((r.gap as u64) << 1) | r.is_store as u64);
        match encoding {
            TraceEncoding::Absolute => w.put_varint(r.block),
            TraceEncoding::Delta => {
                w.put_varint_signed(r.block as i64 - prev as i64);
                prev = r.block;
            }
        }
    }
    w.into_vec()
}

/// Parse an on-disk trace blob, validating the header, every record and
/// full consumption of the buffer.
pub fn decode_trace(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(TRACE_MAGIC.len())
        .map_err(|_| TraceError::BadMagic)?
        != TRACE_MAGIC
    {
        return Err(TraceError::BadMagic);
    }
    let version = r.u32()?;
    if version != TRACE_FORMAT_VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let flags = r.u32()?;
    if flags & !FLAG_DELTA != 0 {
        return Err(TraceError::UnknownFlags(flags & !FLAG_DELTA));
    }
    let delta = flags & FLAG_DELTA != 0;
    let count = r.u64()?;
    if count == 0 {
        return Err(TraceError::Empty);
    }
    // Every record is at least two one-byte varints; reject an absurd
    // declared count before allocating for it.
    if count.saturating_mul(2) > r.remaining() as u64 {
        return Err(TraceError::CountExceedsPayload {
            declared: count,
            payload_bytes: r.remaining(),
        });
    }
    let mut records = Vec::with_capacity(count as usize);
    let mut prev: i64 = 0;
    for _ in 0..count {
        let head = r.varint()?;
        let gap = head >> 1;
        if gap > u32::MAX as u64 {
            return Err(TraceError::GapOutOfRange(gap));
        }
        let block = if delta {
            let b = prev
                .checked_add(r.varint_signed()?)
                .ok_or(TraceError::BlockOutOfRange(i64::MIN))?;
            prev = b;
            b
        } else {
            let b = r.varint()?;
            i64::try_from(b).map_err(|_| TraceError::BlockOutOfRange(i64::MAX))?
        };
        if block < 0 || block as u64 >= MAX_TRACE_BLOCKS {
            return Err(TraceError::BlockOutOfRange(block));
        }
        records.push(TraceRecord {
            gap: gap as u32,
            block: block as u64,
            is_store: head & 1 == 1,
        });
    }
    if r.remaining() != 0 {
        return Err(TraceError::TrailingBytes(r.remaining()));
    }
    Ok(records)
}

/// Run `bench`'s synthetic generator for `ops` operations and collect
/// the stream as trace records (the `tracegen-dump` utility's engine,
/// also used by the round-trip self-tests).
///
/// # Panics
/// Panics if `bench` is itself a trace workload.
pub fn dump_synthetic(bench: Benchmark, ops: u64, seed: u64) -> Vec<TraceRecord> {
    let mut gen = TraceGen::new(bench.profile(), 0, seed);
    (0..ops)
        .map(|_| {
            let op = gen.next_op();
            TraceRecord {
                gap: op.gap,
                block: op.block,
                is_store: op.is_store,
            }
        })
        .collect()
}

/// Process-local handle of a registered trace (the payload of
/// [`Benchmark::Trace`]). Ids are assigned in registration order and
/// are **not** stable across processes — the warm-state fingerprint
/// and byte image use the content digest instead (see
/// [`TraceReader::encode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub(crate) u16);

impl TraceId {
    /// The registry index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned, fully parsed trace.
#[derive(Debug)]
pub struct TraceData {
    /// The registry handle.
    pub id: TraceId,
    /// Display name (file stem, or the name given at registration).
    pub name: &'static str,
    /// Source path, when registered from a file.
    pub path: Option<PathBuf>,
    /// [`digest64`] over the raw file bytes — the trace's persistent
    /// identity (edited content ⇒ new digest ⇒ new identity).
    pub digest: u64,
    /// The decoded records, in replay order (never empty).
    pub records: Vec<TraceRecord>,
}

/// The process-wide trace registry.
struct Registry {
    traces: Vec<Arc<TraceData>>,
    by_digest: FastHashMap<u64, TraceId>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            traces: Vec::new(),
            by_digest: FastHashMap::default(),
        })
    })
}

/// Register the trace stored at `path`, returning its benchmark handle.
/// Idempotent by content: re-registering identical bytes (from any
/// path) returns the existing handle; changed bytes yield a fresh one.
pub fn register_trace_file(path: impl AsRef<Path>) -> Result<Benchmark, TraceError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace")
        .to_string();
    register(name, Some(path.to_path_buf()), &bytes)
}

/// Register a trace from in-memory bytes under a display `name`.
pub fn register_trace_bytes(name: &str, bytes: &[u8]) -> Result<Benchmark, TraceError> {
    register(name.to_string(), None, bytes)
}

fn register(name: String, path: Option<PathBuf>, bytes: &[u8]) -> Result<Benchmark, TraceError> {
    let digest = digest64(bytes);
    if let Some(&id) = registry().lock().unwrap().by_digest.get(&digest) {
        return Ok(Benchmark::Trace(id));
    }
    // Parse outside the lock; registration is rare and parsing is the
    // expensive part.
    let records = decode_trace(bytes)?;
    let mut reg = registry().lock().unwrap();
    if let Some(&id) = reg.by_digest.get(&digest) {
        return Ok(Benchmark::Trace(id)); // lost a benign race
    }
    let id = TraceId(u16::try_from(reg.traces.len()).expect("fewer than 65536 traces"));
    let name: &'static str = Box::leak(name.into_boxed_str());
    reg.traces.push(Arc::new(TraceData {
        id,
        name,
        path,
        digest,
        records,
    }));
    reg.by_digest.insert(digest, id);
    Ok(Benchmark::Trace(id))
}

/// The interned data behind a [`TraceId`].
///
/// # Panics
/// Panics on an id this process never registered (impossible for ids
/// obtained from the registry — they are never evicted).
pub fn trace_data(id: TraceId) -> Arc<TraceData> {
    registry()
        .lock()
        .unwrap()
        .traces
        .get(id.index())
        .unwrap_or_else(|| panic!("trace id {} was never registered", id.0))
        .clone()
}

/// Look up a registered trace by display name (latest registration
/// wins when names collide).
pub fn find_trace_by_name(name: &str) -> Option<Benchmark> {
    let reg = registry().lock().unwrap();
    reg.traces
        .iter()
        .rev()
        .find(|t| t.name == name)
        .map(|t| Benchmark::Trace(t.id))
}

/// Deterministic replayer of a registered trace: drives the same
/// [`MemPort`](crate::port::MemPort) as [`TraceGen`], wrapping at the
/// end of the records.
#[derive(Clone, Debug)]
pub struct TraceReader {
    data: Arc<TraceData>,
    /// Base block address of this core's private region.
    base: u64,
    /// Next record to replay.
    pos: u64,
    /// Ops produced so far.
    count: u64,
}

impl TraceReader {
    /// A reader replaying registered trace `id` over the region starting
    /// at block `base`.
    pub fn new(id: TraceId, base: u64) -> Self {
        TraceReader {
            data: trace_data(id),
            base,
            pos: 0,
            count: 0,
        }
    }

    /// The benchmark handle this reader replays.
    pub fn bench(&self) -> Benchmark {
        Benchmark::Trace(self.data.id)
    }

    /// Ops produced so far.
    pub fn generated(&self) -> u64 {
        self.count
    }

    /// Records in one pass of the trace.
    pub fn len(&self) -> u64 {
        self.data.records.len() as u64
    }

    /// Whether the trace is empty (never true for registered traces).
    pub fn is_empty(&self) -> bool {
        self.data.records.is_empty()
    }

    /// Produce the next op, wrapping at the end of the trace.
    pub fn next_op(&mut self) -> TraceOp {
        let rec = self.data.records[self.pos as usize];
        self.pos += 1;
        if self.pos == self.len() {
            self.pos = 0;
        }
        self.count += 1;
        // Traces carry no PCs; synthesise one correlated with the block
        // address so MAP-I sees stable per-"instruction" behaviour, in
        // this trace's private 4096-entry PC window.
        let pc_base = self.bench().id() * 4096;
        let pc = pc_base + ((rec.block ^ (rec.block >> 7)) & 0xFFF) as u32;
        TraceOp {
            gap: rec.gap,
            is_store: rec.is_store,
            block: self.base + rec.block,
            pc,
            dependent: false,
            chain: 0,
        }
    }

    /// Serialise the replay state (part of the warm-state byte image).
    /// The records themselves are not stored — only their content
    /// digest — so the image stays small.
    pub fn encode(&self, w: &mut ByteWriter) {
        let Self {
            data,
            base,
            pos,
            count,
        } = self;
        w.put_u64(data.digest);
        w.put_u64(*base);
        w.put_u64(*pos);
        w.put_u64(*count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        (0..500)
            .map(|i| TraceRecord {
                gap: (i % 7) as u32,
                block: (i * 37 % 4096) as u64,
                is_store: i % 3 == 0,
            })
            .collect()
    }

    #[test]
    fn both_encodings_round_trip() {
        let records = sample_records();
        for enc in [TraceEncoding::Absolute, TraceEncoding::Delta] {
            let bytes = encode_trace(&records, enc);
            let back = decode_trace(&bytes).expect("decode");
            assert_eq!(back, records, "{enc:?}");
            // Re-encoding is bit-for-bit stable.
            assert_eq!(encode_trace(&back, enc), bytes, "{enc:?}");
        }
    }

    #[test]
    fn delta_encoding_is_compact_for_streams() {
        let streaming: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord {
                gap: 2,
                block: i,
                is_store: false,
            })
            .collect();
        let delta = encode_trace(&streaming, TraceEncoding::Delta);
        // Header + ~2 bytes per record.
        assert!(delta.len() < 24 + 1000 * 3, "got {} bytes", delta.len());
        let absolute = encode_trace(&streaming, TraceEncoding::Absolute);
        assert!(delta.len() < absolute.len());
    }

    #[test]
    fn synthetic_dump_round_trips_bit_for_bit() {
        for bench in [Benchmark::Libquantum, Benchmark::Mcf, Benchmark::Soplex] {
            let records = dump_synthetic(bench, 2_000, 7);
            let bytes = encode_trace(&records, TraceEncoding::Delta);
            let back = decode_trace(&bytes).expect("decode");
            assert_eq!(back, records, "{bench:?}");
            assert_eq!(encode_trace(&back, TraceEncoding::Delta), bytes);
        }
    }

    #[test]
    fn malformed_headers_yield_typed_errors() {
        let good = encode_trace(&sample_records(), TraceEncoding::Delta);

        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_trace(&bad), Err(TraceError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 99; // version
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::UnsupportedVersion(99))
        ));

        let mut bad = good.clone();
        bad[12] |= 0x80; // unknown flag bit
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::UnknownFlags(_))
        ));

        let mut empty = encode_trace(&sample_records()[..1], TraceEncoding::Delta);
        empty[16..24].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(decode_trace(&empty), Err(TraceError::Empty)));

        // Declared count far beyond the payload.
        let mut bad = good.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::CountExceedsPayload { .. })
        ));

        // Truncations at every boundary class: inside the header,
        // inside the records, and just shy of the end.
        for cut in [3, 11, 17, good.len() / 2, good.len() - 1] {
            assert!(
                decode_trace(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }

        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(matches!(
            decode_trace(&bad),
            Err(TraceError::TrailingBytes(1))
        ));
    }

    #[test]
    fn out_of_region_blocks_rejected() {
        let rec = [TraceRecord {
            gap: 0,
            block: MAX_TRACE_BLOCKS - 1,
            is_store: false,
        }];
        // Legal at the boundary…
        decode_trace(&encode_trace(&rec, TraceEncoding::Absolute)).expect("boundary block");
        // …but hand-crafted beyond-region addresses are typed errors.
        let mut w = ByteWriter::new();
        w.put_bytes(TRACE_MAGIC);
        w.put_u32(TRACE_FORMAT_VERSION);
        w.put_u32(0);
        w.put_u64(1);
        w.put_varint(0);
        w.put_varint(MAX_TRACE_BLOCKS);
        assert!(matches!(
            decode_trace(&w.into_vec()),
            Err(TraceError::BlockOutOfRange(_))
        ));
        // Delta walking negative.
        let mut w = ByteWriter::new();
        w.put_bytes(TRACE_MAGIC);
        w.put_u32(TRACE_FORMAT_VERSION);
        w.put_u32(FLAG_DELTA);
        w.put_u64(1);
        w.put_varint(0);
        w.put_varint_signed(-5);
        assert!(matches!(
            decode_trace(&w.into_vec()),
            Err(TraceError::BlockOutOfRange(-5))
        ));
    }

    #[test]
    fn registry_interns_by_content() {
        let bytes = encode_trace(&sample_records(), TraceEncoding::Delta);
        let a = register_trace_bytes("intern-test", &bytes).expect("register");
        let b = register_trace_bytes("intern-test-other-name", &bytes).expect("register");
        assert_eq!(a, b, "same bytes, same handle");
        // Changed content: a different handle and digest.
        let mut records = sample_records();
        records[0].gap += 1;
        let edited = encode_trace(&records, TraceEncoding::Delta);
        let c = register_trace_bytes("intern-test", &edited).expect("register");
        assert_ne!(a, c, "edited content must get a new identity");
        let (Benchmark::Trace(ia), Benchmark::Trace(ic)) = (a, c) else {
            panic!("registry must return trace handles");
        };
        assert_ne!(trace_data(ia).digest, trace_data(ic).digest);
    }

    #[test]
    fn reader_replays_and_wraps() {
        let records = sample_records();
        let bytes = encode_trace(&records, TraceEncoding::Delta);
        let Benchmark::Trace(id) = register_trace_bytes("wrap-test", &bytes).unwrap() else {
            panic!()
        };
        let base = 7u64 << 26;
        let mut reader = TraceReader::new(id, base);
        for lap in 0..3 {
            for rec in &records {
                let op = reader.next_op();
                assert_eq!(op.block, base + rec.block, "lap {lap}");
                assert_eq!(op.gap, rec.gap);
                assert_eq!(op.is_store, rec.is_store);
                assert!(!op.dependent);
            }
        }
        assert_eq!(reader.generated(), 3 * records.len() as u64);
    }
}
