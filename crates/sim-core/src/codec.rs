//! Minimal little-endian binary codec.
//!
//! The workspace is offline (no serde), so the binary formats are
//! hand-rolled. A [`ByteWriter`] builds the warm-state byte image (each
//! component writes its own part), report digests and `.dcat` trace
//! files; a [`ByteReader`] parses trace files back. The fixed-width
//! encoding is deliberately dumb — little-endian integers,
//! length-prefixed sequences, no alignment — because warm states are
//! bulk state (cache line arrays, history rings) where auditability
//! beats density; varints exist for the trace records.
//!
//! Versioning and validation (magic numbers, format versions,
//! fingerprints) are the *caller's* responsibility: this module only
//! guarantees that a truncated or misshapen buffer surfaces as a
//! [`CodecError`] rather than a panic.

use std::fmt;

/// Decode failure: truncated input or a failed validation. Carries a
/// static description of what the reader was doing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What failed (e.g. `"truncated input"`).
    pub context: &'static str,
}

impl CodecError {
    /// An error with the given description.
    pub fn new(context: &'static str) -> Self {
        CodecError { context }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.context)
    }
}

impl std::error::Error for CodecError {}

/// Append-only little-endian byte sink.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write raw bytes with no length prefix (fixed-size fields: magic
    /// numbers and the like).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Write a `u64` slice as `len (u64)` followed by the items.
    pub fn put_u64_slice(&mut self, items: &[u64]) {
        self.put_u64(items.len() as u64);
        for &v in items {
            self.put_u64(v);
        }
    }

    /// Write a `u64` as an LEB128 varint (1–10 bytes; small values are
    /// one byte). The density lever behind the trace-file record
    /// encoding — gaps and address deltas are almost always tiny.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write an `i64` as a zigzag-mapped varint (small magnitudes of
    /// either sign stay short).
    pub fn put_varint_signed(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }
}

/// Cursor over an encoded buffer; every read is bounds-checked.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new("truncated input"));
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4B")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8B")))
    }

    /// Read exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// Read an LEB128 varint `u64` (see [`ByteWriter::put_varint`]).
    /// Rejects encodings longer than 10 bytes and 10-byte encodings
    /// whose final byte overflows 64 bits, so every value has exactly
    /// the representations the writer can produce plus benign
    /// non-canonical short forms.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for i in 0..10 {
            let b = self.u8()?;
            if i == 9 && b > 0x01 {
                return Err(CodecError::new("varint overflows u64"));
            }
            v |= ((b & 0x7F) as u64) << (7 * i);
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(CodecError::new("varint longer than 10 bytes"))
    }

    /// Read a zigzag-mapped varint `i64` (see
    /// [`ByteWriter::put_varint_signed`]).
    pub fn varint_signed(&mut self) -> Result<i64, CodecError> {
        let z = self.varint()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_u8(1);
        w.put_u8(0);
        w.put_f64(-1.5e300);
        w.put_bytes(b"DCAW");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.bytes(2).unwrap(), 0xBEEFu16.to_le_bytes());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.bytes(2).unwrap(), [1, 0]);
        assert_eq!(r.u64().unwrap(), (-1.5e300f64).to_bits());
        assert_eq!(r.bytes(4).unwrap(), b"DCAW");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn u64_slice_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u64_slice(&[1, 2, 3, u64::MAX]);
        w.put_u64_slice(&[]);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        for want in [4, 1, 2, 3, u64::MAX, 0] {
            assert_eq!(r.u64().unwrap(), want);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_round_trips_across_magnitudes() {
        let values = [
            0u64,
            1,
            0x7F,
            0x80,
            0x3FFF,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint(v);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        // Small values really are one byte.
        let mut w = ByteWriter::new();
        w.put_varint(0x7F);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn signed_varint_round_trips() {
        let values = [
            0i64,
            1,
            -1,
            63,
            -64,
            1 << 40,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ];
        let mut w = ByteWriter::new();
        for &v in &values {
            w.put_varint_signed(v);
        }
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        for &v in &values {
            assert_eq!(r.varint_signed().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
        // ±1 cost one byte under zigzag.
        let mut w = ByteWriter::new();
        w.put_varint_signed(-1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 11 continuation bytes: longer than any legal u64 encoding.
        let overlong = [0x80u8; 11];
        assert!(ByteReader::new(&overlong).varint().is_err());
        // 10th byte carries bits above the 64th.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        assert!(ByteReader::new(&overflow).varint().is_err());
        // Truncated mid-varint.
        let truncated = [0x80u8, 0x80];
        assert!(ByteReader::new(&truncated).varint().is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        w.put_u64(7);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf[..5]);
        assert!(r.u64().is_err());
    }
}
