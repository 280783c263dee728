//! Hand-rolled little-endian binary codec shared by the durable storage
//! engine (`rknnt-storage`) and the wire protocol (`rknnt-net`).
//!
//! The hermetic build environment has no serde backend (the in-tree `serde`
//! shim only supplies the derive surface), so everything that must hit disk
//! is encoded through this module instead: fixed-width little-endian
//! integers, IEEE-754 bit patterns for floats, `u64` length prefixes for
//! strings and sequences. The format is deliberately boring — byte-stable
//! across platforms, no varints, no padding — because snapshot round-trip
//! *byte-identity* is a tested invariant of the storage engine.
//!
//! Decoding is defensive: every read is bounds-checked and every declared
//! length is validated against the bytes actually remaining, so a corrupted
//! (but checksum-colliding) payload produces a [`CodecError`] instead of an
//! allocation blow-up or a panic.

use rknnt_geo::Point;
use std::fmt;

/// Error produced by a failed decode: where in the buffer it happened and
/// what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which the decode failed.
    pub offset: usize,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decode operations.
pub type CodecResult<T> = Result<T, CodecError>;

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder over an owned byte buffer.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the on-disk format is 64-bit regardless
    /// of the host).
    pub fn len_prefix(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern. `NaN` payloads survive
    /// exactly, which is what makes encode→decode→encode byte-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len_prefix(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a UTF-8 string with a `u64` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a point as two `f64`s.
    pub fn point(&mut self, p: &Point) {
        self.f64(p.x);
        self.f64(p.y);
    }

    /// Appends a point sequence with a `u64` length prefix.
    pub fn points(&mut self, ps: &[Point]) {
        self.len_prefix(ps.len());
        for p in ps {
            self.point(p);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian decoder over a borrowed byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless every byte has been consumed — trailing garbage after a
    /// structurally valid payload is corruption too.
    pub fn expect_exhausted(&self) -> CodecResult<()> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.error(format!("{} trailing bytes", self.remaining())))
        }
    }

    fn error(&self, detail: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.error(format!(
                "need {n} bytes for {what}, only {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> CodecResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> CodecResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` that holds a plain `usize` scalar (not a length).
    pub fn usize(&mut self) -> CodecResult<usize> {
        let start = self.pos;
        let raw = self.u64()?;
        usize::try_from(raw).map_err(|_| CodecError {
            offset: start,
            detail: format!("value {raw} does not fit usize"),
        })
    }

    /// Reads a `u64` length prefix, validating it against the bytes that
    /// remain: each of the `min_elem_bytes`-sized elements it promises must
    /// actually be present (`min_elem_bytes >= 1`), so corrupted lengths
    /// fail fast instead of driving a huge allocation.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> CodecResult<usize> {
        let start = self.pos;
        let len = self.usize()?;
        let need = len.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(CodecError {
                offset: start,
                detail: format!(
                    "declared length {len} needs {need} bytes, only {} remain",
                    self.remaining()
                ),
            });
        }
        Ok(len)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte; anything but 0/1 is corruption.
    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.error(format!("bad bool byte {other}"))),
        }
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.len_prefix(1)?;
        self.take(len, "bytes body")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> CodecResult<String> {
        let start = self.pos;
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|e| CodecError {
            offset: start,
            detail: format!("invalid UTF-8: {e}"),
        })
    }

    /// Reads a point.
    pub fn point(&mut self) -> CodecResult<Point> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    /// Reads a length-prefixed point sequence. Bounds are checked once for
    /// the whole run, so the per-point loop is branch-free — this is the
    /// hot path of snapshot restoration.
    pub fn points(&mut self) -> CodecResult<Vec<Point>> {
        let len = self.len_prefix(16)?;
        let raw = self.take(len * 16, "point run")?;
        Ok(raw
            .chunks_exact(16)
            .map(|chunk| {
                Point::new(
                    f64::from_bits(u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"))),
                    f64::from_bits(u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"))),
                )
            })
            .collect())
    }
}

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
/// snapshot payload and WAL frame.
///
/// Slicing-by-8: eight table lookups per 8-byte chunk instead of one per
/// byte, which matters because the whole multi-hundred-kilobyte snapshot
/// payload is checksummed on every open and checkpoint.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn tables() -> [[u32; 256]; 8] {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[0][i] = crc;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    }
    const TABLES: [[u32; 256]; 8] = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut enc = Encoder::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 3);
        enc.f64(-1.5e300);
        enc.bool(true);
        enc.str("héllo");
        enc.point(&Point::new(3.25, -0.5));
        enc.points(&[Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.f64().unwrap(), -1.5e300);
        assert!(dec.bool().unwrap());
        assert_eq!(dec.str().unwrap(), "héllo");
        assert_eq!(dec.point().unwrap(), Point::new(3.25, -0.5));
        assert_eq!(
            dec.points().unwrap(),
            vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]
        );
        dec.expect_exhausted().unwrap();
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut enc = Encoder::new();
        enc.f64(weird);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_reads_fail_with_offsets() {
        let mut enc = Encoder::new();
        enc.u64(42);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes[..5]);
        let err = dec.u64().unwrap_err();
        assert_eq!(err.offset, 0);
        assert!(err.detail.contains("u64"));
    }

    #[test]
    fn hostile_length_prefixes_are_rejected() {
        // A declared length far beyond the remaining bytes must fail fast.
        let mut enc = Encoder::new();
        enc.u64(u64::MAX / 2);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.len_prefix(16).is_err());
        // And a points vector with a hostile prefix too.
        let mut dec = Decoder::new(&bytes);
        assert!(dec.points().is_err());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut enc = Encoder::new();
        enc.u32(1);
        let mut bytes = enc.into_bytes();
        bytes.push(0xAB);
        let mut dec = Decoder::new(&bytes);
        dec.u32().unwrap();
        assert!(dec.expect_exhausted().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_corruption() {
        let mut dec = Decoder::new(&[2]);
        assert!(dec.bool().unwrap_err().detail.contains("bool"));
        let mut enc = Encoder::new();
        enc.bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        assert!(Decoder::new(&bytes).str().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
