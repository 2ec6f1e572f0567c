//! Versioned, length-framed binary snapshots of simulator state.
//!
//! Warming up a simulated machine costs a third of every run, and every
//! sweep cell sharing a (design, workload, seed, warmup) prefix re-pays it.
//! This module is the contract that lets the warmed state leave memory: a
//! [`Persist`] trait every stateful component implements, a
//! [`SnapshotWriter`]/[`SnapshotReader`] pair over a length-framed binary
//! encoding, and a [`SnapshotHeader`] that pins the image to a model
//! revision and a configuration key so stale images are rejected with a
//! typed [`SnapshotError`] instead of silently corrupting results.
//!
//! Format:
//!
//! * an 8-byte magic ([`SNAPSHOT_MAGIC`]) and a `u32` format version
//!   ([`SNAPSHOT_FORMAT`]),
//! * the header: model revision (`u32`), FNV-1a hash of the snapshot's key
//!   material (`u64`), and the executed-instruction count at capture
//!   (`u64`),
//! * a sequence of **sections**, each framed as an 8-byte FNV-1a label tag
//!   plus a `u32` byte length. Readers must consume a section exactly:
//!   under- or over-reads are [`SnapshotError::Corrupt`], a wrong label is
//!   a framing error naming both labels, and a section running past the
//!   end of the image is [`SnapshotError::Truncated`].
//!
//! All integers are little-endian. Maps are serialized in sorted key order
//! so that `save → restore → save` is byte-identical (the round-trip
//! property the snapshot tests enforce).

use crate::hash::fnv1a64;
use std::fmt;

/// Leading magic bytes of a snapshot image.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"BSHSNAP\0";
/// The snapshot encoding version this build writes and understands.
/// Bump when the framing changes, or when a component's persisted layout
/// changes shape without a model-revision bump (the model revision tracks
/// simulated behaviour, not encoding): components restore sequentially, so
/// a layout shift would otherwise misalign every downstream section.
/// Format 2: frequency-tracker images replaced the raw per-page count/mask
/// maps inside HMA, the footprint predictor and FBR.
/// Format 3: HMA and the footprint predictor persist their exact maps again
/// (sorted `(page, value)` pairs), without the tracker tag; HMA's candidate
/// set and FBR's admission flag are gone.
/// Format 4: the Banshee controller no longer persists its unused RNG
/// stream.
/// Format 5: SRAM caches are LRU-only and no longer persist a replacement
/// policy tag or a victim-selection RNG stream; DRAM channels no longer
/// persist their never-reported buffered-write count.
pub const SNAPSHOT_FORMAT: u32 = 5;

/// Everything that can go wrong decoding a snapshot. Mirrors the typed
/// errors of `trace_file.rs`: every variant is actionable and none panics.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The image does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The image's format version is one this build cannot decode.
    UnsupportedFormat(u32),
    /// The image was captured under a different model revision; the warmed
    /// state would not match what this build simulates.
    StaleRevision {
        /// Revision embedded in the image.
        found: u32,
        /// Revision this build expects.
        expected: u32,
    },
    /// The image was captured for a different configuration/workload key.
    KeyMismatch {
        /// Key hash embedded in the image.
        found: u64,
        /// Key hash the caller expects.
        expected: u64,
    },
    /// The image ended in the middle of the named structure.
    Truncated(&'static str),
    /// Structurally invalid content; the message says what and where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(
                f,
                "not a banshee snapshot: expected the {:?} magic",
                std::str::from_utf8(&SNAPSHOT_MAGIC[..7]).unwrap_or("BSHSNAP")
            ),
            SnapshotError::UnsupportedFormat(v) => write!(
                f,
                "unsupported snapshot format {v} (this build reads format {SNAPSHOT_FORMAT})"
            ),
            SnapshotError::StaleRevision { found, expected } => write!(
                f,
                "stale snapshot: captured at model revision {found}, this build is revision {expected}"
            ),
            SnapshotError::KeyMismatch { found, expected } => write!(
                f,
                "snapshot key mismatch: image was captured for key {found:016x}, expected {expected:016x}"
            ),
            SnapshotError::Truncated(what) => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The validated snapshot header: what pins an image to a build and a
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// `MODEL_REVISION` of the build that captured the image.
    pub model_revision: u32,
    /// FNV-1a hash of the snapshot's key material (configuration + workload
    /// identity, warmup included, post-warmup knobs excluded).
    pub key_hash: u64,
    /// Executed instructions at the capture point.
    pub instructions: u64,
}

impl SnapshotHeader {
    /// Byte length of magic + format word + header fields.
    pub const ENCODED_LEN: usize = 8 + 4 + 4 + 8 + 8;

    /// Append magic, format version and header fields to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_FORMAT.to_le_bytes());
        out.extend_from_slice(&self.model_revision.to_le_bytes());
        out.extend_from_slice(&self.key_hash.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
    }

    /// Decode and validate magic + format from the front of `bytes`,
    /// returning the header. Does not touch the section payload, so it is
    /// cheap enough for store-level screening of candidate images.
    pub fn peek(bytes: &[u8]) -> Result<SnapshotHeader, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated("the snapshot magic"));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < Self::ENCODED_LEN {
            return Err(SnapshotError::Truncated("the snapshot header"));
        }
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let quad = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let format = word(8);
        if format != SNAPSHOT_FORMAT {
            return Err(SnapshotError::UnsupportedFormat(format));
        }
        Ok(SnapshotHeader {
            model_revision: word(12),
            key_hash: quad(16),
            instructions: quad(24),
        })
    }

    /// Reject the image unless it was captured at `expected_revision` for
    /// `expected_key` — the stale-state gate.
    pub fn validate(&self, expected_revision: u32, expected_key: u64) -> Result<(), SnapshotError> {
        if self.model_revision != expected_revision {
            return Err(SnapshotError::StaleRevision {
                found: self.model_revision,
                expected: expected_revision,
            });
        }
        if self.key_hash != expected_key {
            return Err(SnapshotError::KeyMismatch {
                found: self.key_hash,
                expected: expected_key,
            });
        }
        Ok(())
    }
}

/// A component that can externalize its state into a snapshot and rebuild
/// itself from one.
///
/// Implementations must uphold the round-trip law the snapshot tests
/// enforce: `save → restore → save` is byte-identical, and the restored
/// value behaves identically to the original under every subsequent
/// operation. Anything order-dependent (recency lists, FIFO queues) is
/// serialized in its semantic order; hash maps are serialized sorted by
/// key. Derived/scratch state (caches of the config, reusable buffers) is
/// rebuilt by the caller, not persisted.
pub trait Persist: Sized {
    /// Append this component's state to the writer.
    fn save(&self, w: &mut SnapshotWriter);

    /// Rebuild the component from the reader, or fail with a typed error.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Appends length-framed sections and primitive values to a snapshot image.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose image starts with `header`.
    pub fn with_header(header: SnapshotHeader) -> Self {
        let mut w = Self::new();
        header.write(&mut w.buf);
        w
    }

    /// The finished image.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one length-framed, label-tagged section whose body is whatever
    /// `f` writes. Sections may nest.
    pub fn section<F: FnOnce(&mut Self)>(&mut self, label: &str, f: F) {
        self.buf
            .extend_from_slice(&fnv1a64(label.as_bytes()).to_le_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        f(self);
        let body = self.buf.len() - (len_at + 4);
        let body: u32 = body.try_into().expect("snapshot section exceeds 4 GiB");
        self.buf[len_at..len_at + 4].copy_from_slice(&body.to_le_bytes());
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write an `f64` by its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-framed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Write a length-framed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write an iterator of [`Persist`] values as a length-framed sequence.
    /// The caller is responsible for iterating in a canonical order.
    pub fn seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.usize(items.len());
        for item in items {
            item.save(self);
        }
    }

    /// Write a slice as a length-framed sequence, encoding each element with
    /// `f`. For composite elements that do not themselves implement
    /// [`Persist`] (tuples, private struct internals).
    pub fn seq_with<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Decodes a snapshot image: primitive values and length-framed sections,
/// with every read bounded by the innermost open section.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// End offsets of the open sections, innermost last.
    limits: Vec<usize>,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over a full image (header included — use
    /// [`SnapshotReader::header`] to consume it).
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapshotReader {
            bytes,
            pos: 0,
            limits: Vec::new(),
        }
    }

    /// Decode the leading header (magic, format, fields) and advance past
    /// it.
    pub fn header(&mut self) -> Result<SnapshotHeader, SnapshotError> {
        let header = SnapshotHeader::peek(&self.bytes[self.pos..])?;
        self.pos += SnapshotHeader::ENCODED_LEN;
        Ok(header)
    }

    /// The innermost read bound.
    fn limit(&self) -> usize {
        self.limits.last().copied().unwrap_or(self.bytes.len())
    }

    /// Bytes left before the innermost bound.
    pub fn remaining(&self) -> usize {
        self.limit() - self.pos
    }

    /// True if the reader consumed the image exactly (no trailing bytes).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated(what));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Enter the next section, which must carry `label`'s tag, run `f` over
    /// its body, and verify the body was consumed exactly.
    pub fn section<T>(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        let tag = u64::from_le_bytes(self.take(8, "a section tag")?.try_into().unwrap());
        let expected = fnv1a64(label.as_bytes());
        if tag != expected {
            return Err(SnapshotError::Corrupt(format!(
                "expected section `{label}` (tag {expected:016x}), found tag {tag:016x}"
            )));
        }
        let len =
            u32::from_le_bytes(self.take(4, "a section length")?.try_into().unwrap()) as usize;
        if self.remaining() < len {
            return Err(SnapshotError::Truncated("a section body"));
        }
        self.limits.push(self.pos + len);
        let result = f(self);
        let end = self.limits.pop().expect("section limit stack underflow");
        let value = result?;
        if self.pos != end {
            return Err(SnapshotError::Corrupt(format!(
                "section `{label}` has {} unread byte(s)",
                end - self.pos
            )));
        }
        Ok(value)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1, "a u8")?[0])
    }

    /// Read a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!(
                "invalid bool byte {other:#04x}"
            ))),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, "a u32")?.try_into().unwrap(),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, "a u64")?.try_into().unwrap(),
        ))
    }

    /// Read a `usize` stored as a `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("usize value {v} overflows this platform")))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-framed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize()?;
        if self.remaining() < len {
            return Err(SnapshotError::Truncated("a byte string"));
        }
        self.take(len, "a byte string")
    }

    /// Read a length-framed UTF-8 string.
    pub fn string(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| SnapshotError::Corrupt(format!("invalid UTF-8 in string: {e}")))
    }

    /// Read the length of a sequence written by [`SnapshotWriter::seq`],
    /// screening it against the bytes actually available (`min_item_bytes`
    /// is the smallest possible encoding of one item) so a corrupt count
    /// cannot cause a huge allocation.
    pub fn seq_len(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.usize()?;
        if len.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "sequence claims {len} item(s) but only {} byte(s) remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Read a length-framed sequence of [`Persist`] values.
    pub fn seq<T: Persist>(&mut self, min_item_bytes: usize) -> Result<Vec<T>, SnapshotError> {
        let len = self.seq_len(min_item_bytes)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::restore(self)?);
        }
        Ok(out)
    }
}

impl Persist for u64 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u64()
    }
}

impl Persist for u32 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u32(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.u32()
    }
}

impl Persist for bool {
    fn save(&self, w: &mut SnapshotWriter) {
        w.bool(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.bool()
    }
}

impl Persist for f64 {
    fn save(&self, w: &mut SnapshotWriter) {
        w.f64(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.f64()
    }
}

impl Persist for usize {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(*self);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.usize()
    }
}

impl Persist for crate::addr::Addr {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.raw());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::addr::Addr::new(r.u64()?))
    }
}

impl Persist for crate::addr::LineAddr {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.raw());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::addr::LineAddr::new(r.u64()?))
    }
}

impl Persist for crate::addr::PageNum {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.raw());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::addr::PageNum::new(r.u64()?))
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            None => w.bool(false),
            Some(v) => {
                w.bool(true);
                v.save(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? {
            Some(T::restore(r)?)
        } else {
            None
        })
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.seq(self.iter());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        r.seq(1)
    }
}

/// The per-page maps of HMA (miss counts) and the footprint predictor
/// (touched-line masks). Written as `(key, value)` pairs sorted by key, so
/// the image does not depend on hash-map iteration order; a repeated key is
/// corrupt input.
impl Persist for crate::hash::FnvHashMap<u64, u64> {
    fn save(&self, w: &mut SnapshotWriter) {
        let mut entries: Vec<(u64, u64)> = self.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.seq_with(&entries, |w, &(k, v)| {
            w.u64(k);
            w.u64(v);
        });
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let len = r.seq_len(16)?;
        let mut map = Self::default();
        for _ in 0..len {
            let k = r.u64()?;
            if map.insert(k, r.u64()?).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate map key {k}")));
            }
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> SnapshotHeader {
        SnapshotHeader {
            model_revision: 2,
            key_hash: 0xDEAD_BEEF_F00D_CAFE,
            instructions: 1_500_000,
        }
    }

    #[test]
    fn u64_maps_save_sorted_and_reject_duplicate_keys() {
        use crate::hash::FnvHashMap;
        let map: FnvHashMap<u64, u64> = [(9, 1), (2, 7), (5, 3)].into_iter().collect();
        let mut w = SnapshotWriter::new();
        map.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(FnvHashMap::restore(&mut r).unwrap(), map);
        assert!(r.is_exhausted());

        let mut w = SnapshotWriter::new();
        w.seq_with(&[(2u64, 7u64), (2, 8)], |w, &(k, v)| {
            w.u64(k);
            w.u64(v);
        });
        let bytes = w.into_bytes();
        let e = FnvHashMap::<u64, u64>::restore(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(
            matches!(e, SnapshotError::Corrupt(ref m) if m.contains("duplicate")),
            "{e}"
        );
    }

    #[test]
    fn header_round_trip_and_validation() {
        let mut buf = Vec::new();
        header().write(&mut buf);
        let back = SnapshotHeader::peek(&buf).unwrap();
        assert_eq!(back, header());
        back.validate(2, 0xDEAD_BEEF_F00D_CAFE).unwrap();
        assert_eq!(
            back.validate(3, 0xDEAD_BEEF_F00D_CAFE),
            Err(SnapshotError::StaleRevision {
                found: 2,
                expected: 3
            })
        );
        assert_eq!(
            back.validate(2, 1),
            Err(SnapshotError::KeyMismatch {
                found: 0xDEAD_BEEF_F00D_CAFE,
                expected: 1
            })
        );
    }

    #[test]
    fn header_rejects_bad_magic_format_truncation() {
        assert_eq!(
            SnapshotHeader::peek(b"NOTSNAP\0rest"),
            Err(SnapshotError::BadMagic)
        );
        assert_eq!(
            SnapshotHeader::peek(&SNAPSHOT_MAGIC[..5]),
            Err(SnapshotError::Truncated("the snapshot magic"))
        );
        let mut buf = Vec::new();
        header().write(&mut buf);
        assert_eq!(
            SnapshotHeader::peek(&buf[..SnapshotHeader::ENCODED_LEN - 3]),
            Err(SnapshotError::Truncated("the snapshot header"))
        );
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            SnapshotHeader::peek(&buf),
            Err(SnapshotError::UnsupportedFormat(99))
        );
    }

    #[test]
    fn sections_frame_and_verify_consumption() {
        let mut w = SnapshotWriter::new();
        w.section("outer", |w| {
            w.u64(7);
            w.section("inner", |w| w.str("hello"));
        });
        let bytes = w.into_bytes();

        let mut r = SnapshotReader::new(&bytes);
        let (n, s) = r
            .section("outer", |r| {
                let n = r.u64()?;
                let s = r.section("inner", |r| r.string())?;
                Ok((n, s))
            })
            .unwrap();
        assert_eq!((n, s.as_str()), (7, "hello"));
        assert!(r.is_exhausted());

        // Wrong label.
        let mut r = SnapshotReader::new(&bytes);
        let e = r.section("wrong", |r| r.u64()).unwrap_err();
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e}");

        // Under-consumption is caught.
        let mut r = SnapshotReader::new(&bytes);
        let e = r.section("outer", |r| r.u64()).unwrap_err();
        assert!(e.to_string().contains("unread"), "{e}");
    }

    #[test]
    fn primitive_round_trips() {
        let mut w = SnapshotWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.usize(12345);
        w.f64(-0.125);
        w.bytes(b"raw");
        w.str("text");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.string().unwrap(), "text");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let mut w = SnapshotWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated("a u64")));

        let mut r = SnapshotReader::new(&[7u8]);
        assert!(matches!(r.bool(), Err(SnapshotError::Corrupt(_))));

        // A sequence length far beyond the remaining bytes is rejected
        // before allocation.
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(r.seq::<u64>(8), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn option_and_vec_round_trip() {
        let mut w = SnapshotWriter::new();
        Some(42u64).save(&mut w);
        Option::<u64>::None.save(&mut w);
        vec![1u64, 2, 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(Option::<u64>::restore(&mut r).unwrap(), Some(42));
        assert_eq!(Option::<u64>::restore(&mut r).unwrap(), None);
        assert_eq!(Vec::<u64>::restore(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }
}
