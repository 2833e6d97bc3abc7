//! Versioned, checksummed binary snapshot substrate.
//!
//! Checkpoint/restore of a running `HostSim` needs a serialization format
//! with three properties that rule out text formats and ad-hoc struct
//! dumps:
//!
//! * **bit-exactness** — restoring a snapshot and running to the end must
//!   be indistinguishable from never having snapshotted, so every field
//!   round-trips exactly (floats travel as IEEE-754 bit patterns, never
//!   through decimal);
//! * **versioned refusal** — a snapshot from an older build, a different
//!   configuration, or a truncated file must fail *loudly* with a named
//!   reason, never deserialize into garbage state;
//! * **zero dependencies** — the offline build cannot pull serde, so the
//!   format is hand-rolled: little-endian fixed-width integers,
//!   length-prefixed sequences, an 8-byte magic + format version header,
//!   and a trailing word-wise checksum over everything before it.
//!
//! [`SnapWriter`] appends primitives to a byte buffer; [`SnapReader`]
//! consumes them in the same order. There is no schema — reader and writer
//! are the same code path in each owning crate (`snap`/`unsnap` method
//! pairs), and the format version in the header is bumped whenever any of
//! those pairs changes shape.

/// Magic bytes opening every snapshot file ("FNSSNAP" + format generation).
pub const MAGIC: &[u8; 8] = b"FNSSNAP1";

/// Format version written after the magic. Bump on ANY layout change to any
/// `snap`/`unsnap` pair — old snapshots must refuse to load, not misparse.
pub const FORMAT_VERSION: u32 = 4;

/// Why a snapshot failed to load. Every variant names the exact reason so a
/// refused resume is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer is shorter than the fixed header.
    Truncated { need: usize, have: usize },
    /// The leading magic bytes are not [`MAGIC`].
    BadMagic,
    /// Header format version differs from this build's [`FORMAT_VERSION`].
    VersionMismatch { found: u32, expected: u32 },
    /// The trailing checksum does not match the body.
    ChecksumMismatch { found: u64, computed: u64 },
    /// A read ran past the end of the body mid-structure.
    UnexpectedEof { at: usize, need: usize },
    /// A decoded discriminant/tag byte has no matching variant.
    BadTag { what: &'static str, tag: u64 },
    /// The snapshot's config fingerprint disagrees with the caller's
    /// config — resuming under a different config would silently diverge.
    ConfigMismatch { what: &'static str },
    /// The caller's config is one the restoring simulation refuses to run.
    InvalidConfig { reason: &'static str },
    /// Reader finished with bytes left over: writer/reader pairs are out
    /// of sync (almost always a missed [`FORMAT_VERSION`] bump).
    TrailingBytes { left: usize },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            SnapError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot format version {found}, this build reads {expected}"
            ),
            SnapError::ChecksumMismatch { found, computed } => write!(
                f,
                "snapshot checksum mismatch: file says {found:#018x}, body hashes to {computed:#018x}"
            ),
            SnapError::UnexpectedEof { at, need } => {
                write!(f, "snapshot body ended early at offset {at} (needed {need} more bytes)")
            }
            SnapError::BadTag { what, tag } => {
                write!(f, "snapshot contains invalid {what} tag {tag}")
            }
            SnapError::ConfigMismatch { what } => write!(
                f,
                "snapshot was taken under a different config ({what} differs); \
                 resume with the original config"
            ),
            SnapError::InvalidConfig { reason } => {
                write!(f, "cannot resume under an invalid config: {reason}")
            }
            SnapError::TrailingBytes { left } => write!(
                f,
                "snapshot has {left} unread trailing bytes: writer/reader out of sync"
            ),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a over a byte slice: a small deterministic hash for fingerprints
/// and digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The integrity check appended to every snapshot. It folds little-endian
/// 8-byte words (the tail zero-padded, then the length) into the state with
/// a xor, an odd multiply and a rotate. Each step is a bijection of the
/// state, so any change confined to one word always changes the sum, and
/// a word per step keeps it fast on multi-megabyte snapshots. Not
/// cryptographic; it catches truncation and bit rot.
fn checksum(bytes: &[u8]) -> u64 {
    fn step(h: u64, word: u64) -> u64 {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    }
    let mut chunks = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for c in &mut chunks {
        h = step(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = step(h, u64::from_le_bytes(tail));
    step(h, bytes.len() as u64)
}

/// Recomputes the trailing checksum of a snapshot whose body was edited in
/// place, so corruption tests can reach the decoders behind the checksum.
/// Leaves slices too short to hold a checksum untouched.
pub fn reseal(bytes: &mut [u8]) {
    if let Some(body_end) = bytes.len().checked_sub(8) {
        let sum = checksum(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Append-only encoder for the snapshot body.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts a snapshot: magic + format version header already written.
    pub fn new() -> Self {
        let mut w = SnapWriter {
            buf: Vec::with_capacity(4096),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(FORMAT_VERSION);
        w
    }

    /// Finishes the snapshot: appends the checksum of everything
    /// written so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Bytes encoded so far (header included, checksum not yet).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before anything beyond the header has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= MAGIC.len() + 4
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so snapshots are word-size independent.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` travels as its IEEE-754 bit pattern — exact round-trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `u128` travels as two `u64` halves (lo, hi).
    pub fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Length prefix for a sequence whose elements the caller writes next.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }

    /// `Option` as a presence byte; the caller writes the payload if `Some`.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Convenience: a whole `&[u64]` slice, length-prefixed.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.seq(v.len());
        for &x in v {
            self.u64(x);
        }
    }
}

/// Sequential decoder for a snapshot produced by [`SnapWriter`].
///
/// Construction validates magic, version, and checksum up front; reads then
/// only need to match the writer's order. [`SnapReader::done`] must be
/// called last to catch leftover bytes.
#[derive(Debug)]
pub struct SnapReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates header and trailing checksum, positioning the reader just
    /// past the format version.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapError> {
        let header = MAGIC.len() + 4;
        if bytes.len() < header + 8 {
            return Err(SnapError::Truncated {
                need: header + 8,
                have: bytes.len(),
            });
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[MAGIC.len()..header].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let body_end = bytes.len() - 8;
        let found = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
        let computed = checksum(&bytes[..body_end]);
        if found != computed {
            return Err(SnapError::ChecksumMismatch { found, computed });
        }
        Ok(SnapReader {
            body: &bytes[..body_end],
            pos: header,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if n > self.remaining() {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                need: n - self.remaining(),
            });
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::BadTag {
                what: "bool",
                tag: t as u64,
            }),
        }
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        Ok(self.u64()? as usize)
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let lo = self.u64()? as u128;
        let hi = self.u64()? as u128;
        Ok(lo | (hi << 64))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::BadTag {
            what: "utf-8 string",
            tag: 0,
        })
    }

    /// Sequence length written by [`SnapWriter::seq`]; elements follow.
    /// Every element takes at least one byte, so a length beyond the bytes
    /// left is corrupt — refusing it here bounds every decoder's
    /// preallocation by the snapshot's size.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::UnexpectedEof {
                at: self.pos,
                need: n - self.remaining(),
            });
        }
        Ok(n)
    }

    /// `Option` presence byte; the caller reads the payload if `Some`.
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(SnapError::BadTag {
                what: "option",
                tag: t as u64,
            }),
        }
    }

    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.seq()?;
        let mut v = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Bytes remaining unread in the body.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    /// Must be the final call: fails if the body was not fully consumed.
    pub fn done(&self) -> Result<(), SnapError> {
        if self.pos != self.body.len() {
            return Err(SnapError::TrailingBytes {
                left: self.body.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(0xAB);
        w.bool(true);
        w.bool(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(123_456);
        w.f64(-0.125);
        w.f64(f64::NAN);
        w.u128(u128::MAX - 7);
        w.bytes(b"hello");
        w.str("snapshot");
        w.opt(&Some(9u64), |w, v| w.u64(*v));
        w.opt(&None::<u64>, |w, v| w.u64(*v));
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.u128().unwrap(), u128::MAX - 7);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "snapshot");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.u64_vec().unwrap(), vec![1, 2, 3]);
        r.done().unwrap();
    }

    #[test]
    fn nan_bit_pattern_is_preserved() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        w.f64(weird);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = SnapWriter::new().finish();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::BadMagic) | Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_mismatch_is_refused() {
        let mut w = SnapWriter::new();
        w.u64(7);
        let mut bytes = w.finish();
        // Patch the version field and re-seal the checksum so only the
        // version check can fire.
        bytes[8] = 0xFE;
        let body_end = bytes.len() - 8;
        let sum = checksum(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&sum);
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn corruption_is_caught_by_checksum() {
        let mut w = SnapWriter::new();
        w.u64(0x1234_5678);
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            SnapReader::new(&bytes),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        reseal(&mut bytes);
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_ne!(r.u64().unwrap(), 0x1234_5678);
    }

    #[test]
    fn checksum_changes_with_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..21u8).collect();
        let sum = checksum(&bytes);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum(&flipped), sum, "byte {i} bit {bit}");
            }
        }
        // Zero padding of the tail word is not confused with data.
        assert_ne!(
            checksum(&bytes[..20]),
            checksum(&[&bytes[..20], &[0]].concat())
        );
    }

    #[test]
    fn truncation_is_caught() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.finish();
        assert!(SnapReader::new(&bytes[..bytes.len() - 9]).is_err());
    }

    #[test]
    fn overread_and_trailing_bytes_are_errors() {
        let mut w = SnapWriter::new();
        w.u32(5);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(r.u64(), Err(SnapError::UnexpectedEof { .. })));

        let mut w = SnapWriter::new();
        w.u32(5);
        w.u32(6);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(r.u32().unwrap(), 5);
        assert!(matches!(
            r.done(),
            Err(SnapError::TrailingBytes { left: 4 })
        ));
    }

    #[test]
    fn errors_display_named_reasons() {
        let e = SnapError::ConfigMismatch { what: "seed" };
        assert!(e.to_string().contains("seed"));
        let e = SnapError::VersionMismatch {
            found: 9,
            expected: FORMAT_VERSION,
        };
        assert!(e.to_string().contains('9'));
    }
}
