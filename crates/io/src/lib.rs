//! Model container & I/O subsystem.
//!
//! T-MAC's deployment story rests on *offline* weight transformation
//! (paper §4, Figure 2 "OFFLINE"): weights are permuted, bit-sliced and
//! packed ahead of time so the online path is pure table lookup. This crate
//! is the persistence layer for that pipeline, and `.tmac` is its one
//! file format:
//!
//! * [`container`] — the `.tmac` container: weights stored *already in the
//!   offline-transformed layout* (per-layer prepacked bit-plane tile
//!   streams + tile-permuted scales, exactly as `tmac_core`'s kernels
//!   consume them), plus quant/model configuration metadata
//!   ([`MetaValue`]) and per-tensor checksums.
//! * [`mmap`] — a zero-copy loader: the container file is mapped read-only
//!   and weight segments borrow straight from the mapping
//!   ([`tmac_core::Segment`]), so loading a prepacked model costs a header
//!   parse + checksum sweep instead of quantize-and-repack.
//!
//! Corrupt inputs never panic: every failure mode (truncation, bad magic,
//! version or checksum mismatch, shape/config disagreement) is a typed
//! [`IoError`] variant.

pub mod container;
pub mod mmap;

pub use container::{write_container, MetaValue, TensorSource, TensorSpec, TmacContainer};
pub use mmap::{LoadMode, Mapping};

/// Alignment of every tensor-data blob in a container, in bytes: `f32`
/// (and wider, up to a 32-byte vector) views into a page-aligned mapping
/// are naturally aligned.
pub const DATA_ALIGN: usize = 32;

/// Errors from container parsing, validation, or the underlying filesystem.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error, with context.
    Io(String),
    /// The input ended before a required field or blob.
    Truncated {
        /// What was being read.
        what: String,
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// The file does not start with the expected magic.
    BadMagic {
        /// The magic the parser expected.
        expected: [u8; 4],
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// Unsupported format version.
    Version {
        /// Version found in the header.
        found: u32,
        /// Versions this build understands.
        supported: &'static str,
    },
    /// A tensor blob failed its integrity check.
    Checksum {
        /// Tensor (and segment) the mismatch was detected in.
        tensor: String,
        /// Checksum recorded in the index.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// Structurally malformed input (bad tag, bad UTF-8, bad count...).
    Corrupt(String),
    /// Tensor shape/metadata disagree with the model configuration.
    ShapeMismatch(String),
    /// A tensor required by the loader is absent.
    MissingTensor(String),
    /// A metadata key required by the loader is absent or mistyped.
    MissingMeta(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(msg) => write!(f, "io: {msg}"),
            IoError::Truncated { what, need, have } => {
                write!(f, "truncated file: {what} needs {need} bytes, {have} left")
            }
            IoError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                found
            ),
            IoError::Version { found, supported } => {
                write!(f, "unsupported version {found} (supported: {supported})")
            }
            IoError::Checksum {
                tensor,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch in {tensor}: index says {expected:#018x}, data hashes to {found:#018x}"
            ),
            IoError::Corrupt(msg) => write!(f, "corrupt container: {msg}"),
            IoError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            IoError::MissingTensor(name) => write!(f, "missing tensor {name:?}"),
            IoError::MissingMeta(key) => write!(f, "missing/mistyped metadata {key:?}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e.to_string())
    }
}

/// FNV-1a 64-bit hash — the per-tensor integrity checksum. Not
/// cryptographic; it catches the corruption classes a container cares
/// about (bit flips, truncated/overwritten blobs, transposed segments).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rounds `n` up to the next multiple of [`DATA_ALIGN`].
pub(crate) fn align_up(n: usize) -> usize {
    n.div_ceil(DATA_ALIGN) * DATA_ALIGN
}

/// Little-endian byte cursor over a parsed buffer; every read is
/// bounds-checked and produces [`IoError::Truncated`] instead of panicking.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], IoError> {
        let have = self.buf.len().saturating_sub(self.pos);
        if n > have {
            return Err(IoError::Truncated {
                what: what.into(),
                need: n,
                have,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8, IoError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u32(&mut self, what: &str) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn f32(&mut self, what: &str) -> Result<f32, IoError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// A length-prefixed UTF-8 string (u64 length).
    pub fn string(&mut self, what: &str) -> Result<String, IoError> {
        let len = self.u64(what)? as usize;
        if len > 1 << 24 {
            return Err(IoError::Corrupt(format!(
                "{what}: implausible string length {len}"
            )));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| IoError::Corrupt(format!("{what}: invalid UTF-8")))
    }
}

/// Appends a length-prefixed UTF-8 string (u64 length).
pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        // FNV-1a 64 reference values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn cursor_reads_and_truncates() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&7u32.to_le_bytes());
        put_string(&mut buf, "hi");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32("x").unwrap(), 7);
        assert_eq!(c.string("s").unwrap(), "hi");
        assert!(matches!(
            c.u64("tail"),
            Err(IoError::Truncated { need: 8, .. })
        ));
    }

    #[test]
    fn cursor_rejects_bad_utf8_and_huge_strings() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            Cursor::new(&buf).string("s"),
            Err(IoError::Corrupt(_))
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u64::MAX).to_le_bytes());
        assert!(matches!(
            Cursor::new(&buf).string("s"),
            Err(IoError::Corrupt(_))
        ));
    }

    #[test]
    fn align_rounds_up() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 32);
        assert_eq!(align_up(32), 32);
        assert_eq!(align_up(33), 64);
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Checksum {
            tensor: "blk.0.attn_q.weight".into(),
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("attn_q"));
        assert!(IoError::from(std::io::Error::other("x"))
            .to_string()
            .contains("io:"));
    }
}
