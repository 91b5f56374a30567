//! Read-only file mappings for zero-copy container loading.
//!
//! [`Mapping`] is the backing store every loaded container hands to
//! `tmac_core`'s borrowed [`tmac_core::Segment`]s: on Unix it is a real
//! `mmap(PROT_READ, MAP_PRIVATE)` of the file (called through a local FFI
//! declaration — no external crates are available offline), so weight tiles
//! are demand-paged straight from the page cache and never copied into the
//! process heap. [`LoadMode::Copy`] (and every non-Unix host) falls back to
//! an owned, 8-byte-aligned heap buffer with identical semantics — the
//! owned-copy twin the equivalence tests compare the mapped path against.

use crate::IoError;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use tmac_core::failpoint::{self, FailAction};

/// How a container file is brought into memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Map the file read-only and borrow tensor data zero-copy (Unix;
    /// silently equivalent to `Copy` on hosts without `mmap`).
    #[default]
    Mmap,
    /// Read the whole file into an owned aligned buffer.
    Copy,
}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    // Local declarations of the libc symbols std already links; the `libc`
    // crate is unavailable offline. Values are identical on Linux and the
    // BSD/macOS family.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
}

#[derive(Debug)]
enum Inner {
    /// A live `mmap` region (page-aligned, read-only).
    #[cfg(unix)]
    Mapped { ptr: *mut u8, len: usize },
    /// An owned buffer. Backed by `u64` words so the base address is
    /// 8-byte aligned and in-file 32-byte alignment carries over to `f32`
    /// views, exactly as it does for a page-aligned mapping.
    Owned { buf: Vec<u64>, len: usize },
}

/// A read-only view of a whole container file.
#[derive(Debug)]
pub struct Mapping {
    inner: Inner,
}

// SAFETY: the region is immutable for the life of the mapping (read-only
// private mapping / owned buffer), so shared access is safe.
unsafe impl Send for Mapping {}
// SAFETY: as for `Send`: no `&Mapping` method writes to the region, so
// concurrent reads cannot race.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Opens `path` under the requested mode.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::Io`] on filesystem or mapping failures.
    pub fn open(path: &Path, mode: LoadMode) -> Result<Mapping, IoError> {
        match mode {
            LoadMode::Copy => Self::open_copied(path),
            LoadMode::Mmap => Self::open_mapped(path),
        }
    }

    #[cfg(unix)]
    fn open_mapped(path: &Path) -> Result<Mapping, IoError> {
        use std::os::unix::io::AsRawFd;
        if failpoint::fire("io/mmap") == Some(FailAction::Error) {
            return Err(IoError::Io(format!(
                "mmap {}: injected fault",
                path.display()
            )));
        }
        let file =
            File::open(path).map_err(|e| IoError::Io(format!("open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| IoError::Io(format!("stat {}: {e}", path.display())))?
            .len() as usize;
        if len == 0 {
            return Ok(Mapping {
                inner: Inner::Owned {
                    buf: Vec::new(),
                    len: 0,
                },
            });
        }
        // SAFETY: len > 0, the fd is valid and open for reading; a private
        // read-only mapping of an immutable region. The fd may be closed
        // after mmap returns (POSIX keeps the mapping alive).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(IoError::Io(format!(
                "mmap {} ({len} bytes) failed",
                path.display()
            )));
        }
        Ok(Mapping {
            inner: Inner::Mapped {
                ptr: ptr.cast(),
                len,
            },
        })
    }

    #[cfg(not(unix))]
    fn open_mapped(path: &Path) -> Result<Mapping, IoError> {
        Self::open_copied(path)
    }

    fn open_copied(path: &Path) -> Result<Mapping, IoError> {
        if failpoint::fire("io/read") == Some(FailAction::Error) {
            return Err(IoError::Io(format!(
                "read {}: injected fault",
                path.display()
            )));
        }
        let mut file =
            File::open(path).map_err(|e| IoError::Io(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| IoError::Io(format!("read {}: {e}", path.display())))?;
        Ok(Self::from_bytes(&bytes))
    }

    /// Wraps an in-memory image in an owned (aligned) mapping — used by
    /// tests and by writers that verify what they just serialized.
    pub fn from_bytes(bytes: &[u8]) -> Mapping {
        let mut buf = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: buf holds at least bytes.len() bytes; both regions are
        // distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast(), bytes.len());
        }
        Mapping {
            inner: Inner::Owned {
                buf,
                len: bytes.len(),
            },
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap that lives until
            // drop; the region is never written.
            Inner::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Inner::Owned { buf, len } => {
                // SAFETY: buf holds at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr().cast(), *len) }
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { len, .. } => *len,
            Inner::Owned { len, .. } => *len,
        }
    }

    /// True when no bytes are mapped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this is a real file mapping (not an owned copy).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { .. } => true,
            Inner::Owned { .. } => false,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Inner::Mapped { ptr, len } = self.inner {
            // SAFETY: exactly the region returned by mmap; unmapped once.
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

impl tmac_core::PlanBacking for Mapping {
    fn bytes(&self) -> &[u8] {
        Mapping::bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tmac-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn mmap_and_copy_see_identical_bytes() {
        let path = tmp("map.bin");
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let mapped = Mapping::open(&path, LoadMode::Mmap).unwrap();
        let copied = Mapping::open(&path, LoadMode::Copy).unwrap();
        assert_eq!(mapped.bytes(), &data[..]);
        assert_eq!(copied.bytes(), &data[..]);
        assert_eq!(mapped.len(), copied.len());
        assert!(!copied.is_mapped());
        #[cfg(unix)]
        assert!(mapped.is_mapped());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn copy_buffer_is_word_aligned() {
        let m = Mapping::from_bytes(&[1, 2, 3, 4, 5]);
        assert_eq!(m.bytes(), &[1, 2, 3, 4, 5]);
        assert!((m.bytes().as_ptr() as usize).is_multiple_of(8));
        assert!(!m.is_empty());
        assert!(Mapping::from_bytes(&[]).is_empty());
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = Mapping::open(Path::new("/nonexistent/tmac.bin"), LoadMode::Mmap);
        assert!(matches!(err, Err(IoError::Io(_))));
    }
}
