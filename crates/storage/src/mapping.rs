//! Shared, immutable bytes behind a loaded main store's arenas, and the
//! one place the storage layer calls the operating system's `mmap`,
//! `munmap` and `sync_file_range` (no libc crate: the calls are declared
//! here).
//!
//! A resident load maps a checkpoint's arena runs read-only and private:
//! each partition's [`Arena`] is then a range of those [`Pages`], and the
//! page cache holds the bytes instead of a freshly zeroed copy. A write
//! copies the range into an owned `Vec` first ([`Arena::to_mut`]), so a
//! mapped page is never written. The mapping holds the file's inode, so a
//! later checkpoint that unlinks the blob leaves it readable; what it
//! relies on is that a committed blob is never rewritten or truncated in
//! place — only renamed in and unlinked.

use std::fmt;
use std::fs::File;
use std::ops::Deref;
use std::sync::Arc;

/// A read-only private mapping of a file range, unmapped on drop.
struct Mapping {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: `ptr` and `len` are set once by `new` and never change; the
// range they name is mapped read-only, owned by this value alone and
// unmapped only by its `Drop`. Nothing writes the pages, so sending the
// value to another thread, or reading them from several, is sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    /// `MAP_FAILED`.
    pub const FAILED: isize = -1;

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

    /// `SYNC_FILE_RANGE_WRITE`: start write-back of the range's dirty
    /// pages, without waiting for it.
    #[cfg(target_os = "linux")]
    pub const SYNC_FILE_RANGE_WRITE: std::ffi::c_uint = 2;

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn sync_file_range(
            fd: c_int,
            offset: i64,
            nbytes: i64,
            flags: std::ffi::c_uint,
        ) -> c_int;
    }
}

/// Ask the system to start writing bytes `at..at + len` of `file` back to
/// its device, and return without waiting. Only a hint: off Linux it does
/// nothing, and a refusal is reported but changes nothing — the file's
/// `sync_data` is still what makes the bytes durable.
pub fn start_write_back(file: &File, at: u64, len: u64) -> std::io::Result<()> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        use std::os::unix::io::AsRawFd;
        let (Ok(at), Ok(len)) = (i64::try_from(at), i64::try_from(len)) else {
            return Err(std::io::ErrorKind::InvalidInput.into());
        };
        // SAFETY: reads its arguments only; an invalid descriptor or range
        // is an error return, not undefined behaviour.
        let rc =
            unsafe { sys::sync_file_range(file.as_raw_fd(), at, len, sys::SYNC_FILE_RANGE_WRITE) };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    let _ = (file, at, len);
    Ok(())
}

impl Mapping {
    /// Bytes `at..at + len` of `file`, mapped read-only; `None` when the
    /// system refuses (an offset off its page size, a file system that
    /// cannot map) or `len` is zero.
    #[cfg(all(unix, target_pointer_width = "64"))]
    fn new(file: &File, at: u64, len: usize) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        let offset = i64::try_from(at).ok()?;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh mapping at an address the system picks; it
        // aliases no Rust memory, and the system validates every argument.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                offset,
            )
        };
        if ptr as isize == sys::FAILED {
            return None;
        }
        Some(Mapping {
            ptr: std::ptr::NonNull::new(ptr.cast())?,
            len,
        })
    }

    #[cfg(not(all(unix, target_pointer_width = "64")))]
    fn new(_file: &File, _at: u64, _len: usize) -> Option<Mapping> {
        None
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `len` readable bytes from `ptr` for as long as `self`
        // lives; the file behind them is never written in place.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            // SAFETY: exactly the range `new` mapped; no borrow of it
            // outlives `self`.
            unsafe { sys::munmap(self.ptr.as_ptr().cast(), self.len) };
        }
    }
}

enum Backing {
    Mapped(Mapping),
    Heap(Vec<u8>),
}

/// A range of one blob's bytes, immutable and shared by every arena
/// loaded from it: mapped from the blob's file, or held in memory.
pub(crate) struct Pages {
    /// Blob offset of the first byte.
    at: u64,
    bytes: Backing,
}

impl Pages {
    /// `bytes`, which sit at blob offset `at`, held in memory.
    pub(crate) fn heap(at: u64, bytes: Vec<u8>) -> Pages {
        Pages {
            at,
            bytes: Backing::Heap(bytes),
        }
    }

    /// Bytes `at..at + len` of `file`, mapped read-only and private;
    /// `None` where the system will not map them (see [`Pages::heap`]).
    pub(crate) fn map(file: &File, at: u64, len: usize) -> Option<Pages> {
        Mapping::new(file, at, len).map(|m| Pages {
            at,
            bytes: Backing::Mapped(m),
        })
    }

    fn bytes(&self) -> &[u8] {
        match &self.bytes {
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap(v) => v,
        }
    }

    /// The `len` bytes at blob offset `at`, if these pages hold them.
    pub(crate) fn get(&self, at: u64, len: usize) -> Option<&[u8]> {
        let from = usize::try_from(at.checked_sub(self.at)?).ok()?;
        self.bytes().get(from..from.checked_add(len)?)
    }

    /// True when the bytes are mapped from a file.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.bytes, Backing::Mapped(_))
    }
}

impl fmt::Debug for Pages {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pages")
            .field("at", &self.at)
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A partition's value arena: bytes it owns, or a shared, immutable range
/// of a loaded blob's [`Pages`].
#[derive(Clone)]
pub(crate) enum Arena {
    Owned(Vec<u8>),
    Shared {
        pages: Arc<Pages>,
        /// Index of the first byte in `pages`' bytes.
        start: usize,
        len: usize,
    },
}

impl Default for Arena {
    fn default() -> Self {
        Arena::Owned(Vec::new())
    }
}

impl Arena {
    /// The `len` bytes at blob offset `at` of `pages`, shared; `None`
    /// unless the pages hold them.
    pub(crate) fn shared(pages: &Arc<Pages>, at: u64, len: usize) -> Option<Arena> {
        pages.get(at, len)?;
        Some(Arena::Shared {
            pages: Arc::clone(pages),
            start: (at - pages.at) as usize,
            len,
        })
    }

    /// The bytes, owned: a shared range is copied out first, so the pages
    /// behind it are never written.
    pub(crate) fn to_mut(&mut self) -> &mut Vec<u8> {
        if let Arena::Shared { .. } = self {
            *self = Arena::Owned(self.to_vec());
        }
        match self {
            Arena::Owned(v) => v,
            Arena::Shared { .. } => unreachable!("copied out above"),
        }
    }

    /// True when the bytes are a range of pages mapped from a file.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, Arena::Shared { pages, .. } if pages.is_mapped())
    }
}

impl Deref for Arena {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Arena::Owned(v) => v,
            Arena::Shared { pages, start, len } => &pages.bytes()[*start..*start + *len],
        }
    }
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arena::Owned(v) => write!(f, "Owned({} bytes)", v.len()),
            Arena::Shared { pages, len, .. } => write!(f, "Shared({len} bytes of {pages:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// The hint is taken for a regular file's written range and leaves its
    /// bytes as written; a descriptor that cannot be written back refuses
    /// it (on Linux).
    #[test]
    fn write_back_is_a_hint_that_moves_no_byte() {
        let path = std::env::temp_dir().join(format!("pdsm-writeback-{}", std::process::id()));
        let mut file = File::create(&path).unwrap();
        file.write_all(&[7; 8192]).unwrap();
        assert!(start_write_back(&file, 0, 8192).is_ok());
        file.sync_data().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), vec![7; 8192]);
        let _ = std::fs::remove_file(&path);
        if cfg!(target_os = "linux") {
            let (reader, _writer) = std::io::pipe().unwrap();
            let pipe = File::from(std::os::fd::OwnedFd::from(reader));
            assert!(start_write_back(&pipe, 0, 1).is_err());
        }
    }
}
