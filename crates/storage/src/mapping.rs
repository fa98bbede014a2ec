//! Shared, immutable bytes behind a loaded main store's arenas, and the
//! one place the storage layer calls the operating system's `mmap` and
//! `munmap` (no libc crate: the two calls are declared here).
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
