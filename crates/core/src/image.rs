//! The bytes of an artifact file, held for as long as any panel of the
//! plan loaded from it lives: mapped read-only where the host allows,
//! otherwise read (or copied) once into owned, 64-byte-aligned memory.
//! Either way every caller sees one type, [`ArtifactImage`], whose
//! bytes never move and are never written: the [`PanelImage`] a loaded
//! plan's GEMM panels are regions of, read in place.
//!
//! The mapping is two raw syscalls (`mmap`, `munmap`) in the
//! inline-`asm!` idiom of `gcd2_kernels::amx`, so no dependency is
//! added; on a host other than Linux on x86-64, or when `mmap` fails,
//! the file is read instead.
//!
//! A mapping is only as immutable as its file. The artifact cache never
//! writes a file in place: a store writes a temp file and renames it
//! over the key, an eviction unlinks — neither touches the inode a
//! mapping holds, which lives on until the last plan over it drops. An
//! in-place writer that truncated the file would make the next read of
//! a vanished page a SIGBUS; the program has none, and the suites that
//! rewrite a cache entry in place drop every plan mapped from it first.

use gcd2_kernels::PanelImage;
use std::convert::Infallible;
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// How an [`ArtifactImage`] came by its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// Mapped read-only from the file.
    Map,
    /// Read from the file into owned memory.
    Read,
    /// Copied from a caller's buffer into owned memory.
    Copy,
}

impl Via {
    /// The load-ledger stage the bytes' arrival is timed as.
    pub(crate) fn stage(self) -> &'static str {
        match self {
            Via::Map => "map",
            Via::Read => "read",
            Via::Copy => "copy",
        }
    }
}

/// An artifact's bytes, mapped or owned: immutable, starting on a
/// 64-byte boundary, and at a fixed address for the value's life.
#[derive(Debug)]
pub(crate) enum ArtifactImage {
    Mapped(mapping::Mapping),
    /// `len` bytes from `start`, the first 64-byte boundary of a buffer
    /// 63 bytes longer.
    Owned {
        buf: Vec<u8>,
        start: usize,
        len: usize,
    },
}

impl ArtifactImage {
    /// The file at `path`, mapped — or read, where mapping is
    /// unavailable or fails — and how.
    ///
    /// # Errors
    /// The [`io::Error`] of opening or reading the file (not found
    /// included), or [`io::ErrorKind::InvalidInput`] if it is not a
    /// regular file.
    pub(crate) fn open(path: &Path) -> io::Result<(ArtifactImage, Via)> {
        let file = File::open(path)?;
        let len = regular_len(&file)?;
        match mapping::Mapping::of(&file, len) {
            Ok(map) => Ok((ArtifactImage::Mapped(map), Via::Map)),
            Err(_) => Ok((ArtifactImage::read(file, len)?, Via::Read)),
        }
    }

    /// The first `len` bytes of `file`, read into owned memory: the
    /// fallback of [`ArtifactImage::open`].
    ///
    /// # Errors
    /// The [`io::Error`] of the read, [`io::ErrorKind::UnexpectedEof`]
    /// for a file shorter than `len`.
    pub(crate) fn read(mut file: File, len: usize) -> io::Result<ArtifactImage> {
        ArtifactImage::owned(len, |image| file.read_exact(image))
    }

    /// `bytes`, copied once into owned memory.
    pub(crate) fn copy_of(bytes: &[u8]) -> ArtifactImage {
        let Ok(image) = ArtifactImage::owned(bytes.len(), |image| {
            image.copy_from_slice(bytes);
            Ok::<_, Infallible>(())
        });
        image
    }

    /// An owned image of `len` bytes, written once by `fill`.
    fn owned<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<ArtifactImage, E> {
        let mut buf = vec![0u8; len + 63];
        let start = buf.as_ptr().align_offset(64);
        fill(&mut buf[start..][..len])?;
        Ok(ArtifactImage::Owned { buf, start, len })
    }

    /// The image.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            ArtifactImage::Mapped(map) => map.bytes(),
            ArtifactImage::Owned { buf, start, len } => &buf[*start..][..*len],
        }
    }
}

/// The same slice on every call: a mapping never moves until it is
/// unmapped on drop, and an owned buffer is written once, by
/// [`ArtifactImage::owned`], before the value exists. A mapping's start
/// is page aligned and an owned image starts at the first 64-byte
/// boundary of its buffer.
impl PanelImage for ArtifactImage {
    fn bytes(&self) -> &[u8] {
        ArtifactImage::bytes(self)
    }
}

/// The length of `file`, refusing anything but a regular file (a
/// directory opens for reading on Linux, and maps as nothing).
fn regular_len(file: &File) -> io::Result<usize> {
    let meta = file.metadata()?;
    if !meta.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        ));
    }
    usize::try_from(meta.len()).map_err(|_| io::Error::from(io::ErrorKind::FileTooLarge))
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod mapping {
    use std::arch::asm;
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    const SYS_MMAP: u64 = 9;
    const SYS_MUNMAP: u64 = 11;
    const PROT_READ: u64 = 1;
    const MAP_PRIVATE: u64 = 2;
    /// Fault the whole file in at map time: the load hashes every byte
    /// next, so one populate call replaces a page fault per few pages.
    const MAP_POPULATE: u64 = 0x8000;

    /// A private, read-only mapping of a whole file.
    #[derive(Debug)]
    pub(crate) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only memory owned by this value alone,
    // unmapped only in `drop`; sharing `&[u8]` views of it across
    // threads is sharing immutable bytes, and dropping it on another
    // thread unmaps the same range.
    unsafe impl Send for Mapping {}
    // SAFETY: see `Send` — no method mutates through a shared reference.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the first `len` bytes of `file` read-only; an empty file
        /// is refused (`mmap` of 0 bytes is `EINVAL`), and the caller
        /// reads it instead.
        pub(super) fn of(file: &File, len: usize) -> io::Result<Mapping> {
            if len == 0 {
                return Err(io::Error::from(io::ErrorKind::InvalidInput));
            }
            let ret: i64;
            // SAFETY: raw `mmap(NULL, len, PROT_READ, MAP_PRIVATE |
            // MAP_POPULATE, fd, 0)` (x86-64 syscall 9) on a descriptor
            // `file` keeps open for the call; the kernel picks a fresh
            // address, so no existing memory is touched, and only
            // rcx/r11 are clobbered beyond the declared registers.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP => ret,
                    in("rdi") 0u64,
                    in("rsi") len as u64,
                    in("rdx") PROT_READ,
                    in("r10") MAP_PRIVATE | MAP_POPULATE,
                    in("r8") file.as_raw_fd() as i64,
                    in("r9") 0u64,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            if (-4095..0).contains(&ret) {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Mapping {
                ptr: std::ptr::with_exposed_provenance(ret as usize),
                len,
            })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr..ptr + len` is a live read-only mapping of the
            // file until `drop`, which needs `&mut self`, so no borrow
            // outlives it; nothing in the program writes the file in
            // place (module doc).
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: raw `munmap(ptr, len)` (syscall 11) of exactly the
            // range `of` mapped, once; every borrow of it has ended.
            unsafe {
                asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP => _,
                    in("rdi") self.ptr as u64,
                    in("rsi") self.len as u64,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod mapping {
    use std::fs::File;
    use std::io;

    /// No mapping on this host: every file is read.
    #[derive(Debug)]
    pub(crate) enum Mapping {}

    impl Mapping {
        pub(super) fn of(_: &File, _: usize) -> io::Result<Mapping> {
            Err(io::Error::from(io::ErrorKind::Unsupported))
        }

        pub(super) fn bytes(&self) -> &[u8] {
            match *self {}
        }
    }
}
