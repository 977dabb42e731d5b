//! # gcd2-artifact — versioned plan artifacts and the on-disk cache
//!
//! The container layer of the AOT artifact store: a versioned,
//! self-describing binary envelope for compiled-plan payloads, plus a
//! content-addressed on-disk cache with crash-safe writes. The *payload*
//! codec (how an `InferencePlan` becomes section bytes) lives in
//! `gcd2::artifact`; this crate knows nothing about plans — only about
//! sections, checksums, bounds, and files — so the container can be
//! fuzzed and reasoned about in isolation.
//!
//! ## Wire layout
//!
//! ```text
//! magic[8] = "GCD2ART\0"
//! version  u32 LE          (FORMAT_VERSION; skew is a structured error)
//! count    u32 LE          (section count, capped)
//! table    count × { id u32, offset u64, len u64, checksum u64 }
//! payloads in table order, each starting on a SECTION_ALIGN-byte
//!          boundary of the file, the gaps zero
//! chain    u64 LE          (Checksum64 over the table, bound to the
//!                           plan integrity checksum — see verify_chain)
//! ```
//!
//! Every offset and length in the table is validated against the file
//! size and the running cursor **before** any payload is touched, every
//! alignment gap must be zeros, all payload sizes are capped, and the
//! crate forbids `unsafe` outright — a hostile artifact can only ever
//! produce an [`ArtifactError`]. The alignment is what lets a loader
//! use a payload in place: a section read or mapped from a file on a
//! [`SECTION_ALIGN`] boundary is as aligned as its own layout makes its
//! contents.
//!
//! ## Integrity model
//!
//! * per-section [`Checksum64`] values catch bit flips inside a payload;
//! * the trailing **chain** checksum hashes the whole section table and
//!   then the plan's own PR-5 integrity checksum (the `bind` value), so
//!   a valid table spliced onto a different plan, or a reordered table,
//!   fails [`Artifact::verify_chain`];
//! * none of this is cryptographic — it detects corruption, not a
//!   deliberate forger, which is why the plan loader derives the
//!   schedule itself instead of reading one, re-hashes what it loaded
//!   against the bound value, and the gateway re-runs the analyzer on
//!   every loaded plan.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::undocumented_unsafe_blocks)]

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime};

/// The artifact file magic, first eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"GCD2ART\0";

/// Container format version. Bumped on any incompatible layout change
/// — and when the function that derives part of the payload changes
/// without a field moving (version 3: the host layout selection admits
/// more, so a version-2 plan's stored labels are no longer the derived
/// ones; version 4: the checksum function is [`Checksum64`] where it was
/// byte-serial FNV-1a, so every stored value differs and nothing else
/// does; version 5: the plan payload lost its tile-hint section — a
/// GEMM's blocking is a function of its shape and nothing about it is
/// stored; version 6: it lost its schedule section — the steps, slots,
/// shifts and layout labels are a function of the graph, which the
/// loader derives with the builder's code, and the stored plan checksum
/// moved into the metadata; version 7: the schedule derivation folds
/// unary steps into their GEMM's requantisation, and the plan checksum
/// folds each GEMM's epilogue map and each folded step, so a version-6
/// checksum of a plan with such steps is no longer the derived one — the
/// weights are byte for byte the same; version 8: every payload starts
/// on a [`SECTION_ALIGN`] boundary, the plan payload's weights are each
/// GEMM's panel as its kernel reads it, which a loader borrows in place,
/// and the plan checksum folds their section checksum). Readers refuse
/// other versions with [`ArtifactError::VersionSkew`] (the cache key
/// includes the version, so skewed files are simply never hit).
pub const FORMAT_VERSION: u32 = 8;

/// Hard cap on sections per artifact: far above the handful the plan
/// codec emits, low enough that a forged count cannot drive a large
/// allocation.
pub const MAX_SECTIONS: usize = 64;

/// Hard cap on a single section payload (and therefore on any length a
/// decoder allocates from).
pub const MAX_SECTION_BYTES: u64 = 1 << 30;

/// The boundary every section payload starts on, counted from the first
/// byte of the artifact: a cache line.
pub const SECTION_ALIGN: usize = 64;

/// Bytes of fixed header before the section table.
const HEADER_BYTES: usize = 8 + 4 + 4;
/// Bytes per section-table entry: id + offset + len + checksum.
const TABLE_ENTRY_BYTES: usize = 4 + 8 + 8 + 8;

/// Why an artifact could not be decoded, verified, or moved through the
/// cache. The decode paths produce only the first six variants; `Io` is
/// reserved for the on-disk cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The first eight bytes are not the artifact magic: not an
    /// artifact at all (or one truncated into its magic).
    BadMagic,
    /// The artifact was written by a different format version.
    VersionSkew {
        /// Version stamped in the file.
        found: u32,
        /// Version this reader supports.
        supported: u32,
    },
    /// The file ends before a declared structure does.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the structure still needed.
        need: usize,
    },
    /// A section's payload no longer hashes to its table checksum.
    SectionChecksum {
        /// The section id.
        section: u32,
        /// Checksum declared in the table.
        expected: u64,
        /// Checksum of the payload as read.
        got: u64,
    },
    /// A declared count, offset, or length escapes its validated range.
    Bounds {
        /// Which field was out of range.
        what: &'static str,
        /// The declared value.
        value: u64,
        /// The cap or expected value it violated.
        limit: u64,
    },
    /// A stored integrity value is not the one the loader recomputes.
    /// Either the chain checksum — the section table and the plan
    /// integrity checksum it binds no longer agree with the trailer
    /// (tampered table, spliced payload, stale trailer) — or the plan
    /// checksum: the plan derived from the stored graph and weights does
    /// not hash to the value the writer recorded (edited graph or
    /// weights, a forged checksum, or a writer whose schedule or layout
    /// selection differed from this build's).
    IntegrityMismatch {
        /// The value the artifact stores (chain trailer or plan checksum).
        expected: u64,
        /// The value recomputed from what was loaded.
        got: u64,
    },
    /// A cache filesystem operation failed (never produced by decode).
    Io {
        /// The operation that failed (`read`, `write`, `rename`, ...).
        op: &'static str,
        /// The OS error, rendered.
        message: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a gcd2 artifact (bad magic)"),
            ArtifactError::VersionSkew { found, supported } => write!(
                f,
                "artifact format version {found} (this build reads {supported})"
            ),
            ArtifactError::Truncated { offset, need } => {
                write!(f, "artifact truncated at byte {offset} ({need} more needed)")
            }
            ArtifactError::SectionChecksum {
                section,
                expected,
                got,
            } => write!(
                f,
                "section {section} checksum mismatch: table says {expected:#018x}, payload hashes to {got:#018x}"
            ),
            ArtifactError::Bounds { what, value, limit } => {
                write!(f, "artifact {what} = {value} violates bound {limit}")
            }
            ArtifactError::IntegrityMismatch { expected, got } => write!(
                f,
                "artifact integrity checksum mismatch: stored {expected:#018x}, recomputed {got:#018x}"
            ),
            ArtifactError::Io { op, message } => {
                write!(f, "artifact cache {op} failed: {message}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The odd multiplier of every [`Checksum64`] step (2⁶⁴ / φ).
const MIX_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Where a fresh [`Checksum64`] starts.
const STATE_SEED: u64 = 0x510e_527f_ade6_82d1;
/// Where the fold of one byte run starts, before its length goes in.
const FOLD_SEED: u64 = 0x9b05_688c_2b3e_6c1f;
/// Where the four lanes of one byte run start.
const LANE_SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];

/// One absorption step: for a fixed `w` a bijection of `h`, for a fixed
/// `h` a bijection of `w` (xor, multiply by an odd constant and
/// xor-shift-right are each invertible). The shift is what keeps the
/// same top-bit flip in two different words from cancelling, which a
/// bare word-wise multiply-xor would let through.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(MIX_MUL);
    h ^ (h >> 29)
}

/// The digest of one byte run, absorbed in pieces: 8-byte little-endian
/// words on four independent lanes per 32-byte stripe (lane `i` takes
/// word `i` of every stripe, so four multiplies are in flight at once),
/// a ragged tail zero-padded to one more stripe, then the byte length
/// and the four lanes folded through the same step by
/// [`RunDigest::finish`]. The state is the lanes and the length, so a
/// run may arrive in any number of chunks whose lengths are multiples
/// of 32 bytes, then one ragged last chunk, and digests to the value of
/// the whole run in one chunk — [`Checksum64::bytes`] and
/// [`Checksum64::i8s`] are one chunk of it. A chunk after a ragged one
/// would be absorbed from a stripe boundary its bytes do not start on:
/// that is a caller bug (a debug assertion).
#[derive(Debug, Clone)]
pub struct RunDigest {
    lanes: [u64; 4],
    len: u64,
}

impl Default for RunDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl RunDigest {
    /// The digest of an empty run.
    pub fn new() -> RunDigest {
        RunDigest {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    /// Absorbs the next chunk of the run.
    pub fn bytes(&mut self, chunk: &[u8]) {
        self.absorb(chunk, |b| b);
    }

    /// Absorbs the next chunk of the run as the bytes `vals` is stored
    /// as.
    pub fn i8s(&mut self, vals: &[i8]) {
        self.absorb(vals, |v| v as u8);
    }

    /// The digest of everything absorbed so far, as one run.
    pub fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(mix(FOLD_SEED, self.len), |d, &lane| mix(d, lane))
    }

    /// `byte` maps an element to its byte, so `&[i8]` weights hash as
    /// the bytes they are stored as without a reinterpreting cast.
    #[inline(always)]
    fn absorb<T: Copy>(&mut self, data: &[T], byte: impl Fn(T) -> u8) {
        debug_assert!(
            self.len.is_multiple_of(32),
            "a chunk after a ragged one ({} bytes absorbed)",
            self.len
        );
        let mut lanes = self.lanes;
        let mut stripe_in = |stripe: &[u8; 32]| {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = mix(*lane, u64::from_le_bytes(std::array::from_fn(|i| w[i])));
            }
        };
        let mut stripes = data.chunks_exact(32);
        for stripe in &mut stripes {
            stripe_in(&std::array::from_fn(|i| byte(stripe[i])));
        }
        let tail = stripes.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; 32];
            for (p, &t) in padded.iter_mut().zip(tail) {
                *p = byte(t);
            }
            stripe_in(&padded);
        }
        self.lanes = lanes;
        self.len += data.len() as u64;
    }
}

/// The one checksum of the workspace: artifact section checksums, the
/// chain, cache content keys and the plan integrity checksum of
/// `gcd2::infer`. Not cryptographic — it detects corruption, not
/// adversaries.
///
/// What it promises, by construction rather than by luck:
///
/// * **A change confined to one 8-byte word always changes the value.**
///   Every step is a bijection of the state for a fixed word and of the
///   word for a fixed state, from the lane that absorbs the word through
///   the fold to [`Checksum64::finish`] — so a flipped bit, byte or word
///   cannot go unseen, and neither can zero bytes appended inside a
///   stripe (the length is folded in).
/// * **The value depends on the bytes alone**: words are read with
///   `u64::from_le_bytes`, lengths folded as `u64`, no `usize`-width,
///   endianness, SIMD-tier or intrinsic enters, so an artifact written
///   on one host verifies on every other.
/// * **It is a sequence hash, not a stream hash**: [`Checksum64::bytes`]
///   folds the digest of the whole run (length included) in as one
///   step, so `bytes(a); bytes(b)` is not `bytes(a ‖ b)`, and
///   [`Checksum64::u64`] is one step that need not agree with `bytes` of
///   the same eight bytes. A run that arrives in pieces is digested with
///   a [`RunDigest`], and `u64(digest.finish())` is `bytes` of the whole
///   run.
#[derive(Debug, Clone)]
pub struct Checksum64(u64);

impl Default for Checksum64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum64 {
    /// A checksum that has absorbed nothing.
    pub fn new() -> Checksum64 {
        Checksum64(STATE_SEED)
    }

    /// Folds one run of bytes, length-framed, into the checksum.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut run = RunDigest::new();
        run.bytes(bytes);
        self.u64(run.finish());
    }

    /// [`Checksum64::bytes`] of the bytes `vals` is stored as.
    pub fn i8s(&mut self, vals: &[i8]) {
        let mut run = RunDigest::new();
        run.i8s(vals);
        self.u64(run.finish());
    }

    /// Folds one `u64` into the checksum, in one step.
    pub fn u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    /// The current value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot [`Checksum64`] of a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Checksum64::new();
    h.bytes(bytes);
    h.finish()
}

/// A growing little-endian byte buffer for payload encoders.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty buffer with room for `bytes` — for a payload whose size
    /// is known before it is written.
    pub fn with_capacity(bytes: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends signed bytes as the bytes they are stored as (no length
    /// prefix).
    pub fn i8s(&mut self, v: &[i8]) {
        self.buf.extend(v.iter().map(|&x| x as u8));
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn len_bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.len_bytes(v.as_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian cursor over untrusted bytes: every
/// read validates the remaining length first and every length-prefixed
/// read validates the declared length against a caller cap *before*
/// allocating, so a hostile payload can only produce
/// [`ArtifactError::Truncated`] / [`ArtifactError::Bounds`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Borrows the next `n` bytes, advancing the cursor.
    ///
    /// # Errors
    /// [`ArtifactError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated {
                offset: self.pos,
                need: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`ArtifactError::Truncated`] at end of buffer.
    pub fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`ArtifactError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ArtifactError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`ArtifactError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ArtifactError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a `u64` and validates it as a count/length/index against
    /// `limit` (inclusive), naming `what` in the error.
    ///
    /// # Errors
    /// [`ArtifactError::Bounds`] if the value exceeds `limit`;
    /// [`ArtifactError::Truncated`] if the field itself is cut off.
    pub fn u64_capped(&mut self, what: &'static str, limit: u64) -> Result<u64, ArtifactError> {
        let v = self.u64()?;
        if v > limit {
            return Err(ArtifactError::Bounds {
                what,
                value: v,
                limit,
            });
        }
        Ok(v)
    }

    /// Reads a `u32`-length-prefixed byte run, capping the declared
    /// length at `limit` before touching the payload.
    ///
    /// # Errors
    /// [`ArtifactError::Bounds`] for an oversized declared length,
    /// [`ArtifactError::Truncated`] if the run is cut off.
    pub fn len_bytes(&mut self, what: &'static str, limit: u64) -> Result<&'a [u8], ArtifactError> {
        let len = self.u32()? as u64;
        if len > limit {
            return Err(ArtifactError::Bounds {
                what,
                value: len,
                limit,
            });
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string. Invalid UTF-8 inside a
    /// checksum-valid artifact is forgery, and is refused rather than
    /// repaired into something a consumer would then accept.
    ///
    /// # Errors
    /// As [`ByteReader::len_bytes`]; [`ArtifactError::Bounds`] (the
    /// offset of the first invalid byte against the run's length) for
    /// bytes that are not UTF-8.
    pub fn str(&mut self, what: &'static str, limit: u64) -> Result<String, ArtifactError> {
        let bytes = self.len_bytes(what, limit)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_owned()),
            Err(e) => Err(ArtifactError::Bounds {
                what: "string utf-8",
                value: e.valid_up_to() as u64,
                limit: bytes.len() as u64,
            }),
        }
    }
}

/// One decoded section: id plus its verified payload, lent from the
/// buffer the artifact was decoded from.
#[derive(Debug, Clone)]
pub struct Section<'a> {
    /// Section id (the plan codec assigns meanings).
    pub id: u32,
    /// Where the payload starts in the artifact: a multiple of
    /// [`SECTION_ALIGN`].
    pub offset: usize,
    /// The payload bytes, already checksum-verified.
    pub bytes: &'a [u8],
    /// The payload's [`checksum64`], as the table stores it and the
    /// payload was verified to hash to.
    pub checksum: u64,
}

/// Builds an artifact: sections in, a checksummed container out.
#[derive(Debug, Default)]
pub struct ArtifactWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl ArtifactWriter {
    /// An empty artifact under construction.
    pub fn new() -> ArtifactWriter {
        ArtifactWriter::default()
    }

    /// Appends a section. Order is preserved and hashed into the chain.
    pub fn section(&mut self, id: u32, bytes: Vec<u8>) {
        self.sections.push((id, bytes));
    }

    /// Serializes the container, binding the chain checksum to `bind`
    /// (the plan's integrity checksum).
    ///
    /// # Errors
    /// [`ArtifactError::Bounds`] if a section exceeds
    /// [`MAX_SECTION_BYTES`] or there are more than [`MAX_SECTIONS`].
    pub fn finish(self, bind: u64) -> Result<Vec<u8>, ArtifactError> {
        if self.sections.len() > MAX_SECTIONS {
            return Err(ArtifactError::Bounds {
                what: "section count",
                value: self.sections.len() as u64,
                limit: MAX_SECTIONS as u64,
            });
        }
        let table_bytes = HEADER_BYTES + TABLE_ENTRY_BYTES * self.sections.len();
        let payload_bytes: usize = self
            .sections
            .iter()
            .map(|(_, b)| b.len() + SECTION_ALIGN)
            .sum();
        let mut out = Vec::with_capacity(table_bytes + payload_bytes + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = table_bytes as u64;
        let mut chain = Checksum64::new();
        chain.u64(FORMAT_VERSION as u64);
        chain.u64(self.sections.len() as u64);
        for (id, bytes) in &self.sections {
            if bytes.len() as u64 > MAX_SECTION_BYTES {
                return Err(ArtifactError::Bounds {
                    what: "section length",
                    value: bytes.len() as u64,
                    limit: MAX_SECTION_BYTES,
                });
            }
            let checksum = checksum64(bytes);
            offset = offset.next_multiple_of(SECTION_ALIGN as u64);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&checksum.to_le_bytes());
            chain.u64(*id as u64);
            chain.u64(offset);
            chain.u64(bytes.len() as u64);
            chain.u64(checksum);
            offset += bytes.len() as u64;
        }
        for (_, bytes) in &self.sections {
            out.resize(out.len().next_multiple_of(SECTION_ALIGN), 0);
            out.extend_from_slice(bytes);
        }
        chain.u64(bind);
        out.extend_from_slice(&chain.finish().to_le_bytes());
        Ok(out)
    }
}

/// A decoded artifact container: verified sections — views into the
/// decoded buffer, nothing is copied — plus the stored chain checksum,
/// still awaiting [`Artifact::verify_chain`] against the plan integrity
/// checksum the payload declares.
#[derive(Debug, Clone)]
pub struct Artifact<'a> {
    /// The format version stamped in the header (always
    /// [`FORMAT_VERSION`] after a successful decode).
    pub version: u32,
    /// The sections, in table order, payloads checksum-verified.
    pub sections: Vec<Section<'a>>,
    /// The chain checksum stored in the trailer.
    pub stored_chain: u64,
    /// The chain recomputed over the table (before binding).
    table_chain: Checksum64,
}

impl<'a> Artifact<'a> {
    /// Decodes and verifies the container: magic, version, table
    /// bounds, contiguity, and every per-section checksum. No payload
    /// byte is interpreted beyond hashing.
    ///
    /// # Errors
    /// Every container defect maps to one [`ArtifactError`] variant:
    /// wrong magic → `BadMagic`, other version → `VersionSkew`, short
    /// file → `Truncated`, forged counts/offsets/lengths → `Bounds`,
    /// flipped payload or table checksum → `SectionChecksum`.
    pub fn decode(buf: &'a [u8]) -> Result<Artifact<'a>, ArtifactError> {
        let mut r = ByteReader::new(buf);
        if r.take(8)? != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(ArtifactError::VersionSkew {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = r.u32()? as usize;
        if count > MAX_SECTIONS {
            return Err(ArtifactError::Bounds {
                what: "section count",
                value: count as u64,
                limit: MAX_SECTIONS as u64,
            });
        }
        let mut chain = Checksum64::new();
        chain.u64(version as u64);
        chain.u64(count as u64);
        let mut table = Vec::with_capacity(count);
        let mut expected_offset = (HEADER_BYTES + TABLE_ENTRY_BYTES * count) as u64;
        for _ in 0..count {
            let id = r.u32()?;
            let offset = r.u64()?;
            let len = r.u64()?;
            let checksum = r.u64()?;
            expected_offset = expected_offset.next_multiple_of(SECTION_ALIGN as u64);
            if offset != expected_offset {
                return Err(ArtifactError::Bounds {
                    what: "section offset",
                    value: offset,
                    limit: expected_offset,
                });
            }
            if len > MAX_SECTION_BYTES {
                return Err(ArtifactError::Bounds {
                    what: "section length",
                    value: len,
                    limit: MAX_SECTION_BYTES,
                });
            }
            chain.u64(id as u64);
            chain.u64(offset);
            chain.u64(len);
            chain.u64(checksum);
            table.push((id, offset as usize, len, checksum));
            expected_offset += len;
        }
        // The trailer must still fit after the last payload.
        if (expected_offset as usize).checked_add(8).is_none()
            || expected_offset as usize + 8 > buf.len()
        {
            return Err(ArtifactError::Truncated {
                offset: buf.len(),
                need: expected_offset as usize + 8 - buf.len(),
            });
        }
        if expected_offset as usize + 8 < buf.len() {
            return Err(ArtifactError::Bounds {
                what: "trailing bytes",
                value: buf.len() as u64,
                limit: expected_offset + 8,
            });
        }
        let mut sections = Vec::with_capacity(count);
        for (id, offset, len, checksum) in table {
            let gap = r.take(offset - r.pos())?;
            if let Some(at) = gap.iter().position(|&b| b != 0) {
                return Err(ArtifactError::Bounds {
                    what: "section padding",
                    value: (offset - gap.len() + at) as u64,
                    limit: offset as u64,
                });
            }
            let bytes = r.take(len as usize)?;
            let got = checksum64(bytes);
            if got != checksum {
                return Err(ArtifactError::SectionChecksum {
                    section: id,
                    expected: checksum,
                    got,
                });
            }
            sections.push(Section {
                id,
                offset,
                bytes,
                checksum,
            });
        }
        let stored_chain = r.u64()?;
        Ok(Artifact {
            version,
            sections,
            stored_chain,
            table_chain: chain,
        })
    }

    /// The payload of the first section with `id`, if present.
    pub fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|s| s.id == id).map(|s| s.bytes)
    }

    /// Verifies the chain checksum against `bind` (the plan integrity
    /// checksum the payload declares): catches a tampered trailer, a
    /// spliced table, or a payload transplanted onto another plan.
    ///
    /// # Errors
    /// [`ArtifactError::IntegrityMismatch`] on disagreement.
    pub fn verify_chain(&self, bind: u64) -> Result<(), ArtifactError> {
        let mut chain = self.table_chain.clone();
        chain.u64(bind);
        let got = chain.finish();
        if got != self.stored_chain {
            return Err(ArtifactError::IntegrityMismatch {
                expected: self.stored_chain,
                got,
            });
        }
        Ok(())
    }
}

/// How long an orphaned temp file may sit in the cache directory
/// before garbage collection reclaims it: long enough that a live
/// writer is never raced.
pub const STALE_TEMP_AGE: Duration = Duration::from_secs(3600);

const TEMP_PREFIX: &str = ".tmp.";
const ARTIFACT_SUFFIX: &str = ".gcd2art";

/// A content-addressed artifact cache directory with crash-safe writes.
///
/// * **Addressing** — keys are hex [`Checksum64`] values of the inputs that
///   determine the artifact bytes (graph text, compiler options,
///   format version, seed); see [`ArtifactCache::content_key`].
/// * **Crash safety** — [`ArtifactCache::store`] writes a temp file in
///   the cache directory, fsyncs it, atomically renames it over the
///   final name, then fsyncs the directory. A crash at any point leaves
///   either the old state or the new state, never a torn final file;
///   orphaned temps are swept by [`ArtifactCache::gc_stale_temps`].
/// * **Concurrency** — every temp name is unique per writer, so
///   concurrent writers of one key (threads or processes) never share a
///   temp file; the key fixes the bytes, so whichever rename lands last
///   leaves the same artifact.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
}

/// Numbers the temp files of this process, so two threads storing the
/// same key never open the same temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn io_err(op: &'static str, e: std::io::Error) -> ArtifactError {
    ArtifactError::Io {
        op,
        message: e.to_string(),
    }
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory and sweeps temp
    /// files older than [`STALE_TEMP_AGE`].
    ///
    /// # Errors
    /// [`ArtifactError::Io`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ArtifactCache, ArtifactError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create-dir", e))?;
        let cache = ArtifactCache { dir };
        let _ = cache.gc_stale_temps(STALE_TEMP_AGE);
        Ok(cache)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Derives the content-address for an artifact from the byte strings
    /// that determine it. Each part is one length-framed
    /// [`Checksum64::bytes`] run, so part boundaries cannot alias
    /// (`["ab","c"]` ≠ `["a","bc"]`).
    pub fn content_key(parts: &[&[u8]]) -> String {
        let mut h = Checksum64::new();
        for part in parts {
            h.bytes(part);
        }
        format!("{:016x}", h.finish())
    }

    /// The final on-disk path for `key`.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}{ARTIFACT_SUFFIX}"))
    }

    /// Reads the artifact stored under `key`. A missing file is
    /// `Ok(None)` (a cache miss, not an error).
    ///
    /// # Errors
    /// [`ArtifactError::Io`] for any filesystem failure other than
    /// not-found.
    pub fn load(&self, key: &str) -> Result<Option<Vec<u8>>, ArtifactError> {
        match fs::read(self.path_for(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    /// Stores `bytes` under `key` crash-safely: temp file + fsync +
    /// atomic rename + directory fsync. Returns the final path.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] on any filesystem failure; the final path
    /// is never left torn.
    pub fn store(&self, key: &str, bytes: &[u8]) -> Result<PathBuf, ArtifactError> {
        let final_path = self.path_for(key);
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp_path = self
            .dir
            .join(format!("{TEMP_PREFIX}{key}.{}.{seq}", std::process::id()));
        {
            let mut tmp = fs::File::create(&tmp_path).map_err(|e| io_err("create-temp", e))?;
            tmp.write_all(bytes).map_err(|e| io_err("write", e))?;
            tmp.sync_all().map_err(|e| io_err("fsync", e))?;
        }
        if let Err(e) = fs::rename(&tmp_path, &final_path) {
            let _ = fs::remove_file(&tmp_path);
            return Err(io_err("rename", e));
        }
        // Persist the rename itself; without this a crash can lose the
        // directory entry even though the data blocks are on disk.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(final_path)
    }

    /// Removes the artifact stored under `key`; returns whether one
    /// existed.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] for failures other than not-found.
    pub fn evict(&self, key: &str) -> Result<bool, ArtifactError> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err("remove", e)),
        }
    }

    /// Sweeps temp files older than `max_age` (a crashed writer's
    /// leavings). Returns how many were removed.
    ///
    /// # Errors
    /// [`ArtifactError::Io`] if the directory cannot be listed.
    pub fn gc_stale_temps(&self, max_age: Duration) -> Result<usize, ArtifactError> {
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err("read-dir", e))?;
        let mut removed = 0;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(TEMP_PREFIX)
                && file_older_than(&entry.path(), max_age)
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Whether the file's mtime is at least `age` in the past (unreadable
/// metadata counts as stale: the file is junk either way).
fn file_older_than(path: &Path, age: Duration) -> bool {
    let Ok(meta) = fs::metadata(path) else {
        return false;
    };
    let Ok(mtime) = meta.modified() else {
        return true;
    };
    match SystemTime::now().duration_since(mtime) {
        Ok(elapsed) => elapsed >= age,
        Err(_) => false, // mtime in the future: a live writer's clock skew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.section(1, b"meta-bytes".to_vec());
        w.section(2, vec![7u8; 300]);
        w.section(3, Vec::new());
        w.finish(0xBEEF).unwrap()
    }

    /// A deterministic, non-repeating test buffer.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn every_single_bit_flip_at_every_length_changes_the_value() {
        for len in 0..=130 {
            let base = noise(len);
            let want = checksum64(&base);
            for i in 0..len {
                for bit in 0..8 {
                    let mut b = base.clone();
                    b[i] ^= 1 << bit;
                    assert_ne!(checksum64(&b), want, "len {len}, byte {i}, bit {bit}");
                }
            }
        }
    }

    /// The same bit flipped in two different words — the pattern a bare
    /// word-wise multiply-xor cancels at bit 63 — over every pair of
    /// words of a 256-byte buffer (eight stripes: pairs on one lane and
    /// across lanes), on noise and on the all-zero buffer.
    #[test]
    fn the_same_bit_flipped_in_two_words_changes_the_value() {
        for base in [noise(256), vec![0u8; 256]] {
            let want = checksum64(&base);
            for (byte, mask) in [(0, 0x01u8), (7, 0x80u8)] {
                for w1 in 0..32 {
                    for w2 in w1 + 1..32 {
                        let mut b = base.clone();
                        b[w1 * 8 + byte] ^= mask;
                        b[w2 * 8 + byte] ^= mask;
                        assert_ne!(checksum64(&b), want, "words {w1}, {w2}, mask {mask:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn appended_zero_bytes_and_run_boundaries_change_the_value() {
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 100] {
            let mut b = noise(len);
            let mut seen = vec![checksum64(&b)];
            for _ in 0..40 {
                b.push(0);
                let v = checksum64(&b);
                assert!(!seen.contains(&v), "len {len} padded to {}", b.len());
                seen.push(v);
            }
        }
        // Runs are length-framed: two runs are not their concatenation,
        // wherever the split falls.
        let whole = noise(96);
        for split in 0..=whole.len() {
            let (a, b) = whole.split_at(split);
            let mut h = Checksum64::new();
            h.bytes(a);
            h.bytes(b);
            assert_ne!(h.finish(), checksum64(&whole), "split at {split}");
        }
    }

    /// Known answers: the value is part of the format (since version 4), so it
    /// may not drift with the host, the build profile or a refactor.
    #[test]
    fn known_answers_are_pinned() {
        let hundred: Vec<u8> = (0..100u8).collect();
        assert_eq!(checksum64(b""), 0x5e34_b7bf_174d_59c6);
        assert_eq!(checksum64(b"GCD2ART"), 0x532e_d602_c17b_f7db);
        assert_eq!(checksum64(&hundred), 0x5080_2a0b_8c85_3b42);
        // One `u64` step and an 8-byte run are different things; each is
        // pinned.
        let v = 0x0123_4567_89ab_cdefu64;
        let mut h = Checksum64::new();
        h.u64(v);
        assert_eq!(h.finish(), 0x2284_0106_0285_802e);
        assert_eq!(checksum64(&v.to_le_bytes()), 0xbd71_67e4_572a_4b7d);
        // Signed bytes hash as the bytes they are stored as.
        let signed: Vec<i8> = hundred.iter().map(|&b| b.wrapping_mul(37) as i8).collect();
        let stored: Vec<u8> = signed.iter().map(|&v| v as u8).collect();
        let mut h = Checksum64::new();
        h.i8s(&signed);
        assert_eq!(h.finish(), checksum64(&stored));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(200))]

        /// A run absorbed in chunks of whole stripes, then a ragged last
        /// one, digests to the one-shot value — as bytes and as `i8`s,
        /// wherever the cuts fall, empty chunks included.
        #[test]
        fn every_stripe_chunking_digests_to_the_one_shot_value(
            len in 0usize..=400,
            stripes in proptest::collection::vec(0usize..=4, 0..7),
        ) {
            let run = noise(len);
            let signed: Vec<i8> = run.iter().map(|&b| b as i8).collect();
            let mut whole = Checksum64::new();
            whole.bytes(&run);
            let mut cut = Vec::new();
            let mut at = 0;
            for s in stripes {
                let end = (at + 32 * s).min(len / 32 * 32);
                cut.push(at..end);
                at = end;
            }
            cut.push(at..len);
            let (mut bytes, mut i8s) = (RunDigest::new(), RunDigest::new());
            for range in cut {
                bytes.bytes(&run[range.clone()]);
                i8s.i8s(&signed[range]);
            }
            for digest in [bytes, i8s] {
                let mut h = Checksum64::new();
                h.u64(digest.finish());
                proptest::prop_assert_eq!(h.finish(), whole.finish());
            }
        }
    }

    /// The byte-serial FNV-1a this crate used through format version 3,
    /// kept here only as the baseline of [`perf_probe`].
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// `cargo test --release -p gcd2-artifact perf_probe -- --ignored
    /// --nocapture`: GB/s of the old byte loop against [`Checksum64`].
    #[test]
    #[ignore = "a measurement, not a check"]
    fn perf_probe() {
        for (label, len) in [("1 KiB", 1 << 10), ("1 MiB", 1 << 20), ("25 MiB", 25 << 20)] {
            let buf = noise(len);
            let signed: Vec<i8> = buf.iter().map(|&b| b as i8).collect();
            let reps = ((64usize << 20) / len).clamp(2, 4096);
            let gbps = |f: &dyn Fn() -> u64| {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(f());
                }
                (len * reps) as f64 / t0.elapsed().as_secs_f64() / 1e9
            };
            let old = gbps(&|| fnv1a(std::hint::black_box(&buf)));
            let new = gbps(&|| checksum64(std::hint::black_box(&buf)));
            let i8s = gbps(&|| {
                let mut h = Checksum64::new();
                h.i8s(std::hint::black_box(&signed));
                h.finish()
            });
            println!(
                "{label:>7}: fnv1a {old:6.2} GB/s   checksum64 {new:6.2} GB/s   i8s {i8s:6.2} GB/s"
            );
        }
    }

    #[test]
    fn container_round_trips() {
        let bytes = sample();
        let art = Artifact::decode(&bytes).unwrap();
        assert_eq!(art.version, FORMAT_VERSION);
        assert_eq!(art.sections.len(), 3);
        assert_eq!(art.section(1), Some(&b"meta-bytes"[..]));
        assert_eq!(art.section(2).unwrap().len(), 300);
        assert_eq!(art.section(3), Some(&[][..]));
        assert_eq!(art.section(9), None);
        // Sections are lent, not copied: every payload lies inside the
        // decoded buffer.
        let held = bytes.as_ptr_range();
        for sec in &art.sections {
            let lent = sec.bytes.as_ptr_range();
            assert!(held.start <= lent.start && lent.end <= held.end);
        }
        art.verify_chain(0xBEEF).unwrap();
        assert!(matches!(
            art.verify_chain(0xDEAD),
            Err(ArtifactError::IntegrityMismatch { .. })
        ));
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            for bit in [1u8, 0x80] {
                let mut evil = bytes.clone();
                evil[i] ^= bit;
                let structured = match Artifact::decode(&evil) {
                    Err(_) => true,
                    // A flip that survives container decode must still
                    // be caught by the chain bind.
                    Ok(art) => art.verify_chain(0xBEEF).is_err(),
                };
                assert!(structured, "flip at byte {i} bit {bit:#x} went undetected");
            }
        }
    }

    #[test]
    fn truncation_at_every_length_is_structured() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = match Artifact::decode(&bytes[..cut]) {
                Err(e) => e,
                Ok(art) => {
                    panic!("truncated to {cut} bytes decoded: {art:?}");
                }
            };
            assert!(
                matches!(
                    err,
                    ArtifactError::BadMagic
                        | ArtifactError::Truncated { .. }
                        | ArtifactError::Bounds { .. }
                ),
                "cut {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn hostile_headers_hit_exact_variants() {
        let bytes = sample();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Artifact::decode(&bad_magic),
            Err(ArtifactError::BadMagic)
        ));

        let mut skew = bytes.clone();
        skew[8] = 99;
        assert!(matches!(
            Artifact::decode(&skew),
            Err(ArtifactError::VersionSkew {
                found: 99,
                supported: FORMAT_VERSION,
            })
        ));

        let mut oversized = bytes.clone();
        // Section 1 declared length lives at header + 4 (id) + 8 (offset).
        let len_at = HEADER_BYTES + 4 + 8;
        oversized[len_at..len_at + 8].copy_from_slice(&(MAX_SECTION_BYTES + 1).to_le_bytes());
        assert!(matches!(
            Artifact::decode(&oversized),
            Err(ArtifactError::Bounds {
                what: "section length",
                ..
            })
        ));

        let mut many = bytes.clone();
        many[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Artifact::decode(&many),
            Err(ArtifactError::Bounds {
                what: "section count",
                ..
            })
        ));

        let mut flipped_payload = bytes.clone();
        let payload_at = Artifact::decode(&bytes).unwrap().sections[0].offset;
        flipped_payload[payload_at] ^= 0xFF;
        assert!(matches!(
            Artifact::decode(&flipped_payload),
            Err(ArtifactError::SectionChecksum { section: 1, .. })
        ));
    }

    /// Every payload starts on a [`SECTION_ALIGN`] boundary, and a
    /// non-zero byte in a gap before one is refused though no checksum
    /// covers it.
    #[test]
    fn payloads_are_aligned_and_their_gaps_zero() {
        let bytes = sample();
        let art = Artifact::decode(&bytes).unwrap();
        let mut end = HEADER_BYTES + 3 * TABLE_ENTRY_BYTES;
        for sec in &art.sections {
            assert_eq!(sec.offset % SECTION_ALIGN, 0, "section {}", sec.id);
            assert_eq!(sec.offset, end.next_multiple_of(SECTION_ALIGN));
            assert_eq!(sec.checksum, checksum64(sec.bytes));
            for gap in end..sec.offset {
                let mut evil = bytes.clone();
                evil[gap] = 1;
                assert!(
                    matches!(
                        Artifact::decode(&evil),
                        Err(ArtifactError::Bounds {
                            what: "section padding",
                            ..
                        })
                    ),
                    "gap byte {gap}"
                );
            }
            end = sec.offset + sec.bytes.len();
        }
    }

    #[test]
    fn zero_section_artifact_is_valid_but_bindable() {
        let w = ArtifactWriter::new();
        let bytes = w.finish(7).unwrap();
        let art = Artifact::decode(&bytes).unwrap();
        assert!(art.sections.is_empty());
        art.verify_chain(7).unwrap();
        assert!(art.verify_chain(8).is_err());
    }

    #[test]
    fn reader_caps_reject_before_allocation() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX); // declared length far beyond the buffer
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert!(matches!(
            r.len_bytes("name", 4096),
            Err(ArtifactError::Bounds { what: "name", .. })
        ));
        let mut r2 = ByteReader::new(&buf);
        assert!(matches!(
            r2.u64_capped("count", 10),
            Err(ArtifactError::Truncated { .. }) | Err(ArtifactError::Bounds { .. })
        ));
    }

    #[test]
    fn content_key_frames_parts() {
        let a = ArtifactCache::content_key(&[b"ab", b"c"]);
        let b = ArtifactCache::content_key(&[b"a", b"bc"]);
        assert_ne!(a, b);
        assert_eq!(a, ArtifactCache::content_key(&[b"ab", b"c"]));
    }

    fn temp_cache(tag: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("gcd2-artifact-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn cache_store_load_evict() {
        let cache = temp_cache("sle");
        let key = ArtifactCache::content_key(&[b"graph", b"opts"]);
        assert_eq!(cache.load(&key).unwrap(), None);
        let bytes = sample();
        cache.store(&key, &bytes).unwrap();
        assert_eq!(cache.load(&key).unwrap(), Some(bytes));
        assert!(cache.evict(&key).unwrap());
        assert!(!cache.evict(&key).unwrap());
        assert_eq!(cache.load(&key).unwrap(), None);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_temps_are_collected_fresh_ones_kept() {
        let cache = temp_cache("gc");
        let orphan = cache.dir().join(format!("{TEMP_PREFIX}dead.1234"));
        fs::write(&orphan, b"torn").unwrap();
        // Age zero: everything qualifies as stale.
        assert_eq!(cache.gc_stale_temps(Duration::ZERO).unwrap(), 1);
        assert!(!orphan.exists());
        fs::write(&orphan, b"torn").unwrap();
        // A fresh temp under a long age is a live writer's: kept.
        assert_eq!(cache.gc_stale_temps(STALE_TEMP_AGE).unwrap(), 0);
        assert!(orphan.exists());
        let _ = fs::remove_dir_all(cache.dir());
    }
}
