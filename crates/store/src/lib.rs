//! `taco_store` — compact on-disk persistence for workbooks, with a
//! write-ahead log for incremental durability.
//!
//! A workbook image holds what was typed — values and formula text —
//! with the values the formulas last evaluated to and the dirty marks,
//! and nothing derived from them: the engine derives the compressed
//! formula graph from the formulas on open, one edge per column stretch
//! of a filled run. The crate is layered like the WebGraph storage stack
//! it borrows from:
//!
//! 1. [`codec`] — LEB128 varints and zigzag over `std::io`, plus CRC-32;
//! 2. [`container`] — a sectioned binary format for a whole workbook:
//!    header with magic/version, one section per sheet (interned formula
//!    sources, delta-coded cells and their values, the dirty set) and a
//!    footer index that enables per-sheet lazy loading;
//! 3. [`wal`] — an append-only log of edit records with per-record
//!    checksums, replay-on-open, and explicit fsync points; a crash can
//!    tear the final record, which replay detects and drops.
//!
//! Everything is plain data ([`WorkbookImage`]); `taco_engine` converts
//! live workbooks to and from images and owns the autosave/compaction
//! policy. All decoders degrade to typed [`StoreError`]s on corrupt
//! input — truncations, bit flips, wrong magic/version, and mid-record
//! WAL tears never panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod container;
pub mod frame;
pub mod image;
pub mod obs;
pub mod vfs;
pub mod wal;

pub use container::{
    encode_workbook, write_workbook_file, write_workbook_file_with, StoreReader, FORMAT_VERSION,
};
pub use frame::{read_frame, write_frame, DEFAULT_MAX_FRAME};
pub use image::{CellRecord, SheetImage, WorkbookImage};
pub use obs::WalObs;
pub use vfs::{std_vfs, FaultHits, FaultPlan, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{EditRecord, ReplayMode, WalReader, WalReplay, WalWriter};

use std::fmt;

/// Errors from every storage layer. Corrupt input of any kind maps to one
/// of these — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io {
        /// The failing operation's error kind.
        kind: std::io::ErrorKind,
    },
    /// The file does not start (or end) with the container magic.
    BadMagic,
    /// The file's (or peer's) format version is not the one this build
    /// reads and writes.
    UnsupportedVersion(u16),
    /// A section, footer, or WAL record failed its CRC-32 check.
    ChecksumMismatch {
        /// Which structure failed (e.g. `"sheet section"`, `"footer"`).
        what: &'static str,
    },
    /// The file ends before a structure is complete.
    Truncated {
        /// Which structure was cut short.
        what: &'static str,
    },
    /// A structurally invalid encoding (bad varint, out-of-range
    /// coordinate, unknown tag…).
    Malformed(&'static str),
    /// A WAL record in the middle of the log failed its checksum.
    WalCorrupt {
        /// Zero-based index of the damaged record.
        record: u64,
    },
    /// The WAL ends mid-record (a crash tear), reported in strict mode.
    WalTorn {
        /// Zero-based index of the torn record.
        record: u64,
        /// Byte offset at which the tear begins.
        offset: u64,
    },
    /// A well-formed edit record could not be applied to the workbook
    /// being restored (unknown sheet, unparsable formula…).
    InvalidRecord(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { kind } => write!(f, "i/o error: {kind:?}"),
            StoreError::BadMagic => write!(f, "not a taco_store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v} (this build reads {FORMAT_VERSION} only)")
            }
            StoreError::ChecksumMismatch { what } => write!(f, "checksum mismatch in {what}"),
            StoreError::Truncated { what } => write!(f, "file truncated inside {what}"),
            StoreError::Malformed(what) => write!(f, "malformed encoding: {what}"),
            StoreError::WalCorrupt { record } => write!(f, "WAL record {record} is corrupt"),
            StoreError::WalTorn { record, offset } => {
                write!(f, "WAL torn inside record {record} at byte {offset}")
            }
            StoreError::InvalidRecord(why) => write!(f, "edit record not applicable: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated { what: "input stream" }
        } else {
            StoreError::Io { kind: e.kind() }
        }
    }
}
