//! The write-ahead log: an append-only file of edit records.
//!
//! ```text
//! wal     := magic "TWAL" · version u16 LE · record*
//! record  := payload_len uvarint · crc32(payload) u32 LE · payload
//! payload := epoch uvarint · op u8 · fields
//! ```
//!
//! A record is a frame of [`crate::frame`], built by its one encoder;
//! replay parses records in place rather than through the frame reader,
//! because it must tell a torn tail from corruption.
//!
//! Every record is stamped with the **replay epoch** current when
//! it was appended: the epoch of the snapshot the record extends.
//! Replay-on-open compares each record's epoch against the snapshot's —
//! a record with an older epoch was already folded into the snapshot by
//! a compaction whose log truncation never hit the disk, and is
//! skipped. That makes replay idempotent for *every* record kind,
//! including structural edits, whose double application would shift
//! rows twice. Version-1 logs decode with epoch `0` on every record.
//!
//! Each record carries its own CRC-32 (covering the epoch stamp too),
//! so the two failure modes are distinguishable:
//!
//! - a **tear** — the file ends before a record is complete (the classic
//!   crash-mid-append shape). [`ReplayMode::TolerateTear`] drops the torn
//!   tail and reports where it began; [`ReplayMode::Strict`] returns
//!   [`StoreError::WalTorn`];
//! - **corruption** — a complete record whose checksum fails (bit rot,
//!   overwritten bytes). Always [`StoreError::WalCorrupt`]: records after
//!   it cannot be trusted even if they parse.
//!
//! [`WalWriter`] appends records and exposes explicit fsync points
//! ([`WalWriter::sync`]); the engine's autosave policy decides how often
//! to call it and when to fold the log back into a fresh snapshot
//! ([`WalWriter::reset`] truncates to an empty log after compaction).

use crate::codec::{crc32, read_string, read_uvarint, write_string, write_uvarint};
use crate::container::MAX_STRING;
use crate::frame::encode_frame;
use crate::image::{read_cell, read_range, read_value, write_cell, write_range, write_value};
use crate::vfs::{std_vfs, Vfs, VfsFile};
use crate::StoreError;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taco_core::StructuralOp;
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// Leading WAL magic.
pub const WAL_MAGIC: [u8; 4] = *b"TWAL";
/// The WAL format version (2 = epoch-stamped records), and the only one
/// the reader accepts.
pub const WAL_VERSION: u16 = 2;
const WAL_HEADER_LEN: u64 = 6;

/// One logged edit. Sheet indices are dense [`sheet ids`](usize) in the
/// workbook the log belongs to; `AddSheet` allocates the next index, so a
/// log replays against the snapshot it was opened with.
#[derive(Debug, Clone, PartialEq)]
pub enum EditRecord {
    /// `sheets[sheet]!cell = value`.
    SetValue {
        /// Dense sheet index.
        sheet: u32,
        /// The edited cell.
        cell: Cell,
        /// The new pure value.
        value: Value,
    },
    /// `sheets[sheet]!cell = =src`.
    SetFormula {
        /// Dense sheet index.
        sheet: u32,
        /// The formula cell.
        cell: Cell,
        /// Formula source text (leading `=` optional).
        src: String,
    },
    /// Clears every cell of `sheets[sheet]!range`.
    ClearRange {
        /// Dense sheet index.
        sheet: u32,
        /// The cleared range.
        range: Range,
    },
    /// Appends a new sheet named `name`.
    AddSheet {
        /// The sheet name.
        name: String,
    },
    /// A structural edit (row/column insert or delete) of
    /// `sheets[sheet]`, including its workbook-wide fallout: replay
    /// re-runs the same cross-sheet reference rewrites the live edit
    /// performed.
    Structural {
        /// Dense sheet index.
        sheet: u32,
        /// The geometric transform.
        op: StructuralOp,
    },
}

const OP_SET_VALUE: u8 = 0;
const OP_SET_FORMULA: u8 = 1;
const OP_CLEAR_RANGE: u8 = 2;
const OP_ADD_SHEET: u8 = 3;
const OP_STRUCTURAL: u8 = 4;

// `Structural` sub-kind bytes.
const STRUCT_INSERT_ROWS: u8 = 0;
const STRUCT_DELETE_ROWS: u8 = 1;
const STRUCT_INSERT_COLS: u8 = 2;
const STRUCT_DELETE_COLS: u8 = 3;

impl EditRecord {
    /// Encodes the record payload (op byte + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let infallible: Result<(), StoreError> = (|| {
            match self {
                EditRecord::SetValue { sheet, cell, value } => {
                    out.push(OP_SET_VALUE);
                    write_uvarint(&mut out, u64::from(*sheet))?;
                    write_cell(&mut out, *cell)?;
                    write_value(&mut out, value)?;
                }
                EditRecord::SetFormula { sheet, cell, src } => {
                    out.push(OP_SET_FORMULA);
                    write_uvarint(&mut out, u64::from(*sheet))?;
                    write_cell(&mut out, *cell)?;
                    write_string(&mut out, src)?;
                }
                EditRecord::ClearRange { sheet, range } => {
                    out.push(OP_CLEAR_RANGE);
                    write_uvarint(&mut out, u64::from(*sheet))?;
                    write_range(&mut out, *range)?;
                }
                EditRecord::AddSheet { name } => {
                    out.push(OP_ADD_SHEET);
                    write_string(&mut out, name)?;
                }
                EditRecord::Structural { sheet, op } => {
                    out.push(OP_STRUCTURAL);
                    write_uvarint(&mut out, u64::from(*sheet))?;
                    let (kind, at, n) = match *op {
                        StructuralOp::InsertRows { at, n } => (STRUCT_INSERT_ROWS, at, n),
                        StructuralOp::DeleteRows { at, n } => (STRUCT_DELETE_ROWS, at, n),
                        StructuralOp::InsertCols { at, n } => (STRUCT_INSERT_COLS, at, n),
                        StructuralOp::DeleteCols { at, n } => (STRUCT_DELETE_COLS, at, n),
                    };
                    out.push(kind);
                    write_uvarint(&mut out, u64::from(at))?;
                    write_uvarint(&mut out, u64::from(n))?;
                }
            }
            Ok(())
        })();
        debug_assert!(infallible.is_ok(), "Vec sinks cannot fail");
        out
    }

    /// Decodes a record payload.
    pub fn decode(mut bytes: &[u8]) -> Result<Self, StoreError> {
        let r = &mut bytes;
        let mut op = [0u8; 1];
        std::io::Read::read_exact(r, &mut op)?;
        let rec = match op[0] {
            OP_SET_VALUE => {
                let sheet = read_sheet_index(r)?;
                let cell = read_cell(r)?;
                EditRecord::SetValue { sheet, cell, value: read_value(r)? }
            }
            OP_SET_FORMULA => {
                let sheet = read_sheet_index(r)?;
                let cell = read_cell(r)?;
                EditRecord::SetFormula { sheet, cell, src: read_string(r, MAX_STRING)? }
            }
            OP_CLEAR_RANGE => {
                let sheet = read_sheet_index(r)?;
                EditRecord::ClearRange { sheet, range: read_range(r)? }
            }
            OP_ADD_SHEET => EditRecord::AddSheet { name: read_string(r, MAX_STRING)? },
            OP_STRUCTURAL => {
                let sheet = read_sheet_index(r)?;
                let mut kind = [0u8; 1];
                std::io::Read::read_exact(r, &mut kind)?;
                let at = read_grid_index(r)?;
                let n = read_grid_index(r)?;
                let op = match kind[0] {
                    STRUCT_INSERT_ROWS => StructuralOp::InsertRows { at, n },
                    STRUCT_DELETE_ROWS => StructuralOp::DeleteRows { at, n },
                    STRUCT_INSERT_COLS => StructuralOp::InsertCols { at, n },
                    STRUCT_DELETE_COLS => StructuralOp::DeleteCols { at, n },
                    _ => return Err(StoreError::Malformed("unknown structural kind")),
                };
                EditRecord::Structural { sheet, op }
            }
            _ => return Err(StoreError::Malformed("unknown WAL op")),
        };
        if !r.is_empty() {
            return Err(StoreError::Malformed("trailing bytes in WAL record"));
        }
        Ok(rec)
    }
}

fn read_sheet_index(r: &mut &[u8]) -> Result<u32, StoreError> {
    let v = read_uvarint(r)?;
    u32::try_from(v).map_err(|_| StoreError::Malformed("sheet index out of range"))
}

fn read_grid_index(r: &mut &[u8]) -> Result<u32, StoreError> {
    let v = read_uvarint(r)?;
    u32::try_from(v).map_err(|_| StoreError::Malformed("grid index out of range"))
}

// ---- writing ------------------------------------------------------------

/// Appends edit records to a WAL file with explicit fsync points. All
/// I/O goes through a [`Vfs`]; [`WalWriter::create`] /
/// [`WalWriter::open_append`] use the production [`std_vfs`], the
/// `*_with` constructors take any vfs (fault injection, in-memory).
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    bytes: u64,
    records: u64,
    /// The replay epoch stamped into appended records
    /// ([`WalWriter::set_epoch`]).
    epoch: u64,
    /// Attached observability handles ([`WalWriter::set_obs`]); `None`
    /// costs one branch per append/fsync.
    obs: Option<Box<crate::obs::WalObs>>,
}

impl WalWriter {
    /// Creates (or truncates to) an empty log and fsyncs the header —
    /// plus the parent directory, so a brand-new log's entry survives
    /// power loss.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        Self::create_with(std_vfs(), path)
    }

    /// [`WalWriter::create`] over an explicit vfs.
    pub fn create_with(vfs: Arc<dyn Vfs>, path: &Path) -> Result<Self, StoreError> {
        let mut file = vfs.create(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        file.write_all(&header)?;
        file.sync()?;
        vfs.sync_parent_dir(path)?;
        Ok(WalWriter {
            vfs,
            file,
            path: path.to_path_buf(),
            bytes: WAL_HEADER_LEN,
            records: 0,
            epoch: 0,
            obs: None,
        })
    }

    /// Opens an existing log for appending (creates it when missing). The
    /// existing content is validated by replaying it; `records`/`bytes`
    /// resume from the replay's clean prefix, and a torn tail is truncated
    /// away so new appends extend the valid prefix.
    pub fn open_append(path: &Path) -> Result<(Self, WalReplay), StoreError> {
        Self::open_append_with(std_vfs(), path)
    }

    /// [`WalWriter::open_append`] over an explicit vfs.
    pub fn open_append_with(
        vfs: Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<(Self, WalReplay), StoreError> {
        if !vfs.exists(path) {
            return Ok((Self::create_with(vfs, path)?, WalReplay::default()));
        }
        let replay = WalReader::parse(&vfs.read(path)?, ReplayMode::TolerateTear)?;
        if replay.clean_len < WAL_HEADER_LEN {
            // A crash truncated the file inside the header: recreate it so
            // appended records land behind a valid magic, not at offset 0.
            return Ok((Self::create_with(vfs, path)?, replay));
        }
        let mut file = vfs.open_append(path)?;
        file.set_len(replay.clean_len)?;
        let w = WalWriter {
            vfs,
            file,
            path: path.to_path_buf(),
            bytes: replay.clean_len,
            records: replay.records.len() as u64,
            epoch: replay.epochs.last().copied().unwrap_or(0),
            obs: None,
        };
        Ok((w, replay))
    }

    /// Sets the replay epoch stamped into subsequent appends — the
    /// epoch of the snapshot those records extend.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        if let Some(obs) = self.obs.as_deref() {
            obs.epoch.set(i64::try_from(epoch).unwrap_or(i64::MAX));
        }
    }

    /// The epoch currently stamped into appended records.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Appends one record (buffered by the OS until the next [`sync`]
    /// point; a single `write_all` keeps torn appends prefix-clean).
    /// The record is stamped with the current replay epoch.
    ///
    /// [`sync`]: WalWriter::sync
    pub fn append(&mut self, rec: &EditRecord) -> Result<(), StoreError> {
        let started = self.now_ns();
        let mut payload = Vec::new();
        write_uvarint(&mut payload, self.epoch)?;
        payload.extend_from_slice(&rec.encode());
        let frame = encode_frame(&payload)?;
        self.file.write_all(&frame)?;
        self.bytes += frame.len() as u64;
        self.records += 1;
        if let (Some(obs), Some(start_ns)) = (self.obs.as_deref(), started) {
            obs.on_append(start_ns, frame.len() as u64);
        }
        Ok(())
    }

    /// An fsync point: durably flushes everything appended so far.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        let started = self.now_ns();
        self.file.sync()?;
        if let (Some(obs), Some(start_ns)) = (self.obs.as_deref(), started) {
            obs.on_fsync(start_ns);
        }
        Ok(())
    }

    /// The attached hub's clock (`None` detached): the start stamp of a
    /// timed region, such as the compaction [`WalWriter::reset`] ends.
    pub fn now_ns(&self) -> Option<u64> {
        self.obs.as_deref().map(|o| o.now_ns())
    }

    /// Truncates the log back to an empty header — the fold point after
    /// compaction has written a fresh snapshot — and syncs the file and
    /// its parent directory so the truncation itself is durable. With
    /// `compaction_start` (a [`WalWriter::now_ns`] stamp taken before the
    /// snapshot was written) the compaction is counted and timed, as
    /// `taco_compaction_ns` and the `wal.compact` span.
    pub fn reset(&mut self, compaction_start: Option<u64>) -> Result<(), StoreError> {
        let folded = self.records;
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.sync()?;
        self.vfs.sync_parent_dir(&self.path)?;
        self.bytes = WAL_HEADER_LEN;
        self.records = 0;
        if let Some(obs) = self.obs.as_deref() {
            obs.resets.inc();
            if let Some(start_ns) = compaction_start {
                obs.on_compaction(start_ns, folded);
            }
        }
        Ok(())
    }

    /// Records appended since the last reset (or open).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Current log size in bytes (header included).
    pub fn byte_len(&self) -> u64 {
        self.bytes
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Attaches observability handles: subsequent appends, fsyncs,
    /// resets, and compactions record WAL counters, latency histograms,
    /// and spans through them. Detached (the default) the cost is one branch per call.
    pub fn set_obs(&mut self, obs: crate::obs::WalObs) {
        obs.epoch.set(i64::try_from(self.epoch).unwrap_or(i64::MAX));
        self.obs = Some(Box::new(obs));
    }
}

// ---- reading ------------------------------------------------------------

/// How a replay treats a file that ends mid-record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Drop the torn tail (crash recovery: the edit never fully committed)
    /// and report it in [`WalReplay::torn`].
    TolerateTear,
    /// Fail with [`StoreError::WalTorn`] (integrity checking).
    Strict,
}

/// The result of replaying a WAL.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalReplay {
    /// The clean-prefix records, in append order.
    pub records: Vec<EditRecord>,
    /// Per-record replay epochs, parallel to `records`.
    pub epochs: Vec<u64>,
    /// Where a torn tail began, if any: `(record index, byte offset)`.
    pub torn: Option<(u64, u64)>,
    /// Length in bytes of the clean prefix (header + whole records).
    pub clean_len: u64,
}

impl WalReplay {
    /// Records with their epochs, in append order.
    pub fn stamped(&self) -> impl Iterator<Item = (&EditRecord, u64)> {
        self.records.iter().zip(self.epochs.iter().copied())
    }
}

/// Decodes WAL files / byte buffers.
pub struct WalReader;

impl WalReader {
    /// Reads and replays a WAL file through the production [`std_vfs`].
    pub fn load(path: &Path, mode: ReplayMode) -> Result<WalReplay, StoreError> {
        Self::load_with(std_vfs().as_ref(), path, mode)
    }

    /// Reads and replays a WAL file through an explicit vfs.
    pub fn load_with(
        vfs: &dyn Vfs,
        path: &Path,
        mode: ReplayMode,
    ) -> Result<WalReplay, StoreError> {
        Self::parse(&vfs.read(path)?, mode)
    }

    /// Replays WAL bytes.
    pub fn parse(bytes: &[u8], mode: ReplayMode) -> Result<WalReplay, StoreError> {
        let empty =
            |torn| WalReplay { records: Vec::new(), epochs: Vec::new(), torn, clean_len: 0 };
        if bytes.is_empty() {
            // A crash can leave a zero-length file before the header ever
            // hits the disk: an empty log.
            return match mode {
                ReplayMode::TolerateTear => Ok(empty(Some((0, 0)))),
                ReplayMode::Strict => Err(StoreError::Truncated { what: "WAL header" }),
            };
        }
        if bytes.len() < WAL_HEADER_LEN as usize {
            return match mode {
                ReplayMode::TolerateTear
                    if bytes[..bytes.len().min(4)] == WAL_MAGIC[..bytes.len().min(4)] =>
                {
                    Ok(empty(Some((0, 0))))
                }
                ReplayMode::TolerateTear => Err(StoreError::BadMagic),
                ReplayMode::Strict => Err(StoreError::Truncated { what: "WAL header" }),
            };
        }
        if bytes[0..4] != WAL_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != WAL_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }

        let mut records = Vec::new();
        let mut epochs = Vec::new();
        let mut pos = WAL_HEADER_LEN as usize;
        loop {
            if pos == bytes.len() {
                return Ok(WalReplay { records, epochs, torn: None, clean_len: pos as u64 });
            }
            let record_index = records.len() as u64;
            let tear = |records: Vec<EditRecord>, epochs: Vec<u64>| match mode {
                ReplayMode::TolerateTear => Ok(WalReplay {
                    records,
                    epochs,
                    torn: Some((record_index, pos as u64)),
                    clean_len: pos as u64,
                }),
                ReplayMode::Strict => {
                    Err(StoreError::WalTorn { record: record_index, offset: pos as u64 })
                }
            };
            // Record length varint.
            let mut r = &bytes[pos..];
            let len = match read_uvarint(&mut r) {
                Ok(len) => len,
                Err(_) => return tear(records, epochs),
            };
            let after_len = bytes.len() - r.len();
            // CRC + payload.
            let Some(end) = (after_len as u64).checked_add(4 + len) else {
                return tear(records, epochs);
            };
            if end > bytes.len() as u64 {
                return tear(records, epochs);
            }
            let crc =
                u32::from_le_bytes(bytes[after_len..after_len + 4].try_into().expect("4 bytes"));
            let mut payload = &bytes[after_len + 4..end as usize];
            if crc32(payload) != crc {
                // A complete record failing its checksum is corruption in
                // the middle of the log, never a tear.
                return Err(StoreError::WalCorrupt { record: record_index });
            }
            // The payload leads with the replay epoch.
            let epoch = read_uvarint(&mut payload)?;
            records.push(EditRecord::decode(payload)?);
            epochs.push(epoch);
            pos = end as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<EditRecord> {
        vec![
            EditRecord::AddSheet { name: "Data".into() },
            EditRecord::SetValue { sheet: 0, cell: Cell::new(1, 1), value: Value::Number(4.5) },
            EditRecord::SetFormula { sheet: 0, cell: Cell::new(2, 1), src: "A1*2".into() },
            EditRecord::ClearRange { sheet: 0, range: Range::parse_a1("A1:B9").unwrap() },
            EditRecord::SetValue {
                sheet: 0,
                cell: Cell::new(9, 9),
                value: Value::Text("x".into()),
            },
            EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 3, n: 2 } },
            EditRecord::Structural { sheet: 1, op: StructuralOp::DeleteCols { at: 7, n: 130 } },
        ]
    }

    #[test]
    fn structural_kinds_round_trip_and_bad_kind_is_typed() {
        for op in [
            StructuralOp::InsertRows { at: 1, n: 1 },
            StructuralOp::DeleteRows { at: 200, n: 999 },
            StructuralOp::InsertCols { at: 0, n: 4 },
            StructuralOp::DeleteCols { at: u32::MAX, n: u32::MAX },
        ] {
            let rec = EditRecord::Structural { sheet: 5, op };
            assert_eq!(EditRecord::decode(&rec.encode()).unwrap(), rec);
        }
        // A structural record with an unknown sub-kind byte is malformed.
        let mut bytes =
            EditRecord::Structural { sheet: 0, op: StructuralOp::InsertRows { at: 1, n: 1 } }
                .encode();
        bytes[2] = 9;
        assert!(matches!(EditRecord::decode(&bytes), Err(StoreError::Malformed(_))));
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("taco_wal_{tag}_{}.twal", std::process::id()))
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = temp_path("roundtrip");
        let recs = sample_records();
        {
            let mut w = WalWriter::create(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
            w.sync().unwrap();
            assert_eq!(w.record_count(), recs.len() as u64);
        }
        let replay = WalReader::load(&path, ReplayMode::Strict).unwrap();
        assert_eq!(replay.records, recs);
        assert_eq!(replay.torn, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_or_strict_errors() {
        let recs = sample_records();
        let mut w = WalWriter::create(&temp_path("torn")).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        let bytes = std::fs::read(w.path()).unwrap();
        std::fs::remove_file(w.path()).ok();
        // Cut in the middle of the final record.
        let cut = bytes.len() - 3;
        let torn = &bytes[..cut];
        let replay = WalReader::parse(torn, ReplayMode::TolerateTear).unwrap();
        assert_eq!(replay.records, recs[..recs.len() - 1]);
        assert!(replay.torn.is_some());
        assert!(matches!(
            WalReader::parse(torn, ReplayMode::Strict),
            Err(StoreError::WalTorn { .. })
        ));
    }

    #[test]
    fn corrupt_middle_record_is_always_an_error() {
        let recs = sample_records();
        let mut w = WalWriter::create(&temp_path("corrupt")).unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        let mut bytes = std::fs::read(w.path()).unwrap();
        std::fs::remove_file(w.path()).ok();
        // Flip a payload byte in the middle of the log.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        for mode in [ReplayMode::TolerateTear, ReplayMode::Strict] {
            assert!(matches!(
                WalReader::parse(&bytes, mode),
                Err(StoreError::WalCorrupt { .. } | StoreError::WalTorn { .. })
            ));
        }
    }

    #[test]
    fn open_append_resumes_after_tear() {
        let path = temp_path("resume");
        let recs = sample_records();
        {
            let mut w = WalWriter::create(&path).unwrap();
            for r in &recs {
                w.append(r).unwrap();
            }
        }
        // Simulate a crash mid-append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (mut w, replay) = WalWriter::open_append(&path).unwrap();
        assert_eq!(replay.records.len(), recs.len() - 1);
        assert_eq!(w.record_count(), recs.len() as u64 - 1);
        // New appends extend the clean prefix.
        w.append(&recs[recs.len() - 1]).unwrap();
        w.sync().unwrap();
        let replay = WalReader::load(&path, ReplayMode::Strict).unwrap();
        assert_eq!(replay.records, recs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_recreates_a_header_torn_log() {
        // A crash during create can leave 0..6 header bytes; appending
        // must re-establish the magic, not write records at offset 0.
        for keep in [0usize, 3, 5] {
            let path = temp_path(&format!("hdr{keep}"));
            {
                let w = WalWriter::create(&path).unwrap();
                drop(w);
            }
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..keep]).unwrap();
            let (mut w, replay) = WalWriter::open_append(&path).unwrap();
            assert!(replay.records.is_empty());
            w.append(&EditRecord::AddSheet { name: "S".into() }).unwrap();
            w.sync().unwrap();
            let replay = WalReader::load(&path, ReplayMode::Strict).unwrap();
            assert_eq!(replay.records, vec![EditRecord::AddSheet { name: "S".into() }]);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn reset_folds_the_log() {
        let path = temp_path("reset");
        let mut w = WalWriter::create(&path).unwrap();
        for r in &sample_records() {
            w.append(r).unwrap();
        }
        w.reset(None).unwrap();
        assert_eq!(w.record_count(), 0);
        w.append(&EditRecord::AddSheet { name: "Fresh".into() }).unwrap();
        w.sync().unwrap();
        let replay = WalReader::load(&path, ReplayMode::Strict).unwrap();
        assert_eq!(replay.records, vec![EditRecord::AddSheet { name: "Fresh".into() }]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_carry_the_epoch_current_at_append_time() {
        let vfs: Arc<dyn Vfs> = Arc::new(crate::vfs::FaultVfs::pristine(1));
        let path = PathBuf::from("epochs.twal");
        let mut w = WalWriter::create_with(Arc::clone(&vfs), &path).unwrap();
        w.set_epoch(3);
        w.append(&EditRecord::AddSheet { name: "A".into() }).unwrap();
        w.set_epoch(4);
        w.append(&EditRecord::SetValue { sheet: 0, cell: Cell::new(1, 1), value: Value::Empty })
            .unwrap();
        w.sync().unwrap();
        let replay = WalReader::load_with(vfs.as_ref(), &path, ReplayMode::Strict).unwrap();
        assert_eq!(replay.epochs, vec![3, 4]);
        assert_eq!(replay.records.len(), 2);
        // Reopening resumes stamping at the last record's epoch.
        let (w2, _) = WalWriter::open_append_with(vfs, &path).unwrap();
        assert_eq!(w2.epoch(), 4);
    }

    #[test]
    fn wrong_magic_and_version_are_typed() {
        assert!(matches!(
            WalReader::parse(b"NOPE\x01\x00", ReplayMode::Strict),
            Err(StoreError::BadMagic)
        ));
        // Only the current version is read: 0 never existed, and a
        // version-1 log (records without the epoch stamp) was only ever
        // written by this repo's tests.
        for version in [0u16, 1, 0x63] {
            let mut bytes = WAL_MAGIC.to_vec();
            bytes.extend_from_slice(&version.to_le_bytes());
            for mode in [ReplayMode::Strict, ReplayMode::TolerateTear] {
                assert!(matches!(
                    WalReader::parse(&bytes, mode),
                    Err(StoreError::UnsupportedVersion(v)) if v == version
                ));
            }
        }
    }
}
