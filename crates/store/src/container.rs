//! The sectioned container format.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header    magic "TACO" · version u16 LE · flags u16 LE     │
//! ├────────────────────────────────────────────────────────────┤
//! │ sheet section 0   (formula interning · cells · dirty set)  │
//! │ sheet section 1 …                                          │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer    replay epoch · evaluation clock · per-sheet      │
//! │           (name, offset, length, CRC-32)                   │
//! ├────────────────────────────────────────────────────────────┤
//! │ trailer   footer length u32 LE · footer CRC-32 u32 LE ·    │
//! │           tail magic "OCAT"                                │
//! └────────────────────────────────────────────────────────────┘
//! ```
//!
//! The footer lives at the *end* so the writer streams sections without
//! back-patching; a reader seeks to the trailer, validates the footer,
//! and then decodes only the sections it needs ([`StoreReader`] decodes
//! per sheet on demand — the lazy-loading hook). Every section and the
//! footer carry CRC-32 checksums; any damage surfaces as a typed
//! [`StoreError`] at open or section-decode time.
//!
//! A section holds what was typed and what it evaluated to, nothing
//! derived from it: the formula graph is a function of the formulas, and
//! the engine derives it again on open, the edges within a sheet and
//! those between sheets alike.

use crate::codec::{
    crc32, read_f64, read_string, read_uvarint, write_f64, write_string, write_uvarint,
};
use crate::image::{
    cell_from, read_value_payload, small_i64, value_tag, write_value_payload, CellRecord,
    SheetImage, WorkbookImage,
};
use crate::StoreError;
use std::path::Path;
use taco_formula::EvalClock;
use taco_grid::Cell;

/// Leading file magic.
pub const MAGIC: [u8; 4] = *b"TACO";
/// Trailing file magic (cheap truncation tripwire).
pub const TAIL_MAGIC: [u8; 4] = *b"OCAT";
/// The format version, and the only one readers accept. Version 2 added
/// the replay epoch to the footer; version 3 dropped the cross-sheet edge
/// section, which the formulas' text already implies; version 4 added the
/// evaluation clock to the footer, which the stored values were computed
/// under; version 5 dropped each sheet's graph, which its formulas imply
/// as well.
pub const FORMAT_VERSION: u16 = 5;
/// Upper bound on any single decoded string (names, formula sources,
/// text values) so corrupt lengths cannot drive huge allocations.
pub(crate) const MAX_STRING: u64 = 1 << 24;
/// Rejects a declared element count that cannot possibly fit in the
/// remaining input — each element consumes at least `min_units` of the
/// `remaining` bytes — so
/// `Vec::with_capacity` is never asked for more memory than the input
/// itself justifies. CRC-32 is not a MAC: a crafted re-checksummed file
/// reaches these counts, and the no-panic/no-OOM contract must hold.
fn bounded_count(
    count: u64,
    remaining: usize,
    min_units: usize,
    what: &'static str,
) -> Result<usize, StoreError> {
    if count > (remaining / min_units.max(1)) as u64 {
        return Err(StoreError::Malformed(what));
    }
    Ok(count as usize)
}

const HEADER_LEN: usize = 8;
const TRAILER_LEN: usize = 12;

// ---- writing ------------------------------------------------------------

/// Encodes a whole workbook image into container bytes.
pub fn encode_workbook(image: &WorkbookImage) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags

    // Sections, streamed back-to-back; the footer records their spans.
    let mut footer_entries: Vec<(String, u64, u64, u32)> = Vec::new();
    for sheet in &image.sheets {
        let payload = encode_sheet(sheet)?;
        footer_entries.push((
            sheet.name.clone(),
            out.len() as u64,
            payload.len() as u64,
            crc32(&payload),
        ));
        out.extend_from_slice(&payload);
    }

    // Footer. It leads with the replay epoch: every WAL record with an
    // older stamp is already folded into this snapshot. Then the clock
    // `NOW()`, `TODAY()` and `RAND()` read.
    let mut footer = Vec::new();
    write_uvarint(&mut footer, image.epoch)?;
    write_f64(&mut footer, image.clock.now)?;
    write_f64(&mut footer, image.clock.today)?;
    write_uvarint(&mut footer, image.clock.rand_seed)?;
    write_uvarint(&mut footer, footer_entries.len() as u64)?;
    for (name, off, len, crc) in &footer_entries {
        write_string(&mut footer, name)?;
        write_uvarint(&mut footer, *off)?;
        write_uvarint(&mut footer, *len)?;
        footer.extend_from_slice(&crc.to_le_bytes());
    }

    // The footer CRC also covers the 8 header bytes, so a flipped
    // version/flags bit cannot slip past the checksums.
    let mut crc_input = out[..HEADER_LEN].to_vec();
    crc_input.extend_from_slice(&footer);
    let footer_crc = crc32(&crc_input);
    out.extend_from_slice(&footer);
    out.extend_from_slice(&(footer.len() as u32).to_le_bytes());
    out.extend_from_slice(&footer_crc.to_le_bytes());
    out.extend_from_slice(&TAIL_MAGIC);
    Ok(out)
}

/// Encodes and writes a workbook image to `path` atomically: the bytes
/// go to a `<path>.tmp` sibling, are fsynced, and rename over `path` —
/// so a crash mid-write can never destroy an existing snapshot. The
/// parent directory is then fsynced, so the rename itself survives
/// power loss (a lost rename would silently resurrect the old
/// snapshot).
pub fn write_workbook_file(path: &Path, image: &WorkbookImage) -> Result<(), StoreError> {
    write_workbook_file_with(crate::vfs::std_vfs().as_ref(), path, image)
}

/// [`write_workbook_file`] over an explicit [`Vfs`].
///
/// [`Vfs`]: crate::vfs::Vfs
pub fn write_workbook_file_with(
    vfs: &dyn crate::vfs::Vfs,
    path: &Path,
    image: &WorkbookImage,
) -> Result<(), StoreError> {
    let bytes = encode_workbook(image)?;
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync()?;
    }
    if let Err(e) = vfs.rename(&tmp, path) {
        let _ = vfs.remove(&tmp);
        return Err(e);
    }
    vfs.sync_parent_dir(path)?;
    Ok(())
}

fn encode_sheet(sheet: &SheetImage) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    // Cells go in (col, row) order. Sort *references* — images usually
    // arrive pre-sorted, and re-establishing the order must not
    // deep-clone every formula string on the autosave path.
    let mut cells: Vec<&(Cell, CellRecord)> = sheet.cells.iter().collect();
    cells.sort_by_key(|(c, _)| *c);

    // 1. Interned formula sources: first occurrence wins, cells refer to
    //    table indices. Autofilled neighbours usually differ (shifted
    //    references), but lookup columns and repeated rollups dedup well.
    let mut intern: Vec<&str> = Vec::new();
    let mut intern_ids: std::collections::HashMap<&str, u64> = std::collections::HashMap::new();
    for (_, rec) in &cells {
        if let CellRecord::Formula { src, .. } = rec {
            if !intern_ids.contains_key(src.as_str()) {
                intern_ids.insert(src, intern.len() as u64);
                intern.push(src);
            }
        }
    }
    write_uvarint(&mut out, intern.len() as u64)?;
    for src in &intern {
        write_string(&mut out, src)?;
    }

    // 2. Cells, delta-coded.
    write_uvarint(&mut out, cells.len() as u64)?;
    let mut prev = Cell::new(1, 1);
    let mut first = true;
    for (cell, rec) in cells {
        write_cell_gap(&mut out, *cell, &mut prev, &mut first)?;
        let (tag, value) = match rec {
            CellRecord::Pure(v) => (value_tag(v), v),
            CellRecord::Formula { src, value } => {
                out.push(0x10 | value_tag(value));
                let id = intern_ids[src.as_str()];
                write_uvarint(&mut out, id)?;
                write_value_payload(&mut out, value)?;
                continue;
            }
        };
        out.push(tag);
        write_value_payload(&mut out, value)?;
    }

    // 3. Dirty set, same delta scheme.
    let mut dirty = sheet.dirty.clone();
    dirty.sort_unstable();
    write_uvarint(&mut out, dirty.len() as u64)?;
    let mut prev = Cell::new(1, 1);
    let mut first = true;
    for cell in &dirty {
        write_cell_gap(&mut out, *cell, &mut prev, &mut first)?;
    }
    Ok(out)
}

/// Gap-codes one cell against the previous one in (col, row) order:
/// column delta (≥ 0), then an absolute row on a column change or a row
/// delta (> 0) within a column.
fn write_cell_gap(
    out: &mut Vec<u8>,
    cell: Cell,
    prev: &mut Cell,
    first: &mut bool,
) -> Result<(), StoreError> {
    if *first {
        *first = false;
        write_uvarint(out, u64::from(cell.col))?;
        write_uvarint(out, 0)?; // marker: absolute row follows
        write_uvarint(out, u64::from(cell.row))?;
    } else {
        let dcol = u64::from(cell.col - prev.col);
        write_uvarint(out, dcol)?;
        if dcol == 0 {
            write_uvarint(out, u64::from(cell.row - prev.row))?;
        } else {
            write_uvarint(out, 0)?;
            write_uvarint(out, u64::from(cell.row))?;
        }
    }
    *prev = cell;
    Ok(())
}

fn read_cell_gap(r: &mut &[u8], prev: &mut Cell, first: &mut bool) -> Result<Cell, StoreError> {
    let cell = if *first {
        *first = false;
        let col = small_i64(read_uvarint(r)?)?;
        if read_uvarint(r)? != 0 {
            return Err(StoreError::Malformed("first cell must carry an absolute row"));
        }
        cell_from(col, small_i64(read_uvarint(r)?)?)?
    } else {
        let dcol = small_i64(read_uvarint(r)?)?;
        let col = i64::from(prev.col) + dcol;
        if dcol == 0 {
            let drow = small_i64(read_uvarint(r)?)?;
            if drow == 0 {
                return Err(StoreError::Malformed("duplicate cell in sorted run"));
            }
            cell_from(col, i64::from(prev.row) + drow)?
        } else {
            if read_uvarint(r)? != 0 {
                return Err(StoreError::Malformed("column change must reset the row"));
            }
            cell_from(col, small_i64(read_uvarint(r)?)?)?
        }
    };
    *prev = cell;
    Ok(cell)
}

// ---- reading ------------------------------------------------------------

/// Footer entry for one sheet section.
#[derive(Debug, Clone)]
struct Span {
    offset: u64,
    len: u64,
    crc: u32,
}

/// A validated container, decoding sections lazily.
///
/// `open`/`from_bytes` validate the header, trailer, and footer (magic,
/// version, footer checksum, section bounds); per-sheet payloads are only
/// CRC-checked and decoded when asked for — reopening one sheet of a
/// many-sheet workbook does not touch the other sections.
pub struct StoreReader {
    bytes: Vec<u8>,
    names: Vec<String>,
    sheets: Vec<Span>,
    epoch: u64,
    clock: EvalClock,
}

impl StoreReader {
    /// Opens and validates a container file through the production
    /// [`crate::vfs::std_vfs`].
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        Self::open_with(crate::vfs::std_vfs().as_ref(), path)
    }

    /// Opens and validates a container file through an explicit vfs.
    pub fn open_with(vfs: &dyn crate::vfs::Vfs, path: &Path) -> Result<Self, StoreError> {
        Self::from_bytes(vfs.read(path)?)
    }

    /// Validates container bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Truncated { what: "container header/trailer" });
        }
        if bytes[0..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        if bytes[bytes.len() - 4..] != TAIL_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let t = bytes.len() - TRAILER_LEN;
        let footer_len = u32::from_le_bytes(bytes[t..t + 4].try_into().expect("4 bytes")) as usize;
        let footer_crc = u32::from_le_bytes(bytes[t + 4..t + 8].try_into().expect("4 bytes"));
        let footer_start = t
            .checked_sub(footer_len)
            .filter(|&s| s >= HEADER_LEN)
            .ok_or(StoreError::Truncated { what: "footer" })?;
        let footer = &bytes[footer_start..t];
        let mut crc_input = bytes[..HEADER_LEN].to_vec();
        crc_input.extend_from_slice(footer);
        if crc32(&crc_input) != footer_crc {
            return Err(StoreError::ChecksumMismatch { what: "footer" });
        }

        // Parse the footer, replay epoch and clock first.
        let r = &mut &footer[..];
        let epoch = read_uvarint(r)?;
        let clock =
            EvalClock { now: read_f64(r)?, today: read_f64(r)?, rand_seed: read_uvarint(r)? };
        let sheet_count = read_uvarint(r)?;
        // Each footer entry is at least 7 bytes (name len + span + crc).
        let sheet_count = bounded_count(sheet_count, r.len(), 7, "sheet count exceeds footer")?;
        let mut names = Vec::with_capacity(sheet_count);
        let mut sheets = Vec::with_capacity(sheet_count);
        for _ in 0..sheet_count {
            names.push(read_string(r, MAX_STRING)?);
            let offset = read_uvarint(r)?;
            let len = read_uvarint(r)?;
            if offset < HEADER_LEN as u64
                || offset.checked_add(len).is_none_or(|end| end > footer_start as u64)
            {
                return Err(StoreError::Malformed("section span out of bounds"));
            }
            let mut crc = [0u8; 4];
            std::io::Read::read_exact(r, &mut crc)?;
            sheets.push(Span { offset, len, crc: u32::from_le_bytes(crc) });
        }
        if !r.is_empty() {
            return Err(StoreError::Malformed("trailing bytes in footer"));
        }
        Ok(StoreReader { bytes, names, sheets, epoch, clock })
    }

    /// The snapshot's replay epoch: WAL records stamped with an older
    /// epoch are already folded into it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sheet sections.
    pub fn sheet_count(&self) -> usize {
        self.sheets.len()
    }

    /// Name of sheet `i` (available without decoding the section).
    pub fn sheet_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// CRC-checks and decodes sheet section `i`.
    pub fn read_sheet(&self, i: usize) -> Result<SheetImage, StoreError> {
        let span = self.sheets.get(i).ok_or(StoreError::Malformed("sheet index out of range"))?;
        let payload = &self.bytes[span.offset as usize..(span.offset + span.len) as usize];
        if crc32(payload) != span.crc {
            return Err(StoreError::ChecksumMismatch { what: "sheet section" });
        }
        decode_sheet(payload, self.names[i].clone())
    }

    /// Decodes every section into a full image.
    pub fn read_all(&self) -> Result<WorkbookImage, StoreError> {
        let sheets =
            (0..self.sheet_count()).map(|i| self.read_sheet(i)).collect::<Result<_, _>>()?;
        Ok(WorkbookImage { sheets, epoch: self.epoch, clock: self.clock })
    }
}

fn decode_sheet(mut bytes: &[u8], name: String) -> Result<SheetImage, StoreError> {
    let r = &mut bytes;

    // 1. Interned formula sources.
    let n_intern = read_uvarint(r)?;
    let n_intern = bounded_count(n_intern, r.len(), 1, "intern table count exceeds input")?;
    let mut intern = Vec::with_capacity(n_intern);
    for _ in 0..n_intern {
        intern.push(read_string(r, MAX_STRING)?);
    }

    // 2. Cells.
    let n_cells = read_uvarint(r)?;
    // Each cell is at least 3 bytes: gap coding plus the tag byte.
    let n_cells = bounded_count(n_cells, r.len(), 3, "cell count exceeds input")?;
    let mut cells = Vec::with_capacity(n_cells);
    let mut prev = Cell::new(1, 1);
    let mut first = true;
    for _ in 0..n_cells {
        let cell = read_cell_gap(r, &mut prev, &mut first)?;
        let mut tag = [0u8; 1];
        std::io::Read::read_exact(r, &mut tag)?;
        let rec = if tag[0] & 0x10 != 0 {
            let id = read_uvarint(r)?;
            let src = intern
                .get(id as usize)
                .ok_or(StoreError::Malformed("formula intern id out of range"))?
                .clone();
            CellRecord::Formula { src, value: read_value_payload(r, tag[0] & 0x0F)? }
        } else {
            CellRecord::Pure(read_value_payload(r, tag[0])?)
        };
        cells.push((cell, rec));
    }

    // 3. Dirty set.
    let n_dirty = read_uvarint(r)?;
    let n_dirty = bounded_count(n_dirty, r.len(), 2, "dirty count exceeds input")?;
    let mut dirty = Vec::with_capacity(n_dirty);
    let mut prev = Cell::new(1, 1);
    let mut first = true;
    for _ in 0..n_dirty {
        dirty.push(read_cell_gap(r, &mut prev, &mut first)?);
    }

    if !r.is_empty() {
        return Err(StoreError::Malformed("trailing bytes in sheet section"));
    }
    Ok(SheetImage { name, cells, dirty })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_formula::Value;

    fn sample_image() -> WorkbookImage {
        let sheet = SheetImage {
            name: "My Sheet".to_string(),
            cells: vec![
                (Cell::new(1, 1), CellRecord::Pure(Value::Number(1.5))),
                (Cell::new(1, 2), CellRecord::Pure(Value::Text("label".into()))),
                (
                    Cell::new(3, 1),
                    CellRecord::Formula { src: "SUM(A1:B3)".into(), value: Value::Number(1.5) },
                ),
                (
                    Cell::new(3, 2),
                    CellRecord::Formula { src: "SUM(A2:B4)".into(), value: Value::Empty },
                ),
            ],
            dirty: vec![Cell::new(3, 2)],
        };
        let other = SheetImage { name: "Empty".to_string(), cells: Vec::new(), dirty: Vec::new() };
        let clock = EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 0xC10C };
        WorkbookImage { sheets: vec![sheet, other], epoch: 7, clock }
    }

    #[test]
    fn workbook_round_trips() {
        let image = sample_image();
        let bytes = encode_workbook(&image).unwrap();
        let reader = StoreReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.sheet_count(), 2);
        assert_eq!(reader.sheet_name(0), "My Sheet");
        assert_eq!(reader.epoch(), 7);
        let back = reader.read_all().unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn every_version_but_the_current_one_is_refused() {
        // Version 0 never existed, version 1 (no replay epoch) was only
        // ever written by this repo's tests — a reader that guessed at
        // either would replay a log against the wrong epoch — and version
        // 2's footer names a cross-sheet edge section that is no more;
        // version 3's footer has no clock, and version 4's sections end
        // in a graph.
        let bytes = encode_workbook(&sample_image()).unwrap();
        for version in [0, 1, 2, 3, 4, FORMAT_VERSION + 1] {
            let mut old = bytes.clone();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                StoreReader::from_bytes(old),
                Err(StoreError::UnsupportedVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let image = sample_image();
        assert_eq!(encode_workbook(&image).unwrap(), encode_workbook(&image).unwrap());
        // Cell and dirty-set order are canonicalized away.
        let mut shuffled = image.clone();
        shuffled.sheets[0].cells.reverse();
        shuffled.sheets[0].dirty.push(Cell::new(1, 1));
        shuffled.sheets[0].dirty.reverse();
        let mut sorted = image.clone();
        sorted.sheets[0].dirty.insert(0, Cell::new(1, 1));
        assert_eq!(encode_workbook(&sorted).unwrap(), encode_workbook(&shuffled).unwrap());
    }

    #[test]
    fn lazy_sheet_loads_skip_other_sections() {
        let image = sample_image();
        let mut bytes = encode_workbook(&image).unwrap();
        // Damage sheet 0's payload; sheet 1 must still load (per-sheet
        // checksums, not a whole-file gate).
        let reader = StoreReader::from_bytes(bytes.clone()).unwrap();
        let span_off = {
            // Corrupt a byte inside section 0 (starts right after header).
            HEADER_LEN + 2
        };
        bytes[span_off] ^= 0x40;
        let damaged = StoreReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            damaged.read_sheet(0),
            Err(StoreError::ChecksumMismatch { what: "sheet section" })
        ));
        assert_eq!(damaged.read_sheet(1).unwrap(), reader.read_sheet(1).unwrap());
        assert_eq!(damaged.read_sheet(1).unwrap(), image.sheets[1]);
    }
}
