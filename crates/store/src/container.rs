//! The sectioned container format.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ header    magic "TACO" · version u16 LE · flags u16 LE     │
//! ├────────────────────────────────────────────────────────────┤
//! │ sheet section 0   (formula interning · cells · dirty set   │
//! │                    · compressed graph, gap/γ/ζ bit-coded)  │
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
//! There is no section for the cross-sheet edges: each is a qualified
//! reference of a stored formula, and the engine binds them again on open.
//!
//! Edges are stored delta-encoded in the sorted order
//! [`taco_core::GraphSnapshot`] now guarantees: dependent-range head gaps
//! come out small (γ-coded), precedent corners are stored relative to the
//! dependent head (ζ₃-coded — precedents cluster near their formulae but
//! have a heavier tail), so a compressed edge typically costs a handful
//! of bytes.

use crate::codec::{
    crc32, read_f64, read_string, read_uvarint, write_f64, write_string, write_uvarint, BitReader,
    BitWriter,
};
use crate::image::{
    cell_from, checked_coord, read_value_payload, small_i64, value_tag, write_value_payload,
    CellRecord, SheetImage, WorkbookImage,
};
use crate::StoreError;
use std::io::Write;
use std::path::Path;
use taco_core::{ChainDir, Config, Edge, GraphSnapshot, PatternMeta, PatternType};
use taco_formula::EvalClock;
use taco_grid::{Axis, Cell, Offset, Range};

/// Leading file magic.
pub const MAGIC: [u8; 4] = *b"TACO";
/// Trailing file magic (cheap truncation tripwire).
pub const TAIL_MAGIC: [u8; 4] = *b"OCAT";
/// The format version, and the only one readers accept. Version 2 added
/// the replay epoch to the footer; version 3 dropped the cross-sheet edge
/// section, which the formulas' text already implies; version 4 added the
/// evaluation clock to the footer, which the stored values were computed
/// under.
pub const FORMAT_VERSION: u16 = 4;
/// Upper bound on any single decoded string (names, formula sources,
/// text values) so corrupt lengths cannot drive huge allocations.
pub(crate) const MAX_STRING: u64 = 1 << 24;
/// Rejects a declared element count that cannot possibly fit in the
/// remaining input — each element consumes at least `min_units` of the
/// `remaining` units (bytes, or bits for the edge stream) — so
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

/// ζ parameter for precedent-corner deltas (heavier-tailed than the
/// dependent gaps, which use γ).
const PREC_ZETA_K: u32 = 3;

/// Bits 1 and 2 of a graph's config flags byte (bit 0 is `in_row_only`).
/// They held two §IV-A selection heuristics that are no longer options;
/// every graph is written with both set and a graph without them refused.
const FIXED_FLAG_BITS: u8 = 0b110;

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

    // 4. The compressed graph.
    let graph = encode_graph(&sheet.graph);
    write_uvarint(&mut out, graph.len() as u64)?;
    out.extend_from_slice(&graph);
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

// ---- graph encoding -----------------------------------------------------

fn pattern_to_u8(p: PatternType) -> u8 {
    match p {
        PatternType::Single => 0,
        PatternType::RR => 1,
        PatternType::RF => 2,
        PatternType::FR => 3,
        PatternType::FF => 4,
        PatternType::RRChain => 5,
    }
}

fn pattern_from_u8(b: u8) -> Result<PatternType, StoreError> {
    Ok(match b {
        0 => PatternType::Single,
        1 => PatternType::RR,
        2 => PatternType::RF,
        3 => PatternType::FR,
        4 => PatternType::FF,
        5 => PatternType::RRChain,
        _ => return Err(StoreError::Malformed("unknown pattern tag")),
    })
}

/// Encodes a graph snapshot into the compact binary form (no framing —
/// callers add length and checksum).
pub fn encode_graph(snap: &GraphSnapshot) -> Vec<u8> {
    // The byte-level prelude: config, counters, edge count.
    let mut out = Vec::new();
    let infallible: Result<(), StoreError> = (|| {
        write_uvarint(&mut out, snap.config.patterns.len() as u64)?;
        for &p in &snap.config.patterns {
            out.push(pattern_to_u8(p));
        }
        out.push(u8::from(snap.config.in_row_only) | FIXED_FLAG_BITS);
        write_uvarint(&mut out, snap.dependencies_inserted)?;
        write_uvarint(&mut out, snap.edges.len() as u64)?;

        // The bit-coded edge stream.
        let mut w = BitWriter::new(&mut out);
        let mut prev_head = Cell::new(1, 1);
        for e in &snap.edges {
            let dh = e.dep.head();
            w.write_gamma_signed(i64::from(dh.col) - i64::from(prev_head.col))?;
            w.write_gamma_signed(i64::from(dh.row) - i64::from(prev_head.row))?;
            w.write_gamma0(u64::from(e.dep.width() - 1))?;
            w.write_gamma0(u64::from(e.dep.height() - 1))?;
            let ph = e.prec.head();
            write_zeta_signed(&mut w, i64::from(ph.col) - i64::from(dh.col))?;
            write_zeta_signed(&mut w, i64::from(ph.row) - i64::from(dh.row))?;
            w.write_zeta(u64::from(e.prec.width() - 1), PREC_ZETA_K)?;
            w.write_zeta(u64::from(e.prec.height() - 1), PREC_ZETA_K)?;
            w.write_bit(e.axis == Axis::Row)?;
            w.write_gamma(u64::from(e.count))?;
            write_meta(&mut w, &e.meta, dh)?;
            prev_head = dh;
        }
        w.finish()?;
        Ok(())
    })();
    debug_assert!(infallible.is_ok(), "Vec sinks cannot fail");
    out
}

/// Decodes a graph snapshot written by [`encode_graph`].
pub fn decode_graph(mut bytes: &[u8]) -> Result<GraphSnapshot, StoreError> {
    let r = &mut bytes;
    let n_patterns = read_uvarint(r)?;
    if n_patterns > 16 {
        return Err(StoreError::Malformed("config pattern list too long"));
    }
    let mut patterns = Vec::with_capacity(n_patterns as usize);
    for _ in 0..n_patterns {
        let mut b = [0u8; 1];
        std::io::Read::read_exact(r, &mut b)?;
        patterns.push(pattern_from_u8(b[0])?);
    }
    let mut flags = [0u8; 1];
    std::io::Read::read_exact(r, &mut flags)?;
    if flags[0] & !0b111 != 0 {
        return Err(StoreError::Malformed("unknown config flag bits"));
    }
    if flags[0] & FIXED_FLAG_BITS != FIXED_FLAG_BITS {
        return Err(StoreError::Malformed("config flag bits 1 and 2 must be set"));
    }
    let config = Config { patterns, in_row_only: flags[0] & 1 != 0 };
    let dependencies_inserted = read_uvarint(r)?;
    let edge_count = read_uvarint(r)?;
    // Each edge spends well over one bit of the stream.
    let edge_count =
        bounded_count(edge_count, r.len().saturating_mul(8), 1, "edge count exceeds input")?;

    let mut br = BitReader::new(*r);
    let mut edges = Vec::with_capacity(edge_count);
    let mut prev_head = Cell::new(1, 1);
    for _ in 0..edge_count {
        let dh_col = checked_coord(i64::from(prev_head.col), br.read_gamma_signed()?)?;
        let dh_row = checked_coord(i64::from(prev_head.row), br.read_gamma_signed()?)?;
        let dh = cell_from(dh_col, dh_row)?;
        let dep_tail = cell_from(
            dh_col + small_i64(br.read_gamma0()?)?,
            dh_row + small_i64(br.read_gamma0()?)?,
        )?;
        let ph_col = checked_coord(dh_col, read_zeta_signed(&mut br)?)?;
        let ph_row = checked_coord(dh_row, read_zeta_signed(&mut br)?)?;
        let ph = cell_from(ph_col, ph_row)?;
        let prec_tail = cell_from(
            ph_col + small_i64(br.read_zeta(PREC_ZETA_K)?)?,
            ph_row + small_i64(br.read_zeta(PREC_ZETA_K)?)?,
        )?;
        let axis = if br.read_bit()? { Axis::Row } else { Axis::Col };
        let count = br.read_gamma()?;
        if count > u64::from(u32::MAX) {
            return Err(StoreError::Malformed("edge count field out of range"));
        }
        let meta = read_meta(&mut br, dh)?;
        edges.push(Edge {
            prec: Range::new(ph, prec_tail),
            dep: Range::new(dh, dep_tail),
            axis,
            meta,
            count: count as u32,
        });
        prev_head = dh;
    }
    Ok(GraphSnapshot { config, edges, dependencies_inserted })
}

fn write_zeta_signed<W: Write>(w: &mut BitWriter<W>, v: i64) -> Result<(), StoreError> {
    w.write_zeta(crate::codec::zigzag(v), PREC_ZETA_K)
}

fn read_zeta_signed<R: std::io::Read>(r: &mut BitReader<R>) -> Result<i64, StoreError> {
    Ok(crate::codec::unzigzag(r.read_zeta(PREC_ZETA_K)?))
}

/// Meta tags occupy 3 bits.
fn meta_tag(meta: &PatternMeta) -> u64 {
    match meta {
        PatternMeta::Single => 0,
        PatternMeta::RR { .. } => 1,
        PatternMeta::RF { .. } => 2,
        PatternMeta::FR { .. } => 3,
        PatternMeta::FF { .. } => 4,
        PatternMeta::RRChain { .. } => 5,
    }
}

fn write_meta<W: Write>(
    w: &mut BitWriter<W>,
    meta: &PatternMeta,
    dep_head: Cell,
) -> Result<(), StoreError> {
    w.write_bits(meta_tag(meta), 3)?;
    fn offset<W: Write>(w: &mut BitWriter<W>, o: Offset) -> Result<(), StoreError> {
        w.write_gamma_signed(o.dc)?;
        w.write_gamma_signed(o.dr)
    }
    match meta {
        PatternMeta::Single => Ok(()),
        PatternMeta::RR { h_rel, t_rel } => {
            offset(w, *h_rel)?;
            offset(w, *t_rel)
        }
        PatternMeta::RF { h_rel, t_fix } => {
            offset(w, *h_rel)?;
            write_meta_cell(w, *t_fix, dep_head)
        }
        PatternMeta::FR { h_fix, t_rel } => {
            write_meta_cell(w, *h_fix, dep_head)?;
            offset(w, *t_rel)
        }
        PatternMeta::FF { h_fix, t_fix } => {
            write_meta_cell(w, *h_fix, dep_head)?;
            write_meta_cell(w, *t_fix, dep_head)
        }
        PatternMeta::RRChain { dir } => w.write_bit(matches!(dir, ChainDir::Below)),
    }
}

/// Fixed meta cells are stored relative to the dependent head (they sit
/// nearby) — note they live in *canonical* coordinates, which is fine:
/// the delta is just a compact representation, not a geometric claim.
fn write_meta_cell<W: Write>(
    w: &mut BitWriter<W>,
    c: Cell,
    dep_head: Cell,
) -> Result<(), StoreError> {
    w.write_gamma_signed(i64::from(c.col) - i64::from(dep_head.col))?;
    w.write_gamma_signed(i64::from(c.row) - i64::from(dep_head.row))
}

/// Inverse of [`write_meta_cell`].
fn read_meta_cell<R: std::io::Read>(
    r: &mut BitReader<R>,
    dep_head: Cell,
) -> Result<Cell, StoreError> {
    let col = checked_coord(i64::from(dep_head.col), r.read_gamma_signed()?)?;
    let row = checked_coord(i64::from(dep_head.row), r.read_gamma_signed()?)?;
    cell_from(col, row)
}

fn read_meta<R: std::io::Read>(
    r: &mut BitReader<R>,
    dep_head: Cell,
) -> Result<PatternMeta, StoreError> {
    let tag = r.read_bits(3)?;
    fn offset<R: std::io::Read>(r: &mut BitReader<R>) -> Result<Offset, StoreError> {
        Ok(Offset::new(r.read_gamma_signed()?, r.read_gamma_signed()?))
    }
    Ok(match tag {
        0 => PatternMeta::Single,
        1 => {
            let h_rel = offset(r)?;
            let t_rel = offset(r)?;
            PatternMeta::RR { h_rel, t_rel }
        }
        2 => {
            let h_rel = offset(r)?;
            let t_fix = read_meta_cell(r, dep_head)?;
            PatternMeta::RF { h_rel, t_fix }
        }
        3 => {
            let h_fix = read_meta_cell(r, dep_head)?;
            let t_rel = offset(r)?;
            PatternMeta::FR { h_fix, t_rel }
        }
        4 => {
            let h_fix = read_meta_cell(r, dep_head)?;
            let t_fix = read_meta_cell(r, dep_head)?;
            PatternMeta::FF { h_fix, t_fix }
        }
        5 => PatternMeta::RRChain {
            dir: if r.read_bit()? { ChainDir::Below } else { ChainDir::Above },
        },
        _ => return Err(StoreError::Malformed("unknown meta tag")),
    })
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

    // 4. Graph.
    let graph_len = read_uvarint(r)?;
    if graph_len > r.len() as u64 {
        return Err(StoreError::Truncated { what: "graph subsection" });
    }
    let (graph_bytes, rest) = r.split_at(graph_len as usize);
    if !rest.is_empty() {
        return Err(StoreError::Malformed("trailing bytes in sheet section"));
    }
    let graph = decode_graph(graph_bytes)?;
    Ok(SheetImage { name, cells, dirty, graph })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_core::{Dependency, FormulaGraph};
    use taco_formula::Value;

    fn sample_graph() -> GraphSnapshot {
        sample_graph_under(Config::taco_full())
    }

    fn sample_graph_under(config: Config) -> GraphSnapshot {
        let deps = [
            ("A1:B3", "C1"),
            ("A2:B4", "C2"),
            ("A3:B5", "C3"),
            ("G1:G9", "H1"),
            ("G1:G9", "H2"),
            ("J1", "K2"),
            ("K2", "K3"),
            ("K3", "K4"),
        ];
        FormulaGraph::build(
            config,
            deps.iter().map(|(p, d)| {
                Dependency::new(Range::parse_a1(p).unwrap(), Cell::parse_a1(d).unwrap())
            }),
        )
        .snapshot()
    }

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
            graph: sample_graph(),
        };
        let other = SheetImage {
            name: "Empty".to_string(),
            cells: Vec::new(),
            dirty: Vec::new(),
            graph: FormulaGraph::taco().snapshot(),
        };
        let clock = EvalClock { now: 45_000.25, today: 45_000.0, rand_seed: 0xC10C };
        WorkbookImage { sheets: vec![sheet, other], epoch: 7, clock }
    }

    #[test]
    fn graph_round_trips() {
        // The configuration decides which edges there are to store, and is
        // stored with them.
        for config in [Config::taco_full(), Config::taco_in_row(), Config::nocomp()] {
            let snap = sample_graph_under(config);
            let back = decode_graph(&encode_graph(&snap)).unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn config_flags_byte_keeps_the_heuristic_bits_set() {
        // The flags byte follows the pattern list: one byte per pattern.
        for config in [Config::taco_full(), Config::taco_in_row()] {
            let at = 1 + config.patterns.len();
            let bytes = encode_graph(&sample_graph_under(config.clone()));
            assert_eq!(bytes[at], u8::from(config.in_row_only) | 0b110);
            for bad in [bytes[at] & !0b010, bytes[at] & !0b100, bytes[at] | 0b1000] {
                let mut damaged = bytes.clone();
                damaged[at] = bad;
                assert!(matches!(decode_graph(&damaged), Err(StoreError::Malformed(_))));
            }
        }
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
        // version 3's footer has no clock.
        let bytes = encode_workbook(&sample_image()).unwrap();
        for version in [0, 1, 2, 3, FORMAT_VERSION + 1] {
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

    #[test]
    fn restored_graph_answers_queries() {
        let snap = sample_graph();
        let g = FormulaGraph::restore(decode_graph(&encode_graph(&snap)).unwrap());
        let probe = Range::parse_a1("A2").unwrap();
        let orig = FormulaGraph::restore(snap);
        assert_eq!(g.find_dependents(probe), orig.find_dependents(probe));
        assert_eq!(g.stats(), orig.stats());
    }
}
