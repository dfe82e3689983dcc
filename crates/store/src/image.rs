//! The plain-data model the container serializes: a [`WorkbookImage`] is
//! everything a workbook must persist, decoupled from live engine types so
//! `taco_store` sits below `taco_engine` in the crate DAG.
//!
//! An image holds what was typed — pure values and formula source text —
//! with each formula's cached value and the dirty marks, and nothing
//! derived from it: formula ASTs are re-parsed from their interned source
//! text, and the formula graph, within each sheet and between sheets, is
//! derived again from the formulas on open, the one place its edges are
//! written down.

use crate::codec::{read_f64, read_string, read_uvarint, write_f64, write_string, write_uvarint};
use crate::StoreError;
use std::io::{Read, Write};
use taco_formula::{CellError, EvalClock, Value};
use taco_grid::{Cell, Range};

/// What one cell persists: a pure value, or a formula's source text plus
/// its last evaluated value.
#[derive(Debug, Clone, PartialEq)]
pub enum CellRecord {
    /// A pure (typed constant) value.
    Pure(Value),
    /// A formula cell: source text (no leading `=`) and cached value.
    Formula {
        /// The formula source, re-parsed on open.
        src: String,
        /// The most recent evaluated value.
        value: Value,
    },
}

/// One sheet's persistent state.
#[derive(Debug, Clone, PartialEq)]
pub struct SheetImage {
    /// The sheet name (unique per workbook, case-insensitively).
    pub name: String,
    /// Non-empty cells, sorted by `(col, row)`.
    pub cells: Vec<(Cell, CellRecord)>,
    /// Formula cells awaiting recalculation, sorted. Persisted so a
    /// snapshot taken mid-edit reopens into the same observable state.
    pub dirty: Vec<Cell>,
}

/// A whole workbook's persistent state. Sheet order is identity: index
/// `i` here is `SheetId(i)` in the live workbook.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkbookImage {
    /// Per-sheet images, in sheet-id order.
    pub sheets: Vec<SheetImage>,
    /// The replay epoch this snapshot was written at (see
    /// [`crate::wal`]); `0` for images that never belonged to a
    /// WAL-backed workbook.
    pub epoch: u64,
    /// The clock `NOW()`, `TODAY()` and `RAND()` read: the one the cached
    /// values were computed under, and the one a reopened workbook goes
    /// on evaluating under.
    pub clock: EvalClock,
}

// ---- value encoding (shared by cell sections and WAL records) ----------

const TAG_EMPTY: u8 = 0;
const TAG_NUMBER: u8 = 1;
const TAG_TEXT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_ERROR: u8 = 4;

fn error_code(e: CellError) -> u8 {
    match e {
        CellError::Div0 => 0,
        CellError::Value => 1,
        CellError::Ref => 2,
        CellError::Name => 3,
        CellError::Na => 4,
        CellError::Cycle => 5,
    }
}

fn error_from_code(c: u8) -> Result<CellError, StoreError> {
    Ok(match c {
        0 => CellError::Div0,
        1 => CellError::Value,
        2 => CellError::Ref,
        3 => CellError::Name,
        4 => CellError::Na,
        5 => CellError::Cycle,
        _ => return Err(StoreError::Malformed("unknown cell-error code")),
    })
}

/// The value's type tag (low nibble of a cell's tag byte).
pub(crate) fn value_tag(v: &Value) -> u8 {
    match v {
        Value::Empty => TAG_EMPTY,
        Value::Number(_) => TAG_NUMBER,
        Value::Text(_) => TAG_TEXT,
        Value::Bool(_) => TAG_BOOL,
        Value::Error(_) => TAG_ERROR,
    }
}

/// Writes a value's payload (everything but the tag).
pub(crate) fn write_value_payload<W: Write>(w: &mut W, v: &Value) -> Result<(), StoreError> {
    match v {
        Value::Empty => Ok(()),
        Value::Number(n) => write_f64(w, *n),
        Value::Text(s) => write_string(w, s),
        Value::Bool(b) => {
            w.write_all(&[u8::from(*b)])?;
            Ok(())
        }
        Value::Error(e) => {
            w.write_all(&[error_code(*e)])?;
            Ok(())
        }
    }
}

/// Reads the payload for a value of type `tag`.
pub(crate) fn read_value_payload<R: Read>(r: &mut R, tag: u8) -> Result<Value, StoreError> {
    Ok(match tag {
        TAG_EMPTY => Value::Empty,
        TAG_NUMBER => Value::Number(read_f64(r)?),
        TAG_TEXT => Value::Text(read_string(r, crate::container::MAX_STRING)?),
        TAG_BOOL => {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            match b[0] {
                0 => Value::Bool(false),
                1 => Value::Bool(true),
                _ => return Err(StoreError::Malformed("bool byte out of range")),
            }
        }
        TAG_ERROR => {
            let mut b = [0u8; 1];
            r.read_exact(&mut b)?;
            Value::Error(error_from_code(b[0])?)
        }
        _ => return Err(StoreError::Malformed("unknown value tag")),
    })
}

/// Writes a standalone tagged value (WAL records).
pub fn write_value<W: Write>(w: &mut W, v: &Value) -> Result<(), StoreError> {
    w.write_all(&[value_tag(v)])?;
    write_value_payload(w, v)
}

/// Reads a standalone tagged value (WAL records).
pub fn read_value<R: Read>(r: &mut R) -> Result<Value, StoreError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    read_value_payload(r, tag[0])
}

/// Writes a cell as two varints (1-based coordinates).
pub fn write_cell<W: Write>(w: &mut W, c: Cell) -> Result<(), StoreError> {
    write_uvarint(w, u64::from(c.col))?;
    write_uvarint(w, u64::from(c.row))
}

/// Reads a cell written by [`write_cell`], validating bounds.
pub fn read_cell<R: Read>(r: &mut R) -> Result<Cell, StoreError> {
    let col = small_i64(read_uvarint(r)?)?;
    let row = small_i64(read_uvarint(r)?)?;
    cell_from(col, row)
}

/// Bounds-checked cell construction for decoders (never panics).
pub(crate) fn cell_from(col: i64, row: i64) -> Result<Cell, StoreError> {
    Cell::try_new(col, row).map_err(|_| StoreError::Malformed("cell coordinate out of range"))
}

/// Narrows a decoded magnitude to the coordinate domain (≤ `u32::MAX`)
/// so subsequent `i64` additions cannot overflow. Decoders must route
/// every untrusted delta/size through this: a crafted (re-checksummed)
/// file reaches this arithmetic with arbitrary varints, and the
/// never-panic contract has to hold there too.
pub(crate) fn small_i64(v: u64) -> Result<i64, StoreError> {
    if v > u64::from(u32::MAX) {
        return Err(StoreError::Malformed("coordinate magnitude out of range"));
    }
    Ok(v as i64)
}

/// Writes a range as head + size (4 varints).
pub fn write_range<W: Write>(w: &mut W, r: Range) -> Result<(), StoreError> {
    write_cell(w, r.head())?;
    write_uvarint(w, u64::from(r.width() - 1))?;
    write_uvarint(w, u64::from(r.height() - 1))
}

/// Reads a range written by [`write_range`].
pub fn read_range<R: Read>(r: &mut R) -> Result<Range, StoreError> {
    let head = read_cell(r)?;
    let w = small_i64(read_uvarint(r)?)?;
    let h = small_i64(read_uvarint(r)?)?;
    let tail = cell_from(i64::from(head.col) + w, i64::from(head.row) + h)?;
    Ok(Range::new(head, tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let vals = [
            Value::Empty,
            Value::Number(13.25),
            Value::Number(f64::NAN),
            Value::Text("héllo ≠ wörld".to_string()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Error(CellError::Cycle),
            Value::Error(CellError::Div0),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            write_value(&mut buf, v).unwrap();
        }
        let mut r = buf.as_slice();
        for v in &vals {
            let got = read_value(&mut r).unwrap();
            match (v, &got) {
                (Value::Number(a), Value::Number(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(&got, v),
            }
        }
    }

    #[test]
    fn ranges_round_trip() {
        for s in ["A1", "A1:B3", "ZZ100:AAB9000"] {
            let range = Range::parse_a1(s).unwrap();
            let mut buf = Vec::new();
            write_range(&mut buf, range).unwrap();
            assert_eq!(read_range(&mut buf.as_slice()).unwrap(), range);
        }
    }

    #[test]
    fn bad_tags_are_typed_errors() {
        assert!(matches!(
            read_value(&mut [9u8].as_slice()),
            Err(StoreError::Malformed("unknown value tag"))
        ));
        assert!(matches!(
            read_value(&mut [TAG_ERROR, 77].as_slice()),
            Err(StoreError::Malformed("unknown cell-error code"))
        ));
        assert!(matches!(
            read_value(&mut [TAG_BOOL, 2].as_slice()),
            Err(StoreError::Malformed("bool byte out of range"))
        ));
        // Cell coordinate 0 is invalid (1-based grid).
        assert!(read_cell(&mut [0u8, 1].as_slice()).is_err());
    }
}
