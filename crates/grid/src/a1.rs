//! A1-notation parsing and formatting, including `$` absolute markers.
//!
//! The `$` markers matter to TACO beyond mere syntax: autofill treats
//! `$`-prefixed coordinates as *fixed* and the rest as *relative*, which is
//! exactly what generates the four basic patterns (RR/RF/FR/FF). The greedy
//! compressor's final heuristic consults these flags as cues, so the parsed
//! reference types here carry them through.

use crate::{Cell, GridError, Range, MAX_COL, MAX_ROW};
use std::fmt;
use std::hash::{Hash, Hasher};

/// The letters of a 1-based column index, written into `buf` from the back.
fn col_letters(mut col: u32, buf: &mut [u8; 7]) -> &str {
    debug_assert!(col >= 1);
    let mut i = buf.len();
    while col > 0 {
        let rem = (col - 1) % 26;
        i -= 1;
        buf[i] = b'A' + rem as u8;
        col = (col - 1) / 26;
    }
    std::str::from_utf8(&buf[i..]).expect("ASCII letters")
}

/// `text` past the letters of the 1-based column `col`, `None` if it does
/// not start with them. The letters are read while what they spell is
/// below `col`: each one read adds to it, so the letters that spell `col`
/// are read to their end and no further, and no other letters spell it.
fn strip_letters(text: &str, col: u32) -> Option<&str> {
    let (col, mut spelt, mut len) = (u64::from(col), 0u64, 0);
    while spelt < col {
        let b = *text.as_bytes().get(len).filter(|b| b.is_ascii_uppercase())?;
        spelt = spelt * 26 + u64::from(b - b'A') + 1;
        len += 1;
    }
    (spelt == col).then(|| &text[len..])
}

/// `text` past `n` in decimal, as `Display` writes it (no sign, no
/// leading zero), `None` if it does not start with it. The digits are
/// read while their value is below `n`, as a column's letters are: past
/// a first digit other than `0`, each one read adds to it.
pub fn strip_decimal(text: &str, n: u64) -> Option<&str> {
    if n == 0 {
        return text.strip_prefix('0');
    }
    let bytes = text.as_bytes();
    if bytes.first() == Some(&b'0') {
        return None;
    }
    let (mut value, mut len) = (0u64, 0);
    while value < n {
        let b = *bytes.get(len).filter(|b| b.is_ascii_digit())?;
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        len += 1;
    }
    (value == n).then(|| &text[len..])
}

/// Converts a 1-based column index to letters (`1 → "A"`, `28 → "AB"`).
pub fn col_to_letters(col: u32) -> String {
    col_letters(col, &mut [0u8; 7]).to_string()
}

/// Converts column letters to the 1-based index (`"A" → 1`, `"AB" → 28`).
pub fn letters_to_col(s: &str) -> Result<u32, GridError> {
    if s.is_empty() || s.len() > 7 {
        return Err(GridError::BadA1(s.to_string()));
    }
    let mut col: u64 = 0;
    for b in s.bytes() {
        let v = match b {
            b'A'..=b'Z' => u64::from(b - b'A') + 1,
            b'a'..=b'z' => u64::from(b - b'a') + 1,
            _ => return Err(GridError::BadA1(s.to_string())),
        };
        col = col * 26 + v;
        if col > u64::from(MAX_COL) {
            return Err(GridError::BadA1(s.to_string()));
        }
    }
    Ok(col as u32)
}

/// A parsed single-cell reference with absolute/relative flags per
/// coordinate, e.g. `$B$1` (both fixed) or `B4` (both relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    /// The referenced cell position.
    pub cell: Cell,
    /// `true` iff the column was `$`-prefixed (fixed under autofill).
    pub col_abs: bool,
    /// `true` iff the row was `$`-prefixed (fixed under autofill).
    pub row_abs: bool,
}

impl CellRef {
    /// A fully relative reference to `cell`.
    pub fn relative(cell: Cell) -> Self {
        CellRef { cell, col_abs: false, row_abs: false }
    }

    /// A fully absolute (`$C$R`) reference to `cell`.
    pub fn absolute(cell: Cell) -> Self {
        CellRef { cell, col_abs: true, row_abs: true }
    }

    /// `true` iff both coordinates are `$`-fixed.
    pub fn is_fixed(&self) -> bool {
        self.col_abs && self.row_abs
    }

    /// `true` iff neither coordinate is `$`-fixed.
    pub fn is_relative(&self) -> bool {
        !self.col_abs && !self.row_abs
    }

    /// Parses `[$]LETTERS[$]DIGITS`.
    pub fn parse(s: &str) -> Result<Self, GridError> {
        let bytes = s.as_bytes();
        let mut i = 0;
        let col_abs = bytes.first() == Some(&b'$');
        if col_abs {
            i += 1;
        }
        let col_start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
            i += 1;
        }
        if i == col_start {
            return Err(GridError::BadA1(s.to_string()));
        }
        let col = letters_to_col(&s[col_start..i])?;
        let row_abs = bytes.get(i) == Some(&b'$');
        if row_abs {
            i += 1;
        }
        let row_str = &s[i..];
        if row_str.is_empty() || !row_str.bytes().all(|b| b.is_ascii_digit()) {
            return Err(GridError::BadA1(s.to_string()));
        }
        let row: u64 = row_str.parse().map_err(|_| GridError::BadA1(s.to_string()))?;
        if row == 0 || row > u64::from(MAX_ROW) {
            return Err(GridError::BadA1(s.to_string()));
        }
        Ok(CellRef { cell: Cell::new(col, row as u32), col_abs, row_abs })
    }

    /// Applies an autofill translation: relative coordinates shift by the
    /// delta, `$`-fixed coordinates stay put. Returns `None` if a relative
    /// coordinate would leave the grid.
    #[inline]
    pub fn autofill(&self, dc: i64, dr: i64) -> Option<CellRef> {
        let col =
            if self.col_abs { i64::from(self.cell.col) } else { i64::from(self.cell.col) + dc };
        let row =
            if self.row_abs { i64::from(self.cell.row) } else { i64::from(self.cell.row) + dr };
        let cell = Cell::try_new(col, row).ok()?;
        Some(CellRef { cell, col_abs: self.col_abs, row_abs: self.row_abs })
    }

    /// `text` past the reference as `Display` writes it — `$` flags,
    /// upper-case column letters, the row in decimal — or `None` if it
    /// does not start so. Nothing is written: the typed bytes are read
    /// against the reference's coordinates.
    #[inline]
    pub fn strip_printed<'t>(&self, text: &'t str) -> Option<&'t str> {
        let text = if self.col_abs { text.strip_prefix('$')? } else { text };
        let text = strip_letters(text, self.cell.col)?;
        let text = if self.row_abs { text.strip_prefix('$')? } else { text };
        strip_decimal(text, u64::from(self.cell.row))
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No intermediate `String`: formula text is spliced through this
        // once per reference.
        if self.col_abs {
            f.write_str("$")?;
        }
        f.write_str(col_letters(self.cell.col, &mut [0u8; 7]))?;
        if self.row_abs {
            f.write_str("$")?;
        }
        write!(f, "{}", self.cell.row)
    }
}

/// A parsed reference to either a single cell or a rectangular range, with
/// per-corner `$` flags (`SUM($B$1:B4)` has a fixed head and relative tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RangeRef {
    /// Head-corner reference (top-left after normalization).
    pub head: CellRef,
    /// Tail-corner reference (bottom-right after normalization).
    pub tail: CellRef,
}

impl RangeRef {
    /// A reference to a single cell (head == tail, shared flags).
    pub fn single(r: CellRef) -> Self {
        RangeRef { head: r, tail: r }
    }

    /// Builds from two corner refs, normalizing so head is top-left. The
    /// `$` flags travel with the coordinate they annotate.
    #[inline]
    pub fn from_corners(a: CellRef, b: CellRef) -> Self {
        // Normalize per coordinate: flags follow the coordinate chosen.
        let (head_col, head_col_abs, tail_col, tail_col_abs) = if a.cell.col <= b.cell.col {
            (a.cell.col, a.col_abs, b.cell.col, b.col_abs)
        } else {
            (b.cell.col, b.col_abs, a.cell.col, a.col_abs)
        };
        let (head_row, head_row_abs, tail_row, tail_row_abs) = if a.cell.row <= b.cell.row {
            (a.cell.row, a.row_abs, b.cell.row, b.row_abs)
        } else {
            (b.cell.row, b.row_abs, a.cell.row, a.row_abs)
        };
        RangeRef {
            head: CellRef {
                cell: Cell::new(head_col, head_row),
                col_abs: head_col_abs,
                row_abs: head_row_abs,
            },
            tail: CellRef {
                cell: Cell::new(tail_col, tail_row),
                col_abs: tail_col_abs,
                row_abs: tail_row_abs,
            },
        }
    }

    /// Parses `"B4"`, `"$B$1:B4"`, etc.
    pub fn parse(s: &str) -> Result<Self, GridError> {
        match s.split_once(':') {
            None => Ok(RangeRef::single(CellRef::parse(s)?)),
            Some((a, b)) => Ok(RangeRef::from_corners(CellRef::parse(a)?, CellRef::parse(b)?)),
        }
    }

    /// The plain geometric range (flags dropped).
    #[inline]
    pub fn range(&self) -> Range {
        Range::new(self.head.cell, self.tail.cell)
    }

    /// `true` iff the reference is a single cell.
    pub fn is_cell(&self) -> bool {
        self.head.cell == self.tail.cell
    }

    /// Applies an autofill translation to both corners (see
    /// [`CellRef::autofill`]) and straightens the result: a fill that
    /// carries a relative corner past a `$`-fixed one (`B4:B$5` two rows
    /// down) reads the range the corners now span, and is that range,
    /// each `$` flag travelling with its coordinate (`B$5:B6`) — what its
    /// printed text parses back to.
    ///
    /// Straightened, a range no longer says which corner a coordinate
    /// came from, so where that could matter — two equal coordinates, one
    /// of them `$`-fixed — a fill settles it by a rule of the coordinates
    /// alone: the `$` goes to the corner holding the other axis's one `$`
    /// (`A17:$A$24`, `$A$1:A2`), and heads when that axis has none or two
    /// (`$A$1:A1`, `$B2:B2`, `B$5:B5` — the first cell of a running total,
    /// as it is typed). A fill of a fill is then the fill by the sum,
    /// whatever it crossed on the way. No offset, no fill: the reference
    /// stays as written.
    #[inline]
    pub fn autofill(&self, dc: i64, dr: i64) -> Option<RangeRef> {
        if (dc, dr) == (0, 0) {
            return Some(*self);
        }
        let mut r =
            RangeRef::from_corners(self.head.autofill(dc, dr)?, self.tail.autofill(dc, dr)?);
        let (h, t) = (r.head, r.tail);
        let col_tie = h.cell.col == t.cell.col && h.col_abs != t.col_abs;
        let row_tie = h.cell.row == t.cell.row && h.row_abs != t.row_abs;
        // Whether an axis's one `$` sits at the tail, if it has just one.
        let one = |head: bool, tail: bool, tied: bool| (!tied && head != tail).then_some(tail);
        if col_tie {
            let tail = one(h.row_abs, t.row_abs, row_tie).unwrap_or(false);
            (r.head.col_abs, r.tail.col_abs) = (!tail, tail);
        }
        if row_tie {
            let tail = one(h.col_abs, t.col_abs, col_tie).unwrap_or(false);
            (r.head.row_abs, r.tail.row_abs) = (!tail, tail);
        }
        Some(r)
    }

    /// The same reference resized to `width × height`, anchored at its
    /// top-left corner and clamped to the grid — Excel's implicit shaping
    /// of `SUMIF`'s sum range to the criteria range's dimensions.
    pub fn resized(&self, width: u32, height: u32) -> RangeRef {
        let head = self.range().head();
        let tail = Cell::new(
            (head.col + width.max(1) - 1).min(MAX_COL),
            (head.row + height.max(1) - 1).min(MAX_ROW),
        );
        RangeRef {
            head: CellRef { cell: head, ..self.head },
            tail: CellRef { cell: tail, ..self.tail },
        }
    }

    /// `text` past the reference as `Display` writes it, `None` if it
    /// does not start so: the head corner, and then — where `Display`
    /// writes a range — `:` and the tail corner (see
    /// [`CellRef::strip_printed`]).
    #[inline]
    pub fn strip_printed<'t>(&self, text: &'t str) -> Option<&'t str> {
        let rest = self.head.strip_printed(text)?;
        if self.prints_as_cell() {
            return Some(rest);
        }
        self.tail.strip_printed(rest.strip_prefix(':')?)
    }

    /// Whether `Display` writes the reference as one cell.
    fn prints_as_cell(&self) -> bool {
        self.is_cell() && self.head == self.tail
    }
}

impl fmt::Display for RangeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.prints_as_cell() {
            write!(f, "{}", self.head)
        } else {
            write!(f, "{}:{}", self.head, self.tail)
        }
    }
}

/// Maximum sheet-name length (the xlsx limit).
pub const MAX_SHEET_NAME: usize = 31;

/// A validated worksheet name, as written before the `!` in a qualified
/// reference (`Sheet2!A1`, `'My Sheet'!A1:B3`).
///
/// Sheet names compare and hash **case-insensitively** (ASCII), matching
/// spreadsheet semantics, while the original spelling is preserved for
/// display. Display re-quotes the name when the bare form would not lex as
/// a plain identifier, escaping embedded apostrophes as `''`.
#[derive(Debug, Clone)]
pub struct SheetRef {
    name: String,
}

impl SheetRef {
    /// Validates and wraps a sheet name (the *unquoted* text: pass
    /// `My Sheet`, not `'My Sheet'`).
    pub fn new(name: impl Into<String>) -> Result<Self, GridError> {
        let name = name.into();
        let ok = !name.is_empty()
            && name.chars().count() <= MAX_SHEET_NAME
            && !name.starts_with('\'')
            && !name.ends_with('\'')
            && !name.contains(['[', ']', ':', '\\', '/', '?', '*']);
        if ok {
            Ok(SheetRef { name })
        } else {
            Err(GridError::BadSheetName(name))
        }
    }

    /// The name as the user wrote it (no quotes).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `true` iff this sheet has the given name (ASCII case-insensitive).
    pub fn matches(&self, other: &str) -> bool {
        self.name.eq_ignore_ascii_case(other)
    }

    /// Canonical lookup key: the name lower-cased.
    pub fn key(&self) -> String {
        self.name.to_ascii_lowercase()
    }

    /// `true` iff the name must be written in single quotes (`'My
    /// Sheet'!A1`): anything that would not lex as a bare identifier.
    pub fn needs_quoting(&self) -> bool {
        !SheetRef::bare_ok(&self.name)
    }

    /// `true` iff the bare (unquoted) form would lex as an identifier; when
    /// false, Display wraps the name in single quotes.
    fn bare_ok(name: &str) -> bool {
        let mut chars = name.chars();
        let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
        head_ok && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    }
}

impl PartialEq for SheetRef {
    fn eq(&self, other: &Self) -> bool {
        self.name.eq_ignore_ascii_case(&other.name)
    }
}

impl Eq for SheetRef {}

impl Hash for SheetRef {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for b in self.name.bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl fmt::Display for SheetRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if SheetRef::bare_ok(&self.name) {
            f.write_str(&self.name)
        } else {
            write!(f, "'{}'", self.name.replace('\'', "''"))
        }
    }
}

/// A possibly sheet-qualified range reference: the unit a parsed formula
/// stores per reference and the unit the workbook's inter-sheet edge table
/// routes. `sheet == None` means "the formula's own sheet".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QualifiedRef {
    /// The qualifying sheet, if any (`Sheet2!…`).
    pub sheet: Option<SheetRef>,
    /// The geometric reference with its `$` flags.
    pub rref: RangeRef,
}

impl QualifiedRef {
    /// An unqualified (same-sheet) reference.
    pub fn local(rref: RangeRef) -> Self {
        QualifiedRef { sheet: None, rref }
    }

    /// A reference into `sheet`.
    pub fn on_sheet(sheet: SheetRef, rref: RangeRef) -> Self {
        QualifiedRef { sheet: Some(sheet), rref }
    }

    /// `true` iff the reference has no sheet qualifier.
    pub fn is_local(&self) -> bool {
        self.sheet.is_none()
    }

    /// The qualifying sheet name, if any.
    #[inline]
    pub fn sheet_name(&self) -> Option<&str> {
        self.sheet.as_ref().map(SheetRef::name)
    }

    /// The plain geometric range (sheet and flags dropped).
    #[inline]
    pub fn range(&self) -> Range {
        self.rref.range()
    }

    /// Parses `"A1"`, `"Sheet2!A1:B3"`, `"'My Sheet'!$A$1"`, ….
    pub fn parse(s: &str) -> Result<Self, GridError> {
        if let Some(rest) = s.strip_prefix('\'') {
            // Quoted sheet name: scan for the closing quote, un-escaping ''.
            let mut name = String::new();
            let mut chars = rest.char_indices().peekable();
            while let Some((i, ch)) = chars.next() {
                if ch != '\'' {
                    name.push(ch);
                    continue;
                }
                if chars.peek().map(|&(_, c)| c) == Some('\'') {
                    name.push('\'');
                    chars.next();
                    continue;
                }
                // Closing quote: the rest must be `!ref`.
                let tail = &rest[i + 1..];
                let Some(rref) = tail.strip_prefix('!') else {
                    return Err(GridError::BadA1(s.to_string()));
                };
                return Ok(QualifiedRef::on_sheet(SheetRef::new(name)?, RangeRef::parse(rref)?));
            }
            Err(GridError::BadA1(s.to_string()))
        } else {
            match s.split_once('!') {
                None => Ok(QualifiedRef::local(RangeRef::parse(s)?)),
                Some((sheet, rref)) => {
                    let sheet = SheetRef::new(sheet)?;
                    // Unquoted form must be a bare identifier (`My
                    // Sheet!A1` is malformed; write `'My Sheet'!A1`).
                    if sheet.needs_quoting() {
                        return Err(GridError::BadA1(s.to_string()));
                    }
                    Ok(QualifiedRef::on_sheet(sheet, RangeRef::parse(rref)?))
                }
            }
        }
    }

    /// Applies an autofill translation: the sheet qualifier is always fixed
    /// (dragging a fill handle never changes which sheet is referenced);
    /// the range shifts per its `$` flags.
    pub fn autofill(&self, dc: i64, dr: i64) -> Option<QualifiedRef> {
        Some(QualifiedRef { sheet: self.sheet.clone(), rref: self.rref.autofill(dc, dr)? })
    }

    /// Rewrites the geometric part, keeping the qualifier.
    pub fn with_rref(&self, rref: RangeRef) -> QualifiedRef {
        QualifiedRef { sheet: self.sheet.clone(), rref }
    }

    /// The same reference resized to `width × height` (see
    /// [`RangeRef::resized`]), keeping the qualifier.
    pub fn resized(&self, width: u32, height: u32) -> QualifiedRef {
        self.with_rref(self.rref.resized(width, height))
    }
}

impl From<RangeRef> for QualifiedRef {
    fn from(rref: RangeRef) -> Self {
        QualifiedRef::local(rref)
    }
}

impl fmt::Display for QualifiedRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sheet {
            Some(s) => write!(f, "{s}!{}", self.rref),
            None => write!(f, "{}", self.rref),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_letters_round_trip() {
        for (n, s) in [
            (1, "A"),
            (26, "Z"),
            (27, "AA"),
            (28, "AB"),
            (52, "AZ"),
            (53, "BA"),
            (702, "ZZ"),
            (703, "AAA"),
            (16384, "XFD"),
        ] {
            assert_eq!(col_to_letters(n), s);
            assert_eq!(letters_to_col(s).unwrap(), n);
            assert_eq!(letters_to_col(&s.to_lowercase()).unwrap(), n);
        }
        assert!(letters_to_col("").is_err());
        assert!(letters_to_col("XFE").is_err()); // beyond MAX_COL
        assert!(letters_to_col("A1").is_err());
    }

    #[test]
    fn cell_ref_parse_flags() {
        let r = CellRef::parse("$B$1").unwrap();
        assert!(r.is_fixed());
        assert_eq!(r.cell, Cell::new(2, 1));

        let r = CellRef::parse("B4").unwrap();
        assert!(r.is_relative());

        let r = CellRef::parse("$B4").unwrap();
        assert!(r.col_abs && !r.row_abs);

        let r = CellRef::parse("B$4").unwrap();
        assert!(!r.col_abs && r.row_abs);

        for bad in ["", "B", "4", "$", "B$", "$B$", "B0", "1B", "B-1", "B 4"] {
            assert!(CellRef::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn cell_ref_display_round_trip() {
        for s in ["A1", "$A1", "A$1", "$A$1", "XFD1048576"] {
            assert_eq!(CellRef::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn a_reference_is_stripped_exactly_where_it_prints() {
        let refs = ["A1", "$A1", "A$1", "$A$1", "Z9", "AA10", "XFD1048576", "B2:C3", "$A$1:B$20"]
            .map(|s| RangeRef::parse(s).unwrap());
        // `B4:B4` prints as a range, its corners' flags differing.
        let wide =
            RangeRef { head: CellRef::parse("B4").unwrap(), tail: CellRef::parse("B$4").unwrap() };
        for rref in refs.into_iter().chain([wide]) {
            let printed = rref.to_string();
            let mut texts = vec![printed.clone(), format!("{printed}+1"), format!("{printed}:C9")];
            texts.extend((0..printed.len()).map(|i| printed[..i].to_string()));
            texts.extend((0..=printed.len()).flat_map(|i| {
                ["0", "1", "$", " ", "A", "a", ":"]
                    .map(|ins| format!("{}{ins}{}", &printed[..i], &printed[i..]))
            }));
            texts.extend((0..printed.len()).map(|i| {
                let mut b = printed.clone().into_bytes();
                b[i] = b[i].to_ascii_lowercase();
                String::from_utf8(b).unwrap()
            }));
            texts.push(printed.replace('$', ""));
            for text in &texts {
                let want = text.strip_prefix(printed.as_str());
                assert_eq!(rref.strip_printed(text), want, "{printed} in {text:?}");
            }
        }
        assert_eq!(strip_decimal("0+1", 0), Some("+1"));
        assert_eq!(strip_decimal("01", 1), None);
        assert_eq!(strip_decimal("18446744073709551615", u64::MAX), Some(""));
        assert_eq!(strip_decimal("99999999999999999999", u64::MAX), None);
    }

    #[test]
    fn autofill_respects_dollar() {
        // $B$1 never moves; B4 moves with the fill delta.
        let fixed = CellRef::parse("$B$1").unwrap();
        assert_eq!(fixed.autofill(3, 7).unwrap(), fixed);

        let rel = CellRef::parse("B4").unwrap();
        assert_eq!(rel.autofill(1, 2).unwrap(), CellRef::parse("C6").unwrap());

        let mixed = CellRef::parse("$B4").unwrap();
        assert_eq!(mixed.autofill(1, 2).unwrap(), CellRef::parse("$B6").unwrap());

        // Falling off the grid fails.
        assert!(CellRef::parse("A1").unwrap().autofill(-1, 0).is_none());
    }

    #[test]
    fn range_ref_parse_and_range() {
        let r = RangeRef::parse("$B$1:B4").unwrap();
        assert!(r.head.is_fixed());
        assert!(r.tail.is_relative());
        assert_eq!(r.range(), Range::from_coords(2, 1, 2, 4));
        assert_eq!(r.to_string(), "$B$1:B4");
    }

    #[test]
    fn range_ref_normalizes_with_flags() {
        // Corners given bottom-right first; flags must follow coordinates.
        let r = RangeRef::parse("B$4:$A1").unwrap();
        assert_eq!(r.range(), Range::from_coords(1, 1, 2, 4));
        assert!(r.head.col_abs); // the $A column flag
        assert!(!r.head.row_abs);
        assert!(!r.tail.col_abs);
        assert!(r.tail.row_abs); // the $4 row flag
    }

    #[test]
    fn a_fill_settles_equal_corners_by_the_other_axis() {
        let fill = |typed: &str, dc: i64, dr: i64| {
            RangeRef::parse(typed).unwrap().autofill(dc, dr).unwrap().to_string()
        };
        // The `$` of a tied axis goes with the other axis's one `$`...
        assert_eq!(fill("B17:$A$24", -1, 0), "A17:$A$24");
        assert_eq!(fill("$A$1:B2", -1, 0), "$A$1:A2");
        // ...or heads, as a running total's first cell is typed.
        assert_eq!(fill("$A$1:A2", 0, -1), "$A$1:A1");
        assert_eq!(fill("$B2:C2", -1, 0), "$B2:B2");
        assert_eq!(fill("A2:$A$24", 0, 22), "$A$24:A24");
        assert_eq!(fill("B4:B$5", 0, 1), "B$5:B5");
        // Whatever the way there: across the corners and back, or not.
        let r = RangeRef::parse("A17:$A$24").unwrap();
        assert_eq!(r.autofill(1, 3).unwrap().autofill(-1, 0), r.autofill(0, 3));
        // Not moved, as written.
        assert_eq!(
            RangeRef::parse("$B1:B$4").unwrap().autofill(0, 0).unwrap().to_string(),
            "$B1:B$4"
        );
    }

    #[test]
    fn range_ref_autofill_generates_rr_pattern() {
        // SUM(A1:B3) autofilled down yields A2:B4, A3:B5, ... (Fig. 4a).
        let src = RangeRef::parse("A1:B3").unwrap();
        let filled = src.autofill(0, 1).unwrap();
        assert_eq!(filled.range(), Range::from_coords(1, 2, 2, 4));
    }

    #[test]
    fn sheet_ref_validation_and_case() {
        let s = SheetRef::new("Sheet1").unwrap();
        assert!(s.matches("sheet1"));
        assert!(s.matches("SHEET1"));
        assert_eq!(s.key(), "sheet1");
        assert_eq!(s, SheetRef::new("sHeEt1").unwrap());

        for bad in ["", "a:b", "a/b", "a\\b", "a?b", "a*b", "a[b", "a]b", "'lead", "trail'"] {
            assert!(SheetRef::new(bad).is_err(), "{bad:?} should fail");
        }
        assert!(SheetRef::new("x".repeat(31)).is_ok());
        assert!(SheetRef::new("x".repeat(32)).is_err());
        // An *embedded* apostrophe is legal (escaped as '' when quoted).
        assert_eq!(SheetRef::new("it's").unwrap().to_string(), "'it''s'");
    }

    #[test]
    fn sheet_ref_display_quotes_when_needed() {
        assert_eq!(SheetRef::new("Sheet1").unwrap().to_string(), "Sheet1");
        assert_eq!(SheetRef::new("_tmp2").unwrap().to_string(), "_tmp2");
        assert_eq!(SheetRef::new("My Sheet").unwrap().to_string(), "'My Sheet'");
        assert_eq!(SheetRef::new("2024").unwrap().to_string(), "'2024'");
        assert_eq!(SheetRef::new("a-b").unwrap().to_string(), "'a-b'");
    }

    #[test]
    fn qualified_ref_parse_and_display() {
        let q = QualifiedRef::parse("A1:B2").unwrap();
        assert!(q.is_local());
        assert_eq!(q.to_string(), "A1:B2");

        let q = QualifiedRef::parse("Sheet2!$A$1:B2").unwrap();
        assert_eq!(q.sheet_name(), Some("Sheet2"));
        assert_eq!(q.range(), Range::from_coords(1, 1, 2, 2));
        assert_eq!(q.to_string(), "Sheet2!$A$1:B2");

        let q = QualifiedRef::parse("'My Sheet'!C3").unwrap();
        assert_eq!(q.sheet_name(), Some("My Sheet"));
        assert_eq!(q.to_string(), "'My Sheet'!C3");

        let q = QualifiedRef::parse("'it''s'!A1").unwrap();
        assert_eq!(q.sheet_name(), Some("it's"));
        assert_eq!(QualifiedRef::parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn qualified_ref_malformed_forms_err() {
        for bad in [
            "!A1",
            "Sheet1!",
            "Sheet1!!A1",
            "'Open!A1",
            "''!A1",
            "'My Sheet'A1",
            "'My Sheet'!",
            "Sheet1!A0",
        ] {
            assert!(QualifiedRef::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn qualified_ref_autofill_pins_sheet() {
        let q = QualifiedRef::parse("'My Sheet'!$A$1:B2").unwrap();
        let f = q.autofill(1, 3).unwrap();
        assert_eq!(f.sheet_name(), Some("My Sheet"));
        assert_eq!(f.to_string(), "'My Sheet'!$A$1:C5");
        // Falling off the grid still fails.
        assert!(QualifiedRef::parse("S!A1").unwrap().autofill(0, -1).is_none());
    }
}
