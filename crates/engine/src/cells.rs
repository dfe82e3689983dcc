//! The sheet's cell store: dense, paged columns.
//!
//! ```text
//! CellStore
//!   cols: [Column]              sorted by col, one per column ever written,
//!                               with when its rows were last written
//!     pages: [Page]             sorted by index, one per PAGE_ROWS-row band
//!       slots: [Slot; 256]      that holds a cell; allocated on first write
//!         content.value         inline (24 bytes) — what a range scan reads
//!         content.run           the formula, behind a pointer shared by
//!                               every cell of its run
//!         occupied              whether it holds a cell
//!     dirty: {lo → hi}          its dirty formula cells' rows, as intervals
//! ```
//!
//! A tabular column is a handful of pages, so reading `A1:A1024` is four
//! slice scans and no hashing. A vacant slot holds `Value::Empty`, which
//! is what a blank cell reads as: a scan never tests for occupancy.
//! Memory is proportional to the pages that hold a cell (a page is freed
//! with its last cell), never to the coordinates used.
//!
//! Iteration is in `(col, row)` order — [`Cell`]'s own ordering.

use crate::sheet::{CellContent, Run};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::Arc;
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// Rows per page. A page of 40-byte slots is 10 KiB: a tabular column of
/// a few thousand rows is a handful of pages, each scanned as one slice,
/// while a lone cell at a far coordinate costs one page, not a column.
pub(crate) const PAGE_ROWS: u32 = 256;

/// One row of one column.
struct Slot {
    content: CellContent,
    occupied: bool,
}

impl Slot {
    /// A slot holding no cell: it reads as `Value::Empty`.
    const VACANT: Slot =
        Slot { content: CellContent { value: Value::Empty, run: None }, occupied: false };
}

/// What a blank cell reads as.
pub(crate) static EMPTY: Value = Value::Empty;

/// What a page that was never allocated reads as.
static VACANT_PAGE: [Slot; PAGE_ROWS as usize] = [const { Slot::VACANT }; PAGE_ROWS as usize];

struct Page {
    /// Which band of rows: row `r` lives in page `(r - 1) / PAGE_ROWS`.
    index: u32,
    /// Occupied slots; the page is dropped when this reaches zero.
    used: u32,
    slots: Box<[Slot]>,
}

#[derive(Default)]
struct Column {
    col: u32,
    pages: Vec<Page>,
    /// When the column's rows were last written (what remembered folds
    /// over it are checked against).
    writes: Writes,
    /// The rows of the column's dirty cells, every one a formula cell.
    dirty: Intervals,
}

/// Rows as sorted, disjoint, non-touching intervals `lo → hi` in a B-tree:
/// an interval goes in or out in O(log intervals) whatever the order.
#[derive(Default)]
struct Intervals(BTreeMap<u32, u32>);

impl Intervals {
    /// Adds rows `lo..=hi`, merged with every interval they overlap or
    /// touch; returns how many of them were not in the set.
    fn insert(&mut self, lo: u32, hi: u32) -> usize {
        // Intervals starting inside the rows or right below merge in...
        let (mut end, mut had) = (hi, 0);
        while let Some((&s, &e)) = self.0.range(lo + 1..=hi + 1).next() {
            (end, had) = (end.max(e), had + e - s + 1);
            self.0.remove(&s);
        }
        // ...and the whole joins the interval reaching `lo` from above, if any.
        let reach = self.0.range_mut(..=lo).next_back().filter(|(_, e)| **e + 1 >= lo);
        let added = if let Some((_, e)) = reach {
            let old = std::mem::replace(e, end.max(*e));
            end.max(old) - old
        } else {
            self.0.insert(lo, end);
            end - lo + 1
        };
        (added - had) as usize
    }

    /// Takes rows `lo..=hi` out; returns how many of them were in the set.
    fn remove(&mut self, lo: u32, hi: u32) -> usize {
        // From the interval straddling `lo`, if any, each one starting by
        // `hi` goes, what lies outside `lo..=hi` put back.
        let straddles = self.0.range(..lo).next_back().filter(|&(_, &e)| e >= lo);
        let (mut from, mut removed) = (straddles.map_or(lo, |(&s, _)| s), 0);
        while let Some((&s, &e)) = self.0.range(from..).next().filter(|&(&s, _)| s <= hi) {
            self.0.remove(&s);
            if s < lo {
                self.0.insert(s, lo - 1);
            }
            if e > hi {
                self.0.insert(hi + 1, e);
            }
            removed += (e.min(hi) - s.max(lo) + 1) as usize;
            from = s + 1;
        }
        removed
    }
}

/// Steps a column's [`Writes`] keep apart before the oldest are merged.
const WRITE_STEPS: usize = 8;

/// When the rows of one column were last written, by the engine's write
/// clock: `through(r)` is no earlier than the latest write at row `r` or
/// any row above it, so a fold over rows `..=r` remembered at or after
/// that clock has seen all of them — whatever was written *below* `r`
/// since. That is the shape recalculation writes in: a cumulative column
/// over a formula column evaluated in the same pass is asked for rows
/// `..=r` just after row `r` of its input was written and before row
/// `r + 1` is.
///
/// Kept as steps `(row, clock)`, rows and clocks both ascending: a write
/// at the newest clock replaces every step at its row or below (the
/// prefix maximum there is now its clock). Exact while the steps fit;
/// past [`WRITE_STEPS`] the oldest are merged into one that claims their
/// first row for their latest clock — later than the truth for the rows
/// between, never earlier.
#[derive(Default)]
struct Writes {
    steps: [(u32, u64); WRITE_STEPS],
    len: usize,
}

impl Writes {
    /// Records a write at `row` — or at `row` and any rows below it — at
    /// clock `at`, the newest so far.
    fn stamp(&mut self, row: u32, at: u64) {
        while self.len > 0 && self.steps[self.len - 1].0 >= row {
            self.len -= 1;
        }
        if self.len == WRITE_STEPS {
            const HALF: usize = WRITE_STEPS / 2;
            self.steps[0].1 = self.steps[HALF - 1].1;
            self.steps.copy_within(HALF.., 1);
            self.len -= HALF - 1;
        }
        self.steps[self.len] = (row, at);
        self.len += 1;
    }

    /// A clock no earlier than the latest write at `row` or above it
    /// (`0`: none).
    fn through(&self, row: u32) -> u64 {
        self.steps[..self.len].iter().rev().find(|step| step.0 <= row).map_or(0, |step| step.1)
    }
}

#[cfg(test)]
thread_local! {
    /// Column and page lookups this thread has made (test
    /// instrumentation: what reading through a [`Cursor`] saves).
    pub(crate) static LOOKUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Where the item with `key` sits in `items` (sorted by key), as
/// `binary_search` reports it. A tabular sheet fills its columns from A
/// and its rows from 1, so column `c` is usually the `c`-th stored and
/// page `p` the `p`-th of its column: look at `key`'s own position first
/// — one predictable branch instead of a search's unpredictable ones.
fn locate<T>(
    items: &[T],
    key: u32,
    first_key: u32,
    key_of: impl Fn(&T) -> u32,
) -> Result<usize, usize> {
    #[cfg(test)]
    LOOKUPS.with(|n| n.set(n.get() + 1));
    let guess = (key - first_key) as usize;
    match items.get(guess) {
        Some(item) if key_of(item) == key => Ok(guess),
        _ => items.binary_search_by_key(&key, key_of),
    }
}

/// The column and page a lookup found last, so that the next one in the
/// same page costs two comparisons: what a node's results are written
/// through, row after row, and what each reference of its formula reads
/// through ([`CellStore::read`], [`CellStore::fold_through`]). Good while
/// no column or page is added or dropped — for one pass's evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    /// `0` (no column) until the first lookup.
    col: u32,
    /// Where the column sits in `cols`.
    column: u32,
    /// The page's index ([`u32::MAX`]: none yet) and where it sits in the
    /// column's pages.
    index: u32,
    page: u32,
}

fn page_of(row: u32) -> u32 {
    (row - 1) / PAGE_ROWS
}

fn slot_of(row: u32) -> usize {
    ((row - 1) % PAGE_ROWS) as usize
}

/// The last row of page `index` that is still inside `..=last_row`.
fn page_end(index: u32, last_row: u32) -> u32 {
    let end = (u64::from(index) + 1) * u64::from(PAGE_ROWS);
    end.min(u64::from(last_row)) as u32
}

/// The allocated pages among `pages` overlapping rows `first..=last`, each
/// as the row of its span's first slot and the span.
fn spans(pages: &[Page], first: u32, last: u32) -> impl Iterator<Item = (u32, &[Slot])> {
    let from = pages.partition_point(|p| p.index < page_of(first));
    pages[from..].iter().take_while(move |p| p.index <= page_of(last)).map(move |page| {
        let start = first.max(page.index * PAGE_ROWS + 1);
        (start, &page.slots[slot_of(start)..=slot_of(page_end(page.index, last))])
    })
}

/// Folds one run of slots: the loop under every column scan. Out of line
/// on purpose. In a frame of its own, with no call in it but `f`, the
/// accumulator stays in a register; inlined into
/// [`CellStore::fold_range`], whose wide-range half allocates, the
/// register allocator may spill it at entry for the whole function, and a
/// `SUM` down a column then pays a store and a reload per cell (measured:
/// a third of the full-recalculation rate).
#[inline(never)]
fn fold_slots<A, B>(
    slots: &[Slot],
    init: A,
    f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
) -> ControlFlow<B, A> {
    slots.iter().try_fold(init, |acc, slot| f(acc, &slot.content.value))
}

/// Folds a band of rows across several columns, row by row: `columns`
/// holds one slice per column, all of one length. Out of line for the
/// reason [`fold_slots`] is — inlined into [`CellStore::fold_range`], next
/// to the `Vec` it fills per band, the accumulator of a `SUM` over
/// `$A$1:B{r}` was stored to and reloaded from the stack around every
/// addition.
#[inline(never)]
fn fold_rows<A, B>(
    columns: &[&[Slot]],
    init: A,
    f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
) -> ControlFlow<B, A> {
    let rows = columns.first().map_or(0, |slots| slots.len());
    let mut acc = init;
    for at in 0..rows {
        for slots in columns {
            acc = f(acc, &slots[at].content.value)?;
        }
    }
    ControlFlow::Continue(acc)
}

impl Column {
    fn page(&self, index: u32) -> Option<&Page> {
        let i = locate(&self.pages, index, 0, |p| p.index).ok()?;
        Some(&self.pages[i])
    }

    /// The slots of page `index`, allocated or not.
    fn slots(&self, index: u32) -> &[Slot] {
        self.page(index).map_or(&VACANT_PAGE, |p| &p.slots)
    }
}

/// See the module documentation.
#[derive(Default)]
pub(crate) struct CellStore {
    cols: Vec<Column>,
    len: usize,
    /// How many of the `len` cells hold a formula.
    formulas: usize,
    /// How many of the `formulas` are dirty.
    dirty: usize,
}

impl CellStore {
    fn column(&self, col: u32) -> Option<&Column> {
        let i = locate(&self.cols, col, 1, |c| c.col).ok()?;
        Some(&self.cols[i])
    }

    fn slot(&self, cell: Cell) -> Option<&Slot> {
        Some(&self.column(cell.col)?.page(page_of(cell.row))?.slots[slot_of(cell.row)])
    }

    /// Where the columns overlapping `range` sit in `cols`.
    fn columns_in(&self, range: Range) -> std::ops::Range<usize> {
        let from = self.cols.partition_point(|c| c.col < range.head().col);
        let to = self.cols.partition_point(|c| c.col <= range.tail().col);
        from..to
    }

    /// Number of non-blank cells.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of formula cells.
    pub(crate) fn formulas(&self) -> usize {
        self.formulas
    }

    /// What `cell` holds, `None` when blank.
    pub(crate) fn get(&self, cell: Cell) -> Option<&CellContent> {
        self.slot(cell).filter(|s| s.occupied).map(|s| &s.content)
    }

    /// The value `cell` reads as (`Empty` when blank).
    pub(crate) fn value(&self, cell: Cell) -> &Value {
        &self.slot(cell).unwrap_or(&Slot::VACANT).content.value
    }

    /// [`Self::value`], through `cursor`: a read in the page read last
    /// looks nothing up. What a node's formula reads, one cursor per
    /// reference (see `Engine::evaluate_node`).
    #[inline]
    pub(crate) fn read(&self, cursor: &std::cell::Cell<Cursor>, cell: Cell) -> &Value {
        let mut at = cursor.get();
        let slots = self.page_through(&mut at, cell);
        cursor.set(at);
        &slots[slot_of(cell.row)].content.value
    }

    /// [`Self::fold_range`], through `cursor` when `range` is one column:
    /// one slice scan per page, no lookup for the page read last.
    #[inline]
    pub(crate) fn fold_through<A, B>(
        &self,
        cursor: &std::cell::Cell<Cursor>,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        let (head, tail) = (range.head(), range.tail());
        if head.col != tail.col {
            return self.fold_range(range, init, f);
        }
        let (mut acc, mut row, mut at) = (init, head.row, cursor.get());
        loop {
            let end = page_end(page_of(row), tail.row);
            let slots = self.page_through(&mut at, Cell { col: head.col, row });
            match fold_slots(&slots[slot_of(row)..=slot_of(end)], acc, f) {
                ControlFlow::Continue(next) if end < tail.row => (acc, row) = (next, end + 1),
                flow => {
                    cursor.set(at);
                    return flow;
                }
            }
        }
    }

    /// The slots of the page holding `cell`, through `cursor`; a page or
    /// column never written reads as [`VACANT_PAGE`].
    #[inline]
    fn page_through(&self, cursor: &mut Cursor, cell: Cell) -> &[Slot] {
        match self.seek(cursor, cell) {
            Some((i, j)) => &self.cols[i].pages[j].slots,
            None => &VACANT_PAGE,
        }
    }

    /// The allocated page holding `cell`, through `cursor`: its column and
    /// page are looked up only when they are not the ones found last.
    #[inline]
    fn seek(&self, cursor: &mut Cursor, cell: Cell) -> Option<(usize, usize)> {
        if cursor.col != cell.col {
            let i = locate(&self.cols, cell.col, 1, |c| c.col).ok()?;
            *cursor = Cursor { col: cell.col, column: i as u32, index: u32::MAX, page: 0 };
        }
        let index = page_of(cell.row);
        if cursor.index != index {
            let pages = &self.cols[cursor.column as usize].pages;
            cursor.page = locate(pages, index, 0, |p| p.index).ok()? as u32;
            cursor.index = index;
        }
        Some((cursor.column as usize, cursor.page as usize))
    }

    /// The run the formula cell at `cell` is part of, found through
    /// `cursor`; `None` if it holds no formula.
    #[inline]
    pub(crate) fn run_through(&self, cursor: &mut Cursor, cell: Cell) -> Option<&Arc<Run>> {
        let (i, j) = self.seek(cursor, cell)?;
        self.cols[i].pages[j].slots[slot_of(cell.row)].content.run.as_ref()
    }

    /// Stores `value` as the result of the formula at `cell`, found
    /// through `cursor`, at write clock `at`; does nothing if the cell
    /// holds no formula.
    #[inline]
    pub(crate) fn store_result(&mut self, cursor: &mut Cursor, cell: Cell, value: Value, at: u64) {
        let Some((i, j)) = self.seek(cursor, cell) else { return };
        let column = &mut self.cols[i];
        let content = &mut column.pages[j].slots[slot_of(cell.row)].content;
        if content.run.is_some() {
            content.value = value;
            column.writes.stamp(cell.row, at);
        }
    }

    /// Writes `cell` at write clock `at`, returning what it held. A pure
    /// value takes its dirty mark off (only a formula is dirty).
    pub(crate) fn insert(
        &mut self,
        cell: Cell,
        content: CellContent,
        at: u64,
    ) -> Option<CellContent> {
        let i = locate(&self.cols, cell.col, 1, |c| c.col).unwrap_or_else(|i| {
            self.cols.insert(i, Column { col: cell.col, ..Column::default() });
            i
        });
        let column = &mut self.cols[i];
        column.writes.stamp(cell.row, at);
        if content.run.is_none() {
            self.dirty -= column.dirty.remove(cell.row, cell.row);
        }
        let pages = &mut column.pages;
        let index = page_of(cell.row);
        let j = match locate(pages, index, 0, |p| p.index) {
            Ok(j) => j,
            Err(j) => {
                let slots = (0..PAGE_ROWS).map(|_| Slot::VACANT).collect();
                pages.insert(j, Page { index, used: 0, slots });
                j
            }
        };
        let page = &mut pages[j];
        let slot = &mut page.slots[slot_of(cell.row)];
        self.formulas += usize::from(content.run.is_some());
        let old = std::mem::replace(&mut slot.content, content);
        if slot.occupied {
            self.formulas -= usize::from(old.run.is_some());
            return Some(old);
        }
        slot.occupied = true;
        page.used += 1;
        self.len += 1;
        None
    }

    /// Makes the formula cell at `cell` a cell of `run`, which holds there
    /// the formula the cell holds: no value is written, so no clock is
    /// stamped, and a dirty mark stays.
    pub(crate) fn repoint(&mut self, cell: Cell, run: Arc<Run>) {
        let i = locate(&self.cols, cell.col, 1, |c| c.col).expect("a formula cell");
        let pages = &mut self.cols[i].pages;
        let j = locate(pages, page_of(cell.row), 0, |p| p.index).expect("a formula cell");
        let old = pages[j].slots[slot_of(cell.row)].content.run.replace(run);
        assert!(old.is_some(), "a formula cell");
    }

    /// Blanks every cell of `range` at write clock `at`, dirty marks
    /// included: a walk over the allocated pages the range overlaps. Column
    /// headers stay, with their clocks.
    pub(crate) fn remove_range(&mut self, range: Range, at: u64) {
        let (first, last) = (range.head().row, range.tail().row);
        let (mut removed, mut formulas) = (0usize, 0usize);
        let columns = self.columns_in(range);
        for column in &mut self.cols[columns] {
            column.writes.stamp(first, at);
            self.dirty -= column.dirty.remove(first, last);
            let from = column.pages.partition_point(|p| p.index < page_of(first));
            let mut emptied = false;
            for page in column.pages[from..].iter_mut().take_while(|p| p.index <= page_of(last)) {
                let start = first.max(page.index * PAGE_ROWS + 1);
                let span = slot_of(start)..=slot_of(page_end(page.index, last));
                for slot in page.slots[span].iter_mut().filter(|s| s.occupied) {
                    formulas += usize::from(slot.content.run.is_some());
                    *slot = Slot::VACANT;
                    page.used -= 1;
                    removed += 1;
                }
                emptied |= page.used == 0;
            }
            if emptied {
                column.pages.retain(|p| p.used > 0);
            }
        }
        self.len -= removed;
        self.formulas -= formulas;
    }

    /// Every non-blank cell in `(col, row)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Cell, &CellContent)> {
        self.cols.iter().flat_map(|column| {
            let slots = spans(&column.pages, 1, u32::MAX).flat_map(|(at, s)| (at..).zip(s));
            let cells = slots.filter(|(_, slot)| slot.occupied);
            cells.map(|(row, slot)| (Cell { col: column.col, row }, &slot.content))
        })
    }

    /// Consumes the store: every non-blank cell in `(col, row)` order.
    pub(crate) fn into_cells(self) -> impl Iterator<Item = (Cell, CellContent)> {
        self.cols.into_iter().flat_map(|column| {
            let col = column.col;
            column.pages.into_iter().flat_map(move |page| {
                let first = page.index * PAGE_ROWS + 1;
                page.slots
                    .into_vec()
                    .into_iter()
                    .enumerate()
                    .filter(|(_, s)| s.occupied)
                    .map(move |(i, s)| (Cell { col, row: first + i as u32 }, s.content))
            })
        })
    }

    /// A clock no earlier than the latest write of any cell of `range`:
    /// exact about writes below the range's last row, which it ignores
    /// (see [`Writes`]); a write above its first row counts as one inside.
    pub(crate) fn last_write(&self, range: Range) -> u64 {
        let through = range.tail().row;
        self.cols[self.columns_in(range)]
            .iter()
            .map(|c| c.writes.through(through))
            .max()
            .unwrap_or(0)
    }

    // ---- dirty marks ------------------------------------------------------

    /// Number of cells awaiting recalculation.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// The cells awaiting recalculation, in `(col, row)` order.
    pub(crate) fn dirty(&self) -> impl Iterator<Item = Cell> + '_ {
        self.cols.iter().flat_map(|column| {
            let rows = column.dirty.0.iter().flat_map(|(&lo, &hi)| lo..=hi);
            rows.map(|row| Cell { col: column.col, row })
        })
    }

    /// The dirty cells into `view` in `(col, row)` order, and into `joins`
    /// whether each continues the one above it down one run — read here,
    /// since a dirty cell can change runs and keep its mark.
    pub(crate) fn read_dirty(&self, view: &mut Vec<Cell>, joins: &mut Vec<bool>) {
        view.clear();
        joins.clear();
        for column in &self.cols {
            for (&lo, &hi) in &column.dirty.0 {
                let mut above: Option<&Arc<Run>> = None;
                let slots = spans(&column.pages, lo, hi).flat_map(|(at, s)| (at..).zip(s));
                for (row, slot) in slots {
                    let run = slot.content.run.as_ref();
                    joins.push(above.zip(run).is_some_and(|(a, b)| Arc::ptr_eq(a, b)));
                    above = run;
                    view.push(Cell { col: column.col, row });
                }
            }
        }
    }

    /// Marks the formula cells among `cells` dirty, one lookup each.
    pub(crate) fn mark_cells_dirty(&mut self, cells: &[Cell]) {
        for &cell in cells {
            if self.get(cell).is_some_and(CellContent::is_formula) {
                let i = locate(&self.cols, cell.col, 1, |c| c.col).expect("a formula's column");
                self.dirty += self.cols[i].dirty.insert(cell.row, cell.row);
            }
        }
    }

    /// Marks every formula cell inside `range` dirty: a walk over the
    /// allocated pages it overlaps, each page's stretches of formula cells
    /// added whole (one crossing pages merges as it goes in).
    pub(crate) fn mark_formulas_dirty_in(&mut self, range: Range) {
        let (first, last) = (range.head().row, range.tail().row);
        let columns = self.columns_in(range);
        let formula = |slot: &Slot| slot.content.run.is_some();
        for column in &mut self.cols[columns] {
            for (mut row, mut slots) in spans(&column.pages, first, last) {
                while let Some(at) = slots.iter().position(formula) {
                    let len = slots[at..].iter().position(|s| !formula(s));
                    let end = len.map_or(slots.len(), |len| at + len);
                    self.dirty += column.dirty.insert(row + at as u32, row + end as u32 - 1);
                    (row, slots) = (row + end as u32, &slots[end..]);
                }
            }
        }
    }

    /// Unmarks `cells`, sorted and all dirty (what a pass evaluated): each
    /// stretch of a column as one interval, all of the set at once.
    pub(crate) fn unmark(&mut self, cells: &[Cell]) {
        if cells.len() == self.dirty {
            self.cols.iter_mut().for_each(|column| column.dirty.0.clear());
            self.dirty = 0;
            return;
        }
        for stretch in cells.chunk_by(|a, b| a.col == b.col && a.row + 1 == b.row) {
            let (top, n) = (stretch[0], stretch.len());
            let i = locate(&self.cols, top.col, 1, |c| c.col).expect("a dirty cell's column");
            let removed = self.cols[i].dirty.remove(top.row, top.row + n as u32 - 1);
            debug_assert_eq!(removed, n, "unmarked cells were dirty");
            self.dirty -= removed;
        }
    }

    // ---- range reads ------------------------------------------------------

    /// Folds the value every cell of `range` reads as into `init`, by
    /// reference, in [`Range::cells`] (row-major) order, until `f` breaks.
    ///
    /// A single-column range is one slice scan per page ([`fold_slots`]).
    /// A wider range takes, per band of page rows, each column's slot
    /// slice and steps across them row by row ([`fold_rows`]). Pages and
    /// columns that were never written read as [`VACANT_PAGE`], so either
    /// loop has one shape — and one call of `f`, which is what lets it
    /// inline.
    pub(crate) fn fold_range<A, B>(
        &self,
        range: Range,
        init: A,
        f: &mut impl FnMut(A, &Value) -> ControlFlow<B, A>,
    ) -> ControlFlow<B, A> {
        let (head, tail) = (range.head(), range.tail());
        let one = (head.col == tail.col).then(|| self.column(head.col));
        let columns = if one.is_some() { &[] } else { &self.cols[self.columns_in(range)] };
        let mut pages: Vec<&[Slot]> = Vec::new();
        let mut acc = init;
        let mut row = head.row;
        loop {
            let index = page_of(row);
            let end = page_end(index, tail.row);
            let span = slot_of(row)..=slot_of(end);
            if let Some(column) = one {
                let page = column.map_or(&VACANT_PAGE[..], |c| c.slots(index));
                acc = fold_slots(&page[span], acc, f)?;
            } else {
                let mut stored = columns.iter().peekable();
                pages.clear();
                pages.extend((head.col..=tail.col).map(|col| {
                    let page = stored
                        .next_if(|c| c.col == col)
                        .map_or(&VACANT_PAGE[..], |c| c.slots(index));
                    &page[span.clone()]
                }));
                acc = fold_rows(&pages, acc, f)?;
            }
            if end == tail.row {
                return ControlFlow::Continue(acc);
            }
            row = end + 1;
        }
    }

    /// Slots allocated, for the tests that bound memory by pages touched.
    pub(crate) fn slot_capacity(&self) -> usize {
        self.cols.iter().map(|c| c.pages.len()).sum::<usize>() * PAGE_ROWS as usize
    }
}

#[cfg(test)]
mod tests {
    //! The store against the obvious model — a `BTreeMap` of contents and
    //! a `BTreeSet` of dirty cells — under random scripts, on coordinates
    //! chosen to straddle page boundaries and to sit at the grid's far end.

    use super::*;
    use crate::sheet::Run;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use taco_formula::Template;
    use taco_grid::{MAX_COL, MAX_ROW};

    const COLS: [u32; 5] = [1, 2, 3, 5, MAX_COL];
    const ROWS: [u32; 14] =
        [1, 2, 3, 255, 256, 257, 258, 511, 512, 513, 700, MAX_ROW - 256, MAX_ROW - 1, MAX_ROW];

    #[derive(Debug, Clone)]
    enum Op {
        /// A pure value (`None`) or a formula; a pure value written over a
        /// dirty formula takes its mark off.
        Set(Cell, Option<&'static str>, i32),
        /// A formula at every row of `ROWS` in a column, one run: cells
        /// next to each other that join.
        Fill(u32),
        Clear(Range),
        Rebuild,
        StoreResult(Cell, i32),
        Mark(Cell),
        MarkIn(Range),
        /// Every other stretch `ROWS[k]..=ROWS[k + 1]` of a column marked
        /// one by one, bottom-up (`false`) or from both ends inwards.
        MarkStretches(u32, bool),
        /// The dirty cells from the `from`-th to the `to`-th eighth of the
        /// set, in `(col, row)` order, but for those whose row is `skip`
        /// mod 3 (`3`: none skipped): what a pass evaluated.
        Unmark(usize, usize, u32),
    }

    fn arb_cell() -> impl Strategy<Value = Cell> {
        (0..COLS.len(), 0..ROWS.len()).prop_map(|(c, r)| Cell::new(COLS[c], ROWS[r]))
    }

    fn arb_range() -> impl Strategy<Value = Range> {
        (arb_cell(), arb_cell()).prop_map(|(a, b)| Range::new(a, b))
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (arb_cell(), 0u8..3, -9i32..9).prop_map(|(c, kind, v)| {
                Op::Set(c, [None, Some("=A1+1"), Some("=SUM(A1:B3)")][kind as usize], v)
            }),
            1 => (0..COLS.len()).prop_map(|c| Op::Fill(COLS[c])),
            2 => arb_range().prop_map(Op::Clear),
            1 => Just(Op::Rebuild),
            2 => (arb_cell(), -9i32..9).prop_map(|(c, v)| Op::StoreResult(c, v)),
            3 => arb_cell().prop_map(Op::Mark),
            2 => arb_range().prop_map(Op::MarkIn),
            2 => (0..COLS.len(), any::<bool>()).prop_map(|(c, both)| Op::MarkStretches(COLS[c], both)),
            3 => (0usize..9, 0usize..9, 0u32..4)
                .prop_map(|(a, b, skip)| Op::Unmark(a.min(b), a.max(b), skip)),
        ]
    }

    /// The stretches [`Op::MarkStretches`] marks, in the order it does.
    fn stretches(col: u32, both_ends: bool) -> Vec<Range> {
        let mut all: Vec<Range> = ROWS
            .windows(2)
            .step_by(2)
            .map(|w| Range::from_coords(col, w[0], col, w[1]))
            .rev()
            .collect();
        if both_ends {
            let n = all.len();
            all = (0..n).map(|i| all[if i % 2 == 0 { n - 1 - i / 2 } else { i / 2 }]).collect();
        }
        all
    }

    fn content(cell: Cell, formula: Option<&str>, v: i32) -> CellContent {
        let value = Value::Number(f64::from(v));
        match formula {
            None => CellContent::pure(value),
            Some(src) => {
                let run = Run::new(Template::parse(src).unwrap(), cell, &Default::default());
                CellContent::formula_cell(run, value)
            }
        }
    }

    #[derive(Default)]
    struct Model {
        cells: BTreeMap<Cell, CellContent>,
        dirty: BTreeSet<Cell>,
    }

    fn apply(op: &Op, store: &mut CellStore, model: &mut Model) {
        match *op {
            Op::Set(cell, formula, v) => {
                let old = store.insert(cell, content(cell, formula, v), 1);
                assert_eq!(old, model.cells.insert(cell, content(cell, formula, v)));
                if formula.is_none() {
                    model.dirty.remove(&cell);
                }
            }
            Op::Fill(col) => {
                let run = Run::new(
                    Template::parse("=A1+1").unwrap(),
                    Cell::new(col, 1),
                    &Default::default(),
                );
                for &row in &ROWS {
                    let cell = Cell::new(col, row);
                    let content = CellContent::formula_cell(Arc::clone(&run), Value::Empty);
                    store.insert(cell, content.clone(), 1);
                    model.cells.insert(cell, content);
                }
            }
            Op::Clear(range) => {
                store.remove_range(range, 1);
                model.cells.retain(|c, _| !range.contains_cell(*c));
                model.dirty.retain(|c| !range.contains_cell(*c));
            }
            // What a structural edit does: take everything, put it back.
            Op::Rebuild => {
                let old = std::mem::take(store);
                let dirty: Vec<Cell> = old.dirty().collect();
                for (cell, content) in old.into_cells() {
                    assert_eq!(store.insert(cell, content, 1), None);
                }
                store.mark_cells_dirty(&dirty);
            }
            Op::StoreResult(cell, v) => {
                let value = Value::Number(f64::from(v));
                store.store_result(&mut Cursor::default(), cell, value.clone(), 1);
                if let Some(slot) = model.cells.get_mut(&cell).filter(|c| c.is_formula()) {
                    slot.value = value;
                }
            }
            Op::Mark(cell) => {
                store.mark_cells_dirty(&[cell]);
                if model.cells.get(&cell).is_some_and(CellContent::is_formula) {
                    model.dirty.insert(cell);
                }
            }
            Op::MarkIn(range) => mark_in(range, store, model),
            Op::MarkStretches(col, both_ends) => {
                for range in stretches(col, both_ends) {
                    mark_in(range, store, model);
                }
            }
            Op::Unmark(from, to, skip) => {
                let dirty: Vec<Cell> = model.dirty.iter().copied().collect();
                let slice = &dirty[dirty.len() * from / 8..dirty.len() * to / 8];
                let cells: Vec<Cell> =
                    slice.iter().copied().filter(|c| skip == 3 || c.row % 3 != skip).collect();
                store.unmark(&cells);
                model.dirty.retain(|c| !cells.contains(c));
            }
        }
    }

    fn mark_in(range: Range, store: &mut CellStore, model: &mut Model) {
        store.mark_formulas_dirty_in(range);
        let formulas = model.cells.iter().filter(|(_, k)| k.is_formula());
        model.dirty.extend(formulas.map(|(c, _)| *c).filter(|c| range.contains_cell(*c)));
    }

    /// What `fold_range` hands over, up to `stop_after` values.
    fn scanned(store: &CellStore, range: Range, stop_after: usize) -> Vec<Value> {
        let flow = store.fold_range(range, Vec::new(), &mut |mut out, v| {
            out.push(v.clone());
            if out.len() == stop_after {
                ControlFlow::Break(out)
            } else {
                ControlFlow::Continue(out)
            }
        });
        match flow {
            ControlFlow::Break(out) => out,
            ControlFlow::Continue(out) => {
                assert!(out.len() < stop_after);
                out
            }
        }
    }

    fn check(store: &CellStore, model: &Model) {
        assert_eq!(store.len(), model.cells.len());
        assert_eq!(store.formulas(), model.cells.values().filter(|k| k.is_formula()).count());
        let listed: Vec<(Cell, CellContent)> = store.iter().map(|(c, k)| (c, k.clone())).collect();
        let want: Vec<(Cell, CellContent)> =
            model.cells.iter().map(|(c, k)| (*c, k.clone())).collect();
        assert_eq!(listed, want, "iteration is every cell in (col, row) order");
        // The dirty set is canonical — per column, ascending intervals
        // that neither overlap nor touch, over formula cells only — and
        // is the model's set, counted.
        let mut covered = Vec::new();
        for column in &store.cols {
            let mut above: Option<u32> = None;
            for (&lo, &hi) in &column.dirty.0 {
                assert!(lo <= hi && above.is_none_or(|end| end + 1 < lo), "{:?}", column.dirty.0);
                above = Some(hi);
                covered.extend((lo..=hi).map(|row| Cell::new(column.col, row)));
            }
        }
        let want: Vec<Cell> = model.dirty.iter().copied().collect();
        assert_eq!(covered, want, "the dirty set");
        assert!(want.iter().all(|c| model.cells[c].is_formula()), "only a formula is dirty");
        assert_eq!(store.dirty_count(), want.len());
        assert_eq!(store.dirty().collect::<Vec<_>>(), want);
        let (mut view, mut joins) = (vec![Cell::new(9, 9)], Vec::new());
        store.read_dirty(&mut view, &mut joins);
        assert_eq!(view, want, "the pass's view");
        for (i, &join) in joins.iter().enumerate() {
            let run = |c: Cell| store.get(c).and_then(|k| k.run.as_ref()).map(Arc::as_ptr);
            let below =
                i > 0 && view[i - 1].col == view[i].col && view[i - 1].row + 1 == view[i].row;
            assert_eq!(join, below && run(view[i - 1]) == run(view[i]), "{}", view[i]);
        }
        // One cursor down every column and on to the next, through pages
        // allocated and not.
        let mut cursor = Cursor::default();
        for &col in &COLS {
            for &row in &ROWS {
                let cell = Cell::new(col, row);
                assert_eq!(store.get(cell), model.cells.get(&cell), "{cell}");
                let run = store.get(cell).and_then(|k| k.run.as_ref());
                assert_eq!(store.run_through(&mut cursor, cell), run, "{cell}");
            }
        }
        // Memory is the pages that hold a cell, exactly.
        let pages: BTreeSet<(u32, u32)> =
            model.cells.keys().map(|c| (c.col, page_of(c.row))).collect();
        assert_eq!(store.slot_capacity(), pages.len() * PAGE_ROWS as usize);
        // Single-column, multi-column, page-straddling, blank and
        // beyond-the-data ranges read as their cells do one by one.
        for range in [
            Range::from_coords(1, 1, 1, 3),
            Range::from_coords(2, 250, 2, 520),
            Range::from_coords(1, 1, 5, 3),
            Range::from_coords(1, 254, 3, 258),
            Range::from_coords(2, 500, 6, 701),
            Range::from_coords(4, 1, 4, 300),
            Range::from_coords(7, 9, 9, 12),
            Range::from_coords(5, MAX_ROW - 300, 5, MAX_ROW),
            Range::from_coords(MAX_COL - 1, MAX_ROW - 2, MAX_COL, MAX_ROW),
            Range::from_coords(1, 3000, 3, 3100),
        ] {
            let want: Vec<Value> = range.cells().map(|c| store.value(c).clone()).collect();
            let blank_or_stored = range
                .cells()
                .zip(&want)
                .all(|(c, v)| *v == model.cells.get(&c).map_or(Value::Empty, |k| k.value.clone()));
            assert!(blank_or_stored, "{range}");
            assert_eq!(scanned(store, range, usize::MAX), want, "{range}");
            assert_eq!(scanned(store, range, 7), want[..7.min(want.len())], "{range}, stopped");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_store_is_a_map_and_a_set(ops in prop::collection::vec(arb_op(), 1..60)) {
            let (mut store, mut model) = (CellStore::default(), Model::default());
            for op in &ops {
                apply(op, &mut store, &mut model);
                check(&store, &model);
            }
        }
    }

    #[test]
    fn intervals_merge_what_touches_and_split_around_what_goes() {
        let mut set = Intervals::default();
        // Every other row, bottom-up: nothing touches, each is an interval.
        for row in (1..=20_000u32).rev().filter(|row| row % 2 == 1) {
            assert_eq!(set.insert(row, row), 1);
        }
        assert_eq!(set.0.len(), 10_000);
        // The rows between, from both ends inwards: each joins two into one.
        let evens: Vec<u32> = (1..10_000).map(|k| 2 * k).collect();
        let n = evens.len();
        for i in 0..n {
            let row = evens[if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 }];
            assert_eq!(set.insert(row, row), 1, "{row}");
        }
        assert_eq!(set.0, BTreeMap::from([(1, 19_999)]));
        assert_eq!(set.insert(5, 30_000), 10_001);
        // A cut from the middle, then across the cut and past the end.
        assert_eq!(set.remove(100, 199), 100);
        assert_eq!(set.remove(150, 250), 51);
        assert_eq!(set.remove(20_000, 40_000), 10_001);
        assert_eq!(set.0, BTreeMap::from([(1, 99), (251, 19_999)]));
        assert_eq!(set.insert(90, 300), 151);
        assert_eq!(set.remove(1, u32::MAX), 19_999);
        assert!(set.0.is_empty());
    }

    /// Every write so far as `(row, clock)`: the latest at `row` or above.
    fn latest_through(log: &[(u32, u64)], row: u32) -> u64 {
        log.iter().filter(|w| w.0 <= row).map(|w| w.1).max().unwrap_or(0)
    }

    proptest! {
        #[test]
        fn write_steps_never_predate_a_write_and_stay_exact_behind_a_descending_front(
            rows in prop::collection::vec(1u32..40, 1..80),
        ) {
            let (mut writes, mut log) = (Writes::default(), Vec::new());
            for (i, &row) in rows.iter().enumerate() {
                let at = i as u64 + 1;
                writes.stamp(row, at);
                log.push((row, at));
                for probe in 0..42 {
                    let (got, true_latest) = (writes.through(probe), latest_through(&log, probe));
                    prop_assert!(got >= true_latest && got <= at, "row {probe} after {log:?}");
                    // At and below the row just written nothing is newer.
                    prop_assert!(probe < row || got == at);
                }
            }
        }
    }

    #[test]
    fn a_column_written_top_down_knows_exactly_what_is_above_each_row() {
        // What a recalculation pass does to a formula column, however long:
        // asked about rows ..=r right after row r + 1 was written, the
        // answer is the clock of row r's write, not the column's latest.
        let mut writes = Writes::default();
        for row in 1..=5_000u32 {
            writes.stamp(row, u64::from(row) + 100);
            assert_eq!(writes.through(row), u64::from(row) + 100);
            if row > 1 {
                assert_eq!(writes.through(row - 1), u64::from(row) + 99);
            }
            assert!(writes.len <= WRITE_STEPS);
        }
        assert_eq!(writes.through(0), 0);
        // A write back at the top is above everything.
        writes.stamp(1, 9_999);
        assert_eq!((writes.through(1), writes.through(5_000), writes.len), (9_999, 9_999, 1));
    }

    #[test]
    fn a_slot_is_forty_bytes() {
        assert!(std::mem::size_of::<Slot>() <= 40, "{}", std::mem::size_of::<Slot>());
    }
}
