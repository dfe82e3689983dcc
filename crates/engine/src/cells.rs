//! The sheet's cell store: dense, paged columns.
//!
//! ```text
//! CellStore
//!   cols: [Column]              sorted by col, one per column ever written,
//!                               with when its rows were last written
//!     pages: [Page]             sorted by index, one per PAGE_ROWS-row band
//!                               that holds a cell, with when it was last
//!                               written; allocated on first write
//!       formulas: [u64; 4]      bit k set iff slot k holds a formula: what
//!                               marking reads, never the slots
//!       starts: [u64; 4]        bit k set iff slot k's formula does not go
//!                               on from the row above's run: where a pass's
//!                               stretches begin, never the slots
//!       slots: [Slot; 256]
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
//!
//! A copy of the values for readers on other threads, [`SheetValues`], is
//! made page by page ([`CellStore::publish`]): each page records the write
//! clock of its latest value write, so a copy made from the one before it
//! shares every page nothing was written to since and copies the rest.

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

/// What a page that was never allocated reads as.
static VACANT_PAGE: [Slot; PAGE_ROWS as usize] = [const { Slot::VACANT }; PAGE_ROWS as usize];

/// Words of a page's formula bits.
const WORDS: usize = PAGE_ROWS as usize / 64;

/// One bit per slot of a page: bit `k % 64` of word `k / 64` is slot `k`'s.
type Bits = [u64; WORDS];

fn set_bit(bits: &mut Bits, at: usize, on: bool) {
    let (word, bit) = (&mut bits[at / 64], 1 << (at % 64));
    *word = if on { *word | bit } else { *word & !bit };
}

/// The first slot at or after `from` whose bit is `set` ([`PAGE_ROWS`]:
/// none): a masked word, then whole words.
fn next_bit(bits: &Bits, from: usize, set: bool) -> usize {
    let word = |k: usize| if set { bits[k] } else { !bits[k] };
    let (mut k, mut found) = (from / 64, word(from / 64) & (!0u64 << (from % 64)));
    while found == 0 {
        k += 1;
        if k == WORDS {
            return PAGE_ROWS as usize;
        }
        found = word(k);
    }
    k * 64 + found.trailing_zeros() as usize
}

struct Page {
    /// Which band of rows: row `r` lives in page `(r - 1) / PAGE_ROWS`.
    index: u32,
    /// Occupied slots; the page is dropped when this reaches zero.
    used: u32,
    /// The write clock of the page's latest value write: a copy made at
    /// that clock or later holds what the page holds.
    written: u64,
    /// Set iff the slot holds a formula. Kept by the two writes that can
    /// change it, `insert` and `remove_range`; a result stored or a run
    /// repointed leaves a formula a formula.
    formulas: Bits,
    /// Set iff the slot holds a formula that does not go on from the row
    /// above: that row holds no formula (row 1, and a row of a page not
    /// allocated, hold none) or one of another run. Where a run's
    /// stretches begin, read off without a slot (see
    /// [`CellStore::read_stretches`]). Kept by the writes that change a
    /// slot's formula or run, `insert`, `repoint` and `remove_range`, at
    /// the row written and the row below it ([`Column::restart`]).
    starts: Bits,
    slots: Box<[Slot]>,
}

impl Page {
    fn new(index: u32, at: u64) -> Page {
        let slots = (0..PAGE_ROWS).map(|_| Slot::VACANT).collect();
        Page { index, used: 0, written: at, formulas: [0; WORDS], starts: [0; WORDS], slots }
    }

    /// Whether slot `at` holds a formula.
    fn is_formula(&self, at: usize) -> bool {
        self.formulas[at / 64] >> (at % 64) & 1 == 1
    }

    /// Clears the formula and start bits of slots `lo..=hi`; returns how
    /// many formula bits were set.
    fn take_formulas(&mut self, lo: usize, hi: usize) -> usize {
        let mut taken = 0;
        for k in lo / 64..=hi / 64 {
            let (from, to) = (lo.max(k * 64) - k * 64, hi.min(k * 64 + 63) - k * 64);
            let mask = (!0u64 >> (63 - to)) & (!0u64 << from);
            taken += (self.formulas[k] & mask).count_ones() as usize;
            self.formulas[k] &= !mask;
            self.starts[k] &= !mask;
        }
        taken
    }

    /// The stretches of formula slots among slots `lo..=hi`, top down, as
    /// `(first, last)`: read off the bits alone.
    fn formula_stretches(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut at = lo;
        std::iter::from_fn(move || {
            if at > hi {
                return None;
            }
            let first = next_bit(&self.formulas, at, true);
            (first <= hi).then(|| {
                at = next_bit(&self.formulas, first, false);
                (first, hi.min(at - 1))
            })
        })
    }

    /// The row and content of the page's last cell in its first `end`
    /// slots.
    fn last_above(&self, end: usize) -> Option<(u32, &CellContent)> {
        let at = self.slots[..end].iter().rposition(|s| s.occupied)?;
        Some((self.index * PAGE_ROWS + 1 + at as u32, &self.slots[at].content))
    }
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
/// with the first and last of its slots inside them.
fn overlapping(
    pages: &[Page],
    first: u32,
    last: u32,
) -> impl Iterator<Item = (&Page, usize, usize)> {
    let from = pages.partition_point(|p| p.index < page_of(first));
    pages[from..].iter().take_while(move |p| p.index <= page_of(last)).map(move |page| {
        let start = first.max(page.index * PAGE_ROWS + 1);
        (page, slot_of(start), slot_of(page_end(page.index, last)))
    })
}

/// Rows `(lo, hi)`, ascending and disjoint, with each that the next one
/// continues joined to it: a stretch of formula cells that ends one page
/// and the one that starts the next are one.
fn joined(mut rows: impl Iterator<Item = (u32, u32)>) -> impl Iterator<Item = (u32, u32)> {
    let mut open = rows.next();
    std::iter::from_fn(move || {
        let (lo, mut hi) = open?;
        loop {
            match rows.next() {
                Some((next, end)) if hi + 1 == next => hi = end,
                next => {
                    open = next;
                    return Some((lo, hi));
                }
            }
        }
    })
}

/// The allocated pages among `pages` overlapping rows `first..=last`, each
/// as the row of its span's first slot and the span.
fn spans(pages: &[Page], first: u32, last: u32) -> impl Iterator<Item = (u32, &[Slot])> {
    overlapping(pages, first, last)
        .map(|(page, lo, hi)| (page.index * PAGE_ROWS + 1 + lo as u32, &page.slots[lo..=hi]))
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

/// Whether the formula at row `first` goes on from the one at row `up`
/// above it down one run, each row given with the position of its page
/// in `pages`: the same run, and no cell between. A page between the two
/// holds one, so only the two pages' slots are read.
fn continues(pages: &[Page], (up, above): (u32, usize), (first, below): (u32, usize)) -> bool {
    let run =
        |p: usize, row: u32| pages[p].slots[slot_of(row)].content.run.as_ref().map(Arc::as_ptr);
    let free =
        |p: usize, from: usize, to: usize| !pages[p].slots[from..to].iter().any(|s| s.occupied);
    run(above, up) == run(below, first)
        && if above == below {
            free(above, slot_of(up) + 1, slot_of(first))
        } else {
            above + 1 == below
                && free(above, slot_of(up) + 1, PAGE_ROWS as usize)
                && free(below, 0, slot_of(first))
        }
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

    /// Sets [`Page::starts`] at `row` from what it and the row above hold.
    fn restart(&mut self, row: u32) {
        let Ok(j) = locate(&self.pages, page_of(row), 0, |p| p.index) else { return };
        let run = |slot: &Slot| slot.content.run.as_ref().map(Arc::as_ptr);
        let (page, at) = (&self.pages[j], slot_of(row));
        let above = match at.checked_sub(1) {
            Some(up) => run(&page.slots[up]),
            None => j
                .checked_sub(1)
                .map(|i| &self.pages[i])
                .filter(|up| up.index + 1 == page.index)
                .and_then(|up| run(&up.slots[PAGE_ROWS as usize - 1])),
        };
        let here = run(&page.slots[at]);
        set_bit(&mut self.pages[j].starts, at, here.is_some() && here != above);
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
    /// Intervals put in a column's dirty set so far (test
    /// instrumentation: marking what a batch wrote puts each interval in
    /// once).
    #[cfg(test)]
    pub(crate) dirty_inserts: std::cell::Cell<u64>,
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

    /// The nearest cell above `cell` in its column that holds something,
    /// and what it holds: a look at `cell`'s own page, then at the
    /// allocated page before it — which holds a cell, since a page goes
    /// with its last one. Two pages at most, however far up the cell is.
    pub(crate) fn occupied_above(&self, cell: Cell) -> Option<(Cell, &CellContent)> {
        let pages = &self.column(cell.col)?.pages;
        let before = match locate(pages, page_of(cell.row), 0, |p| p.index) {
            Ok(j) => match pages[j].last_above(slot_of(cell.row)) {
                Some((row, content)) => return Some((Cell { col: cell.col, row }, content)),
                None => j,
            },
            Err(j) => j,
        };
        let (row, content) = pages[..before].last()?.last_above(PAGE_ROWS as usize)?;
        Some((Cell { col: cell.col, row }, content))
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
        let page = &mut column.pages[j];
        let content = &mut page.slots[slot_of(cell.row)].content;
        if content.run.is_some() {
            content.value = value;
            page.written = at;
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
                pages.insert(j, Page::new(index, at));
                j
            }
        };
        let page = &mut pages[j];
        page.written = at;
        set_bit(&mut page.formulas, slot_of(cell.row), content.run.is_some());
        let slot = &mut page.slots[slot_of(cell.row)];
        let formula = content.run.is_some();
        self.formulas += usize::from(formula);
        let old = std::mem::replace(&mut slot.content, content);
        let old = if slot.occupied {
            self.formulas -= usize::from(old.run.is_some());
            Some(old)
        } else {
            slot.occupied = true;
            page.used += 1;
            self.len += 1;
            None
        };
        if formula || old.as_ref().is_some_and(CellContent::is_formula) {
            column.restart(cell.row);
            column.restart(cell.row + 1);
        }
        old
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
        self.cols[i].restart(cell.row);
        self.cols[i].restart(cell.row + 1);
    }

    /// Blanks every cell of `range` at write clock `at`, dirty marks
    /// included: a walk over the allocated pages the range overlaps, each
    /// stamped with `at` if it held a cell there. Column headers stay,
    /// with their clocks.
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
                let (lo, hi) = (slot_of(start), slot_of(page_end(page.index, last)));
                formulas += page.take_formulas(lo, hi);
                let used = page.used;
                for slot in page.slots[lo..=hi].iter_mut().filter(|s| s.occupied) {
                    *slot = Slot::VACANT;
                    page.used -= 1;
                    removed += 1;
                }
                if page.used < used {
                    page.written = at;
                }
                emptied |= page.used == 0;
            }
            if emptied {
                column.pages.retain(|p| p.used > 0);
            }
            column.restart(last + 1);
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

    /// The dirty cells as stretches, in `(col, row)` order: one per
    /// maximal sequence of cells of one run inside a dirty interval, handed
    /// to `each` as `(col, lo, hi, joins)`, where `joins` says whether the
    /// stretch goes on from the one before it down its run — the same
    /// column and run, and only vacant rows between. Every row of a dirty
    /// interval holds a formula (marking reads the formula bits), so a
    /// stretch begins at the interval's first row and at each row below it
    /// whose start bit is set ([`Page::starts`]): the rows inside an
    /// interval are read off the bits, never the slots. The join holds
    /// only across two intervals, and is checked once per pair of them:
    /// two slots compared and the rows between read. Read here, since a
    /// dirty cell can change runs and keep its mark.
    pub(crate) fn read_stretches(&self, mut each: impl FnMut(u32, u32, u32, bool)) {
        for column in &self.cols {
            let pages = &column.pages[..];
            // The page being read: the intervals ascend, so it only moves on.
            let mut p = 0;
            let mut seek = |row: u32| {
                while pages[p].index < page_of(row) {
                    p += 1;
                }
                p
            };
            // The last row of the interval read last, and its page.
            let mut above: Option<(u32, usize)> = None;
            for (&lo, &hi) in &column.dirty.0 {
                let top = (lo, seek(lo));
                let mut joins = above.is_some_and(|up| continues(pages, up, top));
                let (mut first, mut row) = (lo, lo + 1);
                while row <= hi {
                    let page = &pages[seek(row)];
                    let end = page_end(page.index, hi);
                    match next_bit(&page.starts, slot_of(row), true) {
                        at if at <= slot_of(end) => {
                            let at = page.index * PAGE_ROWS + 1 + at as u32;
                            each(column.col, first, at - 1, joins);
                            (first, joins, row) = (at, false, at + 1);
                        }
                        _ => row = end + 1,
                    }
                }
                each(column.col, first, hi, joins);
                above = Some((hi, seek(hi)));
            }
        }
    }

    /// Marks the formula cells among `cells` dirty: one column and page
    /// lookup each, and a test of the cell's formula bit.
    pub(crate) fn mark_cells_dirty(&mut self, cells: &[Cell]) {
        for &cell in cells {
            let Ok(i) = locate(&self.cols, cell.col, 1, |c| c.col) else { continue };
            let column = &mut self.cols[i];
            if column.page(page_of(cell.row)).is_some_and(|p| p.is_formula(slot_of(cell.row))) {
                self.dirty += column.dirty.insert(cell.row, cell.row);
                #[cfg(test)]
                self.dirty_inserts.set(self.dirty_inserts.get() + 1);
            }
        }
    }

    /// Marks every formula cell inside `range` dirty: a walk over the
    /// allocated pages it overlaps, each page's stretches of formula cells,
    /// read off its formula bits, added whole — one stretch of rows that
    /// crosses pages as one interval. No slot is read.
    pub(crate) fn mark_formulas_dirty_in(&mut self, range: Range) {
        let (first, last) = (range.head().row, range.tail().row);
        let columns = self.columns_in(range);
        for column in &mut self.cols[columns] {
            let stretches = overlapping(&column.pages, first, last).flat_map(|(page, lo, hi)| {
                let row = page.index * PAGE_ROWS + 1;
                page.formula_stretches(lo, hi).map(move |(t, b)| (row + t as u32, row + b as u32))
            });
            for (lo, hi) in joined(stretches) {
                self.dirty += column.dirty.insert(lo, hi);
                #[cfg(test)]
                self.dirty_inserts.set(self.dirty_inserts.get() + 1);
            }
        }
    }

    /// Unmarks rows `lo..=hi` of column `col` for each `(col, lo, hi)` of
    /// `extents`: what a pass evaluated, `cells` dirty cells in all, with
    /// only vacant rows between them inside an extent. One interval
    /// removal an extent, or all of the set at once.
    pub(crate) fn unmark(&mut self, cells: usize, extents: impl Iterator<Item = (u32, u32, u32)>) {
        if cells == self.dirty {
            self.cols.iter_mut().for_each(|column| column.dirty.0.clear());
            self.dirty = 0;
            return;
        }
        let mut removed = 0;
        for (col, lo, hi) in extents {
            let i = locate(&self.cols, col, 1, |c| c.col).expect("a dirty cell's column");
            removed += self.cols[i].dirty.remove(lo, hi);
        }
        debug_assert_eq!(removed, cells, "unmarked cells were dirty");
        self.dirty -= removed;
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

    // ---- publication ------------------------------------------------------

    /// A copy of the values, made at write clock `at` from `prev`, an
    /// earlier copy of this store: each page stamped no later than `prev`
    /// was made is `prev`'s, shared, and each other page is copied.
    /// Returns the copy and the pages copied.
    pub(crate) fn publish(&self, prev: Option<&SheetValues>, at: u64) -> (SheetValues, usize) {
        let made = prev.map_or(0, |p| p.at);
        let mut known = prev.map_or(&[][..], |p| &p.pages).iter().peekable();
        let mut pages = Vec::with_capacity(prev.map_or(0, |p| p.pages.len()) + 1);
        let mut copied = 0;
        for column in &self.cols {
            for page in &column.pages {
                let key = (column.col, page.index);
                while known.next_if(|(k, _)| *k < key).is_some() {}
                let shared = known.next_if(|(k, _)| *k == key).filter(|_| page.written <= made);
                let values = shared.map_or_else(
                    || {
                        copied += 1;
                        page.slots
                            .iter()
                            .map(|s| s.occupied.then(|| s.content.value.clone()))
                            .collect()
                    },
                    |(_, values)| Arc::clone(values),
                );
                pages.push((key, values));
            }
        }
        (SheetValues { at, pages, len: self.len }, copied)
    }
}

/// One page's values as published: slot `i` holds row
/// `index * PAGE_ROWS + 1 + i`, `None` where the page holds no cell.
type PageValues = Arc<[Option<Value>]>;

/// A sheet's cell values at one moment, for readers on other threads:
/// the cell store's pages, copied, each behind an `Arc` that the next
/// copy shares if nothing was written to the page in between (see
/// `Engine::publish`). Reads go in `(row, col)` order.
pub struct SheetValues {
    /// The write clock the copy was made at.
    at: u64,
    /// `((col, page index), values)`, ascending.
    pages: Vec<((u32, u32), PageValues)>,
    /// Cells held.
    len: usize,
}

impl SheetValues {
    /// Number of cells held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no cell is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// What `cell` holds, `None` when blank: one binary search.
    pub fn get(&self, cell: Cell) -> Option<&Value> {
        let at = self.pages.binary_search_by_key(&(cell.col, page_of(cell.row)), |p| p.0).ok()?;
        self.pages[at].1[slot_of(cell.row)].as_ref()
    }

    /// Visits every cell of `range` that holds something, in `(row, col)`
    /// order: per band of page rows, the pages of the range's columns
    /// that hold one, stepped across row by row.
    pub fn for_each_in(&self, range: Range, mut visit: impl FnMut(Cell, &Value)) {
        let (head, tail) = (range.head(), range.tail());
        let (top, bottom) = (page_of(head.row), page_of(tail.row));
        let from = self.pages.partition_point(|p| p.0 < (head.col, 0));
        let to = self.pages.partition_point(|p| p.0 .0 <= tail.col);
        // Each column's pages the rows overlap, the first of each taken
        // off once its band is read.
        let mut rest: Vec<&[((u32, u32), PageValues)]> = self.pages[from..to]
            .chunk_by(|a, b| a.0 .0 == b.0 .0)
            .map(|col| &col[col.partition_point(|p| p.0 .1 < top)..])
            .map(|col| &col[..col.partition_point(|p| p.0 .1 <= bottom)])
            .collect();
        while let Some(index) = rest.iter().filter_map(|pages| Some(pages.first()?.0 .1)).min() {
            for row in head.row.max(index * PAGE_ROWS + 1)..=page_end(index, tail.row) {
                for pages in &rest {
                    let Some(((col, _), values)) = pages.first().filter(|p| p.0 .1 == index) else {
                        continue;
                    };
                    if let Some(value) = &values[slot_of(row)] {
                        visit(Cell { col: *col, row }, value);
                    }
                }
            }
            for pages in &mut rest {
                if pages.first().is_some_and(|p| p.0 .1 == index) {
                    *pages = &pages[1..];
                }
            }
        }
    }

    /// Every page held, by its first cell (tests of what a copy shares).
    #[doc(hidden)]
    pub fn pages(&self) -> impl Iterator<Item = (Cell, &PageValues)> {
        let first = |(col, index): (u32, u32)| Cell { col, row: index * PAGE_ROWS + 1 };
        self.pages.iter().map(move |(key, values)| (first(*key), values))
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
    /// Page edges, and the edges of a page's formula-bit words.
    #[rustfmt::skip]
    const ROWS: [u32; 21] = [
        1, 2, 3, 63, 64, 65, 128, 129, 192, 193, 255, 256, 257, 258, 511, 512, 513, 700,
        MAX_ROW - 256, MAX_ROW - 1, MAX_ROW,
    ];

    #[derive(Debug, Clone)]
    enum Op {
        /// A pure value (`None`) or a formula; a pure value written over a
        /// dirty formula takes its mark off.
        Set(Cell, Option<&'static str>, i32),
        /// A formula at every row of `ROWS` in a column, one run: cells
        /// that join, next to each other or across vacant rows.
        Fill(u32),
        Clear(Range),
        Rebuild,
        StoreResult(Cell, i32),
        Mark(Cell),
        MarkIn(Range),
        /// The formula at a cell made a cell of a run of its own that holds
        /// the same formula there: the run pointer changes, nothing else.
        Repoint(Cell),
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
            2 => arb_cell().prop_map(Op::Repoint),
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

    fn apply(op: &Op, store: &mut CellStore, model: &mut Model, at: u64) {
        match *op {
            Op::Set(cell, formula, v) => {
                let old = store.insert(cell, content(cell, formula, v), at);
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
                    store.insert(cell, content.clone(), at);
                    model.cells.insert(cell, content);
                }
            }
            Op::Clear(range) => {
                store.remove_range(range, at);
                model.cells.retain(|c, _| !range.contains_cell(*c));
                model.dirty.retain(|c| !range.contains_cell(*c));
            }
            // What a structural edit does: take everything, put it back.
            Op::Rebuild => {
                let old = std::mem::take(store);
                let dirty: Vec<Cell> = old.dirty().collect();
                for (cell, content) in old.into_cells() {
                    assert_eq!(store.insert(cell, content, at), None);
                }
                store.mark_cells_dirty(&dirty);
            }
            Op::StoreResult(cell, v) => {
                let value = Value::Number(f64::from(v));
                store.store_result(&mut Cursor::default(), cell, value.clone(), at);
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
            Op::Repoint(cell) => {
                if let Some(run) = store.get(cell).and_then(|k| k.run.clone()) {
                    let alone = Run::new(run.template().clone(), run.anchor(), &Default::default());
                    store.repoint(cell, alone);
                }
            }
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
                let extents = cells.chunk_by(|a, b| a.col == b.col && a.row + 1 == b.row);
                store
                    .unmark(cells.len(), extents.map(|s| (s[0].col, s[0].row, s[s.len() - 1].row)));
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
        // Every dirty row holds a formula by the page's bits, which is all
        // the stretch scan below trusts.
        for column in &store.cols {
            for (&lo, &hi) in &column.dirty.0 {
                for row in lo..=hi {
                    let page = column.page(page_of(row));
                    assert!(page.is_some_and(|p| p.is_formula(slot_of(row))), "dirty row {row}");
                }
            }
        }
        // The stretches: the dirty set, each a maximal sequence of one
        // run's cells, joining the stretch before it iff both are of one
        // column and one run and the model holds no cell between them.
        let mut read = Vec::new();
        store.read_stretches(|col, lo, hi, joins| read.push((col, lo, hi, joins)));
        let rows =
            read.iter().flat_map(|&(col, lo, hi, _)| (lo..=hi).map(move |r| Cell::new(col, r)));
        assert_eq!(rows.collect::<Vec<_>>(), want, "the stretches");
        let run = |c: Cell| store.get(c).and_then(|k| k.run.as_ref()).map(Arc::as_ptr);
        for (k, &(col, lo, hi, joins)) in read.iter().enumerate() {
            let top = Cell::new(col, lo);
            assert!((lo..=hi).all(|row| run(Cell::new(col, row)) == run(top)), "one run: {top}");
            let Some(&(up_col, _, up_hi, _)) = k.checked_sub(1).map(|k| &read[k]) else {
                assert!(!joins, "{top}");
                continue;
            };
            let above = Cell::new(up_col, up_hi);
            let same = up_col == col && run(above) == run(top);
            assert!(!same || up_hi + 1 < lo, "a stretch ends where its run does: {top}");
            let blank = model.cells.range(above..top).nth(1).is_none();
            assert_eq!(joins, same && blank, "{top}");
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
        // The nearest cell above, however far: two page lookups at most.
        for &col in &COLS {
            for &row in &ROWS {
                let cell = Cell::new(col, row);
                let want = model.cells.range(Cell::new(col, 1)..cell).next_back();
                LOOKUPS.with(|n| n.set(0));
                assert_eq!(store.occupied_above(cell), want.map(|(c, k)| (*c, k)), "{cell}");
                assert!(LOOKUPS.with(|n| n.get()) <= 2, "{cell}");
            }
        }
        // Each page's formula bits are the model's formula cells, and its
        // start bits the formula cells whose run is not the one of a
        // formula right above.
        for column in &store.cols {
            for page in &column.pages {
                for at in 0..PAGE_ROWS as usize {
                    let cell = Cell::new(column.col, page.index * PAGE_ROWS + 1 + at as u32);
                    let formula = model.cells.get(&cell).is_some_and(CellContent::is_formula);
                    assert_eq!(page.is_formula(at), formula, "the formula bit of {cell}");
                    let above = (cell.row > 1).then(|| run(Cell::new(cell.col, cell.row - 1)));
                    let starts = formula && above.flatten() != run(cell);
                    assert_eq!(
                        next_bit(&page.starts, at, true) == at,
                        starts,
                        "start bit of {cell}"
                    );
                }
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

    /// The pages, as `(col, page)`, whose values `op` writes to (before it
    /// is applied to `model`).
    fn written(op: &Op, model: &Model) -> BTreeSet<(u32, u32)> {
        let page = |c: &Cell| (c.col, page_of(c.row));
        match *op {
            Op::Set(cell, ..) => BTreeSet::from([page(&cell)]),
            Op::Fill(col) => ROWS.iter().map(|&row| (col, page_of(row))).collect(),
            Op::Clear(range) => {
                model.cells.keys().filter(|c| range.contains_cell(**c)).map(page).collect()
            }
            Op::Rebuild => model.cells.keys().map(page).collect(),
            Op::StoreResult(cell, _) => model
                .cells
                .get(&cell)
                .filter(|k| k.is_formula())
                .map(|_| page(&cell))
                .into_iter()
                .collect(),
            Op::Mark(_)
            | Op::MarkIn(_)
            | Op::MarkStretches(..)
            | Op::Unmark(..)
            | Op::Repoint(_) => BTreeSet::new(),
        }
    }

    /// A publication against the model: the pages that hold a cell, each
    /// slot's value and occupancy, reads in `(row, col)` order, and
    /// exactly the pages of `prev` nothing `wrote` since shared.
    fn check_published(
        next: &SheetValues,
        copied: usize,
        prev: Option<&SheetValues>,
        wrote: &BTreeSet<(u32, u32)>,
        model: &Model,
    ) {
        assert_eq!(next.len(), model.cells.len());
        let known: BTreeMap<Cell, &PageValues> =
            prev.into_iter().flat_map(SheetValues::pages).collect();
        let mut copies = 0;
        let mut pages = BTreeSet::new();
        for (first, values) in next.pages() {
            pages.insert((first.col, page_of(first.row)));
            for (row, value) in (first.row..).zip(values.iter()) {
                let want = model.cells.get(&Cell::new(first.col, row)).map(|k| &k.value);
                assert_eq!(value.as_ref(), want, "{}", Cell::new(first.col, row));
            }
            let untouched = !wrote.contains(&(first.col, page_of(first.row)));
            let shared = known.get(&first).is_some_and(|old| Arc::ptr_eq(old, values));
            assert_eq!(shared, untouched && known.contains_key(&first), "page at {first}");
            copies += usize::from(!shared);
        }
        assert_eq!(copied, copies);
        let held: BTreeSet<(u32, u32)> =
            model.cells.keys().map(|c| (c.col, page_of(c.row))).collect();
        assert_eq!(pages, held, "a page is published iff it holds a cell");
        for &col in &COLS {
            for &row in &ROWS {
                let cell = Cell::new(col, row);
                assert_eq!(next.get(cell), model.cells.get(&cell).map(|k| &k.value), "{cell}");
            }
        }
        for range in [
            Range::from_coords(1, 250, 5, 520),
            Range::from_coords(2, 1, MAX_COL, 700),
            Range::from_coords(1, 1, MAX_COL, MAX_ROW),
        ] {
            let mut read = Vec::new();
            next.for_each_in(range, |cell, value| read.push((cell, value.clone())));
            let mut want: Vec<(Cell, Value)> = model
                .cells
                .iter()
                .filter(|(c, _)| range.contains_cell(**c))
                .map(|(c, k)| (*c, k.value.clone()))
                .collect();
            want.sort_by_key(|(c, _)| (c.row, c.col));
            assert_eq!(read, want, "{range}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn the_store_is_a_map_and_a_set(ops in prop::collection::vec(arb_op(), 1..60)) {
            let (mut store, mut model) = (CellStore::default(), Model::default());
            let mut published: Option<SheetValues> = None;
            for (at, op) in (1..).zip(&ops) {
                let wrote = written(op, &model);
                apply(op, &mut store, &mut model, at);
                check(&store, &model);
                // Published after each op from the copy before it, made
                // at the op's clock.
                let (next, copied) = store.publish(published.as_ref(), at);
                check_published(&next, copied, published.as_ref(), &wrote, &model);
                published = Some(next);
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
