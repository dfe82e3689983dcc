use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taco_formula::template::At;
use taco_formula::{Template, Value};
use taco_grid::a1::SheetRef;
use taco_grid::{Cell, Range};

/// The formula a run of cells shares: one [`Template`], written at
/// `anchor`. The cell at `anchor + (dc, dr)` holds the template moved by
/// `(dc, dr)` — what autofilling the anchor's formula there builds — so a
/// filled column is one `Run` however long it is, and a lone formula is a
/// run of one. A cell says nothing about its offset: where it sits says
/// it, which is why a cell that moves (a structural edit) takes a new run.
///
/// `repr(C)`: the anchor, then the template's program, at the head of the
/// allocation — what evaluating a node reads of its run.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Run {
    anchor: Cell,
    template: Template,
    /// The owning engine's count of runs alive; this one is counted from
    /// [`Run::new`] until it drops.
    alive: Arc<AtomicUsize>,
}

impl Run {
    pub(crate) fn new(template: Template, anchor: Cell, alive: &Arc<AtomicUsize>) -> Arc<Run> {
        // A statistic: nothing is published through it.
        alive.fetch_add(1, Ordering::Relaxed);
        Arc::new(Run { template, anchor, alive: Arc::clone(alive) })
    }

    /// How far the run's cell at `cell` is from its anchor, `(dc, dr)`.
    pub(crate) fn offset(&self, cell: Cell) -> (i64, i64) {
        (
            i64::from(cell.col) - i64::from(self.anchor.col),
            i64::from(cell.row) - i64::from(self.anchor.row),
        )
    }

    /// The formula of the run's cell at `cell`.
    pub(crate) fn at(&self, cell: Cell) -> At<'_> {
        let (dc, dr) = self.offset(cell);
        self.template.at(dc, dr)
    }

    /// What the run's cells in rows `first..=last` of column `col` read,
    /// per reference: see [`Template::reads_at_ends`].
    pub(crate) fn reads_at_ends(
        &self,
        col: u32,
        first: u32,
        last: u32,
    ) -> impl Iterator<Item = (Option<&SheetRef>, Option<Range>, Option<Range>)> + '_ {
        let dr = |row: u32| i64::from(row) - i64::from(self.anchor.row);
        let dc = i64::from(col) - i64::from(self.anchor.col);
        self.template.reads_at_ends(dc, dr(first), dr(last))
    }

    /// The cell the template is written at (test instrumentation).
    #[cfg(test)]
    pub(crate) fn anchor(&self) -> Cell {
        self.anchor
    }

    /// The formula as written at the anchor.
    pub(crate) fn template(&self) -> &Template {
        &self.template
    }
}

/// The same formula at every cell (whichever engine counts them).
impl PartialEq for Run {
    fn eq(&self, other: &Run) -> bool {
        self.anchor == other.anchor && self.template == other.template
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        self.alive.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a cell holds: a pure value, or a formula plus its last evaluated
/// value (the paper's "pure value" vs "formula cell / evaluated value").
///
/// The value sits inline and the formula behind a pointer — to the run
/// the cell is part of — so the cell store's range scans step over
/// 32-byte contents whatever a cell holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CellContent {
    pub(crate) value: Value,
    pub(crate) run: Option<Arc<Run>>,
}

impl CellContent {
    /// A pure (typed constant) value.
    pub fn pure(value: Value) -> Self {
        CellContent { value, run: None }
    }

    /// A cell of `run` and the result of its most recent evaluation
    /// (`Value::Empty` before the first one).
    pub(crate) fn formula_cell(run: Arc<Run>, value: Value) -> Self {
        CellContent { value, run: Some(run) }
    }

    /// The current user-visible value of the cell.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// `true` iff this is a formula cell.
    pub fn is_formula(&self) -> bool {
        self.run.is_some()
    }

    /// The formula, if this is a formula cell, given the `cell` the
    /// content was read at; displays as the formula's text (no leading
    /// `=`).
    pub fn formula(&self, cell: Cell) -> Option<At<'_>> {
        self.run.as_deref().map(|run| run.at(cell))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = CellContent::pure(Value::Number(4.0));
        assert_eq!(p.value(), &Value::Number(4.0));
        assert!(!p.is_formula() && p.formula(Cell::new(1, 1)).is_none());

        let alive = Arc::new(AtomicUsize::new(0));
        let run = Run::new(Template::parse("=A1+1").unwrap(), Cell::new(2, 1), &alive);
        let f = CellContent::formula_cell(Arc::clone(&run), Value::Empty);
        assert_eq!(f.value(), &Value::Empty);
        assert_eq!(f.formula(Cell::new(2, 1)).unwrap().to_string(), "A1+1");
        assert_eq!(f.formula(Cell::new(2, 4)).unwrap().to_string(), "A4+1");
        let below = run.at(Cell::new(2, 4));
        assert!(below.reads_as("A4+1") && !below.reads_as("A5+1"));
        assert_eq!(alive.load(Ordering::Relaxed), 1);
        drop((f, run));
        assert_eq!(alive.load(Ordering::Relaxed), 0);
    }
}
