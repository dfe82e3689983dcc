//! The cross-sheet edge table: which formula cells read which ranges of
//! other sheets.
//!
//! A sheet's own dependencies live in its compressed formula graph. A
//! reference qualified with another sheet's name (`Data!A1:A4`) is an
//! edge here instead, `(source sheet, referenced range) → (destination
//! sheet, formula cell)`: one per distinct range a formula reads on
//! another sheet that exists. Dependents and precedents queries, dirty
//! routing and the demand pass run each sheet's compressed query within
//! the sheet and hop through this table between sheets.
//!
//! The table is derived state. Every edge follows from a formula's text
//! and the sheets that exist, so a saved image does not hold it: the open
//! path binds the restored formulas again. One routine,
//! [`EdgeTable::bind`], makes every edge — when an edit writes a formula,
//! when a new sheet resolves references that named it while it was
//! missing, and on open — so the three cannot disagree on what an edge
//! is. The workbook reaches the edges through this module's questions
//! only: the hops out of a range, the reads into a range, the referrers of
//! a sheet, and whether a sheet is read. The recalculation order needs
//! none of them: it follows the formulas' qualified reads itself
//! (`crate::order`).

use crate::sheet::Run;
use std::collections::{BTreeMap, BTreeSet};
use taco_core::StructuralOp;
use taco_grid::{Cell, Range};

/// One inter-sheet dependency: the formula at `dst!dep` reads the range
/// `src!prec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CrossEdge {
    /// Sheet holding the referenced range.
    src: usize,
    /// The referenced range on `src`.
    prec: Range,
    /// Sheet holding the referencing formula.
    dst: usize,
    /// The formula cell on `dst`.
    dep: Cell,
}

/// The inter-sheet edge table, indexed both ways so the hot paths only
/// scan the edges of the sheet at hand: routing walks a source sheet's
/// outgoing edges, precedent queries walk a target sheet's incoming
/// edges. Every edge is stored in both buckets.
#[derive(Default)]
pub(crate) struct EdgeTable {
    by_src: Vec<Vec<CrossEdge>>,
    by_dst: Vec<Vec<CrossEdge>>,
    len: usize,
}

impl EdgeTable {
    /// Grows both indices for a newly added sheet.
    pub(crate) fn add_sheet(&mut self) {
        self.by_src.push(Vec::new());
        self.by_dst.push(Vec::new());
    }

    /// Number of edges.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Binds the reads of the formula `run` holds at `dst!dep` that name
    /// another sheet: one edge per distinct (sheet, range), to `only`'s
    /// ranges alone if given. `index` (lower-cased name → sheet) resolves
    /// a qualifier; one naming the formula's own sheet is a local read
    /// and gets no edge. Returns whether a read names a sheet that does
    /// not exist — it gets no edge, and the evaluator yields `#REF!` for
    /// it until a sheet of that name is added.
    pub(crate) fn bind(
        &mut self,
        dst: usize,
        dep: Cell,
        run: &Run,
        index: &BTreeMap<String, usize>,
        only: Option<usize>,
    ) -> bool {
        if !run.template().names_sheet() {
            return false;
        }
        // The edges this call inserted are the tail of the bucket.
        let bound = self.by_dst[dst].len();
        let mut dangling = false;
        for (sheet, rref) in run.at(dep).reads() {
            let Some(sheet) = sheet else { continue };
            let Some(&src) = index.get(&sheet.key()) else {
                dangling = true;
                continue;
            };
            let prec = rref.range();
            let wanted = src != dst && only.is_none_or(|only| only == src);
            if wanted && !self.by_dst[dst][bound..].iter().any(|e| (e.src, e.prec) == (src, prec)) {
                self.insert(CrossEdge { src, prec, dst, dep });
            }
        }
        dangling
    }

    fn insert(&mut self, e: CrossEdge) {
        self.by_src[e.src].push(e);
        self.by_dst[e.dst].push(e);
        self.len += 1;
    }

    /// Removes every edge of the formula cell `dst!dep`.
    pub(crate) fn remove_dep(&mut self, dst: usize, dep: Cell) {
        self.remove_where(dst, |e| e.dep == dep);
    }

    /// Removes every edge of a formula cell inside `dst!range`.
    pub(crate) fn remove_deps_in(&mut self, dst: usize, range: Range) {
        self.remove_where(dst, move |e| range.contains_cell(e.dep));
    }

    fn remove_where(&mut self, dst: usize, pred: impl Fn(&CrossEdge) -> bool) {
        let removed: Vec<CrossEdge> =
            self.by_dst[dst].iter().filter(|e| pred(e)).copied().collect();
        if removed.is_empty() {
            return;
        }
        self.by_dst[dst].retain(|e| !pred(e));
        for src in removed.iter().map(|e| e.src).collect::<BTreeSet<_>>() {
            self.by_src[src].retain(|e| !(e.dst == dst && pred(e)));
        }
        self.len -= removed.len();
    }

    /// Remaps the formula-cell end of every edge owned by sheet `sid`
    /// under a structural edit of that sheet (the sheet's own formulas
    /// moved); edges whose formula cell was deleted are dropped along
    /// with the formula. The referenced-range ends on *other* sheets are
    /// untouched — foreign geometry does not change.
    pub(crate) fn remap_deps_on(&mut self, sid: usize, op: StructuralOp) {
        let mut removed = 0usize;
        self.by_dst[sid].retain_mut(|e| match op.map_cell(e.dep) {
            Some(nc) => {
                e.dep = nc;
                true
            }
            None => {
                removed += 1;
                false
            }
        });
        for bucket in &mut self.by_src {
            bucket.retain_mut(|e| {
                if e.dst != sid {
                    return true;
                }
                match op.map_cell(e.dep) {
                    Some(nc) => {
                        e.dep = nc;
                        true
                    }
                    None => false,
                }
            });
        }
        self.len -= removed;
    }

    // ---- questions -----------------------------------------------------

    /// Whether a formula on another sheet reads sheet `src`.
    pub(crate) fn is_read(&self, src: usize) -> bool {
        !self.by_src[src].is_empty()
    }

    /// The formula cells, `(sheet, cell)`, that read a range on sheet
    /// `src` overlapping `range`: where a change there hops to.
    pub(crate) fn hops_from(
        &self,
        src: usize,
        range: Range,
    ) -> impl Iterator<Item = (usize, Cell)> + '_ {
        let edges = self.by_src[src].iter().filter(move |e| e.prec.overlaps(&range));
        edges.map(|e| (e.dst, e.dep))
    }

    /// What the formulas inside `range` on sheet `dst` read on other
    /// sheets: `(key, sheet, range)` per edge, the key telling the sheet's
    /// edges apart.
    pub(crate) fn reads_into(
        &self,
        dst: usize,
        range: Range,
    ) -> impl Iterator<Item = (usize, usize, Range)> + '_ {
        let edges = self.by_dst[dst].iter().enumerate();
        edges.filter(move |(_, e)| range.contains_cell(e.dep)).map(|(k, e)| (k, e.src, e.prec))
    }

    /// The distinct formula cells, `(sheet, cell)`, that read sheet
    /// `src`, sorted. The table's order reflects edit history, which a
    /// reopen does not preserve; whoever walks the referrers to rewrite
    /// them feeds the destination graphs' compressors in this order, and a
    /// replayed edit must reproduce the live one bit for bit.
    pub(crate) fn referrers(&self, src: usize) -> Vec<(usize, Cell)> {
        let mut referrers: Vec<(usize, Cell)> =
            self.by_src[src].iter().map(|e| (e.dst, e.dep)).collect();
        referrers.sort_unstable();
        referrers.dedup();
        referrers
    }
}

#[cfg(test)]
impl EdgeTable {
    /// The edges, in a canonical order (a multiset compares as a list),
    /// after checking that both indices and the count hold them alike.
    pub(crate) fn canonical(&self) -> Vec<CrossEdge> {
        let sorted = |edges: Vec<CrossEdge>| {
            let mut edges = edges;
            edges.sort_unstable_by_key(|e| (e.src, e.dst, e.dep, e.prec.head(), e.prec.tail()));
            edges
        };
        let by_src = sorted(self.by_src.iter().flatten().copied().collect());
        let by_dst = sorted(self.by_dst.iter().flatten().copied().collect());
        assert_eq!(by_src, by_dst, "the two indices disagree");
        assert_eq!(by_src.len(), self.len, "the count disagrees");
        by_src
    }
}

#[cfg(test)]
mod tests {
    use crate::workbook::{RecalcMode, SheetId, Workbook};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taco_core::StructuralOp;
    use taco_formula::Value;
    use taco_grid::{Cell, Range};
    use taco_store::EditRecord;

    /// Columns and rows the scripts write in.
    const COLS: u32 = 6;
    const ROWS: u32 = 12;

    /// A reference into the scripts' grid, `$`-fixed at random.
    fn cell_ref(rng: &mut StdRng) -> String {
        let col = char::from(b'A' + rng.gen_range(0..COLS) as u8);
        let dollar = |rng: &mut StdRng| if rng.gen_range(0..4) == 0 { "$" } else { "" };
        format!("{}{col}{}{}", dollar(rng), dollar(rng), rng.gen_range(1..=ROWS))
    }

    /// A formula reading sheets named `S0` … `S{names - 1}`, some of
    /// which may not exist yet (or be the formula's own).
    fn formula(rng: &mut StdRng, names: usize) -> String {
        let sheet = |rng: &mut StdRng| format!("S{}", rng.gen_range(0..names));
        let (s, t) = (sheet(rng), sheet(rng));
        let (a, b, c) = (cell_ref(rng), cell_ref(rng), cell_ref(rng));
        match rng.gen_range(0..7) {
            0 => format!("={s}!{a}+{b}"),
            1 => format!("=SUM({s}!{a}:{b})*2"),
            // The same range twice is one edge.
            2 => format!("={s}!{a}+{s}!{a}*{s}!{b}"),
            3 => format!("={s}!{a}*{t}!{b}+{c}"),
            // A sum range read in the criteria range's shape.
            4 => format!("=SUMIF({a}:{b},\">0\",{s}!{c})"),
            5 => format!("=SUMIF({s}!{a}:{b},\">0\",{t}!{c})"),
            _ => format!("={a}*3+{b}"),
        }
    }

    fn some_cell(rng: &mut StdRng) -> Cell {
        Cell::new(rng.gen_range(1..=COLS), rng.gen_range(1..=ROWS))
    }

    fn some_range(rng: &mut StdRng) -> Range {
        let (a, b) = (some_cell(rng), some_cell(rng));
        Range::from_coords(a.col.min(b.col), a.row.min(b.row), a.col.max(b.col), a.row.max(b.row))
    }

    fn structural(rng: &mut StdRng) -> StructuralOp {
        let (at, n) = (rng.gen_range(1..=ROWS), rng.gen_range(1..=3));
        match rng.gen_range(0..4) {
            0 => StructuralOp::InsertRows { at, n },
            1 => StructuralOp::DeleteRows { at, n },
            2 => StructuralOp::InsertCols { at: at.min(COLS), n },
            _ => StructuralOp::DeleteCols { at: at.min(COLS), n },
        }
    }

    /// One edit record of a batch; `sheets` exist, `names` are named.
    fn record(rng: &mut StdRng, sheets: usize, names: usize) -> EditRecord {
        let sheet = rng.gen_range(0..sheets) as u32;
        match rng.gen_range(0..8) {
            0 | 1 => EditRecord::SetValue {
                sheet,
                cell: some_cell(rng),
                value: Value::Number(f64::from(rng.gen_range(-9..9))),
            },
            2..=4 => {
                EditRecord::SetFormula { sheet, cell: some_cell(rng), src: formula(rng, names) }
            }
            5 => EditRecord::ClearRange { sheet, range: some_range(rng) },
            6 => EditRecord::Structural { sheet, op: structural(rng) },
            _ => EditRecord::AddSheet { name: format!("S{sheets}") },
        }
    }

    /// One op of a seeded script: an edit, a fill, a batch, a structural
    /// edit on a read or a reading sheet, or a sheet added that formulas
    /// may name already. Ops that fail (a fill from a value, a record
    /// naming a missing sheet) leave what they did before failing.
    fn op(wb: &mut Workbook, rng: &mut StdRng, names: usize) {
        let sheets = wb.sheet_count();
        let id = SheetId(rng.gen_range(0..sheets));
        match rng.gen_range(0..16) {
            0..=2 => drop(wb.set_value(id, some_cell(rng), Value::Number(1.0))),
            3..=7 => drop(wb.set_formula(id, some_cell(rng), &formula(rng, names))),
            8 | 9 => {
                // A fill down or right, of a formula typed for it.
                let src = some_cell(rng);
                drop(wb.set_formula(id, src, &formula(rng, names)));
                let k = rng.gen_range(1..=6);
                let targets = if rng.gen_range(0..2) == 0 {
                    Range::from_coords(src.col, src.row, src.col, src.row + k)
                } else {
                    Range::from_coords(src.col, src.row, src.col + k, src.row)
                };
                drop(wb.autofill(id, src, targets));
            }
            10 => drop(wb.clear_range(id, some_range(rng))),
            11 | 12 => {
                let batch: Vec<EditRecord> =
                    (0..rng.gen_range(1..=6)).map(|_| record(rng, sheets, names)).collect();
                drop(wb.apply_batch(&batch));
            }
            13 | 14 => drop(wb.apply_structural(id, structural(rng))),
            _ => drop(wb.add_sheet(&format!("S{sheets}"))),
        }
        if rng.gen_range(0..8) == 0 {
            wb.recalculate(RecalcMode::Serial);
        }
    }

    /// Holds `wb`, reopened and recalculated — in full, and from a
    /// viewport on a sheet picked by `step`, then in full — to the
    /// reference evaluator.
    fn assert_reopened_is_the_reference(wb: &Workbook, step: usize) {
        let reopen = || Workbook::from_image(wb.to_image()).expect("a valid image");
        let mut full = reopen();
        full.recalculate(RecalcMode::Serial);
        let left_out = full.assert_reference(None);
        let viewport = (step % wb.sheet_count(), Range::from_coords(1, 1, 3, ROWS / 2));
        let mut demand = reopen();
        demand.recalc_demand(SheetId(viewport.0), viewport.1).expect("a sheet");
        demand.assert_reference(Some(viewport));
        demand.recalculate(RecalcMode::Serial);
        assert_eq!(demand.assert_reference(None), left_out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The standing invariant, cross-table part: after every op the
        /// live table is, edge for edge, the one binding every live
        /// formula afresh derives — and the one an open binds. And the
        /// values: the live workbook after a full pass, and a reopened
        /// copy recalculated in full or from a viewport then in full, hold
        /// the reference evaluator's.
        #[test]
        fn the_live_table_is_the_one_the_formulas_derive(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wb = Workbook::new();
            for s in 0..rng.gen_range(1..=3) {
                wb.add_sheet(&format!("S{s}")).expect("a fresh name");
            }
            // Formulas may name up to two sheets past the last one.
            for step in 0..40 {
                let names = wb.sheet_count() + 2;
                op(&mut wb, &mut rng, names);
                prop_assert_eq!(
                    wb.cross_table(),
                    wb.derived_cross_table(),
                    "seed {} step {}",
                    seed,
                    step
                );
                if wb.dirty_count() == 0 {
                    wb.assert_reference(None);
                }
                assert_reopened_is_the_reference(&wb, step);
            }
            let reopened = Workbook::from_image(wb.to_image()).expect("a valid image");
            prop_assert_eq!(reopened.cross_table(), wb.cross_table(), "seed {} reopened", seed);
        }
    }
}
