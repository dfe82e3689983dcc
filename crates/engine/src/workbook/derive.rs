//! The graph an open derives from the formulas.
//!
//! An image stores what was typed, not the graph (`taco_store`'s
//! container), and the graph is a function of the formulas: the open is
//! the one place it is built fresh. A filled run names its pattern
//! already, so the graph is derived one **column stretch** at a time — a
//! run's cells in consecutive rows of one column — not one cell at a
//! time:
//!
//! - each read of the stretch's formula is one edge, made in O(1) from
//!   the read's first two dependencies, paired by Alg. 2's own selection,
//!   and the range it reads at the stretch's last cell
//!   ([`FormulaGraph::stretch_edge`]); reads of other sheets alike, in
//!   the bands' coordinates, once per distinct range as `Workbook::bind`
//!   binds them;
//! - an edge joins the edge of the stretch just above it in the column if
//!   the two follow one pattern (two runs typed one under the other, or
//!   one a re-typed cell once split), and so does each read of a stretch
//!   of one cell (a lone formula between two stretches, which then join
//!   through it);
//! - every edge goes in place with one STR bulk load
//!   ([`FormulaGraph::load_edges`]).
//!
//! Then the reads of one-cell stretches that joined nothing are added by
//! Alg. 2 ([`FormulaGraph::add_dependency`]), which pairs them with a cell
//! beside them or extends the stretch below. A stretch whose reads are
//! not one edge each is bound cell by cell, by `Workbook::bind`, the
//! routine a live edit uses: a read that leaves the grid at an end (the
//! number of reads changes along the stretch), one whose first two cells
//! pair in no pattern or whose last does not follow it (crossed corners,
//! or a `SUMIF` sum range shaped by a criteria range that turns from
//! shrinking to growing), and two reads of one other sheet that may meet
//! at a cell. Live edits keep Alg. 2 per dependency; what an open derives
//! decompresses to exactly what binding every formula afresh would.

use super::{band, sheet_index, Reads, Workbook};
use crate::sheet::Run;
use std::collections::BTreeMap;
use std::sync::Arc;
use taco_core::{Dependency, Edge, FormulaGraph};
use taco_grid::{Cell, Range};

/// A column stretch of one run on one sheet: rows `first.row..=last`.
struct Stretch {
    sid: usize,
    first: Cell,
    last: u32,
    run: Arc<Run>,
}

/// The edges derived so far and what a stretch needs to join them.
#[derive(Default)]
struct Derived {
    edges: Vec<Edge>,
    /// The stretch's own edges, before they join or go in.
    own: Vec<(Dependency, Edge)>,
    /// Its reads of other sheets so far: `(sheet, range at the first
    /// cell, range at the last)`.
    bound: Vec<(usize, Range, Range)>,
    /// The dependencies of one-cell stretches that join no edge above.
    later: Vec<Dependency>,
    /// The indexes in `edges` of the edges of the stretch derived before
    /// (stretches come in (sheet, column, row) order, so only that one
    /// can end in the row above), and of this one's.
    above_ids: Vec<usize>,
    below_ids: Vec<usize>,
}

impl Workbook {
    /// Derives the graph of a workbook whose cells were just restored
    /// (see the module docs). Sets each sheet's dangling flag and counts
    /// its own dependencies as `Workbook::bind` does.
    pub(crate) fn derive_graph(&mut self) {
        let mut derived = Derived::default();
        let mut by_cell = Vec::new();
        let Workbook { sheets, index, graph, .. } = self;
        for (sid, shard) in sheets.iter_mut().enumerate() {
            let (mut dangling, mut inserted) = (false, 0);
            let mut each = |s: Stretch| match derived.stretch(graph, index, &s, &mut dangling) {
                Some(own) => inserted += own,
                None => by_cell.push(s),
            };
            let mut open: Option<Stretch> = None;
            for (cell, content) in shard.engine.cells() {
                let Some(run) = content.run.as_ref() else {
                    continue;
                };
                match &mut open {
                    Some(s)
                        if s.first.col == cell.col
                            && s.last + 1 == cell.row
                            && Arc::ptr_eq(&s.run, run) =>
                    {
                        s.last = cell.row;
                    }
                    _ => {
                        let next =
                            Stretch { sid, first: cell, last: cell.row, run: Arc::clone(run) };
                        open.replace(next).into_iter().for_each(&mut each);
                    }
                }
            }
            open.into_iter().for_each(&mut each);
            shard.dangling |= dangling;
            shard.inserted += inserted;
        }
        graph.load_edges(derived.edges);
        for d in &derived.later {
            graph.add_dependency(d);
        }
        for s in by_cell {
            for row in s.first.row..=s.last {
                self.bind(s.sid, Cell { row, ..s.first }, &s.run, Reads::All);
            }
        }
    }
}

impl Derived {
    /// Derives stretch `s`'s edges, joining those of the stretch above
    /// where they can: the dependencies of `s`'s own sheet they hold, or
    /// `None` if `s` must be bound cell by cell. Sets `dangling` if a read
    /// names a sheet that does not exist.
    fn stretch(
        &mut self,
        graph: &mut FormulaGraph,
        index: &BTreeMap<String, usize>,
        s: &Stretch,
        dangling: &mut bool,
    ) -> Option<u64> {
        let own = self.own_edges(graph, index, s, dangling)?;
        let lone = s.first.row == s.last;
        self.below_ids.clear();
        for (first, edge) in self.own.drain(..) {
            // `try_extend` takes `first` only one row below the edge.
            let join = self.above_ids.iter().position(|&id| {
                let above = &self.edges[id];
                (lone || above.meta == edge.meta) && above.try_extend(&first).is_some()
            });
            match join {
                Some(k) => {
                    let id = self.above_ids.swap_remove(k);
                    let above = &mut self.edges[id];
                    above.prec = above.prec.bounding_union(&edge.prec);
                    above.dep = above.dep.bounding_union(&edge.dep);
                    above.count += edge.count;
                    self.below_ids.push(id);
                }
                // Added after the bulk load, Alg. 2 pairs it with a cell
                // beside it or extends the stretch below it.
                None if lone => self.later.push(first),
                None => {
                    self.below_ids.push(self.edges.len());
                    self.edges.push(edge);
                }
            }
        }
        std::mem::swap(&mut self.above_ids, &mut self.below_ids);
        Some(own)
    }

    /// Fills `self.own` with one edge per read of stretch `s`, each with
    /// its first dependency: the dependencies of `s`'s own sheet they
    /// hold, or `None` if `s` is to be bound cell by cell.
    fn own_edges(
        &mut self,
        graph: &mut FormulaGraph,
        index: &BTreeMap<String, usize>,
        s: &Stretch,
        dangling: &mut bool,
    ) -> Option<u64> {
        self.own.clear();
        self.bound.clear();
        let (run, col, rows) = (&s.run, s.first.col, s.last - s.first.row + 1);
        let ends = || run.reads_at_ends(col, s.first.row, s.last);
        if rows > 1 && ends().any(|(_, first, last)| first.is_none() || last.is_none()) {
            return None;
        }
        // Every read is on the grid at both ends, so at every row between:
        // the three lists line up. One cell reads what it reads.
        let second = Cell { row: s.first.row + 1, ..s.first };
        let last = Cell { row: s.last, ..s.first };
        let mut rest = (rows > 1).then(|| run.at(second).reads().zip(ends()));
        let mut own = 0;
        for (sheet, head) in run.at(s.first).reads() {
            let rest = rest.as_mut().and_then(Iterator::next);
            let src = match sheet {
                None => s.sid,
                Some(sheet) => match sheet_index(index, sheet.name()) {
                    Some(src) => src,
                    None => {
                        *dangling = true;
                        continue;
                    }
                },
            };
            let tail = rest
                .as_ref()
                .map_or(head.range(), |(_, (.., tail))| tail.expect("on the grid at the last row"));
            if src != s.sid {
                // `bind` binds a range read twice on another sheet once
                // per cell. Two reads equal at both ends are one: both
                // follow their patterns, so they are equal at every row.
                // Two that differ may still meet at a row between.
                let hull = head.range().bounding_union(&tail);
                let mut same = self.bound.iter().filter(|&&(on, ..)| on == src);
                if same.clone().any(|&(_, h, t)| (h, t) == (head.range(), tail)) {
                    continue;
                }
                if same.any(|&(_, h, t)| h.bounding_union(&t).intersect(&hull).is_some()) {
                    return None;
                }
                self.bound.push((src, head.range(), tail));
            }
            let dep = |rref: &taco_grid::a1::RangeRef, cell| {
                let d = Dependency::from_ref(rref, cell);
                Dependency { prec: band(src).range(d.prec), dep: band(s.sid).cell(cell), ..d }
            };
            let first = dep(&head, s.first);
            let edge = match rest {
                None => Edge::single(&first),
                Some(((_, next), _)) => {
                    let end = Dependency::new(band(src).range(tail), band(s.sid).cell(last));
                    graph.stretch_edge(&first, &dep(&next, second), &end)?
                }
            };
            self.own.push((first, edge));
            if src == s.sid {
                own += u64::from(rows);
            }
        }
        Some(own)
    }
}
