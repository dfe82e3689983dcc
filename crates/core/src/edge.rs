//! The compressed-edge representation (§II-B) in sheet coordinates.
//!
//! An [`Edge`] is the tuple `(prec, dep, p, meta)`: the minimal bounding
//! precedent and dependent ranges, the pattern tag, and the constant-size
//! pattern metadata. The `axis` field records whether the dependent run is
//! a column (canonical) or a row; all pattern math lives in canonical
//! coordinates and this module transposes at the boundary.

use crate::pattern::{self, CanonDep, Direction, PatternMeta, PatternType};
use crate::Dependency;
use taco_grid::{Axis, Range};

/// Identifier of an edge inside a [`crate::FormulaGraph`]'s arena.
pub type EdgeId = usize;

/// A (possibly compressed) edge of the formula graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Minimal bounding range of the compressed precedents (`⊕` of all
    /// underlying `e.prec`).
    pub prec: Range,
    /// Minimal bounding range of the compressed dependents.
    pub dep: Range,
    /// Compression axis of the dependent run (meaningless for `Single`).
    pub axis: Axis,
    /// Pattern metadata in canonical coordinates.
    pub meta: PatternMeta,
    /// Number of underlying dependencies this edge represents.
    pub count: u32,
}

impl Edge {
    /// An uncompressed edge holding exactly one dependency.
    pub fn single(d: &Dependency) -> Edge {
        Edge {
            prec: d.prec,
            dep: Range::cell(d.dep),
            axis: Axis::Col,
            meta: PatternMeta::Single,
            count: 1,
        }
    }

    /// The pattern tag.
    pub fn pattern(&self) -> PatternType {
        self.meta.pattern_type()
    }

    /// `true` iff this edge holds a single dependency.
    pub fn is_single(&self) -> bool {
        matches!(self.meta, PatternMeta::Single)
    }

    fn canon_dep(&self, d: &Dependency) -> CanonDep {
        CanonDep { prec: self.axis.canon(d.prec), dep: self.axis.canon_cell(d.dep) }
    }

    /// Attempts to compress a *single* edge and a new dependency into a
    /// fresh compressed edge using `pattern` along `axis` (the
    /// `candE.p == Single` branch of `genCompEdges`, Alg. 2).
    pub fn try_pair(&self, d: &Dependency, pattern: PatternType, axis: Axis) -> Option<Edge> {
        debug_assert!(self.is_single());
        let a = CanonDep { prec: axis.canon(self.prec), dep: axis.canon_cell(self.dep.head()) };
        let b = CanonDep { prec: axis.canon(d.prec), dep: axis.canon_cell(d.dep) };
        let meta = pattern::pair_meta(pattern, &a, &b)?;
        Some(Edge {
            prec: self.prec.bounding_union(&d.prec),
            dep: self.dep.bounding_union(&Range::cell(d.dep)),
            axis,
            meta,
            count: 2,
        })
    }

    /// Attempts to extend this compressed edge with one more dependency
    /// (the compressed branch of `genCompEdges`).
    pub fn try_extend(&self, d: &Dependency) -> Option<Edge> {
        debug_assert!(!self.is_single());
        let cd = self.canon_dep(d);
        if !pattern::can_extend(&self.meta, self.axis.canon(self.dep), &cd) {
            return None;
        }
        Some(Edge {
            prec: self.prec.bounding_union(&d.prec),
            dep: self.dep.bounding_union(&Range::cell(d.dep)),
            axis: self.axis,
            meta: self.meta,
            count: self.count + 1,
        })
    }

    /// `findDep`: the dependents of `r` within this edge, one range or
    /// none; `r` must be contained in `self.prec` (callers intersect
    /// first).
    pub fn find_dep(&self, r: Range) -> Option<Range> {
        if self.is_single() {
            return Some(self.dep);
        }
        let (prec, dep, r) =
            (self.axis.canon(self.prec), self.axis.canon(self.dep), self.axis.canon(r));
        pattern::find_dep(&self.meta, prec, dep, r).map(|x| self.axis.uncanon(x))
    }

    /// `findPrec`: the precedents of `s` within this edge, one range or
    /// none; `s` must be contained in `self.dep`.
    pub fn find_prec(&self, s: Range) -> Option<Range> {
        if self.is_single() {
            return Some(self.prec);
        }
        let (prec, dep, s) =
            (self.axis.canon(self.prec), self.axis.canon(self.dep), self.axis.canon(s));
        pattern::find_prec(&self.meta, prec, dep, s).map(|x| self.axis.uncanon(x))
    }

    /// `found`, the range [`Self::find_dep`] (`Dependents`) or
    /// [`Self::find_prec`] (`Precedents`) just returned, widened by
    /// everything this edge reaches from it transitively — O(1), see
    /// [`pattern::close_window`]; unchanged unless this is an RR edge
    /// whose windows cover its own dependent line.
    pub(crate) fn close(&self, found: Range, dir: Direction) -> Range {
        // Most edges a query touches are not RR: spare them the transposes.
        if !matches!(self.meta, PatternMeta::RR { .. }) {
            return found;
        }
        let closed = pattern::close_window(
            &self.meta,
            self.axis.canon(self.dep),
            self.axis.canon(found),
            dir,
        );
        self.axis.uncanon(closed)
    }

    /// `removeDep`: removes the dependencies for formula cells `s`,
    /// appending the replacement edges — at most two, none when the edge
    /// disappears — to `out` (`clear_cells` reuses one buffer across
    /// edges, so a warm split allocates nothing).
    pub fn remove_dep_into(&self, s: Range, out: &mut Vec<Edge>) {
        let parts = pattern::remove_dep(
            &self.meta,
            self.axis.canon(self.prec),
            self.axis.canon(self.dep),
            self.axis.canon(s),
        );
        out.extend(parts.into_iter().flatten().map(|p| Edge {
            prec: self.axis.uncanon(p.prec),
            dep: self.axis.uncanon(p.dep),
            axis: self.axis,
            meta: p.meta,
            count: p.count,
        }));
    }

    /// Expands this edge into its underlying dependencies (the inverse of
    /// compression). Used by tests, `FormulaGraph::decompress_all` and
    /// round-trip verification; O(count).
    pub fn decompress(&self) -> Vec<Dependency> {
        if self.is_single() {
            return vec![Dependency::new(self.prec, self.dep.head())];
        }
        let cdep = self.axis.canon(self.dep);
        let cprec = self.axis.canon(self.prec);
        let col = cdep.head().col;
        let mut out = Vec::with_capacity(self.count as usize);
        out.extend((cdep.head().row..=cdep.tail().row).filter_map(|row| {
            let cell = taco_grid::Cell::new(col, row);
            // For chains findPrec is transitive; the direct precedent of
            // a single cell is the adjacent cell, recovered structurally.
            let p = match &self.meta {
                PatternMeta::RRChain { dir } => {
                    Some(Range::cell(cell.offset_saturating(dir.rel())))
                }
                m => pattern::find_prec(m, cprec, cdep, Range::cell(cell)),
            }?;
            // canon_cell is a transposition (its own inverse), so it
            // also maps canonical cells back to sheet coordinates.
            Some(Dependency::new(self.axis.uncanon(p), self.axis.canon_cell(cell)))
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cue;
    use taco_grid::{Cell, Offset};

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn d(prec: &str, dep: &str) -> Dependency {
        Dependency::new(r(prec), Cell::parse_a1(dep).unwrap())
    }

    /// [`Edge::remove_dep_into`] into a fresh vector.
    fn parts_of(e: &Edge, s: Range) -> Vec<Edge> {
        let mut out = Vec::new();
        e.remove_dep_into(s, &mut out);
        out
    }

    #[test]
    fn pair_column_axis_rr() {
        let e = Edge::single(&d("A1:B3", "C1"));
        let got = e.try_pair(&d("A2:B4", "C2"), PatternType::RR, Axis::Col).unwrap();
        assert_eq!(got.prec, r("A1:B4"));
        assert_eq!(got.dep, r("C1:C2"));
        assert_eq!(got.count, 2);
        assert_eq!(got.pattern(), PatternType::RR);
    }

    #[test]
    fn pair_row_axis_rr() {
        // Formulae along row 5: B5 references B1:B3, C5 references C1:C3.
        let e = Edge::single(&d("B1:B3", "B5"));
        let got = e.try_pair(&d("C1:C3", "C5"), PatternType::RR, Axis::Row).unwrap();
        assert_eq!(got.prec, r("B1:C3"));
        assert_eq!(got.dep, r("B5:C5"));
        // In canonical coordinates the rel offsets are (0,-2)..(0,-4)
        // transposed; just confirm the round trip below.
        let deps = got.decompress();
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0], d("B1:B3", "B5"));
        assert_eq!(deps[1], d("C1:C3", "C5"));
    }

    #[test]
    fn extend_row_axis() {
        let e = Edge::single(&d("B1:B3", "B5"));
        let e2 = e.try_pair(&d("C1:C3", "C5"), PatternType::RR, Axis::Row).unwrap();
        let e3 = e2.try_extend(&d("D1:D3", "D5")).unwrap();
        assert_eq!(e3.dep, r("B5:D5"));
        assert_eq!(e3.count, 3);
        // Cannot extend with a mismatched window.
        assert!(e3.try_extend(&d("E1:E4", "E5")).is_none());
    }

    #[test]
    fn find_dep_row_axis() {
        let e = Edge::single(&d("B1:B3", "B5"));
        let e2 = e.try_pair(&d("C1:C3", "C5"), PatternType::RR, Axis::Row).unwrap();
        let e3 = e2.try_extend(&d("D1:D3", "D5")).unwrap();
        // C2 only sits in C5's window.
        assert_eq!(e3.find_dep(r("C2")), Some(r("C5")));
        // The whole precedent block hits all three formulae.
        assert_eq!(e3.find_dep(r("B1:D3")), Some(r("B5:D5")));
    }

    #[test]
    fn find_prec_row_axis() {
        let e = Edge::single(&d("B1:B3", "B5"));
        let e2 = e.try_pair(&d("C1:C3", "C5"), PatternType::RR, Axis::Row).unwrap();
        assert_eq!(e2.find_prec(r("B5")), Some(r("B1:B3")));
        assert_eq!(e2.find_prec(r("B5:C5")), Some(r("B1:C3")));
    }

    #[test]
    fn remove_dep_row_axis() {
        let e = Edge::single(&d("B1:B3", "B5"));
        let e2 = e.try_pair(&d("C1:C3", "C5"), PatternType::RR, Axis::Row).unwrap();
        let e3 = e2.try_extend(&d("D1:D3", "D5")).unwrap();
        let parts = parts_of(&e3, r("C5"));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].dep, r("B5"));
        assert!(parts[0].is_single());
        assert_eq!(parts[0].prec, r("B1:B3"));
        assert_eq!(parts[1].dep, r("D5"));
        assert_eq!(parts[1].prec, r("D1:D3"));
    }

    /// Every cut of every pattern's run, along either axis, leaves at most
    /// two edges, which hold exactly the dependencies the cut spared.
    #[test]
    fn every_cut_leaves_at_most_two_parts_holding_the_rest() {
        let col = |f: fn(u32) -> String, p: PatternType| {
            let deps: Vec<Dependency> = (2..=7).map(|row| d(&f(row), &format!("C{row}"))).collect();
            (deps, p, Axis::Col)
        };
        let runs = [
            col(|r| format!("A{r}:B{}", r + 2), PatternType::RR),
            col(|r| format!("A{r}:B9"), PatternType::RF),
            col(|r| format!("A1:B{r}"), PatternType::FR),
            col(|_| "A1:B3".to_string(), PatternType::FF),
            (
                (2..=7).map(|r| d(&format!("C{}", r - 1), &format!("C{r}"))).collect(),
                PatternType::RRChain,
                Axis::Col,
            ),
            (
                (2..=7u32)
                    .map(|c| Dependency::new(Range::from_coords(c, 7, c, 9), Cell::new(c, 10)))
                    .collect(),
                PatternType::RR,
                Axis::Row,
            ),
        ];
        let key = |d: &Dependency| (d.dep, d.prec.head(), d.prec.tail());
        for (deps, pattern, axis) in runs {
            let mut e = Edge::single(&deps[0]).try_pair(&deps[1], pattern, axis).unwrap();
            for dep in &deps[2..] {
                e = e.try_extend(dep).unwrap();
            }
            // Every sub-run of the run, and each widened to reach A1.
            let cells: Vec<Cell> = e.dep.cells().collect();
            let runs = cells
                .iter()
                .enumerate()
                .flat_map(|(i, &a)| cells[i..].iter().map(move |&b| Range::new(a, b)));
            for cut in runs.flat_map(|c| [c, c.bounding_union(&r("A1"))]) {
                let parts = parts_of(&e, cut);
                assert!(parts.len() <= 2, "{pattern:?} cut {cut}: {parts:?}");
                let mut got: Vec<_> =
                    parts.iter().flat_map(Edge::decompress).map(|d| key(&d)).collect();
                let mut want: Vec<_> =
                    deps.iter().filter(|d| !cut.contains_cell(d.dep)).map(key).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "{pattern:?} cut {cut}");
                assert!(parts.iter().all(|p| p.count as usize == p.decompress().len()));
            }
        }
    }

    #[test]
    fn decompress_round_trips_ff() {
        let e = Edge::single(&d("A1:B3", "C1"));
        let e2 = e.try_pair(&d("A1:B3", "C2"), PatternType::FF, Axis::Col).unwrap();
        let e3 = e2.try_extend(&d("A1:B3", "C3")).unwrap();
        let deps = e3.decompress();
        assert_eq!(deps, vec![d("A1:B3", "C1"), d("A1:B3", "C2"), d("A1:B3", "C3")]);
    }

    #[test]
    fn decompress_round_trips_chain() {
        let e = Edge::single(&d("A1", "A2"));
        let e2 = e.try_pair(&d("A2", "A3"), PatternType::RRChain, Axis::Col).unwrap();
        let e3 = e2.try_extend(&d("A3", "A4")).unwrap();
        assert_eq!(e3.prec, r("A1:A3"));
        assert_eq!(e3.dep, r("A2:A4"));
        let deps = e3.decompress();
        assert_eq!(deps, vec![d("A1", "A2"), d("A2", "A3"), d("A3", "A4")]);
    }

    #[test]
    fn single_edge_key_functions() {
        let e = Edge::single(&d("A1:A3", "B1"));
        assert_eq!(e.find_dep(r("A2")), Some(r("B1")));
        assert_eq!(e.find_prec(r("B1")), Some(r("A1:A3")));
        assert!(parts_of(&e, r("B1")).is_empty());
        assert_eq!(parts_of(&e, r("C1")).len(), 1);
    }

    #[test]
    fn cue_is_carried_by_dependency_not_edge() {
        let dep = Dependency {
            prec: r("B1:B4"),
            dep: Cell::parse_a1("C4").unwrap(),
            cue: Cue { head_fixed: true, tail_fixed: false },
        };
        let e = Edge::single(&dep);
        // Edges themselves don't store cues.
        assert_eq!(e.count, 1);
    }

    #[test]
    fn fig4b_full_round_trip() {
        // Build the Fig. 4b RF edge from scratch and decompress it.
        let e = Edge::single(&d("A1:B4", "C1"));
        let e = e.try_pair(&d("A2:B4", "C2"), PatternType::RF, Axis::Col).unwrap();
        let e = e.try_extend(&d("A3:B4", "C3")).unwrap();
        let e = e.try_extend(&d("A4:B4", "C4")).unwrap();
        assert_eq!(e.prec, r("A1:B4"));
        assert_eq!(e.dep, r("C1:C4"));
        assert_eq!(
            e.meta,
            PatternMeta::RF { h_rel: Offset::new(-2, 0), t_fix: Cell::parse_a1("B4").unwrap() }
        );
        let deps = e.decompress();
        assert_eq!(
            deps,
            vec![d("A1:B4", "C1"), d("A2:B4", "C2"), d("A3:B4", "C3"), d("A4:B4", "C4")]
        );
    }
}
