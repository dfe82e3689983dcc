//! The compression patterns and their four key functions (§III).
//!
//! Everything in this module operates in **canonical coordinates**: the
//! dependent cells form a vertical run (one column, consecutive rows), the
//! column-axis case of the paper. The row-wise case is obtained by the
//! caller ([`crate::edge`]) transposing ranges on the way in and out — the
//! paper's "derived symmetrically".
//!
//! Per §II-B, for a set of edges of arbitrary size a pattern is a
//! constant-size representation that can reconstruct the set, and finding
//! direct dependents/precedents within it must be constant-time. Every
//! function here is O(1) in the run length, with no exception:
//!
//! - `rel`, `count_for`, `pair_meta` and `can_extend` (`addDep`);
//! - `find_dep` / `find_prec`, one hop — transitive within the run for
//!   RR-Chain (§V) — each answering with at most one range;
//! - `close_window`, the transitive closure a query takes within an RR
//!   run whose windows read its own column: one step, not one per hop;
//! - `remove_dep` (`removeDep`: the rows above the cut and the rows below
//!   it, at most two parts) and `seg_prec`.
//!
//! The dependents of every pattern are a run of consecutive cells, which
//! is what keeps each answer one rectangle. §V's exploratory RR-GapOne
//! (formulae on every other row) is not implemented: its answers are a
//! cell per row, O(rows), and such a run stays single edges.

use taco_grid::{Cell, Offset, Range};

/// The pattern tag of a (compressed) edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PatternType {
    /// An uncompressed edge (a single dependency).
    Single,
    /// Relative head + relative tail — the sliding window (Fig. 4a).
    RR,
    /// Relative head + fixed tail — the shrinking window (Fig. 4b).
    RF,
    /// Fixed head + relative tail — the expanding window (Fig. 4c),
    /// e.g. cumulative totals.
    FR,
    /// Fixed head + fixed tail — point/range lookups (Fig. 4d).
    FF,
    /// The §V extension: a chain where each formula references its adjacent
    /// cell above/below. A special case of RR whose `findDep`/`findPrec`
    /// return the whole downstream/upstream chain segment in one step.
    RRChain,
}

impl PatternType {
    /// All compressible patterns (everything but `Single`), in the priority
    /// order the greedy compressor tries them.
    pub const ALL: [PatternType; 5] =
        [PatternType::RRChain, PatternType::RR, PatternType::RF, PatternType::FR, PatternType::FF];

    /// `true` iff `self` is a special case of `other` (the §IV heuristic
    /// prefers the special pattern: RR-Chain over RR).
    pub fn is_special_case_of(self, other: PatternType) -> bool {
        matches!((self, other), (PatternType::RRChain, PatternType::RR))
    }

    /// `true` iff the `$`-marker cue of a reference is consistent with this
    /// pattern (used by the final-edge-selection heuristic).
    pub fn matches_cue(self, cue: crate::Cue) -> bool {
        match self {
            PatternType::Single => false,
            PatternType::RR | PatternType::RRChain => !cue.head_fixed && !cue.tail_fixed,
            PatternType::RF => !cue.head_fixed && cue.tail_fixed,
            PatternType::FR => cue.head_fixed && !cue.tail_fixed,
            PatternType::FF => cue.head_fixed && cue.tail_fixed,
        }
    }
}

/// Direction of an RR-Chain: which adjacent cell each formula references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainDir {
    /// Each formula references the cell directly above it (canonical
    /// coordinates), like `A2=A1+1` filled downward.
    Above,
    /// Each formula references the cell directly below it.
    Below,
}

impl ChainDir {
    /// The relative position of the referenced cell.
    pub fn rel(self) -> Offset {
        match self {
            ChainDir::Above => Offset::new(0, -1),
            ChainDir::Below => Offset::new(0, 1),
        }
    }
}

/// The `meta` component of a compressed edge (§II-B): the constant-size
/// pattern information that reconstructs the compressed dependencies.
/// Offsets/cells are stored in canonical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternMeta {
    /// No metadata: the edge is a single dependency.
    Single,
    /// `hRel` + `tRel`.
    RR {
        /// Relative position of the precedent's head w.r.t. the dependent.
        h_rel: Offset,
        /// Relative position of the precedent's tail w.r.t. the dependent.
        t_rel: Offset,
    },
    /// `hRel` + `tFix`.
    RF {
        /// Relative position of the precedent's head w.r.t. the dependent.
        h_rel: Offset,
        /// The fixed tail cell every dependency references.
        t_fix: Cell,
    },
    /// `hFix` + `tRel`.
    FR {
        /// The fixed head cell every dependency references.
        h_fix: Cell,
        /// Relative position of the precedent's tail w.r.t. the dependent.
        t_rel: Offset,
    },
    /// `hFix` + `tFix`.
    FF {
        /// The fixed head cell every dependency references.
        h_fix: Cell,
        /// The fixed tail cell every dependency references.
        t_fix: Cell,
    },
    /// Chain direction (`l` in Fig. 9); `hRel = tRel = dir.rel()`.
    RRChain {
        /// Whether formulae reference the cell above or below.
        dir: ChainDir,
    },
}

impl PatternMeta {
    /// The pattern tag for this metadata.
    pub fn pattern_type(&self) -> PatternType {
        match self {
            PatternMeta::Single => PatternType::Single,
            PatternMeta::RR { .. } => PatternType::RR,
            PatternMeta::RF { .. } => PatternType::RF,
            PatternMeta::FR { .. } => PatternType::FR,
            PatternMeta::FF { .. } => PatternType::FF,
            PatternMeta::RRChain { .. } => PatternType::RRChain,
        }
    }

    /// The same metadata with every fixed cell mapped by `f`; relative
    /// offsets are kept.
    pub(crate) fn with_fixed(self, f: impl Fn(Cell) -> Cell) -> PatternMeta {
        match self {
            PatternMeta::RF { h_rel, t_fix } => PatternMeta::RF { h_rel, t_fix: f(t_fix) },
            PatternMeta::FR { h_fix, t_rel } => PatternMeta::FR { h_fix: f(h_fix), t_rel },
            PatternMeta::FF { h_fix, t_fix } => {
                PatternMeta::FF { h_fix: f(h_fix), t_fix: f(t_fix) }
            }
            meta => meta,
        }
    }
}

/// One dependency in canonical coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CanonDep {
    pub prec: Range,
    pub dep: Cell,
}

/// The constituent parts of an edge produced by `remove_dep`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CanonParts {
    pub prec: Range,
    pub dep: Range,
    pub meta: PatternMeta,
    pub count: u32,
}

/// The paper's `rel(e)` procedure (Alg. 1 lines 9–12): relative positions
/// of the precedent's head and tail w.r.t. the dependent cell.
pub(crate) fn rel(prec: Range, dep: Cell) -> (Offset, Offset) {
    (prec.head().offset_from(dep), prec.tail().offset_from(dep))
}

/// Number of dependencies a canonical edge with this meta and dependent
/// run represents.
pub(crate) fn count_for(meta: &PatternMeta, dep: Range) -> u32 {
    match meta {
        PatternMeta::Single => 1,
        _ => dep.height(),
    }
}

/// Checks whether two *single* dependencies whose dependent cells sit in
/// the same column can be compressed with `pattern`, and returns the
/// resulting metadata. `a` and `b` may be in either vertical order.
///
/// The two dependent cells must be adjacent: row distance 1.
pub(crate) fn pair_meta(pattern: PatternType, a: &CanonDep, b: &CanonDep) -> Option<PatternMeta> {
    if a.dep.col != b.dep.col || a.dep.row.abs_diff(b.dep.row) != 1 {
        return None;
    }
    let (ha, ta) = rel(a.prec, a.dep);
    let (hb, tb) = rel(b.prec, b.dep);
    match pattern {
        PatternType::Single => None,
        PatternType::RR => {
            ((ha, ta) == (hb, tb)).then_some(PatternMeta::RR { h_rel: ha, t_rel: ta })
        }
        PatternType::RF => (ha == hb && a.prec.tail() == b.prec.tail())
            .then_some(PatternMeta::RF { h_rel: ha, t_fix: a.prec.tail() }),
        PatternType::FR => (ta == tb && a.prec.head() == b.prec.head())
            .then_some(PatternMeta::FR { h_fix: a.prec.head(), t_rel: ta }),
        PatternType::FF => (a.prec == b.prec)
            .then_some(PatternMeta::FF { h_fix: a.prec.head(), t_fix: a.prec.tail() }),
        PatternType::RRChain => {
            let dir = chain_dir(a)?;
            (chain_dir(b) == Some(dir)).then_some(PatternMeta::RRChain { dir })
        }
    }
}

/// If `d` is chain-shaped (references the single cell directly above or
/// below itself), the chain direction.
fn chain_dir(d: &CanonDep) -> Option<ChainDir> {
    if !d.prec.is_cell() || d.prec.head().col != d.dep.col {
        return None;
    }
    let dr = i64::from(d.prec.head().row) - i64::from(d.dep.row);
    match dr {
        -1 => Some(ChainDir::Above),
        1 => Some(ChainDir::Below),
        _ => None,
    }
}

/// The paper's `addDep(e, e')` condition for extending an already
/// compressed edge with one more dependency: the new dependent cell must
/// extend the run at one end, and the dependency must match the metadata.
pub(crate) fn can_extend(meta: &PatternMeta, dep_run: Range, d: &CanonDep) -> bool {
    debug_assert_eq!(dep_run.width(), 1, "canonical dependent runs are single-column");
    if d.dep.col != dep_run.head().col {
        return false;
    }
    let extends = i64::from(d.dep.row) == i64::from(dep_run.head().row) - 1
        || i64::from(d.dep.row) == i64::from(dep_run.tail().row) + 1;
    if !extends {
        return false;
    }
    let (h, t) = rel(d.prec, d.dep);
    match meta {
        PatternMeta::Single => false,
        PatternMeta::RR { h_rel, t_rel } => h == *h_rel && t == *t_rel,
        PatternMeta::RF { h_rel, t_fix } => h == *h_rel && d.prec.tail() == *t_fix,
        PatternMeta::FR { h_fix, t_rel } => d.prec.head() == *h_fix && t == *t_rel,
        PatternMeta::FF { h_fix, t_fix } => d.prec.head() == *h_fix && d.prec.tail() == *t_fix,
        PatternMeta::RRChain { dir } => chain_dir(d) == Some(*dir),
    }
}

/// Intersects a signed row interval with a range's rows and rebuilds the
/// single-column result in the range's column.
fn clamp_rows(col: u32, lo: i64, hi: i64, within: Range) -> Option<Range> {
    let lo = lo.max(i64::from(within.head().row));
    let hi = hi.min(i64::from(within.tail().row));
    if lo > hi {
        return None;
    }
    Some(Range::from_coords(col, lo as u32, col, hi as u32))
}

/// `findDep(e, r)`: the dependents of `r` within the edge, where `r` is
/// contained in `e.prec` — one range of the run, or none.
pub(crate) fn find_dep(meta: &PatternMeta, prec: Range, dep: Range, r: Range) -> Option<Range> {
    debug_assert!(prec.contains(&r), "findDep requires r ⊆ e.prec");
    let col = dep.head().col;
    match meta {
        PatternMeta::Single => Some(dep),
        PatternMeta::RR { h_rel, t_rel } => {
            // Back-calculate (Fig. 6): the head dependent's precedent tail
            // lies in r's top row and in prec's right-most column; the tail
            // dependent's precedent head lies in r's bottom row / prec's
            // left-most column.
            let dh_row = i64::from(r.head().row) - t_rel.dr;
            let dt_row = i64::from(r.tail().row) - h_rel.dr;
            clamp_rows(col, dh_row, dt_row, dep)
        }
        PatternMeta::RF { h_rel, .. } => {
            // Fig. 7: e.dep.head references all of e.prec, so it is the head
            // dependent of any r; windows shrink moving down.
            let dt_row = i64::from(r.tail().row) - h_rel.dr;
            clamp_rows(col, i64::from(dep.head().row), dt_row, dep)
        }
        PatternMeta::FR { t_rel, .. } => {
            // Dual of RF: e.dep.tail references all of e.prec.
            let dh_row = i64::from(r.head().row) - t_rel.dr;
            clamp_rows(col, dh_row, i64::from(dep.tail().row), dep)
        }
        PatternMeta::FF { .. } => Some(dep),
        PatternMeta::RRChain { dir } => match dir {
            // Transitive within the chain (Fig. 9): everything downstream of
            // r.head's direct dependent.
            ChainDir::Above => {
                clamp_rows(col, i64::from(r.head().row) + 1, i64::from(dep.tail().row), dep)
            }
            ChainDir::Below => {
                clamp_rows(col, i64::from(dep.head().row), i64::from(r.tail().row) - 1, dep)
            }
        },
    }
}

/// `findPrec(e, s)`: the precedents of `s` within the edge, where `s` is
/// contained in `e.dep` — one range, or none (a chain's head reads no
/// cell of its own run).
pub(crate) fn find_prec(meta: &PatternMeta, prec: Range, dep: Range, s: Range) -> Option<Range> {
    debug_assert!(dep.contains(&s), "findPrec requires s ⊆ e.dep");
    match meta {
        PatternMeta::Single => Some(prec),
        PatternMeta::RR { h_rel, t_rel } => {
            // Union of sliding windows: head of s.head's precedent through
            // tail of s.tail's precedent.
            Some(Range::new(s.head().offset_saturating(*h_rel), s.tail().offset_saturating(*t_rel)))
        }
        PatternMeta::RF { h_rel, t_fix } => {
            // s.head's precedent contains all others (shrinking windows).
            Some(Range::new(s.head().offset_saturating(*h_rel), *t_fix))
        }
        PatternMeta::FR { h_fix, t_rel } => {
            // s.tail's precedent contains all others (expanding windows).
            Some(Range::new(*h_fix, s.tail().offset_saturating(*t_rel)))
        }
        PatternMeta::FF { h_fix, t_fix } => Some(Range::new(*h_fix, *t_fix)),
        PatternMeta::RRChain { dir } => {
            let col = prec.head().col;
            match dir {
                // Transitive upstream chain segment.
                ChainDir::Above => {
                    clamp_rows(col, i64::from(prec.head().row), i64::from(s.tail().row) - 1, prec)
                }
                ChainDir::Below => {
                    clamp_rows(col, i64::from(s.head().row) + 1, i64::from(prec.tail().row), prec)
                }
            }
        }
    }
}

/// Which way a query walks the graph.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Toward the formulae that read a range (`findDep`).
    Dependents,
    /// Toward the ranges a formula reads (`findPrec`).
    Precedents,
}

/// The in-edge transitive closure of one query step, in O(1). `found` is
/// the range [`find_dep`] (`Dependents`) or [`find_prec`]
/// (`Precedents`) just returned for the edge; the result adds every cell
/// the edge reaches from it transitively, which a BFS would otherwise find
/// by probing the same edge once per step.
///
/// Among the one-hop patterns only an RR edge whose window columns include
/// its dependent column (`h_rel.dc ≤ 0 ≤ t_rel.dc`: Fibonacci `SUM(A1:A2)`
/// filled down, a window over its own cell) reaches itself. A step maps
/// the run's rows `[lo, hi]` it reached to `[lo − t.dr, hi − h.dr]`
/// (dependents) or `[lo + h.dr, hi + t.dr]` (precedents), clipped to the
/// run. The width never shrinks, so if the first step's rows touch the
/// found rows (width `w`), every step's touch the last's and the reached
/// rows are one interval. The closure therefore runs to the run's head iff
/// a step moves up and touches — `t.dr > 0 && h.dr ≤ w` for dependents,
/// `h.dr < 0 && −t.dr ≤ w` for precedents — and to its tail in the mirror
/// case; for precedents the result then ends where that end row's window
/// does. Otherwise — a window that skips rows, one that never leaves its
/// own row — `found` comes back unchanged and the BFS steps as before.
pub(crate) fn close_window(meta: &PatternMeta, dep: Range, found: Range, dir: Direction) -> Range {
    let PatternMeta::RR { h_rel, t_rel } = meta else {
        return found;
    };
    if h_rel.dc > 0 || t_rel.dc < 0 {
        return found;
    }
    let (head, tail) = (dep.head(), dep.tail());
    // The run's formula rows inside `found`: all of it for dependents,
    // its slice of the dependent column for precedents.
    let lo = found.head().row.max(head.row);
    let hi = found.tail().row.min(tail.row);
    if lo > hi {
        return found;
    }
    let w = i64::from(hi - lo) + 1;
    let (h, t) = (h_rel.dr, t_rel.dr);
    // Whether the closure runs to the run's head / tail, and the row it
    // then ends on: the end formula's own row, or the edge of its window.
    let (to_head, to_tail, head_row, tail_row) = match dir {
        Direction::Dependents => (t > 0 && h <= w, h < 0 && -t <= w, head.row, tail.row),
        Direction::Precedents => (
            h < 0 && -t <= w,
            t > 0 && h <= w,
            head.offset_saturating(*h_rel).row,
            tail.offset_saturating(*t_rel).row,
        ),
    };
    let (mut top, mut bottom) = (found.head(), found.tail());
    if to_head {
        top.row = head_row;
    }
    if to_tail {
        bottom.row = tail_row;
    }
    Range::new(top, bottom)
}

/// The structural precedent of a sub-run `seg` of an edge's dependents —
/// the exact bounding precedent the new (smaller) edge must carry. Unlike
/// `find_prec`, chains use the *direct* reference here (shifting by one),
/// not the transitive closure, because we are rebuilding edge structure.
fn seg_prec(meta: &PatternMeta, seg: Range) -> Range {
    match meta {
        PatternMeta::Single => unreachable!("single edges are removed whole"),
        PatternMeta::RR { h_rel, t_rel } => {
            Range::new(seg.head().offset_saturating(*h_rel), seg.tail().offset_saturating(*t_rel))
        }
        PatternMeta::RF { h_rel, t_fix } => {
            Range::new(seg.head().offset_saturating(*h_rel), *t_fix)
        }
        PatternMeta::FR { h_fix, t_rel } => {
            Range::new(*h_fix, seg.tail().offset_saturating(*t_rel))
        }
        PatternMeta::FF { h_fix, t_fix } => Range::new(*h_fix, *t_fix),
        PatternMeta::RRChain { dir } => {
            let rel = dir.rel();
            Range::new(seg.head().offset_saturating(rel), seg.tail().offset_saturating(rel))
        }
    }
}

/// `removeDep(e, s)`: removes the dependencies for the formula cells `s`
/// from the edge and returns the edges reconstructing the remainder
/// (Alg. 1 lines 23–30): the rows of the run above the cut and the rows
/// below it. `s` need not be contained in `e.dep`; only the overlap is
/// removed, and an edge `s` misses comes back whole as the first part.
/// Two `None`s mean the whole edge disappears.
pub(crate) fn remove_dep(
    meta: &PatternMeta,
    prec: Range,
    dep: Range,
    s: Range,
) -> [Option<CanonParts>; 2] {
    let Some(cut) = dep.intersect(&s) else {
        return [Some(CanonParts { prec, dep, meta: *meta, count: count_for(meta, dep) }), None];
    };
    if matches!(meta, PatternMeta::Single) {
        // A single dependency is dropped whole by any overlap.
        return [None, None];
    }
    // `clamp_rows` keeps each side within the run, and drops it when the
    // cut reaches the run's head or tail.
    let part = |lo: i64, hi: i64| {
        let seg = clamp_rows(dep.head().col, lo, hi, dep)?;
        Some(CanonParts {
            prec: seg_prec(meta, seg),
            dep: seg,
            meta: if seg.is_cell() { PatternMeta::Single } else { *meta },
            count: seg.height(),
        })
    };
    let (top, bottom) = (i64::from(cut.head().row), i64::from(cut.tail().row));
    [part(i64::MIN, top - 1), part(bottom + 1, i64::MAX)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    /// The parts [`remove_dep`] returns, in order.
    fn parts_of(meta: &PatternMeta, prec: Range, dep: Range, s: Range) -> Vec<CanonParts> {
        remove_dep(meta, prec, dep, s).into_iter().flatten().collect()
    }

    fn dep(prec: &str, d: &str) -> CanonDep {
        CanonDep { prec: r(prec), dep: c(d) }
    }

    // ---- rel -------------------------------------------------------------

    #[test]
    fn rel_matches_paper_example() {
        // e' = A5:B7 → C5: hRel = (−2, 0), tRel = (−1, 2).
        let (h, t) = rel(r("A5:B7"), c("C5"));
        assert_eq!(h, Offset::new(-2, 0));
        assert_eq!(t, Offset::new(-1, 2));
    }

    // ---- pair_meta (addDep on two singles) --------------------------------

    #[test]
    fn rr_pairs_sliding_windows() {
        // Fig. 4a: C1=SUM(A1:B3), C2=SUM(A2:B4).
        let m = pair_meta(PatternType::RR, &dep("A1:B3", "C1"), &dep("A2:B4", "C2")).unwrap();
        assert_eq!(m, PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) });
        // Order independence.
        let m2 = pair_meta(PatternType::RR, &dep("A2:B4", "C2"), &dep("A1:B3", "C1")).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn rr_rejects_mismatched_rel() {
        assert!(pair_meta(PatternType::RR, &dep("A1:B3", "C1"), &dep("A2:B5", "C2")).is_none());
    }

    #[test]
    fn rr_rejects_non_adjacent_or_cross_column() {
        assert!(pair_meta(PatternType::RR, &dep("A1:B3", "C1"), &dep("A3:B5", "C3")).is_none());
        assert!(pair_meta(PatternType::RR, &dep("A1:B3", "C1"), &dep("B2:C4", "D2")).is_none());
    }

    #[test]
    fn rf_pairs_shrinking_windows() {
        // Fig. 4b: C1=SUM(A1:B4), C2=SUM(A2:B4).
        let m = pair_meta(PatternType::RF, &dep("A1:B4", "C1"), &dep("A2:B4", "C2")).unwrap();
        assert_eq!(m, PatternMeta::RF { h_rel: Offset::new(-2, 0), t_fix: c("B4") });
    }

    #[test]
    fn fr_pairs_expanding_windows() {
        // Fig. 4c: C1=SUM(A1:B1), C2=SUM(A1:B2).
        let m = pair_meta(PatternType::FR, &dep("A1:B1", "C1"), &dep("A1:B2", "C2")).unwrap();
        assert_eq!(m, PatternMeta::FR { h_fix: c("A1"), t_rel: Offset::new(-1, 0) });
    }

    #[test]
    fn ff_pairs_identical_windows() {
        // Fig. 4d.
        let m = pair_meta(PatternType::FF, &dep("A1:B3", "C1"), &dep("A1:B3", "C2")).unwrap();
        assert_eq!(m, PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") });
    }

    #[test]
    fn chain_pairs_above() {
        // Fig. 9: A2=A1+1, A3=A2+1.
        let m = pair_meta(PatternType::RRChain, &dep("A1", "A2"), &dep("A2", "A3")).unwrap();
        assert_eq!(m, PatternMeta::RRChain { dir: ChainDir::Above });
    }

    #[test]
    fn chain_rejects_non_chain_and_mixed_dirs() {
        assert!(pair_meta(PatternType::RRChain, &dep("B1", "A2"), &dep("B2", "A3")).is_none());
        assert!(pair_meta(PatternType::RRChain, &dep("A1", "A2"), &dep("A4", "A3")).is_none());
        assert!(pair_meta(PatternType::RRChain, &dep("A1:A2", "A3"), &dep("A2:A3", "A4")).is_none());
    }

    // ---- can_extend --------------------------------------------------------

    #[test]
    fn extend_rr_at_both_ends() {
        let m = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) };
        let run = r("C2:C3");
        // Extend below (C4 references A4:B6).
        assert!(can_extend(&m, run, &dep("A4:B6", "C4")));
        // Extend above (C1 references A1:B3).
        assert!(can_extend(&m, run, &dep("A1:B3", "C1")));
        // Wrong rel.
        assert!(!can_extend(&m, run, &dep("A4:B7", "C4")));
        // Not adjacent.
        assert!(!can_extend(&m, run, &dep("A5:B7", "C5")));
        // Wrong column.
        assert!(!can_extend(&m, run, &dep("B4:C6", "D4")));
    }

    #[test]
    fn extend_rf_requires_fixed_tail() {
        let m = PatternMeta::RF { h_rel: Offset::new(-2, 0), t_fix: c("B4") };
        assert!(can_extend(&m, r("C1:C2"), &dep("A3:B4", "C3")));
        assert!(!can_extend(&m, r("C1:C2"), &dep("A3:B5", "C3")));
    }

    #[test]
    fn extend_ff() {
        let m = PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") };
        assert!(can_extend(&m, r("C1:C2"), &dep("A1:B3", "C3")));
        assert!(!can_extend(&m, r("C1:C2"), &dep("A1:B4", "C3")));
    }

    #[test]
    fn extend_chain() {
        let m = PatternMeta::RRChain { dir: ChainDir::Above };
        assert!(can_extend(&m, r("A2:A3"), &dep("A3", "A4")));
        assert!(!can_extend(&m, r("A2:A3"), &dep("A5", "A4")));
    }

    // ---- find_dep ----------------------------------------------------------

    #[test]
    fn find_dep_rr_full_prec() {
        // Fig. 4a: prec A1:B6, dep C1:C4.
        let m = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) };
        assert_eq!(find_dep(&m, r("A1:B6"), r("C1:C4"), r("A1:B6")), Some(r("C1:C4")));
    }

    #[test]
    fn find_dep_rr_single_cell_probe() {
        let m = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) };
        // A3 is inside windows of C1 (A1:B3), C2 (A2:B4), C3 (A3:B5):
        // dh = row 3 - tRel.dr(2) = 1, dt = row 3 - hRel.dr(0) = 3.
        assert_eq!(find_dep(&m, r("A1:B6"), r("C1:C4"), r("A3")), Some(r("C1:C3")));
        // B6 only in window of C4.
        assert_eq!(find_dep(&m, r("A1:B6"), r("C1:C4"), r("B6")), Some(r("C4")));
        // A1 only in window of C1 (clamped from below).
        assert_eq!(find_dep(&m, r("A1:B6"), r("C1:C4"), r("A1")), Some(r("C1")));
    }

    #[test]
    fn find_dep_rf() {
        // Fig. 4b: prec A1:B4, dep C1:C4, windows shrink.
        let m = PatternMeta::RF { h_rel: Offset::new(-2, 0), t_fix: c("B4") };
        // B4 is in every window.
        assert_eq!(find_dep(&m, r("A1:B4"), r("C1:C4"), r("B4")), Some(r("C1:C4")));
        // A2 is in windows of C1 (A1:B4) and C2 (A2:B4).
        assert_eq!(find_dep(&m, r("A1:B4"), r("C1:C4"), r("A2")), Some(r("C1:C2")));
        // A1 only in C1's window.
        assert_eq!(find_dep(&m, r("A1:B4"), r("C1:C4"), r("A1")), Some(r("C1")));
    }

    #[test]
    fn find_dep_fr() {
        // Fig. 4c: prec A1:B3, dep C1:C3, windows expand.
        let m = PatternMeta::FR { h_fix: c("A1"), t_rel: Offset::new(-1, 0) };
        // A1 is in every window.
        assert_eq!(find_dep(&m, r("A1:B3"), r("C1:C3"), r("A1")), Some(r("C1:C3")));
        // B2 is in windows of C2 (A1:B2) and C3 (A1:B3).
        assert_eq!(find_dep(&m, r("A1:B3"), r("C1:C3"), r("B2")), Some(r("C2:C3")));
        // B3 only in C3's window.
        assert_eq!(find_dep(&m, r("A1:B3"), r("C1:C3"), r("B3")), Some(r("C3")));
    }

    #[test]
    fn find_dep_ff_returns_whole_dep() {
        let m = PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") };
        assert_eq!(find_dep(&m, r("A1:B3"), r("C1:C3"), r("B2")), Some(r("C1:C3")));
    }

    #[test]
    fn find_dep_chain_is_transitive() {
        // Fig. 9: prec A1:A3, dep A2:A4.
        let m = PatternMeta::RRChain { dir: ChainDir::Above };
        // Dependents of A2: everything below it in the chain (A3:A4).
        assert_eq!(find_dep(&m, r("A1:A3"), r("A2:A4"), r("A2")), Some(r("A3:A4")));
        // Dependents of A1: A2:A4.
        assert_eq!(find_dep(&m, r("A1:A3"), r("A2:A4"), r("A1")), Some(r("A2:A4")));
        // Dependents of A3 (within prec): A4.
        assert_eq!(find_dep(&m, r("A1:A3"), r("A2:A4"), r("A3")), Some(r("A4")));
    }

    #[test]
    fn find_dep_chain_below() {
        // B1=B2+1, B2=B3+1, B3=B4+1: prec B2:B4, dep B1:B3, dir Below.
        let m = PatternMeta::RRChain { dir: ChainDir::Below };
        assert_eq!(find_dep(&m, r("B2:B4"), r("B1:B3"), r("B4")), Some(r("B1:B3")));
        assert_eq!(find_dep(&m, r("B2:B4"), r("B1:B3"), r("B2")), Some(r("B1")));
    }

    #[test]
    fn find_dep_out_of_range_is_empty() {
        // Probe rows whose computed dependents fall outside e.dep.
        let m = PatternMeta::RR { h_rel: Offset::new(-1, -3), t_rel: Offset::new(-1, -3) };
        // dep C4:C6 references B1:B3 (3 rows above, to the left).
        assert_eq!(find_dep(&m, r("B1:B3"), r("C4:C6"), r("B1")), Some(r("C4")));
    }

    // ---- find_prec ---------------------------------------------------------

    #[test]
    fn find_prec_rr() {
        let m = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) };
        // Precedents of C2:C3 = A2:B5 (union of A2:B4 and A3:B5).
        assert_eq!(find_prec(&m, r("A1:B6"), r("C1:C4"), r("C2:C3")), Some(r("A2:B5")));
        assert_eq!(find_prec(&m, r("A1:B6"), r("C1:C4"), r("C1")), Some(r("A1:B3")));
    }

    #[test]
    fn find_prec_rf() {
        let m = PatternMeta::RF { h_rel: Offset::new(-2, 0), t_fix: c("B4") };
        // Precedent of C2:C4 = C2's window A2:B4 (it contains the others).
        assert_eq!(find_prec(&m, r("A1:B4"), r("C1:C4"), r("C2:C4")), Some(r("A2:B4")));
    }

    #[test]
    fn find_prec_fr() {
        let m = PatternMeta::FR { h_fix: c("A1"), t_rel: Offset::new(-1, 0) };
        // Precedent of C1:C2 = C2's window A1:B2.
        assert_eq!(find_prec(&m, r("A1:B3"), r("C1:C3"), r("C1:C2")), Some(r("A1:B2")));
    }

    #[test]
    fn find_prec_ff() {
        let m = PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") };
        assert_eq!(find_prec(&m, r("A1:B3"), r("C1:C3"), r("C2")), Some(r("A1:B3")));
    }

    #[test]
    fn find_prec_chain_is_transitive() {
        let m = PatternMeta::RRChain { dir: ChainDir::Above };
        // Precedents of A4 within prec A1:A3: A1:A3 (whole upstream chain).
        assert_eq!(find_prec(&m, r("A1:A3"), r("A2:A4"), r("A4")), Some(r("A1:A3")));
        // Precedents of A2: A1.
        assert_eq!(find_prec(&m, r("A1:A3"), r("A2:A4"), r("A2")), Some(r("A1")));
    }

    // ---- close_window -------------------------------------------------------

    #[test]
    fn close_window_runs_fibonacci_to_either_end() {
        // A3:A9 = SUM(A{r-2}:A{r-1}): prec A1:A8.
        let m = PatternMeta::RR { h_rel: Offset::new(0, -2), t_rel: Offset::new(0, -1) };
        let close = |found, dir| close_window(&m, r("A3:A9"), r(found), dir);
        // A1's direct dependent A3 reaches the tail, one row at a time.
        assert_eq!(find_dep(&m, r("A1:A8"), r("A3:A9"), r("A1")), Some(r("A3")));
        assert_eq!(close("A3", Direction::Dependents), r("A3:A9"));
        assert_eq!(close("A6:A7", Direction::Dependents), r("A6:A9"));
        // A9 reads A7:A8, which read everything up to A1.
        assert_eq!(find_prec(&m, r("A1:A8"), r("A3:A9"), r("A9")), Some(r("A7:A8")));
        assert_eq!(close("A7:A8", Direction::Precedents), r("A1:A8"));
        // A3's window holds no formula of the run: nothing to close.
        assert_eq!(close("A1:A2", Direction::Precedents), r("A1:A2"));
    }

    #[test]
    fn close_window_runs_a_self_including_window_up_its_column() {
        // The corpus shape: D1:D9 reads C{r}:E{r+2}, its own cell included.
        let m = PatternMeta::RR { h_rel: Offset::new(-1, 0), t_rel: Offset::new(1, 2) };
        let close = |found, dir| close_window(&m, r("D1:D9"), r(found), dir);
        assert_eq!(find_dep(&m, r("C1:E11"), r("D1:D9"), r("E9")), Some(r("D7:D9")));
        assert_eq!(close("D7:D9", Direction::Dependents), r("D1:D9"));
        assert_eq!(find_prec(&m, r("C1:E11"), r("D1:D9"), r("D4")), Some(r("C4:E6")));
        assert_eq!(close("C4:E6", Direction::Precedents), r("C4:E11"));
        // Windows reaching both ways close over the whole run.
        let both = PatternMeta::RR { h_rel: Offset::new(0, -1), t_rel: Offset::new(0, 1) };
        assert_eq!(close_window(&both, r("D2:D9"), r("D5"), Direction::Dependents), r("D2:D9"));
        assert_eq!(close_window(&both, r("D2:D9"), r("D4:D6"), Direction::Precedents), r("D1:D10"));
    }

    #[test]
    fn close_window_leaves_what_cannot_reach_itself() {
        let dep = r("B5:B20");
        for (h, t, found, dir) in [
            // Windows that skip rows: each step's rows do not touch the last's.
            ((0, -3), (0, -3), "B8", Direction::Dependents),
            ((0, 2), (0, 3), "B8", Direction::Dependents),
            ((0, -4), (0, -3), "B6:B7", Direction::Precedents),
            // A window in another column, or in the formula's own row only.
            ((-1, -1), (-1, -1), "B8", Direction::Dependents),
            ((1, -2), (2, -1), "C6:D7", Direction::Precedents),
            ((0, 0), (0, 0), "B8", Direction::Dependents),
        ] {
            let m = PatternMeta::RR { h_rel: Offset::new(h.0, h.1), t_rel: Offset::new(t.0, t.1) };
            assert_eq!(close_window(&m, dep, r(found), dir), r(found), "{m:?} {found}");
        }
        // Other patterns are not closed here.
        let chain = PatternMeta::RRChain { dir: ChainDir::Above };
        assert_eq!(close_window(&chain, dep, r("B5"), Direction::Dependents), r("B5"));
    }

    // ---- remove_dep --------------------------------------------------------

    #[test]
    fn remove_middle_splits_edge() {
        // Paper: removing C2 from C1:C4 leaves C1 and C3:C4.
        let m = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 2) };
        let parts = parts_of(&m, r("A1:B6"), r("C1:C4"), r("C2"));
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].dep, r("C1"));
        assert_eq!(parts[0].meta, PatternMeta::Single);
        assert_eq!(parts[0].prec, r("A1:B3"));
        assert_eq!(parts[0].count, 1);
        assert_eq!(parts[1].dep, r("C3:C4"));
        assert_eq!(parts[1].meta, m);
        assert_eq!(parts[1].prec, r("A3:B6"));
        assert_eq!(parts[1].count, 2);
    }

    #[test]
    fn remove_head_keeps_the_rows_below() {
        // A cut on the run's first row (row 1: nothing above to keep).
        let m = PatternMeta::RR { h_rel: Offset::new(-1, 0), t_rel: Offset::new(-1, 0) };
        let got = remove_dep(&m, r("B1:B4"), r("C1:C4"), r("C1:D1"));
        assert_eq!(got[0], None);
        let below = got[1].as_ref().unwrap();
        assert_eq!(
            (below.dep, below.prec, below.meta, below.count),
            (r("C2:C4"), r("B2:B4"), m, 3)
        );
    }

    #[test]
    fn remove_whole_dep_erases_edge() {
        let m = PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") };
        assert!(parts_of(&m, r("A1:B3"), r("C1:C3"), r("C1:C3")).is_empty());
        // Superset also erases.
        assert!(parts_of(&m, r("A1:B3"), r("C1:C3"), r("C1:C9")).is_empty());
    }

    #[test]
    fn remove_disjoint_keeps_edge() {
        let m = PatternMeta::FF { h_fix: c("A1"), t_fix: c("B3") };
        let parts = parts_of(&m, r("A1:B3"), r("C1:C3"), r("D1:D3"));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].dep, r("C1:C3"));
        assert_eq!(parts[0].meta, m);
    }

    #[test]
    fn remove_from_single_erases() {
        assert!(parts_of(&PatternMeta::Single, r("A1:A3"), r("B1"), r("B1")).is_empty());
    }

    #[test]
    fn remove_end_of_chain() {
        let m = PatternMeta::RRChain { dir: ChainDir::Above };
        let parts = parts_of(&m, r("A1:A3"), r("A2:A4"), r("A4"));
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].dep, r("A2:A3"));
        assert_eq!(parts[0].prec, r("A1:A2"));
        assert_eq!(parts[0].meta, m);
    }

    // ---- counting ----------------------------------------------------------

    #[test]
    fn count_for_patterns() {
        assert_eq!(count_for(&PatternMeta::Single, r("C1")), 1);
        let rr = PatternMeta::RR { h_rel: Offset::ZERO, t_rel: Offset::ZERO };
        assert_eq!(count_for(&rr, r("C1:C10")), 10);
    }

    #[test]
    fn cue_matching() {
        use crate::Cue;
        let none = Cue::NONE;
        let fr = Cue { head_fixed: true, tail_fixed: false };
        let rf = Cue { head_fixed: false, tail_fixed: true };
        let ff = Cue { head_fixed: true, tail_fixed: true };
        assert!(PatternType::RR.matches_cue(none));
        assert!(PatternType::FR.matches_cue(fr));
        assert!(PatternType::RF.matches_cue(rf));
        assert!(PatternType::FF.matches_cue(ff));
        assert!(!PatternType::RR.matches_cue(ff));
        assert!(!PatternType::FF.matches_cue(none));
    }

    #[test]
    fn chain_is_special_case_of_rr() {
        assert!(PatternType::RRChain.is_special_case_of(PatternType::RR));
        assert!(!PatternType::RR.is_special_case_of(PatternType::RRChain));
        assert!(!PatternType::FF.is_special_case_of(PatternType::RR));
    }
}
