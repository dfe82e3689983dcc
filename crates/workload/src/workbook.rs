//! Multi-sheet workbook generator.
//!
//! Real Enron/Github files are workbooks, not lone sheets: each worksheet
//! carries its own pattern mix (which [`crate::generator`] reproduces),
//! and a fraction of formulae reach *across* sheets — rollups against a
//! fixed table on another sheet (cross-sheet FF) and hand-offs where each
//! sheet continues a running value from its predecessor (cross-sheet
//! chains). [`gen_workbook`] synthesizes both: per-sheet dependency
//! streams plus a [`CrossDep`] table, with every cross dependency pointing
//! from a lower-indexed sheet to a higher-indexed one so the sheet graph
//! stays acyclic and the engine's sheet scheduler has real levels to
//! order.

use crate::generator::{gen_sheet, SheetParams, SyntheticSheet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_grid::{Cell, Range};

/// Column strip reserved for cross-sheet formula cells, far to the right
/// of anything the per-sheet generator allocates at realistic sizes.
const XCOL_BASE: u32 = 15_000;

/// One cross-sheet dependency: the formula at `dst_sheet!dep` references
/// the range `src_sheet!prec`. Sheet indices are positions in
/// [`SyntheticWorkbook::sheets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrossDep {
    /// Index of the sheet holding the referenced range.
    pub src_sheet: usize,
    /// The referenced range on the source sheet.
    pub prec: Range,
    /// Index of the sheet holding the formula.
    pub dst_sheet: usize,
    /// The formula cell on the destination sheet.
    pub dep: Cell,
}

/// Parameters for one synthetic workbook.
#[derive(Debug, Clone)]
pub struct WorkbookParams {
    /// Workbook label (sheet `i` is named `"{name}-{i:02}"`).
    pub name: String,
    /// Number of sheets.
    pub sheets: usize,
    /// Per-sheet generator parameters (pattern mix, sizes).
    pub sheet: SheetParams,
    /// Fraction of each sheet's local dependency count emitted *again* as
    /// cross-sheet dependencies into that sheet (clamped to `[0, 0.5]`).
    pub cross_frac: f64,
    /// RNG seed; generation is fully deterministic in `(params)`.
    pub seed: u64,
}

impl Default for WorkbookParams {
    fn default() -> Self {
        WorkbookParams {
            name: "wb".to_string(),
            sheets: 8,
            sheet: SheetParams { target_deps: 4_000, ..SheetParams::default() },
            cross_frac: 0.05,
            seed: 0x3000,
        }
    }
}

/// A generated workbook: per-sheet dependency streams plus the cross-sheet
/// dependency table.
#[derive(Debug, Clone)]
pub struct SyntheticWorkbook {
    /// Workbook label.
    pub name: String,
    /// One generated sheet per index (each with its own pattern mix).
    pub sheets: Vec<SyntheticSheet>,
    /// Cross-sheet dependencies, all with `src_sheet < dst_sheet`.
    pub cross: Vec<CrossDep>,
}

impl SyntheticWorkbook {
    /// Total dependencies, local and cross.
    pub fn total_deps(&self) -> usize {
        self.sheets.iter().map(|s| s.deps.len()).sum::<usize>() + self.cross.len()
    }
}

/// Generates one workbook deterministically.
pub fn gen_workbook(params: &WorkbookParams) -> SyntheticWorkbook {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let sheets: Vec<SyntheticSheet> = (0..params.sheets)
        .map(|i| {
            let name = format!("{}-{i:02}", params.name);
            gen_sheet(&name, params.seed.wrapping_add(1 + i as u64), &params.sheet)
        })
        .collect();

    let frac = params.cross_frac.clamp(0.0, 0.5);
    let mut cross = Vec::new();
    for dst in 1..sheets.len() {
        let quota = (sheets[dst].deps.len() as f64 * frac).ceil() as u32;
        for k in 0..quota {
            // One reserved-strip row per cross dep, from row 2 down.
            let dep = Cell::new(XCOL_BASE + (dst as u32 % 200), 2 + k);
            if k % 2 == 0 {
                // Cross-sheet FF: a rollup over a fixed table on a random
                // earlier sheet (hot cells make good probe targets).
                let src = rng.gen_range(0..dst);
                let anchor = sheets[src]
                    .hot_cells
                    .get(k as usize % sheets[src].hot_cells.len().max(1))
                    .copied()
                    .unwrap_or(Cell::new(2, 2));
                let h = rng.gen_range(1..20);
                let prec = Range::from_coords(
                    anchor.col,
                    anchor.row,
                    anchor.col + rng.gen_range(0..2),
                    anchor.row + h,
                );
                cross.push(CrossDep { src_sheet: src, prec, dst_sheet: dst, dep });
            } else {
                // Cross-sheet chain: continue the predecessor sheet's
                // reserved strip, sheet 0 → 1 → 2 → … (the "carry the
                // running total forward" idiom).
                let prec_cell = Cell::new(XCOL_BASE + ((dst as u32 - 1) % 200), dep.row);
                cross.push(CrossDep {
                    src_sheet: dst - 1,
                    prec: Range::cell(prec_cell),
                    dst_sheet: dst,
                    dep,
                });
            }
        }
    }
    SyntheticWorkbook { name: params.name.clone(), sheets, cross }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> WorkbookParams {
        WorkbookParams {
            sheets: 4,
            sheet: SheetParams { target_deps: 500, max_run: 64, ..SheetParams::default() },
            cross_frac: 0.1,
            ..WorkbookParams::default()
        }
    }

    #[test]
    fn deterministic_for_same_params() {
        let a = gen_workbook(&small());
        let b = gen_workbook(&small());
        assert_eq!(a.cross, b.cross);
        for (x, y) in a.sheets.iter().zip(&b.sheets) {
            assert_eq!(x.deps, y.deps);
        }
        let c = gen_workbook(&WorkbookParams { seed: 9, ..small() });
        assert_ne!(a.cross, c.cross);
    }

    #[test]
    fn cross_deps_are_acyclic_and_scaled() {
        let wb = gen_workbook(&small());
        assert!(!wb.cross.is_empty());
        for d in &wb.cross {
            assert!(d.src_sheet < d.dst_sheet, "{d:?} must point forward");
            assert!(d.dst_sheet < wb.sheets.len());
        }
        // Quota ≈ cross_frac of each destination sheet's local stream.
        for dst in 1..wb.sheets.len() {
            let got = wb.cross.iter().filter(|d| d.dst_sheet == dst).count();
            let want = (wb.sheets[dst].deps.len() as f64 * 0.1).ceil() as usize;
            assert_eq!(got, want, "sheet {dst}");
        }
    }

    #[test]
    fn chain_deps_link_consecutive_sheets() {
        let wb = gen_workbook(&small());
        assert!(wb.cross.iter().any(|d| d.dst_sheet == d.src_sheet + 1 && d.prec.is_cell()));
    }

    #[test]
    fn total_deps_counts_both_kinds() {
        let wb = gen_workbook(&small());
        let local: usize = wb.sheets.iter().map(|s| s.deps.len()).sum();
        assert_eq!(wb.total_deps(), local + wb.cross.len());
    }
}
