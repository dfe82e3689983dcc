//! The persistence workload: deterministic edit scripts for exercising
//! save → edit burst → crash-simulated reopen.
//!
//! Unlike [`crate::generator`], which emits parsed *dependencies* for
//! graph-level benchmarks, this module emits full [`EditRecord`]s —
//! values and formula source text — because persistence round trips the
//! whole engine state (cells, cached values, dirty sets) and the WAL
//! logs edits, not dependencies. The two presets mirror the corpus
//! presets' pattern mixes at engine scale: the Enron-like script leans
//! on sliding windows and chains, the Github-like script on cumulative
//! totals and fixed-table lookups with longer columns.
//!
//! Everything is a pure function of the parameters: the same
//! [`PersistParams`] always produce the same build script and the same
//! burst, which is what lets tests compare a reopened workbook against a
//! live one edit for edit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_core::StructuralOp;
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_store::EditRecord;

/// Parameters for one persistence workload.
#[derive(Debug, Clone)]
pub struct PersistParams {
    /// Label (sheet `i` is named `"{name}-{i:02}"`).
    pub name: &'static str,
    /// Number of sheets the build script creates.
    pub sheets: usize,
    /// Data rows per sheet.
    pub rows: u32,
    /// Weights for the formula regions, `[windows, cumulative, chain,
    /// lookup]` — the per-preset pattern mix.
    pub mix: [u32; 4],
    /// Emit cross-sheet rollups and carry chains between consecutive
    /// sheets.
    pub cross: bool,
    /// Number of edits in the post-save burst.
    pub burst_edits: usize,
    /// RNG seed for values and the burst.
    pub seed: u64,
}

/// Enron-like mix at engine scale: windows and chains dominate.
pub fn persist_enron_like() -> PersistParams {
    PersistParams {
        name: "enron",
        sheets: 4,
        rows: 96,
        mix: [4, 1, 3, 2],
        cross: true,
        burst_edits: 160,
        seed: 0xE0A1,
    }
}

/// Github-like mix at engine scale: longer columns, heavier cumulative
/// totals and lookups.
pub fn persist_github_like() -> PersistParams {
    PersistParams {
        name: "github",
        sheets: 3,
        rows: 160,
        mix: [2, 4, 1, 4],
        cross: true,
        burst_edits: 220,
        seed: 0x617C,
    }
}

/// One giant sheet, no cross-sheet edges: the whole dirty set lives on a
/// single sheet, the natural case for demand-driven viewport recalc.
/// Wide mix so one sheet holds windows, cumulative totals, a long chain,
/// and lookups at once.
pub fn persist_giant_sheet() -> PersistParams {
    PersistParams {
        name: "giant",
        sheets: 1,
        rows: 512,
        mix: [4, 3, 2, 3],
        cross: false,
        burst_edits: 240,
        seed: 0x61A7,
    }
}

/// A generated workload: the build script, then the burst applied after
/// the first save.
#[derive(Debug, Clone)]
pub struct PersistWorkload {
    /// Preset label.
    pub name: &'static str,
    /// Edits that construct the workbook.
    pub build: Vec<EditRecord>,
    /// Post-save edit burst (value updates, formula rewrites, clears,
    /// structural row/column edits, a late sheet).
    pub burst: Vec<EditRecord>,
}

/// Generates the workload deterministically from its parameters.
pub fn gen_persist_workload(p: &PersistParams) -> PersistWorkload {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut build = Vec::new();
    for s in 0..p.sheets {
        let sheet = s as u32;
        build.push(EditRecord::AddSheet { name: format!("{}-{s:02}", p.name) });
        // Column A: the data column every region reads.
        for row in 1..=p.rows {
            build.push(set_num(sheet, 1, row, rng.gen_range(-500..500) as f64 / 10.0));
        }
        // Formula regions, one column each (B..=E); each mix weight
        // (0..=4) sets how many of every four rows carry that region, so
        // the presets really differ in pattern density.
        for row in 1..=p.rows {
            let dense = |w: u32| row % 4 < w.min(4);
            // Sliding window (RR): B_r = SUM(A_r:A_{r+2}).
            if dense(p.mix[0]) && row + 2 <= p.rows {
                build.push(set_formula(sheet, 2, row, format!("SUM(A{row}:A{})", row + 2)));
            }
            // Cumulative (FR): C_r = SUM($A$1:A_r).
            if dense(p.mix[1]) {
                build.push(set_formula(sheet, 3, row, format!("SUM($A$1:A{row})")));
            }
            // Chain (RR-Chain): D_r = D_{r-1} + A_r, every row so the
            // chain stays unbroken.
            if p.mix[2] > 0 {
                let src = if row == 1 { "A1".to_string() } else { format!("D{}+A{row}", row - 1) };
                build.push(set_formula(sheet, 4, row, src));
            }
            // Fixed lookup (FF): E_r = SUM($A$1:$A$8)*r — identical
            // reference per row, interning-friendly source prefix.
            if dense(p.mix[3]) {
                build.push(set_formula(sheet, 5, row, format!("SUM($A$1:$A$8)*{row}")));
            }
        }
        // Cross-sheet structure into the previous sheet.
        if p.cross && s > 0 {
            let prev = format!("{}-{:02}", p.name, s - 1);
            build.push(set_formula(sheet, 6, 1, format!("SUM('{prev}'!C1:C{})", p.rows)));
            build.push(set_formula(sheet, 6, 2, format!("'{prev}'!F2+D{}", p.rows)));
        } else if p.cross {
            build.push(set_formula(sheet, 6, 2, format!("D{}", p.rows)));
        }
    }

    // The burst: post-save edits of every WAL record kind.
    let mut burst = Vec::new();
    let mut sheet_count = p.sheets as u32;
    for k in 0..p.burst_edits {
        let sheet = rng.gen_range(0..sheet_count);
        let in_original = sheet < p.sheets as u32;
        match rng.gen_range(0..100u32) {
            // Mostly value updates in the data column.
            0..=59 if in_original => {
                let row = rng.gen_range(1..=p.rows);
                burst.push(set_num(sheet, 1, row, rng.gen_range(-5000..5000) as f64 / 7.0));
            }
            // Formula rewrites.
            60..=79 if in_original => {
                let row = rng.gen_range(1..=p.rows);
                burst.push(set_formula(sheet, 2, row, format!("SUM(A1:A{row})*2")));
            }
            // Range clears.
            80..=89 if in_original => {
                let row = rng.gen_range(1..p.rows);
                burst.push(EditRecord::ClearRange {
                    sheet,
                    range: Range::from_coords(2, row, 5, row + 1),
                });
            }
            // Structural row/column edits: shifts in the data region,
            // the occasional column delete that lands on a formula
            // column and leaves `#REF!`s behind — both must survive
            // WAL replay bit-identically.
            90..=93 if in_original => {
                let n = rng.gen_range(1..=2u32);
                let op = match rng.gen_range(0..4u32) {
                    0 => StructuralOp::InsertRows { at: rng.gen_range(2..=p.rows), n },
                    1 => StructuralOp::DeleteRows { at: rng.gen_range(2..=p.rows), n },
                    2 => StructuralOp::InsertCols { at: rng.gen_range(2..=6), n },
                    _ => StructuralOp::DeleteCols { at: rng.gen_range(5..=6), n: 1 },
                };
                burst.push(EditRecord::Structural { sheet, op });
            }
            // A late sheet plus an edit targeting it.
            94..=96 => {
                burst.push(EditRecord::AddSheet { name: format!("{}-late-{k}", p.name) });
                burst.push(set_num(sheet_count, 1, 1, k as f64));
                sheet_count += 1;
            }
            // Edits against late sheets (or fallthrough for them).
            _ => {
                burst.push(set_num(sheet, 1, rng.gen_range(1..=4), k as f64 / 3.0));
            }
        }
    }
    PersistWorkload { name: p.name, build, burst }
}

fn set_num(sheet: u32, col: u32, row: u32, v: f64) -> EditRecord {
    EditRecord::SetValue { sheet, cell: Cell::new(col, row), value: Value::Number(v) }
}

fn set_formula(sheet: u32, col: u32, row: u32, src: String) -> EditRecord {
    EditRecord::SetFormula { sheet, cell: Cell::new(col, row), src }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic() {
        let a = gen_persist_workload(&persist_enron_like());
        let b = gen_persist_workload(&persist_enron_like());
        assert_eq!(a.build, b.build);
        assert_eq!(a.burst, b.burst);
        let c = gen_persist_workload(&PersistParams { seed: 1, ..persist_enron_like() });
        assert_ne!(a.burst, c.burst);
    }

    #[test]
    fn presets_cover_every_record_kind() {
        for p in [persist_enron_like(), persist_github_like()] {
            let w = gen_persist_workload(&p);
            let all: Vec<&EditRecord> = w.build.iter().chain(&w.burst).collect();
            assert!(all.iter().any(|r| matches!(r, EditRecord::AddSheet { .. })));
            assert!(all.iter().any(|r| matches!(r, EditRecord::SetValue { .. })));
            assert!(all.iter().any(|r| matches!(r, EditRecord::SetFormula { .. })));
            assert!(all.iter().any(|r| matches!(r, EditRecord::ClearRange { .. })));
            assert!(all.iter().any(|r| matches!(r, EditRecord::Structural { .. })));
            // Cross-sheet formulae are present (quoted qualifier).
            assert!(all
                .iter()
                .any(|r| matches!(r, EditRecord::SetFormula { src, .. } if src.contains("'!"))));
        }
        // All four structural kinds appear across the presets' bursts
        // taken together (per-preset would make this hostage to seeds).
        let mut kinds = std::collections::HashSet::new();
        for p in [persist_enron_like(), persist_github_like(), persist_giant_sheet()] {
            for r in gen_persist_workload(&p).burst {
                if let EditRecord::Structural { op, .. } = r {
                    kinds.insert(std::mem::discriminant(&op));
                }
            }
        }
        assert_eq!(kinds.len(), 4, "every structural kind appears across the presets");
    }

    #[test]
    fn giant_sheet_preset_is_single_sheet_and_cross_free() {
        let p = persist_giant_sheet();
        assert_eq!(p.sheets, 1);
        let w = gen_persist_workload(&p);
        // No cross-sheet references anywhere in the build: the whole
        // graph lives on one sheet.
        assert!(!w
            .build
            .iter()
            .any(|r| matches!(r, EditRecord::SetFormula { src, .. } if src.contains("'!"))));
        assert!(w.build.len() > 1000, "giant preset must be meaningfully large");
    }

    #[test]
    fn sheet_indices_stay_dense() {
        // Every record must target a sheet that exists at its point in
        // the script (AddSheet allocates the next dense index).
        for p in [persist_enron_like(), persist_github_like(), persist_giant_sheet()] {
            let w = gen_persist_workload(&p);
            let mut sheets = 0u32;
            for r in w.build.iter().chain(&w.burst) {
                match r {
                    EditRecord::AddSheet { .. } => sheets += 1,
                    EditRecord::SetValue { sheet, .. }
                    | EditRecord::SetFormula { sheet, .. }
                    | EditRecord::ClearRange { sheet, .. }
                    | EditRecord::Structural { sheet, .. } => {
                        assert!(*sheet < sheets, "record targets unborn sheet {sheet}");
                    }
                }
            }
        }
    }
}
