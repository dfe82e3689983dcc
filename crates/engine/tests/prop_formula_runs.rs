//! Formula runs must be invisible: a workbook whose autofilled and
//! typed-alike formulas share one template per run stays, after every
//! edit, bit-identical to a twin that holds the same formulas in the same
//! cells but can share none of them.
//!
//! The twin never autofills: every fill is applied as the formulas
//! `taco_formula::autofill` — the reference, which builds one tree per
//! target — writes, typed in one by one. And every formula it is given is
//! typed with one to four leading spaces, by the cell's position, so that
//! no cell's text is what the template above it (one or three rows up) or
//! to its left prints there: the sharing check, which is textual, fails
//! for every pair of neighbours, while the parser skips the spaces. Same
//! cells, same trees, same fold order — differing text.
//!
//! Compared after every operation: every cell's value (numbers by bit
//! pattern), every formula's text (modulo the twin's leading spaces), and
//! each sheet's graph decompressed to its dependency multiset. The script
//! splits runs (values and clears in the middle), rejoins them (the
//! formula the run would hold, typed back), fills in all four `$` shapes
//! and in all four directions, off the grid included, with sheet-qualified
//! and self-qualified references, inserts and deletes rows and columns
//! through and beside the runs, saves and reopens, and replays its own
//! log of edit records into a third workbook.
//!
//! One column is typed row by row, its numeric literal spelled by a
//! seeded [`Literals`] shape: on a line its slot steps along, off one, or
//! on one but not printed back as typed. Every operation of the script
//! runs through it too.
//!
//! One more column, on a sheet of its own, is typed in pairs with two
//! blank rows after each (the generated workbooks' `dense(2)` shape): one
//! run across the blank rows. A script of its own types values and
//! formulas into the blank rows, clears, inserts and deletes rows there,
//! saves and reopens and replays, against the twin as above — and holds
//! the sheet's template count to a rebuild from its texts after a reopen,
//! and to the live count after a replay of the same history.

#[allow(dead_code)] // the shared helpers this suite does not call
mod common;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_core::{Dependency, StructuralOp};
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::autofill::autofill;
use taco_formula::{CellError, EvalClock, Formula, Value};
use taco_grid::{Cell, Range};
use taco_store::EditRecord;

/// Data rows, and the rows the seeded fills reach.
const ROWS: u32 = 24;
const CALC: SheetId = SheetId(1);
/// The sheet of the column typed in pairs, [`GAP_COL`], beside data in
/// columns A and B.
const GAPS: SheetId = SheetId(2);
const GAP_COL: u32 = 3;

/// The formula columns of `Calc`, by the formula typed into row 2 and
/// filled down: FR, RR, RF, FF with a relative operand, qualified and
/// self-qualified (one qualifier quoted needlessly), a two-column
/// aggregate beside a one-cell range spelled `B1:B1` (which prints as
/// `B1`), and mixed `$` flags. Those two are not typed as the printer
/// writes them, so their fills start a run the typed source is not part
/// of. Last, a `SUMIF` whose sum range is read in the shape of its
/// criteria range, whatever a structural edit makes of either. Column A
/// and B hold data.
const SEEDS: [&str; 8] = [
    "SUM($A$1:A2)",
    "A2+B2*2",
    "SUM(A2:$A$24)",
    "SUM($A$1:$B$4)*A2",
    "Data!A2*2+Calc!B2-'Data'!$B$1",
    "COUNTIF($A$1:A2,\">0\")*B1:B1+AVERAGE($A$1:B2)",
    "$A2+B$2+MAX($B$2:B2)",
    "SUMIF($A$1:A2,\">0\",$B$1:B2)",
];
const FIRST_FORMULA_COL: u32 = 3;
/// One per seeded column, and one more for each of the two sources typed
/// as the printer would not print them; the column typed row by row adds
/// its own ([`Literals::runs`]).
const RUNS_OF_FILLS: usize = SEEDS.len() + 2;

/// How the column typed row by row spells its literal, `D{r}-C{r}*{lit}`.
#[derive(Debug, Clone, Copy)]
enum Literals {
    /// `c + k·r`: integers on a line.
    Integers { c: u32, k: u32 },
    /// `r/2`: halves, printed back and added exactly.
    Halves,
    /// `r/10`: printed back, but `0.2 + 0.1` is not `0.3` in binary.
    Tenths,
    /// `r` spelled as the printer would not (`2.50`, `2e3`).
    Unprinted(&'static str),
    /// One seed-drawn constant in every row.
    Constant(u32),
}

impl Literals {
    fn draw(seed: u64) -> Literals {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x117E_8A15);
        match rng.gen_range(0..6u32) {
            0 => Literals::Integers { c: rng.gen_range(0..50), k: rng.gen_range(1..=3) },
            1 => Literals::Halves,
            2 => Literals::Tenths,
            3 => Literals::Unprinted("{}.50"),
            4 => Literals::Unprinted("{}e3"),
            _ => Literals::Constant(rng.gen_range(0..100)),
        }
    }

    fn at(self, row: u32) -> String {
        match self {
            Literals::Integers { c, k } => (c + k * row).to_string(),
            Literals::Halves => (f64::from(row) / 2.0).to_string(),
            Literals::Tenths => (f64::from(row) / 10.0).to_string(),
            Literals::Unprinted(spelling) => spelling.replace("{}", &row.to_string()),
            Literals::Constant(c) => c.to_string(),
        }
    }

    /// The runs the column is typed into: one for a line, one per row
    /// for a spelling that never steps; for tenths, which fall off the
    /// line every few rows, more than one and fewer than rows.
    fn runs(self) -> std::ops::RangeInclusive<usize> {
        let rows = ROWS as usize - 1;
        match self {
            Literals::Integers { .. } | Literals::Halves | Literals::Constant(_) => 1..=1,
            Literals::Tenths => 2..=rows - 1,
            Literals::Unprinted(_) => rows..=rows,
        }
    }
}

/// What the twin types for `text` at `cell`: the same formula, never the
/// text a neighbour's template prints — the cell to the left, or the
/// nearest above as built (one row up, or three past two blank rows).
fn unshareable(text: &str, cell: Cell) -> String {
    format!("={}{}", " ".repeat(1 + ((cell.col + cell.row) % 4) as usize), text.trim_start())
}

/// The rows of a column typed in pairs, two blank rows after each.
fn in_pairs(row: u32) -> bool {
    row % 4 < 2
}

/// What the column typed in pairs holds at `row`: the generated
/// workbooks' sliding window.
fn window(row: u32) -> String {
    format!("SUM(A{row}:A{})", row + 2)
}

#[derive(Debug, Clone)]
enum Op {
    /// A number into a data column of either sheet.
    Number {
        sheet: usize,
        col: u32,
        row: u32,
        v: i32,
    },
    /// Text into `Calc`'s column A: skipped by sums, `#VALUE!` elsewhere.
    Text {
        row: u32,
    },
    /// A value over a formula cell — the run splits — or into the blank
    /// rows a run spans.
    Overwrite {
        sheet: usize,
        col: u32,
        row: u32,
    },
    /// A clear through some formula columns: several runs split at once.
    Clear {
        sheet: usize,
        col: u32,
        row: u32,
        cols: u32,
        rows: u32,
    },
    /// The formula the cell above — else the cell to the left — would be
    /// filled here with, typed: the run is rejoined, or extended. On
    /// [`GAPS`], the nearest formula up the column instead of the cell
    /// above: the run typed into its own blank rows.
    Retype {
        sheet: usize,
        col: u32,
        row: u32,
    },
    /// A fill from a formula cell, `by` cells in one of four directions.
    Fill {
        col: u32,
        row: u32,
        direction: u8,
        by: u32,
    },
    Structural {
        sheet: usize,
        op: StructuralOp,
    },
    SaveReopen,
    Replay,
}

fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let last_col = FIRST_FORMULA_COL + SEEDS.len() as u32 - 1;
    (0..len)
        .map(|_| {
            let row = rng.gen_range(1..=ROWS + 2);
            let col = rng.gen_range(FIRST_FORMULA_COL..=last_col + 1);
            match rng.gen_range(0..100u32) {
                0..=19 => Op::Number {
                    sheet: rng.gen_range(0..2),
                    col: rng.gen_range(1..=2),
                    row,
                    v: rng.gen_range(-99..99),
                },
                20..=23 => Op::Text { row },
                24..=33 => Op::Overwrite { sheet: CALC.0, col, row },
                34..=41 => Op::Clear {
                    sheet: CALC.0,
                    col,
                    row,
                    cols: rng.gen_range(1..=3),
                    rows: rng.gen_range(1..=3),
                },
                42..=59 => Op::Retype { sheet: CALC.0, col, row },
                60..=77 => {
                    Op::Fill { col, row, direction: rng.gen_range(0..4), by: rng.gen_range(1..=6) }
                }
                78..=91 => {
                    let n = rng.gen_range(1..=2u32);
                    let op = match rng.gen_range(0..4u32) {
                        0 => StructuralOp::InsertRows { at: rng.gen_range(1..=ROWS), n },
                        1 => StructuralOp::DeleteRows { at: rng.gen_range(1..=ROWS), n },
                        2 => StructuralOp::InsertCols { at: rng.gen_range(1..=last_col), n },
                        _ => StructuralOp::DeleteCols { at: rng.gen_range(1..=last_col), n: 1 },
                    };
                    Op::Structural { sheet: rng.gen_range(0..2), op }
                }
                92..=95 => Op::SaveReopen,
                _ => Op::Replay,
            }
        })
        .collect()
}

/// A script for the column typed in pairs on [`GAPS`]: values and
/// formulas typed into its blank rows, clears, rows inserted and deleted
/// at its blank rows, data edits, reopens and replays.
fn gaps_script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6A95);
    let sheet = GAPS.0;
    (0..len)
        .map(|_| {
            // A row left blank as built.
            let gap = 4 * rng.gen_range(0..ROWS / 4) + rng.gen_range(2..=3);
            match rng.gen_range(0..100u32) {
                0..=14 => Op::Number { sheet, col: 1, row: gap - 1, v: rng.gen_range(-99..99) },
                15..=24 => Op::Overwrite { sheet, col: GAP_COL, row: gap },
                25..=44 => Op::Retype { sheet, col: GAP_COL, row: gap },
                45..=54 => Op::Clear {
                    sheet,
                    col: GAP_COL,
                    row: gap - 1,
                    cols: 1,
                    rows: rng.gen_range(1..=3),
                },
                55..=79 => {
                    let n = rng.gen_range(1..=2u32);
                    let op = if rng.gen_range(0..2u32) == 0 {
                        StructuralOp::InsertRows { at: gap, n }
                    } else {
                        StructuralOp::DeleteRows { at: gap, n: n.min(4 - gap % 4) }
                    };
                    Op::Structural { sheet, op }
                }
                80..=89 => Op::SaveReopen,
                _ => Op::Replay,
            }
        })
        .collect()
}

/// The two workbooks, and the log of records that rebuilds the first.
struct Pair {
    shared: Workbook,
    twin: Workbook,
    log: Vec<EditRecord>,
}

impl Pair {
    fn new(literals: Literals) -> Pair {
        let mut pair =
            Pair { shared: Workbook::with_taco(), twin: Workbook::with_taco(), log: Vec::new() };
        for name in ["Data", "Calc", "Gaps"] {
            pair.shared.add_sheet(name).unwrap();
            pair.twin.add_sheet(name).unwrap();
            pair.log.push(EditRecord::AddSheet { name: name.to_string() });
        }
        for sheet in 0..3 {
            for row in 1..=ROWS {
                for col in 1..=2u32 {
                    let v = f64::from(row * (col + 2)) / 8.0 - f64::from(sheet as u32);
                    pair.value(sheet, Cell::new(col, row), Value::Number(v));
                }
            }
        }
        for (i, seed) in SEEDS.iter().enumerate() {
            let from = Cell::new(FIRST_FORMULA_COL + i as u32, 2);
            pair.formula(CALC, from, seed);
            pair.fill(from, Range::from_coords(from.col, 3, from.col, ROWS));
        }
        // A column typed row by row: joins its run without a fill where
        // its literals allow.
        let typed = FIRST_FORMULA_COL + SEEDS.len() as u32;
        for row in 2..=ROWS {
            let text = format!("D{row}-C{row}*{}", literals.at(row));
            pair.formula(CALC, Cell::new(typed, row), &text);
        }
        // A column typed in pairs: joins its run across the blank rows.
        for row in (1..=ROWS - 2).filter(|&row| in_pairs(row)) {
            pair.formula(GAPS, Cell::new(GAP_COL, row), &window(row));
        }
        pair.recalculate();
        pair
    }

    fn value(&mut self, sheet: usize, cell: Cell, value: Value) {
        self.shared.set_value(SheetId(sheet), cell, value.clone());
        self.twin.set_value(SheetId(sheet), cell, value.clone());
        self.log.push(EditRecord::SetValue { sheet: sheet as u32, cell, value });
    }

    /// Types `text` into `sheet` at `cell`.
    fn formula(&mut self, sheet: SheetId, cell: Cell, text: &str) {
        self.shared.set_formula(sheet, cell, text).unwrap();
        self.twin.set_formula(sheet, cell, &unshareable(text, cell)).unwrap();
        let src = text.to_string();
        self.log.push(EditRecord::SetFormula { sheet: sheet.0 as u32, cell, src });
    }

    /// The formulas a fill from `from` on `sheet` writes, by the
    /// reference: one tree built per target, from the source cell's
    /// formula as its text parses.
    fn filled(&self, sheet: SheetId, from: Cell, targets: Range) -> Option<Vec<(Cell, String)>> {
        let text = self.shared.formula_of(sheet, from)?;
        let formula = Formula::parse(&text).expect("a formula's text parses");
        Some(
            autofill(from, &formula, targets)
                .into_iter()
                .map(|f| (f.cell, f.formula.src))
                .collect(),
        )
    }

    fn fill(&mut self, from: Cell, targets: Range) {
        let Some(filled) = self.filled(CALC, from, targets) else {
            assert!(self.shared.autofill(CALC, from, targets).is_err());
            return;
        };
        // The records a fill stands for are the reference's formulas.
        let records = self.shared.autofill_records(CALC, from, targets).unwrap();
        let texts: Vec<(Cell, String)> = records
            .iter()
            .map(|rec| match rec {
                EditRecord::SetFormula { sheet: 1, cell, src } => (*cell, src.clone()),
                other => panic!("a fill is formulas: {other:?}"),
            })
            .collect();
        assert_eq!(texts, filled, "fill {from} over {targets}");
        self.log.extend(records);
        self.shared.autofill(CALC, from, targets).unwrap();
        for (cell, text) in filled {
            self.twin.set_formula(CALC, cell, &unshareable(&text, cell)).unwrap();
        }
    }

    fn apply(&mut self, op: &Op, tag: &str) {
        match *op {
            Op::Number { sheet, col, row, v } => {
                self.value(sheet, Cell::new(col, row), Value::Number(f64::from(v) / 4.0));
            }
            Op::Text { row } => self.value(1, Cell::new(1, row), Value::Text("n/a".into())),
            Op::Overwrite { sheet, col, row } => {
                self.value(sheet, Cell::new(col, row), Value::Number(7.5));
            }
            Op::Clear { sheet, col, row, cols, rows } => {
                let range = Range::from_coords(col, row, col + cols - 1, row + rows - 1);
                self.shared.clear_range(SheetId(sheet), range);
                self.twin.clear_range(SheetId(sheet), range);
                self.log.push(EditRecord::ClearRange { sheet: sheet as u32, range });
            }
            Op::Retype { sheet, col, row } => {
                let (id, cell) = (SheetId(sheet), Cell::new(col, row));
                let above = if id == GAPS {
                    let mut up = (1..row).rev().map(|r| Cell::new(col, r));
                    up.find(|&c| self.shared.formula_of(id, c).is_some())
                } else {
                    (row > 1).then(|| Cell::new(col, row - 1))
                };
                let beside = [above, Some(Cell::new(col - 1, row))];
                let text = beside.into_iter().flatten().find_map(|from| {
                    self.filled(id, from, Range::cell(cell)).map(|mut filled| filled.remove(0).1)
                });
                if let Some(text) = text {
                    self.formula(id, cell, &text);
                }
            }
            Op::Fill { col, row, direction, by } => {
                let from = Cell::new(col, row);
                let targets = match direction {
                    0 => Range::from_coords(col, row + 1, col, row + by),
                    1 => Range::from_coords(col, row.saturating_sub(by).max(1), col, row),
                    2 => Range::from_coords(col + 1, row, col + by, row),
                    _ => Range::from_coords(col.saturating_sub(by).max(1), row, col, row),
                };
                self.fill(from, targets);
            }
            Op::Structural { sheet, op } => {
                self.shared.apply_structural(SheetId(sheet), op);
                self.twin.apply_structural(SheetId(sheet), op);
                self.log.push(EditRecord::Structural { sheet: sheet as u32, op });
            }
            Op::SaveReopen => {
                for (wb, which) in [(&mut self.shared, "shared"), (&mut self.twin, "twin")] {
                    let name = format!("taco_runs_{}_{tag}_{which}.taco", std::process::id());
                    let path = std::env::temp_dir().join(name);
                    wb.save(&path).unwrap();
                    *wb = Workbook::open(&path).unwrap();
                    std::fs::remove_file(&path).ok();
                }
            }
            Op::Replay => {
                let replayed = self.replayed();
                self.recalculate();
                // What a cycle's cells hold depends on how many passes
                // have gone over them (a pass relaxes a cycle once): with
                // one about, only texts and graphs are history-free.
                let cyclic = |wb: &Workbook| {
                    wb.sheet(CALC)
                        .cells()
                        .any(|(_, k)| *k.value() == Value::Error(CellError::Cycle))
                };
                let values = !cyclic(&self.shared) && !cyclic(&replayed);
                assert_same_as(&self.shared, &replayed, values, &format!("{tag}: replayed"));
            }
        }
    }

    /// A third workbook, its log applied record by record, recalculated.
    fn replayed(&self) -> Workbook {
        let mut replayed = Workbook::with_taco();
        for rec in &self.log {
            replayed.apply_edit(rec).unwrap();
        }
        replayed.recalculate(RecalcMode::Serial);
        replayed
    }

    fn recalculate(&mut self) {
        let evaluated = self.shared.recalculate(RecalcMode::Serial);
        assert_eq!(evaluated, self.twin.recalculate(RecalcMode::Serial));
    }

    /// Holds the shared workbook, its twin and its log's replay to the
    /// reference evaluator (cells on or reading a cycle aside).
    fn assert_reference(&self) {
        for wb in [&self.shared, &self.twin, &self.replayed()] {
            common::assert_reference(wb, EvalClock::default(), None);
        }
    }
}

/// Every cell, formula text (leading spaces aside), value and graph
/// dependency of `a` is `b`'s.
fn assert_same(a: &Workbook, b: &Workbook, what: &str) {
    assert_same_as(a, b, true, what);
}

/// [`assert_same`], the values only if `values`.
fn assert_same_as(a: &Workbook, b: &Workbook, values: bool, what: &str) {
    assert_eq!(a.sheet_count(), b.sheet_count(), "{what}");
    // A replay or a twin compresses the reads between sheets afresh:
    // they are held dependency for dependency, not edge for edge.
    assert_eq!(a.cross_table(), b.cross_table(), "{what}");
    for s in 0..a.sheet_count() {
        let (a, b) = (a.sheet(SheetId(s)), b.sheet(SheetId(s)));
        let mut cells = b.cells();
        for (cell, content) in a.cells() {
            let (at, other) = cells.next().unwrap_or_else(|| panic!("{what}: {cell} is missing"));
            assert_eq!(cell, at, "{what}: sheet {s}");
            let text = |f: Option<taco_formula::template::At<'_>>| f.map(|f| f.to_string());
            let (mine, theirs) = (text(content.formula(cell)), text(other.formula(cell)));
            assert_eq!(
                mine.as_deref(),
                theirs.as_deref().map(str::trim_start),
                "{what}: sheet {s} {cell}"
            );
            let same = match (content.value(), other.value()) {
                _ if !values => true,
                (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            };
            assert!(same, "{what}: sheet {s} {cell}: {:?} vs {:?}", content.value(), other.value());
        }
        assert!(cells.next().is_none(), "{what}: sheet {s} has extra cells");
        let deps = |e: &taco_engine::SheetView<'_>| {
            let mut deps: Vec<Dependency> = e.graph().decompress_all();
            deps.sort_unstable_by_key(|d| (d.dep, d.prec.head(), d.prec.tail()));
            deps.into_iter().map(|d| (d.prec, d.dep)).collect::<Vec<_>>()
        };
        assert_eq!(deps(&a), deps(&b), "{what}: sheet {s} graph");
        assert_eq!(a.dirty_count(), b.dirty_count(), "{what}: sheet {s}");
    }
}

/// Builds the pair with the seed's literals, checks the premise, and runs
/// the seed's script, comparing after every operation.
fn run_seed(seed: u64) {
    let literals = Literals::draw(seed);
    let mut pair = Pair::new(literals);
    assert_same(&pair.shared, &pair.twin, "as built");
    // The premise: one workbook shares, the other cannot.
    let templates = |wb: &Workbook| wb.sheet(CALC).formula_templates();
    let cells = pair.shared.sheet(CALC).formula_cells();
    assert_eq!(templates(&pair.twin), cells);
    let typed = templates(&pair.shared) - RUNS_OF_FILLS;
    assert!(literals.runs().contains(&typed), "{literals:?}: {typed} runs");
    assert_gaps_premise(&pair);

    let ops = script(seed, 40);
    for (step, op) in ops.iter().enumerate() {
        pair.apply(op, &format!("{seed}_{step}"));
        // Before the pass too: texts and graphs are already final.
        assert_same_texts(&pair, &format!("seed {seed} after step {step} {op:?}, dirty"));
        pair.recalculate();
        assert_same(&pair.shared, &pair.twin, &format!("seed {seed} after step {step} {op:?}"));
    }
    assert!(templates(&pair.shared) <= pair.shared.sheet(CALC).formula_cells());
    pair.assert_reference();
}

/// The column typed in pairs is one template in the shared workbook, and
/// one per cell in the twin.
fn assert_gaps_premise(pair: &Pair) {
    let cells = pair.shared.sheet(GAPS).formula_cells();
    assert_eq!(cells, (1..=ROWS - 2).filter(|&row| in_pairs(row)).count());
    assert_eq!(pair.shared.sheet(GAPS).formula_templates(), 1);
    assert_eq!(pair.twin.sheet(GAPS).formula_templates(), cells);
}

/// Builds the pair, checks the column typed in pairs, and runs the seed's
/// script for it, comparing after every operation. A run is never split
/// or merged after the fact (a value typed between two of its cells
/// leaves them in it, and so does a clear of what stood between two
/// runs), so the live count of templates depends on history: a reopen is
/// held to a rebuild from the texts, a replay of the log to the live
/// count — as long as the live workbook has the log's history, not a
/// reopen's.
fn run_gaps_seed(seed: u64) {
    let mut pair = Pair::new(Literals::Halves);
    assert_gaps_premise(&pair);
    let templates = |wb: &Workbook| wb.sheet(GAPS).formula_templates();
    // As built, the history is the texts': reopened and replayed, one.
    let path = std::env::temp_dir().join(format!("taco_gaps_{}_{seed}.taco", std::process::id()));
    pair.shared.save(&path).unwrap();
    let opened = Workbook::open(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!((templates(&opened), templates(&pair.replayed())), (1, 1));

    let mut reopened = false;
    for (step, op) in gaps_script(seed, 40).iter().enumerate() {
        let what = format!("gaps seed {seed} after step {step} {op:?}");
        pair.apply(op, &format!("gaps_{seed}_{step}"));
        assert_same_texts(&pair, &format!("{what}, dirty"));
        pair.recalculate();
        assert_same(&pair.shared, &pair.twin, &what);
        match op {
            Op::SaveReopen => {
                let rebuilt = common::rebuild_from_texts(&pair.shared);
                assert_eq!(templates(&pair.shared), templates(&rebuilt), "{what}");
                reopened = true;
            }
            Op::Replay if !reopened => {
                assert_eq!(templates(&pair.replayed()), templates(&pair.shared), "{what}");
            }
            _ => {}
        }
    }
    pair.assert_reference();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shared_templates_never_show(seed in 0u64..1_000_000) {
        run_seed(seed);
    }

    #[test]
    fn a_run_across_blank_rows_never_shows(seed in 0u64..1_000_000) {
        run_gaps_seed(seed);
    }
}

/// The seed on which a left fill made `SUM($A$1:$B$4)*A2` read its own
/// cell, which then held whatever the history left there.
#[test]
fn seed_925913_a_fill_that_reads_its_own_cell() {
    run_seed(925_913);
}

#[test]
fn a_formula_filled_into_its_own_range_is_a_cycle_of_one() {
    let mut wb = Workbook::with_taco();
    let mut log = vec![EditRecord::AddSheet { name: "Calc".into() }];
    let s = wb.add_sheet("Calc").unwrap();
    for row in 1..=4u32 {
        for col in 1..=2u32 {
            let (cell, value) = (Cell::new(col, row), Value::Number(f64::from(row + col)));
            wb.set_value(s, cell, value.clone());
            log.push(EditRecord::SetValue { sheet: 0, cell, value });
        }
    }
    let from = Cell::new(6, 2);
    let src = "SUM($A$1:$B$4)*A2".to_string();
    wb.set_formula(s, from, &src).unwrap();
    log.push(EditRecord::SetFormula { sheet: 0, cell: from, src });
    wb.recalculate(RecalcMode::Serial);
    // Filled left to B2, whose `$A$1:$B$4` holds B2.
    let targets = Range::from_coords(2, 2, 6, 2);
    log.extend(wb.autofill_records(s, from, targets).unwrap());
    wb.autofill(s, from, targets).unwrap();
    wb.recalculate(RecalcMode::Serial);

    let mut replayed = Workbook::with_taco();
    for rec in &log {
        replayed.apply_edit(rec).unwrap();
    }
    replayed.recalculate(RecalcMode::Serial);
    let mut rebuilt = common::rebuild_from_texts(&wb);
    rebuilt.recalculate(RecalcMode::Serial);
    let own = Cell::new(2, 2);
    assert_eq!(wb.formula_of(s, own).unwrap(), "SUM($A$1:$B$4)*#REF!");
    for (book, what) in [(&wb, "live"), (&replayed, "replayed"), (&rebuilt, "rebuilt")] {
        assert_eq!(book.value(s, own), Value::Error(CellError::Cycle), "{what}");
    }
}

/// Rows of [`nodes_across_pages_and_bad_values_evaluate_as_their_cells_do`]'s
/// columns: two page boundaries of the cell store (256 rows) inside them.
const LONG: u32 = 600;

/// The cells of `wb`'s first sheet holding an error, and which.
fn errors(wb: &Workbook) -> Vec<(Cell, CellError)> {
    let cells = wb.sheet(SheetId(0)).cells();
    cells
        .filter_map(|(c, k)| if let Value::Error(e) = k.value() { Some((c, *e)) } else { None })
        .collect()
}

/// The shared workbook evaluates each filled column as one node (one
/// template down [`LONG`] rows, its folds carried from row to row); the
/// twin, every formula typed unshareable, evaluates every cell as a node
/// of its own. Column A crosses two page boundaries holding numbers of
/// both signs, text, blanks, a `#DIV/0!` and a cleared stretch, and the
/// two must agree bit for bit — errors and `#CYCLE!` included — after the
/// full pass, after edits at rows 1, 300 and 600, and after a demand pass
/// over a viewport inside the columns.
#[test]
fn nodes_across_pages_and_bad_values_evaluate_as_their_cells_do() {
    let s = SheetId(0);
    let (mut shared, mut twin) = (Workbook::with_taco(), Workbook::with_taco());
    for wb in [&mut shared, &mut twin] {
        wb.add_sheet("Calc").unwrap();
        for row in 1..=LONG {
            let value = match row % 97 {
                13 => Value::Text("n/a".into()),
                41 => continue,
                _ => Value::Number(f64::from(row % 37) / 8.0 - 2.0),
            };
            wb.set_value(s, Cell::new(1, row), value);
        }
        wb.set_formula(s, Cell::new(1, 540), "=1/0").unwrap();
        wb.clear_range(s, Range::from_coords(1, 380, 1, 420));
        // A chain down starts at F1, one up at I600; K1:K2 read each other.
        for (cell, text) in [(1, 6, "A1"), (LONG, 9, "A600"), (1, 11, "K2+A1"), (2, 11, "K1*2")]
            .map(|(row, col, text)| (Cell::new(col, row), text))
        {
            wb.set_formula(s, cell, text).unwrap();
        }
    }
    // Filled down from their first row: cumulative aggregates, the chain
    // down (`F`), a branch, a volatile one and the chain up (`I`: its cells
    // read below them, a node evaluated bottom-up, whose cumulative sum
    // the row below cannot hand on — it summed one row more).
    let filled = [
        (2, 1, "SUM($A$1:A1)"),
        (3, 1, "AVERAGE($A$1:A1)"),
        (4, 1, "COUNT($A$1:A1)"),
        (5, 1, "MAX($A$1:A1)"),
        (6, 2, "F1+A2"),
        (7, 1, "IF(A1>0,A1,-A1)"),
        (8, 1, "RAND()*A1"),
        (9, 1, "I2+SUM($A$1:A1)"),
    ];
    for (col, first, text) in filled {
        let last = if col == 9 { LONG - 1 } else { LONG };
        let from = Cell::new(col, first);
        shared.set_formula(s, from, text).unwrap();
        shared.autofill(s, from, Range::from_coords(col, first + 1, col, last)).unwrap();
        for row in first..=last {
            let cell = Cell::new(col, row);
            let text = shared.formula_of(s, cell).unwrap();
            twin.set_formula(s, cell, &unshareable(&text, cell)).unwrap();
        }
    }
    // Typed row by row, its literal stepping: one run in `shared`.
    for row in 1..=LONG {
        let (cell, text) = (Cell::new(10, row), format!("SUM($A$1:$A$8)*{row}"));
        shared.set_formula(s, cell, &text).unwrap();
        twin.set_formula(s, cell, &unshareable(&text, cell)).unwrap();
    }
    let templates = |wb: &Workbook| wb.sheet(s).formula_templates();
    assert_eq!(templates(&twin), twin.sheet(s).formula_cells());
    assert!(templates(&shared) <= 16, "{} templates", templates(&shared));

    let recalculate = |shared: &mut Workbook, twin: &mut Workbook, what: &str| {
        let evaluated = shared.recalculate(RecalcMode::Serial);
        assert_eq!(evaluated, twin.recalculate(RecalcMode::Serial), "{what}");
        assert_same(shared, twin, what);
        assert_eq!(errors(shared), errors(twin), "{what}");
    };
    recalculate(&mut shared, &mut twin, "full pass");
    let nodes = |wb: &Workbook| wb.last_pass().iter().map(|p| p.nodes).sum::<u32>();
    assert!(nodes(&shared) < 40, "{} nodes", nodes(&shared));
    assert_eq!(nodes(&twin) as usize, twin.sheet(s).formula_cells());
    let kinds: Vec<CellError> = errors(&shared).into_iter().map(|(_, e)| e).collect();
    for kind in [CellError::Div0, CellError::Value, CellError::Cycle] {
        assert!(kinds.contains(&kind), "no {kind:?} among {kinds:?}");
    }

    for (row, value) in
        [(1, Value::Number(4.25)), (300, Value::Text("x".into())), (LONG, Value::Number(-7.5))]
    {
        shared.set_value(s, Cell::new(1, row), value.clone());
        twin.set_value(s, Cell::new(1, row), value);
        recalculate(&mut shared, &mut twin, &format!("edit at row {row}"));
    }

    // An edit at the top dirties every column; a viewport across the first
    // page boundary evaluates part of each (its dirty precedents above).
    let viewport = Range::from_coords(2, 250, 10, 270);
    for wb in [&mut shared, &mut twin] {
        wb.set_value(s, Cell::new(1, 2), Value::Number(0.5));
    }
    let needed = shared.recalc_demand(s, viewport).unwrap();
    assert_eq!(needed, twin.recalc_demand(s, viewport).unwrap());
    assert!(needed > 0 && shared.dirty_count() > 0, "{needed} evaluated");
    assert_same(&shared, &twin, "demand pass");
    recalculate(&mut shared, &mut twin, "after the demand pass");
}

/// The formula texts alone (values lag until the pass).
fn assert_same_texts(pair: &Pair, what: &str) {
    for s in 0..2 {
        let texts = |wb: &Workbook| -> Vec<(Cell, Option<String>)> {
            let sheet = wb.sheet(SheetId(s));
            sheet.cells().map(|(c, _)| (c, sheet.formula_of(c))).collect()
        };
        let twin: Vec<(Cell, Option<String>)> = texts(&pair.twin)
            .into_iter()
            .map(|(c, t)| (c, t.map(|t| t.trim_start().to_string())))
            .collect();
        let shared = texts(&pair.shared);
        let differs = shared.iter().zip(&twin).find(|(a, b)| a != b);
        assert!(differs.is_none() && shared.len() == twin.len(), "{what}: sheet {s}: {differs:?}");
    }
}

#[test]
fn a_run_splits_and_rejoins_like_a_pattern_edge() {
    let mut pair = Pair::new(Literals::Integers { c: 0, k: 1 });
    let sheet = |pair: &Pair| {
        (pair.shared.sheet(CALC).formula_templates(), pair.shared.sheet(CALC).formula_cells())
    };
    let (templates, cells) = sheet(&pair);
    assert_eq!((templates, cells), (RUNS_OF_FILLS + 1, (SEEDS.len() + 1) * (ROWS as usize - 1)));

    // A value in the middle: one cell fewer, still one template — both
    // halves point at it. The cell's formula typed back: whole again.
    pair.apply(&Op::Overwrite { sheet: CALC.0, col: 3, row: 10 }, "split");
    assert_eq!(sheet(&pair), (templates, cells - 1));
    pair.apply(&Op::Retype { sheet: CALC.0, col: 3, row: 10 }, "rejoin");
    assert_eq!(sheet(&pair), (templates, cells));
    assert_eq!(pair.shared.formula_of(CALC, Cell::new(3, 10)).unwrap(), "SUM($A$1:A10)");

    // A different formula there is a run of its own, and the formula of
    // the run typed below the column's end extends the run.
    pair.formula(CALC, Cell::new(3, 10), "SUM($A$1:A10)+0");
    pair.formula(CALC, Cell::new(3, ROWS + 1), "SUM($A$1:A25)");
    assert_eq!(sheet(&pair), (templates + 1, cells + 1));

    // Rows inserted through every run: the cells above stay in theirs,
    // the cells below are rewritten (or only moved) and rejoin it past
    // the inserted rows where they read as its cells there, or form one
    // new run per column.
    pair.apply(
        &Op::Structural { sheet: 1, op: StructuralOp::InsertRows { at: 15, n: 2 } },
        "insert",
    );
    pair.recalculate();
    assert_same(&pair.shared, &pair.twin, "after the insert");
    let (after, _) = sheet(&pair);
    assert!(after <= 2 * (templates + 1) + 1, "{after} templates for {templates} split runs");

    // The whole sheet cleared: nothing is left alive.
    let all = Range::from_coords(1, 1, 40, 200);
    pair.shared.clear_range(CALC, all);
    assert_eq!(sheet(&pair), (0, 0));
}
