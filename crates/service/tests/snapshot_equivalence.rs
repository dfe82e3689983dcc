//! Incremental snapshot publication ≡ a full rebuild, at every epoch.
//!
//! The writer publishes each epoch by copying the cell-store pages
//! written since the previous one and sharing the rest (`registry.rs`,
//! "Snapshot publication"). These tests hold every publication to the
//! trivially simple reference: a **mirror** workbook the test drives
//! itself — the same records applied one at a time, then the same
//! recalculation — whose cells, read whole, are what `Snapshot::build`
//! would publish. After each step of a random script the published
//! snapshot must equal the mirror cell for cell, together with the sheet
//! list and the four counters, so a write the store failed to stamp on
//! its page shows up at the epoch that lost it.
//!
//! Scripts mix single and back-to-back writes (values, text, formulas,
//! clears, structural edits, `AddSheet` — the last two also inside a
//! batch), autofills, full recalcs and demand recalcs of a viewport, on a
//! workbook registered dirty, with a cross-sheet formula and one that
//! waits for a sheet added later. Edits reach the writer through
//! `Registry::submit_edits`, a hidden hook that queues records back to
//! back — so they coalesce whenever the writer finds them queued
//! together, which a unit test in `registry.rs` forces — and lets
//! `AddSheet` (which no request carries) through.

use proptest::prelude::*;
use std::sync::Arc;
use taco_core::StructuralOp;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_service::{InProcClient, Registry, ServiceOptions, Snapshot};
use taco_store::EditRecord;

/// Rows the scripts write to: the first page of each column, plus
/// [`FAR_ROW`].
const ROWS: u32 = 100;
/// A row far below the rest: its page has an absent page above it.
const FAR_ROW: u32 = 700;
const SHEETS: [&str; 2] = ["Main", "Aux"];
const BOOK: &str = "book";

#[derive(Debug, Clone)]
enum Step {
    /// One record is a single write; several are queued back to back.
    Edits(Vec<EditRecord>),
    Autofill {
        sheet: u32,
        src: Cell,
        targets: Range,
    },
    Recalc,
    /// `RecalcRange`, or `GetRangeFresh` when `fetch`.
    Demand {
        sheet: u32,
        range: Range,
        fetch: bool,
    },
}

fn col_letter(col: u32) -> char {
    char::from(b'A' + (col - 1) as u8)
}

/// The starting workbook, **not** recalculated: data in A..C, a window
/// sum in D, a formula over D in E; `Main` reads `Aux` and a sheet that
/// does not exist yet.
fn seed_workbook() -> Workbook {
    let mut wb = Workbook::with_taco();
    for (s, name) in SHEETS.iter().enumerate() {
        let id = wb.add_sheet(name).unwrap();
        for row in (1..=ROWS).step_by(3) {
            wb.set_value(id, Cell::new(1, row), Value::Number(f64::from(row + s as u32)));
            wb.set_value(id, Cell::new(2, row), Value::Text(format!("r{row}")));
            wb.set_formula(id, Cell::new(4, row), &format!("SUM(A{row}:A{})", row + 5)).unwrap();
            wb.set_formula(id, Cell::new(5, row), &format!("D{row}*2+C{row}")).unwrap();
        }
    }
    let main = SheetId(0);
    wb.set_formula(main, Cell::new(4, 2), "SUM(Aux!A1:A40)+Aux!E1").unwrap();
    wb.set_formula(main, Cell::new(5, 2), "Late!A1+D2").unwrap();
    wb.set_value(main, Cell::new(3, FAR_ROW), Value::Number(7.0));
    wb
}

fn arb_sheet() -> impl Strategy<Value = u32> {
    // Index 2 exists only once a script has added a sheet; before that a
    // record naming it fails at apply, which is a path worth walking.
    prop_oneof![4 => Just(0u32), 3 => Just(1u32), 1 => Just(2u32)]
}

fn arb_row() -> impl Strategy<Value = u32> {
    prop_oneof![12 => 1u32..=ROWS, 1 => Just(FAR_ROW)]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => (-500i32..500).prop_map(|n| Value::Number(f64::from(n) / 4.0)),
        2 => (0u32..50).prop_map(|n| Value::Text(format!("t{n}"))),
        1 => Just(Value::Empty),
    ]
}

fn arb_range() -> impl Strategy<Value = Range> {
    (1u32..=5, arb_row(), 0u32..3, 0u32..70)
        .prop_map(|(col, row, w, h)| Range::from_coords(col, row, col + w, row + h))
}

/// A formula for `(sheet, col, row)` that cannot close a cycle: it reads
/// columns strictly left of its own, and only `Main` reads other sheets.
fn arb_formula() -> impl Strategy<Value = EditRecord> {
    (arb_sheet(), 4u32..=5, arb_row(), 1u32..=ROWS, 0u32..4).prop_map(
        |(sheet, col, row, other, shape)| {
            let left = col_letter(col - 1);
            let src = match (shape, sheet) {
                (0, _) => format!("SUM(A{other}:{left}{})", other + 8),
                (1, _) => format!("{left}{row}+A{other}"),
                (2, 0) => format!("SUM(Aux!A{other}:B{})+{left}{row}", other + 3),
                (3, 0) => format!("Late!A{other}+Extra!B1"),
                _ => format!("A{row}&B{other}"),
            };
            EditRecord::SetFormula { sheet, cell: Cell::new(col, row), src }
        },
    )
}

fn arb_structural() -> impl Strategy<Value = EditRecord> {
    let op = prop_oneof![
        (1u32..ROWS, 1u32..40).prop_map(|(at, n)| StructuralOp::InsertRows { at, n }),
        (1u32..ROWS, 1u32..40).prop_map(|(at, n)| StructuralOp::DeleteRows { at, n }),
        (1u32..5, 1u32..3).prop_map(|(at, n)| StructuralOp::InsertCols { at, n }),
        (1u32..5, 1u32..3).prop_map(|(at, n)| StructuralOp::DeleteCols { at, n }),
    ];
    (arb_sheet(), op).prop_map(|(sheet, op)| EditRecord::Structural { sheet, op })
}

fn arb_record() -> impl Strategy<Value = EditRecord> {
    prop_oneof![
        10 => (arb_sheet(), 1u32..=5, arb_row(), arb_value()).prop_map(|(sheet, col, row, value)| {
            EditRecord::SetValue { sheet, cell: Cell::new(col, row), value }
        }),
        6 => arb_formula(),
        4 => (arb_sheet(), arb_range()).prop_map(|(sheet, range)| EditRecord::ClearRange { sheet, range }),
        2 => arb_structural(),
        1 => prop_oneof![Just("Late"), Just("Extra"), Just("Aux")]
            .prop_map(|name| EditRecord::AddSheet { name: name.to_string() }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => arb_record().prop_map(|rec| Step::Edits(vec![rec])),
        4 => prop::collection::vec(arb_record(), 2..9).prop_map(Step::Edits),
        // Filled at or right of the source column, so the copied
        // references stay strictly left of their formula.
        2 => (0u32..2, 4u32..=5, 1u32..=ROWS, arb_row(), 0u32..3, 0u32..70).prop_map(
            |(sheet, col, row, top, w, h)| Step::Autofill {
                sheet,
                src: Cell::new(col, row),
                targets: Range::from_coords(col, top, col + w, top + h),
            },
        ),
        1 => Just(Step::Recalc),
        3 => (0u32..2, arb_range(), any::<bool>())
            .prop_map(|(sheet, range, fetch)| Step::Demand { sheet, range, fetch }),
    ]
}

/// Every cell of one mirror sheet, in the snapshot's `(row, col)` order.
fn mirror_cells(wb: &Workbook, sheet: usize) -> Vec<(Cell, Value)> {
    let mut cells: Vec<(Cell, Value)> =
        wb.sheet(SheetId(sheet)).cells().map(|(c, k)| (c, k.value().clone())).collect();
    cells.sort_unstable_by_key(|(c, _)| (c.row, c.col));
    cells
}

/// The published snapshot equals a full build of `wb`.
fn assert_published(snap: &Snapshot, wb: &Workbook, what: &str) {
    let everything = Range::from_coords(1, 1, u32::MAX, u32::MAX);
    let names: Vec<String> =
        (0..wb.sheet_count()).map(|i| wb.sheet_name(SheetId(i)).to_string()).collect();
    assert_eq!(snap.sheet_names(), names, "{what}: sheets");
    let mut total = 0;
    for sheet in 0..wb.sheet_count() {
        let want = mirror_cells(wb, sheet);
        assert_eq!(snap.cells_in(sheet, everything), want, "{what}: sheet {sheet}");
        for (cell, value) in &want {
            assert_eq!(&snap.value(sheet, *cell), value, "{what}: sheet {sheet} {cell:?}");
        }
        total += want.len() as u64;
    }
    assert_eq!(snap.cells_total, total, "{what}: cells_total");
    assert_eq!(snap.dirty, wb.dirty_count() as u64, "{what}: dirty");
    assert_eq!(snap.cross_edges, wb.cross_edge_count() as u64, "{what}: cross edges");
    let edges: usize =
        (0..wb.sheet_count()).map(|i| wb.sheet(SheetId(i)).graph().num_edges()).sum();
    assert_eq!(snap.graph_edges, edges as u64, "{what}: graph edges");
}

/// Runs `steps` against a served workbook and its mirror, checking every
/// publication.
fn run_script(steps: &[Step]) {
    let registry = Arc::new(Registry::new(ServiceOptions::default()));
    registry.add_workbook(BOOK, seed_workbook(), None).unwrap();
    let mut mirror = seed_workbook();
    let mut client = InProcClient::in_process(Arc::clone(&registry));
    client.open(BOOK, None, None).unwrap();
    let mut epoch = registry.snapshot(BOOK).unwrap().epoch;
    assert_published(&registry.snapshot(BOOK).unwrap(), &mirror, "epoch 0");
    for (i, step) in steps.iter().enumerate() {
        let what = format!("step {i} {step:?}");
        // Failures (a sheet that does not exist yet, a fill with no
        // formula to copy, a duplicate sheet name) are part of the
        // script: both sides refuse them and carry on.
        match step {
            Step::Edits(records) => {
                let replies = registry.submit_edits(BOOK, records.clone());
                assert_eq!(replies.len(), records.len(), "{what}");
                for rec in records {
                    let _ = mirror.apply_edit(rec);
                }
                mirror.recalculate(RecalcMode::Serial);
            }
            Step::Autofill { sheet, src, targets } => {
                let _ = client.autofill(SHEETS[*sheet as usize], *src, *targets);
                let _ = mirror.autofill(SheetId(*sheet as usize), *src, *targets);
                mirror.recalculate(RecalcMode::Serial);
            }
            Step::Recalc => {
                client.recalc().unwrap();
                mirror.recalculate(RecalcMode::Serial);
            }
            Step::Demand { sheet, range, fetch } => {
                let name = SHEETS[*sheet as usize];
                mirror.recalc_demand(SheetId(*sheet as usize), *range).unwrap();
                if *fetch {
                    let mut want = mirror_cells(&mirror, *sheet as usize);
                    want.retain(|(c, _)| range.contains_cell(*c));
                    assert_eq!(client.get_range_fresh(name, *range).unwrap(), want, "{what}");
                } else {
                    client.recalc_range(name, *range).unwrap();
                }
            }
        }
        let snap = registry.snapshot(BOOK).unwrap();
        assert!(snap.epoch > epoch, "{what}: every step publishes");
        epoch = snap.epoch;
        assert_published(&snap, &mirror, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_publication_equals_a_full_rebuild(steps in prop::collection::vec(arb_step(), 1..28)) {
        run_script(&steps);
    }
}

/// The fixed script: each kind of value write — a plain value, a clear,
/// a recalculated result, a structural edit, a new sheet — once, in an
/// order that makes them matter, on the dirty-registered workbook.
#[test]
fn scripted_epochs_equal_a_full_rebuild() {
    let set = |sheet, col, row, n: f64| EditRecord::SetValue {
        sheet,
        cell: Cell::new(col, row),
        value: Value::Number(n),
    };
    let clear = |sheet, range: &str| EditRecord::ClearRange {
        sheet,
        range: Range::parse_a1(range).unwrap(),
    };
    let structural = |sheet, op| EditRecord::Structural { sheet, op };
    let demand = |sheet, range: &str, fetch| Step::Demand {
        sheet,
        range: Range::parse_a1(range).unwrap(),
        fetch,
    };
    let steps = vec![
        // Partial evaluation of the dirty workbook: one viewport, then
        // one whose precedents sit on the other sheet.
        demand(1, "D1:E12", false),
        demand(0, "D2:E2", true),
        Step::Recalc,
        // A single write, then a coalesced run on several bands and both
        // sheets, one cell set, cleared and set again.
        Step::Edits(vec![set(0, 1, 1, 50.0)]),
        Step::Edits(vec![
            set(0, 1, 40, 1.0),
            set(1, 1, 2, 2.0),
            set(0, 3, 90, 3.0),
            clear(0, "C80:C99"),
            set(0, 3, 90, 4.0),
            set(0, 2, FAR_ROW, 5.0),
        ]),
        // Either side of the first page boundary of column A (256 rows a
        // page), then a clear that frees the page row 257 opened.
        Step::Edits(vec![set(0, 1, 256, 6.0), set(0, 1, 257, 7.0)]),
        Step::Edits(vec![clear(0, "A257:A300")]),
        // Clearing the only cells of the far pages; a clear over nothing.
        Step::Edits(vec![clear(0, "A650:Z800")]),
        Step::Edits(vec![clear(1, "A300:Z400")]),
        // A fill across a band boundary, and one that is refused.
        Step::Autofill {
            sheet: 0,
            src: Cell::new(5, 1),
            targets: Range::parse_a1("E20:E70").unwrap(),
        },
        Step::Autofill {
            sheet: 1,
            src: Cell::new(1, 1),
            targets: Range::parse_a1("F1:F9").unwrap(),
        },
        // Structural edits: alone, and inside a batch between writes.
        Step::Edits(vec![structural(1, StructuralOp::InsertRows { at: 3, n: 35 })]),
        Step::Edits(vec![
            set(0, 1, 10, 9.0),
            structural(0, StructuralOp::DeleteRows { at: 5, n: 30 }),
            set(0, 1, 10, 8.0),
            structural(1, StructuralOp::InsertCols { at: 2, n: 1 }),
        ]),
        // The sheet a formula has been waiting for, filled in the batch
        // that creates it; then a record for a sheet that never appears.
        Step::Edits(vec![EditRecord::AddSheet { name: "Late".into() }, set(2, 1, 1, 100.0)]),
        Step::Edits(vec![set(0, 1, 3, 1.0), set(9, 1, 1, 1.0), set(0, 1, 4, 2.0)]),
        Step::Recalc,
    ];
    run_script(&steps);
}
