//! An open derives the graph the formulas imply.
//!
//! An image stores no graph: `Workbook::from_image` derives it from the
//! runs, one edge per read of each column stretch of a run, and binds
//! cell by cell only what is not one edge a read. What it derives must
//! decompress to exactly the dependencies binding every formula cell by
//! cell makes — a live workbook's, each sheet's band and the reads between
//! sheets, as multisets — and, on the persistence presets and the served
//! sheet, hold them in no more edges than the live graph, band by band and
//! between bands.

use proptest::prelude::*;
use std::collections::BTreeSet;
use taco_engine::{RecalcMode, SheetId, Workbook};
use taco_formula::Value;
use taco_grid::a1::col_to_letters;
use taco_grid::{Cell, Range};
use taco_store::{encode_workbook, StoreReader};
use taco_workload::persistence::{
    gen_persist_workload, persist_enron_like, persist_giant_sheet, persist_github_like,
};
use taco_workload::service::{gen_service_script, reader_heavy, writer_heavy, ServiceScriptParams};

/// `wb` saved and opened again.
fn reopened(wb: &Workbook) -> Workbook {
    let bytes = encode_workbook(&wb.to_image()).expect("an image encodes");
    let image = StoreReader::from_bytes(bytes).and_then(|r| r.read_all()).expect("it decodes");
    Workbook::from_image(image).expect("it opens")
}

/// The dependencies sheet `s`'s band holds, sorted, each as often as held.
fn band_deps(wb: &Workbook, s: usize) -> Vec<(Range, Cell)> {
    let deps = wb.sheet(SheetId(s)).graph().decompress_all();
    let mut deps: Vec<(Range, Cell)> = deps.into_iter().map(|d| (d.prec, d.dep)).collect();
    deps.sort_unstable_by_key(|&(prec, dep)| (dep, prec.head(), prec.tail()));
    deps
}

/// The edges of the workbook's graph: each band's, then those between.
fn edges(wb: &Workbook) -> Vec<usize> {
    let bands = (0..wb.sheet_count()).map(|s| wb.sheet(SheetId(s)).graph().num_edges());
    bands.chain([wb.cross_edge_count()]).collect()
}

/// Holds `back`'s graph, derived on open, to `live`'s, bound cell by
/// cell: the same dependencies, band by band and between bands.
fn assert_derives(live: &Workbook, back: &Workbook, ctx: &str) {
    assert_eq!(back.cross_table(), live.cross_table(), "{ctx}: reads between sheets");
    for s in 0..live.sheet_count() {
        assert_eq!(band_deps(back, s), band_deps(live, s), "{ctx}: sheet {s}'s band");
    }
}

/// The cells of a query's answer.
fn cells(found: &[(SheetId, Range)]) -> BTreeSet<(SheetId, Cell)> {
    found.iter().flat_map(|(s, r)| r.cells().map(move |c| (*s, c))).collect()
}

/// Holds `back`'s query answers to `live`'s: the dependents of every data
/// cell and the precedents of every formula cell, on every sheet. An edge
/// can decompress to the right dependencies and still answer a query for
/// rows its pattern does not hold.
fn assert_answers(live: &Workbook, back: &Workbook, ctx: &str) {
    for s in 0..live.sheet_count() {
        let id = SheetId(s);
        for (cell, content) in live.sheet(id).cells() {
            let probe = Range::cell(cell);
            let (a, b) = if content.is_formula() {
                (live.find_precedents(id, probe), back.find_precedents(id, probe))
            } else {
                (live.find_dependents(id, probe), back.find_dependents(id, probe))
            };
            assert_eq!(cells(&b), cells(&a), "{ctx}: sheet {s} {cell}");
        }
    }
}

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// The formula of one generated column at row `r`, column `col`, on a
/// sheet named `own` beside one named `other`: one shape per case.
fn shape(case: u32, r: u32, col: u32, own: &str, other: &str) -> String {
    let me = col_to_letters(col);
    match case {
        0 => format!("SUM(A{r}:B{})", r + 2),               // RR
        1 => format!("SUM(A{r}:A$30)"),                     // RF, crossing past row 30
        2 => format!("SUM($A$1:A{r})"),                     // FR
        3 => "SUM($A$1:$B$3)+1".to_string(),                // FF
        4 => format!("{me}{}+1", r - 1),                    // RR-Chain
        5 => format!("$A{r}*2"),                            // `$A1`
        6 => format!("A$1+B{r}"),                           // `A$1`
        7 => format!("SUMIF(A{r}:A{},\">2\",B{r})", r + 3), // shaped sum range
        8 => format!("A{}*2", r - 6),                       // off the grid above row 7
        9 => format!("{own}!A{r}+1"),                       // self-qualified
        10 => format!("{other}!A{r}+{other}!A{r}"),         // one range read twice
        11 => format!("{other}!A{r}*{other}!A$12"),         // reads that meet at row 12
        12 => format!("{other}!A{r}+{other}!B{}", r + 40),  // reads that do not
        13 => format!("SUMIF(A{r}:A$20,\">2\",B{r})"),      // its shape crossing at row 20
        14 => format!("SUMIF(A{r}:A$20,\">2\",B$5)"),       // its last row turning at row 20
        _ => format!("Gone!A{r}+A{r}"),                     // a missing sheet
    }
}

/// A seeded workbook of two sheets, `Data` and `Out`, whose columns are
/// filled down (or up) with the shapes above: stacked one under another,
/// re-typed, cut by a value or a blank row, one filled right.
fn generated(seed: u64) -> Workbook {
    let mut rng = Rng(seed);
    let mut wb = Workbook::new();
    let names = ["Data", "Out"];
    for name in names {
        let id = wb.add_sheet(name).unwrap();
        for row in 1..=80u32 {
            wb.set_value(id, Cell::new(1, row), Value::Number(f64::from(row % 7)));
            wb.set_value(id, Cell::new(2, row), Value::Number(f64::from(row % 5)));
        }
    }
    for col in 3..(6 + rng.below(4)) {
        let sid = rng.below(2) as usize;
        let (own, other) = (names[sid], names[1 - sid]);
        let id = SheetId(sid);
        let mut row = 2 + rng.below(12);
        // One to three runs stacked down the column.
        for _ in 0..=rng.below(3) {
            let (case, len) = (rng.below(16), 1 + rng.below(25));
            if case == 8 {
                row = row.max(7); // on the grid where it is typed
            }
            let src = shape(case, row, col, own, other);
            let anchor = Cell::new(col, row);
            wb.set_formula(id, anchor, &format!("={src}")).unwrap();
            let up = case == 8 && rng.below(2) == 0;
            let targets = if up {
                Range::from_coords(col, row.saturating_sub(len).max(1), col, row)
            } else {
                Range::from_coords(col, row, col, row + len)
            };
            wb.autofill(id, anchor, targets).unwrap();
            row = targets.tail().row + 1 + rng.below(2);
        }
        // Re-type a cell as it prints, type another formula reading the
        // same (a lone cell between two stretches), put a value over one,
        // blank one.
        let cells: Vec<Cell> =
            wb.sheet(id).cells().map(|(c, _)| c).filter(|c| c.col == col).collect();
        for _ in 0..rng.below(4) {
            let cell = cells[rng.below(cells.len() as u32) as usize];
            match (rng.below(4), wb.formula_of(id, cell)) {
                (0, Some(src)) => drop(wb.set_formula(id, cell, &format!("={src}")).unwrap()),
                (1, Some(src)) => drop(wb.set_formula(id, cell, &format!("={src}+0")).unwrap()),
                (2, _) => drop(wb.set_value(id, cell, Value::Number(3.0))),
                _ => drop(wb.clear_range(id, Range::cell(cell))),
            }
        }
    }
    // A formula filled right: stretches of one cell.
    let anchor = Cell::new(12, 3);
    wb.set_formula(SheetId(1), anchor, "=SUM(A1:A3)+Data!B3").unwrap();
    wb.autofill(SheetId(1), anchor, Range::from_coords(12, 3, 12 + rng.below(6), 3)).unwrap();
    wb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every stretch's derived edges decompress to exactly what binding
    /// its cells one by one makes, and a sheet that a formula named while
    /// it was missing binds the same reads once added.
    #[test]
    fn an_open_derives_the_dependencies_a_cell_by_cell_bind_makes(seed in 0u64..u64::MAX) {
        let mut live = generated(seed);
        let mut back = reopened(&live);
        assert_derives(&live, &back, &format!("seed {seed}"));
        assert_answers(&live, &back, &format!("seed {seed}"));
        for wb in [&mut live, &mut back] {
            let gone = wb.add_sheet("Gone").unwrap();
            wb.set_value(gone, Cell::new(1, 5), Value::Number(2.0));
        }
        assert_derives(&live, &back, &format!("seed {seed}, Gone added"));
        live.recalculate(RecalcMode::Serial);
        back.recalculate(RecalcMode::Serial);
        for s in 0..live.sheet_count() {
            for (cell, content) in live.sheet(SheetId(s)).cells() {
                prop_assert_eq!(back.value(SheetId(s), cell), content.value().clone());
            }
        }
    }
}

/// The persistence presets, after their build and after their burst, and
/// the served sheet, set up and after its writes: the reopened graph holds
/// the live one's dependencies in no more edges, band by band and between
/// bands.
#[test]
fn presets_reopen_to_the_live_dependencies_in_as_few_edges() {
    for params in [persist_enron_like(), persist_github_like(), persist_giant_sheet()] {
        let w = gen_persist_workload(&params);
        let mut wb = Workbook::new();
        wb.apply_batch(&w.build).expect("the build applies");
        check(&format!("{} built", params.name), &wb, &reopened(&wb));
        wb.recalculate(RecalcMode::Serial);
        wb.apply_batch(&w.burst).expect("the burst applies");
        check(&format!("{} burst", params.name), &wb, &reopened(&wb));
    }
    for params in [
        ServiceScriptParams { rows: 2048, ..reader_heavy() },
        ServiceScriptParams { rows: 2048, ..writer_heavy() },
    ] {
        let script = gen_service_script(&params);
        let mut wb = Workbook::new();
        wb.apply_batch(&script.setup).expect("the setup applies");
        check(&format!("{} set up", params.name), &wb, &reopened(&wb));
        wb.apply_batch(&script.serial_writes()).expect("the writes apply");
        check(&format!("{} written", params.name), &wb, &reopened(&wb));
    }
}

/// `back`, reopened from `live`, derives its dependencies in no more
/// edges, band by band and between bands.
fn check(ctx: &str, live: &Workbook, back: &Workbook) {
    assert_derives(live, back, ctx);
    let (live_edges, back_edges) = (edges(live), edges(back));
    let total = |edges: &[usize]| edges.iter().sum::<usize>();
    eprintln!("{ctx}: {} edges reopened, {} live", total(&back_edges), total(&live_edges));
    for (i, (back, live)) in back_edges.iter().zip(&live_edges).enumerate() {
        assert!(back <= live, "{ctx}: {back} edges > {live} live in band {i} (last: between)");
    }
}

/// Re-typing a filled cell as it prints splits its run's edge live, for
/// good: `add_dependency` extends one neighbour, never both. The cells
/// stay one run, so a reopen derives the one edge again. A lone formula
/// typed over a filled cell, reading what the cell read, splits it live
/// the same way; a reopen joins the stretches on either side through it.
#[test]
fn a_reopen_joins_a_run_that_re_typing_split() {
    let mut wb = Workbook::new();
    let s = wb.add_sheet("S").unwrap();
    for row in 1..=200u32 {
        wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row)));
    }
    wb.set_formula(s, Cell::new(2, 1), "=A1*2").unwrap();
    wb.autofill(s, Cell::new(2, 1), Range::parse_a1("B1:B200").unwrap()).unwrap();
    assert_eq!(wb.sheet(s).graph().num_edges(), 1);
    for row in (10..=200u32).step_by(9).take(20) {
        wb.set_formula(s, Cell::new(2, row), &format!("=A{row}*2")).unwrap();
    }
    assert_eq!(wb.sheet(s).graph().num_edges(), 21, "live: one edge more per re-type");
    assert_eq!(wb.sheet(s).formula_templates(), 1, "the cells are one run");

    let path = std::env::temp_dir().join(format!("taco_derive_split_{}.taco", std::process::id()));
    wb.save(&path).expect("save");
    let back = Workbook::open(&path).expect("open");
    assert_eq!(back.sheet(s).graph().num_edges(), 1, "reopened: one edge");
    assert_derives(&wb, &back, "re-typed");

    // Another run typed under it reads `A{r}` in the same pattern: its
    // stretch joins the one above, as Alg. 2 joins it live.
    for row in 201..=210u32 {
        wb.set_value(s, Cell::new(1, row), Value::Number(f64::from(row)));
    }
    wb.set_formula(s, Cell::new(2, 201), "=A201*3").unwrap();
    wb.autofill(s, Cell::new(2, 201), Range::parse_a1("B201:B210").unwrap()).unwrap();
    assert_eq!(wb.sheet(s).formula_templates(), 2);
    assert_eq!(wb.sheet(s).graph().num_edges(), 21, "live: the last edge extended");
    wb.save(&path).expect("save");
    let back = Workbook::open(&path).expect("open");
    assert_eq!(back.sheet(s).graph().num_edges(), 1, "reopened: the two runs joined");
    assert_derives(&wb, &back, "stacked");

    wb.set_formula(s, Cell::new(2, 30), "=A30+1").unwrap();
    assert_eq!(wb.sheet(s).formula_templates(), 3);
    assert_eq!(wb.sheet(s).graph().num_edges(), 22, "live: split at the lone cell");
    wb.save(&path).expect("save");
    let back = Workbook::open(&path).expect("open");
    std::fs::remove_file(&path).ok();
    assert_eq!(back.sheet(s).graph().num_edges(), 1, "reopened: joined through the lone cell");
    assert_derives(&wb, &back, "lone cell");
    assert_answers(&wb, &back, "lone cell");
}
