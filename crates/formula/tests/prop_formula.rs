//! Property tests for the formula pipeline: printing and re-parsing an
//! arbitrary expression tree is the identity, reference extraction matches
//! a structural walk, autofill respects `$` semantics, and the evaluator
//! never panics on arbitrary generated expressions.

use proptest::prelude::*;
use taco_formula::eval::{eval, CellProvider};
use taco_formula::{parser, BinOp, Expr, Formula, UnOp, Value};
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef, SheetRef};
use taco_grid::{Cell, Range};

fn arb_cell_ref() -> impl Strategy<Value = CellRef> {
    (1u32..60, 1u32..60, any::<bool>(), any::<bool>()).prop_map(|(c, r, ca, ra)| CellRef {
        cell: Cell::new(c, r),
        col_abs: ca,
        row_abs: ra,
    })
}

fn arb_range_ref() -> impl Strategy<Value = RangeRef> {
    (arb_cell_ref(), arb_cell_ref()).prop_map(|(a, b)| RangeRef::from_corners(a, b))
}

/// `None` (local), a bare identifier sheet, or a name that needs quoting
/// (spaces, digits-first, embedded apostrophe).
fn arb_sheet() -> impl Strategy<Value = Option<SheetRef>> {
    prop_oneof![
        3 => Just(None),
        1 => proptest::string::string_regex("[A-Za-z_][A-Za-z0-9_]{0,6}")
            .expect("valid regex")
            .prop_map(|s| Some(SheetRef::new(s).expect("valid sheet name"))),
        // Bracketing with letters keeps the quote rule (no leading or
        // trailing apostrophe) satisfied by construction.
        1 => proptest::string::string_regex("[A-Za-z0-9' ]{0,6}")
            .expect("valid regex")
            .prop_map(|s| Some(SheetRef::new(format!("q{s}z")).expect("valid sheet name"))),
    ]
}

fn arb_qref() -> impl Strategy<Value = QualifiedRef> {
    (arb_sheet(), arb_range_ref()).prop_map(|(sheet, rref)| QualifiedRef { sheet, rref })
}

fn arb_text() -> impl Strategy<Value = String> {
    // Includes quotes to exercise escaping.
    proptest::string::string_regex("[a-zA-Z0-9 \"]{0,8}").expect("valid regex")
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0u32..1000, 0u32..100)
            .prop_map(|(a, b)| Expr::Number(f64::from(a) + f64::from(b) / 100.0)),
        arb_text().prop_map(Expr::Text),
        any::<bool>().prop_map(Expr::Bool),
        arb_qref().prop_map(Expr::Ref),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        let bin = prop_oneof![
            Just(BinOp::Add),
            Just(BinOp::Sub),
            Just(BinOp::Mul),
            Just(BinOp::Div),
            Just(BinOp::Pow),
            Just(BinOp::Concat),
            Just(BinOp::Eq),
            Just(BinOp::Ne),
            Just(BinOp::Lt),
            Just(BinOp::Le),
            Just(BinOp::Gt),
            Just(BinOp::Ge),
        ];
        prop_oneof![
            (bin, inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
            inner.clone().prop_map(|e| Expr::Unary { op: UnOp::Neg, expr: Box::new(e) }),
            inner.clone().prop_map(|e| Expr::Percent(Box::new(e))),
            (
                prop_oneof![
                    Just("SUM"),
                    Just("AVERAGE"),
                    Just("MIN"),
                    Just("MAX"),
                    Just("COUNT"),
                    Just("IF"),
                    Just("AND"),
                    Just("NOT"),
                    Just("LEN"),
                ],
                prop::collection::vec(inner, 1..3),
            )
                .prop_map(|(name, args)| Expr::func(name, args)),
        ]
    })
}

struct Zeros;
impl CellProvider for Zeros {
    fn value(&self, _c: Cell) -> Value {
        Value::Number(0.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_round_trip(expr in arb_expr()) {
        let printed = expr.to_string();
        let reparsed = parser::parse(&printed)
            .unwrap_or_else(|e| panic!("printed form must re-parse: {printed:?}: {e}"));
        prop_assert_eq!(&reparsed, &expr, "printed = {}", printed);
    }

    #[test]
    fn collect_refs_matches_formula_parse(expr in arb_expr()) {
        let f = Formula::parse(&expr.to_string()).expect("valid");
        prop_assert_eq!(f.refs, expr.collect_refs());
    }

    #[test]
    fn eval_never_panics(expr in arb_expr()) {
        // Any generated expression must evaluate to *some* Value.
        let _ = eval(&expr, &Zeros);
    }

    #[test]
    fn autofill_moves_only_relative_coords(r in arb_range_ref(), dc in -5i64..5, dr in -5i64..5) {
        if let Some(filled) = r.autofill(dc, dr) {
            // Every coordinate moves unless `$`-fixed, its flag with it; a
            // fill that carries one past the other straightens the range
            // (which corner gets the `$` of two equal coordinates is
            // `RangeRef::autofill`'s rule).
            let moved = |v: u32, abs: bool, by: i64| {
                (if abs { i64::from(v) } else { i64::from(v) + by }, abs)
            };
            let (h, t) = (r.head, r.tail);
            let mut cols = [moved(h.cell.col, h.col_abs, dc), moved(t.cell.col, t.col_abs, dc)];
            let mut rows = [moved(h.cell.row, h.row_abs, dr), moved(t.cell.row, t.row_abs, dr)];
            let (f, g) = (filled.head, filled.tail);
            let mut got_cols = [(f.cell.col, f.col_abs), (g.cell.col, g.col_abs)].map(|(v, a)| (i64::from(v), a));
            let mut got_rows = [(f.cell.row, f.row_abs), (g.cell.row, g.row_abs)].map(|(v, a)| (i64::from(v), a));
            prop_assert!(got_cols[0].0 <= got_cols[1].0 && got_rows[0].0 <= got_rows[1].0);
            for v in [&mut cols, &mut rows, &mut got_cols, &mut got_rows] {
                v.sort();
            }
            prop_assert_eq!((got_cols, got_rows), (cols, rows));
        }
    }

    #[test]
    fn a_fill_of_a_fill_is_the_fill_by_the_sum(
        r in arb_range_ref(), dc in -5i64..5, dr in -5i64..5, ec in -5i64..5, er in -5i64..5
    ) {
        // Straightening loses which corner a coordinate came from; fills
        // still compose because equal coordinates are settled by a rule of
        // the coordinates alone. (Back where it started, a reference reads
        // as written, which may be the other way round.)
        let via = r.autofill(dc, dr).and_then(|m| m.autofill(ec, er));
        if let (Some(via), Some(once)) = (via, r.autofill(dc + ec, dr + er)) {
            if (dc + ec, dr + er) != (0, 0) {
                prop_assert_eq!(via, once);
            } else {
                prop_assert_eq!(via.range(), once.range());
            }
        }
    }

    #[test]
    fn range_ref_display_round_trips(r in arb_range_ref()) {
        let printed = r.to_string();
        let parsed = RangeRef::parse(&printed).expect("printed refs re-parse");
        prop_assert_eq!(parsed, r);
    }

    #[test]
    fn qualified_ref_display_round_trips(q in arb_qref()) {
        let printed = q.to_string();
        let parsed = QualifiedRef::parse(&printed).expect("printed refs re-parse");
        prop_assert_eq!(parsed, q);
    }

    #[test]
    fn qualified_autofill_pins_sheet(q in arb_qref(), dc in -5i64..5, dr in -5i64..5) {
        if let Some(filled) = q.autofill(dc, dr) {
            prop_assert_eq!(filled.sheet_name(), q.sheet_name());
            prop_assert_eq!(filled.rref, q.rref.autofill(dc, dr).expect("corner fill agrees"));
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "[ -~]{0,40}") {
        let _ = Formula::parse(&s); // Ok or Err, never panic.
    }

    #[test]
    fn refs_are_within_parsed_ranges(expr in arb_expr()) {
        for r in expr.collect_refs() {
            let range: Range = r.range();
            prop_assert!(range.head() <= range.tail());
        }
    }
}
