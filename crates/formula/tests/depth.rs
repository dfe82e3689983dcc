//! Hostile nesting: a formula deeper than [`MAX_DEPTH`] is a typed error
//! at parse time, and the deepest accepted one survives every walker of
//! its tree, all on the 2 MiB stack a spawned thread gets.

use taco_formula::autofill::autofill;
use taco_formula::eval::{eval, CellProvider};
use taco_formula::parser::MAX_DEPTH;
use taco_formula::{Formula, FormulaError, Value};
use taco_grid::{Cell, Range};

/// Every cell holds 1.
struct Ones;

impl CellProvider for Ones {
    fn value(&self, _cell: Cell) -> Value {
        Value::Number(1.0)
    }
}

/// The four shapes with `n` levels (parentheses, calls, signs) or `n`
/// operators, and the value each has when every cell holds 1.
fn shapes(n: usize) -> [(&'static str, String, f64); 4] {
    [
        ("parens", format!("={}A1{}", "(".repeat(n), ")".repeat(n)), 1.0),
        ("calls", format!("={}A1{}", "ABS(".repeat(n), ")".repeat(n)), 1.0),
        ("chain", format!("=A1{}", "+A1".repeat(n)), 1.0 + n as f64),
        ("signs", format!("={}A1", "-".repeat(n)), if n.is_multiple_of(2) { 1.0 } else { -1.0 }),
    ]
}

fn on_a_2mib_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic, and no overflow: that would have aborted the process");
}

#[test]
fn the_deepest_accepted_formula_survives_every_tree_walker() {
    on_a_2mib_stack(|| {
        for (shape, src, want) in shapes(MAX_DEPTH) {
            let formula = Formula::parse(&src).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert_eq!(eval(&formula.ast, &Ones), Value::Number(want), "{shape}");
            let printed = formula.to_string_with_eq();
            let reparsed = Formula::parse(&printed).unwrap_or_else(|e| panic!("{shape}: {e}"));
            assert_eq!(reparsed.ast, formula.ast, "{shape}: printer round trip");
            let filled = autofill(Cell::new(2, 1), &formula, Range::from_coords(2, 2, 2, 3));
            assert_eq!(filled.len(), 2, "{shape}");
            assert_eq!(eval(&filled[1].formula.ast, &Ones), Value::Number(want), "{shape}");
            // …and all three trees drop here, on this stack.
        }
    });
}

#[test]
fn one_level_more_and_100_000_levels_are_a_typed_error() {
    on_a_2mib_stack(|| {
        for n in [MAX_DEPTH + 1, 100_000] {
            for (shape, src, _) in shapes(n) {
                let err = Formula::parse(&src).expect_err(shape);
                assert!(matches!(err, FormulaError::TooDeep { .. }), "{shape} × {n}: {err}");
            }
        }
        // Depth adds up across shapes: a chain inside calls inside a chain.
        let inner = format!("A1{}", "+A1".repeat(MAX_DEPTH / 2));
        let calls = MAX_DEPTH / 2;
        let nested = format!("{}{inner}{}", "ABS(".repeat(calls), ")".repeat(calls));
        assert!(Formula::parse(&nested).is_ok());
        let err = Formula::parse(&format!("{nested}+A1")).expect_err("one operator over");
        assert!(matches!(err, FormulaError::TooDeep { .. }), "{err}");
    });
}
