use taco_formula::{Formula, Value};

/// What a cell holds: a pure value, or a formula plus its last evaluated
/// value (the paper's "pure value" vs "formula cell / evaluated value").
///
/// The value sits inline and the formula behind a pointer, so the cell
/// store's range scans step over 32-byte contents whatever a cell holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CellContent {
    pub(crate) value: Value,
    pub(crate) formula: Option<Box<Formula>>,
}

impl CellContent {
    /// A pure (typed constant) value.
    pub fn pure(value: Value) -> Self {
        CellContent { value, formula: None }
    }

    /// A formula and the result of its most recent evaluation
    /// (`Value::Empty` before the first one).
    pub fn formula_cell(formula: Formula, value: Value) -> Self {
        CellContent { value, formula: Some(Box::new(formula)) }
    }

    /// The current user-visible value of the cell.
    pub fn value(&self) -> &Value {
        &self.value
    }

    /// The formula, if this is a formula cell.
    pub fn formula(&self) -> Option<&Formula> {
        self.formula.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = CellContent::pure(Value::Number(4.0));
        assert_eq!(p.value(), &Value::Number(4.0));
        assert!(p.formula().is_none());

        let f = CellContent::formula_cell(Formula::parse("=A1+1").unwrap(), Value::Empty);
        assert_eq!(f.value(), &Value::Empty);
        assert_eq!(f.formula().unwrap().src, "A1+1");
    }
}
