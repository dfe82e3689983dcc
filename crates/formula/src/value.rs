//! Cell value types shared by the evaluator and the spreadsheet engine.

use std::fmt;

/// Spreadsheet error values (`#DIV/0!`, `#VALUE!`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellError {
    /// Division by zero.
    Div0,
    /// Wrong operand type.
    Value,
    /// Broken reference.
    Ref,
    /// Unknown function or name.
    Name,
    /// Lookup found nothing.
    Na,
    /// Circular dependency.
    Cycle,
}

impl CellError {
    /// Excel-style display text.
    pub fn code(self) -> &'static str {
        match self {
            CellError::Div0 => "#DIV/0!",
            CellError::Value => "#VALUE!",
            CellError::Ref => "#REF!",
            CellError::Name => "#NAME?",
            CellError::Na => "#N/A",
            CellError::Cycle => "#CYCLE!",
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// The value of a cell: pure or evaluated (the paper's "value").
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An empty cell.
    Empty,
    /// Numeric value.
    Number(f64),
    /// Text value.
    Text(String),
    /// Boolean value.
    Bool(bool),
    /// An error value.
    Error(CellError),
}

impl Value {
    /// Numeric coercion following Excel rules: numbers pass through, bools
    /// map to 0/1, empty maps to 0, text that is a decimal numeral parses
    /// (`inf` and `nan` are not), everything else is a `#VALUE!` error.
    pub fn as_number(&self) -> Result<f64, CellError> {
        match self {
            Value::Number(n) => Ok(*n),
            Value::Bool(b) => Ok(f64::from(u8::from(*b))),
            Value::Empty => Ok(0.0),
            Value::Text(s) => parse_number(s.trim()).ok_or(CellError::Value),
            Value::Error(e) => Err(*e),
        }
    }

    /// Boolean coercion: bools pass, numbers are `!= 0`, text
    /// `TRUE`/`FALSE` parses, empty is `false`.
    pub fn as_bool(&self) -> Result<bool, CellError> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Number(n) => Ok(*n != 0.0),
            Value::Empty => Ok(false),
            Value::Text(s) => {
                if s.eq_ignore_ascii_case("TRUE") {
                    Ok(true)
                } else if s.eq_ignore_ascii_case("FALSE") {
                    Ok(false)
                } else {
                    Err(CellError::Value)
                }
            }
            Value::Error(e) => Err(*e),
        }
    }

    /// Text coercion for `&` concatenation.
    pub fn as_text(&self) -> Result<String, CellError> {
        match self {
            Value::Text(s) => Ok(s.clone()),
            Value::Number(n) => Ok(format_number(*n)),
            Value::Bool(b) => Ok(if *b { "TRUE" } else { "FALSE" }.to_string()),
            Value::Empty => Ok(String::new()),
            Value::Error(e) => Err(*e),
        }
    }

    /// `true` for `Value::Error`.
    pub fn is_error(&self) -> bool {
        matches!(self, Value::Error(_))
    }

    /// `true` for `Value::Empty`.
    pub fn is_empty(&self) -> bool {
        matches!(self, Value::Empty)
    }
}

/// The number `text` spells as a decimal numeral — digits, an optional
/// sign, point and exponent — read as `str::parse::<f64>` reads it; `None`
/// for anything else. That parser also takes `inf`, `infinity` and `nan`
/// in any case, which no spreadsheet reads as a number.
pub(crate) fn parse_number(text: &str) -> Option<f64> {
    let decimal = |b: u8| b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E');
    text.bytes().all(decimal).then(|| text.parse().ok()).flatten()
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<CellError> for Value {
    fn from(e: CellError) -> Self {
        Value::Error(e)
    }
}

fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Empty => Ok(()),
            Value::Number(n) => f.write_str(&format_number(*n)),
            Value::Text(s) => f.write_str(s),
            Value::Bool(b) => f.write_str(if *b { "TRUE" } else { "FALSE" }),
            Value::Error(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_coercions() {
        assert_eq!(Value::Number(2.5).as_number(), Ok(2.5));
        assert_eq!(Value::Bool(true).as_number(), Ok(1.0));
        assert_eq!(Value::Empty.as_number(), Ok(0.0));
        assert_eq!(Value::Text(" 42 ".into()).as_number(), Ok(42.0));
        assert_eq!(Value::Text("x".into()).as_number(), Err(CellError::Value));
        assert_eq!(Value::Error(CellError::Div0).as_number(), Err(CellError::Div0));
        for numeral in ["1e3", "-2.5", "+.5", "7.", " 1E-2 "] {
            let want: f64 = numeral.trim().parse().unwrap();
            assert_eq!(Value::Text(numeral.into()).as_number(), Ok(want), "{numeral}");
        }
    }

    #[test]
    fn infinity_and_nan_spelled_out_are_text_not_numbers() {
        for spelling in [
            "inf",
            "INF",
            "Inf",
            "-inf",
            "+inf",
            "infinity",
            "Infinity",
            "-INFINITY",
            "nan",
            "NaN",
            "NAN",
            "-nan",
            " nan ",
            "",
        ] {
            assert_eq!(
                Value::Text(spelling.into()).as_number(),
                Err(CellError::Value),
                "{spelling}"
            );
        }
    }

    #[test]
    fn bool_coercions() {
        assert_eq!(Value::Number(0.0).as_bool(), Ok(false));
        assert_eq!(Value::Number(-3.0).as_bool(), Ok(true));
        assert_eq!(Value::Text("true".into()).as_bool(), Ok(true));
        assert_eq!(Value::Text("nah".into()).as_bool(), Err(CellError::Value));
        assert_eq!(Value::Empty.as_bool(), Ok(false));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(3.5).to_string(), "3.5");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
        assert_eq!(Value::Error(CellError::Na).to_string(), "#N/A");
        assert_eq!(Value::Empty.to_string(), "");
    }
}
