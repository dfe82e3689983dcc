use std::fmt;

/// Errors from lexing or parsing a formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormulaError {
    /// An unexpected character at the given byte offset.
    BadChar {
        /// Byte offset into the formula body.
        pos: usize,
        /// The offending character.
        ch: char,
    },
    /// A malformed token (e.g. an unterminated string literal).
    BadToken {
        /// Byte offset into the formula body.
        pos: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The token stream did not match the grammar.
    Syntax {
        /// Byte offset of the offending token.
        pos: usize,
        /// Human-readable description.
        msg: String,
    },
    /// The formula nests, or chains operators, deeper than
    /// [`MAX_DEPTH`](crate::parser::MAX_DEPTH).
    TooDeep {
        /// Byte offset of the token that crossed the limit.
        pos: usize,
    },
}

impl fmt::Display for FormulaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormulaError::BadChar { pos, ch } => {
                write!(f, "unexpected character {ch:?} at offset {pos}")
            }
            FormulaError::BadToken { pos, msg } => write!(f, "bad token at offset {pos}: {msg}"),
            FormulaError::Syntax { pos, msg } => write!(f, "syntax error at offset {pos}: {msg}"),
            FormulaError::TooDeep { pos } => write!(
                f,
                "formula nests deeper than {} levels at offset {pos}",
                crate::parser::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for FormulaError {}
