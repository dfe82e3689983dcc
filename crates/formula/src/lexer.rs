//! Tokenizer for the formula grammar.

use crate::FormulaError;

/// A lexical token with its byte offset in the formula body.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Byte offset of the token start.
    pub pos: usize,
    /// Token payload.
    pub kind: TokenKind,
}

/// Token kinds. Identifiers and cell references are both lexed as
/// [`TokenKind::Name`]; the parser disambiguates (a `Name` followed by `(`
/// is a function call, otherwise it must parse as a reference or a boolean
/// literal).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Numeric literal.
    Number(f64),
    /// String literal (quotes stripped, `""` unescaped).
    Str(String),
    /// Identifier or cell reference text, `$` markers included.
    Name(String),
    /// A single-quoted sheet name (`'My Sheet'`, quotes stripped, `''`
    /// unescaped). Only valid immediately before a `!`.
    Sheet(String),
    /// The broken-reference literal `#REF!`.
    RefErr,
    /// `!` (sheet-qualifier separator)
    Bang,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `^`
    Caret,
    /// `&`
    Amp,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Tokenizes a formula body (no leading `=`).
pub fn lex(src: &str) -> Result<Vec<Token>, FormulaError> {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(src.len() / 2 + 1);
    let mut i = 0;
    while i < bytes.len() {
        let pos = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'(' => {
                out.push(Token { pos, kind: TokenKind::LParen });
                i += 1;
            }
            b')' => {
                out.push(Token { pos, kind: TokenKind::RParen });
                i += 1;
            }
            b',' => {
                out.push(Token { pos, kind: TokenKind::Comma });
                i += 1;
            }
            b':' => {
                out.push(Token { pos, kind: TokenKind::Colon });
                i += 1;
            }
            b'+' => {
                out.push(Token { pos, kind: TokenKind::Plus });
                i += 1;
            }
            b'-' => {
                out.push(Token { pos, kind: TokenKind::Minus });
                i += 1;
            }
            b'*' => {
                out.push(Token { pos, kind: TokenKind::Star });
                i += 1;
            }
            b'/' => {
                out.push(Token { pos, kind: TokenKind::Slash });
                i += 1;
            }
            b'^' => {
                out.push(Token { pos, kind: TokenKind::Caret });
                i += 1;
            }
            b'&' => {
                out.push(Token { pos, kind: TokenKind::Amp });
                i += 1;
            }
            b'%' => {
                out.push(Token { pos, kind: TokenKind::Percent });
                i += 1;
            }
            b'!' => {
                out.push(Token { pos, kind: TokenKind::Bang });
                i += 1;
            }
            b'#' => {
                // `#REF!` is the only error literal a formula can contain
                // (structural deletes rewrite dead references to it); any
                // other `#...` is still a bad character.
                if bytes[i..].starts_with(b"#REF!") {
                    out.push(Token { pos, kind: TokenKind::RefErr });
                    i += 5;
                } else {
                    return Err(FormulaError::BadChar { pos, ch: '#' });
                }
            }
            b'=' => {
                out.push(Token { pos, kind: TokenKind::Eq });
                i += 1;
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push(Token { pos, kind: TokenKind::Ne });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { pos, kind: TokenKind::Le });
                    i += 2;
                } else {
                    out.push(Token { pos, kind: TokenKind::Lt });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token { pos, kind: TokenKind::Ge });
                    i += 2;
                } else {
                    out.push(Token { pos, kind: TokenKind::Gt });
                    i += 1;
                }
            }
            b'"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(FormulaError::BadToken {
                                pos,
                                msg: "unterminated string literal".into(),
                            })
                        }
                        Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                            s.push('"');
                            i += 2;
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            // Multi-byte UTF-8 safe: walk char boundaries.
                            let ch = src[i..].chars().next().expect("in-bounds");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                out.push(Token { pos, kind: TokenKind::Str(s) });
            }
            b'\'' => {
                // Single quotes delimit sheet names (`'My Sheet'!A1`), with
                // `''` escaping an embedded apostrophe.
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(FormulaError::BadToken {
                                pos,
                                msg: "unterminated sheet name".into(),
                            })
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            let ch = src[i..].chars().next().expect("in-bounds");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                out.push(Token { pos, kind: TokenKind::Sheet(s) });
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                i += number_len(&bytes[i..]);
                let text = &src[start..i];
                let n: f64 = text.parse().map_err(|_| FormulaError::BadToken {
                    pos,
                    msg: format!("invalid number {text:?}"),
                })?;
                out.push(Token { pos, kind: TokenKind::Number(n) });
            }
            b'$' | b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                // Name: `$`s, letters, digits, underscores. Covers both
                // identifiers (SUM, TRUE) and references ($B$12).
                let start = i;
                while i < bytes.len()
                    && (bytes[i] == b'$' || bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                {
                    i += 1;
                }
                out.push(Token { pos, kind: TokenKind::Name(src[start..i].to_string()) });
            }
            _ => {
                let ch = src[i..].chars().next().expect("in-bounds");
                return Err(FormulaError::BadChar { pos, ch });
            }
        }
    }
    Ok(out)
}

/// The length of the numeric literal `bytes` starts with: digits and
/// dots, then an exponent if one follows (`e`, a sign, digits). The one
/// scan of a number, shared by the lexer and by the sharing check that
/// reads a literal out of typed text where a template has one.
pub(crate) fn number_len(bytes: &[u8]) -> usize {
    let mut i = bytes.iter().take_while(|b| b.is_ascii_digit() || **b == b'.').count();
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
        let exp = bytes[i + 1 + sign..].iter().take_while(|b| b.is_ascii_digit()).count();
        if exp > 0 {
            i += 1 + sign + exp;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn operators_and_whitespace() {
        use TokenKind::*;
        assert_eq!(
            kinds("1 + 2*3 <= 4 <> 5 >= 6 < 7 > 8 & \"x\" ^ 9 %"),
            vec![
                Number(1.0),
                Plus,
                Number(2.0),
                Star,
                Number(3.0),
                Le,
                Number(4.0),
                Ne,
                Number(5.0),
                Ge,
                Number(6.0),
                Lt,
                Number(7.0),
                Gt,
                Number(8.0),
                Amp,
                Str("x".into()),
                Caret,
                Number(9.0),
                Percent,
            ]
        );
    }

    #[test]
    fn names_capture_dollars() {
        use TokenKind::*;
        assert_eq!(
            kinds("SUM($B$1:B4)"),
            vec![Name("SUM".into()), LParen, Name("$B$1".into()), Colon, Name("B4".into()), RParen,]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("1.5"), vec![TokenKind::Number(1.5)]);
        assert_eq!(kinds("2e3"), vec![TokenKind::Number(2000.0)]);
        assert_eq!(kinds("2.5E-1"), vec![TokenKind::Number(0.25)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5)]);
        assert!(lex("1.2.3").is_err());
    }

    #[test]
    fn string_escapes() {
        assert_eq!(kinds(r#""he said ""hi""""#), vec![TokenKind::Str(r#"he said "hi""#.into())]);
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn sheet_names_and_bang() {
        use TokenKind::*;
        assert_eq!(
            kinds("Sheet1!A1+'My Sheet'!B2"),
            vec![
                Name("Sheet1".into()),
                Bang,
                Name("A1".into()),
                Plus,
                Sheet("My Sheet".into()),
                Bang,
                Name("B2".into()),
            ]
        );
        assert_eq!(kinds("'it''s'!C3")[0], Sheet("it's".into()));
        assert!(lex("'open sheet!A1").is_err());
    }

    #[test]
    fn ref_error_literal() {
        use TokenKind::*;
        assert_eq!(kinds("#REF!*2"), vec![RefErr, Star, Number(2.0)]);
        assert_eq!(kinds("#REF!+#REF!"), vec![RefErr, Plus, RefErr]);
        // Only the exact literal lexes; `#REF` without the bang does not.
        assert!(matches!(lex("#REF"), Err(FormulaError::BadChar { pos: 0, ch: '#' })));
        assert!(matches!(lex("#NAME?"), Err(FormulaError::BadChar { pos: 0, ch: '#' })));
    }

    #[test]
    fn bad_char_reports_position() {
        match lex("1 + #REF") {
            Err(FormulaError::BadChar { pos, ch }) => {
                assert_eq!(pos, 4);
                assert_eq!(ch, '#');
            }
            other => panic!("expected BadChar, got {other:?}"),
        }
    }
}
