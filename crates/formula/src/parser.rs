//! Recursive-descent parser for the formula grammar.
//!
//! Grammar (standard Excel precedence, all binary operators
//! left-associative):
//!
//! ```text
//! expr       := concat (cmp_op concat)*
//! concat     := additive ('&' additive)*
//! additive   := term (('+' | '-') term)*
//! term       := power (('*' | '/') power)*
//! power      := unary ('^' unary)*
//! unary      := ('-' | '+')* postfix
//! postfix    := primary '%'*
//! primary    := NUMBER | STRING | TRUE | FALSE | '#REF!'
//!             | NAME '(' args ')'          -- function call
//!             | sheet? REF (':' REF)?      -- cell or range reference
//!             | '(' expr ')'
//! sheet      := (NAME | QUOTED) '!'        -- `Sheet1!` or `'My Sheet'!`
//! ```

use crate::ast::{BinOp, Expr, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::FormulaError;
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef, SheetRef};

/// Parses a formula body (no leading `=`) into an expression tree.
pub fn parse(src: &str) -> Result<Expr, FormulaError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, i: 0, src_len: src.len() };
    let expr = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(FormulaError::Syntax {
            pos: t.pos,
            msg: format!("unexpected trailing token {:?}", t.kind),
        });
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    i: usize,
    src_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.i)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.i + 1)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek().map(|t| &t.kind) == Some(kind) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), FormulaError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, msg: String) -> FormulaError {
        FormulaError::Syntax { pos: self.peek().map_or(self.src_len, |t| t.pos), msg }
    }

    fn expr(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.concat()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Eq) => BinOp::Eq,
                Some(TokenKind::Ne) => BinOp::Ne,
                Some(TokenKind::Lt) => BinOp::Lt,
                Some(TokenKind::Le) => BinOp::Le,
                Some(TokenKind::Gt) => BinOp::Gt,
                Some(TokenKind::Ge) => BinOp::Ge,
                _ => break,
            };
            self.i += 1;
            let rhs = self.concat()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.additive()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.additive()?;
            lhs = Expr::Binary { op: BinOp::Concat, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.i += 1;
            let rhs = self.term()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.i += 1;
            let rhs = self.power()?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<Expr, FormulaError> {
        let mut lhs = self.unary()?;
        while self.eat(&TokenKind::Caret) {
            let rhs = self.unary()?;
            lhs = Expr::Binary { op: BinOp::Pow, lhs: Box::new(lhs), rhs: Box::new(rhs) };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, FormulaError> {
        if self.eat(&TokenKind::Minus) {
            let expr = self.unary()?;
            return Ok(Expr::Unary { op: UnOp::Neg, expr: Box::new(expr) });
        }
        if self.eat(&TokenKind::Plus) {
            let expr = self.unary()?;
            return Ok(Expr::Unary { op: UnOp::Plus, expr: Box::new(expr) });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, FormulaError> {
        let mut e = self.primary()?;
        while self.eat(&TokenKind::Percent) {
            e = Expr::Percent(Box::new(e));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, FormulaError> {
        let Some(t) = self.peek().cloned() else {
            return Err(self.err("unexpected end of formula".into()));
        };
        match t.kind {
            TokenKind::Number(n) => {
                self.i += 1;
                Ok(Expr::Number(n))
            }
            TokenKind::Str(s) => {
                self.i += 1;
                Ok(Expr::Text(s))
            }
            TokenKind::RefErr => {
                self.i += 1;
                Ok(Expr::RefError)
            }
            TokenKind::LParen => {
                self.i += 1;
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Name(name) => {
                // Function call?
                if self.peek2().map(|t| &t.kind) == Some(&TokenKind::LParen) {
                    self.i += 2;
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::Comma) {
                                continue;
                            }
                            self.expect(&TokenKind::RParen, "`,` or `)`")?;
                            break;
                        }
                    }
                    return Ok(Expr::func(&name, args));
                }
                // Sheet qualifier (`Sheet1!A1`)?
                if self.peek2().map(|t| &t.kind) == Some(&TokenKind::Bang) {
                    let sheet = SheetRef::new(name.as_str()).map_err(|e| FormulaError::Syntax {
                        pos: t.pos,
                        msg: format!("invalid sheet name: {e}"),
                    })?;
                    // Bare qualifiers must be identifiers; `X$1!A1` needs
                    // quotes (`'X$1'!A1`), same as `QualifiedRef::parse`.
                    if sheet.needs_quoting() {
                        return Err(FormulaError::Syntax {
                            pos: t.pos,
                            msg: format!("sheet name {name:?} must be quoted"),
                        });
                    }
                    self.i += 2;
                    return self.reference(Some(sheet));
                }
                // Boolean literals.
                if name.eq_ignore_ascii_case("TRUE") {
                    self.i += 1;
                    return Ok(Expr::Bool(true));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.i += 1;
                    return Ok(Expr::Bool(false));
                }
                self.reference(None)
            }
            TokenKind::Sheet(name) => {
                // A quoted sheet name must qualify a reference.
                let sheet = SheetRef::new(name.as_str()).map_err(|e| FormulaError::Syntax {
                    pos: t.pos,
                    msg: format!("invalid sheet name: {e}"),
                })?;
                self.i += 1;
                self.expect(&TokenKind::Bang, "`!` after sheet name")?;
                self.reference(Some(sheet))
            }
            other => {
                Err(FormulaError::Syntax { pos: t.pos, msg: format!("unexpected token {other:?}") })
            }
        }
    }

    /// Parses `REF (':' REF)?` at the current position, attaching an
    /// already-consumed sheet qualifier if one preceded it. The qualifier
    /// covers the whole range (`Sheet2!A1:B3`).
    fn reference(&mut self, sheet: Option<SheetRef>) -> Result<Expr, FormulaError> {
        let Some(Token { pos, kind: TokenKind::Name(name) }) = self.peek().cloned() else {
            return Err(self.err("expected cell reference".into()));
        };
        let head = CellRef::parse(&name)
            .map_err(|_| FormulaError::Syntax { pos, msg: format!("unknown name {name:?}") })?;
        self.i += 1;
        let rref = if self.eat(&TokenKind::Colon) {
            let Some(Token { pos, kind: TokenKind::Name(tail_name) }) = self.bump() else {
                return Err(self.err("expected reference after `:`".into()));
            };
            let tail = CellRef::parse(&tail_name).map_err(|_| FormulaError::Syntax {
                pos,
                msg: format!("invalid range tail {tail_name:?}"),
            })?;
            RangeRef::from_corners(head, tail)
        } else {
            RangeRef::single(head)
        };
        Ok(Expr::Ref(QualifiedRef { sheet, rref }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::FuncId;
    use taco_grid::Range;

    fn refs(src: &str) -> Vec<String> {
        parse(src).unwrap().collect_refs().iter().map(|r| r.range().to_a1()).collect()
    }

    #[test]
    fn precedence() {
        assert_eq!(parse("1+2*3").unwrap().to_string(), "1+2*3");
        assert_eq!(parse("1*2+3").unwrap().to_string(), "1*2+3");
        assert_eq!(parse("(1+2)*3").unwrap().to_string(), "(1+2)*3");
        // Comparison binds loosest.
        assert_eq!(parse("A1=A2+1").unwrap().to_string(), "A1=A2+1");
        // Concat sits between comparison and additive.
        assert_eq!(parse("\"a\"&\"b\"=\"ab\"").unwrap().to_string(), "\"a\"&\"b\"=\"ab\"");
    }

    #[test]
    fn unary_chain() {
        let e = parse("--1").unwrap();
        assert_eq!(e.to_string(), "--1");
        assert!(parse("-A1%").is_ok());
    }

    #[test]
    fn function_calls() {
        let e = parse("SUM(A1:A3)").unwrap();
        match &e {
            Expr::Func { id, name, args } => {
                assert_eq!((*id, name.as_str()), (FuncId::Sum, "SUM"));
                assert_eq!(args.len(), 1);
            }
            _ => panic!("expected Func"),
        }
        // Case-insensitive names, zero-arg functions.
        assert_eq!(parse("sum(A1)").unwrap().to_string(), "SUM(A1)");
        assert!(parse("NOW()").is_ok());
        // Nested calls with multiple args.
        assert_eq!(refs("IF(A1>0,SUM(B1:B9),MAX(C1,C2))"), vec!["A1", "B1:B9", "C1", "C2"]);
    }

    #[test]
    fn references() {
        assert_eq!(refs("A1"), vec!["A1"]);
        assert_eq!(refs("$A$1:B2"), vec!["A1:B2"]);
        // Reversed corners normalize.
        assert_eq!(refs("B2:A1"), vec!["A1:B2"]);
    }

    #[test]
    fn booleans_vs_refs() {
        assert_eq!(parse("TRUE").unwrap(), Expr::Bool(true));
        assert_eq!(parse("false").unwrap(), Expr::Bool(false));
        // TRUE( ) would be a function call.
        assert!(matches!(parse("TRUE()").unwrap(), Expr::Func { .. }));
    }

    #[test]
    fn fig2_formula() {
        let e = parse("IF(A3=A2,N2+M3,M3)").unwrap();
        let rs = e.collect_refs();
        assert_eq!(rs.len(), 5); // A3, A2, N2, M3, M3
        assert_eq!(rs[0].range(), Range::parse_a1("A3").unwrap());
    }

    #[test]
    fn sheet_qualified_references() {
        // Bare and quoted qualifiers, on cells and ranges.
        assert_eq!(refs("Sheet2!A1"), vec!["A1"]);
        let e = parse("'My Sheet'!A1:B3").unwrap();
        match &e {
            Expr::Ref(q) => {
                assert_eq!(q.sheet_name(), Some("My Sheet"));
                assert_eq!(q.range(), Range::parse_a1("A1:B3").unwrap());
            }
            other => panic!("expected Ref, got {other:?}"),
        }
        // Round-trips through the printer, quoting preserved.
        for src in
            ["Sheet2!A1+1", "SUM('My Sheet'!$A$1:B3)*data!C1", "'it''s'!A1", "'Q4 2023'!B2:B9"]
        {
            let ast = parse(src).unwrap();
            assert_eq!(parse(&ast.to_string()).unwrap(), ast, "src={src}");
        }
        // The qualifier does not turn function names into references.
        assert!(matches!(parse("SUM(Sheet1!A1)").unwrap(), Expr::Func { .. }));
    }

    #[test]
    fn ref_error_parses_prints_and_round_trips() {
        assert_eq!(parse("#REF!").unwrap(), Expr::RefError);
        // Structural deletes store sources like `#REF!*2`: they must
        // survive a parse → print → parse cycle for persistence replay.
        for src in ["#REF!", "#REF!*2", "SUM(#REF!)+1", "#REF!+#REF!", "IF(A1>0,#REF!,B2)"] {
            let ast = parse(src).unwrap();
            let printed = ast.to_string();
            assert_eq!(parse(&printed).unwrap(), ast, "src={src} printed={printed}");
        }
        assert!(parse("#REF!").unwrap().collect_refs().is_empty());
    }

    #[test]
    fn malformed_sheet_qualifiers_err() {
        for bad in [
            "Sheet1!",
            "!A1",
            "Sheet1!!A1",
            "'My Sheet'A1",
            "'My Sheet'!",
            "Sheet1!TRUE",
            "Sheet1!SUM(A1)",
            "A1:Sheet2!B2",
            "''!A1",
            "Sheet1!A1:!B2",
            "X$1!A1", // non-identifier bare name must be quoted: 'X$1'!A1
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn syntax_errors() {
        for bad in ["", "1+", "SUM(", "SUM(A1", "SUM(A1,)", "(1+2", "1 2", "FOO", "A1:", "A1:SUM"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
