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

use crate::ast::{BinOp, Expr, Slot, UnOp};
use crate::lexer::{lex, number_len, Token, TokenKind};
use crate::FormulaError;
use taco_grid::a1::{CellRef, QualifiedRef, RangeRef, SheetRef};

/// The deepest expression tree the parser builds, and the deepest nesting
/// of parentheses, calls and signs it follows while building it. A leaf
/// has depth 0, so this allows 64 nested functions (Excel's own limit)
/// and `1+1+…+1` with 64 operators: the tree of a left-associative chain
/// is as deep as the chain is long.
///
/// Everything that walks a tree — the parser itself, the evaluator, the
/// printer, [`Expr::map_refs`], [`Expr::collect_refs`], the derived `Drop`
/// — recurses once per level, and formula text arrives from outside (a
/// `SetFormula` request, a WAL record, a stored image) on threads with
/// std's default 2 MiB stack, where running out aborts the process.
/// Measured on such a stack, unoptimised build, parse + evaluate + print +
/// autofill + row insert + drop: nested calls survive 326 levels, nested
/// parentheses 393, operator and sign chains 2 210 — at least five times
/// the bound (optimised: 1 977 and 5 675).
pub const MAX_DEPTH: usize = 64;

/// What a run of autofilled formulas may hold differently from cell to
/// cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hole {
    /// A reference, without its sheet qualifier.
    Ref(RangeRef),
    /// A numeric literal.
    Literal(Slot),
}

/// One reference or numeric literal and where it sits in the text it was
/// parsed from (byte offsets). Everything outside the spans is the text a
/// run of autofilled formulas has in common.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What sits there.
    pub hole: Hole,
    /// Start of the reference, sheet qualifier included, or the literal.
    pub start: u32,
    /// Start of a reference's cell or range part (`== start` when
    /// unqualified, and for a literal).
    pub at: u32,
    /// One past the last byte.
    pub end: u32,
}

/// Parses a formula body (no leading `=`) into an expression tree.
pub fn parse(src: &str) -> Result<Expr, FormulaError> {
    parse_spanned(src).map(|(expr, _)| expr)
}

/// [`parse`], plus the span of every reference and numeric literal in
/// source order — the order the printer ([`Expr::write_with`]) writes
/// them in.
pub fn parse_spanned(src: &str) -> Result<(Expr, Vec<Span>), FormulaError> {
    if u32::try_from(src.len()).is_err() {
        return Err(FormulaError::Syntax { pos: 0, msg: "formula too long".into() });
    }
    let tokens = lex(src)?;
    let mut p = Parser { tokens, i: 0, src, nesting: 0, spans: Vec::new() };
    let (expr, _) = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(FormulaError::Syntax {
            pos: t.pos,
            msg: format!("unexpected trailing token {:?}", t.kind),
        });
    }
    Ok((*expr, p.spans))
}

struct Parser<'s> {
    tokens: Vec<Token>,
    i: usize,
    src: &'s str,
    /// Parentheses, call arguments and signs open around the current token.
    nesting: usize,
    /// One per reference and numeric literal parsed so far.
    spans: Vec<Span>,
}

/// A parsed subtree and its height (a leaf is 0). Boxed as its parent
/// will hold it, which also keeps the recursive productions' frames small.
type Sub = (Box<Expr>, usize);

impl Parser<'_> {
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
        FormulaError::Syntax { pos: self.peek().map_or(self.src.len(), |t| t.pos), msg }
    }

    fn too_deep(&self) -> FormulaError {
        FormulaError::TooDeep { pos: self.peek().map_or(self.src.len(), |t| t.pos) }
    }

    /// Runs `inner` one nesting level down; bounds the parser's own
    /// recursion, which parentheses deepen without deepening the tree.
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Sub, FormulaError>,
    ) -> Result<Sub, FormulaError> {
        if self.nesting == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.nesting += 1;
        let sub = inner(self);
        self.nesting -= 1;
        sub
    }

    /// The height of a node whose tallest child has height `below`.
    fn above(&self, below: usize) -> Result<usize, FormulaError> {
        if below < MAX_DEPTH {
            Ok(below + 1)
        } else {
            Err(self.too_deep())
        }
    }

    fn binary(&self, op: BinOp, (lhs, lh): Sub, (rhs, rh): Sub) -> Result<Sub, FormulaError> {
        let height = self.above(lh.max(rh))?;
        Ok((Box::new(Expr::Binary { op, lhs, rhs }), height))
    }

    fn expr(&mut self) -> Result<Sub, FormulaError> {
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
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Sub, FormulaError> {
        let mut lhs = self.additive()?;
        while self.eat(&TokenKind::Amp) {
            let rhs = self.additive()?;
            lhs = self.binary(BinOp::Concat, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Sub, FormulaError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.i += 1;
            let rhs = self.term()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Sub, FormulaError> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                _ => break,
            };
            self.i += 1;
            let rhs = self.power()?;
            lhs = self.binary(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<Sub, FormulaError> {
        let mut lhs = self.unary()?;
        while self.eat(&TokenKind::Caret) {
            let rhs = self.unary()?;
            lhs = self.binary(BinOp::Pow, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Sub, FormulaError> {
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Minus) => UnOp::Neg,
            Some(TokenKind::Plus) => UnOp::Plus,
            _ => return self.postfix(),
        };
        self.i += 1;
        let (expr, height) = self.nested(Self::unary)?;
        Ok((Box::new(Expr::Unary { op, expr }), self.above(height)?))
    }

    fn postfix(&mut self) -> Result<Sub, FormulaError> {
        let (mut e, mut height) = self.primary()?;
        while self.eat(&TokenKind::Percent) {
            height = self.above(height)?;
            e = Box::new(Expr::Percent(e));
        }
        Ok((e, height))
    }

    /// The two productions that recurse, kept apart from [`Self::atom`]:
    /// in an unoptimised build one function's frame holds the temporaries
    /// of all its arms, and these frames repeat once per nesting level.
    fn primary(&mut self) -> Result<Sub, FormulaError> {
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Name(_)))
            && self.peek2().map(|t| &t.kind) == Some(&TokenKind::LParen)
        {
            return self.call();
        }
        if self.eat(&TokenKind::LParen) {
            let e = self.nested(Self::expr)?;
            self.expect(&TokenKind::RParen, "`)`")?;
            return Ok(e);
        }
        self.atom()
    }

    /// `NAME '(' args ')'`, positioned at the name.
    fn call(&mut self) -> Result<Sub, FormulaError> {
        let Some(Token { kind: TokenKind::Name(name), .. }) = self.bump() else {
            return Err(self.err("expected function name".into()));
        };
        self.i += 1; // the `(` that made this a call
        let mut args = Vec::new();
        let mut tallest = 0;
        if !self.eat(&TokenKind::RParen) {
            loop {
                let (arg, height) = self.nested(Self::expr)?;
                args.push(*arg);
                tallest = tallest.max(height);
                if self.eat(&TokenKind::Comma) {
                    continue;
                }
                self.expect(&TokenKind::RParen, "`,` or `)`")?;
                break;
            }
        }
        Ok((Box::new(Expr::func(&name, args)), self.above(tallest)?))
    }

    fn atom(&mut self) -> Result<Sub, FormulaError> {
        let Some(t) = self.peek().cloned() else {
            return Err(self.err("unexpected end of formula".into()));
        };
        match t.kind {
            TokenKind::Number(n) => {
                self.i += 1;
                let end = t.pos + number_len(&self.src.as_bytes()[t.pos..]);
                let (start, end) = (t.pos as u32, end as u32);
                self.spans.push(Span {
                    hole: Hole::Literal(Slot::fixed(n)),
                    start,
                    at: start,
                    end,
                });
                Ok((Box::new(Expr::Number(n)), 0))
            }
            TokenKind::Str(s) => {
                self.i += 1;
                Ok((Box::new(Expr::Text(s)), 0))
            }
            TokenKind::RefErr => {
                self.i += 1;
                Ok((Box::new(Expr::RefError), 0))
            }
            TokenKind::Name(name) => {
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
                    return self.reference(Some(sheet), t.pos);
                }
                // Boolean literals.
                if name.eq_ignore_ascii_case("TRUE") {
                    self.i += 1;
                    return Ok((Box::new(Expr::Bool(true)), 0));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.i += 1;
                    return Ok((Box::new(Expr::Bool(false)), 0));
                }
                self.reference(None, t.pos)
            }
            TokenKind::Sheet(name) => {
                // A quoted sheet name must qualify a reference.
                let sheet = SheetRef::new(name.as_str()).map_err(|e| FormulaError::Syntax {
                    pos: t.pos,
                    msg: format!("invalid sheet name: {e}"),
                })?;
                self.i += 1;
                self.expect(&TokenKind::Bang, "`!` after sheet name")?;
                self.reference(Some(sheet), t.pos)
            }
            other => {
                Err(FormulaError::Syntax { pos: t.pos, msg: format!("unexpected token {other:?}") })
            }
        }
    }

    /// Parses `REF (':' REF)?` at the current position, attaching an
    /// already-consumed sheet qualifier if one preceded it. The qualifier
    /// covers the whole range (`Sheet2!A1:B3`); `start` is where it, or
    /// else the reference, begins.
    fn reference(&mut self, sheet: Option<SheetRef>, start: usize) -> Result<Sub, FormulaError> {
        let Some(Token { pos, kind: TokenKind::Name(name) }) = self.peek().cloned() else {
            return Err(self.err("expected cell reference".into()));
        };
        let head = CellRef::parse(&name)
            .map_err(|_| FormulaError::Syntax { pos, msg: format!("unknown name {name:?}") })?;
        self.i += 1;
        let at = pos;
        let mut end = pos + name.len();
        let rref = if self.eat(&TokenKind::Colon) {
            let Some(Token { pos, kind: TokenKind::Name(tail_name) }) = self.bump() else {
                return Err(self.err("expected reference after `:`".into()));
            };
            let tail = CellRef::parse(&tail_name).map_err(|_| FormulaError::Syntax {
                pos,
                msg: format!("invalid range tail {tail_name:?}"),
            })?;
            end = pos + tail_name.len();
            RangeRef::from_corners(head, tail)
        } else {
            RangeRef::single(head)
        };
        // A name token is the source slice it was lexed from, so its
        // length is its extent.
        let (start, at, end) = (start as u32, at as u32, end as u32);
        self.spans.push(Span { hole: Hole::Ref(rref), start, at, end });
        Ok((Box::new(Expr::Ref(QualifiedRef { sheet, rref })), 0))
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
