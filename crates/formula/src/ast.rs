//! Expression tree for parsed formulae.

use std::fmt;
use taco_grid::a1::QualifiedRef;

/// Binary operators, in Excel semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `^`
    Pow,
    /// `&` string concatenation
    Concat,
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

impl BinOp {
    /// Operator symbol as written in a formula.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
            BinOp::Concat => "&",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }

    /// Binding strength, higher binds tighter (used when rendering).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 1,
            BinOp::Concat => 2,
            BinOp::Add | BinOp::Sub => 3,
            BinOp::Mul | BinOp::Div => 4,
            BinOp::Pow => 5,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Unary minus.
    Neg,
    /// Unary plus (no-op, kept for round-tripping).
    Plus,
}

/// A function the evaluator knows, resolved from the name once, when the
/// formula is parsed, so a call dispatches on this instead of comparing
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // the variants are the spreadsheet functions of the same names
pub enum FuncId {
    Sum,
    Product,
    Count,
    CountA,
    Average,
    Min,
    Max,
    If,
    And,
    Or,
    Not,
    Abs,
    Sqrt,
    Int,
    Round,
    Len,
    Concatenate,
    Vlookup,
    SumIf,
    CountIf,
    AverageIf,
    Index,
    Match,
    Now,
    Today,
    Rand,
    /// Any other name: evaluates to `#NAME?`.
    Unknown,
}

impl FuncId {
    /// Every spelling the evaluator knows (upper case) with its id.
    pub const KNOWN: &'static [(&'static str, FuncId)] = &[
        ("SUM", FuncId::Sum),
        ("PRODUCT", FuncId::Product),
        ("COUNT", FuncId::Count),
        ("COUNTA", FuncId::CountA),
        ("AVERAGE", FuncId::Average),
        ("AVG", FuncId::Average),
        ("MIN", FuncId::Min),
        ("MAX", FuncId::Max),
        ("IF", FuncId::If),
        ("AND", FuncId::And),
        ("OR", FuncId::Or),
        ("NOT", FuncId::Not),
        ("ABS", FuncId::Abs),
        ("SQRT", FuncId::Sqrt),
        ("INT", FuncId::Int),
        ("ROUND", FuncId::Round),
        ("LEN", FuncId::Len),
        ("CONCATENATE", FuncId::Concatenate),
        ("VLOOKUP", FuncId::Vlookup),
        ("SUMIF", FuncId::SumIf),
        ("COUNTIF", FuncId::CountIf),
        ("AVERAGEIF", FuncId::AverageIf),
        ("INDEX", FuncId::Index),
        ("MATCH", FuncId::Match),
        ("NOW", FuncId::Now),
        ("TODAY", FuncId::Today),
        ("RAND", FuncId::Rand),
    ];

    /// The id of an upper-cased function name.
    pub fn of(name: &str) -> FuncId {
        FuncId::KNOWN.iter().find(|(known, _)| *known == name).map_or(FuncId::Unknown, |e| e.1)
    }
}

/// A numeric literal of a formula that a run of cells shares, as a line
/// along the run's rows: `c0` where the formula was written, `step` more
/// per row below. A literal typed alike in every cell has step 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    /// The value where the formula was written.
    pub c0: f64,
    /// What the value gains per row.
    pub step: f64,
}

impl Slot {
    /// A literal that every cell of a run holds alike.
    pub fn fixed(value: f64) -> Slot {
        Slot { c0: value, step: 0.0 }
    }

    /// The value `dr` rows from where the formula was written,
    /// `c0 + step·dr`: the one place it is computed, so the evaluator, the
    /// printer and the sharing check agree on it to the bit.
    #[inline]
    pub fn at(self, dr: i64) -> f64 {
        self.c0 + self.step * dr as f64
    }

    /// The literal as a tree node: [`Expr::Number`] for step 0.
    pub fn expr(self) -> Expr {
        if self.step == 0.0 {
            Expr::Number(self.c0)
        } else {
            Expr::Slot(self)
        }
    }
}

/// A leaf of a tree that a template re-prints at an offset, as
/// [`Expr::write_with`] hands it over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf<'a> {
    /// A reference.
    Ref(&'a QualifiedRef),
    /// A numeric literal.
    Number(Slot),
}

/// A parsed formula expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// A numeric literal that moves along the rows of the run sharing the
    /// tree (a [`crate::Template`]'s; the parser makes none): its value
    /// is [`Slot::at`] the row offset evaluated at, and it prints as the
    /// value where the formula was written.
    Slot(Slot),
    /// String literal.
    Text(String),
    /// Boolean literal (`TRUE`/`FALSE`).
    Bool(bool),
    /// A cell or range reference, optionally sheet-qualified
    /// (`Sheet2!A1`).
    Ref(QualifiedRef),
    /// A broken reference (produced by autofill falling off the grid —
    /// Excel's `#REF!`).
    RefError,
    /// Function call; build one with [`Expr::func`].
    Func {
        /// [`FuncId::of`] the name.
        id: FuncId,
        /// Upper-cased function name, as printed.
        name: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Postfix percent (`50%` = 0.5).
    Percent(Box<Expr>),
}

impl Expr {
    /// A call of the function spelled `name` (any case).
    pub fn func(name: &str, args: Vec<Expr>) -> Expr {
        let name = name.to_ascii_uppercase();
        Expr::Func { id: FuncId::of(&name), name, args }
    }

    /// Collects every reference in the expression, in source order, as the
    /// *dependency read set*: the cells evaluation may actually touch
    /// (see [`Expr::visit_reads`]).
    pub fn collect_refs(&self) -> Vec<QualifiedRef> {
        let mut out = Vec::new();
        self.visit_reads(&mut |q, shaped_by| {
            out.push(match shaped_by {
                None => q.clone(),
                Some(crit) => q.resized(crit.range().width(), crit.range().height()),
            })
        });
        out
    }

    /// Visits the dependency read set in source order: every reference,
    /// and for one that evaluation reshapes, the reference whose shape it
    /// takes.
    ///
    /// This is function-aware where evaluation reads outside the literal
    /// reference: `SUMIF`/`AVERAGEIF` shape their sum range to the
    /// criteria range's dimensions (Excel's implicit resize), so the sum
    /// reference comes with the criteria reference — otherwise the formula
    /// graph would miss dependencies on the cells the aggregate reads
    /// beyond the written range, and edits there would never dirty the
    /// formula.
    pub fn visit_reads<F: FnMut(&QualifiedRef, Option<&QualifiedRef>)>(&self, f: &mut F) {
        match self {
            Expr::Func { id: FuncId::SumIf | FuncId::AverageIf, args, .. } if args.len() == 3 => {
                args[0].visit_reads(f);
                args[1].visit_reads(f);
                match (&args[0], &args[2]) {
                    (Expr::Ref(crit), Expr::Ref(sum)) => f(sum, Some(crit)),
                    _ => args[2].visit_reads(f),
                }
            }
            // Every other node reads exactly its literal references.
            Expr::Ref(r) => f(r, None),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit_reads(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_reads(f);
                rhs.visit_reads(f);
            }
            Expr::Unary { expr, .. } | Expr::Percent(expr) => expr.visit_reads(f),
            Expr::Number(_) | Expr::Slot(_) | Expr::Text(_) | Expr::Bool(_) | Expr::RefError => {}
        }
    }

    /// Visits every reference in source order, *as written* (no
    /// function-aware resizing — see [`Expr::collect_refs`] for the
    /// dependency read set).
    pub fn visit_refs<F: FnMut(&QualifiedRef)>(&self, f: &mut F) {
        self.visit_leaves(&mut |leaf| {
            if let Leaf::Ref(q) = leaf {
                f(q);
            }
        });
    }

    /// Visits every reference and numeric literal in source order — the
    /// order the printer writes them in.
    pub(crate) fn visit_leaves<'a>(&'a self, f: &mut impl FnMut(Leaf<'a>)) {
        match self {
            Expr::Ref(r) => f(Leaf::Ref(r)),
            Expr::Number(n) => f(Leaf::Number(Slot::fixed(*n))),
            Expr::Slot(slot) => f(Leaf::Number(*slot)),
            Expr::Func { args, .. } => {
                for a in args {
                    a.visit_leaves(f);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_leaves(f);
                rhs.visit_leaves(f);
            }
            Expr::Unary { expr, .. } | Expr::Percent(expr) => expr.visit_leaves(f),
            Expr::Text(_) | Expr::Bool(_) | Expr::RefError => {}
        }
    }

    /// Rewrites every reference with `f`; `None` marks the reference broken
    /// (replaced by `#REF!`). Used by autofill.
    pub fn map_refs<F: FnMut(&QualifiedRef) -> Option<QualifiedRef>>(&self, f: &mut F) -> Expr {
        self.map_leaves(f, &mut Slot::expr)
    }

    /// Rewrites every reference with `on_ref` (`None` makes it `#REF!`)
    /// and every numeric literal with `on_number`, in source order.
    pub(crate) fn map_leaves(
        &self,
        on_ref: &mut impl FnMut(&QualifiedRef) -> Option<QualifiedRef>,
        on_number: &mut impl FnMut(Slot) -> Expr,
    ) -> Expr {
        match self {
            Expr::Ref(r) => match on_ref(r) {
                Some(nr) => Expr::Ref(nr),
                None => Expr::RefError,
            },
            Expr::Number(n) => on_number(Slot::fixed(*n)),
            Expr::Slot(slot) => on_number(*slot),
            Expr::Func { id, name, args } => Expr::Func {
                id: *id,
                name: name.clone(),
                args: args.iter().map(|a| a.map_leaves(on_ref, on_number)).collect(),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.map_leaves(on_ref, on_number)),
                rhs: Box::new(rhs.map_leaves(on_ref, on_number)),
            },
            Expr::Unary { op, expr } => {
                Expr::Unary { op: *op, expr: Box::new(expr.map_leaves(on_ref, on_number)) }
            }
            Expr::Percent(expr) => match expr.map_leaves(on_ref, on_number) {
                // A literal mapped to a negation, `-n`, prints as `-n%`,
                // which reads back as the negation of `n%`.
                Expr::Unary { op: UnOp::Neg, expr: n } if !matches!(**expr, Expr::Unary { .. }) => {
                    Expr::Unary { op: UnOp::Neg, expr: Box::new(Expr::Percent(n)) }
                }
                mapped => Expr::Percent(Box::new(mapped)),
            },
            Expr::Text(_) | Expr::Bool(_) | Expr::RefError => self.clone(),
        }
    }

    /// Whether the expression calls a volatile function (`NOW`, `TODAY`,
    /// `RAND`) anywhere in its tree.
    pub fn is_volatile(&self) -> bool {
        match self {
            Expr::Func { id, args, .. } => {
                matches!(id, FuncId::Now | FuncId::Today | FuncId::Rand)
                    || args.iter().any(Expr::is_volatile)
            }
            Expr::Binary { lhs, rhs, .. } => lhs.is_volatile() || rhs.is_volatile(),
            Expr::Unary { expr, .. } | Expr::Percent(expr) => expr.is_volatile(),
            Expr::Number(_)
            | Expr::Slot(_)
            | Expr::Text(_)
            | Expr::Bool(_)
            | Expr::Ref(_)
            | Expr::RefError => false,
        }
    }

    /// Prints the expression as [`fmt::Display`] does, handing every
    /// reference and numeric literal, in source order, to `on_leaf` to
    /// write.
    pub fn write_with<W: fmt::Write>(
        &self,
        w: &mut W,
        on_leaf: &mut impl FnMut(&mut W, Leaf<'_>) -> fmt::Result,
    ) -> fmt::Result {
        self.write_prec(w, 0, on_leaf)
    }

    fn write_prec<W: fmt::Write>(
        &self,
        f: &mut W,
        parent: u8,
        on_leaf: &mut impl FnMut(&mut W, Leaf<'_>) -> fmt::Result,
    ) -> fmt::Result {
        match self {
            Expr::Number(n) => on_leaf(f, Leaf::Number(Slot::fixed(*n))),
            Expr::Slot(slot) => on_leaf(f, Leaf::Number(*slot)),
            Expr::Text(s) => write!(f, "\"{}\"", s.replace('"', "\"\"")),
            Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::Ref(r) => on_leaf(f, Leaf::Ref(r)),
            Expr::RefError => write!(f, "#REF!"),
            Expr::Func { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    a.write_prec(f, 0, on_leaf)?;
                }
                write!(f, ")")
            }
            Expr::Binary { op, lhs, rhs } => {
                let p = op.precedence();
                let need = p < parent;
                if need {
                    write!(f, "(")?;
                }
                lhs.write_prec(f, p, on_leaf)?;
                write!(f, "{}", op.symbol())?;
                // Left-associative: right child parenthesizes at p+1.
                rhs.write_prec(f, p + 1, on_leaf)?;
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Unary { op, expr } => {
                // Unary binds at level 6; postfix `%` binds tighter (7), so
                // a unary operand of `%` needs parentheses: `(-1)%`.
                let need = parent > 6;
                if need {
                    write!(f, "(")?;
                }
                write!(f, "{}", if *op == UnOp::Neg { "-" } else { "+" })?;
                expr.write_prec(f, 6, on_leaf)?;
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Percent(expr) => {
                expr.write_prec(f, 7, on_leaf)?;
                write!(f, "%")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_with(f, &mut |f, leaf| match leaf {
            Leaf::Ref(r) => write!(f, "{r}"),
            Leaf::Number(slot) => write!(f, "{}", slot.c0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    #[test]
    fn display_round_trips_through_parser() {
        for src in [
            "IF(A3=A2,N2+M3,M3)",
            "SUM($B$1:B4)*A1",
            "1+2*3",
            "(1+2)*3",
            "-A1+B2%",
            "A1&\"x\"&B1",
            "2^3^2",
            "VLOOKUP(A1,$D$1:$E$9,2,FALSE)",
        ] {
            let ast = parse(src).unwrap();
            let printed = ast.to_string();
            let reparsed = parse(&printed).unwrap();
            assert_eq!(ast, reparsed, "src={src} printed={printed}");
        }
    }

    #[test]
    fn every_function_name_resolves_once_and_round_trips_through_the_printer() {
        use super::{Expr, FuncId};
        let mixed = |name: &str| -> String {
            name.chars()
                .enumerate()
                .map(|(i, c)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c })
                .collect()
        };
        let names = FuncId::KNOWN.iter().map(|&(name, id)| (name, id));
        for (name, id) in names.chain([("FROBNICATE", FuncId::Unknown)]) {
            for spelling in [name.to_string(), name.to_ascii_lowercase(), mixed(name)] {
                let ast = parse(&format!("{spelling}(A1,2)+1")).unwrap();
                let Expr::Binary { lhs, .. } = &ast else { panic!("{ast:?}") };
                let Expr::Func { id: got, name: printed, .. } = &**lhs else { panic!("{lhs:?}") };
                assert_eq!((*got, printed.as_str()), (id, name), "{spelling}");
                let printed = ast.to_string();
                assert_eq!(printed, format!("{name}(A1,2)+1"));
                assert_eq!(parse(&printed).unwrap(), ast);
                assert_eq!(parse(&printed).unwrap().to_string(), printed);
            }
        }
        assert_eq!(Expr::func("sumIf", Vec::new()), parse("SUMIF()").unwrap());
    }

    #[test]
    fn precedence_printing_minimal_parens() {
        let ast = parse("(1+2)*3").unwrap();
        assert_eq!(ast.to_string(), "(1+2)*3");
        let ast = parse("1+2*3").unwrap();
        assert_eq!(ast.to_string(), "1+2*3");
    }

    #[test]
    fn map_refs_to_ref_error() {
        let ast = parse("A1+B2").unwrap();
        let broken = ast.map_refs(&mut |_| None);
        assert_eq!(broken.to_string(), "#REF!+#REF!");
        assert!(broken.collect_refs().is_empty());
    }

    #[test]
    fn sumif_sum_range_is_resized_to_criteria_shape() {
        // Evaluation reads B1..B3 (criteria shape at the sum head), so the
        // read set must too — while the AST keeps what was written.
        let ast = parse("SUMIF(A1:A3,\">0\",B1:B1)").unwrap();
        let refs = ast.collect_refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[1].range().to_a1(), "B1:B3");
        // (a single-cell range prints collapsed, but is still as written)
        assert_eq!(ast.to_string(), "SUMIF(A1:A3,\">0\",B1)");
        // Sheet qualifiers survive the resize.
        let refs = parse("SUMIF(Data!A1:A3,1,Data!B1:B1)").unwrap().collect_refs();
        assert_eq!(refs[1].sheet_name(), Some("Data"));
        assert_eq!(refs[1].range().to_a1(), "B1:B3");
        // An oversized sum range shrinks to what is actually read.
        let refs = parse("AVERAGEIF(A1:A2,1,B1:B9)").unwrap().collect_refs();
        assert_eq!(refs[1].range().to_a1(), "B1:B2");
        // COUNTIF and 2-arg SUMIF have no sum range to shape.
        assert_eq!(parse("SUMIF(A1:A3,1)").unwrap().collect_refs().len(), 1);
        assert_eq!(parse("COUNTIF(A1:A3,1)").unwrap().collect_refs().len(), 1);
    }

    #[test]
    fn resized_read_set_follows_denormalized_autofilled_corners() {
        // Autofill can leave stored corners inverted (B1:B$2 filled four
        // rows down stores B5:B$2); evaluation anchors at the normalized
        // head (B2, criteria shape 3 tall → reads B2:B4), and the
        // dependency read set must match.
        let ast = parse("SUMIF($A$1:$A$3,\">0\",B1:B$2)").unwrap();
        let filled = ast.map_refs(&mut |q| q.autofill(0, 4));
        let refs = filled.collect_refs();
        assert_eq!(refs[1].range().to_a1(), "B2:B4");
    }
}
