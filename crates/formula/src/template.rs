//! A formula in the form a run of autofilled cells shares.
//!
//! Autofill copies a formula's structure and moves its references by the
//! fill delta (`$` coordinates stay). A column filled from one cell is
//! therefore one formula at N offsets, and a [`Template`] is that one
//! formula: text, tree and references as written at offset `(0, 0)`,
//! read at any other offset by moving each reference with
//! [`RangeRef::autofill`] on the way — the arithmetic the fill itself
//! uses, so [`At`] *is* the autofilled formula, printed and listed
//! without being built (the template's [`Program`] evaluates it).
//!
//! ```text
//! src     SUM($A$1:A1)*'Q4 2023'!B$2*1.5    text at (0, 0), as entered
//! holes       [------]  ~~~~~~~~~[--] (-)   one per reference and numeric literal,
//!                                           in source order: the range part [..]
//!                                           is re-printed moved; with its
//!                                           qualifier ~~ it becomes #REF! off the
//!                                           grid; a literal (..) is a slot
//! at (0, 3)   SUM($A$1:A4)*'Q4 2023'!B$2*1.5    everything else is copied
//! ```
//!
//! A numeric literal is a **slot** `(c₀, step)` along the run's rows: its
//! value `dr` rows down is [`Slot::at`], `c₀ + step·dr`. A fill copies
//! literals verbatim, so a filled run's slots have step 0 and print as
//! typed. A slot steps only where typed formulas put it on a line — the
//! cell above plus a delta — so `=SUM($A$1:$A$8)*1`, `*2`, `*3`, … typed
//! down a column are one run, as their references alone would make them.
//! A stepped slot prints as its value there, which it must print as
//! typed: `1.50` never steps.
//!
//! The text is also what makes two formulas one run: a typed formula
//! joins the template of the cell above it when it *is* that template
//! moved one row, which it is when it reads, byte for byte, as the
//! template prints there ([`At::reads_as`]) — `$` flags, sheet qualifiers,
//! literals, spacing and case included, and without being parsed. Nor is
//! anything printed: one walk over the template's holes (`At::splice`,
//! which printing goes through too) matches the typed bytes piece by
//! piece — the text between holes as it stands, a moved reference by its
//! coordinates ([`RangeRef::strip_printed`]), a literal by its lexeme or,
//! stepped, by its value's digits. The one way a run of one formula
//! becomes longer with a formula that does not read so is
//! [`At::step_below`], the same walk: the two differ in numeric literals
//! only, each on an exact line.

use crate::ast::{Expr, Leaf, Slot, UnOp};
use crate::lexer::number_len;
use crate::parser::{parse_spanned, Hole, Span};
use crate::program::Program;
use crate::FormulaError;
use std::fmt::{self, Write as _};
use taco_grid::a1::{strip_decimal, QualifiedRef, RangeRef, SheetRef};
use taco_grid::Range;

/// One member of the dependency read set (see [`Expr::visit_reads`]).
#[derive(Debug, Clone, PartialEq)]
enum Read {
    /// A reference read as written.
    Plain(QualifiedRef),
    /// A `SUMIF`/`AVERAGEIF` sum range, read in the shape of the
    /// criteria range — both moved first, so the shape is the moved one.
    Shaped { sum: QualifiedRef, crit: RangeRef },
}

/// [`RangeRef::autofill`]; a lone formula, a run of one, sits at `(0, 0)`
/// and moves nothing.
#[inline]
fn moved(rref: &RangeRef, dc: i64, dr: i64) -> Option<RangeRef> {
    if (dc, dr) == (0, 0) {
        Some(*rref)
    } else {
        rref.autofill(dc, dr)
    }
}

impl Read {
    /// The range read at an offset; `None` off the grid (`#REF!` reads
    /// nothing).
    fn at(&self, dc: i64, dr: i64) -> Option<(Option<&SheetRef>, RangeRef)> {
        match self {
            Read::Plain(q) => Some((q.sheet.as_ref(), moved(&q.rref, dc, dr)?)),
            Read::Shaped { sum, crit } => {
                let moved = sum.rref.autofill(dc, dr)?;
                // A criteria range that left the grid shapes nothing.
                let read = match crit.autofill(dc, dr) {
                    Some(crit) => moved.resized(crit.range().width(), crit.range().height()),
                    None => moved,
                };
                Some((sum.sheet.as_ref(), read))
            }
        }
    }

    /// The range read at an offset where the read has the form it has at
    /// the offsets around it: `None` off the grid, and for a shaped read
    /// also where its criteria range is.
    fn whole_at(&self, dc: i64, dr: i64) -> Option<Range> {
        if let Read::Shaped { crit, .. } = self {
            crit.autofill(dc, dr)?;
        }
        self.at(dc, dr).map(|(_, rref)| rref.range())
    }

    fn sheet(&self) -> Option<&SheetRef> {
        match self {
            Read::Plain(q) | Read::Shaped { sum: q, .. } => q.sheet.as_ref(),
        }
    }
}

/// See the module documentation.
///
/// `repr(C)`: what evaluating a node reads of its template — whether it
/// is volatile, then its program (see [`Program`]) — comes first.
#[derive(Debug, Clone, PartialEq)]
#[repr(C)]
pub struct Template {
    volatile: bool,
    /// Whether some reference is qualified with a sheet name.
    names_sheet: bool,
    /// The tree compiled, once, for evaluation.
    program: Program,
    /// The text at offset `(0, 0)`, no leading `=`.
    src: String,
    /// The tree at offset `(0, 0)`; a literal that steps is an
    /// [`Expr::Slot`].
    ast: Expr,
    /// Every reference and numeric literal of `ast` in source order, and
    /// where it sits in `src`: what [`At`] re-prints. A literal that steps
    /// is written in `src` as its value prints.
    holes: Vec<Span>,
    reads: Vec<Read>,
}

impl Template {
    /// Parses a formula (leading `=` optional); its text stays as typed.
    pub fn parse(src: &str) -> Result<Template, FormulaError> {
        let body = src.strip_prefix('=').unwrap_or(src);
        let (ast, spans) = parse_spanned(body)?;
        Ok(Template::assemble(body.to_string(), ast, spans))
    }

    /// The template of a tree the engine built (a structural rewrite):
    /// its text is what the printer writes.
    pub fn printed(ast: Expr) -> Template {
        let (mut src, mut spans) = (String::new(), Vec::new());
        let mut on_leaf = |w: &mut String, leaf: Leaf<'_>| {
            let start = w.len() as u32;
            let hole = match leaf {
                Leaf::Ref(q) => {
                    if let Some(sheet) = &q.sheet {
                        write!(w, "{sheet}!")?;
                    }
                    Hole::Ref(q.rref)
                }
                Leaf::Number(slot) => Hole::Literal(slot),
            };
            let at = w.len() as u32;
            match leaf {
                Leaf::Ref(q) => write!(w, "{}", q.rref)?,
                Leaf::Number(slot) => write!(w, "{}", slot.c0)?,
            }
            spans.push(Span { hole, start, at, end: w.len() as u32 });
            Ok(())
        };
        ast.write_with(&mut src, &mut on_leaf).expect("writing to a String cannot fail");
        Template::assemble(src, ast, spans)
    }

    /// `holes[i]` is the `i`-th reference or literal of `ast` and where it
    /// sits in `src`. Every template — parsed, printed, stepped or moved —
    /// is made here, so this is where its tree is compiled.
    fn assemble(src: String, ast: Expr, holes: Vec<Span>) -> Template {
        #[cfg(debug_assertions)]
        {
            let mut spanned = holes.iter();
            ast.visit_leaves(&mut |leaf| {
                let span = spanned.next().expect("one span per reference and literal");
                match (leaf, span.hole) {
                    (Leaf::Ref(q), Hole::Ref(rref)) => debug_assert_eq!(q.rref, rref),
                    (Leaf::Number(slot), Hole::Literal(held)) => {
                        debug_assert_eq!(slot, held);
                        let text = &src[span.start as usize..span.end as usize];
                        debug_assert!(slot.step == 0.0 || text == slot.c0.to_string(), "{text}");
                    }
                    (leaf, hole) => panic!("{leaf:?} spanned as {hole:?}"),
                }
            });
            debug_assert!(spanned.next().is_none(), "one leaf per span");
        }
        let mut reads = Vec::new();
        ast.visit_reads(&mut |q, shaped_by| {
            reads.push(match shaped_by {
                None => Read::Plain(q.clone()),
                Some(crit) => Read::Shaped { sum: q.clone(), crit: crit.rref },
            })
        });
        let volatile = ast.is_volatile();
        let names_sheet = reads.iter().any(|read| read.sheet().is_some());
        let program = Program::compile(&ast);
        Template { src, ast, holes, reads, volatile, names_sheet, program }
    }

    /// The text at offset `(0, 0)`, no leading `=`.
    pub fn text(&self) -> &str {
        &self.src
    }

    /// The tree compiled: what evaluates the template at any offset.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The formula `dc` columns and `dr` rows from where the template was
    /// written.
    pub fn at(&self, dc: i64, dr: i64) -> At<'_> {
        At { template: self, dc, dr }
    }

    /// Whether the text is what the printer writes for the tree — what
    /// autofill gives every cell it fills. The text between references
    /// does not depend on the offset, so a template that prints itself
    /// does at every offset that keeps its references on the grid.
    pub fn prints_itself(&self) -> bool {
        self.src == self.ast.to_string()
    }

    /// Whether some numeric literal steps: differs from row to row.
    pub fn is_stepped(&self) -> bool {
        self.holes.iter().any(|span| matches!(span.hole, Hole::Literal(slot) if slot.step != 0.0))
    }

    /// The same text and tree, the literals' slots replaced by `slots`, in
    /// source order.
    fn with_slots(&self, slots: &[Slot]) -> Template {
        let mut next = slots.iter();
        let ast = self.ast.map_leaves(&mut |q| Some(q.clone()), &mut |_| {
            next.next().expect("one slot per literal").expr()
        });
        let mut next = slots.iter();
        let mut holes = self.holes.clone();
        for span in &mut holes {
            if let Hole::Literal(slot) = &mut span.hole {
                *slot = *next.next().expect("one slot per literal");
            }
        }
        Template::assemble(self.src.clone(), ast, holes)
    }

    /// What each read of the formula takes in down a stretch of one column
    /// of a run — offsets `(dc, first)` through `(dc, last)`, `first <=
    /// last` — told by its two ends: per read, in order, its qualifier and
    /// the ranges read at `(dc, first)` and at `(dc, last)`, `None` at an
    /// end where the read is off the grid (or a criteria range shaping it
    /// is). Where both ends are on the grid so is every offset between,
    /// and the ends say all a scheduler needs about them:
    ///
    /// - the ranges read between cover, together, exactly the bounding box
    ///   of the two ends' ranges. The columns do not move; the first row
    ///   read is the lesser of two corners that are `$`-fixed or move with
    ///   the cell (for a shaped read, its sum range's), so it moves by at
    ///   most one per row and consecutive ranges touch; it is lowest at an
    ///   end, and the last row read is highest at one (for a shaped read,
    ///   the first row plus the criteria range's height, which grows or
    ///   shrinks by one per row and can only turn from shrinking to
    ///   growing);
    /// - by the same slopes, the first row read minus the reading cell's
    ///   row is smallest at an end, and the last row read minus it largest
    ///   at one: a read above every reading cell at both ends is above
    ///   each reading cell between, and likewise below.
    pub fn reads_at_ends(
        &self,
        dc: i64,
        first: i64,
        last: i64,
    ) -> impl Iterator<Item = (Option<&SheetRef>, Option<Range>, Option<Range>)> + '_ {
        self.reads
            .iter()
            .map(move |read| (read.sheet(), read.whole_at(dc, first), read.whole_at(dc, last)))
    }

    /// Whether some range the formula reads is not one it names: the sum
    /// range of a `SUMIF`/`AVERAGEIF`, read in the shape of the criteria
    /// range. Where the references move apart (a structural edit), such a
    /// read does not move with either of them.
    pub fn shapes_reads(&self) -> bool {
        self.reads.iter().any(|read| matches!(read, Read::Shaped { .. }))
    }

    /// Whether the formula calls a volatile function (`NOW`, `TODAY`,
    /// `RAND`); no offset changes that.
    pub fn is_volatile(&self) -> bool {
        self.volatile
    }

    /// Whether some reference names a sheet (`Data!A1`, or the formula's
    /// own sheet by name): a formula that names none reads its own sheet
    /// alone, at every offset.
    pub fn names_sheet(&self) -> bool {
        self.names_sheet
    }
}

/// A hole of a template as the formula at one offset fills it.
#[derive(Debug, Clone, Copy)]
enum Filled<'s> {
    /// A reference still on the grid, moved.
    Ref(RangeRef),
    /// A reference that left the grid: `#REF!` in place of it and its
    /// qualifier.
    Lost,
    /// A numeric literal: its text where the template was written, its
    /// slot, and the slot's value here.
    Literal { lexeme: &'s str, slot: Slot, value: f64 },
}

impl Filled<'_> {
    /// `text` past the hole as the formula prints it ([`fmt::Display`]),
    /// `None` if it does not start so — or if the hole is a reference
    /// that left the grid, which no typed text is. Nothing is printed but
    /// a stepped literal whose value is not a small integer.
    fn strip_printed<'t>(&self, text: &'t str) -> Option<&'t str> {
        match *self {
            Filled::Ref(moved) => moved.strip_printed(text),
            Filled::Lost => None,
            Filled::Literal { lexeme, slot, .. } if slot.step == 0.0 => text.strip_prefix(lexeme),
            Filled::Literal { value, .. } => strip_number(text, value),
        }
    }
}

/// How the formula prints a filled hole: a literal that does not step as
/// it was typed, one that does as its value.
impl fmt::Display for Filled<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Filled::Ref(moved) => write!(f, "{moved}"),
            Filled::Lost => f.write_str("#REF!"),
            Filled::Literal { lexeme, slot, .. } if slot.step == 0.0 => f.write_str(lexeme),
            Filled::Literal { value, .. } => write!(f, "{value}"),
        }
    }
}

/// Whether `value` prints with a sign: `-0` does, NaN does not.
fn negative(value: f64) -> bool {
    value.is_sign_negative() && !value.is_nan()
}

/// A literal's value as the tree its printed text parses to. A negative
/// value (`-0` too) prints as `-` and its magnitude, which the parser
/// reads as unary minus on the magnitude, not as a negative number.
fn literal(value: f64) -> Expr {
    if negative(value) {
        Expr::Unary { op: UnOp::Neg, expr: Box::new(Expr::Number(-value)) }
    } else {
        Expr::Number(value)
    }
}

/// `text` past `value` as `Display` prints it, `None` if it does not
/// start so. An integral value below 10¹⁵ in magnitude, other than `-0`,
/// prints as its integer digits, signed, and is read against them; any
/// other value is printed to be compared.
fn strip_number(text: &str, value: f64) -> Option<&str> {
    let integral = value.fract() == 0.0 && value.abs() < 1e15;
    if integral && !(value == 0.0 && value.is_sign_negative()) {
        let digits = if value < 0.0 { text.strip_prefix('-')? } else { text };
        return strip_decimal(digits, value.abs() as u64);
    }
    text.strip_prefix(value.to_string().as_str())
}

/// A stretch of the formula's text at an offset, as [`At::splice`] hands
/// them over in order.
#[derive(Debug, Clone, Copy)]
enum Piece<'s> {
    /// Text between holes, the same at every offset.
    Text(&'s str),
    /// A hole filled, and where it sits in the template's text.
    Hole(&'s Span, Filled<'s>),
}

impl Piece<'_> {
    /// `text` past the piece as the formula prints it (see
    /// [`Filled::strip_printed`]).
    fn strip_printed<'t>(&self, text: &'t str) -> Option<&'t str> {
        match self {
            Piece::Text(common) => text.strip_prefix(common),
            Piece::Hole(_, filled) => filled.strip_printed(text),
        }
    }
}

/// A [`Template`] at an offset: the formula of one cell of a run.
/// Displays as the formula's text (no leading `=`).
#[derive(Debug, Clone, Copy)]
pub struct At<'a> {
    template: &'a Template,
    dc: i64,
    dr: i64,
}

impl<'a> At<'a> {
    /// The dependency read set (what [`Expr::collect_refs`] lists for the
    /// autofilled tree): the qualifier and the range of every reference
    /// still on the grid, in source order.
    pub fn reads(&self) -> impl Iterator<Item = (Option<&'a SheetRef>, RangeRef)> + 'a {
        let (dc, dr) = (self.dc, self.dr);
        self.template.reads.iter().filter_map(move |read| read.at(dc, dr))
    }

    /// `true` iff every reference is still on the grid here: filling from
    /// this cell moves references that a fill from the template's own
    /// cell would move the same way.
    pub fn is_whole(&self) -> bool {
        self.template.holes.iter().all(|span| match span.hole {
            Hole::Ref(rref) => rref.autofill(self.dc, self.dr).is_some(),
            Hole::Literal(_) => true,
        })
    }

    /// The sharing check: whether a formula typed as `text` (no leading
    /// `=`) *is* this formula — would parse to its tree, `$` flags
    /// included, and print as it prints. It is when `text` is this
    /// formula's text byte for byte (so sheet qualifiers, literals,
    /// spacing and case agree too), with one exception that keeps the
    /// answer exact: a reference that left the grid prints as `#REF!` but
    /// is not one — `#REF!` typed into a formula stays `#REF!` wherever
    /// the formula is filled to.
    ///
    /// Nothing is parsed: equal text has an equal tree. A literal that
    /// steps prints as its value, which parses back to it. Nothing is
    /// printed either: one walk over the template's holes reads `text`
    /// against the formula's pieces — the text between holes by its bytes,
    /// a reference by its coordinates ([`RangeRef::strip_printed`]), a
    /// literal by its lexeme or, stepped, by its value's digits.
    pub fn reads_as(&self, text: &str) -> bool {
        let same = if (self.dc, self.dr) == (0, 0) {
            text == self.template.src
        } else {
            let mut rest = text;
            let walked = self.splice(|piece| piece.strip_printed(rest).map(|r| rest = r).ok_or(()));
            walked.is_ok() && rest.is_empty()
        };
        debug_assert!(!same || crate::parser::parse(text).as_ref() == Ok(&self.to_ast()));
        same
    }

    /// The template a run holding this formula here and, one row down, the
    /// formula typed as `below` shares — written here, its literals
    /// stepping — if the two differ in numeric literals only, each of them
    /// on an exact line. Everything else of `below` must read as this
    /// formula moved one row prints ([`At::reads_as`]), and each literal
    /// either be typed alike or:
    ///
    /// - print back, here and below, byte for byte as typed (so neither
    ///   `1.50` nor `2e3` ever steps), and
    /// - be, to the bit, [`Slot::at`] one row of the slot from its value
    ///   here with the step the two values differ by (`0.1`, `0.2` steps;
    ///   a third row typed `0.3` is not on that line, which in binary
    ///   drifts to `0.30000000000000004`).
    ///
    /// `None` otherwise, and where no literal differs: then `below` reads
    /// as this formula's next cell, or is not one at all.
    pub fn step_below(&self, below: &str) -> Option<Template> {
        if !self.is_whole() {
            return None;
        }
        let owned;
        let here = if (self.dc, self.dr) == (0, 0) {
            self.template
        } else {
            owned = self.to_template();
            &owned
        };
        let mut typed = below;
        let mut slots = Vec::new();
        let mut changed = false;
        here.at(0, 1)
            .splice(|piece| {
                let Piece::Hole(_, filled @ Filled::Literal { lexeme, slot, .. }) = piece else {
                    typed = piece.strip_printed(typed).ok_or(())?;
                    return Ok(());
                };
                let (literal, rest) = typed.split_at(number_len(typed.as_bytes()));
                typed = rest;
                if filled.strip_printed(literal) == Some("") {
                    slots.push(slot);
                    return Ok(());
                }
                let value: f64 = literal.parse().map_err(|_| ())?;
                let line = Slot { c0: slot.c0, step: value - slot.c0 };
                let exact = line.at(1).to_bits() == value.to_bits()
                    && strip_number(literal, value) == Some("")
                    && strip_number(lexeme, slot.c0) == Some("");
                if !exact {
                    return Err(());
                }
                slots.push(line);
                changed = true;
                Ok(())
            })
            .ok()?;
        if !typed.is_empty() || !changed {
            return None;
        }
        let template = here.with_slots(&slots);
        debug_assert_eq!(template.at(0, 0).to_string(), self.to_string());
        debug_assert!(template.at(0, 1).reads_as(below));
        Some(template)
    }

    /// Visits every reference still on the grid, as written (the read set
    /// may differ — see [`At::reads`]), in source order.
    pub fn visit_refs(&self, f: &mut impl FnMut(Option<&SheetRef>, RangeRef)) {
        self.template.ast.visit_refs(&mut |q| {
            if let Some(moved) = q.rref.autofill(self.dc, self.dr) {
                f(q.sheet.as_ref(), moved);
            }
        });
    }

    /// The formula's tree with every reference still on the grid replaced
    /// by what `f` makes of it; `None`, like a reference that left the
    /// grid, becomes `#REF!`. Every literal is its value here, as the
    /// printed text parses: a plain number, or unary minus on one where
    /// the value is negative.
    pub fn rewrite(
        &self,
        f: &mut impl FnMut(Option<&SheetRef>, RangeRef) -> Option<RangeRef>,
    ) -> Expr {
        self.template.ast.map_leaves(
            &mut |q| {
                let moved = q.rref.autofill(self.dc, self.dr)?;
                Some(q.with_rref(f(q.sheet.as_ref(), moved)?))
            },
            &mut |slot| literal(slot.at(self.dr)),
        )
    }

    /// The formula's tree: the template's with every reference moved, one
    /// that left the grid replaced by `#REF!`, and every literal its value
    /// here.
    pub fn to_ast(&self) -> Expr {
        self.rewrite(&mut |_, moved| Some(moved))
    }

    /// This formula as a template of its own, written where it now
    /// stands: same text, same tree, offset `(0, 0)`, every literal typed
    /// as it reads here — a step-0 slot.
    pub fn to_template(&self) -> Template {
        let t = self.template;
        if (self.dc, self.dr) == (0, 0) {
            return t.clone();
        }
        let (mut src, mut spans) = (String::with_capacity(t.src.len() + 8), Vec::new());
        self.splice(|piece| {
            let Piece::Hole(span, filled) = piece else {
                return write!(src, "{piece}");
            };
            let at = src.len() as u32;
            write!(src, "{filled}")?;
            let end = src.len() as u32;
            spans.push(match filled {
                Filled::Ref(moved) => {
                    Span { hole: Hole::Ref(moved), start: at - (span.at - span.start), at, end }
                }
                Filled::Lost => return Ok(()),
                Filled::Literal { value, .. } => {
                    // A negative value's sign is unary minus, text before
                    // the literal (see `literal`).
                    let (at, value) = if negative(value) { (at + 1, -value) } else { (at, value) };
                    Span { hole: Hole::Literal(Slot::fixed(value)), start: at, at, end }
                }
            });
            Ok(())
        })
        .expect("writing to a String cannot fail");
        Template::assemble(src, self.to_ast(), spans)
    }

    /// The one walk over the template's holes: hands `each` the formula's
    /// text here piece by piece, in order — the text between holes as it
    /// stands, and each hole filled: a reference still on the grid moved
    /// (its qualifier is text), one that left the grid as
    /// [`Filled::Lost`] in place of the reference and its qualifier, a
    /// literal with its value here. Stops at the first error.
    fn splice<E>(&self, mut each: impl FnMut(Piece<'a>) -> Result<(), E>) -> Result<(), E> {
        let src = self.template.src.as_str();
        let mut from = 0;
        for span in &self.template.holes {
            let (start, end) = (span.start as usize, span.end as usize);
            let (text, filled) = match span.hole {
                Hole::Ref(rref) => match rref.autofill(self.dc, self.dr) {
                    Some(moved) => (&src[from..span.at as usize], Filled::Ref(moved)),
                    None => (&src[from..start], Filled::Lost),
                },
                Hole::Literal(slot) => {
                    let (lexeme, value) = (&src[start..end], slot.at(self.dr));
                    (&src[from..start], Filled::Literal { lexeme, slot, value })
                }
            };
            each(Piece::Text(text))?;
            each(Piece::Hole(span, filled))?;
            from = end;
        }
        each(Piece::Text(&src[from..]))
    }
}

impl fmt::Display for Piece<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Piece::Text(text) => f.write_str(text),
            Piece::Hole(_, filled) => write!(f, "{filled}"),
        }
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Where it was written a formula reads as it was written, however
        // its references were spelled (`a1`, `B2:A1`).
        if (self.dc, self.dr) == (0, 0) {
            return f.write_str(&self.template.src);
        }
        self.splice(|piece| write!(f, "{piece}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autofill::autofill;
    use crate::Formula;
    use taco_grid::{Cell, Range};

    /// The formulas autofill builds from `src` at `C5`, one per target.
    fn filled(src: &str, targets: Range) -> Vec<(i64, i64, Formula)> {
        let from = Cell::new(3, 5);
        autofill(from, &Formula::parse(src).unwrap(), targets)
            .into_iter()
            .map(|f| {
                let dc = i64::from(f.cell.col) - i64::from(from.col);
                let dr = i64::from(f.cell.row) - i64::from(from.row);
                (dc, dr, f.formula)
            })
            .collect()
    }

    const SOURCES: [&str; 10] = [
        "SUM($A$1:A5)",
        "SUM(A5:B7)*2+$D5",
        "IF(A5=A4,N4+M5,M5)",
        "SUMIF($A$1:A5,\">0\",B1:B1)+AVERAGEIF(A4:A5,1,Data!B4:B4)",
        "'Q4 2023'!B$2&\"x\"&Data!A5:B6",
        "SUM(#REF!)+A5",
        "VLOOKUP(A5,$D$1:$E$9,2,FALSE)",
        "-A5%+NOW()",
        "1+2",
        "SUM($A$5:A5,B$1:B5,$C5)",
    ];

    #[test]
    fn a_template_at_an_offset_is_the_autofilled_formula() {
        // Down, up past row 1, right, left past column A, and diagonal.
        let targets = Range::from_coords(1, 1, 6, 9);
        for src in SOURCES {
            let template = Template::parse(src).unwrap();
            assert_eq!(template.at(0, 0).to_string(), src);
            for (dc, dr, want) in filled(src, targets) {
                let at = template.at(dc, dr);
                assert_eq!(at.to_string(), want.src, "{src} by {dc},{dr}");
                assert_eq!(at.to_ast(), want.ast, "{src} by {dc},{dr}");
                let reads: Vec<QualifiedRef> = at
                    .reads()
                    .map(|(sheet, rref)| QualifiedRef { sheet: sheet.cloned(), rref })
                    .collect();
                assert_eq!(reads, want.refs, "{src} by {dc},{dr}");
                assert_eq!(at.is_whole(), count_refs(&want.ast) == count_refs(&template.ast));
                assert_eq!(template.is_volatile(), want.is_volatile());
                // Its own template reads, prints and fills on like it.
                let own = at.to_template();
                assert_eq!(own.at(0, 0).to_string(), want.src);
                assert_eq!(own.ast, want.ast);
                assert_eq!(own.at(1, 1).to_string(), at_of(&want, 1, 1), "{src} by {dc},{dr}");
            }
        }
    }

    fn count_refs(ast: &Expr) -> usize {
        let mut n = 0;
        ast.visit_refs(&mut |_| n += 1);
        n
    }

    /// The text autofill gives `formula` one step further.
    fn at_of(formula: &Formula, dc: i64, dr: i64) -> String {
        formula.ast.map_refs(&mut |q| q.autofill(dc, dr)).to_string()
    }

    #[test]
    fn a_typed_formula_joins_the_template_it_is_a_move_of() {
        let above = Template::parse("=SUM( $A$1:A5 ) + data!B5*2").unwrap();
        let joins = |src: &str| above.at(0, 1).reads_as(src);
        assert!(joins("SUM( $A$1:A6 ) + data!B6*2"));
        // Not with other spacing, case, literal, qualifier, `$` flag or
        // reference, and not at another offset.
        for src in [
            "SUM($A$1:A6) + data!B6*2",
            "sum( $A$1:A6 ) + data!B6*2",
            "SUM( $A$1:A6 ) + data!B6*3",
            "SUM( $A$1:A6 ) + Data!B6*2",
            "SUM( $A$1:A6 ) + B6*2",
            "SUM( $A$1:$A6 ) + data!B6*2",
            "SUM( $A$1:A6 ) + data!B7*2",
            "SUM( $A$1:A6 ) + data!b6*2",
            "SUM( $A$1:A6 ) + data!B6*2 ",
            "SUM( $A$1:A6 ) + data!B6*",
        ] {
            assert!(!joins(src), "{src}");
        }
        assert!(!above.at(0, 2).reads_as("SUM( $A$1:A6 ) + data!B6*2"));
        assert!(above.at(0, 0).reads_as(above.text()));

        // References spelled as the printer would not spell them read as
        // typed where they were typed, and are joined only by text that
        // reads as the moved template prints.
        let odd = Template::parse("b2:a1+c1").unwrap();
        assert_eq!(odd.at(0, 0).to_string(), "b2:a1+c1");
        assert_eq!(odd.at(0, 1).to_string(), "A2:B3+C2");
        assert!(odd.at(0, 1).reads_as("A2:B3+C2"));
        assert!(!odd.at(0, 1).reads_as("b3:a2+c2"));
        assert!(odd.at(0, 0).reads_as("b2:a1+c1") && !odd.at(0, 0).reads_as("A1:B2+C1"));

        // A reference that left the grid is not a typed `#REF!`.
        let top = Template::parse("A1+B2").unwrap();
        assert_eq!(top.at(0, -1).to_string(), "#REF!+B1");
        assert!(!top.at(0, -1).reads_as("#REF!+B1"));
        assert!(!top.at(0, -1).is_whole());
        let data = Template::parse("Data!A1*2").unwrap();
        assert_eq!(data.at(-1, 0).to_string(), "#REF!*2");

        // A fill that carries a corner past a `$`-fixed one straightens the
        // range, `$` flags travelling with their coordinates — what the
        // printed text parses back to — so typed, it joins.
        let crossing = Template::parse("SUM(B4:B$5)").unwrap();
        assert_eq!(crossing.at(0, 2).to_string(), "SUM(B$5:B6)");
        assert!(crossing.at(0, 2).reads_as("SUM(B$5:B6)"));
        assert!(!crossing.at(0, 2).reads_as("SUM(B6:B$5)"));
        assert_eq!(crossing.at(0, 3).to_string(), "SUM(B$5:B7)");
        let typed = Template::parse("SUM(B$5:B6)").unwrap();
        assert_eq!(typed.at(0, 1).to_string(), crossing.at(0, 3).to_string());
        // Where the corners meet, the `$`-fixed one heads.
        assert_eq!(crossing.at(0, 1).to_string(), "SUM(B$5:B5)");
        assert_eq!(crossing.at(0, -2).to_string(), "SUM(B2:B$5)");
    }

    /// `printed` and texts a byte or a token away from it: each prefix,
    /// a tail added, a byte dropped, a `$`, space or `0` inserted (`A01`),
    /// a letter lower-cased, a qualifier's case changed, a reference typed
    /// as `#REF!`, a literal spelled otherwise.
    fn near(printed: &str) -> Vec<String> {
        let mut texts: Vec<String> =
            ["", " ", "1", "+1"].iter().map(|tail| format!("{printed}{tail}")).collect();
        for (i, c) in printed.char_indices() {
            let (head, tail) = printed.split_at(i);
            let rest = &tail[c.len_utf8()..];
            texts.push(head.to_string());
            texts.push(format!("{head}{rest}"));
            texts.push(format!("{head}{}{rest}", c.to_ascii_lowercase()));
            texts.extend(["$", " ", "0"].map(|ins| format!("{head}{ins}{tail}")));
        }
        for (from, to) in [("Data!", "data!"), ("Data!", "DATA!"), ("'Q4 2023'", "'q4 2023'")] {
            texts.push(printed.replacen(from, to, 1));
        }
        // Tokens: a reference (`$B$2`), or a literal (digits and dots
        // not right after a letter or `$`).
        let b = printed.as_bytes();
        let mut i = 0;
        while i < b.len() {
            let after_word = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'$');
            let is_ref = b[i] == b'$' || b[i].is_ascii_uppercase();
            let is_number = b[i].is_ascii_digit();
            if after_word || !(is_ref || is_number) {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            let part = |c: u8| {
                if is_ref {
                    c == b'$' || c.is_ascii_alphanumeric()
                } else {
                    c == b'.' || c.is_ascii_digit()
                }
            };
            while j < b.len() && part(b[j]) {
                j += 1;
            }
            let (head, tail) = (&printed[..i], &printed[j..]);
            let spellings: &[&str] = if is_ref {
                &["#REF!"]
            } else {
                &["-0", "1.50", "2e3", "0.30000000000000004", "1000000000000001", "1e15"]
            };
            texts.extend(spellings.iter().map(|s| format!("{head}{s}{tail}")));
            i = j;
        }
        texts
    }

    #[test]
    fn the_sharing_check_reads_as_the_printer_writes() {
        let mut templates: Vec<Template> =
            SOURCES.iter().map(|src| Template::parse(src).unwrap()).collect();
        // Stepped literals: halves, tenths that drift, integers down
        // to zero, and integers that cross 10^15.
        for (first, second) in [
            ("A1*0.5+10", "A2*1+10"),
            ("A1-0.1", "A2-0.2"),
            ("$B$1*7+A1", "$B$1*6+A2"),
            ("A1*999999999999998", "A2*999999999999999"),
            // …and through zero: `-1` three rows down is unary minus,
            // `-1%` the minus of a percent.
            ("$B$1*2+A1", "$B$1*1+A2"),
            ("A1*1%", "A2*0%"),
        ] {
            templates.push(stepped(first, second).unwrap_or_else(|| panic!("{first}")));
        }
        let mut checked = 0;
        for template in &templates {
            for dc in [-5, -1, 0, 1, 3] {
                for dr in [-6, -4, -1, 0, 1, 2, 3, 7] {
                    let at = template.at(dc, dr);
                    let printed = at.to_string();
                    for text in near(&printed) {
                        let want = at.is_whole() && printed == text;
                        assert_eq!(at.reads_as(&text), want, "{printed} by {dc},{dr} as {text:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked}");
    }

    #[test]
    fn a_template_names_a_sheet_iff_a_reference_is_qualified() {
        for (src, names) in [
            ("SUM(A1:B2)*2", false),
            ("SUM(#REF!)+A5", false),
            ("\"Data!A1\"&A1", false),
            ("Data!A1+1", true),
            ("SUMIF(A1:A2,1,Data!B1:B1)", true),
            ("'Q4 2023'!B$2&\"x\"", true),
        ] {
            assert_eq!(Template::parse(src).unwrap().names_sheet(), names, "{src}");
        }
    }

    #[test]
    fn a_template_prints_itself_iff_its_text_is_the_printers() {
        for (src, printer) in [
            ("SUM($A$1:A5)*2", true),
            ("sum($A$1:A5)*2", false),
            ("SUM( $A$1:A5 )", false),
            ("a5+1", false),
            ("B1:B1+1", false),
            ("(A5+1)", false),
            ("'Data'!A5", false),
            ("Data!A5&\"a b\"", true),
            ("1.50*A1", false),
        ] {
            let template = Template::parse(src).unwrap();
            assert_eq!(template.prints_itself(), printer, "{src}");
            // …and then at every offset.
            if printer {
                assert_eq!(template.at(2, 3).to_string(), template.at(2, 3).to_ast().to_string());
            }
        }
        let rewritten = Template::printed(crate::parser::parse("(A5 + 'Data'!B1)*1.50").unwrap());
        assert_eq!(rewritten.at(0, 0).to_string(), "(A5+Data!B1)*1.5");
        assert!(rewritten.prints_itself());
        assert_eq!(rewritten.at(1, 1).to_string(), "(B6+Data!C2)*1.5");
        assert_eq!(rewritten, Template::parse("(A5+Data!B1)*1.5").unwrap());
    }

    /// The template `first`, typed here, and `second`, typed below it,
    /// share, if they share one.
    fn stepped(first: &str, second: &str) -> Option<Template> {
        Template::parse(first).unwrap().at(0, 0).step_below(second)
    }

    #[test]
    fn literals_typed_on_an_exact_line_step_a_run_of_one() {
        for (first, second, k, kth) in [
            ("SUM($A$1:$A$8)*1", "SUM($A$1:$A$8)*2", 1023, "SUM($A$1:$A$8)*1024"),
            // One literal steps by halves, the other stays as typed.
            ("A1*0.5+10", "A2*1+10", 3, "A4*2+10"),
            ("IF(A1>5,A1*3,7)", "IF(A2>6,A2*3,9)", 2, "IF(A3>7,A3*3,11)"),
            ("$B$1*100", "$B$1*99", 100, "$B$1*0"),
            // 0.1 + 0.1 is 0.2 to the bit; two steps on is not 0.3.
            ("A1-0.1", "A2-0.2", 2, "A3-0.30000000000000004"),
        ] {
            let template = stepped(first, second).unwrap_or_else(|| panic!("{first} / {second}"));
            assert!(template.is_stepped() && template.prints_itself(), "{first}");
            assert_eq!(template.at(0, 0).to_string(), first);
            for (dr, text) in [(0, first), (1, second), (k, kth)] {
                let at = template.at(0, dr);
                assert_eq!(at.to_string(), text);
                assert!(at.reads_as(text), "{text}");
                let typed = crate::parser::parse(text).unwrap();
                assert_eq!(at.to_ast(), typed, "{text}");
            }
            // Columns move the references only.
            let right = template.at(1, 2);
            assert_eq!(
                right.to_ast(),
                template.at(0, 2).to_ast().map_refs(&mut |q| q.autofill(1, 0))
            );
        }
        assert!(!stepped("A1-0.1", "A2-0.2").unwrap().at(0, 2).reads_as("A3-0.3"));
    }

    #[test]
    fn a_run_of_one_steps_for_literals_alone_and_only_those_that_print_back() {
        for (first, second) in [
            // Typed spellings that do not print back as typed.
            ("A1*1.50", "A2*2.50"),
            ("A1*1.5", "A2*2.50"),
            ("A1*2e3", "A2*3e3"),
            ("A1*1", "A2*1.0"),
            ("A1*1", "A2*1e400"),
            // Anything but a literal differs.
            ("A1*1", "A3*2"),
            ("A1*1", "A2 * 2"),
            ("A1*1", "A2*2+0"),
            ("A1*1", "A2*"),
            ("SUM(A1)*1", "MAX(A2)*2"),
            // String holes are out.
            ("\"1\"&A1", "\"2\"&A2"),
            // Nothing differs: the cell below reads as the run's next.
            ("A1*1.50", "A2*1.50"),
        ] {
            assert!(stepped(first, second).is_none(), "{first} / {second}");
        }
        assert!(Template::parse("A1*1.50").unwrap().at(0, 1).reads_as("A2*1.50"));
        // Not from a cell whose reference left the grid.
        assert!(Template::parse("A1*1").unwrap().at(0, -1).step_below("A1*2").is_none());
        // A stepped run meeting a literal off its line: stepped afresh from
        // that cell, written there.
        let line = stepped("A1*1", "A2*2").unwrap();
        let fresh = line.at(0, 1).step_below("A3*4").unwrap();
        assert_eq!(
            (fresh.at(0, 0).to_string(), fresh.at(0, 2).to_string()),
            ("A2*2".into(), "A4*6".into())
        );
    }

    #[test]
    fn a_fill_from_a_stepped_cell_copies_its_literals() {
        let line = stepped("SUM($A$1:A1)*1+0.5", "SUM($A$1:A2)*2+0.5").unwrap();
        let at = line.at(0, 4);
        assert_eq!(at.to_string(), "SUM($A$1:A5)*5+0.5");
        // The cell's own template: its literals as they read there, fixed.
        let own = at.to_template();
        assert!(!own.is_stepped() && own.prints_itself());
        assert_eq!(own, Template::printed(at.to_ast()));
        for (dc, dr, want) in filled(&at.to_string(), Range::from_coords(1, 1, 6, 9)) {
            assert_eq!(own.at(dc, dr).to_string(), want.src, "by {dc},{dr}");
            assert_eq!(own.at(dc, dr).to_ast(), want.ast, "by {dc},{dr}");
        }
    }
}
