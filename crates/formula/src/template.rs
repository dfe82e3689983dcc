//! A formula in the form a run of autofilled cells shares.
//!
//! Autofill copies a formula's structure and moves its references by the
//! fill delta (`$` coordinates stay). A column filled from one cell is
//! therefore one formula at N offsets, and a [`Template`] is that one
//! formula: text, tree and references as written at offset `(0, 0)`,
//! read at any other offset by moving each reference with
//! [`RangeRef::autofill`] on the way — the arithmetic the fill itself
//! uses, so [`At`] *is* the autofilled formula, evaluated, printed and
//! listed without being built.
//!
//! ```text
//! src     SUM($A$1:A1)*'Q4 2023'!B$2        text at (0, 0), as entered
//! holes       [------]  ~~~~~~~~~[--]       one per reference, in source order:
//!                                           the range part [..] is re-printed
//!                                           moved; with its qualifier ~~ it
//!                                           becomes #REF! off the grid
//! at (0, 3)   SUM($A$1:A4)*'Q4 2023'!B$2    everything else is copied
//! ```
//!
//! The text is also what makes two formulas one run: a typed formula
//! joins the template of the cell above it when it *is* that template
//! moved one row, which it is when it reads, byte for byte, as the
//! template prints there ([`At::reads_as`]) — `$` flags, sheet qualifiers,
//! literals, spacing and case included, and without being parsed.

use crate::ast::Expr;
use crate::eval::{eval_at, moved, CellProvider};
use crate::parser::{parse_spanned, RefSpan};
use crate::{FormulaError, Value};
use std::fmt::{self, Write as _};
use taco_grid::a1::{QualifiedRef, RangeRef, SheetRef};
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
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// The text at offset `(0, 0)`, no leading `=`.
    src: String,
    ast: Expr,
    /// Every reference of `ast` in source order, and where it sits in
    /// `src`: what [`At`] moves and re-prints.
    holes: Vec<RefSpan>,
    reads: Vec<Read>,
    volatile: bool,
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
        let mut on_ref = |w: &mut String, q: &QualifiedRef| {
            let start = w.len() as u32;
            if let Some(sheet) = &q.sheet {
                write!(w, "{sheet}!")?;
            }
            let at = w.len() as u32;
            write!(w, "{}", q.rref)?;
            spans.push(RefSpan { rref: q.rref, start, at, end: w.len() as u32 });
            Ok(())
        };
        ast.write_with(&mut src, &mut on_ref).expect("writing to a String cannot fail");
        Template::assemble(src, ast, spans)
    }

    /// `holes[i]` is the `i`-th reference of `ast` and where it sits in
    /// `src`.
    fn assemble(src: String, ast: Expr, holes: Vec<RefSpan>) -> Template {
        #[cfg(debug_assertions)]
        {
            let mut spanned = holes.iter();
            ast.visit_refs(&mut |q| debug_assert_eq!(spanned.next().map(|h| h.rref), Some(q.rref)));
            debug_assert!(spanned.next().is_none(), "one reference per span");
        }
        let mut reads = Vec::new();
        ast.visit_reads(&mut |q, shaped_by| {
            reads.push(match shaped_by {
                None => Read::Plain(q.clone()),
                Some(crit) => Read::Shaped { sum: q.clone(), crit: crit.rref },
            })
        });
        let volatile = ast.is_volatile();
        Template { src, ast, holes, reads, volatile }
    }

    /// The text at offset `(0, 0)`, no leading `=`.
    pub fn text(&self) -> &str {
        &self.src
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
}

/// A [`fmt::Write`] that accepts exactly the text it expects.
struct Expect<'a>(&'a str);

impl fmt::Write for Expect<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
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
    /// Evaluates the formula. `#[inline]`: it only forwards, once per
    /// evaluated cell, and whether the inliner folds it into the
    /// recalculation loop on its own depends on that loop's size — left
    /// out of line it was 7 % of a full recalculation.
    #[inline]
    pub fn eval<P: CellProvider>(&self, cells: &P) -> Value {
        eval_at(&self.template.ast, self.dc, self.dr, cells)
    }

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
        self.template.holes.iter().all(|hole| hole.rref.autofill(self.dc, self.dr).is_some())
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
    /// Nothing is parsed: equal text has an equal tree.
    pub fn reads_as(&self, text: &str) -> bool {
        let same = self.is_whole() && {
            let mut rest = Expect(text);
            write!(rest, "{self}").is_ok() && rest.0.is_empty()
        };
        debug_assert!(!same || crate::parser::parse(text).as_ref() == Ok(&self.to_ast()));
        same
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
    /// grid, becomes `#REF!`.
    pub fn rewrite(
        &self,
        f: &mut impl FnMut(Option<&SheetRef>, RangeRef) -> Option<RangeRef>,
    ) -> Expr {
        self.template.ast.map_refs(&mut |q| {
            let moved = q.rref.autofill(self.dc, self.dr)?;
            Some(q.with_rref(f(q.sheet.as_ref(), moved)?))
        })
    }

    /// The formula's tree: the template's with every reference moved, one
    /// that left the grid replaced by `#REF!`.
    pub fn to_ast(&self) -> Expr {
        self.rewrite(&mut |_, moved| Some(moved))
    }

    /// This formula as a template of its own, written where it now
    /// stands: same text, same tree, offset `(0, 0)`.
    pub fn to_template(&self) -> Template {
        let t = self.template;
        if (self.dc, self.dr) == (0, 0) {
            return t.clone();
        }
        let (mut src, mut spans) = (String::with_capacity(t.src.len() + 8), Vec::new());
        self.splice(&mut src, |w, hole, moved| {
            let at = w.len() as u32;
            write!(w, "{moved}")?;
            let start = at - (hole.at - hole.start);
            spans.push(RefSpan { rref: moved, start, at, end: w.len() as u32 });
            Ok(())
        })
        .expect("writing to a String cannot fail");
        Template::assemble(src, self.to_ast(), spans)
    }

    /// Writes the template's text with every reference moved: the text
    /// between references as it stands, a reference still on the grid
    /// through `on_ref`, one that left it as `#REF!` in place of the
    /// reference and its qualifier.
    fn splice<W: fmt::Write>(
        &self,
        w: &mut W,
        mut on_ref: impl FnMut(&mut W, &RefSpan, RangeRef) -> fmt::Result,
    ) -> fmt::Result {
        let src = self.template.src.as_str();
        let mut from = 0;
        for hole in &self.template.holes {
            match hole.rref.autofill(self.dc, self.dr) {
                Some(moved) => {
                    w.write_str(&src[from..hole.at as usize])?;
                    on_ref(w, hole, moved)?;
                }
                None => {
                    w.write_str(&src[from..hole.start as usize])?;
                    w.write_str("#REF!")?;
                }
            }
            from = hole.end as usize;
        }
        w.write_str(&src[from..])
    }
}

impl fmt::Display for At<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Where it was written a formula reads as it was written, however
        // its references were spelled (`a1`, `B2:A1`).
        if (self.dc, self.dr) == (0, 0) {
            return f.write_str(&self.template.src);
        }
        self.splice(f, |f, _, moved| write!(f, "{moved}"))
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
                assert_eq!(at.is_whole(), count_refs(&want.ast) == template.holes.len());
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
}
