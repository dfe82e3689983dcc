//! Region-based synthetic spreadsheet generator.
//!
//! A sheet is a set of *regions*, each reproducing one formula-generation
//! idiom observed in real spreadsheets (§III-A "Applicability of the basic
//! patterns"): autofilled sliding windows (RR), cumulative totals (FR/RF),
//! fixed-range lookups (FF), increment chains (RR-Chain), derived columns
//! (the TACO-InRow shape), the multi-reference Fig. 2 grouping formula,
//! and unstructured noise. The generator emits plain dependencies — the
//! same `(referenced range → formula cell)` pairs a parser would extract —
//! plus the bookkeeping the benchmarks need (hot cells, longest chain).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_core::{Cue, Dependency};
use taco_grid::{Cell, Range};

/// One structured block of formulae.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Region {
    /// Sliding windows: each formula at `(col, row)` references the block
    /// `width × height` anchored `left_off` columns to the left on its own
    /// row (RR; `height == 1 && width ≤ left_off` also matches In-Row).
    RrWindow {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae.
        len: u32,
        /// Columns to the left where the window starts (≥ 1).
        left_off: u32,
        /// Window width in columns.
        width: u32,
        /// Window height in rows.
        height: u32,
    },
    /// Cumulative totals `SUM($T$row0:T row)` (FR, expanding window).
    FrCumulative {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae.
        len: u32,
        /// Data column being accumulated.
        target_col: u32,
    },
    /// Reverse cumulative `SUM(T row:$T$last)` (RF, shrinking window).
    RfShrinking {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae.
        len: u32,
        /// Data column.
        target_col: u32,
    },
    /// A column of lookups against one fixed table (FF).
    FfLookup {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae.
        len: u32,
        /// The shared table range.
        table: Range,
    },
    /// An increment chain `X(r) = X(r-1) + 1` (RR-Chain).
    Chain {
        /// Chain column.
        col: u32,
        /// First formula row (references `row0 - 1`).
        row0: u32,
        /// Number of formulae.
        len: u32,
    },
    /// Derived column: `(col,row)` references `(src_col,row)` (In-Row RR).
    DerivedCol {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae.
        len: u32,
        /// Source column.
        src_col: u32,
    },
    /// The Fig. 2 shape: `N(r) = IF(A(r)=A(r-1), N(r-1)+M(r), M(r))` —
    /// four references per formula, three RR runs plus one chain.
    Fig2 {
        /// Group-id column (`A`).
        a_col: u32,
        /// Amount column (`M`).
        m_col: u32,
        /// Running-total column (`N`).
        n_col: u32,
        /// First formula row (references `row0 - 1`).
        row0: u32,
        /// Number of formulae.
        len: u32,
    },
    /// Formulae on every *other* row, each referencing the cell to its
    /// left — the shape of §V's exploratory RR-GapOne pattern (rare in
    /// practice). No pattern spans the skipped rows: TACO holds it in
    /// single edges.
    GapOneCol {
        /// Formula column.
        col: u32,
        /// First formula row.
        row0: u32,
        /// Number of formulae (rows covered = 2·len − 1).
        len: u32,
        /// Source column.
        src_col: u32,
    },
    /// One unstructured dependency.
    NoiseSingle {
        /// The referenced range.
        prec: Range,
        /// The formula cell.
        dep: Cell,
    },
}

impl Region {
    /// Number of dependencies this region emits.
    pub fn dep_count(&self) -> u64 {
        match self {
            Region::RrWindow { len, .. }
            | Region::FrCumulative { len, .. }
            | Region::RfShrinking { len, .. }
            | Region::FfLookup { len, .. }
            | Region::Chain { len, .. }
            | Region::DerivedCol { len, .. }
            | Region::GapOneCol { len, .. } => u64::from(*len),
            Region::Fig2 { len, .. } => 4 * u64::from(*len),
            Region::NoiseSingle { .. } => 1,
        }
    }

    /// Emits the dependencies of this region.
    pub fn emit(&self, out: &mut Vec<Dependency>) {
        match *self {
            Region::RrWindow { col, row0, len, left_off, width, height } => {
                let pc = col.saturating_sub(left_off).max(1);
                for k in 0..len {
                    let row = row0 + k;
                    let prec = Range::from_coords(pc, row, pc + width - 1, row + height - 1);
                    out.push(Dependency::new(prec, Cell::new(col, row)));
                }
            }
            Region::FrCumulative { col, row0, len, target_col } => {
                for k in 0..len {
                    let row = row0 + k;
                    let prec = Range::from_coords(target_col, row0, target_col, row);
                    out.push(Dependency {
                        prec,
                        dep: Cell::new(col, row),
                        cue: Cue { head_fixed: true, tail_fixed: false },
                    });
                }
            }
            Region::RfShrinking { col, row0, len, target_col } => {
                let last = row0 + len - 1;
                for k in 0..len {
                    let row = row0 + k;
                    let prec = Range::from_coords(target_col, row, target_col, last);
                    out.push(Dependency {
                        prec,
                        dep: Cell::new(col, row),
                        cue: Cue { head_fixed: false, tail_fixed: true },
                    });
                }
            }
            Region::FfLookup { col, row0, len, table } => {
                for k in 0..len {
                    out.push(Dependency {
                        prec: table,
                        dep: Cell::new(col, row0 + k),
                        cue: Cue { head_fixed: true, tail_fixed: true },
                    });
                }
            }
            Region::Chain { col, row0, len } => {
                for k in 0..len {
                    let row = row0 + k;
                    out.push(Dependency::new(
                        Range::cell(Cell::new(col, row - 1)),
                        Cell::new(col, row),
                    ));
                }
            }
            Region::DerivedCol { col, row0, len, src_col } => {
                for k in 0..len {
                    let row = row0 + k;
                    out.push(Dependency::new(
                        Range::cell(Cell::new(src_col, row)),
                        Cell::new(col, row),
                    ));
                }
            }
            Region::Fig2 { a_col, m_col, n_col, row0, len } => {
                for k in 0..len {
                    let row = row0 + k;
                    let dep = Cell::new(n_col, row);
                    // A(r-1):A(r) emitted as the two cell references the
                    // formula makes, matching IF(A r = A r-1, …).
                    out.push(Dependency::new(Range::cell(Cell::new(a_col, row)), dep));
                    out.push(Dependency::new(Range::cell(Cell::new(a_col, row - 1)), dep));
                    out.push(Dependency::new(Range::cell(Cell::new(m_col, row)), dep));
                    out.push(Dependency::new(Range::cell(Cell::new(n_col, row - 1)), dep));
                }
            }
            Region::GapOneCol { col, row0, len, src_col } => {
                for k in 0..len {
                    let row = row0 + 2 * k;
                    out.push(Dependency::new(
                        Range::cell(Cell::new(src_col, row)),
                        Cell::new(col, row),
                    ));
                }
            }
            Region::NoiseSingle { prec, dep } => {
                out.push(Dependency::new(prec, dep));
            }
        }
    }

    /// Cells worth probing for the "maximum dependents" experiment, plus
    /// the transitive-path length rooted there.
    fn hot_cells(&self) -> Vec<(Cell, u32)> {
        match *self {
            // Every lookup depends on the table head, but only directly:
            // path length 1.
            Region::FfLookup { table, .. } => vec![(table.head(), 1)],
            // Chain head transitively feeds the whole chain.
            Region::Chain { col, row0, len } => {
                vec![(Cell::new(col, row0 - 1), len)]
            }
            // Cumulative: the first data cell feeds every total.
            Region::FrCumulative { target_col, row0, .. } => {
                vec![(Cell::new(target_col, row0), 1)]
            }
            Region::RfShrinking { target_col, row0, len, .. } => {
                vec![(Cell::new(target_col, row0 + len - 1), 1)]
            }
            // Fig. 2: the first amount cell flows down the N chain.
            Region::Fig2 { m_col, n_col, row0, len, .. } => {
                vec![(Cell::new(m_col, row0), len), (Cell::new(n_col, row0 - 1), len)]
            }
            _ => Vec::new(),
        }
    }
}

/// Parameters for one synthetic sheet.
#[derive(Debug, Clone)]
pub struct SheetParams {
    /// Target number of dependencies (the paper filters to ≥ 10K).
    pub target_deps: u64,
    /// Maximum row index regions may occupy (66K for xls-era sheets, 1M
    /// for xlsx).
    pub max_row: u32,
    /// Relative weights for the structured region kinds:
    /// `[rr, fr, rf, ff, chain, derived, fig2, gap-one]`.
    pub weights: [u32; 8],
    /// Upper bound on a single region's formula run length.
    pub max_run: u32,
    /// Fraction of dependencies emitted as unstructured noise singles
    /// (hand-written formulae that do not compress). Real sheets vary
    /// wildly here, which is what spreads Table IV's fraction columns.
    pub noise_share: f64,
}

impl Default for SheetParams {
    fn default() -> Self {
        SheetParams {
            target_deps: 10_000,
            max_row: 65_000,
            weights: [30, 8, 4, 20, 10, 15, 8, 1],
            max_run: 5_000,
            noise_share: 0.02,
        }
    }
}

/// A generated sheet: its dependencies plus benchmark bookkeeping.
#[derive(Debug, Clone)]
pub struct SyntheticSheet {
    /// Sheet name (e.g. `"enron-07"`).
    pub name: String,
    /// All dependencies, in generation order (like a file parse).
    pub deps: Vec<Dependency>,
    /// Candidate cells for the Maximum-Dependents experiment.
    pub hot_cells: Vec<Cell>,
    /// The cell rooting the longest dependency path.
    pub longest_path_cell: Cell,
    /// Length (edges) of that path, as constructed.
    pub longest_path_len: u32,
}

/// Generates one sheet from seeded randomness; fully deterministic in
/// `(name, seed, params)`.
pub fn gen_sheet(name: &str, seed: u64, params: &SheetParams) -> SyntheticSheet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deps: Vec<Dependency> = Vec::with_capacity(params.target_deps as usize);
    let mut hot: Vec<(Cell, u32)> = Vec::new();
    let mut emitted = 0u64;
    let noise_target = (params.target_deps as f64 * params.noise_share.clamp(0.0, 0.9)) as u64;
    let structured_target = params.target_deps - noise_target;
    // Each region gets its own column strip so regions do not collide;
    // strips advance left→right and wrap to a deeper row band if the sheet
    // runs out of columns.
    let mut next_col: u32 = 2;
    let mut band_row: u32 = 2;
    let total_weight: u32 = params.weights.iter().sum();
    // Guarantee every enabled kind appears at least once per sheet
    // (low-weight kinds like GapOne would otherwise vanish from small
    // corpora); after this seeding the weighted draw takes over.
    let mut unseeded_kinds: Vec<usize> =
        params.weights.iter().enumerate().filter(|&(_, &w)| w > 0).map(|(i, _)| i).collect();

    while emitted < structured_target {
        let remaining = structured_target - emitted;
        let run_cap = params.max_run.min(remaining.min(u64::from(params.max_row) - 2) as u32);
        let len = if run_cap <= 8 { run_cap.max(1) } else { rng.gen_range(8..=run_cap) };
        // Reserve a strip wide enough for the region (≤ 8 columns).
        if next_col + 8 >= taco_grid::MAX_COL {
            next_col = 2;
            band_row = band_row.saturating_add(params.max_run + 8);
        }
        let col = next_col + 4;
        let row0 = band_row.max(2);
        if row0 + 2 * len + 2 > params.max_row {
            // Band overflow: restart at the top with a fresh column strip.
            band_row = 2;
            next_col += 9;
            continue;
        }
        let kind = if let Some(k) = unseeded_kinds.pop() {
            k
        } else {
            let pick = rng.gen_range(0..total_weight);
            let mut acc = 0;
            let mut kind = 0usize;
            for (i, w) in params.weights.iter().enumerate() {
                acc += w;
                if pick < acc {
                    kind = i;
                    break;
                }
            }
            kind
        };
        let region = match kind {
            0 => Region::RrWindow {
                col,
                row0,
                len,
                left_off: rng.gen_range(1..=3),
                width: rng.gen_range(1..=3),
                height: rng.gen_range(1..=4),
            },
            1 => Region::FrCumulative { col, row0, len, target_col: col - 1 },
            2 => Region::RfShrinking { col, row0, len, target_col: col - 1 },
            3 => Region::FfLookup {
                col,
                row0,
                len,
                table: Range::from_coords(col - 3, row0, col - 2, row0 + rng.gen_range(1..20)),
            },
            4 => Region::Chain { col, row0: row0 + 1, len },
            5 => Region::DerivedCol { col, row0, len, src_col: col - 1 },
            6 => Region::Fig2 { a_col: col - 3, m_col: col - 1, n_col: col, row0: row0 + 1, len },
            _ => Region::GapOneCol { col, row0, len: (len / 2).max(2), src_col: col - 1 },
        };
        emitted += region.dep_count();
        region.emit(&mut deps);
        hot.extend(region.hot_cells());
        next_col += 9;
    }

    // Unstructured noise: hand-written one-off formulae scattered over the
    // occupied area, each with a distinct reference shape so none of them
    // pair up with the structured runs.
    let max_col = next_col.min(taco_grid::MAX_COL - 8) + 4;
    for _ in 0..noise_target {
        let dep = Cell::new(rng.gen_range(2..=max_col.max(3)), rng.gen_range(2..params.max_row));
        let pc = rng.gen_range(1..=max_col.max(3));
        let pr = rng.gen_range(1..params.max_row.saturating_sub(8).max(2));
        let prec = Range::from_coords(pc, pr, pc + rng.gen_range(0..2), pr + rng.gen_range(0..8));
        Region::NoiseSingle { prec, dep }.emit(&mut deps);
    }

    let (longest_path_cell, longest_path_len) =
        hot.iter().copied().max_by_key(|&(_, l)| l).unwrap_or((Cell::new(1, 1), 0));
    SyntheticSheet {
        name: name.to_string(),
        deps,
        hot_cells: hot.into_iter().map(|(c, _)| c).collect(),
        longest_path_cell,
        longest_path_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_core::{Config, FormulaGraph};

    #[test]
    fn deterministic_for_same_seed() {
        let p = SheetParams { target_deps: 2_000, ..Default::default() };
        let a = gen_sheet("s", 42, &p);
        let b = gen_sheet("s", 42, &p);
        assert_eq!(a.deps, b.deps);
        let c = gen_sheet("s", 43, &p);
        assert_ne!(a.deps, c.deps);
    }

    #[test]
    fn reaches_target_dep_count() {
        let p = SheetParams { target_deps: 5_000, ..Default::default() };
        let s = gen_sheet("s", 1, &p);
        assert!(s.deps.len() as u64 >= 5_000);
        assert!(s.deps.len() as u64 <= 5_000 + 4 * u64::from(p.max_run));
    }

    #[test]
    fn generated_sheets_compress_heavily() {
        let p = SheetParams { target_deps: 20_000, ..Default::default() };
        let s = gen_sheet("s", 7, &p);
        let taco = FormulaGraph::build(Config::taco_full(), s.deps.iter().copied());
        let st = taco.stats();
        // The paper reports remaining-edge fractions in the low percents.
        assert!(
            st.remaining_fraction() < 0.10,
            "expected heavy compression, got {:.3}",
            st.remaining_fraction()
        );
    }

    #[test]
    fn regions_emit_expected_counts() {
        for region in [
            Region::RrWindow { col: 5, row0: 2, len: 10, left_off: 2, width: 2, height: 3 },
            Region::FrCumulative { col: 5, row0: 2, len: 10, target_col: 4 },
            Region::RfShrinking { col: 5, row0: 2, len: 10, target_col: 4 },
            Region::FfLookup { col: 5, row0: 2, len: 10, table: Range::from_coords(1, 1, 2, 5) },
            Region::Chain { col: 5, row0: 2, len: 10 },
            Region::DerivedCol { col: 5, row0: 2, len: 10, src_col: 4 },
            Region::Fig2 { a_col: 1, m_col: 4, n_col: 5, row0: 2, len: 10 },
        ] {
            let mut v = Vec::new();
            region.emit(&mut v);
            assert_eq!(v.len() as u64, region.dep_count(), "{region:?}");
        }
    }

    #[test]
    fn chain_region_produces_chain_pattern() {
        let mut v = Vec::new();
        Region::Chain { col: 3, row0: 5, len: 50 }.emit(&mut v);
        let g = FormulaGraph::build(Config::taco_full(), v);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges().next().unwrap().pattern(), taco_core::PatternType::RRChain);
    }

    #[test]
    fn fig2_region_compresses_to_few_edges() {
        let mut v = Vec::new();
        Region::Fig2 { a_col: 1, m_col: 13, n_col: 14, row0: 3, len: 1000 }.emit(&mut v);
        let g = FormulaGraph::build(Config::taco_full(), v);
        assert!(g.num_edges() <= 5, "Fig. 2 compresses to ≤5 edges, got {}", g.num_edges());
    }

    #[test]
    fn longest_path_metadata_is_consistent() {
        let p = SheetParams { target_deps: 5_000, ..Default::default() };
        let s = gen_sheet("s", 3, &p);
        assert!(s.longest_path_len > 0);
        assert!(s.hot_cells.contains(&s.longest_path_cell));
    }
}

#[cfg(test)]
mod gap_one_tests {
    use super::*;
    use taco_core::{Config, FormulaGraph};

    #[test]
    fn gap_one_region_stays_singles() {
        let mut v = Vec::new();
        Region::GapOneCol { col: 5, row0: 3, len: 20, src_col: 4 }.emit(&mut v);
        assert_eq!(v.len(), 20);
        // No pattern spans the skipped rows: 20 singles.
        let g = FormulaGraph::build(Config::taco_full(), v.iter().copied());
        assert_eq!(g.num_edges(), 20);
    }

    /// `GapOneCol` regions in `deps`: maximal stretches, in generation
    /// order, of formulae that each read the cell to their left, two rows
    /// below the one before.
    fn gap_one_regions(deps: &[Dependency]) -> usize {
        let reads_left = |d: &Dependency| {
            d.dep.col.checked_sub(1).is_some_and(|c| d.prec == Range::cell(Cell::new(c, d.dep.row)))
        };
        let steps: Vec<bool> = deps
            .windows(2)
            .map(|w| {
                let (a, b) = (&w[0], &w[1]);
                reads_left(a)
                    && reads_left(b)
                    && b.dep.col == a.dep.col
                    && b.dep.row == a.dep.row + 2
            })
            .collect();
        (0..steps.len()).filter(|&i| steps[i] && (i == 0 || !steps[i - 1])).count()
    }

    #[test]
    fn corpus_contains_some_gap_one_regions() {
        let sheets = crate::corpus::enron_like(0.3).generate();
        let regions: usize = sheets.iter().map(|s| gap_one_regions(&s.deps)).sum();
        assert!(regions > 0, "corpus should carry the §V shape");
    }
}
