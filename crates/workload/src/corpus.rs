//! Calibrated corpus presets standing in for the paper's Enron and Github
//! datasets.
//!
//! Substitution rationale (see DESIGN.md): the compression and query
//! algorithms only observe parsed dependencies, so what matters is the
//! *distribution of pattern structure and sheet sizes*, which these presets
//! reproduce at laptop scale:
//!
//! - **Enron-like** — `xls`-era sheets (≤ 65K rows): sizes log-uniform in
//!   `[10K, scale × 120K]` dependencies, pattern mix dominated by RR and
//!   FF (Table V's ordering RR ≫ FF ≫ RR-Chain ≫ FR ≫ RF);
//! - **Github-like** — `xlsx` sheets (≤ 1M rows): larger and more skewed,
//!   with longer chains and bigger lookup fan-outs (Fig. 1's heavier
//!   tails).

use crate::generator::{gen_sheet, SheetParams, SyntheticSheet};

/// Parameters for a whole corpus.
#[derive(Debug, Clone)]
pub struct CorpusParams {
    /// Corpus label used in report rows.
    pub name: &'static str,
    /// Number of sheets.
    pub sheets: usize,
    /// Smallest per-sheet dependency count.
    pub min_deps: u64,
    /// Largest per-sheet dependency count.
    pub max_deps: u64,
    /// Per-sheet generator parameters (weights, row limits).
    pub sheet: SheetParams,
    /// Per-sheet noise share is drawn log-uniform from this interval,
    /// spreading the remaining-edge fractions the way Table IV reports
    /// (tiny minimum, single-digit-percent mean).
    pub noise_range: (f64, f64),
    /// RNG seed for the whole corpus.
    pub seed: u64,
}

impl CorpusParams {
    /// Generates the corpus deterministically. Sheet sizes follow a
    /// log-uniform ladder between `min_deps` and `max_deps` (heavy small,
    /// thin large — matching the paper's "focus on large spreadsheets"
    /// filtered distribution).
    pub fn generate(&self) -> Vec<SyntheticSheet> {
        let mut out = Vec::with_capacity(self.sheets);
        let lo = (self.min_deps as f64).ln();
        let hi = (self.max_deps as f64).ln();
        for i in 0..self.sheets {
            // Quadratic skew toward the small end of the log scale.
            let t = (i as f64 + 0.5) / self.sheets as f64;
            let t = t * t;
            let deps = (lo + t * (hi - lo)).exp() as u64;
            let mut sp = self.sheet.clone();
            sp.target_deps = deps;
            // Cap run length so each sheet holds a healthy number of
            // regions (keeps every pattern kind represented).
            sp.max_run = sp.max_run.min((deps / 12).max(16) as u32);
            // Log-uniform noise share, deterministic per sheet index.
            let (nlo, nhi) = self.noise_range;
            let u = ((i as f64 * 0.6180339887498949).fract() + 0.5).fract();
            sp.noise_share = (nlo.ln() + u * (nhi.ln() - nlo.ln())).exp();
            let name = format!("{}-{:02}", self.name, i);
            out.push(gen_sheet(&name, self.seed.wrapping_add(i as u64), &sp));
        }
        out
    }
}

/// The Enron-like preset. `scale = 1.0` targets roughly one million total
/// dependencies over 24 sheets; tests pass smaller scales for quick runs.
pub fn enron_like(scale: f64) -> CorpusParams {
    CorpusParams {
        name: "enron",
        sheets: ((24.0 * scale).ceil() as usize).max(8),
        min_deps: 10_000,
        max_deps: ((120_000.0 * scale) as u64).max(20_000),
        sheet: SheetParams {
            target_deps: 0, // set per sheet
            max_row: 65_000,
            // [rr, fr, rf, ff, chain, derived, fig2] — RR ≫ FF ≫ chain ≫
            // FR ≫ RF per Table V.
            weights: [34, 5, 2, 22, 9, 16, 7, 1],
            max_run: 4_000,
            noise_share: 0.02,
        },
        noise_range: (0.002, 0.30),
        seed: 0xEA10,
    }
}

/// The Github-like preset: bigger sheets, heavier tails, longer chains.
pub fn github_like(scale: f64) -> CorpusParams {
    CorpusParams {
        name: "github",
        sheets: ((24.0 * scale).ceil() as usize).max(8),
        min_deps: 10_000,
        max_deps: ((400_000.0 * scale) as u64).max(40_000),
        sheet: SheetParams {
            target_deps: 0,
            max_row: 1_000_000,
            weights: [36, 4, 2, 24, 12, 12, 6, 1],
            max_run: 20_000,
            noise_share: 0.01,
        },
        noise_range: (0.0005, 0.15),
        seed: 0x617B,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generation_is_deterministic() {
        let p = CorpusParams { sheets: 3, max_deps: 20_000, ..enron_like(0.2) };
        let a = p.generate();
        let b = p.generate();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.deps, y.deps);
        }
    }

    #[test]
    fn sizes_follow_log_ladder() {
        let p = CorpusParams { sheets: 6, ..enron_like(0.3) };
        let sheets = p.generate();
        let sizes: Vec<usize> = sheets.iter().map(|s| s.deps.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1] + w[1] / 2), "roughly increasing: {sizes:?}");
        assert!(*sizes.first().unwrap() >= 9_000);
    }

    #[test]
    fn presets_differ_in_row_limits() {
        assert_eq!(enron_like(1.0).sheet.max_row, 65_000);
        assert_eq!(github_like(1.0).sheet.max_row, 1_000_000);
        assert!(github_like(1.0).max_deps > enron_like(1.0).max_deps);
    }
}
