//! Compressor configurations: which patterns are enabled and whether
//! compression is restricted to derived columns. `NoComp` and `TACO-InRow`
//! from the paper's evaluation are configurations of the same framework, so
//! performance comparisons isolate exactly the compression contribution.
//! The selection heuristics of §IV-A are not options: every configuration
//! prefers column-wise edges and follows `$`-marker cues.

use crate::pattern::{PatternMeta, PatternType};
use taco_grid::Axis;

/// Compressor configuration for a [`crate::FormulaGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Enabled patterns in the order the compressor tries them against a
    /// `Single` candidate edge. Empty means no compression (NoComp).
    pub patterns: Vec<PatternType>,
    /// Restrict compression to derived-column shapes: RR edges whose
    /// referenced ranges lie in the same row(s) as the formula cell
    /// (TACO-InRow, §VI-B).
    pub in_row_only: bool,
}

impl Config {
    /// Full TACO: all basic patterns plus RR-Chain.
    pub fn taco_full() -> Self {
        Config {
            patterns: vec![
                PatternType::RRChain,
                PatternType::RR,
                PatternType::RF,
                PatternType::FR,
                PatternType::FF,
            ],
            in_row_only: false,
        }
    }

    /// TACO-InRow (§VI-B): only RR, only same-row references, column axis.
    /// Captures derived columns (normalized copies, extracted substrings…).
    pub fn taco_in_row() -> Self {
        Config { patterns: vec![PatternType::RR], in_row_only: true }
    }

    /// No compression: every dependency is stored as a `Single` edge. This
    /// is the paper's NoComp baseline, implemented in the same framework.
    pub fn nocomp() -> Self {
        Config { patterns: Vec::new(), in_row_only: false }
    }

    /// Full TACO minus one pattern (the pattern ablation).
    pub fn taco_without(p: PatternType) -> Self {
        let mut c = Self::taco_full();
        c.patterns.retain(|&q| q != p);
        c
    }

    /// Checks a candidate compressed edge against configuration
    /// restrictions (currently the TACO-InRow shape constraint).
    pub fn allows(&self, meta: &PatternMeta, axis: Axis) -> bool {
        if !self.in_row_only {
            return true;
        }
        // Derived-column shape: a vertical run of formulae whose windows
        // stay on the formula's own row(s) — both rel offsets have zero row
        // delta in canonical coordinates.
        axis == Axis::Col
            && matches!(meta, PatternMeta::RR { h_rel, t_rel } if h_rel.dr == 0 && t_rel.dr == 0)
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::taco_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_grid::Offset;

    #[test]
    fn presets() {
        assert!(Config::nocomp().patterns.is_empty());
        assert!(Config::taco_full().patterns.contains(&PatternType::RRChain));
        let no_ff = Config::taco_without(PatternType::FF);
        assert!(!no_ff.patterns.contains(&PatternType::FF));
        assert_eq!(no_ff.patterns.len(), Config::taco_full().patterns.len() - 1);
    }

    #[test]
    fn in_row_restriction() {
        let c = Config::taco_in_row();
        let in_row = PatternMeta::RR { h_rel: Offset::new(-2, 0), t_rel: Offset::new(-1, 0) };
        let off_row = PatternMeta::RR { h_rel: Offset::new(-2, -1), t_rel: Offset::new(-1, 0) };
        assert!(c.allows(&in_row, Axis::Col));
        assert!(!c.allows(&in_row, Axis::Row));
        assert!(!c.allows(&off_row, Axis::Col));
        // Full TACO allows everything.
        assert!(Config::taco_full().allows(&off_row, Axis::Row));
    }
}
