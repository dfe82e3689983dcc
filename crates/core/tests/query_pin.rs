//! Query answers are bit-identical: the exact ranges a query returns, in
//! order, and its [`QueryStats`], whatever the index walk underneath.
//!
//! The BFS cuts what it finds against the visited set in the order the
//! vertex and visited indexes report their hits, so the same cells can
//! come back as other ranges after a change to either walk; the cell-set
//! checks elsewhere (`pinned_compression.rs`, `prop_equivalence.rs`) would
//! not see that. The constants in [`PINS`] were recorded before the
//! R-tree kept one walk (when the BFS searched on an explicit LIFO stack)
//! and must not move: each folds, with FNV-1a, every range and every
//! stats field of a dependents and a precedents query from every probe of
//! every sheet of a small corpus, on a graph built in one go (STR-packed
//! indexes) and on one grown a dependency at a time.

use taco_core::{Config, FormulaGraph, QueryStats};
use taco_grid::Range;
use taco_workload::{enron_like, github_like, CorpusParams, SyntheticSheet};

const SCALE: f64 = 0.02;
/// Seeded probes per sheet, beside its hot cells and longest-path root.
const PROBES: usize = 24;

/// A configuration's name and constructor.
type NamedConfig = (&'static str, fn() -> Config);

const CONFIGS: [NamedConfig; 2] = [("taco_full", Config::taco_full), ("nocomp", Config::nocomp)];

/// `(corpus, configuration, built digest, grown digest)`.
#[rustfmt::skip]
const PINS: [(&str, &str, u64, u64); 4] = [
    ("enron_like", "taco_full", 0x5290073efcb99217, 0xac2fb881284d7358),
    ("enron_like", "nocomp", 0x4e9d2e175f4344af, 0x06135cc21648e40b),
    ("github_like", "taco_full", 0x12e779daeaf896fb, 0x1b282c673b6eab55),
    ("github_like", "nocomp", 0xa9d4946acab45507, 0xd2787ba4f1f6e1ec),
];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn range(&mut self, r: Range) {
        for c in [r.head(), r.tail()] {
            self.bytes(&c.col.to_le_bytes());
            self.bytes(&c.row.to_le_bytes());
        }
    }

    fn query(&mut self, ranges: &[Range], stats: QueryStats) {
        self.u64(ranges.len() as u64);
        ranges.iter().for_each(|&r| self.range(r));
        let QueryStats { edges_accessed, enqueued, rtree_searches, nodes_visited } = stats;
        [edges_accessed, enqueued, rtree_searches, nodes_visited]
            .into_iter()
            .for_each(|x| self.u64(x));
    }
}

/// The sheet's hot cells and longest-path root, then seeded picks: the
/// precedent range and the formula cell of one dependency each.
fn probes(sheet: &SyntheticSheet) -> Vec<Range> {
    let mut probes: Vec<Range> = sheet.hot_cells.iter().copied().map(Range::cell).collect();
    probes.push(Range::cell(sheet.longest_path_cell));
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..PROBES {
        // Knuth's MMIX step; the high bits pick the index.
        seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let d = sheet.deps[(seed >> 33) as usize % sheet.deps.len()];
        probes.extend([d.prec, Range::cell(d.dep)]);
    }
    probes
}

/// Every probe's dependents and precedents on `g`, folded into `h`, then
/// one query seeded with every probe at once in each direction.
fn fold(h: &mut Fnv, g: &FormulaGraph, probes: &[Range]) {
    let mut out = Vec::new();
    for &p in probes {
        let stats = g.find_dependents_into(p, &mut out);
        h.query(&out, stats);
        let stats = g.find_precedents_into(p, &mut out);
        h.query(&out, stats);
    }
    let stats = g.find_dependents_into(probes, &mut out);
    h.query(&out, stats);
    let stats = g.find_precedents_into(probes, &mut out);
    h.query(&out, stats);
}

#[test]
fn query_ranges_and_stats_are_pinned() {
    let corpora: [(&str, CorpusParams); 2] =
        [("enron_like", enron_like(SCALE)), ("github_like", github_like(SCALE))];
    let mut got = Vec::new();
    for (corpus, params) in corpora {
        let sheets = params.generate();
        for (config, make) in CONFIGS {
            let (mut built_h, mut grown_h) = (Fnv::new(), Fnv::new());
            for sheet in &sheets {
                let probes = probes(sheet);
                let built = FormulaGraph::build(make(), sheet.deps.iter().copied());
                fold(&mut built_h, &built, &probes);
                let mut grown = FormulaGraph::new(make());
                sheet.deps.iter().for_each(|d| grown.add_dependency(d));
                fold(&mut grown_h, &grown, &probes);
            }
            got.push((corpus, config, built_h.0, grown_h.0));
        }
    }
    for g in &got {
        println!("({:?}, {:?}, {:#018x}, {:#018x}),", g.0, g.1, g.2, g.3);
    }
    assert_eq!(got, PINS, "(corpus, configuration, built, grown)");
}
