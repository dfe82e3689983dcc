//! Compression is bit-identical: the compressor chooses the same edge for
//! every dependency, whatever the maintenance paths underneath it cost.
//!
//! The constants in [`ENRON_LIKE`] and [`GITHUB_LIKE`] were recorded at
//! commit `79c337d`, when every merge was an R-tree remove + insert and
//! candidates came from four point probes, and must not move: they pin
//! the content-sorted edge list (metadata and counts included), the edge
//! count, the per-pattern reduction and the vertex count of every sheet of
//! two small corpora under two configurations, after a build, after a
//! seeded clear/re-add/update script (plus one run of formulae along a
//! row), and after four structural edits through the densest column. Beside the pins, every stage checks the
//! graph against what it must represent: the counts `stats()` reports
//! equal a recount over `edges()`, `decompress_all()` is the expected
//! dependency multiset, and seeded `find_dependents` / `find_precedents`
//! probes cover the same cells as an uncompressed graph of the same
//! dependencies.

use taco_core::{
    ChainDir, Config, Dependency, Edge, FormulaGraph, PatternCounts, PatternMeta, PatternType,
    StructuralOp,
};
use taco_grid::{Axis, Cell, Range, MAX_COL, MAX_ROW};
use taco_workload::{enron_like, github_like, SyntheticSheet};

const SCALE: f64 = 0.05;
const SCRIPT_OPS: usize = 40;
const CLEAR_ROWS: u32 = 200;
const PROBES: usize = 50;

/// What one stage of one `(corpus, configuration)` pair must look like,
/// folded over the corpus's sheets in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    edges: usize,
    /// `rr, rf, fr, ff, rr_chain`.
    reduced: [u64; 5],
    vertices: usize,
}

const STAGES: [&str; 3] = ["build", "script", "structural"];
/// A configuration's name and constructor.
type NamedConfig = (&'static str, fn() -> Config);

const CONFIGS: [NamedConfig; 2] =
    [("taco_full", Config::taco_full), ("taco_in_row", Config::taco_in_row)];

/// `[configuration][stage]` of `enron_like(0.05)`.
#[rustfmt::skip]
const ENRON_LIKE: [[Pin; 3]; 2] = [
    [
        Pin { digest: 0x4da8acf8de334100, edges: 10324, reduced: [54860, 6416, 5342, 10711, 15838], vertices: 20609 },
        Pin { digest: 0x7462feccf24e6f76, edges: 10690, reduced: [54687, 6405, 5333, 10691, 15760], vertices: 21221 },
        Pin { digest: 0x49abf74dcd37a365, edges: 11324, reduced: [47779, 6397, 5321, 11262, 15660], vertices: 22490 },
    ],
    [
        Pin { digest: 0xbe2c1eb9f758f472, edges: 70934, reduced: [32557, 0, 0, 0, 0], vertices: 109290 },
        Pin { digest: 0x0cc294e7001986d8, edges: 71153, reduced: [32413, 0, 0, 0, 0], vertices: 109696 },
        Pin { digest: 0x09f4edfc00d1f2fb, edges: 70918, reduced: [26825, 0, 0, 0, 0], vertices: 109365 },
    ],
];

/// `[configuration][stage]` of `github_like(0.05)`.
#[rustfmt::skip]
const GITHUB_LIKE: [[Pin; 3]; 2] = [
    [
        Pin { digest: 0xa21b66c1e684d076, edges: 7562, reduced: [70986, 6104, 8449, 20477, 27979], vertices: 15076 },
        Pin { digest: 0xaddef27ea68d2f92, edges: 8014, reduced: [70771, 6099, 8436, 20433, 27882], vertices: 15789 },
        Pin { digest: 0x4d7bf87d60c9f22c, edges: 9122, reduced: [60159, 6104, 8425, 21458, 27760], vertices: 18014 },
    ],
    [
        Pin { digest: 0x7c4ac81970f487d5, edges: 102950, reduced: [38607, 0, 0, 0, 0], vertices: 145629 },
        Pin { digest: 0xc2397d5f96d43064, edges: 103191, reduced: [38444, 0, 0, 0, 0], vertices: 146037 },
        Pin { digest: 0xed0ff53847062b76, edges: 102938, reduced: [30090, 0, 0, 0, 0], vertices: 145721 },
    ],
];

/// FNV-1a, 64 bit.
struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64: the script's own seeded stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn reduced_array(c: &PatternCounts) -> [u64; 5] {
    [c.rr, c.rf, c.fr, c.ff, c.rr_chain]
}

/// Dependent corners, precedent corners, axis, metadata, count.
type ContentKey = (Cell, Cell, Cell, Cell, u8, (u8, i64, i64, i64, i64), u32);

/// A total order over edges by content alone — dependent corners,
/// precedent corners, axis, metadata (tag, then payload), count — the
/// order the pins were recorded in.
fn content_key(e: &Edge) -> ContentKey {
    let cell = |c: Cell| (i64::from(c.col), i64::from(c.row));
    let meta = match e.meta {
        PatternMeta::Single => (0, 0, 0, 0, 0),
        PatternMeta::RR { h_rel: h, t_rel: t } => (1, h.dc, h.dr, t.dc, t.dr),
        PatternMeta::RF { h_rel: h, t_fix: t } => (2, h.dc, h.dr, cell(t).0, cell(t).1),
        PatternMeta::FR { h_fix: h, t_rel: t } => (3, cell(h).0, cell(h).1, t.dc, t.dr),
        PatternMeta::FF { h_fix: h, t_fix: t } => (4, cell(h).0, cell(h).1, cell(t).0, cell(t).1),
        PatternMeta::RRChain { dir } => (5, i64::from(dir == ChainDir::Below), 0, 0, 0),
    };
    let axis = u8::from(e.axis == Axis::Row);
    (e.dep.head(), e.dep.tail(), e.prec.head(), e.prec.tail(), axis, meta, e.count)
}

/// Folds one graph into the running pin of its `(corpus, configuration,
/// stage)`: the edges are content-sorted, so the digest depends on the
/// edge multiset alone, never on slot ids or index shape.
fn fold(pin: &mut Pin, g: &FormulaGraph) {
    let mut h = Fnv(pin.digest);
    let mut edges: Vec<&Edge> = g.edges().collect();
    edges.sort_by_key(|e| content_key(e));
    for e in &edges {
        h.bytes(format!("{e:?};").as_bytes());
    }
    h.bytes(&(edges.len() as u64).to_le_bytes());
    pin.digest = h.0;
    let s = g.stats();
    pin.edges += g.num_edges();
    for (sum, x) in pin.reduced.iter_mut().zip(reduced_array(&s.reduced)) {
        *sum += x;
    }
    pin.vertices += s.vertices;
}

/// The counts `stats()` reports equal a recount over the edges.
fn check_counts(g: &FormulaGraph, at: &str) {
    let (mut deps, mut reduced) = (0u64, PatternCounts::default());
    for e in g.edges() {
        deps += u64::from(e.count);
        reduced.add(e.pattern(), u64::from(e.count) - 1);
    }
    let s = g.stats();
    assert_eq!(s.edges, g.edges().count(), "edges {at}");
    assert_eq!(s.edges, g.num_edges(), "num_edges {at}");
    assert_eq!(s.dependencies, deps, "dependencies {at}");
    assert_eq!(s.reduced, reduced, "reduced {at}");
    assert_eq!(s.reduced.get(PatternType::Single), 0);
}

fn dep_key(d: &Dependency) -> (Cell, Cell, Cell) {
    (d.dep, d.prec.head(), d.prec.tail())
}

/// `decompress_all()` is exactly the expected dependency multiset.
fn check_lossless(g: &FormulaGraph, expected: &[Dependency], at: &str) {
    let mut want: Vec<_> = expected.iter().map(dep_key).collect();
    let mut got: Vec<_> = g.decompress_all().iter().map(dep_key).collect();
    want.sort_unstable();
    got.sort_unstable();
    assert!(want == got, "decompress_all differs from the expected dependencies {at}");
}

/// A set of ranges as disjoint per-column row intervals, so two answers
/// that cover the same cells with different rectangles compare equal.
fn cell_set(ranges: &[Range]) -> Vec<(u32, u32, u32)> {
    let mut runs: Vec<(u32, u32, u32)> = ranges
        .iter()
        .flat_map(|r| (r.head().col..=r.tail().col).map(|c| (c, r.head().row, r.tail().row)))
        .collect();
    runs.sort_unstable();
    let mut out: Vec<(u32, u32, u32)> = Vec::new();
    for (col, lo, hi) in runs {
        match out.last_mut() {
            Some((c, _, end)) if *c == col && lo <= *end + 1 => *end = (*end).max(hi),
            _ => out.push((col, lo, hi)),
        }
    }
    out
}

/// Seeded probes cover the same cells as the uncompressed graph: the
/// dependents of each picked dependency's referenced head cell and the
/// precedents of its formula cell.
fn check_queries(g: &FormulaGraph, nocomp: &FormulaGraph, picks: &[Dependency], at: &str) {
    for d in picks {
        let (p, f) = (Range::cell(d.prec.head()), Range::cell(d.dep));
        assert_eq!(
            cell_set(&g.find_dependents(p)),
            cell_set(&nocomp.find_dependents(p)),
            "dependents of {p} {at}"
        );
        assert_eq!(
            cell_set(&g.find_precedents(f)),
            cell_set(&nocomp.find_precedents(f)),
            "precedents of {f} {at}"
        );
    }
}

/// The configurations' graphs of one sheet, kept in lockstep with
/// the dependency multiset they must represent.
struct Sheet {
    graphs: Vec<FormulaGraph>,
    expected: Vec<Dependency>,
    rng: Rng,
}

impl Sheet {
    fn each(&mut self, mut f: impl FnMut(&mut FormulaGraph)) {
        self.graphs.iter_mut().for_each(&mut f);
    }

    fn pick(&mut self) -> Dependency {
        self.expected[self.rng.below(self.expected.len())]
    }

    /// The stage's heavy checks and its contribution to the pins.
    fn close_stage(&mut self, pins: &mut [[Pin; 3]; 2], stage: usize, name: &str) {
        let at = format!("({name}, after {})", STAGES[stage]);
        let nocomp = FormulaGraph::build(Config::nocomp(), self.expected.iter().copied());
        let picks: Vec<Dependency> = (0..PROBES).map(|_| self.pick()).collect();
        for (g, pins) in self.graphs.iter().zip(pins.iter_mut()) {
            check_counts(g, &at);
            check_lossless(g, &self.expected, &at);
            check_queries(g, &nocomp, &picks, &at);
            fold(&mut pins[stage], g);
        }
    }

    /// Clear a 200-row column range and re-add what it held, three times
    /// out of four; otherwise rewrite one formula cell's references.
    fn script_op(&mut self, k: usize, name: &str) {
        let d = self.pick();
        let c = d.dep;
        if k % 4 == 3 {
            let beside = Cell::new((c.col + 1).min(MAX_COL), c.row);
            let new = [Dependency::new(d.prec, c), Dependency::new(Range::cell(beside), c)];
            self.each(|g| g.update_cell(c, &new));
            self.expected.retain(|x| x.dep != c);
            self.expected.extend(new);
        } else {
            let range =
                Range::from_coords(c.col, c.row, c.col, (c.row + CLEAR_ROWS - 1).min(MAX_ROW));
            let cleared: Vec<Dependency> =
                self.expected.iter().filter(|x| range.contains_cell(x.dep)).copied().collect();
            self.each(|g| {
                g.clear_cells(range);
                cleared.iter().for_each(|d| g.add_dependency(d));
            });
        }
        let at = format!("({name}, script op {k})");
        self.each(|g| check_counts(g, &at));
    }

    /// The corpora fill columns only; a run of formulae along a free row,
    /// each reading the cell above it, is what only the row arm of
    /// candidate discovery can compress.
    fn row_run(&mut self, name: &str) {
        let below = self.expected.iter().map(|d| d.dep.row.max(d.prec.tail().row)).max();
        let row = below.expect("sheets are not empty") + 3;
        for col in 2..=9u32 {
            let d = Dependency::new(Range::cell(Cell::new(col, row - 1)), Cell::new(col, row));
            self.each(|g| g.add_dependency(&d));
            self.expected.push(d);
        }
        let at = format!("({name}, row run)");
        self.each(|g| check_counts(g, &at));
    }

    /// Row and column inserts and deletes through the middle of the
    /// column that holds the most formula cells.
    fn structural_ops(&self) -> [StructuralOp; 4] {
        let mut cols: Vec<u32> = self.expected.iter().map(|d| d.dep.col).collect();
        cols.sort_unstable();
        let col = cols
            .chunk_by(|a, b| a == b)
            .max_by_key(|run| run.len())
            .map(|run| run[0])
            .expect("sheets are not empty");
        let mut rows: Vec<u32> =
            self.expected.iter().filter(|d| d.dep.col == col).map(|d| d.dep.row).collect();
        rows.sort_unstable();
        let row = rows[rows.len() / 2];
        [
            StructuralOp::InsertRows { at: row, n: 3 },
            StructuralOp::DeleteRows { at: row + 5, n: 2 },
            StructuralOp::InsertCols { at: col, n: 1 },
            StructuralOp::DeleteCols { at: col.saturating_sub(1).max(1), n: 1 },
        ]
    }

    fn structural(&mut self, op: StructuralOp, name: &str) {
        self.each(|g| g.apply_structural(op));
        self.expected = self.expected.iter().filter_map(|d| op.map_dependency(d)).collect();
        let at = format!("({name}, {op:?})");
        self.each(|g| check_counts(g, &at));
    }
}

fn run_corpus(sheets: &[SyntheticSheet]) -> [[Pin; 3]; 2] {
    let mut pins = [[Pin { digest: FNV_OFFSET, edges: 0, reduced: [0; 5], vertices: 0 }; 3]; 2];
    for (i, sheet) in sheets.iter().enumerate() {
        let name = sheet.name.as_str();
        let mut s = Sheet {
            graphs: CONFIGS
                .iter()
                .map(|(_, config)| FormulaGraph::build(config(), sheet.deps.iter().copied()))
                .collect(),
            expected: sheet.deps.clone(),
            rng: Rng(0x5EED ^ i as u64),
        };
        s.close_stage(&mut pins, 0, name);
        for k in 0..SCRIPT_OPS {
            s.script_op(k, name);
        }
        s.row_run(name);
        s.close_stage(&mut pins, 1, name);
        for op in s.structural_ops() {
            s.structural(op, name);
        }
        s.close_stage(&mut pins, 2, name);
    }
    pins
}

/// The measured table in the shape of the pinned constants, for the one
/// time they are recorded.
fn render(got: &[[Pin; 3]; 2]) -> String {
    let mut out = String::new();
    for cfg in got {
        out.push_str("    [\n");
        for p in cfg {
            out.push_str(&format!(
                "        Pin {{ digest: {:#018x}, edges: {}, reduced: {:?}, vertices: {} }},\n",
                p.digest, p.edges, p.reduced, p.vertices
            ));
        }
        out.push_str("    ],\n");
    }
    out
}

fn assert_pinned(corpus: &str, sheets: &[SyntheticSheet], pinned: &[[Pin; 3]; 2]) {
    let got = run_corpus(sheets);
    for (k, (cfg, _)) in CONFIGS.iter().enumerate() {
        for (s, stage) in STAGES.iter().enumerate() {
            assert_eq!(
                got[k][s],
                pinned[k][s],
                "{corpus} / {cfg} / after {stage} moved; measured table:\n{}",
                render(&got)
            );
        }
    }
}

// One test per corpus, so the two run side by side.

#[test]
fn enron_like_compression_is_pinned() {
    assert_pinned("enron_like", &enron_like(SCALE).generate(), &ENRON_LIKE);
}

#[test]
fn github_like_compression_is_pinned() {
    assert_pinned("github_like", &github_like(SCALE).generate(), &GITHUB_LIKE);
}
