//! Everything a run feeds the program, generated from `--seed` alone: the
//! seed replaces `PersistParams.seed` and `ServiceScriptParams.seed`, and
//! drives the benchmark's own choice of probe cells, modify ranges and
//! edits. The program under test never sees the seed, only these inputs.

use crate::spec::{Mix, Sizes, CLIENTS};
use std::collections::HashMap;
use taco_core::{Dependency, StructuralOp};
use taco_formula::Value;
use taco_grid::{Cell, Range};
use taco_store::EditRecord;
use taco_workload::{
    enron_like, gen_persist_workload, gen_service_script, github_like, mixed, persist_github_like,
    reader_heavy, writer_heavy, PersistParams, ServiceScript, ServiceScriptParams, SyntheticSheet,
};

/// splitmix64: the benchmark's own seeded stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One clear + re-add operation of the modify phase.
pub struct ModifyOp {
    pub range: Range,
    /// The dependencies whose formula cell lies in `range`, in file order:
    /// exactly what `clear_cells(range)` removes.
    pub cleared: Vec<Dependency>,
}

pub struct SheetInput {
    /// 0 = enron-like, 1 = github-like.
    pub corpus: usize,
    pub deps: Vec<Dependency>,
    /// Hot cells first, then the longest-path cell, then the head cells of
    /// seeded dependencies' precedent ranges.
    pub dependents_probes: Vec<Range>,
    pub hot_cells: usize,
    pub longest_path: Range,
    /// Seeded formula cells.
    pub precedents_probes: Vec<Range>,
    pub modify: Vec<ModifyOp>,
}

pub struct GraphInputs {
    pub sheets: Vec<SheetInput>,
    pub deps: u64,
}

/// The engine phases' script: what to load, then the edit loop.
pub struct EngineInputs {
    /// `gen_persist_workload`'s build script (its own burst is not used:
    /// see [`edit_burst`]).
    pub build: Vec<EditRecord>,
    pub burst: Vec<EditRecord>,
}

pub struct Inputs {
    pub graph: GraphInputs,
    pub engine: EngineInputs,
    pub serve: ServiceScript,
}

/// Whether an edit of the burst is a data-entry edit: a value typed into
/// the data column of a sheet the build script made. `control_us_p50` and
/// `edit_ms_p50` are medians over these.
pub fn is_data_entry(rec: &EditRecord, sheets: usize) -> bool {
    matches!(rec, EditRecord::SetValue { sheet, cell, .. } if (*sheet as usize) < sheets && cell.col == 1)
}

/// The edit loop's records, every WAL record kind in fixed proportion:
/// per 20 edits 12 data-entry values, 3 formula rewrites, 2 range clears,
/// 1 row/column insert or delete, and 1 late sheet with a value typed
/// into it. A data-entry edit recalculates everything below its row, so
/// its cost runs from nothing to a whole column; the generator's own
/// burst draws rows and kinds independently, and its median edit flips
/// between "nothing" and "a whole column" from seed to seed. Here rows
/// are stratified — data-entry edit `k` of `n` lands in the `k`-th of `n`
/// bands of rows, the seed picks the row inside the band — so every seed
/// sees the same spread of costs, while order, rows, values and sheets
/// still come from the seed.
fn edit_burst(rng: &mut Rng, sheets: usize, rows: u32, edits: usize) -> Vec<EditRecord> {
    let any_sheet = |rng: &mut Rng| rng.below(sheets) as u32;
    let any_row = |rng: &mut Rng| 1 + rng.below(rows as usize) as u32;
    let (values, rewrites, clears, structural) =
        (edits * 12 / 20, edits * 3 / 20, edits / 10, edits / 20);
    let late = edits.saturating_sub(values + rewrites + clears + structural) / 2;
    let mut burst: Vec<Vec<EditRecord>> = Vec::with_capacity(edits);
    for k in 0..values as u32 {
        let (lo, hi) = (k * rows / values as u32, (k + 1) * rows / values as u32);
        let cell = Cell::new(1, 1 + lo + rng.below((hi - lo).max(1) as usize) as u32);
        let value = Value::Number(rng.below(100_000) as f64 / 7.0 - 5_000.0);
        burst.push(vec![EditRecord::SetValue { sheet: k % sheets as u32, cell, value }]);
    }
    for _ in 0..rewrites {
        let row = any_row(rng);
        let src = format!("SUM(A1:A{row})*2");
        burst.push(vec![EditRecord::SetFormula {
            sheet: any_sheet(rng),
            cell: Cell::new(2, row),
            src,
        }]);
    }
    for _ in 0..clears {
        let row = any_row(rng).min(rows - 1);
        let range = Range::from_coords(2, row, 5, row + 1);
        burst.push(vec![EditRecord::ClearRange { sheet: any_sheet(rng), range }]);
    }
    for _ in 0..structural {
        let at = 1 + any_row(rng).min(rows - 1);
        let op = match rng.below(4) {
            0 => StructuralOp::InsertRows { at, n: 1 },
            1 => StructuralOp::DeleteRows { at, n: 1 },
            2 => StructuralOp::InsertCols { at: 2 + rng.below(5) as u32, n: 1 },
            _ => StructuralOp::DeleteCols { at: 5 + rng.below(2) as u32, n: 1 },
        };
        burst.push(vec![EditRecord::Structural { sheet: any_sheet(rng), op }]);
    }
    for k in 0..late {
        let typed = EditRecord::SetValue {
            sheet: 0,
            cell: Cell::new(1, 1),
            value: Value::Number(k as f64),
        };
        burst.push(vec![EditRecord::AddSheet { name: format!("late-{k}") }, typed]);
    }
    for i in (1..burst.len()).rev() {
        burst.swap(i, rng.below(i + 1));
    }
    // A late sheet gets the next free index when it is added, whatever
    // order the shuffle left: point its typed value at it.
    let mut burst: Vec<EditRecord> = burst.into_iter().flatten().collect();
    let mut next_sheet = sheets as u32;
    for i in 0..burst.len() {
        if matches!(burst[i], EditRecord::AddSheet { .. }) {
            if let EditRecord::SetValue { sheet, .. } = &mut burst[i + 1] {
                *sheet = next_sheet;
            }
            next_sheet += 1;
        }
    }
    burst
}

const CORPUS_NAMES: [&str; 2] = ["enron", "github"];

pub fn corpus_name(corpus: usize) -> &'static str {
    CORPUS_NAMES[corpus]
}

fn sheet_input(corpus: usize, sheet: SyntheticSheet, sizes: &Sizes, rng: &mut Rng) -> SheetInput {
    let SyntheticSheet { deps, hot_cells, longest_path_cell, .. } = sheet;
    // Probes cost from a fraction of a microsecond to milliseconds (the
    // top 1 % take two thirds of the time: cells that feed a long chain).
    // Drawn independently, their total swings by 15 % from seed to seed;
    // so every list is a systematic sample of the sheet's dependencies in
    // file order — every `len / n`-th one, from a seeded start — which
    // gives each region of the sheet its share whatever the seed.
    let mut every_nth = |n: usize| -> Vec<Dependency> {
        let start = rng.below(deps.len());
        (0..n).map(|k| deps[(start + k * deps.len() / n.max(1)) % deps.len()]).collect()
    };
    let mut dependents_probes: Vec<Range> = hot_cells.iter().map(|&c| Range::cell(c)).collect();
    let longest_path = Range::cell(longest_path_cell);
    dependents_probes.push(longest_path);
    dependents_probes
        .extend(every_nth(sizes.dependents_per_sheet).iter().map(|d| Range::cell(d.prec.head())));
    let precedents_probes =
        every_nth(sizes.precedents_per_sheet).iter().map(|d| Range::cell(d.dep)).collect();
    let mut modify: Vec<ModifyOp> = every_nth(sizes.modify_per_sheet)
        .iter()
        .map(|d| {
            let c = d.dep;
            let range = Range::from_coords(c.col, c.row, c.col, c.row + sizes.modify_rows - 1);
            ModifyOp { range, cleared: Vec::new() }
        })
        .collect();
    // One pass over the sheet hands every dependency to the ranges that
    // clear it (ranges are single-column, so index them by column).
    let mut by_col: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, op) in modify.iter().enumerate() {
        by_col.entry(op.range.head().col).or_default().push(i);
    }
    for d in &deps {
        for &i in by_col.get(&d.dep.col).map_or(&[][..], Vec::as_slice) {
            if modify[i].range.contains_cell(d.dep) {
                modify[i].cleared.push(*d);
            }
        }
    }
    SheetInput {
        corpus,
        deps,
        hot_cells: hot_cells.len(),
        dependents_probes,
        longest_path,
        precedents_probes,
        modify,
    }
}

impl Inputs {
    pub fn generate(seed: u64, sizes: &Sizes) -> Inputs {
        let mut seeds = Rng::new(seed);
        let mut sheets = Vec::new();
        // The two corpora are a frozen dataset, like the paper's Enron and
        // Github files: the presets keep their own seeds. Graph size and
        // compression ratio then repeat exactly from seed to seed (across
        // seeds `edges_per_kdep` moved by 8-10 %, against a bound of 1 %);
        // the seed picks what is asked of the graphs.
        for (corpus, params) in [enron_like(sizes.corpus_scale), github_like(sizes.corpus_scale)]
            .into_iter()
            .enumerate()
        {
            let mut rng = Rng::new(seeds.next());
            for sheet in params.generate().into_iter().take(sizes.corpus_sheets) {
                sheets.push(sheet_input(corpus, sheet, sizes, &mut rng));
            }
        }
        let deps = sheets.iter().map(|s| s.deps.len() as u64).sum();

        let build = gen_persist_workload(&PersistParams {
            rows: sizes.engine_rows,
            sheets: sizes.engine_sheets,
            burst_edits: 0,
            seed: seeds.next(),
            ..persist_github_like()
        })
        .build;
        let mut rng = Rng::new(seeds.next());
        let burst =
            edit_burst(&mut rng, sizes.engine_sheets, sizes.engine_rows, sizes.engine_burst);
        let engine = EngineInputs { build, burst };

        let preset = match sizes.serve_mix {
            Mix::ReaderHeavy => reader_heavy(),
            Mix::WriterHeavy => writer_heavy(),
            Mix::Mixed => mixed(),
        };
        let serve = gen_service_script(&ServiceScriptParams {
            rows: sizes.serve_rows,
            clients: CLIENTS,
            ops_per_client: sizes.serve_ops_per_client,
            seed: seeds.next(),
            ..preset
        });
        Inputs { graph: GraphInputs { sheets, deps }, engine, serve }
    }

    /// FNV-1a over every generated input, for the stamp and for the
    /// determinism test: equal digests mean byte-identical inputs.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        let range = |h: &mut Fnv, r: Range| {
            for v in [r.head().col, r.head().row, r.tail().col, r.tail().row] {
                h.bytes(&v.to_le_bytes());
            }
        };
        let dep = |h: &mut Fnv, d: &Dependency| {
            range(h, d.prec);
            range(h, Range::cell(d.dep));
            h.bytes(&[u8::from(d.cue.head_fixed), u8::from(d.cue.tail_fixed)]);
        };
        for s in &self.graph.sheets {
            s.deps.iter().for_each(|d| dep(&mut h, d));
            s.dependents_probes.iter().for_each(|&r| range(&mut h, r));
            s.precedents_probes.iter().for_each(|&r| range(&mut h, r));
            for op in &s.modify {
                range(&mut h, op.range);
                op.cleared.iter().for_each(|d| dep(&mut h, d));
            }
        }
        for rec in self.engine.build.iter().chain(&self.engine.burst).chain(&self.serve.setup) {
            h.bytes(&rec.encode());
        }
        for ops in &self.serve.clients {
            h.bytes(format!("{ops:?}").as_bytes());
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let sizes = Sizes::of("graph", true).unwrap();
        let a = Inputs::generate(11, &sizes);
        let b = Inputs::generate(11, &sizes);
        let c = Inputs::generate(12, &sizes);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        // The digest really covers each part: same seed, other sizes.
        let d = Inputs::generate(11, &Sizes { serve_ops_per_client: 301, ..sizes.clone() });
        assert_ne!(a.digest(), d.digest());
        assert_eq!(a.serve.clients.len(), CLIENTS);
    }

    #[test]
    fn modify_ops_hold_exactly_what_their_range_clears() {
        let sizes = Sizes::of("graph", true).unwrap();
        let inputs = Inputs::generate(3, &sizes);
        for sheet in &inputs.graph.sheets {
            assert_eq!(sheet.modify.len(), sizes.modify_per_sheet);
            for op in &sheet.modify {
                let want: Vec<&Dependency> =
                    sheet.deps.iter().filter(|d| op.range.contains_cell(d.dep)).collect();
                assert!(!want.is_empty(), "a modify range starts on a formula cell");
                assert_eq!(op.cleared.iter().collect::<Vec<_>>(), want);
            }
            assert_eq!(
                sheet.dependents_probes.len(),
                sheet.hot_cells + 1 + sizes.dependents_per_sheet
            );
            assert_eq!(sheet.dependents_probes[sheet.hot_cells], sheet.longest_path);
        }
    }
}
