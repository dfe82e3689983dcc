//! The service workload: deterministic multi-client scripts for the
//! `taco_service` layer, replayable both in-process and over TCP.
//!
//! A script is a **setup** edit list (builds the workbook every client
//! shares) plus one operation list **per client**. The generator's key
//! property is *commutativity across clients*: each client only ever
//! writes cells inside its own column pair, so any interleaving of the
//! per-client streams produces, after quiesce, the same final cell state
//! as running the concatenated script serially — which is exactly what
//! the service's concurrent property test asserts. Reads and
//! dependents/precedents probes range over the whole sheet (including
//! other clients' columns and the shared data column), and formulas
//! deliberately reference *other* clients' columns, so the commuting
//! writes still produce cross-client dataflow.
//!
//! Cell targets are **zipf-skewed** ([`zipf_row`]): row 1 is the hottest,
//! matching the contention profile of a shared dashboard sheet where
//! most traffic hits the header region. The three presets differ in
//! read/write mix: [`reader_heavy`] (~95% reads), [`writer_heavy`]
//! (~25% reads), and [`mixed`] (~70% reads).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use taco_formula::Value;
use taco_grid::a1::col_to_letters;
use taco_grid::{Cell, Range};
use taco_store::EditRecord;

/// Parameters for one service script.
#[derive(Debug, Clone)]
pub struct ServiceScriptParams {
    /// Preset label.
    pub name: &'static str,
    /// Concurrent clients the script is split across.
    pub clients: usize,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Data rows in the shared sheet.
    pub rows: u32,
    /// Reads per 1000 operations (the rest are writes).
    pub read_permille: u32,
    /// Zipf exponent ×100 for row targeting (e.g. 110 ⇒ s = 1.10;
    /// 0 = uniform).
    pub zipf_s_centi: u32,
    /// RNG seed.
    pub seed: u64,
}

/// ~95% reads: the dashboard-viewer crowd.
pub fn reader_heavy() -> ServiceScriptParams {
    ServiceScriptParams {
        name: "reader-heavy",
        clients: 4,
        ops_per_client: 200,
        rows: 64,
        read_permille: 950,
        zipf_s_centi: 110,
        seed: 0x5E71,
    }
}

/// ~25% reads: bulk data entry.
pub fn writer_heavy() -> ServiceScriptParams {
    ServiceScriptParams {
        name: "writer-heavy",
        clients: 4,
        ops_per_client: 200,
        rows: 64,
        read_permille: 250,
        zipf_s_centi: 110,
        seed: 0x3B1E,
    }
}

/// ~70% reads: a live sheet being edited while watched.
pub fn mixed() -> ServiceScriptParams {
    ServiceScriptParams {
        name: "mixed",
        clients: 4,
        ops_per_client: 200,
        rows: 64,
        read_permille: 700,
        zipf_s_centi: 110,
        seed: 0x717D,
    }
}

/// One client operation. Writes stay inside the issuing client's own
/// column pair; reads and probes range anywhere.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOp {
    /// Read one cell.
    Get {
        /// The cell to read.
        cell: Cell,
    },
    /// Read the non-empty cells of a range.
    GetRange {
        /// The range to read.
        range: Range,
    },
    /// Transitive dependents probe.
    Dependents {
        /// The probe range.
        range: Range,
    },
    /// Transitive precedents probe.
    Precedents {
        /// The probe range.
        range: Range,
    },
    /// Read the dirty count.
    DirtyCount,
    /// Set a pure value (own columns only).
    SetValue {
        /// Target cell.
        cell: Cell,
        /// The value.
        value: f64,
    },
    /// Set a formula (own columns only).
    SetFormula {
        /// Target cell.
        cell: Cell,
        /// Formula source text.
        src: String,
    },
    /// Clear a small range (own columns only).
    ClearRange {
        /// The cleared range.
        range: Range,
    },
    /// Force a recalculation (also a write barrier).
    Recalc,
}

impl ClientOp {
    /// Whether the op mutates the workbook.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            ClientOp::SetValue { .. }
                | ClientOp::SetFormula { .. }
                | ClientOp::ClearRange { .. }
                | ClientOp::Recalc
        )
    }
}

/// A generated script: shared setup plus per-client op streams. All
/// operations target sheet 0 (named in [`ServiceScript::sheet`]).
#[derive(Debug, Clone)]
pub struct ServiceScript {
    /// Preset label.
    pub name: &'static str,
    /// The sheet every op targets.
    pub sheet: String,
    /// Edits that build the shared workbook (apply before serving).
    pub setup: Vec<EditRecord>,
    /// One op stream per client.
    pub clients: Vec<Vec<ClientOp>>,
}

impl ServiceScript {
    /// The client write ops flattened to [`EditRecord`]s in client order —
    /// the serial reference script for the equivalence test. `Recalc` ops
    /// contribute nothing (recalculation is derived state).
    pub fn serial_writes(&self) -> Vec<EditRecord> {
        let mut out = Vec::new();
        for ops in &self.clients {
            for op in ops {
                match op {
                    ClientOp::SetValue { cell, value } => out.push(EditRecord::SetValue {
                        sheet: 0,
                        cell: *cell,
                        value: Value::Number(*value),
                    }),
                    ClientOp::SetFormula { cell, src } => {
                        out.push(EditRecord::SetFormula { sheet: 0, cell: *cell, src: src.clone() })
                    }
                    ClientOp::ClearRange { range } => {
                        out.push(EditRecord::ClearRange { sheet: 0, range: *range })
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

/// Zipf-skewed row draw over `1..=rows` with exponent `s_centi / 100`
/// (integer CDF; `s_centi == 0` degrades to uniform). Row 1 is hottest.
pub fn zipf_row(rng: &mut StdRng, rows: u32, s_centi: u32) -> u32 {
    if s_centi == 0 || rows <= 1 {
        return rng.gen_range(1..=rows.max(1));
    }
    // Integer weights ∝ 1/k^s, scaled so the head has weight 1e6.
    let s = f64::from(s_centi) / 100.0;
    let weights: Vec<u64> =
        (1..=rows).map(|k| (1e6 / f64::from(k).powf(s)).max(1.0) as u64).collect();
    let total: u64 = weights.iter().sum();
    let mut draw = rng.gen_range(0..total);
    for (k, w) in weights.iter().enumerate() {
        if draw < *w {
            return k as u32 + 1;
        }
        draw -= w;
    }
    rows
}

/// First of the two columns client `k` owns (value column; the formula
/// column is the next one). Columns 1..=3 are shared setup state.
pub fn client_value_col(k: usize) -> u32 {
    4 + 2 * k as u32
}

/// Generates the script deterministically from its parameters.
pub fn gen_service_script(p: &ServiceScriptParams) -> ServiceScript {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let sheet = "Main".to_string();

    // Setup: the shared sheet. Column A = data, column B = sliding
    // windows, column C = cumulative totals (the TACO patterns, so the
    // dependents probes traverse a compressed graph).
    let mut setup = vec![EditRecord::AddSheet { name: sheet.clone() }];
    for row in 1..=p.rows {
        setup.push(EditRecord::SetValue {
            sheet: 0,
            cell: Cell::new(1, row),
            value: Value::Number(rng.gen_range(-500..500) as f64 / 10.0),
        });
        if row + 2 <= p.rows {
            setup.push(EditRecord::SetFormula {
                sheet: 0,
                cell: Cell::new(2, row),
                src: format!("SUM(A{row}:A{})", row + 2),
            });
        }
        setup.push(EditRecord::SetFormula {
            sheet: 0,
            cell: Cell::new(3, row),
            src: format!("SUM($A$1:A{row})"),
        });
    }

    // Per-client op streams. Writes stay in the client's own columns;
    // formulas read the shared columns and *other* clients' value
    // columns, so interleavings commute but dataflow crosses clients.
    let max_col = client_value_col(p.clients.saturating_sub(1)) + 1;
    let clients = (0..p.clients)
        .map(|k| {
            let vcol = client_value_col(k);
            let fcol = vcol + 1;
            let mut ops = Vec::with_capacity(p.ops_per_client);
            for _ in 0..p.ops_per_client {
                let row = zipf_row(&mut rng, p.rows, p.zipf_s_centi);
                if rng.gen_range(0..1000u32) < p.read_permille {
                    ops.push(match rng.gen_range(0..10u32) {
                        0..=4 => ClientOp::Get { cell: Cell::new(rng.gen_range(1..=max_col), row) },
                        5..=6 => ClientOp::GetRange {
                            range: Range::from_coords(1, row, max_col, (row + 4).min(p.rows)),
                        },
                        7 => ClientOp::Dependents { range: Range::cell(Cell::new(1, row)) },
                        8 => ClientOp::Precedents { range: Range::cell(Cell::new(3, row)) },
                        _ => ClientOp::DirtyCount,
                    });
                } else {
                    ops.push(match rng.gen_range(0..10u32) {
                        0..=5 => ClientOp::SetValue {
                            cell: Cell::new(vcol, row),
                            value: rng.gen_range(-5000..5000) as f64 / 7.0,
                        },
                        6..=7 => {
                            // Reference the shared data, own value column,
                            // and a peer's value column.
                            let peer = client_value_col(rng.gen_range(0..p.clients));
                            ClientOp::SetFormula {
                                cell: Cell::new(fcol, row),
                                src: format!(
                                    "SUM($A$1:A{row})+{vc}{row}+{pc}{prow}",
                                    vc = col_to_letters(vcol),
                                    pc = col_to_letters(peer),
                                    prow = zipf_row(&mut rng, p.rows, p.zipf_s_centi),
                                ),
                            }
                        }
                        8 => ClientOp::ClearRange {
                            range: Range::from_coords(vcol, row, fcol, (row + 1).min(p.rows)),
                        },
                        _ => ClientOp::Recalc,
                    });
                }
            }
            ops
        })
        .collect();

    ServiceScript { name: p.name, sheet, setup, clients }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scripts_are_deterministic() {
        let a = gen_service_script(&mixed());
        let b = gen_service_script(&mixed());
        assert_eq!(a.setup, b.setup);
        assert_eq!(a.clients, b.clients);
        let c = gen_service_script(&ServiceScriptParams { seed: 9, ..mixed() });
        assert_ne!(a.clients, c.clients);
    }

    #[test]
    fn writes_stay_in_own_columns() {
        for p in [reader_heavy(), writer_heavy(), mixed()] {
            let script = gen_service_script(&p);
            for (k, ops) in script.clients.iter().enumerate() {
                let vcol = client_value_col(k);
                for op in ops {
                    let cols: Vec<u32> = match op {
                        ClientOp::SetValue { cell, .. } => vec![cell.col],
                        ClientOp::SetFormula { cell, .. } => vec![cell.col],
                        ClientOp::ClearRange { range } => {
                            (range.head().col..=range.tail().col).collect()
                        }
                        _ => vec![],
                    };
                    for col in cols {
                        assert!(
                            col == vcol || col == vcol + 1,
                            "client {k} writes column {col}, owns {vcol}/{}",
                            vcol + 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn presets_match_their_read_mix() {
        for (p, lo, hi) in
            [(reader_heavy(), 900, 1000), (writer_heavy(), 150, 350), (mixed(), 600, 800)]
        {
            let script = gen_service_script(&p);
            let (mut reads, mut total) = (0u32, 0u32);
            for ops in &script.clients {
                for op in ops {
                    total += 1;
                    if !op.is_write() {
                        reads += 1;
                    }
                }
            }
            let permille = reads * 1000 / total;
            assert!(
                (lo..hi).contains(&permille),
                "{}: observed {permille}‰ reads, expected in {lo}..{hi}",
                p.name
            );
        }
    }

    #[test]
    fn zipf_rows_skew_toward_the_head() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0u32;
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let row = zipf_row(&mut rng, 64, 110);
            assert!((1..=64).contains(&row));
            seen.insert(row);
            if row <= 8 {
                head += 1;
            }
        }
        // With s=1.1 over 64 rows, the first 8 rows carry well over a
        // third of the mass; uniform would give 12.5%.
        assert!(head > 2000 / 3, "zipf head mass too small: {head}/2000");
        assert!(seen.len() > 20, "tail must still be sampled: {} distinct rows", seen.len());
    }

    #[test]
    fn serial_write_script_applies_cleanly() {
        use taco_engine::{RecalcMode, Workbook};
        let script = gen_service_script(&writer_heavy());
        let mut wb = Workbook::with_taco();
        for rec in script.setup.iter().chain(&script.serial_writes()) {
            wb.apply_edit(rec).expect("script record applies");
        }
        wb.recalculate(RecalcMode::Serial);
        assert_eq!(wb.dirty_count(), 0);
    }
}
