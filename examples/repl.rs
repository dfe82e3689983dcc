//! A tiny interactive spreadsheet shell over the TACO-backed engine —
//! handy for poking at compression behaviour by hand.
//!
//! ```sh
//! cargo run --release --example repl
//! ```
//!
//! Commands (one per line; also accepts a script on stdin):
//!
//! ```text
//! A1 = 42                 set a value
//! B1 = =SUM(A1:A10)       set a formula
//! fill B1 B2:B50          autofill from a source cell
//! show B5                 print a cell's value (and formula)
//! trace B5                dependents + precedents of a cell
//! clear A1:B10            clear a range
//! insrows 5 2 / delrows 5 2 / inscols 2 1 / delcols 2 1
//! stats                   graph size, formulas per template, per-pattern compression
//! edges                   list compressed edges
//! :save /path/to/file     persist the workbook (compressed graph included)
//! :open /path/to/file     replace the workbook with a saved one
//! :connect ADDR BOOK [AUTH]  attach to a taco_service server over TCP
//! :metrics                (remote) print the server's Prometheus metrics
//! :trace                  (remote) print the server's span rings as trees
//! :disconnect             detach and return to the local sheet
//! quit
//! ```
//!
//! The local sheet is the first sheet of a one-sheet workbook. While
//! connected, edits, `show`, `trace`, `clear`, `fill`, and `stats` run
//! against the remote workbook's first visible sheet instead, and `:metrics`/`:trace` fetch the server's
//! observability snapshot and span trees over the wire.

use std::io::{self, BufRead, Write};
use taco_repro::core::PatternType;
use taco_repro::engine::{RecalcMode, SheetId, Workbook, WorkbookReceipt};
use taco_repro::formula::Value;
use taco_repro::grid::{Cell, Range};
use taco_repro::service::TcpClient;

/// A live `:connect` session: the client plus the sheet it operates on.
struct Remote {
    client: TcpClient,
    sheet: String,
}

/// The local sheet: the first of the local workbook.
const S: SheetId = SheetId(0);

fn main() {
    let mut wb = Workbook::new();
    wb.add_sheet("Sheet1").expect("a valid sheet name");
    let mut remote: Option<Remote> = None;
    let stdin = io::stdin();
    let interactive = atty();
    if interactive {
        println!("taco repl — type `help` for commands");
    }
    let mut line = String::new();
    loop {
        if interactive {
            print!("> ");
            let _ = io::stdout().flush();
        }
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let input = line.trim();
        if input.is_empty() || input.starts_with('#') {
            continue;
        }
        let result = match connection_command(&mut remote, input) {
            Some(r) => r,
            None => match &mut remote {
                Some(r) => run_remote(r, input),
                None => run_command(&mut wb, input),
            },
        };
        match result {
            Ok(true) => break,
            Ok(false) => {}
            Err(msg) => println!("error: {msg}"),
        }
    }
}

/// Handles `:connect` / `:disconnect` regardless of mode. `None` = the
/// input is not a connection command.
fn connection_command(remote: &mut Option<Remote>, input: &str) -> Option<Result<bool, String>> {
    if let Some(rest) = input.strip_prefix(":connect ") {
        let mut parts = rest.split_whitespace();
        let (Some(addr), Some(book)) = (parts.next(), parts.next()) else {
            return Some(Err(":connect ADDR BOOK [AUTH]".to_string()));
        };
        let auth = parts.next();
        let attach = || -> Result<Remote, String> {
            let mut client = TcpClient::connect(addr).map_err(|e| e.to_string())?;
            let sheets = client.open(book, auth, None).map_err(|e| e.to_string())?;
            let sheet = sheets.first().cloned().ok_or("workbook has no visible sheets")?;
            println!("connected to {addr}, workbook {book}, sheet {sheet}");
            Ok(Remote { client, sheet })
        };
        return Some(attach().map(|r| {
            *remote = Some(r);
            false
        }));
    }
    if input == ":disconnect" {
        match remote.take() {
            Some(mut r) => {
                let _ = r.client.close();
                println!("disconnected");
            }
            None => println!("not connected"),
        }
        return Some(Ok(false));
    }
    None
}

/// The remote command subset: edits, reads, traces, and stats against
/// the connected workbook (the service recalculates after every edit,
/// mirroring the local repl's behaviour).
fn run_remote(r: &mut Remote, input: &str) -> Result<bool, String> {
    if input == "quit" || input == "exit" {
        let _ = r.client.close();
        return Ok(true);
    }
    if input == "help" {
        println!("remote ({}): A1 = 42 | B1 = =SUM(A1:A3) | fill SRC RANGE | show CELL", r.sheet);
        println!("trace CELL | clear RANGE | stats | :metrics | :trace | :disconnect | quit");
        return Ok(false);
    }
    if input == ":metrics" {
        let snap = r.client.metrics().map_err(|e| e.to_string())?;
        print!("{}", snap.to_prometheus());
        return Ok(false);
    }
    if input == ":trace" {
        let dump = r.client.trace_dump().map_err(|e| e.to_string())?;
        print_trace(&dump);
        return Ok(false);
    }
    let sheet = r.sheet.clone();
    if input == "stats" {
        let s = r.client.stats().map_err(|e| e.to_string())?;
        println!(
            "remote stats: epoch={} sheets={} cells={} dirty={} edits={} batches={} \
             recalcs={} coalesced={} sessions={}{}",
            s.epoch,
            s.sheets,
            s.cells,
            s.dirty,
            s.edits,
            s.batches,
            s.recalcs,
            s.coalesced,
            s.sessions,
            if s.degraded != 0 { " DEGRADED (read-only until Save)" } else { "" }
        );
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("show ") {
        let cell = Cell::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        let value = r.client.get(&sheet, cell).map_err(|e| e.to_string())?;
        println!("{cell} = {value}");
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("trace ") {
        let cell = Cell::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        let deps = r.client.dependents(&sheet, Range::cell(cell)).map_err(|e| e.to_string())?;
        let precs = r.client.precedents(&sheet, Range::cell(cell)).map_err(|e| e.to_string())?;
        println!("dependents: {}", join_qualified(&deps));
        println!("precedents: {}", join_qualified(&precs));
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("clear ") {
        let range = Range::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        r.client.clear_range(&sheet, range).map_err(|e| e.to_string())?;
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("fill ") {
        let mut parts = rest.split_whitespace();
        let src = parts.next().ok_or("fill SRC RANGE")?;
        let targets = parts.next().ok_or("fill SRC RANGE")?;
        let src = Cell::parse_a1(src).map_err(|e| e.to_string())?;
        let targets = Range::parse_a1(targets).map_err(|e| e.to_string())?;
        r.client.autofill(&sheet, src, targets).map_err(|e| e.to_string())?;
        return Ok(false);
    }
    if let Some((lhs, rhs)) = input.split_once('=') {
        let cell = Cell::parse_a1(lhs.trim()).map_err(|e| e.to_string())?;
        let rhs = rhs.trim();
        if let Some(formula) = rhs.strip_prefix('=') {
            r.client.set_formula(&sheet, cell, formula).map_err(|e| e.to_string())?;
        } else if let Ok(n) = rhs.parse::<f64>() {
            r.client.set_value(&sheet, cell, Value::Number(n)).map_err(|e| e.to_string())?;
        } else {
            r.client
                .set_value(&sheet, cell, Value::Text(rhs.to_string()))
                .map_err(|e| e.to_string())?;
        }
        return Ok(false);
    }
    Err(format!("unknown remote command {input:?} (try `help` or `:disconnect`)"))
}

/// Reassembles the dump's flat span rings into trees and prints them
/// indented, one root per traced request (spans whose parent is outside
/// the rings — e.g. the client's own span id — count as roots too).
fn print_trace(dump: &taco_repro::obs::TraceDump) {
    let mut spans: Vec<&taco_repro::obs::SlowSpan> = dump.recent.iter().collect();
    for s in &dump.slow {
        if !spans.iter().any(|r| r.span_id == s.span_id) {
            spans.push(s);
        }
    }
    if spans.is_empty() {
        println!("(no spans recorded)");
        return;
    }
    fn print_subtree(spans: &[&taco_repro::obs::SlowSpan], parent: u64, depth: usize) {
        for s in spans.iter().filter(|s| s.parent_id == parent) {
            println!(
                "{:indent$}{} [{:?}] {:.1} µs  a={} b={}",
                "",
                s.name,
                s.cat,
                s.dur_ns as f64 / 1_000.0,
                s.a,
                s.b,
                indent = depth * 2
            );
            print_subtree(spans, s.span_id, depth + 1);
        }
    }
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut seen_roots: Vec<u64> = Vec::new();
    for s in &spans {
        if !known.contains(&s.parent_id) && !seen_roots.contains(&s.parent_id) {
            seen_roots.push(s.parent_id);
        }
    }
    println!("{} spans, {} tree(s):", spans.len(), seen_roots.len());
    for root in seen_roots {
        print_subtree(&spans, root, 0);
    }
    if !dump.slow.is_empty() {
        println!("({} span(s) retained in the slow log)", dump.slow.len());
    }
}

fn join_qualified(ranges: &[(String, Range)]) -> String {
    if ranges.is_empty() {
        return "(none)".to_string();
    }
    let mut parts: Vec<String> =
        ranges.iter().map(|(sheet, r)| format!("{sheet}!{}", r.to_a1())).collect();
    parts.sort();
    parts.join(", ")
}

fn atty() -> bool {
    // Keep the example dependency-free: assume non-interactive when stdin
    // is piped (scripts print no prompts because output order matters).
    std::env::var("TACO_REPL_PROMPT").is_ok()
}

fn run_command(wb: &mut Workbook, input: &str) -> Result<bool, String> {
    if input == "quit" || input == "exit" {
        return Ok(true);
    }
    if input == "help" {
        println!("A1 = 42 | B1 = =SUM(A1:A3) | fill SRC RANGE | show CELL | trace CELL");
        println!("clear RANGE | insrows AT N | delrows AT N | inscols AT N | delcols AT N");
        println!("stats | edges | :save PATH | :open PATH | :connect ADDR BOOK [AUTH] | quit");
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix(":save ") {
        let path = std::path::Path::new(rest.trim());
        wb.save(path).map_err(|e| e.to_string())?;
        println!("saved {} cells to {}", wb.sheet(S).len(), path.display());
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix(":open ") {
        let path = std::path::Path::new(rest.trim());
        let opened = Workbook::open(path).map_err(|e| e.to_string())?;
        if opened.sheet_count() == 0 {
            return Err(format!("{} holds no sheet", path.display()));
        }
        *wb = opened;
        wb.recalculate(RecalcMode::Serial);
        println!("opened {} cells from {}", wb.sheet(S).len(), path.display());
        return Ok(false);
    }
    if input == "stats" {
        let s = wb.sheet(S).graph().stats();
        println!(
            "edges={} vertices={} dependencies={} remaining={:.2}%",
            s.edges,
            s.vertices,
            s.dependencies,
            100.0 * s.remaining_fraction()
        );
        // A column typed or filled alike collapses into one template.
        println!(
            "formula_cells={} templates={}",
            wb.sheet(S).formula_cells(),
            wb.sheet(S).formula_templates()
        );
        for p in [
            PatternType::RR,
            PatternType::RF,
            PatternType::FR,
            PatternType::FF,
            PatternType::RRChain,
        ] {
            let n = s.reduced.get(p);
            if n > 0 {
                println!("  {p:?}: {n} edges reduced");
            }
        }
        return Ok(false);
    }
    if input == "edges" {
        for e in wb.sheet(S).graph().edges() {
            println!("  {:?}: {} -> {} (count {})", e.pattern(), e.prec, e.dep, e.count);
        }
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("show ") {
        let cell = Cell::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        match wb.formula_of(S, cell) {
            Some(f) => println!("{cell} = ={f} → {}", wb.value(S, cell)),
            None => println!("{cell} = {}", wb.value(S, cell)),
        }
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("trace ") {
        let cell = Cell::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        let deps = wb.find_dependents(S, Range::cell(cell));
        let precs = wb.find_precedents(S, Range::cell(cell));
        println!("dependents: {}", join(&deps));
        println!("precedents: {}", join(&precs));
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("clear ") {
        let range = Range::parse_a1(rest.trim()).map_err(|e| e.to_string())?;
        wb.clear_range(S, range);
        wb.recalculate(RecalcMode::Serial);
        return Ok(false);
    }
    if let Some(rest) = input.strip_prefix("fill ") {
        let mut parts = rest.split_whitespace();
        let src = parts.next().ok_or("fill SRC RANGE")?;
        let targets = parts.next().ok_or("fill SRC RANGE")?;
        let src = Cell::parse_a1(src).map_err(|e| e.to_string())?;
        let targets = Range::parse_a1(targets).map_err(|e| e.to_string())?;
        wb.autofill(S, src, targets).map_err(|e| e.to_string())?;
        wb.recalculate(RecalcMode::Serial);
        return Ok(false);
    }
    type StructuralFn = fn(&mut Workbook, SheetId, u32, u32) -> WorkbookReceipt;
    for (cmd, f) in [
        ("insrows", Workbook::insert_rows as StructuralFn),
        ("delrows", Workbook::delete_rows),
        ("inscols", Workbook::insert_cols),
        ("delcols", Workbook::delete_cols),
    ] {
        if let Some(rest) = input.strip_prefix(cmd) {
            let nums: Vec<u32> = rest
                .split_whitespace()
                .map(|s| s.parse().map_err(|_| format!("{cmd} AT N")))
                .collect::<Result<_, _>>()?;
            if nums.len() != 2 {
                return Err(format!("{cmd} AT N"));
            }
            let receipt = f(wb, S, nums[0], nums[1]);
            if !receipt.dirty.is_empty() {
                println!("  {} dirty range(s) routed", receipt.dirty.len());
            }
            wb.recalculate(RecalcMode::Serial);
            return Ok(false);
        }
    }
    // Assignment: `CELL = value-or-formula`.
    if let Some((lhs, rhs)) = input.split_once('=') {
        let cell = Cell::parse_a1(lhs.trim()).map_err(|e| e.to_string())?;
        let rhs = rhs.trim();
        if let Some(formula) = rhs.strip_prefix('=') {
            wb.set_formula(S, cell, formula).map_err(|e| e.to_string())?;
        } else if let Ok(n) = rhs.parse::<f64>() {
            wb.set_value(S, cell, Value::Number(n));
        } else {
            wb.set_value(S, cell, Value::Text(rhs.to_string()));
        }
        wb.recalculate(RecalcMode::Serial);
        return Ok(false);
    }
    Err(format!("unknown command {input:?} (try `help`)"))
}

fn join(ranges: &[(SheetId, Range)]) -> String {
    if ranges.is_empty() {
        return "(none)".to_string();
    }
    let mut parts: Vec<String> = ranges.iter().map(|(_, r)| r.to_a1()).collect();
    parts.sort();
    parts.join(", ")
}
