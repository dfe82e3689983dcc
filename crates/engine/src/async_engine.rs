//! The asynchronous execution model that motivates TACO (§I, §VI-A).
//!
//! DataSpread returns control to the user as soon as the dependents of an
//! edit are identified and hidden; evaluation happens in the background.
//! Finding dependents is therefore the latency-critical step — exactly
//! what TACO accelerates.
//!
//! [`AsyncEngine`] reproduces that model: edits are enqueued to a worker
//! thread that owns the [`Engine`]. For every edit the worker first marks
//! the dependents *dirty* in a shared snapshot (the "hidden cells" the UI
//! would gray out), and only then recalculates and publishes fresh values.
//! Readers never block on recalculation: they see either the old value or
//! the new one, and can ask whether a cell is currently dirty.

use crate::engine::Engine;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use taco_formula::Value;
use taco_grid::{Cell, Range};

/// Commands accepted by the worker.
enum Cmd {
    SetValue(Cell, Value),
    SetFormula(Cell, String),
    Autofill(Cell, Range),
    Clear(Range),
    /// Reply when every prior command has been fully processed.
    Barrier(Sender<()>),
    Shutdown,
}

/// State shared between the worker and readers.
#[derive(Default)]
struct Shared {
    values: RwLock<HashMap<Cell, Value>>,
    dirty: RwLock<HashSet<Cell>>,
    recalcs: AtomicU64,
}

/// A spreadsheet whose recalculation runs on a background thread.
pub struct AsyncEngine {
    tx: Sender<Cmd>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl AsyncEngine {
    /// Spawns the worker with a TACO-compressed formula graph.
    pub fn spawn() -> Self {
        Self::spawn_with(Engine::with_taco())
    }

    /// Spawns the worker around an existing engine.
    pub fn spawn_with(engine: Engine) -> Self {
        let (tx, rx) = channel::<Cmd>();
        let shared = Arc::new(Shared::default());
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("taco-recalc".into())
            .spawn(move || worker(engine, rx, worker_shared))
            .expect("spawn recalculation worker");
        AsyncEngine { tx, shared, handle: Some(handle) }
    }

    /// Enqueues a value edit; returns immediately.
    pub fn set_value(&self, cell: Cell, v: Value) {
        let _ = self.tx.send(Cmd::SetValue(cell, v));
    }

    /// Enqueues a formula edit; parse errors surface as `#NAME?`-style
    /// errors when the worker processes the command.
    pub fn set_formula(&self, cell: Cell, src: &str) {
        let _ = self.tx.send(Cmd::SetFormula(cell, src.to_string()));
    }

    /// Enqueues an autofill.
    pub fn autofill(&self, src: Cell, targets: Range) {
        let _ = self.tx.send(Cmd::Autofill(src, targets));
    }

    /// Enqueues a range clear.
    pub fn clear(&self, range: Range) {
        let _ = self.tx.send(Cmd::Clear(range));
    }

    /// The last published value of a cell (never blocks on recalc).
    pub fn value(&self, cell: Cell) -> Value {
        self.shared.values.read().get(&cell).cloned().unwrap_or(Value::Empty)
    }

    /// `true` while the cell is awaiting background recalculation — the
    /// "hidden" state the UI would render.
    pub fn is_dirty(&self, cell: Cell) -> bool {
        self.shared.dirty.read().contains(&cell)
    }

    /// Number of cells currently hidden.
    pub fn dirty_count(&self) -> usize {
        self.shared.dirty.read().len()
    }

    /// Number of background recalculation rounds completed.
    pub fn recalc_rounds(&self) -> u64 {
        self.shared.recalcs.load(Ordering::Acquire)
    }

    /// Blocks until every previously enqueued edit has been applied *and*
    /// recalculated.
    pub fn sync(&self) {
        let (tx, rx) = channel();
        if self.tx.send(Cmd::Barrier(tx)).is_ok() {
            let _ = rx.recv();
        }
    }
}

impl Drop for AsyncEngine {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn worker(mut engine: Engine, rx: Receiver<Cmd>, shared: Arc<Shared>) {
    while let Ok(first) = rx.recv() {
        // Batch: drain whatever queued up while we were recalculating.
        let mut batch = vec![first];
        while let Ok(more) = rx.try_recv() {
            batch.push(more);
        }
        let mut barriers = Vec::new();
        let mut shutdown = false;
        for cmd in batch {
            match cmd {
                Cmd::SetValue(cell, v) => {
                    let receipt = engine.set_value(cell, v.clone());
                    publish_edit(&shared, &engine, cell, Some(v), &receipt.dirty);
                }
                Cmd::SetFormula(cell, src) => match engine.set_formula(cell, &src) {
                    Ok(receipt) => {
                        mark_dirty(&shared, &engine, std::iter::once(cell), &receipt.dirty);
                    }
                    Err(_) => {
                        shared
                            .values
                            .write()
                            .insert(cell, Value::Error(taco_formula::CellError::Name));
                    }
                },
                Cmd::Autofill(src, targets) => {
                    if let Ok(receipt) = engine.autofill(src, targets) {
                        mark_dirty(&shared, &engine, targets.cells(), &receipt.dirty);
                    }
                }
                Cmd::Clear(range) => {
                    let receipt = engine.clear_range(range);
                    {
                        let mut values = shared.values.write();
                        for c in range.cells() {
                            values.remove(&c);
                        }
                    }
                    mark_dirty(&shared, &engine, std::iter::empty(), &receipt.dirty);
                }
                Cmd::Barrier(done) => barriers.push(done),
                Cmd::Shutdown => shutdown = true,
            }
        }

        // Control has conceptually returned to the user here (dependents
        // are marked); now do the slow part.
        engine.recalculate();
        publish_all_dirty(&shared, &engine);
        shared.recalcs.fetch_add(1, Ordering::Release);

        for b in barriers {
            let _ = b.send(());
        }
        if shutdown {
            return;
        }
    }
}

/// Marks the receipt's formula cells dirty in the shared snapshot.
fn mark_dirty(
    shared: &Shared,
    engine: &Engine,
    also: impl Iterator<Item = Cell>,
    dirty_ranges: &[Range],
) {
    let mut dirty = shared.dirty.write();
    dirty.extend(also);
    for r in dirty_ranges {
        // Bound the walk: only cells that exist as formulas matter.
        if r.area() <= 100_000 {
            for c in r.cells() {
                if engine.formula_of(c).is_some() {
                    dirty.insert(c);
                }
            }
        }
    }
}

fn publish_edit(
    shared: &Shared,
    engine: &Engine,
    cell: Cell,
    value: Option<Value>,
    dirty_ranges: &[Range],
) {
    if let Some(v) = value {
        shared.values.write().insert(cell, v);
    }
    mark_dirty(shared, engine, std::iter::empty(), dirty_ranges);
}

/// Publishes all recalculated values and clears the hidden set.
fn publish_all_dirty(shared: &Shared, engine: &Engine) {
    let mut dirty = shared.dirty.write();
    let mut values = shared.values.write();
    for &c in dirty.iter() {
        values.insert(c, engine.value(c));
    }
    dirty.clear();
}

impl AsyncEngine {
    /// Test/diagnostic helper: snapshot of all published values.
    pub fn snapshot(&self) -> HashMap<Cell, Value> {
        self.shared.values.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: &str) -> Cell {
        Cell::parse_a1(s).unwrap()
    }

    fn n(v: f64) -> Value {
        Value::Number(v)
    }

    #[test]
    fn values_eventually_consistent() {
        let eng = AsyncEngine::spawn();
        eng.set_value(c("A1"), n(2.0));
        eng.set_value(c("A2"), n(3.0));
        eng.set_formula(c("B1"), "=A1+A2");
        eng.sync();
        assert_eq!(eng.value(c("B1")), n(5.0));
        assert_eq!(eng.dirty_count(), 0);
    }

    #[test]
    fn autofill_and_update_through_worker() {
        let eng = AsyncEngine::spawn();
        for row in 1..=100u32 {
            eng.set_value(Cell::new(1, row), n(1.0));
        }
        eng.set_formula(c("B1"), "=SUM($A$1:A1)");
        eng.autofill(c("B1"), Range::from_coords(2, 2, 2, 100));
        eng.sync();
        assert_eq!(eng.value(Cell::new(2, 100)), n(100.0));

        eng.set_value(c("A1"), n(51.0));
        eng.sync();
        assert_eq!(eng.value(Cell::new(2, 100)), n(150.0));
        assert!(eng.recalc_rounds() >= 2);
    }

    #[test]
    fn clear_removes_published_values() {
        let eng = AsyncEngine::spawn();
        eng.set_value(c("A1"), n(9.0));
        eng.set_formula(c("B1"), "=A1");
        eng.sync();
        eng.clear(Range::parse_a1("A1:B1").unwrap());
        eng.sync();
        assert_eq!(eng.value(c("A1")), Value::Empty);
        assert_eq!(eng.value(c("B1")), Value::Empty);
    }

    #[test]
    fn bad_formula_reports_error_value() {
        let eng = AsyncEngine::spawn();
        eng.set_formula(c("B1"), "=THIS IS NOT A FORMULA((");
        eng.sync();
        assert!(eng.value(c("B1")).is_error());
    }

    #[test]
    fn reads_never_block_under_edit_storm() {
        let eng = AsyncEngine::spawn();
        eng.set_value(c("A1"), n(0.0));
        for row in 2..=200u32 {
            eng.set_formula(Cell::new(1, row), &format!("=A{}+1", row - 1));
        }
        // Interleave reads with the storm; they must return promptly with
        // *some* value (possibly stale).
        for _ in 0..50 {
            let _ = eng.value(c("A1"));
            let _ = eng.dirty_count();
        }
        eng.set_value(c("A1"), n(1000.0));
        eng.sync();
        assert_eq!(eng.value(Cell::new(1, 200)), n(1199.0));
    }

    #[test]
    fn drop_shuts_worker_down() {
        let eng = AsyncEngine::spawn();
        eng.set_value(c("A1"), n(1.0));
        drop(eng); // must not hang
    }
}
