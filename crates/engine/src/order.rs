//! The order a recalculation pass evaluates the workbook's dirty cells in:
//! each after the dirty cells it reads, on its own sheet or another,
//! cycles aside (see [`Schedule::order_from`]).
//!
//! There is one schedule per workbook, and its unit is a **(sheet,
//! node)** pair. A node's reads are resolved through the workbook's name
//! index — unqualified and self-qualified ones to its own sheet, the
//! others to the sheet they name — and probed on that sheet the same way:
//! one Tarjan search orders nodes across sheets, so two sheets that read
//! each other without a cell reading itself evaluate exactly, and a cell
//! cycle through several sheets gets `#CYCLE!` by the rule a cycle inside
//! one sheet does.
//!
//! The grain is the dirty interval, end to end; no step of a pass holds a
//! cell of its own. A sheet's store hands the schedule **stretches**
//! `(col, lo, hi)`, the first time a probe reaches the sheet in the pass:
//! one per maximal sequence of one run's cells inside a dirty interval,
//! read off the pages' start bits (`CellStore::read_stretches`), each
//! saying whether it goes on from the stretch before it down its run
//! across vacant rows. The unit ordered is the **node**: a maximal
//! sequence of stretches of one run — one template — down one column with
//! only vacant rows between them (a run spans blank rows, never a cell of
//! another kind), clipped to the rows the pass asked for; a lone formula
//! is a node of one cell. A probe that clips a stretch splits it in place,
//! and a later call of the same pass picks up the rest; a stretch made one
//! node per cell holds the first cell's node, each row below it the next.
//! The node is also the unit evaluated and unmarked: the order is a list
//! of [`Extent`]s `{ sheet, col, lo, hi, up }`, each walked over the
//! stretches inside it (`Engine::evaluate_node`, which moves the run's
//! program to each cell's row, however far below the one before) and
//! taken off its sheet's dirty set as one interval. Ordering costs
//! O(stretches + nodes) and reads no slot inside a dirty interval. The
//! paper answers queries on the compressed graph without decompressing it
//! (§IV); this is the same for the schedule, with the dirty set
//! intervalised the way WebGraph intervalises successor lists (SNIPPETS.md
//! 1–2) and the nodes ordered by Tarjan's SCC search over them (SNIPPETS.md
//! 3, `crate::scc`):
//!
//! - **Edges.** A node reads, per reference of its template, the union of
//!   what its cells read there, which is the bounding box of what its end
//!   cells read ([`taco_formula::Template::reads_at_ends`]), blank rows
//!   between them or not — one binary search of the named sheet's
//!   stretches per reference and column, where a cell order probes once
//!   per reference per *cell*, and lists every dirty cell inside the range
//!   where this lists every node. A read of a sheet that does not exist
//!   reads nothing (it evaluates to `#REF!`).
//! - **Inside a node** the template's reads of the node's own cells say
//!   the order: none, or all above the reading cell — top-down, which is
//!   what a fold carried down the run wants; all below — bottom-up.
//!   Anything else (reads both ways, a `$`-fixed read inside the stretch,
//!   a cell reading its own row) makes the stretch one node per cell, as
//!   does a read that leaves the grid at either end of it.
//! - **Between nodes** the components come out of the search in reverse
//!   topological order: a component of one node is emitted, in its
//!   direction. A larger one — two runs that read each other row-wise
//!   (`B{r}=C{r-1}`, `C{r}=B{r}`) without any cell cycle, or a real cycle —
//!   is split into one node per cell and searched again; a component of
//!   several *cells* is a cycle, and so is a cell one of whose reads
//!   covers the cell itself (`SUM($A$1:$B$4)` in `B2`), each ordered by
//!   the depth-first search every dirty cell went through before runs
//!   were ordered, restricted to the cycle and started at its least
//!   (sheet, cell). Which cells are flagged `#CYCLE!` — the cells the
//!   search meets again while they are open — thus depends on the cycle
//!   and nothing else: not on how the formulas group into runs, not on
//!   which sheets it passes through, and not on where the pass started.
//!   Split components, cycles and lone formulas are extents of one row.
//!
//! A pass calls [`Schedule::order_from`] once per root — each sheet with
//! dirty cells, or a viewport — and evaluates what the call appended
//! before the next (`Workbook::pass`). What an earlier call ordered stays
//! where it is, and a later call's probes find it ordered already.
//! Everything lives in buffers the workbook keeps from pass to pass.

use crate::scc::{Digraph, Tarjan};
use crate::workbook::Workbook;
use taco_grid::{Cell, Range, MAX_COL, MAX_ROW};

/// No node: dirty cells nobody has asked for yet, or the roots' probe.
const NONE: u32 = u32::MAX;

/// Rows `lo..=hi` of column `col`, dirty cells of one run one under the
/// other (see `CellStore::read_stretches`), and the node or nodes that
/// hold them. A stretch is held whole or not at all: one a probe clips is
/// split in place first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stretch {
    col: u32,
    lo: u32,
    hi: u32,
    /// Whether it goes on from the stretch before it down one run: the
    /// same column and run, only vacant rows between.
    joins: bool,
    /// The node holding its rows, `NONE` until one is asked for — or, if
    /// `cellwise`, the node holding row `lo`, each row below it the next.
    node: u32,
    cellwise: bool,
}

impl Stretch {
    /// Its rows inside `extent`'s, as `(first, last)`.
    pub(crate) fn rows(&self, extent: &Extent) -> (u32, u32) {
        (self.lo.max(extent.lo), self.hi.min(extent.hi))
    }

    fn len(&self) -> u32 {
        self.hi - self.lo + 1
    }
}

/// One node: the `cells` dirty cells of column `col` of sheet `sheet` in
/// rows `lo..=hi`, of one run, only vacant rows between them.
#[derive(Debug, Clone, Copy)]
struct Node {
    sheet: u32,
    col: u32,
    lo: u32,
    hi: u32,
    cells: u32,
    /// A node's reads, one per reference on a sheet that exists:
    /// `hulls[reads]` (a cell's are its formula's, not kept).
    reads: (u32, u32),
    /// Evaluated bottom-up: its cells read cells of it below them.
    up: bool,
    /// A node of one cell whose reads cover the cell itself: a cycle of
    /// one, found when its neighbours are listed.
    loops: bool,
}

impl Node {
    fn cell(sheet: u32, col: u32, row: u32) -> Node {
        Node { sheet, col, lo: row, hi: row, cells: 1, reads: (0, 0), up: false, loops: false }
    }
}

/// A node as the order holds it: the dirty cells of column `col` of sheet
/// `sheet` in rows `lo..=hi`, of one run, evaluated top-down — bottom-up
/// if `up` — with only vacant rows between them. Its cells are the rows
/// of the schedule's stretches inside it ([`Schedule::stretches_of`]). A
/// cell ordered on its own is an extent of one row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) sheet: u32,
    pub(crate) col: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) up: bool,
}

/// The cycle search's colours, by node; `0` for a node it is not over.
const WHITE: u8 = 1;
const GRAY: u8 = 2;
const BLACK: u8 = 3;

/// A cell being searched in a cycle, and its slice of `nbrs`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    start: u32,
    cursor: u32,
    end: u32,
}

/// One sheet's dirty set as the pass under way reads it.
#[derive(Debug, Default)]
struct Part {
    /// Whether `stretches` are this pass's yet: a sheet no probe reaches
    /// never reads them.
    read: bool,
    /// The dirty set as the store's stretches, in `(col, row)` order.
    stretches: Vec<Stretch>,
}

/// One pass's ordering of the workbook.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    /// By sheet.
    sheets: Vec<Part>,
    nodes: Vec<Node>,
    /// The reads of every node of several cells, `(sheet, range)`, by
    /// [`Node::reads`].
    hulls: Vec<(u32, Range)>,
    tarjan: Tarjan,
    /// Components of `tarjan` already ordered.
    ordered: usize,
    roots: Vec<u32>,
    color: Vec<u8>,
    stack: Vec<Frame>,
    nbrs: Vec<u32>,
    /// The evaluation order so far, node by node: a stretch ordered as one
    /// is one, a cell ordered on its own (a lone formula, a split, a
    /// cycle's member) one.
    extents: Vec<Extent>,
    /// The cells in `extents`.
    cells: usize,
    /// Cells met again while open in a cycle search so far, `(sheet,
    /// cell)`.
    cycles: Vec<(u32, Cell)>,
}

impl Schedule {
    /// Forgets the previous pass; the workbook has `sheets` sheets.
    pub(crate) fn begin(&mut self, sheets: usize) {
        self.sheets.resize_with(sheets, Part::default);
        for part in &mut self.sheets {
            part.read = false;
            part.stretches.clear();
        }
        self.nodes.clear();
        self.hulls.clear();
        self.tarjan.clear();
        self.ordered = 0;
        self.color.clear();
        self.extents.clear();
        self.cells = 0;
        self.cycles.clear();
    }

    /// The order so far: what evaluation walks.
    pub(crate) fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The cells in the order so far.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// The cycle members recorded so far.
    pub(crate) fn cycles(&self) -> &[(u32, Cell)] {
        &self.cycles
    }

    /// The stretches holding `extent`'s cells, top down: each one's
    /// [`Stretch::rows`] inside it.
    pub(crate) fn stretches_of(&self, extent: &Extent) -> &[Stretch] {
        let stretches = &self.sheets[extent.sheet as usize].stretches;
        let from = stretches.partition_point(|s| (s.col, s.hi) < (extent.col, extent.lo));
        let to = stretches.partition_point(|s| (s.col, s.lo) <= (extent.col, extent.hi));
        &stretches[from..to]
    }

    /// The nodes made so far (test instrumentation).
    #[cfg(test)]
    pub(crate) fn nodes_made(&self) -> usize {
        self.nodes.len()
    }

    /// Appends to the pass's order the dirty cells inside `within` on
    /// sheet `sheet` — all of them for `None` — and the dirty cells they
    /// read, on any sheet, each after the ones it reads: see the module
    /// documentation. What an earlier call ordered stays where it is and
    /// what a later one adds goes behind everything it reads, so any
    /// sequence of calls leaves a valid order. Cycle members are recorded
    /// for the evaluation to flag. Runs on buffers kept from pass to pass:
    /// no steady-state allocation.
    pub(crate) fn order_from(&mut self, wb: &Workbook, sheet: usize, within: Option<Range>) {
        let mut graph =
            Graph { wb, sheets: &mut self.sheets, nodes: &mut self.nodes, hulls: &mut self.hulls };
        let within = within.unwrap_or(Range::from_coords(1, 1, MAX_COL, MAX_ROW));
        self.roots.clear();
        graph.probe(sheet as u32, within, NONE, &mut self.roots);
        #[cfg(test)]
        {
            let engine = wb.engine(sheet);
            engine.nbr_entries.set(engine.nbr_entries.get() + self.roots.len() as u64);
        }
        self.tarjan.reserve(graph.nodes.len());
        for &root in &self.roots {
            self.tarjan.search(root, &mut graph);
        }
        #[cfg(test)]
        let emitted = self.extents.len();
        let mut out = Out {
            extents: &mut self.extents,
            cells: &mut self.cells,
            cycles: &mut self.cycles,
            color: &mut self.color,
            stack: &mut self.stack,
            nbrs: &mut self.nbrs,
        };
        for k in self.ordered..self.tarjan.count() {
            emit(&mut self.tarjan, &mut graph, &mut out, k);
        }
        self.ordered = self.tarjan.count();
        #[cfg(test)]
        for extent in &self.extents[emitted..] {
            let engine = wb.engine(extent.sheet as usize);
            engine.extents_emitted.set(engine.extents_emitted.get() + 1);
        }
    }
}

/// Where ordered nodes go, and the cycle search's buffers.
struct Out<'a> {
    extents: &'a mut Vec<Extent>,
    cells: &'a mut usize,
    cycles: &'a mut Vec<(u32, Cell)>,
    color: &'a mut Vec<u8>,
    stack: &'a mut Vec<Frame>,
    nbrs: &'a mut Vec<u32>,
}

impl Out<'_> {
    fn push(&mut self, node: &Node) {
        let Node { sheet, col, lo, hi, up, .. } = *node;
        self.extents.push(Extent { sheet, col, lo, hi, up });
        *self.cells += node.cells as usize;
    }
}

/// Appends component `k` to the order: a node in its direction, a cycle
/// of cells — a cell that reads itself included — by the depth-first
/// search, anything else split into cells and searched again — whose
/// components, all of cells, come right after.
fn emit(tarjan: &mut Tarjan, graph: &mut Graph<'_>, out: &mut Out<'_>, k: usize) {
    let bounds = tarjan.bounds(k);
    let node = graph.nodes[tarjan.members()[bounds.start] as usize];
    if bounds.len() == 1 && !node.loops {
        return out.push(&node);
    }
    tarjan.component_mut(k).sort_unstable_by_key(|&n| {
        let node = &graph.nodes[n as usize];
        (node.sheet, node.col, node.lo)
    });
    if tarjan.members()[bounds.clone()].iter().all(|&n| graph.nodes[n as usize].cells == 1) {
        return cycle(&tarjan.members()[bounds], graph, out);
    }
    let split = graph.nodes.len() as u32;
    for m in bounds {
        let Node { sheet, col, lo, hi, .. } = graph.nodes[tarjan.members()[m] as usize];
        graph.split_into_cells(sheet, col, lo, hi);
    }
    let from = tarjan.count();
    for cell in split..graph.nodes.len() as u32 {
        tarjan.search(cell, graph);
    }
    for k in from..tarjan.count() {
        emit(tarjan, graph, out, k);
    }
}

/// Orders a cycle's cells (`members`, ascending) by a depth-first search
/// from each in turn, each after the cells it reads but for those still
/// open, which are recorded for `#CYCLE!`.
fn cycle(members: &[u32], graph: &mut Graph<'_>, out: &mut Out<'_>) {
    if out.color.len() < graph.nodes.len() {
        out.color.resize(graph.nodes.len(), 0);
    }
    for &n in members {
        out.color[n as usize] = WHITE;
    }
    for &root in members {
        if out.color[root as usize] == WHITE {
            open(root, graph, out);
        }
        while let Some(&Frame { node, start, cursor, end }) = out.stack.last() {
            if cursor < end {
                out.stack.last_mut().expect("frame just read").cursor += 1;
                let next = out.nbrs[cursor as usize];
                match out.color[next as usize] {
                    WHITE => open(next, graph, out),
                    GRAY => out.cycles.push(graph.cell(next)),
                    _ => {}
                }
            } else {
                out.color[node as usize] = BLACK;
                out.push(&graph.nodes[node as usize]);
                out.nbrs.truncate(start as usize);
                out.stack.pop();
            }
        }
    }
}

fn open(node: u32, graph: &mut Graph<'_>, out: &mut Out<'_>) {
    out.color[node as usize] = GRAY;
    let start = out.nbrs.len() as u32;
    graph.successors(node, out.nbrs);
    let end = out.nbrs.len() as u32;
    out.stack.push(Frame { node, start, cursor: start, end });
}

/// The workbook's dirty cells as the graph of nodes a pass orders.
struct Graph<'a> {
    wb: &'a Workbook,
    sheets: &'a mut [Part],
    nodes: &'a mut Vec<Node>,
    hulls: &'a mut Vec<(u32, Range)>,
}

impl Graph<'_> {
    /// The sheet and cell of a one-cell node.
    fn cell(&self, node: u32) -> (u32, Cell) {
        let node = &self.nodes[node as usize];
        (node.sheet, Cell { col: node.col, row: node.lo })
    }

    /// Sheet `sheet`'s stretches, read off its store the first time the
    /// pass asks.
    fn stretches(&mut self, sheet: u32) -> &mut Vec<Stretch> {
        let part = &mut self.sheets[sheet as usize];
        if !part.read {
            part.read = true;
            let stretches = &mut part.stretches;
            let engine = self.wb.engine(sheet as usize);
            engine.store().read_stretches(|col, lo, hi, joins| {
                stretches.push(Stretch { col, lo, hi, joins, node: NONE, cellwise: false });
            });
            #[cfg(test)]
            engine.stretches_read.set(engine.stretches_read.get() + stretches.len() as u64);
        }
        &mut part.stretches
    }

    /// Splits stretch `i` of `sheet` in place: it ends above `row`, and a
    /// stretch of its run, held as it was, starts there.
    fn split(&mut self, sheet: u32, i: usize, row: u32) {
        let stretches = self.stretches(sheet);
        let s = stretches[i];
        debug_assert!(s.lo < row && row <= s.hi);
        let node = if s.cellwise { s.node + (row - s.lo) } else { s.node };
        stretches[i].hi = row - 1;
        stretches.insert(i + 1, Stretch { lo: row, joins: true, node, ..s });
    }

    /// Makes each cell of stretch `k` of `sheet` a node; returns the
    /// first's id.
    fn cells_of(&mut self, sheet: u32, k: usize) -> u32 {
        let first = self.nodes.len() as u32;
        let s = &mut self.sheets[sheet as usize].stretches[k];
        (s.node, s.cellwise) = (first, true);
        self.nodes.extend((s.lo..=s.hi).map(|row| Node::cell(sheet, s.col, row)));
        first
    }

    /// Makes each cell of column `col` of `sheet` in rows `lo..=hi` that a
    /// node holds a node of its own, top down.
    fn split_into_cells(&mut self, sheet: u32, col: u32, lo: u32, hi: u32) {
        let stretches = self.stretches(sheet);
        let mut i = stretches.partition_point(|s| (s.col, s.hi) < (col, lo));
        if stretches[i].lo < lo {
            self.split(sheet, i, lo);
            i += 1;
        }
        while self.stretches(sheet).get(i).is_some_and(|s| s.col == col && s.lo <= hi) {
            if self.stretches(sheet)[i].hi > hi {
                self.split(sheet, i, hi + 1);
            }
            self.cells_of(sheet, i);
            i += 1;
        }
    }

    /// Pushes the nodes that hold the dirty cells of `range` on `sheet`,
    /// but `from`, each once per column; cells no node holds yet become
    /// nodes, cut to the range's rows.
    fn probe(&mut self, sheet: u32, range: Range, from: u32, out: &mut Vec<u32>) {
        let (head, tail) = (range.head(), range.tail());
        let stretches = self.stretches(sheet);
        let mut i = stretches.partition_point(|s| (s.col, s.hi) < (head.col, head.row));
        while let Some(&s) = self.sheets[sheet as usize].stretches.get(i) {
            let stretches = &self.sheets[sheet as usize].stretches;
            if s.col > tail.col {
                break;
            }
            if s.hi < head.row || s.lo > tail.row {
                // Above the rows, in a column after the first, or below
                // them: on to the first stretch inside them, in this
                // column or the next.
                let col = if s.lo > tail.row { s.col + 1 } else { s.col };
                i += stretches[i..].partition_point(|t| (t.col, t.hi) < (col, head.row));
                continue;
            }
            if s.cellwise {
                let rows = s.lo.max(head.row)..=s.hi.min(tail.row);
                out.extend(rows.map(|row| s.node + (row - s.lo)).filter(|&n| n != from));
                i += 1;
            } else if s.node != NONE {
                if s.node != from {
                    out.push(s.node);
                }
                i += 1;
                while stretches.get(i).is_some_and(|t| t.node == s.node) {
                    i += 1;
                }
            } else {
                if s.lo < head.row {
                    self.split(sheet, i, head.row);
                    i += 1;
                }
                let stretches = &self.sheets[sheet as usize].stretches;
                let mut j = i + 1;
                while stretches
                    .get(j)
                    .is_some_and(|t| t.joins && t.node == NONE && t.lo <= tail.row)
                {
                    j += 1;
                }
                if stretches[j - 1].hi > tail.row {
                    self.split(sheet, j - 1, tail.row + 1);
                }
                self.make(sheet, i, j, out);
                i = j;
            }
        }
    }

    /// Makes nodes of stretches `i..j` of `sheet`, of one run, no node
    /// holding them yet, and pushes them.
    fn make(&mut self, sheet: u32, i: usize, j: usize, out: &mut Vec<u32>) {
        let stretches = &self.sheets[sheet as usize].stretches;
        let (col, lo, hi) = (stretches[i].col, stretches[i].lo, stretches[j - 1].hi);
        if lo < hi {
            let from = self.hulls.len();
            match self.direction(sheet, col, lo, hi) {
                Some(up) => {
                    let id = self.nodes.len() as u32;
                    let stretches = &mut self.sheets[sheet as usize].stretches[i..j];
                    let cells = stretches.iter().map(Stretch::len).sum();
                    let reads = (from as u32, self.hulls.len() as u32);
                    self.nodes.push(Node { sheet, col, lo, hi, cells, reads, up, loops: false });
                    stretches.iter_mut().for_each(|s| s.node = id);
                    out.push(id);
                    return;
                }
                None => self.hulls.truncate(from),
            }
        }
        for k in i..j {
            let first = self.cells_of(sheet, k);
            out.extend(first..self.nodes.len() as u32);
        }
    }

    /// The order the run's cells in rows `lo..=hi` of column `col` of
    /// `sheet` go in as one node — bottom-up (`true`) or top-down —
    /// pushing what they read; `None` if they must be ordered cell by cell
    /// (see the module documentation).
    fn direction(&mut self, sheet: u32, col: u32, lo: u32, hi: u32) -> Option<bool> {
        let wb = self.wb;
        let run = wb.engine(sheet as usize).run_at(Cell { col, row: lo })?;
        let mut dir = None;
        for (name, first, last) in run.reads_at_ends(col, lo, hi) {
            let Some(on) = wb.resolve(sheet, name) else {
                continue; // a sheet that does not exist: no cell to read
            };
            let (first, last) = (first?, last?);
            let hull = first.bounding_union(&last);
            self.hulls.push((on, hull));
            let (h, t) = (hull.head(), hull.tail());
            if on != sheet || col < h.col || col > t.col || hi < h.row || lo > t.row {
                continue; // reads no cell of the stretch
            }
            let up = if first.tail().row < lo && last.tail().row < hi {
                false
            } else if first.head().row > lo && last.head().row > hi {
                true
            } else {
                return None;
            };
            if dir.is_some_and(|dir| dir != up) {
                return None;
            }
            dir = Some(up);
        }
        Some(dir == Some(true))
    }
}

impl Digraph for Graph<'_> {
    /// The nodes holding the dirty cells `v`'s cells read, on whichever
    /// sheet.
    fn successors(&mut self, v: u32, out: &mut Vec<u32>) {
        #[cfg(test)]
        let listed = out.len();
        let node = self.nodes[v as usize];
        let wb = self.wb;
        let engine = wb.engine(node.sheet as usize);
        if node.cells > 1 {
            for i in node.reads.0..node.reads.1 {
                let (on, hull) = self.hulls[i as usize];
                self.probe(on, hull, v, out);
            }
        } else {
            // A read that covers the cell itself makes it a successor of
            // its own: the probe skips `v`.
            let cell = Cell { col: node.col, row: node.lo };
            let reads = engine.run_at(cell).into_iter().flat_map(|run| run.at(cell).reads());
            let mut loops = false;
            for (name, rref) in reads {
                if let Some(on) = wb.resolve(node.sheet, name) {
                    loops |= on == node.sheet && rref.range().contains_cell(cell);
                    self.probe(on, rref.range(), v, out);
                }
            }
            if loops {
                self.nodes[v as usize].loops = true;
                out.push(v);
            }
        }
        #[cfg(test)]
        {
            engine.nbr_lists.set(engine.nbr_lists.get() + 1);
            engine.nbr_entries.set(engine.nbr_entries.get() + (out.len() - listed) as u64);
        }
    }
}
