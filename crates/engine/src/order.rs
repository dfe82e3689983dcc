//! The order a recalculation pass evaluates one sheet's dirty cells in:
//! each after the dirty cells it reads, cycles aside (see
//! `Engine::order_from`).
//!
//! The unit ordered is not the cell but the **node**: a maximal sequence
//! of dirty cells of one run — one template — down one column with only
//! vacant rows between them (a run spans blank rows, never a cell of
//! another kind: see `CellStore::read_dirty`), clipped to the rows the
//! pass asked for; a lone formula is a node of one cell. It is also the
//! unit evaluated: the order keeps each node as one slice, its [`Extent`]
//! (`Engine::evaluate_node`, which moves the run's program to each cell's
//! row, however far below the one before). The paper
//! answers queries on the compressed graph without
//! decompressing it (§IV); this is the same for the schedule, with the
//! dirty set intervalised the way WebGraph intervalises successor lists
//! (SNIPPETS.md 1–2) and the nodes ordered by Tarjan's SCC search over
//! them (SNIPPETS.md 3, `crate::scc`):
//!
//! - **Edges.** A node reads, per reference of its template, the union of
//!   what its cells read there, which is the bounding box of what its end
//!   cells read ([`taco_formula::Template::reads_at_ends`]), blank rows
//!   between them or not — one probe of
//!   the sorted dirty view per reference and column, where a cell order
//!   probes once per reference per *cell*, and lists every dirty cell
//!   inside the range where this lists every node.
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
//!   were ordered, restricted to the cycle and started at its least cell.
//!   Which cells are flagged `#CYCLE!` — the cells the search meets again
//!   while they are open — thus depends on the cycle and nothing else:
//!   not on how the sheet's formulas group into runs, and not on where
//!   the pass started.
//!
//! Everything lives in buffers the engine keeps from pass to pass.

use crate::engine::Engine;
use crate::scc::{Digraph, Tarjan};
use taco_grid::{Cell, Range, MAX_COL, MAX_ROW};

/// No node: a dirty cell nobody has asked for yet, or the roots' probe.
const NONE: u32 = u32::MAX;

/// One node: cells `view[begin..end]`, one column, only vacant rows
/// between them.
#[derive(Debug, Clone, Copy)]
struct Node {
    begin: u32,
    end: u32,
    /// A stretch's reads on this sheet, one per reference: `hulls[reads]`
    /// (a cell's are its formula's, not kept).
    reads: (u32, u32),
    /// Evaluated bottom-up: its cells read cells of it below them.
    up: bool,
    /// A node of one cell whose reads cover the cell itself: a cycle of
    /// one, found when its neighbours are listed.
    loops: bool,
}

impl Node {
    fn len(&self) -> u32 {
        self.end - self.begin
    }
}

/// A node as the order holds it: `order[begin..begin + len]`, cells of one
/// run down one column in the order they are evaluated — bottom-up if
/// `up`. A cell ordered on its own is an extent of one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    pub(crate) begin: u32,
    pub(crate) len: u32,
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

/// One pass's ordering of one sheet.
#[derive(Debug, Default)]
pub(crate) struct Schedule {
    /// Whether `view` is this pass's yet: a sheet the pass never orders
    /// on never pays for it.
    viewed: bool,
    /// The dirty set, read off the store's intervals in `(col, row)`
    /// order. Once the pass has evaluated, cut down to the cells it ordered.
    view: Vec<Cell>,
    /// Whether `view[i]` goes on from `view[i - 1]` down its run: the
    /// same column and run, only vacant rows between.
    joins: Vec<bool>,
    /// Each column of `view` and where it starts there, ascending.
    cols: Vec<(u32, u32)>,
    /// The node `view[i]` is a cell of, `NONE` until one is asked for.
    node_of: Vec<u32>,
    nodes: Vec<Node>,
    /// The reads of every stretch made a node, by [`Node::reads`].
    hulls: Vec<Range>,
    tarjan: Tarjan,
    /// Components of `tarjan` already ordered.
    ordered: usize,
    roots: Vec<u32>,
    color: Vec<u8>,
    stack: Vec<Frame>,
    nbrs: Vec<u32>,
    /// The evaluation order so far.
    order: Vec<Cell>,
    /// The nodes put in it so far, in order: a stretch ordered as one is
    /// one, a cell ordered on its own (a lone formula, a split, a cycle's
    /// member) one.
    extents: Vec<Extent>,
    /// Cells met again while open in a cycle search, so far.
    cycles: Vec<Cell>,
}

impl Schedule {
    /// Forgets the previous pass.
    pub(crate) fn begin(&mut self) {
        self.viewed = false;
        self.view.clear();
        self.nodes.clear();
        self.hulls.clear();
        self.tarjan.clear();
        self.ordered = 0;
        self.color.clear();
        self.order.clear();
        self.extents.clear();
        self.cycles.clear();
    }

    /// The order so far.
    pub(crate) fn order(&self) -> &[Cell] {
        &self.order
    }

    /// The nodes the order so far is made of, in order: what evaluation
    /// walks.
    pub(crate) fn extents(&self) -> &[Extent] {
        &self.extents
    }

    /// The nodes made so far (test instrumentation).
    #[cfg(test)]
    pub(crate) fn nodes_made(&self) -> usize {
        self.nodes.len()
    }

    /// The cycle members recorded so far.
    pub(crate) fn cycles(&self) -> &[Cell] {
        &self.cycles
    }

    /// The dirty cells the pass ordered, sorted, once [`Self::close`] ran.
    pub(crate) fn evaluated(&self) -> &[Cell] {
        if self.order.is_empty() {
            &[]
        } else {
            &self.view
        }
    }

    /// Ends the pass on this sheet: the view keeps the cells ordered.
    pub(crate) fn close(&mut self) {
        if self.order.len() < self.view.len() {
            let mut node_of = self.node_of.iter();
            self.view.retain(|_| node_of.next().is_some_and(|&n| n != NONE));
        }
    }

    /// See `Engine::order_from`.
    pub(crate) fn order_from(&mut self, engine: &Engine, within: Option<Range>) {
        if !self.viewed {
            self.viewed = true;
            engine.store().read_dirty(&mut self.view, &mut self.joins);
            self.cols.clear();
            for (i, cell) in self.view.iter().enumerate() {
                if self.cols.last().is_none_or(|&(col, _)| col != cell.col) {
                    self.cols.push((cell.col, i as u32));
                }
            }
            self.node_of.clear();
            self.node_of.resize(self.view.len(), NONE);
        }
        let mut sheet = Sheet {
            engine,
            view: &self.view,
            joins: &self.joins,
            cols: &self.cols,
            node_of: &mut self.node_of,
            nodes: &mut self.nodes,
            hulls: &mut self.hulls,
        };
        let within = within.unwrap_or(Range::from_coords(1, 1, MAX_COL, MAX_ROW));
        self.roots.clear();
        sheet.probe(within, NONE, &mut self.roots);
        #[cfg(test)]
        engine.nbr_entries.set(engine.nbr_entries.get() + self.roots.len() as u64);
        self.tarjan.reserve(sheet.nodes.len());
        for &root in &self.roots {
            self.tarjan.search(root, &mut sheet);
        }
        let mut out = Out {
            order: &mut self.order,
            extents: &mut self.extents,
            cycles: &mut self.cycles,
            color: &mut self.color,
            stack: &mut self.stack,
            nbrs: &mut self.nbrs,
        };
        for k in self.ordered..self.tarjan.count() {
            emit(&mut self.tarjan, &mut sheet, &mut out, k);
        }
        self.ordered = self.tarjan.count();
    }
}

/// Where ordered cells go, and the cycle search's buffers.
struct Out<'a> {
    order: &'a mut Vec<Cell>,
    extents: &'a mut Vec<Extent>,
    cycles: &'a mut Vec<Cell>,
    color: &'a mut Vec<u8>,
    stack: &'a mut Vec<Frame>,
    nbrs: &'a mut Vec<u32>,
}

/// Appends component `k` to the order: a node in its direction, a cycle
/// of cells — a cell that reads itself included — by the depth-first
/// search, anything else split into cells and searched again — whose
/// components, all of cells, come right after.
fn emit(tarjan: &mut Tarjan, sheet: &mut Sheet<'_>, out: &mut Out<'_>, k: usize) {
    let bounds = tarjan.bounds(k);
    let node = sheet.nodes[tarjan.members()[bounds.start] as usize];
    if bounds.len() == 1 && !node.loops {
        let cells = &sheet.view[node.begin as usize..node.end as usize];
        let begin = out.order.len() as u32;
        if node.up {
            out.order.extend(cells.iter().rev());
        } else {
            out.order.extend_from_slice(cells);
        }
        out.extents.push(Extent { begin, len: node.len(), up: node.up });
        return;
    }
    tarjan.component_mut(k).sort_unstable_by_key(|&n| sheet.nodes[n as usize].begin);
    if tarjan.members()[bounds.clone()].iter().all(|&n| sheet.nodes[n as usize].len() == 1) {
        return cycle(&tarjan.members()[bounds], sheet, out);
    }
    let split = sheet.nodes.len() as u32;
    for m in bounds {
        let Node { begin, end, .. } = sheet.nodes[tarjan.members()[m] as usize];
        for i in begin..end {
            sheet.add(i as usize, i as usize + 1, (0, 0), false);
        }
    }
    let from = tarjan.count();
    for cell in split..sheet.nodes.len() as u32 {
        tarjan.search(cell, sheet);
    }
    for k in from..tarjan.count() {
        emit(tarjan, sheet, out, k);
    }
}

/// Orders a cycle's cells (`members`, ascending) by a depth-first search
/// from each in turn, each after the cells it reads but for those still
/// open, which are recorded for `#CYCLE!`.
fn cycle(members: &[u32], sheet: &mut Sheet<'_>, out: &mut Out<'_>) {
    if out.color.len() < sheet.nodes.len() {
        out.color.resize(sheet.nodes.len(), 0);
    }
    for &n in members {
        out.color[n as usize] = WHITE;
    }
    for &root in members {
        if out.color[root as usize] == WHITE {
            open(root, sheet, out);
        }
        while let Some(&Frame { node, start, cursor, end }) = out.stack.last() {
            if cursor < end {
                out.stack.last_mut().expect("frame just read").cursor += 1;
                let next = out.nbrs[cursor as usize];
                match out.color[next as usize] {
                    WHITE => open(next, sheet, out),
                    GRAY => out.cycles.push(sheet.cell(next)),
                    _ => {}
                }
            } else {
                out.color[node as usize] = BLACK;
                out.extents.push(Extent { begin: out.order.len() as u32, len: 1, up: false });
                out.order.push(sheet.cell(node));
                out.nbrs.truncate(start as usize);
                out.stack.pop();
            }
        }
    }
}

fn open(node: u32, sheet: &mut Sheet<'_>, out: &mut Out<'_>) {
    out.color[node as usize] = GRAY;
    let start = out.nbrs.len() as u32;
    sheet.successors(node, out.nbrs);
    let end = out.nbrs.len() as u32;
    out.stack.push(Frame { node, start, cursor: start, end });
}

/// A sheet's dirty cells as the graph of nodes a pass orders.
struct Sheet<'a> {
    engine: &'a Engine,
    view: &'a [Cell],
    joins: &'a [bool],
    cols: &'a [(u32, u32)],
    node_of: &'a mut [u32],
    nodes: &'a mut Vec<Node>,
    hulls: &'a mut Vec<Range>,
}

impl Sheet<'_> {
    /// The cell of a one-cell node.
    fn cell(&self, node: u32) -> Cell {
        self.view[self.nodes[node as usize].begin as usize]
    }

    /// Makes `view[begin..end]` a node.
    fn add(&mut self, begin: usize, end: usize, reads: (u32, u32), up: bool) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { begin: begin as u32, end: end as u32, reads, up, loops: false });
        self.node_of[begin..end].fill(id);
        id
    }

    /// Pushes the nodes that hold the dirty cells of `range`, but `from`,
    /// each once per column; cells no node holds yet become nodes, cut to
    /// the range's rows.
    fn probe(&mut self, range: Range, from: u32, out: &mut Vec<u32>) {
        let (head, tail) = (range.head(), range.tail());
        let first = self.cols.partition_point(|&(col, _)| col < head.col);
        for (k, &(col, start)) in self.cols.iter().enumerate().skip(first) {
            if col > tail.col {
                break;
            }
            let end = self.cols.get(k + 1).map_or(self.view.len(), |&(_, end)| end as usize);
            let start = start as usize;
            let mut i = start + self.view[start..end].partition_point(|c| c.row < head.row);
            while i < end && self.view[i].row <= tail.row {
                let n = self.node_of[i];
                if n == NONE {
                    let mut j = i + 1;
                    while j < end
                        && self.joins[j]
                        && self.node_of[j] == NONE
                        && self.view[j].row <= tail.row
                    {
                        j += 1;
                    }
                    self.make(i, j, out);
                    i = j;
                } else {
                    if n != from {
                        out.push(n);
                    }
                    i = self.nodes[n as usize].end as usize;
                }
            }
        }
    }

    /// Makes nodes of `view[begin..end]`, cells of one run no node holds
    /// yet, and pushes them.
    fn make(&mut self, begin: usize, end: usize, out: &mut Vec<u32>) {
        if end - begin > 1 {
            let from = self.hulls.len();
            match self.direction(begin, end) {
                Some(up) => {
                    let reads = (from as u32, self.hulls.len() as u32);
                    out.push(self.add(begin, end, reads, up));
                    return;
                }
                None => self.hulls.truncate(from),
            }
        }
        for i in begin..end {
            out.push(self.add(i, i + 1, (0, 0), false));
        }
    }

    /// The order the run's cells `view[begin..end]` go in as one node —
    /// bottom-up (`true`) or top-down — pushing what they read on this
    /// sheet; `None` if they must be ordered cell by cell (see the module
    /// documentation).
    fn direction(&mut self, begin: usize, end: usize) -> Option<bool> {
        let (top, foot) = (self.view[begin], self.view[end - 1]);
        let run = self.engine.run_at(top)?;
        let (col, lo, hi) = (top.col, top.row, foot.row);
        let mut dir = None;
        for (sheet, first, last) in run.reads_at_ends(col, lo, hi) {
            if !self.engine.is_local(sheet) {
                continue;
            }
            let (first, last) = (first?, last?);
            let hull = first.bounding_union(&last);
            self.hulls.push(hull);
            let (h, t) = (hull.head(), hull.tail());
            if col < h.col || col > t.col || hi < h.row || lo > t.row {
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

impl Digraph for Sheet<'_> {
    /// The nodes holding the dirty cells `v`'s cells read on this sheet
    /// (other sheets are the workbook's to order: it levels sheets).
    fn successors(&mut self, v: u32, out: &mut Vec<u32>) {
        #[cfg(test)]
        let listed = out.len();
        let node = self.nodes[v as usize];
        let engine = self.engine;
        if node.len() > 1 {
            for i in node.reads.0..node.reads.1 {
                self.probe(self.hulls[i as usize], v, out);
            }
        } else {
            // A read that covers the cell itself makes it a successor of
            // its own: the probe skips `v`.
            let cell = self.view[node.begin as usize];
            let reads = engine.run_at(cell).into_iter().flat_map(|run| run.at(cell).reads());
            let mut loops = false;
            for (sheet, rref) in reads {
                if engine.is_local(sheet) {
                    loops |= rref.range().contains_cell(cell);
                    self.probe(rref.range(), v, out);
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
