//! The TACO framework (§IV): greedy compression (Alg. 2), the modified BFS
//! for querying the compressed graph directly (Alg. 3), and incremental
//! maintenance.

use crate::band::{bands_of, Band, BandIndex};
use crate::config::Config;
use crate::dep::Dependency;
use crate::edge::{Edge, EdgeId};
use crate::pattern::{Direction, PatternType};
use crate::slab::Slab;
use crate::stats::{count_vertices, GraphStats, PatternCounts};
use std::cell::RefCell;
use std::collections::VecDeque;
use taco_grid::{Axis, Cell, Range};
use taco_rtree::RTree;

/// Instrumentation for one query (used by `tests/complexity.rs` and the
/// §IV-D edge-access discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of `(vertex, edge)` pairs examined during BFS.
    pub edges_accessed: u64,
    /// Number of ranges pushed into the BFS queue.
    pub enqueued: u64,
    /// Number of R-tree window searches issued.
    pub rtree_searches: u64,
    /// Number of vertex-index R-tree nodes visited across those searches
    /// (the cache-locality metric `tests/complexity.rs` asserts on; the
    /// visited-set index is not counted).
    pub nodes_visited: u64,
}

/// The modified BFS's working buffers (Alg. 3): the queue, hit list,
/// visited-subtraction buffers, the visited-set R-tree (cleared, capacity
/// retained), and the output the allocating wrappers run into. Each
/// thread owns one (`QUERY`); every query runs on its thread's, so once
/// they reach the workload's high-water mark a query stops allocating.
#[derive(Debug, Default)]
struct QueryScratch {
    queue: VecDeque<Range>,
    hits: Vec<(Range, EdgeId)>,
    covers: Vec<Range>,
    parts: Vec<Range>,
    sub_tmp: Vec<Range>,
    visited: RTree<()>,
    out: Vec<Range>,
}

thread_local! {
    /// This thread's query buffers. Queries take `&self` on the graph, so
    /// concurrent readers share a graph and never a buffer; a query calls
    /// nothing that queries again, so the borrow is never taken twice.
    static QUERY: RefCell<QueryScratch> = RefCell::default();
}

/// Internal scratch for the `&mut self` compression / maintenance paths
/// (candidate discovery, `clear_cells` splitting). Lives on the graph so
/// `update_cell` bursts stop allocating once warm.
#[derive(Debug, Clone, Default)]
struct MaintScratch {
    candidates: Vec<EdgeId>,
    valid: Vec<(Edge, EdgeId)>,
    ids: Vec<EdgeId>,
    parts: Vec<Edge>,
}

/// A formula dependency graph, compressed according to a [`Config`].
///
/// With `Config::nocomp()` this is exactly the paper's NoComp baseline:
/// identical storage (adjacency arena + R-trees over the vertices),
/// identical BFS — only the compression step differs.
///
/// ```
/// use taco_core::{Dependency, FormulaGraph};
/// use taco_grid::{Cell, Range};
///
/// // C1=SUM(A1:B3), C2=SUM(A2:B4): an autofilled sliding window.
/// let mut g = FormulaGraph::taco();
/// g.add_dependency(&Dependency::new(
///     Range::parse_a1("A1:B3").unwrap(),
///     Cell::parse_a1("C1").unwrap(),
/// ));
/// g.add_dependency(&Dependency::new(
///     Range::parse_a1("A2:B4").unwrap(),
///     Cell::parse_a1("C2").unwrap(),
/// ));
/// assert_eq!(g.num_edges(), 1); // compressed into one RR edge
///
/// // Queried directly, without decompression:
/// let deps = g.find_dependents(Range::parse_a1("A2").unwrap());
/// assert_eq!(deps, vec![Range::parse_a1("C1:C2").unwrap()]);
/// ```
#[derive(Debug, Clone)]
pub struct FormulaGraph {
    config: Config,
    edges: Slab<Edge>,
    /// R-trees over precedent vertex ranges → edge id, one per band.
    prec_index: BandIndex,
    /// R-trees over dependent vertex ranges → edge id, one per band.
    dep_index: BandIndex,
    /// Total dependencies ever inserted (the paper's `|E'|` when the graph
    /// is built once from a parsed file).
    deps_inserted: u64,
    /// Dependencies the stored edges represent, `Σ count`, and edges
    /// reduced per pattern, `Σ (count − 1)`: kept current by the mutation
    /// funnel, so `stats()` reads them instead of walking every edge.
    dependencies: u64,
    reduced: PatternCounts,
    /// The edges with both ends in each band ([`Band`]), by band.
    held: Vec<usize>,
    /// Bumped by every edge mutation; a poller that remembers it knows
    /// whether anything that needs a walk (the vertex count) can have
    /// changed since it last looked.
    mutations: u64,
    /// Reusable buffers for the `&mut self` maintenance paths.
    scratch: MaintScratch,
}

impl FormulaGraph {
    /// Creates an empty graph with the given compressor configuration.
    pub fn new(config: Config) -> Self {
        FormulaGraph {
            config,
            edges: Slab::new(),
            prec_index: BandIndex::default(),
            dep_index: BandIndex::default(),
            deps_inserted: 0,
            dependencies: 0,
            reduced: PatternCounts::default(),
            held: Vec::new(),
            mutations: 0,
            scratch: MaintScratch::default(),
        }
    }

    /// Creates an empty graph with the full TACO configuration.
    pub fn taco() -> Self {
        Self::new(Config::taco_full())
    }

    /// Creates an empty uncompressed graph (the NoComp baseline).
    pub fn nocomp() -> Self {
        Self::new(Config::nocomp())
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of edges currently stored, `|E|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.len() == 0
    }

    /// Iterates over the stored edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter().map(|(_, e)| e)
    }

    /// Builds a graph by inserting every dependency in order, then
    /// repacking the vertex indexes with an STR bulk load (compression
    /// needs the indexes live while inserting; the final repack gives
    /// queries the tight bulk-loaded tree).
    pub fn build<I: IntoIterator<Item = Dependency>>(config: Config, deps: I) -> Self {
        let mut g = FormulaGraph::new(config);
        for d in deps {
            g.add_dependency(&d);
        }
        g.optimize();
        g
    }

    /// Rebuilds both vertex R-trees from the current edge set with an STR
    /// bulk load: minimal node count, near-minimal overlap, measurably
    /// fewer nodes visited per window query than the insertion-built
    /// shape. Call after a bulk construction phase (corpus build, file
    /// import, an open's derived edges); incremental edits afterwards keep
    /// working on the packed tree.
    pub fn optimize(&mut self) {
        (self.prec_index, self.dep_index) = BandIndex::bulk_load(self.edges.iter());
    }

    /// Puts `edges`, in the graph's coordinates, in place as they are —
    /// no compression — then repacks both indexes with one STR bulk load:
    /// how an open puts the edges it derived from the formulas in place.
    pub fn load_edges(&mut self, edges: impl IntoIterator<Item = Edge>) {
        for e in edges {
            self.deps_inserted += u64::from(e.count);
            self.count_in(&e);
            self.hold(&e, true);
            self.edges.insert(bands_of(&e), e);
        }
        self.optimize();
    }

    // ---- compression (Alg. 2) ---------------------------------------------

    /// Compresses one dependency into the graph (Alg. 2, `addDep(G, e')`).
    pub fn add_dependency(&mut self, d: &Dependency) {
        self.deps_inserted += 1;
        self.compress_dependency(d);
    }

    /// The compression logic without touching the lifetime insert counter
    /// (used when re-inserting dependencies during structural edits).
    pub(crate) fn compress_dependency(&mut self, d: &Dependency) {
        if self.config.patterns.is_empty() {
            self.insert_edge(Edge::single(d));
            return;
        }

        // Step 1: find candidate edges (buffers persist on the graph).
        let mut candidates = std::mem::take(&mut self.scratch.candidates);
        self.collect_candidates(d.dep, &mut candidates);

        // Step 2: find valid compressed edges (genCompEdges).
        let mut valid = std::mem::take(&mut self.scratch.valid);
        valid.clear();
        for &cand_id in &candidates {
            let cand = self.edges.get(cand_id);
            if cand.is_single() {
                for &p in &self.config.patterns {
                    for axis in [Axis::Col, Axis::Row] {
                        if let Some(new_edge) = cand.try_pair(d, p, axis) {
                            if self.config.allows(&new_edge.meta, axis) {
                                valid.push((new_edge, cand_id));
                            }
                        }
                    }
                }
            } else if let Some(new_edge) = cand.try_extend(d) {
                if self.config.allows(&new_edge.meta, new_edge.axis) {
                    valid.push((new_edge, cand_id));
                }
            }
        }

        // Step 3: select the final edge by the §IV-A heuristics:
        // column-wise first, then special patterns (RR-Chain ≺ RR), then
        // `$`-cue agreement, then pattern declaration order.
        match self.select_best(&valid, d) {
            None => {
                self.insert_edge(Edge::single(d));
            }
            Some(best_idx) => {
                let (new_edge, old_id) = valid.swap_remove(best_idx);
                self.rewrite_edge(old_id, new_edge);
            }
        }
        self.scratch.candidates = candidates;
        valid.clear();
        self.scratch.valid = valid;
    }

    /// Step 1 of Alg. 2: the ids, ascending, of the edges whose dependent
    /// vertex holds a cell next to `cell` in its column or in its row.
    ///
    /// One window search over the square around `cell` reports a
    /// superset; an entry stays iff it meets the column arm or the row
    /// arm of the plus shape somewhere other than in the centre cell
    /// alone. Since it overlaps the square, "contains `cell`'s column and
    /// starts above or ends below `cell`'s row" says exactly that for the
    /// column arm, and the transposed test for the row arm. (An edge has
    /// one dependent vertex, so the search reports each id once.)
    fn collect_candidates(&self, cell: Cell, out: &mut Vec<EdgeId>) {
        out.clear();
        let window = Range::from_coords(
            cell.col.saturating_sub(1).max(1),
            cell.row.saturating_sub(1).max(1),
            cell.col.saturating_add(1),
            cell.row.saturating_add(1),
        );
        self.dep_index.for_each_overlapping(window, |r, &id| {
            let (head, tail) = (r.head(), r.tail());
            let column_arm = head.col <= cell.col
                && cell.col <= tail.col
                && (head.row < cell.row || tail.row > cell.row);
            let row_arm = head.row <= cell.row
                && cell.row <= tail.row
                && (head.col < cell.col || tail.col > cell.col);
            if column_arm || row_arm {
                out.push(id);
            }
        });
        out.sort_unstable();
    }

    fn select_best(&self, valid: &[(Edge, EdgeId)], d: &Dependency) -> Option<usize> {
        if valid.len() <= 1 {
            return valid.first().map(|_| 0);
        }
        valid
            .iter()
            .enumerate()
            .min_by_key(|(_, (e, _))| {
                let p = e.pattern();
                // Heuristic (1) of §IV-A: column-wise before row-wise.
                let axis_rank = if e.axis == Axis::Row { 1u8 } else { 0 };
                // Special-case patterns outrank their general forms.
                let special_rank =
                    if PatternType::ALL.iter().any(|&q| p.is_special_case_of(q)) { 0u8 } else { 1 };
                // Heuristic (3): the pattern the `$` markers announce.
                let cue_rank = if p.matches_cue(d.cue) { 0u8 } else { 1 };
                let order_rank =
                    self.config.patterns.iter().position(|&q| q == p).unwrap_or(usize::MAX);
                // Prefer extending an existing compressed edge over pairing
                // two singles when otherwise tied (larger count first).
                let count_rank = u32::MAX - e.count;
                (axis_rank, special_rank, cue_rank, order_rank, count_rank)
            })
            .map(|(i, _)| i)
    }

    /// The edge Alg. 2 makes of one column's dependencies `first`,
    /// `second`, …, `last`, a row apart: `first` and `second` paired as
    /// [`Self::add_dependency`] pairs two singles (`Edge::try_pair`, then
    /// the §IV-A selection), and the pair carried down to `last` in one
    /// step (`Edge::try_extend`), O(1) in the rows. `None` if no pattern
    /// pairs the two, or `last` does not follow the pattern chosen.
    ///
    /// The rows between are not looked at: the caller vouches for them. A
    /// reference filled down a column reads, row by row, ranges whose
    /// first row is the lesser of two that each stay put or move down one
    /// a row, and whose last row the greater; if its first two rows and
    /// its last follow one pattern, so does every row between.
    pub fn stretch_edge(
        &mut self,
        first: &Dependency,
        second: &Dependency,
        last: &Dependency,
    ) -> Option<Edge> {
        let single = Edge::single(first);
        let mut valid = std::mem::take(&mut self.scratch.valid);
        valid.clear();
        for &p in &self.config.patterns {
            if let Some(pair) = single.try_pair(second, p, Axis::Col) {
                if self.config.allows(&pair.meta, Axis::Col) {
                    valid.push((pair, 0));
                }
            }
        }
        let pair = self.select_best(&valid, second).map(|best| valid.swap_remove(best).0);
        self.scratch.valid = valid;
        let pair = pair?;
        let rows = last.dep.row.checked_sub(first.dep.row).filter(|&rows| rows > 0)?;
        let above = Cell { row: last.dep.row - 1, ..last.dep };
        Edge { dep: Range::new(first.dep, above), count: rows, ..pair }.try_extend(last)
    }

    /// The ids, ascending, of the edges with an end in `band`: one window
    /// search of each vertex index.
    pub(crate) fn band_ids(&self, band: Band) -> Vec<EdgeId> {
        let mut ids = Vec::new();
        for index in [&self.prec_index, &self.dep_index] {
            index.for_each_overlapping(band.window(), |_, &id| ids.push(id));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The edges with an end in `band`, in id order.
    pub fn edges_touching(&self, band: Band) -> impl Iterator<Item = &Edge> {
        self.band_ids(band).into_iter().map(|id| self.edges.get(id))
    }

    /// The edges with both ends in `band`, in id order and in the band's
    /// local coordinates: what a graph of that grid alone holds.
    pub fn band_edges(&self, band: Band) -> impl Iterator<Item = Edge> + '_ {
        let own = self.edges_touching(band).filter(move |e| band.holds(e));
        own.map(move |e| Band(0).moved(band, e))
    }

    /// Borrow an edge by id.
    pub(crate) fn peek_edge(&self, id: EdgeId) -> &Edge {
        self.edges.get(id)
    }

    // ---- the mutation funnel ------------------------------------------------
    //
    // Every change to the edge set goes through one of the three functions
    // below (plus the bulk load above and `clear`), which keep the arena,
    // both vertex indexes and the running counts in step; each costs what
    // it changed, never a walk of the graph.

    /// Adds an edge's share to the running counts.
    fn count_in(&mut self, e: &Edge) {
        let count = u64::from(e.count);
        self.dependencies += count;
        self.reduced.add(e.pattern(), count - 1);
        self.mutations += 1;
    }

    /// Takes an edge's share out of the running counts.
    fn count_out(&mut self, e: &Edge) {
        let count = u64::from(e.count);
        self.dependencies -= count;
        self.reduced.sub(e.pattern(), count - 1);
        self.mutations += 1;
    }

    /// Counts an edge that appears (or, `false`, disappears) in the band
    /// both its ends lie in, if they lie in one. (A changed edge keeps its
    /// bands.)
    fn hold(&mut self, e: &Edge, appears: bool) {
        if e.crosses_bands() {
            return;
        }
        let band = Band::of(e.dep.head().col).0 as usize;
        if band >= self.held.len() {
            self.held.resize(band + 1, 0);
        }
        if appears {
            self.held[band] += 1;
        } else {
            self.held[band] -= 1;
        }
    }

    /// An edge that appears.
    fn insert_edge(&mut self, e: Edge) -> EdgeId {
        self.count_in(&e);
        self.hold(&e, true);
        let prec = e.prec;
        let dep = e.dep;
        let id = self.edges.insert(bands_of(&e), e);
        self.prec_index.insert(prec, id);
        self.dep_index.insert(dep, id);
        id
    }

    /// An edge that disappears.
    pub(crate) fn remove_edge(&mut self, id: EdgeId) -> Edge {
        let e = self.edges.remove(bands_of(self.edges.get(id)), id);
        self.count_out(&e);
        self.hold(&e, false);
        let removed_p = self.prec_index.remove(e.prec, &id);
        let removed_d = self.dep_index.remove(e.dep, &id);
        debug_assert!(removed_p && removed_d, "edge {id} must be indexed");
        e
    }

    /// An edge that changes: `new` takes over `id`'s arena slot, and an
    /// index entry is re-keyed in place only if the range it files the
    /// edge under actually changed — extending an FF run leaves the
    /// precedent index alone, a rigid shift that moves nothing is free.
    pub(crate) fn rewrite_edge(&mut self, id: EdgeId, new: Edge) {
        self.count_in(&new);
        let (prec, dep) = (new.prec, new.dep);
        let old = std::mem::replace(self.edges.get_mut(id), new);
        debug_assert_eq!(bands_of(&old), bands_of(self.edges.get(id)), "an edge keeps its bands");
        self.count_out(&old);
        let rekeyed_p = old.prec == prec || self.prec_index.update(old.prec, &id, prec);
        let rekeyed_d = old.dep == dep || self.dep_index.update(old.dep, &id, dep);
        debug_assert!(rekeyed_p && rekeyed_d, "edge {id} must be indexed");
    }

    // ---- querying (Alg. 3) --------------------------------------------------
    //
    // The BFS runs on the compressed graph: each dequeued range is one
    // window search of a vertex index, each hit one `findDep` / `findPrec`
    // on the edge — never a decompression. An edge access then widens what
    // it found by `Edge::close` (`pattern::close_window`): an RR run whose
    // windows read its own column (Fibonacci `SUM(A1:A2)` filled down, a
    // window that reads its own cell) reaches itself, and walked a hop at a
    // time its closure costs one search per window height of rows. Closed,
    // it costs one access, as an RR-Chain's does. The closure only adds
    // cells the walk would reach, so results cover the same cells; it is
    // not an option.

    /// Finds all (direct and transitive) dependents of `r`, returned as
    /// disjoint ranges: [`Self::find_dependents_into`], run into the
    /// thread's own output buffer and copied out, so the returned vector is
    /// the call's one allocation (none when nothing depends on `r`).
    pub fn find_dependents(&self, r: Range) -> Vec<Range> {
        self.collect(r, Direction::Dependents)
    }

    /// The dependents query over `seeds` — one range, or a set of them
    /// whose dependents are found by one BFS that starts from every seed
    /// (the closure of a set is the union of its members' closures, each
    /// found once): `out` is overwritten with the disjoint result ranges,
    /// and the return value is the query's instrumentation. A seed is not
    /// its own dependent, though it may be another seed's. The BFS runs on
    /// the calling thread's buffers, so once they and `out` are warm the
    /// whole query performs zero heap allocations — the steady-state
    /// contract `tests/query_allocations.rs` asserts.
    pub fn find_dependents_into(
        &self,
        seeds: impl AsRef<[Range]>,
        out: &mut Vec<Range>,
    ) -> QueryStats {
        QUERY.with_borrow_mut(|q| self.bfs(seeds.as_ref(), Direction::Dependents, q, out))
    }

    /// Finds all (direct and transitive) precedents of `r`:
    /// [`Self::find_precedents_into`], copied out as
    /// [`Self::find_dependents`] does.
    pub fn find_precedents(&self, r: Range) -> Vec<Range> {
        self.collect(r, Direction::Precedents)
    }

    /// The precedents query (see [`Self::find_dependents_into`] for the
    /// contract).
    pub fn find_precedents_into(
        &self,
        seeds: impl AsRef<[Range]>,
        out: &mut Vec<Range>,
    ) -> QueryStats {
        QUERY.with_borrow_mut(|q| self.bfs(seeds.as_ref(), Direction::Precedents, q, out))
    }

    /// The allocating wrappers' body: the query into the thread's output
    /// buffer, copied into a vector of exactly its length.
    fn collect(&self, r: Range, dir: Direction) -> Vec<Range> {
        QUERY.with_borrow_mut(|q| {
            let mut out = std::mem::take(&mut q.out);
            self.bfs(&[r], dir, q, &mut out);
            let found = out.to_vec();
            q.out = out;
            found
        })
    }

    /// Alg. 3's BFS, its first frontier every range of `seeds`, each edge
    /// access closed over its own run.
    fn bfs(
        &self,
        seeds: &[Range],
        dir: Direction,
        scratch: &mut QueryScratch,
        out: &mut Vec<Range>,
    ) -> QueryStats {
        let QueryScratch { queue, hits, covers, parts, sub_tmp, visited, .. } = scratch;
        out.clear();
        queue.clear();
        // R-tree over the visited ranges for the not-yet-contained check;
        // clearing retains its arena capacity.
        visited.clear();
        let mut stats = QueryStats::default();
        queue.extend(seeds);
        let index = match dir {
            Direction::Dependents => &self.prec_index,
            Direction::Precedents => &self.dep_index,
        };

        while let Some(to_visit) = queue.pop_front() {
            stats.rtree_searches += 1;
            hits.clear();
            stats.nodes_visited += index.for_each_overlapping(to_visit, |vr, &id| {
                hits.push((vr, id));
            });
            for &(vertex_range, id) in hits.iter() {
                stats.edges_accessed += 1;
                let e = self.edges.get(id);
                // findDep/findPrec require the probe to be contained in the
                // edge's vertex: intersect first.
                let probe = to_visit
                    .intersect(&vertex_range)
                    .expect("R-tree returned an overlapping vertex");
                let found = match dir {
                    Direction::Dependents => e.find_dep(probe),
                    Direction::Precedents => e.find_prec(probe),
                };
                // Everything the edge reaches from its one range, in one step.
                let Some(f) = found.map(|f| e.close(f, dir)) else {
                    continue;
                };
                // Subtract the already-visited subset (via the R-tree on the
                // result set), keep the new parts.
                covers.clear();
                visited.for_each_overlapping(f, |c, _| covers.push(c));
                f.subtract_all_into(covers.iter(), parts, sub_tmp);
                for &new_range in parts.iter() {
                    visited.insert(new_range, ());
                    out.push(new_range);
                    queue.push_back(new_range);
                    stats.enqueued += 1;
                }
            }
        }
        stats
    }

    // ---- maintenance (§IV-C) -------------------------------------------------

    /// Clears the dependencies of all formula cells inside `s`: every edge
    /// whose dependent overlaps `s` loses the overlapping part
    /// (`removeDep`). Pure-value cells in `s` are unaffected (they carry no
    /// outgoing-formula edges).
    pub fn clear_cells(&mut self, s: Range) {
        self.clear_where(s, |_| true);
    }

    /// [`Self::clear_cells`] for the precedents in `band` alone: the
    /// formula cells inside `s` stop reading that band and keep every
    /// other read.
    pub fn clear_reads(&mut self, s: Range, band: Band) {
        self.clear_where(s, |e| Band::of(e.prec.head().col) == band);
    }

    /// `clear_cells` over the edges `picks` picks.
    fn clear_where(&mut self, s: Range, picks: impl Fn(&Edge) -> bool) {
        let mut ids = std::mem::take(&mut self.scratch.ids);
        ids.clear();
        self.dep_index.for_each_overlapping(s, |_, &id| ids.push(id));
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&id| picks(self.edges.get(id)));
        let mut parts = std::mem::take(&mut self.scratch.parts);
        for &id in &ids {
            parts.clear();
            self.edges.get(id).remove_dep_into(s, &mut parts);
            // The first replacement part takes over the edge's slot and
            // index entries (a split that keeps the precedent vertex —
            // the common case for RR/RF/FR runs — costs zero prec-index
            // churn); any further part is a new edge.
            let mut parts = parts.drain(..);
            match parts.next() {
                Some(first) => self.rewrite_edge(id, first),
                None => drop(self.remove_edge(id)),
            }
            for part in parts {
                self.insert_edge(part);
            }
        }
        self.scratch.ids = ids;
        parts.clear();
        self.scratch.parts = parts;
    }

    /// Replaces the dependencies of the formula cell `cell`: clears its old
    /// ones, then compresses the new ones in (update = clear + insert).
    pub fn update_cell(&mut self, cell: Cell, new_precs: &[Dependency]) {
        self.clear_cells(Range::cell(cell));
        for d in new_precs {
            debug_assert_eq!(d.dep, cell);
            self.add_dependency(d);
        }
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.edges.clear();
        self.prec_index.clear();
        self.dep_index.clear();
        self.deps_inserted = 0;
        self.dependencies = 0;
        self.reduced = PatternCounts::default();
        self.held.clear();
        self.mutations += 1;
    }

    // ---- stats -----------------------------------------------------------------

    /// Snapshot of graph size and per-pattern compression effectiveness.
    /// Edges, dependencies and the per-pattern reduction are running
    /// counts; only the distinct-vertex count walks the edges, on the
    /// thread's own vertex set, so a poll repeated on one thread allocates
    /// nothing once that set is warm.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            edges: self.edges.len(),
            vertices: count_vertices(self.edges.iter().map(|(_, e)| e)),
            dependencies: self.dependencies,
            reduced: self.reduced,
        }
    }

    /// Edges reduced per pattern, `Σ (count − 1)`: a running count, O(1).
    pub fn reduced(&self) -> PatternCounts {
        self.reduced
    }

    /// Number of edges with both ends in `band`: a running count, O(1).
    pub fn band_len(&self, band: Band) -> usize {
        self.held.get(band.0 as usize).copied().unwrap_or(0)
    }

    /// A stamp that moves with every change to the edge set, so a poller
    /// that remembers it knows when the one figure that needs a walk —
    /// [`Self::stats`]' vertex count — can have gone stale.
    pub fn mutation_stamp(&self) -> u64 {
        self.mutations
    }

    /// Total dependencies inserted over the graph's lifetime (`|E'|` for a
    /// build-once graph).
    pub fn dependencies_inserted(&self) -> u64 {
        self.deps_inserted
    }

    /// Expands every compressed edge back into raw dependencies (testing /
    /// verification; O(|E'|)).
    pub fn decompress_all(&self) -> Vec<Dependency> {
        let mut out = Vec::new();
        for (_, e) in self.edges.iter() {
            out.extend(e.decompress());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: &str) -> Range {
        Range::parse_a1(s).unwrap()
    }

    fn d(prec: &str, dep: &str) -> Dependency {
        Dependency::new(r(prec), Cell::parse_a1(dep).unwrap())
    }

    /// Sorts ranges for order-insensitive comparison.
    fn sorted(mut v: Vec<Range>) -> Vec<Range> {
        v.sort();
        v
    }

    /// The total cell area of a range list (ranges must be disjoint).
    fn area(v: &[Range]) -> u64 {
        v.iter().map(Range::area).sum()
    }

    #[test]
    fn fig3_uncompressed_graph() {
        // Fig. 3: B1=SUM(A1:A3), B2=SUM(A1:A3), C1=B1+B3, C2=AVG(B2:B3).
        let mut g = FormulaGraph::nocomp();
        g.add_dependency(&d("A1:A3", "B1"));
        g.add_dependency(&d("A1:A3", "B2"));
        g.add_dependency(&d("B1", "C1"));
        g.add_dependency(&d("B3", "C1"));
        g.add_dependency(&d("B2:B3", "C2"));
        assert_eq!(g.num_edges(), 5);

        // Dependents of A1 = {B1, B2, C1, C2} (paper's example).
        let deps = g.find_dependents(r("A1"));
        assert_eq!(area(&deps), 4);
        for cell in ["B1", "B2", "C1", "C2"] {
            assert!(deps.iter().any(|x| x.contains(&r(cell))), "missing {cell}");
        }
    }

    #[test]
    fn fig4a_compresses_to_one_edge() {
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("A1:B3", "C1"));
        g.add_dependency(&d("A2:B4", "C2"));
        g.add_dependency(&d("A3:B5", "C3"));
        g.add_dependency(&d("A4:B6", "C4"));
        assert_eq!(g.num_edges(), 1);
        let e = g.edges().next().unwrap();
        assert_eq!(e.pattern(), PatternType::RR);
        assert_eq!(e.prec, r("A1:B6"));
        assert_eq!(e.dep, r("C1:C4"));
        assert_eq!(e.count, 4);
    }

    #[test]
    fn fig4_all_patterns_compress() {
        // 4b RF.
        let mut g = FormulaGraph::taco();
        for (p, c) in [("A1:B4", "C1"), ("A2:B4", "C2"), ("A3:B4", "C3"), ("A4:B4", "C4")] {
            g.add_dependency(&d(p, c));
        }
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges().next().unwrap().pattern(), PatternType::RF);

        // 4c FR.
        let mut g = FormulaGraph::taco();
        for (p, c) in [("A1:B1", "C1"), ("A1:B2", "C2"), ("A1:B3", "C3")] {
            g.add_dependency(&d(p, c));
        }
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges().next().unwrap().pattern(), PatternType::FR);

        // 4d FF.
        let mut g = FormulaGraph::taco();
        for c in ["C1", "C2", "C3"] {
            g.add_dependency(&d("A1:B3", c));
        }
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges().next().unwrap().pattern(), PatternType::FF);
    }

    /// A column's dependencies given by their first two rows and their
    /// last make the edge adding them one by one makes, for every pattern;
    /// a last row off the pattern makes none.
    #[test]
    fn a_stretch_edge_is_the_edge_its_rows_compress_to() {
        // Per pattern, the precedent of row `row` of a stretch in column C.
        let shapes: [fn(u32) -> Range; 5] = [
            |row| Range::from_coords(1, row, 2, row + 2), // RR
            |row| Range::from_coords(1, row, 1, 90),      // RF
            |row| Range::from_coords(1, 1, 2, row),       // FR
            |_| Range::from_coords(1, 1, 2, 3),           // FF
            |row| Range::cell(Cell::new(3, row - 1)),     // RR-Chain
        ];
        for prec in shapes {
            let dep = |row| Dependency::new(prec(row), Cell::new(3, row));
            for last in [3, 4, 40] {
                let mut g = FormulaGraph::taco();
                (2..=last).for_each(|row| g.add_dependency(&dep(row)));
                assert_eq!(g.num_edges(), 1);
                let edge = g.stretch_edge(&dep(2), &dep(3), &dep(last));
                assert_eq!(edge.as_ref(), g.edges().next(), "rows 2..={last}");
            }
            let off = Dependency::new(r("Z9"), Cell::new(3, 40));
            assert_eq!(FormulaGraph::taco().stretch_edge(&dep(2), &dep(3), &off), None);
        }
    }

    #[test]
    fn fig9_chain_pattern_selected_over_rr() {
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("A1", "A2"));
        g.add_dependency(&d("A2", "A3"));
        g.add_dependency(&d("A3", "A4"));
        assert_eq!(g.num_edges(), 1);
        let e = g.edges().next().unwrap();
        assert_eq!(e.pattern(), PatternType::RRChain);
        assert_eq!(e.prec, r("A1:A3"));
        assert_eq!(e.dep, r("A2:A4"));
    }

    #[test]
    fn chain_query_single_pass() {
        // 1000-cell chain: dependents of the head must be found with few
        // edge accesses thanks to the transitive findDep.
        let mut g = FormulaGraph::taco();
        for row in 2..=1000u32 {
            g.add_dependency(&Dependency::new(
                Range::cell(Cell::new(1, row - 1)),
                Cell::new(1, row),
            ));
        }
        assert_eq!(g.num_edges(), 1);
        let mut deps = Vec::new();
        let stats = g.find_dependents_into(r("A1"), &mut deps);
        assert_eq!(area(&deps), 999);
        assert!(
            stats.edges_accessed <= 4,
            "chain should resolve transitively, got {} accesses",
            stats.edges_accessed
        );
    }

    #[test]
    fn rr_without_chain_config_uses_rr() {
        let mut g = FormulaGraph::new(Config::taco_without(PatternType::RRChain));
        g.add_dependency(&d("A1", "A2"));
        g.add_dependency(&d("A2", "A3"));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges().next().unwrap().pattern(), PatternType::RR);
    }

    #[test]
    fn fig8_insert_into_existing_column_edge() {
        // Setup of Fig. 8: C1:C3 reference $B$1:Bi (FR) and A1 (FF);
        // D4 references B1:B4 (single). Insert SUM($B$1:B4)*? at C4: its
        // B-reference must extend the FR edge column-wise.
        let mut g = FormulaGraph::taco();
        for (p, c) in [("B1", "C1"), ("B1:B2", "C2"), ("B1:B3", "C3")] {
            let mut dep = d(p, c);
            dep.cue = crate::Cue { head_fixed: true, tail_fixed: false };
            g.add_dependency(&dep);
        }
        for c in ["C1", "C2", "C3"] {
            g.add_dependency(&d("A1", c));
        }
        g.add_dependency(&d("B1:B4", "D4"));
        assert_eq!(g.num_edges(), 3);

        // The insert at C4.
        let mut new_dep = d("B1:B4", "C4");
        new_dep.cue = crate::Cue { head_fixed: true, tail_fixed: false };
        g.add_dependency(&new_dep);
        assert_eq!(g.num_edges(), 3);

        // The FR edge must now cover C1:C4 (column-wise compression chosen
        // over pairing with D4 row-wise).
        let fr = g.edges().find(|e| e.pattern() == PatternType::FR).unwrap();
        assert_eq!(fr.dep, r("C1:C4"));
        assert_eq!(fr.prec, r("B1:B4"));
        // D4 stays single.
        assert!(g.edges().any(|e| e.is_single() && e.dep == r("D4")));
    }

    #[test]
    fn query_compressed_graph_fig8() {
        // Step-3 graph of Fig. 8; find dependents of B2 — paper expects
        // C2:C4 from the FR edge (C1 does not depend on B2) plus D4.
        let mut g = FormulaGraph::taco();
        for (p, c) in [("B1", "C1"), ("B1:B2", "C2"), ("B1:B3", "C3"), ("B1:B4", "C4")] {
            g.add_dependency(&d(p, c));
        }
        g.add_dependency(&d("B1:B4", "D4"));
        let deps = g.find_dependents(r("B2"));
        assert_eq!(area(&deps), 4);
        assert!(deps.iter().any(|x| x.contains(&r("C2"))));
        assert!(deps.iter().any(|x| x.contains(&r("C4"))));
        assert!(deps.iter().any(|x| x.contains(&r("D4"))));
        assert!(!deps.iter().any(|x| x.contains(&r("C1"))));
    }

    #[test]
    fn transitive_dependents_across_edges() {
        // A1 → B1:B3 (three formulae), B1:B3 → C1 (SUM).
        let mut g = FormulaGraph::taco();
        for c in ["B1", "B2", "B3"] {
            g.add_dependency(&d("A1", c));
        }
        g.add_dependency(&d("B1:B3", "C1"));
        let deps = g.find_dependents(r("A1"));
        assert_eq!(area(&deps), 4); // B1,B2,B3,C1
    }

    #[test]
    fn find_precedents_dual() {
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("A1:B3", "C1"));
        g.add_dependency(&d("A2:B4", "C2"));
        g.add_dependency(&d("C1:C2", "D1"));
        let precs = g.find_precedents(r("D1"));
        // C1:C2 directly; A1:B4 transitively.
        assert!(precs.iter().any(|x| x.contains(&r("C1"))));
        assert!(precs.iter().any(|x| x.contains(&r("A1"))));
        assert!(precs.iter().any(|x| x.contains(&r("B4"))));
        assert_eq!(area(&precs), 2 + 8);
    }

    #[test]
    fn no_dependents_returns_empty() {
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("A1", "B1"));
        assert!(g.find_dependents(r("Z99")).is_empty());
        assert!(g.find_precedents(r("A1")).is_empty());
    }

    #[test]
    fn clear_cells_splits_compressed_edge() {
        let mut g = FormulaGraph::taco();
        for (p, c) in [("A1:B3", "C1"), ("A2:B4", "C2"), ("A3:B5", "C3"), ("A4:B6", "C4")] {
            g.add_dependency(&d(p, c));
        }
        assert_eq!(g.num_edges(), 1);
        g.clear_cells(r("C2"));
        assert_eq!(g.num_edges(), 2);
        let deps = sorted(g.edges().map(|e| e.dep).collect());
        assert_eq!(deps, vec![r("C1"), r("C3:C4")]);
        // Dependents of A4 must no longer include C2.
        let found = g.find_dependents(r("A4"));
        assert!(!found.iter().any(|x| x.contains(&r("C2"))));
        assert!(found.iter().any(|x| x.contains(&r("C3"))));
    }

    #[test]
    fn clear_then_reinsert_recompresses() {
        let mut g = FormulaGraph::taco();
        for (p, c) in [("A1:B3", "C1"), ("A2:B4", "C2"), ("A3:B5", "C3")] {
            g.add_dependency(&d(p, c));
        }
        g.clear_cells(r("C2"));
        assert_eq!(g.num_edges(), 2);
        g.add_dependency(&d("A2:B4", "C2"));
        // The re-inserted dependency can merge back into a neighbour edge.
        assert!(g.num_edges() <= 2);
        let all = g.find_dependents(r("A3"));
        assert_eq!(area(&all), 3); // C1,C2,C3 all reference A3
    }

    #[test]
    fn update_cell_replaces_dependencies() {
        let mut g = FormulaGraph::taco();
        g.add_dependency(&d("A1", "B1"));
        g.update_cell(Cell::parse_a1("B1").unwrap(), &[d("A2", "B1"), d("A3", "B1")]);
        assert!(g.find_dependents(r("A1")).is_empty());
        assert_eq!(area(&g.find_dependents(r("A2"))), 1);
        assert_eq!(area(&g.find_dependents(r("A3"))), 1);
    }

    #[test]
    fn nocomp_and_taco_agree_on_queries() {
        // Build the same messy sheet both ways; answers must be identical
        // cell sets (lossless compression).
        let deps = [
            d("A1:B3", "C1"),
            d("A2:B4", "C2"),
            d("A3:B5", "C3"),
            d("A1", "D1"),
            d("A1", "D2"),
            d("A1", "D3"),
            d("C1:C3", "E1"),
            d("D1:D3", "E2"),
            d("E1", "F1"),
            d("F1", "F2"),
            d("F2", "F3"),
        ];
        let taco = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let nocomp = FormulaGraph::build(Config::nocomp(), deps.iter().copied());
        assert!(taco.num_edges() < nocomp.num_edges());

        for probe in ["A1", "A2", "B3", "C2", "D2", "E1", "F1", "A1:B5"] {
            let a = cells_of(&taco.find_dependents(r(probe)));
            let b = cells_of(&nocomp.find_dependents(r(probe)));
            assert_eq!(a, b, "dependents({probe}) disagree");
            let a = cells_of(&taco.find_precedents(r(probe)));
            let b = cells_of(&nocomp.find_precedents(r(probe)));
            assert_eq!(a, b, "precedents({probe}) disagree");
        }
    }

    #[test]
    fn stats_account_per_pattern() {
        let mut g = FormulaGraph::taco();
        // RR run of 4 (reduces 3).
        for (p, c) in [("A1:B3", "C1"), ("A2:B4", "C2"), ("A3:B5", "C3"), ("A4:B6", "C4")] {
            g.add_dependency(&d(p, c));
        }
        // FF run of 3 (reduces 2).
        for c in ["E1", "E2", "E3"] {
            g.add_dependency(&d("G1:G9", c));
        }
        // One single.
        g.add_dependency(&d("H1", "I1"));
        let s = g.stats();
        assert_eq!(s.edges, 3);
        assert_eq!(s.dependencies, 8);
        assert_eq!(s.reduced.rr, 3);
        assert_eq!(s.reduced.ff, 2);
        assert_eq!(s.edges_reduced(), 5);
        assert!((s.remaining_fraction() - 3.0 / 8.0).abs() < 1e-12);
        assert_eq!(g.dependencies_inserted(), 8);
    }

    #[test]
    fn decompress_all_round_trips() {
        let deps = vec![
            d("A1:B3", "C1"),
            d("A2:B4", "C2"),
            d("A3:B5", "C3"),
            d("G1:G9", "E1"),
            d("G1:G9", "E2"),
            d("H1", "I1"),
        ];
        let g = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let mut got: Vec<(Range, Cell)> =
            g.decompress_all().into_iter().map(|x| (x.prec, x.dep)).collect();
        let mut want: Vec<(Range, Cell)> = deps.into_iter().map(|x| (x.prec, x.dep)).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn in_row_config_only_compresses_same_row_refs() {
        let mut g = FormulaGraph::new(Config::taco_in_row());
        // Derived column: Bi = Ai * 2 — same-row references, compresses.
        for row in 1..=5u32 {
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(1, row)), Cell::new(2, row)));
        }
        // Sliding windows (cross-row): must NOT compress under InRow.
        for (p, c) in [("D1:D3", "E2"), ("D2:D4", "E3"), ("D3:D5", "E4")] {
            g.add_dependency(&d(p, c));
        }
        let s = g.stats();
        assert_eq!(s.reduced.rr, 4);
        assert_eq!(s.edges, 1 + 3);
    }

    #[test]
    fn row_axis_compression_works() {
        // Formulae along row 10, each referencing the three cells above.
        let mut g = FormulaGraph::taco();
        for col in 1..=6u32 {
            g.add_dependency(&Dependency::new(
                Range::new(Cell::new(col, 7), Cell::new(col, 9)),
                Cell::new(col, 10),
            ));
        }
        assert_eq!(g.num_edges(), 1);
        let e = g.edges().next().unwrap();
        assert_eq!(e.axis, Axis::Row);
        assert_eq!(e.count, 6);
        // Query still works.
        let deps = g.find_dependents(Range::cell(Cell::new(3, 8)));
        assert_eq!(deps, vec![Range::cell(Cell::new(3, 10))]);
    }

    #[test]
    fn self_overlapping_rr_terminates() {
        // The Fig. 2 shape: N-column formulae reference the N column itself
        // (Ni depends on N(i-1)); prec and dep bounding ranges overlap.
        let mut g = FormulaGraph::taco();
        for row in 3..=50u32 {
            // N col = 14, M col = 13, A col = 1.
            g.add_dependency(&Dependency::new(
                Range::new(Cell::new(1, row - 1), Cell::new(1, row)),
                Cell::new(14, row),
            ));
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(13, row)), Cell::new(14, row)));
            g.add_dependency(&Dependency::new(
                Range::cell(Cell::new(14, row - 1)),
                Cell::new(14, row),
            ));
        }
        let s = g.stats();
        assert!(s.edges <= 6, "Fig. 2 compresses to a handful of edges, got {}", s.edges);
        // Updating A10 must reach every N-row at or below 10.
        let deps = g.find_dependents(Range::cell(Cell::new(1, 10)));
        let total: u64 = deps.iter().map(Range::area).sum();
        assert_eq!(total, 41);
    }

    fn cells_of(ranges: &[Range]) -> std::collections::BTreeSet<Cell> {
        ranges.iter().flat_map(|r| r.cells()).collect()
    }

    /// Step 1 of Alg. 2 as the paper words it — shift the cell by one in
    /// all four directions and ask the index about each: the id set
    /// `collect_candidates` must reproduce with its one window search.
    fn point_probe_candidates(g: &FormulaGraph, cell: Cell) -> Vec<EdgeId> {
        let mut ids = Vec::new();
        for (dc, dr) in [(0, -1), (0, 1), (-1, 0), (1, 0)] {
            if let Ok(shifted) = cell.offset(taco_grid::Offset::new(dc, dr)) {
                g.dep_index.for_each_overlapping(Range::cell(shifted), |_, &id| ids.push(id));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    #[test]
    fn window_probe_finds_exactly_the_point_probe_candidates() {
        use taco_grid::{MAX_COL, MAX_ROW};
        let mut g = FormulaGraph::taco();
        // Column runs, row runs, an every-other-row run of singles, singles
        // (two of them on one cell), and formulae in the grid's first
        // and last cells, where the window is clamped.
        for row in 2..=7u32 {
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(1, row)), Cell::new(3, row)));
            g.add_dependency(&Dependency::new(r("A1:A2"), Cell::new(5, row + 1)));
        }
        for col in 2..=9u32 {
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(col, 12)), Cell::new(col, 10)));
        }
        for row in [2u32, 4, 6, 8] {
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(8, row)), Cell::new(7, row)));
        }
        for (p, c) in [("K1", "D5"), ("K2", "D5"), ("K3", "F3"), ("K4", "A1"), ("K5", "H9")] {
            g.add_dependency(&d(p, c));
        }
        let last = Cell::new(MAX_COL, MAX_ROW);
        g.add_dependency(&Dependency::new(r("K6"), last));
        g.add_dependency(&Dependency::new(r("K7"), Cell::new(MAX_COL, MAX_ROW - 2)));
        g.add_dependency(&Dependency::new(r("K8"), Cell::new(MAX_COL - 1, MAX_ROW)));
        assert!(g.edges().any(|e| e.axis == Axis::Row && !e.is_single()), "a row run");
        assert!(g.edges().any(|e| e.axis == Axis::Col && !e.is_single()), "a column run");

        let mut got = Vec::new();
        let corner = Range::new(Cell::new(MAX_COL - 3, MAX_ROW - 3), last);
        for cell in r("A1:L14").cells().chain(corner.cells()) {
            g.collect_candidates(cell, &mut got);
            assert_eq!(got, point_probe_candidates(&g, cell), "candidates around {cell}");
        }
    }

    /// Regression: a query does not depend on what its thread's buffers
    /// held — results *and* instrumentation are identical on a fresh
    /// thread's buffers and on this one's, reused (dirty) across queries
    /// and directions, and the allocating wrapper returns the same ranges.
    #[test]
    fn scratch_and_plain_queries_are_identical() {
        let mut g = FormulaGraph::taco();
        // A messy mix: sliding windows, a chain, FF fan-out, singles.
        for (p, c) in [("A1:B3", "C1"), ("A2:B4", "C2"), ("A3:B5", "C3"), ("A4:B6", "C4")] {
            g.add_dependency(&d(p, c));
        }
        for c in ["E1", "E2", "E3"] {
            g.add_dependency(&d("C1:C4", c));
        }
        g.add_dependency(&d("E1", "E2")); // overlap with the FF dependents
        for row in 2..=40u32 {
            g.add_dependency(&Dependency::new(
                Range::cell(Cell::new(7, row - 1)),
                Cell::new(7, row),
            ));
        }
        g.add_dependency(&d("G40", "H1"));

        // Each query on a thread of its own, whose buffers start cold.
        let on_fresh_thread = |dir: Direction, probe: Range| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let mut out = Vec::new();
                        let stats = match dir {
                            Direction::Dependents => g.find_dependents_into(probe, &mut out),
                            Direction::Precedents => g.find_precedents_into(probe, &mut out),
                        };
                        (out, stats)
                    })
                    .join()
                    .expect("the query thread panicked")
            })
        };
        let mut out = Vec::new();
        for probe in ["A1", "A3:B3", "C2", "E1", "G1", "G5:G9", "Z99", "A1:H40"] {
            let probe = r(probe);
            let (fresh, fresh_stats) = on_fresh_thread(Direction::Dependents, probe);
            let stats = g.find_dependents_into(probe, &mut out);
            assert_eq!(out, fresh, "dependents({probe}) results diverge");
            assert_eq!(stats, fresh_stats, "dependents({probe}) stats diverge");
            assert_eq!(g.find_dependents(probe), fresh, "dependents({probe}) wrapper diverges");

            let (fresh, fresh_stats) = on_fresh_thread(Direction::Precedents, probe);
            let stats = g.find_precedents_into(probe, &mut out);
            assert_eq!(out, fresh, "precedents({probe}) results diverge");
            assert_eq!(stats, fresh_stats, "precedents({probe}) stats diverge");
            assert_eq!(g.find_precedents(probe), fresh, "precedents({probe}) wrapper diverges");
        }
    }

    /// A query over several seeds finds the union of what each seed's
    /// own query finds — a seed another seed reaches included — in
    /// disjoint ranges; a query over none finds nothing.
    #[test]
    fn a_query_over_seeds_finds_the_union_of_their_closures() {
        let mut g = FormulaGraph::taco();
        for row in 1..=30u32 {
            let window = Range::from_coords(1, row, 1, row + 2);
            g.add_dependency(&Dependency::new(window, Cell::new(2, row)));
            g.add_dependency(&Dependency::new(Range::cell(Cell::new(2, row)), Cell::new(3, row)));
        }
        g.add_dependency(&d("C1:C30", "D1"));
        g.add_dependency(&d("D1", "E5"));
        let mut out = Vec::new();
        for seeds in [&["A1"][..], &["A1", "A2"], &["A3", "A20", "B7"], &["A1:A4", "D1", "Z9"]] {
            let seeds: Vec<Range> = seeds.iter().map(|s| r(s)).collect();
            let both = g.find_dependents_into(&seeds, &mut out);
            let mut want = std::collections::BTreeSet::new();
            for &seed in &seeds {
                want.extend(cells_of(&g.find_dependents(seed)));
            }
            let found = g.find_dependents_into(&seeds, &mut out);
            assert_eq!(found, both, "{seeds:?}: the queries between change nothing");
            assert_eq!(cells_of(&out), want, "{seeds:?}");
            let cells: usize = out.iter().map(|r| r.cells().count()).sum();
            assert_eq!(cells, want.len(), "{seeds:?}: the ranges are disjoint");
        }
        let none: [Range; 0] = [];
        assert_eq!(g.find_dependents_into(none, &mut out).rtree_searches, 0);
        assert!(out.is_empty());
    }

    /// Bulk-loaded (build / loaded edges) and incrementally-grown graphs give
    /// identical query answers, and the build-time repack only tightens
    /// the index (never changes results).
    #[test]
    fn bulk_packed_and_incremental_graphs_agree() {
        let deps: Vec<Dependency> = (2..=60u32)
            .flat_map(|row| {
                [
                    Dependency::new(Range::from_coords(1, row - 1, 2, row + 1), Cell::new(3, row)),
                    Dependency::new(Range::cell(Cell::new(3, row)), Cell::new(4, row)),
                ]
            })
            .collect();
        // `build` repacks; the manual loop leaves the insertion-built tree.
        let packed = FormulaGraph::build(Config::taco_full(), deps.iter().copied());
        let mut grown = FormulaGraph::taco();
        for d in &deps {
            grown.add_dependency(d);
        }
        assert_eq!(packed.num_edges(), grown.num_edges());
        // A graph the grown one's edges are loaded into is bulk-loaded too.
        let mut restored = FormulaGraph::taco();
        restored.load_edges(grown.edges().cloned());
        for probe in ["A1", "B30", "C10", "D59", "A1:B60"] {
            let probe = r(probe);
            assert_eq!(
                cells_of(&packed.find_dependents(probe)),
                cells_of(&grown.find_dependents(probe)),
                "dependents({probe})"
            );
            assert_eq!(
                cells_of(&restored.find_dependents(probe)),
                cells_of(&grown.find_dependents(probe)),
                "restored dependents({probe})"
            );
            assert_eq!(
                cells_of(&packed.find_precedents(probe)),
                cells_of(&grown.find_precedents(probe)),
                "precedents({probe})"
            );
        }
        // The packed index never visits more nodes than the grown one.
        for probe in ["A1", "C10", "A1:B60"] {
            let probe = r(probe);
            let mut out = Vec::new();
            let p = packed.find_dependents_into(probe, &mut out);
            let g = grown.find_dependents_into(probe, &mut out);
            assert!(
                p.nodes_visited <= g.nodes_visited,
                "packed visited {} > grown {} on {probe}",
                p.nodes_visited,
                g.nodes_visited
            );
        }
    }
}
