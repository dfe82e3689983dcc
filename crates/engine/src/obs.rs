//! Engine observability: the pre-registered handle bundle a workbook
//! records through (its WAL records through `taco_store::WalObs`). All
//! registration (name lookups, label formatting, handle allocation)
//! happens on the cold attach path; the recalculation hot path then
//! records through plain field access — atomic counter bumps, histogram
//! bucket bumps, and fixed-size span pushes, none of which allocate.

use crate::engine::Engine;
use taco_core::{FormulaGraph, GraphStats};
use taco_obs::{Counter, Gauge, Histogram, Obs, SpanCat, SpanGuard, Tracer};

/// Metric and tracer handles for one workbook's recalculation engine.
pub(crate) struct EngineObs {
    /// `taco_recalc_ns` — what each `workbook.recalc` span measured.
    recalc_ns: Histogram,
    /// `taco_recalc_cells` — cells evaluated per recalculation.
    recalc_cells: Histogram,
    /// `taco_dirty_depth` — dirty-set size at recalc entry.
    dirty_depth: Histogram,
    /// `taco_demand_closure_cells` — needed-set size per demand recalc.
    demand_closure_cells: Histogram,
    /// `taco_profile_order_ns` / `taco_profile_eval_ns` — what each
    /// `sheet.order` / `sheet.eval` span measured: the ordering from one
    /// root of a pass, the evaluation of one sheet's stretch of the order.
    profile_order_ns: Histogram,
    profile_eval_ns: Histogram,
    /// `taco_apply_ns` — what each `workbook.apply` span measured.
    apply_ns: Histogram,
    /// `taco_recalcs_total` / `taco_recalc_cells_total` — lifetime counts.
    recalcs_total: Counter,
    recalc_cells_total: Counter,
    /// Graph-shape gauges, labeled `book="<name>"`, refreshed after each
    /// recalculation (the graph only changes on edits, so any recalc is a
    /// current poll point): the sheets' bands — the edges with both ends
    /// on one sheet, summed over the sheets — and `taco_cross_edges`, the
    /// edges between sheets.
    graph_edges: Gauge,
    graph_vertices: Gauge,
    graph_dependencies: Gauge,
    graph_edges_reduced: Gauge,
    cross_edges: Gauge,
    /// `taco_formula_cells` / `taco_formula_templates` — formula cells,
    /// and the distinct formulas they hold (an autofilled run is one):
    /// their ratio is how well the *evaluator* compresses a workbook,
    /// beside edges per dependency for the graph. Labeled and refreshed
    /// like the graph gauges.
    formula_cells: Gauge,
    formula_templates: Gauge,
    /// `taco_recalc_folds_carried_total` — aggregate folds resumed from a
    /// remembered state instead of started over.
    folds_carried: Counter,
    /// The sheets' summed lifetime counts of such folds already added.
    folds_carried_seen: u64,
    /// The graph's mutation stamp when the graph gauges were last walked
    /// (`None`: never): it moves iff the graph changed.
    vertices_as_of: Option<u64>,
    /// Walks over the edges made for the vertex gauge (test
    /// instrumentation).
    #[cfg(test)]
    pub(crate) edge_walks: u64,
    tracer: Tracer,
}

impl EngineObs {
    /// Registers the engine metric set against `obs`. `book` labels the
    /// graph gauges so multiple workbooks on one hub stay distinct.
    pub(crate) fn new(obs: &Obs, book: &str) -> EngineObs {
        let m = &obs.metrics;
        let book_label = format!("book=\"{book}\"");
        EngineObs {
            recalc_ns: m.histogram("taco_recalc_ns"),
            recalc_cells: m.histogram("taco_recalc_cells"),
            dirty_depth: m.histogram("taco_dirty_depth"),
            demand_closure_cells: m.histogram("taco_demand_closure_cells"),
            profile_order_ns: m.histogram("taco_profile_order_ns"),
            profile_eval_ns: m.histogram("taco_profile_eval_ns"),
            apply_ns: m.histogram("taco_apply_ns"),
            recalcs_total: m.counter("taco_recalcs_total"),
            recalc_cells_total: m.counter("taco_recalc_cells_total"),
            graph_edges: m.gauge_with("taco_graph_edges", &book_label),
            graph_vertices: m.gauge_with("taco_graph_vertices", &book_label),
            graph_dependencies: m.gauge_with("taco_graph_dependencies", &book_label),
            graph_edges_reduced: m.gauge_with("taco_graph_edges_reduced", &book_label),
            cross_edges: m.gauge_with("taco_cross_edges", &book_label),
            formula_cells: m.gauge_with("taco_formula_cells", &book_label),
            formula_templates: m.gauge_with("taco_formula_templates", &book_label),
            folds_carried: m.counter("taco_recalc_folds_carried_total"),
            folds_carried_seen: 0,
            vertices_as_of: None,
            #[cfg(test)]
            edge_walks: 0,
            tracer: obs.tracer.clone(),
        }
    }

    /// Starts the `workbook.recalc` span as a tree-building guard: the
    /// `sheet.*` spans recorded while it is live nest under it, and it
    /// nests under whatever request context the calling thread carries.
    /// Set `a` (cells) and `b` (nodes) before finishing it; the duration
    /// [`SpanGuard::finish`] returns goes to [`EngineObs::on_recalc`].
    pub(crate) fn recalc_guard(&self) -> SpanGuard {
        self.tracer.span_guard("workbook.recalc", SpanCat::Recalc)
    }

    /// Records one completed recalculation's metrics; `dur_ns` is what
    /// its [`EngineObs::recalc_guard`] span recorded.
    pub(crate) fn on_recalc(&self, dur_ns: u64, cells: usize, dirty_before: usize) {
        self.recalc_ns.record(dur_ns);
        self.recalc_cells.record(cells as u64);
        self.dirty_depth.record(dirty_before as u64);
        self.recalcs_total.inc();
        self.recalc_cells_total.add(cells as u64);
    }

    /// Starts the `workbook.demand` span guard wrapping one demand-driven
    /// recalculation. Set `a` (cells evaluated) before it drops.
    pub(crate) fn demand_guard(&self) -> SpanGuard {
        self.tracer.span_guard("workbook.demand", SpanCat::Demand)
    }

    /// Records the needed-set size of one demand-driven recalculation:
    /// the cells it evaluated.
    pub(crate) fn on_demand(&self, closure: usize) {
        self.demand_closure_cells.record(closure as u64);
    }

    /// Records the `sheet.order` span of the ordering from one root of a
    /// pass, begun at `start_ns`, which appended `cells` cells in `nodes`
    /// nodes.
    pub(crate) fn on_order(&self, start_ns: u64, cells: u64, nodes: u64) {
        let dur =
            self.tracer.record_since("sheet.order", SpanCat::SheetLevel, start_ns, cells, nodes);
        self.profile_order_ns.record(dur);
    }

    /// Records the `sheet.eval` span of one evaluation of a sheet's
    /// stretch of the order, begun at `start_ns`; its payload the cells
    /// and nodes the pass has evaluated on the sheet so far.
    pub(crate) fn on_sheet_eval(&self, start_ns: u64, sheet: &Engine) {
        let (cells, nodes): (u64, u64) =
            sheet.last_pass().map_or((0, 0), |p| (p.cells.into(), p.nodes.into()));
        let dur =
            self.tracer.record_since("sheet.eval", SpanCat::SheetLevel, start_ns, cells, nodes);
        self.profile_eval_ns.record(dur);
    }

    /// Records the `workbook.apply` span of one edit or batch (begun at
    /// `start_ns`): staging `records` and marking their dependents, which
    /// found `dirty` ranges. The paper's control latency — what the user
    /// waits for before the recalculation — so it takes the recalc
    /// category.
    pub(crate) fn on_apply(&self, start_ns: u64, records: usize, dirty: usize) {
        let (records, dirty) = (records as u64, dirty as u64);
        let dur =
            self.tracer.record_since("workbook.apply", SpanCat::Recalc, start_ns, records, dirty);
        self.apply_ns.record(dur);
    }

    /// Refreshes the graph-shape and formula gauges from the graph and
    /// the sheets. Formula cells, templates and folds carried are running
    /// counts the sheets keep, read in O(sheets). The graph figures — the
    /// sheets' bands summed, and the edges between them — take one walk
    /// over the edges, made only when the graph's mutation stamp says it
    /// changed since the last: a recalculation that follows value edits
    /// alone walks nothing.
    ///
    /// Recorded as an `engine.gauges` span under the caller's context,
    /// its payload the sheets read and the edges walked (0 without a
    /// walk).
    pub(crate) fn refresh_gauges<'a>(
        &mut self,
        graph: &FormulaGraph,
        sheets: impl Iterator<Item = &'a Engine>,
    ) {
        let start = self.now_ns();
        let (mut sheet_count, mut walked) = (0u64, 0u64);
        let (mut cells, mut templates, mut carried) = (0usize, 0usize, 0u64);
        for sheet in sheets {
            cells += sheet.formula_cells();
            templates += sheet.formula_templates();
            carried += sheet.folds_carried();
            sheet_count += 1;
        }
        self.formula_cells.set(cells as i64);
        self.formula_templates.set(templates as i64);
        self.folds_carried.add(carried - self.folds_carried_seen);
        self.folds_carried_seen = carried;
        let stamp = graph.mutation_stamp();
        if self.vertices_as_of != Some(stamp) {
            self.vertices_as_of = Some(stamp);
            #[cfg(test)]
            {
                self.edge_walks += 1;
            }
            let own = GraphStats::of_edges(graph.edges().filter(|e| !e.crosses_bands()));
            let count = |n: u64| i64::try_from(n).unwrap_or(i64::MAX);
            self.graph_edges.set(own.edges as i64);
            self.graph_vertices.set(own.vertices as i64);
            self.graph_dependencies.set(count(own.dependencies));
            self.graph_edges_reduced.set(count(own.reduced.total()));
            self.cross_edges.set((graph.num_edges() - own.edges) as i64);
            walked = graph.num_edges() as u64;
        }
        self.tracer.record_since("engine.gauges", SpanCat::Recalc, start, sheet_count, walked);
    }

    /// The hub clock: the start stamp of a timed region.
    pub(crate) fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }
}
