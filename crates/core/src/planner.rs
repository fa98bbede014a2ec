//! The cost-based physical planner: `LogicalPlan` → [`PhysicalPlan`].
//!
//! This module closes the paper's loop — *model predicts, system acts*.
//! Planning is a pure function of the statement's pinned view
//! ([`DbSnapshot`]: one version of every referenced table, with that
//! version's indexes) and the configured hardware model — never of the
//! live catalog, so what it prices is what execution, handed the same
//! view, scans. For every query the planner:
//!
//! 1. builds [`TableView`]s of the pinned tables (layout, row counts
//!    including the live delta) from header data — no fault when cold,
//! 2. emits the query's access-pattern program (`pdsm_plan::emit_pattern`,
//!    §IV-D) and prices it with the prefetch-aware cost function
//!    [`pdsm_cost::cost::estimate`] (Eq. 5–6) — the memory half `T_Mem`,
//! 3. adds the compiled pipeline's per-tuple CPU term and scores the two
//!    *fan-outs* of the one pipeline core: one worker (`scan/compiled`)
//!    or `threads` workers plus fork/join overhead (`scan/parallel`),
//! 4. prices a main-index probe + delta-tail union as an *access-path*
//!    alternative when the plan shape and catalog allow one,
//! 5. and returns the cheapest combination as a [`PhysicalPlan`], with
//!    every rejected alternative recorded for `explain()`.
//!
//! Those are the only two decisions the serving path makes. Volcano, bulk
//! and vectorized processing are the paper's Fig.-3 comparators: they pay
//! the same memory traffic unscaled by zone pruning at 4–60× the CPU
//! constant, so they can never be the minimum and are not priced. Volcano
//! stays reachable through `Database::run(plan, EngineKind::Volcano)` as
//! the differential oracle; bulk and vectorized live in `pdsm-bench`.
//!
//! The planner never picks an index path the model scores worse than the
//! best full scan — that invariant is property-tested in
//! `tests/planner.rs`.

use crate::database::{DbError, IndexKind};
use crate::query::{DbSnapshot, PinnedTable};
use pdsm_cost::{cost, Atom, Hierarchy, Pattern};
use pdsm_exec::zone_preds;
use pdsm_plan::expr::{conjuncts, simple_cmp};
use pdsm_plan::logical::{pipeline_fragment, LogicalPlan};
use pdsm_plan::patterns::{emit_pattern, TableView};
use pdsm_plan::physical::{AccessPath, CostSummary, EngineChoice, PhysicalPlan, PipelinePlan};
use pdsm_plan::selectivity::estimate_selectivity;
use pdsm_pool::ColdTable;
use pdsm_storage::{ColId, ZonePred};
use pdsm_txn::Snapshot;
use std::collections::HashMap;

/// Per-tuple CPU cycles of the compiled (fused-pipeline) model.
pub const CPU_COMPILED: f64 = 1.5;
/// Fixed cycles to launch, barrier and join a parallel pipeline — the
/// reason tiny queries stay single-threaded.
pub const PAR_FIXED_OVERHEAD: f64 = 30_000.0;
/// Extra parallel cycles per worker (morsel-queue setup, partial merges).
pub const PAR_PER_THREAD: f64 = 2_000.0;
/// Cycles to pass one index hit through the pipeline's hits source: a
/// tombstone check, each scan conjunct's kernel test at the hit's row,
/// then the columns the plan reads decoded into one reused row.
pub const CPU_INDEX_HIT: f64 = 150.0;
/// Cycles to interpret the predicate against one decoded delta-tail row.
pub const CPU_TAIL_ROW: f64 = 60.0;
/// Result-cache admission: predicted re-execution must exceed the priced
/// copy-out (`pdsm_cost::copy_out_cycles` of the estimated result bytes)
/// by this factor. Keeps barely-profitable results out — cache churn costs
/// budget and eviction work that the model does not price.
pub const CACHE_ADMIT_FACTOR: f64 = 4.0;
/// Result-cache admission floor: plans predicted cheaper than this
/// re-execute faster than the cache's own bookkeeping (probe, copy,
/// store), so they always bypass — point index probes land here.
pub const CACHE_MIN_REEXEC_CYCLES: f64 = 20_000.0;

/// The cost-based planner. A [`crate::Database`] builds one at
/// construction (calibrated Nehalem hierarchy, the host's worker count) and
/// plans every statement with it; tests build their own with `threads`
/// pinned for deterministic plans.
pub struct Planner {
    /// Memory hierarchy the cost model prices against.
    pub hierarchy: Hierarchy,
    /// Worker threads the parallel engine would use.
    pub threads: usize,
}

/// Cardinality + work propagation through one plan node.
struct WorkEst {
    /// Estimated rows flowing out of the node.
    card: f64,
    /// Total tuples processed (Σ over operators of their input rows) —
    /// the multiplier of [`CPU_COMPILED`].
    tuples: f64,
}

impl Planner {
    /// Lower `logical` over the pinned `view`: choose fan-out and access
    /// path via the cost model and record every priced alternative. A
    /// table `view` does not hold is [`DbError::UnknownTable`].
    pub fn plan(&self, view: &DbSnapshot, logical: &LogicalPlan) -> Result<PhysicalPlan, DbError> {
        let tables = logical.tables();
        let mut views = HashMap::new();
        for &name in &tables {
            if !views.contains_key(name) {
                views.insert(name.to_string(), table_view(&view.pinned(name)?.snapshot));
            }
        }
        let idx = view.index_candidate(logical);
        // The scan the root selection drives, and that selection as the
        // zone predicates engines prune with (none for joins: their
        // selection's columns are not scan columns). A cold table's zone
        // map and column types come from its header: nothing is faulted.
        let root = view.pinned(tables[0])?.snapshot.store();
        let zps = scan_selection(logical)
            .map(|pred| zone_preds(root.skeleton(), std::slice::from_ref(pred)))
            .unwrap_or_default();
        let emitted = emit_pattern(logical, &views);
        let mem = cost::estimate(&emitted.pattern, &self.hierarchy).total_cycles;
        let work = work_est(logical, &views);

        // --- zone-map pruning: the "partitions survived" term ---
        // Blocks the main store's zone map refutes under the root selection
        // are never touched by the pipeline core's survivor loop, which
        // both fan-outs walk, so memory traffic and per-tuple work shrink
        // linearly with the surviving fraction. Priced from the same
        // refutation execution does; `(0, 0)` — zone map not consulted —
        // with no refutable conjunct or over an empty main store.
        let (zone_blocks, zone_pruned) = match root.zones() {
            Some(zones) if !zps.is_empty() => zones.prune_stats(&zps),
            _ => (0, 0),
        };
        let survived = pdsm_cost::survived_fraction(zone_blocks, zone_pruned);

        // --- disk tier: faulting cold checkpoint extents ---
        // Either fan-out walks a cold table one pinned extent at a time
        // (zone-refuted extents skipped, resident ones free) and spreads
        // each extent over its workers, so the disk term is one constant
        // added to every alternative — it never flips a fan-out choice, it
        // makes the totals honest and prices scan-vs-index on equal
        // footing. Multi-table plans walk their cold tables the same way
        // but are not priced for it yet.
        let (extents_total, extents_resident, extents_pruned, disk) = match root.cold() {
            Some(cold) if tables.len() == 1 => cold_stats(cold, &zps),
            _ => (0, 0, 0, 0.0),
        };

        // --- fan-out alternatives (both run the same full-scan pattern) ---
        let compiled = CostSummary {
            mem_cycles: mem * survived,
            cpu_cycles: CPU_COMPILED * work.tuples * survived,
            disk_cycles: disk,
        };
        // Parallel splits the compiled pipeline across workers and pays a
        // fixed fork/join overhead.
        let threads = self.threads.max(1) as f64;
        let parallel = CostSummary {
            mem_cycles: compiled.mem_cycles / threads,
            cpu_cycles: compiled.cpu_cycles / threads
                + PAR_FIXED_OVERHEAD
                + PAR_PER_THREAD * threads,
            disk_cycles: disk,
        };
        // Ties go to the single worker.
        let (best_engine, best_engine_cost) = if parallel.total() < compiled.total() {
            (EngineChoice::Parallel, parallel)
        } else {
            (EngineChoice::Compiled, compiled)
        };
        let mut alternatives = vec![
            ("scan/compiled".to_string(), compiled.total()),
            ("scan/parallel".to_string(), parallel.total()),
        ];

        // --- access-path alternative: index probe + delta-tail union ---
        let mut chosen_access = AccessPath::FullScan;
        let mut chosen_cost = best_engine_cost;
        let mut probe_rows = 0.0;
        // The work a result-cache hit saves: the cheapest way to re-run the
        // query on ONE core. Parallel's total is critical-path latency
        // (its terms are divided by `threads`), so pricing admission
        // against it would make the cache's contents a function of `nproc`.
        let mut reexec_cycles = compiled.total();
        if let Some((table, access)) = idx {
            let (mut cost, hits) =
                self.index_cost(view.pinned(&table)?, logical, &access, &views[&table]);
            cost.disk_cycles = disk;
            alternatives.push(("index".to_string(), cost.total()));
            reexec_cycles = reexec_cycles.min(cost.total());
            if cost.total() < chosen_cost.total() {
                chosen_access = access;
                chosen_cost = cost;
                probe_rows = hits;
            }
        }
        alternatives.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

        // --- pipelines: one per base-table scan, in scan order ---
        let mut pipelines = Vec::new();
        for (i, table) in tables.into_iter().enumerate() {
            let tv = &views[table];
            let delta_rows = view.pinned(table)?.snapshot.live_delta_rows();
            let access = if i == 0 && chosen_access.is_indexed() {
                chosen_access.clone()
            } else {
                AccessPath::FullScan
            };
            let est_rows = if access.is_indexed() {
                probe_rows
            } else {
                tv.n_rows as f64
            };
            // Zone stats belong to the scan the selection drives; an index
            // probe bypasses the scan and consults no zone map.
            let (zb, zp) = if i == 0 && !access.is_indexed() {
                (zone_blocks, zone_pruned)
            } else {
                (0, 0)
            };
            let (et, er, ep) = if i == 0 && !access.is_indexed() {
                (extents_total, extents_resident, extents_pruned)
            } else {
                (0, 0, 0)
            };
            pipelines.push(PipelinePlan {
                table: table.to_string(),
                access,
                est_rows,
                table_rows: tv.n_rows,
                delta_rows,
                zone_blocks: zb,
                zone_pruned: zp,
                extents_total: et,
                extents_resident: er,
                extents_pruned: ep,
            });
        }

        // --- result-cache admission: recompute vs. copy-out ---
        // Estimated materialized size: output rows × output arity ×
        // ~16 bytes per Value. Admit only when re-running the query
        // single-threaded is predicted CACHE_ADMIT_FACTOR× dearer than
        // writing the result once and reading it back — full-table
        // SELECT *s (copy ≈ scan) bypass, aggregates over big scans
        // (copy ≈ one row) admit.
        let out_arity = logical.arity(&|t| views.get(t).map(|v| v.col_widths.len()).unwrap_or(0));
        let out_bytes = (emitted.out_rows.max(0.0) * out_arity.max(1) as f64 * 16.0) as u64;
        let copy_out = pdsm_cost::copy_out_cycles(out_bytes, &self.hierarchy);
        let cache_admit = reexec_cycles >= CACHE_MIN_REEXEC_CYCLES
            && reexec_cycles > CACHE_ADMIT_FACTOR * copy_out;

        Ok(PhysicalPlan {
            logical: logical.clone(),
            engine: best_engine,
            pipelines,
            cost: chosen_cost,
            alternatives,
            est_out_rows: emitted.out_rows,
            cache_admit,
            copy_out_cycles: copy_out,
        })
    }

    /// Price the index path `access` — a candidate of `table`, so the
    /// index is pinned with it: probe the index structure, reconstruct
    /// each surviving hit through every layout group, then sequentially
    /// scan the live delta tail. Returns `(cost, estimated hits)`.
    fn index_cost(
        &self,
        table: &PinnedTable,
        logical: &LogicalPlan,
        access: &AccessPath,
        view: &TableView,
    ) -> (CostSummary, f64) {
        let col = access.column().expect("an index candidate has a column");
        let idx = table
            .index_for(access)
            .expect("a candidate's index is pinned with its table");
        let n_main = table.snapshot.store().len().max(1) as u64;
        let keys = idx.index.key_count().max(1) as u64;
        let delta = table.snapshot.live_delta_rows() as u64;

        // Estimated main-store hits. The probe fetches every row matching
        // the *indexed conjunct alone* — residual conjuncts filter only
        // after reconstruction — so hits must be priced from that
        // conjunct's selectivity, never the full predicate's (a highly
        // selective residual would otherwise make a near-full-table range
        // probe look cheap). A pinned hint stands in only when the
        // predicate *is* the single indexed conjunct.
        let sel = match access {
            // One key's bucket: the index's own distinct count is the best
            // estimate there is.
            AccessPath::IndexPoint { .. } => {
                single_conjunct_hint(logical).unwrap_or(1.0 / keys as f64)
            }
            _ => indexed_conjunct_selectivity(logical, col, view).unwrap_or(1.0 / 3.0),
        };
        let hits = (sel.clamp(0.0, 1.0) * n_main as f64).ceil();
        let k = hits.max(1.0) as u64;

        let mut atoms: Vec<Pattern> = Vec::new();
        // The index structure itself.
        atoms.push(Pattern::atom(match idx.kind {
            IndexKind::Hash => Atom::rr_acc(keys, 24, 1),
            IndexKind::RBTree => {
                let depth = (keys.max(2) as f64).log2().ceil() as u64;
                Atom::rr_acc(keys, 40, depth + k)
            }
        }));
        // Tuple reconstruction: every hit decodes the full row, touching
        // each layout group at a random position.
        for group in view.layout.groups() {
            let stride = view.group_stride(group);
            atoms.push(Pattern::atom(Atom::rr_acc(n_main, stride.max(1), k)));
        }
        // Delta-tail union: one sequential pass over the decoded tail.
        if delta > 0 {
            let row_w = 16 * view.col_widths.len().max(1) as u64;
            atoms.push(Pattern::atom(Atom::s_trav(delta, row_w)));
        }
        let mem = cost::estimate(&Pattern::seq(atoms), &self.hierarchy).total_cycles;
        let cpu = CPU_INDEX_HIT * hits + CPU_TAIL_ROW * delta as f64;
        (
            CostSummary {
                mem_cycles: mem,
                cpu_cycles: cpu,
                disk_cycles: 0.0,
            },
            hits,
        )
    }
}

/// The statistics-free planning view of one pinned table: its main store's
/// name, widths and layout — header data, a cold table is not faulted —
/// with the visible row count (main ∪ live delta) superimposed. The
/// planner's and the layout advisor's one view builder.
pub(crate) fn table_view(snap: &Snapshot) -> TableView {
    let mut view = TableView::from_table(snap.store().skeleton());
    view.n_rows = snap.len() as u64;
    view
}

/// Cold-extent residency of a single-table plan's still-cold table under
/// the scan's zone predicates `zp`: `(extents_total, resident, pruned,
/// disk_cycles)`. Pruned extents come from the same per-extent zone
/// refutation the scan's extent walk skips with, so the disk term prices
/// exactly the faults the scan will take: one request per cold,
/// non-refuted extent, plus the bytes its fault reads through
/// [`pdsm_cost::DiskTier`].
fn cold_stats(cold: &ColdTable, zp: &[ZonePred]) -> (usize, usize, usize, f64) {
    let resident = cold.resident_extents();
    let h = cold.header();
    let (mut n_res, mut n_pruned, mut requests, mut bytes) = (0usize, 0usize, 0u64, 0u64);
    for (e, res) in resident.iter().enumerate() {
        if *res {
            n_res += 1;
        } else if cold.extent_refuted(e, zp) {
            n_pruned += 1;
        } else {
            requests += 1;
            bytes += h.extent_bytes(e) as u64;
        }
    }
    let disk = pdsm_cost::DiskTier::default().fault_cycles(requests, bytes);
    (cold.n_extents(), n_res, n_pruned, disk)
}

/// The predicate of the selection sitting *directly over the scan* —
/// its columns are scan columns, which is what `zone_preds` requires.
/// Reached through single-input nodes only; joins yield `None`.
fn scan_selection(plan: &LogicalPlan) -> Option<&pdsm_plan::expr::Expr> {
    match pipeline_fragment(plan)? {
        LogicalPlan::Select { pred, .. } => Some(pred),
        _ => None,
    }
}

/// The root selection's pinned selectivity, if the plan is a (possibly
/// projected) selection over a scan with a `sel_hint`.
fn selection_hint(plan: &LogicalPlan) -> Option<f64> {
    match plan {
        LogicalPlan::Project { input, .. } => selection_hint(input),
        LogicalPlan::Select { sel_hint, .. } => *sel_hint,
        _ => None,
    }
}

/// The root selection's predicate (the one an index candidate came from).
fn selection_pred(plan: &LogicalPlan) -> Option<&pdsm_plan::expr::Expr> {
    match plan {
        LogicalPlan::Project { input, .. } => selection_pred(input),
        LogicalPlan::Select { pred, .. } => Some(pred),
        _ => None,
    }
}

/// The root selection's pinned `sel_hint`, but only when the predicate is
/// a single conjunct — then the hint describes exactly what the probe
/// fetches. With residual conjuncts the hint covers the whole predicate
/// and would underprice the probe.
fn single_conjunct_hint(plan: &LogicalPlan) -> Option<f64> {
    let pred = selection_pred(plan)?;
    if conjuncts(pred).len() == 1 {
        selection_hint(plan)
    } else {
        None
    }
}

/// Selectivity of the range conjunct the candidate's index serves,
/// estimated in isolation (see [`Planner::index_cost`] for why the full
/// predicate's selectivity must not be used).
fn indexed_conjunct_selectivity(plan: &LogicalPlan, col: ColId, view: &TableView) -> Option<f64> {
    if let Some(h) = single_conjunct_hint(plan) {
        return Some(h);
    }
    let pred = selection_pred(plan)?;
    for conj in conjuncts(pred) {
        let Some((c, op, _)) = simple_cmp(conj) else {
            continue;
        };
        if c == col && !matches!(op, pdsm_plan::expr::CmpOp::Eq) {
            return Some(estimate_selectivity(conj, view.stats.as_ref()));
        }
    }
    None
}

/// Leftmost base-table cardinality under `plan` (join match probability).
fn base_rows(plan: &LogicalPlan, views: &HashMap<String, TableView>) -> f64 {
    match plan {
        LogicalPlan::Scan { table } => views.get(table).map(|v| v.n_rows as f64).unwrap_or(1.0),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => base_rows(input, views),
        LogicalPlan::Join { left, .. } => base_rows(left, views),
    }
}

/// Stats of the base table feeding `plan`'s pipeline, for selectivity.
fn base_stats<'a>(
    plan: &LogicalPlan,
    views: &'a HashMap<String, TableView>,
) -> Option<&'a pdsm_plan::selectivity::TableStatsView> {
    match plan {
        LogicalPlan::Scan { table } => views.get(table).and_then(|v| v.stats.as_ref()),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => base_stats(input, views),
        LogicalPlan::Join { left, .. } => base_stats(left, views),
    }
}

/// Propagate cardinality and tuple-processing work through the plan (the
/// CPU side of scoring; the memory side comes from the emitted pattern).
fn work_est(plan: &LogicalPlan, views: &HashMap<String, TableView>) -> WorkEst {
    match plan {
        LogicalPlan::Scan { table } => {
            let n = views.get(table).map(|v| v.n_rows as f64).unwrap_or(0.0);
            WorkEst { card: n, tuples: n }
        }
        LogicalPlan::Select {
            input,
            pred,
            sel_hint,
        } => {
            let mut w = work_est(input, views);
            let sel = sel_hint
                .unwrap_or_else(|| estimate_selectivity(pred, base_stats(input, views)))
                .clamp(0.0, 1.0);
            w.tuples += w.card;
            w.card *= sel;
            w
        }
        LogicalPlan::Project { input, .. } => {
            let mut w = work_est(input, views);
            w.tuples += w.card;
            w
        }
        LogicalPlan::Aggregate {
            input, group_by, ..
        } => {
            let mut w = work_est(input, views);
            w.tuples += w.card;
            let groups = if group_by.is_empty() {
                1.0
            } else {
                (100f64.powi(group_by.len() as i32)).min(w.card.max(1.0))
            };
            w.card = groups;
            w
        }
        LogicalPlan::Join { left, right, .. } => {
            let l = work_est(left, views);
            let r = work_est(right, views);
            let match_prob = (l.card / base_rows(left, views).max(1.0)).clamp(0.0, 1.0);
            WorkEst {
                card: r.card * match_prob,
                tuples: l.tuples + r.tuples + l.card + r.card,
            }
        }
        LogicalPlan::Sort { input, .. } => {
            let mut w = work_est(input, views);
            w.tuples += w.card * w.card.max(2.0).log2();
            w
        }
        LogicalPlan::Limit { input, n } => {
            let mut w = work_est(input, views);
            w.card = w.card.min(*n as f64);
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{Database, IndexKind};
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    use pdsm_storage::{ColumnDef, DataType, Schema, Value};

    fn db(rows: i32) -> Database {
        let db = Database::new();
        let cols: Vec<ColumnDef> = (0..8)
            .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
            .collect();
        db.create_table("r", Schema::new(cols)).unwrap();
        for i in 0..rows {
            let row: Vec<Value> = (0..8).map(|c| Value::Int32(i * 8 + c)).collect();
            db.insert("r", &row).unwrap();
        }
        db
    }

    fn planner_with(threads: usize) -> Planner {
        Planner {
            hierarchy: Hierarchy::nehalem(),
            threads,
        }
    }

    fn planner() -> Planner {
        planner_with(1)
    }

    #[test]
    fn scan_heavy_query_prefers_compiled_on_one_thread() {
        let db = db(5_000);
        let plan = QueryBuilder::scan("r")
            .filter(Expr::col(0).gt(Expr::lit(10)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
            .build();
        let phys = planner().plan(&db.snapshot(), &plan).unwrap();
        assert_eq!(phys.engine, EngineChoice::Compiled);
        assert_eq!(*phys.access(), AccessPath::FullScan);
        // exactly the two fan-outs are priced — the Fig.-3 baselines are
        // dominated by construction and never enter the decision
        let labels: Vec<&str> = phys.alternatives.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["scan/compiled", "scan/parallel"]);
    }

    #[test]
    fn many_threads_flip_large_scans_to_parallel() {
        let db = db(20_000);
        let plan = QueryBuilder::scan("r")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
            .build();
        let phys = planner_with(16).plan(&db.snapshot(), &plan).unwrap();
        assert_eq!(phys.engine, EngineChoice::Parallel);
    }

    #[test]
    fn cache_admission_does_not_depend_on_the_thread_count() {
        let db = db(20_000);
        db.create_index("r", "c0", IndexKind::Hash).unwrap();
        let plans = [
            // big aggregate: admitted
            QueryBuilder::scan("r")
                .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
                .build(),
            // full-schema filtered scan
            QueryBuilder::scan("r")
                .filter(Expr::col(1).gt(Expr::lit(100)))
                .build(),
            // point probe: bypasses
            QueryBuilder::scan("r")
                .filter(Expr::col(0).eq(Expr::lit(80)))
                .build(),
        ];
        for plan in &plans {
            let admits: Vec<bool> = [1, 2, 4, 16]
                .into_iter()
                .map(|threads| {
                    planner_with(threads)
                        .plan(&db.snapshot(), plan)
                        .unwrap()
                        .cache_admit
                })
                .collect();
            assert!(
                admits.iter().all(|a| *a == admits[0]),
                "cache_admit varies with threads: {admits:?} for {plan:?}"
            );
        }
    }

    #[test]
    fn identity_select_takes_the_index() {
        let db = db(5_000);
        db.create_index("r", "c0", IndexKind::Hash).unwrap();
        let plan = QueryBuilder::scan("r")
            .filter(Expr::col(0).eq(Expr::lit(80)))
            .build();
        let phys = planner().plan(&db.snapshot(), &plan).unwrap();
        assert!(phys.access().is_indexed(), "{}", phys.explain());
        let scan = phys.best_scan_cost().unwrap();
        assert!(
            phys.cost.total() <= scan,
            "index chosen but scored worse: {} vs {scan}",
            phys.cost.total()
        );
    }

    /// Planning is a function of the pinned view and the hardware model —
    /// nothing else: this test has no `Database`, only a table, its
    /// snapshot and (for the second plan) an index built by hand.
    #[test]
    fn plans_from_a_hand_built_view() {
        use crate::database::IndexEntry;
        use crate::query::{DbSnapshot, PinnedTable};
        use pdsm_index::SortedIndex;
        use std::sync::Arc;

        let cols: Vec<ColumnDef> = (0..8)
            .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
            .collect();
        let mut main = pdsm_storage::Table::new("r", Schema::new(cols));
        let mut pairs = Vec::new();
        for i in 0..5_000 {
            let row: Vec<Value> = (0..8).map(|c| Value::Int32(i * 8 + c)).collect();
            main.insert(&row).unwrap();
            pairs.push(((i * 8) as i64, i as u32));
        }
        let index = IndexEntry {
            generation: 0,
            kind: IndexKind::Hash,
            index: Arc::new(SortedIndex::from_pairs(pairs)),
        };
        let mut table = pdsm_txn::VersionedTable::from_table(main);
        table.insert(&vec![Value::Int32(-1); 8]).unwrap();
        let view_with = |indexes| DbSnapshot {
            tables: HashMap::from([(
                "r".to_string(),
                PinnedTable {
                    snapshot: table.snapshot(),
                    indexes,
                },
            )]),
            epoch: 0,
            threads: 1,
        };
        let point = QueryBuilder::scan("r")
            .filter(Expr::col(0).eq(Expr::lit(80)))
            .build();

        let scanned = planner().plan(&view_with(vec![]), &point).unwrap();
        assert_eq!(*scanned.access(), AccessPath::FullScan);
        assert_eq!(scanned.pipelines[0].table_rows, 5_001);
        assert_eq!(scanned.pipelines[0].delta_rows, 1);
        assert!(scanned.cost_of("index").is_none());

        let probed = planner()
            .plan(&view_with(vec![(0, index)]), &point)
            .unwrap();
        assert!(probed.access().is_indexed(), "{}", probed.explain());
        assert_eq!(
            probed.cost_of("scan/compiled"),
            scanned.cost_of("scan/compiled")
        );

        let elsewhere = QueryBuilder::scan("s").build();
        assert!(matches!(
            planner().plan(&view_with(vec![]), &elsewhere),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn unknown_table_is_reported() {
        let db = Database::new();
        let plan = QueryBuilder::scan("nope").build();
        assert!(matches!(
            planner().plan(&db.snapshot(), &plan),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn join_plans_get_one_pipeline_per_scan() {
        let db = {
            let db = db(500);
            let cols: Vec<ColumnDef> = (0..4)
                .map(|i| ColumnDef::new(format!("d{i}"), DataType::Int32))
                .collect();
            db.create_table("s", Schema::new(cols)).unwrap();
            for i in 0..200 {
                db.insert(
                    "s",
                    &(0..4).map(|c| Value::Int32(i * 4 + c)).collect::<Vec<_>>(),
                )
                .unwrap();
            }
            db
        };
        let plan = QueryBuilder::scan("r")
            .join(QueryBuilder::scan("s").build(), Expr::col(0), Expr::col(0))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let phys = planner().plan(&db.snapshot(), &plan).unwrap();
        assert_eq!(phys.pipelines.len(), 2);
        assert_eq!(phys.pipelines[0].table, "r");
        assert_eq!(phys.pipelines[1].table, "s");
    }
}
