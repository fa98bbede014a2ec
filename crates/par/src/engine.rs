//! `ParallelEngine`: the shared pipeline core walked by morsel-claiming
//! workers.
//!
//! Lowering, the walk over a main store's pieces, the survivor loop and
//! the aggregate state are `pdsm_exec::pipeline`'s — the same code the
//! compiled engine runs. This driver only decides *how one piece's row
//! range is walked* (a resident table, or one pinned extent of a cold
//! one: every piece fans out over the workers):
//!
//! * **collect pipelines** run on the worker pool with per-morsel output
//!   buffers stitched in morsel order — byte-identical to sequential;
//! * **aggregations**, stepped (join-probing) ones included, give every
//!   worker its own [`AggState`] and merge the partials into the carried
//!   state at the barrier. The state is order-free — float `sum` and `avg`
//!   add exactly and round once — so every output bit matches the
//!   compiled engine whatever the worker count and claim order, and no
//!   survivor is materialized unless a step needs it.

use crate::morsel::MorselQueue;
use crate::pool::{default_threads, run_workers};
use pdsm_exec::engine::{Engine, ExecError, TableProvider};
use pdsm_exec::pipeline::{self, AggState, PipeDriver, PipeSpec, Scan};
use pdsm_exec::QueryOutput;
use pdsm_plan::logical::LogicalPlan;
use pdsm_storage::{Table, Value};

/// The morsel-driven parallel engine.
///
/// `threads == 0` (the default) resolves at execution time: the
/// `PDSM_THREADS` environment variable if set, otherwise all cores.
#[derive(Debug, Default, Clone, Copy)]
pub struct ParallelEngine {
    threads: usize,
}

impl ParallelEngine {
    /// Engine with automatic thread-count resolution.
    pub const fn new() -> Self {
        ParallelEngine { threads: 0 }
    }

    /// Engine pinned to exactly `threads` workers (`0` = automatic).
    pub const fn with_threads(threads: usize) -> Self {
        ParallelEngine { threads }
    }

    /// The worker count this engine will use right now.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            default_threads()
        }
    }
}

impl Engine for ParallelEngine {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        let driver = Workers {
            threads: self.effective_threads(),
        };
        let rows = pipeline::execute(plan, db, &driver)?;
        Ok(QueryOutput { rows })
    }
}

/// The morsel driver: `threads` scoped workers claim morsels off one queue.
struct Workers {
    threads: usize,
}

impl Workers {
    /// Run `worker(queue)` on as many workers as the table has morsels
    /// for (at most `self.threads`), results in worker-id order.
    fn run<R: Send>(&self, table: &Table, worker: impl Fn(&MorselQueue) -> R + Sync) -> Vec<R> {
        let queue = MorselQueue::for_table(table);
        let threads = self.threads.min(queue.n_morsels()).max(1);
        run_workers(threads, |_| worker(&queue))
    }
}

impl PipeDriver for Workers {
    /// Per-morsel buffers stitched by morsel index, so the rows come back
    /// in *exactly* the sequential scan order regardless of worker count
    /// or claim interleaving.
    fn collect(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut Vec<Vec<Value>>) {
        let per_worker = self.run(table, |queue| {
            let scan = Scan::new(table, spec);
            let mut chunks: Vec<(usize, Vec<Vec<Value>>)> = Vec::new();
            while let Some(m) = queue.claim() {
                let mut rows = Vec::new();
                scan.collect_range(dead, m.start..m.end, &mut rows);
                if !rows.is_empty() {
                    chunks.push((m.index, rows));
                }
            }
            chunks
        });
        let mut tagged: Vec<(usize, Vec<Vec<Value>>)> = per_worker.into_iter().flatten().collect();
        tagged.sort_unstable_by_key(|(idx, _)| *idx);
        out.extend(tagged.into_iter().flat_map(|(_, rows)| rows));
    }

    /// Every worker folds the morsels it claims into its own partial; the
    /// partials merge into `state`.
    fn fold(&self, table: &Table, dead: &[bool], state: &mut AggState<'_>) {
        let (spec, group_by, aggs) = state.parts();
        let partials = self.run(table, |queue| {
            let scan = Scan::new(table, spec);
            let mut partial = AggState::new(table, spec, group_by, aggs);
            while let Some(m) = queue.claim() {
                partial.fold_range(&scan, dead, m.start..m.end);
            }
            partial
        });
        for partial in partials {
            state.merge(partial);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::engine::{CompiledEngine, Overlay, VolcanoEngine};
    use pdsm_exec::pipeline::Step;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    use pdsm_storage::{ColumnDef, DataType, Row, Schema};
    use std::collections::HashMap;

    fn db() -> HashMap<String, Table> {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int32),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::nullable("f", DataType::Float64),
            ]),
        );
        for i in 0..20_000 {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 10),
                Value::Str(format!("name-{}", i % 5)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 / 2.0)
                },
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    fn assert_matches_compiled(plan: &LogicalPlan, d: &HashMap<String, Table>, ctx: &str) {
        let reference = CompiledEngine.execute(plan, d).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = ParallelEngine::with_threads(threads)
                .execute(plan, d)
                .unwrap();
            reference.assert_same(&par, &format!("{ctx} (threads={threads})"));
        }
    }

    #[test]
    fn filter_project_byte_identical_order() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(3)))
            .project(vec![Expr::col(0), Expr::col(2)])
            .build();
        let reference = CompiledEngine.execute(&plan, &d).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = ParallelEngine::with_threads(threads)
                .execute(&plan, &d)
                .unwrap();
            assert_eq!(reference.rows, par.rows, "exact order at threads={threads}");
        }
    }

    #[test]
    fn scalar_and_grouped_aggregates_match() {
        let d = db();
        let scalar = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(7)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::new(AggFunc::Min, Expr::col(0)),
                    AggExpr::new(AggFunc::Max, Expr::col(0)),
                ],
            )
            .build();
        assert_matches_compiled(&scalar, &d, "scalar agg");
        let grouped = QueryBuilder::scan("t")
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                ],
            )
            .build();
        assert_matches_compiled(&grouped, &d, "grouped agg");
    }

    #[test]
    fn float_aggregates_bit_identical_via_merged_partials() {
        let d = db();
        let grouped = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(8)))
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(3)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        // A join feeding the aggregate: every worker probes and folds its
        // own partial.
        let stepped = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(2)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .aggregate(
                vec![Expr::col(4 + 2)],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(4 + 3).mul(Expr::lit(0.1))),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        for plan in [grouped, stepped] {
            float_bits_match_compiled(&plan, &d);
        }
    }

    fn float_bits_match_compiled(plan: &LogicalPlan, d: &HashMap<String, Table>) {
        let reference = CompiledEngine.execute(plan, d).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = ParallelEngine::with_threads(threads)
                .execute(plan, d)
                .unwrap();
            // not just normalized: the float bits must match the sequential fold
            let mut a: Vec<String> = reference.rows.iter().map(|r| format!("{r:?}")).collect();
            let mut b: Vec<String> = par.rows.iter().map(|r| format!("{r:?}")).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn joins_sorts_limits_match() {
        let d = db();
        let join = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(2)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .aggregate(
                vec![Expr::col(4 + 1)],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(0))],
            )
            .build();
        assert_matches_compiled(&join, &d, "join+agg");
        let sort = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(0)])
            .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
            .limit(37)
            .build();
        let reference = CompiledEngine.execute(&sort, &d).unwrap();
        let par = ParallelEngine::with_threads(4).execute(&sort, &d).unwrap();
        assert_eq!(reference.rows, par.rows, "sort+limit exact");
    }

    #[test]
    fn volcano_agrees_too() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("name-1").or(Expr::col(3).is_null()))
            .aggregate(vec![Expr::col(1)], vec![AggExpr::count_star()])
            .build();
        let v = VolcanoEngine.execute(&plan, &d).unwrap();
        let p = ParallelEngine::with_threads(4).execute(&plan, &d).unwrap();
        v.assert_same(&p, "volcano vs parallel");
    }

    #[test]
    fn unknown_table_error_matches() {
        let d: HashMap<String, Table> = HashMap::new();
        let plan = QueryBuilder::scan("missing").build();
        let err = ParallelEngine::new().execute(&plan, &d).unwrap_err();
        assert_eq!(err, ExecError::UnknownTable("missing".into()));
    }

    /// `k = i % 5`, `v = i`, `f` NULL every third row.
    fn kvf(n: usize) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int32),
                ColumnDef::new("v", DataType::Int64),
                ColumnDef::nullable("f", DataType::Float64),
            ]),
        );
        for i in 0..n {
            t.insert(&[
                Value::Int32((i % 5) as i32),
                Value::Int64(i as i64),
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 / 4.0)
                },
            ])
            .unwrap();
        }
        t
    }

    fn spec<'a>(preds: &'a [Expr], steps: &'a [Step]) -> PipeSpec<'a> {
        PipeSpec {
            preds,
            steps,
            needed: &[0, 1],
        }
    }

    /// `t` as one piece through `threads` workers' collect.
    fn collect(threads: usize, t: &Table, spec: PipeSpec<'_>) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        Workers { threads }.collect(t, &[], spec, &mut out);
        out
    }

    /// `t` as one piece through `threads` workers' open + fold + finish.
    fn aggregate(
        threads: usize,
        t: &Table,
        spec: PipeSpec<'_>,
        group_by: &[Expr],
        aggs: &[AggExpr],
    ) -> Vec<Vec<Value>> {
        let mut state = AggState::new(t, spec, group_by, aggs);
        Workers { threads }.fold(t, &[], &mut state);
        state.finish()
    }

    #[test]
    fn parallel_collect_preserves_scan_order() {
        let t = kvf(20_000);
        let preds = [Expr::col(0).eq(Expr::lit(3))];
        let sequential = collect(1, &t, spec(&preds, &[]));
        for threads in [2, 4, 8] {
            let parallel = collect(threads, &t, spec(&preds, &[]));
            assert_eq!(sequential, parallel, "threads={threads}");
        }
        assert_eq!(sequential.len(), 4_000);
    }

    #[test]
    fn steps_apply_after_kernels() {
        let t = kvf(5_000);
        let preds = [Expr::col(1).lt(Expr::lit(100))];
        let steps = [Step::Project(vec![Expr::col(1).mul(Expr::lit(2))])];
        let out = collect(4, &t, spec(&preds, &steps));
        assert_eq!(out.len(), 100);
        assert_eq!(out[7], vec![Value::Int64(14)]);
    }

    /// `t` with a tombstone mask and a delta tail.
    struct Versioned<'a> {
        t: &'a Table,
        overlay: Overlay<'a>,
    }

    impl TableProvider for Versioned<'_> {
        fn table(&self, name: &str) -> Option<&Table> {
            (name == "t").then_some(self.t)
        }

        fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
            (name == "t").then_some(self.overlay)
        }
    }

    #[test]
    fn overlay_tombstones_and_tail_in_order() {
        let t = kvf(1_000);
        let mut dead = vec![false; 1_000];
        dead[0] = true;
        dead[3] = true;
        let tail = [
            Row(vec![Value::Int32(3), Value::Int64(5000), Value::Null]),
            Row(vec![Value::Int32(4), Value::Int64(5001), Value::Null]),
        ]
        .map(std::sync::Arc::new);
        let db = Versioned {
            t: &t,
            overlay: Overlay {
                dead: &dead,
                tail: &tail,
                tail_alive: &[],
            },
        };
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(3)))
            .build();
        let run = |threads| {
            ParallelEngine::with_threads(threads)
                .execute(&plan, &db)
                .unwrap()
                .rows
        };
        let one = run(1);
        for threads in [2, 4] {
            let many = run(threads);
            assert_eq!(one, many, "threads={threads}");
        }
        // row 3 (k==3) is tombstoned; tail row 5000 matches and comes last
        assert!(!one.iter().any(|r| r[1] == Value::Int64(3)));
        assert_eq!(one.last().unwrap()[1], Value::Int64(5000));
    }

    #[test]
    fn scalar_partials_merge_exactly() {
        let t = kvf(30_000);
        let aggs = [
            AggExpr::count_star(),
            AggExpr::new(AggFunc::Sum, Expr::col(1)),
            AggExpr::new(AggFunc::Min, Expr::col(1)),
            AggExpr::new(AggFunc::Max, Expr::col(1)),
        ];
        let preds = [Expr::col(0).eq(Expr::lit(2))];
        let one = aggregate(1, &t, spec(&preds, &[]), &[], &aggs);
        for threads in [2, 4, 8] {
            let many = aggregate(threads, &t, spec(&preds, &[]), &[], &aggs);
            assert_eq!(one, many, "threads={threads}");
        }
        assert_eq!(one[0][0], Value::Int64(6_000));
    }

    #[test]
    fn grouped_partials_merge_exactly() {
        let t = kvf(10_000);
        let aggs = [
            AggExpr::count_star(),
            AggExpr::new(AggFunc::Sum, Expr::col(1)),
        ];
        // raw-u64-keyed groups, then GroupKey-keyed ones
        for group in [vec![Expr::col(0)], vec![Expr::col(0), Expr::col(0)]] {
            let mut one = aggregate(1, &t, spec(&[], &[]), &group, &aggs);
            one.sort_by_key(|r| format!("{r:?}"));
            assert_eq!(one.len(), 5);
            for threads in [2, 4] {
                let mut many = aggregate(threads, &t, spec(&[], &[]), &group, &aggs);
                many.sort_by_key(|r| format!("{r:?}"));
                assert_eq!(one, many, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_scan_yields_null_row() {
        let t = kvf(0);
        let aggs = [
            AggExpr::count_star(),
            AggExpr::new(AggFunc::Sum, Expr::col(1)),
        ];
        let out = aggregate(4, &t, spec(&[], &[]), &[], &aggs);
        assert_eq!(out, vec![vec![Value::Int64(0), Value::Null]]);
    }

    #[test]
    fn thread_knob_resolution() {
        assert_eq!(ParallelEngine::with_threads(3).effective_threads(), 3);
        assert!(ParallelEngine::new().effective_threads() >= 1);
    }
}
