//! The cost-based planner's correctness contract.
//!
//! `Database::execute` routes every query through the planner — engine
//! choice and scan-vs-index access path both come from
//! `pdsm_cost::estimate` — and must produce results byte-identical to
//! every fixed engine, on every layout, with and without a pending delta.
//! The suite also pins the `explain()` rendering, property-tests the
//! "never pick a path the model scores worse than full scan" invariant,
//! and covers the observed-workload capture and the generation-keyed plan
//! cache.

use mrdb::core::{DbError, EngineChoice, Planner};
use mrdb::cost::Hierarchy;
use mrdb::exec::ExecError;
use mrdb::prelude::*;
use mrdb::workloads::microbench;
use proptest::prelude::*;
use std::sync::Arc;

/// A small write mix: appends, one update, one delete — enough to leave a
/// non-trivial delta (tail rows *and* main tombstones).
fn churn(db: &Database, table: &str) {
    let width = db.get_table(table).unwrap().schema().len();
    let first_col = db.get_table(table).unwrap().schema().columns()[1]
        .name
        .clone();
    for i in 0..40 {
        let row: Vec<Value> = (0..width)
            .map(|c| Value::Int32(10_000 + i * width as i32 + c as i32))
            .collect();
        db.insert(table, &row).unwrap();
    }
    db.delete(table, 3).unwrap();
    db.delete(table, 7).unwrap();
    db.update(table, 11, &first_col, &Value::Int32(-777))
        .unwrap();
    assert!(db.with_table(table, |vt| vt.has_delta()).unwrap());
}

/// `execute` must agree with every fixed engine, and bare scans must agree
/// row-for-row in order.
fn assert_execute_matches_engines(db: &Database, plan: &LogicalPlan, ctx: &str) {
    let routed = db
        .execute(plan)
        .unwrap_or_else(|e| panic!("{ctx}: execute failed: {e}"));
    for kind in EngineKind::all() {
        let fixed = db
            .run(plan, kind)
            .unwrap_or_else(|e| panic!("{ctx}: {kind:?} failed: {e}"));
        routed.assert_same(&fixed, &format!("{ctx}: execute vs {kind:?}"));
    }
}

#[test]
fn execute_matches_every_engine_across_layouts_and_deltas() {
    for (lname, layout) in microbench::layouts() {
        for with_delta in [false, true] {
            let db = Database::new();
            db.register(microbench::generate(2_000, 0.05, layout.clone(), 9));
            if with_delta {
                churn(&db, "R");
            }
            let ctx = format!("{lname}/delta={with_delta}");
            assert_execute_matches_engines(&db, &microbench::query(0.05), &ctx);
            assert_execute_matches_engines(
                &db,
                &QueryBuilder::scan("R")
                    .filter(Expr::col(1).gt(Expr::lit(500)))
                    .project(vec![Expr::col(0), Expr::col(2)])
                    .build(),
                &ctx,
            );
            assert_execute_matches_engines(
                &db,
                &QueryBuilder::scan("R")
                    .aggregate(
                        vec![Expr::col(5)],
                        vec![
                            AggExpr::count_star(),
                            AggExpr::new(AggFunc::Sum, Expr::col(6)),
                        ],
                    )
                    .build(),
                &ctx,
            );
            // bare scans must also agree in exact row order
            let scan = QueryBuilder::scan("R").build();
            let routed = db.execute(&scan).unwrap();
            let fixed = db.run(&scan, EngineKind::Compiled).unwrap();
            assert_eq!(routed.rows, fixed.rows, "{ctx}: scan order");
        }
    }
}

/// A caller-built physical plan naming a `pdsm-bench` baseline is refused
/// with an error — never a panic, never a silent substitute engine.
#[test]
fn a_plan_naming_a_baseline_engine_is_refused() {
    let db = Database::new();
    db.register(microbench::generate(500, 0.1, Layout::row(16), 2));
    let mut phys = (*db.plan_query(&microbench::query(0.1)).unwrap()).clone();
    for engine in [EngineChoice::Bulk, EngineChoice::Vectorized] {
        phys.engine = engine;
        let err = db.execute_physical(&phys).unwrap_err();
        assert!(
            matches!(err, DbError::Exec(ExecError::Unsupported(_))),
            "{engine}: {err}"
        );
    }
    phys.engine = EngineChoice::Volcano;
    let oracle = db.execute_physical(&phys).unwrap();
    oracle.assert_same(&db.execute(&phys.logical).unwrap(), "volcano plan");
}

#[test]
fn indexed_selects_stay_indexed_under_write_load() {
    let db = Database::new();
    db.register(microbench::generate(3_000, 0.01, Layout::row(16), 5));
    db.create_index("R", "B", IndexKind::Hash).unwrap();
    // write load: new rows (one with the probed key), tombstones, updates
    let probed = db.get_table("R").unwrap().get(100, 1).unwrap();
    churn(&db, "R");
    let mut hit_row: Vec<Value> = (0..16).map(|c| Value::Int32(90_000 + c)).collect();
    hit_row[1] = probed.clone();
    db.insert("R", &hit_row).unwrap();

    let plan = QueryBuilder::scan("R")
        .filter(Expr::col(1).eq(Expr::lit(probed.as_i64().unwrap() as i32)))
        .build();
    let phys = db.plan_query(&plan).unwrap();
    assert!(
        phys.access().is_indexed(),
        "identity select should probe the index:\n{}",
        phys.explain()
    );
    assert!(phys.pipelines[0].delta_rows > 0, "delta must be pending");

    // run_indexed no longer declines tables with a pending delta, and the
    // probe is byte-identical (including order) to an engine scan
    let probed_out = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
    let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(probed_out.rows, scanned.rows, "probe vs scan order");
    assert!(!probed_out.is_empty());
    assert_execute_matches_engines(&db, &plan, "indexed-under-write-load");
}

/// A plan says `index` only when it will probe: an index a merge left a
/// generation behind is not in the statement's view, so the plan — and
/// `EXPLAIN` — say scan until the rebuild, and a physical plan lowered
/// before the swap is lowered again rather than probing a stale index.
#[test]
fn an_index_lagging_the_pinned_generation_is_not_planned() {
    let db = Database::new();
    db.register(microbench::generate(3_000, 0.01, Layout::row(16), 5));
    db.create_index("R", "B", IndexKind::Hash).unwrap();
    churn(&db, "R");
    let probed = db.get_table("R").unwrap().get(100, 1).unwrap();
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col(1).eq(Expr::lit(probed.as_i64().unwrap() as i32)))
        .build();
    let before_swap = db.plan_query(&plan).unwrap();
    assert!(before_swap.access().is_indexed());

    // The table-level merge swaps the main store in and renumbers its
    // rows; the catalog's reindex does not run.
    let shared = db.shared("R").unwrap();
    shared.merge(0, |cut| cut.store().layout().clone()).unwrap();
    let explain = db.explain(&plan).unwrap();
    assert!(
        explain.contains("via full scan") && !explain.contains("index"),
        "{explain}"
    );
    let phys = db.plan_query(&plan).unwrap();
    assert!(!phys.access().is_indexed(), "{}", phys.explain());
    assert!(phys.alternatives.iter().all(|(label, _)| label != "index"));
    let want = db.run(&plan, EngineKind::Volcano).unwrap();
    assert!(!want.is_empty());
    assert_eq!(db.execute(&plan).unwrap(), want);
    assert_eq!(db.execute_physical(&before_swap).unwrap(), want);
    assert_eq!(db.run_indexed(&plan, EngineKind::Compiled).unwrap(), want);

    // The catalog's merge rebuilds the index for the generation it makes.
    db.merge("R").unwrap();
    let phys = db.plan_query(&plan).unwrap();
    assert!(phys.access().is_indexed(), "{}", phys.explain());
    assert_eq!(db.execute(&plan).unwrap(), want);
}

#[test]
fn coerced_literals_never_probe_the_index() {
    // Int32 column, Float64 literal: the engines coerce the comparison
    // (3.0 == 3), but the index keys integers by value — a probe would
    // silently miss every main-store hit. The planner must leave this
    // shape on the scan path.
    let db = Database::new();
    db.create_table("t", Schema::new(vec![ColumnDef::new("k", DataType::Int32)]))
        .unwrap();
    for i in 0..500 {
        db.insert("t", &[Value::Int32(i)]).unwrap();
    }
    db.merge("t").unwrap();
    db.create_index("t", "k", IndexKind::Hash).unwrap();
    let plan = QueryBuilder::scan("t")
        .filter(Expr::col(0).eq(Expr::lit(3.0)))
        .build();
    assert!(
        !db.plan_query(&plan).unwrap().access().is_indexed(),
        "float literal must not be probed against an int index"
    );
    let fixed = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(fixed.len(), 1, "engines coerce 3.0 == 3");
    let routed = db.execute(&plan).unwrap();
    assert_eq!(routed.rows, fixed.rows);
    let probed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(probed.rows, fixed.rows);
}

#[test]
fn range_probe_keeps_i64_extreme_keys() {
    // An RB-tree can index i64::MIN; `col <= 0` must not skip it.
    let db = Database::new();
    db.create_table("t", Schema::new(vec![ColumnDef::new("k", DataType::Int64)]))
        .unwrap();
    for v in [i64::MIN, -5, 0, 5, i64::MAX] {
        db.insert("t", &[Value::Int64(v)]).unwrap();
    }
    db.merge("t").unwrap();
    db.create_index("t", "k", IndexKind::RBTree).unwrap();
    for plan in [
        QueryBuilder::scan("t")
            .filter(Expr::col(0).le(Expr::lit(0i64)))
            .build(),
        QueryBuilder::scan("t")
            .filter(Expr::col(0).lt(Expr::lit(i64::MIN)))
            .build(),
        QueryBuilder::scan("t")
            .filter(Expr::col(0).gt(Expr::lit(i64::MAX)))
            .build(),
        QueryBuilder::scan("t")
            .filter(Expr::col(0).ge(Expr::lit(i64::MAX)))
            .build(),
    ] {
        let fixed = db.run(&plan, EngineKind::Compiled).unwrap();
        let probed = db.run_indexed(&plan, EngineKind::Compiled).unwrap();
        assert_eq!(probed.rows, fixed.rows, "plan {plan:?}");
        let routed = db.execute(&plan).unwrap();
        routed.assert_same(&fixed, "execute vs compiled at i64 extremes");
    }
}

#[test]
fn point_probe_preferred_over_range_whatever_the_conjunct_order() {
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("v", DataType::Int64),
            ColumnDef::new("k", DataType::Int32),
        ]),
    )
    .unwrap();
    for i in 0..2_000i64 {
        db.insert("t", &[Value::Int64(i), Value::Int32((i % 400) as i32)])
            .unwrap();
    }
    db.merge("t").unwrap();
    db.create_index("t", "v", IndexKind::RBTree).unwrap();
    db.create_index("t", "k", IndexKind::Hash).unwrap();
    // the range conjunct comes first; the point probe must still win
    let plan = QueryBuilder::scan("t")
        .filter(
            Expr::col(0)
                .lt(Expr::lit(1_900i64))
                .and(Expr::col(1).eq(Expr::lit(5))),
        )
        .build();
    let phys = db.plan_query(&plan).unwrap();
    assert!(
        matches!(
            phys.access(),
            mrdb::core::AccessPath::IndexPoint { column: 1, .. }
        ),
        "expected a point probe on k:\n{}",
        phys.explain()
    );
    let routed = db.execute(&plan).unwrap();
    let fixed = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(routed.rows, fixed.rows);
}

#[test]
fn selective_residual_does_not_make_a_wide_range_probe_look_cheap() {
    // `v < huge AND k = 5`: the probe fetches every `v < huge` row; the
    // selective equality filters only afterwards. Pricing hits from the
    // full predicate would make the near-full-table probe look cheap.
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("v", DataType::Int64),
            ColumnDef::new("k", DataType::Int32),
        ]),
    )
    .unwrap();
    for i in 0..30_000i64 {
        db.insert("t", &[Value::Int64(i), Value::Int32((i % 500) as i32)])
            .unwrap();
    }
    db.merge("t").unwrap();
    db.create_index("t", "v", IndexKind::RBTree).unwrap(); // only index
    let plan = QueryBuilder::scan("t")
        .filter(
            Expr::col(0)
                .lt(Expr::lit(29_000i64))
                .and(Expr::col(1).eq(Expr::lit(5))),
        )
        .build();
    let phys = db.plan_query(&plan).unwrap();
    assert!(
        !phys.access().is_indexed(),
        "a near-full-table range probe must lose to the scan:\n{}",
        phys.explain()
    );
    let routed = db.execute(&plan).unwrap();
    let fixed = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(routed.rows, fixed.rows);
}

#[test]
fn explain_snapshot() {
    let db = Database::new();
    db.register(microbench::generate(
        1_000,
        0.01,
        microbench::pdsm_layout(),
        5,
    ));
    db.create_index("R", "A", IndexKind::Hash).unwrap();
    let plan = QueryBuilder::scan("R")
        .filter_with_selectivity(Expr::col(0).eq(Expr::lit(0)), 0.01)
        .project(vec![Expr::col(1)])
        .build();
    // a pinned thread count keeps the parallel alternative deterministic
    let planner = Planner {
        hierarchy: Hierarchy::nehalem(),
        threads: 4,
    };
    let phys = planner.plan(&db.snapshot(), &plan).unwrap();
    let expected = "\
physical plan
  engine: compiled
  pipeline 0: R via index probe col 0 = 0 — est 10 of 1000 rows (+0 delta)
  cost: 2485 cycles (mem 985 + cpu 1500), est 10 output rows
  alternatives: index=2485 scan/compiled=7252 scan/parallel=39813
";
    assert_eq!(
        phys.explain(),
        expected,
        "explain drifted:\n{}",
        phys.explain()
    );
    // the database-level EXPLAIN goes through the cache/default planner
    let rendered = db.explain(&plan).unwrap();
    assert!(rendered.contains("index probe col 0 = 0"), "{rendered}");
    assert!(rendered.contains("cost:"), "{rendered}");
}

#[test]
fn observed_workload_captures_routed_traffic() {
    let db = Database::new();
    db.register(microbench::generate(500, 0.05, Layout::row(16), 3));
    let q1 = microbench::query(0.05);
    let q2 = QueryBuilder::scan("R").build();
    for _ in 0..3 {
        db.execute(&q1).unwrap();
    }
    db.execute(&q2).unwrap();
    // forced-engine runs are not traffic the planner observed
    db.run(&q2, EngineKind::Compiled).unwrap();

    let w = db.observed_workload();
    assert_eq!(w.queries.len(), 2);
    let f1 = w.queries.iter().find(|q| q.plan == q1).unwrap().frequency;
    let f2 = w.queries.iter().find(|q| q.plan == q2).unwrap().frequency;
    assert_eq!(f1, 3.0);
    assert_eq!(f2, 1.0);

    // the captured workload feeds the advisor: the narrow query should
    // pull the advised layout away from plain row storage
    let report = LayoutAdvisor::default().advise_observed(&db);
    assert_eq!(report.tables.len(), 1);
    assert!(report.tables[0].estimated_cost <= report.tables[0].row_cost);

    db.clear_observed_workload();
    assert!(db.observed_workload().queries.is_empty());
}

#[test]
fn plan_cache_keyed_on_generations_and_catalog() {
    let db = Database::new();
    db.register(microbench::generate(800, 0.05, Layout::row(16), 3));
    let plan = microbench::query(0.05);

    let p1 = db.plan_query(&plan).unwrap();
    let p2 = db.plan_query(&plan).unwrap();
    assert!(Arc::ptr_eq(&p1, &p2), "stable state must hit the cache");

    // DML moves the delta fingerprint → replan
    db.insert("R", &(0..16).map(Value::Int32).collect::<Vec<_>>())
        .unwrap();
    let p3 = db.plan_query(&plan).unwrap();
    assert!(!Arc::ptr_eq(&p2, &p3), "delta must invalidate");

    // merge bumps the generation → replan
    db.merge("R").unwrap();
    let p4 = db.plan_query(&plan).unwrap();
    assert!(!Arc::ptr_eq(&p3, &p4), "merge must invalidate");

    // catalog change (new index) → replan, and the new plan may now probe
    db.create_index("R", "A", IndexKind::Hash).unwrap();
    let p5 = db.plan_query(&plan).unwrap();
    assert!(!Arc::ptr_eq(&p4, &p5), "index creation must invalidate");
}

/// Execution consumes the access path the plan recorded instead of
/// re-deriving it, so a plan can outlive its index. The probe's own
/// checks must then send it to the scan: once with the index dropped
/// after planning, once with the index a generation behind the snapshot.
#[test]
fn stale_indexed_plans_fall_back_to_the_scan() {
    let fresh = || {
        let db = Database::new();
        db.register(microbench::generate(3_000, 0.01, Layout::row(16), 5));
        db.create_index("R", "A", IndexKind::Hash).unwrap();
        db
    };
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col(0).eq(Expr::lit(0)))
        .project(vec![Expr::col(0), Expr::col(1)])
        .build();

    let db = fresh();
    let phys = db.plan_query(&plan).unwrap();
    assert!(phys.access().is_indexed(), "{}", phys.explain());
    db.drop_index("R", "A").unwrap();
    let stale = db.execute_physical(&phys).unwrap();
    let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(stale.rows, scanned.rows, "dropped index");
    assert_eq!(stale.len(), 30);

    let db = fresh();
    let phys = db.plan_query(&plan).unwrap();
    assert!(phys.access().is_indexed(), "{}", phys.explain());
    // one more matching row, folded in by a merge on the table handle —
    // which renumbers the main store without rebuilding the index
    let mut hit: Vec<Value> = (0..16).map(Value::Int32).collect();
    hit[0] = Value::Int32(0);
    db.insert("R", &hit).unwrap();
    db.delete("R", 0).unwrap();
    db.with_table_write("R", |vt| vt.merge()).unwrap().unwrap();
    let stale = db.execute_physical(&phys).unwrap();
    let scanned = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(stale.rows, scanned.rows, "index lags the merged main store");
    assert!(stale.rows.contains(&vec![Value::Int32(0), Value::Int32(1)]));
}

/// One workload of the decision matrix: tables, read plans and indexes.
struct Subject {
    name: &'static str,
    tables: Vec<Table>,
    plans: Vec<(String, LogicalPlan)>,
    indexes: Vec<(&'static str, &'static str, IndexKind)>,
}

/// SAP-SD and CH with their query sets, the microbenchmark with its sum
/// query plus a point and a range select. Indexes are the paper's (hash on
/// `KNA1.KUNNR`, RB-tree on `VBAP.VBELN`); the microbenchmark gets one of
/// each so its probe shapes have candidates.
fn decision_subjects() -> Vec<Subject> {
    let named = |qs: Vec<mrdb::workloads::BenchQuery>| -> Vec<(String, LogicalPlan)> {
        qs.iter()
            .filter_map(|q| q.as_plan().map(|p| (q.name.clone(), p.clone())))
            .collect()
    };
    let mut micro: Vec<(String, LogicalPlan)> = [0.001, 0.05, 0.5]
        .into_iter()
        .map(|sel| (format!("sum-sel{sel}"), microbench::query(sel)))
        .collect();
    micro.push((
        "point".into(),
        QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(0)))
            .project(vec![Expr::col(1)])
            .build(),
    ));
    micro.push((
        "range".into(),
        QueryBuilder::scan("R")
            .filter_with_selectivity(Expr::col(1).lt(Expr::lit(2)), 0.002)
            .build(),
    ));
    vec![
        Subject {
            name: "sapsd",
            tables: mrdb::workloads::sapsd::tables(1_500, 7),
            plans: named(mrdb::workloads::sapsd::queries(1_500)),
            indexes: vec![
                ("KNA1", "KUNNR", IndexKind::Hash),
                ("VBAP", "VBELN", IndexKind::RBTree),
            ],
        },
        Subject {
            name: "ch",
            tables: mrdb::workloads::ch::tables(1, 7),
            plans: named(mrdb::workloads::ch::queries()),
            indexes: vec![("ORDER_LINE", "ol_delivery_d", IndexKind::RBTree)],
        },
        Subject {
            name: "micro",
            tables: vec![microbench::generate(6_000, 0.01, Layout::row(16), 7)],
            plans: micro,
            indexes: vec![("R", "A", IndexKind::Hash), ("R", "B", IndexKind::RBTree)],
        },
    ]
}

/// Engine, access path, predicted cost and cache admission of every
/// workload plan × {row, column, advised} × ±delta × ±index, one line per
/// case, from a planner pinned at 8 threads (large scans go parallel,
/// small ones stay compiled). Also checks the shape of the decision space.
fn decision_table() -> String {
    let planner = Planner {
        hierarchy: Hierarchy::nehalem(),
        threads: 8,
    };
    let mut out = String::new();
    for Subject {
        name: wname,
        tables,
        plans,
        indexes,
    } in decision_subjects()
    {
        let row_db = Database::new();
        for t in &tables {
            row_db.register(t.clone());
        }
        let mut workload = Workload::new();
        for (name, plan) in &plans {
            workload.push(WorkloadQuery::new(name.clone(), plan.clone()));
        }
        let advised: Vec<(String, Layout)> = LayoutAdvisor::default()
            .advise(&row_db, &workload)
            .tables
            .into_iter()
            .map(|a| (a.table, a.layout))
            .collect();
        for lname in ["row", "column", "advised"] {
            for with_index in [false, true] {
                for with_delta in [false, true] {
                    let db = Database::new();
                    for t in &tables {
                        db.register(t.clone());
                        let width = t.schema().len();
                        match lname {
                            "column" => db.relayout(t.name(), Layout::column(width)).unwrap(),
                            "advised" => {
                                if let Some((_, l)) = advised.iter().find(|(n, _)| n == t.name()) {
                                    db.relayout(t.name(), l.clone()).unwrap();
                                }
                            }
                            _ => {}
                        }
                    }
                    if with_index {
                        for (t, c, kind) in &indexes {
                            db.create_index(t, c, *kind).unwrap();
                        }
                    }
                    if with_delta {
                        // re-append copies of the first rows, tombstone up to two
                        for t in &tables {
                            let main = db.get_table(t.name()).unwrap();
                            for r in 0..main.len().min(25) {
                                db.insert(t.name(), main.row(r).unwrap().values()).unwrap();
                            }
                            db.delete(t.name(), 0).unwrap();
                            if main.len() > 7 {
                                db.delete(t.name(), 7).unwrap();
                            }
                        }
                    }
                    let view = db.snapshot();
                    for (qname, plan) in &plans {
                        let phys = planner.plan(&view, plan).unwrap();
                        let ctx = format!(
                            "{wname}/{lname}/index={with_index}/delta={with_delta}/{qname}"
                        );
                        assert!(
                            matches!(phys.engine, EngineChoice::Compiled | EngineChoice::Parallel),
                            "{ctx}: chose {}",
                            phys.engine
                        );
                        for (label, _) in &phys.alternatives {
                            assert!(
                                ["scan/compiled", "scan/parallel", "index"]
                                    .contains(&label.as_str()),
                                "{ctx}: priced {label}"
                            );
                        }
                        out.push_str(&format!(
                            "{ctx} engine={} access={:?} mem={:?} cpu={:?} disk={:?} admit={}\n",
                            phys.engine,
                            phys.access(),
                            phys.cost.mem_cycles,
                            phys.cost.cpu_cycles,
                            phys.cost.disk_cycles,
                            phys.cache_admit
                        ));
                    }
                }
            }
        }
    }
    out
}

/// The planner prices only what it can choose — and chooses exactly what
/// the five-engine planner chose: `tests/planner_decisions.txt` was
/// captured from it (parent of the commit that removed the Volcano /
/// bulk / vectorized alternatives) by this same function.
#[test]
fn decisions_match_the_table_captured_before_the_baselines_left_the_planner() {
    let got = decision_table();
    let want = include_str!("planner_decisions.txt");
    assert_eq!(got.lines().count(), want.lines().count(), "case count");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "planner decision drifted");
    }
    assert!(got.contains("engine=parallel") && got.contains("engine=compiled"));
    assert!(got.contains("IndexPoint") && got.contains("IndexRange"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The invariant the tentpole demands: whenever the planner picks an
    /// index path, the model scored it no worse than the best full scan —
    /// and execution through the planner stays identical to the engines.
    #[test]
    fn planner_never_picks_a_costlier_index_path(
        n in 200usize..1500,
        key_mod in 1i32..60,
        point in 0i32..80,
        bound in 0i32..2000,
        delta in 0usize..30,
    ) {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int32),
                ColumnDef::new("v", DataType::Int32),
            ]),
        )
        .unwrap();
        for i in 0..n as i32 {
            db.insert("t", &[Value::Int32(i % key_mod), Value::Int32(i)]).unwrap();
        }
        db.merge("t").unwrap();
        db.create_index("t", "k", IndexKind::Hash).unwrap();
        db.create_index("t", "v", IndexKind::RBTree).unwrap();
        for i in 0..delta as i32 {
            db.insert("t", &[Value::Int32(i % key_mod), Value::Int32(-i)]).unwrap();
        }
        let plans = [
            QueryBuilder::scan("t").filter(Expr::col(0).eq(Expr::lit(point))).build(),
            QueryBuilder::scan("t").filter(Expr::col(1).lt(Expr::lit(bound))).build(),
            QueryBuilder::scan("t")
                .filter(Expr::col(1).ge(Expr::lit(bound)))
                .project(vec![Expr::col(0)])
                .build(),
        ];
        for plan in &plans {
            let phys = db.plan_query(plan).unwrap();
            if phys.access().is_indexed() {
                let scan = phys.best_scan_cost().expect("scan alternatives always priced");
                prop_assert!(
                    phys.cost.total() <= scan + 1e-9,
                    "index path scored worse than scan: {} vs {scan}\n{}",
                    phys.cost.total(),
                    phys.explain()
                );
            }
            let routed = db.execute(plan).unwrap();
            let fixed = db.run(plan, EngineKind::Compiled).unwrap();
            prop_assert_eq!(&routed.rows, &fixed.rows, "execute vs compiled scan order");
        }
    }
}
