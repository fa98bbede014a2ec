//! Cross-engine differential testing: for randomly generated tables,
//! layouts and plans, every registered processing model must produce
//! identical results. This is the load-bearing guarantee behind every
//! performance comparison in the benchmark harness — if the engines
//! disagree, the figures are meaningless.
//!
//! Engines are enumerated through `EngineKind::all()` and compared against
//! the `EngineKind::Volcano` oracle, so a newly registered engine (e.g. the
//! morsel-driven parallel one) is covered here without editing any test.
//! The Fig.-3 bulk and vectorized baselines are checked the same way in
//! `crates/bench/tests/baselines.rs`.

use mrdb::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

mod common;

/// Build a 6-column table (i32, i32, i64, f64 nullable, str, i32) with `n`
/// rows derived from a seed.
fn make_table(n: usize, seed: u64, layout: Layout) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("a", DataType::Int32),
        ColumnDef::new("b", DataType::Int32),
        ColumnDef::new("c", DataType::Int64),
        ColumnDef::nullable("d", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::new("e", DataType::Int32),
    ]);
    let mut t = Table::with_layout("t", schema, layout).unwrap();
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for i in 0..n {
        let d = if next() % 5 == 0 {
            Value::Null
        } else {
            Value::Float64((next() % 1000) as f64 / 8.0)
        };
        t.insert(&[
            Value::Int32((next() % 50) as i32 - 25),
            Value::Int32((next() % 10) as i32),
            Value::Int64((next() % 10_000) as i64),
            d,
            Value::Str(format!("s{}", next() % 7)),
            Value::Int32(i as i32),
        ])
        .unwrap();
    }
    t
}

/// A strategy over simple predicate expressions on the 6-column schema.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-30i32..30).prop_map(|v| Expr::col(0).lt(Expr::lit(v))),
        (0i32..10).prop_map(|v| Expr::col(1).eq(Expr::lit(v))),
        (0i64..10_000).prop_map(|v| Expr::col(2).ge(Expr::lit(v))),
        (0i32..7).prop_map(|v| Expr::col(4).eq(Expr::lit(format!("s{v}")))),
        Just(Expr::col(3).is_null()),
        (0i32..7).prop_map(|v| Expr::col(4).like(format!("s{v}%"))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

/// A strategy over layouts of the 6-column schema.
fn arb_layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::row(6)),
        Just(Layout::column(6)),
        Just(Layout::from_groups(vec![vec![0, 2], vec![1, 4], vec![3, 5]], 6).unwrap()),
        Just(Layout::from_groups(vec![vec![5, 1, 0], vec![2], vec![3], vec![4]], 6).unwrap()),
    ]
}

fn run_all(plan: &LogicalPlan, db: &HashMap<String, Table>, ctx: &str) {
    common::assert_engines_agree(plan, db, ctx);
}

/// `plan` on every engine against the Volcano oracle, then on the parallel
/// engine at 1/2/4/8 threads against the compiled engine: row for row when
/// `ordered` (the plan's output order is fixed), else up to row order.
fn breaker_case(plan: &LogicalPlan, db: &HashMap<String, Table>, ordered: bool, ctx: &str) {
    common::assert_engines_agree(plan, db, ctx);
    let compiled = EngineKind::Compiled.engine().execute(plan, db).unwrap();
    for threads in [1, 2, 4, 8] {
        let par = ParallelEngine::with_threads(threads)
            .execute(plan, db)
            .unwrap();
        let ctx = format!("{ctx}: parallel({threads})");
        if ordered {
            assert_eq!(compiled.rows, par.rows, "{ctx}");
        } else {
            compiled.assert_same(&par, &ctx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_project(pred in arb_pred(), layout in arb_layout(), seed in 1u64..5000) {
        let t = make_table(300, seed, layout);
        let mut db = HashMap::new();
        db.insert("t".to_string(), t);
        let plan = QueryBuilder::scan("t")
            .filter(pred)
            .project(vec![Expr::col(5), Expr::col(0), Expr::col(3)])
            .build();
        run_all(&plan, &db, "filter_project");
    }

    #[test]
    fn filter_aggregate(pred in arb_pred(), layout in arb_layout(), seed in 1u64..5000) {
        let t = make_table(300, seed, layout);
        let mut db = HashMap::new();
        db.insert("t".to_string(), t);
        let plan = QueryBuilder::scan("t")
            .filter(pred)
            .aggregate(
                vec![Expr::col(1)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                    AggExpr::new(AggFunc::Min, Expr::col(2)),
                    AggExpr::new(AggFunc::Max, Expr::col(2)),
                ],
            )
            .build();
        run_all(&plan, &db, "filter_aggregate");
    }

    #[test]
    fn join_aggregate(pred in arb_pred(), l1 in arb_layout(), l2 in arb_layout(), seed in 1u64..5000) {
        let t1 = make_table(200, seed, l1);
        let mut t2 = make_table(150, seed.wrapping_mul(31), l2);
        // rename to make a second table
        let mut db = HashMap::new();
        t2 = t2.relayout(t2.layout().clone()).unwrap();
        db.insert("t".to_string(), t1);
        db.insert("u".to_string(), t2);
        let plan = QueryBuilder::scan("t")
            .filter(pred)
            .join(QueryBuilder::scan("u").build(), Expr::col(1), Expr::col(1))
            .aggregate(
                vec![Expr::col(6 + 4)],
                vec![AggExpr::count_star(), AggExpr::new(AggFunc::Sum, Expr::col(6 + 2))],
            )
            .build();
        run_all(&plan, &db, "join_aggregate");
    }

    #[test]
    fn sort_limit_exact(layout in arb_layout(), seed in 1u64..5000, k in 1usize..40) {
        let t = make_table(250, seed, layout);
        let mut db = HashMap::new();
        db.insert("t".to_string(), t);
        let plan = QueryBuilder::scan("t")
            .project(vec![Expr::col(2), Expr::col(5)])
            .sort(vec![(Expr::col(0), false), (Expr::col(1), true)])
            .limit(k)
            .build();
        // sorted output with a unique tiebreak column must match the
        // Volcano oracle exactly — row-for-row, on every registered engine
        let oracle = EngineKind::Volcano.engine().execute(&plan, &db).unwrap();
        for kind in EngineKind::all() {
            let out = kind.engine().execute(&plan, &db).unwrap();
            prop_assert_eq!(&oracle.rows, &out.rows, "{:?}", kind);
        }
    }

    #[test]
    fn sort_limit_exact_under_ties(layout in arb_layout(), seed in 1u64..5000, k in 0usize..300) {
        let t = make_table(250, seed, layout);
        let mut db = HashMap::new();
        db.insert("t".to_string(), t);
        // No unique tiebreak: `b` has ten values and `s` seven, so about
        // 3.5 rows share each key and the limit cuts through tied runs;
        // the unsorted `e` shows which of them came first.
        let project = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(4), Expr::col(3), Expr::col(5)])
            .build();
        let keys = [(Expr::col(0), true), (Expr::col(1), false)];
        let plan = QueryBuilder::from_plan(project.clone())
            .sort(keys.to_vec())
            .limit(k)
            .build();
        // the contract: a stable sort of the scan order, then the first k
        let mut expect = EngineKind::Volcano.engine().execute(&project, &db).unwrap().rows;
        expect.sort_by(|a, b| {
            keys.iter()
                .map(|(e, asc)| {
                    let ord = mrdb::storage::types::cmp_values(&e.eval(&a[..]), &e.eval(&b[..]));
                    if *asc { ord } else { ord.reverse() }
                })
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        expect.truncate(k);
        for kind in EngineKind::all() {
            let out = kind.engine().execute(&plan, &db).unwrap();
            prop_assert_eq!(&expect, &out.rows, "{:?}", kind);
        }
        for threads in [2, 8] {
            let out = ParallelEngine::with_threads(threads).execute(&plan, &db).unwrap();
            prop_assert_eq!(&expect, &out.rows, "parallel({})", threads);
        }
    }

    /// Pipes whose source is a pipeline breaker's rows: a selection and a
    /// projection over an aggregate, joins whose probe side is an
    /// aggregate or an `ORDER BY … LIMIT`, and aggregates over a limit.
    #[test]
    fn breaker_sources(
        pred in arb_pred(),
        l1 in arb_layout(),
        l2 in arb_layout(),
        seed in 1u64..5000,
        k in 0usize..60,
    ) {
        let mut db = HashMap::new();
        db.insert("t".to_string(), make_table(300, seed, l1));
        db.insert("u".to_string(), make_table(120, seed.wrapping_mul(31), l2));
        let by_b = QueryBuilder::scan("t")
            .filter(pred.clone())
            .aggregate(
                vec![Expr::col(1)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        // `e`, unique, breaks every tie of the sort.
        let top = QueryBuilder::scan("t")
            .filter(pred.clone())
            .project(vec![Expr::col(2), Expr::col(5), Expr::col(1)])
            .sort(vec![(Expr::col(0), false), (Expr::col(1), true)])
            .limit(k)
            .build();
        let over_aggregate = QueryBuilder::from_plan(by_b.clone())
            .filter(Expr::col(1).gt(Expr::lit(2i64)))
            .project(vec![Expr::col(0), Expr::col(2).mul(Expr::lit(2)), Expr::col(3)])
            .build();
        breaker_case(&over_aggregate, &db, false, "select + project over an aggregate");
        let probe_aggregate = QueryBuilder::scan("u")
            .join(by_b, Expr::col(1), Expr::col(0))
            .project(vec![Expr::col(5), Expr::col(6 + 1), Expr::col(6 + 3)])
            .build();
        breaker_case(&probe_aggregate, &db, false, "join probing with an aggregate");
        // A spanning conjunct stays a filter step above the probe.
        let probe_top = QueryBuilder::scan("u")
            .join(top.clone(), Expr::col(1), Expr::col(2))
            .filter(Expr::col(2).lt(Expr::col(6)))
            .project(vec![Expr::col(5), Expr::col(6 + 1), Expr::col(2)])
            .build();
        breaker_case(&probe_top, &db, true, "join probing with ORDER BY … LIMIT");
        let over_limit = QueryBuilder::scan("t")
            .filter(pred)
            .limit(k)
            .aggregate(
                vec![Expr::col(4)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(3)),
                    AggExpr::new(AggFunc::Min, Expr::col(0)),
                ],
            )
            .build();
        breaker_case(&over_limit, &db, false, "aggregate over a limit");
        let over_top = QueryBuilder::from_plan(top)
            .aggregate(vec![], vec![AggExpr::count_star(), AggExpr::new(AggFunc::Sum, Expr::col(0))])
            .build();
        breaker_case(&over_top, &db, false, "aggregate over ORDER BY … LIMIT");
    }

    #[test]
    fn arithmetic_projection(layout in arb_layout(), seed in 1u64..5000, div in 1i32..20) {
        let t = make_table(200, seed, layout);
        let mut db = HashMap::new();
        db.insert("t".to_string(), t);
        // the CNET price-bucket idiom: (x / d) * d, with NULL propagation
        let bucket = Expr::col(3).div(Expr::lit(div)).mul(Expr::lit(div));
        let plan = QueryBuilder::scan("t")
            .aggregate(vec![bucket], vec![AggExpr::count_star()])
            .build();
        run_all(&plan, &db, "arithmetic_projection");
    }
}

#[test]
fn empty_table_all_plans() {
    let t = make_table(0, 1, Layout::row(6));
    let mut db = HashMap::new();
    db.insert("t".to_string(), t);
    for plan in [
        QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(1)))
            .build(),
        QueryBuilder::scan("t")
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build(),
        QueryBuilder::scan("t")
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .build(),
    ] {
        run_all(&plan, &db, "empty_table");
    }
}
