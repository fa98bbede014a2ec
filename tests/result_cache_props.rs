//! Property tests for the result cache's one contract: with caching on,
//! every `execute` answer is byte-identical to the cache-off answer — and
//! to every engine's forced fresh run — under random interleavings of
//! queries, DML, and merges, across layouts. A `DbSnapshot` pinned before
//! the churn must keep answering from its cut, never from a newer cached
//! result.

use mrdb::prelude::*;
use mrdb::workloads::microbench;
use proptest::prelude::*;

/// Base-table size: big enough that repeated aggregates clear the
/// planner's admission floor, small enough to keep the suite quick.
const BASE_ROWS: usize = 20_000;

/// One random step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Execute query `idx % POOL` on both databases and compare.
    Query { idx: usize },
    /// Insert a row (`a` selects whether it matches the `A = 0` family).
    Insert { a: i32, v: i32 },
    /// Delete a live row (hint indexes the live set modulo its size).
    Delete { hint: usize },
    /// Synchronous merge: bumps the generation under the cache.
    Merge,
}

fn arb_op() -> BoxedStrategy<Op> {
    union(vec![
        (0usize..64).prop_map(|idx| Op::Query { idx }).boxed(),
        (0i32..4, 0i32..1000)
            .prop_map(|(a, v)| Op::Insert { a: -a, v })
            .boxed(),
        (0usize..1000).prop_map(|hint| Op::Delete { hint }).boxed(),
        Just(Op::Merge).boxed(),
    ])
}

/// The query pool: filtered aggregates and filtered scans over `R`, all
/// single-table so fragment reuse can engage on repeats. The `bool` says
/// whether the query's output row order is deterministic (scans, global
/// aggregates) — grouped aggregates may legitimately emit groups in any
/// order (hash iteration, parallel partition merge), so those compare
/// normalized instead of byte-for-byte.
fn pool() -> Vec<(LogicalPlan, bool)> {
    vec![
        (
            QueryBuilder::scan("R")
                .filter(Expr::col(0).eq(Expr::lit(0)))
                .aggregate(
                    vec![],
                    (1..=4)
                        .map(|c| AggExpr::new(AggFunc::Sum, Expr::col(c)))
                        .collect(),
                )
                .build(),
            true,
        ),
        (
            QueryBuilder::scan("R")
                .filter(Expr::col(1).lt(Expr::lit(500)))
                .aggregate(
                    vec![Expr::col(2)],
                    vec![
                        AggExpr::count_star(),
                        AggExpr::new(AggFunc::Sum, Expr::col(3)),
                    ],
                )
                .build(),
            false,
        ),
        (
            QueryBuilder::scan("R")
                .filter(Expr::col(0).eq(Expr::lit(0)))
                .build(),
            true,
        ),
        (
            QueryBuilder::scan("R")
                .filter(
                    Expr::col(2)
                        .ge(Expr::lit(250))
                        .and(Expr::col(3).lt(Expr::lit(750))),
                )
                .aggregate(vec![], vec![AggExpr::count_star()])
                .build(),
            true,
        ),
    ]
}

/// Row multiset under a total order, for order-insensitive comparison.
fn norm(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut v = rows.to_vec();
    v.sort_by_cached_key(|r| format!("{r:?}"));
    v
}

fn delete_one(db: &Database, hint: usize) {
    // Resolve against the live set under the table's write lock, exactly
    // like the concurrent-DML suite does.
    db.with_table_write("R", |vt| {
        let live: Vec<usize> = (0..vt.main().len() + vt.delta_rows())
            .filter(|&i| vt.is_visible(i))
            .collect();
        if !live.is_empty() {
            vt.delete(live[hint % live.len()]).unwrap();
        }
    })
    .unwrap();
}

fn insert_row(db: &Database, a: i32, v: i32) {
    let mut row = vec![Value::Int32(v); 16];
    row[0] = Value::Int32(a);
    db.insert("R", &row).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn cached_equals_uncached_under_churn(ops in proptest::collection::vec(arb_op(), 1..30)) {
        for (name, layout) in microbench::layouts() {
            let on = Database::new();
            on.register(microbench::generate(BASE_ROWS, 0.01, layout.clone(), 11));
            // pinned on, so the property holds even under PDSM_RESULT_CACHE=off
            on.set_result_cache(ResultCacheConfig::default());
            let off = Database::new();
            off.register(microbench::generate(BASE_ROWS, 0.01, layout.clone(), 11));
            off.set_result_cache(ResultCacheConfig { enabled: false, ..Default::default() });
            let queries = pool();

            for op in &ops {
                match op {
                    Op::Query { idx } => {
                        let (plan, ordered) = &queries[idx % queries.len()];
                        let a = on.execute(plan).unwrap();
                        let b = off.execute(plan).unwrap();
                        if *ordered {
                            prop_assert_eq!(&a.rows, &b.rows, "{}: cache-on vs cache-off", name);
                        } else {
                            prop_assert_eq!(
                                norm(&a.rows), norm(&b.rows),
                                "{}: cache-on vs cache-off (normalized)", name
                            );
                        }
                        // ...and every engine agrees with the cached answer
                        for kind in EngineKind::all() {
                            let forced = on.run(plan, kind).unwrap();
                            forced.clone().into_output().assert_same(
                                &a.clone().into_output(),
                                &format!("{name}: cached vs {kind:?}"),
                            );
                        }
                    }
                    Op::Insert { a, v } => {
                        insert_row(&on, *a, *v);
                        insert_row(&off, *a, *v);
                    }
                    Op::Delete { hint } => {
                        delete_one(&on, *hint);
                        delete_one(&off, *hint);
                    }
                    Op::Merge => {
                        on.merge_all().unwrap();
                        off.merge_all().unwrap();
                    }
                }
            }
            // terminal state: both databases hold identical rows
            let scan = QueryBuilder::scan("R").build();
            prop_assert_eq!(
                on.execute(&scan).unwrap().rows,
                off.execute(&scan).unwrap().rows,
                "{}: terminal scan", name
            );
        }
    }

    #[test]
    fn pinned_snapshot_never_reads_a_cached_future(ops in proptest::collection::vec(arb_op(), 1..25)) {
        let db = Database::new();
        db.register(microbench::generate(BASE_ROWS, 0.01, Layout::row(16), 23));
        db.set_result_cache(ResultCacheConfig::default());
        let queries = pool();
        // Warm the cache, then pin the cut and record its answers.
        let expected: Vec<QueryResult> =
            queries.iter().map(|(q, _)| db.execute(q).unwrap()).collect();
        let pinned = db.snapshot();
        // Churn the live database — every step re-caches fresh results.
        for op in &ops {
            match op {
                Op::Query { idx } => {
                    db.execute(&queries[idx % queries.len()].0).unwrap();
                }
                Op::Insert { a, v } => insert_row(&db, *a, *v),
                Op::Delete { hint } => delete_one(&db, *hint),
                Op::Merge => db.merge_all().unwrap(),
            }
        }
        // The snapshot still answers every pool query from its cut.
        for ((q, ordered), want) in queries.iter().zip(&expected) {
            let got = pinned.run(q, EngineKind::Compiled).unwrap();
            if *ordered {
                prop_assert_eq!(&got.rows, &want.rows, "snapshot drifted");
            } else {
                prop_assert_eq!(norm(&got.rows), norm(&want.rows), "snapshot drifted (normalized)");
            }
        }
    }
}
