//! Property tests for the statement cache's one contract: with caching
//! on, every answer — through `execute`, through `plan_query` then
//! `execute_physical`, or through `execute_physical` of a plan held across
//! DML and merges — is byte-identical to the cache-off answer and to every
//! engine's forced fresh run, under random interleavings of queries, DML,
//! and merges, across layouts; and `EXPLAIN`'s `hit`/`miss`/`bypass` is
//! what the next execution finds. A `DbSnapshot` pinned before the churn
//! must keep answering from its cut, never from a newer cached result.

use mrdb::plan::PhysicalPlan;
use mrdb::prelude::*;
use mrdb::workloads::microbench;
use proptest::prelude::*;
use std::sync::Arc;

/// Base-table size: big enough that repeated aggregates clear the
/// planner's admission floor, small enough to keep the suite quick.
const BASE_ROWS: usize = 20_000;

/// How the cache-on database answers a query step.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `execute`.
    Execute,
    /// `plan_query`, then `execute_physical` of the returned plan — the
    /// traced benchmark's split path. The plan is kept for `Held`.
    Split,
    /// `execute_physical` of the plan the last `Split` of this query
    /// returned, held across whatever DML and merges came since.
    Held,
    /// `explain`, then `execute`: the reported cache status must be what
    /// the execution finds.
    Explain,
}

/// One random step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Answer query `idx % POOL` on both databases and compare.
    Query { idx: usize, path: Path },
    /// Insert a row (`a` selects whether it matches the `A = 0` family).
    Insert { a: i32, v: i32 },
    /// Delete a live row (hint indexes the live set modulo its size).
    Delete { hint: usize },
    /// Synchronous merge: bumps the generation under the cache.
    Merge,
}

fn arb_op() -> BoxedStrategy<Op> {
    union(vec![
        (0usize..64, 0usize..4)
            .prop_map(|(idx, p)| Op::Query {
                idx,
                path: [Path::Execute, Path::Split, Path::Held, Path::Explain][p],
            })
            .boxed(),
        (0i32..4, 0i32..1000)
            .prop_map(|(a, v)| Op::Insert { a: -a, v })
            .boxed(),
        (0usize..1000).prop_map(|hint| Op::Delete { hint }).boxed(),
        Just(Op::Merge).boxed(),
    ])
}

/// The query pool: filtered aggregates and filtered scans over `R`, so
/// repeats are admitted and served from the cache. The `bool` says
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

/// Answer `plan` on the cache-on database the way `path` says; `held`
/// is this query's slot for plans kept by `Split`.
fn answer(
    db: &Database,
    plan: &LogicalPlan,
    path: Path,
    held: &mut Option<Arc<PhysicalPlan>>,
) -> QueryResult {
    match path {
        Path::Execute => db.execute(plan).unwrap(),
        Path::Split => {
            let phys = db.plan_query(plan).unwrap();
            let out = db.execute_physical(&phys).unwrap();
            *held = Some(phys);
            out
        }
        Path::Held => match held {
            Some(phys) => db.execute_physical(phys).unwrap(),
            None => db.execute(plan).unwrap(),
        },
        Path::Explain => {
            let status = db.explain(plan).unwrap();
            let before = db.cache_stats().result;
            let out = db.execute(plan).unwrap();
            let after = db.cache_stats().result;
            let moved = (after.hits - before.hits, after.misses - before.misses);
            let want = if status.contains("cache: hit") {
                (1, 0)
            } else if status.contains("cache: miss") {
                (0, 1)
            } else {
                assert!(status.contains("cache: bypass"), "{status}");
                (0, 0)
            };
            assert_eq!(moved, want, "EXPLAIN said otherwise:\n{status}");
            out
        }
    }
}

fn delete_one(db: &Database, hint: usize) {
    // Resolve against the live set under the table's write lock, exactly
    // like the concurrent-DML suite does.
    db.with_table_write("R", |vt| {
        let live: Vec<usize> = (0..vt.main_len() + vt.delta_rows())
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
            let mut held = vec![None; queries.len()];

            for op in &ops {
                match op {
                    Op::Query { idx, path } => {
                        let i = idx % queries.len();
                        let (plan, ordered) = &queries[i];
                        let a = answer(&on, plan, *path, &mut held[i]);
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
                Op::Query { idx, .. } => {
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
