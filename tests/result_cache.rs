//! The statement cache, end to end: repeat executes hit, DML and merges
//! invalidate through the `(generation, delta_ops)` tokens, the cost
//! model's admission test bypasses cheap plans, `EXPLAIN` reports the live
//! cache status without counting, eviction respects the byte budget, the
//! plan bound never drops a result, and `DbSnapshot` execution never sees
//! a post-DML cached result.

use mrdb::prelude::*;
use mrdb::workloads::microbench;

/// Rows and selectivity big enough that the planner prices re-execution
/// far above copy-out — i.e. the plan is admitted.
const BIG: usize = 50_000;

fn big_db() -> Database {
    let db = Database::new();
    db.register(microbench::generate(BIG, 0.01, Layout::row(16), 7));
    // Pin the cache on: this suite must test it even when the whole test
    // run is executed under PDSM_RESULT_CACHE=off (the CI off-leg).
    db.set_result_cache(ResultCacheConfig::default());
    db
}

/// A row that matches `A = 0` and moves every `SUM(B..E)` answer.
fn matching_row() -> Vec<Value> {
    let mut row = vec![Value::Int32(9999); 16];
    row[0] = Value::Int32(0);
    row
}

/// `SUM(B..E)` under `A = lit` — expensive to compute, one row out.
fn agg(lit: i32) -> LogicalPlan {
    QueryBuilder::scan("R")
        .filter(Expr::col(0).eq(Expr::lit(lit)))
        .aggregate(
            vec![],
            (1..=4)
                .map(|c| AggExpr::new(AggFunc::Sum, Expr::col(c)))
                .collect(),
        )
        .build()
}

#[test]
fn repeated_query_hits_and_stays_correct() {
    let db = big_db();
    let plan = agg(0);
    let first = db.execute(&plan).unwrap();
    let second = db.execute(&plan).unwrap();
    assert_eq!(first.rows, second.rows);
    // the cached answer is byte-identical to a forced fresh execution
    let fresh = db.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(second.rows, fresh.rows);
    let s = db.cache_stats().result;
    assert!(s.insertions >= 1, "{s:?}");
    assert!(s.hits >= 1, "{s:?}");
}

#[test]
fn dml_and_merge_invalidate_through_tokens() {
    let db = big_db();
    let plan = agg(0);
    let before = db.execute(&plan).unwrap();
    let _ = db.execute(&plan).unwrap(); // now resident + hit
                                        // DML moves delta_ops → the entry must die, the answer must move
                                        // (A = 0 matches the filter; B..E are nonzero so the sums change)
    db.insert("R", &matching_row()).unwrap();
    let after = db.execute(&plan).unwrap();
    assert_ne!(before.rows, after.rows, "cache served a stale aggregate");
    assert_eq!(
        after.rows,
        db.run(&plan, EngineKind::Volcano).unwrap().rows,
        "post-DML execute diverged from a fresh engine run"
    );
    let s1 = db.cache_stats().result;
    assert!(s1.invalidations >= 1, "{s1:?}");
    // a merge bumps the generation: same story, same answer
    let _ = db.execute(&plan).unwrap(); // re-admit post-DML result
    db.merge_all().unwrap();
    let merged = db.execute(&plan).unwrap();
    assert_eq!(merged.rows, after.rows);
    let s2 = db.cache_stats().result;
    assert!(s2.invalidations > s1.invalidations, "{s2:?}");
}

#[test]
fn cheap_plans_bypass_the_cache() {
    let db = Database::new();
    db.register(microbench::generate(200, 0.05, Layout::row(16), 3));
    db.set_result_cache(ResultCacheConfig::default());
    let plan = agg(0);
    for _ in 0..3 {
        db.execute(&plan).unwrap();
    }
    let s = db.cache_stats().result;
    assert_eq!(s.hits, 0, "{s:?}");
    assert_eq!(s.insertions, 0, "{s:?}");
    assert!(s.bypasses >= 3, "{s:?}");
    let rendered = db.explain(&plan).unwrap();
    assert!(rendered.contains("cache: bypass"), "{rendered}");
}

#[test]
fn explain_reports_live_cache_status_without_counting() {
    let db = big_db();
    let plan = agg(0);
    let miss = db.explain(&plan).unwrap();
    assert!(miss.contains("cache: miss"), "{miss}");
    let again = db.explain(&plan).unwrap();
    assert!(again.contains("cache: miss"), "{again}");
    // neither half of the cache counted the two peeks
    let s = db.cache_stats();
    assert_eq!(
        (s.plan.hits, s.plan.misses, s.plan.invalidations),
        (0, 0, 0),
        "{s:?}"
    );
    assert_eq!((s.result.hits, s.result.misses), (0, 0), "{s:?}");
    db.execute(&plan).unwrap();
    let hits_before = db.cache_stats().result.hits;
    let hit = db.explain(&plan).unwrap();
    assert!(hit.contains("cache: hit"), "{hit}");
    // the explain probe is a silent peek — no counter moved
    assert_eq!(db.cache_stats().result.hits, hits_before);
    // SELECT * moves its whole input: recompute beats copy → bypass
    let all = QueryBuilder::scan("R").build();
    let rendered = db.explain(&all).unwrap();
    assert!(rendered.contains("cache: bypass"), "{rendered}");
}

#[test]
fn disabling_the_cache_disables_everything_but_nothing_breaks() {
    let db = big_db();
    db.set_result_cache(ResultCacheConfig {
        enabled: false,
        ..Default::default()
    });
    let plan = agg(0);
    let a = db.execute(&plan).unwrap();
    let b = db.execute(&plan).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.rows, db.run(&plan, EngineKind::Volcano).unwrap().rows);
    let s = db.cache_stats().result;
    assert!(!s.enabled);
    assert_eq!((s.hits, s.insertions, s.entries), (0, 0, 0), "{s:?}");
}

#[test]
fn byte_budget_bounds_residency() {
    let db = big_db();
    db.set_result_cache(ResultCacheConfig {
        enabled: true,
        budget_bytes: 1024,
    });
    // Twelve distinct admitted plans: each filters a *data* column (values
    // 0..1000, so zone maps cannot prune the scan to a free plan the way
    // they do for impossible `A = lit` predicates) and emits one row.
    for c in 1..=12 {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col(c).lt(Expr::lit(500)))
            .aggregate(
                vec![],
                (1..=4)
                    .map(|a| AggExpr::new(AggFunc::Sum, Expr::col(a)))
                    .collect(),
            )
            .build();
        db.execute(&plan).unwrap();
    }
    let s = db.cache_stats().result;
    assert!(s.insertions >= 8, "plans not admitted: {s:?}");
    assert!(s.bytes <= 1024, "over budget: {s:?}");
    assert!(s.evictions > 0, "{s:?}");
    assert!(s.entries < 12, "{s:?}");
}

#[test]
fn snapshots_never_see_post_dml_cached_results() {
    let db = big_db();
    let plan = agg(0);
    let pinned = db.snapshot();
    let original = db.execute(&plan).unwrap();
    // DML + re-execute: the live cache now holds the *new* answer
    db.insert("R", &matching_row()).unwrap();
    let updated = db.execute(&plan).unwrap();
    let _ = db.execute(&plan).unwrap(); // cached hit on the new answer
    assert_ne!(original.rows, updated.rows);
    // the pre-DML snapshot still answers from its pinned cut
    let snap_out = pinned.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(
        snap_out.rows, original.rows,
        "snapshot read a cached future"
    );
}

#[test]
fn plan_cache_is_bounded_and_counted() {
    let db = big_db();
    let plan = agg(0);
    db.execute(&plan).unwrap();
    db.execute(&plan).unwrap();
    let s = db.cache_stats().plan;
    assert!(s.hits >= 1, "{s:?}");
    assert!(s.entries >= 1, "{s:?}");
    // distinct plans never grow the cache past its capacity
    for lit in 0..600 {
        db.plan_query(&agg(lit)).unwrap();
    }
    let s = db.cache_stats().plan;
    assert!(s.entries <= 256 + 8, "unbounded plan cache: {s:?}");
    assert!(s.evictions > 0, "{s:?}");
    // the plan bound never drops a result-bearing entry
    let hits = db.cache_stats().result.hits;
    db.execute(&plan).unwrap();
    let s = db.cache_stats();
    assert_eq!(s.result.hits, hits + 1, "{s:?}");
    assert!(s.result.entries <= s.plan.entries, "{s:?}");
}
