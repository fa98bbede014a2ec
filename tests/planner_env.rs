//! A database plans with the worker count it was built with.
//!
//! Alone in its own test binary on purpose: it rewrites `PDSM_THREADS` in
//! the process environment, which no concurrently running test may read.

use mrdb::core::{EngineChoice, Planner};
use mrdb::cost::Hierarchy;
use mrdb::prelude::*;
use mrdb::workloads::microbench;

#[test]
fn changing_pdsm_threads_after_construction_does_not_move_plans() {
    let plan = QueryBuilder::scan("R")
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
        .build();
    let build = || {
        let db = Database::new();
        db.register(microbench::generate(20_000, 0.05, Layout::row(16), 3));
        db
    };
    std::env::set_var("PDSM_THREADS", "1");
    let one = build();
    std::env::set_var("PDSM_THREADS", "16");
    let sixteen = build();

    // Both lowerings are plan-cache misses that happen *now*, under 16.
    let p1 = one.plan_query(&plan).unwrap();
    let p16 = sixteen.plan_query(&plan).unwrap();
    assert_eq!(p1.engine, EngineChoice::Compiled, "{}", p1.explain());
    assert_eq!(p16.engine, EngineChoice::Parallel, "{}", p16.explain());
    let pinned = Planner {
        hierarchy: Hierarchy::nehalem(),
        threads: 1,
    };
    assert_eq!(
        p1.explain(),
        pinned.plan(&one.snapshot(), &plan).unwrap().explain()
    );
}
