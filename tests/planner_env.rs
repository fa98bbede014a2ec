//! A database plans, and runs its parallel plans, with the worker count it
//! was built with.
//!
//! Alone in its own test binary on purpose: it rewrites `PDSM_THREADS` in
//! the process environment, which no concurrently running test may read.

use mrdb::core::{EngineChoice, Planner};
use mrdb::cost::Hierarchy;
use mrdb::prelude::*;
use mrdb::workloads::microbench;
use std::sync::atomic::{AtomicBool, Ordering};

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

    // Each runs its parallel plans with the count its planner priced,
    // not the one the environment holds now.
    std::env::set_var("PDSM_THREADS", "3");
    assert_eq!(build().snapshot().threads(), 3);
    assert_eq!(one.snapshot().threads(), 1);
    assert_eq!(sixteen.snapshot().threads(), 16);
    std::env::set_var("PDSM_THREADS", "1");
    let parallel = || sixteen.run(&plan, EngineKind::Parallel).unwrap();
    if let Some(extra) = most_threads_added(|| drop(parallel())) {
        assert!(
            extra >= 2,
            "16 priced, PDSM_THREADS=1: {extra} workers at once"
        );
    }
    let compiled = one.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(compiled.rows, sixteen.execute(&plan).unwrap().rows);
    assert_eq!(compiled.rows, parallel().rows);
}

/// The most threads this process held at once, beyond those it held
/// before, while `run` ran 200 times — read from `/proc/self/task`, so
/// `None` where that does not exist.
fn most_threads_added(run: impl Fn()) -> Option<usize> {
    let tasks = || std::fs::read_dir("/proc/self/task").ok().map(|d| d.count());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(tasks()?);
            }
            Some(peak)
        });
        let before = tasks();
        for _ in 0..200 {
            run();
        }
        done.store(true, Ordering::Relaxed);
        let peak = sampler.join().expect("the sampler does not panic");
        Some(peak?.saturating_sub(before?))
    })
}
