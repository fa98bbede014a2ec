//! Differential testing of the morsel-driven parallel engine: on the
//! microbenchmark and CH workloads, `EngineKind::Parallel` must produce
//! results identical to every sequential engine, across worker counts
//! (1/2/4/8), storage layouts (row / column / advised hybrid), and after
//! relayouts. Thread count must never leak into query results.

use mrdb::exec::ParallelEngine;
use mrdb::plan::builder::QueryBuilder;
use mrdb::plan::expr::Expr;
use mrdb::prelude::*;
use mrdb::workloads::{ch, microbench};

mod common;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run `plan` on every registered engine plus pinned-thread parallel
/// engines, asserting all outputs match the first engine's.
fn assert_all_engines_agree(db: &Database, plan: &mrdb::plan::logical::LogicalPlan, ctx: &str) {
    // Engines consume a TableProvider; under the shared-handle API that is
    // a snapshot pinned at the current version, not the database itself.
    let snap = db.snapshot();
    let base = common::assert_engines_agree(plan, &snap, ctx);
    for threads in THREAD_COUNTS {
        let engine = ParallelEngine::with_threads(threads);
        let out = mrdb::exec::Engine::execute(&engine, plan, &snap)
            .unwrap_or_else(|e| panic!("{ctx}: parallel({threads}) failed: {e}"));
        base.assert_same(&out, &format!("{ctx}: parallel threads={threads}"));
    }
}

#[test]
fn microbench_all_layouts_all_threads() {
    let base = microbench::generate(40_000, 0.05, Layout::row(microbench::N_COLS), 11);
    // Beside the Fig.-3 query: count/sum/min/max under a filter, and a
    // grouped count and sum — scalar and grouped partials merged.
    let scalar = QueryBuilder::scan("R")
        .filter(Expr::col(2).lt(Expr::lit(100)))
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
                AggExpr::new(AggFunc::Min, Expr::col(3)),
                AggExpr::new(AggFunc::Max, Expr::col(3)),
            ],
        )
        .build();
    let grouped = QueryBuilder::scan("R")
        .aggregate(
            vec![Expr::col(1)],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(2)),
            ],
        )
        .build();
    for (layout_name, layout) in microbench::layouts() {
        let db = Database::new();
        db.register(base.relayout(layout).unwrap());
        for sel in [0.0, 0.01, 0.5] {
            let plan = microbench::query(sel);
            assert_all_engines_agree(&db, &plan, &format!("microbench {layout_name} sel={sel}"));
        }
        for (name, plan) in [("scalar", &scalar), ("grouped", &grouped)] {
            assert_all_engines_agree(&db, plan, &format!("microbench {layout_name} {name}"));
        }
    }
}

#[test]
fn microbench_exact_sums_survive_threading() {
    // Deterministic expectation, computed independently of any engine.
    let n = 30_000;
    let t = microbench::generate(n, 0.1, microbench::pdsm_layout(), 5);
    let mut expect = [0i64; 4];
    for r in 0..t.len() {
        if t.get(r, 0).unwrap() == Value::Int32(0) {
            for (slot, e) in expect.iter_mut().enumerate() {
                *e += t.get(r, slot + 1).unwrap().as_i64().unwrap();
            }
        }
    }
    let db = Database::new();
    db.register(t);
    let plan = microbench::query(0.1);
    let snap = db.snapshot();
    for threads in THREAD_COUNTS {
        let out = mrdb::exec::Engine::execute(&ParallelEngine::with_threads(threads), &plan, &snap)
            .unwrap();
        for (slot, e) in expect.iter().enumerate() {
            assert_eq!(
                out.rows[0][slot],
                Value::Int64(*e),
                "sum({}) at threads={threads}",
                slot + 1
            );
        }
    }
}

#[test]
fn ch_workload_row_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (row)", q.name));
    }
}

#[test]
fn ch_workload_columnar_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    for name in db.table_names() {
        let w = db.get_table(&name).unwrap().schema().len();
        db.relayout(&name, Layout::column(w)).unwrap();
    }
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (columnar)", q.name));
    }
}

#[test]
fn ch_workload_advised_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    let mut workload = Workload::new();
    for q in ch::queries() {
        if let Some(p) = q.as_plan() {
            workload.push(WorkloadQuery::new(q.name.clone(), p.clone()));
        }
    }
    LayoutAdvisor::default().apply(&db, &workload).unwrap();
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (advised)", q.name));
    }
}

#[test]
fn parallel_scan_order_is_byte_identical_to_compiled() {
    // Non-aggregating plans promise *exact* row order, not just set
    // equality: per-morsel buffers must stitch back into scan order.
    let t = microbench::generate(25_000, 0.2, microbench::pdsm_layout(), 3);
    let db = Database::new();
    db.register(t);
    let filtered = QueryBuilder::scan("R")
        .filter(Expr::col(0).eq(Expr::lit(0)))
        .project(vec![Expr::col(1), Expr::col(15)]);
    // A sort with ties cut by a limit: the stable top-N sees the rows in
    // scan order.
    let top = QueryBuilder::scan("R")
        .project(vec![Expr::col(0), Expr::col(1)])
        .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
        .limit(37);
    let snap = db.snapshot();
    for plan in [filtered.build(), top.build()] {
        let compiled = db.run(&plan, EngineKind::Compiled).unwrap();
        assert!(!compiled.is_empty());
        for threads in THREAD_COUNTS {
            let par =
                mrdb::exec::Engine::execute(&ParallelEngine::with_threads(threads), &plan, &snap)
                    .unwrap();
            assert_eq!(compiled.rows, par.rows, "threads={threads}");
        }
    }
}

/// The ROADMAP's multi-core CI target, asserted rather than just
/// recorded: parallel scan ≥2× over 1 thread at 4 threads. Opt-in via
/// `PDSM_ASSERT_SCALING=1` (the `multicore` CI job sets it) so laptop
/// `cargo test` runs never flake on timing; self-skips with a logged
/// notice when the host has fewer than 4 cores (hosted runners vary).
#[test]
fn parallel_scan_scaling_asserted_on_multicore() {
    if std::env::var("PDSM_ASSERT_SCALING").is_err() {
        eprintln!("notice: PDSM_ASSERT_SCALING unset; skipping the ≥2x @ 4-thread assertion");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("notice: only {cores} core(s) available; skipping the ≥2x @ 4-thread assertion");
        return;
    }
    let db = Database::new();
    db.register(microbench::generate(
        2_000_000,
        0.05,
        microbench::pdsm_layout(),
        17,
    ));
    let plan = microbench::query(0.05);
    let snap = db.snapshot();
    let best_of = |threads: usize| -> f64 {
        let engine = ParallelEngine::with_threads(threads);
        // warm-up, then best of 5 (scaling is about capacity, not noise)
        let _ = mrdb::exec::Engine::execute(&engine, &plan, &snap).unwrap();
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(mrdb::exec::Engine::execute(&engine, &plan, &snap).unwrap());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let t1 = best_of(1);
    let t4 = best_of(4);
    let speedup = t1 / t4;
    eprintln!("parallel scan scaling: 1t {t1:.4}s, 4t {t4:.4}s -> {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "parallel scan must scale ≥2x at 4 threads on a ≥4-core host \
         (got {speedup:.2}x: 1t {t1:.4}s vs 4t {t4:.4}s)"
    );
}

/// Adversarial floats — cancellation, magnitudes from subnormal to near
/// `f64::MAX`, ±0.0, ±inf and NaN — through float `sum`/`avg`/`min`/`max`,
/// over a plain aggregate and a join feeding one: every thread count and
/// the Volcano oracle give the same bits, not just the same rounding.
#[test]
fn adversarial_float_aggregates_are_bit_identical_at_every_thread_count() {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::nullable("f", DataType::Float64),
    ]);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut facts = Table::new("F", schema.clone());
    let mut seen: Vec<f64> = Vec::new();
    for i in 0..40_000 {
        let f = match next() % 10 {
            0 if !seen.is_empty() => -seen[(next() % seen.len() as u64) as usize],
            1 => f64::from_bits(next() % (1 << 52)),
            2 => [0.0, -0.0][(next() % 2) as usize],
            3 => [f64::MAX, -f64::MAX, 1e300, -1e300, 1e-300][(next() % 5) as usize],
            4 => (next() % 100_000) as f64 / 100.0,
            _ => f64::from_bits(next() >> 2) * [1.0, -1.0][(next() % 2) as usize],
        };
        seen.push(f);
        let v = if i % 13 == 0 {
            Value::Null
        } else {
            Value::Float64(f)
        };
        facts
            .insert(&[Value::Int32((next() % 8) as i32), v])
            .unwrap();
    }
    // Specials sit in their own groups so the other groups stay finite.
    for (k, f) in [
        (8, f64::INFINITY),
        (9, f64::NEG_INFINITY),
        (9, f64::INFINITY),
        (10, f64::NAN),
    ] {
        facts.insert(&[Value::Int32(k), Value::Float64(f)]).unwrap();
    }
    let mut dims = Table::new("D", schema);
    for k in 0..11 {
        for j in 0..2 {
            dims.insert(&[Value::Int32(k), Value::Float64(k as f64 * 0.1 + j as f64)])
                .unwrap();
        }
    }
    let db = Database::new();
    db.register(facts);
    db.register(dims);
    let float_aggs = |f: usize| {
        vec![
            AggExpr::new(AggFunc::Sum, Expr::col(f)),
            AggExpr::new(AggFunc::Avg, Expr::col(f)),
            AggExpr::new(AggFunc::Min, Expr::col(f)),
            AggExpr::new(AggFunc::Max, Expr::col(f)),
            AggExpr::new(AggFunc::Sum, Expr::col(f).mul(Expr::col(f))),
        ]
    };
    let plans = [
        QueryBuilder::scan("F")
            .aggregate(vec![], float_aggs(1))
            .build(),
        QueryBuilder::scan("F")
            .aggregate(vec![Expr::col(0)], float_aggs(1))
            .build(),
        QueryBuilder::scan("F")
            .filter(Expr::col(0).lt(Expr::lit(6)))
            .aggregate(vec![Expr::col(0)], float_aggs(1))
            .build(),
        // D ⋈ F on k: the probe side F is the pipeline; f is column 3.
        QueryBuilder::scan("D")
            .join(QueryBuilder::scan("F").build(), Expr::col(0), Expr::col(0))
            .aggregate(vec![Expr::col(1)], float_aggs(3))
            .build(),
    ];
    let bits = |rows: &[Vec<Value>]| {
        let mut out: Vec<String> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Float64(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        out.sort();
        out
    };
    let snap = db.snapshot();
    for (i, plan) in plans.iter().enumerate() {
        let run =
            |engine: &dyn mrdb::exec::Engine| bits(&engine.execute(plan, &snap).unwrap().rows);
        let oracle = run(EngineKind::Volcano.engine());
        assert!(
            oracle.iter().any(|r| r.contains('f')),
            "plan {i} has floats"
        );
        assert_eq!(
            oracle,
            run(EngineKind::Compiled.engine()),
            "plan {i}: compiled vs Volcano"
        );
        for threads in THREAD_COUNTS {
            let parallel = run(&ParallelEngine::with_threads(threads));
            assert_eq!(oracle, parallel, "plan {i}: parallel({threads}) vs Volcano");
        }
    }
}

#[test]
fn thread_knob_resolution() {
    // A pinned count is kept (zero runs one worker); the count read from
    // the environment is at least one. The PDSM_THREADS path is exercised
    // in `planner_env`, alone in its binary: mutating the environment from
    // inside this multi-threaded test binary would race with sibling tests
    // reading it.
    assert_eq!(ParallelEngine::with_threads(5).effective_threads(), 5);
    assert_eq!(ParallelEngine::with_threads(0).effective_threads(), 1);
    assert!(ParallelEngine::new().effective_threads() >= 1);
}
