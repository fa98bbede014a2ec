//! Criterion: the morsel-driven parallel engine vs the sequential compiled
//! engine on the Fig.-3 microbenchmark, swept over worker counts — the
//! statistical companion to the `fig_scaling` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdsm_exec::engine::{CompiledEngine, Engine, ParallelEngine};
use pdsm_storage::Table;
use pdsm_workloads::microbench;
use std::collections::HashMap;

const ROWS: usize = 200_000;
const SEL: f64 = 0.05;

fn db() -> HashMap<String, Table> {
    let t = microbench::generate(ROWS, SEL, microbench::pdsm_layout(), 42);
    let mut m = HashMap::new();
    m.insert("R".to_string(), t);
    m
}

fn bench_parallel_scan(c: &mut Criterion) {
    let db = db();
    let plan = microbench::query(SEL);
    let mut g = c.benchmark_group("parallel_scan_agg");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("compiled/seq", |b| {
        b.iter(|| CompiledEngine.execute(&plan, &db).unwrap())
    });
    for threads in [1usize, 2, 4, 8] {
        let engine = ParallelEngine::with_threads(threads);
        g.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, _| {
            b.iter(|| engine.execute(&plan, &db).unwrap())
        });
    }
    g.finish();
}

fn bench_parallel_grouped(c: &mut Criterion) {
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::expr::Expr;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    let db = db();
    // group on a low-cardinality int column: exercises the per-worker hash
    // tables and the barrier merge
    let plan = QueryBuilder::scan("R")
        .aggregate(
            vec![Expr::col(1)],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(2)),
                AggExpr::new(AggFunc::Max, Expr::col(3)),
            ],
        )
        .build();
    let mut g = c.benchmark_group("parallel_grouped_agg");
    g.throughput(Throughput::Elements(ROWS as u64));
    g.bench_function("compiled/seq", |b| {
        b.iter(|| CompiledEngine.execute(&plan, &db).unwrap())
    });
    for threads in [1usize, 2, 4, 8] {
        let engine = ParallelEngine::with_threads(threads);
        g.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, _| {
            b.iter(|| engine.execute(&plan, &db).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_parallel_scan, bench_parallel_grouped);
criterion_main!(benches);
