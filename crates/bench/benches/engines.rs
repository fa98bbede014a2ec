//! Criterion: the three processing models on the Fig.-3 microbenchmark
//! (per-layout, two selectivities) — the statistical companion to
//! `fig3_storage_models`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdsm_bench::BulkEngine;
use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
use pdsm_storage::Table;
use pdsm_workloads::microbench;
use std::collections::HashMap;

const ROWS: usize = 100_000;

fn db_for(layout_name: &str, sel: f64) -> HashMap<String, Table> {
    let layout = microbench::layouts()
        .into_iter()
        .find(|(n, _)| *n == layout_name)
        .unwrap()
        .1;
    let t = microbench::generate(ROWS, sel, layout, 42);
    let mut m = HashMap::new();
    m.insert("R".to_string(), t);
    m
}

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("engines_fig3");
    for sel in [0.01, 0.5] {
        for layout in ["row", "column", "hybrid"] {
            let db = db_for(layout, sel);
            let plan = microbench::query(sel);
            g.bench_with_input(
                BenchmarkId::new(format!("jit/{layout}"), sel),
                &sel,
                |b, _| b.iter(|| CompiledEngine.execute(&plan, &db).unwrap()),
            );
            g.bench_with_input(
                BenchmarkId::new(format!("bulk/{layout}"), sel),
                &sel,
                |b, _| b.iter(|| BulkEngine.execute(&plan, &db).unwrap()),
            );
        }
    }
    // Volcano only once (it is slow; one point suffices to show the gap).
    let db = db_for("row", 0.01);
    let plan = microbench::query(0.01);
    g.sample_size(10);
    g.bench_function("volcano/row/0.01", |b| {
        b.iter(|| VolcanoEngine.execute(&plan, &db).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
