//! Criterion: the vectorization-vs-compilation ablation (§II-A's cited
//! Sompolski et al. study) plus the vector-size sweep — cache-resident
//! vectors have a sweet spot between per-tuple dispatch (size 1 ≈ Volcano
//! interpretation costs) and full materialization (size n ≈ bulk).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdsm_bench::{BulkEngine, VectorizedEngine};
use pdsm_exec::engine::{CompiledEngine, Engine};
use pdsm_workloads::microbench;
use std::collections::HashMap;

const ROWS: usize = 200_000;

fn bench_vectorized(c: &mut Criterion) {
    let t = microbench::generate(ROWS, 0.2, microbench::pdsm_layout(), 5);
    let mut db = HashMap::new();
    db.insert("R".to_string(), t);
    let plan = microbench::query(0.2);

    let mut g = c.benchmark_group("vector_size_sweep");
    for vs in [1usize, 16, 128, 1024, 8192, 65536, ROWS] {
        g.bench_with_input(BenchmarkId::from_parameter(vs), &vs, |b, &vs| {
            let e = VectorizedEngine::with_vector_size(vs);
            b.iter(|| e.execute(&plan, &db).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("vectorization_vs_compilation");
    g.bench_function("vectorized_1k", |b| {
        let e = VectorizedEngine::default();
        b.iter(|| e.execute(&plan, &db).unwrap())
    });
    g.bench_function("compiled", |b| {
        b.iter(|| CompiledEngine.execute(&plan, &db).unwrap())
    });
    g.bench_function("bulk", |b| {
        b.iter(|| BulkEngine.execute(&plan, &db).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_vectorized);
criterion_main!(benches);
