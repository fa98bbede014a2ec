//! Criterion: index operations — the microscopic view of Fig. 10's >1000x
//! identity-select gains. `std::collections` equivalents are measured as
//! baselines.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdsm_index::SortedIndex;
use std::collections::{BTreeMap, HashMap};

const N: i64 = 100_000;

/// `N` keys `0, 7, 14, …`, one row each, scrambled so the build sorts.
fn pairs() -> Vec<(i64, u32)> {
    (0..N).map(|i| ((i * 7919) % N * 7, i as u32)).collect()
}

fn bench_indexes(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_build");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("sorted_build", |b| {
        b.iter(|| SortedIndex::from_pairs(pairs()))
    });
    g.bench_function("std_hashmap_insert", |b| {
        b.iter(|| {
            let mut h: HashMap<i64, u32> = HashMap::with_capacity(N as usize);
            for (k, row) in pairs() {
                h.insert(k, row);
            }
            h
        })
    });
    g.bench_function("std_btreemap_insert", |b| {
        b.iter(|| {
            let mut t: BTreeMap<i64, u32> = BTreeMap::new();
            for (k, row) in pairs() {
                t.insert(k, row);
            }
            t
        })
    });
    g.finish();

    let idx = SortedIndex::from_pairs(pairs());
    let mut g = c.benchmark_group("index_probe");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_function("sorted_lookup", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..N {
                acc += idx.lookup(k * 7).len() as u64;
            }
            acc
        })
    });
    g.bench_function("sorted_range_1pct", |b| {
        b.iter(|| idx.lookup_range(0, N * 7 / 100).len())
    });
    g.finish();
}

criterion_group!(benches, bench_indexes);
criterion_main!(benches);
