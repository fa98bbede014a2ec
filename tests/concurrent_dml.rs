//! Concurrent DML through the shared `Database` handle: the tentpole
//! contract of the `&self` API redesign.
//!
//! * `Database: Send + Sync` — `Arc<Database>` clone-per-thread is the
//!   multi-threaded entry point (compile-time asserted).
//! * N writer threads on N **disjoint** tables proceed in parallel and
//!   produce state byte-identical to the same op streams applied
//!   serially — with background merges landing mid-stream on both sides.
//! * Two writers on the **same** table serialize on that table's lock:
//!   every atomic-batch invariant holds at every snapshot, and nothing is
//!   lost or torn.
//! * A `DbSnapshot` taken before concurrent DML + background merges on 3
//!   tables still reads exactly its cut, and the version chain stays
//!   bounded (≤ pinned + 1 live mains per table).

use mrdb::prelude::*;
use mrdb::storage::Value as V;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// `Database` must be shareable across threads by `Arc` alone.
#[test]
fn database_handle_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Arc<Database>>();
    assert_send_sync::<mrdb::core::DbSnapshot>();
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::new("v", DataType::Int64),
        ColumnDef::new("s", DataType::Str),
    ])
}

fn table_name(i: usize) -> String {
    format!("t{i}")
}

/// The deterministic per-table op stream both schedules apply: inserts
/// with a sprinkle of position-resolved updates and deletes. Position
/// resolution (live scan order) is invariant under merge timing, so the
/// serial and concurrent schedules apply identical logical ops no matter
/// when the background worker lands a swap.
fn apply_stream(db: &Database, table: &str, ops: usize, seed: u64) {
    for step in 0..ops as u64 {
        let x = step
            .wrapping_mul(seed.wrapping_mul(2) | 1)
            .wrapping_add(seed);
        match x % 10 {
            0..=6 => {
                let k = (x % 1000) as i32;
                db.insert(
                    table,
                    &[
                        V::Int32(k),
                        V::Int64(k as i64 * 3 + seed as i64),
                        V::Str(format!("s{}", k % 7)),
                    ],
                )
                .unwrap();
            }
            7 | 8 => {
                // resolve + update atomically under the table's write lock
                db.with_table_write(table, |vt| {
                    let live: Vec<usize> = (0..vt.main_len() + vt.delta_rows())
                        .filter(|&i| vt.is_visible(i))
                        .collect();
                    if !live.is_empty() {
                        let id = live[(x / 10) as usize % live.len()];
                        vt.update(id, 1, &V::Int64(-(step as i64))).unwrap();
                    }
                })
                .unwrap();
            }
            _ => {
                db.with_table_write(table, |vt| {
                    let live: Vec<usize> = (0..vt.main_len() + vt.delta_rows())
                        .filter(|&i| vt.is_visible(i))
                        .collect();
                    if !live.is_empty() {
                        let id = live[(x / 10) as usize % live.len()];
                        vt.delete(id).unwrap();
                    }
                })
                .unwrap();
            }
        }
    }
}

fn scan(db: &Database, table: &str) -> Vec<Vec<Value>> {
    db.run(&QueryBuilder::scan(table).build(), EngineKind::Compiled)
        .unwrap()
        .into_output()
        .rows
}

fn bg_cfg(threshold: u64) -> MaintenanceConfig {
    MaintenanceConfig {
        mode: MaintenanceMode::Background,
        merge_threshold: threshold,
        advise_on_merge: false,
        ..Default::default()
    }
}

/// N writers on N disjoint tables, with readers on snapshots and the
/// background scheduler merging under them — final per-table state must
/// be byte-identical to the serial schedule of the same streams.
#[test]
fn disjoint_table_writers_match_serial_schedule() {
    const N: usize = 4;
    const OPS: usize = 600;

    // --- serial reference: same streams, one thread, same config
    let serial = Database::with_maintenance(bg_cfg(64));
    for i in 0..N {
        serial.create_table(&table_name(i), schema()).unwrap();
        apply_stream(&serial, &table_name(i), OPS, i as u64 + 1);
    }
    serial.flush_maintenance().unwrap();

    // --- concurrent schedule: one writer thread per table + readers
    let db = Arc::new(Database::with_maintenance(bg_cfg(64)));
    for i in 0..N {
        db.create_table(&table_name(i), schema()).unwrap();
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..N)
            .map(|i| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    apply_stream(&db, &table_name(i), OPS, i as u64 + 1);
                })
            })
            .collect();
        // Readers: snapshots must always be internally consistent (two
        // engines, one snapshot, identical rows), whatever the writers
        // and the merge worker are doing.
        for _ in 0..2 {
            let db = &db;
            let stop = &stop;
            s.spawn(move || {
                let plan = QueryBuilder::scan("t0").build();
                let mut iters = 0usize;
                while !stop.load(Ordering::Acquire) || iters < 10 {
                    let snap = db.snapshot();
                    let a = snap.run(&plan, EngineKind::Compiled).unwrap();
                    let b = snap.run(&plan, EngineKind::Volcano).unwrap();
                    assert_eq!(a.rows, b.rows, "one snapshot, two reads");
                    iters += 1;
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    db.flush_maintenance().unwrap();

    for i in 0..N {
        let t = table_name(i);
        assert_eq!(
            scan(&db, &t),
            scan(&serial, &t),
            "{t}: concurrent schedule diverged from serial"
        );
    }
    // and after folding everything, still identical
    db.merge_all().unwrap();
    serial.merge_all().unwrap();
    for i in 0..N {
        let t = table_name(i);
        assert_eq!(scan(&db, &t), scan(&serial, &t), "{t}: merged state");
    }
}

/// Writers doing insert / `UPDATE … WHERE` / `DELETE … WHERE` / merge on
/// one table while readers `execute` an admitted aggregate with the result
/// cache on. Every row has `one = 1` and `a + b = 0`, and a statement's
/// writes are atomic, so every reply — computed or served from the cache —
/// must say `count(*) = sum(one)` and `sum(a) + sum(b) = 0`. A result is
/// tagged with the versions its statement pinned, never with what the
/// tables had become by the time it finished: once the writers stop, the
/// cached reply is byte for byte the uncached one.
#[test]
fn cached_aggregate_is_consistent_under_dml_and_merges() {
    const PRELOAD: i32 = 30_000;
    const STEPS: i32 = 300;
    let db = Arc::new(Database::with_maintenance(bg_cfg(128)));
    db.set_result_cache(ResultCacheConfig::default());
    let mut base = Table::new(
        "inv",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::new("one", DataType::Int64),
            ColumnDef::new("a", DataType::Int64),
            ColumnDef::new("b", DataType::Int64),
        ]),
    );
    let row = |k: i32| {
        let v = (k % 97) as i64;
        vec![V::Int32(k), V::Int64(1), V::Int64(v), V::Int64(-v)]
    };
    for k in 0..PRELOAD {
        base.insert(&row(k)).unwrap();
    }
    db.register(base);
    let agg = QueryBuilder::scan("inv")
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
                AggExpr::new(AggFunc::Sum, Expr::col(2)),
                AggExpr::new(AggFunc::Sum, Expr::col(3)),
            ],
        )
        .build();
    assert!(
        db.plan_query(&agg).unwrap().cache_admit,
        "the aggregate must be one the result cache admits"
    );
    let check = |out: &QueryResult| {
        let v = |i: usize| out.rows[0][i].as_i64().unwrap();
        assert_eq!(v(0), v(1), "count(*) != sum(one): {:?}", out.rows);
        assert_eq!(v(2) + v(3), 0, "sum(a) + sum(b) != 0: {:?}", out.rows);
    };

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2i32)
            .map(|w| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    let key = |k: i32| Expr::col(0).eq(Expr::lit(k));
                    for step in 0..STEPS {
                        let k = (step * 37 + w) % PRELOAD;
                        match step % 8 {
                            0..=2 => {
                                db.insert("inv", &row(PRELOAD + step * 2 + w)).unwrap();
                            }
                            3 | 4 => {
                                let v = step as i64;
                                let sets = [
                                    ("a".to_string(), V::Int64(v)),
                                    ("b".to_string(), V::Int64(-v)),
                                ];
                                db.update_where("inv", &sets, Some(&key(k))).unwrap();
                            }
                            5 | 6 => {
                                db.delete_where("inv", Some(&key(k))).unwrap();
                            }
                            _ => {
                                db.merge("inv").unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let (db, stop, agg, check) = (&db, &stop, &agg, &check);
            s.spawn(move || {
                let mut iters = 0usize;
                while !stop.load(Ordering::Acquire) || iters < 10 {
                    check(&db.execute(agg).unwrap());
                    iters += 1;
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    db.flush_maintenance().unwrap();

    // Quiesced: whatever the cache now holds for the final version is
    // what a cache-less execution computes.
    let cached = db.execute(&agg).unwrap();
    let again = db.execute(&agg).unwrap();
    assert!(db.cache_stats().result.hits >= 1, "the cache never served");
    db.set_result_cache(ResultCacheConfig {
        enabled: false,
        ..ResultCacheConfig::default()
    });
    let uncached = db.execute(&agg).unwrap();
    check(&uncached);
    assert_eq!(cached, uncached, "a stale result was served from the cache");
    assert_eq!(again, uncached);
    assert_eq!(uncached, db.run(&agg, EngineKind::Volcano).unwrap());
}

/// Two writers on the *same* table: appends serialize on the table lock —
/// every insert_batch is atomic (balanced pairs), nothing is lost, and
/// the interleaving is some permutation of the two programs.
#[test]
fn same_table_writers_serialize_on_the_table_lock() {
    const PAIRS_PER_WRITER: i64 = 400;
    let db = Arc::new(Database::with_maintenance(bg_cfg(128)));
    db.create_table("pairs", schema()).unwrap();

    let stop = AtomicBool::new(false);
    // readers: the pair invariant must hold at every cut
    let agg = QueryBuilder::scan("pairs")
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
            ],
        )
        .build();
    std::thread::scope(|s| {
        // writer w ∈ {0, 1}: balanced (k, +v)/(k, −v) pairs, atomic batch
        let writers: Vec<_> = (0..2i64)
            .map(|w| {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for p in 0..PAIRS_PER_WRITER {
                        let k = (w * PAIRS_PER_WRITER + p) as i32;
                        let v = p + 1;
                        db.insert_batch(
                            "pairs",
                            &[
                                vec![V::Int32(k), V::Int64(v), V::Str(format!("w{w}"))],
                                vec![V::Int32(k), V::Int64(-v), V::Str(format!("w{w}"))],
                            ],
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for _ in 0..2 {
            let db = &db;
            let stop = &stop;
            let agg = &agg;
            s.spawn(move || {
                let mut iters = 0usize;
                while !stop.load(Ordering::Acquire) || iters < 10 {
                    let out = db.execute(agg).unwrap();
                    let count = out.rows[0][0].as_i64().unwrap();
                    let sum = match &out.rows[0][1] {
                        Value::Null => 0,
                        v => v.as_i64().unwrap(),
                    };
                    assert_eq!(count % 2, 0, "torn batch visible: count={count}");
                    assert_eq!(sum, 0, "torn batch visible: sum={sum}");
                    iters += 1;
                }
            });
        }
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });
    db.flush_maintenance().unwrap();

    // nothing lost: both writers' rows all present exactly once
    let rows = scan(&db, "pairs");
    assert_eq!(rows.len(), 2 * 2 * PAIRS_PER_WRITER as usize);
    let mut per_writer = [0usize; 2];
    for r in &rows {
        let Value::Str(tag) = &r[2] else { panic!() };
        per_writer[tag.strip_prefix('w').unwrap().parse::<usize>().unwrap()] += 1;
    }
    assert_eq!(per_writer, [2 * PAIRS_PER_WRITER as usize; 2]);
    // each writer's pairs arrived in its program order (per-key adjacency
    // within one batch, keys ascending per writer)
    for w in 0..2usize {
        let keys: Vec<i64> = rows
            .iter()
            .filter(|r| r[2] == Value::Str(format!("w{w}")))
            .step_by(2)
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "writer {w} batches out of program order");
    }
}

/// A `DbSnapshot` taken before heavy concurrent DML + background merges
/// on 3 tables still reads exactly its cut — and the version chains stay
/// bounded: each table holds at most (pinned generations + 1) live mains.
#[test]
fn db_snapshot_longevity_under_concurrent_dml_and_merges() {
    const N: usize = 3;
    let db = Arc::new(Database::with_maintenance(bg_cfg(32)));
    for i in 0..N {
        db.create_table(&table_name(i), schema()).unwrap();
        apply_stream(&db, &table_name(i), 100, 40 + i as u64);
    }
    db.flush_maintenance().unwrap();

    let cut = db.snapshot();
    let frozen: Vec<Vec<mrdb::storage::row::Row>> = (0..N)
        .map(|i| cut.table_snapshot(&table_name(i)).unwrap().rows())
        .collect();

    // heavy churn + many background merges on all 3 tables, in parallel
    std::thread::scope(|s| {
        for i in 0..N {
            let db = Arc::clone(&db);
            s.spawn(move || {
                apply_stream(&db, &table_name(i), 800, 90 + i as u64);
            });
        }
    });
    db.flush_maintenance().unwrap();
    db.merge_all().unwrap();

    for (i, frozen_rows) in frozen.iter().enumerate() {
        let t = table_name(i);
        // the snapshot still reads its cut, byte for byte
        assert_eq!(
            &cut.table_snapshot(&t).unwrap().rows(),
            frozen_rows,
            "{t}: snapshot drifted"
        );
        // bounded version chain: pinned + current, nothing else
        let s = db.version_stats(&t).unwrap();
        assert!(
            s.live_mains <= s.pinned_versions + 1,
            "{t}: chain bound violated: {s:?}"
        );
        assert_eq!(s.pinned_versions, 1, "{t}: only the cut pins a version");
    }
    drop(cut);
    for i in 0..N {
        let s = db.version_stats(&table_name(i)).unwrap();
        assert_eq!(s.live_mains, 1, "last reader released → reclaimed");
        assert_eq!(s.pinned_bytes, 0);
    }
}

/// Cross-table write parallelism is real: under contention-free disjoint
/// tables, concurrent per-table DML through one `Arc<Database>` completes
/// and every table sees exactly its own writer's rows (no cross-talk).
#[test]
fn disjoint_tables_see_no_cross_talk() {
    const N: usize = 8;
    let db = Arc::new(Database::with_maintenance(bg_cfg(64)));
    for i in 0..N {
        db.create_table(&table_name(i), schema()).unwrap();
    }
    std::thread::scope(|s| {
        for i in 0..N {
            let db = Arc::clone(&db);
            s.spawn(move || {
                for k in 0..300i32 {
                    db.insert(
                        &table_name(i),
                        &[
                            V::Int32(i as i32),
                            V::Int64(k as i64),
                            V::Str(format!("owner{i}")),
                        ],
                    )
                    .unwrap();
                }
            });
        }
    });
    db.flush_maintenance().unwrap();
    for i in 0..N {
        let rows = scan(&db, &table_name(i));
        assert_eq!(rows.len(), 300);
        assert!(
            rows.iter().all(|r| r[2] == Value::Str(format!("owner{i}"))),
            "table {i} contains foreign rows"
        );
    }
}
