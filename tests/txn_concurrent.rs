//! Concurrency stress: ≥4 reader threads querying snapshots while a writer
//! appends, updates, deletes and merges. Readers check an invariant the
//! writer maintains *within* every atomic write — any violation means a
//! torn read (a query saw a half-applied write or a mid-merge state).

use mrdb::exec::TableProvider;
use mrdb::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

/// The table's one merge, keeping its layout and folding whatever delta
/// there is.
fn merge(shared: &SharedTable) -> MergeStats {
    let merged = shared.merge(0, |cut| cut.store().layout().clone());
    merged.unwrap().expect("min_ops 0 merges").0
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("pair", DataType::Int32),
        ColumnDef::new("val", DataType::Int64),
    ])
}

/// Writer appends rows in balanced pairs `(k, +v)` / `(k, -v)` — always in
/// one atomic operation — so at every publish point `sum(val) == 0` and
/// `count(*)` is even. Deletes remove whole pairs under one write lock.
#[test]
fn readers_never_see_torn_writes() {
    let shared = SharedTable::new(VersionedTable::new("pairs", schema()));
    // seed some pairs
    for k in 0..50i32 {
        shared
            .insert_batch(&[
                vec![Value::Int32(k), Value::Int64(k as i64 + 1)],
                vec![Value::Int32(k), Value::Int64(-(k as i64 + 1))],
            ])
            .unwrap();
    }
    merge(&shared);

    let plan = QueryBuilder::scan("pairs")
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
            ],
        )
        .build();
    let stop = AtomicBool::new(false);
    let violations = std::sync::Mutex::new(Vec::<String>::new());

    std::thread::scope(|s| {
        // ---- writer: insert pairs, delete pairs, update-in-pairs, merge
        s.spawn(|| {
            let mut next_pair = 50i32;
            for round in 0..400u64 {
                match round % 10 {
                    // mostly: append a fresh pair (atomic batch)
                    0..=5 => {
                        let v = next_pair as i64 + 1;
                        shared
                            .insert_batch(&[
                                vec![Value::Int32(next_pair), Value::Int64(v)],
                                vec![Value::Int32(next_pair), Value::Int64(-v)],
                            ])
                            .unwrap();
                        next_pair += 1;
                    }
                    // delete one whole pair under a single write lock
                    6 | 7 => {
                        shared.with_write(|t| {
                            let ids: Vec<usize> = (0..t.main_len() + t.delta_rows())
                                .filter(|&i| t.is_visible(i))
                                .collect();
                            if ids.len() >= 2 {
                                // find two rows of the same pair
                                let target =
                                    t.get(ids[round as usize % ids.len()]).unwrap().0[0].clone();
                                let members: Vec<usize> = ids
                                    .iter()
                                    .copied()
                                    .filter(|&i| t.get(i).unwrap().0[0] == target)
                                    .collect();
                                for id in members {
                                    t.delete(id).unwrap();
                                }
                            }
                        });
                    }
                    // flip a pair's sign: two updates under one lock
                    8 => {
                        shared.with_write(|t| {
                            let ids: Vec<usize> = (0..t.main_len() + t.delta_rows())
                                .filter(|&i| t.is_visible(i))
                                .collect();
                            if ids.len() >= 2 {
                                let target =
                                    t.get(ids[round as usize % ids.len()]).unwrap().0[0].clone();
                                let members: Vec<usize> = ids
                                    .iter()
                                    .copied()
                                    .filter(|&i| t.get(i).unwrap().0[0] == target)
                                    .collect();
                                for id in members {
                                    let v = t.get(id).unwrap().0[1].as_i64().unwrap();
                                    t.update(id, 1, &Value::Int64(-v)).unwrap();
                                }
                            }
                        });
                    }
                    // periodically fold the delta into a fresh main store
                    _ => {
                        merge(&shared);
                    }
                }
            }
            stop.store(true, Ordering::Release);
        });

        // ---- ≥4 readers: snapshot, query on every engine, check invariant
        for reader in 0..4 {
            let plan = &plan;
            let shared = &shared;
            let stop = &stop;
            let violations = &violations;
            s.spawn(move || {
                let mut iter = 0usize;
                while !stop.load(Ordering::Acquire) || iter < 20 {
                    let snap = shared.snapshot();
                    let kind = EngineKind::all()[iter % EngineKind::all().len()];
                    let out = kind
                        .engine()
                        .execute(plan, &snap as &dyn TableProvider)
                        .unwrap();
                    let count = out.rows[0][0].as_i64().unwrap();
                    let sum = match &out.rows[0][1] {
                        Value::Null => 0, // empty table
                        v => v.as_i64().unwrap(),
                    };
                    if sum != 0 || count % 2 != 0 {
                        violations.lock().unwrap().push(format!(
                            "reader {reader} iter {iter} ({kind:?}): count={count} sum={sum}"
                        ));
                        return;
                    }
                    // also: generation must never go backwards
                    iter += 1;
                }
            });
        }
    });

    let v = violations.into_inner().unwrap();
    assert!(v.is_empty(), "torn reads detected:\n{}", v.join("\n"));
}

/// The same balanced-pair invariant, but with maintenance decoupled from
/// the write path: the writer only does DML; a dedicated scheduler thread
/// runs *real background merges* (begin under a short write lock → build
/// off-lock while writer and readers proceed → finish under a short write
/// lock). Any torn read, lost replay, or mid-swap inconsistency breaks
/// `sum == 0 ∧ count even`.
#[test]
fn background_merges_never_tear_reads() {
    let shared = SharedTable::new(VersionedTable::new("pairs", schema()));
    for k in 0..50i32 {
        shared
            .insert_batch(&[
                vec![Value::Int32(k), Value::Int64(k as i64 + 1)],
                vec![Value::Int32(k), Value::Int64(-(k as i64 + 1))],
            ])
            .unwrap();
    }
    merge(&shared);

    let plan = QueryBuilder::scan("pairs")
        .aggregate(
            vec![],
            vec![
                AggExpr::count_star(),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
            ],
        )
        .build();
    let stop = AtomicBool::new(false);
    let violations = std::sync::Mutex::new(Vec::<String>::new());
    let merges_done = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        // ---- writer: DML only — it never merges
        s.spawn(|| {
            let mut next_pair = 50i32;
            for round in 0..400u64 {
                if round % 5 == 4 {
                    // delete one whole pair under a single write lock
                    shared.with_write(|t| {
                        let ids: Vec<usize> = (0..t.main_len() + t.delta_rows())
                            .filter(|&i| t.is_visible(i))
                            .collect();
                        if ids.len() >= 2 {
                            let target =
                                t.get(ids[round as usize % ids.len()]).unwrap().0[0].clone();
                            let members: Vec<usize> = ids
                                .iter()
                                .copied()
                                .filter(|&i| t.get(i).unwrap().0[0] == target)
                                .collect();
                            for id in members {
                                t.delete(id).unwrap();
                            }
                        }
                    });
                } else {
                    let v = next_pair as i64 + 1;
                    shared
                        .insert_batch(&[
                            vec![Value::Int32(next_pair), Value::Int64(v)],
                            vec![Value::Int32(next_pair), Value::Int64(-v)],
                        ])
                        .unwrap();
                    next_pair += 1;
                }
            }
            stop.store(true, Ordering::Release);
        });

        // ---- scheduler: watches the delta, merges in the background
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if shared.delta_rows() >= 32 {
                    merge(&shared);
                    merges_done.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
            // final catch-up so the post-join assertions see a merge even
            // if the 1-core scheduler never got a slice mid-run
            if shared.delta_rows() > 0 {
                merge(&shared);
                merges_done.fetch_add(1, Ordering::Relaxed);
            }
        });

        // ---- ≥4 readers: snapshot, query on every engine, check invariant
        for reader in 0..4 {
            let plan = &plan;
            let shared = &shared;
            let stop = &stop;
            let violations = &violations;
            s.spawn(move || {
                let mut iter = 0usize;
                while !stop.load(Ordering::Acquire) || iter < 20 {
                    let snap = shared.snapshot();
                    let kind = EngineKind::all()[iter % EngineKind::all().len()];
                    let out = kind
                        .engine()
                        .execute(plan, &snap as &dyn TableProvider)
                        .unwrap();
                    let count = out.rows[0][0].as_i64().unwrap();
                    let sum = match &out.rows[0][1] {
                        Value::Null => 0,
                        v => v.as_i64().unwrap(),
                    };
                    if sum != 0 || count % 2 != 0 {
                        violations.lock().unwrap().push(format!(
                            "reader {reader} iter {iter} ({kind:?}): count={count} sum={sum}"
                        ));
                        return;
                    }
                    iter += 1;
                }
            });
        }
    });

    let v = violations.into_inner().unwrap();
    assert!(v.is_empty(), "torn reads detected:\n{}", v.join("\n"));
    assert!(
        merges_done.load(Ordering::Relaxed) > 0,
        "scheduler actually merged (delta crossed 32 hundreds of times)"
    );
    // the table still satisfies the invariant after everything quiesces
    merge(&shared);
    let out = EngineKind::Compiled
        .engine()
        .execute(&plan, &shared.snapshot() as &dyn TableProvider)
        .unwrap();
    assert_eq!(out.rows[0][1], Value::Int64(0));
}

/// Determinism half of the background-merge guarantee: one op stream,
/// applied twice — table A merges synchronously at a threshold, table B
/// runs the three-phase pipeline with ops landing *during* each build —
/// must end byte-identical, live and after a final merge. (Row targets
/// resolve by live position, which swap-time renumbering preserves.)
#[test]
fn background_merge_is_byte_identical_to_synchronous() {
    let mut a = VersionedTable::new("t", schema());
    let mut b = VersionedTable::new("t", schema());
    let live = |t: &VersionedTable| -> Vec<usize> {
        (0..t.main_len() + t.delta_rows())
            .filter(|&i| t.is_visible(i))
            .collect()
    };
    // deterministic mixed stream: 6 inserts : 2 updates : 2 deletes
    let apply = |t: &mut VersionedTable, step: u64| match step % 10 {
        0..=5 => {
            let k = (step * 7919) % 1000;
            t.insert(&[Value::Int32(k as i32), Value::Int64(k as i64 * 3)])
                .unwrap();
        }
        6 | 7 => {
            let ids = live(t);
            if !ids.is_empty() {
                let id = ids[(step * 104_729) as usize % ids.len()];
                t.update(id, 1, &Value::Int64(-(step as i64))).unwrap();
            }
        }
        _ => {
            let ids = live(t);
            if !ids.is_empty() {
                let id = ids[(step * 1_299_709) as usize % ids.len()];
                t.delete(id).unwrap();
            }
        }
    };
    let mut pending: Option<mrdb::txn::BuiltMain> = None;
    let mut since_begin = 0usize;
    for step in 0..600u64 {
        apply(&mut a, step);
        apply(&mut b, step);
        // A: synchronous merge at the threshold
        if a.delta_rows() >= 48 {
            a.merge().unwrap();
        }
        // B: three-phase — begin at the threshold, finish 16 ops later
        if pending.is_some() {
            since_begin += 1;
            if since_begin >= 16 {
                b.finish_merge(pending.take().unwrap()).unwrap();
            }
        } else if b.delta_rows() >= 48 {
            let ticket = b.begin_merge();
            pending = Some(
                ticket
                    .build(ticket.snapshot().store().layout().clone())
                    .unwrap(),
            );
            since_begin = 0;
        }
    }
    if let Some(built) = pending.take() {
        b.finish_merge(built).unwrap();
    }
    let rows_a: Vec<_> = a.rows().collect();
    let rows_b: Vec<_> = b.rows().collect();
    assert_eq!(rows_a, rows_b, "live state diverged");
    assert!(a.generation() > 2 && b.generation() > 2);
    a.merge().unwrap();
    b.merge().unwrap();
    let rows_a: Vec<_> = a.rows().collect();
    let rows_b: Vec<_> = b.rows().collect();
    assert_eq!(rows_a, rows_b, "merged state diverged");
}

/// Snapshots taken around a merge stay self-consistent: a reader holding a
/// pre-merge snapshot re-reads identical data after the merge completes.
#[test]
fn snapshots_survive_concurrent_merges() {
    let shared = SharedTable::new(VersionedTable::new("t", schema()));
    for k in 0..200i32 {
        shared
            .insert(&[Value::Int32(k), Value::Int64(k as i64)])
            .unwrap();
    }
    let scan = QueryBuilder::scan("t").build();

    std::thread::scope(|s| {
        let shared2 = shared.clone();
        let writer = s.spawn(move || {
            for k in 200..400i32 {
                shared2
                    .insert(&[Value::Int32(k), Value::Int64(k as i64)])
                    .unwrap();
                if k % 50 == 0 {
                    merge(&shared2);
                }
            }
        });
        for _ in 0..4 {
            let shared = &shared;
            let scan = &scan;
            s.spawn(move || {
                for _ in 0..30 {
                    let snap = shared.snapshot();
                    let a = EngineKind::Compiled
                        .engine()
                        .execute(scan, &snap as &dyn TableProvider)
                        .unwrap();
                    std::thread::yield_now(); // let the writer churn
                    let b = EngineKind::Volcano
                        .engine()
                        .execute(scan, &snap as &dyn TableProvider)
                        .unwrap();
                    assert_eq!(a.rows, b.rows, "one snapshot, two different reads");
                    assert_eq!(a.rows.len(), snap.len());
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(shared.len(), 400);
}
