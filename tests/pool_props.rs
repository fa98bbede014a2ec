//! Twin-database property test for the buffer pool: a database reopened
//! through a *tiny* pool (constant eviction, overcommit, zone-skipped
//! faults) must stay byte-identical to a fully-resident twin under random
//! DML / merge / query interleavings, for every engine and every layout.
//! The compiled and parallel engines and the planner walk a cold main one
//! extent at a time whatever the plan's shape; only the Volcano oracle
//! reads a whole-table copy, and the main stays cold. At quiesce the pool
//! must hold no pinned frames (pin-leak check) and must actually have
//! faulted (the test would be vacuous if the cold path never ran).

use mrdb::core::{BufferPool, PoolStats};
use mrdb::prelude::*;
use mrdb::txn::MainStore;
use mrdb::workloads::microbench::{self, N_COLS};
use mrdb::workloads::mixed::{microbench_mix, MixedOp};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Once;

static CASE: AtomicU64 = AtomicU64::new(0);
static EXTENT_ENV: Once = Once::new();

/// Checkpoints in this binary use 1024-row extents (the zone-block
/// minimum) so a few thousand rows already span several extents. Set
/// once, before any checkpoint is written, and never changed — the knob
/// is read at every checkpoint write, so a racing change would make twin
/// checkpoints disagree.
fn small_extents() {
    EXTENT_ENV.call_once(|| std::env::set_var("PDSM_EXTENT_ROWS", "1024"));
}

fn case_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pdsm-pool-props-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn maint_off() -> MaintenanceConfig {
    MaintenanceConfig {
        mode: MaintenanceMode::Off,
        ..MaintenanceConfig::default()
    }
}

fn open(dir: &Path, pool: Option<std::sync::Arc<BufferPool>>) -> Database {
    Database::open_with_pool(
        DurabilityConfig::new(dir).with_fsync(FsyncMode::Off),
        maint_off(),
        pool,
    )
    .unwrap()
}

/// The layouts under test: row, column, and the paper's hybrid grouping.
fn layout_for(sel: usize) -> Layout {
    match sel % 3 {
        0 => Layout::row(N_COLS),
        1 => Layout::column(N_COLS),
        _ => microbench::pdsm_layout(),
    }
}

/// Single-pipeline queries: row scans (full, equality-filtered, clustered
/// range, zone-refuted-everywhere) and aggregates of every kind — one
/// partial state is carried across the extents, so `avg`, float sums and
/// grouped shapes stay bit-identical too.
fn scan_plans(n: usize) -> Vec<LogicalPlan> {
    vec![
        QueryBuilder::scan("R").build(),
        QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(0)))
            .build(),
        // `A` is `-(i+1)` off the match set, so this selects a clustered
        // suffix of the table — zone maps refute the earlier extents.
        QueryBuilder::scan("R")
            .filter(Expr::col(0).lt(Expr::lit(-(n as i32) + 64)))
            .build(),
        // `A` never exceeds 0: every extent is refuted, only the delta
        // tail can answer. Exercises the zero-extent path.
        QueryBuilder::scan("R")
            .filter(Expr::col(0).gt(Expr::lit(0)))
            .build(),
        QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(0)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Count, Expr::col(1)),
                    AggExpr::new(AggFunc::Sum, Expr::col(2)),
                    AggExpr::new(AggFunc::Min, Expr::col(3)),
                    AggExpr::new(AggFunc::Max, Expr::col(4)),
                ],
            )
            .build(),
        microbench::query(0.05),
        QueryBuilder::scan("R")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Avg, Expr::col(1))])
            .build(),
        // Float sum: an inexact, order-dependent sum would show in the low
        // bits.
        QueryBuilder::scan("R")
            .aggregate(
                vec![],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(1).mul(Expr::lit(0.1)))],
            )
            .build(),
        QueryBuilder::scan("R")
            .filter(Expr::col(0).le(Expr::lit(0)))
            .aggregate(
                vec![Expr::col(0)],
                vec![AggExpr::new(AggFunc::Count, Expr::col(1))],
            )
            .build(),
        // Two keys: the GroupKey-keyed state rather than the raw-u64 one.
        QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(0)))
            .aggregate(
                vec![Expr::col(0), Expr::col(5)],
                vec![
                    AggExpr::new(AggFunc::Avg, Expr::col(2)),
                    AggExpr::new(AggFunc::Max, Expr::col(3)),
                ],
            )
            .build(),
    ]
}

/// Pipeline breakers over `n` rows: a sort + limit, a three-way join with
/// a filter pushed below it and one spanning its sides (collected and
/// grouped), a self-join aggregate, a group-join and a join feeding a
/// group-by. Both sides of a join walk the extents like any other scan.
fn breaker_plans(n: usize) -> Vec<LogicalPlan> {
    let self_join = |build: Expr| {
        QueryBuilder::scan("R").filter(build).join(
            QueryBuilder::scan("R").build(),
            Expr::col(0),
            Expr::col(0),
        )
    };
    // A three-way join: the clustered suffix joins itself on the unique
    // `A`, then every `R` row sharing its `B`. Its `WHERE` has a conjunct
    // that moves onto the third scan and one spanning both join sides.
    let (j2, j3) = (N_COLS, 2 * N_COLS);
    let three_way = QueryBuilder::scan("R")
        .filter(Expr::col(0).lt(Expr::lit(-(n as i32) + 64)))
        .join(QueryBuilder::scan("R").build(), Expr::col(0), Expr::col(0))
        .join(
            QueryBuilder::scan("R").build(),
            Expr::col(j2 + 1),
            Expr::col(1),
        )
        .filter(
            Expr::col(j3 + 2)
                .lt(Expr::lit(600))
                .and(Expr::col(2).le(Expr::col(j3 + 3))),
        );
    vec![
        QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(0)))
            .sort(vec![(Expr::col(1), true), (Expr::col(2), true)])
            .limit(10)
            .build(),
        three_way
            .clone()
            .project(vec![Expr::col(0), Expr::col(j3), Expr::col(j3 + 2)])
            .build(),
        three_way
            .aggregate(
                vec![Expr::col(j3 + 4)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Avg, Expr::col(j2 + 5)),
                ],
            )
            .build(),
        // Every `A = 0` row joins every other: a fan-out probe.
        self_join(Expr::col(0).eq(Expr::lit(0)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(N_COLS + 1)),
                ],
            )
            .build(),
        // A group-join: grouped by two build-side columns, its aggregates
        // over both sides, each build row's group found once.
        self_join(Expr::col(0).lt(Expr::lit(-(n as i32) + 200)))
            .aggregate(
                vec![Expr::col(5), Expr::col(1)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(N_COLS + 2)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                    AggExpr::new(AggFunc::Max, Expr::col(N_COLS + 4)),
                    AggExpr::new(AggFunc::Min, Expr::col(2).mul(Expr::col(N_COLS + 6))),
                ],
            )
            .build(),
        // A clustered-suffix build side: zone maps refute its early extents.
        self_join(Expr::col(0).lt(Expr::lit(-(n as i32) + 64)))
            .aggregate(
                vec![Expr::col(N_COLS + 5)],
                vec![
                    AggExpr::new(AggFunc::Count, Expr::col(N_COLS + 2)),
                    AggExpr::new(AggFunc::Avg, Expr::col(1)),
                ],
            )
            .build(),
    ]
}

/// [`scan_plans`] and [`breaker_plans`]: the whole battery.
fn all_plans(n: usize) -> Vec<LogicalPlan> {
    [scan_plans(n), breaker_plans(n)].concat()
}

/// Is `R`'s live main still on disk?
fn r_is_cold(db: &Database) -> bool {
    db.with_table("R", |vt| vt.store().cold().is_some())
        .unwrap()
}

/// Grouped aggregates hash their groups, so their output *order* is not
/// part of the contract (the repo's engine-equivalence tests compare them
/// through `QueryOutput::normalized` for the same reason). Everything
/// else must match byte-for-byte, rows in order.
fn order_insensitive(plan: &LogicalPlan) -> bool {
    matches!(plan, LogicalPlan::Aggregate { group_by, .. } if !group_by.is_empty())
}

/// Run `plans` on both twins across every engine (plus the cost-based
/// planner path) and require byte-identical `QueryResult`s. A cold `R`
/// must stay cold through the compiled, parallel and planned runs, which
/// must fault, and through the Volcano oracle's, which runs last.
fn assert_twins_agree(pooled: &Database, resident: &Database, plans: &[LogicalPlan]) {
    let was_cold = r_is_cold(pooled);
    let misses = || pooled.pool_stats().map_or(0, |s| s.misses);
    let misses_before = misses();
    let serving: Vec<EngineKind> = EngineKind::all()
        .into_iter()
        .filter(|e| *e != EngineKind::Volcano)
        .collect();
    twins_agree_under(pooled, resident, plans, &serving, true);
    if was_cold {
        prop_assert!(r_is_cold(pooled), "a serving engine hydrated R");
        prop_assert!(misses() > misses_before, "the serving runs never faulted");
    }
    twins_agree_under(pooled, resident, plans, &[EngineKind::Volcano], false);
    if was_cold {
        prop_assert!(r_is_cold(pooled), "the Volcano oracle converted R");
    }
}

/// [`assert_twins_agree`] for `engines`, then (if `planned`) the planner.
fn twins_agree_under(
    pooled: &Database,
    resident: &Database,
    plans: &[LogicalPlan],
    engines: &[EngineKind],
    planned: bool,
) {
    for (i, plan) in plans.iter().enumerate() {
        for &engine in engines {
            let a = pooled.run(plan, engine).unwrap();
            let b = resident.run(plan, engine).unwrap();
            prop_assert_eq!(
                &a.columns,
                &b.columns,
                "plan {} header under {:?}",
                i,
                engine
            );
            if order_insensitive(plan) {
                prop_assert_eq!(
                    a.normalized(),
                    b.normalized(),
                    "plan {} under {:?}",
                    i,
                    engine
                );
            } else {
                prop_assert_eq!(a, b, "plan {} diverged under {:?}", i, engine);
            }
        }
        if !planned {
            continue;
        }
        let a = pooled.execute(plan).unwrap();
        let b = resident.execute(plan).unwrap();
        prop_assert_eq!(
            &a.columns,
            &b.columns,
            "plan {} header under the planner",
            i
        );
        if order_insensitive(plan) {
            prop_assert_eq!(
                a.normalized(),
                b.normalized(),
                "plan {} under the planner",
                i
            );
        } else {
            prop_assert_eq!(a, b, "plan {} diverged under the planner", i);
        }
    }
}

/// Apply one mixed-workload write through the normal DML path, tracking
/// the live row-id set exactly as `durability_props` does.
fn apply_op(db: &Database, live: &mut Vec<usize>, op: &MixedOp) {
    db.with_table_write("R", |vt| match op {
        MixedOp::Read { .. } => {}
        MixedOp::Insert { rows } => {
            live.extend(vt.insert_batch(rows).unwrap());
        }
        MixedOp::Update {
            row_hint,
            col,
            value,
        } => {
            if !live.is_empty() {
                let slot = (*row_hint % live.len() as u64) as usize;
                live[slot] = vt.update(live[slot], *col, value).unwrap();
            }
        }
        MixedOp::Delete { row_hint } => {
            if !live.is_empty() {
                let slot = (*row_hint % live.len() as u64) as usize;
                vt.delete(live[slot]).unwrap();
                live.swap_remove(slot);
            }
        }
    })
    .unwrap()
}

/// Seed one on-disk twin: identical base data, a deterministic DML
/// prefix, a merge (so the checkpoint holds real extents), and a
/// post-checkpoint DML suffix (so recovery has a WAL tail to replay over
/// the cold table). Returns the live row-id set at close.
fn seed_twin(dir: &Path, n: usize, layout: Layout, seed: u64, n_ops: usize) -> Vec<usize> {
    let db = open(dir, None);
    db.register(microbench::generate(n, 0.05, layout, seed ^ 0xB0B));
    let workload = microbench_mix(n_ops, 0.0, 0.05, seed);
    let mut live: Vec<usize> = (0..db.with_table("R", |vt| vt.len()).unwrap()).collect();
    let split = workload.ops.len() / 2;
    for op in &workload.ops[..split] {
        apply_op(&db, &mut live, op);
    }
    db.merge("R").unwrap();
    // Merge compacts tombstones away: every surviving row is live and
    // renumbered in scan order.
    live = (0..db.with_table("R", |vt| vt.len()).unwrap()).collect();
    for op in &workload.ops[split..] {
        apply_op(&db, &mut live, op);
    }
    live
}

/// Predicate DML on a pooled table walks the cold main extent-at-a-time
/// with the query path's scan loop: keyed and range `UPDATE`/`DELETE …
/// WHERE` at a quarter of the data's size in pool budget leave the table
/// cold and nothing pinned, and its scans stay byte-identical to a
/// resident twin that ran the same statements.
#[test]
fn predicate_dml_on_a_cold_table_streams_instead_of_hydrating() {
    small_extents();
    let (n, seed) = (6000usize, 77);
    let dir_a = case_dir("dml-pooled");
    let dir_b = case_dir("dml-resident");
    for dir in [&dir_a, &dir_b] {
        seed_twin(dir, n, microbench::pdsm_layout(), seed, 24);
    }
    let resident = open(&dir_b, None);
    let pool = BufferPool::new(resident.byte_size() / 4);
    let pooled = open(&dir_a, Some(std::sync::Arc::clone(&pool)));

    let a = || Expr::col(0);
    let set = |col: &str, v: i32| (col.to_string(), Value::Int32(v));
    // `A` is 0 on 5 % of the rows, spread over every extent, and a unique
    // negative elsewhere, descending — so `A < -(n - 64)` is a clustered
    // suffix whose earlier extents zone maps refute without a fault.
    let suffix = a().lt(Expr::lit(64 - n as i32));
    let updates = [
        (vec![set("B", 7777)], a().eq(Expr::lit(0))),
        (vec![set("C", 1), set("D", 2)], suffix.clone()),
    ];
    for (sets, pred) in &updates {
        let hit = pooled.update_where("R", sets, Some(pred)).unwrap();
        assert_eq!(hit, resident.update_where("R", sets, Some(pred)).unwrap());
        assert!(hit > 0, "{pred:?} matched nothing");
    }
    let deletes = [
        a().eq(Expr::lit(-17)),
        suffix.and(Expr::col(1).lt(Expr::lit(500))),
    ];
    for pred in &deletes {
        let hit = pooled.delete_where("R", Some(pred)).unwrap();
        assert_eq!(hit, resident.delete_where("R", Some(pred)).unwrap());
        assert!(hit > 0, "{pred:?} matched nothing");
    }

    let still_cold = || {
        pooled
            .with_table("R", |vt| vt.store().cold().is_some())
            .unwrap()
    };
    assert!(still_cold(), "predicate DML hydrated the table");
    let stats = pooled.pool_stats().expect("pooled");
    assert_eq!(stats.pinned_frames, 0, "pin leak after predicate DML");
    assert!(stats.misses > 0, "the match never faulted an extent");
    assert!(stats.skipped_faults > 0, "no extent was zone-refuted");
    assert_twins_agree(&pooled, &resident, &all_plans(n));

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// WAL replay reads no main-store row: after a many-row, multi-column
/// `UPDATE … WHERE` and no checkpoint, a reopen through a pool a quarter
/// of the data's size faults nothing and leaves the main cold — the
/// update's record carries whole new rows — and scans then match a
/// resident twin.
#[test]
fn replaying_a_predicate_update_faults_nothing() {
    small_extents();
    let n = 6000usize;
    let dir_a = case_dir("replay-pooled");
    let dir_b = case_dir("replay-resident");
    let sets = [
        ("B".to_string(), Value::Int32(4242)),
        ("C".to_string(), Value::Int32(-1)),
    ];
    // `A` is 0 on 5 % of the rows, spread over every extent.
    let pred = Expr::col(0).eq(Expr::lit(0));
    for dir in [&dir_a, &dir_b] {
        let db = open(dir, None);
        db.register(microbench::generate(n, 0.05, microbench::pdsm_layout(), 31));
        let hit = db.update_where("R", &sets, Some(&pred)).unwrap();
        assert!(hit > n / 40, "the update must span the table");
    }
    let resident = open(&dir_b, None);
    let pool = BufferPool::new(resident.byte_size() / 4);
    let pooled = open(&dir_a, Some(std::sync::Arc::clone(&pool)));
    assert_eq!(pool.stats().misses, 0, "replay faulted the main");
    assert!(pooled
        .with_table("R", |vt| vt.store().cold().is_some())
        .unwrap());
    assert_eq!(pooled.storage_stats().recovery_replay_ops, 1);
    assert_twins_agree(&pooled, &resident, &all_plans(n));
    assert_eq!(pool.stats().pinned_frames, 0);
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// A cold main is read whole only by whoever needs it whole, on that
/// thread, holding no table lock: pinning a merge cut or a statement view
/// faults nothing, a compiled join walks the extents and leaves the table
/// cold, and the Volcano oracle's run of the same join assembles its own
/// copy while *another* thread holds the table's write lock — which then
/// inserts without having waited behind a single fault, the main still
/// cold.
#[test]
fn a_cold_main_is_never_hydrated_under_the_table_lock() {
    use std::sync::mpsc::channel;
    use std::time::Duration;

    small_extents();
    let dir = case_dir("off-lock");
    seed_twin(&dir, 6000, microbench::pdsm_layout(), 5, 16);
    let pool = BufferPool::new(64 << 20);
    let db = std::sync::Arc::new(open(&dir, Some(std::sync::Arc::clone(&pool))));
    let cold = || {
        db.with_table("R", |vt| vt.store().cold().is_some())
            .unwrap()
    };

    // Phase 1 of a merge pins the cut; the fold (phase 2) is what reads.
    let shared = db.shared("R").unwrap();
    let before = pool.stats();
    let ticket = shared.with_write(|t| t.begin_merge());
    assert_eq!(pool.stats(), before, "begin_merge touched the pool");
    assert!(cold(), "begin_merge hydrated the table");
    assert!(shared.with_write(|t| t.abort_merge()));
    drop(ticket);

    // A compiled join reads R extent by extent; the Volcano oracle needs
    // R whole.
    let join = QueryBuilder::scan("R")
        .filter(Expr::col(0).eq(Expr::lit(0)))
        .join(QueryBuilder::scan("R").build(), Expr::col(0), Expr::col(0))
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let compiled = db.run(&join, EngineKind::Compiled).unwrap();
    assert!(cold(), "a compiled join hydrated the table");
    assert_eq!(pool.stats().pinned_frames, 0);
    let before = pool.stats();
    let reads = |s: PoolStats| s.hits + s.misses;
    let (pinned_tx, pinned_rx) = channel();
    let (locked_tx, locked_rx) = channel();
    let (joined_tx, joined_rx) = channel();
    let reader = {
        let (db, join) = (std::sync::Arc::clone(&db), join.clone());
        std::thread::spawn(move || {
            let view = db.snapshot();
            pinned_tx.send(()).unwrap();
            locked_rx.recv().unwrap();
            let out = view.run(&join, EngineKind::Volcano).unwrap();
            joined_tx.send(()).unwrap();
            (view, out)
        })
    };
    pinned_rx.recv().unwrap();
    assert_eq!(pool.stats(), before, "pinning a view touched the pool");
    assert!(cold(), "pinning a view hydrated the table");
    let row: Vec<Value> = (0..N_COLS).map(|c| Value::Int32(c as i32)).collect();
    db.with_table_write("R", |vt| {
        // The writer owns the table lock from here to the insert.
        locked_tx.send(()).unwrap();
        joined_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the Volcano run waited for the table lock");
        assert!(vt.store().cold().is_some(), "the Volcano run converted R");
        vt.insert(&row).unwrap();
    })
    .unwrap();
    let (view, out) = reader.join().unwrap();
    assert!(
        reads(pool.stats()) > reads(before),
        "the Volcano run never read through the pool"
    );
    assert_eq!(out, compiled);
    // The view predates the insert; the live table has it.
    let count = |r: QueryResult| match r.rows[0][0] {
        Value::Int64(n) => n,
        ref v => panic!("count returned {v:?}"),
    };
    let all = QueryBuilder::scan("R")
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    assert_eq!(
        count(db.run(&all, EngineKind::Compiled).unwrap()),
        count(view.run(&all, EngineKind::Compiled).unwrap()) + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `n` rows of `(id, name, qty)` in column layout: three layout groups,
/// one of them a dictionary-coded string column.
fn three_group_table(n: i64) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int64),
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("qty", DataType::Int64),
    ]);
    let mut t = Table::with_layout("S", schema, Layout::column(3)).unwrap();
    for i in 0..n {
        let row = [
            Value::Int64(i),
            Value::Str(format!("n{}", i % 7)),
            Value::Int64(3 * i),
        ];
        t.insert(&row).unwrap();
    }
    t
}

/// A checkpoint of [`three_group_table`] in `dir`, reopened cold through a
/// fresh pool that could hold it whole.
fn cold_three_groups(tag: &str, n: i64) -> (PathBuf, Database, Arc<BufferPool>) {
    small_extents();
    let dir = case_dir(tag);
    open(&dir, None).register(three_group_table(n));
    let pool = BufferPool::new(64 << 20);
    let db = open(&dir, Some(Arc::clone(&pool)));
    (dir, db, pool)
}

/// The main-store handle of `S`, mounted cold.
fn store_of(db: &Database) -> Arc<MainStore> {
    let store = db.with_table("S", |vt| Arc::clone(vt.store())).unwrap();
    assert!(store.cold().is_some());
    store
}

fn sum_qty() -> LogicalPlan {
    QueryBuilder::scan("S")
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(2))])
        .build()
}

/// A pool frame is one extent with all its layout groups, and scans read
/// it in place: a streamed aggregate over three groups and E cold extents
/// takes E misses and charges exactly the extents' decoded bytes, a
/// re-pin of a resident extent returns the frame's own table, and every
/// frame — and the main's skeleton, and a whole copy assembled from the
/// frames — shares one dictionary.
#[test]
fn a_frame_is_one_extent_read_in_place() {
    let n = 5000;
    let (dir, db, pool) = cold_three_groups("frames", n);
    let store = store_of(&db);
    let cold = store.cold().unwrap();
    let extents = cold.n_extents();
    assert_eq!((extents, cold.header().n_groups()), (5, 3));

    let out = db.run(&sum_qty(), EngineKind::Compiled).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int64(3 * n * (n - 1) / 2)]]);
    let stats = pool.stats();
    assert_eq!((stats.misses, stats.hits), (extents as u64, 0));
    let charged: usize = (0..extents).map(|e| cold.header().extent_bytes(e)).sum();
    assert_eq!(stats.resident_bytes, charged);

    let (a, b) = (cold.pin(0).unwrap(), cold.pin(0).unwrap());
    assert!(
        Arc::ptr_eq(a.table(), b.table()),
        "a hit re-reads the frame"
    );
    let other = cold.pin(4).unwrap();
    assert!(std::ptr::eq(
        a.table().dict(1).unwrap(),
        other.table().dict(1).unwrap()
    ));
    assert!(std::ptr::eq(
        store.skeleton().dict(1).unwrap(),
        a.table().dict(1).unwrap()
    ));
    assert!(std::ptr::eq(
        db.get_table("S").unwrap().dict(1).unwrap(),
        a.table().dict(1).unwrap()
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint file a table's cold main was mounted from.
fn checkpoint_file(dir: &Path, table: &str) -> PathBuf {
    let mains: Vec<PathBuf> = std::fs::read_dir(dir.join(mrdb::store::sanitize_name(table)))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("main.") && name.ends_with(".tbl") && !name.contains("tmp")
        })
        .collect();
    assert_eq!(mains.len(), 1, "{mains:?}");
    mains[0].clone()
}

/// The storage error's message of a run expected to fail with one.
fn storage_err<T: std::fmt::Debug>(result: Result<T, mrdb::core::DbError>) -> String {
    match result {
        Err(mrdb::core::DbError::Storage(e)) => e.to_string(),
        other => panic!("expected a storage error, got {other:?}"),
    }
}

/// Damage to the checkpoint under a cold mount surfaces as a storage error
/// from the extent fault — never a panic, wrong rows, a leaked pin or a
/// fault slot left `Loading` — for an aggregate, a self-join aggregate
/// and a sort + limit alike, on both serving engines, and for the jobs
/// that read every row of a cold main, an index build and the merge fold: a
/// flipped arena byte fails its checksum (on every retry), a file cut
/// inside the last extent's first arena slice is a short read. A failed
/// merge aborts its cut and leaves the table as it was: same generation,
/// the pending row still visible.
#[test]
fn damaged_extents_fail_the_scan_cleanly() {
    use mrdb::store::{flip_bit, truncate_at};

    let plans = [
        sum_qty(),
        QueryBuilder::scan("S")
            .join(QueryBuilder::scan("S").build(), Expr::col(0), Expr::col(0))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(5))])
            .build(),
        QueryBuilder::scan("S")
            .sort(vec![(Expr::col(2), false)])
            .limit(3)
            .build(),
    ];
    let engines = [EngineKind::Compiled, EngineKind::Parallel];

    let (dir, db, pool) = cold_three_groups("flip", 5000);
    let [(start, len), _] = store_of(&db).cold().unwrap().header().extent_slices(2, 0);
    flip_bit(&checkpoint_file(&dir, "S"), start + len as u64 / 2).unwrap();
    let mut runs = 0;
    for attempt in 0..2 {
        for (i, plan) in plans.iter().enumerate() {
            for engine in engines {
                let err = storage_err(db.run(plan, engine));
                runs += 1;
                let ctx = format!("attempt {attempt}, plan {i}, {engine:?}");
                assert!(err.contains("checksum"), "{ctx}: {err}");
                let stats = pool.stats();
                assert_eq!(stats.pinned_frames, 0, "{ctx}");
                assert_eq!(
                    stats.frames, 2,
                    "{ctx}: only the sound extents stay resident"
                );
            }
        }
    }
    assert_eq!(
        pool.stats().misses,
        2 + runs,
        "every retry faults the bad extent again"
    );

    let generation = || db.with_table("S", |vt| vt.generation()).unwrap();
    let before = generation();
    let err = storage_err(db.create_index("S", "id", IndexKind::Hash));
    assert!(err.contains("checksum"), "index build: {err}");
    let row = vec![Value::Int64(5000), Value::from("new"), Value::Int64(-1)];
    db.insert("S", &row).unwrap();
    let err = storage_err(db.merge("S"));
    assert!(err.contains("checksum"), "merge: {err}");
    let err = storage_err(db.create_index("S", "id", IndexKind::Hash));
    assert!(err.contains("checksum"), "the index build's merge: {err}");
    assert_eq!(generation(), before, "a failed merge moved the generation");
    assert!(store_of(&db).cold().is_some());
    let stats = pool.stats();
    assert_eq!((stats.pinned_frames, stats.frames), (0, 2));
    // `id >= 5000` is refuted by every extent's zones: the delta answers.
    let pending = QueryBuilder::scan("S")
        .filter(Expr::col(0).ge(Expr::lit(5000i64)))
        .build();
    for engine in engines {
        assert_eq!(db.run(&pending, engine).unwrap().rows, vec![row.clone()]);
    }
    assert_eq!(db.execute(&pending).unwrap().rows, vec![row]);
    assert_eq!(pool.stats().pinned_frames, 0);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let (dir, db, pool) = cold_three_groups("cut", 5000);
    let store = store_of(&db);
    let cold = store.cold().unwrap();
    let [(start, _), _] = cold.header().extent_slices(cold.n_extents() - 1, 0);
    truncate_at(&checkpoint_file(&dir, "S"), start + 8).unwrap();
    for plan in &plans {
        for engine in engines {
            let err = storage_err(db.run(plan, engine));
            assert!(
                err.contains("fill whole buffer"),
                "{plan:?} {engine:?}: {err}"
            );
            assert_eq!(pool.stats().pinned_frames, 0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// [`three_group_table`] of `n` rows checkpointed in two directories and
/// reopened: one twin cold through a pool a quarter of the table's size,
/// the other resident. Returns `(pooled, resident, pool, dirs)`.
fn cold_and_resident_s(tag: &str, n: i64) -> (Database, Database, Arc<BufferPool>, [PathBuf; 2]) {
    small_extents();
    let dirs = [
        case_dir(&format!("{tag}-pooled")),
        case_dir(&format!("{tag}-resident")),
    ];
    for dir in &dirs {
        open(dir, None).register(three_group_table(n));
    }
    let resident = open(&dirs[1], None);
    let pool = BufferPool::new(resident.byte_size() / 4);
    let pooled = open(&dirs[0], Some(Arc::clone(&pool)));
    (pooled, resident, pool, dirs)
}

/// `S` is still mounted cold and the pool holds no pin.
fn assert_still_cold(db: &Database, pool: &BufferPool, after: &str) {
    assert!(store_of(db).cold().is_some(), "{after} converted S");
    assert_eq!(pool.stats().pinned_frames, 0, "{after} leaked a pin");
}

/// Every reader that needs every row of a main store walks its extents,
/// and every one that needs one row reads its extent: at a pool budget of
/// a quarter of the table, index builds (hash on an integer column, red-
/// black trees on a string and an integer column), indexed point and range
/// selects, the advisor's views, `byte_size`, `get_table`, a Volcano run
/// and an `UPDATE … WHERE` each leave `S` cold and nothing pinned, and
/// each answers exactly as a resident twin does. A point select on an
/// indexed cold table faults at most the hit's extent.
#[test]
fn a_cold_main_stays_cold_through_every_reader() {
    let n = 5000;
    let (pooled, resident, pool, dirs) = cold_and_resident_s("stays-cold", n);
    for db in [&pooled, &resident] {
        db.create_index("S", "id", IndexKind::Hash).unwrap();
        db.create_index("S", "name", IndexKind::RBTree).unwrap();
        db.create_index("S", "qty", IndexKind::RBTree).unwrap();
    }
    assert_still_cold(&pooled, &pool, "CREATE INDEX");
    assert!(pool.stats().misses > 0, "the index builds never faulted");

    let select = |pred: Expr| QueryBuilder::scan("S").filter(pred).build();
    let point = select(Expr::col(0).eq(Expr::lit(17i64)));
    let lookups = [
        point.clone(),
        select(Expr::col(1).eq(Expr::lit("n3"))),
        select(Expr::col(1).eq(Expr::lit("absent"))),
        select(Expr::col(2).ge(Expr::lit(3 * (n - 40)))),
    ];
    let probe = |db: &Database, plan| db.run_indexed(plan, EngineKind::Compiled).unwrap();
    for plan in &lookups {
        assert_eq!(probe(&pooled, plan), probe(&resident, plan));
        assert_eq!(
            pooled.execute(plan).unwrap(),
            resident.execute(plan).unwrap()
        );
        assert_still_cold(&pooled, &pool, "an indexed select");
    }
    // The key lookup is the planner's index probe too. (It scans for the
    // rest: a string equality it prices as unselective, and a range of
    // the clustered `qty` its zone maps prune to one extent.)
    let phys = pooled.plan_query(&point).unwrap();
    assert!(
        phys.pipelines[0].access.is_indexed(),
        "the key lookup scanned"
    );
    // Extent 0 was evicted long ago; the probe of one of its rows faults
    // that extent alone.
    let before = pool.stats();
    let hit = select(Expr::col(0).eq(Expr::lit(3i64)));
    assert_eq!(
        pooled.execute(&hit).unwrap(),
        resident.execute(&hit).unwrap()
    );
    let after = pool.stats();
    let reads = |s: &PoolStats| s.hits + s.misses;
    assert_eq!(reads(&after) - reads(&before), 1, "{before:?} -> {after:?}");
    assert_eq!(after.misses - before.misses, 1, "extent 0 stayed resident");

    let views = |db: &Database| {
        let mut v: Vec<_> = (LayoutAdvisor::default().views(db).into_iter())
            .map(|(name, v)| (name, v.n_rows, v.col_widths, v.layout))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    assert_eq!(views(&pooled), views(&resident));
    assert_eq!(pooled.byte_size(), resident.byte_size());
    let before = pool.stats().misses;
    pooled.byte_size();
    assert_eq!(pool.stats().misses, before, "byte_size faulted");
    assert_still_cold(&pooled, &pool, "the advisor or byte_size");

    let (a, b) = (
        pooled.get_table("S").unwrap(),
        resident.get_table("S").unwrap(),
    );
    assert_eq!(a.rows().collect::<Vec<_>>(), b.rows().collect::<Vec<_>>());
    assert_eq!((a.byte_size(), a.layout()), (b.byte_size(), b.layout()));
    assert_still_cold(&pooled, &pool, "get_table");

    let join = QueryBuilder::scan("S")
        .filter(Expr::col(1).eq(Expr::lit("n5")))
        .join(QueryBuilder::scan("S").build(), Expr::col(0), Expr::col(0))
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(5))])
        .build();
    let volcano = |db: &Database| db.run(&join, EngineKind::Volcano).unwrap();
    assert_eq!(volcano(&pooled), volcano(&resident));
    assert_still_cold(&pooled, &pool, "a Volcano run");

    let sets = [("qty".to_string(), Value::Int64(-5))];
    let pred = Expr::col(0).lt(Expr::lit(1500i64));
    let hit = pooled.update_where("S", &sets, Some(&pred)).unwrap();
    assert_eq!(hit, resident.update_where("S", &sets, Some(&pred)).unwrap());
    assert_eq!(hit, 1500);
    assert_still_cold(&pooled, &pool, "UPDATE … WHERE");
    for plan in lookups.iter().chain([&sum_qty()]) {
        assert_eq!(
            pooled.execute(plan).unwrap(),
            resident.execute(plan).unwrap()
        );
    }
    assert_still_cold(&pooled, &pool, "a select over the update");
    drop((pooled, resident));
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Merging a cold main folds it one pinned extent at a time: the pool's
/// peak stays within its budget plus one extent, nothing overcommits, the
/// main it folded stays cold, and the next generation's checkpoint blob
/// is byte-identical to the one a resident twin's merge of the same delta
/// writes.
#[test]
fn merging_a_cold_main_stays_within_the_pool_and_writes_the_same_blob() {
    let (pooled, resident, pool, dirs) = cold_and_resident_s("cold-merge", 6000);
    let cold = Arc::clone(store_of(&pooled).cold().unwrap());
    let extent = (0..cold.n_extents())
        .map(|e| cold.header().extent_bytes(e))
        .max()
        .unwrap();
    let folded = pooled.table_snapshot("S").unwrap();
    let before = pool.stats();
    for db in [&pooled, &resident] {
        db.insert(
            "S",
            &[Value::Int64(-1), Value::from("new"), Value::Int64(7)],
        )
        .unwrap();
        db.delete_where("S", Some(&Expr::col(0).eq(Expr::lit(4000i64))))
            .unwrap();
        db.merge("S").unwrap();
    }
    let after = pool.stats();
    assert!(after.misses >= before.misses + cold.n_extents() as u64);
    assert!(
        after.peak_resident_bytes <= after.budget_bytes + extent,
        "peak {} over budget {} + one extent {extent}",
        after.peak_resident_bytes,
        after.budget_bytes
    );
    assert_eq!(after.overcommits, before.overcommits);
    assert_eq!(after.pinned_frames, 0);
    assert!(
        folded.store().cold().is_some(),
        "the fold converted its input"
    );
    let generation = |db: &Database| db.with_table("S", |vt| vt.generation()).unwrap();
    assert_eq!(generation(&pooled), generation(&resident));
    drop((pooled, resident));
    let [a, b] = dirs.map(|dir| {
        let blob = std::fs::read(checkpoint_file(&dir, "S")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        blob
    });
    assert!(a == b, "the cold merge wrote a different blob");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn pooled_twin_is_byte_identical_to_resident(
        seed in 0u64..10_000,
        n in 2500usize..4000,
        layout_sel in 0usize..3,
        budget in prop_oneof![Just(8_000usize), Just(24_000usize), Just(100_000usize)],
        n_ops in 8usize..32,
    ) {
        small_extents();
        let dir_a = case_dir("pooled");
        let dir_b = case_dir("resident");
        let layout = layout_for(layout_sel);
        let live_a = seed_twin(&dir_a, n, layout.clone(), seed, n_ops);
        let live_b = seed_twin(&dir_b, n, layout, seed, n_ops);
        prop_assert_eq!(&live_a, &live_b, "seeding must be deterministic");

        // Reopen: one twin through a pool far smaller than the dataset,
        // the other fully resident.
        let pool = BufferPool::new(budget);
        let pooled = open(&dir_a, Some(std::sync::Arc::clone(&pool)));
        let resident = open(&dir_b, None);

        // Pinning every table of a cold database faults nothing.
        let opened = pool.stats();
        let pinned = pooled.snapshot();
        prop_assert_eq!(pool.stats(), opened, "pinning a DbSnapshot touched the pool");
        prop_assert!(pinned.table_snapshot("R").unwrap().store().cold().is_some());
        drop(pinned);

        // Phase 1 — the cold battery. Every plan, breakers included, runs
        // extent-at-a-time on the pooled twin, faulting and evicting
        // under the tiny budget; `assert_twins_agree` checks R stays cold
        // until the Volcano oracle runs last.
        prop_assert!(r_is_cold(&pooled));
        assert_twins_agree(&pooled, &resident, &all_plans(n));
        let stats = pool.stats();
        prop_assert_eq!(stats.pinned_frames, 0, "pin leak at quiesce");
        prop_assert!(stats.misses > 0, "cold battery never faulted");
        prop_assert!(
            stats.resident_bytes <= stats.peak_resident_bytes,
            "resident accounting went backwards"
        );

        // Phase 2 — identical DML + merge on both twins, then the full
        // battery again.
        let tail = microbench_mix(n_ops, 0.0, 0.05, seed ^ 0x5EED);
        let mut live_a = live_a;
        let mut live_b = live_b;
        for op in &tail.ops {
            apply_op(&pooled, &mut live_a, op);
            apply_op(&resident, &mut live_b, op);
        }
        pooled.merge("R").unwrap();
        resident.merge("R").unwrap();
        assert_twins_agree(&pooled, &resident, &all_plans(n));

        // Phase 3 — close and recover both twins again (cold recovery
        // now replays the post-merge WAL over pooled extents) and
        // compare once more.
        drop(pooled);
        drop(resident);
        let pool = BufferPool::new(budget);
        let pooled = open(&dir_a, Some(std::sync::Arc::clone(&pool)));
        let resident = open(&dir_b, None);
        prop_assert!(r_is_cold(&pooled));
        assert_twins_agree(&pooled, &resident, &all_plans(n));
        let stats = pool.stats();
        prop_assert_eq!(stats.pinned_frames, 0, "pin leak after recovery battery");
        prop_assert!(stats.misses > 0, "recovered battery never faulted");

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}
