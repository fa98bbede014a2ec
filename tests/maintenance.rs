//! The maintenance scheduler end-to-end: background merges stay
//! byte-identical to synchronous ones, the worker applies its own builds
//! (catch-up never rides the write path), an explicit merge waits for a
//! running one instead of preempting it, backpressure bounds the delta,
//! predicate DML runs the maintenance step,
//! the advisor loop re-layouts drifted tables at merge time, plan caches
//! survive background generation bumps, and version chains stay bounded.

use mrdb::prelude::*;
use mrdb::storage::Value as V;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::channel;
use std::time::Duration;

fn cfg(mode: MaintenanceMode, threshold: u64) -> MaintenanceConfig {
    MaintenanceConfig {
        mode,
        merge_threshold: threshold,
        advise_on_merge: false,
        // Backpressure off: these suites assert exact build counts, which
        // a lag-triggered inline merge would perturb (it is covered by its
        // own test below).
        max_lag: 0,
        ..Default::default()
    }
}

fn make_table(db: &Database) {
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::new("v", DataType::Int64),
            ColumnDef::new("s", DataType::Str),
        ]),
    )
    .unwrap();
}

/// Apply one deterministic op-stream step. Row targets resolve by *live
/// position* (scan order), which is invariant under merge timing — so two
/// databases merging at different moments apply identical logical ops.
///
/// Updates and deletes resolve-and-apply inside one
/// [`Database::with_table_write`] closure: under worker-applied background
/// merges a swap could otherwise renumber the id between resolution and
/// use. (The rng is only consulted when the live set is non-empty, which
/// is a property of the logical state — identical across databases.)
fn apply_step(db: &Database, rng: &mut SmallRng) {
    let w = rng.gen_range(0..10);
    if w < 6 {
        let k: i32 = rng.gen_range(0..1000);
        db.insert(
            "t",
            &[
                V::Int32(k),
                V::Int64(k as i64 * 3),
                V::Str(format!("s{}", k % 7)),
            ],
        )
        .unwrap();
    } else if w < 8 {
        db.with_table_write("t", |vt| {
            let live: Vec<usize> = (0..vt.main_len() + vt.delta_rows())
                .filter(|&i| vt.is_visible(i))
                .collect();
            if !live.is_empty() {
                let id = live[rng.gen_range(0..u64::MAX) as usize % live.len()];
                let col = vt.schema().col_id("v").unwrap();
                vt.update(id, col, &V::Int64(rng.gen_range(-500..500)))
                    .unwrap();
            }
        })
        .unwrap();
    } else {
        db.with_table_write("t", |vt| {
            let live: Vec<usize> = (0..vt.main_len() + vt.delta_rows())
                .filter(|&i| vt.is_visible(i))
                .collect();
            if !live.is_empty() {
                let id = live[rng.gen_range(0..u64::MAX) as usize % live.len()];
                vt.delete(id).unwrap();
            }
        })
        .unwrap();
    }
}

fn scan_rows(db: &Database) -> Vec<Vec<Value>> {
    db.run(&QueryBuilder::scan("t").build(), EngineKind::Compiled)
        .unwrap()
        .into_output()
        .rows
}

#[test]
fn sync_mode_merges_inline_at_threshold() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Sync, 64));
    make_table(&db);
    for i in 0..500i32 {
        db.insert("t", &[V::Int32(i), V::Int64(i as i64), V::Str("x".into())])
            .unwrap();
    }
    let (generation, delta_ops) = db
        .with_table("t", |vt| (vt.generation(), vt.delta_ops()))
        .unwrap();
    assert!(generation > 0, "threshold crossings merged");
    assert!(delta_ops < 64 + 1, "delta stays bounded");
    let stats = db.maintenance_stats();
    assert!(stats.sync_merges >= 7, "got {:?}", stats);
    assert_eq!(stats.builds_started, 0, "sync mode never uses the worker");
    assert_eq!(scan_rows(&db).len(), 500);
}

#[test]
fn background_mode_builds_and_applies_off_thread() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Background, 64));
    make_table(&db);
    for i in 0..500i32 {
        db.insert("t", &[V::Int32(i), V::Int64(i as i64), V::Str("x".into())])
            .unwrap();
    }
    let applied = db.flush_maintenance().unwrap();
    let stats = db.maintenance_stats();
    assert!(stats.builds_started >= 1, "got {:?}", stats);
    assert_eq!(
        stats.builds_applied, stats.builds_started,
        "the worker applied every build (none raced an explicit merge): {:?}",
        stats
    );
    assert_eq!(stats.sync_merges, 0);
    assert!(!applied.is_empty() || stats.builds_applied > 0);
    assert!(db.with_table("t", |vt| vt.generation()).unwrap() > 0);
    assert_eq!(scan_rows(&db).len(), 500);
}

#[test]
fn background_and_sync_paths_are_byte_identical() {
    let sync_db = Database::with_maintenance(cfg(MaintenanceMode::Sync, 48));
    let bg_db = Database::with_maintenance(cfg(MaintenanceMode::Background, 48));
    let off_db = Database::with_maintenance(cfg(MaintenanceMode::Off, 48));
    for db in [&sync_db, &bg_db, &off_db] {
        make_table(db);
    }
    // identical op streams; targets resolve by live position (timing-proof)
    let mut r1 = SmallRng::seed_from_u64(99);
    let mut r2 = SmallRng::seed_from_u64(99);
    let mut r3 = SmallRng::seed_from_u64(99);
    for _ in 0..800 {
        apply_step(&sync_db, &mut r1);
        apply_step(&bg_db, &mut r2);
        apply_step(&off_db, &mut r3);
    }
    bg_db.flush_maintenance().unwrap();
    // live scans agree before any final merge...
    let a = scan_rows(&sync_db);
    let b = scan_rows(&bg_db);
    let c = scan_rows(&off_db);
    assert_eq!(a, b, "sync vs background live state");
    assert_eq!(a, c, "scheduled vs never-merged live state");
    // ...and after everything is folded
    for db in [&sync_db, &bg_db, &off_db] {
        db.merge_all().unwrap();
    }
    let a = scan_rows(&sync_db);
    let b = scan_rows(&bg_db);
    let c = scan_rows(&off_db);
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert!(bg_db.maintenance_stats().builds_started > 0);
    assert!(sync_db.maintenance_stats().sync_merges > 0);
}

#[test]
fn explicit_merge_waits_for_a_parked_merge() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Background, 32));
    make_table(&db);
    // the 33rd insert's entry check crosses the threshold and queues a
    // build; the worker may run it at any moment now
    for i in 0..33i32 {
        db.insert("t", &[V::Int32(i), V::Int64(0), V::Str("x".into())])
            .unwrap();
    }
    // Whichever runs first, the explicit merge or the build, the other
    // finds what is left: the build merges nothing if the explicit merge
    // folded the delta below the threshold before the worker started.
    db.merge("t").unwrap();
    db.flush_maintenance().unwrap();
    let stats = db.maintenance_stats();
    assert_eq!(stats.builds_started, 1);
    assert_eq!(
        stats.builds_applied + stats.builds_discarded,
        1,
        "every build is accounted for exactly once: {:?}",
        stats
    );
    assert_eq!(scan_rows(&db).len(), 33);

    // Deterministically, at the shared-handle level: park a merge inside
    // its layout choice, write while it is parked, then merge explicitly.
    // The explicit merge waits for the parked one instead of preempting
    // it, then folds everything written before the call.
    for i in 100..110i32 {
        db.insert("t", &[V::Int32(i), V::Int64(1), V::Str("y".into())])
            .unwrap();
    }
    let shared = db.shared("t").unwrap();
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let (merged_tx, merged_rx) = channel();
    let db = &db;
    std::thread::scope(|s| {
        let parked = s.spawn(move || {
            let merged = shared.merge(0, |cut| {
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                cut.store().layout().clone()
            });
            merged.unwrap().expect("min_ops 0 merges").0
        });
        parked_rx.recv().unwrap();
        for i in 200..205i32 {
            db.insert("t", &[V::Int32(i), V::Int64(2), V::Str("z".into())])
                .unwrap();
        }
        s.spawn(move || merged_tx.send(db.merge("t").unwrap()).unwrap());
        let early = merged_rx.recv_timeout(Duration::from_millis(200));
        release_tx.send(()).unwrap();
        assert!(early.is_err(), "the explicit merge must wait, not preempt");
        let first = parked.join().unwrap();
        assert_eq!(
            first.delta_rows_folded, 10,
            "the parked merge folds its cut"
        );
        let second = merged_rx.recv().unwrap();
        assert_eq!(second.generation, first.generation + 1);
        assert_eq!(second.delta_rows_folded, 5, "then the rows written before");
    });
    assert!(!db.with_table("t", |vt| vt.has_delta()).unwrap());
    assert_eq!(scan_rows(db).len(), 48);
}

#[test]
fn backpressure_falls_back_to_inline_merges() {
    // A builder that never catches up: the single worker waits behind a
    // merge of table `u` parked inside its layout choice, so the build
    // queued for `t` never starts. The delta of `t` outruns it, and its
    // writer must merge inline once the lag factor is exceeded.
    let db = Database::with_maintenance(MaintenanceConfig {
        mode: MaintenanceMode::Background,
        merge_threshold: 16,
        advise_on_merge: false,
        max_lag: 4, // backpressure at 64 pending ops
        ..Default::default()
    });
    make_table(&db);
    db.create_table("u", Schema::new(vec![ColumnDef::new("k", DataType::Int32)]))
        .unwrap();
    let u = db.shared("u").unwrap();
    let (parked_tx, parked_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    std::thread::scope(|s| {
        s.spawn(move || {
            u.merge(0, |cut| {
                parked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                cut.store().layout().clone()
            })
            .unwrap()
        });
        parked_rx.recv().unwrap();
        // `u` crosses its threshold: its build takes the worker, which
        // then waits for the parked merge.
        for i in 0..17i32 {
            db.insert("u", &[V::Int32(i)]).unwrap();
        }
        for i in 0..200i32 {
            db.insert("t", &[V::Int32(i), V::Int64(0), V::Str("x".into())])
                .unwrap();
            assert!(
                db.with_table("t", |vt| vt.delta_ops()).unwrap() <= 64,
                "backpressure must bound the delta at max_lag × threshold"
            );
        }
        let stats = db.maintenance_stats();
        assert!(
            stats.backpressure_merges >= 1,
            "inline fallback engaged: {stats:?}"
        );
        release_tx.send(()).unwrap();
    });
    db.flush_maintenance().unwrap();
    let stats = db.maintenance_stats();
    assert_eq!(
        stats.builds_applied + stats.builds_discarded,
        stats.builds_started,
        "every queued build ran once the worker was free: {stats:?}"
    );
    assert_eq!(scan_rows(&db).len(), 200);
}

/// Predicate DML runs the maintenance step, as inserts do: traffic that
/// only updates still merges at the threshold.
#[test]
fn update_where_runs_the_maintenance_step() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Sync, 16));
    make_table(&db);
    let rows: Vec<Vec<Value>> = (0..10i32)
        .map(|i| vec![V::Int32(i), V::Int64(0), V::Str("x".into())])
        .collect();
    db.insert_batch("t", &rows).unwrap(); // one delta op
    for i in 0..20i32 {
        let matched = db
            .update_where(
                "t",
                &[("v".to_string(), V::Int64(i as i64))],
                Some(&Expr::col(0).eq(Expr::lit(i % 10))),
            )
            .unwrap();
        assert_eq!(matched, 1);
    }
    assert!(db.with_table("t", |vt| vt.generation()).unwrap() >= 1);
    assert!(db.maintenance_stats().sync_merges >= 1);
    assert_eq!(scan_rows(&db).len(), 10);
}

/// ROADMAP's "layout advice as policy" loop: tables whose observed
/// workload drifted merge into an advised layout automatically.
fn advised_relayout_on(mode: MaintenanceMode) {
    let mut c = cfg(mode, 200);
    c.advise_on_merge = true;
    let db = Database::with_maintenance(c);
    let cols: Vec<ColumnDef> = (0..16)
        .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
        .collect();
    db.create_table("r", Schema::new(cols)).unwrap();
    for i in 0..2000i32 {
        let row: Vec<Value> = (0..16).map(|c| V::Int32(i * 16 + c)).collect();
        db.insert("r", &row).unwrap();
    }
    db.flush_maintenance().unwrap();
    db.merge_all().unwrap();
    assert_eq!(
        db.get_table("r").unwrap().layout().n_groups(),
        1,
        "no observed traffic yet: merges keep the row layout"
    );
    // narrow scan traffic: the advisor should split the hot columns out
    let q = QueryBuilder::scan("r")
        .filter_with_selectivity(Expr::col(0).eq(Expr::lit(3)), 0.05)
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
        .build();
    for _ in 0..5 {
        db.execute(&q).unwrap();
    }
    for i in 0..250i32 {
        let row: Vec<Value> = (0..16).map(|c| V::Int32(i * 16 + c)).collect();
        db.insert("r", &row).unwrap();
    }
    db.flush_maintenance().unwrap();
    let stats = db.maintenance_stats();
    assert!(
        stats.advised_relayouts >= 1,
        "merge consulted the advisor: {:?}",
        stats
    );
    assert!(
        db.get_table("r").unwrap().layout().n_groups() > 1,
        "drifted table merged into an advised layout: {}",
        db.get_table("r").unwrap().layout()
    );
    // results unchanged under the new layout
    let out = db.execute(&q).unwrap();
    assert_eq!(out.rows.len(), 1);
}

#[test]
fn advised_relayout_at_merge_sync() {
    advised_relayout_on(MaintenanceMode::Sync);
}

#[test]
fn advised_relayout_at_merge_background() {
    advised_relayout_on(MaintenanceMode::Background);
}

#[test]
fn plan_cache_follows_background_generation_bumps() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Background, 64));
    make_table(&db);
    for i in 0..60i32 {
        db.insert("t", &[V::Int32(i), V::Int64(i as i64), V::Str("x".into())])
            .unwrap();
    }
    let plan = QueryBuilder::scan("t")
        .filter(Expr::col(0).lt(Expr::lit(10)))
        .build();
    let p1 = db.plan_query(&plan).unwrap();
    let p1b = db.plan_query(&plan).unwrap();
    assert!(std::sync::Arc::ptr_eq(&p1, &p1b), "stable while quiet");
    // push past the threshold and let the worker land the merge
    for i in 60..130i32 {
        db.insert("t", &[V::Int32(i), V::Int64(i as i64), V::Str("x".into())])
            .unwrap();
    }
    db.flush_maintenance().unwrap();
    assert!(db.with_table("t", |vt| vt.generation()).unwrap() > 0);
    let p2 = db.plan_query(&plan).unwrap();
    assert!(
        !std::sync::Arc::ptr_eq(&p1, &p2),
        "background generation bump invalidates the cached plan"
    );
    assert_eq!(db.execute(&plan).unwrap().rows.len(), 10);
}

#[test]
fn long_lived_db_snapshot_pins_one_version() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Off, 0));
    make_table(&db);
    for i in 0..100i32 {
        db.insert("t", &[V::Int32(i), V::Int64(0), V::Str("x".into())])
            .unwrap();
    }
    db.merge("t").unwrap();
    let pinned = db.snapshot(); // long-lived reader at generation 1
    for round in 0..6i32 {
        for i in 0..50 {
            db.insert(
                "t",
                &[
                    V::Int32(1000 + round * 50 + i),
                    V::Int64(1),
                    V::Str("y".into()),
                ],
            )
            .unwrap();
        }
        db.merge("t").unwrap();
    }
    let s = db.version_stats("t").unwrap();
    assert_eq!(
        s.live_mains, 2,
        "snapshot's version + current; intermediates reclaimed: {:?}",
        s
    );
    assert_eq!(s.pinned_versions, 1);
    assert!(s.pinned_bytes > 0);
    // the pinned snapshot still reads its version
    assert_eq!(
        pinned
            .table_snapshot("t")
            .map(|t| t.len())
            .unwrap_or_default(),
        100
    );
    drop(pinned);
    let s = db.version_stats("t").unwrap();
    assert_eq!(s.live_mains, 1, "last reader released → version dropped");
    assert_eq!(s.pinned_bytes, 0);
}

#[test]
fn env_config_parses_modes_and_threshold() {
    if std::env::var("PDSM_MERGE").is_err() && std::env::var("PDSM_MERGE_THRESHOLD").is_err() {
        let cfg = MaintenanceConfig::from_env();
        assert_eq!(cfg.mode, MaintenanceMode::Background);
        assert_eq!(cfg.merge_threshold, 65_536);
        assert_eq!(cfg.max_lag, 8);
    }
    // per-table override logic
    let mut c = MaintenanceConfig {
        merge_threshold: 100,
        ..Default::default()
    };
    c.per_table.insert("hot".into(), 10);
    assert_eq!(c.threshold_for("hot"), 10);
    assert_eq!(c.threshold_for("cold"), 100);
}

#[test]
fn set_maintenance_config_replaces_the_mut_escape_hatch() {
    let db = Database::with_maintenance(cfg(MaintenanceMode::Off, 10));
    make_table(&db);
    let mut c = db.maintenance_config();
    assert_eq!(c.mode, MaintenanceMode::Off);
    c.mode = MaintenanceMode::Sync;
    c.merge_threshold = 8;
    db.set_maintenance_config(c);
    assert_eq!(db.maintenance_config().mode, MaintenanceMode::Sync);
    db.update_maintenance_config(|cfg| cfg.merge_threshold = 4);
    db.set_merge_threshold(Some("t"), 16);
    let c = db.maintenance_config();
    assert_eq!(c.merge_threshold, 4);
    assert_eq!(c.threshold_for("t"), 16);
    // the new policy is live: sync merges now happen at the per-table
    // threshold
    for i in 0..40i32 {
        db.insert("t", &[V::Int32(i), V::Int64(0), V::Str("x".into())])
            .unwrap();
    }
    assert!(db.maintenance_stats().sync_merges >= 1);
    assert!(db.with_table("t", |vt| vt.generation()).unwrap() > 0);
}
