//! Crash-recovery integration tests: a durable [`Database`] killed
//! mid-workload (simulated by truncating or corrupting its WAL at an
//! arbitrary byte — exactly what a `kill -9` mid-append leaves behind)
//! must reopen to a state **byte-identical** to a surviving in-memory
//! replica that stopped at the last durable record — for every engine and
//! every storage layout.

use mrdb::prelude::*;
use mrdb::store::{flip_bit, truncate_at};
use mrdb::workloads::microbench::{self, N_COLS};
use mrdb::workloads::mixed::{microbench_mix, MixedOp};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pdsm-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_durable(dir: &Path) -> Database {
    Database::open_with(
        DurabilityConfig::new(dir).with_fsync(FsyncMode::Off),
        MaintenanceConfig {
            mode: MaintenanceMode::Off,
            ..MaintenanceConfig::default()
        },
    )
    .unwrap()
}

fn memory_db() -> Database {
    Database::with_maintenance(MaintenanceConfig {
        mode: MaintenanceMode::Off,
        ..MaintenanceConfig::default()
    })
}

/// Apply one mixed-workload write through a database's normal DML path,
/// maintaining the driver's live-id set. Returns true iff the op reached
/// the table (and therefore emitted exactly one WAL record when durable).
fn apply_op(db: &Database, live: &mut Vec<usize>, op: &MixedOp) -> bool {
    db.with_table_write("R", |vt| match op {
        MixedOp::Read { .. } => false,
        MixedOp::Insert { rows } => {
            live.extend(vt.insert_batch(rows).unwrap());
            true
        }
        MixedOp::Update {
            row_hint,
            col,
            value,
        } => {
            if live.is_empty() {
                return false;
            }
            let slot = (*row_hint % live.len() as u64) as usize;
            live[slot] = vt.update(live[slot], *col, value).unwrap();
            true
        }
        MixedOp::Delete { row_hint } => {
            if live.is_empty() {
                return false;
            }
            let slot = (*row_hint % live.len() as u64) as usize;
            vt.delete(live[slot]).unwrap();
            live.swap_remove(slot);
            true
        }
    })
    .unwrap()
}

/// The probe battery: full-column aggregate, selective filter, projection.
fn probes() -> Vec<LogicalPlan> {
    vec![
        microbench::query(0.1),
        QueryBuilder::scan("R")
            .filter(Expr::col(0).gt(Expr::lit(0)))
            .project(vec![Expr::col(0), Expr::col(3)])
            .build(),
        QueryBuilder::scan("R")
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                ],
            )
            .build(),
    ]
}

/// Assert `recovered` and `replica` answer every probe identically on
/// every engine that supports the plan shape.
fn assert_identical(recovered: &Database, replica: &Database, ctx: &str) {
    for (i, plan) in probes().iter().enumerate() {
        for kind in EngineKind::all() {
            let a = recovered
                .run(plan, kind)
                .unwrap_or_else(|e| panic!("{ctx}: probe {i} on recovered/{kind:?}: {e}"));
            let b = replica
                .run(plan, kind)
                .unwrap_or_else(|e| panic!("{ctx}: probe {i} on replica/{kind:?}: {e}"));
            a.assert_same(&b, &format!("{ctx}: probe {i}, {kind:?}"));
        }
    }
}

fn layouts() -> Vec<(&'static str, Layout)> {
    // Row, column, and a hybrid grouping (hot pair + cold rest) — the
    // paper's three layout classes.
    let mut groups = vec![vec![0usize, 1]];
    groups.extend((2..N_COLS).map(|c| vec![c]));
    vec![
        ("row", Layout::row(N_COLS)),
        ("column", Layout::column(N_COLS)),
        ("hybrid", Layout::from_groups(groups, N_COLS).unwrap()),
    ]
}

/// The tentpole acceptance test: seed a table (its generation-0 blob is
/// the checkpoint), run a write-heavy mixed workload through the durable
/// DML path, kill the "process" by truncating the WAL at several
/// arbitrary byte offsets, recover, and check byte-identity against an
/// in-memory replica driven to the last whole record — per layout, per
/// engine.
#[test]
fn crash_recovery_matches_surviving_replica() {
    for (layout_name, layout) in layouts() {
        let dir = tmpdir(&format!("crash-{layout_name}"));
        let base = microbench::generate(300, 0.1, layout.clone(), 7);
        {
            let db = open_durable(&dir);
            db.register(base.clone());
            let workload = microbench_mix(120, 0.0, 0.1, 11);
            let mut live: Vec<usize> = (0..db.get_table("R").unwrap().len()).collect();
            for op in &workload.ops {
                apply_op(&db, &mut live, op);
            }
        } // drop = process exit; fsync Off means the OS still has the bytes
        let wal = dir.join("R").join("wal.0.log");
        let full = std::fs::metadata(&wal).unwrap().len();
        assert!(full > 0, "{layout_name}: workload must have logged");

        // Crash points: clean tail, mid-record tears, and (almost) everything
        // torn away. Recovery must stop at the last whole record each time.
        for cut in [full, full - 3, full / 2, 9] {
            truncate_at(&wal, cut).unwrap();
            let recovered = open_durable(&dir);
            let replayed = recovered.storage_stats().recovery_replay_ops;

            // Drive the replica to exactly the ops that became durable.
            let replica = memory_db();
            replica.register(base.clone());
            let workload = microbench_mix(120, 0.0, 0.1, 11);
            let mut live: Vec<usize> = (0..replica.get_table("R").unwrap().len()).collect();
            let mut durable_ops = 0u64;
            for op in &workload.ops {
                if durable_ops == replayed {
                    break;
                }
                if apply_op(&replica, &mut live, op) {
                    durable_ops += 1;
                }
            }
            assert_eq!(
                durable_ops, replayed,
                "{layout_name}@{cut}: replay count exceeds the workload"
            );
            assert_identical(&recovered, &replica, &format!("{layout_name}@{cut}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A flipped bit in the WAL tail (a torn sector, not just a short write)
/// is also a crash point: recovery keeps every record before it and
/// discards the rest — it never errors and never replays garbage.
#[test]
fn corrupt_wal_tail_recovers_to_prefix() {
    let dir = tmpdir("bitflip");
    {
        let db = open_durable(&dir);
        db.create_table(
            "R",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int64),
            ]),
        )
        .unwrap();
        for i in 0..40 {
            db.insert("R", &[Value::Int32(i), Value::Int64(i as i64)])
                .unwrap();
        }
    }
    let wal = dir.join("R").join("wal.0.log");
    let full = std::fs::metadata(&wal).unwrap().len();
    flip_bit(&wal, full * 3 / 4).unwrap();
    let db = open_durable(&dir);
    let replayed = db.storage_stats().recovery_replay_ops;
    assert!(replayed < 40, "corruption must cut the replay short");
    let count = QueryBuilder::scan("R")
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = db.run(&count, EngineKind::Compiled).unwrap();
    assert_eq!(out.rows[0][0], Value::Int64(replayed as i64));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A half-written checkpoint temp blob (crash mid-merge, before the
/// rename) must be scrubbed on recovery and never treated as a committed
/// main store.
#[test]
fn half_written_checkpoint_temp_is_ignored() {
    let dir = tmpdir("half-ckpt");
    {
        let db = open_durable(&dir);
        db.create_table("R", Schema::new(vec![ColumnDef::new("a", DataType::Int32)]))
            .unwrap();
        for i in 0..25 {
            db.insert("R", &[Value::Int32(i)]).unwrap();
        }
    }
    let tmp = dir.join("R").join("main.tmp.3.tbl");
    std::fs::write(&tmp, b"PDSMgarbage-half-written").unwrap();
    let db = open_durable(&dir);
    assert!(!tmp.exists(), "recovery must scrub the temp blob");
    let count = QueryBuilder::scan("R")
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = db.run(&count, EngineKind::Compiled).unwrap();
    assert_eq!(out.rows[0][0], Value::Int64(25));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoint-on-merge bounds recovery: after a merge, replay is O(ops
/// since the merge) no matter how much history preceded it — asserted by
/// counting the replayed ops exactly.
#[test]
fn merge_then_recover_replays_only_the_tail() {
    let dir = tmpdir("merge-recover");
    {
        let db = open_durable(&dir);
        db.register(microbench::generate(400, 0.1, Layout::column(N_COLS), 3));
        let workload = microbench_mix(200, 0.0, 0.1, 5);
        let mut live: Vec<usize> = (0..db.get_table("R").unwrap().len()).collect();
        for op in &workload.ops {
            apply_op(&db, &mut live, op);
        }
        db.merge("R").unwrap(); // checkpoint: WAL truncated to the cut
        assert_eq!(db.storage_stats().wal_live_bytes, 0);
        // Exactly three post-checkpoint ops.
        db.insert("R", &vec![Value::Int32(-1); N_COLS]).unwrap();
        db.insert("R", &vec![Value::Int32(-2); N_COLS]).unwrap();
        db.delete("R", 0).unwrap();
    }
    let db = open_durable(&dir);
    assert_eq!(
        db.storage_stats().recovery_replay_ops,
        3,
        "replay must be O(ops since the last checkpoint)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovered row ids line up with the pre-crash table: an id resolved
/// before the crash still addresses the same logical row afterwards
/// (updates through recovered ids hit the right cells).
#[test]
fn recovered_row_ids_match_pre_crash_ids() {
    let dir = tmpdir("row-ids");
    let probe = QueryBuilder::scan("R")
        .filter(Expr::col(0).eq(Expr::lit(5)))
        .project(vec![Expr::col(1)])
        .build();
    let pre;
    {
        let db = open_durable(&dir);
        db.create_table(
            "R",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int32),
                ColumnDef::new("v", DataType::Int64),
            ]),
        )
        .unwrap();
        for i in 0..30 {
            db.insert("R", &[Value::Int32(i), Value::Int64(0)]).unwrap();
        }
        db.merge("R").unwrap();
        db.update("R", 5, "v", &Value::Int64(77)).unwrap();
        pre = db.run(&probe, EngineKind::Compiled).unwrap();
    }
    let db = open_durable(&dir);
    let post = db.run(&probe, EngineKind::Compiled).unwrap();
    pre.assert_same(&post, "row 5 after recovery");
    assert_eq!(post.rows, vec![vec![Value::Int64(77)]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One statement is one WAL record. Cut the log at every byte offset
/// inside what a three-column `UPDATE … WHERE` and then a `DELETE …
/// WHERE` wrote: the reopened table holds each statement whole or not at
/// all, and equals an in-memory twin that ran exactly the statements
/// whose record survived.
#[test]
fn a_crash_keeps_or_loses_each_predicate_statement_whole() {
    let dir = tmpdir("stmt-atomic");
    let mut base = Table::new(
        "R",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::new("a", DataType::Int64),
            ColumnDef::new("b", DataType::Int64),
            ColumnDef::new("s", DataType::Str),
        ]),
    );
    for i in 0..12 {
        base.insert(&[
            Value::Int32(i),
            Value::Int64(i as i64),
            Value::Int64(-(i as i64)),
            Value::Str(format!("r{i}")),
        ])
        .unwrap();
    }
    let n = 5;
    let sets = [
        ("a".to_string(), Value::Int64(100)),
        ("b".to_string(), Value::Int64(200)),
        ("s".to_string(), Value::from("upd")),
    ];
    let updated = Expr::col(0).lt(Expr::lit(5));
    let deleted = Expr::col(0).ge(Expr::lit(7));
    let statement = |db: &Database, i: usize| {
        let hit = match i {
            0 => db.update_where("R", &sets, Some(&updated)),
            _ => db.delete_where("R", Some(&deleted)),
        };
        assert_eq!(hit.unwrap(), n, "statement {i}");
    };
    let count = |db: &Database, pred: Expr| {
        let plan = QueryBuilder::scan("R")
            .filter(pred)
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        match db.run(&plan, EngineKind::Compiled).unwrap().rows[0][0] {
            Value::Int64(c) => c as usize,
            ref v => panic!("count returned {v:?}"),
        }
    };

    let wal = dir.join("R").join("wal.0.log");
    let mut ends = Vec::new();
    {
        let db = open_durable(&dir);
        db.register(base.clone());
        for i in 0..2 {
            statement(&db, i);
            ends.push(std::fs::metadata(&wal).unwrap().len());
        }
    }
    let full = std::fs::read(&wal).unwrap();
    assert_eq!(ends[1], full.len() as u64);
    for cut in 0..=full.len() {
        std::fs::write(&wal, &full[..cut]).unwrap();
        let recovered = open_durable(&dir);
        let survived = ends.iter().filter(|&&end| end <= cut as u64).count();
        let twin = memory_db();
        twin.register(base.clone());
        for i in 0..survived {
            statement(&twin, i);
        }
        let ctx = format!("cut at byte {cut} of {}", full.len());
        let rewritten = count(&recovered, Expr::col(1).eq(Expr::lit(100i64)));
        assert!(
            rewritten == 0 || rewritten == n,
            "{ctx}: {rewritten} rows updated"
        );
        let doomed = count(&recovered, Expr::col(0).ge(Expr::lit(7)));
        assert!(doomed == 0 || doomed == n, "{ctx}: {doomed} rows left");
        let scan = QueryBuilder::scan("R").build();
        for kind in EngineKind::all() {
            let a = recovered.run(&scan, kind).unwrap();
            a.assert_same(&twin.run(&scan, kind).unwrap(), &format!("{ctx}, {kind:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A whole, checksum-valid WAL record the decoder cannot parse — here the
/// earlier format's per-cell update (tag 2) — is not a torn tail: the
/// open fails, naming it, and leaves the file as it was.
#[test]
fn an_undecodable_wal_record_fails_the_open_and_keeps_the_file() {
    let dir = tmpdir("undecodable");
    {
        let db = open_durable(&dir);
        db.create_table("R", Schema::new(vec![ColumnDef::new("a", DataType::Int32)]))
            .unwrap();
        db.insert("R", &[Value::Int32(1)]).unwrap();
    }
    let wal = dir.join("R").join("wal.0.log");
    // Tag 2, row 0, column 0, value Int32(7).
    let payload = [
        &[2u8][..],
        &0u64.to_le_bytes(),
        &0u32.to_le_bytes(),
        &[1],
        &7i32.to_le_bytes(),
    ]
    .concat();
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&mrdb::store::crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&wal, &bytes).unwrap();
    let err = match Database::open_with(
        DurabilityConfig::new(&dir).with_fsync(FsyncMode::Off),
        MaintenanceConfig::default(),
    ) {
        Ok(_) => panic!("an undecodable record was accepted"),
        Err(e) => e,
    };
    match err {
        mrdb::core::DbError::Storage(mrdb::storage::Error::Io(msg)) => {
            assert!(msg.starts_with("unsupported WAL record"), "{msg}")
        }
        e => panic!("unexpected error {e}"),
    }
    assert_eq!(std::fs::read(&wal).unwrap(), bytes, "the WAL was rewritten");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The I/O edges of a blob write, injected through the blob-fault seam:
/// with every write-back hint refused the blob is still written whole and
/// loads; a write or `sync_data` that fails partway through the blob fails
/// `try_register` and leaves no temp blob, no committed blob and no
/// manifest entry behind.
#[test]
fn a_failed_blob_write_leaves_nothing_and_a_refused_hint_changes_nothing() {
    use mrdb::store::{arm_blob_fault, BlobFault, Manifest};
    let dir = tmpdir("blob-faults");
    // Four 8-byte columns × 80 000 rows: a blob of several 1 MiB pieces.
    let table = |name: &str| {
        let cols = ["a", "b", "c", "d"].map(|c| ColumnDef::new(c, DataType::Int64));
        let mut t = Table::new(name, Schema::new(cols.to_vec()));
        for i in 0..80_000i64 {
            t.insert(&[i, -i, i * 3, 7].map(Value::Int64)).unwrap();
        }
        t
    };
    let blob_len = mrdb::storage::persist::to_bytes_extents(&table("x"), 0, 65_536).len() as u64;
    assert!(blob_len > 2 << 20, "{blob_len} bytes: too few pieces");
    let count = |db: &Database, name: &str| {
        let q = QueryBuilder::scan(name)
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        db.run(&q, EngineKind::Compiled)
            .map(|out| out.rows[0][0].clone())
    };
    {
        let db = open_durable(&dir);
        arm_blob_fault(BlobFault::RefuseHints);
        db.try_register(table("HINTLESS")).unwrap();
        for (name, fault) in [
            ("TORN", BlobFault::WriteAt(blob_len / 2)),
            ("UNSYNCED", BlobFault::Sync),
        ] {
            arm_blob_fault(fault);
            assert!(db.try_register(table(name)).is_err(), "{fault:?} passed");
            let tdir = dir.join(name);
            for file in ["main.0.tbl.tmp", "main.0.tbl"] {
                assert!(!tdir.join(file).exists(), "{fault:?} left {file}");
            }
            let manifest = Manifest::open(dir.join("MANIFEST")).unwrap();
            assert_eq!(manifest.get(name), None, "{fault:?} reached the manifest");
        }
    }
    let db = open_durable(&dir);
    assert_eq!(count(&db, "HINTLESS").unwrap(), Value::Int64(80_000));
    assert!(count(&db, "TORN").is_err() && count(&db, "UNSYNCED").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
