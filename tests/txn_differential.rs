//! The versioned write path's core correctness contract: with a non-empty
//! delta — including tombstoned rows — every engine in `EngineKind::all()`
//! returns results identical to a merged-then-scanned table, on the
//! microbenchmark and on SAP-SD under the Q6 write mix.

use mrdb::prelude::*;
use mrdb::workloads::mixed::{MixedOp, MixedWorkload};
use mrdb::workloads::{microbench, mixed, sapsd};

mod common;

/// Drive a mixed workload's write ops through the `Database` DML API,
/// resolving row hints the same way `mixed::apply_write` does.
fn apply_ops(db: &Database, w: &MixedWorkload) {
    let table = w.table.as_str();
    let mut live: Vec<usize> = db.with_table(table, mixed::live_ids).unwrap();
    let col_names: Vec<String> = db
        .get_table(table)
        .unwrap()
        .schema()
        .columns()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    for op in &w.ops {
        match op {
            MixedOp::Read { .. } => {}
            MixedOp::Insert { rows } => {
                live.extend(db.insert_batch(table, rows).unwrap());
            }
            MixedOp::Update {
                row_hint,
                col,
                value,
            } => {
                if live.is_empty() {
                    continue;
                }
                let slot = (*row_hint % live.len() as u64) as usize;
                live[slot] = db
                    .update(table, live[slot], &col_names[*col], value)
                    .unwrap();
            }
            MixedOp::Delete { row_hint } => {
                if live.is_empty() {
                    continue;
                }
                let slot = (*row_hint % live.len() as u64) as usize;
                db.delete(table, live[slot]).unwrap();
                live.swap_remove(slot);
            }
        }
    }
}

/// The delta must be non-trivial for the comparison to mean anything:
/// appended rows *and* tombstones.
fn assert_delta_nontrivial(db: &Database, table: &str) {
    let (has_delta, delta_rows, dead_main) = db
        .with_table(table, |vt| {
            (
                vt.has_delta(),
                vt.delta_rows(),
                vt.overlay().is_some_and(|o| o.dead.iter().any(|d| *d)),
            )
        })
        .unwrap();
    assert!(has_delta, "{table}: delta empty");
    assert!(delta_rows > 0, "{table}: no appended rows");
    assert!(dead_main, "{table}: no tombstoned main rows");
}

#[test]
fn microbench_delta_matches_merged_on_all_engines_and_layouts() {
    for (lname, layout) in microbench::layouts() {
        let build = || {
            let db = Database::new();
            db.register(microbench::generate(4_000, 0.05, layout.clone(), 21));
            // write-heavy mix → inserts, updates and deletes, no merges
            apply_ops(&db, &mixed::microbench_mix(400, 0.0, 0.05, 33));
            db
        };
        let live = build();
        assert_delta_nontrivial(&live, "R");
        let merged = build();
        merged.merge_all().unwrap();
        assert!(!merged.with_table("R", |vt| vt.has_delta()).unwrap());

        for sel in [0.0, 0.05, 1.0] {
            let plan = microbench::query(sel);
            for kind in EngineKind::all() {
                let a = live.run(&plan, kind).unwrap();
                let b = merged.run(&plan, kind).unwrap();
                a.assert_same(&b, &format!("{lname}/sel={sel}/{kind:?} delta vs merged"));
            }
        }
        // bare scans must agree row-for-row in order, not just as sets
        let scan = QueryBuilder::scan("R").build();
        for kind in EngineKind::all() {
            let a = live.run(&scan, kind).unwrap();
            let b = merged.run(&scan, kind).unwrap();
            assert_eq!(
                a.rows, b.rows,
                "{lname}/{kind:?}: delta scan order differs from merged scan order"
            );
        }
    }
}

#[test]
fn sapsd_q6_mix_delta_matches_merged_on_all_queries() {
    let build = || {
        let db = Database::new();
        for t in sapsd::tables(150, 7) {
            db.register(t);
        }
        // Q6-style mix on VBAP: inserts + NETWR updates + deletes
        apply_ops(&db, &mixed::sapsd_q6_mix(150, 300, 0.0, 17));
        db
    };
    let live = build();
    assert_delta_nontrivial(&live, "VBAP");
    let merged = build();
    merged.merge_all().unwrap();

    // every SAP-SD read query — including the VBAK ⋈ VBAP join (Q4) whose
    // probe side carries the delta — on every engine
    for q in sapsd::queries(150) {
        let Some(plan) = q.as_plan() else { continue };
        for kind in EngineKind::all() {
            let a = live.run(plan, kind).unwrap();
            let b = merged.run(plan, kind).unwrap();
            a.assert_same(&b, &format!("{}/{kind:?} delta vs merged", q.name));
        }
    }
}

#[test]
fn engines_agree_with_each_other_on_live_delta() {
    let db = Database::new();
    for t in sapsd::tables(120, 7) {
        db.register(t);
    }
    apply_ops(&db, &mixed::sapsd_q6_mix(120, 200, 0.0, 29));
    assert_delta_nontrivial(&db, "VBAP");
    // Engines consume a TableProvider; under the shared-handle API that
    // is a pinned snapshot, not the database itself.
    let snap = db.snapshot();
    for q in sapsd::queries(120) {
        let Some(plan) = q.as_plan() else { continue };
        common::assert_engines_agree(plan, &snap, &q.name);
    }
}

#[test]
fn snapshots_isolate_from_later_dml_and_merge() {
    let db = Database::new();
    db.register(microbench::generate(
        2_000,
        0.05,
        microbench::pdsm_layout(),
        5,
    ));
    apply_ops(&db, &mixed::microbench_mix(100, 0.0, 0.05, 41));
    let plan = microbench::query(0.05);
    let snap = db.snapshot();
    let before = snap.run(&plan, EngineKind::Compiled).unwrap();

    // churn the table and merge; the snapshot must not move
    apply_ops(&db, &mixed::microbench_mix(200, 0.0, 0.05, 43));
    db.merge("R").unwrap();
    let after_on_snap = snap.run(&plan, EngineKind::Compiled).unwrap();
    assert_eq!(before.rows, after_on_snap.rows, "snapshot moved");
    for kind in EngineKind::all() {
        let out = snap.run(&plan, kind).unwrap();
        before.assert_same(&out, &format!("snapshot/{kind:?}"));
    }
}

#[test]
fn advisor_apply_merges_delta_and_preserves_results() {
    let db = Database::new();
    db.register(microbench::generate(3_000, 0.05, Layout::row(16), 3));
    apply_ops(&db, &mixed::microbench_mix(150, 0.0, 0.05, 11));
    assert!(db.with_table("R", |vt| vt.has_delta()).unwrap());

    let plan = microbench::query(0.05);
    let before = db.run(&plan, EngineKind::Compiled).unwrap();
    let mut workload = Workload::new();
    workload.push(WorkloadQuery::new("fig2", plan.clone()));
    LayoutAdvisor::default().apply(&db, &workload).unwrap();

    // relayout-as-merge folded the delta in
    assert!(!db.with_table("R", |vt| vt.has_delta()).unwrap());
    let after = db.run(&plan, EngineKind::Compiled).unwrap();
    before.assert_same(&after, "advised merge");
}
