//! Differential check: every benchmark query, rendered to SQL text and
//! compiled back, must produce the *same plan* and the *same results* as
//! the programmatic `LogicalPlan` — across engines and layouts.
//!
//! This is the contract that makes the SQL frontend trustworthy: the text
//! path is a veneer over the plan path, never a second query engine.

use mrdb::prelude::*;
use mrdb::sql::{compile, plan_to_sql, strip_hints, Statement};
use mrdb::workloads::{microbench, sapsd, QueryKind};
use pdsm_plan::sql_literal;

fn load_sapsd(scale: usize) -> (Database, Vec<mrdb::workloads::BenchQuery>) {
    let db = Database::new();
    for t in sapsd::tables(scale, 42) {
        db.register(t);
    }
    (db, sapsd::queries(scale))
}

/// Render → compile must reproduce each SAP-SD plan structurally
/// (modulo selectivity hints, which SQL text cannot carry).
#[test]
fn sapsd_plans_survive_sql_round_trip() {
    let (db, queries) = load_sapsd(200);
    let mut rendered = 0;
    for q in &queries {
        let Some(plan) = q.as_plan() else { continue };
        let sql =
            plan_to_sql(plan, &db).unwrap_or_else(|e| panic!("{} must render as SQL: {e}", q.name));
        match compile(&sql, &db) {
            Ok(Statement::Query(bound)) => {
                assert_eq!(
                    bound,
                    strip_hints(plan),
                    "{}: SQL text {sql:?} bound to a different plan",
                    q.name
                );
            }
            other => panic!("{}: {sql:?} did not compile to a query: {other:?}", q.name),
        }
        rendered += 1;
    }
    assert_eq!(rendered, 11, "all read queries must round-trip");
}

/// The SQL path must return byte-identical results to the programmatic
/// path on every engine that supports the plan, row and column layouts
/// alike.
#[test]
fn sapsd_sql_results_match_programmatic_across_engines_and_layouts() {
    for columnar in [false, true] {
        let (db, queries) = load_sapsd(200);
        if columnar {
            for name in db.table_names() {
                let w = db.get_table(&name).unwrap().schema().len();
                db.relayout(&name, Layout::column(w)).unwrap();
            }
        }
        for q in &queries {
            let Some(plan) = q.as_plan() else { continue };
            let sql = plan_to_sql(plan, &db).unwrap();
            let Ok(Statement::Query(bound)) = compile(&sql, &db) else {
                panic!("{}: {sql:?} did not compile", q.name);
            };
            let reference = db.execute(plan).unwrap();
            for kind in EngineKind::all() {
                let via_sql = db.run(&bound, kind).unwrap();
                reference.assert_same(
                    &via_sql,
                    &format!("{} via SQL on {kind} columnar={columnar}", q.name),
                );
            }
        }
    }
}

/// Q6 (the INSERT workload) as SQL text: rendering the same synthetic rows
/// through `INSERT INTO ... VALUES` must leave the table byte-identical to
/// the programmatic `insert_batch` on a twin database.
#[test]
fn sapsd_insert_as_sql_matches_programmatic_batch() {
    let (db_sql, queries) = load_sapsd(200);
    let (db_prog, _) = load_sapsd(200);
    let q6 = &queries[5];
    let QueryKind::Insert { table, count } = &q6.kind else {
        panic!("Q6 must be the insert query");
    };
    // Same synthetic rows on both sides (cap the batch: literal SQL for
    // 1000 rows is pointlessly slow to shuttle through the parser).
    let n = (*count).min(200);
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(99);
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|k| sapsd::vbap_row(&mut rng, 2_000_000 + k as i32, 10))
        .collect();

    let values = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(sql_literal).collect();
            format!("({})", cells.join(", "))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let sql = format!("INSERT INTO {table} VALUES {values}");
    match compile(&sql, &db_sql).unwrap() {
        Statement::Insert { table: t, rows: r } => {
            assert_eq!(&t, table);
            assert_eq!(r, rows, "literal rendering must round-trip every value");
            db_sql.insert_batch(&t, &r).unwrap();
        }
        other => panic!("INSERT bound to {other:?}"),
    }
    db_prog.insert_batch(table, &rows).unwrap();

    let full = QueryBuilder::scan(table.as_str()).build();
    let a = db_sql.execute(&full).unwrap();
    let b = db_prog.execute(&full).unwrap();
    a.assert_same(&b, "VBAP contents after SQL vs programmatic insert");
}

/// The microbenchmark query family round-trips at every selectivity.
#[test]
fn microbench_queries_survive_sql_round_trip() {
    let db = Database::new();
    db.register(microbench::generate(2000, 0.1, Layout::row(16), 7));
    for sel in [0.0, 0.001, 0.1, 0.5, 1.0] {
        let plan = microbench::query(sel);
        let sql = plan_to_sql(&plan, &db).unwrap();
        let Ok(Statement::Query(bound)) = compile(&sql, &db) else {
            panic!("sel={sel}: {sql:?} did not compile");
        };
        assert_eq!(bound, strip_hints(&plan), "sel={sel} via {sql:?}");
        let reference = db.execute(&plan).unwrap();
        for kind in EngineKind::all() {
            let via_sql = db.run(&bound, kind).unwrap();
            reference.assert_same(&via_sql, &format!("microbench sel={sel} on {kind}"));
        }
    }
}
