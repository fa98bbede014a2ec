//! Edge cases that unit tests in the crates don't reach: degenerate
//! schemas, extreme values, pathological plans, and layout corner cases.

use mrdb::prelude::*;
use std::collections::HashMap;

mod common;

fn single_col_db(values: &[i64]) -> HashMap<String, Table> {
    let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("x", DataType::Int64)]));
    for &v in values {
        t.insert(&[Value::Int64(v)]).unwrap();
    }
    let mut m = HashMap::new();
    m.insert("t".to_string(), t);
    m
}

fn run_all(plan: &LogicalPlan, db: &HashMap<String, Table>, ctx: &str) -> QueryOutput {
    common::assert_engines_agree(plan, db, ctx)
}

#[test]
fn extreme_integer_values() {
    let db = single_col_db(&[i64::MAX, i64::MIN + 1, 0, -1, 1]);
    let plan = QueryBuilder::scan("t")
        .filter(Expr::col(0).gt(Expr::lit(0i64)))
        .aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Min, Expr::col(0)),
                AggExpr::new(AggFunc::Max, Expr::col(0)),
                AggExpr::count_star(),
            ],
        )
        .build();
    let out = run_all(&plan, &db, "extremes");
    assert_eq!(out.rows[0][1], Value::Int64(i64::MAX));
    assert_eq!(out.rows[0][2], Value::Int64(2));
}

#[test]
fn i32_predicate_against_out_of_range_literal() {
    // comparing an Int32 column against an i64 literal beyond i32 range
    // must not wrap
    let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("x", DataType::Int32)]));
    t.insert(&[Value::Int32(i32::MAX)]).unwrap();
    t.insert(&[Value::Int32(i32::MIN)]).unwrap();
    let mut db = HashMap::new();
    db.insert("t".to_string(), t);
    let plan = QueryBuilder::scan("t")
        .filter(Expr::col(0).lt(Expr::lit(i64::MAX)))
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = run_all(&plan, &db, "range");
    assert_eq!(out.rows[0][0], Value::Int64(2));
}

#[test]
fn all_null_column_aggregates() {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::nullable("v", DataType::Float64),
        ]),
    );
    for i in 0..10 {
        t.insert(&[Value::Int32(i % 2), Value::Null]).unwrap();
    }
    let mut db = HashMap::new();
    db.insert("t".to_string(), t);
    let plan = QueryBuilder::scan("t")
        .aggregate(
            vec![Expr::col(0)],
            vec![
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
                AggExpr::new(AggFunc::Avg, Expr::col(1)),
                AggExpr::new(AggFunc::Count, Expr::col(1)),
                AggExpr::count_star(),
            ],
        )
        .build();
    let out = run_all(&plan, &db, "all-null");
    for row in &out.rows {
        assert_eq!(row[1], Value::Null, "sum of nulls");
        assert_eq!(row[2], Value::Null, "avg of nulls");
        assert_eq!(row[3], Value::Int64(0), "count(col) of nulls");
        assert_eq!(row[4], Value::Int64(5), "count(*)");
    }
}

#[test]
fn join_with_null_keys_drops_rows() {
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::nullable("k", DataType::Int32),
            ColumnDef::new("v", DataType::Int32),
        ]),
    );
    t.insert(&[Value::Int32(1), Value::Int32(10)]).unwrap();
    t.insert(&[Value::Null, Value::Int32(20)]).unwrap();
    t.insert(&[Value::Int32(1), Value::Int32(30)]).unwrap();
    let mut db = HashMap::new();
    db.insert("t".to_string(), t);
    let plan = QueryBuilder::scan("t")
        .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    // rows with NULL keys join nothing: 2 build x 2 probe = 4
    let out = run_all(&plan, &db, "null-join");
    assert_eq!(out.rows[0][0], Value::Int64(4));
}

#[test]
fn single_row_single_column_layouts() {
    let db = single_col_db(&[7]);
    let t = db["t"].clone();
    assert_eq!(t.layout().kind(), mrdb::storage::LayoutKind::Row);
    let plan = QueryBuilder::scan("t").build();
    let out = run_all(&plan, &db, "1x1");
    assert_eq!(out.rows, vec![vec![Value::Int64(7)]]);
}

#[test]
fn limit_zero_and_oversized() {
    let db = single_col_db(&[1, 2, 3]);
    let zero = QueryBuilder::scan("t").limit(0).build();
    assert!(run_all(&zero, &db, "limit0").is_empty());
    let big = QueryBuilder::scan("t").limit(1_000_000).build();
    assert_eq!(run_all(&big, &db, "limitBig").len(), 3);
}

#[test]
fn deeply_nested_predicate() {
    let db = single_col_db(&(0..100).collect::<Vec<i64>>());
    // ((x<10 or x>90) and not(x=5)) or x=50
    let pred = Expr::col(0)
        .lt(Expr::lit(10i64))
        .or(Expr::col(0).gt(Expr::lit(90i64)))
        .and(Expr::col(0).eq(Expr::lit(5i64)).not())
        .or(Expr::col(0).eq(Expr::lit(50i64)));
    let plan = QueryBuilder::scan("t")
        .filter(pred)
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = run_all(&plan, &db, "nested");
    // 0..10 minus {5} = 9, 91..100 = 9, plus {50} = 19
    assert_eq!(out.rows[0][0], Value::Int64(19));
}

#[test]
fn empty_string_and_unicode_dictionary_entries() {
    let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("s", DataType::Str)]));
    for s in ["", "ü-umlaut", "数据库", "", "plain"] {
        t.insert(&[Value::Str(s.into())]).unwrap();
    }
    let mut db = HashMap::new();
    db.insert("t".to_string(), t);
    let eq_empty = QueryBuilder::scan("t")
        .filter(Expr::col(0).eq(Expr::lit("")))
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = run_all(&eq_empty, &db, "empty-str");
    assert_eq!(out.rows[0][0], Value::Int64(2));
    let like_cjk = QueryBuilder::scan("t")
        .filter(Expr::col(0).like("数%"))
        .aggregate(vec![], vec![AggExpr::count_star()])
        .build();
    let out = run_all(&like_cjk, &db, "cjk-like");
    assert_eq!(out.rows[0][0], Value::Int64(1));
}

#[test]
fn storage_dml_errors_never_panic() {
    use mrdb::storage::Error;
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::new("i", DataType::Int32),
            ColumnDef::new("s", DataType::Str),
            ColumnDef::nullable("f", DataType::Float64),
        ]),
    );
    t.insert(&[Value::Int32(1), Value::Str("a".into()), Value::Null])
        .unwrap();

    // wrong arity, both directions
    assert!(matches!(
        t.insert(&[Value::Int32(1)]),
        Err(Error::ArityMismatch {
            expected: 3,
            got: 1
        })
    ));
    assert!(matches!(
        t.insert(&vec![Value::Int32(1); 5]),
        Err(Error::ArityMismatch {
            expected: 3,
            got: 5
        })
    ));
    // wrong type / NULL into non-nullable
    assert!(matches!(
        t.insert(&[Value::Str("x".into()), Value::Str("a".into()), Value::Null]),
        Err(Error::TypeMismatch { .. })
    ));
    assert!(matches!(
        t.insert(&[Value::Int32(1), Value::Null, Value::Null]),
        Err(Error::NullViolation(_))
    ));
    // update: row and column out of range, wrong type
    assert!(matches!(
        t.update(99, 0, &Value::Int32(0)),
        Err(Error::RowOutOfRange { row: 99, len: 1 })
    ));
    assert!(matches!(
        t.update(0, 42, &Value::Int32(0)),
        Err(Error::UnknownColumn(42))
    ));
    assert!(matches!(
        t.update(0, 0, &Value::Float64(1.0)),
        Err(Error::TypeMismatch { .. })
    ));
    // get: row and column out of range
    assert!(matches!(
        t.get(99, 0),
        Err(Error::RowOutOfRange { row: 99, len: 1 })
    ));
    assert!(matches!(t.get(0, 42), Err(Error::UnknownColumn(42))));
    // none of the failures changed the table
    assert_eq!(t.len(), 1);
    assert_eq!(
        t.row(0).unwrap().0,
        vec![Value::Int32(1), Value::Str("a".into()), Value::Null]
    );
}

#[test]
fn storage_insert_batch_is_all_or_nothing() {
    use mrdb::storage::Error;
    let mut t = Table::new(
        "t",
        Schema::new(vec![
            ColumnDef::new("i", DataType::Int32),
            ColumnDef::new("s", DataType::Str),
        ]),
    );
    let bad_middle = vec![
        vec![Value::Int32(1), Value::Str("a".into())],
        vec![Value::Int32(2), Value::Int32(2)], // type error
        vec![Value::Int32(3), Value::Str("c".into())],
    ];
    assert!(matches!(
        t.insert_batch(&bad_middle),
        Err(Error::TypeMismatch { .. })
    ));
    assert_eq!(t.len(), 0, "failed batch must insert nothing");
    for p in t.partitions() {
        assert_eq!(p.len(), 0, "partitions must stay consistent");
    }
    t.insert_batch(&[
        vec![Value::Int32(1), Value::Str("a".into())],
        vec![Value::Int32(2), Value::Str("b".into())],
    ])
    .unwrap();
    assert_eq!(t.len(), 2);
}

#[test]
fn versioned_dml_errors_and_tombstone_addressing() {
    use mrdb::core::DbError;
    use mrdb::storage::Error;
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::new("i", DataType::Int32),
            ColumnDef::new("s", DataType::Str),
        ]),
    )
    .unwrap();
    let a = db
        .insert("t", &[Value::Int32(1), Value::from("x")])
        .unwrap();
    assert!(matches!(
        db.insert("t", &[Value::Int32(1)]),
        Err(DbError::Storage(Error::ArityMismatch { .. }))
    ));
    assert!(db.update("t", a, "nope", &Value::Int32(2)).is_err());
    db.delete("t", a).unwrap();
    assert!(matches!(
        db.delete("t", a),
        Err(DbError::Storage(Error::RowDeleted { .. }))
    ));
    assert!(matches!(
        db.update("t", a, "i", &Value::Int32(2)),
        Err(DbError::Storage(Error::RowDeleted { .. }))
    ));
    assert!(matches!(
        db.delete("t", 999),
        Err(DbError::Storage(Error::RowOutOfRange { .. }))
    ));
    // after merge the id space is compacted; old ids are out of range
    db.merge("t").unwrap();
    assert!(db.with_table("t", |vt| vt.is_empty()).unwrap());
}

#[test]
fn sixty_four_column_table_round_trips() {
    let cols: Vec<ColumnDef> = (0..64)
        .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int32))
        .collect();
    let mut t = Table::new("wide", Schema::new(cols));
    for r in 0..50 {
        let row: Vec<Value> = (0..64).map(|c| Value::Int32(r * 64 + c)).collect();
        t.insert(&row).unwrap();
    }
    // pairs layout: 32 groups of 2
    let groups: Vec<Vec<usize>> = (0..32).map(|g| vec![2 * g, 2 * g + 1]).collect();
    let paired = t
        .relayout(Layout::from_groups(groups, 64).unwrap())
        .unwrap();
    for r in 0..50 {
        assert_eq!(t.row(r).unwrap(), paired.row(r).unwrap());
    }
}
