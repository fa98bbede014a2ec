//! String fields as wide as their dictionary: a `Str` field's stored code
//! is 1, 2 or 4 bytes and widens as its dictionary crosses 256 and 65 536
//! strings. Tables whose dictionaries cross a width — under row, column
//! and random PDSM layouts, with NULLs and empty strings — read back like
//! a `Vec<Value>` model, round-trip through a checkpoint blob (mapped,
//! from bytes, and every extent faulted cold), and answer the same on
//! every engine.
//!
//! `PDSM_EXTENT_ROWS` sets the blob's extent size, so a small value
//! (1024) faults many extents per table.

use mrdb::prelude::*;
use mrdb::storage::partition::code_width;
use mrdb::storage::persist;
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs::File;

/// Cases per property, fixed so a run says how much it checked.
const CASES: u32 = 12;

const NCOLS: usize = 6;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::new("wide", DataType::Str),
        ColumnDef::nullable("note", DataType::Str),
        ColumnDef::nullable("x", DataType::Float64),
        ColumnDef::new("tag", DataType::Str),
        ColumnDef::nullable("big", DataType::Int64),
    ])
}

/// Row, column, or a random grouping of the columns.
fn arb_layout() -> impl Strategy<Value = Layout> {
    proptest::collection::vec(0usize..NCOLS + 2, NCOLS).prop_map(|assignment| match assignment[0] {
        NCOLS => Layout::row(NCOLS),
        g if g == NCOLS + 1 => Layout::column(NCOLS),
        _ => {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); NCOLS + 2];
            for (col, &g) in assignment.iter().enumerate() {
                groups[g].push(col);
            }
            groups.retain(|g| !g.is_empty());
            Layout::from_groups(groups, NCOLS).expect("a cover")
        }
    })
}

/// 300–700 rows whose `wide` column draws from 2 000 strings (its
/// dictionary crosses 256 at some row), `note` from 300 with NULLs and
/// the empty string, `tag` from 8.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = (
        any::<i32>(),
        0u32..2000,
        proptest::option::of(0u32..300),
        proptest::option::of(-1e3f64..1e3),
        0u8..8,
        proptest::option::of(any::<i64>()),
    )
        .prop_map(|(k, w, n, x, tag, big)| {
            vec![
                Value::Int32(k),
                Value::Str(if w == 0 {
                    String::new()
                } else {
                    format!("w{w}")
                }),
                n.map_or(Value::Null, |n| {
                    Value::Str(if n % 50 == 0 {
                        String::new()
                    } else {
                        format!("n{n}")
                    })
                }),
                x.map_or(Value::Null, Value::Float64),
                Value::Str(format!("t{tag}")),
                big.map_or(Value::Null, Value::Int64),
            ]
        });
    proptest::collection::vec(row, 300..700)
}

fn build(layout: Layout, rows: &[Vec<Value>]) -> Table {
    let mut t = Table::with_layout("W", schema(), layout).unwrap();
    for r in rows {
        t.insert(r).unwrap();
    }
    t
}

/// Every cell of `t` is the model's, every `Str` field as wide as its
/// dictionary needs, and every stride the sum of its field widths.
fn check_against_model(t: &Table, rows: &[Vec<Value>]) {
    assert_eq!(t.len(), rows.len());
    for (i, row) in rows.iter().enumerate() {
        for (c, want) in row.iter().enumerate() {
            assert_eq!(&t.get(i, c).unwrap(), want, "row {i} col {c}");
        }
    }
    for c in [1, 2, 4] {
        assert_eq!(
            t.code_width(c),
            code_width(t.dict(c).unwrap().len()),
            "col {c}"
        );
    }
    for p in t.partitions() {
        let widths: usize = (0..p.cols().len()).map(|s| p.field_width(s)).sum();
        assert_eq!(p.stride(), widths);
        assert_eq!(p.byte_size(), p.stride() * p.len());
    }
}

/// `back` holds `t`'s rows in `t`'s geometry, arena bytes included.
fn check_same_table(t: &Table, back: &Table, what: &str) {
    assert_eq!(back.len(), t.len(), "{what}");
    for (a, b) in t.partitions().iter().zip(back.partitions()) {
        assert_eq!(a.stride(), b.stride(), "{what}");
        assert!(a.raw_bytes() == b.raw_bytes(), "{what}: arena bytes differ");
    }
    for c in 0..NCOLS {
        assert_eq!(t.code_width(c), back.code_width(c), "{what}: col {c}");
    }
    for i in 0..t.len() {
        assert_eq!(t.row(i).unwrap(), back.row(i).unwrap(), "{what}: row {i}");
    }
}

/// The table's blob, reloaded from bytes, mapped from a file, and faulted
/// cold extent by extent, is the table.
fn check_blob_round_trip(t: &Table, tag: &str) {
    let blob = persist::to_bytes_extents(t, 1, persist::extent_rows_from_env());
    let (copied, _) = persist::from_bytes(&blob).unwrap();
    check_same_table(t, &copied, "from_bytes");
    let path = std::env::temp_dir().join(format!("pdsm-code-width-{tag}-{}", std::process::id()));
    std::fs::write(&path, &blob).unwrap();
    let file = File::open(&path).unwrap();
    let (mapped, _) = persist::read_file(&file).unwrap();
    check_same_table(t, &mapped, "mapped");
    let h = persist::read_header(&blob).unwrap();
    for e in 0..h.n_extents() {
        let mini = persist::decode_extent(&h, e, &file).unwrap();
        let (lo, hi) = h.extent_row_range(e);
        assert_eq!(mini.len(), hi - lo);
        for c in 0..NCOLS {
            assert_eq!(mini.code_width(c), t.code_width(c), "extent {e} col {c}");
        }
        for r in 0..mini.len() {
            assert_eq!(mini.row(r).unwrap(), t.row(lo + r).unwrap(), "extent {e}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// Plans that read codes: string equality and LIKE kernels, a group by a
/// string key, a join on one, and a projection of every column.
fn plans() -> Vec<LogicalPlan> {
    vec![
        QueryBuilder::scan("W")
            .filter(
                Expr::col(1)
                    .eq(Expr::lit("w300"))
                    .or(Expr::col(2).eq(Expr::lit(""))),
            )
            .project(vec![Expr::col(0), Expr::col(1), Expr::col(2)])
            .build(),
        QueryBuilder::scan("W")
            .filter(Expr::col(1).like("w2%").and(Expr::col(2).like("n1%")))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build(),
        QueryBuilder::scan("W")
            .aggregate(
                vec![Expr::col(1)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build(),
        QueryBuilder::scan("W")
            .aggregate(vec![Expr::col(2)], vec![AggExpr::count_star()])
            .build(),
        QueryBuilder::scan("W")
            .filter(Expr::col(4).eq(Expr::lit("t3")))
            .join(QueryBuilder::scan("W").build(), Expr::col(1), Expr::col(1))
            .aggregate(vec![Expr::col(4 + NCOLS)], vec![AggExpr::count_star()])
            .build(),
        QueryBuilder::scan("W").build(),
    ]
}

/// Compiled and Parallel agree with Volcano.
fn check_engines(t: &Table) {
    let db: HashMap<String, Table> = [("W".to_string(), t.clone())].into();
    for plan in plans() {
        let oracle = VolcanoEngine.execute(&plan, &db).unwrap();
        let compiled = CompiledEngine.execute(&plan, &db).unwrap();
        oracle.assert_same(&compiled, "compiled vs volcano");
        for threads in [1, 3] {
            let parallel = ParallelEngine::with_threads(threads)
                .execute(&plan, &db)
                .unwrap();
            oracle.assert_same(&parallel, &format!("parallel({threads}) vs volcano"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn tables_across_a_code_width_read_round_trip_and_query_alike(
        rows in arb_rows(),
        layout in arb_layout(),
    ) {
        let t = build(layout, &rows);
        prop_assert_eq!(t.code_width(1), 2, "the wide column crossed 256 strings");
        check_against_model(&t, &rows);
        check_blob_round_trip(&t, "props");
        check_engines(&t);
    }
}

/// The fixed count above, said aloud: `--nocapture` prints it beside the
/// extent size the blobs were cut at.
#[test]
fn the_width_properties_run_a_fixed_case_count() {
    eprintln!(
        "code_width_props: {CASES} cases a property, {} rows an extent",
        persist::extent_rows_from_env()
    );
}

/// A `wide` column of 70 000 distinct strings crosses both widths: one
/// byte, then two, then four. Row and column layouts read back, round
/// trip and query alike, and a relayout keeps the widths.
#[test]
fn a_dictionary_past_65_536_strings_takes_four_byte_codes() {
    let rows: Vec<Vec<Value>> = (0..70_000i32)
        .map(|i| {
            vec![
                Value::Int32(i),
                Value::Str(format!("w{i}")),
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("n{}", i % 700))
                },
                Value::Float64(i as f64 / 4.0),
                Value::Str(format!("t{}", i % 8)),
                Value::Int64(i as i64 * 7),
            ]
        })
        .collect();
    let row = build(Layout::row(NCOLS), &rows[..60_000]);
    assert_eq!(
        (row.code_width(1), row.code_width(2), row.code_width(4)),
        (2, 2, 1)
    );
    let row = {
        let mut t = row;
        for r in &rows[60_000..] {
            t.insert(r).unwrap();
        }
        t
    };
    assert_eq!(row.code_width(1), 4);
    assert_eq!(row.partitions()[0].stride(), 4 + 4 + 2 + 8 + 1 + 8);
    let column = row.relayout(Layout::column(NCOLS)).unwrap();
    for t in [&row, &column] {
        check_against_model(t, &rows);
        check_blob_round_trip(t, "fixed");
    }
    check_engines(&column);
}
