//! Properties of the shared partial-aggregate state
//! (`pdsm_exec::pipeline::AggState`) that the compiled and parallel
//! drivers, on resident and cold mains alike, rest on:
//!
//! * folding `0..n` in one go ≡ folding the pieces of any cut of `0..n`
//!   into separate states and merging them in order — for counts, integer
//!   sums and min/max (ties, NULLs, tombstones included), under every
//!   representation (Fig. 2c sums, typed scalars, raw-`u64`-keyed groups,
//!   `GroupKey`-keyed groups);
//! * folding `0..n` in one go ≡ carrying **one** state across the pieces,
//!   bit for bit, for float sums and `avg` as well — which is what lets
//!   cold extents stream them;
//! * folding `0..n` in one go ≡ collecting each piece's rows in order and
//!   folding them into **one** carried keyed state — the parallel
//!   driver's ordered collect for float-sensitive aggregates.

use mrdb::exec::pipeline::{AggState, PipeSpec, Scan};
use mrdb::exec::Overlay;
use mrdb::prelude::*;
use mrdb::storage::Row;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::nullable("v", DataType::Int64),
        ColumnDef::nullable("f", DataType::Float64),
        ColumnDef::new("w", DataType::Int32),
    ])
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Few distinct values everywhere, so min/max tie constantly and every
/// group is hit from many pieces.
fn row(x: &mut u64) -> Vec<Value> {
    vec![
        Value::Int32((xorshift(x) % 7) as i32 - 3),
        Value::Str(format!("s{}", xorshift(x) % 4)),
        if xorshift(x).is_multiple_of(5) {
            Value::Null
        } else {
            Value::Int64((xorshift(x) % 9) as i64 - 4)
        },
        if xorshift(x).is_multiple_of(4) {
            Value::Null
        } else {
            Value::Float64((xorshift(x) % 1000) as f64 / 7.0)
        },
        Value::Int32((xorshift(x) % 100) as i32),
    ]
}

/// One aggregate shape per state representation.
struct Shape {
    name: &'static str,
    preds: Vec<Expr>,
    group_by: Vec<Expr>,
    aggs: Vec<AggExpr>,
    /// False for the float shapes: merging their partials reassociates
    /// float addition, so they are checked under the carried state only.
    merge_exact: bool,
}

fn shapes() -> Vec<Shape> {
    let exact = vec![
        AggExpr::count_star(),
        AggExpr::new(AggFunc::Count, Expr::col(2)),
        AggExpr::new(AggFunc::Sum, Expr::col(2)),
        AggExpr::new(AggFunc::Min, Expr::col(2)),
        AggExpr::new(AggFunc::Max, Expr::col(0)),
    ];
    let floats = vec![
        AggExpr::new(AggFunc::Sum, Expr::col(3)),
        AggExpr::new(AggFunc::Avg, Expr::col(3)),
        AggExpr::new(AggFunc::Avg, Expr::col(2)),
        AggExpr::new(AggFunc::Min, Expr::col(3)),
    ];
    let pred = vec![Expr::col(0).ge(Expr::lit(-1))];
    let shape = |name, preds: &[Expr], group_by: Vec<Expr>, aggs: &[AggExpr], merge_exact| Shape {
        name,
        preds: preds.to_vec(),
        group_by,
        aggs: aggs.to_vec(),
        merge_exact,
    };
    let (k, s) = (Expr::col(0), Expr::col(1));
    vec![
        shape(
            "fig2c",
            &pred,
            vec![],
            &[AggExpr::new(AggFunc::Sum, Expr::col(4))],
            true,
        ),
        shape("scalar", &pred, vec![], &exact, true),
        shape("raw int key", &[], vec![k.clone()], &exact, true),
        shape("raw str key", &pred, vec![s.clone()], &exact, true),
        shape(
            "generic keys",
            &pred,
            vec![s.clone(), k.clone()],
            &exact,
            true,
        ),
        shape(
            "generic scalar",
            &pred,
            vec![],
            &[AggExpr::new(AggFunc::Sum, Expr::col(4).add(Expr::col(0)))],
            true,
        ),
        shape("float scalar", &pred, vec![], &floats, false),
        shape("float raw key", &[], vec![s.clone()], &floats, false),
        shape("float generic keys", &pred, vec![k, s], &floats, false),
    ]
}

/// Group order is hash order; everything else must match exactly — floats
/// by bit pattern (`{:?}` prints the shortest round-tripping decimal).
fn canon(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    rows.sort_by_key(|r| format!("{r:?}"));
    rows.into_iter().map(|r| format!("{r:?}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn one_fold_equals_merged_pieces_equals_carried_state(
        n in 0usize..5000,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..5000, 0..6),
        del_mod in prop_oneof![Just(0u64), Just(3), Just(17)],
        n_tail in 0usize..12,
        column_layout in any::<bool>(),
    ) {
        let layout = if column_layout { Layout::column(5) } else { Layout::row(5) };
        let mut t = Table::with_layout("t", schema(), layout).unwrap();
        let mut x = seed | 1;
        for _ in 0..n {
            t.insert(&row(&mut x)).unwrap();
        }
        let dead: Vec<bool> = if del_mod == 0 {
            Vec::new()
        } else {
            (0..n).map(|_| xorshift(&mut x).is_multiple_of(del_mod)).collect()
        };
        // Tail strings include one the main dictionary never interned.
        let tail: Vec<Row> = (0..n_tail)
            .map(|i| {
                let mut r = row(&mut x);
                if i % 3 == 0 {
                    r[1] = Value::Str("novel".into());
                }
                Row(r)
            })
            .collect();
        let overlay = Overlay { dead: &dead, tail: &tail, tail_alive: &[] };

        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();

        for Shape { name, preds, group_by, aggs, merge_exact } in shapes() {
            let spec = PipeSpec { preds: &preds, steps: &[], needed: &[0, 1, 2, 3, 4] };
            let scan = Scan::new(&t, spec);
            let fresh = || AggState::new(&t, spec, &group_by, &aggs);

            let mut whole = fresh();
            whole.fold_range(&scan, &dead, 0..n);
            whole.fold_tail(&overlay);
            let whole = canon(whole.finish());

            let mut carried = fresh();
            for w in bounds.windows(2) {
                carried.fold_range(&scan, &dead, w[0]..w[1]);
            }
            carried.fold_tail(&overlay);
            prop_assert_eq!(&whole, &canon(carried.finish()), "{}: carried state", name);

            let mut ordered = AggState::keyed(spec, &group_by, &aggs);
            for w in bounds.windows(2) {
                let mut rows = Vec::new();
                scan.collect_range(&dead, w[0]..w[1], &mut rows);
                ordered.fold_rows(rows);
            }
            ordered.fold_tail(&overlay);
            prop_assert_eq!(&whole, &canon(ordered.finish()), "{}: ordered fold", name);

            if merge_exact {
                let mut merged = fresh();
                for w in bounds.windows(2) {
                    let mut piece = fresh();
                    piece.fold_range(&scan, &dead, w[0]..w[1]);
                    merged.merge(piece);
                }
                merged.fold_tail(&overlay);
                prop_assert_eq!(&whole, &canon(merged.finish()), "{}: merged pieces", name);
            }
        }
    }
}

/// The state must agree with the engines it replaced the loops of: the
/// Volcano oracle, over the same rows, tombstones and tail.
#[test]
fn state_agrees_with_the_volcano_oracle() {
    let db = Database::new();
    let mut t = Table::new("t", schema());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..3000 {
        t.insert(&row(&mut x)).unwrap();
    }
    db.register(t);
    for r in (0..3000).step_by(11) {
        db.delete("t", r).unwrap();
    }
    for _ in 0..20 {
        db.insert("t", &row(&mut x)).unwrap();
    }
    let snap = db.snapshot();
    for Shape {
        name,
        preds,
        group_by,
        aggs,
        ..
    } in shapes()
    {
        let mut q = QueryBuilder::scan("t");
        for p in preds {
            q = q.filter(p);
        }
        let plan = q.aggregate(group_by, aggs).build();
        let compiled = CompiledEngine.execute(&plan, &snap).unwrap();
        let volcano = VolcanoEngine.execute(&plan, &snap).unwrap();
        compiled.assert_same(&volcano, name);
    }
}
