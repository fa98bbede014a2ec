//! Differential testing of the SIMD scan kernels and zone-map pruning.
//!
//! The fused predicate/aggregate kernels (`pdsm_exec::simd`) promise
//! *byte-identical* results to the chunked scalar baseline — across random
//! table sizes (hence chunk-tail lengths and sub-block alignments),
//! tombstone densities, NULL patterns, storage layouts, live delta tails,
//! and every registered engine. Zone-map pruning promises the same: a
//! skipped block must never change a result, only the work done.
//!
//! The `PDSM_SIMD` override and the scan counters are process-global, so
//! every test here serializes on one lock and restores the override on
//! exit (panic-safe via the poison-tolerant guard).

use mrdb::core::set_mode_override;
use mrdb::prelude::*;
use mrdb::workloads::microbench;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

mod common;

static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Hold the process-global SIMD lock; the override is cleared on drop so a
/// failing assertion cannot leak a pinned mode into later tests.
struct SimdGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl SimdGuard {
    fn lock() -> Self {
        SimdGuard(SIMD_LOCK.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

impl Drop for SimdGuard {
    fn drop(&mut self) {
        set_mode_override(None);
    }
}

/// 6-column schema with nullable columns in both SIMD-relevant types, so
/// the kernels' validity masking is exercised, not just their comparisons.
fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::nullable("a", DataType::Int32),
        ColumnDef::new("b", DataType::Int32),
        ColumnDef::new("c", DataType::Int64),
        ColumnDef::nullable("d", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::new("e", DataType::Int32),
    ])
}

fn layouts() -> Vec<Layout> {
    vec![
        Layout::row(6),
        Layout::column(6),
        Layout::from_groups(vec![vec![0, 5], vec![1, 2, 3], vec![4]], 6).unwrap(),
    ]
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn make_row(i: usize, x: &mut u64) -> Vec<Value> {
    let a = if xorshift(x).is_multiple_of(7) {
        Value::Null
    } else {
        Value::Int32((xorshift(x) % 200) as i32 - 100)
    };
    let d = if xorshift(x).is_multiple_of(5) {
        Value::Null
    } else {
        Value::Float64((xorshift(x) % 1000) as f64 / 8.0)
    };
    vec![
        a,
        Value::Int32((xorshift(x) % 50) as i32),
        Value::Int64((xorshift(x) % 100_000) as i64 - 50_000),
        d,
        Value::Str(format!("s{}", xorshift(x) % 5)),
        Value::Int32(i as i32),
    ]
}

/// Predicates covering every kernel path: i32/i64/f64 comparisons (both
/// operand orders), IS [NOT] NULL, conjunctions, disjunctions, and i64
/// literals outside i32 range (the `NormCmp::{Always,Never}` edges).
fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-100i32..100).prop_map(|v| Expr::col(0).lt(Expr::lit(v))),
        (-100i32..100).prop_map(|v| Expr::lit(v).ge(Expr::col(0))),
        (0i32..50).prop_map(|v| Expr::col(1).eq(Expr::lit(v))),
        (0i32..50).prop_map(|v| Expr::col(1).ne(Expr::lit(v))),
        (-50_000i64..50_000).prop_map(|v| Expr::col(2).ge(Expr::lit(v))),
        Just(Expr::col(1).lt(Expr::lit(3_000_000_000i64))),
        Just(Expr::col(1).gt(Expr::lit(-3_000_000_000i64))),
        (0.0f64..125.0).prop_map(|v| Expr::col(3).le(Expr::lit(v))),
        Just(Expr::col(0).is_null()),
        Just(Expr::col(0).is_null().not()),
    ];
    prop_oneof![
        leaf.clone(),
        (leaf.clone(), leaf.clone()).prop_map(|(l, r)| l.and(r)),
        (leaf.clone(), leaf).prop_map(|(l, r)| l.or(r)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The load-bearing property: for a random table (random size →
    /// random 64-row sub-block tails and 256-row chunk tails), random
    /// tombstones, a random live delta tail and a random predicate, the
    /// scalar-pinned and SIMD-pinned runs of every engine agree
    /// byte-for-byte — on row-order-sensitive projections and on
    /// aggregates over all three numeric types.
    #[test]
    fn simd_matches_scalar_everywhere(
        n in 0usize..1400,
        seed in any::<u64>(),
        layout_pick in 0usize..3,
        del_mod in prop_oneof![Just(0u64), Just(16), Just(4), Just(2)],
        tail in 0usize..80,
        pred in arb_pred(),
    ) {
        let _g = SimdGuard::lock();
        let mut t = Table::with_layout("t", schema(), layouts()[layout_pick].clone()).unwrap();
        let mut x = seed | 1;
        for i in 0..n {
            t.insert(&make_row(i, &mut x)).unwrap();
        }
        let db = Database::new();
        db.register(t);
        if del_mod > 0 {
            for r in 0..n {
                if xorshift(&mut x).is_multiple_of(del_mod) {
                    db.delete("t", r).unwrap();
                }
            }
        }
        for i in 0..tail {
            db.insert("t", &make_row(n + i, &mut x)).unwrap();
        }
        let snap = db.snapshot();
        let plans = [
            QueryBuilder::scan("t")
                .filter(pred.clone())
                .project(vec![
                    Expr::col(0),
                    Expr::col(1),
                    Expr::col(2),
                    Expr::col(3),
                    Expr::col(5),
                ])
                .build(),
            QueryBuilder::scan("t")
                .filter(pred)
                .aggregate(
                    vec![],
                    vec![
                        AggExpr::new(AggFunc::Count, Expr::col(5)),
                        AggExpr::new(AggFunc::Sum, Expr::col(1)),
                        AggExpr::new(AggFunc::Sum, Expr::col(2)),
                        AggExpr::new(AggFunc::Sum, Expr::col(3)),
                    ],
                )
                .build(),
        ];
        for (pi, plan) in plans.iter().enumerate() {
            set_mode_override(Some(mrdb::core::SimdMode::Scalar));
            let scalar = common::assert_engines_agree(plan, &snap, &format!("plan {pi} (scalar)"));
            set_mode_override(Some(mrdb::core::SimdMode::Auto));
            let auto = common::assert_engines_agree(plan, &snap, &format!("plan {pi} (auto)"));
            scalar.assert_same(&auto, &format!("plan {pi}: scalar vs auto"));
            prop_assert_eq!(&scalar.rows, &auto.rows, "plan {} row order", pi);
        }
    }
}

/// On x86_64 the fused kernels must actually engage under `Auto` — and
/// must stay off under `Scalar` — observable through the process-wide
/// chunk counters. (Elsewhere `Auto` resolves to the chunked scalar
/// baseline and the SIMD counter legitimately stays zero.)
#[test]
fn chunk_counters_witness_dispatch() {
    let _g = SimdGuard::lock();
    let db = Database::new();
    db.register(microbench::generate(
        100_000,
        0.01,
        Layout::column(microbench::N_COLS),
        21,
    ));
    let plan = microbench::query(0.01);

    set_mode_override(Some(mrdb::core::SimdMode::Scalar));
    db.reset_scan_stats();
    db.run(&plan, EngineKind::Compiled).unwrap();
    let s = db.scan_stats();
    assert_eq!(s.simd_chunks, 0, "scalar mode must never take a SIMD chunk");
    assert!(
        s.scalar_chunks > 0,
        "chunked baseline must count its chunks"
    );

    set_mode_override(Some(mrdb::core::SimdMode::Auto));
    db.reset_scan_stats();
    db.run(&plan, EngineKind::Compiled).unwrap();
    let s = db.scan_stats();
    if cfg!(target_arch = "x86_64") {
        assert!(
            s.simd_chunks > 0,
            "auto on x86_64 must run SIMD chunks: {s:?}"
        );
    } else {
        assert_eq!(s.simd_chunks, 0);
        assert!(s.scalar_chunks > 0);
    }
}

/// The parallel engine runs the same survivor loop as the compiled one, so
/// its typed scalar and raw-keyed grouped aggregates take the wide
/// predicate masks too — it used to test rows one at a time.
#[test]
fn parallel_engine_takes_the_wide_masks() {
    let _g = SimdGuard::lock();
    let db = Database::new();
    db.register(microbench::generate(
        100_000,
        0.01,
        Layout::column(microbench::N_COLS),
        22,
    ));
    let pred = Expr::col(0).lt(Expr::lit(-50_000));
    let plans = [
        // typed scalar accumulators (count/min are not the Fig.-2c shape)
        QueryBuilder::scan("R")
            .filter(pred.clone())
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Min, Expr::col(1)),
                ],
            )
            .build(),
        // single plain key: raw-u64-keyed groups
        QueryBuilder::scan("R")
            .filter(pred)
            .aggregate(
                vec![Expr::col(1)],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(2))],
            )
            .build(),
    ];
    for (i, plan) in plans.iter().enumerate() {
        set_mode_override(Some(mrdb::core::SimdMode::Scalar));
        db.reset_scan_stats();
        let scalar = db.run(plan, EngineKind::Parallel).unwrap();
        let s = db.scan_stats();
        assert_eq!(s.simd_chunks, 0, "plan {i}: scalar mode took a SIMD chunk");
        assert!(s.scalar_chunks > 0, "plan {i}: {s:?}");

        set_mode_override(Some(mrdb::core::SimdMode::Auto));
        db.reset_scan_stats();
        let auto = db.run(plan, EngineKind::Parallel).unwrap();
        let s = db.scan_stats();
        if cfg!(target_arch = "x86_64") {
            assert!(
                s.simd_chunks > 0,
                "plan {i}: no SIMD chunk under auto: {s:?}"
            );
        } else {
            assert_eq!(s.simd_chunks, 0);
        }
        scalar.assert_same(&auto, &format!("plan {i}: scalar vs auto"));
    }
}

/// The acceptance scenario from the issue: a ≤1%-selective range scan
/// over a clustered column prunes the majority of zone blocks, with
/// byte-identical results across all five engines, and the planner's
/// EXPLAIN prices the skipping.
#[test]
fn selective_scan_prunes_majority_of_blocks() {
    let _g = SimdGuard::lock();
    let n = 200_000usize;
    // microbench's non-matching A values are unique negatives -(i+1) in
    // insertion order, so a range predicate on A selects a *clustered*
    // suffix of the table — the shape zone maps exist for. (`A = 0`
    // matches are spread uniformly by design and defeat pruning.)
    let t = microbench::generate(n, 0.01, Layout::column(microbench::N_COLS), 9);
    let cut = -((n as f64 * 0.99) as i32);
    let expected = (0..t.len())
        .filter(|&r| match t.get(r, 0).unwrap() {
            Value::Int32(a) => a <= cut,
            _ => false,
        })
        .count();
    assert!(expected > 0 && expected <= n / 100 + 1, "sel must be ≤1%");
    let db = Database::new();
    db.register(t);
    let plan = QueryBuilder::scan("R")
        .filter(Expr::col(0).le(Expr::lit(cut)))
        .aggregate(
            vec![],
            vec![
                AggExpr::new(AggFunc::Count, Expr::col(0)),
                AggExpr::new(AggFunc::Sum, Expr::col(1)),
            ],
        )
        .build();

    db.reset_scan_stats();
    let snap = db.snapshot();
    let out = common::assert_engines_agree(&plan, &snap, "selective range scan");
    assert_eq!(out.rows[0][0], Value::Int64(expected as i64));

    let s = db.scan_stats();
    let consulted = s.partitions_scanned + s.partitions_pruned;
    assert!(consulted > 0, "zone maps must have been consulted: {s:?}");
    assert!(
        s.partitions_pruned * 2 > consulted,
        "≤1% clustered selectivity must prune >50% of zone blocks: {s:?}"
    );

    // The planner prices the same skipping into its chosen plan.
    let phys = db.plan_query(&plan).unwrap();
    let p = &phys.pipelines[0];
    assert!(
        p.zone_pruned * 2 > p.zone_blocks,
        "planner must expect >50% pruned: {}/{}",
        p.zone_pruned,
        p.zone_blocks
    );
    assert!(p.survived_fraction() < 0.5);
    let explain = phys.explain();
    assert!(
        explain.contains("(scanned/pruned/total)"),
        "EXPLAIN must report partitions: {explain}"
    );
}

/// Pruning must stay sound when tombstones and a live tail overlap the
/// pruned range: a deleted row must not resurrect, a tail row must not be
/// skipped — across modes and engines.
#[test]
fn pruning_respects_tombstones_and_tail() {
    let _g = SimdGuard::lock();
    let n = 50_000usize;
    let t = microbench::generate(n, 0.0, Layout::column(microbench::N_COLS), 4);
    let db = Database::new();
    db.register(t);
    let cut = -((n as f64 * 0.98) as i32);
    // Delete half of the matching suffix …
    for r in (n - 500..n).step_by(2) {
        db.delete("R", r).unwrap();
    }
    // … and add tail rows inside and outside the selected range.
    let mut row: Vec<Value> = (0..microbench::N_COLS as i32).map(Value::Int32).collect();
    row[0] = Value::Int32(cut - 1);
    db.insert("R", &row).unwrap();
    row[0] = Value::Int32(7);
    db.insert("R", &row).unwrap();

    let plan = QueryBuilder::scan("R")
        .filter(Expr::col(0).le(Expr::lit(cut)))
        .aggregate(vec![], vec![AggExpr::new(AggFunc::Count, Expr::col(0))])
        .build();
    let snap = db.snapshot();
    for mode in [mrdb::core::SimdMode::Scalar, mrdb::core::SimdMode::Auto] {
        set_mode_override(Some(mode));
        let out = common::assert_engines_agree(&plan, &snap, &format!("{mode:?}"));
        // Survivors of A ≤ cut: rows cut-1 … n-1 minus the 250 deleted
        // even offsets in n-500…n, plus the one in-range tail row.
        let in_range = (0..n).filter(|&i| -((i as i32) + 1) <= cut).count();
        let deleted = (n - 500..n)
            .step_by(2)
            .filter(|&i| -((i as i32) + 1) <= cut)
            .count();
        assert_eq!(
            out.rows[0][0],
            Value::Int64((in_range - deleted + 1) as i64),
            "{mode:?}"
        );
    }
}

/// Float comparisons run a typed 64-row loop. Every operator and literal
/// over NaN, ±0.0, ±inf, NULL and plain values, in a dense and a strided
/// layout, at both SIMD modes, passes exactly the rows `partial_cmp`
/// passes: a NaN on either side passes no operator, `<>` included, and
/// `-0.0` equals `0.0`. Every engine, the Volcano oracle among them, is
/// held to those rows.
#[test]
fn float_comparisons_follow_partial_cmp_in_every_mode() {
    use mrdb::plan::expr::CmpOp;
    let _g = SimdGuard::lock();
    let specials = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
        -2.25,
        7.0,
    ];
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    // 300 rows: four whole 64-row blocks and a tail; every 11th is NULL.
    let n = 300usize;
    let value = |i: usize| (i % 11 != 10).then_some(specials[(i * 7 + i / 8) % specials.len()]);
    let schema = Schema::new(vec![
        ColumnDef::new("id", DataType::Int32),
        ColumnDef::nullable("f", DataType::Float64),
    ]);
    for layout in [Layout::column(2), Layout::row(2)] {
        let db = Database::new();
        let mut t = Table::with_layout("t", schema.clone(), layout.clone()).unwrap();
        for i in 0..n {
            let f = value(i).map_or(Value::Null, Value::Float64);
            t.insert(&[Value::Int32(i as i32), f]).unwrap();
        }
        db.register(t);
        let snap = db.snapshot();
        for op in ops {
            for lit in specials {
                let plan = QueryBuilder::scan("t")
                    .filter(Expr::col(1).cmp(op, Expr::lit(lit)))
                    .project(vec![Expr::col(0)])
                    .build();
                let want: Vec<Vec<Value>> = (0..n)
                    .filter(|&i| {
                        value(i)
                            .and_then(|x| x.partial_cmp(&lit))
                            .is_some_and(|o| op.matches(o))
                    })
                    .map(|i| vec![Value::Int32(i as i32)])
                    .collect();
                let ctx = format!("{layout:?}: f {op:?} {lit}");
                for mode in [mrdb::core::SimdMode::Scalar, mrdb::core::SimdMode::Auto] {
                    set_mode_override(Some(mode));
                    for kind in EngineKind::all() {
                        let got = kind.engine().execute(&plan, &snap).unwrap();
                        assert_eq!(got.rows, want, "{ctx} {mode:?} {kind:?}");
                    }
                }
            }
        }
    }
}
