//! Properties of the shared partial-aggregate state
//! (`pdsm_exec::pipeline::AggState`) that the compiled and parallel
//! drivers, on resident and cold mains alike, rest on. The state is
//! order-free, so each holds bit for bit, float `sum`, `avg`, `min` and
//! `max` included:
//!
//! * folding `0..n` in one go ≡ folding the pieces of any cut of `0..n`
//!   into separate states and merging them, in order or reversed (ties,
//!   NULLs, tombstones included), under every representation (Fig. 2c
//!   sums, typed scalars, raw-`u64`-keyed groups, `GroupKey`-keyed
//!   groups);
//! * folding `0..n` in one go ≡ carrying **one** state across the pieces
//!   — what lets cold extents stream;
//! * folding `0..n` in one go ≡ collecting each piece's rows and folding
//!   them into one keyed state — the aggregate over a pipeline breaker;
//! * on adversarial floats (cancellation, mixed magnitudes, subnormals,
//!   ±0.0, ±inf, NaN), any partition merged in any order equals the
//!   sequential fold and an independent exact oracle: the sum of the
//!   decoded `f64`s as a big integer, rounded once.

use mrdb::exec::pipeline::{AggState, PipeSpec, Scan};
use mrdb::exec::Overlay;
use mrdb::prelude::*;
use mrdb::storage::Row;
use proptest::prelude::*;
use std::sync::Arc;

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
    let shape = |name, preds: &[Expr], group_by: Vec<Expr>, aggs: &[AggExpr]| Shape {
        name,
        preds: preds.to_vec(),
        group_by,
        aggs: aggs.to_vec(),
    };
    let (k, s) = (Expr::col(0), Expr::col(1));
    vec![
        shape(
            "fig2c",
            &pred,
            vec![],
            &[AggExpr::new(AggFunc::Sum, Expr::col(4))],
        ),
        shape("scalar", &pred, vec![], &exact),
        shape("raw int key", &[], vec![k.clone()], &exact),
        shape("raw str key", &pred, vec![s.clone()], &exact),
        shape("generic keys", &pred, vec![s.clone(), k.clone()], &exact),
        shape(
            "generic scalar",
            &pred,
            vec![],
            &[AggExpr::new(AggFunc::Sum, Expr::col(4).add(Expr::col(0)))],
        ),
        shape("float scalar", &pred, vec![], &floats),
        shape("float raw key", &[], vec![s.clone()], &floats),
        shape("float generic keys", &pred, vec![k, s], &floats),
    ]
}

/// What [`adversarial`] draws from.
#[derive(Debug, Clone, Copy)]
enum Floats {
    /// Every magnitude, subnormals and ±0.0.
    Finite,
    /// As `Finite`, plus ±inf and NaN.
    Specials,
    /// Odd integers and ±2^53: exact sums land on rounding ties (halfway
    /// between two doubles) often.
    Ties,
}

/// An input that stresses exact summation: cancellation (the negation of
/// an earlier input), mixed magnitudes up to `f64::MAX`, subnormals, ±0.0,
/// specials and rounding ties, as `floats` asks.
fn adversarial(x: &mut u64, seen: &[f64], floats: Floats) -> f64 {
    let sign = if xorshift(x).is_multiple_of(2) {
        1.0
    } else {
        -1.0
    };
    if let Floats::Ties = floats {
        // Odd integers beside a few ±2^53: an odd exact sum past 2^53 sits
        // halfway between two doubles.
        let two53 = 9_007_199_254_740_992.0;
        return sign * [two53, 1.0, 3.0, 5.0, 1.0, 3.0, 5.0, 7.0][(xorshift(x) % 8) as usize];
    }
    let specials = matches!(floats, Floats::Specials);
    match xorshift(x) % 12 {
        0 | 1 if !seen.is_empty() => -seen[(xorshift(x) % seen.len() as u64) as usize],
        2 => sign * f64::from_bits(xorshift(x) % (1 << 52)),
        3 => 0.0,
        4 => -0.0,
        5 => sign * f64::MAX,
        6 => sign * [1e300, 1e-300, 1.0, 1e16][(xorshift(x) % 4) as usize],
        7 if specials => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(xorshift(x) % 3) as usize],
        8 | 9 => {
            let f = f64::from_bits(xorshift(x));
            if f.is_finite() {
                f
            } else {
                0.5
            }
        }
        _ => sign * (xorshift(x) % 100_000) as f64 / 100.0,
    }
}

/// The exact sum of `xs`, rounded to nearest (ties to even) once: the
/// finite inputs add as big integers in units of 2^-1074, positives and
/// negatives apart, and the difference is rounded bit by bit. An exact
/// zero is `+0.0`; specials give what IEEE addition gives.
fn oracle_sum(xs: &[f64]) -> f64 {
    let (pos_inf, neg_inf) = (xs.contains(&f64::INFINITY), xs.contains(&f64::NEG_INFINITY));
    if xs.iter().any(|f| f.is_nan()) || (pos_inf && neg_inf) {
        return f64::NAN;
    }
    if pos_inf || neg_inf {
        return if pos_inf {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    let (mut pos, mut neg) = ([0u64; WORDS], [0u64; WORDS]);
    for &f in xs {
        let bits = f.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as usize;
        let frac = bits & ((1 << 52) - 1);
        let (mant, shift) = if exp == 0 {
            (frac, 0)
        } else {
            (frac | 1 << 52, exp - 1)
        };
        let acc = if f < 0.0 { &mut neg } else { &mut pos };
        // add mant << shift, rippling the carry
        let wide = (mant as u128) << (shift % 64);
        let mut carry = 0u128;
        for (j, part) in [wide as u64, (wide >> 64) as u64].into_iter().enumerate() {
            let s = acc[shift / 64 + j] as u128 + part as u128 + carry;
            acc[shift / 64 + j] = s as u64;
            carry = s >> 64;
        }
        let mut j = shift / 64 + 2;
        while carry != 0 {
            let s = acc[j] as u128 + carry;
            acc[j] = s as u64;
            carry = s >> 64;
            j += 1;
        }
    }
    let (negative, mag) = if pos.iter().rev().le(neg.iter().rev()) {
        (true, sub(&neg, &pos))
    } else {
        (false, sub(&pos, &neg))
    };
    let bit = |i: usize| mag[i / 64] >> (i % 64) & 1 == 1;
    let Some(top) = (0..WORDS * 64).rev().find(|&i| bit(i)) else {
        return 0.0;
    };
    let (mant, scale) = if top < 53 {
        ((0..=top).rev().fold(0u64, |m, i| m << 1 | bit(i) as u64), 0)
    } else {
        let low = top - 52;
        let mut m = (low..=top).rev().fold(0u64, |m, i| m << 1 | bit(i) as u64);
        let (half, rest) = (bit(low - 1), (0..low - 1).any(bit));
        if half && (rest || m & 1 == 1) {
            m += 1;
        }
        (m, low)
    };
    // mant · 2^(scale - 1074), by exact doublings and halvings
    let mut v = mant as f64;
    let exp = scale as i64 - 1074;
    for _ in 0..exp.max(0) {
        v *= 2.0;
    }
    for _ in 0..(-exp).max(0) {
        v *= 0.5;
    }
    if negative {
        -v
    } else {
        v
    }
}

/// 64-bit words of the oracle's integers: 2 560 bits, past the 2 098 a
/// finite `f64` spans plus the carries of any input count here.
const WORDS: usize = 40;

fn sub(a: &[u64; WORDS], b: &[u64; WORDS]) -> [u64; WORDS] {
    let mut out = [0u64; WORDS];
    let mut borrow = false;
    for i in 0..WORDS {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        out[i] = d;
        borrow = b1 || b2;
    }
    out
}

#[test]
fn the_oracle_rounds_like_ieee_where_ieee_is_exact() {
    assert_eq!(oracle_sum(&[0.1, 0.2]), 0.1 + 0.2);
    assert_eq!(oracle_sum(&[1.0, f64::EPSILON / 2.0]), 1.0);
    assert_eq!(oracle_sum(&[f64::MAX, f64::MAX]), f64::INFINITY);
    assert_eq!(oracle_sum(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    assert_eq!(oracle_sum(&[5e-324, 5e-324]), 1e-323);
    assert_eq!(oracle_sum(&[-3.0, 1.0]), -2.0);
    assert_eq!(oracle_sum(&[1e300, 1.0, -1e300]), 1.0);
    // ties go to the even neighbour
    let two53 = 9_007_199_254_740_992.0;
    assert_eq!(oracle_sum(&[two53, 1.0]), two53);
    assert_eq!(oracle_sum(&[two53, 3.0]), two53 + 4.0);
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
    fn float_partials_merge_in_any_order_to_the_exact_oracle(
        n in 0usize..3000,
        seed in any::<u64>(),
        cuts in proptest::collection::vec(0usize..3000, 0..8),
        floats in prop_oneof![Just(Floats::Finite), Just(Floats::Specials), Just(Floats::Ties)],
        column_layout in any::<bool>(),
    ) {
        let float_schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::nullable("f", DataType::Float64),
        ]);
        let layout = if column_layout { Layout::column(2) } else { Layout::row(2) };
        let mut t = Table::with_layout("t", float_schema, layout).unwrap();
        let mut x = seed | 1;
        let mut seen: Vec<f64> = Vec::new();
        for _ in 0..n {
            let f = adversarial(&mut x, &seen, floats);
            seen.push(f);
            let k = (xorshift(&mut x) % 3) as i32;
            let v = if xorshift(&mut x).is_multiple_of(9) { Value::Null } else { Value::Float64(f) };
            t.insert(&[Value::Int32(k), v]).unwrap();
        }
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        let mut pieces: Vec<_> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
        for i in (1..pieces.len()).rev() {
            pieces.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }

        let f = Expr::col(1);
        let aggs = [
            AggExpr::new(AggFunc::Sum, f.clone()),
            AggExpr::new(AggFunc::Avg, f.clone()),
            AggExpr::new(AggFunc::Min, f.clone()),
            AggExpr::new(AggFunc::Max, f.clone()),
            // an evaluated argument: the GroupKey-keyed representation
            AggExpr::new(AggFunc::Sum, f.mul(Expr::lit(1.0))),
        ];
        for group_by in [vec![], vec![Expr::col(0)]] {
            let spec = PipeSpec { preds: &[], steps: &[], needed: &[0, 1] };
            let scan = Scan::new(&t, spec);
            let mut whole = AggState::new(&t, spec, &group_by, &aggs);
            whole.fold_range(&scan, &[], 0..n);
            let whole = whole.finish();
            let mut merged = AggState::new(&t, spec, &group_by, &aggs);
            for range in pieces.clone() {
                let mut piece = AggState::new(&t, spec, &group_by, &aggs);
                piece.fold_range(&scan, &[], range);
                merged.merge(piece);
            }
            prop_assert_eq!(canon(whole.clone()), canon(merged.finish()), "merged in shuffled order");

            for row in whole {
                let (key, out) = row.split_at(group_by.len());
                let inputs: Vec<f64> = (0..n)
                    .filter(|&i| key.is_empty() || t.get(i, 0).unwrap() == key[0])
                    .filter_map(|i| match t.get(i, 1).unwrap() {
                        Value::Float64(v) => Some(v),
                        _ => None,
                    })
                    .collect();
                let bits = |v: &Value| match v {
                    Value::Float64(f) => Some(f.to_bits()),
                    _ => None,
                };
                let sum = oracle_sum(&inputs);
                let want_avg = (!inputs.is_empty()).then(|| (sum / inputs.len() as f64).to_bits());
                let want_sum = (!inputs.is_empty()).then(|| sum.to_bits());
                let want_min = inputs.iter().copied().min_by(f64::total_cmp).map(f64::to_bits);
                let want_max = inputs.iter().copied().max_by(f64::total_cmp).map(f64::to_bits);
                prop_assert_eq!(bits(&out[0]), want_sum, "sum of {:?}", inputs);
                prop_assert_eq!(bits(&out[1]), want_avg, "avg");
                prop_assert_eq!(bits(&out[2]), want_min, "min");
                prop_assert_eq!(bits(&out[3]), want_max, "max");
                prop_assert_eq!(bits(&out[4]), want_sum, "sum of f * 1.0");
            }
        }
    }

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
        let tail: Vec<Arc<Row>> = (0..n_tail)
            .map(|i| {
                let mut r = row(&mut x);
                if i % 3 == 0 {
                    r[1] = Value::Str("novel".into());
                }
                Arc::new(Row(r))
            })
            .collect();
        let overlay = Overlay { dead: &dead, tail: &tail, tail_alive: &[] };

        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(n)).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();

        for Shape { name, preds, group_by, aggs } in shapes() {
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

            for reversed in [false, true] {
                let mut pieces: Vec<_> = bounds.windows(2).collect();
                if reversed {
                    pieces.reverse();
                }
                let mut merged = fresh();
                for w in pieces {
                    let mut piece = fresh();
                    piece.fold_range(&scan, &dead, w[0]..w[1]);
                    merged.merge(piece);
                }
                merged.fold_tail(&overlay);
                prop_assert_eq!(
                    &whole,
                    &canon(merged.finish()),
                    "{}: merged pieces (reversed: {})",
                    name,
                    reversed
                );
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
