//! Join differential property test: random joins of two and three tables
//! (left-deep, and now and then right-deep), in random layouts, over duplicate, NULL, integer
//! (both widths), float, string and computed keys, under `WHERE`
//! conjuncts on the left side, on the right side, spanning both, and
//! reading no column.
//!
//! The compiled and parallel engines push filters below the join, build a
//! typed and pruned hash table, probe before they materialize and read a
//! match in place. None of that may show:
//!
//! * a join's rows come out in probe order, the matches of one probe row
//!   in build-insertion order — checked row for row against a nested-loop
//!   reference;
//! * compiled and parallel at 1, 2, 4 and 8 threads agree row for row
//!   (grouped aggregates, whose group order is hash order, as sorted rows
//!   with float bits compared exactly), and agree with the Volcano oracle;
//! * `ORDER BY … LIMIT` over heavy ties equals a stable sort of the
//!   reference order, truncated; a totally ordered sort equals Volcano row
//!   for row.
//!
//! One case runs over a versioned snapshot whose joined tables both carry
//! delta-tail rows and tombstones.

use mrdb::exec::keys::GroupKey;
use mrdb::exec::TableProvider;
use mrdb::plan::expr::ArithOp;
use mrdb::plan::logical::SortKey;
use mrdb::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Columns of every generated table.
const W: usize = 7;
const K: usize = 0; // Int32, nullable, few distinct values
const S: usize = 1; // Str, nullable, few distinct values
const V: usize = 2; // Int64
const F: usize = 3; // Float64, nullable, inexact in binary
const ID: usize = 4; // Int32, unique per table
const K64: usize = 5; // Int64, the domain of K
const S2: usize = 6; // Str, few distinct values, never NULL

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::nullable("k", DataType::Int32),
        ColumnDef::nullable("s", DataType::Str),
        ColumnDef::new("v", DataType::Int64),
        ColumnDef::nullable("f", DataType::Float64),
        ColumnDef::new("id", DataType::Int32),
        ColumnDef::new("k64", DataType::Int64),
        ColumnDef::new("s2", DataType::Str),
    ])
}

/// xorshift64: the plan and data generator of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn layout(rng: &mut Rng) -> Layout {
    match rng.below(4) {
        0 => Layout::row(W),
        1 => Layout::column(W),
        2 => Layout::from_groups(vec![vec![0, 2], vec![1, 4, 6], vec![3, 5]], W).unwrap(),
        _ => Layout::from_groups(vec![vec![5, 1, 0], vec![2, 6], vec![3], vec![4]], W).unwrap(),
    }
}

/// One generated row; `id` is unique within its table.
fn row(rng: &mut Rng, id: i32, keys: u64) -> Vec<Value> {
    let k = rng.below(keys) as i32;
    vec![
        if rng.chance(8) {
            Value::Null
        } else {
            Value::Int32(k)
        },
        if rng.chance(9) {
            Value::Null
        } else {
            Value::Str(format!("s{}", rng.below(keys)))
        },
        Value::Int64(rng.below(40) as i64),
        if rng.chance(6) {
            Value::Null
        } else {
            Value::Float64(rng.below(keys) as f64 * 0.1)
        },
        Value::Int32(id),
        Value::Int64(k as i64),
        Value::Str(format!("s{}", rng.below(keys))),
    ]
}

fn table(name: &str, n: usize, keys: u64, rng: &mut Rng) -> Table {
    let mut t = Table::with_layout(name, schema(), layout(rng)).unwrap();
    for i in 0..n {
        t.insert(&row(rng, i as i32, keys)).unwrap();
    }
    t
}

/// A join key pair: `(left, right)` expressions over the two inputs, on
/// the tables starting at column `lbase` of the left input and `rbase` of
/// the right one. A non-nullable integer or string probe column is probed
/// in place, before the probe row materializes; the others evaluate the
/// key over the row.
fn join_keys(rng: &mut Rng, lbase: usize, rbase: usize) -> (Expr, Expr) {
    let (l, r) = (|c| Expr::col(lbase + c), |c| Expr::col(rbase + c));
    match rng.below(10) {
        0 => (l(K), r(K)),
        // cross-width: Int32 against Int64, both ways
        1 => (l(K64), r(K)),
        2 => (l(K), r(K64)),
        3 => (l(S), r(S)),
        4 => (l(S2), r(S2)),
        5 => (l(ID), r(ID)),
        6 => (l(F), r(F)),
        // computed: an Int64 remainder against an Int32 column
        7 => (l(V).arith(ArithOp::Mod, Expr::lit(7)), r(K)),
        // mismatched types never join
        8 => (l(S), r(K64)),
        _ => (l(K64), r(S2)),
    }
}

/// A conjunct over columns `lo..hi` of the join output.
fn side_pred(rng: &mut Rng, lo: usize, hi: usize) -> Expr {
    let base = lo + (rng.below(((hi - lo) / W) as u64) as usize) * W;
    match rng.below(4) {
        0 => Expr::col(base + V).lt(Expr::lit(rng.below(40) as i64)),
        1 => Expr::col(base + K).ge(Expr::lit(rng.below(4) as i32)),
        2 => Expr::col(base + S).like(format!("s{}%", rng.below(3))),
        _ => Expr::col(base + F)
            .is_null()
            .or(Expr::col(base + F).gt(Expr::lit(0.15))),
    }
}

/// A `WHERE` over a join whose left input is `lw` wide and whose output is
/// `width` wide: some of left-side, right-side, spanning and column-free
/// conjuncts.
fn join_pred(rng: &mut Rng, lw: usize, width: usize) -> Option<Expr> {
    let mut preds = Vec::new();
    if rng.chance(2) {
        preds.push(side_pred(rng, 0, lw));
    }
    if rng.chance(2) {
        preds.push(side_pred(rng, lw, width));
    }
    if rng.chance(2) {
        let l = rng.below((lw / W) as u64) as usize * W;
        preds.push(match rng.below(3) {
            0 => Expr::col(l + V).le(Expr::col(lw + V)),
            1 => Expr::col(l + ID).ne(Expr::col(lw + ID)),
            _ => Expr::col(lw + K)
                .is_null()
                .or(Expr::col(l + V).gt(Expr::col(lw + K))),
        });
    }
    if rng.chance(3) {
        // column-free: always true, or (rarely) always false
        preds.push(Expr::lit(1).eq(Expr::lit(if rng.chance(6) { 0 } else { 1 })));
    }
    preds.into_iter().reduce(Expr::and)
}

/// A random join of `tables` (two or three), with filters: left-deep, or
/// for three tables now and then right-deep, where one pipe probes twice.
fn join_plan(rng: &mut Rng, tables: &[&str]) -> (LogicalPlan, usize) {
    if tables.len() == 3 && rng.chance(4) {
        let (inner, inner_width) = join_plan(rng, &tables[1..]);
        let rbase = rng.below(2) as usize * W;
        let (lk, rk) = join_keys(rng, 0, rbase);
        let mut plan = QueryBuilder::scan(tables[0]).join(inner, lk, rk);
        if let Some(p) = join_pred(rng, W, W + inner_width) {
            plan = plan.filter(p);
        }
        return (plan.build(), W + inner_width);
    }
    let mut plan = QueryBuilder::scan(tables[0]);
    if rng.chance(3) {
        plan = plan.filter(side_pred(rng, 0, W));
    }
    let mut width = W;
    for t in &tables[1..] {
        let base = rng.below((width / W) as u64) as usize * W;
        let (lk, rk) = join_keys(rng, base, 0);
        let mut right = QueryBuilder::scan(*t);
        if rng.chance(4) {
            right = right.filter(side_pred(rng, 0, W));
        }
        plan = plan.join(right.build(), lk, rk);
        if let Some(p) = join_pred(rng, width, width + W) {
            plan = plan.filter(p);
        }
        width += W;
    }
    (plan.build(), width)
}

// ---------------------------------------------------------------------------
// the nested-loop reference
// ---------------------------------------------------------------------------

/// `plan`'s rows in the order the join contract fixes, by nested loops:
/// probe rows in order, each one's matches in build order. Scan leaves
/// are read through the Volcano oracle, so a versioned table yields its
/// main rows minus tombstones, then its live tail.
fn reference(plan: &LogicalPlan, db: &dyn TableProvider) -> Vec<Vec<Value>> {
    match plan {
        LogicalPlan::Scan { .. } => VolcanoEngine.execute(plan, db).unwrap().rows,
        LogicalPlan::Select { input, pred, .. } => reference(input, db)
            .into_iter()
            .filter(|r| pred.eval_bool(&r[..]))
            .collect(),
        LogicalPlan::Project { input, exprs } => reference(input, db)
            .into_iter()
            .map(|r| exprs.iter().map(|e| e.eval(&r[..])).collect())
            .collect(),
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let build = reference(left, db);
            let key = |e: &Expr, r: &[Value]| {
                let v = e.eval(r);
                (!v.is_null()).then(|| GroupKey::single(&v))
            };
            let mut out = Vec::new();
            for p in reference(right, db) {
                let Some(pk) = key(right_key, &p[..]) else {
                    continue;
                };
                for b in &build {
                    if key(left_key, &b[..]).as_ref() == Some(&pk) {
                        out.push(b.iter().chain(&p).cloned().collect());
                    }
                }
            }
            out
        }
        other => panic!("no reference for {other:?}"),
    }
}

/// Stable sort by `keys`, then keep `n` rows: what `ORDER BY … LIMIT`
/// answers.
fn stable_top(mut rows: Vec<Vec<Value>>, keys: &[SortKey], n: usize) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = mrdb::storage::types::cmp_values(&k.expr.eval(&a[..]), &k.expr.eval(&b[..]));
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord.is_ne() {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows.truncate(n);
    rows
}

// ---------------------------------------------------------------------------
// the checks
// ---------------------------------------------------------------------------

/// Rows with floats as their bit patterns, sorted: exact equality up to
/// row order.
fn bits(rows: &[Vec<Value>]) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float64(f) => format!("f{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// Run `plan` on the compiled engine and on the parallel one at 1, 2, 4
/// and 8 threads; every run must equal the compiled one row for row
/// (`ordered`) or up to row order with exact float bits. Returns the
/// compiled rows.
fn serving_agree(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    ordered: bool,
    ctx: &str,
) -> Vec<Vec<Value>> {
    let compiled = CompiledEngine.execute(plan, db).unwrap().rows;
    for threads in [1, 2, 4, 8] {
        let par = ParallelEngine::with_threads(threads)
            .execute(plan, db)
            .unwrap()
            .rows;
        if ordered {
            assert_eq!(compiled, par, "{ctx}: parallel({threads}) order");
        } else {
            assert_eq!(bits(&compiled), bits(&par), "{ctx}: parallel({threads})");
        }
    }
    compiled
}

/// The whole battery over one join plan `join` (output `width` wide).
fn check_join(join: &LogicalPlan, width: usize, db: &dyn TableProvider, rng: &mut Rng) {
    let ctx = format!("{join:?}");
    let volcano = |plan: &LogicalPlan| VolcanoEngine.execute(plan, db).unwrap();
    let wrap = |p: &LogicalPlan| QueryBuilder::from_plan(p.clone());

    // collect: the exact contract order, and the oracle's multiset
    let rows = serving_agree(join, db, true, &ctx);
    assert_eq!(rows, reference(join, db), "{ctx}: join order");
    volcano(join).assert_same(&QueryOutput { rows }, &ctx);

    // a projection: build columns nothing reads are pruned
    let cols = [width - W + ID, K, width - 1, S];
    let project = wrap(join)
        .project(cols.iter().map(|&c| Expr::col(c)).collect())
        .build();
    let rows = serving_agree(&project, db, true, &ctx);
    assert_eq!(rows, reference(&project, db), "{ctx}: projected order");

    // grouped and global aggregates: float sum/avg bit-identical
    let aggs = vec![
        AggExpr::count_star(),
        AggExpr::new(AggFunc::Sum, Expr::col(width - W + V)),
        AggExpr::new(AggFunc::Sum, Expr::col(F)),
        AggExpr::new(AggFunc::Avg, Expr::col(width - W + F)),
        AggExpr::new(AggFunc::Max, Expr::col(S)),
        AggExpr::new(AggFunc::Min, Expr::col(F).mul(Expr::col(width - W + V))),
    ];
    let groupings = [
        vec![],
        vec![Expr::col(K)],
        vec![Expr::col(S), Expr::col(width - W + K)],
    ];
    for group_by in groupings {
        let plan = wrap(join).aggregate(group_by, aggs.clone()).build();
        let rows = serving_agree(&plan, db, false, &ctx);
        volcano(&plan).assert_same(&QueryOutput { rows }, &format!("{ctx}: aggregate"));
    }

    // ORDER BY … LIMIT over heavy ties: the stable order of the contract
    let keys = [
        (Expr::col(K), rng.chance(2)),
        (Expr::col(width - W + S), rng.chance(2)),
    ];
    let n = 1 + rng.below(12) as usize;
    // the projection's column 1 is the left table's `k`
    let plan = wrap(&project)
        .sort(vec![(Expr::col(1), keys[0].1)])
        .limit(n)
        .build();
    let expect = stable_top(
        reference(&project, db),
        &[SortKey {
            expr: Expr::col(1),
            asc: keys[0].1,
        }],
        n,
    );
    assert_eq!(serving_agree(&plan, db, true, &ctx), expect, "{ctx}: top-n");
    let plan = wrap(join).sort(keys.to_vec()).limit(n).build();
    let sort_keys: Vec<SortKey> = keys
        .iter()
        .map(|(expr, asc)| SortKey {
            expr: expr.clone(),
            asc: *asc,
        })
        .collect();
    let expect = stable_top(reference(join, db), &sort_keys, n);
    assert_eq!(serving_agree(&plan, db, true, &ctx), expect, "{ctx}: top-n");

    // a totally ordered sort: every output column is a key
    let total = wrap(&project)
        .sort(
            (0..cols.len())
                .map(|c| (Expr::col(c), c % 2 == 0))
                .collect(),
        )
        .build();
    let rows = serving_agree(&total, db, true, &ctx);
    assert_eq!(rows, volcano(&total).rows, "{ctx}: total sort vs volcano");

    check_group_join(join, width, db, &ctx);
}

/// The width of the build (left) side of `plan`'s top join.
fn build_width(plan: &LogicalPlan) -> usize {
    match plan {
        LogicalPlan::Select { input, .. } => build_width(input),
        LogicalPlan::Join { left, .. } => left.arity(&|_: &str| W),
        other => panic!("no join at the top of {other:?}"),
    }
}

/// Aggregates over both sides of a join whose build side starts at
/// column 0 and whose probe side (the last table) starts at `probe`:
/// `count(*)`, and `sum` / `avg` / `min` / `max` / `count` over plain
/// integer, float and string columns of either side and an expression
/// over both.
fn both_sides_aggs(probe: usize) -> Vec<AggExpr> {
    let (b, p) = (|c| Expr::col(c), |c| Expr::col(probe + c));
    vec![
        AggExpr::count_star(),
        AggExpr::new(AggFunc::Sum, p(V)),
        AggExpr::new(AggFunc::Sum, p(F)),
        AggExpr::new(AggFunc::Avg, p(K)),
        AggExpr::new(AggFunc::Min, p(S)),
        AggExpr::new(AggFunc::Max, p(F)),
        AggExpr::new(AggFunc::Count, p(F)),
        AggExpr::new(AggFunc::Sum, b(V)),
        AggExpr::new(AggFunc::Avg, b(F)),
        AggExpr::new(AggFunc::Min, b(K64)),
        AggExpr::new(AggFunc::Max, b(S2)),
        AggExpr::new(AggFunc::Count, b(K)),
        AggExpr::new(AggFunc::Sum, b(F).mul(p(V))),
    ]
}

/// Group-joins: an aggregate directly over `join` grouped by build-side
/// columns — string, Int32, Int64, float, nullable, several at once, or
/// none (a global aggregate). Groups are the build rows' group ordinals;
/// a group no probe row matches must not appear.
fn check_group_join(join: &LogicalPlan, width: usize, db: &dyn TableProvider, ctx: &str) {
    let lw = build_width(join);
    let aggs = both_sides_aggs(width - W);
    let col = Expr::col;
    let groupings = [
        vec![],
        vec![col(S)],
        vec![col(K)],
        vec![col(K64)],
        vec![col(F)],
        vec![col(lw - W + S2), col(K)],
        vec![col(ID), col(lw - W + F), col(S)],
    ];
    for group_by in groupings {
        let plan = QueryBuilder::from_plan(join.clone())
            .aggregate(group_by, aggs.clone())
            .build();
        let rows = serving_agree(&plan, db, false, ctx);
        VolcanoEngine.execute(&plan, db).unwrap().assert_same(
            &QueryOutput { rows },
            &format!("{ctx}: group-join {plan:?}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn joins_keep_their_order_and_agree_everywhere(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        let names = ["t0", "t1", "t2"];
        let mut db = HashMap::new();
        for name in names {
            let n = 20 + rng.below(120) as usize;
            let keys = 2 + rng.below(8);
            db.insert(name.to_string(), table(name, n, keys, &mut rng));
        }
        let ntables = 2 + rng.below(2) as usize;
        let (plan, width) = join_plan(&mut rng, &names[..ntables]);
        check_join(&plan, width, &db, &mut rng);
    }
}

/// A build table whose float column holds `-0.0` and `+0.0` (one group,
/// each sign drawn per row) beside other values, some of its rows matched
/// by no probe row, and a probe table referencing the build's ids in a
/// shuffled order. Both span several morsels, so a parallel build appends
/// per-morsel groups whose first zero may differ in sign, and parallel
/// probes merge partials.
fn signed_zero_tables(rng: &mut Rng) -> HashMap<String, Table> {
    const BUILD: u64 = 30_000;
    let mut build = Table::new("b", schema());
    for id in 0..BUILD as i32 {
        let mut r = row(rng, id, 6);
        r[F] = match id % 5 {
            // groups of their own, which no probe row reaches
            _ if id as u64 >= BUILD * 3 / 4 => Value::Float64(1e6 + f64::from(id)),
            0 | 1 if rng.chance(2) => Value::Float64(-0.0),
            0 | 1 => Value::Float64(0.0),
            2 => Value::Null,
            _ => Value::Float64(f64::from(id % 97) * 0.25),
        };
        build.insert(&r).unwrap();
    }
    let mut probe = Table::with_layout("p", schema(), layout(rng)).unwrap();
    for i in 0..30_000 {
        let mut r = row(rng, i, 6);
        // the last quarter of the build's ids is never referenced
        r[ID] = Value::Int32(rng.below(BUILD * 3 / 4) as i32);
        probe.insert(&r).unwrap();
    }
    [("b".to_string(), build), ("p".to_string(), probe)].into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A group-join grouped by a float column holding `-0.0` and `+0.0`
    /// labels the zero group with its first matching build row's value —
    /// whichever sign the first probe row to reach it matched — at every
    /// worker count, as Volcano does; groups no probe row matches stay out.
    #[test]
    fn group_join_labels_a_signed_zero_group_by_its_first_match(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        let db = signed_zero_tables(&mut rng);
        let join = QueryBuilder::scan("b")
            .join(QueryBuilder::scan("p").build(), Expr::col(ID), Expr::col(ID));
        for group_by in [vec![Expr::col(F)], vec![Expr::col(F), Expr::col(K)]] {
            let plan = join.clone().aggregate(group_by, both_sides_aggs(W)).build();
            let rows = serving_agree(&plan, &db, false, "signed zero");
            let oracle = VolcanoEngine.execute(&plan, &db).unwrap();
            oracle.assert_same(&QueryOutput { rows: rows.clone() }, "signed zero vs volcano");
            assert_eq!(bits(&rows), bits(&oracle.rows), "signed zero: exact bits vs volcano");
            let zero = rows.iter().find(|r| matches!(r[0], Value::Float64(z) if z == 0.0));
            assert!(zero.is_some(), "the zero group is matched");
        }
    }
}

/// Both joined tables carry deleted main rows, live tail rows and deleted
/// tail rows: the pipelines probe and build over main pieces and tails.
#[test]
fn versioned_snapshot_with_tails_and_tombstones_on_both_sides() {
    let mut rng = Rng(0x5eed_1234_abcd);
    let db = Database::new();
    for name in ["t0", "t1"] {
        db.register(table(name, 300, 6, &mut rng));
    }
    for name in ["t0", "t1"] {
        for id in (0..300).step_by(7) {
            db.delete(name, id).unwrap();
        }
        let fresh: Vec<Vec<Value>> = (0..40).map(|i| row(&mut rng, 1_000 + i, 6)).collect();
        let ids = db.insert_batch(name, &fresh).unwrap();
        for id in ids.into_iter().step_by(5) {
            db.delete(name, id).unwrap();
        }
        let (tail, dead_main, dead_tail) = db
            .with_table(name, |vt| {
                let o = vt.overlay().expect("pending changes");
                (
                    o.tail.len(),
                    o.dead.iter().any(|d| *d),
                    o.tail_alive.iter().any(|a| !*a),
                )
            })
            .unwrap();
        assert!(tail > 0 && dead_main && dead_tail, "{name}: delta too thin");
    }
    let snap = db.snapshot();
    for _ in 0..12 {
        let (plan, width) = join_plan(&mut rng, &["t0", "t1"]);
        check_join(&plan, width, &snap, &mut rng);
    }
}
