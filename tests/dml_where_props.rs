//! Property test for predicate DML: random interleavings of
//! `update_where` (1–3 `SET` columns), `delete_where`, `insert_batch` and
//! `merge`, across row / column / PDSM layouts, must agree with a naive
//! `Vec<Option<Row>>` model that applies `Expr::eval_bool` to each visible
//! row in id order — the semantics predicate DML had before it ran the
//! pipeline core's survivor loop. After every statement the affected-row
//! count matches and a full-table scan is byte-identical, in order, on
//! every engine; a durable twin fed the same statements and reopened from
//! its WAL equals the live table.
//!
//! The predicates cover int/float/string equality and ranges, `LIKE`,
//! `IS NULL`, `AND`/`OR` over NULL-bearing columns, values only tail rows
//! carry, rows an earlier statement already tombstoned, and no predicate.

use mrdb::prelude::*;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The scan counters are process-wide: the pruning witness below needs the
/// property test (same binary, another thread) to hold still.
static SERIAL: Mutex<()> = Mutex::new(());
static CASE: AtomicU64 = AtomicU64::new(0);

const NCOLS: usize = 5;
/// Seeded main-store rows: `k` ascends `0..MAIN_ROWS`, so range predicates
/// on it are clustered and zone maps refute most blocks.
const MAIN_ROWS: i32 = 2500;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::new("v", DataType::Int64),
        ColumnDef::nullable("f", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::nullable("t", DataType::Str),
    ])
}

fn layout_for(sel: usize) -> Layout {
    match sel % 3 {
        0 => Layout::row(NCOLS),
        1 => Layout::column(NCOLS),
        _ => Layout::from_groups(vec![vec![0, 1], vec![2], vec![3, 4]], NCOLS).unwrap(),
    }
}

fn seed_row(i: i32) -> Vec<Value> {
    vec![
        Value::Int32(i),
        Value::Int64((i as i64 * 7) % 100),
        if i % 5 == 0 {
            Value::Null
        } else {
            Value::Float64((i % 40) as f64 * 0.5)
        },
        Value::Str(format!("s{}", i % 6)),
        match i % 3 {
            0 => Value::Null,
            1 => Value::Str(format!("t{}a", i % 4)),
            _ => Value::Str(format!("t{}b", i % 4)),
        },
    ]
}

fn seed_table(layout: Layout) -> Table {
    let mut t = Table::with_layout("T", schema(), layout).unwrap();
    for i in 0..MAIN_ROWS {
        t.insert(&seed_row(i)).unwrap();
    }
    t
}

fn maint_off() -> MaintenanceConfig {
    MaintenanceConfig {
        mode: MaintenanceMode::Off,
        ..MaintenanceConfig::default()
    }
}

fn case_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("pdsm-dml-where-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_durable(dir: &Path) -> Database {
    Database::open_with(
        DurabilityConfig::new(dir).with_fsync(FsyncMode::Off),
        maint_off(),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Vec<Value>>),
    Update(Vec<(usize, Value)>, Option<Expr>),
    Delete(Option<Expr>),
    Merge,
}

fn arb_f() -> impl Strategy<Value = Value> {
    proptest::option::of(0i32..40)
        .prop_map(|f| f.map_or(Value::Null, |x| Value::Float64(x as f64 * 0.5)))
}

fn arb_s() -> impl Strategy<Value = Value> {
    // s6..s8 never occur in the seeded main store's dictionary.
    (0u8..9).prop_map(|s| Value::Str(format!("s{s}")))
}

fn arb_t() -> impl Strategy<Value = Value> {
    proptest::option::of((0u8..5, 0u8..2)).prop_map(|t| {
        t.map_or(Value::Null, |(n, ab)| {
            Value::Str(format!("t{n}{}", if ab == 0 { 'a' } else { 'b' }))
        })
    })
}

/// Inserted rows carry keys past the seeded range: `k >= MAIN_ROWS`
/// selects tail-only rows until a merge folds them in.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        MAIN_ROWS..MAIN_ROWS + 200,
        0i64..100,
        arb_f(),
        arb_s(),
        arb_t(),
    )
        .prop_map(|(k, v, f, s, t)| vec![Value::Int32(k), Value::Int64(v), f, s, t])
}

fn arb_set() -> impl Strategy<Value = (usize, Value)> {
    prop_oneof![
        (0i32..MAIN_ROWS + 200).prop_map(|k| (0, Value::Int32(k))),
        (0i64..100).prop_map(|v| (1, Value::Int64(v))),
        arb_f().prop_map(|f| (2, f)),
        arb_s().prop_map(|s| (3, s)),
        arb_t().prop_map(|t| (4, t)),
    ]
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    let k = || Expr::col(0);
    prop_oneof![
        (0i32..MAIN_ROWS + 200).prop_map(move |c| k().eq(Expr::lit(c))),
        (0i32..MAIN_ROWS + 200).prop_map(move |c| k().lt(Expr::lit(c))),
        (0i32..MAIN_ROWS + 200).prop_map(move |c| k().ge(Expr::lit(c))),
        (0i32..MAIN_ROWS + 200, 1i32..300)
            .prop_map(move |(a, w)| k().ge(Expr::lit(a)).and(k().lt(Expr::lit(a + w)))),
        (0i64..100).prop_map(|c| Expr::col(1).eq(Expr::lit(c))),
        (0i64..100).prop_map(|c| Expr::col(1).gt(Expr::lit(c))),
        (0i32..40).prop_map(|c| Expr::col(2).eq(Expr::lit(c as f64 * 0.5))),
        (0i32..40).prop_map(|c| Expr::col(2).lt(Expr::lit(c as f64 * 0.5))),
        arb_s().prop_map(|s| Expr::col(3).eq(Expr::Lit(s))),
        (0u8..9).prop_map(|d| Expr::col(3).like(format!("%{d}"))),
        Just(Expr::col(3).like("s_")),
        (0u8..5).prop_map(|d| Expr::col(4).like(format!("t{d}%"))),
        Just(Expr::col(4).like("%a")),
        Just(Expr::col(2).is_null()),
        Just(Expr::col(4).is_null()),
        Just(Expr::col(4).is_null().not()),
    ]
}

fn arb_pred() -> impl Strategy<Value = Option<Expr>> {
    prop_oneof![
        Just(None),
        arb_leaf().prop_map(Some),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Some(a.and(b))),
        (arb_leaf(), arb_leaf()).prop_map(|(a, b)| Some(a.or(b))),
        (arb_leaf(), arb_leaf(), arb_leaf()).prop_map(|(a, b, c)| Some(a.and(b).or(c))),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec(arb_row(), 1..5).prop_map(Op::Insert),
        // listed twice: updates carry the most structure, weight them up
        (proptest::collection::vec(arb_set(), 1..4), arb_pred())
            .prop_map(|(sets, pred)| Op::Update(sets, pred)),
        (proptest::collection::vec(arb_set(), 1..4), arb_pred())
            .prop_map(|(sets, pred)| Op::Update(sets, pred)),
        arb_pred().prop_map(Op::Delete),
        Just(Op::Merge),
    ]
}

/// The reference: a vector indexed by row id, `None` = tombstoned.
struct Model {
    slots: Vec<Option<Vec<Value>>>,
}

impl Model {
    fn rows(&self) -> Vec<Vec<Value>> {
        self.slots.iter().flatten().cloned().collect()
    }

    /// Ids of the visible rows `pred` holds for, in id order.
    fn matching(&self, pred: Option<&Expr>) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&id| {
                self.slots[id]
                    .as_ref()
                    .is_some_and(|row| pred.is_none_or(|p| p.eval_bool(row)))
            })
            .collect()
    }

    /// Apply `op`; returns the affected-row count of a predicate statement.
    fn apply(&mut self, op: &Op) -> Option<usize> {
        match op {
            Op::Insert(rows) => {
                self.slots.extend(rows.iter().cloned().map(Some));
                None
            }
            Op::Update(sets, pred) => {
                let ids = self.matching(pred.as_ref());
                for &id in &ids {
                    // one tombstone + re-append per row, whatever it sets
                    let mut row = self.slots[id].take().expect("visible");
                    for (c, v) in sets {
                        row[*c] = v.clone();
                    }
                    self.slots.push(Some(row));
                }
                Some(ids.len())
            }
            Op::Delete(pred) => {
                let ids = self.matching(pred.as_ref());
                for &id in &ids {
                    self.slots[id] = None;
                }
                Some(ids.len())
            }
            Op::Merge => {
                self.slots = self.rows().into_iter().map(Some).collect();
                None
            }
        }
    }
}

fn apply_db(db: &Database, op: &Op) -> Option<usize> {
    match op {
        Op::Insert(rows) => {
            db.insert_batch("T", rows).unwrap();
            None
        }
        Op::Update(sets, pred) => {
            let names = ["k", "v", "f", "s", "t"];
            let sets: Vec<(String, Value)> = sets
                .iter()
                .map(|(c, v)| (names[*c].to_string(), v.clone()))
                .collect();
            Some(db.update_where("T", &sets, pred.as_ref()).unwrap())
        }
        Op::Delete(pred) => Some(db.delete_where("T", pred.as_ref()).unwrap()),
        Op::Merge => {
            db.merge("T").unwrap();
            None
        }
    }
}

/// A full-table scan on every engine equals the model, rows in order.
fn assert_scan_matches(db: &Database, model: &Model, ctx: &str) {
    let scan = QueryBuilder::scan("T").build();
    let expected = model.rows();
    for kind in EngineKind::all() {
        let out = db.run(&scan, kind).unwrap();
        prop_assert_eq!(&out.rows, &expected, "{}: {:?} scan vs model", ctx, kind);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn predicate_dml_agrees_with_the_row_at_a_time_model(
        layout_sel in 0usize..3,
        ops in proptest::collection::vec(arb_op(), 1..14),
    ) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let layout = layout_for(layout_sel);
        let live = Database::with_maintenance(maint_off());
        live.register(seed_table(layout.clone()));
        let dir = case_dir();
        let twin = open_durable(&dir);
        twin.register(seed_table(layout));
        let mut model = Model {
            slots: (0..MAIN_ROWS).map(|i| Some(seed_row(i))).collect(),
        };

        for (i, op) in ops.iter().enumerate() {
            let expected = model.apply(op);
            prop_assert_eq!(apply_db(&live, op), expected, "op {} {:?}: count", i, op);
            prop_assert_eq!(apply_db(&twin, op), expected, "op {} {:?}: twin count", i, op);
            assert_scan_matches(&live, &model, &format!("after op {i} {op:?}"));
        }

        // Reopened from its WAL (cold, when the environment configures a
        // pool), the twin equals the live table — and keeps agreeing under
        // further predicate DML.
        drop(twin);
        let twin = open_durable(&dir);
        assert_scan_matches(&twin, &model, "reopened twin");
        let tail = [
            Op::Update(
                vec![(1, Value::Int64(-1)), (3, Value::from("s-late"))],
                Some(Expr::col(0).ge(Expr::lit(MAIN_ROWS - 40)).or(Expr::col(4).is_null())),
            ),
            Op::Delete(Some(Expr::col(3).eq(Expr::lit("s-late")).and(Expr::col(0).lt(Expr::lit(600))))),
        ];
        for op in &tail {
            let expected = model.apply(op);
            prop_assert_eq!(apply_db(&live, op), expected, "tail {:?}: count", op);
            prop_assert_eq!(apply_db(&twin, op), expected, "tail {:?}: twin count", op);
        }
        assert_scan_matches(&live, &model, "live after tail");
        assert_scan_matches(&twin, &model, "reopened twin after tail");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The witness that predicate DML runs the shared survivor loop: a
/// clustered-key `DELETE … WHERE` refutes whole zone blocks, and the
/// process-wide scan counters see it.
#[test]
fn clustered_delete_where_prunes_zone_blocks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let db = Database::with_maintenance(maint_off());
    db.register(seed_table(Layout::column(NCOLS)));
    let before = db.scan_stats();
    let pred = Expr::col(0).ge(Expr::lit(MAIN_ROWS - 100));
    assert_eq!(db.delete_where("T", Some(&pred)).unwrap(), 100);
    let after = db.scan_stats();
    // 2500 rows = three 1024-row zone blocks; only the last can match.
    assert_eq!(after.partitions_pruned - before.partitions_pruned, 2);
    assert_eq!(after.partitions_scanned - before.partitions_scanned, 1);
    // A second run finds the rows tombstoned: same pruning, nothing to do.
    assert_eq!(db.delete_where("T", Some(&pred)).unwrap(), 0);
    assert_eq!(
        db.scan_stats().partitions_pruned - before.partitions_pruned,
        4
    );
}

/// A multi-row `UPDATE` on a pooled table reads each matched row while the
/// match has its extent pinned: at the default 64K-row extents and a
/// quarter of the data's size in pool budget, the statement pins every
/// extent — one frame each, all layout groups — exactly once however many
/// rows match. (Reading the rows back one `get` at a time materialized a
/// whole extent per matched row — 23× slower than hydrating the table.)
#[test]
fn cold_multi_row_update_pins_each_extent_once() {
    use mrdb::core::BufferPool;
    use mrdb::workloads::microbench;
    let n = 150_000;
    let dir = case_dir();
    open_durable(&dir).register(microbench::generate(n, 0.05, microbench::pdsm_layout(), 9));
    let budget = open_durable(&dir).byte_size() / 4;
    let db = Database::open_with_pool(
        DurabilityConfig::new(&dir).with_fsync(FsyncMode::Off),
        maint_off(),
        Some(BufferPool::new(budget)),
    )
    .unwrap();
    let frames = db
        .with_table("R", |vt| {
            let cold = vt.store().cold().expect("opened through a pool");
            cold.n_extents()
        })
        .unwrap();
    assert!(frames > 1, "one extent would hide a per-row fault");

    let sets = [("B".to_string(), Value::Int32(7))];
    let pred = Expr::col(0).eq(Expr::lit(0));
    let hit = db.update_where("R", &sets, Some(&pred)).unwrap();
    assert!(hit > n / 40, "5 % of the rows match, in every extent");
    let stats = db.pool_stats().expect("pooled");
    assert_eq!((stats.hits + stats.misses) as usize, frames);
    assert_eq!(stats.pinned_frames, 0);
    assert!(db
        .with_table("R", |vt| vt.store().cold().is_some())
        .unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}
