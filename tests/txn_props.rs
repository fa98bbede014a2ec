//! Property tests for the versioned write path: random interleavings of
//! insert / update / delete / merge must agree with a naive
//! `Vec<Option<Row>>` model — exactly, in scan order — and all engines must
//! agree with each other on the resulting state, across layouts.

use mrdb::exec::TableProvider;
use mrdb::prelude::*;
use proptest::prelude::*;

const NCOLS: usize = 4;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("a", DataType::Int32),
        ColumnDef::new("b", DataType::Int64),
        ColumnDef::nullable("f", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
    ])
}

/// One random DML step. Row "hints" index the live set modulo its size.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Value>),
    Update {
        hint: usize,
        col: usize,
        value: Value,
    },
    Delete {
        hint: usize,
    },
    Merge,
    /// Begin a background merge (pin the cut, run the build immediately;
    /// the swap waits for [`Op::FinishMerge`], so every op in between
    /// lands in the replay window). No-op if a build is already pending.
    BeginMerge,
    /// Swap a previously built background merge in — or discard it if a
    /// synchronous [`Op::Merge`] made it stale. No-op without a build.
    FinishMerge,
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        0i32..40,
        -100i64..100,
        proptest::option::of(-50f64..50.0),
        0u8..6,
    )
        .prop_map(|(a, b, f, s)| {
            vec![
                Value::Int32(a),
                Value::Int64(b),
                f.map(Value::Float64).unwrap_or(Value::Null),
                Value::Str(format!("s{s}")),
            ]
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_row().prop_map(Op::Insert),
        (0usize..1000, 0usize..NCOLS, arb_row()).prop_map(|(hint, col, row)| Op::Update {
            hint,
            col,
            value: row[col].clone(),
        }),
        (0usize..1000).prop_map(|hint| Op::Delete { hint }),
        Just(Op::Merge),
        Just(Op::BeginMerge),
        Just(Op::FinishMerge),
    ]
}

/// The naive reference: a vector indexed by row id, `None` = tombstoned.
/// Merge compacts the survivors in order (= the versioned table's scan
/// order) and renumbers.
#[derive(Default)]
struct Model {
    slots: Vec<Option<Vec<Value>>>,
}

impl Model {
    fn live_ids(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect()
    }

    fn rows(&self) -> Vec<Vec<Value>> {
        self.slots.iter().flatten().cloned().collect()
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(row) => self.slots.push(Some(row.clone())),
            Op::Update { hint, col, value } => {
                let live = self.live_ids();
                if live.is_empty() {
                    return;
                }
                let id = live[hint % live.len()];
                let mut row = self.slots[id].take().expect("live");
                row[*col] = value.clone();
                self.slots.push(Some(row));
            }
            Op::Delete { hint } => {
                let live = self.live_ids();
                if live.is_empty() {
                    return;
                }
                self.slots[live[hint % live.len()]] = None;
            }
            Op::Merge => {
                let rows = self.rows();
                self.slots = rows.into_iter().map(Some).collect();
            }
            // Background merges never change content, and hint resolution
            // goes through the live list (scan order, which a swap
            // preserves) — so the model ignores them entirely. That *is*
            // the property: the three-phase pipeline is invisible.
            Op::BeginMerge | Op::FinishMerge => {}
        }
    }
}

fn apply_versioned(t: &mut VersionedTable, build: &mut Option<mrdb::txn::BuiltMain>, op: &Op) {
    match op {
        Op::Insert(row) => {
            t.insert(row).expect("typed rows insert");
        }
        Op::Update { hint, col, value } => {
            let live: Vec<usize> = (0..t.main_len() + t.delta_rows())
                .filter(|&i| t.is_visible(i))
                .collect();
            if live.is_empty() {
                return;
            }
            t.update(live[hint % live.len()], *col, value)
                .expect("update live row");
        }
        Op::Delete { hint } => {
            let live: Vec<usize> = (0..t.main_len() + t.delta_rows())
                .filter(|&i| t.is_visible(i))
                .collect();
            if live.is_empty() {
                return;
            }
            t.delete(live[hint % live.len()]).expect("delete live row");
        }
        Op::Merge => {
            // One cut at a time: a pending build finishes before the next
            // merge begins.
            if let Some(b) = build.take() {
                t.finish_merge(b).expect("finish_merge");
            }
            t.merge().expect("merge");
        }
        Op::BeginMerge => {
            if build.is_some() {
                return;
            }
            let ticket = t.begin_merge();
            let layout = ticket.snapshot().store().layout().clone();
            // build immediately; every op until FinishMerge is replayed
            *build = Some(ticket.build(layout).expect("build"));
        }
        Op::FinishMerge => {
            if let Some(b) = build.take() {
                t.finish_merge(b).expect("finish_merge");
            }
        }
    }
}

fn layouts() -> Vec<Layout> {
    vec![
        Layout::row(NCOLS),
        Layout::column(NCOLS),
        Layout::from_groups(vec![vec![0, 2], vec![1], vec![3]], NCOLS).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_agree_with_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        for layout in layouts() {
            let mut t = VersionedTable::with_layout("t", schema(), layout.clone()).unwrap();
            let mut model = Model::default();
            let mut build = None;
            for op in &ops {
                apply_versioned(&mut t, &mut build, op);
                model.apply(op);
                prop_assert_eq!(t.len(), model.rows().len());
            }
            // exact scan-order agreement with the model
            let got: Vec<Vec<Value>> = t.rows().map(|r| r.0).collect();
            prop_assert_eq!(&got, &model.rows(), "scan order vs model ({})", layout);

            // a bare scan through every engine sees the same rows in the
            // same order (engines read via the overlay, not via rows())
            let scan = QueryBuilder::scan("t").build();
            for kind in EngineKind::all() {
                let out = kind.engine().execute(&scan, &t.snapshot() as &dyn TableProvider).unwrap();
                prop_assert_eq!(&out.rows, &model.rows(), "{:?} scan vs model", kind);
            }

            // filtered aggregation: engines agree with each other on the
            // live state, and with the merged clone
            let agg = QueryBuilder::scan("t")
                .filter(Expr::col(0).lt(Expr::lit(20)))
                .aggregate(
                    vec![Expr::col(3)],
                    vec![
                        AggExpr::count_star(),
                        AggExpr::new(AggFunc::Sum, Expr::col(1)),
                        AggExpr::new(AggFunc::Avg, Expr::col(2)),
                    ],
                )
                .build();
            let mut merged = t.clone();
            merged.merge().unwrap();
            let reference = EngineKind::Compiled
                .engine()
                .execute(&agg, &merged.snapshot() as &dyn TableProvider)
                .unwrap();
            for kind in EngineKind::all() {
                let live_out = kind.engine().execute(&agg, &t.snapshot() as &dyn TableProvider).unwrap();
                reference.assert_same(&live_out, &format!("{kind:?} live vs merged/compiled"));
            }
        }
    }

    #[test]
    fn snapshot_equals_state_at_acquisition(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let mut t = VersionedTable::new("t", schema());
        let mut model = Model::default();
        let mut build = None;
        // split the op stream: snapshot in the middle, keep writing after
        let cut = ops.len() / 2;
        for op in &ops[..cut] {
            apply_versioned(&mut t, &mut build, op);
            model.apply(op);
        }
        let snap = t.snapshot();
        let frozen = model.rows();
        for op in &ops[cut..] {
            apply_versioned(&mut t, &mut build, op);
            model.apply(op);
        }
        let got: Vec<Vec<Value>> = snap.rows().into_iter().map(|r| r.0).collect();
        prop_assert_eq!(got, frozen, "snapshot drifted");
    }
}
