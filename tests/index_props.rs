//! Property tests for the index structures: red–black invariants under
//! arbitrary insertion orders, equivalence with `std` collections as
//! models, and index-path/scan-path agreement at the database level.

use mrdb::index::{HashIndex, RBTree};
use mrdb::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rbtree_invariants_hold_for_any_insertion_order(
        keys in proptest::collection::vec(-5_000i64..5_000, 0..600),
    ) {
        let mut t = RBTree::new();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        t.check_invariants();
        // size = number of distinct keys
        let distinct: std::collections::HashSet<i64> = keys.iter().copied().collect();
        prop_assert_eq!(t.len(), distinct.len());
    }

    #[test]
    fn rbtree_matches_btreemap_model(
        keys in proptest::collection::vec(-1_000i64..1_000, 0..400),
        lo in -1_000i64..1_000,
        span in 0i64..500,
    ) {
        let mut t = RBTree::new();
        let mut model: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
            model.entry(k).or_default().push(i as u32);
        }
        // point lookups
        for &k in keys.iter().take(50) {
            prop_assert_eq!(t.get(k), model[&k].as_slice());
        }
        // range scan
        let hi = lo + span;
        let ours: Vec<(i64, Vec<u32>)> = t.range(lo, hi).map(|(k, v)| (k, v.to_vec())).collect();
        let theirs: Vec<(i64, Vec<u32>)> = model
            .range(lo..=hi)
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        prop_assert_eq!(ours, theirs);
        // extremes
        prop_assert_eq!(t.min_key(), model.keys().next().copied());
        prop_assert_eq!(t.max_key(), model.keys().last().copied());
    }

    #[test]
    fn hash_index_matches_hashmap_model(
        keys in proptest::collection::vec(any::<i64>(), 0..500),
    ) {
        let mut h = HashIndex::new();
        let mut model: HashMap<i64, Vec<u32>> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            if k == i64::MIN {
                continue; // reserved sentinel
            }
            h.insert(k, i as u32);
            model.entry(k).or_default().push(i as u32);
        }
        prop_assert_eq!(h.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(h.get(*k), v.as_slice());
        }
        // absent keys
        prop_assert!(h.get(i64::MIN + 1).is_empty() || model.contains_key(&(i64::MIN + 1)));
    }

    /// The index path is the scan path restricted to the hits: over a
    /// versioned table — tombstoned hits, tail rows carrying the probed
    /// key, a dead tail row, a string key only the tail holds — every
    /// indexed select, with and without a residual conjunct and a
    /// projection, returns the scan's rows in the scan's order.
    #[test]
    fn database_index_path_equals_scan_path(
        keys in proptest::collection::vec(0i32..200, 1..200),
        probe in 0i32..250,
        cut in 0i64..200,
        band in (0i64..200, 0i64..40),
        n_tail in 0i64..6,
        use_rbtree in any::<bool>(),
    ) {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int32),
                ColumnDef::new("v", DataType::Int64),
                ColumnDef::new("s", DataType::Str),
            ]),
        )
        .unwrap();
        let tag = |k: i32| Value::Str(format!("s{}", k % 7));
        for (i, &k) in keys.iter().enumerate() {
            db.insert("t", &[Value::Int32(k), Value::Int64(i as i64), tag(k)]).unwrap();
        }
        db.merge("t").unwrap();
        let kind = if use_rbtree { IndexKind::RBTree } else { IndexKind::Hash };
        db.create_index("t", "k", kind).unwrap();
        db.create_index("t", "s", kind).unwrap();
        // Tombstones: the probed key's hits below `cut`, and a band of
        // rows whatever their key.
        let probed = Expr::col(0).eq(Expr::lit(probe));
        db.delete_where("t", Some(&probed.clone().and(Expr::col(1).lt(Expr::lit(cut)))))
            .unwrap();
        let (lo, len) = band;
        let in_band = Expr::col(1).ge(Expr::lit(lo)).and(Expr::col(1).lt(Expr::lit(lo + len)));
        db.delete_where("t", Some(&in_band)).unwrap();
        // Tail rows: the probed key (one of them deleted again), a key
        // only the tail holds, and the probed key's surviving main rows
        // above `cut + 20` moved to the tail by an update.
        for j in 0..n_tail {
            db.insert("t", &[Value::Int32(probe), Value::Int64(1_000 + j), tag(probe)]).unwrap();
            db.insert("t", &[Value::Int32(300), Value::Int64(2_000 + j), Value::from("tail-only")])
                .unwrap();
        }
        db.delete_where("t", Some(&Expr::col(1).eq(Expr::lit(1_001i64)))).unwrap();
        let moved = probed.clone().and(Expr::col(1).gt(Expr::lit(cut + 20)));
        db.update_where("t", &[("v".to_string(), Value::Int64(-1))], Some(&moved)).unwrap();

        let select = |pred: Expr, project: Option<Vec<Expr>>| {
            let q = QueryBuilder::scan("t").filter(pred);
            match project {
                Some(exprs) => q.project(exprs).build(),
                None => q.build(),
            }
        };
        let mut plans = vec![
            ("eq", select(probed.clone(), None)),
            (
                "eq + residual + projection",
                select(
                    probed.clone().and(Expr::col(1).ge(Expr::lit(cut / 2))),
                    Some(vec![Expr::col(2), Expr::col(1).add(Expr::lit(1i64))]),
                ),
            ),
            (
                "tail-only string",
                select(Expr::col(2).eq(Expr::lit("tail-only")), Some(vec![Expr::col(1)])),
            ),
            (
                "main string + residual",
                select(
                    Expr::col(2).eq(Expr::lit(format!("s{}", probe % 7))).and(Expr::col(1).lt(Expr::lit(cut))),
                    Some(vec![Expr::col(1), Expr::col(0)]),
                ),
            ),
        ];
        if use_rbtree {
            plans.push((
                "range + residual + projection",
                select(
                    Expr::col(0).le(Expr::lit(probe)).and(Expr::col(2).ne(Expr::lit("s0"))),
                    Some(vec![Expr::col(1), Expr::col(2)]),
                ),
            ));
        }
        for (what, plan) in &plans {
            let indexed = db.run_indexed(plan, EngineKind::Compiled).unwrap();
            let scanned = db.run(plan, EngineKind::Compiled).unwrap();
            prop_assert_eq!(&indexed.rows, &scanned.rows, "{}", what);
            prop_assert_eq!(&indexed.columns, &scanned.columns, "{}", what);
        }
    }
}
