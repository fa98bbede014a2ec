//! Property tests for the index: the sorted index against a `BTreeMap`
//! model, and index-path/scan-path agreement at the database level.

use mrdb::index::SortedIndex;
use mrdb::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Mostly small keys, with many duplicates, and the two `i64` extremes.
fn key() -> impl Strategy<Value = i64> {
    (0u8..12, -300i64..300).prop_map(|(pick, k)| match pick {
        0 => i64::MIN,
        1 => i64::MAX,
        _ => k,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Points, ranges (inverted, unbounded, saturated strict bounds as the
    /// planner forms them) and key counts agree with a `BTreeMap` of
    /// ascending row lists, whatever order the pairs arrive in.
    #[test]
    fn sorted_index_matches_btreemap_model(
        keys in proptest::collection::vec(key(), 0..400),
        reversed in any::<bool>(),
        probes in proptest::collection::vec(key(), 1..24),
        bounds in proptest::collection::vec((key(), key()), 1..24),
    ) {
        let mut pairs: Vec<(i64, u32)> =
            keys.iter().enumerate().map(|(i, &k)| (k, i as u32)).collect();
        if reversed {
            pairs.reverse();
        }
        let idx = SortedIndex::from_pairs(pairs);
        let mut model: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            model.entry(k).or_default().push(i as u32);
        }
        prop_assert_eq!(idx.key_count(), model.len());
        for (k, rows) in &model {
            prop_assert_eq!(idx.lookup(*k), rows.as_slice());
        }
        for &k in &probes {
            let want = model.get(&k).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(idx.lookup(k), want);
            // `< k` and `> k`, as the planner saturates them.
            for (lo, hi) in [(i64::MIN, k.saturating_sub(1)), (k.saturating_add(1), i64::MAX)] {
                bounds_agree(&idx, &model, lo, hi);
            }
        }
        for &(lo, hi) in &bounds {
            bounds_agree(&idx, &model, lo, hi);
        }
        bounds_agree(&idx, &model, i64::MIN, i64::MAX);
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

/// `lookup_range(lo, hi)` is the model's `lo..=hi` flattened in key order
/// (nothing when `lo > hi`).
fn bounds_agree(idx: &SortedIndex, model: &BTreeMap<i64, Vec<u32>>, lo: i64, hi: i64) {
    let want: Vec<u32> = if lo > hi {
        Vec::new()
    } else {
        model
            .range(lo..=hi)
            .flat_map(|(_, r)| r.iter().copied())
            .collect()
    };
    prop_assert_eq!(
        idx.lookup_range(lo, hi),
        want.as_slice(),
        "[{}, {}]",
        lo,
        hi
    );
}
