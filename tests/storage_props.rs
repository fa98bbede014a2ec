//! Property tests for the storage substrate: relayouting is lossless for
//! *arbitrary* layouts, dictionary codes are stable, and typed readers
//! agree with decoded access — the invariants DESIGN.md §7 promises — and
//! a checkpoint blob's seal writes the row-by-row zone map.

use mrdb::prelude::*;
use mrdb::storage::{ColZone, ZoneBlock, ZoneMap, ZONE_BLOCK_ROWS};
use proptest::prelude::*;

const NCOLS: usize = 7;

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("i32a", DataType::Int32),
        ColumnDef::new("i64b", DataType::Int64),
        ColumnDef::nullable("f64c", DataType::Float64),
        ColumnDef::new("strd", DataType::Str),
        ColumnDef::nullable("i32e", DataType::Int32),
        ColumnDef::nullable("strf", DataType::Str),
        ColumnDef::new("i32g", DataType::Int32),
    ])
}

/// Random partition of 0..NCOLS into groups, driven by a group-id vector.
fn arb_layout() -> impl Strategy<Value = Layout> {
    proptest::collection::vec(0usize..NCOLS, NCOLS).prop_map(|assignment| {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); NCOLS];
        for (col, &g) in assignment.iter().enumerate() {
            groups[g].push(col);
        }
        groups.retain(|g| !g.is_empty());
        Layout::from_groups(groups, NCOLS).expect("constructed cover")
    })
}

/// Random rows matching the schema.
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = (
        any::<i32>(),
        any::<i64>(),
        proptest::option::of(-1e6f64..1e6),
        0u8..20,
        proptest::option::of(any::<i32>()),
        proptest::option::of(0u8..10),
        any::<i32>(),
    )
        .prop_map(|(a, b, c, d, e, f, g)| {
            vec![
                Value::Int32(a),
                Value::Int64(b),
                c.map(Value::Float64).unwrap_or(Value::Null),
                Value::Str(format!("str-{d}")),
                e.map(Value::Int32).unwrap_or(Value::Null),
                f.map(|x| Value::Str(format!("tag-{x}")))
                    .unwrap_or(Value::Null),
                Value::Int32(g),
            ]
        });
    proptest::collection::vec(row, 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn relayout_roundtrip_is_lossless(rows in arb_rows(), l1 in arb_layout(), l2 in arb_layout()) {
        let mut t = Table::with_layout("t", schema(), l1).unwrap();
        for r in &rows {
            t.insert(r).unwrap();
        }
        let relaid = t.relayout(l2).unwrap();
        prop_assert_eq!(t.len(), relaid.len());
        for i in 0..t.len() {
            prop_assert_eq!(t.row(i).unwrap(), relaid.row(i).unwrap(), "row {}", i);
        }
        // and back again
        let back = relaid.relayout(t.layout().clone()).unwrap();
        for i in 0..t.len() {
            prop_assert_eq!(t.row(i).unwrap(), back.row(i).unwrap());
        }
    }

    #[test]
    fn dictionary_codes_stable_across_relayout(rows in arb_rows(), l in arb_layout()) {
        let mut t = Table::with_layout("t", schema(), Layout::row(NCOLS)).unwrap();
        for r in &rows {
            t.insert(r).unwrap();
        }
        let relaid = t.relayout(l).unwrap();
        let (a, b) = (t.str_code_reader(3), relaid.str_code_reader(3));
        for i in 0..t.len() {
            prop_assert_eq!(a.get(i), b.get(i), "code at row {}", i);
        }
    }

    #[test]
    fn typed_readers_agree_with_decoded_values(rows in arb_rows(), l in arb_layout()) {
        let mut t = Table::with_layout("t", schema(), l).unwrap();
        for r in &rows {
            t.insert(r).unwrap();
        }
        let (r0, r1, r6) = (t.i32_reader(0), t.i64_reader(1), t.i32_reader(6));
        for i in 0..t.len() {
            prop_assert_eq!(Value::Int32(r0.get(i)), t.get(i, 0).unwrap());
            prop_assert_eq!(Value::Int64(r1.get(i)), t.get(i, 1).unwrap());
            prop_assert_eq!(Value::Int32(r6.get(i)), t.get(i, 6).unwrap());
            // nullable float: reader value only meaningful when valid
            if t.is_valid(i, 2) {
                prop_assert_eq!(Value::Float64(t.f64_reader(2).get(i)), t.get(i, 2).unwrap());
            } else {
                prop_assert_eq!(t.get(i, 2).unwrap(), Value::Null);
            }
        }
    }

    #[test]
    fn byte_size_accounts_all_partitions(rows in arb_rows(), l in arb_layout()) {
        let mut t = Table::with_layout("t", schema(), l).unwrap();
        for r in &rows {
            t.insert(r).unwrap();
        }
        let per_partition: usize = t.partitions().iter().map(|p| p.byte_size()).sum();
        prop_assert_eq!(t.byte_size(), per_partition);
        let strides: usize = t.partitions().iter().map(|p| p.stride()).sum();
        prop_assert_eq!(per_partition, strides * t.len());
    }

    #[test]
    fn updates_visible_under_any_layout(rows in arb_rows(), l in arb_layout(), v in any::<i32>()) {
        prop_assume!(!rows.is_empty());
        let mut t = Table::with_layout("t", schema(), l).unwrap();
        for r in &rows {
            t.insert(r).unwrap();
        }
        let target = rows.len() / 2;
        t.update(target, 0, &Value::Int32(v)).unwrap();
        t.update(target, 2, &Value::Null).unwrap();
        prop_assert_eq!(t.get(target, 0).unwrap(), Value::Int32(v));
        prop_assert_eq!(t.get(target, 2).unwrap(), Value::Null);
        // neighbours untouched
        if target > 0 {
            prop_assert_eq!(&t.row(target - 1).unwrap().0[..], &rows[target - 1][..]);
        }
    }
}

/// Numeric and string columns, nullable and not, for the seal's tests.
fn zone_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("a", DataType::Int32),
        ColumnDef::nullable("b", DataType::Int64),
        ColumnDef::nullable("f", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::nullable("n", DataType::Int32),
        ColumnDef::new("g", DataType::Float64),
        ColumnDef::new("h", DataType::Int64),
    ])
}

/// A value of `ty`: NULL one time in five where allowed; then, when
/// `edges`, NaN, ±0.0 and the integer extremes often, else only values
/// above zero (so a NULL's stored bytes, if folded, would show as a
/// bound).
fn edge_value(rng: &mut rand::rngs::SmallRng, ty: DataType, nullable: bool, edges: bool) -> Value {
    use rand::Rng;
    if nullable && rng.gen_range(0..5) == 0 {
        return Value::Null;
    }
    let pick = if edges { rng.gen_range(0..8) } else { 8 };
    match ty {
        DataType::Int32 => Value::Int32(match pick {
            0 => i32::MIN,
            1 => i32::MAX,
            2 => 0,
            3..8 => rng.gen_range(-1000..1000),
            _ => rng.gen_range(1..1000),
        }),
        DataType::Int64 => Value::Int64(match pick {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -1,
            3..8 => rng.gen_range(-1_000_000..1_000_000),
            _ => rng.gen_range(1..1_000_000),
        }),
        DataType::Float64 => Value::Float64(match pick {
            0 => f64::NAN,
            1 => 0.0,
            2 => -0.0,
            3 => f64::INFINITY,
            4..8 => rng.gen_range(-1e3..1e3),
            _ => rng.gen_range(1.0..1e3),
        }),
        DataType::Str => Value::Str(format!("v{}", rng.gen_range(0..30))),
    }
}

/// The zone map of `t` computed row by row through `Table::get`: per
/// numeric column and 1 024-row block, the bounds of its non-NULL values
/// (unbounded where a NaN is among them, 0 where there is no value).
fn naive_zones(t: &Table) -> Vec<ColZone> {
    let blocks = t.len().div_ceil(ZONE_BLOCK_ROWS);
    let range = |b: usize| b * ZONE_BLOCK_ROWS..((b + 1) * ZONE_BLOCK_ROWS).min(t.len());
    let presence = |c: usize, b: usize| {
        let nulls = range(b).filter(|&r| t.get(r, c).unwrap().is_null()).count();
        (nulls > 0, nulls < range(b).len())
    };
    (0..t.schema().len())
        .map(|c| match t.schema().columns()[c].ty {
            DataType::Str => ColZone::Skipped,
            DataType::Float64 => ColZone::Float(
                (0..blocks)
                    .map(|b| {
                        let vals: Vec<f64> =
                            (range(b).filter_map(|r| t.get(r, c).unwrap().as_f64())).collect();
                        let (has_null, has_value) = presence(c, b);
                        let (min, max) = if vals.iter().any(|v| v.is_nan()) {
                            (f64::NEG_INFINITY, f64::INFINITY)
                        } else if vals.is_empty() {
                            (0.0, 0.0)
                        } else {
                            (
                                vals.iter().copied().fold(f64::INFINITY, f64::min),
                                vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                            )
                        };
                        ZoneBlock {
                            min,
                            max,
                            has_null,
                            has_value,
                        }
                    })
                    .collect(),
            ),
            _ => ColZone::Int(
                (0..blocks)
                    .map(|b| {
                        let vals: Vec<i64> =
                            (range(b).filter_map(|r| t.get(r, c).unwrap().as_i64())).collect();
                        let (has_null, has_value) = presence(c, b);
                        ZoneBlock {
                            min: vals.iter().copied().min().unwrap_or(0),
                            max: vals.iter().copied().max().unwrap_or(0),
                            has_null,
                            has_value,
                        }
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// Row counts at the zone-block edges, and several extents with a short
/// tail at either extent size.
const SEAL_ROWS: [usize; 7] = [0, 1, 1023, 1024, 1025, 3 * 1024 + 17, 9000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The zone map a blob's seal writes into its header, and
    /// `ZoneMap::build`, both equal the row-by-row reference; the sealed
    /// CRCs load; and a table whose zone map is cached (sealed by checksum
    /// only) writes the same bytes.
    #[test]
    fn the_seal_writes_the_row_by_row_zone_map(
        size in 0usize..SEAL_ROWS.len(),
        shape in 0usize..3,
        random in arb_layout(),
        extent_rows in prop_oneof![Just(1024usize), Just(4096usize)],
        edges in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use mrdb::storage::persist;
        use rand::SeedableRng;
        let layout = match shape {
            0 => Layout::row(NCOLS),
            1 => Layout::column(NCOLS),
            _ => random,
        };
        let schema = zone_schema();
        let mut t = Table::with_layout("z", schema.clone(), layout).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..SEAL_ROWS[size] {
            let row: Vec<Value> = (schema.columns().iter())
                .map(|c| edge_value(&mut rng, c.ty, c.nullable, edges))
                .collect();
            t.insert(&row).unwrap();
        }
        let want = naive_zones(&t);
        prop_assert_eq!(ZoneMap::build(&t).cols(), &want[..]);
        let sealed = t.clone();
        let blob = persist::to_bytes_extents(&sealed, 1, extent_rows);
        let h = persist::read_header(&blob).unwrap();
        prop_assert_eq!(h.zones.as_ref().unwrap().cols(), &want[..]);
        prop_assert_eq!(sealed.zone_map().cols(), &want[..]);
        let (back, _) = persist::from_bytes(&blob).unwrap();
        prop_assert_eq!(back.len(), t.len());
        let warm = t.clone();
        warm.zone_map();
        prop_assert!(persist::to_bytes_extents(&warm, 1, extent_rows) == blob);
    }
}

/// The pinned table: 3 000 rows (two whole 1 024-row extents and a short
/// one) in three layout groups, with NULLs, an all-NULL block, NaNs, ±0.0
/// ties and the integer extremes.
fn golden_table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::new("k", DataType::Int32),
        ColumnDef::nullable("big", DataType::Int64),
        ColumnDef::nullable("x", DataType::Float64),
        ColumnDef::new("s", DataType::Str),
        ColumnDef::nullable("n", DataType::Int32),
        ColumnDef::new("y", DataType::Float64),
    ]);
    let layout = Layout::from_groups(vec![vec![0, 2], vec![1, 3, 5], vec![4]], 6).unwrap();
    let mut t = Table::with_layout("golden", schema, layout).unwrap();
    for i in 0..3000i64 {
        let k = match i {
            17 => i32::MIN,
            2999 => i32::MAX,
            _ => ((i * 7919) % 2003 - 1000) as i32,
        };
        let big = match i {
            1 => Value::Int64(i64::MIN),
            2 => Value::Int64(i64::MAX),
            _ if i % 5 == 0 => Value::Null,
            _ => Value::Int64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)),
        };
        let x = match i {
            _ if i % 7 == 0 => Value::Null,
            _ if i % 97 == 3 => Value::Float64(f64::NAN),
            _ if i % 11 == 0 => Value::Float64(-0.0),
            _ if i % 13 == 0 => Value::Float64(0.0),
            _ => Value::Float64(((i * 37) % 1000) as f64 / 8.0 - 60.0),
        };
        let n = if (1024..2048).contains(&i) {
            Value::Null
        } else {
            Value::Int32(i as i32 - 1500)
        };
        let y = match i % 3 {
            0 => -0.0,
            1 => 0.0,
            _ if i >= 2048 => 0.0,
            _ => i as f64 / 8.0,
        };
        t.insert(&[
            Value::Int32(k),
            big,
            x,
            Value::Str(format!("s{}", i % 37)),
            n,
            Value::Float64(y),
        ])
        .unwrap();
    }
    t
}

/// The blob of one fixed table keeps its bytes, zone map and CRC
/// directory included: length and CRC-32 as the per-column zone build and
/// separate checksum walk wrote it, before the seal.
#[test]
fn a_generated_table_blob_is_pinned() {
    use mrdb::storage::{crc32, persist};
    let blob = persist::to_bytes_extents(&golden_table(), 7, ZONE_BLOCK_ROWS);
    assert_eq!((blob.len(), crc32(&blob)), (140_104, 0xf853_6a3e));
}
