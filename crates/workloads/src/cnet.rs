//! The CNET product-catalog benchmark (§VI-D, Fig. 12, Table V).
//!
//! The CNET data set describes a catalog relation that is very wide (~3 000
//! attributes, one per product property across all categories) but sparsely
//! populated (≈11 non-NULL values per tuple), with a handful of dense
//! columns (`id`, `name`, `category`, `manufacturer`, `price_from`) that
//! every product carries — the schema shape produced by mapping a class
//! hierarchy onto one relation. The paper filled it with a generator built
//! from the data set's reported statistics; so do we.
//!
//! The four queries and their 1 / 1 / 100 / 10 000 frequencies are Table V
//! verbatim.

use crate::BenchQuery;
use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::AggExpr;
use pdsm_storage::{ColumnDef, DataType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Dense column ids.
pub const COL_ID: usize = 0;
pub const COL_NAME: usize = 1;
pub const COL_CATEGORY: usize = 2;
pub const COL_MANUFACTURER: usize = 3;
pub const COL_PRICE_FROM: usize = 4;
/// First sparse attribute column.
pub const FIRST_SPARSE: usize = 5;

/// Product categories; `category = $1` matches about `1/len` of the rows.
pub const CATEGORIES: [&str; 12] = [
    "laptops",
    "desktops",
    "monitors",
    "printers",
    "cameras",
    "phones",
    "tablets",
    "routers",
    "storage",
    "audio",
    "software",
    "accessories",
];

/// Catalog schema: 5 dense columns + `n_attrs` sparse nullable `Int32`
/// attribute columns. The paper's full data set has ~3 000 attributes;
/// generators accept any width so tests can stay small while the harness
/// runs wide.
pub fn schema(n_attrs: usize) -> Schema {
    let mut cols = vec![
        ColumnDef::new("id", DataType::Int32),
        ColumnDef::new("name", DataType::Str),
        ColumnDef::new("category", DataType::Str),
        ColumnDef::new("manufacturer", DataType::Str),
        ColumnDef::nullable("price_from", DataType::Float64),
    ];
    for a in 0..n_attrs {
        cols.push(ColumnDef::nullable(format!("attr_{a:04}"), DataType::Int32));
    }
    Schema::new(cols)
}

/// Generate the catalog: `n` products, `n_attrs` sparse attributes,
/// `set_per_row` non-NULL sparse values per product (the data set reports
/// ≈11). Each category uses its own contiguous band of attributes, as real
/// per-category properties do — this is what makes the sparse region
/// cold for the category-level analytics.
pub fn generate(n: usize, n_attrs: usize, set_per_row: usize, seed: u64) -> Table {
    let mut t = Table::new("PRODUCTS", schema(n_attrs));
    t.reserve(n);
    let mut rng = SmallRng::seed_from_u64(seed);
    let width = FIRST_SPARSE + n_attrs;
    let mut row: Vec<Value> = vec![Value::Null; width];
    for i in 0..n {
        let cat = rng.gen_range(0..CATEGORIES.len());
        row[COL_ID] = Value::Int32(i as i32);
        row[COL_NAME] = Value::Str(format!("{} product {i}", CATEGORIES[cat]));
        row[COL_CATEGORY] = Value::Str(CATEGORIES[cat].into());
        row[COL_MANUFACTURER] = Value::Str(format!("maker-{}", rng.gen_range(0..200)));
        row[COL_PRICE_FROM] = if rng.gen_bool(0.9) {
            Value::Float64(rng.gen_range(500..100_000) as f64 / 100.0)
        } else {
            Value::Null
        };
        for v in row.iter_mut().skip(FIRST_SPARSE) {
            *v = Value::Null;
        }
        if n_attrs > 0 {
            // the category's attribute band
            let band = n_attrs / CATEGORIES.len().min(n_attrs).max(1);
            let start = FIRST_SPARSE + cat * band;
            for _ in 0..set_per_row.min(band.max(1)) {
                let c = start + rng.gen_range(0..band.max(1));
                if c < width {
                    row[c] = Value::Int32(rng.gen_range(0..1_000));
                }
            }
        }
        t.insert(&row).expect("catalog row");
    }
    t
}

/// The Table-V queries with their frequencies. `category` and `price`
/// parameterize queries 2–3; `product_id` parameterizes query 4.
pub fn queries(category: &str, price_bucket: i64, product_id: i32) -> Vec<BenchQuery> {
    let mut qs = Vec::new();

    // 1: category overview. Frequency 1.
    qs.push(BenchQuery::plan(
        "C1",
        QueryBuilder::scan("PRODUCTS")
            .aggregate(vec![Expr::col(COL_CATEGORY)], vec![AggExpr::count_star()])
            .build(),
    ));

    // 2: price-range drill-down within a category. Frequency 1.
    let price_expr = Expr::col(COL_PRICE_FROM)
        .div(Expr::lit(10))
        .mul(Expr::lit(10));
    qs.push(BenchQuery::plan(
        "C2",
        QueryBuilder::scan("PRODUCTS")
            .filter(Expr::col(COL_CATEGORY).eq(Expr::lit(category)))
            .aggregate(vec![price_expr.clone()], vec![AggExpr::count_star()])
            .sort(vec![(Expr::col(0), true)])
            .build(),
    ));

    // 3: product listing for a category + price bucket. Frequency 100.
    qs.push(
        BenchQuery::plan(
            "C3",
            QueryBuilder::scan("PRODUCTS")
                .filter(
                    Expr::col(COL_CATEGORY)
                        .eq(Expr::lit(category))
                        .and(price_expr.eq(Expr::lit(price_bucket))),
                )
                .project(vec![Expr::col(COL_ID), Expr::col(COL_NAME)])
                .build(),
        )
        .with_frequency(100.0),
    );

    // 4: product details page (identity select). Frequency 10 000.
    qs.push(
        BenchQuery::plan(
            "C4",
            QueryBuilder::scan("PRODUCTS")
                .filter(Expr::col(COL_ID).eq(Expr::lit(product_id)))
                .build(),
        )
        .with_frequency(10_000.0),
    );
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
    use std::collections::HashMap;

    fn db(n: usize, attrs: usize) -> HashMap<String, Table> {
        let mut m = HashMap::new();
        m.insert("PRODUCTS".to_string(), generate(n, attrs, 11, 5));
        m
    }

    #[test]
    fn sparsity_matches_reported_statistics() {
        let t = generate(500, 120, 11, 9);
        let mut non_null = 0usize;
        for r in 0..t.len() {
            for c in FIRST_SPARSE..t.schema().len() {
                if t.is_valid(r, c) {
                    non_null += 1;
                }
            }
        }
        let avg = non_null as f64 / t.len() as f64;
        // duplicate draws within the band may collide; allow a band
        assert!(
            (6.0..=11.0).contains(&avg),
            "avg sparse non-NULLs per row = {avg}"
        );
    }

    #[test]
    fn queries_run_identically_on_all_engines() {
        let d = db(400, 60);
        for q in queries("laptops", 40, 123) {
            let plan = q.as_plan().unwrap();
            let c = CompiledEngine.execute(plan, &d).unwrap();
            let v = VolcanoEngine.execute(plan, &d).unwrap();
            c.assert_same(&v, &format!("{} compiled vs volcano", q.name));
        }
    }

    #[test]
    fn identity_select_returns_full_width_row() {
        let d = db(100, 40);
        let out = CompiledEngine
            .execute(queries("laptops", 40, 57)[3].as_plan().unwrap(), &d)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].len(), FIRST_SPARSE + 40);
        assert_eq!(out.rows[0][COL_ID], Value::Int32(57));
    }

    #[test]
    fn category_counts_sum_to_n() {
        let d = db(300, 24);
        let out = CompiledEngine
            .execute(queries("laptops", 40, 0)[0].as_plan().unwrap(), &d)
            .unwrap();
        let total: i64 = out.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn frequencies_match_table_v() {
        let qs = queries("laptops", 40, 0);
        let freqs: Vec<f64> = qs.iter().map(|q| q.frequency).collect();
        assert_eq!(freqs, vec![1.0, 1.0, 100.0, 10_000.0]);
    }
}
