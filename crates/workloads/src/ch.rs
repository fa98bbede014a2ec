//! The CH-benchmark (§VI-C, Fig. 11): TPC-C's transactional schema with
//! TPC-H-style analytical queries on top (Cole et al., DBTest '11).
//!
//! The paper evaluates queries 1–6, 8 and 10. CH queries that use operators
//! outside this engine's vocabulary (correlated EXISTS subqueries, scalar
//! subqueries in predicates) are reduced to their join/aggregation cores —
//! each reduction is noted on the query and in DESIGN.md. Cardinalities and
//! layout sensitivity (the properties Fig. 11 depends on) are preserved.
//!
//! Dates are `i32` in `yyyymmdd` form.

use crate::BenchQuery;
use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc};
use pdsm_storage::{ColumnDef, DataType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `WAREHOUSE(w_id, w_name, w_street_1, w_city, w_state, w_zip, w_tax, w_ytd)`
pub fn warehouse_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("w_id", DataType::Int32),
        ColumnDef::new("w_name", DataType::Str),
        ColumnDef::new("w_street_1", DataType::Str),
        ColumnDef::new("w_city", DataType::Str),
        ColumnDef::new("w_state", DataType::Str),
        ColumnDef::new("w_zip", DataType::Str),
        ColumnDef::new("w_tax", DataType::Float64),
        ColumnDef::new("w_ytd", DataType::Float64),
    ])
}

/// `DISTRICT` (10 per warehouse).
pub fn district_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("d_id", DataType::Int32),
        ColumnDef::new("d_w_id", DataType::Int32),
        ColumnDef::new("d_name", DataType::Str),
        ColumnDef::new("d_city", DataType::Str),
        ColumnDef::new("d_state", DataType::Str),
        ColumnDef::new("d_tax", DataType::Float64),
        ColumnDef::new("d_ytd", DataType::Float64),
        ColumnDef::new("d_next_o_id", DataType::Int32),
    ])
}

/// `CUSTOMER` (3000 per district in TPC-C; scaled down here).
pub fn customer_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("c_id", DataType::Int32),
        ColumnDef::new("c_d_id", DataType::Int32),
        ColumnDef::new("c_w_id", DataType::Int32),
        ColumnDef::new("c_first", DataType::Str),
        ColumnDef::new("c_last", DataType::Str),
        ColumnDef::new("c_street_1", DataType::Str),
        ColumnDef::new("c_city", DataType::Str),
        ColumnDef::new("c_state", DataType::Str),
        ColumnDef::new("c_zip", DataType::Str),
        ColumnDef::new("c_phone", DataType::Str),
        ColumnDef::new("c_since", DataType::Int32),
        ColumnDef::new("c_credit", DataType::Str),
        ColumnDef::new("c_credit_lim", DataType::Float64),
        ColumnDef::new("c_discount", DataType::Float64),
        ColumnDef::new("c_balance", DataType::Float64),
        ColumnDef::new("c_ytd_payment", DataType::Float64),
        ColumnDef::new("c_payment_cnt", DataType::Int32),
        ColumnDef::new("c_delivery_cnt", DataType::Int32),
    ])
}

/// `ORDERS` (o_id unique across the run for join simplicity).
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("o_id", DataType::Int32),
        ColumnDef::new("o_d_id", DataType::Int32),
        ColumnDef::new("o_w_id", DataType::Int32),
        ColumnDef::new("o_c_id", DataType::Int32),
        ColumnDef::new("o_entry_d", DataType::Int32),
        ColumnDef::new("o_carrier_id", DataType::Int32),
        ColumnDef::new("o_ol_cnt", DataType::Int32),
        ColumnDef::new("o_all_local", DataType::Int32),
    ])
}

/// `ORDER_LINE`.
pub fn order_line_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("ol_o_id", DataType::Int32),
        ColumnDef::new("ol_d_id", DataType::Int32),
        ColumnDef::new("ol_w_id", DataType::Int32),
        ColumnDef::new("ol_number", DataType::Int32),
        ColumnDef::new("ol_i_id", DataType::Int32),
        ColumnDef::new("ol_supply_w_id", DataType::Int32),
        ColumnDef::new("ol_delivery_d", DataType::Int32),
        ColumnDef::new("ol_quantity", DataType::Int32),
        ColumnDef::new("ol_amount", DataType::Float64),
        ColumnDef::new("ol_dist_info", DataType::Str),
    ])
}

/// `ITEM`.
pub fn item_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("i_id", DataType::Int32),
        ColumnDef::new("i_im_id", DataType::Int32),
        ColumnDef::new("i_name", DataType::Str),
        ColumnDef::new("i_price", DataType::Float64),
        ColumnDef::new("i_data", DataType::Str),
    ])
}

/// `STOCK`.
pub fn stock_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("s_i_id", DataType::Int32),
        ColumnDef::new("s_w_id", DataType::Int32),
        ColumnDef::new("s_quantity", DataType::Int32),
        ColumnDef::new("s_ytd", DataType::Float64),
        ColumnDef::new("s_order_cnt", DataType::Int32),
        ColumnDef::new("s_remote_cnt", DataType::Int32),
        ColumnDef::new("s_data", DataType::Str),
    ])
}

/// `SUPPLIER` (the CH extension tables).
pub fn supplier_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("su_suppkey", DataType::Int32),
        ColumnDef::new("su_name", DataType::Str),
        ColumnDef::new("su_address", DataType::Str),
        ColumnDef::new("su_nationkey", DataType::Int32),
        ColumnDef::new("su_phone", DataType::Str),
        ColumnDef::new("su_acctbal", DataType::Float64),
        ColumnDef::new("su_comment", DataType::Str),
    ])
}

/// `NATION`.
pub fn nation_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("n_nationkey", DataType::Int32),
        ColumnDef::new("n_name", DataType::Str),
        ColumnDef::new("n_regionkey", DataType::Int32),
        ColumnDef::new("n_comment", DataType::Str),
    ])
}

const NATIONS: [&str; 10] = [
    "GERMANY",
    "FRANCE",
    "NETHERLANDS",
    "ITALY",
    "SPAIN",
    "USA",
    "JAPAN",
    "BRAZIL",
    "KENYA",
    "INDIA",
];

fn date(rng: &mut SmallRng) -> i32 {
    20_230_000 + rng.gen_range(101..1231)
}

/// Generate the CH database. `warehouses` is the TPC-C scale knob;
/// per warehouse: 10 districts, 300 customers, 900 orders, ~9 000 order
/// lines, 1 000 stocked items (items table: 1 000 rows shared).
pub fn tables(warehouses: usize, seed: u64) -> Vec<Table> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_items = 1_000usize;
    let dist_per_w = 10usize;
    let cust_per_d = 30usize;
    let orders_per_d = 90usize;

    let mut warehouse = Table::new("WAREHOUSE", warehouse_schema());
    let mut district = Table::new("DISTRICT", district_schema());
    let mut customer = Table::new("CUSTOMER", customer_schema());
    let mut orders = Table::new("ORDERS", orders_schema());
    let mut order_line = Table::new("ORDER_LINE", order_line_schema());
    let mut item = Table::new("ITEM", item_schema());
    let mut stock = Table::new("STOCK", stock_schema());
    let mut supplier = Table::new("SUPPLIER", supplier_schema());
    let mut nation = Table::new("NATION", nation_schema());

    for (k, name) in NATIONS.iter().enumerate() {
        nation
            .insert(&[
                Value::Int32(k as i32),
                Value::Str((*name).into()),
                Value::Int32((k % 5) as i32),
                Value::Str(String::new()),
            ])
            .expect("nation");
    }
    for s in 0..(warehouses * 10).max(10) {
        supplier
            .insert(&[
                Value::Int32(s as i32),
                Value::Str(format!("Supplier#{s:05}")),
                Value::Str(format!("Addr {s}")),
                Value::Int32((s % NATIONS.len()) as i32),
                Value::Str(format!("+31-{s:08}")),
                Value::Float64(rng.gen_range(-999.0..9999.0)),
                Value::Str(String::new()),
            ])
            .expect("supplier");
    }
    for i in 0..n_items {
        let original = rng.gen_bool(0.1);
        item.insert(&[
            Value::Int32(i as i32),
            Value::Int32(rng.gen_range(0..10_000)),
            Value::Str(format!("Item {i:05}")),
            Value::Float64(rng.gen_range(1..100) as f64),
            Value::Str(if original {
                format!("data original {i}")
            } else {
                format!("data plain {i}")
            }),
        ])
        .expect("item");
    }

    let mut o_id = 0i32;
    for w in 0..warehouses {
        warehouse
            .insert(&[
                Value::Int32(w as i32),
                Value::Str(format!("WH{w:03}")),
                Value::Str(format!("Street {w}")),
                Value::Str(format!("City{}", w % 37)),
                Value::Str(format!("S{}", w % 26)),
                Value::Str(format!("{:05}", 10_000 + w)),
                Value::Float64(rng.gen_range(0.0..0.2)),
                Value::Float64(300_000.0),
            ])
            .expect("warehouse");
        for i in 0..n_items {
            stock
                .insert(&[
                    Value::Int32(i as i32),
                    Value::Int32(w as i32),
                    Value::Int32(rng.gen_range(10..100)),
                    Value::Float64(0.0),
                    Value::Int32(rng.gen_range(0..50)),
                    Value::Int32(rng.gen_range(0..10)),
                    Value::Str(format!("stock data {i}")),
                ])
                .expect("stock");
        }
        for d in 0..dist_per_w {
            district
                .insert(&[
                    Value::Int32(d as i32),
                    Value::Int32(w as i32),
                    Value::Str(format!("D{w}-{d}")),
                    Value::Str(format!("City{}", (w + d) % 37)),
                    Value::Str(format!("S{}", d % 26)),
                    Value::Float64(rng.gen_range(0.0..0.2)),
                    Value::Float64(30_000.0),
                    Value::Int32(orders_per_d as i32),
                ])
                .expect("district");
            for c in 0..cust_per_d {
                customer
                    .insert(&[
                        Value::Int32(c as i32),
                        Value::Int32(d as i32),
                        Value::Int32(w as i32),
                        Value::Str(format!("First{}", rng.gen_range(0..500))),
                        Value::Str(format!("Last{}", rng.gen_range(0..100))),
                        Value::Str(format!("Street {}", rng.gen_range(0..999))),
                        Value::Str(format!("City{}", rng.gen_range(0..37))),
                        Value::Str(format!(
                            "{}{}",
                            (b'A' + (rng.gen_range(0..26u8))) as char,
                            (b'A' + (rng.gen_range(0..26u8))) as char
                        )),
                        Value::Str(format!("{:05}", rng.gen_range(10_000..99_999))),
                        Value::Str(format!("+49-{:08}", rng.gen_range(0..99_999_999))),
                        Value::Int32(date(&mut rng)),
                        Value::Str(if rng.gen_bool(0.9) { "GC" } else { "BC" }.into()),
                        Value::Float64(50_000.0),
                        Value::Float64(rng.gen_range(0.0..0.5)),
                        Value::Float64(rng.gen_range(-100.0..5_000.0)),
                        Value::Float64(rng.gen_range(0.0..5_000.0)),
                        Value::Int32(rng.gen_range(0..20)),
                        Value::Int32(rng.gen_range(0..20)),
                    ])
                    .expect("customer");
            }
            for _o in 0..orders_per_d {
                let ol_cnt = rng.gen_range(5..=15);
                let entry = date(&mut rng);
                let c_id = rng.gen_range(0..cust_per_d) as i32
                    + (d as i32) * cust_per_d as i32
                    + (w as i32) * (dist_per_w * cust_per_d) as i32;
                orders
                    .insert(&[
                        Value::Int32(o_id),
                        Value::Int32(d as i32),
                        Value::Int32(w as i32),
                        Value::Int32(c_id),
                        Value::Int32(entry),
                        Value::Int32(rng.gen_range(0..10)),
                        Value::Int32(ol_cnt),
                        Value::Int32(1),
                    ])
                    .expect("orders");
                for n in 0..ol_cnt {
                    order_line
                        .insert(&[
                            Value::Int32(o_id),
                            Value::Int32(d as i32),
                            Value::Int32(w as i32),
                            Value::Int32(n),
                            Value::Int32(rng.gen_range(0..n_items as i32)),
                            Value::Int32(w as i32),
                            Value::Int32(entry + rng.gen_range(0..30)),
                            Value::Int32(rng.gen_range(1..10)),
                            Value::Float64(rng.gen_range(1..10_000) as f64 / 100.0),
                            Value::Str(format!("dist{:02}", d)),
                        ])
                        .expect("order_line");
                }
                o_id += 1;
            }
        }
    }
    vec![
        warehouse, district, customer, orders, order_line, item, stock, supplier, nation,
    ]
}

/// CUSTOMER column count (left side of Q3/Q5/Q10 joins).
const CW: usize = 18;
/// ORDERS column count.
const OW: usize = 8;

#[allow(clippy::vec_init_then_push)] // long literal list reads better as pushes
/// The CH analytic queries evaluated in Fig. 11 (1–6, 8, 10).
pub fn queries() -> Vec<BenchQuery> {
    let mut qs = Vec::new();

    // Q1: pricing summary per ol_number over recent deliveries.
    qs.push(BenchQuery::plan(
        "CH-Q1",
        QueryBuilder::scan("ORDER_LINE")
            .filter(Expr::col(6).gt(Expr::lit(20_230_600)))
            .aggregate(
                vec![Expr::col(3)],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(7)),
                    AggExpr::new(AggFunc::Sum, Expr::col(8)),
                    AggExpr::new(AggFunc::Avg, Expr::col(7)),
                    AggExpr::new(AggFunc::Avg, Expr::col(8)),
                    AggExpr::count_star(),
                ],
            )
            .sort(vec![(Expr::col(0), true)])
            .build(),
    ));

    // Q2 (reduced): cheapest-supplier lookup core — STOCK ⋈ ITEM with the
    // "original" data filter, min stock stats per item class. The original
    // CH-Q2's region/supplier subquery is dropped (no scalar subqueries).
    qs.push(BenchQuery::plan(
        "CH-Q2",
        QueryBuilder::scan("ITEM")
            .filter(Expr::col(4).like("%original%"))
            .join(
                QueryBuilder::scan("STOCK").build(),
                Expr::col(0),
                Expr::col(0),
            )
            .aggregate(
                vec![Expr::col(1)], // i_im_id class
                vec![
                    AggExpr::new(AggFunc::Min, Expr::col(5 + 2)), // min s_quantity
                    AggExpr::count_star(),
                ],
            )
            .build(),
    ));

    // Q3: unshipped-order value for good-credit customers.
    qs.push(BenchQuery::plan(
        "CH-Q3",
        QueryBuilder::scan("CUSTOMER")
            .filter(Expr::col(7).like("A%")) // c_state
            .join(
                QueryBuilder::scan("ORDERS").build(),
                Expr::col(0),
                Expr::col(3),
            )
            .join(
                QueryBuilder::scan("ORDER_LINE").build(),
                Expr::col(CW), // o_id
                Expr::col(0),  // ol_o_id
            )
            .aggregate(
                vec![Expr::col(CW)],                                      // group by o_id
                vec![AggExpr::new(AggFunc::Sum, Expr::col(CW + OW + 8))], // sum ol_amount
            )
            .sort(vec![(Expr::col(1), false), (Expr::col(0), true)]) // o_id tiebreak
            .limit(10)
            .build(),
    ));

    // Q4 (reduced): order count per ol_cnt class in a date range; the
    // original's EXISTS(order_line late delivery) is folded away.
    qs.push(BenchQuery::plan(
        "CH-Q4",
        QueryBuilder::scan("ORDERS")
            .filter(
                Expr::col(4)
                    .ge(Expr::lit(20_230_300))
                    .and(Expr::col(4).lt(Expr::lit(20_230_900))),
            )
            .aggregate(vec![Expr::col(6)], vec![AggExpr::count_star()])
            .sort(vec![(Expr::col(0), true)])
            .build(),
    ));

    // Q5 (reduced): revenue per customer state (stands in for per-nation;
    // the supplier/nation/region arm is dropped).
    qs.push(BenchQuery::plan(
        "CH-Q5",
        QueryBuilder::scan("CUSTOMER")
            .join(
                QueryBuilder::scan("ORDERS").build(),
                Expr::col(0),
                Expr::col(3),
            )
            .join(
                QueryBuilder::scan("ORDER_LINE").build(),
                Expr::col(CW),
                Expr::col(0),
            )
            .aggregate(
                vec![Expr::col(7)], // c_state
                vec![AggExpr::new(AggFunc::Sum, Expr::col(CW + OW + 8))],
            )
            .sort(vec![(Expr::col(1), false)])
            .build(),
    ));

    // Q6: selective scan-aggregate (verbatim shape).
    qs.push(BenchQuery::plan(
        "CH-Q6",
        QueryBuilder::scan("ORDER_LINE")
            .filter(
                Expr::col(6)
                    .ge(Expr::lit(20_230_101))
                    .and(Expr::col(6).lt(Expr::lit(20_230_701)))
                    .and(Expr::col(7).ge(Expr::lit(1)))
                    .and(Expr::col(7).le(Expr::lit(100_000))),
            )
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(8))])
            .build(),
    ));

    // Q8 (reduced): "market share" core — ITEM ⋈ ORDER_LINE ⋈ ORDERS,
    // average line amount per entry month for a popular item class.
    qs.push(BenchQuery::plan(
        "CH-Q8",
        QueryBuilder::scan("ITEM")
            .filter(Expr::col(3).lt(Expr::lit(50.0)))
            .join(
                QueryBuilder::scan("ORDER_LINE").build(),
                Expr::col(0),
                Expr::col(4),
            )
            .join(
                QueryBuilder::scan("ORDERS").build(),
                Expr::col(5), // ol_o_id (5 item cols + 0)
                Expr::col(0), // o_id
            )
            .aggregate(
                vec![Expr::col(5 + 10 + 4).div(Expr::lit(100))], // month bucket of o_entry_d
                vec![AggExpr::new(AggFunc::Avg, Expr::col(5 + 8))], // avg ol_amount
            )
            .sort(vec![(Expr::col(0), true)])
            .build(),
    ));

    // Q10: top customers by recent revenue.
    qs.push(BenchQuery::plan(
        "CH-Q10",
        QueryBuilder::scan("CUSTOMER")
            .join(
                QueryBuilder::scan("ORDERS").build(),
                Expr::col(0),
                Expr::col(3),
            )
            .join(
                QueryBuilder::scan("ORDER_LINE").build(),
                Expr::col(CW),
                Expr::col(0),
            )
            .filter(Expr::col(CW + 4).ge(Expr::lit(20_230_800))) // o_entry_d
            .aggregate(
                vec![Expr::col(0), Expr::col(4)], // c_id, c_last
                vec![AggExpr::new(AggFunc::Sum, Expr::col(CW + OW + 8))],
            )
            // deterministic under ties: break on customer id then name
            .sort(vec![
                (Expr::col(2), false),
                (Expr::col(0), true),
                (Expr::col(1), true),
            ])
            .limit(20)
            .build(),
    ));
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
    use std::collections::HashMap;

    fn db(w: usize) -> HashMap<String, Table> {
        tables(w, 3)
            .into_iter()
            .map(|t| (t.name().to_string(), t))
            .collect()
    }

    #[test]
    fn generator_cardinalities() {
        let d = db(2);
        assert_eq!(d["WAREHOUSE"].len(), 2);
        assert_eq!(d["DISTRICT"].len(), 20);
        assert_eq!(d["CUSTOMER"].len(), 600);
        assert_eq!(d["ORDERS"].len(), 1800);
        assert_eq!(d["ITEM"].len(), 1000);
        assert_eq!(d["STOCK"].len(), 2000);
        assert_eq!(d["NATION"].len(), 10);
        let ol = d["ORDER_LINE"].len();
        assert!((1800 * 5..=1800 * 15).contains(&ol), "order lines {ol}");
    }

    #[test]
    fn all_ch_queries_differentially_correct() {
        let d = db(1);
        for q in queries() {
            let plan = q.as_plan().unwrap();
            let c = CompiledEngine.execute(plan, &d).unwrap();
            let v = VolcanoEngine.execute(plan, &d).unwrap();
            c.assert_same(&v, &format!("{} compiled vs volcano", q.name));
        }
    }

    #[test]
    fn q1_groups_by_line_number() {
        let d = db(1);
        let out = CompiledEngine
            .execute(queries()[0].as_plan().unwrap(), &d)
            .unwrap();
        // ol_number ranges 0..15
        assert!(out.len() <= 15 && out.len() >= 5, "{} groups", out.len());
    }

    #[test]
    fn q6_revenue_positive() {
        let d = db(1);
        let out = CompiledEngine
            .execute(queries()[5].as_plan().unwrap(), &d)
            .unwrap();
        assert!(out.rows[0][0].as_f64().unwrap() > 0.0);
    }
}
