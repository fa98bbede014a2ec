//! The SAP Sales & Distribution (SD) benchmark (§VI-B, Fig. 9/10).
//!
//! Five tables modeled on the public SAP schema documentation the paper
//! cites: `ADRC` (addresses), `KNA1` (customer master), `VBAK` (sales order
//! headers), `VBAP` (sales order items), `VBEP` (schedule lines).
//!
//! Q1 and Q3 are quoted verbatim in the paper (Table IV(a)); the remaining
//! ten queries are reconstructed from the HYRISE paper's query-class
//! descriptions with the properties the figures depend on preserved:
//! Q6 is the only modifying query (insert into VBAP), Q7/Q8 are identity
//! selects (hash / RB-tree indexable), Q9/Q10 are order-dependent queries
//! (where HYRISE's implicit-ordering metadata beats HyPer, §VI-B), and the
//! rest are scan/aggregate/join classes. See DESIGN.md §2.

use crate::{BenchQuery, QueryKind};
use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc};
use pdsm_storage::{ColumnDef, DataType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Company-name prefixes; `NAME1 like 'Alpha%'` matches 1/10 of rows.
pub const NAME_PREFIXES: [&str; 10] = [
    "Alpha", "Borealis", "Cumulus", "Dynamo", "Electra", "Fastout", "Gradient", "Helix",
    "Ignition", "Juniper",
];
/// Company-name suffixes; `NAME2 like '%GmbH'` matches 1/4 of rows.
pub const NAME_SUFFIXES: [&str; 4] = ["GmbH", "AG", "Ltd", "Inc"];
/// Country codes (uniform).
pub const COUNTRIES: [&str; 8] = ["DE", "NL", "FR", "IT", "US", "GB", "CH", "AT"];

/// Column names of ADRC in schema order.
pub const ADRC_COLS: [&str; 24] = [
    "ADDRNUMBER",
    "NAME_CO",
    "NAME1",
    "NAME2",
    "KUNNR",
    "CITY1",
    "CITY2",
    "POST_CODE1",
    "STREET",
    "COUNTRY",
    "REGION",
    "TEL_NUMBER",
    "FAX_NUMBER",
    "DATE_FROM",
    "LANGU",
    "SORT1",
    "SORT2",
    "HOUSE_NUM1",
    "LOCATION",
    "TRANSPZONE",
    "PO_BOX",
    "TITLE",
    "FLAG_S",
    "FLAG_P",
];

/// ADRC: the address table of Table IV.
pub fn adrc_schema() -> Schema {
    Schema::new(
        ADRC_COLS
            .iter()
            .map(|&n| match n {
                "ADDRNUMBER" | "DATE_FROM" | "FLAG_S" | "FLAG_P" => {
                    ColumnDef::new(n, DataType::Int32)
                }
                _ => ColumnDef::new(n, DataType::Str),
            })
            .collect(),
    )
}

/// KNA1: customer master.
pub fn kna1_schema() -> Schema {
    let cols = [
        ("KUNNR", DataType::Str),
        ("LAND1", DataType::Str),
        ("NAME1", DataType::Str),
        ("NAME2", DataType::Str),
        ("ORT01", DataType::Str),
        ("PSTLZ", DataType::Str),
        ("REGIO", DataType::Str),
        ("STRAS", DataType::Str),
        ("TELF1", DataType::Str),
        ("TELFX", DataType::Str),
        ("ADRNR", DataType::Int32),
        ("KTOKD", DataType::Str),
        ("ERDAT", DataType::Int32),
        ("VBUND", DataType::Str),
        ("SPERR", DataType::Int32),
        ("LOEVM", DataType::Int32),
    ];
    Schema::new(cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect())
}

/// VBAK: sales order headers.
pub fn vbak_schema() -> Schema {
    let cols = [
        ("VBELN", DataType::Int32),
        ("ERDAT", DataType::Int32),
        ("ERZET", DataType::Int32),
        ("ERNAM", DataType::Str),
        ("AUDAT", DataType::Int32),
        ("VBTYP", DataType::Str),
        ("AUART", DataType::Str),
        ("NETWR", DataType::Float64),
        ("WAERK", DataType::Str),
        ("VKORG", DataType::Str),
        ("VTWEG", DataType::Str),
        ("SPART", DataType::Str),
        ("KUNNR", DataType::Str),
        ("GUEBG", DataType::Int32),
        ("GUEEN", DataType::Int32),
        ("KNUMV", DataType::Int32),
    ];
    Schema::new(cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect())
}

/// VBAP: sales order items.
pub fn vbap_schema() -> Schema {
    let cols = [
        ("VBELN", DataType::Int32),
        ("POSNR", DataType::Int32),
        ("MATNR", DataType::Str),
        ("MATWA", DataType::Str),
        ("PSTYV", DataType::Str),
        ("CHARG", DataType::Str),
        ("WERKS", DataType::Str),
        ("LGORT", DataType::Str),
        ("KWMENG", DataType::Float64),
        ("VRKME", DataType::Str),
        ("NETWR", DataType::Float64),
        ("WAERK", DataType::Str),
        ("NETPR", DataType::Float64),
        ("KPEIN", DataType::Int32),
        ("ABGRU", DataType::Str),
        ("ERDAT", DataType::Int32),
        ("SPART", DataType::Str),
        ("GSBER", DataType::Str),
        ("VSTEL", DataType::Str),
        ("ROUTE", DataType::Str),
    ];
    Schema::new(cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect())
}

/// VBEP: schedule lines.
pub fn vbep_schema() -> Schema {
    let cols = [
        ("VBELN", DataType::Int32),
        ("POSNR", DataType::Int32),
        ("ETENR", DataType::Int32),
        ("ETTYP", DataType::Str),
        ("EDATU", DataType::Int32),
        ("WMENG", DataType::Float64),
        ("BMENG", DataType::Float64),
        ("VRKME", DataType::Str),
        ("LIFSP", DataType::Str),
        ("WADAT", DataType::Int32),
    ];
    Schema::new(cols.iter().map(|&(n, t)| ColumnDef::new(n, t)).collect())
}

fn date(rng: &mut SmallRng) -> i32 {
    20_230_000 + rng.gen_range(101..1231)
}

fn kunnr_str(i: usize) -> String {
    format!("C{i:07}")
}

fn company_name(rng: &mut SmallRng) -> (String, String) {
    let p = NAME_PREFIXES[rng.gen_range(0..NAME_PREFIXES.len())];
    let s = NAME_SUFFIXES[rng.gen_range(0..NAME_SUFFIXES.len())];
    let n1 = format!("{p} Systems {}", rng.gen_range(0..10_000));
    let n2 = format!("{p} Holding {s}");
    (n1, n2)
}

/// One synthetic VBAP row (also used by the Q6 insert driver).
pub fn vbap_row(rng: &mut SmallRng, vbeln: i32, posnr: i32) -> Vec<Value> {
    let qty = rng.gen_range(1..100) as f64;
    let price = rng.gen_range(5..500) as f64 / 2.0;
    vec![
        Value::Int32(vbeln),
        Value::Int32(posnr),
        Value::Str(format!("MAT-{:05}", rng.gen_range(0..2000))),
        Value::Str(format!("MATW-{}", rng.gen_range(0..50))),
        Value::Str(format!("TA{}", rng.gen_range(0..5))),
        Value::Str(format!("CH{:04}", rng.gen_range(0..500))),
        Value::Str(format!("W{:02}", rng.gen_range(0..20))),
        Value::Str(format!("L{:02}", rng.gen_range(0..10))),
        Value::Float64(qty),
        Value::Str("ST".into()),
        Value::Float64(qty * price),
        Value::Str("EUR".into()),
        Value::Float64(price),
        Value::Int32(1),
        Value::Str(String::new()),
        Value::Int32(date(rng)),
        Value::Str(format!("S{}", rng.gen_range(0..5))),
        Value::Str(format!("G{}", rng.gen_range(0..8))),
        Value::Str(format!("V{}", rng.gen_range(0..6))),
        Value::Str(format!("R{:03}", rng.gen_range(0..100))),
    ]
}

/// Generate all five tables. `scale` = number of sales orders; customers
/// scale at a tenth of that, items at ~3 per order.
pub fn tables(scale: usize, seed: u64) -> Vec<Table> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_customers = (scale / 10).max(10);

    // ADRC: two addresses per customer.
    let mut adrc = Table::new("ADRC", adrc_schema());
    adrc.reserve(n_customers * 2);
    for i in 0..n_customers * 2 {
        let (n1, n2) = company_name(&mut rng);
        let country = COUNTRIES[rng.gen_range(0..COUNTRIES.len())];
        adrc.insert(&[
            Value::Int32(i as i32),
            Value::Str(format!("c/o {}", rng.gen_range(0..100))),
            Value::Str(n1),
            Value::Str(n2),
            Value::Str(kunnr_str(i / 2)),
            Value::Str(format!("City{:03}", rng.gen_range(0..300))),
            Value::Str(String::new()),
            Value::Str(format!("{:05}", rng.gen_range(1000..99999))),
            Value::Str(format!("Street {}", rng.gen_range(1..200))),
            Value::Str(country.into()),
            Value::Str(format!("R{:02}", rng.gen_range(0..16))),
            Value::Str(format!("+49-{:08}", rng.gen_range(0..99_999_999))),
            Value::Str(format!("+49-{:08}", rng.gen_range(0..99_999_999))),
            Value::Int32(date(&mut rng)),
            Value::Str("DE".into()),
            Value::Str(format!("S{}", rng.gen_range(0..100))),
            Value::Str(String::new()),
            Value::Str(format!("{}", rng.gen_range(1..500))),
            Value::Str(format!("Loc{}", rng.gen_range(0..50))),
            Value::Str(format!("Z{:03}", rng.gen_range(0..100))),
            Value::Str(String::new()),
            Value::Str("Firma".into()),
            Value::Int32(rng.gen_range(0..2)),
            Value::Int32(rng.gen_range(0..2)),
        ])
        .expect("adrc row");
    }

    // KNA1: one row per customer.
    let mut kna1 = Table::new("KNA1", kna1_schema());
    kna1.reserve(n_customers);
    for i in 0..n_customers {
        let (n1, n2) = company_name(&mut rng);
        kna1.insert(&[
            Value::Str(kunnr_str(i)),
            Value::Str(COUNTRIES[rng.gen_range(0..COUNTRIES.len())].into()),
            Value::Str(n1),
            Value::Str(n2),
            Value::Str(format!("City{:03}", rng.gen_range(0..300))),
            Value::Str(format!("{:05}", rng.gen_range(1000..99999))),
            Value::Str(format!("R{:02}", rng.gen_range(0..16))),
            Value::Str(format!("Street {}", rng.gen_range(1..200))),
            Value::Str(format!("+49-{:08}", rng.gen_range(0..99_999_999))),
            Value::Str(format!("+49-{:08}", rng.gen_range(0..99_999_999))),
            Value::Int32((i * 2) as i32),
            Value::Str(format!("K{}", rng.gen_range(0..5))),
            Value::Int32(date(&mut rng)),
            Value::Str(String::new()),
            Value::Int32(0),
            Value::Int32(0),
        ])
        .expect("kna1 row");
    }

    // VBAK + VBAP + VBEP.
    let mut vbak = Table::new("VBAK", vbak_schema());
    let mut vbap = Table::new("VBAP", vbap_schema());
    let mut vbep = Table::new("VBEP", vbep_schema());
    vbak.reserve(scale);
    vbap.reserve(scale * 3);
    vbep.reserve(scale * 4);
    for o in 0..scale {
        let vbeln = o as i32;
        let kunnr = kunnr_str(rng.gen_range(0..n_customers));
        let n_items = rng.gen_range(1..=5);
        let mut order_total = 0.0f64;
        for p in 0..n_items {
            let row = vbap_row(&mut rng, vbeln, (p + 1) * 10);
            order_total += row[10].as_f64().unwrap();
            let n_sched = rng.gen_range(1..=2);
            for e in 0..n_sched {
                let qty = row[8].as_f64().unwrap() / n_sched as f64;
                vbep.insert(&[
                    Value::Int32(vbeln),
                    row[1].clone(),
                    Value::Int32(e + 1),
                    Value::Str(format!("E{}", rng.gen_range(0..3))),
                    Value::Int32(date(&mut rng)),
                    Value::Float64(qty),
                    Value::Float64(qty),
                    Value::Str("ST".into()),
                    Value::Str(format!("LS{}", rng.gen_range(0..4))),
                    Value::Int32(date(&mut rng)),
                ])
                .expect("vbep row");
            }
            vbap.insert(&row).expect("vbap row");
        }
        vbak.insert(&[
            Value::Int32(vbeln),
            Value::Int32(date(&mut rng)),
            Value::Int32(rng.gen_range(0..86_400)),
            Value::Str(format!("USER{:03}", rng.gen_range(0..200))),
            Value::Int32(date(&mut rng)),
            Value::Str("C".into()),
            Value::Str(format!("TA{}", rng.gen_range(0..4))),
            Value::Float64(order_total),
            Value::Str("EUR".into()),
            Value::Str(format!("VK{:02}", rng.gen_range(0..10))),
            Value::Str(format!("{}", rng.gen_range(10..20))),
            Value::Str(format!("SP{}", rng.gen_range(0..6))),
            Value::Str(kunnr),
            Value::Int32(date(&mut rng)),
            Value::Int32(date(&mut rng)),
            Value::Int32(o as i32 + 1_000_000),
        ])
        .expect("vbak row");
    }
    vec![adrc, kna1, vbak, vbap, vbep]
}

/// The twelve SD queries. `scale` parameterizes the point-query literals so
/// they always hit generated data.
#[allow(clippy::vec_init_then_push)] // long literal list reads better as pushes
pub fn queries(scale: usize) -> Vec<BenchQuery> {
    let n_customers = (scale / 10).max(10);
    let some_kunnr = kunnr_str(n_customers / 3);
    let some_vbeln = (scale / 2) as i32;
    // column indexes
    let adrc = |n: &str| ADRC_COLS.iter().position(|&c| c == n).unwrap();
    let mut qs = Vec::new();

    // Q1 (paper Table IV(a)): scan-and-project on ADRC with two LIKEs.
    // §VI-B states "NAME2 is only accessed if NAME1 does not match the
    // condition" — i.e. OR short-circuit evaluation (a name search over
    // both fields). Table IV(a) prints "and", but the published ADRC
    // decomposition only follows from the prose's access pattern, so the
    // prose wins here.
    qs.push(BenchQuery::plan(
        "Q1",
        QueryBuilder::scan("ADRC")
            .filter(
                Expr::col(adrc("NAME1"))
                    .like("Alpha%")
                    .or(Expr::col(adrc("NAME2")).like("%GmbH")),
            )
            .project(vec![
                Expr::col(adrc("ADDRNUMBER")),
                Expr::col(adrc("NAME_CO")),
                Expr::col(adrc("NAME1")),
                Expr::col(adrc("NAME2")),
                Expr::col(adrc("KUNNR")),
            ])
            .build(),
    ));

    // Q2: analytic scan of VBAK (revenue since mid-year).
    qs.push(BenchQuery::plan(
        "Q2",
        QueryBuilder::scan("VBAK")
            .filter(Expr::col(1).ge(Expr::lit(20_230_700)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(7)),
                ],
            )
            .build(),
    ));

    // Q3 (paper-verbatim): select * from ADRC where KUNNR = $1.
    qs.push(BenchQuery::plan(
        "Q3",
        QueryBuilder::scan("ADRC")
            .filter(Expr::col(adrc("KUNNR")).eq(Expr::lit(some_kunnr.as_str())))
            .build(),
    ));

    // Q4: order value per customer (VBAK ⋈ VBAP on VBELN).
    qs.push(BenchQuery::plan(
        "Q4",
        QueryBuilder::scan("VBAK")
            .join(
                QueryBuilder::scan("VBAP").build(),
                Expr::col(0),
                Expr::col(0),
            )
            .aggregate(
                vec![Expr::col(12)],                                  // VBAK.KUNNR
                vec![AggExpr::new(AggFunc::Sum, Expr::col(16 + 10))], // VBAP.NETWR
            )
            .build(),
    ));

    // Q5: material statistics on VBAP.
    qs.push(BenchQuery::plan(
        "Q5",
        QueryBuilder::scan("VBAP")
            .aggregate(
                vec![Expr::col(2)], // MATNR
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(8)), // KWMENG
                ],
            )
            .build(),
    ));

    // Q6: the only modifying query — insert sales order items.
    qs.push(BenchQuery {
        name: "Q6".into(),
        kind: QueryKind::Insert {
            table: "VBAP".into(),
            count: 1000,
        },
        frequency: 1.0,
    });

    // Q7: identity select on KNA1 (hash-indexable).
    qs.push(BenchQuery::plan(
        "Q7",
        QueryBuilder::scan("KNA1")
            .filter(Expr::col(0).eq(Expr::lit(some_kunnr.as_str())))
            .build(),
    ));

    // Q8: identity select on VBAP by VBELN (RB-tree in the paper).
    qs.push(BenchQuery::plan(
        "Q8",
        QueryBuilder::scan("VBAP")
            .filter(Expr::col(0).eq(Expr::lit(some_vbeln)))
            .build(),
    ));

    // Q9: date-range scan with ordering (HYRISE exploits implicit order).
    qs.push(BenchQuery::plan(
        "Q9",
        QueryBuilder::scan("VBAK")
            .filter(
                Expr::col(1)
                    .ge(Expr::lit(20_230_300))
                    .and(Expr::col(1).le(Expr::lit(20_230_400))),
            )
            .project(vec![Expr::col(0), Expr::col(1)])
            .sort(vec![(Expr::col(1), true)])
            .build(),
    ));

    // Q10: top items by value (order-dependent).
    qs.push(BenchQuery::plan(
        "Q10",
        QueryBuilder::scan("VBAP")
            .project(vec![Expr::col(0), Expr::col(1), Expr::col(10)])
            .sort(vec![(Expr::col(2), false)])
            .limit(100)
            .build(),
    ));

    // Q11: projection-heavy country filter on ADRC.
    qs.push(BenchQuery::plan(
        "Q11",
        QueryBuilder::scan("ADRC")
            .filter(Expr::col(adrc("COUNTRY")).eq(Expr::lit("DE")))
            .project(vec![
                Expr::col(adrc("NAME1")),
                Expr::col(adrc("CITY1")),
                Expr::col(adrc("TEL_NUMBER")),
            ])
            .build(),
    ));

    // Q12: schedule-line aggregation over a date range.
    qs.push(BenchQuery::plan(
        "Q12",
        QueryBuilder::scan("VBEP")
            .filter(
                Expr::col(4)
                    .ge(Expr::lit(20_230_500))
                    .and(Expr::col(4).le(Expr::lit(20_230_900))),
            )
            .aggregate(
                vec![Expr::col(8)], // LIFSP
                vec![AggExpr::new(AggFunc::Sum, Expr::col(5))],
            )
            .build(),
    ));
    qs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::engine::{CompiledEngine, Engine, VolcanoEngine};
    use std::collections::HashMap;

    fn db(scale: usize) -> HashMap<String, Table> {
        tables(scale, 11)
            .into_iter()
            .map(|t| (t.name().to_string(), t))
            .collect()
    }

    #[test]
    fn generator_cardinalities() {
        let d = db(200);
        assert_eq!(d["VBAK"].len(), 200);
        assert_eq!(d["KNA1"].len(), 20);
        assert_eq!(d["ADRC"].len(), 40);
        let items = d["VBAP"].len();
        assert!((200..=1000).contains(&items), "items {items}");
        assert!(d["VBEP"].len() >= items);
    }

    #[test]
    fn all_queries_run_on_all_engines_identically() {
        let d = db(120);
        for q in queries(120) {
            let Some(plan) = q.as_plan() else { continue };
            let c = CompiledEngine.execute(plan, &d).unwrap();
            let v = VolcanoEngine.execute(plan, &d).unwrap();
            c.assert_same(&v, &format!("{} compiled vs volcano", q.name));
        }
    }

    #[test]
    fn q1_hits_expected_fraction() {
        let d = db(400);
        let plan = queries(400)[0].as_plan().unwrap().clone();
        let out = CompiledEngine.execute(&plan, &d).unwrap();
        let n = d["ADRC"].len() as f64;
        // prefix 1/10 of names OR suffix 1/4 => ~32.5 %
        let frac = out.len() as f64 / n;
        assert!((0.2..0.5).contains(&frac), "Q1 matched {frac:.4} of ADRC");
    }

    #[test]
    fn q6_insert_spec_present() {
        let qs = queries(100);
        assert!(matches!(
            &qs[5].kind,
            QueryKind::Insert { table, count: 1000 } if table == "VBAP"
        ));
    }

    #[test]
    fn deterministic_generation() {
        let a = db(80);
        let b = db(80);
        for name in ["ADRC", "VBAK", "VBAP"] {
            assert_eq!(a[name].len(), b[name].len());
            for r in 0..a[name].len().min(20) {
                assert_eq!(
                    a[name].row(r).unwrap(),
                    b[name].row(r).unwrap(),
                    "{name} row {r}"
                );
            }
        }
    }
}
