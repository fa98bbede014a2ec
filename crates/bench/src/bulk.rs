//! The bulk (column-at-a-time) engine — MonetDB-style processing (§II-A).
//!
//! Queries decompose into *primitives*: each primitive is a tight, typed,
//! branch-light loop over whole columns, and each **fully materializes** its
//! result before the next primitive runs — position vectors for selections,
//! value buffers for fetches. That materialization is the model's defining
//! cost: cheap at low selectivity, cache-hostile at high selectivity
//! (Fig. 3's crossover).
//!
//! The paper's Fig.-3 description maps one-to-one onto this module: "the
//! first operator scans column A and materializes all matching positions.
//! After that, each of the columns B to E are scanned and all the matching
//! positions materialized. Finally, each of the materialized buffers are
//! aggregated."
//!
//! A Fig.-3 / Fig.-9 comparator, not a serving engine: it reads plain
//! resident [`Table`]s only and answers a provider with a pending delta
//! (an overlay) with [`ExecError::Unsupported`].

use pdsm_exec::engine::{Accumulator, Engine, ExecError, TableProvider};
use pdsm_exec::keys::GroupKey;
use pdsm_exec::QueryOutput;
use pdsm_plan::expr::{conjuncts, simple_cmp, CmpOp, Expr};
use pdsm_plan::logical::{AggExpr, LogicalPlan};
use pdsm_storage::dictionary::like_match;
use pdsm_storage::types::cmp_values;
use pdsm_storage::{with_codes, ColId, DataType, Table, Value};
use std::collections::HashMap;

/// `Unsupported` when any table `plan` reads has a visibility overlay. The
/// baselines scan the main store only; running them over pending deltas
/// would silently drop inserts and resurrect deletes.
pub(crate) fn plain_tables_only(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
) -> Result<(), ExecError> {
    match plan.tables().into_iter().find(|t| db.overlay(t).is_some()) {
        Some(t) => Err(ExecError::Unsupported(format!(
            "table {t:?} has pending changes; the Fig.-3 baselines read plain tables only"
        ))),
        None => Ok(()),
    }
}

/// A materialized column buffer — the currency between primitives.
#[derive(Debug, Clone)]
enum ColBuf {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    /// Dictionary codes plus the owning table/column for decoding.
    Code {
        codes: Vec<u32>,
        table: String,
        col: ColId,
    },
    /// Decoded values (computed expressions, NULL-able results).
    Val(Vec<Value>),
}

impl ColBuf {
    /// Decode entry `i` to a [`Value`].
    fn value(&self, i: usize, db: &dyn TableProvider) -> Value {
        match self {
            ColBuf::I32(v) => Value::Int32(v[i]),
            ColBuf::I64(v) => Value::Int64(v[i]),
            ColBuf::F64(v) => Value::Float64(v[i]),
            ColBuf::Code { codes, table, col } => {
                let t = db.shape(table).expect("table vanished mid-query");
                Value::Str(t.dict(*col).expect("str col").decode(codes[i]).to_owned())
            }
            ColBuf::Val(v) => v[i].clone(),
        }
    }
}

/// A materialized intermediate relation: one buffer per output column.
#[derive(Debug, Clone)]
struct Chunk {
    cols: Vec<ColBuf>,
    len: usize,
}

impl Chunk {
    fn row(&self, i: usize, db: &dyn TableProvider) -> Vec<Value> {
        self.cols.iter().map(|c| c.value(i, db)).collect()
    }
}

/// The bulk engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct BulkEngine;

impl Engine for BulkEngine {
    fn name(&self) -> &'static str {
        "bulk"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        plain_tables_only(plan, db)?;
        let width = |t: &str| db.shape(t).map(|tb| tb.schema().len()).unwrap_or(0);
        let required = plan.required_columns(&width);
        let chunk = exec(plan, db, &required)?;
        let mut out = QueryOutput::new();
        out.rows.reserve(chunk.len);
        for i in 0..chunk.len {
            out.rows.push(chunk.row(i, db));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// selection primitives
// ---------------------------------------------------------------------------

macro_rules! typed_select {
    ($reader:expr, $t:expr, $c:expr, $op:expr, $lit:expr, $cands:expr, $conv:expr) => {{
        let r = $reader;
        let lit = $conv;
        let nullable = $t.schema().columns()[$c].nullable;
        let keep = |i: u32| {
            let v = r.get(i as usize);
            (!nullable || $t.is_valid(i as usize, $c)) && $op.matches(v.partial_cmp(&lit).unwrap())
        };
        match $cands {
            None => (0..r.len() as u32).filter(|&i| keep(i)).collect(),
            Some(c) => c.into_iter().filter(|&i| keep(i)).collect(),
        }
    }};
}

/// Evaluate one conjunct against `t`, refining `cands` (None = all rows).
/// This is the bulk "select" primitive: a typed scan producing a
/// materialized position vector.
fn select_conjunct(t: &Table, e: &Expr, cands: Option<Vec<u32>>) -> Vec<u32> {
    if let Some((c, op, lit)) = simple_cmp(e) {
        match t.schema().columns()[c].ty {
            DataType::Int32 => {
                if let Some(x) = lit.as_i64() {
                    // compare in i64 to avoid overflow on widening literals
                    let r = t.i32_reader(c);
                    let nullable = t.schema().columns()[c].nullable;
                    let keep = |i: u32| {
                        (!nullable || t.is_valid(i as usize, c))
                            && op.matches((r.get(i as usize) as i64).cmp(&x))
                    };
                    return match cands {
                        None => (0..r.len() as u32).filter(|&i| keep(i)).collect(),
                        Some(cs) => cs.into_iter().filter(|&i| keep(i)).collect(),
                    };
                }
            }
            DataType::Int64 => {
                if let Some(x) = lit.as_i64() {
                    return typed_select!(t.i64_reader(c), t, c, op, lit, cands, x);
                }
            }
            DataType::Float64 => {
                if let Some(x) = lit.as_f64() {
                    return typed_select!(t.f64_reader(c), t, c, op, lit, cands, x);
                }
            }
            DataType::Str => {
                if let (CmpOp::Eq, Some(s)) = (op, lit.as_str()) {
                    let code = t.dict(c).and_then(|d| d.code_of(s));
                    let nullable = t.schema().columns()[c].nullable;
                    return match code {
                        None => Vec::new(),
                        Some(code) => with_codes!(t.str_code_reader(c), r => {
                            let keep = |i: u32| {
                                (!nullable || t.is_valid(i as usize, c))
                                    && r.code(i as usize) == code
                            };
                            match cands {
                                None => (0..r.len() as u32).filter(|&i| keep(i)).collect(),
                                Some(cs) => cs.into_iter().filter(|&i| keep(i)).collect(),
                            }
                        }),
                    };
                }
            }
        }
    }
    if let Expr::Like { expr, pattern } = e {
        if let Expr::Col(c) = expr.as_ref() {
            if t.schema().columns()[c.to_owned()].ty == DataType::Str {
                let c = *c;
                // dictionary prescan: LIKE once per distinct string
                let dict = t.dict(c).expect("str col");
                let mut hit = vec![false; dict.len()];
                for (code, s) in dict.iter() {
                    hit[code as usize] = like_match(pattern, s);
                }
                let nullable = t.schema().columns()[c].nullable;
                return with_codes!(t.str_code_reader(c), r => {
                    let keep = |i: u32| {
                        (!nullable || t.is_valid(i as usize, c)) && hit[r.code(i as usize) as usize]
                    };
                    match cands {
                        None => (0..r.len() as u32).filter(|&i| keep(i)).collect(),
                        Some(cs) => cs.into_iter().filter(|&i| keep(i)).collect(),
                    }
                });
            }
        }
    }
    if let Expr::IsNull(inner) = e {
        if let Expr::Col(c) = inner.as_ref() {
            let c = *c;
            let keep = |i: u32| !t.is_valid(i as usize, c);
            return match cands {
                None => (0..t.len() as u32).filter(|&i| keep(i)).collect(),
                Some(cs) => cs.into_iter().filter(|&i| keep(i)).collect(),
            };
        }
    }
    // Disjunction: evaluate each side over the same candidates and merge
    // the (sorted) position vectors — MonetDB's candidate-list union.
    if let Expr::Or(a, b) = e {
        let left = select_conjunct(t, a, cands.clone());
        let right = select_conjunct(t, b, cands);
        let mut out = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < left.len() || j < right.len() {
            match (left.get(i), right.get(j)) {
                (Some(&l), Some(&r)) if l == r => {
                    out.push(l);
                    i += 1;
                    j += 1;
                }
                (Some(&l), Some(&r)) if l < r => {
                    out.push(l);
                    i += 1;
                }
                (Some(_), Some(&r)) => {
                    out.push(r);
                    j += 1;
                }
                (Some(&l), None) => {
                    out.push(l);
                    i += 1;
                }
                (None, Some(&r)) => {
                    out.push(r);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        return out;
    }
    // Conjunction below an Or: sequential refinement.
    if let Expr::And(a, b) = e {
        let left = select_conjunct(t, a, cands);
        return select_conjunct(t, b, Some(left));
    }
    // Fallback: interpret the conjunct row-at-a-time over the candidates,
    // reading only its referenced columns.
    let cols = e.columns();
    let width = t.schema().len();
    let eval_row = |i: u32| {
        let mut row = vec![Value::Null; width];
        for &c in &cols {
            row[c] = t.get(i as usize, c).expect("in-range");
        }
        e.eval_bool(&row[..])
    };
    match cands {
        None => (0..t.len() as u32).filter(|&i| eval_row(i)).collect(),
        Some(cs) => cs.into_iter().filter(|&i| eval_row(i)).collect(),
    }
}

// ---------------------------------------------------------------------------
// fetch primitive
// ---------------------------------------------------------------------------

/// Materialize column `c` of `t` at `positions` (None = all rows) — the bulk
/// "fetch-join" against a position vector. `catalog_name` is the name the
/// table is registered under (which may differ from `t.name()`), so that
/// decoding looks up the right dictionary.
fn fetch(t: &Table, catalog_name: &str, c: ColId, positions: Option<&[u32]>) -> ColBuf {
    let def = &t.schema().columns()[c];
    let n = positions.map(|p| p.len()).unwrap_or(t.len());
    let nullable = def.nullable;
    if nullable {
        // NULL-able columns materialize as decoded values.
        let mut out = Vec::with_capacity(n);
        let idx = |k: usize| positions.map(|p| p[k] as usize).unwrap_or(k);
        for k in 0..n {
            out.push(t.get(idx(k), c).expect("in-range"));
        }
        return ColBuf::Val(out);
    }
    match def.ty {
        DataType::Int32 => {
            let r = t.i32_reader(c);
            ColBuf::I32(match positions {
                None => r.iter().collect(),
                Some(p) => p.iter().map(|&i| r.get(i as usize)).collect(),
            })
        }
        DataType::Int64 => {
            let r = t.i64_reader(c);
            ColBuf::I64(match positions {
                None => r.iter().collect(),
                Some(p) => p.iter().map(|&i| r.get(i as usize)).collect(),
            })
        }
        DataType::Float64 => {
            let r = t.f64_reader(c);
            ColBuf::F64(match positions {
                None => r.iter().collect(),
                Some(p) => p.iter().map(|&i| r.get(i as usize)).collect(),
            })
        }
        DataType::Str => ColBuf::Code {
            codes: with_codes!(t.str_code_reader(c), r => match positions {
                None => (0..r.len()).map(|i| r.code(i)).collect(),
                Some(p) => p.iter().map(|&i| r.code(i as usize)).collect(),
            }),
            table: catalog_name.to_string(),
            col: c,
        },
    }
}

// ---------------------------------------------------------------------------
// plan execution
// ---------------------------------------------------------------------------

/// Execute `plan` to a fully materialized [`Chunk`]. `required` lists, per
/// table, the base columns the overall plan needs (drives fetch pruning).
fn exec(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
) -> Result<Chunk, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            let t = db.table(table)?;
            Ok(materialize_scan(&t, table, None, required))
        }
        LogicalPlan::Select { input, pred, .. } => {
            // Fuse select-over-scan into selection primitives on base data.
            if let LogicalPlan::Scan { table } = input.as_ref() {
                let t = db.table(table)?;
                let mut positions: Option<Vec<u32>> = None;
                for conj in conjuncts(pred) {
                    positions = Some(select_conjunct(&t, conj, positions));
                }
                return Ok(materialize_scan(&t, table, positions.as_deref(), required));
            }
            // Generic: filter a materialized chunk row-at-a-time.
            let chunk = exec(input, db, required)?;
            let mut keep = Vec::new();
            for i in 0..chunk.len {
                let row = chunk.row(i, db);
                if pred.eval_bool(&row[..]) {
                    keep.push(i as u32);
                }
            }
            Ok(gather_chunk(&chunk, &keep))
        }
        LogicalPlan::Project { input, exprs } => {
            let chunk = exec(input, db, required)?;
            // Col-only projections reuse buffers; computed expressions
            // evaluate per (already filtered) row.
            let cols = exprs
                .iter()
                .map(|e| match e {
                    Expr::Col(c) => chunk.cols[*c].clone(),
                    other => {
                        let mut vals = Vec::with_capacity(chunk.len);
                        for i in 0..chunk.len {
                            let row = chunk.row(i, db);
                            vals.push(other.eval(&row[..]));
                        }
                        ColBuf::Val(vals)
                    }
                })
                .collect();
            Ok(Chunk {
                cols,
                len: chunk.len,
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let chunk = exec(input, db, required)?;
            Ok(aggregate_chunk(&chunk, group_by, aggs, db))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let lc = exec(left, db, required)?;
            let rc = exec(right, db, required)?;
            Ok(hash_join(&lc, &rc, left_key, right_key, db))
        }
        LogicalPlan::Sort { input, keys } => {
            let chunk = exec(input, db, required)?;
            let mut idx: Vec<u32> = (0..chunk.len as u32).collect();
            // decode keys once (materialized sort keys), then sort positions
            let key_vals: Vec<Vec<Value>> = (0..chunk.len)
                .map(|i| {
                    let row = chunk.row(i, db);
                    keys.iter().map(|k| k.expr.eval(&row[..])).collect()
                })
                .collect();
            idx.sort_by(|&a, &b| {
                for (ki, k) in keys.iter().enumerate() {
                    let ord = cmp_values(&key_vals[a as usize][ki], &key_vals[b as usize][ki]);
                    let ord = if k.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(gather_chunk(&chunk, &idx))
        }
        LogicalPlan::Limit { input, n } => {
            let chunk = exec(input, db, required)?;
            let keep: Vec<u32> = (0..chunk.len.min(*n) as u32).collect();
            Ok(gather_chunk(&chunk, &keep))
        }
    }
}

/// Materialize the required columns of `t` at `positions` (None = all rows)
/// into a chunk whose column space matches the table schema (unused columns
/// become NULL buffers so positional indexing stays valid).
fn materialize_scan(
    t: &Table,
    name: &str,
    positions: Option<&[u32]>,
    required: &[(String, Vec<ColId>)],
) -> Chunk {
    let needed: Vec<ColId> = required
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.clone())
        .unwrap_or_else(|| (0..t.schema().len()).collect());
    let len = positions.map(|p| p.len()).unwrap_or(t.len());
    let cols = (0..t.schema().len())
        .map(|c| {
            if needed.contains(&c) {
                fetch(t, name, c, positions)
            } else {
                ColBuf::Val(vec![Value::Null; len])
            }
        })
        .collect();
    Chunk { cols, len }
}

/// Positional gather over every buffer of a chunk.
fn gather_chunk(chunk: &Chunk, idx: &[u32]) -> Chunk {
    let cols = chunk
        .cols
        .iter()
        .map(|b| match b {
            ColBuf::I32(v) => ColBuf::I32(idx.iter().map(|&i| v[i as usize]).collect()),
            ColBuf::I64(v) => ColBuf::I64(idx.iter().map(|&i| v[i as usize]).collect()),
            ColBuf::F64(v) => ColBuf::F64(idx.iter().map(|&i| v[i as usize]).collect()),
            ColBuf::Code { codes, table, col } => ColBuf::Code {
                codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                table: table.clone(),
                col: *col,
            },
            ColBuf::Val(v) => ColBuf::Val(idx.iter().map(|&i| v[i as usize].clone()).collect()),
        })
        .collect();
    Chunk {
        cols,
        len: idx.len(),
    }
}

/// Hash aggregation over a materialized chunk.
fn aggregate_chunk(
    chunk: &Chunk,
    group_by: &[Expr],
    aggs: &[AggExpr],
    db: &dyn TableProvider,
) -> Chunk {
    let mut groups: HashMap<GroupKey, (Vec<Value>, Vec<Accumulator>)> = HashMap::new();
    // Scalar aggregates with plain-column args get typed loops (the Fig.-3
    // "aggregate the materialized buffer" primitive).
    if group_by.is_empty()
        && aggs
            .iter()
            .all(|a| matches!(a.arg, Some(Expr::Col(_)) | None))
    {
        let mut accs: Vec<Accumulator> = aggs.iter().map(|a| Accumulator::new(a.func)).collect();
        for (a, acc) in aggs.iter().zip(accs.iter_mut()) {
            match &a.arg {
                None => {
                    for _ in 0..chunk.len {
                        acc.update_i64(1);
                    }
                    // count(*) counts rows: emulate via count of non-null 1s
                }
                Some(Expr::Col(c)) => match &chunk.cols[*c] {
                    ColBuf::I32(v) => v.iter().for_each(|&x| acc.update_i64(x as i64)),
                    ColBuf::I64(v) => v.iter().for_each(|&x| acc.update_i64(x)),
                    ColBuf::F64(v) => v.iter().for_each(|&x| acc.update_f64(x)),
                    other => {
                        for i in 0..chunk.len {
                            acc.update(&other.value(i, db));
                        }
                    }
                },
                Some(_) => unreachable!("guarded above"),
            }
        }
        let row: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
        return rows_to_chunk(vec![row]);
    }
    for i in 0..chunk.len {
        let row = chunk.row(i, db);
        let key_vals: Vec<Value> = group_by.iter().map(|g| g.eval(&row[..])).collect();
        let key = GroupKey::of(&key_vals);
        let entry = groups.entry(key).or_insert_with(|| {
            (
                key_vals.clone(),
                aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            )
        });
        for (acc, spec) in entry.1.iter_mut().zip(aggs) {
            match &spec.arg {
                Some(e) => acc.update(&e.eval(&row[..])),
                None => acc.update(&Value::Int32(1)),
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        let accs: Vec<Accumulator> = aggs.iter().map(|a| Accumulator::new(a.func)).collect();
        return rows_to_chunk(vec![accs.iter().map(|a| a.finish()).collect()]);
    }
    let rows: Vec<Vec<Value>> = groups
        .into_values()
        .map(|(mut k, accs)| {
            k.extend(accs.iter().map(|a| a.finish()));
            k
        })
        .collect();
    rows_to_chunk(rows)
}

/// Hash join of two materialized chunks.
fn hash_join(
    lc: &Chunk,
    rc: &Chunk,
    left_key: &Expr,
    right_key: &Expr,
    db: &dyn TableProvider,
) -> Chunk {
    let mut ht: HashMap<GroupKey, Vec<u32>> = HashMap::new();
    for i in 0..lc.len {
        let row = lc.row(i, db);
        let k = left_key.eval(&row[..]);
        if k.is_null() {
            continue;
        }
        ht.entry(GroupKey::single(&k)).or_default().push(i as u32);
    }
    let mut lpos = Vec::new();
    let mut rpos = Vec::new();
    for j in 0..rc.len {
        let row = rc.row(j, db);
        let k = right_key.eval(&row[..]);
        if k.is_null() {
            continue;
        }
        if let Some(ms) = ht.get(&GroupKey::single(&k)) {
            for &m in ms {
                lpos.push(m);
                rpos.push(j as u32);
            }
        }
    }
    let l = gather_chunk(lc, &lpos);
    let mut cols = l.cols;
    let r = gather_chunk(rc, &rpos);
    cols.extend(r.cols);
    Chunk {
        cols,
        len: lpos.len(),
    }
}

/// Build a chunk of decoded value rows (aggregation outputs).
fn rows_to_chunk(rows: Vec<Vec<Value>>) -> Chunk {
    let width = rows.first().map(|r| r.len()).unwrap_or(0);
    let len = rows.len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(len); width];
    for row in rows {
        for (c, v) in row.into_iter().enumerate() {
            cols[c].push(v);
        }
    }
    Chunk {
        cols: cols.into_iter().map(ColBuf::Val).collect(),
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::logical::AggFunc;
    use pdsm_storage::{ColumnDef, Schema};

    fn db() -> HashMap<String, Table> {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int32),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::nullable("f", DataType::Float64),
            ]),
        );
        for i in 0..100 {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 10),
                Value::Str(format!("name-{}", i % 3)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64)
                },
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    #[test]
    fn typed_selection_and_fetch() {
        let plan = QueryBuilder::scan("t")
            .filter(
                Expr::col(1)
                    .eq(Expr::lit(3))
                    .and(Expr::col(0).lt(Expr::lit(50))),
            )
            .project(vec![Expr::col(0)])
            .build();
        let out = BulkEngine.execute(&plan, &db()).unwrap();
        let mut got: Vec<i64> = out.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![3, 13, 23, 33, 43]);
    }

    #[test]
    fn like_via_dictionary_prescan() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("name-1"))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let out = BulkEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.rows[0][0], Value::Int64(33));
    }

    #[test]
    fn nullable_aggregation_skips_nulls() {
        let plan = QueryBuilder::scan("t")
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Count, Expr::col(3)),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        let out = BulkEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.rows[0][0], Value::Int64(75), "25 NULLs skipped");
        assert_eq!(out.rows[0][1], Value::Int64(4950));
    }

    #[test]
    fn group_by_string_column() {
        let plan = QueryBuilder::scan("t")
            .aggregate(vec![Expr::col(2)], vec![AggExpr::count_star()])
            .build();
        let out = BulkEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.len(), 3);
        for r in &out.rows {
            let n = r[1].as_i64().unwrap();
            assert!(n == 33 || n == 34);
        }
    }

    #[test]
    fn join_matches_volcano() {
        use pdsm_exec::VolcanoEngine;
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(5)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .project(vec![Expr::col(0), Expr::col(6)])
            .build();
        let d = db();
        let a = BulkEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "bulk vs volcano join");
        assert_eq!(a.len(), 10);
    }

    #[test]
    fn sort_and_limit_match_volcano() {
        use pdsm_exec::VolcanoEngine;
        let plan = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(0)])
            .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
            .limit(7)
            .build();
        let d = db();
        let a = BulkEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        assert_eq!(a.rows, b.rows, "sorted output must match exactly");
    }

    #[test]
    fn is_null_predicate() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(3).is_null())
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let out = BulkEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.rows[0][0], Value::Int64(25));
    }
}
