//! The compiled engine: data-centric fused pipelines (§III-B, Fig. 2c).
//!
//! HyPer JiT-compiles each query with LLVM; the property that matters for
//! the paper's argument is what the *generated loops look like*: all
//! operators of a pipeline fused into one loop, predicates evaluated on
//! typed in-place data, values staying in registers, and **no per-tuple
//! indirect calls**. This engine reproduces those loops ahead of time:
//!
//! * a query is "compiled" once: predicates lower to typed
//!   [`PredKernel`]s bound directly to partition readers (string predicates
//!   become dictionary-code tests via a one-pass dictionary prescan),
//! * each pipeline runs as a single loop over its scan; survivors flow
//!   through join probes and projections into a sink (aggregation state,
//!   join hash table, or the result buffer),
//! * the hottest shape — scan → conjunctive filter → scalar aggregation,
//!   the paper's Fig. 2c — runs a fully typed loop with no row
//!   materialization at all.
//!
//! Enum-match dispatch inside the loop compiles to direct, predictable
//! branches (the same target every iteration), which is the microarchitectural
//! property the paper contrasts against Volcano's function pointers.
//!
//! This file holds the kernels (predicate compilation, 64-row block masks,
//! zone-predicate extraction). The lowering, the survivor loop, the walk
//! over main-store pieces and the aggregate state live in
//! [`crate::pipeline`], shared with the parallel driver; the compiled
//! engine is that core walked sequentially — each piece's `0..n` into one
//! state (or one output buffer).

use crate::engine::{Engine, ExecError, TableProvider};
use crate::pipeline::{self, Sequential};
use crate::result::QueryOutput;
use crate::simd;
use pdsm_plan::expr::{conjuncts, simple_cmp, CmpOp, Expr};
use pdsm_plan::logical::LogicalPlan;
use pdsm_storage::dictionary::like_match;
use pdsm_storage::partition::{F64Col, I32Col, I64Col, U32Col};
use pdsm_storage::{ColId, DataType, Table, Value, ZoneOp, ZonePred};

/// The compiled engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompiledEngine;

impl Engine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        let rows = pipeline::execute(plan, db, &Sequential, None)?;
        Ok(QueryOutput { rows })
    }
}

// ---------------------------------------------------------------------------
// predicate kernels
// ---------------------------------------------------------------------------

/// A typed, pre-bound predicate over one scan. `test(row)` is an inlined
/// match with direct loads — the compiled counterpart of Fig. 2c line 6.
pub enum PredKernel<'t> {
    I32Cmp {
        r: I32Col<'t>,
        op: CmpOp,
        v: i64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    I64Cmp {
        r: I64Col<'t>,
        op: CmpOp,
        v: i64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    F64Cmp {
        r: F64Col<'t>,
        op: CmpOp,
        v: f64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    CodeEq {
        r: U32Col<'t>,
        code: u32,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    /// Dictionary-code membership (LIKE and other string predicates).
    CodeIn {
        r: U32Col<'t>,
        hits: Vec<bool>,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    /// Matches nothing (e.g. equality with a string absent from the dict).
    Never,
    /// `IS [NOT] NULL`.
    Null {
        col: ColId,
        negate: bool,
        t: &'t Table,
    },
    /// Short-circuit disjunction of two kernels (e.g. Q1's two LIKEs).
    Or(Box<PredKernel<'t>>, Box<PredKernel<'t>>),
    /// Short-circuit conjunction (inside an Or branch).
    And(Box<PredKernel<'t>>, Box<PredKernel<'t>>),
    /// Negation of a kernel.
    Not(Box<PredKernel<'t>>),
    /// Interpreter fallback for predicates outside the kernel vocabulary
    /// (disjunctions, cross-column compares). Reads only its columns.
    Interp {
        expr: Expr,
        cols: Vec<ColId>,
        width: usize,
        t: &'t Table,
    },
}

impl PredKernel<'_> {
    #[inline(always)]
    pub fn test(&self, i: usize) -> bool {
        match self {
            PredKernel::I32Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                op.matches((r.get(i) as i64).cmp(v))
            }
            PredKernel::I64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                op.matches(r.get(i).cmp(v))
            }
            PredKernel::F64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                r.get(i)
                    .partial_cmp(v)
                    .map(|o| op.matches(o))
                    .unwrap_or(false)
            }
            PredKernel::CodeEq {
                r,
                code,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                r.get(i) == *code
            }
            PredKernel::CodeIn {
                r,
                hits,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                hits[r.get(i) as usize]
            }
            PredKernel::Never => false,
            PredKernel::Null { col, negate, t } => t.is_valid(i, *col) == *negate,
            PredKernel::Or(a, b) => a.test(i) || b.test(i),
            PredKernel::And(a, b) => a.test(i) && b.test(i),
            PredKernel::Not(a) => !a.test(i),
            PredKernel::Interp {
                expr,
                cols,
                width,
                t,
            } => {
                let mut row = vec![Value::Null; *width];
                for &c in cols {
                    row[c] = t.get(i, c).expect("in-range");
                }
                expr.eval_bool(&row[..])
            }
        }
    }
}

/// Lower one conjunct to a kernel.
pub fn compile_pred<'t>(t: &'t Table, e: &Expr) -> PredKernel<'t> {
    let null_of = |c: ColId| t.schema().columns()[c].nullable.then_some(c);
    if let Some((c, op, lit)) = simple_cmp(e) {
        match t.schema().columns()[c].ty {
            DataType::Int32 => {
                if let Some(v) = lit.as_i64() {
                    return PredKernel::I32Cmp {
                        r: t.i32_reader(c),
                        op,
                        v,
                        null_col: null_of(c),
                        t,
                    };
                }
            }
            DataType::Int64 => {
                if let Some(v) = lit.as_i64() {
                    return PredKernel::I64Cmp {
                        r: t.i64_reader(c),
                        op,
                        v,
                        null_col: null_of(c),
                        t,
                    };
                }
            }
            DataType::Float64 => {
                if let Some(v) = lit.as_f64() {
                    return PredKernel::F64Cmp {
                        r: t.f64_reader(c),
                        op,
                        v,
                        null_col: null_of(c),
                        t,
                    };
                }
            }
            DataType::Str => {
                if let (CmpOp::Eq, Some(s)) = (op, lit.as_str()) {
                    return match t.dict(c).and_then(|d| d.code_of(s)) {
                        Some(code) => PredKernel::CodeEq {
                            r: t.str_code_reader(c),
                            code,
                            null_col: null_of(c),
                            t,
                        },
                        None => PredKernel::Never,
                    };
                }
            }
        }
    }
    if let Expr::Like { expr, pattern } = e {
        if let Expr::Col(c) = expr.as_ref() {
            if t.schema().columns()[*c].ty == DataType::Str {
                let dict = t.dict(*c).expect("str col");
                let mut hits = vec![false; dict.len()];
                for (code, s) in dict.iter() {
                    hits[code as usize] = like_match(pattern, s);
                }
                return PredKernel::CodeIn {
                    r: t.str_code_reader(*c),
                    hits,
                    null_col: null_of(*c),
                    t,
                };
            }
        }
    }
    if let Expr::IsNull(inner) = e {
        if let Expr::Col(c) = inner.as_ref() {
            return PredKernel::Null {
                col: *c,
                negate: false,
                t,
            };
        }
    }
    if let Expr::Not(inner) = e {
        if let Expr::IsNull(inner2) = inner.as_ref() {
            if let Expr::Col(c) = inner2.as_ref() {
                return PredKernel::Null {
                    col: *c,
                    negate: true,
                    t,
                };
            }
        }
        let k = compile_pred(t, inner);
        if !matches!(k, PredKernel::Interp { .. }) {
            return PredKernel::Not(Box::new(k));
        }
    }
    // Boolean composition stays in kernel space when both sides lower to
    // kernels; interpreting one leaf would interpret the whole thing anyway.
    if let Expr::Or(a, b) = e {
        let (ka, kb) = (compile_pred(t, a), compile_pred(t, b));
        if !matches!(ka, PredKernel::Interp { .. }) && !matches!(kb, PredKernel::Interp { .. }) {
            return PredKernel::Or(Box::new(ka), Box::new(kb));
        }
    }
    if let Expr::And(a, b) = e {
        let (ka, kb) = (compile_pred(t, a), compile_pred(t, b));
        if !matches!(ka, PredKernel::Interp { .. }) && !matches!(kb, PredKernel::Interp { .. }) {
            return PredKernel::And(Box::new(ka), Box::new(kb));
        }
    }
    PredKernel::Interp {
        expr: e.clone(),
        cols: e.columns(),
        width: t.schema().len(),
        t,
    }
}

// ---------------------------------------------------------------------------
// zone-map pruning
// ---------------------------------------------------------------------------

/// Extract the zone-map-refutable conjuncts of `preds` (each element is
/// itself a conjunct of the scan). Mirrors [`compile_pred`]'s literal
/// handling, so a zone refutation is exactly "no row in this block can pass
/// the corresponding kernel": comparisons against literals on numeric
/// columns (in the kernel's widened domain), `IS [NOT] NULL` on plain
/// columns. `OR`s, string predicates, and anything interpreted contribute
/// nothing — pruning stays sound by simply knowing less.
pub fn zone_preds(t: &Table, preds: &[Expr]) -> Vec<ZonePred> {
    let mut out = Vec::new();
    for p in preds {
        for c in conjuncts(p) {
            collect_zone_pred(t, c, &mut out);
        }
    }
    out
}

fn collect_zone_pred(t: &Table, e: &Expr, out: &mut Vec<ZonePred>) {
    let zop = |op: CmpOp| match op {
        CmpOp::Eq => ZoneOp::Eq,
        CmpOp::Ne => ZoneOp::Ne,
        CmpOp::Lt => ZoneOp::Lt,
        CmpOp::Le => ZoneOp::Le,
        CmpOp::Gt => ZoneOp::Gt,
        CmpOp::Ge => ZoneOp::Ge,
    };
    if let Some((col, op, lit)) = simple_cmp(e) {
        let op = zop(op);
        match t.schema().columns()[col].ty {
            DataType::Int32 | DataType::Int64 => {
                out.extend(lit.as_i64().map(|v| ZonePred::I64Cmp { col, op, v }))
            }
            DataType::Float64 => out.extend(lit.as_f64().map(|v| ZonePred::F64Cmp { col, op, v })),
            DataType::Str => {}
        }
        return;
    }
    match e {
        Expr::IsNull(inner) => {
            if let Expr::Col(c) = inner.as_ref() {
                out.push(ZonePred::IsNull {
                    col: *c,
                    negate: false,
                });
            }
        }
        Expr::Not(inner) => {
            if let Expr::IsNull(inner2) = inner.as_ref() {
                if let Expr::Col(c) = inner2.as_ref() {
                    out.push(ZonePred::IsNull {
                        col: *c,
                        negate: true,
                    });
                }
            }
        }
        _ => {}
    }
}

/// `x OP v` as `x.partial_cmp(&v)` decides it, without a branch on the
/// ordering: no operator holds when either side is NaN, so `<>` is "less
/// or greater", not `!=`.
#[inline(always)]
fn cmp_f64(x: f64, op: CmpOp, v: f64) -> bool {
    match op {
        CmpOp::Eq => x == v,
        CmpOp::Ne => (x < v) | (x > v),
        CmpOp::Lt => x < v,
        CmpOp::Le => x <= v,
        CmpOp::Gt => x > v,
        CmpOp::Ge => x >= v,
    }
}

/// Per-row validity of `c` over `len (≤ 64)` rows from `start`, as a bitmask.
fn valid_mask(t: &Table, c: ColId, start: usize, len: usize) -> u64 {
    let mut m = 0u64;
    for j in 0..len {
        m |= (t.is_valid(start + j, c) as u64) << j;
    }
    m
}

impl<'t> PredKernel<'t> {
    /// Evaluate this kernel over `len (≤ 64)` consecutive main-store rows
    /// starting at `start`; for every row `j` set in `alive`, bit `j` of
    /// the result is `self.test(start + j)` (bits outside `alive` are
    /// unspecified — callers AND the result into their mask).
    /// Comparisons of a number column with a literal run a typed 64-row
    /// loop and ignore `alive` (integer ones through the wide kernels of
    /// [`crate::simd`] when the column is densely packed; float ones stay
    /// scalar, see its module docs); everything else tests only the
    /// alive rows one at a time, so a selective cheap conjunct in front
    /// spares an expensive scalar one (interpreted predicates allocate
    /// per row) the rows it already rejected.
    pub fn block_mask(
        &self,
        start: usize,
        len: usize,
        alive: u64,
        wide: bool,
        stats: &mut simd::ChunkStats,
    ) -> u64 {
        debug_assert!(len <= 64);
        match self {
            PredKernel::I32Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                let mut m = match r.as_slice() {
                    Some(s) => simd::mask_i32(&s[start..start + len], *op, *v, wide, stats),
                    None => {
                        stats.scalar += 1;
                        let mut m = 0u64;
                        for j in 0..len {
                            let x = r.get(start + j) as i64;
                            m |= (op.matches(x.cmp(v)) as u64) << j;
                        }
                        m
                    }
                };
                if let Some(c) = null_col {
                    m &= valid_mask(t, *c, start, len);
                }
                m
            }
            PredKernel::I64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                let mut m = match r.as_slice() {
                    Some(s) => simd::mask_i64(&s[start..start + len], *op, *v, wide, stats),
                    None => {
                        stats.scalar += 1;
                        let mut m = 0u64;
                        for j in 0..len {
                            m |= (op.matches(r.get(start + j).cmp(v)) as u64) << j;
                        }
                        m
                    }
                };
                if let Some(c) = null_col {
                    m &= valid_mask(t, *c, start, len);
                }
                m
            }
            PredKernel::F64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                stats.scalar += 1;
                let mut m = 0u64;
                for j in 0..len {
                    m |= (cmp_f64(r.get(start + j), *op, *v) as u64) << j;
                }
                if let Some(c) = null_col {
                    m &= valid_mask(t, *c, start, len);
                }
                m
            }
            PredKernel::Never => 0,
            PredKernel::Null { col, negate, t } => {
                let vm = valid_mask(t, *col, start, len);
                if *negate {
                    vm
                } else {
                    !vm & simd::ones(len)
                }
            }
            PredKernel::And(a, b) => {
                let ma = a.block_mask(start, len, alive, wide, stats) & alive;
                if ma == 0 {
                    return 0;
                }
                ma & b.block_mask(start, len, ma, wide, stats)
            }
            PredKernel::Or(a, b) => {
                let ma = a.block_mask(start, len, alive, wide, stats) & alive;
                ma | b.block_mask(start, len, alive & !ma, wide, stats)
            }
            PredKernel::Not(a) => !a.block_mask(start, len, alive, wide, stats) & simd::ones(len),
            // Dictionary-code tests and interpreted predicates test the
            // alive rows one at a time.
            _ => {
                stats.scalar += 1;
                let (mut m, mut todo) = (0u64, alive);
                while todo != 0 {
                    let j = todo.trailing_zeros();
                    todo &= todo - 1;
                    m |= (self.test(start + j as usize) as u64) << j;
                }
                m
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volcano::VolcanoEngine;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::logical::{AggExpr, AggFunc};
    use pdsm_storage::{ColumnDef, Schema};
    use std::collections::HashMap;

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
        for i in 0..200 {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 10),
                Value::Str(format!("name-{}", i % 5)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 / 2.0)
                },
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    #[test]
    fn fig2c_fast_path_sums() {
        // select sum(a), count(*) from t where b = 3 — the Fig. 2c loop
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::count_star(),
                ],
            )
            .build();
        let out = CompiledEngine.execute(&plan, &db()).unwrap();
        let expect: i64 = (0..200).filter(|i| i % 10 == 3).sum::<i64>();
        assert_eq!(out.rows[0][0], Value::Int64(expect));
        assert_eq!(out.rows[0][1], Value::Int64(20));
    }

    #[test]
    fn fast_path_skips_nulls() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(5)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Count, Expr::col(3))])
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "null handling in fast path");
    }

    #[test]
    fn string_predicates_via_codes() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("name-2").or(Expr::col(2).like("name-3")))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "disjunctive LIKE");
        assert_eq!(a.rows[0][0], Value::Int64(80));
    }

    #[test]
    fn str_eq_absent_matches_nothing() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).eq(Expr::lit("no-such-name")))
            .project(vec![Expr::col(0)])
            .build();
        let out = CompiledEngine.execute(&plan, &db()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn differential_group_by() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(0).ge(Expr::lit(40)))
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "compiled vs volcano");
    }

    #[test]
    fn fused_join_probe() {
        // self join: filtered build side, full probe side
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(7)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .project(vec![Expr::col(0), Expr::col(4 + 2)])
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "fused join");
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn join_then_aggregate_pipeline() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).le(Expr::lit(2)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .aggregate(
                vec![Expr::col(4 + 1)],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(0))],
            )
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "join+agg");
    }

    #[test]
    fn sort_limit_exact_order() {
        let plan = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(0)])
            .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
            .limit(11)
            .build();
        let d = db();
        let a = CompiledEngine.execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        assert_eq!(a.rows, b.rows);
    }
}
