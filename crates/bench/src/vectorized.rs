//! The vectorized engine — MonetDB/X100-style block-at-a-time processing
//! (§II-A of the paper, citing Zukowski et al. \[35\] and the
//! vectorization-vs-compilation study of Sompolski et al. \[32\]).
//!
//! Between bulk and compiled: primitives are invoked **once per vector**
//! (amortizing interpretation overhead like bulk) but intermediates —
//! selection vectors of positions — stay CPU-cache resident instead of
//! being materialized in full (unlike bulk). The engine processes a scan in
//! blocks of [`VectorizedEngine::vector_size`] tuples; each predicate
//! kernel filters the block's selection vector in one call.
//!
//! Scope: the vectorized model's distinguishing behaviour lives in
//! scan-filter-aggregate/project pipelines, which is what this engine
//! implements (the Fig. 3 query family and the single-table benchmark
//! queries). Joins and sorts return [`ExecError::Unsupported`]; the paper's
//! comparisons involving those operators use the other engines.
//!
//! An ablation beside Fig. 3, not a serving engine: like
//! [`crate::BulkEngine`] it reads plain resident [`Table`]s only and answers
//! a provider with a pending delta with [`ExecError::Unsupported`].

use crate::bulk::plain_tables_only;
use pdsm_exec::engine::{Accumulator, Engine, ExecError, TableProvider};
use pdsm_exec::keys::GroupKey;
use pdsm_exec::{compile_pred, PredKernel, QueryOutput};
use pdsm_plan::expr::{conjuncts, Expr};
use pdsm_plan::logical::{AggExpr, LogicalPlan};
use pdsm_storage::{ColId, Table, Value};
use std::collections::HashMap;

/// Block-at-a-time engine with a configurable vector size.
#[derive(Debug, Clone, Copy)]
pub struct VectorizedEngine {
    /// Tuples per vector. X100's sweet spot is around 1 k — large enough to
    /// amortize per-primitive dispatch, small enough that positions and
    /// fetched values stay in L1/L2 (the `vector_size` ablation bench sweeps
    /// this).
    pub vector_size: usize,
}

impl Default for VectorizedEngine {
    fn default() -> Self {
        VectorizedEngine { vector_size: 1024 }
    }
}

impl VectorizedEngine {
    /// Engine with an explicit vector size (for the ablation).
    pub fn with_vector_size(vector_size: usize) -> Self {
        assert!(vector_size > 0);
        VectorizedEngine { vector_size }
    }

    /// Can this engine run `plan`? True exactly for the single-table
    /// `[Limit]([Project|Aggregate](Select*(Scan)))` pipelines the
    /// vectorized model implements; joins and sorts are not vectorized.
    /// Differential-test drivers consult this instead of probing for
    /// [`ExecError::Unsupported`] at run time.
    pub fn supports(plan: &LogicalPlan) -> bool {
        recognize(plan).is_ok()
    }
}

impl Engine for VectorizedEngine {
    fn name(&self) -> &'static str {
        "vectorized"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        plain_tables_only(plan, db)?;
        let width = |t: &str| db.shape(t).map(|tb| tb.schema().len()).unwrap_or(0);
        let required = plan.required_columns(&width);
        let shape = recognize(plan)?;
        let t = db.table(shape.table)?;
        let needed: Vec<ColId> = required
            .iter()
            .find(|(n, _)| n == shape.table)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| (0..t.schema().len()).collect());
        let kernels: Vec<PredKernel<'_>> =
            shape.preds.iter().map(|p| compile_pred(&t, p)).collect();

        let mut out = QueryOutput::new();
        let mut agg_state: HashMap<GroupKey, (Vec<Value>, Vec<Accumulator>)> = HashMap::new();
        let n = t.len();
        let vs = self.vector_size;
        // reusable, cache-resident selection vector
        let mut sel: Vec<u32> = Vec::with_capacity(vs);
        let mut start = 0usize;
        while start < n {
            let end = (start + vs).min(n);
            sel.clear();
            sel.extend(start as u32..end as u32);
            // one primitive call per kernel per vector
            for k in &kernels {
                filter_vector(k, &mut sel);
                if sel.is_empty() {
                    break;
                }
            }
            for &i in &sel {
                let row = materialize(&t, i as usize, &needed);
                match &shape.sink {
                    VecSink::Collect(exprs) => out.rows.push(match exprs {
                        Some(es) => es.iter().map(|e| e.eval(&row)).collect(),
                        None => row,
                    }),
                    VecSink::Aggregate { group_by, aggs } => {
                        let key_vals: Vec<Value> = group_by.iter().map(|g| g.eval(&row)).collect();
                        let entry = agg_state.entry(GroupKey::of(&key_vals)).or_insert_with(|| {
                            (
                                key_vals.clone(),
                                aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                            )
                        });
                        for (acc, spec) in entry.1.iter_mut().zip(aggs.iter()) {
                            match &spec.arg {
                                Some(e) => acc.update(&e.eval(&row)),
                                None => acc.update(&Value::Int32(1)),
                            }
                        }
                    }
                }
            }
            start = end;
        }
        if let VecSink::Aggregate { group_by, aggs } = &shape.sink {
            if agg_state.is_empty() && group_by.is_empty() {
                let accs: Vec<Accumulator> =
                    aggs.iter().map(|a| Accumulator::new(a.func)).collect();
                out.rows.push(accs.iter().map(|a| a.finish()).collect());
            } else {
                for (mut keys, accs) in agg_state.into_values() {
                    keys.extend(accs.iter().map(|a| a.finish()));
                    out.rows.push(keys);
                }
            }
        }
        if let Some(limit) = shape.limit {
            out.rows.truncate(limit);
        }
        Ok(out)
    }
}

/// One primitive call: keep the positions of the vector that satisfy the
/// kernel. The variant is matched **once**; the retained loop is tight.
fn filter_vector(k: &PredKernel<'_>, sel: &mut Vec<u32>) {
    sel.retain(|&i| k.test(i as usize));
}

fn materialize(t: &Table, i: usize, needed: &[ColId]) -> Vec<Value> {
    let mut row = vec![Value::Null; t.schema().len()];
    for &c in needed {
        row[c] = t.get(i, c).expect("in-range");
    }
    row
}

enum VecSink {
    /// Output rows, optionally projected.
    Collect(Option<Vec<Expr>>),
    /// Hash aggregation.
    Aggregate {
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
    },
}

struct VecShape<'p> {
    table: &'p str,
    preds: Vec<Expr>,
    sink: VecSink,
    limit: Option<usize>,
}

/// Recognize the single-table pipeline shapes this engine supports:
/// `[Limit] ([Project]|[Aggregate]) Select* Scan`.
fn recognize(plan: &LogicalPlan) -> Result<VecShape<'_>, ExecError> {
    let (limit, plan) = match plan {
        LogicalPlan::Limit { input, n } => (Some(*n), input.as_ref()),
        p => (None, p),
    };
    let (sink, mut cur) = match plan {
        LogicalPlan::Project { input, exprs } => {
            (VecSink::Collect(Some(exprs.clone())), input.as_ref())
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => (
            VecSink::Aggregate {
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            input.as_ref(),
        ),
        p => (VecSink::Collect(None), p),
    };
    let mut preds = Vec::new();
    loop {
        match cur {
            LogicalPlan::Select { input, pred, .. } => {
                // preserve evaluation order: outer selects run later
                let mut cs: Vec<Expr> = conjuncts(pred).into_iter().cloned().collect();
                cs.extend(preds);
                preds = cs;
                cur = input.as_ref();
            }
            LogicalPlan::Scan { table } => {
                return Ok(VecShape {
                    table,
                    preds,
                    sink,
                    limit,
                })
            }
            other => {
                return Err(ExecError::Unsupported(format!(
                    "vectorized engine supports single-table scan pipelines, got {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::CompiledEngine;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_plan::logical::AggFunc;
    use pdsm_storage::{ColumnDef, DataType, Schema};

    fn db() -> HashMap<String, Table> {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int32),
                ColumnDef::new("s", DataType::Str),
            ]),
        );
        for i in 0..5000 {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 13),
                Value::Str(format!("g{}", i % 4)),
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    #[test]
    fn matches_compiled_on_filter_aggregate() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(
                Expr::col(1)
                    .eq(Expr::lit(3))
                    .and(Expr::col(0).lt(Expr::lit(2500))),
            )
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        let v = VectorizedEngine::default().execute(&plan, &d).unwrap();
        let c = CompiledEngine.execute(&plan, &d).unwrap();
        v.assert_same(&c, "vectorized vs compiled");
    }

    #[test]
    fn vector_size_does_not_change_results() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("g1%"))
            .project(vec![Expr::col(0)])
            .build();
        let reference = VectorizedEngine::with_vector_size(1)
            .execute(&plan, &d)
            .unwrap();
        for vs in [7, 64, 1024, 1 << 20] {
            let out = VectorizedEngine::with_vector_size(vs)
                .execute(&plan, &d)
                .unwrap();
            assert_eq!(out.rows, reference.rows, "vector size {vs}");
        }
    }

    #[test]
    fn scalar_aggregate_and_empty_result() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(-1)))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let out = VectorizedEngine::default().execute(&plan, &d).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(0)]]);
    }

    #[test]
    fn limit_applies() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .project(vec![Expr::col(0)])
            .limit(17)
            .build();
        let out = VectorizedEngine::default().execute(&plan, &d).unwrap();
        assert_eq!(out.len(), 17);
    }

    #[test]
    fn joins_unsupported() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .build();
        assert!(matches!(
            VectorizedEngine::default().execute(&plan, &d),
            Err(ExecError::Unsupported(_))
        ));
    }

    #[test]
    fn stacked_selects_preserve_order() {
        let d = db();
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(5)))
            .filter(Expr::col(0).gt(Expr::lit(100)))
            .project(vec![Expr::col(0), Expr::col(1)])
            .build();
        let v = VectorizedEngine::default().execute(&plan, &d).unwrap();
        let c = CompiledEngine.execute(&plan, &d).unwrap();
        v.assert_same(&c, "stacked selects");
    }
}
