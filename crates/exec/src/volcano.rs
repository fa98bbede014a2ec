//! The Volcano (iterator) engine — the CPU-inefficient baseline of §II-A.
//!
//! Every operator is a boxed trait object; `next()` is a virtual call per
//! tuple per operator; predicates and projections are boxed closures
//! ("configured" operators, exactly the function-pointer wiring the paper
//! describes); tuples are heap-allocated `Vec<Value>`s. None of this is
//! accidental sloppiness — it is the faithful reconstruction of the model
//! whose cost the paper quantifies. Do not "optimize" it.

use crate::engine::{Accumulator, Engine, ExecError, Overlay, TableProvider};
use crate::keys::GroupKey;
use crate::result::QueryOutput;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, LogicalPlan, SortKey};
use pdsm_storage::types::cmp_values;
use pdsm_storage::{ColId, Table, Value};
use std::borrow::Cow;
use std::collections::HashMap;

/// Tuple-at-a-time operator interface.
trait Operator {
    /// Produce the next tuple, or `None` when exhausted.
    fn next(&mut self) -> Option<Vec<Value>>;
}

/// Scan over a table, materializing the listed columns per tuple (positions
/// not listed are filled with NULL so column indexes stay schema-positional).
/// With a visibility [`Overlay`], tombstoned main rows are skipped and the
/// live tail rows are emitted after the main store, in append order.
struct ScanOp<'a> {
    table: Cow<'a, Table>,
    overlay: Option<Overlay<'a>>,
    needed: Vec<ColId>,
    width: usize,
    row: usize,
    tail_row: usize,
}

impl Operator for ScanOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        while self.row < self.table.len() {
            let i = self.row;
            self.row += 1;
            if let Some(o) = &self.overlay {
                if o.is_dead(i) {
                    continue;
                }
            }
            let mut out = vec![Value::Null; self.width];
            for &c in &self.needed {
                out[c] = self.table.get(i, c).expect("in-range");
            }
            return Some(out);
        }
        let o = self.overlay.as_ref()?;
        while self.tail_row < o.tail.len() {
            let k = self.tail_row;
            self.tail_row += 1;
            if !o.tail_alive.is_empty() && !o.tail_alive[k] {
                continue;
            }
            return Some(crate::engine::masked_tail_row(
                &o.tail[k],
                &self.needed,
                self.width,
            ));
        }
        None
    }
}

/// Boxed row predicate — the per-tuple indirect call Volcano pays by design.
type RowPred<'a> = Box<dyn Fn(&[Value]) -> bool + 'a>;
/// Boxed row expression evaluator.
type RowEval<'a> = Box<dyn Fn(&[Value]) -> Value + 'a>;

/// Filter with a boxed predicate closure.
struct SelectOp<'a> {
    input: Box<dyn Operator + 'a>,
    pred: RowPred<'a>,
}

impl Operator for SelectOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            let t = self.input.next()?;
            if (self.pred)(&t) {
                return Some(t);
            }
        }
    }
}

/// Projection with boxed expression evaluators.
struct ProjectOp<'a> {
    input: Box<dyn Operator + 'a>,
    exprs: Vec<RowEval<'a>>,
}

impl Operator for ProjectOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        let t = self.input.next()?;
        Some(self.exprs.iter().map(|e| e(&t)).collect())
    }
}

/// Blocking hash aggregation.
struct AggregateOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    group_by: Vec<Expr>,
    aggs: Vec<AggExpr>,
    buffered: std::vec::IntoIter<Vec<Value>>,
    done: bool,
}

impl AggregateOp<'_> {
    fn drain(&mut self) {
        let mut input = self.input.take().expect("drained once");
        let mut groups: HashMap<GroupKey, (Vec<Value>, Vec<Accumulator>)> = HashMap::new();
        while let Some(t) = input.next() {
            let key_vals: Vec<Value> = self.group_by.iter().map(|g| g.eval(&t[..])).collect();
            let key = GroupKey::of(&key_vals);
            let entry = groups.entry(key).or_insert_with(|| {
                (
                    key_vals.clone(),
                    self.aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                )
            });
            for (acc, spec) in entry.1.iter_mut().zip(&self.aggs) {
                match &spec.arg {
                    Some(e) => acc.update(&e.eval(&t[..])),
                    None => acc.update(&Value::Int32(1)), // count(*)
                }
            }
        }
        // Scalar aggregation over empty input still yields one row.
        if groups.is_empty() && self.group_by.is_empty() {
            let accs: Vec<Accumulator> =
                self.aggs.iter().map(|a| Accumulator::new(a.func)).collect();
            let row: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            self.buffered = vec![row].into_iter();
            return;
        }
        let rows: Vec<Vec<Value>> = groups
            .into_values()
            .map(|(mut keys, accs)| {
                keys.extend(accs.iter().map(|a| a.finish()));
                keys
            })
            .collect();
        self.buffered = rows.into_iter();
    }
}

impl Operator for AggregateOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        if !self.done {
            self.drain();
            self.done = true;
        }
        self.buffered.next()
    }
}

/// Blocking hash join (build left, probe right).
struct JoinOp<'a> {
    left: Option<Box<dyn Operator + 'a>>,
    right: Box<dyn Operator + 'a>,
    left_key: Expr,
    right_key: Expr,
    ht: HashMap<GroupKey, Vec<Vec<Value>>>,
    built: bool,
    pending: Vec<Vec<Value>>,
}

impl Operator for JoinOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        if !self.built {
            let mut left = self.left.take().expect("build once");
            while let Some(t) = left.next() {
                let k = self.left_key.eval(&t[..]);
                if k.is_null() {
                    continue;
                }
                self.ht.entry(GroupKey::single(&k)).or_default().push(t);
            }
            self.built = true;
        }
        loop {
            if let Some(row) = self.pending.pop() {
                return Some(row);
            }
            let probe = self.right.next()?;
            let k = self.right_key.eval(&probe[..]);
            if k.is_null() {
                continue;
            }
            if let Some(matches) = self.ht.get(&GroupKey::single(&k)) {
                for m in matches {
                    let mut row = m.clone();
                    row.extend(probe.iter().cloned());
                    self.pending.push(row);
                }
            }
        }
    }
}

/// Blocking sort.
struct SortOp<'a> {
    input: Option<Box<dyn Operator + 'a>>,
    keys: Vec<SortKey>,
    buffered: std::vec::IntoIter<Vec<Value>>,
    done: bool,
}

impl Operator for SortOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        if !self.done {
            let mut input = self.input.take().expect("drained once");
            let mut rows = Vec::new();
            while let Some(t) = input.next() {
                rows.push(t);
            }
            rows.sort_by(|a, b| {
                for k in &self.keys {
                    let (va, vb) = (k.expr.eval(&a[..]), k.expr.eval(&b[..]));
                    let ord = cmp_values(&va, &vb);
                    let ord = if k.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            self.buffered = rows.into_iter();
            self.done = true;
        }
        self.buffered.next()
    }
}

struct LimitOp<'a> {
    input: Box<dyn Operator + 'a>,
    left: usize,
}

impl Operator for LimitOp<'_> {
    fn next(&mut self) -> Option<Vec<Value>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.input.next()
    }
}

/// The Volcano engine.
#[derive(Debug, Default, Clone, Copy)]
pub struct VolcanoEngine;

impl Engine for VolcanoEngine {
    fn name(&self) -> &'static str {
        "volcano"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        // Compute per-table required columns once, then let scans decode
        // only those.
        let width = |t: &str| db.shape(t).map(|tb| tb.schema().len()).unwrap_or(0);
        let required = plan.required_columns(&width);
        let mut root = self.compile_with_pruning(plan, db, &required)?;
        let mut out = QueryOutput::new();
        while let Some(t) = root.next() {
            out.rows.push(t);
        }
        Ok(out)
    }
}

impl VolcanoEngine {
    fn compile_with_pruning<'a>(
        &self,
        plan: &'a LogicalPlan,
        db: &'a dyn TableProvider,
        required: &[(String, Vec<ColId>)],
    ) -> Result<Box<dyn Operator + 'a>, ExecError> {
        if let LogicalPlan::Scan { table } = plan {
            let t = db.table(table)?;
            let width = t.schema().len();
            let needed = required
                .iter()
                .find(|(n, _)| n == table)
                .map(|(_, c)| c.clone())
                .unwrap_or_else(|| (0..width).collect());
            return Ok(Box::new(ScanOp {
                table: t,
                overlay: db.overlay(table),
                needed,
                width,
                row: 0,
                tail_row: 0,
            }));
        }
        // Non-scan nodes: compile children through this same path.
        Ok(match plan {
            LogicalPlan::Scan { .. } => unreachable!("handled above"),
            LogicalPlan::Select { input, pred, .. } => {
                let child = self.compile_with_pruning(input, db, required)?;
                let p = pred.clone();
                Box::new(SelectOp {
                    input: child,
                    pred: Box::new(move |t| p.eval_bool(t)),
                })
            }
            LogicalPlan::Project { input, exprs } => {
                let child = self.compile_with_pruning(input, db, required)?;
                let fns: Vec<RowEval<'_>> = exprs
                    .iter()
                    .map(|e| {
                        let e = e.clone();
                        Box::new(move |t: &[Value]| e.eval(t)) as RowEval<'_>
                    })
                    .collect();
                Box::new(ProjectOp {
                    input: child,
                    exprs: fns,
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => Box::new(AggregateOp {
                input: Some(self.compile_with_pruning(input, db, required)?),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
                buffered: Vec::new().into_iter(),
                done: false,
            }),
            LogicalPlan::Join {
                left,
                right,
                left_key,
                right_key,
            } => Box::new(JoinOp {
                left: Some(self.compile_with_pruning(left, db, required)?),
                right: self.compile_with_pruning(right, db, required)?,
                left_key: left_key.clone(),
                right_key: right_key.clone(),
                ht: HashMap::new(),
                built: false,
                pending: Vec::new(),
            }),
            LogicalPlan::Sort { input, keys } => Box::new(SortOp {
                input: Some(self.compile_with_pruning(input, db, required)?),
                keys: keys.clone(),
                buffered: Vec::new().into_iter(),
                done: false,
            }),
            LogicalPlan::Limit { input, n } => Box::new(LimitOp {
                input: self.compile_with_pruning(input, db, required)?,
                left: *n,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for i in 0..100 {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 10),
                Value::Str(format!("name-{}", i % 3)),
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    #[test]
    fn scan_filter_project() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .project(vec![Expr::col(0)])
            .build();
        let out = VolcanoEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.len(), 10);
        assert!(out.rows.iter().all(|r| match &r[0] {
            Value::Int32(v) => v % 10 == 3,
            _ => false,
        }));
    }

    #[test]
    fn aggregate_with_groups() {
        let plan = QueryBuilder::scan("t")
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        let out = VolcanoEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.len(), 3);
        let total: i64 = out.rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(-1)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        let out = VolcanoEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(0), Value::Null]]);
    }

    #[test]
    fn join_and_sort_and_limit() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(0)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .project(vec![Expr::col(0), Expr::col(5)])
            .sort(vec![(Expr::col(0), false)])
            .limit(3)
            .build();
        let out = VolcanoEngine.execute(&plan, &db()).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows[0][0], Value::Int32(90));
    }

    #[test]
    fn unknown_table_errors() {
        let plan = QueryBuilder::scan("nope").build();
        assert_eq!(
            VolcanoEngine.execute(&plan, &db()).unwrap_err(),
            ExecError::UnknownTable("nope".into())
        );
    }
}
