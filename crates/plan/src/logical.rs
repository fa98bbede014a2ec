//! Relational query plans.
//!
//! Plans are positional: an operator's output row is a flat `Vec<Value>` and
//! `Expr::Col(i)` indexes it. A scan produces the full table schema (column
//! pruning is a *physical* concern: the compiled and bulk engines read only
//! the columns the plan requires, which is what makes layouts matter). A
//! join produces `left columns ++ right columns`.

use crate::expr::Expr;
use pdsm_storage::ColId;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        })
    }
}

/// One aggregate: `func(arg)`, or `count(*)` when `arg` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

impl AggExpr {
    /// `count(*)`.
    pub fn count_star() -> Self {
        AggExpr {
            func: AggFunc::Count,
            arg: None,
        }
    }

    /// `func(expr)`.
    pub fn new(func: AggFunc, arg: Expr) -> Self {
        AggExpr {
            func,
            arg: Some(arg),
        }
    }
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: Expr,
    pub asc: bool,
}

/// A logical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan producing the full schema row.
    Scan { table: String },
    /// Filter; `sel_hint` optionally pins the predicate's selectivity for
    /// the cost model (benchmarks sweep it explicitly, §VI).
    Select {
        input: Box<LogicalPlan>,
        pred: Expr,
        sel_hint: Option<f64>,
    },
    /// Projection to arbitrary expressions.
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
    },
    /// Hash aggregate. Output = group expressions ++ aggregates.
    Aggregate {
        input: Box<LogicalPlan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggExpr>,
    },
    /// Hash equi-join: build on `left`, probe with `right`.
    /// Output = left columns ++ right columns. Key expressions are evaluated
    /// against their own side's rows.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        left_key: Expr,
        right_key: Expr,
    },
    /// Sort by keys.
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit { input: Box<LogicalPlan>, n: usize },
}

impl LogicalPlan {
    /// Number of columns this node outputs, given a resolver from table name
    /// to schema width.
    pub fn arity(&self, table_width: &impl Fn(&str) -> usize) -> usize {
        match self {
            LogicalPlan::Scan { table } => table_width(table),
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => input.arity(table_width),
            LogicalPlan::Project { exprs, .. } => exprs.len(),
            LogicalPlan::Aggregate { group_by, aggs, .. } => group_by.len() + aggs.len(),
            LogicalPlan::Join { left, right, .. } => {
                left.arity(table_width) + right.arity(table_width)
            }
        }
    }

    /// The tables referenced by this plan, in scan order.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            LogicalPlan::Scan { table } => out.push(table),
            _ => {
                for input in self.inputs() {
                    input.collect_tables(out);
                }
            }
        }
    }

    /// Columns of `table`'s base schema this plan actually touches —
    /// the driver of column pruning and of the layout optimizer's
    /// "reasonable cuts". Only meaningful for plans over a single occurrence
    /// of each table; join plans attribute columns to sides positionally.
    pub fn required_columns(
        &self,
        table_width: &impl Fn(&str) -> usize,
    ) -> Vec<(String, Vec<ColId>)> {
        let mut acc: Vec<(String, Vec<ColId>)> = Vec::new();
        // Every output column of the plan root is required by the consumer.
        let all: Vec<ColId> = (0..self.arity(table_width)).collect();
        self.collect_required(table_width, &mut acc, &all);
        for (_, cols) in &mut acc {
            cols.sort_unstable();
            cols.dedup();
        }
        acc
    }

    /// Recursive helper: `upstream` carries the column indexes (in this
    /// node's output space) that ancestors require.
    fn collect_required(
        &self,
        table_width: &impl Fn(&str) -> usize,
        acc: &mut Vec<(String, Vec<ColId>)>,
        upstream: &[ColId],
    ) {
        let LogicalPlan::Scan { table } = self else {
            let needs = self.input_columns(table_width, upstream);
            for (input, need) in self.inputs().into_iter().zip(needs) {
                input.collect_required(table_width, acc, &need);
            }
            return;
        };
        match acc.iter_mut().find(|(t, _)| t == table) {
            Some((_, cols)) => cols.extend_from_slice(upstream),
            None => acc.push((table.clone(), upstream.to_vec())),
        }
    }

    /// This node's inputs, in order: a join's left, then its right.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// [`LogicalPlan::inputs`], mutable.
    pub fn inputs_mut(&mut self) -> Vec<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// For each of [`LogicalPlan::inputs`], the columns of its output this
    /// node reads when its own consumers read `upstream` (sorted, no
    /// duplicates). An aggregation reads its inputs whatever is read of
    /// its output; a join reads its keys on each side.
    pub fn input_columns(
        &self,
        table_width: &impl Fn(&str) -> usize,
        upstream: &[ColId],
    ) -> Vec<Vec<ColId>> {
        let set = |cols: &mut dyn Iterator<Item = ColId>| {
            let mut out: Vec<ColId> = cols.collect();
            out.sort_unstable();
            out.dedup();
            out
        };
        let up = || upstream.iter().copied();
        match self {
            LogicalPlan::Scan { .. } => vec![],
            LogicalPlan::Select { pred, .. } => vec![set(&mut up().chain(pred.columns()))],
            LogicalPlan::Project { exprs, .. } => vec![set(&mut up()
                .filter_map(|i| exprs.get(i))
                .flat_map(Expr::columns))],
            LogicalPlan::Aggregate { group_by, aggs, .. } => vec![set(&mut group_by
                .iter()
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .flat_map(Expr::columns))],
            LogicalPlan::Join {
                left,
                left_key,
                right_key,
                ..
            } => {
                let lw = left.arity(table_width);
                vec![
                    set(&mut up().filter(|&c| c < lw).chain(left_key.columns())),
                    set(&mut up()
                        .filter(|&c| c >= lw)
                        .map(|c| c - lw)
                        .chain(right_key.columns())),
                ]
            }
            LogicalPlan::Sort { keys, .. } => {
                vec![set(
                    &mut up().chain(keys.iter().flat_map(|k| k.expr.columns()))
                )]
            }
            LogicalPlan::Limit { .. } => vec![upstream.to_vec()],
        }
    }
}

/// The plan's *filtered-scan fragment*: the `Select(Scan)` subtree feeding
/// every operator above it, reached through single-input operators only.
/// `None` for joins (two pipelines, no single fragment), for bare scans
/// and for plans with no selection. The returned node may be the plan
/// itself.
pub fn pipeline_fragment(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Select { input, .. } => {
            if matches!(input.as_ref(), LogicalPlan::Scan { .. }) {
                Some(plan)
            } else {
                pipeline_fragment(input)
            }
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => pipeline_fragment(input),
        LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;

    fn width(t: &str) -> usize {
        match t {
            "R" => 16,
            "S" => 4,
            _ => 0,
        }
    }

    #[test]
    fn arity_through_operators() {
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(1)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                    AggExpr::new(AggFunc::Sum, Expr::col(2)),
                ],
            )
            .build();
        assert_eq!(plan.arity(&width), 2);
        let p2 = QueryBuilder::scan("R").project(vec![Expr::col(3)]).build();
        assert_eq!(p2.arity(&width), 1);
    }

    #[test]
    fn join_output_is_concatenation() {
        let plan = QueryBuilder::scan("R")
            .join(QueryBuilder::scan("S").build(), Expr::col(0), Expr::col(0))
            .build();
        assert_eq!(plan.arity(&width), 20);
        assert_eq!(plan.tables(), vec!["R", "S"]);
    }

    #[test]
    fn required_columns_pruned_through_projection() {
        // select sum(B) from R where A = 1 — touches only cols 0 and 1.
        let plan = QueryBuilder::scan("R")
            .filter(Expr::col(0).eq(Expr::lit(1)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(1))])
            .build();
        let req = plan.required_columns(&width);
        assert_eq!(req, vec![("R".to_string(), vec![0, 1])]);
    }

    #[test]
    fn required_columns_across_join_sides() {
        // R join S on R.c2 = S.c1, then keep S.c3 (output col 16+3=19)
        let plan = QueryBuilder::scan("R")
            .join(QueryBuilder::scan("S").build(), Expr::col(2), Expr::col(1))
            .project(vec![Expr::col(19)])
            .build();
        let req = plan.required_columns(&width);
        let r = req.iter().find(|(t, _)| t == "R").unwrap();
        let s = req.iter().find(|(t, _)| t == "S").unwrap();
        assert_eq!(r.1, vec![2]);
        assert_eq!(s.1, vec![1, 3]);
    }

    #[test]
    fn fragment_found_through_consumers() {
        let frag = QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(7)))
            .build();
        let agg = QueryBuilder::scan("t")
            .filter(Expr::col(0).eq(Expr::lit(7)))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let found = pipeline_fragment(&agg).expect("fragment under aggregate");
        assert_eq!(found, &frag);
        // the fragment of a bare Select(Scan) is the plan itself
        let this = pipeline_fragment(&frag).unwrap();
        assert!(std::ptr::eq(this, &frag));
        // bare scans and joins have none
        assert!(pipeline_fragment(&QueryBuilder::scan("t").build()).is_none());
        let join = QueryBuilder::scan("R")
            .join(frag.clone(), Expr::col(0), Expr::col(0))
            .build();
        assert!(pipeline_fragment(&join).is_none());
    }
}
