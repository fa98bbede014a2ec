//! Plan → access-pattern translation (§IV-D, Table II).
//!
//! The relational plan is traversed and each operator "emits" the atoms that
//! describe its memory behaviour, producing a [`Pattern`] program for the
//! cost model. Two properties of the paper's scheme are preserved exactly:
//!
//! * **Pipelines are concurrent.** Operators fused into one loop by the
//!   compiled engine contribute atoms joined by `⊙`; pipeline breakers
//!   (hash build, aggregation, sort) append `⊕`.
//! * **Push vs pull.** Operators above a hash join do not re-read their
//!   input from base tables — probe hits push tuples into the pipeline
//!   (§IV-D); only the probe-side scan and the hash table itself are
//!   touched.
//!
//! Emission is parameterized by [`TableView`]s (row count, column widths and
//! a **candidate layout**), so the same query can be priced under arbitrary
//! hypothetical layouts — which is precisely how the BPi optimizer evaluates
//! cuts. Alongside the pattern, emission reports [`AccessGroup`]s: which
//! base columns are touched together, how (sequential/conditional/random),
//! and with what probability — the raw material of §V-A's *extended
//! reasonable cuts*.

use crate::expr::Expr;
use crate::logical::LogicalPlan;
use crate::selectivity::{estimate_selectivity, TableStatsView};
use pdsm_cost::{Atom, Pattern};
use pdsm_storage::{ColId, Layout, Table};
use std::collections::HashMap;

/// How a set of columns is accessed within one atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Unconditional sequential traversal (`s_trav`).
    Sequential,
    /// Conditional sequential traversal (`s_trav_cr`).
    Conditional,
    /// Random traversal / repetitive random access.
    Random,
}

/// A group of base-table columns accessed together by one atom.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessGroup {
    pub table: String,
    pub cols: Vec<ColId>,
    pub kind: AccessKind,
    /// Probability that a given row's values are read (1.0 for full scans).
    pub prob: f64,
}

/// The emission result for a whole query.
#[derive(Debug, Clone)]
pub struct EmittedQuery {
    /// The access-pattern program.
    pub pattern: Pattern,
    /// Column co-access groups (input to the layout optimizer).
    pub groups: Vec<AccessGroup>,
    /// Estimated output cardinality.
    pub out_rows: f64,
}

/// A table as the cost model sees it: cardinality, column widths, candidate
/// layout and optional statistics. Decoupled from [`Table`] so hypothetical
/// layouts can be priced without rebuilding data.
#[derive(Debug, Clone)]
pub struct TableView {
    pub name: String,
    pub n_rows: u64,
    pub col_widths: Vec<u64>,
    pub layout: Layout,
    pub stats: Option<TableStatsView>,
}

impl TableView {
    /// View of an actual table (no statistics; see [`TableView::with_stats`]).
    pub fn from_table(t: &Table) -> Self {
        TableView {
            name: t.name().to_string(),
            n_rows: t.len() as u64,
            col_widths: t
                .schema()
                .columns()
                .iter()
                .map(|c| c.ty.width() as u64)
                .collect(),
            layout: t.layout().clone(),
            stats: None,
        }
    }

    /// Same table under a different candidate layout.
    pub fn with_layout(&self, layout: Layout) -> Self {
        TableView {
            layout,
            ..self.clone()
        }
    }

    /// Attach statistics.
    pub fn with_stats(mut self, stats: TableStatsView) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Fragment stride of the layout group containing `cols[0]`'s group,
    /// as the cost model prices it: logical widths (a string code is 4 B)
    /// padded to natural alignment. The stored fragment packs its fields
    /// and narrows its codes, so it is never wider than this.
    pub fn group_stride(&self, group: &[ColId]) -> u64 {
        let mut off = 0u64;
        let mut max_align = 1u64;
        for &c in group {
            let w = self.col_widths[c];
            max_align = max_align.max(w);
            off = off.next_multiple_of(w.max(1));
            off += w;
        }
        off.next_multiple_of(max_align)
    }

    /// Distinct count of column `c` if statistics are attached.
    fn distinct_of(&self, c: ColId) -> Option<usize> {
        self.stats
            .as_ref()
            .and_then(|s| s.distinct.get(c).copied().flatten())
    }
}

/// Open pipeline over one base table.
#[derive(Debug, Clone)]
struct PipeState {
    table: String,
    /// Base-table cardinality (`R.n` of the scans).
    n: u64,
    /// Probability that a base row reaches the current operator.
    prob: f64,
    /// Current output position → base column (None = computed or
    /// join-materialized).
    map: Vec<Option<ColId>>,
}

#[derive(Debug, Clone)]
struct NodeOut {
    /// Completed pipeline segments (sequence-composed).
    closed: Vec<Pattern>,
    /// Atoms of the still-open pipeline (concurrent).
    open: Vec<Pattern>,
    /// Estimated rows flowing out of this node.
    card: f64,
    /// Open pipeline state, if rows still stream from a base table.
    pipe: Option<PipeState>,
}

impl NodeOut {
    fn seal(mut self) -> Vec<Pattern> {
        if !self.open.is_empty() {
            let open = std::mem::take(&mut self.open);
            self.closed.push(Pattern::conc(open));
        }
        self.closed
    }
}

struct Ctx<'a> {
    views: &'a HashMap<String, TableView>,
    groups: Vec<AccessGroup>,
}

/// Translate `plan` into its access-pattern program under the layouts in
/// `views` (one entry per referenced table).
pub fn emit_pattern(plan: &LogicalPlan, views: &HashMap<String, TableView>) -> EmittedQuery {
    let mut ctx = Ctx {
        views,
        groups: Vec::new(),
    };
    let width = |t: &str| views.get(t).map(|v| v.col_widths.len()).unwrap_or(0);
    let arity = plan.arity(&width);
    let out = emit_rec(plan, (0..arity).collect(), &mut ctx);
    let card = out.card;
    let segments = out.seal();
    EmittedQuery {
        pattern: Pattern::seq(segments),
        groups: ctx.groups,
        out_rows: card,
    }
}

/// Decompose a predicate into sequential evaluation steps with short-circuit
/// probabilities: `And(a,b)` evaluates `b` only when `a` held, `Or(a,b)`
/// only when `a` failed. Returns `(steps, pass)` where each step is
/// `(columns, relative probability of being evaluated)`.
fn predicate_steps(pred: &Expr, stats: Option<&TableStatsView>) -> (Vec<(Vec<ColId>, f64)>, f64) {
    match pred {
        Expr::And(a, b) => {
            let (mut sa, pa) = predicate_steps(a, stats);
            let (sb, pb) = predicate_steps(b, stats);
            sa.extend(sb.into_iter().map(|(c, p)| (c, p * pa)));
            (sa, pa * pb)
        }
        Expr::Or(a, b) => {
            let (mut sa, pa) = predicate_steps(a, stats);
            let (sb, pb) = predicate_steps(b, stats);
            sa.extend(sb.into_iter().map(|(c, p)| (c, p * (1.0 - pa))));
            (sa, pa + pb - pa * pb)
        }
        Expr::Not(a) => {
            let (sa, pa) = predicate_steps(a, stats);
            (sa, 1.0 - pa)
        }
        leaf => {
            let cols = leaf.columns();
            let sel = estimate_selectivity(leaf, stats);
            if cols.is_empty() {
                (Vec::new(), sel)
            } else {
                (vec![(cols, 1.0)], sel)
            }
        }
    }
}

/// Emit the scan atoms that read `base_cols` of `pipe`'s table at
/// probability `prob`, one atom per touched partition.
///
/// The recorded [`AccessGroup`] is **step-level** (the full column set of
/// this logical read, independent of the current layout): the layout
/// optimizer derives extended reasonable cuts from these groups and must see
/// which attributes are accessed *together*, not how the candidate layout
/// happens to split them.
fn emit_reads(ctx: &mut Ctx, pipe: &PipeState, base_cols: &[ColId], prob: f64) -> Vec<Pattern> {
    let view = &ctx.views[&pipe.table];
    let mut step_cols: Vec<ColId> = base_cols.to_vec();
    step_cols.sort_unstable();
    step_cols.dedup();
    ctx.groups.push(AccessGroup {
        table: pipe.table.clone(),
        cols: step_cols.clone(),
        kind: if prob >= 0.999 {
            AccessKind::Sequential
        } else {
            AccessKind::Conditional
        },
        prob: prob.clamp(0.0, 1.0),
    });
    let mut by_group: HashMap<usize, Vec<ColId>> = HashMap::new();
    for &c in step_cols.iter() {
        by_group.entry(view.layout.group_of(c)).or_default().push(c);
    }
    let mut parts: Vec<(usize, Vec<ColId>)> = by_group.into_iter().collect();
    parts.sort_by_key(|(g, _)| *g);
    let mut out = Vec::new();
    for (g, cols) in parts {
        let group = &view.layout.groups()[g];
        let stride = view.group_stride(group);
        let u: u64 = cols.iter().map(|&c| view.col_widths[c]).sum();
        let atom = if prob >= 0.999 {
            Atom::s_trav_partial(pipe.n, stride, u.min(stride))
        } else {
            Atom::s_trav_cr(pipe.n, stride, u.min(stride), prob.max(0.0))
        };
        out.push(Pattern::atom(atom));
    }
    out
}

/// Translate output-space columns to base columns through the pipe map.
fn to_base(pipe: &PipeState, cols: &[ColId]) -> Vec<ColId> {
    let mut out: Vec<ColId> = cols
        .iter()
        .filter_map(|&c| pipe.map.get(c).copied().flatten())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn emit_rec(plan: &LogicalPlan, required: Vec<ColId>, ctx: &mut Ctx) -> NodeOut {
    let width = |t: &str| ctx.views.get(t).map(|v| v.col_widths.len()).unwrap_or(0);
    match plan {
        LogicalPlan::Scan { table } => {
            let view = ctx
                .views
                .get(table)
                .unwrap_or_else(|| panic!("no TableView for table {table:?}"));
            let n = view.n_rows;
            NodeOut {
                closed: Vec::new(),
                open: Vec::new(),
                card: n as f64,
                pipe: Some(PipeState {
                    table: table.clone(),
                    n,
                    prob: 1.0,
                    map: (0..view.col_widths.len()).map(Some).collect(),
                }),
            }
        }
        LogicalPlan::Select {
            input,
            pred,
            sel_hint,
        } => {
            let mut out = emit_rec(input, required, ctx);
            if let Some(pipe) = out.pipe.as_mut() {
                let stats = ctx.views[&pipe.table].stats.clone();
                let (steps, mut pass) = predicate_steps(pred, stats.as_ref());
                if let Some(h) = sel_hint {
                    pass = *h;
                }
                // Evaluate steps in short-circuit order; later steps run at
                // lower probability => NAME1/NAME2-style splits (Table IV).
                let pipe_snapshot = pipe.clone();
                for (cols, rel_prob) in steps {
                    let base = to_base(&pipe_snapshot, &cols);
                    if base.is_empty() {
                        continue;
                    }
                    let atoms =
                        emit_reads(ctx, &pipe_snapshot, &base, pipe_snapshot.prob * rel_prob);
                    out.open.extend(atoms);
                }
                let pipe = out.pipe.as_mut().unwrap();
                pipe.prob = (pipe.prob * pass).clamp(0.0, 1.0);
                out.card *= pass.clamp(0.0, 1.0);
            } else {
                // Post-materialization filter: rows are already in registers.
                let stats = None;
                let (_, pass) = predicate_steps(pred, stats);
                out.card *= sel_hint.unwrap_or(pass).clamp(0.0, 1.0);
            }
            out
        }
        LogicalPlan::Project { input, exprs } => {
            // Columns feeding the required output expressions.
            let mut need: Vec<ColId> = Vec::new();
            for &i in &required {
                if let Some(e) = exprs.get(i) {
                    need.extend(e.columns());
                }
            }
            need.sort_unstable();
            need.dedup();
            let mut out = emit_rec(input, need.clone(), ctx);
            if let Some(pipe) = out.pipe.as_mut() {
                let snapshot = pipe.clone();
                let base = to_base(&snapshot, &need);
                if !base.is_empty() {
                    let atoms = emit_reads(ctx, &snapshot, &base, snapshot.prob);
                    out.open.extend(atoms);
                }
                // remap: projected position i corresponds to exprs[i]
                let new_map: Vec<Option<ColId>> = exprs
                    .iter()
                    .map(|e| match e {
                        Expr::Col(c) => snapshot.map.get(*c).copied().flatten(),
                        _ => None,
                    })
                    .collect();
                out.pipe.as_mut().unwrap().map = new_map;
            }
            out
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut need: Vec<ColId> = Vec::new();
            for g in group_by {
                need.extend(g.columns());
            }
            for a in aggs {
                if let Some(e) = &a.arg {
                    need.extend(e.columns());
                }
            }
            need.sort_unstable();
            need.dedup();
            let mut out = emit_rec(input, need.clone(), ctx);
            let in_card = out.card;
            let group_card = estimate_groups(group_by, out.pipe.as_ref(), ctx, in_card);
            let out_w = 8 * (group_by.len() + aggs.len()).max(1) as u64;
            if let Some(pipe) = out.pipe.take() {
                let base = to_base(&pipe, &need);
                if !base.is_empty() {
                    let atoms = emit_reads(ctx, &pipe, &base, pipe.prob);
                    out.open.extend(atoms);
                }
            }
            // The aggregation table is updated once per surviving row.
            out.open.push(Pattern::atom(Atom::rr_acc(
                group_card.max(1.0) as u64,
                out_w,
                in_card.max(0.0) as u64,
            )));
            // Aggregation materializes: pipeline breaker.
            let open = std::mem::take(&mut out.open);
            out.closed.push(Pattern::conc(open));
            out.card = group_card;
            out.pipe = None;
            out
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let lw = left.arity(&width);
            let mut lreq: Vec<ColId> = required.iter().filter(|&&c| c < lw).copied().collect();
            let mut rreq: Vec<ColId> = required
                .iter()
                .filter(|&&c| c >= lw)
                .map(|&c| c - lw)
                .collect();
            lreq.extend(left_key.columns());
            lreq.sort_unstable();
            lreq.dedup();
            rreq.extend(right_key.columns());
            rreq.sort_unstable();
            rreq.dedup();

            // --- build phase (pull): read left's needed columns, fill ht ---
            let mut lout = emit_rec(left, lreq.clone(), ctx);
            let left_card = lout.card;
            let mut ht_w = 16u64; // hash + next pointer
            if let Some(pipe) = lout.pipe.take() {
                let base = to_base(&pipe, &lreq);
                ht_w += base
                    .iter()
                    .map(|&c| ctx.views[&pipe.table].col_widths[c])
                    .sum::<u64>();
                if !base.is_empty() {
                    let atoms = emit_reads(ctx, &pipe, &base, pipe.prob);
                    lout.open.extend(atoms);
                }
            } else {
                ht_w += 8 * lreq.len().max(1) as u64;
            }
            let ht_n = (left_card.max(1.0)) as u64;
            lout.open.push(Pattern::atom(Atom::r_trav(ht_n, ht_w)));
            let mut closed = std::mem::take(&mut lout.closed);
            let lopen = std::mem::take(&mut lout.open);
            closed.push(Pattern::conc(lopen)); // ⊕ breaker after build

            // --- probe phase (push) ---
            let mut rout = emit_rec(right, rreq, ctx);
            closed.extend(std::mem::take(&mut rout.closed));
            let probes = rout.card.max(0.0) as u64;
            rout.open
                .push(Pattern::atom(Atom::rr_acc(ht_n, ht_w, probes)));

            // A probe matches iff its build row survived upstream filters.
            let left_base = left_base_rows(left, ctx).max(1.0);
            let match_prob = (left_card / left_base).clamp(0.0, 1.0);
            let card = rout.card * match_prob;
            let pipe = rout.pipe.take().map(|mut p| {
                p.prob = (p.prob * match_prob).clamp(0.0, 1.0);
                // output space: left part materialized in ht (None), right
                // part keeps its base mapping
                let mut map: Vec<Option<ColId>> = vec![None; lw];
                map.extend(p.map);
                p.map = map;
                p
            });
            NodeOut {
                closed,
                open: rout.open,
                card,
                pipe,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut need = required.clone();
            for k in keys {
                need.extend(k.expr.columns());
            }
            need.sort_unstable();
            need.dedup();
            let mut out = emit_rec(input, need.clone(), ctx);
            let card = out.card;
            let mut out_w = 8u64 * need.len().max(1) as u64;
            if let Some(pipe) = out.pipe.take() {
                let base = to_base(&pipe, &need);
                out_w = base
                    .iter()
                    .map(|&c| ctx.views[&pipe.table].col_widths[c])
                    .sum::<u64>()
                    .max(8);
                if !base.is_empty() {
                    let atoms = emit_reads(ctx, &pipe, &base, pipe.prob);
                    out.open.extend(atoms);
                }
            }
            let n = card.max(1.0) as u64;
            // materialize the sort buffer concurrently with the input reads
            out.open.push(Pattern::atom(Atom::s_trav(n, out_w)));
            let open = std::mem::take(&mut out.open);
            out.closed.push(Pattern::conc(open));
            // the sort itself: n log n random accesses into the buffer
            let cmps = (card.max(2.0) * card.max(2.0).log2()).ceil() as u64;
            out.closed.push(Pattern::atom(Atom::rr_acc(n, out_w, cmps)));
            out.pipe = None;
            out
        }
        LogicalPlan::Limit { input, n } => {
            let mut out = emit_rec(input, required, ctx);
            out.card = out.card.min(*n as f64);
            out
        }
    }
}

/// Cardinality of the base table feeding `plan`'s leftmost pipeline (used
/// for join match probability).
fn left_base_rows(plan: &LogicalPlan, ctx: &Ctx) -> f64 {
    match plan {
        LogicalPlan::Scan { table } => ctx.views.get(table).map(|v| v.n_rows as f64).unwrap_or(1.0),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => left_base_rows(input, ctx),
        LogicalPlan::Join { left, .. } => left_base_rows(left, ctx),
    }
}

/// Estimate the number of groups a grouped aggregation produces.
fn estimate_groups(group_by: &[Expr], pipe: Option<&PipeState>, ctx: &Ctx, in_card: f64) -> f64 {
    if group_by.is_empty() {
        return 1.0;
    }
    let mut product = 1.0f64;
    for g in group_by {
        let d = match (g, pipe) {
            (Expr::Col(c), Some(p)) => p
                .map
                .get(*c)
                .copied()
                .flatten()
                .and_then(|base| ctx.views[&p.table].distinct_of(base))
                .map(|d| d as f64),
            _ => None,
        };
        product *= d.unwrap_or(100.0);
    }
    product.min(in_card.max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use crate::logical::{AggExpr, AggFunc};

    /// The paper's running example: R(A..P) as 16 4-byte ints, layout
    /// {A}{B,C,D,E}{F..P}, `select sum(B),sum(C),sum(D),sum(E) where A=$1`.
    fn example_views(n: u64) -> HashMap<String, TableView> {
        let layout =
            Layout::from_groups(vec![vec![0], (1..=4).collect(), (5..16).collect()], 16).unwrap();
        let mut m = HashMap::new();
        m.insert(
            "R".to_string(),
            TableView {
                name: "R".into(),
                n_rows: n,
                col_widths: vec![4; 16],
                layout,
                stats: None,
            },
        );
        m
    }

    fn example_plan(sel: f64) -> LogicalPlan {
        QueryBuilder::scan("R")
            .filter_with_selectivity(Expr::col(0).eq(Expr::lit(1)), sel)
            .aggregate(
                vec![],
                (1..=4)
                    .map(|c| AggExpr::new(AggFunc::Sum, Expr::col(c)))
                    .collect(),
            )
            .build()
    }

    #[test]
    fn example_query_matches_table_1b() {
        // Table I(b): s_trav(26214400,4) ⊙ s_trav_cr([B..E],s=0.01) ⊙ rr_acc(1,·,262144)
        let views = example_views(26_214_400);
        let q = emit_pattern(&example_plan(0.01), &views);
        let s = q.pattern.to_string();
        assert!(
            s.contains("s_trav(26214400,4)"),
            "condition scan missing: {s}"
        );
        assert!(
            s.contains("s_trav_cr(26214400,16,s=0.01)"),
            "conditional payload read missing: {s}"
        );
        assert!(s.contains("rr_acc(1,32,262144)"), "agg update missing: {s}");
        assert!(!s.contains('⊕'), "single pipeline must not break: {s}");
        assert_eq!(q.out_rows, 1.0);
    }

    #[test]
    fn row_layout_merges_condition_and_payload_strides() {
        let mut views = example_views(1000);
        let v = views.get_mut("R").unwrap();
        *v = v.with_layout(Layout::row(16));
        let q = emit_pattern(&example_plan(0.5), &views);
        let s = q.pattern.to_string();
        // both atoms now traverse the 64-byte fragments
        assert!(s.contains("s_trav(1000,64,u=4)"), "{s}");
        assert!(s.contains("s_trav_cr(1000,64,u=16,s=0.5)"), "{s}");
    }

    #[test]
    fn access_groups_distinguish_condition_from_payload() {
        let views = example_views(1000);
        let q = emit_pattern(&example_plan(0.01), &views);
        let seq: Vec<_> = q
            .groups
            .iter()
            .filter(|g| g.kind == AccessKind::Sequential)
            .collect();
        let cond: Vec<_> = q
            .groups
            .iter()
            .filter(|g| g.kind == AccessKind::Conditional)
            .collect();
        assert_eq!(seq.len(), 1);
        assert_eq!(seq[0].cols, vec![0]);
        assert_eq!(cond.len(), 1);
        assert_eq!(cond[0].cols, vec![1, 2, 3, 4]);
        assert!((cond[0].prob - 0.01).abs() < 1e-12);
    }

    #[test]
    fn short_circuit_and_gives_conditional_second_step() {
        // WHERE c0 = 1 AND c1 = 2: c1 read only when c0 matched.
        let views = example_views(10_000);
        let plan = QueryBuilder::scan("R")
            .filter(
                Expr::col(0)
                    .eq(Expr::lit(1))
                    .and(Expr::col(1).eq(Expr::lit(2))),
            )
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let q = emit_pattern(&plan, &views);
        let c0 = q.groups.iter().find(|g| g.cols == vec![0]).unwrap();
        let c1 = q.groups.iter().find(|g| g.cols == vec![1]).unwrap();
        assert_eq!(c0.kind, AccessKind::Sequential);
        assert_eq!(c1.kind, AccessKind::Conditional);
        assert!((c1.prob - 0.01).abs() < 1e-9, "p={}", c1.prob);
    }

    #[test]
    fn or_second_branch_runs_on_failure() {
        // WHERE c0 = 1 OR c1 = 2: c1 read when c0 did NOT match (p = 0.99).
        let views = example_views(10_000);
        let plan = QueryBuilder::scan("R")
            .filter(
                Expr::col(0)
                    .eq(Expr::lit(1))
                    .or(Expr::col(1).eq(Expr::lit(2))),
            )
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let q = emit_pattern(&plan, &views);
        let c1 = q.groups.iter().find(|g| g.cols == vec![1]).unwrap();
        assert!((c1.prob - 0.99).abs() < 1e-9, "p={}", c1.prob);
    }

    #[test]
    fn join_emits_build_breaker_and_probe() {
        let mut views = example_views(1_000);
        views.insert(
            "S".to_string(),
            TableView {
                name: "S".into(),
                n_rows: 50_000,
                col_widths: vec![4; 4],
                layout: Layout::column(4),
                stats: None,
            },
        );
        // R ⋈ S on R.c0 = S.c0, count(*)
        let plan = QueryBuilder::scan("R")
            .join(QueryBuilder::scan("S").build(), Expr::col(0), Expr::col(0))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let q = emit_pattern(&plan, &views);
        let s = q.pattern.to_string();
        assert!(s.contains('⊕'), "join must break the pipeline: {s}");
        assert!(s.contains("r_trav"), "hash build missing: {s}");
        assert!(s.contains("rr_acc"), "hash probe missing: {s}");
        // probe count equals right cardinality
        assert!(s.contains("50000"), "{s}");
    }

    #[test]
    fn projection_reads_only_required_columns() {
        let views = example_views(5_000);
        let plan = QueryBuilder::scan("R")
            .project(vec![Expr::col(3), Expr::col(7)])
            .build();
        let q = emit_pattern(&plan, &views);
        let touched: Vec<ColId> = q.groups.iter().flat_map(|g| g.cols.clone()).collect();
        assert_eq!(touched, vec![3, 7]);
    }

    #[test]
    fn sort_materializes_and_shuffles() {
        let views = example_views(5_000);
        let plan = QueryBuilder::scan("R")
            .project(vec![Expr::col(0)])
            .sort(vec![(Expr::col(0), true)])
            .build();
        let q = emit_pattern(&plan, &views);
        let s = q.pattern.to_string();
        assert!(s.contains('⊕'), "sort breaks the pipeline: {s}");
        assert!(s.contains("rr_acc"), "sort shuffle missing: {s}");
    }

    #[test]
    fn limit_caps_cardinality() {
        let views = example_views(5_000);
        let plan = QueryBuilder::scan("R")
            .project(vec![Expr::col(0)])
            .limit(10)
            .build();
        let q = emit_pattern(&plan, &views);
        assert_eq!(q.out_rows, 10.0);
    }
}
