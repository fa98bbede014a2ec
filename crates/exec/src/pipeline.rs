//! The pipeline core: one plan lowering, one survivor loop, one mergeable
//! aggregate state.
//!
//! The paper's engine argument (Fig. 2c / Fig. 3) is that a query is *one*
//! fused pipeline; running it on several cores or over paged-in extents
//! only changes how the pipeline is walked over row ranges. This module
//! owns everything that does not depend on the walk:
//!
//! * [`execute`] lowers a plan into pipes ([`Pipe`]: a [`Source`], kernel
//!   conjuncts, a [`Step`] chain) and walks each into one sink (output
//!   buffer, a join's build, or aggregate fold). Pipes differ only in
//!   their source: a table's main store **piece by piece**
//!   ([`TableProvider::for_each_piece`]: a resident table is one piece, a
//!   cold one is one pinned extent per piece, zone-refuted extents
//!   skipped), a table's rows at index hits, or a pipeline breaker's rows.
//!   A table source then walks its live delta tail — once, here. Before it
//!   lowers, `execute` pushes every `WHERE` conjunct that reads one join
//!   side only below the join, down to the scan whose columns it reads,
//!   where it becomes a kernel conjunct (zone maps, SIMD masks);
//! * a join carries only what its consumers read. The build side is a
//!   [`HashJoin`]: one arena of build rows, each its key and only the
//!   columns read above the join, behind a map from key (raw `u64` for
//!   integers, [`GroupKey`] otherwise) to a span of row ids. The build
//!   pipe streams into the arena ([`BuildRows`], [`PipeDriver::build`]):
//!   its last step projects each row, and the sink reads the projection
//!   in place and appends its values flat — no build row is a heap
//!   allocation of its own — before the rows are indexed by key. A pipe
//!   whose first step probes on a plain key column reads the key in place
//!   and probes before it materializes the row, so a miss allocates
//!   nothing, and a run of equal keys (a clustered foreign key) probes
//!   once. A match flows on as a joined view of (build row, probe row)
//!   that filters, probe keys and the aggregate fold read in place;
//! * an aggregate directly over a join whose group-by expressions are all
//!   plain build-side columns (or none: a global aggregate) is a
//!   *group-join* (Moerkotte & Neumann, VLDB 2011). When the build rows
//!   are indexed, each row's group key is encoded once from its arena row,
//!   which gives it the dense ordinal of its group. The aggregate state is
//!   one accumulator row per ordinal: a match folds into
//!   `accs[group_of[m]]`, with no key encoding or hash per match. When the
//!   probe is the pipe's one step, a survivor's matches fold without the
//!   row fanning out: `count(*)` and plain numeric probe-side arguments
//!   are read typed at the probe row (the row is decoded only for an
//!   argument that needs it). Only groups with a match are emitted, each
//!   labelled by the arena row of its first match, as the keyed fold
//!   labels a group by its first row;
//! * every hash map here is a [`FastMap`]: a folded-multiply hasher keyed
//!   once per process from the standard library's random seed
//!   ([`keys::FastHash`]), so hash order and collisions are no more
//!   predictable from outside than under SipHash; a join's key map is
//!   sized up front for its build rows;
//! * [`Scan`] is the survivor loop — zone refutation → tombstone mask →
//!   [`PredKernel::block_mask`] → survivors — over an arbitrary row range
//!   of one bound table, or over its rows at given ids;
//! * [`AggState`] is the partial aggregate: `fold_range`, `fold_rows`,
//!   `fold_tail`, `merge`, `finish`. It is order-free — every sum adds
//!   exactly ([`Accumulator`]) — so one state carried across the pieces,
//!   or any set of partials merged in any order, finishes to the same
//!   bits, and a cold scan is bit-identical to a resident one. Group-join
//!   partials are dense over the ordinals of the one build they share and
//!   merge index by index; each group keeps the row id of the probe row of
//!   its first match, so the label it finishes with does not depend on
//!   which worker saw it first. Being dense, a worker's partial is made
//!   once per query and kept across a cold table's pieces
//!   ([`AggState::partials`]).
//!
//! Two [`PipeDriver`]s walk one piece of a table source. The compiled
//! engine ([`Sequential`]) folds `0..n` into the carried state; `pdsm-par`
//! hands every worker its own state (or per-morsel row buffer or build
//! chunk) and merges the states. Drivers are called per block, morsel or
//! piece — never per row; the per-row loops below are monomorphic. Index
//! hits and breaker rows never reach a driver: they are few, and walked
//! where they are.

use crate::compiled::{compile_pred, zone_preds, PredKernel};
use crate::engine::{
    masked_tail_row, tail_row_passes, Accumulator, ExecError, Overlay, TableProvider,
};
use crate::keys::{self, fast_map, FastMap, GroupKey};
use crate::simd;
use pdsm_plan::expr::{conjuncts, CmpOp, Columns, Expr};
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan, SortKey};
use pdsm_storage::types::cmp_values;
use pdsm_storage::{
    ColId, DataType, Dictionary, F64Col, I32Col, I64Col, Table, U32Col, Value, ZoneMap, ZonePred,
    ZONE_BLOCK_ROWS,
};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// lowering
// ---------------------------------------------------------------------------

/// Steps applied, in order, to a pipe's rows: a table's survivors of the
/// scan predicates, or a breaker's rows.
pub enum Step {
    /// Replace the row with the projected expressions.
    Project(Vec<Expr>),
    /// Probe a join's build side with the row. Each match goes on as a
    /// joined view of (build row, row) — nothing is concatenated — in
    /// build-insertion order; a miss or a NULL key drops the row.
    Probe(HashJoin),
    /// A selection the lowering could not make a kernel conjunct: over a
    /// join's output, a conjunct that reads both sides or no column (one
    /// that reads a single side moved below the join); else one over a
    /// projection or a breaker's rows. Interpreted per row, a joined row
    /// in place.
    Filter(Expr),
}

/// Where a [`Pipe`]'s rows come from. Everything after the source —
/// kernel conjuncts, steps, sinks, a table's delta tail — is shared.
pub enum Source<'h> {
    /// A table's main-store pieces, walked by the driver, then its live
    /// delta tail.
    Table(String),
    /// A table's main-store rows at index hits (ascending row ids),
    /// walked on the calling thread whatever the driver, then its live
    /// delta tail.
    Hits(String, &'h [usize]),
    /// A pipeline breaker's materialized rows.
    Rows(Vec<Vec<Value>>),
}

/// A pipeline: kernel conjuncts over a table source, then `steps`.
pub struct Pipe<'h> {
    pub source: Source<'h>,
    pub preds: Vec<Expr>,
    pub steps: Vec<Step>,
}

impl<'h> Pipe<'h> {
    /// The bare pipe over `source`.
    pub fn new(source: Source<'h>) -> Self {
        Pipe {
            source,
            preds: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Add a selection: kernel conjuncts while the pipe reads a table and
    /// has no steps (the predicate's columns are still scan columns), a
    /// residual filter step otherwise.
    pub fn select(&mut self, pred: &Expr) {
        if self.steps.is_empty() && !matches!(self.source, Source::Rows(_)) {
            self.preds.extend(conjuncts(pred).into_iter().cloned());
        } else {
            self.steps.push(Step::Filter(pred.clone()));
        }
    }

    /// Add a projection step.
    pub fn project(&mut self, exprs: &[Expr]) {
        self.steps.push(Step::Project(exprs.to_vec()));
    }
}

/// What a driver needs to run a [`Pipe`] over its (resolved) table.
#[derive(Clone, Copy, Default)]
pub struct PipeSpec<'a> {
    /// Scan conjuncts, compiled to kernels per bound table.
    pub preds: &'a [Expr],
    /// Steps survivors flow through.
    pub steps: &'a [Step],
    /// Columns survivors materialize (every other position stays NULL).
    pub needed: &'a [ColId],
}

/// How an open pipeline is walked over one main-store piece — a resident
/// table, or one pinned extent of a cold one. The three operations are the
/// three sinks a pipeline can end in; the walk over the pieces and the
/// delta tail belong to [`execute`], and everything else about a query is
/// driver-agnostic.
pub trait PipeDriver {
    /// Append the rows the pipeline emits for `table`'s rows minus `dead`,
    /// in row order.
    fn collect(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut Vec<Vec<Value>>);

    /// Stream the rows the pipeline emits, in row order, into a join's
    /// build.
    fn build(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut BuildRows);

    /// Fold `table`'s rows minus `dead` into `state`.
    fn fold(&self, table: &Table, dead: &[bool], state: &mut AggState<'_>);
}

/// The sequential driver — the compiled engine's: a piece's surviving zone
/// blocks fold in row order into the carried state (or append to one
/// output buffer).
pub struct Sequential;

impl PipeDriver for Sequential {
    fn collect(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut Vec<Vec<Value>>) {
        Scan::new(table, spec).collect_range(dead, 0..table.len(), out);
    }

    fn build(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut BuildRows) {
        Scan::new(table, spec).build_range(dead, 0..table.len(), out);
    }

    fn fold(&self, table: &Table, dead: &[bool], state: &mut AggState<'_>) {
        let scan = Scan::new(table, state.spec());
        state.fold_range(&scan, dead, 0..table.len());
    }
}

/// Execute `plan` with `driver` walking its table sources. With `hits`
/// (ascending main-store row ids, the index path), the plan's one scan
/// reads only the rows at those ids; a plan with more scans is
/// [`ExecError::Unsupported`].
pub fn execute(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    driver: &dyn PipeDriver,
    hits: Option<&[usize]>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    if hits.is_some() && plan.tables().len() != 1 {
        return Err(ExecError::Unsupported("hits feed one scan".into()));
    }
    let width = |t: &str| db.shape(t).map(|tb| tb.schema().len()).unwrap_or(0);
    let required = plan.required_columns(&width);
    let plan = push_filters(plan.clone(), &width);
    let all: Vec<ColId> = (0..plan.arity(&width)).collect();
    Lowering {
        db,
        required: &required,
        driver,
        width: &width,
        hits,
    }
    .materialize(&plan, &all)
}

/// `plan` with every `Select` over a `Join` split into its conjuncts, each
/// moved below the join when it reads one side only: left-side conjuncts
/// onto the left input, right-side ones onto the right input with their
/// columns shifted down by the left arity — recursively, so a conjunct
/// reaches the scan whose columns it reads and becomes a kernel conjunct
/// there (zone maps, SIMD masks). A conjunct that spans both sides, or
/// reads no column, stays above the join. Inner joins commute with such
/// filters, and a filter keeps the relative order of what it passes, so
/// the result is the unrewritten plan's, row for row.
fn push_filters(plan: LogicalPlan, width: &dyn Fn(&str) -> usize) -> LogicalPlan {
    let mut plan = match plan {
        LogicalPlan::Select {
            input,
            pred,
            sel_hint,
        } => return select_over(push_filters(*input, width), &pred, sel_hint, width),
        plan => plan,
    };
    for input in plan.inputs_mut() {
        let taken = std::mem::replace(input, LogicalPlan::Scan { table: "".into() });
        *input = push_filters(taken, width);
    }
    plan
}

/// `Select(pred)` over an already rewritten `input`, pushed through it
/// when it is a join (see [`push_filters`]).
fn select_over(
    input: LogicalPlan,
    pred: &Expr,
    sel_hint: Option<f64>,
    width: &dyn Fn(&str) -> usize,
) -> LogicalPlan {
    let LogicalPlan::Join {
        left,
        right,
        left_key,
        right_key,
    } = input
    else {
        return LogicalPlan::Select {
            input: Box::new(input),
            pred: pred.clone(),
            sel_hint,
        };
    };
    let lw = left.arity(&width);
    let (mut on_left, mut on_right, mut spanning) = (Vec::new(), Vec::new(), Vec::new());
    for c in conjuncts(pred) {
        // `columns()` is sorted: its ends say which sides it reads.
        let cols = c.columns();
        match (cols.first(), cols.last()) {
            (Some(_), Some(&hi)) if hi < lw => on_left.push(c.clone()),
            (Some(&lo), _) if lo >= lw => on_right.push(c.map_columns(&|i| i - lw)),
            _ => spanning.push(c.clone()),
        }
    }
    let side = |input: LogicalPlan, preds: Vec<Expr>| match conjunction(preds) {
        Some(p) => select_over(input, &p, None, width),
        None => input,
    };
    let join = LogicalPlan::Join {
        left: Box::new(side(*left, on_left)),
        right: Box::new(side(*right, on_right)),
        left_key,
        right_key,
    };
    match conjunction(spanning) {
        Some(pred) => LogicalPlan::Select {
            input: Box::new(join),
            pred,
            sel_hint,
        },
        None => join,
    }
}

/// `a AND b AND …` in the given order; `None` for no conjuncts.
fn conjunction(preds: Vec<Expr>) -> Option<Expr> {
    preds.into_iter().reduce(Expr::and)
}

/// One plan's lowering: the provider, the per-table scan columns, the
/// driver, the table widths and the index hits of the one scan.
struct Lowering<'a> {
    db: &'a dyn TableProvider,
    required: &'a [(String, Vec<ColId>)],
    driver: &'a dyn PipeDriver,
    width: &'a dyn Fn(&str) -> usize,
    hits: Option<&'a [usize]>,
}

impl<'a> Lowering<'a> {
    /// The rows of `plan`; `need` is the set of its output columns that
    /// anything above reads.
    fn materialize(
        &self,
        plan: &LogicalPlan,
        need: &[ColId],
    ) -> Result<Vec<Vec<Value>>, ExecError> {
        self.run(self.lower(plan, need)?, Want::Rows)
    }

    /// Walk `pipe` from its source into one sink: collected rows, a join's
    /// build, or one carried aggregate state, finished. A table source is
    /// walked over every main-store piece its scan's zone predicates cannot
    /// refute (for hits, only those that hold one), in row order, then over
    /// the live delta tail. Returns the rows (none for [`Want::Build`]).
    fn run(&self, pipe: Pipe<'_>, want: Want<'_>) -> Result<Vec<Vec<Value>>, ExecError> {
        let (name, hits) = match pipe.source {
            Source::Table(name) => (name, None),
            Source::Hits(name, ids) => (name, Some(ids)),
            Source::Rows(rows) => {
                let spec = PipeSpec {
                    steps: &pipe.steps,
                    ..PipeSpec::default()
                };
                let mut dest = Dest::open(want, None, spec);
                dest.push(rows, spec.steps);
                return Ok(dest.finish());
            }
        };
        let (db, driver) = (self.db, self.driver);
        let shape = db
            .shape(&name)
            .ok_or_else(|| ExecError::UnknownTable(name.clone()))?;
        let needed = self
            .required
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| (0..shape.schema().len()).collect());
        let spec = PipeSpec {
            preds: &pipe.preds,
            steps: &pipe.steps,
            needed: &needed,
        };
        // Hits fold on this thread through the keyed sink, which takes
        // any aggregate: there are no partials to merge.
        let mut dest = Dest::open(want, hits.is_none().then_some(shape), spec);
        let zps = zone_preds(shape, spec.preds);
        db.for_each_piece(&name, &zps, hits, &mut |base, t, dead| {
            dest.at_piece(base);
            match hits {
                None => dest.piece(driver, t, dead, spec),
                Some(ids) => dest.walk(&Scan::new(t, spec), dead, Walk::Hits(ids, base)),
            }
            Ok(())
        })?;
        if let Some(o) = &db.overlay(&name) {
            dest.tail(o, spec);
        }
        Ok(dest.finish())
    }

    /// Lower a plan into a pipe, executing pipeline breakers on the way.
    /// `need` is the set of the plan's output columns read above it: what
    /// a join's build side keeps.
    fn lower(&self, plan: &LogicalPlan, need: &[ColId]) -> Result<Pipe<'a>, ExecError> {
        let needs = plan.input_columns(&self.width, need);
        Ok(match plan {
            LogicalPlan::Scan { table } => {
                self.db
                    .shape(table)
                    .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
                Pipe::new(match self.hits {
                    Some(ids) => Source::Hits(table.clone(), ids),
                    None => Source::Table(table.clone()),
                })
            }
            LogicalPlan::Select { input, pred, .. } => {
                let mut pipe = self.lower(input, &needs[0])?;
                pipe.select(pred);
                pipe
            }
            LogicalPlan::Project { input, exprs } => {
                let mut pipe = self.lower(input, &needs[0])?;
                pipe.project(exprs);
                pipe
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let pipe = match input.as_ref() {
                    // A group-join when every group-by expression is a
                    // plain build-side column.
                    join @ LogicalPlan::Join { left, .. } => {
                        let lw = left.arity(&self.width);
                        let grouped: Option<Vec<ColId>> = group_by
                            .iter()
                            .map(|g| match g {
                                Expr::Col(c) if *c < lw => Some(*c),
                                _ => None,
                            })
                            .collect();
                        self.join(join, &needs[0], grouped.as_deref())?
                    }
                    input => self.lower(input, &needs[0])?,
                };
                Pipe::new(Source::Rows(self.run(pipe, Want::Agg(group_by, aggs))?))
            }
            LogicalPlan::Join { .. } => self.join(plan, need, None)?,
            LogicalPlan::Sort { input, keys } => Pipe::new(Source::Rows(sorted(
                self.materialize(input, &needs[0])?,
                keys,
                None,
            ))),
            LogicalPlan::Limit { input, n } => Pipe::new(Source::Rows(match input.as_ref() {
                // Top-N: select the first `n`, sort only those.
                LogicalPlan::Sort { input: rows, keys } => {
                    let need = &input.input_columns(&self.width, &needs[0])[0];
                    sorted(self.materialize(rows, need)?, keys, Some(*n))
                }
                _ => {
                    let mut rows = self.materialize(input, &needs[0])?;
                    rows.truncate(*n);
                    rows
                }
            })),
        })
    }

    /// Lower the join `plan`: build its left input, and return its right
    /// input's pipe with the probe as its last step. With `group_by`, the
    /// build also numbers its rows by group of those left columns, for the
    /// group-join above.
    fn join(
        &self,
        plan: &LogicalPlan,
        need: &[ColId],
        group_by: Option<&[ColId]>,
    ) -> Result<Pipe<'a>, ExecError> {
        let LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } = plan
        else {
            unreachable!("lowering a join");
        };
        let needs = plan.input_columns(&self.width, need);
        // The build side is always materialized (pipeline breaker) and
        // indexed in row order, so probe fan-out order is the same under
        // every driver. Each build row streams into the arena once, flat:
        // its key, then the left columns read above the join.
        let lw = left.arity(&self.width);
        let keep: Vec<ColId> = need.iter().copied().filter(|&c| c < lw).collect();
        let mut build = self.lower(left, &needs[0])?;
        let projection: Vec<Expr> = std::iter::once(left_key.clone())
            .chain(keep.iter().map(|&c| Expr::col(c)))
            .collect();
        build.project(&projection);
        let mut rows = BuildRows::new(projection.len());
        self.run(build, Want::Build(&mut rows))?;
        let join = HashJoin::build(rows, lw, &keep, right_key.clone(), group_by);
        // The probe key is evaluated against the probe-side row in its
        // base space; later steps read the joined space, build columns
        // first.
        let mut pipe = self.lower(right, &needs[1])?;
        pipe.steps.push(Step::Probe(join));
        Ok(pipe)
    }
}

/// What [`Lowering::run`] makes of a pipe's rows.
enum Want<'w> {
    /// The rows, collected.
    Rows,
    /// A join's build rows, streamed in.
    Build(&'w mut BuildRows),
    /// The aggregate of the rows.
    Agg(&'w [Expr], &'w [AggExpr]),
}

/// An open [`Want`]: the sink one pipe walk fills.
enum Dest<'s> {
    Rows(Vec<Vec<Value>>),
    Build(&'s mut BuildRows),
    Fold(AggState<'s>),
}

impl<'s> Dest<'s> {
    /// Open `want` over `spec`. An aggregate takes its typed form when the
    /// driver walks `shape`'s pieces, else the keyed one, which takes
    /// materialized rows.
    fn open(want: Want<'s>, shape: Option<&Table>, spec: PipeSpec<'s>) -> Self {
        match want {
            Want::Rows => Dest::Rows(Vec::new()),
            Want::Build(out) => Dest::Build(out),
            Want::Agg(group_by, aggs) => Dest::Fold(match shape {
                Some(shape) => AggState::new(shape, spec, group_by, aggs),
                None => AggState::keyed(spec, group_by, aggs),
            }),
        }
    }

    /// The next piece's first row has row id `base`.
    fn at_piece(&mut self, base: usize) {
        if let Dest::Fold(state) = self {
            state.base = base as u64;
        }
    }

    /// Walk one main-store piece with `driver`.
    fn piece(&mut self, driver: &dyn PipeDriver, t: &Table, dead: &[bool], spec: PipeSpec<'_>) {
        match self {
            Dest::Rows(out) => driver.collect(t, dead, spec, out),
            Dest::Build(out) => driver.build(t, dead, spec, out),
            Dest::Fold(state) => driver.fold(t, dead, state),
        }
    }

    /// Walk `walk`'s survivors of `scan` on this thread.
    fn walk(&mut self, scan: &Scan<'_>, dead: &[bool], walk: Walk<'_>) {
        match self {
            Dest::Rows(out) => scan.walk(dead, walk, out),
            Dest::Build(out) => scan.walk(dead, walk, *out),
            Dest::Fold(state) => scan.walk(dead, walk, &mut state.sink(Some(scan.table))),
        }
    }

    /// Push materialized rows through `steps`.
    fn push(&mut self, rows: Vec<Vec<Value>>, steps: &[Step]) {
        match self {
            Dest::Rows(out) => push_rows(rows, steps, out),
            Dest::Build(out) => push_rows(rows, steps, *out),
            Dest::Fold(state) => push_rows(rows, steps, &mut state.sink(None)),
        }
    }

    /// Walk the overlay's live tail.
    fn tail(&mut self, overlay: &Overlay<'_>, spec: PipeSpec<'_>) {
        match self {
            Dest::Rows(out) => tail_rows(overlay, spec, out),
            Dest::Build(out) => tail_rows(overlay, spec, *out),
            Dest::Fold(state) => state.fold_tail(overlay),
        }
    }

    fn finish(self) -> Vec<Vec<Value>> {
        match self {
            Dest::Rows(out) => out,
            Dest::Build(_) => Vec::new(),
            Dest::Fold(state) => state.finish(),
        }
    }
}

/// `rows` stably sorted by `keys`, cut to the first `limit` rows. Each
/// row's keys are evaluated once, and rows are ordered by (keys, input
/// position) — a total order, so selecting the first `limit` and sorting
/// only those yields exactly a full stable sort's first `limit` rows.
fn sorted(mut rows: Vec<Vec<Value>>, keys: &[SortKey], limit: Option<usize>) -> Vec<Vec<Value>> {
    let w = keys.len();
    let flat: Vec<Value> = rows
        .iter()
        .flat_map(|r| keys.iter().map(|k| k.expr.eval(&r[..])))
        .collect();
    let cmp = |&a: &usize, &b: &usize| {
        let (ka, kb) = (&flat[a * w..][..w], &flat[b * w..][..w]);
        for ((x, y), k) in ka.iter().zip(kb).zip(keys) {
            let ord = cmp_values(x, y);
            let ord = if k.asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    };
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let n = limit.unwrap_or(rows.len());
    if n == 0 {
        order.clear();
    } else if n < order.len() {
        order.select_nth_unstable_by(n - 1, cmp);
        order.truncate(n);
    }
    order.sort_unstable_by(cmp);
    order
        .into_iter()
        .map(|i| std::mem::take(&mut rows[i]))
        .collect()
}

// ---------------------------------------------------------------------------
// the typed, pruned hash join
// ---------------------------------------------------------------------------

/// Key → the span of [`HashJoin::order`] listing the build rows carrying
/// it.
type Spans<K> = FastMap<K, (u32, u32)>;

/// How a join's build side is keyed.
enum BuildIndex {
    /// Every build key is an integer: keyed by its `i64` bits, Int32 and
    /// Int64 alike (they join, as in [`GroupKey`]).
    Int(Spans<u64>),
    /// Strings, floats, mixed types: the canonical [`GroupKey`] encoding.
    Keyed(Spans<GroupKey>),
}

/// A probe key, read from a row or straight from a column.
#[derive(Clone, Copy)]
enum KeyRef<'v> {
    Int(i64),
    Str(&'v str),
    Val(&'v Value),
}

/// The build side of a hash join: one arena of build rows as the build
/// pipe streamed them in, each its key and then only the columns the plan
/// above the join reads; the row ids grouped by key, in insertion order
/// within a key; and a map from key to its span of those. A probe
/// allocates nothing; a match is read in place as a joined view.
pub struct HashJoin {
    /// The probe key, over the probe-side row.
    key: Expr,
    index: BuildIndex,
    /// The arena's row ids with a non-NULL key, grouped by key.
    order: Vec<u32>,
    /// Build rows, `stride` values each: the key, then the kept columns.
    arena: Vec<Value>,
    stride: usize,
    /// Build-side column → its slot in an arena row; `None` for a column
    /// nothing above the join reads (it reads as NULL).
    slots: Vec<Option<usize>>,
    /// The group-join's groups, when the aggregate above groups by build
    /// columns.
    groups: Option<Box<Groups>>,
}

/// A group-join's build-side groups. Every match position (an index into
/// [`HashJoin::order`]) carries the dense ordinal of its row's group, so a
/// match finds its group by where it matched. A group's label is read from
/// the arena row of its first match.
struct Groups {
    /// Match position → group ordinal.
    of: Vec<u32>,
    /// Number of groups: one for a global aggregate, even over no rows.
    count: usize,
    /// The arena slots of the group-by columns.
    by: Vec<usize>,
}

impl Groups {
    /// Number the groups of the build rows `arena` (`stride` values each)
    /// by the values in slots `by`, each row's group key encoded once, and
    /// give every match position of `order` its row's ordinal.
    fn new(arena: &[Value], stride: usize, order: &[u32], by: Vec<usize>) -> Self {
        let mut ids: FastMap<GroupKey, u32> = FastMap::default();
        let mut key = Vec::new();
        let of_row: Vec<u32> = arena
            .chunks_exact(stride)
            .map(|row| {
                key.clear();
                for &s in &by {
                    keys::encode(&row[s], &mut key);
                }
                if let Some(&g) = ids.get(&key[..]) {
                    return g;
                }
                let g = ids.len() as u32;
                ids.insert(GroupKey::from_bytes(&key), g);
                g
            })
            .collect();
        Groups {
            of: order.iter().map(|&r| of_row[r as usize]).collect(),
            count: ids.len().max(by.is_empty() as usize),
            by,
        }
    }
}

/// A join's build rows as the build pipe streams them in. The pipe ends in
/// a projection to the row's key and its kept columns, and the values are
/// appended flat to the arena.
///
/// A parallel driver fills one per morsel ([`BuildRows::fresh`]) and
/// appends them in morsel order ([`BuildRows::append`]).
pub struct BuildRows {
    /// Values an arena row holds: the key, then the kept columns.
    stride: usize,
    arena: Vec<Value>,
}

impl BuildRows {
    /// Empty build rows of `stride` values.
    fn new(stride: usize) -> Self {
        BuildRows {
            stride,
            arena: Vec::new(),
        }
    }

    /// Empty build rows of the same shape.
    pub fn fresh(&self) -> Self {
        BuildRows::new(self.stride)
    }

    /// Append `other`'s rows after these.
    pub fn append(&mut self, other: BuildRows) {
        if self.arena.is_empty() {
            *self = other;
        } else {
            self.arena.extend(other.arena);
        }
    }
}

impl Sink for BuildRows {
    fn row(&mut self, row: Vec<Value>) {
        self.arena.extend(row);
    }

    fn joined(&mut self, _: &Joined<'_>) {
        unreachable!("a build pipe ends in its projection");
    }

    fn values(&mut self, row: impl Iterator<Item = Value>) {
        self.arena.extend(row);
    }
}

/// Give each distinct key of `keys` (row id and key, `n` of them, in row
/// order) a contiguous span of match positions, first-seen keys first.
/// Returns the spans and the row ids in position order: a key's rows keep
/// their input order.
fn spans<K: Hash + Eq>(keys: impl Iterator<Item = (u32, K)>, n: usize) -> (Spans<K>, Vec<u32>) {
    let mut map: Spans<K> = fast_map(n);
    let mut counts: Vec<u32> = Vec::new();
    let rows: Vec<(u32, u32)> = keys
        .map(|(r, k)| {
            let fresh = counts.len() as u32;
            let g = map.entry(k).or_insert((fresh, 0)).0;
            if g == fresh {
                counts.push(0);
            }
            counts[g as usize] += 1;
            (r, g)
        })
        .collect();
    let mut next = Vec::with_capacity(counts.len() + 1);
    next.push(0);
    for c in counts {
        next.push(next[next.len() - 1] + c);
    }
    for span in map.values_mut() {
        let g = span.0 as usize;
        *span = (next[g], next[g + 1]);
    }
    let mut order = vec![0; rows.len()];
    for (r, g) in rows {
        order[next[g as usize] as usize] = r;
        next[g as usize] += 1;
    }
    (map, order)
}

impl HashJoin {
    /// Index a join's build side: `rows` holds the build rows in row
    /// order, each its key, then its kept left columns `keep` (of `lw`).
    /// A row with a NULL key never matches. `key` is the probe side's key.
    /// With `group_by` (kept columns), the rows are numbered by group.
    fn build(
        rows: BuildRows,
        lw: usize,
        keep: &[ColId],
        key: Expr,
        group_by: Option<&[ColId]>,
    ) -> Self {
        let BuildRows { stride, arena } = rows;
        let keys = || {
            (0..arena.len() / stride)
                .map(|r| (r as u32, &arena[r * stride]))
                .filter(|(_, k)| !k.is_null())
        };
        let n = keys().count();
        let ints = keys().all(|(_, k)| matches!(k, Value::Int32(_) | Value::Int64(_)));
        let (index, order) = if ints {
            let (map, order) = spans(keys().map(|(r, k)| (r, k.as_i64().expect("int") as u64)), n);
            (BuildIndex::Int(map), order)
        } else {
            let (map, order) = spans(keys().map(|(r, k)| (r, GroupKey::single(k))), n);
            (BuildIndex::Keyed(map), order)
        };
        let mut slots = vec![None; lw];
        for (s, &c) in keep.iter().enumerate() {
            slots[c] = Some(1 + s);
        }
        let groups = group_by.map(|by| {
            let by = by
                .iter()
                .map(|&c| slots[c].expect("group-by columns are kept"));
            Box::new(Groups::new(&arena, stride, &order, by.collect()))
        });
        HashJoin {
            key,
            index,
            order,
            arena,
            stride,
            slots,
            groups,
        }
    }

    /// The match positions of `key`: its rows are `order[..]` of them, in
    /// build-insertion order. `buf` is the reused encoding buffer of a
    /// [`GroupKey`]-keyed probe.
    fn lookup(&self, key: KeyRef<'_>, buf: &mut Vec<u8>) -> Range<usize> {
        let span = match (&self.index, key) {
            (_, KeyRef::Val(Value::Null)) => None,
            (BuildIndex::Int(map), KeyRef::Int(x)) => map.get(&(x as u64)),
            (BuildIndex::Int(map), KeyRef::Val(v @ (Value::Int32(_) | Value::Int64(_)))) => {
                map.get(&(v.as_i64().expect("int") as u64))
            }
            (BuildIndex::Int(_), _) => None,
            (BuildIndex::Keyed(map), key) => {
                buf.clear();
                match key {
                    KeyRef::Int(x) => keys::encode_int(x, buf),
                    KeyRef::Str(s) => keys::encode_str(s, buf),
                    KeyRef::Val(v) => keys::encode(v, buf),
                }
                map.get(&buf[..])
            }
        };
        span.map_or(0..0, |&(a, b)| a as usize..b as usize)
    }

    /// [`HashJoin::lookup`] with the probe key evaluated over `row`.
    fn lookup_in(&self, row: &[Value], buf: &mut Vec<u8>) -> Range<usize> {
        match &self.key {
            Expr::Col(c) => self.lookup(KeyRef::Val(&row[*c]), buf),
            key => self.lookup(KeyRef::Val(&key.eval(row)), buf),
        }
    }

    /// The build row matched at position `j`.
    #[inline(always)]
    fn row(&self, j: usize) -> &[Value] {
        &self.arena[self.order[j] as usize * self.stride..][..self.stride]
    }

    /// The build row matched at position `j`, joined with `probe`.
    #[inline(always)]
    fn view<'v>(&'v self, j: usize, probe: &'v [Value]) -> Joined<'v> {
        Joined {
            build: self.row(j),
            slots: &self.slots,
            probe,
            at: j,
        }
    }

    /// Send every match `hits` of `probe` through `rest` as a joined view.
    fn fan_out<S: Sink>(
        &self,
        probe: &[Value],
        hits: Range<usize>,
        rest: &[Step],
        buf: &mut Vec<u8>,
        sink: &mut S,
    ) {
        for m in hits {
            joined_steps(&self.view(m, probe), rest, buf, sink);
        }
    }
}

/// A join's output row read in place: the build row's kept columns beside
/// the probe row, addressed in the joined space (build columns first).
struct Joined<'a> {
    build: &'a [Value],
    slots: &'a [Option<usize>],
    probe: &'a [Value],
    /// The match position of the build row.
    at: usize,
}

static NULL: Value = Value::Null;

/// Move `v` out, leaving NULL.
fn take(v: &mut Value) -> Value {
    std::mem::replace(v, Value::Null)
}

impl Columns for Joined<'_> {
    #[inline(always)]
    fn col(&self, c: ColId) -> &Value {
        match self.slots.get(c) {
            Some(Some(s)) => &self.build[*s],
            Some(None) => &NULL,
            None => &self.probe[c - self.slots.len()],
        }
    }
}

impl Joined<'_> {
    /// The joined row's values (unkept build columns NULL).
    fn values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.slots.len() + self.probe.len()).map(|c| self.col(c).clone())
    }
}

/// Where a pipeline's rows end: an output buffer, a join's build or an
/// aggregate fold.
trait Sink {
    /// Take a materialized row.
    fn row(&mut self, row: Vec<Value>);
    /// Take a join's output row, read in place.
    fn joined(&mut self, row: &Joined<'_>);
    /// Take a row as its values in order: a projection's output, or a
    /// survivor moved out of a reused buffer.
    fn values(&mut self, row: impl Iterator<Item = Value>) {
        self.row(row.collect());
    }
    /// Take the projection `exprs` of `row`, read in place.
    fn projected<R: Columns + ?Sized>(&mut self, exprs: &[Expr], row: &R) {
        self.values(exprs.iter().map(|e| e.eval(row)));
    }
    /// The rows that follow come from main-store row `i` of the piece
    /// being walked.
    #[inline(always)]
    fn at(&mut self, i: usize) {
        let _ = i;
    }
    /// Take survivor `i` of `scan`, whose first step, a probe, matched it
    /// at positions `hits`; `rest` are the steps after the probe. The row
    /// is decoded into the reused `probe` row and fans out.
    fn matched(
        &mut self,
        scan: &Scan<'_>,
        i: usize,
        hits: Range<usize>,
        rest: &[Step],
        probe: &mut [Value],
        buf: &mut Vec<u8>,
    ) where
        Self: Sized,
    {
        fan_out_survivor(scan, i, hits, rest, probe, buf, self);
    }
}

/// [`Sink::matched`]'s default: decode survivor `i` of `scan` into `probe`
/// and send its matches `hits` of the scan's probe through `rest`.
fn fan_out_survivor<S: Sink>(
    scan: &Scan<'_>,
    i: usize,
    hits: Range<usize>,
    rest: &[Step],
    probe: &mut [Value],
    buf: &mut Vec<u8>,
    sink: &mut S,
) {
    let Some(Step::Probe(join)) = scan.spec.steps.first() else {
        unreachable!("the scan's first step probes");
    };
    scan.fill(i, probe);
    join.fan_out(probe, hits, rest, buf, sink);
}

impl Sink for Vec<Vec<Value>> {
    fn row(&mut self, row: Vec<Value>) {
        self.push(row);
    }

    fn joined(&mut self, row: &Joined<'_>) {
        self.push(row.values().collect());
    }
}

/// Push `row` through `steps` into `sink`: a NULL or missing probe key
/// drops the row, probe matches fan out in build-insertion order. `buf`
/// is the probe key buffer.
fn push_row<S: Sink>(mut row: Vec<Value>, steps: &[Step], buf: &mut Vec<u8>, sink: &mut S) {
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Project(exprs) if k + 1 == steps.len() => {
                return sink.projected(exprs, &row[..]);
            }
            Step::Project(exprs) => row = exprs.iter().map(|e| e.eval(&row[..])).collect(),
            Step::Filter(pred) => {
                if !pred.eval_bool(&row[..]) {
                    return;
                }
            }
            Step::Probe(join) => {
                let hits = join.lookup_in(&row, buf);
                join.fan_out(&row, hits, &steps[k + 1..], buf, sink);
                return;
            }
        }
    }
    sink.row(row);
}

/// Push every row of `rows` through `steps` into `sink`.
fn push_rows<S: Sink>(rows: Vec<Vec<Value>>, steps: &[Step], sink: &mut S) {
    let mut buf = Vec::new();
    for row in rows {
        push_row(row, steps, &mut buf, sink);
    }
}

/// [`push_row`] for a joined view: filters read it in place, a last
/// projection is read in place by the sink, and anything else
/// materializes the row once.
fn joined_steps<S: Sink>(view: &Joined<'_>, steps: &[Step], buf: &mut Vec<u8>, sink: &mut S) {
    match steps.split_first() {
        None => sink.joined(view),
        Some((Step::Filter(pred), rest)) => {
            if pred.eval_bool(view) {
                joined_steps(view, rest, buf, sink);
            }
        }
        Some((Step::Project(exprs), [])) => sink.projected(exprs, view),
        Some((Step::Project(exprs), rest)) => push_row(
            exprs.iter().map(|e| e.eval(view)).collect(),
            rest,
            buf,
            sink,
        ),
        Some((Step::Probe(_), _)) => push_row(view.values().collect(), steps, buf, sink),
    }
}

// ---------------------------------------------------------------------------
// the survivor loop
// ---------------------------------------------------------------------------

/// Work counters of one range walk, flushed to the process-wide scan
/// counters once per call so the hot loops never touch shared cache lines.
#[derive(Default)]
struct Tally {
    chunks: simd::ChunkStats,
    scanned: u64,
    pruned: u64,
}

impl Tally {
    fn flush(self) {
        self.chunks.flush();
        simd::note_blocks(self.scanned, self.pruned);
    }
}

/// Which main-store rows of one bound table a survivor loop visits.
enum Walk<'r> {
    /// Every row of a range.
    Range(Range<usize>),
    /// The rows at those of the ascending index hits that fall in the
    /// table, whose first row has row id `base`.
    Hits(&'r [usize], usize),
}

/// One table bound for scanning: predicate kernels compiled against its
/// partition readers and dictionaries, zone map at hand. Binding costs a
/// dictionary pass per string predicate, so drivers bind once per worker
/// or extent and walk many ranges.
pub struct Scan<'a> {
    table: &'a Table,
    spec: PipeSpec<'a>,
    kernels: Vec<PredKernel<'a>>,
    zpreds: Vec<ZonePred>,
    /// `None` when no conjunct can refute a block — avoids even the
    /// (one-time) zone-map build for unprunable scans.
    zones: Option<Arc<ZoneMap>>,
    wide: bool,
    /// The first step's probe key when it is a plain non-nullable integer
    /// or string column of this table: read in place, so a survivor is
    /// probed before it materializes and a miss allocates nothing.
    probe_key: Option<KeyReader<'a>>,
    /// The first step's columns when it projects plain columns: a survivor
    /// is decoded straight into its projected row.
    project: Option<Vec<ColId>>,
}

impl<'a> Scan<'a> {
    /// Bind `spec` to `table`.
    pub fn new(table: &'a Table, spec: PipeSpec<'a>) -> Self {
        let zpreds = zone_preds(table, spec.preds);
        let zones = (!zpreds.is_empty() && !table.is_empty()).then(|| table.zone_map().clone());
        Scan {
            table,
            spec,
            kernels: spec.preds.iter().map(|p| compile_pred(table, p)).collect(),
            zpreds,
            zones,
            wide: simd::wide_enabled(simd::mode()),
            probe_key: match spec.steps.first() {
                Some(Step::Probe(join)) => KeyReader::open(table, std::slice::from_ref(&join.key)),
                _ => None,
            },
            project: match spec.steps.first() {
                Some(Step::Project(exprs)) => exprs
                    .iter()
                    .map(|e| if let Expr::Col(c) = e { Some(*c) } else { None })
                    .collect(),
                _ => None,
            },
        }
    }

    /// Call `f(start, end)` for every zone block (clipped to `range`) the
    /// zone map cannot refute. A block is tallied by the range holding its
    /// first row, so ranges that split a block count it once.
    fn blocks(
        &self,
        range: Range<usize>,
        tally: &mut Tally,
        mut f: impl FnMut(usize, usize, &mut Tally),
    ) {
        if range.is_empty() {
            return;
        }
        for b in range.start / ZONE_BLOCK_ROWS..=(range.end - 1) / ZONE_BLOCK_ROWS {
            let block_start = b * ZONE_BLOCK_ROWS;
            if let Some(z) = &self.zones {
                let counted = block_start >= range.start;
                if z.block_refuted(b, &self.zpreds) {
                    tally.pruned += counted as u64;
                    continue;
                }
                tally.scanned += counted as u64;
            }
            f(
                block_start.max(range.start),
                (block_start + ZONE_BLOCK_ROWS).min(range.end),
                tally,
            );
        }
    }

    /// The survivor loop: call `f(i)` for every row `walk` visits that is
    /// not tombstoned in `dead` (empty = no tombstones) and passes every
    /// kernel, in row order. A range is walked in the zone blocks it
    /// cannot refute, 64 rows to a mask; hits one at a time.
    fn survivors(
        &self,
        dead: &[bool],
        walk: Walk<'_>,
        tally: &mut Tally,
        mut f: impl FnMut(usize),
    ) {
        let range = match walk {
            Walk::Range(range) => range,
            Walk::Hits(ids, base) => {
                let at = |row: usize| ids.partition_point(|&id| id < row);
                let ids = &ids[at(base)..at(base + self.table.len())];
                for i in ids.iter().map(|&id| id - base) {
                    if !dead.get(i).is_some_and(|&d| d) && self.kernels.iter().all(|k| k.test(i)) {
                        f(i);
                    }
                }
                return;
            }
        };
        self.blocks(range, tally, |bs, be, tally| {
            let mut sub = bs;
            while sub < be {
                let len = (be - sub).min(64);
                let mut mask = simd::ones(len);
                if !dead.is_empty() {
                    for (j, &d) in dead[sub..sub + len].iter().enumerate() {
                        mask &= !((d as u64) << j);
                    }
                }
                for k in &self.kernels {
                    if mask == 0 {
                        break;
                    }
                    mask &= k.block_mask(sub, len, mask, self.wide, &mut tally.chunks);
                }
                while mask != 0 {
                    f(sub + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
                sub += len;
            }
        });
    }

    /// Survivor `i` materialized column-pruned (other columns NULL).
    fn row(&self, i: usize) -> Vec<Value> {
        let mut row = vec![Value::Null; self.table.schema().len()];
        self.fill(i, &mut row);
        row
    }

    /// Overwrite the needed columns of `row` with survivor `i`'s.
    fn fill(&self, i: usize, row: &mut [Value]) {
        for &c in self.spec.needed {
            row[c] = self.table.get(i, c).expect("in-range");
        }
    }

    /// Survivors pushed through the steps into `sink`. A pipe that starts
    /// with a plain-column projection decodes only those columns; one that
    /// starts with a probe on a key column probes first and materializes
    /// only the rows that match; one with no step decodes each survivor's
    /// needed columns into one reused row and moves them into the sink.
    fn rows<S: Sink>(&self, dead: &[bool], walk: Walk<'_>, tally: &mut Tally, sink: &mut S) {
        let mut buf = Vec::new();
        match (
            &self.probe_key,
            &self.project,
            self.spec.steps.split_first(),
        ) {
            (_, Some(cols), Some((_, rest))) => self.survivors(dead, walk, tally, |i| {
                sink.at(i);
                let row = cols
                    .iter()
                    .map(|&c| self.table.get(i, c).expect("in-range"));
                if rest.is_empty() {
                    sink.values(row)
                } else {
                    push_row(row.collect(), rest, &mut buf, sink)
                }
            }),
            (Some(key), _, Some((Step::Probe(join), rest))) => {
                let mut probe = vec![Value::Null; self.table.schema().len()];
                // A run of equal keys (a clustered foreign key) probes once.
                let mut last: Option<(u64, Range<usize>)> = None;
                self.survivors(dead, walk, tally, |i| {
                    let raw = key.raw(i);
                    let hits = match &last {
                        Some((r, hits)) if *r == raw => hits.clone(),
                        _ => {
                            let hits = join.lookup(key.key_ref(i), &mut buf);
                            last = Some((raw, hits.clone()));
                            hits
                        }
                    };
                    if !hits.is_empty() {
                        sink.at(i);
                        sink.matched(self, i, hits, rest, &mut probe, &mut buf);
                    }
                })
            }
            (_, _, None) => {
                let mut row = vec![Value::Null; self.table.schema().len()];
                self.survivors(dead, walk, tally, |i| {
                    self.fill(i, &mut row);
                    sink.values(row.iter_mut().map(take));
                })
            }
            _ => self.survivors(dead, walk, tally, |i| {
                sink.at(i);
                push_row(self.row(i), self.spec.steps, &mut buf, sink)
            }),
        }
    }

    /// Push every survivor `walk` visits through the steps into `sink`.
    fn walk<S: Sink>(&self, dead: &[bool], walk: Walk<'_>, sink: &mut S) {
        let mut tally = Tally::default();
        self.rows(dead, walk, &mut tally, sink);
        tally.flush();
    }

    /// Append `base + i` for every survivor `i` of main-store rows `range`,
    /// ascending — the row-id sink predicate DML matches with. No column
    /// is materialized; `base` is the row id of the table's first row
    /// (nonzero when the table is one extent of a larger one).
    pub fn collect_ids(
        &self,
        dead: &[bool],
        range: Range<usize>,
        base: usize,
        out: &mut Vec<usize>,
    ) {
        let mut tally = Tally::default();
        self.survivors(dead, Walk::Range(range), &mut tally, |i| out.push(base + i));
        tally.flush();
    }

    /// Append every row the pipeline emits for main-store rows `range`.
    pub fn collect_range(&self, dead: &[bool], range: Range<usize>, out: &mut Vec<Vec<Value>>) {
        self.walk(dead, Walk::Range(range), out);
    }

    /// Stream every row the pipeline emits for main-store rows `range`
    /// into a join's build.
    pub fn build_range(&self, dead: &[bool], range: Range<usize>, out: &mut BuildRows) {
        self.walk(dead, Walk::Range(range), out);
    }
}

/// Push the overlay's live tail rows that pass `spec.preds` through the
/// steps into `sink`. Predicates are interpreted: tail rows are decoded,
/// not dictionary-coded, and full schema width.
fn tail_rows<S: Sink>(overlay: &Overlay<'_>, spec: PipeSpec<'_>, sink: &mut S) {
    let mut buf = Vec::new();
    for r in overlay.live_tail() {
        if tail_row_passes(spec.preds, r) {
            let row = masked_tail_row(r, spec.needed, r.values().len());
            push_row(row, spec.steps, &mut buf, sink);
        }
    }
}

// ---------------------------------------------------------------------------
// the mergeable aggregate state
// ---------------------------------------------------------------------------

/// Typed reader feeding one accumulator straight from a partition — no
/// per-survivor `Value`.
enum AggReader<'t> {
    I32(I32Col<'t>, Option<ColId>),
    I64(I64Col<'t>, Option<ColId>),
    F64(F64Col<'t>, Option<ColId>),
    CountStar,
}

impl<'t> AggReader<'t> {
    /// `None` unless the argument is `count(*)` or a plain numeric column.
    fn open(table: &'t Table, agg: &AggExpr) -> Option<Self> {
        match &agg.arg {
            None => Some(AggReader::CountStar),
            Some(Expr::Col(c)) => Self::column(table, *c),
            Some(_) => None,
        }
    }

    /// A reader of column `c`; `None` unless it is numeric.
    fn column(table: &'t Table, c: ColId) -> Option<Self> {
        let def = &table.schema().columns()[c];
        let nc = def.nullable.then_some(c);
        Some(match def.ty {
            DataType::Int32 => AggReader::I32(table.i32_reader(c), nc),
            DataType::Int64 => AggReader::I64(table.i64_reader(c), nc),
            DataType::Float64 => AggReader::F64(table.f64_reader(c), nc),
            DataType::Str => return None,
        })
    }

    #[inline(always)]
    fn update(&self, table: &Table, i: usize, acc: &mut Accumulator) {
        let valid = |nc: &Option<ColId>| nc.map(|c| table.is_valid(i, c)).unwrap_or(true);
        match self {
            AggReader::CountStar => acc.update_i64(1),
            AggReader::I32(r, nc) => {
                if valid(nc) {
                    acc.update_i64(r.get(i) as i64);
                }
            }
            AggReader::I64(r, nc) => {
                if valid(nc) {
                    acc.update_i64(r.get(i));
                }
            }
            AggReader::F64(r, nc) => {
                if valid(nc) {
                    acc.update_f64(r.get(i));
                }
            }
        }
    }
}

fn open_readers<'t>(table: &'t Table, aggs: &[AggExpr]) -> Option<Vec<AggReader<'t>>> {
    aggs.iter().map(|a| AggReader::open(table, a)).collect()
}

/// Typed reader over a single-column group key. Keys hash as raw `u64`s
/// (no per-row `Value`, no byte-key serialization): integers
/// sign-extended, strings by dictionary code.
enum KeyReader<'t> {
    I32(I32Col<'t>),
    I64(I64Col<'t>),
    Code(U32Col<'t>, &'t Dictionary),
}

impl<'t> KeyReader<'t> {
    /// `None` unless the key is one plain non-nullable int/string column.
    fn open(table: &'t Table, group_by: &[Expr]) -> Option<Self> {
        let [Expr::Col(c)] = group_by else {
            return None;
        };
        let def = &table.schema().columns()[*c];
        if def.nullable {
            return None;
        }
        Some(match def.ty {
            DataType::Int32 => KeyReader::I32(table.i32_reader(*c)),
            DataType::Int64 => KeyReader::I64(table.i64_reader(*c)),
            DataType::Str => {
                KeyReader::Code(table.str_code_reader(*c), table.dict(*c).expect("str col"))
            }
            DataType::Float64 => return None,
        })
    }

    #[inline(always)]
    fn raw(&self, i: usize) -> u64 {
        match self {
            KeyReader::I32(r) => r.get(i) as i64 as u64,
            KeyReader::I64(r) => r.get(i) as u64,
            KeyReader::Code(r, _) => r.get(i) as u64,
        }
    }

    /// Row `i`'s key as a join probe key.
    #[inline(always)]
    fn key_ref(&self, i: usize) -> KeyRef<'t> {
        match self {
            KeyReader::I32(r) => KeyRef::Int(r.get(i) as i64),
            KeyReader::I64(r) => KeyRef::Int(r.get(i)),
            KeyReader::Code(r, dict) => KeyRef::Str(dict.decode(r.get(i))),
        }
    }

    /// Int32 keys must decode as Int32 to match the generic path.
    fn decode(&self, raw: u64) -> Value {
        match self {
            KeyReader::I32(_) => Value::Int32(raw as i64 as i32),
            KeyReader::I64(_) => Value::Int64(raw as i64),
            KeyReader::Code(_, dict) => Value::Str(dict.decode(raw as u32).to_owned()),
        }
    }
}

/// First synthetic raw key: dictionary codes are `u32`, so tail strings
/// the main dictionary never interned get keys no code can collide with.
const NOVEL_KEY_BASE: u64 = 1 << 32;

type RawGroups = FastMap<u64, (Value, Vec<Accumulator>)>;
type KeyedGroups = FastMap<GroupKey, (Vec<Value>, Vec<Accumulator>)>;

/// Where a group-join group was first matched: (probe row, match
/// position). A main-store probe row is its row id in the table; a tail or
/// breaker row comes after every one ([`AFTER_MAIN`]). Compared as a pair,
/// the least is the match the group's first joined row came from.
type Stamp = (u64, u32);

/// The stamp of a group with no match yet.
const UNMATCHED: Stamp = (u64::MAX, u32::MAX);

/// The probe row of a match from the delta tail or a breaker's rows.
const AFTER_MAIN: u64 = u64::MAX - 1;

/// The join a group-join pipe ends in: its last step, when that probe's
/// build carries group ordinals.
fn group_join(steps: &[Step]) -> Option<&HashJoin> {
    match steps.last() {
        Some(Step::Probe(join)) if join.groups.is_some() => Some(join),
        _ => None,
    }
}

/// How a group-join reads one aggregate's argument at a match.
enum JoinArg<'t> {
    /// `count(*)` or a plain numeric probe-side column: typed, at the
    /// probe row.
    Probe(AggReader<'t>),
    /// A plain build-side column: the matched arena row's value, in place.
    Build(usize),
    /// Anything else: evaluated over the joined view, the probe row
    /// decoded.
    View(&'t Expr),
}

impl<'t> JoinArg<'t> {
    /// `agg`'s argument over `join`, probed by rows of `probe`.
    fn open(probe: &'t Table, join: &HashJoin, agg: &'t AggExpr) -> Self {
        let lw = join.slots.len();
        match &agg.arg {
            None => JoinArg::Probe(AggReader::CountStar),
            Some(e @ Expr::Col(c)) if *c < lw => {
                join.slots[*c].map_or(JoinArg::View(e), JoinArg::Build)
            }
            Some(e @ Expr::Col(c)) => {
                AggReader::column(probe, c - lw).map_or(JoinArg::View(e), JoinArg::Probe)
            }
            Some(e) => JoinArg::View(e),
        }
    }
}

/// A group-join's partial aggregate: one accumulator row per group
/// ordinal of the build, and each group's first match.
struct Dense {
    /// Group `g`'s accumulators are `accs[g * aggs..][..aggs]`.
    accs: Vec<Accumulator>,
    first: Vec<Stamp>,
}

impl Dense {
    fn new(groups: usize, aggs: &[AggExpr]) -> Self {
        Dense {
            accs: (0..groups)
                .flat_map(|_| aggs.iter().map(|a| Accumulator::new(a.func)))
                .collect(),
            first: vec![UNMATCHED; groups],
        }
    }

    /// The accumulators of the group matched at position `m` from probe
    /// row `row`; `k` aggregates a group. A state sees its rows in probe
    /// order — pieces ascend, the morsels one worker claims ascend, the
    /// tail comes last — so its first match of a group is its least.
    #[inline(always)]
    fn group(&mut self, groups: &Groups, m: usize, row: u64, k: usize) -> &mut [Accumulator] {
        let g = groups.of[m] as usize;
        let first = &mut self.first[g];
        if first.0 == UNMATCHED.0 {
            *first = (row, m as u32);
        }
        &mut self.accs[g * k..][..k]
    }

    /// Fold `other`, a partial over the same build, in: index by index. A
    /// group only one side matched is moved, not merged; each keeps its
    /// least stamp.
    fn merge(&mut self, mut other: Dense, k: usize) {
        for (g, theirs) in other.first.iter().enumerate() {
            if theirs.0 == UNMATCHED.0 {
                continue;
            }
            let (mine, from) = (&mut self.accs[g * k..][..k], &mut other.accs[g * k..][..k]);
            if self.first[g].0 == UNMATCHED.0 {
                mine.swap_with_slice(from);
            } else {
                merge_accs(mine, from);
            }
            self.first[g] = self.first[g].min(*theirs);
        }
    }

    /// One row per matched group — its label, read from its first
    /// matching build row, then its aggregates — or the one row of a
    /// `global` aggregate.
    fn finish(self, join: &HashJoin, global: bool, k: usize) -> Vec<Vec<Value>> {
        if global {
            return vec![finish_accs(&self.accs[..k]).collect()];
        }
        let groups = join.groups.as_ref().expect("a group-join build");
        self.first
            .iter()
            .enumerate()
            .filter(|(_, f)| f.0 != UNMATCHED.0)
            .map(|(g, &(_, m))| {
                let label = groups.by.iter().map(|&s| join.row(m as usize)[s].clone());
                label.chain(finish_accs(&self.accs[g * k..][..k])).collect()
            })
            .collect()
    }
}

enum Repr {
    /// The literal Fig. 2c kernel: one `i32` comparison predicate, scalar
    /// `sum`s over non-nullable `i32` columns `cols`. A single branch and
    /// a handful of adds per tuple, partials in registers — the code
    /// HyPer's LLVM backend would emit.
    Fig2c {
        cols: Vec<ColId>,
        hits: u64,
        sums: Vec<i64>,
    },
    /// Ungrouped aggregates over plain numeric columns, fed by typed
    /// readers: zero per-survivor heap allocation.
    Scalar(Vec<Accumulator>),
    /// One plain non-nullable int/string key column, aggregates as in
    /// `Scalar`; groups keyed by the raw `u64`, decoded once per group.
    Raw { key_col: ColId, groups: RawGroups },
    /// A group-join: groups are the build's group ordinals.
    Dense(Dense),
    /// Everything else: survivors materialize, flow through the steps,
    /// and group by evaluated key expressions.
    Keyed(KeyedGroups),
}

/// The partial aggregate of one pipeline — the unit both drivers share,
/// and the one state [`execute`] carries across a main store's pieces.
///
/// The state is order-free. Every [`Accumulator`] adds exactly and rounds
/// only in [`finish`](AggState::finish), so a state folded over `a..c`
/// equals one folded over `a..b` and then `b..c`, and equals states folded
/// over any partition of `a..c` and [`merge`](AggState::merge)d in any
/// order — bit for bit, float `sum` and `avg` included. `pdsm-par` relies
/// on this: each worker folds the morsels it claims into its own state,
/// stepped (join-probing) pipelines included, and the partials merge.
pub struct AggState<'a> {
    spec: PipeSpec<'a>,
    group_by: &'a [Expr],
    aggs: &'a [AggExpr],
    repr: Repr,
    /// The row id of the first row of the main-store piece being folded.
    base: u64,
    /// A group-join's worker partials, kept across pieces
    /// ([`AggState::partials`]) and merged at finish.
    parked: Vec<Dense>,
}

fn fresh(aggs: &[AggExpr]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

/// The keyed aggregate as a pipeline sink: a row or a joined view folds in
/// place, its group key encoded into one reused buffer; only a new group
/// allocates. A global aggregate folds into its one group without a key,
/// and a group-join's joined row into the group of the build row it
/// matched.
struct Fold<'g> {
    target: Target<'g>,
    group_by: &'g [Expr],
    aggs: &'g [AggExpr],
    key: Vec<u8>,
    /// The reused buffer of a row taken as its values.
    row: Vec<Value>,
}

enum Target<'g> {
    Global(&'g mut Vec<Accumulator>),
    Groups(&'g mut KeyedGroups),
    Dense(DenseFold<'g>),
}

/// A group-join's fold: the state, its build, and where the probe rows
/// come from.
struct DenseFold<'g> {
    dense: &'g mut Dense,
    join: &'g HashJoin,
    groups: &'g Groups,
    /// The row id of the piece's first row.
    base: u64,
    /// The probe row the next matches come from.
    row: u64,
    /// The aggregates' arguments over the table the pipe scans, when the
    /// probe is its one step: a survivor's matches fold without the row
    /// fanning out.
    args: Option<Vec<JoinArg<'g>>>,
}

impl<'g> Target<'g> {
    fn keyed(groups: &'g mut KeyedGroups, group_by: &[Expr], aggs: &[AggExpr]) -> Self {
        // The global group exists from the start: finished with no rows it
        // is the one row a global aggregate answers anyway.
        if group_by.is_empty() {
            let (_, accs) = groups
                .entry(GroupKey::of(&[]))
                .or_insert_with(|| (Vec::new(), fresh(aggs)));
            Target::Global(accs)
        } else {
            Target::Groups(groups)
        }
    }
}

impl Fold<'_> {
    fn consume<R: Columns + ?Sized>(&mut self, row: &R) {
        let groups = match &mut self.target {
            Target::Global(accs) => return update_from_row(self.aggs, row, accs),
            Target::Groups(groups) => groups,
            Target::Dense(..) => unreachable!("a group-join folds joined rows"),
        };
        self.key.clear();
        for g in self.group_by {
            match g {
                Expr::Col(c) => keys::encode(row.col(*c), &mut self.key),
                e => keys::encode(&e.eval(row), &mut self.key),
            }
        }
        if let Some((_, accs)) = groups.get_mut(&self.key[..]) {
            update_from_row(self.aggs, row, accs);
            return;
        }
        let mut accs = fresh(self.aggs);
        update_from_row(self.aggs, row, &mut accs);
        let label = self.group_by.iter().map(|g| g.eval(row)).collect();
        groups.insert(GroupKey::from_bytes(&self.key), (label, accs));
    }
}

impl Sink for Fold<'_> {
    fn row(&mut self, row: Vec<Value>) {
        self.consume(&row[..]);
    }

    fn joined(&mut self, row: &Joined<'_>) {
        match &mut self.target {
            Target::Dense(f) => {
                let accs = f.dense.group(f.groups, row.at, f.row, self.aggs.len());
                update_from_row(self.aggs, row, accs);
            }
            _ => self.consume(row),
        }
    }

    fn values(&mut self, row: impl Iterator<Item = Value>) {
        let mut buf = std::mem::take(&mut self.row);
        buf.extend(row);
        self.consume(&buf[..]);
        buf.clear();
        self.row = buf;
    }

    #[inline(always)]
    fn at(&mut self, i: usize) {
        if let Target::Dense(f) = &mut self.target {
            f.row = f.base + i as u64;
        }
    }

    /// A group-join whose probe is the scan's one step folds each match
    /// into its group straight away: `count(*)` and plain numeric
    /// probe-side arguments read typed at the probe row, build-side
    /// columns in the arena, anything else over the joined view (the only
    /// case that decodes the probe row).
    fn matched(
        &mut self,
        scan: &Scan<'_>,
        i: usize,
        hits: Range<usize>,
        rest: &[Step],
        probe: &mut [Value],
        buf: &mut Vec<u8>,
    ) {
        let Target::Dense(DenseFold {
            dense,
            join,
            groups,
            row,
            args: Some(args),
            ..
        }) = &mut self.target
        else {
            return fan_out_survivor(scan, i, hits, rest, probe, buf, self);
        };
        debug_assert!(rest.is_empty());
        if args.iter().any(|a| matches!(a, JoinArg::View(_))) {
            scan.fill(i, probe);
        }
        for m in hits {
            let accs = dense.group(groups, m, *row, args.len());
            for (acc, arg) in accs.iter_mut().zip(args.iter()) {
                match arg {
                    JoinArg::Probe(r) => r.update(scan.table, i, acc),
                    JoinArg::Build(s) => acc.update(&join.row(m)[*s]),
                    JoinArg::View(e) => acc.update(&e.eval(&join.view(m, probe))),
                }
            }
        }
    }
}

/// Fold one row into accumulators by evaluating each aggregate's argument
/// against it (`count(*)` counts the row).
fn update_from_row<R: Columns + ?Sized>(aggs: &[AggExpr], row: &R, accs: &mut [Accumulator]) {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
            Some(Expr::Col(c)) => acc.update(row.col(*c)),
            Some(e) => acc.update(&e.eval(row)),
            None => acc.update(&Value::Int32(1)),
        }
    }
}

fn merge_accs(into: &mut [Accumulator], from: &[Accumulator]) {
    for (mine, theirs) in into.iter_mut().zip(from) {
        mine.merge(theirs);
    }
}

fn merge_groups<K: Hash + Eq, V>(
    into: &mut FastMap<K, (V, Vec<Accumulator>)>,
    from: FastMap<K, (V, Vec<Accumulator>)>,
) {
    if into.is_empty() {
        *into = from;
        return;
    }
    for (key, (label, accs)) in from {
        match into.entry(key) {
            Entry::Vacant(v) => {
                v.insert((label, accs));
            }
            Entry::Occupied(mut o) => merge_accs(&mut o.get_mut().1, &accs),
        }
    }
}

/// The Fig. 2c shape: a single non-nullable `i32` comparison kernel and
/// `sum`s over non-nullable `i32` columns. Returns the summed columns.
fn fig2c_cols(table: &Table, preds: &[Expr], aggs: &[AggExpr]) -> Option<Vec<ColId>> {
    let [pred] = preds else {
        return None;
    };
    if !matches!(
        compile_pred(table, pred),
        PredKernel::I32Cmp { null_col: None, .. }
    ) {
        return None;
    }
    aggs.iter()
        .map(|a| match &a.arg {
            Some(Expr::Col(c)) if a.func == AggFunc::Sum => {
                let def = &table.schema().columns()[*c];
                (def.ty == DataType::Int32 && !def.nullable).then_some(*c)
            }
            _ => None,
        })
        .collect()
}

impl<'a> AggState<'a> {
    /// Empty state for `group_by` / `aggs` over the pipeline `spec`. The
    /// representation is chosen from `table`'s *schema* alone, so states
    /// built against a resident table, a zero-row skeleton and every
    /// extent of the same checkpoint agree and can be merged.
    pub fn new(
        table: &Table,
        spec: PipeSpec<'a>,
        group_by: &'a [Expr],
        aggs: &'a [AggExpr],
    ) -> Self {
        let mut state = Self::keyed(spec, group_by, aggs);
        if !spec.steps.is_empty() || open_readers(table, aggs).is_none() {
            return state;
        }
        if !group_by.is_empty() {
            if let (Some(_), [Expr::Col(key_col)]) = (KeyReader::open(table, group_by), group_by) {
                state.repr = Repr::Raw {
                    key_col: *key_col,
                    groups: FastMap::default(),
                };
            }
        } else if let Some(cols) = fig2c_cols(table, spec.preds, aggs) {
            state.repr = Repr::Fig2c {
                hits: 0,
                sums: vec![0; cols.len()],
                cols,
            };
        } else {
            state.repr = Repr::Scalar(fresh(aggs));
        }
        state
    }

    /// Empty state that folds rows through the pipeline's sink: dense over
    /// the group ordinals when the pipeline ends in a group-join's probe,
    /// else grouped by evaluated key expressions — the one that also folds
    /// materialized rows ([`AggState::fold_rows`]).
    pub fn keyed(spec: PipeSpec<'a>, group_by: &'a [Expr], aggs: &'a [AggExpr]) -> Self {
        let repr = match group_join(spec.steps).and_then(|j| j.groups.as_ref()) {
            Some(groups) => Repr::Dense(Dense::new(groups.count, aggs)),
            None => Repr::Keyed(FastMap::default()),
        };
        AggState {
            spec,
            group_by,
            aggs,
            repr,
            base: 0,
            parked: Vec::new(),
        }
    }

    /// The pipeline this state folds: what a driver binds its scans to.
    pub fn spec(&self) -> PipeSpec<'a> {
        self.spec
    }

    /// Fold main-store rows `range` of `scan`'s table, minus the `dead`
    /// tombstones (indexed like the table; empty = none).
    pub fn fold_range(&mut self, scan: &Scan<'_>, dead: &[bool], range: Range<usize>) {
        let t = scan.table;
        let aggs = self.aggs;
        let mut tally = Tally::default();
        match &mut self.repr {
            Repr::Fig2c { cols, hits, sums } => {
                let Some(PredKernel::I32Cmp { r: pr, op, v, .. }) = scan.kernels.first() else {
                    unreachable!("shape checked against the same schema");
                };
                let readers: Vec<I32Col<'_>> = cols.iter().map(|&c| t.i32_reader(c)).collect();
                // Dense slices exist when each column lives alone in its
                // partition (column / suitable hybrid layouts) — that is
                // where the fused wide kernel applies. Tombstoned scans
                // keep the scalar path.
                let pred_slice = pr.as_slice();
                let agg_slices: Option<Vec<&[i32]>> =
                    readers.iter().map(|r| r.as_slice()).collect();
                scan.blocks(range, &mut tally, |bs, be, tally| {
                    if let (true, Some(ps), Some(ags)) = (dead.is_empty(), pred_slice, &agg_slices)
                    {
                        let block: Vec<&[i32]> = ags.iter().map(|a| &a[bs..be]).collect();
                        *hits += simd::fused_filter_sum_i32(
                            &ps[bs..be],
                            *op,
                            *v,
                            &block,
                            sums,
                            scan.wide,
                            &mut tally.chunks,
                        );
                    } else {
                        tally.chunks.scalar += (be - bs).div_ceil(simd::CHUNK_ROWS) as u64;
                        fig2c_scan_rows(pr, *op, *v, &readers, dead, bs..be, sums, hits);
                    }
                });
            }
            Repr::Scalar(accs) => {
                let readers = open_readers(t, aggs).expect("shape checked");
                scan.survivors(dead, Walk::Range(range), &mut tally, |i| {
                    for (acc, rd) in accs.iter_mut().zip(&readers) {
                        rd.update(t, i, acc);
                    }
                });
            }
            Repr::Raw { groups, .. } => {
                let readers = open_readers(t, aggs).expect("shape checked");
                let key = KeyReader::open(t, self.group_by).expect("shape checked");
                scan.survivors(dead, Walk::Range(range), &mut tally, |i| {
                    let raw = key.raw(i);
                    let (_, accs) = groups
                        .entry(raw)
                        .or_insert_with(|| (key.decode(raw), fresh(aggs)));
                    for (acc, rd) in accs.iter_mut().zip(&readers) {
                        rd.update(t, i, acc);
                    }
                });
            }
            Repr::Dense(_) | Repr::Keyed(_) => {
                let mut sink = self.sink(Some(t));
                scan.rows(dead, Walk::Range(range), &mut tally, &mut sink);
            }
        }
        tally.flush();
    }

    /// Fold the overlay's live tail rows that pass the scan predicates.
    /// This is the last fold — after every [`merge`](AggState::merge): a
    /// decoded string key finds its group among the groups the main rows
    /// made.
    pub fn fold_tail(&mut self, overlay: &Overlay<'_>) {
        let (spec, aggs) = (self.spec, self.aggs);
        let passing = || {
            overlay
                .live_tail()
                .filter(|r| tail_row_passes(spec.preds, r))
        };
        match &mut self.repr {
            Repr::Fig2c { cols, hits, sums } => {
                for r in passing() {
                    *hits += 1;
                    for (s, &c) in sums.iter_mut().zip(cols.iter()) {
                        *s += r.values()[c].as_i64().expect("non-nullable i32 tail value");
                    }
                }
            }
            Repr::Scalar(accs) => {
                for r in passing() {
                    update_from_row(aggs, r.values(), accs);
                }
            }
            Repr::Raw { key_col, groups } => {
                // Tail rows are decoded, so string keys find their group
                // through the strings the main store's groups decoded to.
                // Built only when a string-keyed tail row actually passes.
                let mut codes: Option<FastMap<String, u64>> = None;
                for r in passing() {
                    let key = &r.values()[*key_col];
                    let raw = match key {
                        Value::Str(s) => {
                            let codes = codes.get_or_insert_with(|| {
                                groups
                                    .iter()
                                    .filter_map(|(raw, (k, _))| {
                                        Some((k.as_str()?.to_owned(), *raw))
                                    })
                                    .collect()
                            });
                            let novel = NOVEL_KEY_BASE + codes.len() as u64;
                            *codes.entry(s.clone()).or_insert(novel)
                        }
                        int => int.as_i64().expect("non-nullable int/str key") as u64,
                    };
                    let (_, accs) = groups
                        .entry(raw)
                        .or_insert_with(|| (key.clone(), fresh(aggs)));
                    update_from_row(aggs, r.values(), accs);
                }
            }
            Repr::Dense(_) | Repr::Keyed(_) => tail_rows(overlay, spec, &mut self.sink(None)),
        }
    }

    /// Fold materialized (post-step) rows. Only a
    /// [`keyed`](AggState::keyed) state over no group-join takes rows.
    pub fn fold_rows(&mut self, rows: Vec<Vec<Value>>) {
        push_rows(rows, &[], &mut self.sink(None));
    }

    /// The fold sink of a [`keyed`](AggState::keyed) state: what a
    /// pipe's survivors fold through when `scanned` is the table it scans
    /// (from the current piece's [`base`](AggState::base)), and what a
    /// breaker's rows and the delta tail fold through when it is `None`.
    fn sink<'s>(&'s mut self, scanned: Option<&'s Table>) -> Fold<'s> {
        let (steps, group_by, aggs, base) = (self.spec.steps, self.group_by, self.aggs, self.base);
        let target = match &mut self.repr {
            Repr::Keyed(groups) => Target::keyed(groups, group_by, aggs),
            Repr::Dense(dense) => {
                let join = group_join(steps).expect("a dense state ends in a group-join");
                // Survivors fold without fanning out when the probe is
                // the pipe's one step.
                let args = scanned
                    .filter(|_| steps.len() == 1)
                    .map(|t| aggs.iter().map(|a| JoinArg::open(t, join, a)).collect());
                Target::Dense(DenseFold {
                    dense,
                    join,
                    groups: join.groups.as_ref().expect("grouped"),
                    base,
                    row: AFTER_MAIN,
                    args,
                })
            }
            _ => unreachable!("rows fold into a keyed state"),
        };
        Fold {
            target,
            group_by,
            aggs,
            key: Vec::new(),
            row: Vec::new(),
        }
    }

    /// `n` partials of this state for workers to fold one main-store piece
    /// `table` into; [`AggState::gather`] takes them back. A group-join's
    /// are dense over every group of its build, so they are made once,
    /// kept across pieces and merged only at finish.
    pub fn partials(&mut self, table: &Table, n: usize) -> Vec<AggState<'a>> {
        (0..n)
            .map(|_| {
                let repr = match (&self.repr, self.parked.pop()) {
                    (Repr::Dense(_), Some(dense)) => Repr::Dense(dense),
                    _ => AggState::new(table, self.spec, self.group_by, self.aggs).repr,
                };
                AggState {
                    repr,
                    base: self.base,
                    parked: Vec::new(),
                    ..*self
                }
            })
            .collect()
    }

    /// Take back the [`partials`](AggState::partials) of a piece: a
    /// group-join's are parked for the next piece, any other merged in.
    pub fn gather(&mut self, partials: impl IntoIterator<Item = AggState<'a>>) {
        for partial in partials {
            match partial.repr {
                Repr::Dense(dense) => self.parked.push(dense),
                _ => self.merge(partial),
            }
        }
    }

    /// Fold `other`, a partial of the same pipeline over other rows, into
    /// `self` via [`Accumulator::merge`]. Which rows each side saw, and in
    /// what order states merge, does not change the result.
    pub fn merge(&mut self, other: AggState<'_>) {
        let theirs = group_join(other.spec.steps);
        match (&mut self.repr, other.repr) {
            (
                Repr::Fig2c { hits, sums, .. },
                Repr::Fig2c {
                    hits: h, sums: s, ..
                },
            ) => {
                *hits += h;
                for (mine, theirs) in sums.iter_mut().zip(s) {
                    *mine += theirs;
                }
            }
            (Repr::Scalar(a), Repr::Scalar(b)) => merge_accs(a, &b),
            (Repr::Raw { groups: a, .. }, Repr::Raw { groups: b, .. }) => merge_groups(a, b),
            (Repr::Keyed(a), Repr::Keyed(b)) => merge_groups(a, b),
            (Repr::Dense(a), Repr::Dense(b)) => {
                // Ordinals mean something only within one build.
                let mine = group_join(self.spec.steps);
                assert!(
                    matches!((mine, theirs), (Some(x), Some(y)) if std::ptr::eq(x, y)),
                    "group-join partials merge over the one build they share"
                );
                let k = self.aggs.len();
                for dense in std::iter::once(b).chain(other.parked) {
                    a.merge(dense, k);
                }
            }
            _ => unreachable!("partials of one pipeline share a representation"),
        }
    }

    /// The result rows: one per group (in hash order — group order is not
    /// part of any engine's contract), or the single global row.
    pub fn finish(self) -> Vec<Vec<Value>> {
        match self.repr {
            Repr::Fig2c { hits, sums, .. } => vec![sums
                .into_iter()
                .map(|s| {
                    if hits == 0 {
                        Value::Null
                    } else {
                        Value::Int64(s)
                    }
                })
                .collect()],
            Repr::Scalar(accs) => vec![finish_accs(&accs).collect()],
            Repr::Raw { groups, .. } => groups
                .into_values()
                .map(|(key, accs)| std::iter::once(key).chain(finish_accs(&accs)).collect())
                .collect(),
            Repr::Dense(mut dense) => {
                let k = self.aggs.len();
                for parked in self.parked {
                    dense.merge(parked, k);
                }
                dense.finish(
                    group_join(self.spec.steps).expect("a dense state ends in a group-join"),
                    self.group_by.is_empty(),
                    k,
                )
            }
            Repr::Keyed(groups) => finish_keyed(groups, self.group_by, self.aggs),
        }
    }
}

fn finish_accs(accs: &[Accumulator]) -> impl Iterator<Item = Value> + '_ {
    accs.iter().map(|a| a.finish())
}

fn finish_keyed(groups: KeyedGroups, group_by: &[Expr], aggs: &[AggExpr]) -> Vec<Vec<Value>> {
    // A global aggregate over no rows still answers with one row.
    if groups.is_empty() && group_by.is_empty() {
        return vec![finish_accs(&fresh(aggs)).collect()];
    }
    groups
        .into_values()
        .map(|(mut key, accs)| {
            key.extend(finish_accs(&accs));
            key
        })
        .collect()
}

/// The row-at-a-time Fig.-2c loop, for strided columns and tombstoned
/// regions (the pre-SIMD kernel, kept verbatim as the fallback).
#[allow(clippy::too_many_arguments)]
fn fig2c_scan_rows(
    pr: &I32Col<'_>,
    op: CmpOp,
    pv: i64,
    readers: &[I32Col<'_>],
    dead: &[bool],
    range: Range<usize>,
    sums: &mut [i64],
    hits: &mut u64,
) {
    let mut hit = |i: usize| {
        *hits += 1;
        for (s, r) in sums.iter_mut().zip(readers.iter()) {
            *s += r.get(i) as i64;
        }
    };
    match op {
        CmpOp::Eq => {
            for i in range {
                if (dead.is_empty() || !dead[i]) && pr.get(i) as i64 == pv {
                    hit(i);
                }
            }
        }
        _ => {
            for i in range {
                if (dead.is_empty() || !dead[i]) && op.matches((pr.get(i) as i64).cmp(&pv)) {
                    hit(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::{ColumnDef, Schema};

    fn table(n: usize) -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int32),
            ]),
        );
        for i in 0..n {
            t.insert(&[Value::Int32(i as i32), Value::Int32((i % 7) as i32)])
                .unwrap();
        }
        t
    }

    /// Ranges that split zone blocks (morsels do) must never touch a
    /// refuted block, must dispense every row of the others exactly once,
    /// and must tally each block once across the ranges.
    #[test]
    fn split_ranges_skip_refuted_blocks_and_tally_each_block_once() {
        const N: usize = 10_000;
        let t = table(N);
        // a >= 9000: only the last two 1024-row blocks can hold matches.
        let preds = [Expr::col(0).ge(Expr::lit(9_000))];
        let scan = Scan::new(
            &t,
            PipeSpec {
                preds: &preds,
                steps: &[],
                needed: &[0],
            },
        );
        let mut tally = Tally::default();
        let mut visited = Vec::new();
        for range in [0..1_500, 1_500..1_501, 1_501..9_300, 9_300..N] {
            scan.blocks(range, &mut tally, |bs, be, _| visited.push((bs, be)));
        }
        assert_eq!(visited, vec![(8_192, 9_216), (9_216, 9_300), (9_300, N)]);
        assert_eq!(
            (tally.scanned, tally.pruned),
            (2, N.div_ceil(ZONE_BLOCK_ROWS) as u64 - 2)
        );

        let mut survivors = Vec::new();
        for range in [0..4_000, 4_000..9_100, 9_100..N] {
            scan.survivors(&[], Walk::Range(range), &mut tally, |i| survivors.push(i));
        }
        assert_eq!(survivors, (9_000..N).collect::<Vec<_>>());
    }

    /// The row-id sink predicate DML matches with: over ranges that split
    /// a zone block it yields every unrefuted, untombstoned, passing row
    /// exactly once, strictly ascending, offset by `base` — and the walk
    /// underneath it enters only the blocks the zone map cannot refute.
    #[test]
    fn id_sink_is_ascending_honours_dead_and_skips_refuted_blocks() {
        const N: usize = 10_000;
        let t = table(N);
        // 9000 <= a AND b = 3: only the last two blocks can hold matches.
        let preds = [
            Expr::col(0).ge(Expr::lit(9_000)),
            Expr::col(1).eq(Expr::lit(3)),
        ];
        let scan = Scan::new(
            &t,
            PipeSpec {
                preds: &preds,
                steps: &[],
                needed: &[],
            },
        );
        let mut dead = vec![false; N];
        let tombstoned = [9_005, 9_215, 9_216, N - 1];
        for i in tombstoned {
            dead[i] = true;
        }
        let expected: Vec<usize> = (9_000..N)
            .filter(|i| i % 7 == 3 && !tombstoned.contains(i))
            .collect();
        assert!(tombstoned.iter().filter(|i| *i % 7 == 3).count() >= 2);

        let ranges = [0..1_500, 1_500..9_100, 9_100..9_217, 9_217..N];
        let mut tally = Tally::default();
        let mut walked = Vec::new();
        for range in ranges.clone() {
            scan.survivors(&dead, Walk::Range(range), &mut tally, |i| walked.push(i));
        }
        assert_eq!(walked, expected);
        assert_eq!(
            (tally.scanned, tally.pruned),
            (2, N.div_ceil(ZONE_BLOCK_ROWS) as u64 - 2),
            "refuted blocks are counted, never entered"
        );

        let mut ids = Vec::new();
        for range in ranges {
            scan.collect_ids(&dead, range, 50_000, &mut ids);
        }
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        let offset: Vec<usize> = expected.iter().map(|i| i + 50_000).collect();
        assert_eq!(ids, offset);
        // No tombstones, no predicate: every row, once.
        let all = Scan::new(
            &t,
            PipeSpec {
                preds: &[],
                steps: &[],
                needed: &[],
            },
        );
        let mut ids = Vec::new();
        all.collect_ids(&[], 0..N, 0, &mut ids);
        assert_eq!(ids, (0..N).collect::<Vec<_>>());
    }

    /// `CH-Q10`'s shape: `CUSTOMER ⋈ ORDERS ⋈ ORDER_LINE` under a `WHERE`
    /// with an `ORDERS` conjunct, an `ORDER_LINE` one, a spanning one and
    /// a column-free one.
    #[test]
    fn conjuncts_move_to_the_scan_whose_columns_they_read() {
        let width = |t: &str| match t {
            "C" => 18,
            "O" => 8,
            _ => 10,
        };
        let (cw, ow) = (18, 8);
        let scan = |t: &str| LogicalPlan::Scan {
            table: t.to_string(),
        };
        let join = |left, right, lk, rk| LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            left_key: Expr::col(lk),
            right_key: Expr::col(rk),
        };
        let o_entry = Expr::col(cw + 4).ge(Expr::lit(20_230_800));
        let ol_amount = Expr::col(cw + ow + 8).gt(Expr::lit(1.5));
        let spanning = Expr::col(0).lt(Expr::col(cw + ow + 2));
        let constant = Expr::lit(1).eq(Expr::lit(1));
        let plan = LogicalPlan::Select {
            input: Box::new(join(join(scan("C"), scan("O"), 0, 3), scan("OL"), cw, 0)),
            pred: o_entry
                .clone()
                .and(spanning.clone())
                .and(ol_amount)
                .and(constant.clone()),
            sel_hint: Some(0.5),
        };
        let select = |input, pred| LogicalPlan::Select {
            input: Box::new(input),
            pred,
            sel_hint: None,
        };
        let pushed = join(
            join(
                scan("C"),
                select(scan("O"), Expr::col(4).ge(Expr::lit(20_230_800))),
                0,
                3,
            ),
            select(scan("OL"), Expr::col(8).gt(Expr::lit(1.5))),
            cw,
            0,
        );
        assert_eq!(
            push_filters(plan, &width),
            LogicalPlan::Select {
                input: Box::new(pushed),
                pred: spanning.and(constant),
                sel_hint: Some(0.5),
            }
        );
    }

    /// Top-N equals a stable sort then a cut, ties included, for every
    /// limit; a full sort is a stable sort.
    #[test]
    fn top_n_is_a_stable_sort_cut() {
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|i| {
                let k = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int32(i % 4)
                };
                vec![k, Value::Int32(i)]
            })
            .collect();
        let keys = [SortKey {
            expr: Expr::col(0),
            asc: false,
        }];
        let mut stable = rows.clone();
        stable.sort_by(|a, b| cmp_values(&a[0], &b[0]).reverse());
        assert_eq!(sorted(rows.clone(), &keys, None), stable);
        for n in [0, 1, 7, 50, 199, 200, 500] {
            let cut = &stable[..n.min(stable.len())];
            assert_eq!(sorted(rows.clone(), &keys, Some(n)), cut, "n={n}");
        }
    }

    /// Build rows of one key sit together, in input order; NULL keys drop;
    /// only kept columns are stored, the rest read as NULL.
    #[test]
    fn build_side_groups_keys_in_input_order_and_keeps_only_read_columns() {
        let mut rows = BuildRows::new(2);
        for (k, s) in [(1, "a"), (2, "b"), (1, "c"), (0, "d"), (2, "e")] {
            let k = if k == 0 { Value::Null } else { Value::Int64(k) };
            rows.values([k, Value::from(s)].into_iter());
        }
        let join = HashJoin::build(rows, 3, &[1], Expr::col(0), None);
        assert!(matches!(join.index, BuildIndex::Int(_)));
        assert_eq!(join.stride, 2);
        let mut buf = Vec::new();
        let matches = |key: KeyRef<'_>, buf: &mut Vec<u8>| -> Vec<Vec<Value>> {
            join.lookup(key, buf)
                .map(|m| join.view(m, &[Value::Null]).values().collect())
                .collect()
        };
        let row = |s: &str| vec![Value::Null, Value::from(s), Value::Null, Value::Null];
        // Int32 and Int64 keys join; the probe's own column comes last.
        assert_eq!(
            matches(KeyRef::Val(&Value::Int32(1)), &mut buf),
            vec![row("a"), row("c")]
        );
        assert_eq!(matches(KeyRef::Int(2), &mut buf), vec![row("b"), row("e")]);
        assert!(matches(KeyRef::Val(&Value::Null), &mut buf).is_empty());
        assert!(matches(KeyRef::Str("1"), &mut buf).is_empty());
        assert!(matches(KeyRef::Val(&Value::Float64(1.0)), &mut buf).is_empty());
    }

    /// A group-join build of `(key, group)` rows, grouped by its column 1.
    fn grouped_build(rows: &[(i64, &str)]) -> HashJoin {
        let mut build = BuildRows::new(2);
        for &(k, g) in rows {
            build.values([Value::Int64(k), Value::from(g)].into_iter());
        }
        HashJoin::build(build, 2, &[1], Expr::col(0), Some(&[1]))
    }

    /// `count(*)` per build group of the probe keys `keys`, folded through
    /// the group-join sink of `steps`, then `merge`d with `other`'s.
    fn group_counts(steps: &[Step], keys: &[i64], other: Option<&[Step]>) -> Vec<Vec<Value>> {
        let (group_by, aggs) = ([Expr::col(1)], [AggExpr::count_star()]);
        let fold = |steps| {
            let spec = PipeSpec {
                steps,
                ..PipeSpec::default()
            };
            let mut state = AggState::keyed(spec, &group_by, &aggs);
            assert!(matches!(state.repr, Repr::Dense(_)));
            let rows = keys.iter().map(|&k| vec![Value::Int64(k)]).collect();
            push_rows(rows, steps, &mut state.sink(None));
            state
        };
        let mut state = fold(steps);
        if let Some(other) = other {
            state.merge(fold(other));
        }
        let mut rows = state.finish();
        rows.sort_by_key(|r| format!("{r:?}"));
        rows
    }

    /// Group ordinals belong to one build: partials merge index by index
    /// only over the build they share. Two builds of the same rows in
    /// another order number their groups the other way round, so merging
    /// their partials by position would swap the groups' counts.
    #[test]
    #[should_panic(expected = "the one build they share")]
    fn group_join_partials_of_different_builds_do_not_merge() {
        let one = [Step::Probe(grouped_build(&[(1, "x"), (2, "y"), (3, "x")]))];
        let other = [Step::Probe(grouped_build(&[(2, "y"), (1, "x"), (3, "x")]))];
        let count = |g: &str, n: i64| vec![Value::from(g), Value::Int64(n)];
        // Alone, and merged with a partial of the same build: exact.
        assert_eq!(
            group_counts(&one, &[1, 2, 2, 9], None),
            vec![count("x", 1), count("y", 2)]
        );
        assert_eq!(
            group_counts(&one, &[1, 2, 2, 9], Some(&one)),
            vec![count("x", 2), count("y", 4)]
        );
        group_counts(&one, &[1, 2, 2], Some(&other));
    }

    /// A group is labelled by its first match over every piece and worker
    /// partial: the `-0.0` row matched in the first piece, not the `+0.0`
    /// row at the earlier match position matched in the second piece by
    /// another partial.
    #[test]
    fn group_join_labels_by_the_first_match_across_pieces_and_partials() {
        let mut build = BuildRows::new(2);
        for (k, f) in [(1, 0.0), (2, -0.0)] {
            build.values([Value::Int64(k), Value::Float64(f)].into_iter());
        }
        let steps = [Step::Probe(HashJoin::build(
            build,
            2,
            &[1],
            Expr::col(0),
            Some(&[1]),
        ))];
        let spec = PipeSpec {
            preds: &[],
            steps: &steps,
            needed: &[0],
        };
        let (group_by, aggs) = ([Expr::col(1)], [AggExpr::count_star()]);
        let mut state = AggState::keyed(spec, &group_by, &aggs);
        for (base, key) in [(0, 2), (1, 1)] {
            let mut piece =
                Table::new("p", Schema::new(vec![ColumnDef::new("k", DataType::Int32)]));
            piece.insert(&[Value::Int32(key)]).unwrap();
            state.base = base;
            // The partial at index 1 is a different one each piece.
            let mut partials = state.partials(&piece, 2);
            partials[1].fold_range(&Scan::new(&piece, spec), &[], 0..1);
            state.gather(partials);
        }
        let rows = state.finish();
        assert_eq!(rows.len(), 1);
        assert!(matches!(rows[0][0], Value::Float64(f) if f.to_bits() == (-0.0f64).to_bits()));
        assert_eq!(rows[0][1], Value::Int64(2));
    }

    #[test]
    fn tail_only_string_groups_join_their_main_group_or_get_a_fresh_one() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("s", DataType::Str),
                ColumnDef::new("v", DataType::Int32),
            ]),
        );
        for i in 0..10 {
            t.insert(&[Value::Str(format!("k{}", i % 2)), Value::Int32(i)])
                .unwrap();
        }
        let tail = [
            Arc::new(pdsm_storage::Row(vec![
                Value::from("k1"),
                Value::Int32(100),
            ])),
            Arc::new(pdsm_storage::Row(vec![Value::from("new"), Value::Int32(7)])),
            Arc::new(pdsm_storage::Row(vec![Value::from("new"), Value::Int32(8)])),
        ];
        let overlay = Overlay {
            dead: &[],
            tail: &tail,
            tail_alive: &[],
        };
        let (group_by, aggs) = ([Expr::col(0)], [AggExpr::new(AggFunc::Sum, Expr::col(1))]);
        let spec = PipeSpec {
            preds: &[],
            steps: &[],
            needed: &[0, 1],
        };
        let mut state = AggState::new(&t, spec, &group_by, &aggs);
        assert!(matches!(state.repr, Repr::Raw { .. }));
        state.fold_range(&Scan::new(&t, spec), &[], 0..t.len());
        state.fold_tail(&overlay);
        let mut rows = state.finish();
        rows.sort_by_key(|r| format!("{r:?}"));
        assert_eq!(
            rows,
            vec![
                vec![Value::from("k0"), Value::Int64(20)],
                vec![Value::from("k1"), Value::Int64(125)],
                vec![Value::from("new"), Value::Int64(15)],
            ]
        );
    }
}
