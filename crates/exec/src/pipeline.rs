//! The pipeline core: one plan lowering, one survivor loop, one mergeable
//! aggregate state.
//!
//! The paper's engine argument (Fig. 2c / Fig. 3) is that a query is *one*
//! fused pipeline; running it on several cores or over paged-in extents
//! only changes how the pipeline is walked over row ranges. This module
//! owns everything that does not depend on the walk:
//!
//! * [`execute`] lowers a plan into open scan pipelines ([`Pipe`]: kernel
//!   conjuncts plus a [`Step`] chain), materializes pipeline breakers and
//!   walks every open pipeline over its table's main store **piece by
//!   piece** ([`TableProvider::for_each_piece`]: a resident table is one
//!   piece, a cold one is one pinned extent per piece, zone-refuted
//!   extents skipped), then over the delta tail — once, here;
//! * [`Scan`] is the survivor loop — zone refutation → tombstone mask →
//!   [`PredKernel::block_mask`] → survivors — over an arbitrary row range
//!   of one bound table;
//! * [`AggState`] is the partial aggregate: `fold_range`, `fold_rows`,
//!   `fold_tail`, `merge`, `finish`. One state is carried across the
//!   pieces, so running sums, not finished values, cross extent
//!   boundaries and a cold scan is bit-identical to a resident one.
//!
//! Two [`PipeDriver`]s walk one piece. The compiled engine folds `0..n`
//! into the carried state; `pdsm-par` hands every worker its own state (or
//! per-morsel row buffer) and merges in worker order. Drivers are called
//! per block, morsel or piece — never per row; the per-row loops below
//! are monomorphic.

use crate::compiled::{compile_pred, zone_preds, PredKernel};
use crate::engine::{
    masked_tail_row, tail_row_passes, Accumulator, ExecError, Overlay, TableProvider,
};
use crate::keys::GroupKey;
use crate::simd;
use pdsm_plan::expr::{conjuncts, CmpOp, Expr};
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::types::cmp_values;
use pdsm_storage::{
    ColId, DataType, Dictionary, F64Col, I32Col, I64Col, Table, U32Col, Value, ZoneMap, ZonePred,
    ZONE_BLOCK_ROWS,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// lowering
// ---------------------------------------------------------------------------

/// Steps applied to rows that survive the scan predicates.
pub enum Step {
    /// Replace the row with the projected expressions.
    Project(Vec<Expr>),
    /// Probe a build-side hash table; fan out to `build_row ++ row`.
    Probe {
        ht: HashMap<GroupKey, Vec<Vec<Value>>>,
        key: Expr,
    },
    /// Post-join filter (interpreted; rare in the workloads).
    Filter(Expr),
}

/// An open scan pipeline: kernel conjuncts over `table`, then `steps`.
pub struct Pipe {
    pub table: String,
    pub preds: Vec<Expr>,
    pub steps: Vec<Step>,
}

impl Pipe {
    /// The bare scan of `table`.
    pub fn scan(table: &str) -> Pipe {
        Pipe {
            table: table.to_string(),
            preds: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Add a selection: kernel conjuncts while the pipe has no steps (the
    /// predicate's columns are still scan columns), a residual filter
    /// step afterwards.
    pub fn select(&mut self, pred: &Expr) {
        if self.steps.is_empty() {
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

/// A lowered query fragment: either an open scan pipeline or materialized
/// rows (output of a pipeline breaker).
enum Fragment {
    Pipe(Pipe),
    Rows(Vec<Vec<Value>>),
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
/// table, or one pinned extent of a cold one. The two operations are the
/// two sinks a pipeline can end in; the walk over the pieces and the delta
/// tail belong to [`execute`], and everything else about a query is
/// driver-agnostic.
pub trait PipeDriver {
    /// Append the rows the pipeline emits for `table`'s rows minus `dead`,
    /// in row order.
    fn collect(&self, table: &Table, dead: &[bool], spec: PipeSpec<'_>, out: &mut Vec<Vec<Value>>);

    /// The state an aggregate over the pipeline carries across the
    /// pieces; `shape` supplies the schema. The default is
    /// [`AggState::new`].
    fn open<'a>(
        &self,
        shape: &Table,
        spec: PipeSpec<'a>,
        group_by: &'a [Expr],
        aggs: &'a [AggExpr],
    ) -> AggState<'a> {
        AggState::new(shape, spec, group_by, aggs)
    }

    /// Fold `table`'s rows minus `dead` into `state`, after every row
    /// folded before.
    fn fold(&self, table: &Table, dead: &[bool], state: &mut AggState<'_>);
}

/// Execute `plan` with `driver` walking its pipelines.
pub fn execute(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    driver: &dyn PipeDriver,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let width = |t: &str| db.shape(t).map(|tb| tb.schema().len()).unwrap_or(0);
    let required = plan.required_columns(&width);
    materialize(plan, db, &required, driver)
}

fn materialize(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
    driver: &dyn PipeDriver,
) -> Result<Vec<Vec<Value>>, ExecError> {
    match lower(plan, db, required, driver)? {
        Fragment::Rows(rows) => Ok(rows),
        Fragment::Pipe(pipe) => run(&pipe, db, required, driver, None),
    }
}

/// Walk `pipe` over every main-store piece of its table the scan's zone
/// predicates cannot refute, in row order, then over the live delta tail:
/// collected when `agg` is `None`, else folded into one carried state and
/// finished.
fn run(
    pipe: &Pipe,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
    driver: &dyn PipeDriver,
    agg: Option<(&[Expr], &[AggExpr])>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let name = pipe.table.as_str();
    let shape = db
        .shape(name)
        .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?;
    let needed = required
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.clone())
        .unwrap_or_else(|| (0..shape.schema().len()).collect());
    let spec = PipeSpec {
        preds: &pipe.preds,
        steps: &pipe.steps,
        needed: &needed,
    };
    let zps = zone_preds(shape, spec.preds);
    let overlay = db.overlay(name);
    match agg {
        None => {
            let mut out = Vec::new();
            db.for_each_piece(name, &zps, &mut |t, dead| {
                driver.collect(t, dead, spec, &mut out);
                Ok(())
            })?;
            if let Some(o) = &overlay {
                tail_rows(o, spec, |r| out.push(r));
            }
            Ok(out)
        }
        Some((group_by, aggs)) => {
            let mut state = driver.open(shape, spec, group_by, aggs);
            db.for_each_piece(name, &zps, &mut |t, dead| {
                driver.fold(t, dead, &mut state);
                Ok(())
            })?;
            if let Some(o) = &overlay {
                state.fold_tail(o);
            }
            Ok(state.finish())
        }
    }
}

/// Lower a plan into a fragment, executing pipeline breakers on the way.
fn lower(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
    driver: &dyn PipeDriver,
) -> Result<Fragment, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            db.shape(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            Ok(Fragment::Pipe(Pipe::scan(table)))
        }
        LogicalPlan::Select { input, pred, .. } => Ok(match lower(input, db, required, driver)? {
            Fragment::Pipe(mut pipe) => {
                pipe.select(pred);
                Fragment::Pipe(pipe)
            }
            Fragment::Rows(rows) => Fragment::Rows(
                rows.into_iter()
                    .filter(|r| pred.eval_bool(&r[..]))
                    .collect(),
            ),
        }),
        LogicalPlan::Project { input, exprs } => Ok(match lower(input, db, required, driver)? {
            Fragment::Pipe(mut pipe) => {
                pipe.project(exprs);
                Fragment::Pipe(pipe)
            }
            Fragment::Rows(rows) => Fragment::Rows(
                rows.into_iter()
                    .map(|r| exprs.iter().map(|e| e.eval(&r[..])).collect())
                    .collect(),
            ),
        }),
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rows = match lower(input, db, required, driver)? {
                Fragment::Pipe(pipe) => run(&pipe, db, required, driver, Some((group_by, aggs)))?,
                Fragment::Rows(rows) => {
                    let mut state = AggState::keyed(PipeSpec::default(), group_by, aggs);
                    state.fold_rows(rows);
                    state.finish()
                }
            };
            Ok(Fragment::Rows(rows))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            // Build side is always materialized (pipeline breaker), and
            // the hash table is filled in row order so probe fan-out order
            // is the same under every driver.
            let build_rows = materialize(left, db, required, driver)?;
            let mut ht: HashMap<GroupKey, Vec<Vec<Value>>> = HashMap::new();
            for r in build_rows {
                let k = left_key.eval(&r[..]);
                if k.is_null() {
                    continue;
                }
                ht.entry(GroupKey::single(&k)).or_default().push(r);
            }
            let probe = Step::Probe {
                ht,
                key: right_key.clone(),
            };
            Ok(match lower(right, db, required, driver)? {
                Fragment::Pipe(mut pipe) => {
                    // The probe key is evaluated against the probe-side
                    // row in its base space; the produced row is
                    // build ++ probe, and later steps operate positionally
                    // on that concatenated space.
                    pipe.steps.push(probe);
                    Fragment::Pipe(pipe)
                }
                Fragment::Rows(rows) => {
                    let steps = [probe];
                    let mut out = Vec::new();
                    for r in rows {
                        push_row(r, &steps, &mut |j| out.push(j));
                    }
                    Fragment::Rows(out)
                }
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = materialize(input, db, required, driver)?;
            rows.sort_by(|a, b| {
                for k in keys {
                    let ord = cmp_values(&k.expr.eval(&a[..]), &k.expr.eval(&b[..]));
                    let ord = if k.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Fragment::Rows(rows))
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = materialize(input, db, required, driver)?;
            rows.truncate(*n);
            Ok(Fragment::Rows(rows))
        }
    }
}

/// Push `row` through `steps` into `emit`: NULL probe keys drop the row,
/// probe matches fan out in build-insertion order.
pub fn push_row<F: FnMut(Vec<Value>)>(row: Vec<Value>, steps: &[Step], emit: &mut F) {
    match steps.first() {
        None => emit(row),
        Some(Step::Project(exprs)) => {
            let projected: Vec<Value> = exprs.iter().map(|e| e.eval(&row[..])).collect();
            push_row(projected, &steps[1..], emit);
        }
        Some(Step::Filter(pred)) => {
            if pred.eval_bool(&row[..]) {
                push_row(row, &steps[1..], emit);
            }
        }
        Some(Step::Probe { ht, key }) => {
            let k = key.eval(&row[..]);
            if k.is_null() {
                return;
            }
            if let Some(matches) = ht.get(&GroupKey::single(&k)) {
                for m in matches {
                    let mut joined = m.clone();
                    joined.extend(row.iter().cloned());
                    push_row(joined, &steps[1..], emit);
                }
            }
        }
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

    /// The survivor loop: call `f(i)` for every row of `range` that sits
    /// in an unrefuted block, is not tombstoned in `dead` (empty = no
    /// tombstones) and passes every kernel, in row order.
    fn survivors(
        &self,
        dead: &[bool],
        range: Range<usize>,
        tally: &mut Tally,
        mut f: impl FnMut(usize),
    ) {
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

    /// Survivors materialized column-pruned and pushed through the steps.
    fn rows(
        &self,
        dead: &[bool],
        range: Range<usize>,
        tally: &mut Tally,
        mut emit: impl FnMut(Vec<Value>),
    ) {
        let width = self.table.schema().len();
        self.survivors(dead, range, tally, |i| {
            let mut row = vec![Value::Null; width];
            for &c in self.spec.needed {
                row[c] = self.table.get(i, c).expect("in-range");
            }
            push_row(row, self.spec.steps, &mut emit);
        });
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
        self.survivors(dead, range, &mut tally, |i| out.push(base + i));
        tally.flush();
    }

    /// Append every row the pipeline emits for main-store rows `range`.
    pub fn collect_range(&self, dead: &[bool], range: Range<usize>, out: &mut Vec<Vec<Value>>) {
        let mut tally = Tally::default();
        self.rows(dead, range, &mut tally, |r| out.push(r));
        tally.flush();
    }
}

/// Push the overlay's live tail rows that pass `spec.preds` through the
/// steps into `emit`. Predicates are interpreted: tail rows are decoded,
/// not dictionary-coded, and full schema width.
fn tail_rows(overlay: &Overlay<'_>, spec: PipeSpec<'_>, mut emit: impl FnMut(Vec<Value>)) {
    for r in overlay.live_tail() {
        if tail_row_passes(spec.preds, r) {
            let row = masked_tail_row(r, spec.needed, r.values().len());
            push_row(row, spec.steps, &mut emit);
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
        Some(match &agg.arg {
            None => AggReader::CountStar,
            Some(Expr::Col(c)) => {
                let def = &table.schema().columns()[*c];
                let nc = def.nullable.then_some(*c);
                match def.ty {
                    DataType::Int32 => AggReader::I32(table.i32_reader(*c), nc),
                    DataType::Int64 => AggReader::I64(table.i64_reader(*c), nc),
                    DataType::Float64 => AggReader::F64(table.f64_reader(*c), nc),
                    DataType::Str => return None,
                }
            }
            Some(_) => return None,
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

type RawGroups = HashMap<u64, (Value, Vec<Accumulator>)>;
type KeyedGroups = HashMap<GroupKey, (Vec<Value>, Vec<Accumulator>)>;

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
    /// Everything else: survivors materialize, flow through the steps,
    /// and group by evaluated key expressions.
    Keyed(KeyedGroups),
}

/// The partial aggregate of one pipeline — the unit both drivers share,
/// and the one state [`execute`] carries across a main store's pieces. A
/// state folded over `a..b` and then `b..c` equals one folded over
/// `a..c`; two states folded over adjacent ranges and
/// [`merge`](AggState::merge)d in range order equal it too for counts,
/// integer sums and min/max. Float sums and `avg` accumulate in fold
/// order, so they stay bit-identical to a sequential scan only when one
/// state is carried across the ranges in order — which is why `pdsm-par`
/// folds float-sensitive aggregates as an ordered collect into a
/// [`keyed`](AggState::keyed) state ([`AggState::fold_rows`]) instead of
/// merging per-worker partials.
pub struct AggState<'a> {
    spec: PipeSpec<'a>,
    group_by: &'a [Expr],
    aggs: &'a [AggExpr],
    repr: Repr,
}

fn fresh(aggs: &[AggExpr]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

/// Fold one materialized (post-step) row into keyed groups.
fn consume(groups: &mut KeyedGroups, group_by: &[Expr], aggs: &[AggExpr], row: &[Value]) {
    let key_vals: Vec<Value> = group_by.iter().map(|g| g.eval(row)).collect();
    let entry = groups
        .entry(GroupKey::of(&key_vals))
        .or_insert_with(|| (key_vals, fresh(aggs)));
    update_from_row(aggs, row, &mut entry.1);
}

/// Fold one decoded row into accumulators by evaluating each aggregate's
/// argument against it (`count(*)` counts the row).
fn update_from_row(aggs: &[AggExpr], row: &[Value], accs: &mut [Accumulator]) {
    for (acc, spec) in accs.iter_mut().zip(aggs) {
        match &spec.arg {
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
    into: &mut HashMap<K, (V, Vec<Accumulator>)>,
    from: HashMap<K, (V, Vec<Accumulator>)>,
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
                    groups: HashMap::new(),
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

    /// Empty state that groups by evaluated key expressions — the one that
    /// also folds materialized rows ([`AggState::fold_rows`]).
    pub fn keyed(spec: PipeSpec<'a>, group_by: &'a [Expr], aggs: &'a [AggExpr]) -> Self {
        AggState {
            spec,
            group_by,
            aggs,
            repr: Repr::Keyed(HashMap::new()),
        }
    }

    /// The pipeline and aggregates this state folds: what a driver opens
    /// per-worker partials of the same pipeline from.
    pub fn parts(&self) -> (PipeSpec<'a>, &'a [Expr], &'a [AggExpr]) {
        (self.spec, self.group_by, self.aggs)
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
                scan.survivors(dead, range, &mut tally, |i| {
                    for (acc, rd) in accs.iter_mut().zip(&readers) {
                        rd.update(t, i, acc);
                    }
                });
            }
            Repr::Raw { groups, .. } => {
                let readers = open_readers(t, aggs).expect("shape checked");
                let key = KeyReader::open(t, self.group_by).expect("shape checked");
                scan.survivors(dead, range, &mut tally, |i| {
                    let raw = key.raw(i);
                    let (_, accs) = groups
                        .entry(raw)
                        .or_insert_with(|| (key.decode(raw), fresh(aggs)));
                    for (acc, rd) in accs.iter_mut().zip(&readers) {
                        rd.update(t, i, acc);
                    }
                });
            }
            Repr::Keyed(groups) => {
                let group_by = self.group_by;
                scan.rows(dead, range, &mut tally, |row| {
                    consume(groups, group_by, aggs, &row)
                });
            }
        }
        tally.flush();
    }

    /// Fold the overlay's live tail rows that pass the scan predicates.
    /// The tail comes after every main-store row in scan order, so this is
    /// the last fold — after every [`merge`](AggState::merge).
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
                let mut codes: Option<HashMap<String, u64>> = None;
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
            Repr::Keyed(groups) => {
                let group_by = self.group_by;
                tail_rows(overlay, spec, |row| consume(groups, group_by, aggs, &row));
            }
        }
    }

    /// Fold materialized (post-step) rows in order, after every row folded
    /// before: the sink of an aggregate over a pipeline breaker and of
    /// `pdsm-par`'s ordered collect. Only a [`keyed`](AggState::keyed)
    /// state takes rows.
    pub fn fold_rows(&mut self, rows: Vec<Vec<Value>>) {
        let Repr::Keyed(groups) = &mut self.repr else {
            unreachable!("materialized rows fold into a keyed state");
        };
        for row in rows {
            consume(groups, self.group_by, self.aggs, &row);
        }
    }

    /// Fold `other` — a partial over rows that come *after* this state's
    /// in scan order — into `self`, via [`Accumulator::merge`].
    pub fn merge(&mut self, other: AggState<'_>) {
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
            scan.survivors(&[], range, &mut tally, |i| survivors.push(i));
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
            scan.survivors(&dead, range, &mut tally, |i| walked.push(i));
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
            pdsm_storage::Row(vec![Value::from("k1"), Value::Int32(100)]),
            pdsm_storage::Row(vec![Value::from("new"), Value::Int32(7)]),
            pdsm_storage::Row(vec![Value::from("new"), Value::Int32(8)]),
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
