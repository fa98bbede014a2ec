//! The engine abstraction and shared aggregate semantics.

use crate::result::QueryOutput;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggFunc, LogicalPlan};
use pdsm_storage::row::Row;
use pdsm_storage::types::cmp_values;
use pdsm_storage::{ColId, Table, Value, ZonePred};

/// A snapshot visibility overlay over one table: tombstones on the
/// read-optimized main store plus an append-only tail of decoded rows.
///
/// This is how the versioned write path (`pdsm-txn`) presents in-flight
/// changes to the engines: a scan of a table with an overlay must produce
/// `main − tombstones` (in main order) followed by the live tail rows (in
/// append order) — exactly the rows a merged-then-scanned table would yield,
/// in the same order. Tail rows hold *decoded* values (strings, not
/// dictionary codes), because delta strings may not be interned in the main
/// store's dictionaries until merge.
#[derive(Clone, Copy)]
pub struct Overlay<'a> {
    /// `dead[i] == true` → main row `i` is tombstoned (deleted or
    /// superseded). An empty slice means no main row is tombstoned.
    pub dead: &'a [bool],
    /// Rows appended after the main store, full schema width, decoded.
    pub tail: &'a [Row],
    /// Liveness of tail rows (tail rows can themselves be tombstoned by a
    /// later delete). An empty slice means every tail row is live.
    pub tail_alive: &'a [bool],
}

impl<'a> Overlay<'a> {
    /// The tombstone mask of an optional overlay (empty = no tombstones).
    pub fn dead_of(overlay: &Option<Overlay<'a>>) -> &'a [bool] {
        overlay.as_ref().map(|o| o.dead).unwrap_or(&[])
    }

    /// Is main row `i` tombstoned?
    #[inline(always)]
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead.get(i).copied().unwrap_or(false)
    }

    /// The live tail rows with their tail ordinals, in append order.
    pub fn live_tail_indexed(&self) -> impl Iterator<Item = (usize, &'a Row)> + 'a {
        let alive = self.tail_alive;
        self.tail
            .iter()
            .enumerate()
            .filter(move |(k, _)| alive.is_empty() || alive[*k])
    }

    /// The live tail rows, in append order.
    pub fn live_tail(&self) -> impl Iterator<Item = &'a Row> + 'a {
        self.live_tail_indexed().map(|(_, r)| r)
    }
}

/// Evaluate a scan's predicate conjuncts against a decoded tail row.
/// Engines use this in place of their typed kernels for the tail portion:
/// kernels are bound to main-store partition readers and dictionary codes,
/// which tail rows do not have.
pub fn tail_row_passes(preds: &[Expr], row: &Row) -> bool {
    preds.iter().all(|p| p.eval_bool(row.values()))
}

/// Materialize a tail row the way engines materialize main rows: only the
/// `needed` columns populated, every other position NULL. Keeping the two
/// paths identical is what makes overlay scans byte-compatible with scans
/// of a merged table.
pub fn masked_tail_row(row: &Row, needed: &[ColId], width: usize) -> Vec<Value> {
    let mut out = vec![Value::Null; width];
    for &c in needed {
        if let Some(v) = row.values().get(c) {
            out[c] = v.clone();
        }
    }
    out
}

/// What [`TableProvider::for_each_piece`] calls on each main-store piece,
/// with the piece's slice of the tombstone mask.
pub type PieceVisitor<'v> = dyn FnMut(&Table, &[bool]) -> Result<(), ExecError> + 'v;

/// Resolves table names to storage. Implemented by `pdsm-core`'s
/// statement view, by `pdsm-txn`'s snapshots and by plain maps in tests.
pub trait TableProvider {
    /// The table called `name`, if present, resident: a provider over a
    /// cold main store makes it resident here. The Volcano oracle and the
    /// `pdsm-bench` baselines read tables this way; the pipeline core
    /// reads [`TableProvider::shape`] and [`TableProvider::for_each_piece`].
    fn table(&self, name: &str) -> Option<&Table>;

    /// The visibility overlay of `name`, if the provider is versioned and
    /// the table has pending changes. The default (plain, unversioned
    /// providers) is `None`: the main store is the whole truth.
    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        let _ = name;
        None
    }

    /// A table carrying `name`'s name, schema, layout and dictionaries,
    /// for reading column metadata without touching a row. The default is
    /// [`TableProvider::table`]; a provider over cold mains returns a
    /// zero-row skeleton.
    fn shape(&self, name: &str) -> Option<&Table> {
        self.table(name)
    }

    /// Visit `name`'s main store in row order as `(table, dead)` pieces,
    /// `dead` being that piece's slice of the overlay's tombstone mask
    /// (empty = none). A piece the zone predicates `zps` refute may be
    /// skipped: callers pass only conjuncts of the scan's own predicate.
    /// The default visits [`TableProvider::table`] once; a provider over
    /// cold mains visits one pinned extent at a time, and a fault that
    /// cannot read an extent is [`ExecError::Storage`].
    fn for_each_piece(
        &self,
        name: &str,
        zps: &[ZonePred],
        visit: &mut PieceVisitor<'_>,
    ) -> Result<(), ExecError> {
        let _ = zps;
        let t = self
            .table(name)
            .ok_or_else(|| ExecError::UnknownTable(name.to_string()))?;
        visit(t, Overlay::dead_of(&self.overlay(name)))
    }
}

impl TableProvider for std::collections::HashMap<String, Table> {
    fn table(&self, name: &str) -> Option<&Table> {
        self.get(name)
    }
}

/// Execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Referenced table is missing from the provider.
    UnknownTable(String),
    /// Plan feature not supported by this engine.
    Unsupported(String),
    /// A main-store piece could not be read (an extent fault failed).
    Storage(pdsm_storage::Error),
}

impl From<pdsm_storage::Error> for ExecError {
    fn from(e: pdsm_storage::Error) -> Self {
        ExecError::Storage(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            ExecError::Unsupported(m) => write!(f, "unsupported plan: {m}"),
            ExecError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// A query execution engine.
pub trait Engine {
    /// Engine name for reports ("volcano", "compiled", "parallel"; the
    /// `pdsm-bench` baselines add "bulk" and "vectorized").
    fn name(&self) -> &'static str;

    /// Execute `plan` against `db`, materializing the full result.
    fn execute(&self, plan: &LogicalPlan, db: &dyn TableProvider)
        -> Result<QueryOutput, ExecError>;
}

pub use crate::compiled::CompiledEngine;
pub use crate::volcano::VolcanoEngine;

/// One aggregate's running state. All engines use this accumulator so that
/// NULL handling and result typing agree exactly:
/// `count → Int64` (never NULL), `sum(int) → Int64`, `sum(float) → Float64`,
/// `avg → Float64`, `min/max(int) → Int64`, `min/max` of floats and strings
/// keep the input type; NULL inputs are skipped;
/// empty input yields NULL for everything but count.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    saw_float: bool,
    extreme: Option<Value>,
}

impl Accumulator {
    /// Fresh state for `func`.
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            extreme: None,
        }
    }

    /// Fold one input value (use `Value::Int32(1)` per row for `count(*)`).
    pub fn update(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Float64(f) => {
                    self.saw_float = true;
                    self.sum_f += f;
                }
                _ => {
                    let x = v.as_i64().unwrap_or(0);
                    self.sum_i += x;
                    self.sum_f += x as f64;
                }
            },
            // Integers widen to Int64 exactly as the typed fast paths do,
            // so an extreme's type never depends on which engine, path or
            // partial (main rows vs. decoded tail) happened to supply it.
            AggFunc::Min | AggFunc::Max => match v {
                Value::Int32(_) | Value::Int64(_) => {
                    self.update_extreme_i64(v.as_i64().expect("integer"))
                }
                _ => self.update_extreme(v.clone()),
            },
        }
    }

    /// Typed fast paths used by the compiled engine's kernels (no `Value`
    /// construction per row).
    #[inline(always)]
    pub fn update_i64(&mut self, x: i64) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum_i += x;
                self.sum_f += x as f64;
            }
            AggFunc::Min | AggFunc::Max => self.update_extreme_i64(x),
        }
    }

    /// Typed fast path for floats.
    #[inline(always)]
    pub fn update_f64(&mut self, x: f64) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.saw_float = true;
                self.sum_f += x;
            }
            AggFunc::Min | AggFunc::Max => self.update_extreme(Value::Float64(x)),
        }
    }

    /// Keep `v` if it strictly beats the current extreme (earlier inputs
    /// keep ties).
    fn update_extreme(&mut self, v: Value) {
        let replace = match &self.extreme {
            None => true,
            Some(m) if self.func == AggFunc::Min => cmp_values(&v, m).is_lt(),
            Some(m) => cmp_values(&v, m).is_gt(),
        };
        if replace {
            self.extreme = Some(v);
        }
    }

    #[inline]
    fn update_extreme_i64(&mut self, x: i64) {
        let keep = match &self.extreme {
            None => true,
            Some(m) => {
                let cur = m.as_i64().unwrap_or(i64::MAX);
                if self.func == AggFunc::Min {
                    x < cur
                } else {
                    x > cur
                }
            }
        };
        if keep {
            self.extreme = Some(Value::Int64(x));
        }
    }

    /// Fold another accumulator's state into this one, as if every input
    /// `other` saw had been fed to `self` *after* `self`'s own inputs.
    /// This is the merge step of parallel aggregation: workers accumulate
    /// thread-locally and partials are merged at the pipeline barrier.
    /// Merging partials built over a partitioning of the input in partition
    /// order is equivalent to the sequential fold for count/sum(int)/min/max;
    /// float sums may differ in the last ulps (addition is reassociated),
    /// which is why `pdsm-par` runs float-sensitive aggregates as an
    /// ordered collect folded in scan order instead of merging partials.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func, "merging mismatched aggregates");
        self.count += other.count;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum_i += other.sum_i;
                self.sum_f += other.sum_f;
                self.saw_float |= other.saw_float;
            }
            AggFunc::Min | AggFunc::Max => {
                if let Some(theirs) = &other.extreme {
                    self.update_extreme(theirs.clone());
                }
            }
        }
    }

    /// Final value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int64(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float64(self.sum_f)
                } else {
                    Value::Int64(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float64(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_ignores_nulls_via_arg_but_counts_rows_via_star() {
        let mut c = Accumulator::new(AggFunc::Count);
        c.update(&Value::Int32(1));
        c.update(&Value::Null);
        c.update(&Value::Int32(5));
        assert_eq!(c.finish(), Value::Int64(2));
    }

    #[test]
    fn sum_types() {
        let mut s = Accumulator::new(AggFunc::Sum);
        s.update(&Value::Int32(3));
        s.update(&Value::Int64(4));
        assert_eq!(s.finish(), Value::Int64(7));
        let mut s = Accumulator::new(AggFunc::Sum);
        s.update(&Value::Int32(1));
        s.update(&Value::Float64(0.5));
        assert_eq!(s.finish(), Value::Float64(1.5));
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Null);
    }

    #[test]
    fn avg_and_extremes() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::Int32(1));
        a.update(&Value::Int32(2));
        assert_eq!(a.finish(), Value::Float64(1.5));
        let mut m = Accumulator::new(AggFunc::Min);
        m.update(&Value::from("b"));
        m.update(&Value::from("a"));
        assert_eq!(m.finish(), Value::Str("a".into()));
        let mut m = Accumulator::new(AggFunc::Max);
        m.update(&Value::Int32(-5));
        m.update(&Value::Null);
        assert_eq!(m.finish(), Value::Int64(-5));
    }

    #[test]
    fn typed_fast_paths_agree_with_dynamic() {
        let mut a = Accumulator::new(AggFunc::Sum);
        let mut b = Accumulator::new(AggFunc::Sum);
        for i in 0..100i64 {
            a.update(&Value::Int64(i));
            b.update_i64(i);
        }
        assert_eq!(a.finish(), b.finish());
        let mut a = Accumulator::new(AggFunc::Min);
        let mut b = Accumulator::new(AggFunc::Min);
        for x in [3.0f64, -1.5, 9.0] {
            a.update(&Value::Float64(x));
            b.update_f64(x);
        }
        assert_eq!(a.finish(), b.finish());
    }
}
