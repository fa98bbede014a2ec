//! The engine abstraction and shared aggregate semantics.

use crate::result::QueryOutput;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggFunc, LogicalPlan};
use pdsm_storage::row::Row;
use pdsm_storage::types::cmp_values;
use pdsm_storage::{ColId, Table, Value, ZonePred};
use std::borrow::Cow;
use std::sync::Arc;

/// A snapshot visibility overlay over one table: tombstones on the
/// read-optimized main store plus an append-only tail of decoded rows.
///
/// This is how the versioned write path (`pdsm-txn`) presents in-flight
/// changes to the engines: a scan of a table with an overlay must produce
/// `main − tombstones` (in main order) followed by the live tail rows (in
/// append order) — exactly the rows a merged-then-scanned table would yield,
/// in the same order. Tail rows hold *decoded* values (strings, not
/// dictionary codes), because delta strings may not be interned in the main
/// store's dictionaries until merge. Each sits behind its own `Arc`, so a
/// delta copied for a writer shares its rows with every reader's pin.
#[derive(Clone, Copy)]
pub struct Overlay<'a> {
    /// `dead[i] == true` → main row `i` is tombstoned (deleted or
    /// superseded). An empty slice means no main row is tombstoned.
    pub dead: &'a [bool],
    /// Rows appended after the main store, full schema width, decoded.
    pub tail: &'a [Arc<Row>],
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
            .map(|(k, r)| (k, &**r))
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

/// What [`TableProvider::for_each_piece`] calls on each main-store piece:
/// the row id of its first row, the piece, and its slice of the tombstone
/// mask.
pub type PieceVisitor<'v> = dyn FnMut(usize, &Table, &[bool]) -> Result<(), ExecError> + 'v;

/// Resolves table names to storage. Implemented by `pdsm-core`'s
/// statement view, by `pdsm-txn`'s snapshots and by plain maps in tests.
pub trait TableProvider {
    /// A table carrying `name`'s name, schema, layout and dictionaries,
    /// if present, for reading column metadata without touching a row: a
    /// plain provider's whole table, or a zero-row skeleton of a versioned
    /// main store.
    fn shape(&self, name: &str) -> Option<&Table>;

    /// The visibility overlay of `name`, if the provider is versioned and
    /// the table has pending changes. The default (plain, unversioned
    /// providers) is `None`: the main store is the whole truth.
    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        let _ = name;
        None
    }

    /// `name`'s main store as one whole table: borrowed where the provider
    /// holds it resident, else assembled for this one call. Only the
    /// Volcano oracle and the `pdsm-bench` baselines read tables this way;
    /// the pipeline core reads [`TableProvider::shape`] and
    /// [`TableProvider::for_each_piece`]. The default borrows
    /// [`TableProvider::shape`], a plain provider's whole table.
    fn table(&self, name: &str) -> Result<Cow<'_, Table>, ExecError> {
        self.shape(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| ExecError::UnknownTable(name.to_string()))
    }

    /// Visit `name`'s main store in row order as `(first row id, table,
    /// dead)` pieces, `dead` being that piece's slice of the overlay's
    /// tombstone mask (empty = none). A piece the zone predicates `zps`
    /// refute may be skipped: callers pass only conjuncts of the scan's own
    /// predicate. So may a piece that holds none of `rows` (ascending
    /// main-store row ids) when they are given. The default visits
    /// [`TableProvider::table`] once; a provider over cold mains visits one
    /// pinned extent at a time, and a fault that cannot read an extent is
    /// [`ExecError::Storage`].
    fn for_each_piece(
        &self,
        name: &str,
        zps: &[ZonePred],
        rows: Option<&[usize]>,
        visit: &mut PieceVisitor<'_>,
    ) -> Result<(), ExecError> {
        let _ = (zps, rows);
        visit(
            0,
            &*self.table(name)?,
            Overlay::dead_of(&self.overlay(name)),
        )
    }
}

impl TableProvider for std::collections::HashMap<String, Table> {
    fn shape(&self, name: &str) -> Option<&Table> {
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
///
/// The state is **order-free**: whatever order the inputs arrive in, and
/// however they are split into partials and [`merge`](Accumulator::merge)d,
/// [`finish`](Accumulator::finish) returns the same bits. `sum` and `avg`
/// add exactly — integers into an `i128`, floats into an `ExactSum` —
/// and round once at the end: a float `sum` is the correctly rounded exact
/// sum (an exact zero is `+0.0`; NaN and ±inf are what IEEE gives for the
/// exact sum), and `avg` is that rounded sum divided by the count. Float
/// `min`/`max` order by [`f64::total_cmp`], so no two distinct inputs tie.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum_i: i128,
    sum_f: ExactSum,
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
            sum_f: ExactSum::default(),
            saw_float: false,
            extreme: None,
        }
    }

    /// Fold one input value (use `Value::Int32(1)` per row for `count(*)`).
    pub fn update(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Float64(f) => self.update_f64(*f),
            // Integers widen to Int64 exactly as the typed fast paths do,
            // so an extreme's type never depends on which engine, path or
            // partial (main rows vs. decoded tail) happened to supply it.
            Value::Int32(_) | Value::Int64(_) => self.update_i64(v.as_i64().expect("integer")),
            Value::Str(_) => {
                self.count += 1;
                if matches!(self.func, AggFunc::Min | AggFunc::Max) {
                    self.update_extreme(v.clone());
                }
            }
        }
    }

    /// Typed fast paths used by the compiled engine's kernels (no `Value`
    /// construction per row).
    #[inline(always)]
    pub fn update_i64(&mut self, x: i64) {
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum_i += x as i128,
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
                self.sum_f.add(x);
            }
            AggFunc::Min | AggFunc::Max => self.update_extreme(Value::Float64(x)),
        }
    }

    /// Keep `v` if it strictly beats the current extreme. Floats compare
    /// by [`f64::total_cmp`], so only identical inputs tie.
    fn update_extreme(&mut self, v: Value) {
        let replace = match &self.extreme {
            None => true,
            Some(m) => {
                let ord = match (&v, m) {
                    (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
                    _ => cmp_values(&v, m),
                };
                if self.func == AggFunc::Min {
                    ord.is_lt()
                } else {
                    ord.is_gt()
                }
            }
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

    /// Fold another accumulator's state into this one. Merging is exact,
    /// associative and commutative: partials built over any partitioning
    /// of the input, merged in any order, finish to the same bits as one
    /// sequential fold. This is the merge step of parallel aggregation:
    /// workers accumulate thread-locally and partials are merged at the
    /// pipeline barrier.
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func, "merging mismatched aggregates");
        self.count += other.count;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum_i += other.sum_i;
                self.sum_f.merge(&other.sum_f);
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
                    Value::Float64(self.sum_f.round(self.sum_i))
                } else {
                    // Wraps like two's-complement `i64` addition would.
                    Value::Int64(self.sum_i as i64)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float64(self.sum_f.round(self.sum_i) / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.clone().unwrap_or(Value::Null),
        }
    }
}

/// Limbs of an [`ExactSum`]: 32-bit digits covering every finite `f64`
/// (multiples of 2^-1074 below 2^1024, 2098 bits), then a top limb that
/// takes the carries of up to 2^63 inputs.
const LIMBS: usize = 67;
/// Adds between two carry passes: each add moves a limb by less than 2^32,
/// so limbs stay below 2^61 in magnitude between passes and a merge of two
/// unnormalized states cannot overflow.
const CARRY_EVERY: u32 = 1 << 28;
/// Where `2^0` sits, in units of the smallest subnormal.
const ONE_AT: u32 = 1074;

/// The exact sum of a multiset of `f64`s, rounded once on demand — a
/// small superaccumulator (R. M. Neal, "Fast exact summation using small
/// and large superaccumulators", 2015). The sum is kept as an integer in
/// units of 2^-1074, the smallest subnormal, of which every finite `f64`
/// is a multiple: [`LIMBS`] signed limbs of 32-bit digits, each with 31
/// bits of headroom so that an add touches three limbs and never ripples
/// a carry. Addition is exact, so the state is independent of input order
/// and [`ExactSum::merge`] is associative, and no intermediate overflows.
/// NaN and infinities are kept apart as flags. The limbs are allocated on
/// the first nonzero finite input.
#[derive(Debug, Clone, Default)]
struct ExactSum {
    limbs: Option<Box<[i64; LIMBS]>>,
    /// Adds since the last carry pass.
    pending: u32,
    nan: bool,
    pos_inf: bool,
    neg_inf: bool,
}

impl ExactSum {
    /// Add `x` exactly.
    #[inline]
    fn add(&mut self, x: f64) {
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as u32;
        let frac = bits & ((1 << 52) - 1);
        let neg = bits >> 63 != 0;
        match biased {
            0x7ff if frac != 0 => self.nan = true,
            0x7ff if neg => self.neg_inf = true,
            0x7ff => self.pos_inf = true,
            0 => self.add_scaled(frac, 0, neg),
            _ => self.add_scaled(frac | 1 << 52, biased - 1, neg),
        }
    }

    /// Add `±m · 2^p` units, `m < 2^53`, `p ≤ 2045`.
    #[inline]
    fn add_scaled(&mut self, m: u64, p: u32, neg: bool) {
        if m == 0 {
            return;
        }
        let limbs = self.limbs.get_or_insert_with(|| Box::new([0; LIMBS]));
        add_units(limbs, m, p, neg);
        self.pending += 1;
        if self.pending == CARRY_EVERY {
            carry(limbs);
            self.pending = 0;
        }
    }

    /// Add every input `other` has seen, exactly.
    fn merge(&mut self, other: &ExactSum) {
        self.nan |= other.nan;
        self.pos_inf |= other.pos_inf;
        self.neg_inf |= other.neg_inf;
        if let Some(theirs) = &other.limbs {
            let limbs = self.limbs.get_or_insert_with(|| Box::new([0; LIMBS]));
            for (mine, t) in limbs.iter_mut().zip(theirs.iter()) {
                *mine += t;
            }
            carry(limbs);
            self.pending = 0;
        }
    }

    /// The exact sum plus the integer `plus`, rounded to nearest (ties to
    /// even) once.
    fn round(&self, plus: i128) -> f64 {
        match (self.nan, self.pos_inf, self.neg_inf) {
            (true, _, _) | (_, true, true) => return f64::NAN,
            (_, true, _) => return f64::INFINITY,
            (_, _, true) => return f64::NEG_INFINITY,
            _ => {}
        }
        let Some(limbs) = &self.limbs else {
            return plus as f64;
        };
        // A stack copy to round: the state stays as it is.
        let mut limbs: [i64; LIMBS] = **limbs;
        let mag = plus.unsigned_abs();
        for j in 0..4 {
            let digit = (mag >> (32 * j)) as u32 as u64;
            add_units(&mut limbs, digit, ONE_AT + 32 * j, plus < 0);
        }
        carry(&mut limbs);
        let neg = limbs[LIMBS - 1] < 0;
        if neg {
            for limb in limbs.iter_mut() {
                *limb = -*limb;
            }
            carry(&mut limbs);
        }
        let magnitude = round_units(&limbs);
        if neg {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Add `±m · 2^p` units, `m < 2^53`, `p ≤ 2045`, to `limbs`: three limbs
/// move, by less than 2^32 each.
#[inline]
fn add_units(limbs: &mut [i64; LIMBS], m: u64, p: u32, neg: bool) {
    let w = (m as u128) << (p % 32);
    let k = (p / 32) as usize;
    let parts = [w as u32 as i64, (w >> 32) as u32 as i64, (w >> 64) as i64];
    for (limb, part) in limbs[k..k + 3].iter_mut().zip(parts) {
        if neg {
            *limb -= part;
        } else {
            *limb += part;
        }
    }
}

/// Move every limb's excess over its 32-bit digit into the next limb, so
/// all limbs but the top one hold a digit in `0..2^32`.
fn carry(limbs: &mut [i64; LIMBS]) {
    for i in 0..LIMBS - 1 {
        let c = limbs[i] >> 32;
        limbs[i] -= c << 32;
        limbs[i + 1] += c;
    }
}

/// The `f64` nearest (ties to even) to the nonnegative carried integer
/// `limbs`, in units of 2^-1074.
fn round_units(limbs: &[i64; LIMBS]) -> f64 {
    let Some(h) = limbs.iter().rposition(|&l| l != 0) else {
        return 0.0;
    };
    // The top three limbs as one integer, `hi · 2^(32 · base)` units, and
    // whether anything below them is nonzero.
    let base = h.saturating_sub(2);
    let hi = limbs[base..=h]
        .iter()
        .rev()
        .fold(0u128, |acc, &l| (acc << 32) + l as u128);
    let sticky = limbs[..base].iter().any(|&l| l != 0);
    if hi < 1 << 53 {
        // Below 2^53 units (base is 0): a subnormal, or a normal of the
        // lowest binade, whose bit pattern is the unit count itself.
        return f64::from_bits(hi as u64);
    }
    let len = 128 - hi.leading_zeros();
    let shift = len - 53;
    let mut mant = (hi >> shift) as u64;
    let rem = hi & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rem > half || (rem == half && (sticky || mant & 1 == 1)) {
        mant += 1;
    }
    // The most significant bit's position, in units.
    let mut top = 32 * base as u32 + len - 1;
    if mant == 1 << 53 {
        mant >>= 1;
        top += 1;
    }
    let biased = top - 51;
    if biased >= 0x7ff {
        return f64::INFINITY;
    }
    f64::from_bits((biased as u64) << 52 | (mant & ((1 << 52) - 1)))
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

    fn sum_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &x in xs {
            s.add(x);
        }
        s.round(0)
    }

    #[test]
    fn exact_sum_rounds_once() {
        assert_eq!(sum_of(&[1e100, 1.0, -1e100]), 1.0);
        assert_eq!(sum_of(&[0.1; 10]), 1.0);
        assert_eq!(sum_of(&[]), 0.0);
        assert_eq!(sum_of(&[3.5, -3.5]).to_bits(), 0.0f64.to_bits());
        // no intermediate overflow, but a true overflow is infinite
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum_of(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // subnormals are exact multiples of the smallest one
        let tiny = f64::from_bits(1);
        assert_eq!(sum_of(&[tiny; 3]), f64::from_bits(3));
        assert_eq!(
            sum_of(&[f64::MIN_POSITIVE, -tiny]),
            f64::from_bits((1 << 52) - 1)
        );
        // ties go to even, anything past the tie rounds up
        let half_ulp = f64::EPSILON / 2.0;
        assert_eq!(sum_of(&[1.0, half_ulp]), 1.0);
        assert_eq!(sum_of(&[1.0, half_ulp, 1e-300]), 1.0 + f64::EPSILON);
        assert_eq!(
            sum_of(&[1.0 + f64::EPSILON, half_ulp]),
            1.0 + 2.0 * f64::EPSILON
        );
        // specials are what IEEE gives for the exact sum
        assert_eq!(sum_of(&[1.0, f64::INFINITY]), f64::INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn exact_sum_is_order_free_and_merges_exactly() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Random bit patterns: every magnitude, sign and subnormal.
        let xs: Vec<f64> = (0..2_000)
            .map(|_| f64::from_bits(next()))
            .filter(|f| f.is_finite())
            .collect();
        let forward = sum_of(&xs);
        let mut reversed = xs.clone();
        reversed.reverse();
        assert_eq!(forward.to_bits(), sum_of(&reversed).to_bits());
        let (mut a, mut b) = (ExactSum::default(), ExactSum::default());
        for (i, &v) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.add(v)
            } else {
                b.add(v)
            }
        }
        b.merge(&a);
        assert_eq!(forward.to_bits(), b.round(0).to_bits());
    }

    #[test]
    fn avg_rounds_the_exact_sum_and_integers_stay_exact() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(&Value::Int64(i64::MAX));
        a.update(&Value::Int64(i64::MAX));
        a.update(&Value::Int64(-1));
        // the exact sum 2^64 - 3 rounds once, to 2^64, then divides
        assert_eq!(a.finish(), Value::Float64(18446744073709551616.0 / 3.0));
        let mut s = Accumulator::new(AggFunc::Sum);
        s.update(&Value::Int64(1 << 53));
        s.update(&Value::Float64(1.0));
        s.update(&Value::Int64(1));
        // a sequential f64 fold would round 2^53 + 1 down, twice
        assert_eq!(s.finish(), Value::Float64((1u64 << 53) as f64 + 2.0));
    }

    #[test]
    fn float_extremes_use_the_total_order() {
        for (func, xs, want) in [
            (AggFunc::Min, [0.0, -0.0], -0.0f64),
            (AggFunc::Min, [-0.0, 0.0], -0.0),
            (AggFunc::Max, [-0.0, 0.0], 0.0),
            (AggFunc::Max, [0.0, -0.0], 0.0),
            (AggFunc::Max, [1.0, f64::NAN], f64::NAN),
            (AggFunc::Min, [f64::NAN, 1.0], 1.0),
        ] {
            let mut m = Accumulator::new(func);
            for x in xs {
                m.update_f64(x);
            }
            let Value::Float64(got) = m.finish() else {
                panic!("float extreme")
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{func:?} of {xs:?}");
        }
    }
}
