//! Mixed read/write workloads over the versioned write path.
//!
//! The paper's benchmarks are read-only except SAP-SD Q6 (the insert
//! query); this module generates *interleaved* read/write op streams so the
//! delta-store trade-off — bigger delta ⇒ cheaper writes amortized, slower
//! scans — can be tested against a model, operation by operation.
//!
//! A [`MixedWorkload`] is a deterministic spec: read ops name a plan from
//! `plans`, write ops carry rows or row *hints*. Hints are resolved by the
//! driver against its set of currently-live row ids (`hint % live.len()`),
//! which keeps the spec independent of how ids shift as the table churns;
//! [`apply_write`] is that driver for a [`VersionedTable`].

use crate::{microbench, sapsd};
use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::{Result, Value};
use pdsm_txn::{RowId, VersionedTable};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One step of a mixed workload.
#[derive(Debug, Clone)]
pub enum MixedOp {
    /// Run `plans[plan]`.
    Read { plan: usize },
    /// Insert these rows (one atomic batch).
    Insert { rows: Vec<Vec<Value>> },
    /// Update the live row addressed by `row_hint` (modulo the driver's
    /// live set): set column `col` to `value`.
    Update {
        row_hint: u64,
        col: usize,
        value: Value,
    },
    /// Delete the live row addressed by `row_hint`.
    Delete { row_hint: u64 },
}

impl MixedOp {
    /// True iff this op is a read.
    pub fn is_read(&self) -> bool {
        matches!(self, MixedOp::Read { .. })
    }
}

/// A deterministic interleaved read/write op stream over one table.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// The written (and read) table.
    pub table: String,
    /// The read queries, referenced by index from [`MixedOp::Read`].
    pub plans: Vec<(String, LogicalPlan)>,
    /// The op stream.
    pub ops: Vec<MixedOp>,
}

impl MixedWorkload {
    /// Number of read ops.
    pub fn reads(&self) -> usize {
        self.ops.iter().filter(|o| o.is_read()).count()
    }

    /// Number of write ops.
    pub fn writes(&self) -> usize {
        self.ops.len() - self.reads()
    }
}

/// The live-id set a driver threads through [`apply_write`]: every
/// currently visible row id (main store and delta tail alike).
pub fn live_ids(t: &VersionedTable) -> Vec<RowId> {
    (0..t.main_len() + t.delta_rows())
        .filter(|&i| t.is_visible(i))
        .collect()
}

/// Apply one write op to `t`, resolving row hints against (and updating)
/// `live`. [`MixedOp::Read`]s are the driver's job (it picks the engine)
/// and are ignored here. Update/delete against an empty table are no-ops.
pub fn apply_write(t: &mut VersionedTable, live: &mut Vec<RowId>, op: &MixedOp) -> Result<()> {
    match op {
        MixedOp::Read { .. } => Ok(()),
        MixedOp::Insert { rows } => {
            live.extend(t.insert_batch(rows)?);
            Ok(())
        }
        MixedOp::Update {
            row_hint,
            col,
            value,
        } => {
            if live.is_empty() {
                return Ok(());
            }
            let slot = (*row_hint % live.len() as u64) as usize;
            live[slot] = t.update(live[slot], *col, value)?;
            Ok(())
        }
        MixedOp::Delete { row_hint } => {
            if live.is_empty() {
                return Ok(());
            }
            let slot = (*row_hint % live.len() as u64) as usize;
            t.delete(live[slot])?;
            live.swap_remove(slot);
            Ok(())
        }
    }
}

/// Fraction-of-reads presets used by the bench (`100/0`, `95/5`, `50/50`).
pub const MIXES: [(&str, f64); 3] = [("100/0", 1.0), ("95/5", 0.95), ("50/50", 0.5)];

/// A mixed workload over the microbenchmark relation `R`: reads are the
/// Fig.-2 aggregate at selectivity `sel`; writes split ~70% inserts, 20%
/// updates (non-key columns), 10% deletes.
pub fn microbench_mix(n_ops: usize, read_fraction: f64, sel: f64, seed: u64) -> MixedWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = vec![("fig2".to_string(), microbench::query(sel))];
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        if rng.gen_range(0.0..1.0) < read_fraction {
            ops.push(MixedOp::Read { plan: 0 });
            continue;
        }
        let w = rng.gen_range(0..10);
        if w < 7 {
            // non-matching A values, like the generator's filler rows
            let row: Vec<Value> = (0..microbench::N_COLS)
                .map(|c| {
                    if c == 0 {
                        Value::Int32(-rng.gen_range(1i32..1_000_000))
                    } else {
                        Value::Int32(rng.gen_range(0..1000))
                    }
                })
                .collect();
            ops.push(MixedOp::Insert { rows: vec![row] });
        } else if w < 9 {
            ops.push(MixedOp::Update {
                row_hint: rng.gen_range(0..u64::MAX),
                col: rng.gen_range(1..microbench::N_COLS),
                value: Value::Int32(rng.gen_range(0..1000)),
            });
        } else {
            ops.push(MixedOp::Delete {
                row_hint: rng.gen_range(0..u64::MAX),
            });
        }
    }
    MixedWorkload {
        table: "R".to_string(),
        plans,
        ops,
    }
}

/// The SAP-SD Q6 mix over `VBAP`: reads rotate through the VBAP-only
/// queries (Q5 material statistics, Q8 identity select, Q10 top items);
/// writes are Q6-style order-item inserts plus NETWR price updates and
/// item deletes. `scale` must match the generated tables so Q8's literal
/// hits data.
pub fn sapsd_q6_mix(scale: usize, n_ops: usize, read_fraction: f64, seed: u64) -> MixedWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let some_vbeln = (scale / 2) as i32;
    let plans = vec![
        (
            "Q5".to_string(),
            QueryBuilder::scan("VBAP")
                .aggregate(
                    vec![Expr::col(2)],
                    vec![
                        AggExpr::count_star(),
                        AggExpr::new(AggFunc::Sum, Expr::col(8)),
                    ],
                )
                .build(),
        ),
        (
            "Q8".to_string(),
            QueryBuilder::scan("VBAP")
                .filter(Expr::col(0).eq(Expr::lit(some_vbeln)))
                .build(),
        ),
        (
            "Q10".to_string(),
            QueryBuilder::scan("VBAP")
                .project(vec![Expr::col(0), Expr::col(1), Expr::col(10)])
                .sort(vec![(Expr::col(2), false)])
                .limit(100)
                .build(),
        ),
    ];
    let mut ops = Vec::with_capacity(n_ops);
    let mut next_vbeln = 1_000_000i32;
    let mut read_rr = 0usize;
    for _ in 0..n_ops {
        if rng.gen_range(0.0..1.0) < read_fraction {
            ops.push(MixedOp::Read {
                plan: read_rr % plans.len(),
            });
            read_rr += 1;
            continue;
        }
        let w = rng.gen_range(0..10);
        if w < 6 {
            // Q6: insert a new order's items
            let n_items = rng.gen_range(1..=3);
            let rows = (0..n_items)
                .map(|p| sapsd::vbap_row(&mut rng, next_vbeln, (p + 1) * 10))
                .collect();
            next_vbeln += 1;
            ops.push(MixedOp::Insert { rows });
        } else if w < 9 {
            // reprice an item (NETWR, col 10)
            ops.push(MixedOp::Update {
                row_hint: rng.gen_range(0..u64::MAX),
                col: 10,
                value: Value::Float64(rng.gen_range(5..5000) as f64 / 2.0),
            });
        } else {
            ops.push(MixedOp::Delete {
                row_hint: rng.gen_range(0..u64::MAX),
            });
        }
    }
    MixedWorkload {
        table: "VBAP".to_string(),
        plans,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_storage::Layout;

    #[test]
    fn deterministic_and_mix_fractions() {
        let a = microbench_mix(2_000, 0.95, 0.05, 9);
        let b = microbench_mix(2_000, 0.95, 0.05, 9);
        assert_eq!(a.ops.len(), b.ops.len());
        assert_eq!(a.reads(), b.reads());
        let frac = a.reads() as f64 / a.ops.len() as f64;
        assert!((0.90..=0.99).contains(&frac), "read fraction {frac}");
        let c = sapsd_q6_mix(200, 1_000, 0.5, 3);
        let frac = c.reads() as f64 / c.ops.len() as f64;
        assert!((0.4..=0.6).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn writes_apply_cleanly_and_merge() {
        let base = microbench::generate(500, 0.05, Layout::row(microbench::N_COLS), 11);
        let mut t = VersionedTable::from_table(base);
        let mut live = live_ids(&t);
        let w = microbench_mix(1_000, 0.5, 0.05, 13);
        for op in &w.ops {
            apply_write(&mut t, &mut live, op).expect("write applies");
        }
        assert_eq!(t.len(), live.len());
        let visible = t.len();
        t.merge().unwrap();
        assert_eq!(t.len(), visible, "merge preserves visible rows");
    }

    #[test]
    fn q6_mix_rows_match_vbap_schema() {
        let w = sapsd_q6_mix(100, 400, 0.0, 5);
        let mut t = VersionedTable::from_table(sapsd::tables(100, 7).remove(3));
        assert_eq!(t.name(), "VBAP");
        let mut live = live_ids(&t);
        for op in &w.ops {
            apply_write(&mut t, &mut live, op).expect("vbap write applies");
        }
        assert!(t.has_delta());
    }
}
