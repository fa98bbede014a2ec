//! Physical query plans: the planner's output.
//!
//! A [`PhysicalPlan`] is a [`LogicalPlan`] annotated with the decisions the
//! cost-based planner made for it: which execution engine runs the query
//! ([`EngineChoice`] — the planner picks between `Compiled` and
//! `Parallel`; the other variants are the oracle and two labels),
//! which access path feeds each pipeline
//! ([`AccessPath`] — a full scan through the engine, or a main-store index
//! probe unioned with a scan of the live delta tail), and what the
//! prefetch-aware cost model (`pdsm_cost::estimate`) predicted for the
//! chosen and the rejected alternatives. [`PhysicalPlan::explain`] renders
//! the whole decision for humans — the `EXPLAIN` of this system.
//!
//! The types here are pure data: lowering (`pdsm-core`'s `planner` module)
//! consults the catalog, the table statistics and the live delta sizes;
//! execution (`Database::execute_physical`) interprets the annotations.

use crate::logical::LogicalPlan;
use pdsm_storage::{ColId, Value};

/// Which engine a physical plan runs on. The planner emits only `Compiled`
/// and `Parallel`; `Volcano` is the differential oracle, runnable through
/// `pdsm-core`'s `EngineKind`. `Bulk` and `Vectorized` name the Fig.-3
/// baselines that live in `pdsm-bench` and cannot serve a plan — they stay
/// because `pdsm-bench` counts engine shares by this enum's labels, in
/// this order. The planner layer only needs the name, so the enum lives
/// here where `pdsm-exec` is not a dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Tuple-at-a-time iterators (high per-tuple interpretation cost).
    Volcano,
    /// Column-at-a-time primitives with full materialization (a label only).
    Bulk,
    /// Block-at-a-time processing with cache-resident selection vectors (a
    /// label only).
    Vectorized,
    /// Data-centric fused pipelines (the paper's model).
    Compiled,
    /// Morsel-driven parallel execution of the compiled pipelines.
    Parallel,
}

impl EngineChoice {
    /// Lower-case engine name, as used in `explain()` and reports.
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::Volcano => "volcano",
            EngineChoice::Bulk => "bulk",
            EngineChoice::Vectorized => "vectorized",
            EngineChoice::Compiled => "compiled",
            EngineChoice::Parallel => "parallel",
        }
    }
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How rows enter a pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Scan main ∪ delta through the engine's overlay-aware scan.
    FullScan,
    /// Probe the main-store index on `column` for `key`, drop tombstoned
    /// hits, then union a predicate-filtered scan of the live delta tail.
    IndexPoint { column: ColId, key: Value },
    /// Range probe (`lo..=hi`, ordered index required) with the same
    /// tombstone handling and delta-tail union as [`AccessPath::IndexPoint`].
    IndexRange { column: ColId, lo: i64, hi: i64 },
}

impl AccessPath {
    /// True for the index-probe variants.
    pub fn is_indexed(&self) -> bool {
        !matches!(self, AccessPath::FullScan)
    }

    /// The probed column; `None` for a full scan.
    pub fn column(&self) -> Option<ColId> {
        match self {
            AccessPath::FullScan => None,
            AccessPath::IndexPoint { column, .. } | AccessPath::IndexRange { column, .. } => {
                Some(*column)
            }
        }
    }

    /// Short label for `explain()` output.
    pub fn describe(&self) -> String {
        match self {
            AccessPath::FullScan => "full scan".to_string(),
            AccessPath::IndexPoint { column, key } => {
                format!("index probe col {column} = {key}")
            }
            AccessPath::IndexRange { column, lo, hi } => {
                format!("index range col {column} in [{lo}, {hi}]")
            }
        }
    }
}

/// One pipeline of the physical plan: the base table driving it and the
/// access path chosen for its scan.
#[derive(Debug, Clone)]
pub struct PipelinePlan {
    /// Base table feeding the pipeline.
    pub table: String,
    /// Chosen access path.
    pub access: AccessPath,
    /// Rows the access path is expected to deliver into the pipeline.
    pub est_rows: f64,
    /// Total rows visible in the table (main − tombstones + live tail).
    pub table_rows: u64,
    /// Live delta-tail rows an index probe must union in (0 = merged).
    pub delta_rows: usize,
    /// Zone blocks of the main store this scan consulted for pruning
    /// (0 = zone map not consulted — no refutable predicate or index path).
    pub zone_blocks: usize,
    /// Zone blocks the planner expects the scan to skip outright.
    pub zone_pruned: usize,
    /// Checkpoint extents of a still-cold main store (0 = fully resident
    /// table; the three fields below are then all zero too).
    pub extents_total: usize,
    /// Cold extents already resident in the buffer pool (no fault needed).
    pub extents_resident: usize,
    /// Cold extents the zone map refutes outright — the scan skips them
    /// without faulting a byte.
    pub extents_pruned: usize,
}

impl PipelinePlan {
    /// Fraction of zone blocks the scan must actually touch (1 when the
    /// zone map was not consulted) — the cost model's pruning term.
    pub fn survived_fraction(&self) -> f64 {
        if self.zone_blocks == 0 {
            1.0
        } else {
            (self.zone_blocks - self.zone_pruned) as f64 / self.zone_blocks as f64
        }
    }
}

/// Model-predicted cycles, split the way the paper splits them: memory
/// stalls (Eq. 5–6 over the emitted access pattern) and CPU work (per-tuple
/// processing cost of the chosen engine).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostSummary {
    /// Memory-hierarchy cycles from `pdsm_cost::estimate`.
    pub mem_cycles: f64,
    /// Per-tuple CPU cycles of the chosen engine's processing model.
    pub cpu_cycles: f64,
    /// Disk-tier cycles (`pdsm_cost::DiskTier`) to fault the cold,
    /// non-pruned checkpoint extents this scan must touch. Zero for fully
    /// resident tables — the common case — so the classic two-term
    /// breakdown is unchanged until a table actually lives on disk.
    pub disk_cycles: f64,
}

impl CostSummary {
    /// Total predicted cycles.
    pub fn total(&self) -> f64 {
        self.mem_cycles + self.cpu_cycles + self.disk_cycles
    }
}

/// A fully lowered query: logical plan + engine + access paths + the cost
/// estimates that justified them.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The logical plan this was lowered from.
    pub logical: LogicalPlan,
    /// Engine the plan executes on (ignored for pure index probes, which
    /// bypass the engines entirely).
    pub engine: EngineChoice,
    /// One entry per pipeline, in scan order.
    pub pipelines: Vec<PipelinePlan>,
    /// Predicted cost of the chosen (engine, access path) combination.
    pub cost: CostSummary,
    /// Every alternative the planner priced, as `(label, total cycles)`,
    /// sorted cheapest first. Labels are `"scan/compiled"`,
    /// `"scan/parallel"` and `"index"`; the first entry is the chosen one.
    pub alternatives: Vec<(String, f64)>,
    /// Estimated result cardinality.
    pub est_out_rows: f64,
    /// Result-cache admission: `true` iff the model priced re-executing
    /// this plan above materializing and re-reading its result
    /// (`copy_out_cycles`) — the Dursun-style cache-vs-recompute test.
    /// `false` plans bypass the result cache entirely.
    pub cache_admit: bool,
    /// Model-predicted cycles to copy the materialized result out of a
    /// cache (one sequential write + one re-read of the estimated result
    /// bytes) — what admission weighed `cost` against.
    pub copy_out_cycles: f64,
}

impl PhysicalPlan {
    /// The access path of the root (outermost) pipeline; `FullScan` for
    /// plans whose pipelines were not index-eligible.
    pub fn access(&self) -> &AccessPath {
        self.pipelines
            .first()
            .map(|p| &p.access)
            .unwrap_or(&AccessPath::FullScan)
    }

    /// Predicted total cycles of the alternative labelled `label`
    /// (e.g. `"scan/compiled"`, `"index"`), if it was priced.
    pub fn cost_of(&self, label: &str) -> Option<f64> {
        self.alternatives
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, c)| *c)
    }

    /// Cheapest full-scan alternative (the cost the chosen path had to
    /// beat when an index path was selected).
    pub fn best_scan_cost(&self) -> Option<f64> {
        self.alternatives
            .iter()
            .filter(|(l, _)| l.starts_with("scan/"))
            .map(|(_, c)| *c)
            .fold(None, |acc: Option<f64>, c| {
                Some(acc.map_or(c, |a| a.min(c)))
            })
    }

    /// Human-readable rendering of the plan: chosen engine and access path
    /// per pipeline, the model's cost breakdown, and every priced
    /// alternative. This is the system's `EXPLAIN`.
    pub fn explain(&self) -> String {
        self.explain_with(None)
    }

    /// [`PhysicalPlan::explain`] plus a `cache:` line reporting the result
    /// cache's live status for this plan (`hit`, `miss` or `bypass`).
    /// Status is dynamic — the same cached plan can be a miss now and a
    /// hit next time — so callers (e.g. `Database::explain`) probe the
    /// cache at explain time and pass the answer in; `None` omits the
    /// line, keeping the bare rendering byte-stable for snapshots.
    pub fn explain_with(&self, cache: Option<&str>) -> String {
        let mut s = String::new();
        s.push_str("physical plan\n");
        s.push_str(&format!("  engine: {}\n", self.engine));
        for (i, p) in self.pipelines.iter().enumerate() {
            s.push_str(&format!(
                "  pipeline {i}: {} via {} — est {:.0} of {} rows",
                p.table,
                p.access.describe(),
                p.est_rows,
                p.table_rows,
            ));
            if p.access.is_indexed() {
                s.push_str(&format!(" (+{} delta)", p.delta_rows));
            }
            if p.zone_blocks > 0 {
                s.push_str(&format!(
                    ", partitions: {}/{}/{} (scanned/pruned/total)",
                    p.zone_blocks - p.zone_pruned,
                    p.zone_pruned,
                    p.zone_blocks,
                ));
            }
            if p.extents_total > 0 {
                s.push_str(&format!(
                    ", extents: {}/{}/{}/{} (resident/cold/pruned/total)",
                    p.extents_resident,
                    p.extents_total - p.extents_resident - p.extents_pruned,
                    p.extents_pruned,
                    p.extents_total,
                ));
            }
            s.push('\n');
        }
        if self.cost.disk_cycles > 0.0 {
            s.push_str(&format!(
                "  cost: {:.0} cycles (mem {:.0} + cpu {:.0} + disk {:.0}), est {:.0} output rows\n",
                self.cost.total(),
                self.cost.mem_cycles,
                self.cost.cpu_cycles,
                self.cost.disk_cycles,
                self.est_out_rows,
            ));
        } else {
            s.push_str(&format!(
                "  cost: {:.0} cycles (mem {:.0} + cpu {:.0}), est {:.0} output rows\n",
                self.cost.total(),
                self.cost.mem_cycles,
                self.cost.cpu_cycles,
                self.est_out_rows,
            ));
        }
        s.push_str("  alternatives:");
        for (label, cycles) in &self.alternatives {
            s.push_str(&format!(" {label}={cycles:.0}"));
        }
        s.push('\n');
        if let Some(status) = cache {
            s.push_str(&format!("  cache: {status}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;

    fn sample() -> PhysicalPlan {
        PhysicalPlan {
            logical: QueryBuilder::scan("t").build(),
            engine: EngineChoice::Compiled,
            pipelines: vec![PipelinePlan {
                table: "t".into(),
                access: AccessPath::IndexPoint {
                    column: 0,
                    key: Value::Int32(7),
                },
                est_rows: 2.0,
                table_rows: 100,
                delta_rows: 3,
                zone_blocks: 0,
                zone_pruned: 0,
                extents_total: 0,
                extents_resident: 0,
                extents_pruned: 0,
            }],
            cost: CostSummary {
                mem_cycles: 900.0,
                cpu_cycles: 100.0,
                disk_cycles: 0.0,
            },
            alternatives: vec![
                ("index".to_string(), 1000.0),
                ("scan/compiled".to_string(), 5000.0),
                ("scan/parallel".to_string(), 90000.0),
            ],
            est_out_rows: 2.0,
            cache_admit: false,
            copy_out_cycles: 0.0,
        }
    }

    #[test]
    fn explain_shows_path_and_cost() {
        let p = sample();
        let e = p.explain();
        assert!(e.contains("engine: compiled"), "{e}");
        assert!(e.contains("index probe col 0 = 7"), "{e}");
        assert!(e.contains("(+3 delta)"), "{e}");
        assert!(e.contains("cost: 1000 cycles (mem 900 + cpu 100)"), "{e}");
        assert!(e.contains("scan/parallel=90000"), "{e}");
    }

    #[test]
    fn explain_reports_partition_pruning() {
        let mut p = sample();
        p.pipelines[0].access = AccessPath::FullScan;
        p.pipelines[0].zone_blocks = 40;
        p.pipelines[0].zone_pruned = 30;
        let e = p.explain();
        assert!(
            e.contains("partitions: 10/30/40 (scanned/pruned/total)"),
            "{e}"
        );
        assert!((p.pipelines[0].survived_fraction() - 0.25).abs() < 1e-12);
        // unconsulted zone map reports nothing and scales nothing
        let q = sample();
        assert!(!q.explain().contains("partitions:"), "{}", q.explain());
        assert_eq!(q.pipelines[0].survived_fraction(), 1.0);
    }

    #[test]
    fn explain_reports_cold_extents_and_disk_cost() {
        let mut p = sample();
        p.pipelines[0].access = AccessPath::FullScan;
        p.pipelines[0].extents_total = 16;
        p.pipelines[0].extents_resident = 4;
        p.pipelines[0].extents_pruned = 10;
        p.cost.disk_cycles = 500.0;
        let e = p.explain();
        assert!(
            e.contains("extents: 4/2/10/16 (resident/cold/pruned/total)"),
            "{e}"
        );
        assert!(
            e.contains("cost: 1500 cycles (mem 900 + cpu 100 + disk 500)"),
            "{e}"
        );
        // resident tables render neither the extent line nor the disk term
        let q = sample();
        assert!(!q.explain().contains("extents:"), "{}", q.explain());
        assert!(!q.explain().contains("disk"), "{}", q.explain());
    }

    #[test]
    fn explain_with_appends_cache_line() {
        let p = sample();
        assert!(!p.explain().contains("cache:"), "{}", p.explain());
        assert_eq!(p.explain_with(None), p.explain());
        let e = p.explain_with(Some("hit"));
        assert!(e.ends_with("  cache: hit\n"), "{e}");
        assert!(e.starts_with(&p.explain()), "{e}");
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert!(p.access().is_indexed());
        assert_eq!(p.cost_of("scan/compiled"), Some(5000.0));
        assert_eq!(p.best_scan_cost(), Some(5000.0));
        assert_eq!(p.cost.total(), 1000.0);
        assert_eq!(EngineChoice::Parallel.to_string(), "parallel");
    }
}
