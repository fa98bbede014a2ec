//! The statement cache: one entry per logical plan, holding its physical
//! plan and — once an admitted plan has run — its materialized result,
//! both tagged with the catalog epoch and each input table's
//! `(generation, delta_ops)` token.
//!
//! The key is the plan's `Debug` rendering (`format!("{plan:?}")`), the
//! string the observed workload dedups on too, so a statement renders its
//! plan once and probes one map once. An entry's plan and its result were
//! both computed from the view whose `(epoch, deps)` the entry carries.
//! Both components of a token are monotonic (a merge bumps the
//! generation, DML bumps `delta_ops` within one), so a merge or any DML
//! batch invalidates entries *for free*: the next probe reads the tokens
//! of the view it pinned, sees a mismatch, and drops the entry. A stale
//! entry can never re-validate, which makes a cached hit provably equal
//! to re-execution over that view. Replaced tables can reset tokens, so
//! the catalog epoch (bumped by every shape change) is part of validity
//! too. A repeated statement takes only the read lock.
//!
//! Admission is the planner's job ([`PhysicalPlan`]`::cache_admit`): a
//! result is kept only when its predicted re-execution cost exceeds the
//! priced copy-out (`pdsm_cost::copy_out_cycles`) by
//! `crate::planner::CACHE_ADMIT_FACTOR`. Two bounds apply:
//!
//! * entries with a result charge their rows against the byte budget;
//!   over it, the entry with the lowest
//!   `benefit-density × observed-reuse / recency` score goes, plan and all;
//! * entries without one are at most [`PLAN_ONLY_CAP`]; at the bound the
//!   least recently used of them go, a few per scan — this bound never
//!   drops a result.
//!
//! Knobs: `PDSM_RESULT_CACHE=off|on` (default on; off still caches plans)
//! and `PDSM_RESULT_CACHE_BYTES=<bytes>` (default 64 MiB).

use pdsm_exec::QueryResult;
use pdsm_plan::physical::PhysicalPlan;
use pdsm_storage::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Per-table invalidation tokens: `(table, generation, delta_ops)` of
/// every table a plan reads, in first-reference order.
pub type DepTokens = Vec<(String, u64, u64)>;

/// Upper bound on entries that hold a plan but no result.
pub const PLAN_ONLY_CAP: usize = 256;

/// Plan-only entries the LRU bound drops per scan of the map, so that one
/// scan pays for this many inserts.
const LRU_BATCH: usize = 8;

/// Result-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheConfig {
    /// Master switch (`PDSM_RESULT_CACHE`). When off, entries keep plans
    /// only and a statement pays one atomic load for the result half.
    pub enabled: bool,
    /// Byte budget across all results (`PDSM_RESULT_CACHE_BYTES`). A
    /// single result larger than a quarter of the budget is never
    /// admitted (it would evict everything for one entry).
    pub budget_bytes: usize,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        ResultCacheConfig {
            enabled: true,
            budget_bytes: 64 << 20,
        }
    }
}

impl ResultCacheConfig {
    /// Configuration from `PDSM_RESULT_CACHE` (`off`/`0`/`false` disable;
    /// default on) and `PDSM_RESULT_CACHE_BYTES` (plain byte count).
    pub fn from_env() -> Self {
        let mut cfg = ResultCacheConfig::default();
        if let Ok(v) = std::env::var("PDSM_RESULT_CACHE") {
            cfg.enabled = !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "off" | "0" | "false" | "no"
            );
        }
        if let Ok(v) = std::env::var("PDSM_RESULT_CACHE_BYTES") {
            if let Ok(b) = v.trim().parse::<usize>() {
                cfg.budget_bytes = b;
            }
        }
        cfg
    }
}

/// Point-in-time counters of the plan half of the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plan probes that found a still-valid lowering.
    pub hits: u64,
    /// Plan probes that found nothing current (the caller re-planned).
    pub misses: u64,
    /// Plan-only entries displaced by the [`PLAN_ONLY_CAP`] LRU bound.
    pub evictions: u64,
    /// Entries dropped because their tokens had moved.
    pub invalidations: u64,
    /// Entries currently cached (every entry holds a plan).
    pub entries: usize,
}

/// Point-in-time counters of the result half of the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultCacheStats {
    /// Whether result caching is currently enabled.
    pub enabled: bool,
    /// Configured byte budget.
    pub budget_bytes: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
    /// Entries currently holding a result.
    pub entries: usize,
    /// Whole-result hits (the probe returned a materialized answer).
    pub hits: u64,
    /// Always 0; read by pdsm-bench's trace.
    pub fragment_hits: u64,
    /// Admitted executions that found no current result.
    pub misses: u64,
    /// Executions that skipped the cache because planner admission said
    /// the result is cheaper to recompute than to copy.
    pub bypasses: u64,
    /// Entries dropped by the byte-budget eviction.
    pub evictions: u64,
    /// Result-bearing entries dropped because a probe saw moved tokens.
    pub invalidations: u64,
    /// Results admitted since creation.
    pub insertions: u64,
}

impl ResultCacheStats {
    /// Whole-result hit rate over all counted probes.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// Both halves' counters — `Database::cache_stats()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    pub plan: PlanCacheStats,
    pub result: ResultCacheStats,
}

/// Who probes, and so which counters the probe moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// `execute`, `plan_query`: a plan hit or miss; a stale entry is
    /// dropped and counted.
    Plan,
    /// `execute_physical`, which brings its own plan: a stale entry is
    /// dropped and counted, no plan counter moves.
    Run,
    /// `EXPLAIN`: nothing moves and nothing is dropped.
    Silent,
}

/// A materialized result and what ranks it for eviction.
struct CachedResult {
    rows: QueryResult,
    /// Estimated resident bytes (rows + column names).
    bytes: usize,
    /// Model-predicted cycles one hit saves (re-execution minus copy-out).
    benefit: f64,
}

/// One statement's entry: the plan's lowering and, for an admitted plan
/// that has run, its result — both computed from the view whose
/// `(epoch, deps)` it carries.
pub(crate) struct Entry {
    epoch: u64,
    deps: DepTokens,
    pub(crate) phys: Arc<PhysicalPlan>,
    result: Option<CachedResult>,
    /// Logical-clock tick of the last counted probe (recency).
    last_used: AtomicU64,
    /// Result hits served — the reuse weight.
    hits: AtomicU64,
}

impl Entry {
    /// Whether this entry holds a result (`EXPLAIN`'s `hit`).
    pub(crate) fn has_result(&self) -> bool {
        self.result.is_some()
    }
}

#[derive(Default)]
struct Entries {
    map: HashMap<String, Arc<Entry>>,
    /// Σ result bytes of the entries in `map`.
    bytes: usize,
    /// Entries in `map` that hold a result.
    results: usize,
}

impl Entries {
    fn remove(&mut self, key: &str) -> Option<Arc<Entry>> {
        let e = self.map.remove(key)?;
        if let Some(r) = &e.result {
            self.bytes -= r.bytes;
            self.results -= 1;
        }
        Some(e)
    }
}

/// The bounded, concurrent statement cache. All methods take `&self`; a
/// valid probe touches the map under the read lock only.
pub(crate) struct StatementCache {
    entries: RwLock<Entries>,
    enabled: AtomicBool,
    budget: AtomicUsize,
    /// Logical clock: one tick per probe that is not silent, for recency.
    clock: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    plan_invalidations: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl StatementCache {
    pub fn new(cfg: ResultCacheConfig) -> Self {
        StatementCache {
            entries: RwLock::default(),
            enabled: AtomicBool::new(cfg.enabled),
            budget: AtomicUsize::new(cfg.budget_bytes),
            clock: AtomicU64::new(0),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_evictions: AtomicU64::new(0),
            plan_invalidations: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> ResultCacheConfig {
        ResultCacheConfig {
            enabled: self.enabled.load(Ordering::Relaxed),
            budget_bytes: self.budget.load(Ordering::Relaxed),
        }
    }

    /// Reconfigure (tests, embedders). Drops every entry; counters keep
    /// accumulating.
    pub fn set_config(&self, cfg: ResultCacheConfig) {
        *self.write() = Entries::default();
        self.enabled.store(cfg.enabled, Ordering::Relaxed);
        self.budget.store(cfg.budget_bytes, Ordering::Relaxed);
    }

    fn read(&self) -> RwLockReadGuard<'_, Entries> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Entries> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry for `key` if it was made from a view with `epoch` and
    /// `deps`, else `None`. A stale entry is removed unless `probe` is
    /// [`Probe::Silent`].
    pub fn probe(
        &self,
        key: &str,
        epoch: u64,
        deps: &DepTokens,
        probe: Probe,
    ) -> Option<Arc<Entry>> {
        let counted = probe != Probe::Silent;
        let tick = if counted {
            self.clock.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        };
        let entry = self.read().map.get(key).cloned();
        let plan_counter = match &entry {
            Some(e) if e.epoch == epoch && e.deps == *deps => {
                if counted {
                    e.last_used.store(tick, Ordering::Relaxed);
                }
                &self.plan_hits
            }
            Some(stale) => {
                if counted {
                    let mut m = self.write();
                    // Only remove the entry we validated: a racing insert
                    // may have refreshed the key in between.
                    if m.map.get(key).is_some_and(|cur| Arc::ptr_eq(cur, stale)) {
                        m.remove(key);
                        bump(&self.plan_invalidations);
                        if stale.has_result() {
                            bump(&self.invalidations);
                        }
                    }
                }
                &self.plan_misses
            }
            None => &self.plan_misses,
        };
        if probe == Probe::Plan {
            bump(plan_counter);
        }
        entry.filter(|e| e.epoch == epoch && e.deps == *deps)
    }

    /// Whether `phys`'s result goes through the cache: result caching is
    /// on and the planner admitted the plan. A refused admission counts
    /// as a bypass.
    pub fn admits(&self, phys: &PhysicalPlan) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        if !phys.cache_admit {
            bump(&self.bypasses);
        }
        phys.cache_admit
    }

    /// The result `entry` holds, counted as a hit — or `None`, counted as
    /// a miss. Call only for a plan [`StatementCache::admits`].
    pub fn result(&self, entry: Option<&Entry>) -> Option<QueryResult> {
        match entry.and_then(|e| e.result.as_ref().map(|r| (e, r))) {
            Some((e, r)) => {
                bump(&e.hits);
                bump(&self.hits);
                Some(r.rows.clone())
            }
            None => {
                bump(&self.misses);
                None
            }
        }
    }

    /// Store `phys`, and `result` when given, as the entry for `key`,
    /// made from the view with `epoch` and `deps`. A result larger than a
    /// quarter of the budget is left out; the plan is still stored.
    pub fn insert(
        &self,
        key: String,
        epoch: u64,
        deps: DepTokens,
        phys: Arc<PhysicalPlan>,
        result: Option<QueryResult>,
    ) {
        let budget = self.budget.load(Ordering::Relaxed);
        let benefit = (phys.cost.total() - phys.copy_out_cycles).max(0.0);
        let result = result
            .map(|rows| CachedResult {
                bytes: result_bytes(&rows),
                rows,
                benefit,
            })
            .filter(|r| r.bytes <= budget / 4);
        let tick = self.clock.load(Ordering::Relaxed);
        let mut m = self.write();
        m.remove(&key);
        if let Some(r) = &result {
            m.bytes += r.bytes;
            m.results += 1;
            bump(&self.insertions);
        } else if m.map.len() - m.results >= PLAN_ONLY_CAP {
            self.evict_lru_plans(&mut m);
        }
        let stored = result.is_some();
        m.map.insert(
            key,
            Arc::new(Entry {
                epoch,
                deps,
                phys,
                result,
                last_used: AtomicU64::new(tick),
                hits: AtomicU64::new(0),
            }),
        );
        if stored {
            self.evict_over_budget(&mut m, budget, tick);
        }
    }

    /// Drop the [`LRU_BATCH`] least recently used entries that hold no
    /// result.
    fn evict_lru_plans(&self, m: &mut Entries) {
        let mut plans: Vec<(u64, &String)> = m
            .map
            .iter()
            .filter(|(_, e)| !e.has_result())
            .map(|(k, e)| (e.last_used.load(Ordering::Relaxed), k))
            .collect();
        if plans.len() > LRU_BATCH {
            plans.select_nth_unstable(LRU_BATCH);
            plans.truncate(LRU_BATCH);
        }
        let victims: Vec<String> = plans.into_iter().map(|(_, k)| k.clone()).collect();
        for k in victims {
            m.remove(&k);
            bump(&self.plan_evictions);
        }
    }

    /// Byte-budgeted eviction with cost-weighted benefit: while over
    /// budget, drop the result-bearing entry with the lowest
    /// `benefit/byte × (1 + hits) / (1 + age)` score — low predicted
    /// savings, little observed reuse and long idleness all push an entry
    /// toward the door.
    fn evict_over_budget(&self, m: &mut Entries, budget: usize, now: u64) {
        while m.bytes > budget {
            let victim = m
                .map
                .iter()
                .filter_map(|(k, e)| {
                    let r = e.result.as_ref()?;
                    let density = r.benefit / r.bytes.max(1) as f64;
                    let reuse = 1.0 + e.hits.load(Ordering::Relaxed) as f64;
                    let age = 1.0 + now.saturating_sub(e.last_used.load(Ordering::Relaxed)) as f64;
                    Some((k, density * reuse / age))
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(k, _)| k.clone());
            let Some(k) = victim else { break };
            m.remove(&k);
            bump(&self.evictions);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let m = self.read();
        CacheStats {
            plan: PlanCacheStats {
                hits: load(&self.plan_hits),
                misses: load(&self.plan_misses),
                evictions: load(&self.plan_evictions),
                invalidations: load(&self.plan_invalidations),
                entries: m.map.len(),
            },
            result: ResultCacheStats {
                enabled: self.enabled.load(Ordering::Relaxed),
                budget_bytes: self.budget.load(Ordering::Relaxed),
                bytes: m.bytes,
                entries: m.results,
                hits: load(&self.hits),
                fragment_hits: 0,
                misses: load(&self.misses),
                bypasses: load(&self.bypasses),
                evictions: load(&self.evictions),
                invalidations: load(&self.invalidations),
                insertions: load(&self.insertions),
            },
        }
    }
}

/// Estimated resident bytes of a materialized result: per-value enum
/// footprint plus string payloads plus the column-name header.
fn result_bytes(r: &QueryResult) -> usize {
    let mut b: usize = r.columns.iter().map(|c| c.len() + 24).sum();
    for row in &r.rows {
        b += 24; // Vec header
        for v in row {
            b += std::mem::size_of::<Value>();
            if let Value::Str(s) = v {
                b += s.len();
            }
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::QueryOutput;

    fn result(rows: usize) -> QueryResult {
        let mut out = QueryOutput::new();
        for i in 0..rows {
            out.rows.push(vec![Value::Int64(i as i64)]);
        }
        QueryResult::new(vec!["c".into()], out)
    }

    fn deps(generation: u64, ops: u64) -> DepTokens {
        vec![("t".to_string(), generation, ops)]
    }

    fn phys(cache_admit: bool) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan {
            logical: pdsm_plan::builder::QueryBuilder::scan("t").build(),
            engine: pdsm_plan::physical::EngineChoice::Compiled,
            pipelines: vec![],
            cost: pdsm_plan::physical::CostSummary {
                mem_cycles: 1e6,
                ..Default::default()
            },
            alternatives: vec![],
            est_out_rows: 0.0,
            cache_admit,
            copy_out_cycles: 0.0,
        })
    }

    /// A result-bearing entry under `key`.
    fn admit(c: &StatementCache, key: &str, epoch: u64, d: DepTokens, rows: usize) {
        c.insert(key.into(), epoch, d, phys(true), Some(result(rows)));
    }

    /// Probe as `execute` does for an admitted plan: the result, if any.
    fn served(c: &StatementCache, key: &str, epoch: u64, d: &DepTokens) -> bool {
        let e = c.probe(key, epoch, d, Probe::Run);
        assert!(c.admits(&phys(true)));
        c.result(e.as_deref()).is_some()
    }

    #[test]
    fn probe_validates_tokens_and_epoch() {
        let c = StatementCache::new(ResultCacheConfig::default());
        admit(&c, "k", 1, deps(0, 5), 3);
        assert!(served(&c, "k", 1, &deps(0, 5)));
        // delta advanced → invalidated
        assert!(!served(&c, "k", 1, &deps(0, 6)));
        // entry is gone now, even for the original tokens
        assert!(!served(&c, "k", 1, &deps(0, 5)));
        let s = c.stats().result;
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 2);
        assert_eq!((s.entries, s.bytes), (0, 0));
        // epoch mismatch invalidates too (replaced tables reset tokens)
        admit(&c, "k", 1, deps(0, 5), 3);
        assert!(!served(&c, "k", 2, &deps(0, 5)));
        assert_eq!(c.stats().result.invalidations, 2);
    }

    #[test]
    fn silent_peek_counts_nothing() {
        let c = StatementCache::new(ResultCacheConfig::default());
        admit(&c, "k", 0, deps(0, 0), 1);
        assert!(c.probe("k", 0, &deps(0, 0), Probe::Silent).is_some());
        assert!(c.probe("absent", 0, &deps(0, 0), Probe::Silent).is_none());
        // a stale entry survives a silent peek
        assert!(c.probe("k", 0, &deps(0, 1), Probe::Silent).is_none());
        let s = c.stats();
        assert_eq!(
            (s.result.hits, s.result.misses, s.result.entries),
            (0, 0, 1)
        );
        assert_eq!(
            s.plan,
            PlanCacheStats {
                entries: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn byte_budget_evicts_and_bounds() {
        let small = ResultCacheConfig {
            enabled: true,
            budget_bytes: 4096,
        };
        let c = StatementCache::new(small);
        for i in 0..64 {
            admit(&c, &format!("k{i}"), 0, deps(0, 0), 8);
        }
        let s = c.stats();
        assert!(s.result.evictions > 0, "{s:?}");
        assert!(s.result.bytes <= 4096, "{s:?}");
        assert!(s.result.entries < 64);
        // an evicted result takes its plan with it
        assert_eq!(s.plan.entries, s.result.entries, "{s:?}");
    }

    #[test]
    fn oversized_results_never_admitted() {
        let c = StatementCache::new(ResultCacheConfig {
            enabled: true,
            budget_bytes: 1024,
        });
        admit(&c, "big", 0, deps(0, 0), 1000);
        let s = c.stats();
        assert_eq!((s.result.entries, s.result.insertions), (0, 0));
        // the plan is kept
        assert_eq!(s.plan.entries, 1);
    }

    #[test]
    fn plan_only_entries_are_lru_bounded_and_counted() {
        let c = StatementCache::new(ResultCacheConfig::default());
        admit(&c, "result", 0, deps(0, 0), 1);
        let n = PLAN_ONLY_CAP + 100;
        for i in 0..n {
            let key = format!("plan-{i}");
            assert!(c.probe(&key, 0, &deps(0, 0), Probe::Plan).is_none());
            c.insert(key, 0, deps(0, 0), phys(false), None);
        }
        let s = c.stats();
        assert!(s.plan.entries <= PLAN_ONLY_CAP + 1, "{s:?}");
        assert!(s.plan.evictions >= 100, "{s:?}");
        // every plan-only entry is either resident or counted out
        assert_eq!(s.plan.entries - 1 + s.plan.evictions as usize, n, "{s:?}");
        assert_eq!(s.plan.misses, n as u64);
        // the oldest plans went, the result-bearing entry stayed
        assert!(c.probe("plan-0", 0, &deps(0, 0), Probe::Silent).is_none());
        assert!(served(&c, "result", 0, &deps(0, 0)));
        // hit, then invalidate
        let last = format!("plan-{}", n - 1);
        assert!(c.probe(&last, 0, &deps(0, 0), Probe::Plan).is_some());
        assert!(c.probe(&last, 0, &deps(1, 0), Probe::Plan).is_none());
        let s = c.stats();
        assert_eq!(s.plan.hits, 1);
        assert_eq!(s.plan.invalidations, 1);
        assert_eq!(
            s.result.invalidations, 0,
            "a plan-only entry held no result"
        );
    }
}
