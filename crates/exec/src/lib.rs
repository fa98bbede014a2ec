//! # pdsm-exec
//!
//! Query execution: one differential oracle and the paper's model
//! (§II-A, §III, Fig. 3):
//!
//! * [`volcano`] — tuple-at-a-time iterators wired with `dyn` dispatch and
//!   boxed predicate closures. The *deliberately* CPU-inefficient baseline
//!   (every tuple pays virtual calls and `Value` boxing, the "function
//!   pointer chasing" the paper attributes to Volcano) and, being the
//!   simplest correct thing, the **oracle** every byte-identity test
//!   compares against.
//! * [`compiled`] — the paper's contribution, transplanted: data-centric
//!   fused pipelines. Each pipeline runs as one loop over the scan; filters
//!   are pre-lowered to typed predicate kernels (dictionary codes for string
//!   predicates), survivors flow through join probes and into sinks
//!   (aggregation states, hash-build tables, output buffers) without
//!   per-tuple indirect calls or allocation. LLVM JiT is substituted by
//!   ahead-of-time monomorphized kernels — see DESIGN.md §2.
//!
//! [`pipeline`] owns the one lowering, the one walk over a main store's
//! pieces (a resident table, or a cold one extent by extent) and the one
//! survivor loop (zone refutation → tombstone mask → block mask →
//! survivors, or over the rows at index hits). One [`pipeline::Drive`]
//! walks a piece with a worker count: the compiled engine is it at one
//! worker, [`ParallelEngine`] at many, over cache-sized row ranges
//! (morsels). The index path of `pdsm-core` runs through it too. A
//! storage feature is therefore implemented twice:
//! once there, once in Volcano, which reads a cold main through a
//! whole-table copy assembled for the run. The Fig.-3 bulk and vectorized
//! baselines live in `pdsm-bench`, over plain tables.
//!
//! Every engine aggregates through one [`Accumulator`], and it is
//! order-free: integer sums add in `i128`, float sums in an exact
//! superaccumulator rounded once at the end, and
//! float `min`/`max` order by `f64::total_cmp`. Row order, piece
//! boundaries and how partials are split and merged therefore never move
//! an output bit, which is what lets the parallel engine merge per-worker
//! partials for every aggregate.

pub mod compiled;
pub mod engine;
pub mod keys;
mod morsel;
pub mod pipeline;
pub mod result;
pub mod simd;
pub mod volcano;

pub use compiled::{compile_pred, zone_preds, PredKernel};
pub use engine::{
    masked_tail_row, tail_row_passes, Accumulator, CompiledEngine, Engine, ExecError, Overlay,
    ParallelEngine, TableProvider, VolcanoEngine,
};
pub use result::{QueryOutput, QueryResult};
pub use simd::{reset_scan_counters, scan_counters, set_mode_override, ScanCounters, SimdMode};
