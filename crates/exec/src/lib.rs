//! # pdsm-exec
//!
//! The three query-processing models the paper compares (§II-A, §III, Fig. 3):
//!
//! * [`volcano`] — tuple-at-a-time iterators wired with `dyn` dispatch and
//!   boxed predicate closures. This is the *deliberately* CPU-inefficient
//!   baseline: every tuple pays virtual calls and `Value` boxing, exactly
//!   the "function pointer chasing" the paper attributes to Volcano.
//! * [`bulk`] — MonetDB-style column-at-a-time primitives. Each primitive is
//!   a tight typed loop, but every step **fully materializes** its result
//!   (position vectors, fetched value buffers) before the next step runs.
//! * [`vectorized`] — MonetDB/X100-style block-at-a-time processing with
//!   cache-resident selection vectors: primitive dispatch amortized per
//!   vector, no full-column materialization (the middle ground §II-A
//!   describes; used for the vectorization-vs-compilation ablation).
//! * [`compiled`] — the paper's contribution, transplanted: data-centric
//!   fused pipelines. Each pipeline runs as one loop over the scan; filters
//!   are pre-lowered to typed predicate kernels (dictionary codes for string
//!   predicates), survivors flow through join probes and into sinks
//!   (aggregation states, hash-build tables, output buffers) without
//!   per-tuple indirect calls or allocation. LLVM JiT is substituted by
//!   ahead-of-time monomorphized kernels — see DESIGN.md §2.
//!
//! All engines implement [`engine::Engine`] and are differential-tested to
//! produce identical results on identical plans.

pub mod bulk;
pub mod compiled;
pub mod engine;
pub mod keys;
pub mod pipeline;
pub mod result;
pub mod simd;
pub mod vectorized;
pub mod volcano;

pub use compiled::{compile_pred, zone_preds, PredKernel};
pub use engine::{
    masked_tail_row, tail_row_passes, Accumulator, BulkEngine, CompiledEngine, Engine, ExecError,
    Overlay, TableProvider, VolcanoEngine,
};
pub use result::{QueryOutput, QueryResult};
pub use simd::{reset_scan_counters, scan_counters, set_mode_override, ScanCounters, SimdMode};
pub use vectorized::VectorizedEngine;
