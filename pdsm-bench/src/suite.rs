//! Running workloads: the phases of a run, where it keeps its files, and
//! the two kinds of run as one call each.

use crate::e2e::{self, RunConfig, Tally};
use crate::report::{end_to_end_metrics, per_layer_metrics, Header, Measured};
use crate::server::repo_root;
use crate::trace::{self, TraceConfig};
use crate::workload::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// How long and how often.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub scale: Scale,
    pub warmup: Duration,
    /// The timed window; also sizes the traced run's statement count.
    pub timed: Duration,
    pub setups: usize,
    pub recoveries: usize,
    /// The traced run's TCP pass.
    pub wire_budget: Duration,
}

impl Phases {
    /// The measured configuration: `--seconds` timed after a fixed
    /// warm-up, set-up and recovery five times each for a median.
    pub fn full(seconds: u64) -> Phases {
        Phases {
            scale: Scale::Full,
            warmup: Duration::from_secs(2),
            timed: Duration::from_secs(seconds),
            setups: 5,
            recoveries: 5,
            wire_budget: Duration::from_secs(3),
        }
    }

    /// Tiny scale, one-second phases: everything runs, nothing is steady.
    pub fn smoke() -> Phases {
        Phases {
            scale: Scale::Smoke,
            warmup: Duration::from_secs(1),
            timed: Duration::from_secs(1),
            setups: 1,
            recoveries: 1,
            wire_budget: Duration::from_secs(1),
        }
    }
}

/// Pin, in this process, the knobs the in-process databases read from
/// the environment, and clear every other `PDSM_*`. Call before any
/// thread exists.
pub fn pin_process_env() {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PDSM_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    // Merging, fsync policy, result cache and pool are set explicitly on
    // every in-process database; these three have no other handle.
    for (k, v) in crate::server::pinned_knobs(Workload::SapsdPoint, None) {
        if matches!(k, "PDSM_THREADS" | "PDSM_SIMD" | "PDSM_EXTENT_ROWS") {
            std::env::set_var(k, v);
        }
    }
}

/// Scratch space inside the checkout.
pub fn work_root() -> PathBuf {
    repo_root().join(".bench_work")
}

fn work_dir(workload: Workload, kind: &str) -> PathBuf {
    work_root().join(format!("{}-{kind}-{}", workload.name(), std::process::id()))
}

/// One finished run, ready to print.
pub struct RunOutput {
    /// `end_to_end` or `per_layer`.
    pub kind: &'static str,
    pub header: Header,
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    /// What else the run saw, one printable line each: the server's peak
    /// RSS, the repeats behind each median, its `STATS` deltas over the
    /// timed window.
    pub notes: Vec<String>,
}

/// The end-to-end run of one workload.
pub fn run_e2e(w: Workload, seed: u64, p: &Phases, server_bin: &Path) -> Result<RunOutput, String> {
    let report = e2e::run(&RunConfig {
        workload: w,
        scale: p.scale,
        seed,
        warmup: p.warmup,
        timed: p.timed,
        setups: p.setups,
        recoveries: p.recoveries,
        work_dir: work_dir(w, "e2e"),
        server_bin: server_bin.to_path_buf(),
    })?;
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut notes = vec![
        format!(
            "server rss_peak_mb (VmHWM after the timed phase): {:.1}",
            report.rss_peak_mb
        ),
        format!("setup_s repeats: {}", list(&report.setup_s)),
        format!("recovery_s repeats: {}", list(&report.recovery_s)),
    ];
    notes.extend(
        report
            .server_counters
            .iter()
            .map(|(k, v)| format!("server {k}: {v:+}")),
    );
    Ok(RunOutput {
        kind: "end_to_end",
        metrics: end_to_end_metrics(&report),
        header: Header {
            workload: w.name(),
            seed,
            warmup_s: p.warmup.as_secs_f64(),
            timed_s: p.timed.as_secs_f64(),
            knobs: report.knobs,
            pool_bytes: report.pool_bytes,
            data_dir_bytes: report.data_dir_bytes,
        },
        notes,
        tally: report.tally,
    })
}

/// The traced run of one workload.
pub fn run_traced(
    w: Workload,
    seed: u64,
    p: &Phases,
    server_bin: &Path,
) -> Result<RunOutput, String> {
    let statements =
        (w.traced_statements_per_second() as f64 * p.timed.as_secs_f64()).ceil() as usize;
    std::fs::create_dir_all(work_root()).map_err(|e| e.to_string())?;
    let report = trace::run(&TraceConfig {
        workload: w,
        scale: p.scale,
        seed,
        statements,
        wire_budget: p.wire_budget,
        work_dir: work_dir(w, "trace"),
        span_file: work_root().join(format!("{}-seed{seed}.spans.tsv", w.name())),
        server_bin: server_bin.to_path_buf(),
    })?;
    Ok(RunOutput {
        kind: "per_layer",
        metrics: per_layer_metrics(&report),
        header: Header {
            workload: w.name(),
            seed,
            warmup_s: 0.0,
            timed_s: p.timed.as_secs_f64(),
            knobs: report.knobs,
            pool_bytes: report.pool_bytes,
            data_dir_bytes: report.data_dir_bytes,
        },
        tally: report.tally,
        notes: Vec::new(),
    })
}
