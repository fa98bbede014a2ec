//! # pdsm-bench
//!
//! The end-to-end benchmark of the PDSM database: the real `pdsm-server`
//! driven over TCP by four workloads, plus a traced in-process run that
//! gives every layer a number. See `README.md` beside this package for
//! the metrics, the workloads and how to run, repeat and compare.

pub mod compare;
pub mod e2e;
pub mod report;
pub mod server;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod wire;
pub mod workload;
