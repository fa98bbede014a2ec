//! `pdsm-server` — serve a database over the line protocol.
//!
//! ```text
//! pdsm-server [--listen ADDR] [--max-sessions N] [--seed SPEC]
//!             [--port-file PATH] [--data-dir PATH]
//!
//!   --listen ADDR        bind address (default 127.0.0.1:5433; use :0 for
//!                        an ephemeral port)
//!   --max-sessions N     concurrent session limit (default 64)
//!   --seed SPEC          preload a workload:
//!                          sapsd:<scale>:<seed>       SAP-SD tables
//!                          microbench:<rows>:<seed>   microbench table R
//!   --port-file PATH     write the bound port number to PATH once ready
//!   --data-dir PATH      durable mode: recover the directory's tables on
//!                        start (WAL replay), write-ahead-log every DML,
//!                        checkpoint on merge and on clean SHUTDOWN.
//!                        Fsync policy from PDSM_FSYNC (always|batch|
//!                        group|off, default batch; any other value is
//!                        refused at start).
//! ```
//!
//! With `--data-dir`, `--seed` loads its tables only when they are not
//! already present from recovery — so "restart with the same flags" is
//! always safe and never clobbers survived data.
//!
//! The server runs until a client sends `SHUTDOWN`; a durable server then
//! checkpoints every table so the next start replays nothing.

use pdsm_core::Database;
use pdsm_sql::{ServerConfig, SqlServer};
use pdsm_storage::Layout;
use std::sync::Arc;

fn main() {
    let mut listen = "127.0.0.1:5433".to_string();
    let mut max_sessions = 64usize;
    let mut seed_spec: Option<String> = None;
    let mut port_file: Option<String> = None;
    let mut data_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--listen" => listen = take("--listen"),
            "--max-sessions" => {
                max_sessions = take("--max-sessions").parse().unwrap_or_else(|_| {
                    eprintln!("bad --max-sessions value");
                    std::process::exit(2);
                })
            }
            "--seed" => seed_spec = Some(take("--seed")),
            "--port-file" => port_file = Some(take("--port-file")),
            "--data-dir" => data_dir = Some(take("--data-dir")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: pdsm-server [--listen ADDR] [--max-sessions N] \
                     [--seed sapsd:SCALE:SEED|microbench:ROWS:SEED] [--port-file PATH] \
                     [--data-dir PATH]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let db = match &data_dir {
        Some(dir) => {
            let db = Database::open(dir).unwrap_or_else(|e| {
                eprintln!("cannot open data dir {dir:?}: {e}");
                std::process::exit(1);
            });
            let recovered = db.table_names();
            if !recovered.is_empty() {
                let replayed = db.storage_stats().recovery_replay_ops;
                eprintln!(
                    "pdsm-server recovered {} table(s) from {dir:?} ({replayed} WAL op(s) replayed): {}",
                    recovered.len(),
                    recovered.join(", ")
                );
            }
            db
        }
        None => Database::new(),
    };
    if let Some(spec) = &seed_spec {
        seed(&db, spec).unwrap_or_else(|e| {
            eprintln!("bad --seed {spec:?}: {e}");
            std::process::exit(2);
        });
    }

    let db = Arc::new(db);
    let server = SqlServer::start(Arc::clone(&db), &listen, ServerConfig { max_sessions })
        .unwrap_or_else(|e| {
            eprintln!("cannot bind {listen}: {e}");
            std::process::exit(1);
        });
    let addr = server.local_addr();
    eprintln!("pdsm-server listening on {addr} (send SHUTDOWN to stop)");
    if let Some(path) = &port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    server.wait();
    // Clean shutdown: checkpoint so the next start replays zero WAL ops.
    if db.is_durable() {
        match db.checkpoint_all() {
            Ok(()) => eprintln!("pdsm-server checkpointed all tables"),
            Err(e) => eprintln!("pdsm-server checkpoint failed: {e}"),
        }
    }
    let s = db.cache_stats();
    eprintln!(
        "pdsm-server cache summary: result hits={} misses={} \
         bypasses={} hit_rate={:.1}% bytes={} evictions={} invalidations={} | \
         plan hits={} misses={} evictions={}",
        s.result.hits,
        s.result.misses,
        s.result.bypasses,
        s.result.hit_rate() * 100.0,
        s.result.bytes,
        s.result.evictions,
        s.result.invalidations,
        s.plan.hits,
        s.plan.misses,
        s.plan.evictions,
    );
    eprintln!("pdsm-server stopped");
}

/// Parse `sapsd:<scale>:<seed>` / `microbench:<rows>:<seed>` and load the
/// corresponding tables. Tables that already exist (recovered from a data
/// directory) are kept, not reseeded.
fn seed(db: &Database, spec: &str) -> Result<(), String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [kind, a, b] = parts.as_slice() else {
        return Err("expected <kind>:<n>:<seed>".into());
    };
    let n: usize = a.parse().map_err(|_| format!("bad count {a:?}"))?;
    let rng_seed: u64 = b.parse().map_err(|_| format!("bad seed {b:?}"))?;
    let existing = db.table_names();
    let load = |t: pdsm_storage::Table| {
        if existing.iter().any(|name| name == t.name()) {
            eprintln!(
                "pdsm-server seed: table {:?} recovered, not reseeded",
                t.name()
            );
        } else {
            db.register(t);
        }
    };
    match *kind {
        "sapsd" => {
            for t in pdsm_workloads::sapsd::tables(n, rng_seed) {
                load(t);
            }
        }
        "microbench" => {
            load(pdsm_workloads::microbench::generate(
                n,
                0.1,
                Layout::row(16),
                rng_seed,
            ));
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}
