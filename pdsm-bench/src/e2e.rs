//! The end-to-end run: build the data directory, start the real server,
//! drive it closed-loop over TCP, check what it answered and what it
//! holds, crash it and time its recovery. Tracing is off.

use crate::server::{pinned_knobs, ServerProc};
use crate::stats::{median, summarize, Summary};
use crate::wire::{judge, parse_invariant, reply_hash, Client, Failure, Reply};
use crate::workload::{
    apply_effect, invariant_sql, Class, Dataset, Effect, Expect, Model, Scale, Stream, Workload,
};
use pdsm_core::{
    Database, DurabilityConfig, FsyncMode, MaintenanceConfig, MaintenanceMode, ResultCacheConfig,
};
use pdsm_sql::{read_response, write_response, Session};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop connections, one thread each — `nproc` of the reference
/// host, so nothing queues.
pub const CONNECTIONS: usize = 2;
/// The tail percentile of the latency metrics. p95, not p99: while every
/// reply stalls ~44 ms on the wire a run completes a few hundred
/// statements, and p99 would rest on fewer than ten samples.
pub const TAIL_PCT: f64 = 0.95;

/// What to run and how long.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub warmup: Duration,
    pub timed: Duration,
    /// Set-ups per run (the median is reported; the last one is measured on).
    pub setups: usize,
    /// Crash-and-recover cycles per run (the median is reported).
    pub recoveries: usize,
    /// Scratch directory inside the checkout; created and removed here.
    pub work_dir: PathBuf,
    pub server_bin: PathBuf,
}

/// Failure bookkeeping for the whole command: every statement sent and
/// every check made is one attempt.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), Failure>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(f) => {
                self.failed += 1;
                if self.messages.len() < 8 {
                    self.messages.push(format!("{what}: {f:?}"));
                }
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything one end-to-end run measured.
#[derive(Debug, Clone)]
pub struct E2eReport {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    pub read_us: Option<Summary>,
    pub write_us: Option<Summary>,
    pub stmt_per_s: f64,
    /// The server's resident set once set-up is over: data recovered,
    /// indexes built, the first reply given — before any query load.
    pub rss_loaded_mb: f64,
    /// The server's `VmHWM` at the end of the timed phase.
    pub rss_peak_mb: f64,
    pub knobs: Vec<(&'static str, String)>,
    pub pool_bytes: Option<u64>,
    pub data_dir_bytes: u64,
    /// `STATS` deltas over the timed window, as the server counted them.
    pub server_counters: BTreeMap<String, i64>,
}

impl E2eReport {
    pub fn setup_median(&self) -> f64 {
        median(&self.setup_s).expect("at least one set-up")
    }

    pub fn recovery_median(&self) -> f64 {
        median(&self.recovery_s).expect("at least one recovery")
    }
}

/// No background merging in any database the harness itself opens: it
/// only builds directories, answers probes and replays the traced run.
pub fn merging_off() -> MaintenanceConfig {
    MaintenanceConfig {
        mode: MaintenanceMode::Off,
        ..MaintenanceConfig::default()
    }
}

/// Build the workload's data directory in-process — register every table
/// (which checkpoints it), bring the directory fully up to date, close
/// it — and return the seconds that took.
pub fn build_data_dir(ds: &Dataset, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    // Cloning the generated tables is the harness's cost, not set-up's.
    let tables = ds.tables.clone();
    let t0 = Instant::now();
    let db = Database::open_with_pool(
        DurabilityConfig::new(dir).with_fsync(FsyncMode::Batch),
        merging_off(),
        None,
    )
    .map_err(|e| format!("open {dir:?}: {e}"))?;
    for t in tables {
        db.try_register(t).map_err(|e| format!("register: {e}"))?;
    }
    db.checkpoint_all()
        .map_err(|e| format!("checkpoint: {e}"))?;
    drop(db);
    Ok(t0.elapsed().as_secs_f64())
}

/// The data set in an in-memory database: the reference the probes are
/// answered from, and the traced run's WAL-free twin.
pub fn memory_db(ds: &Dataset) -> Arc<Database> {
    let db = Database::with_maintenance(merging_off());
    db.set_result_cache(ResultCacheConfig::default());
    for t in ds.tables.clone() {
        db.register(t);
    }
    Arc::new(db)
}

/// Bytes under `dir`, and of those the checkpoint blobs (`main.*.tbl`).
pub fn dir_bytes(dir: &Path) -> (u64, u64) {
    let (mut total, mut main) = (0, 0);
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                total += meta.len();
                let name = e.file_name().to_string_lossy().into_owned();
                if name.starts_with("main.") && name.ends_with(".tbl") {
                    main += meta.len();
                }
            }
        }
    }
    (total, main)
}

/// The pool budget of `cold_pool`: a quarter of the checkpointed bytes.
pub fn pool_budget(workload: Workload, main_bytes: u64) -> Option<u64> {
    (workload == Workload::ColdPool).then_some(main_bytes / 4)
}

/// The reply hash of each probe, executed in-process: what gate (a)
/// holds the server's replies against.
pub fn probe_hashes(db: &Arc<Database>, probes: &[String]) -> Vec<u64> {
    let session = Session::new(Arc::clone(db));
    probes
        .iter()
        .map(|sql| {
            let mut wire = Vec::new();
            write_response(&mut wire, &session.statement(sql)).expect("write to a Vec");
            let resp = read_response(&mut io::BufReader::new(&wire[..])).expect("own rendering");
            reply_hash(&resp)
        })
        .collect()
}

/// Check every written table against `model` on `client` (gates b and c).
pub fn check_invariants(client: &mut Client, model: &Model, tally: &mut Tally, when: &str) -> bool {
    let mut all = true;
    for (table, want) in model {
        let outcome =
            client
                .send(&invariant_sql(table))
                .and_then(|resp| match parse_invariant(&resp) {
                    Some(got) if got == *want => Ok(()),
                    got => Err(Failure::Wrong(format!(
                    "{table} holds (count, key sum) {got:?}, the acknowledged writes make {want:?}"
                ))),
                });
        all &= tally.record(&format!("{when} invariant {table}"), outcome);
    }
    all
}

/// One connection's share of the closed loop.
struct ConnOutcome {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    tally: Tally,
    model_delta: Model,
}

fn drive_connection(
    ds: &Dataset,
    addr: std::net::SocketAddr,
    seed: u64,
    conn: usize,
    timed_start: Instant,
    timed_end: Instant,
) -> ConnOutcome {
    let mut out = ConnOutcome {
        read_us: Vec::new(),
        write_us: Vec::new(),
        tally: Tally::default(),
        model_delta: Model::new(),
    };
    let mut stream = Stream::new(seed, conn);
    let mut client: Option<Client> = None;
    while Instant::now() < timed_end {
        let c = match &mut client {
            Some(c) => c,
            None => match Client::connect(addr) {
                Ok(c) => client.insert(c),
                Err(f) => {
                    out.tally.record("connect", Err(f));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            },
        };
        let stmt = stream.next_stmt(ds);
        let sent = Instant::now();
        let reply = c.send(&stmt.sql);
        let done = Instant::now();
        // A broken or stalled connection cannot be resynchronized.
        if matches!(reply, Err(Failure::Malformed(_) | Failure::Timeout)) {
            client = None;
        }
        let verdict = judge(reply.map(|r| Reply::from(&r)), stmt.expect);
        let ok = out.tally.record(&stmt.sql, verdict);
        if ok {
            if let Some(e) = stmt.effect {
                apply_effect(&mut out.model_delta, e);
            }
            // Latency is client-side: request write to last reply byte.
            if sent >= timed_start && done <= timed_end {
                let us = (done - sent).as_secs_f64() * 1e6;
                match stmt.class {
                    Class::Read => out.read_us.push(us),
                    Class::Write => out.write_us.push(us),
                }
            }
        }
    }
    out
}

/// `STATS` as a name → value map.
fn poll_stats(client: &mut Client) -> BTreeMap<String, i64> {
    let mut out = BTreeMap::new();
    if let Ok(pdsm_sql::WireResponse::Rows { data, .. }) = client.send("STATS") {
        for line in data {
            if let Some((k, v)) = line.split_once('\t') {
                if let Ok(v) = v.parse() {
                    out.insert(k.to_string(), v);
                }
            }
        }
    }
    out
}

/// Start the server on `dir`, connect, and build the workload's indexes.
pub fn start_server(
    bin: &Path,
    dir: &Path,
    knobs: &[(&'static str, String)],
    ds: &Dataset,
    tally: &mut Tally,
) -> Result<(ServerProc, Client), String> {
    let server = ServerProc::spawn(bin, dir, knobs).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.addr).map_err(|f| format!("connect: {f:?}"))?;
    for ddl in &ds.index_ddl {
        let outcome = client.check(ddl, Expect::Count(0));
        tally.record(ddl, outcome);
    }
    Ok((server, client))
}

/// A server on a freshly built data directory, ready for the workload.
struct ReadySystem {
    server: ServerProc,
    control: Client,
    setup_s: f64,
    knobs: Vec<(&'static str, String)>,
    pool_bytes: Option<u64>,
    data_dir_bytes: u64,
}

/// Set-up as a user pays it: data-directory build, server start (recovery
/// of that directory), `CREATE INDEX`, until the first correct reply.
fn set_up(
    cfg: &RunConfig,
    ds: &Dataset,
    dir: &Path,
    tally: &mut Tally,
) -> Result<ReadySystem, String> {
    let build_s = build_data_dir(ds, dir)?;
    let (data_dir_bytes, main_bytes) = dir_bytes(dir);
    let pool_bytes = pool_budget(cfg.workload, main_bytes);
    let knobs = pinned_knobs(cfg.workload, pool_bytes);

    let t0 = Instant::now();
    let (server, mut control) = start_server(&cfg.server_bin, dir, &knobs, ds, tally)?;
    let first_ok = check_invariants(&mut control, &ds.initial_model, tally, "set-up");
    let start_s = t0.elapsed().as_secs_f64();
    if !first_ok {
        return Err("the freshly started server does not hold the generated data".into());
    }
    Ok(ReadySystem {
        server,
        control,
        setup_s: build_s + start_s,
        knobs,
        pool_bytes,
        data_dir_bytes,
    })
}

/// Run one workload end to end.
pub fn run(cfg: &RunConfig) -> Result<E2eReport, String> {
    let ds = Dataset::generate(cfg.workload, cfg.scale, cfg.seed);
    let mut tally = Tally::default();
    std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string())?;
    let dir = cfg.work_dir.join("data");

    // Set up several times; measure on the last.
    let mut setup_s = Vec::with_capacity(cfg.setups);
    let mut ready = set_up(cfg, &ds, &dir, &mut tally)?;
    setup_s.push(ready.setup_s);
    for _ in 1..cfg.setups {
        drop(ready);
        ready = set_up(cfg, &ds, &dir, &mut tally)?;
        setup_s.push(ready.setup_s);
    }
    let ReadySystem {
        server,
        mut control,
        knobs,
        pool_bytes,
        data_dir_bytes,
        ..
    } = ready;

    let rss_loaded_mb = server.status_kb("VmRSS").unwrap_or(0) as f64 / 1024.0;

    // Gate (a): the probes over TCP against the in-process replies.
    let probes = ds.probes();
    let expected = probe_hashes(&memory_db(&ds), &probes);
    for (sql, want) in probes.iter().zip(&expected) {
        let outcome = control.send(sql).and_then(|resp| {
            if reply_hash(&resp) == *want {
                Ok(())
            } else {
                Err(Failure::Wrong(
                    "reply hash differs from the in-process result".into(),
                ))
            }
        });
        tally.record(&format!("probe {sql}"), outcome);
    }

    // Warm-up runs straight into the timed window on the same
    // connections; only statements wholly inside the window are samples.
    let timed_start = Instant::now() + cfg.warmup;
    let timed_end = timed_start + cfg.timed;
    let addr = server.addr;
    let (outcomes, stats_before) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let ds = &ds;
                s.spawn(move || drive_connection(ds, addr, cfg.seed, c, timed_start, timed_end))
            })
            .collect();
        // Counters just outside the window: once before it opens…
        std::thread::sleep(
            timed_start
                .saturating_duration_since(Instant::now())
                .saturating_sub(Duration::from_millis(100)),
        );
        let before = poll_stats(&mut control);
        let outcomes: Vec<ConnOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (outcomes, before)
    });
    // …and once after it closed.
    let stats_after = poll_stats(&mut control);
    let server_counters = stats_after
        .iter()
        .map(|(k, v)| (k.clone(), v - stats_before.get(k).copied().unwrap_or(0)))
        .collect();

    let mut model = ds.initial_model.clone();
    let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
    for o in outcomes {
        tally.absorb(o.tally);
        read_us.extend(o.read_us);
        write_us.extend(o.write_us);
        for (table, (rows, key_sum)) in o.model_delta {
            apply_effect(
                &mut model,
                Effect {
                    table,
                    rows,
                    key_sum,
                },
            );
        }
    }
    let completed = read_us.len() + write_us.len();

    // Gate (b): the tables hold exactly the acknowledged writes.
    check_invariants(&mut control, &model, &mut tally, "after the timed phase");
    let rss_peak_mb = server.status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0;

    // Gate (c) and recovery: SIGKILL, respawn on the same directory,
    // until the first correct invariant reply. A process crash — the
    // operating system's cache survives, so this shows that no
    // acknowledged write depends on the dead process's memory, not that
    // it reached the disk.
    drop(control);
    let mut server = server;
    let mut recovery_s = Vec::with_capacity(cfg.recoveries);
    for _ in 0..cfg.recoveries {
        server.kill();
        let t0 = Instant::now();
        server = ServerProc::spawn(&cfg.server_bin, &dir, &knobs).map_err(|e| e.to_string())?;
        let mut c = Client::connect(server.addr).map_err(|f| format!("reconnect: {f:?}"))?;
        check_invariants(&mut c, &model, &mut tally, "after SIGKILL and restart");
        recovery_s.push(t0.elapsed().as_secs_f64());
    }
    server.kill();
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    Ok(E2eReport {
        tally,
        setup_s,
        recovery_s,
        read_us: summarize(&mut read_us, TAIL_PCT),
        write_us: summarize(&mut write_us, TAIL_PCT),
        stmt_per_s: completed as f64 / cfg.timed.as_secs_f64(),
        rss_loaded_mb,
        rss_peak_mb,
        knobs,
        pool_bytes,
        data_dir_bytes,
        server_counters,
    })
}
