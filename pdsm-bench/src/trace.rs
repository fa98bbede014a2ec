//! The traced run: connection 0's statement stream replayed
//! single-threaded in-process, a span around every public call a
//! `Session` makes for a statement, counters read at the run's
//! boundaries. Spans stay in memory and are written out at the end.
//!
//! Four passes over the same statements, each on its own copy of one
//! freshly built data directory (2 and 3 advance together, see [`run`]):
//!
//! 1. *wire* — the real server over TCP, one connection, for as many
//!    statements as a few seconds allow: the end-to-end side of
//!    `sql.wire_us`;
//! 2. *untraced* — `Session::statement` + `write_response` into a `Vec`:
//!    the in-process statement time everything else is held against;
//! 3. *traced* — the same calls made one by one under spans;
//! 4. *twin* — the write statements alone on an in-memory database: what
//!    the same writes cost without a WAL (`store.wal_us`).
//!
//! Merging is off in every in-process database; the harness calls
//! `Database::merge` itself at the workload's delta-op threshold, so a
//! merge is a timed call and every count repeats exactly.

use crate::e2e::{
    build_data_dir, dir_bytes, memory_db, merging_off, pool_budget, start_server, Tally,
};
use crate::server::pinned_knobs;
use crate::stats::{median, summarize};
use crate::wire::{judge, Reply};
use crate::workload::{invariant_sql, Class, Dataset, Scale, Stmt, Stream, Workload};
use pdsm_bench::cycles_now;
use pdsm_core::{
    BufferPool, Database, DurabilityConfig, EngineChoice, FsyncMode, ResultCacheConfig,
};
use pdsm_sql::{bind, parse, token, write_response, Response, Session, Statement};
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// Statements of connection 0's stream to replay.
    pub statements: usize,
    /// How long the wire pass may replay.
    pub wire_budget: Duration,
    pub work_dir: PathBuf,
    /// Where the spans are written when the run ends.
    pub span_file: PathBuf,
    pub server_bin: PathBuf,
}

/// The layer boundaries a span can sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One whole statement, request text to reply bytes.
    Statement,
    /// `token::lex` alone, called once more after the statement: `parse`
    /// runs its own lexer pass, which no span from out here can split
    /// off. Indicative only: it runs in whatever cache state the
    /// statement left behind.
    Lex,
    Parse,
    Bind,
    Plan,
    Exec,
    Insert,
    Update,
    Delete,
    Serialize,
    Merge,
}

impl Layer {
    const ALL: [Layer; 11] = [
        Layer::Statement,
        Layer::Lex,
        Layer::Parse,
        Layer::Bind,
        Layer::Plan,
        Layer::Exec,
        Layer::Insert,
        Layer::Update,
        Layer::Delete,
        Layer::Serialize,
        Layer::Merge,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Statement => "sql.statement",
            Layer::Lex => "sql.lex",
            Layer::Parse => "sql.parse",
            Layer::Bind => "sql.bind",
            Layer::Plan => "core.plan",
            Layer::Exec => "core.exec",
            Layer::Insert => "txn.insert",
            Layer::Update => "txn.update",
            Layer::Delete => "txn.delete",
            Layer::Serialize => "sql.serialize",
            Layer::Merge => "txn.merge",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One span: what ran, when, caused by which span, for which statement.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub stmt: u32,
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: Layer, parent: u32, stmt: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            stmt,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn span<R>(&mut self, layer: Layer, parent: u32, stmt: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer, parent, stmt);
        let r = f();
        self.close(id);
        r
    }

    /// Per layer: `(calls, total self ns)`. A span's self time is its
    /// duration minus the part its child spans cover.
    pub fn self_times(&self) -> [(usize, u64); Layer::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [(0usize, 0u64); Layer::ALL.len()];
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let slot = &mut out[s.layer as usize];
            slot.0 += 1;
            slot.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Write every span as one tab-separated line.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "span\tlayer\tstart_ns\tend_ns\tparent\tstatement")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.stmt
            )?;
        }
        w.flush()
    }
}

/// What the traced pass learns from the physical plans it executes.
#[derive(Default)]
struct PlanFacts {
    queries: usize,
    indexed: usize,
    /// Indexed by `EngineChoice as usize`.
    engine: [usize; 5],
    /// Measured / predicted cycles of executions the result cache did
    /// not serve.
    cost_ratios: Vec<f64>,
}

const ENGINES: [(EngineChoice, &str); 5] = [
    (EngineChoice::Volcano, "volcano"),
    (EngineChoice::Bulk, "bulk"),
    (EngineChoice::Vectorized, "vectorized"),
    (EngineChoice::Compiled, "compiled"),
    (EngineChoice::Parallel, "parallel"),
];

/// `Session::statement` + `write_response`, made call by call under spans.
fn traced_statement(
    db: &Database,
    sql: &str,
    id: u32,
    tr: &mut Tracer,
    facts: &mut PlanFacts,
    sink: &mut Vec<u8>,
) -> Response {
    let root = tr.open(Layer::Statement, NO_PARENT, id);
    let resp = (|| {
        let ast = tr
            .span(Layer::Parse, root, id, || parse(sql))
            .map_err(|e| e.to_string())?;
        let stmt = tr
            .span(Layer::Bind, root, id, || bind(&ast, db))
            .map_err(|e| e.to_string())?;
        let db_err = |e: pdsm_core::DbError| e.to_string();
        Ok(match stmt {
            Statement::Query(plan) => {
                let phys = tr
                    .span(Layer::Plan, root, id, || db.plan_query(&plan))
                    .map_err(db_err)?;
                facts.queries += 1;
                if phys.access().is_indexed() {
                    facts.indexed += 1;
                } else {
                    facts.engine[phys.engine as usize] += 1;
                }
                let served = |db: &Database| {
                    let r = db.cache_stats().result;
                    r.hits + r.fragment_hits
                };
                let served_before = phys.cache_admit.then(|| served(db));
                let c0 = cycles_now();
                let result = tr
                    .span(Layer::Exec, root, id, || db.execute_physical(&phys))
                    .map_err(db_err)?;
                let cycles = cycles_now().wrapping_sub(c0);
                let from_cache = served_before.is_some_and(|b| served(db) > b);
                if !from_cache && phys.cost.total() > 0.0 {
                    facts.cost_ratios.push(cycles as f64 / phys.cost.total());
                }
                Response::Rows {
                    columns: result.columns.clone(),
                    rows: result.into_output().rows,
                }
            }
            Statement::Insert { table, rows } => Response::Count(
                tr.span(Layer::Insert, root, id, || db.insert_batch(&table, &rows))
                    .map_err(db_err)?
                    .len(),
            ),
            Statement::Update { table, sets, pred } => Response::Count(
                tr.span(Layer::Update, root, id, || {
                    db.update_where(&table, &sets, pred.as_ref())
                })
                .map_err(db_err)?,
            ),
            Statement::Delete { table, pred } => Response::Count(
                tr.span(Layer::Delete, root, id, || {
                    db.delete_where(&table, pred.as_ref())
                })
                .map_err(db_err)?,
            ),
            other => return Err(format!("the streams hold no {other:?}")),
        })
    })()
    .unwrap_or_else(Response::Error);
    tr.span(Layer::Serialize, root, id, || {
        write_response(sink, &resp).expect("write to a Vec")
    });
    tr.close(root);
    tr.span(Layer::Lex, NO_PARENT, id, || {
        black_box(token::lex(black_box(sql)).is_ok())
    });
    resp
}

/// A merge the harness drove, with the reference scan on either side.
struct MergeSample {
    merge_ms: f64,
    scan_before_us: f64,
    scan_after_us: f64,
}

/// Calls `Database::merge` on the written table every `threshold` delta
/// ops — the scheduler's job, done in the open.
struct MergeDriver {
    table: &'static str,
    threshold: u64,
    ops: u64,
    samples: Vec<MergeSample>,
}

impl MergeDriver {
    fn new(ds: &Dataset) -> MergeDriver {
        MergeDriver {
            table: ds.written_tables()[0],
            threshold: ds.workload.merge_threshold(),
            ops: 0,
            samples: Vec::new(),
        }
    }

    /// The reference scan: the written table's invariant query, planned
    /// and executed, in µs.
    fn reference_scan_us(db: &Database, table: &str) -> f64 {
        let Ok(Statement::Query(plan)) = pdsm_sql::compile(&invariant_sql(table), db) else {
            panic!("the invariant query is a SELECT");
        };
        let t0 = Instant::now();
        black_box(db.execute(&plan).expect("reference scan"));
        t0.elapsed().as_secs_f64() * 1e6
    }

    /// Account an acknowledged write; merge when the threshold is crossed.
    fn after_write(&mut self, db: &Database, resp: &Response, tr: Option<(&mut Tracer, u32)>) {
        if let Response::Count(n) = resp {
            self.ops += *n as u64;
        }
        if self.ops < self.threshold {
            return;
        }
        self.ops = 0;
        let scan_before_us = Self::reference_scan_us(db, self.table);
        let t0 = Instant::now();
        match tr {
            Some((tr, id)) => tr.span(Layer::Merge, NO_PARENT, id, || db.merge(self.table)),
            None => db.merge(self.table),
        }
        .expect("merge");
        let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
        let scan_after_us = Self::reference_scan_us(db, self.table);
        self.samples.push(MergeSample {
            merge_ms,
            scan_before_us,
            scan_after_us,
        });
    }
}

fn open_db(dir: &Path, pool_bytes: Option<u64>) -> Result<Database, String> {
    let db = Database::open_with_pool(
        DurabilityConfig::new(dir).with_fsync(FsyncMode::Batch),
        merging_off(),
        pool_bytes.map(|b| BufferPool::new(b as usize)),
    )
    .map_err(|e| format!("open {dir:?}: {e}"))?;
    db.set_result_cache(ResultCacheConfig::default());
    Ok(db)
}

fn create_indexes(db: &Arc<Database>, ds: &Dataset) -> Result<(), String> {
    let session = Session::new(Arc::clone(db));
    for ddl in &ds.index_ddl {
        if let Response::Error(e) = session.statement(ddl) {
            return Err(format!("{ddl}: {e}"));
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        let dest = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &dest)?;
        } else {
            std::fs::copy(e.path(), dest)?;
        }
    }
    Ok(())
}

/// One per-layer metric as measured.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// Everything the traced run measured.
pub struct TraceReport {
    pub tally: Tally,
    pub metrics: Vec<LayerMetric>,
    pub knobs: Vec<(&'static str, String)>,
    pub pool_bytes: Option<u64>,
    pub data_dir_bytes: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> (f64, usize) {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    (ratio(sum, n as f64), n)
}

/// Pass 1: the first statements over TCP, one connection, until the
/// budget runs out. Returns each statement's latency in µs.
fn wire_pass(
    cfg: &TraceConfig,
    ds: &Dataset,
    stmts: &[Stmt],
    dir: &Path,
    knobs: &[(&'static str, String)],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let (server, mut client) = start_server(&cfg.server_bin, dir, knobs, ds, tally)?;
    let deadline = Instant::now() + cfg.wire_budget;
    let mut lat = Vec::new();
    for stmt in stmts {
        if Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let reply = client.send(&stmt.sql);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let verdict = judge(reply.map(|r| Reply::from(&r)), stmt.expect);
        if !tally.record(&stmt.sql, verdict) {
            break;
        }
        lat.push(us);
    }
    server.kill();
    Ok(lat)
}

/// Run the traced run of one workload.
pub fn run(cfg: &TraceConfig) -> Result<TraceReport, String> {
    let ds = Dataset::generate(cfg.workload, cfg.scale, cfg.seed);
    let mut stream = Stream::new(cfg.seed, 0);
    let stmts: Vec<Stmt> = (0..cfg.statements).map(|_| stream.next_stmt(&ds)).collect();
    let mut tally = Tally::default();
    let io = |e: std::io::Error| e.to_string();

    std::fs::create_dir_all(&cfg.work_dir).map_err(io)?;
    let base = cfg.work_dir.join("base");
    build_data_dir(&ds, &base)?;
    let (data_dir_bytes, main_bytes) = dir_bytes(&base);
    let pool_bytes = pool_budget(cfg.workload, main_bytes);
    let knobs = pinned_knobs(cfg.workload, pool_bytes);
    let dirs = ["wire", "untraced", "traced"].map(|d| cfg.work_dir.join(d));
    for d in &dirs {
        copy_dir(&base, d).map_err(io)?;
    }
    let [wire_dir, untraced_dir, traced_dir] = dirs;

    let wire_us = wire_pass(cfg, &ds, &stmts, &wire_dir, &knobs, &mut tally)?;

    // Passes 2 and 3 advance together, a block of statements at a time
    // on each of two databases, taking turns to go first. One whole pass
    // after the other and the later one is measured in a warmer process
    // (allocator, caches, clock), a drift worth more than the spans cost;
    // statement by statement and the two copies of the data evict each
    // other from the CPU caches.
    const BLOCK: usize = 8;
    let mut sink = Vec::with_capacity(1 << 16);
    let mut untraced_us = Vec::with_capacity(stmts.len());
    let mut tr = Tracer::new(stmts.len() * 7);
    let mut facts = PlanFacts::default();
    let mut merges = MergeDriver::new(&ds);
    let (mut reply_bytes, mut write_sql_bytes) = (0u64, 0u64);
    let mut scan = pdsm_core::ScanCounters::default();
    let plain_db = Arc::new(open_db(&untraced_dir, pool_bytes)?);
    create_indexes(&plain_db, &ds)?;
    let session = Session::new(Arc::clone(&plain_db));
    let mut plain_merges = MergeDriver::new(&ds);
    let db = Arc::new(open_db(&traced_dir, pool_bytes)?);
    create_indexes(&db, &ds)?;
    let (cache0, store0, pool0) = (db.cache_stats(), db.storage_stats(), db.pool_stats());
    for (b, block) in stmts.chunks(BLOCK).enumerate() {
        for traced in [b % 2 == 0, b % 2 != 0] {
            for (i, stmt) in (b * BLOCK..).zip(block) {
                sink.clear();
                let resp = if traced {
                    // The scan counters are the process's, not the
                    // database's: read them around this database's turn.
                    let before = db.scan_stats();
                    let resp =
                        traced_statement(&db, &stmt.sql, i as u32, &mut tr, &mut facts, &mut sink);
                    let after = db.scan_stats();
                    scan.simd_chunks += after.simd_chunks - before.simd_chunks;
                    scan.scalar_chunks += after.scalar_chunks - before.scalar_chunks;
                    scan.partitions_scanned += after.partitions_scanned - before.partitions_scanned;
                    scan.partitions_pruned += after.partitions_pruned - before.partitions_pruned;
                    reply_bytes += sink.len() as u64;
                    if stmt.class == Class::Write {
                        write_sql_bytes += stmt.sql.len() as u64;
                        merges.after_write(&db, &resp, Some((&mut tr, i as u32)));
                    }
                    resp
                } else {
                    let t0 = Instant::now();
                    let resp = session.statement(&stmt.sql);
                    write_response(&mut sink, &resp).expect("write to a Vec");
                    untraced_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    if stmt.class == Class::Write {
                        plain_merges.after_write(&plain_db, &resp, None);
                    }
                    resp
                };
                tally.record(&stmt.sql, judge(Ok(Reply::from(&resp)), stmt.expect));
            }
        }
    }
    let (cache1, store1, pool1) = (db.cache_stats(), db.storage_stats(), db.pool_stats());
    drop((session, plain_db, db));

    // The finished directory: reopen it (WAL replay), then bring it up
    // to date, with the reference scan on either side of the checkpoint.
    let t0 = Instant::now();
    let db = open_db(&traced_dir, pool_bytes)?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replay_ops = db.storage_stats().recovery_replay_ops;
    let table = merges.table;
    let scan_before_us = MergeDriver::reference_scan_us(&db, table);
    let t0 = Instant::now();
    db.checkpoint_all()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let scan_after_us = MergeDriver::reference_scan_us(&db, table);
    let disk_bytes = dir_bytes(&traced_dir).0;
    let live_bytes = db.byte_size();
    drop(db);

    // Pass 4: the writes alone on an in-memory twin.
    let mut twin_tr = Tracer::new(stmts.len());
    {
        let twin = memory_db(&ds);
        create_indexes(&twin, &ds)?;
        let mut twin_merges = MergeDriver::new(&ds);
        let mut twin_facts = PlanFacts::default();
        for (i, stmt) in stmts.iter().enumerate() {
            if stmt.class != Class::Write {
                continue;
            }
            sink.clear();
            let resp = traced_statement(
                &twin,
                &stmt.sql,
                i as u32,
                &mut twin_tr,
                &mut twin_facts,
                &mut sink,
            );
            tally.record(&stmt.sql, judge(Ok(Reply::from(&resp)), stmt.expect));
            twin_merges.after_write(&twin, &resp, None);
        }
    }
    tr.write_to(&cfg.span_file).map_err(io)?;
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    // ---- metrics ----
    let selfs = tr.self_times();
    let per_call_us = |l: Layer| {
        let (n, ns) = selfs[l as usize];
        (ratio(ns as f64 / 1e3, n as f64), n)
    };
    let n_stmt = stmts.len();
    let mut metrics: Vec<LayerMetric> = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64, n: usize| {
        metrics.push(LayerMetric {
            name: name.to_string(),
            unit,
            value,
            n,
        })
    };

    // sql.wire_us: the same first statements, over the wire and in-process.
    let m = wire_us.len();
    let wire_p50 = median(&wire_us).unwrap_or(0.0);
    let local_p50 = median(&untraced_us[..m]).unwrap_or(0.0);
    push("sql.wire_us", "us", wire_p50 - local_p50, m);

    for (layer, name) in [
        (Layer::Lex, "sql.lex_us"),
        (Layer::Parse, "sql.parse_us"),
        (Layer::Bind, "sql.bind_us"),
        (Layer::Serialize, "sql.serialize_us"),
        (Layer::Statement, "sql.session_us"),
        (Layer::Plan, "core.plan_us"),
        (Layer::Exec, "core.exec_us"),
        (Layer::Insert, "txn.insert_us"),
        (Layer::Update, "txn.update_us"),
        (Layer::Delete, "txn.delete_us"),
    ] {
        let (us, n) = per_call_us(layer);
        push(name, "us", us, n);
    }
    push(
        "sql.reply_bytes",
        "bytes",
        ratio(reply_bytes as f64, n_stmt as f64),
        n_stmt,
    );

    let plan_hits = (cache1.plan.hits - cache0.plan.hits) as f64;
    let plan_misses = (cache1.plan.misses - cache0.plan.misses) as f64;
    push(
        "core.plan_cache_hit_ratio",
        "ratio",
        ratio(plan_hits, plan_hits + plan_misses),
        (plan_hits + plan_misses) as usize,
    );
    for (choice, name) in ENGINES {
        push(
            &format!("core.engine_share.{name}"),
            "ratio",
            ratio(facts.engine[choice as usize] as f64, facts.queries as f64),
            facts.queries,
        );
    }
    push(
        "index.probe_share",
        "ratio",
        ratio(facts.indexed as f64, facts.queries as f64),
        facts.queries,
    );
    let cost = summarize(&mut facts.cost_ratios, 0.90);
    push(
        "core.cost_ratio_p50",
        "ratio",
        cost.map_or(0.0, |s| s.p50),
        cost.map_or(0, |s| s.n),
    );
    push(
        "core.cost_ratio_p90",
        "ratio",
        cost.map_or(0.0, |s| s.tail),
        cost.map_or(0, |s| s.n),
    );
    let served = (cache1.result.hits + cache1.result.fragment_hits
        - cache0.result.hits
        - cache0.result.fragment_hits) as f64;
    push(
        "core.result_cache_hit_ratio",
        "ratio",
        ratio(served, facts.queries as f64),
        facts.queries,
    );
    push(
        "core.result_cache_invalidations",
        "count",
        (cache1.result.invalidations - cache0.result.invalidations) as f64,
        1,
    );

    let (scanned, pruned) = (
        scan.partitions_scanned as f64,
        scan.partitions_pruned as f64,
    );
    let (simd, scalar) = (scan.simd_chunks as f64, scan.scalar_chunks as f64);
    push("exec.blocks_scanned", "count", scanned, 1);
    push(
        "exec.blocks_pruned_ratio",
        "ratio",
        ratio(pruned, pruned + scanned),
        (pruned + scanned) as usize,
    );
    push(
        "exec.simd_chunk_ratio",
        "ratio",
        ratio(simd, simd + scalar),
        (simd + scalar) as usize,
    );

    // store.wal_us: the same write calls, durable minus in-memory.
    let write_layers = [Layer::Insert, Layer::Update, Layer::Delete];
    let write_mean = |t: &Tracer| {
        let s = t.self_times();
        let calls: usize = write_layers.iter().map(|l| s[*l as usize].0).sum();
        let ns: u64 = write_layers.iter().map(|l| s[*l as usize].1).sum();
        (ratio(ns as f64 / 1e3, calls as f64), calls)
    };
    let (durable_us, n_writes) = write_mean(&tr);
    let (memory_us, _) = write_mean(&twin_tr);
    push("store.wal_us", "us", durable_us - memory_us, n_writes);
    let wal_bytes = (store1.wal_bytes_appended - store0.wal_bytes_appended) as f64;
    let appends = store1.wal_appends - store0.wal_appends;
    let fsyncs = store1.wal_fsyncs - store0.wal_fsyncs;
    let synced = store1.wal_appends_synced - store0.wal_appends_synced;
    push(
        "store.wal_bytes_per_user_byte",
        "ratio",
        ratio(wal_bytes, write_sql_bytes as f64),
        n_writes,
    );
    push("store.wal_appends", "count", appends as f64, 1);
    push("store.wal_fsyncs", "count", fsyncs as f64, 1);
    push(
        "store.wal_group_mean",
        "count",
        ratio(synced as f64, fsyncs as f64),
        fsyncs as usize,
    );

    let (merge_ms, n_merges) = mean(merges.samples.iter().map(|s| s.merge_ms));
    push("txn.merge_ms", "ms", merge_ms, n_merges);
    push("txn.merge_count", "count", n_merges as f64, 1);
    let (before, n_pairs) = mean(
        merges
            .samples
            .iter()
            .map(|s| s.scan_before_us)
            .chain([scan_before_us]),
    );
    let (after, _) = mean(
        merges
            .samples
            .iter()
            .map(|s| s.scan_after_us)
            .chain([scan_after_us]),
    );
    push(
        "txn.delta_scan_penalty",
        "ratio",
        ratio(before, after),
        n_pairs,
    );
    push("txn.checkpoint_ms", "ms", checkpoint_ms, 1);
    push(
        "store.disk_bytes_per_user_byte",
        "ratio",
        ratio(disk_bytes as f64, live_bytes as f64),
        1,
    );
    push("core.open_ms", "ms", open_ms, 1);
    push("core.recovery_replay_ops", "count", replay_ops as f64, 1);

    // pool.*: zero wherever no pool is configured.
    let p0 = pool0.unwrap_or_default();
    let p1 = pool1.unwrap_or_default();
    let hits = (p1.hits - p0.hits) as f64;
    let faults = p1.misses - p0.misses;
    let fault_ns = (p1.fault_ns_total - p0.fault_ns_total) as f64;
    push(
        "pool.hit_ratio",
        "ratio",
        ratio(hits, hits + faults as f64),
        hits as usize + faults as usize,
    );
    push("pool.faults", "count", faults as f64, 1);
    push(
        "pool.evictions",
        "count",
        (p1.evictions - p0.evictions) as f64,
        1,
    );
    push(
        "pool.fault_us_mean",
        "us",
        ratio(fault_ns / 1e3, faults as f64),
        faults as usize,
    );
    push(
        "pool.fault_us_max",
        "us",
        p1.fault_ns_max as f64 / 1e3,
        faults as usize,
    );
    push(
        "pool.skipped_faults",
        "count",
        (p1.skipped_faults - p0.skipped_faults) as f64,
        1,
    );
    push(
        "pool.overcommits",
        "count",
        (p1.overcommits - p0.overcommits) as f64,
        1,
    );
    push(
        "pool.peak_resident_over_budget",
        "ratio",
        ratio(p1.peak_resident_bytes as f64, p1.budget_bytes as f64),
        1,
    );

    // The trace against the untraced pass, statement by statement: the
    // median of the paired ratios shrugs off the odd slow statement that
    // would swing a ratio of totals.
    let traced_us: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Statement)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let paired: Vec<f64> = traced_us
        .iter()
        .zip(&untraced_us)
        .map(|(t, u)| t / u)
        .collect();
    let overhead = median(&paired).unwrap_or(0.0);
    let layer_total_us: f64 = Layer::ALL
        .iter()
        .filter(|l| !matches!(l, Layer::Statement | Layer::Lex | Layer::Merge))
        .map(|l| selfs[*l as usize].1 as f64 / 1e3)
        .sum();
    let layer_share = ratio(layer_total_us, traced_us.iter().sum());
    let untraced_total: f64 = untraced_us.iter().sum();
    push(
        "trace.stmt_us",
        "us",
        ratio(untraced_total, n_stmt as f64),
        n_stmt,
    );
    push("trace.overhead_ratio", "ratio", overhead, paired.len());
    push(
        "trace.layer_sum_ratio",
        "ratio",
        overhead * layer_share,
        paired.len(),
    );
    push("trace.statements", "count", n_stmt as f64, 1);

    Ok(TraceReport {
        tally,
        metrics,
        knobs,
        pool_bytes,
        data_dir_bytes,
    })
}
