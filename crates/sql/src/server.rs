//! Line-protocol TCP server over `Arc<Database>`.
//!
//! One OS thread per connection, each running its own [`Session`]. The
//! accept loop enforces a connection limit (excess connections get
//! `ERR server at capacity` and are closed) and supports graceful
//! shutdown: new connections are refused, live sessions are drained, and
//! every thread is joined before [`SqlServer::shutdown`] returns.
//!
//! Connection-level commands (not SQL, handled by the server loop):
//!
//! * `QUIT` / `EXIT` — `BYE`, then the connection closes.
//! * `STATS` — a two-column `metric / value` result with the database's
//!   plan- and result-cache counters (hit rates, resident bytes,
//!   invalidations), the buffer pool's when there is one, and the main
//!   stores' arena and dictionary bytes, so clients and CI can assert
//!   cache and memory behaviour over the wire.
//! * `SHUTDOWN` — `OK 0`, then the whole server shuts down gracefully.
//!
//! Blank lines and `--` comment lines are ignored without a response, so
//! clients can stream `.sql` files verbatim.
//!
//! Hostile clients are bounded on both sides. A request line longer than
//! [`MAX_LINE_BYTES`] gets `ERR …` and the connection closes. A client
//! that stops reading stalls only its own session, and only until the
//! server shuts down or [`WRITE_STALL`] passes without the client taking
//! a byte; then the session drops the connection.

use crate::session::{write_response, Response, Session};
use pdsm_core::Database;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line a session accepts, newline excluded: 1 MiB,
/// far above any statement a client of this protocol sends.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a reply may wait on a client that reads none of it before the
/// session drops the connection.
pub const WRITE_STALL: Duration = Duration::from_secs(30);

/// How often a blocked read or write wakes to look at the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Server knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent sessions; further connections are refused with
    /// `ERR server at capacity`.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_sessions: 64 }
    }
}

/// A running SQL server. Dropping it without calling
/// [`SqlServer::shutdown`] leaves the accept thread running detached;
/// call `shutdown()` (or send `SHUTDOWN` over the wire and [`SqlServer::wait`])
/// for an orderly stop.
pub struct SqlServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl SqlServer {
    /// Bind `bind_addr` (e.g. `127.0.0.1:0`) and start accepting
    /// connections against `db`.
    pub fn start(
        db: Arc<Database>,
        bind_addr: &str,
        cfg: ServerConfig,
    ) -> std::io::Result<SqlServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || accept_loop(listener, db, cfg, shutdown))
        };
        Ok(SqlServer {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal shutdown, wake the acceptor, and join every thread. Live
    /// sessions finish their in-flight statement and disconnect.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until the server stops on its own (a client sent `SHUTDOWN`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    db: Arc<Database>,
    cfg: ServerConfig,
    shutdown: Arc<AtomicBool>,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        handles.retain(|h| !h.is_finished());
        if active.load(Ordering::SeqCst) >= cfg.max_sessions {
            let mut s = stream;
            let _ = write_response(&mut s, &Response::Error("server at capacity".into()));
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let db = Arc::clone(&db);
        let shutdown = Arc::clone(&shutdown);
        let active = Arc::clone(&active);
        let server_addr = listener.local_addr().ok();
        handles.push(std::thread::spawn(move || {
            let _ = serve_connection(stream, db, &shutdown);
            active.fetch_sub(1, Ordering::SeqCst);
            // If this session initiated shutdown, wake the acceptor.
            if shutdown.load(Ordering::SeqCst) {
                if let Some(addr) = server_addr {
                    let _ = TcpStream::connect(addr);
                }
            }
        }));
    }
    for h in handles {
        let _ = h.join();
    }
}

/// The socket a session writes its replies to. A write the client does not
/// drain waits in [`POLL`] steps, and fails once the server shuts down or
/// [`WRITE_STALL`] passes with no byte taken; every write after that fails
/// at once, so the rest of a reply does not wait again.
struct ReplySocket<'a> {
    stream: TcpStream,
    shutdown: &'a AtomicBool,
    stalled: bool,
}

impl Write for ReplySocket<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let since = Instant::now();
        while !self.stalled {
            match self.stream.write(buf) {
                Err(e) if is_timeout(&e) => {
                    self.stalled =
                        self.shutdown.load(Ordering::SeqCst) || since.elapsed() >= WRITE_STALL;
                }
                done => return done,
            }
        }
        Err(ErrorKind::TimedOut.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

fn serve_connection(
    stream: TcpStream,
    db: Arc<Database>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // Short timeouts let the session poll the shutdown flag while idle or
    // while a client is not reading. `read_until` keeps the bytes of a
    // partial line in `buf` across timeouts, even half a UTF-8 character;
    // the line is decoded once it is complete.
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))?;
    let mut writer = ReplySocket {
        stream: stream.try_clone()?,
        shutdown,
        stalled: false,
    };
    let mut reader = BufReader::new(stream);
    writeln!(writer, "HELLO pdsm-sql 1")?;
    writer.flush()?;
    let session = Session::new(Arc::clone(&db));
    let mut buf = Vec::new();
    loop {
        // At most one byte past the cap, so an over-long line is caught
        // without buffering more of it.
        let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') => {
                let err = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                write_response(&mut writer, &Response::Error(err))?;
                return Ok(());
            }
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let bytes = std::mem::take(&mut buf);
        let Ok(line) = std::str::from_utf8(&bytes) else {
            let err = Response::Error("statement is not valid UTF-8".into());
            write_response(&mut writer, &err)?;
            continue;
        };
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        match line.to_ascii_uppercase().as_str() {
            "QUIT" | "EXIT" => {
                writeln!(writer, "BYE")?;
                writer.flush()?;
                return Ok(());
            }
            "STATS" => {
                write_response(&mut writer, &stats_response(&db))?;
                continue;
            }
            "SHUTDOWN" => {
                write_response(&mut writer, &Response::Count(0))?;
                shutdown.store(true, Ordering::SeqCst);
                return Ok(());
            }
            _ => {}
        }
        let resp = session.statement(line);
        write_response(&mut writer, &resp)?;
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// The `STATS` command's payload: every plan- and result-cache counter as
/// a `metric / value` row, in a fixed order so clients can parse by line.
fn stats_response(db: &Database) -> Response {
    use pdsm_storage::Value;
    let s = db.cache_stats();
    let rows: Vec<(&str, i64)> = vec![
        ("result_cache_enabled", s.result.enabled as i64),
        ("result_cache_budget_bytes", s.result.budget_bytes as i64),
        ("result_cache_bytes", s.result.bytes as i64),
        ("result_cache_entries", s.result.entries as i64),
        ("result_cache_hits", s.result.hits as i64),
        ("result_cache_misses", s.result.misses as i64),
        ("result_cache_bypasses", s.result.bypasses as i64),
        ("result_cache_evictions", s.result.evictions as i64),
        ("result_cache_invalidations", s.result.invalidations as i64),
        ("result_cache_insertions", s.result.insertions as i64),
        ("plan_cache_hits", s.plan.hits as i64),
        ("plan_cache_misses", s.plan.misses as i64),
        ("plan_cache_evictions", s.plan.evictions as i64),
        ("plan_cache_invalidations", s.plan.invalidations as i64),
        ("plan_cache_entries", s.plan.entries as i64),
    ];
    // Buffer-pool counters ride along when pooling is enabled; an
    // all-resident database reports none, keeping the fixed prefix above
    // byte-stable for existing clients.
    let mut rows = rows;
    if let Some(p) = db.pool_stats() {
        rows.extend([
            ("pool_budget_bytes", p.budget_bytes as i64),
            ("pool_resident_bytes", p.resident_bytes as i64),
            ("pool_peak_resident_bytes", p.peak_resident_bytes as i64),
            ("pool_frames", p.frames as i64),
            ("pool_pinned_frames", p.pinned_frames as i64),
            ("pool_hits", p.hits as i64),
            ("pool_misses", p.misses as i64),
            ("pool_evictions", p.evictions as i64),
            ("pool_overcommits", p.overcommits as i64),
            ("pool_skipped_faults", p.skipped_faults as i64),
            ("pool_fault_ns_total", p.fault_ns_total as i64),
            ("pool_fault_ns_max", p.fault_ns_max as i64),
        ]);
    }
    // The main stores' memory: resident arenas, and every dictionary.
    let st = db.storage_stats();
    rows.extend([
        ("store_main_bytes", st.main_bytes as i64),
        ("store_dict_bytes", st.dict_bytes as i64),
    ]);
    Response::Rows {
        columns: vec!["metric".into(), "value".into()],
        rows: rows
            .into_iter()
            .map(|(m, v)| vec![Value::Str(m.to_string()), Value::Int64(v)])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{read_response, WireResponse};
    use pdsm_storage::{ColumnDef, DataType, Layout, Schema, Table, Value};

    fn server() -> SqlServer {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("s", DataType::Str),
            ]),
        )
        .unwrap();
        SqlServer::start(Arc::new(db), "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            let writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut greeting = String::new();
            reader.read_line(&mut greeting).unwrap();
            assert!(greeting.starts_with("HELLO pdsm-sql"), "{greeting:?}");
            Client { reader, writer }
        }

        fn send(&mut self, sql: &str) -> WireResponse {
            writeln!(self.writer, "{sql}").unwrap();
            self.writer.flush().unwrap();
            read_response(&mut self.reader).unwrap()
        }
    }

    #[test]
    fn insert_query_quit_over_tcp() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        assert_eq!(
            c.send("INSERT INTO t VALUES (1, 'x'), (2, 'y')"),
            WireResponse::Count(2)
        );
        match c.send("SELECT a, s FROM t ORDER BY 1") {
            WireResponse::Rows { header, data } => {
                assert_eq!(header, "a\ts");
                assert_eq!(data, vec!["1\tx", "2\ty"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match c.send("SELECT * FROM nosuch") {
            WireResponse::Error(msg) => assert!(msg.contains("unknown table")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.send("QUIT"), WireResponse::Bye);
        srv.shutdown();
    }

    #[test]
    fn concurrent_sessions_and_graceful_shutdown() {
        let srv = server();
        let addr = srv.local_addr();
        let mut a = Client::connect(addr);
        let mut b = Client::connect(addr);
        assert_eq!(a.send("CREATE TABLE ta (x INT)"), WireResponse::Count(0));
        assert_eq!(b.send("CREATE TABLE tb (y INT)"), WireResponse::Count(0));
        let ha = std::thread::spawn(move || {
            for i in 0..50 {
                let r = a.send(&format!("INSERT INTO ta VALUES ({i})"));
                assert_eq!(r, WireResponse::Count(1));
            }
            a.send("SELECT count(*) FROM ta")
        });
        let hb = std::thread::spawn(move || {
            for i in 0..50 {
                let r = b.send(&format!("INSERT INTO tb VALUES ({i})"));
                assert_eq!(r, WireResponse::Count(1));
            }
            b.send("SELECT count(*) FROM tb")
        });
        for h in [ha, hb] {
            match h.join().unwrap() {
                WireResponse::Rows { data, .. } => assert_eq!(data, vec!["50"]),
                other => panic!("unexpected {other:?}"),
            }
        }
        srv.shutdown();
    }

    #[test]
    fn stats_command_reports_cache_counters() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        for i in 0..4 {
            assert_eq!(
                c.send(&format!("INSERT INTO t VALUES ({i}, 'x')")),
                WireResponse::Count(1)
            );
        }
        // Two identical aggregates: the second can hit the result cache.
        for _ in 0..2 {
            match c.send("SELECT count(*) FROM t WHERE a > 0") {
                WireResponse::Rows { data, .. } => assert_eq!(data, vec!["3"]),
                other => panic!("unexpected {other:?}"),
            }
        }
        match c.send("STATS") {
            WireResponse::Rows { header, data } => {
                assert_eq!(header, "metric\tvalue");
                assert!(data.iter().any(|l| l.starts_with("result_cache_enabled\t")));
                assert!(data.iter().any(|l| l.starts_with("plan_cache_hits\t")));
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    /// `STATS` ends with the main stores' memory: the arena bytes of a
    /// resident main and its dictionaries' heap bytes.
    #[test]
    fn stats_command_reports_main_store_memory_last() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int32),
            ColumnDef::new("s", DataType::Str),
        ]);
        let mut t = Table::with_layout("m", schema, Layout::column(2)).unwrap();
        for i in 0..100 {
            t.insert(&[Value::Int32(i), Value::from(format!("s{}", i % 10))])
                .unwrap();
        }
        let (arena, dict) = (t.byte_size(), t.dict_bytes());
        assert_eq!(arena, 100 * (4 + 4));
        assert!(dict >= 20, "{dict}");
        let db = Database::new();
        db.register(t);
        let srv = SqlServer::start(Arc::new(db), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(srv.local_addr());
        match c.send("STATS") {
            WireResponse::Rows { data, .. } => {
                let tail = &data[data.len() - 2..];
                assert_eq!(
                    tail,
                    [
                        format!("store_main_bytes\t{arena}"),
                        format!("store_dict_bytes\t{dict}")
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn session_limit_refuses_excess_connections() {
        let db = Arc::new(Database::new());
        let srv = SqlServer::start(db, "127.0.0.1:0", ServerConfig { max_sessions: 1 }).unwrap();
        let _c1 = Client::connect(srv.local_addr());
        // Give the acceptor a moment to register the first session.
        std::thread::sleep(Duration::from_millis(100));
        let stream = TcpStream::connect(srv.local_addr()).unwrap();
        let mut reader = BufReader::new(stream);
        match read_response(&mut reader).unwrap() {
            WireResponse::Error(msg) => assert!(msg.contains("capacity"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let srv = server();
        let addr = srv.local_addr();
        let mut c = Client::connect(addr);
        assert_eq!(c.send("SHUTDOWN"), WireResponse::Count(0));
        srv.wait();
        // New connections are no longer served.
        assert!(
            TcpStream::connect(addr).is_err() || {
                let s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(200)))
                    .unwrap();
                let mut r = BufReader::new(s);
                let mut line = String::new();
                matches!(r.read_line(&mut line), Ok(0) | Err(_))
            }
        );
    }

    #[test]
    fn a_character_split_across_reads_survives() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        // 'ü' is 0xC3 0xBC: send the first byte, outwait several read
        // timeouts, then send the rest of the line.
        c.writer
            .write_all(b"INSERT INTO t VALUES (1, 'M\xC3")
            .unwrap();
        c.writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(200));
        c.writer.write_all(b"\xBCller')\n").unwrap();
        c.writer.flush().unwrap();
        assert_eq!(
            read_response(&mut c.reader).unwrap(),
            WireResponse::Count(1)
        );
        match c.send("SELECT s FROM t WHERE a = 1") {
            WireResponse::Rows { data, .. } => assert_eq!(data, vec!["Müller"]),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn an_invalid_utf8_line_is_an_error_not_a_hangup() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        c.writer.write_all(b"SELECT '\xFF'\n").unwrap();
        c.writer.flush().unwrap();
        match read_response(&mut c.reader).unwrap() {
            WireResponse::Error(msg) => assert!(msg.contains("UTF-8"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.send("INSERT INTO t VALUES (2, 'y')"),
            WireResponse::Count(1)
        );
        srv.shutdown();
    }

    #[test]
    fn an_over_long_line_is_refused_and_the_connection_closes() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        // A line at the cap is served (a comment: no reply at all).
        let mut line = vec![b'-'; MAX_LINE_BYTES];
        line.push(b'\n');
        c.writer.write_all(&line).unwrap();
        assert_eq!(
            c.send("INSERT INTO t VALUES (1, 'x')"),
            WireResponse::Count(1)
        );
        // One byte more, and no newline in sight.
        c.writer.write_all(&vec![b'x'; MAX_LINE_BYTES + 1]).unwrap();
        c.writer.flush().unwrap();
        match read_response(&mut c.reader).unwrap() {
            WireResponse::Error(msg) => assert!(msg.contains("exceeds"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let mut rest = String::new();
        assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");
        srv.shutdown();
    }

    #[test]
    fn a_client_that_never_reads_does_not_hold_up_shutdown() {
        let srv = server();
        let mut c = Client::connect(srv.local_addr());
        let wide = "w".repeat(1_000);
        let values: Vec<String> = (0..200).map(|i| format!("({i}, '{wide}')")).collect();
        let insert = format!("INSERT INTO t VALUES {}", values.join(", "));
        assert_eq!(c.send(&insert), WireResponse::Count(200));
        // ~200 KB per reply, 100 replies: far more than the socket buffers
        // hold, and the client reads none of it.
        for _ in 0..100 {
            c.writer.write_all(b"SELECT a, s FROM t\n").unwrap();
        }
        c.writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        let (done, stopped) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            srv.shutdown();
            let _ = done.send(());
        });
        assert!(
            stopped.recv_timeout(Duration::from_secs(10)).is_ok(),
            "shutdown waited on a client that does not read"
        );
        stopper.join().unwrap();
        drop(c);
    }
}
