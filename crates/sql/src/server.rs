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
//!   invalidations), so clients and CI can assert cache behaviour over
//!   the wire.
//! * `SHUTDOWN` — `OK 0`, then the whole server shuts down gracefully.
//!
//! Blank lines and `--` comment lines are ignored without a response, so
//! clients can stream `.sql` files verbatim.

use crate::session::{write_response, Response, Session};
use pdsm_core::Database;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

fn serve_connection(
    stream: TcpStream,
    db: Arc<Database>,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    // Short read timeouts let the session poll the shutdown flag while
    // idle. `read_until` keeps the bytes of a partial line in `buf`
    // across timeouts, even half a UTF-8 character; the line is decoded
    // once it is complete.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writeln!(writer, "HELLO pdsm-sql 1")?;
    writer.flush()?;
    let session = Session::new(Arc::clone(&db));
    let mut buf = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
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
    use pdsm_storage::{ColumnDef, DataType, Schema};

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
}
