//! End-to-end TCP tests: a SAP-SD-seeded server driven over the wire
//! protocol — queries, EXPLAIN, concurrent DML on disjoint tables,
//! byte-exact replies, graceful shutdown, and byte-soup clients.

use mrdb::prelude::*;
use mrdb::sql::{read_response, write_response, WireResponse};
use mrdb::workloads::sapsd;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sapsd_db(scale: usize) -> Arc<Database> {
    let db = Database::new();
    for t in sapsd::tables(scale, 42) {
        db.register(t);
    }
    Arc::new(db)
}

fn sapsd_server(scale: usize) -> SqlServer {
    SqlServer::start(sapsd_db(scale), "127.0.0.1:0", ServerConfig::default()).unwrap()
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &SqlServer) -> Client {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut greeting = String::new();
        reader.read_line(&mut greeting).unwrap();
        assert_eq!(greeting.trim_end(), "HELLO pdsm-sql 1");
        Client {
            reader,
            writer: stream,
        }
    }

    fn send(&mut self, sql: &str) -> WireResponse {
        writeln!(self.writer, "{sql}").unwrap();
        read_response(&mut self.reader).unwrap()
    }

    fn rows(&mut self, sql: &str) -> Vec<String> {
        match self.send(sql) {
            WireResponse::Rows { data, .. } => data,
            other => panic!("{sql:?} → {other:?}"),
        }
    }
}

#[test]
fn sapsd_queries_over_tcp() {
    let server = sapsd_server(200);
    let mut c = Client::connect(&server);

    // A point lookup with a known literal (scale 200 → customer C0000006).
    let rows = c.rows("SELECT KUNNR, NAME1 FROM KNA1 WHERE KUNNR = 'C0000006'");
    assert_eq!(rows.len(), 1);
    assert!(rows[0].starts_with("C0000006\t"));

    // An aggregate matches an in-process execution of the same text.
    let rows = c.rows("SELECT count(*) FROM VBAP");
    assert_eq!(rows.len(), 1);
    let n: i64 = rows[0].parse().unwrap();
    assert!(n > 0);

    // EXPLAIN returns the physical plan, not results.
    let plan = c.rows("EXPLAIN SELECT count(*) FROM VBAP").join("\n");
    assert!(plan.contains("engine:"), "EXPLAIN output: {plan}");

    // Errors come back as ERR frames with the statement kept open.
    match c.send("SELECT nope FROM KNA1") {
        WireResponse::Error(msg) => assert!(msg.contains("nope"), "{msg}"),
        other => panic!("expected ERR, got {other:?}"),
    }
    let again = c.rows("SELECT count(*) FROM VBAP");
    assert_eq!(again.len(), 1, "session survives an error");

    server.shutdown();
}

#[test]
fn concurrent_sessions_write_disjoint_tables() {
    let server = sapsd_server(200);
    let addr = server.local_addr();

    // Baseline counts.
    let mut c = Client::connect(&server);
    let base_vbap: i64 = c.rows("SELECT count(*) FROM VBAP")[0].parse().unwrap();
    let base_vbep: i64 = c.rows("SELECT count(*) FROM VBEP")[0].parse().unwrap();

    let per_session = 40;
    let handles: Vec<_> = ["VBAP", "VBEP"]
        .into_iter()
        .map(|table| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let schema = if table == "VBAP" {
                    sapsd::vbap_schema()
                } else {
                    sapsd::vbep_schema()
                };
                for k in 0..per_session {
                    // Distinctive first column, type-correct fillers
                    // elsewhere (columns are NOT NULL): disjoint tables,
                    // one INSERT per round trip.
                    let cells: Vec<String> = schema
                        .columns()
                        .iter()
                        .enumerate()
                        .map(|(i, col)| {
                            if i == 0 {
                                format!("{}", 5_000_000 + k)
                            } else {
                                match col.ty {
                                    DataType::Int32 | DataType::Int64 => "1".to_string(),
                                    DataType::Float64 => "1.0".to_string(),
                                    DataType::Str => "'x'".to_string(),
                                }
                            }
                        })
                        .collect();
                    writeln!(writer, "INSERT INTO {table} VALUES ({})", cells.join(", ")).unwrap();
                    match read_response(&mut reader).unwrap() {
                        WireResponse::Count(1) => {}
                        other => panic!("{table} insert {k} → {other:?}"),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let vbap: i64 = c.rows("SELECT count(*) FROM VBAP")[0].parse().unwrap();
    let vbep: i64 = c.rows("SELECT count(*) FROM VBEP")[0].parse().unwrap();
    assert_eq!(vbap, base_vbap + per_session);
    assert_eq!(vbep, base_vbep + per_session);

    server.shutdown();
}

#[test]
fn shutdown_command_stops_the_server() {
    let server = sapsd_server(100);
    let addr = server.local_addr();
    let mut c = Client::connect(&server);
    match c.send("SHUTDOWN") {
        WireResponse::Count(0) => {}
        other => panic!("SHUTDOWN → {other:?}"),
    }
    server.wait();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may briefly accept; a read must then hit EOF.
            let s = TcpStream::connect(addr).unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            r.read_line(&mut line).unwrap_or(0) == 0
        },
        "server must stop accepting after SHUTDOWN"
    );
}

/// A multi-row reply larger than one socket write arrives byte for byte
/// as `write_response` renders it in process.
#[test]
fn a_multi_row_reply_arrives_byte_identical() {
    let db = sapsd_db(200);
    let server = SqlServer::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let sql = "SELECT * FROM VBAP ORDER BY 1, 2";
    let mut expected = Vec::new();
    write_response(&mut expected, &Session::new(db).statement(sql)).unwrap();
    assert!(expected.len() > 32 * 1024, "{} bytes", expected.len());

    let mut c = Client::connect(&server);
    c.writer.write_all(format!("{sql}\n").as_bytes()).unwrap();
    let mut got = Vec::new();
    c.reader.read_until(b'\n', &mut got).unwrap();
    let n: usize = std::str::from_utf8(&got[5..got.len() - 1])
        .unwrap()
        .parse()
        .unwrap();
    for _ in 0..=n {
        c.reader.read_until(b'\n', &mut got).unwrap();
    }
    assert_eq!(got.len(), expected.len());
    assert!(
        got == expected,
        "the reply differs from the in-process rendering"
    );
    server.shutdown();
}

/// Everything a connection that sends `bytes` and then closes its write
/// half receives, to the server's close — which must come within 30 s.
fn exchange(server: &SqlServer, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let started = Instant::now();
    let mut got = Vec::new();
    stream
        .read_to_end(&mut got)
        .expect("the server neither replied nor closed in time");
    assert!(started.elapsed() < Duration::from_secs(30));
    got
}

/// One of the `|`-separated `choices`.
fn one_of(choices: &'static str) -> BoxedStrategy<String> {
    union(
        choices
            .split('|')
            .map(|c| Just(c.to_string()).boxed())
            .collect(),
    )
}

/// Pieces a byte-soup request is strung from: raw random bytes, NULs,
/// lone and paired line ends, SQL fragments, broken and valid UTF-8.
fn soup_piece() -> BoxedStrategy<Vec<u8>> {
    let lexeme = || {
        one_of(concat!(
            "SELECT |* |count(*) |KUNNR|, NAME1 |FROM KNA1 |WHERE |= |< |'C0000006'|'|\"|(|)|; |",
            "EXPLAIN |-- |ORDER BY 1 |LIMIT 2 |GROUP BY 1|sum(|1e308|-9223372036854775808|é|\u{1F600}",
        ))
        .prop_map(String::into_bytes)
    };
    prop_oneof![
        lexeme(),
        lexeme(),
        lexeme(),
        lexeme(),
        proptest::collection::vec(any::<u8>(), 0..8),
        proptest::collection::vec(32u8..127, 0..16),
        Just(vec![0u8]),
        Just(b"\r".to_vec()),
        Just(b"\n".to_vec()),
        Just(b"\r\n".to_vec()),
        Just(vec![0xC3]),
        Just(vec![0xFF, 0xFE]),
        Just(vec![0xE2, 0x82]),
        Just(vec![0xF0, 0x9F, 0x98]),
    ]
}

/// A byte-soup request: up to 4 KiB, usually ending in an unterminated
/// tail.
fn soup() -> BoxedStrategy<Vec<u8>> {
    proptest::collection::vec(soup_piece(), 0..64).prop_map(|pieces| {
        let mut bytes = pieces.concat();
        bytes.truncate(4096);
        bytes
    })
}

/// UTF-8 statement text: a statement's start, or none, then SQL keywords,
/// punctuation, literals and arbitrary characters — DML and DDL among
/// them.
fn utf8_soup() -> BoxedStrategy<String> {
    let word = || {
        one_of(concat!(
            "SELECT|INSERT INTO|UPDATE|DELETE FROM|CREATE|DROP|INDEX|TABLE|EXPLAIN|VALUES|SET|",
            "WHERE|FROM|ON|USING|HASH|ORDER BY|GROUP BY|LIMIT|JOIN|AND|OR|NOT|LIKE|IS NULL|",
            "BETWEEN|count(*)|sum(|avg(|min(|max(|KNA1|VBAP|KUNNR|NAME1|*|,|(|)|=|<>|<=|>|+|-|",
            "/|'|'x'|''|\"|0|-1|2147483648|1.5e400|NULL|;|--|\t|\n",
        ))
    };
    let ascii = (32u8..127).prop_map(|b| String::from(b as char));
    let any_char = any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('\u{FFFD}'));
    let piece = prop_oneof![
        word(),
        word(),
        word(),
        word(),
        ascii,
        any_char.prop_map(String::from),
    ];
    let start = one_of(concat!(
        "|SELECT |SELECT * FROM KNA1 WHERE |SELECT count(*) FROM VBAP |EXPLAIN SELECT |",
        "SELECT KUNNR, sum(|UPDATE KNA1 SET |DELETE FROM VBAP WHERE |INSERT INTO KNA1 VALUES (|",
        "CREATE INDEX ON VBAP (",
    ));
    (start, proptest::collection::vec(piece, 0..24))
        .prop_map(|(start, pieces)| start + &pieces.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Byte soup over TCP gets `ERR`, a reply or a clean close for every
    /// line, within a bound — never a hang or a dead server: every reply
    /// parses, and a fresh connection then answers a fixed query byte for
    /// byte as it did before.
    #[test]
    fn byte_soup_never_wedges_the_server(bytes in soup()) {
        let server = sapsd_server(100);
        let fixed = b"SELECT KUNNR, NAME1 FROM KNA1 ORDER BY 1 LIMIT 5\n";
        let before = exchange(&server, fixed);
        let got = exchange(&server, &bytes);
        let greeting = b"HELLO pdsm-sql 1\n";
        prop_assert!(got.starts_with(greeting), "{got:?}");
        let mut replies = &got[greeting.len()..];
        while !replies.is_empty() {
            let reply = read_response(&mut replies);
            prop_assert!(reply.is_ok(), "{reply:?} in {got:?}");
        }
        prop_assert_eq!(exchange(&server, fixed), before);
        server.shutdown();
    }

    /// A session answers any UTF-8 text with a response, never a panic.
    #[test]
    fn any_utf8_statement_gets_a_response(texts in proptest::collection::vec(utf8_soup(), 8)) {
        let session = Session::new(sapsd_db(100));
        for text in &texts {
            let response = session.statement(text);
            let mut wire = Vec::new();
            write_response(&mut wire, &response).unwrap();
            prop_assert!(read_response(&mut &wire[..]).is_ok(), "{text:?}");
        }
    }
}
