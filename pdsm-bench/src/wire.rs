//! The client side of the line protocol, and the judgement of one reply.

use crate::workload::Expect;
use pdsm_sql::{normalize_line, read_response, Fnv1a, Response, WireResponse};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply slower than this counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Why a statement counts as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The server answered `ERR …`.
    Err(String),
    /// The connection was refused (at connect, or `ERR server at
    /// capacity` in place of the greeting).
    Refused(String),
    /// Bytes that are not a protocol reply, or the connection broke.
    Malformed(String),
    /// No complete reply within [`REPLY_TIMEOUT`].
    Timeout,
    /// A well-formed reply that is not the expected one.
    Wrong(String),
}

/// One closed-loop connection: `TCP_NODELAY`, one `write` per statement,
/// the whole reply read before the next statement is sent.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    /// Connect and consume the greeting.
    pub fn connect(addr: SocketAddr) -> Result<Client, Failure> {
        let stream = TcpStream::connect_timeout(&addr, REPLY_TIMEOUT)
            .map_err(|e| Failure::Refused(e.to_string()))?;
        let io_err = |e: io::Error| Failure::Malformed(e.to_string());
        stream.set_nodelay(true).map_err(io_err)?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(io_err)?;
        let writer = stream.try_clone().map_err(io_err)?;
        let mut reader = BufReader::new(stream);
        let mut greeting = String::new();
        reader.read_line(&mut greeting).map_err(io_err)?;
        if greeting.starts_with("HELLO") {
            Ok(Client {
                reader,
                writer,
                line: Vec::new(),
            })
        } else if greeting.starts_with("ERR") {
            Err(Failure::Refused(greeting.trim_end().to_string()))
        } else {
            Err(Failure::Malformed(format!("greeting {greeting:?}")))
        }
    }

    /// Send one statement and read its whole reply.
    pub fn send(&mut self, sql: &str) -> Result<WireResponse, Failure> {
        self.line.clear();
        self.line.extend_from_slice(sql.as_bytes());
        self.line.push(b'\n');
        let classify = |e: io::Error| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
            _ => Failure::Malformed(e.to_string()),
        };
        self.writer.write_all(&self.line).map_err(classify)?;
        read_response(&mut self.reader).map_err(classify)
    }

    /// Send one statement and judge its reply.
    pub fn check(&mut self, sql: &str, expect: Expect) -> Result<(), Failure> {
        judge(self.send(sql).map(|r| Reply::from(&r)), expect)
    }
}

/// What a reply amounts to, off the wire or straight from a `Session`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Rows(usize),
    Count(usize),
    Error(String),
    Bye,
}

impl From<&WireResponse> for Reply {
    fn from(r: &WireResponse) -> Reply {
        match r {
            WireResponse::Rows { data, .. } => Reply::Rows(data.len()),
            WireResponse::Count(n) => Reply::Count(*n),
            WireResponse::Error(msg) => Reply::Error(msg.clone()),
            WireResponse::Bye => Reply::Bye,
        }
    }
}

impl From<&Response> for Reply {
    fn from(r: &Response) -> Reply {
        match r {
            Response::Rows { rows, .. } => Reply::Rows(rows.len()),
            Response::Count(n) => Reply::Count(*n),
            Response::Error(msg) => Reply::Error(msg.clone()),
        }
    }
}

/// Judge a reply against what the stream expects.
pub fn judge(reply: Result<Reply, Failure>, expect: Expect) -> Result<(), Failure> {
    match (reply?, expect) {
        (Reply::Error(msg), _) => Err(Failure::Err(msg)),
        (Reply::Rows(got), Expect::Rows(want)) if want.is_none_or(|n| n == got) => Ok(()),
        (Reply::Count(got), Expect::Count(want)) if got == want => Ok(()),
        (got, want) => Err(Failure::Wrong(format!("{got:?}, expected {want:?}"))),
    }
}

/// Hash a reply the way `sql-client` does: kind and count, the header,
/// then the data rows float-normalized and sorted.
pub fn reply_hash(resp: &WireResponse) -> u64 {
    let mut h = Fnv1a::new();
    match resp {
        WireResponse::Rows { header, data } => {
            h.line(&format!("ROWS {}", data.len()));
            h.line(header);
            let mut lines: Vec<String> = data.iter().map(|l| normalize_line(l)).collect();
            lines.sort();
            for l in &lines {
                h.line(l);
            }
        }
        WireResponse::Count(n) => h.line(&format!("OK {n}")),
        WireResponse::Error(msg) => h.line(&format!("ERR {msg}")),
        WireResponse::Bye => h.line("BYE"),
    }
    h.finish()
}

/// The single `count(*), sum(key)` row of an invariant query.
pub fn parse_invariant(resp: &WireResponse) -> Option<(i64, i64)> {
    let WireResponse::Rows { data, .. } = resp else {
        return None;
    };
    let [row] = data.as_slice() else {
        return None;
    };
    let mut fields = row.split('\t');
    let count = fields.next()?.parse().ok()?;
    // An empty table sums to NULL.
    let sum = match fields.next()? {
        "NULL" => 0,
        f => f.parse().ok()?,
    };
    Some((count, sum))
}
