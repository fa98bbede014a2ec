//! Failure accounting: an `ERR` reply and a refused connection both count
//! as failed attempts, and a failed statement yields no latency sample.

use pdsm_core::Database;
use pdsm_perfbench::e2e::Tally;
use pdsm_perfbench::wire::{Client, Failure};
use pdsm_perfbench::workload::Expect;
use pdsm_sql::{ServerConfig, SqlServer};
use pdsm_storage::{ColumnDef, DataType, Schema};
use std::sync::Arc;

#[test]
fn err_replies_and_refused_connections_raise_the_fail_ratio() {
    let db = Database::new();
    db.create_table("t", Schema::new(vec![ColumnDef::new("a", DataType::Int32)]))
        .unwrap();
    let srv = SqlServer::start(
        Arc::new(db),
        "127.0.0.1:0",
        ServerConfig { max_sessions: 1 },
    )
    .unwrap();
    let mut tally = Tally::default();

    let mut c = Client::connect(srv.local_addr()).expect("first session");
    let ok = c.check("INSERT INTO t VALUES (1)", Expect::Count(1));
    assert!(tally.record("insert", ok));
    assert_eq!(tally.fail_ratio(), 0.0);

    // An ERR reply.
    let err = c.check("SELECT nosuch FROM t", Expect::Rows(None));
    assert!(matches!(err, Err(Failure::Err(_))), "{err:?}");
    assert!(!tally.record("bad column", err));
    // A well-formed reply that is not the expected one.
    let wrong = c.check("SELECT a FROM t", Expect::Rows(Some(5)));
    assert!(matches!(wrong, Err(Failure::Wrong(_))), "{wrong:?}");
    assert!(!tally.record("row count", wrong));
    assert_eq!((tally.attempted, tally.failed), (3, 2));

    // The session limit is one: the acceptor refuses the next connection
    // once it has registered the first (the reply to the statements above
    // proves it has).
    let refused = Client::connect(srv.local_addr()).map(|_| ());
    assert!(matches!(refused, Err(Failure::Refused(_))), "{refused:?}");
    tally.record("connect", refused);
    assert_eq!((tally.attempted, tally.failed), (4, 3));
    assert_eq!(tally.fail_ratio(), 0.75);
    assert_eq!(tally.messages.len(), 3);

    drop(c);
    let addr = srv.local_addr();
    srv.shutdown();
    // Nobody listens any more: refused at connect.
    let gone = Client::connect(addr).map(|_| ());
    assert!(matches!(gone, Err(Failure::Refused(_))), "{gone:?}");
}
