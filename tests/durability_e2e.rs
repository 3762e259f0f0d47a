//! Crash durability end to end, with a real `sdb serve` process and a real
//! SIGKILL: no drain, no destructors, no flushes — whatever was not already
//! on stable storage is gone. A server restarted on the same `--data-dir`
//! must answer every query with `RESULT` frames *byte-identical* to the
//! ones the killed server produced. A server whose WAL cannot take a write
//! must refuse that write and every later one, never acknowledge it.

#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::thread;

use systolic_server::{Client, ClientError};

const TABLES: &[(&str, &str, &str)] = &[
    ("emp", "str,int", "ada,10\ngrace,20\nedsger,30\n"),
    ("dept", "int,str", "10,storage\n20,query\n"),
    ("a", "int", "1\n2\n2\n3\n4\n"),
    ("b", "int", "2\n3\n5\n"),
];

const QUERIES: &[&str] = &[
    "join(scan(emp), scan(dept), 1 = 0)",
    "filter(scan(emp), c1 >= 20)",
    "intersect(scan(a), scan(b))",
    "union(scan(a), scan(b))",
    "difference(scan(a), scan(b))",
    "dedup(scan(a))",
];

/// A durable server on `data_dir`.
fn spawn_server(data_dir: &Path) -> common::Server {
    common::serve("", &["--data-dir", data_dir.to_str().unwrap()])
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sdb_kill9_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stats_field(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {stats}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}= in {stats}"))
}

#[test]
fn sigkilled_server_restarts_byte_identically() {
    let dir = tmpdir("kill9");

    // Generation 0: load everything, run a store(...) so a query is in the
    // WAL, and capture every acknowledged RESULT frame.
    let mut server = spawn_server(&dir);
    let addr = server.addr;
    let mut c = Client::connect(addr).expect("connect gen0");
    for (name, kinds, csv) in TABLES {
        c.load_csv(name, kinds, csv).expect("load");
    }
    c.query("store(filter(scan(a), c0 >= 3), a_big)")
        .expect("store query");
    let expect: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).expect("gen0 query").0)
        .collect();

    // Keep live traffic in flight while the process dies: a second client
    // hammers queries until its connection is severed.
    let hammer = thread::spawn(move || {
        let Ok(mut h) = Client::connect(addr) else {
            return 0usize;
        };
        let mut answered = 0usize;
        loop {
            match h.raw_query_frames("union(scan(a), scan(b))") {
                Ok(_) => answered += 1,
                Err(_) => return answered,
            }
        }
    });
    // SIGKILL: Child::kill is kill(SIGKILL) on unix. Nothing below the
    // kernel gets a chance to flush.
    server.child.kill().expect("SIGKILL server");
    server.child.wait().expect("reap server");
    hammer.join().expect("hammer thread");
    drop(c);

    // Generation 1: same data dir, fresh process. Recovery must replay
    // every acknowledged load and the logged store query.
    let mut server = spawn_server(&dir);
    let mut c = Client::connect(server.addr).expect("connect gen1");
    let stats = c.stats_line().expect("gen1 stats");
    assert_eq!(stats_field(&stats, "durable"), 1, "{stats}");
    assert_eq!(
        stats_field(&stats, "recovered"),
        TABLES.len() as u64 + 1,
        "loads + store query recovered: {stats}"
    );
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).expect("gen1 query");
        assert_eq!(&frame, want, "RESULT diverged after SIGKILL on {q:?}");
    }
    // Loading survives recovery too: a fresh table plus a rerun.
    c.load_csv("late", "int", "7\n8\n")
        .expect("post-crash load");
    let (frame, _) = c.raw_query_frames("dedup(scan(late))").expect("late query");
    assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    drop(c);
    server.child.kill().expect("SIGKILL gen1");
    server.child.wait().expect("reap gen1");

    // Generation 2: the post-crash load must have been durable as well.
    let server = spawn_server(&dir);
    let mut c = Client::connect(server.addr).expect("connect gen2");
    let (frame, _) = c.raw_query_frames("dedup(scan(late))").expect("gen2 query");
    assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).expect("gen2 query");
        assert_eq!(&frame, want, "second recovery diverged on {q:?}");
    }
    let _ = c.close();
    drop(server);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The kind of a remote `ERR` frame, or a panic naming what came instead.
fn err_kind<T: std::fmt::Debug>(what: &str, outcome: Result<T, ClientError>) -> String {
    match outcome {
        Err(ClientError::Remote { kind, .. }) => kind,
        other => panic!("{what}: expected an ERR frame, got {other:?}"),
    }
}

/// A WAL append that fails (here: the file-size limit, with SIGXFSZ
/// ignored so the write returns EFBIG) is answered `ERR durability` and not
/// applied. The failure latches: later loads, `store(...)` queries and
/// checkpoints are refused too, while reads keep being served. A restart
/// without the limit opens cleanly (the torn frame is the tail) and the
/// refused table is absent.
#[test]
fn failed_wal_appends_are_refused_and_latch_until_restart() {
    let dir = tmpdir("efbig");
    let data_dir = dir.to_str().unwrap();
    // 16 blocks is 8 KiB (dash) or 16 KiB (bash): room for the small load,
    // not for the ~30 KB one.
    let server = common::serve(
        "trap '' XFSZ; ulimit -f 16",
        &["--backend", "columnar", "--data-dir", data_dir],
    );
    let mut c = Client::connect(server.addr).expect("connect");
    c.load_csv("small", "int,int", "1,2\n3,4\n")
        .expect("a load that fits is acknowledged");
    let (before, _) = c.raw_query_frames("scan(small)").expect("read");

    let big: String = (0..3000u64)
        .map(|i| format!("{i},{}\n", i * 7919 % 1_000_003))
        .collect();
    assert!(big.len() > 30_000);
    assert_eq!(
        err_kind("oversized load", c.load_csv("big", "int,int", &big)),
        "durability"
    );
    // Not applied: the refused table is in neither the catalog nor the
    // machine.
    assert_eq!(err_kind("scan(big)", c.query("scan(big)")), "analysis");
    // Latched: every later write is refused, however small.
    assert_eq!(
        err_kind("later load", c.load_csv("tiny", "int,int", "5,6\n")),
        "durability"
    );
    assert_eq!(
        err_kind("store query", c.query("store(scan(small), copy)")),
        "durability"
    );
    assert_eq!(err_kind("checkpoint", c.checkpoint()), "durability");
    // Reads are still served, byte-identically.
    let (after, _) = c.raw_query_frames("scan(small)").expect("read after latch");
    assert_eq!(after, before);
    drop(c);
    drop(server);

    // Restart without the limit: recovery drops the torn tail and serves
    // exactly what was acknowledged.
    let server = spawn_server(&dir);
    let mut c = Client::connect(server.addr).expect("connect after restart");
    let stats = c.stats_line().expect("stats");
    assert_eq!(stats_field(&stats, "recovered"), 1, "{stats}");
    let (recovered, _) = c.raw_query_frames("scan(small)").expect("recovered read");
    assert_eq!(recovered, before);
    for table in ["big", "tiny", "copy"] {
        let query = format!("scan({table})");
        assert_eq!(err_kind(&query, c.query(&query)), "analysis");
    }
    // And the log takes writes again.
    c.load_csv("tiny", "int,int", "5,6\n")
        .expect("load after restart");
    drop(c);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
