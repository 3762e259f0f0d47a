//! Running out of file descriptors must not stop the server. Under
//! `ulimit -n 64` a flood of idle connections exhausts the process's
//! descriptors; the server must keep serving the connections it holds and,
//! once the flood closes, accept and answer new clients.

#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use systolic_server::Client;

const QUERY: &str = "filter(scan(t), c0 >= 2)";

#[test]
fn descriptor_exhaustion_does_not_stop_the_server() {
    let mut server = common::serve("ulimit -n 64", &[]);
    let mut first = Client::connect(server.addr).expect("connect");
    first.load_csv("t", "int", "1\n2\n3\n").expect("load");
    let (expect, _) = first.raw_query_frames(QUERY).expect("query");

    // More idle connections than the server has descriptors left: the
    // kernel completes their handshakes into the listen backlog, and the
    // server's accepts start failing with EMFILE.
    let flood: Vec<TcpStream> = (0..80)
        .map(|i| {
            TcpStream::connect(server.addr)
                .unwrap_or_else(|e| panic!("connection {i} of the flood: {e}"))
        })
        .collect();
    thread::sleep(Duration::from_millis(500));
    assert!(
        server.child.try_wait().expect("poll child").is_none(),
        "the server exited when its descriptors ran out"
    );
    let (during, _) = first
        .raw_query_frames(QUERY)
        .expect("an accepted connection is still served");
    assert_eq!(during, expect);
    // The exhaustion really happened: the listener sat out poll rounds.
    let metrics = first.metrics().expect("metrics");
    let backoffs: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("sdb_server_accept_backoffs_total "))
        .expect("accept backoff counter exported")
        .trim()
        .parse()
        .expect("numeric counter");
    assert!(backoffs >= 1, "accept never ran out of descriptors");

    // Once the flood closes, a fresh client is accepted and answered. A raw
    // socket with a read timeout turns a wedged server into a failure
    // rather than a hang.
    drop(flood);
    let mut fresh = TcpStream::connect(server.addr).expect("fresh connect");
    fresh
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    fresh
        .write_all(format!("QUERY {QUERY}\n").as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(&fresh)
        .read_line(&mut line)
        .expect("fresh client answered");
    assert_eq!(line.trim_end(), expect);
    assert!(server.child.try_wait().expect("poll child").is_none());
}
