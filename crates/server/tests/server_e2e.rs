//! End-to-end tests against a live TCP server.
//!
//! The load-bearing one is `sixteen_concurrent_clients_match_serial_and_one_shot`:
//! it checks the tentpole guarantee that a shared, long-lived, batching
//! server returns `RESULT` frames *byte-identical* — rows and simulated
//! hardware stats both — to (a) the same server queried serially and (b) a
//! fresh in-process [`Engine`] per the one-shot `sdb` path.

use std::thread;
use std::time::Duration;

use systolic_machine::{Backend, MachineConfig};
use systolic_relation::DomainKind;
use systolic_server::protocol::result_frame;
use systolic_server::{spawn, Client, ClientError, Engine, ServerConfig};

/// (name, wire kinds, engine kinds, csv)
const TABLES: &[(&str, &str, &[DomainKind], &str)] = &[
    (
        "emp",
        "str,int",
        &[DomainKind::Str, DomainKind::Int],
        "ada,10\ngrace,20\nedsger,30\n",
    ),
    (
        "dept",
        "int,str",
        &[DomainKind::Int, DomainKind::Str],
        "10,storage\n20,query\n",
    ),
    ("a", "int", &[DomainKind::Int], "1\n2\n2\n3\n4\n"),
    ("b", "int", &[DomainKind::Int], "2\n3\n5\n"),
    (
        "takes",
        "str,str",
        &[DomainKind::Str, DomainKind::Str],
        "ida,db\nida,os\njoe,db\n",
    ),
    ("core", "str", &[DomainKind::Str], "db\nos\n"),
];

const QUERIES: &[&str] = &[
    "join(scan(emp), scan(dept), 1 = 0)",
    "filter(scan(emp), c1 >= 20)",
    "intersect(scan(a), scan(b))",
    "union(scan(a), scan(b))",
    "difference(scan(a), scan(b))",
    "dedup(scan(a))",
    "project(scan(emp), [0])",
    "divide(scan(takes), scan(core), 0, 1, 0)",
];

fn local_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    }
}

fn load_all(client: &mut Client) {
    for (name, kinds, _, csv) in TABLES {
        client.load_csv(name, kinds, csv).unwrap();
    }
}

/// What the one-shot `sdb` path would answer: a fresh engine, the same
/// tables in the same order (string interning order matters), each query
/// rendered as its deterministic `RESULT` frame.
fn one_shot_frames() -> Vec<String> {
    let mut engine = Engine::new(MachineConfig::default()).unwrap();
    for (name, _, kinds, csv) in TABLES {
        engine.load_table(name, kinds, csv).unwrap();
    }
    QUERIES
        .iter()
        .map(|q| {
            let out = engine.run_query(q).unwrap();
            let csv = engine.render_csv(&out.result).unwrap();
            result_frame(out.result.len(), &out.stats, &csv)
        })
        .collect()
}

#[test]
fn sixteen_concurrent_clients_match_serial_and_one_shot() {
    const CLIENTS: usize = 16;
    let handle = spawn(ServerConfig {
        workers: CLIENTS + 4,
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;

    let mut setup = Client::connect(addr).unwrap();
    load_all(&mut setup);

    // Serial pass over the live server...
    let serial: Vec<String> = QUERIES
        .iter()
        .map(|q| setup.raw_query_frames(q).unwrap().0)
        .collect();
    setup.close().unwrap();

    // ...must already match the in-process one-shot oracle.
    assert_eq!(serial, one_shot_frames());

    // Now 16 clients fire the whole workload concurrently, each starting at
    // a different offset so every batch the admission scheduler forms mixes
    // different queries.
    thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let serial = &serial;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for k in 0..QUERIES.len() {
                        let q = (i + k) % QUERIES.len();
                        let (frame, _host) = client.raw_query_frames(QUERIES[q]).unwrap();
                        assert_eq!(
                            frame, serial[q],
                            "client {i} query {q:?} diverged from serial"
                        );
                    }
                    client.close().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // The acceptance check: after the concurrent run the server answers
    // METRICS with a request-latency histogram covering every query and the
    // batch counters, while the RESULT frames above stayed byte-identical.
    let mut probe = Client::connect(addr).unwrap();
    let text = probe.metrics().unwrap();
    probe.close().unwrap();
    let exp = systolic_telemetry::prom::validate(&text).expect("exposition must validate");
    let expected = (CLIENTS * QUERIES.len() + QUERIES.len()) as u64;
    assert_eq!(
        exp.value("sdb_server_queries_total", ""),
        Some(expected as f64)
    );
    assert_eq!(
        exp.value("sdb_request_latency_ns_count", ""),
        Some(expected as f64)
    );
    assert!(
        exp.value("sdb_batch_size_count", "").unwrap_or(0.0) >= 1.0,
        "batch-size histogram must have observations"
    );

    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, expected);
    assert_eq!(report.loads, TABLES.len() as u64);
    assert_eq!(report.timeouts, 0);
}

/// The closed-form acceptance check at the wire level: a server running
/// the bit-packed columnar backend answers every query with `RESULT` frames *byte-identical* to a pulse-simulator
/// server's — rows, makespan, pulses, array runs, disk bytes, concurrency,
/// and CSV all included — while their `STATS` frames and `METRICS`
/// expositions advertise which backend produced them.
#[test]
fn closed_form_backend_result_frames_are_byte_identical_to_sim() {
    let spawn_with = |backend: Backend| {
        spawn(ServerConfig {
            machine: MachineConfig {
                backend,
                ..MachineConfig::default()
            },
            ..local_config()
        })
        .unwrap()
    };
    let run_all = |handle: &systolic_server::ServerHandle| -> (Vec<String>, String, String) {
        let mut client = Client::connect(handle.addr).unwrap();
        load_all(&mut client);
        let frames = QUERIES
            .iter()
            .map(|q| client.raw_query_frames(q).unwrap().0)
            .collect();
        let stats = client.stats_line().unwrap();
        let metrics = client.metrics().unwrap();
        client.close().unwrap();
        (frames, stats, metrics)
    };

    let sim = spawn_with(Backend::Sim);
    let (sim_frames, sim_stats, _) = run_all(&sim);
    sim.shutdown();
    sim.join().unwrap();
    assert!(sim_stats.contains(" backend=sim"), "{sim_stats}");

    let backend = Backend::Columnar;
    let label = backend.label();
    let server = spawn_with(backend);
    let (frames, stats, metrics) = run_all(&server);
    server.shutdown();
    server.join().unwrap();

    assert_eq!(
        frames, sim_frames,
        "{label} RESULT frames must be byte-identical to sim"
    );
    assert!(stats.contains(&format!(" backend={label}")), "{stats}");
    let exp = systolic_telemetry::prom::validate(&metrics).unwrap();
    assert_eq!(
        exp.value(
            "sdb_server_backend_info",
            &format!("{{backend=\"{label}\"}}")
        ),
        Some(1.0),
        "{label} server must advertise its backend"
    );
    // Every LOAD packs word planes at load time, so the pack gauge must
    // be visible and non-zero by now.
    assert!(
        exp.value("sdb_columnar_builds", "").unwrap_or(0.0) >= TABLES.len() as f64,
        "ingest must have packed columnar planes"
    );
}

#[test]
fn requests_time_out_instead_of_hanging() {
    // A 1ms request timeout against a 200ms admission window: the worker
    // gives up long before the scheduler even forms the batch, wins the
    // timeout fence, and the load must be skipped whole — the catalog can
    // never advertise a table whose load the client was told failed.
    let handle = spawn(ServerConfig {
        request_timeout: Duration::from_millis(1),
        batch_window: Duration::from_millis(200),
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    match client.load_csv("t", "int", "1\n2\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "timeout"),
        Ok(_) => panic!("load should not beat a 1ms timeout with a 200ms window"),
        Err(other) => panic!("unexpected load error {other}"),
    }
    // The speculative registration was undone with the fence...
    let stats = client.stats_line().unwrap();
    assert!(stats.contains(" tables=0 "), "{stats}");
    // ...so the query is rejected by static analysis (unknown relation)
    // instead of being answered from a table the client never loaded.
    match client.query("scan(t)") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "analysis"),
        Ok(_) => panic!("query must not see the fenced table"),
        Err(other) => panic!("unexpected error {other}"),
    }
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert!(report.timeouts >= 1);
    assert_eq!(
        report.loads, 0,
        "a fenced load must never reach the machine"
    );
}

/// The reactor answers the whole workload with the one-shot `RESULT`
/// frames both serially and with every frame pipelined onto the socket at
/// once before any response is read.
#[test]
fn pipelined_frames_match_serial_answers() {
    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    // Serial pass...
    let serial: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).unwrap().0)
        .collect();
    assert_eq!(
        serial,
        one_shot_frames(),
        "serial answers must match one-shot"
    );
    // ...and a fully pipelined pass on one connection: all requests hit the
    // socket before any response is read, and answers come back in order.
    let pairs = c.pipeline_queries(QUERIES).unwrap();
    let pipelined: Vec<String> = pairs.into_iter().map(|(result, _host)| result).collect();
    assert_eq!(pipelined, serial, "pipelined answers must arrive in order");
    c.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 2 * QUERIES.len() as u64);
    assert_eq!(report.loads, TABLES.len() as u64);
}

#[test]
fn shutdown_drains_in_flight_queries() {
    // A 150ms admission window makes the query in flight for at least that
    // long — shutdown lands mid-flight and must not eat the answer.
    let handle = spawn(ServerConfig {
        batch_window: Duration::from_millis(150),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("t", "int", "1\n2\n3\n").unwrap();

    let in_flight = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query("filter(scan(t), c0 >= 2)")
    });
    thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    let result = in_flight.join().unwrap().unwrap();
    assert_eq!(result.rows, 2);

    // The idle setup connection is told BYE (or sees the listener go away)
    // rather than hanging; either way the server exits cleanly.
    if let Err(ClientError::Remote { kind, .. }) = setup.query("scan(t)") {
        assert_eq!(kind, "shutting_down");
    }
    handle.join().unwrap();
}

#[test]
fn shutdown_command_over_the_wire_stops_the_server() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("t", "int", "7\n").unwrap();
    let result = client.query("scan(t)").unwrap();
    assert_eq!(result.rows, 1);
    client.shutdown_server().unwrap();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 1);
    assert_eq!(report.loads, 1);
}

#[test]
fn metrics_verb_serves_a_valid_monotonic_exposition() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("ma", "int", "1\n2\n3\n").unwrap();
    client.load_csv("mb", "int", "2\n3\n").unwrap();
    client.query("intersect(scan(ma), scan(mb))").unwrap();
    let before = systolic_telemetry::prom::validate(&client.metrics().unwrap()).unwrap();
    client.query("union(scan(ma), scan(mb))").unwrap();
    let after = systolic_telemetry::prom::validate(&client.metrics().unwrap()).unwrap();

    // Names and kinds a scraper relies on.
    assert_eq!(
        before
            .types
            .get("sdb_server_queries_total")
            .map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        before
            .types
            .get("sdb_request_latency_ns")
            .map(String::as_str),
        Some("histogram")
    );
    assert_eq!(
        before.types.get("sdb_queue_depth").map(String::as_str),
        Some("gauge")
    );
    // Per-op simulated pulses, labelled by §8 operator.
    assert!(
        before
            .value("sdb_op_pulses_total", "{op=\"intersect\"}")
            .unwrap_or(0.0)
            > 0.0,
        "intersect pulses must be attributed"
    );
    // Counters only ever go up between scrapes.
    systolic_telemetry::prom::counters_monotonic(&before, &after)
        .expect("counters must be monotonic");
    assert!(
        after.value("sdb_server_queries_total", "") > before.value("sdb_server_queries_total", "")
    );

    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn stats_frame_carries_uptime_and_latency_summary() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("s", "int", "5\n6\n").unwrap();
    client.query("scan(s)").unwrap();
    let stats = client.stats_line().unwrap();
    for field in [
        "uptime_ms=",
        "queue_hwm=",
        "slow=",
        "lat_p50_ns=",
        "lat_p95_ns=",
        "lat_p99_ns=",
        "lat_count=",
        "backend=",
    ] {
        assert!(stats.contains(field), "missing {field} in {stats}");
    }
    let lat_count: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("lat_count="))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(lat_count, 1, "{stats}");
    let p50: u64 = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("lat_p50_ns="))
        .unwrap()
        .parse()
        .unwrap();
    assert!(p50 > 0, "one observation means a nonzero p50: {stats}");
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.slow_queries, 0);
}

/// Serializes the tests that install the process-global span collector
/// (directly or via a server's `trace_out`).
fn collector_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two requests merged into one admission batch must keep *distinct* trace
/// ids (each client's story stays separate) while both their
/// `server.batch_run` spans point at the *same* `server.batch` span.
///
/// Holds [`collector_lock`]: the span collector is process-global, and
/// concurrent tests' spans land in it too, so everything below filters by
/// this test's own query text.
#[test]
fn merged_requests_keep_distinct_traces_but_share_the_batch_span() {
    let _guard = collector_lock();
    let collector = systolic_telemetry::install();
    let handle = spawn(ServerConfig {
        batch_window: Duration::from_millis(300),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("trc", "int", "1\n2\n3\n").unwrap();
    setup.close().unwrap();

    let queries = ["filter(scan(trc), c0 >= 1)", "filter(scan(trc), c0 >= 2)"];
    thread::scope(|scope| {
        for q in queries {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(q).unwrap();
                client.close().unwrap();
            });
        }
    });
    handle.shutdown();
    let report = handle.join().unwrap();
    assert!(report.batches >= 1, "the 300ms window must merge both");

    let spans = collector.drain();
    systolic_telemetry::uninstall();
    let requests: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "server.request")
        .filter(|s| queries.contains(&s.arg("query").unwrap_or("")))
        .collect();
    assert_eq!(requests.len(), 2, "one request span per client");
    assert_ne!(
        requests[0].trace_id, requests[1].trace_id,
        "merged requests must keep distinct trace ids"
    );

    let batch_runs: Vec<_> = requests
        .iter()
        .map(|r| {
            spans
                .iter()
                .find(|s| s.name == "server.batch_run" && s.trace_id == r.trace_id)
                .expect("each request trace carries its batch_run span")
        })
        .collect();
    let batch_ids: Vec<&str> = batch_runs
        .iter()
        .map(|s| s.arg("batch_span").expect("batch_run names its batch"))
        .collect();
    assert_eq!(
        batch_ids[0], batch_ids[1],
        "both requests must point at the one shared batch span"
    );
    // And that id is a real server.batch span with size=2.
    let batch = spans
        .iter()
        .find(|s| s.name == "server.batch" && s.span_id.to_string() == batch_ids[0])
        .expect("the shared batch span exists");
    assert_eq!(batch.arg("size"), Some("2"));
}

/// Every statically-checkable SA00N class the default machine can exhibit
/// is rejected over the wire with its stable code and a caret rendering —
/// the fabric never sees the query.
#[test]
fn analyzer_rejects_each_code_class_over_the_wire() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    load_all(&mut client);

    // (query, code, fragment the human-readable detail must mention)
    let rejections = [
        ("union(scan(emp), scan(dept))", "SA001", "domain"),
        ("project(scan(emp), [9])", "SA002", "column"),
        ("divide(scan(takes), scan(a), 0, 1, 0)", "SA003", "divisor"),
        ("filter(scan(emp), c0 < 5)", "SA004", "str"),
        ("scan(nope)", "SA007", "nope"),
        ("store(scan(emp), emp)", "SA008", "emp"),
    ];
    for (query, code, fragment) in rejections {
        match client.query(query) {
            Err(ClientError::Remote { kind, detail }) => {
                assert_eq!(kind, "analysis", "{query}");
                assert!(detail.contains(code), "{query}: want {code} in {detail}");
                assert!(
                    detail.contains(fragment),
                    "{query}: want {fragment:?} in {detail}"
                );
                assert!(detail.contains('^'), "{query}: caret must travel: {detail}");
            }
            other => panic!("{query}: expected analysis rejection, got {other:?}"),
        }
    }
    // A sound query on the same connection still runs — rejection is
    // per-request, not a session poison.
    assert_eq!(client.query("dedup(scan(a))").unwrap().rows, 4);
    client.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    // Rejected queries never reach the scheduler, so the machine-level
    // query counter records only the one sound run.
    assert_eq!(report.queries, 1);
}

/// SA005 (uncoverable tiling) and SA006 (capacity) depend on the machine
/// shape, so each gets a deliberately crippled server: a zero array bound
/// and a 16-byte memory module respectively. The analyzer refuses up
/// front instead of letting the fabric panic or thrash.
#[test]
fn crippled_machines_are_refused_by_the_analyzer_up_front() {
    use systolic_core::ArrayLimits;
    use systolic_machine::DeviceKind;

    // `ArrayLimits::new` asserts bounds >= 1; build the invalid geometry
    // literally, exactly as a hand-written config file could.
    let zero = ArrayLimits {
        max_a: 0,
        max_b: 32,
        max_cols: 8,
    };
    let handle = spawn(ServerConfig {
        machine: MachineConfig {
            devices: vec![
                (DeviceKind::SetOp, zero),
                (DeviceKind::Join, ArrayLimits::new(32, 32, 8)),
                (DeviceKind::Divide, ArrayLimits::new(32, 32, 8)),
            ],
            ..MachineConfig::default()
        },
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("z", "int", "1\n2\n").unwrap();
    match client.query("intersect(scan(z), scan(z))") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA005"), "{detail}");
        }
        other => panic!("expected SA005, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let handle = spawn(ServerConfig {
        machine: MachineConfig {
            memory_capacity: 16,
            ..MachineConfig::default()
        },
        ..local_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client
        .load_csv("big", "int,int", "1,2\n3,4\n5,6\n")
        .unwrap();
    match client.query("scan(big)") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA006"), "{detail}");
        }
        other => panic!("expected SA006, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

#[test]
fn duplicate_loads_conflict_and_errors_are_structured() {
    let handle = spawn(local_config()).unwrap();
    let mut client = Client::connect(handle.addr).unwrap();
    client.load_csv("t", "int", "1\n").unwrap();
    match client.load_csv("t", "int", "2\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "conflict"),
        other => panic!("expected conflict, got {other:?}"),
    }
    match client.query("explode(scan(t))") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "parse");
            assert!(detail.contains('^'), "caret rendering travels: {detail}");
        }
        other => panic!("expected parse error, got {other:?}"),
    }
    match client.query("scan(missing)") {
        Err(ClientError::Remote { kind, detail }) => {
            assert_eq!(kind, "analysis");
            assert!(detail.contains("SA007"), "stable code travels: {detail}");
            assert!(detail.contains("missing"));
            assert!(detail.contains('^'), "caret rendering travels: {detail}");
        }
        other => panic!("expected unknown-relation rejection, got {other:?}"),
    }
    match client.load_csv("t2", "int", "notanint\n") {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "relation"),
        other => panic!("expected relation error, got {other:?}"),
    }
    client.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Connection scaling: the poll reactor holds 64/256/1024 simultaneous
/// connections, *all* with requests in flight at once (every frame is
/// written before any answer is read), and every `RESULT` frame is
/// byte-identical to the serial baseline. The worker pool stays small —
/// concurrency comes from the reactor, not from threads.
#[test]
fn poll_reactor_keeps_determinism_across_hundreds_of_connections() {
    let config = || ServerConfig {
        workers: 8,
        max_pending: 4096,
        max_batch: 64,
        ..local_config()
    };
    let handle = spawn(config()).unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    load_all(&mut setup);
    let baseline: Vec<String> = QUERIES
        .iter()
        .map(|q| setup.raw_query_frames(q).unwrap().0)
        .collect();

    for conns in [64usize, 256, 1024] {
        let mut clients: Vec<Client> = (0..conns).map(|_| Client::connect(addr).unwrap()).collect();
        // Write phase: one query per connection, rotating through the
        // workload, no answer read until every request is on the wire.
        for (i, client) in clients.iter_mut().enumerate() {
            client.send_query(QUERIES[i % QUERIES.len()]).unwrap();
        }
        // Read phase: answers must match the serial baseline bytewise.
        for (i, client) in clients.iter_mut().enumerate() {
            let (frame, _host) = client.recv_query_frames().unwrap();
            assert_eq!(
                frame,
                baseline[i % QUERIES.len()],
                "connection {i}/{conns} diverged"
            );
        }
        for client in &mut clients {
            client.close().unwrap();
        }
    }

    setup.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(
        report.queries,
        (QUERIES.len() + 64 + 256 + 1024) as u64,
        "every pipelined query must be served exactly once"
    );
    assert_eq!(report.timeouts, 0);
}

/// Overload under poll: with one worker, no pending allowance, and a long
/// admission window, a burst of pipelined frames is shed with
/// `ERR overloaded` — in pipeline order, without wedging the connection —
/// while at least the first frame is answered for real.
#[test]
fn poll_front_end_sheds_pipelined_overload_in_order() {
    let handle = spawn(ServerConfig {
        workers: 1,
        max_pending: 0,
        batch_window: Duration::from_millis(200),
        ..local_config()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("t", "int", "1\n2\n3\n").unwrap();

    const BURST: usize = 6;
    for _ in 0..BURST {
        c.send_query("filter(scan(t), c0 >= 2)").unwrap();
    }
    let mut served = 0usize;
    let mut shed = 0usize;
    for i in 0..BURST {
        match c.recv_query_frames() {
            Ok((frame, _host)) => {
                assert!(frame.starts_with("RESULT rows=2 "), "answer {i}: {frame}");
                served += 1;
            }
            Err(ClientError::Remote { kind, .. }) => {
                assert_eq!(kind, "overloaded", "answer {i}");
                shed += 1;
            }
            other => panic!("answer {i}: expected RESULT or overloaded, got {other:?}"),
        }
    }
    assert!(served >= 1, "the occupying query itself must be answered");
    assert!(shed >= 1, "a 6-deep burst over a 1-worker pool must shed");

    // The connection survives shedding: a fresh query is answered.
    let result = c.query("filter(scan(t), c0 >= 2)").unwrap();
    assert_eq!(result.rows, 2);
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// A frame may end in CRLF: the reactor drops the CR, so the answer is the
/// LF-terminated frame's, byte for byte.
#[test]
fn crlf_terminated_frames_are_answered_like_lf_ones() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("t", "int", "1\n2\n3\n").unwrap();
    let (want, _) = c.raw_query_frames("filter(scan(t), c0 >= 2)").unwrap();
    let mut raw = TcpStream::connect(handle.addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(b"QUERY filter(scan(t), c0 >= 2)\r\n")
        .unwrap();
    let mut line = String::new();
    BufReader::new(&raw).read_line(&mut line).unwrap();
    assert_eq!(line.trim_end_matches('\n'), want);
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Oversized frames: a complete line longer than `max_request_bytes` and an
/// unterminated buffer that grows past it are each answered `ERR too_large`
/// and the connection is closed (framing is lost), while another
/// connection keeps being served.
#[test]
fn oversized_frames_are_refused_and_closed_without_stopping_service() {
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;

    const MAX: usize = 256;
    let handle = spawn(ServerConfig {
        max_request_bytes: MAX,
        ..local_config()
    })
    .unwrap();
    let mut other = Client::connect(handle.addr).unwrap();
    other.load_csv("t", "int", "1\n2\n3\n").unwrap();

    let complete = format!("QUERY scan({})\n", "x".repeat(2 * MAX));
    let unterminated = format!("QUERY scan({}", "y".repeat(4 * MAX));
    for (label, bytes) in [("complete line", complete), ("unterminated", unterminated)] {
        let mut raw = TcpStream::connect(handle.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(bytes.as_bytes()).unwrap();
        let mut reader = BufReader::new(raw);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("ERR too_large "),
            "{label}: expected ERR too_large, got {line:?}"
        );
        assert!(line.contains(&format!("{MAX} bytes")), "{label}: {line:?}");
        // The server hung up after the refusal: end of stream (or a reset),
        // never another frame and never a read timeout.
        let mut rest = Vec::new();
        match reader.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "{label}: frames after the refusal"),
            Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "{label}: {e}"),
        }
        let result = other.query("filter(scan(t), c0 >= 2)").unwrap();
        assert_eq!(
            result.rows, 2,
            "{label}: the other connection must be served"
        );
    }
    other.close().unwrap();
    handle.shutdown();
    let report = handle.join().unwrap();
    assert_eq!(report.queries, 2, "an oversized frame must never run");
}

/// Drain under poll: shutdown lands while pipelined queries are in flight
/// behind a long admission window; every already-accepted frame is still
/// answered before the reactor closes the connection.
#[test]
fn poll_shutdown_drains_pipelined_in_flight_queries() {
    let handle = spawn(ServerConfig {
        batch_window: Duration::from_millis(150),
        ..local_config()
    })
    .unwrap();
    let addr = handle.addr;
    let mut setup = Client::connect(addr).unwrap();
    setup.load_csv("t", "int", "1\n2\n3\n").unwrap();

    let in_flight = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..3 {
            client.send_query("filter(scan(t), c0 >= 2)").unwrap();
        }
        (0..3)
            .map(|_| client.recv_query_frames().map(|(r, _)| r))
            .collect::<Result<Vec<_>, _>>()
    });
    thread::sleep(Duration::from_millis(30));
    handle.shutdown();

    let frames = in_flight.join().unwrap().unwrap();
    assert_eq!(frames.len(), 3);
    for frame in &frames {
        assert!(frame.starts_with("RESULT rows=2 "), "{frame}");
    }
    drop(setup);
    handle.join().unwrap();
}

/// The observability acceptance check, half one: `PROFILE` answers with a
/// `RESULT` frame *byte-identical* to `QUERY`'s for the same query — on
/// both backends — and the
/// profile itself is internally consistent: the analyzer's predicted pulse
/// budget bounds the actual pulses, and the actual pulses equal the
/// `RESULT` frame's own `RunStats` pulses.
#[test]
fn profile_results_are_byte_identical_and_bounded_by_the_budget() {
    use systolic_telemetry::json::{self, Json};

    let configs = [
        ("sim", local_config()),
        (
            "columnar",
            ServerConfig {
                machine: MachineConfig {
                    backend: Backend::Columnar,
                    ..MachineConfig::default()
                },
                ..local_config()
            },
        ),
    ];
    for (label, config) in configs {
        let handle = spawn(config).unwrap();
        let mut c = Client::connect(handle.addr).unwrap();
        load_all(&mut c);
        for q in QUERIES {
            let (plain, _host) = c.raw_query_frames(q).unwrap();
            let (profiled, profile) = c.profile(q).unwrap();
            assert_eq!(
                profiled.raw, plain,
                "{label}: profiling changed the RESULT frame for {q:?}"
            );
            let doc = json::parse(&profile).expect("profile is valid JSON");
            assert_eq!(doc.get("query").and_then(Json::as_str), Some(*q), "{label}");
            let budget = doc
                .get("predicted")
                .and_then(|p| p.get("pulse_budget"))
                .and_then(Json::as_u64)
                .unwrap();
            let pulses = doc
                .get("actual")
                .and_then(|a| a.get("pulses"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(
                budget >= pulses,
                "{label}: {q:?} predicted budget {budget} < actual {pulses}"
            );
            assert_eq!(
                pulses, profiled.total_pulses,
                "{label}: {q:?} profile pulses diverge from RunStats"
            );
            assert_eq!(
                doc.get("actual")
                    .and_then(|a| a.get("rows"))
                    .and_then(Json::as_u64),
                Some(profiled.rows as u64),
                "{label}: {q:?}"
            );
            // Drift is the budget's slack, as a first-class field.
            assert_eq!(
                doc.get("drift_pulses").and_then(Json::as_f64),
                Some(budget as f64 - pulses as f64),
                "{label}: {q:?}"
            );
            // Every plan step pairs a prediction with its actuals.
            let steps = doc.get("steps").and_then(Json::as_array).unwrap();
            assert!(!steps.is_empty(), "{label}: {q:?}");
            let step_pulses: u64 = steps
                .iter()
                .filter_map(|s| s.get("actual_pulses").and_then(Json::as_u64))
                .sum();
            assert_eq!(step_pulses, pulses, "{label}: {q:?} step pulses must sum");
        }
        c.close().unwrap();
        handle.shutdown();
        handle.join().unwrap();
    }
}

/// The observability acceptance check, half two: a server with
/// `trace_out` writes ONE Chrome trace in which a query's root
/// `server.request` span, the machine spans that ran it, and its simulated
/// per-step schedule (pulse time, pid 1) all carry the same trace id.
///
/// Holds [`collector_lock`]: `trace_out` installs the process-global
/// collector for the server's lifetime. Queries from tests running
/// concurrently land in that trace too, so every check below follows this
/// test's own request: the one root span carrying its query text (over
/// tables only it loads) and that root's trace id.
#[test]
fn trace_out_puts_a_query_s_host_and_machine_spans_on_one_trace() {
    use systolic_telemetry::chrome::{PID_HOST, PID_SIMULATED};
    use systolic_telemetry::json::{self, Json};

    let _guard = collector_lock();
    let dir = std::env::temp_dir().join(format!("sdb-e2e-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");

    let handle = spawn(ServerConfig {
        trace_out: Some(path.clone()),
        ..local_config()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("traced_l", "int", "1\n2\n3\n4\n").unwrap();
    c.load_csv("traced_r", "int", "2\n4\n6\n").unwrap();
    let query = "intersect(scan(traced_l), scan(traced_r))";
    c.query(query).unwrap();
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid trace JSON");
    let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
    let args = |e: &Json, k: &str| e.get("args").and_then(|a| a.get(k)).cloned();
    let arg = |e: &Json, k: &str| args(e, k).as_ref().and_then(Json::as_u64);
    let name_starts = |e: &Json, prefix: &str| {
        e.get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.starts_with(prefix))
    };
    let pid = |e: &Json| e.get("pid").and_then(Json::as_u64).map(|p| p as u32);

    // The request is the root of its own trace...
    let roots: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Json::as_str) == Some("server.request")
                && arg(e, "parent_id").is_none()
                && args(e, "query").as_ref().and_then(Json::as_str) == Some(query)
        })
        .collect();
    assert_eq!(roots.len(), 1, "one root request span for the query");
    let trace_id = arg(roots[0], "trace_id").unwrap();
    let on_trace = |e: &&Json| arg(e, "trace_id") == Some(trace_id);

    // ...the machine spans that ran it sit on that trace, on the host
    // process...
    let machine: Vec<_> = events
        .iter()
        .filter(on_trace)
        .filter(|e| name_starts(e, "machine."))
        .collect();
    assert!(
        !machine.is_empty(),
        "the machine's spans carry the request's trace id"
    );
    assert_eq!(pid(roots[0]), Some(PID_HOST));
    assert!(machine.iter().all(|e| pid(e) == Some(PID_HOST)));

    // ...and its simulated per-step schedule is on the pulse-time process.
    let steps: Vec<_> = events
        .iter()
        .filter(on_trace)
        .filter(|e| {
            pid(e) == Some(PID_SIMULATED) && e.get("ph").and_then(Json::as_str) == Some("X")
        })
        .collect();
    assert!(
        steps.iter().any(|e| name_starts(e, "intersect")),
        "the query's intersect step is on the pulse-time track: {steps:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The flight recorder retains the last N profiles — queries, `PROFILE`
/// runs, and failures alike — and `PROFILES` dumps them newest first.
#[test]
fn flight_recorder_retains_newest_profiles_and_records_errors() {
    use systolic_telemetry::json::{self, Json};

    let handle = spawn(ServerConfig {
        profile_history: 2,
        ..local_config()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("fr", "int", "1\n2\n3\n").unwrap();

    c.query("filter(scan(fr), c0 >= 1)").unwrap();
    c.query("filter(scan(fr), c0 >= 2)").unwrap();
    c.query("filter(scan(fr), c0 >= 3)").unwrap();
    let dumped = c.profiles().unwrap();
    assert_eq!(dumped.len(), 2, "history of 2 retains the 2 newest");
    let queries: Vec<_> = dumped
        .iter()
        .map(|line| {
            let doc = json::parse(line).expect("each dumped profile is valid JSON");
            doc.get("query").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert_eq!(
        queries,
        vec!["filter(scan(fr), c0 >= 3)", "filter(scan(fr), c0 >= 2)"],
        "newest first"
    );

    // A failing query lands in the recorder too, with its error frame.
    assert!(c.query("scan(ghost)").is_err());
    let dumped = c.profiles().unwrap();
    let newest = json::parse(&dumped[0]).unwrap();
    assert_eq!(
        newest.get("query").and_then(Json::as_str),
        Some("scan(ghost)")
    );
    assert!(
        newest
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("analysis")),
        "{}",
        dumped[0]
    );
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
}

/// Durability across graceful restarts: a server opened on a `--data-dir`
/// recovers every load and every logged `store(...)` query from its WAL,
/// so the whole workload answers *byte-identically* after a restart. A
/// `CHECKPOINT` mid-sequence snapshots the history and the next recovery
/// (snapshot + empty tail) must answer identically again.
#[test]
fn durable_servers_answer_byte_identically_after_restart() {
    let root = std::env::temp_dir().join(format!("sdb_srv_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config = || ServerConfig {
        data_dir: Some(root.clone()),
        ..local_config()
    };

    // Generation 0: load, run a store(...) so a query lands in the WAL,
    // then capture the post-store answers as the oracle.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    c.query("store(filter(scan(a), c0 >= 3), a_big)").unwrap();
    let expect: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).unwrap().0)
        .collect();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains("durable=1"), "{stats}");
    assert!(
        stats.contains(" wal_records=7"),
        "6 loads + 1 store: {stats}"
    );
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // Generation 1: recovered purely from the WAL.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" recovered=7"), "{stats}");
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).unwrap();
        assert_eq!(&frame, want, "WAL recovery diverged on {q:?}");
    }
    // Snapshot the history; the log resets but nothing is forgotten.
    let (records, bytes) = c.checkpoint().unwrap();
    assert_eq!(records, 7, "all history records snapshotted");
    assert!(bytes > 0);
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" wal_records=0"), "log reset: {stats}");
    assert!(stats.contains(" checkpoints=1"), "{stats}");
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // Generation 2: recovered from the checkpoint snapshot alone.
    let handle = spawn(config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stats = c.stats_line().unwrap();
    assert!(stats.contains(" recovered=7"), "{stats}");
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).unwrap();
        assert_eq!(&frame, want, "snapshot recovery diverged on {q:?}");
    }
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // A server without a data dir refuses CHECKPOINT with a stable kind.
    let handle = spawn(local_config()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    match c.checkpoint() {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, "not_durable"),
        other => panic!("expected not_durable, got {other:?}"),
    }
    let stats = c.stats_line().unwrap();
    assert!(stats.contains("durable=0"), "{stats}");
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(&root);
}

/// Servers that partitioned relations across shards kept each shard's WAL
/// under `shard-<i>/` beside the top-level log, which always held the full
/// history. Such a directory still restarts byte-identically: recovery
/// reads only the top-level files and leaves the subdirectory untouched.
#[test]
fn data_dirs_with_leftover_shard_subdirectories_restart_byte_identically() {
    let root = std::env::temp_dir().join(format!("sdb_srv_shard_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let shard_dir = root.join("shard-0");
    let config = |dir: &std::path::Path| ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..local_config()
    };

    let handle = spawn(config(&root)).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    load_all(&mut c);
    c.query("store(filter(scan(a), c0 >= 3), a_big)").unwrap();
    let expect: Vec<String> = QUERIES
        .iter()
        .map(|q| c.raw_query_frames(q).unwrap().0)
        .collect();
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();

    // A shard's WAL, as a partitioning server left it: a slice of the same
    // tables' rows, logged under the same names.
    let handle = spawn(config(&shard_dir)).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    c.load_csv("a", "int", "2\n2\n4\n").unwrap();
    c.load_csv("emp", "str,int", "grace,20\n").unwrap();
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
    let shard_wal = std::fs::read(shard_dir.join("wal.log")).unwrap();
    assert!(
        !shard_wal.is_empty(),
        "the leftover shard WAL holds records"
    );

    let handle = spawn(config(&root)).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stats = c.stats_line().unwrap();
    assert!(
        stats.contains(" recovered=7"),
        "top-level history only: {stats}"
    );
    for (q, want) in QUERIES.iter().zip(&expect) {
        let (frame, _host) = c.raw_query_frames(q).unwrap();
        assert_eq!(
            &frame, want,
            "leftover shard-0/ changed the answer to {q:?}"
        );
    }
    c.close().unwrap();
    handle.shutdown();
    handle.join().unwrap();
    assert_eq!(
        std::fs::read(shard_dir.join("wal.log")).unwrap(),
        shard_wal,
        "recovery must leave shard-0/ untouched"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `ServerConfig::shards` accepts only 1: every server runs exactly one
/// `System`, and any other value is refused up front.
#[test]
fn spawn_refuses_any_shard_count_but_one() {
    for shards in [0usize, 2] {
        match spawn(ServerConfig {
            shards,
            ..local_config()
        }) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            Ok(_) => panic!("spawn accepted shards: {shards}"),
        }
    }
}
