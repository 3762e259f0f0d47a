//! The TCP service: configuration, startup and crash recovery, the request
//! dispatcher, and graceful shutdown.
//!
//! Connections are served by the poll(2) reactor (`reactor.rs`): one
//! thread multiplexes every socket, and a bounded worker pool runs the
//! dispatcher (`handle_request`) on complete request frames. No async
//! runtime. On shutdown in-flight requests are answered, idle sessions get
//! `BYE`, and new work is refused with `ERR shutting_down`. The reactor
//! needs poll(2), so on targets without it [`spawn`] and [`run`] fail with
//! [`io::ErrorKind::Unsupported`].

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use systolic_machine::{Expr, MachineConfig, Plan, System};
use systolic_storage::{LockMode, LockTable, ReplacerKind, StorageEngine, WalRecord};
use systolic_telemetry::metrics::QuantileSummary;
use systolic_telemetry::{root_span, TraceCtx};

use crate::engine::{self, EngineError, Store};
use crate::locks;
use crate::metrics::ServerMetrics;
use crate::profile::{self, FlightRecorder, QueryProfile};
use crate::protocol::{
    analysis_err_frame, checkpointed_frame, err_frame, host_frame, loaded_frame, metrics_frame,
    parse_err_frame, parse_request, profile_frame, profiles_frame, result_frame, Request,
};
use crate::scheduler::{self, Job};
use crate::shutdown;

/// The connection front end. The poll(2) reactor is the only one: a single
/// thread multiplexes every connection (an idle session costs one pollfd)
/// and dispatches complete request frames to the worker pool. Connections
/// may pipeline requests; responses come back in request order per
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// The poll(2) reactor.
    Poll,
}

impl IoModel {
    /// The name printed for this front end.
    pub fn label(&self) -> &'static str {
        match self {
            IoModel::Poll => "poll",
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4171` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads: how many request frames are served at once.
    pub workers: usize,
    /// Request frames allowed to wait for a free worker. Once `workers +
    /// max_pending` frames are in flight, further frames are answered
    /// `ERR overloaded` (in pipeline order) until some complete.
    pub max_pending: usize,
    /// The connection front end; [`IoModel::Poll`] is the only one. Kept
    /// only until the benchmark's pinned config stops naming it.
    pub io: IoModel,
    /// Must be 1: every server runs exactly one `System`. Kept only until
    /// the benchmark's pinned config stops setting it; [`spawn`] and [`run`]
    /// refuse any other value with `InvalidInput`.
    pub shards: usize,
    /// Configuration of the shared simulated machine.
    pub machine: MachineConfig,
    /// How long a session waits for the scheduler to answer one request
    /// before giving up with `ERR timeout`.
    pub request_timeout: Duration,
    /// How long the admission scheduler gathers concurrently-arriving
    /// queries before admitting them as one merged schedule.
    pub batch_window: Duration,
    /// Largest number of jobs admitted as one batch.
    pub max_batch: usize,
    /// Largest accepted request frame, in bytes.
    pub max_request_bytes: usize,
    /// Queries slower than this (end-to-end host time) are written to the
    /// slow-query log on stderr; `None` disables the log.
    pub slow_query: Option<Duration>,
    /// Durable storage directory. When set, every `LOAD` and every query
    /// with a `store(...)` side effect is written-ahead to a log under this
    /// directory, and startup replays the log (from the last checkpoint)
    /// before the listener starts answering — so a killed server restarted
    /// on the same directory serves byte-identical `RESULT` frames. `None`
    /// runs fully in memory, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// Buffer-pool capacity of the paged relation store, in 8 KiB pages.
    pub pool_pages: usize,
    /// Page replacement policy for the buffer pool and the machine's
    /// staging-memory eviction.
    pub replacer: ReplacerKind,
    /// Chrome-trace output path. When set, the server installs the process
    /// span collector at startup and, at shutdown, writes one trace covering
    /// its own spans and the flight recorder's simulated per-step schedule —
    /// host time on pid 2, pulse time on pid 1, never mixed.
    pub trace_out: Option<PathBuf>,
    /// Flight-recorder capacity: how many recent query profiles the server
    /// retains for `PROFILES` and the shutdown trace (0 disables it).
    pub profile_history: usize,
    /// Route admitted queries through the cost-based plan compiler
    /// (`sdb serve --optimize on|off`). Every accepted rewrite is proven
    /// schema-preserving and never pulse-regressing by the planner, so
    /// result rows are byte-identical either way; only the pulse accounting
    /// (which prices the cheaper chosen plan) changes.
    pub optimize: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4171".to_string(),
            workers: 32,
            max_pending: 32,
            io: IoModel::Poll,
            shards: 1,
            machine: MachineConfig::default(),
            request_timeout: Duration::from_secs(30),
            batch_window: Duration::from_millis(2),
            max_batch: 16,
            max_request_bytes: 1 << 20,
            slow_query: Some(Duration::from_secs(1)),
            data_dir: None,
            pool_pages: 256,
            replacer: ReplacerKind::Clock,
            trace_out: None,
            profile_history: 64,
            optimize: true,
        }
    }
}

/// Live durability gauges the scheduler maintains and `STATS` reads.
#[derive(Debug, Default)]
pub(crate) struct DurableStats {
    /// Current WAL file length in bytes (drops to 0 at a checkpoint).
    pub(crate) wal_bytes: AtomicU64,
    /// Logical records in the durable history (checkpoint + WAL).
    pub(crate) wal_records: AtomicU64,
    /// Checkpoints taken since startup.
    pub(crate) checkpoints: AtomicU64,
    /// Records replayed during startup recovery.
    pub(crate) recovered: AtomicU64,
}

/// Monotonic service counters, shared between workers and the scheduler.
///
/// One mutex guards the whole set, so a concurrent `STATS` probe (or the
/// final report) always reads a consistent snapshot — it can never see,
/// say, a batch counted whose queries aren't, the torn view the old
/// independent atomics allowed.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    state: Mutex<CounterState>,
}

/// The counter fields; [`Counters::snapshot`] returns a copy of this.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CounterState {
    pub(crate) queries: u64,
    pub(crate) loads: u64,
    pub(crate) batches: u64,
    pub(crate) max_batch: u64,
    pub(crate) refused: u64,
    pub(crate) timeouts: u64,
    pub(crate) slow_queries: u64,
    pub(crate) queue_hwm: u64,
    pub(crate) rewrites: u64,
    pub(crate) plan_cache_hits: u64,
    pub(crate) cse_hits: u64,
}

impl Counters {
    /// Apply one mutation atomically with respect to snapshots.
    pub(crate) fn update(&self, f: impl FnOnce(&mut CounterState)) {
        f(&mut locks::lock(&self.state));
    }

    /// A consistent copy of every counter.
    pub(crate) fn snapshot(&self) -> CounterState {
        *locks::lock(&self.state)
    }
}

/// A snapshot of service counters, returned when the server exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Tables loaded.
    pub loads: u64,
    /// Multi-query merged schedules admitted.
    pub batches: u64,
    /// Largest batch admitted.
    pub max_batch: u64,
    /// Request frames shed with `ERR overloaded` because `workers +
    /// max_pending` frames were already in flight.
    pub refused: u64,
    /// Requests that hit the per-request timeout.
    pub timeouts: u64,
    /// High-water mark of request frames in flight (queued or being
    /// served).
    pub queue_hwm: u64,
    /// Queries slower than the slow-query threshold.
    pub slow_queries: u64,
    /// Planner rewrites accepted across all compiled queries.
    pub rewrites: u64,
    /// Queries whose optimized plan came from the plan cache.
    pub plan_cache_hits: u64,
    /// Queries answered by sharing another identical query's slot in a
    /// merged batch (batch-window common-subexpression elimination).
    pub cse_hits: u64,
}

pub(crate) struct Shared {
    pub(crate) store: RwLock<Store>,
    pub(crate) counters: Arc<Counters>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) active: AtomicUsize,
    pub(crate) cfg: ServerConfig,
    pub(crate) stop: AtomicBool,
    pub(crate) started: Instant,
    /// Relation-name lock table: `LOAD` and `store(...)` take exclusive
    /// locks, scans take shared ones, so a concurrent reader can never
    /// observe a partially-loaded relation.
    pub(crate) lock_table: LockTable,
    /// Durability gauges, present when `cfg.data_dir` is set.
    pub(crate) durable: Option<Arc<DurableStats>>,
    /// The always-on ring of recent query profiles (`PROFILES`, the
    /// slow-query dump, the shutdown trace's simulated track).
    pub(crate) recorder: FlightRecorder,
    /// Compiled-plan cache: query text + catalog fingerprint → the chosen
    /// expression. The fingerprint covers every table's name, arity, row
    /// count, and column domains, so a `LOAD` or `store(...)` that changes
    /// what the cost model would predict silently invalidates stale entries.
    pub(crate) plan_cache: Mutex<HashMap<(String, u64), Expr>>,
}

/// Entries the plan cache holds before it is wholesale cleared. Compiling a
/// plan is microseconds, so an occasional cold restart is cheaper than
/// tracking recency.
const PLAN_CACHE_CAP: usize = 1024;

impl Shared {
    fn new(cfg: ServerConfig) -> io::Result<Self> {
        if cfg!(not(unix)) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the server's poll(2) front end needs a unix target",
            ));
        }
        if cfg.shards != 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shards must be 1, got {}", cfg.shards),
            ));
        }
        let metrics = Arc::new(ServerMetrics::new());
        metrics.backend_info(cfg.machine.backend.label()).inc();
        let durable = cfg
            .data_dir
            .as_ref()
            .map(|_| Arc::new(DurableStats::default()));
        let recorder = FlightRecorder::new(cfg.profile_history);
        Ok(Shared {
            store: RwLock::new(Store::new()),
            counters: Arc::new(Counters::default()),
            metrics,
            active: AtomicUsize::new(0),
            cfg,
            stop: AtomicBool::new(false),
            started: Instant::now(),
            lock_table: LockTable::new(),
            durable,
            recorder,
            plan_cache: Mutex::new(HashMap::new()),
        })
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || shutdown::signalled()
    }

    fn report(&self) -> ServerReport {
        let c = self.counters.snapshot();
        ServerReport {
            queries: c.queries,
            loads: c.loads,
            batches: c.batches,
            max_batch: c.max_batch,
            refused: c.refused,
            timeouts: c.timeouts,
            queue_hwm: c.queue_hwm,
            slow_queries: c.slow_queries,
            rewrites: c.rewrites,
            plan_cache_hits: c.plan_cache_hits,
            cse_hits: c.cse_hits,
        }
    }
}

/// A running server spawned in the background (the programmatic API; tests
/// and the throughput bench use this).
pub struct ServerHandle {
    /// The bound address — with `addr: "127.0.0.1:0"` this is where the
    /// kernel actually put the listener.
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    join: thread::JoinHandle<io::Result<ServerReport>>,
}

impl ServerHandle {
    /// Ask the server to drain and exit (what SIGTERM does to `run`).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Wait for the server to exit and return its counter snapshot.
    pub fn join(self) -> io::Result<ServerReport> {
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Bind and serve in a background thread, returning immediately.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(config)?);
    let serve_shared = Arc::clone(&shared);
    let join = thread::Builder::new()
        .name("systolic-serve".to_string())
        .spawn(move || serve_on(listener, serve_shared, || ()))?;
    Ok(ServerHandle { addr, shared, join })
}

/// Bind and serve on the calling thread until SIGINT/SIGTERM (the `sdb
/// serve` path). Prints a `listening on <addr>` line once ready — after
/// crash recovery has replayed the log, so a client connecting on that cue
/// sees the fully recovered catalog — and a summary line on shutdown.
pub fn run(config: ServerConfig) -> io::Result<ServerReport> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    shutdown::install();
    let shared = Arc::new(Shared::new(config)?);
    let report = serve_on(listener, Arc::clone(&shared), move || {
        println!("listening on {addr}");
        let _ = io::stdout().flush();
    })?;
    println!(
        "shutdown: {} queries ({} batched schedules, largest {}), {} loads, \
         {} refused, {} timeouts",
        report.queries,
        report.batches,
        report.max_batch,
        report.loads,
        report.refused,
        report.timeouts,
    );
    Ok(report)
}

fn serve_on(
    listener: TcpListener,
    shared: Arc<Shared>,
    ready: impl FnOnce(),
) -> io::Result<ServerReport> {
    listener.set_nonblocking(true)?;
    // Tracing on: install the process-global collector before any request
    // runs.
    let trace_collector = shared
        .cfg
        .trace_out
        .as_ref()
        .map(|_| systolic_telemetry::install());
    let mut system = System::new(shared.cfg.machine.clone()).map_err(io::Error::other)?;
    // Crash recovery happens before `ready()` fires and before any frame is
    // answered: open the durable engine, back the machine's disks with its
    // paged store, and redo the logged history in its original order.
    let durable = match &shared.cfg.data_dir {
        Some(dir) => {
            let (engine, records, report) =
                StorageEngine::open_with(dir, shared.cfg.pool_pages, shared.cfg.replacer)
                    .map_err(io::Error::other)?;
            system.attach_storage(&engine.blobs());
            system.set_staging_replacer(shared.cfg.replacer);
            replay(&shared, &mut system, &records);
            let stats = shared
                .durable
                .as_ref()
                .expect("durable stats exist when data_dir is set");
            stats.wal_bytes.store(engine.wal_bytes(), Ordering::SeqCst);
            stats
                .wal_records
                .store(engine.wal_records() as u64, Ordering::SeqCst);
            stats.recovered.store(
                (report.checkpoint_records + report.wal_records) as u64,
                Ordering::SeqCst,
            );
            Some(scheduler::Durable {
                engine,
                stats: Arc::clone(stats),
                failed: None,
            })
        }
        None => None,
    };
    ready();
    let (tx, rx) = mpsc::channel::<Job>();
    let mut front_err: Option<io::Error> = None;
    thread::scope(|scope| {
        let window = shared.cfg.batch_window;
        let max_batch = shared.cfg.max_batch;
        let sched_counters = Arc::clone(&shared.counters);
        let sched_metrics = Arc::clone(&shared.metrics);
        scope.spawn(move || {
            scheduler::run(
                system,
                rx,
                window,
                max_batch,
                sched_counters,
                sched_metrics,
                durable,
            )
        });
        #[cfg(unix)]
        let outcome = crate::reactor::serve(scope, &listener, &shared, tx);
        // `Shared::new` refuses targets without poll(2) before this point.
        #[cfg(not(unix))]
        let outcome: io::Result<()> = {
            drop(tx);
            Err(io::ErrorKind::Unsupported.into())
        };
        if let Err(e) = outcome {
            shared.stop.store(true, Ordering::SeqCst);
            front_err = Some(e);
        }
    });
    if let (Some(path), Some(collector)) = (&shared.cfg.trace_out, trace_collector) {
        systolic_telemetry::uninstall();
        let trace = profile::server_trace(&collector.drain(), &shared.recorder.profiles());
        if let Err(e) = trace.write_to(path) {
            eprintln!("trace-out: failed to write {}: {e}", path.display());
        }
    }
    match front_err {
        Some(e) => Err(e),
        None => Ok(shared.report()),
    }
}

/// Redo the durable history against a fresh system: loads re-register and
/// re-intern in original order (so §2.3 dictionary codes — and therefore
/// every rendered result — come out identical to the pre-crash server), and
/// logged `store(...)` queries re-run to rebuild their disk write-backs.
/// Individual record failures are logged and skipped: a deterministic
/// failure now also failed before the crash, so skipping reproduces the
/// pre-crash state.
fn replay(shared: &Shared, system: &mut System, records: &[WalRecord]) {
    for record in records {
        match record {
            WalRecord::Load { name, kinds, csv } => {
                let parsed: Option<Vec<systolic_relation::DomainKind>> =
                    kinds.iter().map(|k| engine::kind_of(k)).collect();
                let Some(parsed) = parsed else {
                    eprintln!("recovery: load {name:?} has unknown column kinds; skipped");
                    continue;
                };
                let rel = match locks::write(&shared.store).register(name, &parsed, csv) {
                    Ok(rel) => rel,
                    Err(e) => {
                        eprintln!("recovery: load {name:?} failed to re-register: {e}");
                        continue;
                    }
                };
                system.load_base(name.clone(), rel);
            }
            WalRecord::Query { text } => {
                // Only queries with store(...) side effects are logged; the
                // run rebuilds the write-back. Errors were deterministic
                // before the crash too.
                match engine::prepare(text) {
                    Ok(expr) => {
                        if let Err(e) = system.run(&expr) {
                            eprintln!("recovery: logged query failed to re-run: {e}");
                        }
                    }
                    Err(e) => eprintln!("recovery: logged query failed to parse: {e}"),
                }
            }
            WalRecord::Checkpoint => {}
        }
    }
}

fn engine_err_frame(err: &EngineError) -> String {
    match err {
        EngineError::Parse { err, query } => parse_err_frame(err, query),
        EngineError::Relation(e) => err_frame("relation", &e.to_string()),
        EngineError::Machine(e) => err_frame("machine", &e.to_string()),
        EngineError::Analysis { diags, query } => analysis_err_frame(diags, query),
    }
}

/// The frames answering one request, and whether the connection should be
/// closed after writing them.
pub(crate) struct Reply {
    /// Response frames, in order (a `QUERY` answers with `RESULT` + `HOST`).
    pub(crate) frames: Vec<String>,
    /// Close the connection after the frames are written.
    pub(crate) close: bool,
}

impl Reply {
    fn frame(frame: String) -> Reply {
        Reply {
            frames: vec![frame],
            close: false,
        }
    }

    fn closing(frame: String) -> Reply {
        Reply {
            frames: vec![frame],
            close: true,
        }
    }
}

/// Serve one request line. The reactor's worker pool runs this on every
/// complete frame; blocking is allowed here because it never runs on the
/// reactor thread itself.
pub(crate) fn handle_request(shared: &Shared, tx: &mpsc::Sender<Job>, line: &str) -> Reply {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(msg) => return Reply::frame(err_frame("proto", &msg)),
    };
    match request {
        Request::Close => Reply::closing("BYE".to_string()),
        Request::Shutdown => {
            shared.stop.store(true, Ordering::SeqCst);
            Reply::closing("BYE".to_string())
        }
        Request::Stats => Reply::frame(stats_frame(shared)),
        // Like STATS: observability stays answerable while draining.
        Request::Metrics => Reply::frame(metrics_frame(&shared.metrics.exposition())),
        Request::Profiles => Reply::frame(profiles_frame(&shared.recorder.dump_json())),
        _ if shared.stopping() => Reply::frame(err_frame(
            "shutting_down",
            "server is draining; no new work",
        )),
        Request::Load { name, kinds, csv } => {
            Reply::frame(handle_load(shared, tx, &name, &kinds, &csv))
        }
        Request::Query(query) => respond_query(shared, tx, &query, false),
        Request::Profile(query) => respond_query(shared, tx, &query, true),
        Request::Checkpoint => Reply::frame(handle_checkpoint(shared, tx)),
    }
}

/// Answer a `CHECKPOINT`: ask the scheduler (the thread that owns the WAL)
/// to snapshot the history and reset the log.
fn handle_checkpoint(shared: &Shared, tx: &mpsc::Sender<Job>) -> String {
    if shared.cfg.data_dir.is_none() {
        return err_frame("not_durable", "server is running without --data-dir");
    }
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    if tx.send(Job::Checkpoint { reply: reply_tx }).is_err() {
        return err_frame("shutting_down", "scheduler has exited");
    }
    match reply_rx.recv_timeout(shared.cfg.request_timeout) {
        Ok(Ok((records, bytes))) => checkpointed_frame(records, bytes),
        Ok(Err(e)) => e.frame(),
        Err(RecvTimeoutError::Timeout) => {
            shared.counters.update(|c| c.timeouts += 1);
            shared.metrics.timeouts.inc();
            err_frame("timeout", "checkpoint timed out")
        }
        Err(RecvTimeoutError::Disconnected) => err_frame("shutting_down", "scheduler has exited"),
    }
}

/// Answer a `QUERY` (`RESULT` + `HOST`) or, with `with_profile`, a
/// `PROFILE` (`RESULT` + `PROFILE` + `HOST`) under the request span, latency
/// histogram, flight recorder, and slow-query log.
fn respond_query(
    shared: &Shared,
    tx: &mpsc::Sender<Job>,
    query: &str,
    with_profile: bool,
) -> Reply {
    let started = Instant::now();
    // A fresh trace per request: concurrent clients must never share a
    // trace id even when the scheduler merges them into one batch schedule.
    let mut span = root_span("server.request");
    span.arg("query", query);
    let trace = span.ctx();
    let (frames, profile) = handle_query(shared, tx, query, trace, with_profile);
    drop(span);
    let elapsed = started.elapsed();
    shared.metrics.latency.observe(elapsed.as_nanos() as u64);
    let trace_id = trace.map_or(0, |c| c.trace_id);
    // Every query — not just `PROFILE` — feeds the flight recorder, and
    // failures are recorded (and dumped) too: post-hoc diagnosis must not
    // require reproduction.
    let failed = frames.first().is_some_and(|f| f.starts_with("ERR "));
    let recorded = match profile {
        Some(p) => Some(p),
        None if failed => Some(QueryProfile::error(
            query,
            trace_id,
            shared.cfg.machine.backend.label(),
            &frames[0],
        )),
        None => None,
    };
    let slow = slow_query_line(query, elapsed, shared.cfg.slow_query, trace_id);
    if let Some(p) = recorded {
        if failed || slow.is_some() {
            eprintln!("flight-recorder: {}", p.to_json());
        }
        shared.recorder.record(p);
    }
    if let Some(line) = slow {
        shared.counters.update(|c| c.slow_queries += 1);
        shared.metrics.slow_queries.inc();
        eprintln!("{line}");
    }
    Reply {
        frames,
        close: false,
    }
}

fn stats_frame(shared: &Shared) -> String {
    let tables = locks::read(&shared.store).table_count();
    let report = shared.report();
    // The one shared reading of the latency histogram: `STATS` and the
    // profile output render the same digits by construction.
    let lat = QuantileSummary::from_histogram(&shared.metrics.latency);
    let (durable, wal_records, wal_bytes, checkpoints, recovered) = match &shared.durable {
        Some(d) => (
            1,
            d.wal_records.load(Ordering::SeqCst),
            d.wal_bytes.load(Ordering::SeqCst),
            d.checkpoints.load(Ordering::SeqCst),
            d.recovered.load(Ordering::SeqCst),
        ),
        None => (0, 0, 0, 0, 0),
    };
    // New fields only ever get appended: clients key on names, but scripted
    // consumers of older servers may still slice by position.
    format!(
        "STATS tables={tables} queries={} loads={} batches={} max_batch={} refused={} \
         timeouts={} active={} uptime_ms={} queue_hwm={} slow={} lat_p50_ns={} \
         lat_p95_ns={} lat_p99_ns={} lat_count={} backend={} \
         durable={durable} wal_records={wal_records} \
         wal_bytes={wal_bytes} checkpoints={checkpoints} recovered={recovered} \
         optimize={optimize} rewrites={} plan_cache_hits={} cse_hits={}",
        report.queries,
        report.loads,
        report.batches,
        report.max_batch,
        report.refused,
        report.timeouts,
        shared.active.load(Ordering::SeqCst),
        shared.started.elapsed().as_millis(),
        report.queue_hwm,
        report.slow_queries,
        lat.p50,
        lat.p95,
        lat.p99,
        lat.count,
        shared.cfg.machine.backend.label(),
        report.rewrites,
        report.plan_cache_hits,
        report.cse_hits,
        optimize = u8::from(shared.cfg.optimize),
    )
}

/// The slow-query log line, if `elapsed` reaches the threshold. Carries the
/// request's trace id (0 when tracing is off) so log lines join against
/// Chrome traces and flight-recorder profiles.
fn slow_query_line(
    query: &str,
    elapsed: Duration,
    threshold: Option<Duration>,
    trace_id: u64,
) -> Option<String> {
    let threshold = threshold?;
    if elapsed < threshold {
        return None;
    }
    Some(format!(
        "slow-query: {:.3}ms (threshold {}ms) trace={trace_id} {query}",
        elapsed.as_secs_f64() * 1e3,
        threshold.as_millis(),
    ))
}

fn valid_table_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn handle_load(
    shared: &Shared,
    tx: &mpsc::Sender<Job>,
    name: &str,
    kinds: &[systolic_relation::DomainKind],
    csv: &str,
) -> String {
    if !valid_table_name(name) {
        return err_frame(
            "proto",
            &format!("bad table name {name:?}: letters, digits, underscores"),
        );
    }
    // Exclusive relation lock for the whole load: a concurrent query
    // scanning this name blocks until the relation is fully registered,
    // loaded, and acknowledged — it can never observe a partial load.
    let _lock = shared.lock_table.acquire(name, LockMode::Exclusive);
    // Register under the write lock, then ship the encoded relation to the
    // scheduler so it lands on the machine's disk in admission order. The
    // registration is speculative until the scheduler acknowledges the
    // load: if we time out first we win the fence, the scheduler skips the
    // job, and we unregister — catalog and machine stay in step with what
    // the client was told.
    let rel = {
        let mut store = locks::write(&shared.store);
        if store.has_table(name) {
            return err_frame("conflict", &format!("table {name:?} already exists"));
        }
        match store.register(name, kinds, csv) {
            Ok(rel) => rel,
            Err(e) => return engine_err_frame(&e),
        }
    };
    let fence = Arc::new(AtomicBool::new(false));
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = Job::Load {
        name: name.to_string(),
        rel,
        kinds: kinds.to_vec(),
        csv: csv.to_string(),
        fence: Arc::clone(&fence),
        reply: reply_tx,
    };
    if tx.send(job).is_err() {
        locks::write(&shared.store).unregister(name);
        return err_frame("shutting_down", "scheduler has exited");
    }
    let answer = match reply_rx.recv_timeout(shared.cfg.request_timeout) {
        Ok(answer) => answer,
        Err(RecvTimeoutError::Timeout) => {
            if fence.swap(true, Ordering::SeqCst) {
                // The scheduler claimed the fence first: the load is landing
                // (or has landed) on the machine, so wait for the real
                // acknowledgement rather than telling the client a lie.
                match reply_rx.recv() {
                    Ok(answer) => answer,
                    Err(_) => return err_frame("shutting_down", "scheduler exited mid-load"),
                }
            } else {
                // We won: the scheduler will skip the job, so the relation
                // never reaches the machine. Undo the speculative catalog
                // registration to match.
                locks::write(&shared.store).unregister(name);
                shared.counters.update(|c| c.timeouts += 1);
                shared.metrics.timeouts.inc();
                return err_frame("timeout", "load timed out");
            }
        }
        Err(RecvTimeoutError::Disconnected) => {
            // Scheduler died without acknowledging; the load may or may not
            // have landed, but no client was told it did — drop it.
            locks::write(&shared.store).unregister(name);
            return err_frame("shutting_down", "scheduler has exited");
        }
    };
    match answer {
        Ok(rows) => loaded_frame(name, rows),
        Err(e) => {
            // The scheduler refused the load (its WAL append failed), so
            // the relation never reached the machine: undo the
            // registration as the timeout fence does.
            locks::write(&shared.store).unregister(name);
            e.frame()
        }
    }
}

/// Run the cost-based plan compiler over a checked expression, consulting
/// the plan cache first. Cache keys pair the query text with the catalog
/// fingerprint, so catalog changes (loads, `store(...)` write-backs) route
/// the next occurrence back through the compiler instead of serving a plan
/// costed against stale cardinalities.
///
/// The compiler only errs when the input does not analyze — impossible
/// here, `prepare_checked` just accepted it — but if it ever does, the
/// checked tree runs unoptimized rather than failing the query.
fn optimize_plan(
    shared: &Shared,
    query: &str,
    view: &systolic_analyzer::CatalogView,
    expr: Expr,
) -> Expr {
    let key = (
        query.to_string(),
        systolic_planner::catalog_fingerprint(view),
    );
    {
        let cache = locks::lock(&shared.plan_cache);
        if let Some(plan) = cache.get(&key) {
            shared.metrics.plan_cache_hits.inc();
            shared.counters.update(|c| c.plan_cache_hits += 1);
            return plan.clone();
        }
    }
    shared.metrics.plan_cache_misses.inc();
    match systolic_planner::optimize(&expr, view, &shared.cfg.machine) {
        Ok(choice) => {
            for event in &choice.rewrites {
                shared
                    .metrics
                    .rewrite_hits(event.rule)
                    .add(event.sites as u64);
            }
            shared
                .counters
                .update(|c| c.rewrites += choice.rewrites.len() as u64);
            let mut cache = locks::lock(&shared.plan_cache);
            if cache.len() >= PLAN_CACHE_CAP {
                cache.clear();
            }
            cache.insert(key, choice.expr.clone());
            choice.expr
        }
        Err(_) => expr,
    }
}

/// Answer one query: the `RESULT` (or `ERR`) frame, the `PROFILE` frame
/// when `with_profile`, and the `HOST` frame on success — plus the built
/// [`QueryProfile`] for the flight recorder.
fn handle_query(
    shared: &Shared,
    tx: &mpsc::Sender<Job>,
    query: &str,
    trace: Option<TraceCtx>,
    with_profile: bool,
) -> (Vec<String>, Option<QueryProfile>) {
    // Static analysis before admission: a query that cannot execute (typo'd
    // relation, type error, capacity overflow, ...) never occupies a slot in
    // a merged batch schedule, and the client gets a stable SA00N code with
    // carets instead of a mid-run machine error.
    let (expr, analysis) = {
        let view = locks::read(&shared.store).catalog_view();
        let expr = match engine::prepare_checked(query, &view, &shared.cfg.machine) {
            Ok((expr, _pre)) => expr,
            Err(e) => return (vec![engine_err_frame(&e)], None),
        };
        // Cost-based compilation between checking and admission: the chosen
        // plan replaces the checked one, so everything downstream — the
        // re-analysis below, `Plan::compile`, the scheduler, PROFILE's
        // drift accounting — sees only the optimized tree.
        let expr = if shared.cfg.optimize {
            optimize_plan(shared, query, &view, expr)
        } else {
            expr
        };
        // The profile's per-step predictions come from re-analyzing the
        // *rewritten* tree — the shape `Plan::compile` actually runs —
        // under the same catalog read, before execution can register
        // `store(...)` targets and change what the analyzer would say.
        let analysis = systolic_analyzer::analyze(&expr, &view, &shared.cfg.machine, &[]).ok();
        (expr, analysis)
    };
    let alignment = systolic_analyzer::plan_alignment(&expr);
    let plan = Plan::compile(&expr);
    // Relation locks for the whole request: shared on every scanned name,
    // exclusive on every `store(...)` target. All-or-nothing acquisition
    // (sorted, no hold-and-wait) keeps concurrent sessions deadlock-free,
    // and a reader can never interleave with a load or store of its input.
    let mut wants: Vec<(String, LockMode)> = engine::scan_names(&expr)
        .into_iter()
        .map(|n| (n, LockMode::Shared))
        .collect();
    wants.extend(
        engine::store_names(&expr)
            .into_iter()
            .map(|n| (n, LockMode::Exclusive)),
    );
    let lock_started = Instant::now();
    let _lock = shared.lock_table.acquire_all(wants);
    let lock_wait_ns = lock_started.elapsed().as_nanos() as u64;
    let fence = Arc::new(AtomicBool::new(false));
    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    if tx
        .send(Job::Query {
            expr,
            text: query.to_string(),
            trace,
            fence: Arc::clone(&fence),
            reply: reply_tx,
            submitted: Instant::now(),
        })
        .is_err()
    {
        return (
            vec![err_frame("shutting_down", "scheduler has exited")],
            None,
        );
    }
    let reply = match reply_rx.recv_timeout(shared.cfg.request_timeout) {
        Ok(reply) => reply,
        Err(RecvTimeoutError::Timeout) => {
            if fence.swap(true, Ordering::SeqCst) {
                // The scheduler claimed the fence first: the query is
                // running and its side effects (e.g. `store(...)`) will
                // land, so block for the real answer — `ERR timeout` here
                // would let the catalog diverge from what the client heard.
                match reply_rx.recv() {
                    Ok(reply) => reply,
                    Err(_) => {
                        return (
                            vec![err_frame("shutting_down", "scheduler exited mid-query")],
                            None,
                        )
                    }
                }
            } else {
                // We won: the scheduler will skip the query entirely — no
                // run, no side effects — so `ERR timeout` is the truth.
                shared.counters.update(|c| c.timeouts += 1);
                shared.metrics.timeouts.inc();
                return (vec![err_frame("timeout", "query timed out")], None);
            }
        }
        Err(RecvTimeoutError::Disconnected) => {
            return (
                vec![err_frame("shutting_down", "scheduler has exited")],
                None,
            )
        }
    };
    let reply = match reply {
        Ok(reply) => reply,
        Err(e) => return (vec![e.frame()], None),
    };
    let csv = match locks::read(&shared.store).render_csv(&reply.result) {
        Ok(csv) => csv,
        Err(e) => return (vec![engine_err_frame(&e)], None),
    };
    let built = profile::build(
        query,
        trace.map_or(0, |c| c.trace_id),
        shared.cfg.machine.backend.label(),
        analysis.as_ref(),
        &alignment,
        &plan,
        &reply,
        reply.result.len() as u64,
        lock_wait_ns,
        QuantileSummary::from_histogram(&shared.metrics.latency),
    );
    let mut frames = vec![result_frame(reply.result.len(), &reply.stats, &csv)];
    if with_profile {
        frames.push(profile_frame(&built.to_json()));
    }
    frames.push(host_frame(reply.host_wall_ns));
    (frames, Some(built))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_validated() {
        assert!(valid_table_name("emp"));
        assert!(valid_table_name("_t2"));
        assert!(!valid_table_name(""));
        assert!(!valid_table_name("2fast"));
        assert!(!valid_table_name("a-b"));
        assert!(!valid_table_name("a b"));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 16, "must sustain 16 concurrent connections");
        assert!(cfg.max_batch > 1);
        assert!(cfg.max_request_bytes >= 1 << 20);
        assert!(cfg.slow_query.is_some(), "slow-query log on by default");
    }

    #[test]
    fn slow_query_log_respects_threshold_and_disable() {
        let q = "scan(emp)";
        let ms = Duration::from_millis;
        assert_eq!(slow_query_line(q, ms(999), Some(ms(1000)), 0), None);
        assert_eq!(slow_query_line(q, ms(999), None, 7), None);
        let line = slow_query_line(q, ms(1500), Some(ms(1000)), 42).unwrap();
        assert!(line.starts_with("slow-query: "));
        assert!(line.contains("1500.000ms"));
        assert!(line.contains("(threshold 1000ms)"));
        assert!(line.contains("trace=42"), "{line}");
        assert!(line.ends_with(q));
    }

    #[test]
    fn counter_snapshots_are_consistent_under_concurrent_updates() {
        // Every update bumps queries and loads together under the one lock;
        // a snapshot must never observe them apart.
        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    counters.update(|c| {
                        c.queries += 1;
                        c.loads += 1;
                    });
                }
            })
        };
        for _ in 0..1000 {
            let snap = counters.snapshot();
            assert_eq!(snap.queries, snap.loads, "torn counter snapshot");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
