//! Served-query benchmark for the systolic database server.
//!
//! Starts a real `systolic_server` in this process and drives it over its
//! wire protocol. One invocation serves one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics instead (see `perfbench/README.md`). Every answer is
//! checked. The last line of standard output is one JSON object.

mod check;
mod drive;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use systolic_machine::{Backend, MachineConfig};
use systolic_server::{spawn, Client, IoModel, ServerConfig, ServerHandle};
use systolic_telemetry::chrome::{ArgValue, ChromeTrace};
use systolic_telemetry::{json, prom, record_between, span, SpanRecord};

use crate::check::Answers;
use crate::drive::{drive_all, Phase};
use crate::stats::{beyond, mean, median, quantile, ratio, weighted_mean};
use crate::workload::{Kind, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Host spans kept from the traced served phase (the program's own spans
/// fire there too, tens of thousands per second).
const SERVED_SPAN_CAP: usize = 20_000;
/// Client-side request spans kept from the traced served phase.
const REQUEST_SPAN_CAP: usize = 5_000;
/// Where runs leave their traces and scratch files, under the working
/// directory.
const RUN_DIR: &str = ".bench_run";

/// The pinned server configuration every workload runs against: the
/// columnar backend, the poll front end and one shard; every other field
/// at its default. Only `durable_rw` sets a data directory.
pub(crate) fn server_config(data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        io: IoModel::Poll,
        shards: 1,
        machine: MachineConfig {
            backend: Backend::Columnar,
            ..MachineConfig::default()
        },
        data_dir,
        ..ServerConfig::default()
    }
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload point|pipelined|analytic|durable_rw \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run_dir = Path::new(RUN_DIR).join(format!(
        "{}-{}-{}",
        args.workload.label(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric as printed and reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// What a run reports: the answer checks and its metrics.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// Correct answers per distinct query.
    served: Vec<u64>,
    metrics: Vec<Metric>,
}

impl RunResult {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let w = Workload::new(args.workload, args.seed);
    print_env(args);

    // Set up several times and keep the last server for the measurement.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut server = None;
    for i in 0..SETUPS {
        if let Some(handle) = server.take() {
            stop(handle)?;
        }
        let data_dir = (w.kind == Kind::DurableRw).then(|| run_dir.join(format!("data{i}")));
        let (handle, secs) = set_up(&w, data_dir)?;
        setup_s.push(secs);
        server = Some(handle);
    }
    let handle = server.expect("SETUPS > 0");

    let mut client = Client::connect(handle.addr).map_err(|e| e.to_string())?;
    let answers = check::solo_answers(&mut client, &w);
    client.close().map_err(|e| e.to_string())?;
    let result = if args.trace {
        traced(args, &w, &handle, &answers, run_dir)
    } else {
        untraced(args, &w, &handle, &answers, median(&mut setup_s))
    };
    stop(handle)?;
    let mut result = result?;
    // Every answer to a query whose solo answer fails the reference check
    // fails with it.
    let bad = answers.check_reference(&w)?;
    println!(
        "check: {} of {} distinct solo answers match the reference",
        w.queries.len() - bad.len(),
        w.queries.len()
    );
    result.failed += bad.iter().map(|&k| result.served[k]).sum::<u64>();
    for m in &result.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        let kind = if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("{kind} {} = {} {}{note}", m.name, m.value, m.unit);
    }
    println!(
        "requests: attempted={} failed={} error_rate={:?}",
        result.attempted,
        result.failed,
        ratio(result.failed as f64, result.attempted as f64)
    );
    Ok(result.json())
}

fn set_up(w: &Workload, data_dir: Option<PathBuf>) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let handle = spawn(server_config(data_dir)).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(handle.addr).map_err(|e| e.to_string())?;
    for t in &w.tables {
        let rows = client
            .load_csv(&t.name, t.kinds, &t.csv)
            .map_err(|e| format!("set-up LOAD {}: {e}", t.name))?;
        if rows != t.rows {
            return Err(format!(
                "set-up LOAD {} acknowledged {rows} rows, not {}",
                t.name, t.rows
            ));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    client.close().map_err(|e| e.to_string())?;
    Ok((handle, secs))
}

fn stop(handle: ServerHandle) -> Result<(), String> {
    handle.shutdown();
    handle
        .join()
        .map(|_| ())
        .map_err(|e| format!("server exit: {e}"))
}

fn measured_phase(
    w: &Workload,
    handle: &ServerHandle,
    answers: &Answers,
    seconds: f64,
    traced: bool,
) -> Result<Phase, String> {
    let (conns, depth) = w.kind.connections();
    let streams = (0..conns).map(|c| w.stream(c)).collect();
    drive_all(handle.addr, streams, depth, seconds, answers, traced)
        .map_err(|e| format!("measured phase: {e}"))
}

/// Mean over correct query answers of a per-query figure.
fn per_answer(served: &[u64], figure: &[u64]) -> f64 {
    let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    weighted_mean(&as_f64(figure), &as_f64(served))
}

fn untraced(
    args: &Args,
    w: &Workload,
    handle: &ServerHandle,
    answers: &Answers,
    setup_s: f64,
) -> Result<RunResult, String> {
    // Memory once the server is set up and has answered every distinct
    // query once. The peak of the measured phase that follows depends on
    // how allocator arenas fill under the host's CPU contention, and
    // includes the load generator's sample buffers; it is printed below.
    let rss_mb = peak_rss_mb()?;
    let phase = measured_phase(w, handle, answers, args.seconds, false)?;
    let all = phase.latencies_ms(false);
    let metrics = vec![
        metric("p50_ms", quantile(&all, 0.5), "ms").note(format!("n={}", all.len())),
        metric("qps", phase.qps(), "1/s")
            .note(format!("median over {} whole seconds", phase.seconds)),
        metric("setup_s", setup_s, "s").note(format!("median of {SETUPS} set-ups")),
        metric("rss_mb", rss_mb, "MB").note("peak before the measured phase".into()),
    ];
    // Reported for reading, not gated: a p99 here follows the host's CPU
    // contention more than the server, writes exist only on `durable_rw`,
    // and pulses are 0 where every filter runs at the disk.
    println!(
        "info p99_ms = {} ms (n={}, {} samples beyond)",
        quantile(&all, 0.99),
        all.len(),
        beyond(all.len(), 0.99)
    );
    println!("info peak_rss_mb = {} MB (whole run)", peak_rss_mb()?);
    if w.kind == Kind::DurableRw {
        let writes = phase.latencies_ms(true);
        println!(
            "info write_p50_ms = {} ms (n={})",
            quantile(&writes, 0.5),
            writes.len()
        );
        println!(
            "info write_p99_ms = {} ms ({} samples beyond)",
            quantile(&writes, 0.99),
            beyond(writes.len(), 0.99)
        );
    }
    let served = phase.served(w.queries.len());
    println!(
        "info sim_pulses_per_query = {} pulses",
        per_answer(&served, &answers.pulses)
    );
    println!(
        "info sim_makespan_us_per_query = {} us",
        per_answer(&served, &answers.makespan_ns) / 1e3
    );
    Ok(RunResult {
        attempted: phase.attempted(),
        failed: phase.failed(),
        served,
        metrics,
    })
}

/// Counters scraped from `STATS` and `METRICS` at one instant.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    queries: f64,
    cse_hits: f64,
    batch_sum: f64,
    batch_count: f64,
    cache_hits: f64,
    cache_misses: f64,
    fused_steps: f64,
    wal_fsyncs: f64,
    pool_hits: f64,
    pool_misses: f64,
}

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let stats = {
        let _span = span("bench.scrape.stats");
        client.stats_line().map_err(|e| e.to_string())?
    };
    let field = |name: &str| -> f64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name).and_then(|v| v.strip_prefix('=')))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let text = {
        let _span = span("bench.scrape.metrics");
        client.metrics().map_err(|e| e.to_string())?
    };
    let expo = prom::parse(&text)?;
    let value = |name: &str| expo.value(name, "").unwrap_or(0.0);
    Ok(Scrape {
        queries: field("queries"),
        cse_hits: field("cse_hits"),
        batch_sum: value("sdb_batch_size_sum"),
        batch_count: value("sdb_batch_size_count"),
        cache_hits: value("sdb_plan_cache_hits_total"),
        cache_misses: value("sdb_plan_cache_misses_total"),
        fused_steps: value("sdb_columnar_fused_steps_total"),
        wal_fsyncs: value("sdb_storage_wal_fsyncs_total"),
        pool_hits: value("sdb_storage_pool_hits_total"),
        pool_misses: value("sdb_storage_pool_misses_total"),
    })
}

/// Host waits from the flight recorder's retained query profiles.
#[derive(Debug, Default)]
struct ProfileWaits {
    queue_wait_us: Vec<f64>,
    lock_wait_us: Vec<f64>,
    wal_fsync_us: Vec<f64>,
}

fn profile_waits(client: &mut Client) -> Result<ProfileWaits, String> {
    let profiles = {
        let _span = span("bench.scrape.profiles");
        client.profiles().map_err(|e| e.to_string())?
    };
    let mut out = ProfileWaits::default();
    for text in profiles {
        let doc = json::parse(&text)?;
        let Some(host) = doc.get("host") else {
            continue;
        };
        let us = |k: &str| host.get(k).and_then(json::Json::as_f64).unwrap_or(0.0) / 1e3;
        out.queue_wait_us.push(us("queue_wait_ns"));
        out.lock_wait_us.push(us("lock_wait_ns"));
        out.wal_fsync_us.push(us("wal_fsync_ns"));
    }
    Ok(out)
}

/// Keeps the first spans the collector receives, dropping the rest, so a
/// long served phase cannot grow without bound.
struct SpanSink {
    kept: Arc<Mutex<Vec<SpanRecord>>>,
    stop: Arc<AtomicBool>,
    drainer: std::thread::JoinHandle<()>,
}

impl SpanSink {
    fn start(collector: Arc<systolic_telemetry::Collector>, cap: usize) -> SpanSink {
        let kept = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let (k, s) = (Arc::clone(&kept), Arc::clone(&stop));
        let drainer = std::thread::spawn(move || loop {
            let done = s.load(Ordering::SeqCst);
            let spans = collector.drain();
            let mut kept = k.lock().expect("span sink poisoned");
            let room = cap.saturating_sub(kept.len());
            kept.extend(spans.into_iter().take(room));
            drop(kept);
            if done {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
        SpanSink {
            kept,
            stop,
            drainer,
        }
    }

    fn finish(self) -> Vec<SpanRecord> {
        self.stop.store(true, Ordering::SeqCst);
        self.drainer.join().expect("span drainer panicked");
        std::mem::take(&mut *self.kept.lock().expect("span sink poisoned"))
    }
}

/// What the traced served phase recorded.
struct Traced {
    phase: Phase,
    spans: Vec<SpanRecord>,
    before: Scrape,
    after: Scrape,
    waits: ProfileWaits,
}

/// The traced served phase: request spans from the load generator, the
/// program's own spans (capped), and counter scrapes on either side.
fn traced_phase(
    w: &Workload,
    server: &ServerHandle,
    answers: &Answers,
    seconds: f64,
) -> Result<Traced, String> {
    let collector = systolic_telemetry::collector().ok_or("span collector not installed")?;
    let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let before = scrape(&mut client)?;
    let sink = SpanSink::start(Arc::clone(&collector), SERVED_SPAN_CAP);
    let served = measured_phase(w, server, answers, seconds, true);
    let mut spans = sink.finish();
    let phase = served?;
    let after = scrape(&mut client)?;
    let waits = profile_waits(&mut client)?;
    client.close().map_err(|e| e.to_string())?;
    let intervals = phase.conns.iter().flat_map(|c| &c.intervals);
    for &(start, end) in intervals.take(REQUEST_SPAN_CAP) {
        record_between("bench.request", None, start, end);
    }
    spans.extend(collector.drain());
    Ok(Traced {
        phase,
        spans,
        before,
        after,
        waits,
    })
}

fn traced(
    args: &Args,
    w: &Workload,
    handle: &ServerHandle,
    answers: &Answers,
    run_dir: &Path,
) -> Result<RunResult, String> {
    let half = args.seconds / 2.0;
    // The same served phase untraced and then traced, each on a freshly
    // set-up server so both start from the same catalog: the difference
    // is the tracing overhead.
    let plain = measured_phase(w, handle, answers, half, false)?;
    let p50_plain = quantile(&plain.latencies_ms(false), 0.5);
    let data_dir = (w.kind == Kind::DurableRw).then(|| run_dir.join("data-traced"));
    let (fresh, _) = set_up(w, data_dir)?;

    let collector = systolic_telemetry::install();
    let served = traced_phase(w, &fresh, answers, half);
    let stopped = stop(fresh);
    let Traced {
        phase,
        mut spans,
        before,
        after,
        waits,
    } = served?;
    stopped?;
    let freq = phase.served(w.queries.len());
    let measured = layers::measure(w, &freq, &run_dir.join("wal-timing"), &collector);
    systolic_telemetry::uninstall();
    let (layers, layer_spans) = measured?;
    spans.extend(layer_spans);
    let trace_path = Path::new(RUN_DIR).join(format!("trace-{}-{}.json", w.kind.label(), w.seed));
    chrome_trace(&spans)
        .write_to(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "trace: {} spans written to {}",
        spans.len(),
        trace_path.display()
    );

    let d = |f: fn(&Scrape) -> f64| f(&after) - f(&before);
    let p50 = quantile(&phase.latencies_ms(false), 0.5);
    let host: Vec<(u64, u64)> = phase.conns.iter().flat_map(|c| c.host.clone()).collect();
    let mut host_us: Vec<f64> = host.iter().map(|&(_, h)| h as f64 / 1e3).collect();
    let mut wire_us: Vec<f64> = host
        .iter()
        .map(|&(lat, h)| lat.saturating_sub(h) as f64 / 1e3)
        .collect();
    let writes: usize = phase.conns.iter().map(|c| c.write_latency_ns.len()).sum();
    let fusable: u64 = freq
        .iter()
        .zip(&layers.fusable_steps)
        .map(|(n, steps)| n * steps)
        .sum();
    let cache_hit_frac = ratio(
        d(|s| s.cache_hits),
        d(|s| s.cache_hits) + d(|s| s.cache_misses),
    );
    let queue_wait_us = median(&mut waits.queue_wait_us.clone());
    let lock_wait_us = mean(&waits.lock_wait_us);
    let host_wall_us = median(&mut host_us);
    let durable = w.kind == Kind::DurableRw;
    // The layer times one request passes through; what they leave of the
    // client's p50 is unattributed.
    let attributed_us = queue_wait_us
        + lock_wait_us
        + layers.parse_us
        + layers.analyze_us
        + layers.optimize_us * (1.0 - cache_hit_frac)
        + layers.compile_us
        + host_wall_us
        + layers.render_us
        + mean(&waits.wal_fsync_us);
    let metrics = vec![
        metric("server.queue_wait_us", queue_wait_us, "us"),
        metric("server.wire_us", median(&mut wire_us), "us"),
        metric("server.host_wall_us", host_wall_us, "us"),
        metric(
            "server.batch_size",
            ratio(d(|s| s.batch_sum), d(|s| s.batch_count)),
            "count",
        ),
        metric(
            "server.cse_hit_frac",
            ratio(d(|s| s.cse_hits), d(|s| s.queries)),
            "fraction",
        ),
        metric("server.plan_cache_hit_frac", cache_hit_frac, "fraction"),
        metric("server.lock_wait_us", lock_wait_us, "us"),
        metric("analyzer.analyze_us", layers.analyze_us, "us"),
        metric("planner.optimize_us", layers.optimize_us, "us"),
        metric(
            "planner.rewrites_per_query",
            layers.rewrites_per_query,
            "count",
        ),
        metric("machine.parse_us", layers.parse_us, "us"),
        metric("machine.compile_us", layers.compile_us, "us"),
        metric("machine.run_us", layers.run_us, "us"),
        metric("machine.account_us", layers.account_us, "us"),
        metric("machine.execute_us", layers.execute_us, "us"),
        metric("machine.batch_over_solo", layers.batch_over_solo, "ratio"),
        metric(
            "machine.tiles_per_query",
            per_answer(&freq, &answers.array_runs),
            "count",
        ),
        metric(
            "machine.sim_pulses_per_query",
            per_answer(&freq, &answers.pulses),
            "pulses",
        ),
        metric(
            "core.fused_step_frac",
            ratio(d(|s| s.fused_steps), fusable as f64),
            "fraction",
        ),
        metric("relation.ingest_mb_s", layers.ingest_mb_s, "MB/s"),
        metric("relation.render_us", layers.render_us, "us"),
        metric("relation.render_mb_s", layers.render_mb_s, "MB/s"),
        metric("storage.wal_append_us", layers.wal_append_us, "us"),
        metric(
            "storage.fsyncs_per_write",
            if durable {
                ratio(d(|s| s.wal_fsyncs), writes as f64)
            } else {
                0.0
            },
            "count",
        ),
        metric(
            "storage.pool_hit_frac",
            ratio(
                d(|s| s.pool_hits),
                d(|s| s.pool_hits) + d(|s| s.pool_misses),
            ),
            "fraction",
        ),
        metric(
            "trace.overhead_frac",
            ratio(p50 - p50_plain, p50_plain),
            "fraction",
        ),
        metric(
            "trace.closure_frac",
            ratio(attributed_us, p50 * 1e3),
            "fraction",
        ),
    ];
    let served = plain
        .served(w.queries.len())
        .iter()
        .zip(&freq)
        .map(|(a, b)| a + b)
        .collect();
    Ok(RunResult {
        attempted: plain.attempted() + phase.attempted(),
        failed: plain.failed() + phase.failed(),
        served,
        metrics,
    })
}

/// Host spans as a Chrome trace: one track per thread.
fn chrome_trace(spans: &[SpanRecord]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.set_process_name(1, "perfbench (host wall time)");
    let mut threads: Vec<&str> = spans.iter().map(|s| s.thread.as_str()).collect();
    threads.sort_unstable();
    threads.dedup();
    for (tid, thread) in threads.iter().enumerate() {
        trace.set_thread_name(1, tid as u32 + 1, thread);
    }
    for s in spans {
        let tid = threads.binary_search(&s.thread.as_str()).unwrap_or(0) as u32 + 1;
        let mut args = vec![
            ("trace_id".to_string(), ArgValue::U64(s.trace_id)),
            ("span_id".to_string(), ArgValue::U64(s.span_id)),
        ];
        if let Some(parent) = s.parent_id {
            args.push(("parent_id".to_string(), ArgValue::U64(parent)));
        }
        for (k, v) in &s.args {
            args.push((k.to_string(), ArgValue::Str(v.clone())));
        }
        trace.complete(1, tid, s.name, s.start_ns, s.end_ns - s.start_ns, args);
    }
    trace
}

/// Peak resident set size of this process, which serves the workload.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The git revision of the working directory's checkout, read from
/// `.git` directly (the benchmark may run from an export without one).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_env(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let cfg = server_config(None);
    println!(
        "env: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{rustc}\" git_rev={}",
        args.workload.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    println!(
        "config: backend={} io={} shards={} batch_window_ms={} max_batch={} optimize={} \
         workers={} data_dir={}",
        cfg.machine.backend.label(),
        cfg.io.label(),
        cfg.shards,
        cfg.batch_window.as_secs_f64() * 1e3,
        cfg.max_batch,
        if cfg.optimize { "on" } else { "off" },
        cfg.workers,
        if args.workload == Kind::DurableRw {
            "fresh temp dir"
        } else {
            "none"
        },
    );
}
