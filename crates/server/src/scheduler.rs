//! The admission scheduler: the single thread that owns the machine.
//!
//! Workers hand it jobs over a channel; it gathers whatever arrives within
//! a short window (or until the batch cap) and admits the set as *one*
//! merged dependency-level schedule via
//! [`System::run_batch_accounted`] — this is where the paper's "set of
//! transactions" concurrency actually happens: queries from different TCP
//! connections share crossbar ports and devices inside one simulated
//! makespan.
//!
//! Each query's reply still carries its *standalone* accounting (stats and
//! timeline priced as if it ran alone), which `run_batch_accounted`
//! guarantees is bit-identical to a fresh solo run — so batching changes
//! throughput, never answers.
//!
//! Telemetry: the gather phase runs under a `server.batch_window` span and
//! each merged admission under a `server.batch` span (the machine's own
//! spans nest beneath it). Per request, a `server.batch_run` span parented
//! to *that request's* trace carries the shared batch span id — so two
//! merged requests keep distinct trace ids while both point at the one
//! batch that served them.
//!
//! Durability: a load or `store(...)` query is applied only after its WAL
//! record is appended and fsynced. The first failed append latches: that
//! job and every later load, `store(...)` query and checkpoint are refused
//! with `ERR durability`, while read-only queries keep being served. An
//! append after a torn frame would turn the tail into mid-log corruption,
//! which recovery refuses, and a failed fsync is never retried.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use systolic_machine::{Expr, MachineError, RunStats, System, Timeline};
use systolic_relation::{DomainKind, MultiRelation};
use systolic_storage::{StorageEngine, StorageError};
use systolic_telemetry::{root_span, span_in, TraceCtx};

use crate::engine::{kind_name, store_names};
use crate::metrics::ServerMetrics;
use crate::protocol::err_frame;
use crate::server::{Counters, DurableStats};

/// Why the scheduler failed or refused a job: the kind and detail of the
/// `ERR` frame the client gets.
#[derive(Debug)]
pub(crate) struct JobError {
    kind: &'static str,
    detail: String,
}

impl JobError {
    fn durability(detail: String) -> JobError {
        JobError {
            kind: "durability",
            detail,
        }
    }

    /// The `ERR` frame answering the request.
    pub(crate) fn frame(&self) -> String {
        err_frame(self.kind, &self.detail)
    }
}

impl From<MachineError> for JobError {
    fn from(e: MachineError) -> Self {
        JobError {
            kind: "machine",
            detail: e.to_string(),
        }
    }
}

/// A query waiting in a merged batch: its expression and source text, the
/// submitting request's trace, its timeout fence, the reply channel, and the
/// host-side waits measured on its way through the scheduler.
struct PendingQuery {
    expr: Expr,
    text: String,
    trace: Option<TraceCtx>,
    fence: Arc<AtomicBool>,
    reply: SyncSender<Result<QueryReply, JobError>>,
    /// When the submitting worker handed the job to the scheduler.
    submitted: Instant,
    /// Host ns from submission to admission (queue + gather window).
    queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only or
    /// not durable).
    wal_fsync_ns: u64,
}

/// The scheduler's durable half: the storage engine (WAL + paged store)
/// plus the gauges `STATS` reads. Owned by the scheduler thread, so every
/// log append happens in admission order — the order recovery replays.
pub(crate) struct Durable {
    pub(crate) engine: StorageEngine,
    pub(crate) stats: Arc<DurableStats>,
    /// The first failed append's error; once set, every write is refused.
    pub(crate) failed: Option<String>,
}

impl Durable {
    fn refresh(&self) {
        self.stats
            .wal_bytes
            .store(self.engine.wal_bytes(), Ordering::SeqCst);
        self.stats
            .wal_records
            .store(self.engine.wal_records() as u64, Ordering::SeqCst);
    }

    /// The refusal every write gets once an append has failed.
    fn refusal(&self) -> Option<JobError> {
        self.failed.as_ref().map(|first| {
            JobError::durability(format!(
                "writes are refused since a WAL append failed: {first}"
            ))
        })
    }

    /// Run one append, latching its failure. `Ok` means the record is
    /// fsynced and the job may be applied.
    fn append(
        &mut self,
        what: &str,
        append: impl FnOnce(&mut StorageEngine) -> Result<u64, StorageError>,
    ) -> Result<(), JobError> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal);
        }
        let outcome = append(&mut self.engine);
        self.refresh();
        outcome.map(drop).map_err(|e| {
            eprintln!("wal: failed to log {what}: {e}; refusing all writes from now on");
            self.failed = Some(e.to_string());
            JobError::durability(format!("WAL append failed: {e}"))
        })
    }

    /// Write-ahead a load.
    fn log_load(&mut self, name: &str, kinds: &[DomainKind], csv: &str) -> Result<(), JobError> {
        let kinds: Vec<String> = kinds.iter().map(|&k| kind_name(k).to_string()).collect();
        self.append(&format!("load {name:?}"), |engine| {
            engine.log_load(name, &kinds, csv)
        })
    }

    /// Write-ahead a query, but only when it has `store(...)` side effects —
    /// read-only queries change no durable state and replay would only
    /// slow recovery down.
    fn log_query(&mut self, expr: &Expr, text: &str) -> Result<(), JobError> {
        if store_names(expr).is_empty() {
            return Ok(());
        }
        self.append(&format!("query {text:?}"), |engine| engine.log_query(text))
    }

    /// Snapshot the history and reset the log; returns (records, snapshot
    /// bytes).
    fn checkpoint(&mut self) -> Result<(u64, u64), JobError> {
        if let Some(refusal) = self.refusal() {
            return Err(refusal);
        }
        let report = self.engine.checkpoint().map_err(|e| JobError {
            kind: "storage",
            detail: e.to_string(),
        })?;
        self.stats.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.refresh();
        Ok((report.records as u64, report.bytes))
    }
}

/// Claim a job's timeout fence. Exactly one side wins the swap: if the
/// scheduler wins, the job runs (and its side effects land) and the reply
/// is delivered, so a worker that times out after losing the swap must keep
/// waiting for the real answer. If the worker wins (it timed out first),
/// the scheduler sees `true` here and must skip the job entirely — no run,
/// no `store(...)` write-back, no catalog change the client was never told
/// about.
fn claim(fence: &AtomicBool) -> bool {
    !fence.swap(true, Ordering::SeqCst)
}

/// A finished query, as the scheduler reports it to a worker.
pub(crate) struct QueryReply {
    /// The result relation (still encoded; the worker renders it).
    pub result: MultiRelation,
    /// Standalone simulated-hardware statistics.
    pub stats: RunStats,
    /// Host wall-clock nanoseconds for the run that produced this answer
    /// (the whole batch, when batched — it ran as one schedule).
    pub host_wall_ns: u64,
    /// Per-plan-step output cardinalities (see
    /// [`systolic_machine::RunOutcome::step_rows`]) — the actual rows
    /// `PROFILE` reports for each step.
    pub step_rows: Vec<u64>,
    /// The query's standalone simulated schedule (solo-accounted even when
    /// it ran in a merged batch) — what the profiler mines for per-step
    /// actual pulses and device occupancy.
    pub timeline: Timeline,
    /// Host ns the job waited between submission and admission.
    pub queue_wait_ns: u64,
    /// Host ns spent write-ahead-logging this query (0 when read-only).
    pub wal_fsync_ns: u64,
    /// Buffer-pool hits observed process-wide across this run (batch-scoped
    /// when the query ran in a merged batch — best-effort attribution).
    pub pool_hits: u64,
    /// Buffer-pool misses over the same interval as `pool_hits`.
    pub pool_misses: u64,
}

/// A unit of work submitted to the scheduler.
pub(crate) enum Job {
    /// Run a prepared query.
    Query {
        /// The prepared (parsed + rewritten) expression.
        expr: Expr,
        /// The original query text, as logged to the WAL when the query has
        /// durable side effects.
        text: String,
        /// The submitting request's trace context, so scheduler spans for
        /// this query land in the request's trace.
        trace: Option<TraceCtx>,
        /// Timeout fence, shared with the submitting worker (see [`claim`]).
        fence: Arc<AtomicBool>,
        /// Where to deliver the answer; capacity-1 channel so the send
        /// never blocks even if the worker gave up waiting.
        reply: SyncSender<Result<QueryReply, JobError>>,
        /// When the worker submitted the job (host clock; feeds the
        /// profile's queue-wait, never pulse accounting).
        submitted: Instant,
    },
    /// Load an encoded relation onto the machine's disk.
    Load {
        /// Base-relation name.
        name: String,
        /// The encoded relation.
        rel: MultiRelation,
        /// Column kinds, for the write-ahead log record.
        kinds: Vec<DomainKind>,
        /// The original CSV text, for the write-ahead log record (replay
        /// re-imports it so §2.3 dictionary codes come out identical).
        csv: String,
        /// Timeout fence, shared with the submitting worker (see [`claim`]).
        fence: Arc<AtomicBool>,
        /// Acknowledgement carrying the row count, or the refusal.
        reply: SyncSender<Result<usize, JobError>>,
    },
    /// Snapshot the durable history and reset the WAL.
    Checkpoint {
        /// Delivers (records, snapshot bytes) or the error.
        reply: SyncSender<Result<(u64, u64), JobError>>,
    },
}

/// Run the scheduler until every job sender has hung up.
pub(crate) fn run(
    mut system: System,
    jobs: Receiver<Job>,
    window: Duration,
    max_batch: usize,
    counters: Arc<Counters>,
    metrics: Arc<ServerMetrics>,
    mut durable: Option<Durable>,
) {
    while let Ok(first) = jobs.recv() {
        let mut window_span = root_span("server.batch_window");
        let mut batch = vec![first];
        let deadline = Instant::now() + window;
        while batch.len() < max_batch.max(1) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match jobs.recv_timeout(deadline - now) {
                Ok(job) => batch.push(job),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        window_span.arg("jobs", batch.len());
        drop(window_span);

        // Loads first, in arrival order: a query admitted in the same
        // window as the load it depends on sees the table. A load whose
        // worker already fenced it off (client told `ERR timeout`) is
        // skipped whole — its relation must never reach the machine.
        let mut queries = Vec::new();
        for job in batch {
            match job {
                Job::Load {
                    name,
                    rel,
                    kinds,
                    csv,
                    fence,
                    reply,
                } => {
                    if !claim(&fence) {
                        continue;
                    }
                    // Write-ahead: the log record lands (and is fsynced)
                    // before the relation reaches the machine; a load the
                    // log refused never reaches it.
                    if let Some(d) = durable.as_mut() {
                        if let Err(e) = d.log_load(&name, &kinds, &csv) {
                            let _ = reply.send(Err(e));
                            continue;
                        }
                    }
                    let rows = rel.len();
                    system.load_base(name, rel);
                    counters.update(|c| c.loads += 1);
                    metrics.loads.inc();
                    let _ = reply.send(Ok(rows));
                }
                Job::Checkpoint { reply } => {
                    let answer = match durable.as_mut() {
                        Some(d) => d.checkpoint(),
                        None => Err(JobError {
                            kind: "not_durable",
                            detail: "server is running without --data-dir".to_string(),
                        }),
                    };
                    let _ = reply.send(answer);
                }
                Job::Query {
                    expr,
                    text,
                    trace,
                    fence,
                    reply,
                    submitted,
                } => queries.push(PendingQuery {
                    expr,
                    text,
                    trace,
                    fence,
                    reply,
                    submitted,
                    queue_wait_ns: 0,
                    wal_fsync_ns: 0,
                }),
            }
        }
        // Cross-query hazard analysis: a query that reads or writes a
        // relation an earlier admitted query writes must not share the
        // merged schedule — it is deferred and run solo, after the batch,
        // in arrival order, so it observes the earlier write-back whole.
        let mut deferred = Vec::new();
        if queries.len() > 1 {
            let exprs: Vec<Expr> = queries.iter().map(|q| q.expr.clone()).collect();
            let conflicted = systolic_analyzer::deferred_indices(&exprs);
            if !conflicted.is_empty() {
                let mut admitted = Vec::new();
                for (i, q) in queries.into_iter().enumerate() {
                    if conflicted.contains(&i) {
                        deferred.push(q);
                    } else {
                        admitted.push(q);
                    }
                }
                queries = admitted;
            }
        }
        // Claim the admitted queries' fences *before* running: a query
        // whose worker timed out first never runs (no store(...) side
        // effects can land behind the client's back).
        queries.retain(|q| claim(&q.fence));
        // Admission: the queue wait ends here, whatever happens next.
        for q in &mut queries {
            q.queue_wait_ns = q.submitted.elapsed().as_nanos() as u64;
        }
        let n = queries.len();
        counters.update(|c| c.queries += n as u64);
        metrics.queries.add(n as u64);
        // Write-ahead the admitted queries' side effects in admission
        // order — the order the merged run's write-backs are equivalent to
        // (hazard analysis deferred anything that could tell the
        // difference). A query the log refused is answered and never runs.
        if let Some(d) = durable.as_mut() {
            queries.retain_mut(|q| q.write_ahead(d));
        }
        if !queries.is_empty() {
            metrics.batch_size.observe(queries.len() as u64);
        }
        match queries.len() {
            0 => {}
            1 => {
                let q = queries.pop().expect("len checked");
                let _span = span_in(q.trace, "server.run_solo");
                q.answer_solo(&mut system, &metrics);
            }
            n => {
                counters.update(|c| {
                    c.batches += 1;
                    c.max_batch = c.max_batch.max(n as u64);
                });
                metrics.batches.inc();
                run_merged(&mut system, queries, &counters, &metrics);
            }
        }
        for mut q in deferred {
            if !claim(&q.fence) {
                continue;
            }
            q.queue_wait_ns = q.submitted.elapsed().as_nanos() as u64;
            counters.update(|c| c.queries += 1);
            metrics.queries.add(1);
            if let Some(d) = durable.as_mut() {
                if !q.write_ahead(d) {
                    continue;
                }
            }
            let _span = span_in(q.trace, "server.run_solo");
            q.answer_solo(&mut system, &metrics);
        }
    }
}

impl PendingQuery {
    /// Write-ahead this query's side effects, timing the append. Returns
    /// `false` after answering the refusal when the log did not take it:
    /// the query must then not run.
    fn write_ahead(&mut self, durable: &mut Durable) -> bool {
        let logged = Instant::now();
        let outcome = durable.log_query(&self.expr, &self.text);
        self.wal_fsync_ns = logged.elapsed().as_nanos() as u64;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                let _ = self.reply.send(Err(e));
                false
            }
        }
    }

    /// Run this query alone and answer it, stamping the host-side waits
    /// measured for it onto the reply.
    fn answer_solo(&self, system: &mut System, metrics: &ServerMetrics) {
        let reply = run_solo(system, &self.expr, metrics).map(|mut r| {
            r.queue_wait_ns = self.queue_wait_ns;
            r.wal_fsync_ns = self.wal_fsync_ns;
            r
        });
        let _ = self.reply.send(reply.map_err(JobError::from));
    }
}

fn run_solo(
    system: &mut System,
    expr: &Expr,
    metrics: &ServerMetrics,
) -> Result<QueryReply, MachineError> {
    let storage = systolic_storage::StorageMetrics::shared();
    let (hits0, misses0) = (storage.pool_hits.get(), storage.pool_misses.get());
    let out = system.run(expr)?;
    record_op_pulses(metrics, &out.timeline);
    Ok(QueryReply {
        result: out.result,
        stats: out.stats,
        host_wall_ns: out.host_wall_ns,
        step_rows: out.step_rows,
        timeline: out.timeline,
        queue_wait_ns: 0,
        wal_fsync_ns: 0,
        pool_hits: storage.pool_hits.get().saturating_sub(hits0),
        pool_misses: storage.pool_misses.get().saturating_sub(misses0),
    })
}

/// Feed `sdb_op_pulses_total{op=...}` from timeline device events. Array
/// work is exactly the events that carry pulses; the op name is the label
/// up to the ` -> output` suffix, normalised past any `[...]` detail.
fn record_op_pulses(metrics: &ServerMetrics, timeline: &Timeline) {
    for event in timeline.events() {
        if event.pulses == 0 {
            continue;
        }
        let head = event.label.split(" -> ").next().unwrap_or(&event.label);
        let op = head.split('[').next().unwrap_or(head);
        metrics.op_pulses(op).add(event.pulses);
    }
}

/// Admit several queries as one merged schedule; on any failure fall back
/// to per-query solo runs so only the faulty requests see errors.
///
/// Batch-window common-subexpression elimination: queries in the window
/// whose prepared trees are identical and free of `store(...)` side effects
/// share one slot in the merged schedule, and the duplicates' replies are
/// clones of the shared outcome. Sound because `run_batch_accounted` prices
/// every query solo — the clone is bit-identical to what a separate slot
/// would have produced — and the plan compiler upstream normalises
/// equivalent texts toward the same tree, widening what "identical" catches.
fn run_merged(
    system: &mut System,
    mut queries: Vec<PendingQuery>,
    counters: &Counters,
    metrics: &ServerMetrics,
) {
    let mut unique: Vec<Expr> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(queries.len());
    for q in &queries {
        // Identical exprs have identical store sets, so a sharable query
        // can only ever match a sharable slot.
        let hit = if store_names(&q.expr).is_empty() {
            unique.iter().position(|u| *u == q.expr)
        } else {
            None
        };
        match hit {
            Some(i) => slots.push(i),
            None => {
                slots.push(unique.len());
                unique.push(q.expr.clone());
            }
        }
    }
    let cse_hits = (queries.len() - unique.len()) as u64;
    // The batch gets its own trace: it belongs to no single request. The
    // span stays ambient while the machine runs so machine.batch nests here.
    let mut batch_span = root_span("server.batch");
    batch_span.arg("size", queries.len());
    batch_span.arg("unique", unique.len());
    let batch_ctx = batch_span.ctx();
    let storage = systolic_storage::StorageMetrics::shared();
    let (hits0, misses0) = (storage.pool_hits.get(), storage.pool_misses.get());
    let outcome = system.run_batch_accounted(&unique);
    let pool_hits = storage.pool_hits.get().saturating_sub(hits0);
    let pool_misses = storage.pool_misses.get().saturating_sub(misses0);
    drop(batch_span);
    match outcome {
        Ok(batch) => {
            if cse_hits > 0 {
                counters.update(|c| c.cse_hits += cse_hits);
                metrics.cse_hits.add(cse_hits);
            }
            record_op_pulses(metrics, &batch.combined.timeline);
            let host_wall_ns = batch.combined.host_wall_ns;
            for (slot, q) in slots.into_iter().zip(queries) {
                let outcome = batch.queries[slot].clone();
                let mut run_span = span_in(q.trace, "server.batch_run");
                if let Some(ctx) = batch_ctx {
                    run_span.arg("batch_span", ctx.span_id);
                }
                drop(run_span);
                let _ = q.reply.send(Ok(QueryReply {
                    result: outcome.result,
                    stats: outcome.stats,
                    host_wall_ns,
                    step_rows: outcome.step_rows,
                    timeline: outcome.timeline,
                    queue_wait_ns: q.queue_wait_ns,
                    wal_fsync_ns: q.wal_fsync_ns,
                    pool_hits,
                    pool_misses,
                }));
            }
        }
        Err(_) => {
            // Fences were already claimed at admission; the fallback must
            // not re-claim (it would see `true` and wrongly skip).
            for q in queries.drain(..) {
                let _span = span_in(q.trace, "server.run_solo");
                q.answer_solo(system, metrics);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use systolic_machine::{parse, MachineConfig};
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Elem;

    fn rel(rows: &[&[Elem]]) -> MultiRelation {
        MultiRelation::new(
            synth_schema(rows[0].len()),
            rows.iter().map(|r| r.to_vec()).collect(),
        )
        .unwrap()
    }

    /// Feed the jobs through a fresh scheduler until it drains, returning
    /// the counters it maintained.
    fn run_jobs(jobs: Vec<Job>) -> Arc<Counters> {
        let system = System::new(MachineConfig::default()).unwrap();
        let (tx, rx) = mpsc::channel();
        for job in jobs {
            tx.send(job).unwrap();
        }
        drop(tx);
        let counters = Arc::new(Counters::default());
        let metrics = Arc::new(ServerMetrics::new());
        run(
            system,
            rx,
            Duration::from_millis(1),
            16,
            Arc::clone(&counters),
            metrics,
            None,
        );
        counters
    }

    fn load_job(
        name: &str,
        rel: MultiRelation,
        f: Arc<AtomicBool>,
        reply: SyncSender<Result<usize, JobError>>,
    ) -> Job {
        Job::Load {
            name: name.into(),
            rel,
            kinds: Vec::new(),
            csv: String::new(),
            fence: f,
            reply,
        }
    }

    fn query_job(
        text: &str,
        f: Arc<AtomicBool>,
        reply: SyncSender<Result<QueryReply, JobError>>,
    ) -> Job {
        Job::Query {
            expr: parse(text).unwrap(),
            text: text.into(),
            trace: None,
            fence: f,
            reply,
            submitted: Instant::now(),
        }
    }

    fn fence(claimed_by_worker: bool) -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(claimed_by_worker))
    }

    #[test]
    fn a_fenced_load_never_reaches_the_machine() {
        let (dead_tx, dead_rx) = mpsc::sync_channel(1);
        let (live_tx, live_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("dead", rel(&[&[1], &[2], &[3]]), fence(true), dead_tx),
            load_job("alive", rel(&[&[4], &[5]]), fence(false), live_tx),
        ]);
        assert!(
            dead_rx.try_recv().is_err(),
            "a fenced load must never be acknowledged"
        );
        assert_eq!(live_rx.try_recv().unwrap().unwrap(), 2);
        assert_eq!(counters.snapshot().loads, 1, "only the live load lands");
    }

    #[test]
    fn a_fenced_query_is_skipped_whole() {
        let (load_tx, _load_rx) = mpsc::sync_channel(1);
        let (dead_tx, dead_rx) = mpsc::sync_channel(1);
        let (live_tx, live_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("scan(t)", fence(true), dead_tx),
            query_job("scan(t)", fence(false), live_tx),
        ]);
        assert!(
            dead_rx.try_recv().is_err(),
            "a fenced query must never be answered"
        );
        let reply = live_rx.try_recv().unwrap().unwrap();
        assert_eq!(reply.result.len(), 2);
        assert_eq!(counters.snapshot().queries, 1, "only the live query runs");
    }

    #[test]
    fn a_fenced_deferred_query_is_skipped_with_its_side_effects() {
        // q2 reads what q1 writes, so the hazard pass defers it; its fence
        // is already claimed, so the deferred pass must drop it — in
        // particular `store(scan(u), v)` must leave no `v` on the machine.
        let (load_tx, _load_rx) = mpsc::sync_channel(1);
        let (q1_tx, q1_rx) = mpsc::sync_channel(1);
        let (q2_tx, q2_rx) = mpsc::sync_channel(1);
        let counters = run_jobs(vec![
            load_job("t", rel(&[&[1], &[2]]), fence(false), load_tx),
            query_job("store(scan(t), u)", fence(false), q1_tx),
            query_job("store(scan(u), v)", fence(true), q2_tx),
        ]);
        assert!(q1_rx.try_recv().unwrap().is_ok());
        assert!(
            q2_rx.try_recv().is_err(),
            "a fenced deferred query must never run"
        );
        assert_eq!(counters.snapshot().queries, 1);
    }
}
