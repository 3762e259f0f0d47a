//! Outside-in layer timings for the traced run.
//!
//! Each public entry point of a layer on the served path is called from
//! here, on the workload's own tables and queries, under a benchmark span
//! named after the call. The one split the public API cannot give, a run's
//! execute and account passes, comes from the machine's own
//! `machine.execute`/`machine.account` spans, which nest under the
//! benchmark's `System::run_plan` span.

use std::path::Path;
use std::time::Instant;

use systolic_analyzer::analyze;
use systolic_machine::{parse_spanned, push_selections, Action, Plan, PlanOp, System};
use systolic_server::engine::parse_kinds;
use systolic_server::Store;
use systolic_storage::StorageEngine;
use systolic_telemetry::{span, Collector, SpanRecord};

use crate::stats::{median, weighted_mean};
use crate::workload::{Kind, Req, Workload};

/// Repeats of every timed call; each metric takes the median.
const REPEATS: usize = 5;
/// Queries in the merged batch `machine.batch_over_solo` times.
const BATCH: usize = 16;

/// Per-layer figures measured from outside, per query unless noted.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub parse_us: f64,
    pub analyze_us: f64,
    pub optimize_us: f64,
    pub rewrites_per_query: f64,
    pub compile_us: f64,
    pub run_us: f64,
    pub execute_us: f64,
    pub account_us: f64,
    pub render_us: f64,
    pub render_mb_s: f64,
    pub ingest_mb_s: f64,
    pub batch_over_solo: f64,
    /// `storage.wal_append_us`; 0 when the workload writes no log.
    pub wal_append_us: f64,
    /// Load and select steps of each distinct query's compiled plan — the
    /// steps a fused columnar scan can cover.
    pub fusable_steps: Vec<u64>,
}

/// Time `f` under a benchmark span; returns its value and microseconds.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = span(name);
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Median microseconds of `REPEATS` calls of `f`, plus its last value.
fn repeat<T>(name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut last = None;
    let mut times = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let (out, us) = timed(name, &mut f);
        times.push(us);
        last = Some(out);
    }
    (last.expect("REPEATS > 0"), median(&mut times))
}

/// Median microseconds of the spans named `name` in `spans`.
fn span_median_us(spans: &[SpanRecord], name: &str) -> f64 {
    let mut us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    median(&mut us)
}

/// Measure every layer on workload `w`. `freq[k]` is how often distinct
/// query `k` was served; it weights the per-query figures. `scratch` is
/// an empty directory for the write-ahead log timing. Every span recorded
/// meanwhile is drained from `collector` and returned.
pub fn measure(
    w: &Workload,
    freq: &[u64],
    scratch: &Path,
    collector: &Collector,
) -> Result<(LayerTimes, Vec<SpanRecord>), String> {
    let cfg = crate::server_config(None).machine;
    let mut out = LayerTimes::default();
    let mut recorded = collector.drain();

    // relation: columnar ingest through the catalog.
    let bytes: usize = w.tables.iter().map(|t| t.csv.len()).sum();
    let mut rates = Vec::new();
    for _ in 0..REPEATS {
        let mut store = Store::new();
        let mut secs = 0.0;
        for t in &w.tables {
            let kinds = parse_kinds(t.kinds)?;
            let (rel, us) = timed("bench.relation.register", || {
                store.register(&t.name, &kinds, &t.csv)
            });
            rel.map_err(|e| e.to_string())?;
            secs += us / 1e6;
        }
        rates.push(bytes as f64 / secs / 1e6);
    }
    out.ingest_mb_s = median(&mut rates);

    let mut store = Store::new();
    let mut system = System::new(cfg.clone()).map_err(|e| e.to_string())?;
    for t in &w.tables {
        let rel = store
            .register(&t.name, &parse_kinds(t.kinds)?, &t.csv)
            .map_err(|e| e.to_string())?;
        system.load_base(t.name.clone(), rel);
    }
    let view = store.catalog_view();

    // Per distinct read query: parse → analyze → optimize → compile → run
    // (execute + account) → render, the order the server calls them in.
    let keys = w.read_keys();
    let mut plans = vec![None; w.queries.len()];
    let mut run_us = vec![0.0; w.queries.len()];
    out.fusable_steps = vec![0; w.queries.len()];
    let mut per_key: Vec<[f64; 10]> = Vec::new();
    let mut weights = Vec::new();
    for &k in &keys {
        let text = &w.queries[k];
        let (parsed, parse_us) = repeat("bench.machine.parse_spanned", || parse_spanned(text));
        let (expr, spans) = parsed.map_err(|e| e.to_string())?;
        let (analysis, analyze_us) = repeat("bench.analyzer.analyze", || {
            analyze(&expr, &view, &cfg, &spans)
        });
        analysis.map_err(|d| format!("{text}: {} diagnostics", d.len()))?;
        let checked = push_selections(expr);
        let (choice, optimize_us) = repeat("bench.planner.optimize", || {
            systolic_planner::optimize(&checked, &view, &cfg)
        });
        let choice = choice.map_err(|d| format!("{text}: {} diagnostics", d.len()))?;
        let (plan, compile_us) = repeat("bench.machine.compile", || Plan::compile(&choice.expr));
        let (outcome, run) = repeat("bench.machine.run_plan", || system.run_plan(&plan));
        let outcome = outcome.map_err(|e| e.to_string())?;
        let run_spans = collector.drain();
        let execute_us = span_median_us(&run_spans, "machine.execute");
        let account_us = span_median_us(&run_spans, "machine.account");
        recorded.extend(run_spans);
        let (csv, render_us) = repeat("bench.relation.render_csv", || {
            store.render_csv(&outcome.result)
        });
        let csv = csv.map_err(|e| e.to_string())?;
        out.fusable_steps[k] = plan
            .steps
            .iter()
            .filter(|s| {
                matches!(
                    &s.action,
                    Action::Load { .. }
                        | Action::Op {
                            op: PlanOp::Select(_),
                            ..
                        }
                )
            })
            .count() as u64;
        run_us[k] = run;
        per_key.push([
            parse_us,
            analyze_us,
            optimize_us,
            choice.rewrites.len() as f64,
            compile_us,
            run,
            execute_us,
            account_us,
            render_us,
            // Bytes per microsecond is MB/s.
            csv.len() as f64 / render_us,
        ]);
        // Queries the run never served still count, barely, so a metric
        // is defined even when the served sample misses a query.
        weights.push((freq.get(k).copied().unwrap_or(0) as f64).max(1e-9));
        plans[k] = Some(choice.expr);
    }
    let col = |i: usize| -> f64 {
        let values: Vec<f64> = per_key.iter().map(|r| r[i]).collect();
        weighted_mean(&values, &weights)
    };
    out.parse_us = col(0);
    out.analyze_us = col(1);
    out.optimize_us = col(2);
    out.rewrites_per_query = col(3);
    out.compile_us = col(4);
    out.run_us = col(5);
    out.execute_us = col(6);
    out.account_us = col(7);
    out.render_us = col(8);
    out.render_mb_s = col(9);

    // One merged batch of the stream's first read queries, against the
    // same queries run solo.
    let mut stream = w.stream(0);
    let mut batch_keys = Vec::new();
    for _ in 0..BATCH * 8 {
        if batch_keys.len() == BATCH {
            break;
        }
        if let Req::Query { key, .. } = stream.next_req() {
            if plans[key].is_some() {
                batch_keys.push(key);
            }
        }
    }
    let exprs: Vec<_> = batch_keys
        .iter()
        .map(|&k| plans[k].clone().expect("read key"))
        .collect();
    let (batch, batch_us) = repeat("bench.machine.run_batch_accounted", || {
        system.run_batch_accounted(&exprs)
    });
    batch.map_err(|e| e.to_string())?;
    let solo_us: f64 = batch_keys.iter().map(|&k| run_us[k]).sum();
    out.batch_over_solo = batch_us / solo_us;

    // storage: the write-ahead log append (fsync included) of a written
    // table, for the workload that writes.
    if w.kind == Kind::DurableRw {
        let (mut engine, _, _) = StorageEngine::open(scratch).map_err(|e| e.to_string())?;
        let kinds = vec!["int".to_string()];
        let mut times = Vec::new();
        for (i, payload) in w.payloads.iter().cycle().take(4 * REPEATS).enumerate() {
            let name = format!("wal{i}");
            let (logged, us) = timed("bench.storage.log_load", || {
                engine.log_load(&name, &kinds, payload)
            });
            logged.map_err(|e| e.to_string())?;
            times.push(us);
        }
        out.wal_append_us = median(&mut times);
    }
    recorded.extend(collector.drain());
    Ok((out, recorded))
}
