//! Structured spans with trace-id / parent-id propagation.
//!
//! A process-global [`Collector`] is installed with [`install`] and drained
//! with [`Collector::drain`]. While no collector is installed every span
//! constructor returns an inert guard and performs **zero allocation** — the
//! fast path is a single relaxed atomic load.
//!
//! Parent propagation is thread-local: while a [`SpanGuard`] is alive, spans
//! opened on the same thread become its children. Crossing threads (or an
//! admission-batch boundary) is explicit: ship the guard's [`TraceCtx`] and
//! reopen with [`span_in`].
//!
//! All timestamps here are **host** nanoseconds since the collector's epoch.
//! Simulated pulse time never enters a span; it stays in the machine
//! `Timeline` and the two are merged only at Chrome-trace export, on separate
//! process tracks.

use std::cell::Cell;
use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies a span for cross-thread / cross-batch parenting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace the span belongs to (stable across the whole request).
    pub trace_id: u64,
    /// The span itself; children cite this as `parent_id`.
    pub span_id: u64,
}

/// A finished span as stored by the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_id: Option<u64>,
    /// Host ns since the collector epoch.
    pub start_ns: u64,
    /// Host ns since the collector epoch; `>= start_ns`.
    pub end_ns: u64,
    /// Name (or debug id) of the thread the span closed on.
    pub thread: String,
    /// Free-form key/value annotations.
    pub args: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// Value of an annotation, if present.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Process-global sink for finished spans.
pub struct Collector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_id: AtomicU64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The instant all span timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, rec: SpanRecord) {
        self.spans.lock().unwrap().push(rec);
    }

    /// Remove and return every recorded span.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    /// Copy of every recorded span, leaving the collector untouched.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap().clone()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COLLECTOR: Mutex<Option<Arc<Collector>>> = Mutex::new(None);

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// Install a fresh global collector and enable span recording.
/// Replaces (and returns a handle to) the new collector; any previously
/// installed collector is dropped.
pub fn install() -> Arc<Collector> {
    let collector = Arc::new(Collector::new());
    *COLLECTOR.lock().unwrap() = Some(Arc::clone(&collector));
    ENABLED.store(true, Ordering::Release);
    collector
}

/// Disable recording and remove the global collector, returning it so callers
/// can still drain buffered spans.
pub fn uninstall() -> Option<Arc<Collector>> {
    ENABLED.store(false, Ordering::Release);
    COLLECTOR.lock().unwrap().take()
}

/// True when a collector is installed and spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A handle to the installed global collector, if recording is enabled.
pub fn collector() -> Option<Arc<Collector>> {
    if !enabled() {
        return None;
    }
    COLLECTOR.lock().unwrap().clone()
}

/// The ambient span context on this thread, if a span is open.
pub fn current_ctx() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

struct ActiveSpan {
    collector: Arc<Collector>,
    name: &'static str,
    ctx: TraceCtx,
    parent_id: Option<u64>,
    start_ns: u64,
    args: Vec<(&'static str, String)>,
    /// Ambient ctx to restore when this span closes.
    prev: Option<TraceCtx>,
}

/// RAII guard for an open span; records on drop. Inert (and allocation-free)
/// when telemetry is disabled.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl SpanGuard {
    /// Context for parenting child spans, possibly on other threads.
    /// `None` when telemetry is disabled.
    pub fn ctx(&self) -> Option<TraceCtx> {
        self.inner.as_ref().map(|a| a.ctx)
    }

    /// True when this guard will record a span on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a key/value annotation. No-op when disabled.
    pub fn arg(&mut self, key: &'static str, value: impl Display) {
        if let Some(a) = self.inner.as_mut() {
            a.args.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        CURRENT.with(|c| c.set(active.prev));
        let end_ns = active.collector.now_ns();
        let thread = thread_label();
        active.collector.push(SpanRecord {
            name: active.name,
            trace_id: active.ctx.trace_id,
            span_id: active.ctx.span_id,
            parent_id: active.parent_id,
            start_ns: active.start_ns.min(end_ns),
            end_ns,
            thread,
            args: active.args,
        });
    }
}

fn thread_label() -> String {
    let cur = std::thread::current();
    match cur.name() {
        Some(n) => n.to_string(),
        None => format!("{:?}", cur.id()),
    }
}

fn open(name: &'static str, parent: Option<TraceCtx>) -> SpanGuard {
    let Some(collector) = collector() else {
        return SpanGuard { inner: None };
    };
    let span_id = collector.fresh_id();
    let (trace_id, parent_id) = match parent {
        Some(p) => (p.trace_id, Some(p.span_id)),
        None => (collector.fresh_id(), None),
    };
    let ctx = TraceCtx { trace_id, span_id };
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    let start_ns = collector.now_ns();
    SpanGuard {
        inner: Some(ActiveSpan {
            collector,
            name,
            ctx,
            parent_id,
            start_ns,
            args: Vec::new(),
            prev,
        }),
    }
}

/// Open a span as a child of the ambient thread-local span (or as a new trace
/// root when none is open).
pub fn span(name: &'static str) -> SpanGuard {
    open(name, current_ctx())
}

/// Open a span that starts a **new trace**, ignoring any ambient span.
/// Use for externally-arriving work such as a server request.
pub fn root_span(name: &'static str) -> SpanGuard {
    open(name, None)
}

/// Open a span as a child of an explicit context (e.g. one shipped across a
/// thread or admission-batch boundary). `None` behaves like [`root_span`].
pub fn span_in(parent: Option<TraceCtx>, name: &'static str) -> SpanGuard {
    open(name, parent)
}

/// Record an already-elapsed interval (e.g. a queue wait measured after the
/// fact) as a span under `parent`. No-op when disabled.
pub fn record_between(
    name: &'static str,
    parent: Option<TraceCtx>,
    start: Instant,
    end: Instant,
) -> Option<TraceCtx> {
    let collector = collector()?;
    let span_id = collector.fresh_id();
    let (trace_id, parent_id) = match parent {
        Some(p) => (p.trace_id, Some(p.span_id)),
        None => (collector.fresh_id(), None),
    };
    let start_ns = collector.ns_since_epoch(start);
    let end_ns = collector.ns_since_epoch(end).max(start_ns);
    collector.push(SpanRecord {
        name,
        trace_id,
        span_id,
        parent_id,
        start_ns,
        end_ns,
        thread: thread_label(),
        args: Vec::new(),
    });
    Some(TraceCtx { trace_id, span_id })
}

// Span tests (here and in sibling modules) share the process-global
// collector, so they must not run concurrently with each other.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn disabled_spans_record_nothing_and_report_no_ctx() {
        let _l = locked();
        uninstall();
        let mut g = span("noop");
        g.arg("k", 1);
        assert!(!g.is_recording());
        assert!(g.ctx().is_none());
        drop(g);
        assert!(current_ctx().is_none());
        assert!(record_between("noop", None, Instant::now(), Instant::now()).is_none());
    }

    #[test]
    fn nesting_on_one_thread_builds_a_parent_chain() {
        let _l = locked();
        let c = install();
        {
            let outer = span("outer");
            let outer_ctx = outer.ctx().unwrap();
            {
                let inner = span("inner");
                let inner_ctx = inner.ctx().unwrap();
                assert_eq!(inner_ctx.trace_id, outer_ctx.trace_id);
                assert_eq!(current_ctx(), Some(inner_ctx));
            }
            assert_eq!(current_ctx(), Some(outer_ctx));
        }
        assert!(current_ctx().is_none());
        let spans = c.drain();
        uninstall();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent_id, Some(outer.span_id));
        assert_eq!(inner.trace_id, outer.trace_id);
        assert!(outer.parent_id.is_none());
        assert!(inner.start_ns <= inner.end_ns);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn root_span_starts_a_fresh_trace_even_under_an_open_span() {
        let _l = locked();
        let c = install();
        {
            let ambient = span("ambient");
            let fresh = root_span("fresh");
            assert_ne!(
                fresh.ctx().unwrap().trace_id,
                ambient.ctx().unwrap().trace_id
            );
        }
        c.drain();
        uninstall();
    }

    #[test]
    fn span_in_parents_across_an_explicit_ctx() {
        let _l = locked();
        let c = install();
        let parent_ctx = {
            let parent = span("parent");
            parent.ctx().unwrap()
        };
        // Simulate another thread: no ambient ctx, explicit parent.
        assert!(current_ctx().is_none());
        {
            let mut child = span_in(Some(parent_ctx), "child");
            child.arg("k", "v");
        }
        let spans = c.drain();
        uninstall();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.trace_id, parent_ctx.trace_id);
        assert_eq!(child.parent_id, Some(parent_ctx.span_id));
        assert_eq!(child.arg("k"), Some("v"));
    }

    #[test]
    fn record_between_stores_the_given_interval() {
        let _l = locked();
        let c = install();
        let start = c.epoch();
        let end = start + std::time::Duration::from_micros(5);
        let ctx = record_between("wait", None, start, end).unwrap();
        let spans = c.drain();
        uninstall();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "wait");
        assert_eq!(spans[0].trace_id, ctx.trace_id);
        assert_eq!(spans[0].start_ns, 0);
        assert_eq!(spans[0].end_ns, 5_000);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let _l = locked();
        let c = install();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let _g = span("t");
                    }
                });
            }
        });
        let spans = c.drain();
        uninstall();
        assert_eq!(spans.len(), 200);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "span ids must be unique");
    }
}
