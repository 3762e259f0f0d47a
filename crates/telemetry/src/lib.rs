//! Std-only telemetry substrate for the systolic database.
//!
//! Three pieces, no external dependencies:
//!
//! * [`mod@span`] — structured spans with trace-id / parent-id propagation and a
//!   process-global collector. Host wall time only; simulated pulse time lives
//!   in the machine `Timeline` and is merged at export time, never mixed here.
//! * [`metrics`] — counters, gauges and fixed-bucket histograms in a registry
//!   that renders Prometheus text exposition ([`prom`] validates it).
//! * [`chrome`] — Chrome-trace-event / Perfetto JSON builder ([`json`] is the
//!   minimal parser used to validate emitted traces in tests).
//!
//! Disabled telemetry is a no-op: with no collector installed, [`span::span`]
//! returns an inert guard without allocating, and metric updates are plain
//! relaxed atomic adds (or skipped entirely when metrics are switched off).

#![forbid(unsafe_code)]

pub mod chrome;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod span;

pub use span::{
    collector, current_ctx, enabled, install, record_between, root_span, span, span_in, uninstall,
    Collector, SpanGuard, SpanRecord, TraceCtx,
};
