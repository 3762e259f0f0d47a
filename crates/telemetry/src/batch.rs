//! Owned span batches.
//!
//! [`SpanData`] is the owned twin of [`SpanRecord`]: span names in the
//! collector are `&'static str` (interned at the call site), while a
//! drained batch that outlives its collector — the server's shutdown trace —
//! owns its strings.

use crate::span::SpanRecord;

/// An owned span. Field for field the same shape as [`SpanRecord`]; all
/// times are host wall-clock nanoseconds relative to the emitting
/// collector's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Operation name (e.g. `"server.request"`).
    pub name: String,
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's own id.
    pub span_id: u64,
    /// Enclosing span, if any.
    pub parent_id: Option<u64>,
    /// Start offset from the collector epoch, in nanoseconds.
    pub start_ns: u64,
    /// End offset from the collector epoch, in nanoseconds.
    pub end_ns: u64,
    /// Name of the thread that recorded the span.
    pub thread: String,
    /// Key/value annotations.
    pub args: Vec<(String, String)>,
}

impl SpanData {
    /// Annotation lookup by key.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl From<&SpanRecord> for SpanData {
    fn from(r: &SpanRecord) -> Self {
        SpanData {
            name: r.name.to_string(),
            trace_id: r.trace_id,
            span_id: r.span_id,
            parent_id: r.parent_id,
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            thread: r.thread.clone(),
            args: r
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_convert() {
        let _guard = crate::span::test_guard();
        let collector = crate::install();
        {
            let root = crate::root_span("outer");
            let mut inner = crate::span("inner");
            inner.arg("k", "v");
            drop(inner);
            drop(root);
        }
        crate::uninstall();
        let records = collector.drain();
        let spans: Vec<SpanData> = records.iter().map(SpanData::from).collect();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent_id, Some(outer.span_id));
        assert_eq!(inner.arg("k"), Some("v"));
    }
}
