//! Chrome-trace-event / Perfetto JSON builder.
//!
//! Emits the JSON object format (`{"traceEvents": [...]}`) with complete
//! (`ph:"X"`) events and metadata (`ph:"M"`) events naming processes and
//! threads, loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The machine's simulated pulse time and the host's wall-clock spans are
//! kept on **separate pid tracks** — they share a time axis in the viewer but
//! are never mixed into one clock.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::span::SpanRecord;

/// Conventional pid for the simulated-machine track group.
pub const PID_SIMULATED: u32 = 1;
/// Conventional pid for the host wall-clock track group.
pub const PID_HOST: u32 = 2;

/// A JSON-typed event argument.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    U64(u64),
    F64(f64),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

struct ChromeEvent {
    ph: char,
    name: String,
    pid: u32,
    tid: u32,
    ts_ns: u64,
    dur_ns: u64,
    args: Vec<(String, ArgValue)>,
}

/// Accumulates trace events and serialises them to Chrome trace JSON.
#[derive(Default)]
pub struct ChromeTrace {
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accumulated events (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Name the process group `pid` in the viewer.
    pub fn set_process_name(&mut self, pid: u32, name: &str) {
        self.events.push(ChromeEvent {
            ph: 'M',
            name: "process_name".to_string(),
            pid,
            tid: 0,
            ts_ns: 0,
            dur_ns: 0,
            args: vec![("name".to_string(), ArgValue::from(name))],
        });
    }

    /// Name the track `tid` within process group `pid`.
    pub fn set_thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.events.push(ChromeEvent {
            ph: 'M',
            name: "thread_name".to_string(),
            pid,
            tid,
            ts_ns: 0,
            dur_ns: 0,
            args: vec![("name".to_string(), ArgValue::from(name))],
        });
    }

    /// Add a complete (`ph:"X"`) event. Timestamps are nanoseconds on the
    /// track's own clock; the serialiser converts to microseconds.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(String, ArgValue)>,
    ) {
        self.events.push(ChromeEvent {
            ph: 'X',
            name: name.to_string(),
            pid,
            tid,
            ts_ns,
            dur_ns,
            args,
        });
    }

    /// Put collected host spans on the [`PID_HOST`] track: one thread row
    /// per recording thread (in name order), and each span a complete event
    /// whose args carry its trace, span and parent ids and its annotations.
    pub fn host_spans(&mut self, spans: &[SpanRecord]) {
        let mut threads: Vec<&str> = spans.iter().map(|s| s.thread.as_str()).collect();
        threads.sort_unstable();
        threads.dedup();
        for (i, thread) in threads.iter().enumerate() {
            self.set_thread_name(PID_HOST, i as u32 + 1, thread);
        }
        for span in spans {
            let tid = threads
                .binary_search(&span.thread.as_str())
                .expect("thread indexed above") as u32
                + 1;
            let mut args = vec![
                ("trace_id".to_string(), ArgValue::U64(span.trace_id)),
                ("span_id".to_string(), ArgValue::U64(span.span_id)),
            ];
            if let Some(parent) = span.parent_id {
                args.push(("parent_id".to_string(), ArgValue::U64(parent)));
            }
            for (k, v) in &span.args {
                args.push((k.to_string(), ArgValue::Str(v.clone())));
            }
            self.complete(
                PID_HOST,
                tid,
                span.name,
                span.start_ns,
                span.end_ns.saturating_sub(span.start_ns),
                args,
            );
        }
    }

    /// Serialise to a Chrome trace JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            escape_json_str(&mut out, &e.name);
            let _ = write!(
                out,
                ",\"ph\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{}",
                e.ph,
                e.pid,
                e.tid,
                us(e.ts_ns)
            );
            if e.ph == 'X' {
                let _ = write!(out, ",\"dur\":{}", us(e.dur_ns));
            }
            if !e.args.is_empty() {
                out.push_str(",\"args\":{");
                for (j, (k, v)) in e.args.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    escape_json_str(&mut out, k);
                    out.push(':');
                    match v {
                        ArgValue::U64(n) => {
                            let _ = write!(out, "{n}");
                        }
                        ArgValue::F64(f) => {
                            if f.is_finite() {
                                let _ = write!(out, "{f}");
                            } else {
                                out.push_str("null");
                            }
                        }
                        ArgValue::Str(s) => escape_json_str(&mut out, s),
                    }
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Write the serialised trace to `path`. On failure any partially
    /// written file is removed before the error is returned.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let json = self.to_json();
        match fs::write(path, json) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(path);
                Err(e)
            }
        }
    }
}

/// Nanoseconds -> microsecond string with ns resolution, no float rounding.
fn us(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{frac:03}")
    }
}

fn escape_json_str(out: &mut String, s: &str) {
    crate::json::write_str(out, s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn build_sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.set_process_name(PID_SIMULATED, "simulated machine");
        t.set_thread_name(PID_SIMULATED, 1, "disk0");
        t.complete(
            PID_SIMULATED,
            1,
            "intersect -> out",
            350,
            1_050,
            vec![("pulses".to_string(), ArgValue::U64(3))],
        );
        t.complete(
            PID_HOST,
            1,
            "quote \"and\\slash",
            0,
            10,
            vec![("note".to_string(), ArgValue::from("line\nbreak"))],
        );
        t
    }

    #[test]
    fn emits_parseable_trace_with_metadata_and_exact_timestamps() {
        let t = build_sample();
        let doc = json::parse(&t.to_json()).expect("trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        let meta = &events[0];
        assert_eq!(meta.get("ph").and_then(Json::as_str), Some("M"));
        assert_eq!(
            meta.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str),
            Some("simulated machine")
        );
        let ev = &events[2];
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        // 350ns = 0.350µs, 1050ns = 1.050µs — exact decimal, no float drift.
        assert_eq!(ev.get("ts").and_then(Json::as_f64), Some(0.35));
        assert_eq!(ev.get("dur").and_then(Json::as_f64), Some(1.05));
        assert_eq!(
            ev.get("args")
                .and_then(|a| a.get("pulses"))
                .and_then(Json::as_u64),
            Some(3)
        );
        // Escaped strings survive the round trip.
        let host = &events[3];
        assert_eq!(
            host.get("name").and_then(Json::as_str),
            Some("quote \"and\\slash")
        );
        assert_eq!(
            host.get("args")
                .and_then(|a| a.get("note"))
                .and_then(Json::as_str),
            Some("line\nbreak")
        );
    }

    #[test]
    fn write_to_unwritable_path_errors_and_leaves_no_file() {
        let t = build_sample();
        let path = Path::new("/proc/no-such-dir/trace.json");
        assert!(t.write_to(path).is_err());
        assert!(!path.exists());
    }

    #[test]
    fn write_to_round_trips_through_disk() {
        let t = build_sample();
        let dir = std::env::temp_dir().join("sdb-chrome-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        json::parse(&text).expect("on-disk trace parses");
    }
}
