//! The textual request/response protocol.
//!
//! Requests (one frame each):
//!
//! ```text
//! LOAD <name> <type,type,...> <escaped-csv>
//! QUERY <query text>
//! PROFILE <query text>
//! PROFILES
//! STATS
//! METRICS
//! CHECKPOINT
//! CLOSE
//! SHUTDOWN
//! ```
//!
//! Responses:
//!
//! ```text
//! LOADED <name> rows=<n>
//! RESULT rows=<n> makespan_ns=<n> pulses=<n> array_runs=<n> disk_bytes=<n> \
//!        concurrency=<n> csv=<escaped-csv>
//! PROFILE <escaped single-line JSON profile>
//! HOST ns=<n>
//! PROFILES count=<n> json=<escaped JSON-lines, newest first>
//! STATS tables=<n> queries=<n> loads=<n> batches=<n> max_batch=<n> \
//!       refused=<n> timeouts=<n> active=<n> uptime_ms=<n> queue_hwm=<n> \
//!       slow=<n> lat_p50_ns=<n> lat_p95_ns=<n> lat_p99_ns=<n> lat_count=<n> \
//!       backend=<sim|columnar>
//! METRICS <escaped Prometheus text exposition>
//! CHECKPOINTED records=<n> bytes=<n>
//! BYE
//! ERR <kind> [at=<byte>] <escaped detail>
//! ```
//!
//! A `QUERY` answer is exactly two frames: `RESULT` carries everything
//! deterministic (rows, simulated-hardware stats, CSV) and `HOST` carries
//! the nondeterministic host wall-clock time — split so byte-comparing
//! `RESULT` frames across runs is a meaningful determinism check. A
//! `PROFILE` answer keeps that `RESULT` frame byte-identical and inserts
//! exactly one `PROFILE` frame between it and `HOST`.
//!
//! `ERR` kinds: `proto`, `parse` (with `at=<byte>`), `analysis` (with the
//! stable `SA00N` code and `at=<start>..<end>`), `relation`, `machine`,
//! `timeout`, `overloaded`, `shutting_down`, `too_large`, `conflict`.

use systolic_analyzer::Diagnostic;
use systolic_machine::{ParseError, RunStats};
use systolic_relation::DomainKind;

use crate::engine::parse_kinds;
use crate::frame::{escape, unescape};

/// A parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Register a CSV table.
    Load {
        /// Table name.
        name: String,
        /// Column kinds.
        kinds: Vec<DomainKind>,
        /// Unescaped CSV text.
        csv: String,
    },
    /// Run a query.
    Query(String),
    /// Run a query and also return its end-to-end profile (`PROFILE`): the
    /// answer is the byte-identical `RESULT` frame, one `PROFILE` frame
    /// carrying the escaped JSON profile, then `HOST`.
    Profile(String),
    /// Dump the flight recorder (`PROFILES`): the retained recent query
    /// profiles, newest first, in one `PROFILES` frame.
    Profiles,
    /// Ask for server statistics.
    Stats,
    /// Ask for the full Prometheus-style metrics exposition.
    Metrics,
    /// Snapshot the durable history and reset the write-ahead log.
    Checkpoint,
    /// End this session.
    Close,
    /// Ask the whole server to drain and exit.
    Shutdown,
}

/// Parse one request frame. The error string is a human-readable protocol
/// complaint (sent back as `ERR proto`).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "LOAD" => {
            let (name, rest) = rest
                .split_once(' ')
                .ok_or_else(|| "LOAD needs <name> <types> <csv>".to_string())?;
            // CSV may be empty (header-only tables) so a missing third
            // field means an empty payload, not a protocol error.
            let (types, payload) = match rest.split_once(' ') {
                Some((t, p)) => (t, p),
                None => (rest, ""),
            };
            if name.is_empty() || types.is_empty() {
                return Err("LOAD needs <name> <types> <csv>".to_string());
            }
            let kinds = parse_kinds(types)?;
            let csv = unescape(payload)?;
            Ok(Request::Load {
                name: name.to_string(),
                kinds,
                csv,
            })
        }
        "QUERY" => {
            if rest.is_empty() {
                return Err("QUERY needs query text".to_string());
            }
            Ok(Request::Query(rest.to_string()))
        }
        "PROFILE" => {
            if rest.is_empty() {
                return Err("PROFILE needs query text".to_string());
            }
            Ok(Request::Profile(rest.to_string()))
        }
        "PROFILES" if rest.is_empty() => Ok(Request::Profiles),
        "STATS" if rest.is_empty() => Ok(Request::Stats),
        "METRICS" if rest.is_empty() => Ok(Request::Metrics),
        "CHECKPOINT" if rest.is_empty() => Ok(Request::Checkpoint),
        "CLOSE" if rest.is_empty() => Ok(Request::Close),
        "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
        _ => Err(format!(
            "unknown request {line:?} (LOAD, QUERY, PROFILE, PROFILES, STATS, METRICS, \
             CHECKPOINT, CLOSE, SHUTDOWN)"
        )),
    }
}

/// Render the deterministic half of a query answer.
pub fn result_frame(rows: usize, stats: &RunStats, csv: &str) -> String {
    format!(
        "RESULT rows={rows} makespan_ns={} pulses={} array_runs={} disk_bytes={} \
         concurrency={} csv={}",
        stats.makespan_ns,
        stats.total_pulses,
        stats.array_runs,
        stats.bytes_from_disk,
        stats.max_device_concurrency,
        escape(csv),
    )
}

/// Render the nondeterministic half of a query answer.
pub fn host_frame(host_wall_ns: u64) -> String {
    format!("HOST ns={host_wall_ns}")
}

/// Render a successful `LOAD` answer.
pub fn loaded_frame(name: &str, rows: usize) -> String {
    format!("LOADED {name} rows={rows}")
}

/// Render a successful `CHECKPOINT` answer: logical records snapshotted and
/// the snapshot size in bytes.
pub fn checkpointed_frame(records: u64, bytes: u64) -> String {
    format!("CHECKPOINTED records={records} bytes={bytes}")
}

/// Parse a `CHECKPOINTED` frame back into (records, bytes).
pub fn parse_checkpointed_frame(frame: &str) -> Result<(u64, u64), String> {
    let body = frame
        .strip_prefix("CHECKPOINTED records=")
        .ok_or_else(|| format!("expected CHECKPOINTED frame, got {frame:?}"))?;
    let (records, bytes) = body
        .split_once(" bytes=")
        .ok_or_else(|| "CHECKPOINTED frame is missing bytes=".to_string())?;
    let records = records
        .parse()
        .map_err(|_| format!("bad CHECKPOINTED records {records:?}"))?;
    let bytes = bytes
        .parse()
        .map_err(|_| format!("bad CHECKPOINTED bytes {bytes:?}"))?;
    Ok((records, bytes))
}

/// Render a `METRICS` answer carrying the escaped text exposition.
pub fn metrics_frame(exposition: &str) -> String {
    format!("METRICS {}", escape(exposition))
}

/// Parse a `METRICS` frame back into the exposition text.
pub fn parse_metrics_frame(frame: &str) -> Result<String, String> {
    let body = frame
        .strip_prefix("METRICS ")
        .ok_or_else(|| format!("expected METRICS frame, got {frame:?}"))?;
    unescape(body)
}

/// Render a `PROFILE` answer frame carrying the escaped single-line JSON
/// query profile.
pub fn profile_frame(json: &str) -> String {
    format!("PROFILE {}", escape(json))
}

/// Parse a `PROFILE` frame back into the JSON profile text.
pub fn parse_profile_frame(frame: &str) -> Result<String, String> {
    let body = frame
        .strip_prefix("PROFILE ")
        .ok_or_else(|| format!("expected PROFILE frame, got {frame:?}"))?;
    unescape(body)
}

/// Render a `PROFILES` answer: the flight recorder's retained profiles,
/// newest first, as escaped JSON lines.
pub fn profiles_frame(profiles: &[String]) -> String {
    format!(
        "PROFILES count={} json={}",
        profiles.len(),
        escape(&profiles.join("\n"))
    )
}

/// Parse a `PROFILES` frame back into individual JSON profile lines.
pub fn parse_profiles_frame(frame: &str) -> Result<Vec<String>, String> {
    let body = frame
        .strip_prefix("PROFILES count=")
        .ok_or_else(|| format!("expected PROFILES frame, got {frame:?}"))?;
    let (count, json) = body
        .split_once(" json=")
        .ok_or_else(|| "PROFILES frame is missing json=".to_string())?;
    let count: usize = count
        .parse()
        .map_err(|_| format!("bad PROFILES count {count:?}"))?;
    let text = unescape(json)?;
    let profiles: Vec<String> = if text.is_empty() {
        Vec::new()
    } else {
        text.lines().map(str::to_string).collect()
    };
    if profiles.len() != count {
        return Err(format!(
            "PROFILES frame claims {count} profiles but lists {}",
            profiles.len()
        ));
    }
    Ok(profiles)
}

/// Render an error frame.
pub fn err_frame(kind: &str, detail: &str) -> String {
    format!("ERR {kind} {}", escape(detail))
}

/// Render a parse-error frame, carrying the byte offset as structured data
/// and the caret rendering as the detail.
pub fn parse_err_frame(err: &ParseError, query: &str) -> String {
    format!("ERR parse at={} {}", err.at, escape(&err.pretty(query)))
}

/// Render an analyzer-rejection frame: `ERR analysis SA00N [at=<s>..<e>]
/// <escaped detail>`. The structured fields come from the first finding (in
/// source order); the detail carries every finding's caret rendering so
/// clients can show all of them.
///
/// # Panics
///
/// `diags` must be non-empty — an analyzer rejection always carries at
/// least one finding.
pub fn analysis_err_frame(diags: &[Diagnostic], query: &str) -> String {
    let first = diags.first().expect("rejection carries >= 1 diagnostic");
    let rendered: Vec<String> = diags.iter().map(|d| d.pretty(query)).collect();
    match first.span {
        Some((start, end)) => format!(
            "ERR analysis {} at={start}..{end} {}",
            first.code.code(),
            escape(&rendered.join("\n"))
        ),
        None => format!(
            "ERR analysis {} {}",
            first.code.code(),
            escape(&rendered.join("\n"))
        ),
    }
}

/// Client-side view of a `RESULT` + `HOST` frame pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultFields {
    /// Result row count.
    pub rows: usize,
    /// Simulated makespan in nanoseconds.
    pub makespan_ns: u64,
    /// Total array pulses.
    pub total_pulses: u64,
    /// Physical array invocations.
    pub array_runs: u64,
    /// Bytes delivered by the disk.
    pub bytes_from_disk: u64,
    /// Maximum simultaneous devices.
    pub max_device_concurrency: usize,
    /// Result CSV (unescaped).
    pub csv: String,
}

/// Parse a `RESULT` frame back into fields (the client half of
/// [`result_frame`]).
pub fn parse_result_frame(frame: &str) -> Result<ResultFields, String> {
    let body = frame
        .strip_prefix("RESULT ")
        .ok_or_else(|| format!("expected RESULT frame, got {frame:?}"))?;
    // csv= comes last and is the only field whose value the escaping still
    // allows to contain spaces, so split on its marker rather than on words.
    let marker = " csv=";
    let at = body
        .find(marker)
        .ok_or_else(|| "RESULT frame is missing csv=".to_string())?;
    let (head, tail) = body.split_at(at);
    let csv = unescape(&tail[marker.len()..])?;
    let mut fields = ResultFields {
        rows: 0,
        makespan_ns: 0,
        total_pulses: 0,
        array_runs: 0,
        bytes_from_disk: 0,
        max_device_concurrency: 0,
        csv,
    };
    for pair in head.split_whitespace() {
        let (key, value) = pair
            .split_once('=')
            .ok_or_else(|| format!("bad RESULT field {pair:?}"))?;
        let parse = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad RESULT number {pair:?}"))
        };
        match key {
            "rows" => fields.rows = parse(value)? as usize,
            "makespan_ns" => fields.makespan_ns = parse(value)?,
            "pulses" => fields.total_pulses = parse(value)?,
            "array_runs" => fields.array_runs = parse(value)?,
            "disk_bytes" => fields.bytes_from_disk = parse(value)?,
            "concurrency" => fields.max_device_concurrency = parse(value)? as usize,
            other => return Err(format!("unknown RESULT field {other:?}")),
        }
    }
    Ok(fields)
}

/// Parse a `HOST` frame into nanoseconds.
pub fn parse_host_frame(frame: &str) -> Result<u64, String> {
    frame
        .strip_prefix("HOST ns=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("expected HOST frame, got {frame:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse() {
        assert_eq!(
            parse_request("LOAD emp int,str 1,a\\n2,b\\n").unwrap(),
            Request::Load {
                name: "emp".into(),
                kinds: vec![DomainKind::Int, DomainKind::Str],
                csv: "1,a\n2,b\n".into(),
            }
        );
        assert_eq!(
            parse_request("QUERY scan(emp)").unwrap(),
            Request::Query("scan(emp)".into())
        );
        let err = parse_request("QUERYC scan(emp)").unwrap_err();
        assert!(err.starts_with("unknown request"), "{err}");
        assert_eq!(
            parse_request("PROFILE scan(emp)").unwrap(),
            Request::Profile("scan(emp)".into())
        );
        assert!(parse_request("PROFILE").is_err());
        assert_eq!(parse_request("PROFILES").unwrap(), Request::Profiles);
        assert!(parse_request("PROFILES now").is_err());
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert!(parse_request("METRICS now").is_err());
        assert_eq!(parse_request("CHECKPOINT").unwrap(), Request::Checkpoint);
        assert!(parse_request("CHECKPOINT now").is_err());
        assert_eq!(parse_request("CLOSE").unwrap(), Request::Close);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert!(parse_request("NOPE").is_err());
        assert!(parse_request("QUERY").is_err());
        assert!(parse_request("LOAD emp").is_err());
        assert!(parse_request("LOAD emp blob x").is_err());
    }

    #[test]
    fn result_frames_round_trip() {
        let stats = RunStats {
            makespan_ns: 123,
            total_pulses: 45,
            array_runs: 6,
            bytes_from_disk: 789,
            max_device_concurrency: 2,
        };
        let frame = result_frame(3, &stats, "a,b\nc,d\n");
        assert!(!frame.contains('\n'));
        let fields = parse_result_frame(&frame).unwrap();
        assert_eq!(fields.rows, 3);
        assert_eq!(fields.makespan_ns, 123);
        assert_eq!(fields.total_pulses, 45);
        assert_eq!(fields.array_runs, 6);
        assert_eq!(fields.bytes_from_disk, 789);
        assert_eq!(fields.max_device_concurrency, 2);
        assert_eq!(fields.csv, "a,b\nc,d\n");
        assert_eq!(parse_host_frame("HOST ns=42").unwrap(), 42);
    }

    #[test]
    fn checkpointed_frames_round_trip() {
        let frame = checkpointed_frame(12, 4096);
        assert_eq!(frame, "CHECKPOINTED records=12 bytes=4096");
        assert_eq!(parse_checkpointed_frame(&frame).unwrap(), (12, 4096));
        assert!(parse_checkpointed_frame("CHECKPOINTED records=x bytes=1").is_err());
        assert!(parse_checkpointed_frame("LOADED t rows=1").is_err());
    }

    #[test]
    fn profile_frames_round_trip() {
        let json = "{\"query\":\"scan(emp)\",\"steps\":[]}";
        let frame = profile_frame(json);
        assert!(!frame.contains('\n'));
        assert_eq!(parse_profile_frame(&frame).unwrap(), json);
        assert!(parse_profile_frame("RESULT rows=1").is_err());
    }

    #[test]
    fn profiles_frames_round_trip() {
        let profiles = vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
        let frame = profiles_frame(&profiles);
        assert!(!frame.contains('\n'));
        assert_eq!(parse_profiles_frame(&frame).unwrap(), profiles);
        assert_eq!(
            parse_profiles_frame(&profiles_frame(&[])).unwrap(),
            Vec::<String>::new()
        );
        assert!(parse_profiles_frame("PROFILES count=3 json=").is_err());
        assert!(parse_profiles_frame("STATS tables=0").is_err());
    }

    #[test]
    fn metrics_frames_round_trip_multiline_expositions() {
        let text = "# HELP x helps\n# TYPE x counter\nx 1\n";
        let frame = metrics_frame(text);
        assert!(!frame.contains('\n'), "frames are single lines");
        assert_eq!(parse_metrics_frame(&frame).unwrap(), text);
    }

    #[test]
    fn parse_error_frames_carry_offset_and_caret() {
        let err = systolic_machine::parse("explode(scan(a))").unwrap_err();
        let frame = parse_err_frame(&err, "explode(scan(a))");
        assert!(frame.starts_with("ERR parse at="));
        assert!(frame.contains("\\n"), "caret rendering is multi-line");
    }

    #[test]
    fn analysis_error_frames_carry_code_span_and_carets() {
        use systolic_analyzer::Code;
        let query = "scan(ghost)";
        let diags = vec![Diagnostic::new(
            Code::UnknownRelation,
            "no base relation \"ghost\" in the catalog",
            Some((0, 11)),
        )];
        let frame = analysis_err_frame(&diags, query);
        assert!(frame.starts_with("ERR analysis SA007 at=0..11 "), "{frame}");
        assert!(frame.contains("\\n"), "caret rendering is multi-line");
        // Span-less findings (e.g. batch conflicts) omit at=.
        let diags = vec![Diagnostic::new(Code::ShadowedLoad, "conflict", None)];
        let frame = analysis_err_frame(&diags, query);
        assert!(frame.starts_with("ERR analysis SA008 "), "{frame}");
        assert!(!frame.contains("at="), "{frame}");
    }
}
