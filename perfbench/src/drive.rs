//! The load generator: each connection keeps a fixed number of raw
//! `QUERY`/`LOAD` frames in flight, times every request on the client side,
//! and checks every answer before counting it as served.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use systolic_server::frame::escape;
use systolic_server::protocol::parse_host_frame;

use crate::check::Answers;
use crate::stats::median;
use crate::workload::{Req, Stream};

/// How long one answer may take before the connection is given up on.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// Failed answers described on standard error, per connection.
const REPORTED_FAILURES: u64 = 5;

/// What one connection saw in a phase.
#[derive(Debug, Default)]
pub struct ConnReport {
    pub attempted: u64,
    pub failed: u64,
    /// Client-observed latency (frame written to answer read) of every
    /// correct answer, in completion order.
    pub latency_ns: Vec<u64>,
    /// The same, for `LOAD` and `store(...)` acknowledgements only.
    pub write_latency_ns: Vec<u64>,
    /// Correct answers per distinct query.
    pub served: Vec<u64>,
    /// Correct answers completed in each whole second of the phase.
    pub per_second: Vec<u64>,
    /// Traced runs only: (latency, `HOST` ns) of every query answer, and
    /// the client-side interval of every request.
    pub host: Vec<(u64, u64)>,
    pub intervals: Vec<(Instant, Instant)>,
}

/// All connections of one measured phase.
#[derive(Debug)]
pub struct Phase {
    pub conns: Vec<ConnReport>,
    /// Whole seconds the phase issued requests for.
    pub seconds: usize,
}

impl Phase {
    pub fn attempted(&self) -> u64 {
        self.conns.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.conns.iter().map(|c| c.failed).sum()
    }

    /// Every correct answer's latency in milliseconds, ascending.
    pub fn latencies_ms(&self, writes_only: bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .conns
            .iter()
            .flat_map(|c| {
                if writes_only {
                    &c.write_latency_ns
                } else {
                    &c.latency_ns
                }
            })
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Requests completed per second: the median over the phase's whole
    /// seconds, so a stall from outside the process moves it only when it
    /// spans most of them.
    pub fn qps(&self) -> f64 {
        let mut rates: Vec<f64> = (0..self.seconds)
            .map(|s| {
                self.conns
                    .iter()
                    .map(|c| c.per_second.get(s).copied().unwrap_or(0))
                    .sum::<u64>() as f64
            })
            .collect();
        median(&mut rates)
    }

    /// Correct answers per distinct query, summed over connections.
    pub fn served(&self, queries: usize) -> Vec<u64> {
        let mut out = vec![0; queries];
        for c in &self.conns {
            for (k, n) in c.served.iter().enumerate() {
                out[k] += n;
            }
        }
        out
    }
}

/// Render a request as its wire frame.
fn frame(req: &Req, payloads: &[String]) -> String {
    match req {
        Req::Query { text, .. } => format!("QUERY {text}\n"),
        Req::Load { name, payload } => format!("LOAD {name} int {}\n", escape(&payloads[*payload])),
    }
}

/// Read and check the answer to `req`. `Ok(None)` is a wrong answer (an
/// `ERR` frame or a frame that differs from the expected one); `Err` means
/// the connection is lost.
fn answer(
    reader: &mut BufReader<TcpStream>,
    req: &Req,
    answers: &Answers,
    line: &mut String,
    host: &mut String,
) -> io::Result<Option<u64>> {
    read_line(reader, line)?;
    match req {
        Req::Query { key, .. } if line.starts_with("RESULT ") => {
            read_line(reader, host)?;
            Ok(parse_host_frame(host)
                .ok()
                .filter(|_| answers.result_matches(*key, line)))
        }
        Req::Load { name, .. } => Ok(answers.load_matches(name, line).then_some(0)),
        Req::Query { .. } => Ok(None),
    }
}

/// Drive one connection until `deadline`, keeping `depth` requests in
/// flight, then drain. `start` is the phase's common start.
pub fn drive(
    addr: SocketAddr,
    mut stream: Stream,
    depth: usize,
    start: Instant,
    deadline: Instant,
    answers: &Answers,
    traced: bool,
) -> io::Result<ConnReport> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::new(sock.try_clone()?);
    let mut report = ConnReport {
        served: vec![0; answers.len()],
        ..ConnReport::default()
    };
    let mut inflight: VecDeque<(Req, Instant)> = VecDeque::with_capacity(depth);
    let (mut line, mut host) = (String::new(), String::new());
    let send = |sock: &mut TcpStream,
                stream: &mut Stream,
                inflight: &mut VecDeque<(Req, Instant)>|
     -> io::Result<()> {
        if Instant::now() < deadline {
            let req = stream.next_req();
            let bytes = frame(&req, answers.payloads());
            inflight.push_back((req, Instant::now()));
            sock.write_all(bytes.as_bytes())?;
        }
        Ok(())
    };
    for _ in 0..depth {
        send(&mut sock, &mut stream, &mut inflight)?;
    }
    while let Some((req, at)) = inflight.pop_front() {
        report.attempted += 1;
        match answer(&mut reader, &req, answers, &mut line, &mut host) {
            Ok(Some(host_ns)) => {
                let done = Instant::now();
                let latency = done.duration_since(at).as_nanos() as u64;
                report.latency_ns.push(latency);
                if req.is_write() {
                    report.write_latency_ns.push(latency);
                }
                let second = done.duration_since(start).as_secs() as usize;
                if report.per_second.len() <= second {
                    report.per_second.resize(second + 1, 0);
                }
                report.per_second[second] += 1;
                if let Req::Query { key, .. } = &req {
                    report.served[*key] += 1;
                    if traced {
                        report.host.push((latency, host_ns));
                    }
                }
                if traced {
                    report.intervals.push((at, done));
                }
                stream.acked(&req);
            }
            Ok(None) => {
                report.failed += 1;
                if report.failed <= REPORTED_FAILURES {
                    eprintln!("perfbench: wrong answer to {req:?}: {}", truncate(&line));
                }
            }
            Err(e) => {
                // Every request still in flight is lost with the connection.
                eprintln!("perfbench: connection lost: {e}");
                report.failed += 1 + inflight.len() as u64;
                report.attempted += inflight.len() as u64;
                break;
            }
        }
        send(&mut sock, &mut stream, &mut inflight)?;
    }
    // Polite close; the answer does not matter.
    let _ = sock.write_all(b"CLOSE\n");
    let _ = read_line(&mut reader, &mut line);
    Ok(report)
}

fn read_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<()> {
    line.clear();
    if reader.read_line(line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

fn truncate(s: &str) -> &str {
    match s.char_indices().nth(160) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// Run one connection per stream, each in its own thread, for `seconds`.
pub fn drive_all(
    addr: SocketAddr,
    streams: Vec<Stream>,
    depth: usize,
    seconds: f64,
    answers: &Answers,
    traced: bool,
) -> io::Result<Phase> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|s| scope.spawn(move || drive(addr, s, depth, start, deadline, answers, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    Ok(Phase {
        conns,
        seconds: seconds.floor() as usize,
    })
}
