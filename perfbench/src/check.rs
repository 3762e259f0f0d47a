//! Answer checking.
//!
//! Before the measured phase every distinct query is sent once, alone, and
//! its solo `RESULT` frame is kept. Every timed answer must equal its solo
//! frame byte for byte; anything else counts as failed. After the measured
//! phase the rows of each solo frame are checked against an independent
//! reference: the in-process [`Engine`] on the pulse-accurate simulator for
//! the small tables, and the sequential `systolic_baseline` operators for
//! `analytic`.

use std::collections::HashMap;

use systolic_baseline::{hashed, nested_loop, OpCounter};
use systolic_machine::{parse, Backend, Expr, MachineConfig};
use systolic_relation::MultiRelation;
use systolic_server::engine::parse_kinds;
use systolic_server::protocol::parse_result_frame;
use systolic_server::{Client, Engine, Store};

use crate::workload::{Kind, Workload, WRITE_ROWS};

/// The expected answer of every request of a workload.
#[derive(Debug)]
pub struct Answers {
    /// Solo `RESULT` frame per distinct query; `None` when the solo query
    /// failed (every answer to it then fails).
    frames: Vec<Option<String>>,
    /// `total_pulses`, `array_runs` and `makespan_ns` of each solo frame.
    pub pulses: Vec<u64>,
    pub array_runs: Vec<u64>,
    pub makespan_ns: Vec<u64>,
    payloads: Vec<String>,
}

impl Answers {
    pub fn new(frames: Vec<Option<String>>, payloads: Vec<String>) -> Answers {
        let stats: Vec<(u64, u64, u64)> = frames
            .iter()
            .map(|f| {
                f.as_deref()
                    .and_then(|f| parse_result_frame(f).ok())
                    .map_or((0, 0, 0), |r| (r.total_pulses, r.array_runs, r.makespan_ns))
            })
            .collect();
        Answers {
            frames,
            pulses: stats.iter().map(|s| s.0).collect(),
            array_runs: stats.iter().map(|s| s.1).collect(),
            makespan_ns: stats.iter().map(|s| s.2).collect(),
            payloads,
        }
    }

    /// Number of distinct queries.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn payloads(&self) -> &[String] {
        &self.payloads
    }

    /// Whether a timed `RESULT` frame equals the solo frame of `key`.
    pub fn result_matches(&self, key: usize, frame: &str) -> bool {
        self.frames.get(key).and_then(|f| f.as_deref()) == Some(frame)
    }

    /// Whether a `LOAD` acknowledgement is the expected one.
    pub fn load_matches(&self, name: &str, frame: &str) -> bool {
        frame
            .strip_prefix("LOADED ")
            .and_then(|rest| rest.strip_prefix(name))
            .and_then(|rest| rest.strip_prefix(" rows="))
            .is_some_and(|rows| rows == WRITE_ROWS.to_string())
    }

    /// Check every solo answer's rows against the independent reference.
    /// Returns the distinct queries whose solo answer failed or disagrees.
    ///
    /// Runs after the measured phase: the pulse-accurate reference
    /// allocates several times what the server does, and would otherwise
    /// set the peak memory of the process the server shares.
    pub fn check_reference(&self, w: &Workload) -> Result<Vec<usize>, String> {
        let mut reference = Reference::new(w)?;
        let mut bad = Vec::new();
        for (key, (text, frame)) in w.queries.iter().zip(&self.frames).enumerate() {
            let Some(frame) = frame else {
                bad.push(key);
                continue;
            };
            let solo =
                parse_result_frame(frame).map_err(|e| format!("solo frame of {text}: {e}"))?;
            match reference.csv(text) {
                Ok(expected) if same_rows(&solo.csv, &expected) => {}
                Ok(expected) => {
                    eprintln!(
                        "perfbench: solo answer to {text} disagrees with the reference \
                         ({} rows served, {} expected)",
                        solo.rows,
                        expected.lines().count()
                    );
                    bad.push(key);
                }
                Err(e) => {
                    eprintln!("perfbench: no reference answer for {text}: {e}");
                    bad.push(key);
                }
            }
        }
        Ok(bad)
    }
}

/// Send every distinct query once, alone, and keep its `RESULT` frame.
pub fn solo_answers(client: &mut Client, w: &Workload) -> Answers {
    let frames = w
        .queries
        .iter()
        .map(|text| match client.raw_query_frames(text) {
            Ok((frame, _host)) => Some(frame),
            Err(e) => {
                eprintln!("perfbench: solo query {text} failed: {e}");
                None
            }
        })
        .collect();
    Answers::new(frames, w.payloads.clone())
}

/// Two CSV renderings hold the same multiset of rows.
fn same_rows(a: &str, b: &str) -> bool {
    fn sorted(s: &str) -> Vec<&str> {
        let mut v: Vec<&str> = s.lines().collect();
        v.sort_unstable();
        v
    }
    sorted(a) == sorted(b)
}

/// An independent evaluator for a workload's queries.
enum Reference {
    /// The one-shot engine on the pulse-accurate simulator.
    Sim(Box<Engine>),
    /// Sequential baseline operators over the same encoded tables.
    Baseline {
        store: Store,
        tables: HashMap<String, MultiRelation>,
    },
}

impl Reference {
    fn new(w: &Workload) -> Result<Reference, String> {
        if w.kind == Kind::Analytic {
            let mut store = Store::new();
            let mut tables = HashMap::new();
            for t in &w.tables {
                let kinds = parse_kinds(t.kinds)?;
                let rel = store
                    .register(&t.name, &kinds, &t.csv)
                    .map_err(|e| e.to_string())?;
                tables.insert(t.name.clone(), rel);
            }
            return Ok(Reference::Baseline { store, tables });
        }
        let mut engine = Engine::new(MachineConfig {
            backend: Backend::Sim,
            ..MachineConfig::default()
        })
        .map_err(|e| e.to_string())?;
        for t in &w.tables {
            engine
                .load_table(&t.name, &parse_kinds(t.kinds)?, &t.csv)
                .map_err(|e| e.to_string())?;
        }
        Ok(Reference::Sim(Box::new(engine)))
    }

    /// The reference answer to `text`, rendered as CSV.
    fn csv(&mut self, text: &str) -> Result<String, String> {
        match self {
            Reference::Sim(engine) => {
                // The engine keeps state only through `store(...)`, and each
                // distinct store query names its own target.
                let out = engine.run_query(text).map_err(|e| e.to_string())?;
                engine.render_csv(&out.result).map_err(|e| e.to_string())
            }
            Reference::Baseline { store, tables } => {
                let expr = parse(text).map_err(|e| e.to_string())?;
                let rel = baseline_eval(&expr, tables)?;
                store.render_csv(&rel).map_err(|e| e.to_string())
            }
        }
    }
}

/// Evaluate a parsed query with the sequential baseline operators.
fn baseline_eval(
    expr: &Expr,
    tables: &HashMap<String, MultiRelation>,
) -> Result<MultiRelation, String> {
    let mut c = OpCounter::new();
    let e = |r: systolic_relation::RelationError| r.to_string();
    Ok(match expr {
        Expr::Scan { name, filter: None } => tables
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown table {name}"))?,
        Expr::Intersect(a, b) => hashed::intersect(
            &baseline_eval(a, tables)?,
            &baseline_eval(b, tables)?,
            &mut c,
        )
        .map_err(e)?,
        Expr::Difference(a, b) => hashed::difference(
            &baseline_eval(a, tables)?,
            &baseline_eval(b, tables)?,
            &mut c,
        )
        .map_err(e)?,
        Expr::Union(a, b) => hashed::union(
            &baseline_eval(a, tables)?,
            &baseline_eval(b, tables)?,
            &mut c,
        )
        .map_err(e)?,
        Expr::Dedup(a) => hashed::dedup(&baseline_eval(a, tables)?, &mut c),
        Expr::Project(a, cols) => {
            nested_loop::project(&baseline_eval(a, tables)?, cols, &mut c).map_err(e)?
        }
        Expr::Select(a, preds) => {
            let input = baseline_eval(a, tables)?;
            let mut out = MultiRelation::empty(input.schema().clone());
            for row in input.rows() {
                if preds.iter().all(|p| p.op.eval(row[p.col], p.value)) {
                    out.push(row.clone()).map_err(e)?;
                }
            }
            out
        }
        Expr::Join(a, b, specs) => {
            let pairs: Vec<(usize, usize)> = specs.iter().map(|s| (s.col_a, s.col_b)).collect();
            if specs.iter().any(|s| s.op != Default::default()) {
                return Err("only equi-joins have a baseline".to_string());
            }
            hashed::equi_join(
                &baseline_eval(a, tables)?,
                &baseline_eval(b, tables)?,
                &pairs,
                &mut c,
            )
            .map_err(e)?
        }
        other => return Err(format!("no baseline for {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    use crate::drive::drive;
    use crate::workload::{Kind, Workload};

    /// A one-connection server that answers every `QUERY` with `frame`.
    fn fake_server(frame: String) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (sock, _) = listener.accept().unwrap();
            let mut out = sock.try_clone().unwrap();
            for line in BufReader::new(sock).lines() {
                let line = line.unwrap();
                if line == "CLOSE" {
                    out.write_all(b"BYE\n").unwrap();
                    return;
                }
                out.write_all(format!("{frame}\nHOST ns=1000\n").as_bytes())
                    .unwrap();
            }
        });
        (addr, handle)
    }

    fn serve_for_50ms(answers: &Answers, served: String) -> crate::drive::ConnReport {
        let w = Workload::new(Kind::Analytic, 1);
        let (addr, server) = fake_server(served);
        let start = Instant::now();
        let deadline = start + Duration::from_millis(50);
        let report = drive(addr, w.stream(0), 1, start, deadline, answers, false).unwrap();
        assert!(report.attempted > 0);
        server.join().unwrap();
        report
    }

    #[test]
    fn a_tampered_frame_is_counted_as_failed() {
        let w = Workload::new(Kind::Analytic, 1);
        let solo = "RESULT rows=1 makespan_ns=10 pulses=5 array_runs=1 disk_bytes=4 \
                    concurrency=1 csv=c0\\n7\\n";
        let answers = Answers::new(vec![Some(solo.to_string()); w.queries.len()], Vec::new());
        let honest = serve_for_50ms(&answers, solo.to_string());
        assert_eq!(honest.failed, 0);
        assert_eq!(honest.latency_ns.len() as u64, honest.attempted);
        let tampered = solo.replace("csv=c0\\n7", "csv=c0\\n8");
        let report = serve_for_50ms(&answers, tampered);
        assert_eq!(report.failed, report.attempted);
        assert!(
            report.latency_ns.is_empty(),
            "a failed answer yields no latency sample"
        );
    }

    #[test]
    fn a_query_whose_solo_answer_failed_its_reference_always_fails() {
        let w = Workload::new(Kind::Analytic, 1);
        let answers = Answers::new(vec![None; w.queries.len()], Vec::new());
        let report = serve_for_50ms(&answers, "RESULT rows=0".to_string());
        assert_eq!(report.failed, report.attempted);
    }

    #[test]
    fn baseline_reference_matches_the_served_answers() {
        // The analytic queries are answered the same way by the server's
        // columnar backend and by the sequential baselines.
        let w = Workload::new(Kind::Analytic, 5);
        let handle = systolic_server::spawn(crate::server_config(None)).unwrap();
        let mut client = Client::connect(handle.addr).unwrap();
        for t in &w.tables {
            client.load_csv(&t.name, t.kinds, &t.csv).unwrap();
        }
        let answers = solo_answers(&mut client, &w);
        assert_eq!(answers.check_reference(&w).unwrap(), Vec::<usize>::new());
        client.close().unwrap();
        handle.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn rows_compare_as_multisets() {
        assert!(same_rows("c0\n1\n2\n", "c0\n2\n1\n"));
        assert!(!same_rows("c0\n1\n1\n", "c0\n1\n"));
    }
}
