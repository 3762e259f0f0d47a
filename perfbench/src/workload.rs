//! The four workloads: seeded tables, the distinct query texts each one
//! serves, and the per-connection request streams drawn from them.
//!
//! Everything here is a pure function of the seed, so the same seed gives
//! the same tables and the same request sequence on every run.

use std::collections::VecDeque;

/// A SplitMix64 generator: tiny, seedable, and good enough for test data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Which traffic mix a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Pipelined,
    Analytic,
    DurableRw,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "point" => Some(Kind::Point),
            "pipelined" => Some(Kind::Pipelined),
            "analytic" => Some(Kind::Analytic),
            "durable_rw" => Some(Kind::DurableRw),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Pipelined => "pipelined",
            Kind::Analytic => "analytic",
            Kind::DurableRw => "durable_rw",
        }
    }

    /// Client connections, and requests each keeps in flight.
    pub fn connections(self) -> (usize, usize) {
        match self {
            Kind::Point | Kind::Analytic => (1, 1),
            Kind::Pipelined => (2, 16),
            Kind::DurableRw => (2, 8),
        }
    }
}

/// A base table loaded during set-up.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub kinds: &'static str,
    pub csv: String,
    pub rows: usize,
}

/// Rows in every table `durable_rw` writes.
pub const WRITE_ROWS: usize = 32;
/// Distinct write payloads; a written table's answers depend only on which
/// payload it carries, so every read of it has a known solo answer.
pub const PAYLOADS: usize = 16;

/// One request on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    /// `QUERY <text>`; `key` indexes the workload's distinct queries, whose
    /// solo `RESULT` frame every answer must equal byte for byte.
    Query { text: String, key: usize },
    /// `LOAD <name> int <payload csv>` of a fresh table.
    Load { name: String, payload: usize },
}

impl Req {
    pub fn is_write(&self) -> bool {
        match self {
            Req::Load { .. } => true,
            Req::Query { text, .. } => text.starts_with("store("),
        }
    }
}

/// A workload's inputs: the set-up tables, the distinct query texts, and
/// the write payloads, all drawn from the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub tables: Vec<Table>,
    /// Distinct query texts; `Req::Query::key` indexes this list.
    pub queries: Vec<String>,
    /// Relative frequency of each distinct query in the closed-loop
    /// streams (`point`, `analytic`).
    weights: Vec<u32>,
    /// 32-row single-column CSV payloads for written tables.
    pub payloads: Vec<String>,
}

fn int_column(rng: &mut Rng, rows: usize, range: u64) -> String {
    (0..rows)
        .map(|_| format!("{}\n", rng.below(range)))
        .collect()
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let mut rng = Rng::new(seed);
        // The 96-row single-column `a`/`b` tables of the `repro` serve
        // experiments, with seeded values in the same ranges.
        let a = Table {
            name: "a".into(),
            kinds: "int",
            csv: int_column(&mut rng, 96, 48),
            rows: 96,
        };
        let b = Table {
            name: "b".into(),
            kinds: "int",
            csv: int_column(&mut rng, 96, 64),
            rows: 96,
        };
        let payloads: Vec<String> = (0..PAYLOADS)
            .map(|_| int_column(&mut rng, WRITE_ROWS, 64))
            .collect();
        let base = int_column(&mut rng, 96, 64);
        let mut k = |n: u64| rng.below(n);
        let (tables, queries, weights) = match kind {
            Kind::Point => {
                let (k1, k2, k3, k4, k5, k6) = (k(48), k(64), k(48), k(48), k(64), k(64));
                let queries = vec![
                    "intersect(scan(a), scan(b))".to_string(),
                    "intersect(scan(b), scan(a))".into(),
                    "union(scan(a), scan(b))".into(),
                    "difference(scan(a), scan(b))".into(),
                    "difference(scan(b), scan(a))".into(),
                    "dedup(scan(a))".into(),
                    "dedup(scan(b))".into(),
                    "dedup(union(scan(a), scan(b)))".into(),
                    "join(scan(a), scan(b), 0 = 0)".into(),
                    "join(dedup(scan(a)), scan(b), 0 = 0)".into(),
                    format!("filter(scan(a), c0 = {k1})"),
                    format!("filter(scan(b), c0 < {k2})"),
                    format!("filter(scan(a), c0 >= {k3})"),
                    format!("filter(scan(a), c0 != {k4})"),
                    format!("intersect(filter(scan(a), c0 < {k1}), scan(b))"),
                    format!("difference(scan(a), filter(scan(b), c0 > {k5}))"),
                    format!("dedup(filter(scan(b), c0 != {k6}))"),
                    format!("union(filter(scan(a), c0 < {k3}), filter(scan(b), c0 >= {k2}))"),
                    format!("project(filter(scan(a), c0 <= {k4}), [0])"),
                    format!("intersect(dedup(scan(a)), filter(scan(b), c0 <= {k5}))"),
                ];
                let weights = vec![1; queries.len()];
                (vec![a, b], queries, weights)
            }
            Kind::Pipelined => {
                // Point filters on one shared operand: one distinct text per
                // value `a` can hold.
                let queries = (0..48)
                    .map(|v| format!("filter(scan(a), c0 = {v})"))
                    .collect();
                (vec![a], queries, vec![1; 48])
            }
            Kind::Analytic => {
                let mut col =
                    |rows: usize, range: u64| -> Vec<u64> { (0..rows).map(|_| k(range)).collect() };
                let (c0, c1, c2) = (col(2048, 512), col(2048, 512), col(2048, 64));
                let fact: String = (0..2048)
                    .map(|i| format!("{},{},{}\n", c0[i], c1[i], c2[i]))
                    .collect();
                let d1 = col(64, 1000);
                let dim: String = (0..64).map(|i| format!("{i},{}\n", d1[i])).collect();
                let tables = vec![
                    Table {
                        name: "fact".into(),
                        kinds: "int,int,int",
                        csv: fact,
                        rows: 2048,
                    },
                    Table {
                        name: "dim".into(),
                        kinds: "int,int",
                        csv: dim,
                        rows: 64,
                    },
                ];
                // Tile-heavy set operations on projections (weight 1 each)
                // against cheap full scans and the small-table join (weight
                // 3 each), so fixed costs stay negligible while the run
                // still collects enough samples for a p99.
                let queries = vec![
                    "intersect(project(scan(fact), [0, 1]), project(scan(fact), [1, 0]))"
                        .to_string(),
                    "difference(project(scan(fact), [0, 2]), project(scan(fact), [1, 2]))".into(),
                    "dedup(project(scan(fact), [0, 2]))".into(),
                    "union(project(scan(fact), [0]), project(scan(fact), [1]))".into(),
                    "filter(scan(fact), c0 >= 0)".into(),
                    "join(scan(fact), scan(dim), 2 = 0)".into(),
                    "join(filter(scan(fact), c1 >= 0), scan(dim), 2 = 0)".into(),
                ];
                (tables, queries, vec![1, 1, 1, 1, 3, 3, 3])
            }
            Kind::DurableRw => {
                let mut tables = vec![Table {
                    name: "base".into(),
                    kinds: "int",
                    csv: base,
                    rows: 96,
                }];
                // One set-up table per payload: before any write is
                // acknowledged, reads and stores use these.
                for (p, csv) in payloads.iter().enumerate() {
                    tables.push(Table {
                        name: format!("t{p}"),
                        kinds: "int",
                        csv: csv.clone(),
                        rows: WRITE_ROWS,
                    });
                }
                // Keys 0..P are reads of a payload-p table, P..2P stores.
                let mut queries: Vec<String> = (0..PAYLOADS)
                    .map(|p| format!("intersect(scan(base), scan(t{p}))"))
                    .collect();
                queries.extend(
                    (0..PAYLOADS)
                        .map(|p| format!("store(intersect(scan(base), scan(t{p})), st{p})")),
                );
                (tables, queries, Vec::new())
            }
        };
        Workload {
            kind,
            seed,
            tables,
            queries,
            weights,
            payloads,
        }
    }

    /// The request stream of connection `conn` in the measured phase.
    pub fn stream(&self, conn: usize) -> Stream {
        let rng = Rng::new(self.seed.wrapping_mul(31).wrapping_add(conn as u64 + 1));
        let state = match self.kind {
            Kind::Point | Kind::Analytic => {
                let mut table = Vec::new();
                for (key, &w) in self.weights.iter().enumerate() {
                    table.extend(std::iter::repeat_n(key, w as usize));
                }
                State::Weighted(table)
            }
            Kind::Pipelined => State::Repeating(VecDeque::new()),
            Kind::DurableRw => State::Mixed {
                conn,
                n: 0,
                acked: VecDeque::new(),
            },
        };
        Stream {
            rng,
            queries: self.queries.clone(),
            state,
        }
    }

    /// Keys of the read-only distinct queries (everything but `store(...)`).
    pub fn read_keys(&self) -> Vec<usize> {
        (0..self.queries.len())
            .filter(|&k| !self.queries[k].starts_with("store("))
            .collect()
    }
}

/// Per-workload generator state.
#[derive(Debug, Clone)]
enum State {
    /// Independent draws from a weighted list of keys.
    Weighted(Vec<usize>),
    /// One in four requests repeats one of the last 15 sent; the rest draw
    /// uniformly.
    Repeating(VecDeque<usize>),
    /// `durable_rw`: one request in four writes (alternating a fresh-table
    /// `LOAD` and a `store(...)` to a fresh name); reads intersect the base
    /// table with a recently acknowledged written table.
    Mixed {
        conn: usize,
        n: usize,
        /// Recently acknowledged written tables and their payloads.
        acked: VecDeque<(String, usize)>,
    },
}

/// One connection's request generator.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    queries: Vec<String>,
    state: State,
}

impl Stream {
    pub fn next_req(&mut self) -> Req {
        let rng = &mut self.rng;
        match &mut self.state {
            State::Weighted(table) => {
                let key = table[rng.below(table.len() as u64) as usize];
                Req::Query {
                    text: self.queries[key].clone(),
                    key,
                }
            }
            State::Repeating(recent) => {
                let key = if !recent.is_empty() && rng.below(4) == 0 {
                    recent[rng.below(recent.len() as u64) as usize]
                } else {
                    rng.below(self.queries.len() as u64) as usize
                };
                recent.push_back(key);
                if recent.len() > 15 {
                    recent.pop_front();
                }
                Req::Query {
                    text: self.queries[key].clone(),
                    key,
                }
            }
            State::Mixed { conn, n, acked } => {
                *n += 1;
                let write = rng.below(4) == 0;
                if write && *n % 2 == 0 {
                    return Req::Load {
                        name: format!("w{conn}_{n}"),
                        payload: rng.below(PAYLOADS as u64) as usize,
                    };
                }
                let (table, payload) = if acked.is_empty() {
                    let p = rng.below(PAYLOADS as u64) as usize;
                    (format!("t{p}"), p)
                } else {
                    acked[rng.below(acked.len() as u64) as usize].clone()
                };
                let read = format!("intersect(scan(base), scan({table}))");
                if write {
                    Req::Query {
                        text: format!("store({read}, s{conn}_{n})"),
                        key: PAYLOADS + payload,
                    }
                } else {
                    Req::Query {
                        text: read,
                        key: payload,
                    }
                }
            }
        }
    }

    /// Feedback: `req` was answered correctly. A `durable_rw` read may name
    /// a written table only once its `LOAD` is acknowledged.
    pub fn acked(&mut self, req: &Req) {
        if let (State::Mixed { acked, .. }, Req::Load { name, payload }) = (&mut self.state, req) {
            acked.push_back((name.clone(), *payload));
            if acked.len() > 4 {
                acked.pop_front();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in [
            Kind::Point,
            Kind::Pipelined,
            Kind::Analytic,
            Kind::DurableRw,
        ] {
            let (a, b) = (Workload::new(kind, 7), Workload::new(kind, 7));
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.payloads, b.payloads);
            let (mut sa, mut sb) = (a.stream(0), b.stream(0));
            for _ in 0..200 {
                assert_eq!(sa.next_req(), sb.next_req());
            }
        }
        assert_ne!(
            Workload::new(Kind::Point, 1).tables[0].csv,
            Workload::new(Kind::Point, 2).tables[0].csv
        );
    }

    #[test]
    fn durable_reads_name_only_acknowledged_tables() {
        let w = Workload::new(Kind::DurableRw, 3);
        let mut s = w.stream(1);
        let mut acked: Vec<String> = Vec::new();
        let mut loads = 0;
        for i in 0..400 {
            let req = s.next_req();
            match &req {
                Req::Query { text, .. } => {
                    if let Some(at) = text.find("scan(w") {
                        let name = &text[at + 5..].split(')').next().unwrap();
                        assert!(
                            acked.iter().any(|a| a == name),
                            "unacknowledged read: {text}"
                        );
                    }
                }
                Req::Load { name, .. } => {
                    loads += 1;
                    // Acknowledge every other load, so some stay pending.
                    if i % 2 == 0 {
                        acked.push(name.clone());
                        s.acked(&req);
                    }
                }
            }
        }
        assert!(loads > 20);
    }
}
