//! The integrated systolic system of Figure 9-1 and its scheduler.
//!
//! "One organization that seems to match the system requirements is the
//! crossbar switch interconnection. ... Initially, the relevant relations
//! are read from disks into memories. Then the crossbar switch is
//! configured so that the relevant memories are connected to the systolic
//! array that will perform the first operation of the transaction in
//! question. The data is pipelined from the memories through the switch and
//! through the processor array. The output of the array is pipelined back
//! into another memory. This is repeated for each relational operation in
//! the transaction. Due to the crossbar structure, several operations may
//! be run concurrently."
//!
//! A crossbar is internally non-blocking, so contention exists only at its
//! *ports*: the disk channel, each memory module's port, and each device.
//! The scheduler is a deterministic list scheduler over those resources; an
//! operation holds its input-memory ports, its output-memory port and its
//! device for the whole (pipelined) run.
//!
//! Scheduling is split into two passes. The execute pass performs
//! every data-dependent computation — disk reads and device runs, which are
//! pure functions of disk contents and `(op, inputs, limits)` — and records
//! the results. The accounting pass then prices those records against a
//! fresh set of resource clocks. Because the records carry no clock state,
//! the *same* executions can be accounted more than once: once inside a
//! merged multi-transaction schedule and once standalone per transaction
//! (see [`System::run_batch_accounted`]), which is what lets a long-running
//! query service batch concurrent clients without perturbing per-request
//! statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use systolic_core::{ArrayLimits, Backend};
use systolic_relation::MultiRelation;
use systolic_storage::pool::Replacer;
use systolic_storage::{ReplacerKind, SharedBlobStore, StorageMetrics};
use systolic_telemetry as telemetry;
use systolic_telemetry::metrics::{self, Counter};

use crate::device::{Device, DeviceKind};
use crate::error::{MachineError, Result};
use crate::plan::{Action, Expr, Plan, PlanOp};
use crate::storage::{relation_bytes, Disk, MemoryModule, TrackFilter};
use crate::timeline::Timeline;

struct MachineCounters {
    runs: std::sync::Arc<Counter>,
    pulses: std::sync::Arc<Counter>,
    array_runs: std::sync::Arc<Counter>,
    disk_bytes: std::sync::Arc<Counter>,
    fused_batches: std::sync::Arc<Counter>,
    fused_steps: std::sync::Arc<Counter>,
}

fn machine_counters() -> &'static MachineCounters {
    static CACHE: OnceLock<MachineCounters> = OnceLock::new();
    CACHE.get_or_init(|| {
        let r = metrics::global();
        MachineCounters {
            runs: r.counter(
                "sdb_machine_runs_total",
                "Transaction schedules priced by the machine (solo runs and merged batches).",
            ),
            pulses: r.counter(
                "sdb_machine_pulses_total",
                "Simulated array pulses across all machine runs (§8 time unit).",
            ),
            array_runs: r.counter(
                "sdb_machine_array_runs_total",
                "Physical array runs (tiles) across all machine runs.",
            ),
            disk_bytes: r.counter(
                "sdb_machine_disk_bytes_total",
                "Bytes read from disk across all machine runs (§9 disk channel).",
            ),
            fused_batches: r.counter(
                "sdb_columnar_fused_batches_total",
                "Fused columnar scans: groups of plan steps sharing an operand relation answered by one pass over its word planes.",
            ),
            fused_steps: r.counter(
                "sdb_columnar_fused_steps_total",
                "Plan steps whose execution was covered by a fused columnar scan.",
            ),
        }
    })
}

/// Count one fused columnar scan covering `steps` plan steps. The fused
/// pass changes host work only — results, stats and timelines stay
/// bit-identical — so these counters are the observable trace of it.
fn record_fused_batch(steps: usize) {
    if !metrics::metrics_enabled() {
        return;
    }
    let c = machine_counters();
    c.fused_batches.inc();
    c.fused_steps.add(steps as u64);
}

/// Feed the global registry from a completed run's aggregate stats. Called
/// once per externally observable run (solo, or merged batch) — the
/// per-query re-accounting inside a batch is *not* counted again.
fn record_run_metrics(stats: &RunStats) {
    if !metrics::metrics_enabled() {
        return;
    }
    let c = machine_counters();
    c.runs.inc();
    c.pulses.add(stats.total_pulses);
    c.array_runs.add(stats.array_runs);
    c.disk_bytes.add(stats.bytes_from_disk);
}

/// A schedulable resource (a crossbar port or a device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Res {
    Disk(usize),
    Mem(usize),
    Dev(usize),
    /// The single shared channel of a bus interconnect (unused under the
    /// crossbar, which is internally non-blocking).
    Bus,
}

/// The interconnection strategy (§9: "many strategies are possible for the
/// interconnection of the systolic devices").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interconnect {
    /// The crossbar of Figure 9-1: internally non-blocking, contention
    /// only at ports.
    #[default]
    Crossbar,
    /// A single shared bus: every transfer (load, operator streaming,
    /// store) additionally serialises on the one channel — the cheaper
    /// alternative the crossbar is implicitly compared against.
    SharedBus,
}

/// A dependency level's device runs fan out over host threads only if one
/// of them stages at least this many input rows.
///
/// Measured on a 2-vCPU host with the columnar backend (perfbench, five
/// alternated 10 s pairs per workload): fanning out every level won on
/// `analytic`, whose paired `project(scan(fact), ..)` steps stage 2048 rows
/// each (79 vs 66 q/s), and lost on `point` (362 vs 375 q/s) and
/// `durable_rw` (1156 vs 1278 q/s), whose largest jobs stage 96+96 and
/// 96+32 rows: spawning threads cost more than the runs they overlapped.
const FAN_OUT_MIN_ROWS: usize = 1024;

/// Whether a level of independent device runs, staging `job_rows` input
/// rows each, is worth spreading over host threads: at least two jobs, and
/// one of them large enough to pay for the spawns.
fn fans_out(job_rows: &[usize]) -> bool {
    job_rows.len() >= 2 && job_rows.iter().any(|&rows| rows >= FAN_OUT_MIN_ROWS)
}

/// Host threads a fanned-out level uses: the host's available
/// parallelism, read once.
fn host_parallelism() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run `n_jobs` independent jobs on up to `threads` workers and return the
/// results **indexed by job**, regardless of completion order.
///
/// Jobs are handed out through an atomic counter, so scheduling is dynamic,
/// but because every job writes only its own slot the output is exactly
/// `[f(0), f(1), .., f(n_jobs - 1)]` — the same vector a sequential loop
/// would build. With `threads <= 1` the jobs run inline on this thread.
fn run_jobs<T, F>(threads: usize, n_jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_jobs) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n_jobs {
                    break;
                }
                let out = f(k);
                *slots[k].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool completed every job")
        })
        .collect()
}

/// Machine configuration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// The interconnection strategy.
    pub interconnect: Interconnect,
    /// Number of disks (base relations are spread round-robin; loads from
    /// different disks proceed in parallel).
    pub disks: usize,
    /// Number of memory modules on the crossbar.
    pub memories: usize,
    /// Capacity per module, in bytes.
    pub memory_capacity: u64,
    /// Word size for byte accounting.
    pub bytes_per_word: u64,
    /// Devices: operator family and physical array capacity each.
    pub devices: Vec<(DeviceKind, ArrayLimits)>,
    /// Pulse period in nanoseconds (§8: 350 ns conservative).
    pub clock_ns: f64,
    /// How devices compute operator runs: the pulse-accurate simulator or
    /// the closed-form columnar backend. Results, [`RunStats`] and
    /// [`Timeline`]s are bit-identical either way; only host speed changes.
    pub backend: Backend,
}

impl Default for MachineConfig {
    fn default() -> Self {
        let limits = ArrayLimits::new(32, 32, 8);
        MachineConfig {
            interconnect: Interconnect::Crossbar,
            disks: 1,
            memories: 4,
            memory_capacity: 64 << 20,
            bytes_per_word: 4,
            devices: vec![
                (DeviceKind::SetOp, limits),
                (DeviceKind::SetOp, limits),
                (DeviceKind::Join, limits),
                (DeviceKind::Divide, limits),
            ],
            clock_ns: 350.0,
            backend: Backend::from_env(),
        }
    }
}

/// Aggregate statistics of a transaction run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Wall-clock (simulated) completion time, in nanoseconds.
    pub makespan_ns: u64,
    /// Total array pulses across all operator steps.
    pub total_pulses: u64,
    /// Total physical array invocations (tiles).
    pub array_runs: u64,
    /// Bytes delivered by the disk.
    pub bytes_from_disk: u64,
    /// Maximum number of devices running simultaneously.
    pub max_device_concurrency: usize,
}

/// Result of running a transaction.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final relation.
    pub result: MultiRelation,
    /// The full schedule.
    pub timeline: Timeline,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Host wall-clock time spent simulating this plan, in nanoseconds.
    /// Deliberately outside [`RunStats`]: `makespan_ns` is simulated
    /// hardware time (a property of the design), this is how long the
    /// simulation took on this machine and run.
    pub host_wall_ns: u64,
    /// Output cardinality of each plan step, positionally aligned with
    /// `plan.steps` (`Load` → rows delivered, `Op` → result rows, `Store` →
    /// rows written back).
    pub step_rows: Vec<u64>,
}

impl RunOutcome {
    /// Per-resource busy time and busy fraction of the makespan, sorted by
    /// resource name — the §9 utilisation picture for one transaction.
    pub fn resource_report(&self) -> Vec<(String, u64, f64)> {
        let makespan = self.stats.makespan_ns.max(1) as f64;
        let mut names: Vec<String> = self
            .timeline
            .events()
            .iter()
            .map(|e| e.resource.clone())
            .collect();
        names.sort_unstable();
        names.dedup();
        names
            .into_iter()
            .map(|name| {
                let busy = self.timeline.busy_ns(&name);
                (name, busy, busy as f64 / makespan)
            })
            .collect()
    }
}

/// One transaction's standalone accounting within a batched run.
///
/// Produced by [`System::run_batch_accounted`]: the transaction's recorded
/// executions replayed against a fresh machine state, so `stats` and
/// `timeline` are bit-identical to running the transaction alone on a
/// freshly built [`System`] — independent of what else was in the batch.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The transaction's result relation.
    pub result: MultiRelation,
    /// Simulated-hardware statistics of the standalone schedule.
    pub stats: RunStats,
    /// The standalone schedule itself.
    pub timeline: Timeline,
    /// Per-step output cardinalities (see [`RunOutcome::step_rows`]).
    pub step_rows: Vec<u64>,
}

/// Result of [`System::run_batch_accounted`]: the merged §9 schedule plus
/// per-transaction standalone accounting over the same executions.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One standalone-accounted outcome per submitted transaction.
    pub queries: Vec<QueryOutcome>,
    /// The merged schedule — all transactions sharing crossbar ports and
    /// devices. Its `host_wall_ns` covers the whole batch: the execution
    /// pass and both accounting passes.
    pub combined: RunOutcome,
}

/// The data-dependent part of one plan step, captured ahead of accounting.
///
/// Device runs are pure functions of `(op, inputs, limits)` and disk reads
/// are pure functions of disk contents, so these records carry no clock
/// state and can be priced under any resource-clock history.
#[derive(Debug)]
enum StepExec {
    /// Outcome of the disk read feeding a `Load` step.
    Load(Result<LoadExec>),
    /// Precomputed device run for an `Op` step; `None` when the eligible
    /// devices disagree on limits (or inputs did not resolve) and the run
    /// must happen inline during accounting.
    Op(Option<Result<(MultiRelation, systolic_core::ExecStats)>>),
    /// `Store` steps move already-staged data; nothing to precompute.
    Store,
}

/// What a disk delivered for one `Load` step.
#[derive(Debug)]
struct LoadExec {
    delivered: MultiRelation,
    duration: u64,
    disk_id: usize,
}

/// Per-run scheduler state: staging memories, port clocks and placement.
///
/// Every accounting pass starts from a fresh `Transient`, so a long-lived
/// [`System`] schedules each run exactly as a freshly built machine would —
/// only disk contents (base relations and `store(...)` write-backs) persist
/// across runs.
struct Transient {
    memories: Vec<MemoryModule>,
    free_at: HashMap<Res, u64>,
    placement: HashMap<String, usize>,
    placement_rr: usize,
    /// Remaining *future* uses per staged name (op inputs, store inputs and
    /// the final result fetch). A name at zero is dead data a full memory
    /// may reclaim.
    uses: HashMap<String, usize>,
    /// Staging replacement policy — the same [`Replacer`] family that
    /// drives the buffer pool, here keyed by staged-relation name.
    replacer: Box<dyn Replacer<String>>,
    storage_metrics: Arc<StorageMetrics>,
}

impl std::fmt::Debug for Transient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transient")
            .field("memories", &self.memories)
            .field("placement", &self.placement)
            .finish()
    }
}

impl Transient {
    /// Pick a module with room for `bytes`, preferring the module whose
    /// port frees earliest (so independent operations land on distinct
    /// ports — which is what makes concurrent operation possible), then the
    /// emptiest, breaking remaining ties round-robin.
    ///
    /// When no module has room, staged relations with no remaining uses
    /// are evicted — in replacement-policy order — until one does. Runs
    /// that fit without eviction schedule exactly as before (the eviction
    /// path only runs where the machine previously failed with
    /// [`MachineError::MemoryOverflow`]). Dropping a dead staged copy frees
    /// buffer space without any data movement, so it costs nothing on the
    /// simulated clocks.
    fn choose_memory(&mut self, bytes: u64) -> Result<usize> {
        loop {
            if let Some(id) = self.try_choose(bytes) {
                return Ok(id);
            }
            if !self.evict_one_dead() {
                return Err(MachineError::MemoryOverflow {
                    module: self.placement_rr,
                    requested: bytes,
                    available: self.memories.iter().map(|m| m.free()).max().unwrap_or(0),
                });
            }
        }
    }

    fn try_choose(&mut self, bytes: u64) -> Option<usize> {
        let n = self.memories.len();
        let start = self.placement_rr;
        let mut best: Option<(u64, u64, usize)> = None; // (port_free_at, -free, id)
        for k in 0..n {
            let id = (start + k) % n;
            if self.memories[id].free() < bytes {
                continue;
            }
            let port = self.free_at.get(&Res::Mem(id)).copied().unwrap_or(0);
            let key = (port, u64::MAX - self.memories[id].free());
            if best.is_none_or(|(p, f, _)| key < (p, f)) {
                best = Some((key.0, key.1, id));
            }
        }
        let (_, _, id) = best?;
        self.placement_rr = (id + 1) % n;
        Some(id)
    }

    /// Reclaim one dead staged relation, policy order. Victims that still
    /// have uses ahead are skipped (and re-tracked). Returns whether any
    /// bytes were freed.
    fn evict_one_dead(&mut self) -> bool {
        let mut skipped: Vec<String> = Vec::new();
        let mut freed = false;
        while let Some(name) = self.replacer.victim() {
            if self.uses.get(&name).copied().unwrap_or(0) > 0 {
                skipped.push(name);
                continue;
            }
            if let Some(home) = self.placement.remove(&name) {
                if self.memories[home].evict(&name).is_some() {
                    self.storage_metrics.staging_evictions.inc();
                    freed = true;
                    break;
                }
            }
        }
        for name in skipped {
            self.replacer.record_access(&name);
        }
        freed
    }

    /// Stage a relation into `target`, tracking it for replacement.
    fn stage(&mut self, target: usize, name: &str, rel: MultiRelation) -> Result<()> {
        self.memories[target].store(name.to_string(), rel)?;
        self.placement.insert(name.to_string(), target);
        self.replacer.record_access(&name.to_string());
        Ok(())
    }

    /// Note that one pending use of `name` has happened.
    fn consume(&mut self, name: &str) {
        if let Some(n) = self.uses.get_mut(name) {
            *n = n.saturating_sub(1);
        }
    }

    /// Look up a staged relation by name.
    fn fetch(&mut self, name: &str) -> Result<MultiRelation> {
        let &home = self
            .placement
            .get(name)
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })?;
        self.replacer.record_access(&name.to_string());
        self.memories[home]
            .get(name)
            .cloned()
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })
    }
}

/// The integrated machine: disks + memories + systolic devices + crossbar.
#[derive(Debug)]
pub struct System {
    disks: Vec<Disk>,
    memories: Vec<MemoryModule>,
    devices: Vec<Device>,
    interconnect: Interconnect,
    disk_rr: usize,
    staging_replacer: ReplacerKind,
    storage_metrics: Arc<StorageMetrics>,
}

impl System {
    /// Build a machine.
    pub fn new(config: MachineConfig) -> Result<Self> {
        if config.memories == 0 || config.devices.is_empty() || config.disks == 0 {
            return Err(MachineError::EmptyConfiguration);
        }
        let memories = (0..config.memories)
            .map(|id| MemoryModule::new(id, config.memory_capacity, config.bytes_per_word))
            .collect();
        let devices = config
            .devices
            .iter()
            .enumerate()
            .map(|(id, &(kind, limits))| {
                Device::new(id, kind, limits, config.clock_ns, config.backend)
            })
            .collect();
        let disks = (0..config.disks).map(|_| Disk::paper_disk()).collect();
        Ok(System {
            disks,
            memories,
            devices,
            interconnect: config.interconnect,
            disk_rr: 0,
            staging_replacer: ReplacerKind::Clock,
            storage_metrics: StorageMetrics::shared(),
        })
    }

    /// Back every disk with the given paged store (each disk namespaces its
    /// blobs as `d<i>:`). Existing disk contents move into the store.
    pub fn attach_storage(&mut self, store: &SharedBlobStore) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            disk.attach_backing(store.clone(), format!("d{i}:"));
        }
    }

    /// Select the staging-memory replacement policy (shared with the
    /// buffer pool's `--replacer` choice).
    pub fn set_staging_replacer(&mut self, kind: ReplacerKind) {
        self.staging_replacer = kind;
    }

    /// A machine with the default configuration.
    pub fn default_machine() -> Self {
        Self::new(MachineConfig::default()).expect("default config is non-empty")
    }

    /// Store a base relation on a disk (round-robin across the disks, so
    /// consecutive base relations can be loaded in parallel).
    pub fn load_base(&mut self, name: impl Into<String>, rel: MultiRelation) {
        let d = self.disk_rr;
        self.disk_rr = (self.disk_rr + 1) % self.disks.len();
        self.disks[d].store(name, rel);
    }

    /// The disk holding a base relation.
    fn disk_of(&self, name: &str) -> Result<usize> {
        self.disks
            .iter()
            .position(|d| d.has(name))
            .ok_or_else(|| MachineError::UnknownRelation {
                name: name.to_string(),
            })
    }

    /// Whether a base relation with this name is stored on some disk.
    pub fn has_base(&self, name: &str) -> bool {
        self.disk_of(name).is_ok()
    }

    /// Number of disks.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// The devices, for inspection.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Number of memory modules.
    pub fn memory_count(&self) -> usize {
        self.memories.len()
    }

    /// Fresh per-run scheduler state mirroring this machine's memory shape.
    fn transient(&self) -> Transient {
        Transient {
            memories: self
                .memories
                .iter()
                .map(|m| MemoryModule::new(m.id, m.capacity, m.bytes_per_word()))
                .collect(),
            free_at: HashMap::new(),
            placement: HashMap::new(),
            placement_rr: 0,
            uses: HashMap::new(),
            replacer: self.staging_replacer.build(),
            storage_metrics: self.storage_metrics.clone(),
        }
    }

    /// Compile and run a transaction.
    pub fn run(&mut self, expr: &Expr) -> Result<RunOutcome> {
        let plan = {
            let mut sp = telemetry::span("machine.plan");
            let plan = Plan::compile(expr);
            sp.arg("steps", plan.steps.len());
            plan
        };
        self.run_plan(&plan)
    }

    /// Run a *set* of transactions as one schedule (§9 processes "a single
    /// transaction or a set of transactions"). Plans are merged with
    /// namespaced temporaries; steps from different transactions interleave
    /// on the shared resources, so independent transactions overlap on
    /// distinct devices and memory ports.
    ///
    /// Returns one result per transaction plus the combined schedule.
    pub fn run_batch(&mut self, exprs: &[Expr]) -> Result<(Vec<MultiRelation>, RunOutcome)> {
        let batch = self.run_batch_accounted(exprs)?;
        Ok((
            batch.queries.into_iter().map(|q| q.result).collect(),
            batch.combined,
        ))
    }

    /// Run a set of transactions as one merged schedule *and* account each
    /// transaction standalone over the very same recorded executions.
    ///
    /// The merged pass prices the batch the way §9 describes — independent
    /// transactions overlapping on distinct crossbar ports and devices —
    /// while each [`QueryOutcome`] replays that transaction's recorded step
    /// executions against fresh machine state, so its `stats` and
    /// `timeline` are bit-identical to running the transaction alone on a
    /// freshly built [`System`]. This is what lets a long-running service
    /// batch concurrently-arriving requests for throughput while reporting
    /// per-request simulated costs that do not depend on what else happened
    /// to share the batch.
    pub fn run_batch_accounted(&mut self, exprs: &[Expr]) -> Result<BatchOutcome> {
        let mut batch_span = telemetry::span("machine.batch");
        batch_span.arg("queries", exprs.len());
        let host_start = std::time::Instant::now();
        let (plans, merged, offsets) = {
            let _sp = telemetry::span("machine.plan");
            let plans: Vec<Plan> = exprs.iter().map(Plan::compile).collect();
            let (merged, offsets) = Self::merge_plans(&plans);
            (plans, merged, offsets)
        };
        let records = {
            let _sp = telemetry::span("machine.execute");
            self.execute_steps(&merged, None)
        };
        let mut shared = self.transient();
        let mut combined = {
            let _sp = telemetry::span("machine.account");
            self.account(&merged, &records, &mut shared)?
        };
        let mut queries = Vec::with_capacity(plans.len());
        for (plan, &offset) in plans.iter().zip(&offsets) {
            let slice = &records[offset..offset + plan.steps.len()];
            let mut solo = self.transient();
            let _sp = telemetry::span("machine.account_solo");
            let outcome = self.account(plan, slice, &mut solo)?;
            queries.push(QueryOutcome {
                result: outcome.result,
                stats: outcome.stats,
                timeline: outcome.timeline,
                step_rows: outcome.step_rows,
            });
        }
        self.memories = shared.memories;
        combined.host_wall_ns = host_start.elapsed().as_nanos() as u64;
        record_run_metrics(&combined.stats);
        Ok(BatchOutcome { queries, combined })
    }

    /// Merge per-transaction plans into one, namespacing temporaries and
    /// staged copies per query (`q0:`, `q1:`, ...) so two transactions'
    /// intermediates never collide. Returns the merged plan and each
    /// transaction's step offset within it.
    fn merge_plans(plans: &[Plan]) -> (Plan, Vec<usize>) {
        let mut merged = Plan::default();
        let mut offsets = Vec::with_capacity(plans.len());
        for (q, plan) in plans.iter().enumerate() {
            let offset = merged.steps.len();
            offsets.push(offset);
            for step in &plan.steps {
                let mut step = step.clone();
                step.id += offset;
                for d in &mut step.deps {
                    *d += offset;
                }
                step.output = format!("q{q}:{}", step.output);
                match &mut step.action {
                    Action::Op { inputs, .. } => {
                        for input in inputs {
                            *input = format!("q{q}:{input}");
                        }
                    }
                    Action::Store { input, .. } => {
                        *input = format!("q{q}:{input}");
                    }
                    Action::Load { .. } => {}
                }
                merged.steps.push(step);
            }
        }
        (merged, offsets)
    }

    /// Run every data-dependent part of a plan ahead of the accounting
    /// pass: all disk reads, plus every `Op` step's device run. The device
    /// runs of one dependency level are independent; the level fans out
    /// over host threads when [`fans_out`] says it is big enough, or over
    /// exactly `threads` threads when `threads` is given (tests use that
    /// to pin fan-out bit-identical to inline execution).
    ///
    /// Precomputing device runs is sound because [`Device::execute`] is a
    /// pure function of `(op, inputs, device.limits)` — it touches no
    /// clocks and no machine state — so the result does not depend on
    /// *which* eligible device instance the accounting pass later picks, as
    /// long as every eligible device has identical limits. Steps that fail
    /// that condition (heterogeneous limits, or no eligible device at all)
    /// are recorded as deferred and executed inline by the accounting pass,
    /// preserving the sequential error order.
    #[allow(clippy::type_complexity)]
    fn execute_steps(&self, plan: &Plan, threads: Option<usize>) -> Vec<StepExec> {
        let fuse = self.backend() == Backend::Columnar;
        // Under the columnar backend, Load steps of one base relation are
        // grouped into a single fused disk scan: the relation is fetched
        // once and every group member's track filter is evaluated in one
        // pass over its word planes. Each member is still priced as its
        // own full transfer, so accounting is unchanged.
        let mut fused_loads: HashMap<usize, Result<LoadExec>> = HashMap::new();
        if fuse {
            let mut order: Vec<&str> = Vec::new();
            let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
            for step in &plan.steps {
                if let Action::Load { relation, .. } = &step.action {
                    groups
                        .entry(relation.as_str())
                        .or_insert_with(|| {
                            order.push(relation.as_str());
                            Vec::new()
                        })
                        .push(step.id);
                }
            }
            for name in order {
                let ids = &groups[name];
                if ids.len() < 2 {
                    continue;
                }
                let filters: Vec<Option<TrackFilter>> = ids
                    .iter()
                    .map(|&id| match &plan.steps[id].action {
                        Action::Load { filter, .. } => *filter,
                        _ => unreachable!("load group holds load steps"),
                    })
                    .collect();
                let fused = self.disk_of(name).and_then(|disk_id| {
                    Ok((disk_id, self.disks[disk_id].read_many(name, &filters)?))
                });
                match fused {
                    Ok((disk_id, outs)) => {
                        let mut sp = telemetry::span("machine.fused_load");
                        sp.arg("relation", name);
                        sp.arg("steps", ids.len());
                        record_fused_batch(ids.len());
                        for (&id, (delivered, duration)) in ids.iter().zip(outs) {
                            fused_loads.insert(
                                id,
                                Ok(LoadExec {
                                    delivered,
                                    duration,
                                    disk_id,
                                }),
                            );
                        }
                    }
                    Err(e) => {
                        for &id in ids {
                            fused_loads.insert(id, Err(e.clone()));
                        }
                    }
                }
            }
        }
        let mut records: Vec<StepExec> = plan
            .steps
            .iter()
            .map(|step| match &step.action {
                Action::Load { relation, filter } => {
                    StepExec::Load(match fused_loads.remove(&step.id) {
                        Some(record) => record,
                        None => self.disk_of(relation).and_then(|disk_id| {
                            self.disks[disk_id].read(relation, *filter).map(
                                |(delivered, duration)| LoadExec {
                                    delivered,
                                    duration,
                                    disk_id,
                                },
                            )
                        }),
                    })
                }
                Action::Op { .. } => StepExec::Op(None),
                Action::Store { .. } => StepExec::Store,
            })
            .collect();
        // Dataflow values by output name (plan steps are topologically
        // ordered, so a level's inputs are always produced by lower
        // levels). Load errors are ignored here and resurface, in step
        // order, during accounting.
        let mut values: HashMap<&str, MultiRelation> = HashMap::new();
        for step in &plan.steps {
            if let StepExec::Load(Ok(load)) = &records[step.id] {
                values.insert(step.output.as_str(), load.delivered.clone());
            }
        }
        let mut level: Vec<usize> = vec![0; plan.steps.len()];
        for step in &plan.steps {
            level[step.id] = step.deps.iter().map(|&d| level[d] + 1).max().unwrap_or(0);
        }
        let max_level = level.iter().copied().max().unwrap_or(0);
        for lv in 0..=max_level {
            // Op steps of this level whose inputs resolved and whose
            // eligible devices all agree on limits run concurrently.
            let batch: Vec<(&crate::plan::PlanStep, &Device, Vec<&MultiRelation>)> = plan
                .steps
                .iter()
                .filter(|s| level[s.id] == lv)
                .filter_map(|step| {
                    let Action::Op { op, inputs } = &step.action else {
                        return None;
                    };
                    let staged: Option<Vec<&MultiRelation>> =
                        inputs.iter().map(|n| values.get(n.as_str())).collect();
                    let eligible: Vec<&Device> =
                        self.devices.iter().filter(|d| d.can_execute(op)).collect();
                    let first = *eligible.first()?;
                    if eligible.iter().any(|d| d.limits != first.limits) {
                        return None;
                    }
                    Some((step, first, staged?))
                })
                .collect();
            // Under the columnar backend, Select steps of this level whose
            // staged inputs are clones of one relation (they share a
            // columnar cache cell) are answered by a single fused pass
            // over its word planes. Results and stats are exactly what
            // each device run would produce: the keep vectors equal
            // `select_bits` per query, and the selection array's stats are
            // a closed-form function of the input shape.
            let mut fused: HashMap<usize, Result<(MultiRelation, systolic_core::ExecStats)>> =
                HashMap::new();
            if fuse {
                let mut order: Vec<usize> = Vec::new();
                let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
                for (k, (step, _, staged)) in batch.iter().enumerate() {
                    let Action::Op {
                        op: PlanOp::Select(preds),
                        ..
                    } = &step.action
                    else {
                        continue;
                    };
                    let [input] = staged.as_slice() else { continue };
                    // Mirror `select_with`'s guards so the fused path and
                    // a solo device run agree on errors and on the
                    // empty-input fast path.
                    if input.is_empty()
                        || preds.is_empty()
                        || preds.iter().any(|p| p.col >= input.arity())
                    {
                        continue;
                    }
                    groups
                        .entry(input.columnar_token())
                        .or_insert_with(|| {
                            order.push(input.columnar_token());
                            Vec::new()
                        })
                        .push(k);
                }
                for token in order {
                    let idxs = &groups[&token];
                    if idxs.len() < 2 {
                        continue;
                    }
                    let mut sp = telemetry::span("machine.fused_select");
                    sp.arg("steps", idxs.len());
                    let shared = batch[idxs[0]].2[0];
                    let packed = shared.columnar();
                    let queries: Vec<&[systolic_core::select::Predicate]> = idxs
                        .iter()
                        .map(|&k| {
                            let Action::Op {
                                op: PlanOp::Select(preds),
                                ..
                            } = &batch[k].0.action
                            else {
                                unreachable!("select group holds select steps")
                            };
                            preds.as_slice()
                        })
                        .collect();
                    let keeps = systolic_core::fused_select(&packed, &queries);
                    record_fused_batch(idxs.len());
                    for ((&k, preds), keep) in idxs.iter().zip(&queries).zip(&keeps) {
                        let input = batch[k].2[0];
                        let out = input.filter_by_index(|i| keep[i]);
                        let stats = systolic_core::ops::price_select(input.len(), preds.len());
                        fused.insert(k, Ok((out, stats)));
                    }
                }
            }
            let live: Vec<usize> = (0..batch.len())
                .filter(|k| !fused.contains_key(k))
                .collect();
            let threads = threads.unwrap_or_else(|| {
                let job_rows: Vec<usize> = live
                    .iter()
                    .map(|&k| batch[k].2.iter().map(|r| r.len()).sum())
                    .collect();
                if fans_out(&job_rows) {
                    host_parallelism()
                } else {
                    1
                }
            });
            let outs = run_jobs(threads, live.len(), |j| {
                let (step, device, staged) = &batch[live[j]];
                let Action::Op { op, .. } = &step.action else {
                    unreachable!()
                };
                device.execute(op, staged)
            });
            let ids: Vec<(usize, &str)> = live
                .iter()
                .map(|&k| (batch[k].0.id, batch[k].0.output.as_str()))
                .collect();
            let fused_out: Vec<(
                usize,
                &str,
                Result<(MultiRelation, systolic_core::ExecStats)>,
            )> = fused
                .into_iter()
                .map(|(k, res)| (batch[k].0.id, batch[k].0.output.as_str(), res))
                .collect();
            for ((id, output), res) in ids.into_iter().zip(outs) {
                if let Ok((out, _)) = &res {
                    values.insert(output, out.clone());
                }
                records[id] = StepExec::Op(Some(res));
            }
            for (id, output, res) in fused_out {
                if let Ok((out, _)) = &res {
                    values.insert(output, out.clone());
                }
                records[id] = StepExec::Op(Some(res));
            }
        }
        records
    }

    /// The backend every device computes with (all devices share the
    /// configured backend).
    fn backend(&self) -> Backend {
        self.devices[0].backend
    }

    /// The accounting pass: walk the plan in step order, allocate memory
    /// ports and devices under the deterministic list-scheduling policy,
    /// and price each step's recorded execution against `t`'s resource
    /// clocks. `records` must be positionally aligned with `plan.steps`.
    fn account(
        &mut self,
        plan: &Plan,
        records: &[StepExec],
        t: &mut Transient,
    ) -> Result<RunOutcome> {
        let mut timeline = Timeline::default();
        let mut step_end: Vec<u64> = vec![0; plan.steps.len()];
        let mut step_rows: Vec<u64> = vec![0; plan.steps.len()];
        let mut stats = RunStats::default();

        // Pending-use counts drive staging eviction: a staged name whose
        // count hits zero is dead and may be reclaimed under memory
        // pressure. The final result fetch counts as a use.
        t.uses.clear();
        for step in &plan.steps {
            match &step.action {
                Action::Op { inputs, .. } => {
                    for n in inputs {
                        *t.uses.entry(n.clone()).or_insert(0) += 1;
                    }
                }
                Action::Store { input, .. } => {
                    *t.uses.entry(input.clone()).or_insert(0) += 1;
                }
                Action::Load { .. } => {}
            }
        }
        *t.uses.entry(plan.result_name().to_string()).or_insert(0) += 1;

        for step in &plan.steps {
            let ready = step.deps.iter().map(|&d| step_end[d]).max().unwrap_or(0);
            match &step.action {
                Action::Load { relation, .. } => {
                    let StepExec::Load(record) = &records[step.id] else {
                        unreachable!("load step paired with a load record")
                    };
                    let load = match record {
                        Ok(load) => load,
                        Err(e) => return Err(e.clone()),
                    };
                    let bytes =
                        relation_bytes(&load.delivered, self.disks[load.disk_id].bytes_per_word);
                    let target = t.choose_memory(bytes)?;
                    let mut resources = vec![Res::Disk(load.disk_id), Res::Mem(target)];
                    if self.interconnect == Interconnect::SharedBus {
                        resources.push(Res::Bus);
                    }
                    let start = resources
                        .iter()
                        .map(|r| t.free_at.get(r).copied().unwrap_or(0))
                        .max()
                        .unwrap_or(0)
                        .max(ready);
                    let end = start + load.duration;
                    for r in resources {
                        t.free_at.insert(r, end);
                    }
                    t.stage(target, &step.output, load.delivered.clone())?;
                    step_rows[step.id] = load.delivered.len() as u64;
                    stats.bytes_from_disk += bytes;
                    timeline.push(
                        start,
                        end,
                        format!("disk{}", load.disk_id),
                        format!("read {relation}"),
                    );
                    timeline.push(
                        start,
                        end,
                        format!("mem{target}"),
                        format!("receive {}", step.output),
                    );
                    step_end[step.id] = end;
                }
                Action::Op { op, inputs } => {
                    // Same error order as a purely sequential walk: staged
                    // inputs first, then device eligibility.
                    let staged: Vec<MultiRelation> =
                        inputs.iter().map(|n| t.fetch(n)).collect::<Result<_>>()?;
                    // Memory ports are charged for the inputs' homes as of
                    // this step, captured before any eviction can reclaim a
                    // now-dead input while placing the output.
                    let input_ports: Vec<usize> =
                        inputs.iter().map(|n| t.placement[n.as_str()]).collect();
                    for n in inputs {
                        t.consume(n);
                    }
                    // Pick the matching device that frees earliest.
                    let dev_id = self
                        .devices
                        .iter()
                        .filter(|d| d.can_execute(op))
                        .min_by_key(|d| t.free_at.get(&Res::Dev(d.id)).copied().unwrap_or(0))
                        .map(|d| d.id)
                        .ok_or_else(|| MachineError::NoDevice { kind: op.label() })?;
                    // Use the recorded device run if the execution pass
                    // produced one; otherwise simulate inline. Either way
                    // the value is a pure function of (op, inputs, limits),
                    // so the accounting below is unaffected.
                    let (out, run_stats) = match &records[step.id] {
                        StepExec::Op(Some(result)) => result.clone()?,
                        StepExec::Op(None) => {
                            let refs: Vec<&MultiRelation> = staged.iter().collect();
                            self.devices[dev_id].execute(op, &refs)?
                        }
                        _ => unreachable!("op step paired with an op record"),
                    };
                    let duration = self.devices[dev_id].run_ns(&run_stats).max(1);
                    let out_bytes = relation_bytes(&out, self.disks[0].bytes_per_word);
                    let target = t.choose_memory(out_bytes)?;
                    let mut resources = vec![Res::Dev(dev_id), Res::Mem(target)];
                    for port in &input_ports {
                        resources.push(Res::Mem(*port));
                    }
                    if self.interconnect == Interconnect::SharedBus {
                        resources.push(Res::Bus);
                    }
                    resources.sort_by_key(|r| match r {
                        Res::Disk(i) => (0usize, *i),
                        Res::Mem(i) => (1, *i),
                        Res::Dev(i) => (2, *i),
                        Res::Bus => (3, 0),
                    });
                    resources.dedup();
                    let start = resources
                        .iter()
                        .map(|r| t.free_at.get(r).copied().unwrap_or(0))
                        .max()
                        .unwrap_or(0)
                        .max(ready);
                    let end = start + duration;
                    for r in &resources {
                        t.free_at.insert(*r, end);
                    }
                    step_rows[step.id] = out.len() as u64;
                    t.stage(target, &step.output, out)?;
                    stats.total_pulses += run_stats.pulses;
                    stats.array_runs += run_stats.array_runs;
                    let dev_name = self.devices[dev_id].name.clone();
                    timeline.push_pulsed(
                        start,
                        end,
                        dev_name,
                        format!("{} -> {}", op.label(), step.output),
                        run_stats.pulses,
                    );
                    for r in &resources {
                        if let Res::Mem(i) = r {
                            timeline.push(
                                start,
                                end,
                                format!("mem{i}"),
                                format!("port busy: {}", op.label()),
                            );
                        }
                    }
                    step_end[step.id] = end;
                }
                Action::Store { input, as_name } => {
                    let rel = t.fetch(input)?;
                    let input_port = t.placement[input.as_str()];
                    t.consume(input);
                    step_rows[step.id] = rel.len() as u64;
                    let bytes = relation_bytes(&rel, self.disks[0].bytes_per_word);
                    // Write back to the least-recently-used disk channel.
                    let disk_id = (0..self.disks.len())
                        .min_by_key(|d| t.free_at.get(&Res::Disk(*d)).copied().unwrap_or(0))
                        .unwrap_or(0);
                    let duration = self.disks[disk_id].transfer_ns(bytes).max(1);
                    let mut resources = vec![Res::Disk(disk_id), Res::Mem(input_port)];
                    if self.interconnect == Interconnect::SharedBus {
                        resources.push(Res::Bus);
                    }
                    let start = resources
                        .iter()
                        .map(|r| t.free_at.get(r).copied().unwrap_or(0))
                        .max()
                        .unwrap_or(0)
                        .max(ready);
                    let end = start + duration;
                    for r in resources {
                        t.free_at.insert(r, end);
                    }
                    self.disks[disk_id].store(as_name.clone(), rel);
                    timeline.push(
                        start,
                        end,
                        format!("disk{disk_id}"),
                        format!("write {as_name}"),
                    );
                    timeline.push(
                        start,
                        end,
                        format!("mem{input_port}"),
                        format!("drain {input}"),
                    );
                    step_end[step.id] = end;
                }
            }
        }

        let result = t.fetch(plan.result_name())?;
        stats.makespan_ns = timeline.makespan_ns();
        stats.max_device_concurrency = timeline.max_concurrency(|r| {
            r.starts_with("setop") || r.starts_with("join") || r.starts_with("divide")
        });
        Ok(RunOutcome {
            result,
            timeline,
            stats,
            host_wall_ns: 0,
            step_rows,
        })
    }

    /// Execute a compiled plan.
    ///
    /// Every run is accounted against fresh transient state (empty staging
    /// memories, idle ports), so a long-lived machine schedules a plan
    /// exactly as a freshly built one would; only disk contents (base
    /// relations and `store(...)` write-backs) persist across runs.
    pub fn run_plan(&mut self, plan: &Plan) -> Result<RunOutcome> {
        let _run_span = telemetry::span("machine.run");
        let host_start = std::time::Instant::now();
        let records = {
            let _sp = telemetry::span("machine.execute");
            self.execute_steps(plan, None)
        };
        let mut t = self.transient();
        let mut outcome = {
            let _sp = telemetry::span("machine.account");
            self.account(plan, &records, &mut t)?
        };
        self.memories = t.memories;
        outcome.host_wall_ns = host_start.elapsed().as_nanos() as u64;
        record_run_metrics(&outcome.stats);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_core::JoinSpec;
    use systolic_relation::gen::synth_schema;
    use systolic_relation::Row;

    fn rel(rows: Vec<Row>) -> MultiRelation {
        MultiRelation::new(synth_schema(rows[0].len()), rows).unwrap()
    }

    fn seq(range: std::ops::Range<i64>) -> MultiRelation {
        rel(range.map(|i| vec![i, i]).collect())
    }

    #[test]
    fn single_operation_transaction() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..10));
        sys.load_base("b", seq(5..15));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        assert_eq!(out.result.len(), 5);
        assert!(out.stats.makespan_ns > 0);
        assert!(out.stats.bytes_from_disk > 0);
        assert!(out.stats.total_pulses > 0);
    }

    #[test]
    fn multi_operator_transaction_produces_the_right_relation() {
        // ((A ∪ B) - C) with verification against direct operators.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..8));
        sys.load_base("b", seq(4..12));
        sys.load_base("c", seq(0..2));
        let expr = Expr::scan("a")
            .union(Expr::scan("b"))
            .difference(Expr::scan("c"));
        let out = sys.run(&expr).unwrap();
        use systolic_core::ops::{self, Execution};
        let (u, _) = ops::union(&seq(0..8), &seq(4..12), Execution::Marching).unwrap();
        let (expect, _) = ops::difference(&u, &seq(0..2), Execution::Marching).unwrap();
        assert!(out.result.set_eq(&expect));
        assert_eq!(out.result.len(), 10);
    }

    #[test]
    fn independent_operations_run_concurrently() {
        // (A ∩ B) ∪ (C ∩ D): the two intersections have disjoint inputs and
        // two set-op devices exist, so they must overlap in time.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..64));
        sys.load_base("b", seq(32..96));
        sys.load_base("c", seq(100..164));
        sys.load_base("d", seq(132..196));
        let expr = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("c").intersect(Expr::scan("d")));
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 32 + 32);
        assert!(
            out.stats.max_device_concurrency >= 2,
            "expected overlapping intersections, got concurrency {}",
            out.stats.max_device_concurrency
        );
    }

    #[test]
    fn joins_route_to_the_join_device() {
        let mut sys = System::default_machine();
        sys.load_base("emp", rel(vec![vec![1, 10], vec![2, 20]]));
        sys.load_base("dept", rel(vec![vec![10, 100], vec![30, 300]]));
        let expr = Expr::scan("emp").join(Expr::scan("dept"), vec![JoinSpec::eq(1, 0)]);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.rows(), &[vec![1, 10, 100]]);
        assert!(out.timeline.events().iter().any(|e| e.resource == "join2"));
    }

    #[test]
    fn division_transaction() {
        let mut sys = System::default_machine();
        sys.load_base("takes", rel(vec![vec![1, 10], vec![1, 11], vec![2, 10]]));
        sys.load_base("courses", rel(vec![vec![10], vec![11]]));
        let expr = Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.rows(), &[vec![1]]);
    }

    #[test]
    fn logic_per_track_filter_reduces_staged_bytes() {
        use crate::storage::TrackFilter;
        use systolic_fabric::CompareOp;
        let mut sys = System::default_machine();
        sys.load_base("t", seq(0..100));
        let f = TrackFilter {
            col: 0,
            op: CompareOp::Lt,
            value: 10,
        };
        let expr = Expr::scan_filtered("t", f).dedup();
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        // Only the filtered rows were staged.
        assert_eq!(out.stats.bytes_from_disk, 10 * 2 * 4);
    }

    #[test]
    fn missing_relation_is_reported() {
        let mut sys = System::default_machine();
        let err = sys.run(&Expr::scan("ghost").dedup()).unwrap_err();
        assert!(matches!(err, MachineError::UnknownRelation { .. }));
    }

    #[test]
    fn no_matching_device_is_reported() {
        let mut sys = System::new(MachineConfig {
            devices: vec![(DeviceKind::Join, ArrayLimits::new(8, 8, 4))],
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..4));
        let err = sys.run(&Expr::scan("a").dedup()).unwrap_err();
        assert!(matches!(err, MachineError::NoDevice { .. }));
    }

    #[test]
    fn dead_staged_inputs_are_evicted_under_memory_pressure() {
        use systolic_storage::{ReplacerKind, StorageMetrics};
        // scan(a).dedup().union(scan(b)) compiles depth-first: by the time
        // `b` loads, the staged copy of `a` is dead (its only consumer, the
        // dedup, already ran). One module sized for exactly two 80-byte
        // relations forces the scheduler to reclaim that dead copy — before
        // eviction existed this plan failed with MemoryOverflow.
        let tight = || MachineConfig {
            memories: 1,
            memory_capacity: 160,
            ..MachineConfig::default()
        };
        let expr = Expr::scan("a").dedup().union(Expr::scan("b"));

        // Baseline: identical topology, capacity large enough to never
        // evict. Only the capacity check may differ between the two runs.
        let mut roomy = System::new(MachineConfig {
            memories: 1,
            memory_capacity: 64 << 20,
            ..MachineConfig::default()
        })
        .unwrap();
        roomy.load_base("a", seq(0..10));
        roomy.load_base("b", seq(10..20));
        let want = roomy.run(&expr).unwrap();

        for kind in [ReplacerKind::Clock, ReplacerKind::Lru] {
            let mut sys = System::new(tight()).unwrap();
            sys.set_staging_replacer(kind);
            sys.load_base("a", seq(0..10));
            sys.load_base("b", seq(10..20));
            let before = StorageMetrics::shared().staging_evictions.get();
            let out = sys.run(&expr).unwrap();
            let after = StorageMetrics::shared().staging_evictions.get();
            // Eviction is a host-side bookkeeping move: results and every
            // simulated clock must match the roomy machine bit for bit.
            assert_eq!(out.result.rows(), want.result.rows());
            assert_eq!(out.stats, want.stats);
            assert!(after > before, "no staging eviction counted ({kind:?})");
        }
    }

    #[test]
    fn live_inputs_are_never_evicted() {
        // Same tight module, but both relations stay live until the union:
        // nothing is dead when the second load overflows, so the run must
        // still fail rather than drop a live staged input.
        let mut sys = System::new(MachineConfig {
            memories: 1,
            memory_capacity: 160,
            ..MachineConfig::default()
        })
        .unwrap();
        sys.load_base("a", seq(0..10));
        sys.load_base("b", seq(10..30));
        let err = sys
            .run(&Expr::scan("a").union(Expr::scan("b")))
            .unwrap_err();
        assert!(matches!(err, MachineError::MemoryOverflow { .. }));
    }

    #[test]
    fn empty_configuration_is_rejected() {
        assert!(matches!(
            System::new(MachineConfig {
                memories: 0,
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
        assert!(matches!(
            System::new(MachineConfig {
                devices: vec![],
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
    }

    #[test]
    fn runs_are_deterministic() {
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..32));
            sys.load_base("b", seq(16..48));
            sys
        };
        let expr = Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]);
        let o1 = build().run(&expr).unwrap();
        let o2 = build().run(&expr).unwrap();
        assert_eq!(o1.stats, o2.stats);
        assert_eq!(o1.result.rows(), o2.result.rows());
        assert_eq!(o1.timeline.events(), o2.timeline.events());
    }

    #[test]
    fn repeated_runs_on_a_long_lived_system_are_bit_identical() {
        // The property a long-running query service depends on: because
        // every run accounts against fresh transient state, the Nth run of
        // a query on one machine equals the 1st run on a fresh machine.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        let expr = Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]);
        let other = Expr::scan("b").dedup();
        let first = sys.run(&expr).unwrap();
        // Interleave a different query, then repeat the original.
        sys.run(&other).unwrap();
        let again = sys.run(&expr).unwrap();
        assert_eq!(first.result.rows(), again.result.rows());
        assert_eq!(first.stats, again.stats);
        assert_eq!(first.timeline.events(), again.timeline.events());
    }

    /// Execute `plan` with every dependency level on exactly `threads`
    /// host threads (1 = inline), account it on fresh transient state, and
    /// return each precomputed device run's rows and stats with the
    /// outcome.
    fn run_on_threads(
        sys: &mut System,
        plan: &Plan,
        threads: usize,
    ) -> (Vec<(Vec<Row>, systolic_core::ExecStats)>, RunOutcome) {
        let records = sys.execute_steps(plan, Some(threads));
        let runs = records
            .iter()
            .filter_map(|r| match r {
                StepExec::Op(Some(Ok((out, stats)))) => Some((out.rows().to_vec(), *stats)),
                _ => None,
            })
            .collect();
        let mut t = sys.transient();
        (runs, sys.account(plan, &records, &mut t).unwrap())
    }

    /// Fan-out must be invisible to everything simulated: same device
    /// runs, result rows, RunStats, step cardinalities and Timeline, event
    /// for event, inline or on 2 or 4 threads, under either backend.
    fn assert_fan_out_is_invisible(mut build: impl FnMut(Backend) -> System, plan: &Plan) {
        for backend in [Backend::Sim, Backend::Columnar] {
            let (inline_runs, inline) = run_on_threads(&mut build(backend), plan, 1);
            assert!(
                inline_runs.len() >= 2,
                "the plan has device runs to fan out"
            );
            for threads in [2, 4] {
                let (runs, fanned) = run_on_threads(&mut build(backend), plan, threads);
                let label = format!("{backend} on {threads} threads");
                assert_eq!(runs, inline_runs, "{label}");
                assert_eq!(fanned.result.rows(), inline.result.rows(), "{label}");
                assert_eq!(fanned.stats, inline.stats, "{label}");
                assert_eq!(fanned.step_rows, inline.step_rows, "{label}");
                assert_eq!(
                    fanned.timeline.events(),
                    inline.timeline.events(),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn host_parallel_plans_are_bit_identical_to_sequential() {
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..64));
            sys.load_base("b", seq(32..96));
            sys.load_base("c", seq(100..164));
            sys.load_base("d", seq(132..196));
            sys
        };
        let expr = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("c").intersect(Expr::scan("d")))
            .project(vec![0]);
        assert_fan_out_is_invisible(build, &Plan::compile(&expr));
    }

    #[test]
    fn host_parallel_batches_are_bit_identical_to_sequential() {
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..32));
            sys.load_base("b", seq(16..48));
            sys.load_base("c", seq(100..132));
            sys
        };
        let plans: Vec<Plan> = [
            Expr::scan("a").intersect(Expr::scan("b")),
            Expr::scan("a").difference(Expr::scan("b")),
            Expr::scan("c").dedup(),
        ]
        .iter()
        .map(Plan::compile)
        .collect();
        let (merged, _) = System::merge_plans(&plans);
        assert_fan_out_is_invisible(build, &merged);
    }

    #[test]
    fn heterogeneous_device_limits_fall_back_to_inline_execution() {
        // Two set-op devices with different limits: the scheduler cannot
        // precompute (the result depends on which device is picked), so
        // even a forced fan-out must defer to accounting — and still match
        // the inline run exactly.
        let build = || {
            let mut sys = System::new(MachineConfig {
                devices: vec![
                    (DeviceKind::SetOp, ArrayLimits::new(8, 8, 4)),
                    (DeviceKind::SetOp, ArrayLimits::new(16, 16, 4)),
                    (DeviceKind::Join, ArrayLimits::new(8, 8, 4)),
                    (DeviceKind::Divide, ArrayLimits::new(8, 8, 4)),
                ],
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..48));
            sys.load_base("b", seq(24..72));
            sys
        };
        let plan = Plan::compile(&Expr::scan("a").intersect(Expr::scan("b")).project(vec![0]));
        let (inline_runs, inline) = run_on_threads(&mut build(), &plan, 1);
        let (runs, fanned) = run_on_threads(&mut build(), &plan, 4);
        assert!(
            runs.is_empty() && inline_runs.is_empty(),
            "nothing precomputed"
        );
        assert_eq!(fanned.result.rows(), inline.result.rows());
        assert_eq!(fanned.stats, inline.stats);
        assert_eq!(fanned.timeline.events(), inline.timeline.events());
    }

    #[test]
    fn the_fan_out_gate_splits_the_served_workload_shapes() {
        // Paired 2048-row projections of a fact table fan out; levels
        // whose largest job stages 96+96 or 96+32 rows run inline, and so
        // does a lone job however large.
        assert!(fans_out(&[2048, 2048]));
        assert!(!fans_out(&[96 + 96, 96 + 96]));
        assert!(!fans_out(&[96 + 32, 96 + 32, 96 + 32]));
        assert!(!fans_out(&[2048 + 64]));
        assert!(!fans_out(&[]));
        // The gated path itself, on a level the gate fans out.
        let build = || {
            let mut sys = System::new(MachineConfig {
                backend: Backend::Columnar,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base(
                "fact",
                rel((0..2048).map(|i| vec![i % 97, i % 89]).collect()),
            );
            sys
        };
        let expr = Expr::scan("fact")
            .project(vec![0])
            .intersect(Expr::scan("fact").project(vec![1]));
        let gated = build().run(&expr).unwrap();
        let (_, inline) = run_on_threads(&mut build(), &Plan::compile(&expr), 1);
        assert_eq!(gated.result.rows(), inline.result.rows());
        assert_eq!(gated.stats, inline.stats);
        assert_eq!(gated.timeline.events(), inline.timeline.events());
    }

    #[test]
    fn run_jobs_returns_results_in_job_order() {
        for threads in [1, 2, 8] {
            let out = run_jobs(threads, 37, |k| k * k);
            assert_eq!(out, (0..37).map(|k| k * k).collect::<Vec<_>>(), "{threads}");
        }
        assert!(run_jobs(4, 0, |k| k).is_empty());
        assert_eq!(run_jobs(4, 1, |k| k + 10), vec![10]);
    }

    #[test]
    fn batch_of_transactions_runs_and_returns_per_query_results() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        sys.load_base("c", seq(100..132));
        let q0 = Expr::scan("a").intersect(Expr::scan("b"));
        let q1 = Expr::scan("a").difference(Expr::scan("b"));
        let q2 = Expr::scan("c").dedup();
        let (results, outcome) = sys.run_batch(&[q0, q1, q2]).unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].len(), 16);
        assert_eq!(results[1].len(), 16);
        assert_eq!(results[2].len(), 32);
        assert!(outcome.stats.makespan_ns > 0);
    }

    #[test]
    fn independent_batch_queries_overlap_on_devices() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..64));
        sys.load_base("b", seq(32..96));
        sys.load_base("c", seq(200..264));
        sys.load_base("d", seq(232..296));
        let q0 = Expr::scan("a").intersect(Expr::scan("b"));
        let q1 = Expr::scan("c").intersect(Expr::scan("d"));
        let (_, outcome) = sys.run_batch(&[q0, q1]).unwrap();
        assert!(
            outcome.stats.max_device_concurrency >= 2,
            "independent transactions should overlap, got {}",
            outcome.stats.max_device_concurrency
        );
    }

    #[test]
    fn batch_results_match_individual_runs() {
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..24));
            sys.load_base("b", seq(12..36));
            sys
        };
        let q0 = Expr::scan("a").union(Expr::scan("b"));
        let q1 = Expr::scan("b").project(vec![0]);
        let (batch, _) = build().run_batch(&[q0.clone(), q1.clone()]).unwrap();
        let solo0 = build().run(&q0).unwrap().result;
        let solo1 = build().run(&q1).unwrap().result;
        assert!(batch[0].set_eq(&solo0));
        assert!(batch[1].set_eq(&solo1));
    }

    #[test]
    fn batched_accounting_is_bit_identical_to_fresh_solo_runs() {
        // The admission-scheduler contract: each QueryOutcome of a batch —
        // rows, RunStats, Timeline — equals running that query alone on a
        // freshly built machine, regardless of batch companions.
        let build = || {
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..64));
            sys.load_base("b", seq(32..96));
            sys.load_base("c", seq(200..264));
            sys
        };
        let queries = [
            Expr::scan("a").intersect(Expr::scan("b")),
            Expr::scan("c").dedup().project(vec![0]),
            Expr::scan("a").union(Expr::scan("c")),
        ];
        let batch = build().run_batch_accounted(&queries).unwrap();
        assert_eq!(batch.queries.len(), queries.len());
        for (q, expr) in batch.queries.iter().zip(&queries) {
            let solo = build().run(expr).unwrap();
            assert_eq!(q.result.rows(), solo.result.rows());
            assert_eq!(q.stats, solo.stats);
            assert_eq!(q.timeline.events(), solo.timeline.events());
        }
        assert!(batch.combined.stats.makespan_ns > 0);
    }

    #[test]
    fn batch_with_unknown_relation_fails_as_a_whole() {
        // The merged schedule aborts on the first failing step; callers that
        // want per-query error isolation fall back to solo runs.
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..8));
        let good = Expr::scan("a").dedup();
        let bad = Expr::scan("ghost").dedup();
        let err = sys.run_batch(&[good, bad]).unwrap_err();
        assert!(matches!(err, MachineError::UnknownRelation { .. }));
    }

    #[test]
    fn timeline_pulse_totals_equal_run_stats_exactly() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..40));
        sys.load_base("b", seq(20..60));
        sys.load_base("c", seq(0..10));
        let expr = Expr::scan("a")
            .intersect(Expr::scan("b"))
            .union(Expr::scan("c"));
        let out = sys.run(&expr).unwrap();
        assert!(out.stats.total_pulses > 0);
        assert_eq!(out.timeline.pulse_total(), out.stats.total_pulses);
        for e in out.timeline.events() {
            let device = e.resource.starts_with("setop")
                || e.resource.starts_with("join")
                || e.resource.starts_with("divide");
            if !device {
                assert_eq!(e.pulses, 0, "non-array event {e:?} must carry no pulses");
            }
        }
    }

    #[test]
    fn batch_pulse_totals_match_per_query_and_combined_stats() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..32));
        sys.load_base("b", seq(16..48));
        sys.load_base("c", seq(0..24));
        let batch = sys
            .run_batch_accounted(&[
                Expr::scan("a").intersect(Expr::scan("b")),
                Expr::scan("c").dedup(),
            ])
            .unwrap();
        assert_eq!(
            batch.combined.timeline.pulse_total(),
            batch.combined.stats.total_pulses
        );
        for q in &batch.queries {
            assert_eq!(q.timeline.pulse_total(), q.stats.total_pulses);
        }
        assert_eq!(
            batch.combined.stats.total_pulses,
            batch
                .queries
                .iter()
                .map(|q| q.stats.total_pulses)
                .sum::<u64>(),
            "merged schedule reuses the very same device runs"
        );
    }

    #[test]
    fn machine_spans_nest_under_the_batch() {
        // The only test in this binary that installs a span collector, so
        // the process-global collector is not contended.
        let collector = telemetry::install();
        let trace_id = {
            let root = telemetry::root_span("test.root");
            let ctx = root.ctx().unwrap();
            let mut sys = System::default_machine();
            sys.load_base("a", seq(0..16));
            sys.load_base("b", seq(8..24));
            sys.run_batch_accounted(&[
                Expr::scan("a").intersect(Expr::scan("b")),
                Expr::scan("a").dedup(),
            ])
            .unwrap();
            ctx.trace_id
        };
        let spans = collector.drain();
        telemetry::uninstall();
        let ours: Vec<_> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        let batch = ours
            .iter()
            .find(|s| s.name == "machine.batch")
            .expect("batch span recorded");
        assert_eq!(batch.arg("queries"), Some("2"));
        for phase in ["machine.plan", "machine.execute", "machine.account"] {
            let sp = ours
                .iter()
                .find(|s| s.name == phase)
                .unwrap_or_else(|| panic!("{phase} span recorded"));
            assert_eq!(sp.parent_id, Some(batch.span_id), "{phase} nests in batch");
            assert!(sp.start_ns >= batch.start_ns && sp.end_ns <= batch.end_ns);
        }
        let solos = ours
            .iter()
            .filter(|s| s.name == "machine.account_solo")
            .count();
        assert_eq!(solos, 2, "one standalone accounting per query");
    }

    #[test]
    fn gantt_chart_renders() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..16));
        sys.load_base("b", seq(8..24));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        let gantt = out.timeline.render_gantt(out.stats.makespan_ns / 60 + 1);
        assert!(gantt.contains("disk"));
        assert!(gantt.contains("setop0"));
    }

    #[test]
    fn multiple_disks_load_in_parallel() {
        let run_with = |disks: usize| {
            let mut sys = System::new(MachineConfig {
                disks,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..512));
            sys.load_base("b", seq(256..768));
            sys.run(&Expr::scan("a").intersect(Expr::scan("b")))
                .unwrap()
        };
        let one = run_with(1);
        let two = run_with(2);
        assert!(one.result.set_eq(&two.result));
        // With two disks the two loads overlap; the load phase ends sooner.
        let load_end = |o: &RunOutcome| {
            o.timeline
                .events()
                .iter()
                .filter(|e| e.resource.starts_with("disk"))
                .map(|e| e.end_ns)
                .max()
                .unwrap()
        };
        assert!(
            load_end(&two) < load_end(&one),
            "parallel loads should finish earlier: {} vs {}",
            load_end(&two),
            load_end(&one)
        );
    }

    #[test]
    fn select_expression_runs_on_a_setop_device() {
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;
        let mut sys = System::default_machine();
        sys.load_base("t", seq(0..50));
        let expr = Expr::scan("t").select(vec![Predicate::new(0, CompareOp::Lt, 10)]);
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        assert!(out
            .timeline
            .events()
            .iter()
            .any(|e| e.resource.starts_with("setop") && e.label.contains("select")));
    }

    #[test]
    fn store_writes_the_result_back_to_disk() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..20));
        sys.load_base("b", seq(10..30));
        let expr = Expr::scan("a").intersect(Expr::scan("b")).store("a_and_b");
        let out = sys.run(&expr).unwrap();
        assert_eq!(out.result.len(), 10);
        // The written-back relation is now scannable as a base relation.
        let again = sys.run(&Expr::scan("a_and_b").dedup()).unwrap();
        assert!(again.result.set_eq(&out.result));
        // The write-back occupied a disk channel.
        assert!(out
            .timeline
            .events()
            .iter()
            .any(|e| e.resource.starts_with("disk") && e.label.contains("write a_and_b")));
    }

    #[test]
    fn shared_bus_serialises_what_the_crossbar_overlaps() {
        let run_with = |interconnect: Interconnect| {
            let mut sys = System::new(MachineConfig {
                interconnect,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..64));
            sys.load_base("b", seq(32..96));
            sys.load_base("c", seq(200..264));
            sys.load_base("d", seq(232..296));
            let expr = Expr::scan("a")
                .intersect(Expr::scan("b"))
                .union(Expr::scan("c").intersect(Expr::scan("d")));
            sys.run(&expr).unwrap()
        };
        let xbar = run_with(Interconnect::Crossbar);
        let bus = run_with(Interconnect::SharedBus);
        assert!(
            xbar.result.set_eq(&bus.result),
            "interconnect cannot change results"
        );
        assert!(xbar.stats.max_device_concurrency >= 2);
        assert_eq!(
            bus.stats.max_device_concurrency, 1,
            "one bus, one transfer at a time"
        );
        assert!(bus.stats.makespan_ns > xbar.stats.makespan_ns);
    }

    #[test]
    fn resource_report_covers_every_used_resource() {
        let mut sys = System::default_machine();
        sys.load_base("a", seq(0..16));
        sys.load_base("b", seq(8..24));
        let out = sys
            .run(&Expr::scan("a").intersect(Expr::scan("b")))
            .unwrap();
        let report = out.resource_report();
        assert!(report.iter().any(|(n, _, _)| n == "disk0"));
        assert!(report.iter().any(|(n, _, _)| n == "setop0"));
        for (name, busy, frac) in &report {
            assert!(*busy > 0, "{name} appears in the timeline, so it was busy");
            assert!((0.0..=1.0).contains(frac), "{name} fraction {frac}");
        }
    }

    #[test]
    fn selection_pushdown_reduces_staged_bytes_without_changing_results() {
        use crate::plan::push_selections;
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;
        let query = || {
            Expr::scan("t")
                .select(vec![Predicate::new(0, CompareOp::Lt, 10)])
                .dedup()
        };
        let run = |expr: Expr| {
            let mut sys = System::default_machine();
            sys.load_base("t", seq(0..100));
            sys.run(&expr).unwrap()
        };
        let plain = run(query());
        let optimised = run(push_selections(query()));
        assert!(plain.result.set_eq(&optimised.result));
        assert!(
            optimised.stats.bytes_from_disk < plain.stats.bytes_from_disk,
            "pushdown must stage fewer bytes: {} vs {}",
            optimised.stats.bytes_from_disk,
            plain.stats.bytes_from_disk
        );
    }

    #[test]
    fn columnar_backend_runs_are_bit_identical_to_sim() {
        // The tentpole invariant at the machine layer: same result rows,
        // same RunStats, same Timeline event for event — the backend is
        // invisible to everything the paper measures.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            sys.load_base("a", seq(0..48));
            sys.load_base("b", seq(24..72));
            sys.load_base("takes", rel(vec![vec![1, 10], vec![1, 11], vec![2, 10]]));
            sys.load_base("courses", rel(vec![vec![10, 0], vec![11, 0]]));
            sys
        };
        let exprs = [
            Expr::scan("a")
                .intersect(Expr::scan("b"))
                .union(Expr::scan("a").difference(Expr::scan("b")))
                .project(vec![0]),
            Expr::scan("a").join(Expr::scan("b"), vec![JoinSpec::eq(0, 0)]),
            Expr::scan("takes").divide(Expr::scan("courses"), 0, 1, 0),
        ];
        let backend = Backend::Columnar;
        for expr in &exprs {
            let sim = build(Backend::Sim).run(expr).unwrap();
            let fast = build(backend).run(expr).unwrap();
            assert_eq!(fast.result.rows(), sim.result.rows());
            assert_eq!(fast.stats, sim.stats);
            assert_eq!(fast.timeline.events(), sim.timeline.events());
        }
        // And batched: the merged schedule and every standalone
        // accounting.
        let queries = [exprs[0].clone(), exprs[1].clone()];
        let sim = build(Backend::Sim).run_batch_accounted(&queries).unwrap();
        let fast = build(backend).run_batch_accounted(&queries).unwrap();
        assert_eq!(fast.combined.stats, sim.combined.stats);
        assert_eq!(
            fast.combined.timeline.events(),
            sim.combined.timeline.events()
        );
        for (f, s) in fast.queries.iter().zip(&sim.queries) {
            assert_eq!(f.result.rows(), s.result.rows());
            assert_eq!(f.stats, s.stats);
            assert_eq!(f.timeline.events(), s.timeline.events());
        }
    }

    #[test]
    fn columnar_batches_fuse_shared_operand_scans_without_observable_change() {
        use systolic_core::select::Predicate;
        use systolic_fabric::CompareOp;

        // A batch where several queries share operand relations: two
        // track-filtered loads of `emp` (fused into one disk scan), two
        // on-device selections over unfiltered `emp` clones (fused into
        // one word-plane pass), and one selection over `dept` that must
        // not join either group.
        let build = |backend: Backend| {
            let mut sys = System::new(MachineConfig {
                backend,
                ..MachineConfig::default()
            })
            .unwrap();
            let emp: Vec<Vec<i64>> = (0..60).map(|i| vec![i, i % 7]).collect();
            let dept: Vec<Vec<i64>> = (0..20).map(|i| vec![i, i % 3]).collect();
            sys.load_base("emp", rel(emp));
            sys.load_base("dept", rel(dept));
            sys
        };
        let queries = [
            Expr::scan_filtered(
                "emp",
                TrackFilter {
                    col: 0,
                    op: CompareOp::Ge,
                    value: 40,
                },
            ),
            Expr::scan_filtered(
                "emp",
                TrackFilter {
                    col: 1,
                    op: CompareOp::Lt,
                    value: 3,
                },
            ),
            Expr::scan("emp").select(vec![
                Predicate::new(0, CompareOp::Lt, 30),
                Predicate::new(1, CompareOp::Ne, 2),
            ]),
            Expr::scan("emp").select(vec![Predicate::new(1, CompareOp::Ge, 5)]),
            Expr::scan("dept").select(vec![Predicate::new(1, CompareOp::Eq, 0)]),
        ];
        let before = (
            machine_counters().fused_batches.get(),
            machine_counters().fused_steps.get(),
        );
        let sim = build(Backend::Sim).run_batch_accounted(&queries).unwrap();
        let columnar = build(Backend::Columnar)
            .run_batch_accounted(&queries)
            .unwrap();
        // The fused scans really ran: the two shared-`emp` loads and the
        // two shared-`emp` selects each form one batch (counters are
        // global, so concurrent tests may add more on top).
        if systolic_telemetry::metrics::metrics_enabled() {
            assert!(
                machine_counters().fused_batches.get() >= before.0 + 2,
                "expected at least two fused batches"
            );
            assert!(
                machine_counters().fused_steps.get() >= before.1 + 4,
                "expected at least four fused steps"
            );
        }
        assert_eq!(columnar.combined.stats, sim.combined.stats);
        assert_eq!(
            columnar.combined.timeline.events(),
            sim.combined.timeline.events()
        );
        for (c, s) in columnar.queries.iter().zip(&sim.queries) {
            assert_eq!(c.result.rows(), s.result.rows());
            assert_eq!(c.stats, s.stats);
            assert_eq!(c.timeline.events(), s.timeline.events());
        }
        // The batch was not degenerate: every query delivered rows.
        for q in &sim.queries {
            assert!(!q.result.is_empty());
        }
    }

    #[test]
    fn zero_disks_rejected() {
        assert!(matches!(
            System::new(MachineConfig {
                disks: 0,
                ..MachineConfig::default()
            }),
            Err(MachineError::EmptyConfiguration)
        ));
    }
}
