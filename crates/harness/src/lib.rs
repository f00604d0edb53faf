//! Parallel experiment orchestration for the EBCP reproduction.
//!
//! The harness sits between the simulator (`ebcp-sim`) and the
//! experiment drivers (`ebcp-bench`). Drivers describe work as
//! content-addressed [`Cell`]s — a single-core [`Job`] (`RunSpec` ×
//! `PrefetcherSpec`) or a multi-core [`CmpJob`] (`CmpSpec` ×
//! `PrefetcherSpec`) — and submit batches to a [`Harness`]. Both kinds
//! share one lifecycle ([`Harness::run_outcomes`]), which:
//!
//! - **deduplicates** by content hash, so the no-prefetch baseline a
//!   dozen figures share runs exactly once per workload;
//! - **caches** results in an in-process memo and on disk
//!   ([`ResultStore`]), making re-runs incremental across processes;
//! - **parallelizes** across a `std::thread` worker pool, running every
//!   cell two-phase: one `Arc`-shared pre-resolved L1 event stream per
//!   `(workload, seed, length, L1 geometry)` feeds back-end-only
//!   replays, so a prefetcher sweep pays the front-end cost once per
//!   workload (streams are built by chunked generation — constant
//!   memory — and disk-cached under `preres/`). Single-core jobs that
//!   share a stream replay in lockstep; a CMP cell feeds each core's
//!   stream to the discrete-event engine;
//! - **reports** progress and throughput over a telemetry channel,
//!   republishing every event on a harness-lifetime [`EventBus`] (the
//!   seam the sweep service streams live telemetry through), and writes
//!   machine-readable artifacts: a *deterministic* `results.json`
//!   (byte-identical for any worker count, cache state, or transport —
//!   see [`results_doc`]) and a volatile `telemetry.json` (timings,
//!   rates, cache provenance);
//! - **isolates faults**: a cell whose simulation panics is caught
//!   ([`std::panic::catch_unwind`]), retried once, and — if it fails
//!   again — recorded as [`Outcome::Failed`] without disturbing its
//!   siblings, whose results stay cached; corrupt cache entries are
//!   quarantined (`*.corrupt`) and transparently re-run (self-heal).
//!
//! Results come back in submission order and are bit-identical for any
//! worker count: the simulator is deterministic and assembly never
//! depends on completion order.
//!
//! [`Harness::run`] is the strict entry point: any failed cell makes it
//! panic with a summary naming the failed cells (after the whole batch
//! has executed, so sibling results are already memoized and cached).
//! [`Harness::run_outcomes`] is the keep-going entry point: it returns
//! one [`Outcome`] per submitted cell and never panics on cell failure.
//!
//! # Examples
//!
//! ```
//! use ebcp_harness::{Harness, Job};
//! use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
//! use ebcp_trace::WorkloadSpec;
//!
//! let spec = RunSpec {
//!     workload: WorkloadSpec::database().scaled(1, 32),
//!     seed: 7,
//!     warmup_insts: 20_000,
//!     measure_insts: 20_000,
//!     sim: SimConfig::scaled_down(16),
//! };
//! let h = Harness::serial();
//! // The duplicate baseline collapses: two results, one simulation.
//! let jobs =
//!     vec![Job::new(spec.clone(), PrefetcherSpec::None), Job::new(spec, PrefetcherSpec::None)];
//! let results = h.run(&jobs);
//! assert_eq!(results[0], results[1]);
//! assert_eq!(h.summary().executed, 1);
//! ```

pub mod cmp;
pub mod job;
pub mod json;
pub mod preres;
pub mod queue;
pub mod scale;
pub mod source;
pub mod store;
pub mod telemetry;
pub mod traces;

use std::collections::{hash_map, HashMap, VecDeque};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use ebcp_sim::frontend::PreResolved;
use ebcp_sim::{lockstep_lanes, replay_blocks, run_stream_pipeline, ReplayTarget};
use ebcp_sim::{CmpResult, Engine, PrefetcherSpec, SimResult};
use ebcp_trace::{Backing, ChunkSource, TraceGenerator};

pub use crate::cmp::{CmpJob, CMP_CANON_VERSION};
pub use crate::job::{fnv1a64, Job, JobId};
pub use crate::json::Value;
pub use crate::queue::{JobService, QueueConfig, ServiceStatus, SubmitError};
pub use crate::scale::Scale;
pub use crate::source::{
    est_pre_bytes, seg_records_for_budget, streamed_peak_bytes, DEFAULT_MEM_BUDGET_BYTES,
};
pub use crate::store::{
    store_footprint, CacheRead, ResultStore, StoreClassFootprint, StoreFootprint,
};
pub use crate::telemetry::{Event, EventBus, Progress, ResultSource, RunSummary};

/// Poison-recovering lock. A panic inside a worker is caught and
/// converted to an [`Outcome::Failed`], but if one ever unwinds while
/// a guard is held (e.g. out of a hook the catch does not cover), the
/// mutex is *poisoned* — and the data it protects (queues of indices,
/// append-only output slots, counters) is still perfectly valid: no
/// invariant spans a critical section here. Recovering instead of
/// propagating keeps one crashed job from aborting the whole sweep.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Renders a caught panic payload (the `panic!` message when it was a
/// string, which it practically always is).
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// Reports a quarantined cache file from a worker; the submitting
/// thread counts it and republishes it on the bus.
fn report_quarantine(tx: &mpsc::Sender<Event>, path: &Path, reason: String) {
    let path = path.display().to_string();
    let _ = tx.send(Event::CacheQuarantined { path, reason });
}

/// Builds `job`'s pre-resolved stream under `dir` from `src` while
/// `target` replays it (see [`run_stream_pipeline`]), publishes it, and
/// returns `target` once the published file verifies.
///
/// # Panics
///
/// Panics on a write failure, a panic in `src`, or a published stream
/// that fails to verify; the writer's temp file is removed on the way
/// out.
fn build_stream<T: ReplayTarget>(
    dir: &Path,
    job: &Job,
    seg_records: u64,
    src: &mut (dyn ChunkSource + Send),
    target: T,
) -> T {
    let mut writer =
        preres::PreresWriter::create(dir, job, seg_records).expect("preres stream writer");
    let target = run_stream_pipeline(&job.spec, src, seg_records, target, &mut writer)
        .expect("preres stream write");
    writer.finish().expect("preres stream publish");
    expect_verified(dir, job);
    target
}

/// Reopens `job`'s freshly published stream under `dir`, panicking with
/// the path and the reason unless it verifies.
fn expect_verified(dir: &Path, job: &Job) {
    match preres::open_stream_checked(dir, job) {
        CacheRead::Hit(_) => {}
        CacheRead::Miss => panic!(
            "freshly written pre-resolved stream {} failed to verify: Miss",
            preres::path_for(dir, job).display()
        ),
        CacheRead::Quarantined { path, reason } => panic!(
            "freshly written pre-resolved stream failed to verify: Quarantined to {}: {reason}",
            path.display()
        ),
    }
}

/// The worker pool: `workers` scoped threads drain the indices `0..n`
/// in FIFO order, each running `work(state, i)` with its own clone of
/// `state`. The submitting thread runs `on_main` meanwhile, after the
/// original `state` is dropped — so a channel sender passed as `state`
/// disconnects exactly when the last worker exits. Outputs come back in
/// index order.
fn work_queue<S, R>(
    workers: usize,
    n: usize,
    state: S,
    work: impl Fn(&S, usize) -> R + Sync,
    on_main: impl FnOnce(),
) -> Vec<R>
where
    S: Clone + Send,
    R: Send,
{
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
    let outputs: Mutex<Vec<Option<R>>> =
        Mutex::new(std::iter::repeat_with(|| None).take(n).collect());
    std::thread::scope(|s| {
        for _ in 0..workers {
            let (state, queue, outputs, work) = (state.clone(), &queue, &outputs, &work);
            s.spawn(move || loop {
                let Some(i) = lock(queue).pop_front() else {
                    break;
                };
                let r = work(&state, i);
                lock(outputs)[i] = Some(r);
            });
        }
        drop(state);
        on_main();
    });
    outputs
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("worker completed every queued item"))
        .collect()
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<R> {
    /// Simulated (or served from a cache) successfully.
    Ok(R),
    /// First attempt panicked; the retry succeeded. The result is as
    /// trustworthy as an [`Outcome::Ok`] one — the simulator is
    /// deterministic, so a one-shot panic means external interference
    /// (e.g. a blown fault-injection fuse), not flakiness in the result.
    Retried(R),
    /// Both attempts panicked. The cell is memoized as failed — it will
    /// not be retried by later batches — and nothing was cached.
    Failed {
        /// The second attempt's panic message.
        reason: String,
    },
}

impl<R> Outcome<R> {
    /// The result, unless the cell failed.
    pub const fn result(&self) -> Option<&R> {
        match self {
            Outcome::Ok(r) | Outcome::Retried(r) => Some(r),
            Outcome::Failed { .. } => None,
        }
    }

    /// The failure reason, if the cell failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            Outcome::Failed { reason } => Some(reason),
            _ => None,
        }
    }

    /// True for [`Outcome::Failed`].
    pub const fn is_failed(&self) -> bool {
        matches!(self, Outcome::Failed { .. })
    }
}

/// How a single-core [`Job`] ended.
pub type JobOutcome = Outcome<SimResult>;

/// How a multi-core [`CmpJob`] ended.
pub type CmpOutcome = Outcome<CmpResult>;

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::Job {}
    impl Sealed for crate::CmpJob {}
}

/// A content-addressed unit of harness work: a single-core [`Job`] or a
/// multi-core [`CmpJob`]. Everything that differs between the two
/// — identity, store entry shape, which memo holds the outcome and how
/// one unit executes — lives here; the lifecycle around it (dedup,
/// memo, disk, pool, retry, telemetry) is [`Harness::run_outcomes`].
///
/// Sealed: the harness's scheduling and cache invariants are only
/// proven for these two kinds.
pub trait Cell: sealed::Sealed + std::fmt::Debug + PartialEq + Sync {
    /// What one successful run produces.
    type Result: Clone + Send;
    /// On-disk schema version of the cell's store entries.
    const SCHEMA: u64;
    /// Store entry file-name suffix after the id (`.json`, `.cmp.json`).
    const SUFFIX: &'static str;

    /// The canonical string stored with the entry (collision guard).
    fn canonical(&self) -> String;
    /// Content hash over [`Cell::canonical`].
    fn id(&self) -> JobId {
        JobId(fnv1a64(self.canonical().as_bytes()))
    }
    /// Short human label for telemetry and failure summaries.
    fn label(&self) -> String;
    /// Trace records the cell consumes, across all cores.
    fn records(&self) -> u64;
    /// `(workload or CMP cell name, prefetcher, cores of a CMP cell)`:
    /// the identity columns of the cell's `results.json` row.
    fn row_names(&self) -> (String, String, Option<u64>);
    /// Encodes a result for the store and `results.json`.
    fn encode(r: &Self::Result) -> Value;
    /// Decodes [`Cell::encode`]'s output; `None` on any malformed field.
    fn decode(v: &Value) -> Option<Self::Result>;
    #[doc(hidden)]
    /// The memo this kind of cell lives in.
    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, Outcome<Self::Result>>>;
    #[doc(hidden)]
    /// A reason to fail the cell up front, before any cache or run.
    fn reject(&self) -> Option<String> {
        None
    }
    #[doc(hidden)]
    /// Partitions pending cells into execution units (indices into
    /// `cells`, first-submission order); by default one cell per unit.
    fn units(cells: &[&Self], _lockstep: bool) -> Vec<Vec<usize>> {
        (0..cells.len()).map(|i| vec![i]).collect()
    }
    #[doc(hidden)]
    /// One attempt at one cell. Panics propagate to the caller's
    /// `catch_unwind`.
    fn run(&self, h: &Harness, per_worker: u64, tx: &mpsc::Sender<Event>) -> Self::Result;
    #[doc(hidden)]
    /// First attempts for a multi-cell unit, one entry per member.
    fn run_lockstep(
        unit: &[&Self],
        h: &Harness,
        per_worker: u64,
        tx: &mpsc::Sender<Event>,
    ) -> Vec<Result<Self::Result, String>> {
        unit.iter().map(|c| Ok(c.run(h, per_worker, tx))).collect()
    }
}

impl Cell for Job {
    type Result = SimResult;
    const SCHEMA: u64 = store::SCHEMA;
    const SUFFIX: &'static str = ".json";

    fn canonical(&self) -> String {
        Job::canonical(self)
    }
    fn label(&self) -> String {
        Job::label(self)
    }
    fn records(&self) -> u64 {
        Job::records(self)
    }
    fn row_names(&self) -> (String, String, Option<u64>) {
        (self.spec.workload.name.clone(), self.pf.name(), None)
    }
    fn encode(r: &SimResult) -> Value {
        store::result_to_json(r)
    }
    fn decode(v: &Value) -> Option<SimResult> {
        store::result_from_json(v)
    }
    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, JobOutcome>> {
        &h.memo
    }

    /// A single-core `Job` over a CMP *per-core* workload is a
    /// capability mismatch, not a queueing problem: its trace lives in
    /// one core's private address space and only means something
    /// interleaved with its co-runners through the shared L2 — which is
    /// what a [`CmpJob`] runs. Reject with a precise error naming the
    /// routing fix instead of quietly simulating a meaningless
    /// single-core run. The rejection is memoized like any other
    /// failure and never disk-cached.
    fn reject(&self) -> Option<String> {
        let w = &self.spec.workload;
        (w.addr_space != 0).then(|| {
            format!(
                "single-core Job cannot represent CMP per-core workload '{}' (addr_space {}): \
                 submit the whole cell as a CmpJob via Harness::run, which routes it through \
                 the discrete-event CMP engine",
                w.name, w.addr_space
            )
        })
    }

    /// With `lockstep`, groups jobs that share one pre-resolved stream
    /// AND one full `RunSpec` into lockstep units: one replay pass over
    /// the shared event stream drives all their prefetcher lanes
    /// (`ebcp_sim::Lockstep`). Unit order follows first-member
    /// submission order; members keep submission order, so results stay
    /// deterministic.
    fn units(cells: &[&Job], lockstep: bool) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut by_key: HashMap<u64, Vec<usize>> = HashMap::new();
        for (idx, job) in cells.iter().enumerate() {
            let candidates = by_key.entry(job.pre_key()).or_default();
            // The pre-key covers workload/seed/length/L1; lanes must
            // also agree on the rest of the machine (`SimConfig`).
            match candidates
                .iter()
                .find(|&&u| lockstep && cells[units[u][0]].spec == job.spec)
            {
                Some(&u) => units[u].push(idx),
                None => {
                    candidates.push(units.len());
                    units.push(vec![idx]);
                }
            }
        }
        units
    }

    /// Front end (shared, disk-cached) + back-end replay — or, when the
    /// stream would not fit the worker's budget share, the
    /// bounded-memory streamed path.
    fn run(&self, h: &Harness, per_worker: u64, tx: &mpsc::Sender<Event>) -> SimResult {
        if let Some(seg_records) = h.stream_plan(self, per_worker) {
            let engine = Engine::new(self.spec.sim, self.pf.build());
            return h
                .run_streamed(self, seg_records, engine, tx)
                .result(&self.spec.workload.name);
        }
        self.spec.run_preresolved(&h.warm_pre(self, tx), &self.pf)
    }

    /// One lockstep pass over the lead's stream drives every lane.
    /// `Lockstep` catches per-lane panics itself, so a faulting lane
    /// surfaces as its own `Err`.
    fn run_lockstep(
        unit: &[&Job],
        h: &Harness,
        per_worker: u64,
        tx: &mpsc::Sender<Event>,
    ) -> Vec<Result<SimResult, String>> {
        let lead = unit[0];
        let pfs: Vec<PrefetcherSpec> = unit.iter().map(|j| j.pf.clone()).collect();
        if let Some(seg_records) = h.stream_plan(lead, per_worker) {
            // One streamed pass drives every lane — lockstep
            // amortization at bounded memory, with or without a store.
            let group = lockstep_lanes(&lead.spec, &pfs);
            return h
                .run_streamed(lead, seg_records, group, tx)
                .results(&lead.spec.workload.name);
        }
        lead.spec.run_preresolved_many(&h.warm_pre(lead, tx), &pfs)
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Per-process memory budget, split evenly across concurrent
    /// workers. A job whose estimated pre-resolved stream
    /// ([`est_pre_bytes`]) fits its worker's share replays a
    /// materialized, shared stream; a larger one runs the streamed
    /// tier, with segments sized by [`seg_records_for_budget`]. Traces
    /// themselves are never materialized: streams are built by chunked
    /// generation.
    pub mem_budget_bytes: u64,
    /// On-disk result store directory; `None` disables caching.
    pub store_dir: Option<PathBuf>,
    /// Render the live progress line on stderr.
    pub progress: bool,
    /// Replay jobs that share a pre-resolved stream *and* a full
    /// `RunSpec` in lockstep: one pass over the shared event stream
    /// drives all their prefetcher lanes ([`ebcp_sim::Lockstep`]),
    /// amortizing event decode and gap collapse across the sweep.
    /// Results are byte-identical to the serial per-job path (that is
    /// tested, not assumed); a lane that panics is retried serially and
    /// fails alone. Disable to force the one-job-per-replay path.
    pub lockstep: bool,
    /// Keep generated traces on disk in the segmented binary format
    /// (`traces/` under the store directory) and replay them through
    /// mmap'd windows. Effective only with a store configured; each
    /// workload is then generated once per store lifetime instead of
    /// once per process, at the cost of the trace's 17 B/record on
    /// disk. Off by default: generation is deterministic and usually
    /// cheaper than the disk space at quick/standard scales.
    pub trace_store: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            jobs: 0,
            mem_budget_bytes: DEFAULT_MEM_BUDGET_BYTES,
            store_dir: None,
            progress: false,
            lockstep: true,
            trace_store: false,
        }
    }
}

/// Per-cell entry for `results.json` and `telemetry.json`, created in
/// submission order so the files are deterministic.
#[derive(Debug, Clone)]
struct JobRecord {
    id: JobId,
    /// Workload preset name, or the CMP cell name.
    workload: String,
    prefetcher: String,
    /// Cores of a CMP cell; `None` for a single-core job.
    cores: Option<u64>,
    source: ResultSource,
    wall_ms: Option<u64>,
    insts_per_sec: Option<f64>,
    /// The cell succeeded only on its second attempt.
    retried: bool,
    /// Panic message when the cell failed on both attempts.
    error: Option<String>,
}

impl JobRecord {
    fn new<C: Cell>(cell: &C, source: ResultSource) -> Self {
        let (workload, prefetcher, cores) = cell.row_names();
        JobRecord {
            id: cell.id(),
            workload,
            prefetcher,
            cores,
            source,
            wall_ms: None,
            insts_per_sec: None,
            retried: false,
            error: None,
        }
    }

    /// Human label matching [`Job::label`] / [`CmpJob::label`].
    fn label(&self) -> String {
        match self.cores {
            None => format!("{} x {}", self.workload, self.prefetcher),
            Some(n) => format!("{}@{n}c x {}", self.workload, self.prefetcher),
        }
    }

    /// The `outcome` tag written to `telemetry.json`.
    fn outcome_tag(&self) -> &'static str {
        if self.error.is_some() {
            "failed"
        } else if self.retried {
            "retried"
        } else {
            "ok"
        }
    }
}

/// The job-execution engine. See the crate docs for the full contract.
///
/// A `Harness` is long-lived: experiment drivers submit successive
/// batches to the same instance, and the in-process memo deduplicates
/// *across* batches (Figure 4's baselines feed Figure 6 for free).
pub struct Harness {
    cfg: HarnessConfig,
    workers: usize,
    store: Option<ResultStore>,
    memo: Mutex<HashMap<JobId, JobOutcome>>,
    /// Outcomes of CMP cells ([`CmpJob`]), memoized apart from `memo`
    /// because the result shapes differ; identity and lifetime rules
    /// are the same.
    cmp_memo: Mutex<HashMap<JobId, CmpOutcome>>,
    /// One record per unique cell per batch, both kinds interleaved in
    /// submission order.
    records: Mutex<Vec<JobRecord>>,
    /// Running totals, reported as they are by [`Harness::summary`].
    counters: Mutex<RunSummary>,
    /// Pre-resolved event streams, keyed by [`Job::pre_key`] and shared
    /// across batches — and between single-core jobs and CMP cores —
    /// for the harness's whole lifetime. In the sweep daemon, this is
    /// the warm cache that makes a repeat sweep's front end free. One
    /// stream is built (or disk-loaded) exactly once: the first worker
    /// to need it initializes the `OnceLock` while others block on
    /// `get_or_init`, then all share the `Arc`.
    pres: Mutex<HashMap<u64, Arc<OnceLock<Arc<PreResolved>>>>>,
    /// Fan-out republisher for telemetry [`Event`]s.
    bus: EventBus,
}

impl Harness {
    /// Creates a harness. A configured store directory is created
    /// eagerly; if that fails, caching is disabled with a warning rather
    /// than failing the run.
    pub fn new(cfg: HarnessConfig) -> Self {
        let workers = match cfg.jobs {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        let store = cfg
            .store_dir
            .as_ref()
            .and_then(|dir| match ResultStore::open(dir) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!(
                        "warning: result store at {} unavailable ({e}); caching disabled",
                        dir.display()
                    );
                    None
                }
            });
        Harness {
            cfg,
            workers,
            store,
            memo: Mutex::new(HashMap::new()),
            cmp_memo: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
            counters: Mutex::new(RunSummary::default()),
            pres: Mutex::new(HashMap::new()),
            bus: EventBus::new(),
        }
    }

    /// A single-threaded harness with no disk cache and no progress
    /// output — dedup and memoization only. The right default for tests
    /// and library callers.
    pub fn serial() -> Self {
        Self::new(HarnessConfig {
            jobs: 1,
            ..HarnessConfig::default()
        })
    }

    /// Resolved worker-thread count.
    pub const fn workers(&self) -> usize {
        self.workers
    }

    /// The on-disk store directory, if caching is active.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(ResultStore::dir)
    }

    /// The store's current on-disk footprint — results, pre-resolved
    /// streams and segmented traces — or `None` without a store.
    /// Walks the store directory; cheap at any realistic entry count
    /// but not free, so callers poll it (status requests), they don't
    /// spin on it.
    pub fn store_footprint(&self) -> Option<store::StoreFootprint> {
        self.store_dir().map(store::store_footprint)
    }

    /// The harness's telemetry bus. Subscribe to receive a copy of
    /// every [`Event`] from every batch this harness runs.
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// The already-known outcome for `job`, if the in-process memo has
    /// one — no disk probe, no execution. The sweep service's submit
    /// fast path: warm cells answer instantly without entering the
    /// queue.
    pub fn cached_outcome(&self, job: &Job) -> Option<JobOutcome> {
        lock(&self.memo).get(&job.id()).cloned()
    }

    /// Pre-resolved streams currently held warm (distinct pre-keys).
    pub fn warm_streams(&self) -> usize {
        lock(&self.pres)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Resolves a batch of cells, returning results in submission order.
    ///
    /// Duplicates — within the batch, against earlier batches, or
    /// against the on-disk store — are served without simulating.
    ///
    /// This is the **strict** entry point: every cell must succeed.
    ///
    /// # Panics
    ///
    /// Panics with a summary naming the failed cells if any cell failed
    /// (panicked on both attempts). The panic is raised only after the
    /// whole batch has executed, so sibling results are already
    /// memoized and cached; use [`Harness::run_outcomes`] to keep going
    /// instead.
    pub fn run<C: Cell>(&self, jobs: &[C]) -> Vec<C::Result> {
        let outcomes = self.run_outcomes(jobs);
        let mut failed: Vec<String> = Vec::new();
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            if let Some(reason) = outcome.failure() {
                let entry = format!("{} ({reason})", job.label());
                if !failed.contains(&entry) {
                    failed.push(entry);
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} job(s) failed: {}",
            failed.len(),
            failed.join("; ")
        );
        outcomes
            .into_iter()
            .map(|o| match o {
                Outcome::Ok(r) | Outcome::Retried(r) => r,
                Outcome::Failed { .. } => unreachable!("failures rejected above"),
            })
            .collect()
    }

    /// Resolves a batch of cells, returning one [`Outcome`] per cell in
    /// submission order. The **keep-going** entry point: a failed cell
    /// yields [`Outcome::Failed`] and never disturbs its siblings,
    /// whose results are memoized and cached as usual. Failures are
    /// memoized too — the deterministic simulator would only fail
    /// again — so resubmitting a failed cell reports the same outcome
    /// without re-running it.
    ///
    /// The lifecycle, for single-core and CMP cells alike: dedup (with
    /// a content-hash collision guard), memo, up-front rejection, disk
    /// store (corrupt entries quarantined and re-run), then the worker
    /// pool (see `execute`), then folding into memo, records and
    /// counters.
    pub fn run_outcomes<C: Cell>(&self, jobs: &[C]) -> Vec<Outcome<C::Result>> {
        let t0 = Instant::now();

        // Deduplicate, preserving first-submission order. A 64-bit
        // content-hash collision between *different* cells is
        // astronomically unlikely but cheap to rule out.
        let mut first_seen: HashMap<JobId, usize> = HashMap::new();
        let mut uniques: Vec<&C> = Vec::new();
        for job in jobs {
            match first_seen.get(&job.id()) {
                Some(&idx) => assert_eq!(
                    uniques[idx],
                    job,
                    "content-hash collision on {}; bump its canonical version",
                    job.id()
                ),
                None => {
                    first_seen.insert(job.id(), uniques.len());
                    uniques.push(job);
                }
            }
        }

        // Serve what the memo and the disk store already know; queue the
        // rest. Each pending cell remembers the index of its pre-created
        // record so worker timing lands in submission order. A corrupt
        // store entry is quarantined by `load_checked` and its cell
        // queued like a plain miss — the re-run overwrites it.
        let mut pending: Vec<(usize, &C)> = Vec::new();
        {
            let mut memo = lock(C::memo(self));
            let mut records = lock(&self.records);
            let mut c = lock(&self.counters);
            c.submitted += jobs.len();
            c.unique += uniques.len();
            for &job in &uniques {
                let source = match memo.entry(job.id()) {
                    hash_map::Entry::Occupied(_) => {
                        c.memo_hits += 1;
                        ResultSource::Memory
                    }
                    hash_map::Entry::Vacant(slot) => {
                        if let Some(reason) = job.reject() {
                            self.bus.publish(&Event::JobFailed {
                                label: job.label(),
                                reason: reason.clone(),
                            });
                            c.failed += 1;
                            slot.insert(Outcome::Failed {
                                reason: reason.clone(),
                            });
                            records.push(JobRecord {
                                error: Some(reason),
                                ..JobRecord::new(job, ResultSource::Executed)
                            });
                            continue;
                        }
                        let read = match &self.store {
                            Some(s) => s.load_checked(job),
                            None => CacheRead::Miss,
                        };
                        match read {
                            CacheRead::Hit(r) => {
                                c.disk_hits += 1;
                                slot.insert(Outcome::Ok(r));
                                ResultSource::Disk
                            }
                            CacheRead::Miss => {
                                pending.push((records.len(), job));
                                ResultSource::Executed
                            }
                            CacheRead::Quarantined { path, reason } => {
                                c.quarantined += 1;
                                let path = path.display().to_string();
                                if self.cfg.progress {
                                    eprintln!(
                                        "warning: quarantined corrupt cache entry {path} \
                                         ({reason}); re-running"
                                    );
                                }
                                self.bus.publish(&Event::CacheQuarantined { path, reason });
                                pending.push((records.len(), job));
                                ResultSource::Executed
                            }
                        }
                    }
                };
                records.push(JobRecord::new(job, source));
            }
        }

        if !pending.is_empty() {
            self.execute(&pending);
        }

        lock(&self.counters).wall += t0.elapsed();
        let memo = lock(C::memo(self));
        jobs.iter().map(|j| memo[&j.id()].clone()).collect()
    }

    /// [`Harness::run_outcomes`] for CMP cells, under its historical name.
    pub fn run_cmp_outcomes(&self, jobs: &[CmpJob]) -> Vec<CmpOutcome> {
        self.run_outcomes(jobs)
    }

    /// The labels and panic reasons of every cell that failed so far,
    /// single-core and CMP alike, in submission order — the material for
    /// a driver's end-of-run failure summary.
    pub fn failures(&self) -> Vec<(String, String)> {
        lock(&self.records)
            .iter()
            .filter_map(|rec| Some((rec.label(), rec.error.clone()?)))
            .collect()
    }

    /// Runs the pending cells on the worker pool and folds the outcomes
    /// into the memo, the record table and the counters.
    ///
    /// Pending cells are grouped into units ([`Cell::units`]: lockstep
    /// groups for single-core jobs, one cell per unit for CMP), queued
    /// FIFO in first-submission order on `workers.min(units)` threads,
    /// each with an equal share of the memory budget. A unit's first
    /// attempt is panic-caught; each member whose first attempt failed
    /// is retried once on its own. Results are saved to the store from
    /// the worker.
    fn execute<C: Cell>(&self, pending: &[(usize, &C)]) {
        let cells: Vec<&C> = pending.iter().map(|&(_, c)| c).collect();
        let units = C::units(&cells, self.cfg.lockstep);
        let workers = self.workers.min(units.len()).max(1);
        // Each concurrent worker gets an equal share of the process
        // memory budget; jobs whose pre-resolved stream would not fit
        // the share run segment-at-a-time (see `stream_plan`).
        let per_worker = (self.cfg.mem_budget_bytes / workers as u64).max(1);
        // One attempt at one cell, with any panic caught so a buggy
        // prefetcher fails only its own cell. Also the retry path.
        let attempt = |cell: &C, tx: &mpsc::Sender<Event>| {
            catch_unwind(AssertUnwindSafe(|| cell.run(self, per_worker, tx))).map_err(panic_reason)
        };
        let (tx, rx) = mpsc::channel::<Event>();

        let done = work_queue(
            workers,
            units.len(),
            tx,
            |tx, u| {
                let unit: Vec<&C> = units[u].iter().map(|&i| cells[i]).collect();
                for cell in &unit {
                    let _ = tx.send(Event::JobStarted {
                        label: cell.label(),
                    });
                }
                let t = Instant::now();
                // First attempts: one lockstep pass when the unit has
                // siblings, the plain single-cell path otherwise. This
                // outer catch covers pre-resolution and the driver.
                let firsts = if unit.len() > 1 {
                    catch_unwind(AssertUnwindSafe(|| {
                        C::run_lockstep(&unit, self, per_worker, tx)
                    }))
                    .unwrap_or_else(|payload| vec![Err(panic_reason(payload)); unit.len()])
                } else {
                    vec![attempt(unit[0], tx)]
                };
                // Retry-once policy, per cell: a first-attempt panic may
                // be environmental (a torn mmap, a one-shot fault); a
                // second one is the cell's own and final.
                let outs: Vec<Result<(C::Result, bool), String>> = unit
                    .iter()
                    .zip(firsts)
                    .map(|(&cell, first)| match first {
                        Ok(result) => Ok((result, false)),
                        Err(reason) => {
                            let _ = tx.send(Event::JobRetried {
                                label: cell.label(),
                                reason,
                            });
                            attempt(cell, tx).map(|result| (result, true))
                        }
                    })
                    .collect();
                // The unit ran as one pass; attribute an equal share of
                // its wall clock to each member so per-cell rates
                // reflect the amortization.
                let wall = t.elapsed() / unit.len() as u32;
                let wall_ms = wall.as_millis() as u64;
                unit.iter()
                    .zip(outs)
                    .map(|(&cell, out)| {
                        let rate = cell.records() as f64 / wall.as_secs_f64().max(1e-9);
                        let label = cell.label();
                        let _ = tx.send(match &out {
                            Ok((result, _)) => {
                                if let Some(store) = &self.store {
                                    // Cache-write failure loses only incrementality.
                                    let _ = store.save(cell, result);
                                }
                                Event::JobFinished {
                                    label,
                                    wall_ms,
                                    insts_per_sec: rate,
                                }
                            }
                            // Nothing cached: a failed cell leaves no
                            // on-disk trace to be mistaken for a result.
                            Err(reason) => Event::JobFailed {
                                label,
                                reason: reason.clone(),
                            },
                        });
                        (out, wall_ms, rate)
                    })
                    .collect::<Vec<_>>()
            },
            || {
                // The submitting thread renders progress, republishes
                // every event on the bus, and tallies quarantines (the
                // per-slot data only says *that* a cell was retried, not
                // how many quarantines it healed).
                let mut progress = Progress::new(self.cfg.progress, pending.len());
                let mut quarantined = 0usize;
                for ev in rx {
                    if let Event::CacheQuarantined { .. } = &ev {
                        quarantined += 1;
                    }
                    self.bus.publish(&ev);
                    progress.handle(&ev);
                }
                progress.finish();
                lock(&self.counters).quarantined += quarantined;
            },
        );

        let mut memo = lock(C::memo(self));
        let mut records = lock(&self.records);
        let mut c = lock(&self.counters);
        let lanes = units.iter().flatten().zip(done.into_iter().flatten());
        for (&i, (out, wall_ms, rate)) in lanes {
            let (rec_idx, cell) = pending[i];
            let rec = &mut records[rec_idx];
            let outcome = match out {
                Ok((result, retried)) => {
                    rec.wall_ms = Some(wall_ms);
                    rec.insts_per_sec = Some(rate);
                    rec.retried = retried;
                    c.executed += 1;
                    c.records_simulated += cell.records();
                    if retried {
                        c.retried += 1;
                        Outcome::Retried(result)
                    } else {
                        Outcome::Ok(result)
                    }
                }
                Err(reason) => {
                    rec.error = Some(reason.clone());
                    c.failed += 1;
                    Outcome::Failed { reason }
                }
            };
            memo.insert(cell.id(), outcome);
        }
    }

    /// The warm, `Arc`-shared pre-resolved stream for `job` (see the
    /// `pres` field), built or disk-loaded on first use. The map lock
    /// is held only to find the slot, never across the build. If the
    /// build panics, the slot stays uninitialized, so a retry (or a
    /// sibling on the same key) rebuilds it from scratch.
    fn warm_pre(&self, job: &Job, tx: &mpsc::Sender<Event>) -> Arc<PreResolved> {
        let slot = Arc::clone(
            lock(&self.pres)
                .entry(job.pre_key())
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        Arc::clone(slot.get_or_init(|| Arc::new(self.prepare_pre(job, tx))))
    }

    /// The segment length (in trace records) a bounded-memory replay of
    /// `job` should use, or `None` when the whole pre-resolved stream
    /// fits the worker's budget share — then the materialized,
    /// `Arc`-shared warm-map path is both cheaper and enables
    /// cross-batch stream reuse.
    ///
    /// The streamed paths are replay-**exact**: block-at-a-time replay
    /// over any segmentation produces byte-identical results to the
    /// monolithic stream (`ebcp_sim::segment` proves this property), so
    /// this decision affects memory and wall clock, never results.
    fn stream_plan(&self, job: &Job, per_worker_bytes: u64) -> Option<u64> {
        if source::est_pre_bytes(&job.spec) <= per_worker_bytes {
            return None;
        }
        Some(source::seg_records_for_budget(per_worker_bytes))
    }

    /// Bounded-memory execution of a unit led by `lead`: `target` — one
    /// engine, or a lockstep group of the unit's lanes — replays
    /// `lead`'s pre-resolved stream one entry-aligned slice at a time.
    /// With a store, a cached stream that verifies is replayed from
    /// disk; otherwise the streamed pipeline produces the trace (from
    /// the segmented trace store when enabled — mmap'd windows when
    /// warm, generated and written in the same pass when cold — else
    /// from the generator), resolves it, writes the stream and replays
    /// it in one pass. Without a store the pipeline writes nothing.
    /// Corrupt cached files (stream or trace) are quarantined, reported
    /// over `tx`, and rebuilt. Peak resident set is O(segment) on the
    /// disk path and O(chunk) on the pipeline.
    ///
    /// CMP cells deliberately do not take this path: the discrete-event
    /// engine interleaves all cores' streams by cycle, so it holds them
    /// whole; per-core workloads are footprint-scaled by core count,
    /// which keeps them inside the budget at supported scales.
    ///
    /// # Panics
    ///
    /// Panics on file-system failure, and when a freshly written trace
    /// or stream fails to verify — the worker's `catch_unwind` converts
    /// that to a failed (retried-once) job, and no result is returned
    /// before both verify. Unlike the materialized path there is no
    /// memory fallback to offer: the budget says the stream must live
    /// on disk.
    fn run_streamed<T: ReplayTarget>(
        &self,
        lead: &Job,
        seg_records: u64,
        target: T,
        tx: &mpsc::Sender<Event>,
    ) -> T {
        let spec = &lead.spec;
        let Some(dir) = self.store_dir() else {
            let mut gen = TraceGenerator::new(&spec.workload, spec.seed);
            return run_stream_pipeline(spec, &mut gen, seg_records, target, &mut ())
                .expect("a discarding sink cannot fail");
        };
        match preres::open_stream_checked(dir, lead) {
            CacheRead::Hit(mut stream) => return replay_blocks(spec, stream.blocks(), target),
            CacheRead::Miss => {}
            CacheRead::Quarantined { path, reason } => report_quarantine(tx, &path, reason),
        }
        let mut stored = self.cfg.trace_store.then(|| {
            traces::StoredTrace::open(dir, spec, seg_records, Backing::Mmap, |path, reason| {
                report_quarantine(tx, &path, reason)
            })
            .expect("segmented trace store")
        });
        let mut gen;
        let src: &mut (dyn ChunkSource + Send) = match &mut stored {
            Some(trace) => trace,
            None => {
                gen = TraceGenerator::new(&spec.workload, spec.seed);
                &mut gen
            }
        };
        let target = build_stream(dir, lead, seg_records, src, target);
        if let Some(trace) = stored {
            // Publishes the freshly written trace and verifies it, on
            // this thread: the producer has been joined.
            trace.finish().expect("segmented trace store");
        }
        target
    }

    /// Obtains the pre-resolved event stream for `job`: from the disk
    /// cache when possible, otherwise by running the front-end pass (and
    /// caching the result for the next process). A corrupt cached
    /// stream is quarantined (reported over `tx`) and rebuilt, its
    /// replacement overwriting the original path.
    fn prepare_pre(&self, job: &Job, tx: &mpsc::Sender<Event>) -> PreResolved {
        if let Some(dir) = self.store_dir() {
            match preres::load_checked(dir, job) {
                CacheRead::Hit(pre) => return pre,
                CacheRead::Miss => {}
                CacheRead::Quarantined { path, reason } => report_quarantine(tx, &path, reason),
            }
        }
        let pre = job.spec.pre_resolve();
        if let Some(dir) = self.store_dir() {
            // Cache-write failure loses only incrementality.
            let _ = preres::save(dir, job, &pre);
        }
        pre
    }

    /// Generic parallel map on the same worker pool as cell execution,
    /// for one-off work that is not a [`Cell`] (e.g. bulk trace
    /// generation). Output order matches input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.workers.min(items.len()).max(1);
        work_queue(workers, items.len(), (), |(), i| f(&items[i]), || {})
    }

    /// Aggregate statistics over everything resolved so far.
    pub fn summary(&self) -> RunSummary {
        *lock(&self.counters)
    }

    /// The deterministic single-core [`ResultRow`]s for everything
    /// resolved so far, in first-submission order — the input to
    /// [`results_doc`].
    pub fn result_rows(&self) -> Vec<ResultRow> {
        let memo = lock(&self.memo);
        lock(&self.records)
            .iter()
            .filter(|rec| rec.cores.is_none())
            .map(|rec| ResultRow {
                id: rec.id,
                workload: rec.workload.clone(),
                prefetcher: rec.prefetcher.clone(),
                outcome: memo[&rec.id].clone(),
            })
            .collect()
    }

    /// The deterministic [`CmpResultRow`]s for every CMP cell resolved
    /// so far, in first-submission order.
    pub fn cmp_result_rows(&self) -> Vec<CmpResultRow> {
        let memo = lock(&self.cmp_memo);
        lock(&self.records)
            .iter()
            .filter_map(|rec| {
                Some(CmpResultRow {
                    id: rec.id,
                    cell: rec.workload.clone(),
                    prefetcher: rec.prefetcher.clone(),
                    cores: rec.cores?,
                    outcome: memo[&rec.id].clone(),
                })
            })
            .collect()
    }

    /// Writes the **deterministic** `results.json`: per unique cell
    /// (submission order) its identity, outcome and full result —
    /// nothing that varies with worker count, cache temperature, wall
    /// clock, or transport. A sweep submitted to a warm daemon writes
    /// the same bytes as a cold local run. Timings and cache provenance
    /// go to [`Harness::write_telemetry_json`] instead.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_results_json(&self, path: &Path) -> io::Result<()> {
        let submitted = lock(&self.counters).submitted;
        let doc = results_doc_cmp(submitted, &self.result_rows(), &self.cmp_result_rows());
        write_doc(path, &doc)
    }

    /// Writes the **volatile** `telemetry.json` companion: the full run
    /// summary (hit counts, wall clock, throughput) plus per-cell cache
    /// provenance and timing (CMP cells also carry their `cores`).
    /// Everything results.json deliberately omits to stay deterministic
    /// lands here.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn write_telemetry_json(&self, path: &Path) -> io::Result<()> {
        let summary = self.summary();
        let records = lock(&self.records);
        let jobs: Vec<Value> = records
            .iter()
            .map(|rec| {
                let mut fields = vec![
                    ("id".into(), Value::Str(rec.id.to_string())),
                    ("workload".into(), Value::Str(rec.workload.clone())),
                    ("prefetcher".into(), Value::Str(rec.prefetcher.clone())),
                ];
                if let Some(cores) = rec.cores {
                    fields.push(("cores".into(), Value::Int(cores)));
                }
                fields.extend([
                    ("source".into(), Value::Str(rec.source.tag().into())),
                    ("outcome".into(), Value::Str(rec.outcome_tag().into())),
                    (
                        "wall_ms".into(),
                        rec.wall_ms.map_or(Value::Null, Value::Int),
                    ),
                    (
                        "insts_per_sec".into(),
                        rec.insts_per_sec.map_or(Value::Null, Value::Num),
                    ),
                ]);
                Value::Obj(fields)
            })
            .collect();
        let doc = Value::Obj(vec![
            (
                "summary".into(),
                Value::Obj(vec![
                    ("submitted".into(), Value::Int(summary.submitted as u64)),
                    ("unique".into(), Value::Int(summary.unique as u64)),
                    ("executed".into(), Value::Int(summary.executed as u64)),
                    ("memo_hits".into(), Value::Int(summary.memo_hits as u64)),
                    ("disk_hits".into(), Value::Int(summary.disk_hits as u64)),
                    ("failed".into(), Value::Int(summary.failed as u64)),
                    ("retried".into(), Value::Int(summary.retried as u64)),
                    ("quarantined".into(), Value::Int(summary.quarantined as u64)),
                    (
                        "records_simulated".into(),
                        Value::Int(summary.records_simulated),
                    ),
                    (
                        "wall_ms".into(),
                        Value::Int(summary.wall.as_millis() as u64),
                    ),
                    ("insts_per_sec".into(), Value::Num(summary.insts_per_sec())),
                ]),
            ),
            ("jobs".into(), Value::Arr(jobs)),
        ]);
        write_doc(path, &doc)
    }
}

/// One deterministic `results.json` row: a unique job's identity and
/// outcome, nothing volatile.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Content hash of the job.
    pub id: JobId,
    /// Workload preset name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// How the job ended. [`Outcome::Retried`] renders as `"ok"` —
    /// whether a cell needed its second attempt is timing, not result.
    pub outcome: JobOutcome,
}

/// One deterministic `results.json` row for a multi-core CMP cell: the
/// cell's identity and outcome, nothing volatile.
#[derive(Debug, Clone)]
pub struct CmpResultRow {
    /// Content hash of the CMP job.
    pub id: JobId,
    /// The cell name ([`ebcp_sim::CmpSpec::name`], e.g. `database-mix`).
    pub cell: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Cores on the chip.
    pub cores: u64,
    /// How the cell ended ([`Outcome::Retried`] renders as `"ok"`).
    pub outcome: CmpOutcome,
}

/// Renders the deterministic results document from per-job rows.
///
/// This is the **single** renderer behind `results.json`: local `repro`
/// runs call it through [`Harness::write_results_json`], and the sweep
/// service's client assembles the rows it streamed back and calls it
/// directly — which is what makes `repro submit` byte-identical to a
/// local run of the same sweep.
pub fn results_doc(submitted: usize, rows: &[ResultRow]) -> Value {
    results_doc_cmp(submitted, rows, &[])
}

/// The `outcome`, `error` and `result` fields of one `results.json` row.
fn outcome_fields<C: Cell>(outcome: &Outcome<C::Result>) -> [(String, Value); 3] {
    [
        (
            "outcome".into(),
            Value::Str(if outcome.is_failed() { "failed" } else { "ok" }.into()),
        ),
        (
            "error".into(),
            outcome
                .failure()
                .map_or(Value::Null, |e| Value::Str(e.into())),
        ),
        (
            "result".into(),
            outcome.result().map_or(Value::Null, C::encode),
        ),
    ]
}

/// [`results_doc`] with multi-core CMP cells appended: single-core jobs
/// render exactly as before, and a `"cmp_jobs"` array is added only
/// when the sweep actually carried multi-core cells — so a sweep
/// without a `cores` axis stays byte-identical to the pre-CMP format.
/// Both the local sweep path and the service client assemble through
/// this one renderer, preserving the byte-identity contract for CMP
/// grids too.
pub fn results_doc_cmp(submitted: usize, rows: &[ResultRow], cmp_rows: &[CmpResultRow]) -> Value {
    let failed = rows.iter().filter(|r| r.outcome.is_failed()).count()
        + cmp_rows.iter().filter(|r| r.outcome.is_failed()).count();
    let jobs: Vec<Value> = rows
        .iter()
        .map(|row| {
            let mut fields = vec![
                ("id".into(), Value::Str(row.id.to_string())),
                ("workload".into(), Value::Str(row.workload.clone())),
                ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
            ];
            fields.extend(outcome_fields::<Job>(&row.outcome));
            Value::Obj(fields)
        })
        .collect();
    let mut fields = vec![
        (
            "summary".into(),
            Value::Obj(vec![
                ("submitted".into(), Value::Int(submitted as u64)),
                (
                    "unique".into(),
                    Value::Int((rows.len() + cmp_rows.len()) as u64),
                ),
                ("failed".into(), Value::Int(failed as u64)),
            ]),
        ),
        ("jobs".into(), Value::Arr(jobs)),
    ];
    if !cmp_rows.is_empty() {
        let cmp_jobs: Vec<Value> = cmp_rows
            .iter()
            .map(|row| {
                let mut fields = vec![
                    ("id".into(), Value::Str(row.id.to_string())),
                    ("cell".into(), Value::Str(row.cell.clone())),
                    ("prefetcher".into(), Value::Str(row.prefetcher.clone())),
                    ("cores".into(), Value::Int(row.cores)),
                ];
                fields.extend(outcome_fields::<CmpJob>(&row.outcome));
                Value::Obj(fields)
            })
            .collect();
        fields.push(("cmp_jobs".into(), Value::Arr(cmp_jobs)));
    }
    Value::Obj(fields)
}

/// Writes a pretty-printed JSON document, creating parent directories.
pub fn write_doc(path: &Path, doc: &Value) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, doc.to_json_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::frontend::PreResolver;
    use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
    use ebcp_trace::WorkloadSpec;

    fn spec(workload: WorkloadSpec, seed: u64) -> RunSpec {
        RunSpec {
            workload,
            seed,
            warmup_insts: 15_000,
            measure_insts: 15_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn small_batch() -> Vec<Job> {
        let w = WorkloadSpec::database().scaled(1, 16);
        vec![
            Job::new(spec(w.clone(), 3), PrefetcherSpec::None),
            Job::new(
                spec(w.clone(), 3),
                PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
            ),
            // Duplicate of the first: must not re-run.
            Job::new(spec(w, 3), PrefetcherSpec::None),
        ]
    }

    #[test]
    fn dedups_within_batch() {
        let h = Harness::serial();
        let jobs = small_batch();
        let out = h.run(&jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[2]);
        let s = h.summary();
        assert_eq!((s.submitted, s.unique, s.executed), (3, 2, 2));
    }

    #[test]
    fn memoizes_across_batches() {
        let h = Harness::serial();
        let jobs = small_batch();
        let a = h.run(&jobs);
        let b = h.run(&jobs);
        assert_eq!(a, b);
        let s = h.summary();
        assert_eq!(s.executed, 2, "second batch must be all memo hits");
        assert_eq!(s.memo_hits, 2);
    }

    #[test]
    fn harness_replay_matches_direct_stepping() {
        // The harness runs jobs over pre-resolved streams; the results
        // must be byte-identical to stepping the spec directly.
        let h = Harness::serial();
        let jobs = small_batch();
        let out = h.run(&jobs);
        for (job, got) in jobs.iter().zip(&out) {
            let direct = job.spec.run(&job.pf);
            assert_eq!(&direct, got, "job {}", job.label());
        }
    }

    #[test]
    fn preres_disk_cache_round_trips_through_execute() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-pre-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let jobs = small_batch();
        let a = Harness::new(cfg.clone()).run(&jobs);
        // The stream file exists and names the shared pre-key.
        let p = preres::path_for(&dir, &jobs[0]);
        assert!(p.is_file(), "stream must be cached at {}", p.display());
        // A fresh harness with the results wiped but streams kept must
        // still execute (results gone) — from the cached stream — and
        // agree byte-for-byte. Result entries live in 2-hex shard
        // subdirectories; streams live under `preres/`.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "preres") {
                std::fs::remove_dir_all(path).unwrap();
            }
        }
        let h2 = Harness::new(cfg);
        let b = h2.run(&jobs);
        assert_eq!(a, b);
        assert_eq!(h2.summary().executed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs = small_batch();
        let serial = Harness::serial().run(&jobs);
        let par = Harness::new(HarnessConfig {
            jobs: 4,
            ..HarnessConfig::default()
        })
        .run(&jobs);
        assert_eq!(serial, par);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let h = Harness::new(HarnessConfig {
            jobs: 4,
            ..HarnessConfig::default()
        });
        let w = WorkloadSpec::database().scaled(1, 16);
        let jobs: Vec<Job> = (0..6)
            .map(|s| Job::new(spec(w.clone(), s), PrefetcherSpec::None))
            .collect();
        let out = h.run(&jobs);
        // Each seed yields a distinct result; order must match input.
        let rerun = Harness::serial().run(&jobs);
        assert_eq!(out, rerun);
    }

    #[test]
    fn disk_store_round_trip_executes_zero_second_time() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let jobs = small_batch();
        let a = Harness::new(cfg.clone()).run(&jobs);
        // Fresh process simulation: a new harness, same store.
        let h2 = Harness::new(cfg);
        let b = h2.run(&jobs);
        assert_eq!(a, b);
        let s = h2.summary();
        assert_eq!(s.executed, 0, "warm store must satisfy every job");
        assert_eq!(s.disk_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn map_preserves_order_and_covers_all_items() {
        let h = Harness::new(HarnessConfig {
            jobs: 3,
            ..HarnessConfig::default()
        });
        let items: Vec<u64> = (0..37).collect();
        let out = h.map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn results_json_lists_every_unique_job() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::serial();
        let jobs = small_batch();
        let _ = h.run(&jobs);
        let path = dir.join("results.json");
        h.write_results_json(&path).unwrap();
        let single_only = std::fs::read(&path).unwrap();
        let doc = json::parse(std::str::from_utf8(&single_only).unwrap()).unwrap();
        assert!(doc.get("cmp_jobs").is_none(), "no CMP cells, no cmp_jobs");
        assert_eq!(
            single_only,
            results_doc(3, &h.result_rows())
                .to_json_pretty()
                .into_bytes(),
            "single-core results.json keeps its pre-CMP bytes"
        );

        // A CMP cell is counted, so it is listed too.
        let cell = CmpJob::new(
            ebcp_sim::CmpSpec::homogeneous(
                WorkloadSpec::database().scaled(1, 32),
                2,
                5_000,
                5_000,
                SimConfig::scaled_down(16),
            ),
            PrefetcherSpec::None,
        );
        let _ = h.run(std::slice::from_ref(&cell));
        h.write_results_json(&path).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("jobs").unwrap().as_arr().unwrap().len(), 2);
        let cmp_jobs = doc.get("cmp_jobs").unwrap().as_arr().unwrap();
        assert_eq!(cmp_jobs.len(), 1);
        assert_eq!(
            cmp_jobs[0].get("id").unwrap().as_str(),
            Some(&*cell.id().to_string())
        );
        assert_eq!(cmp_jobs[0].get("cores").unwrap().as_u64(), Some(2));
        let summary = doc.get("summary").unwrap();
        assert_eq!(summary.get("submitted").unwrap().as_u64(), Some(4));
        assert_eq!(summary.get("unique").unwrap().as_u64(), Some(3));
        assert_eq!(summary.get("failed").unwrap().as_u64(), Some(0));
        let first = &doc.get("jobs").unwrap().as_arr().unwrap()[0];
        assert_eq!(first.get("outcome").unwrap().as_str(), Some("ok"));
        assert!(
            first.get("source").is_none(),
            "cache provenance is telemetry, not a result"
        );
        assert!(
            first
                .get("result")
                .unwrap()
                .get("insts")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );

        // The volatile companion carries provenance and timing.
        let tpath = dir.join("telemetry.json");
        h.write_telemetry_json(&tpath).unwrap();
        let tdoc = json::parse(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
        assert_eq!(
            tdoc.get("summary")
                .unwrap()
                .get("executed")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let tjobs = tdoc.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(tjobs.len(), 3, "telemetry lists the CMP cell too");
        assert_eq!(tjobs[0].get("source").unwrap().as_str(), Some("run"));
        assert_eq!(tjobs[2].get("cores").unwrap().as_u64(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A one-workload × many-prefetcher batch forms a single lockstep
    /// unit; its results must be byte-identical to the per-job serial
    /// replay path, with every cell counted as executed.
    #[test]
    fn lockstep_batch_matches_per_job_replay() {
        let w = WorkloadSpec::database().scaled(1, 16);
        let pfs = [
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "stream",
                ebcp_prefetch::BaselineConfig::Stream(ebcp_prefetch::StreamConfig::default()),
            ),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ];
        let jobs: Vec<Job> = pfs
            .iter()
            .map(|pf| Job::new(spec(w.clone(), 3), pf.clone()))
            .collect();
        let lockstep = Harness::serial(); // lockstep is the default
        let serial = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        });
        assert_eq!(lockstep.run(&jobs), serial.run(&jobs));
        assert_eq!(lockstep.summary().executed, jobs.len());
        assert_eq!(serial.summary().executed, jobs.len());
    }

    /// A fault-injected lane panicking mid-lockstep fails only its own
    /// cell; sibling lanes return results byte-identical to the serial
    /// path's.
    #[test]
    fn lockstep_fault_lane_fails_alone() {
        use ebcp_prefetch::{BaselineConfig, FaultConfig};
        let w = WorkloadSpec::database().scaled(1, 16);
        let jobs = vec![
            Job::new(spec(w.clone(), 3), PrefetcherSpec::None),
            Job::new(
                spec(w.clone(), 3),
                PrefetcherSpec::baseline(
                    "fault",
                    BaselineConfig::Fault(FaultConfig::panic_after(40)),
                ),
            ),
            Job::new(
                spec(w, 3),
                PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
            ),
        ];
        let h = Harness::serial();
        let out = h.run_outcomes(&jobs);
        let reason = out[1].failure().expect("fault lane must fail");
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(h.summary().failed, 1);
        // Siblings are untouched and byte-identical to serial replays.
        let serial = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        });
        for k in [0, 2] {
            let reference = serial.run_outcomes(&jobs[k..=k]);
            assert_eq!(out[k], reference[0], "sibling lane {k}");
        }
    }

    /// The routing decision, both directions: a mis-shaped single-core
    /// `Job` over a CMP per-core workload gets a precise capability
    /// error that names the correct route (a `CmpJob`), and the
    /// correctly-shaped `CmpJob` actually runs there — through the DES
    /// engine — instead of being rejected.
    #[test]
    fn cmp_routing_rejects_misshaped_job_and_runs_cmp_job() {
        let h = Harness::serial();
        let mut w = WorkloadSpec::database().scaled(1, 16);
        w.addr_space = 2; // per-core CMP address-space id
        let job = Job::new(spec(w.clone(), 3), PrefetcherSpec::None);
        let out = h.run_outcomes(std::slice::from_ref(&job));
        let reason = out[0].failure().expect("mis-shaped job must be rejected");
        assert!(reason.contains("CMP"), "{reason}");
        assert!(
            reason.contains("as a CmpJob via Harness::run"),
            "the error must name the correct route: {reason}"
        );
        let s = h.summary();
        assert_eq!((s.failed, s.executed), (1, 0), "rejected before any run");
        // Resubmission reports the same failure from the memo.
        let again = h.run_outcomes(&[job]);
        assert_eq!(again[0], out[0]);
        assert_eq!(h.summary().failed, 1, "no double-count on resubmission");

        // The very same per-core workload, correctly shaped as one
        // CmpJob cell, routes through the DES engine and succeeds.
        let cell = CmpJob::new(
            ebcp_sim::CmpSpec::heterogeneous(
                "pair",
                vec![
                    (
                        ebcp_trace::WorkloadSpec {
                            addr_space: 1,
                            ..w.clone()
                        },
                        3,
                    ),
                    (ebcp_trace::WorkloadSpec { addr_space: 2, ..w }, 4),
                ],
                10_000,
                10_000,
                SimConfig::scaled_down(16),
            ),
            PrefetcherSpec::None,
        );
        let cmp_out = h.run_outcomes(std::slice::from_ref(&cell));
        let r = cmp_out[0]
            .result()
            .expect("CmpJob must run, not be rejected");
        assert_eq!(r.cores.len(), 2);
        assert!(r.cores.iter().all(|c| c.insts == 10_000));
    }

    /// CMP cells are first-class harness citizens: memoized across
    /// batches, disk-cached with self-healing entries, results
    /// identical to a direct engine run.
    #[test]
    fn cmp_cells_memoize_and_disk_cache() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-cmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            store_dir: Some(dir.clone()),
            ..Default::default()
        };
        let cell = CmpJob::new(
            ebcp_sim::CmpSpec::homogeneous(
                WorkloadSpec::database().scaled(1, 32),
                2,
                10_000,
                10_000,
                SimConfig::scaled_down(16),
            ),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        );
        let h = Harness::new(cfg.clone());
        let a = h.run(std::slice::from_ref(&cell));
        assert_eq!(a[0], cell.spec.run(&cell.pf), "harness == direct engine");
        // Same harness: memo hit, nothing executed.
        let b = h.run(std::slice::from_ref(&cell));
        assert_eq!(a, b);
        assert_eq!(h.summary().executed, 1);
        assert_eq!(h.summary().memo_hits, 1);
        // Fresh harness, warm store: disk hit, zero simulations.
        let h2 = Harness::new(cfg);
        let c = h2.run(std::slice::from_ref(&cell));
        assert_eq!(a, c);
        let s = h2.summary();
        assert_eq!((s.executed, s.disk_hits), (0, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A faulting prefetcher fails only its own CMP cell; the sibling
    /// cell completes and matches its direct run. The failure is named
    /// in `failures()` like a single-core one.
    #[test]
    fn cmp_fault_cell_fails_alone() {
        use ebcp_prefetch::{BaselineConfig, FaultConfig};
        let spec = ebcp_sim::CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            2,
            10_000,
            10_000,
            SimConfig::scaled_down(16),
        );
        let cells = vec![
            CmpJob::new(spec.clone(), PrefetcherSpec::None),
            CmpJob::new(
                spec.clone(),
                PrefetcherSpec::baseline(
                    "fault",
                    BaselineConfig::Fault(FaultConfig::panic_after(40)),
                ),
            ),
        ];
        let h = Harness::serial();
        let out = h.run_outcomes(&cells);
        let reason = out[1].failure().expect("fault cell must fail");
        assert!(reason.contains("injected fault"), "{reason}");
        assert_eq!(h.summary().failed, 1);
        assert_eq!(out[0].result().unwrap(), &spec.run(&PrefetcherSpec::None));
        assert_eq!(
            h.failures(),
            vec![(cells[1].label(), reason.to_string())],
            "the failed CMP cell must be reported by name"
        );
    }

    /// The bounded-memory streamed path — in every store configuration —
    /// must be byte-identical to the unconstrained materialized path:
    /// with no store (pipelined FE∥BE), with a store (per-segment block
    /// stream on disk), and with the segmented trace store feeding the
    /// front end through mmap'd windows.
    #[test]
    fn tiny_budget_streams_and_matches_materialized() {
        let jobs = small_batch();
        let reference = Harness::serial().run(&jobs);

        // No store: the pipelined path.
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            ..HarnessConfig::default()
        });
        assert_eq!(h.run(&jobs), reference, "pipelined path diverged");

        // Store: the on-disk block-stream path, cold then warm, with
        // and without the segmented trace store.
        for trace_store in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "ebcp-harness-stream-{trace_store}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = HarnessConfig {
                jobs: 1,
                mem_budget_bytes: 1,
                store_dir: Some(dir.clone()),
                trace_store,
                ..HarnessConfig::default()
            };
            let cold = Harness::new(cfg.clone());
            assert_eq!(
                cold.run(&jobs),
                reference,
                "block-stream path diverged (trace_store={trace_store})"
            );
            // The stream was written segmented, and with the trace
            // store enabled the trace file exists too.
            let stream = preres::open_stream_checked(&dir, &jobs[0])
                .into_hit()
                .expect("stream cached");
            // These 30k-record jobs fit one clamped-minimum segment
            // (64 Ki records); multi-segment geometry is covered by the
            // preres and traces module tests.
            assert_eq!(stream.records(), 30_000);
            assert_eq!(stream.seg_records(), 1 << 16, "clamp floor applies");
            assert_eq!(traces::path_for(&dir, &jobs[0].spec).is_file(), trace_store);
            // Warm run: streams (and traces) are reused, results identical.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir()
                    && path
                        .file_name()
                        .is_some_and(|n| n != "preres" && n != "traces")
                {
                    std::fs::remove_dir_all(path).unwrap();
                }
            }
            let warm = Harness::new(cfg);
            assert_eq!(warm.run(&jobs), reference);
            assert_eq!(warm.summary().executed, 2, "results were wiped");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Re-seals a segmented file (trace or pre-resolved stream) after
    /// its payload or index was edited: recomputes every segment
    /// checksum from the index's item counts, the index checksum and
    /// the footer, so only the structural checks can reject it. Index
    /// entries are `entry_bytes` wide, start with the segment's item
    /// count and end with its checksum.
    pub(crate) fn reseal(
        bytes: &mut [u8],
        payload_base: usize,
        entry_bytes: usize,
        item_bytes: usize,
    ) {
        use ebcp_trace::segfile::{Footer, FOOTER_BYTES};
        use ebcp_types::checksum::checksum64;
        let le = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let n = bytes.len();
        // Read the fields without the self-checksum: edits may touch them.
        let field = |k: usize| le(bytes, n - FOOTER_BYTES + 8 * k);
        let footer = Footer {
            records: field(0),
            seg_records: field(1),
            n_segs: field(2),
            index_checksum: 0,
            head_checksum: field(4),
        };
        let index_base = n - FOOTER_BYTES - footer.n_segs as usize * entry_bytes;
        let mut at = payload_base;
        for k in 0..footer.n_segs as usize {
            let entry = index_base + k * entry_bytes;
            let len = le(bytes, entry) as usize * item_bytes;
            let sum = checksum64(&bytes[at..at + len]).to_le_bytes();
            bytes[entry + entry_bytes - 8..entry + entry_bytes].copy_from_slice(&sum);
            at += len;
        }
        let footer = Footer {
            index_checksum: checksum64(&bytes[index_base..n - FOOTER_BYTES]),
            ..footer
        };
        bytes[n - FOOTER_BYTES..].copy_from_slice(&footer.encode());
    }

    /// Checksum-valid garbage in the streamed tier's files — a record
    /// tag or event kind out of range, or a segment whose events do not
    /// sum to its indexed record count — is quarantined at open and
    /// healed, never decoded mid-replay, and results stay identical.
    #[test]
    fn checksum_valid_garbage_quarantines_and_heals_byte_identically() {
        let jobs = small_batch();
        let dir = std::env::temp_dir().join(format!("ebcp-harness-garbage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            store_dir: Some(dir.clone()),
            trace_store: true,
            ..HarnessConfig::default()
        };
        let reference = Harness::new(cfg.clone()).run(&jobs);
        let trace_path = traces::path_for(&dir, &jobs[0].spec);
        let stream_path = preres::path_for(&dir, &jobs[0]);
        let trace_base = 12 + traces::trace_canonical(&jobs[0].spec).len();
        let stream_base = {
            let b = std::fs::read(&stream_path).unwrap();
            12 + u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize
        };
        type Edit = fn(&mut [u8], usize);
        let cases: [(&str, &Path, usize, usize, usize, Edit); 3] = [
            ("tag", &trace_path, trace_base, 16, 17, |b, base| {
                b[base + 17 * 5] = 7
            }),
            ("kind", &stream_path, stream_base, 24, 24, |b, base| {
                b[base + 24 * 2 + 20..base + 24 * 3].copy_from_slice(&14u32.to_le_bytes());
            }),
            ("sum", &stream_path, stream_base, 24, 24, |b, _| {
                // One segment: claim one more record in both the index
                // and the footer, so only the per-segment sum disagrees.
                let n = b.len();
                for at in [n - 48 - 24 + 8, n - 48] {
                    let v = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                    b[at..at + 8].copy_from_slice(&(v + 1).to_le_bytes());
                }
            }),
        ];
        for (what, path, base, entry, item, edit) in cases {
            let mut bytes = std::fs::read(path).unwrap();
            edit(&mut bytes, base);
            reseal(&mut bytes, base, entry, item);
            std::fs::write(path, &bytes).unwrap();
            if what == "tag" {
                // The trace is only read when the stream must be rebuilt.
                std::fs::remove_file(&stream_path).unwrap();
            }
            let store = ResultStore::open(&dir).unwrap();
            for job in &jobs {
                let _ = std::fs::remove_file(store.entry_path(job));
            }
            let healed = Harness::new(cfg.clone());
            assert_eq!(
                healed.run(&jobs),
                reference,
                "{what}: healed results differ"
            );
            assert_eq!(healed.summary().quarantined, 1, "{what}");
            let mut corrupt = path.as_os_str().to_owned();
            corrupt.push(".corrupt");
            assert!(
                Path::new(&corrupt).is_file(),
                "{what}: bytes kept for post-mortem"
            );
            std::fs::remove_file(&corrupt).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Generating the trace while resolving it (a cold trace store)
    /// writes the same trace and stream files, byte for byte, as
    /// generating the trace first and then resolving it from the file.
    #[test]
    fn generate_while_writing_matches_the_two_pass_build() {
        let mut s = spec(WorkloadSpec::database().scaled(1, 16), 5);
        s.warmup_insts = 100_000;
        s.measure_insts = 40_000;
        let job = Job::new(s.clone(), PrefetcherSpec::None);
        let root = std::env::temp_dir().join(format!("ebcp-harness-gww-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (one, two) = (root.join("one"), root.join("two"));
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            store_dir: Some(one.clone()),
            trace_store: true,
            ..HarnessConfig::default()
        });
        h.run(std::slice::from_ref(&job));
        let seg = preres::open_stream_checked(&one, &job)
            .into_hit()
            .expect("stream written")
            .seg_records();
        assert!(
            s.warmup_insts + s.measure_insts > 2 * seg,
            "several segments"
        );

        // The two-pass reference: write the trace, then resolve it from
        // the file into one block per segment.
        traces::generate(&two, &s, seg).unwrap();
        let mut trace = ebcp_trace::SegmentedTrace::open(
            &traces::path_for(&two, &s),
            traces::trace_canonical(&s).as_bytes(),
            Backing::Mmap,
        )
        .unwrap();
        let mut w = preres::PreresWriter::create(&two, &job, seg).unwrap();
        let mut pr = PreResolver::new(&s.sim);
        let mut chunk = Vec::new();
        loop {
            let room = (seg - pr.pending_records()) as usize;
            if trace.next_chunk(&mut chunk, room.min(Engine::CHUNK_RECORDS)) == 0 {
                break;
            }
            pr.push_chunk(&chunk);
            if pr.pending_records() == seg {
                let b = pr.split_block();
                w.push_block(&b.events, b.records).unwrap();
            }
        }
        if pr.pending_records() > 0 {
            let b = pr.split_block();
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();

        for (a, b) in [
            (traces::path_for(&one, &s), traces::path_for(&two, &s)),
            (preres::path_for(&one, &job), preres::path_for(&two, &job)),
        ] {
            assert!(
                std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap(),
                "{}",
                a.display()
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// With a tiny budget a lockstep unit replays the on-disk block
    /// stream once for all lanes; results must match the serial path.
    #[test]
    fn streamed_lockstep_matches_serial() {
        let w = WorkloadSpec::database().scaled(1, 16);
        let pfs = [
            PrefetcherSpec::None,
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ];
        let jobs: Vec<Job> = pfs
            .iter()
            .map(|pf| Job::new(spec(w.clone(), 3), pf.clone()))
            .collect();
        let reference = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        })
        .run(&jobs);
        let dir = std::env::temp_dir().join(format!("ebcp-harness-slock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            store_dir: Some(dir.clone()),
            ..HarnessConfig::default()
        });
        assert_eq!(h.run(&jobs), reference);
        assert_eq!(h.summary().executed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A lockstep unit over a trace long enough for several segments.
    fn streamed_unit(pfs: &[PrefetcherSpec]) -> Vec<Job> {
        let mut s = spec(WorkloadSpec::database().scaled(1, 16), 5);
        s.warmup_insts = 100_000;
        s.measure_insts = 40_000;
        pfs.iter()
            .map(|pf| Job::new(s.clone(), pf.clone()))
            .collect()
    }

    fn tiny_budget(store_dir: Option<PathBuf>, trace_store: bool) -> Harness {
        Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1,
            store_dir,
            trace_store,
            ..HarnessConfig::default()
        })
    }

    /// Every file under `dir` whose name marks an unpublished write.
    fn tmp_files(dir: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.to_string_lossy().contains(".tmp.") {
                    found.push(path);
                }
            }
        }
        found
    }

    /// Without a store a lockstep unit makes one pipelined pass for all
    /// its lanes; its results equal the store-backed unit's (cold and
    /// warm) and a lockstep replay of the materialized stream.
    #[test]
    fn no_store_lockstep_unit_matches_store_backed_and_materialized() {
        let jobs = streamed_unit(&[
            PrefetcherSpec::None,
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ]);
        let s = &jobs[0].spec;
        let pfs: Vec<PrefetcherSpec> = jobs.iter().map(|j| j.pf.clone()).collect();
        let materialized: Vec<SimResult> = s
            .run_preresolved_many(&s.pre_resolve(), &pfs)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(tiny_budget(None, false).run(&jobs), materialized);
        let dir = std::env::temp_dir().join(format!("ebcp-harness-nostore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for pass in ["cold", "warm"] {
            let h = tiny_budget(Some(dir.clone()), true);
            assert_eq!(h.run(&jobs), materialized, "{pass} store-backed unit");
            assert_eq!(h.summary().executed, 2, "{pass}: results were wiped");
            let store = ResultStore::open(&dir).unwrap();
            for job in &jobs {
                std::fs::remove_file(store.entry_path(job)).unwrap();
            }
        }
        let stream = preres::open_stream_checked(&dir, &jobs[0])
            .into_hit()
            .unwrap();
        assert!(stream.n_segments() > 1, "several segments");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A freshly published stream that does not verify fails the job
    /// with the path and the reason, not a bare flag.
    #[test]
    fn verify_failure_names_the_path_and_the_reason() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = &streamed_unit(&[PrefetcherSpec::None])[0];
        let message = |dir: &Path| {
            let payload = catch_unwind(|| expect_verified(dir, job)).expect_err("must panic");
            panic_reason(payload)
        };
        let missing = message(&dir);
        assert!(missing.ends_with("failed to verify: Miss"), "{missing}");
        assert!(
            missing.contains(&preres::path_for(&dir, job).display().to_string()),
            "{missing}"
        );

        let pre = job.spec.pre_resolve();
        preres::save(&dir, job, &pre).unwrap();
        let path = preres::path_for(&dir, job);
        let len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        let truncated = message(&dir);
        assert!(truncated.contains("Quarantined to "), "{truncated}");
        assert!(truncated.contains(".bin.corrupt"), "{truncated}");
        assert!(truncated.contains("checksum"), "{truncated}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A trace source that panics mid-stream, on the producer thread of
    /// a cold build, fails the attempt without a deadlock and leaves no
    /// temp or published file behind; the next attempt on the same
    /// store builds everything and matches the materialized results.
    #[test]
    fn panicking_source_leaves_no_files_and_the_rerun_succeeds() {
        struct PanicAfter<S>(S, usize);
        impl<S: ChunkSource> ChunkSource for PanicAfter<S> {
            fn next_chunk(&mut self, out: &mut Vec<ebcp_trace::TraceRecord>, max: usize) -> usize {
                assert!(self.1 > 0, "trace source failed mid-stream");
                self.1 -= 1;
                self.0.next_chunk(out, max)
            }
        }
        let jobs = streamed_unit(&[PrefetcherSpec::None]);
        let (job, s) = (&jobs[0], &jobs[0].spec);
        let reference = Harness::serial().run(&jobs);
        let dir =
            std::env::temp_dir().join(format!("ebcp-harness-srcpanic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seg = source::seg_records_for_budget(1);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            let stored = traces::StoredTrace::open(&dir, s, seg, Backing::Mmap, |_, _| {}).unwrap();
            let engine = Engine::new(s.sim, job.pf.build());
            build_stream(&dir, job, seg, &mut PanicAfter(stored, 20), engine)
        }));
        let reason = panic_reason(failed.expect_err("the source's panic fails the attempt"));
        assert_eq!(reason, "trace source failed mid-stream");
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        assert!(!preres::path_for(&dir, job).exists());
        assert!(!traces::path_for(&dir, s).exists());

        let h = tiny_budget(Some(dir.clone()), true);
        assert_eq!(h.run(&jobs), reference);
        assert!(preres::path_for(&dir, job).is_file());
        assert!(traces::path_for(&dir, s).is_file());
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fault-injected lane in a cold pipelined unit dies alone, with
    /// and without a store; its siblings equal their serial replays and
    /// the stream the unit wrote is complete.
    #[test]
    fn cold_pipelined_fault_lane_fails_alone() {
        use ebcp_prefetch::{BaselineConfig, FaultConfig};
        let jobs = streamed_unit(&[
            PrefetcherSpec::None,
            PrefetcherSpec::baseline("fault", BaselineConfig::Fault(FaultConfig::panic_after(40))),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        ]);
        let serial = Harness::new(HarnessConfig {
            jobs: 1,
            lockstep: false,
            ..HarnessConfig::default()
        });
        let dir =
            std::env::temp_dir().join(format!("ebcp-harness-coldfault-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for store_dir in [None, Some(dir.clone())] {
            let h = tiny_budget(store_dir, true);
            let out = h.run_outcomes(&jobs);
            let reason = out[1].failure().expect("fault lane must fail");
            assert!(reason.contains("injected fault"), "{reason}");
            assert_eq!(h.summary().failed, 1);
            for k in [0, 2] {
                assert_eq!(
                    out[k],
                    serial.run_outcomes(&jobs[k..=k])[0],
                    "sibling lane {k}"
                );
            }
        }
        let stream = preres::open_stream_checked(&dir, &jobs[0])
            .into_hit()
            .unwrap();
        assert_eq!(stream.records(), 140_000);
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `store_footprint` counts what a populated store actually holds.
    #[test]
    fn store_footprint_reports_all_three_classes() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-foot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let h = Harness::new(HarnessConfig {
            jobs: 1,
            mem_budget_bytes: 1, // force streaming: preres + traces on disk
            store_dir: Some(dir.clone()),
            trace_store: true,
            ..HarnessConfig::default()
        });
        let jobs = small_batch();
        let _ = h.run(&jobs);
        let f = store_footprint(&dir);
        assert_eq!(f.results.files, 2, "two unique jobs cached");
        assert_eq!(f.preres.files, 1, "one shared stream");
        assert_eq!(f.traces.files, 1, "one shared trace");
        assert!(f.preres.segments >= 1 && f.traces.segments >= 1);
        assert!(f.results.bytes > 0 && f.preres.bytes > 0 && f.traces.bytes > 0);
        assert_eq!(
            f.total_bytes(),
            f.results.bytes + f.preres.bytes + f.traces.bytes
        );
        assert_eq!(
            (f.results.corrupt, f.preres.corrupt, f.traces.corrupt),
            (0, 0, 0)
        );
        assert_eq!(f.quarantined_bytes(), 0);
        // A quarantined file shows up in the corrupt tally, its bytes
        // move from the healthy total to the quarantine accounting.
        let healthy_total = f.total_bytes();
        let p = preres::path_for(&dir, &jobs[0]);
        let moved = std::fs::metadata(&p).unwrap().len();
        let mut corrupt = p.clone().into_os_string();
        corrupt.push(".corrupt");
        std::fs::rename(&p, corrupt).unwrap();
        let f = store_footprint(&dir);
        assert_eq!((f.preres.files, f.preres.corrupt), (0, 1));
        assert_eq!(f.preres.quarantined_bytes, moved);
        assert_eq!(f.quarantined_bytes(), moved);
        assert_eq!(
            f.total_bytes(),
            healthy_total - moved,
            "quarantined bytes must leave the healthy total"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// results.json must not depend on where results came from: a cold
    /// executing run and a warm all-disk-hits run of the same jobs
    /// write byte-identical files.
    #[test]
    fn results_json_is_byte_identical_cold_vs_warm() {
        let dir = std::env::temp_dir().join(format!("ebcp-harness-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            jobs: 2,
            store_dir: Some(dir.join("store")),
            ..Default::default()
        };
        let jobs = small_batch();
        let cold = Harness::new(cfg.clone());
        let _ = cold.run(&jobs);
        cold.write_results_json(&dir.join("cold.json")).unwrap();
        let warm = Harness::new(cfg);
        let _ = warm.run(&jobs);
        assert_eq!(warm.summary().executed, 0);
        warm.write_results_json(&dir.join("warm.json")).unwrap();
        assert_eq!(
            std::fs::read(dir.join("cold.json")).unwrap(),
            std::fs::read(dir.join("warm.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
