//! Harness phases: one closed-loop submission of a workload's whole
//! grid through the public `Harness` entry points, cold (empty store)
//! or as a rerun (result entries deleted, cached streams kept).

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ebcp_harness::{CmpOutcome, Event, EventBus, Harness, JobOutcome, ResultStore, RunSummary};

use crate::grid::{cmp_digest, digest, CellDigest, Cells, Workload};

/// What one phase measured.
pub struct Phase {
    /// Submit to every outcome returned.
    pub wall_s: f64,
    pub cells: Vec<CellDigest>,
    pub summary: RunSummary,
    /// Telemetry events with their arrival times, when collected.
    pub events: Vec<(Instant, Event)>,
    pub submitted_at: Instant,
}

/// Runs one phase of `w` over `store`; `collect` subscribes to the
/// harness's event bus for the queue metrics of a traced run.
pub fn run(w: &Workload, store: &Path, collect: bool) -> Phase {
    let cells = w.submitted_cells();
    let harness = Harness::new(w.harness_config(store.to_path_buf()));
    let collector = collect.then(|| Collector::start(harness.bus()));
    let submitted_at = Instant::now();
    let digests: Vec<CellDigest> = match &cells {
        Cells::Single(jobs) => harness
            .run_outcomes(jobs)
            .iter()
            .map(|o| match o {
                JobOutcome::Ok(r) | JobOutcome::Retried(r) => Ok(digest(r)),
                JobOutcome::Failed { reason } => Err(reason.clone()),
            })
            .collect(),
        Cells::Cmp(jobs) => harness
            .run_cmp_outcomes(jobs)
            .iter()
            .map(|o| match o {
                CmpOutcome::Ok(r) | CmpOutcome::Retried(r) => Ok(cmp_digest(r)),
                CmpOutcome::Failed { reason } => Err(reason.clone()),
            })
            .collect(),
    };
    let wall_s = submitted_at.elapsed().as_secs_f64();
    Phase {
        wall_s,
        cells: digests,
        summary: harness.summary(),
        events: collector.map(Collector::stop).unwrap_or_default(),
        submitted_at,
    }
}

/// Set-up alone: resolve the grid, open an empty store and build the
/// harness, without submitting.
pub fn setup_only(w: &Workload, store: &Path) {
    std::hint::black_box((
        w.submitted_cells(),
        Harness::new(w.harness_config(store.to_path_buf())),
    ));
}

/// Deletes only the result entries of `w`'s cells from `store`, so a
/// rerun re-simulates every cell from the cached streams.
pub fn delete_results(w: &Workload, store: &Path) {
    let rs = ResultStore::open(store).expect("benchmark store opens");
    let paths: Vec<_> = match w.submitted_cells() {
        Cells::Single(jobs) => jobs.iter().map(|j| rs.entry_path(j)).collect(),
        Cells::Cmp(jobs) => jobs.iter().map(|j| rs.cmp_entry_path(j)).collect(),
    };
    for p in paths {
        match fs::remove_file(&p) {
            // A cell submitted twice (a planted mismatch duplicates a
            // lane) has one entry.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            r => r.unwrap_or_else(|e| panic!("remove result entry {}: {e}", p.display())),
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Timestamps harness telemetry as it is published.
struct Collector {
    done: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, Event)>>,
}

impl Collector {
    fn start(bus: &EventBus) -> Collector {
        let rx = bus.subscribe();
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        let handle = std::thread::spawn(move || {
            let mut events = Vec::new();
            loop {
                match rx.recv_timeout(Duration::from_millis(5)) {
                    Ok(ev) => events.push((Instant::now(), ev)),
                    Err(mpsc::RecvTimeoutError::Timeout) if stop.load(Ordering::SeqCst) => break,
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            events.extend(rx.try_iter().map(|ev| (Instant::now(), ev)));
            events
        });
        Collector { done, handle }
    }

    /// Stops collecting (every event of the finished phase has been
    /// published by now) and returns what arrived.
    fn stop(self) -> Vec<(Instant, Event)> {
        self.done.store(true, Ordering::SeqCst);
        self.handle.join().expect("event collector thread")
    }
}

/// Queue metrics of one collected phase.
pub struct QueueStats {
    pub mean_wait_s: f64,
    pub p50_s: f64,
    pub tail_s: f64,
    /// The percentile `tail_s` sits at.
    pub tail_pct: f64,
    pub jobs: usize,
    pub busy_frac: f64,
}

impl QueueStats {
    /// Per-job queue wait (submit to start) and run time (start to
    /// finish), from a collected phase run by `workers` workers.
    pub fn of(phase: &Phase, workers: usize) -> QueueStats {
        let mut started: Vec<(&str, Instant)> = Vec::new();
        let mut waits = Vec::new();
        let mut runs = Vec::new();
        let mut busy_ms = 0u64;
        for (at, ev) in &phase.events {
            match ev {
                Event::JobStarted { label } => {
                    started.push((label, *at));
                    waits.push((*at - phase.submitted_at).as_secs_f64());
                }
                Event::JobFinished { label, wall_ms, .. } => {
                    if let Some(&(_, t)) = started.iter().rev().find(|(l, _)| l == label) {
                        runs.push((*at - t).as_secs_f64());
                    }
                    busy_ms += wall_ms;
                }
                _ => {}
            }
        }
        runs.sort_by(f64::total_cmp);
        let n = runs.len();
        // The highest percentile with at least ten samples beyond it;
        // with ten or fewer samples, the maximum.
        let tail_idx = if n > 10 { n - 11 } else { n.saturating_sub(1) };
        QueueStats {
            mean_wait_s: if waits.is_empty() {
                0.0
            } else {
                waits.iter().sum::<f64>() / waits.len() as f64
            },
            p50_s: runs.get(n / 2).copied().unwrap_or(0.0),
            tail_s: runs.get(tail_idx).copied().unwrap_or(0.0),
            tail_pct: if n == 0 {
                0.0
            } else {
                100.0 * (tail_idx + 1) as f64 / n as f64
            },
            jobs: n,
            busy_frac: busy_ms as f64 / 1e3 / (workers as f64 * phase.wall_s),
        }
    }
}
