//! End-to-end and per-layer benchmark of the EBCP reproduction.
//!
//! ```text
//! ebcp-perfbench --workload sweep|stream|cmp --seed N --seconds S --trace 0|1
//!                [--size standard|quick] [--tmp-dir DIR] [--plant-mismatch]
//!                [--print-pins] [--setup-only]
//! ```
//!
//! `--trace 0` repeats cold and rerun phases of the workload's grid
//! through the public `Harness` for at least `--seconds` and reports
//! the end-to-end metrics; `--trace 1` runs one traced harness phase
//! plus the single-threaded per-layer decomposition and reports the
//! per-layer metrics. Every cell is checked against pinned digests
//! (default seed) or against results computed without the harness.
//! Stores live in `--tmp-dir` (default `.perfbench_tmp/run-<pid>`),
//! which the run creates and removes. `--setup-only` builds the harness
//! over an empty store there and exits; `setup_s` times fresh processes
//! doing that.
//! The last stdout line is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod grid;
mod phase;
mod traced;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use grid::{count_failures, pin_lines, pinned, reference, CellDigest, Kind, Size, Workload};

const MIB: f64 = (1u64 << 20) as f64;

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    tmp_dir: Option<PathBuf>,
    plant_mismatch: bool,
    print_pins: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        kind: Kind::Sweep,
        seed: grid::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Standard,
        tmp_dir: None,
        plant_mismatch: false,
        print_pins: false,
        setup_only: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                let v = value()?;
                a.size = Size::parse(&v).ok_or_else(|| format!("unknown --size {v:?}"))?;
            }
            "--tmp-dir" => a.tmp_dir = Some(PathBuf::from(value()?)),
            "--plant-mismatch" => a.plant_mismatch = true,
            "--print-pins" => a.print_pins = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    a.kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    Ok(a)
}

/// A scratch directory removed when dropped, panics included.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ebcp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(args.kind, args.size, args.seed, args.plant_mismatch);
    let scratch =
        Scratch(args.tmp_dir.unwrap_or_else(|| {
            PathBuf::from(format!(".perfbench_tmp/run-{}", std::process::id()))
        }));
    if args.setup_only {
        phase::setup_only(&w, &scratch.0);
        return ExitCode::SUCCESS;
    }
    if args.print_pins {
        print!("{}", pin_lines(&w, &reference(&w)));
        return ExitCode::SUCCESS;
    }
    println!(
        "# host: nproc={} cpu={:?} rustc={:?} simd={}",
        std::thread::available_parallelism().map_or(0, usize::from),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        ebcp_mem::simd::tier().label(),
    );
    println!(
        "# workload={} size={} seed={} trace={} workers={}",
        w.kind.name(),
        w.size.name(),
        w.seed,
        u8::from(args.trace),
        grid::WORKERS,
    );
    if let Err(e) = fs::create_dir_all(&scratch.0) {
        eprintln!("ebcp-perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let report = if args.trace {
        traced_run(&w, &scratch.0)
    } else {
        untraced_run(&w, &scratch.0, args.seconds)
    };
    drop(scratch);

    for m in &report.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.6} frac ({} of {} cell checks failed)",
        "fail_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The expected digest of every cell and where it came from.
fn expected(w: &Workload) -> (Vec<u64>, &'static str) {
    match pinned(w) {
        Some(p) => (p, "pinned digests"),
        None => (reference(w), "harness-free reference run"),
    }
}

/// Checks every observed phase against `want`; returns (attempted,
/// failed).
fn check(w: &Workload, observed: &[(&str, Vec<CellDigest>)], want: &[u64]) -> (u64, u64) {
    let labels = w.cells().labels();
    let mut failed = 0;
    let mut attempted = 0;
    for (what, cells) in observed {
        attempted += cells.len() as u64;
        failed += count_failures(what, &labels, cells, want);
    }
    (attempted, failed)
}

/// Seconds from spawning a fresh benchmark process in `--setup-only`
/// mode — which resolves the grid, opens an empty store at `store` and
/// builds the harness, i.e. everything before the first submit — to
/// its exit.
fn spawn_setup(w: &Workload, store: &Path) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let t = Instant::now();
    let status = Command::new(exe)
        .args(["--workload", w.kind.name(), "--size", w.size.name()])
        .args(["--seed", &w.seed.to_string(), "--setup-only", "--tmp-dir"])
        .arg(store)
        .stdout(Stdio::null())
        .status()
        .expect("spawn set-up process");
    let s = t.elapsed().as_secs_f64();
    assert!(status.success(), "set-up process failed: {status}");
    s
}

/// Cold and rerun phases, repeated until `seconds` have passed.
fn untraced_run(w: &Workload, dir: &Path, seconds: f64) -> Report {
    let start = Instant::now();
    let (mut wall, mut rerun, mut store_mib) = (vec![], vec![], vec![]);
    let mut observed = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0.. {
        let store = dir.join(format!("store{i}"));
        let cold = phase::run(w, &store, false);
        store_mib.push(phase::dir_bytes(&store) as f64 / MIB);
        phase::delete_results(w, &store);
        let warm = phase::run(w, &store, false);
        fs::remove_dir_all(&store).expect("remove phase store");
        eprintln!(
            "# iteration {i}: cold {:.3} s, rerun {:.3} s",
            cold.wall_s, warm.wall_s
        );
        wall.push(cold.wall_s);
        rerun.push(warm.wall_s);
        observed.push(("cold", cold.cells));
        observed.push(("rerun", warm.cells));
        if i == 0 {
            // Later iterations reuse a heap the first one grew, so the
            // high-water mark after one cold + rerun pair is what a
            // single user run reaches.
            peak_rss = phase::peak_rss_mib();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|k| spawn_setup(w, &dir.join(format!("setup{k}"))))
        .collect();
    println!(
        "# {} iterations; medians of {} cold, {} rerun, {} set-up samples",
        wall.len(),
        wall.len(),
        rerun.len(),
        setup.len()
    );

    let (want, source) = expected(w);
    println!("# checked against {source}");
    let (attempted, failed) = check(w, &observed, &want);
    Report {
        attempted,
        failed,
        metrics: vec![
            Metric {
                name: "wall_s",
                value: median(&wall),
                unit: "s",
            },
            Metric {
                name: "rerun_s",
                value: median(&rerun),
                unit: "s",
            },
            Metric {
                name: "setup_s",
                value: median(&setup),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mib",
                value: peak_rss,
                unit: "MiB",
            },
            Metric {
                name: "store_mib",
                value: median(&store_mib),
                unit: "MiB",
            },
        ],
    }
}

/// One traced harness phase pair, then the per-layer decomposition.
fn traced_run(w: &Workload, dir: &Path) -> Report {
    let store = dir.join("harness");
    let cold = phase::run(w, &store, true);
    phase::delete_results(w, &store);
    let warm = phase::run(w, &store, false);
    fs::remove_dir_all(&store).expect("remove harness store");
    let q = phase::QueueStats::of(&cold, grid::WORKERS);

    let direct = dir.join("direct");
    let t = traced::run(w, &direct);
    fs::remove_dir_all(&direct).expect("remove traced store");

    println!("# spans: name count total_s self_s");
    for (name, (n, total, own)) in t.tracer.summary() {
        println!("#   {name:<20} {n:>8} {total:>10.4} {own:>10.4}");
    }

    // The traced run's own results are the reference where no pins
    // exist; every variant and both harness phases must match it.
    let first = t.variants.first().expect("traced run produced results");
    let (want, source) = match pinned(w) {
        Some(p) => (p, "pinned digests"),
        None => (first.1.clone(), "the traced run's direct results"),
    };
    println!("# checked against {source}");
    let mut observed: Vec<(&str, Vec<CellDigest>)> =
        vec![("harness cold", cold.cells), ("harness rerun", warm.cells)];
    for (name, digests) in &t.variants {
        observed.push((name, digests.iter().map(|&d| Ok(d)).collect()));
    }
    let (attempted, failed) = check(w, &observed, &want);

    let tr = &t.tracer;
    let records = t.records_resolved as f64;
    let gen_s = tr.total("trace.gen");
    let resolve_s = tr.total("frontend.resolve");
    let replay_s = tr.total("engine.replay");
    let lockstep_s = tr.total("lockstep.replay");
    let cmp_s = tr.total("cmp.replay");
    let (hook_s, hook_calls, actions) = traced::hook_total(&t.hooks);
    let (ebcp_hook_s, _) = traced::hook_lane(&t.hooks, "ebcp");
    let (none_hook_s, none_calls) = traced::hook_lane(&t.hooks, "none");
    let single_core = w.kind != Kind::Cmp;
    let engine_hook_s = if single_core { hook_s } else { 0.0 };
    let overhead = if single_core {
        ratio(lockstep_s, tr.total("lockstep.plain")) - 1.0
    } else {
        ratio(cmp_s, tr.total("cmp.plain")) - 1.0
    };
    let summed =
        |f: fn(&ebcp_harness::RunSummary) -> usize| (f(&cold.summary) + f(&warm.summary)) as f64;
    let m = &t.model;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("trace.gen_s", gen_s, "s"),
        metric(
            "trace.gen_ns_per_record",
            ratio(gen_s * 1e9, t.records_generated as f64),
            "ns",
        ),
        metric("trace.seg_write_s", tr.total("trace.seg_write"), "s"),
        metric("trace.seg_read_s", tr.total("trace.seg_read"), "s"),
        metric("trace.seg_mib", t.seg_bytes as f64 / MIB, "MiB"),
        metric("frontend.resolve_s", resolve_s, "s"),
        metric(
            "frontend.ns_per_record",
            ratio(resolve_s * 1e9, records),
            "ns",
        ),
        metric(
            "frontend.events_per_record",
            ratio(t.events as f64, records),
            "events/record",
        ),
        metric("preres.write_s", tr.total("preres.write"), "s"),
        metric("preres.read_s", tr.total("preres.read"), "s"),
        metric("preres.mib", t.preres_bytes as f64 / MIB, "MiB"),
        metric("engine.replay_s", replay_s, "s"),
        metric("engine.self_s", replay_s - engine_hook_s, "s"),
        metric(
            "engine.ns_per_record_lane",
            if single_core {
                ratio(replay_s * 1e9, t.lane_records as f64)
            } else {
                0.0
            },
            "ns",
        ),
        metric("lockstep.replay_s", lockstep_s, "s"),
        metric("lockstep.serial_s", replay_s, "s"),
        metric("lockstep.speedup", ratio(replay_s, lockstep_s), "x"),
        metric("prefetch.hook_s", hook_s, "s"),
        metric("prefetch.hook_s.ebcp", ebcp_hook_s, "s"),
        metric("prefetch.hook_calls", hook_calls as f64, "count"),
        metric("prefetch.actions", actions as f64, "count"),
        metric(
            "prefetch.hook_ns_per_call",
            ratio(hook_s * 1e9, hook_calls as f64),
            "ns",
        ),
        metric(
            "prefetch.timer_overhead_s",
            ratio(none_hook_s, none_calls as f64) * hook_calls as f64,
            "s",
        ),
        metric("cmp.replay_s", cmp_s, "s"),
        metric(
            "cmp.ns_per_record",
            if single_core {
                0.0
            } else {
                ratio(cmp_s * 1e9, t.lane_records as f64)
            },
            "ns",
        ),
        metric("store.write_s", tr.total("store.write"), "s"),
        metric("store.read_s", tr.total("store.read"), "s"),
        metric("store.entries", t.store_entries as f64, "count"),
        metric("harness.queue_wait_s", q.mean_wait_s, "s"),
        metric("harness.job_p50_s", q.p50_s, "s"),
        metric("harness.job_tail_s", q.tail_s, "s"),
        metric("harness.job_tail_pct", q.tail_pct, "%"),
        metric("harness.jobs", q.jobs as f64, "count"),
        metric("harness.worker_busy_frac", q.busy_frac, "frac"),
        metric("harness.executed", summed(|s| s.executed), "count"),
        metric("harness.disk_hits", summed(|s| s.disk_hits), "count"),
        metric("harness.retried", summed(|s| s.retried), "count"),
        metric("harness.quarantined", summed(|s| s.quarantined), "count"),
        metric("model.cpi", m.cpi, "cycles/inst"),
        metric("model.epochs_per_kinst", m.epochs_per_kinst, "1/kinst"),
        metric("model.coverage", m.coverage, "frac"),
        metric("model.accuracy", m.accuracy, "frac"),
        metric("model.read_bus_util", m.read_bus_util, "frac"),
        metric("model.table_reads", m.table_reads as f64, "count"),
        metric("model.table_read_drops", m.table_read_drops as f64, "count"),
        metric("model.ebcp_improvement", m.ebcp_improvement, "frac"),
        metric("trace_overhead_frac", overhead, "frac"),
    ];
    Report {
        attempted,
        failed,
        metrics,
    }
}
