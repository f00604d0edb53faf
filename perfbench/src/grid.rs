//! The benchmark's workloads: which grid each one submits, with which
//! harness settings, and how its results are checked.

use std::path::PathBuf;
use std::sync::Arc;

use ebcp_harness::cmp::cmp_result_to_json;
use ebcp_harness::store::result_to_json;
use ebcp_harness::{fnv1a64, CmpJob, Harness, HarnessConfig, Job, Scale, DEFAULT_MEM_BUDGET_BYTES};
use ebcp_serve::SweepSpec;
use ebcp_sim::{run_pipelined, CmpResult, SimResult};
use ebcp_trace::template::WorkloadProgram;

/// The 15-name comparison roster every grid draws its lanes from.
pub const ROSTER: [&str; 15] = [
    "none",
    "stream",
    "ghb-small",
    "ghb-large",
    "tcp-small",
    "tcp-large",
    "sms",
    "solihin-3,2",
    "solihin-6,1",
    "triangel",
    "amc",
    "ebcp",
    "ebcp-minus",
    "ebcp+nof",
    "stream+nof",
];

/// The seed the pinned digests were recorded at.
pub const DEFAULT_SEED: u64 = 11;

/// Harness worker threads in every phase.
pub const WORKERS: usize = 2;

/// Which benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 5 workloads x 15 prefetchers, single-core.
    Sweep,
    /// `database` x {none, ebcp} over a 10x-quick trace, streamed.
    Stream,
    /// `database` on 8 cores x 15 prefetchers.
    Cmp,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "sweep" => Some(Kind::Sweep),
            "stream" => Some(Kind::Stream),
            "cmp" => Some(Kind::Cmp),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Kind::Sweep => "sweep",
            Kind::Stream => "stream",
            Kind::Cmp => "cmp",
        }
    }
}

/// Experiment size: the real benchmark or the fast self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Standard,
    Quick,
}

impl Size {
    pub fn parse(name: &str) -> Option<Size> {
        match name {
            "standard" => Some(Size::Standard),
            "quick" => Some(Size::Quick),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Size::Standard => "standard",
            Size::Quick => "quick",
        }
    }
}

/// One fully resolved workload.
pub struct Workload {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    /// The grid whose results are checked.
    pub grid: SweepSpec,
    /// The grid the harness runs: `grid`, or with one lane swapped
    /// when a mismatch is planted.
    pub submitted: SweepSpec,
    pub mem_budget_bytes: u64,
    pub trace_store: bool,
}

impl Workload {
    /// Builds the workload. `plant_mismatch` makes the harness run the
    /// `stream` prefetcher in the `ebcp` lane, which the checks must
    /// catch.
    pub fn new(kind: Kind, size: Size, seed: u64, plant_mismatch: bool) -> Workload {
        let base = match size {
            Size::Standard => Scale::standard(),
            Size::Quick => Scale::quick(),
        };
        let roster = || ROSTER.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (grid, mem_budget_bytes, trace_store) = match kind {
            Kind::Sweep => (
                SweepSpec {
                    workloads: names(&[
                        "database",
                        "tpcw",
                        "specjbb2005",
                        "specjappserver2004",
                        "graph",
                    ]),
                    prefetchers: roster(),
                    cores: Vec::new(),
                    scale: Scale { seed, ..base },
                },
                DEFAULT_MEM_BUDGET_BYTES,
                false,
            ),
            Kind::Stream => {
                // Ten times the quick trace on the quick machine; the
                // self-test keeps the quick length and shrinks the
                // budget instead, so it still takes the streamed path.
                let (scale, budget) = match size {
                    Size::Standard => (
                        Scale {
                            den: 16,
                            warm_tenths: 350,
                            measure_tenths: 100,
                            seed,
                        },
                        64 << 20,
                    ),
                    Size::Quick => (
                        Scale {
                            seed,
                            ..Scale::quick()
                        },
                        4 << 20,
                    ),
                };
                (
                    SweepSpec {
                        workloads: names(&["database"]),
                        prefetchers: names(&["none", "ebcp"]),
                        cores: Vec::new(),
                        scale,
                    },
                    budget,
                    true,
                )
            }
            Kind::Cmp => (
                SweepSpec {
                    workloads: names(&["database"]),
                    prefetchers: roster(),
                    cores: vec![8],
                    scale: Scale { seed, ..base },
                },
                DEFAULT_MEM_BUDGET_BYTES,
                false,
            ),
        };
        let mut submitted = grid.clone();
        if plant_mismatch {
            for name in &mut submitted.prefetchers {
                if name == "ebcp" {
                    *name = "stream".into();
                }
            }
        }
        Workload {
            kind,
            size,
            seed,
            grid,
            submitted,
            mem_budget_bytes,
            trace_store,
        }
    }

    /// The harness configuration for a phase over `store`.
    pub fn harness_config(&self, store: PathBuf) -> HarnessConfig {
        HarnessConfig {
            jobs: WORKERS,
            mem_budget_bytes: self.mem_budget_bytes,
            store_dir: Some(store),
            progress: false,
            lockstep: true,
            trace_store: self.trace_store,
        }
    }

    /// The checked cells, in submission order.
    pub fn cells(&self) -> Cells {
        cells_of(self.kind, &self.grid)
    }

    /// The cells the harness is handed.
    pub fn submitted_cells(&self) -> Cells {
        cells_of(self.kind, &self.submitted)
    }
}

fn cells_of(kind: Kind, grid: &SweepSpec) -> Cells {
    match kind {
        Kind::Sweep | Kind::Stream => Cells::Single(grid.jobs().expect("benchmark grid resolves")),
        Kind::Cmp => Cells::Cmp(grid.cmp_jobs().expect("benchmark CMP grid resolves")),
    }
}

/// A grid expanded into harness cells.
pub enum Cells {
    Single(Vec<Job>),
    Cmp(Vec<CmpJob>),
}

impl Cells {
    pub fn labels(&self) -> Vec<String> {
        match self {
            Cells::Single(j) => j.iter().map(Job::label).collect(),
            Cells::Cmp(j) => j.iter().map(CmpJob::label).collect(),
        }
    }
}

/// A cell's outcome reduced to what the checks compare: the digest of
/// its result, or why it failed.
pub type CellDigest = Result<u64, String>;

/// Digest of a single-core result: FNV-1a over the result store's
/// canonical JSON encoding, so every field of the result is covered.
pub fn digest(r: &SimResult) -> u64 {
    fnv1a64(result_to_json(r).to_json().as_bytes())
}

/// Digest of a CMP result (every core and the aggregate).
pub fn cmp_digest(r: &CmpResult) -> u64 {
    fnv1a64(cmp_result_to_json(r).to_json().as_bytes())
}

const PINS: &str = include_str!("../pins.txt");

/// The pinned digests for this workload, if its size and seed were
/// pinned: one per cell, in submission order.
pub fn pinned(w: &Workload) -> Option<Vec<u64>> {
    if w.seed != DEFAULT_SEED {
        return None;
    }
    let labels = w.cells().labels();
    let mut found = vec![None; labels.len()];
    for line in PINS
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut parts = line.splitn(4, '\t');
        let (Some(size), Some(kind), Some(label), Some(hex)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            panic!("malformed pins.txt line: {line:?}");
        };
        if size != w.size.name() || kind != w.kind.name() {
            continue;
        }
        if let Some(i) = labels.iter().position(|l| l == label) {
            found[i] = Some(u64::from_str_radix(hex, 16).expect("pins.txt digest is hex"));
        }
    }
    found.into_iter().collect()
}

/// Renders `digests` as `pins.txt` lines for this workload.
pub fn pin_lines(w: &Workload, digests: &[u64]) -> String {
    w.cells()
        .labels()
        .iter()
        .zip(digests)
        .map(|(label, d)| format!("{}\t{}\t{label}\t{d:016x}\n", w.size.name(), w.kind.name()))
        .collect()
}

/// The expected digest of every cell, computed through the simulator's
/// public entry points without the harness: per workload one front-end
/// pass and one lockstep replay of the roster; the streamed workload
/// through the pipelined segment path; CMP cells one discrete-event
/// run each over shared per-core streams. Work is spread over
/// [`WORKERS`] threads by `Harness::map`.
pub fn reference(w: &Workload) -> Vec<u64> {
    let pool = Harness::new(HarnessConfig {
        jobs: WORKERS,
        ..HarnessConfig::default()
    });
    match w.cells() {
        Cells::Single(jobs) if w.kind == Kind::Stream => {
            let spec = &jobs[0].spec;
            let program = Arc::new(WorkloadProgram::build(&spec.workload));
            let seg = ebcp_harness::source::seg_records_for_budget(w.mem_budget_bytes);
            jobs.iter()
                .map(|j| digest(&run_pipelined(spec, Arc::clone(&program), seg, &j.pf)))
                .collect()
        }
        Cells::Single(jobs) => {
            let units: Vec<&[Job]> = jobs.chunk_by(|a, b| a.spec == b.spec).collect();
            pool.map(&units, |unit| {
                let spec = &unit[0].spec;
                let pre = spec.pre_resolve();
                let pfs: Vec<_> = unit.iter().map(|j| j.pf.clone()).collect();
                spec.run_preresolved_many(&pre, &pfs)
                    .into_iter()
                    .map(|r| digest(&r.expect("reference lane completes")))
                    .collect::<Vec<_>>()
            })
            .concat()
        }
        Cells::Cmp(jobs) => {
            let spec = &jobs[0].spec;
            assert!(
                jobs.iter().all(|j| j.spec == *spec),
                "CMP grid has one cell spec"
            );
            let streams = spec.pre_resolve_cores();
            let refs: Vec<_> = streams.iter().collect();
            pool.map(&jobs, |j| cmp_digest(&spec.run_streams(&refs, &j.pf)))
        }
    }
}

/// Compares observed cell digests with the expected ones; returns the
/// number of mismatching or failed cells and prints each.
pub fn count_failures(what: &str, labels: &[String], got: &[CellDigest], want: &[u64]) -> u64 {
    let mut failed = 0;
    for ((label, g), w) in labels.iter().zip(got).zip(want) {
        match g {
            Ok(d) if d == w => {}
            Ok(d) => {
                failed += 1;
                eprintln!("MISMATCH {what}: {label}: digest {d:016x}, expected {w:016x}");
            }
            Err(reason) => {
                failed += 1;
                eprintln!("FAILED {what}: {label}: {reason}");
            }
        }
    }
    failed
}
