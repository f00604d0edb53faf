//! The traced run: the same cells re-driven single-threaded through
//! each layer's public functions, with a span recorded around every
//! call into a layer and a timing decorator around every prefetcher.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use ebcp_harness::{preres, traces, CmpJob, Job, ResultStore};
use ebcp_prefetch::{Action, MissInfo, PrefetchHitInfo, Prefetcher};
use ebcp_sim::{
    CmpEngine, CmpResult, Engine, Lockstep, PreEvent, PreResolved, PreResolver, ReplayCursor,
    RunSpec, SimResult,
};
use ebcp_trace::{Backing, SegmentedTrace, TraceGenerator, TraceSink};
use ebcp_types::Cycle;

use crate::grid::{cmp_digest, digest, Cells, Kind, Workload};

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer.
struct Span {
    name: &'static str,
    /// The span this one ran inside (the call that caused it).
    parent: Option<usize>,
    start: Instant,
    dur: Duration,
}

/// In-memory span recorder; aggregated when the run ends.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Opens a span named `name` inside the innermost open span.
    fn enter(&mut self, name: &'static str) {
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            parent: self.open.iter().rev().nth(1).copied(),
            start: Instant::now(),
            dur: Duration::ZERO,
        });
    }

    /// Closes the innermost open span.
    fn exit(&mut self) {
        let idx = self.open.pop().expect("a span is open");
        self.spans[idx].dur = self.spans[idx].start.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |t, s| t + s.dur.as_secs_f64())
    }

    /// Per name: span count, total seconds and self seconds (total
    /// minus the time covered by child spans), in name order.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur.as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur.as_secs_f64();
            e.2 += s.dur.as_secs_f64() - c;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Prefetcher timing decorator

/// Hook counters shared between a decorated prefetcher and the run.
#[derive(Default)]
pub struct HookStats {
    ns: Cell<u64>,
    calls: Cell<u64>,
    actions: Cell<u64>,
}

impl HookStats {
    fn record(&self, t: Instant, actions: usize) {
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        self.actions.set(self.actions.get() + actions as u64);
    }

    fn add(&self, o: &HookStats) {
        self.ns.set(self.ns.get() + o.ns.get());
        self.calls.set(self.calls.get() + o.calls.get());
        self.actions.set(self.actions.get() + o.actions.get());
    }

    fn secs(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }
}

/// Times every hook of the prefetcher it wraps and counts the actions
/// each returns; otherwise forwards everything, so results are
/// unchanged.
struct Timed {
    inner: Box<dyn Prefetcher>,
    stats: Rc<HookStats>,
}

fn timed(inner: Box<dyn Prefetcher>, stats: &Rc<HookStats>) -> Box<dyn Prefetcher> {
    Box::new(Timed {
        inner,
        stats: Rc::clone(stats),
    })
}

impl Prefetcher for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_miss(&mut self, info: &MissInfo, out: &mut Vec<Action>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_miss(info, out);
        self.stats.record(t, out.len().saturating_sub(n));
    }

    fn on_prefetch_hit(&mut self, info: &PrefetchHitInfo, out: &mut Vec<Action>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_prefetch_hit(info, out);
        self.stats.record(t, out.len().saturating_sub(n));
    }

    fn on_epoch_end(&mut self, now: Cycle, out: &mut Vec<Action>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_epoch_end(now, out);
        self.stats.record(t, out.len().saturating_sub(n));
    }

    fn on_table_done(&mut self, token: u64, now: Cycle, out: &mut Vec<Action>) {
        let (n, t) = (out.len(), Instant::now());
        self.inner.on_table_done(token, now, out);
        self.stats.record(t, out.len().saturating_sub(n));
    }

    fn on_table_dropped(&mut self, token: u64) {
        let t = Instant::now();
        self.inner.on_table_dropped(token);
        self.stats.record(t, 0);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn reset_aux_stats(&mut self) {
        self.inner.reset_aux_stats();
    }
}

// ---------------------------------------------------------------------------
// Replay over blocks

/// A back end that replays pre-resolved events: one engine or a
/// lockstep group.
trait Replay {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64);
    fn reset_stats(&mut self);
}

impl Replay for Engine {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        self.replay_events(events, cur, budget);
    }
    fn reset_stats(&mut self) {
        Engine::reset_stats(self);
    }
}

impl Replay for Lockstep {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        Lockstep::replay(self, events, cur, budget);
    }
    fn reset_stats(&mut self) {
        Lockstep::reset_stats(self);
    }
}

/// The warm-up/measure protocol of `ebcp_sim::run_preresolved_blocks`,
/// fed one block at a time (a whole stream is one block).
struct Protocol {
    warm_left: u64,
    meas_left: u64,
}

impl Protocol {
    fn start(spec: &RunSpec, r: &mut impl Replay) -> Protocol {
        if spec.warmup_insts == 0 {
            r.reset_stats();
        }
        Protocol {
            warm_left: spec.warmup_insts,
            meas_left: spec.measure_insts,
        }
    }

    /// Replays one block; true once the measurement is complete.
    fn feed(&mut self, r: &mut impl Replay, events: &[PreEvent], records: u64) -> bool {
        let mut cur = ReplayCursor::default();
        let mut left = records;
        if self.warm_left > 0 {
            let take = self.warm_left.min(left);
            r.replay(events, &mut cur, take);
            self.warm_left -= take;
            left -= take;
            if self.warm_left > 0 {
                return false;
            }
            r.reset_stats();
        }
        let take = self.meas_left.min(left);
        r.replay(events, &mut cur, take);
        self.meas_left -= take;
        self.meas_left == 0
    }
}

/// Where a unit's pre-resolved blocks come from.
enum Blocks<'a> {
    /// A whole stream in memory.
    Memory(&'a PreResolved),
    /// A segmented stream in the store, read block by block.
    Disk(&'a Path, &'a Job),
}

impl Blocks<'_> {
    /// Feeds every block to `f` until it reports completion. Disk reads
    /// are recorded as `preres.reread`, apart from the one measured
    /// read pass.
    fn each(&self, tr: &mut Tracer, mut f: impl FnMut(&mut Tracer, &[PreEvent], u64) -> bool) {
        match self {
            Blocks::Memory(pre) => {
                f(tr, &pre.events, pre.records);
            }
            Blocks::Disk(dir, job) => {
                let mut stream = tr.span("preres.reread", |_| {
                    preres::open_stream_checked(dir, job)
                        .into_hit()
                        .expect("freshly written stream reopens")
                });
                for k in 0..stream.n_segments() {
                    let b = tr.span("preres.reread", |_| stream.block(k).expect("block read"));
                    if f(tr, &b.events, b.records) {
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The run

/// Everything the traced run measured.
#[derive(Default)]
pub struct Traced {
    pub tracer: Tracer,
    /// Per checked variant, the digest of every cell in grid order.
    pub variants: Vec<(&'static str, Vec<u64>)>,
    /// Hook counters of the serial (or CMP) decorated runs, per lane.
    pub hooks: BTreeMap<String, HookStats>,
    pub records_generated: u64,
    pub records_resolved: u64,
    pub events: u64,
    /// Records replayed, summed over serial lanes / CMP cores x cells.
    pub lane_records: u64,
    pub seg_bytes: u64,
    pub preres_bytes: u64,
    pub store_entries: u64,
    pub model: Model,
}

/// The modelled machine's figures for the `ebcp` lane (vs `none`),
/// averaged over the grid's workloads.
#[derive(Default)]
pub struct Model {
    pub cpi: f64,
    pub epochs_per_kinst: f64,
    pub coverage: f64,
    pub accuracy: f64,
    pub read_bus_util: f64,
    pub table_reads: u64,
    pub table_read_drops: u64,
    pub ebcp_improvement: f64,
    units: u64,
}

impl Model {
    fn add(&mut self, ebcp: &SimResult, mean_cpi: f64, improvement: f64) {
        self.cpi += mean_cpi;
        self.epochs_per_kinst += ebcp.epi_per_kilo();
        self.coverage += ebcp.coverage();
        self.accuracy += ebcp.accuracy();
        self.read_bus_util += ebcp.read_bus_utilization();
        self.table_reads += ebcp.table_reads;
        self.table_read_drops += ebcp.table_read_drops;
        self.ebcp_improvement += improvement;
        self.units += 1;
    }

    fn finish(&mut self) {
        let n = self.units.max(1) as f64;
        self.cpi /= n;
        self.epochs_per_kinst /= n;
        self.coverage /= n;
        self.accuracy /= n;
        self.read_bus_util /= n;
        self.ebcp_improvement /= n;
    }
}

struct Run<'a> {
    w: &'a Workload,
    dir: &'a Path,
    store: ResultStore,
    variants: BTreeMap<&'static str, Vec<u64>>,
    out: Traced,
}

/// Runs the traced decomposition of `w` in `dir` (which it fills and
/// leaves for the caller to remove).
pub fn run(w: &Workload, dir: &Path) -> Traced {
    let mut run = Run {
        w,
        dir,
        store: ResultStore::open(dir).expect("traced store opens"),
        variants: BTreeMap::new(),
        out: Traced::default(),
    };
    match w.cells() {
        Cells::Single(jobs) => {
            let units: Vec<&[Job]> = jobs.chunk_by(|a, b| a.spec == b.spec).collect();
            for (u, unit) in units.iter().enumerate() {
                run.out.tracer.enter("unit");
                run.single_unit(u, unit);
                run.out.tracer.exit();
            }
        }
        Cells::Cmp(jobs) => {
            run.out.tracer.enter("unit");
            run.cmp_cells(&jobs);
            run.out.tracer.exit();
        }
    }
    run.out.model.finish();
    let order = [
        "serial",
        "lockstep-plain",
        "lockstep",
        "cmp",
        "cmp-plain",
        "store",
    ];
    for name in order {
        if let Some(v) = run.variants.remove(name) {
            run.out.variants.push((name, v));
        }
    }
    run.out
}

impl Run<'_> {
    fn push(&mut self, variant: &'static str, d: u64) {
        self.variants.entry(variant).or_default().push(d);
    }

    fn lane_stats(&mut self, name: String, stats: &HookStats) {
        self.out.hooks.entry(name).or_default().add(stats);
    }

    /// Generation and front-end pass over `spec`'s trace, in memory.
    fn front_end(&mut self, spec: &RunSpec) -> PreResolved {
        let tr = &mut self.out.tracer;
        let mut gen = tr.span("trace.gen", |_| {
            TraceGenerator::new(&spec.workload, spec.seed)
        });
        let mut pr = PreResolver::new(&spec.sim);
        let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
        let mut left = spec.warmup_insts + spec.measure_insts;
        while left > 0 {
            let want = (Engine::CHUNK_RECORDS as u64).min(left) as usize;
            let got = tr.span("trace.gen", |_| gen.next_chunk(&mut chunk, want));
            if got == 0 {
                break;
            }
            tr.span("frontend.resolve", |_| pr.push_chunk(&chunk));
            left -= got as u64;
        }
        let pre = tr.span("frontend.resolve", |_| pr.finish());
        self.out.records_generated += pre.records;
        self.out.records_resolved += pre.records;
        self.out.events += pre.events.len() as u64;
        pre
    }

    /// Writes and reads back `pre` as `job`'s cached stream.
    fn preres_round_trip(&mut self, job: &Job, pre: &PreResolved) {
        let dir = self.dir;
        self.out.tracer.span("preres.write", |_| {
            preres::save(dir, job, pre).expect("preres save");
        });
        let back = self
            .out
            .tracer
            .span("preres.read", |_| preres::load_checked(dir, job));
        assert!(
            back.into_hit().as_ref() == Some(pre),
            "pre-resolved stream round-trips"
        );
        self.out.preres_bytes += file_len(&preres::path_for(dir, job));
    }

    /// The streamed path: generate into a segmented trace file, resolve
    /// from its mmap'd windows into a segmented stream file.
    fn stream_to_disk(&mut self, job: &Job) {
        let spec = &job.spec;
        let dir = self.dir;
        let seg = ebcp_harness::seg_records_for_budget(self.w.mem_budget_bytes);
        let path = traces::path_for(dir, spec);
        let meta = traces::trace_canonical(spec);
        let total = spec.warmup_insts + spec.measure_insts;
        let tr = &mut self.out.tracer;

        fs::create_dir_all(path.parent().expect("trace path has a parent")).expect("trace dir");
        let mut gen = tr.span("trace.gen", |_| {
            TraceGenerator::new(&spec.workload, spec.seed)
        });
        let mut sink = tr.span("trace.seg_write", |_| {
            TraceSink::create(&path, meta.as_bytes(), seg).expect("trace sink")
        });
        let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
        let mut left = total;
        while left > 0 {
            let want = (Engine::CHUNK_RECORDS as u64).min(left) as usize;
            let got = tr.span("trace.gen", |_| gen.next_chunk(&mut chunk, want));
            if got == 0 {
                break;
            }
            tr.span("trace.seg_write", |_| {
                sink.push_chunk(&chunk).expect("trace write")
            });
            left -= got as u64;
        }
        let written = tr.span("trace.seg_write", |_| sink.finish().expect("trace publish"));
        self.out.records_generated += written;
        self.out.seg_bytes += file_len(&path);

        let mut src = tr.span("trace.seg_read", |_| {
            SegmentedTrace::open(&path, meta.as_bytes(), Backing::Mmap).expect("trace opens")
        });
        let mut writer = tr.span("preres.write", |_| {
            preres::PreresWriter::create(dir, job, seg).expect("preres writer")
        });
        let mut pr = PreResolver::new(&spec.sim);
        let mut left = total;
        let mut blocks = 0;
        while left > 0 {
            let room = seg - pr.pending_records();
            let want = (Engine::CHUNK_RECORDS as u64).min(left).min(room) as usize;
            let got = tr.span("trace.seg_read", |_| src.next_chunk(&mut chunk, want));
            if got == 0 {
                break;
            }
            tr.span("frontend.resolve", |_| pr.push_chunk(&chunk));
            left -= got as u64;
            if pr.pending_records() == seg || left == 0 {
                let b = tr.span("frontend.resolve", |_| pr.split_block());
                self.out.events += b.events.len() as u64;
                self.out.records_resolved += b.records;
                tr.span("preres.write", |_| {
                    writer
                        .push_block(&b.events, b.records)
                        .expect("preres block")
                });
                blocks += 1;
            }
        }
        assert!(blocks > 0, "the streamed trace is not empty");
        tr.span("preres.write", |_| writer.finish().expect("preres publish"));
        self.out.preres_bytes += file_len(&preres::path_for(dir, job));

        // One measured read pass: open (which validates every segment)
        // and read every block.
        tr.span("preres.read", |_| {
            let mut s = preres::open_stream_checked(dir, job)
                .into_hit()
                .expect("stream validates");
            for k in 0..s.n_segments() {
                std::hint::black_box(s.block(k).expect("block read"));
            }
        });
    }

    /// One single-core unit: every lane of one workload.
    fn single_unit(&mut self, u: usize, unit: &[Job]) {
        let spec = unit[0].spec.clone();
        let streamed = self.w.kind == Kind::Stream;
        let pre = if streamed {
            self.stream_to_disk(&unit[0]);
            None
        } else {
            let pre = self.front_end(&spec);
            self.preres_round_trip(&unit[0], &pre);
            Some(pre)
        };
        let dir = self.dir;
        let blocks = match &pre {
            Some(p) => Blocks::Memory(p),
            None => Blocks::Disk(dir, &unit[0]),
        };

        // Serial: one decorated engine per lane.
        let mut serial = Vec::new();
        for job in unit {
            let stats = Rc::new(HookStats::default());
            let mut engine = self.out.tracer.span("engine.replay", |_| {
                Engine::new(spec.sim, timed(job.pf.build(), &stats))
            });
            let mut proto = Protocol::start(&spec, &mut engine);
            blocks.each(&mut self.out.tracer, |tr, ev, n| {
                tr.span("engine.replay", |_| proto.feed(&mut engine, ev, n))
            });
            let r = engine.result(&spec.workload.name);
            self.out.lane_records += spec.warmup_insts + spec.measure_insts;
            self.lane_stats(job.pf.name(), &stats);
            serial.push(r);
        }

        // Lockstep over the same lanes, plain and decorated, alternating
        // which runs first so neither always meets a cold host cache.
        let plain_first = u.is_multiple_of(2);
        for pass in 0..2 {
            let decorated = (pass == 0) != plain_first;
            let (span, variant) = if decorated {
                ("lockstep.replay", "lockstep")
            } else {
                ("lockstep.plain", "lockstep-plain")
            };
            let sink = Rc::new(HookStats::default());
            let mut group = self.out.tracer.span(span, |_| {
                Lockstep::new(
                    unit.iter()
                        .map(|j| {
                            let pf = j.pf.build();
                            let pf = if decorated { timed(pf, &sink) } else { pf };
                            Engine::new(spec.sim, pf)
                        })
                        .collect(),
                )
            });
            let mut proto = Protocol::start(&spec, &mut group);
            blocks.each(&mut self.out.tracer, |tr, ev, n| {
                tr.span(span, |_| proto.feed(&mut group, ev, n))
            });
            for r in group.results(&spec.workload.name) {
                self.push(variant, digest(&r.expect("lockstep lane completes")));
            }
        }

        for (job, r) in unit.iter().zip(&serial) {
            self.push("serial", digest(r));
            self.store_round_trip(job, r);
        }
        let find = |name: &str| {
            unit.iter()
                .position(|j| j.pf.name() == name)
                .map(|i| &serial[i])
        };
        if let (Some(e), Some(n)) = (find("ebcp"), find("none")) {
            self.out.model.add(e, e.cpi(), e.improvement_over(n));
        }
    }

    fn store_round_trip(&mut self, job: &Job, r: &SimResult) {
        let store = &self.store;
        self.out
            .tracer
            .span("store.write", |_| store.save(job, r).expect("result save"));
        let back = self
            .out
            .tracer
            .span("store.read", |_| store.load_checked(job));
        let d = back.into_hit().map_or(0, |b| digest(&b));
        self.push("store", d);
        self.out.store_entries += 1;
    }

    /// The CMP grid: per-core streams once, then one discrete-event run
    /// per cell, decorated and plain.
    fn cmp_cells(&mut self, jobs: &[CmpJob]) {
        let spec = jobs[0].spec.clone();
        let mut streams = Vec::new();
        for k in 0..spec.cores() {
            let pre = self.front_end(&spec.core_run_spec(k));
            self.preres_round_trip(&jobs[0].core_job(k), &pre);
            streams.push(pre);
        }
        let refs: Vec<&PreResolved> = streams.iter().collect();
        let mut results: Vec<CmpResult> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let stats = Rc::new(HookStats::default());
            let mut traced = None;
            for pass in 0..2 {
                let decorated = (pass == 0) == i.is_multiple_of(2);
                let pf = job.pf.build();
                if decorated {
                    let r = self.out.tracer.span("cmp.replay", |_| {
                        CmpEngine::new(spec.sim, spec.cores(), timed(pf, &stats)).run_streams(
                            &refs,
                            spec.warmup_insts,
                            spec.measure_insts,
                            &spec.name,
                        )
                    });
                    traced = Some(r);
                } else {
                    let r = self.out.tracer.span("cmp.plain", |_| {
                        CmpEngine::new(spec.sim, spec.cores(), pf).run_streams(
                            &refs,
                            spec.warmup_insts,
                            spec.measure_insts,
                            &spec.name,
                        )
                    });
                    self.push("cmp-plain", cmp_digest(&r));
                }
            }
            let r = traced.expect("decorated pass ran");
            self.push("cmp", cmp_digest(&r));
            self.lane_stats(job.pf.name(), &stats);
            self.out.lane_records += job.records();
            let store = &self.store;
            self.out.tracer.span("store.write", |_| {
                store.save_cmp(job, &r).expect("CMP result save")
            });
            let back = self
                .out
                .tracer
                .span("store.read", |_| store.load_checked_cmp(job));
            self.push("store", back.into_hit().map_or(0, |b| cmp_digest(&b)));
            self.out.store_entries += 1;
            results.push(r);
        }
        let find = |name: &str| {
            jobs.iter()
                .position(|j| j.pf.name() == name)
                .map(|i| &results[i])
        };
        if let (Some(e), Some(n)) = (find("ebcp"), find("none")) {
            self.out
                .model
                .add(&e.aggregate, e.mean_cpi(), e.improvement_over(n));
        }
    }
}

fn file_len(p: &Path) -> u64 {
    fs::metadata(p).map_or(0, |m| m.len())
}

/// Hook counters summed over lanes.
pub fn hook_total(hooks: &BTreeMap<String, HookStats>) -> (f64, u64, u64) {
    hooks.values().fold((0.0, 0, 0), |(s, c, a), h| {
        (s + h.secs(), c + h.calls.get(), a + h.actions.get())
    })
}

/// A lane's hook seconds and calls.
pub fn hook_lane(hooks: &BTreeMap<String, HookStats>, name: &str) -> (f64, u64) {
    hooks
        .get(name)
        .map_or((0.0, 0), |h| (h.secs(), h.calls.get()))
}
