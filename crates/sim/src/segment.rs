//! Segment-at-a-time and segment-parallel execution.
//!
//! The large trace tier cannot afford `run_preresolved`'s contract of
//! one materialized event stream per job. This module replays a job
//! from bounded [`PreBlock`]s instead, in three modes:
//!
//! * [`run_preresolved_blocks`] — **serial, exact**: one engine
//!   consumes blocks back to back. State handoff between segments is
//!   complete by construction (it is the same engine), so the result
//!   is byte-identical to replaying the unsplit stream; peak memory is
//!   O(block).
//! * [`run_stream_pipeline`] — **two-stage pipeline, exact**: a
//!   producer thread pulls trace chunks from a [`ChunkSource`] while
//!   the calling thread resolves each chunk, hands the complete entries
//!   to a [`SegmentSink`] (the harness's on-disk stream writer, or
//!   nothing) and replays them at once on one engine or a lockstep
//!   group. Same computation as the serial mode (the channel preserves
//!   order, the cut is entry-aligned and the engine is continuous),
//!   with trace production overlapped and no segment-sized buffer
//!   resident. [`run_pipelined`] is its one-lane, no-sink form.
//! * [`run_scatter`] / [`run_scatter_with`] — **segment-parallel,
//!   documented tolerance**: blocks that intersect the measured region
//!   are handled by independent workers, each warming on the `overlap`
//!   preceding blocks from a cold engine, and the per-block statistic
//!   deltas are spliced with [`SimResult::accumulate`]. Handoff here is
//!   *incomplete* — a worker reconstructs cache/MSHR/prefetcher state
//!   by replaying the overlap window rather than receiving the exact
//!   state — so results approximate the monolithic run within a
//!   tolerance that shrinks as `overlap` grows (the equivalence battery
//!   pins the tolerance; DESIGN.md §3f has the rationale). Output is
//!   deterministic for a given (blocks, overlap) regardless of thread
//!   count and scheduling. This is the ≥2-worker configuration that
//!   beats a single worker on wall-clock: workers skip the serial
//!   replay of every block before their overlap window, so a long
//!   warm-up prefix — the bulk of a large-tier trace — costs each
//!   worker only its overlap replays.
//!
//! Budget arithmetic: `Engine::replay_events` consumes exactly
//! `min(budget, records remaining in the block)` instructions, so the
//! warm-up/measure boundary is tracked arithmetically without querying
//! the engine — including when the boundary lands mid-gap (the cursor
//! resumes from the exact record). [`ReplayFeeder`] is that protocol,
//! shared by the block replays and the pipeline.

use std::borrow::Borrow;
use std::io;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::{ChunkSource, TraceGenerator, TraceRecord};

use crate::engine::Engine;
use crate::frontend::{PreBlock, PreEvent, PreResolver, ReplayCursor};
use crate::lockstep::Lockstep;
use crate::metrics::SimResult;
use crate::runner::{PrefetcherSpec, RunSpec};

/// A back end that replays pre-resolved events: one [`Engine`], or a
/// [`Lockstep`] group of them sharing one cursor.
pub trait ReplayTarget {
    /// Replays up to `budget` records of `events` from `cur`.
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64);
    /// Zeroes the measurement counters (the warm-up/measure boundary).
    fn reset_stats(&mut self);
}

impl ReplayTarget for Engine {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        self.replay_events(events, cur, budget);
    }
    fn reset_stats(&mut self) {
        Engine::reset_stats(self);
    }
}

impl ReplayTarget for Lockstep {
    fn replay(&mut self, events: &[PreEvent], cur: &mut ReplayCursor, budget: u64) {
        Lockstep::replay(self, events, cur, budget);
    }
    fn reset_stats(&mut self) {
        Lockstep::reset_stats(self);
    }
}

/// The warm-up/measure protocol, fed one entry-aligned slice at a time:
/// the first `warmup_insts` records only warm the target, its counters
/// are reset at the boundary (which may land mid-slice, even mid-gap),
/// and the next `measure_insts` records are measured. Anything fed
/// after that is ignored.
///
/// Each slice replays from a fresh [`ReplayCursor`]. That is exact for
/// any entry-aligned cut of the stream — a [`PreBlock`], or a prefix
/// moved out by [`PreResolver::take_events`] — because the target's
/// state carries across calls and a slice's entries stand for whole
/// records.
pub struct ReplayFeeder<T> {
    target: T,
    warm_left: u64,
    meas_left: u64,
}

impl<T: ReplayTarget> ReplayFeeder<T> {
    /// A feeder for `spec`'s warm-up and measure budgets.
    pub fn new(spec: &RunSpec, mut target: T) -> Self {
        if spec.warmup_insts == 0 {
            target.reset_stats();
        }
        ReplayFeeder {
            target,
            warm_left: spec.warmup_insts,
            meas_left: spec.measure_insts,
        }
    }

    /// Replays one slice of `events` standing for `records` records.
    /// Returns whether the measured region is complete.
    pub fn feed(&mut self, events: &[PreEvent], records: u64) -> bool {
        if self.meas_left == 0 && self.warm_left == 0 {
            return true;
        }
        let mut cur = ReplayCursor::default();
        let mut left = records;
        if self.warm_left > 0 {
            let take = self.warm_left.min(left);
            self.target.replay(events, &mut cur, take);
            self.warm_left -= take;
            left -= take;
            if self.warm_left > 0 {
                return false;
            }
            self.target.reset_stats();
        }
        let take = self.meas_left.min(left);
        self.target.replay(events, &mut cur, take);
        self.meas_left -= take;
        self.meas_left == 0
    }

    /// The target, for its results.
    pub fn into_inner(self) -> T {
        self.target
    }
}

/// Replays `blocks` back to back on one engine — byte-identical to
/// [`RunSpec::run_preresolved`] over the concatenated stream, with peak
/// memory bounded by the largest block (plus the engine).
///
/// `blocks` must cover at least `warmup + measure` records of the
/// spec's trace, resolved under `spec.sim`'s L1 geometries (the
/// harness enforces the geometry via the stream cache's canonical
/// string; [`crate::frontend::segment_events`] and
/// [`crate::frontend::PreResolver::split_block`] both preserve it).
pub fn run_preresolved_blocks<I, B>(spec: &RunSpec, blocks: I, pf: &PrefetcherSpec) -> SimResult
where
    I: IntoIterator<Item = B>,
    B: Borrow<PreBlock>,
{
    replay_blocks(spec, blocks, Engine::new(spec.sim, pf.build())).result(&spec.workload.name)
}

/// [`run_preresolved_blocks`] for a whole prefetcher roster in one
/// lockstep pass per block — each lane byte-identical to its own serial
/// block replay (and therefore to its monolithic replay), with the same
/// per-lane fault isolation as [`RunSpec::run_preresolved_many`].
pub fn run_preresolved_blocks_many<I, B>(
    spec: &RunSpec,
    blocks: I,
    pfs: &[PrefetcherSpec],
) -> Vec<Result<SimResult, String>>
where
    I: IntoIterator<Item = B>,
    B: Borrow<PreBlock>,
{
    replay_blocks(spec, blocks, lockstep_lanes(spec, pfs)).results(&spec.workload.name)
}

/// One lockstep lane per prefetcher on `spec`'s machine.
pub fn lockstep_lanes(spec: &RunSpec, pfs: &[PrefetcherSpec]) -> Lockstep {
    Lockstep::new(
        pfs.iter()
            .map(|pf| Engine::new(spec.sim, pf.build()))
            .collect(),
    )
}

/// Feeds `blocks` to `target` in order through a [`ReplayFeeder`],
/// stopping once the measured region is complete.
pub fn replay_blocks<I, B, T>(spec: &RunSpec, blocks: I, target: T) -> T
where
    I: IntoIterator<Item = B>,
    B: Borrow<PreBlock>,
    T: ReplayTarget,
{
    let mut feeder = ReplayFeeder::new(spec, target);
    for block in blocks {
        let block = block.borrow();
        if feeder.feed(&block.events, block.records) {
            break;
        }
    }
    feeder.into_inner()
}

/// Where [`run_stream_pipeline`] writes the pre-resolved stream as it is
/// produced: complete entries as they resolve, and a segment close at
/// every segment boundary. The harness's on-disk stream writer is one;
/// `()` discards the stream.
pub trait SegmentSink {
    /// Appends entries to the open segment.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O failures.
    fn push_events(&mut self, events: &[PreEvent]) -> io::Result<()>;
    /// Closes the open segment, which stands for `records` records.
    ///
    /// # Errors
    ///
    /// Propagates the sink's I/O failures.
    fn end_segment(&mut self, records: u64) -> io::Result<()>;
}

impl SegmentSink for () {
    fn push_events(&mut self, _: &[PreEvent]) -> io::Result<()> {
        Ok(())
    }
    fn end_segment(&mut self, _: u64) -> io::Result<()> {
        Ok(())
    }
}

/// Depth of the producer→worker chunk channel: enough to hide producer
/// jitter, small enough that resident chunks stay a handful.
const PIPELINE_DEPTH: usize = 2;

/// Record buffers in flight: the channel's plus the one the producer
/// fills. The worker hands each buffer back as soon as its records are
/// resolved, so a further one would only sit idle.
const PIPELINE_BUFFERS: usize = PIPELINE_DEPTH + 1;

/// The streamed pipeline: a scoped producer thread pulls
/// [`Engine::CHUNK_RECORDS`]-record chunks of `spec`'s trace from `src`
/// and hands them over a bounded channel; the calling thread resolves
/// each chunk, appends the complete entries to `sink` and replays them
/// into `target` at once. Segments close every `seg_records` records
/// (the tail may run short; an empty trace is one empty segment).
///
/// Exact: the stream is cut only at entry boundaries, so the target's
/// results equal [`RunSpec::run_preresolved`]'s, and `sink` receives
/// the same entries and segments as splitting the stream into
/// `seg_records` blocks. Resident memory is the record buffers (all
/// allocated here, before the producer starts, and passed back and
/// forth) plus one chunk's entries — never a segment.
///
/// # Errors
///
/// Returns the sink's first I/O failure. The worker stops there and
/// drops its channel ends, so a producer blocked on either end wakes
/// with an error and exits before this returns.
///
/// # Panics
///
/// Panics if `seg_records` is zero. A panic on the producer (in `src`)
/// resumes on the calling thread after the producer is joined; a panic
/// on the calling thread (in `target` or `sink`) disconnects the
/// producer the same way as an error, so neither side can deadlock.
pub fn run_stream_pipeline<T: ReplayTarget>(
    spec: &RunSpec,
    src: &mut (dyn ChunkSource + Send),
    seg_records: u64,
    target: T,
    sink: &mut dyn SegmentSink,
) -> io::Result<T> {
    assert!(seg_records > 0, "segment length must be at least 1 record");
    let total = spec.warmup_insts + spec.measure_insts;
    std::thread::scope(|s| {
        let (full_tx, full_rx) = mpsc::sync_channel::<Vec<TraceRecord>>(PIPELINE_DEPTH);
        // Bounded too, so handing buffers back never allocates.
        let (empty_tx, empty_rx) = mpsc::sync_channel::<Vec<TraceRecord>>(PIPELINE_BUFFERS);
        for _ in 0..PIPELINE_BUFFERS {
            let _ = empty_tx.send(Vec::with_capacity(Engine::CHUNK_RECORDS));
        }
        let producer = s.spawn(move || produce(src, total, seg_records, &full_tx, &empty_rx));
        let fed = resolve_and_replay(spec, seg_records, target, sink, full_rx, empty_tx);
        // Both channel ends the worker held are gone, so the producer
        // has exited or is about to.
        if let Err(payload) = producer.join() {
            resume_unwind(payload);
        }
        fed
    })
}

/// The producer: chunks cut at segment boundaries, into the buffers the
/// worker hands back.
fn produce(
    src: &mut (dyn ChunkSource + Send),
    total: u64,
    seg_records: u64,
    full: &mpsc::SyncSender<Vec<TraceRecord>>,
    empty: &mpsc::Receiver<Vec<TraceRecord>>,
) {
    let mut left = total;
    let mut seg_fill = 0u64;
    while left > 0 {
        let Ok(mut chunk) = empty.recv() else {
            return; // the worker stopped
        };
        let want = (Engine::CHUNK_RECORDS as u64)
            .min(left)
            .min(seg_records - seg_fill) as usize;
        let got = src.next_chunk(&mut chunk, want) as u64;
        if got == 0 || full.send(chunk).is_err() {
            return;
        }
        left -= got;
        seg_fill = (seg_fill + got) % seg_records;
    }
}

/// The worker's side of [`run_stream_pipeline`]. Owns its channel ends,
/// so returning — or unwinding — disconnects the producer.
fn resolve_and_replay<T: ReplayTarget>(
    spec: &RunSpec,
    seg_records: u64,
    target: T,
    sink: &mut dyn SegmentSink,
    full: mpsc::Receiver<Vec<TraceRecord>>,
    empty: mpsc::SyncSender<Vec<TraceRecord>>,
) -> io::Result<T> {
    let mut pr = PreResolver::new(&spec.sim);
    let mut feeder = ReplayFeeder::new(spec, target);
    let mut slice = Vec::new();
    let mut segments = 0u64;
    for chunk in &full {
        pr.push_chunk(&chunk);
        // Fails only once the producer is done with the buffers.
        let _ = empty.send(chunk);
        let records = pr.take_events(&mut slice);
        sink.push_events(&slice)?;
        feeder.feed(&slice, records);
        slice.clear();
        if pr.pending_records() == seg_records {
            close_segment(&mut pr, &mut feeder, sink)?;
            segments += 1;
        }
    }
    if pr.pending_records() > 0 || segments == 0 {
        close_segment(&mut pr, &mut feeder, sink)?;
    }
    Ok(feeder.into_inner())
}

/// Closes the open segment: what [`PreResolver::take_events`] left —
/// the pending gap, as at most one filler — then the segment's record
/// count.
fn close_segment<T: ReplayTarget>(
    pr: &mut PreResolver,
    feeder: &mut ReplayFeeder<T>,
    sink: &mut dyn SegmentSink,
) -> io::Result<()> {
    let records = pr.pending_records();
    let tail = pr.split_block();
    sink.push_events(&tail.events)?;
    feeder.feed(&tail.events, tail.records);
    sink.end_segment(records)
}

/// Two-stage pipelined run without a stream cache: a producer thread
/// generates the trace while the calling thread resolves it and
/// replays the back end ([`run_stream_pipeline`] with one lane and no
/// sink). Exact — same computation as [`RunSpec::run_preresolved`] —
/// with generation overlapped and O(chunk) memory.
pub fn run_pipelined(
    spec: &RunSpec,
    program: Arc<WorkloadProgram>,
    seg_records: u64,
    pf: &PrefetcherSpec,
) -> SimResult {
    let mut gen = TraceGenerator::with_program(program, spec.workload.clone(), spec.seed);
    let engine = Engine::new(spec.sim, pf.build());
    run_stream_pipeline(spec, &mut gen, seg_records, engine, &mut ())
        .expect("a discarding sink cannot fail")
        .result(&spec.workload.name)
}

/// Segment-parallel scatter run over pre-cut blocks.
///
/// Every block whose records intersect the measured region is handled
/// by a worker that reconstructs warm state by replaying the `overlap`
/// preceding blocks (and the unmeasured prefix of its own block) on a
/// cold engine, then measures its block; the per-block deltas are
/// spliced in block order. Approximate — see the module docs — but
/// deterministic: the splice is ordered by block index, so the result
/// is independent of `threads` and scheduling.
///
/// # Panics
///
/// Panics if `threads` is zero or the blocks cover fewer than
/// `warmup + measure` records.
pub fn run_scatter(
    spec: &RunSpec,
    blocks: &[PreBlock],
    pf: &PrefetcherSpec,
    overlap: usize,
    threads: usize,
) -> SimResult {
    let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
    run_scatter_with(
        spec,
        &records,
        || |k: usize| &blocks[k],
        pf,
        overlap,
        threads,
    )
}

/// [`run_scatter`] over blocks fetched on demand instead of a
/// materialized slice, so the resident set stays O(segment × workers)
/// even when the block sequence itself would not fit in memory (a
/// 100× trace read back from a pre-resolved disk stream).
///
/// `block_records[k]` gives the record count of block `k` (streams
/// carry this in their index, so no block needs to be read to compute
/// the task set). `reader()` is called once per worker; the returned
/// closure must yield block `k` of the same logical stream for any
/// `k` a worker asks for — each worker holds at most one fetched block
/// at a time. [`run_scatter`] delegates here with a slice-borrowing
/// reader, so the two are splice-identical by construction.
///
/// # Panics
///
/// Panics if `threads` is zero or the blocks cover fewer than
/// `warmup + measure` records.
pub fn run_scatter_with<G, F, B>(
    spec: &RunSpec,
    block_records: &[u64],
    reader: G,
    pf: &PrefetcherSpec,
    overlap: usize,
    threads: usize,
) -> SimResult
where
    G: Fn() -> F + Sync,
    F: FnMut(usize) -> B,
    B: Borrow<PreBlock>,
{
    run_scatter_spans_with(
        spec,
        block_records,
        reader,
        pf,
        overlap,
        usize::MAX,
        threads,
    )
}

/// [`run_scatter_with`] with the splice granularity decoupled from the
/// block count: the blocks intersecting the measured region are
/// partitioned into at most `spans` contiguous spans, and each span is
/// one worker task — overlap warm-up replays once per *span*, then the
/// span's blocks replay continuously on the same engine (complete
/// handoff inside a span, exactly like the serial mode).
///
/// This is the knob that makes scatter profitable when the measured
/// region is wide: with one span per block, a region of `m` blocks
/// costs `m × (overlap + 1)` block replays — more than the serial
/// replay of the whole trace once `overlap + 1` exceeds the
/// trace-to-region ratio. A handful of spans costs
/// `m + spans × overlap` instead, while still skipping the serial
/// warm-up prefix that dominates a large-tier trace.
///
/// Fewer spans also means fewer cold-start seams, so the approximation
/// error only tightens as `spans` shrinks (at `spans == 1` with enough
/// overlap to reach the trace start, the run is the exact serial
/// replay). The result is deterministic for a given
/// `(blocks, overlap, spans)` — `threads` only changes wall-clock.
///
/// # Panics
///
/// Panics if `threads` or `spans` is zero or the blocks cover fewer
/// than `warmup + measure` records.
pub fn run_scatter_spans_with<G, F, B>(
    spec: &RunSpec,
    block_records: &[u64],
    reader: G,
    pf: &PrefetcherSpec,
    overlap: usize,
    spans: usize,
    threads: usize,
) -> SimResult
where
    G: Fn() -> F + Sync,
    F: FnMut(usize) -> B,
    B: Borrow<PreBlock>,
{
    assert!(threads > 0, "at least one worker");
    assert!(spans > 0, "at least one span");
    let covered: u64 = block_records.iter().sum();
    assert!(
        covered >= spec.warmup_insts + spec.measure_insts,
        "blocks cover {covered} records, spec needs {}",
        spec.warmup_insts + spec.measure_insts
    );
    // Absolute record offset of each block's first record.
    let starts: Vec<u64> = block_records
        .iter()
        .scan(0u64, |acc, r| {
            let s = *acc;
            *acc += r;
            Some(s)
        })
        .collect();
    let ws = spec.warmup_insts;
    let we = spec.warmup_insts + spec.measure_insts;
    // Blocks intersecting the measured region form one contiguous run.
    let measured: Vec<usize> = (0..block_records.len())
        .filter(|&k| starts[k] < we && starts[k] + block_records[k] > ws)
        .collect();
    let first = *measured.first().expect("at least one measured block");
    let n = measured.len();
    let spans_n = spans.min(n);
    // Near-equal contiguous partition of the measured run.
    let bounds: Vec<(usize, usize)> = (0..spans_n)
        .map(|i| (first + i * n / spans_n, first + (i + 1) * n / spans_n - 1))
        .collect();

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<SimResult>>> = Mutex::new(vec![None; bounds.len()]);
    let workers = threads.min(bounds.len());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut fetch = reader();
                loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= bounds.len() {
                        return;
                    }
                    let (a, b) = bounds[t];
                    let mut engine = Engine::new(spec.sim, pf.build());
                    for j in a.saturating_sub(overlap)..a {
                        let block = fetch(j);
                        let block = block.borrow();
                        let mut cur = ReplayCursor::default();
                        engine.replay_events(&block.events, &mut cur, block.records);
                    }
                    let mut measuring = starts[a] >= ws;
                    if measuring {
                        engine.reset_stats();
                    }
                    for k in a..=b {
                        let block = fetch(k);
                        let block = block.borrow();
                        let mut cur = ReplayCursor::default();
                        let mut off = starts[k];
                        let mut left = block_records[k];
                        if !measuring {
                            // Only the first span can start pre-warm-up,
                            // and the prefix always ends inside it (the
                            // block intersects the measured region).
                            let prefix = ws - off;
                            engine.replay_events(&block.events, &mut cur, prefix);
                            off += prefix;
                            left -= prefix;
                            engine.reset_stats();
                            measuring = true;
                        }
                        let take = (we - off).min(left);
                        engine.replay_events(&block.events, &mut cur, take);
                        if off + take == we {
                            break;
                        }
                    }
                    slots.lock().expect("scatter slots")[t] =
                        Some(engine.result(&spec.workload.name));
                }
            });
        }
    });

    let parts = slots.into_inner().expect("scatter slots");
    let mut it = parts.into_iter().map(|r| r.expect("worker filled slot"));
    let mut total = it.next().expect("at least one span");
    for part in it {
        total.accumulate(&part);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::frontend::segment_events;
    use ebcp_core::EbcpConfig;
    use ebcp_prefetch::BaselineConfig;
    use ebcp_trace::WorkloadSpec;

    fn quick_spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 32),
            seed: 11,
            warmup_insts: 60_000,
            measure_insts: 60_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn roster() -> Vec<PrefetcherSpec> {
        vec![
            PrefetcherSpec::None,
            PrefetcherSpec::baseline(
                "ghb-large",
                BaselineConfig::Ghb(ebcp_prefetch::GhbConfig::large()),
            ),
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        ]
    }

    #[test]
    fn block_replay_is_exact_for_odd_segment_lengths() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        for pf in roster() {
            let mono = spec.run_preresolved(&pre, &pf);
            // Segment lengths chosen to land boundaries mid-gap, on
            // events, and at the warm-up boundary's own block.
            for seg in [977, 4096, 60_000, 59_999, 1_000_000] {
                let blocks = segment_events(&pre, seg);
                let spliced = run_preresolved_blocks(&spec, &blocks, &pf);
                assert_eq!(mono, spliced, "{} with seg {seg}", pf.name());
            }
        }
    }

    #[test]
    fn segment_events_preserves_record_accounting() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        for seg in [1, 977, 120_000, 120_001] {
            let blocks = segment_events(&pre, seg);
            assert_eq!(blocks.iter().map(|b| b.records).sum::<u64>(), pre.records);
            for (k, b) in blocks.iter().enumerate() {
                let by_events: u64 = b.events.iter().map(crate::PreEvent::records).sum();
                assert_eq!(by_events, b.records, "block {k} of seg {seg}");
                if k + 1 < blocks.len() {
                    assert_eq!(b.records, seg, "only the tail may run short");
                }
            }
        }
    }

    #[test]
    fn lockstep_block_replay_matches_serial() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pfs = roster();
        let blocks = segment_events(&pre, 7_001);
        let lock = run_preresolved_blocks_many(&spec, &blocks, &pfs);
        for (pf, l) in pfs.iter().zip(&lock) {
            assert_eq!(
                spec.run_preresolved(&pre, pf),
                *l.as_ref().unwrap(),
                "lane {}",
                pf.name()
            );
        }
    }

    #[test]
    fn pipelined_matches_monolithic() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        for pf in roster() {
            let mono = spec.run_preresolved(&pre, &pf);
            let piped = run_pipelined(&spec, Arc::clone(&program), 9_973, &pf);
            assert_eq!(mono, piped, "{}", pf.name());
        }
    }

    /// Records what a [`SegmentSink`] receives, optionally failing
    /// from the `fail_at`-th `push_events` call on.
    #[derive(Default)]
    struct Recorder {
        blocks: Vec<PreBlock>,
        open: Vec<PreEvent>,
        pushes: usize,
        fail_at: Option<usize>,
    }

    impl SegmentSink for Recorder {
        fn push_events(&mut self, events: &[PreEvent]) -> io::Result<()> {
            self.pushes += 1;
            if self.fail_at.is_some_and(|k| self.pushes >= k) {
                return Err(io::Error::other("disk full"));
            }
            self.open.extend_from_slice(events);
            Ok(())
        }
        fn end_segment(&mut self, records: u64) -> io::Result<()> {
            let events = std::mem::take(&mut self.open);
            self.blocks.push(PreBlock { events, records });
            Ok(())
        }
    }

    /// A source that counts the chunks it delivers and panics when
    /// asked for chunk `panic_at`.
    struct Counted {
        gen: TraceGenerator,
        chunks: usize,
        panic_at: Option<usize>,
    }

    impl ChunkSource for Counted {
        fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
            if self.panic_at == Some(self.chunks) {
                panic!("trace source failed mid-stream");
            }
            self.chunks += 1;
            self.gen.next_chunk(out, max)
        }
    }

    fn counted(spec: &RunSpec, panic_at: Option<usize>) -> Counted {
        Counted {
            gen: TraceGenerator::new(&spec.workload, spec.seed),
            chunks: 0,
            panic_at,
        }
    }

    #[test]
    fn stream_pipeline_replays_lockstep_and_writes_the_segmented_stream() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pfs = roster();
        for seg in [9_973, 60_000, 1_000_000] {
            let mut rec = Recorder::default();
            let group = run_stream_pipeline(
                &spec,
                &mut counted(&spec, None),
                seg,
                lockstep_lanes(&spec, &pfs),
                &mut rec,
            )
            .unwrap();
            assert_eq!(
                group.results(&spec.workload.name),
                spec.run_preresolved_many(&pre, &pfs),
                "seg {seg}"
            );
            assert_eq!(rec.blocks, segment_events(&pre, seg), "seg {seg}");
        }
    }

    #[test]
    fn a_panicking_source_fails_the_pipeline_and_a_rerun_succeeds() {
        let spec = quick_spec();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let engine = || Engine::new(spec.sim, pf.build());
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut src = counted(&spec, Some(5));
            run_stream_pipeline(&spec, &mut src, 9_973, engine(), &mut ())
        }));
        let Err(payload) = failed else {
            panic!("the source's panic must reach the caller");
        };
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"trace source failed mid-stream")
        );
        let rerun = run_stream_pipeline(&spec, &mut counted(&spec, None), 9_973, engine(), &mut ())
            .unwrap()
            .result(&spec.workload.name);
        assert_eq!(rerun, spec.run_preresolved(&spec.pre_resolve(), &pf));
    }

    #[test]
    fn a_sink_error_stops_the_producer_early() {
        let mut spec = quick_spec();
        spec.warmup_insts = 200_000; // ~80 chunks in all
        let mut src = counted(&spec, None);
        let mut rec = Recorder {
            fail_at: Some(2),
            ..Recorder::default()
        };
        let engine = Engine::new(spec.sim, PrefetcherSpec::None.build());
        let Err(err) = run_stream_pipeline(&spec, &mut src, 9_973, engine, &mut rec) else {
            panic!("the sink's error must be returned");
        };
        assert_eq!(err.to_string(), "disk full");
        // The producer's next `send` (or buffer wait) failed and it
        // exited: only the chunks the buffers and the channel could
        // hold were ever produced.
        assert!(src.chunks <= 2 + PIPELINE_BUFFERS, "{} chunks", src.chunks);
    }

    #[test]
    fn a_panicking_lane_disconnects_the_producer() {
        use ebcp_prefetch::FaultConfig;
        let spec = quick_spec();
        let pf =
            PrefetcherSpec::baseline("fault", BaselineConfig::Fault(FaultConfig::panic_after(5)));
        let program = Arc::new(WorkloadProgram::build(&spec.workload));
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_pipelined(&spec, program, 9_973, &pf)
        }));
        assert!(failed.is_err(), "the lane's panic reaches the caller");
    }

    #[test]
    fn scatter_is_deterministic_and_close() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 15_000);
        // Overlap must cover the 60k-record warm-up (4 blocks) for the
        // reconstruction to be faithful at this tiny scale; measured
        // error is then ~1.5% (overlap 1 leaves ~22% cold-start error —
        // the convergence table lives in DESIGN.md §3f).
        let a = run_scatter(&spec, &blocks, &pf, 4, 4);
        let b = run_scatter(&spec, &blocks, &pf, 4, 1);
        assert_eq!(a, b, "scatter must not depend on worker count");
        assert_eq!(a.insts, spec.measure_insts, "splice covers the region");
        let rel = (a.cpi() - mono.cpi()).abs() / mono.cpi();
        assert!(
            rel < 0.05,
            "scatter CPI {:.4} vs monolithic {:.4} ({:.1}% off)",
            a.cpi(),
            mono.cpi(),
            rel * 100.0
        );
    }

    #[test]
    fn scatter_with_on_demand_reader_matches_slice_scatter() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let blocks = segment_events(&pre, 15_000);
        let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
        let by_slice = run_scatter(&spec, &blocks, &pf, 4, 4);
        // An owning reader that clones each block on demand stands in
        // for a disk-backed stream reopened per worker.
        let by_fetch =
            run_scatter_with(&spec, &records, || |k: usize| blocks[k].clone(), &pf, 4, 2);
        assert_eq!(by_slice, by_fetch);
    }

    #[test]
    fn span_scatter_specializes_to_per_block_scatter_and_tightens_with_fewer_spans() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::Ebcp(EbcpConfig::tuned());
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 15_000);
        let records: Vec<u64> = blocks.iter().map(|b| b.records).collect();
        let per_block = run_scatter(&spec, &blocks, &pf, 4, 4);
        // One span per measured block is exactly the per-block mode.
        let max_spans = run_scatter_spans_with(
            &spec,
            &records,
            || |k: usize| &blocks[k],
            &pf,
            4,
            usize::MAX,
            4,
        );
        assert_eq!(per_block, max_spans);
        // Fewer spans: deterministic across thread counts, and at
        // least as close to the monolithic run (fewer cold seams).
        let spans2_a =
            run_scatter_spans_with(&spec, &records, || |k: usize| &blocks[k], &pf, 4, 2, 4);
        let spans2_b =
            run_scatter_spans_with(&spec, &records, || |k: usize| &blocks[k], &pf, 4, 2, 1);
        assert_eq!(
            spans2_a, spans2_b,
            "span scatter must not depend on worker count"
        );
        assert_eq!(
            spans2_a.insts, spec.measure_insts,
            "splice covers the region"
        );
        let err = |r: &SimResult| (r.cpi() - mono.cpi()).abs() / mono.cpi();
        assert!(
            err(&spans2_a) <= err(&per_block) + 1e-9,
            "fewer seams, no worse: {:.4} vs {:.4}",
            err(&spans2_a),
            err(&per_block)
        );
        // One span warmed all the way back to the trace start replays
        // the exact monolithic history.
        let full = run_scatter_spans_with(
            &spec,
            &records,
            || |k: usize| &blocks[k],
            &pf,
            blocks.len(),
            1,
            4,
        );
        assert_eq!(full, mono, "one fully-overlapped span is exact");
    }

    #[test]
    fn scatter_overlap_tightens_the_approximation() {
        let spec = quick_spec();
        let pre = spec.pre_resolve();
        let pf = PrefetcherSpec::None;
        let mono = spec.run_preresolved(&pre, &pf);
        let blocks = segment_events(&pre, 10_000);
        let err = |overlap| {
            let r = run_scatter(&spec, &blocks, &pf, overlap, 4);
            (r.cpi() - mono.cpi()).abs() / mono.cpi()
        };
        // With the whole prefix as overlap the handoff is complete:
        // every worker replays exactly the monolithic history.
        let full = run_scatter(&spec, &blocks, &pf, blocks.len(), 4);
        assert_eq!(full, mono, "full overlap is exact");
        assert!(err(2) <= err(0) + 1e-9, "more overlap, no worse");
    }
}
