//! Segment-at-a-time execution.
//!
//! The large trace tier cannot afford `run_preresolved`'s contract of
//! one materialized event stream per job. This module replays a job
//! from bounded [`PreBlock`]s instead, in two exact modes:
//!
//! * [`run_preresolved_blocks`] — **serial**: one engine consumes
//!   blocks back to back. State handoff between segments is complete by
//!   construction (it is the same engine), so the result is
//!   byte-identical to replaying the unsplit stream; peak memory is
//!   O(block).
//! * [`run_stream_pipeline`] — **two-stage pipeline**: a producer
//!   thread pulls trace chunks from a [`ChunkSource`] while the calling
//!   thread resolves each chunk, hands the complete entries to a
//!   [`SegmentSink`] (the harness's on-disk stream writer, or nothing)
//!   and replays them at once on one engine or a lockstep group. Same
//!   computation as the serial mode (the channel preserves order, the
//!   cut is entry-aligned and the engine is continuous), with trace
//!   production overlapped and no segment-sized buffer resident.
//!   [`run_pipelined`] is its one-lane, no-sink form.
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
use std::sync::{mpsc, Arc};

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

    /// The target, for its results. A stream that ended inside the
    /// warm-up still crosses the boundary here, as stepping does
    /// (`RunSpec::run_on`): the counters then read zero, not warm-up
    /// activity.
    pub fn into_inner(mut self) -> T {
        if self.warm_left > 0 {
            self.target.reset_stats();
        }
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
}
