//! Trace delivery: materialize in memory when the budget allows,
//! stream from the generator otherwise.

use std::sync::Arc;

use ebcp_sim::{PrefetcherSpec, RunSpec, SimResult};
use ebcp_trace::template::WorkloadProgram;
use ebcp_trace::TraceRecord;

/// Default per-process trace memory budget (~1.5 GB). Replaces the old
/// hard-coded materialization threshold; the harness divides it by the
/// number of concurrent workers so N parallel materialized traces never
/// exceed one budget.
pub const DEFAULT_MEM_BUDGET_BYTES: u64 = 1_500_000_000;

/// Peak resident bytes *per trace record* a streamed (segment-at-a-time)
/// worker charges against its budget share: one mmap'd trace-file
/// window at 17 B/record ([`ebcp_trace::segfile`]'s fixed-width
/// encoding) plus one packed pre-resolved event block at its 24 B/event
/// worst case (every record an L1 miss). The materialized path used to
/// count only the event stream; the streamed path's windows and blocks
/// are charged here so N concurrent streamed workers still fit one
/// process budget.
pub const STREAMED_BYTES_PER_RECORD: u64 = 17 + 24;

/// Headroom multiplier on [`STREAMED_BYTES_PER_RECORD`] covering decode
/// scratch (one `TraceRecord` chunk), the replay engine itself and
/// allocator slack. The charge is sized for the warm path, which reads
/// one event block at a time; the cold path's streamed pipeline holds
/// no event block at all, only a few record chunks and one chunk's
/// events, so it stays well inside the same charge.
pub const STREAMED_HEADROOM: u64 = 4;

/// Estimated materialized footprint of `spec`'s *pre-resolved* event
/// stream, from the spec alone (before any front-end pass has run).
/// Packed events are 24 B and only L1 misses plus gap fillers emit one;
/// 8 B/record is an upper bound across every workload preset at every
/// scale (observed densities are 1–5 B/record), so the harness errs
/// toward streaming — which is exact — never toward blowing the budget.
pub fn est_pre_bytes(spec: &RunSpec) -> u64 {
    (spec.warmup_insts + spec.measure_insts) * 8
}

/// The segment length (in trace records) that keeps one streamed
/// worker's peak resident set — mmap window + event block + headroom —
/// inside `per_worker_bytes`, clamped to `[64 Ki, 4 Mi]` records so
/// tiny budgets still make progress and huge ones don't defeat the
/// point of segmenting.
pub fn seg_records_for_budget(per_worker_bytes: u64) -> u64 {
    (per_worker_bytes / (STREAMED_HEADROOM * STREAMED_BYTES_PER_RECORD)).clamp(1 << 16, 4 << 20)
}

/// The budget charge of one streamed worker at `seg_records` — the
/// inverse of [`seg_records_for_budget`], used by tests and the status
/// report.
pub fn streamed_peak_bytes(seg_records: u64) -> u64 {
    seg_records * STREAMED_HEADROOM * STREAMED_BYTES_PER_RECORD
}

/// A trace source: materialized when it fits the budget, streamed from
/// a shared [`WorkloadProgram`] otherwise.
///
/// Materialized traces are `Arc`-shared: every job replaying the same
/// `(workload, seed, length)` reads one allocation.
pub enum TraceSource {
    /// Fully materialized records.
    Materialized(Arc<Vec<TraceRecord>>),
    /// Regenerate per run from a shared program.
    Streamed(Arc<WorkloadProgram>),
}

impl TraceSource {
    /// Estimated materialized footprint of `spec`'s trace.
    pub fn est_bytes(spec: &RunSpec) -> u64 {
        let records = spec.warmup_insts + spec.measure_insts;
        records * std::mem::size_of::<TraceRecord>() as u64
    }

    /// Prepares the trace for `spec` under the default whole-process
    /// budget (single-threaded callers).
    pub fn prepare(spec: &RunSpec) -> Self {
        Self::prepare_budgeted(spec, DEFAULT_MEM_BUDGET_BYTES)
    }

    /// Prepares the trace for `spec`, materializing only when the
    /// estimated footprint fits `budget_bytes`.
    pub fn prepare_budgeted(spec: &RunSpec, budget_bytes: u64) -> Self {
        if Self::est_bytes(spec) <= budget_bytes {
            TraceSource::Materialized(spec.materialize())
        } else {
            TraceSource::Streamed(Arc::new(WorkloadProgram::build(&spec.workload)))
        }
    }

    /// Whether the trace is held in memory.
    pub const fn is_materialized(&self) -> bool {
        matches!(self, TraceSource::Materialized(_))
    }

    /// Runs one prefetcher over this trace.
    pub fn run(&self, spec: &RunSpec, pf: &PrefetcherSpec) -> SimResult {
        match self {
            TraceSource::Materialized(t) => spec.run_on(t, pf),
            TraceSource::Streamed(p) => spec.run_streaming(Arc::clone(p), pf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn spec(records: u64) -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 16),
            seed: 5,
            warmup_insts: records / 2,
            measure_insts: records - records / 2,
            sim: SimConfig::scaled_down(16),
        }
    }

    #[test]
    fn small_trace_materializes_under_default_budget() {
        assert!(TraceSource::prepare(&spec(10_000)).is_materialized());
    }

    #[test]
    fn tight_budget_forces_streaming() {
        let s = spec(10_000);
        let src = TraceSource::prepare_budgeted(&s, TraceSource::est_bytes(&s) - 1);
        assert!(!src.is_materialized());
    }

    #[test]
    fn budget_boundary_is_inclusive() {
        let s = spec(10_000);
        let src = TraceSource::prepare_budgeted(&s, TraceSource::est_bytes(&s));
        assert!(src.is_materialized());
    }

    #[test]
    fn seg_records_respects_budget_and_clamps() {
        // Inside the clamp range the charge stays within budget.
        let budget = 100_000_000;
        let seg = seg_records_for_budget(budget);
        assert!(streamed_peak_bytes(seg) <= budget);
        // Tiny and huge budgets clamp instead of degenerating.
        assert_eq!(seg_records_for_budget(0), 1 << 16);
        assert_eq!(seg_records_for_budget(u64::MAX / 8), 4 << 20);
    }

    #[test]
    fn est_pre_bytes_scales_with_records() {
        let s = spec(10_000);
        assert_eq!(est_pre_bytes(&s), 80_000);
    }

    #[test]
    fn streamed_and_materialized_agree() {
        let s = spec(40_000);
        let m = TraceSource::prepare(&s).run(&s, &PrefetcherSpec::None);
        let st = TraceSource::prepare_budgeted(&s, 0).run(&s, &PrefetcherSpec::None);
        assert_eq!(m, st);
    }
}
