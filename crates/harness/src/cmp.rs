//! First-class CMP cells: content-addressed multi-core jobs.
//!
//! A [`CmpJob`] pairs a [`CmpSpec`] (one workload × seed per core over
//! one shared machine) with a [`PrefetcherSpec`], mirroring the
//! single-core [`Job`]. Both implement [`Cell`], so a CMP cell goes
//! through the one harness lifecycle ([`crate::Harness::run_outcomes`]):
//! dedup + memoization by content hash, checksummed on-disk result
//! entries (`<id>.cmp.json`; quarantine + self-heal on corruption), the
//! worker pool with panic isolation and the retry-once policy, and
//! records in `failures()`, `results.json` and `telemetry.json`. What
//! this module supplies is only the CMP side of [`Cell`]: identity, the
//! result codec and how one cell runs — per-core pre-resolved streams
//! from the harness's warm `pres` map *and* the `preres/` disk cache
//! (each core's stream is exactly the stream of its single-core
//! [`CmpJob::core_job`], so CMP and single-core cells are cache
//! currency for each other), replayed on the discrete-event engine.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};

use ebcp_sim::frontend::PreResolved;
use ebcp_sim::{CmpResult, CmpSpec, PrefetcherSpec, SimResult};

use crate::job::{fnv1a64, Job, JobId};
use crate::json::Value;
use crate::store::{result_from_json, result_to_json};
use crate::{Cell, CmpOutcome, Event, Harness};

/// Schema tag mixed into every CMP canonical string; versioned
/// independently of the single-core [`crate::job::CANON_VERSION`]
/// because the two result shapes evolve independently.
///
/// v1: the discrete-event CMP engine (metric-identical to the stepping
/// engine it replaced, so no timing discontinuity to fence off).
pub const CMP_CANON_VERSION: &str = "ebcp-cmpjob-v1";

/// On-disk schema version for CMP store entries.
const CMP_SCHEMA: u64 = 1;

/// One unit of CMP work: run `pf` over the multi-core cell `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpJob {
    /// Per-core workloads/seeds and the shared machine.
    pub spec: CmpSpec,
    /// Prefetcher to simulate (one instance shared by all cores).
    pub pf: PrefetcherSpec,
}

impl CmpJob {
    /// Creates a CMP job.
    pub fn new(spec: CmpSpec, pf: PrefetcherSpec) -> Self {
        CmpJob { spec, pf }
    }

    /// The canonical string the job's identity hashes over (see
    /// [`Job::canonical`] for why `Debug` is a sound canonical form).
    #[must_use]
    pub fn canonical(&self) -> String {
        format!("{CMP_CANON_VERSION}|{:?}|{:?}", self.spec, self.pf)
    }

    /// The job's content hash. Lives in the same [`JobId`] namespace as
    /// single-core jobs (distinct canonical prefixes keep the collision
    /// guard meaningful) but in its own memo and store shard files.
    #[must_use]
    pub fn id(&self) -> JobId {
        JobId(fnv1a64(self.canonical().as_bytes()))
    }

    /// The single-core job whose pre-resolved stream core `k` consumes.
    /// This is the bridge into the existing stream infrastructure: the
    /// in-memory `pres` map and the `preres/` disk cache are keyed by
    /// [`Job::pre_key`], so a CMP cell and a single-core sweep over the
    /// same (workload, seed, length, L1) share one stream build.
    #[must_use]
    pub fn core_job(&self, k: usize) -> Job {
        Job::new(self.spec.core_run_spec(k), self.pf.clone())
    }

    /// Number of cores in the cell.
    #[must_use]
    pub fn cores(&self) -> usize {
        self.spec.cores()
    }

    /// Total trace records the job will consume, across all cores.
    #[must_use]
    pub fn records(&self) -> u64 {
        (self.spec.warmup_insts + self.spec.measure_insts) * self.cores() as u64
    }

    /// Short human label, e.g. `database@4c x ebcp`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}@{}c x {}", self.spec.name, self.cores(), self.pf.name())
    }
}

/// Encodes a [`CmpResult`] as JSON: per-core results plus the
/// aggregate, each in the standard [`result_to_json`] shape.
pub fn cmp_result_to_json(r: &CmpResult) -> Value {
    Value::Obj(vec![
        (
            "cores".into(),
            Value::Arr(r.cores.iter().map(result_to_json).collect()),
        ),
        ("aggregate".into(), result_to_json(&r.aggregate)),
    ])
}

/// Decodes a [`CmpResult`]; `None` on any missing or mistyped field.
pub fn cmp_result_from_json(v: &Value) -> Option<CmpResult> {
    let cores = v
        .get("cores")?
        .as_arr()?
        .iter()
        .map(result_from_json)
        .collect::<Option<Vec<SimResult>>>()?;
    Some(CmpResult {
        cores,
        aggregate: result_from_json(v.get("aggregate")?)?,
    })
}

impl Cell for CmpJob {
    type Result = CmpResult;
    const SCHEMA: u64 = CMP_SCHEMA;
    const SUFFIX: &'static str = ".cmp.json";

    fn canonical(&self) -> String {
        CmpJob::canonical(self)
    }
    fn label(&self) -> String {
        CmpJob::label(self)
    }
    fn records(&self) -> u64 {
        CmpJob::records(self)
    }
    fn row_names(&self) -> (String, String, Option<u64>) {
        (
            self.spec.name.clone(),
            self.pf.name(),
            Some(self.cores() as u64),
        )
    }
    fn encode(r: &CmpResult) -> Value {
        cmp_result_to_json(r)
    }
    fn decode(v: &Value) -> Option<CmpResult> {
        cmp_result_from_json(v)
    }
    fn memo(h: &Harness) -> &Mutex<HashMap<JobId, CmpOutcome>> {
        &h.cmp_memo
    }

    /// Resolves every core's stream through the harness's warm map,
    /// then runs the cell on the discrete-event engine. A CMP cell is a
    /// unit of one, and never takes the bounded-memory streamed path:
    /// the engine interleaves all cores' streams by cycle, so it holds
    /// them whole.
    fn run(&self, h: &Harness, _per_worker: u64, tx: &mpsc::Sender<Event>) -> CmpResult {
        let streams: Vec<Arc<PreResolved>> = (0..self.cores())
            .map(|k| h.warm_pre(&self.core_job(k), tx))
            .collect();
        let refs: Vec<&PreResolved> = streams.iter().map(Arc::as_ref).collect();
        self.spec.run_streams(&refs, &self.pf)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    pub(crate) fn sample_spec(cores: usize) -> CmpSpec {
        CmpSpec::homogeneous(
            WorkloadSpec::database().scaled(1, 32),
            cores,
            5_000,
            5_000,
            SimConfig::scaled_down(16),
        )
    }

    pub(crate) fn sample_result(cores: usize) -> CmpResult {
        CmpResult {
            cores: (0..cores)
                .map(|k| SimResult {
                    prefetcher: "ebcp".into(),
                    workload: format!("database#core{k}"),
                    insts: 5_000,
                    cycles: 9_000 + k as u64,
                    ..SimResult::default()
                })
                .collect(),
            aggregate: SimResult {
                prefetcher: "ebcp".into(),
                workload: "database".into(),
                insts: 5_000 * cores as u64,
                pf_issued: u64::MAX, // exact u64 round-trip
                ..SimResult::default()
            },
        }
    }

    #[test]
    fn cmp_codec_round_trips() {
        let r = sample_result(4);
        let text = cmp_result_to_json(&r).to_json_pretty();
        let back = cmp_result_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identity_covers_cores_and_prefetcher() {
        let a = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        assert_eq!(
            a.id(),
            CmpJob::new(sample_spec(2), PrefetcherSpec::None).id()
        );
        let b = CmpJob::new(sample_spec(4), PrefetcherSpec::None);
        assert_ne!(a.id(), b.id(), "core count is identity");
        let c = CmpJob::new(
            sample_spec(2),
            PrefetcherSpec::Ebcp(ebcp_core::EbcpConfig::tuned()),
        );
        assert_ne!(a.id(), c.id(), "prefetcher is identity");
        assert_eq!(a.label(), "database x none".replace(" x", "@2c x"));
    }

    #[test]
    fn core_job_shares_stream_identity_with_single_core_cells() {
        // The pre-key of core k's bridge job equals the pre-key of a
        // plain single-core job over the same (workload, seed, length,
        // L1): CMP cells reuse single-core streams and vice versa.
        let cmp = CmpJob::new(sample_spec(2), PrefetcherSpec::None);
        let single = Job::new(cmp.spec.core_run_spec(1), PrefetcherSpec::None);
        assert_eq!(cmp.core_job(1).pre_key(), single.pre_key());
        // Different cores read different seeds, hence different streams.
        assert_ne!(cmp.core_job(0).pre_key(), cmp.core_job(1).pre_key());
    }
}
