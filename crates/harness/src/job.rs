//! Content-addressed simulation jobs.
//!
//! A [`Job`] pairs a [`RunSpec`] with a [`PrefetcherSpec`]. Its identity
//! is a hash over a canonical byte string derived from both, so the same
//! `(workload, seed, lengths, machine, prefetcher)` submitted by two
//! different experiment drivers collapses to one simulation — and to one
//! entry in the on-disk result store across processes.

use ebcp_sim::{PrefetcherSpec, RunSpec};

/// Schema tag mixed into every canonical string. Bump when the meaning
/// of a spec field changes without its `Debug` shape changing, to
/// invalidate stale on-disk results.
///
/// v2: the engine switched to eager L1 fills (two-phase pipeline), which
/// shifts absolute timing numbers — v1 cached results describe the old
/// model.
pub const CANON_VERSION: &str = "ebcp-job-v2";

/// 64-bit FNV-1a. Stable across platforms and processes (unlike
/// `DefaultHasher`, which is randomly keyed per process), so hashes can
/// key an on-disk store. Identity hashes stay FNV-1a — store paths and
/// pinned digests depend on its values — while the segmented file
/// formats checksum their bytes with `ebcp_types::checksum` (XXH64).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A job's stable identity: the FNV-1a hash of its canonical string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One unit of work: run `pf` over the trace described by `spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Workload, trace length and machine.
    pub spec: RunSpec,
    /// Prefetcher to simulate.
    pub pf: PrefetcherSpec,
}

impl Job {
    /// Creates a job.
    pub fn new(spec: RunSpec, pf: PrefetcherSpec) -> Self {
        Job { spec, pf }
    }

    /// The canonical string the job's identity hashes over.
    ///
    /// Built from the `Debug` representation of both specs, which is
    /// complete (every field of every spec type derives `Debug`) and
    /// deterministic. `f64` fields print as shortest round-trip decimals,
    /// so distinct bit patterns yield distinct strings; config floats
    /// are plain literals (no NaN, no −0.0), so the mapping is injective
    /// in practice. Stored next to each cached result to detect hash
    /// collisions.
    #[must_use]
    pub fn canonical(&self) -> String {
        format!("{CANON_VERSION}|{:?}|{:?}", self.spec, self.pf)
    }

    /// The job's content hash.
    #[must_use]
    pub fn id(&self) -> JobId {
        JobId(fnv1a64(self.canonical().as_bytes()))
    }

    /// Hash identifying the *trace* this job replays: workload, seed and
    /// record count, but not the machine or prefetcher. Jobs with equal
    /// trace keys can share one materialized trace.
    #[must_use]
    pub fn trace_key(&self) -> u64 {
        let s = format!(
            "{CANON_VERSION}|trace|{:?}|{}|{}",
            self.spec.workload,
            self.spec.seed,
            self.spec.warmup_insts + self.spec.measure_insts,
        );
        fnv1a64(s.as_bytes())
    }

    /// Hash identifying the *pre-resolved event stream* this job can
    /// replay: the trace identity plus the L1 geometries the stream was
    /// resolved under — but not the rest of the machine or the
    /// prefetcher. Jobs with equal pre-keys (every cell of a prefetcher
    /// sweep) share one stream.
    #[must_use]
    pub fn pre_key(&self) -> u64 {
        let s = format!(
            "{CANON_VERSION}|pre|{:?}|{}|{}|{:?}|{:?}",
            self.spec.workload,
            self.spec.seed,
            self.spec.warmup_insts + self.spec.measure_insts,
            self.spec.sim.l1i,
            self.spec.sim.l1d,
        );
        fnv1a64(s.as_bytes())
    }

    /// Total trace records the job will consume.
    #[must_use]
    pub const fn records(&self) -> u64 {
        self.spec.warmup_insts + self.spec.measure_insts
    }

    /// Short human label, e.g. `database x ebcp`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} x {}", self.spec.workload.name, self.pf.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_core::EbcpConfig;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn job(seed: u64) -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed,
                warmup_insts: 10_000,
                measure_insts: 5_000,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::Ebcp(EbcpConfig::tuned()),
        )
    }

    #[test]
    fn fnv_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_jobs_equal_ids() {
        assert_eq!(job(3).id(), job(3).id());
    }

    #[test]
    fn different_seed_different_id_same_everything_else() {
        assert_ne!(job(3).id(), job(4).id());
    }

    #[test]
    fn prefetcher_changes_id_but_not_trace_key() {
        let a = job(3);
        let b = Job::new(a.spec.clone(), PrefetcherSpec::None);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn machine_changes_id_but_not_trace_key() {
        let a = job(3);
        let mut b = a.clone();
        b.spec.sim = SimConfig::scaled_down(4);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn prefetcher_and_backend_changes_keep_pre_key() {
        let a = job(3);
        // Different prefetcher: same stream.
        let b = Job::new(a.spec.clone(), PrefetcherSpec::None);
        assert_eq!(a.pre_key(), b.pre_key());
        // Back-end machine change (L2 etc.) with identical L1s: still
        // the same stream.
        let mut c = a.clone();
        c.spec.sim.l2 = ebcp_mem::CacheGeometry::new(1 << 20, 8);
        assert_eq!(a.pre_key(), c.pre_key());
        // L1 geometry change: a different stream.
        let mut d = a.clone();
        d.spec.sim.l1d = ebcp_mem::CacheGeometry::new(1 << 13, 2);
        assert_ne!(a.pre_key(), d.pre_key());
        // Different trace: a different stream.
        let e = job(4);
        assert_ne!(a.pre_key(), e.pre_key());
    }

    #[test]
    fn workload_changes_trace_key() {
        let a = job(3);
        let mut b = a.clone();
        b.spec.workload = WorkloadSpec::tpcw().scaled(1, 16);
        assert_ne!(a.trace_key(), b.trace_key());
    }

    #[test]
    fn id_formats_as_16_hex_digits() {
        let id = job(1).id();
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
