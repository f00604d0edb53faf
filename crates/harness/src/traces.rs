//! On-disk store of generated traces in the segmented binary format.
//!
//! Trace generation is deterministic, so this store is a *performance*
//! cache, not a correctness one: a trace depends only on
//! `(workload, seed, record count)`, and with the store enabled
//! ([`crate::HarnessConfig::trace_store`]) each workload is generated
//! **once**, written through [`TraceSink`] in one streaming pass, and
//! every later front-end pass replays the file zero-copy through an
//! mmap'd [`SegmentedTrace`] window (O(segment) resident) instead of
//! re-running the generator.
//!
//! Files live under `<store_dir>/traces/<2-hex>/<trace_key>.seg`,
//! sharded like result entries. The cache discipline matches the rest
//! of the store: the file's meta field carries the full canonical
//! string its name hashes (collision guard); a wrong-version or
//! wrong-meta file is *staleness* — regenerated in place; a checksum or
//! length failure is *corruption* — the file is quarantined
//! (`*.corrupt`) and transparently regenerated.

use std::io;
use std::path::{Path, PathBuf};

use ebcp_sim::{Engine, RunSpec};
use ebcp_trace::{
    Backing, ChunkSource, SegfileError, SegmentedTrace, TraceGenerator, TraceRecord, TraceSink,
};

use crate::job::{fnv1a64, CANON_VERSION};
use crate::store::{quarantine, CacheRead};

/// The canonical string a trace file's name hashes and its meta field
/// stores verbatim. Covers everything generation depends on — and the
/// record count, so length changes never alias.
pub fn trace_canonical(spec: &RunSpec) -> String {
    format!(
        "{CANON_VERSION}|trace|{:?}|{}|{}",
        spec.workload,
        spec.seed,
        spec.warmup_insts + spec.measure_insts,
    )
}

/// Stable identity of `spec`'s trace in the store.
pub fn trace_key(spec: &RunSpec) -> u64 {
    fnv1a64(trace_canonical(spec).as_bytes())
}

/// Store path for `spec`'s trace (sharded by the key's first two hex
/// digits). The file may or may not exist.
pub fn path_for(store_dir: &Path, spec: &RunSpec) -> PathBuf {
    let name = format!("{:016x}.seg", trace_key(spec));
    store_dir.join("traces").join(&name[..2]).join(name)
}

/// `spec`'s trace as a [`ChunkSource`]: the stored file when it
/// verifies, otherwise generated on the fly while every delivered chunk
/// is also written to the store. A consumer therefore reads each record
/// once whether the store was warm or cold; [`StoredTrace::finish`]
/// then publishes and verifies the file.
///
/// Delivers exactly `warmup_insts + measure_insts` records.
pub struct StoredTrace {
    path: PathBuf,
    meta: String,
    backing: Backing,
    state: State,
}

enum State {
    Stored(SegmentedTrace),
    Writing {
        gen: Box<TraceGenerator>,
        sink: TraceSink,
        left: u64,
        /// The first write failure, surfaced by `finish`: generated
        /// records stay correct whatever the disk does.
        error: Option<io::Error>,
    },
}

impl StoredTrace {
    /// Opens `spec`'s stored trace, or starts generating and writing
    /// it: a missing or stale file is rewritten in place; a corrupt
    /// file is quarantined — reported through `on_quarantine` — and
    /// rewritten (self-heal).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures starting the write.
    pub fn open(
        store_dir: &Path,
        spec: &RunSpec,
        seg_records: u64,
        backing: Backing,
        mut on_quarantine: impl FnMut(PathBuf, String),
    ) -> io::Result<StoredTrace> {
        let path = path_for(store_dir, spec);
        let meta = trace_canonical(spec);
        match SegmentedTrace::open(&path, meta.as_bytes(), backing) {
            Ok(trace) => {
                return Ok(StoredTrace {
                    path,
                    meta,
                    backing,
                    state: State::Stored(trace),
                })
            }
            Err(SegfileError::Corrupt(reason)) => {
                if let CacheRead::Quarantined { path, reason } = quarantine::<()>(path, reason) {
                    on_quarantine(path, reason);
                }
            }
            // Stale, missing or unreadable: rewrite over the top.
            Err(SegfileError::Stale | SegfileError::Io(_)) => {}
        }
        StoredTrace::writing(store_dir, spec, seg_records, backing)
    }

    /// Starts generating `spec`'s trace into the store, whatever it
    /// holds. Publication is atomic — temp file + rename — so
    /// concurrent generators race benignly.
    fn writing(
        store_dir: &Path,
        spec: &RunSpec,
        seg_records: u64,
        backing: Backing,
    ) -> io::Result<StoredTrace> {
        let path = path_for(store_dir, spec);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let meta = trace_canonical(spec);
        let sink = TraceSink::create(&path, meta.as_bytes(), seg_records)?;
        Ok(StoredTrace {
            path,
            meta,
            backing,
            state: State::Writing {
                gen: Box::new(TraceGenerator::new(&spec.workload, spec.seed)),
                sink,
                left: spec.warmup_insts + spec.measure_insts,
                error: None,
            },
        })
    }

    /// The verified stored trace, positioned at its start. A trace
    /// still being written is first completed (records nobody consumed
    /// are generated and written now), published, and verified with
    /// [`SegmentedTrace::open`].
    ///
    /// # Errors
    ///
    /// Propagates write failures, and a freshly written trace that
    /// fails to verify (an environment fault).
    pub fn finish(mut self) -> io::Result<SegmentedTrace> {
        if matches!(self.state, State::Writing { .. }) {
            let mut chunk = Vec::with_capacity(Engine::CHUNK_RECORDS);
            while self.next_chunk(&mut chunk, Engine::CHUNK_RECORDS) > 0 {}
        }
        match self.state {
            State::Stored(mut trace) => {
                trace.seek_segment(0);
                Ok(trace)
            }
            State::Writing { sink, error, .. } => {
                if let Some(e) = error {
                    return Err(e);
                }
                sink.finish()?;
                SegmentedTrace::open(&self.path, self.meta.as_bytes(), self.backing).map_err(|e| {
                    io::Error::other(format!(
                        "freshly generated trace {} failed to verify: {e}",
                        self.path.display()
                    ))
                })
            }
        }
    }
}

impl ChunkSource for StoredTrace {
    fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        match &mut self.state {
            State::Stored(trace) => trace.next_chunk(out, max),
            State::Writing {
                gen,
                sink,
                left,
                error,
            } => {
                let want = (max as u64).min(*left) as usize;
                let got = TraceGenerator::next_chunk(gen, out, want);
                if error.is_none() {
                    *error = sink.push_chunk(out).err();
                }
                *left -= got as u64;
                got
            }
        }
    }
}

/// Generates `spec`'s trace into the store in one streaming pass
/// (chunked generation feeding [`TraceSink`]; nothing materialized),
/// verifies it, and returns the record count written.
///
/// # Errors
///
/// Propagates file-system failures and a trace that fails to verify.
pub fn generate(store_dir: &Path, spec: &RunSpec, seg_records: u64) -> io::Result<u64> {
    let trace = StoredTrace::writing(store_dir, spec, seg_records, Backing::Buffered)?.finish()?;
    Ok(trace.records())
}

/// Opens `spec`'s stored trace for zero-copy replay, generating (or
/// regenerating) it as needed — see [`StoredTrace::open`]. At most one
/// regeneration is attempted; a file that fails to verify immediately
/// after being written is an environment fault and surfaces as an
/// error.
///
/// # Errors
///
/// Propagates file-system failures and regeneration that fails to
/// verify.
pub fn open_or_generate(
    store_dir: &Path,
    spec: &RunSpec,
    seg_records: u64,
    backing: Backing,
    on_quarantine: impl FnMut(PathBuf, String),
) -> io::Result<SegmentedTrace> {
    StoredTrace::open(store_dir, spec, seg_records, backing, on_quarantine)?.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::SimConfig;
    use ebcp_trace::WorkloadSpec;

    fn spec() -> RunSpec {
        RunSpec {
            workload: WorkloadSpec::database().scaled(1, 16),
            seed: 21,
            warmup_insts: 6_000,
            measure_insts: 6_000,
            sim: SimConfig::scaled_down(16),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ebcp-traces-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn collect_all(src: &mut dyn ChunkSource) -> Vec<TraceRecord> {
        let mut all = Vec::new();
        let mut chunk = Vec::new();
        while src.next_chunk(&mut chunk, 4096) > 0 {
            all.extend_from_slice(&chunk);
        }
        all
    }

    #[test]
    fn stored_trace_replays_identically_to_the_generator() {
        let dir = tmpdir("identical");
        let s = spec();
        let mut seg = open_or_generate(&dir, &s, 1_000, Backing::Mmap, |_, _| {
            panic!("fresh store cannot quarantine")
        })
        .unwrap();
        assert_eq!(seg.records(), 12_000);
        assert_eq!(seg.n_segments(), 12);
        let from_store = collect_all(&mut seg);
        let direct = TraceGenerator::new(&s.workload, s.seed).collect_n(from_store.len());
        assert_eq!(from_store, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_trace_streams_while_writing_and_finish_completes_it() {
        let dir = tmpdir("streaming");
        let s = spec();
        let mut src = StoredTrace::open(&dir, &s, 1_000, Backing::Mmap, |_, _| {
            panic!("fresh store cannot quarantine")
        })
        .unwrap();
        let mut head = Vec::new();
        assert_eq!(src.next_chunk(&mut head, 2_500), 2_500);
        let direct = TraceGenerator::new(&s.workload, s.seed).collect_n(12_000);
        assert_eq!(head, direct[..2_500]);
        // Nothing is published until finish, which writes the records
        // nobody consumed and verifies the file.
        assert!(!path_for(&dir, &s).exists());
        let mut seg = src.finish().unwrap();
        assert_eq!(collect_all(&mut seg), direct);
        // Warm: the same type now serves the stored file.
        let mut warm = StoredTrace::open(&dir, &s, 1_000, Backing::Mmap, |_, _| {
            panic!("valid file must not be quarantined")
        })
        .unwrap();
        assert_eq!(collect_all(&mut warm), direct);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_open_reuses_the_file() {
        let dir = tmpdir("reuse");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let written = std::fs::metadata(&p).unwrap().modified().unwrap();
        let again = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {
            panic!("valid file must not be quarantined")
        })
        .unwrap();
        assert_eq!(again.records(), 12_000);
        assert_eq!(
            std::fs::metadata(&p).unwrap().modified().unwrap(),
            written,
            "a valid cached trace must not be regenerated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_trace_is_quarantined_and_regenerated() {
        let dir = tmpdir("heal");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&p, &bytes).unwrap();
        let mut seen = Vec::new();
        let seg = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |path, reason| {
            seen.push((path, reason));
        })
        .unwrap();
        assert_eq!(seg.records(), 12_000, "self-healed trace replays");
        assert_eq!(seen.len(), 1);
        assert!(seen[0].0.to_string_lossy().ends_with(".corrupt"));
        assert!(seen[0].0.is_file(), "corrupt bytes preserved");
        assert!(seen[0].1.contains("checksum"), "{}", seen[0].1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_trace_is_regenerated_without_quarantine() {
        let dir = tmpdir("stale");
        let s = spec();
        let _ = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, _| {}).unwrap();
        let p = path_for(&dir, &s);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[..8].copy_from_slice(b"EBCPSEG0"); // an older format revision
        std::fs::write(&p, &bytes).unwrap();
        let seg = open_or_generate(&dir, &s, 2_000, Backing::Buffered, |_, reason| {
            panic!("stale is not corruption: {reason}")
        })
        .unwrap();
        assert_eq!(seg.records(), 12_000);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_specs_key_different_files() {
        let a = spec();
        let mut b = spec();
        b.seed = 22;
        let mut c = spec();
        c.measure_insts += 1;
        assert_ne!(trace_key(&a), trace_key(&b));
        assert_ne!(trace_key(&a), trace_key(&c));
        let dir = Path::new("/store");
        let pa = path_for(dir, &a);
        assert!(pa.starts_with("/store/traces"));
        assert!(pa.to_string_lossy().ends_with(".seg"));
    }
}
