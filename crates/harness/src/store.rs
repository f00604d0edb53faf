//! On-disk result store: one JSON file per cell (single-core [`crate::Job`]
//! or multi-core [`crate::CmpJob`]), keyed by content hash.
//!
//! A warm store makes re-runs incremental — `repro all` executed twice
//! at the same scale performs zero simulations the second time. Files
//! carry the job's full canonical string so a (vanishingly unlikely)
//! 64-bit hash collision is detected and treated as a miss rather than
//! silently returning the wrong result.
//!
//! Entries are **integrity-checked**: each file stores an FNV-1a
//! checksum of its compact result encoding. A corrupt entry — torn
//! write, flipped bit, unparsable JSON — is *quarantined* (renamed to
//! `<id>.json.corrupt`) and reads as a miss, so the job transparently
//! re-runs and overwrites it (self-heal). Merely *stale* entries (an
//! older schema version) are not corruption: they read as a plain miss
//! and are overwritten in place.
//!
//! Entries are **sharded** by the first two hex digits of the job id
//! (`<dir>/ab/<id>.json`, 256-way fan-out), so a store shared by many
//! hosts over a network mount never degenerates into one flat directory
//! of hundreds of thousands of files. Pre-sharding stores migrate
//! transparently: [`ResultStore::open`] sweeps any flat entries (and
//! their `.corrupt` quarantines) into their shards, and reads fall back
//! to the flat path — migrating read-through — in case another process
//! wrote one mid-transition.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ebcp_mem::{BusStats, MemStats};
use ebcp_sim::{CmpResult, SimResult};
use ebcp_trace::segfile::{Footer, FOOTER_BYTES};

use crate::job::fnv1a64;
use crate::json::{self, Value};
use crate::{Cell, CmpJob};

/// On-disk schema version of single-core entries; bump on incompatible
/// result layout changes. CMP entries carry their own `CMP_SCHEMA`.
///
/// v3: added the `checksum` integrity field.
pub(crate) const SCHEMA: u64 = 3;

/// Sequence counter making concurrent temp-file names unique within a
/// process; the pid makes them unique across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A pid- and sequence-unique sibling temp path for atomically
/// replacing `path` (write temp, rename). Two processes — or two
/// threads of one process — publishing the same target concurrently
/// each write their own temp file, so the final rename is the only
/// contended step and readers never observe a torn file.
pub(crate) fn unique_tmp(path: &Path, ext: &str) -> PathBuf {
    path.with_extension(format!(
        "{ext}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Outcome of an integrity-checked cache read.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheRead<T> {
    /// A valid entry.
    Hit(T),
    /// No entry (absent, stale schema, or a detected hash collision) —
    /// the caller simply runs the job and overwrites.
    Miss,
    /// A corrupt entry was detected and renamed to `*.corrupt`; the
    /// caller re-runs the job, overwriting the original path.
    Quarantined {
        /// Where the corrupt bytes were moved (best effort: the
        /// original path if the rename itself failed).
        path: PathBuf,
        /// Why the entry was rejected.
        reason: String,
    },
}

impl<T> CacheRead<T> {
    /// The hit value, if any.
    pub fn into_hit(self) -> Option<T> {
        match self {
            CacheRead::Hit(v) => Some(v),
            _ => None,
        }
    }
}

/// Moves a corrupt cache file out of the way (`<file>.corrupt`,
/// overwriting any previous quarantine of the same path) and returns
/// the quarantine record.
pub(crate) fn quarantine<T>(path: PathBuf, reason: String) -> CacheRead<T> {
    let mut corrupt = path.clone().into_os_string();
    corrupt.push(".corrupt");
    let corrupt = PathBuf::from(corrupt);
    let moved = fs::rename(&path, &corrupt).is_ok();
    CacheRead::Quarantined {
        path: if moved { corrupt } else { path },
        reason,
    }
}

/// The 2-hex shard directory a store file belongs to: the first two
/// characters of its 16-hex-digit id (256-way fan-out).
fn shard_of(name: &str) -> &str {
    &name[..2]
}

/// Whether `name` is a store entry (`<16 hex>.json`, optionally with a
/// `.corrupt` quarantine suffix). Temp files and foreign files are not.
fn is_store_entry_name(name: &str) -> bool {
    let stem = name.strip_suffix(".corrupt").unwrap_or(name);
    let Some(hex) = stem.strip_suffix(".json") else {
        return false;
    };
    hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit())
}

/// One-time sweep moving flat (pre-sharding) entries — `<id>.json` and
/// their `.corrupt` quarantines — into their shard directories. Best
/// effort and idempotent; concurrent opens race benignly (renaming an
/// already-moved file simply fails and the entry is found sharded).
pub(crate) fn migrate_flat_entries(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !is_store_entry_name(name) {
            continue;
        }
        let shard = dir.join(shard_of(name));
        if fs::create_dir_all(&shard).is_ok() {
            let _ = fs::rename(&path, shard.join(name));
        }
    }
}

/// A directory of cached cell results, keyed by [`Cell`] hash: one
/// `{schema, id, job, checksum, result}` JSON envelope per entry.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`, migrating any
    /// flat (pre-sharding) entries into their 2-hex shard directories.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created. Migration is best
    /// effort: an entry whose rename fails stays flat and is still
    /// readable through the read-through fallback.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        migrate_flat_entries(&dir);
        crate::preres::migrate_flat_streams(&dir);
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of a cell's entry (sharded layout; single-core
    /// entries are `<id>.json`, CMP entries `<id>.cmp.json`, so the two
    /// result shapes never collide on a file name). The file may or may
    /// not exist.
    pub fn entry_path<C: Cell>(&self, job: &C) -> PathBuf {
        let name = format!("{}{}", job.id(), C::SUFFIX);
        self.dir.join(shard_of(&name)).join(name)
    }

    /// [`ResultStore::entry_path`] for a CMP cell, under its historical name.
    pub fn cmp_entry_path(&self, job: &CmpJob) -> PathBuf {
        self.entry_path(job)
    }

    /// Loads the cached result for `job`, if present and valid.
    ///
    /// Convenience wrapper over [`ResultStore::load_checked`] that
    /// collapses misses and quarantines to `None`.
    pub fn load<C: Cell>(&self, job: &C) -> Option<C::Result> {
        self.load_checked(job).into_hit()
    }

    /// Integrity-checked load: distinguishes a valid entry, a plain
    /// miss (absent, stale schema, hash collision) and a *corrupt*
    /// entry, which is quarantined (renamed to `<name>.corrupt`) so
    /// the caller can log it and transparently re-run the cell.
    pub fn load_checked<C: Cell>(&self, job: &C) -> CacheRead<C::Result> {
        let sharded = self.entry_path(job);
        let (path, text) = match fs::read_to_string(&sharded) {
            Ok(text) => (sharded, text),
            Err(_) => {
                // Read-through migration: a process running pre-sharding
                // code may have written a flat entry after this store
                // was opened and swept. Move it home, best effort.
                let flat = self.dir.join(format!("{}{}", job.id(), C::SUFFIX));
                let Ok(text) = fs::read_to_string(&flat) else {
                    return CacheRead::Miss;
                };
                if let Some(parent) = sharded.parent() {
                    let _ = fs::create_dir_all(parent);
                }
                if fs::rename(&flat, &sharded).is_ok() {
                    (sharded, text)
                } else {
                    (flat, text)
                }
            }
        };
        let Ok(v) = json::parse(&text) else {
            return quarantine(path, "unparsable JSON".into());
        };
        let Some(schema) = v.get("schema").and_then(Value::as_u64) else {
            return quarantine(path, "missing schema field".into());
        };
        if schema != C::SCHEMA {
            // A different (older or newer) schema is staleness, not
            // corruption: plain miss, overwritten on save.
            return CacheRead::Miss;
        }
        // Collision guard: the stored canonical string must match the
        // cell that hashed to this file name. A well-formed entry for a
        // *different* cell is a collision, not corruption.
        match v.get("job").and_then(Value::as_str) {
            None => return quarantine(path, "missing job field".into()),
            Some(canon) if canon != job.canonical() => return CacheRead::Miss,
            Some(_) => {}
        }
        let Some(result) = v.get("result") else {
            return quarantine(path, "missing result field".into());
        };
        match v.get("checksum").and_then(Value::as_str) {
            Some(stored) if stored == result_checksum(result) => {}
            Some(_) => return quarantine(path, "checksum mismatch".into()),
            None => return quarantine(path, "missing checksum field".into()),
        }
        match C::decode(result) {
            Some(r) => CacheRead::Hit(r),
            None => quarantine(path, "undecodable result".into()),
        }
    }

    /// [`ResultStore::load_checked`] for a CMP cell, under its historical name.
    pub fn load_checked_cmp(&self, job: &CmpJob) -> CacheRead<CmpResult> {
        self.load_checked(job)
    }

    /// Persists `result` for `job` (atomically: write temp, rename).
    /// The temp name is pid- and sequence-unique, so concurrent saves
    /// of the same cell — from two processes sharing a store, or two
    /// threads — can never interleave writes into one temp file and
    /// publish a torn entry.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers may treat them as non-fatal
    /// (the run still succeeded, only the cache write was lost).
    pub fn save<C: Cell>(&self, job: &C, result: &C::Result) -> io::Result<()> {
        let result_json = C::encode(result);
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Int(C::SCHEMA)),
            ("id".into(), Value::Str(job.id().to_string())),
            ("job".into(), Value::Str(job.canonical())),
            ("checksum".into(), Value::Str(result_checksum(&result_json))),
            ("result".into(), result_json),
        ]);
        let path = self.entry_path(job);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp = unique_tmp(&path, "json");
        fs::write(&tmp, doc.to_json_pretty())?;
        fs::rename(&tmp, &path)
    }

    /// [`ResultStore::save`] for a CMP cell, under its historical name.
    ///
    /// # Errors
    ///
    /// As [`ResultStore::save`].
    pub fn save_cmp(&self, job: &CmpJob, result: &CmpResult) -> io::Result<()> {
        self.save(job, result)
    }
}

/// On-disk footprint of one class of store files (results, pre-resolved
/// streams, or traces).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreClassFootprint {
    /// Valid (non-quarantined) files.
    pub files: u64,
    /// Their total size in bytes.
    pub bytes: u64,
    /// Total segments across the class's segmented files (0 for the
    /// JSON result entries, which are not segmented).
    pub segments: u64,
    /// Quarantined `*.corrupt` files still on disk.
    pub corrupt: u64,
    /// Total size of those quarantined files in bytes. Kept out of
    /// [`StoreClassFootprint::bytes`] so healthy-store totals are not
    /// inflated by quarantine debris awaiting cleanup.
    pub quarantined_bytes: u64,
}

/// On-disk footprint of a whole result store: what `repro status`
/// reports, locally or through the sweep service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Cached simulation results (`<id>.json`).
    pub results: StoreClassFootprint,
    /// Pre-resolved event streams (`preres/*.bin`).
    pub preres: StoreClassFootprint,
    /// Segmented binary traces (`traces/*.seg`).
    pub traces: StoreClassFootprint,
}

impl StoreFootprint {
    /// Total healthy bytes across every class (quarantined files
    /// excluded — see [`StoreFootprint::quarantined_bytes`]).
    pub const fn total_bytes(&self) -> u64 {
        self.results.bytes + self.preres.bytes + self.traces.bytes
    }

    /// Total bytes held hostage by `*.corrupt` quarantine files across
    /// every class.
    pub const fn quarantined_bytes(&self) -> u64 {
        self.results.quarantined_bytes
            + self.preres.quarantined_bytes
            + self.traces.quarantined_bytes
    }
}

/// Segment count from the checksummed [`Footer`] shared by the
/// segmented trace and pre-resolved stream formats. `None` when the
/// file is too short or the footer does not verify — the scan then
/// counts the file's bytes but no segments, without quarantining
/// (footprint reporting is read-only).
fn footer_segments(path: &Path) -> Option<u64> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = fs::File::open(path).ok()?;
    let len = f.metadata().ok()?.len();
    let mut footer = [0u8; FOOTER_BYTES];
    f.seek(SeekFrom::Start(len.checked_sub(FOOTER_BYTES as u64)?))
        .ok()?;
    f.read_exact(&mut footer).ok()?;
    Footer::decode(&footer).map(|f| f.n_segs)
}

/// Scans one class directory tree, tallying files with `suffix` (and
/// their `.corrupt` quarantines); `segmented` adds per-file footer
/// segment counts.
fn scan_class(root: &Path, suffix: &str, segmented: bool) -> StoreClassFootprint {
    let mut out = StoreClassFootprint::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".corrupt") {
                out.corrupt += 1;
                out.quarantined_bytes += entry.metadata().map_or(0, |m| m.len());
                continue;
            }
            if !name.ends_with(suffix) {
                continue;
            }
            out.files += 1;
            out.bytes += entry.metadata().map_or(0, |m| m.len());
            if segmented {
                out.segments += footer_segments(&path).unwrap_or(0);
            }
        }
    }
    out
}

/// Scans a store directory and reports its on-disk footprint: file and
/// byte counts for result entries, pre-resolved streams and segmented
/// traces, segment counts for the segmented classes, and leftover
/// quarantines. Read-only and best-effort (unreadable entries are
/// skipped); safe to run concurrently with active sweeps.
pub fn store_footprint(dir: &Path) -> StoreFootprint {
    let mut results = StoreClassFootprint::default();
    // Result entries live in 2-hex shard directories directly under the
    // root (plus any not-yet-migrated flat files); `preres/` and
    // `traces/` are separate classes.
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() && name != "preres" && name != "traces" {
                let sub = scan_class(&path, ".json", false);
                results.files += sub.files;
                results.bytes += sub.bytes;
                results.corrupt += sub.corrupt;
                results.quarantined_bytes += sub.quarantined_bytes;
            } else if path.is_file() && is_store_entry_name(name) {
                if name.ends_with(".corrupt") {
                    results.corrupt += 1;
                    results.quarantined_bytes += entry.metadata().map_or(0, |m| m.len());
                } else {
                    results.files += 1;
                    results.bytes += entry.metadata().map_or(0, |m| m.len());
                }
            }
        }
    }
    StoreFootprint {
        results,
        preres: scan_class(&dir.join("preres"), ".bin", true),
        traces: scan_class(&dir.join("traces"), ".seg", true),
    }
}

/// The integrity checksum stored with each entry: FNV-1a over the
/// *compact* serialization of the result value, so pretty-printing
/// whitespace can never perturb it.
fn result_checksum(result: &Value) -> String {
    format!("{:016x}", fnv1a64(result.to_json().as_bytes()))
}

fn bus_to_json(b: &BusStats) -> Value {
    let arr = |a: &[u64; 5]| Value::Arr(a.iter().map(|&n| Value::Int(n)).collect());
    Value::Obj(vec![
        ("transfers".into(), arr(&b.transfers)),
        ("dropped".into(), arr(&b.dropped)),
        ("busy_cycles".into(), arr(&b.busy_cycles)),
    ])
}

fn bus_from_json(v: &Value) -> Option<BusStats> {
    let arr = |key: &str| -> Option<[u64; 5]> {
        let items = v.get(key)?.as_arr()?;
        if items.len() != 5 {
            return None;
        }
        let mut out = [0u64; 5];
        for (slot, item) in out.iter_mut().zip(items) {
            *slot = item.as_u64()?;
        }
        Some(out)
    };
    Some(BusStats {
        transfers: arr("transfers")?,
        dropped: arr("dropped")?,
        busy_cycles: arr("busy_cycles")?,
    })
}

/// Encodes a [`SimResult`] as JSON (also used for `results.json`).
pub fn result_to_json(r: &SimResult) -> Value {
    Value::Obj(vec![
        ("prefetcher".into(), Value::Str(r.prefetcher.clone())),
        ("workload".into(), Value::Str(r.workload.clone())),
        ("insts".into(), Value::Int(r.insts)),
        ("cycles".into(), Value::Int(r.cycles)),
        ("epochs".into(), Value::Int(r.epochs)),
        ("l2_inst_misses".into(), Value::Int(r.l2_inst_misses)),
        ("l2_load_misses".into(), Value::Int(r.l2_load_misses)),
        ("l2_store_misses".into(), Value::Int(r.l2_store_misses)),
        ("secondary_misses".into(), Value::Int(r.secondary_misses)),
        ("averted_inst".into(), Value::Int(r.averted_inst)),
        ("averted_load".into(), Value::Int(r.averted_load)),
        ("averted_store".into(), Value::Int(r.averted_store)),
        ("partial_hits".into(), Value::Int(r.partial_hits)),
        ("pf_requested".into(), Value::Int(r.pf_requested)),
        ("pf_issued".into(), Value::Int(r.pf_issued)),
        ("pf_dropped_bus".into(), Value::Int(r.pf_dropped_bus)),
        ("pf_dropped_mshr".into(), Value::Int(r.pf_dropped_mshr)),
        ("pf_filtered".into(), Value::Int(r.pf_filtered)),
        ("pf_evicted_unused".into(), Value::Int(r.pf_evicted_unused)),
        ("table_reads".into(), Value::Int(r.table_reads)),
        ("table_read_drops".into(), Value::Int(r.table_read_drops)),
        ("table_writes".into(), Value::Int(r.table_writes)),
        ("writebacks".into(), Value::Int(r.writebacks)),
        ("store_skipped".into(), Value::Int(r.store_skipped)),
        ("stall_cycles".into(), Value::Int(r.stall_cycles)),
        (
            "mem".into(),
            Value::Obj(vec![
                ("read".into(), bus_to_json(&r.mem.read)),
                ("write".into(), bus_to_json(&r.mem.write)),
            ]),
        ),
    ])
}

/// Decodes a [`SimResult`]; `None` on any missing or mistyped field.
pub fn result_from_json(v: &Value) -> Option<SimResult> {
    let n = |key: &str| v.get(key)?.as_u64();
    Some(SimResult {
        prefetcher: v.get("prefetcher")?.as_str()?.to_owned(),
        workload: v.get("workload")?.as_str()?.to_owned(),
        insts: n("insts")?,
        cycles: n("cycles")?,
        epochs: n("epochs")?,
        l2_inst_misses: n("l2_inst_misses")?,
        l2_load_misses: n("l2_load_misses")?,
        l2_store_misses: n("l2_store_misses")?,
        secondary_misses: n("secondary_misses")?,
        averted_inst: n("averted_inst")?,
        averted_load: n("averted_load")?,
        averted_store: n("averted_store")?,
        partial_hits: n("partial_hits")?,
        pf_requested: n("pf_requested")?,
        pf_issued: n("pf_issued")?,
        pf_dropped_bus: n("pf_dropped_bus")?,
        pf_dropped_mshr: n("pf_dropped_mshr")?,
        pf_filtered: n("pf_filtered")?,
        pf_evicted_unused: n("pf_evicted_unused")?,
        table_reads: n("table_reads")?,
        table_read_drops: n("table_read_drops")?,
        table_writes: n("table_writes")?,
        writebacks: n("writebacks")?,
        store_skipped: n("store_skipped")?,
        stall_cycles: n("stall_cycles")?,
        mem: MemStats {
            read: bus_from_json(v.get("mem")?.get("read")?)?,
            write: bus_from_json(v.get("mem")?.get("write")?)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;
    use ebcp_sim::{PrefetcherSpec, RunSpec, SimConfig};
    use ebcp_trace::WorkloadSpec;

    fn sample_result() -> SimResult {
        SimResult {
            prefetcher: "ebcp".into(),
            workload: "database".into(),
            insts: 123_456,
            cycles: 456_789,
            epochs: 777,
            l2_load_misses: 4_242,
            pf_issued: u64::MAX, // exercise exact u64 round-trip
            mem: MemStats {
                read: BusStats {
                    transfers: [1, 2, 3, 4, 5],
                    dropped: [0; 5],
                    busy_cycles: [9, 8, 7, 6, 5],
                },
                write: BusStats::default(),
            },
            ..SimResult::default()
        }
    }

    fn sample_job() -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed: 1,
                warmup_insts: 100,
                measure_insts: 100,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::None,
        )
    }

    fn temp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("ebcp-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn result_codec_round_trips() {
        let r = sample_result();
        let v = result_to_json(&r);
        let text = v.to_json_pretty();
        let back = result_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn save_then_load() {
        let store = temp_store("roundtrip");
        let job = sample_job();
        assert!(store.load(&job).is_none(), "cold store must miss");
        let r = sample_result();
        store.save(&job, &r).unwrap();
        assert_eq!(store.load(&job), Some(r));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unparsable_entry_is_quarantined() {
        let store = temp_store("corrupt");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        let path = store.entry_path(&job);
        fs::write(&path, "{ not json").unwrap();
        match store.load_checked(&job) {
            CacheRead::Quarantined { path: q, reason } => {
                assert!(q.to_string_lossy().ends_with(".corrupt"), "{}", q.display());
                assert!(q.is_file(), "corrupt bytes must be preserved");
                assert!(reason.contains("unparsable"), "{reason}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert!(!path.exists(), "the corrupt entry must be moved away");
        // Self-heal: saving again overwrites and the entry reads back.
        store.save(&job, &sample_result()).unwrap();
        assert_eq!(store.load(&job), Some(sample_result()));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// One sample cell with two distinct results and a counter value
    /// that appears once in its entry.
    struct Sample<C: Cell> {
        job: C,
        a: C::Result,
        b: C::Result,
        counter: &'static [u8],
    }

    /// A sample of each kind — a single-core job and a CMP cell — for
    /// the store-envelope cases, which run over both.
    fn samples() -> (Sample<Job>, Sample<CmpJob>) {
        let cmp = crate::cmp::tests::sample_result(2);
        let mut other = cmp.clone();
        other.aggregate.insts = 999_999_999;
        (
            Sample {
                job: sample_job(),
                a: sample_result(),
                b: SimResult {
                    insts: 999_999_999,
                    ..sample_result()
                },
                counter: b"123456,",
            },
            Sample {
                job: CmpJob::new(crate::cmp::tests::sample_spec(2), PrefetcherSpec::None),
                a: cmp,
                b: other,
                counter: b"9000,",
            },
        )
    }

    #[test]
    fn bit_flip_in_counter_is_quarantined() {
        let (job, cmp) = samples();
        bit_flip_case("bitflip-job", job);
        bit_flip_case("bitflip-cmp", cmp);
    }

    /// Flips a digit inside the result payload: still valid JSON, but a
    /// different value than the checksum covers. The entry is
    /// quarantined, and a fresh save heals it.
    fn bit_flip_case<C: Cell>(tag: &str, sample: Sample<C>)
    where
        C::Result: PartialEq + std::fmt::Debug,
    {
        let Sample {
            job, a, counter, ..
        } = sample;
        let store = temp_store(tag);
        assert_eq!(
            store.load_checked(&job),
            CacheRead::Miss,
            "cold store must miss"
        );
        store.save(&job, &a).unwrap();
        let path = store.entry_path(&job);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes
            .windows(counter.len())
            .position(|w| w == counter)
            .expect("sample counter must appear in the entry");
        bytes[at] = if bytes[at] == b'9' { b'7' } else { b'9' };
        fs::write(&path, &bytes).unwrap();
        match store.load_checked(&job) {
            CacheRead::Quarantined { path: q, reason } => {
                assert!(reason.contains("checksum"), "{reason}");
                assert!(q.to_string_lossy().ends_with(".corrupt"), "{}", q.display());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        store.save(&job, &a).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Hit(a));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn stale_schema_is_a_plain_miss_not_corruption() {
        let (job, cmp) = samples();
        stale_schema_case("stale-job", job);
        stale_schema_case("stale-cmp", cmp);
    }

    fn stale_schema_case<C: Cell>(tag: &str, sample: Sample<C>)
    where
        C::Result: PartialEq + std::fmt::Debug,
    {
        let Sample { job, a, .. } = sample;
        let store = temp_store(tag);
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Int(C::SCHEMA - 1)),
            ("id".into(), Value::Str(job.id().to_string())),
            ("job".into(), Value::Str(job.canonical())),
            ("result".into(), C::encode(&a)),
        ]);
        let path = store.entry_path(&job);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, doc.to_json()).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Miss);
        assert!(path.exists(), "stale entries are not quarantined");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn canonical_mismatch_reads_as_miss() {
        let (job, cmp) = samples();
        canonical_mismatch_case("collision-job", job);
        canonical_mismatch_case("collision-cmp", cmp);
    }

    /// Simulates a hash collision: a valid entry under this cell's file
    /// name whose canonical string belongs to some other cell.
    fn canonical_mismatch_case<C: Cell>(tag: &str, sample: Sample<C>)
    where
        C::Result: PartialEq + std::fmt::Debug,
    {
        let Sample { job, a, .. } = sample;
        let store = temp_store(tag);
        let doc = Value::Obj(vec![
            ("schema".into(), Value::Int(C::SCHEMA)),
            ("id".into(), Value::Str(job.id().to_string())),
            ("job".into(), Value::Str("other-job".into())),
            ("result".into(), C::encode(&a)),
        ]);
        let path = store.entry_path(&job);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, doc.to_json()).unwrap();
        assert_eq!(store.load_checked(&job), CacheRead::Miss);
        assert!(path.exists(), "collisions are not quarantined");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// Two concurrent writers publishing the same job id — the shape of
    /// two `repro` processes sharing one store — must never tear an
    /// entry: every interleaved load sees either a miss or a fully
    /// valid result, and both final candidates are intact. Before temp
    /// names were unique per save, both writers shared one `json.tmp`
    /// and could rename a half-written file into place.
    #[test]
    fn concurrent_saves_never_publish_a_torn_entry() {
        let (job, cmp) = samples();
        concurrent_saves_case("race-job", job);
        concurrent_saves_case("race-cmp", cmp);
    }

    fn concurrent_saves_case<C: Cell>(tag: &str, sample: Sample<C>)
    where
        C::Result: PartialEq + std::fmt::Debug + Sync,
    {
        let Sample { job, a, b, .. } = sample;
        let store = temp_store(tag);
        std::thread::scope(|s| {
            for result in [&a, &b] {
                let (store, job) = (&store, &job);
                s.spawn(move || {
                    for _ in 0..200 {
                        store.save(job, result).unwrap();
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..400 {
                    match store.load_checked(&job) {
                        CacheRead::Hit(r) => assert!(r == a || r == b, "torn entry read back"),
                        CacheRead::Miss => {}
                        CacheRead::Quarantined { reason, .. } => {
                            panic!("torn entry quarantined: {reason}")
                        }
                    }
                }
            });
        });
        let got = store.load(&job).expect("final entry must be valid");
        assert!(got == a || got == b);
        // No temp litter left behind once both writers finished.
        let shard = store.entry_path(&job);
        let leftovers: Vec<_> = fs::read_dir(shard.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A flat (pre-sharding) store migrates on open: entries and their
    /// quarantines move into 2-hex shard directories and read back.
    #[test]
    fn flat_store_migrates_on_open() {
        let store = temp_store("migrate");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        // Reconstruct the legacy layout: entry + a quarantine, flat.
        let sharded = store.entry_path(&job);
        let flat = store.dir().join(format!("{}.json", job.id()));
        fs::rename(&sharded, &flat).unwrap();
        let flat_corrupt = store.dir().join(format!("{}.json.corrupt", job.id()));
        fs::write(&flat_corrupt, "old corrupt bytes").unwrap();
        let dir = store.dir().to_path_buf();
        drop(store);

        let store = ResultStore::open(&dir).unwrap();
        assert!(!flat.exists(), "entry must move into its shard");
        assert!(sharded.is_file());
        assert!(!flat_corrupt.exists(), "quarantines migrate too");
        let mut corrupt = sharded.clone().into_os_string();
        corrupt.push(".corrupt");
        assert!(PathBuf::from(corrupt).is_file());
        assert_eq!(store.load(&job), Some(sample_result()));
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A flat entry that appears *after* open (written by a pre-sharding
    /// process sharing the store) is found and migrated read-through.
    #[test]
    fn flat_entry_is_read_through_migrated() {
        let store = temp_store("readthrough");
        let job = sample_job();
        store.save(&job, &sample_result()).unwrap();
        let sharded = store.entry_path(&job);
        let flat = store.dir().join(format!("{}.json", job.id()));
        fs::rename(&sharded, &flat).unwrap();
        assert_eq!(store.load(&job), Some(sample_result()));
        assert!(!flat.exists(), "read must migrate the flat entry");
        assert!(sharded.is_file());
        let _ = fs::remove_dir_all(store.dir());
    }
}
