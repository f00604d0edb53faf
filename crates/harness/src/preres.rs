//! On-disk cache for pre-resolved event streams.
//!
//! A stream depends only on `(workload, seed, record count, L1
//! geometry)` — see [`Job::pre_key`](crate::Job::pre_key) — so across
//! processes the front-end pass runs once per workload and every later
//! sweep deserializes the packed events instead of re-resolving the
//! trace. Files live under `<store_dir>/preres/<2-hex>/<pre_key>.bin`,
//! sharded — like result entries — by the key's first two hex digits;
//! flat pre-sharding files migrate transparently (swept on store open,
//! or read-through on first load).
//!
//! Format v4 ("EBCPPRE4"), all integers little-endian. The event
//! payload is cut into **segments** (each standing for a whole number
//! of trace records) with a per-segment index, so the large tier can
//! replay a stream block at a time — O(segment) peak memory — while
//! the quick tier keeps writing one segment covering the whole stream:
//!
//! ```text
//! magic     8 B   "EBCPPRE4"
//! canon_len u32   length of the canonical key string
//! canon     ...   the exact string `pre_key` hashed (collision guard)
//! payload   per-segment runs of events
//!               { pc u64, dline u64, gap u32, flags u32 }  (24 B each)
//! index     n_segs x { n_events u64, records u64, checksum u64 }
//!               (checksum = XXH64 over that segment's payload bytes)
//! footer   48 B   the segmented-trace footer (ebcp_trace::segfile::Footer)
//! ```
//!
//! The framing and every checksum (streaming XXH64, seed 0) are shared
//! with the segmented trace format through `ebcp_trace::segfile`; v3
//! ("EBCPPRE3") used FNV-1a and now reads as stale. The index and
//! totals live in a footer so [`PreresWriter`] can stream blocks out in
//! one pass without knowing the totals up front (`seg_records` is the
//! writer's nominal segment length in records, recorded for operator
//! display — block replay reads per-segment record counts from the
//! index).
//!
//! Loads are **integrity-checked**. A wrong magic (an older format
//! revision) or a canonical-string mismatch (hash collision) is
//! *staleness*: a plain miss, overwritten in place by the next save. A
//! checksum mismatch, truncation, a length that disagrees with the
//! index, an event kind out of range, or a segment whose events do not
//! sum to its indexed record count is *corruption*: the file is
//! quarantined (renamed to `*.corrupt`) and the front-end pass
//! transparently re-runs, overwriting the original path (self-heal).
//! Either way a bad entry only costs one front-end pass, never a wrong
//! stream. [`open_stream_checked`] verifies all of that in one
//! sequential pass through a fixed buffer at open, so
//! [`PreresStream::block`] reads during replay skip re-verification;
//! [`load_checked`] decodes the events in that same pass.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use ebcp_sim::frontend::{PreBlock, PreEvent, PreResolved};
use ebcp_sim::{RunSpec, SegmentSink};
use ebcp_trace::segfile::{
    encode_head, open_frame, read_pieces, verify_payload, Footer, SegfileError,
};
use ebcp_types::checksum::{checksum64, Checksum64};

use crate::job::{Job, CANON_VERSION};
use crate::store::{quarantine, unique_tmp, CacheRead};

/// v4 ("EBCPPRE4"): v3's segmented layout with XXH64 checksums.
const MAGIC: &[u8; 8] = b"EBCPPRE4";

/// Bytes per packed event (`pc u64, dline u64, gap u32, flags u32`).
pub const EVENT_BYTES: u64 = 24;

/// Bytes per index entry (`n_events u64, records u64, checksum u64`).
const INDEX_ENTRY_BYTES: u64 = 24;

/// Events encoded per write: bounds the writer's staging buffer.
const WRITE_SLICE_EVENTS: usize = 4096;

/// The canonical string [`Job::pre_key`] hashes — regenerated here so
/// the stored collision guard and the key can never drift apart.
fn pre_canonical(spec: &RunSpec) -> String {
    format!(
        "{CANON_VERSION}|pre|{:?}|{}|{}|{:?}|{:?}",
        spec.workload,
        spec.seed,
        spec.warmup_insts + spec.measure_insts,
        spec.sim.l1i,
        spec.sim.l1d,
    )
}

/// Cache file path for a job's stream under `store_dir` (sharded by
/// the first two hex digits of the pre-key).
pub fn path_for(store_dir: &Path, job: &Job) -> PathBuf {
    let name = format!("{:016x}.bin", job.pre_key());
    store_dir.join("preres").join(&name[..2]).join(name)
}

/// The legacy flat path streams lived at before sharding.
fn flat_path_for(store_dir: &Path, job: &Job) -> PathBuf {
    store_dir
        .join("preres")
        .join(format!("{:016x}.bin", job.pre_key()))
}

/// One-time sweep moving flat (pre-sharding) stream files — and their
/// `.corrupt` quarantines — into shard directories. Best effort and
/// idempotent; called when a [`crate::ResultStore`] opens.
pub(crate) fn migrate_flat_streams(store_dir: &Path) {
    let Ok(entries) = std::fs::read_dir(store_dir.join("preres")) else {
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
        let stem = name.strip_suffix(".corrupt").unwrap_or(name);
        let ok = matches!(stem.strip_suffix(".bin"),
            Some(hex) if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()));
        if !ok {
            continue;
        }
        let shard = store_dir.join("preres").join(&name[..2]);
        if std::fs::create_dir_all(&shard).is_ok() {
            let _ = std::fs::rename(&path, shard.join(name));
        }
    }
}

// ---------------------------------------------------------------------------
// Writing

/// Streaming writer for a job's cached stream: push blocks — or events
/// as they resolve, closing each segment with its record count — as
/// the front-end pass produces them; nothing but the index and one
/// bounded staging buffer is held. Written to a pid- and
/// sequence-unique temp file and renamed on [`PreresWriter::finish`] so
/// concurrent writers never interleave and readers never observe a
/// partial file; a writer dropped without a successful `finish` removes
/// its temp file.
pub struct PreresWriter {
    w: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    published: bool,
    head_checksum: u64,
    seg_records: u64,
    records: u64,
    index: Vec<(u64, u64, u64)>,
    /// Events and running checksum of the open segment.
    seg_events: u64,
    seg_hash: Checksum64,
    buf: Vec<u8>,
}

impl PreresWriter {
    /// Starts a stream for `job` under `store_dir`. `seg_records` is
    /// the nominal segment length in records (recorded in the footer;
    /// the tail block may run short).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn create(store_dir: &Path, job: &Job, seg_records: u64) -> io::Result<PreresWriter> {
        let path = path_for(store_dir, job);
        let dir = path.parent().expect("path_for always has a parent");
        std::fs::create_dir_all(dir)?;
        let head = encode_head(MAGIC, pre_canonical(&job.spec).as_bytes());
        let tmp = unique_tmp(&path, "bin");
        let mut writer = PreresWriter {
            w: BufWriter::new(File::create(&tmp)?),
            tmp,
            path,
            published: false,
            head_checksum: checksum64(&head),
            seg_records,
            records: 0,
            index: Vec::new(),
            seg_events: 0,
            seg_hash: Checksum64::new(),
            buf: Vec::new(),
        };
        writer.w.write_all(&head)?;
        Ok(writer)
    }

    /// Appends one segment: `events` covering `records` trace records.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn push_block(&mut self, events: &[PreEvent], records: u64) -> io::Result<()> {
        self.push_events(events)?;
        self.end_segment(records);
        Ok(())
    }

    /// Appends `events` to the open segment. The checksum is streamed,
    /// so any split of a segment's events across calls writes the same
    /// bytes as one [`PreresWriter::push_block`].
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn push_events(&mut self, events: &[PreEvent]) -> io::Result<()> {
        for slice in events.chunks(WRITE_SLICE_EVENTS) {
            self.buf.resize(slice.len() * EVENT_BYTES as usize, 0);
            for (out, ev) in self.buf.chunks_exact_mut(EVENT_BYTES as usize).zip(slice) {
                out[0..8].copy_from_slice(&ev.pc.to_le_bytes());
                out[8..16].copy_from_slice(&ev.dline.to_le_bytes());
                out[16..20].copy_from_slice(&ev.gap.to_le_bytes());
                out[20..24].copy_from_slice(&ev.flags.to_le_bytes());
            }
            self.seg_hash.update(&self.buf);
            self.w.write_all(&self.buf)?;
        }
        self.seg_events += events.len() as u64;
        Ok(())
    }

    /// Closes the open segment, which stands for `records` trace
    /// records, and starts the next one (the index is written by
    /// [`PreresWriter::finish`]).
    pub fn end_segment(&mut self, records: u64) {
        let hash = std::mem::replace(&mut self.seg_hash, Checksum64::new());
        self.index.push((self.seg_events, records, hash.finish()));
        self.seg_events = 0;
        self.records += records;
    }

    /// Writes index + footer and atomically renames into place.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures; the tmp file is removed on a
    /// failed publish.
    pub fn finish(mut self) -> io::Result<()> {
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES as usize);
        for &(n_events, records, checksum) in &self.index {
            index_bytes.extend_from_slice(&n_events.to_le_bytes());
            index_bytes.extend_from_slice(&records.to_le_bytes());
            index_bytes.extend_from_slice(&checksum.to_le_bytes());
        }
        let footer = Footer {
            records: self.records,
            seg_records: self.seg_records,
            n_segs: self.index.len() as u64,
            index_checksum: checksum64(&index_bytes),
            head_checksum: self.head_checksum,
        };
        self.w.write_all(&index_bytes)?;
        self.w.write_all(&footer.encode())?;
        self.w.flush()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(())
    }
}

impl SegmentSink for PreresWriter {
    fn push_events(&mut self, events: &[PreEvent]) -> io::Result<()> {
        PreresWriter::push_events(self, events)
    }
    fn end_segment(&mut self, records: u64) -> io::Result<()> {
        PreresWriter::end_segment(self, records);
        Ok(())
    }
}

impl Drop for PreresWriter {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Saves `pre` as `job`'s cached stream — one segment covering the
/// whole stream (the quick-tier layout; the large tier streams blocks
/// through [`PreresWriter`] directly).
///
/// # Errors
///
/// Propagates file-system failures (callers may ignore them: a failed
/// save only loses incrementality).
pub fn save(store_dir: &Path, job: &Job, pre: &PreResolved) -> io::Result<()> {
    let mut w = PreresWriter::create(store_dir, job, pre.records.max(1))?;
    w.push_block(&pre.events, pre.records)?;
    w.finish()
}

// ---------------------------------------------------------------------------
// Reading

#[derive(Clone)]
struct SegEntry {
    n_events: u64,
    records: u64,
    /// Byte offset of this segment's payload from the payload base.
    byte_off: u64,
}

/// A validated, open stream whose blocks are read lazily — the
/// bounded-memory counterpart of a loaded [`PreResolved`].
pub struct PreresStream {
    file: File,
    payload_base: u64,
    records: u64,
    seg_records: u64,
    index: Vec<SegEntry>,
    /// Reusable read buffer for [`PreresStream::block`].
    buf: Vec<u8>,
}

/// Appends the events packed in `bytes` (a whole number of events).
fn decode_events(bytes: &[u8], out: &mut Vec<PreEvent>) {
    out.extend(bytes.chunks_exact(EVENT_BYTES as usize).map(|ev| PreEvent {
        pc: u64::from_le_bytes(ev[0..8].try_into().expect("8-byte field")),
        dline: u64::from_le_bytes(ev[8..16].try_into().expect("8-byte field")),
        gap: u32::from_le_bytes(ev[16..20].try_into().expect("4-byte field")),
        flags: u32::from_le_bytes(ev[20..24].try_into().expect("4-byte field")),
    }));
}

impl PreresStream {
    /// Total trace records the stream stands for.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The writer's nominal segment length in records.
    pub fn seg_records(&self) -> u64 {
        self.seg_records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.index.len()
    }

    /// Packed-event bytes of the largest segment — the peak resident
    /// block cost of replaying this stream, which the harness memory
    /// budget charges per streamed worker.
    pub fn max_block_bytes(&self) -> u64 {
        self.index
            .iter()
            .map(|s| s.n_events * EVENT_BYTES)
            .max()
            .unwrap_or(0)
    }

    /// Reads segment `k` (validated at open; no re-verification).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn block(&mut self, k: usize) -> io::Result<PreBlock> {
        // Sized for the largest block, not this one: each block then
        // reuses the allocation its predecessor freed, so the peak
        // resident set does not depend on the per-segment event counts.
        let mut events = Vec::with_capacity((self.max_block_bytes() / EVENT_BYTES) as usize);
        let seg = &self.index[k];
        read_pieces::<io::Error>(
            &mut self.file,
            self.payload_base + seg.byte_off,
            seg.n_events * EVENT_BYTES,
            EVENT_BYTES as usize,
            &mut self.buf,
            |piece| {
                decode_events(piece, &mut events);
                Ok(())
            },
        )?;
        Ok(PreBlock {
            events,
            records: seg.records,
        })
    }

    /// Iterates blocks in order, one resident at a time.
    ///
    /// # Panics
    ///
    /// Panics on a file-system failure mid-iteration (the stream was
    /// fully validated at open; a read failing mid-replay is an
    /// environment fault).
    pub fn blocks(&mut self) -> impl Iterator<Item = PreBlock> + '_ {
        (0..self.index.len()).map(|k| self.block(k).expect("validated stream read mid-replay"))
    }
}

/// Opens and fully validates `job`'s cached stream for block-at-a-time
/// replay. Verification (header, index, footer, every segment
/// checksum, event kinds and per-segment record sums) runs in one
/// sequential pass through a fixed buffer; corruption quarantines the
/// file, staleness and collisions are plain misses — exactly the
/// [`load_checked`] semantics.
pub fn open_stream_checked(store_dir: &Path, job: &Job) -> CacheRead<PreresStream> {
    open_checked(store_dir, job, None)
}

/// The one verify pass behind [`open_stream_checked`] and
/// [`load_checked`]: when `decoded` is given, every verified event is
/// also appended to it, so a whole-stream load reads the file once.
fn open_checked(
    store_dir: &Path,
    job: &Job,
    decoded: Option<&mut Vec<PreEvent>>,
) -> CacheRead<PreresStream> {
    let path = path_for(store_dir, job);
    if !path.exists() {
        // Rename-based migration from the flat pre-sharding path.
        let flat = flat_path_for(store_dir, job);
        if flat.is_file() {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::rename(&flat, &path);
        }
    }
    let Ok(mut file) = File::open(&path) else {
        return CacheRead::Miss;
    };
    match verify(&mut file, job, decoded) {
        Ok((payload_base, footer, index)) => CacheRead::Hit(PreresStream {
            file,
            payload_base,
            records: footer.records,
            seg_records: footer.seg_records,
            index,
            buf: Vec::new(),
        }),
        // Older format revisions, hash collisions and unreadable files
        // are plain misses, overwritten on save.
        Err(SegfileError::Stale | SegfileError::Io(_)) => CacheRead::Miss,
        Err(SegfileError::Corrupt(reason)) => quarantine(path, reason),
    }
}

fn verify(
    file: &mut File,
    job: &Job,
    decoded: Option<&mut Vec<PreEvent>>,
) -> Result<(u64, Footer, Vec<SegEntry>), SegfileError> {
    let corrupt = |why: String| Err(SegfileError::Corrupt(why));
    let frame = open_frame(file, MAGIC, pre_canonical(&job.spec).as_bytes())?;
    let index_bytes = frame.read_index(file, INDEX_ENTRY_BYTES)?;
    let mut index = Vec::with_capacity(index_bytes.len() / INDEX_ENTRY_BYTES as usize);
    let mut checksums = Vec::with_capacity(index.capacity());
    let mut byte_off = 0u64;
    let mut rec_sum = 0u64;
    for entry in index_bytes.chunks_exact(INDEX_ENTRY_BYTES as usize) {
        let n_events = le_u64(entry, 0);
        let records = le_u64(entry, 8);
        index.push(SegEntry {
            n_events,
            records,
            byte_off,
        });
        checksums.push(le_u64(entry, 16));
        // Saturating: an absurd count still fails the length check.
        byte_off = byte_off.saturating_add(n_events.saturating_mul(EVENT_BYTES));
        rec_sum = rec_sum.saturating_add(records);
    }
    let payload_len = frame.index_base(INDEX_ENTRY_BYTES) - frame.payload_base;
    if byte_off != payload_len {
        return corrupt(format!(
            "payload length {payload_len} disagrees with header event count {}",
            byte_off / EVENT_BYTES
        ));
    }
    if rec_sum != frame.footer.records {
        return corrupt(format!(
            "index sums to {rec_sum} records, footer claims {}",
            frame.footer.records
        ));
    }

    // Eager integrity pass: checksums, event kinds and per-segment
    // record sums, so block reads during replay skip re-verification.
    // The length check above bounds `decoded`'s reservation by the file.
    let mut decoded = decoded;
    if let Some(out) = decoded.as_deref_mut() {
        out.reserve_exact((payload_len / EVENT_BYTES) as usize);
    }
    let mut seg_sums = vec![0u64; index.len()];
    let mut events = Vec::new();
    verify_payload(
        file,
        frame.payload_base,
        index
            .iter()
            .zip(&checksums)
            .map(|(s, &sum)| (s.n_events * EVENT_BYTES, sum)),
        EVENT_BYTES as usize,
        |k, piece| {
            let out = match decoded.as_deref_mut() {
                Some(out) => out,
                None => {
                    events.clear();
                    &mut events
                }
            };
            let from = out.len();
            decode_events(piece, out);
            let piece_events = &out[from..];
            if let Some(bad) = piece_events.iter().find(|ev| !ev.kind_in_range()) {
                return Err(format!("segment {k} holds event flags {:#x}", bad.flags));
            }
            seg_sums[k] = piece_events
                .iter()
                .fold(seg_sums[k], |sum, ev| sum.saturating_add(ev.records()));
            Ok(())
        },
    )?;
    for (k, (seg, &got)) in index.iter().zip(&seg_sums).enumerate() {
        if got != seg.records {
            return corrupt(format!(
                "segment {k} events stand for {got} records, index claims {}",
                seg.records
            ));
        }
    }
    Ok((frame.payload_base, frame.footer, index))
}

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte window"))
}

/// Loads a cached stream for `job`, or `None` on any miss, mismatch or
/// quarantined corruption. Convenience wrapper over [`load_checked`].
pub fn load(store_dir: &Path, job: &Job) -> Option<PreResolved> {
    load_checked(store_dir, job).into_hit()
}

/// Integrity-checked load of the whole stream: distinguishes a valid
/// stream, a plain miss (absent file, older magic, hash collision) and
/// a *corrupt* file, which is quarantined (renamed to `*.corrupt`) so
/// the caller can log it and transparently re-resolve.
///
/// Verifies and decodes every segment in one read — materialized-memory
/// semantics for the quick tier; the large tier uses
/// [`open_stream_checked`] + [`PreresStream::blocks`] instead.
pub fn load_checked(store_dir: &Path, job: &Job) -> CacheRead<PreResolved> {
    let mut events = Vec::new();
    match open_checked(store_dir, job, Some(&mut events)) {
        CacheRead::Hit(stream) => CacheRead::Hit(PreResolved {
            events,
            records: stream.records,
            l1i: job.spec.sim.l1i,
            l1d: job.spec.sim.l1d,
        }),
        CacheRead::Miss => CacheRead::Miss,
        CacheRead::Quarantined { path, reason } => CacheRead::Quarantined { path, reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebcp_sim::{PrefetcherSpec, SimConfig};
    use ebcp_trace::segfile::FOOTER_BYTES;
    use ebcp_trace::WorkloadSpec;

    fn job() -> Job {
        Job::new(
            RunSpec {
                workload: WorkloadSpec::database().scaled(1, 16),
                seed: 9,
                warmup_insts: 10_000,
                measure_insts: 10_000,
                sim: SimConfig::scaled_down(16),
            },
            PrefetcherSpec::None,
        )
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ebcp-preres-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn expect_quarantined<T>(read: CacheRead<T>, reason_part: &str) {
        match read {
            CacheRead::Quarantined { path, reason } => {
                assert!(reason.contains(reason_part), "{reason}");
                assert!(
                    path.to_string_lossy().ends_with(".corrupt"),
                    "{}",
                    path.display()
                );
                assert!(path.is_file(), "corrupt bytes must be preserved");
            }
            other => panic!(
                "expected quarantine, got miss/hit: {:?}",
                other.into_hit().is_some()
            ),
        }
    }

    #[test]
    fn round_trip_preserves_stream() {
        let dir = tmpdir("rt");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let loaded = load(&dir, &j).expect("cache hit");
        assert_eq!(loaded, pre);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_segment_stream_round_trips_blockwise() {
        let dir = tmpdir("multiseg");
        let j = job();
        let pre = j.spec.pre_resolve();
        let blocks = ebcp_sim::segment_events(&pre, 3_000);
        let mut w = PreresWriter::create(&dir, &j, 3_000).unwrap();
        for b in &blocks {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();

        let mut stream = open_stream_checked(&dir, &j).into_hit().expect("hit");
        assert_eq!(stream.records(), pre.records);
        assert_eq!(stream.seg_records(), 3_000);
        assert_eq!(stream.n_segments(), blocks.len());
        assert!(stream.max_block_bytes() > 0);
        let back: Vec<PreBlock> = stream.blocks().collect();
        assert_eq!(back, blocks, "blocks survive the disk round trip");

        // The whole-stream load concatenates the same events.
        let loaded = load(&dir, &j).expect("hit");
        let concat: Vec<PreEvent> = blocks.iter().flat_map(|b| b.events.clone()).collect();
        assert_eq!(loaded.events, concat);
        assert_eq!(loaded.records, pre.records);
        let _ = std::fs::remove_dir_all(&dir);
    }

    use proptest::prelude::*;

    proptest! {
        /// Appending a segment's events in arbitrary slices and closing
        /// it with its record count writes the file `push_block` writes,
        /// byte for byte: the segment checksum is streamed.
        #[test]
        fn sliced_segments_write_the_push_block_bytes(
            cuts in proptest::collection::vec(1usize..2_000, 0..12),
        ) {
            let j = job();
            let blocks = ebcp_sim::segment_events(&j.spec.pre_resolve(), 3_000);
            let (whole, sliced) = (tmpdir("slices-whole"), tmpdir("slices-cut"));
            let mut w = PreresWriter::create(&whole, &j, 3_000).unwrap();
            for b in &blocks {
                w.push_block(&b.events, b.records).unwrap();
            }
            w.finish().unwrap();
            let mut w = PreresWriter::create(&sliced, &j, 3_000).unwrap();
            let mut cuts = cuts.iter().cycle();
            for b in &blocks {
                let mut rest = &b.events[..];
                w.push_events(&[]).unwrap();
                while !rest.is_empty() {
                    let (head, tail) = rest.split_at(cuts.next().map_or(rest.len(), |&c| c.min(rest.len())));
                    w.push_events(head).unwrap();
                    rest = tail;
                }
                w.end_segment(b.records);
            }
            w.finish().unwrap();
            prop_assert!(
                std::fs::read(path_for(&whole, &j)).unwrap()
                    == std::fs::read(path_for(&sliced, &j)).unwrap()
            );
            let _ = std::fs::remove_dir_all(&whole);
            let _ = std::fs::remove_dir_all(&sliced);
        }
    }

    #[test]
    fn missing_file_is_a_miss() {
        let dir = tmpdir("miss");
        assert!(load(&dir, &job()).is_none());
    }

    #[test]
    fn wrong_spec_is_a_miss_despite_forced_key() {
        // Write under one job's path, then corrupt the canonical check
        // by asking for a different spec at the same path: the guard
        // must reject it. (Reaching the same path needs the same
        // pre_key, which a different spec practically never has — so we
        // simulate the collision by renaming the file.)
        let dir = tmpdir("collide");
        let a = job();
        let pre = a.spec.pre_resolve();
        save(&dir, &a, &pre).unwrap();
        let mut b = a.clone();
        b.spec.seed = 10;
        let dest = path_for(&dir, &b);
        std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
        std::fs::rename(path_for(&dir, &a), dest).unwrap();
        assert!(load_checked(&dir, &b).into_hit().is_none());
        assert!(
            path_for(&dir, &b).exists(),
            "collisions are not quarantined"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_magic_is_a_plain_miss_not_corruption() {
        let dir = tmpdir("oldmagic");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let clean = std::fs::read(&p).unwrap();
        for old in [b"EBCPPRE2", b"EBCPPRE3"] {
            let mut bytes = clean.clone();
            bytes[..8].copy_from_slice(old);
            std::fs::write(&p, &bytes).unwrap();
            assert!(matches!(load_checked(&dir, &j), CacheRead::Miss));
            assert!(matches!(open_stream_checked(&dir, &j), CacheRead::Miss));
            assert!(p.exists(), "stale formats are overwritten, not quarantined");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `j`'s stream as 4,000-record segments, applies `edit` to
    /// the file bytes (payload base given), re-seals it, and returns
    /// the clean stream.
    fn crafted(dir: &Path, j: &Job, edit: impl FnOnce(&mut Vec<u8>, usize)) -> PreResolved {
        let pre = j.spec.pre_resolve();
        let mut w = PreresWriter::create(dir, j, 4_000).unwrap();
        for b in ebcp_sim::segment_events(&pre, 4_000) {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();
        let p = path_for(dir, j);
        let mut bytes = std::fs::read(&p).unwrap();
        let base = 12 + pre_canonical(&j.spec).len();
        edit(&mut bytes, base);
        crate::tests::reseal(
            &mut bytes,
            base,
            INDEX_ENTRY_BYTES as usize,
            EVENT_BYTES as usize,
        );
        std::fs::write(&p, &bytes).unwrap();
        pre
    }

    #[test]
    fn checksum_valid_bad_kind_is_quarantined() {
        let dir = tmpdir("badkind");
        let j = job();
        // Event 3's flags: kind 7, one past K_MISPREDICT.
        let bad_kind = |bytes: &mut Vec<u8>, base: usize| {
            let at = base + 3 * EVENT_BYTES as usize + 20;
            bytes[at..at + 4].copy_from_slice(&(7u32 << 1).to_le_bytes());
        };
        let pre = crafted(&dir, &j, bad_kind);
        expect_quarantined(open_stream_checked(&dir, &j), "event flags 0xe");
        crafted(&dir, &j, bad_kind);
        expect_quarantined(load_checked(&dir, &j), "event flags 0xe");
        // Self-heal: the rewritten stream loads.
        save(&dir, &j, &pre).unwrap();
        assert_eq!(load(&dir, &j), Some(pre));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_valid_wrong_record_sum_is_quarantined() {
        // Move one record from segment 0's claim to segment 1's: the
        // index still sums to the footer's total, the checksums are
        // valid, and only the per-segment event sum disagrees.
        let dir = tmpdir("recsum");
        let j = job();
        crafted(&dir, &j, |bytes, _| {
            let n = bytes.len();
            let footer = Footer::decode(bytes[n - FOOTER_BYTES..].try_into().unwrap()).unwrap();
            let index_base = n - FOOTER_BYTES - footer.n_segs as usize * INDEX_ENTRY_BYTES as usize;
            let r0 = le_u64(bytes, index_base + 8);
            let r1 = le_u64(bytes, index_base + 24 + 8);
            bytes[index_base + 8..index_base + 16].copy_from_slice(&(r0 - 1).to_le_bytes());
            bytes[index_base + 32..index_base + 40].copy_from_slice(&(r1 + 1).to_le_bytes());
        });
        expect_quarantined(open_stream_checked(&dir, &j), "segment 0 events stand for");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_writer_leaves_no_tmp_file() {
        let dir = tmpdir("dropwriter");
        let j = job();
        let pre = j.spec.pre_resolve();
        let mut w = PreresWriter::create(&dir, &j, 4_000).unwrap();
        w.push_block(&pre.events[..10], 10).unwrap();
        drop(w);
        let shard = path_for(&dir, &j).parent().unwrap().to_path_buf();
        assert_eq!(std::fs::read_dir(&shard).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_quarantined() {
        let dir = tmpdir("trunc");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let p = path_for(&dir, &j);
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 13]).unwrap();
        expect_quarantined(load_checked(&dir, &j), "checksum");
        assert!(!p.exists(), "the corrupt file must be moved away");
        // Self-heal: saving again restores a loadable entry.
        save(&dir, &j, &pre).unwrap();
        assert_eq!(load(&dir, &j), Some(pre));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_payload_is_quarantined() {
        let dir = tmpdir("flip");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&p, &bytes).unwrap();
        expect_quarantined(load_checked(&dir, &j), "checksum");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_segment_bit_flip_is_quarantined_at_stream_open() {
        // The streamed open must catch damage inside an interior
        // segment up front (eager verification), not when the block is
        // eventually read.
        let dir = tmpdir("segflip");
        let j = job();
        let pre = j.spec.pre_resolve();
        let blocks = ebcp_sim::segment_events(&pre, 4_000);
        assert!(blocks.len() >= 3, "need interior segments");
        let mut w = PreresWriter::create(&dir, &j, 4_000).unwrap();
        for b in &blocks {
            w.push_block(&b.events, b.records).unwrap();
        }
        w.finish().unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        // Damage payload somewhere past the first block.
        let at = 12 + (blocks[0].events.len() + 2) * EVENT_BYTES as usize;
        bytes[at] ^= 0x08;
        std::fs::write(&p, &bytes).unwrap();
        expect_quarantined(open_stream_checked(&dir, &j), "checksum mismatch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_quarantined() {
        let dir = tmpdir("trailing");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(b"garbage appended after the footer");
        std::fs::write(&p, &bytes).unwrap();
        // The appended bytes shift the footer window, so the footer
        // checksum rejects before any length check even runs.
        expect_quarantined(load_checked(&dir, &j), "checksum");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flat_stream_migrates_on_sweep_and_read_through() {
        let dir = tmpdir("shard-migrate");
        let j = job();
        let pre = j.spec.pre_resolve();
        save(&dir, &j, &pre).unwrap();
        let sharded = path_for(&dir, &j);
        let flat = flat_path_for(&dir, &j);

        // Read-through: a flat file written by pre-sharding code is
        // found, loaded, and moved into its shard.
        std::fs::rename(&sharded, &flat).unwrap();
        assert_eq!(load(&dir, &j), Some(pre.clone()));
        assert!(!flat.exists() && sharded.is_file());

        // Sweep: the store-open migration pass moves flat files too.
        std::fs::rename(&sharded, &flat).unwrap();
        migrate_flat_streams(&dir);
        assert!(!flat.exists() && sharded.is_file());
        assert_eq!(load(&dir, &j), Some(pre));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_payload_length_disagreement_is_quarantined() {
        // A crafted file with *valid* header/index/footer checksums
        // whose payload length disagrees with the index event counts:
        // only the layout-arithmetic check catches it. Insert a
        // phantom event at the end of the payload and leave everything
        // else untouched — the index checksums still verify (they
        // cover the original payload spans), but the index no longer
        // reaches the footer.
        let dir = tmpdir("exactlen");
        let j = job();
        save(&dir, &j, &j.spec.pre_resolve()).unwrap();
        let p = path_for(&dir, &j);
        let bytes = std::fs::read(&p).unwrap();
        let cut = bytes.len() - FOOTER_BYTES - INDEX_ENTRY_BYTES as usize;
        let mut crafted = bytes[..cut].to_vec();
        crafted.extend_from_slice(&[0u8; EVENT_BYTES as usize]); // phantom event
        crafted.extend_from_slice(&bytes[cut..]);
        std::fs::write(&p, &crafted).unwrap();
        expect_quarantined(load_checked(&dir, &j), "disagrees with header event count");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
