//! Segmented on-disk trace format for scale-out workloads.
//!
//! Quick-scale traces fit in a `Vec<TraceRecord>`; the ~100x large tier
//! does not. This module stores a trace **once** on disk in a compact,
//! mmap-friendly layout and replays it through the same chunked-delivery
//! interface the engine already consumes, so peak memory is bounded by
//! one *segment* (a fixed-length span of records, cut at record
//! boundaries so epoch structure is preserved across a cut — see
//! DESIGN.md §3f) instead of the whole trace.
//!
//! ```text
//! magic "EBCPSEG2"   (8 bytes)
//! meta_len           (u32 LE)
//! meta               (meta_len bytes; caller-defined collision guard,
//!                     e.g. the canonical workload/seed string)
//! payload            records x 17 bytes, little-endian fixed width:
//!     tag   (u8: 0=Alu 1=Load 2=LoadFeedsMispredict 3=Store
//!                4=Branch 5=BranchMispredicted 6=Serialize)
//!     pc    (u64)
//!     addr  (u64; 0 for ops without a data address)
//! index              n_segs x { records u64, checksum u64 }
//!                    (checksum = XXH64 over that segment's payload)
//! footer (48 bytes): see [`Footer`]
//! ```
//!
//! Every checksum is streaming XXH64 with seed 0
//! ([`ebcp_types::checksum`]); version 1 ("EBCPSEG1") used byte-serial
//! FNV-1a and now reads as stale.
//!
//! The index and totals live in a *footer* so [`TraceSink`] can stream
//! the payload in a single pass without knowing the record count up
//! front. The framing — magic, meta, index before a self-checksummed
//! [`Footer`] — is shared with the harness's pre-resolved stream files
//! ([`open_frame`], [`Frame::read_index`], [`verify_payload`]). Failure
//! semantics follow the result store's cache discipline:
//!
//! * wrong magic, or a verified header whose meta differs from the
//!   caller's expectation → [`SegfileError::Stale`] (a plain cache miss:
//!   regenerate and overwrite);
//! * any checksum/length disagreement, or a record tag out of range →
//!   [`SegfileError::Corrupt`] (callers quarantine the file as
//!   `*.corrupt` and regenerate).
//!
//! [`SegmentedTrace::open`] verifies the header, index, footer, **every
//! segment checksum and every record tag** in one sequential pass
//! through a fixed [`VERIFY_BUF_BYTES`] buffer, so corruption is
//! surfaced at open time (where the quarantine/regenerate machinery
//! lives), and windows loaded during replay can skip re-verification.
//! The cost is one extra sequential read of the file per open; replay
//! itself stays zero-copy under the mmap backing.

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ebcp_types::checksum::{checksum64, Checksum64};
use ebcp_types::{Addr, Pc};

use crate::record::{Op, TraceRecord};

/// Magic prefix of the segmented trace format, version 2.
pub const SEG_MAGIC: &[u8; 8] = b"EBCPSEG2";
/// Fixed width of one encoded record.
pub const RECORD_BYTES: usize = 17;
/// Width of one index entry (`records u64 | checksum u64`).
pub const INDEX_ENTRY_BYTES: usize = 16;
/// Width of the trailing footer.
pub const FOOTER_BYTES: usize = 48;
/// Size of the one reusable buffer the open-time verify passes read
/// through (rounded down to a whole number of records or events).
pub const VERIFY_BUF_BYTES: usize = 1 << 20;

// ---------------------------------------------------------------------------
// Errors

/// Error opening or validating a segmented trace file.
#[derive(Debug)]
pub enum SegfileError {
    /// The file is not this format version (or carries different meta):
    /// treat as a plain cache miss and regenerate in place.
    Stale,
    /// The file claims to be this format but fails a checksum or length
    /// check: quarantine as `*.corrupt` and regenerate.
    Corrupt(String),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for SegfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegfileError::Stale => f.write_str("not a current-version segmented trace"),
            SegfileError::Corrupt(why) => write!(f, "corrupt segmented trace: {why}"),
            SegfileError::Io(e) => write!(f, "segmented trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for SegfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegfileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SegfileError {
    fn from(e: io::Error) -> Self {
        SegfileError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing shared with the pre-resolved stream format

fn le_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte window"))
}

fn read_exact_at(file: &mut File, pos: u64, buf: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(pos))?;
    file.read_exact(buf)
}

/// The 48-byte trailer of every segmented file (traces here, and the
/// harness's pre-resolved streams):
///
/// ```text
/// records u64 | seg_records u64 | n_segs u64
/// | index_checksum u64   (over the index)
/// | head_checksum u64    (over magic..meta)
/// | footer_checksum u64  (over the 40 preceding footer bytes)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footer {
    /// Total records the file stands for.
    pub records: u64,
    /// The writer's nominal segment length in records.
    pub seg_records: u64,
    /// Index entries.
    pub n_segs: u64,
    /// Checksum of the index bytes.
    pub index_checksum: u64,
    /// Checksum of the header (magic, meta length and meta).
    pub head_checksum: u64,
}

impl Footer {
    /// Encodes the footer, appending its self-checksum.
    pub fn encode(&self) -> [u8; FOOTER_BYTES] {
        let mut out = [0u8; FOOTER_BYTES];
        let fields = [
            self.records,
            self.seg_records,
            self.n_segs,
            self.index_checksum,
            self.head_checksum,
        ];
        for (slot, v) in out.chunks_exact_mut(8).zip(fields) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        let own = checksum64(&out[..40]);
        out[40..].copy_from_slice(&own.to_le_bytes());
        out
    }

    /// Parses a footer, or `None` when its self-checksum does not
    /// verify.
    pub fn decode(bytes: &[u8; FOOTER_BYTES]) -> Option<Footer> {
        (checksum64(&bytes[..40]) == le_u64(bytes, 40)).then(|| Footer {
            records: le_u64(bytes, 0),
            seg_records: le_u64(bytes, 8),
            n_segs: le_u64(bytes, 16),
            index_checksum: le_u64(bytes, 24),
            head_checksum: le_u64(bytes, 32),
        })
    }
}

/// Encodes the header of a segmented file: `magic`, the meta length
/// and `meta`.
///
/// # Panics
///
/// Panics if `meta` exceeds `u32::MAX` bytes.
pub fn encode_head(magic: &[u8; 8], meta: &[u8]) -> Vec<u8> {
    let meta_len = u32::try_from(meta.len()).expect("meta fits u32");
    let mut head = Vec::with_capacity(12 + meta.len());
    head.extend_from_slice(magic);
    head.extend_from_slice(&meta_len.to_le_bytes());
    head.extend_from_slice(meta);
    head
}

/// The verified header and footer of an open segmented file.
#[derive(Clone, Copy, Debug)]
pub struct Frame {
    /// File length in bytes.
    pub file_len: u64,
    /// Offset of the first payload byte (just past the meta).
    pub payload_base: u64,
    /// The verified footer.
    pub footer: Footer,
}

/// Reads and verifies the framing every segmented format shares: the
/// magic, the footer's self-checksum, the header checksum, and the
/// meta against `expected_meta`.
///
/// # Errors
///
/// [`SegfileError::Stale`] for a foreign magic or a verified header
/// carrying different meta; [`SegfileError::Corrupt`] for a truncated
/// file or a checksum mismatch; [`SegfileError::Io`] for read failures.
pub fn open_frame(
    file: &mut File,
    magic: &[u8; 8],
    expected_meta: &[u8],
) -> Result<Frame, SegfileError> {
    let file_len = file.metadata()?.len();
    let min_len = (12 + FOOTER_BYTES) as u64;
    if file_len < min_len {
        // Too short to even carry a header: if the prefix matches the
        // magic it is a truncation (corrupt), otherwise foreign.
        let mut prefix = vec![0u8; file_len.min(8) as usize];
        read_exact_at(file, 0, &mut prefix)?;
        return if !prefix.is_empty() && magic.starts_with(&prefix) {
            Err(SegfileError::Corrupt(format!(
                "file is {file_len} bytes, shorter than the {min_len}-byte minimum"
            )))
        } else {
            Err(SegfileError::Stale)
        };
    }

    let mut head_fixed = [0u8; 12];
    read_exact_at(file, 0, &mut head_fixed)?;
    if &head_fixed[0..8] != magic {
        return Err(SegfileError::Stale);
    }
    let meta_len = u64::from(u32::from_le_bytes(
        head_fixed[8..12].try_into().expect("4-byte window"),
    ));
    let payload_base = 12 + meta_len;
    if payload_base + FOOTER_BYTES as u64 > file_len {
        return Err(SegfileError::Corrupt(format!(
            "meta length {meta_len} overruns the {file_len}-byte file"
        )));
    }

    let mut footer = [0u8; FOOTER_BYTES];
    read_exact_at(file, file_len - FOOTER_BYTES as u64, &mut footer)?;
    let footer = Footer::decode(&footer)
        .ok_or_else(|| SegfileError::Corrupt("footer checksum mismatch".into()))?;

    let mut head = vec![0u8; payload_base as usize];
    read_exact_at(file, 0, &mut head)?;
    if checksum64(&head) != footer.head_checksum {
        return Err(SegfileError::Corrupt("header checksum mismatch".into()));
    }
    if &head[12..] != expected_meta {
        // Header verified intact but written for different contents:
        // a stale/foreign entry, not damage.
        return Err(SegfileError::Stale);
    }
    Ok(Frame {
        file_len,
        payload_base,
        footer,
    })
}

impl Frame {
    /// Offset of the index: it sits between the payload and the footer.
    pub fn index_base(&self, entry_bytes: u64) -> u64 {
        self.file_len - FOOTER_BYTES as u64 - self.footer.n_segs * entry_bytes
    }

    /// Reads the `n_segs` index entries of `entry_bytes` each that sit
    /// just before the footer, and verifies their checksum.
    ///
    /// # Errors
    ///
    /// [`SegfileError::Corrupt`] when the index cannot fit the file or
    /// fails its checksum; [`SegfileError::Io`] for read failures.
    pub fn read_index(&self, file: &mut File, entry_bytes: u64) -> Result<Vec<u8>, SegfileError> {
        let n_segs = self.footer.n_segs;
        if n_segs > self.file_len / entry_bytes {
            return Err(SegfileError::Corrupt(format!(
                "implausible segment count {n_segs}"
            )));
        }
        let index_len = n_segs * entry_bytes;
        if self.payload_base + index_len + FOOTER_BYTES as u64 > self.file_len {
            return Err(SegfileError::Corrupt("index overruns the file".into()));
        }
        let mut index = vec![0u8; index_len as usize];
        read_exact_at(file, self.index_base(entry_bytes), &mut index)?;
        if checksum64(&index) != self.footer.index_checksum {
            return Err(SegfileError::Corrupt("index checksum mismatch".into()));
        }
        Ok(index)
    }
}

/// Reads `len` bytes from `start` through one reusable buffer of at
/// most [`VERIFY_BUF_BYTES`], handing `f` pieces that each hold a whole
/// number of `unit`-byte items.
///
/// # Errors
///
/// Propagates read failures and the first error `f` returns.
///
/// # Panics
///
/// Panics if `unit` is zero or exceeds [`VERIFY_BUF_BYTES`].
pub fn read_pieces<E: From<io::Error>>(
    file: &mut File,
    start: u64,
    len: u64,
    unit: usize,
    buf: &mut Vec<u8>,
    mut f: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(), E> {
    assert!(
        unit > 0 && unit <= VERIFY_BUF_BYTES,
        "bad item width {unit}"
    );
    let cap = VERIFY_BUF_BYTES / unit * unit;
    file.seek(SeekFrom::Start(start))?;
    let mut left = len;
    while left > 0 {
        let n = usize::try_from(left).map_or(cap, |l| l.min(cap));
        buf.resize(n, 0);
        file.read_exact(buf)?;
        f(buf)?;
        left -= n as u64;
    }
    Ok(())
}

/// The open-time integrity pass of a segmented file: reads the payload
/// sequentially from `start` through one fixed buffer, checking each
/// segment `(bytes, checksum)` of `segs` against its checksum and
/// handing every piece — a whole number of `unit`-byte items inside
/// segment `k` — to `check(k, piece)` for structural checks or
/// decoding. A checksum mismatch takes precedence over a structural
/// complaint in the same segment, so random damage reports as such.
///
/// # Errors
///
/// [`SegfileError::Corrupt`] for a checksum mismatch or the first
/// complaint of `check`; [`SegfileError::Io`] for read failures.
pub fn verify_payload(
    file: &mut File,
    start: u64,
    segs: impl IntoIterator<Item = (u64, u64)>,
    unit: usize,
    mut check: impl FnMut(usize, &[u8]) -> Result<(), String>,
) -> Result<(), SegfileError> {
    let mut buf = Vec::new();
    let mut pos = start;
    for (k, (bytes, checksum)) in segs.into_iter().enumerate() {
        let mut hash = Checksum64::new();
        let mut complaint = None;
        read_pieces::<SegfileError>(file, pos, bytes, unit, &mut buf, |piece| {
            hash.update(piece);
            if complaint.is_none() {
                complaint = check(k, piece).err();
            }
            Ok(())
        })?;
        if hash.finish() != checksum {
            return Err(SegfileError::Corrupt(format!(
                "segment {k} checksum mismatch"
            )));
        }
        if let Some(why) = complaint {
            return Err(SegfileError::Corrupt(why));
        }
        pos += bytes;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Record codec (fixed width)

fn encode_record_fixed(out: &mut [u8; RECORD_BYTES], r: &TraceRecord) {
    let (tag, addr) = match r.op {
        Op::Alu => (0u8, 0u64),
        Op::Load {
            addr,
            feeds_mispredict,
        } => (if feeds_mispredict { 2 } else { 1 }, addr.get()),
        Op::Store { addr } => (3, addr.get()),
        Op::Branch { mispredicted } => (if mispredicted { 5 } else { 4 }, 0),
        Op::Serialize => (6, 0),
    };
    out[0] = tag;
    out[1..9].copy_from_slice(&r.pc.get().to_le_bytes());
    out[9..17].copy_from_slice(&addr.to_le_bytes());
}

/// Highest valid record tag.
const MAX_TAG: u8 = 6;

/// Decodes one fixed-width record. [`SegmentedTrace::open`] checks every
/// tag against [`MAX_TAG`] in its verify pass, so a bad tag here means
/// the file changed under an open trace.
fn decode_record_fixed(buf: &[u8]) -> TraceRecord {
    let tag = buf[0];
    let pc = Pc::new(le_u64(buf, 1));
    let addr = le_u64(buf, 9);
    let op = match tag {
        0 => Op::Alu,
        1 | 2 => Op::Load {
            addr: Addr::new(addr),
            feeds_mispredict: tag == 2,
        },
        3 => Op::Store {
            addr: Addr::new(addr),
        },
        4 | 5 => Op::Branch {
            mispredicted: tag == 5,
        },
        6 => Op::Serialize,
        t => unreachable!("record tag {t} passed the open-time tag check"),
    };
    TraceRecord::new(pc, op)
}

// ---------------------------------------------------------------------------
// Unique tmp names (pid + sequence, so concurrent writers never collide;
// the final rename makes the publish atomic). Local copy of the harness
// store discipline: this crate sits below the harness.

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_tmp(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("seg"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(".tmp.{pid}.{seq}"));
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Writer

/// Single-pass streaming writer: generators emit the trace **once**
/// through this sink; every later replay comes from the file.
///
/// Each chunk is encoded into one reusable buffer, hashed into the
/// running per-segment checksum (split at segment boundaries) and
/// written once; [`TraceSink::finish`] closes the partial tail segment,
/// appends the index and footer, and atomically renames the tmp file
/// into place. A sink dropped without a successful `finish` removes its
/// tmp file.
pub struct TraceSink {
    w: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    published: bool,
    head_checksum: u64,
    seg_records: u64,
    records: u64,
    seg_fill: u64,
    seg_hash: Checksum64,
    index: Vec<(u64, u64)>,
    buf: Vec<u8>,
}

impl TraceSink {
    /// Starts writing a segmented trace that will be published at
    /// `path` on [`finish`](TraceSink::finish). `meta` is an opaque
    /// collision guard (the caller's canonical identity string);
    /// `seg_records` is the fixed segment length in records.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure creating the tmp file.
    ///
    /// # Panics
    ///
    /// Panics if `seg_records` is zero or `meta` exceeds `u32::MAX`.
    pub fn create(path: &Path, meta: &[u8], seg_records: u64) -> io::Result<TraceSink> {
        assert!(seg_records > 0, "segment length must be at least 1 record");
        let head = encode_head(SEG_MAGIC, meta);
        let tmp = unique_tmp(path);
        let mut sink = TraceSink {
            w: BufWriter::new(File::create(&tmp)?),
            tmp,
            path: path.to_path_buf(),
            published: false,
            head_checksum: checksum64(&head),
            seg_records,
            records: 0,
            seg_fill: 0,
            seg_hash: Checksum64::new(),
            index: Vec::new(),
            buf: Vec::new(),
        };
        sink.w.write_all(&head)?;
        Ok(sink)
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push(&mut self, r: &TraceRecord) -> io::Result<()> {
        self.push_chunk(std::slice::from_ref(r))
    }

    /// Appends a batch of records (e.g. one generator chunk).
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure.
    pub fn push_chunk(&mut self, rs: &[TraceRecord]) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.resize(rs.len() * RECORD_BYTES, 0);
        for (out, r) in buf.chunks_exact_mut(RECORD_BYTES).zip(rs) {
            encode_record_fixed(out.try_into().expect("record-sized chunk"), r);
        }
        let mut rest = &buf[..];
        while !rest.is_empty() {
            let room = self.seg_records - self.seg_fill;
            let take = room.min((rest.len() / RECORD_BYTES) as u64);
            let (seg, tail) = rest.split_at(take as usize * RECORD_BYTES);
            self.seg_hash.update(seg);
            self.seg_fill += take;
            if self.seg_fill == self.seg_records {
                self.close_segment();
            }
            rest = tail;
        }
        self.records += rs.len() as u64;
        let written = self.w.write_all(&buf);
        self.buf = buf;
        written
    }

    fn close_segment(&mut self) {
        self.index.push((self.seg_fill, self.seg_hash.finish()));
        self.seg_fill = 0;
        self.seg_hash = Checksum64::new();
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Closes the tail segment, writes index + footer, fsyncs and
    /// atomically renames into place. Returns the record count.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O failure; the tmp file is removed on
    /// a failed publish.
    pub fn finish(mut self) -> io::Result<u64> {
        if self.seg_fill > 0 {
            self.close_segment();
        }
        let mut index_bytes = Vec::with_capacity(self.index.len() * INDEX_ENTRY_BYTES);
        for &(records, checksum) in &self.index {
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
        self.w.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        self.published = true;
        Ok(self.records)
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        if !self.published {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// mmap plumbing (linux only; everything else, and any mmap failure,
// falls back to buffered reads). Raw FFI because the workspace is
// hermetic — no libc crate. The constants are the shared glibc/musl
// Linux values; the page size is queried, never assumed, because
// aarch64 kernels ship 4K/16K/64K pages.

#[cfg(target_os = "linux")]
mod ffi {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const _SC_PAGESIZE: i32 = 30;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    pub fn page_size() -> u64 {
        // Every Linux page size is a power of two >= 4096; fall back to
        // the universal lower bound if sysconf misbehaves.
        let ps = unsafe { sysconf(_SC_PAGESIZE) };
        if ps > 0 {
            ps as u64
        } else {
            4096
        }
    }
}

/// How [`SegmentedTrace`] loads segment windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backing {
    /// Zero-copy page-cache windows via `mmap` where available
    /// (silently degrades to [`Backing::Buffered`] elsewhere or when a
    /// mapping fails).
    Mmap,
    /// Plain `seek` + `read` into an owned buffer.
    Buffered,
}

/// One loaded segment window: either an owned buffer or a read-only
/// private mapping (with the page-alignment slack tracked so the
/// payload slice starts at the right byte).
enum Window {
    Buf(Vec<u8>),
    #[cfg(target_os = "linux")]
    Map {
        ptr: *mut std::ffi::c_void,
        map_len: usize,
        delta: usize,
        bytes: usize,
    },
}

// SAFETY: a `Map` window is a read-only MAP_PRIVATE mapping; the raw
// pointer is only dereferenced through `payload()` shared borrows and
// `munmap` is thread-agnostic, so moving the window across threads
// (harness workers) is sound.
unsafe impl Send for Window {}

impl Window {
    fn payload(&self) -> &[u8] {
        match self {
            Window::Buf(v) => v,
            #[cfg(target_os = "linux")]
            Window::Map {
                ptr, delta, bytes, ..
            } => unsafe { std::slice::from_raw_parts((*ptr as *const u8).add(*delta), *bytes) },
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            Window::Buf(v) => v.len(),
            #[cfg(target_os = "linux")]
            Window::Map { map_len, .. } => *map_len,
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Window::Map { ptr, map_len, .. } = self {
            unsafe {
                ffi::munmap(*ptr, *map_len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader

struct SegEntry {
    records: u64,
    checksum: u64,
    /// Absolute record index of this segment's first record.
    first_record: u64,
}

/// Zero-copy reader over a file written by [`TraceSink`].
///
/// Replays records through [`SegmentedTrace::next_chunk`] — the same
/// chunked-delivery contract as [`TraceGenerator::next_chunk`]
/// (`crate::ChunkSource`) — holding at most one segment window resident
/// at a time.
///
/// [`TraceGenerator::next_chunk`]: crate::TraceGenerator::next_chunk
pub struct SegmentedTrace {
    file: File,
    backing: Backing,
    payload_base: u64,
    records: u64,
    seg_records: u64,
    index: Vec<SegEntry>,
    cur_seg: usize,
    /// Records already consumed from the current segment.
    cur_off: u64,
    window: Option<Window>,
}

impl SegmentedTrace {
    /// Opens and fully validates a segmented trace.
    ///
    /// `expected_meta` must match the meta the file was written with
    /// (the caller's collision guard); a verified header with different
    /// meta is [`SegfileError::Stale`], exactly like a canonical-string
    /// mismatch in the result store. Validation checks the footer and
    /// index checksums, the arithmetic consistency of the layout, and
    /// every segment checksum and record tag in one sequential pass
    /// through a fixed [`VERIFY_BUF_BYTES`] buffer.
    ///
    /// # Errors
    ///
    /// [`SegfileError::Stale`] for wrong-version/wrong-meta files,
    /// [`SegfileError::Corrupt`] for checksum, length or tag
    /// disagreements, [`SegfileError::Io`] for underlying failures.
    pub fn open(
        path: &Path,
        expected_meta: &[u8],
        backing: Backing,
    ) -> Result<SegmentedTrace, SegfileError> {
        let mut file = File::open(path)?;
        let frame = open_frame(&mut file, SEG_MAGIC, expected_meta)?;
        let Footer {
            records,
            seg_records,
            n_segs,
            ..
        } = frame.footer;
        if seg_records == 0 || n_segs != records.div_ceil(seg_records) {
            return Err(SegfileError::Corrupt(format!(
                "footer geometry inconsistent: {records} records / {seg_records} per segment \
                 vs {n_segs} segments"
            )));
        }
        let index_bytes = frame.read_index(&mut file, INDEX_ENTRY_BYTES as u64)?;
        let payload_len = records.checked_mul(RECORD_BYTES as u64);
        if payload_len != Some(frame.index_base(INDEX_ENTRY_BYTES as u64) - frame.payload_base) {
            return Err(SegfileError::Corrupt(format!(
                "file is {} bytes, layout implies {records} records of {RECORD_BYTES} bytes",
                frame.file_len
            )));
        }
        let mut index = Vec::with_capacity(n_segs as usize);
        let mut first_record = 0u64;
        for (k, entry) in index_bytes.chunks_exact(INDEX_ENTRY_BYTES).enumerate() {
            let seg_len = le_u64(entry, 0);
            let full = seg_len == seg_records;
            let tail = k as u64 == n_segs - 1 && seg_len == records - first_record;
            if seg_len == 0 || (!full && !tail) {
                return Err(SegfileError::Corrupt(format!(
                    "segment {k} claims {seg_len} records, inconsistent with \
                     {seg_records}-record segments over {records} records"
                )));
            }
            index.push(SegEntry {
                records: seg_len,
                checksum: le_u64(entry, 8),
                first_record,
            });
            first_record += seg_len;
        }
        if first_record != records {
            return Err(SegfileError::Corrupt(format!(
                "index sums to {first_record} records, footer claims {records}"
            )));
        }

        // Eager integrity pass: verify every segment checksum and record
        // tag now, so replay can trust windows without re-hashing and
        // corruption hits the quarantine path at open time.
        verify_payload(
            &mut file,
            frame.payload_base,
            index
                .iter()
                .map(|s| (s.records * RECORD_BYTES as u64, s.checksum)),
            RECORD_BYTES,
            |k, piece| match piece.iter().step_by(RECORD_BYTES).find(|&&t| t > MAX_TAG) {
                Some(t) => Err(format!("segment {k} holds record tag {t}")),
                None => Ok(()),
            },
        )?;

        Ok(SegmentedTrace {
            file,
            backing,
            payload_base: frame.payload_base,
            records,
            seg_records,
            index,
            cur_seg: 0,
            cur_off: 0,
            window: None,
        })
    }

    /// Total records in the trace.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The fixed segment length (the last segment may be shorter).
    pub fn seg_records(&self) -> u64 {
        self.seg_records
    }

    /// Number of segments.
    pub fn n_segments(&self) -> usize {
        self.index.len()
    }

    /// Records in segment `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn segment_records(&self, k: usize) -> u64 {
        self.index[k].records
    }

    /// Bytes resident for the currently loaded window (mapping length
    /// or buffer length) — the quantity the harness memory budget
    /// charges per streamed worker.
    pub fn window_bytes(&self) -> usize {
        self.window.as_ref().map_or(0, Window::resident_bytes)
    }

    /// Repositions the cursor at the start of segment `k`, dropping the
    /// current window.
    ///
    /// # Panics
    ///
    /// Panics if `k > n_segments()` (`== n_segments()` positions at
    /// end-of-trace).
    pub fn seek_segment(&mut self, k: usize) {
        assert!(k <= self.index.len(), "segment {k} out of range");
        self.cur_seg = k;
        self.cur_off = 0;
        self.window = None;
    }

    /// Loads (or returns) the window for `cur_seg`.
    fn window(&mut self) -> io::Result<&Window> {
        if self.window.is_none() {
            let seg = &self.index[self.cur_seg];
            let start = self.payload_base + seg.first_record * RECORD_BYTES as u64;
            let bytes = (seg.records * RECORD_BYTES as u64) as usize;
            let w = match self.backing {
                Backing::Mmap => self
                    .try_mmap(start, bytes)
                    .map_or_else(|| self.read_window(start, bytes), Ok)?,
                Backing::Buffered => self.read_window(start, bytes)?,
            };
            self.window = Some(w);
        }
        Ok(self.window.as_ref().unwrap())
    }

    fn read_window(&mut self, start: u64, bytes: usize) -> io::Result<Window> {
        let mut buf = vec![0u8; bytes];
        read_exact_at(&mut self.file, start, &mut buf)?;
        Ok(Window::Buf(buf))
    }

    #[cfg(target_os = "linux")]
    fn try_mmap(&self, start: u64, bytes: usize) -> Option<Window> {
        use std::os::fd::AsRawFd;
        if bytes == 0 {
            return Some(Window::Buf(Vec::new()));
        }
        let page = ffi::page_size();
        let aligned = start / page * page;
        let delta = (start - aligned) as usize;
        let map_len = delta + bytes;
        let offset = i64::try_from(aligned).ok()?;
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                map_len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                self.file.as_raw_fd(),
                offset,
            )
        };
        if ptr as isize == -1 {
            return None; // silently fall back to buffered
        }
        Some(Window::Map {
            ptr,
            map_len,
            delta,
            bytes,
        })
    }

    #[cfg(not(target_os = "linux"))]
    fn try_mmap(&self, _start: u64, _bytes: usize) -> Option<Window> {
        None
    }

    /// Refills `out` with up to `max` decoded records, advancing the
    /// cursor across segment boundaries as needed. Returns the number
    /// delivered; `0` means end of trace. Same contract as
    /// [`TraceGenerator::next_chunk`](crate::TraceGenerator::next_chunk).
    ///
    /// # Panics
    ///
    /// Panics on I/O failure while loading a window (replay reads from
    /// a file that was fully validated at open; a read failing mid-run
    /// is an environment fault, same as the generator's allocator).
    pub fn next_chunk(&mut self, out: &mut Vec<TraceRecord>, max: usize) -> usize {
        out.clear();
        while out.len() < max && self.cur_seg < self.index.len() {
            let seg_records = self.index[self.cur_seg].records;
            let want = (max - out.len()) as u64;
            let take = want.min(seg_records - self.cur_off);
            let from = (self.cur_off * RECORD_BYTES as u64) as usize;
            let upto = from + (take * RECORD_BYTES as u64) as usize;
            let window = self
                .window()
                .expect("validated segment window read failed mid-replay");
            out.extend(
                window.payload()[from..upto]
                    .chunks_exact(RECORD_BYTES)
                    .map(decode_record_fixed),
            );
            self.cur_off += take;
            if self.cur_off == seg_records {
                self.cur_seg += 1;
                self.cur_off = 0;
                self.window = None;
            }
        }
        out.len()
    }
}

/// Writes `trace` to `path` in one call (tests and small traces; the
/// large tier streams through [`TraceSink`] directly).
///
/// # Errors
///
/// Returns any underlying I/O failure.
pub fn write_segmented(
    path: &Path,
    meta: &[u8],
    seg_records: u64,
    trace: &[TraceRecord],
) -> io::Result<u64> {
    let mut sink = TraceSink::create(path, meta, seg_records)?;
    sink.push_chunk(trace)?;
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadSpec};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ebcp-segfile-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord::alu(Pc::new(0x100)),
            TraceRecord::load(Pc::new(0x104), Addr::new(0x8000)),
            TraceRecord::new(
                Pc::new(0x108),
                Op::Load {
                    addr: Addr::new(0x9000),
                    feeds_mispredict: true,
                },
            ),
            TraceRecord::store(Pc::new(0x10c), Addr::new(0xa000)),
            TraceRecord::new(
                Pc::new(0x110),
                Op::Branch {
                    mispredicted: false,
                },
            ),
            TraceRecord::new(Pc::new(0x114), Op::Branch { mispredicted: true }),
            TraceRecord::new(Pc::new(0x118), Op::Serialize),
        ]
    }

    fn read_all(st: &mut SegmentedTrace, chunk: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while st.next_chunk(&mut buf, chunk) > 0 {
            out.extend_from_slice(&buf);
        }
        out
    }

    #[test]
    fn round_trip_both_backings() {
        let dir = tmpdir("rt");
        let path = dir.join("t.seg");
        let trace = sample();
        assert_eq!(write_segmented(&path, b"meta", 3, &trace).unwrap(), 7);
        for backing in [Backing::Buffered, Backing::Mmap] {
            let mut st = SegmentedTrace::open(&path, b"meta", backing).unwrap();
            assert_eq!(st.records(), 7);
            assert_eq!(st.n_segments(), 3); // 3 + 3 + 1
            assert_eq!(st.segment_records(2), 1);
            for chunk in [1, 2, 3, 5, 100] {
                st.seek_segment(0);
                assert_eq!(read_all(&mut st, chunk), trace, "chunk size {chunk}");
            }
        }
    }

    #[test]
    fn mmap_decode_identical_to_buffered() {
        let dir = tmpdir("ident");
        let path = dir.join("t.seg");
        let spec = WorkloadSpec::database().scaled(1, 64);
        let trace: Vec<_> = TraceGenerator::new(&spec, 7).take(10_000).collect();
        write_segmented(&path, b"m", 1024, &trace).unwrap();
        let mut a = SegmentedTrace::open(&path, b"m", Backing::Mmap).unwrap();
        let mut b = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(read_all(&mut a, 4096), read_all(&mut b, 4096));
        assert_eq!(read_all(&mut b, 4096), Vec::new()); // exhausted
    }

    #[test]
    fn seek_segment_replays_that_segment() {
        let dir = tmpdir("seek");
        let path = dir.join("t.seg");
        let trace = sample();
        write_segmented(&path, b"", 2, &trace).unwrap();
        let mut st = SegmentedTrace::open(&path, b"", Backing::Buffered).unwrap();
        assert_eq!(st.n_segments(), 4);
        st.seek_segment(2);
        let mut buf = Vec::new();
        st.next_chunk(&mut buf, 2);
        assert_eq!(buf, &trace[4..6]);
        // Reading on from here walks to the end.
        st.next_chunk(&mut buf, 100);
        assert_eq!(buf, &trace[6..]);
        assert_eq!(st.next_chunk(&mut buf, 100), 0);
        // Seeking to n_segments() positions at end-of-trace.
        st.seek_segment(4);
        assert_eq!(st.next_chunk(&mut buf, 100), 0);
    }

    #[test]
    fn empty_trace_round_trips() {
        let dir = tmpdir("empty");
        let path = dir.join("t.seg");
        assert_eq!(write_segmented(&path, b"x", 8, &[]).unwrap(), 0);
        let mut st = SegmentedTrace::open(&path, b"x", Backing::Mmap).unwrap();
        assert_eq!(st.records(), 0);
        assert_eq!(st.n_segments(), 0);
        let mut buf = Vec::new();
        assert_eq!(st.next_chunk(&mut buf, 16), 0);
    }

    #[test]
    fn wrong_magic_is_stale() {
        let dir = tmpdir("magic");
        let path = dir.join("t.seg");
        write_segmented(&path, b"", 4, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0..8].copy_from_slice(b"EBCPSEG0");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn meta_mismatch_is_stale() {
        let dir = tmpdir("meta");
        let path = dir.join("t.seg");
        write_segmented(&path, b"workload-a", 4, &sample()).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"workload-b", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
        // ... but the matching guard opens fine.
        assert!(SegmentedTrace::open(&path, b"workload-a", Backing::Buffered).is_ok());
    }

    #[test]
    fn payload_bit_flip_is_corrupt() {
        let dir = tmpdir("flip");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* segment's payload.
        let at = 13 + 4 * RECORD_BYTES + 5;
        bytes[at] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        match SegmentedTrace::open(&path, b"m", Backing::Mmap) {
            Err(SegfileError::Corrupt(why)) => assert!(why.contains("segment 1"), "{why}"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn truncation_is_corrupt() {
        let dir = tmpdir("trunc");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 5, bytes.len() - FOOTER_BYTES - 3, 30] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(
                    SegmentedTrace::open(&path, b"m", Backing::Buffered),
                    Err(SegfileError::Corrupt(_))
                ),
                "cut at {cut}"
            );
        }
        // A short file that isn't ours at all is stale, not corrupt.
        std::fs::write(&path, b"hello").unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn index_and_footer_damage_is_corrupt() {
        let dir = tmpdir("idx");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Index entry bit flip.
        let mut bytes = clean.clone();
        let index_base = bytes.len() - FOOTER_BYTES - 3 * INDEX_ENTRY_BYTES;
        bytes[index_base + 2] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
        // Footer bit flip.
        let mut bytes = clean.clone();
        let n = bytes.len();
        bytes[n - 20] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
        // Trailing garbage changes the length arithmetic.
        let mut bytes = clean;
        bytes.extend_from_slice(b"junk");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SegmentedTrace::open(&path, b"m", Backing::Buffered),
            Err(SegfileError::Corrupt(_))
        ));
    }

    #[test]
    fn window_bytes_reports_resident_segment() {
        let dir = tmpdir("win");
        let path = dir.join("t.seg");
        let spec = WorkloadSpec::tpcw().scaled(1, 64);
        let trace: Vec<_> = TraceGenerator::new(&spec, 3).take(5_000).collect();
        write_segmented(&path, b"m", 2_000, &trace).unwrap();
        let mut st = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(st.window_bytes(), 0); // nothing loaded yet
        let mut buf = Vec::new();
        st.next_chunk(&mut buf, 10);
        assert_eq!(st.window_bytes(), 2_000 * RECORD_BYTES);
        // Draining past the boundary swaps, never stacks, windows.
        while st.next_chunk(&mut buf, 1_024) > 0 {
            assert!(st.window_bytes() <= 2_000 * RECORD_BYTES + ffi_page_slack());
        }
    }

    #[cfg(target_os = "linux")]
    fn ffi_page_slack() -> usize {
        ffi::page_size() as usize
    }
    #[cfg(not(target_os = "linux"))]
    fn ffi_page_slack() -> usize {
        0
    }

    #[test]
    fn golden_file_pins_format() {
        // The golden file is the io.rs sample trace written with
        // seg_records=3 and meta "golden-v1". Any byte drift in the
        // encoder shows up as a mismatch here; `EBCP_BLESS_GOLDEN=1`
        // regenerates it after an *intentional* format revision.
        let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_v2.seg");
        let dir = tmpdir("golden");
        let path = dir.join("t.seg");
        write_segmented(&path, b"golden-v1", 3, &sample()).unwrap();
        let fresh = std::fs::read(&path).unwrap();
        if std::env::var_os("EBCP_BLESS_GOLDEN").is_some() {
            std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
            std::fs::write(&golden_path, &fresh).unwrap();
        }
        let pinned = std::fs::read(&golden_path).expect("golden file missing");
        assert_eq!(
            fresh, pinned,
            "segment format drifted from the pinned golden file"
        );
        // And the pinned bytes decode to the expected records.
        let mut st = SegmentedTrace::open(&golden_path, b"golden-v1", Backing::Buffered).unwrap();
        assert_eq!(read_all(&mut st, 4), sample());
    }

    #[test]
    fn version_1_golden_file_is_stale() {
        let v1 = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/trace_v1.seg");
        assert!(matches!(
            SegmentedTrace::open(&v1, b"golden-v1", Backing::Buffered),
            Err(SegfileError::Stale)
        ));
    }

    #[test]
    fn footer_codec_round_trips_and_rejects_damage() {
        let f = Footer {
            records: 7,
            seg_records: 3,
            n_segs: 3,
            index_checksum: 0xdead_beef,
            head_checksum: 0x1234_5678_9abc_def0,
        };
        let mut bytes = f.encode();
        assert_eq!(Footer::decode(&bytes), Some(f));
        bytes[17] ^= 4;
        assert_eq!(Footer::decode(&bytes), None);
    }

    /// Re-seals a trace file written with `seg_records`-record segments
    /// after its payload was edited: recomputes every segment checksum,
    /// the index checksum and the footer, so only the structural checks
    /// can reject it.
    fn reseal(bytes: &mut [u8], meta_len: usize, seg_records: usize) {
        let n = bytes.len();
        let footer = Footer::decode(bytes[n - FOOTER_BYTES..].try_into().unwrap()).unwrap();
        let index_base = n - FOOTER_BYTES - footer.n_segs as usize * INDEX_ENTRY_BYTES;
        let payload = 12 + meta_len;
        for k in 0..footer.n_segs as usize {
            let entry = index_base + k * INDEX_ENTRY_BYTES;
            let recs = le_u64(bytes, entry) as usize;
            let at = payload + k * seg_records * RECORD_BYTES;
            let sum = checksum64(&bytes[at..at + recs * RECORD_BYTES]);
            bytes[entry + 8..entry + 16].copy_from_slice(&sum.to_le_bytes());
        }
        let footer = Footer {
            index_checksum: checksum64(&bytes[index_base..n - FOOTER_BYTES]),
            ..footer
        };
        bytes[n - FOOTER_BYTES..].copy_from_slice(&footer.encode());
    }

    #[test]
    fn checksum_valid_bad_tag_is_corrupt_not_a_panic() {
        let dir = tmpdir("badtag");
        let path = dir.join("t.seg");
        write_segmented(&path, b"m", 3, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[13 + 4 * RECORD_BYTES] = MAX_TAG + 1; // record 4's tag
        reseal(&mut bytes, 1, 3);
        std::fs::write(&path, &bytes).unwrap();
        match SegmentedTrace::open(&path, b"m", Backing::Mmap) {
            Err(SegfileError::Corrupt(why)) => assert!(why.contains("tag 7"), "{why}"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
        // The reseal itself is sound: the same edit with a valid tag opens.
        bytes[13 + 4 * RECORD_BYTES] = 0;
        reseal(&mut bytes, 1, 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(SegmentedTrace::open(&path, b"m", Backing::Buffered).is_ok());
    }

    #[test]
    fn verify_spans_many_buffer_refills() {
        // Segments larger than the verify buffer, and a tail segment
        // that ends mid-buffer, still verify and still catch damage.
        let dir = tmpdir("bigseg");
        let path = dir.join("t.seg");
        let spec = WorkloadSpec::database().scaled(1, 64);
        let n = 2 * VERIFY_BUF_BYTES / RECORD_BYTES + 777;
        let trace: Vec<_> = TraceGenerator::new(&spec, 5).take(n).collect();
        let seg = (VERIFY_BUF_BYTES / RECORD_BYTES + 5) as u64;
        write_segmented(&path, b"m", seg, &trace).unwrap();
        let mut st = SegmentedTrace::open(&path, b"m", Backing::Buffered).unwrap();
        assert_eq!(st.n_segments(), 3);
        assert_eq!(read_all(&mut st, 4096), trace);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = 13 + (seg as usize + VERIFY_BUF_BYTES / RECORD_BYTES) * RECORD_BYTES + 3;
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        match SegmentedTrace::open(&path, b"m", Backing::Buffered) {
            Err(SegfileError::Corrupt(why)) => assert!(why.contains("segment 1"), "{why}"),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("expected Corrupt, got Ok"),
        }
    }

    #[test]
    fn dropped_sink_leaves_no_tmp_file() {
        let dir = tmpdir("drop");
        let mut sink = TraceSink::create(&dir.join("t.seg"), b"m", 2).unwrap();
        sink.push_chunk(&sample()).unwrap();
        drop(sink);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn push_and_push_chunk_write_identical_files() {
        let dir = tmpdir("pushes");
        let (a, b) = (dir.join("a.seg"), dir.join("b.seg"));
        let trace = sample();
        write_segmented(&a, b"m", 3, &trace).unwrap();
        let mut sink = TraceSink::create(&b, b"m", 3).unwrap();
        for r in &trace[..2] {
            sink.push(r).unwrap();
        }
        sink.push_chunk(&trace[2..6]).unwrap();
        sink.push(&trace[6]).unwrap();
        assert_eq!(sink.finish().unwrap(), 7);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_record() -> impl Strategy<Value = TraceRecord> {
            (
                0u32..7,
                proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(),
            )
                .prop_map(|(kind, pc, addr)| {
                    let pc = Pc::new(pc);
                    let op = match kind {
                        0 => Op::Alu,
                        1 => Op::Load {
                            addr: Addr::new(addr),
                            feeds_mispredict: false,
                        },
                        2 => Op::Load {
                            addr: Addr::new(addr),
                            feeds_mispredict: true,
                        },
                        3 => Op::Store {
                            addr: Addr::new(addr),
                        },
                        4 => Op::Branch {
                            mispredicted: false,
                        },
                        5 => Op::Branch { mispredicted: true },
                        _ => Op::Serialize,
                    };
                    TraceRecord::new(pc, op)
                })
        }

        proptest! {
            /// Arbitrary records -> encode -> decode through both
            /// backings is identity, for arbitrary segment lengths and
            /// chunk sizes.
            #[test]
            fn encode_decode_round_trips(
                recs in proptest::collection::vec(arb_record(), 0..300),
                seg_records in 1u64..40,
                chunk in 1usize..70,
            ) {
                let dir = tmpdir("prop");
                let path = dir.join("t.seg");
                write_segmented(&path, b"prop", seg_records, &recs).unwrap();
                for backing in [Backing::Buffered, Backing::Mmap] {
                    let mut st = SegmentedTrace::open(&path, b"prop", backing).unwrap();
                    prop_assert_eq!(st.records(), recs.len() as u64);
                    prop_assert_eq!(
                        st.n_segments() as u64,
                        (recs.len() as u64).div_ceil(seg_records)
                    );
                    let back = read_all(&mut st, chunk);
                    prop_assert_eq!(&back, &recs);
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}
