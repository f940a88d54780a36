//! A log-structured on-disk checkpoint store.
//!
//! Checkpoints are appended to segment files (`seg-NNNNNNNN.log`) as
//! length+CRC-framed records:
//!
//! ```text
//! +----------+-----------+--------------------------------------------------+
//! | len: u32 | crc32: u32| payload (len B)                                  |
//! +----------+-----------+------+-----------+---------------+---------------+
//!                        | kind | owner: u64| sequence: u64 | base: u64 | body
//!                        +------+-----------+---------------+-----------+----
//! ```
//!
//! `kind` is a full checkpoint (body: the bincode-encoded `Checkpoint`), an
//! incremental delta extending the owner's chain (body: the
//! `IncrementalCheckpoint`; `base` is the sequence it extends) or a
//! tombstone (no state). Everything the owner index needs sits in the fixed
//! part, so opening a store never decodes a body. Restores read the owner's
//! last full record from disk and re-apply its delta chain, so recovery I/O
//! cost is actually paid and measurable.
//!
//! Durability and crash safety come from the append-only discipline: opening
//! a store scans every segment in order and rebuilds the owner index,
//! stopping at the first torn or corrupt frame of a segment (a crash mid
//! write can only damage the tail).
//!
//! Two derived rules keep the log bounded, with nothing to tune:
//!
//! * an owner's base is rewritten as a fresh full record when the bytes of
//!   its delta chain would exceed the bytes of the base. A restore therefore
//!   reads at most twice the state's size, and over time at most as many
//!   bytes go into rewritten bases as into the deltas themselves;
//! * once the log grows past twice its live size, the segments at its head
//!   that hold no live record are deleted (nothing is copied), and if live
//!   and dead records are still interleaved beyond that bound the live state
//!   is compacted into a fresh segment.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::error::{Error, Result};
use seep_core::operator::OperatorId;

use crate::traits::{CheckpointStore, PutOutcome, StoreMetrics, StoreStats};

/// Size of the `len` + `crc32` frame header.
const FRAME_HEADER: usize = 8;

/// Size of the fixed part of a payload: kind, owner, sequence, base sequence.
const RECORD_HEADER: usize = 1 + 3 * 8;

/// Default [`FileStoreConfig::segment_target_bytes`].
pub(crate) const SEGMENT_TARGET_BYTES: u64 = 8 * 1024 * 1024;

/// Configuration of a [`FileStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileStoreConfig {
    /// Root directory holding the segment files.
    pub dir: PathBuf,
    /// Roll the active segment once it grows past this size.
    pub segment_target_bytes: u64,
    /// `fsync` after appended records (durability against OS crash, slower).
    pub fsync: bool,
    /// When `fsync` is on, coalesce the `sync_data` calls to one per this
    /// many appended frames (1 = sync every record, the strictest setting).
    /// A crash can lose at most the last `sync_every_n_frames - 1` records
    /// that the OS had not flushed on its own; the crash scan on reopen
    /// truncates whatever tail did not survive, so recovery stays intact at
    /// every coalescing level.
    pub sync_every_n_frames: usize,
}

impl FileStoreConfig {
    /// Defaults rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FileStoreConfig {
            dir: dir.into(),
            segment_target_bytes: SEGMENT_TARGET_BYTES,
            fsync: false,
            sync_every_n_frames: 1,
        }
    }
}

/// What a record in the log is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordKind {
    /// A full checkpoint of the owner.
    Full = 0,
    /// An incremental checkpoint on top of the owner's current latest.
    Delta = 1,
    /// Everything stored for the owner is deleted.
    Tombstone = 2,
}

/// The fixed part of a record: all the owner index needs to know about it.
#[derive(Debug, Clone, Copy)]
struct RecordHeader {
    kind: RecordKind,
    owner: OperatorId,
    /// Sequence the owner's backup is at once this record is applied.
    sequence: u64,
    /// Deltas only: the sequence this record extends.
    base_sequence: u64,
}

impl RecordHeader {
    fn parse(payload: &[u8]) -> Option<Self> {
        if payload.len() < RECORD_HEADER {
            return None;
        }
        let word = |i: usize| {
            let bytes = payload[1 + 8 * i..9 + 8 * i].try_into();
            u64::from_le_bytes(bytes.expect("an 8-byte slice"))
        };
        Some(RecordHeader {
            kind: match payload[0] {
                0 => RecordKind::Full,
                1 => RecordKind::Delta,
                2 => RecordKind::Tombstone,
                _ => return None,
            },
            owner: OperatorId::new(word(0)),
            sequence: word(1),
            base_sequence: word(2),
        })
    }

    /// A complete frame for this record: the len+CRC header is reserved up
    /// front and patched once the body has been serialised behind it, so the
    /// record is encoded exactly once and never copied.
    fn frame<T: Serialize>(&self, body: &T) -> Result<Vec<u8>> {
        let mut frame = vec![0u8; FRAME_HEADER];
        frame.push(self.kind as u8);
        for word in [self.owner.raw(), self.sequence, self.base_sequence] {
            frame.extend_from_slice(&word.to_le_bytes());
        }
        bincode::serialize_into(&mut frame, body)?;
        let len = u32::try_from(frame.len() - FRAME_HEADER)
            .map_err(|_| Error::Store("checkpoint record exceeds 4 GiB".into()))?;
        let crc = crc32(&frame[FRAME_HEADER..]);
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        Ok(frame)
    }
}

/// Position of one framed record inside a segment.
#[derive(Debug, Clone, Copy)]
struct RecordPtr {
    segment: u64,
    offset: u64,
    len: u32,
}

impl RecordPtr {
    /// Bytes the record occupies in its segment.
    fn framed_len(&self) -> u64 {
        self.len as u64 + FRAME_HEADER as u64
    }
}

/// Per-owner index entry: where the last full checkpoint lives and the delta
/// chain appended since.
#[derive(Debug, Clone)]
struct OwnerIndex {
    full: RecordPtr,
    deltas: Vec<RecordPtr>,
    latest_sequence: u64,
    /// Framed bytes of `deltas`.
    chain_bytes: u64,
}

impl OwnerIndex {
    fn based_on(full: RecordPtr, sequence: u64) -> Self {
        OwnerIndex {
            full,
            deltas: Vec::new(),
            latest_sequence: sequence,
            chain_bytes: 0,
        }
    }

    fn extend(&mut self, delta: RecordPtr, sequence: u64) {
        self.deltas.push(delta);
        self.latest_sequence = sequence;
        self.chain_bytes += delta.framed_len();
    }

    fn live_bytes(&self) -> u64 {
        self.full.framed_len() + self.chain_bytes
    }

    fn records(&self) -> impl Iterator<Item = &RecordPtr> + '_ {
        std::iter::once(&self.full).chain(&self.deltas)
    }
}

struct Inner {
    index: HashMap<OperatorId, OwnerIndex>,
    active: File,
    active_id: u64,
    active_len: u64,
    /// Total bytes across all segment files (live + garbage).
    total_bytes: u64,
    /// Segment ids on disk, oldest first; the last one is active.
    segments: Vec<u64>,
    /// Frames appended to the active segment since the last `sync_data`
    /// (only maintained when `fsync` is on).
    frames_since_sync: usize,
}

/// The log-structured on-disk backend. See the module docs for the format.
pub struct FileStore {
    config: FileStoreConfig,
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore")
            .field("dir", &self.config.dir)
            .finish_non_exhaustive()
    }
}

/// `(sequence, frame)` of a full record of `checkpoint` owned by `owner`.
fn full_frame(owner: OperatorId, checkpoint: &Checkpoint) -> Result<(u64, Vec<u8>)> {
    let sequence = checkpoint.meta.sequence;
    let record = RecordHeader {
        kind: RecordKind::Full,
        owner,
        sequence,
        base_sequence: 0,
    };
    Ok((sequence, record.frame(checkpoint)?))
}

fn io_err(e: std::io::Error) -> Error {
    Error::Store(e.to_string())
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:08}.log"))
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), sliced by 16: sixteen
/// 256-entry tables let one step fold sixteen input bytes into the register,
/// instead of one byte a step. It equals the one-byte table loop (the test
/// module's reference), which the frame format is defined by.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        let head = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let [h0, h1, h2, h3] = head.to_le_bytes();
        crc = t[15][usize::from(h0)]
            ^ t[14][usize::from(h1)]
            ^ t[13][usize::from(h2)]
            ^ t[12][usize::from(h3)]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        crc = t[0][usize::from(crc as u8 ^ b)] ^ (crc >> 8);
    }
    !crc
}

/// `CRC32_TABLES[0]` is the classic bytewise table (the register after
/// shifting one byte through); table `s` advances a byte through `s` more
/// zero bytes, so byte `j` of a 16-byte block is looked up in table `15 - j`.
static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[s - 1][i];
            tables[s][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    tables
}

impl FileStore {
    /// Open (creating if necessary) a store rooted at `config.dir`,
    /// recovering the owner index by scanning the existing segments.
    pub fn open(config: FileStoreConfig) -> Result<Self> {
        fs::create_dir_all(&config.dir).map_err(io_err)?;
        let mut segments: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&config.dir).map_err(io_err)?.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segments.push(id);
            }
        }
        segments.sort_unstable();

        let mut index: HashMap<OperatorId, OwnerIndex> = HashMap::new();
        let mut total_bytes = 0u64;
        let mut last_valid_len = 0u64;
        for &seg in &segments {
            last_valid_len = Self::scan_segment(&config.dir, seg, &mut index)?;
            total_bytes += last_valid_len;
        }

        let active_id = segments.last().copied().unwrap_or(0);
        if segments.is_empty() {
            segments.push(active_id);
        }
        let path = segment_path(&config.dir, active_id);
        // A crash mid-append can leave a torn or corrupt frame at the tail of
        // the active segment. New records must not be appended behind it —
        // the scan stops at the first bad frame, so they would be unreachable
        // forever. Truncate the segment back to its last valid record first.
        if path.exists() {
            let on_disk = fs::metadata(&path).map_err(io_err)?.len();
            if on_disk > last_valid_len {
                let f = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
                f.set_len(last_valid_len).map_err(io_err)?;
            }
        }
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        let active_len = active.metadata().map_err(io_err)?.len();

        Ok(FileStore {
            config,
            inner: Mutex::new(Inner {
                index,
                active,
                active_id,
                active_len,
                total_bytes,
                segments,
                frames_since_sync: 0,
            }),
            metrics: StoreMetrics::default(),
        })
    }

    /// Open a store with default configuration rooted at `dir`.
    pub fn open_dir(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open(FileStoreConfig::new(dir))
    }

    /// The directory holding the segment files.
    pub fn dir(&self) -> PathBuf {
        self.config.dir.clone()
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Total bytes across all segment files (live records plus garbage that
    /// compaction has not reclaimed yet).
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Scan one segment, applying its records to `index`. Returns the number
    /// of valid bytes consumed; stops at the first torn or corrupt frame.
    fn scan_segment(
        dir: &Path,
        seg: u64,
        index: &mut HashMap<OperatorId, OwnerIndex>,
    ) -> Result<u64> {
        let path = segment_path(dir, seg);
        let mut file = File::open(&path).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let mut offset = 0u64;
        let mut header = [0u8; FRAME_HEADER];
        loop {
            if offset + FRAME_HEADER as u64 > file_len {
                break;
            }
            file.seek(SeekFrom::Start(offset)).map_err(io_err)?;
            if file.read_exact(&mut header).is_err() {
                break;
            }
            let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
            if offset + FRAME_HEADER as u64 + len as u64 > file_len {
                break; // torn tail write
            }
            let mut payload = vec![0u8; len as usize];
            if file.read_exact(&mut payload).is_err() {
                break;
            }
            if crc32(&payload) != crc {
                break; // corrupt frame: ignore the rest of this segment
            }
            let Some(record) = RecordHeader::parse(&payload) else {
                break;
            };
            let ptr = RecordPtr {
                segment: seg,
                offset,
                len,
            };
            Self::apply_to_index(index, record, ptr);
            offset += ptr.framed_len();
        }
        Ok(offset)
    }

    fn apply_to_index(
        index: &mut HashMap<OperatorId, OwnerIndex>,
        record: RecordHeader,
        ptr: RecordPtr,
    ) {
        match record.kind {
            RecordKind::Full => {
                index.insert(record.owner, OwnerIndex::based_on(ptr, record.sequence));
            }
            RecordKind::Delta => {
                if let Some(entry) = index.get_mut(&record.owner) {
                    // A delta only extends an intact chain; anything else is
                    // stale (e.g. written before a tombstone) and is skipped.
                    if entry.latest_sequence == record.base_sequence {
                        entry.extend(ptr, record.sequence);
                    }
                }
            }
            RecordKind::Tombstone => {
                index.remove(&record.owner);
            }
        }
    }

    /// Append one framed record to the active segment, rolling it first when
    /// it is full.
    fn append(&self, inner: &mut Inner, frame: &[u8]) -> Result<RecordPtr> {
        if inner.active_len >= self.config.segment_target_bytes {
            self.roll_segment(inner)?;
        }
        let ptr = RecordPtr {
            segment: inner.active_id,
            offset: inner.active_len,
            len: (frame.len() - FRAME_HEADER) as u32,
        };
        inner.active.write_all(frame).map_err(io_err)?;
        inner.active.flush().map_err(io_err)?;
        if self.config.fsync {
            inner.frames_since_sync += 1;
            if inner.frames_since_sync >= self.config.sync_every_n_frames.max(1) {
                self.sync_active(inner)?;
            }
        }
        inner.active_len += frame.len() as u64;
        inner.total_bytes += frame.len() as u64;
        Ok(ptr)
    }

    /// Append a full record of `checkpoint` and make it the owner's base.
    fn append_full(
        &self,
        inner: &mut Inner,
        owner: OperatorId,
        checkpoint: &Checkpoint,
    ) -> Result<RecordPtr> {
        let (sequence, frame) = full_frame(owner, checkpoint)?;
        self.append_base(inner, owner, sequence, &frame)
    }

    /// Append an encoded full record and make it the owner's base.
    fn append_base(
        &self,
        inner: &mut Inner,
        owner: OperatorId,
        sequence: u64,
        frame: &[u8],
    ) -> Result<RecordPtr> {
        let ptr = self.append(inner, frame)?;
        inner
            .index
            .insert(owner, OwnerIndex::based_on(ptr, sequence));
        Ok(ptr)
    }

    /// `sync_data` the active segment and reset the coalescing counter.
    fn sync_active(&self, inner: &mut Inner) -> Result<()> {
        inner.active.sync_data().map_err(io_err)?;
        inner.frames_since_sync = 0;
        self.metrics.record_sync();
        Ok(())
    }

    fn roll_segment(&self, inner: &mut Inner) -> Result<()> {
        // Frames still pending a coalesced sync live in the segment being
        // retired; flush them now so the at-most-N-unsynced-frames bound
        // always refers to the active segment alone.
        if self.config.fsync && inner.frames_since_sync > 0 {
            self.sync_active(inner)?;
        }
        let next = inner.active_id + 1;
        let path = segment_path(&self.config.dir, next);
        inner.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        inner.active_id = next;
        inner.active_len = 0;
        inner.segments.push(next);
        Ok(())
    }

    /// The whole frame (len+CRC header and payload) of the record at `ptr`,
    /// checked against its length and CRC.
    fn read_frame(&self, ptr: RecordPtr) -> Result<Vec<u8>> {
        let path = segment_path(&self.config.dir, ptr.segment);
        let mut file = File::open(&path).map_err(io_err)?;
        file.seek(SeekFrom::Start(ptr.offset)).map_err(io_err)?;
        let mut frame = vec![0u8; FRAME_HEADER + ptr.len as usize];
        file.read_exact(&mut frame[..FRAME_HEADER])
            .map_err(io_err)?;
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
        let at = || format!("segment {} offset {}", ptr.segment, ptr.offset);
        if len != ptr.len {
            return Err(Error::Store(format!(
                "log record length mismatch at {}",
                at()
            )));
        }
        file.read_exact(&mut frame[FRAME_HEADER..])
            .map_err(io_err)?;
        if crc32(&frame[FRAME_HEADER..]) != crc {
            return Err(Error::Store(format!("CRC mismatch at {}", at())));
        }
        Ok(frame)
    }

    /// Read the body of the record at `ptr`, which must be of kind `kind`.
    fn read_body<T: for<'de> Deserialize<'de>>(
        &self,
        ptr: RecordPtr,
        kind: RecordKind,
    ) -> Result<T> {
        let frame = self.read_frame(ptr)?;
        let payload = &frame[FRAME_HEADER..];
        let at = || format!("segment {} offset {}", ptr.segment, ptr.offset);
        match RecordHeader::parse(payload) {
            Some(record) if record.kind == kind => {
                Ok(bincode::deserialize(&payload[RECORD_HEADER..])?)
            }
            _ => Err(Error::Store(format!(
                "expected {kind:?} record at {}",
                at()
            ))),
        }
    }

    /// Materialise the latest checkpoint of an owner by reading its last
    /// full record and re-applying the delta chain. Returns the checkpoint
    /// and the number of log bytes read.
    fn materialize(&self, entry: &OwnerIndex) -> Result<(Checkpoint, u64)> {
        let mut checkpoint: Checkpoint = self.read_body(entry.full, RecordKind::Full)?;
        for ptr in &entry.deltas {
            let inc: IncrementalCheckpoint = self.read_body(*ptr, RecordKind::Delta)?;
            checkpoint.apply_increment(&inc);
        }
        Ok((checkpoint, entry.live_bytes()))
    }

    /// Rewrite the live state (every owner's latest checkpoint) into a fresh
    /// segment and delete the old segments. Every owner's record is read
    /// before the log is touched, so a failure leaves it as it was: a lone
    /// full record is copied as it is, and only a delta chain is
    /// materialised, one owner at a time, and encoded as a fresh full record.
    fn compact(&self, inner: &mut Inner) -> Result<()> {
        let mut frames = Vec::with_capacity(inner.index.len());
        for (owner, entry) in &inner.index {
            let (sequence, frame) = if entry.deltas.is_empty() {
                (entry.latest_sequence, self.read_frame(entry.full)?)
            } else {
                full_frame(*owner, &self.materialize(entry)?.0)?
            };
            frames.push((*owner, sequence, frame));
        }
        // Fresh segment strictly after everything currently on disk.
        let old_segments = std::mem::take(&mut inner.segments);
        inner.active_id += 1;
        let path = segment_path(&self.config.dir, inner.active_id);
        inner.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        inner.active_len = 0;
        inner.total_bytes = 0;
        inner.segments = vec![inner.active_id];
        // Unsynced frames of the retired segments are about to be deleted
        // with them; the counter restarts with the fresh segment.
        inner.frames_since_sync = 0;
        for (owner, sequence, frame) in frames {
            self.append_base(inner, owner, sequence, &frame)?;
        }
        if self.config.fsync && inner.frames_since_sync > 0 {
            self.sync_active(inner)?;
        }
        for seg in old_segments {
            let _ = fs::remove_file(segment_path(&self.config.dir, seg));
        }
        self.metrics.record_compaction();
        Ok(())
    }

    /// Delete the segments at the head of the log that hold no live record.
    /// Only a prefix may go: a record shadows older records alone (a
    /// tombstone its owner's earlier ones, a full record the chain before
    /// it), so dropping the oldest segments can never bring one back on the
    /// next open, whereas a hole in the middle could.
    fn drop_dead_head(&self, inner: &mut Inner) {
        let oldest_live = inner
            .index
            .values()
            .flat_map(OwnerIndex::records)
            .map(|ptr| ptr.segment)
            .min()
            .unwrap_or(inner.active_id);
        while let Some(&seg) = inner.segments.first() {
            if seg >= oldest_live || seg == inner.active_id {
                break;
            }
            let path = segment_path(&self.config.dir, seg);
            let Ok(len) = fs::metadata(&path).map(|m| m.len()) else {
                break;
            };
            if fs::remove_file(&path).is_err() {
                break;
            }
            inner.total_bytes = inner.total_bytes.saturating_sub(len);
            inner.segments.remove(0);
        }
    }

    /// Reclaim space once the log has grown past twice its live size: first
    /// by deleting dead head segments, then, if that was not enough, by
    /// compacting. A failure here (e.g. an unreadable stale record) must
    /// never fail the write that triggered it — the record is already
    /// durably appended and indexed — so errors are only counted, and the
    /// next restore/open will surface genuinely unreadable live data on its
    /// own.
    fn maybe_compact(&self, inner: &mut Inner) {
        let live: u64 = inner.index.values().map(OwnerIndex::live_bytes).sum();
        let oversized =
            |inner: &Inner| inner.segments.len() > 1 && inner.total_bytes > live.saturating_mul(2);
        if oversized(inner) {
            self.drop_dead_head(inner);
        }
        if oversized(inner) && self.compact(inner).is_err() {
            self.metrics.record_failed_compaction();
        }
    }
}

impl CheckpointStore for FileStore {
    fn backend(&self) -> &'static str {
        "file"
    }

    fn put(&self, owner: OperatorId, checkpoint: Checkpoint) -> Result<PutOutcome> {
        let started = Instant::now();
        let mut inner = self.inner.lock();
        let ptr = self.append_full(&mut inner, owner, &checkpoint)?;
        self.maybe_compact(&mut inner);
        drop(inner);
        let bytes = ptr.framed_len() as usize;
        self.metrics.record_put(bytes, started);
        Ok(PutOutcome {
            sequence: checkpoint.meta.sequence,
            bytes_written: bytes,
            write_us: started.elapsed().as_micros() as u64,
        })
    }

    fn apply_incremental(
        &self,
        owner: OperatorId,
        inc: &IncrementalCheckpoint,
    ) -> Result<PutOutcome> {
        let started = Instant::now();
        let mut inner = self.inner.lock();
        let entry = inner.index.get(&owner).ok_or(Error::NoBackup(owner))?;
        if entry.latest_sequence != inc.base_sequence {
            return Err(Error::Invariant(format!(
                "incremental checkpoint base {} does not match stored sequence {}",
                inc.base_sequence, entry.latest_sequence
            )));
        }
        let sequence = inc.meta.sequence;
        let record = RecordHeader {
            kind: RecordKind::Delta,
            owner,
            sequence,
            base_sequence: inc.base_sequence,
        };
        let frame = record.frame(inc)?;
        let ptr = if entry.chain_bytes + frame.len() as u64 > entry.full.framed_len() {
            // The chain would outgrow its base: fold it and this delta into
            // a fresh base instead, so a restore never reads more than twice
            // the state's size.
            let (mut checkpoint, _) = self.materialize(entry)?;
            checkpoint.apply_increment(inc);
            self.append_full(&mut inner, owner, &checkpoint)?
        } else {
            let ptr = self.append(&mut inner, &frame)?;
            let entry = inner.index.get_mut(&owner).expect("checked above");
            entry.extend(ptr, sequence);
            ptr
        };
        self.maybe_compact(&mut inner);
        drop(inner);
        let bytes = ptr.framed_len() as usize;
        self.metrics.record_increment(bytes, started);
        Ok(PutOutcome {
            sequence,
            bytes_written: bytes,
            write_us: started.elapsed().as_micros() as u64,
        })
    }

    fn latest(&self, owner: OperatorId) -> Result<Checkpoint> {
        let started = Instant::now();
        let entry = {
            let inner = self.inner.lock();
            inner.index.get(&owner).cloned()
        }
        .ok_or(Error::NoBackup(owner))?;
        let (checkpoint, read_bytes) = self.materialize(&entry)?;
        self.metrics.record_restore(read_bytes as usize, started);
        Ok(checkpoint)
    }

    fn latest_sequence(&self, owner: OperatorId) -> Option<u64> {
        self.inner
            .lock()
            .index
            .get(&owner)
            .map(|e| e.latest_sequence)
    }

    fn delete(&self, owner: OperatorId) -> bool {
        let mut inner = self.inner.lock();
        if !inner.index.contains_key(&owner) {
            return false;
        }
        // The tombstone must be durable before the index forgets the owner:
        // dropping only the in-memory entry would resurrect the backup from
        // the log on the next open. On append failure the entry is kept
        // (memory and disk stay consistent) and the delete reports failure.
        let tombstone = RecordHeader {
            kind: RecordKind::Tombstone,
            owner,
            sequence: 0,
            base_sequence: 0,
        };
        let appended = tombstone
            .frame(&())
            .and_then(|frame| self.append(&mut inner, &frame));
        if appended.is_err() {
            return false;
        }
        inner.index.remove(&owner);
        self.maybe_compact(&mut inner);
        true
    }

    fn owners(&self) -> Vec<OperatorId> {
        let mut v: Vec<OperatorId> = self.inner.lock().index.keys().copied().collect();
        v.sort();
        v
    }

    fn size_bytes(&self) -> usize {
        self.inner
            .lock()
            .index
            .values()
            .map(|e| e.live_bytes() as usize)
            .sum()
    }

    fn stats(&self) -> StoreStats {
        self.metrics.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::state::{BufferState, ProcessingState};
    use seep_core::tuple::{Key, StreamId};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("seep-filestore-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint(op: u64, seq: u64, entries: u64) -> Checkpoint {
        let mut st = ProcessingState::empty();
        for i in 0..entries {
            st.insert(Key(i), vec![(seq & 0xff) as u8; 32]);
        }
        st.advance_ts(StreamId(0), seq * 10);
        Checkpoint::new(OperatorId::new(op), seq, st, BufferState::new())
    }

    #[test]
    fn put_latest_roundtrip_survives_reopen() {
        let dir = temp_dir("reopen");
        let cp = checkpoint(7, 3, 10);
        {
            let store = FileStore::open_dir(&dir).unwrap();
            store.put(OperatorId::new(7), cp.clone()).unwrap();
        }
        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(OperatorId::new(7)).unwrap(), cp);
        assert_eq!(store.owners(), vec![OperatorId::new(7)]);
        assert_eq!(store.latest_sequence(OperatorId::new(7)), Some(3));
    }

    #[test]
    fn delta_chain_recovers_after_reopen() {
        let dir = temp_dir("deltas");
        let base = checkpoint(5, 1, 20);
        let mut second = base.clone();
        second.meta.sequence = 2;
        second.processing.insert(Key(100), vec![1; 8]);
        second.processing.advance_ts(StreamId(0), 20);
        let mut third = second.clone();
        third.meta.sequence = 3;
        third.processing.remove(Key(0));
        third.processing.advance_ts(StreamId(0), 30);

        {
            let store = FileStore::open_dir(&dir).unwrap();
            store.put(OperatorId::new(5), base.clone()).unwrap();
            let inc1 = IncrementalCheckpoint::diff(&base, &second);
            let inc2 = IncrementalCheckpoint::diff(&second, &third);
            store.apply_incremental(OperatorId::new(5), &inc1).unwrap();
            store.apply_incremental(OperatorId::new(5), &inc2).unwrap();
        }
        // One full + two deltas on disk; recovery must replay the chain.
        let store = FileStore::open_dir(&dir).unwrap();
        let restored = store.latest(OperatorId::new(5)).unwrap();
        assert_eq!(restored.meta.sequence, 3);
        assert_eq!(restored.processing, third.processing);
        let stats = store.stats();
        assert!(stats.bytes_restored > 0);
    }

    #[test]
    fn torn_tail_write_is_ignored() {
        let dir = temp_dir("torn");
        let cp = checkpoint(1, 1, 10);
        {
            let store = FileStore::open_dir(&dir).unwrap();
            store.put(OperatorId::new(1), cp.clone()).unwrap();
        }
        // Simulate a crash mid-append: garbage half-frame at the tail.
        let seg = segment_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&[0x55u8; 11]).unwrap();
        drop(f);
        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(OperatorId::new(1)).unwrap(), cp);
        // The torn tail must have been truncated on open: records appended
        // after the crash-recovery open stay reachable on the next open.
        let cp2 = checkpoint(1, 2, 10);
        store.put(OperatorId::new(1), cp2.clone()).unwrap();
        drop(store);
        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(OperatorId::new(1)).unwrap(), cp2);
    }

    #[test]
    fn corrupt_frame_stops_the_scan_at_the_last_good_record() {
        let dir = temp_dir("corrupt");
        let cp1 = checkpoint(1, 1, 10);
        let cp2 = checkpoint(1, 2, 10);
        {
            let store = FileStore::open_dir(&dir).unwrap();
            store.put(OperatorId::new(1), cp1.clone()).unwrap();
            store.put(OperatorId::new(1), cp2).unwrap();
        }
        // Flip a byte inside the second record's payload.
        let seg = segment_path(&dir, 0);
        let data = fs::read(&seg).unwrap();
        let first_frame =
            FRAME_HEADER + u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        let mut corrupted = data.clone();
        corrupted[first_frame + FRAME_HEADER + 4] ^= 0xFF;
        fs::write(&seg, &corrupted).unwrap();

        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(OperatorId::new(1)).unwrap(), cp1);
    }

    /// Applies `rounds` single-entry deltas on top of `base`, returning the
    /// last full state.
    fn churn(store: &FileStore, base: Checkpoint, rounds: u64) -> Checkpoint {
        let owner = base.meta.operator;
        let mut prev = base;
        for _ in 0..rounds {
            let mut next = prev.clone();
            next.meta.sequence += 1;
            let seq = next.meta.sequence;
            next.processing.insert(Key(seq % 7), vec![seq as u8; 32]);
            next.processing.advance_ts(StreamId(0), seq * 10);
            let inc = IncrementalCheckpoint::diff(&prev, &next);
            store.apply_incremental(owner, &inc).unwrap();
            prev = next;
        }
        prev
    }

    #[test]
    fn a_chain_never_outgrows_its_base() {
        let dir = temp_dir("collapse");
        let store = FileStore::open_dir(&dir).unwrap();
        let owner = OperatorId::new(2);
        let base = checkpoint(2, 1, 50);
        let base_bytes = store.put(owner, base.clone()).unwrap().bytes_written as u64;
        let mut prev = base;
        let (mut rewrites, mut written, mut largest_delta) = (0, 0u64, 0u64);
        for _ in 0..200 {
            let before = store.inner.lock().index[&owner].deltas.len();
            prev = churn(&store, prev, 1);
            let inner = store.inner.lock();
            let entry = &inner.index[&owner];
            assert!(
                entry.chain_bytes <= entry.full.framed_len(),
                "a restore reads at most twice the base"
            );
            if entry.deltas.len() <= before {
                rewrites += 1;
                written += entry.full.framed_len();
            } else {
                let delta = entry.deltas.last().unwrap().framed_len();
                written += delta;
                largest_delta = largest_delta.max(delta);
            }
        }
        assert!(rewrites >= 2, "the chain was folded into a fresh base");
        // Every delta here is about the same size, so 200 of them on their
        // own would have taken `200 * largest_delta` bytes; folding chains
        // into fresh bases at most doubles that.
        assert!(
            written <= 2 * 200 * largest_delta + base_bytes,
            "{written} bytes written for 200 deltas of {largest_delta} ({rewrites} rewrites)"
        );
        let restored = store.latest(owner).unwrap();
        assert_eq!(restored.meta.sequence, 201);
        assert_eq!(restored.processing, prev.processing);
    }

    #[test]
    fn dead_head_segments_are_deleted_without_rewriting_live_data() {
        let dir = temp_dir("dead-head");
        let store = FileStore::open(FileStoreConfig {
            segment_target_bytes: 4_000,
            ..FileStoreConfig::new(&dir)
        })
        .unwrap();
        let owner = OperatorId::new(8);
        let base = checkpoint(8, 1, 100);
        store.put(owner, base.clone()).unwrap();
        // Enough churn to fold the chain into fresh bases several times, each
        // of which strands the segments before it.
        let last = churn(&store, base, 300);
        assert_eq!(store.stats().compactions, 0, "nothing had to be copied");
        assert!(
            store.log_bytes() <= 2 * store.size_bytes() as u64 + 2 * 4_000,
            "log {} vs live {}",
            store.log_bytes(),
            store.size_bytes()
        );
        let on_disk = fs::read_dir(&dir).unwrap().count();
        assert_eq!(on_disk, store.segment_count());
        drop(store);
        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(owner).unwrap().processing, last.processing);
    }

    #[test]
    fn a_dead_head_is_kept_while_an_older_owner_is_still_live_in_it() {
        let dir = temp_dir("pinned-head");
        let store = FileStore::open(FileStoreConfig {
            segment_target_bytes: 4_000,
            ..FileStoreConfig::new(&dir)
        })
        .unwrap();
        let pinned = checkpoint(1, 1, 10);
        store.put(OperatorId::new(1), pinned.clone()).unwrap();
        let base = checkpoint(8, 1, 100);
        store.put(OperatorId::new(8), base.clone()).unwrap();
        let last = churn(&store, base, 300);
        // Segment 0 holds the pinned owner's only record, so nothing before
        // the churning owner's live chain can simply be dropped: compaction
        // copies the live state instead.
        assert!(store.stats().compactions > 0);
        drop(store);
        let store = FileStore::open_dir(&dir).unwrap();
        assert_eq!(store.latest(OperatorId::new(1)).unwrap(), pinned);
        assert_eq!(
            store.latest(OperatorId::new(8)).unwrap().processing,
            last.processing
        );
    }

    #[test]
    fn tombstone_survives_reopen_and_garbage_is_reclaimed() {
        let dir = temp_dir("tombstone");
        {
            let store = FileStore::open(FileStoreConfig {
                segment_target_bytes: 2_000,
                ..FileStoreConfig::new(&dir)
            })
            .unwrap();
            for seq in 1..=20u64 {
                store
                    .put(OperatorId::new(9), checkpoint(9, seq, 30))
                    .unwrap();
            }
            store.put(OperatorId::new(4), checkpoint(4, 1, 5)).unwrap();
            assert!(store.delete(OperatorId::new(9)));
            assert!(!store.delete(OperatorId::new(9)));
            // Repeated puts of the same owner leave garbage: it must have
            // been reclaimed, keeping the log close to its live size.
            assert!(
                store.log_bytes() <= 2 * store.size_bytes() as u64 + 2 * 2_000,
                "log {} vs live {}",
                store.log_bytes(),
                store.size_bytes()
            );
        }
        let store = FileStore::open_dir(&dir).unwrap();
        assert!(store.latest(OperatorId::new(9)).is_err());
        assert!(store.latest(OperatorId::new(4)).is_ok());
        assert_eq!(store.owners(), vec![OperatorId::new(4)]);
    }

    #[test]
    fn fsync_coalescing_issues_one_sync_per_n_frames() {
        for (level, expected_syncs) in [(1usize, 8u64), (4, 2), (16, 0)] {
            let dir = temp_dir(&format!("sync-{level}"));
            let store = FileStore::open(FileStoreConfig {
                fsync: true,
                sync_every_n_frames: level,
                ..FileStoreConfig::new(&dir)
            })
            .unwrap();
            for seq in 1..=8u64 {
                store
                    .put(OperatorId::new(1), checkpoint(1, seq, 4))
                    .unwrap();
            }
            assert_eq!(
                store.stats().syncs,
                expected_syncs,
                "coalescing level {level}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn rolling_a_segment_flushes_pending_coalesced_frames() {
        let dir = temp_dir("sync-roll");
        let store = FileStore::open(FileStoreConfig {
            fsync: true,
            sync_every_n_frames: 1_000,
            segment_target_bytes: 2_000,
            ..FileStoreConfig::new(&dir)
        })
        .unwrap();
        assert_eq!(store.stats().syncs, 0);
        // Each owner's record is ~1 KB, so the segment rolls repeatedly long
        // before the coalescing level is reached: every roll must sync the
        // retiring segment so its tail is never left pending forever.
        for seq in 1..=6u64 {
            store
                .put(OperatorId::new(seq), checkpoint(seq, 1, 30))
                .unwrap();
        }
        assert!(store.segment_count() > 1);
        assert!(store.stats().syncs > 0, "rolls must flush pending frames");
    }

    #[test]
    fn crash_scan_recovers_at_every_coalescing_level() {
        for level in [1usize, 4, 16] {
            let dir = temp_dir(&format!("crash-{level}"));
            let config = FileStoreConfig {
                fsync: true,
                sync_every_n_frames: level,
                ..FileStoreConfig::new(&dir)
            };
            let mut last = None;
            {
                let store = FileStore::open(config.clone()).unwrap();
                for seq in 1..=6u64 {
                    let cp = checkpoint(3, seq, 8);
                    store.put(OperatorId::new(3), cp.clone()).unwrap();
                    last = Some(cp);
                }
            }
            // Crash mid-append: garbage half-frame behind the last record.
            let seg = segment_path(&dir, 0);
            let mut f = OpenOptions::new().append(true).open(&seg).unwrap();
            f.write_all(&[0xAA; 13]).unwrap();
            drop(f);
            let store = FileStore::open(config).unwrap();
            assert_eq!(
                store.latest(OperatorId::new(3)).unwrap(),
                last.unwrap(),
                "coalescing level {level}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// The bytewise CRC-32 the sliced one must equal: one table lookup per
    /// input byte, the table built the textbook way at every call.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0x0000_0000);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_short_length_and_offset() {
        let buf: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(167) ^ 0x5A) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_crc32_equals_the_bytewise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65_536),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
        }
    }
}
