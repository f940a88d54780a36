//! The [`CheckpointStore`] trait and the per-store counters every backend
//! maintains.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::key::KeyRange;
use seep_core::merge::merge_checkpoints;
use seep_core::operator::OperatorId;
use seep_core::primitives::split_checkpoint;
use seep_core::Result;

/// Outcome of a successful write ([`CheckpointStore::put`] or
/// [`CheckpointStore::apply_incremental`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Sequence number now stored as the owner's latest checkpoint.
    pub sequence: u64,
    /// Bytes written to the backing medium for this operation (serialised
    /// record size for durable backends, in-memory footprint delta for
    /// [`crate::MemStore`]).
    pub bytes_written: usize,
    /// Wall-clock cost of the write in microseconds.
    pub write_us: u64,
}

/// A point-in-time copy of a store's I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Full checkpoints written.
    pub puts: u64,
    /// Incremental checkpoints applied.
    pub increments: u64,
    /// Checkpoints read back (restores).
    pub restores: u64,
    /// Total bytes written (full + incremental records).
    pub bytes_written: u64,
    /// Total bytes read back on restore.
    pub bytes_restored: u64,
    /// Cumulative write latency in microseconds.
    pub write_us: u64,
    /// Cumulative restore latency in microseconds.
    pub restore_us: u64,
    /// `sync_data` calls issued (file-backed backends with `fsync` on; with
    /// sync coalescing one call covers up to `sync_every_n_frames` records).
    pub syncs: u64,
    /// Compactions performed (log-structured backends only).
    pub compactions: u64,
    /// Compaction passes that failed and were skipped (the triggering write
    /// still succeeded; log-structured backends only).
    pub failed_compactions: u64,
    /// Reads served from the in-memory hot tier (tiered backend only).
    pub hot_hits: u64,
    /// Reads that had to go to the cold tier (tiered backend only).
    pub hot_misses: u64,
}

/// Atomic counters shared by all backends; snapshot with
/// [`StoreMetrics::stats`].
#[derive(Debug, Default)]
pub struct StoreMetrics {
    puts: AtomicU64,
    increments: AtomicU64,
    restores: AtomicU64,
    bytes_written: AtomicU64,
    bytes_restored: AtomicU64,
    write_us: AtomicU64,
    restore_us: AtomicU64,
    syncs: AtomicU64,
    compactions: AtomicU64,
    failed_compactions: AtomicU64,
    hot_hits: AtomicU64,
    hot_misses: AtomicU64,
}

impl StoreMetrics {
    /// Record a full-checkpoint write.
    pub fn record_put(&self, bytes: usize, started: Instant) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.write_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Record an incremental-checkpoint write.
    pub fn record_increment(&self, bytes: usize, started: Instant) {
        self.increments.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.write_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Record a restore (read-back) of `bytes`.
    pub fn record_restore(&self, bytes: usize, started: Instant) {
        self.restores.fetch_add(1, Ordering::Relaxed);
        self.bytes_restored
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.restore_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// Record one `sync_data` call.
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one compaction pass.
    pub fn record_compaction(&self) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a compaction pass that failed and was skipped.
    pub fn record_failed_compaction(&self) {
        self.failed_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a hot-tier hit (tiered backend).
    pub fn record_hot_hit(&self) {
        self.hot_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a hot-tier miss (tiered backend).
    pub fn record_hot_miss(&self) {
        self.hot_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts.load(Ordering::Relaxed),
            increments: self.increments.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_restored: self.bytes_restored.load(Ordering::Relaxed),
            write_us: self.write_us.load(Ordering::Relaxed),
            restore_us: self.restore_us.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            failed_compactions: self.failed_compactions.load(Ordering::Relaxed),
            hot_hits: self.hot_hits.load(Ordering::Relaxed),
            hot_misses: self.hot_misses.load(Ordering::Relaxed),
        }
    }
}

/// Storage for backed-up operator checkpoints.
///
/// One logical store exists per *backup operator* (the upstream VM holding
/// the checkpoints of its downstream operators, §3.2). Keys are the operator
/// whose state is stored, so a single upstream can hold backups for several
/// downstream partitions. Backends may retain multiple sequences per owner;
/// [`CheckpointStore::prune`] bounds that history.
pub trait CheckpointStore: Send + Sync {
    /// Short backend label ("mem", "file", "tiered") used in metrics.
    fn backend(&self) -> &'static str;

    /// Store a full checkpoint of `owner` as its new latest sequence.
    fn put(&self, owner: OperatorId, checkpoint: Checkpoint) -> Result<PutOutcome>;

    /// Apply an incremental checkpoint on top of the stored base. Fails if no
    /// base checkpoint is stored or the sequences do not line up.
    fn apply_incremental(
        &self,
        owner: OperatorId,
        inc: &IncrementalCheckpoint,
    ) -> Result<PutOutcome>;

    /// The most recent checkpoint of `owner`.
    fn latest(&self, owner: OperatorId) -> Result<Checkpoint>;

    /// A specific stored sequence of `owner` (for backends that keep
    /// history; backends that only retain the latest return it when the
    /// sequence matches and an error otherwise).
    fn get(&self, owner: OperatorId, sequence: u64) -> Result<Checkpoint>;

    /// The latest stored sequence number of `owner`, if any.
    fn latest_sequence(&self, owner: OperatorId) -> Option<u64>;

    /// Drop stored sequences of `owner` strictly older than
    /// `before_sequence`. Returns how many sequences were dropped.
    fn prune(&self, owner: OperatorId, before_sequence: u64) -> usize;

    /// Delete everything stored for `owner` (e.g. when the backup operator
    /// changes after repartitioning — Algorithm 1, lines 5–6). Returns
    /// whether anything was present.
    fn delete(&self, owner: OperatorId) -> bool;

    /// Operators that currently have a checkpoint stored here.
    fn owners(&self) -> Vec<OperatorId>;

    /// Total bytes of live stored checkpoints (for overhead accounting).
    fn size_bytes(&self) -> usize;

    /// Snapshot of the store's I/O counters.
    fn stats(&self) -> StoreStats;

    /// Partition the stored latest checkpoint of `owner` for scale out
    /// (Algorithm 2 run by the backup VM against its stored copy, so the
    /// overloaded or failed operator itself is never involved).
    fn partition_for_scale_out(
        &self,
        owner: OperatorId,
        assignments: &[(OperatorId, KeyRange)],
    ) -> Result<Vec<Checkpoint>> {
        split_checkpoint(self.latest(owner)?, assignments)
    }

    /// A load-weighted sample of at most `max` keys from the stored latest
    /// checkpoint of `owner`, used to pick distribution-guided key splits
    /// during reconfiguration. Restoring through [`latest`](Self::latest)
    /// means a `FileStore`/`TieredStore` owner backed up as a full record
    /// plus a delta chain is materialised before sampling, so the sample
    /// reflects every applied increment.
    fn sample_keys(&self, owner: OperatorId, max: usize) -> Result<Vec<seep_core::Key>> {
        Ok(self.latest(owner)?.sample_keys(max))
    }

    /// Merge the stored latest checkpoints of two adjacent partitions into a
    /// single checkpoint owned by `merged` — the scale-in counterpart of
    /// [`partition_for_scale_out`](Self::partition_for_scale_out), run by the
    /// backup VM that holds both copies (§3.3). Restoring through `latest`
    /// means a `FileStore`/`TieredStore` owner backed up as a full record
    /// plus a delta chain is materialised before merging, so the merged
    /// checkpoint reflects every applied increment. The two old owners'
    /// backups are left in place; the coordinator deletes them once the
    /// merged checkpoint is safely stored.
    fn merge_for_scale_in(
        &self,
        merged: OperatorId,
        a: (OperatorId, KeyRange),
        b: (OperatorId, KeyRange),
    ) -> Result<(Checkpoint, KeyRange)> {
        let cp_a = self.latest(a.0)?;
        let cp_b = self.latest(b.0)?;
        merge_checkpoints(merged, (cp_a, a.1), (cp_b, b.1))
    }
}
