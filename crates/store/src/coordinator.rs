//! `backup-state(o)` — Algorithm 1 of the paper — generalised over pluggable
//! [`CheckpointStore`] backends. Moved here from `seep-core`'s primitives so
//! the coordinator can drive any backend.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use seep_core::backup::select_backup_operator;
use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::error::{Error, Result};
use seep_core::operator::OperatorId;
use seep_core::tuple::TimestampVec;

use crate::traits::{CheckpointStore, PutOutcome, StoreStats};

/// Registry mapping each operator to the [`CheckpointStore`] hosted on its VM.
///
/// In the real system every VM hosts a backup store for the downstream
/// operators that picked it; the registry is how the coordinator reaches the
/// store of a given upstream operator.
pub type BackupRegistry = HashMap<OperatorId, Arc<dyn CheckpointStore>>;

/// Result of a successful `backup-state(o)` call.
#[derive(Debug, Clone)]
pub struct BackupOutcome {
    /// The upstream operator now holding the checkpoint (`backup(o)`).
    pub backup_operator: OperatorId,
    /// Upstream buffers towards `o` may be trimmed up to these timestamps.
    pub trim_to: TimestampVec,
    /// Write outcome reported by the backing store.
    pub put: PutOutcome,
    /// Whether the write was an incremental delta rather than a full
    /// checkpoint.
    pub incremental: bool,
}

/// Coordinates `backup-state(o)` (Algorithm 1): selects the backup operator,
/// stores the checkpoint there, releases the previous backup when the choice
/// changes, and reports how far upstream buffers can be trimmed.
pub struct BackupCoordinator {
    stores: Mutex<BackupRegistry>,
    /// `backup(o)`: the upstream operator currently holding o's checkpoint.
    assignments: Mutex<HashMap<OperatorId, OperatorId>>,
}

impl Default for BackupCoordinator {
    fn default() -> Self {
        Self::new()
    }
}

impl BackupCoordinator {
    /// Create a coordinator with no registered stores.
    pub fn new() -> Self {
        BackupCoordinator {
            stores: Mutex::new(HashMap::new()),
            assignments: Mutex::new(HashMap::new()),
        }
    }

    /// Register the backup store hosted alongside `operator`.
    pub fn register_store(&self, operator: OperatorId, store: Arc<dyn CheckpointStore>) {
        self.stores.lock().insert(operator, store);
    }

    /// Remove the store hosted alongside `operator` (when its VM is released).
    pub fn unregister_store(&self, operator: OperatorId) {
        self.stores.lock().remove(&operator);
    }

    /// The upstream operator currently holding `operator`'s checkpoint, if any.
    pub fn backup_of(&self, operator: OperatorId) -> Option<OperatorId> {
        self.assignments.lock().get(&operator).copied()
    }

    /// Explicitly set `backup(o)` (used when partitioning assigns initial
    /// backups for new partitions, Algorithm 2 line 8).
    pub fn set_backup_of(&self, operator: OperatorId, backup: OperatorId) {
        self.assignments.lock().insert(operator, backup);
    }

    /// Forget the assignment for `operator` (when it is removed from the graph).
    pub fn clear_backup_of(&self, operator: OperatorId) {
        self.assignments.lock().remove(&operator);
    }

    /// The store hosted alongside `operator`.
    pub fn store_of(&self, operator: OperatorId) -> Result<Arc<dyn CheckpointStore>> {
        self.stores
            .lock()
            .get(&operator)
            .cloned()
            .ok_or(Error::UnknownOperator(operator))
    }

    /// Aggregate I/O counters of every registered store (for experiment
    /// output; all stores of one runtime share a backend, so summing is
    /// meaningful).
    pub fn aggregate_stats(&self) -> StoreStats {
        let stores = self.stores.lock();
        let mut total = StoreStats::default();
        for store in stores.values() {
            let s = store.stats();
            total.puts += s.puts;
            total.increments += s.increments;
            total.restores += s.restores;
            total.bytes_written += s.bytes_written;
            total.bytes_restored += s.bytes_restored;
            total.write_us += s.write_us;
            total.restore_us += s.restore_us;
            total.syncs += s.syncs;
            total.compactions += s.compactions;
            total.failed_compactions += s.failed_compactions;
            total.hot_hits += s.hot_hits;
            total.hot_misses += s.hot_misses;
        }
        total
    }

    /// `backup-state(o)` (Algorithm 1): store `checkpoint` at the upstream
    /// operator selected by hashing, release the previous backup if the
    /// selection changed, prune superseded sequences, and return the chosen
    /// backup operator together with the timestamp vector up to which
    /// upstream output buffers may now be trimmed (line 4).
    pub fn backup_state(
        &self,
        operator: OperatorId,
        upstreams: &[OperatorId],
        checkpoint: Checkpoint,
    ) -> Result<BackupOutcome> {
        let chosen = select_backup_operator(operator, upstreams)
            .ok_or_else(|| Error::Invariant(format!("operator {operator} has no upstream")))?;
        let trim_to = checkpoint.processing.timestamps().clone();
        let store = self.store_of(chosen)?;
        let put = store.put(operator, checkpoint)?;
        store.prune(operator, put.sequence);

        let previous = {
            let mut assignments = self.assignments.lock();
            assignments.insert(operator, chosen)
        };
        // Algorithm 1, lines 5-6: release the old backup if it moved.
        if let Some(prev) = previous {
            if prev != chosen {
                if let Ok(prev_store) = self.store_of(prev) {
                    prev_store.delete(operator);
                }
            }
        }
        Ok(BackupOutcome {
            backup_operator: chosen,
            trim_to,
            put,
            incremental: false,
        })
    }

    /// Whether `operator`'s backup can take a delta on top of sequence
    /// `base_sequence`: the operator the hash rule selects among `upstreams`
    /// is the one currently holding the backup, and what it holds is at
    /// exactly that sequence. False on a first round, after the backup
    /// moved and after a write that did not land.
    pub fn holds_base(
        &self,
        operator: OperatorId,
        upstreams: &[OperatorId],
        base_sequence: u64,
    ) -> bool {
        let Some(chosen) = select_backup_operator(operator, upstreams) else {
            return false;
        };
        self.backup_of(operator) == Some(chosen)
            && self
                .store_of(chosen)
                .is_ok_and(|store| store.latest_sequence(operator) == Some(base_sequence))
    }

    /// Incremental `backup-state(o)`: apply `inc` on top of the checkpoint
    /// already backed up for `operator`. Fails when
    /// [`holds_base`](Self::holds_base) would have said no, or when the
    /// store refuses the write.
    pub fn backup_increment(
        &self,
        operator: OperatorId,
        upstreams: &[OperatorId],
        inc: &IncrementalCheckpoint,
    ) -> Result<BackupOutcome> {
        let chosen = select_backup_operator(operator, upstreams)
            .ok_or_else(|| Error::Invariant(format!("operator {operator} has no upstream")))?;
        if self.backup_of(operator) != Some(chosen) {
            return Err(Error::NoBackup(operator));
        }
        let store = self.store_of(chosen)?;
        let put = store.apply_incremental(operator, inc)?;
        store.prune(operator, put.sequence);
        Ok(BackupOutcome {
            backup_operator: chosen,
            trim_to: inc.timestamps.clone(),
            put,
            incremental: true,
        })
    }

    /// Retrieve the latest backed-up checkpoint of `operator`
    /// (`retrieve-backup(backup(o), o)`).
    pub fn retrieve(&self, operator: OperatorId) -> Result<Checkpoint> {
        let backup = self.backup_of(operator).ok_or(Error::NoBackup(operator))?;
        self.store_of(backup)?.latest(operator)
    }

    /// Like [`retrieve`](Self::retrieve), additionally reporting the bytes
    /// the store actually read from its backing medium (framed log bytes for
    /// durable backends — the number the backend itself counted, not the
    /// checkpoint's logical in-memory size).
    pub fn retrieve_measured(&self, operator: OperatorId) -> Result<(Checkpoint, u64)> {
        let backup = self.backup_of(operator).ok_or(Error::NoBackup(operator))?;
        let store = self.store_of(backup)?;
        let before = store.stats().bytes_restored;
        let checkpoint = store.latest(operator)?;
        let read = store.stats().bytes_restored.saturating_sub(before);
        Ok((checkpoint, read))
    }

    /// A load-weighted key sample of `operator`'s backed-up checkpoint, drawn
    /// at the store that holds it (so `FileStore` delta chains are
    /// materialised by the backend before sampling). The plan executor
    /// samples the checkpoint it has already retrieved for partitioning;
    /// this entry point serves callers that want a split or skew probe
    /// *without* shipping the full checkpoint — e.g. a policy asking "is
    /// this partition's backup skewed?" before committing to a plan.
    pub fn sample_keys(&self, operator: OperatorId, max: usize) -> Result<Vec<seep_core::Key>> {
        let backup = self.backup_of(operator).ok_or(Error::NoBackup(operator))?;
        self.store_of(backup)?.sample_keys(operator, max)
    }

    /// Partition the backed-up checkpoint of `operator` for scale out on the
    /// VM that holds it (Algorithm 2 runs at the backup operator).
    pub fn partition_for_scale_out(
        &self,
        operator: OperatorId,
        assignments: &[(OperatorId, seep_core::KeyRange)],
    ) -> Result<Vec<Checkpoint>> {
        let backup = self.backup_of(operator).ok_or(Error::NoBackup(operator))?;
        self.store_of(backup)?
            .partition_for_scale_out(operator, assignments)
    }

    /// Merge the backed-up checkpoints of two adjacent partitions `a` and `b`
    /// into a single checkpoint owned by `merged` — the scale-in counterpart
    /// of [`partition_for_scale_out`](Self::partition_for_scale_out). When
    /// both backups live on the same store the merge runs there, as the paper
    /// would run it on the backup VM; otherwise the two checkpoints are
    /// fetched from their respective backup stores and merged here. Fails
    /// with [`Error::NoBackup`] when either partition has no backup yet (the
    /// caller then checkpoints first or falls back to replay-only merge).
    pub fn merge_for_scale_in(
        &self,
        merged: OperatorId,
        a: (OperatorId, seep_core::KeyRange),
        b: (OperatorId, seep_core::KeyRange),
    ) -> Result<(Checkpoint, seep_core::KeyRange)> {
        let backup_a = self.backup_of(a.0).ok_or(Error::NoBackup(a.0))?;
        let backup_b = self.backup_of(b.0).ok_or(Error::NoBackup(b.0))?;
        if backup_a == backup_b {
            return self.store_of(backup_a)?.merge_for_scale_in(merged, a, b);
        }
        let cp_a = self.store_of(backup_a)?.latest(a.0)?;
        let cp_b = self.store_of(backup_b)?.latest(b.0)?;
        seep_core::merge::merge_checkpoints(merged, (cp_a, a.1), (cp_b, b.1))
    }

    /// Merge the backed-up checkpoints of **all** `parts` — adjacent
    /// partitions of one logical operator, in any order — into a single
    /// checkpoint owned by `merged`: the N-way generalisation of
    /// [`merge_for_scale_in`](Self::merge_for_scale_in), used by whole-
    /// operator rebalancing and consolidation to pool every partition's
    /// state (and traffic sample) before re-splitting it. Fails with
    /// [`Error::NoBackup`] when any partition has no backup yet, and with
    /// the usual adjacency error when the ranges do not form one contiguous
    /// interval.
    pub fn merge_adjacent(
        &self,
        merged: OperatorId,
        parts: &[(OperatorId, seep_core::KeyRange)],
    ) -> Result<(Checkpoint, seep_core::KeyRange)> {
        let mut sorted = parts.to_vec();
        sorted.sort_by_key(|(_, r)| r.lo);
        let mut iter = sorted.into_iter();
        let (first_op, first_range) = iter
            .next()
            .ok_or_else(|| Error::Invariant("cannot merge zero partitions".into()))?;
        let mut acc = (self.retrieve(first_op)?, first_range);
        for (op, range) in iter {
            let cp = self.retrieve(op)?;
            acc = seep_core::merge::merge_checkpoints(merged, acc, (cp, range))?;
        }
        let (mut checkpoint, range) = acc;
        // A single partition skips the merge loop: stamp it by hand.
        checkpoint.meta.operator = merged;
        Ok((checkpoint, range))
    }

    /// Store the merged checkpoint as the initial backup of the surviving
    /// operator and delete the two replaced partitions' backups — the
    /// scale-in counterpart of [`store_partitioned`](Self::store_partitioned).
    /// The old backups are removed only after the merged checkpoint is safely
    /// stored, so a crash mid-way never leaves the system without any copy.
    pub fn store_merged(
        &self,
        replaced: [OperatorId; 2],
        upstreams: &[OperatorId],
        merged: &Checkpoint,
    ) -> Result<PutOutcome> {
        let outcomes =
            self.store_repartitioned(&replaced, upstreams, std::slice::from_ref(merged))?;
        Ok(outcomes[0])
    }

    /// Store partitioned checkpoints as the initial backups of the new
    /// partitions (Algorithm 2, line 8) and drop the replaced operator's
    /// backup. Each partition's backup lands on the store chosen by the same
    /// hash rule over `upstreams`.
    pub fn store_partitioned(
        &self,
        replaced: OperatorId,
        upstreams: &[OperatorId],
        partitions: &[Checkpoint],
    ) -> Result<()> {
        self.store_repartitioned(&[replaced], upstreams, partitions)?;
        Ok(())
    }

    /// The common backup bookkeeping behind every reconfiguration shape:
    /// store the checkpoints of the instances replacing `replaced` as their
    /// initial backups (each landing on the store chosen by the hash rule
    /// over `upstreams`) and only then drop every replaced operator's backup,
    /// so a crash mid-way never leaves the system without any copy. Scale out
    /// is 1 replaced → π partitions, scale in is 2 → 1, a rebalance is 2 → 2.
    /// Returns one [`PutOutcome`] per stored partition, in order.
    pub fn store_repartitioned(
        &self,
        replaced: &[OperatorId],
        upstreams: &[OperatorId],
        partitions: &[Checkpoint],
    ) -> Result<Vec<PutOutcome>> {
        let mut outcomes = Vec::with_capacity(partitions.len());
        for cp in partitions {
            let chosen = select_backup_operator(cp.meta.operator, upstreams)
                .ok_or_else(|| Error::Invariant("no upstream for partition backup".into()))?;
            outcomes.push(self.store_of(chosen)?.put(cp.meta.operator, cp.clone())?);
            self.assignments.lock().insert(cp.meta.operator, chosen);
        }
        // Afterwards the replaced backups are removed safely from the system
        // (Algorithm 1, line 8).
        for old in replaced {
            if let Some(old_backup) = self.backup_of(*old) {
                if let Ok(store) = self.store_of(old_backup) {
                    store.delete(*old);
                }
            }
            self.clear_backup_of(*old);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemStore;
    use seep_core::state::{BufferState, ProcessingState};
    use seep_core::tuple::{Key, StreamId};
    use seep_core::KeyRange;

    fn coordinator_with_stores(ops: &[u64]) -> BackupCoordinator {
        let coord = BackupCoordinator::new();
        for &o in ops {
            coord.register_store(OperatorId::new(o), Arc::new(MemStore::new()));
        }
        coord
    }

    fn checkpoint(op: u64, seq: u64) -> Checkpoint {
        let mut st = ProcessingState::empty();
        st.insert(Key(op), vec![op as u8]);
        st.advance_ts(StreamId(1), 33);
        Checkpoint::new(OperatorId::new(op), seq, st, BufferState::new())
    }

    #[test]
    fn backup_state_stores_at_hashed_upstream_and_reports_trim() {
        let coord = coordinator_with_stores(&[1, 2]);
        let ups = [OperatorId::new(1), OperatorId::new(2)];
        let outcome = coord
            .backup_state(OperatorId::new(5), &ups, checkpoint(5, 1))
            .unwrap();
        assert!(ups.contains(&outcome.backup_operator));
        assert_eq!(outcome.trim_to.get(StreamId(1)), Some(33));
        assert!(!outcome.incremental);
        assert!(outcome.put.bytes_written > 0);
        assert_eq!(
            coord.backup_of(OperatorId::new(5)),
            Some(outcome.backup_operator)
        );
        let retrieved = coord.retrieve(OperatorId::new(5)).unwrap();
        assert_eq!(retrieved.processing.len(), 1);
    }

    #[test]
    fn backup_state_releases_previous_backup_when_upstreams_change() {
        let coord = coordinator_with_stores(&[1, 2, 3]);
        let op5 = OperatorId::new(5);
        let first = coord
            .backup_state(op5, &[OperatorId::new(1)], Checkpoint::empty(op5))
            .unwrap();
        assert_eq!(first.backup_operator, OperatorId::new(1));

        // Upstream repartitioned: now ops 2 and 3 are upstream. The new
        // choice must land on one of them and the old backup is deleted.
        let second = coord
            .backup_state(
                op5,
                &[OperatorId::new(2), OperatorId::new(3)],
                Checkpoint::empty(op5),
            )
            .unwrap();
        assert_ne!(second.backup_operator, OperatorId::new(1));
        let old_store = coord.store_of(OperatorId::new(1)).unwrap();
        assert!(old_store.latest(op5).is_err(), "old backup not released");
        assert!(coord.retrieve(op5).is_ok());
    }

    #[test]
    fn backup_increment_applies_on_stable_assignment() {
        let coord = coordinator_with_stores(&[1]);
        let op = OperatorId::new(5);
        let ups = [OperatorId::new(1)];
        let base = checkpoint(5, 1);
        coord.backup_state(op, &ups, base.clone()).unwrap();

        let mut current = base.clone();
        current.meta.sequence = 2;
        current.processing.insert(Key(42), vec![4]);
        let inc = IncrementalCheckpoint::diff(&base, &current);
        assert!(coord.holds_base(op, &ups, 1));
        assert!(!coord.holds_base(op, &ups, 2), "not at that sequence yet");
        let outcome = coord.backup_increment(op, &ups, &inc).unwrap();
        assert!(outcome.incremental);
        assert_eq!(coord.retrieve(op).unwrap().meta.sequence, 2);
        assert!(coord.holds_base(op, &ups, 2));
        assert!(
            !coord.holds_base(op, &[OperatorId::new(9)], 2),
            "the hash rule now picks another operator: the backup moves"
        );

        // Without an existing assignment the increment is refused.
        let other = OperatorId::new(6);
        let inc6 =
            IncrementalCheckpoint::diff(&Checkpoint::empty(other), &Checkpoint::empty(other));
        assert!(!coord.holds_base(other, &ups, 0));
        assert!(coord.backup_increment(other, &ups, &inc6).is_err());
    }

    #[test]
    fn backup_state_without_upstreams_is_an_error() {
        let coord = coordinator_with_stores(&[1]);
        let err = coord.backup_state(
            OperatorId::new(5),
            &[],
            Checkpoint::empty(OperatorId::new(5)),
        );
        assert!(err.is_err());
    }

    #[test]
    fn backup_state_to_unregistered_store_is_an_error() {
        let coord = coordinator_with_stores(&[]);
        let err = coord.backup_state(
            OperatorId::new(5),
            &[OperatorId::new(1)],
            Checkpoint::empty(OperatorId::new(5)),
        );
        assert!(matches!(err, Err(Error::UnknownOperator(_))));
    }

    #[test]
    fn sample_keys_reads_the_backed_up_checkpoint() {
        let coord = coordinator_with_stores(&[1]);
        let op = OperatorId::new(5);
        let mut st = ProcessingState::empty();
        st.insert(Key(10), vec![0u8; 500]); // hot
        st.insert(Key(20), vec![0u8; 20]);
        let cp = Checkpoint::new(op, 1, st, BufferState::new());
        coord.backup_state(op, &[OperatorId::new(1)], cp).unwrap();
        let sample = coord.sample_keys(op, 64).unwrap();
        assert!(!sample.is_empty() && sample.len() <= 64);
        let hot = sample.iter().filter(|k| **k == Key(10)).count();
        let cold = sample.iter().filter(|k| **k == Key(20)).count();
        assert!(hot > cold, "sample must weight by state footprint");
        // No backup: sampling is an error the caller can fall back from.
        assert!(matches!(
            coord.sample_keys(OperatorId::new(99), 64),
            Err(Error::NoBackup(_))
        ));
    }

    #[test]
    fn store_repartitioned_replaces_a_pair_with_a_pair() {
        // The rebalance shape: two old partitions replaced by two new ones.
        let coord = coordinator_with_stores(&[1, 2]);
        let ups = [OperatorId::new(1), OperatorId::new(2)];
        for old in [10, 11] {
            coord
                .backup_state(OperatorId::new(old), &ups, checkpoint(old, 1))
                .unwrap();
        }
        let parts = vec![
            Checkpoint::empty(OperatorId::new(20)),
            Checkpoint::empty(OperatorId::new(21)),
        ];
        let outcomes = coord
            .store_repartitioned(&[OperatorId::new(10), OperatorId::new(11)], &ups, &parts)
            .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(coord.retrieve(OperatorId::new(20)).is_ok());
        assert!(coord.retrieve(OperatorId::new(21)).is_ok());
        for old in [10, 11] {
            assert!(coord.backup_of(OperatorId::new(old)).is_none());
            assert!(coord.retrieve(OperatorId::new(old)).is_err());
        }
    }

    #[test]
    fn store_partitioned_sets_initial_backups_and_drops_old() {
        let coord = coordinator_with_stores(&[1, 2]);
        let ups = [OperatorId::new(1), OperatorId::new(2)];
        let old = OperatorId::new(5);
        coord
            .backup_state(old, &ups, Checkpoint::empty(old))
            .unwrap();

        let parts = vec![
            Checkpoint::empty(OperatorId::new(10)),
            Checkpoint::empty(OperatorId::new(11)),
        ];
        coord.store_partitioned(old, &ups, &parts).unwrap();
        assert!(coord.retrieve(OperatorId::new(10)).is_ok());
        assert!(coord.retrieve(OperatorId::new(11)).is_ok());
        assert!(coord.backup_of(old).is_none());
        assert!(matches!(coord.retrieve(old), Err(Error::NoBackup(_))));
    }

    #[test]
    fn partition_for_scale_out_runs_at_the_backup_store() {
        let coord = coordinator_with_stores(&[1]);
        let op = OperatorId::new(5);
        coord
            .backup_state(op, &[OperatorId::new(1)], checkpoint(5, 1))
            .unwrap();
        let ranges = KeyRange::full().split_even(2).unwrap();
        let parts = coord
            .partition_for_scale_out(
                op,
                &[
                    (OperatorId::new(10), ranges[0]),
                    (OperatorId::new(11), ranges[1]),
                ],
            )
            .unwrap();
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.processing.len()).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn merge_for_scale_in_combines_backups_from_one_store() {
        let coord = coordinator_with_stores(&[1]);
        let ups = [OperatorId::new(1)];
        let ranges = KeyRange::full().split_even(2).unwrap();
        coord
            .backup_state(OperatorId::new(10), &ups, checkpoint(10, 3))
            .unwrap();
        coord
            .backup_state(OperatorId::new(11), &ups, checkpoint(11, 5))
            .unwrap();
        let (merged, range) = coord
            .merge_for_scale_in(
                OperatorId::new(20),
                (OperatorId::new(10), ranges[0]),
                (OperatorId::new(11), ranges[1]),
            )
            .unwrap();
        assert_eq!(range, KeyRange::full());
        assert_eq!(merged.meta.operator, OperatorId::new(20));
        assert_eq!(merged.processing.len(), 2);

        coord
            .store_merged([OperatorId::new(10), OperatorId::new(11)], &ups, &merged)
            .unwrap();
        assert_eq!(
            coord
                .retrieve(OperatorId::new(20))
                .unwrap()
                .processing
                .len(),
            2
        );
        assert!(coord.retrieve(OperatorId::new(10)).is_err());
        assert!(coord.retrieve(OperatorId::new(11)).is_err());
        assert!(coord.backup_of(OperatorId::new(10)).is_none());
    }

    #[test]
    fn merge_adjacent_pools_many_partitions() {
        let coord = coordinator_with_stores(&[1, 2]);
        let ups = [OperatorId::new(1), OperatorId::new(2)];
        let ranges = KeyRange::full().split_even(4).unwrap();
        for (i, op) in [10u64, 11, 12, 13].iter().enumerate() {
            coord
                .backup_state(OperatorId::new(*op), &ups, checkpoint(*op, i as u64 + 1))
                .unwrap();
        }
        // Out-of-key-order input is sorted before merging.
        let parts = vec![
            (OperatorId::new(12), ranges[2]),
            (OperatorId::new(10), ranges[0]),
            (OperatorId::new(13), ranges[3]),
            (OperatorId::new(11), ranges[1]),
        ];
        let (merged, range) = coord.merge_adjacent(OperatorId::new(20), &parts).unwrap();
        assert_eq!(range, KeyRange::full());
        assert_eq!(merged.meta.operator, OperatorId::new(20));
        assert_eq!(merged.processing.len(), 4);

        // A missing backup surfaces instead of silently merging less state.
        let gap = vec![
            (OperatorId::new(10), ranges[0]),
            (OperatorId::new(99), ranges[1]),
        ];
        assert!(matches!(
            coord.merge_adjacent(OperatorId::new(21), &gap),
            Err(Error::NoBackup(_))
        ));
        // Non-adjacent ranges are rejected like the pairwise merge rejects
        // them.
        let torn = vec![
            (OperatorId::new(10), ranges[0]),
            (OperatorId::new(12), ranges[2]),
        ];
        assert!(coord.merge_adjacent(OperatorId::new(22), &torn).is_err());
        assert!(coord.merge_adjacent(OperatorId::new(23), &[]).is_err());
    }

    #[test]
    fn merge_for_scale_in_spans_stores_and_requires_backups() {
        let coord = coordinator_with_stores(&[1, 2]);
        let ranges = KeyRange::full().split_even(2).unwrap();
        // Pin the two partitions' backups to *different* stores.
        coord
            .backup_state(
                OperatorId::new(10),
                &[OperatorId::new(1)],
                checkpoint(10, 1),
            )
            .unwrap();
        let err = coord.merge_for_scale_in(
            OperatorId::new(20),
            (OperatorId::new(10), ranges[0]),
            (OperatorId::new(11), ranges[1]),
        );
        assert!(matches!(err, Err(Error::NoBackup(_))), "11 has no backup");

        coord
            .backup_state(
                OperatorId::new(11),
                &[OperatorId::new(2)],
                checkpoint(11, 2),
            )
            .unwrap();
        let (merged, range) = coord
            .merge_for_scale_in(
                OperatorId::new(20),
                (OperatorId::new(10), ranges[0]),
                (OperatorId::new(11), ranges[1]),
            )
            .unwrap();
        assert_eq!(range, KeyRange::full());
        assert_eq!(merged.processing.len(), 2);
    }

    #[test]
    fn unregister_store_makes_backups_unreachable() {
        let coord = coordinator_with_stores(&[1]);
        let op = OperatorId::new(5);
        coord
            .backup_state(op, &[OperatorId::new(1)], Checkpoint::empty(op))
            .unwrap();
        coord.unregister_store(OperatorId::new(1));
        assert!(coord.retrieve(op).is_err());
        assert_eq!(coord.aggregate_stats(), StoreStats::default());
    }
}
