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
    fn store_repartitioned_replaces_a_pair_with_a_pair() {
        // The rebalance shape, two old partitions replaced by two new ones,
        // then the scale-in shape (2 → 1) over the rebalanced pair.
        let shapes: [(&[u64], &[u64]); 2] = [(&[10, 11], &[20, 21]), (&[20, 21], &[8])];
        let coord = coordinator_with_stores(&[1, 2]);
        let ups = [OperatorId::new(1), OperatorId::new(2)];
        for old in [10, 11] {
            coord
                .backup_state(OperatorId::new(old), &ups, checkpoint(old, 1))
                .unwrap();
        }
        for (olds, news) in shapes {
            let olds: Vec<OperatorId> = olds.iter().map(|o| OperatorId::new(*o)).collect();
            let parts: Vec<Checkpoint> = news
                .iter()
                .map(|n| Checkpoint::empty(OperatorId::new(*n)))
                .collect();
            let outcomes = coord.store_repartitioned(&olds, &ups, &parts).unwrap();
            assert_eq!(outcomes.len(), news.len());
            for new in news {
                assert!(coord.retrieve(OperatorId::new(*new)).is_ok());
            }
            for old in olds {
                assert!(coord.backup_of(old).is_none());
                assert!(matches!(coord.retrieve(old), Err(Error::NoBackup(_))));
            }
        }
    }

    #[test]
    fn store_partitioned_sets_initial_backups_and_drops_old() {
        // The scale-out shape: one old operator replaced by two partitions.
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
        coord.store_repartitioned(&[old], &ups, &parts).unwrap();
        assert!(coord.retrieve(OperatorId::new(10)).is_ok());
        assert!(coord.retrieve(OperatorId::new(11)).is_ok());
        assert!(coord.backup_of(old).is_none());
        assert!(matches!(coord.retrieve(old), Err(Error::NoBackup(_))));
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
