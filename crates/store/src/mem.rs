//! The in-memory backend, extracted from the seed's `InMemoryBackupStore`
//! (`seep-core`'s `backup.rs`) and extended with per-owner sequence history.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use parking_lot::RwLock;

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::error::{Error, Result};
use seep_core::operator::OperatorId;

use crate::traits::{CheckpointStore, PutOutcome, StoreMetrics, StoreStats};

/// A thread-safe in-memory checkpoint store.
///
/// Sequences accumulate until [`CheckpointStore::prune`] is called; the
/// runtime prunes to the latest sequence after every successful backup so the
/// memory footprint matches the seed's latest-only behaviour.
#[derive(Debug, Default)]
pub struct MemStore {
    inner: RwLock<HashMap<OperatorId, BTreeMap<u64, Checkpoint>>>,
    metrics: StoreMetrics,
}

impl MemStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of owners with at least one checkpoint stored.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

impl CheckpointStore for MemStore {
    fn backend(&self) -> &'static str {
        "mem"
    }

    fn put(&self, owner: OperatorId, checkpoint: Checkpoint) -> Result<PutOutcome> {
        let started = Instant::now();
        let sequence = checkpoint.meta.sequence;
        let bytes = checkpoint.size_bytes();
        self.inner
            .write()
            .entry(owner)
            .or_default()
            .insert(sequence, checkpoint);
        self.metrics.record_put(bytes, started);
        Ok(PutOutcome {
            sequence,
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
        let bytes = inc.size_bytes();
        let mut map = self.inner.write();
        let versions = map.get_mut(&owner).ok_or(Error::NoBackup(owner))?;
        let base = versions.last_entry().ok_or(Error::NoBackup(owner))?;
        if base.get().meta.sequence != inc.base_sequence {
            return Err(Error::Invariant(format!(
                "incremental checkpoint base {} does not match stored sequence {}",
                inc.base_sequence,
                base.get().meta.sequence
            )));
        }
        // The base becomes the new version in place: applying a delta costs
        // what the delta holds, and the superseded sequence is the one the
        // coordinator would prune next anyway.
        let mut next = base.remove();
        next.apply_increment(inc);
        let sequence = next.meta.sequence;
        versions.insert(sequence, next);
        drop(map);
        self.metrics.record_increment(bytes, started);
        Ok(PutOutcome {
            sequence,
            bytes_written: bytes,
            write_us: started.elapsed().as_micros() as u64,
        })
    }

    fn latest(&self, owner: OperatorId) -> Result<Checkpoint> {
        let started = Instant::now();
        let cp = self
            .inner
            .read()
            .get(&owner)
            .and_then(|v| v.values().next_back().cloned())
            .ok_or(Error::NoBackup(owner))?;
        self.metrics.record_restore(cp.size_bytes(), started);
        Ok(cp)
    }

    fn get(&self, owner: OperatorId, sequence: u64) -> Result<Checkpoint> {
        let started = Instant::now();
        let cp = self
            .inner
            .read()
            .get(&owner)
            .and_then(|v| v.get(&sequence).cloned())
            .ok_or(Error::NoBackup(owner))?;
        self.metrics.record_restore(cp.size_bytes(), started);
        Ok(cp)
    }

    fn latest_sequence(&self, owner: OperatorId) -> Option<u64> {
        self.inner
            .read()
            .get(&owner)
            .and_then(|v| v.keys().next_back().copied())
    }

    fn prune(&self, owner: OperatorId, before_sequence: u64) -> usize {
        let mut map = self.inner.write();
        let Some(versions) = map.get_mut(&owner) else {
            return 0;
        };
        let keep = versions.split_off(&before_sequence);
        let dropped = versions.len();
        *versions = keep;
        if versions.is_empty() {
            map.remove(&owner);
        }
        dropped
    }

    fn delete(&self, owner: OperatorId) -> bool {
        self.inner.write().remove(&owner).is_some()
    }

    fn owners(&self) -> Vec<OperatorId> {
        let mut v: Vec<OperatorId> = self.inner.read().keys().copied().collect();
        v.sort();
        v
    }

    fn size_bytes(&self) -> usize {
        self.inner
            .read()
            .values()
            .flat_map(|v| v.values())
            .map(Checkpoint::size_bytes)
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

    fn checkpoint(op: u64, seq: u64) -> Checkpoint {
        let mut st = ProcessingState::empty();
        st.insert(Key(op), vec![op as u8]);
        st.advance_ts(StreamId(0), seq);
        Checkpoint::new(OperatorId::new(op), seq, st, BufferState::new())
    }

    #[test]
    fn store_retrieve_delete() {
        let store = MemStore::new();
        assert!(store.is_empty());
        let cp = checkpoint(7, 1);
        store.put(OperatorId::new(7), cp.clone()).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.latest(OperatorId::new(7)).unwrap(), cp);
        assert_eq!(store.get(OperatorId::new(7), 1).unwrap(), cp);
        assert!(store.size_bytes() > 0);
        assert_eq!(store.owners(), vec![OperatorId::new(7)]);
        assert!(store.delete(OperatorId::new(7)));
        assert!(!store.delete(OperatorId::new(7)));
        assert!(matches!(
            store.latest(OperatorId::new(7)),
            Err(Error::NoBackup(_))
        ));
    }

    #[test]
    fn newer_checkpoint_becomes_latest_and_prune_drops_history() {
        let store = MemStore::new();
        store.put(OperatorId::new(7), checkpoint(7, 1)).unwrap();
        store.put(OperatorId::new(7), checkpoint(7, 2)).unwrap();
        assert_eq!(store.latest(OperatorId::new(7)).unwrap().meta.sequence, 2);
        assert_eq!(store.latest_sequence(OperatorId::new(7)), Some(2));
        // Both sequences retrievable until pruned.
        assert!(store.get(OperatorId::new(7), 1).is_ok());
        assert_eq!(store.prune(OperatorId::new(7), 2), 1);
        assert!(store.get(OperatorId::new(7), 1).is_err());
        assert!(store.latest(OperatorId::new(7)).is_ok());
        // Pruning everything removes the owner.
        assert_eq!(store.prune(OperatorId::new(7), u64::MAX), 1);
        assert!(store.owners().is_empty());
    }

    #[test]
    fn incremental_applies_on_latest_base() {
        let store = MemStore::new();
        let base = checkpoint(7, 1);
        store.put(OperatorId::new(7), base.clone()).unwrap();

        let mut current = base.clone();
        current.meta.sequence = 2;
        current.processing.insert(Key(99), vec![9]);
        let inc = IncrementalCheckpoint::diff(&base, &current);

        let outcome = store.apply_incremental(OperatorId::new(7), &inc).unwrap();
        assert_eq!(outcome.sequence, 2);
        let stored = store.latest(OperatorId::new(7)).unwrap();
        assert_eq!(stored.meta.sequence, 2);
        assert!(stored.processing.get(Key(99)).is_some());

        // Wrong base sequence is rejected (latest is now 2, inc bases on 1).
        assert!(store.apply_incremental(OperatorId::new(7), &inc).is_err());
        // Unknown owner is rejected.
        assert!(store.apply_incremental(OperatorId::new(8), &inc).is_err());
    }

    #[test]
    fn stats_track_io() {
        let store = MemStore::new();
        store.put(OperatorId::new(1), checkpoint(1, 1)).unwrap();
        store.latest(OperatorId::new(1)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.puts, 1);
        assert_eq!(stats.restores, 1);
        assert!(stats.bytes_written > 0);
        assert!(stats.bytes_restored > 0);
    }
}
