//! The in-memory backend, extracted from the seed's `InMemoryBackupStore`
//! (`seep-core`'s `backup.rs`).

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::RwLock;

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::error::{Error, Result};
use seep_core::operator::OperatorId;

use crate::traits::{CheckpointStore, PutOutcome, StoreMetrics, StoreStats};

/// A thread-safe in-memory checkpoint store holding one checkpoint per owner.
#[derive(Debug, Default)]
pub struct MemStore {
    inner: RwLock<HashMap<OperatorId, Checkpoint>>,
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
        self.inner.write().insert(owner, checkpoint);
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
        let base = map.get_mut(&owner).ok_or(Error::NoBackup(owner))?;
        if base.meta.sequence != inc.base_sequence {
            return Err(Error::Invariant(format!(
                "incremental checkpoint base {} does not match stored sequence {}",
                inc.base_sequence, base.meta.sequence
            )));
        }
        // The base becomes the new checkpoint in place: applying a delta
        // costs what the delta holds.
        base.apply_increment(inc);
        let sequence = base.meta.sequence;
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
            .cloned()
            .ok_or(Error::NoBackup(owner))?;
        self.metrics.record_restore(cp.size_bytes(), started);
        Ok(cp)
    }

    fn latest_sequence(&self, owner: OperatorId) -> Option<u64> {
        self.inner.read().get(&owner).map(|cp| cp.meta.sequence)
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
        self.inner.read().values().map(Checkpoint::size_bytes).sum()
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
    fn a_put_replaces_the_stored_checkpoint() {
        let store = MemStore::new();
        let owner = OperatorId::new(7);
        store.put(owner, checkpoint(7, 1)).unwrap();
        let one = store.size_bytes();
        store.put(owner, checkpoint(7, 2)).unwrap();
        assert_eq!(store.latest(owner).unwrap().meta.sequence, 2);
        assert_eq!(store.latest_sequence(owner), Some(2));
        // No history accumulates: the footprint is one checkpoint's however
        // many rounds are stored.
        for seq in 3..1_003 {
            store.put(owner, checkpoint(7, seq)).unwrap();
            assert_eq!(store.size_bytes(), one);
        }
        assert_eq!(store.owners(), vec![owner]);
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
