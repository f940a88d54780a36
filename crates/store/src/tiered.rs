//! A two-tier store: the hot latest checkpoint of each owner in memory,
//! every sequence durable on disk in a [`FileStore`] log.
//!
//! Restores of the operators being actively checkpointed are served from
//! memory at `MemStore` speed; the disk log makes every write durable and
//! serves owners whose hot copy was evicted. Eviction is delegated to the
//! [`SpillPolicy`] hooks of `seep-core`'s spill module (the paper lists
//! spill/persist among the additional primitives the state-management
//! interface supports, §3.3): whenever the hot set exceeds the policy's
//! budget, least-recently-used owners are dropped from memory — their state
//! stays retrievable from the cold tier.

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::Mutex;

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::error::Result;
use seep_core::operator::OperatorId;
use seep_core::spill::{MemoryBudget, SpillPolicy};

use crate::file::{FileStore, FileStoreConfig};
use crate::traits::{CheckpointStore, PutOutcome, StoreMetrics, StoreStats};

struct Hot {
    /// Each resident checkpoint with its `size_bytes()`, kept alongside so a
    /// delta can adjust it without re-measuring the whole checkpoint.
    entries: HashMap<OperatorId, (Checkpoint, usize)>,
    /// Recency order, least recently used first.
    lru: Vec<OperatorId>,
    bytes: usize,
}

impl Hot {
    fn touch(&mut self, owner: OperatorId) {
        self.lru.retain(|o| *o != owner);
        self.lru.push(owner);
    }

    fn insert(&mut self, owner: OperatorId, checkpoint: Checkpoint) {
        self.remove(owner);
        let size = checkpoint.size_bytes();
        self.bytes += size;
        self.entries.insert(owner, (checkpoint, size));
        self.touch(owner);
    }

    /// Drop `owner`'s hot copy, returning the bytes released.
    fn remove(&mut self, owner: OperatorId) -> Option<usize> {
        self.lru.retain(|o| *o != owner);
        let (_, size) = self.entries.remove(&owner)?;
        self.bytes -= size;
        Some(size)
    }

    /// Evict least-recently-used owners until at most `excess` bytes are
    /// released, never evicting `keep`.
    fn evict(&mut self, mut excess: usize, keep: OperatorId) {
        while excess > 0 {
            let Some(&victim) = self.lru.iter().find(|o| **o != keep) else {
                break;
            };
            let released = self.remove(victim).unwrap_or(0);
            excess = excess.saturating_sub(released);
        }
    }

    /// Keep the budget after `owner`'s copy was admitted or grew: evict
    /// others first, and if that copy alone exceeds the budget drop it too —
    /// the hot tier never holds more than the policy allows.
    fn enforce(&mut self, policy: &dyn SpillPolicy, owner: OperatorId) {
        let excess = policy.excess_bytes(self.bytes);
        if excess > 0 {
            self.evict(excess, owner);
            if policy.excess_bytes(self.bytes) > 0 {
                self.remove(owner);
            }
        }
    }
}

/// The tiered backend. See the module docs.
pub struct TieredStore {
    hot: Mutex<Hot>,
    cold: FileStore,
    policy: Box<dyn SpillPolicy>,
    metrics: StoreMetrics,
}

impl std::fmt::Debug for TieredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("cold", &self.cold)
            .finish_non_exhaustive()
    }
}

impl TieredStore {
    /// Open a tiered store whose cold tier lives in `cold_config.dir`,
    /// keeping at most `hot_bytes_budget` bytes of checkpoints in memory.
    pub fn open(cold_config: FileStoreConfig, hot_bytes_budget: usize) -> Result<Self> {
        Self::with_policy(cold_config, Box::new(MemoryBudget::new(hot_bytes_budget)))
    }

    /// Open a tiered store with an explicit spill policy.
    pub fn with_policy(cold_config: FileStoreConfig, policy: Box<dyn SpillPolicy>) -> Result<Self> {
        Ok(TieredStore {
            hot: Mutex::new(Hot {
                entries: HashMap::new(),
                lru: Vec::new(),
                bytes: 0,
            }),
            cold: FileStore::open(cold_config)?,
            policy,
            metrics: StoreMetrics::default(),
        })
    }

    /// Bytes of checkpoints currently resident in the hot tier.
    pub fn hot_bytes(&self) -> usize {
        self.hot.lock().bytes
    }

    /// Owners currently resident in the hot tier.
    pub fn hot_owners(&self) -> Vec<OperatorId> {
        let mut v: Vec<OperatorId> = self.hot.lock().entries.keys().copied().collect();
        v.sort();
        v
    }

    /// The cold tier (for inspection by tests and benches).
    pub fn cold(&self) -> &FileStore {
        &self.cold
    }

    fn admit(&self, owner: OperatorId, checkpoint: Checkpoint) {
        let mut hot = self.hot.lock();
        hot.insert(owner, checkpoint);
        hot.enforce(self.policy.as_ref(), owner);
    }
}

impl CheckpointStore for TieredStore {
    fn backend(&self) -> &'static str {
        "tiered"
    }

    fn put(&self, owner: OperatorId, checkpoint: Checkpoint) -> Result<PutOutcome> {
        let started = Instant::now();
        let outcome = self.cold.put(owner, checkpoint.clone())?;
        self.admit(owner, checkpoint);
        self.metrics.record_put(outcome.bytes_written, started);
        Ok(PutOutcome {
            sequence: outcome.sequence,
            bytes_written: outcome.bytes_written,
            write_us: started.elapsed().as_micros() as u64,
        })
    }

    fn apply_incremental(
        &self,
        owner: OperatorId,
        inc: &IncrementalCheckpoint,
    ) -> Result<PutOutcome> {
        let started = Instant::now();
        let outcome = self.cold.apply_incremental(owner, inc)?;
        // Keep the hot copy current, in place, when present; otherwise leave
        // the owner cold-only — it is promoted on its next restore.
        // Materialising from the cold tier here would pay a full on-disk
        // chain read per delta, exactly the amplification the hot tier
        // exists to avoid.
        {
            let mut guard = self.hot.lock();
            let hot = &mut *guard;
            match hot.entries.get_mut(&owner) {
                Some((base, size)) if base.meta.sequence == inc.base_sequence => {
                    let grown = base.apply_increment(inc);
                    *size = size.saturating_add_signed(grown);
                    hot.bytes = hot.bytes.saturating_add_signed(grown);
                    hot.touch(owner);
                    // The grown checkpoint still respects the spill policy's
                    // hot-byte budget.
                    hot.enforce(self.policy.as_ref(), owner);
                }
                // Stale hot copy (chain diverged): drop it rather than serve
                // an old sequence from the hot path.
                Some(_) => {
                    hot.remove(owner);
                }
                None => {}
            }
        }
        self.metrics
            .record_increment(outcome.bytes_written, started);
        Ok(PutOutcome {
            sequence: outcome.sequence,
            bytes_written: outcome.bytes_written,
            write_us: started.elapsed().as_micros() as u64,
        })
    }

    fn latest(&self, owner: OperatorId) -> Result<Checkpoint> {
        let started = Instant::now();
        let hot_copy = {
            let mut hot = self.hot.lock();
            let cp = hot.entries.get(&owner).map(|(cp, _)| cp.clone());
            if cp.is_some() {
                hot.touch(owner);
            }
            cp
        };
        if let Some(cp) = hot_copy {
            self.metrics.record_hot_hit();
            self.metrics.record_restore(cp.size_bytes(), started);
            return Ok(cp);
        }
        self.metrics.record_hot_miss();
        let cp = self.cold.latest(owner)?;
        self.admit(owner, cp.clone());
        self.metrics.record_restore(cp.size_bytes(), started);
        Ok(cp)
    }

    fn get(&self, owner: OperatorId, sequence: u64) -> Result<Checkpoint> {
        {
            let hot = self.hot.lock();
            if let Some((cp, _)) = hot.entries.get(&owner) {
                if cp.meta.sequence == sequence {
                    self.metrics.record_hot_hit();
                    return Ok(cp.clone());
                }
            }
        }
        self.cold.get(owner, sequence)
    }

    fn latest_sequence(&self, owner: OperatorId) -> Option<u64> {
        self.cold.latest_sequence(owner)
    }

    fn prune(&self, owner: OperatorId, before_sequence: u64) -> usize {
        self.cold.prune(owner, before_sequence)
    }

    fn delete(&self, owner: OperatorId) -> bool {
        let hot_had = self.hot.lock().remove(owner).is_some();
        let cold_had = self.cold.delete(owner);
        hot_had || cold_had
    }

    fn owners(&self) -> Vec<OperatorId> {
        self.cold.owners()
    }

    fn size_bytes(&self) -> usize {
        self.cold.size_bytes()
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.metrics.stats();
        stats.compactions = self.cold.stats().compactions;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::state::{BufferState, ProcessingState};
    use seep_core::tuple::{Key, StreamId};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("seep-tiered-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn checkpoint(op: u64, seq: u64, payload_bytes: usize) -> Checkpoint {
        let mut st = ProcessingState::empty();
        st.insert(Key(op), vec![0u8; payload_bytes]);
        st.advance_ts(StreamId(0), seq);
        Checkpoint::new(OperatorId::new(op), seq, st, BufferState::new())
    }

    #[test]
    fn hot_hits_and_durable_cold_tier() {
        let dir = temp_dir("hits");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 1 << 20).unwrap();
        let cp = checkpoint(1, 1, 256);
        store.put(OperatorId::new(1), cp.clone()).unwrap();
        assert_eq!(store.latest(OperatorId::new(1)).unwrap(), cp);
        let stats = store.stats();
        assert_eq!(stats.hot_hits, 1);
        assert_eq!(stats.hot_misses, 0);
        // The same state is recoverable from the cold log alone.
        let cold = FileStore::open_dir(&dir).unwrap();
        assert_eq!(cold.latest(OperatorId::new(1)).unwrap(), cp);
    }

    #[test]
    fn eviction_spills_lru_owner_but_keeps_it_retrievable() {
        let dir = temp_dir("evict");
        // Budget fits roughly two of the three checkpoints.
        let store = TieredStore::open(FileStoreConfig::new(&dir), 2_200).unwrap();
        for op in 1..=3u64 {
            store
                .put(OperatorId::new(op), checkpoint(op, 1, 1_000))
                .unwrap();
        }
        assert!(store.hot_bytes() <= 2_200);
        assert!(store.hot_owners().len() < 3);
        // Operator 1 was evicted (least recently used) but still restores.
        let restored = store.latest(OperatorId::new(1)).unwrap();
        assert_eq!(restored.meta.operator, OperatorId::new(1));
        assert!(store.stats().hot_misses >= 1);
    }

    #[test]
    fn incremental_updates_hot_copy() {
        let dir = temp_dir("inc");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 1 << 20).unwrap();
        let base = checkpoint(4, 1, 64);
        store.put(OperatorId::new(4), base.clone()).unwrap();
        let mut next = base.clone();
        next.meta.sequence = 2;
        next.processing.insert(Key(9), vec![9; 16]);
        let inc = IncrementalCheckpoint::diff(&base, &next);
        store.apply_incremental(OperatorId::new(4), &inc).unwrap();
        let restored = store.latest(OperatorId::new(4)).unwrap();
        assert_eq!(restored.meta.sequence, 2);
        assert!(restored.processing.get(Key(9)).is_some());
        assert!(store.stats().hot_hits >= 1, "served from the hot tier");
    }

    #[test]
    fn oversized_checkpoint_stays_cold_only() {
        let dir = temp_dir("oversize");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 100).unwrap();
        let cp = checkpoint(7, 1, 4_000);
        store.put(OperatorId::new(7), cp.clone()).unwrap();
        assert_eq!(store.hot_bytes(), 0);
        assert_eq!(store.latest(OperatorId::new(7)).unwrap(), cp);
    }

    #[test]
    fn cold_only_owner_stays_cold_on_increments() {
        let dir = temp_dir("cold-inc");
        // Budget too small for the checkpoint: it lives cold-only.
        let store = TieredStore::open(FileStoreConfig::new(&dir), 100).unwrap();
        let base = checkpoint(5, 1, 2_000);
        store.put(OperatorId::new(5), base.clone()).unwrap();
        assert!(store.hot_owners().is_empty());
        let mut next = base.clone();
        next.meta.sequence = 2;
        next.processing.insert(Key(1), vec![1; 8]);
        let inc = IncrementalCheckpoint::diff(&base, &next);
        let restores_before = store.cold.stats().restores;
        store.apply_incremental(OperatorId::new(5), &inc).unwrap();
        // No promotion and, crucially, no cold-tier materialisation per delta.
        assert!(store.hot_owners().is_empty());
        assert_eq!(store.cold.stats().restores, restores_before);
        assert_eq!(store.latest(OperatorId::new(5)).unwrap().meta.sequence, 2);
    }

    #[test]
    fn incremental_growth_respects_hot_budget() {
        let dir = temp_dir("grow");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 1_500).unwrap();
        let base = checkpoint(6, 1, 1_000);
        store.put(OperatorId::new(6), base.clone()).unwrap();
        assert_eq!(store.hot_owners(), vec![OperatorId::new(6)]);
        // Grow the state past the budget through increments only.
        let mut prev = base;
        for seq in 2..=4u64 {
            let mut next = prev.clone();
            next.meta.sequence = seq;
            next.processing.insert(Key(seq), vec![0u8; 400]);
            let inc = IncrementalCheckpoint::diff(&prev, &next);
            store.apply_incremental(OperatorId::new(6), &inc).unwrap();
            prev = next;
        }
        assert!(
            store.hot_bytes() <= 1_500,
            "hot tier exceeded its budget: {}",
            store.hot_bytes()
        );
        assert_eq!(store.latest(OperatorId::new(6)).unwrap().meta.sequence, 4);
    }

    #[test]
    fn deltas_applied_in_place_keep_the_hot_byte_count_exact() {
        let dir = temp_dir("in-place");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 1 << 20).unwrap();
        let owner = OperatorId::new(3);
        let mut prev = checkpoint(3, 1, 500);
        store.put(owner, prev.clone()).unwrap();
        for seq in 2..=6u64 {
            let mut next = prev.clone();
            next.meta.sequence = seq;
            next.processing
                .insert(Key(seq), vec![0u8; 100 * seq as usize]);
            next.processing.remove(Key(seq - 2)); // shrinks as well as grows
            let inc = IncrementalCheckpoint::diff(&prev, &next);
            store.apply_incremental(owner, &inc).unwrap();
            assert_eq!(store.hot_bytes(), next.size_bytes());
            prev = next;
        }
        assert_eq!(store.latest(owner).unwrap(), prev);
        assert!(store.stats().hot_hits >= 1);
    }

    #[test]
    fn delete_clears_both_tiers() {
        let dir = temp_dir("delete");
        let store = TieredStore::open(FileStoreConfig::new(&dir), 1 << 20).unwrap();
        store.put(OperatorId::new(2), checkpoint(2, 1, 32)).unwrap();
        assert!(store.delete(OperatorId::new(2)));
        assert!(!store.delete(OperatorId::new(2)));
        assert!(store.latest(OperatorId::new(2)).is_err());
        assert!(store.owners().is_empty());
    }
}
